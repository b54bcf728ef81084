//! Order statistics and match quality, as the harness reports them.

use std::collections::HashSet;

/// Samples that must lie beyond a percentile before it is reported: a
/// tail made of fewer points is one outlier, not a percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile (`p` in `0..=100`) of unsorted samples;
/// `None` for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median, or NaN for an empty set (which the output check then
/// rejects, so a phase that measured nothing cannot pass silently).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(f64::NAN)
}

/// A tail percentile, reported only when at least [`TAIL_SAMPLES`]
/// samples lie beyond it.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let beyond = samples.len() - ((p / 100.0) * samples.len() as f64).ceil() as usize;
    (beyond >= TAIL_SAMPLES)
        .then(|| percentile(samples, p))
        .flatten()
}

/// Precision, recall and F1 of emitted URI pairs against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
}

/// Scores `emitted` (first-KB URI, second-KB URI) pairs against `truth`.
/// Duplicates in `emitted` count once.
pub fn quality(emitted: &[(String, String)], truth: &[(String, String)]) -> Quality {
    let truth: HashSet<&(String, String)> = truth.iter().collect();
    let emitted: HashSet<&(String, String)> = emitted.iter().collect();
    let hits = emitted.intersection(&truth).count() as f64;
    let ratio = |den: usize| if den == 0 { 0.0 } else { hits / den as f64 };
    let (precision, recall) = (ratio(emitted.len()), ratio(truth.len()));
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    Quality {
        precision,
        recall,
        f1,
    }
}

/// SplitMix64: the harness's own seeded generator for shuffles, scale
/// jitter and derived seeds, so the workload is a pure function of
/// `--seed` without depending on the program's RNG shim.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 91.0), Some(10.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        // p99 of 1000 samples leaves exactly 10 beyond rank 990.
        assert_eq!(tail_percentile(&s(1000), 99.0), Some(989.0));
        assert_eq!(tail_percentile(&s(999), 99.0), None);
        assert_eq!(tail_percentile(&s(7), 99.0), None);
        assert_eq!(tail_percentile(&s(20), 50.0), Some(9.0));
    }

    #[test]
    fn f1_from_emitted_pairs() {
        let p = |a: &str, b: &str| (a.to_string(), b.to_string());
        let truth = vec![p("a1", "b1"), p("a2", "b2"), p("a3", "b3"), p("a4", "b4")];
        let emitted = vec![p("a1", "b1"), p("a2", "b2"), p("a3", "bX"), p("a1", "b1")];
        let q = quality(&emitted, &truth);
        assert!((q.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.recall - 0.5).abs() < 1e-12);
        assert!((q.f1 - 4.0 / 7.0).abs() < 1e-12);
        assert_eq!(quality(&[], &truth).f1, 0.0);
        assert_eq!(quality(&truth, &truth).f1, 1.0);
    }

    #[test]
    fn splitmix_is_a_function_of_its_seed() {
        let draw = |seed| {
            let mut r = SplitMix(seed);
            let mut v: Vec<u32> = (0..50).collect();
            r.shuffle(&mut v);
            (v, r.unit())
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7).0, draw(8).0);
        assert!((0.0..1.0).contains(&draw(7).1));
    }
}
