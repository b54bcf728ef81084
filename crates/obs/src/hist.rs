//! Log-bucketed latency histograms: power-of-two microsecond buckets
//! updated with relaxed atomics, merged on read.
//!
//! A [`Histogram`] is a fixed array of [`BUCKETS`] counters whose
//! upper bounds are `1µs, 2µs, 4µs, … 2^26µs (~67s)` plus `+Inf`, a
//! running sum of observed microseconds, and an observation count.
//! Recording is wait-free (three relaxed atomic adds); reading takes a
//! [`Snapshot`] that can be merged with others (merge-on-read — each
//! owner keeps its own histogram, nothing registers anywhere) and
//! rendered as a Prometheus `_bucket`/`_sum`/`_count` family or asked
//! for quantiles.
//!
//! Registry-free by design: owners hold `static` histograms (the type
//! is const-constructible) or plain fields and decide themselves what
//! gets exported where.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of finite buckets; bucket `i` holds observations in
/// `(2^(i-1), 2^i]` microseconds (bucket 0: `[0, 1]`). One extra
/// overflow bucket catches everything above `2^(BUCKETS-1)` µs.
pub const BUCKETS: usize = 27;

/// A fixed-bucket latency histogram; see the module docs.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS + 1],
    sum_micros: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The index of the finite bucket whose upper bound first admits `v`
/// microseconds, or the overflow index.
fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        return 0;
    }
    let k = (u64::BITS - (v - 1).leading_zeros()) as usize;
    k.min(BUCKETS)
}

/// Upper bound, in microseconds, of finite bucket `i`.
pub fn bucket_bound_micros(i: usize) -> u64 {
    1u64 << i
}

impl Histogram {
    /// An empty histogram. `const`, so owners can hold them in
    /// `static`s.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; BUCKETS + 1],
            sum_micros: ZERO,
            count: ZERO,
        }
    }

    /// Records one observation of `v` microseconds.
    pub fn observe_micros(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one observation of a [`Duration`].
    pub fn observe(&self, d: Duration) {
        self.observe_micros(d.as_micros() as u64);
    }

    /// A point-in-time copy of the counters. Concurrent observers may
    /// land between the reads; each individual counter is exact and
    /// monotone, which is all the Prometheus exposition model needs.
    pub fn snapshot(&self) -> Snapshot {
        let mut buckets = [0u64; BUCKETS + 1];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        Snapshot {
            buckets,
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a histogram's counters; merge, query quantiles,
/// or render from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Per-bucket (not cumulative) observation counts; the last entry
    /// is the overflow bucket.
    pub buckets: [u64; BUCKETS + 1],
    /// Sum of all observed values, in microseconds.
    pub sum_micros: u64,
    /// Total observations.
    pub count: u64,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot {
            buckets: [0; BUCKETS + 1],
            sum_micros: 0,
            count: 0,
        }
    }
}

impl Snapshot {
    /// Adds another snapshot's counts into this one (merge-on-read).
    pub fn merge(&mut self, other: &Snapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum_micros += other.sum_micros;
        self.count += other.count;
    }

    /// The cumulative Prometheus view: `(upper bound in seconds,
    /// cumulative count)` per finite bucket; the caller appends the
    /// `+Inf` bucket with [`Snapshot::count`].
    pub fn cumulative_seconds(&self) -> Vec<(f64, u64)> {
        let mut acc = 0u64;
        (0..BUCKETS)
            .map(|i| {
                acc += self.buckets[i];
                (bucket_bound_micros(i) as f64 / 1e6, acc)
            })
            .collect()
    }

    /// The nearest-rank `q`-quantile (`0.0 ..= 1.0`) as the upper
    /// bound of the bucket holding that rank, in microseconds. `0.0`
    /// for an empty snapshot; an overflow-bucket rank reports the
    /// largest finite bound.
    pub fn quantile_micros(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut acc = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            acc += b;
            if acc >= rank {
                return bucket_bound_micros(i.min(BUCKETS - 1)) as f64;
            }
        }
        bucket_bound_micros(BUCKETS - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 11);
        // Everything past the largest finite bound lands in overflow.
        assert_eq!(bucket_index(u64::MAX), BUCKETS);
        assert_eq!(bucket_index(1 << 26), 26);
        assert_eq!(bucket_index((1 << 26) + 1), BUCKETS);
    }

    #[test]
    fn observations_land_in_their_buckets() {
        let h = Histogram::new();
        h.observe_micros(1);
        h.observe_micros(3);
        h.observe_micros(3);
        h.observe_micros(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum_micros, 1_000_007);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets[bucket_index(1_000_000)], 1);
    }

    #[test]
    fn merge_equals_sequential_observation() {
        let values: Vec<u64> = (0..500).map(|i| (i * 37) % 10_000).collect();
        let whole = Histogram::new();
        let left = Histogram::new();
        let right = Histogram::new();
        for (i, &v) in values.iter().enumerate() {
            whole.observe_micros(v);
            if i % 2 == 0 { &left } else { &right }.observe_micros(v);
        }
        let mut merged = left.snapshot();
        merged.merge(&right.snapshot());
        assert_eq!(merged, whole.snapshot());
    }

    #[test]
    fn concurrent_observers_lose_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.observe_micros(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 8000);
    }

    #[test]
    fn quantiles_are_nearest_rank_bucket_bounds() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.observe_micros(100); // bucket bound 128
        }
        h.observe_micros(1_000_000); // bucket bound 2^20
        let s = h.snapshot();
        assert_eq!(s.quantile_micros(0.5), 128.0);
        assert_eq!(s.quantile_micros(0.99), 128.0);
        assert_eq!(s.quantile_micros(0.999), (1u64 << 20) as f64);
        assert_eq!(s.quantile_micros(1.0), (1u64 << 20) as f64);
        assert_eq!(Snapshot::default().quantile_micros(0.5), 0.0);
    }

    #[test]
    fn cumulative_view_is_monotone_and_ends_at_count() {
        let h = Histogram::new();
        for v in [1u64, 5, 5, 300, 40_000, u64::MAX] {
            h.observe_micros(v);
        }
        let s = h.snapshot();
        let cum = s.cumulative_seconds();
        assert_eq!(cum.len(), BUCKETS);
        let mut prev = 0;
        let mut prev_le = 0.0;
        for &(le, c) in &cum {
            assert!(le > prev_le);
            assert!(c >= prev);
            prev = c;
            prev_le = le;
        }
        // The overflow observation is only visible through `count`.
        assert_eq!(prev, s.count - 1);
        assert_eq!(s.count, 6);
    }
}
