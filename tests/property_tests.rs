//! Property-style tests over the core data structures and invariants.
//!
//! The build environment has no registry access, so instead of proptest
//! these run each property over many inputs drawn from a small in-file
//! deterministic generator (fixed seeds — failures are reproducible).

use minoaner::baselines::{umc_trace, unique_mapping_clustering};
use minoaner::blocking::{
    canonical_name, purge_with_exec, token_blocking_with, Block, BlockCollection, BlockKind,
    DEFAULT_SMOOTHING,
};
use minoaner::core::MinoanEr;
use minoaner::exec::Executor;
use minoaner::kb::{EntityId, KbBuilder, KbPair, Matching};
use minoaner::sim::{token_weight, value_sim};
use minoaner::text::{TokenizedPair, Tokenizer};

/// Minimal deterministic generator (SplitMix64) for the test inputs.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform value in `[lo, hi]`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

const WORDS: [&str; 8] = [
    "alpha", "beta", "gamma", "delta", "knossos", "zakros", "malia", "phaistos",
];

/// A random small KB pair over a small token universe.
fn arb_kb_pair(gen: &mut Gen) -> KbPair {
    let mut side = |prefix: char, attr: char| {
        let mut b = KbBuilder::new(if prefix == 'a' { "E1" } else { "E2" });
        for i in 0..gen.range(1, 11) {
            for j in 0..gen.range(1, 3) {
                let literal = (0..gen.range(1, 4))
                    .map(|_| WORDS[gen.below(WORDS.len())])
                    .collect::<Vec<_>>()
                    .join(" ");
                b.add_literal(&format!("{prefix}:{i}"), &format!("{attr}{j}"), &literal);
            }
        }
        b.finish()
    };
    let first = side('a', 'p');
    let second = side('b', 'q');
    KbPair::new(first, second)
}

#[test]
fn value_sim_is_nonnegative_and_finite() {
    let mut gen = Gen(1);
    for _ in 0..40 {
        let pair = arb_kb_pair(&mut gen);
        let tokens =
            TokenizedPair::build_with(&pair, &Tokenizer::default(), &Executor::sequential());
        for e1 in pair.first.entities() {
            for e2 in pair.second.entities() {
                let v = value_sim(&tokens, e1, e2);
                assert!(v >= 0.0);
                assert!(v.is_finite());
            }
        }
    }
}

#[test]
fn token_weight_is_in_unit_range() {
    let mut gen = Gen(2);
    for _ in 0..2000 {
        let ef1 = gen.range(1, 100_000) as u32;
        let ef2 = gen.range(1, 100_000) as u32;
        let w = token_weight(ef1, ef2);
        assert!(w > 0.0 && w <= 1.0, "weight {w} for ({ef1},{ef2})");
    }
}

#[test]
fn token_weight_decreases_with_frequency() {
    let mut gen = Gen(3);
    for _ in 0..2000 {
        let ef = gen.range(1, 10_000) as u32;
        assert!(token_weight(ef, 1) >= token_weight(ef + 1, 1));
        assert!(token_weight(ef, ef) >= token_weight(ef + 1, ef + 1));
    }
}

#[test]
fn purging_never_increases_comparisons_or_blocks() {
    let mut gen = Gen(4);
    for _ in 0..60 {
        let blocks: Vec<Block> = (0..gen.range(1, 39))
            .map(|k| Block {
                key: k as u32,
                firsts: (0..gen.range(1, 19) as u32).map(EntityId).collect(),
                seconds: (0..gen.range(1, 19) as u32).map(EntityId).collect(),
            })
            .collect();
        let c = BlockCollection::new(BlockKind::Token, blocks, 20, 20);
        let (p, report) = purge_with_exec(&c, DEFAULT_SMOOTHING, &Executor::sequential());
        assert!(p.total_comparisons() <= c.total_comparisons());
        assert!(p.len() <= c.len());
        assert_eq!(report.comparisons_after, p.total_comparisons());
        // The survivors respect the threshold.
        for b in p.blocks() {
            assert!(b.comparisons() <= report.max_comparisons_per_block);
        }
    }
}

#[test]
fn umc_output_is_a_partial_matching_and_trace_is_sorted() {
    let mut gen = Gen(5);
    for _ in 0..60 {
        let scored: Vec<(EntityId, EntityId, f64)> = (0..gen.below(200))
            .map(|_| {
                (
                    EntityId(gen.below(30) as u32),
                    EntityId(gen.below(30) as u32),
                    gen.unit(),
                )
            })
            .collect();
        let t = gen.unit();
        let m = unique_mapping_clustering(&scored, t);
        assert!(m.is_partial_matching());
        // Trace is sorted by score descending.
        let trace = umc_trace(&scored);
        assert!(trace.windows(2).all(|w| w[0].2 >= w[1].2));
    }
}

#[test]
fn canonical_name_is_idempotent_and_space_normal() {
    let mut gen = Gen(6);
    for _ in 0..300 {
        // Random strings over a printable-ish alphabet with punctuation.
        let s: String = (0..gen.below(60))
            .map(|_| {
                let c = gen.below(80) as u8 + 0x20;
                c as char
            })
            .collect();
        let c1 = canonical_name(&s);
        let c2 = canonical_name(&c1);
        assert_eq!(c1, c2, "input {s:?}");
        assert!(!c1.contains("  "));
        assert!(!c1.starts_with(' ') && !c1.ends_with(' '));
    }
    // Non-ASCII sanity.
    assert_eq!(canonical_name("Πολύ-Ωραία"), canonical_name("πολύ ωραία"));
}

#[test]
fn token_blocking_only_pairs_entities_sharing_a_token() {
    let mut gen = Gen(7);
    for _ in 0..40 {
        let pair = arb_kb_pair(&mut gen);
        let exec = Executor::sequential();
        let tokens = TokenizedPair::build_with(&pair, &Tokenizer::default(), &exec);
        let bt = token_blocking_with(&tokens, &exec);
        for (e1, e2) in bt.distinct_pairs() {
            let v = value_sim(&tokens, e1, e2);
            assert!(v > 0.0, "co-occurring pair must share a token");
        }
    }
}

#[test]
fn pipeline_never_panics_and_reports_consistently() {
    let mut gen = Gen(8);
    for _ in 0..40 {
        let pair = arb_kb_pair(&mut gen);
        let out = MinoanEr::with_defaults().run_with(&pair, &Executor::default());
        let r = &out.report;
        assert_eq!(
            out.matching.len() + r.h4_removed,
            r.h1_matches + r.h2_matches + r.h3_matches
        );
    }
}

#[test]
fn matching_insert_contains_roundtrip() {
    let mut gen = Gen(9);
    for _ in 0..60 {
        let pairs: Vec<(u32, u32)> = (0..gen.below(100))
            .map(|_| (gen.below(50) as u32, gen.below(50) as u32))
            .collect();
        let m = Matching::from_pairs(pairs.iter().map(|&(a, b)| (EntityId(a), EntityId(b))));
        for &(a, b) in &pairs {
            assert!(m.contains(EntityId(a), EntityId(b)));
        }
        let distinct: std::collections::HashSet<_> = pairs.iter().collect();
        assert_eq!(m.len(), distinct.len());
    }
}
