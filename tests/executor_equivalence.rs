//! Executor equivalence: the parallel backend must reproduce the
//! sequential backend **bit for bit** on every benchmark profile —
//! identical matchings, identical candidate orderings, identical
//! similarity values. This is the contract that makes `--executor` a
//! pure performance knob.

use minoaner::core::{
    build_blocks, top_neighbors_with, Candidate, MatchOutput, MinoanConfig, MinoanEr,
    SimilarityIndex, MAX_CANDIDATES,
};
use minoaner::datagen::DatasetKind;
use minoaner::exec::{Executor, ExecutorKind};
use minoaner::kb::{EntityId, KbPair, KbSide, Matching};

const SEED: u64 = 20180416;
const SCALE: f64 = 0.1;
const THREAD_COUNTS: [usize; 3] = [2, 3, 7];
fn config_with(kind: ExecutorKind, threads: usize) -> MinoanConfig {
    MinoanConfig {
        executor: kind,
        threads,
        ..MinoanConfig::default()
    }
}

/// Resolves `pair` on the executor `config` selects.
fn run(config: MinoanConfig, pair: &KbPair) -> MatchOutput {
    let exec = config.executor();
    MinoanEr::new(config).unwrap().run_with(pair, &exec)
}

#[test]
fn matchings_are_bit_identical_on_every_profile() {
    for kind in DatasetKind::ALL {
        let d = kind.generate_scaled(SEED, SCALE);
        let seq = run(config_with(ExecutorKind::Sequential, 1), &d.pair);
        let seq_pairs: Vec<_> = seq.matching.iter().collect();
        assert!(!seq_pairs.is_empty(), "{}: empty matching", d.name);
        for threads in THREAD_COUNTS {
            let par = run(config_with(ExecutorKind::Pool, threads), &d.pair);
            let par_pairs: Vec<_> = par.matching.iter().collect();
            assert_eq!(
                seq_pairs, par_pairs,
                "{}: matching differs at {threads} pool threads",
                d.name
            );
            // Stage counters must agree too: the heuristics made the
            // same decisions, not just the same final set.
            assert_eq!(seq.report.h1_matches, par.report.h1_matches, "{}", d.name);
            assert_eq!(seq.report.h2_matches, par.report.h2_matches, "{}", d.name);
            assert_eq!(seq.report.h3_matches, par.report.h3_matches, "{}", d.name);
            assert_eq!(seq.report.h4_removed, par.report.h4_removed, "{}", d.name);
        }
    }
}

/// Fingerprints of every value and neighbor candidate row of both sides
/// (`EntityId` + `f64::to_bits`) plus the matching, per profile in
/// [`DatasetKind::ALL`] order at [`SEED`]/[`SCALE`] — captured at the
/// commit *before* the row-major `valueSim` kernel replaced the
/// block-major shard scan. The Sequential-vs-Pool comparisons in this
/// file run both sides at one commit and would let them drift together;
/// these constants pin the bits across commits.
const GOLDEN_FINGERPRINTS: [u64; 4] = [
    0x3540_e48f_a8f8_015f,
    0xbbef_74fd_0b23_b4dd,
    0xc97b_316d_e1ac_69eb,
    0xf7e9_5ceb_ef06_561d,
];

/// Per profile, as [`GOLDEN_FINGERPRINTS`]: how many candidate rows are
/// longer than [`MAX_CANDIDATES`] — value and neighbor rows of the first
/// side, then of the second. Rows are stored ranked and read through
/// the index's reader, so these rows are where the fingerprints cover
/// the reader's sorted tail; at least one profile must have some, or
/// the gate would pass without reading a tail.
const LONG_ROWS: [[usize; 4]; 4] = [[0; 4], [55, 5, 0, 0], [145, 140, 64, 25], [0; 4]];

/// Both candidate rows of `e`, value then neighbor, read in full.
fn rows(idx: &SimilarityIndex, side: KbSide, e: EntityId) -> [Vec<Candidate>; 2] {
    [
        idx.value_candidates(side, e).collect(),
        idx.neighbor_candidates(side, e).collect(),
    ]
}

/// Counts the rows of `idx` longer than [`MAX_CANDIDATES`], in
/// [`LONG_ROWS`]' layout.
fn long_rows(idx: &SimilarityIndex, counts: [usize; 2]) -> [usize; 4] {
    let mut long = [0; 4];
    for side in [KbSide::First, KbSide::Second] {
        for e in (0..counts[side.index()] as u32).map(EntityId) {
            for (kind, row) in rows(idx, side, e).iter().enumerate() {
                long[2 * side.index() + kind] += usize::from(row.len() > MAX_CANDIDATES);
            }
        }
    }
    long
}

/// FNV-1a over the index's candidate rows (row length, then entity id and
/// similarity bits per candidate) and the matching in insertion order.
fn fingerprint(idx: &SimilarityIndex, counts: [usize; 2], matching: &Matching) -> u64 {
    fn mix(h: &mut u64, word: u64) {
        for b in word.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325;
    for side in [KbSide::First, KbSide::Second] {
        for e in (0..counts[side.index()] as u32).map(EntityId) {
            for row in [
                idx.value_candidates(side, e),
                idx.neighbor_candidates(side, e),
            ] {
                mix(&mut h, row.len() as u64);
                for (c, v) in row {
                    mix(&mut h, u64::from(c.0));
                    mix(&mut h, v.to_bits());
                }
            }
        }
    }
    for (e1, e2) in matching.iter() {
        mix(&mut h, u64::from(e1.0));
        mix(&mut h, u64::from(e2.0));
    }
    h
}

#[test]
fn candidate_orderings_are_bit_identical_on_every_profile() {
    let profiles = DatasetKind::ALL.into_iter().zip(GOLDEN_FINGERPRINTS);
    for ((kind, golden), long) in profiles.zip(LONG_ROWS) {
        let d = kind.generate_scaled(SEED, SCALE);
        let config = MinoanConfig::default();
        let art = build_blocks(&d.pair, &config, &config.executor());
        let counts = [KbSide::First, KbSide::Second].map(|side| art.tokens.entity_count(side));
        let tn1 = top_neighbors_with(
            &d.pair.first,
            config.top_relations_n,
            config.max_top_neighbors,
            &Executor::sequential(),
        );
        let tn2 = top_neighbors_with(
            &d.pair.second,
            config.top_relations_n,
            config.max_top_neighbors,
            &Executor::sequential(),
        );
        let seq = SimilarityIndex::build_with(
            &art.token_blocks,
            &art.tokens,
            [&tn1, &tn2],
            &Executor::sequential(),
        );
        assert!(seq.pair_count() > 0, "{}: empty index", d.name);
        assert_eq!(
            long_rows(&seq, counts),
            long,
            "{}: rows longer than MAX_CANDIDATES (value, neighbor; first side, then second)",
            d.name
        );
        let seq_matching = run(config_with(ExecutorKind::Sequential, 1), &d.pair).matching;
        assert_eq!(
            fingerprint(&seq, counts, &seq_matching),
            golden,
            "{}: sequential index or matching drifted from the pinned parent-commit bits",
            d.name
        );
        for threads in THREAD_COUNTS {
            let exec = Executor::new(ExecutorKind::Pool, threads);
            let par =
                SimilarityIndex::build_with(&art.token_blocks, &art.tokens, [&tn1, &tn2], &exec);
            assert_eq!(seq.pair_count(), par.pair_count(), "{}", d.name);
            assert_eq!(
                seq.neighbor_pair_count(),
                par.neighbor_pair_count(),
                "{}",
                d.name
            );
            for side in [KbSide::First, KbSide::Second] {
                for e in (0..counts[side.index()] as u32).map(EntityId) {
                    // Row equality is exact: same candidates, same
                    // order, same f64 bits.
                    assert_eq!(
                        rows(&seq, side, e),
                        rows(&par, side, e),
                        "{}: candidate rows of {side:?} {e} differ at {threads} pool threads",
                        d.name
                    );
                }
            }
            let par_matching = run(config_with(ExecutorKind::Pool, threads), &d.pair).matching;
            assert_eq!(
                fingerprint(&par, counts, &par_matching),
                golden,
                "{}: drifted from the pinned parent-commit bits at {threads} pool threads",
                d.name
            );
        }
    }
}

#[test]
fn blocking_artifacts_are_identical_across_executors() {
    let d = DatasetKind::RexaDblp.generate_scaled(SEED, SCALE);
    let config = MinoanConfig::default();
    let seq_art = build_blocks(&d.pair, &config, &Executor::sequential());
    for threads in THREAD_COUNTS {
        let par_art = build_blocks(
            &d.pair,
            &config,
            &Executor::new(ExecutorKind::Pool, threads),
        );
        assert_eq!(
            seq_art.token_blocks.blocks(),
            par_art.token_blocks.blocks(),
            "token blocks differ at {threads} pool threads"
        );
        assert_eq!(
            seq_art.name_blocks.blocks(),
            par_art.name_blocks.blocks(),
            "name blocks differ at {threads} pool threads"
        );
        assert_eq!(seq_art.purge, par_art.purge, "purge reports differ");
    }
}

/// Rows must stay bit-identical when the requested part count dwarfs
/// typical block sizes and even exceeds the entity count. (The name
/// dates from the per-thread shard scan this test first guarded; the
/// thread hint now only sets how many parts the row pass splits into.)
#[test]
fn pregrouped_shard_scan_is_bit_identical_at_high_shard_counts() {
    let d = DatasetKind::Restaurant.generate_scaled(SEED, SCALE);
    let config = MinoanConfig::default();
    let art = build_blocks(&d.pair, &config, &config.executor());
    let tn1 = top_neighbors_with(
        &d.pair.first,
        config.top_relations_n,
        config.max_top_neighbors,
        &Executor::sequential(),
    );
    let tn2 = top_neighbors_with(
        &d.pair.second,
        config.top_relations_n,
        config.max_top_neighbors,
        &Executor::sequential(),
    );
    let seq = SimilarityIndex::build_with(
        &art.token_blocks,
        &art.tokens,
        [&tn1, &tn2],
        &Executor::sequential(),
    );
    let n1 = art.tokens.entity_count(KbSide::First);
    for threads in [13, 64, n1 + 5] {
        let exec = Executor::new(ExecutorKind::Pool, threads);
        let par = SimilarityIndex::build_with(&art.token_blocks, &art.tokens, [&tn1, &tn2], &exec);
        assert_eq!(seq.pair_count(), par.pair_count(), "threads={threads}");
        for side in [KbSide::First, KbSide::Second] {
            for e in (0..art.tokens.entity_count(side) as u32).map(EntityId) {
                assert_eq!(
                    rows(&seq, side, e),
                    rows(&par, side, e),
                    "value or neighbor candidates of {side:?} {e} differ at {threads} threads"
                );
            }
        }
    }
}

/// The parallelized ingest stages (tokenization, attribute/relation
/// importance, name extraction, top-neighbor sets) must be bit-identical
/// across executors on every profile — they feed everything downstream.
#[test]
fn ingest_stages_are_bit_identical_on_every_profile() {
    use minoaner::core::{attribute_importance_with, entity_names_with, relation_importance_with};
    use minoaner::text::{TokenizedPair, Tokenizer};
    for kind in DatasetKind::ALL {
        let d = kind.generate_scaled(SEED, SCALE);
        let seq_exec = Executor::sequential();
        let tokenizer = Tokenizer::default();
        let seq_tokens = TokenizedPair::build_with(&d.pair, &tokenizer, &seq_exec);
        let seq_attr = attribute_importance_with(&d.pair.first, &seq_exec);
        let seq_rel = relation_importance_with(&d.pair.first, &seq_exec);
        let seq_names = entity_names_with(&d.pair.first, 2, &seq_exec);
        let seq_tn = top_neighbors_with(&d.pair.first, 3, 32, &seq_exec);
        for threads in THREAD_COUNTS {
            let exec = Executor::new(ExecutorKind::Pool, threads);
            let par_tokens = TokenizedPair::build_with(&d.pair, &tokenizer, &exec);
            assert_eq!(
                seq_tokens.dict().len(),
                par_tokens.dict().len(),
                "{}: dictionary size differs at {threads} threads",
                d.name
            );
            for side in [KbSide::First, KbSide::Second] {
                for e in (0..seq_tokens.entity_count(side) as u32).map(EntityId) {
                    assert_eq!(
                        seq_tokens.tokens(side, e),
                        par_tokens.tokens(side, e),
                        "{}: token set of {side:?} {e} differs at {threads} threads",
                        d.name
                    );
                }
                for t in seq_tokens.dict().tokens() {
                    assert_eq!(
                        seq_tokens.dict().ef(side, t),
                        par_tokens.dict().ef(side, t),
                        "{}: EF differs at {threads} threads",
                        d.name
                    );
                }
            }
            assert_eq!(seq_attr, attribute_importance_with(&d.pair.first, &exec));
            assert_eq!(seq_rel, relation_importance_with(&d.pair.first, &exec));
            assert_eq!(seq_names, entity_names_with(&d.pair.first, 2, &exec));
            assert_eq!(seq_tn, top_neighbors_with(&d.pair.first, 3, 32, &exec));
        }
    }
}
