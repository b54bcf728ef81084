//! Executor equivalence: the parallel backend must reproduce the
//! sequential backend **bit for bit** on every benchmark profile —
//! identical matchings, identical candidate orderings, identical
//! similarity values. This is the contract that makes `--executor` a
//! pure performance knob.

use minoaner::blocking::BlockCollection;
use minoaner::core::{
    build_blocks, top_neighbors_with, Candidate, MatchOutput, MinoanConfig, MinoanEr, Ranked,
    SimilarityIndex, MAX_CANDIDATES,
};
use minoaner::datagen::DatasetKind;
use minoaner::exec::{Executor, ExecutorKind};
use minoaner::kb::{EntityId, FxHashMap, KbPair, KbSide, Matching, TokenId};
use minoaner::sim::token_weight;
use minoaner::text::TokenizedPair;

const SEED: u64 = 20180416;
const SCALE: f64 = 0.1;
const THREAD_COUNTS: [usize; 3] = [2, 3, 7];
/// Resolves `pair` with the paper's default parameters on `exec`.
fn run(exec: &Executor, pair: &KbPair) -> MatchOutput {
    MinoanEr::with_defaults().run_with(pair, exec)
}

#[test]
fn matchings_are_bit_identical_on_every_profile() {
    for kind in DatasetKind::ALL {
        let d = kind.generate_scaled(SEED, SCALE);
        let seq = run(&Executor::sequential(), &d.pair);
        let seq_pairs: Vec<_> = seq.matching.iter().collect();
        assert!(!seq_pairs.is_empty(), "{}: empty matching", d.name);
        for threads in THREAD_COUNTS {
            let par = run(&Executor::new(ExecutorKind::Pool, threads), &d.pair);
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

/// Fingerprints per profile in [`DatasetKind::ALL`] order at
/// [`SEED`]/[`SCALE`], as [`fingerprints`] splits them: the value and
/// neighbor candidate rows of the first side, those of the second side,
/// and the matching. The first pins were captured at the commit *before*
/// the row-major `valueSim` kernel replaced the block-major shard scan.
/// The Sequential-vs-Pool comparisons in this file run both sides at one
/// commit and would let them drift together; these constants pin the
/// bits across commits, and the split says which part moved.
const GOLDEN_FINGERPRINTS: [[u64; 3]; 4] = [
    [
        0x7d29_acee_cafa_306b,
        0x278f_d086_1fd2_a334,
        0xe735_d911_74b6_50b4,
    ],
    [
        0x1d5a_67a0_d1cf_18bb,
        0x5fbf_7dd0_2c29_c20d,
        0x4f29_c993_26c5_73a7,
    ],
    // The second side's rows past MAX_CANDIDATES are cut (LONG_ROWS),
    // so its hash alone re-pinned when the index began to cut them.
    [
        0xb1a5_1617_df41_e55b,
        0x5df2_3d8e_a6c5_354f,
        0xf5b5_1f7c_6f34_13c8,
    ],
    [
        0xd5b8_381f_7491_c530,
        0xf651_ae5f_53ae_5f94,
        0xbbc9_e55c_d7a9_f76d,
    ],
];

/// Per profile, as [`GOLDEN_FINGERPRINTS`]: how many candidate rows are
/// longer than [`MAX_CANDIDATES`] at the run — value and neighbor rows
/// of the first side, then of the second. The first side is the probe
/// side on every profile: the index stores its rows cut to their best
/// [`MAX_CANDIDATES`] too, records their full length, and recomputes a
/// row whose reader runs off that prefix, so these rows are where the
/// fingerprints cover the recompute and its sorted tail, read whole.
/// The second side's such rows are the ones whose readers end at the
/// cut ([`Ranked::is_cut`]), so its counts prove the cut happened. At
/// least one profile must have some of each, or the gate would pass
/// without a recompute or a cut.
const LONG_ROWS: [[usize; 4]; 4] = [[0; 4], [55, 5, 0, 0], [145, 140, 64, 25], [0; 4]];

/// Both candidate rows of `e`, value then neighbor, read as far as the
/// reader says they reach.
fn rows(idx: &SimilarityIndex, side: KbSide, e: EntityId) -> [Vec<Candidate>; 2] {
    [
        read(idx.value_candidates(side, e)),
        read(idx.neighbor_candidates(side, e)),
    ]
}

/// Every entry a row's reader reports (`len()`), and no read past it.
fn read(row: Ranked<'_>) -> Vec<Candidate> {
    let len = row.len();
    row.take(len).collect()
}

/// Counts the rows of `idx` longer than [`MAX_CANDIDATES`] at the run,
/// read whole or cut, in [`LONG_ROWS`]' layout.
fn long_rows(idx: &SimilarityIndex, counts: [usize; 2]) -> [usize; 4] {
    let mut long = [0; 4];
    for side in [KbSide::First, KbSide::Second] {
        for e in (0..counts[side.index()] as u32).map(EntityId) {
            let both = [
                idx.value_candidates(side, e),
                idx.neighbor_candidates(side, e),
            ];
            for (kind, row) in both.iter().enumerate() {
                let cut = row.len() > MAX_CANDIDATES || row.is_cut();
                long[2 * side.index() + kind] += usize::from(cut);
            }
        }
    }
    long
}

/// One FNV-1a step: folds `word`'s bytes into `h`.
fn mix(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the matching in insertion order.
fn matching_fingerprint(matching: &Matching) -> u64 {
    let mut h = FNV_OFFSET;
    for (e1, e2) in matching.iter() {
        mix(&mut h, u64::from(e1.0));
        mix(&mut h, u64::from(e2.0));
    }
    h
}

/// [`GOLDEN_FINGERPRINTS`]' three hashes: FNV-1a over each side's
/// candidate rows (row length, then entity id and similarity bits per
/// candidate), then [`matching_fingerprint`].
fn fingerprints(idx: &SimilarityIndex, counts: [usize; 2], matching: &Matching) -> [u64; 3] {
    let side_hash = |side: KbSide| {
        let mut h = FNV_OFFSET;
        for e in (0..counts[side.index()] as u32).map(EntityId) {
            for row in rows(idx, side, e) {
                mix(&mut h, row.len() as u64);
                for (c, v) in row {
                    mix(&mut h, u64::from(c.0));
                    mix(&mut h, v.to_bits());
                }
            }
        }
        h
    };
    [
        side_hash(KbSide::First),
        side_hash(KbSide::Second),
        matching_fingerprint(matching),
    ]
}

#[test]
fn candidate_orderings_are_bit_identical_on_every_profile() {
    let profiles = DatasetKind::ALL.into_iter().zip(GOLDEN_FINGERPRINTS);
    for ((kind, golden), long) in profiles.zip(LONG_ROWS) {
        let d = kind.generate_scaled(SEED, SCALE);
        let config = MinoanConfig::default();
        let art = build_blocks(&d.pair, &config, &Executor::pool());
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
        let seq_matching = run(&Executor::sequential(), &d.pair).matching;
        assert_eq!(
            fingerprints(&seq, counts, &seq_matching),
            golden,
            "{}: sequential index or matching drifted from the pinned bits \
             (first side, second side, matching)",
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
            let par_matching = run(&Executor::new(ExecutorKind::Pool, threads), &d.pair).matching;
            assert_eq!(
                fingerprints(&par, counts, &par_matching),
                golden,
                "{}: drifted from the pinned bits at {threads} pool threads",
                d.name
            );
        }
    }
}

/// The matching of BBC at [`SEED`]/[`SCALE`] with its two KBs swapped,
/// as [`matching_fingerprint`] hashes it: captured before the index
/// began to cut rows, when every row was stored whole.
const SWAPPED_BBC_MATCHING: u64 = 0x780b_5bab_71aa_e634;

/// The reference candidate order: similarity descending through the
/// float comparison, ties by entity id ascending.
fn cand_cmp(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
    b.1.partial_cmp(&a.1)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.0.cmp(&b.0))
}

/// Both sides' full value and neighbor rows, computed the naive way:
/// `valueSim` from one pair-keyed map over the blocks in block order,
/// `neighborNSim` straight from its formula over the value candidates,
/// each sum in the order the index adds it, every row fully sorted.
fn naive_rows(
    blocks: &BlockCollection,
    tokens: &TokenizedPair,
    top: [&[Vec<EntityId>]; 2],
) -> [[Vec<Vec<Candidate>>; 2]; 2] {
    let n = [KbSide::First, KbSide::Second].map(|side| tokens.entity_count(side));
    let mut value: FxHashMap<(EntityId, EntityId), f64> = FxHashMap::default();
    for b in blocks.blocks() {
        let t = TokenId(b.key);
        let w = token_weight(
            tokens.dict().ef(KbSide::First, t),
            tokens.dict().ef(KbSide::Second, t),
        );
        for &e1 in &b.firsts {
            for &e2 in &b.seconds {
                *value.entry((e1, e2)).or_insert(0.0) += w;
            }
        }
    }
    let mut value_firsts = vec![Vec::new(); n[0]];
    for (&(e1, e2), &v) in &value {
        value_firsts[e1.index()].push((e2, v));
    }
    let mut neighbor: FxHashMap<(EntityId, EntityId), f64> = FxHashMap::default();
    let mut acc = vec![0.0; n[1]];
    for (e1, cands) in value_firsts.iter().enumerate() {
        for nb1 in &top[0][e1] {
            for &(nb2, v) in &value_firsts[nb1.index()] {
                acc[nb2.index()] += v;
            }
        }
        for &(e2, _) in cands {
            let s = top[1][e2.index()]
                .iter()
                .fold(0.0, |s, nb2| s + acc[nb2.index()]);
            if s > 0.0 {
                neighbor.insert((EntityId(e1 as u32), e2), s);
            }
        }
        acc.fill(0.0);
    }
    [value, neighbor].map(|pairs| {
        let mut rows = n.map(|len| vec![Vec::new(); len]);
        for (&(e1, e2), &v) in &pairs {
            rows[0][e1.index()].push((e2, v));
            rows[1][e2.index()].push((e1, v));
        }
        for row in rows.iter_mut().flatten() {
            row.sort_by(cand_cmp);
        }
        rows
    })
}

/// No benchmark profile has a larger first KB, so BBC with its sides
/// swapped stands in: the first side is then the non-probe side, with
/// value rows past [`MAX_CANDIDATES`] that the neighbor pass must still
/// read whole, and neighbor rows the transpose must still read whole.
/// The probe side is the second, so its long neighbor rows are the
/// transpose's columns, stored cut and recomputed when read past the
/// cut. Probe rows must read back whole and equal the naive reference,
/// every other row its top `min(len, MAX_CANDIDATES)`, lookups — which
/// read the probe side's rows through the same recompute — and counts
/// must stay exact, and the matching must not move.
#[test]
fn first_side_larger_cuts_its_rows_after_their_last_whole_read() {
    let d = DatasetKind::BbcDbpedia.generate_scaled(SEED, SCALE);
    let pair = KbPair::new(d.pair.second.clone(), d.pair.first.clone());
    assert_eq!(pair.smaller_side(), KbSide::Second);
    let config = MinoanConfig::default();
    let seq = Executor::sequential();
    let art = build_blocks(&pair, &config, &seq);
    let [tn1, tn2] = [&pair.first, &pair.second]
        .map(|kb| top_neighbors_with(kb, config.top_relations_n, config.max_top_neighbors, &seq));
    let want = naive_rows(&art.token_blocks, &art.tokens, [&tn1, &tn2]);
    for exec in [seq.clone(), Executor::new(ExecutorKind::Pool, 3)] {
        let idx = SimilarityIndex::build_with(&art.token_blocks, &art.tokens, [&tn1, &tn2], &exec);
        for side in [KbSide::First, KbSide::Second] {
            let mut cut = 0;
            for (kind, rows) in want.iter().enumerate() {
                for (i, full) in rows[side.index()].iter().enumerate() {
                    let e = EntityId(i as u32);
                    let row = match kind {
                        0 => idx.value_candidates(side, e),
                        _ => idx.neighbor_candidates(side, e),
                    };
                    let label = format!("{side:?} {e} ({})", ["value", "neighbor"][kind]);
                    let keep = match side {
                        KbSide::Second => full.len(),
                        KbSide::First => full.len().min(MAX_CANDIDATES),
                    };
                    assert_eq!(row.is_cut(), keep < full.len(), "{label}");
                    cut += usize::from(row.is_cut());
                    let bits = |row: &[Candidate]| {
                        row.iter()
                            .map(|&(c, v)| (c, v.to_bits()))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(bits(&read(row)), bits(&full[..keep]), "{label}");
                }
            }
            assert_eq!(cut > 0, side == KbSide::First, "{side:?}: {cut} rows cut");
        }
        let pairs = |kind: usize| want[kind][0].iter().map(Vec::len).sum::<usize>();
        assert_eq!(idx.pair_count(), pairs(0));
        assert_eq!(idx.neighbor_pair_count(), pairs(1));
        for (kind, rows) in want.iter().enumerate() {
            for (i, full) in rows[0].iter().enumerate().step_by(7) {
                for &(c, v) in full {
                    let e = EntityId(i as u32);
                    let got = match kind {
                        0 => idx.value_sim(e, c),
                        _ => idx.neighbor_sim(e, c),
                    };
                    assert_eq!(got.to_bits(), v.to_bits(), "sim of ({e}, {c})");
                }
            }
        }
    }
    for threads in [1, 3] {
        let kind = if threads == 1 {
            ExecutorKind::Sequential
        } else {
            ExecutorKind::Pool
        };
        let matching = run(&Executor::new(kind, threads), &pair).matching;
        assert_eq!(
            matching_fingerprint(&matching),
            SWAPPED_BBC_MATCHING,
            "the swapped pair's matching moved at {threads} threads"
        );
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
    let art = build_blocks(&d.pair, &config, &Executor::pool());
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
