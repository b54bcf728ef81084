//! The similarity index: every similarity MinoanER needs, computed once
//! from the purged token blocks.
//!
//! The paper's efficiency argument (§III) is that both `valueSim` and
//! `neighborNSim` are functions of block statistics, so the matching
//! process iterates over blocks instead of the KBs — and that this pass
//! is *massively parallel*. This module realizes both claims:
//!
//! - `valueSim` is accumulated **row-major by one kernel**
//!   (`RowScratch::value_row`): the candidate row of a first-side entity
//!   is the sum, over the blocks containing it, of each block's token
//!   weight into a dense per-second-entity scratch. The blocks of an
//!   entity are walked in ascending block order, so every pair's
//!   floating-point sum has exactly the block-order addition sequence —
//!   a row depends on nothing but its own entity. Rows are therefore
//!   **bit-identical for any backend, thread count or part count**;
//! - the row pass is a plain [`Executor::map_parts`] over entities, so
//!   the pool backend runs it as
//!   [`POOL_TASK_ITEMS`](minoan_exec::POOL_TASK_ITEMS)-bounded tasks
//!   and a cancel or deadline is observed within one task quantum — the
//!   promise [`minoan_exec::cancel`] makes for every stage;
//! - candidate lists are stored as **CSR** ([`Csr<Candidate>`]): one flat
//!   buffer plus offsets instead of one allocation per entity;
//! - the `neighborNSim` pass is embarrassingly parallel over `e1` and
//!   accumulates on the same dense scratch;
//! - the reverse-direction lists are a parallel CSR **transpose**
//!   (partial histograms → per-part cursors → disjoint fills).
//!
//! # Candidate order
//!
//! Every candidate row — value and neighbor, in both directions — is
//! sorted by similarity descending, ties by entity id ascending: a total
//! order, so a row is one fixed sequence. The four sorts compare one
//! integer key, `cand_key = (Reverse(v.to_bits()), id)`, instead of the
//! floats. That is exact because the index holds only **strictly
//! positive, finite** similarities: value terms are token weights in
//! `(0, 1]` (see `RowScratch`) and neighbor rows keep only `s > 0`. On
//! such values the IEEE-754 bit pattern, read as an unsigned integer,
//! orders exactly like the number — subnormals included — so the key
//! gives the same total order as comparing the floats, and every row
//! comes out bit-identical. A zero, negative or NaN similarity would
//! break that; `cand_key` asserts none reaches a sort in debug builds.

use std::cmp::Reverse;

use minoan_blocking::BlockCollection;
use minoan_exec::{Executor, SharedSlice};
use minoan_kb::{Csr, EntityId, KbSide, TokenId};
use minoan_sim::token_weight;
use minoan_text::TokenizedPair;

use crate::artifact::MAX_CANDIDATES;
use crate::pipeline::stage_span;

/// A scored candidate (the other side's entity plus a similarity).
pub type Candidate = (EntityId, f64);

/// The sort key of the candidate order (see the module docs):
/// similarity descending as its bit pattern, ties by entity id
/// ascending. Exact only for strictly positive, finite similarities.
#[inline]
fn cand_key(&(e, v): &Candidate) -> (Reverse<u64>, u32) {
    debug_assert!(
        v > 0.0 && v.is_finite(),
        "the candidate key orders only positive finite similarities, got {v}"
    );
    (Reverse(v.to_bits()), e.0)
}

/// A dense accumulator over the second KB's entities plus the list of
/// slots touched since the last reset: the working memory of one row of
/// either similarity. Allocated once per executor task and reset per
/// row in O(touched), so a row costs its own candidates — no hashing,
/// no per-row allocation beyond the row it returns.
///
/// `0.0` marks an untouched slot. That rests on every added term being
/// strictly positive, so a touched slot can never return to zero:
/// [`token_weight`] is `1 / log2(ef1·ef2 + 1)`, which lies in `(0, 1]`
/// for entity frequencies `≥ 1` (a block's token occurs on both sides)
/// and is never zero, negative or NaN for any frequencies; the neighbor
/// pass adds sums of such weights.
struct RowScratch {
    sums: Vec<f64>,
    touched: Vec<u32>,
}

impl RowScratch {
    /// A zeroed scratch for candidates in `0..n_second`.
    fn new(n_second: usize) -> Self {
        Self {
            sums: vec![0.0; n_second],
            touched: Vec::new(),
        }
    }

    #[inline]
    fn add(&mut self, e2: EntityId, v: f64) {
        debug_assert!(v > 0.0, "0.0 is the untouched mark; terms must be positive");
        let slot = &mut self.sums[e2.index()];
        if *slot == 0.0 {
            self.touched.push(e2.0);
        }
        *slot += v;
    }

    /// The sum accumulated for `e2` (`0.0` if untouched).
    #[inline]
    fn get(&self, e2: EntityId) -> f64 {
        self.sums[e2.index()]
    }

    /// Zeroes every touched slot.
    fn reset(&mut self) {
        for e2 in self.touched.drain(..) {
            self.sums[e2 as usize] = 0.0;
        }
    }

    /// **The** `valueSim` row: accumulates `weight` into every entity of
    /// `seconds` for each `(weight, seconds)` block of one first-side
    /// entity, and returns the [`cand_key`]-sorted candidates, leaving
    /// the scratch reset. `blocks` must come in ascending block order —
    /// that order *is* each pair's floating-point addition sequence, and
    /// what makes a row reproducible bit for bit wherever it is computed.
    fn value_row<'a>(
        &mut self,
        blocks: impl IntoIterator<Item = (f64, &'a [EntityId])>,
    ) -> Vec<Candidate> {
        for (weight, seconds) in blocks {
            for &e2 in seconds {
                self.add(e2, weight);
            }
        }
        let sums = &mut self.sums;
        let mut row: Vec<Candidate> = self
            .touched
            .drain(..)
            .map(|e2| (EntityId(e2), std::mem::take(&mut sums[e2 as usize])))
            .collect();
        row.sort_unstable_by_key(cand_key);
        row
    }
}

/// The `valueSim` candidate row of every first-side entity of `tokens`
/// over `blocks`, in entity order. An entity in no block — or one
/// `blocks` does not index at all — gets an empty row.
fn value_rows(
    blocks: &BlockCollection,
    tokens: &TokenizedPair,
    exec: &Executor,
) -> Vec<Vec<Candidate>> {
    // Per-block token weights, data-parallel over block ranges.
    let block_list = blocks.blocks();
    let weights: Vec<f64> = exec.map_range(block_list.len(), |i| {
        let t = TokenId(block_list[i].key);
        token_weight(
            tokens.dict().ef(KbSide::First, t),
            tokens.dict().ef(KbSide::Second, t),
        )
    });
    let indexed = blocks.entity_count(KbSide::First);
    let parts = exec.map_parts(tokens.entity_count(KbSide::First), |range| {
        let mut scratch = RowScratch::new(blocks.entity_count(KbSide::Second));
        let mut rows: Vec<Vec<Candidate>> = Vec::with_capacity(range.len());
        for e1 in range {
            let of_e1: &[_] = if e1 < indexed {
                blocks.blocks_of(KbSide::First, EntityId(e1 as u32))
            } else {
                &[]
            };
            let weighted = of_e1
                .iter()
                .map(|b| (weights[b.index()], &block_list[b.index()].seconds[..]));
            rows.push(scratch.value_row(weighted));
        }
        rows
    });
    parts.into_iter().flatten().collect()
}

/// The `neighborNSim` candidate row of every first-side entity, scored
/// over that entity's **value candidates only**: a pair whose entities
/// share no purged token block gets no neighbor score, however similar
/// their top neighbors are. This restriction is deliberate. The formula
/// below has no such condition, and the unrestricted rows would be
/// larger on the synthetic profiles at ×1 — Restaurant 11×, Rexa 4.3×,
/// BBC 1.8×, YAGO 9.1× — yet every ground-truth pair there shares a
/// purged block. Replaying H1–H4 over unrestricted rows lowers BBC's F1
/// at every scale (82.6 → 77.2 at ×1) and moves Rexa and YAGO by at
/// most half a point at ×1 and ×2 (ROADMAP F5).
///
/// Accumulates on the kernel's dense scratch, one per executor task;
/// the sums follow the order of the top-neighbor lists and value rows,
/// never the part boundaries.
fn neighbor_rows(
    value_firsts: &Csr<Candidate>,
    n_second: usize,
    top_neighbors: [&[Vec<EntityId>]; 2],
    exec: &Executor,
) -> Vec<Vec<Candidate>> {
    // neighborNSim(e1, e2) = Σ_{n1 ∈ top(e1), n2 ∈ top(e2)} valueSim(n1, n2),
    // evaluated only for the e2 in e1's value row (see above).
    // For each e1: acc[n2] = Σ_{n1 ∈ top(e1)} valueSim(n1, n2), then
    // sum acc over e2's top neighbors for each candidate e2. Pure
    // reads over the value CSR — embarrassingly parallel over e1.
    let parts = exec.map_parts(value_firsts.rows(), |range| {
        let mut rows: Vec<Vec<Candidate>> = Vec::with_capacity(range.len());
        let mut acc = RowScratch::new(n_second);
        for e1 in range {
            let cands = value_firsts.row(e1);
            let mut row: Vec<Candidate> = Vec::new();
            if !cands.is_empty() {
                for &nb1 in &top_neighbors[0][e1] {
                    for &(nb2, v) in value_firsts.row(nb1.index()) {
                        acc.add(nb2, v);
                    }
                }
                if !acc.touched.is_empty() {
                    for &(e2, _) in cands {
                        // An untouched neighbor reads 0.0, and
                        // `s + 0.0` is `s` bit for bit.
                        let mut s = 0.0;
                        for &nb2 in &top_neighbors[1][e2.index()] {
                            s += acc.get(nb2);
                        }
                        if s > 0.0 {
                            row.push((e2, s));
                        }
                    }
                    acc.reset();
                }
            }
            row.sort_unstable_by_key(cand_key);
            rows.push(row);
        }
        rows
    });
    parts.into_iter().flatten().collect()
}

/// Value and neighbor similarities for all co-occurring pairs, with
/// per-entity candidate lists in the candidate order (similarity
/// descending, ties by entity id; see the module docs), stored in CSR
/// form.
#[derive(Debug)]
pub struct SimilarityIndex {
    /// Per side: CSR of candidates by value similarity.
    value_cands: [Csr<Candidate>; 2],
    /// Per side: CSR of candidates with non-zero neighbor similarity.
    neighbor_cands: [Csr<Candidate>; 2],
}

impl SimilarityIndex {
    /// Builds the index from the (purged) token blocks on `exec`.
    ///
    /// `top_neighbors` holds `topNneighbors(e)` per entity for each side
    /// (see [`crate::importance::top_neighbors_with`]).
    ///
    /// Four passes, each under its own debug span: one `valueSim` row per first-side entity through the
    /// shared row kernel (`simindex.value_rows`), fanned out as a plain
    /// [`Executor::map_parts`] with the rows concatenated in part order;
    /// the reverse value direction (`simindex.value_reverse`); the
    /// `neighborNSim` rows (`simindex.neighbor_rows`); and their reverse
    /// (`simindex.neighbor_reverse`). A row is a function of its own
    /// entity's blocks alone (see the module docs), so the result is
    /// bit-identical for any backend, thread count and part count.
    pub fn build_with(
        blocks: &BlockCollection,
        tokens: &TokenizedPair,
        top_neighbors: [&[Vec<EntityId>]; 2],
        exec: &Executor,
    ) -> Self {
        let n2 = tokens.entity_count(KbSide::Second);
        let value_firsts = {
            let _span = stage_span("simindex.value_rows");
            Csr::from_rows(value_rows(blocks, tokens, exec))
        };
        let value_seconds = {
            let _span = stage_span("simindex.value_reverse");
            transpose(&value_firsts, n2, exec)
        };
        let neighbor_firsts = {
            let _span = stage_span("simindex.neighbor_rows");
            Csr::from_rows(neighbor_rows(&value_firsts, n2, top_neighbors, exec))
        };
        let neighbor_seconds = {
            let _span = stage_span("simindex.neighbor_reverse");
            transpose(&neighbor_firsts, n2, exec)
        };
        Self {
            value_cands: [value_firsts, value_seconds],
            neighbor_cands: [neighbor_firsts, neighbor_seconds],
        }
    }

    /// `valueSim(e1, e2)` over the purged blocks (0 when the pair never
    /// co-occurs).
    pub fn value_sim(&self, e1: EntityId, e2: EntityId) -> f64 {
        lookup(&self.value_cands[0], e1, e2)
    }

    /// `neighborNSim(e1, e2)`, scored only when `e2` is a value
    /// candidate of `e1`: 0 when the pair itself shares no purged token
    /// block — even if some top-neighbor pair co-occurs — and 0 when no
    /// top-neighbor pair co-occurs. The restriction is deliberate (see
    /// `neighbor_rows`).
    pub fn neighbor_sim(&self, e1: EntityId, e2: EntityId) -> f64 {
        lookup(&self.neighbor_cands[0], e1, e2)
    }

    /// Candidates of `e` (an entity of `side`) sorted by value
    /// similarity, descending.
    pub fn value_candidates(&self, side: KbSide, e: EntityId) -> &[Candidate] {
        self.value_cands[side.index()].row(e.index())
    }

    /// Candidates of `e` with non-zero neighbor similarity, descending —
    /// drawn from `e`'s value candidates only: a pair that shares no
    /// purged token block is never a neighbor candidate (see
    /// [`SimilarityIndex::neighbor_sim`]).
    pub fn neighbor_candidates(&self, side: KbSide, e: EntityId) -> &[Candidate] {
        self.neighbor_cands[side.index()].row(e.index())
    }

    /// The best value candidate of `e`, if any.
    pub fn top_value_candidate(&self, side: KbSide, e: EntityId) -> Option<Candidate> {
        self.value_cands[side.index()]
            .row(e.index())
            .first()
            .copied()
    }

    /// Number of co-occurring pairs with recorded value similarity.
    pub fn pair_count(&self) -> usize {
        self.value_cands[0].item_count()
    }

    /// Consumes the index, keeping the two value-candidate CSRs (first
    /// side, then second) — all a persistent index serves match queries
    /// from — each row cut to its best [`MAX_CANDIDATES`] in place. Rows
    /// are in candidate order, so a kept row is a bit-identical prefix of
    /// the full one. The neighbor lists are dropped: `neighborNSim` is
    /// read only by H3 and H4, while the pipeline runs.
    pub fn into_value_candidates(self) -> [Csr<Candidate>; 2] {
        let mut value_cands = self.value_cands;
        for csr in &mut value_cands {
            csr.truncate_rows(MAX_CANDIDATES);
        }
        value_cands
    }

    /// Number of pairs with non-zero neighbor similarity.
    pub fn neighbor_pair_count(&self) -> usize {
        self.neighbor_cands[0].item_count()
    }
}

/// Finds `other` in the candidate row of `e`, returning its similarity.
fn lookup(csr: &Csr<Candidate>, e: EntityId, other: EntityId) -> f64 {
    if e.index() >= csr.rows() {
        return 0.0;
    }
    csr.row(e.index())
        .iter()
        .find(|&&(c, _)| c == other)
        .map(|&(_, v)| v)
        .unwrap_or(0.0)
}

/// Transposes a `rows -> (col, v)` CSR into a `cols -> (row, v)` CSR with
/// every output row sorted by [`cand_key`].
///
/// Parallel scheme: per-part column histograms, a sequential prefix-sum
/// handing each part a private cursor per column, then disjoint parallel
/// fills and per-row parallel sorts through [`SharedSlice`]. The fill
/// order within a column is ascending source row — identical to a
/// sequential transpose — and the final sort is a total order, so the
/// result does not depend on the thread count.
fn transpose(src: &Csr<Candidate>, n_cols: usize, exec: &Executor) -> Csr<Candidate> {
    let n_rows = src.rows();
    let ranges = exec.part_ranges(n_rows);
    let histograms: Vec<Vec<usize>> = exec.map_range(ranges.len(), |p| {
        let mut counts = vec![0usize; n_cols];
        for r in ranges[p].clone() {
            for &(c, _) in src.row(r) {
                counts[c.index()] += 1;
            }
        }
        counts
    });
    let mut lens = vec![0usize; n_cols];
    for h in &histograms {
        for (len, c) in lens.iter_mut().zip(h) {
            *len += c;
        }
    }
    let offsets = minoan_kb::csr::offsets_from_lens(&lens);
    // cursors[p][c]: where part p starts writing in column c.
    let mut cursors: Vec<Vec<usize>> = Vec::with_capacity(histograms.len());
    let mut acc = offsets[..n_cols].to_vec();
    for h in &histograms {
        cursors.push(acc.clone());
        for (a, c) in acc.iter_mut().zip(h) {
            *a += c;
        }
    }
    let total = *offsets.last().expect("offsets never empty");
    let mut items: Vec<Candidate> = vec![(EntityId(0), 0.0); total];
    {
        let shared = SharedSlice::new(&mut items);
        exec.map_range(ranges.len(), |p| {
            let mut cur = cursors[p].clone();
            for r in ranges[p].clone() {
                let row_entity = EntityId(r as u32);
                for &(c, v) in src.row(r) {
                    // SAFETY: part p exclusively owns positions
                    // cursors[p][c] .. cursors[p][c] + histograms[p][c]
                    // of every column c; parts never overlap.
                    unsafe { shared.write(cur[c.index()], (row_entity, v)) };
                    cur[c.index()] += 1;
                }
            }
        });
    }
    {
        let shared = SharedSlice::new(&mut items);
        exec.map_range(n_cols, |c| {
            // SAFETY: column ranges are disjoint slices of the buffer.
            let row = unsafe { shared.slice_mut(offsets[c]..offsets[c + 1]) };
            row.sort_unstable_by_key(cand_key);
        });
    }
    Csr::from_lens_and_items(&lens, items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_blocking::token_blocking_with;
    use minoan_exec::ExecutorKind;
    use minoan_kb::{KbBuilder, KbPair};
    use minoan_text::Tokenizer;

    /// The reference candidate order the index's key must reproduce:
    /// similarity descending through the float comparison, ties by
    /// entity id ascending.
    fn cand_cmp(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    }

    #[test]
    fn cand_key_sorts_exactly_like_the_float_comparator() {
        let one = 1.0f64;
        let values = [
            f64::from_bits(1), // the smallest subnormal
            f64::from_bits(2),
            f64::MIN_POSITIVE / 2.0, // subnormal
            f64::from_bits(f64::MIN_POSITIVE.to_bits() - 1),
            f64::MIN_POSITIVE,
            1e-300,
            0.25,
            f64::from_bits(one.to_bits() - 1), // just under H2's threshold
            one,
            f64::from_bits(one.to_bits() + 1), // just over it
            2.0,
            1e300,
            f64::MAX,
        ];
        let ids = [0, 1, 2, 1 << 31, u32::MAX - 1, u32::MAX];
        let cands: Vec<Candidate> = values
            .iter()
            .flat_map(|&v| ids.iter().map(move |&id| (EntityId(id), v)))
            .collect();
        let n = cands.len();
        let mut want = cands.clone();
        want.sort_by(cand_cmp);
        assert_eq!(want[0], (EntityId(0), f64::MAX));
        assert_eq!(want[n - 1], (EntityId(u32::MAX), f64::from_bits(1)));
        // The same rows in several input orders: as built, reversed, and
        // strided (each stride coprime to n = 78) so equal similarities
        // arrive with their ids shuffled.
        let mut inputs = vec![cands.clone(), cands.iter().rev().copied().collect()];
        for stride in [5, 7, 11] {
            inputs.push((0..n).map(|i| cands[i * stride % n]).collect());
        }
        for mut row in inputs {
            row.sort_unstable_by_key(cand_key);
            // Exact: same candidates, same order, same f64 bits.
            assert_eq!(row, want);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "positive finite")]
    fn cand_key_rejects_a_zero_similarity() {
        cand_key(&(EntityId(0), 0.0));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "positive finite")]
    fn cand_key_rejects_nan() {
        cand_key(&(EntityId(0), f64::NAN));
    }

    fn tokenize_and_block(pair: &KbPair) -> (TokenizedPair, BlockCollection) {
        let exec = Executor::sequential();
        let tokens = TokenizedPair::build_with(pair, &Tokenizer::default(), &exec);
        let blocks = token_blocking_with(&tokens, &exec);
        (tokens, blocks)
    }

    fn build(
        blocks: &BlockCollection,
        tokens: &TokenizedPair,
        top_neighbors: [&[Vec<EntityId>]; 2],
    ) -> SimilarityIndex {
        SimilarityIndex::build_with(blocks, tokens, top_neighbors, &Executor::sequential())
    }

    /// Two tiny movie KBs: movies m share a title token with their
    /// counterpart, actors are linked via `starring`.
    fn setup() -> (
        KbPair,
        TokenizedPair,
        BlockCollection,
        Vec<Vec<EntityId>>,
        Vec<Vec<EntityId>>,
    ) {
        let mut a = KbBuilder::new("E1");
        a.add_literal("a:m0", "title", "zorba dance");
        a.add_uri("a:m0", "starring", "a:p0");
        a.add_literal("a:p0", "name", "anthony quinn");
        a.add_literal("a:m1", "title", "stella");
        let mut b = KbBuilder::new("E2");
        b.add_literal("b:m0", "label", "zorba the dance");
        b.add_uri("b:m0", "actor", "b:p0");
        b.add_literal("b:p0", "fullname", "quinn anthony");
        b.add_literal("b:m1", "label", "stella nights");
        let pair = KbPair::new(a.finish(), b.finish());
        let (tokens, bt) = tokenize_and_block(&pair);
        let seq = Executor::sequential();
        let tn1 = crate::importance::top_neighbors_with(&pair.first, 3, 32, &seq);
        let tn2 = crate::importance::top_neighbors_with(&pair.second, 3, 32, &seq);
        (pair, tokens, bt, tn1, tn2)
    }

    #[test]
    fn value_sims_match_direct_computation() {
        let (pair, tokens, bt, tn1, tn2) = setup();
        let idx = build(&bt, &tokens, [&tn1, &tn2]);
        for e1 in pair.first.entities() {
            for e2 in pair.second.entities() {
                let direct = minoan_sim::value_sim(&tokens, e1, e2);
                let indexed = idx.value_sim(e1, e2);
                assert!(
                    (direct - indexed).abs() < 1e-9,
                    "mismatch for {e1:?},{e2:?}: {direct} vs {indexed}"
                );
            }
        }
    }

    #[test]
    fn candidate_lists_are_sorted_desc() {
        let (_, tokens, bt, tn1, tn2) = setup();
        let idx = build(&bt, &tokens, [&tn1, &tn2]);
        for side in [KbSide::First, KbSide::Second] {
            for e in 0..tokens.entity_count(side) as u32 {
                let c = idx.value_candidates(side, EntityId(e));
                assert!(c.windows(2).all(|w| w[0].1 >= w[1].1));
            }
        }
    }

    #[test]
    fn neighbor_sim_propagates_actor_similarity_to_movies() {
        let (pair, tokens, bt, tn1, tn2) = setup();
        let idx = build(&bt, &tokens, [&tn1, &tn2]);
        let am0 = pair.first.entity_by_uri("a:m0").unwrap();
        let bm0 = pair.second.entity_by_uri("b:m0").unwrap();
        let ap0 = pair.first.entity_by_uri("a:p0").unwrap();
        let bp0 = pair.second.entity_by_uri("b:p0").unwrap();
        let actors = idx.value_sim(ap0, bp0);
        assert!(actors > 0.0);
        // The movies' neighbor similarity equals their actors' value sim.
        assert!((idx.neighbor_sim(am0, bm0) - actors).abs() < 1e-9);
        // And the actors' neighbor similarity equals the movies' value sim
        // (via the incoming edge).
        assert!((idx.neighbor_sim(ap0, bp0) - idx.value_sim(am0, bm0)).abs() < 1e-9);
    }

    #[test]
    fn non_cooccurring_pairs_have_zero_sims() {
        let (pair, tokens, bt, tn1, tn2) = setup();
        let idx = build(&bt, &tokens, [&tn1, &tn2]);
        let am1 = pair.first.entity_by_uri("a:m1").unwrap();
        let bm0 = pair.second.entity_by_uri("b:m0").unwrap();
        assert_eq!(idx.value_sim(am1, bm0), 0.0);
        assert_eq!(idx.neighbor_sim(am1, bm0), 0.0);
    }

    #[test]
    fn neighbor_candidates_only_contain_nonzero_entries() {
        let (_, tokens, bt, tn1, tn2) = setup();
        let idx = build(&bt, &tokens, [&tn1, &tn2]);
        for side in [KbSide::First, KbSide::Second] {
            for e in 0..tokens.entity_count(side) as u32 {
                for &(_, v) in idx.neighbor_candidates(side, EntityId(e)) {
                    assert!(v > 0.0);
                }
            }
        }
    }

    #[test]
    fn both_directions_agree() {
        let (_, tokens, bt, tn1, tn2) = setup();
        let idx = build(&bt, &tokens, [&tn1, &tn2]);
        for e1 in 0..tokens.entity_count(KbSide::First) as u32 {
            for &(e2, v) in idx.value_candidates(KbSide::First, EntityId(e1)) {
                let back = idx.value_candidates(KbSide::Second, e2);
                assert!(back
                    .iter()
                    .any(|&(e, bv)| e == EntityId(e1) && (bv - v).abs() < 1e-12));
            }
        }
    }

    #[test]
    fn top_value_candidate_is_the_argmax() {
        let (pair, tokens, bt, tn1, tn2) = setup();
        let idx = build(&bt, &tokens, [&tn1, &tn2]);
        let am0 = pair.first.entity_by_uri("a:m0").unwrap();
        let bm0 = pair.second.entity_by_uri("b:m0").unwrap();
        let (top, v) = idx.top_value_candidate(KbSide::First, am0).unwrap();
        assert_eq!(top, bm0);
        assert!(v > 0.0);
    }

    /// The executor-equivalence contract at unit scale: every thread
    /// count (hence part count) must reproduce the sequential index bit
    /// for bit.
    #[test]
    fn parallel_index_is_bit_identical_to_sequential() {
        let (_, tokens, bt, tn1, tn2) = setup();
        let seq = build(&bt, &tokens, [&tn1, &tn2]);
        for threads in [2, 3, 5, 8] {
            let exec = Executor::new(ExecutorKind::Pool, threads);
            let par = SimilarityIndex::build_with(&bt, &tokens, [&tn1, &tn2], &exec);
            for side in [KbSide::First, KbSide::Second] {
                for e in 0..tokens.entity_count(side) as u32 {
                    let e = EntityId(e);
                    assert_eq!(
                        seq.value_candidates(side, e),
                        par.value_candidates(side, e),
                        "value candidates differ for {side:?} {e} at {threads} threads"
                    );
                    assert_eq!(
                        seq.neighbor_candidates(side, e),
                        par.neighbor_candidates(side, e),
                        "neighbor candidates differ for {side:?} {e} at {threads} threads"
                    );
                }
            }
            assert_eq!(seq.pair_count(), par.pair_count());
            assert_eq!(seq.neighbor_pair_count(), par.neighbor_pair_count());
        }
    }

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    /// Where the block-major algorithm survives: one pair-keyed map over
    /// a scan of the blocks in order, rows scattered out and sorted.
    fn naive_value_rows(
        blocks: &BlockCollection,
        tokens: &TokenizedPair,
        n1: usize,
    ) -> Vec<Vec<Candidate>> {
        let mut acc: minoan_kb::FxHashMap<(u32, u32), f64> = Default::default();
        for b in blocks.blocks() {
            let t = TokenId(b.key);
            let w = token_weight(
                tokens.dict().ef(KbSide::First, t),
                tokens.dict().ef(KbSide::Second, t),
            );
            for &e1 in &b.firsts {
                for &e2 in &b.seconds {
                    *acc.entry((e1.0, e2.0)).or_insert(0.0) += w;
                }
            }
        }
        let mut rows: Vec<Vec<Candidate>> = vec![Vec::new(); n1];
        for (&(e1, e2), &v) in &acc {
            rows[e1 as usize].push((EntityId(e2), v));
        }
        for row in &mut rows {
            row.sort_unstable_by(cand_cmp);
        }
        rows
    }

    /// 40 × 50 entities drawing 1–4 tokens each from a 13-word
    /// vocabulary, so most pairs share several blocks of different
    /// weights and the addition order shows in the low bits.
    fn dense_setup() -> (TokenizedPair, BlockCollection) {
        let words: Vec<String> = (0..13).map(|w| format!("w{w:02}")).collect();
        let text = |i: usize, salt: usize| {
            (0..1 + (i + salt) % 4)
                .map(|j| words[(i * 7 + j * 5 + salt) % 13].as_str())
                .collect::<Vec<_>>()
                .join(" ")
        };
        let mut a = KbBuilder::new("E1");
        for i in 0..40 {
            a.add_literal(&format!("a:{i}"), "v", &text(i, 0));
        }
        let mut b = KbBuilder::new("E2");
        for i in 0..50 {
            b.add_literal(&format!("b:{i}"), "v", &text(i, 3));
        }
        let pair = KbPair::new(a.finish(), b.finish());
        tokenize_and_block(&pair)
    }

    #[test]
    fn kernel_rows_equal_the_naive_pair_keyed_accumulation() {
        let (_, small_tokens, small_blocks, _, _) = setup();
        for (tokens, blocks) in [dense_setup(), (small_tokens, small_blocks)] {
            let n1 = tokens.entity_count(KbSide::First);
            let want = naive_value_rows(&blocks, &tokens, n1);
            assert!(want.iter().any(|row| !row.is_empty()));
            for exec in [Executor::sequential(), Executor::new(ExecutorKind::Pool, 3)] {
                // Exact: same candidates, same order, same f64 bits.
                assert_eq!(value_rows(&blocks, &tokens, &exec), want);
            }
        }
    }

    #[test]
    fn unblocked_and_unindexed_entities_get_empty_rows() {
        let mut a = KbBuilder::new("E1");
        a.add_literal("a:0", "title", "zorba");
        a.add_literal("a:1", "title", "unshared");
        let mut b = KbBuilder::new("E2");
        b.add_literal("b:0", "label", "zorba");
        let pair = KbPair::new(a.finish(), b.finish());
        let (tokens, blocks) = tokenize_and_block(&pair);
        assert!(blocks.blocks_of(KbSide::First, e(1)).is_empty());
        let rows = value_rows(&blocks, &tokens, &Executor::sequential());
        assert_eq!(rows, vec![vec![(e(0), 1.0)], vec![]]);
        // A collection that indexes fewer entities than were tokenized:
        // the row-major walk must not read `blocks_of` out of bounds.
        let none = BlockCollection::new(minoan_blocking::BlockKind::Token, vec![], 0, 0);
        let idx = build(&none, &tokens, [&[vec![], vec![]], &[vec![]]]);
        assert_eq!(idx.pair_count(), 0);
    }

    #[test]
    fn scratch_is_fully_reset_between_rows() {
        let (a, b, c) = ([e(0), e(1)], [e(1), e(2)], [e(3)]);
        let mut scratch = RowScratch::new(4);
        assert_eq!(
            scratch.value_row([(0.5, &a[..]), (0.25, &b[..])]),
            vec![(e(1), 0.75), (e(0), 0.5), (e(2), 0.25)]
        );
        // Overlapping candidates: nothing of the previous row's 0.75 or
        // 0.25 may leak into the sums.
        assert_eq!(
            scratch.value_row([(1.0, &b[..])]),
            vec![(e(1), 1.0), (e(2), 1.0)]
        );
        // Disjoint candidates, then no blocks at all.
        assert_eq!(scratch.value_row([(0.125, &c[..])]), vec![(e(3), 0.125)]);
        assert!(scratch.value_row([]).is_empty());
        assert!(scratch.touched.is_empty());
        assert!(scratch.sums.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_blocks_build_empty_index() {
        let (_, tokens, _, tn1, tn2) = setup();
        let empty = BlockCollection::new(minoan_blocking::BlockKind::Token, vec![], 4, 4);
        let idx = build(&empty, &tokens, [&tn1, &tn2]);
        assert_eq!(idx.pair_count(), 0);
        assert_eq!(idx.neighbor_pair_count(), 0);
    }
}
