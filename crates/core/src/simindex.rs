//! The similarity index: every similarity MinoanER needs, computed once
//! from the purged token blocks.
//!
//! The paper's efficiency argument (§III) is that both `valueSim` and
//! `neighborNSim` are functions of block statistics, so the matching
//! process iterates over blocks instead of the KBs — and that this pass
//! is *massively parallel*. This module realizes both claims:
//!
//! - `valueSim` accumulation is **sharded by `e1 % shards`**: every shard
//!   scans the blocks in order and accumulates only the pairs it owns, so
//!   each pair's floating-point sum has exactly the sequential
//!   block-order accumulation order — parallel results are bit-identical
//!   to sequential for any shard count;
//! - candidate lists are stored as **CSR** ([`Csr<Candidate>`]): one flat
//!   buffer plus offsets instead of one allocation per entity, filled and
//!   sorted in parallel (ties broken by entity id for determinism);
//! - the `neighborNSim` pass is embarrassingly parallel over `e1` and
//!   reuses the same machinery;
//! - the reverse-direction lists are a parallel CSR **transpose**
//!   (partial histograms → per-part cursors → disjoint fills).

use minoan_blocking::BlockCollection;
use minoan_exec::{Executor, SharedSlice};
use minoan_kb::{Csr, EntityId, FxHashMap, KbSide, TokenId};
use minoan_sim::token_weight;
use minoan_text::TokenizedPair;

/// A scored candidate (the other side's entity plus a similarity).
pub type Candidate = (EntityId, f64);

/// Candidate ordering: similarity descending, ties by entity id
/// ascending — a total order, so sorting is deterministic.
#[inline]
pub(crate) fn cand_cmp(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
    b.1.partial_cmp(&a.1)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.0.cmp(&b.0))
}

/// Value and neighbor similarities for all co-occurring pairs, with
/// per-entity candidate lists sorted by similarity (descending, ties by
/// entity id for determinism), stored in CSR form.
#[derive(Debug, Default)]
pub struct SimilarityIndex {
    /// Per side: CSR of candidates by value similarity.
    value_cands: [Csr<Candidate>; 2],
    /// Per side: CSR of candidates with non-zero neighbor similarity.
    neighbor_cands: [Csr<Candidate>; 2],
}

impl SimilarityIndex {
    /// Builds the index sequentially from the (purged) token blocks.
    ///
    /// `top_neighbors` holds `topNneighbors(e)` per entity for each side
    /// (see [`crate::importance::top_neighbors`]).
    pub fn build(
        blocks: &BlockCollection,
        tokens: &TokenizedPair,
        top_neighbors: [&[Vec<EntityId>]; 2],
    ) -> Self {
        Self::build_with(blocks, tokens, top_neighbors, &Executor::sequential())
    }

    /// Builds the index on `exec`. Bit-identical to [`SimilarityIndex::build`]
    /// for any backend and thread count (see the module docs).
    pub fn build_with(
        blocks: &BlockCollection,
        tokens: &TokenizedPair,
        top_neighbors: [&[Vec<EntityId>]; 2],
        exec: &Executor,
    ) -> Self {
        let n1 = tokens.entity_count(KbSide::First);
        let n2 = tokens.entity_count(KbSide::Second);

        // Per-block token weights, data-parallel over block ranges.
        let block_list = blocks.blocks();
        let weights: Vec<f64> = exec.map_range(block_list.len(), |i| {
            let t = TokenId(block_list[i].key);
            token_weight(
                tokens.dict().ef(KbSide::First, t),
                tokens.dict().ef(KbSide::Second, t),
            )
        });

        // Sharded valueSim accumulation: shard `s` owns every pair whose
        // first entity satisfies `e1 % shards == s`. Each shard scans the
        // blocks in order, so per-pair sums accumulate in block order —
        // the exact sequential order — regardless of the shard count.
        //
        // Each *large* block's `firsts` list is **pre-grouped by owner
        // shard** once (a stable counting-sort per block, itself
        // data-parallel over blocks), so a shard reads only its own
        // sub-slice instead of rescanning the full list — O(assignments)
        // total reads instead of O(shards × assignments). Blocks with
        // fewer entities than shards keep the cheap filter scan: for
        // them the rescan costs less than the counting-sort's
        // O(shards) offset array, and skipping the grouping bounds the
        // extra memory by the assignment count. Both paths yield a
        // shard's entities in block order (the scatter is stable), so
        // per-pair sums keep the sequential accumulation order bit for
        // bit either way.
        let shards = exec.threads();
        let grouped: Vec<Option<(Vec<EntityId>, Vec<u32>)>> = if shards > 1 {
            exec.map_range(block_list.len(), |i| {
                let firsts = &block_list[i].firsts;
                if firsts.len() < shards {
                    return None;
                }
                let mut offsets = vec![0u32; shards + 1];
                for &e1 in firsts {
                    offsets[e1.index() % shards + 1] += 1;
                }
                for s in 0..shards {
                    offsets[s + 1] += offsets[s];
                }
                let mut items = vec![EntityId(0); firsts.len()];
                let mut cursor = offsets[..shards].to_vec();
                for &e1 in firsts {
                    let s = e1.index() % shards;
                    items[cursor[s] as usize] = e1;
                    cursor[s] += 1;
                }
                Some((items, offsets))
            })
        } else {
            Vec::new()
        };
        let mut shard_rows: Vec<Vec<Vec<Candidate>>> = exec.map_shards(shards, |s| {
            let mut acc: FxHashMap<(u32, u32), f64> = FxHashMap::default();
            for (i, (b, &w)) in block_list.iter().zip(&weights).enumerate() {
                let pregrouped = if shards > 1 {
                    grouped[i].as_ref()
                } else {
                    None
                };
                if let Some((items, offsets)) = pregrouped {
                    for &e1 in &items[offsets[s] as usize..offsets[s + 1] as usize] {
                        for &e2 in &b.seconds {
                            *acc.entry((e1.0, e2.0)).or_insert(0.0) += w;
                        }
                    }
                } else {
                    // Filter scan; a no-op filter when shards == 1.
                    for &e1 in &b.firsts {
                        if e1.index() % shards != s {
                            continue;
                        }
                        for &e2 in &b.seconds {
                            *acc.entry((e1.0, e2.0)).or_insert(0.0) += w;
                        }
                    }
                }
            }
            // Shard-local candidate rows: entity e1 lives at e1 / shards.
            let local_n = if n1 > s { (n1 - 1 - s) / shards + 1 } else { 0 };
            let mut rows: Vec<Vec<Candidate>> = vec![Vec::new(); local_n];
            for (&(e1, e2), &v) in &acc {
                rows[e1 as usize / shards].push((EntityId(e2), v));
            }
            for row in &mut rows {
                row.sort_unstable_by(cand_cmp);
            }
            rows
        });
        drop(grouped);

        // Interleave the shard rows back into entity order.
        let mut firsts_rows: Vec<Vec<Candidate>> = Vec::with_capacity(n1);
        for e1 in 0..n1 {
            firsts_rows.push(std::mem::take(&mut shard_rows[e1 % shards][e1 / shards]));
        }
        let value_firsts = Csr::from_rows(firsts_rows);
        Self::derive_from_value_firsts(value_firsts, n2, top_neighbors, exec)
    }

    /// Completes an index from a finished `value_firsts` CSR: transposes
    /// the reverse value direction and runs the `neighborNSim` pass in
    /// both directions. Shared by [`SimilarityIndex::build_with`] and
    /// the delta engine, which recomputes only the *affected* value rows
    /// and re-derives everything downstream — the derivation is linear
    /// in the pair count and a pure function of its inputs, so both
    /// paths produce bit-identical indexes.
    pub fn derive_from_value_firsts(
        value_firsts: Csr<Candidate>,
        n_second: usize,
        top_neighbors: [&[Vec<EntityId>]; 2],
        exec: &Executor,
    ) -> Self {
        let n1 = value_firsts.rows();
        let n2 = n_second;
        let value_seconds = transpose(&value_firsts, n2, exec);

        // neighborNSim(e1, e2) = Σ_{n1 ∈ top(e1), n2 ∈ top(e2)} valueSim(n1, n2).
        // For each e1: acc[n2] = Σ_{n1 ∈ top(e1)} valueSim(n1, n2), then
        // sum acc over e2's top neighbors for each candidate e2. Pure
        // reads over the value CSR — embarrassingly parallel over e1.
        let neighbor_parts: Vec<Vec<Vec<Candidate>>> = exec.map_parts(n1, |range| {
            let mut rows: Vec<Vec<Candidate>> = Vec::with_capacity(range.len());
            let mut acc: FxHashMap<u32, f64> = FxHashMap::default();
            for e1 in range {
                let cands = value_firsts.row(e1);
                let tops1 = &top_neighbors[0][e1];
                let mut row: Vec<Candidate> = Vec::new();
                if !cands.is_empty() && !tops1.is_empty() {
                    acc.clear();
                    for &nb1 in tops1 {
                        for &(nb2, v) in value_firsts.row(nb1.index()) {
                            *acc.entry(nb2.0).or_insert(0.0) += v;
                        }
                    }
                    if !acc.is_empty() {
                        for &(e2, _) in cands {
                            let mut s = 0.0;
                            for &nb2 in &top_neighbors[1][e2.index()] {
                                if let Some(&v) = acc.get(&nb2.0) {
                                    s += v;
                                }
                            }
                            if s > 0.0 {
                                row.push((e2, s));
                            }
                        }
                    }
                }
                row.sort_unstable_by(cand_cmp);
                rows.push(row);
            }
            rows
        });
        let neighbor_firsts = Csr::from_rows(neighbor_parts.concat());
        let neighbor_seconds = transpose(&neighbor_firsts, n2, exec);

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

    /// `neighborNSim(e1, e2)` (0 when no top-neighbor pair co-occurs).
    pub fn neighbor_sim(&self, e1: EntityId, e2: EntityId) -> f64 {
        lookup(&self.neighbor_cands[0], e1, e2)
    }

    /// Candidates of `e` (an entity of `side`) sorted by value
    /// similarity, descending.
    pub fn value_candidates(&self, side: KbSide, e: EntityId) -> &[Candidate] {
        self.value_cands[side.index()].row(e.index())
    }

    /// Candidates of `e` with non-zero neighbor similarity, descending.
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

    /// The raw value-candidate CSR of one side (persisted by the
    /// artifact layer).
    pub fn value_csr(&self, side: KbSide) -> &Csr<Candidate> {
        &self.value_cands[side.index()]
    }

    /// The raw neighbor-candidate CSR of one side.
    pub fn neighbor_csr(&self, side: KbSide) -> &Csr<Candidate> {
        &self.neighbor_cands[side.index()]
    }

    /// Rebuilds an index from persisted CSR shards. The two directions
    /// of each similarity must agree on their total pair count (they are
    /// transposes of each other).
    pub fn from_parts(
        value_cands: [Csr<Candidate>; 2],
        neighbor_cands: [Csr<Candidate>; 2],
    ) -> Result<Self, String> {
        if value_cands[0].item_count() != value_cands[1].item_count() {
            return Err("value candidate directions disagree on pair count".into());
        }
        if neighbor_cands[0].item_count() != neighbor_cands[1].item_count() {
            return Err("neighbor candidate directions disagree on pair count".into());
        }
        Ok(Self {
            value_cands,
            neighbor_cands,
        })
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
/// every output row sorted by [`cand_cmp`].
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
            row.sort_unstable_by(cand_cmp);
        });
    }
    Csr::from_lens_and_items(&lens, items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_blocking::token_blocking;
    use minoan_exec::ExecutorKind;
    use minoan_kb::{KbBuilder, KbPair};
    use minoan_text::Tokenizer;

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
        let tokens = TokenizedPair::build(&pair, &Tokenizer::default());
        let bt = token_blocking(&tokens);
        let tn1 = crate::importance::top_neighbors(&pair.first, 3, 32);
        let tn2 = crate::importance::top_neighbors(&pair.second, 3, 32);
        (pair, tokens, bt, tn1, tn2)
    }

    #[test]
    fn value_sims_match_direct_computation() {
        let (pair, tokens, bt, tn1, tn2) = setup();
        let idx = SimilarityIndex::build(&bt, &tokens, [&tn1, &tn2]);
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
        let idx = SimilarityIndex::build(&bt, &tokens, [&tn1, &tn2]);
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
        let idx = SimilarityIndex::build(&bt, &tokens, [&tn1, &tn2]);
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
        let idx = SimilarityIndex::build(&bt, &tokens, [&tn1, &tn2]);
        let am1 = pair.first.entity_by_uri("a:m1").unwrap();
        let bm0 = pair.second.entity_by_uri("b:m0").unwrap();
        assert_eq!(idx.value_sim(am1, bm0), 0.0);
        assert_eq!(idx.neighbor_sim(am1, bm0), 0.0);
    }

    #[test]
    fn neighbor_candidates_only_contain_nonzero_entries() {
        let (_, tokens, bt, tn1, tn2) = setup();
        let idx = SimilarityIndex::build(&bt, &tokens, [&tn1, &tn2]);
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
        let idx = SimilarityIndex::build(&bt, &tokens, [&tn1, &tn2]);
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
        let idx = SimilarityIndex::build(&bt, &tokens, [&tn1, &tn2]);
        let am0 = pair.first.entity_by_uri("a:m0").unwrap();
        let bm0 = pair.second.entity_by_uri("b:m0").unwrap();
        let (top, v) = idx.top_value_candidate(KbSide::First, am0).unwrap();
        assert_eq!(top, bm0);
        assert!(v > 0.0);
    }

    /// The executor-equivalence contract at unit scale: every shard count
    /// must reproduce the sequential index bit for bit.
    #[test]
    fn parallel_index_is_bit_identical_to_sequential() {
        let (_, tokens, bt, tn1, tn2) = setup();
        let seq = SimilarityIndex::build(&bt, &tokens, [&tn1, &tn2]);
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

    #[test]
    fn empty_blocks_build_empty_index() {
        let (_, tokens, _, tn1, tn2) = setup();
        let empty = BlockCollection::new(minoan_blocking::BlockKind::Token, vec![], 4, 4);
        let idx = SimilarityIndex::build(&empty, &tokens, [&tn1, &tn2]);
        assert_eq!(idx.pair_count(), 0);
        assert_eq!(idx.neighbor_pair_count(), 0);
    }
}
