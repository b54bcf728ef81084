//! The similarity index: every similarity MinoanER needs, computed once
//! from the purged token blocks.
//!
//! The paper's efficiency argument (§III) is that both `valueSim` and
//! `neighborNSim` are functions of block statistics, so the matching
//! process iterates over blocks instead of the KBs — and that this pass
//! is *massively parallel*. This module realizes both claims:
//!
//! - `valueSim` is accumulated **row-major by one kernel**
//!   (`RowScratch::value_row`), in both directions: the candidate row of
//!   an entity is the sum, over the blocks containing it, of each
//!   block's token weight into a dense scratch over the other side's
//!   entities. The blocks of an entity are walked in ascending block
//!   order, so every pair's floating-point sum has exactly the
//!   block-order addition sequence — from either side — and a row
//!   depends on nothing but its own entity. Rows are therefore
//!   **bit-identical for any backend, thread count or part count**, and
//!   the two directions hold the same bits for the same pair;
//! - each row pass is a plain [`Executor::map_parts`] over entities, so
//!   the pool backend runs it as
//!   [`POOL_TASK_ITEMS`](minoan_exec::POOL_TASK_ITEMS)-bounded tasks
//!   and a cancel or deadline is observed within one task quantum — the
//!   promise [`minoan_exec::cancel`] makes for every stage;
//! - candidate lists are stored as **CSR** ([`CandidateCsr`]): flat
//!   parallel id and similarity buffers plus offsets, 12 bytes per
//!   candidate, instead of one allocation per entity. Each executor
//!   part appends its rows to its own CSR, and the index reads the parts
//!   in place, in part order — no staging rows, no copy into one buffer;
//! - the scratch records a slot's first touch **without a branch**: it
//!   always writes the id at `touched[len]` and advances `len` only if
//!   the slot read `0.0`. `0.0` stays the untouched mark because every
//!   term is strictly positive, and `touched` has `n_other + 1` slots
//!   because the write comes before the advance (see `RowScratch`);
//! - the `neighborNSim` pass is embarrassingly parallel over `e1` and
//!   accumulates on the same dense scratch. Its probe reads a **flat
//!   copy** of the second side's top-neighbor lists (one CSR of `u32`
//!   ids, built once per index, each list padded to a multiple of four
//!   with the id of a slot that stays `0.0`) and appends every
//!   candidate to a row presized to the candidate count, advancing past
//!   it only if its score is positive — no data-dependent branch, the
//!   same sums in the same order. Its reverse direction is a parallel
//!   CSR **transpose** (partial histograms → per-part cursors →
//!   disjoint fills), each column then ranked like any other row.
//!
//! # Candidate order
//!
//! The candidate order is similarity descending, ties by entity id
//! ascending: a total order, so a row has one fixed sequence. It is
//! compared through one integer key, `cand_key = (Reverse(v.to_bits()),
//! id)`, instead of the floats. That is exact because the index holds
//! only **strictly positive, finite** similarities: value terms are
//! token weights in `(0, 1]` (see `RowScratch`) and neighbor rows keep
//! only `s > 0`. On such values the IEEE-754 bit pattern, read as an
//! unsigned integer, orders exactly like the number — subnormals
//! included — so the key gives the same total order as comparing the
//! floats. A zero, negative or NaN similarity would break that;
//! `cand_key` asserts none reaches a sort in debug builds.
//!
//! Every stored row — value and neighbor, in both directions — is
//! **ranked**, not sorted (`rank`): its best [`MAX_CANDIDATES`] entries
//! come first, in candidate order, and the rest follow in no order.
//! Rows are read only through [`Ranked`], which yields the prefix and,
//! should a reader run off it, sorts a copy of the tail and goes on.
//! That is exact: the key is a total order (ids are unique within a
//! row), so the best 128 of a row are one set in one order whatever the
//! input order, and the reader's sequence is the fully sorted row bit
//! for bit, however far it reads.
//!
//! # Which rows are whole
//!
//! None, once the build is done: every row of both sides is stored
//! **cut** to its best [`MAX_CANDIDATES`] right after the last pass
//! that reads it whole. The passes run in the order that keeps whole
//! rows alive for the shortest time:
//!
//! 1. the first side's value rows, whole (`simindex.value_rows`);
//! 2. the `neighborNSim` rows of the first side, whole
//!    (`simindex.neighbor_rows`) — the last whole read of the first
//!    side's value rows, which are cut right after it;
//! 3. the second side's value rows (`simindex.value_reverse`), each cut
//!    as the kernel ranks it;
//! 4. the transpose of the neighbor rows (`simindex.neighbor_reverse`),
//!    after which both sides' neighbor rows are cut.
//!
//! A cut keeps a row's ranked prefix, which is the fully sorted row's
//! first [`MAX_CANDIDATES`] entries bit for bit. What a reader sees past
//! it depends on the side:
//!
//! - H2 and H3 probe the **smaller** KB only — the *probe side*,
//!   [`KbSide::smaller`]: the side with fewer entities, the first on a
//!   tie, the rule
//!   [`KbPair::smaller_side`](minoan_kb::KbPair::smaller_side) applies
//!   too. The index derives it from the tokenized entity counts. A probe
//!   row is read as far as a heuristic needs, so it **reads whole**: the
//!   index records each cut probe row's full length ([`Ranked::len`],
//!   [`SimilarityIndex::pair_count`] and
//!   [`SimilarityIndex::neighbor_pair_count`] stay exact), and a reader
//!   that runs off the stored prefix **recomputes** the row — with the
//!   same kernel, every sum in the same addition order — ranks it and
//!   yields its sorted tail. For that the index keeps what one row is
//!   rebuilt from: a copy of the purged token blocks, their weights, the
//!   first side's top-neighbor lists and the probe's padded lists of the
//!   second side's (`Rebuild`). A value row is the kernel's row over the
//!   entity's blocks; a first-side neighbor row is the `neighbor_rows`
//!   accumulation over the kernel's rows of its top neighbors; a
//!   second-side neighbor row sums, for each `e1` of its value row and
//!   in the forward pass's order, `Σ_{nb1 ∈ top(e1)} valueSim(nb1,
//!   nb2)` over its padded list of `nb2` — an absent pair adds `+0.0`,
//!   which leaves every bit as it was. By ROADMAP F4 no heuristic reads
//!   past entry 75 on the benchmark profiles, so the recompute is the
//!   cold path (`simindex.tail_reads` counts it).
//! - A row of the other side is read only by H4, up to `K`, and by a
//!   persisted index, up to [`MAX_CANDIDATES`]; the configuration bounds
//!   `K` by [`MAX_CANDIDATES`] too. So a reader of such a row ends at
//!   the cut, and one that tries to read further panics in debug builds
//!   ([`Ranked::is_cut`]) instead of ending quietly.
//!
//! Lookups ([`SimilarityIndex::value_sim`],
//! [`SimilarityIndex::neighbor_sim`]) read the probe side through the
//! same path, so they stay exact too.
//!
//! At debug level the build emits `simindex.candidate_bytes` once per
//! pass: the bytes of candidate rows alive when the pass's rows are
//! complete, and after the cuts that follow it — 12 per candidate plus
//! 8 per row offset, computed from the row lengths.

use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};

use minoan_blocking::BlockCollection;
use minoan_exec::{Executor, SharedSlice};
use minoan_kb::csr::Csr;
use minoan_kb::{EntityId, KbSide, TokenId};
use minoan_sim::token_weight;
use minoan_text::TokenizedPair;

use crate::artifact::MAX_CANDIDATES;
use crate::candidates::{Candidate, CandidateCsr, CandidateRow};
use crate::pipeline::stage_span;

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

/// Puts the best [`MAX_CANDIDATES`] entries of `row` first, in
/// [`cand_key`] order, and the rest after them in no order (see the
/// module docs). A row no longer than that is simply sorted.
fn rank(row: &mut [Candidate]) {
    if row.len() > MAX_CANDIDATES {
        row.select_nth_unstable_by_key(MAX_CANDIDATES, cand_key);
        row[..MAX_CANDIDATES].sort_unstable_by_key(cand_key);
    } else {
        row.sort_unstable_by_key(cand_key);
    }
}

/// One ranked candidate row read in the full candidate order: the
/// stored prefix as it is, then — only once a reader runs off the
/// prefix — the sorted rest of the row, taken from the stored tail or,
/// for a cut probe row, from the row recomputed (see the module docs).
/// The sequence is the fully sorted row, bit for bit, however far it
/// is read, as far as [`Ranked::len`]: the full row's length, except
/// for a row [`Ranked::is_cut`], which ends at its stored prefix.
#[derive(Debug)]
pub struct Ranked<'a> {
    row: CandidateRow<'a>,
    /// How many candidates the reader yields.
    len: usize,
    /// Where the candidates after the prefix come from.
    past: Past<'a>,
    next: usize,
    /// The candidates after the prefix in [`cand_key`] order; empty
    /// until the first read past the prefix.
    tail: Vec<Candidate>,
    tail_reads: &'a AtomicUsize,
}

/// Where a [`Ranked`] reader finds the candidates after a row's stored
/// prefix.
#[derive(Debug, Clone, Copy)]
enum Past<'a> {
    /// The row is stored whole: its stored tail.
    Stored,
    /// The row was cut and its reader ends at the cut.
    End,
    /// The row was cut and reads whole: the row of `e` of this kind and
    /// side, recomputed.
    Recompute(&'a Rebuild, RowKind, KbSide, EntityId),
}

impl<'a> Ranked<'a> {
    /// Whether the row was cut to its best [`MAX_CANDIDATES`] and its
    /// reader ends there (a row of the non-probe side longer than that,
    /// see the module docs): it yields exactly that prefix, and a read
    /// past it panics in debug builds. A cut probe row is not: it reads
    /// whole.
    pub fn is_cut(&self) -> bool {
        matches!(self.past, Past::End)
    }

    /// The candidates after the stored prefix, sorted, counted in
    /// `tail_reads`.
    #[cold]
    fn fill_tail(&mut self) {
        self.tail = match self.past {
            Past::Stored => self.row.tail(MAX_CANDIDATES),
            Past::Recompute(rebuild, kind, side, e) => {
                let mut full = rebuild.row(kind, side, e);
                let bits = |(c, v): Candidate| (c, v.to_bits());
                debug_assert!(
                    full.len() == self.len
                        && full[..MAX_CANDIDATES]
                            .iter()
                            .copied()
                            .map(bits)
                            .eq(self.row.iter().map(bits)),
                    "the recomputed {kind:?} row of {side:?} {e} differs from its stored prefix"
                );
                full.split_off(MAX_CANDIDATES)
            }
            Past::End => unreachable!("a cut row's reader ends at the cut"),
        };
        self.tail.sort_unstable_by_key(cand_key);
        self.tail_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// The similarity of `other` in the row, `0.0` if absent. Scans the
    /// stored candidates as they are — an id occurs at most once in a
    /// row, so the order is immaterial — and reads on past them only if
    /// the row is longer than what is stored.
    fn similarity_of(mut self, other: EntityId) -> f64 {
        let stored = self.row.len();
        match self.row.ids().iter().position(|&c| c == other) {
            Some(i) => self.row.get(i).map_or(0.0, |(_, v)| v),
            None if self.len > stored => {
                self.next = stored;
                self.find_map(|(c, v)| (c == other).then_some(v))
                    .unwrap_or(0.0)
            }
            None => 0.0,
        }
    }
}

impl Iterator for Ranked<'_> {
    type Item = Candidate;

    #[inline]
    fn next(&mut self) -> Option<Candidate> {
        let i = self.next;
        let item = if i < MAX_CANDIDATES {
            self.row.get(i)?
        } else {
            if i >= self.len {
                debug_assert!(
                    !self.is_cut(),
                    "read past the {MAX_CANDIDATES} stored candidates of a cut row"
                );
                return None;
            }
            if self.tail.is_empty() {
                self.fill_tail();
            }
            self.tail[i - MAX_CANDIDATES]
        };
        self.next += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.len - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Ranked<'_> {}

/// A dense accumulator over the other KB's entities plus the list of
/// slots touched since the last reset: the working memory of one row of
/// either similarity. Allocated once per executor task and reset per
/// row in O(touched), so a row costs its own candidates — no hashing,
/// no per-row allocation.
///
/// `0.0` marks an untouched slot. That rests on every added term being
/// strictly positive, so a touched slot can never return to zero:
/// [`token_weight`] is `1 / log2(ef1·ef2 + 1)`, which lies in `(0, 1]`
/// for entity frequencies `≥ 1` (a block's token occurs on both sides)
/// and is never zero, negative or NaN for any frequencies; the neighbor
/// pass adds sums of such weights.
///
/// A first touch is recorded **without a branch**: [`RowScratch::add`]
/// always writes the slot's id at `touched[len]` and advances `len`
/// only if the slot read `0.0`, so a later touch's write is overwritten
/// by the next first touch. At most `n_other` slots are ever touched,
/// so `len ≤ n_other`; `touched` has one slot more than that because
/// the write comes before the advance — a row touching all `n_other`
/// slots writes once more, at index `n_other`, on every later add.
///
/// `sums` has one slot more too: no entity has the id `n_other`, so
/// `sums[n_other]` is never added to and reads `0.0` for good. It is
/// the padding id of the `neighborNSim` probe's lists ([`probe_lists`]).
struct RowScratch {
    sums: Vec<f64>,
    /// `touched[..len]` are the touched slots in first-touch order; the
    /// rest is scratch for the next write.
    touched: Vec<u32>,
    len: usize,
}

impl RowScratch {
    /// A zeroed scratch for candidates in `0..n_other`.
    fn new(n_other: usize) -> Self {
        Self {
            sums: vec![0.0; n_other + 1],
            touched: vec![0; n_other + 1],
            len: 0,
        }
    }

    #[inline]
    fn add(&mut self, e2: EntityId, v: f64) {
        debug_assert!(v > 0.0, "0.0 is the untouched mark; terms must be positive");
        let slot = &mut self.sums[e2.index()];
        self.touched[self.len] = e2.0;
        self.len += usize::from(*slot == 0.0);
        *slot += v;
    }

    /// The sum of the slots `ids`, a list padded by [`probe_lists`],
    /// added in list order. An untouched slot and the padding read
    /// `0.0`, and `s + 0.0` is `s` bit for bit.
    #[inline]
    fn sum_of(&self, ids: &[u32]) -> f64 {
        debug_assert!(
            ids.len().is_multiple_of(PROBE_WIDTH),
            "an unpadded probe list"
        );
        let mut s = 0.0;
        for group in ids.chunks_exact(PROBE_WIDTH) {
            for &id in group {
                s += self.sums[id as usize];
            }
        }
        s
    }

    /// Zeroes every touched slot.
    fn reset(&mut self) {
        for &e2 in &self.touched[..self.len] {
            self.sums[e2 as usize] = 0.0;
        }
        self.len = 0;
    }

    /// **The** `valueSim` row: accumulates `weight` into every entity of
    /// `others` for each `(weight, others)` block of one entity, and
    /// leaves the candidates in `row` [`rank`]ed and the scratch reset.
    /// `blocks` must come in ascending block order — that order *is*
    /// each pair's floating-point addition sequence, and what makes a
    /// row reproducible bit for bit wherever, and from whichever side,
    /// it is computed.
    fn value_row<'a>(
        &mut self,
        blocks: impl IntoIterator<Item = (f64, &'a [EntityId])>,
        row: &mut Vec<Candidate>,
    ) {
        for (weight, others) in blocks {
            for &e2 in others {
                self.add(e2, weight);
            }
        }
        let sums = &mut self.sums;
        row.clear();
        row.extend(
            self.touched[..self.len]
                .iter()
                .map(|&e2| (EntityId(e2), std::mem::take(&mut sums[e2 as usize]))),
        );
        self.len = 0;
        rank(row);
    }

    /// **The** `neighborNSim` row of one first-side entity: `cands` are
    /// its value candidates, `nb_rows` the value rows of its top
    /// neighbors in list order, and `top_seconds` the second side's
    /// lists as [`probe_lists`] pads them. Accumulates every `nb_rows`
    /// row into the scratch — each slot's sum in list order, however a
    /// row orders its own candidates — then scores each candidate over
    /// its own list, and leaves the positive ones in `row` [`rank`]ed and
    /// the scratch reset. The scratch spans the second side's entities
    /// plus the padding slot.
    #[inline]
    fn neighbor_row<R: IntoIterator<Item = Candidate>>(
        &mut self,
        cands: &[EntityId],
        nb_rows: impl IntoIterator<Item = R>,
        top_seconds: &Csr<u32>,
        row: &mut Vec<Candidate>,
    ) {
        row.clear();
        if !cands.is_empty() {
            for nb_row in nb_rows {
                for (nb2, v) in nb_row {
                    self.add(nb2, v);
                }
            }
            if self.len > 0 {
                // Every candidate is written; only a positive score
                // advances past it, so a zero is overwritten or cut.
                row.resize(cands.len(), (EntityId(0), 0.0));
                let mut n = 0;
                for &e2 in cands {
                    let s = self.sum_of(top_seconds.row(e2.index()));
                    row[n] = (e2, s);
                    n += usize::from(s > 0.0);
                }
                row.truncate(n);
                self.reset();
            }
        }
        rank(row);
    }
}

/// One side's candidate rows of one similarity, as the index stores
/// them: ranked, whole or cut (see the module docs). The rows stay in
/// the flat buffers the executor parts built them in; the parts are
/// joined in part order by their first rows, not copied into one buffer.
#[derive(Debug, Default)]
struct Rows {
    /// The rows of consecutive entity ranges, in range order.
    parts: Vec<CandidateCsr>,
    /// The first row of each part.
    starts: Vec<usize>,
    /// The rows cut to their best [`MAX_CANDIDATES`], ascending, each
    /// with its full length.
    cut: Vec<(u32, u32)>,
}

impl Rows {
    /// The row of every entity in `0..n`: `row_of(scratch, e, row)`
    /// leaves entity `e`'s row [`rank`]ed in `row`, on a [`RowScratch`]
    /// over `n_other` entities, one per executor part. Each part appends
    /// its rows to its own flat buffers, every row cut to its best
    /// [`MAX_CANDIDATES`] at once if `cut`.
    fn build<F>(n: usize, n_other: usize, cut: bool, exec: &Executor, row_of: F) -> Self
    where
        F: Fn(&mut RowScratch, usize, &mut Vec<Candidate>) + Sync,
    {
        let parts = exec.map_parts(n, |range| {
            let mut scratch = RowScratch::new(n_other);
            let mut row = Vec::new();
            let mut csr = CandidateCsr::default();
            let mut cut_rows = Vec::new();
            let start = range.start;
            for e in range {
                row_of(&mut scratch, e, &mut row);
                if cut && row.len() > MAX_CANDIDATES {
                    cut_rows.push((e as u32, row.len() as u32));
                    row.truncate(MAX_CANDIDATES);
                }
                csr.push_row(&row);
            }
            csr.shrink_to_fit();
            (start, csr, cut_rows)
        });
        let mut rows = Rows::default();
        for (start, csr, cut_rows) in parts {
            rows.starts.push(start);
            rows.parts.push(csr);
            rows.cut.extend(cut_rows);
        }
        rows
    }

    /// Rows held in one buffer, none cut.
    fn whole(csr: CandidateCsr) -> Self {
        Self {
            parts: vec![csr],
            starts: vec![0],
            cut: Vec::new(),
        }
    }

    /// Number of rows.
    fn len(&self) -> usize {
        match (self.starts.last(), self.parts.last()) {
            (Some(start), Some(part)) => start + part.rows(),
            _ => 0,
        }
    }

    /// Number of candidates the rows held before any cut.
    fn full_item_count(&self) -> usize {
        let stored: usize = self.parts.iter().map(CandidateCsr::item_count).sum();
        let dropped: usize = self
            .cut
            .iter()
            .map(|&(_, len)| len as usize - MAX_CANDIDATES)
            .sum();
        stored + dropped
    }

    /// Bytes of the stored rows: 12 per candidate (a `u32` id and an
    /// `f64`) plus 8 per offset.
    fn bytes(&self) -> usize {
        let candidate = size_of::<EntityId>() + size_of::<f64>();
        self.parts
            .iter()
            .map(|part| candidate * part.item_count() + size_of_val(part.offsets()))
            .sum()
    }

    /// The stored row of entity `e`.
    #[inline]
    fn row(&self, e: usize) -> CandidateRow<'_> {
        let p = self.starts.partition_point(|&start| start <= e) - 1;
        self.parts[p].row(e - self.starts[p])
    }

    /// Cuts every row to its best [`MAX_CANDIDATES`], in place,
    /// recording the full length of each row it cuts.
    fn cut(&mut self) {
        for (part, &start) in self.parts.iter_mut().zip(&self.starts) {
            let cut = part.cut_rows(MAX_CANDIDATES);
            self.cut
                .extend(cut.into_iter().map(|(e, len)| (e + start as u32, len)));
        }
    }

    /// A reader over the row of `e`. A cut row reads whole, recomputed
    /// past its prefix, if `recompute` says how; otherwise it ends at
    /// the cut.
    fn read<'a>(
        &'a self,
        e: EntityId,
        recompute: Option<(&'a Rebuild, RowKind, KbSide)>,
        tail_reads: &'a AtomicUsize,
    ) -> Ranked<'a> {
        let row = self.row(e.index());
        // Only a row of exactly MAX_CANDIDATES can have been cut.
        let full = (row.len() == MAX_CANDIDATES)
            .then(|| self.cut.binary_search_by_key(&e.0, |&(r, _)| r).ok())
            .flatten()
            .map(|i| self.cut[i].1 as usize);
        let (len, past) = match (full, recompute) {
            (None, _) => (row.len(), Past::Stored),
            (Some(full), Some((rebuild, kind, side))) => {
                (full, Past::Recompute(rebuild, kind, side, e))
            }
            (Some(_), None) => (MAX_CANDIDATES, Past::End),
        };
        Ranked {
            row,
            len,
            past,
            next: 0,
            tail: Vec::new(),
            tail_reads,
        }
    }
}

/// The token weight of every block of `blocks`, data-parallel over
/// block ranges.
fn block_weights(blocks: &BlockCollection, tokens: &TokenizedPair, exec: &Executor) -> Vec<f64> {
    let block_list = blocks.blocks();
    exec.map_range(block_list.len(), |i| {
        let t = TokenId(block_list[i].key);
        token_weight(
            tokens.dict().ef(KbSide::First, t),
            tokens.dict().ef(KbSide::Second, t),
        )
    })
}

/// The `(weight, other side's entities)` of every block of entity `e`
/// of `side`, in ascending block order: the kernel's input for `e`'s
/// value row ([`RowScratch::value_row`]). An entity in no block — or one
/// `blocks` does not index at all — has none.
fn entity_blocks<'a>(
    blocks: &'a BlockCollection,
    weights: &'a [f64],
    side: KbSide,
    e: usize,
) -> impl Iterator<Item = (f64, &'a [EntityId])> {
    let block_list = blocks.blocks();
    let of_e: &[_] = if e < blocks.entity_count(side) {
        blocks.blocks_of(side, EntityId(e as u32))
    } else {
        &[]
    };
    of_e.iter()
        .map(move |b| (weights[b.index()], block_list[b.index()].side(side.other())))
}

/// The `valueSim` candidate row of every entity of `side` over `blocks`
/// (whose per-block token weights are `weights`), in entity order, each
/// [`rank`]ed as the kernel computes it and cut at once if `cut`. An
/// entity in no block — or one `blocks` does not index at all — gets an
/// empty row.
fn value_rows(
    blocks: &BlockCollection,
    weights: &[f64],
    tokens: &TokenizedPair,
    side: KbSide,
    cut: bool,
    exec: &Executor,
) -> Rows {
    let n = tokens.entity_count(side);
    let n_other = blocks.entity_count(side.other());
    Rows::build(n, n_other, cut, exec, |scratch, e, row| {
        scratch.value_row(entity_blocks(blocks, weights, side, e), row);
    })
}

/// The group width of the `neighborNSim` probe's lists ([`probe_lists`]).
const PROBE_WIDTH: usize = 4;

/// The second side's top-neighbor lists as the `neighborNSim` probe
/// reads them: one CSR of `u32` ids, each list in its own order and
/// padded to a multiple of [`PROBE_WIDTH`] with `n_second`, the id of
/// the scratch's slot that stays `0.0` ([`RowScratch`]). So a candidate
/// is scored over one slice of one buffer instead of through a pointer
/// to its own `Vec`, and the probe's inner loop runs whole groups of
/// four instead of a trip count that changes with every candidate.
/// The padding adds `+0.0` to a sum that is never `-0.0`, which leaves
/// it bit for bit as it was.
fn probe_lists(lists: &[Vec<EntityId>], n_second: usize) -> Csr<u32> {
    let lens: Vec<usize> = lists
        .iter()
        .map(|list| list.len().next_multiple_of(PROBE_WIDTH))
        .collect();
    let pad = std::iter::repeat(n_second as u32);
    let ids = lists
        .iter()
        .zip(&lens)
        .flat_map(|(list, &len)| list.iter().map(|e| e.0).chain(pad.clone()).take(len))
        .collect();
    Csr::from_lens_and_items(&lens, ids)
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
/// Reads the first side's value rows **whole**, `top_firsts` as given
/// and the second side's top neighbors as [`probe_lists`] built them
/// (`top_seconds`). Accumulates on the kernel's dense scratch, one per
/// executor task; the sums follow the order of the top-neighbor lists,
/// never the part boundaries, nor the order of a ranked value row's
/// tail: a row adds each `nb2` at most once. Each row is stored
/// [`rank`]ed and whole.
fn neighbor_rows(
    value_firsts: &Rows,
    n_second: usize,
    top_firsts: &[Vec<EntityId>],
    top_seconds: &Csr<u32>,
    exec: &Executor,
) -> Rows {
    // neighborNSim(e1, e2) = Σ_{n1 ∈ top(e1), n2 ∈ top(e2)} valueSim(n1, n2),
    // evaluated only for the e2 in e1's value row (see above).
    // For each e1: acc[n2] = Σ_{n1 ∈ top(e1)} valueSim(n1, n2), then
    // sum acc over e2's top neighbors for each candidate e2. Pure
    // reads over the value CSR — embarrassingly parallel over e1.
    Rows::build(value_firsts.len(), n_second, false, exec, |acc, e1, row| {
        let nb_rows = top_firsts[e1]
            .iter()
            .map(|nb1| value_firsts.row(nb1.index()).iter());
        acc.neighbor_row(value_firsts.row(e1).ids(), nb_rows, top_seconds, row);
    })
}

/// Which similarity a candidate row holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowKind {
    Value,
    Neighbor,
}

/// What the index keeps to recompute one cut probe row exactly: the
/// inputs of the row kernels, owned for the index's life (see the
/// module docs).
#[derive(Debug)]
struct Rebuild {
    /// The purged token blocks.
    blocks: BlockCollection,
    /// Their token weights.
    weights: Vec<f64>,
    /// Tokenized entities per side.
    n: [usize; 2],
    /// The first side's top-neighbor lists.
    top_firsts: Csr<EntityId>,
    /// The second side's, as the `neighborNSim` probe reads them.
    top_seconds: Csr<u32>,
}

impl Rebuild {
    /// The whole row of `e` of `kind` on `side`, [`rank`]ed: the row the
    /// build computed, bit for bit, before any cut.
    fn row(&self, kind: RowKind, side: KbSide, e: EntityId) -> Vec<Candidate> {
        match (kind, side) {
            (RowKind::Value, _) => self.value_row(side, e),
            (RowKind::Neighbor, KbSide::First) => self.first_neighbor_row(e),
            (RowKind::Neighbor, KbSide::Second) => self.second_neighbor_row(e),
        }
    }

    /// The kernel's value row of `e` of `side`.
    fn value_row(&self, side: KbSide, e: EntityId) -> Vec<Candidate> {
        let mut row = Vec::new();
        let mut scratch = RowScratch::new(self.blocks.entity_count(side.other()));
        let blocks = entity_blocks(&self.blocks, &self.weights, side, e.index());
        scratch.value_row(blocks, &mut row);
        row
    }

    /// The `neighbor_rows` accumulation for `e1`, over the kernel's
    /// value rows of `e1` and of its top neighbors.
    fn first_neighbor_row(&self, e1: EntityId) -> Vec<Candidate> {
        let cands: Vec<EntityId> = self
            .value_row(KbSide::First, e1)
            .into_iter()
            .map(|(e2, _)| e2)
            .collect();
        let nb_rows = self
            .top_firsts
            .row(e1.index())
            .iter()
            .map(|&nb1| self.value_row(KbSide::First, nb1));
        let mut row = Vec::new();
        RowScratch::new(self.n[1]).neighbor_row(&cands, nb_rows, &self.top_seconds, &mut row);
        row
    }

    /// The transpose's column `e2`: for each `e1` of `e2`'s value row,
    /// the sum over `e2`'s padded list of `Σ_{nb1 ∈ top(e1)} valueSim(nb1,
    /// nb2)`, both in list order — the forward pass's sum for the pair,
    /// with `+0.0` where a pair never co-occurs — kept if positive.
    fn second_neighbor_row(&self, e2: EntityId) -> Vec<Candidate> {
        // valueSim(·, nb2) of each nb2 of the list, in list order and
        // ascending by id; none for the padding.
        let columns: Vec<Vec<Candidate>> = self
            .top_seconds
            .row(e2.index())
            .iter()
            .map(|&nb2| {
                if nb2 as usize >= self.n[1] {
                    return Vec::new();
                }
                let mut column = self.value_row(KbSide::Second, EntityId(nb2));
                column.sort_unstable_by_key(|&(nb1, _)| nb1);
                column
            })
            .collect();
        let mut row: Vec<Candidate> = self
            .value_row(KbSide::Second, e2)
            .into_iter()
            .filter_map(|(e1, _)| {
                let mut s = 0.0;
                for column in &columns {
                    let mut acc = 0.0;
                    for nb1 in self.top_firsts.row(e1.index()) {
                        acc += column
                            .binary_search_by_key(nb1, |&(id, _)| id)
                            .map_or(0.0, |i| column[i].1);
                    }
                    s += acc;
                }
                (s > 0.0).then_some((e1, s))
            })
            .collect();
        rank(&mut row);
        row
    }
}

/// Value and neighbor similarities for all co-occurring pairs, with
/// per-entity candidate lists stored ranked in CSR form, each cut to its
/// best [`MAX_CANDIDATES`], and read in the candidate order (similarity
/// descending, ties by entity id; see the module docs) — the probe
/// side's rows whole, recomputed past the cut.
#[derive(Debug)]
pub struct SimilarityIndex {
    /// The side H2 and H3 probe, whose rows read whole.
    probe: KbSide,
    /// Per side: candidates by value similarity.
    value_cands: [Rows; 2],
    /// Per side: candidates with non-zero neighbor similarity.
    neighbor_cands: [Rows; 2],
    /// What a cut probe row is recomputed from; `None` if no probe row
    /// was cut.
    rebuild: Option<Rebuild>,
    /// How many [`Ranked`] readers have sorted a tail.
    tail_reads: AtomicUsize,
}

/// Bytes of the stored candidate rows of `rows` ([`Rows::bytes`]).
fn candidate_bytes<'a>(rows: impl IntoIterator<Item = &'a Rows>) -> usize {
    rows.into_iter().map(Rows::bytes).sum()
}

/// Emits the debug event `simindex.candidate_bytes` for `pass`: the
/// candidate bytes alive when its rows are complete, and after the cuts
/// that follow it.
fn report_candidate_bytes(pass: &str, alive: usize, kept: usize) {
    minoan_obs::debug!(
        "simindex.candidate_bytes",
        "{pass}: {alive} B alive, {kept} B kept"
    );
}

impl SimilarityIndex {
    /// Builds the index from the (purged) token blocks on `exec`.
    ///
    /// `top_neighbors` holds `topNneighbors(e)` per entity for each side
    /// (see [`crate::importance::top_neighbors_with`]).
    ///
    /// Four passes, each under its own debug span and in this order: one
    /// `valueSim` row per first-side entity through the shared row kernel
    /// (`simindex.value_rows`); the `neighborNSim` rows
    /// (`simindex.neighbor_rows`, which first flattens and pads the
    /// second side's top-neighbor lists for the probe); one `valueSim`
    /// row per second-side entity through the same kernel
    /// (`simindex.value_reverse`); and the transpose of the neighbor rows
    /// (`simindex.neighbor_reverse`, split into `simindex.transpose_fill`
    /// and `simindex.transpose_rank`). Every row is cut after the last
    /// pass that reads it whole, and each pass reports its
    /// `simindex.candidate_bytes` (see the module docs). A row is a
    /// function of its own entity's blocks alone, so the result is
    /// bit-identical for any backend, thread count and part count.
    pub fn build_with(
        blocks: &BlockCollection,
        tokens: &TokenizedPair,
        top_neighbors: [&[Vec<EntityId>]; 2],
        exec: &Executor,
    ) -> Self {
        let n = [KbSide::First, KbSide::Second].map(|side| tokens.entity_count(side));
        let probe = KbSide::smaller(n);
        let weights = block_weights(blocks, tokens, exec);
        // The neighbor pass reads the first side's value rows whole.
        let mut value_firsts = {
            let _span = stage_span("simindex.value_rows");
            value_rows(blocks, &weights, tokens, KbSide::First, false, exec)
        };
        let alive = candidate_bytes([&value_firsts]);
        report_candidate_bytes("simindex.value_rows", alive, alive);
        // The transpose reads the first side's neighbor rows whole.
        let (neighbor_firsts, top_seconds) = {
            let _span = stage_span("simindex.neighbor_rows");
            let top_seconds = probe_lists(top_neighbors[1], n[1]);
            let rows = neighbor_rows(&value_firsts, n[1], top_neighbors[0], &top_seconds, exec);
            (rows, top_seconds)
        };
        let alive = candidate_bytes([&value_firsts, &neighbor_firsts]);
        value_firsts.cut();
        let kept = candidate_bytes([&value_firsts, &neighbor_firsts]);
        report_candidate_bytes("simindex.neighbor_rows", alive, kept);
        let value_seconds = {
            let _span = stage_span("simindex.value_reverse");
            value_rows(blocks, &weights, tokens, KbSide::Second, true, exec)
        };
        let alive = candidate_bytes([&value_firsts, &neighbor_firsts, &value_seconds]);
        report_candidate_bytes("simindex.value_reverse", alive, alive);
        let neighbor_seconds = {
            let _span = stage_span("simindex.neighbor_reverse");
            Rows::whole(transpose(&neighbor_firsts, n[1], exec))
        };
        let value_cands = [value_firsts, value_seconds];
        let mut neighbor_cands = [neighbor_firsts, neighbor_seconds];
        let alive = candidate_bytes(value_cands.iter().chain(&neighbor_cands));
        neighbor_cands.iter_mut().for_each(Rows::cut);
        let kept = candidate_bytes(value_cands.iter().chain(&neighbor_cands));
        report_candidate_bytes("simindex.neighbor_reverse", alive, kept);
        let probe_cut = [&value_cands, &neighbor_cands]
            .iter()
            .any(|rows| !rows[probe.index()].cut.is_empty());
        let rebuild = probe_cut.then(|| {
            let tops = top_neighbors[0];
            let lens: Vec<usize> = tops.iter().map(Vec::len).collect();
            Rebuild {
                blocks: blocks.clone(),
                weights,
                n,
                top_firsts: Csr::from_lens_and_items(&lens, tops.concat()),
                top_seconds,
            }
        });
        Self {
            probe,
            value_cands,
            neighbor_cands,
            rebuild,
            tail_reads: AtomicUsize::new(0),
        }
    }

    /// How a cut row of `kind` on `side` is read past its prefix: the
    /// probe side's are recomputed, the other side's end at the cut.
    fn recompute(&self, kind: RowKind, side: KbSide) -> Option<(&Rebuild, RowKind, KbSide)> {
        let rebuild = self.rebuild.as_ref().filter(|_| side == self.probe)?;
        Some((rebuild, kind, side))
    }

    /// Per side, the rows of `kind`.
    fn rows(&self, kind: RowKind) -> &[Rows; 2] {
        match kind {
            RowKind::Value => &self.value_cands,
            RowKind::Neighbor => &self.neighbor_cands,
        }
    }

    /// The reader of `e`'s row of `kind` on `side`.
    fn read(&self, kind: RowKind, side: KbSide, e: EntityId) -> Ranked<'_> {
        self.rows(kind)[side.index()].read(e, self.recompute(kind, side), &self.tail_reads)
    }

    /// The similarity of kind `kind` of the pair `(e1, e2)`, read from the
    /// probe side's row, whole (0 when the row does not hold the pair).
    fn lookup(&self, kind: RowKind, e1: EntityId, e2: EntityId) -> f64 {
        let (e, other) = match self.probe {
            KbSide::First => (e1, e2),
            KbSide::Second => (e2, e1),
        };
        if e.index() >= self.rows(kind)[self.probe.index()].len() {
            return 0.0;
        }
        self.read(kind, self.probe, e).similarity_of(other)
    }

    /// `valueSim(e1, e2)` over the purged blocks (0 when the pair never
    /// co-occurs), read from the probe side's row, whole — a pair past
    /// its stored prefix through the recompute (see the module docs).
    pub fn value_sim(&self, e1: EntityId, e2: EntityId) -> f64 {
        self.lookup(RowKind::Value, e1, e2)
    }

    /// `neighborNSim(e1, e2)`, scored only when `e2` is a value
    /// candidate of `e1`: 0 when the pair itself shares no purged token
    /// block — even if some top-neighbor pair co-occurs — and 0 when no
    /// top-neighbor pair co-occurs. The restriction is deliberate (see
    /// `neighbor_rows`). Read like [`SimilarityIndex::value_sim`].
    pub fn neighbor_sim(&self, e1: EntityId, e2: EntityId) -> f64 {
        self.lookup(RowKind::Neighbor, e1, e2)
    }

    /// Candidates of `e` (an entity of `side`) by value similarity, in
    /// the candidate order. The row is stored ranked and cut; the reader
    /// yields its full order — on the probe side, as far as the full row
    /// reaches, recomputing it only if it is read past entry
    /// [`MAX_CANDIDATES`] — and sorts a stored tail only if it is read
    /// that far. Both count for the debug event `simindex.tail_reads`.
    /// A reader of the other side's row ends at the cut (see
    /// [`Ranked::is_cut`]).
    pub fn value_candidates(&self, side: KbSide, e: EntityId) -> Ranked<'_> {
        self.read(RowKind::Value, side, e)
    }

    /// Candidates of `e` with non-zero neighbor similarity, in the
    /// candidate order and read like
    /// [`SimilarityIndex::value_candidates`] — drawn from `e`'s value
    /// candidates only: a pair that shares no purged token block is
    /// never a neighbor candidate (see [`SimilarityIndex::neighbor_sim`]).
    pub fn neighbor_candidates(&self, side: KbSide, e: EntityId) -> Ranked<'_> {
        self.read(RowKind::Neighbor, side, e)
    }

    /// How many candidate readers so far ran off a row's ranked prefix
    /// and sorted its tail, a cut probe row's recomputed.
    pub(crate) fn tail_reads(&self) -> usize {
        self.tail_reads.load(Ordering::Relaxed)
    }

    /// The best value candidate of `e`, if any: the head of the ranked
    /// prefix.
    pub fn top_value_candidate(&self, side: KbSide, e: EntityId) -> Option<Candidate> {
        self.value_cands[side.index()].row(e.index()).get(0)
    }

    /// Number of co-occurring pairs with recorded value similarity: the
    /// full lengths of the probe side's rows, which the index records
    /// when it cuts them, so the count is exact.
    pub fn pair_count(&self) -> usize {
        self.value_cands[self.probe.index()].full_item_count()
    }

    /// Consumes the index, keeping the two value-candidate CSRs (first
    /// side, then second) — all a persistent index serves match queries
    /// from — with every row as stored: cut to its best
    /// [`MAX_CANDIDATES`], so a kept row is in candidate order and a
    /// bit-identical prefix of the full one. The neighbor lists and what
    /// a row is recomputed from are dropped: `neighborNSim` is read only
    /// by H3 and H4, while the pipeline runs.
    pub fn into_value_candidates(self) -> [CandidateCsr; 2] {
        let Self {
            value_cands,
            neighbor_cands,
            rebuild,
            ..
        } = self;
        drop((neighbor_cands, rebuild));
        value_cands.map(|rows| CandidateCsr::concat(rows.parts))
    }

    /// Number of pairs with non-zero neighbor similarity, counted like
    /// [`SimilarityIndex::pair_count`] on the probe side's rows.
    pub fn neighbor_pair_count(&self) -> usize {
        self.neighbor_cands[self.probe.index()].full_item_count()
    }
}

/// Transposes a `rows -> (col, v)` CSR into a `cols -> (row, v)` CSR with
/// every output row [`rank`]ed.
///
/// Parallel scheme: per-part column histograms, a sequential prefix-sum
/// handing each part a private cursor per column, then disjoint parallel
/// fills and per-row parallel ranks through [`SharedSlice`]s over the id
/// and similarity buffers. The fill order within a column is ascending
/// source row — identical to a sequential transpose — whatever order
/// the source rows' tails are in, so each column's rank, and with it
/// the result, does not depend on the thread count.
///
/// Two debug spans split the pass: `simindex.transpose_fill` (the
/// histograms, cursors and fills) and `simindex.transpose_rank` (the
/// per-column ranks).
fn transpose(src: &Rows, n_cols: usize, exec: &Executor) -> CandidateCsr {
    let fill_span = stage_span("simindex.transpose_fill");
    let n_rows = src.len();
    let ranges = exec.part_ranges(n_rows);
    let histograms: Vec<Vec<usize>> = exec.map_range(ranges.len(), |p| {
        let mut counts = vec![0usize; n_cols];
        for r in ranges[p].clone() {
            for &c in src.row(r).ids() {
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
    let mut ids = vec![EntityId(0); total];
    let mut sims = vec![0.0; total];
    {
        let (shared_ids, shared_sims) = (SharedSlice::new(&mut ids), SharedSlice::new(&mut sims));
        exec.map_range(ranges.len(), |p| {
            let mut cur = cursors[p].clone();
            for r in ranges[p].clone() {
                let row_entity = EntityId(r as u32);
                for (c, v) in src.row(r).iter() {
                    let at = cur[c.index()];
                    // SAFETY: part p exclusively owns positions
                    // cursors[p][c] .. cursors[p][c] + histograms[p][c]
                    // of every column c in both buffers; parts never
                    // overlap.
                    unsafe {
                        shared_ids.write(at, row_entity);
                        shared_sims.write(at, v);
                    }
                    cur[c.index()] += 1;
                }
            }
        });
    }
    drop(fill_span);
    let _rank_span = stage_span("simindex.transpose_rank");
    {
        let (shared_ids, shared_sims) = (SharedSlice::new(&mut ids), SharedSlice::new(&mut sims));
        exec.map_parts(n_cols, |cols| {
            let mut column: Vec<Candidate> = Vec::new();
            for c in cols {
                let range = offsets[c]..offsets[c + 1];
                // SAFETY: column ranges are disjoint slices of both
                // buffers, and parts rank disjoint column ranges.
                let (col_ids, col_sims) = unsafe {
                    (
                        shared_ids.slice_mut(range.clone()),
                        shared_sims.slice_mut(range),
                    )
                };
                column.clear();
                column.extend(col_ids.iter().copied().zip(col_sims.iter().copied()));
                rank(&mut column);
                for ((id, sim), &(e, v)) in col_ids.iter_mut().zip(col_sims.iter_mut()).zip(&column)
                {
                    *id = e;
                    *sim = v;
                }
            }
        });
    }
    CandidateCsr::from_lens(&lens, ids, sims)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use minoan_blocking::token_blocking_with;
    use minoan_exec::ExecutorKind;
    use minoan_kb::{KbBuilder, KbPair};
    use minoan_text::Tokenizer;

    /// The reference candidate order the index's key must reproduce:
    /// similarity descending through the float comparison, ties by
    /// entity id ascending.
    pub(crate) fn cand_cmp(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    }

    /// Similarities that stress the key: subnormals, the neighbours of
    /// `MIN_POSITIVE` and of 1.0 (H2's threshold), and the extremes.
    fn key_values() -> [f64; 13] {
        let one = 1.0f64;
        [
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
        ]
    }

    #[test]
    fn cand_key_sorts_exactly_like_the_float_comparator() {
        let ids = [0, 1, 2, 1 << 31, u32::MAX - 1, u32::MAX];
        let cands: Vec<Candidate> = key_values()
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

    /// The row lengths around the ranked prefix's edge.
    const LENS: [usize; 6] = [0, 1, 127, 128, 129, 300];

    /// `len` distinct candidates whose similarities cycle through
    /// [`key_values`], so each repeats and ties break on ids that arrive
    /// scrambled (`i · 7919 mod 1009` is injective for `i < 1009`).
    fn repeating_row(len: usize) -> Vec<Candidate> {
        let values = key_values();
        (0..len)
            .map(|i| (EntityId((i * 7919 % 1009) as u32), values[i % 13]))
            .collect()
    }

    /// `row`, fully sorted by the reference comparator.
    fn reference(row: &[Candidate]) -> Vec<Candidate> {
        let mut want = row.to_vec();
        want.sort_by(cand_cmp);
        want
    }

    #[test]
    fn rank_sorts_the_prefix_and_selects_the_tail_behind_it() {
        for len in LENS {
            let mut row = repeating_row(len);
            let want = reference(&row);
            rank(&mut row);
            let cut = len.min(MAX_CANDIDATES);
            assert_eq!(row[..cut], want[..cut], "prefix of a {len}-entry row");
            if let Some(last) = row[..cut].last() {
                assert!(
                    row[cut..].iter().all(|c| cand_key(c) > cand_key(last)),
                    "a tail entry of a {len}-entry row ranks inside the prefix"
                );
            }
            // Nothing lost or duplicated.
            assert_eq!(reference(&row), want);
        }
    }

    /// `row`, ranked, stored as the only row of a [`Rows`], cut to its
    /// best [`MAX_CANDIDATES`] if `cut`.
    fn stored(row: &[Candidate], cut: bool) -> Rows {
        Rows::build(1, 0, cut, &Executor::sequential(), |_, _, out| {
            out.clear();
            out.extend_from_slice(row);
            rank(out);
        })
    }

    #[test]
    fn ranked_yields_the_full_order_read_whole_or_abandoned() {
        for len in LENS {
            let row = repeating_row(len);
            let want = reference(&row);
            let rows = stored(&row, false);
            let tail_reads = AtomicUsize::new(0);
            let whole = rows.read(e(0), None, &tail_reads);
            assert_eq!(whole.len(), len);
            assert!(!whole.is_cut());
            assert_eq!(
                whole.collect::<Vec<_>>(),
                want,
                "{len}-entry row read whole"
            );
            for stop in [0, 1, MAX_CANDIDATES, MAX_CANDIDATES + 1, 200] {
                let got: Vec<_> = rows.read(e(0), None, &tail_reads).take(stop).collect();
                assert_eq!(got, want[..stop.min(len)], "{len}-entry row cut at {stop}");
            }
            // One tail sort per reader that left the prefix: the whole
            // read, and the cuts at 129 and 200.
            let left = if len > MAX_CANDIDATES { 3 } else { 0 };
            assert_eq!(tail_reads.into_inner(), left, "{len}-entry row");
        }
    }

    #[test]
    fn a_cut_row_is_the_ranked_prefix_of_the_full_one() {
        for len in LENS {
            let row = repeating_row(len);
            let want = reference(&row);
            let keep = len.min(MAX_CANDIDATES);
            let rows = stored(&row, true);
            assert_eq!(
                rows.cut,
                if len > MAX_CANDIDATES {
                    vec![(0, len as u32)]
                } else {
                    vec![]
                }
            );
            let tail_reads = AtomicUsize::new(0);
            let read = rows.read(e(0), None, &tail_reads);
            assert_eq!(read.is_cut(), len > MAX_CANDIDATES, "{len}-entry row");
            assert_eq!(read.len(), keep);
            assert_eq!(read.take(keep).collect::<Vec<_>>(), want[..keep]);
            // An uncut row ends where it ends, past the prefix or not.
            if len <= MAX_CANDIDATES {
                assert_eq!(rows.read(e(0), None, &tail_reads).count(), len);
            }
            assert_eq!(tail_reads.into_inner(), 0, "a cut row has no tail");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "read past the 128 stored candidates of a cut row")]
    fn reading_past_a_cut_panics() {
        let rows = stored(&repeating_row(MAX_CANDIDATES + 1), true);
        let tail_reads = AtomicUsize::new(0);
        let _ = rows.read(e(0), None, &tail_reads).count();
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
                let c: Vec<_> = idx.value_candidates(side, EntityId(e)).collect();
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
                for (_, v) in idx.neighbor_candidates(side, EntityId(e)) {
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
            for (e2, v) in idx.value_candidates(KbSide::First, EntityId(e1)) {
                let mut back = idx.value_candidates(KbSide::Second, e2);
                assert!(back.any(|(e, bv)| e == EntityId(e1) && (bv - v).abs() < 1e-12));
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
                        seq.value_candidates(side, e).collect::<Vec<_>>(),
                        par.value_candidates(side, e).collect::<Vec<_>>(),
                        "value candidates differ for {side:?} {e} at {threads} threads"
                    );
                    assert_eq!(
                        seq.neighbor_candidates(side, e).collect::<Vec<_>>(),
                        par.neighbor_candidates(side, e).collect::<Vec<_>>(),
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
    /// a scan of the blocks in order, rows of both sides scattered out
    /// and sorted.
    fn naive_value_rows(
        blocks: &BlockCollection,
        tokens: &TokenizedPair,
    ) -> [Vec<Vec<Candidate>>; 2] {
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
        let mut rows =
            [KbSide::First, KbSide::Second].map(|side| vec![Vec::new(); tokens.entity_count(side)]);
        for (&(e1, e2), &v) in &acc {
            rows[0][e1 as usize].push((EntityId(e2), v));
            rows[1][e2 as usize].push((EntityId(e1), v));
        }
        for row in rows.iter_mut().flatten() {
            row.sort_unstable_by(cand_cmp);
        }
        rows
    }

    /// `value_rows` of `side`, whole, read out row by row in the full
    /// candidate order.
    fn kernel_rows(
        blocks: &BlockCollection,
        tokens: &TokenizedPair,
        side: KbSide,
        exec: &Executor,
    ) -> Vec<Vec<Candidate>> {
        let weights = block_weights(blocks, tokens, exec);
        let rows = value_rows(blocks, &weights, tokens, side, false, exec);
        let tail_reads = AtomicUsize::new(0);
        (0..rows.len() as u32)
            .map(|i| rows.read(e(i), None, &tail_reads).collect())
            .collect()
    }

    /// `n1` × `n2` entities drawing 1–4 tokens each from a `vocab`-word
    /// vocabulary (`vocab ≥ 4`), so most pairs share several blocks of
    /// different weights and the addition order shows in the low bits.
    fn dense_pair(n1: usize, n2: usize, vocab: usize) -> (TokenizedPair, BlockCollection) {
        let words: Vec<String> = (0..vocab).map(|w| format!("w{w:02}")).collect();
        let text = |i: usize, salt: usize| {
            (0..1 + (i + salt) % 4)
                .map(|j| words[(i * 7 + j * 5 + salt) % vocab].as_str())
                .collect::<Vec<_>>()
                .join(" ")
        };
        let mut a = KbBuilder::new("E1");
        for i in 0..n1 {
            a.add_literal(&format!("a:{i}"), "v", &text(i, 0));
        }
        let mut b = KbBuilder::new("E2");
        for i in 0..n2 {
            b.add_literal(&format!("b:{i}"), "v", &text(i, 3));
        }
        let pair = KbPair::new(a.finish(), b.finish());
        tokenize_and_block(&pair)
    }

    #[test]
    fn kernel_rows_equal_the_naive_pair_keyed_accumulation() {
        let (_, small_tokens, small_blocks, _, _) = setup();
        for (tokens, blocks) in [dense_pair(40, 50, 13), (small_tokens, small_blocks)] {
            let want = naive_value_rows(&blocks, &tokens);
            assert!(want[0].iter().any(|row| !row.is_empty()));
            for exec in [Executor::sequential(), Executor::new(ExecutorKind::Pool, 3)] {
                // Exact, in both directions: same candidates, same
                // order, same f64 bits.
                for side in [KbSide::First, KbSide::Second] {
                    let got = kernel_rows(&blocks, &tokens, side, &exec);
                    assert_eq!(got, want[side.index()], "{side:?}");
                }
            }
        }
    }

    /// Hand-made top-neighbor lists over `n` entities: every `empty`-th
    /// list (from entity 0) is empty, entity `full`'s holds 32 entities
    /// (`max_top_neighbors`), the others `shortest` to `shortest + 3`,
    /// each list distinct ids in a scrambled order. `stride` must be
    /// coprime to `n`.
    fn hand_made_tops(
        n: usize,
        empty: usize,
        full: usize,
        stride: usize,
        shortest: usize,
    ) -> Vec<Vec<EntityId>> {
        (0..n)
            .map(|i| {
                let len = if i % empty == 0 {
                    0
                } else if i == full {
                    32
                } else {
                    shortest + i % 4
                };
                (0..len)
                    .map(|j| e(((i * 11 + j * stride) % n) as u32))
                    .collect()
            })
            .collect()
    }

    /// `neighborNSim` by its formula, restricted to value candidates:
    /// for each `e1` and each `e2` in `e1`'s value row (of the naive
    /// `values`), `Σ_{nb2 ∈ top(e2)} (Σ_{nb1 ∈ top(e1)} valueSim(nb1,
    /// nb2))` in list order, kept if positive. Both sides' rows, fully
    /// sorted.
    fn naive_neighbor_rows(
        values: &[Vec<Vec<Candidate>>; 2],
        top1: &[Vec<EntityId>],
        top2: &[Vec<EntityId>],
    ) -> [Vec<Vec<Candidate>>; 2] {
        let value_sim = |nb1: EntityId, nb2: EntityId| {
            values[0][nb1.index()]
                .iter()
                .find(|&&(c, _)| c == nb2)
                .map_or(0.0, |&(_, v)| v)
        };
        let mut want = [vec![Vec::new(); top1.len()], vec![Vec::new(); top2.len()]];
        for (i, cands) in values[0].iter().enumerate() {
            for &(e2, _) in cands {
                let mut s = 0.0;
                for &nb2 in &top2[e2.index()] {
                    let mut inner = 0.0;
                    for &nb1 in &top1[i] {
                        inner += value_sim(nb1, nb2);
                    }
                    s += inner;
                }
                if s > 0.0 {
                    want[0][i].push((e2, s));
                    want[1][e2.index()].push((e(i as u32), s));
                }
            }
        }
        for row in want.iter_mut().flatten() {
            row.sort_unstable_by(cand_cmp);
        }
        want
    }

    #[test]
    fn neighbor_rows_equal_the_naive_formula() {
        let (n1, n2) = (40, 50);
        let (tokens, blocks) = dense_pair(n1, n2, 13);
        let values = naive_value_rows(&blocks, &tokens);
        let top1 = hand_made_tops(n1, 5, 1, 7, 1);
        let top2 = hand_made_tops(n2, 4, 2, 9, 1);
        let want = naive_neighbor_rows(&values, &top1, &top2);
        // The cases the lists must reach: an entity with value
        // candidates but no top neighbors, the 32-entry list, and a
        // value candidate whose own list is empty.
        assert!(top1[0].is_empty() && !values[0][0].is_empty());
        assert!(top1[1].len() == 32 && !want[0][1].is_empty());
        assert!(values[0]
            .iter()
            .flatten()
            .any(|&(c, _)| top2[c.index()].is_empty()));
        assert!(want[1].iter().any(|row| !row.is_empty()));
        for exec in [Executor::sequential(), Executor::new(ExecutorKind::Pool, 3)] {
            let idx = SimilarityIndex::build_with(&blocks, &tokens, [&top1, &top2], &exec);
            // Exact, in both directions: same candidates, same order,
            // same f64 bits.
            for side in [KbSide::First, KbSide::Second] {
                for (i, row) in want[side.index()].iter().enumerate() {
                    let got: Vec<_> = idx.neighbor_candidates(side, e(i as u32)).collect();
                    assert_eq!(&got, row, "{side:?} row {i}");
                }
            }
        }
    }

    /// A row as comparable bits: `(id, similarity bit pattern)`.
    fn bits(row: impl IntoIterator<Item = Candidate>) -> Vec<(u32, u64)> {
        row.into_iter().map(|(c, v)| (c.0, v.to_bits())).collect()
    }

    /// A pair whose value and neighbor rows run past [`MAX_CANDIDATES`]
    /// on both sides, with hand-made top-neighbor lists.
    struct LongRowsPair {
        /// The naive value rows, then neighbor rows, of each side.
        want: [[Vec<Vec<Candidate>>; 2]; 2],
        /// The top-neighbor lists of each side.
        tops: [Vec<Vec<EntityId>>; 2],
        tokens: TokenizedPair,
        blocks: BlockCollection,
    }

    /// [`LongRowsPair`] over `n1` × `n2` entities.
    fn long_rows_pair(n1: usize, n2: usize) -> LongRowsPair {
        let (tokens, blocks) = dense_pair(n1, n2, 4);
        // Strides coprime to 140 and 150. Lists of 5–8 make even the
        // smallest neighbor sums, the tails, long enough for their
        // addition order to show in the low bits.
        let stride = |n: usize| if n.is_multiple_of(3) { 7 } else { 9 };
        let tops = [
            hand_made_tops(n1, 50, 1, stride(n1), 5),
            hand_made_tops(n2, 40, 2, stride(n2), 5),
        ];
        let values = naive_value_rows(&blocks, &tokens);
        let neighbors = naive_neighbor_rows(&values, &tops[0], &tops[1]);
        LongRowsPair {
            want: [values, neighbors],
            tops,
            tokens,
            blocks,
        }
    }

    /// The recompute path, forced: every probe row longer than
    /// [`MAX_CANDIDATES`] is stored cut, and read whole through its
    /// reader it must equal the naive row bit for bit — value and
    /// neighbor rows, with the probe on either side, so both neighbor
    /// recomputes run — each recompute counted once in `tail_reads`.
    /// Lookups past the stored prefix read through the same path.
    #[test]
    fn cut_probe_rows_read_back_whole_through_the_recompute() {
        for (n1, n2) in [(140, 150), (150, 140)] {
            let LongRowsPair {
                want,
                tops,
                tokens,
                blocks,
            } = long_rows_pair(n1, n2);
            let probe = KbSide::smaller([n1, n2]);
            for exec in [Executor::sequential(), Executor::new(ExecutorKind::Pool, 3)] {
                let idx =
                    SimilarityIndex::build_with(&blocks, &tokens, [&tops[0], &tops[1]], &exec);
                let mut long = [0; 2];
                for (kind, rows) in [RowKind::Value, RowKind::Neighbor].into_iter().zip(&want) {
                    for (i, full) in rows[probe.index()].iter().enumerate() {
                        let label = format!("{n1}x{n2}: {kind:?} row {i} of {probe:?}");
                        assert!(idx.rows(kind)[probe.index()].row(i).len() <= MAX_CANDIDATES);
                        let row = idx.read(kind, probe, e(i as u32));
                        assert!(!row.is_cut(), "{label}");
                        assert_eq!(row.len(), full.len(), "{label}");
                        assert_eq!(bits(row), bits(full.iter().copied()), "{label}");
                        if full.len() > MAX_CANDIDATES {
                            long[kind as usize] += 1;
                            // The recomputed row, prefix included — what
                            // the reader checks in debug builds only.
                            let rebuild = idx.rebuild.as_ref().expect("a probe row was cut");
                            let mut rebuilt = rebuild.row(kind, probe, e(i as u32));
                            rebuilt.sort_unstable_by_key(cand_key);
                            assert_eq!(bits(rebuilt), bits(full.iter().copied()), "{label}");
                        }
                    }
                }
                assert!(long.iter().all(|&n| n > 0), "{n1}x{n2}: {long:?} long rows");
                assert_eq!(idx.tail_reads(), long[0] + long[1], "{n1}x{n2}");
                // The last entry of every long probe row, looked up.
                let mut lookups = 0;
                for (kind, rows) in [RowKind::Value, RowKind::Neighbor].into_iter().zip(&want) {
                    for (i, full) in rows[probe.index()].iter().enumerate() {
                        let Some(&(c, v)) = full.get(MAX_CANDIDATES..).and_then(<[_]>::last) else {
                            continue;
                        };
                        let (e1, e2) = match probe {
                            KbSide::First => (e(i as u32), c),
                            KbSide::Second => (c, e(i as u32)),
                        };
                        let got = match kind {
                            RowKind::Value => idx.value_sim(e1, e2),
                            RowKind::Neighbor => idx.neighbor_sim(e1, e2),
                        };
                        assert_eq!(got.to_bits(), v.to_bits(), "{kind:?} sim of ({e1}, {e2})");
                        lookups += 1;
                    }
                }
                assert_eq!(idx.tail_reads(), 2 * (long[0] + long[1]));
                assert_eq!(lookups, long[0] + long[1]);
            }
        }
    }

    /// The `simindex.candidate_bytes` events of a sequential build over
    /// [`long_rows_pair`] (140 × 150, the first side probes), pinned:
    /// per pass, the bytes alive when its rows are complete and after
    /// the cuts that follow it.
    #[test]
    fn candidate_bytes_are_reported_per_pass() {
        use minoan_obs::trace;
        let LongRowsPair {
            want,
            tops,
            tokens,
            blocks,
        } = long_rows_pair(140, 150);
        let id = trace::new_trace_id();
        {
            let _scope = trace::trace_scope(id, -1);
            build(&blocks, &tokens, [&tops[0], &tops[1]]);
        }
        let events: Vec<String> = trace::collector()
            .records_for_traces(&[id])
            .into_iter()
            .filter(|r| r.name == "simindex.candidate_bytes")
            .map(|r| r.detail)
            .collect();
        assert_eq!(
            events,
            [
                "simindex.value_rows: 190128 B alive, 190128 B kept",
                "simindex.neighbor_rows: 370080 B alive, 351600 B kept",
                "simindex.value_reverse: 531008 B alive, 531008 B kept",
                "simindex.neighbor_reverse: 711040 B alive, 688468 B kept",
            ]
        );
        // The same from the naive rows' lengths: each row set is one
        // part, 12 B per stored candidate plus 8 B per offset.
        let bytes = |rows: &[Vec<Candidate>], cut: bool| {
            let stored: usize = rows
                .iter()
                .map(|row| {
                    if cut {
                        row.len().min(MAX_CANDIDATES)
                    } else {
                        row.len()
                    }
                })
                .sum();
            12 * stored + 8 * (rows.len() + 1)
        };
        let [values, neighbors] = &want;
        let [v1, v1_cut] = [false, true].map(|cut| bytes(&values[0], cut));
        let [n1, n1_cut] = [false, true].map(|cut| bytes(&neighbors[0], cut));
        let [n2, n2_cut] = [false, true].map(|cut| bytes(&neighbors[1], cut));
        let v2_cut = bytes(&values[1], true);
        let derived = [
            (v1, v1),
            (v1 + n1, v1_cut + n1),
            (v1_cut + n1 + v2_cut, v1_cut + n1 + v2_cut),
            (v1_cut + n1 + v2_cut + n2, v1_cut + n1_cut + v2_cut + n2_cut),
        ];
        for (event, (alive, kept)) in events.iter().zip(derived) {
            assert!(
                event.ends_with(&format!(": {alive} B alive, {kept} B kept")),
                "{event}"
            );
        }
    }

    /// On a pair whose rows run past [`MAX_CANDIDATES`] on both sides,
    /// in both orientations: the probe side's rows read back whole and
    /// exact, a long one through the recompute path, every row of the
    /// other side is the exact top of the full row and says whether it
    /// was cut, and lookups and counts are exact.
    #[test]
    fn non_probe_rows_are_cut_to_the_top_of_the_full_rows() {
        for (n1, n2) in [(140, 150), (150, 140), (150, 150)] {
            let (tokens, blocks) = dense_pair(n1, n2, 4);
            let want = naive_value_rows(&blocks, &tokens);
            let probe = if n1 <= n2 {
                KbSide::First
            } else {
                KbSide::Second
            };
            let no_neighbors: Vec<Vec<EntityId>> = vec![Vec::new(); 150];
            let idx = build(&blocks, &tokens, [&no_neighbors[..n1], &no_neighbors[..n2]]);
            let mut recomputed = 0;
            for side in [KbSide::First, KbSide::Second] {
                let mut cut = 0;
                for (i, full) in want[side.index()].iter().enumerate() {
                    let row = idx.value_candidates(side, e(i as u32));
                    let label = format!("{n1}x{n2}: {side:?} row {i}");
                    if side == probe {
                        assert!(!row.is_cut(), "{label}");
                        assert_eq!(row.len(), full.len(), "{label}");
                        assert_eq!(&row.collect::<Vec<_>>(), full, "{label}");
                        recomputed += usize::from(full.len() > MAX_CANDIDATES);
                    } else {
                        let keep = full.len().min(MAX_CANDIDATES);
                        assert_eq!(row.is_cut(), full.len() > MAX_CANDIDATES, "{label}");
                        cut += usize::from(row.is_cut());
                        assert_eq!(row.len(), keep, "{label}");
                        assert_eq!(row.take(keep).collect::<Vec<_>>(), full[..keep], "{label}");
                    }
                }
                assert_eq!(cut > 0, side != probe, "{n1}x{n2}: {side:?} cut {cut} rows");
            }
            // Every long probe row is stored cut and was recomputed once.
            assert!(recomputed > 0, "{n1}x{n2}: no long probe row");
            assert_eq!(idx.tail_reads(), recomputed, "{n1}x{n2}");
            let pairs: usize = want[0].iter().map(Vec::len).sum();
            assert_eq!(idx.pair_count(), pairs);
            for (i, full) in want[0].iter().enumerate() {
                for &(c, v) in full {
                    assert_eq!(idx.value_sim(e(i as u32), c).to_bits(), v.to_bits());
                }
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
        let rows = kernel_rows(&blocks, &tokens, KbSide::First, &Executor::sequential());
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
        let mut row = Vec::new();
        scratch.value_row([(0.5, &a[..]), (0.25, &b[..])], &mut row);
        assert_eq!(row, vec![(e(1), 0.75), (e(0), 0.5), (e(2), 0.25)]);
        assert_reset(&scratch);
        // Overlapping candidates: nothing of the previous row's 0.75 or
        // 0.25 may leak into the sums.
        scratch.value_row([(1.0, &b[..])], &mut row);
        assert_eq!(row, vec![(e(1), 1.0), (e(2), 1.0)]);
        assert_reset(&scratch);
        // Disjoint candidates, then no blocks at all.
        scratch.value_row([(0.125, &c[..])], &mut row);
        assert_eq!(row, vec![(e(3), 0.125)]);
        assert_reset(&scratch);
        scratch.value_row([], &mut row);
        assert!(row.is_empty());
        assert_reset(&scratch);
        // Every one of the n_other slots, several times: from the fifth
        // add on, each add writes the spare last slot of `touched`.
        let all = [e(0), e(1), e(2), e(3)];
        scratch.value_row(
            [(0.5, &all[..]), (0.25, &all[..]), (0.125, &a[..])],
            &mut row,
        );
        assert_eq!(
            row,
            vec![(e(0), 0.875), (e(1), 0.875), (e(2), 0.75), (e(3), 0.75)]
        );
        assert_eq!(scratch.touched[4], 1, "the last add wrote the spare slot");
        assert_reset(&scratch);
        // Then a row disjoint from the id left in the spare slot: it
        // must not come back.
        scratch.value_row([(0.25, &c[..]), (0.5, &[e(0), e(2)][..])], &mut row);
        assert_eq!(row, vec![(e(0), 0.5), (e(2), 0.5), (e(3), 0.25)]);
        assert_reset(&scratch);
    }

    /// No touched slot and every sum back at 0.0.
    fn assert_reset(scratch: &RowScratch) {
        assert_eq!(scratch.len, 0);
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
