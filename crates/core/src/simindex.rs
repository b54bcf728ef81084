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
//! - the `neighborNSim` rows of the first side are computed in the same
//!   pass over `e1` as its value rows, embarrassingly parallel, on the
//!   same dense scratch. Its probe reads a **flat copy** of the second
//!   side's top-neighbor lists (one CSR of `u32` ids, built once per
//!   index, each list padded to a multiple of four with the id of a slot
//!   that stays `0.0`) and appends every candidate to a row presized to
//!   the candidate count, advancing past it only if its score is
//!   positive — no data-dependent branch, the same sums in the same
//!   order. Its reverse direction is scattered into **bounded columns**
//!   as the rows are computed (`Columns`): a column never holds more
//!   than `2 · MAX_CANDIDATES` candidates, and is ranked like any other
//!   row once the pass is done.
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
//! A stored row keeps only that prefix. Rows are read only through
//! [`Ranked`], which yields the prefix and, should a reader run off a
//! probe row's prefix, sorts the recomputed tail and goes on (see
//! below). That is exact: the key is a total order (ids are unique
//! within a row), so the best 128 of a row are one set in one order
//! whatever the input order, and the reader's sequence is the fully
//! sorted row bit for bit, however far it reads.
//!
//! # Which rows are whole
//!
//! None, at any point of the build: every row of both sides is stored
//! **cut** to its best [`MAX_CANDIDATES`] as it is ranked, and no pass
//! holds the whole rows of a whole KB. Each whole row lives only in one
//! executor task's scratch while that task computes it. Three passes:
//!
//! 1. the first side's rows (`simindex.first_rows`): per `e1`, its value
//!    row, and its `neighborNSim` row over that value row's candidates,
//!    which recomputes the value row of every top neighbor `nb1` through
//!    the same kernel, in block order, instead of reading it from a
//!    stored whole row. Each whole neighbor row is scattered into the
//!    second side's bounded columns before both rows are stored cut;
//! 2. the columns, each ranked and stored cut
//!    (`simindex.neighbor_reverse`);
//! 3. the second side's value rows (`simindex.value_reverse`), each cut
//!    as the kernel ranks it.
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
//!   entity's blocks; a first-side neighbor row is the first pass's own
//!   row (`FirstScratch::rows`); a
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
//! complete — 12 per stored candidate plus 8 per row offset, and 12 per
//! candidate a column holds.

use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use minoan_blocking::BlockCollection;
use minoan_exec::Executor;
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
/// prefix of a cut probe row — the sorted rest of the row, recomputed
/// (see the module docs). The sequence is the fully sorted row, bit for
/// bit, however far it is read, as far as [`Ranked::len`]: the full
/// row's length, except for a row [`Ranked::is_cut`], which ends at its
/// stored prefix.
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
    /// The row is stored whole, so it has none.
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

    /// The candidates after the stored prefix of a cut probe row, from
    /// the row recomputed, sorted, counted in `tail_reads`.
    #[cold]
    fn fill_tail(&mut self) {
        let Past::Recompute(rebuild, kind, side, e) = self.past else {
            unreachable!("only a cut probe row reads past its stored prefix")
        };
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
        self.tail = full.split_off(MAX_CANDIDATES);
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

    /// Adds `weight` into every entity of `others` for each `(weight,
    /// others)` block, in the order given.
    #[inline]
    fn accumulate<'a>(&mut self, blocks: impl IntoIterator<Item = (f64, &'a [EntityId])>) {
        for (weight, others) in blocks {
            for &e2 in others {
                self.add(e2, weight);
            }
        }
    }

    /// Hands every touched slot's id and sum to `f`, in first-touch
    /// order, and leaves the scratch reset.
    #[inline]
    fn drain(&mut self, mut f: impl FnMut(EntityId, f64)) {
        let sums = &mut self.sums;
        for &e2 in &self.touched[..self.len] {
            f(EntityId(e2), std::mem::take(&mut sums[e2 as usize]));
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
        self.accumulate(blocks);
        row.clear();
        row.reserve(self.len);
        self.drain(|e2, v| row.push((e2, v)));
        rank(row);
    }
}

/// The working memory of the first side's rows: the value kernel's
/// scratch, on which each row computes its entity's value row and
/// recomputes every value row it reads, and the `neighborNSim`
/// accumulator, both over the second side's entities plus the padding
/// slot. One per executor task, reset per row like a [`RowScratch`].
struct FirstScratch {
    value: RowScratch,
    acc: RowScratch,
}

impl FirstScratch {
    /// A zeroed scratch for rows over `n_second` entities.
    fn new(n_second: usize) -> Self {
        Self {
            value: RowScratch::new(n_second),
            acc: RowScratch::new(n_second),
        }
    }

    /// **The** rows of first-side entity `e1`, whose top neighbors are
    /// `top`, over `blocks` and their `weights`, with the second side's
    /// lists as [`probe_lists`] pads them (`top_seconds`): its value row
    /// in `values` and its `neighborNSim` row in `neighbors`, both
    /// [`rank`]ed, and both scratches reset.
    ///
    /// The value row is the kernel's ([`RowScratch::value_row`]); its
    /// candidates are the neighbor row's. The neighbor row recomputes
    /// the value row of each `nb1` of `top`, in list order, through the
    /// same kernel — every `valueSim(nb1, nb2)` summed in block order —
    /// and adds each into the accumulator, so each slot's sum runs in
    /// list order. It then scores each candidate over its own list and
    /// keeps the positive ones. Neither sum depends on the order of a
    /// row's candidates: a value row holds each `nb2` once.
    fn rows(
        &mut self,
        blocks: &BlockCollection,
        weights: &[f64],
        e1: usize,
        top: &[EntityId],
        top_seconds: &Csr<u32>,
        [values, neighbors]: &mut [Vec<Candidate>; 2],
    ) {
        let Self { value, acc } = self;
        value.value_row(entity_blocks(blocks, weights, KbSide::First, e1), values);
        neighbors.clear();
        if !values.is_empty() {
            for nb1 in top {
                value.accumulate(entity_blocks(blocks, weights, KbSide::First, nb1.index()));
                value.drain(|nb2, v| acc.add(nb2, v));
            }
            if acc.len > 0 {
                // Every candidate is written; only a positive score
                // advances past it, so a zero is overwritten or cut.
                neighbors.resize(values.len(), (EntityId(0), 0.0));
                let mut n = 0;
                for &(e2, _) in values.iter() {
                    let s = acc.sum_of(top_seconds.row(e2.index()));
                    neighbors[n] = (e2, s);
                    n += usize::from(s > 0.0);
                }
                neighbors.truncate(n);
                acc.reset();
            }
        }
        rank(neighbors);
    }
}

/// One side's candidate rows of one similarity, as the index stores
/// them: ranked and cut to their best [`MAX_CANDIDATES`], each with the
/// full length it had (see the module docs). The rows stay in the flat
/// buffers the executor parts built them in; the parts are joined in
/// part order by their first rows, not copied into one buffer.
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

/// The rows one executor part stores, of consecutive entities from
/// `start` on: their flat buffers, and the rows it cut with their full
/// lengths.
struct Part {
    start: usize,
    csr: CandidateCsr,
    cut: Vec<(u32, u32)>,
}

impl Part {
    fn new(start: usize) -> Self {
        Self {
            start,
            csr: CandidateCsr::default(),
            cut: Vec::new(),
        }
    }

    /// Stores the next entity's row cut to its best [`MAX_CANDIDATES`]:
    /// `row` holds at least that prefix of the row, [`rank`]ed, and
    /// `full` is the row's full length.
    fn push(&mut self, row: &mut Vec<Candidate>, full: usize) {
        debug_assert!(row.len() >= full.min(MAX_CANDIDATES) && row.len() <= full);
        if full > MAX_CANDIDATES {
            let e = self.start + self.csr.rows();
            self.cut.push((e as u32, full as u32));
            row.truncate(MAX_CANDIDATES);
        }
        self.csr.push_row(row);
    }
}

impl Rows {
    /// `K` rows of every entity in `0..n`, each cut to its best
    /// [`MAX_CANDIDATES`] as it is stored: `row_of(scratch, e, rows)`
    /// leaves at least that prefix of each of entity `e`'s rows
    /// [`rank`]ed in `rows` and returns their full lengths. Each executor
    /// part makes one `scratch()` and appends its rows to its own flat
    /// buffers.
    fn build<const K: usize, S, F>(
        n: usize,
        exec: &Executor,
        scratch: impl Fn() -> S + Sync,
        row_of: F,
    ) -> [Self; K]
    where
        F: Fn(&mut S, usize, &mut [Vec<Candidate>; K]) -> [usize; K] + Sync,
    {
        let parts = exec.map_parts(n, |range| {
            let mut scratch = scratch();
            let mut rows = std::array::from_fn(|_| Vec::new());
            let mut parts: [Part; K] = std::array::from_fn(|_| Part::new(range.start));
            for e in range {
                let full = row_of(&mut scratch, e, &mut rows);
                for ((part, row), full) in parts.iter_mut().zip(&mut rows).zip(full) {
                    part.push(row, full);
                }
            }
            for part in &mut parts {
                part.csr.shrink_to_fit();
            }
            parts
        });
        let mut sets: [Vec<Part>; K] = std::array::from_fn(|_| Vec::with_capacity(parts.len()));
        for part in parts {
            for (set, part) in sets.iter_mut().zip(part) {
                set.push(part);
            }
        }
        sets.map(Self::from_parts)
    }

    /// The rows of `parts`, which hold consecutive entity ranges in
    /// order.
    fn from_parts(parts: Vec<Part>) -> Self {
        let mut rows = Rows::default();
        for part in parts {
            rows.starts.push(part.start);
            rows.parts.push(part.csr);
            rows.cut.extend(part.cut);
        }
        rows
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
/// [`rank`]ed as the kernel computes it and cut at once. An entity in no
/// block — or one `blocks` does not index at all — gets an empty row.
fn value_rows(
    blocks: &BlockCollection,
    weights: &[f64],
    tokens: &TokenizedPair,
    side: KbSide,
    exec: &Executor,
) -> Rows {
    let n = tokens.entity_count(side);
    let n_other = blocks.entity_count(side.other());
    let [rows] = Rows::build(
        n,
        exec,
        || RowScratch::new(n_other),
        |scratch, e, [row]| {
            scratch.value_row(entity_blocks(blocks, weights, side, e), row);
            [row.len()]
        },
    );
    rows
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

/// The value and `neighborNSim` candidate rows of every first-side
/// entity in `0..n_first`, in entity order, each [`rank`]ed as it is
/// computed ([`FirstScratch::rows`], on one scratch per executor task)
/// and cut at once; each whole neighbor row is scattered into `columns`,
/// the second side's neighbor rows, first.
///
/// A neighbor row is scored over its entity's **value candidates
/// only**: a pair whose entities share no purged token block gets no
/// neighbor score, however similar their top neighbors are. This
/// restriction is deliberate. The formula below has no such condition,
/// and the unrestricted rows would be larger on the synthetic profiles
/// at ×1 — Restaurant 11×, Rexa 4.3×, BBC 1.8×, YAGO 9.1× — yet every
/// ground-truth pair there shares a purged block. Replaying H1–H4 over
/// unrestricted rows lowers BBC's F1 at every scale (82.6 → 77.2 at ×1)
/// and moves Rexa and YAGO by at most half a point at ×1 and ×2
/// (ROADMAP F5).
fn first_rows(
    blocks: &BlockCollection,
    weights: &[f64],
    n_first: usize,
    top_firsts: &[Vec<EntityId>],
    top_seconds: &Csr<u32>,
    columns: &Columns,
    exec: &Executor,
) -> [Rows; 2] {
    // neighborNSim(e1, e2) = Σ_{n1 ∈ top(e1), n2 ∈ top(e2)} valueSim(n1, n2),
    // evaluated only for the e2 in e1's value row (see above).
    // For each e1: acc[n2] = Σ_{n1 ∈ top(e1)} valueSim(n1, n2), then
    // sum acc over e2's top neighbors for each candidate e2. A function
    // of e1 alone — embarrassingly parallel over e1.
    Rows::build(
        n_first,
        exec,
        || (FirstScratch::new(columns.n), Scatter::new(columns)),
        |(scratch, scatter), e1, rows| {
            scratch.rows(blocks, weights, e1, &top_firsts[e1], top_seconds, rows);
            for &(e2, s) in &rows[1] {
                scatter.push(e2, (EntityId(e1 as u32), s));
            }
            [rows[0].len(), rows[1].len()]
        },
    )
}

/// How many column ranges [`Columns`] splits the second side into, one
/// lock each.
const COLUMN_RANGES: usize = 64;

/// How many candidates a [`Scatter`] holds for one column range before
/// it hands them over.
const STAGED_PER_RANGE: usize = 1024;

/// The second side's `neighborNSim` rows — the columns of the first
/// side's — while the first side's pass scatters its whole neighbor rows
/// into them from every executor task at once. The columns are split
/// into at most [`COLUMN_RANGES`] ranges of consecutive entities, each
/// behind its own lock, and each task hands its candidates over a range
/// at a time ([`Scatter`]).
///
/// A column holds at most `2 · MAX_CANDIDATES` candidates ([`Column`]),
/// so the full transpose never exists, and neither its order nor its
/// part boundaries show in what it keeps.
struct Columns {
    ranges: Vec<Mutex<Vec<Column>>>,
    /// Range `r` holds the columns from `r << shift` on, `1 << shift` of
    /// them (the last may hold fewer).
    shift: u32,
    n: usize,
}

/// A candidate as a column holds it: the first-side entity's id, then
/// its similarity's bit pattern in two halves, low first — 12 bytes,
/// where a [`Candidate`] takes 16.
type Slot = [u32; 3];

/// `(e1, s)` as a [`Slot`].
#[inline]
fn slot((e1, s): Candidate) -> Slot {
    let bits = s.to_bits();
    [e1.0, bits as u32, (bits >> 32) as u32]
}

/// The [`Candidate`] of a [`Slot`].
#[inline]
fn unslot(&[e1, lo, hi]: &Slot) -> Candidate {
    let bits = u64::from(hi) << 32 | u64::from(lo);
    (EntityId(e1), f64::from_bits(bits))
}

/// [`cand_key`] of a slot.
#[inline]
fn slot_key(slot: &Slot) -> (Reverse<u64>, u32) {
    cand_key(&unslot(slot))
}

/// One column of [`Columns`]. When it holds `2 · MAX_CANDIDATES`
/// candidates it is compacted to its best [`MAX_CANDIDATES`], and from
/// then on a candidate that ranks below the worst of those is not kept.
/// A candidate is dropped only when at least [`MAX_CANDIDATES`] others
/// of the column outrank it, so the column's best [`MAX_CANDIDATES`]
/// are never dropped. The candidate order is total (a column holds each
/// `e1` once), so they are one set in one order whatever order the
/// candidates arrive in — whichever task, part or thread count
/// scattered them. The column counts every candidate it is given, so
/// its full length is exact.
#[derive(Debug, Default, Clone)]
struct Column {
    /// A superset of the column's best [`MAX_CANDIDATES`] so far.
    best: Vec<Slot>,
    /// How many candidates the column has been given.
    len: u32,
    /// The key of the worst of the best [`MAX_CANDIDATES`] kept by the
    /// last compaction.
    floor: Option<(Reverse<u64>, u32)>,
}

impl Column {
    /// Adds `c`.
    #[inline]
    fn push(&mut self, c: Candidate) {
        self.len += 1;
        if self.floor.is_some_and(|floor| cand_key(&c) > floor) {
            return;
        }
        self.best.push(slot(c));
        if self.best.len() == 2 * MAX_CANDIDATES {
            let (_, worst, _) = self
                .best
                .select_nth_unstable_by_key(MAX_CANDIDATES - 1, slot_key);
            self.floor = Some(slot_key(worst));
            self.best.truncate(MAX_CANDIDATES);
        }
    }
}

impl Columns {
    /// `n` empty columns.
    fn new(n: usize) -> Self {
        let width = n.div_ceil(COLUMN_RANGES).next_power_of_two();
        let ranges = (0..n)
            .step_by(width)
            .map(|start| Mutex::new(vec![Column::default(); width.min(n - start)]))
            .collect();
        Self {
            ranges,
            shift: width.trailing_zeros(),
            n,
        }
    }

    /// The range of column `e`, and `e`'s place in it.
    #[inline]
    fn place(&self, e: usize) -> (usize, usize) {
        (e >> self.shift, e & ((1 << self.shift) - 1))
    }

    /// Range `r`, locked. A lock poisoned by a task that panicked is
    /// taken back: that panic ends the build anyway, and this also runs
    /// in [`Scatter`]'s drop, which must not panic while one unwinds.
    fn lock(&self, r: usize) -> MutexGuard<'_, Vec<Column>> {
        self.ranges[r]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Bytes of the candidates the columns hold.
    fn bytes(&self) -> usize {
        let held: usize = (0..self.ranges.len())
            .map(|r| self.lock(r).iter().map(|c| c.best.len()).sum::<usize>())
            .sum();
        held * size_of::<Slot>()
    }

    /// The columns as rows, each [`rank`]ed and cut, one executor task
    /// per range, every column freed as soon as its row is stored.
    fn into_rows(self, exec: &Executor) -> Rows {
        Rows::from_parts(exec.map_range(self.ranges.len(), |r| {
            let columns = std::mem::take(&mut *self.lock(r));
            let mut part = Part::new(r << self.shift);
            let kept = columns.iter().map(|c| c.best.len().min(MAX_CANDIDATES));
            part.csr.reserve(columns.len(), kept.sum());
            let mut row = Vec::new();
            for column in columns {
                row.clear();
                row.extend(column.best.iter().map(unslot));
                drop(column.best);
                rank(&mut row);
                part.push(&mut row, column.len as usize);
            }
            part
        }))
    }
}

/// One executor task's candidates on their way into [`Columns`], held
/// per column range and handed over [`STAGED_PER_RANGE`] at a time under
/// that range's lock, so a task takes a lock per that many candidates,
/// not per candidate, and works on one range's columns at a time. What
/// it still holds is handed over when it is dropped, at the end of its
/// task.
struct Scatter<'a> {
    columns: &'a Columns,
    /// Per range: `e2` and the slot of `(e1, s)`.
    staged: Vec<Vec<(u32, Slot)>>,
}

impl<'a> Scatter<'a> {
    fn new(columns: &'a Columns) -> Self {
        Self {
            columns,
            staged: vec![Vec::new(); columns.ranges.len()],
        }
    }

    /// Adds `c` to the column of `e2`.
    #[inline]
    fn push(&mut self, e2: EntityId, c: Candidate) {
        let (r, _) = self.columns.place(e2.index());
        self.staged[r].push((e2.0, slot(c)));
        if self.staged[r].len() == STAGED_PER_RANGE {
            self.hand_over(r);
        }
    }

    /// Hands range `r`'s candidates over to its columns.
    fn hand_over(&mut self, r: usize) {
        let mut columns = self.columns.lock(r);
        for (e2, c) in self.staged[r].drain(..) {
            columns[self.columns.place(e2 as usize).1].push(unslot(&c));
        }
    }
}

impl Drop for Scatter<'_> {
    fn drop(&mut self) {
        for r in 0..self.staged.len() {
            self.hand_over(r);
        }
    }
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

    /// The neighbor row of `e1`, as the build computes it
    /// ([`FirstScratch::rows`]).
    fn first_neighbor_row(&self, e1: EntityId) -> Vec<Candidate> {
        let mut rows = [Vec::new(), Vec::new()];
        FirstScratch::new(self.n[1]).rows(
            &self.blocks,
            &self.weights,
            e1.index(),
            self.top_firsts.row(e1.index()),
            &self.top_seconds,
            &mut rows,
        );
        let [_, neighbors] = rows;
        neighbors
    }

    /// The second side's row of `e2`, a column of the first side's: for
    /// each `e1` of `e2`'s value row, the sum over `e2`'s padded list of
    /// `Σ_{nb1 ∈ top(e1)} valueSim(nb1, nb2)`, both in list order — the
    /// forward pass's sum for the pair, with `+0.0` where a pair never
    /// co-occurs — kept if positive.
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
/// candidate bytes alive when its rows are complete.
fn report_candidate_bytes(pass: &str, alive: usize) {
    minoan_obs::debug!("simindex.candidate_bytes", "{pass}: {alive} B alive");
}

impl SimilarityIndex {
    /// Builds the index from the (purged) token blocks on `exec`.
    ///
    /// `top_neighbors` holds `topNneighbors(e)` per entity for each side
    /// (see [`crate::importance::top_neighbors_with`]).
    ///
    /// Three passes, each under its own debug span and in this order:
    /// the first side's rows (`simindex.first_rows`, which first
    /// flattens and pads the second side's top-neighbor lists for the
    /// probe) — per first-side entity, its `valueSim` row through the
    /// shared row kernel and its `neighborNSim` row, which recomputes the
    /// value rows of its top neighbors through the same kernel and is
    /// scattered into the second side's bounded columns; the columns
    /// ranked into the second side's neighbor rows
    /// (`simindex.neighbor_reverse`); and one `valueSim` row per
    /// second-side entity through the kernel (`simindex.value_reverse`).
    /// Every row is stored cut as it is ranked, so no pass holds the
    /// whole rows of a whole KB, and each pass reports its
    /// `simindex.candidate_bytes` (see the module docs). A row is a
    /// function of its own entity's blocks and top neighbors alone, and
    /// a column of the set of rows scattered into it, so the result is
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
        let columns = Columns::new(n[1]);
        let ([value_firsts, neighbor_firsts], top_seconds) = {
            let _span = stage_span("simindex.first_rows");
            let top_seconds = probe_lists(top_neighbors[1], n[1]);
            let rows = first_rows(
                blocks,
                &weights,
                n[0],
                top_neighbors[0],
                &top_seconds,
                &columns,
                exec,
            );
            (rows, top_seconds)
        };
        let alive = candidate_bytes([&value_firsts, &neighbor_firsts]) + columns.bytes();
        report_candidate_bytes("simindex.first_rows", alive);
        let neighbor_seconds = {
            let _span = stage_span("simindex.neighbor_reverse");
            columns.into_rows(exec)
        };
        let alive = candidate_bytes([&value_firsts, &neighbor_firsts, &neighbor_seconds]);
        report_candidate_bytes("simindex.neighbor_reverse", alive);
        let value_seconds = {
            let _span = stage_span("simindex.value_reverse");
            value_rows(blocks, &weights, tokens, KbSide::Second, exec)
        };
        let value_cands = [value_firsts, value_seconds];
        let neighbor_cands = [neighbor_firsts, neighbor_seconds];
        let alive = candidate_bytes(value_cands.iter().chain(&neighbor_cands));
        report_candidate_bytes("simindex.value_reverse", alive);
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
    /// `first_rows`). Read like [`SimilarityIndex::value_sim`].
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
    /// best [`MAX_CANDIDATES`].
    fn stored(row: &[Candidate]) -> Rows {
        let [rows] = Rows::build(
            1,
            &Executor::sequential(),
            || (),
            |_, _, [out]| {
                out.clear();
                out.extend_from_slice(row);
                rank(out);
                [out.len()]
            },
        );
        rows
    }

    /// A row no longer than [`MAX_CANDIDATES`] is stored whole and reads
    /// whole, or abandoned anywhere; a longer one is stored as its ranked
    /// prefix, records its full length and reads as that prefix. Neither
    /// sorts a tail.
    #[test]
    fn a_cut_row_is_the_ranked_prefix_of_the_full_one() {
        for len in LENS {
            let row = repeating_row(len);
            let want = reference(&row);
            let keep = len.min(MAX_CANDIDATES);
            let rows = stored(&row);
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
            for stop in [0, 1, MAX_CANDIDATES - 1, MAX_CANDIDATES] {
                let got: Vec<_> = rows.read(e(0), None, &tail_reads).take(stop).collect();
                assert_eq!(got, want[..stop.min(keep)], "{len}-entry row cut at {stop}");
            }
            // An uncut row ends where it ends, past the prefix or not.
            if len <= MAX_CANDIDATES {
                assert_eq!(rows.read(e(0), None, &tail_reads).count(), len);
            }
            assert_eq!(tail_reads.into_inner(), 0, "a stored row has no tail");
        }
    }

    /// A column given `len` candidates in any order — as built,
    /// reversed, best first, worst first, strided — never holds
    /// `2 · MAX_CANDIDATES` of them, counts them all, and keeps the best
    /// [`MAX_CANDIDATES`] of the full row bit for bit.
    #[test]
    fn a_column_keeps_the_best_of_what_it_is_given() {
        for len in [0, 1, 127, 128, 129, 255, 256, 257, 300, 383, 384, 600] {
            let row = repeating_row(len);
            let want = reference(&row);
            let keep = len.min(MAX_CANDIDATES);
            let mut orders = vec![row.clone(), row.iter().rev().copied().collect()];
            orders.push(want.clone());
            orders.push(want.iter().rev().copied().collect());
            if len > 0 {
                let stride = if len % 7 == 0 { 11 } else { 7 };
                orders.push((0..len).map(|i| row[i * stride % len]).collect());
            }
            for (o, order) in orders.into_iter().enumerate() {
                let mut column = Column::default();
                for c in order {
                    column.push(c);
                    assert!(column.best.len() < 2 * MAX_CANDIDATES);
                }
                assert_eq!(column.len as usize, len, "order {o} of {len}");
                let mut held: Vec<Candidate> = column.best.iter().map(unslot).collect();
                rank(&mut held);
                assert_eq!(
                    bits(held.into_iter().take(keep)),
                    bits(want[..keep].iter().copied())
                );
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "read past the 128 stored candidates of a cut row")]
    fn reading_past_a_cut_panics() {
        let rows = stored(&repeating_row(MAX_CANDIDATES + 1));
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

    /// `value_rows` of `side`, read out row by row in the full candidate
    /// order: whole, for rows no longer than [`MAX_CANDIDATES`].
    fn kernel_rows(
        blocks: &BlockCollection,
        tokens: &TokenizedPair,
        side: KbSide,
        exec: &Executor,
    ) -> Vec<Vec<Candidate>> {
        let weights = block_weights(blocks, tokens, exec);
        let rows = value_rows(blocks, &weights, tokens, side, exec);
        assert!(rows.cut.is_empty(), "a row longer than {MAX_CANDIDATES}");
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
        let pairs: minoan_kb::FxHashMap<(EntityId, EntityId), f64> = values[0]
            .iter()
            .enumerate()
            .flat_map(|(i, row)| row.iter().map(move |&(c, v)| ((e(i as u32), c), v)))
            .collect();
        let value_sim =
            |nb1: EntityId, nb2: EntityId| pairs.get(&(nb1, nb2)).copied().unwrap_or(0.0);
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

    /// A probe row reads in the full candidate order however far it is
    /// read: whole, or abandoned anywhere, before, at or past the stored
    /// prefix's edge. Each reader that leaves the prefix of a cut row
    /// recomputes its tail once, and no other reader does.
    #[test]
    fn ranked_yields_the_full_order_read_whole_or_abandoned() {
        let LongRowsPair {
            want,
            tops,
            tokens,
            blocks,
        } = long_rows_pair(140, 150);
        let probe = KbSide::First;
        let idx = SimilarityIndex::build_with(
            &blocks,
            &tokens,
            [&tops[0], &tops[1]],
            &Executor::sequential(),
        );
        let stops = [0, 1, MAX_CANDIDATES, MAX_CANDIDATES + 1, 200];
        let mut left = 0;
        for (kind, rows) in [RowKind::Value, RowKind::Neighbor].into_iter().zip(&want) {
            for (i, full) in rows[probe.index()].iter().enumerate() {
                let label = format!("{kind:?} row {i} of {} entries", full.len());
                let whole = idx.read(kind, probe, e(i as u32));
                assert!(!whole.is_cut(), "{label}");
                assert_eq!(whole.len(), full.len(), "{label}");
                assert_eq!(bits(whole), bits(full.iter().copied()), "{label} read whole");
                for stop in stops {
                    let got = idx.read(kind, probe, e(i as u32)).take(stop);
                    assert_eq!(
                        bits(got),
                        bits(full[..stop.min(full.len())].iter().copied()),
                        "{label} abandoned at {stop}"
                    );
                }
                // The whole read, and the stops at 129 and 200.
                if full.len() > MAX_CANDIDATES {
                    left += 3;
                }
            }
        }
        assert!(left > 0, "no probe row runs past the prefix");
        assert_eq!(idx.tail_reads(), left);
    }

    /// The `simindex.candidate_bytes` events of a sequential build over
    /// [`long_rows_pair`] (140 × 150, the first side probes), pinned:
    /// per pass, the bytes alive when its rows are complete. No whole
    /// row set is alive at any pass: every row is stored cut as it is
    /// ranked, and the columns are bounded (here none reaches its
    /// compaction, so each holds all of its candidates).
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
                "simindex.first_rows: 515520 B alive",
                "simindex.neighbor_reverse: 509356 B alive",
                "simindex.value_reverse: 688764 B alive",
            ]
        );
        // The same from the naive rows' lengths: 12 B per stored
        // candidate, at most MAX_CANDIDATES a row, plus 8 B per offset,
        // a part's rows having one more offset than rows. Every row set
        // is one part, but the columns' rows, one per column range. A
        // column holds each of its candidates in a 12 B slot.
        let cut = |rows: &[Vec<Candidate>], parts: usize| {
            let stored: usize = rows.iter().map(|row| row.len().min(MAX_CANDIDATES)).sum();
            12 * stored + 8 * (rows.len() + parts)
        };
        let [values, neighbors] = &want;
        assert!(neighbors[1].iter().all(|c| c.len() < 2 * MAX_CANDIDATES));
        let columns: usize = neighbors[1].iter().map(|column| 12 * column.len()).sum();
        let n = neighbors[1].len();
        let ranges = n.div_ceil(n.div_ceil(COLUMN_RANGES).next_power_of_two());
        let [v1, v2] = [&values[0], &values[1]].map(|rows| cut(rows, 1));
        let n1 = cut(&neighbors[0], 1);
        let n2 = cut(&neighbors[1], ranges);
        let derived = [v1 + n1 + columns, v1 + n1 + n2, v1 + n1 + n2 + v2];
        for (event, alive) in events.iter().zip(derived) {
            assert!(event.ends_with(&format!(": {alive} B alive")), "{event}");
        }
    }

    /// The neighbor rows against their formula on pairs whose rows and
    /// columns run past `2 · MAX_CANDIDATES`, so every column is
    /// compacted at least once, in both orientations, on both
    /// executors: a row of the non-probe side — the first side's rows,
    /// cut as they are written, or the second side's, the bounded
    /// columns — is the exact top of the full row and says whether it
    /// was cut; a probe row reads back whole (its stored prefix checked
    /// against the recompute in debug builds); and the pair count is the
    /// formula's.
    #[test]
    fn non_probe_neighbor_rows_are_the_top_of_the_formula() {
        for (n1, n2) in [(300, 320), (320, 300)] {
            let LongRowsPair {
                want,
                tops,
                tokens,
                blocks,
            } = long_rows_pair(n1, n2);
            let [_, neighbors] = &want;
            let probe = KbSide::smaller([n1, n2]);
            let longest = neighbors[1].iter().map(Vec::len).max();
            assert!(
                longest > Some(2 * MAX_CANDIDATES),
                "{n1}x{n2}: no column reaches a compaction ({longest:?})"
            );
            let total: usize = neighbors[0].iter().map(Vec::len).sum();
            for exec in [Executor::sequential(), Executor::new(ExecutorKind::Pool, 3)] {
                let idx =
                    SimilarityIndex::build_with(&blocks, &tokens, [&tops[0], &tops[1]], &exec);
                for side in [KbSide::First, KbSide::Second] {
                    let mut cut = 0;
                    for (i, full) in neighbors[side.index()].iter().enumerate() {
                        let label = format!("{n1}x{n2}: {side:?} row {i}");
                        let row = idx.neighbor_candidates(side, e(i as u32));
                        let keep = if side == probe {
                            full.len()
                        } else {
                            full.len().min(MAX_CANDIDATES)
                        };
                        assert_eq!(row.is_cut(), keep < full.len(), "{label}");
                        cut += usize::from(row.is_cut());
                        assert_eq!(row.len(), keep, "{label}");
                        let got = bits(row.take(keep));
                        assert_eq!(got, bits(full[..keep].iter().copied()), "{label}");
                    }
                    assert_eq!(cut > 0, side != probe, "{n1}x{n2}: {side:?} cut {cut} rows");
                }
                assert_eq!(idx.neighbor_pair_count(), total, "{n1}x{n2}");
            }
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
