//! Allocation budgets: what a stage allocates is deterministic where
//! its time is not, so a budget on it is a tier-1 gate that a noisy box
//! cannot blur. This binary installs a std-only counting allocator over
//! [`System`] and runs each measured stage on [`Executor::sequential`],
//! so every allocation lands on the test's own thread, where the
//! counters are thread-local.
//!
//! The similarity index never holds whole rows of a whole KB: every
//! row is stored cut as it is ranked, the neighbor pass recomputes the
//! value rows it reads, and the transposed neighbor rows are built in
//! columns bounded at `2 · MAX_CANDIDATES` candidates each. So what its
//! build holds at its peak, above the index it returns, is pinned below
//! half of what the first side's whole value rows or a full transpose
//! of the neighbor rows take on their own — 12 B per pair, the index's
//! [`pair_count`](SimilarityIndex::pair_count) and
//! [`neighbor_pair_count`](SimilarityIndex::neighbor_pair_count). A
//! build that kept either whole crosses it wherever rows run well past
//! the cut, as BBC's do at ×0.25.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use minoaner::core::{build_blocks, top_neighbors_with, MinoanConfig, SimilarityIndex};
use minoaner::datagen::DatasetKind;
use minoaner::exec::Executor;

const SEED: u64 = 20180416;
const SCALE: f64 = 0.25;

/// [`System`], counting on the allocating thread: calls, bytes asked
/// for, and live bytes with their high-water mark.
struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Counts an allocation of `size` bytes, or a free of `-size`.
fn count(size: i64) {
    // `try_with`: a thread's counters may be gone while it exits.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + size);
        PEAK.with(|peak| peak.set(peak.get().max(live.get())));
        if size > 0 {
            CALLS.with(|calls| calls.set(calls.get() + 1));
            BYTES.with(|bytes| bytes.set(bytes.get() + size as u64));
        }
    });
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// are plain thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(-(layout.size() as i64));
        count(new_size as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What one stage allocated on this thread.
#[derive(Debug)]
struct Usage {
    calls: u64,
    bytes: u64,
    /// The high-water mark of live bytes above those live at the start.
    peak: i64,
    /// Live bytes at the end, above those live at the start.
    kept: i64,
}

/// Runs `f` and counts what it allocates.
fn measure<R>(f: impl FnOnce() -> R) -> (R, Usage) {
    let (calls, bytes) = (CALLS.get(), BYTES.get());
    let live = LIVE.get();
    PEAK.set(live);
    let out = f();
    let usage = Usage {
        calls: CALLS.get() - calls,
        bytes: BYTES.get() - bytes,
        peak: PEAK.get() - live,
        kept: LIVE.get() - live,
    };
    (out, usage)
}

/// The similarity index of `kind` at [`SCALE`], built sequentially, with
/// what the build allocated, its value and neighbor pair counts, and
/// the entities of both sides.
fn index_build(kind: DatasetKind) -> (Usage, [usize; 2], usize) {
    let d = kind.generate_scaled(SEED, SCALE);
    let exec = Executor::sequential();
    let config = MinoanConfig::default();
    let art = build_blocks(&d.pair, &config, &exec);
    let [tn1, tn2] = [&d.pair.first, &d.pair.second]
        .map(|kb| top_neighbors_with(kb, config.top_relations_n, config.max_top_neighbors, &exec));
    let (idx, usage) = measure(|| {
        SimilarityIndex::build_with(&art.token_blocks, &art.tokens, [&tn1, &tn2], &exec)
    });
    let entities = d.pair.first.entity_count() + d.pair.second.entity_count();
    (
        usage,
        [idx.pair_count(), idx.neighbor_pair_count()],
        entities,
    )
}

/// Rexa ×0.25 (465 × 2 215 entities; 80 629 value and 32 590 neighbor
/// pairs, so the bound is 195 540 B). Measured when this was written:
/// the build peaked 3 980 B above the 2 298 220 B it keeps, in 7 309
/// allocation calls for 8.55 MB. The build that kept the first side's
/// value rows whole until the neighbor pass had read them, and then
/// transposed the whole neighbor rows, peaked 1 864 B above its
/// 2 286 520 B, in 2 263 calls for 9.90 MB: the first side's rows
/// average 173 candidates here, barely past the cut, so the finished
/// index is the peak either way, and this leg keeps what the build holds
/// above it small.
#[test]
fn rexa_index_build_never_holds_whole_rows() {
    check(DatasetKind::RexaDblp);
}

/// BBC ×0.25 (930 × 1 605 entities; 202 683 value and 192 043 neighbor
/// pairs, so the bound is 1 152 258 B). Measured when this was written:
/// the build peaked 585 520 B above the 4 128 912 B it keeps, in 8 935
/// allocation calls for 17.3 MB; the build with whole rows and a full
/// transpose peaked 2 498 492 B above its 4 134 444 B, in 2 502 calls
/// for 26.3 MB.
#[test]
fn bbc_index_build_never_holds_whole_rows() {
    check(DatasetKind::BbcDbpedia);
}

/// The build's peak above what it keeps stays below the bound (see the
/// module docs), and it makes no allocation per candidate: a few per
/// entity, for its rows' buffers and for a column growing by doubling
/// to at most `2 · MAX_CANDIDATES` slots; one per value pair would be
/// 4–10 times the bound.
fn check(kind: DatasetKind) {
    let (usage, [pairs, neighbor_pairs], entities) = index_build(kind);
    let bound = 6 * pairs.min(neighbor_pairs) as i64;
    assert!(
        usage.peak - usage.kept < bound,
        "{kind:?}: the build peaked {} B above the {} B it keeps; the bound is {bound} B \
         ({pairs} value pairs, {neighbor_pairs} neighbor pairs; {usage:?})",
        usage.peak - usage.kept,
        usage.kept,
    );
    assert!(
        usage.calls < 8 * entities as u64,
        "{kind:?}: {} allocation calls for {} B over {entities} entities",
        usage.calls,
        usage.bytes,
    );
}
