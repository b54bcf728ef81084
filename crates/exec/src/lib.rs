//! # minoan-exec — the executor layer of MinoanER
//!
//! MinoanER is a *massively parallel* ER method: the paper's efficiency
//! argument (§III) is that every similarity is a function of block
//! statistics computed in one data-parallel pass over blocks. This crate
//! provides the executor abstraction the hot layers (blocking, similarity
//! indexing, matching) run on:
//!
//! - [`Executor`] with a [`Sequential`](ExecutorKind::Sequential)
//!   backend (the reference every equivalence test compares against)
//!   and a [`Pool`](ExecutorKind::Pool) backend (waves submitted as
//!   quantum-bounded task batches into the process-wide [`pool`] and its
//!   one queue), selected by configuration;
//! - ordered fan-out primitives ([`Executor::map_parts`],
//!   [`Executor::map_range`]) whose merged output is **independent of the
//!   thread count** (and, for the pool backend, of the task count), so
//!   parallel runs are bit-identical to sequential ones by construction;
//! - [`SharedSlice`], the unsafe-but-audited escape hatch for writing
//!   disjoint index ranges of one buffer from multiple threads (CSR
//!   fills and transposes);
//! - [`CancelToken`], cooperative cancellation carried by the executor:
//!   an [`Executor::with_cancel`] executor observes the token at the
//!   start of every wave on both backends and, on the pool backend,
//!   between the quantum-bounded *tasks* of a wave. Once it fires the
//!   wave unwinds with [`Cancelled`] (caught at a job boundary with
//!   [`catch_cancel`]), so stages take no token of their own and
//!   cancellation latency is one task quantum on the pool, one wave on
//!   the sequential backend.
//!
//! Design rule for all call sites: a parallel algorithm must produce the
//! *same bytes* as its one-part sequential specialization. Partial
//! results are always merged in part order, a floating-point sum is
//! accumulated whole inside one part in an order fixed by the data (never
//! split across parts and re-added), and ties are broken by entity id —
//! never by thread arrival order.

#![warn(missing_docs)]

pub mod backoff;
pub mod cancel;
pub mod faults;
pub mod pool;
pub mod shared;

pub use cancel::{catch_cancel, CancelReason, CancelToken, Cancelled};
pub use pool::PoolStats;
pub use shared::SharedSlice;

use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Which backend an [`Executor`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutorKind {
    /// Everything on the calling thread, one part per fan-out.
    Sequential,
    /// Data-parallel over the process-wide [`pool`]: waves become
    /// batches of quantum-bounded tasks, so concurrent jobs share one
    /// fixed worker set instead of oversubscribing the machine.
    #[default]
    Pool,
}

impl ExecutorKind {
    /// Canonical lower-case name (`"sequential"` / `"pool"`).
    pub fn name(self) -> &'static str {
        match self {
            ExecutorKind::Sequential => "sequential",
            ExecutorKind::Pool => "pool",
        }
    }
}

impl fmt::Display for ExecutorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ExecutorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sequential" | "seq" | "serial" => Ok(ExecutorKind::Sequential),
            "pool" => Ok(ExecutorKind::Pool),
            other => Err(format!(
                "unknown executor {other:?} (expected sequential|pool)"
            )),
        }
    }
}

/// Hard cap on [`Executor::threads`], so an absurd thread hint passed
/// to [`Executor::new`] cannot translate into an absurd partition
/// count. (The pool never spawns past `available_parallelism()`; the
/// thread budget is only a partition hint.)
pub const MAX_THREADS: usize = 256;

/// Upper bound on items per pool task: [`ExecutorKind::Pool`] waves over
/// `n` items are split into at least `n / POOL_TASK_ITEMS` tasks, so a
/// cancel request is observed within roughly this many items of work.
pub const POOL_TASK_ITEMS: usize = 1024;

/// Upper bound on bytes per pool task for byte-range waves
/// ([`Executor::map_chunks`]); the byte-domain analogue of
/// [`POOL_TASK_ITEMS`]. Boundary alignment may still produce a larger
/// chunk when a single unsplittable line dominates the input.
pub const POOL_TASK_BYTES: usize = 256 << 10;

/// A configured executor: backend, thread budget, and an optional
/// cancellation token observed by every wave it runs.
#[derive(Debug, Clone, Default)]
pub struct Executor {
    kind: ExecutorKind,
    threads: usize,
    cancel: Option<CancelToken>,
}

impl Executor {
    /// An executor of `kind` with a thread budget (`0` = all available).
    pub fn new(kind: ExecutorKind, threads: usize) -> Self {
        Self {
            kind,
            threads,
            cancel: None,
        }
    }

    /// The sequential executor.
    pub fn sequential() -> Self {
        Self::new(ExecutorKind::Sequential, 1)
    }

    /// The pool executor using the whole process-wide pool.
    pub fn pool() -> Self {
        Self::new(ExecutorKind::Pool, 0)
    }

    /// This executor carrying `cancel`: every wave checks the token
    /// before it starts, and a pool wave also checks it between tasks
    /// and stops claiming work once it fires. Either way the wave
    /// unwinds with [`Cancelled`] instead of returning, so a stage run
    /// on this executor needs no token of its own; recover at the job
    /// boundary via [`catch_cancel`]. A sequential wave already running
    /// finishes before the next one observes the token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The backend kind.
    pub fn kind(&self) -> ExecutorKind {
        self.kind
    }

    /// Effective number of worker threads (always in
    /// `1..=`[`MAX_THREADS`]; `Sequential` is 1). For the pool backend
    /// this is the partition hint — `0` means the pool's worker count,
    /// i.e. `available_parallelism()` — and reading it never starts the
    /// pool.
    pub fn threads(&self) -> usize {
        match self.kind {
            ExecutorKind::Sequential => 1,
            ExecutorKind::Pool => {
                let requested = if self.threads == 0 {
                    pool::default_workers()
                } else {
                    self.threads
                };
                requested.clamp(1, MAX_THREADS)
            }
        }
    }

    /// Splits `0..n` into at most [`Executor::threads`] contiguous,
    /// balanced, ascending ranges. Deterministic in `n` and the thread
    /// count; never returns an empty range (and returns no ranges for
    /// `n == 0`).
    pub fn part_ranges(&self, n: usize) -> Vec<Range<usize>> {
        balanced_ranges(n, self.threads())
    }

    /// How many quantum-bounded tasks a pool wave over `n` items splits
    /// into: enough that no task exceeds [`POOL_TASK_ITEMS`] items,
    /// never fewer than the thread hint, never more than `n`.
    fn pool_task_count(&self, n: usize) -> usize {
        n.div_ceil(POOL_TASK_ITEMS).max(self.threads()).min(n)
    }

    /// The pool fan-out: the submitting thread runs a claim loop over
    /// the wave itself (**help-first**) while one helper claim loop per
    /// pool worker is injected into the process-wide pool. Claim loops pick ranges off an ascending
    /// atomic cursor and write result slots indexed by range position,
    /// so the output order — and therefore every downstream merge — is
    /// independent of which thread ran what.
    ///
    /// Helping instead of parking matters twice over: a wave makes
    /// progress immediately even when every pool worker is busy with
    /// other jobs' waves, and a fleet of concurrent jobs degrades to
    /// the OS timeslicing `slots` working threads (plus the fixed
    /// worker set running queued helpers oldest first) rather
    /// than funnelling every job's quanta through the workers with a
    /// park/wake per wave. Helpers that arrive after the cursor is
    /// drained exit immediately.
    ///
    /// If a cancel token fires mid-wave, claim loops stop picking up
    /// tasks and the wave unwinds with [`Cancelled`] — never by
    /// returning a partial result vector.
    fn run_tasks_pool<R, F>(&self, ranges: Vec<Range<usize>>, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let n = ranges.len();
        if n <= 1 {
            return ranges.into_iter().map(f).collect();
        }
        let mut slots: Vec<Option<R>> = ranges.iter().map(|_| None).collect();
        let slots_view = SharedSlice::new(&mut slots);
        let cursor = AtomicUsize::new(0);
        let aborted = AtomicBool::new(false);
        let cancel = self.cancel.as_ref();
        let workpool = pool::global();
        let claim_loop = {
            let (ranges, f, cursor, aborted, slots_view) =
                (&ranges, &f, &cursor, &aborted, &slots_view);
            move || {
                let mut ran = 0u64;
                loop {
                    if aborted.load(Ordering::Relaxed) || cancel.is_some_and(|c| c.is_cancelled()) {
                        aborted.store(true, Ordering::Relaxed);
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    match catch_unwind(AssertUnwindSafe(|| f(ranges[i].clone()))) {
                        Ok(value) => {
                            // SAFETY: slot `i` was claimed by exactly
                            // this claim loop via the cursor.
                            unsafe { slots_view.write(i, Some(value)) };
                            ran += 1;
                        }
                        Err(payload) => {
                            // Stop sibling loops from burning work,
                            // then let the scope rethrow.
                            aborted.store(true, Ordering::Relaxed);
                            pool::note_tasks(workpool, ran);
                            resume_unwind(payload);
                        }
                    }
                }
                pool::note_tasks(workpool, ran);
            }
        };
        // The submitter claims one range up front, so at most `n - 1`
        // helpers can ever find work.
        let helpers = workpool.workers().min(n - 1);
        workpool.scope(|s| {
            for _ in 0..helpers {
                s.spawn(claim_loop);
            }
            claim_loop();
        });
        if slots.iter().any(Option::is_none) {
            // Only a cancelled wave leaves gaps (a panicking wave
            // rethrows out of the scope above before reaching here).
            cancel::unwind_cancelled();
        }
        slots
            .into_iter()
            .map(|r| r.expect("pool wave task did not run"))
            .collect()
    }

    /// Dispatches a wave of index ranges to the backend, first
    /// unwinding with [`Cancelled`] if this executor's token has fired:
    /// every wave start is a cancellation point on both backends. Each
    /// wave is a debug-level span in the trace collector (a disabled
    /// collector reduces this to one relaxed atomic load); observation
    /// never influences partitioning or merge order.
    fn run_wave<R, F>(&self, ranges: Vec<Range<usize>>, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            cancel::unwind_cancelled();
        }
        let tasks = ranges.len();
        let _wave = minoan_obs::trace::span(minoan_obs::Level::Debug, "exec.wave", || {
            format!("{tasks} tasks on {}", self.kind.name())
        });
        match self.kind {
            ExecutorKind::Pool => self.run_tasks_pool(ranges, f),
            // One thread means one range (see `part_ranges` and
            // `chunk_ranges`), so the wave is a plain call.
            ExecutorKind::Sequential => ranges.into_iter().map(f).collect(),
        }
    }

    /// Fans `f` out over the part ranges of `0..n`, returning one result
    /// per part **in part order**. The sequential backend runs a single
    /// part covering the whole range, so `map_parts` callers that merge
    /// partials by concatenation degrade to the plain sequential
    /// algorithm. The pool backend splits into quantum-bounded tasks
    /// (often more parts than threads — see [`POOL_TASK_ITEMS`]); merge
    /// logic must stay part-count-independent, which the equivalence
    /// suite enforces.
    pub fn map_parts<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let ranges = match self.kind {
            ExecutorKind::Pool => balanced_ranges(n, self.pool_task_count(n.max(1))),
            _ => self.part_ranges(n),
        };
        self.run_wave(ranges, f)
    }

    /// Maps `f` over `0..n`, returning results in index order.
    pub fn map_range<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let mut parts = self.map_parts(n, |range| range.map(&f).collect::<Vec<R>>());
        if parts.len() == 1 {
            return parts.pop().expect("one part");
        }
        let mut out = Vec::with_capacity(n);
        for part in parts {
            out.extend(part);
        }
        out
    }

    /// Splits `0..len` into at most [`Executor::threads`] contiguous
    /// ranges whose interior boundaries are adjusted by `align`: each
    /// proposed boundary `p` is moved to `align(p)`, which must return a
    /// position in `p..=len` that is safe to cut at (for line-oriented
    /// byte input: the position just after the next `\n`). Degenerate
    /// (empty) ranges produced by colliding boundaries are dropped, so
    /// the result is a partition of `0..len` into non-empty ranges.
    ///
    /// Deterministic in `len`, the thread count and `align` — and for a
    /// single thread it returns the whole range, so chunked callers
    /// degrade to the plain sequential algorithm.
    pub fn chunk_ranges<B>(&self, len: usize, align: B) -> Vec<Range<usize>>
    where
        B: Fn(usize) -> usize,
    {
        chunk_ranges_for(len, self.threads(), align)
    }

    /// Fans `f` out over boundary-aligned chunks of `0..len` (see
    /// [`Executor::chunk_ranges`]), returning one result per chunk **in
    /// chunk order**. This is the byte-range fan-out primitive behind the
    /// streaming parsers: `align` keeps every chunk line-complete, each
    /// worker parses its chunk into a partial, and the caller merges the
    /// partials in chunk order. The pool backend bounds chunks to
    /// roughly [`POOL_TASK_BYTES`] each.
    pub fn map_chunks<R, B, F>(&self, len: usize, align: B, f: F) -> Vec<R>
    where
        R: Send,
        B: Fn(usize) -> usize,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let ranges = match self.kind {
            ExecutorKind::Pool => {
                let parts = len.div_ceil(POOL_TASK_BYTES).max(self.threads()).min(len);
                chunk_ranges_for(len, parts, align)
            }
            _ => self.chunk_ranges(len, align),
        };
        self.run_wave(ranges, f)
    }
}

/// Splits `0..n` into at most `parts` contiguous, balanced, ascending
/// non-empty ranges (no ranges for `n == 0`).
fn balanced_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.min(n).max(1);
    let base = n / parts;
    let extra = n % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Splits `0..len` into at most `parts` boundary-aligned non-empty
/// ranges; the partition behind [`Executor::chunk_ranges`].
fn chunk_ranges_for<B>(len: usize, parts: usize, align: B) -> Vec<Range<usize>>
where
    B: Fn(usize) -> usize,
{
    let mut ranges = Vec::new();
    let mut start = 0usize;
    for r in balanced_ranges(len, parts) {
        if r.end >= len {
            if start < len {
                ranges.push(start..len);
            }
            break;
        }
        let end = align(r.end).min(len);
        debug_assert!(end >= r.end, "align must not move a boundary backwards");
        if end > start {
            ranges.push(start..end);
            start = end;
        }
        if start >= len {
            break;
        }
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both() -> [Executor; 3] {
        [
            Executor::sequential(),
            Executor::new(ExecutorKind::Pool, 3),
            Executor::new(ExecutorKind::Pool, 16),
        ]
    }

    #[test]
    fn kind_parses_and_displays() {
        assert_eq!("seq".parse::<ExecutorKind>(), Ok(ExecutorKind::Sequential));
        assert_eq!(
            "SEQUENTIAL".parse::<ExecutorKind>(),
            Ok(ExecutorKind::Sequential)
        );
        assert_eq!("pool".parse::<ExecutorKind>(), Ok(ExecutorKind::Pool));
        assert_eq!("Pool".parse::<ExecutorKind>(), Ok(ExecutorKind::Pool));
        for unknown in ["gpu", "rayon", "parallel", "par"] {
            let err = unknown.parse::<ExecutorKind>().unwrap_err();
            assert!(err.ends_with("(expected sequential|pool)"), "{err}");
        }
        assert_eq!(ExecutorKind::Sequential.to_string(), "sequential");
        assert_eq!(ExecutorKind::Pool.to_string(), "pool");
    }

    #[test]
    fn pool_is_the_default_backend() {
        assert_eq!(ExecutorKind::default(), ExecutorKind::Pool);
        assert_eq!(Executor::default().kind(), ExecutorKind::Pool);
    }

    #[test]
    fn threads_are_effective() {
        assert_eq!(Executor::sequential().threads(), 1);
        assert_eq!(Executor::new(ExecutorKind::Pool, 5).threads(), 5);
        assert!(Executor::pool().threads() >= 1);
    }

    #[test]
    fn absurd_thread_requests_are_clamped() {
        let exec = Executor::new(ExecutorKind::Pool, 1_000_000);
        assert_eq!(exec.threads(), MAX_THREADS);
        // And the fan-out still works at the cap.
        assert_eq!(exec.map_range(10, |i| i).len(), 10);
    }

    #[test]
    fn part_ranges_partition_the_input() {
        for exec in both() {
            for n in [0usize, 1, 2, 7, 100] {
                let ranges = exec.part_ranges(n);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect, "contiguous ascending");
                    assert!(!r.is_empty());
                    expect = r.end;
                }
                assert_eq!(expect, n);
            }
        }
    }

    #[test]
    fn map_range_is_ordered_regardless_of_backend() {
        let expected: Vec<usize> = (0..101).map(|i| i * i).collect();
        for exec in both() {
            assert_eq!(exec.map_range(101, |i| i * i), expected);
        }
    }

    #[test]
    fn map_range_is_ordered_across_many_pool_quanta() {
        // Enough items that the pool wave splits into many more tasks
        // than workers; order must still be exact.
        let n = POOL_TASK_ITEMS * 7 + 13;
        let expected: Vec<usize> = (0..n).map(|i| i ^ 0xA5).collect();
        let exec = Executor::pool();
        assert_eq!(exec.map_range(n, |i| i ^ 0xA5), expected);
    }

    #[test]
    fn map_parts_merges_in_part_order() {
        for exec in both() {
            let parts = exec.map_parts(50, |r| r.collect::<Vec<usize>>());
            let flat: Vec<usize> = parts.into_iter().flatten().collect();
            assert_eq!(flat, (0..50).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_items_is_fine() {
        for exec in both() {
            assert!(exec.map_parts(0, |_| 0u8).is_empty());
            assert!(exec.map_range(0, |_| 0u8).is_empty());
            assert!(exec.map_chunks(0, |p| p, |_| 0u8).is_empty());
        }
    }

    #[test]
    fn cancelled_pool_wave_unwinds_with_cancelled() {
        let token = CancelToken::new();
        let exec = Executor::new(ExecutorKind::Pool, 2).with_cancel(token.clone());
        let n = POOL_TASK_ITEMS * 64;
        let cancel_at = AtomicUsize::new(0);
        let result = catch_cancel(|| {
            exec.map_range(n, |i| {
                // Fire the token from inside the wave once it is
                // clearly mid-flight.
                if cancel_at.fetch_add(1, Ordering::Relaxed) == POOL_TASK_ITEMS {
                    token.cancel();
                }
                i as u64
            });
            Ok(())
        });
        assert_eq!(result, Err(Cancelled));
    }

    #[test]
    fn sequential_wave_start_observes_a_token_fired_in_the_previous_wave() {
        let token = CancelToken::new();
        let exec = Executor::sequential().with_cancel(token.clone());
        let second_wave_ran = AtomicBool::new(false);
        let result = catch_cancel(|| {
            // The first wave runs to completion although its closure
            // fires the token: a sequential wave is one plain call.
            let first = exec.map_range(4, |i| {
                token.cancel();
                i
            });
            assert_eq!(first, vec![0, 1, 2, 3]);
            exec.map_range(4, |_| second_wave_ran.store(true, Ordering::Relaxed));
            Ok(())
        });
        assert_eq!(result, Err(Cancelled));
        assert!(!second_wave_ran.load(Ordering::Relaxed));
    }

    #[test]
    fn a_pre_cancelled_executor_runs_no_task_on_either_backend() {
        let token = CancelToken::new();
        token.cancel();
        for exec in both() {
            let exec = exec.with_cancel(token.clone());
            let ran = AtomicUsize::new(0);
            let result = catch_cancel(|| {
                Ok(exec
                    .map_range(POOL_TASK_ITEMS * 4, |_| ran.fetch_add(1, Ordering::Relaxed))
                    .len())
            });
            assert_eq!(result, Err(Cancelled), "{:?}", exec.kind());
            assert_eq!(ran.load(Ordering::Relaxed), 0, "{:?}", exec.kind());
            // Empty waves are cancellation points too.
            assert_eq!(
                catch_cancel(|| Ok(exec.map_range(0, |i| i))),
                Err(Cancelled)
            );
        }
    }

    /// Panic-hook calls that carried a [`Cancelled`] payload, counted by
    /// the hook [`cancelled_unwinds_never_reach_the_panic_hook`] installs.
    static CANCELLED_HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

    #[test]
    fn cancelled_unwinds_never_reach_the_panic_hook() {
        // A daemon cancelling a running job must not print a panic
        // message: only `resume_unwind` skips the hook. The counting
        // hook forwards every other payload to the previous hook and
        // stays installed (the hook is process-wide).
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Cancelled>().is_some() {
                CANCELLED_HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
            } else {
                previous(info);
            }
        }));
        for exec in [Executor::new(ExecutorKind::Pool, 2), Executor::sequential()] {
            let token = CancelToken::new();
            let exec = exec.with_cancel(token.clone());
            let result = catch_cancel(|| {
                // The pool wave is cancelled between its tasks, the
                // sequential one at the start of the next wave.
                exec.map_range(POOL_TASK_ITEMS * 16, |i| {
                    if i == POOL_TASK_ITEMS {
                        token.cancel();
                    }
                });
                Ok(exec.map_range(1, |i| i))
            });
            assert_eq!(
                CANCELLED_HOOK_CALLS.load(Ordering::SeqCst),
                0,
                "{:?}",
                exec.kind()
            );
            assert_eq!(result, Err(Cancelled), "{:?}", exec.kind());
        }
    }

    #[test]
    fn uncancelled_token_does_not_disturb_results() {
        let token = CancelToken::new();
        let exec = Executor::pool().with_cancel(token);
        let expected: Vec<usize> = (0..5000).map(|i| i * 2).collect();
        assert_eq!(exec.map_range(5000, |i| i * 2), expected);
    }

    #[test]
    fn pool_wave_panics_propagate() {
        let exec = Executor::new(ExecutorKind::Pool, 4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.map_range(10_000, |i| {
                if i == 4321 {
                    panic!("wave boom");
                }
                i
            })
        }));
        let payload = result.expect_err("panic must cross the wave");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"wave boom"));
        // The executor (and pool) remain usable afterwards.
        assert_eq!(exec.map_range(3, |i| i), vec![0, 1, 2]);
    }

    /// Boundary alignment for line-oriented bytes: cut just after the
    /// next newline at or past the proposed position.
    fn after_newline(data: &[u8]) -> impl Fn(usize) -> usize + '_ {
        move |p| {
            data[p..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|off| p + off + 1)
                .unwrap_or(data.len())
        }
    }

    #[test]
    fn chunk_ranges_partition_and_respect_boundaries() {
        let data = b"alpha\nbeta\ngamma\ndelta\nepsilon\nzeta\n";
        for exec in both() {
            let ranges = exec.chunk_ranges(data.len(), after_newline(data));
            let mut expect = 0;
            for r in &ranges {
                assert_eq!(r.start, expect, "contiguous ascending");
                assert!(!r.is_empty());
                // Every chunk ends just after a newline (or at EOF).
                assert!(r.end == data.len() || data[r.end - 1] == b'\n');
                expect = r.end;
            }
            assert_eq!(expect, data.len());
        }
    }

    #[test]
    fn chunk_ranges_collapse_when_one_line_dominates() {
        // A single long line: every boundary aligns to EOF, so exactly
        // one chunk covers everything regardless of the thread count.
        let data = vec![b'x'; 1000];
        for exec in both() {
            let ranges = exec.chunk_ranges(data.len(), after_newline(&data));
            assert_eq!(ranges, vec![0..data.len()]);
        }
    }

    #[test]
    fn map_chunks_merges_in_chunk_order() {
        let text: String = (0..200).map(|i| format!("line{i}\n")).collect();
        let data = text.as_bytes();
        let expected: Vec<&str> = text.lines().collect();
        for exec in both() {
            let parts = exec.map_chunks(data.len(), after_newline(data), |r| {
                std::str::from_utf8(&data[r])
                    .unwrap()
                    .lines()
                    .map(String::from)
                    .collect::<Vec<_>>()
            });
            let flat: Vec<String> = parts.into_iter().flatten().collect();
            assert_eq!(flat, expected);
        }
    }
}
