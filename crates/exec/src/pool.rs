//! The process-wide thread pool behind
//! [`ExecutorKind::Pool`](crate::ExecutorKind::Pool).
//!
//! ## Why one pool
//!
//! The fleet scheduler runs many jobs concurrently, each fanning waves
//! out over an executor. Threads spawned per job would oversubscribe a
//! small machine's cores. So there is **one** process-wide [`WorkPool`]
//! sized to `available_parallelism()`, and every job submits its waves
//! into it as task batches. The submitter *helps* with its own wave (it
//! runs the same claim loop as the injected helpers — rayon's
//! help-first `join` discipline), so the runnable CPU-bound threads are
//! the fixed workers plus at most one submitter per job mid-wave, never
//! `slots × threads`, and an idle worker's share of the machine goes to
//! whichever job has tasks pending *mid-run*.
//!
//! ## One queue
//!
//! Every injected job is the same claim loop over one wave's atomic
//! cursor, so there is nothing for per-worker queues to balance. Jobs
//! wait in one FIFO queue; an injection wakes one idle worker, which
//! takes the **oldest** job. That matters because a submitter joins
//! every helper it spawned, even one that starts after the cursor ran
//! dry: such a helper waits only behind jobs queued before it.
//!
//! ## Determinism argument
//!
//! The pool schedules *execution*, never *results*. A wave is an
//! ordered list of index ranges plus one result slot per range; tasks
//! claim ranges through an atomic cursor, each writes only its own
//! slot, and the submitter collects the slots in range order, so which
//! worker runs which range is not observable in the output. With the
//! workspace rule that every fan-out merges partials in part order (each
//! floating-point sum accumulated whole inside one part, in data order),
//! pool runs are bit-identical to sequential runs, which
//! `tests/executor_equivalence.rs` enforces per profile.
//!
//! ## Shape of the API
//!
//! [`WorkPool::scope`] and [`Scope::spawn`] keep the lifetime contract
//! of the rayon crate's `scope` and `Scope::spawn`: spawned closures may
//! borrow anything that outlives the scope, and `scope` returns only
//! after every spawned task finished. Swapping in that crate is a
//! one-line change; this pool exists because the build has no registry.
//!
//! ## Quantum sizing
//!
//! Callers bound each task to [`crate::POOL_TASK_ITEMS`] items (or
//! [`crate::POOL_TASK_BYTES`] bytes for byte-range waves), so a
//! [`CancelToken`](crate::CancelToken) observed between task claims
//! lands within predictable latency even when one block is enormous,
//! while the per-task cursor claim stays well under 1% of the work.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A queued unit of work; [`WorkPool::scope`] outlives every borrow in it.
type Job = Box<dyn FnOnce() + Send>;

/// State shared between the pool handle and its worker threads.
struct Shared {
    /// Jobs waiting for a worker, oldest at the front.
    queue: Mutex<VecDeque<Job>>,
    /// Signalled once per injection; idle workers wait on it.
    wake: Condvar,
    /// Jobs injected over the pool's lifetime.
    injected: AtomicU64,
    /// Wave tasks executed per worker, credited by [`note_tasks`].
    tasks: Vec<AtomicU64>,
}

/// Point-in-time pool telemetry, surfaced through `JobQueue::stats()`
/// into the line-JSON `status` response and `GET /v1/metrics`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Jobs waiting in the pool's queue right now.
    pub queued: usize,
    /// Always 0: the pool has one queue and nothing to steal. The field
    /// stays only because the benchmark's `exec.pool_steals` layer
    /// metric (`spine/src/layers.rs`) reads it; ROADMAP item 1(c)
    /// deletes that metric and this field with it.
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

/// A thread pool with one FIFO job queue. One process-wide instance
/// lives behind [`global`]; tests construct private pools.
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
    let idx = WORKER_INDEX.with(|w| w.get());
    if let Some(tasks) = idx.and_then(|idx| pool.shared.tasks.get(idx)) {
        tasks.fetch_add(count, Ordering::Relaxed);
    }
}

impl WorkPool {
    /// A pool with `workers` worker threads (clamped to at least 1).
    /// Worker threads are detached; they live as long as the process.
    pub fn new(workers: usize) -> WorkPool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            injected: AtomicU64::new(0),
            tasks: (0..workers).map(|_| AtomicU64::new(0)).collect(),
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
        self.shared.tasks.len()
    }

    /// Point-in-time telemetry snapshot.
    pub fn stats(&self) -> PoolStats {
        let (shared, load) = (&self.shared, |c: &AtomicU64| c.load(Ordering::Relaxed));
        PoolStats {
            workers: self.workers(),
            queued: shared.queue.lock().expect("pool queue lock").len(),
            steals: 0,
            injected: load(&shared.injected),
            worker_tasks: shared.tasks.iter().map(load).collect(),
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

    /// Queues a job behind every job already waiting and wakes one idle
    /// worker.
    fn inject(&self, job: Job) {
        let shared = &self.shared;
        shared.queue.lock().expect("pool queue lock").push_back(job);
        shared.injected.fetch_add(1, Ordering::Relaxed);
        shared.wake.notify_one();
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

/// Joins a scope's tasks on drop, so the join happens on panic paths too.
struct WaitGuard<'a>(&'a Latch);

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// The worker thread body: take the oldest queued job, or wait for an
/// injection while the queue is empty.
fn worker_loop(shared: &Shared, idx: usize) {
    WORKER_INDEX.with(|w| w.set(Some(idx)));
    loop {
        let mut queue = shared.queue.lock().expect("pool queue lock");
        while queue.is_empty() {
            queue = shared.wake.wait(queue).expect("pool queue lock");
        }
        let job = queue.pop_front().expect("queue is non-empty");
        drop(queue);
        // Jobs catch their own panics (see `Scope::spawn`), so the
        // worker outlives every task and the queue lock never poisons.
        job();
    }
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
        minoan_obs::debug!("exec.pool", "pool started with {workers} workers");
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
    use std::sync::Barrier;

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
    fn jobs_run_oldest_first() {
        const N: usize = 16;
        let pool = WorkPool::new(1);
        let (started, release) = (Barrier::new(2), Barrier::new(2));
        let order = Mutex::new(Vec::new());
        let queued = pool.scope(|s| {
            // Hold the only worker so every later job waits in the queue.
            s.spawn(|| {
                started.wait();
                release.wait();
            });
            started.wait();
            for i in 0..N {
                let order = &order;
                s.spawn(move || order.lock().unwrap().push(i));
            }
            // Read before releasing: a failed assert while the worker is
            // held would leave the scope joining forever.
            let queued = pool.stats().queued;
            release.wait();
            queued
        });
        assert_eq!(queued, N);
        assert_eq!(*order.lock().unwrap(), (0..N).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_submitters_never_lose_a_wakeup() {
        // A lost wakeup strands a job with every worker asleep, and the
        // scope waiting on it never returns: this test hangs.
        let pool = WorkPool::new(2);
        std::thread::scope(|threads| {
            for _ in 0..4 {
                threads.spawn(|| {
                    for round in 0..2_000 {
                        let count = AtomicUsize::new(0);
                        let spawns = 1 + round % 3;
                        pool.scope(|s| {
                            for _ in 0..spawns {
                                s.spawn(|| {
                                    count.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                        assert_eq!(count.load(Ordering::Relaxed), spawns);
                    }
                });
            }
        });
        assert_eq!(pool.stats().queued, 0);
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
