//! The fleet scheduler: a **live admission queue** with pair-level
//! parallelism first, bounded-memory admission, failure isolation and
//! cooperative mid-job cancellation.
//!
//! ## The queue
//!
//! [`JobQueue`] is the one scheduling engine in the workspace, and one
//! runner staffs and drains it. Batch mode ([`run_batch`]) submits
//! every manifest job up front and closes the queue before the runner
//! starts; daemon mode ([`crate::daemon`]) hands the runner its accept
//! loops, which feed jobs as they arrive over the socket, and the
//! runner closes the queue when they return. Either way the rules are
//! identical:
//!
//! - **Pairs first.** Up to `slots` jobs run concurrently, each on its
//!   own executor, and the runner starts exactly that many workers.
//!   [`ServeOptions::slots`] is clamped to `available_parallelism()`:
//!   one more CPU-bound pipeline than cores would only evict everyone
//!   else's working set on every timeslice. The pool's workers are
//!   divided with real accounting (`allotment`): each claim takes a
//!   share of the workers not allotted to running jobs, so allotments
//!   sum to the worker count while the fleet is full, and as the queue
//!   drains the stragglers widen to intra-pair parallelism (the last
//!   job alone gets every free worker). On the default pool backend an allotment is each
//!   wave's minimum task count: wave work runs through the
//!   process-wide pool sized to the core count (the submitter helping
//!   with its own wave), and idle capacity flows to whichever job has
//!   tasks pending.
//! - **Bounded-memory admission.** Jobs are admitted strictly in
//!   submission order. Before anything is loaded, a job's footprint is
//!   estimated ([`JobSpec::estimated_bytes`]) and the job waits until
//!   the sum of in-flight estimates leaves room in the budget. The head
//!   job is always admitted when nothing is running, so a job bigger
//!   than the whole budget runs alone instead of deadlocking.
//! - **Failure isolation.** A job that fails to load, fails validation
//!   or panics produces a `Failed` report; the fleet keeps going.
//! - **Cancellation.** Each job carries its own [`CancelToken`].
//!   Cancelling a *queued* job flips it to `Cancelled` **atomically**
//!   under the queue lock — the job either never dispatches, or it was
//!   already claimed and the token, riding on the job's executor,
//!   makes the running load or pipeline unwind (see
//!   [`minoan_exec::cancel`]) to a `Cancelled` report — within one
//!   quantum-bounded pool task on the default backend, at the next
//!   wave start on the sequential one. A job is
//!   never observable as both running and cancelled: phase transitions
//!   (`Queued → Running → Done`, or `Queued → Done` for a pre-dispatch
//!   cancel) happen under one lock and anything else panics. Per-job
//!   tokens are the only cancellation; [`JobQueue::cancel_all`] sets
//!   every one of them.
//! - **Determinism.** Job results never depend on scheduling: the
//!   pipeline is bit-identical across executors and thread counts, and
//!   each job's inputs are private to it. The fleet report lists jobs
//!   in submission order regardless of completion order.
//!
//! ## Job lifecycle
//!
//! The supervised lifecycle, including the retry edge (attempts at a
//! job re-enter the queue; phases observable via [`JobPhase`], terminal
//! states via [`JobStatus`]):
//!
//! ```text
//!             ┌──────────────◄──────────────┐ retry: transient failure
//!             │                             │ (IO error, stall, timeout)
//!             ▼                             │ while attempt < max_retries,
//!   Queued ──────► Running ──────┬──────────┘ after exponential backoff
//!     │                          │            with deterministic jitter
//!     │                          ├─► Done(Ok)
//!     │                          ├─► Done(Failed)            permanent error,
//!     │                          │                           or retries exhausted
//!     │                          ├─► Done(Cancelled)         operator/client cancel
//!     │                          ├─► Done(TimedOut)          `timeout_ms` deadline
//!     │                          │                           expired mid-run
//!     │                          ├─► Done(Poisoned)          second panic across
//!     │                          │                           attempts: quarantined
//!     │                          └─► Done(KilledOverBudget)  RSS watchdog: grew past
//!     │                                                      k × admission estimate
//!     └─────► Done(Cancelled)    pre-dispatch cancel
//! ```
//!
//! Failures classify as **transient** (IO errors — a missing or
//! unreadable file may appear on retry — fault-injected stalls, expired
//! deadlines) or **permanent** (parse errors, bad config: the same
//! input fails the same way every time). Only transient failures and
//! first panics consume retry budget; `max_retries` defaults to `0`, so
//! without an explicit opt-in every job gets exactly one attempt and
//! the bit-identity gates observe the historical behavior unchanged.

use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use minoan_core::{MinoanConfig, MinoanEr, PipelineReport};
use minoan_datagen::Dataset;
use minoan_eval::MatchQuality;
use minoan_exec::{pool, Executor, ExecutorKind, PoolStats};
use minoan_kb::{parse, GroundTruth, Json, KbPair, Matching};
use minoan_obs::{trace, Level};

use crate::manifest::{JobInput, JobSpec, Manifest};
use crate::registry::IndexRegistry;
use crate::report::{current_rss_bytes, peak_rss_bytes, JobReport, JobStatus, ServeReport};

pub use minoan_exec::{CancelToken, Cancelled};

/// Every fleet and daemon setting, each a plain value with its default
/// in [`Default`]: the command line is the one source of them (a
/// manifest lists jobs only). Batch reads the fleet settings, `slots`
/// through `rss_kill_factor`; the daemon reads them all.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Max concurrently running jobs (`0` = one per available core).
    /// Always clamped to `available_parallelism()`, and to the job
    /// count in batch mode.
    pub slots: usize,
    /// Admission budget in bytes (`0` = unlimited).
    pub memory_budget_bytes: u64,
    /// Executor backend every job runs on.
    pub executor: ExecutorKind,
    /// Default per-job deadline in ms (`0` = none); a job's own
    /// `timeout_ms` overrides it.
    pub timeout_ms: u64,
    /// Default transient-failure retry budget; a job's own
    /// `max_retries` overrides it.
    pub max_retries: u32,
    /// RSS watchdog: kill a job whose measured RSS growth exceeds this
    /// factor times its admission estimate (`0` = off, the default —
    /// process-wide RSS attribution is too coarse to arm
    /// unconditionally).
    pub rss_kill_factor: f64,
    /// Overload shedding high-water mark on queue depth for daemon
    /// intake (`0` = never shed on depth). Batch mode never sheds: a
    /// manifest is admitted whole.
    pub shed_queue_depth: usize,
    /// Directory where `POST /v1/indexes` builds persist their index
    /// artifacts and where match queries load them from (`None` =
    /// index endpoints are disabled and report `unavailable`).
    pub index_dir: Option<std::path::PathBuf>,
    /// Byte budget for the in-memory cache of loaded index artifacts
    /// (`0` = evict after every query).
    pub index_cache_bytes: u64,
    /// Static bearer token; when set, every HTTP request must carry
    /// `Authorization: Bearer <token>` (constant-time comparison).
    /// Line-JSON frames carry no credentials, so a token requires HTTP
    /// only.
    pub auth_token: Option<String>,
    /// Cap on concurrent HTTP connection-handler threads (`0` counts
    /// as 1). A connection over the cap waits up to 25 ms for a handler
    /// to end, then gets a `503` + `Retry-After` and is closed — it
    /// never ties up a handler thread.
    pub max_connections: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            slots: 0,
            memory_budget_bytes: 0,
            executor: ExecutorKind::Pool,
            timeout_ms: 0,
            max_retries: 0,
            rss_kill_factor: 0.0,
            shed_queue_depth: DEFAULT_SHED_QUEUE_DEPTH,
            index_dir: None,
            index_cache_bytes: crate::registry::DEFAULT_CACHE_BYTES,
            auth_token: None,
            max_connections: crate::http::DEFAULT_MAX_CONNECTIONS,
        }
    }
}

/// Identifier of a job within one [`JobQueue`] lifetime: its submission
/// index, which is also its position in the final report.
pub type JobId = usize;

/// Observable lifecycle phase of a job in a [`JobQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Submitted, not yet dispatched to a fleet slot.
    Queued,
    /// Claimed by a fleet slot; its pipeline is running.
    Running,
    /// Terminal: a report exists (ok, failed or cancelled).
    Done,
}

impl JobPhase {
    /// Lower-case label (`queued` / `running` / `done`).
    pub fn label(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
        }
    }
}

/// What a [`JobQueue::cancel`] request found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued: it was flipped to a `Cancelled` report
    /// atomically and will never dispatch.
    CancelledQueued,
    /// The job was running: its token is set and the job unwinds to a
    /// `Cancelled` report at its executor's next wave or pool task.
    Cancelling,
    /// The job had already finished; its report is unchanged.
    AlreadyDone,
    /// No job with that id was ever submitted.
    Unknown,
}

impl CancelOutcome {
    /// Lower-case wire label.
    pub fn label(self) -> &'static str {
        match self {
            CancelOutcome::CancelledQueued => "cancelled",
            CancelOutcome::Cancelling => "cancelling",
            CancelOutcome::AlreadyDone => "done",
            CancelOutcome::Unknown => "unknown",
        }
    }
}

/// Live scheduling telemetry: a point-in-time aggregate over the whole
/// queue, cheap enough to compute on every status request or metrics
/// scrape. The scheduler always tracked these internally (admission
/// accounting, thread allotments, high-water marks); this is the view
/// that lets clients see them — the line-JSON `status` response embeds
/// it as `telemetry`, and `GET /v1/metrics` renders it as Prometheus
/// gauges.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueueStats {
    /// Jobs awaiting dispatch.
    pub queued: usize,
    /// Jobs currently running.
    pub running: usize,
    /// Terminal jobs that resolved successfully.
    pub done_ok: usize,
    /// Terminal jobs that failed.
    pub done_failed: usize,
    /// Terminal jobs that were cancelled.
    pub done_cancelled: usize,
    /// Terminal jobs whose deadline expired.
    pub done_timed_out: usize,
    /// Terminal jobs quarantined after repeated panics.
    pub done_poisoned: usize,
    /// Terminal jobs killed by the RSS watchdog.
    pub done_killed_over_budget: usize,
    /// Retry attempts the supervisor has re-queued (cumulative).
    pub retries_scheduled: u64,
    /// Submissions rejected by overload shedding (cumulative).
    pub shed_total: u64,
    /// Sum of footprint estimates of the jobs admitted right now — what
    /// the bounded-memory admission is charging against the budget.
    pub admitted_bytes: u64,
    /// The admission budget in bytes (`0` = unlimited).
    pub memory_budget_bytes: u64,
    /// Sum of the running jobs' allotments: each is its pool waves'
    /// minimum task count.
    pub threads_in_use: usize,
    /// Fleet slots (max concurrent jobs).
    pub slots: usize,
    /// High-water mark of concurrently running jobs.
    pub peak_running: usize,
    /// Cumulative wall-clock time over every finished job (includes
    /// input loading, unlike the stage histograms).
    pub wall_total: Duration,
    /// Sum of admission estimates of finished jobs.
    pub estimated_bytes_total: u64,
    /// Sum of measured peak-RSS deltas of finished jobs (see
    /// [`JobReport::peak_rss_delta_bytes`] for what a delta attributes).
    pub rss_delta_bytes_total: u64,
    /// Pool telemetry (worker count, queue depth, injected and
    /// per-worker task counters). `None` until the first
    /// pool-backed wave starts the process-wide pool — taking a
    /// snapshot never starts it.
    pub pool: Option<PoolStats>,
}

impl QueueStats {
    /// Total terminal jobs across every terminal state.
    pub fn done(&self) -> usize {
        self.done_ok
            + self.done_failed
            + self.done_cancelled
            + self.done_timed_out
            + self.done_poisoned
            + self.done_killed_over_budget
    }

    /// The telemetry as a flat JSON object — the `telemetry` member of
    /// the line-JSON `status` response and of HTTP `GET /v1/jobs`
    /// (durations in milliseconds).
    /// `stage_ms` holds the stage histograms' sums
    /// ([`crate::telemetry::STAGES`]). The `pool` member is the pool's
    /// counters, or `null` while the pool has not started.
    pub fn to_json(&self) -> Json {
        let ms = |d: Duration| Json::Num(d.as_secs_f64() * 1e3);
        let pool = match &self.pool {
            None => Json::Null,
            Some(p) => Json::obj([
                ("workers", Json::num(p.workers as f64)),
                ("queued_tasks", Json::num(p.queued as f64)),
                ("injected", Json::num(p.injected as f64)),
                ("tasks_total", Json::num(p.tasks_total() as f64)),
                (
                    "worker_tasks",
                    Json::arr(p.worker_tasks.iter().map(|&t| Json::num(t as f64))),
                ),
            ]),
        };
        Json::obj([
            ("queued", Json::num(self.queued as f64)),
            ("running", Json::num(self.running as f64)),
            ("done_ok", Json::num(self.done_ok as f64)),
            ("done_failed", Json::num(self.done_failed as f64)),
            ("done_cancelled", Json::num(self.done_cancelled as f64)),
            ("done_timed_out", Json::num(self.done_timed_out as f64)),
            ("done_poisoned", Json::num(self.done_poisoned as f64)),
            (
                "done_killed_over_budget",
                Json::num(self.done_killed_over_budget as f64),
            ),
            (
                "retries_scheduled",
                Json::num(self.retries_scheduled as f64),
            ),
            ("shed_total", Json::num(self.shed_total as f64)),
            ("admitted_bytes", Json::num(self.admitted_bytes as f64)),
            (
                "memory_budget_bytes",
                Json::num(self.memory_budget_bytes as f64),
            ),
            ("threads_in_use", Json::num(self.threads_in_use as f64)),
            ("slots", Json::num(self.slots as f64)),
            ("peak_running", Json::num(self.peak_running as f64)),
            (
                "estimated_bytes_total",
                Json::num(self.estimated_bytes_total as f64),
            ),
            (
                "rss_delta_bytes_total",
                Json::num(self.rss_delta_bytes_total as f64),
            ),
            (
                "stage_ms",
                Json::obj(
                    crate::telemetry::stage_histograms()
                        .map(|(stage, h)| (stage, Json::Num(h.snapshot().sum_micros as f64 / 1e3))),
                ),
            ),
            ("wall_ms_total", ms(self.wall_total)),
            ("pool", pool),
        ])
    }
}

/// Point-in-time view of one queue entry, for status reporting.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// Submission index.
    pub id: JobId,
    /// Job name (not necessarily unique across a daemon's lifetime).
    pub name: String,
    /// Current phase.
    pub phase: JobPhase,
    /// Terminal status, present exactly when `phase == Done`. The
    /// phase/status split is what makes "running **and** cancelled"
    /// unrepresentable in a snapshot.
    pub status: Option<JobStatus>,
}

/// One queue entry and its lifecycle state.
struct JobEntry {
    spec: JobSpec,
    /// The calibrated footprint estimate charged against the admission
    /// budget (raw × the profile's learned accuracy factor).
    estimate: u64,
    /// The uncalibrated [`JobSpec::estimated_bytes`] — the denominator
    /// calibration observations are measured against, so learned
    /// factors never compound on themselves.
    raw_estimate: u64,
    cancel: CancelToken,
    phase: Phase,
    /// Resolved run deadline (per-job `timeout_ms` over the fleet
    /// default; `None` = no deadline). Armed on the token at dispatch,
    /// re-armed fresh on every retry attempt.
    timeout: Option<Duration>,
    /// Resolved transient-failure retry budget.
    max_retries: u32,
    /// Completed attempts beyond the first (0 on the first run).
    attempt: u32,
    /// Attempts that ended in a panic; [`POISON_PANICS`] quarantines.
    panics: u32,
    /// Backoff gate: a re-queued retry is not dispatched before this.
    not_before: Option<Instant>,
    /// When the job (re-)entered the pending queue; dispatch observes
    /// the queue-wait histogram against it (backoff delay included).
    queued_at: Instant,
    /// The process-unique trace ID of each dispatched attempt, in
    /// attempt order — the key into the trace ring for
    /// `GET /v1/jobs/{id}/trace`. Fresh per attempt, so a retried
    /// job's span trees never interleave.
    trace_ids: Vec<u64>,
}

/// Internal phase storage; `Done` holds the report behind an `Arc`, so
/// a [`JobQueue::wait`] shares it instead of copying every matched pair.
enum Phase {
    Queued,
    Running,
    Done(Arc<JobReport>),
}

impl Phase {
    fn observable(&self) -> JobPhase {
        match self {
            Phase::Queued => JobPhase::Queued,
            Phase::Running => JobPhase::Running,
            Phase::Done(_) => JobPhase::Done,
        }
    }
}

/// State behind the queue lock.
struct QueueInner {
    /// Every job ever submitted, indexed by [`JobId`].
    entries: Vec<JobEntry>,
    /// Ids still awaiting dispatch, in strict submission order.
    pending: VecDeque<JobId>,
    /// Sum of footprint estimates of running jobs.
    in_flight_bytes: u64,
    /// Currently running jobs.
    active: usize,
    /// High-water mark of `active`.
    peak_active: usize,
    /// Sum of thread allotments of running jobs.
    threads_in_use: usize,
    /// No further submissions; workers exit once drained.
    closed: bool,
    /// Cumulative retry attempts re-queued by the supervisor.
    retries_scheduled: u64,
    /// Cumulative submissions rejected by overload shedding.
    shed_total: u64,
}

impl QueueInner {
    /// Whether a patch of `index` is queued or running.
    fn patching(&self, index: &str) -> bool {
        self.entries.iter().any(|e| {
            !matches!(e.phase, Phase::Done(_))
                && matches!(&e.spec.input, JobInput::IndexPatch { id, .. } if id == index)
        })
    }

    /// The single place job phases change. Legal transitions are
    /// `Queued → Running` (dispatch), `Queued → Done` (pre-dispatch
    /// cancel), `Running → Done` (completion) and `Running → Queued`
    /// (transient-failure retry re-entering the queue); anything else
    /// is a scheduler bug and panics rather than producing a report
    /// that contradicts the phase history.
    fn transition(&mut self, id: JobId, to: Phase) {
        let entry = &mut self.entries[id];
        let ok = matches!(
            (&entry.phase, &to),
            (Phase::Queued, Phase::Running)
                | (Phase::Queued, Phase::Done(_))
                | (Phase::Running, Phase::Done(_))
                | (Phase::Running, Phase::Queued)
        );
        assert!(
            ok,
            "invalid transition for job #{id}: {:?} -> {:?}",
            entry.phase.observable(),
            to.observable()
        );
        entry.phase = to;
    }
}

/// A live, bounded-memory admission queue of resolution jobs — the
/// scheduling engine shared by batch mode and the daemon. See the
/// module docs for the scheduling policy.
pub struct JobQueue {
    inner: Mutex<QueueInner>,
    /// Wakes workers: new pending work, freed budget, or close().
    admit: Condvar,
    /// Wakes [`JobQueue::wait`]ers on any completion.
    done: Condvar,
    /// At most this many jobs run at once (never more than `workers`),
    /// and the fleet runner starts exactly this many workers.
    slots: usize,
    /// The process-wide pool's worker count, which claims divide.
    workers: usize,
    budget_bytes: u64,
    /// Fleet default per-job deadline in ms (`0` = none); per-job
    /// `timeout_ms` overrides.
    default_timeout_ms: u64,
    /// Fleet default retry budget; per-job `max_retries` overrides.
    default_max_retries: u32,
    /// Shedding high-water mark on pending depth (`0` = off).
    shed_max_queued: usize,
    /// Shedding high-water mark on admitted + pending estimate bytes
    /// (`0` = off).
    shed_max_bytes: u64,
    /// Self-calibrating admission: per-profile running ratio of measured
    /// `peak_rss_delta_bytes` to the raw footprint estimate, learned
    /// from finished jobs (EWMA) and applied — clamped — to future
    /// submissions of the same profile. Separate from the queue lock:
    /// calibration reads/writes never contend with dispatch.
    calibration: Mutex<HashMap<&'static str, f64>>,
}

/// Default overload-shedding high-water mark on queue depth for daemon
/// intake: submissions beyond this many pending jobs are rejected as
/// retryable so clients back off instead of piling on. Batch manifests
/// are exempt (admitted whole). The default of
/// [`ServeOptions::shed_queue_depth`], where `0` disables depth
/// shedding entirely.
pub const DEFAULT_SHED_QUEUE_DEPTH: usize = 256;

/// Admitted-bytes shedding: with a memory budget configured, intake
/// sheds once `admitted + pending` estimates exceed this factor times
/// the budget — queueing more than a few budgets' worth of work only
/// buys latency, never throughput.
pub const SHED_BYTES_FACTOR: u64 = 4;

/// A job whose attempts panic this many times is quarantined as
/// [`JobStatus::Poisoned`] regardless of remaining retry budget.
pub const POISON_PANICS: u32 = 2;

/// First retry waits this long (doubling per attempt, jittered).
pub const RETRY_BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Retry backoff delays cap here.
pub const RETRY_BACKOFF_CAP: Duration = Duration::from_secs(2);

/// RSS watchdog sampling interval.
const WATCHDOG_INTERVAL: Duration = Duration::from_millis(10);

/// Smallest RSS growth the watchdog treats as a breach. It samples the
/// *process*, so for a job whose estimate is a few KiB, pages touched by
/// anything else — allocator arenas, pool worker stacks, a neighbor's
/// buffers — would otherwise outgrow `estimate × factor` and kill a job
/// that did nothing wrong.
const WATCHDOG_NOISE_FLOOR: u64 = 8 << 20;

/// Why [`JobQueue::submit`] refused a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is closed to new submissions (shutdown in progress).
    /// Not retryable: the daemon is going away.
    Closed,
    /// Load shedding: a high-water mark (queue depth or admitted-bytes)
    /// is crossed. Retryable — the client should back off and resubmit.
    Overloaded(String),
    /// A patch for the same index is already queued or running. Not
    /// retryable as such: the client waits for the in-flight patch.
    Conflict(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Closed => f.write_str("queue is closed to new submissions"),
            SubmitError::Overloaded(detail) => write!(f, "overloaded: {detail}"),
            SubmitError::Conflict(detail) => f.write_str(detail),
        }
    }
}

impl std::error::Error for SubmitError {}

/// EWMA weight of the newest estimate-accuracy observation.
const CALIBRATION_ALPHA: f64 = 0.5;
/// Clamp on the applied calibration factor, so one wild measurement
/// (or an RSS high-water plateau) cannot collapse or explode admission.
const CALIBRATION_FACTOR_RANGE: (f64, f64) = (0.25, 8.0);

impl JobQueue {
    /// A queue of `slots` concurrent jobs, clamped to
    /// `1..=`[`pool::default_workers`], with a `budget_bytes` admission
    /// budget (`0` = unlimited).
    pub fn new(slots: usize, budget_bytes: u64) -> JobQueue {
        let workers = pool::default_workers();
        JobQueue {
            inner: Mutex::new(QueueInner {
                entries: Vec::new(),
                pending: VecDeque::new(),
                in_flight_bytes: 0,
                active: 0,
                peak_active: 0,
                threads_in_use: 0,
                closed: false,
                retries_scheduled: 0,
                shed_total: 0,
            }),
            admit: Condvar::new(),
            done: Condvar::new(),
            slots: slots.clamp(1, workers),
            workers,
            budget_bytes,
            default_timeout_ms: 0,
            default_max_retries: 0,
            shed_max_queued: 0,
            shed_max_bytes: 0,
            calibration: Mutex::new(HashMap::new()),
        }
    }

    /// Sets the fleet-level lifecycle defaults new submissions resolve
    /// against: per-job deadline (`0` = none) and transient-failure
    /// retry budget. Builder-style; call before sharing the queue.
    pub fn with_job_defaults(mut self, timeout_ms: u64, max_retries: u32) -> JobQueue {
        self.default_timeout_ms = timeout_ms;
        self.default_max_retries = max_retries;
        self
    }

    /// Arms overload shedding: [`JobQueue::submit`] rejects with
    /// [`SubmitError::Overloaded`] once `max_queued` jobs are pending
    /// (`0` = no depth limit) or admitted + pending estimates exceed
    /// `max_bytes` (`0` = no byte limit). Builder-style; the daemon
    /// arms this, batch mode does not.
    pub fn with_shed_limits(mut self, max_queued: usize, max_bytes: u64) -> JobQueue {
        self.shed_max_queued = max_queued;
        self.shed_max_bytes = max_bytes;
        self
    }

    /// Fleet slots: the most jobs this queue ever runs at once.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Admission budget in bytes (`0` = unlimited).
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// The learned estimate-accuracy ratio for a calibration bucket
    /// (see [`JobSpec::profile_key`]), or `None` before any job of that
    /// profile finished with a usable measurement.
    pub fn calibration_ratio(&self, profile: &str) -> Option<f64> {
        self.calibration
            .lock()
            .expect("calibration lock")
            .get(profile)
            .copied()
    }

    /// Applies the profile's learned ratio (clamped to
    /// [`CALIBRATION_FACTOR_RANGE`]) to a raw footprint estimate. An
    /// unseen profile charges the raw estimate unchanged.
    fn calibrated_estimate(&self, spec: &JobSpec, raw: u64) -> u64 {
        let Some(ratio) = self.calibration_ratio(spec.profile_key()) else {
            return raw;
        };
        let (lo, hi) = CALIBRATION_FACTOR_RANGE;
        (raw as f64 * ratio.clamp(lo, hi)).round() as u64
    }

    /// Feeds one finished job's measured `peak_rss_delta_bytes` back
    /// into the profile's running ratio. Skipped when either side of
    /// the ratio is zero: a zero raw estimate carries no signal, and a
    /// zero delta usually means the process high-water mark was already
    /// above this job's footprint (VmHWM never decreases), not that the
    /// job was free.
    fn observe_calibration(&self, profile: &'static str, raw: u64, delta: u64) {
        if raw == 0 || delta == 0 {
            return;
        }
        let observed = delta as f64 / raw as f64;
        let mut map = self.calibration.lock().expect("calibration lock");
        let ratio = map.entry(profile).or_insert(observed);
        *ratio = (1.0 - CALIBRATION_ALPHA) * *ratio + CALIBRATION_ALPHA * observed;
    }

    /// Submits a job, returning its id (= submission index). Fails with
    /// [`SubmitError::Closed`] once the queue is
    /// [closed](JobQueue::close), with [`SubmitError::Conflict`] for a
    /// patch of an index another patch of which is queued or running —
    /// two patches would both start from the same copy, and the later
    /// to publish would drop the other's ops — and, when [shedding is
    /// armed](JobQueue::with_shed_limits), with the retryable
    /// [`SubmitError::Overloaded`] when a high-water mark is crossed.
    /// Each check and the admission it guards happen under one lock.
    /// The footprint estimate is taken now, before any input is loaded;
    /// the job's deadline and retry budget resolve against the fleet
    /// defaults now too.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        let raw_estimate = spec.estimated_bytes();
        let estimate = self.calibrated_estimate(&spec, raw_estimate);
        let timeout_ms = spec.timeout_ms.unwrap_or(self.default_timeout_ms);
        let timeout = (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms));
        let max_retries = spec.max_retries.unwrap_or(self.default_max_retries);
        let mut guard = self.lock();
        if guard.closed {
            return Err(SubmitError::Closed);
        }
        if let JobInput::IndexPatch { id: index, .. } = &spec.input {
            if guard.patching(index) {
                return Err(SubmitError::Conflict(format!(
                    "a patch for index {index:?} is already queued or running; wait for it first"
                )));
            }
        }
        if self.shed_max_queued > 0 && guard.pending.len() >= self.shed_max_queued {
            guard.shed_total += 1;
            let detail = format!(
                "{} jobs pending (high-water mark {})",
                guard.pending.len(),
                self.shed_max_queued
            );
            drop(guard);
            trace::emit_job(Level::Warn, "job.shed", -1, 0, detail.clone());
            return Err(SubmitError::Overloaded(detail));
        }
        if self.shed_max_bytes > 0 {
            let pending_bytes: u64 = guard
                .pending
                .iter()
                .map(|&p| guard.entries[p].estimate)
                .sum();
            let charged = guard
                .in_flight_bytes
                .saturating_add(pending_bytes)
                .saturating_add(estimate);
            if charged > self.shed_max_bytes {
                guard.shed_total += 1;
                let detail = format!(
                    "{charged} estimated bytes admitted or pending \
                     (high-water mark {})",
                    self.shed_max_bytes
                );
                drop(guard);
                trace::emit_job(Level::Warn, "job.shed", -1, 0, detail.clone());
                return Err(SubmitError::Overloaded(detail));
            }
        }
        let id = guard.entries.len();
        let name = spec.name.clone();
        guard.entries.push(JobEntry {
            spec,
            estimate,
            raw_estimate,
            cancel: CancelToken::new(),
            phase: Phase::Queued,
            timeout,
            max_retries,
            attempt: 0,
            panics: 0,
            not_before: None,
            queued_at: Instant::now(),
            trace_ids: Vec::new(),
        });
        guard.pending.push_back(id);
        drop(guard);
        trace::emit_job(
            Level::Info,
            "job.queued",
            id as i64,
            0,
            format!("name={name:?} estimate_bytes={estimate}"),
        );
        self.admit.notify_all();
        Ok(id)
    }

    /// Cancels a job. The queued-or-running decision and the resulting
    /// state change happen atomically under the queue lock, so a cancel
    /// racing dispatch resolves to exactly one of the two outcomes —
    /// never a job that is both running and cancelled.
    pub fn cancel(&self, id: JobId) -> CancelOutcome {
        let mut guard = self.lock();
        let Some(phase) = guard.entries.get(id).map(|e| e.phase.observable()) else {
            return CancelOutcome::Unknown;
        };
        match phase {
            JobPhase::Queued => {
                let entry = &guard.entries[id];
                let mut report = JobReport::empty(&entry.spec.name, JobStatus::Cancelled);
                report.estimated_bytes = entry.estimate;
                guard.pending.retain(|&p| p != id);
                guard.transition(id, Phase::Done(Arc::new(report)));
                trace::emit_job(
                    Level::Info,
                    "job.done",
                    id as i64,
                    0,
                    "status=cancelled (pre-dispatch)".to_string(),
                );
                drop(guard);
                // The head of the queue changed; a worker blocked on
                // admission for this job must re-evaluate.
                self.admit.notify_all();
                self.done.notify_all();
                CancelOutcome::CancelledQueued
            }
            JobPhase::Running => {
                guard.entries[id].cancel.cancel();
                CancelOutcome::Cancelling
            }
            JobPhase::Done => CancelOutcome::AlreadyDone,
        }
    }

    /// Requests cancellation of **every** job: queued jobs flip to
    /// `Cancelled` reports, running jobs get their tokens set. Used by
    /// the daemon's immediate-shutdown path.
    pub fn cancel_all(&self) {
        let ids: Vec<JobId> = (0..self.lock().entries.len()).collect();
        for id in ids {
            self.cancel(id);
        }
    }

    /// Closes the queue: no further submissions; workers exit once the
    /// pending queue drains.
    pub fn close(&self) {
        self.lock().closed = true;
        self.admit.notify_all();
    }

    /// Snapshot of every submitted job, in submission order.
    pub fn snapshot(&self) -> Vec<JobSnapshot> {
        Self::snapshot_of(&self.lock())
    }

    /// Snapshot of one job (`None` for an unknown id) — avoids cloning
    /// every entry when a status request names a single job.
    pub fn job_snapshot(&self, id: JobId) -> Option<JobSnapshot> {
        let guard = self.lock();
        guard.entries.get(id).map(|e| Self::snapshot_entry(id, e))
    }

    /// Snapshot and telemetry from **one** lock acquisition, so the
    /// counts can never contradict the job list they accompany (a job
    /// finishing between two separate calls would).
    pub fn snapshot_and_stats(&self) -> (Vec<JobSnapshot>, QueueStats) {
        let guard = self.lock();
        (Self::snapshot_of(&guard), self.stats_of(&guard))
    }

    fn snapshot_of(guard: &QueueInner) -> Vec<JobSnapshot> {
        guard
            .entries
            .iter()
            .enumerate()
            .map(|(id, e)| Self::snapshot_entry(id, e))
            .collect()
    }

    fn snapshot_entry(id: JobId, e: &JobEntry) -> JobSnapshot {
        JobSnapshot {
            id,
            name: e.spec.name.clone(),
            phase: e.phase.observable(),
            status: match &e.phase {
                Phase::Done(r) => Some(r.status.clone()),
                _ => None,
            },
        }
    }

    /// Blocks until job `id` reaches a terminal report and returns a
    /// shared handle to it (`None` for an unknown id). Jobs always
    /// terminate — queued work is either dispatched or flipped to
    /// `Cancelled` — so this cannot wait forever once workers are
    /// running.
    pub fn wait(&self, id: JobId) -> Option<Arc<JobReport>> {
        let mut guard = self.lock();
        loop {
            match guard.entries.get(id) {
                None => return None,
                Some(JobEntry {
                    phase: Phase::Done(report),
                    ..
                }) => return Some(Arc::clone(report)),
                Some(_) => guard = self.done.wait(guard).expect("queue lock"),
            }
        }
    }

    /// Highest number of jobs observed running at once.
    pub fn peak_concurrent(&self) -> usize {
        self.lock().peak_active
    }

    /// The trace IDs of a job's dispatched attempts, in attempt order
    /// (`None` for an unknown id; empty before the first dispatch).
    /// Keys into the trace ring for the span-tree endpoints, and what
    /// the chaos suite asserts are pairwise distinct across retries.
    pub fn trace_ids(&self, id: JobId) -> Option<Vec<u64>> {
        self.lock().entries.get(id).map(|e| e.trace_ids.clone())
    }

    /// Live scheduling telemetry: phase counts, admitted footprint vs.
    /// budget, thread allotments and cumulative per-stage timings over
    /// finished jobs — one lock acquisition, one pass over the entries.
    pub fn stats(&self) -> QueueStats {
        self.stats_of(&self.lock())
    }

    fn stats_of(&self, guard: &QueueInner) -> QueueStats {
        let mut stats = QueueStats {
            admitted_bytes: guard.in_flight_bytes,
            memory_budget_bytes: self.budget_bytes,
            threads_in_use: guard.threads_in_use,
            slots: self.slots,
            peak_running: guard.peak_active,
            retries_scheduled: guard.retries_scheduled,
            shed_total: guard.shed_total,
            pool: minoan_exec::pool::try_stats(),
            ..QueueStats::default()
        };
        for entry in &guard.entries {
            match &entry.phase {
                Phase::Queued => stats.queued += 1,
                Phase::Running => stats.running += 1,
                Phase::Done(report) => {
                    match &report.status {
                        JobStatus::Ok => stats.done_ok += 1,
                        JobStatus::Failed(_) => stats.done_failed += 1,
                        JobStatus::Cancelled => stats.done_cancelled += 1,
                        JobStatus::TimedOut => stats.done_timed_out += 1,
                        JobStatus::Poisoned(_) => stats.done_poisoned += 1,
                        JobStatus::KilledOverBudget => stats.done_killed_over_budget += 1,
                    }
                    stats.wall_total += report.wall;
                    stats.estimated_bytes_total += report.estimated_bytes;
                    stats.rss_delta_bytes_total += report.peak_rss_delta_bytes.unwrap_or(0);
                }
            }
        }
        stats
    }

    /// One fleet worker: claim the next admissible job, run it, repeat
    /// until the queue is closed and drained. Workers beyond
    /// [`JobQueue::slots`] only park, since no more jobs than that are
    /// ever dispatched at once; the fleet runner starts exactly `slots`.
    /// `on_done` fires exactly once per terminal report *this worker
    /// produced*, in completion order, outside the queue lock and
    /// **before** waiters on that job are woken, so whatever it does
    /// with the report is done when a `wait` returns. A retried
    /// attempt is not terminal and fires nothing; a job
    /// [cancelled](JobQueue::cancel) while still queued never reaches a
    /// worker, so it fires nothing either, though its `Cancelled`
    /// report is in [`JobQueue::into_reports`].
    pub fn worker(&self, opts: &ServeOptions, on_done: &(impl Fn(&JobReport) + Sync)) {
        while let Some((id, allot)) = self.claim() {
            // Every attempt gets a fresh trace: its spans and
            // events never interleave with a previous attempt's.
            let job_trace = trace::new_trace_id();
            let (spec, estimate, raw_estimate, job_cancel, timeout, attempt) = {
                let mut guard = self.lock();
                let e = &mut guard.entries[id];
                e.trace_ids.push(job_trace);
                (
                    e.spec.clone(),
                    e.estimate,
                    e.raw_estimate,
                    e.cancel.clone(),
                    e.timeout,
                    e.attempt,
                )
            };
            trace::emit_job(
                Level::Info,
                "job.running",
                id as i64,
                job_trace,
                format!("name={:?} attempt={attempt} threads={allot}", spec.name),
            );
            // The deadline clock starts at dispatch (queue wait
            // does not count) and restarts on every attempt.
            if let Some(timeout) = timeout {
                job_cancel.set_deadline(timeout);
            }
            let trace_binding = trace::trace_scope(job_trace, id as i64);
            let (mut report, class) = run_job(&spec, opts, allot, estimate, &job_cancel);
            drop(trace_binding);
            // Self-calibrating admission: successful jobs teach
            // the profile's estimate-accuracy ratio, and a
            // charged estimate off by more than 2× either way is
            // worth an operator-visible warning.
            if report.status.is_ok() {
                if let Some(delta) = report.peak_rss_delta_bytes {
                    self.observe_calibration(spec.profile_key(), raw_estimate, delta);
                }
                if let Some(ratio) = report.rss_estimate_ratio() {
                    if !(0.5..=2.0).contains(&ratio) {
                        minoan_obs::warn!(
                            "serve.admission",
                            "job {:?}: admission estimate off by {ratio:.2}x \
                             (charged {estimate} bytes, measured {} bytes); future \
                             {:?} submissions will use the recalibrated ratio",
                            spec.name,
                            report.peak_rss_delta_bytes.unwrap_or(0),
                            spec.profile_key(),
                        );
                    }
                }
            }
            let mut guard = self.lock();
            guard.active -= 1;
            guard.in_flight_bytes -= estimate;
            guard.threads_in_use -= allot;
            let entry = &mut guard.entries[id];
            if matches!(class, EndClass::Panicked) {
                entry.panics += 1;
            }
            // Quarantine before the retry decision: the second
            // panic is terminal even with retry budget left.
            let poisoned = matches!(class, EndClass::Panicked) && entry.panics >= POISON_PANICS;
            // An operator cancel that raced a transient failure
            // is still a cancel; never resurrect the job.
            let user_cancelled = entry.cancel.reason() == Some(minoan_exec::CancelReason::User);
            let retry = !poisoned
                && !user_cancelled
                && !matches!(class, EndClass::Final)
                && entry.attempt < entry.max_retries;
            if retry {
                entry.attempt += 1;
                entry.cancel = CancelToken::new();
                let delay = minoan_exec::backoff::jittered_delay(
                    RETRY_BACKOFF_BASE,
                    entry.attempt - 1,
                    RETRY_BACKOFF_CAP,
                    retry_seed(id, entry.attempt),
                );
                entry.not_before = Some(Instant::now() + delay);
                entry.queued_at = Instant::now();
                let next_attempt = entry.attempt;
                guard.retries_scheduled += 1;
                guard.transition(id, Phase::Queued);
                guard.pending.push_back(id);
                drop(guard);
                trace::emit_job(
                    Level::Warn,
                    "job.retry",
                    id as i64,
                    job_trace,
                    format!(
                        "attempt {attempt} ended {}; attempt {next_attempt} \
                         re-queued after {delay:?}",
                        report.status.label()
                    ),
                );
                self.admit.notify_all();
                // Not terminal: no on_done, no done notification.
                continue;
            }
            if poisoned {
                let detail = match &report.status {
                    JobStatus::Failed(e) => e.clone(),
                    other => other.label().to_string(),
                };
                report.status = JobStatus::Poisoned(detail);
            }
            // The job's slot, bytes and threads are free, but
            // its terminal phase is published only after
            // `on_done` returned: a `wait` caller woken by
            // `done` must find what `on_done` did finished.
            // Nothing else moves a `Running` entry, so the phase
            // is still ours to set.
            drop(guard);
            self.admit.notify_all();
            on_done(&report);
            if let Some(timings) = &report.timings {
                crate::telemetry::observe_stages(timings);
            }
            let ended = format!(
                "status={} wall_ms={:.1}",
                report.status.label(),
                report.wall.as_secs_f64() * 1e3
            );
            self.lock().transition(id, Phase::Done(Arc::new(report)));
            trace::emit_job(Level::Info, "job.done", id as i64, job_trace, ended);
            self.done.notify_all();
        }
    }

    /// The admission loop: blocks until the head of the queue fits the
    /// memory budget, returning its id and thread allotment, or until
    /// the queue is closed and drained (`None`: the worker exits).
    fn claim(&self) -> Option<(JobId, usize)> {
        let mut guard = self.lock();
        loop {
            let Some(&id) = guard.pending.front() else {
                // Drained. A closed queue gets no more work, so the
                // worker exits (jobs still running elsewhere are owned
                // by their own workers); an open queue blocks for the
                // next submission or close().
                if guard.closed {
                    return None;
                }
                guard = self.admit.wait(guard).expect("queue lock");
                continue;
            };
            // Backoff gate: a retried job at the head waits out its
            // delay here. FIFO order is preserved — jobs behind it wait
            // too, which keeps retry scheduling deterministic.
            if let Some(nb) = guard.entries[id].not_before {
                let now = Instant::now();
                if now < nb {
                    let (g, _) = self
                        .admit
                        .wait_timeout(guard, nb - now)
                        .expect("queue lock");
                    guard = g;
                    continue;
                }
            }
            let est = guard.entries[id].estimate;
            if guard.active >= self.slots {
                guard = self.admit.wait(guard).expect("queue lock");
                continue;
            }
            let fits = self.budget_bytes == 0
                || guard.active == 0
                || guard.in_flight_bytes.saturating_add(est) <= self.budget_bytes;
            if fits {
                let allot = allotment(
                    self.workers,
                    guard.threads_in_use,
                    self.slots - guard.active,
                    guard.pending.len(),
                );
                crate::telemetry::QUEUE_WAIT.observe(guard.entries[id].queued_at.elapsed());
                guard.pending.pop_front();
                guard.transition(id, Phase::Running);
                guard.active += 1;
                guard.peak_active = guard.peak_active.max(guard.active);
                guard.in_flight_bytes += est;
                guard.threads_in_use += allot;
                return Some((id, allot));
            }
            guard = self.admit.wait(guard).expect("queue lock");
        }
    }

    /// Consumes the queue, returning every report in submission order.
    /// Call after all workers have exited; panics if a job never
    /// reached a terminal state (a scheduler bug).
    pub fn into_reports(self) -> Vec<JobReport> {
        self.inner
            .into_inner()
            .expect("no worker panicked holding the queue lock")
            .entries
            .into_iter()
            .enumerate()
            .map(|(id, e)| match e.phase {
                Phase::Done(report) => Arc::unwrap_or_clone(report),
                other => panic!(
                    "job #{id} ({}) ended {:?} without a report",
                    e.spec.name,
                    other.observable()
                ),
            })
            .collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner> {
        self.inner.lock().expect("queue lock")
    }

    /// Runs `remove` under the lock that admits patches, unless a patch
    /// of `index` is queued or running: then [`SubmitError::Conflict`],
    /// and `remove` does not run. A patch in flight would persist its
    /// result after the removal and bring the index back; holding the
    /// lock through `remove` keeps a new patch from being admitted
    /// between the check and the removal.
    pub fn unless_patching<R>(
        &self,
        index: &str,
        remove: impl FnOnce() -> R,
    ) -> Result<R, SubmitError> {
        let guard = self.lock();
        if guard.patching(index) {
            return Err(SubmitError::Conflict(format!(
                "a patch for index {index:?} is queued or running; wait for it before deleting the index"
            )));
        }
        let removed = remove();
        drop(guard);
        Ok(removed)
    }
}

/// How many pool workers one claim is allotted: the `workers` not
/// already `in_use` by running jobs, divided over the slots left to
/// fill (`free_slots`, this claim's included, but no more than the
/// `pending` jobs that could take them), and never less than 1. While
/// the fleet is full the allotments sum to `workers`; as the queue
/// drains, the stragglers widen, and a lone job gets every worker.
///
/// On the pool backend an allotment is each wave's minimum task count
/// (the pool itself always runs `available_parallelism()` workers).
/// The policy is not "all workers for everyone": on `fleet_small`
/// (768 file jobs over 64 small pairs, 2 cores, seeds 31–33, 3
/// alternating pairs of runs), giving every job all workers raised
/// p50 from 3 653 / 3 354 / 3 701 ms to 4 198 / 4 251 / 4 243 ms and
/// cut throughput from 210 / 229 / 208 to 183 / 181 / 181 jobs per
/// second. Nor is it 1 for everyone: a lone `demo yago --scale 2` at a
/// minimum of 1 task per wave ran about 10 % slower than at 2 (median
/// 368 against 333 ms over 5 runs each).
pub(crate) fn allotment(workers: usize, in_use: usize, free_slots: usize, pending: usize) -> usize {
    let fill = free_slots.min(pending).max(1);
    (workers.saturating_sub(in_use) / fill).max(1)
}

/// The queue one fleet drains, built from `opts` alone: `slots` (`0` =
/// all cores, never more than `max_jobs`), the memory budget and the
/// per-job lifecycle defaults. Batch passes its job count; the daemon
/// passes `usize::MAX` and arms shedding on top. Either way
/// [`JobQueue::new`] clamps the slots to the cores.
pub(crate) fn fleet_queue(opts: &ServeOptions, max_jobs: usize) -> JobQueue {
    let slots = match opts.slots {
        0 => usize::MAX,
        slots => slots,
    };
    JobQueue::new(slots.min(max_jobs), opts.memory_budget_bytes)
        .with_job_defaults(opts.timeout_ms, opts.max_retries)
}

/// The one fleet runner: starts a worker per slot
/// ([`JobQueue::slots`]), runs `intake` beside them, closes the queue
/// when the intake returns (on error too), joins every worker and
/// reports. Batch submits and closes before calling this, with an
/// intake that does nothing; the daemon's intake is its accept loops.
pub(crate) fn run_fleet<E>(
    queue: JobQueue,
    opts: &ServeOptions,
    on_done: &(impl Fn(&JobReport) + Sync),
    intake: impl FnOnce(&JobQueue) -> Result<(), E>,
) -> Result<ServeReport, E> {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..queue.slots() {
            scope.spawn(|| queue.worker(opts, on_done));
        }
        let intake_result = intake(&queue);
        queue.close();
        intake_result
    })?;
    Ok(ServeReport {
        slots: queue.slots(),
        memory_budget_bytes: queue.budget_bytes(),
        peak_concurrent_jobs: queue.peak_concurrent(),
        jobs: queue.into_reports(),
        wall: t0.elapsed(),
        peak_rss_bytes: peak_rss_bytes(),
    })
}

/// Runs every job of `manifest` and returns the fleet report.
pub fn run_batch(manifest: &Manifest, opts: &ServeOptions) -> ServeReport {
    run_batch_streaming(manifest, opts, |_| {})
}

/// Like [`run_batch`], but streaming: `on_done` is invoked once per job
/// as it finishes (in completion order, possibly from multiple worker
/// threads), before the fleet report is assembled. The whole manifest
/// is submitted and the queue closed before any worker starts, so
/// every claim sees the full pending queue when it divides threads.
pub fn run_batch_streaming(
    manifest: &Manifest,
    opts: &ServeOptions,
    on_done: impl Fn(&JobReport) + Sync,
) -> ServeReport {
    let queue = fleet_queue(opts, manifest.jobs.len());
    for job in &manifest.jobs {
        queue
            .submit(job.clone())
            .expect("the batch queue is open while submitting");
    }
    queue.close();
    let Ok(report) = run_fleet(queue, opts, &on_done, |_| Ok::<(), Infallible>(()));
    report
}

/// How a job ended without producing a normal report. `transient`
/// separates failures worth retrying (I/O errors, injected faults)
/// from deterministic ones (parse errors, bad config) that would fail
/// identically on every attempt; a panic carries its message.
enum JobEnd {
    Failed { error: String, transient: bool },
    Panicked(String),
    Cancelled,
}

impl JobEnd {
    fn permanent(error: String) -> Self {
        JobEnd::Failed {
            error,
            transient: false,
        }
    }

    fn transient(error: String) -> Self {
        JobEnd::Failed {
            error,
            transient: true,
        }
    }
}

/// The retry classification of a finished attempt, decided by
/// [`run_job`] and consumed by the worker's retry logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EndClass {
    /// Terminal regardless of retry budget: success, permanent failure,
    /// operator cancel, or an over-budget kill.
    Final,
    /// Worth retrying under the job's `max_retries` budget: I/O errors,
    /// injected faults, deadline expiry.
    Transient,
    /// A panic: retryable once, but the second panic poisons the job
    /// (see [`POISON_PANICS`]).
    Panicked,
}

/// Deterministic per-(job, attempt) seed for backoff jitter. Same
/// splitmix64 finalizer the fault plan uses; wall-clock randomness
/// would break replayable scheduling.
fn retry_seed(id: JobId, attempt: u32) -> u64 {
    let mut z = (id as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(attempt));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Watches the process RSS while one job runs and cancels its token
/// with [`CancelReason::OverBudget`](minoan_exec::CancelReason::OverBudget)
/// if the growth over `baseline` exceeds `limit` bytes. Returns a
/// handle; set the flag and join to stop. Attribution is process-wide, hence opt-in via
/// [`ServeOptions::rss_kill_factor`].
fn spawn_rss_watchdog(
    cancel: CancelToken,
    baseline: u64,
    limit: u64,
) -> (Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        while !stop2.load(Ordering::Acquire) && !cancel.is_cancelled() {
            if let Some(now) = current_rss_bytes() {
                if now.saturating_sub(baseline) > limit {
                    cancel.cancel_with(minoan_exec::CancelReason::OverBudget);
                    return;
                }
            }
            std::thread::sleep(WATCHDOG_INTERVAL);
        }
    });
    (stop, handle)
}

/// Runs one job start to finish, converting every failure mode — input
/// errors, config errors, panics — into a `Failed` report and a
/// cancellation into a `Cancelled`, `TimedOut`, or `KilledOverBudget`
/// one (the token's [`CancelReason`](minoan_exec::CancelReason)
/// decides which). The returned [`EndClass`] tells the worker whether a
/// retry is worthwhile.
fn run_job(
    spec: &JobSpec,
    opts: &ServeOptions,
    threads: usize,
    estimated: u64,
    cancel: &CancelToken,
) -> (JobReport, EndClass) {
    let t0 = Instant::now();
    let rss_before = peak_rss_bytes();
    let factor = opts.rss_kill_factor;
    let watchdog = if factor > 0.0 && estimated > 0 {
        let limit = ((estimated as f64 * factor) as u64).max(WATCHDOG_NOISE_FLOOR);
        current_rss_bytes().map(|base| spawn_rss_watchdog(cancel.clone(), base, limit))
    } else {
        None
    };
    // The token rides on the executor: every wave of the load and the
    // pipeline observes it, and this is the boundary its unwind is
    // caught at.
    let exec = Executor::new(opts.executor, threads).with_cancel(cancel.clone());
    let outcome =
        catch_unwind(AssertUnwindSafe(|| execute(spec, &exec, cancel))).unwrap_or_else(|panic| {
            // A cancelled wave is a cancellation, not a failure.
            if panic.downcast_ref::<Cancelled>().is_some() {
                return Err(JobEnd::Cancelled);
            }
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(JobEnd::Panicked(msg))
        });
    if let Some((stop, handle)) = watchdog {
        stop.store(true, Ordering::Release);
        let _ = handle.join();
    }
    let (mut report, class) = match outcome {
        Ok(report) => (report, EndClass::Final),
        Err(JobEnd::Failed { error, transient }) => (
            JobReport::empty(&spec.name, JobStatus::Failed(error)),
            if transient {
                EndClass::Transient
            } else {
                EndClass::Final
            },
        ),
        Err(JobEnd::Panicked(msg)) => (
            JobReport::empty(
                &spec.name,
                JobStatus::Failed(format!("job panicked: {msg}")),
            ),
            EndClass::Panicked,
        ),
        Err(JobEnd::Cancelled) => match cancel.reason() {
            Some(minoan_exec::CancelReason::DeadlineExceeded) => (
                JobReport::empty(&spec.name, JobStatus::TimedOut),
                EndClass::Transient,
            ),
            Some(minoan_exec::CancelReason::OverBudget) => (
                JobReport::empty(&spec.name, JobStatus::KilledOverBudget),
                EndClass::Final,
            ),
            _ => (
                JobReport::empty(&spec.name, JobStatus::Cancelled),
                EndClass::Final,
            ),
        },
    };
    report.wall = t0.elapsed();
    report.threads = exec.threads();
    report.estimated_bytes = estimated;
    report.peak_rss_bytes = peak_rss_bytes();
    // The measured counterpart of the admission estimate: how much this
    // job raised the process high-water mark (see the field docs for
    // the attribution caveat under concurrency).
    report.peak_rss_delta_bytes = match (rss_before, report.peak_rss_bytes) {
        (Some(before), Some(after)) => Some(after.saturating_sub(before)),
        _ => None,
    };
    (report, class)
}

/// Loads the job's inputs and resolves the pair on `exec`, which carries
/// `cancel`.
fn execute(spec: &JobSpec, exec: &Executor, cancel: &CancelToken) -> Result<JobReport, JobEnd> {
    // Named fault site for chaos tests: an injected I/O error here is a
    // transient infrastructure failure, retried under the job's budget.
    minoan_exec::faults::point("serve.job.execute")
        .map_err(|e| JobEnd::transient(format!("execute fault: {e}")))?;
    if let JobInput::IndexPatch { id, registry, ops } = &spec.input {
        return execute_patch(spec, registry, id, ops, exec, cancel);
    }
    let matcher =
        MinoanEr::new(spec.config()).map_err(|e| JobEnd::permanent(format!("bad config: {e}")))?;
    let (pair, truth) = load_input(spec, matcher.config(), exec)?;
    let indexed = matcher
        .run_cancellable_indexed(&pair, exec, cancel)
        .map_err(|Cancelled| JobEnd::Cancelled)?;
    let out = &indexed.output;
    let matches = out
        .matching
        .iter()
        .map(|(a, b)| {
            (
                pair.first.entity_uri(a).to_string(),
                pair.second.entity_uri(b).to_string(),
            )
        })
        .collect();
    let mut report = run_report(spec, matches, &out.report);
    report.quality = truth
        .as_ref()
        .map(|t| MatchQuality::evaluate(&out.matching, t));
    // An index build persists the run's structures *after* the pipeline
    // finished, on the very output object: the matching a later query
    // serves is the matching this run produced, byte for byte. A write
    // failure is transient infrastructure trouble (disk full, fault
    // injection at `store.artifact.read`'s sibling path), retried under
    // the job's budget.
    if let Some(path) = &spec.persist {
        let artifact =
            minoan_core::IndexArtifact::from_run(&spec.name, &pair, indexed, matcher.config());
        artifact
            .write_to(path)
            .map_err(|e| JobEnd::transient(format!("cannot persist index: {e}")))?;
    }
    Ok(report)
}

/// The `Ok` report of a job whose pipeline run produced `matches`:
/// the run's H1–H4 counters and stage timings ride along.
fn run_report(spec: &JobSpec, matches: Vec<(String, String)>, run: &PipelineReport) -> JobReport {
    let mut report = JobReport::empty(&spec.name, JobStatus::Ok);
    report.matches = matches;
    report.h1_matches = run.h1_matches;
    report.h2_matches = run.h2_matches;
    report.h3_matches = run.h3_matches;
    report.h4_removed = run.h4_removed;
    report.timings = Some(run.timings.clone());
    report
}

/// Runs one delta patch of index `id` in `registry`. The patch starts
/// from the registry's loaded copy — loading it through the registry's
/// one loader when cold, so the `store.artifact.read` fault site stays
/// on this path — and builds the patched artifact from a copy of its
/// pair ([`minoan_core::delta`]), leaving the copy that readers hold
/// untouched. It persists the result atomically (the `core.delta.apply`
/// fault site fires *before* the temp-file/rename write, so a crash
/// leaves the old artifact fully intact) and then publishes it into the
/// registry slot, before this job's report is terminal: a client that
/// waits for the patch reads the patched index next, and no file is
/// decoded on either side. A failed attempt publishes nothing. The
/// report's matches are the patched matching, so a patch job
/// fingerprints exactly like a from-scratch rebuild of the same final
/// KB state.
fn execute_patch(
    spec: &JobSpec,
    registry: &IndexRegistry,
    id: &str,
    ops: &[minoan_kb::DeltaOp],
    exec: &Executor,
    cancel: &CancelToken,
) -> Result<JobReport, JobEnd> {
    let _span = trace::span(Level::Debug, "index.patch", || format!("index={id:?}"));
    let path = registry
        .path_for(id)
        .map_err(|e| JobEnd::permanent(format!("cannot patch index {id:?}: {e}")))?;
    let current = registry.load(id).map_err(|e| {
        let message = format!("cannot read index {}: {e}", path.display());
        // An I/O error (or injected fault) may clear up; a missing,
        // corrupt or wrong-version file fails identically on every
        // attempt.
        if e.retryable() {
            JobEnd::transient(message)
        } else {
            JobEnd::permanent(message)
        }
    })?;
    let (mut patched, delta) = current
        .patched(ops, exec, cancel)
        .map_err(|Cancelled| JobEnd::Cancelled)?;
    patched
        .persist_patch(&path)
        .map_err(|e| JobEnd::transient(format!("cannot persist patched index: {e}")))?;
    let matches = patched.matched_uri_pairs();
    let version = delta.content_version;
    registry.publish(id, patched);
    trace::event(
        Level::Info,
        "index.patched",
        format!("index={id:?} content_version={version} (published to the registry)"),
    );
    Ok(run_report(spec, matches, &delta.pipeline))
}

/// Loads the KB pair (and ground truth, if any) for one job.
fn load_input(
    spec: &JobSpec,
    config: &MinoanConfig,
    exec: &Executor,
) -> Result<(KbPair, Option<GroundTruth>), JobEnd> {
    match &spec.input {
        JobInput::Synthetic { kind, seed, scale } => {
            let Dataset { pair, truth, .. } = kind.generate_scaled(*seed, *scale);
            Ok((pair, Some(truth)))
        }
        JobInput::Files { first, second } => {
            let load = |path: &std::path::Path, name| {
                load_kb_file(path, name, config, exec).map_err(|e| match e {
                    // Malformed input fails the same way on every
                    // attempt; a reader error (or injected fault) may not.
                    parse::StreamError::Parse(e) => {
                        JobEnd::permanent(format!("cannot parse {}: {e}", path.display()))
                    }
                    parse::StreamError::Io(e) => {
                        JobEnd::transient(format!("cannot read {}: {e}", path.display()))
                    }
                })
            };
            let pair = KbPair::new(load(first, "E1")?, load(second, "E2")?);
            let truth = match &spec.truth {
                Some(path) => Some(load_truth_file(path, &pair).map_err(JobEnd::permanent)?),
                None => None,
            };
            Ok((pair, truth))
        }
        JobInput::IndexPatch { .. } => {
            unreachable!("patch jobs short-circuit to execute_patch before input loading")
        }
    }
}

/// Streams one KB file through the chunked parallel parser, picking the
/// format by extension (`.nt`/`.ntriples`, case-insensitive, vs TSV).
/// The one KB-file loader in the workspace: the CLI's `match`/`stats`
/// paths and the job supervisor wrap it, so a format or diagnostics fix
/// lands everywhere. A file that cannot be opened fails like a reader
/// that fails before its first line: a
/// [`StreamError::Io`](parse::StreamError::Io), which the supervisor
/// retries, where bad input is permanent. A caller that only reports
/// the failure can `?` it into a `String`.
///
/// Each load is a debug-level `kb.parse` span, detailed with the path.
///
/// `_config` is unused: the benchmark harness (`spine/`) pins this
/// signature, and ROADMAP item 1A(c) retires the parameter.
pub fn load_kb_file(
    path: &std::path::Path,
    name: &str,
    _config: &MinoanConfig,
    exec: &Executor,
) -> Result<minoan_kb::KnowledgeBase, parse::StreamError> {
    let _span = trace::span(Level::Debug, "kb.parse", || path.display().to_string());
    let file = std::fs::File::open(path).map_err(|e| {
        parse::StreamError::Io(parse::ParseError {
            line: 1,
            message: format!("open error: {e}"),
        })
    })?;
    let opts = parse::StreamOptions::default();
    let is_nt = path
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("nt") || e.eq_ignore_ascii_case("ntriples"));
    if is_nt {
        parse::parse_ntriples_reader(name, file, exec, opts)
    } else {
        parse::parse_tsv_reader(name, file, exec, opts)
    }
}

/// Loads a 2-column TSV of matching URIs. Lines naming URIs absent from
/// the pair are skipped (the truth may cover a superset of the slice
/// being resolved); malformed lines are errors. Shared with the CLI's
/// `--truth` flag.
pub fn load_truth_file(path: &std::path::Path, pair: &KbPair) -> Result<GroundTruth, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut truth = Matching::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut cols = line.splitn(2, '\t');
        let (Some(u1), Some(u2)) = (cols.next(), cols.next()) else {
            return Err(format!(
                "{}:{}: expected two tab-separated URIs",
                path.display(),
                i + 1
            ));
        };
        if let (Some(e1), Some(e2)) = (pair.first.entity_by_uri(u1), pair.second.entity_by_uri(u2))
        {
            truth.insert(e1, e2);
        }
    }
    Ok(truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::JobInput;
    use minoan_core::MAX_CANDIDATES;
    use minoan_datagen::DatasetKind;

    fn synthetic_job(name: &str, kind: DatasetKind, scale: f64) -> JobSpec {
        JobSpec {
            name: name.into(),
            input: JobInput::Synthetic {
                kind,
                seed: 20180416,
                scale,
            },
            truth: None,
            theta: None,
            candidates_k: None,
            purge_blocks: None,
            timeout_ms: None,
            max_retries: None,
            persist: None,
        }
    }

    fn small_manifest() -> Manifest {
        Manifest {
            jobs: vec![
                synthetic_job("restaurant", DatasetKind::Restaurant, 0.05),
                synthetic_job("yago", DatasetKind::YagoImdb, 0.05),
                synthetic_job("restaurant-2", DatasetKind::Restaurant, 0.08),
            ],
        }
    }

    #[test]
    fn fleet_resolves_every_job() {
        let report = run_batch(&small_manifest(), &ServeOptions::default());
        assert_eq!(report.jobs.len(), 3);
        assert_eq!(report.ok_count(), 3);
        for job in &report.jobs {
            assert!(job.status.is_ok(), "{}: {:?}", job.name, job.status);
            assert!(!job.matches.is_empty(), "{} found no matches", job.name);
            assert!(job.quality.is_some(), "synthetic jobs carry truth");
            // Allotments never exceed the pool's workers.
            assert!(job.threads >= 1 && job.threads <= pool::default_workers());
        }
        // Report order is manifest order, not completion order.
        let names: Vec<&str> = report.jobs.iter().map(|j| j.name.as_str()).collect();
        assert_eq!(names, ["restaurant", "yago", "restaurant-2"]);
    }

    #[test]
    fn streaming_callback_sees_every_job() {
        let seen = Mutex::new(Vec::new());
        let report = run_batch_streaming(&small_manifest(), &ServeOptions::default(), |job| {
            seen.lock().unwrap().push(job.name.clone())
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort();
        let mut expect: Vec<String> = report.jobs.iter().map(|j| j.name.clone()).collect();
        expect.sort();
        assert_eq!(seen, expect);
    }

    #[test]
    fn tiny_budget_serializes_but_completes() {
        let manifest = Manifest {
            jobs: vec![
                synthetic_job("a", DatasetKind::Restaurant, 0.3),
                synthetic_job("b", DatasetKind::Restaurant, 0.3),
                synthetic_job("c", DatasetKind::Restaurant, 0.3),
            ],
        };
        // Every job estimates above the whole budget…
        for job in &manifest.jobs {
            assert!(job.estimated_bytes() > 1 << 20);
        }
        let opts = ServeOptions {
            slots: 3,
            memory_budget_bytes: 1 << 20,
            ..ServeOptions::default()
        };
        let report = run_batch(&manifest, &opts);
        // …so each runs alone (head-of-queue admission), and all finish.
        assert_eq!(
            report.ok_count(),
            3,
            "over-budget jobs run alone, not never"
        );
        assert_eq!(
            report.peak_concurrent_jobs, 1,
            "nothing fits next to an over-budget job"
        );
    }

    #[test]
    fn cancellation_skips_undispatched_jobs() {
        let manifest = small_manifest();
        let opts = ServeOptions::default();
        let queue = fleet_queue(&opts, manifest.jobs.len());
        for job in &manifest.jobs {
            queue.submit(job.clone()).unwrap();
        }
        // Every job is still queued: no worker has started.
        queue.cancel_all();
        queue.close();
        let Ok(report) = run_fleet(queue, &opts, &|_| {}, |_| Ok::<(), Infallible>(()));
        assert_eq!(report.ok_count(), 0);
        assert!(report.jobs.iter().all(|j| j.status == JobStatus::Cancelled));
    }

    #[test]
    fn on_done_fires_only_for_reports_a_worker_produced() {
        let queue = JobQueue::new(1, 0);
        assert_eq!(queue.slots(), 1);
        queue
            .submit(synthetic_job("first", DatasetKind::Restaurant, 0.05))
            .unwrap();
        let second = queue
            .submit(synthetic_job("second", DatasetKind::Restaurant, 0.05))
            .unwrap();
        assert_eq!(queue.cancel(second), CancelOutcome::CancelledQueued);
        queue.close();
        let seen = Mutex::new(Vec::new());
        queue.worker(&ServeOptions::default(), &|job| {
            seen.lock().unwrap().push(job.name.clone())
        });
        assert_eq!(seen.into_inner().unwrap(), ["first"]);
        let reports = queue.into_reports();
        assert_eq!(reports[0].status, JobStatus::Ok);
        assert_eq!(reports[1].name, "second");
        assert_eq!(reports[1].status, JobStatus::Cancelled);
    }

    #[test]
    fn invalid_override_fails_alone() {
        let mut manifest = small_manifest();
        manifest.jobs[1].theta = Some(0.999999); // valid
                                                 // The widest valid K.
        manifest.jobs[1].candidates_k = Some(MAX_CANDIDATES);
        // Bypass manifest validation to exercise the scheduler's own
        // config check: hand-built specs with an out-of-range theta and
        // a K past the longest candidate row an index keeps.
        let mut bad = synthetic_job("bad", DatasetKind::Restaurant, 0.05);
        bad.theta = Some(7.0);
        manifest.jobs.push(bad);
        let mut wide = synthetic_job("wide", DatasetKind::Restaurant, 0.05);
        wide.candidates_k = Some(MAX_CANDIDATES + 1);
        manifest.jobs.push(wide);
        let report = run_batch(&manifest, &ServeOptions::default());
        assert_eq!(report.ok_count(), 3);
        assert_eq!(report.failed_count(), 2);
        for (failed, needle) in report.jobs[3..].iter().zip(["theta", "candidates_k"]) {
            assert!(
                matches!(&failed.status, JobStatus::Failed(e) if e.contains(needle)),
                "{}: {:?}",
                failed.name,
                failed.status
            );
        }
    }

    #[test]
    fn missing_file_fails_alone() {
        let mut manifest = small_manifest();
        manifest.jobs.push(JobSpec {
            name: "ghost".into(),
            input: JobInput::Files {
                first: "/no/such/file.tsv".into(),
                second: "/no/such/other.tsv".into(),
            },
            truth: None,
            theta: None,
            candidates_k: None,
            purge_blocks: None,
            timeout_ms: None,
            max_retries: None,
            persist: None,
        });
        let report = run_batch(&manifest, &ServeOptions::default());
        assert_eq!(report.ok_count(), 3);
        let ghost = &report.jobs[3];
        assert!(matches!(&ghost.status, JobStatus::Failed(e) if e.contains("cannot read")));
    }

    #[test]
    fn results_do_not_depend_on_fleet_shape() {
        let manifest = small_manifest();
        let base: Vec<String> = run_batch(
            &manifest,
            &ServeOptions {
                slots: 1,
                executor: ExecutorKind::Sequential,
                ..ServeOptions::default()
            },
        )
        .jobs
        .iter()
        .map(|j| j.fingerprint())
        .collect();
        for slots in [2, 3] {
            let got: Vec<String> = run_batch(
                &manifest,
                &ServeOptions {
                    slots,
                    ..ServeOptions::default()
                },
            )
            .jobs
            .iter()
            .map(|j| j.fingerprint())
            .collect();
            assert_eq!(base, got, "slots={slots}");
        }
    }

    #[test]
    fn straggler_gets_the_whole_budget() {
        // One job, many slots: the single job is the straggler and must
        // receive every worker of the pool.
        let manifest = Manifest {
            jobs: vec![synthetic_job("only", DatasetKind::Restaurant, 0.05)],
        };
        let opts = ServeOptions {
            slots: 4,
            ..ServeOptions::default()
        };
        let report = run_batch(&manifest, &opts);
        assert_eq!(report.jobs[0].threads, pool::default_workers());
    }

    #[test]
    fn allotment_divides_the_free_workers_over_the_slots_left() {
        for workers in [1, 2, 4, 16] {
            // A full fleet of W slots on W workers allots 1 per job,
            // and the allotments sum to the workers.
            let mut in_use = 0;
            for active in 0..workers {
                let allot = allotment(workers, in_use, workers - active, 3 * workers - active);
                assert_eq!(allot, 1, "workers={workers} active={active}");
                in_use += allot;
            }
            assert_eq!(in_use, workers);
            // A lone job gets every worker.
            assert_eq!(allotment(workers, 0, workers, 1), workers);
        }
        // The stragglers widen as the queue drains: 8 workers, 4 slots,
        // one job of 1 still running and two jobs left to claim.
        assert_eq!(allotment(8, 1, 3, 2), 3);
        assert_eq!(allotment(8, 4, 2, 1), 4);
        // Never less than 1, even with every worker in use.
        assert_eq!(allotment(4, 4, 1, 1), 1);
    }

    #[test]
    fn default_options_allot_one_per_job_in_a_full_fleet_and_all_workers_to_a_lone_job() {
        let workers = pool::default_workers();
        let queue = fleet_queue(&ServeOptions::default(), usize::MAX);
        assert_eq!(queue.slots(), workers);
        for i in 0..2 * workers {
            queue
                .submit(synthetic_job(
                    &format!("j{i}"),
                    DatasetKind::Restaurant,
                    0.05,
                ))
                .unwrap();
        }
        for _ in 0..workers {
            assert_eq!(queue.claim().map(|(_, allot)| allot), Some(1));
        }
        assert_eq!(queue.stats().threads_in_use, workers);

        let lone = fleet_queue(&ServeOptions::default(), usize::MAX);
        lone.submit(synthetic_job("lone", DatasetKind::Restaurant, 0.05))
            .unwrap();
        assert_eq!(lone.claim().map(|(_, allot)| allot), Some(workers));
    }

    #[test]
    fn slots_clamp_to_the_cores_and_the_job_count() {
        let available = pool::default_workers();
        let slots = |slots, max_jobs| {
            let opts = ServeOptions {
                slots,
                ..ServeOptions::default()
            };
            fleet_queue(&opts, max_jobs).slots()
        };
        // A value far above the core count clamps down, and zero means
        // "all cores", for a batch or a daemon…
        for value in [4096, available + 3, 0] {
            assert_eq!(slots(value, available + 9), available);
            assert_eq!(slots(value, usize::MAX), available);
        }
        // …and a batch also clamps to its job count.
        assert_eq!(slots(available + 3, 1), 1);
        assert_eq!(slots(0, 1), 1);
    }

    #[test]
    fn execution_width_caps_dispatch_at_the_core_count() {
        let available = pool::default_workers();
        assert_eq!(JobQueue::new(available + 7, 0).slots(), available);
        let manifest = Manifest {
            jobs: (0..available + 9)
                .map(|i| synthetic_job(&format!("j{i}"), DatasetKind::Restaurant, 0.03))
                .collect(),
        };
        let opts = ServeOptions {
            slots: available + 7,
            ..ServeOptions::default()
        };
        let report = run_batch(&manifest, &opts);
        assert_eq!(report.slots, available, "explicit slots clamp to the cores");
        assert!(
            report.peak_concurrent_jobs <= available,
            "peak concurrency {} exceeded the {available} cores",
            report.peak_concurrent_jobs,
        );
        assert_eq!(report.ok_count(), available + 9);
    }

    #[test]
    fn queue_lifecycle_submit_run_wait() {
        let queue = JobQueue::new(2, 0);
        let a = queue
            .submit(synthetic_job("a", DatasetKind::Restaurant, 0.05))
            .unwrap();
        let b = queue
            .submit(synthetic_job("b", DatasetKind::Restaurant, 0.05))
            .unwrap();
        assert_eq!((a, b), (0, 1));
        let opts = ServeOptions::default();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| queue.worker(&opts, &|_| {}));
            }
            // wait() from outside the worker pool, while workers run.
            let ra = queue.wait(a).expect("known id");
            assert_eq!(ra.status, JobStatus::Ok);
            queue.close();
        });
        let rb = queue.wait(b).unwrap();
        assert_eq!(rb.status, JobStatus::Ok);
        assert!(queue.wait(99).is_none(), "unknown id");
        let snaps = queue.snapshot();
        assert_eq!(snaps.len(), 2);
        assert!(snaps
            .iter()
            .all(|s| s.phase == JobPhase::Done && s.status.is_some()));
        assert_eq!(queue.into_reports().len(), 2);
    }

    /// A waiter woken before `on_done` ran could act on a report the
    /// caller's callback has not seen yet.
    #[test]
    fn on_done_runs_before_the_terminal_phase_is_published() {
        let queue = JobQueue::new(1, 0);
        let id = queue
            .submit(synthetic_job("j", DatasetKind::Restaurant, 0.05))
            .unwrap();
        queue.close();
        let seen = Mutex::new(None);
        queue.worker(&ServeOptions::default(), &|_| {
            *seen.lock().unwrap() = queue.job_snapshot(id).map(|s| s.phase);
        });
        assert_eq!(seen.into_inner().unwrap(), Some(JobPhase::Running));
        assert_eq!(queue.wait(id).unwrap().status, JobStatus::Ok);
    }

    #[test]
    fn cancelling_a_queued_job_flips_it_atomically() {
        // No workers at all: the job must terminate via the cancel path
        // alone, and the snapshot can never show running+cancelled.
        let queue = JobQueue::new(1, 0);
        let id = queue
            .submit(synthetic_job("doomed", DatasetKind::Restaurant, 0.05))
            .unwrap();
        assert_eq!(queue.cancel(id), CancelOutcome::CancelledQueued);
        assert_eq!(queue.cancel(id), CancelOutcome::AlreadyDone);
        assert_eq!(queue.cancel(42), CancelOutcome::Unknown);
        let report = queue.wait(id).unwrap();
        assert_eq!(report.status, JobStatus::Cancelled);
        let snap = &queue.snapshot()[0];
        assert_eq!(snap.phase, JobPhase::Done);
        assert_eq!(snap.status, Some(JobStatus::Cancelled));
    }

    #[test]
    fn waits_on_a_terminal_job_share_one_report() {
        let queue = JobQueue::new(1, 0);
        let id = queue
            .submit(synthetic_job("shared", DatasetKind::Restaurant, 0.05))
            .unwrap();
        queue.cancel(id);
        let first = queue.wait(id).unwrap();
        let second = queue.wait(id).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "a wait copied the report");
    }

    #[test]
    fn admission_estimates_self_calibrate_per_profile() {
        let queue = JobQueue::new(1, 0);
        let spec = synthetic_job("cal", DatasetKind::Restaurant, 0.05);
        let profile = spec.profile_key();
        let raw = spec.estimated_bytes();
        assert!(raw > 0);
        // Before any observation, the raw estimate is charged as-is.
        assert_eq!(queue.calibration_ratio(profile), None);
        assert_eq!(queue.calibrated_estimate(&spec, raw), raw);
        // First observation seeds the ratio outright (measured 3× the
        // estimate), and submissions start charging it.
        queue.observe_calibration(profile, raw, raw * 3);
        assert_eq!(queue.calibration_ratio(profile), Some(3.0));
        assert_eq!(queue.calibrated_estimate(&spec, raw), raw * 3);
        // Further observations blend in with EWMA weight 1/2.
        queue.observe_calibration(profile, raw, raw);
        assert_eq!(queue.calibration_ratio(profile), Some(2.0));
        // A wild measurement moves the ratio but the *applied* factor
        // stays clamped.
        queue.observe_calibration(profile, raw, raw * 1000);
        assert_eq!(queue.calibrated_estimate(&spec, raw), raw * 8);
        // Zero on either side of the ratio carries no signal.
        queue.observe_calibration("untouched", 0, 50);
        queue.observe_calibration("untouched", 50, 0);
        assert_eq!(queue.calibration_ratio("untouched"), None);
    }

    #[test]
    fn calibration_feeds_back_into_later_submissions() {
        // Run one synthetic job to completion; if it produced a usable
        // RSS measurement, a second submission of the same profile must
        // charge the recalibrated estimate.
        let queue = JobQueue::new(1, 0);
        let spec = synthetic_job("first", DatasetKind::Restaurant, 0.05);
        let raw = spec.estimated_bytes();
        let id = queue.submit(spec.clone()).unwrap();
        let opts = ServeOptions::default();
        std::thread::scope(|scope| {
            scope.spawn(|| queue.worker(&opts, &|_| {}));
            let report = queue.wait(id).expect("known id");
            assert_eq!(report.status, JobStatus::Ok);
            queue.close();
        });
        match queue.calibration_ratio(spec.profile_key()) {
            Some(ratio) => {
                let (lo, hi) = CALIBRATION_FACTOR_RANGE;
                let expect = (raw as f64 * ratio.clamp(lo, hi)).round() as u64;
                assert_eq!(queue.calibrated_estimate(&spec, raw), expect);
            }
            // A zero RSS delta (high-water plateau) legitimately skips
            // the observation; the raw estimate must then survive.
            None => assert_eq!(queue.calibrated_estimate(&spec, raw), raw),
        }
    }

    #[test]
    fn submitting_to_a_closed_queue_fails() {
        let queue = JobQueue::new(1, 0);
        queue.close();
        assert_eq!(
            queue
                .submit(synthetic_job("late", DatasetKind::Restaurant, 0.05))
                .unwrap_err(),
            SubmitError::Closed
        );
    }

    fn ghost_job(name: &str) -> JobSpec {
        JobSpec {
            name: name.into(),
            input: JobInput::Files {
                first: "/no/such/file.tsv".into(),
                second: "/no/such/other.tsv".into(),
            },
            truth: None,
            theta: None,
            candidates_k: None,
            purge_blocks: None,
            timeout_ms: None,
            max_retries: None,
            persist: None,
        }
    }

    fn drain(queue: &JobQueue, opts: &ServeOptions) {
        queue.close();
        queue.worker(opts, &|_| {});
    }

    #[test]
    fn transient_failure_retries_until_the_budget_is_exhausted() {
        // A missing input file is a transient (I/O) failure: with a
        // retry budget of 2 the job runs three times before its Failed
        // report becomes terminal.
        let queue = JobQueue::new(1, 0).with_job_defaults(0, 2);
        let id = queue.submit(ghost_job("ghost")).unwrap();
        drain(&queue, &ServeOptions::default());
        let report = queue.wait(id).unwrap();
        assert!(
            matches!(&report.status, JobStatus::Failed(e) if e.contains("cannot read")),
            "{:?}",
            report.status
        );
        let stats = queue.stats();
        assert_eq!(stats.retries_scheduled, 2, "both retries were spent");
        assert_eq!(stats.done_failed, 1, "one terminal report, not three");
    }

    #[test]
    fn per_job_retry_budget_overrides_the_queue_default() {
        let queue = JobQueue::new(1, 0).with_job_defaults(0, 5);
        let mut spec = ghost_job("stubborn");
        spec.max_retries = Some(1);
        let id = queue.submit(spec).unwrap();
        drain(&queue, &ServeOptions::default());
        assert!(queue.wait(id).is_some());
        assert_eq!(queue.stats().retries_scheduled, 1);
    }

    #[test]
    fn permanent_failures_are_never_retried() {
        // An out-of-range theta is a config error: deterministic, so a
        // retry budget must not be spent on it.
        let queue = JobQueue::new(1, 0).with_job_defaults(0, 3);
        let mut bad = synthetic_job("bad", DatasetKind::Restaurant, 0.05);
        bad.theta = Some(7.0);
        let id = queue.submit(bad).unwrap();
        drain(&queue, &ServeOptions::default());
        let report = queue.wait(id).unwrap();
        assert!(matches!(&report.status, JobStatus::Failed(e) if e.contains("theta")));
        assert_eq!(queue.stats().retries_scheduled, 0);
    }

    #[test]
    fn deadline_expiry_times_the_job_out() {
        // A 1 ms deadline on a job that takes tens of ms: some pipeline
        // wave observes the expired deadline and the job ends
        // TimedOut (with no retry budget, terminally).
        let queue = JobQueue::new(1, 0);
        let mut spec = synthetic_job("slow", DatasetKind::Restaurant, 0.3);
        spec.timeout_ms = Some(1);
        let id = queue.submit(spec).unwrap();
        drain(&queue, &ServeOptions::default());
        let report = queue.wait(id).unwrap();
        assert_eq!(report.status, JobStatus::TimedOut);
        let stats = queue.stats();
        assert_eq!(stats.done_timed_out, 1);
        assert_eq!(stats.retries_scheduled, 0, "max_retries defaults to 0");
    }

    #[test]
    fn shedding_rejects_submissions_past_the_queue_depth_mark() {
        // No workers: submissions pile up in pending. Depth mark 2 →
        // the third submit sheds; terminal states free no room until
        // jobs leave pending.
        let queue = JobQueue::new(1, 0).with_shed_limits(2, 0);
        queue
            .submit(synthetic_job("a", DatasetKind::Restaurant, 0.05))
            .unwrap();
        queue
            .submit(synthetic_job("b", DatasetKind::Restaurant, 0.05))
            .unwrap();
        let err = queue
            .submit(synthetic_job("c", DatasetKind::Restaurant, 0.05))
            .unwrap_err();
        assert!(
            matches!(&err, SubmitError::Overloaded(detail) if detail.contains("jobs pending")),
            "{err:?}"
        );
        assert_eq!(queue.stats().shed_total, 1);
        // Cancelling a queued job frees its pending slot; the next
        // submission is admitted again.
        queue.cancel(0);
        assert!(queue
            .submit(synthetic_job("d", DatasetKind::Restaurant, 0.05))
            .is_ok());
    }

    #[test]
    fn shedding_rejects_submissions_past_the_bytes_mark() {
        let probe = synthetic_job("probe", DatasetKind::Restaurant, 0.05);
        let est = probe.estimated_bytes();
        assert!(est > 0);
        // The first job fits exactly; anything more crosses the mark.
        let queue = JobQueue::new(1, 0).with_shed_limits(0, est);
        queue.submit(probe).unwrap();
        let err = queue
            .submit(synthetic_job("extra", DatasetKind::Restaurant, 0.05))
            .unwrap_err();
        assert!(
            matches!(&err, SubmitError::Overloaded(detail) if detail.contains("bytes")),
            "{err:?}"
        );
    }

    #[test]
    fn retry_seeds_and_backoff_are_deterministic() {
        assert_eq!(retry_seed(3, 1), retry_seed(3, 1));
        assert_ne!(retry_seed(3, 1), retry_seed(3, 2));
        assert_ne!(retry_seed(3, 1), retry_seed(4, 1));
        let d1 = minoan_exec::backoff::jittered_delay(
            RETRY_BACKOFF_BASE,
            0,
            RETRY_BACKOFF_CAP,
            retry_seed(3, 1),
        );
        assert_eq!(
            d1,
            minoan_exec::backoff::jittered_delay(
                RETRY_BACKOFF_BASE,
                0,
                RETRY_BACKOFF_CAP,
                retry_seed(3, 1),
            )
        );
        assert!(d1 <= RETRY_BACKOFF_BASE);
        assert!(d1 >= RETRY_BACKOFF_BASE / 2);
    }
}
