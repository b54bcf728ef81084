//! Structured tracing: trace IDs, span enter/exit records, discrete
//! events, and the bounded ring buffer subscribers read from.
//!
//! ## Model
//!
//! A **trace** is one attempt of one unit of work — a job attempt, a
//! batch run, a request. Trace IDs are process-unique `u64`s from
//! [`new_trace_id`]; a retried job gets a **fresh trace ID per
//! attempt**, so the attempts' span trees never interleave. A **span**
//! is a named, leveled interval inside a trace ([`span`] returns an
//! RAII guard; dropping it closes the span and records its duration).
//! Spans nest through a thread-local context: a span opened while
//! another is active becomes its child. An **event** is a point record
//! ([`event`], [`emit_job`], the `error!`/`warn!`/`info!`/`debug!`
//! macros) — job lifecycle transitions, shed decisions, patch
//! completions, log lines.
//!
//! ## The ring
//!
//! All records land in one process-wide bounded ring (the
//! [`Collector`]): a mutex-guarded `VecDeque` with drop-oldest
//! overflow and a monotone sequence number. Producers never block on
//! consumers — a slow subscriber sees a *gap* (its cursor falls behind
//! the oldest retained record) which [`Batch::dropped`] reports, and
//! the global [`Collector::dropped_total`] counter is exported as a
//! metric. When the collector is disabled ([`set_enabled`]) every
//! span/event site costs exactly one relaxed atomic load and records
//! nothing.
//!
//! Observation never participates in the result: nothing in this
//! module feeds back into pipeline or scheduler decisions, so the
//! bit-identity gates hold with tracing enabled at `debug`.

use std::cell::Cell;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::{console_enabled, console_write, Level};

/// How many records the global ring retains before dropping the
/// oldest. At ~100 bytes a record this bounds the ring around a few
/// MiB while holding the full span history of any recent job.
pub const RING_CAPACITY: usize = 65_536;

/// What a [`Record`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A span opened.
    Enter,
    /// A span closed; [`Record::dur_micros`] holds its duration.
    Exit,
    /// A point event (lifecycle transition, log line, …).
    Event,
}

impl RecordKind {
    /// Canonical lower-case name.
    pub fn label(self) -> &'static str {
        match self {
            RecordKind::Enter => "enter",
            RecordKind::Exit => "exit",
            RecordKind::Event => "event",
        }
    }
}

/// One entry in the ring.
#[derive(Debug, Clone)]
pub struct Record {
    /// Monotone sequence number (the subscriber cursor space).
    pub seq: u64,
    /// Microseconds since the collector was created.
    pub micros: u64,
    /// Severity.
    pub level: Level,
    /// Enter / exit / event.
    pub kind: RecordKind,
    /// The trace this record belongs to (`0` = none).
    pub trace: u64,
    /// The span this record belongs to or closes (`0` = none).
    pub span: u64,
    /// The parent span at the time the span opened (`0` = root).
    pub parent: u64,
    /// The job id this record belongs to (`-1` = none).
    pub job: i64,
    /// Site name, e.g. `"stage.blocking"` or `"job.retry"`.
    pub name: &'static str,
    /// Free-form human-readable detail.
    pub detail: String,
    /// For [`RecordKind::Exit`]: the span's duration.
    pub dur_micros: u64,
}

/// One read from the ring.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The records at or after the requested cursor, in seq order.
    pub records: Vec<Record>,
    /// The cursor to pass next time (one past the last record seen, or
    /// the unchanged cursor when nothing was ready).
    pub next: u64,
    /// How many records between the requested cursor and the oldest
    /// retained one were already evicted (a slow-consumer gap).
    pub dropped: u64,
}

struct RingInner {
    buf: VecDeque<Record>,
    /// Sequence number the *next* pushed record receives; the oldest
    /// retained record has `next_seq - buf.len()`.
    next_seq: u64,
}

/// The bounded drop-oldest record ring plus its counters. One global
/// instance ([`collector`]) serves the whole process; tests construct
/// private ones.
pub struct Collector {
    inner: Mutex<RingInner>,
    grew: Condvar,
    dropped: AtomicU64,
    epoch: Instant,
    capacity: usize,
}

impl Collector {
    /// A collector retaining at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        Collector {
            inner: Mutex::new(RingInner {
                buf: VecDeque::new(),
                next_seq: 0,
            }),
            grew: Condvar::new(),
            dropped: AtomicU64::new(0),
            epoch: Instant::now(),
            capacity: capacity.max(1),
        }
    }

    /// Microseconds since this collector was created.
    pub fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Appends one record (assigning its `seq`), dropping the oldest on
    /// overflow, and wakes waiting subscribers. Returns the assigned
    /// sequence number.
    pub fn push(&self, mut record: Record) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        if inner.buf.len() >= self.capacity {
            inner.buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let seq = inner.next_seq;
        record.seq = seq;
        inner.next_seq += 1;
        inner.buf.push_back(record);
        drop(inner);
        self.grew.notify_all();
        seq
    }

    /// Total records evicted before any subscriber read them.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The sequence number the next record will receive (== total
    /// records ever pushed).
    pub fn next_seq(&self) -> u64 {
        self.inner.lock().unwrap().next_seq
    }

    /// Reads up to `max` records with `seq >= from`. Never blocks; an
    /// empty `records` with `next == from` means nothing new yet.
    pub fn read_since(&self, from: u64, max: usize) -> Batch {
        let inner = self.inner.lock().unwrap();
        let oldest = inner.next_seq - inner.buf.len() as u64;
        let start = from.max(oldest);
        let dropped = start - from.min(start);
        let skip = (start - oldest) as usize;
        let records: Vec<Record> = inner.buf.iter().skip(skip).take(max).cloned().collect();
        let next = records.last().map(|r| r.seq + 1).unwrap_or(start);
        Batch {
            records,
            next,
            dropped,
        }
    }

    /// Like [`Collector::read_since`], but blocks up to `timeout` for
    /// at least one record to arrive.
    pub fn wait_since(&self, from: u64, max: usize, timeout: Duration) -> Batch {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().unwrap();
        loop {
            let oldest = inner.next_seq - inner.buf.len() as u64;
            if inner.next_seq > from || oldest > from {
                drop(inner);
                return self.read_since(from, max);
            }
            let now = Instant::now();
            if now >= deadline {
                drop(inner);
                return self.read_since(from, max);
            }
            let (guard, _) = self.grew.wait_timeout(inner, deadline - now).unwrap();
            inner = guard;
        }
    }

    /// Every retained record whose trace is in `traces`, in seq order.
    pub fn records_for_traces(&self, traces: &[u64]) -> Vec<Record> {
        let inner = self.inner.lock().unwrap();
        inner
            .buf
            .iter()
            .filter(|r| r.trace != 0 && traces.contains(&r.trace))
            .cloned()
            .collect()
    }
}

/// Whether the global collector records anything. Checked with one
/// relaxed load at every span/event site.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Trace IDs are process-unique and never zero.
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// Span IDs are process-unique and never zero.
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

static COLLECTOR: OnceLock<Collector> = OnceLock::new();

/// The process-wide collector.
pub fn collector() -> &'static Collector {
    COLLECTOR.get_or_init(|| Collector::new(RING_CAPACITY))
}

/// Whether the global collector is recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns global recording on or off. Off, every span/event site costs
/// one relaxed atomic load and allocates nothing. (Console logging via
/// the level macros keeps working either way.)
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Allocates a fresh process-unique trace ID.
pub fn new_trace_id() -> u64 {
    NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

#[derive(Clone, Copy)]
struct Ctx {
    trace: u64,
    span: u64,
    job: i64,
}

thread_local! {
    static CTX: Cell<Ctx> = const {
        Cell::new(Ctx {
            trace: 0,
            span: 0,
            job: -1,
        })
    };
}

/// RAII guard binding a trace (and job) to the current thread; see
/// [`trace_scope`].
pub struct TraceScope {
    prev: Ctx,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CTX.with(|c| c.set(self.prev));
    }
}

/// Binds `trace`/`job` to the current thread until the guard drops:
/// spans and events recorded on this thread carry them. The scheduler
/// wraps each job attempt in one of these with a fresh trace ID.
pub fn trace_scope(trace: u64, job: i64) -> TraceScope {
    let prev = CTX.with(|c| {
        let prev = c.get();
        c.set(Ctx {
            trace,
            span: 0,
            job,
        });
        prev
    });
    TraceScope { prev }
}

/// RAII span guard from [`span`]: dropping it records the exit (with
/// duration) and restores the parent span.
pub struct Span {
    armed: bool,
    level: Level,
    name: &'static str,
    id: u64,
    prev_span: u64,
    start: Instant,
}

impl Span {
    /// The span's ID (`0` when the collector was disabled at entry).
    pub fn id(&self) -> u64 {
        if self.armed {
            self.id
        } else {
            0
        }
    }

    /// Closes the span now and returns its duration — the reading its
    /// exit record carries. The clock runs whether or not the collector
    /// is enabled, so a caller can time its work with the span alone.
    pub fn close(mut self) -> Duration {
        let dur = self.start.elapsed();
        self.exit(dur);
        dur
    }

    /// Records the exit (once) and restores the parent span.
    fn exit(&mut self, dur: Duration) {
        if !std::mem::take(&mut self.armed) {
            return;
        }
        let ctx = CTX.with(|c| {
            let mut ctx = c.get();
            ctx.span = self.prev_span;
            c.set(ctx);
            ctx
        });
        let dur = dur.as_micros() as u64;
        let col = collector();
        col.push(Record {
            seq: 0,
            micros: col.now_micros(),
            level: self.level,
            kind: RecordKind::Exit,
            trace: ctx.trace,
            span: self.id,
            parent: self.prev_span,
            job: ctx.job,
            name: self.name,
            detail: String::new(),
            dur_micros: dur,
        });
        if console_enabled(Level::Debug) {
            console_write(
                Level::Debug,
                self.name,
                &format_args!("span closed in {dur}µs"),
            );
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            self.exit(self.start.elapsed());
        }
    }
}

/// Opens a span named `name` at `level` nested under the thread's
/// current span; `detail` is only evaluated when the collector is
/// enabled. Close it by dropping the guard, or with [`Span::close`]
/// to read its duration.
pub fn span<D: FnOnce() -> String>(level: Level, name: &'static str, detail: D) -> Span {
    if !enabled() {
        return Span {
            armed: false,
            level,
            name,
            id: 0,
            prev_span: 0,
            start: Instant::now(),
        };
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let (ctx, prev_span) = CTX.with(|c| {
        let mut ctx = c.get();
        let prev = ctx.span;
        ctx.span = id;
        c.set(ctx);
        (ctx, prev)
    });
    let col = collector();
    col.push(Record {
        seq: 0,
        micros: col.now_micros(),
        level,
        kind: RecordKind::Enter,
        trace: ctx.trace,
        span: id,
        parent: prev_span,
        job: ctx.job,
        name,
        detail: detail(),
        dur_micros: 0,
    });
    Span {
        armed: true,
        level,
        name,
        id,
        prev_span,
        start: Instant::now(),
    }
}

/// Records a point event in the thread's current trace/job context and
/// echoes it to the console when the threshold admits it.
pub fn event(level: Level, name: &'static str, detail: String) {
    let ctx = CTX.with(Cell::get);
    emit_raw(level, name, ctx.trace, ctx.span, ctx.job, detail);
}

/// Records a point event for an explicit job (and optional trace) —
/// the form the scheduler uses from threads that are not inside the
/// job's trace scope (submit, shed, terminal transitions).
pub fn emit_job(level: Level, name: &'static str, job: i64, trace: u64, detail: String) {
    emit_raw(level, name, trace, 0, job, detail);
}

fn emit_raw(level: Level, name: &'static str, trace: u64, span: u64, job: i64, detail: String) {
    if console_enabled(level) {
        if job >= 0 {
            console_write(level, name, &format_args!("job={job} {detail}"));
        } else {
            console_write(level, name, &format_args!("{detail}"));
        }
    }
    if !enabled() {
        return;
    }
    let col = collector();
    col.push(Record {
        seq: 0,
        micros: col.now_micros(),
        level,
        kind: RecordKind::Event,
        trace,
        span,
        parent: 0,
        job,
        name,
        detail,
        dur_micros: 0,
    });
}

/// The body behind the `error!`/`warn!`/`info!`/`debug!` macros: skips
/// all formatting when neither the console nor the ring wants the
/// line.
pub fn log_event(level: Level, name: &'static str, args: fmt::Arguments<'_>) {
    let console = console_enabled(level);
    let ring = enabled();
    if !console && !ring {
        return;
    }
    if console {
        console_write(level, name, &args);
    }
    if ring {
        let ctx = CTX.with(Cell::get);
        let col = collector();
        col.push(Record {
            seq: 0,
            micros: col.now_micros(),
            level,
            kind: RecordKind::Event,
            trace: ctx.trace,
            span: ctx.span,
            parent: 0,
            job: ctx.job,
            name,
            detail: args.to_string(),
            dur_micros: 0,
        });
    }
}

/// One node of an assembled span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span ID.
    pub span: u64,
    /// Site name.
    pub name: &'static str,
    /// Severity the span was opened at.
    pub level: Level,
    /// Microseconds (collector clock) the span opened at.
    pub start_micros: u64,
    /// Duration; `None` when the exit record was evicted (or the span
    /// is still open).
    pub dur_micros: Option<u64>,
    /// The enter record's detail.
    pub detail: String,
    /// Child spans, in open order.
    pub children: Vec<SpanNode>,
    /// Events recorded while this span was current, in order.
    pub events: Vec<Record>,
}

/// The assembled view of one trace: root spans plus events outside any
/// span.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// The trace ID.
    pub trace: u64,
    /// Top-level spans, in open order.
    pub roots: Vec<SpanNode>,
    /// Events recorded in this trace outside any span.
    pub events: Vec<Record>,
}

/// Assembles the span tree of one trace from its records (as returned
/// by [`Collector::records_for_traces`], already in seq order).
/// Orphans — children whose parent's enter record was evicted — are
/// promoted to roots, so a partially-evicted trace still renders.
pub fn assemble_trace(trace: u64, records: &[Record]) -> TraceTree {
    let mut arena: Vec<SpanNode> = Vec::new();
    let mut by_span: HashMap<u64, usize> = HashMap::new();
    let mut parents: Vec<u64> = Vec::new();
    let mut loose_events: Vec<Record> = Vec::new();
    for r in records.iter().filter(|r| r.trace == trace) {
        match r.kind {
            RecordKind::Enter => {
                by_span.insert(r.span, arena.len());
                parents.push(r.parent);
                arena.push(SpanNode {
                    span: r.span,
                    name: r.name,
                    level: r.level,
                    start_micros: r.micros,
                    dur_micros: None,
                    detail: r.detail.clone(),
                    children: Vec::new(),
                    events: Vec::new(),
                });
            }
            RecordKind::Exit => {
                if let Some(&i) = by_span.get(&r.span) {
                    arena[i].dur_micros = Some(r.dur_micros);
                }
            }
            RecordKind::Event => match by_span.get(&r.span) {
                Some(&i) => arena[i].events.push(r.clone()),
                None => loose_events.push(r.clone()),
            },
        }
    }
    // Children were appended after their parents (spans enter in
    // order), so folding the arena from the back moves every subtree
    // into place before its parent moves.
    let mut roots = Vec::new();
    for i in (0..arena.len()).rev() {
        let node = arena.pop().expect("arena index in range");
        match by_span.get(&parents[i]) {
            Some(&p) if parents[i] != 0 && p < i => arena[p].children.insert(0, node),
            _ => roots.insert(0, node),
        }
    }
    TraceTree {
        trace,
        roots,
        events: loose_events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Serializes the tests that toggle the global enabled flag or
    /// read the global collector, so the parallel test runner cannot
    /// interleave a disabled window with a recording test.
    fn global_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn raw_event(name: &'static str) -> Record {
        Record {
            seq: 0,
            micros: 0,
            level: Level::Info,
            kind: RecordKind::Event,
            trace: 0,
            span: 0,
            parent: 0,
            job: -1,
            name,
            detail: String::new(),
            dur_micros: 0,
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts_drops() {
        let col = Collector::new(4);
        for _ in 0..10 {
            col.push(raw_event("e"));
        }
        assert_eq!(col.dropped_total(), 6);
        let batch = col.read_since(0, 100);
        assert_eq!(batch.dropped, 6, "cursor 0 fell behind by six records");
        let seqs: Vec<u64> = batch.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(batch.next, 10);
        // Reading from the frontier returns nothing and keeps the
        // cursor put.
        let empty = col.read_since(10, 100);
        assert!(empty.records.is_empty());
        assert_eq!(empty.next, 10);
        assert_eq!(empty.dropped, 0);
    }

    #[test]
    fn concurrent_producers_never_lose_the_drop_count() {
        let col = Arc::new(Collector::new(64));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let col = Arc::clone(&col);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        col.push(raw_event("p"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(col.next_seq(), 8000, "every push got a unique seq");
        let retained = col.read_since(0, usize::MAX).records.len() as u64;
        assert_eq!(retained, 64);
        assert_eq!(
            col.dropped_total() + retained,
            8000,
            "drops + retained account for every record"
        );
    }

    #[test]
    fn wait_since_wakes_on_push_and_times_out_quietly() {
        let col = Arc::new(Collector::new(16));
        let waiter = {
            let col = Arc::clone(&col);
            std::thread::spawn(move || col.wait_since(0, 10, Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(30));
        col.push(raw_event("wake"));
        let batch = waiter.join().unwrap();
        assert_eq!(batch.records.len(), 1);
        assert_eq!(batch.records[0].name, "wake");
        // And a timeout with nothing new returns an empty batch fast.
        let t = Instant::now();
        let empty = col.wait_since(batch.next, 10, Duration::from_millis(20));
        assert!(empty.records.is_empty());
        assert!(t.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn spans_nest_through_the_thread_context() {
        let _lock = global_lock();
        set_enabled(true);
        let trace = new_trace_id();
        let _scope = trace_scope(trace, 7);
        {
            let _outer = span(Level::Debug, "test.outer", || "o".into());
            {
                let _inner = span(Level::Debug, "test.inner", String::new);
                event(Level::Info, "test.mark", "inside inner".into());
            }
        }
        let records = collector().records_for_traces(&[trace]);
        let tree = assemble_trace(trace, &records);
        assert_eq!(tree.roots.len(), 1);
        let outer = &tree.roots[0];
        assert_eq!(outer.name, "test.outer");
        assert!(outer.dur_micros.is_some());
        assert_eq!(outer.children.len(), 1);
        let inner = &outer.children[0];
        assert_eq!(inner.name, "test.inner");
        assert_eq!(inner.events.len(), 1);
        assert_eq!(inner.events[0].name, "test.mark");
        assert_eq!(inner.events[0].job, 7);
    }

    #[test]
    fn retried_attempts_get_disjoint_trees() {
        let _lock = global_lock();
        set_enabled(true);
        let mut traces = Vec::new();
        for attempt in 0..2 {
            let trace = new_trace_id();
            traces.push(trace);
            let _scope = trace_scope(trace, 3);
            let _s = span(Level::Debug, "test.attempt", move || {
                format!("attempt {attempt}")
            });
            event(Level::Info, "test.work", format!("attempt {attempt}"));
        }
        assert_ne!(traces[0], traces[1], "fresh trace ID per attempt");
        let records = collector().records_for_traces(&traces);
        for (i, &trace) in traces.iter().enumerate() {
            let tree = assemble_trace(trace, &records);
            assert_eq!(tree.roots.len(), 1);
            assert_eq!(tree.roots[0].detail, format!("attempt {i}"));
            assert_eq!(tree.roots[0].events.len(), 1);
        }
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let _lock = global_lock();
        set_enabled(false);
        let trace = new_trace_id();
        let _scope = trace_scope(trace, 1);
        {
            let s = span(Level::Debug, "test.off", String::new);
            assert_eq!(s.id(), 0);
            event(Level::Debug, "test.off.event", "x".into());
        }
        set_enabled(true);
        assert!(collector().records_for_traces(&[trace]).is_empty());
    }

    #[test]
    fn close_returns_the_duration_the_exit_record_carries() {
        let _lock = global_lock();
        set_enabled(true);
        let trace = new_trace_id();
        let _scope = trace_scope(trace, 5);
        let s = span(Level::Debug, "test.close", String::new);
        std::thread::sleep(Duration::from_millis(2));
        let dur = s.close();
        assert!(dur >= Duration::from_millis(2));
        let tree = assemble_trace(trace, &collector().records_for_traces(&[trace]));
        assert_eq!(tree.roots.len(), 1, "closed once, not again on drop");
        assert_eq!(tree.roots[0].dur_micros, Some(dur.as_micros() as u64));
        // Disabled, the span records nothing but still clocks.
        set_enabled(false);
        let s = span(Level::Debug, "test.close.off", String::new);
        std::thread::sleep(Duration::from_millis(1));
        let off = s.close();
        set_enabled(true);
        assert!(off >= Duration::from_millis(1));
        assert_eq!(collector().records_for_traces(&[trace]).len(), 2);
    }

    #[test]
    fn orphaned_children_are_promoted_to_roots() {
        // Simulate eviction of the parent's enter record.
        let records = vec![
            Record {
                kind: RecordKind::Enter,
                trace: 99,
                span: 11,
                parent: 10, // 10's enter was evicted
                ..raw_event("child")
            },
            Record {
                kind: RecordKind::Exit,
                trace: 99,
                span: 11,
                parent: 10,
                dur_micros: 5,
                ..raw_event("child")
            },
        ];
        let tree = assemble_trace(99, &records);
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.roots[0].name, "child");
        assert_eq!(tree.roots[0].dur_micros, Some(5));
    }
}
