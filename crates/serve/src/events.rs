//! Shared event-stream plumbing: JSON views of trace-ring records and
//! assembled span trees, plus the subscriber filter both readers of the
//! ring apply — the SSE stream (`GET /v1/events`) and the line-JSON
//! `events` op (the one op not routed through HTTP) use the same cursor
//! semantics, so a fanned-out lifecycle event looks identical on
//! either.

use minoan_kb::Json;
use minoan_obs::trace::{self, Record, RecordKind, SpanNode, TraceTree};
use minoan_obs::Level;

use crate::scheduler::{JobId, JobQueue};

/// Most records one `events` batch (or SSE wakeup) carries.
pub(crate) const MAX_EVENT_BATCH: usize = 256;

/// What a subscriber wants out of the ring: point events only, at or
/// above a severity, optionally for one job.
pub(crate) struct EventFilter {
    /// Only records of this job (`None` = every job, including
    /// job-less server events).
    pub job: Option<i64>,
    /// Severity threshold (`Info` admits error/warn/info).
    pub level: Level,
}

impl EventFilter {
    pub(crate) fn matches(&self, r: &Record) -> bool {
        r.kind == RecordKind::Event && r.level <= self.level && self.job.is_none_or(|j| r.job == j)
    }
}

/// One ring record as a wire object. `job` and `trace` are `null` when
/// the record has none.
pub(crate) fn record_json(r: &Record) -> Json {
    let job = if r.job < 0 {
        Json::Null
    } else {
        Json::num(r.job as f64)
    };
    let trace = if r.trace == 0 {
        Json::Null
    } else {
        Json::num(r.trace as f64)
    };
    Json::obj([
        ("seq", Json::num(r.seq as f64)),
        ("micros", Json::num(r.micros as f64)),
        ("level", Json::str(r.level.label())),
        ("name", Json::str(r.name)),
        ("job", job),
        ("trace", trace),
        ("detail", Json::str(&r.detail)),
    ])
}

/// Reads one batch of matching events at or after `from`:
/// `{"events":[…],"next":N,"dropped":N}`. `next` is the cursor for the
/// following call; `dropped` counts ring records evicted before this
/// subscriber saw them (a slow-consumer gap, not a filter miss). With
/// `wait`, blocks up to `timeout` for at least one record.
pub(crate) fn events_batch_json(
    from: u64,
    filter: &EventFilter,
    wait: bool,
    timeout: std::time::Duration,
) -> Json {
    let collector = trace::collector();
    let batch = if wait {
        collector.wait_since(from, MAX_EVENT_BATCH, timeout)
    } else {
        collector.read_since(from, MAX_EVENT_BATCH)
    };
    let events: Vec<Json> = batch
        .records
        .iter()
        .filter(|r| filter.matches(r))
        .map(record_json)
        .collect();
    Json::obj([
        ("events", Json::Arr(events)),
        ("next", Json::num(batch.next as f64)),
        ("dropped", Json::num(batch.dropped as f64)),
    ])
}

fn span_node_json(n: &SpanNode) -> Json {
    Json::obj([
        ("span", Json::num(n.span as f64)),
        ("name", Json::str(n.name)),
        ("level", Json::str(n.level.label())),
        ("start_micros", Json::num(n.start_micros as f64)),
        (
            "dur_micros",
            match n.dur_micros {
                Some(d) => Json::num(d as f64),
                None => Json::Null,
            },
        ),
        ("detail", Json::str(&n.detail)),
        ("events", Json::arr(n.events.iter().map(record_json))),
        ("children", Json::arr(n.children.iter().map(span_node_json))),
    ])
}

fn trace_tree_json(t: &TraceTree) -> Json {
    Json::obj([
        ("trace", Json::num(t.trace as f64)),
        ("spans", Json::arr(t.roots.iter().map(span_node_json))),
        ("events", Json::arr(t.events.iter().map(record_json))),
    ])
}

/// The span-tree view of one job: one assembled [`TraceTree`] per
/// attempt (fresh trace ID each), from whatever the ring still
/// retains. `None` for an unknown job id.
pub(crate) fn job_trace_json(queue: &JobQueue, id: JobId) -> Option<Json> {
    let snapshot = queue.job_snapshot(id)?;
    let traces = queue.trace_ids(id)?;
    let records = trace::collector().records_for_traces(&traces);
    let attempts: Vec<Json> = traces
        .iter()
        .map(|&t| trace_tree_json(&trace::assemble_trace(t, &records)))
        .collect();
    let mut fields = vec![
        ("id".to_string(), Json::num(id as f64)),
        ("name".to_string(), Json::str(&snapshot.name)),
        ("phase".to_string(), Json::str(snapshot.phase.label())),
        ("attempts".to_string(), Json::Arr(attempts)),
    ];
    if let Some(status) = &snapshot.status {
        fields.insert(3, ("status".to_string(), Json::str(status.label())));
    }
    Some(Json::Obj(fields))
}
