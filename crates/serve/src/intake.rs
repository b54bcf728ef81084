//! The queue and registry operations behind [`crate::http::route`].
//!
//! `route` is the one place a request is given meaning, and
//! [`crate::http`] is the only caller of this module: the line-JSON
//! protocol ([`crate::daemon`]) is a framing over `route`, not a second
//! front-end. Each function here implements one operation over the live
//! [`JobQueue`] or the [`IndexRegistry`](crate::registry) — submit,
//! status, job state, shutdown, and index build, patch, list, inspect,
//! delete and match — returning a JSON body or a domain error that the
//! router maps to a status code. The **unified error schema**,
//! `{"error":{"code","message","retryable"}}`, is built here too.

use std::time::Instant;

use minoan_core::MAX_CANDIDATES;
use minoan_kb::Json;

use crate::manifest::JobSpec;
use crate::registry::{IndexRegistry, RegistryError};
use crate::report::JobStatus;
use crate::scheduler::{CancelToken, JobId, JobQueue, JobSnapshot, SubmitError};

/// Machine-readable error code for an HTTP status.
pub(crate) fn code_for_status(status: u16) -> &'static str {
    match status {
        400 => "bad_request",
        401 => "unauthorized",
        404 => "not_found",
        405 => "method_not_allowed",
        409 => "conflict",
        413 => "payload_too_large",
        429 => "overloaded",
        431 => "headers_too_large",
        501 => "not_implemented",
        503 => "unavailable",
        505 => "http_version_not_supported",
        _ => "error",
    }
}

/// Whether retrying the identical request later can succeed, by status:
/// overload shed and temporary unavailability are worth a backoff;
/// everything else is the client's fault as sent.
pub(crate) fn retryable_status(status: u16) -> bool {
    matches!(status, 429 | 503)
}

/// The unified error object every failure carries under its `"error"`
/// key: `{"code","message","retryable"}`.
pub(crate) fn error_body(code: &str, message: impl Into<String>, retryable: bool) -> Json {
    Json::obj([
        ("code", Json::str(code)),
        ("message", Json::str(message.into())),
        ("retryable", Json::Bool(retryable)),
    ])
}

/// How a shutdown request treats jobs still in the queue: `drain` lets
/// queued jobs run to completion, `cancel` flips queued jobs to
/// `Cancelled` and sets the tokens of running ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShutdownMode {
    /// Queued jobs still run; the server exits once the queue drains.
    Drain,
    /// Queued jobs flip to `Cancelled`; running jobs unwind at their
    /// executor's next wave.
    Cancel,
}

impl ShutdownMode {
    /// Parses the wire spelling (`None` defaults to drain).
    pub(crate) fn parse(label: Option<&str>) -> Result<ShutdownMode, String> {
        match label {
            None | Some("drain") => Ok(ShutdownMode::Drain),
            Some("cancel") => Ok(ShutdownMode::Cancel),
            Some(other) => Err(format!("unknown shutdown mode {other:?}")),
        }
    }
}

/// Why [`submit_job`] refused a job, with enough structure for the
/// router to pick the status code and `Retry-After`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SubmitRejection {
    /// Malformed or invalid job spec: the client's fault, never
    /// retryable as-is.
    Invalid(String),
    /// The queue is closed (shutdown in progress): not retryable.
    Closed,
    /// Overload shed: retryable after backing off.
    Overloaded(String),
}

impl std::fmt::Display for SubmitRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitRejection::Invalid(e) => f.write_str(e),
            SubmitRejection::Closed => SubmitError::Closed.fmt(f),
            SubmitRejection::Overloaded(detail) => write!(f, "overloaded: {detail}"),
        }
    }
}

/// Parses, validates and submits one job given in the manifest job
/// schema; returns the new id and the job's name.
pub(crate) fn submit_job(queue: &JobQueue, job: &Json) -> Result<(JobId, String), SubmitRejection> {
    let spec = JobSpec::from_json(job)
        .and_then(|s| s.validate().map(|()| s))
        .map_err(|e| SubmitRejection::Invalid(format!("bad job: {e}")))?;
    let name = spec.name.clone();
    let id = queue.submit(spec).map_err(|e| match e {
        SubmitError::Closed => SubmitRejection::Closed,
        SubmitError::Overloaded(detail) => SubmitRejection::Overloaded(detail),
    })?;
    Ok((id, name))
}

/// One queue entry as the JSON object job lists carry: id, name,
/// phase, and — exactly when terminal — status (plus the error message
/// for failures).
pub(crate) fn snapshot_json(snap: &JobSnapshot) -> Json {
    let mut fields = vec![
        ("id".to_string(), Json::num(snap.id as f64)),
        ("name".to_string(), Json::str(&snap.name)),
        ("phase".to_string(), Json::str(snap.phase.label())),
    ];
    if let Some(status) = &snap.status {
        fields.push(("status".to_string(), Json::str(status.label())));
        if let JobStatus::Failed(e) = status {
            fields.push(("error".to_string(), Json::str(e)));
        }
    }
    Json::Obj(fields)
}

/// The labels [`JobFilter::status`] accepts: lifecycle phases plus the
/// terminal status labels of [`JobStatus`].
const STATUS_FILTER_LABELS: [&str; 9] = [
    "queued",
    "running",
    "done",
    "ok",
    "failed",
    "cancelled",
    "timed_out",
    "poisoned",
    "killed_over_budget",
];

/// Optional narrowing of the job list:
/// `GET /v1/jobs?status=<s>&limit=<n>&id=<n>`.
#[derive(Debug, Clone, Default)]
pub(crate) struct JobFilter {
    /// Only the job with this id (an unknown id is an error).
    pub(crate) id: Option<JobId>,
    /// Only jobs in this phase (`queued`/`running`/`done`) or with this
    /// terminal status (`ok`/`failed`/`cancelled`/`timed_out`/
    /// `poisoned`/`killed_over_budget`).
    pub(crate) status: Option<String>,
    /// At most this many jobs, keeping the earliest ids (counts and
    /// telemetry stay fleet-wide).
    pub(crate) limit: Option<usize>,
}

impl JobFilter {
    fn matches(&self, snap: &JobSnapshot) -> bool {
        if self.id.is_some_and(|id| snap.id != id) {
            return false;
        }
        match self.status.as_deref() {
            None => true,
            Some(label) => {
                snap.phase.label() == label
                    || snap.status.as_ref().is_some_and(|s| s.label() == label)
            }
        }
    }
}

/// The common status body: accepting flag, phase counts, live queue
/// telemetry ([`JobQueue::stats`]) and the job list, narrowed by
/// `filter` (an unknown id or status label is an error). When an index
/// registry is live its cache telemetry rides along as `"indexes"`.
pub(crate) fn status_json(
    queue: &JobQueue,
    accepting: bool,
    filter: &JobFilter,
    registry: Option<&IndexRegistry>,
) -> Result<Json, String> {
    if let Some(label) = filter.status.as_deref() {
        if !STATUS_FILTER_LABELS.contains(&label) {
            return Err(format!(
                "unknown status filter {label:?} (expected one of {})",
                STATUS_FILTER_LABELS.join("|")
            ));
        }
    }
    // One lock acquisition for both views: counts taken separately
    // from the job list could contradict it when a job finishes
    // between the two reads.
    let (snapshot, stats) = queue.snapshot_and_stats();
    if let Some(id) = filter.id {
        if id >= snapshot.len() {
            return Err(format!("unknown job id {id}"));
        }
    }
    let jobs: Vec<Json> = snapshot
        .iter()
        .filter(|s| filter.matches(s))
        .take(filter.limit.unwrap_or(usize::MAX))
        .map(snapshot_json)
        .collect();
    let mut fields = vec![
        ("accepting".to_string(), Json::Bool(accepting)),
        ("queued".to_string(), Json::num(stats.queued as f64)),
        ("running".to_string(), Json::num(stats.running as f64)),
        ("done".to_string(), Json::num(stats.done() as f64)),
        ("telemetry".to_string(), stats.to_json()),
        ("jobs".to_string(), Json::Arr(jobs)),
    ];
    if let Some(registry) = registry {
        fields.push(("indexes".to_string(), registry.stats_json()));
    }
    Ok(Json::Obj(fields))
}

/// One job's current state: the snapshot fields, plus the fingerprint
/// and full report once the job is terminal. With `wait`, blocks until
/// terminal first. `None` for an unknown id.
pub(crate) fn job_json(queue: &JobQueue, id: JobId, wait: bool) -> Option<Json> {
    // At most one report clone: the blocking wait's result is reused
    // for the response instead of being fetched a second time.
    let waited = if wait { Some(queue.wait(id)?) } else { None };
    let snap = queue.job_snapshot(id)?;
    let body = snapshot_json(&snap);
    if snap.status.is_none() {
        return Some(body);
    }
    let report = match waited {
        Some(report) => report,
        // Terminal, so this wait() returns immediately.
        None => queue.wait(id)?,
    };
    let Json::Obj(mut fields) = body else {
        unreachable!("snapshot_json builds an object");
    };
    fields.push(("fingerprint".into(), Json::str(report.fingerprint())));
    fields.push(("report".into(), report.to_json(true)));
    Some(Json::Obj(fields))
}

/// Executes a shutdown. The queue is closed *here*, synchronously with
/// the request, not merely when an accept loop notices the flag: a
/// submit racing that window on another connection would otherwise be
/// admitted after a cancel-mode sweep and run to completion. The
/// shared `shutdown` flag then stops every accept loop and connection
/// handler.
pub(crate) fn shutdown(queue: &JobQueue, flag: &CancelToken, mode: ShutdownMode) {
    queue.close();
    if mode == ShutdownMode::Cancel {
        queue.cancel_all();
    }
    flag.cancel();
}

/// Default `k` (candidate list length) of a match query when the client
/// does not pass one.
pub(crate) const DEFAULT_MATCH_K: usize = 10;

/// Why an index operation failed, with enough structure for the router
/// to pick its status code; the unified error body comes from
/// [`IndexRejection::to_error_body`].
#[derive(Debug)]
pub(crate) enum IndexRejection {
    /// Malformed id, job spec or query parameter (HTTP `400`).
    BadRequest(String),
    /// No such index, or the queried entity is in neither KB (`404`).
    NotFound(String),
    /// An index with this id already exists, or the queue is closed
    /// (`409`).
    Conflict(String),
    /// Overload shed on the build path (`429`, retryable).
    Overloaded(String),
    /// Index serving is disabled or the artifact cannot be read
    /// (`503`; retryable exactly for transient I/O trouble).
    Unavailable {
        /// Human-readable cause.
        message: String,
        /// Whether a retry could succeed.
        retryable: bool,
    },
}

impl IndexRejection {
    /// The HTTP status this rejection maps to.
    pub(crate) fn status(&self) -> u16 {
        match self {
            IndexRejection::BadRequest(_) => 400,
            IndexRejection::NotFound(_) => 404,
            IndexRejection::Conflict(_) => 409,
            IndexRejection::Overloaded(_) => 429,
            IndexRejection::Unavailable { .. } => 503,
        }
    }

    /// Whether resubmitting the identical request later can succeed.
    pub(crate) fn retryable(&self) -> bool {
        match self {
            IndexRejection::Overloaded(_) => true,
            IndexRejection::Unavailable { retryable, .. } => *retryable,
            _ => false,
        }
    }

    /// The unified `{"code","message","retryable"}` error object.
    pub(crate) fn to_error_body(&self) -> Json {
        let message = match self {
            IndexRejection::BadRequest(m)
            | IndexRejection::NotFound(m)
            | IndexRejection::Conflict(m)
            | IndexRejection::Overloaded(m)
            | IndexRejection::Unavailable { message: m, .. } => m.as_str(),
        };
        error_body(code_for_status(self.status()), message, self.retryable())
    }
}

impl From<RegistryError> for IndexRejection {
    fn from(e: RegistryError) -> Self {
        match e {
            RegistryError::InvalidId => IndexRejection::BadRequest(e.to_string()),
            RegistryError::NotFound => IndexRejection::NotFound(e.to_string()),
            RegistryError::Artifact(_) => IndexRejection::Unavailable {
                retryable: e.retryable(),
                message: e.to_string(),
            },
        }
    }
}

/// The registry, or the uniform "serving disabled" rejection when the
/// daemon runs without an index directory.
fn need_registry(registry: Option<&IndexRegistry>) -> Result<&IndexRegistry, IndexRejection> {
    registry.ok_or_else(|| IndexRejection::Unavailable {
        message: "index serving is disabled (start the server with --index-dir)".into(),
        retryable: false,
    })
}

/// `POST /v1/indexes` / op `index-build`: parse the job, reserve the
/// artifact path (server-side — the wire schema has no path field) and
/// admit the build through the supervised queue. The index id is the
/// job name.
pub(crate) fn index_build(
    queue: &JobQueue,
    registry: Option<&IndexRegistry>,
    job: &Json,
) -> Result<(JobId, String), IndexRejection> {
    let registry = need_registry(registry)?;
    let mut spec = JobSpec::from_json(job)
        .and_then(|s| s.validate().map(|()| s))
        .map_err(|e| IndexRejection::BadRequest(format!("bad job: {e}")))?;
    let path = registry
        .path_for(&spec.name)
        .map_err(IndexRejection::from)?;
    if path.exists() {
        return Err(IndexRejection::Conflict(format!(
            "index {:?} already exists; DELETE it first to rebuild",
            spec.name
        )));
    }
    spec.persist = Some(path);
    let name = spec.name.clone();
    let id = queue.submit(spec).map_err(|e| match e {
        SubmitError::Closed => IndexRejection::Conflict(e.to_string()),
        SubmitError::Overloaded(detail) => {
            IndexRejection::Overloaded(format!("overloaded: {detail}"))
        }
    })?;
    Ok((id, name))
}

/// `PATCH /v1/indexes/{id}` / op `index-patch`: parse the delta stream
/// (the [`minoan_kb::delta`] wire schema, `{"deltas":[…]}`) and admit
/// a patch job through the supervised queue. The job loads the
/// artifact, applies the ops to its embedded pair, re-runs the pipeline
/// over it and atomically rewrites the file; the daemon's completion hook then
/// drops the stale cached copy. One patch per index at a time: a second
/// PATCH while one is queued or running is a `409` — two writers would
/// race on the same artifact file.
pub(crate) fn index_patch(
    queue: &JobQueue,
    registry: Option<&IndexRegistry>,
    id: &str,
    body: &Json,
) -> Result<(JobId, String), IndexRejection> {
    let registry = need_registry(registry)?;
    let path = registry.path_for(id).map_err(IndexRejection::from)?;
    let ops = minoan_kb::delta::ops_from_json(body)
        .map_err(|e| IndexRejection::BadRequest(format!("bad delta stream: {e}")))?;
    if ops.is_empty() {
        return Err(IndexRejection::BadRequest(
            "the delta stream is empty; send at least one op".into(),
        ));
    }
    if !path.exists() {
        return Err(IndexRejection::NotFound(format!("no such index {id:?}")));
    }
    if queue.patch_in_flight(id) {
        return Err(IndexRejection::Conflict(format!(
            "a patch for index {id:?} is already queued or running; wait for it first"
        )));
    }
    let spec = JobSpec {
        name: format!("{id}:patch"),
        input: crate::manifest::JobInput::IndexPatch {
            id: id.to_string(),
            path,
            ops,
        },
        truth: None,
        theta: None,
        candidates_k: None,
        purge_blocks: None,
        timeout_ms: None,
        max_retries: None,
        persist: None,
    };
    let job = queue.submit(spec).map_err(|e| match e {
        SubmitError::Closed => IndexRejection::Conflict(e.to_string()),
        SubmitError::Overloaded(detail) => {
            IndexRejection::Overloaded(format!("overloaded: {detail}"))
        }
    })?;
    Ok((job, id.to_string()))
}

/// `GET /v1/indexes` / op `index-list`: every persisted index plus the
/// loaded-cache telemetry.
pub(crate) fn index_list(registry: Option<&IndexRegistry>) -> Result<Json, IndexRejection> {
    let registry = need_registry(registry)?;
    let entries = registry.list().map_err(|e| IndexRejection::Unavailable {
        message: format!("cannot list index directory: {e}"),
        retryable: true,
    })?;
    let indexes: Vec<Json> = entries
        .iter()
        .map(|e| {
            Json::obj([
                ("id", Json::str(&e.id)),
                ("file_bytes", Json::num(e.file_bytes as f64)),
                ("loaded", Json::Bool(e.loaded)),
            ])
        })
        .collect();
    Ok(Json::obj([
        ("indexes", Json::Arr(indexes)),
        ("cache", registry.stats_json()),
    ]))
}

/// `GET /v1/indexes/{id}` / op `index-inspect`: the artifact's metadata
/// (sizes, entity counts, build timings, format version).
pub(crate) fn index_meta(
    registry: Option<&IndexRegistry>,
    id: &str,
) -> Result<Json, IndexRejection> {
    let registry = need_registry(registry)?;
    let meta = registry.meta(id).map_err(IndexRejection::from)?;
    let Json::Obj(mut fields) = meta.to_json() else {
        unreachable!("meta JSON is an object");
    };
    fields.insert(0, ("id".to_string(), Json::str(id)));
    Ok(Json::Obj(fields))
}

/// `DELETE /v1/indexes/{id}` / op `index-delete`: drop the artifact and
/// evict any cached copy.
pub(crate) fn index_delete(
    registry: Option<&IndexRegistry>,
    id: &str,
) -> Result<Json, IndexRejection> {
    let registry = need_registry(registry)?;
    registry.delete(id).map_err(IndexRejection::from)?;
    Ok(Json::obj([
        ("index", Json::str(id)),
        ("deleted", Json::Bool(true)),
    ]))
}

/// `GET /v1/indexes/{id}/match?entity=<iri>&k=<n>` / op `index-match`:
/// the hot path. Answers from the loaded artifact — no ingest, no
/// blocking, no pipeline — and says so in its stage-timing telemetry:
/// the build-once stages report zero, only `load` (amortized to zero
/// by the cache) and `query` spend anything.
pub(crate) fn index_match(
    registry: Option<&IndexRegistry>,
    id: &str,
    entity: &str,
    k: usize,
) -> Result<Json, IndexRejection> {
    let registry = need_registry(registry)?;
    if entity.is_empty() {
        return Err(IndexRejection::BadRequest(
            "match queries need a non-empty `entity` IRI".into(),
        ));
    }
    if k == 0 {
        return Err(IndexRejection::BadRequest("`k` must be at least 1".into()));
    }
    // The bound is the longest row an index persists: a bigger `k`
    // could not return more candidates.
    if k > MAX_CANDIDATES {
        return Err(IndexRejection::BadRequest(format!(
            "`k` must be at most {MAX_CANDIDATES}, got {k}"
        )));
    }
    let t_load = Instant::now();
    let artifact = registry.load(id).map_err(IndexRejection::from)?;
    let load_ms = t_load.elapsed().as_secs_f64() * 1e3;
    let t_query = Instant::now();
    let answer = artifact.match_query(entity, k).ok_or_else(|| {
        IndexRejection::NotFound(format!(
            "entity {entity:?} is in neither KB of index {id:?}"
        ))
    })?;
    let query_ms = t_query.elapsed().as_secs_f64() * 1e3;
    // One end-to-end latency observation per answered query (load +
    // query; rejected queries never reach here).
    crate::telemetry::MATCH_QUERY.observe(t_load.elapsed());
    Ok(answer.to_json(id, load_ms, query_ms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::JobInput;
    use minoan_datagen::DatasetKind;

    fn queue_with_one_queued_job() -> (JobQueue, JobId) {
        let queue = JobQueue::new(1, 0);
        let id = queue
            .submit(JobSpec {
                name: "j".into(),
                input: JobInput::Synthetic {
                    kind: DatasetKind::Restaurant,
                    seed: 1,
                    scale: 0.05,
                },
                truth: None,
                theta: None,
                candidates_k: None,
                purge_blocks: None,
                timeout_ms: None,
                max_retries: None,
                persist: None,
            })
            .unwrap();
        (queue, id)
    }

    fn only_id(id: JobId) -> JobFilter {
        JobFilter {
            id: Some(id),
            ..JobFilter::default()
        }
    }

    #[test]
    fn shutdown_mode_parses_wire_labels() {
        assert_eq!(ShutdownMode::parse(None), Ok(ShutdownMode::Drain));
        assert_eq!(ShutdownMode::parse(Some("drain")), Ok(ShutdownMode::Drain));
        assert_eq!(
            ShutdownMode::parse(Some("cancel")),
            Ok(ShutdownMode::Cancel)
        );
        assert!(ShutdownMode::parse(Some("explode"))
            .unwrap_err()
            .contains("unknown shutdown mode"));
    }

    #[test]
    fn status_body_carries_counts_and_telemetry() {
        let (queue, id) = queue_with_one_queued_job();
        let body = status_json(&queue, true, &JobFilter::default(), None).unwrap();
        assert_eq!(body.get("accepting"), Some(&Json::Bool(true)));
        assert_eq!(body.get("queued").unwrap().as_usize(), Some(1));
        assert_eq!(body.get("done").unwrap().as_usize(), Some(0));
        let telemetry = body.get("telemetry").expect("telemetry object");
        assert_eq!(telemetry.get("queued").unwrap().as_usize(), Some(1));
        assert!(telemetry.get("stage_ms").is_some());
        assert!(status_json(&queue, true, &only_id(id), None).is_ok());
        let err = status_json(&queue, true, &only_id(7), None).unwrap_err();
        assert!(err.contains("unknown job id"), "{err}");
    }

    #[test]
    fn status_filters_narrow_the_job_list() {
        let (queue, id) = queue_with_one_queued_job();
        let filtered = |status: Option<&str>, limit: Option<usize>| {
            status_json(
                &queue,
                true,
                &JobFilter {
                    id: None,
                    status: status.map(str::to_string),
                    limit,
                },
                None,
            )
        };
        let by_phase = filtered(Some("queued"), None).unwrap();
        let Json::Arr(jobs) = by_phase.get("jobs").unwrap().clone() else {
            panic!("jobs is an array");
        };
        assert_eq!(jobs.len(), 1);
        // No job is terminal yet, so a terminal-status filter matches
        // nothing — but the fleet-wide counts are untouched.
        let by_status = filtered(Some("ok"), None).unwrap();
        assert_eq!(by_status.get("jobs"), Some(&Json::Arr(Vec::new())));
        assert_eq!(by_status.get("queued").unwrap().as_usize(), Some(1));
        let limited = filtered(None, Some(0)).unwrap();
        assert_eq!(limited.get("jobs"), Some(&Json::Arr(Vec::new())));
        let err = filtered(Some("exploded"), None).unwrap_err();
        assert!(err.contains("unknown status filter"), "{err}");
        queue.cancel(id);
        let cancelled = filtered(Some("cancelled"), None).unwrap();
        let Json::Arr(jobs) = cancelled.get("jobs").unwrap().clone() else {
            panic!("jobs is an array");
        };
        assert_eq!(jobs.len(), 1, "terminal label matches after cancel");
    }

    #[test]
    fn unified_error_body_has_the_three_fields() {
        let body = error_body(code_for_status(429), "back off", retryable_status(429));
        assert_eq!(body.get("code").unwrap().as_str(), Some("overloaded"));
        assert_eq!(body.get("message").unwrap().as_str(), Some("back off"));
        assert_eq!(body.get("retryable"), Some(&Json::Bool(true)));
        assert_eq!(code_for_status(404), "not_found");
        assert!(!retryable_status(404));
        assert!(retryable_status(503));
    }

    #[test]
    fn index_ops_without_a_registry_reject_as_unavailable() {
        let queue = JobQueue::new(1, 0);
        let job = Json::parse(r#"{"name":"ix","dataset":"restaurant","scale":0.05}"#).unwrap();
        let err = index_build(&queue, None, &job).unwrap_err();
        assert_eq!(err.status(), 503);
        assert!(!err.retryable());
        let body = err.to_error_body();
        assert_eq!(body.get("code").unwrap().as_str(), Some("unavailable"));
        assert!(index_list(None).is_err());
        assert!(index_meta(None, "ix").is_err());
        assert!(index_delete(None, "ix").is_err());
        assert!(index_match(None, "ix", "a:1", 5).is_err());
    }

    #[test]
    fn job_body_grows_a_report_once_terminal() {
        let (queue, id) = queue_with_one_queued_job();
        let body = job_json(&queue, id, false).unwrap();
        assert_eq!(body.get("phase").unwrap().as_str(), Some("queued"));
        assert!(body.get("report").is_none(), "no report before terminal");
        queue.cancel(id);
        let body = job_json(&queue, id, false).unwrap();
        assert_eq!(body.get("status").unwrap().as_str(), Some("cancelled"));
        assert!(body.get("report").is_some());
        assert!(body.get("fingerprint").is_some());
        assert!(job_json(&queue, 9, false).is_none(), "unknown id");
    }

    #[test]
    fn cancel_mode_shutdown_flips_queued_jobs() {
        let (queue, id) = queue_with_one_queued_job();
        let flag = CancelToken::new();
        shutdown(&queue, &flag, ShutdownMode::Cancel);
        assert!(flag.is_cancelled());
        let report = queue.wait(id).unwrap();
        assert_eq!(report.status, JobStatus::Cancelled);
        let job = Json::parse(r#"{"name":"late","dataset":"restaurant","scale":0.05}"#).unwrap();
        let err = submit_job(&queue, &job).unwrap_err();
        assert_eq!(err, SubmitRejection::Closed);
        assert!(err.to_string().contains("closed"), "{err}");
    }
}
