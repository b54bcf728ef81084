//! The endpoint handlers behind [`crate::http::route`].
//!
//! `route` only dispatches: it matches the method and path and calls
//! one handler here. A handler reads its parameters off the request,
//! runs one operation over the live [`JobQueue`] or the
//! [`IndexRegistry`] — submit, status, job state, trace, cancel,
//! shutdown, and index build, patch, list, inspect, delete and match —
//! and returns its finished [`Response`]: `Ok` for the answer, `Err`
//! for the error, whose status is decided where the failure is known.
//! Queue and registry errors convert with `?` through the `From` impls
//! beside [`Response`]. The line-JSON protocol ([`crate::daemon`]) is a
//! framing over `route`, not a second front-end.

use std::time::Instant;

use minoan_core::MAX_CANDIDATES;
use minoan_kb::Json;

use crate::http::{Request, Response};
use crate::manifest::{JobInput, JobSpec};
use crate::registry::IndexRegistry;
use crate::report::JobStatus;
use crate::scheduler::{CancelOutcome, CancelToken, JobId, JobQueue, JobSnapshot};

/// How a shutdown request treats jobs still in the queue: `drain` lets
/// queued jobs run to completion, `cancel` flips queued jobs to
/// `Cancelled` and sets the tokens of running ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShutdownMode {
    /// Queued jobs still run; the server exits once the queue drains.
    Drain,
    /// Queued jobs flip to `Cancelled`; running jobs unwind at their
    /// executor's next wave.
    Cancel,
}

impl ShutdownMode {
    /// Parses the wire spelling (`None` defaults to drain).
    fn parse(label: Option<&str>) -> Result<ShutdownMode, String> {
        match label {
            None | Some("drain") => Ok(ShutdownMode::Drain),
            Some("cancel") => Ok(ShutdownMode::Cancel),
            Some(other) => Err(format!("unknown shutdown mode {other:?}")),
        }
    }
}

/// The request body as JSON; `what` names it in the `400`.
fn json_body(request: &Request, what: &str) -> Result<Json, Response> {
    Json::parse_bytes(&request.body)
        .map_err(|e| Response::error(400, format!("bad {what} body: {e}")))
}

/// A job in the manifest job schema, parsed and validated.
fn job_spec(job: &Json) -> Result<JobSpec, Response> {
    JobSpec::from_json(job)
        .and_then(|s| s.validate().map(|()| s))
        .map_err(|e| Response::error(400, format!("bad job: {e}")))
}

/// A job id path segment.
fn job_id(segment: &str) -> Result<JobId, Response> {
    segment.parse::<JobId>().map_err(|_| {
        Response::error(
            400,
            format!("job id must be a non-negative integer, got {segment:?}"),
        )
    })
}

fn unknown_job(id: JobId) -> Response {
    Response::error(404, format!("unknown job id {id}"))
}

/// A non-negative integer query parameter; `None` when absent.
fn count_param(request: &Request, name: &str) -> Result<Option<usize>, Response> {
    request
        .query_param(name)
        .map(str::parse::<usize>)
        .transpose()
        .map_err(|_| Response::error(400, format!("{name} must be a non-negative integer")))
}

/// `POST /v1/jobs`: parse, validate and admit one job.
pub(crate) fn submit_job(request: &Request, queue: &JobQueue) -> Result<Response, Response> {
    let spec = job_spec(&json_body(request, "job")?)?;
    let name = spec.name.clone();
    let id = queue.submit(spec)?;
    let body = Json::obj([("id", Json::num(id as f64)), ("name", Json::str(name))]);
    Ok(Response::json(201, body).with_header("Location", format!("/v1/jobs/{id}")))
}

/// One queue entry as the JSON object job lists carry: id, name,
/// phase, and — exactly when terminal — status (plus the error message
/// for failures).
fn snapshot_json(snap: &JobSnapshot) -> Json {
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
struct JobFilter {
    /// Only the job with this id (an unknown id is an error).
    id: Option<JobId>,
    /// Only jobs in this phase (`queued`/`running`/`done`) or with this
    /// terminal status (`ok`/`failed`/`cancelled`/`timed_out`/
    /// `poisoned`/`killed_over_budget`).
    status: Option<String>,
    /// At most this many jobs, keeping the earliest ids (counts and
    /// telemetry stay fleet-wide).
    limit: Option<usize>,
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

/// `GET /v1/jobs`: [`status_json`] narrowed by the request's
/// `?status=`, `?limit=` and `?id=`.
pub(crate) fn list_jobs(
    request: &Request,
    queue: &JobQueue,
    accepting: bool,
    registry: Option<&IndexRegistry>,
) -> Result<Response, Response> {
    let limit = count_param(request, "limit")?;
    let filter = JobFilter {
        id: count_param(request, "id")?,
        status: request.query_param("status").map(str::to_string),
        limit,
    };
    let body =
        status_json(queue, accepting, &filter, registry).map_err(|e| Response::error(400, e))?;
    Ok(Response::json(200, body))
}

/// The common status body: accepting flag, phase counts, live queue
/// telemetry ([`JobQueue::stats`]) and the job list, narrowed by
/// `filter` (an unknown id or status label is an error). When an index
/// registry is live its cache telemetry rides along as `"indexes"`.
fn status_json(
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

/// `GET /v1/jobs/{id}`: [`job_json`], waiting first on `?wait=true`.
pub(crate) fn get_job(request: &Request, queue: &JobQueue, id: &str) -> Result<Response, Response> {
    let id = job_id(id)?;
    let body = job_json(queue, id, request.wants_wait()).ok_or_else(|| unknown_job(id))?;
    Ok(Response::json(200, body))
}

/// One job's current state: the snapshot fields, plus the fingerprint
/// and full report once the job is terminal. With `wait`, blocks until
/// terminal first. `None` for an unknown id.
fn job_json(queue: &JobQueue, id: JobId, wait: bool) -> Option<Json> {
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

/// `GET /v1/jobs/{id}/trace`: the job's span trees, one per attempt.
pub(crate) fn job_trace(queue: &JobQueue, id: &str) -> Result<Response, Response> {
    let id = job_id(id)?;
    let body = crate::events::job_trace_json(queue, id).ok_or_else(|| unknown_job(id))?;
    Ok(Response::json(200, body))
}

/// `DELETE /v1/jobs/{id}`: cancel the job, queued or running.
pub(crate) fn cancel_job(queue: &JobQueue, id: &str) -> Result<Response, Response> {
    let id = job_id(id)?;
    match queue.cancel(id) {
        CancelOutcome::Unknown => Err(unknown_job(id)),
        outcome => Ok(Response::json(
            200,
            Json::obj([
                ("id", Json::num(id as f64)),
                ("outcome", Json::str(outcome.label())),
            ]),
        )),
    }
}

/// `POST /v1/shutdown`, body `{"mode":"drain"|"cancel"}` or empty
/// (drain). The queue is closed *here*, synchronously with the
/// request, not merely when an accept loop notices the flag: a submit
/// racing that window on another connection would otherwise be
/// admitted after a cancel-mode sweep and run to completion. The
/// shared `flag` then stops every accept loop and connection handler.
pub(crate) fn shutdown(
    request: &Request,
    queue: &JobQueue,
    flag: &CancelToken,
) -> Result<Response, Response> {
    let label = if request.body.is_empty() {
        None
    } else {
        let body = json_body(request, "shutdown")?;
        body.get("mode").and_then(Json::as_str).map(str::to_string)
    };
    let mode = ShutdownMode::parse(label.as_deref()).map_err(|e| Response::error(400, e))?;
    queue.close();
    if mode == ShutdownMode::Cancel {
        queue.cancel_all();
    }
    flag.cancel();
    let label = if mode == ShutdownMode::Cancel {
        "cancel"
    } else {
        "drain"
    };
    Ok(Response::json(
        200,
        Json::obj([
            ("shutting_down", Json::Bool(true)),
            ("mode", Json::str(label)),
        ]),
    ))
}

/// Default `k` (candidate list length) of a match query when the client
/// does not pass one.
const DEFAULT_MATCH_K: usize = 10;

/// The registry, or the "serving disabled" `503` when the daemon runs
/// without an index directory.
fn need_registry(registry: Option<&IndexRegistry>) -> Result<&IndexRegistry, Response> {
    registry.ok_or_else(|| {
        let message = "index serving is disabled (start the server with --index-dir)";
        Response::failure(503, message, false)
    })
}

/// `POST /v1/indexes`: parse the job, reserve the artifact path
/// (server-side — the wire schema has no path field) and admit the
/// build through the supervised queue. The index id is the job name.
/// `?wait=true` holds the `201` until the build job ends.
pub(crate) fn index_build(
    request: &Request,
    queue: &JobQueue,
    registry: Option<&IndexRegistry>,
) -> Result<Response, Response> {
    let job = json_body(request, "index")?;
    let registry = need_registry(registry)?;
    let mut spec = job_spec(&job)?;
    let path = registry.path_for(&spec.name)?;
    if path.exists() {
        return Err(Response::error(
            409,
            format!(
                "index {:?} already exists; DELETE it first to rebuild",
                spec.name
            ),
        ));
    }
    spec.persist = Some(path);
    let name = spec.name.clone();
    let id = queue.submit(spec)?;
    if request.wants_wait() {
        queue.wait(id);
    }
    let body = Json::obj([("job", Json::num(id as f64)), ("index", Json::str(&name))]);
    Ok(Response::json(201, body).with_header("Location", format!("/v1/indexes/{name}")))
}

/// `PATCH /v1/indexes/{id}`: parse the delta stream (the
/// [`minoan_kb::delta`] wire schema, `{"deltas":[…]}`, never empty)
/// and admit a patch job through the supervised queue. The job loads
/// the artifact, applies the ops to its embedded pair, re-runs the
/// pipeline over it and atomically rewrites the file; the daemon's
/// completion hook then drops the stale cached copy. One patch per
/// index at a time: a second PATCH while one is queued or running is a
/// `409` — two writers would race on the same artifact file.
/// `?wait=true` holds the `202` until the patch job ends.
pub(crate) fn index_patch(
    request: &Request,
    queue: &JobQueue,
    registry: Option<&IndexRegistry>,
    id: &str,
) -> Result<Response, Response> {
    let body = json_body(request, "patch")?;
    let path = need_registry(registry)?.path_for(id)?;
    let ops = minoan_kb::delta::ops_from_json(&body)
        .map_err(|e| Response::error(400, format!("bad delta stream: {e}")))?;
    if !path.exists() {
        return Err(Response::error(404, format!("no such index {id:?}")));
    }
    if queue.patch_in_flight(id) {
        return Err(Response::error(
            409,
            format!("a patch for index {id:?} is already queued or running; wait for it first"),
        ));
    }
    let spec = JobSpec {
        name: format!("{id}:patch"),
        input: JobInput::IndexPatch {
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
    let job = queue.submit(spec)?;
    if request.wants_wait() {
        queue.wait(job);
    }
    let body = Json::obj([("job", Json::num(job as f64)), ("index", Json::str(id))]);
    Ok(Response::json(202, body).with_header("Location", format!("/v1/jobs/{job}")))
}

/// `GET /v1/indexes`: every persisted index plus the loaded-cache
/// telemetry.
pub(crate) fn index_list(registry: Option<&IndexRegistry>) -> Result<Response, Response> {
    let registry = need_registry(registry)?;
    let entries = registry
        .list()
        .map_err(|e| Response::error(503, format!("cannot list index directory: {e}")))?;
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
    let body = Json::obj([
        ("indexes", Json::Arr(indexes)),
        ("cache", registry.stats_json()),
    ]);
    Ok(Response::json(200, body))
}

/// `GET /v1/indexes/{id}`: the artifact's metadata (sizes, entity
/// counts, build timings, format version).
pub(crate) fn index_meta(registry: Option<&IndexRegistry>, id: &str) -> Result<Response, Response> {
    let meta = need_registry(registry)?.meta(id)?;
    let Json::Obj(mut fields) = meta.to_json() else {
        unreachable!("meta JSON is an object");
    };
    fields.insert(0, ("id".to_string(), Json::str(id)));
    Ok(Response::json(200, Json::Obj(fields)))
}

/// `DELETE /v1/indexes/{id}`: drop the artifact and evict any cached
/// copy.
pub(crate) fn index_delete(
    registry: Option<&IndexRegistry>,
    id: &str,
) -> Result<Response, Response> {
    need_registry(registry)?.delete(id)?;
    let body = Json::obj([("index", Json::str(id)), ("deleted", Json::Bool(true))]);
    Ok(Response::json(200, body))
}

/// `GET /v1/indexes/{id}/match?entity=<iri>&k=<n>`: the hot path.
/// Answers from the loaded artifact — no ingest, no blocking, no
/// pipeline — and says so in its stage-timing telemetry: the
/// build-once stages report zero, only `load` (amortized to zero by
/// the cache) and `query` spend anything.
pub(crate) fn index_match(
    request: &Request,
    registry: Option<&IndexRegistry>,
    id: &str,
) -> Result<Response, Response> {
    let entity = request.query_param("entity").unwrap_or("");
    let k = match request.query_param("k") {
        None => DEFAULT_MATCH_K,
        Some(raw) => raw.parse::<usize>().map_err(|_| {
            Response::error(400, format!("k must be a positive integer, got {raw:?}"))
        })?,
    };
    let registry = need_registry(registry)?;
    if entity.is_empty() {
        return Err(Response::error(
            400,
            "match queries need a non-empty `entity` IRI",
        ));
    }
    if k == 0 {
        return Err(Response::error(400, "`k` must be at least 1"));
    }
    // The bound is the longest row an index persists: a bigger `k`
    // could not return more candidates.
    if k > MAX_CANDIDATES {
        return Err(Response::error(
            400,
            format!("`k` must be at most {MAX_CANDIDATES}, got {k}"),
        ));
    }
    let t_load = Instant::now();
    let artifact = registry.load(id)?;
    let load_ms = t_load.elapsed().as_secs_f64() * 1e3;
    let t_query = Instant::now();
    let answer = artifact.match_query(entity, k).ok_or_else(|| {
        Response::error(
            404,
            format!("entity {entity:?} is in neither KB of index {id:?}"),
        )
    })?;
    let query_ms = t_query.elapsed().as_secs_f64() * 1e3;
    // One end-to-end latency observation per answered query (load +
    // query; rejected queries never reach here).
    crate::telemetry::MATCH_QUERY.observe(t_load.elapsed());
    Ok(Response::json(200, answer.to_json(id, load_ms, query_ms)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Body;
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

    /// A request with these query pairs and this body; the handlers
    /// under test read nothing else.
    fn request(query: &[(&str, &str)], body: &str) -> Request {
        Request {
            method: String::new(),
            path: String::new(),
            query: query
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// The unified error object an error response carries.
    fn error_object(response: &Response) -> &Json {
        let Body::Json(body) = &response.body else {
            panic!("error bodies are JSON");
        };
        body.get("error").expect("an error object")
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
    fn index_ops_without_a_registry_reject_as_unavailable() {
        let queue = JobQueue::new(1, 0);
        let job = request(&[], r#"{"name":"ix","dataset":"restaurant","scale":0.05}"#);
        let err = index_build(&job, &queue, None).unwrap_err();
        assert_eq!(err.status, 503);
        let body = error_object(&err);
        assert_eq!(body.get("retryable"), Some(&Json::Bool(false)));
        assert_eq!(body.get("code").unwrap().as_str(), Some("unavailable"));
        assert!(index_list(None).is_err());
        assert!(index_meta(None, "ix").is_err());
        assert!(index_delete(None, "ix").is_err());
        let query = request(&[("entity", "a:1"), ("k", "5")], "");
        assert!(index_match(&query, None, "ix").is_err());
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
        shutdown(&request(&[], r#"{"mode":"cancel"}"#), &queue, &flag).unwrap();
        assert!(flag.is_cancelled());
        let report = queue.wait(id).unwrap();
        assert_eq!(report.status, JobStatus::Cancelled);
        let job = request(
            &[],
            r#"{"name":"late","dataset":"restaurant","scale":0.05}"#,
        );
        let err = submit_job(&job, &queue).unwrap_err();
        assert_eq!(err.status, 409);
        let message = error_object(&err).get("message").unwrap().as_str().unwrap();
        assert!(message.contains("closed"), "{message}");
    }
}
