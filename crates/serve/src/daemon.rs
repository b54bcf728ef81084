//! Long-running daemon intake: a line-delimited JSON socket protocol
//! feeding the same live [`JobQueue`] the batch scheduler drains.
//!
//! `minoaner serve --listen <addr>` turns the one-shot batch fleet into
//! a service: jobs arrive over time, are admitted strictly in
//! submission order under the bounded-memory budget, run pairs-first
//! with straggler widening, and stream terminal reports in completion
//! order — exactly like a manifest batch, including per-job
//! bit-identity with solo sequential runs. A *running* job can be
//! cancelled: its [`CancelToken`] rides on the job's executor and makes
//! the load or pipeline unwind (see [`minoan_exec::cancel`]) to a
//! `Cancelled` report within one pool task, or one wave on the
//! sequential backend, without disturbing other in-flight jobs.
//!
//! The daemon can run **two protocol front-ends over the same queue**
//! at once ([`run_server`], [`Frontends`]): this module's line-JSON
//! protocol and the HTTP/1.1 front-end in [`crate::http`]
//! (`--listen-http`). Both delegate every operation to the shared
//! queue-fronting request layer, so a job takes the identical
//! parse → validate → admit path whichever socket it arrives on.
//!
//! ## Wire protocol
//!
//! One JSON document per line in each direction (UTF-8, LF-terminated;
//! the writer escapes embedded newlines, so framing is unambiguous).
//! Requests are objects with an `op` field; every response carries
//! `"ok": true|false`, with `"error"` describing a failure — including
//! for frames that are not valid UTF-8 or not valid JSON (the
//! connection stays usable; a malformed frame never wedges the accept
//! loop). Frames are capped at [`MAX_FRAME_BYTES`]; an over-long frame
//! gets one error response and the connection closes. Requests on one
//! connection are processed strictly in order; concurrent connections
//! are independent.
//!
//! Failures use the same structured error object as the HTTP
//! front-end, wrapped in the protocol's envelope:
//! `{"ok":false,"error":{"code":"…","message":"…","retryable":B}}`.
//! `retryable` is `true` exactly when backing off and resubmitting can
//! succeed (overload shed, index cache pressure); overload sheds keep
//! the historical top-level `"retryable":true` alongside.
//!
//! | op | request fields | response |
//! |----|----------------|----------|
//! | `submit` | `job`: a manifest job object (same schema as a `[[job]]` table / `jobs` element, see [`crate::manifest`]) | `{"ok":true,"id":N,"name":"…"}` — `id` is the submission index; an overload shed answers `{"ok":false,"retryable":true,"error":{…}}` (back off and resubmit) |
//! | `status` | optional `id`, optional `status` (phase or terminal-status label), optional `limit` | `{"ok":true,"accepting":B,"queued":N,"running":N,"done":N,"telemetry":{…},"jobs":[{"id":N,"name":"…","phase":"queued\|running\|done","status":"ok\|failed\|cancelled"?,"error":"…"?}]}` (`jobs` narrowed by the filters; with an index registry live, an `"indexes"` cache-telemetry object rides along) — `telemetry` is the live [`QueueStats`](crate::scheduler::QueueStats) view: admitted footprint vs. memory budget, thread allotments, per-status done counts, cumulative stage timings |
//! | `cancel` | `id` | `{"ok":true,"id":N,"outcome":"cancelled\|cancelling\|done\|unknown"}` — `cancelled`: flipped before dispatch; `cancelling`: token set, the running job unwinds at its next wave; `done`: already terminal, report unchanged |
//! | `wait` | `id` | blocks until the job is terminal, then `{"ok":true,"id":N,"fingerprint":"…","report":{…}}` — `report` is [`JobReport::to_json`] with pairs, `fingerprint` the raw deterministic [`JobReport::fingerprint`] |
//! | `events` | optional `from` (ring cursor, default `0`: everything still buffered), optional `job`, optional `level` (`error\|warn\|info\|debug`, default `info`), optional `wait` (block up to ~1 s for at least one new record) | `{"ok":true,"events":[{"seq","micros","level","name","job","trace","detail"}],"next":N,"dropped":N}` — poll with `from` set to the previous `next`; `dropped` counts ring records evicted before this cursor read them |
//! | `trace` | `id` | `{"ok":true,"id":N,"name":"…","phase":"…","attempts":[{"trace":N,"spans":[…],"events":[…]}]}` — one assembled span tree per attempt (each retry runs under a fresh trace id), from whatever the bounded ring still retains |
//! | `index-build` | `job`: a manifest job object; its `name` becomes the index id | `{"ok":true,"job":N,"index":"…"}` — the build runs through the job queue and persists an artifact under the registry directory; rebuilding an existing id is a `conflict` |
//! | `index-list` | — | `{"ok":true,"indexes":[{"id":"…","file_bytes":N,"loaded":B}],"cache":{…}}` |
//! | `index-inspect` | `index` | `{"ok":true,"id":"…",…}` — the artifact's metadata section, read without loading the full index |
//! | `index-delete` | `index` | `{"ok":true,"index":"…","deleted":true}` — also evicts the loaded copy |
//! | `index-patch` | `index`, `deltas`: an array of delta ops (the [`minoan_kb::delta`] wire schema) | `{"ok":true,"job":N,"index":"…"}` — admits a patch job: the ops are applied to the index's embedded KB pair, the pipeline re-runs over it with the index's build parameters, the artifact file is atomically rewritten, and the stale cached copy is dropped on completion; `wait` on the job id for the patched report. A second patch for the same index while one is in flight is a `conflict` |
//! | `index-match` | `index`, `entity` (an entity IRI from either KB), optional `k` | `{"ok":true,"index":"…","entity":"…","side":"first\|second","matches":[…],"candidates":[{"uri":"…","score":F}],"stage_timings_ms":{…}}` — answered from the loaded artifact; `ingest`/`blocking`/`similarities` timings are literally `0` |
//! | `shutdown` | optional `mode`: `"drain"` (default: queued jobs still run) or `"cancel"` (queued jobs flip to `Cancelled`, running jobs are cancelled) | `{"ok":true}`; the daemon then stops accepting, drains and exits |
//!
//! The `index-*` ops need the daemon started with an index directory
//! (`--index-dir`); without one they answer an `unavailable` error.
//!
//! A `status`/`done` job is never reported `running` and `cancelled` at
//! once: phase transitions are atomic under the queue lock
//! ([`JobQueue::cancel`]), and `status` is present exactly when `phase`
//! is `done`.
//!
//! ## Checkpoint granularity
//!
//! Cancellation is cooperative. The pipeline observes the job's token
//! **between executor waves** — after ingest chunk waves and between
//! the tokenize / name / blocking / purge / H1 / top-neighbor /
//! similarity-index / H2 / H3 / H4 stages — never mid-wave (tearing a
//! wave down could not stay bit-identical with sequential runs). A
//! cancelled job therefore reaches its `Cancelled` report after at most
//! one wave of residual work.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use minoan_kb::Json;
use minoan_obs::{trace, Level};

use crate::http::HttpOptions;
use crate::intake::{self, ShutdownMode};
use crate::manifest::{JobInput, JobSpec};
use crate::registry::IndexRegistry;
use crate::report::{peak_rss_bytes, JobReport, ServeReport};
use crate::scheduler::{
    resolve_fleet_knobs, CancelToken, JobQueue, ServeOptions, DEFAULT_SHED_QUEUE_DEPTH,
    SHED_BYTES_FACTOR,
};

/// How often blocked daemon loops (accept, per-connection reads) check
/// the shutdown flag.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Maximum bytes of one request frame (line content, terminator
/// included). A frame that outgrows this gets an `{"ok":false,...}`
/// response and the connection closes — the line protocol's analogue of
/// the HTTP front-end's `413`, so a newline-less byte flood cannot grow
/// the read buffer without bound.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// The protocol front-ends one [`run_server`] call drives over a single
/// shared [`JobQueue`]. At least one listener must be present; with
/// both, line-JSON and HTTP clients submit into the same admission
/// order and see the same jobs, and a `shutdown` arriving on either
/// protocol stops both.
#[derive(Debug, Default)]
pub struct Frontends {
    /// Listener for the line-delimited JSON protocol (`--listen`).
    pub line: Option<TcpListener>,
    /// Listener for the HTTP/1.1 front-end (`--listen-http`), see
    /// [`crate::http`].
    pub http: Option<TcpListener>,
    /// Options for the HTTP front-end (auth token; ignored without an
    /// `http` listener).
    pub http_options: HttpOptions,
}

/// Runs the line-JSON daemon on an already-bound listener until a
/// client sends `shutdown`, then drains the queue and returns the fleet
/// report. Equivalent to [`run_server`] with only the `line` front-end.
pub fn run_daemon(
    listener: TcpListener,
    opts: &ServeOptions,
    on_done: impl Fn(&JobReport) + Sync,
) -> std::io::Result<ServeReport> {
    run_server(
        Frontends {
            line: Some(listener),
            ..Frontends::default()
        },
        opts,
        on_done,
    )
}

/// Runs the serving daemon over one or both protocol front-ends until a
/// client sends a shutdown request, then drains the queue and returns
/// the fleet report (jobs in submission order, like a batch run).
/// `on_done` fires once per terminal job report, in completion order.
///
/// Fleet knobs come from `opts` with zeros meaning "all cores" /
/// "unlimited", exactly like a manifest with no limits; there is no
/// job-count clamp because the job count is unknown up front.
pub fn run_server(
    frontends: Frontends,
    opts: &ServeOptions,
    on_done: impl Fn(&JobReport) + Sync,
) -> std::io::Result<ServeReport> {
    let t0 = Instant::now();
    let Frontends {
        line,
        http,
        http_options,
    } = frontends;
    if line.is_none() && http.is_none() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "run_server needs at least one front-end listener",
        ));
    }
    for listener in line.iter().chain(http.iter()) {
        listener.set_nonblocking(true)?;
    }
    let (slots, threads, budget_bytes) = resolve_fleet_knobs(opts, 0, 0, 0, usize::MAX);
    // Overload shedding is a daemon-only concern: batch submits its
    // whole manifest up front and would only shed its own jobs. The
    // byte mark is a multiple of the admission budget — jobs past the
    // budget *wait*; jobs past the shed mark are *refused* — and
    // disabled when admission itself is unlimited.
    let queue = JobQueue::new(slots, threads, budget_bytes)
        .with_job_defaults(opts.timeout_ms.unwrap_or(0), opts.max_retries.unwrap_or(0))
        .with_shed_limits(
            opts.shed_queue_depth.unwrap_or(DEFAULT_SHED_QUEUE_DEPTH),
            budget_bytes.saturating_mul(SHED_BYTES_FACTOR),
        );
    let shutdown = CancelToken::new();
    // The daemon has no fleet-level cancel; per-job cancellation goes
    // through the queue.
    let never = CancelToken::new();
    let http_options = &http_options;
    // Index serving is opt-in: without a directory the `index-*` ops
    // and `/v1/indexes` endpoints answer structured `unavailable`
    // errors instead of touching the filesystem.
    let registry = match &opts.index_dir {
        Some(dir) => Some(IndexRegistry::open(dir, opts.index_cache_bytes)?),
        None => None,
    };
    let registry = registry.as_ref();
    // A successful patch job rewrote the artifact on disk; the loaded
    // copy (if any) is stale and must be dropped *before* the caller's
    // on_done observes the terminal report, so a client that waits for
    // the patch and immediately queries sees the patched index.
    let notify = |spec: &JobSpec, report: &JobReport| {
        if report.status.is_ok() {
            if let (JobInput::IndexPatch { id, .. }, Some(reg)) = (&spec.input, registry) {
                reg.invalidate(id);
                trace::emit_job(
                    Level::Info,
                    "index.patched",
                    -1,
                    0,
                    format!("index={id:?} (stale cached copy dropped)"),
                );
            }
        }
        on_done(report);
    };

    std::thread::scope(|scope| -> std::io::Result<()> {
        let queue = &queue;
        let shutdown = &shutdown;
        let notify = &notify;
        for _ in 0..slots {
            scope.spawn(|| queue.worker(opts, &never, notify));
        }
        let mut accept_loops = Vec::new();
        if let Some(listener) = line {
            accept_loops.push(scope.spawn(move || {
                accept_loop(listener, shutdown, |stream| {
                    scope.spawn(move || handle_connection(stream, queue, shutdown, registry));
                })
            }));
        }
        if let Some(listener) = http {
            let max_connections = http_options
                .max_connections
                .unwrap_or(crate::http::DEFAULT_MAX_CONNECTIONS)
                .max(1);
            let live = Arc::new(AtomicUsize::new(0));
            accept_loops.push(scope.spawn(move || {
                accept_loop(listener, shutdown, |stream| {
                    // Claim a handler slot before spawning; over the cap
                    // the 503 is written right here in the accept loop
                    // (with a tightly bounded linger so it survives the
                    // close), so a connection flood never ties up a
                    // handler thread.
                    let claimed = live
                        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                            (n < max_connections).then_some(n + 1)
                        })
                        .is_ok();
                    if !claimed {
                        crate::http::reject_over_capacity(stream);
                        return;
                    }
                    let live = Arc::clone(&live);
                    scope.spawn(move || {
                        crate::http::handle_connection(
                            stream,
                            queue,
                            shutdown,
                            http_options,
                            registry,
                        );
                        live.fetch_sub(1, Ordering::AcqRel);
                    });
                })
            }));
        }
        let mut result = Ok(());
        for handle in accept_loops {
            let loop_result = handle.join().expect("accept loops do not panic");
            if result.is_ok() {
                result = loop_result;
            }
        }
        // Release every scoped thread before returning — including on
        // a fatal accept error, where skipping this would leave workers
        // parked in the admission wait and the scope joining forever:
        // the shutdown flag stops connection handlers, closing the
        // queue lets workers exit once it drains (a `shutdown` with
        // mode "cancel" has already flipped/cancelled everything, so
        // that drain is immediate).
        shutdown.cancel();
        queue.close();
        result
    })?;

    let peak_active = queue.peak_concurrent();
    Ok(ServeReport {
        jobs: queue.into_reports(),
        slots,
        threads,
        memory_budget_bytes: budget_bytes,
        peak_concurrent_jobs: peak_active,
        wall: t0.elapsed(),
        peak_rss_bytes: peak_rss_bytes(),
    })
}

/// One nonblocking accept loop: hand each connection to `handle`, poll
/// the shutdown flag between accepts. A fatal accept error flips the
/// shared shutdown flag (so the sibling front-end and every connection
/// handler stop too) and is returned.
fn accept_loop(
    listener: TcpListener,
    shutdown: &CancelToken,
    mut handle: impl FnMut(TcpStream),
) -> std::io::Result<()> {
    loop {
        if shutdown.is_cancelled() {
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, _peer)) => handle(stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                shutdown.cancel();
                return Err(e);
            }
        }
    }
}

/// Serves one client connection: read a request line, answer it, repeat
/// until EOF or daemon shutdown. Read timeouts keep the handler
/// responsive to the shutdown flag even with an idle client. Frames are
/// read as raw bytes so invalid UTF-8 gets an error *response* instead
/// of tearing the connection down.
fn handle_connection(
    stream: TcpStream,
    queue: &JobQueue,
    shutdown: &CancelToken,
    registry: Option<&IndexRegistry>,
) {
    use std::io::Read as _;
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL * 4));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    loop {
        // Frames are bounded like the HTTP front-end's bodies: a frame
        // that outgrows the cap gets one error response and the
        // connection closes (mid-frame, so framing is unrecoverable) —
        // a terminator-less byte flood cannot grow `line` unboundedly.
        if line.len() > MAX_FRAME_BYTES {
            let response = error(format!(
                "request frame exceeds the {MAX_FRAME_BYTES}-byte limit"
            ));
            if writer
                .write_all((response.compact() + "\n").as_bytes())
                .and_then(|()| writer.flush())
                .is_ok()
            {
                // Drain what the client is still sending before the
                // close, so the kernel doesn't RST the error response
                // away (see the HTTP front-end's close path).
                crate::http::lingering_close(&mut reader);
            }
            return;
        }
        // The take() bound caps how far one read_until call can grow
        // the buffer even when the client streams faster than we poll.
        let budget = (MAX_FRAME_BYTES + 1 - line.len()) as u64;
        match reader.by_ref().take(budget).read_until(b'\n', &mut line) {
            Ok(0) if line.is_empty() => return, // EOF
            // A complete frame, the final unterminated frame before
            // EOF, or the budget cap (caught at the top of the next
            // iteration before any processing).
            Ok(_) if line.len() > MAX_FRAME_BYTES => {}
            Ok(_) => {
                let frame = trim_frame(&line);
                if !frame.is_empty() {
                    let response = handle_request(frame, queue, shutdown, registry);
                    if writer
                        .write_all((response.compact() + "\n").as_bytes())
                        .and_then(|()| writer.flush())
                        .is_err()
                    {
                        return;
                    }
                }
                line.clear();
            }
            // Timeout (partial input, if any, stays buffered in `line`
            // and the next read continues it): check the flag and keep
            // listening.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if shutdown.is_cancelled() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Strips ASCII whitespace (the line terminator and any padding) from
/// both ends of a frame.
fn trim_frame(line: &[u8]) -> &[u8] {
    let start = line
        .iter()
        .position(|b| !b.is_ascii_whitespace())
        .unwrap_or(line.len());
    let end = line
        .iter()
        .rposition(|b| !b.is_ascii_whitespace())
        .map_or(start, |i| i + 1);
    &line[start..end]
}

/// Answers one request frame. Never panics: malformed input — invalid
/// UTF-8, bad JSON, a missing or unknown `op` — becomes an
/// `{"ok":false,...}` response. All queue operations go through the
/// shared request layer ([`crate::intake`]), the same one the HTTP
/// front-end uses.
fn handle_request(
    frame: &[u8],
    queue: &JobQueue,
    shutdown: &CancelToken,
    registry: Option<&IndexRegistry>,
) -> Json {
    let request = match Json::parse_bytes(frame) {
        Ok(v) => v,
        Err(e) => return error(format!("bad request JSON: {e}")),
    };
    let Some(op) = request.get("op").and_then(Json::as_str) else {
        return error("request needs a string `op` field".to_string());
    };
    match op {
        "submit" => {
            let Some(job) = request.get("job") else {
                return error("submit needs a `job` object".to_string());
            };
            match intake::submit_job(queue, job) {
                Ok((id, name)) => Json::obj([
                    ("ok", Json::Bool(true)),
                    ("id", Json::num(id as f64)),
                    ("name", Json::str(name)),
                ]),
                // A shed submit is worth resubmitting after a backoff;
                // the top-level flag predates the structured error
                // object and stays for compatibility.
                Err(e) if e.retryable() => Json::obj([
                    ("ok", Json::Bool(false)),
                    ("retryable", Json::Bool(true)),
                    (
                        "error",
                        intake::error_body("overloaded", e.to_string(), true),
                    ),
                ]),
                Err(e) => error(e.to_string()),
            }
        }
        "status" => {
            let id = match optional_id(&request) {
                Ok(f) => f,
                Err(e) => return error(e),
            };
            let limit = match request.get("limit") {
                None => None,
                Some(v) => match v.as_usize() {
                    Some(n) => Some(n),
                    None => return error("`limit` must be a non-negative integer".to_string()),
                },
            };
            let filter = intake::JobFilter {
                id,
                status: request
                    .get("status")
                    .and_then(Json::as_str)
                    .map(str::to_string),
                limit,
            };
            match intake::status_json(queue, !shutdown.is_cancelled(), &filter, registry) {
                Ok(body) => ok_with(body),
                Err(e) => error(e),
            }
        }
        "cancel" => match required_id(&request) {
            Err(e) => error(e),
            Ok(id) => {
                let outcome = queue.cancel(id);
                Json::obj([
                    ("ok", Json::Bool(true)),
                    ("id", Json::num(id as f64)),
                    ("outcome", Json::str(outcome.label())),
                ])
            }
        },
        "wait" => match required_id(&request) {
            Err(e) => error(e),
            Ok(id) => match intake::wait_json(queue, id) {
                None => error(format!("unknown job id {id}")),
                Some(body) => ok_with(body),
            },
        },
        "events" => {
            let from = match request.get("from") {
                None => 0u64,
                Some(v) => match v.as_usize() {
                    Some(n) => n as u64,
                    None => return error("`from` must be a non-negative integer".to_string()),
                },
            };
            let job = match request.get("job") {
                None => None,
                Some(v) => match v.as_usize() {
                    Some(n) => Some(n as i64),
                    None => return error("`job` must be a non-negative integer".to_string()),
                },
            };
            let level = match request.get("level").and_then(Json::as_str) {
                None => Level::Info,
                Some(raw) => match raw.parse::<Level>() {
                    Ok(level) => level,
                    Err(e) => return error(e),
                },
            };
            let wait = request.get("wait") == Some(&Json::Bool(true));
            let filter = crate::events::EventFilter { job, level };
            ok_with(crate::events::events_batch_json(
                from,
                &filter,
                wait,
                POLL_INTERVAL * 40,
            ))
        }
        "trace" => match required_id(&request) {
            Err(e) => error(e),
            Ok(id) => match crate::events::job_trace_json(queue, id) {
                None => error(format!("unknown job id {id}")),
                Some(body) => ok_with(body),
            },
        },
        "index-build" => {
            let Some(job) = request.get("job") else {
                return error("index-build needs a `job` object".to_string());
            };
            match intake::index_build(queue, registry, job) {
                Ok((id, name)) => Json::obj([
                    ("ok", Json::Bool(true)),
                    ("job", Json::num(id as f64)),
                    ("index", Json::str(name)),
                ]),
                Err(rejection) => index_error(&rejection),
            }
        }
        "index-list" => match intake::index_list(registry) {
            Ok(body) => ok_with(body),
            Err(rejection) => index_error(&rejection),
        },
        "index-inspect" => match required_str(&request, "index") {
            Err(e) => error(e),
            Ok(id) => match intake::index_meta(registry, id) {
                Ok(body) => ok_with(body),
                Err(rejection) => index_error(&rejection),
            },
        },
        "index-delete" => match required_str(&request, "index") {
            Err(e) => error(e),
            Ok(id) => match intake::index_delete(registry, id) {
                Ok(body) => ok_with(body),
                Err(rejection) => index_error(&rejection),
            },
        },
        "index-patch" => match required_str(&request, "index") {
            Err(e) => error(e),
            // The whole request doubles as the delta body: ops_from_json
            // only looks at its `deltas` field.
            Ok(id) => match intake::index_patch(queue, registry, id, &request) {
                Ok((job, index)) => Json::obj([
                    ("ok", Json::Bool(true)),
                    ("job", Json::num(job as f64)),
                    ("index", Json::str(index)),
                ]),
                Err(rejection) => index_error(&rejection),
            },
        },
        "index-match" => {
            let id = match required_str(&request, "index") {
                Ok(id) => id,
                Err(e) => return error(e),
            };
            let entity = match required_str(&request, "entity") {
                Ok(entity) => entity,
                Err(e) => return error(e),
            };
            let k = match request.get("k") {
                None => intake::DEFAULT_MATCH_K,
                Some(v) => match v.as_usize() {
                    Some(n) => n,
                    None => return error("`k` must be a non-negative integer".to_string()),
                },
            };
            match intake::index_match(registry, id, entity, k) {
                Ok(body) => ok_with(body),
                Err(rejection) => index_error(&rejection),
            }
        }
        "shutdown" => {
            let mode = match ShutdownMode::parse(request.get("mode").and_then(Json::as_str)) {
                Ok(mode) => mode,
                Err(e) => return error(e),
            };
            intake::shutdown(queue, shutdown, mode);
            Json::obj([("ok", Json::Bool(true))])
        }
        other => error(format!("unknown op {other:?}")),
    }
}

/// Prefixes a shared-layer body with the protocol's `"ok": true` flag.
fn ok_with(body: Json) -> Json {
    let Json::Obj(mut fields) = body else {
        unreachable!("intake bodies are objects");
    };
    fields.insert(0, ("ok".to_string(), Json::Bool(true)));
    Json::Obj(fields)
}

/// A malformed-request failure in the unified error schema (code
/// `bad_request`, never retryable) under the protocol's `"ok": false`
/// envelope.
fn error(message: String) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", intake::error_body("bad_request", &message, false)),
    ])
}

/// An index-op failure: the rejection's own code/retryability, with the
/// top-level `retryable` flag mirrored for shed-style backoff clients.
fn index_error(rejection: &intake::IndexRejection) -> Json {
    let mut fields = vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), rejection.to_error_body()),
    ];
    if rejection.retryable() {
        fields.insert(1, ("retryable".to_string(), Json::Bool(true)));
    }
    Json::Obj(fields)
}

fn required_id(request: &Json) -> Result<usize, String> {
    optional_id(request)?.ok_or_else(|| "request needs a numeric `id` field".to_string())
}

fn required_str<'a>(request: &'a Json, field: &str) -> Result<&'a str, String> {
    request
        .get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("request needs a string `{field}` field"))
}

fn optional_id(request: &Json) -> Result<Option<usize>, String> {
    match request.get("id") {
        None => Ok(None),
        Some(v) => v
            .as_usize()
            .map(Some)
            .ok_or_else(|| "`id` must be a non-negative integer".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::JobSpec;
    use crate::report::JobStatus;
    use crate::scheduler::CancelOutcome;
    use std::net::SocketAddr;

    /// Sends one request line, returns the parsed response.
    fn roundtrip(addr: SocketAddr, request: &str) -> Json {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all((request.to_string() + "\n").as_bytes())
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Json::parse(line.trim()).expect("response parses")
    }

    fn tiny_opts() -> ServeOptions {
        ServeOptions {
            slots: Some(2),
            threads: Some(2),
            ..ServeOptions::default()
        }
    }

    #[test]
    fn daemon_serves_submit_status_wait_shutdown() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let opts = tiny_opts();
        std::thread::scope(|scope| {
            let daemon = scope.spawn(|| run_daemon(listener, &opts, |_| {}).unwrap());

            let r = roundtrip(
                addr,
                r#"{"op":"submit","job":{"name":"a","dataset":"restaurant","scale":0.05}}"#,
            );
            assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
            assert_eq!(r.get("id").unwrap().as_usize(), Some(0));

            let r = roundtrip(addr, r#"{"op":"wait","id":0}"#);
            assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
            let report = r.get("report").unwrap();
            assert_eq!(report.get("status").unwrap().as_str(), Some("ok"));
            assert!(r.get("fingerprint").unwrap().as_str().unwrap().len() > 1);

            let r = roundtrip(addr, r#"{"op":"status"}"#);
            assert_eq!(r.get("done").unwrap().as_usize(), Some(1));
            // The status response surfaces live queue telemetry.
            let telemetry = r.get("telemetry").expect("telemetry in status");
            assert_eq!(telemetry.get("done_ok").unwrap().as_usize(), Some(1));
            assert!(telemetry.get("threads_budget").unwrap().as_usize() >= Some(1));
            assert!(telemetry.get("stage_ms").is_some());

            let r = roundtrip(addr, r#"{"op":"shutdown"}"#);
            assert_eq!(r.get("ok"), Some(&Json::Bool(true)));

            let report = daemon.join().unwrap();
            assert_eq!(report.jobs.len(), 1);
            assert_eq!(report.jobs[0].status, JobStatus::Ok);
        });
    }

    #[test]
    fn daemon_rejects_malformed_requests() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let opts = tiny_opts();
        std::thread::scope(|scope| {
            let daemon = scope.spawn(|| run_daemon(listener, &opts, |_| {}).unwrap());
            for (request, needle) in [
                ("not json", "bad request JSON"),
                ("{}", "op"),
                (r#"{"op":"warp"}"#, "unknown op"),
                (r#"{"op":"submit"}"#, "job"),
                (r#"{"op":"submit","job":{"name":"x"}}"#, "either dataset or"),
                (
                    r#"{"op":"submit","job":{"name":"x","dataset":"rexa","theta":9}}"#,
                    "theta",
                ),
                (r#"{"op":"cancel"}"#, "id"),
                (r#"{"op":"wait","id":7}"#, "unknown job id"),
                (
                    r#"{"op":"shutdown","mode":"explode"}"#,
                    "unknown shutdown mode",
                ),
            ] {
                let r = roundtrip(addr, request);
                assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{request}");
                let err = r.get("error").unwrap();
                assert_eq!(err.get("code").unwrap().as_str(), Some("bad_request"));
                assert_eq!(err.get("retryable"), Some(&Json::Bool(false)));
                let e = err.get("message").unwrap().as_str().unwrap();
                assert!(e.contains(needle), "{request} -> {e}");
            }
            roundtrip(addr, r#"{"op":"shutdown"}"#);
            let report = daemon.join().unwrap();
            assert!(report.jobs.is_empty());
        });
    }

    #[test]
    fn invalid_utf8_frames_get_an_error_response_not_a_dropped_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let opts = tiny_opts();
        std::thread::scope(|scope| {
            let daemon = scope.spawn(|| run_daemon(listener, &opts, |_| {}).unwrap());
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"{\"op\": \"stat\xffus\"}\n").unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let r = Json::parse(line.trim()).expect("error response parses");
            assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
            let e = r
                .get("error")
                .unwrap()
                .get("message")
                .unwrap()
                .as_str()
                .unwrap();
            assert!(e.contains("invalid UTF-8"), "{e}");
            // The same connection keeps working after the bad frame.
            stream.write_all(b"{\"op\":\"status\"}\n").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            let r = Json::parse(line.trim()).unwrap();
            assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
            roundtrip(addr, r#"{"op":"shutdown"}"#);
            daemon.join().unwrap();
        });
    }

    #[test]
    fn shutdown_cancel_mode_flips_queued_jobs() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // One slot, so the second and third submissions queue behind
        // the first.
        let opts = ServeOptions {
            slots: Some(1),
            threads: Some(1),
            ..ServeOptions::default()
        };
        std::thread::scope(|scope| {
            let daemon = scope.spawn(|| run_daemon(listener, &opts, |_| {}).unwrap());
            for name in ["a", "b", "c"] {
                let r = roundtrip(
                    addr,
                    &format!(
                        r#"{{"op":"submit","job":{{"name":"{name}","dataset":"restaurant","scale":0.05}}}}"#
                    ),
                );
                assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
            }
            let r = roundtrip(addr, r#"{"op":"shutdown","mode":"cancel"}"#);
            assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
            let report = daemon.join().unwrap();
            assert_eq!(report.jobs.len(), 3);
            // Every job is terminal; at least the tail of the queue was
            // flipped to Cancelled without running.
            assert!(report
                .jobs
                .iter()
                .all(|j| j.status == JobStatus::Cancelled || j.status.is_ok()));
            assert!(report.jobs.iter().any(|j| j.status == JobStatus::Cancelled));
        });
    }

    #[test]
    fn shutdown_closes_the_queue_in_the_handler_itself() {
        // The close must happen in handle_request, not only when the
        // accept loop notices the flag: a submit racing that window
        // would slip past cancel_all and run to completion.
        let queue = JobQueue::new(1, 1, 0);
        let shutdown = CancelToken::new();
        let r = handle_request(
            br#"{"op":"shutdown","mode":"cancel"}"#,
            &queue,
            &shutdown,
            None,
        );
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        assert!(shutdown.is_cancelled());
        let spec = JobSpec::from_json(
            &Json::parse(r#"{"name":"late","dataset":"restaurant","scale":0.05}"#).unwrap(),
        )
        .unwrap();
        let err = queue.submit(spec).unwrap_err();
        assert!(err.to_string().contains("closed"), "{err}");
    }

    #[test]
    fn run_server_requires_a_front_end() {
        let err = run_server(Frontends::default(), &tiny_opts(), |_| {}).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn cancel_outcome_labels_are_wire_stable() {
        assert_eq!(CancelOutcome::CancelledQueued.label(), "cancelled");
        assert_eq!(CancelOutcome::Cancelling.label(), "cancelling");
        assert_eq!(CancelOutcome::AlreadyDone.label(), "done");
        assert_eq!(CancelOutcome::Unknown.label(), "unknown");
    }

    #[test]
    fn trim_frame_strips_terminators_only() {
        assert_eq!(trim_frame(b"  {\"a\":1}\r\n"), b"{\"a\":1}");
        assert_eq!(trim_frame(b"\n"), b"");
        assert_eq!(trim_frame(b""), b"");
        assert_eq!(trim_frame(b"\xff\n"), b"\xff", "non-UTF-8 survives");
    }
}
