//! The serving daemon: [`run_server`] drives the HTTP/1.1 front-end
//! ([`crate::http`], `--listen-http`) and the line-delimited JSON
//! framing (`--listen`) over one live [`JobQueue`], the one the batch
//! scheduler drains.
//!
//! Jobs arrive over time, are admitted strictly in submission order
//! under the bounded-memory budget, run pairs-first with straggler
//! widening, and stream terminal reports in completion order — exactly
//! like a manifest batch, including per-job bit-identity with solo
//! sequential runs. A *running* job can be cancelled: its
//! [`CancelToken`] rides on the job's executor and makes the load or
//! pipeline unwind (see [`minoan_exec::cancel`]) to a `Cancelled`
//! report within one pool task, or one wave on the sequential backend,
//! without disturbing other in-flight jobs.
//!
//! ## Line-JSON framing
//!
//! Line-JSON is a framing over the HTTP routes, not a second protocol:
//! `http::route` gives every request its meaning. One JSON document
//! per line in each direction (UTF-8, LF-terminated; the writer escapes
//! embedded newlines). A request is an object whose `op` names the
//! endpoint it stands for; its other fields become path segments,
//! decoded query pairs or the body:
//!
//! | op | routed as |
//! |----|-----------|
//! | `submit` | `POST /v1/jobs`, body `job` |
//! | `status` | `GET /v1/jobs?status=&limit=&id=` |
//! | `cancel` | `DELETE /v1/jobs/{id}` |
//! | `wait` | `GET /v1/jobs/{id}?wait=true` |
//! | `trace` | `GET /v1/jobs/{id}/trace` |
//! | `index-build` | `POST /v1/indexes`, body `job` |
//! | `index-list` | `GET /v1/indexes` |
//! | `index-inspect` | `GET /v1/indexes/{index}` |
//! | `index-delete` | `DELETE /v1/indexes/{index}` |
//! | `index-patch` | `PATCH /v1/indexes/{index}`, body `{"deltas":…}` |
//! | `index-match` | `GET /v1/indexes/{index}/match?entity=&k=` |
//! | `shutdown` | `POST /v1/shutdown`, body `{"mode":…}` |
//!
//! The routed response comes back in the line envelope: below status
//! 400 `{"ok":true, …body}`, otherwise
//! `{"ok":false, ["retryable":true,] "error":{…}}`, where the top-level
//! `retryable` appears exactly when `error.retryable` is true. A
//! malformed frame — invalid UTF-8 or JSON, a missing or unknown `op`,
//! a malformed id, index id or `k` — is a `bad_request`, and the
//! connection stays usable. Frames are capped at [`MAX_FRAME_BYTES`];
//! an over-long frame gets one error response and the connection
//! closes. Requests on one connection are answered strictly in order.
//!
//! `events` (optional `from`, `job`, `level`, `wait`) is the one op
//! that is not routed: it pages the trace ring, which HTTP streams over
//! SSE instead. Line-JSON carries no credentials, so a server with an
//! auth token refuses to open a line listener.
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
use std::time::Duration;

use minoan_kb::Json;
use minoan_obs::{trace, Level};

use crate::events::{events_batch_json, EventFilter};
use crate::http::{self, Body, HttpOptions, Request, Response};
use crate::manifest::{JobInput, JobSpec};
use crate::registry::{valid_id, IndexRegistry, RegistryError};
use crate::report::{JobReport, ServeReport};
use crate::scheduler::{fleet_queue, run_fleet, CancelToken, JobQueue, ServeOptions};

/// How often blocked daemon loops (accept, per-connection reads) check
/// the shutdown flag.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Maximum bytes of one request frame (line content, terminator
/// included). A frame that outgrows this gets an `{"ok":false,...}`
/// response and the connection closes — the line protocol's analogue of
/// the HTTP front-end's `413`, so a newline-less byte flood cannot grow
/// the read buffer without bound.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// The listeners one [`run_server`] call drives over a single shared
/// [`JobQueue`]. At least one must be present; with both, line-JSON and
/// HTTP clients submit into the same admission order and see the same
/// jobs, and a `shutdown` arriving on either stops both.
#[derive(Debug, Default)]
pub struct Frontends {
    /// Listener for the line-delimited JSON framing (`--listen`).
    pub line: Option<TcpListener>,
    /// Listener for the HTTP/1.1 front-end (`--listen-http`), see
    /// [`crate::http`].
    pub http: Option<TcpListener>,
    /// Options of the HTTP router, which answers both listeners. An
    /// auth token requires HTTP only: line-JSON frames carry no
    /// credentials, so [`run_server`] refuses a token with a `line`
    /// listener.
    pub http_options: HttpOptions,
}

/// Runs the serving daemon over one or both protocol front-ends until a
/// client sends a shutdown request, then drains the queue and returns
/// the fleet report (jobs in submission order, like a batch run).
/// `on_done` fires once per report a worker produced, in completion
/// order; a job cancelled while still queued has none.
///
/// Fleet knobs come from `opts` with zeros meaning "all cores" /
/// "unlimited", exactly like a manifest with no limits; there is no
/// job-count clamp because the job count is unknown up front.
pub fn run_server(
    frontends: Frontends,
    opts: &ServeOptions,
    on_done: impl Fn(&JobReport) + Sync,
) -> std::io::Result<ServeReport> {
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
    if line.is_some() && http_options.auth_token.is_some() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "an auth token requires HTTP only: line-JSON cannot carry it",
        ));
    }
    for listener in line.iter().chain(http.iter()) {
        listener.set_nonblocking(true)?;
    }
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

    // The intake: one accept loop per front-end, each connection on its
    // own handler thread. It returns once every handler has stopped;
    // the runner then closes the queue and drains it.
    run_fleet(fleet_queue(opts, None), opts, &notify, |queue| {
        let shutdown = &CancelToken::new();
        std::thread::scope(|scope| {
            let mut accept_loops = Vec::new();
            if let Some(listener) = line {
                accept_loops.push(scope.spawn(move || {
                    accept_loop(listener, shutdown, |stream| {
                        scope.spawn(move || {
                            handle_connection(stream, queue, shutdown, http_options, registry)
                        });
                    })
                }));
            }
            if let Some(listener) = http {
                let max_connections = http_options
                    .max_connections
                    .unwrap_or(http::DEFAULT_MAX_CONNECTIONS)
                    .max(1);
                let live = Arc::new(AtomicUsize::new(0));
                accept_loops.push(scope.spawn(move || {
                    accept_loop(listener, shutdown, |stream| {
                        // Claim a handler slot before spawning; over the
                        // cap the 503 is written right here in the accept
                        // loop (with a tightly bounded linger so it
                        // survives the close), so a connection flood
                        // never ties up a handler thread.
                        let claimed = live
                            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                                (n < max_connections).then_some(n + 1)
                            })
                            .is_ok();
                        if !claimed {
                            http::reject_over_capacity(stream);
                            return;
                        }
                        let live = Arc::clone(&live);
                        scope.spawn(move || {
                            http::handle_connection(
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
            // The shutdown flag stops every connection handler, so the
            // scope can join them — on a fatal accept error too, where
            // no client asked for a shutdown.
            shutdown.cancel();
            result
        })
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
    options: &HttpOptions,
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
            let response = envelope(Response::error(
                400,
                format!("request frame exceeds the {MAX_FRAME_BYTES}-byte limit"),
            ));
            if writer
                .write_all((response.compact() + "\n").as_bytes())
                .and_then(|()| writer.flush())
                .is_ok()
            {
                // Drain what the client is still sending before the
                // close, so the kernel doesn't RST the error response
                // away (see the HTTP front-end's close path).
                http::lingering_close(
                    reader.get_ref(),
                    http::LINGER_DEADLINE,
                    http::LINGER_MAX_BYTES,
                );
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
                    let response = handle_request(frame, queue, shutdown, options, registry);
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
/// `{"ok":false,...}` response. Every op but `events` is translated to
/// its HTTP request and answered by [`http::route`].
fn handle_request(
    frame: &[u8],
    queue: &JobQueue,
    shutdown: &CancelToken,
    options: &HttpOptions,
    registry: Option<&IndexRegistry>,
) -> Json {
    let response = match Json::parse_bytes(frame) {
        Err(e) => Response::error(400, format!("bad request JSON: {e}")),
        // HTTP streams events over SSE and has no JSON long-poll to
        // route to, so this op reads the trace ring itself.
        Ok(request) if request.get("op").and_then(Json::as_str) == Some("events") => {
            match events(&request) {
                Ok(body) => Response::json(200, body),
                Err(e) => Response::error(400, e),
            }
        }
        Ok(request) => match translate(&request) {
            Ok(request) => http::route(&request, queue, shutdown, options, registry),
            Err(e) => Response::error(400, e),
        },
    };
    envelope(response)
}

/// The HTTP request a frame stands for (see the module's table). Ids,
/// index ids and `k` are checked here, so a malformed one stays a
/// `bad_request` and never reaches `route` as an unknown path.
fn translate(frame: &Json) -> Result<Request, String> {
    let op = frame
        .get("op")
        .and_then(Json::as_str)
        .ok_or("request needs a string `op` field")?;
    let job_path = |suffix: &str| -> Result<String, String> {
        let id = count(frame, "id")?.ok_or("request needs a numeric `id` field")?;
        Ok(format!("/v1/jobs/{id}{suffix}"))
    };
    let index_path = |suffix: &str| -> Result<String, String> {
        let index = frame.get("index").and_then(Json::as_str).unwrap_or("");
        if !valid_id(index) {
            return Err(RegistryError::InvalidId.to_string());
        }
        Ok(format!("/v1/indexes/{index}{suffix}"))
    };
    let text = |field: &str| {
        let value = frame.get(field).and_then(Json::as_str)?;
        Some((field.to_string(), value.to_string()))
    };
    let number = |field: &str| -> Result<_, String> {
        Ok(count(frame, field)?.map(|n| (field.to_string(), n.to_string())))
    };
    // A body field as an HTTP client would send it (`null` if absent),
    // bare or under its own name.
    let field = |name: &str| frame.get(name).unwrap_or(&Json::Null).compact();
    let wrapped = |name: &str| format!("{{\"{name}\":{}}}", field(name));
    let (method, path, query, body) = match op {
        "submit" => ("POST", "/v1/jobs".into(), vec![], field("job")),
        "status" => {
            let query = [text("status"), number("limit")?, number("id")?];
            (
                "GET",
                "/v1/jobs".into(),
                query.into_iter().flatten().collect(),
                String::new(),
            )
        }
        "cancel" => ("DELETE", job_path("")?, vec![], String::new()),
        "wait" => {
            let query = vec![("wait".to_string(), "true".to_string())];
            ("GET", job_path("")?, query, String::new())
        }
        "trace" => ("GET", job_path("/trace")?, vec![], String::new()),
        "index-build" => ("POST", "/v1/indexes".into(), vec![], field("job")),
        "index-list" => ("GET", "/v1/indexes".into(), vec![], String::new()),
        "index-inspect" => ("GET", index_path("")?, vec![], String::new()),
        "index-delete" => ("DELETE", index_path("")?, vec![], String::new()),
        "index-patch" => ("PATCH", index_path("")?, vec![], wrapped("deltas")),
        "index-match" => {
            let query = [text("entity"), number("k")?];
            let query = query.into_iter().flatten().collect();
            ("GET", index_path("/match")?, query, String::new())
        }
        "shutdown" => ("POST", "/v1/shutdown".into(), vec![], wrapped("mode")),
        other => return Err(format!("unknown op {other:?}")),
    };
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers: Vec::new(),
        body: body.into_bytes(),
    })
}

/// The `events` op: one batch from the trace ring at cursor `from`.
fn events(frame: &Json) -> Result<Json, String> {
    let from = count(frame, "from")?.unwrap_or(0) as u64;
    let job = count(frame, "job")?.map(|n| n as i64);
    let level = match frame.get("level").and_then(Json::as_str) {
        None => Level::Info,
        Some(raw) => raw.parse::<Level>()?,
    };
    let wait = frame.get("wait") == Some(&Json::Bool(true));
    let filter = EventFilter { job, level };
    Ok(events_batch_json(from, &filter, wait, POLL_INTERVAL * 40))
}

/// An optional non-negative integer field of a frame.
fn count(frame: &Json, field: &str) -> Result<Option<usize>, String> {
    frame
        .get(field)
        .map(|v| {
            v.as_usize()
                .ok_or_else(|| format!("`{field}` must be a non-negative integer"))
        })
        .transpose()
}

/// Wraps a routed response in the line envelope: `{"ok":true, …body}`
/// below status 400, else `{"ok":false, ["retryable":true,] "error":{…}}`
/// with the top-level `retryable` present exactly when
/// `error.retryable` is true.
fn envelope(response: Response) -> Json {
    let Body::Json(Json::Obj(mut fields)) = response.body else {
        unreachable!("every line op routes to an endpoint with a JSON object body");
    };
    let ok = response.status < 400;
    let retryable = fields
        .iter()
        .any(|(key, value)| key == "error" && value.get("retryable") == Some(&Json::Bool(true)));
    if !ok && retryable {
        fields.insert(0, ("retryable".to_string(), Json::Bool(true)));
    }
    fields.insert(0, ("ok".to_string(), Json::Bool(ok)));
    Json::Obj(fields)
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

    /// The daemon with only the line-JSON front-end.
    fn serve_line(listener: TcpListener, opts: &ServeOptions) -> ServeReport {
        let frontends = Frontends {
            line: Some(listener),
            ..Frontends::default()
        };
        run_server(frontends, opts, |_| {}).unwrap()
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
            let daemon = scope.spawn(|| serve_line(listener, &opts));

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
            let daemon = scope.spawn(|| serve_line(listener, &opts));
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
                // An unknown job id is routed like `GET /v1/jobs/7`.
                let code = if request.contains("wait") {
                    "not_found"
                } else {
                    "bad_request"
                };
                assert_eq!(err.get("code").unwrap().as_str(), Some(code));
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
            let daemon = scope.spawn(|| serve_line(listener, &opts));
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
            let daemon = scope.spawn(|| serve_line(listener, &opts));
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
            &HttpOptions::default(),
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
    fn run_server_refuses_an_auth_token_with_a_line_listener() {
        // Line-JSON frames carry no credentials, so a token would guard
        // the HTTP listener while the line one let everyone in.
        let frontends = Frontends {
            line: Some(TcpListener::bind("127.0.0.1:0").unwrap()),
            http: Some(TcpListener::bind("127.0.0.1:0").unwrap()),
            http_options: HttpOptions {
                auth_token: Some("secret".into()),
                ..HttpOptions::default()
            },
        };
        let err = run_server(frontends, &tiny_opts(), |_| {}).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("HTTP only"), "{err}");
    }

    /// The line answer to `frame` and the HTTP answer to the request it
    /// translates to, both on `queue`.
    fn both_ways(queue: &JobQueue, frame: &str) -> (Json, Response) {
        let shutdown = CancelToken::new();
        let options = HttpOptions::default();
        let line = handle_request(frame.as_bytes(), queue, &shutdown, &options, None);
        let request = translate(&Json::parse(frame).unwrap()).unwrap();
        (
            line,
            http::route(&request, queue, &shutdown, &options, None),
        )
    }

    #[test]
    fn a_shed_and_a_closed_queue_answer_alike_on_both_framings() {
        let submit = r#"{"op":"submit","job":{"name":"j","dataset":"restaurant","scale":0.05}}"#;
        // No runner drains this queue: the first job stays pending, so
        // every later submit crosses the high-water mark of one.
        let queue = JobQueue::new(1, 1, 0).with_shed_limits(1, 0);
        let (first, _) = both_ways(&queue, submit);
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)), "{first:?}");
        let (line, shed) = both_ways(&queue, submit);
        assert_eq!(shed.status, 429);
        let Body::Json(body) = &shed.body else {
            panic!("a JSON error body")
        };
        let error = body.get("error").unwrap();
        assert_eq!(error.get("code").unwrap().as_str(), Some("overloaded"));
        assert_eq!(
            line,
            Json::obj([
                ("ok", Json::Bool(false)),
                ("retryable", Json::Bool(true)),
                ("error", error.clone()),
            ])
        );

        queue.close();
        let (line, closed) = both_ways(&queue, submit);
        assert_eq!(closed.status, 409);
        let Body::Json(body) = &closed.body else {
            panic!("a JSON error body")
        };
        let error = body.get("error").unwrap();
        assert_eq!(error.get("code").unwrap().as_str(), Some("conflict"));
        assert_eq!(error.get("retryable"), Some(&Json::Bool(false)));
        assert_eq!(
            line,
            Json::obj([("ok", Json::Bool(false)), ("error", error.clone())])
        );
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
