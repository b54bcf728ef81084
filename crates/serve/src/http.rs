//! `minoan-http` — an HTTP/1.1 serving front-end over the [`JobQueue`].
//!
//! `minoaner serve --listen-http <addr>` exposes the live admission
//! queue to anything that speaks HTTP — browsers, `curl`, load
//! balancers, Prometheus scrapers — without adding a dependency: the
//! server is a hand-rolled, strictly bounded HTTP/1.1 implementation on
//! `std` alone, matching the workspace's vendored-shim constraint.
//! Reports are bit-identical to `minoaner batch` and solo sequential
//! runs. `route` is the one place a request is given meaning, and it
//! only dispatches: each endpoint is a handler in the crate's `intake`
//! module that returns its finished `Response`, and queue and registry
//! errors become responses through the `From` impls beside it. The
//! line-JSON protocol ([`crate::daemon`]) is only a framing that
//! translates each frame into the request an HTTP client would send
//! and wraps the routed response in its `"ok"` envelope.
//!
//! ## Endpoints
//!
//! | Method & path | Body | Response |
//! |---------------|------|----------|
//! | `POST /v1/jobs` | a manifest job object (see [`crate::manifest`]) | `201` `{"id":N,"name":"…"}` + `Location`; `400` bad job; `409` queue closed; `429` + `Retry-After` overload shed |
//! | `GET /v1/jobs` | — | `200` the status body: `accepting`, phase counts, `telemetry` ([`QueueStats`](crate::scheduler::QueueStats)), `jobs` list; `?status=<s>` narrows by phase (`queued\|running\|done`) or terminal status (`ok\|failed\|cancelled\|timed_out\|poisoned\|killed_over_budget`), `?limit=<n>` caps the list, `?id=<n>` narrows it to one job (counts stay fleet-wide; an unknown id is `400`) |
//! | `GET /v1/jobs/{id}` | — | `200` `{"id","name","phase",…}`, plus `"fingerprint"` and the full `"report"` once terminal; `?wait=true` blocks until terminal; `404` unknown id |
//! | `GET /v1/jobs/{id}/trace` | — | `200` the job's span trees as JSON, one tree per attempt (each retry runs under a fresh trace id); spans carry name, level, start/duration µs, detail and nested events; `404` unknown id |
//! | `GET /v1/events` | — | `200` a live [server-sent-events](https://html.spec.whatwg.org/multipage/server-sent-events.html) stream (`text/event-stream`) of job lifecycle and index events from now on; `?job=<id>` narrows to one job, `?level=error\|warn\|info\|debug` widens/narrows verbosity (default `info`); a subscriber lapped by the bounded ring gets an `event: dropped` frame with the gap size, and one stalled past the write timeout is disconnected without ever blocking the scheduler |
//! | `DELETE /v1/jobs/{id}` | — | `200` `{"id":N,"outcome":"cancelled\|cancelling\|done"}`; `404` unknown id |
//! | `POST /v1/indexes` | a manifest job object | `201` `{"job":N,"index":"…"}` + `Location: /v1/indexes/{name}` — builds through the supervised queue, then persists the index artifact (wait on `/v1/jobs/{N}?wait=true`); `409` the index already exists / queue closed; `503` index serving disabled |
//! | `GET /v1/indexes` | — | `200` `{"indexes":[{"id","file_bytes","loaded"}],"cache":{…}}` |
//! | `GET /v1/indexes/{id}` | — | `200` artifact metadata: `file_bytes` and per-section `section_bytes`, entity counts, build timings, format version; `404` unknown index |
//! | `DELETE /v1/indexes/{id}` | — | `200` `{"index":"…","deleted":true}`; `404` unknown index |
//! | `PATCH /v1/indexes/{id}` | `{"deltas":[{"op":"upsert"\|"delete","side":"first"\|"second","uri":"…","statements":[…]}]}` (see [`minoan_kb::delta`]) | `202` `{"job":N,"index":"…"}` + `Location: /v1/jobs/{N}` — admits a **patch** job: the artifact is loaded, the ops are applied to its embedded KB pair, the pipeline re-runs over it with the index's build parameters (so the result is a from-scratch rebuild of the final KB state, bit for bit), and the file is atomically rewritten; `?wait=true` blocks until the patch job is terminal; `404` unknown index; `409` another patch for this index is still in flight; `400` malformed delta stream |
//! | `GET /v1/indexes/{id}/match?entity=<iri>&k=<n>` | — | `200` the hot match path: `matches`, top-`k` `candidates` with scores, and `stage_timings_ms` whose build-once stages (`ingest`, `blocking`, `similarities`) are always `0` — the answer comes from the loaded artifact, never from re-running the pipeline; `400` `k` outside `1..=128` ([`minoan_core::MAX_CANDIDATES`], the longest row an index persists); `404` unknown index or entity |
//! | `GET /v1/metrics` | — | `200` Prometheus text (`text/plain; version=0.0.4`), see [`prometheus_metrics`] |
//! | `POST /v1/shutdown` | optional `{"mode":"drain"\|"cancel"}` | `200` `{"shutting_down":true,"mode":"…"}`; the server drains and exits |
//!
//! Unknown paths are `404`; known paths with the wrong method are `405`
//! with an `Allow` header. Responses are JSON (`application/json`)
//! except the metrics text.
//!
//! ## Error schema
//!
//! Every error body is the **unified error object** (the line-JSON
//! framing carries the same one under `"ok":false`):
//!
//! ```json
//! {"error":{"code":"not_found","message":"…","retryable":false}}
//! ```
//!
//! `code` is the machine-readable name of the HTTP status
//! (`bad_request`, `unauthorized`, `not_found`, `method_not_allowed`,
//! `conflict`, `payload_too_large`, `overloaded`, `headers_too_large`,
//! `not_implemented`, `unavailable`, `http_version_not_supported`);
//! `retryable` is `true` for an overload shed (`429`) and for
//! temporary unavailability (`503`: the connection cap, transient
//! artifact I/O), and a retryable response also carries `Retry-After`.
//! A `503` for disabled index serving or a corrupt artifact is not
//! retryable. `Response::failure` builds every error response.
//!
//! ## Artifact wire format
//!
//! The files behind `/v1/indexes` use the checksummed section container
//! of [`minoan_kb::artifact`]: an 8-byte magic (`MINOANIX`), a `u32`
//! format version, a section table (tag, offset, length, FNV-1a
//! checksum per section) and the section payloads — metadata, the two
//! embedded KBs, the value-candidate CSRs and the final matching (see
//! [`minoan_core::artifact`] for the section layout). Truncated,
//! mis-versioned (an older format included: "rebuild the index") or
//! bit-flipped files are rejected at load with structured errors,
//! surfaced here as `503`.
//!
//! ## Authentication
//!
//! With an auth token configured ([`HttpOptions::auth_token`],
//! `--auth-token` on the CLI), **every** endpoint requires
//! `Authorization: Bearer <token>`. The comparison is constant-time in
//! the token bytes (the supplied length is not hidden); a missing or
//! wrong token gets `401` with a `WWW-Authenticate: Bearer` header and
//! does not disturb running jobs.
//!
//! ## Request limits and error codes
//!
//! The parser is strictly bounded and returns an error response instead
//! of panicking or consuming unbounded memory:
//!
//! | Limit | Bound | Status |
//! |-------|-------|--------|
//! | Request line | [`MAX_REQUEST_LINE_BYTES`] | `431` |
//! | One header line | [`MAX_HEADER_LINE_BYTES`] | `431` |
//! | Header count | [`MAX_HEADER_COUNT`] | `431` |
//! | Header section | [`MAX_HEADER_BYTES`] | `431` |
//! | Body (`Content-Length`) | [`MAX_BODY_BYTES`] | `413` |
//!
//! Malformed input — a garbled request line, a `Content-Length` that is
//! not all ASCII digits or comes more than once, a body shorter than
//! declared, invalid UTF-8 where JSON is expected — is `400`;
//! `Transfer-Encoding` (chunked bodies) is not supported (`501`); HTTP
//! versions other than 1.0/1.1 are `505`.
//! After an error that may have desynchronized framing the connection
//! closes (`Connection: close`); otherwise connections are keep-alive
//! and requests on one connection are processed strictly in order.
//!
//! ## Threading model
//!
//! One thread per connection, spawned from the same accept loop
//! structure as the line-JSON listener: the listener polls with the
//! shutdown flag, each connection gets a read timeout so an idle client
//! cannot outlive a shutdown, and a blocking `?wait=true` request parks
//! on the queue's condvar (jobs always terminate, so shutdown cannot
//! be wedged by a waiter). Handler threads are capped
//! ([`HttpOptions::max_connections`], default
//! [`DEFAULT_MAX_CONNECTIONS`]): a connection over the cap gets an
//! immediate `503` + `Retry-After` written from the accept loop and is
//! closed, so a connection flood cannot exhaust threads or starve the
//! line-JSON front-end.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use minoan_kb::Json;
use minoan_obs::{trace, Level};

use crate::daemon::POLL_INTERVAL;
use crate::events::{record_json, EventFilter, MAX_EVENT_BATCH};
use crate::intake;
use crate::registry::{IndexRegistry, RegistryError};
use crate::report::peak_rss_bytes;
use crate::scheduler::{CancelToken, JobQueue, SubmitError};
use crate::telemetry;

/// Maximum bytes in the request line (method + target + version).
pub const MAX_REQUEST_LINE_BYTES: usize = 8 << 10;
/// Maximum bytes in one header line.
pub const MAX_HEADER_LINE_BYTES: usize = 8 << 10;
/// Maximum number of header fields per request.
pub const MAX_HEADER_COUNT: usize = 64;
/// Maximum total bytes of the header section.
pub const MAX_HEADER_BYTES: usize = 32 << 10;
/// Maximum request body size (`Content-Length` above this is `413`).
pub const MAX_BODY_BYTES: usize = 4 << 20;

/// Concurrent connection-handler threads per listener unless
/// [`HttpOptions::max_connections`] overrides it.
pub const DEFAULT_MAX_CONNECTIONS: usize = 64;

/// `Retry-After` seconds suggested on `429`/`503` rejections. Small on
/// purpose: shed decisions are per-request and the queue drains
/// continuously, so a quick retry is cheap and usually succeeds.
pub const RETRY_AFTER_SECS: u64 = 1;

/// Options for the HTTP front-end.
#[derive(Debug, Clone, Default)]
pub struct HttpOptions {
    /// Static bearer token; when set, every request must carry
    /// `Authorization: Bearer <token>` (constant-time comparison).
    pub auth_token: Option<String>,
    /// Cap on concurrent connection-handler threads (`None` =
    /// [`DEFAULT_MAX_CONNECTIONS`]). A connection over the cap gets an
    /// immediate `503` + `Retry-After` and is closed — it never ties up
    /// a handler thread.
    pub max_connections: Option<usize>,
}

/// One parsed request: what [`route`] gives meaning to, whether it was
/// read off an HTTP connection or translated from a line-JSON frame.
pub(crate) struct Request {
    pub(crate) method: String,
    /// Path with the query string split off.
    pub(crate) path: String,
    /// Query parameters, in order, `key=value` pairs. Values are
    /// percent-decoded (entity IRIs in match queries carry `:` and `/`,
    /// which strict clients encode); keys are plain ASCII names.
    pub(crate) query: Vec<(String, String)>,
    /// Header fields with lower-cased names, in arrival order.
    pub(crate) headers: Vec<(String, String)>,
    pub(crate) body: Vec<u8>,
}

impl Request {
    /// First header with this (lower-case) name.
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the query asks for `wait` (`?wait=true` / `?wait=1`).
    pub(crate) fn wants_wait(&self) -> bool {
        self.query
            .iter()
            .any(|(k, v)| k == "wait" && matches!(v.as_str(), "true" | "1"))
    }

    /// First query parameter with this name.
    pub(crate) fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection.
    fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// How handling one request ends.
enum HttpError {
    /// Respond with this status and the unified error body, then close
    /// the connection (framing may be desynchronized after an error).
    Status(u16, String),
    /// Drop the connection without a response (I/O error, shutdown,
    /// client vanished mid-request).
    Disconnect,
}

/// A response body, kept unserialized until [`write_response`] so the
/// line-JSON framing can wrap the same value in its envelope.
#[derive(Debug)]
pub(crate) enum Body {
    /// Every endpoint but the metrics one (`application/json`).
    Json(Json),
    /// The Prometheus exposition of `GET /v1/metrics`.
    Metrics(String),
}

/// One routed response.
#[derive(Debug)]
pub(crate) struct Response {
    pub(crate) status: u16,
    pub(crate) body: Body,
    extra_headers: Vec<(&'static str, String)>,
}

impl Response {
    pub(crate) fn json(status: u16, body: Json) -> Response {
        Response {
            status,
            body: Body::Json(body),
            extra_headers: Vec::new(),
        }
    }

    /// This response with one more header.
    pub(crate) fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.extra_headers.push((name, value));
        self
    }

    /// An error response that is retryable exactly when the status is
    /// `429` or `503`: overload shed and temporary unavailability are
    /// worth a backoff; everything else is the client's fault as sent.
    pub(crate) fn error(status: u16, message: impl Into<String>) -> Response {
        Response::failure(status, message, matches!(status, 429 | 503))
    }

    /// Every error response is built here: the unified error object
    /// `{"error":{"code","message","retryable"}}`, whose `code` names
    /// the status, and `Retry-After` exactly when `retryable`.
    pub(crate) fn failure(status: u16, message: impl Into<String>, retryable: bool) -> Response {
        let code = match status {
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
        };
        let error = Json::obj([
            ("code", Json::str(code)),
            ("message", Json::str(message.into())),
            ("retryable", Json::Bool(retryable)),
        ]);
        let response = Response::json(status, Json::obj([("error", error)]));
        if retryable {
            response.with_header("Retry-After", RETRY_AFTER_SECS.to_string())
        } else {
            response
        }
    }
}

impl From<SubmitError> for Response {
    /// A closed queue is shutting down — a conflict with server state,
    /// not a bad request; an overload shed is the standard rate-limit
    /// shape, so off-the-shelf clients back off without bespoke
    /// handling.
    fn from(e: SubmitError) -> Response {
        let status = match e {
            SubmitError::Closed => 409,
            SubmitError::Overloaded(_) => 429,
        };
        Response::error(status, e.to_string())
    }
}

impl From<RegistryError> for Response {
    /// A malformed id is the client's; an artifact that cannot be read
    /// is a `503`, retryable exactly for transient I/O trouble.
    fn from(e: RegistryError) -> Response {
        match e {
            RegistryError::InvalidId => Response::error(400, e.to_string()),
            RegistryError::NotFound => Response::error(404, e.to_string()),
            RegistryError::Artifact(_) => Response::failure(503, e.to_string(), e.retryable()),
        }
    }
}

/// Serves one HTTP connection until EOF, an error response, a
/// `Connection: close` request or daemon shutdown. Spawned by the
/// shared accept loop in [`crate::daemon::run_server`].
pub(crate) fn handle_connection(
    stream: TcpStream,
    queue: &JobQueue,
    shutdown: &CancelToken,
    options: &HttpOptions,
    registry: Option<&IndexRegistry>,
) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL * 4));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        if shutdown.is_cancelled() {
            return;
        }
        let request = match read_request(&mut reader, &mut writer, shutdown) {
            Ok(Some(request)) => request,
            Ok(None) => return, // clean close between requests
            Err(HttpError::Disconnect) => return,
            Err(HttpError::Status(status, message)) => {
                if write_response(&mut writer, &Response::error(status, message), true).is_ok() {
                    lingering_close(reader.get_ref(), LINGER_DEADLINE, LINGER_MAX_BYTES);
                }
                return;
            }
        };
        // The SSE stream takes the connection over: it holds the socket
        // until the subscriber disconnects (or stalls past the write
        // timeout) or the daemon shuts down, so it never returns a
        // single Response through the normal path.
        if request.method == "GET" && request.path == "/v1/events" {
            if let Some(denied) = auth_failure(&request, options) {
                if write_response(&mut writer, &denied, true).is_ok() {
                    lingering_close(reader.get_ref(), LINGER_DEADLINE, LINGER_MAX_BYTES);
                }
                return;
            }
            serve_events_stream(writer, &request, shutdown);
            return;
        }
        let t_request = Instant::now();
        let response = route(&request, queue, shutdown, options, registry);
        telemetry::HTTP_REQUEST.observe(t_request.elapsed());
        // After a shutdown request the flag is set; close either way.
        let close = request.wants_close() || shutdown.is_cancelled() || response.status >= 400;
        if write_response(&mut writer, &response, close).is_err() {
            return;
        }
        if close {
            lingering_close(reader.get_ref(), LINGER_DEADLINE, LINGER_MAX_BYTES);
            return;
        }
    }
}

/// How long a handler thread's [`lingering_close`] keeps draining a
/// slow client.
pub(crate) const LINGER_DEADLINE: Duration = Duration::from_secs(2);
/// How many leftover bytes a handler thread's [`lingering_close`] is
/// willing to discard.
pub(crate) const LINGER_MAX_BYTES: usize = 1 << 20;

/// Closes a connection without losing the response: half-close the
/// write side, then drain whatever the client is still sending until
/// it sees our FIN and stops. Dropping the socket with unread input
/// would make the kernel turn the close into an RST, which can destroy
/// the just-written response before the client reads it — precisely on
/// the error paths (oversized request, early 4xx, over-cap connection)
/// where the client is mid-send and the response matters most. Bounded
/// by `deadline` and `max_bytes` so an abusive client cannot pin the
/// thread. Bytes a `BufReader` over `stream` still holds are dropped
/// with it. Shared with the line-JSON daemon's oversized-frame close.
pub(crate) fn lingering_close(mut stream: &TcpStream, deadline: Duration, max_bytes: usize) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let deadline = Instant::now() + deadline;
    let mut drained = 0usize;
    let mut sink = [0u8; 8 << 10];
    while Instant::now() < deadline && drained < max_bytes {
        // The stream keeps its POLL_INTERVAL-scaled read timeout, so
        // each failed tick is short.
        match stream.read(&mut sink) {
            Ok(0) => return, // client's FIN: a fully clean close
            Ok(n) => drained += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
}

/// A stalled SSE subscriber is dropped once a frame write blocks this
/// long. Generous against transient TCP stalls, tight enough that a
/// dead client cannot pin a handler thread while the ring laps it.
const SSE_WRITE_TIMEOUT: Duration = Duration::from_millis(500);

/// `GET /v1/events`: the live server-sent-events stream. Each
/// subscriber holds a private cursor into the shared trace ring
/// starting at "now" (history is the `/v1/jobs/{id}/trace` endpoint's
/// job, not this one's) and forwards every matching event as an SSE
/// frame. Fan-out is pull-based — emitters only push into the ring and
/// never see subscribers — so a slow or stalled client can *only* hurt
/// itself: when its cursor is lapped by the bounded ring it gets a
/// `dropped` frame with the gap size, and when a write blocks past
/// [`SSE_WRITE_TIMEOUT`] the connection is closed and a `warn`-level
/// `http.events` record announces the drop to surviving subscribers.
fn serve_events_stream(mut writer: TcpStream, request: &Request, shutdown: &CancelToken) {
    use std::fmt::Write as _;
    let job = match request.query_param("job") {
        None => None,
        Some(raw) => match raw.parse::<i64>() {
            Ok(id) => Some(id),
            Err(_) => {
                let denied =
                    Response::error(400, format!("job must be an integer job id, got {raw:?}"));
                let _ = write_response(&mut writer, &denied, true);
                return;
            }
        },
    };
    let level = match request.query_param("level") {
        None => Level::Info,
        Some(raw) => match raw.parse::<Level>() {
            Ok(level) => level,
            Err(e) => {
                let denied = Response::error(400, e);
                let _ = write_response(&mut writer, &denied, true);
                return;
            }
        },
    };
    let filter = EventFilter { job, level };
    let _ = writer.set_write_timeout(Some(SSE_WRITE_TIMEOUT));
    let head = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
                Cache-Control: no-cache\r\nConnection: close\r\n\r\n";
    // An immediate comment frame confirms the subscription to clients
    // that wait for the first byte before reporting "connected".
    if writer.write_all(head.as_bytes()).is_err() || writer.write_all(b": subscribed\n\n").is_err()
    {
        return;
    }
    let collector = trace::collector();
    let mut cursor = collector.next_seq();
    let mut sent = 0u64;
    while !shutdown.is_cancelled() {
        let batch = collector.wait_since(cursor, MAX_EVENT_BATCH, POLL_INTERVAL * 4);
        let mut frame = String::new();
        if batch.dropped > 0 {
            // The ring lapped this subscriber's cursor: say how many
            // records are gone rather than silently skipping them.
            let _ = write!(
                frame,
                "event: dropped\ndata: {{\"dropped\":{}}}\n\n",
                batch.dropped
            );
        }
        for record in &batch.records {
            if filter.matches(record) {
                let _ = write!(
                    frame,
                    "event: {}\ndata: {}\n\n",
                    record.name,
                    record_json(record).compact()
                );
                sent += 1;
            }
        }
        cursor = batch.next;
        if frame.is_empty() {
            // Keep-alive comment so dead connections surface as write
            // errors here instead of lingering forever.
            frame.push_str(": keep-alive\n\n");
        }
        if writer.write_all(frame.as_bytes()).is_err() || writer.flush().is_err() {
            minoan_obs::warn!(
                "http.events",
                "SSE subscriber dropped after {sent} events (stalled or disconnected)"
            );
            return;
        }
    }
}

/// Reads one request head + body. `Ok(None)` is a clean close before
/// any byte of a request.
fn read_request(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    shutdown: &CancelToken,
) -> Result<Option<Request>, HttpError> {
    let Some(line) = read_line(reader, MAX_REQUEST_LINE_BYTES, shutdown, 431)? else {
        return Ok(None);
    };
    let line = String::from_utf8(line)
        .map_err(|_| HttpError::Status(400, "request line is not valid UTF-8".into()))?;
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Status(
            400,
            format!("malformed request line {line:?}"),
        ));
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Status(
            505,
            format!("unsupported protocol version {version:?}"),
        ));
    }

    let mut headers = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let Some(line) = read_line(reader, MAX_HEADER_LINE_BYTES, shutdown, 431)? else {
            return Err(HttpError::Status(
                400,
                "connection closed inside the header section".into(),
            ));
        };
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        if headers.len() == MAX_HEADER_COUNT {
            return Err(HttpError::Status(
                431,
                format!("more than {MAX_HEADER_COUNT} header fields"),
            ));
        }
        if header_bytes > MAX_HEADER_BYTES {
            return Err(HttpError::Status(
                431,
                format!("header section exceeds {MAX_HEADER_BYTES} bytes"),
            ));
        }
        let text = String::from_utf8(line)
            .map_err(|_| HttpError::Status(400, "header line is not valid UTF-8".into()))?;
        let Some((name, value)) = text.split_once(':') else {
            return Err(HttpError::Status(
                400,
                format!("malformed header line {text:?}"),
            ));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let request_header = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    if request_header("transfer-encoding").is_some() {
        return Err(HttpError::Status(
            501,
            "transfer-encoding is not supported; send a Content-Length body".into(),
        ));
    }
    // Exactly one length of ASCII digits: a second field, even an equal
    // one, or a sign would let a proxy frame the body differently.
    let mut lengths = headers.iter().filter(|(k, _)| k == "content-length");
    let content_length = match (lengths.next(), lengths.next()) {
        (None, _) => 0,
        (Some(_), Some(_)) => {
            return Err(HttpError::Status(
                400,
                "more than one content-length field".into(),
            ))
        }
        (Some((_, v)), None) => match v.parse::<usize>() {
            Ok(n) if v.bytes().all(|b| b.is_ascii_digit()) => n,
            _ => {
                return Err(HttpError::Status(
                    400,
                    format!("content-length {v:?} is not a valid length"),
                ))
            }
        },
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::Status(
            413,
            format!(
                "request body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            ),
        ));
    }
    // `Expect: 100-continue` clients hold the body back until invited.
    if request_header("expect").is_some_and(|v| v.to_ascii_lowercase().contains("100-continue")) {
        writer
            .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
            .map_err(|_| HttpError::Disconnect)?;
    }
    let body = read_body(reader, content_length, shutdown)?;

    let (path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.to_string(), ""),
    };
    let query = raw_query
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), percent_decode(v)),
            None => (pair.to_string(), String::new()),
        })
        .collect();
    Ok(Some(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    }))
}

/// Reads one CRLF/LF-terminated line as raw bytes, bounded by `limit`
/// (content bytes, terminator excluded — exceeding it is
/// `too_long_status`). Tolerates read timeouts by polling the shutdown
/// flag; `Ok(None)` is EOF before any byte.
fn read_line(
    reader: &mut BufReader<TcpStream>,
    limit: usize,
    shutdown: &CancelToken,
    too_long_status: u16,
) -> Result<Option<Vec<u8>>, HttpError> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        // Bound every read so a line without a newline cannot grow past
        // the limit (+2 leaves room for the CRLF terminator itself).
        let budget = (limit + 2).saturating_sub(buf.len()) as u64;
        match reader.by_ref().take(budget).read_until(b'\n', &mut buf) {
            Ok(0) if buf.is_empty() => return Ok(None),
            Ok(_) if buf.ends_with(b"\n") => {
                buf.pop();
                if buf.ends_with(b"\r") {
                    buf.pop();
                }
                if buf.len() > limit {
                    return Err(HttpError::Status(
                        too_long_status,
                        format!("line exceeds the {limit}-byte limit"),
                    ));
                }
                return Ok(Some(buf));
            }
            Ok(_) if buf.len() > limit => {
                return Err(HttpError::Status(
                    too_long_status,
                    format!("line exceeds the {limit}-byte limit"),
                ));
            }
            // EOF mid-line: the client closed with a request in flight.
            Ok(_) => return Err(HttpError::Status(400, "truncated request".into())),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if shutdown.is_cancelled() {
                    return Err(HttpError::Disconnect);
                }
            }
            Err(_) => return Err(HttpError::Disconnect),
        }
    }
}

/// Reads exactly `len` body bytes (the `Content-Length` contract),
/// tolerating read timeouts; a short body is a `400`.
fn read_body(
    reader: &mut BufReader<TcpStream>,
    len: usize,
    shutdown: &CancelToken,
) -> Result<Vec<u8>, HttpError> {
    let mut body = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match reader.read(&mut body[filled..]) {
            Ok(0) => {
                return Err(HttpError::Status(
                    400,
                    format!("request body truncated at {filled} of {len} bytes"),
                ))
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if shutdown.is_cancelled() {
                    return Err(HttpError::Disconnect);
                }
            }
            Err(_) => return Err(HttpError::Disconnect),
        }
    }
    Ok(body)
}

/// Routes one request to its endpoint: the one place a request is given
/// meaning, for HTTP connections and translated line-JSON frames alike.
/// It only dispatches: every queue and registry operation is a handler
/// in [`intake`] that returns its finished response.
pub(crate) fn route(
    request: &Request,
    queue: &JobQueue,
    shutdown: &CancelToken,
    options: &HttpOptions,
    registry: Option<&IndexRegistry>,
) -> Response {
    if let Some(denied) = auth_failure(request, options) {
        return denied;
    }
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let handled = match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["v1", "jobs"]) => intake::submit_job(request, queue),
        ("GET", ["v1", "jobs"]) => {
            intake::list_jobs(request, queue, !shutdown.is_cancelled(), registry)
        }
        ("GET", ["v1", "jobs", id]) => intake::get_job(request, queue, id),
        ("GET", ["v1", "jobs", id, "trace"]) => intake::job_trace(queue, id),
        ("DELETE", ["v1", "jobs", id]) => intake::cancel_job(queue, id),
        ("GET", ["v1", "metrics"]) => Ok(Response {
            status: 200,
            body: Body::Metrics(prometheus_metrics(queue, registry)),
            extra_headers: Vec::new(),
        }),
        ("POST", ["v1", "shutdown"]) => intake::shutdown(request, queue, shutdown),
        ("POST", ["v1", "indexes"]) => intake::index_build(request, queue, registry),
        ("GET", ["v1", "indexes"]) => intake::index_list(registry),
        ("GET", ["v1", "indexes", id]) => intake::index_meta(registry, id),
        ("DELETE", ["v1", "indexes", id]) => intake::index_delete(registry, id),
        ("PATCH", ["v1", "indexes", id]) => intake::index_patch(request, queue, registry, id),
        ("GET", ["v1", "indexes", id, "match"]) => intake::index_match(request, registry, id),
        (_, ["v1", "jobs"]) => Err(method_not_allowed("GET, POST")),
        (_, ["v1", "jobs", _]) => Err(method_not_allowed("GET, DELETE")),
        (_, ["v1", "jobs", _, "trace"]) => Err(method_not_allowed("GET")),
        // `GET /v1/events` is intercepted before routing (it takes the
        // raw connection over); any other method lands here.
        (_, ["v1", "events"]) => Err(method_not_allowed("GET")),
        (_, ["v1", "indexes"]) => Err(method_not_allowed("GET, POST")),
        (_, ["v1", "indexes", _]) => Err(method_not_allowed("GET, DELETE, PATCH")),
        (_, ["v1", "indexes", _, "match"]) => Err(method_not_allowed("GET")),
        (_, ["v1", "metrics"]) => Err(method_not_allowed("GET")),
        (_, ["v1", "shutdown"]) => Err(method_not_allowed("POST")),
        _ => Err(Response::error(
            404,
            format!("no such endpoint {}", request.path),
        )),
    };
    handled.unwrap_or_else(|error| error)
}

/// Decodes `%XX` escapes and `+`-as-space in a query value. Malformed
/// escapes pass through verbatim — the id/IRI lookup will simply miss.
fn percent_decode(raw: &str) -> String {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|pair| {
                    let high = (pair[0] as char).to_digit(16)?;
                    let low = (pair[1] as char).to_digit(16)?;
                    Some((high * 16 + low) as u8)
                });
                match hex {
                    Some(byte) => {
                        out.push(byte);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            byte => out.push(byte),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn method_not_allowed(allow: &'static str) -> Response {
    Response::error(405, format!("method not allowed; allowed: {allow}"))
        .with_header("Allow", allow.to_string())
}

/// The `401` for a request that fails bearer-token auth, or `None` when
/// the request is authorized (or no token is configured). Shared by the
/// normal [`route`] path and the SSE takeover, which must authenticate
/// *before* committing the connection to a stream.
fn auth_failure(request: &Request, options: &HttpOptions) -> Option<Response> {
    let expected = options.auth_token.as_ref()?;
    let supplied = request
        .header("authorization")
        .and_then(bearer_token)
        .unwrap_or("");
    if constant_time_eq(expected, supplied) {
        return None;
    }
    let denied = Response::error(401, "missing or invalid bearer token");
    Some(denied.with_header("WWW-Authenticate", "Bearer".to_string()))
}

/// Extracts the token from an `Authorization: Bearer <token>` value
/// (scheme case-insensitive).
fn bearer_token(value: &str) -> Option<&str> {
    let (scheme, token) = value.split_once(' ')?;
    scheme.eq_ignore_ascii_case("bearer").then(|| token.trim())
}

/// Byte-wise comparison whose running time depends only on the lengths
/// of the inputs, never on where they differ — the supplied token's
/// length is observable, its bytes are not.
fn constant_time_eq(expected: &str, supplied: &str) -> bool {
    let (a, b) = (expected.as_bytes(), supplied.as_bytes());
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= (x ^ y) as usize;
    }
    diff == 0
}

/// Serializes one response; `close` decides the `Connection` header.
fn write_response(
    writer: &mut impl Write,
    response: &Response,
    close: bool,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let json;
    let (content_type, body) = match &response.body {
        Body::Json(value) => {
            json = value.compact();
            ("application/json", &json)
        }
        Body::Metrics(text) => ("text/plain; version=0.0.4", text),
    };
    let mut head = String::new();
    let _ = write!(
        head,
        "HTTP/1.1 {} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        response.status,
        reason_phrase(response.status),
        body.len()
    );
    for (name, value) in &response.extra_headers {
        let _ = write!(head, "{name}: {value}\r\n");
    }
    let _ = write!(
        head,
        "Connection: {}\r\n\r\n",
        if close { "close" } else { "keep-alive" }
    );
    writer.write_all(head.as_bytes())?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Response",
    }
}

/// How long [`reject_over_capacity`] lingers on a rejected connection.
/// An order of magnitude tighter than [`LINGER_DEADLINE`] because this
/// runs on the accept thread, not a handler thread.
const REJECT_LINGER_DEADLINE: Duration = Duration::from_millis(100);
/// Leftover-byte cap for [`reject_over_capacity`]'s drain.
const REJECT_LINGER_MAX_BYTES: usize = 16 << 10;

/// Rejects one over-cap connection before reading any request: writes
/// a retryable `503`, then closes through [`lingering_close`] — here
/// the *whole request* is still queued unread. Runs inline on the
/// accept thread (no handler thread), so both bounds are tight.
pub(crate) fn reject_over_capacity(mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let refusal = Response::error(503, "connection limit reached; retry shortly");
    if write_response(&mut stream, &refusal, true).is_ok() {
        lingering_close(&stream, REJECT_LINGER_DEADLINE, REJECT_LINGER_MAX_BYTES);
    }
}

/// Renders the queue's live telemetry ([`JobQueue::stats`]) as
/// Prometheus text-format metrics (`text/plain; version=0.0.4`): queue
/// depth and running/done counts, admitted footprint vs. memory budget,
/// thread allotments, cumulative per-stage pipeline timings, admission
/// estimate vs. measured RSS-delta totals, the process peak RSS, and —
/// once the pool is live — pool worker/queue-depth/injection counters
/// including per-worker task counts. With an index registry live, the
/// `minoan_index_*` family reports its cache: loaded entries,
/// resident vs. budget bytes, and hit/miss/eviction/invalidation
/// counters (invalidations are cache drops caused by `PATCH` rewrites,
/// distinct from LRU budget evictions).
pub fn prometheus_metrics(queue: &JobQueue, registry: Option<&IndexRegistry>) -> String {
    let stats = queue.stats();
    let mut text = PromText::new();
    let gauges = [
        (
            "minoan_jobs_queued",
            "Jobs awaiting dispatch.",
            stats.queued as f64,
        ),
        (
            "minoan_jobs_running",
            "Jobs currently running.",
            stats.running as f64,
        ),
        (
            "minoan_jobs_running_peak",
            "High-water mark of concurrently running jobs.",
            stats.peak_running as f64,
        ),
        (
            "minoan_admitted_bytes",
            "Footprint estimates of admitted (running) jobs, charged against the memory budget.",
            stats.admitted_bytes as f64,
        ),
        (
            "minoan_memory_budget_bytes",
            "Admission memory budget (0 = unlimited).",
            stats.memory_budget_bytes as f64,
        ),
        (
            "minoan_threads_in_use",
            "Sum of running jobs' allotments: each is its pool waves' minimum task count \
             (the pool always runs available_parallelism() workers).",
            stats.threads_in_use as f64,
        ),
        (
            "minoan_fleet_slots",
            "Fleet slots (max concurrent jobs).",
            stats.slots as f64,
        ),
    ];
    for (name, help, value) in gauges {
        text.single("gauge", name, help, value);
    }
    if text.family(
        "minoan_jobs_done_total",
        "counter",
        "Terminal jobs by status.",
    ) {
        let by_status = [
            ("ok", stats.done_ok),
            ("failed", stats.done_failed),
            ("cancelled", stats.done_cancelled),
            ("timed_out", stats.done_timed_out),
            ("poisoned", stats.done_poisoned),
            ("killed_over_budget", stats.done_killed_over_budget),
        ];
        for (status, count) in by_status {
            text.sample(
                "minoan_jobs_done_total",
                &format!("{{status=\"{status}\"}}"),
                count as f64,
            );
        }
    }
    text.single(
        "counter",
        "minoan_jobs_retries_scheduled_total",
        "Retry attempts re-queued after transient failures.",
        stats.retries_scheduled as f64,
    );
    text.single(
        "counter",
        "minoan_jobs_shed_total",
        "Submissions rejected by overload shedding.",
        stats.shed_total as f64,
    );
    let counters = [
        (
            "minoan_job_wall_seconds_total",
            "Cumulative wall-clock job time (including input loading) over finished jobs.",
            stats.wall_total.as_secs_f64(),
        ),
        (
            "minoan_estimated_bytes_total",
            "Sum of admission footprint estimates over finished jobs.",
            stats.estimated_bytes_total as f64,
        ),
        (
            "minoan_rss_delta_bytes_total",
            "Sum of measured peak-RSS deltas over finished jobs.",
            stats.rss_delta_bytes_total as f64,
        ),
    ];
    for (name, help, value) in counters {
        text.single("counter", name, help, value);
    }
    if let Some(rss) = peak_rss_bytes() {
        text.single(
            "gauge",
            "minoan_process_peak_rss_bytes",
            "Process peak resident set size (VmHWM).",
            rss as f64,
        );
    }
    // Pool telemetry, present once the first pool-backed wave has
    // started the process-wide pool (the snapshot never starts it, so
    // an all-sequential process simply omits the family).
    if let Some(pool) = &stats.pool {
        text.single(
            "gauge",
            "minoan_pool_workers",
            "Worker threads of the process-wide pool.",
            pool.workers as f64,
        );
        text.single(
            "gauge",
            "minoan_pool_queued_tasks",
            "Helper jobs waiting in the pool's queue right now.",
            pool.queued as f64,
        );
        text.single(
            "counter",
            "minoan_pool_injected_total",
            "Jobs injected into the pool over its lifetime.",
            pool.injected as f64,
        );
        text.single(
            "counter",
            "minoan_pool_tasks_total",
            "Quantum-bounded wave tasks executed across all workers.",
            pool.tasks_total() as f64,
        );
        if text.family(
            "minoan_pool_worker_tasks_total",
            "counter",
            "Wave tasks executed, per pool worker.",
        ) {
            for (worker, tasks) in pool.worker_tasks.iter().enumerate() {
                text.sample(
                    "minoan_pool_worker_tasks_total",
                    &format!("{{worker=\"{worker}\"}}"),
                    *tasks as f64,
                );
            }
        }
    }
    if let Some(registry) = registry {
        let (loaded, cached, budget, hits, misses, evictions, invalidations) =
            registry.stats_counts();
        let index_gauges = [
            (
                "minoan_index_loaded",
                "Index artifacts currently loaded in the registry cache.",
                loaded as f64,
            ),
            (
                "minoan_index_cached_bytes",
                "Resident bytes of loaded index artifacts (file size as the proxy).",
                cached as f64,
            ),
            (
                "minoan_index_cache_budget_bytes",
                "Byte budget of the loaded-index LRU cache.",
                budget as f64,
            ),
        ];
        for (name, help, value) in index_gauges {
            text.single("gauge", name, help, value);
        }
        let index_counters = [
            (
                "minoan_index_cache_hits_total",
                "Match queries answered from an already-loaded artifact.",
                hits as f64,
            ),
            (
                "minoan_index_cache_misses_total",
                "Match queries that had to read the artifact from disk.",
                misses as f64,
            ),
            (
                "minoan_index_cache_evictions_total",
                "Loaded artifacts dropped by LRU byte-budget pressure.",
                evictions as f64,
            ),
            (
                "minoan_index_cache_invalidations_total",
                "Loaded artifacts dropped because a PATCH rewrote the file.",
                invalidations as f64,
            ),
        ];
        for (name, help, value) in index_counters {
            text.single("counter", name, help, value);
        }
    }
    // Latency histograms from the process-wide observability layer.
    text.histogram(
        "minoan_match_query_seconds",
        "End-to-end /v1/indexes/{id}/match latency (artifact load + query).",
        &[(None, telemetry::MATCH_QUERY.snapshot())],
    );
    text.histogram(
        "minoan_http_request_seconds",
        "HTTP request handling time (auth + routing + handler; SSE streams excluded).",
        &[(None, telemetry::HTTP_REQUEST.snapshot())],
    );
    text.histogram(
        "minoan_job_queue_wait_seconds",
        "Time jobs spent queued before dispatch, including retry backoff.",
        &[(None, telemetry::QUEUE_WAIT.snapshot())],
    );
    let stage_series: Vec<_> = telemetry::stage_histograms()
        .map(|(stage, histogram)| (Some(("stage", stage)), histogram.snapshot()))
        .collect();
    text.histogram(
        "minoan_job_stage_seconds",
        "Per-job pipeline stage latency over finished jobs.",
        &stage_series,
    );
    text.single(
        "counter",
        "minoan_trace_records_dropped_total",
        "Trace-ring records overwritten before every reader consumed them.",
        trace::collector().dropped_total() as f64,
    );
    text.out
}

/// Incremental Prometheus text-format (0.0.4) builder. The format
/// allows each family's `# HELP`/`# TYPE` header at most once per
/// exposition; the builder enforces that by remembering every family it
/// has opened. A repeat is a bug — it panics under debug assertions and
/// is skipped in release builds, rather than emitting an exposition
/// scrapers reject wholesale.
struct PromText {
    out: String,
    families: Vec<String>,
}

impl PromText {
    fn new() -> PromText {
        PromText {
            out: String::new(),
            families: Vec::new(),
        }
    }

    /// Opens a family by writing its `HELP`/`TYPE` header. Returns
    /// whether sample lines may follow (`false` only on the
    /// duplicate-family bug path).
    fn family(&mut self, name: &str, kind: &str, help: &str) -> bool {
        use std::fmt::Write as _;
        if self.families.iter().any(|family| family == name) {
            debug_assert!(false, "duplicate metric family {name}");
            return false;
        }
        self.families.push(name.to_string());
        let _ = write!(self.out, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
        true
    }

    /// One sample line; `labels` is empty or a braced `{k="v",…}` set.
    fn sample(&mut self, name: &str, labels: &str, value: f64) {
        use std::fmt::Write as _;
        let _ = writeln!(self.out, "{name}{labels} {value}");
    }

    /// A family with exactly one unlabeled sample.
    fn single(&mut self, kind: &str, name: &str, help: &str, value: f64) {
        if self.family(name, kind, help) {
            self.sample(name, "", value);
        }
    }

    /// One histogram family, one or more label series: cumulative
    /// `_bucket` lines (monotone by construction, closed by the
    /// mandatory `le="+Inf"`), then `_sum` and `_count` per series.
    fn histogram(
        &mut self,
        name: &str,
        help: &str,
        series: &[(Option<(&str, &str)>, minoan_obs::hist::Snapshot)],
    ) {
        use std::fmt::Write as _;
        if !self.family(name, "histogram", help) {
            return;
        }
        for (label, snapshot) in series {
            let bucket_prefix = match label {
                Some((key, value)) => format!("{key}=\"{value}\","),
                None => String::new(),
            };
            for (le, cumulative) in snapshot.cumulative_seconds() {
                let _ = writeln!(
                    self.out,
                    "{name}_bucket{{{bucket_prefix}le=\"{le}\"}} {cumulative}"
                );
            }
            let _ = writeln!(
                self.out,
                "{name}_bucket{{{bucket_prefix}le=\"+Inf\"}} {}",
                snapshot.count
            );
            let labels = match label {
                Some((key, value)) => format!("{{{key}=\"{value}\"}}"),
                None => String::new(),
            };
            let _ = writeln!(
                self.out,
                "{name}_sum{labels} {}",
                snapshot.sum_micros as f64 / 1e6
            );
            let _ = writeln!(self.out, "{name}_count{labels} {}", snapshot.count);
        }
    }
}

#[cfg(test)]
mod wire_pin;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_time_eq_agrees_with_plain_eq() {
        for (a, b) in [
            ("", ""),
            ("secret", "secret"),
            ("secret", "secres"),
            ("secret", "secre"),
            ("secret", ""),
            ("", "secret"),
            ("a", "ab"),
        ] {
            assert_eq!(constant_time_eq(a, b), a == b, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn bearer_tokens_parse_case_insensitively() {
        assert_eq!(bearer_token("Bearer tok"), Some("tok"));
        assert_eq!(bearer_token("bearer tok"), Some("tok"));
        assert_eq!(bearer_token("BEARER  tok "), Some("tok"));
        assert_eq!(bearer_token("Basic dXNlcg=="), None);
        assert_eq!(bearer_token("Bearer"), None, "no token at all");
    }

    #[test]
    fn metrics_render_all_families_for_an_empty_queue() {
        let queue = JobQueue::new(1, 64 << 20);
        let text = prometheus_metrics(&queue, None);
        assert!(
            !text.contains("minoan_index_"),
            "no index family without a registry"
        );
        assert!(!text.contains("minoan_threads_budget"));
        for family in [
            "minoan_jobs_queued 0",
            "minoan_jobs_running 0",
            "minoan_memory_budget_bytes 67108864",
            "minoan_threads_in_use 0",
            "minoan_fleet_slots 1",
            "minoan_jobs_done_total{status=\"ok\"} 0",
            "minoan_jobs_done_total{status=\"timed_out\"} 0",
            "minoan_jobs_done_total{status=\"poisoned\"} 0",
            "minoan_jobs_done_total{status=\"killed_over_budget\"} 0",
            "minoan_jobs_retries_scheduled_total 0",
            "minoan_jobs_shed_total 0",
            "minoan_job_stage_seconds_sum{stage=\"tokenize\"}",
        ] {
            assert!(text.contains(family), "missing {family:?} in:\n{text}");
        }
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("metric line has a value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparseable value: {line}");
        }
    }

    #[test]
    fn prometheus_exposition_follows_the_text_format_grammar() {
        let queue = JobQueue::new(1, 64 << 20);
        // Feed two histograms so bucket lines carry non-zero counts
        // (process-global statics: other tests may add more, which the
        // grammar checks below are insensitive to).
        telemetry::MATCH_QUERY.observe(Duration::from_micros(250));
        telemetry::HTTP_REQUEST.observe(Duration::from_millis(3));
        let text = prometheus_metrics(&queue, None);

        // Pass 1: every family's HELP and TYPE appear exactly once, as
        // a HELP-then-TYPE pair, before any of its samples; every
        // sample line parses as `name[{labels}] value`.
        let mut help_seen: Vec<String> = Vec::new();
        let mut families: Vec<(String, String)> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap().to_string();
                assert!(!help_seen.contains(&name), "duplicate HELP for {name}");
                help_seen.push(name);
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let name = parts.next().unwrap().to_string();
                let kind = parts.next().expect("TYPE line has a kind").to_string();
                assert!(
                    ["gauge", "counter", "histogram"].contains(&kind.as_str()),
                    "unknown metric type {kind:?}"
                );
                assert!(
                    families.iter().all(|(seen, _)| seen != &name),
                    "duplicate TYPE for {name}"
                );
                assert_eq!(help_seen.last(), Some(&name), "TYPE must follow its HELP");
                families.push((name, kind));
            } else {
                let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
                let name = series.split('{').next().unwrap();
                let owner = families.iter().find(|(family, kind)| {
                    if kind == "histogram" {
                        [
                            format!("{family}_bucket"),
                            format!("{family}_sum"),
                            format!("{family}_count"),
                        ]
                        .iter()
                        .any(|suffixed| suffixed == name)
                    } else {
                        family == name
                    }
                });
                assert!(
                    owner.is_some(),
                    "sample {name} has no preceding TYPE header"
                );
                assert!(value.parse::<f64>().is_ok(), "unparseable value: {line}");
            }
        }
        for expected in [
            "minoan_match_query_seconds",
            "minoan_http_request_seconds",
            "minoan_job_queue_wait_seconds",
            "minoan_job_stage_seconds",
        ] {
            assert!(
                families
                    .iter()
                    .any(|(name, kind)| name == expected && kind == "histogram"),
                "missing histogram family {expected}"
            );
        }
        assert!(text.contains("minoan_trace_records_dropped_total"));

        // Pass 2: per histogram series, buckets are cumulative
        // (monotone non-decreasing), closed by a mandatory le="+Inf"
        // whose value equals the series' _count sample.
        for (family, _) in families.iter().filter(|(_, kind)| kind == "histogram") {
            let bucket_prefix = format!("{family}_bucket{{");
            // label-prefix-before-le -> (les, cumulative counts)
            let mut series: Vec<(String, Vec<String>, Vec<f64>)> = Vec::new();
            for line in text.lines().filter(|line| line.starts_with(&bucket_prefix)) {
                let (labels, value) = line.rsplit_once(' ').unwrap();
                let le_at = labels.find("le=\"").expect("bucket line has le");
                let key = labels[..le_at].to_string();
                let le = labels[le_at + 4..].trim_end_matches("\"}").to_string();
                let count = value.parse::<f64>().unwrap();
                match series.iter_mut().find(|(k, _, _)| *k == key) {
                    Some((_, les, counts)) => {
                        les.push(le);
                        counts.push(count);
                    }
                    None => series.push((key, vec![le], vec![count])),
                }
            }
            assert!(!series.is_empty(), "histogram {family} emitted no buckets");
            for (key, les, counts) in &series {
                assert_eq!(
                    les.last().map(String::as_str),
                    Some("+Inf"),
                    "{family} series {key:?} must end with le=\"+Inf\""
                );
                assert!(
                    counts.windows(2).all(|pair| pair[0] <= pair[1]),
                    "{family} series {key:?} buckets are not cumulative: {counts:?}"
                );
                // The _count sample of the same series: the key is
                // `{family}_bucket{` + `k="v",`* — rebuild the matching
                // `_count` series name from the label prefix.
                let inner = key
                    .strip_prefix(&bucket_prefix)
                    .unwrap()
                    .trim_end_matches(',');
                let count_series = if inner.is_empty() {
                    format!("{family}_count")
                } else {
                    format!("{family}_count{{{inner}}}")
                };
                let total = text
                    .lines()
                    .filter_map(|line| line.rsplit_once(' '))
                    .find(|(name, _)| *name == count_series)
                    .map(|(_, value)| value.parse::<f64>().unwrap())
                    .expect("every bucket series has a _count sample");
                assert_eq!(
                    *counts.last().unwrap(),
                    total,
                    "{family} series {key:?}: le=\"+Inf\" must equal _count"
                );
            }
        }
    }

    #[test]
    fn reason_phrases_cover_the_emitted_statuses() {
        for status in [
            200, 201, 400, 401, 404, 405, 409, 413, 429, 431, 501, 503, 505,
        ] {
            assert_ne!(reason_phrase(status), "Response", "{status}");
        }
    }

    #[test]
    fn unified_error_body_has_the_three_fields() {
        let error = |status: u16| {
            let Body::Json(body) = Response::error(status, "back off").body else {
                panic!("error bodies are JSON");
            };
            body.get("error").expect("an error object").clone()
        };
        let body = error(429);
        assert_eq!(body.get("code").unwrap().as_str(), Some("overloaded"));
        assert_eq!(body.get("message").unwrap().as_str(), Some("back off"));
        assert_eq!(body.get("retryable"), Some(&Json::Bool(true)));
        assert_eq!(error(404).get("code").unwrap().as_str(), Some("not_found"));
        assert_eq!(error(404).get("retryable"), Some(&Json::Bool(false)));
        assert_eq!(error(503).get("retryable"), Some(&Json::Bool(true)));
    }
}
