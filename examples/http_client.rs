//! A dependency-free HTTP/1.1 client for the `minoaner serve
//! --listen-http` front-end.
//!
//! ```text
//! cargo run --release --example http_client -- <host:port> [--token T] submit '<job json>'
//! cargo run --release --example http_client -- <host:port> [--token T] jobs
//! cargo run --release --example http_client -- <host:port> [--token T] get <id> [--wait]
//! cargo run --release --example http_client -- <host:port> [--token T] cancel <id>
//! cargo run --release --example http_client -- <host:port> [--token T] index-build '<job json>' [--wait]
//! cargo run --release --example http_client -- <host:port> [--token T] indexes
//! cargo run --release --example http_client -- <host:port> [--token T] index-get <name>
//! cargo run --release --example http_client -- <host:port> [--token T] index-delete <name>
//! cargo run --release --example http_client -- <host:port> [--token T] index-match <name> <iri> [--k N]
//! cargo run --release --example http_client -- <host:port> [--token T] metrics
//! cargo run --release --example http_client -- <host:port> [--token T] trace <id>
//! cargo run --release --example http_client -- <host:port> [--token T] events [--level L] [--job N]
//! cargo run --release --example http_client -- <host:port> [--token T] shutdown [drain|cancel]
//! cargo run --release --example http_client -- <host:port> [--token T] smoke
//! ```
//!
//! Each mode performs one request and prints the response body; see
//! `minoan_serve::http` for the endpoint table, auth and limits.
//! `submit` and `index-build` take the manifest job schema, e.g.
//! `'{"name":"r","dataset":"restaurant","scale":0.1}'`. With `--token`
//! every request carries `Authorization: Bearer <token>`. The
//! `index-*` verbs drive the resource-oriented `/v1/indexes` API
//! (needs a server started with `--index-dir`); `index-match` answers
//! from the persisted artifact without re-running the pipeline.
//!
//! On any unexpected status the client prints the server's unified
//! error object — `{"error":{"code","message","retryable"}}` — before
//! exiting non-zero, so failures are self-describing.
//!
//! `smoke` is the end-to-end scenario CI runs against a live server:
//! submit a small job, submit a heavy job and cancel it mid-run, assert
//! the first resolves and the second reports `cancelled`, exercise the
//! index build → inspect → match → delete round trip (skipped politely
//! when index serving is disabled), subscribe to `GET /v1/events` and
//! assert a freshly submitted job streams its queued → running → done
//! lifecycle over SSE, check the metrics endpoint parses, then shut the
//! server down. Exits non-zero on any violated expectation.

use std::io::{Read, Write};
use std::process::exit;

use minoaner::kb::Json;

#[path = "shared/retry.rs"]
mod retry;
use retry::connect_retry;

fn fail(message: &str) -> ! {
    eprintln!("http_client: {message}");
    exit(1);
}

/// One parsed HTTP response.
struct Response {
    status: u16,
    body: String,
}

impl Response {
    /// The body as JSON, failing loudly on anything unparseable.
    fn json(&self) -> Json {
        Json::parse(&self.body)
            .unwrap_or_else(|e| fail(&format!("bad response body {:?}: {e}", self.body)))
    }
}

/// The server endpoint plus the optional bearer token.
struct Api {
    addr: String,
    token: Option<String>,
}

impl Api {
    /// Performs one request on a fresh connection (`Connection: close`)
    /// and parses the status line and body.
    fn request(&self, method: &str, path: &str, body: Option<&Json>) -> Response {
        let mut stream =
            connect_retry(&self.addr).unwrap_or_else(|e| fail(&format!("connect: {e}")));
        let payload = body.map(Json::compact).unwrap_or_default();
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n",
            self.addr
        );
        if let Some(token) = &self.token {
            head += &format!("Authorization: Bearer {token}\r\n");
        }
        if !payload.is_empty() {
            head += &format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                payload.len()
            );
        }
        head += "\r\n";
        stream
            .write_all(head.as_bytes())
            .and_then(|()| stream.write_all(payload.as_bytes()))
            .and_then(|()| stream.flush())
            .unwrap_or_else(|e| fail(&format!("send request: {e}")));

        let mut raw = String::new();
        stream
            .read_to_string(&mut raw)
            .unwrap_or_else(|e| fail(&format!("read response: {e}")));
        let (head, body) = raw
            .split_once("\r\n\r\n")
            .unwrap_or_else(|| fail(&format!("no header/body split in {raw:?}")));
        let status_line = head.lines().next().unwrap_or("");
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .unwrap_or_else(|| fail(&format!("bad status line {status_line:?}")));
        Response {
            status,
            body: body.to_string(),
        }
    }

    /// Like [`Api::request`] but failing unless the status is expected.
    /// Failures print the server's unified error object when present.
    fn expect(&self, method: &str, path: &str, body: Option<&Json>, expected: u16) -> Response {
        let response = self.request(method, path, body);
        if response.status != expected {
            if let Some(err) = Json::parse(&response.body).ok().and_then(|b| {
                b.get("error").map(|e| {
                    format!(
                        "[{}] {} (retryable: {})",
                        e.get("code").and_then(Json::as_str).unwrap_or("?"),
                        e.get("message").and_then(Json::as_str).unwrap_or("?"),
                        e.get("retryable").and_then(Json::as_bool).unwrap_or(false),
                    )
                })
            }) {
                fail(&format!(
                    "{method} {path}: expected {expected}, got {}: {err}",
                    response.status
                ));
            }
            fail(&format!(
                "{method} {path}: expected {expected}, got {} with body {:?}",
                response.status, response.body
            ));
        }
        response
    }

    fn submit(&self, job: &Json) -> usize {
        let r = self.expect("POST", "/v1/jobs", Some(job), 201);
        r.json()
            .get("id")
            .and_then(Json::as_usize)
            .unwrap_or_else(|| fail(&format!("submit response lacks an id: {}", r.body)))
    }

    /// Blocks server-side until the job is terminal; returns the body.
    fn wait(&self, id: usize) -> Json {
        self.expect("GET", &format!("/v1/jobs/{id}?wait=true"), None, 200)
            .json()
    }
}

/// Opens a streaming subscription to `GET /v1/events` and returns the
/// socket (read timeout armed, positioned past the response headers)
/// plus whatever stream bytes arrived in the same read as the header
/// block.
fn open_events(api: &Api, query: &str) -> (std::net::TcpStream, String) {
    let mut stream = connect_retry(&api.addr).unwrap_or_else(|e| fail(&format!("connect: {e}")));
    let mut head = format!(
        "GET /v1/events{query} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n",
        api.addr
    );
    if let Some(token) = &api.token {
        head += &format!("Authorization: Bearer {token}\r\n");
    }
    head += "\r\n";
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.flush())
        .unwrap_or_else(|e| fail(&format!("send events request: {e}")));
    stream
        .set_read_timeout(Some(std::time::Duration::from_millis(500)))
        .expect("arm events read timeout");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut raw = Vec::new();
    loop {
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => fail("events stream closed before the headers arrived"),
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => fail(&format!("read events headers: {e}")),
        }
        if let Some(split) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&raw[..split]).into_owned();
            if !head.starts_with("HTTP/1.1 200") {
                fail(&format!("events subscription refused: {head:?}"));
            }
            if !head.to_ascii_lowercase().contains("text/event-stream") {
                fail(&format!("events response is not an SSE stream: {head:?}"));
            }
            let leftover = String::from_utf8_lossy(&raw[split + 4..]).into_owned();
            return (stream, leftover);
        }
        if std::time::Instant::now() >= deadline {
            fail("timed out waiting for the events subscription headers");
        }
    }
}

/// Drains SSE frames off an events subscription, invoking `finished`
/// on each named frame, until it returns true, the server closes the
/// stream, or the deadline passes. Returns every named frame seen, in
/// arrival order. Comment frames (keep-alives) are skipped.
fn read_events(
    mut stream: std::net::TcpStream,
    leftover: String,
    deadline: std::time::Instant,
    mut finished: impl FnMut(&str, &Json) -> bool,
) -> Vec<(String, Json)> {
    let mut buffer = leftover.into_bytes();
    let mut frames: Vec<(String, Json)> = Vec::new();
    loop {
        while let Some(end) = buffer.windows(2).position(|w| w == b"\n\n") {
            let frame: Vec<u8> = buffer.drain(..end + 2).collect();
            let frame = String::from_utf8_lossy(&frame);
            let mut name = None;
            let mut data = None;
            for line in frame.lines() {
                if let Some(rest) = line.strip_prefix("event: ") {
                    name = Some(rest.to_string());
                } else if let Some(rest) = line.strip_prefix("data: ") {
                    data = Json::parse(rest).ok();
                }
            }
            let (Some(name), Some(data)) = (name, data) else {
                continue;
            };
            let hit = finished(&name, &data);
            frames.push((name, data));
            if hit {
                return frames;
            }
        }
        if std::time::Instant::now() >= deadline {
            return frames;
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => return frames,
            Ok(n) => buffer.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => fail(&format!("read events stream: {e}")),
        }
    }
}

/// Percent-encodes everything outside the URL-safe unreserved set, so
/// entity IRIs survive the query string.
fn percent_encode(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for byte in raw.bytes() {
        match byte {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(byte as char)
            }
            _ => out.push_str(&format!("%{byte:02X}")),
        }
    }
    out
}

/// A synthetic job spec in the manifest job schema.
fn synthetic_job(name: &str, dataset: &str, scale: f64) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("dataset", Json::str(dataset)),
        ("scale", Json::Num(scale)),
    ])
}

fn report_status(body: &Json) -> String {
    body.get("report")
        .and_then(|r| r.get("status"))
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string()
}

/// The CI smoke scenario: resolve one job, cancel another mid-run,
/// check metrics, shut down cleanly.
fn smoke(api: &Api) {
    // A small job that must resolve…
    let quick = api.submit(&synthetic_job("smoke-quick", "restaurant", 0.1));
    // …and a heavy one we cancel immediately: still queued (flips
    // without running) or already running (unwinds at the next pipeline
    // checkpoint) — both must end `cancelled` without disturbing the
    // quick job.
    let doomed = api.submit(&synthetic_job("smoke-doomed", "yago", 1.0));
    let r = api
        .expect("DELETE", &format!("/v1/jobs/{doomed}"), None, 200)
        .json();
    let outcome = r.get("outcome").and_then(Json::as_str).unwrap_or("?");
    if !matches!(outcome, "cancelled" | "cancelling") {
        fail(&format!("unexpected cancel outcome {outcome:?}"));
    }
    eprintln!("smoke: cancel acknowledged ({outcome})");

    let body = api.wait(doomed);
    if report_status(&body) != "cancelled" {
        fail(&format!("doomed job ended {:?}", report_status(&body)));
    }
    eprintln!("smoke: doomed job reported cancelled");

    let body = api.wait(quick);
    if report_status(&body) != "ok" {
        fail(&format!("quick job did not resolve: {:?}", body.compact()));
    }
    let matches = body
        .get("report")
        .and_then(|r| r.get("matches"))
        .and_then(Json::as_usize)
        .unwrap_or(0);
    if matches == 0 {
        fail("quick job resolved zero matches");
    }
    eprintln!("smoke: quick job ok with {matches} matches");

    let listing = api.expect("GET", "/v1/jobs", None, 200).json();
    if listing.get("done").and_then(Json::as_usize) != Some(2) {
        fail(&format!(
            "expected 2 terminal jobs, got {}",
            listing.compact()
        ));
    }

    let indexed = index_smoke(api);
    events_smoke(api);

    // The metrics endpoint must be parseable Prometheus text.
    let metrics = api.expect("GET", "/v1/metrics", None, 200);
    let mut seen = 0;
    for line in metrics.body.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let Some((_, value)) = line.rsplit_once(' ') else {
            fail(&format!("metric line without a value: {line:?}"));
        };
        if value.parse::<f64>().is_err() {
            fail(&format!("unparseable metric value: {line:?}"));
        }
        seen += 1;
    }
    if seen == 0
        || !metrics
            .body
            .contains("minoan_jobs_done_total{status=\"cancelled\"} 1")
    {
        fail(&format!("unexpected metrics:\n{}", metrics.body));
    }
    // Every finished pipeline run lands in the stage histograms: the
    // quick job, and the index build when there was one.
    let tokenized = metrics
        .body
        .lines()
        .find_map(|l| l.strip_prefix("minoan_job_stage_seconds_count{stage=\"tokenize\"} "))
        .and_then(|v| v.parse::<f64>().ok());
    let runs = if indexed { 2.0 } else { 1.0 };
    if !tokenized.is_some_and(|n| n >= runs) {
        fail(&format!(
            "expected at least {runs} tokenize observations, got {tokenized:?}"
        ));
    }
    eprintln!("smoke: metrics parse ({seen} samples)");

    api.expect("POST", "/v1/shutdown", None, 200);
    eprintln!("smoke: shutdown acknowledged");
}

/// The index half of the smoke scenario: build an index through the
/// job queue, inspect it, answer a match query from the persisted
/// artifact, reject a duplicate build, delete it. Skipped (with a
/// note, returning `false`) when the server runs without `--index-dir`.
fn index_smoke(api: &Api) -> bool {
    let listing = api.request("GET", "/v1/indexes", None);
    if listing.status == 503 {
        eprintln!("smoke: index serving disabled, skipping the index round-trip");
        return false;
    }
    if listing.status != 200 {
        fail(&format!(
            "GET /v1/indexes: {} {}",
            listing.status, listing.body
        ));
    }
    let job = synthetic_job("smoke-index", "restaurant", 0.1);
    // ?wait=true blocks the 201 until the build job is terminal, so the
    // artifact is on disk when the response arrives.
    let built = api
        .expect("POST", "/v1/indexes?wait=true", Some(&job), 201)
        .json();
    if built.get("index").and_then(Json::as_str) != Some("smoke-index") {
        fail(&format!("unexpected build response {}", built.compact()));
    }
    // Rebuilding an existing index is a conflict, in the unified
    // error schema.
    let dup = api.request("POST", "/v1/indexes", Some(&job));
    let dup_code = dup
        .json()
        .get("error")
        .and_then(|e| e.get("code").and_then(Json::as_str).map(str::to_string));
    if dup.status != 409 || dup_code.as_deref() != Some("conflict") {
        fail(&format!("duplicate build: {} {}", dup.status, dup.body));
    }
    let meta = api
        .expect("GET", "/v1/indexes/smoke-index", None, 200)
        .json();
    if meta.get("matched_pairs").and_then(Json::as_usize) == Some(0) {
        fail(&format!(
            "index metadata reports zero matches: {}",
            meta.compact()
        ));
    }
    // The entity IRI is percent-encoded (`:` → `%3A`), exercising the
    // query decoder; `r1:e0` is the restaurant profile's first entity.
    let answer = api
        .expect(
            "GET",
            "/v1/indexes/smoke-index/match?entity=r1%3Ae0&k=3",
            None,
            200,
        )
        .json();
    if answer.get("side").and_then(Json::as_str) != Some("first") {
        fail(&format!("unexpected match answer {}", answer.compact()));
    }
    let ingest_ms = answer
        .get("stage_timings_ms")
        .and_then(|t| t.get("ingest"))
        .and_then(Json::as_f64);
    if ingest_ms != Some(0.0) {
        fail(&format!(
            "match query reported nonzero ingest time: {}",
            answer.compact()
        ));
    }
    eprintln!(
        "smoke: index round-trip ok ({} candidates, zero ingest)",
        answer
            .get("candidates")
            .map(|c| match c {
                Json::Arr(items) => items.len(),
                _ => 0,
            })
            .unwrap_or(0)
    );
    api.expect("DELETE", "/v1/indexes/smoke-index", None, 200);
    let gone = api.request("GET", "/v1/indexes/smoke-index", None);
    if gone.status != 404 {
        fail(&format!("deleted index still answers: {}", gone.status));
    }
    eprintln!("smoke: index deleted");
    true
}

/// The live-stream half of the smoke scenario: subscribe to
/// `GET /v1/events` first, then submit a job and assert its
/// queued → running → done lifecycle arrives over SSE, in order. The
/// subscription only carries events emitted after it opened, so the
/// ordering check is over exactly this job's transitions.
fn events_smoke(api: &Api) {
    let (stream, leftover) = open_events(api, "?level=info");
    let id = api.submit(&synthetic_job("smoke-events", "restaurant", 0.1));
    let body = api.wait(id);
    if report_status(&body) != "ok" {
        fail(&format!("events job did not resolve: {:?}", body.compact()));
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let frames = read_events(stream, leftover, deadline, |name, data| {
        name == "job.done" && data.get("job").and_then(Json::as_usize) == Some(id)
    });
    let lifecycle: Vec<&str> = frames
        .iter()
        .filter(|(_, data)| data.get("job").and_then(Json::as_usize) == Some(id))
        .map(|(name, _)| name.as_str())
        .collect();
    let mut expected = ["job.queued", "job.running", "job.done"]
        .into_iter()
        .peekable();
    for name in &lifecycle {
        if expected.peek() == Some(name) {
            expected.next();
        }
    }
    if expected.peek().is_some() {
        fail(&format!(
            "SSE lifecycle incomplete for job {id}: saw {lifecycle:?}"
        ));
    }
    eprintln!(
        "smoke: SSE streamed the job lifecycle ({} frames, {} for job {id})",
        frames.len(),
        lifecycle.len()
    );
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: http_client <host:port> [--token T] \
                 (submit <job-json> | jobs | get <id> [--wait] | cancel <id> | \
                 index-build <job-json> [--wait] | indexes | index-get <name> | \
                 index-delete <name> | index-match <name> <iri> [--k N] | \
                 metrics | trace <id> | events [--level L] [--job N] | \
                 shutdown [drain|cancel] | smoke)";
    let mut token = None;
    if let Some(i) = args.iter().position(|a| a == "--token") {
        if i + 1 >= args.len() {
            fail(usage);
        }
        token = Some(args.remove(i + 1));
        args.remove(i);
    }
    let wait = if let Some(i) = args.iter().position(|a| a == "--wait") {
        args.remove(i);
        true
    } else {
        false
    };
    let (Some(addr), Some(mode)) = (args.first(), args.get(1)) else {
        fail(usage);
    };
    let api = Api {
        addr: addr.clone(),
        token,
    };
    match mode.as_str() {
        "smoke" => smoke(&api),
        "jobs" => println!(
            "{}",
            api.expect("GET", "/v1/jobs", None, 200).json().pretty()
        ),
        "metrics" => print!("{}", api.expect("GET", "/v1/metrics", None, 200).body),
        "trace" => {
            let Some(id) = args.get(2).and_then(|v| v.parse::<usize>().ok()) else {
                fail(usage)
            };
            println!(
                "{}",
                api.expect("GET", &format!("/v1/jobs/{id}/trace"), None, 200)
                    .json()
                    .pretty()
            );
        }
        "events" => {
            let mut query = String::new();
            for (flag, key) in [("--level", "level"), ("--job", "job")] {
                if let Some(i) = args.iter().position(|a| a == flag) {
                    let Some(value) = args.get(i + 1) else {
                        fail(usage)
                    };
                    query += if query.is_empty() { "?" } else { "&" };
                    query += &format!("{key}={value}");
                }
            }
            let (stream, leftover) = open_events(&api, &query);
            // Print frames as they arrive until the server closes the
            // stream (e.g. at shutdown) or the process is interrupted.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(86_400);
            read_events(stream, leftover, deadline, |name, data| {
                println!("{name} {}", data.compact());
                false
            });
        }
        "submit" => {
            let Some(job) = args.get(2) else { fail(usage) };
            let job = Json::parse(job).unwrap_or_else(|e| fail(&format!("bad job JSON: {e}")));
            println!("{}", api.submit(&job));
        }
        "get" | "cancel" => {
            let Some(id) = args.get(2).and_then(|v| v.parse::<usize>().ok()) else {
                fail(usage)
            };
            let (method, path) = match mode.as_str() {
                "cancel" => ("DELETE", format!("/v1/jobs/{id}")),
                _ if wait => ("GET", format!("/v1/jobs/{id}?wait=true")),
                _ => ("GET", format!("/v1/jobs/{id}")),
            };
            println!("{}", api.expect(method, &path, None, 200).json().pretty());
        }
        "index-build" => {
            let Some(job) = args.get(2) else { fail(usage) };
            let job = Json::parse(job).unwrap_or_else(|e| fail(&format!("bad job JSON: {e}")));
            let path = if wait {
                "/v1/indexes?wait=true"
            } else {
                "/v1/indexes"
            };
            println!(
                "{}",
                api.expect("POST", path, Some(&job), 201).json().pretty()
            );
        }
        "indexes" => println!(
            "{}",
            api.expect("GET", "/v1/indexes", None, 200).json().pretty()
        ),
        "index-get" | "index-delete" => {
            let Some(name) = args.get(2) else { fail(usage) };
            let method = if mode.as_str() == "index-delete" {
                "DELETE"
            } else {
                "GET"
            };
            println!(
                "{}",
                api.expect(method, &format!("/v1/indexes/{name}"), None, 200)
                    .json()
                    .pretty()
            );
        }
        "index-match" => {
            let (Some(name), Some(iri)) = (args.get(2), args.get(3)) else {
                fail(usage)
            };
            let k = args
                .iter()
                .position(|a| a == "--k")
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(10);
            let path = format!(
                "/v1/indexes/{name}/match?entity={}&k={k}",
                percent_encode(iri)
            );
            println!("{}", api.expect("GET", &path, None, 200).json().pretty());
        }
        "shutdown" => {
            let body = args
                .get(2)
                .map(|mode| Json::obj([("mode", Json::str(mode.clone()))]));
            println!(
                "{}",
                api.expect("POST", "/v1/shutdown", body.as_ref(), 200)
                    .json()
                    .pretty()
            );
        }
        _ => fail(usage),
    }
}
