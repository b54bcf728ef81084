//! The exact bytes of every error class the endpoint table lists: the
//! status line, the header set and the body, each request routed by
//! [`route`] and serialized by [`write_response`] as a connection
//! handler would write it (errors close the connection), plus the raw
//! over-capacity `503` the accept loop writes before reading anything.

use std::io::Read as _;
use std::net::TcpListener;
use std::path::PathBuf;

use minoan_core::{IndexArtifact, MinoanEr};
use minoan_exec::Executor;
use minoan_kb::{KbBuilder, KbPair};

use super::*;

/// An index directory holding `demo` (a real artifact over `a:1`/`b:1`)
/// and `bad` (a file that is not an artifact), removed on drop.
struct Indexes {
    registry: IndexRegistry,
    dir: PathBuf,
}

impl Indexes {
    fn new(tag: &str) -> Indexes {
        let dir =
            std::env::temp_dir().join(format!("minoan-wire-pin-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = IndexRegistry::open(&dir, None).unwrap();
        let mut a = KbBuilder::new("E1");
        a.add_literal("a:1", "name", "Minos of Knossos");
        let mut b = KbBuilder::new("E2");
        b.add_literal("b:1", "label", "Knossos Minos");
        let pair = KbPair::new(a.finish(), b.finish());
        let matcher = MinoanEr::with_defaults();
        let indexed = matcher
            .run_cancellable_indexed(&pair, &Executor::sequential(), &CancelToken::new())
            .unwrap();
        IndexArtifact::from_run("demo", &pair, indexed, matcher.config())
            .write_to(&registry.path_for("demo").unwrap())
            .unwrap();
        std::fs::write(registry.path_for("bad").unwrap(), b"garbage").unwrap();
        Indexes { registry, dir }
    }
}

impl Drop for Indexes {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A request as the connection reader would parse it (no percent
/// escapes in these targets).
fn request(method: &str, target: &str, body: &str) -> Request {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let query = query
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            (key.to_string(), value.to_string())
        })
        .collect();
    Request {
        method: method.to_string(),
        path: path.to_string(),
        query,
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

/// Routes one request and returns the bytes written for it.
fn wire(
    queue: &JobQueue,
    options: &HttpOptions,
    registry: Option<&IndexRegistry>,
    method: &str,
    target: &str,
    body: &str,
) -> String {
    let response = route(
        &request(method, target, body),
        queue,
        &CancelToken::new(),
        options,
        registry,
    );
    let mut out = Vec::new();
    write_response(&mut out, &response, true).unwrap();
    String::from_utf8(out).unwrap()
}

/// The bytes of a JSON error response: status line, content type and
/// length, `extra` headers in order, `Connection: close`, body.
fn expected(status_line: &str, extra: &[&str], body: &str) -> String {
    let mut out = format!(
        "HTTP/1.1 {status_line}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        body.len()
    );
    for header in extra {
        out += header;
        out += "\r\n";
    }
    out + "Connection: close\r\n\r\n" + body
}

/// One routed case: method, target and body, then the status line,
/// extra headers and error body it must be answered with.
type Case = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    &'static [&'static str],
    &'static str,
);

const JOB: &str = r#"{"name":"fresh","dataset":"restaurant","scale":0.05}"#;
const DELTAS: &str = r#"{"deltas":[{"op":"upsert","side":"first","uri":"a:1","statements":[{"attr":"name","value":"Minos"}]}]}"#;

#[test]
fn bad_requests_not_found_and_wrong_methods() {
    let indexes = Indexes::new("client");
    let registry = Some(&indexes.registry);
    let queue = JobQueue::new(1, 0);
    let options = HttpOptions::default();
    let cases: [Case; 13] = [
        (
            "POST",
            "/v1/jobs",
            "not json",
            "400 Bad Request",
            &[],
            r#"{"error":{"code":"bad_request","message":"bad job body: expected \"null\" at byte 0","retryable":false}}"#,
        ),
        (
            "GET",
            "/v1/indexes/demo/match?entity=a:1&k=abc",
            "",
            "400 Bad Request",
            &[],
            r#"{"error":{"code":"bad_request","message":"k must be a positive integer, got \"abc\"","retryable":false}}"#,
        ),
        (
            "GET",
            "/v1/indexes/demo/match?entity=a:1&k=129",
            "",
            "400 Bad Request",
            &[],
            r#"{"error":{"code":"bad_request","message":"`k` must be at most 128, got 129","retryable":false}}"#,
        ),
        (
            "GET",
            "/v1/jobs?status=exploded",
            "",
            "400 Bad Request",
            &[],
            r#"{"error":{"code":"bad_request","message":"unknown status filter \"exploded\" (expected one of queued|running|done|ok|failed|cancelled|timed_out|poisoned|killed_over_budget)","retryable":false}}"#,
        ),
        (
            "GET",
            "/v1/jobs/banana",
            "",
            "400 Bad Request",
            &[],
            r#"{"error":{"code":"bad_request","message":"job id must be a non-negative integer, got \"banana\"","retryable":false}}"#,
        ),
        (
            "GET",
            "/v1/indexes/.hidden",
            "",
            "400 Bad Request",
            &[],
            r#"{"error":{"code":"bad_request","message":"invalid index id (use [A-Za-z0-9._-], not starting with '.', at most 120 bytes)","retryable":false}}"#,
        ),
        (
            "PATCH",
            "/v1/indexes/demo",
            r#"{"deltas":[]}"#,
            "400 Bad Request",
            &[],
            r#"{"error":{"code":"bad_request","message":"bad delta stream: 'deltas' must contain at least one op","retryable":false}}"#,
        ),
        (
            "GET",
            "/v1/jobs/9",
            "",
            "404 Not Found",
            &[],
            r#"{"error":{"code":"not_found","message":"unknown job id 9","retryable":false}}"#,
        ),
        (
            "GET",
            "/v1/indexes/nope",
            "",
            "404 Not Found",
            &[],
            r#"{"error":{"code":"not_found","message":"no such index","retryable":false}}"#,
        ),
        (
            "GET",
            "/v1/indexes/demo/match?entity=zz",
            "",
            "404 Not Found",
            &[],
            r#"{"error":{"code":"not_found","message":"entity \"zz\" is in neither KB of index \"demo\"","retryable":false}}"#,
        ),
        (
            "GET",
            "/v1/nope",
            "",
            "404 Not Found",
            &[],
            r#"{"error":{"code":"not_found","message":"no such endpoint /v1/nope","retryable":false}}"#,
        ),
        (
            "PUT",
            "/v1/jobs",
            "",
            "405 Method Not Allowed",
            &["Allow: GET, POST"],
            r#"{"error":{"code":"method_not_allowed","message":"method not allowed; allowed: GET, POST","retryable":false}}"#,
        ),
        (
            "POST",
            "/v1/indexes/demo/match",
            "",
            "405 Method Not Allowed",
            &["Allow: GET"],
            r#"{"error":{"code":"method_not_allowed","message":"method not allowed; allowed: GET","retryable":false}}"#,
        ),
    ];
    for (method, target, body, status_line, extra, error) in cases {
        assert_eq!(
            wire(&queue, &options, registry, method, target, body),
            expected(status_line, extra, error),
            "{method} {target}"
        );
    }
}

#[test]
fn missing_token_is_unauthorized_with_a_challenge() {
    let queue = JobQueue::new(1, 0);
    let options = HttpOptions {
        auth_token: Some("secret".into()),
        ..HttpOptions::default()
    };
    assert_eq!(
        wire(&queue, &options, None, "GET", "/v1/jobs", ""),
        expected(
            "401 Unauthorized",
            &["WWW-Authenticate: Bearer"],
            r#"{"error":{"code":"unauthorized","message":"missing or invalid bearer token","retryable":false}}"#,
        )
    );
}

#[test]
fn conflicts_with_server_state() {
    let indexes = Indexes::new("conflict");
    let registry = Some(&indexes.registry);
    let queue = JobQueue::new(1, 0);
    let options = HttpOptions::default();
    let demo = r#"{"name":"demo","dataset":"restaurant","scale":0.05}"#;
    assert_eq!(
        wire(&queue, &options, registry, "POST", "/v1/indexes", demo),
        expected(
            "409 Conflict",
            &[],
            r#"{"error":{"code":"conflict","message":"index \"demo\" already exists; DELETE it first to rebuild","retryable":false}}"#,
        )
    );
    // No worker runs this queue, so the first patch stays in flight.
    let first = wire(
        &queue,
        &options,
        registry,
        "PATCH",
        "/v1/indexes/demo",
        DELTAS,
    );
    assert!(first.starts_with("HTTP/1.1 202 Accepted\r\n"), "{first}");
    assert_eq!(
        wire(
            &queue,
            &options,
            registry,
            "PATCH",
            "/v1/indexes/demo",
            DELTAS
        ),
        expected(
            "409 Conflict",
            &[],
            r#"{"error":{"code":"conflict","message":"a patch for index \"demo\" is already queued or running; wait for it first","retryable":false}}"#,
        )
    );
    queue.close();
    let closed = expected(
        "409 Conflict",
        &[],
        r#"{"error":{"code":"conflict","message":"queue is closed to new submissions","retryable":false}}"#,
    );
    for path in ["/v1/jobs", "/v1/indexes"] {
        assert_eq!(
            wire(&queue, &options, registry, "POST", path, JOB),
            closed,
            "POST {path}"
        );
    }
}

#[test]
fn shed_submissions_are_retryable_with_retry_after() {
    let indexes = Indexes::new("shed");
    let registry = Some(&indexes.registry);
    let queue = JobQueue::new(1, 0).with_shed_limits(1, 0);
    let options = HttpOptions::default();
    let admitted = wire(&queue, &options, registry, "POST", "/v1/jobs", JOB);
    assert!(
        admitted.starts_with("HTTP/1.1 201 Created\r\n"),
        "{admitted}"
    );
    let shed = expected(
        "429 Too Many Requests",
        &["Retry-After: 1"],
        r#"{"error":{"code":"overloaded","message":"overloaded: 1 jobs pending (high-water mark 1)","retryable":true}}"#,
    );
    for (method, path, body) in [
        ("POST", "/v1/jobs", JOB),
        ("POST", "/v1/indexes", JOB),
        ("PATCH", "/v1/indexes/demo", DELTAS),
    ] {
        assert_eq!(
            wire(&queue, &options, registry, method, path, body),
            shed,
            "{method} {path}"
        );
    }
}

#[test]
fn unavailable_indexes_are_not_retryable() {
    let queue = JobQueue::new(1, 0);
    let options = HttpOptions::default();
    let disabled = expected(
        "503 Service Unavailable",
        &[],
        r#"{"error":{"code":"unavailable","message":"index serving is disabled (start the server with --index-dir)","retryable":false}}"#,
    );
    for (method, target, body) in [
        ("GET", "/v1/indexes", ""),
        ("POST", "/v1/indexes", JOB),
        ("GET", "/v1/indexes/demo", ""),
        ("DELETE", "/v1/indexes/demo", ""),
        ("PATCH", "/v1/indexes/demo", DELTAS),
        ("GET", "/v1/indexes/demo/match?entity=a:1", ""),
    ] {
        assert_eq!(
            wire(&queue, &options, None, method, target, body),
            disabled,
            "{method} {target}"
        );
    }
    let indexes = Indexes::new("corrupt");
    let corrupt = expected(
        "503 Service Unavailable",
        &[],
        r#"{"error":{"code":"unavailable","message":"cannot load index: artifact truncated: need 16 bytes, have 7","retryable":false}}"#,
    );
    for target in ["/v1/indexes/bad", "/v1/indexes/bad/match?entity=a:1"] {
        assert_eq!(
            wire(&queue, &options, Some(&indexes.registry), "GET", target, ""),
            corrupt,
            "GET {target}"
        );
    }
}

#[test]
fn over_capacity_connection_gets_a_raw_retryable_503() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (server, _) = listener.accept().unwrap();
    reject_over_capacity(server);
    let mut raw = String::new();
    client.read_to_string(&mut raw).unwrap();
    assert_eq!(
        raw,
        expected(
            "503 Service Unavailable",
            &["Retry-After: 1"],
            r#"{"error":{"code":"unavailable","message":"connection limit reached; retry shortly","retryable":true}}"#,
        )
    );
}
