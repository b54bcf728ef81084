//! Line-JSON is a framing over the HTTP routes: one server with both
//! listeners must answer every op of the translation table exactly as
//! HTTP answers the request the op stands for — the same body with
//! `"ok"` prepended, and on failure the same error object, with a
//! top-level `"retryable":true` exactly when the error says so. (A shed
//! and a closed queue are compared on one in-process queue, in the
//! daemon's unit tests: a live runner drains a backed-up queue, and
//! HTTP handlers stop at shutdown.)
//!
//! One test in its own binary on purpose: `status` carries process-wide
//! telemetry (stage histograms, pool counters), which jobs of a test
//! running alongside would move between the two reads.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use minoaner::kb::Json;
use minoaner::serve::{run_server, Frontends, ServeOptions};

mod common;
use common::{Http, ScratchDir};

/// A line-JSON connection: one frame out, one frame back.
struct Line {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Line {
    fn connect(addr: std::net::SocketAddr) -> Line {
        let stream = TcpStream::connect(addr).expect("connect");
        Line {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, frame: &str) -> Json {
        self.writer
            .write_all(format!("{frame}\n").as_bytes())
            .expect("send frame");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read frame");
        Json::parse(line.trim()).expect("response parses")
    }
}

/// The line answer an HTTP response stands for.
fn enveloped(status: u16, body: &Json) -> Json {
    let Json::Obj(fields) = body.clone() else {
        panic!("HTTP bodies are objects: {body:?}");
    };
    let mut out = vec![("ok".to_string(), Json::Bool(status < 400))];
    let retryable = body.get("error").and_then(|e| e.get("retryable")) == Some(&Json::Bool(true));
    if status >= 400 && retryable {
        out.push(("retryable".to_string(), Json::Bool(true)));
    }
    out.extend(fields);
    Json::Obj(out)
}

fn without(body: &Json, key: &str) -> Json {
    let Json::Obj(fields) = body else {
        panic!("an object: {body:?}");
    };
    Json::Obj(fields.iter().filter(|(k, _)| k != key).cloned().collect())
}

fn json(text: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"))
}

/// Sends `frame` over line-JSON and `request` (`"METHOD /path"`, with
/// `body` unless empty) over HTTP; returns the line answer, the HTTP
/// status and the HTTP body.
fn both(line: &mut Line, http: &Http, frame: &str, request: &str, body: &str) -> (Json, u16, Json) {
    let (method, path) = request.split_once(' ').expect("METHOD /path");
    let body = (!body.is_empty()).then(|| json(body));
    let answer = line.send(frame);
    let raw = http.request(method, path, body.as_ref());
    (answer, raw.status, json(&raw.body))
}

/// Asserts the HTTP status is `status` and the line answer is the
/// enveloped HTTP body.
fn parity(line: &mut Line, http: &Http, frame: &str, request: &str, body: &str, status: u16) {
    let (answer, got, parsed) = both(line, http, frame, request, body);
    assert_eq!(got, status, "{request}: {parsed:?}");
    assert_eq!(answer, enveloped(got, &parsed), "{frame} vs {request}");
}

const JOB: &str = r#"{"name":"p","dataset":"restaurant","seed":20180416,"scale":0.05}"#;
const INDEX: &str = r#"{"name":"ix","dataset":"restaurant","seed":20180416,"scale":0.1}"#;
/// One upsert, on one line: a frame may not span two.
const DELTAS: &str = r#"[{"op":"upsert","side":"first","uri":"new:1","statements":[{"attr":"name","value":"Fresh Arrival"}]}]"#;

/// The scenario, against a server whose listeners are `line` and `http`.
fn scenario(line: &mut Line, http: &Http) {
    // Submits differ only in the id each one is given.
    let submit = format!(r#"{{"op":"submit","job":{JOB}}}"#);
    let (answer, status, body) = both(line, http, &submit, "POST /v1/jobs", JOB);
    assert_eq!(status, 201);
    assert_eq!(answer, json(r#"{"ok":true,"id":0,"name":"p"}"#));
    assert_eq!(body, json(r#"{"id":1,"name":"p"}"#));

    let bad = r#"{"name":"x"}"#;
    let wide = r#"{"name":"w","dataset":"rexa","k":129}"#;
    let nope_patch = format!(r#"{{"op":"index-patch","index":"nope","deltas":{DELTAS}}}"#);
    let deltas = format!(r#"{{"deltas":{DELTAS}}}"#);
    #[rustfmt::skip]
    let cases: [(&str, &str, &str, u16); 22] = [
        // Bad jobs.
        (r#"{"op":"submit","job":{"name":"x"}}"#, "POST /v1/jobs", bad, 400),
        (r#"{"op":"submit","job":{"name":"w","dataset":"rexa","k":129}}"#, "POST /v1/jobs", wide, 400),
        // Jobs, known and unknown.
        (r#"{"op":"wait","id":0}"#, "GET /v1/jobs/0?wait=true", "", 200),
        (r#"{"op":"wait","id":1}"#, "GET /v1/jobs/1?wait=true", "", 200),
        (r#"{"op":"wait","id":99}"#, "GET /v1/jobs/99?wait=true", "", 404),
        (r#"{"op":"status"}"#, "GET /v1/jobs", "", 200),
        (r#"{"op":"status","id":1}"#, "GET /v1/jobs?id=1", "", 200),
        (r#"{"op":"status","status":"ok","limit":1}"#, "GET /v1/jobs?status=ok&limit=1", "", 200),
        (r#"{"op":"status","id":99}"#, "GET /v1/jobs?id=99", "", 400),
        (r#"{"op":"status","status":"nope"}"#, "GET /v1/jobs?status=nope", "", 400),
        (r#"{"op":"trace","id":0}"#, "GET /v1/jobs/0/trace", "", 200),
        (r#"{"op":"trace","id":99}"#, "GET /v1/jobs/99/trace", "", 404),
        (r#"{"op":"cancel","id":0}"#, "DELETE /v1/jobs/0", "", 200),
        (r#"{"op":"cancel","id":99}"#, "DELETE /v1/jobs/99", "", 404),
        // Indexes, before any exists.
        (r#"{"op":"index-list"}"#, "GET /v1/indexes", "", 200),
        (r#"{"op":"index-inspect","index":"nope"}"#, "GET /v1/indexes/nope", "", 404),
        (r#"{"op":"index-inspect","index":".dot"}"#, "GET /v1/indexes/.dot", "", 400),
        (r#"{"op":"index-delete","index":"nope"}"#, "DELETE /v1/indexes/nope", "", 404),
        (r#"{"op":"index-match","index":"nope","entity":"r1:e0"}"#, "GET /v1/indexes/nope/match?entity=r1%3Ae0", "", 404),
        (&nope_patch, "PATCH /v1/indexes/nope", &deltas, 404),
        (r#"{"op":"index-build","job":{"name":"x"}}"#, "POST /v1/indexes", bad, 400),
        (r#"{"op":"shutdown","mode":"x"}"#, "POST /v1/shutdown", r#"{"mode":"x"}"#, 400),
    ];
    for (frame, request, body, status) in cases {
        parity(line, http, frame, request, body, status);
    }

    // A malformed id, index id or `k` is a bad request on the line,
    // never an unknown path.
    for frame in [
        r#"{"op":"wait","id":"x"}"#,
        r#"{"op":"trace","id":-1}"#,
        r#"{"op":"index-inspect","index":"a/b"}"#,
        r#"{"op":"index-match","index":"ix","entity":"r1:e0","k":-1}"#,
    ] {
        let answer = line.send(frame);
        let code = answer.get("error").and_then(|e| e.get("code"));
        assert_eq!(code.and_then(Json::as_str), Some("bad_request"), "{frame}");
    }

    // Build an index over the line; building it again conflicts on
    // both framings.
    let build = format!(r#"{{"op":"index-build","job":{INDEX}}}"#);
    assert_eq!(
        line.send(&build),
        json(r#"{"ok":true,"job":2,"index":"ix"}"#)
    );
    parity(
        line,
        http,
        r#"{"op":"wait","id":2}"#,
        "GET /v1/jobs/2?wait=true",
        "",
        200,
    );
    parity(line, http, &build, "POST /v1/indexes", INDEX, 409);

    let match_path = "GET /v1/indexes/ix/match?entity=r1%3Ae0";
    for (frame, request, status) in [
        (r#"{"op":"index-list"}"#, "GET /v1/indexes".to_string(), 200),
        (
            r#"{"op":"index-inspect","index":"ix"}"#,
            "GET /v1/indexes/ix".into(),
            200,
        ),
        (
            r#"{"op":"index-match","index":"ix","entity":"r1:e0","k":0}"#,
            format!("{match_path}&k=0"),
            400,
        ),
        (
            r#"{"op":"index-match","index":"ix","entity":"r1:e0","k":129}"#,
            format!("{match_path}&k=129"),
            400,
        ),
        (
            r#"{"op":"index-match","index":"ix","entity":"zz:none"}"#,
            "GET /v1/indexes/ix/match?entity=zz%3Anone".into(),
            404,
        ),
    ] {
        parity(line, http, frame, &request, "", status);
    }
    // A match answer carries its own load and query clocks.
    let frame = r#"{"op":"index-match","index":"ix","entity":"r1:e0","k":5}"#;
    let (answer, status, body) = both(line, http, frame, &format!("{match_path}&k=5"), "");
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(
        without(&answer, "stage_timings_ms"),
        without(&enveloped(status, &body), "stage_timings_ms")
    );

    // Patches: malformed streams, then one over each framing.
    for bad in ["[]", "5"] {
        let frame = format!(r#"{{"op":"index-patch","index":"ix","deltas":{bad}}}"#);
        let body = format!(r#"{{"deltas":{bad}}}"#);
        parity(line, http, &frame, "PATCH /v1/indexes/ix", &body, 400);
    }
    let patch = format!(r#"{{"op":"index-patch","index":"ix","deltas":{DELTAS}}}"#);
    assert_eq!(
        line.send(&patch),
        json(r#"{"ok":true,"job":3,"index":"ix"}"#)
    );
    parity(
        line,
        http,
        r#"{"op":"wait","id":3}"#,
        "GET /v1/jobs/3?wait=true",
        "",
        200,
    );
    let raw = http.request("PATCH", "/v1/indexes/ix", Some(&json(&deltas)));
    assert_eq!(raw.status, 202, "{}", raw.body);
    assert_eq!(raw.body, r#"{"job":4,"index":"ix"}"#);
    parity(
        line,
        http,
        r#"{"op":"wait","id":4}"#,
        "GET /v1/jobs/4?wait=true",
        "",
        200,
    );

    // Delete over the line; then neither framing finds the index.
    let delete = r#"{"op":"index-delete","index":"ix"}"#;
    assert_eq!(
        line.send(delete),
        json(r#"{"ok":true,"index":"ix","deleted":true}"#)
    );
    parity(line, http, delete, "DELETE /v1/indexes/ix", "", 404);
}

#[test]
fn every_line_op_answers_like_the_http_request_it_stands_for() {
    let dir = ScratchDir::new("parity");
    let line_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let http_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let line_addr = line_listener.local_addr().unwrap();
    let http = Http {
        addr: http_listener.local_addr().unwrap(),
        token: None,
    };
    let opts = ServeOptions {
        slots: 2,
        index_dir: Some(dir.0.clone()),
        ..ServeOptions::default()
    };
    let frontends = Frontends {
        line: Some(line_listener),
        http: Some(http_listener),
    };
    let report = std::thread::scope(|scope| {
        let server = scope.spawn(|| run_server(frontends, &opts, |_| {}).unwrap());
        // A failed assertion still stops the server, so the scope can
        // join it and the failure reports instead of hanging.
        let outcome = std::panic::catch_unwind(|| scenario(&mut Line::connect(line_addr), &http));
        let stopped = Line::connect(line_addr).send(r#"{"op":"shutdown"}"#);
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
        assert_eq!(
            stopped,
            json(r#"{"ok":true,"shutting_down":true,"mode":"drain"}"#)
        );
        server.join().unwrap()
    });
    assert_eq!(report.jobs.len(), 5);
}
