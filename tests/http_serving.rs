//! HTTP front-end integration tests: jobs submitted over `POST
//! /v1/jobs` must be **bit-identical** to `minoaner batch` and solo
//! sequential runs ([`JobReport::fingerprint`]); `GET /v1/metrics` must
//! be parseable Prometheus text; and oversized, malformed or
//! unauthenticated requests must get clean `4xx` responses — never a
//! panic, a wedged accept loop, or any disturbance to running jobs.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use minoaner::core::IndexArtifact;
use minoaner::datagen::DatasetKind;
use minoaner::exec::ExecutorKind;
use minoaner::kb::Json;
use minoaner::serve::{
    run_batch, run_server, Frontends, IndexRegistry, JobInput, JobSpec, JobStatus, Manifest,
    ServeOptions,
};

mod common;
use common::{with_server, Http, Raw};

fn serve_opts() -> ServeOptions {
    ServeOptions {
        slots: 2,
        ..ServeOptions::default()
    }
}

fn synthetic_spec(name: &str, kind: DatasetKind, scale: f64) -> JobSpec {
    JobSpec {
        name: name.into(),
        input: JobInput::Synthetic {
            kind,
            seed: 20180416,
            scale,
        },
        truth: None,
        theta: None,
        candidates_k: None,
        purge_blocks: None,
        timeout_ms: None,
        max_retries: None,
        persist: None,
    }
}

fn profile_name(kind: DatasetKind) -> &'static str {
    match kind {
        DatasetKind::Restaurant => "restaurant",
        DatasetKind::RexaDblp => "rexa",
        DatasetKind::BbcDbpedia => "bbc",
        DatasetKind::YagoImdb => "yago",
    }
}

#[test]
fn http_jobs_are_bit_identical_to_batch_and_solo_runs() {
    let (report, fingerprints) = with_server(serve_opts(), |http| {
        let ids: Vec<(usize, DatasetKind)> = DatasetKind::ALL
            .into_iter()
            .map(|kind| {
                (
                    http.submit(profile_name(kind), profile_name(kind), 0.08),
                    kind,
                )
            })
            .collect();
        let fps: Vec<String> = ids
            .into_iter()
            .map(|(id, kind)| {
                let (fp, status) = http.wait(id);
                assert_eq!(status, "ok", "{kind:?} failed over HTTP");
                fp
            })
            .collect();
        http.shutdown();
        fps
    });

    // The server's final fleet report carries the same fingerprints in
    // submission order.
    assert_eq!(report.jobs.len(), 4);
    for (fp, job) in fingerprints.iter().zip(&report.jobs) {
        assert_eq!(*fp, job.fingerprint(), "{}: wait vs report", job.name);
    }

    // Batch path: the same jobs as a manifest fleet.
    let manifest = Manifest {
        jobs: DatasetKind::ALL
            .into_iter()
            .map(|kind| synthetic_spec(profile_name(kind), kind, 0.08))
            .collect(),
    };
    let batch = run_batch(&manifest, &ServeOptions::default());

    // Solo path: each job alone on a sequential executor.
    for (i, kind) in DatasetKind::ALL.into_iter().enumerate() {
        let solo = run_batch(
            &Manifest {
                jobs: vec![synthetic_spec(profile_name(kind), kind, 0.08)],
            },
            &ServeOptions {
                slots: 1,
                executor: ExecutorKind::Sequential,
                ..ServeOptions::default()
            },
        );
        assert_eq!(
            fingerprints[i],
            batch.jobs[i].fingerprint(),
            "{kind:?}: HTTP vs batch"
        );
        assert_eq!(
            fingerprints[i],
            solo.jobs[0].fingerprint(),
            "{kind:?}: HTTP vs solo sequential"
        );
    }
}

#[test]
fn cancelling_a_running_job_over_http_spares_the_fleet() {
    let (report, ()) = with_server(serve_opts(), |http| {
        let doomed = http.submit("doomed", "yago", 1.0);
        let quick = http.submit("quick", "restaurant", 0.1);
        http.await_phase(doomed, "running");
        let r = http.json("DELETE", &format!("/v1/jobs/{doomed}"), None, 200);
        assert_eq!(
            r.get("outcome").and_then(Json::as_str),
            Some("cancelling"),
            "the job was running, so the cancel must take the mid-run path"
        );
        let (_, status) = http.wait(doomed);
        assert_eq!(status, "cancelled", "running job unwound at a checkpoint");
        let (_, status) = http.wait(quick);
        assert_eq!(status, "ok", "other in-flight jobs are unaffected");
        http.shutdown();
    });
    assert_eq!(report.jobs.len(), 2);
    assert_eq!(report.jobs[0].status, JobStatus::Cancelled);
    assert!(report.jobs[1].status.is_ok());
    assert!(report.jobs[0].matches.is_empty(), "no partial output");
}

#[test]
fn the_job_list_narrows_to_one_id() {
    with_server(serve_opts(), |http| {
        let first = http.submit("first", "restaurant", 0.05);
        let second = http.submit("second", "restaurant", 0.05);
        http.wait(first);
        http.wait(second);
        let r = http.json("GET", &format!("/v1/jobs?id={second}"), None, 200);
        let Some(Json::Arr(jobs)) = r.get("jobs") else {
            panic!("a job list: {r:?}");
        };
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].get("id").and_then(Json::as_usize), Some(second));
        assert_eq!(jobs[0].get("name").and_then(Json::as_str), Some("second"));
        // The counts stay fleet-wide.
        assert_eq!(r.get("done").and_then(Json::as_usize), Some(2));
        for (query, needle) in [
            ("id=99", "unknown job id 99"),
            ("id=x", "id must be a non-negative integer"),
        ] {
            let r = http.json("GET", &format!("/v1/jobs?{query}"), None, 400);
            let error = r.get("error").expect("unified error body");
            assert_eq!(
                error.get("code").and_then(Json::as_str),
                Some("bad_request")
            );
            let message = error.get("message").and_then(Json::as_str).unwrap();
            assert!(message.contains(needle), "{query}: {message}");
        }
        http.shutdown();
    });
}

#[test]
fn metrics_are_parseable_prometheus_text() {
    let (_, ()) = with_server(serve_opts(), |http| {
        let id = http.submit("one", "restaurant", 0.05);
        let (_, status) = http.wait(id);
        assert_eq!(status, "ok");
        let r = http.request("GET", "/v1/metrics", None);
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(
            r.head.contains("Content-Type: text/plain; version=0.0.4"),
            "{}",
            r.head
        );
        // Every non-comment line is `name[{labels}] value` with a
        // numeric value; the counts reflect the finished job.
        let mut samples = 0;
        for line in r.body.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (name, value) = line
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("metric line without value: {line:?}"));
            assert!(name.starts_with("minoan_"), "{line}");
            assert!(value.parse::<f64>().is_ok(), "unparseable value: {line}");
            samples += 1;
        }
        assert!(samples >= 15, "suspiciously few samples:\n{}", r.body);
        for needle in [
            "minoan_jobs_queued 0",
            "minoan_jobs_running 0",
            "minoan_jobs_done_total{status=\"ok\"} 1",
            "minoan_jobs_done_total{status=\"failed\"} 0",
            "minoan_threads_in_use 0",
            "minoan_job_stage_seconds_sum{stage=\"matching\"}",
            "minoan_estimated_bytes_total",
            // The job's waves ran on the process-wide pool.
            "minoan_pool_workers",
            "minoan_pool_queued_tasks",
            "minoan_pool_injected_total",
            "minoan_pool_tasks_total",
            "minoan_pool_worker_tasks_total{worker=\"0\"}",
        ] {
            assert!(r.body.contains(needle), "missing {needle:?}:\n{}", r.body);
        }
        // Slots clamp to the cores; the fleet has no thread budget.
        let slots = 2.min(minoaner::exec::pool::default_workers());
        assert!(r.body.contains(&format!("minoan_fleet_slots {slots}\n")));
        assert!(!r.body.contains("minoan_threads_budget"), "{}", r.body);
        // One queue, nothing to steal: the steal counter is gone.
        assert!(!r.body.contains("minoan_pool_steals_total"), "{}", r.body);
        let jobs = http.json("GET", "/v1/jobs", None, 200);
        let pool = jobs
            .get("telemetry")
            .and_then(|t| t.get("pool"))
            .unwrap_or_else(|| panic!("no telemetry.pool: {jobs:?}"));
        for key in ["workers", "injected", "tasks_total"] {
            assert!(
                pool.get(key).and_then(Json::as_f64).is_some(),
                "telemetry.pool.{key} missing: {pool:?}"
            );
        }
        assert!(pool.get("steals").is_none(), "{pool:?}");
        http.shutdown();
    });
}

#[test]
fn auth_rejects_missing_and_wrong_tokens_without_disturbing_jobs() {
    let opts = ServeOptions {
        auth_token: Some("sesame-open".into()),
        ..serve_opts()
    };
    let (report, ()) = with_server(opts, |anon| {
        let authed = Http {
            addr: anon.addr,
            token: Some("sesame-open"),
        };
        // A job submitted with the right token…
        let id = authed.submit("guarded", "restaurant", 0.1);
        // …survives a barrage of unauthenticated and wrong-token
        // requests, all of which get 401 + WWW-Authenticate.
        for (client, what) in [
            (anon, "missing token"),
            (
                &Http {
                    addr: anon.addr,
                    token: Some("sesame-close"),
                },
                "wrong token",
            ),
            (
                &Http {
                    addr: anon.addr,
                    token: Some("sesame-ope"),
                },
                "prefix token",
            ),
        ] {
            for (method, path) in [
                ("GET", "/v1/jobs"),
                ("POST", "/v1/jobs"),
                ("GET", "/v1/metrics"),
                ("DELETE", "/v1/jobs/0"),
                ("POST", "/v1/shutdown"),
            ] {
                let r = client.request(method, path, None);
                assert_eq!(r.status, 401, "{what}: {method} {path} -> {}", r.body);
                assert!(
                    r.head.contains("WWW-Authenticate: Bearer"),
                    "{what}: {}",
                    r.head
                );
            }
        }
        let (_, status) = authed.wait(id);
        assert_eq!(status, "ok", "running job undisturbed by 401 traffic");
        authed.shutdown();
    });
    assert_eq!(report.jobs.len(), 1);
    assert!(report.jobs[0].status.is_ok());
}

#[test]
fn oversized_and_malformed_requests_get_clean_errors() {
    let (report, ()) = with_server(serve_opts(), |http| {
        // A running job that every malformed request must leave alone.
        let id = http.submit("survivor", "restaurant", 0.15);

        // Request line over the limit -> 431.
        let long_path = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(10_000));
        assert_eq!(http.raw(long_path.as_bytes(), false).status, 431);

        // One huge header line -> 431.
        let big_header = format!(
            "GET /v1/jobs HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "y".repeat(10_000)
        );
        assert_eq!(http.raw(big_header.as_bytes(), false).status, 431);

        // Too many header fields -> 431.
        let mut many = String::from("GET /v1/jobs HTTP/1.1\r\n");
        for i in 0..70 {
            many += &format!("X-H{i}: v\r\n");
        }
        many += "\r\n";
        assert_eq!(http.raw(many.as_bytes(), false).status, 431);

        // Header section over the total limit (each line under the
        // per-line limit) -> 431.
        let mut fat = String::from("GET /v1/jobs HTTP/1.1\r\n");
        for i in 0..6 {
            fat += &format!("X-Fat{i}: {}\r\n", "z".repeat(7_000));
        }
        fat += "\r\n";
        assert_eq!(http.raw(fat.as_bytes(), false).status, 431);

        // Declared body over the limit -> 413, before any body bytes.
        let big_body = "POST /v1/jobs HTTP/1.1\r\nContent-Length: 9000000\r\n\r\n";
        assert_eq!(http.raw(big_body.as_bytes(), false).status, 413);

        // Unparseable content-length -> 400.
        let bad_len = "POST /v1/jobs HTTP/1.1\r\nContent-Length: abc\r\n\r\n";
        assert_eq!(http.raw(bad_len.as_bytes(), false).status, 400);

        // Two content-length fields, or a signed one -> 400 and close:
        // a proxy could frame the body by the other reading.
        let twice = "GET /v1/metrics HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 5\r\n\r\n";
        let r = http.raw(twice.as_bytes(), false);
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(
            r.body.contains("more than one content-length"),
            "{}",
            r.body
        );
        assert!(r.head.contains("Connection: close"), "{}", r.head);
        let signed = "GET /v1/metrics HTTP/1.1\r\nContent-Length: +0\r\n\r\n";
        let r = http.raw(signed.as_bytes(), false);
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.body.contains("not a valid length"), "{}", r.body);

        // Truncated request line (client gave up mid-request) -> 400.
        assert_eq!(http.raw(b"GET /v1/jo", true).status, 400);

        // Body shorter than declared -> 400.
        let short_body = "POST /v1/jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"na";
        assert_eq!(http.raw(short_body.as_bytes(), true).status, 400);

        // Garbled request line -> 400.
        assert_eq!(http.raw(b"ONE-WORD\r\n\r\n", false).status, 400);

        // Unsupported HTTP version -> 505; chunked bodies -> 501.
        assert_eq!(
            http.raw(b"GET /v1/jobs HTTP/2.0\r\n\r\n", false).status,
            505
        );
        let chunked = "POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert_eq!(http.raw(chunked.as_bytes(), false).status, 501);

        // Bad JSON and invalid UTF-8 bodies -> 400 with a message.
        let r = http.request("POST", "/v1/jobs", Some(&Json::str("not an object")));
        assert_eq!(r.status, 400, "{}", r.body);
        // Read in full, so the 400 keeps the connection unless asked.
        let mut invalid =
            b"POST /v1/jobs HTTP/1.1\r\nConnection: close\r\nContent-Length: 4\r\n\r\n".to_vec();
        invalid.extend_from_slice(&[0xff, 0xfe, 0xfd, 0xfc]);
        let r = http.raw(&invalid, false);
        assert_eq!(r.status, 400);
        assert!(r.body.contains("invalid UTF-8"), "{}", r.body);
        // A job whose K runs past the longest row the index keeps -> 400.
        let wide = Json::parse(r#"{"name":"wide","dataset":"restaurant","scale":0.05,"k":129}"#);
        let r = http.request("POST", "/v1/jobs", Some(&wide.unwrap()));
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(
            r.body.contains("k must be in 1..=128, got 129"),
            "{}",
            r.body
        );

        // Bad job ids, unknown ids, unknown paths, wrong methods.
        let r = http.request("GET", "/v1/jobs/banana", None);
        assert_eq!(r.status, 400, "{}", r.body);
        assert_eq!(http.request("GET", "/v1/jobs/99", None).status, 404);
        assert_eq!(http.request("DELETE", "/v1/jobs/99", None).status, 404);
        assert_eq!(http.request("GET", "/nope", None).status, 404);
        let r = http.request("PUT", "/v1/jobs", None);
        assert_eq!(r.status, 405, "{}", r.body);
        assert!(r.head.contains("Allow: GET, POST"), "{}", r.head);
        assert_eq!(http.request("DELETE", "/v1/metrics", None).status, 405);
        assert_eq!(http.request("GET", "/v1/shutdown", None).status, 405);

        // After all of that, the accept loop still serves and the job
        // still resolves.
        let (_, status) = http.wait(id);
        assert_eq!(status, "ok", "malformed traffic disturbed a running job");
        http.shutdown();
    });
    assert_eq!(report.jobs.len(), 1);
    assert!(report.jobs[0].status.is_ok());
}

/// The SSE tests share the process-global trace collector with every
/// other test in this binary, so the two of them must not run at the
/// same time: the flood test deliberately saturates subscribers, and a
/// concurrently-subscribed lifecycle test would be collateral damage.
static SSE_SERIAL: Mutex<()> = Mutex::new(());

/// A test-side `GET /v1/events` subscription: request sent, response
/// headers checked and consumed, frames read on demand.
struct Sse {
    stream: TcpStream,
    buffer: Vec<u8>,
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

impl Sse {
    fn open(addr: SocketAddr, query: &str) -> Sse {
        let mut stream = TcpStream::connect(addr).expect("connect events");
        let head =
            format!("GET /v1/events{query} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
        stream
            .write_all(head.as_bytes())
            .expect("send events request");
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut sse = Sse {
            stream,
            buffer: Vec::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(at) = find(&sse.buffer, b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&sse.buffer[..at]).into_owned();
                assert!(head.starts_with("HTTP/1.1 200"), "{head}");
                assert!(head.contains("text/event-stream"), "{head}");
                sse.buffer.drain(..at + 4);
                return sse;
            }
            assert!(sse.fill(), "events stream closed before headers");
            assert!(Instant::now() < deadline, "no events headers in time");
        }
    }

    /// Pulls more bytes off the socket; false on server close.
    fn fill(&mut self) -> bool {
        let mut chunk = [0u8; 65536];
        match self.stream.read(&mut chunk) {
            Ok(0) => false,
            Ok(n) => {
                self.buffer.extend_from_slice(&chunk[..n]);
                true
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                true
            }
            Err(e) => panic!("events read: {e}"),
        }
    }

    /// Reads named frames (skipping keep-alive comments), feeding each
    /// to `stop`, until it returns true, the deadline passes, or the
    /// server closes the stream. Returns whether `stop` ever matched.
    fn read_until(&mut self, deadline: Instant, mut stop: impl FnMut(&str, &Json) -> bool) -> bool {
        loop {
            while let Some(end) = find(&self.buffer, b"\n\n") {
                let frame: Vec<u8> = self.buffer.drain(..end + 2).collect();
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
                if let (Some(name), Some(data)) = (name, data) {
                    if stop(&name, &data) {
                        return true;
                    }
                }
            }
            if Instant::now() >= deadline || !self.fill() {
                return false;
            }
        }
    }
}

/// Watches one subscription until the named job's full lifecycle has
/// streamed past, and asserts the transitions arrive in order. The job
/// is identified by its (test-unique) name in the `job.queued` /
/// `job.running` details, and `job.done` by the running attempt's
/// trace ID — job numbers alone would collide across the other tests
/// in this binary, which share the process-global collector.
fn assert_lifecycle(sse: &mut Sse, label: &str, job_name: &str, deadline: Instant) {
    let tag = format!("name={job_name:?}");
    let mut seen: Vec<&'static str> = Vec::new();
    let mut trace = None;
    let done = sse.read_until(deadline, |name, data| {
        let detail = data.get("detail").and_then(Json::as_str).unwrap_or("");
        match name {
            "job.queued" if detail.contains(&tag) => seen.push("queued"),
            "job.running" if detail.contains(&tag) => {
                trace = data.get("trace").and_then(Json::as_usize);
                seen.push("running");
            }
            "job.done"
                if trace.is_some() && data.get("trace").and_then(Json::as_usize) == trace =>
            {
                seen.push("done");
                return true;
            }
            _ => {}
        }
        false
    });
    assert!(done, "{label}: no job.done for {job_name:?}; saw {seen:?}");
    assert_eq!(
        seen,
        ["queued", "running", "done"],
        "{label}: out-of-order lifecycle for {job_name:?}"
    );
}

/// Two concurrent subscribers both observe a job's full queued →
/// running → done lifecycle, in order, over independent connections.
#[test]
fn concurrent_sse_subscribers_both_observe_the_job_lifecycle() {
    let _serial = SSE_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (report, ()) = with_server(serve_opts(), |http| {
        let mut first = Sse::open(http.addr, "?level=info");
        let mut second = Sse::open(http.addr, "?level=info");
        let id = http.submit("sse-both", "restaurant", 0.08);
        let (_, status) = http.wait(id);
        assert_eq!(status, "ok");
        let deadline = Instant::now() + Duration::from_secs(30);
        assert_lifecycle(&mut first, "first subscriber", "sse-both", deadline);
        assert_lifecycle(&mut second, "second subscriber", "sse-both", deadline);
        http.shutdown();
    });
    assert_eq!(report.jobs.len(), 1);
    assert!(report.jobs[0].status.is_ok());
}

/// A subscriber that stops reading is dropped by the server once its
/// socket backs up — visible to the surviving subscriber as a warn
/// event — while the scheduler and the healthy stream proceed
/// untouched, and the stalled connection gets closed.
#[test]
fn a_stalled_sse_subscriber_is_dropped_while_others_stream_on() {
    let _serial = SSE_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (report, ()) = with_server(serve_opts(), |http| {
        let mut healthy = Sse::open(http.addr, "?level=info");
        let mut stalled = Sse::open(http.addr, "?level=info");

        // Flood the ring from a side thread; the stalled subscriber
        // never reads, so its socket fills and the server's bounded
        // write gives up on it. The healthy subscriber keeps draining.
        let stop = Arc::new(AtomicBool::new(false));
        let flooder = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let payload = "x".repeat(1024);
                for _ in 0..100_000 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    for _ in 0..64 {
                        minoaner::obs::trace::event(
                            minoaner::obs::Level::Info,
                            "test.flood",
                            payload.clone(),
                        );
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        let dropped = healthy.read_until(deadline, |name, _| name == "http.events");
        stop.store(true, Ordering::Relaxed);
        flooder.join().unwrap();
        assert!(dropped, "no drop warning reached the healthy subscriber");

        // The server closed the stalled connection: draining whatever
        // was buffered in its socket must end in EOF.
        let drain_deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if !stalled.fill() {
                break;
            }
            stalled.buffer.clear();
            assert!(
                Instant::now() < drain_deadline,
                "stalled subscriber never saw EOF"
            );
        }

        // The scheduler was never blocked, and the healthy stream still
        // delivers a fresh job's lifecycle end to end.
        let id = http.submit("post-stall", "restaurant", 0.05);
        let (_, status) = http.wait(id);
        assert_eq!(status, "ok");
        let deadline = Instant::now() + Duration::from_secs(30);
        assert_lifecycle(&mut healthy, "healthy subscriber", "post-stall", deadline);
        http.shutdown();
    });
    assert_eq!(report.jobs.len(), 1);
    assert!(report.jobs[0].status.is_ok());
}

#[test]
fn shutdown_cancel_mode_flips_queued_jobs_and_closes_the_connection() {
    let (report, ()) = with_server(serve_opts(), |http| {
        // One heavy job occupies both listed profiles' worth of time;
        // the rest queue behind it (2 slots, so submit 4).
        for (name, scale) in [("a", 0.3), ("b", 0.3), ("c", 0.3), ("d", 0.3)] {
            http.submit(name, "restaurant", scale);
        }
        let body = Json::obj([("mode", Json::str("cancel"))]);
        let r = http.request("POST", "/v1/shutdown", Some(&body));
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains("\"mode\":\"cancel\""), "{}", r.body);
        // A shutdown response never leaves the connection open: framing
        // after the server winds down would be a hang, not a reply.
        assert!(r.head.contains("Connection: close"), "{}", r.head);
    });
    assert_eq!(report.jobs.len(), 4);
    // Every job is terminal; at least the tail of the queue was flipped
    // to Cancelled without running.
    assert!(report
        .jobs
        .iter()
        .all(|j| j.status == JobStatus::Cancelled || j.status.is_ok()));
    assert!(report.jobs.iter().any(|j| j.status == JobStatus::Cancelled));
}

/// Patch-then-read: a `PATCH …?wait=true` must not answer before the
/// daemon dropped the cached pre-patch index, so the very next read —
/// with the old copy warm in the registry — is served the patched one.
#[test]
fn a_waited_patch_is_visible_to_the_very_next_read() {
    let dir = std::env::temp_dir().join(format!("minoan-http-patch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let opts = ServeOptions {
        index_dir: Some(dir.clone()),
        ..serve_opts()
    };
    with_server(opts, |http| {
        let job = Json::obj([
            ("name", Json::str("churn")),
            ("dataset", Json::str("restaurant")),
            ("seed", Json::num(20180416.0)),
            ("scale", Json::Num(0.1)),
        ]);
        http.json("POST", "/v1/indexes?wait=true", Some(&job), 201);
        // Warm the registry: from here on a stale copy is there to serve.
        http.json("GET", "/v1/indexes/churn/match?entity=r1%3Ae0", None, 200);
        for cycle in 1..=24u32 {
            let uri = format!("new:{cycle}");
            let deltas = Json::parse(&format!(
                r#"{{"deltas":[{{"op":"upsert","side":"first","uri":"{uri}",
                   "statements":[{{"attr":"name","value":"Fresh Arrival {cycle}"}}]}}]}}"#
            ))
            .unwrap();
            let patch = http.json("PATCH", "/v1/indexes/churn?wait=true", Some(&deltas), 202);
            // The patch re-ran the pipeline, and its report says how long
            // each stage took.
            let job = patch.get("job").and_then(Json::as_usize).unwrap();
            let body = http.json("GET", &format!("/v1/jobs/{job}"), None, 200);
            let timings = body.get("report").and_then(|r| r.get("timings_ms"));
            assert!(
                timings.and_then(|t| t.get("total")).is_some(),
                "cycle {cycle}: a patch job reports its pipeline timings: {body:?}"
            );
            // Only the patched index knows the new entity…
            let path = format!("/v1/indexes/churn/match?entity=new%3A{cycle}");
            let answer = http.json("GET", &path, None, 200);
            assert_eq!(answer.get("entity").and_then(Json::as_str), Some(&*uri));
            // …and the copy that answered carries the bumped version.
            let meta = http.json("GET", "/v1/indexes/churn", None, 200);
            assert_eq!(
                meta.get("content_version").and_then(Json::as_usize),
                Some(cycle as usize + 1),
                "cycle {cycle} was served a stale index"
            );
        }
        http.shutdown();
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// The registry's cache counters from `GET /v1/metrics`: misses and
/// invalidations.
fn cache_counters(http: &Http) -> [u64; 2] {
    let text = http.request("GET", "/v1/metrics", None).body;
    ["misses", "invalidations"].map(|name| {
        let family = format!("minoan_index_cache_{name}_total ");
        text.lines()
            .find_map(|l| l.strip_prefix(&family))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no {family:?} sample in {text}"))
    })
}

/// A one-op delta stream that adds entity `uri` to the first KB.
fn arrival(uri: &str, name: &str) -> Json {
    Json::parse(&format!(
        r#"{{"deltas":[{{"op":"upsert","side":"first","uri":"{uri}",
           "statements":[{{"attr":"name","value":"{name}"}}]}}]}}"#
    ))
    .unwrap()
}

/// A patch of a warm index publishes its result into the registry: the
/// next read is a hit on the patched copy — no miss, one invalidation
/// for the replaced copy — and answers exactly as the rewritten file
/// does. The published copy describes itself byte for byte as a cold
/// read of that file.
#[test]
fn a_patch_is_published_into_the_registry_without_a_reload() {
    let dir = std::env::temp_dir().join(format!("minoan-http-publish-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let opts = ServeOptions {
        index_dir: Some(dir.clone()),
        ..serve_opts()
    };
    with_server(opts, |http| {
        let job = Json::obj([
            ("name", Json::str("pub")),
            ("dataset", Json::str("restaurant")),
            ("seed", Json::num(20180416.0)),
            ("scale", Json::Num(0.1)),
        ]);
        http.json("POST", "/v1/indexes?wait=true", Some(&job), 201);
        http.json("GET", "/v1/indexes/pub/match?entity=r1%3Ae0", None, 200);
        let [misses, invalidations] = cache_counters(http);

        let deltas = arrival("new:1", "Fresh Arrival");
        http.json("PATCH", "/v1/indexes/pub?wait=true", Some(&deltas), 202);
        let answers = ["new%3A1", "r1%3Ae0"].map(|entity| {
            let path = format!("/v1/indexes/pub/match?entity={entity}&k=5");
            http.json("GET", &path, None, 200)
        });
        assert_eq!(
            cache_counters(http),
            [misses, invalidations + 1],
            "the read after the patch reloaded the index"
        );

        let on_disk = IndexArtifact::read_from(&dir.join("pub.idx")).unwrap();
        for (entity, answer) in ["new:1", "r1:e0"].iter().zip(&answers) {
            let expected = on_disk
                .match_query(entity, 5)
                .unwrap()
                .to_json("pub", 0.0, 0.0);
            for field in ["entity", "side", "matches", "candidates"] {
                assert_eq!(answer.get(field), expected.get(field), "{entity}: {field}");
            }
        }

        let served = http.request("GET", "/v1/indexes/pub", None);
        assert_eq!(served.status, 200, "{}", served.body);
        let cold = IndexRegistry::open(&dir, None)
            .unwrap()
            .meta("pub")
            .unwrap();
        let Json::Obj(mut fields) = cold.to_json() else {
            panic!("meta JSON is an object");
        };
        fields.insert(0, ("id".to_string(), Json::str("pub")));
        assert_eq!(served.body, Json::Obj(fields).compact());
        assert_eq!(cold.content_version, 2);
        assert_eq!(cold.section_bytes.len(), 5);
        http.shutdown();
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// PATCHes of one index racing from several threads: the queue admits
/// one at a time (the rest are `409`), so every admitted patch starts
/// from its predecessor's result and none is lost.
#[test]
fn racing_patches_of_one_index_each_land() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 6;
    let dir = std::env::temp_dir().join(format!("minoan-http-race-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let opts = ServeOptions {
        index_dir: Some(dir.clone()),
        ..serve_opts()
    };
    with_server(opts, |http| {
        let job = Json::obj([
            ("name", Json::str("race")),
            ("dataset", Json::str("restaurant")),
            ("seed", Json::num(20180416.0)),
            ("scale", Json::Num(0.05)),
        ]);
        http.json("POST", "/v1/indexes?wait=true", Some(&job), 201);
        let start = std::sync::Barrier::new(THREADS);
        let admitted: Vec<usize> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..THREADS)
                .map(|thread| {
                    let start = &start;
                    scope.spawn(move || {
                        let mut jobs = Vec::new();
                        for round in 0..ROUNDS {
                            let uri = format!("race:{thread}-{round}");
                            let deltas = arrival(&uri, &format!("Racer {thread} {round}"));
                            start.wait();
                            let r = http.request("PATCH", "/v1/indexes/race", Some(&deltas));
                            match r.status {
                                202 => jobs.push(
                                    Json::parse(&r.body)
                                        .unwrap()
                                        .get("job")
                                        .and_then(Json::as_usize)
                                        .unwrap(),
                                ),
                                409 => {}
                                other => panic!("PATCH answered {other}: {}", r.body),
                            }
                        }
                        jobs
                    })
                })
                .collect();
            racers.into_iter().flat_map(|r| r.join().unwrap()).collect()
        });
        assert!(!admitted.is_empty());
        for &job in &admitted {
            assert_eq!(http.wait(job).1, "ok", "patch job {job}");
        }
        let meta = http.json("GET", "/v1/indexes/race", None, 200);
        assert_eq!(
            meta.get("content_version").and_then(Json::as_usize),
            Some(1 + admitted.len()),
            "an admitted patch was lost"
        );
        http.shutdown();
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// One client socket for many requests: each response is read by its
/// `Content-Length`, so the socket stays usable when the server keeps
/// it.
struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Conn {
            reader: BufReader::new(stream),
        }
    }

    /// Sends raw request bytes and reads one response.
    fn send(&mut self, request: &[u8]) -> Raw {
        self.reader.get_mut().write_all(request).expect("send");
        let mut head = String::new();
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).expect("read head");
            assert!(n > 0, "EOF inside a response head: {head:?}");
            if line == "\r\n" {
                break;
            }
            head += &line;
        }
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no Content-Length in {head:?}"));
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body).expect("read body");
        let status = head.split(' ').nth(1).unwrap().parse().unwrap();
        Raw {
            status,
            head,
            body: String::from_utf8(body).unwrap(),
        }
    }

    /// A `GET` with the given extra header lines.
    fn get(&mut self, path: &str, headers: &str) -> Raw {
        self.send(format!("GET {path} HTTP/1.1\r\nHost: t\r\n{headers}\r\n").as_bytes())
    }

    /// Whether the server has closed its side: the next read is EOF.
    fn at_eof(&mut self) -> bool {
        matches!(self.reader.read(&mut [0u8; 1]), Ok(0))
    }
}

#[test]
fn a_fully_read_request_keeps_its_connection_whatever_its_status() {
    let dir = std::env::temp_dir().join(format!("minoan-http-keep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let opts = ServeOptions {
        index_dir: Some(dir.clone()),
        auth_token: Some("tok".into()),
        ..serve_opts()
    };
    with_server(opts, |anon| {
        let http = Http {
            addr: anon.addr,
            token: Some("tok"),
        };
        let job = Json::obj([
            ("name", Json::str("keep")),
            ("dataset", Json::str("restaurant")),
            ("seed", Json::num(20180416.0)),
            ("scale", Json::Num(0.05)),
        ]);
        http.json("POST", "/v1/indexes?wait=true", Some(&job), 201);

        let auth = "Authorization: Bearer tok\r\n";
        let mut conn = Conn::open(http.addr);
        for (path, headers, status) in [
            ("/v1/indexes/keep/match?entity=nobody%3A0", auth, 404),
            ("/v1/indexes/keep/match?entity=r1%3Ae0&k=0", auth, 400),
            ("/v1/metrics", "", 401),
        ] {
            let r = conn.get(path, headers);
            assert_eq!(r.status, status, "{path}: {}", r.body);
            assert!(r.head.contains("Connection: keep-alive"), "{}", r.head);
            let ok = conn.get("/v1/indexes/keep/match?entity=r1%3Ae0", auth);
            assert_eq!(ok.status, 200, "after {status}: {}", ok.body);
        }
        let r = conn.send(format!("PUT /v1/metrics HTTP/1.1\r\nHost: t\r\n{auth}\r\n").as_bytes());
        assert_eq!(r.status, 405, "{}", r.body);
        assert!(r.head.contains("Connection: keep-alive"), "{}", r.head);
        assert_eq!(conn.get("/v1/jobs?limit=0", auth).status, 200);
        http.shutdown();
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_request_that_was_not_fully_read_still_closes() {
    with_server(serve_opts(), |http| {
        let pad = "y".repeat(10_000);
        for (request, status) in [
            (
                "GET /v1/metrics HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 0\r\n\r\n".into(),
                400,
            ),
            (
                "POST /v1/jobs HTTP/1.1\r\nContent-Length: 9000000\r\n\r\n".into(),
                413,
            ),
            (
                format!("GET /v1/jobs HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n"),
                431,
            ),
            ("GET /v1/jobs HTTP/2.0\r\n\r\n".to_string(), 505),
        ] {
            let mut conn = Conn::open(http.addr);
            let r = conn.send(request.as_bytes());
            assert_eq!(r.status, status, "{}", r.body);
            assert!(r.head.contains("Connection: close"), "{}", r.head);
            assert!(conn.at_eof(), "{status} must end the connection");
        }
        http.shutdown();
    });
}

#[test]
fn http_1_0_closes_unless_it_asks_for_keep_alive() {
    with_server(serve_opts(), |http| {
        let mut conn = Conn::open(http.addr);
        let r = conn.send(b"GET /v1/metrics HTTP/1.0\r\n\r\n");
        assert_eq!(r.status, 200);
        assert!(r.head.contains("Connection: close"), "{}", r.head);
        assert!(conn.at_eof(), "an HTTP/1.0 request is not persistent");

        let mut conn = Conn::open(http.addr);
        let kept = b"GET /v1/metrics HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n";
        let r = conn.send(kept);
        assert!(r.head.contains("Connection: keep-alive"), "{}", r.head);
        assert_eq!(conn.send(kept).status, 200, "same socket");
        http.shutdown();
    });
}

#[test]
fn fresh_connections_are_served_without_an_accept_poll() {
    // The bound is 10 × the handlers' read tick (25 ms). An accept loop
    // that slept that tick between accepts took about a second for the
    // 40. Best of three rounds, so a busy machine cannot fail it.
    let bound = Duration::from_millis(250);
    with_server(serve_opts(), |http| {
        let round = || {
            let t0 = Instant::now();
            for _ in 0..40 {
                let r = Conn::open(http.addr).get("/v1/jobs?limit=0", "");
                assert_eq!(r.status, 200, "{}", r.body);
            }
            t0.elapsed()
        };
        let best = (0..3).map(|_| round()).min().unwrap();
        assert!(best < bound, "40 fresh connections took {best:?}");
        http.shutdown();
    });
}

#[test]
fn a_shutdown_over_http_stops_the_line_front_end_too() {
    let line = TcpListener::bind("127.0.0.1:0").unwrap();
    let line_addr = line.local_addr().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let http = Http {
        addr: listener.local_addr().unwrap(),
        token: None,
    };
    let frontends = Frontends {
        line: Some(line),
        http: Some(listener),
    };
    let (done, returned) = mpsc::channel();
    let server = std::thread::spawn(move || {
        let report = run_server(frontends, &serve_opts(), |_| {});
        let _ = done.send(());
        report
    });
    http.shutdown();
    if returned.recv_timeout(Duration::from_secs(10)).is_err() {
        // Unblock a line accept loop the shutdown failed to wake, so
        // the failure reports instead of hanging.
        let _ = TcpStream::connect(line_addr);
        panic!("run_server did not return after POST /v1/shutdown");
    }
    assert!(server.join().unwrap().unwrap().jobs.is_empty());
}
