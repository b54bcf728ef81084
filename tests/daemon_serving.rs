//! Daemon integration tests: jobs submitted over the socket must be
//! **bit-identical** to the same jobs run via `minoaner batch` and via
//! solo sequential runs ([`JobReport::fingerprint`]), cancelling a
//! *running* job must unwind it to a `Cancelled` report at a pipeline
//! checkpoint without disturbing other in-flight jobs, and `index-match`
//! must accept exactly the `k` the HTTP front end accepts.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use minoaner::core::MAX_CANDIDATES;
use minoaner::datagen::DatasetKind;
use minoaner::exec::ExecutorKind;
use minoaner::kb::Json;
use minoaner::serve::{
    run_batch, run_daemon, JobInput, JobSpec, JobStatus, Manifest, ServeOptions,
};

/// A tiny line-delimited JSON client (the shipping one lives in
/// `examples/daemon_client.rs`; tests keep their own to stay
/// self-contained).
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        Client {
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
        }
    }

    /// Sends one request and returns the response, whatever its `ok`.
    fn send(&mut self, body: Json) -> Json {
        self.writer
            .write_all((body.compact() + "\n").as_bytes())
            .expect("send request");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        Json::parse(line.trim()).expect("response parses")
    }

    fn request(&mut self, body: Json) -> Json {
        let response = self.send(body);
        assert_eq!(
            response.get("ok"),
            Some(&Json::Bool(true)),
            "daemon refused: {response:?}"
        );
        response
    }

    fn submit(&mut self, name: &str, dataset: &str, scale: f64) -> usize {
        let r = self.request(Json::obj([
            ("op", Json::str("submit")),
            (
                "job",
                Json::obj([
                    ("name", Json::str(name)),
                    ("dataset", Json::str(dataset)),
                    ("seed", Json::num(20180416.0)),
                    ("scale", Json::Num(scale)),
                ]),
            ),
        ]));
        r.get("id").and_then(Json::as_usize).expect("submit id")
    }

    fn op_id(&mut self, op: &str, id: usize) -> Json {
        self.request(Json::obj([
            ("op", Json::str(op)),
            ("id", Json::num(id as f64)),
        ]))
    }

    /// Waits for the job and returns its raw fingerprint and status.
    fn wait(&mut self, id: usize) -> (String, String) {
        let r = self.op_id("wait", id);
        let fingerprint = r
            .get("fingerprint")
            .and_then(Json::as_str)
            .expect("fingerprint")
            .to_string();
        let status = r
            .get("report")
            .and_then(|rep| rep.get("status"))
            .and_then(Json::as_str)
            .expect("status")
            .to_string();
        (fingerprint, status)
    }

    fn shutdown(&mut self) {
        self.request(Json::obj([("op", Json::str("shutdown"))]));
    }

    /// Polls `status` until job `id` reaches `phase` (with a timeout).
    fn await_phase(&mut self, id: usize, phase: &str) {
        let t0 = Instant::now();
        loop {
            let r = self.op_id("status", id);
            let jobs = match r.get("jobs") {
                Some(Json::Arr(jobs)) => jobs,
                other => panic!("bad status jobs: {other:?}"),
            };
            let got = jobs[0].get("phase").and_then(Json::as_str).unwrap();
            if got == phase {
                return;
            }
            assert!(
                got != "done",
                "job #{id} finished before reaching {phase:?}"
            );
            assert!(
                t0.elapsed() < Duration::from_secs(60),
                "job #{id} never reached {phase:?}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
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
fn socket_jobs_are_bit_identical_to_batch_and_solo_runs() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let opts = ServeOptions {
        slots: Some(2),
        threads: Some(3),
        ..ServeOptions::default()
    };

    // Daemon path: submit all four profiles over the socket.
    let (daemon_fps, report) = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| run_daemon(listener, &opts, |_| {}).unwrap());
        let mut client = Client::connect(addr);
        let ids: Vec<(usize, DatasetKind)> = DatasetKind::ALL
            .into_iter()
            .map(|kind| {
                (
                    client.submit(profile_name(kind), profile_name(kind), 0.08),
                    kind,
                )
            })
            .collect();
        let fps: Vec<(DatasetKind, String)> = ids
            .into_iter()
            .map(|(id, kind)| {
                let (fp, status) = client.wait(id);
                assert_eq!(status, "ok", "{kind:?} failed over the socket");
                (kind, fp)
            })
            .collect();
        client.shutdown();
        (fps, daemon.join().unwrap())
    });

    // The daemon's final fleet report carries the same fingerprints in
    // submission order.
    assert_eq!(report.jobs.len(), 4);
    for ((_, fp), job) in daemon_fps.iter().zip(&report.jobs) {
        assert_eq!(*fp, job.fingerprint(), "{}: wait vs report", job.name);
    }

    // Batch path: the same jobs as a manifest fleet.
    let manifest = Manifest {
        slots: 2,
        threads: 3,
        memory_budget_mib: 0,
        timeout_ms: 0,
        max_retries: 0,
        jobs: DatasetKind::ALL
            .into_iter()
            .map(|kind| synthetic_spec(profile_name(kind), kind, 0.08))
            .collect(),
    };
    let batch = run_batch(&manifest, &ServeOptions::default());

    // Solo path: each job alone on a sequential executor.
    for (i, kind) in DatasetKind::ALL.into_iter().enumerate() {
        let solo_manifest = Manifest {
            slots: 1,
            threads: 1,
            memory_budget_mib: 0,
            timeout_ms: 0,
            max_retries: 0,
            jobs: vec![synthetic_spec(profile_name(kind), kind, 0.08)],
        };
        let solo = run_batch(
            &solo_manifest,
            &ServeOptions {
                slots: Some(1),
                threads: Some(1),
                executor: ExecutorKind::Sequential,
                ..ServeOptions::default()
            },
        );
        let socket_fp = &daemon_fps[i].1;
        assert_eq!(
            *socket_fp,
            batch.jobs[i].fingerprint(),
            "{kind:?}: socket vs batch"
        );
        assert_eq!(
            *socket_fp,
            solo.jobs[0].fingerprint(),
            "{kind:?}: socket vs solo sequential"
        );
    }
}

#[test]
fn malformed_frames_get_error_responses_and_never_wedge_the_daemon() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let opts = ServeOptions {
        slots: Some(2),
        threads: Some(2),
        ..ServeOptions::default()
    };
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| run_daemon(listener, &opts, |_| {}).unwrap());
        let mut client = Client::connect(addr);
        // A real job first, so malformed traffic has something to
        // (fail to) disturb.
        let id = client.submit("survivor", "restaurant", 0.1);

        // Raw frames on a separate connection: invalid UTF-8, invalid
        // JSON, a missing `op`, a wrong-typed `op`, a job whose `k` runs
        // past the longest row the index keeps. Every one must get
        // an {"ok":false} response on the same still-usable connection.
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let frames: [(&[u8], &str); 5] = [
            (b"{\"op\": \"w\xc3\x28at\"}\n", "invalid UTF-8"),
            (b"{\"op\": \n", "bad request JSON"),
            (b"{\"id\": 3}\n", "`op`"),
            (b"{\"op\": 7}\n", "`op`"),
            (
                b"{\"op\":\"submit\",\"job\":{\"name\":\"wide\",\"dataset\":\"rexa\",\"k\":129}}\n",
                "k must be in 1..=128, got 129",
            ),
        ];
        for (frame, needle) in frames {
            stream.write_all(frame).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let r = Json::parse(line.trim()).expect("error response parses");
            assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{frame:?}");
            let err = r.get("error").unwrap();
            assert_eq!(err.get("code").unwrap().as_str(), Some("bad_request"));
            let e = err.get("message").unwrap().as_str().unwrap();
            assert!(e.contains(needle), "{frame:?} -> {e}");
        }
        // The abused connection still answers real requests…
        stream.write_all(b"{\"op\":\"status\"}\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let r = Json::parse(line.trim()).unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");

        // A newline-less byte flood cannot grow the frame buffer
        // without bound: one error response, then the connection
        // closes (framing is unrecoverable mid-frame).
        let mut flood = TcpStream::connect(addr).unwrap();
        let chunk = vec![b'x'; 1 << 20];
        for _ in 0..5 {
            flood.write_all(&chunk).unwrap();
        }
        let mut flood_reader = BufReader::new(flood.try_clone().unwrap());
        let mut line = String::new();
        flood_reader.read_line(&mut line).unwrap();
        let r = Json::parse(line.trim()).expect("oversize response parses");
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        let e = r
            .get("error")
            .unwrap()
            .get("message")
            .unwrap()
            .as_str()
            .unwrap();
        assert!(e.contains("byte limit"), "{e}");
        line.clear();
        assert_eq!(
            flood_reader.read_line(&mut line).unwrap(),
            0,
            "connection closes after an oversized frame"
        );
        // …and the job submitted before the barrage still resolves.
        let (_, status) = client.wait(id);
        assert_eq!(status, "ok", "malformed frames disturbed a running job");
        client.shutdown();
        daemon.join().unwrap()
    });
}

#[test]
fn index_match_k_is_bounded_by_the_persisted_row_cap() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let dir = std::env::temp_dir().join(format!("minoan-daemon-k-{}", std::process::id()));
    let opts = ServeOptions {
        slots: Some(1),
        threads: Some(2),
        index_dir: Some(dir.clone()),
        ..ServeOptions::default()
    };
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| run_daemon(listener, &opts, |_| {}).unwrap());
        let mut client = Client::connect(addr);
        let built = client.request(Json::obj([
            ("op", Json::str("index-build")),
            (
                "job",
                Json::obj([
                    ("name", Json::str("rt")),
                    ("dataset", Json::str("restaurant")),
                    ("seed", Json::num(20180416.0)),
                    ("scale", Json::Num(0.1)),
                ]),
            ),
        ]));
        let job = built.get("job").and_then(Json::as_usize).expect("job id");
        assert_eq!(client.wait(job).1, "ok", "the index build failed");

        let mut query = |k: usize| {
            client.send(Json::obj([
                ("op", Json::str("index-match")),
                ("index", Json::str("rt")),
                ("entity", Json::str("r1:e0")),
                ("k", Json::num(k as f64)),
            ]))
        };
        let answer = query(MAX_CANDIDATES);
        assert_eq!(answer.get("ok"), Some(&Json::Bool(true)), "{answer:?}");
        for (k, needle) in [
            (0, "at least 1".to_string()),
            (
                MAX_CANDIDATES + 1,
                format!("at most {MAX_CANDIDATES}, got {}", MAX_CANDIDATES + 1),
            ),
        ] {
            let r = query(k);
            assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "k={k}: {r:?}");
            let err = r.get("error").expect("unified error body");
            assert_eq!(err.get("code").and_then(Json::as_str), Some("bad_request"));
            let message = err.get("message").and_then(Json::as_str).unwrap();
            assert!(message.contains(&needle), "k={k}: {message}");
        }
        client.shutdown();
        daemon.join().unwrap()
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancelling_a_running_job_spares_the_rest_of_the_fleet() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // Two slots so the quick job runs next to the doomed one.
    let opts = ServeOptions {
        slots: Some(2),
        threads: Some(2),
        ..ServeOptions::default()
    };

    let report = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| run_daemon(listener, &opts, |_| {}).unwrap());
        let mut client = Client::connect(addr);
        // A job heavy enough (~1.5 s debug) that cancelling right after
        // dispatch leaves many checkpoints ahead of it.
        let doomed = client.submit("doomed", "yago", 1.0);
        let quick = client.submit("quick", "restaurant", 0.1);
        client.await_phase(doomed, "running");
        let r = client.op_id("cancel", doomed);
        assert_eq!(
            r.get("outcome").and_then(Json::as_str),
            Some("cancelling"),
            "the job was running, so the cancel must take the mid-run path"
        );
        let (_, status) = client.wait(doomed);
        assert_eq!(status, "cancelled", "running job unwound at a checkpoint");
        let (_, status) = client.wait(quick);
        assert_eq!(status, "ok", "other in-flight jobs are unaffected");
        // A cancelled job can be re-submitted and still resolves.
        let retry = client.submit("doomed-retry", "restaurant", 0.05);
        let (_, status) = client.wait(retry);
        assert_eq!(status, "ok");
        client.shutdown();
        daemon.join().unwrap()
    });

    assert_eq!(report.jobs.len(), 3);
    assert_eq!(report.jobs[0].status, JobStatus::Cancelled);
    assert!(report.jobs[1].status.is_ok());
    assert!(report.jobs[2].status.is_ok());
    // The cancelled job produced no partial output.
    assert!(report.jobs[0].matches.is_empty());
}
