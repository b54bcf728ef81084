//! `minoaner trace` against an in-process daemon's HTTP listener: the
//! verb prints a job's span trees, one per attempt, and exits 1 on an
//! unknown id. Also pins that the fleet verbs take no `--threads`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::Command;

use minoan_kb::Json;
use minoan_serve::{run_server, Frontends, ServeOptions};

/// One request on a fresh connection; returns the status and the body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to the daemon");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status = response.split(' ').nth(1).unwrap().parse().unwrap();
    let (_, body) = response.split_once("\r\n\r\n").unwrap();
    (status, body.to_string())
}

fn minoaner(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_minoaner"))
        .args(args)
        .args(["--log-level", "error"])
        .output()
        .expect("run minoaner")
}

#[test]
fn trace_prints_one_span_tree_per_attempt_over_http() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let frontends = Frontends {
        http: Some(listener),
        ..Frontends::default()
    };
    let opts = ServeOptions::default();
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| run_server(frontends, &opts, |_| {}));

        let job = r#"{"name":"r","dataset":"restaurant","scale":0.05}"#;
        let (status, body) = http(addr, "POST", "/v1/jobs", job);
        assert_eq!(status, 201, "{body}");
        let id = Json::parse(&body)
            .unwrap()
            .get("id")
            .unwrap()
            .as_usize()
            .unwrap();
        let (status, body) = http(addr, "GET", &format!("/v1/jobs/{id}?wait=true"), "");
        assert_eq!(status, 200, "{body}");

        let connect = addr.to_string();
        let out = minoaner(&["trace", &id.to_string(), "--connect", &connect]);
        assert!(out.status.success(), "{out:?}");
        let trace = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
        assert_eq!(trace.get("id").unwrap().as_usize(), Some(id));
        let Some(Json::Arr(attempts)) = trace.get("attempts") else {
            panic!("no attempts in {trace:?}");
        };
        assert_eq!(attempts.len(), 1, "one attempt, one tree");
        let Some(Json::Arr(spans)) = attempts[0].get("spans") else {
            panic!("no spans in {:?}", attempts[0]);
        };
        assert!(!spans.is_empty(), "the attempt's tree has spans");

        let out = minoaner(&["trace", "99", "--connect", &connect]);
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        assert!(out.stdout.is_empty(), "{out:?}");

        let (status, _) = http(addr, "POST", "/v1/shutdown", r#"{"mode":"drain"}"#);
        assert_eq!(status, 200);
        daemon.join().unwrap().unwrap();
    });
}

#[test]
fn fleet_verbs_take_no_threads_flag() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fleet.json");
    for args in [
        &["batch", "--manifest", manifest, "--threads", "2"][..],
        &["serve", "--listen-http", "127.0.0.1:0", "--threads", "2"],
    ] {
        assert_eq!(minoaner(args).status.code(), Some(2), "{args:?}");
    }
}
