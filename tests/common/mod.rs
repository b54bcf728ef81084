//! Helpers shared by the integration tests: a scratch directory, a
//! minimal HTTP client and a live HTTP server to point it at. Each test
//! binary uses a different subset, hence the `dead_code` allowance.

#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use minoaner::kb::Json;
use minoaner::serve::{run_server, Frontends, ServeOptions, ServeReport};

/// A scratch directory that cleans up after itself. The name carries
/// the test binary and the process id, so concurrent runs never share
/// one.
pub struct ScratchDir(pub std::path::PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!(
            "minoan-{}-{tag}-{}",
            env!("CARGO_CRATE_NAME"),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }

    pub fn path(&self, name: &str) -> std::path::PathBuf {
        self.0.join(name)
    }

    pub fn file(&self, name: &str, content: &str) -> std::path::PathBuf {
        let path = self.path(name);
        std::fs::write(&path, content).expect("write scratch file");
        path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A minimal test-side HTTP client: one fresh connection per request,
/// `Connection: close`, whole-response reads.
pub struct Http {
    pub addr: SocketAddr,
    pub token: Option<&'static str>,
}

/// Status code, full header section, body.
pub struct Raw {
    pub status: u16,
    pub head: String,
    pub body: String,
}

impl Http {
    /// Writes raw bytes, optionally half-closing the write side, and
    /// parses whatever response comes back.
    pub fn raw(&self, bytes: &[u8], half_close: bool) -> Raw {
        let mut stream = TcpStream::connect(self.addr).expect("connect");
        stream.write_all(bytes).expect("send");
        stream.flush().unwrap();
        if half_close {
            stream.shutdown(std::net::Shutdown::Write).unwrap();
        }
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("read response");
        let raw = String::from_utf8(raw).expect("responses are UTF-8");
        let (head, body) = raw
            .split_once("\r\n\r\n")
            .unwrap_or_else(|| panic!("no header/body split in {raw:?}"));
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line in {head:?}"));
        Raw {
            status,
            head: head.to_string(),
            body: body.to_string(),
        }
    }

    pub fn request(&self, method: &str, path: &str, body: Option<&Json>) -> Raw {
        let payload = body.map(Json::compact).unwrap_or_default();
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n");
        if let Some(token) = self.token {
            head += &format!("Authorization: Bearer {token}\r\n");
        }
        if !payload.is_empty() {
            head += &format!("Content-Length: {}\r\n", payload.len());
        }
        head += "\r\n";
        self.raw(format!("{head}{payload}").as_bytes(), false)
    }

    pub fn json(&self, method: &str, path: &str, body: Option<&Json>, expect: u16) -> Json {
        let r = self.request(method, path, body);
        assert_eq!(r.status, expect, "{method} {path}: {}", r.body);
        Json::parse(&r.body).expect("JSON body")
    }

    /// Posts a synthetic job and returns the raw response, whatever its
    /// status.
    pub fn submit_raw(&self, name: &str, dataset: &str, scale: f64) -> Raw {
        let job = Json::obj([
            ("name", Json::str(name)),
            ("dataset", Json::str(dataset)),
            ("seed", Json::num(20180416.0)),
            ("scale", Json::Num(scale)),
        ]);
        self.request("POST", "/v1/jobs", Some(&job))
    }

    /// Posts a synthetic job that must be admitted; returns its id.
    pub fn submit(&self, name: &str, dataset: &str, scale: f64) -> usize {
        let r = self.submit_raw(name, dataset, scale);
        assert_eq!(r.status, 201, "submit {name}: {}", r.body);
        Json::parse(&r.body)
            .expect("JSON body")
            .get("id")
            .and_then(Json::as_usize)
            .expect("submit id")
    }

    /// Blocks until the job is terminal; returns (fingerprint, status).
    pub fn wait(&self, id: usize) -> (String, String) {
        let r = self.json("GET", &format!("/v1/jobs/{id}?wait=true"), None, 200);
        let fingerprint = r
            .get("fingerprint")
            .and_then(Json::as_str)
            .expect("fingerprint")
            .to_string();
        let status = r
            .get("status")
            .and_then(Json::as_str)
            .expect("status")
            .to_string();
        (fingerprint, status)
    }

    pub fn shutdown(&self) {
        self.json("POST", "/v1/shutdown", None, 200);
    }

    /// The job's current phase label.
    fn phase(&self, id: usize) -> String {
        let r = self.json("GET", &format!("/v1/jobs/{id}"), None, 200);
        r.get("phase").and_then(Json::as_str).unwrap().to_string()
    }

    /// Polls the job until it reaches `phase`; finishing first fails.
    pub fn await_phase(&self, id: usize, phase: &str) {
        let t0 = Instant::now();
        loop {
            let got = self.phase(id);
            if got == phase {
                return;
            }
            assert!(got != "done", "job #{id} finished before {phase:?}");
            assert!(
                t0.elapsed() < Duration::from_secs(60),
                "job #{id} never reached {phase:?}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Polls the job until it leaves the queued phase.
    pub fn await_running(&self, id: usize) {
        let t0 = Instant::now();
        while self.phase(id) == "queued" {
            assert!(
                t0.elapsed() < Duration::from_secs(60),
                "job #{id} never dispatched"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Runs `body` against a live HTTP server and returns the fleet report
/// from its clean shutdown. A panicking `body` still shuts the server
/// down (with the right token) before the panic resumes, so a failed
/// assertion reports as a failure instead of wedging the scope join.
pub fn with_server<T>(opts: ServeOptions, body: impl FnOnce(&Http) -> T) -> (ServeReport, T) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let token = opts.auth_token.clone();
    let frontends = Frontends {
        http: Some(listener),
        ..Frontends::default()
    };
    std::thread::scope(|scope| {
        let server = scope.spawn(move || run_server(frontends, &opts, |_| {}).unwrap());
        let client = Http { addr, token: None };
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&client)));
        let out = out.unwrap_or_else(|panic| {
            let mut head =
                String::from("POST /v1/shutdown HTTP/1.1\r\nHost: t\r\nConnection: close\r\n");
            if let Some(token) = &token {
                head += &format!("Authorization: Bearer {token}\r\n");
            }
            head += "\r\n";
            if let Ok(mut stream) = TcpStream::connect(addr) {
                let _ = stream.write_all(head.as_bytes());
                let _ = stream.read_to_end(&mut Vec::new());
            }
            std::panic::resume_unwind(panic);
        });
        (server.join().unwrap(), out)
    })
}
