//! What the CLI's integration tests share: an in-process daemon and
//! one HTTP request against it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

use minoan_serve::{run_server, Frontends, ServeOptions};

/// Runs `body` against an in-process daemon listening on HTTP, then
/// shuts the daemon down. It shuts down when `body` panics too, so a
/// failed assertion fails the test instead of leaving the scope waiting
/// for the daemon forever.
pub fn with_daemon<T>(opts: ServeOptions, body: impl FnOnce(SocketAddr) -> T) -> T {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let frontends = Frontends {
        http: Some(listener),
        ..Frontends::default()
    };
    std::thread::scope(|scope| {
        let daemon = scope.spawn(move || run_server(frontends, &opts, |_| {}));
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(addr)));
        let (shutdown, _) = http(addr, "POST", "/v1/shutdown", r#"{"mode":"drain"}"#);
        daemon.join().unwrap().unwrap();
        let out = out.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        assert_eq!(shutdown, 200);
        out
    })
}

/// One request on a fresh connection; returns the status and the body.
pub fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
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
