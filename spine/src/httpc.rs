//! A minimal keep-alive HTTP/1.1 client over `std::net`, the "real
//! client over loopback" the serve workloads drive the daemon with.
//!
//! One [`Client`] is one logical connection: it reuses its socket until
//! the server answers `Connection: close` (which the daemon does after
//! every 4xx/5xx) or an I/O error, then reconnects on the next request.
//! A failed request is never retried — the caller counts it as failed.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// The server announced it closes the connection after this reply.
    pub close: bool,
}

pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<BufReader<TcpStream>>,
    /// Connections opened so far, the first included.
    pub connects: u64,
}

impl Client {
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        Self {
            addr,
            timeout,
            conn: None,
            connects: 0,
        }
    }

    /// Sends one request and reads its response. `target` is the path
    /// with its query, already percent-encoded.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&[u8]>,
    ) -> io::Result<Response> {
        let result = self.exchange(method, target, body);
        if !matches!(&result, Ok(r) if !r.close) {
            self.conn = None;
        }
        result
    }

    pub fn get(&mut self, target: &str) -> io::Result<Response> {
        self.request("GET", target, None)
    }

    fn exchange(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&[u8]>,
    ) -> io::Result<Response> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            self.connects += 1;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connected above");
        // Head and body leave in one write so a small request is one
        // segment, not two with a delayed ACK between them.
        let body = body.unwrap_or_default();
        let mut wire = format!(
            "{method} {target} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        conn.get_mut().write_all(&wire)?;
        read_response(conn)
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads one `Content-Length`-framed response; the daemon never sends
/// chunked bodies to a plain request.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<Response> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the status line",
        ));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
    let mut length: Option<usize> = None;
    let mut close = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside the headers",
            ));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad(format!("bad header line {header:?}")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse().map_err(|_| bad("bad Content-Length"))?);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or_else(|| bad("response without Content-Length"))?;
    // Bounded: nothing the daemon serves a benchmark client comes close.
    if length > 256 << 20 {
        return Err(bad(format!("implausible Content-Length {length}")));
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok(Response {
        status,
        body,
        close,
    })
}

/// Percent-encodes a query value (everything but RFC 3986 unreserved).
pub fn percent_encode(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for b in raw.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn content_length_frames_back_to_back_responses() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\ncontent-length: 5\r\n\
                     Connection: keep-alive\r\n\r\nhelloHTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\
                     Connection: close\r\n\r\n";
        let mut reader = BufReader::new(&wire[..]);
        let first = read_response(&mut reader).unwrap();
        assert_eq!(
            (first.status, first.body.as_slice(), first.close),
            (200, &b"hello"[..], false)
        );
        let second = read_response(&mut reader).unwrap();
        assert_eq!(
            (second.status, second.body.len(), second.close),
            (404, 0, true)
        );
        let eof = read_response(&mut reader).unwrap_err();
        assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn malformed_responses_are_errors_not_panics() {
        for wire in [
            &b"garbage\r\n\r\n"[..],
            b"HTTP/1.1 200 OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort",
            b"HTTP/1.1 200 OK\r\nContent-Length: 1",
        ] {
            assert!(read_response(&mut BufReader::new(wire)).is_err());
        }
    }

    #[test]
    fn query_values_are_percent_encoded() {
        assert_eq!(percent_encode("r1:e0/x y"), "r1%3Ae0%2Fx%20y");
        assert_eq!(percent_encode("plain-._~9"), "plain-._~9");
    }

    /// A server that closes after an error response: the client must
    /// keep the socket across 200s and reconnect after the close.
    #[test]
    fn client_reuses_the_connection_until_the_server_closes_it() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut accepted = 0;
            // Connection 1: two 200s then a closing 404. Connection 2: one 200.
            for script in [&[200u16, 200, 404][..], &[200]] {
                let (stream, _) = listener.accept().unwrap();
                accepted += 1;
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                for &status in script {
                    let mut line = String::new();
                    while reader.read_line(&mut line).unwrap() > 2 {
                        line.clear();
                    }
                    let close = if status >= 400 { "close" } else { "keep-alive" };
                    write!(
                        writer,
                        "HTTP/1.1 {status} X\r\nContent-Length: 2\r\nConnection: {close}\r\n\r\nok"
                    )
                    .unwrap();
                }
            }
            accepted
        });
        let mut client = Client::new(addr, Duration::from_secs(5));
        let statuses: Vec<u16> = (0..4).map(|_| client.get("/x").unwrap().status).collect();
        assert_eq!(statuses, [200, 200, 404, 200]);
        assert_eq!(client.connects, 2);
        assert_eq!(server.join().unwrap(), 2);
    }
}
