//! Shared std-only HTTP/1.1 plumbing for every in-process server and
//! smoke client: the telemetry status server ([`crate::telemetry`])
//! and the `mlpa-serve` analysis daemon both speak through this module.
//!
//! The protocol surface is deliberately tiny — one request per
//! connection, `Connection: close`, no chunked encoding, no keep-alive
//! — because every peer is either `curl` in a smoke script, a
//! Prometheus scraper, or our own [`get`]/[`post`] client. What the
//! module *is* careful about is hostile or broken peers:
//!
//! * every line read is **bounded** ([`Limits`]): a request line or
//!   header that never terminates cannot grow memory without limit;
//! * bodies are read only up to a declared, capped `Content-Length`;
//! * [`serve`] hands each accepted connection to its own thread, so a
//!   stalled client (slow-loris: connects, never sends a request line)
//!   ties up one thread until the read timeout instead of blocking the
//!   accept loop and every later request;
//! * handler panics are confined to the connection thread.
//!
//! Nothing here touches obs registries: the same server and client work
//! whether collection is on or off.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-connection read timeout applied by [`serve`]; a stalled client
/// is dropped after this long without costing anyone else anything.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Input bounds enforced while reading one request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum request-line length in bytes (method + path + version).
    pub max_request_line: usize,
    /// Maximum length of one header line.
    pub max_header_line: usize,
    /// Maximum total header bytes across all lines.
    pub max_header_bytes: usize,
    /// Maximum accepted `Content-Length`.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_request_line: 8 * 1024,
            max_header_line: 8 * 1024,
            max_header_bytes: 32 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// One parsed request: method, path, and the (possibly empty) body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), verbatim.
    pub method: String,
    /// Request target, verbatim (no percent-decoding).
    pub path: String,
    /// Request body, exactly `Content-Length` bytes.
    pub body: String,
}

/// Why a request could not be read. The server maps these onto 4xx
/// responses; [`RequestError::Closed`] (clean disconnect before any
/// bytes) gets no response at all.
#[derive(Debug)]
pub enum RequestError {
    /// Transport error (includes read-timeout expiry).
    Io(io::Error),
    /// Peer closed the connection before sending a request line.
    Closed,
    /// Syntactically invalid request (bad request line, non-UTF-8,
    /// unparsable `Content-Length`) — answered with `400`.
    Malformed(&'static str),
    /// A configured [`Limits`] bound was exceeded — answered with
    /// `431` (request line / headers) or `413` (body).
    TooLarge(&'static str),
}

/// Parse an HTTP/1.1 request line into `(method, path)`.
pub fn parse_request_line(line: &str) -> Option<(&str, &str)> {
    let mut parts = line.split(' ');
    let method = parts.next()?;
    let path = parts.next()?;
    let version = parts.next()?;
    if parts.next().is_some() || method.is_empty() || path.is_empty() {
        return None;
    }
    if !version.starts_with("HTTP/1.") {
        return None;
    }
    Some((method, path))
}

/// Read one `\n`-terminated line without the terminator (and without a
/// trailing `\r`), refusing to buffer more than `max` bytes. Unlike
/// `BufRead::read_line`, a peer that never sends a newline hits
/// [`RequestError::TooLarge`] instead of growing the buffer forever.
fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    max: usize,
    what: &'static str,
) -> Result<Vec<u8>, RequestError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader.fill_buf().map_err(RequestError::Io)?;
        if buf.is_empty() {
            if line.is_empty() {
                return Err(RequestError::Closed);
            }
            break; // EOF mid-line: treat what we have as the line.
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(i) => {
                line.extend_from_slice(&buf[..i]);
                reader.consume(i + 1);
                break;
            }
            None => {
                line.extend_from_slice(buf);
                let n = buf.len();
                reader.consume(n);
            }
        }
        if line.len() > max {
            return Err(RequestError::TooLarge(what));
        }
    }
    if line.len() > max {
        return Err(RequestError::TooLarge(what));
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    Ok(line)
}

/// Read one full request (request line, headers, body) from `reader`
/// under `limits`. Generic over `BufRead` so the parser is testable
/// against in-memory byte streams, not just sockets.
///
/// # Errors
///
/// See [`RequestError`].
pub fn read_request<R: BufRead>(reader: &mut R, limits: &Limits) -> Result<Request, RequestError> {
    let line = read_line_bounded(reader, limits.max_request_line, "request line")?;
    let line = String::from_utf8(line).map_err(|_| RequestError::Malformed("request line"))?;
    let (method, path) =
        parse_request_line(&line).ok_or(RequestError::Malformed("request line"))?;
    let (method, path) = (method.to_string(), path.to_string());

    let mut content_len = 0usize;
    let mut header_bytes = 0usize;
    loop {
        let h = match read_line_bounded(reader, limits.max_header_line, "header line") {
            Ok(h) => h,
            // EOF inside the header block is a truncated request.
            Err(RequestError::Closed) => return Err(RequestError::Malformed("headers")),
            Err(e) => return Err(e),
        };
        if h.is_empty() {
            break;
        }
        header_bytes += h.len();
        if header_bytes > limits.max_header_bytes {
            return Err(RequestError::TooLarge("headers"));
        }
        let h = String::from_utf8(h).map_err(|_| RequestError::Malformed("header"))?;
        if let Some((name, value)) = h.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_len =
                    value.trim().parse().map_err(|_| RequestError::Malformed("content-length"))?;
            }
        }
    }
    if content_len > limits.max_body_bytes {
        return Err(RequestError::TooLarge("body"));
    }
    let mut body = vec![0u8; content_len];
    reader.read_exact(&mut body).map_err(RequestError::Io)?;
    let body = String::from_utf8(body).map_err(|_| RequestError::Malformed("body"))?;
    Ok(Request { method, path, body })
}

/// One response: status line, content type, extra headers, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status line tail, e.g. `200 OK`.
    pub status: String,
    /// `Content-Type` value.
    pub ctype: String,
    /// Extra headers (e.g. `Retry-After`), written verbatim.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A response with the given status line tail (`"200 OK"`).
    pub fn new(status: &str, ctype: &str, body: impl Into<String>) -> Response {
        Response {
            status: status.into(),
            ctype: ctype.into(),
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A `200 OK` response.
    pub fn ok(ctype: &str, body: impl Into<String>) -> Response {
        Response::new("200 OK", ctype, body)
    }

    /// A JSON `200 OK` response.
    pub fn json(body: impl Into<String>) -> Response {
        Response::ok("application/json", body)
    }

    /// Append an extra header.
    #[must_use]
    pub fn header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }
}

/// Write `response` (with `Content-Length` and `Connection: close`).
///
/// # Errors
///
/// Propagates transport errors (a peer that disconnected mid-response
/// surfaces here; [`serve`] ignores it and moves on).
pub fn write_response<W: Write>(w: &mut W, response: &Response) -> io::Result<()> {
    write!(w, "HTTP/1.1 {}\r\nContent-Type: {}\r\n", response.status, response.ctype)?;
    for (name, value) in &response.headers {
        write!(w, "{name}: {value}\r\n")?;
    }
    write!(w, "Content-Length: {}\r\nConnection: close\r\n\r\n", response.body.len())?;
    w.write_all(response.body.as_bytes())?;
    w.flush()
}

fn error_response(err: &RequestError) -> Option<Response> {
    match err {
        RequestError::Io(_) | RequestError::Closed => None,
        RequestError::Malformed(what) => {
            Some(Response::new("400 Bad Request", "text/plain", format!("bad request: {what}\n")))
        }
        RequestError::TooLarge("body") => {
            Some(Response::new("413 Payload Too Large", "text/plain", "body too large\n"))
        }
        RequestError::TooLarge(what) => Some(Response::new(
            "431 Request Header Fields Too Large",
            "text/plain",
            format!("{what} too long\n"),
        )),
    }
}

fn handle_conn<F>(stream: &mut TcpStream, handler: &F)
where
    F: Fn(&Request) -> Response,
{
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        return;
    }
    let Ok(clone) = stream.try_clone() else { return };
    let mut reader = BufReader::new(clone);
    let response = match read_request(&mut reader, &Limits::default()) {
        Ok(req) => handler(&req),
        Err(e) => match error_response(&e) {
            Some(r) => r,
            None => return,
        },
    };
    // A peer that vanished mid-response is its own problem.
    let _ = write_response(stream, &response);
}

/// A running HTTP server; dropping the handle leaks the accept thread,
/// so call [`Server::stop`] for a clean shutdown.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

impl Server {
    /// The bound address (useful with port 0 = ephemeral).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept thread. Connection threads
    /// already handling a request finish on their own.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        // Self-connect to wake the blocking accept loop.
        let _ = TcpStream::connect(self.addr);
        let _ = self.handle.join();
    }
}

/// Bind `127.0.0.1:port` (0 = ephemeral) and serve requests with
/// `handler` until [`Server::stop`]. Each accepted connection runs on
/// its own short-lived thread, so one stalled or slow client never
/// delays another ([`READ_TIMEOUT`] bounds how long it can hold its
/// thread). `name` labels the accept and connection threads.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve<F>(port: u16, name: &str, handler: F) -> io::Result<Server>
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handler = Arc::new(handler);
    let conn_name = format!("{name}-conn");
    let handle = std::thread::Builder::new().name(format!("{name}-accept")).spawn(move || {
        for conn in listener.incoming() {
            if stop2.load(Ordering::Relaxed) {
                break;
            }
            let Ok(mut stream) = conn else { continue };
            let handler = Arc::clone(&handler);
            // One thread per connection: accepts never wait on a
            // client's read timeout. On spawn failure the stream is
            // dropped (connection refused-by-close) — strictly better
            // than blocking every later client behind it.
            let _ = std::thread::Builder::new().name(conn_name.clone()).spawn(move || {
                handle_conn(&mut stream, &*handler);
            });
        }
    })?;
    Ok(Server { addr, stop, handle })
}

/// Minimal HTTP/1.1 GET client for tests and smoke scripts: returns
/// `(status code, body)`.
///
/// # Errors
///
/// Propagates connect/read errors; malformed responses surface as
/// `InvalidData`.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    request(addr, &format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"))
}

/// Minimal HTTP/1.1 POST client: sends `body` with the given content
/// type, returns `(status code, body)`.
///
/// # Errors
///
/// Propagates connect/read errors; malformed responses surface as
/// `InvalidData`.
pub fn post(addr: SocketAddr, path: &str, ctype: &str, body: &str) -> io::Result<(u16, String)> {
    request(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: {ctype}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn request(addr: SocketAddr, raw: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.write_all(raw.as_bytes())?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header terminator"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &[u8]) -> Result<Request, RequestError> {
        read_request(&mut Cursor::new(raw.to_vec()), &Limits::default())
    }

    #[test]
    fn request_line_parses() {
        assert_eq!(parse_request_line("GET /metrics HTTP/1.1"), Some(("GET", "/metrics")));
        assert_eq!(parse_request_line("POST /x HTTP/1.0"), Some(("POST", "/x")));
        assert_eq!(parse_request_line("GET /metrics"), None);
        assert_eq!(parse_request_line("GET /a b HTTP/1.1"), None);
        assert_eq!(parse_request_line("GET /metrics SPDY/3"), None);
        assert_eq!(parse_request_line(" / HTTP/1.1"), None);
        assert_eq!(parse_request_line(""), None);
    }

    #[test]
    fn well_formed_requests_parse() {
        let req = parse(b"GET /status HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/status");
        assert_eq!(req.body, "");

        let req = parse(b"POST /analyze HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, "{\"a\"");

        // Bare-LF line endings are tolerated.
        let req = parse(b"GET /m HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(req.path, "/m");
    }

    #[test]
    fn malformed_requests_are_rejected_not_panicked() {
        for raw in [
            &b"\r\n\r\n"[..],
            b"GARBAGE\r\n\r\n",
            b"GET /x\r\n\r\n",
            b"GET /x HTTP/2 extra\r\n\r\n",
            b"\xff\xfe\xfd binary HTTP/1.1\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: -3\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(RequestError::Malformed(_))),
                "expected Malformed for {raw:?}"
            );
        }
        // Clean disconnect before any bytes.
        assert!(matches!(parse(b""), Err(RequestError::Closed)));
        // Truncated header block (EOF before the blank line).
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nHost: x\r\n"),
            Err(RequestError::Malformed("headers"))
        ));
    }

    #[test]
    fn oversized_inputs_hit_limits_without_unbounded_buffering() {
        // Request line far beyond the cap, never newline-terminated:
        // the slow-loris payload shape.
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 64 * 1024));
        assert!(matches!(parse(&raw), Err(RequestError::TooLarge("request line"))));

        // One enormous header line.
        let mut raw = b"GET /x HTTP/1.1\r\nX-Big: ".to_vec();
        raw.extend(std::iter::repeat_n(b'b', 64 * 1024));
        raw.extend(b"\r\n\r\n");
        assert!(matches!(parse(&raw), Err(RequestError::TooLarge("header line"))));

        // Many small headers adding up past the total cap.
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        for i in 0..9000 {
            raw.extend(format!("X-{i}: y\r\n").into_bytes());
        }
        raw.extend(b"\r\n");
        assert!(matches!(parse(&raw), Err(RequestError::TooLarge("headers"))));

        // Declared body beyond the cap is refused before reading it.
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        assert!(matches!(parse(raw), Err(RequestError::TooLarge("body"))));
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(matches!(parse(raw), Err(RequestError::Io(_))));
    }

    #[test]
    fn fuzz_random_bytes_never_panic() {
        // Deterministic xorshift garbage: the parser must return (any
        // verdict is fine) without panicking or over-allocating.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [0usize, 1, 7, 64, 512, 4096] {
            for _ in 0..50 {
                let raw: Vec<u8> = (0..len).map(|_| (next() & 0xff) as u8).collect();
                let _ = parse(&raw);
                // Same bytes with an HTTP-ish prefix exercise the
                // header path.
                let mut pre = b"GET /x HTTP/1.1\r\n".to_vec();
                pre.extend_from_slice(&raw);
                let _ = parse(&pre);
            }
        }
    }

    #[test]
    fn server_roundtrip_get_and_post() {
        let server = serve(0, "http-test", |req| match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/ping") => Response::ok("text/plain", "pong"),
            ("POST", "/echo") => Response::json(req.body.clone()),
            _ => Response::new("404 Not Found", "text/plain", "nope"),
        })
        .unwrap();
        let addr = server.addr();
        assert_eq!(get(addr, "/ping").unwrap(), (200, "pong".to_string()));
        assert_eq!(get(addr, "/other").unwrap(), (404, "nope".to_string()));
        assert_eq!(
            post(addr, "/echo", "application/json", "{\"k\":1}").unwrap(),
            (200, "{\"k\":1}".to_string())
        );
        server.stop();
    }

    #[test]
    fn stalled_connection_does_not_delay_other_requests() {
        let server = serve(0, "http-loris", |_| Response::ok("text/plain", "ok")).unwrap();
        let addr = server.addr();
        // Slow-loris: connect and send nothing. Hold the connection
        // open across the concurrent request below.
        let stalled = TcpStream::connect(addr).unwrap();
        // Another stalled client that sends a partial request line and
        // then goes quiet.
        let mut partial = TcpStream::connect(addr).unwrap();
        partial.write_all(b"GET /pa").unwrap();
        partial.flush().unwrap();

        let t0 = std::time::Instant::now();
        let (status, body) = get(addr, "/x").unwrap();
        let elapsed = t0.elapsed();
        assert_eq!((status, body.as_str()), (200, "ok"));
        assert!(
            elapsed < Duration::from_secs(2),
            "scrape stalled behind a slow-loris connection: {elapsed:?}"
        );
        drop(stalled);
        drop(partial);
        server.stop();
    }

    #[test]
    fn abrupt_disconnect_mid_response_does_not_kill_the_server() {
        let server =
            serve(0, "http-drop", |_| Response::ok("text/plain", "x".repeat(1 << 20))).unwrap();
        let addr = server.addr();
        for _ in 0..3 {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /big HTTP/1.1\r\n\r\n").unwrap();
            // Close without reading the 1 MiB response: unread bytes
            // at close turn into RST, so the server's write path sees
            // ECONNRESET/EPIPE mid-response.
            drop(s);
        }
        // The server keeps answering after the aborted writes.
        let (status, body) = get(addr, "/big").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.len(), 1 << 20);
        server.stop();
    }

    #[test]
    fn requests_split_across_many_tcp_writes_still_parse() {
        let server =
            serve(0, "http-partial", |req| Response::ok("text/plain", req.body.clone())).unwrap();
        let addr = server.addr();
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        let raw = b"POST /slow HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        for chunk in raw.chunks(7) {
            s.write_all(chunk).unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.ends_with("hello"), "bad response: {out}");
        server.stop();
    }
}
