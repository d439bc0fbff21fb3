//! The HTTP/1.1 codec: the one module that knows how a message is framed.
//!
//! Every reader in the workspace — the event core's incremental parser,
//! [`HttpLlmClient`](super::HttpLlmClient), the load generator, the router's
//! health prober and the fleet plane — frames messages through this module,
//! so they all apply the same rules to untrusted bytes:
//!
//! - the head (start line and headers) may span at most
//!   [`MAX_HEADER_BYTES`], and a declared body at most [`MAX_BODY_BYTES`];
//!   an over-limit body is rejected from its `Content-Length` alone, before
//!   anything is allocated for it;
//! - header names match case-insensitively, values keep their bytes;
//! - an unparseable or conflicting duplicate `Content-Length` is rejected,
//!   never read as "no body" — otherwise the next message on a kept-alive
//!   connection would be misframed;
//! - lines may end in CRLF or a bare LF.
//!
//! [`parse`] reads a message off the front of a byte buffer and is what the
//! nonblocking event core calls as bytes arrive; [`read_message`] is the
//! blocking form over any [`BufRead`], built on the same head parser.

use nl2vis_obs as obs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Most bytes a message head (start line, headers and the blank line that
/// ends them) may occupy: far above any legitimate head, far below a memory
/// threat.
pub const MAX_HEADER_BYTES: usize = 64 * 1024;

/// Largest body either side will buffer. Prompts run to tens of kilobytes;
/// anything past this is a protocol violation, not a bigger prompt.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Which way a message travels; decides how its start line reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `METHOD target HTTP/1.1`
    Request,
    /// `HTTP/1.1 status reason`
    Response,
}

/// A parsed message head: the start line and the headers the workspace
/// acts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Head {
    /// Request method; empty for a response.
    pub method: String,
    /// Request target; empty for a response.
    pub path: String,
    /// Response status; 0 for a request.
    pub status: u16,
    /// Declared body length, at most [`MAX_BODY_BYTES`]; 0 without a
    /// `Content-Length` header.
    pub content_length: usize,
    /// Did the `Connection` header ask for keep-alive? Absent means no:
    /// the server is close-by-default despite HTTP/1.1's persistent
    /// default, so raw-socket callers that read to EOF keep working.
    pub keep_alive: bool,
    /// `Retry-After` in seconds, fractional allowed (see
    /// [`render_response`]). An unparseable value reads as absent.
    pub retry_after: Option<Duration>,
    /// Trace context from the `X-Nl2vis-Trace-Id` / `X-Nl2vis-Parent-Span`
    /// headers, when the sender propagated one.
    pub trace: Option<obs::TraceContext>,
}

/// One complete message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Start line and headers.
    pub head: Head,
    /// Exactly `head.content_length` bytes.
    pub body: Vec<u8>,
}

impl Message {
    /// The body as text; invalid UTF-8 is replaced, never an error.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Bytes that are not a well-formed message, or that break a size limit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Malformed {
    /// The status a server answers with: 413 for an over-limit body, 400
    /// for everything else.
    pub status: u16,
    /// What was wrong, for the error body.
    pub message: String,
}

impl Malformed {
    /// A `400 Bad Request` verdict.
    pub fn new(message: impl Into<String>) -> Malformed {
        Malformed {
            status: 400,
            message: message.into(),
        }
    }
}

/// Why a message could not be read.
#[derive(Debug)]
pub enum Cause {
    /// The peer closed the connection before the message was complete.
    Closed,
    /// A socket operation failed, including an expired deadline.
    Io(std::io::Error),
    /// The bytes are not a well-formed message, or break a limit.
    Malformed(Malformed),
}

/// A failed blocking exchange, with how far it got — the facts a caller's
/// retry policy turns on.
#[derive(Debug)]
pub struct Error {
    /// What went wrong.
    pub cause: Cause,
    /// Had any byte of the message arrived? A close or reset before the
    /// first byte is the signature of a pooled socket the peer dropped
    /// while it sat idle ([`Error::is_stale`]); after it, the peer has
    /// demonstrably seen the request.
    pub started: bool,
    /// Response status, when the status line arrived whole before the
    /// failure. The status alone carries a `429` verdict, so it counts even
    /// when the rest of the response is cut off.
    pub status: Option<u16>,
    /// `Retry-After` of a response whose head arrived whole before the
    /// failure.
    pub retry_after: Option<Duration>,
}

impl Error {
    /// A failure before any byte of the message arrived.
    pub fn io(error: std::io::Error) -> Error {
        Error {
            cause: Cause::Io(error),
            started: false,
            status: None,
            retry_after: None,
        }
    }

    /// Did the peer close or reset the connection before sending a single
    /// byte? On a reused connection that means it dropped the socket while
    /// idle, before the request reached it, so replaying the request on a
    /// fresh connection is safe.
    pub fn is_stale(&self) -> bool {
        !self.started
            && match &self.cause {
                Cause::Closed => true,
                Cause::Io(e) => matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::ConnectionAborted
                        | std::io::ErrorKind::BrokenPipe
                        | std::io::ErrorKind::UnexpectedEof
                ),
                Cause::Malformed(_) => false,
            }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.cause, self.started) {
            (Cause::Closed, false) => write!(f, "connection closed before the message"),
            (Cause::Closed, true) => write!(f, "connection closed mid-message"),
            (Cause::Io(e), _) => write!(f, "io: {e}"),
            (Cause::Malformed(m), _) => write!(f, "malformed message: {}", m.message),
        }
    }
}

impl std::error::Error for Error {}

/// Extracts a header value from one `Name: value` line when the *name*
/// matches `name` case-insensitively (RFC 9110 §5.1 — field names are
/// case-insensitive). The value is returned from the original line,
/// whitespace-trimmed but otherwise byte-for-byte: header values are NOT
/// case-insensitive, and folding them silently corrupts case-sensitive
/// payloads like trace ids.
pub fn header_value<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let (field, value) = line.split_once(':')?;
    if field.trim().eq_ignore_ascii_case(name) {
        Some(value.trim())
    } else {
        None
    }
}

/// Does a `Connection:` header value ask for keep-alive? The value is a
/// comma-separated token list (`keep-alive, TE`), so membership is tested
/// per token, case-insensitively — exact-equality matching would read any
/// multi-token list as "close". A list naming both tokens closes: `close`
/// is the stronger directive.
pub fn connection_keeps_alive(value: &str) -> bool {
    let mut keep = false;
    for token in value.split(',') {
        let token = token.trim();
        if token.eq_ignore_ascii_case("close") {
            return false;
        }
        if token.eq_ignore_ascii_case("keep-alive") {
            keep = true;
        }
    }
    keep
}

/// Finds the blank line that ends the head within the first
/// [`MAX_HEADER_BYTES`] of `buf`: `(head_end, body_start)`, where
/// `head_end` is one past the last header line's `\n`.
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    let window = &buf[..buf.len().min(MAX_HEADER_BYTES)];
    for (i, &byte) in window.iter().enumerate() {
        if byte != b'\n' {
            continue;
        }
        match window.get(i + 1..) {
            Some([b'\n', ..]) => return Some((i + 1, i + 2)),
            Some([b'\r', b'\n', ..]) => return Some((i + 1, i + 3)),
            _ => {}
        }
    }
    None
}

/// Parses a start line: `(method, path, status)`.
fn parse_start_line(line: &str, kind: Kind) -> Result<(String, String, u16), Malformed> {
    let mut parts = line.split_whitespace();
    match kind {
        Kind::Request => {
            if line.is_empty() {
                return Err(Malformed::new("empty request"));
            }
            let method = parts.next().unwrap_or("").to_string();
            let path = parts.next().unwrap_or("").to_string();
            Ok((method, path, 0))
        }
        Kind::Response => {
            let status = parts
                .nth(1)
                .and_then(|s| s.parse::<u16>().ok())
                .ok_or_else(|| Malformed::new(format!("bad status line `{line}`")))?;
            Ok((String::new(), String::new(), status))
        }
    }
}

/// Parses a complete head: the bytes up to, not including, the blank line.
fn parse_head(raw: &[u8], kind: Kind) -> Result<Head, Malformed> {
    let text = String::from_utf8_lossy(raw);
    let mut lines = text.split('\n').map(str::trim_end);
    let (method, path, status) = parse_start_line(lines.next().unwrap_or(""), kind)?;
    let mut content_length: Option<usize> = None;
    let mut keep_alive = false;
    let mut retry_after = None;
    let mut trace_id: Option<&str> = None;
    let mut parent_span: Option<&str> = None;
    for line in lines {
        if let Some(v) = header_value(line, "content-length") {
            let parsed = v
                .parse::<usize>()
                .map_err(|_| Malformed::new(format!("malformed content-length: `{v}`")))?;
            if content_length.is_some_and(|prev| prev != parsed) {
                return Err(Malformed::new(
                    "conflicting duplicate content-length headers",
                ));
            }
            content_length = Some(parsed);
        } else if let Some(v) = header_value(line, "connection") {
            keep_alive = connection_keeps_alive(v);
        } else if let Some(v) = header_value(line, "retry-after") {
            retry_after = v
                .parse::<f64>()
                .ok()
                .and_then(|s| Duration::try_from_secs_f64(s).ok());
        } else if let Some(v) = header_value(line, "x-nl2vis-trace-id") {
            trace_id = Some(v);
        } else if let Some(v) = header_value(line, "x-nl2vis-parent-span") {
            parent_span = Some(v);
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(Malformed {
            status: 413,
            message: format!(
                "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            ),
        });
    }
    Ok(Head {
        method,
        path,
        status,
        content_length,
        keep_alive,
        retry_after,
        trace: obs::TraceContext::from_headers(trace_id, parent_span),
    })
}

/// Parses the head at the front of `buf`: `None` while the blank line
/// that ends it has not arrived, else the head and the body's offset.
fn parse_head_of(buf: &[u8], kind: Kind) -> Result<Option<(Head, usize)>, Malformed> {
    match find_head_end(buf) {
        Some((head_end, body_start)) => Ok(Some((parse_head(&buf[..head_end], kind)?, body_start))),
        None if buf.len() >= MAX_HEADER_BYTES => Err(Malformed::new(format!(
            "header block exceeds the {MAX_HEADER_BYTES}-byte limit"
        ))),
        None => Ok(None),
    }
}

/// Parses one message off the front of `buf`. Returns `None` while `buf`
/// holds only a prefix of a message, else the message and the number of
/// bytes it spans; bytes past that belong to the next message. The
/// verdict on a prefix never changes as more bytes arrive, so a caller may
/// call this after every read.
pub fn parse(buf: &[u8], kind: Kind) -> Result<Option<(Message, usize)>, Malformed> {
    let Some((head, body_start)) = parse_head_of(buf, kind)? else {
        return Ok(None);
    };
    let end = body_start + head.content_length;
    if buf.len() < end {
        return Ok(None);
    }
    let body = buf[body_start..end].to_vec();
    Ok(Some((Message { head, body }, end)))
}

/// Reads one message from `reader`, consuming exactly its bytes: a
/// pipelined successor stays buffered for the next call.
pub fn read_message<R: BufRead>(reader: &mut R, kind: Kind) -> Result<Message, Error> {
    // The head: never more than MAX_HEADER_BYTES buffered.
    let mut buf: Vec<u8> = Vec::new();
    let head = loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(failure(Cause::Io(e), &buf, kind)),
        };
        if chunk.is_empty() {
            return Err(failure(Cause::Closed, &buf, kind));
        }
        let seen = buf.len();
        let take = chunk.len().min(MAX_HEADER_BYTES - seen);
        buf.extend_from_slice(&chunk[..take]);
        match parse_head_of(&buf, kind) {
            Ok(Some((head, body_start))) => {
                reader.consume(body_start - seen);
                break head;
            }
            Ok(None) => reader.consume(take),
            Err(bad) => return Err(failure(Cause::Malformed(bad), &buf, kind)),
        }
    };
    // The body: exactly the declared length, already checked against
    // MAX_BODY_BYTES.
    let mut body = Vec::new();
    body.reserve_exact(head.content_length);
    let read = reader
        .take(head.content_length as u64)
        .read_to_end(&mut body);
    let cause = match read {
        Ok(n) if n == head.content_length => return Ok(Message { head, body }),
        Ok(_) => Cause::Closed,
        Err(e) => Cause::Io(e),
    };
    Err(Error {
        cause,
        started: true,
        status: (kind == Kind::Response).then_some(head.status),
        retry_after: head.retry_after,
    })
}

/// The error for a read that stopped inside the head, recovering the
/// status from a status line that arrived whole.
fn failure(cause: Cause, buf: &[u8], kind: Kind) -> Error {
    let status = match (kind, buf.iter().position(|&b| b == b'\n')) {
        (Kind::Response, Some(eol)) => {
            parse_start_line(String::from_utf8_lossy(&buf[..eol]).trim_end(), kind)
                .ok()
                .map(|(_, _, status)| status)
        }
        _ => None,
    };
    Error {
        cause,
        started: !buf.is_empty(),
        status,
        retry_after: None,
    }
}

/// Serializes one request. `Connection` always states the sender's intent,
/// and a propagated trace travels as the `X-Nl2vis-*` header pair.
pub fn render_request(
    method: &str,
    path: &str,
    host: SocketAddr,
    body: &str,
    keep_alive: bool,
    trace: Option<obs::TraceContext>,
) -> String {
    let content_type = if body.is_empty() {
        ""
    } else {
        "Content-Type: application/json\r\n"
    };
    let trace = match trace {
        Some(ctx) => format!(
            "X-Nl2vis-Trace-Id: {}\r\nX-Nl2vis-Parent-Span: {}\r\n",
            ctx.trace_header(),
            ctx.parent_header()
        ),
        None => String::new(),
    };
    format!(
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\n{content_type}Content-Length: {}\r\nConnection: {}\r\n{trace}\r\n{body}",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    )
}

/// Serializes one complete response. Every server-side writer — worker
/// responses, shed and error paths, the fleet frontend — emits these bytes.
pub fn render_response(
    status: u16,
    body: &str,
    content_type: &str,
    keep_alive: bool,
    retry_after: Option<Duration>,
) -> String {
    // Fractional seconds in Retry-After are a protocol extension over RFC
    // 9110 (which allows only whole seconds): local tests and benchmarks
    // shed with millisecond backoffs, and rounding them up to 1s would
    // serialize the whole recovery. The head parser reads either form.
    let retry_after = match retry_after {
        Some(backoff) => format!("Retry-After: {}\r\n", backoff.as_secs_f64()),
        None => String::new(),
    };
    format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{retry_after}Connection: {}\r\n\r\n{body}",
        match status {
            200 => "OK",
            404 => "Not Found",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            _ => "Bad Request",
        },
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    )
}

/// One blocking `GET` on a fresh connection, every socket operation under
/// `timeout`. Sends `Connection: close`, so probe and scrape sockets never
/// linger in a server's keep-alive table.
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> Result<Message, Error> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout).map_err(Error::io)?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .and_then(|()| {
            stream.write_all(render_request("GET", path, addr, "", false, None).as_bytes())
        })
        .map_err(Error::io)?;
    read_message(&mut BufReader::new(stream), Kind::Response)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(raw: &str, kind: Kind) -> Result<Option<(Message, usize)>, Malformed> {
        parse(raw.as_bytes(), kind)
    }

    #[test]
    fn request_head_and_body_parse_and_report_their_span() {
        let raw = "POST /v1/completions HTTP/1.1\r\nHost: x\r\nCONTENT-length: 5\r\nConnection: TE, Keep-Alive\r\nX-Nl2vis-Trace-Id: 42\r\nx-nl2vis-parent-span: 7\r\n\r\nhelloGET /next";
        let (message, used) = parse_all(raw, Kind::Request).unwrap().unwrap();
        assert_eq!(message.head.method, "POST");
        assert_eq!(message.head.path, "/v1/completions");
        assert_eq!(message.body, b"hello");
        assert!(message.head.keep_alive);
        assert_eq!(
            message.head.trace,
            Some(obs::TraceContext {
                trace_id: 42,
                parent_span_id: Some(7)
            })
        );
        assert_eq!(&raw[used..], "GET /next");
    }

    #[test]
    fn bare_lf_heads_and_prefixes() {
        let raw = "HTTP/1.1 429 Too Many Requests\nRetry-After: 0.05\nContent-Length: 2\n\nno";
        let (message, _) = parse_all(raw, Kind::Response).unwrap().unwrap();
        assert_eq!(message.head.status, 429);
        assert_eq!(message.head.retry_after, Some(Duration::from_millis(50)));
        assert!(!message.head.keep_alive, "no Connection header: close");
        for cut in 0..raw.len() {
            assert_eq!(parse_all(&raw[..cut], Kind::Response), Ok(None), "{cut}");
        }
    }

    #[test]
    fn content_length_must_be_one_number_within_the_limit() {
        let head = |extra: &str| format!("GET / HTTP/1.1\r\n{extra}\r\n\r\n");
        let reject = |extra: &str| parse_all(&head(extra), Kind::Request).unwrap_err();
        assert_eq!(
            reject("Content-Length: banana").message,
            "malformed content-length: `banana`"
        );
        assert_eq!(reject("Content-Length: -1").status, 400);
        assert_eq!(
            reject("Content-Length: 2\r\nContent-Length: 3").message,
            "conflicting duplicate content-length headers"
        );
        assert_eq!(
            reject("Content-Length: 99999999999999999999999").status,
            400
        );
        assert_eq!(
            reject(&format!("Content-Length: {}", MAX_BODY_BYTES + 1)).status,
            413
        );
        // An agreeing duplicate is harmless.
        let agreeing = format!("{}ab", head("Content-Length: 2\r\ncontent-length: 2"));
        assert!(parse_all(&agreeing, Kind::Request).unwrap().is_some());
    }

    #[test]
    fn head_over_the_limit_is_rejected_once_the_window_fills() {
        let mut raw = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.resize(MAX_HEADER_BYTES - 1, b'a');
        assert_eq!(parse(&raw, Kind::Request), Ok(None));
        raw.push(b'a');
        assert_eq!(parse(&raw, Kind::Request).unwrap_err().status, 400);
    }

    #[test]
    fn unusable_retry_after_reads_as_absent() {
        for value in ["soon", "-1", "1e300", "NaN", "inf"] {
            let raw = format!("HTTP/1.1 429 X\r\nRetry-After: {value}\r\n\r\n");
            let (message, _) = parse_all(&raw, Kind::Response).unwrap().unwrap();
            assert_eq!(message.head.retry_after, None, "{value}");
        }
    }

    #[test]
    fn read_message_leaves_a_pipelined_successor_buffered() {
        let raw = render_response(200, "one", "text/plain", true, None)
            + &render_response(404, "two", "text/plain", false, None);
        let mut reader = BufReader::with_capacity(7, raw.as_bytes());
        let first = read_message(&mut reader, Kind::Response).unwrap();
        let second = read_message(&mut reader, Kind::Response).unwrap();
        assert_eq!((first.head.status, first.text()), (200, "one".to_string()));
        assert_eq!(
            (second.head.status, second.text()),
            (404, "two".to_string())
        );
        let end = read_message(&mut reader, Kind::Response).unwrap_err();
        assert!(matches!(end.cause, Cause::Closed) && end.is_stale());
    }

    #[test]
    fn truncation_after_the_status_line_keeps_the_status() {
        let raw =
            "HTTP/1.1 429 Too Many Requests\r\nRetry-After: 0.5\r\nContent-Length: 40\r\n\r\nshort";
        let e = read_message(&mut raw.as_bytes(), Kind::Response).unwrap_err();
        assert!(matches!(e.cause, Cause::Closed) && e.started && !e.is_stale());
        assert_eq!(e.status, Some(429));
        assert_eq!(e.retry_after, Some(Duration::from_millis(500)));
        let e = read_message(&mut &raw.as_bytes()[..40], Kind::Response).unwrap_err();
        assert_eq!((e.status, e.retry_after), (Some(429), None));
        let e = read_message(&mut &raw.as_bytes()[..10], Kind::Response).unwrap_err();
        assert_eq!(e.status, None);
    }

    #[test]
    fn rendered_requests_parse_back() {
        let ctx = obs::TraceContext {
            trace_id: 9,
            parent_span_id: None,
        };
        let addr: SocketAddr = "127.0.0.1:80".parse().unwrap();
        let raw = render_request("POST", "/v1/completions", addr, "{}", true, Some(ctx));
        let (message, used) = parse_all(&raw, Kind::Request).unwrap().unwrap();
        assert_eq!(used, raw.len());
        assert_eq!(message.body, b"{}");
        assert!(message.head.keep_alive);
        assert_eq!(message.head.trace, Some(ctx));
    }

    #[test]
    fn render_response_bytes_are_pinned() {
        assert_eq!(
            render_response(
                429,
                "{}",
                "application/json",
                true,
                Some(Duration::from_millis(50))
            ),
            "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\nContent-Length: 2\r\nRetry-After: 0.05\r\nConnection: keep-alive\r\n\r\n{}"
        );
        assert_eq!(
            render_response(502, "x", "text/plain", false, None),
            "HTTP/1.1 502 Bad Request\r\nContent-Type: text/plain\r\nContent-Length: 1\r\nConnection: close\r\n\r\nx"
        );
    }
}
