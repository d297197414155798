//! A minimal hand-rolled HTTP/1.1 codec — exactly the slice of the
//! protocol the service needs (the registry is unreachable, so no hyper;
//! see `vendor/README.md` for the offline-dependency policy).
//!
//! The core is [`RequestParser`], a *resumable* feed-bytes parser: the
//! event loop pushes whatever bytes the socket happens to have
//! ([`RequestParser::feed`]) and pulls zero or more complete requests
//! ([`RequestParser::next_request`]) — a request split across any number
//! of reads (slowloris, slow links) parses identically to one arriving
//! whole, and bytes beyond a request boundary stay buffered for HTTP/1.1
//! pipelining. Responses go out through [`write_response`] (framed by
//! `Content-Length`) or, for the streamed `/sweep` body, a
//! [`write_stream_head`] followed by EOF-framed bytes.
//!
//! Supported: request line + headers, `Content-Length` bodies, keep-alive
//! (`Connection: close` honored both ways), hard limits on header and body
//! sizes so untrusted input cannot balloon memory.

use std::io::{self, Write};

/// Longest accepted request line or header line, in bytes.
pub const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body, in bytes (a full Llama-3-8B model spec
/// is ~25 KB; 4 MB leaves two orders of magnitude of headroom).
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercased by the client.
    pub method: String,
    /// Request path, e.g. `/simulate` (query strings are not split off).
    pub path: String,
    /// Header name/value pairs; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the peer asked to close the connection after this exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Where the parser is inside the current request.
#[derive(Debug)]
enum ParseState {
    /// Between requests / partway through a request line.
    RequestLine,
    /// Request line done, accumulating headers.
    Headers {
        method: String,
        path: String,
        headers: Vec<(String, String)>,
    },
    /// Headers done, waiting for `length` body bytes.
    Body {
        method: String,
        path: String,
        headers: Vec<(String, String)>,
        length: usize,
    },
}

/// The resumable request parser: an input buffer plus a state machine.
///
/// Feed bytes as they arrive, then drain complete requests; the parser
/// never blocks and never over-consumes — bytes past a request boundary
/// remain buffered for the next request (pipelining). After an error the
/// parser is poisoned (the stream is unframed garbage); callers close the
/// connection.
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted lazily).
    start: usize,
    state: ParseState,
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestParser {
    /// A parser with an empty buffer, ready for the first request.
    pub fn new() -> RequestParser {
        RequestParser {
            buf: Vec::new(),
            start: 0,
            state: ParseState::RequestLine,
        }
    }

    /// Appends raw socket bytes to the input buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a completed request.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// `true` when the parser sits exactly on a request boundary — no
    /// buffered bytes, no partial request. EOF here is a clean keep-alive
    /// end; EOF anywhere else is a truncated request.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, ParseState::RequestLine) && self.buffered() == 0
    }

    /// Tries to complete one request from the buffered bytes.
    ///
    /// `Ok(Some(..))` yields a request (leftover bytes stay buffered);
    /// `Ok(None)` means more bytes are needed; `Err` means the stream is
    /// not valid HTTP (close the connection — the parser cannot resync).
    pub fn next_request(&mut self) -> io::Result<Option<Request>> {
        loop {
            match &mut self.state {
                ParseState::RequestLine => {
                    let Some(line) = self.take_line()? else {
                        self.compact();
                        return Ok(None);
                    };
                    let mut parts = line.split_whitespace();
                    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
                        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
                        _ => return Err(bad_input("malformed request line")),
                    };
                    if !version.starts_with("HTTP/1.") {
                        return Err(bad_input("unsupported HTTP version"));
                    }
                    self.state = ParseState::Headers {
                        method,
                        path,
                        headers: Vec::new(),
                    };
                }
                ParseState::Headers { headers, .. } => {
                    let at_cap = headers.len() >= MAX_HEADERS;
                    let Some(line) = self.take_line()? else {
                        self.compact();
                        return Ok(None);
                    };
                    if line.is_empty() {
                        let ParseState::Headers {
                            method,
                            path,
                            headers,
                        } = std::mem::replace(&mut self.state, ParseState::RequestLine)
                        else {
                            unreachable!()
                        };
                        let length = content_length(&headers)?;
                        self.state = ParseState::Body {
                            method,
                            path,
                            headers,
                            length,
                        };
                    } else {
                        if at_cap {
                            return Err(bad_input("too many headers"));
                        }
                        let (name, value) = line
                            .split_once(':')
                            .ok_or_else(|| bad_input("malformed header"))?;
                        let header = (name.to_ascii_lowercase(), value.trim().to_string());
                        let ParseState::Headers { headers, .. } = &mut self.state else {
                            unreachable!()
                        };
                        headers.push(header);
                    }
                }
                ParseState::Body { length, .. } => {
                    let length = *length;
                    if self.buffered() < length {
                        self.compact();
                        return Ok(None);
                    }
                    let ParseState::Body {
                        method,
                        path,
                        headers,
                        length,
                    } = std::mem::replace(&mut self.state, ParseState::RequestLine)
                    else {
                        unreachable!()
                    };
                    let body = self.buf[self.start..self.start + length].to_vec();
                    self.start += length;
                    self.compact();
                    return Ok(Some(Request {
                        method,
                        path,
                        headers,
                        body,
                    }));
                }
            }
        }
    }

    /// Extracts one CRLF- (or LF-) terminated line from the buffer, or
    /// `None` if no full line is buffered yet. Enforces `MAX_LINE` on both
    /// complete and still-accumulating lines (slowloris cannot grow an
    /// unbounded header line byte by byte).
    fn take_line(&mut self) -> io::Result<Option<String>> {
        let pending = &self.buf[self.start..];
        let Some(nl) = pending.iter().position(|&b| b == b'\n') else {
            if pending.len() > MAX_LINE {
                return Err(bad_input("line too long"));
            }
            return Ok(None);
        };
        let mut line = &pending[..nl];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        if line.len() > MAX_LINE {
            return Err(bad_input("line too long"));
        }
        let text = std::str::from_utf8(line)
            .map_err(|_| bad_input("non-utf8 line"))?
            .to_string();
        self.start += nl + 1;
        Ok(Some(text))
    }

    /// Drops the consumed prefix once it dominates the buffer.
    fn compact(&mut self) {
        if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// Validates framing headers and returns the body length (RFC 9112 §6.3
/// request-smuggling hardening — see the rejection comments inline).
fn content_length(headers: &[(String, String)]) -> io::Result<usize> {
    // This parser only frames bodies by Content-Length, so any
    // Transfer-Encoding header is rejected — honoring CL while a TE-aware
    // intermediary honors chunked framing is the classic CL.TE desync, and
    // silently ignoring TE would leave the chunked body bytes in the
    // stream as a forged next request.
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(bad_input("transfer-encoding not supported"));
    }
    // Likewise a request carrying more than one `Content-Length` header is
    // rejected outright — even when the values agree — rather than
    // trusting whichever copy a downstream peer might pick.
    let mut content_length = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        if content_length.is_some() {
            return Err(bad_input("duplicate content-length"));
        }
        content_length = Some(parse_length(v).ok_or_else(|| bad_input("bad content-length"))?);
    }
    let length = content_length.unwrap_or(0);
    if length > MAX_BODY {
        return Err(bad_input("body too large"));
    }
    Ok(length)
}

/// Parses a (trimmed) `Content-Length` value: RFC 9112's `1*DIGIT` and
/// nothing else — no sign, no hex — and `None` past `usize`.
/// Request and response framing both go through this, so the server and
/// the client agree on what a length is.
pub(crate) fn parse_length(value: &str) -> Option<usize> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    value.parse().ok()
}

fn bad_input(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The reason phrase for the status codes the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// Writes one `Content-Length`-framed response. `close` adds
/// `Connection: close`; each `extra` pair becomes one additional header
/// line (e.g. `retry-after` on backpressure 503s, `x-bbs-trace`).
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    body: &str,
    close: bool,
    extra: &[(&str, &str)],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
    );
    push_headers(&mut head, extra);
    if close {
        head.push_str("connection: close\r\n");
    }
    write!(stream, "{head}\r\n{body}")?;
    stream.flush()
}

/// Writes the head of a streamed response: no `Content-Length`, always
/// `Connection: close`, so the body is EOF-framed (the `/sweep` NDJSON
/// stream — record sizes are unknown up front). `extra` as in
/// [`write_response`] (the stream's `x-bbs-trace`).
pub fn write_stream_head<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    extra: &[(&str, &str)],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\n",
        status,
        reason(status),
        content_type
    );
    push_headers(&mut head, extra);
    head.push_str("connection: close\r\n\r\n");
    write!(stream, "{head}")?;
    stream.flush()
}

fn push_headers(head: &mut String, extra: &[(&str, &str)]) {
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `raw` as a whole stream: `Ok(None)` for a clean end between
    /// requests, an error for one cut off mid-request.
    fn parse(raw: &str) -> io::Result<Option<Request>> {
        let mut parser = RequestParser::new();
        parser.feed(raw.as_bytes());
        match parser.next_request()? {
            None if !parser.is_idle() => Err(bad_input("eof mid-request")),
            request => Ok(request),
        }
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse("POST /simulate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/simulate");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_get_without_body_and_lf_only_lines() {
        let req = parse("GET /stats HTTP/1.1\nConnection: close\n\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        assert!(req.wants_close());
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("garbage\r\n\r\n").is_err());
        assert!(parse("GET / SPDY/3\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n").is_err());
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err());
    }

    #[test]
    fn rejects_oversized_input() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE + 1));
        assert!(parse(&long).is_err());
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(parse(&huge).is_err());
        let many = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "a: b\r\n".repeat(MAX_HEADERS + 1)
        );
        assert!(parse(&many).is_err());
    }

    #[test]
    fn truncated_body_is_an_error() {
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").is_err());
    }

    #[test]
    fn duplicate_content_length_is_rejected() {
        // Conflicting values: classic request-smuggling vector.
        let conflicting = "POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 2\r\n\r\nabcd";
        assert!(parse(conflicting).is_err());
        // Even agreeing duplicates are rejected — no second-guessing which
        // copy an intermediary would honor.
        let agreeing = "POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd";
        assert!(parse(agreeing).is_err());
        // Mixed case still counts as the same header.
        let mixed = "POST / HTTP/1.1\r\ncontent-length: 4\r\nCONTENT-LENGTH: 2\r\n\r\nabcd";
        assert!(parse(mixed).is_err());
        let err = parse(conflicting).unwrap_err();
        assert!(err.to_string().contains("duplicate content-length"));
    }

    #[test]
    fn transfer_encoding_is_rejected() {
        // CL.TE / TE-only desync vectors: this parser frames by
        // Content-Length exclusively, so TE-bearing requests get 400.
        let te_only = "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n";
        assert!(parse(te_only).is_err());
        let cl_te =
            "POST / HTTP/1.1\r\nContent-Length: 4\r\nTransfer-Encoding: chunked\r\n\r\nabcd";
        assert!(parse(cl_te).is_err());
        let identity = "GET / HTTP/1.1\r\ntransfer-encoding: identity\r\n\r\n";
        assert!(parse(identity).is_err());
    }

    #[test]
    fn empty_or_whitespace_content_length_is_rejected() {
        assert!(parse("POST / HTTP/1.1\r\nContent-Length:\r\n\r\n").is_err());
        assert!(parse("POST / HTTP/1.1\r\nContent-Length:   \r\n\r\n").is_err());
        // Signed and hex forms are not valid lengths either.
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n").is_err());
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: 0x10\r\n\r\n").is_err());
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: +4\r\n\r\nabcd").is_err());
        // A single well-formed zero-length header still parses.
        let req = parse("POST / HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.body.is_empty());
    }

    #[test]
    fn byte_at_a_time_feed_equals_whole_buffer() {
        // The slowloris shape: every byte arrives in its own read. The
        // resumable parser must land on the identical request.
        let wire = "POST /simulate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let mut parser = RequestParser::new();
        let mut dripped = None;
        for b in wire.as_bytes() {
            assert!(dripped.is_none(), "request completed early");
            parser.feed(&[*b]);
            dripped = parser.next_request().unwrap();
        }
        let dripped = dripped.expect("request completes on the last byte");
        let whole = parse(wire).unwrap().unwrap();
        assert_eq!(dripped.method, whole.method);
        assert_eq!(dripped.path, whole.path);
        assert_eq!(dripped.headers, whole.headers);
        assert_eq!(dripped.body, whole.body);
    }

    #[test]
    fn pipelined_requests_drain_in_order() {
        let wire = "GET /healthz HTTP/1.1\r\n\r\n\
                    POST /simulate HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi\
                    GET /stats HTTP/1.1\r\nconnection: close\r\n\r\n";
        let mut parser = RequestParser::new();
        parser.feed(wire.as_bytes());
        let a = parser.next_request().unwrap().unwrap();
        let b = parser.next_request().unwrap().unwrap();
        let c = parser.next_request().unwrap().unwrap();
        assert_eq!(
            (a.path.as_str(), b.path.as_str(), c.path.as_str()),
            ("/healthz", "/simulate", "/stats")
        );
        assert_eq!(b.body, b"hi");
        assert!(c.wants_close());
        assert!(parser.next_request().unwrap().is_none());
        assert!(parser.is_idle());
    }

    #[test]
    fn oversized_line_detected_before_newline_arrives() {
        // Slowloris defense: a header line that never terminates errors as
        // soon as it exceeds MAX_LINE, not only at the (never-sent) CRLF.
        let mut parser = RequestParser::new();
        parser.feed(b"GET / HTTP/1.1\r\nx: ");
        parser.next_request().unwrap();
        parser.feed(&vec![b'a'; MAX_LINE + 2]);
        assert!(parser.next_request().is_err());
    }

    #[test]
    fn idle_tracks_request_boundaries() {
        let mut parser = RequestParser::new();
        assert!(parser.is_idle());
        parser.feed(b"GET /x HT");
        assert!(!parser.is_idle());
        parser.feed(b"TP/1.1\r\n\r\n");
        let _ = parser.next_request().unwrap().unwrap();
        assert!(parser.is_idle());
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            200,
            "application/json",
            "{\"ok\":true}",
            false,
            &[],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));

        let mut out = Vec::new();
        write_response(&mut out, 503, "application/json", "{}", true, &[]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("503 Service Unavailable"));
        assert!(text.contains("connection: close\r\n"));
    }

    #[test]
    fn extra_headers_ride_before_the_blank_line() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            503,
            "application/json",
            "{}",
            false,
            &[("retry-after", "1")],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let head = text.split("\r\n\r\n").next().unwrap();
        assert!(head.contains("retry-after: 1"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn stream_head_has_no_content_length_and_closes() {
        let mut out = Vec::new();
        write_stream_head(&mut out, 200, "application/x-ndjson", &[]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-type: application/x-ndjson\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(!text.contains("content-length"));
        assert!(text.ends_with("\r\n\r\n"));
    }
}
