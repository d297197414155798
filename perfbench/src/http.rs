//! A minimal std-only HTTP/1.1 client for the load generator.
//!
//! It frames responses by `Content-Length` (or EOF for `/sweep`) and does
//! nothing else: no JSON parsing and no checking, so a timed request costs
//! the generator one write and a few reads. Everything that inspects a
//! body happens after the latency stamp.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Socket deadline: a server that stalls this long fails the operation.
const TIMEOUT: Duration = Duration::from_secs(30);

/// One parsed response: status, the raw head and the body bytes.
pub struct Response {
    pub status: u16,
    pub head: String,
    pub body: Vec<u8>,
}

impl Response {
    /// A response header's value (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        header_value(&self.head, name)
    }
}

fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.split("\r\n").skip(1).find_map(|line| {
        let (n, v) = line.split_once(':')?;
        n.trim().eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    /// Bytes read past the end of the previous response.
    buf: Vec<u8>,
    scratch: Box<[u8]>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            scratch: vec![0; 64 * 1024].into_boxed_slice(),
        })
    }

    fn send(&mut self, method: &str, path: &str, body: &[u8], close: bool) -> io::Result<()> {
        let mut req = Vec::with_capacity(128 + body.len());
        write!(
            req,
            "{method} {path} HTTP/1.1\r\nhost: perfbench\r\n{}content-length: {}\r\n\r\n",
            if close { "connection: close\r\n" } else { "" },
            body.len()
        )?;
        req.extend_from_slice(body);
        self.stream.write_all(&req)
    }

    /// Reads more bytes into the buffer; `Ok(0)` at EOF.
    fn fill(&mut self) -> io::Result<usize> {
        let n = self.stream.read(&mut self.scratch[..])?;
        self.buf.extend_from_slice(&self.scratch[..n]);
        Ok(n)
    }

    /// Reads up to the end of the head; returns (status, head text).
    fn read_head(&mut self) -> io::Result<(u16, String)> {
        let end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i;
            }
            if self.fill()? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before response head",
                ));
            }
        };
        let head = String::from_utf8(self.buf[..end].to_vec()).map_err(|_| invalid("head"))?;
        self.buf.drain(..end + 4);
        let status = head
            .get(9..12)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("malformed status line"))?;
        Ok((status, head))
    }

    /// One request on the keep-alive connection; the response must carry
    /// a `Content-Length`.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        self.send(method, path, body, false)?;
        let (status, head) = self.read_head()?;
        let len: usize = header_value(&head, "content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| invalid("response without content-length"))?;
        while self.buf.len() < len {
            if self.fill()? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated response body",
                ));
            }
        }
        let body: Vec<u8> = self.buf.drain(..len).collect();
        Ok(Response { status, head, body })
    }

    /// `POST /sweep` on this connection, which the EOF-framed response
    /// spends. Returns the response and the instant its last line, the
    /// summary record, arrived.
    pub fn sweep(mut self, body: &[u8]) -> io::Result<(Response, Instant)> {
        self.send("POST", "/sweep", body, true)?;
        let (status, head) = self.read_head()?;
        let mut summary_at = None;
        loop {
            if summary_at.is_none() && ends_with_summary(&self.buf) {
                summary_at = Some(Instant::now());
            }
            if self.fill()? == 0 {
                break;
            }
        }
        let at = summary_at.unwrap_or_else(Instant::now);
        Ok((
            Response {
                status,
                head,
                body: self.buf,
            },
            at,
        ))
    }
}

/// Whether the bytes so far end with a complete summary record.
fn ends_with_summary(buf: &[u8]) -> bool {
    if buf.last() != Some(&b'\n') {
        return false;
    }
    let body = &buf[..buf.len() - 1];
    let start = body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    body[start..].starts_with(b"{\"summary\"")
}

/// First index of `needle` in `hay`.
pub fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// `GET path` on a fresh connection; the body as text.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let r = Conn::connect(addr)?.request("GET", path, b"")?;
    let body = String::from_utf8(r.body).map_err(|_| invalid("non-utf8 body"))?;
    Ok((r.status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_detection_needs_a_complete_last_line() {
        assert!(ends_with_summary(b"{\"cell\":0}\n{\"summary\":{}}\n"));
        assert!(!ends_with_summary(b"{\"cell\":0}\n{\"summary\":{}"));
        assert!(!ends_with_summary(b"{\"cell\":0}\n"));
        assert!(ends_with_summary(b"{\"summary\":{}}\n"));
    }

    #[test]
    fn headers_match_case_insensitively() {
        let head = "HTTP/1.1 200 OK\r\nContent-Length: 12\r\nx-bbs-trace: id=1";
        assert_eq!(header_value(head, "content-length"), Some("12"));
        assert_eq!(header_value(head, "X-BBS-Trace"), Some("id=1"));
        assert_eq!(header_value(head, "missing"), None);
    }
}
