//! A tiny blocking HTTP/1.1 client over one keep-alive connection —
//! enough for the integration tests, the load generator and scripted
//! interaction with a running `bbs serve`.
//!
//! Failure handling lives here too: [`Client::request_with_retry`] wraps
//! one request in bounded reconnect-and-retry with exponential backoff
//! (safe — the API is idempotent, every job content-addressed by key),
//! and [`sweep_with_resume`] recovers a sweep whose stream died mid-way
//! by re-requesting only the failed or never-received cells over
//! `POST /simulate`.

use crate::http::parse_length;
use crate::service::Served;
use crate::sweep::{
    error_record, result_record, summary_record, PlannedCell, SweepPlan, SweepTally,
};
use bbs_json::Json;
use bbs_telemetry::faults::splitmix64;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Default socket timeout for reads and writes — matches the server's
/// default [`crate::server::IDLE_TIMEOUT`], so a peer that neither frames
/// its response nor closes the connection produces a timely error instead
/// of a hung client. Override per-client with
/// [`Client::connect_with_timeout`].
pub const CLIENT_TIMEOUT: std::time::Duration = crate::server::IDLE_TIMEOUT;

/// One keep-alive client connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    timeout: std::time::Duration,
    /// Headers of the most recent response (lowercased names).
    last_headers: Vec<(String, String)>,
}

impl Client {
    /// Connects to the server with the default [`CLIENT_TIMEOUT`].
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        Client::connect_with_timeout(addr, CLIENT_TIMEOUT)
    }

    /// Connects with an explicit read/write timeout. A server that stalls
    /// past it yields an [`io::ErrorKind::TimedOut`] error naming the
    /// deadline, instead of a hung client or a bare `WouldBlock`.
    pub fn connect_with_timeout(
        addr: SocketAddr,
        timeout: std::time::Duration,
    ) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
            timeout,
            last_headers: Vec::new(),
        })
    }

    /// Rewraps a socket-timeout error with the deadline that produced it
    /// (platforms disagree on `TimedOut` vs `WouldBlock` for SO_RCVTIMEO).
    fn clarify_timeout(&self, e: io::Error, doing: &str) -> io::Error {
        if matches!(
            e.kind(),
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
        ) {
            io::Error::new(
                io::ErrorKind::TimedOut,
                format!("timed out {doing} after {:?}", self.timeout),
            )
        } else {
            e
        }
    }

    /// A header from the most recent response (name matched
    /// case-insensitively), e.g. `Retry-After` on a 503.
    pub fn response_header(&self, name: &str) -> Option<&str> {
        self.last_headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Sends one request and reads the response; returns
    /// `(status, body)`. The connection stays open for the next call.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nhost: bbs-serve\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .and_then(|()| self.writer.flush())
        .map_err(|e| self.clarify_timeout(e, "writing request"))?;
        self.read_response()
    }

    /// `POST /simulate` with a JSON body.
    pub fn simulate(&mut self, body: &str) -> io::Result<(u16, String)> {
        self.request("POST", "/simulate", body)
    }

    /// `GET` a path.
    pub fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        self.request("GET", path, "")
    }

    /// `POST /sweep` with a grid-spec body. Consumes the client: the
    /// sweep response is EOF-framed (`Connection: close`), so the
    /// connection is spent once the stream ends.
    ///
    /// Returns the status and a line iterator. On 200 the lines are the
    /// NDJSON cell records (completion order, `cell` index for
    /// reassembly) ending with the summary record; on an error status
    /// the single line is the JSON error body.
    pub fn sweep(mut self, body: &str) -> io::Result<(u16, SweepLines)> {
        write!(
            self.writer,
            "POST /sweep HTTP/1.1\r\nhost: bbs-serve\r\nconnection: close\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        )?;
        self.writer.flush()?;
        let (status, content_length) = self.read_head()?;
        let trace = self.response_header("x-bbs-trace").map(str::to_string);
        Ok((
            status,
            SweepLines {
                reader: self.reader,
                sized: content_length,
                trace,
                timeout: self.timeout,
            },
        ))
    }

    /// One request with bounded reconnect-and-retry: a fresh connection
    /// per attempt, exponential backoff with deterministic jitter between
    /// attempts. Retries on connection/transport errors and on `503`
    /// (backpressure); any other status returns immediately. Safe to
    /// repeat because the API is idempotent — every simulation is
    /// content-addressed, so a retried request lands on the cache entry
    /// the first attempt may already have produced.
    ///
    /// A `Retry-After` header on a 503 (the server sends `Retry-After: 1`
    /// with every backpressure answer) is honored as the *floor* of the
    /// next backoff, clamped to the policy's cap — the server knows its
    /// own saturation better than our exponential guess does.
    pub fn request_with_retry(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &str,
        policy: &RetryPolicy,
    ) -> io::Result<(u16, String)> {
        let attempts = policy.attempts.max(1);
        let mut last: io::Result<(u16, String)> =
            Err(io::Error::other("retry policy allowed zero attempts"));
        let mut server_floor: Option<Duration> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                let mut wait = policy.backoff(attempt - 1);
                if let Some(floor) = server_floor.take() {
                    wait = wait.max(floor.min(policy.max));
                }
                std::thread::sleep(wait);
            }
            last = match Client::connect(addr) {
                Ok(mut client) => {
                    let result = client.request(method, path, body);
                    if matches!(result, Ok((503, _))) {
                        server_floor = client
                            .response_header("retry-after")
                            .and_then(|v| v.trim().parse::<u64>().ok())
                            .map(Duration::from_secs);
                    }
                    result
                }
                Err(e) => Err(e),
            };
            match &last {
                Ok((status, _)) if *status != 503 => return last,
                _ => {}
            }
        }
        last
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| self.clarify_timeout(e, "waiting for response"))?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed connection",
            ));
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }

    /// Reads a response's status line and headers, returning the status
    /// and the declared `Content-Length` (if any). All headers land in
    /// [`Client::response_header`].
    fn read_head(&mut self) -> io::Result<(u16, Option<usize>)> {
        let status_line = self.read_line()?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
        let mut content_length: Option<usize> = None;
        self.last_headers.clear();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                self.last_headers
                    .push((name.to_ascii_lowercase(), value.trim().to_string()));
                // Mirror the server parser: duplicate Content-Length or any
                // Transfer-Encoding desyncs keep-alive framing (this client
                // only understands Content-Length and EOF framing).
                if name.eq_ignore_ascii_case("transfer-encoding") {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "transfer-encoding responses not supported",
                    ));
                }
                if name.eq_ignore_ascii_case("content-length") {
                    if content_length.is_some() {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "duplicate content-length in response",
                        ));
                    }
                    content_length =
                        Some(parse_length(value.trim()).ok_or_else(|| {
                            io::Error::new(io::ErrorKind::InvalidData, "bad length")
                        })?);
                }
            }
        }
        Ok((status, content_length))
    }

    fn read_response(&mut self) -> io::Result<(u16, String)> {
        let (status, content_length) = self.read_head()?;
        let body = match content_length {
            Some(len) => {
                let mut body = vec![0u8; len];
                self.reader.read_exact(&mut body).map_err(|e| {
                    if e.kind() == io::ErrorKind::UnexpectedEof {
                        io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            format!("truncated response body: expected {len} bytes, connection closed early"),
                        )
                    } else {
                        self.clarify_timeout(e, "reading response body")
                    }
                })?;
                body
            }
            None => {
                // Connection-close framing: without Content-Length the body
                // runs to EOF. Reading in a loop (rather than hanging on an
                // exact-length read) terminates as soon as the server closes.
                let mut body = Vec::new();
                self.reader.read_to_end(&mut body)?;
                body
            }
        };
        String::from_utf8(body)
            .map(|b| (status, b))
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 body"))
    }
}

/// Bounded-retry schedule: exponential backoff from `base` capped at
/// `max`, plus deterministic jitter derived from `seed` (reproducible
/// runs — two clients with different seeds still decorrelate).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (the first try included). Zero behaves as one.
    pub attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base: Duration,
    /// Backoff ceiling.
    pub max: Duration,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(50),
            max: Duration::from_secs(2),
            seed: 0x1bb5,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (0-based): half the capped
    /// exponential deterministically, half jittered — so concurrent
    /// clients retrying the same outage spread out instead of thundering
    /// back in lockstep.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX));
        let capped = exp.min(self.max);
        let half = capped / 2;
        let span_ns = half.as_nanos().max(1) as u64;
        let jitter_ns = splitmix64(self.seed ^ u64::from(attempt)) % span_ns;
        half + Duration::from_nanos(jitter_ns)
    }
}

/// A keep-alive connection pool to one address, shared across threads:
/// [`get`](ClientPool::get) pops an idle connection or dials a fresh one,
/// [`put`](ClientPool::put) returns it after a clean exchange. A
/// connection whose exchange erred is simply dropped, never returned — a
/// pooled slot always holds a connection whose last exchange succeeded,
/// so the next borrower starts from a known-good keep-alive socket.
pub struct ClientPool {
    addr: SocketAddr,
    idle: Mutex<Vec<Client>>,
    max_idle: usize,
    dials: AtomicU64,
    reuses: AtomicU64,
}

impl ClientPool {
    /// A pool dialing `addr`, keeping at most `max_idle` idle connections
    /// around, each with the default [`CLIENT_TIMEOUT`].
    pub fn new(addr: SocketAddr, max_idle: usize) -> ClientPool {
        ClientPool {
            addr,
            idle: Mutex::new(Vec::new()),
            max_idle: max_idle.max(1),
            dials: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
        }
    }

    /// The address this pool dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// An idle pooled connection, or a freshly dialed one.
    pub fn get(&self) -> io::Result<Client> {
        if let Some(client) = self.idle.lock().unwrap().pop() {
            self.reuses.fetch_add(1, Ordering::Relaxed);
            return Ok(client);
        }
        self.dials.fetch_add(1, Ordering::Relaxed);
        Client::connect(self.addr)
    }

    /// Returns a connection after a successful exchange. Past `max_idle`
    /// the connection is dropped (closed) instead.
    pub fn put(&self, client: Client) {
        let mut idle = self.idle.lock().unwrap();
        if idle.len() < self.max_idle {
            idle.push(client);
        }
    }

    /// Drops every idle connection (e.g. after the peer restarted).
    pub fn clear(&self) {
        self.idle.lock().unwrap().clear();
    }

    /// Fresh connections dialed so far.
    pub fn dials(&self) -> u64 {
        self.dials.load(Ordering::Relaxed)
    }

    /// Exchanges served by a pooled (reused) connection.
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }
}

/// The body of a [`Client::sweep`] response, yielded line by line —
/// records arrive as the server completes cells, so iterating observes
/// the stream live rather than after the whole grid finishes.
pub struct SweepLines {
    reader: BufReader<TcpStream>,
    /// `Some(len)` for a sized (non-streamed) error body, `None` for the
    /// EOF-framed NDJSON stream.
    sized: Option<usize>,
    /// The stream's `x-bbs-trace` header (`id=<16 hex>`), if present.
    trace: Option<String>,
    /// The connection's read deadline, echoed into timeout errors so a
    /// stall mid-stream reads as "timed out" and not a bare `WouldBlock`.
    timeout: Duration,
}

impl SweepLines {
    /// Collects the remaining lines (empty lines dropped).
    pub fn collect_lines(self) -> io::Result<Vec<String>> {
        self.collect()
    }

    /// The sweep stream's `x-bbs-trace` header value, if the server sent
    /// one — the trace id covers every cell of this sweep.
    pub fn trace_header(&self) -> Option<&str> {
        self.trace.as_deref()
    }

    /// Rewraps a socket-timeout error so the caller sees *what* timed out
    /// (waiting for the next record of a live stream) and after how long,
    /// instead of the platform-dependent `TimedOut`/`WouldBlock` raw kind.
    fn clarify_stream_timeout(&self, e: io::Error) -> io::Error {
        if matches!(
            e.kind(),
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
        ) {
            io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "timed out waiting for the next sweep record after {:?} \
                     (stream stalled mid-sweep; completed cells stay cached \
                     server-side — resume to fetch the rest)",
                    self.timeout
                ),
            )
        } else {
            e
        }
    }
}

impl Iterator for SweepLines {
    type Item = io::Result<String>;

    fn next(&mut self) -> Option<io::Result<String>> {
        if let Some(len) = self.sized.take() {
            // A sized body (error responses) is one pseudo-line; the next
            // call falls through to the EOF path below and ends cleanly.
            if len == 0 {
                return None;
            }
            let mut body = vec![0u8; len];
            if let Err(e) = self.reader.read_exact(&mut body) {
                return Some(Err(self.clarify_stream_timeout(e)));
            }
            return match String::from_utf8(body) {
                Ok(s) => Some(Ok(s)),
                Err(_) => Some(Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "non-utf8 body",
                ))),
            };
        }
        loop {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) => return None, // clean EOF: stream over
                Ok(_) => {
                    let line = line.trim_end_matches(['\r', '\n']);
                    if line.is_empty() {
                        continue;
                    }
                    return Some(Ok(line.to_string()));
                }
                Err(e) => return Some(Err(self.clarify_stream_timeout(e))),
            }
        }
    }
}

/// What [`sweep_with_resume`] recovered: one record per grid cell in cell
/// order (resumed cells spliced in the stream's own NDJSON format), plus
/// a trailing summary recomputed from those records.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One NDJSON record (newline included) per cell, ordered by index.
    pub records: Vec<String>,
    /// The trailing summary line (newline included), recomputed locally
    /// from the final record set — *not* the broken stream's summary,
    /// whose counters describe only the cells that completed before the
    /// break, contradicting the reassembled records.
    pub summary: String,
    /// Why the stream broke, when it did (`None` = clean EOF).
    pub stream_error: Option<String>,
    /// Cells recovered via `POST /simulate` after the stream failed or
    /// returned an error record for them.
    pub resumed: usize,
}

/// Runs a sweep and, if the stream dies mid-way (connection reset, read
/// deadline, server restart) or individual cells come back as error
/// records, re-requests **only the failed or never-received cells** over
/// `POST /simulate` — completed cells are never re-simulated (and the
/// re-requests themselves usually land on the server's cache, since every
/// cell the first pass finished is already stored under its key).
///
/// Cells poisoned by an unresolvable axis entry (unknown model or
/// accelerator) are never re-requested; their error records are
/// regenerated locally, byte-identical to what the server streams.
pub fn sweep_with_resume(
    addr: SocketAddr,
    body: &str,
    retry: &RetryPolicy,
) -> io::Result<SweepOutcome> {
    let parsed =
        Json::parse(body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    // `usize::MAX` keeps client-side expansion clamp-free; the echo `cap`
    // of resumed records then matches the request, like the server's.
    let plan = SweepPlan::from_json(&parsed, usize::MAX)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let cells = plan.cell_count();
    let started = std::time::Instant::now();
    let mut records: Vec<Option<String>> = (0..cells).map(|_| None).collect();
    let mut stream_error = None;

    match Client::connect(addr).and_then(|c| c.sweep(body)) {
        Ok((200, lines)) => {
            for line in lines {
                let line = match line {
                    Ok(l) => l,
                    Err(e) => {
                        stream_error = Some(e.to_string());
                        break;
                    }
                };
                let Ok(v) = Json::parse(&line) else { continue };
                if let Some(idx) = v.get("cell").and_then(|c| c.as_usize()) {
                    // Error records are left empty so the resume pass
                    // retries them (transient failures — queue-full,
                    // worker panic — often succeed on a second attempt).
                    // The stream's summary is dropped on the floor either
                    // way: its counters describe the broken pass, not the
                    // reassembled record set.
                    if idx < cells && v.get("error").is_none() {
                        records[idx] = Some(format!("{line}\n"));
                    }
                }
            }
        }
        Ok((status, lines)) => {
            let detail = lines.collect_lines().unwrap_or_default().join(" ");
            return Err(io::Error::other(format!(
                "sweep rejected with status {status}: {detail}"
            )));
        }
        Err(e) => stream_error = Some(e.to_string()),
    }

    let mut resumed = 0;
    for (i, slot) in records.iter_mut().enumerate() {
        if slot.is_some() {
            continue;
        }
        let PlannedCell { meta, request } = plan.cell(i);
        let record = match request {
            Err(message) => error_record(&meta, &message),
            Ok(request) => {
                let sim_body = request.to_json().to_string();
                match Client::request_with_retry(addr, "POST", "/simulate", &sim_body, retry) {
                    Ok((200, resp)) => match splice_simulate_record(&meta, &resp) {
                        Some(rec) => {
                            resumed += 1;
                            rec
                        }
                        None => error_record(&meta, "malformed /simulate response"),
                    },
                    Ok((_, resp)) => {
                        let message = Json::parse(&resp)
                            .ok()
                            .and_then(|v| v.get("error").and_then(|e| e.as_str().map(String::from)))
                            .unwrap_or(resp);
                        error_record(&meta, &message)
                    }
                    Err(e) => error_record(&meta, &e.to_string()),
                }
            }
        };
        *slot = Some(record);
    }
    let records: Vec<String> = records.into_iter().flatten().collect();

    // Recompute the summary from the final record set: after a resume
    // pass the stream's own summary (when it survived at all) counts only
    // the cells the broken pass finished, so `ok`/`errors`/`cache_hits`
    // would contradict the records right above it.
    let mut tally = SweepTally {
        cells,
        ..SweepTally::default()
    };
    for record in &records {
        let Ok(v) = Json::parse(record) else { continue };
        if v.get("error").is_some() {
            tally.errors += 1;
        } else {
            tally.count_ok(Served::from_label(
                v.get("served").and_then(Json::as_str).unwrap_or_default(),
            ));
        }
    }
    let summary = summary_record(&tally, started.elapsed().as_secs_f64() * 1e3);

    Ok(SweepOutcome {
        records,
        summary,
        stream_error,
        resumed,
    })
}

/// Picks a `/simulate` 200 body apart into `(key, served, result text)`.
/// The result text is a verbatim slice of the response — never re-encoded
/// — ending at the envelope's closing `}`. The body may carry trailing
/// whitespace (a newline-appending proxy, a hand-edited fixture): the
/// slice ends at the *actual* JSON end, not at `len - 1`.
pub(crate) fn parse_simulate_response(resp: &str) -> Option<(u64, Served, &str)> {
    let v = Json::parse(resp).ok()?;
    let head = v.get("meta")?;
    let key = u64::from_str_radix(head.get("key")?.as_str()?, 16).ok()?;
    let served = Served::from_label(head.get("served")?.as_str()?);
    let marker = ",\"result\":";
    let pos = resp.find(marker)?;
    let end = resp.trim_end().strip_suffix('}')?.len();
    let result_text = resp.get(pos + marker.len()..end)?;
    Some((key, served, result_text))
}

/// Rebuilds a sweep result record from a `/simulate` response body
/// (`{"meta":{..,"served":..,"key":..},"result":R}`). The result text is
/// spliced verbatim — never re-encoded — so a resumed record is
/// byte-identical to the record the stream would have carried (modulo the
/// `served` label, which truthfully reports how the re-request was
/// answered).
fn splice_simulate_record(meta: &crate::sweep::CellMeta, resp: &str) -> Option<String> {
    let (key, served, result_text) = parse_simulate_response(resp)?;
    Some(result_record(meta, key, served, result_text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serves one connection with a canned byte response, then closes.
    fn canned_server(response: &'static [u8]) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            // Drain the full request head before responding — the client
            // writes in several small chunks, and closing early would turn
            // its write into a BrokenPipe instead of exercising the read
            // path under test.
            let mut head = Vec::new();
            let mut buf = [0u8; 1024];
            loop {
                match io::Read::read(&mut sock, &mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(k) => {
                        head.extend_from_slice(&buf[..k]);
                        if head.windows(4).any(|w| w == b"\r\n\r\n") {
                            break;
                        }
                    }
                }
            }
            sock.write_all(response).unwrap();
            // Dropping the socket closes the connection (EOF framing).
        });
        addr
    }

    #[test]
    fn missing_content_length_falls_back_to_eof_framing() {
        let addr = canned_server(b"HTTP/1.1 200 OK\r\nconnection: close\r\n\r\n{\"ok\":true}");
        let mut client = Client::connect(addr).unwrap();
        let (status, body) = client.get("/whatever").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}");
    }

    #[test]
    fn truncated_body_reports_a_clear_error() {
        let addr = canned_server(b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nabc");
        let mut client = Client::connect(addr).unwrap();
        let err = client.get("/whatever").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            err.to_string().contains("truncated response body"),
            "unhelpful error: {err}"
        );
        assert!(err.to_string().contains("10 bytes"), "error: {err}");
    }

    #[test]
    fn duplicate_response_content_length_is_rejected() {
        let addr = canned_server(
            b"HTTP/1.1 200 OK\r\ncontent-length: 100\r\ncontent-length: 3\r\n\r\nabc",
        );
        let mut client = Client::connect(addr).unwrap();
        let err = client.get("/whatever").unwrap_err();
        assert!(
            err.to_string().contains("duplicate content-length"),
            "error: {err}"
        );
    }

    #[test]
    fn transfer_encoding_response_is_rejected() {
        let addr = canned_server(
            b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\nb\r\n{\"ok\":true}\r\n0\r\n\r\n",
        );
        let mut client = Client::connect(addr).unwrap();
        let err = client.get("/whatever").unwrap_err();
        assert!(
            err.to_string().contains("transfer-encoding"),
            "error: {err}"
        );
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let policy = RetryPolicy::default();
        for attempt in 0..8 {
            let a = policy.backoff(attempt);
            let b = policy.backoff(attempt);
            assert_eq!(a, b, "same seed, same attempt, same sleep");
            assert!(
                a <= policy.max,
                "attempt {attempt}: {a:?} > {:?}",
                policy.max
            );
            assert!(a >= policy.base / 2, "attempt {attempt}: {a:?} too small");
        }
        // Growth: a late attempt waits at least as long as half the cap.
        assert!(policy.backoff(12) >= policy.max / 2);
        // Different seeds decorrelate.
        let other = RetryPolicy {
            seed: 0x9999,
            ..RetryPolicy::default()
        };
        assert_ne!(policy.backoff(0), other.backoff(0));
    }

    #[test]
    fn request_with_retry_recovers_from_a_503() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let responses: [&[u8]; 2] = [
                b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 2\r\n\r\n{}",
                b"HTTP/1.1 200 OK\r\ncontent-length: 11\r\n\r\n{\"ok\":true}",
            ];
            for resp in responses {
                let (mut sock, _) = listener.accept().unwrap();
                let mut head = Vec::new();
                let mut buf = [0u8; 1024];
                loop {
                    match io::Read::read(&mut sock, &mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(k) => {
                            head.extend_from_slice(&buf[..k]);
                            if head.windows(4).any(|w| w == b"\r\n\r\n") {
                                break;
                            }
                        }
                    }
                }
                sock.write_all(resp).unwrap();
            }
        });
        let policy = RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(1),
            max: Duration::from_millis(4),
            ..RetryPolicy::default()
        };
        let (status, body) =
            Client::request_with_retry(addr, "GET", "/whatever", "", &policy).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}");
    }

    #[test]
    fn request_with_retry_gives_up_after_attempts() {
        // Nothing listens on this address once the listener drops.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let policy = RetryPolicy {
            attempts: 2,
            base: Duration::from_millis(1),
            max: Duration::from_millis(2),
            ..RetryPolicy::default()
        };
        assert!(Client::request_with_retry(addr, "GET", "/whatever", "", &policy).is_err());
    }

    #[test]
    fn request_with_retry_honors_retry_after_as_backoff_floor() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let responses: [&[u8]; 2] = [
                b"HTTP/1.1 503 Service Unavailable\r\nretry-after: 1\r\ncontent-length: 2\r\n\r\n{}",
                b"HTTP/1.1 200 OK\r\ncontent-length: 11\r\n\r\n{\"ok\":true}",
            ];
            for resp in responses {
                let (mut sock, _) = listener.accept().unwrap();
                let mut head = Vec::new();
                let mut buf = [0u8; 1024];
                loop {
                    match io::Read::read(&mut sock, &mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(k) => {
                            head.extend_from_slice(&buf[..k]);
                            if head.windows(4).any(|w| w == b"\r\n\r\n") {
                                break;
                            }
                        }
                    }
                }
                sock.write_all(resp).unwrap();
            }
        });
        // The policy's own backoff is ~1 ms; the server's Retry-After of
        // one second must raise the wait — but only up to the cap.
        let policy = RetryPolicy {
            attempts: 2,
            base: Duration::from_millis(1),
            max: Duration::from_millis(80),
            ..RetryPolicy::default()
        };
        let started = std::time::Instant::now();
        let (status, body) =
            Client::request_with_retry(addr, "GET", "/whatever", "", &policy).unwrap();
        let waited = started.elapsed();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}");
        assert!(
            waited >= Duration::from_millis(60),
            "Retry-After floor ignored: retried after only {waited:?}"
        );
        assert!(
            waited < Duration::from_millis(900),
            "Retry-After not clamped to the policy cap: waited {waited:?}"
        );
    }

    #[test]
    fn splice_survives_a_trailing_newline_in_the_response_body() {
        let meta = crate::sweep::CellMeta {
            index: 3,
            model: "ViT-Small".to_string(),
            accelerator: "stripes".to_string(),
            config: 0,
            seed: 7,
            cap: 64,
        };
        let clean = "{\"meta\":{\"cached\":false,\"served\":\"simulated\",\
             \"key\":\"00000000000000ff\"},\"result\":{\"x\":1}}";
        let expected = result_record(&meta, 0xff, Served::Fresh, "{\"x\":1}");
        assert_eq!(splice_simulate_record(&meta, clean), Some(expected.clone()));
        // A newline-terminated body (proxy or middleware appending one)
        // must splice identically, not corrupt the result text.
        let trailing = format!("{clean}\n");
        assert_eq!(splice_simulate_record(&meta, &trailing), Some(expected));
        let padded = format!("{clean} \r\n\n");
        assert_eq!(
            splice_simulate_record(&meta, &padded),
            Some(result_record(&meta, 0xff, Served::Fresh, "{\"x\":1}"))
        );
    }

    const RESUME_SWEEP_BODY: &str = "{\"models\":[\"ViT-Small\",\"ResNet-34\"],\
         \"accelerators\":[\"stripes\"],\"seeds\":[7],\"max_weights_per_layer\":[64]}";

    fn resume_record(cell: usize, model: &str, served: &str) -> String {
        format!(
            "{{\"cell\":{cell},\"model\":\"{model}\",\"accelerator\":\"stripes\",\
             \"config\":0,\"seed\":7,\"max_weights_per_layer\":64,\
             \"key\":\"00000000000000a{cell}\",\"served\":\"{served}\",\"result\":{{\"r\":{cell}}}}}"
        )
    }

    #[test]
    fn resume_summary_is_recomputed_not_parroted() {
        // The stream delivers every record *and* a summary whose counters
        // are nonsense; the outcome's summary must come from the records.
        let response = format!(
            "HTTP/1.1 200 OK\r\ncontent-type: application/x-ndjson\r\n\
             connection: close\r\n\r\n{}\n{}\n{}\n",
            resume_record(0, "ViT-Small", "cache"),
            resume_record(1, "ResNet-34", "simulated"),
            "{\"summary\":{\"cells\":2,\"ok\":0,\"errors\":2,\"cache_hits\":0,\
             \"coalesced\":0,\"simulated\":0,\"wall_ms\":0}}",
        );
        let addr = canned_server(Box::leak(response.into_bytes().into_boxed_slice()));
        let outcome = sweep_with_resume(addr, RESUME_SWEEP_BODY, &RetryPolicy::default()).unwrap();
        assert_eq!(outcome.records.len(), 2);
        assert_eq!(outcome.resumed, 0);
        let summary = Json::parse(&outcome.summary).unwrap();
        let summary = summary.get("summary").expect("summary record");
        assert_eq!(summary.get("cells").unwrap().as_usize(), Some(2));
        assert_eq!(summary.get("ok").unwrap().as_usize(), Some(2));
        assert_eq!(summary.get("errors").unwrap().as_usize(), Some(0));
        assert_eq!(summary.get("cache_hits").unwrap().as_usize(), Some(1));
        assert_eq!(summary.get("simulated").unwrap().as_usize(), Some(1));
    }

    #[test]
    fn resume_recovers_missing_cells_and_summarizes_the_final_set() {
        // Connection 1: the sweep stream dies after cell 0 (no summary).
        // Connection 2: the /simulate re-request for cell 1 — answered
        // with a trailing-newline body, so this also exercises the splice
        // fix end-to-end.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream_resp = format!(
            "HTTP/1.1 200 OK\r\ncontent-type: application/x-ndjson\r\n\
             connection: close\r\n\r\n{}\n",
            resume_record(0, "ViT-Small", "simulated"),
        );
        let sim_body = "{\"meta\":{\"cached\":false,\"served\":\"simulated\",\
             \"key\":\"00000000000000bb\"},\"result\":{\"r\":9}}\n";
        let sim_resp = format!(
            "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n{sim_body}",
            sim_body.len()
        );
        std::thread::spawn(move || {
            for resp in [stream_resp, sim_resp] {
                let (mut sock, _) = listener.accept().unwrap();
                let mut head = Vec::new();
                let mut buf = [0u8; 1024];
                loop {
                    match io::Read::read(&mut sock, &mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(k) => {
                            head.extend_from_slice(&buf[..k]);
                            if head.windows(4).any(|w| w == b"\r\n\r\n") {
                                break;
                            }
                        }
                    }
                }
                sock.write_all(resp.as_bytes()).unwrap();
            }
        });
        let policy = RetryPolicy {
            attempts: 2,
            base: Duration::from_millis(1),
            max: Duration::from_millis(4),
            ..RetryPolicy::default()
        };
        let outcome = sweep_with_resume(addr, RESUME_SWEEP_BODY, &policy).unwrap();
        assert_eq!(outcome.records.len(), 2);
        assert_eq!(outcome.resumed, 1);
        assert!(
            outcome.records[1].contains("\"result\":{\"r\":9}"),
            "resumed record corrupted: {}",
            outcome.records[1]
        );
        let summary = Json::parse(&outcome.summary).unwrap();
        let summary = summary.get("summary").expect("summary record");
        assert_eq!(summary.get("ok").unwrap().as_usize(), Some(2));
        assert_eq!(summary.get("errors").unwrap().as_usize(), Some(0));
        assert_eq!(summary.get("simulated").unwrap().as_usize(), Some(2));
    }

    #[test]
    fn pool_reuses_connections_and_drops_failed_ones() {
        let server = crate::server::start(crate::server::ServeConfig {
            log_quiet: true,
            ..crate::server::ServeConfig::default()
        })
        .unwrap();
        let pool = ClientPool::new(server.addr(), 2);
        let mut c = pool.get().unwrap();
        let (status, _) = c.get("/healthz").unwrap();
        assert_eq!(status, 200);
        pool.put(c);
        assert_eq!((pool.dials(), pool.reuses()), (1, 0));
        let mut c = pool.get().unwrap();
        assert_eq!((pool.dials(), pool.reuses()), (1, 1));
        let (status, _) = c.get("/healthz").unwrap();
        assert_eq!(status, 200);
        pool.put(c);
        pool.clear();
        let _c = pool.get().unwrap();
        assert_eq!((pool.dials(), pool.reuses()), (2, 1));
        server.stop();
    }

    #[test]
    fn explicit_zero_length_body_does_not_wait_for_eof() {
        let addr = canned_server(b"HTTP/1.1 204 No Content\r\ncontent-length: 0\r\n\r\n");
        let mut client = Client::connect(addr).unwrap();
        let (status, body) = client.get("/whatever").unwrap();
        assert_eq!(status, 204);
        assert!(body.is_empty());
    }
}
