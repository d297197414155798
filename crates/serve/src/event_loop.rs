//! The std-only readiness event loop behind `bbs-serve`: one thread
//! multiplexes every connection over `epoll` (Linux) or `poll(2)` (any
//! other unix), so a thousand idle keep-alive connections cost a few
//! kilobytes of state each instead of a thread each.
//!
//! ## Shape
//!
//! * [`Poller`] — the readiness backend, fixed per platform at compile
//!   time and named by [`BACKEND`]. On Linux it is a raw-FFI epoll
//!   instance (std already links libc, so `extern "C"` declarations are
//!   enough — no external crate); on every other unix it replays the
//!   registered fd set through `poll(2)`.
//! * [`Waker`] — a loopback TCP socketpair. Simulation workers finish jobs
//!   on an `mpsc` completion channel and poke the waker so the loop wakes
//!   from `wait` without polling the channel on a timer.
//! * `Conn` — one connection's state machine: a resumable
//!   [`RequestParser`] on the read side, a
//!   write buffer flushed on writability, and a `ConnState` describing
//!   what the connection is waiting for (next request, an in-flight
//!   simulation, a queue slot while *parked*, or sweep-cell completions).
//!
//! ## Backpressure: parking, not 503
//!
//! When the bounded job queue is full, a `/simulate` connection is
//! *parked*: held open, its request set aside, retried FIFO whenever any
//! job completes (a queue slot freed) and on the coarse 100 ms tick. Only
//! past `park_timeout` does it degrade to the old `503` — now carrying
//! `Retry-After` — so short bursts above queue depth smooth out instead
//! of bouncing. The same tick reaps idle keep-alive connections, slowloris
//! header-drippers (the deadline anchors at the *first* byte of a request,
//! so dripping cannot refresh it), and stalled writers.

use crate::http::{write_response, write_stream_head, Request, RequestParser, MAX_BODY};
use crate::request::SimRequest;
use crate::server::{
    error_body, route_request, simulate_ok_body, RouteOutcome, ServeConfig, Shared,
};
use crate::service::{Completion, ExecuteError, Outcome, Served, Submitted, Timing};
use crate::sweep::{CellMeta, SweepStream};
use crate::telemetry::Telemetry;
use bbs_telemetry::trace::{next_trace_id, trace_hex};
use bbs_telemetry::Value;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The readiness backend this build runs on, fixed per platform at
/// compile time: `epoll` on Linux, `poll(2)` on every other unix. The
/// startup log and the `bbs serve` banner name it.
pub const BACKEND: &str = if cfg!(target_os = "linux") {
    "epoll"
} else {
    "poll"
};

#[cfg(target_os = "linux")]
pub use epoll::Poller;
#[cfg(not(target_os = "linux"))]
pub use poll::Poller;

/// Which readiness a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable.
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

/// What a fd was ready for. Errors and hangups fold into `readable` and
/// `writable` (the next read/write observes the EOF/error and the
/// connection winds down through the normal path) and are also reported
/// as `hangup`, because ERR/HUP is level-triggered *regardless of the
/// interest set* — a consumer with no read or write interest needs the
/// flag to avoid spinning on a condition it never drains.
#[derive(Debug, Clone, Copy, Default)]
pub struct Readiness {
    /// Readable (or errored/hung up).
    pub readable: bool,
    /// Writable (or errored/hung up).
    pub writable: bool,
    /// The fd reported `POLLERR`/`POLLHUP` (delivered even when the
    /// interest set is empty).
    pub hangup: bool,
}

impl Readiness {
    /// Folds an error/hangup `edge` into both directions.
    fn new(readable: bool, writable: bool, edge: bool) -> Readiness {
        Readiness {
            readable: readable || edge,
            writable: writable || edge,
            hangup: edge,
        }
    }
}

/// A wait timeout in the milliseconds both wait calls take (`-1` blocks
/// indefinitely).
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    timeout.map_or(-1, |d| d.as_millis().min(i32::MAX as u128) as i32)
}

/// Calls a wait syscall until it returns anything but EINTR; a count
/// comes back as `Ok`.
fn retry_interrupted(mut wait: impl FnMut() -> i32) -> io::Result<usize> {
    loop {
        let n = wait();
        if n >= 0 {
            return Ok(n as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// The Linux backend: a raw-FFI epoll instance. std links libc on every
/// unix target, so plain `extern "C"` declarations resolve without any
/// external crate.
#[cfg(target_os = "linux")]
mod epoll {
    use super::{io, retry_interrupted, timeout_ms, Duration, Interest, RawFd, Readiness};

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0x80000;

    /// glibc packs `struct epoll_event` on x86-64 (the kernel ABI).
    /// Fields must be read by value, never by reference.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// The readiness multiplexer: register fds under u64 tokens, wait for
    /// events.
    pub struct Poller {
        epfd: i32,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        /// Opens an epoll instance.
        pub fn new() -> io::Result<Poller> {
            // SAFETY: a plain syscall on a flags word; no memory is passed.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        /// Starts watching `fd` under `token`.
        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Changes the interest set of a registered fd.
        pub(super) fn modify(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Stops watching a registered fd.
        pub(super) fn deregister(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
            let none = Interest {
                read: false,
                write: false,
            };
            self.ctl(EPOLL_CTL_DEL, fd, token, none)
        }

        /// Blocks until at least one registered fd is ready (or `timeout`
        /// elapses; `None` blocks indefinitely), appending `(token,
        /// readiness)` pairs. EINTR is retried internally.
        pub fn wait(
            &mut self,
            out: &mut Vec<(u64, Readiness)>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let timeout = timeout_ms(timeout);
            // SAFETY: `buf` is exclusively borrowed for the call and holds
            // `buf.len()` events, the most the kernel is told to write.
            let n = retry_interrupted(|| unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout,
                )
            })?;
            // Copy each (possibly packed) struct out before touching fields.
            for ev in self.buf[..n].iter().copied() {
                let bits = ev.events;
                out.push((
                    ev.data,
                    Readiness::new(
                        bits & EPOLLIN != 0,
                        bits & EPOLLOUT != 0,
                        bits & (EPOLLERR | EPOLLHUP) != 0,
                    ),
                ));
            }
            Ok(())
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut events = 0u32;
            if interest.read {
                events |= EPOLLIN;
            }
            if interest.write {
                events |= EPOLLOUT;
            }
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `ev` is a live local that the kernel only reads
            // during the call.
            if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: `epfd` came from `epoll_create1`; this poller owns it
            // and closes it exactly once, here.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

/// The portable backend: the registration table replayed through
/// `poll(2)` every wait, O(n) in the registered fds (at most
/// `max_connections` plus the listener and the waker). Linux builds
/// compile it for its tests.
#[cfg(any(test, not(target_os = "linux")))]
mod poll {
    use super::{io, retry_interrupted, timeout_ms, Duration, Interest, RawFd, Readiness};

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[cfg(target_os = "linux")]
    type NfdsT = u64;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = u32;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
    }

    /// The readiness multiplexer: register fds under u64 tokens, wait for
    /// events.
    pub struct Poller {
        entries: Vec<(u64, RawFd, Interest)>,
    }

    impl Poller {
        /// An empty registration table.
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                entries: Vec::new(),
            })
        }

        /// Starts watching `fd` under `token`.
        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.entries.push((token, fd, interest));
            Ok(())
        }

        /// Changes the interest set of a registered fd.
        pub(super) fn modify(
            &mut self,
            _fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            match self.entries.iter_mut().find(|entry| entry.0 == token) {
                Some(entry) => {
                    entry.2 = interest;
                    Ok(())
                }
                None => Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    "token not registered",
                )),
            }
        }

        /// Stops watching a registered fd.
        pub(super) fn deregister(&mut self, _fd: RawFd, token: u64) -> io::Result<()> {
            self.entries.retain(|&(t, _, _)| t != token);
            Ok(())
        }

        /// Blocks until at least one registered fd is ready (or `timeout`
        /// elapses; `None` blocks indefinitely), appending `(token,
        /// readiness)` pairs. EINTR is retried internally.
        pub fn wait(
            &mut self,
            out: &mut Vec<(u64, Readiness)>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let timeout = timeout_ms(timeout);
            let mut fds: Vec<PollFd> = self
                .entries
                .iter()
                .map(|&(_, fd, interest)| PollFd {
                    fd,
                    events: if interest.read { POLLIN } else { 0 }
                        | if interest.write { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            // SAFETY: `fds` is exclusively borrowed for the call and holds
            // `fds.len()` entries, the count the kernel reads and writes.
            let n = retry_interrupted(|| unsafe {
                poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout)
            })?;
            if n == 0 {
                return Ok(());
            }
            for (slot, &(token, _, _)) in fds.iter().zip(&self.entries) {
                let bits = slot.revents;
                if bits != 0 {
                    out.push((
                        token,
                        Readiness::new(
                            bits & POLLIN != 0,
                            bits & POLLOUT != 0,
                            bits & (POLLERR | POLLHUP) != 0,
                        ),
                    ));
                }
            }
            Ok(())
        }
    }
}

/// Wakes the event loop from another thread: one byte down a loopback TCP
/// socketpair the loop keeps registered for readability. std-only (no
/// eventfd/pipe FFI needed), and it works identically under either
/// backend.
#[derive(Clone)]
pub struct Waker {
    tx: Arc<TcpStream>,
}

impl Waker {
    /// Pokes the loop. Best-effort: a full socket buffer means wakeups are
    /// already pending, so errors (including `WouldBlock`) are ignored.
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1u8]);
    }
}

/// Builds the waker socketpair: the send half (cloneable, any thread) and
/// the receive half for the loop to register and drain.
pub fn waker_pair() -> io::Result<(Waker, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let local = tx.local_addr()?;
    // The ephemeral listener is reachable by any local process, so accept
    // until the peer is our own tx half — pairing rx with a stranger
    // would silently eat every wakeup. tx's connect has completed, so the
    // matching socket is already in the backlog and the loop terminates.
    let rx = loop {
        let (rx, peer) = listener.accept()?;
        if peer == local {
            break rx;
        }
    };
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx: Arc::new(tx) }, rx))
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Deadline-scan cadence; every parked/idle/slowloris deadline is
/// enforced to this granularity (a coarse scan, not a timer wheel — at
/// these connection counts a full sweep is microseconds).
const TICK: Duration = Duration::from_millis(100);
/// Per-read scratch size.
const READ_CHUNK: usize = 16 * 1024;
/// Stop reading a connection whose parser has buffered this much without
/// completing a request (the parser's own limits will 400 it).
const READ_CAP: usize = MAX_BODY + 64 * 1024;

/// A completed job coming back from the worker pool.
enum Done {
    Simulate {
        token: u64,
        key: u64,
        outcome: Outcome,
    },
    SweepCell {
        token: u64,
        meta: CellMeta,
        key: u64,
        outcome: Outcome,
    },
}

/// Per-request trace state, minted when the request is dispatched and
/// consumed when its response is buffered. One per connection suffices:
/// parsing pauses while a `/simulate` is in flight, and a `/sweep` owns
/// the connection until EOF.
#[derive(Debug, Clone, Copy)]
struct TraceCtx {
    id: u64,
    /// Time `next_request` spent producing this request (µs).
    parse_us: u64,
    /// Time spent routing on the loop thread: decoding the body and
    /// taking its key (or building an inline answer), plus, for a sweep,
    /// the key of each cell it submits.
    route: Duration,
    /// Total time spent parked on a full queue (µs).
    park_us: u64,
    /// When dispatch began (end-to-end anchor).
    dispatched: Instant,
}

impl TraceCtx {
    fn new(parse_us: u64) -> TraceCtx {
        TraceCtx {
            id: next_trace_id(),
            parse_us,
            route: Duration::ZERO,
            park_us: 0,
            dispatched: Instant::now(),
        }
    }

    /// End-to-end µs: parse time plus everything since dispatch.
    fn total_us(&self) -> u64 {
        self.parse_us + self.dispatched.elapsed().as_micros() as u64
    }
}

/// What a connection is waiting for.
enum ConnState {
    /// Between requests: readable, parsing.
    Ready,
    /// One `/simulate` in flight on the worker pool; `close` remembers the
    /// request's `Connection: close` (responses stay in pipeline order
    /// because parsing pauses here).
    Waiting { close: bool },
    /// Queue was full: the request is held until a slot frees or the park
    /// deadline passes.
    Parked {
        request: Box<SimRequest>,
        key: u64,
        close: bool,
        since: Instant,
    },
    /// Streaming a `/sweep` response; the stream tracks cells in flight.
    Sweeping { stream: Box<SweepStream> },
    /// Response buffered; flush it, then close.
    Closing,
}

struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    out: Vec<u8>,
    out_pos: usize,
    state: ConnState,
    interest: Interest,
    read_closed: bool,
    /// First byte of the current request head arrived here (slowloris
    /// anchor — more dripped bytes do not refresh it).
    request_started: Option<Instant>,
    idle_since: Instant,
    /// A write returned `WouldBlock` here and no progress since.
    write_stalled_since: Option<Instant>,
    /// Trace of the request currently in flight (`Waiting`, `Parked`, or
    /// `Sweeping`).
    trace: Option<TraceCtx>,
    /// When the out-buffer last went nonempty (write-flush attribution).
    flush_started: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            parser: RequestParser::new(),
            out: Vec::new(),
            out_pos: 0,
            state: ConnState::Ready,
            interest: Interest::READ,
            read_closed: false,
            request_started: None,
            idle_since: Instant::now(),
            write_stalled_since: None,
            trace: None,
            flush_started: None,
        }
    }

    fn out_pending(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// Renders a response into the connection's write buffer (`Vec<u8>` never
/// fails as a writer), with `Retry-After` and an `x-bbs-trace` header
/// value when given.
fn append_response(
    conn: &mut Conn,
    status: u16,
    content_type: &str,
    body: &str,
    close: bool,
    retry_after: bool,
    trace_header: Option<&str>,
) {
    let mut extra: Vec<(&str, &str)> = Vec::with_capacity(2);
    if retry_after {
        extra.push(("retry-after", "1"));
    }
    if let Some(t) = trace_header {
        extra.push(("x-bbs-trace", t));
    }
    let _ = write_response(&mut conn.out, status, content_type, body, close, &extra);
    conn.idle_since = Instant::now();
}

/// A static label for the span log's `route` field (bounded cardinality:
/// unknown paths collapse to `other`).
fn route_label(path: &str) -> &'static str {
    match path {
        "/simulate" => "/simulate",
        "/sweep" => "/sweep",
        "/stats" => "/stats",
        "/metrics" => "/metrics",
        "/logs/tail" => "/logs/tail",
        "/healthz" => "/healthz",
        "/readyz" => "/readyz",
        "/models" => "/models",
        "/accelerators" => "/accelerators",
        _ => "other",
    }
}

/// Records a finished request into the stage histograms + span log and
/// returns its `x-bbs-trace` header value.
fn finish_trace(
    telemetry: &Telemetry,
    ctx: &TraceCtx,
    route: &'static str,
    served: &'static str,
    timing: Timing,
) -> String {
    let hex = trace_hex(ctx.id);
    let total_us = ctx.total_us();
    let route_us = ctx.route.as_micros() as u64;
    telemetry.record_request(
        &hex,
        route,
        served,
        ctx.parse_us,
        route_us,
        ctx.park_us,
        timing,
        total_us,
    );
    Telemetry::trace_header(
        &hex,
        served,
        ctx.parse_us,
        route_us,
        ctx.park_us,
        timing,
        total_us,
    )
}

/// A job's completion: sends `done(outcome)` back to the loop and wakes it.
fn completion(
    tx: &mpsc::Sender<Done>,
    waker: &Waker,
    done: impl FnOnce(Outcome) -> Done + Send + 'static,
) -> Completion {
    let tx = tx.clone();
    let waker = waker.clone();
    Box::new(move |outcome| {
        // A send error means the loop is gone; nothing left to notify.
        let _ = tx.send(done(outcome));
        waker.wake();
    })
}

/// The loop itself; owned by the single `bbs-serve-loop` thread.
pub(crate) struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    waker: Waker,
    waker_rx: TcpStream,
    done_tx: mpsc::Sender<Done>,
    done_rx: mpsc::Receiver<Done>,
    shared: Arc<Shared>,
    /// The loop reads the connection cap, the idle, park and drain
    /// deadlines and the out-buffer high-water mark.
    config: ServeConfig,
    conns: HashMap<u64, Conn>,
    /// FIFO of parked tokens (stale entries skipped lazily).
    parked: VecDeque<u64>,
    next_token: u64,
}

impl EventLoop {
    pub(crate) fn new(
        listener: TcpListener,
        shared: Arc<Shared>,
        config: ServeConfig,
        waker: Waker,
        waker_rx: TcpStream,
    ) -> io::Result<EventLoop> {
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(waker_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;
        let (done_tx, done_rx) = mpsc::channel();
        Ok(EventLoop {
            poller,
            listener,
            waker,
            waker_rx,
            done_tx,
            done_rx,
            shared,
            config,
            conns: HashMap::new(),
            parked: VecDeque::new(),
            next_token: FIRST_CONN_TOKEN,
        })
    }

    /// Runs until [`Shared::stopping`] is set *and* every connection has
    /// wound down (or the stop grace period passes).
    pub(crate) fn run(mut self) {
        let mut events: Vec<(u64, Readiness)> = Vec::new();
        let mut last_scan = Instant::now();
        let mut stop_deadline: Option<Instant> = None;
        loop {
            let stopping = self.shared.stopping.load(Ordering::SeqCst);
            let timeout = if stopping || !self.conns.is_empty() {
                Some(TICK)
            } else {
                None
            };
            events.clear();
            let wait_started = Instant::now();
            if let Err(e) = self.poller.wait(&mut events, timeout) {
                // A runtime I/O failure, not an invariant violation: log,
                // park briefly to avoid a hot spin, and retry (stop still
                // works — the next iteration re-reads the flag).
                self.shared.telemetry.logger.error(
                    "poller wait failed",
                    &[("error", Value::Str(&e.to_string()))],
                );
                std::thread::sleep(TICK);
            }
            let turn_started = Instant::now();
            self.shared
                .telemetry
                .poll_wait_us
                .record(turn_started.duration_since(wait_started).as_micros() as u64);
            if !events.is_empty() {
                self.shared
                    .telemetry
                    .ready_events
                    .record(events.len() as u64);
            }

            let mut accept_ready = false;
            for &(token, ready) in events.iter() {
                match token {
                    TOKEN_LISTENER => accept_ready = true,
                    TOKEN_WAKER => self.drain_waker(),
                    _ => self.handle_conn_event(token, ready),
                }
            }

            self.drain_completions();
            self.retry_parked();

            if accept_ready {
                self.accept_ready();
            }

            let now = Instant::now();
            if now.duration_since(last_scan) >= TICK {
                last_scan = now;
                self.scan_deadlines(now);
                self.retry_parked();
            }

            if self.shared.stopping.load(Ordering::SeqCst) {
                let deadline = *stop_deadline.get_or_insert(now + self.config.drain_timeout);
                self.wind_down();
                if self.conns.is_empty() || now >= deadline {
                    break;
                }
            }

            self.shared
                .telemetry
                .turn_us
                .record(turn_started.elapsed().as_micros() as u64);
        }
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.waker_rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn drain_completions(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            self.handle_done(done);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            // Fault site: a chaos plan can sever fresh connections, the
            // way a flaky LB or mid-handshake peer crash would. Dropping
            // the stream here sends RST/FIN before any HTTP exchange.
            if self.shared.service.faults().reset_connection() {
                continue;
            }
            let stopping = self.shared.stopping.load(Ordering::SeqCst);
            if stopping || self.conns.len() >= self.config.max_connections {
                // Best-effort refusal: the socket buffer almost always
                // takes a short 503 even nonblocking.
                let message = if stopping {
                    "shutting down"
                } else {
                    "connection limit reached"
                };
                let _ = write_response(
                    &mut &stream,
                    503,
                    "application/json",
                    &error_body(message),
                    true,
                    &[("retry-after", "1")],
                );
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            if self
                .poller
                .register(stream.as_raw_fd(), token, Interest::READ)
                .is_err()
            {
                continue;
            }
            self.conns.insert(token, Conn::new(stream));
            let open = self.conns.len();
            self.shared.connections_open.store(open, Ordering::SeqCst);
            self.shared
                .connections_peak
                .fetch_max(open, Ordering::SeqCst);
        }
    }

    fn handle_conn_event(&mut self, token: u64, ready: Readiness) {
        if ready.readable {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.interest.read {
                let mut buf = [0u8; READ_CHUNK];
                loop {
                    if conn.parser.buffered() > READ_CAP {
                        break;
                    }
                    match conn.stream.read(&mut buf) {
                        Ok(0) => {
                            conn.read_closed = true;
                            break;
                        }
                        Ok(n) => {
                            conn.parser.feed(&buf[..n]);
                            if conn.request_started.is_none() && !conn.parser.is_idle() {
                                conn.request_started = Some(Instant::now());
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            self.remove_conn(token);
                            return;
                        }
                    }
                }
            }
        }
        if ready.hangup {
            // ERR/HUP is level-triggered even with an empty interest set
            // (a client that RSTs while its request is Waiting or Parked).
            // With no read or write interest nothing below can consume the
            // condition and the loop would spin hot on it; the peer is
            // gone either way, so drop the connection — its in-flight
            // completion finds the token missing and is discarded.
            let Some(conn) = self.conns.get(&token) else {
                return;
            };
            if !conn.interest.read && !conn.interest.write {
                self.remove_conn(token);
                return;
            }
        }
        self.advance(token);
    }

    /// Parses and dispatches buffered requests while the connection is
    /// `Ready`, interleaved with flushes (a pipelined burst can buffer
    /// more responses than the high-water mark in one pass). The single
    /// place a connection makes forward progress, called after every
    /// stimulus. Iterative, not recursive: each outer round requires a
    /// dispatched request, which consumes parser bytes, so it terminates.
    fn advance(&mut self, token: u64) {
        let high_water = self.config.high_water;
        loop {
            let mut progressed = false;
            loop {
                let (request, parse_us) = {
                    let Some(conn) = self.conns.get_mut(&token) else {
                        return;
                    };
                    if !matches!(conn.state, ConnState::Ready) {
                        break;
                    }
                    if conn.out_pending() >= high_water {
                        break;
                    }
                    let parse_started = Instant::now();
                    match conn.parser.next_request() {
                        Ok(Some(request)) => {
                            let parse_us = parse_started.elapsed().as_micros() as u64;
                            self.shared.telemetry.parse_us.record(parse_us);
                            conn.request_started = None;
                            conn.idle_since = Instant::now();
                            (request, parse_us)
                        }
                        Ok(None) if !conn.read_closed || conn.parser.is_idle() => break,
                        // Unframed bytes, or EOF in the middle of a request.
                        _ => {
                            append_response(
                                conn,
                                400,
                                "application/json",
                                &error_body("malformed request"),
                                true,
                                false,
                                None,
                            );
                            conn.state = ConnState::Closing;
                            break;
                        }
                    }
                };
                self.dispatch(token, request, parse_us);
                progressed = true;
            }
            if !self.flush_conn(token) {
                return; // connection closed
            }
            // A sweep that paused at the high-water mark only resumes
            // here: the flush above is the one place buffered bytes drain,
            // and completions alone cannot restart a stream whose last
            // in-flight cell finished while the buffer was full. Re-pump
            // whenever the drain opened budget; new records need another
            // flush round, so this folds into the progress loop.
            let sweeping = self.conns.get(&token).is_some_and(|conn| {
                matches!(conn.state, ConnState::Sweeping { .. }) && conn.out_pending() < high_water
            });
            if sweeping {
                let before = self.conns[&token].out.len();
                self.pump_sweep(token);
                let Some(conn) = self.conns.get(&token) else {
                    return;
                };
                if conn.out.len() != before || !matches!(conn.state, ConnState::Sweeping { .. }) {
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        self.update_interest(token);
    }

    fn dispatch(&mut self, token: u64, request: Request, parse_us: u64) {
        let stopping = self.shared.stopping.load(Ordering::SeqCst);
        let close = request.wants_close() || stopping;
        let mut ctx = TraceCtx::new(parse_us);
        let route = route_label(&request.path);
        let outcome = route_request(&request, &self.shared);
        ctx.route = ctx.dispatched.elapsed();
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match outcome {
            RouteOutcome::Respond {
                status,
                body,
                content_type,
                retry_after,
                close_conn,
            } => {
                let close = close || close_conn;
                let header = finish_trace(
                    &self.shared.telemetry,
                    &ctx,
                    route,
                    "inline",
                    Timing::default(),
                );
                append_response(
                    conn,
                    status,
                    content_type,
                    &body,
                    close,
                    retry_after,
                    Some(&header),
                );
                if close {
                    conn.state = ConnState::Closing;
                }
            }
            RouteOutcome::Simulate { request, key } => {
                conn.trace = Some(ctx);
                self.submit_simulate(token, request, key, close, None);
            }
            RouteOutcome::Sweep { plan } => {
                // NDJSON stream: EOF-framed, always ends the connection.
                // The trace id rides the stream head; the span is recorded
                // when the stream finishes (see `pump_sweep`).
                let id_header = format!("id={}", trace_hex(ctx.id));
                let _ = write_stream_head(
                    &mut conn.out,
                    200,
                    "application/x-ndjson",
                    &[("x-bbs-trace", &id_header)],
                );
                conn.trace = Some(ctx);
                conn.state = ConnState::Sweeping {
                    stream: Box::new(SweepStream::new(plan)),
                };
                self.pump_sweep(token);
            }
        }
    }

    /// Submits a `/simulate` for a `Ready` connection whose trace is set —
    /// the one submit path of a new request and of a parked one's retry.
    /// A hit is answered in this loop turn; a pending job waits in
    /// `Waiting` for its completion; a full queue parks the connection,
    /// or answers 503 at once when parking is off. A retry passes the
    /// time it was first parked as `parked_since`: still refused, it is
    /// parked again with that deadline and this returns `false`.
    fn submit_simulate(
        &mut self,
        token: u64,
        request: SimRequest,
        key: u64,
        close: bool,
        parked_since: Option<Instant>,
    ) -> bool {
        let done = completion(&self.done_tx, &self.waker, move |outcome| Done::Simulate {
            token,
            key,
            outcome,
        });
        let outcome = match self.shared.submit_job(request, key, done) {
            Submitted::Hit(bytes) => {
                self.shared.saturated.store(false, Ordering::SeqCst);
                Ok((bytes, Served::Hit, Timing::default()))
            }
            Submitted::Pending => {
                self.shared.saturated.store(false, Ordering::SeqCst);
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.state = ConnState::Waiting { close };
                }
                return true;
            }
            Submitted::Busy(_) if parked_since.is_none() && self.config.park_timeout.is_zero() => {
                // Fail-fast saturation is readiness-visible immediately;
                // with parking it only counts once a request waits out the
                // full park deadline.
                self.shared.saturated.store(true, Ordering::SeqCst);
                Err(ExecuteError::Busy)
            }
            Submitted::Busy(request) => {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return true;
                };
                conn.state = ConnState::Parked {
                    request: Box::new(request),
                    key,
                    close,
                    since: parked_since.unwrap_or_else(Instant::now),
                };
                if parked_since.is_some() {
                    // Still full: it keeps its place at the head of the line.
                    return false;
                }
                self.parked.push_back(token);
                self.shared
                    .connections_parked
                    .store(self.count_parked(), Ordering::SeqCst);
                return true;
            }
            Submitted::ShuttingDown => Err(ExecuteError::ShuttingDown),
        };
        self.answer_simulate(token, key, outcome, close, false);
        true
    }

    /// Turns a `/simulate` outcome into its response: the one place a
    /// `/simulate` is answered, whether it ends at submit (a hit or a
    /// refusal), on its completion, or at its park deadline (`expired`).
    /// Records the trace, and leaves the connection `Ready` — or
    /// `Closing` when the request asked to close, the server is shutting
    /// down, or the park expired.
    fn answer_simulate(
        &mut self,
        token: u64,
        key: u64,
        outcome: Outcome,
        close: bool,
        expired: bool,
    ) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let (status, body, served, timing, close) = match outcome {
            Ok((bytes, served, timing)) => (
                200,
                simulate_ok_body(key, served, &bytes),
                served.label(),
                timing,
                close,
            ),
            Err(e) => (
                e.status(),
                error_body(e.message()),
                if expired { "park-expired" } else { e.label() },
                Timing::default(),
                close || expired || e == ExecuteError::ShuttingDown,
            ),
        };
        let header = conn
            .trace
            .take()
            .map(|ctx| finish_trace(&self.shared.telemetry, &ctx, "/simulate", served, timing));
        append_response(
            conn,
            status,
            "application/json",
            &body,
            close,
            status == 503,
            header.as_deref(),
        );
        conn.state = if close {
            ConnState::Closing
        } else {
            ConnState::Ready
        };
    }

    /// Submits sweep cells while the stream has budget: at most
    /// [`Shared::sweep_budget`] cells in flight (the worker count, or the
    /// shard fan-out width in coordinator mode), pausing above the
    /// out-buffer high-water mark. Hits, poisoned cells and refused cells
    /// get their records inline.
    fn pump_sweep(&mut self, token: u64) {
        let budget = self.shared.sweep_budget();
        let high_water = self.config.high_water;
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let ConnState::Sweeping { stream } = &mut conn.state else {
                return;
            };
            if conn.out.len() - conn.out_pos >= high_water || stream.in_flight() >= budget {
                break;
            }
            let Some(cell) = stream.take_next() else {
                break;
            };
            let meta = cell.meta;
            let record = match cell.request {
                Err(message) => stream.finish_cell(&meta, Err(&message)),
                Ok(request) => {
                    let keyed = Instant::now();
                    let key = request.key();
                    if let Some(ctx) = conn.trace.as_mut() {
                        ctx.route += keyed.elapsed();
                    }
                    let cell_meta = meta.clone();
                    let done =
                        completion(&self.done_tx, &self.waker, move |outcome| Done::SweepCell {
                            token,
                            meta: cell_meta,
                            key,
                            outcome,
                        });
                    match self.shared.submit_job(request, key, done) {
                        Submitted::Hit(bytes) => {
                            stream.finish_cell(&meta, Ok((key, &bytes, Served::Hit)))
                        }
                        Submitted::Pending => {
                            stream.begin_flight();
                            continue;
                        }
                        Submitted::Busy(_) => {
                            stream.finish_cell(&meta, Err(ExecuteError::Busy.message()))
                        }
                        Submitted::ShuttingDown => {
                            stream.finish_cell(&meta, Err(ExecuteError::ShuttingDown.message()))
                        }
                    }
                }
            };
            conn.out.extend_from_slice(record.as_bytes());
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if let ConnState::Sweeping { stream } = &conn.state {
            if stream.is_done() {
                let summary = stream.summary_line();
                conn.out.extend_from_slice(summary.as_bytes());
                conn.state = ConnState::Closing;
                if let Some(ctx) = conn.trace.take() {
                    // End of stream: fold the whole sweep into one span
                    // (per-cell stage timings were recorded by the workers).
                    finish_trace(
                        &self.shared.telemetry,
                        &ctx,
                        "/sweep",
                        "stream",
                        Timing::default(),
                    );
                }
            }
        }
    }

    fn handle_done(&mut self, done: Done) {
        match done {
            Done::Simulate {
                token,
                key,
                outcome,
            } => {
                let Some(&ConnState::Waiting { close }) = self.conns.get(&token).map(|c| &c.state)
                else {
                    return; // connection died while its job ran
                };
                self.answer_simulate(token, key, outcome, close, false);
                self.advance(token);
            }
            Done::SweepCell {
                token,
                meta,
                key,
                outcome,
            } => {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                let ConnState::Sweeping { stream } = &mut conn.state else {
                    return;
                };
                stream.end_flight();
                // The cell's stage timings already landed in the global
                // histograms inside the worker; the record carries none.
                let record = match outcome {
                    Ok((bytes, served, _timing)) => {
                        stream.finish_cell(&meta, Ok((key, &bytes, served)))
                    }
                    Err(e) => stream.finish_cell(&meta, Err(e.message())),
                };
                conn.out.extend_from_slice(record.as_bytes());
                // `advance` flushes, re-pumps as the drain opens budget
                // (the record above may already sit past the high-water
                // mark), and refreshes interest.
                self.advance(token);
            }
        }
    }

    /// FIFO retry of parked connections; every completion frees a queue
    /// slot, so this runs after draining completions (and on the tick).
    /// Stops at the first still-refused request to preserve ordering.
    fn retry_parked(&mut self) {
        while let Some(&token) = self.parked.front() {
            let Some((request, key, close, since)) = self.unpark(token) else {
                self.parked.pop_front();
                continue;
            };
            if !self.submit_simulate(token, request, key, close, Some(since)) {
                break;
            }
            self.parked.pop_front();
            self.shared
                .connections_parked
                .store(self.count_parked(), Ordering::SeqCst);
            self.advance(token);
        }
    }

    /// Takes a parked connection's request out of `Parked`, leaving the
    /// connection `Ready` and booking the time it waited into its trace.
    /// `None` if the connection is gone or no longer parked.
    fn unpark(&mut self, token: u64) -> Option<(SimRequest, u64, bool, Instant)> {
        let conn = self.conns.get_mut(&token)?;
        match std::mem::replace(&mut conn.state, ConnState::Ready) {
            ConnState::Parked {
                request,
                key,
                close,
                since,
            } => {
                if let Some(ctx) = conn.trace.as_mut() {
                    ctx.park_us = since.elapsed().as_micros() as u64;
                }
                Some((*request, key, close, since))
            }
            other => {
                conn.state = other;
                None
            }
        }
    }

    fn count_parked(&self) -> usize {
        self.conns
            .values()
            .filter(|c| matches!(c.state, ConnState::Parked { .. }))
            .count()
    }

    fn scan_deadlines(&mut self, now: Instant) {
        let idle = self.config.idle_timeout;
        let mut to_drop: Vec<u64> = Vec::new();
        let mut to_expire: Vec<u64> = Vec::new();
        for (&token, conn) in &self.conns {
            match &conn.state {
                ConnState::Parked { since, .. }
                    if now.duration_since(*since) >= self.config.park_timeout =>
                {
                    to_expire.push(token);
                }
                ConnState::Ready => {
                    if conn.parser.is_idle()
                        && conn.out.is_empty()
                        && now.duration_since(conn.idle_since) >= idle
                    {
                        // Idle keep-alive reap: close quietly.
                        to_drop.push(token);
                        continue;
                    }
                    if let Some(started) = conn.request_started {
                        if now.duration_since(started) >= idle {
                            // Slowloris: the head never finished.
                            to_drop.push(token);
                            continue;
                        }
                    }
                }
                _ => {}
            }
            if let Some(stalled) = conn.write_stalled_since {
                if now.duration_since(stalled) >= idle {
                    to_drop.push(token);
                }
            }
        }
        for token in to_drop {
            self.remove_conn(token);
        }
        for token in to_expire {
            // A request waited out the whole park deadline and still found
            // the queue full: the instance is saturated, not just bursty.
            self.shared.saturated.store(true, Ordering::SeqCst);
            self.expire_parked(token, ExecuteError::Busy);
        }
    }

    /// Park deadline passed (or shutdown): degrade to the 503 +
    /// `Retry-After` path instead of a silent disconnect.
    fn expire_parked(&mut self, token: u64, error: ExecuteError) {
        let Some((_, key, close, _)) = self.unpark(token) else {
            return;
        };
        self.answer_simulate(token, key, Err(error), close, true);
        self.shared
            .connections_parked
            .store(self.count_parked(), Ordering::SeqCst);
        self.advance(token);
    }

    /// Shutdown pass, run every iteration while stopping: idle connections
    /// close, parked ones 503, in-flight exchanges (`Waiting`, `Sweeping`,
    /// unflushed `Closing`) are left to finish inside the grace period.
    fn wind_down(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(conn) = self.conns.get(&token) else {
                continue;
            };
            match conn.state {
                ConnState::Ready if conn.out.is_empty() && conn.parser.is_idle() => {
                    self.remove_conn(token);
                }
                ConnState::Parked { .. } => self.expire_parked(token, ExecuteError::ShuttingDown),
                _ => {}
            }
        }
    }

    /// Flushes buffered response bytes and closes finished connections.
    /// Returns `false` if the connection was removed.
    fn flush_conn(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        if conn.out_pending() > 0 {
            self.shared
                .telemetry
                .out_depth
                .record(conn.out_pending() as u64);
            if conn.flush_started.is_none() {
                conn.flush_started = Some(Instant::now());
            }
        }
        let mut dead = false;
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    conn.write_stalled_since = None;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if conn.write_stalled_since.is_none() {
                        conn.write_stalled_since = Some(Instant::now());
                    }
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        if conn.out_pos == conn.out.len() && conn.out_pos > 0 {
            conn.out.clear();
            conn.out_pos = 0;
            conn.write_stalled_since = None;
            if let Some(started) = conn.flush_started.take() {
                self.shared
                    .telemetry
                    .flush_us
                    .record(started.elapsed().as_micros() as u64);
            }
        }
        let flushed = conn.out_pending() == 0;
        if dead || (flushed && matches!(conn.state, ConnState::Closing)) {
            self.remove_conn(token);
            return false;
        }
        if flushed
            && conn.read_closed
            && conn.parser.is_idle()
            && matches!(conn.state, ConnState::Ready)
        {
            // Clean keep-alive end from the peer.
            self.remove_conn(token);
            return false;
        }
        true
    }

    /// Re-registers interest: read only while `Ready` below the
    /// high-water mark, write only while bytes are pending
    /// (level-triggered pollers would spin otherwise).
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want = Interest {
            read: !conn.read_closed
                && matches!(conn.state, ConnState::Ready)
                && conn.out_pending() < self.config.high_water,
            write: conn.out_pending() > 0,
        };
        if want != conn.interest {
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token, want)
                .is_err()
            {
                self.remove_conn(token);
                return;
            }
            conn.interest = want;
        }
    }

    fn remove_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd(), token);
            let was_parked = matches!(conn.state, ConnState::Parked { .. });
            self.shared
                .connections_open
                .store(self.conns.len(), Ordering::SeqCst);
            if was_parked {
                self.shared
                    .connections_parked
                    .store(self.count_parked(), Ordering::SeqCst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    /// Registers, waits, modifies and deregisters on one backend's poller.
    macro_rules! poller_roundtrip {
        ($poller:ty) => {{
            let mut poller = <$poller>::new().unwrap();
            let (a, b) = tcp_pair();
            b.set_nonblocking(true).unwrap();
            poller.register(b.as_raw_fd(), 42, Interest::READ).unwrap();

            // Nothing ready yet: a zero-timeout wait returns empty.
            let mut events = Vec::new();
            poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
            assert!(events.is_empty(), "{events:?}");

            // One byte makes token 42 readable.
            (&a).write_all(&[9]).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(events.iter().any(|&(t, r)| t == 42 && r.readable));

            // Write interest on an idle socket reports writable immediately.
            events.clear();
            poller
                .modify(
                    b.as_raw_fd(),
                    42,
                    Interest {
                        read: false,
                        write: true,
                    },
                )
                .unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(events.iter().any(|&(t, r)| t == 42 && r.writable));

            poller.deregister(b.as_raw_fd(), 42).unwrap();
            events.clear();
            poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
            assert!(events.is_empty(), "deregistered fd still reported");
        }};
    }

    #[test]
    fn poll_backend_roundtrip() {
        poller_roundtrip!(poll::Poller);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_backend_roundtrip() {
        poller_roundtrip!(epoll::Poller);
    }

    #[test]
    fn waker_wakes_a_blocked_wait() {
        let mut poller = Poller::new().unwrap();
        let (waker, rx) = waker_pair().unwrap();
        poller
            .register(rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)
            .unwrap();
        // Keep a clone alive here: dropping every Waker closes the
        // socketpair, which reads as an EOF readiness edge.
        let remote = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
            remote.wake(); // coalescing duplicates is fine
        });
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|&(t, r)| t == TOKEN_WAKER && r.readable));
        handle.join().unwrap();

        // Drained, the waker goes quiet again.
        let mut buf = [0u8; 16];
        let mut rx_ref = &rx;
        while rx_ref.read(&mut buf).is_ok_and(|n| n > 0) {}
        events.clear();
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.is_empty());
    }
}
