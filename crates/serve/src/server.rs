//! The TCP front end: routing and lifecycle around the readiness event
//! loop in [`crate::event_loop`].
//!
//! Routes:
//!
//! | route              | method | body                                      |
//! |--------------------|--------|-------------------------------------------|
//! | `/simulate`        | POST   | simulation request → result + meta        |
//! | `/sweep`           | POST   | grid spec → NDJSON cell stream + summary  |
//! | `/stats`           | GET    | counters + latency summaries + uptime     |
//! | `/metrics`         | GET    | Prometheus text exposition                |
//! | `/logs/tail`       | GET    | recent log events (bounded NDJSON ring)   |
//! | `/healthz`         | GET    | liveness                                  |
//! | `/readyz`          | GET    | readiness (503 draining / saturated)      |
//! | `/models`          | GET    | zoo model names                           |
//! | `/accelerators`    | GET    | canonical accelerator ids                 |
//!
//! One `bbs-serve-loop` thread multiplexes every connection (epoll on
//! Linux, `poll(2)` elsewhere); all simulation happens on the service's
//! worker pool, so the whole server runs on `workers + 1` threads no
//! matter how many clients connect. The bounded job queue is the single
//! backpressure point — and since the front end went nonblocking, a full
//! queue *parks* the connection (held open, retried as slots free) for up
//! to [`ServeConfig::park_timeout`] before degrading to `503` +
//! `Retry-After`. `/sweep` is the one streaming route: it answers with
//! `Connection: close` and EOF-framed newline-delimited JSON, one record
//! per grid cell in completion order (see [`crate::sweep`]).

use crate::coordinator::Coordinator;
use crate::event_loop::{waker_pair, EventLoop, LoopOptions, PollerKind, Waker};
use crate::http::Request;
use crate::registry::ACCELERATOR_IDS;
use crate::request::SimRequest;
use crate::service::{self, Served, ServiceConfig, SimService};
use crate::sweep::SweepPlan;
use crate::telemetry::Telemetry;
use bbs_json::Json;
use bbs_models::zoo;
use bbs_telemetry::prom::PromText;
use bbs_telemetry::{Format, Level, Logger, Value};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Default slow-request threshold (`--slow-ms`).
pub const SLOW_MS: u64 = 500;

/// Default cap on simultaneously open connections; beyond it, new sockets
/// are answered 503 + `Retry-After` and closed. Each connection past the
/// cap costs only state, not a thread, but the cap keeps a connection
/// flood from exhausting fds.
pub const MAX_CONNECTIONS: usize = 1024;
/// Default idle deadline: keep-alive connections that send nothing,
/// request heads that never finish (slowloris) and responses nobody
/// drains are reaped after this long. Generous against the slowest
/// simulation a connection might legitimately be waiting out.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(120);
/// Default parking deadline: how long a queue-full request waits for a
/// slot before its connection gets the `503` it would previously have
/// gotten immediately.
pub const PARK_TIMEOUT: Duration = Duration::from_secs(10);
/// Default out-buffer high-water mark: a connection stops parsing new
/// requests (and a sweep pauses cell submission) once this many response
/// bytes are buffered, resuming as writes drain.
pub const HIGH_WATER: usize = 256 * 1024;
/// Default drain deadline (`--drain-timeout-ms`): how long shutdown waits
/// for in-flight exchanges before closing their connections.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker-pool / queue / cache sizing.
    pub service: ServiceConfig,
    /// Most simultaneously open connections.
    pub max_connections: usize,
    /// Idle keep-alive / slowloris / stalled-write reap deadline.
    pub idle_timeout: Duration,
    /// How long queue-full requests stay parked before a 503;
    /// `Duration::ZERO` restores the old fail-fast behavior.
    pub park_timeout: Duration,
    /// Out-buffer high-water mark per connection (see [`HIGH_WATER`]).
    /// Mostly a sizing/test knob; the default suits production.
    pub high_water: usize,
    /// Readiness backend (`Auto` = epoll on Linux, `poll(2)` elsewhere).
    pub poller: PollerKind,
    /// Log level filter (`--log-level`).
    pub log_level: Level,
    /// Stderr log rendering (`--log-format`).
    pub log_format: Format,
    /// Suppress stderr logging (tests/benches; the `/logs/tail` ring still
    /// records).
    pub log_quiet: bool,
    /// Requests slower than this many milliseconds log at `warn`
    /// (`--slow-ms`).
    pub slow_ms: u64,
    /// Shutdown drain deadline: in-flight work past it is abandoned (its
    /// connections closed), parked requests answer 503 immediately.
    pub drain_timeout: Duration,
    /// Downstream shard addresses (`--shard-of`). Non-empty turns this
    /// instance into a coordinator: every `/simulate` request and `/sweep`
    /// cell is rendezvous-hashed by its content key and forwarded to one
    /// of these `bbs-serve` instances instead of the local worker pool.
    pub shards: Vec<SocketAddr>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            service: ServiceConfig::default(),
            max_connections: MAX_CONNECTIONS,
            idle_timeout: IDLE_TIMEOUT,
            park_timeout: PARK_TIMEOUT,
            high_water: HIGH_WATER,
            poller: PollerKind::Auto,
            log_level: Level::Info,
            log_format: Format::Json,
            log_quiet: false,
            slow_ms: SLOW_MS,
            drain_timeout: DRAIN_TIMEOUT,
            shards: Vec::new(),
        }
    }
}

pub(crate) struct Shared {
    pub(crate) service: Arc<SimService>,
    pub(crate) telemetry: Arc<Telemetry>,
    pub(crate) requests: AtomicU64,
    pub(crate) sweeps: AtomicU64,
    pub(crate) sweep_cells: AtomicU64,
    pub(crate) connections_open: AtomicUsize,
    pub(crate) connections_peak: AtomicUsize,
    pub(crate) connections_parked: AtomicUsize,
    pub(crate) stopping: AtomicBool,
    /// Set when a request waits out the park timeout (or is 503'd with
    /// parking disabled) on a full queue; cleared when a submit gets
    /// through. `/readyz` answers 503 while it holds, so load balancers
    /// rotate a saturated instance out of service.
    pub(crate) saturated: AtomicBool,
    /// Present in coordinator mode (`--shard-of`): jobs go downstream
    /// instead of to the local worker pool.
    pub(crate) coordinator: Option<Coordinator>,
}

impl Shared {
    /// The one seam the event loop submits jobs through: the coordinator
    /// when configured, the local service otherwise. Both honor the same
    /// nonblocking [`service::Submitted`] contract.
    pub(crate) fn submit_job(
        &self,
        request: SimRequest,
        done: service::Completion,
    ) -> service::Submitted {
        match &self.coordinator {
            Some(coordinator) => coordinator.submit(request, done),
            None => self.service.submit(request, done),
        }
    }

    /// How many sweep cells to keep in flight at once: the local worker
    /// count, or the full shard fan-out width in coordinator mode.
    pub(crate) fn sweep_budget(&self) -> usize {
        match &self.coordinator {
            Some(coordinator) => coordinator.max_in_flight(),
            None => self.service.workers().max(1),
        }
    }
}

/// A running server; dropping it does *not* stop it — call
/// [`ServerHandle::stop`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    waker: Waker,
    event_loop: JoinHandle<()>,
    backend: &'static str,
}

/// Binds, spawns the worker pool and the event-loop thread, and returns.
pub fn start(config: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let telemetry = Arc::new(Telemetry::new(
        Logger::new(config.log_level, config.log_format, config.log_quiet),
        config.slow_ms,
    ));
    let coordinator = if config.shards.is_empty() {
        None
    } else {
        Some(Coordinator::start(&config.shards, Arc::clone(&telemetry)))
    };
    let shared = Arc::new(Shared {
        service: service::start_with(config.service, Arc::clone(&telemetry)),
        telemetry,
        requests: AtomicU64::new(0),
        sweeps: AtomicU64::new(0),
        sweep_cells: AtomicU64::new(0),
        connections_open: AtomicUsize::new(0),
        connections_peak: AtomicUsize::new(0),
        connections_parked: AtomicUsize::new(0),
        stopping: AtomicBool::new(false),
        saturated: AtomicBool::new(false),
        coordinator,
    });

    let (waker, waker_rx) = waker_pair()?;
    let opts = LoopOptions {
        max_connections: config.max_connections,
        idle_timeout: config.idle_timeout,
        park_timeout: config.park_timeout,
        high_water: config.high_water,
        poller: config.poller,
        drain_timeout: config.drain_timeout,
    };
    let event_loop = EventLoop::new(listener, Arc::clone(&shared), opts, waker.clone(), waker_rx)?;
    let backend = event_loop.backend_name();
    let event_loop = std::thread::Builder::new()
        .name("bbs-serve-loop".to_string())
        .spawn(move || event_loop.run())
        .expect("spawn event loop");
    shared.telemetry.logger.info(
        "server started",
        &[
            ("addr", Value::Str(&addr.to_string())),
            ("backend", Value::Str(backend)),
            (
                "simd_backend",
                Value::Str(bbs_tensor::lanes::Backend::active().label()),
            ),
            (
                "shards",
                Value::U64(shared.coordinator.as_ref().map_or(0, |c| c.shard_count()) as u64),
            ),
        ],
    );

    Ok(ServerHandle {
        addr,
        shared,
        waker,
        event_loop,
        backend,
    })
}

impl ServerHandle {
    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The readiness backend the loop runs on (`"epoll"` / `"poll"`).
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// The server's shared telemetry (histograms, logger, slow-request
    /// counter) — the same instance `GET /metrics` renders.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.shared.telemetry
    }

    /// Stops accepting, lets in-flight exchanges finish (bounded by the
    /// loop's grace period), then drains queued simulations and joins the
    /// workers.
    pub fn stop(self) {
        self.shared.telemetry.logger.info("server stopping", &[]);
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.waker.wake();
        let _ = self.event_loop.join();
        // The loop has stopped feeding jobs; drain the forwarders before
        // the local pool so every completion has fired by the time the
        // service joins its workers.
        if let Some(coordinator) = &self.shared.coordinator {
            coordinator.stop();
        }
        self.shared.service.stop();
    }
}

/// What routing decided, before any I/O happens. The event loop turns
/// `Respond` into buffered bytes immediately; `Simulate` and `Sweep` go
/// through the worker pool asynchronously.
pub(crate) enum RouteOutcome {
    Respond {
        status: u16,
        body: String,
        /// Response content type (`application/json` for everything except
        /// `/metrics` and `/logs/tail`).
        content_type: &'static str,
        /// Attach `Retry-After` (503 backpressure answers).
        retry_after: bool,
        /// Force `Connection: close` regardless of what the request asked.
        close_conn: bool,
    },
    Simulate {
        request: SimRequest,
        key: u64,
    },
    Sweep {
        plan: SweepPlan,
    },
}

pub(crate) fn error_body(message: &str) -> String {
    Json::obj(vec![("error", Json::str(message))]).to_string()
}

/// Routes a parsed request. `requests` counts every `/simulate` and
/// `/sweep` POST (even ones that fail decoding), `sweeps`/`sweep_cells`
/// only successfully decoded plans.
pub(crate) fn route_request(request: &Request, shared: &Shared) -> RouteOutcome {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/simulate") => {
            shared.requests.fetch_add(1, Ordering::Relaxed);
            simulate_route(&request.body, shared)
        }
        ("POST", "/sweep") => {
            shared.requests.fetch_add(1, Ordering::Relaxed);
            sweep_route(&request.body, shared)
        }
        ("GET", "/stats") => respond(200, stats_body(shared)),
        ("GET", "/metrics") => RouteOutcome::Respond {
            status: 200,
            body: metrics_body(shared),
            content_type: "text/plain; version=0.0.4",
            retry_after: false,
            close_conn: false,
        },
        ("GET", "/logs/tail") => RouteOutcome::Respond {
            status: 200,
            body: logs_tail_body(shared),
            content_type: "application/x-ndjson",
            retry_after: false,
            close_conn: false,
        },
        ("GET", "/healthz") => respond(
            200,
            Json::obj(vec![("status", Json::str("ok"))]).to_string(),
        ),
        // Readiness, distinct from liveness: a draining or saturated
        // instance is alive (healthz 200) but should get no new traffic.
        ("GET", "/readyz") => {
            let status = if shared.stopping.load(Ordering::SeqCst) {
                "draining"
            } else if shared.saturated.load(Ordering::SeqCst) {
                "saturated"
            } else if shared
                .coordinator
                .as_ref()
                .is_some_and(|c| !c.any_serviceable())
            {
                // A coordinator with no live shard can accept nothing.
                "unreachable"
            } else {
                "ready"
            };
            RouteOutcome::Respond {
                status: if status == "ready" { 200 } else { 503 },
                body: Json::obj(vec![("status", Json::str(status))]).to_string(),
                content_type: "application/json",
                retry_after: status != "ready",
                close_conn: false,
            }
        }
        ("GET", "/models") => respond(
            200,
            Json::obj(vec![(
                "models",
                Json::Arr(zoo::names().into_iter().map(Json::str).collect()),
            )])
            .to_string(),
        ),
        ("GET", "/accelerators") => respond(
            200,
            Json::obj(vec![(
                "accelerators",
                Json::Arr(ACCELERATOR_IDS.into_iter().map(Json::str).collect()),
            )])
            .to_string(),
        ),
        ("POST", _) | ("GET", _) => respond(404, error_body("no such route")),
        _ => respond(405, error_body("method not allowed")),
    }
}

fn respond(status: u16, body: String) -> RouteOutcome {
    RouteOutcome::Respond {
        status,
        body,
        content_type: "application/json",
        retry_after: false,
        close_conn: false,
    }
}

fn simulate_route(body: &[u8], shared: &Shared) -> RouteOutcome {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return respond(400, error_body("body must be utf-8 JSON")),
    };
    let parsed = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => return respond(400, error_body(&e.to_string())),
    };
    let request = match SimRequest::from_json(&parsed, shared.service.max_cap()) {
        Ok(r) => r,
        Err(e) => return respond(400, error_body(&e)),
    };
    let key = request.key();
    RouteOutcome::Simulate { request, key }
}

/// Decodes a sweep grid. Shape errors answer a regular 400 with
/// `Connection: close` (a `/sweep` always ends its connection); a decoded
/// plan becomes the event loop's streaming state.
fn sweep_route(body: &[u8], shared: &Shared) -> RouteOutcome {
    let plan = match std::str::from_utf8(body)
        .map_err(|_| "body must be utf-8 JSON".to_string())
        .and_then(|text| Json::parse(text).map_err(|e| e.to_string()))
        .and_then(|parsed| SweepPlan::from_json(&parsed, shared.service.max_cap()))
    {
        Ok(p) => p,
        Err(e) => {
            return RouteOutcome::Respond {
                status: 400,
                body: error_body(&e),
                content_type: "application/json",
                retry_after: false,
                close_conn: true,
            }
        }
    };
    shared.sweeps.fetch_add(1, Ordering::Relaxed);
    shared
        .sweep_cells
        .fetch_add(plan.cell_count() as u64, Ordering::Relaxed);
    RouteOutcome::Sweep { plan }
}

/// The `/simulate` 200 body. The cached payload is spliced in verbatim —
/// the result is *not* re-parsed/re-encoded, so byte identity across hits
/// is structural, not probabilistic.
pub(crate) fn simulate_ok_body(key: u64, served: Served, result_text: &str) -> String {
    let meta = Json::obj(vec![
        ("cached", Json::Bool(served == Served::Hit)),
        ("served", Json::str(served.label())),
        ("key", Json::str(&format!("{key:016x}"))),
    ])
    .to_string();
    format!("{{\"meta\":{meta},\"result\":{result_text}}}")
}

/// The `GET /metrics` Prometheus exposition: service/connection counters
/// plus every stage histogram from the shared [`Telemetry`].
fn metrics_body(shared: &Shared) -> String {
    let service = &shared.service;
    let store = service.workload_store();
    let mut p = PromText::new();
    p.counter_vec(
        "bbs_simd_backend_info",
        "Kernel lane backend selected at startup (constant 1 per backend).",
        "backend",
        &[(bbs_tensor::lanes::Backend::active().label(), 1)],
    );
    p.counter(
        "bbs_requests_total",
        "POST /simulate and /sweep requests routed.",
        shared.requests.load(Ordering::Relaxed),
    );
    p.counter_vec(
        "bbs_cache_lookups_total",
        "Result-cache lookups by outcome.",
        "outcome",
        &[
            ("hit", service.cache.hits()),
            ("miss", service.cache.misses()),
        ],
    );
    p.counter(
        "bbs_coalesced_total",
        "Requests that joined an in-flight computation.",
        service.coalesced(),
    );
    p.counter(
        "bbs_sim_runs_total",
        "Simulations actually executed.",
        service.sim_runs(),
    );
    p.counter(
        "bbs_sim_errors_total",
        "Simulations that failed.",
        service.errors(),
    );
    p.counter(
        "bbs_sweeps_total",
        "Sweep plans accepted.",
        shared.sweeps.load(Ordering::Relaxed),
    );
    p.counter(
        "bbs_sweep_cells_total",
        "Sweep cells accepted.",
        shared.sweep_cells.load(Ordering::Relaxed),
    );
    p.counter_vec(
        "bbs_workload_lookups_total",
        "Workload-store (lowered model) lookups by outcome.",
        "outcome",
        &[("hit", store.hits()), ("miss", store.misses())],
    );
    p.gauge(
        "bbs_workload_entries",
        "Lowered models currently cached.",
        store.entries() as f64,
    );
    p.gauge(
        "bbs_workload_bytes",
        "Approximate bytes of cached lowered models.",
        store.bytes() as f64,
    );
    p.gauge(
        "bbs_cached_results",
        "Serialized results currently cached.",
        service.cache.len() as f64,
    );
    p.gauge(
        "bbs_queue_depth",
        "Jobs currently in the bounded queue.",
        service.queued() as f64,
    );
    p.gauge("bbs_workers", "Worker-pool size.", service.workers() as f64);
    p.gauge(
        "bbs_connections_open",
        "Connections currently open.",
        shared.connections_open.load(Ordering::SeqCst) as f64,
    );
    p.gauge(
        "bbs_connections_peak",
        "Most connections ever simultaneously open.",
        shared.connections_peak.load(Ordering::SeqCst) as f64,
    );
    p.gauge(
        "bbs_connections_parked",
        "Connections currently parked on a full queue.",
        shared.connections_parked.load(Ordering::SeqCst) as f64,
    );
    p.counter(
        "bbs_worker_panics_total",
        "Worker panics survived (cell failed, pool intact).",
        service.worker_panics(),
    );
    let disk = service.disk_stats().unwrap_or_default();
    let wdisk = service.workload_disk_stats().unwrap_or_default();
    p.counter_vec(
        "bbs_disk_lookups_total",
        "Durable result-tier lookups by outcome.",
        "outcome",
        &[("hit", disk.hits), ("miss", disk.misses)],
    );
    p.counter_vec(
        "bbs_workload_disk_lookups_total",
        "Durable workload-tier lookups by outcome.",
        "outcome",
        &[("hit", wdisk.hits), ("miss", wdisk.misses)],
    );
    p.counter(
        "bbs_disk_writes_total",
        "Records written to the durable tier (both stores).",
        disk.writes + wdisk.writes,
    );
    p.counter(
        "bbs_disk_quarantined_total",
        "Corrupt/torn records detected and quarantined.",
        disk.quarantined + wdisk.quarantined,
    );
    p.counter(
        "bbs_disk_evictions_total",
        "Records evicted past the disk byte budget.",
        disk.evictions + wdisk.evictions,
    );
    p.counter_vec(
        "bbs_disk_errors_total",
        "Disk-tier I/O failures by operation.",
        "op",
        &[
            ("read", disk.read_errors + wdisk.read_errors),
            ("write", disk.write_errors + wdisk.write_errors),
        ],
    );
    p.gauge(
        "bbs_disk_degraded",
        "1 when a disk tier has fallen back to memory-only.",
        u64::from(disk.degraded || wdisk.degraded) as f64,
    );
    p.gauge(
        "bbs_disk_entries",
        "Records currently in the durable tier (both stores).",
        (disk.entries + wdisk.entries) as f64,
    );
    p.gauge(
        "bbs_disk_bytes",
        "Bytes currently in the durable tier (both stores).",
        (disk.bytes + wdisk.bytes) as f64,
    );
    p.counter_vec(
        "bbs_faults_injected_total",
        "Faults injected by the BBS_FAULTS plan, by site.",
        "site",
        &service.faults().injected_counts(),
    );
    if let Some(coordinator) = &shared.coordinator {
        coordinator.append_prometheus(&mut p);
    }
    shared.telemetry.append_prometheus(&mut p);
    p.finish()
}

/// The `GET /logs/tail` body: the logger ring as NDJSON, oldest first.
fn logs_tail_body(shared: &Shared) -> String {
    let lines = shared
        .telemetry
        .logger
        .tail(shared.telemetry.logger.ring_capacity());
    let mut body = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in lines {
        body.push_str(&line);
        body.push('\n');
    }
    body
}

fn stats_body(shared: &Shared) -> String {
    let service = &shared.service;
    let disk = service.disk_stats();
    let wdisk = service.workload_disk_stats();
    let disk_or = |f: fn(&bbs_store::DiskStats) -> u64| disk.as_ref().map_or(0, f);
    let wdisk_or = |f: fn(&bbs_store::DiskStats) -> u64| wdisk.as_ref().map_or(0, f);
    let mut fields = vec![
        ("version", Json::str(env!("CARGO_PKG_VERSION"))),
        (
            "simd_backend",
            Json::str(bbs_tensor::lanes::Backend::active().label()),
        ),
        ("uptime_s", Json::Num(shared.telemetry.uptime_seconds())),
        (
            "requests",
            Json::from_u64(shared.requests.load(Ordering::Relaxed)),
        ),
        ("cache_hits", Json::from_u64(service.cache.hits())),
        ("cache_misses", Json::from_u64(service.cache.misses())),
        ("cached_results", Json::from_usize(service.cache.len())),
        ("coalesced", Json::from_u64(service.coalesced())),
        ("sim_runs", Json::from_u64(service.sim_runs())),
        (
            "sweeps_total",
            Json::from_u64(shared.sweeps.load(Ordering::Relaxed)),
        ),
        (
            "sweep_cells_total",
            Json::from_u64(shared.sweep_cells.load(Ordering::Relaxed)),
        ),
        (
            "workload_hits",
            Json::from_u64(service.workload_store().hits()),
        ),
        (
            "workload_misses",
            Json::from_u64(service.workload_store().misses()),
        ),
        (
            "workload_entries",
            Json::from_usize(service.workload_store().entries()),
        ),
        (
            "workload_bytes",
            Json::from_usize(service.workload_store().bytes()),
        ),
        (
            "workload_tier_hits",
            Json::from_u64(service.workload_store().tier_hits()),
        ),
        // Durable tier: present (zeroed) even without --cache-dir so
        // dashboards need no conditional schema. `disk_enabled`
        // disambiguates "no disk" from "disk with no traffic yet".
        ("disk_enabled", Json::Bool(disk.is_some())),
        ("disk_hits", Json::from_u64(disk_or(|d| d.hits))),
        ("disk_misses", Json::from_u64(disk_or(|d| d.misses))),
        ("disk_writes", Json::from_u64(disk_or(|d| d.writes))),
        ("disk_entries", Json::from_u64(disk_or(|d| d.entries))),
        ("disk_bytes", Json::from_u64(disk_or(|d| d.bytes))),
        (
            "disk_warm_entries",
            Json::from_u64(disk_or(|d| d.warm_entries)),
        ),
        (
            "disk_quarantined",
            Json::from_u64(disk_or(|d| d.quarantined) + wdisk_or(|d| d.quarantined)),
        ),
        (
            "disk_evictions",
            Json::from_u64(disk_or(|d| d.evictions) + wdisk_or(|d| d.evictions)),
        ),
        (
            "disk_read_errors",
            Json::from_u64(disk_or(|d| d.read_errors) + wdisk_or(|d| d.read_errors)),
        ),
        (
            "disk_write_errors",
            Json::from_u64(disk_or(|d| d.write_errors) + wdisk_or(|d| d.write_errors)),
        ),
        (
            "disk_degraded",
            Json::Bool(
                disk.as_ref().is_some_and(|d| d.degraded)
                    || wdisk.as_ref().is_some_and(|d| d.degraded),
            ),
        ),
        ("workload_disk_hits", Json::from_u64(wdisk_or(|d| d.hits))),
        (
            "workload_disk_writes",
            Json::from_u64(wdisk_or(|d| d.writes)),
        ),
        (
            "workload_disk_warm_entries",
            Json::from_u64(wdisk_or(|d| d.warm_entries)),
        ),
        ("worker_panics", Json::from_u64(service.worker_panics())),
        (
            "faults_injected",
            Json::from_u64(service.faults().injected_total()),
        ),
        (
            "draining",
            Json::Bool(shared.stopping.load(Ordering::SeqCst)),
        ),
        (
            "saturated",
            Json::Bool(shared.saturated.load(Ordering::SeqCst)),
        ),
        ("errors", Json::from_u64(service.errors())),
        ("queued", Json::from_usize(service.queued())),
        ("workers", Json::from_usize(service.workers())),
        (
            "connections",
            Json::from_usize(shared.connections_open.load(Ordering::SeqCst)),
        ),
        (
            "connections_open",
            Json::from_usize(shared.connections_open.load(Ordering::SeqCst)),
        ),
        (
            "connections_peak",
            Json::from_usize(shared.connections_peak.load(Ordering::SeqCst)),
        ),
        (
            "connections_parked",
            Json::from_usize(shared.connections_parked.load(Ordering::SeqCst)),
        ),
        (
            "slow_requests",
            Json::from_u64(shared.telemetry.slow_requests.load(Ordering::Relaxed)),
        ),
        ("latency_us", shared.telemetry.latency_json()),
    ];
    if let Some(coordinator) = &shared.coordinator {
        fields.push(("coordinator", coordinator.stats_json()));
    }
    Json::obj(fields).to_string()
}
