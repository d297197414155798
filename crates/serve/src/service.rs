//! The simulation service: a fixed worker pool behind the bounded job
//! queue, duplicate-request coalescing, and the result cache.
//!
//! ## Life of a request
//!
//! Every request enters through [`SimService::submit`], which never
//! blocks: it answers a hit inline and otherwise hands the caller's
//! [`Completion`] to a flight that fires it later.
//!
//! 1. The request's content address ([`crate::request::SimRequest::key`])
//!    is probed in the [`ShardedCache`] — a hit returns the bytes as
//!    [`Submitted::Hit`] and the completion is dropped unused.
//! 2. On a miss the in-flight table is consulted: if the same key is
//!    already being simulated the caller *coalesces* — its completion
//!    subscribes to the existing flight instead of enqueueing duplicate
//!    work.
//! 3. Otherwise the caller registers a new flight and enqueues a job; a
//!    full queue hands the request back ([`Submitted::Busy`]) so the
//!    caller can park it or answer HTTP 503.
//! 4. A worker pops the job, double-checks the cache (the result may have
//!    landed between the caller's miss and the pop — without this
//!    re-check that race would re-simulate), runs the engine, caches the
//!    serialized result and completes the flight, which calls every
//!    subscribed completion.
//!
//! The engine call is wrapped in `catch_unwind` so a panic (e.g. a
//! degenerate custom layer table) fails that one request instead of
//! killing the worker. If a panic ever escapes that guard the worker
//! thread itself is replaced (a drop guard respawns it) and the job's
//! flight is failed rather than abandoned — a dying worker never hangs
//! its waiters and never shrinks the pool.
//!
//! ## Durable tier
//!
//! With [`ServiceConfig::cache_dir`] set, a checksummed
//! [`bbs_store::DiskStore`] sits under both caches: result-cache misses
//! probe `<dir>/results` before registering a flight, workers write every
//! fresh result through, and the [`WorkloadStore`] persists lowered models
//! to `<dir>/workloads` via [`bbs_sim::persist`]. A restarted server
//! warm-starts from whatever reached disk; disk trouble degrades the
//! service to memory-only (warn log + counters), never takes it down.
//! Without `cache_dir` the service touches no filesystem at all.

use crate::cache::ShardedCache;
use crate::queue::{Bounded, PushError};
use crate::registry::accelerator_by_name;
use crate::request::SimRequest;
use crate::telemetry::Telemetry;
use bbs_sim::engine::simulate_lowered;
use bbs_sim::json::sim_result_to_json;
use bbs_sim::store::{WorkloadStore, WorkloadTier};
use bbs_sim::workload::LayerWorkload;
use bbs_store::{DiskStats, DiskStore};
use bbs_telemetry::FaultPlan;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Result-cache shard count.
const CACHE_SHARDS: usize = 16;

/// Upper bound on cached results (random replacement beyond it, so a
/// long-running server's memory is bounded). The workload store has its
/// own bounds on lowered models, which one `(model, seed, cap)` entry
/// serves across every accelerator and config.
const CACHE_ENTRIES: usize = 4096;

/// Sizing knobs for the service.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Simulation worker threads.
    pub workers: usize,
    /// Bounded job-queue depth (backpressure beyond this).
    pub queue_depth: usize,
    /// Upper bound on a request's `max_weights_per_layer`.
    pub max_cap: usize,
    /// Root of the durable disk tier (`results/` + `workloads/` under it).
    /// `None` (the default) means no filesystem access whatsoever.
    pub cache_dir: Option<PathBuf>,
    /// Byte budget for the disk tier, split evenly between results and
    /// workloads; oldest records are evicted past it.
    pub disk_bytes: u64,
    /// Fault-injection plan shared by the disk tier, the worker pool and
    /// the event loop. Defaults to the inert plan; `bbs serve --faults`
    /// sets it.
    pub faults: Arc<FaultPlan>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(2, |p| p.get());
        ServiceConfig {
            workers: cores.clamp(1, 8),
            queue_depth: 64,
            max_cap: 64 * 1024,
            cache_dir: None,
            disk_bytes: 1 << 30,
            faults: Arc::new(FaultPlan::none()),
        }
    }
}

/// How a request was satisfied (reported in the response and `/stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Straight from the result cache.
    Hit,
    /// Joined an in-flight computation for the same key.
    Coalesced,
    /// Enqueued and computed (or resolved by the worker's cache
    /// double-check).
    Fresh,
}

impl Served {
    /// The wire label: the `served` field of `/simulate` bodies, sweep
    /// records and `x-bbs-trace`.
    pub fn label(self) -> &'static str {
        match self {
            Served::Hit => "cache",
            Served::Coalesced => "coalesced",
            Served::Fresh => "simulated",
        }
    }

    /// Reads a wire [`label`](Self::label) back; anything unrecognised
    /// counts as a fresh simulation.
    pub fn from_label(label: &str) -> Served {
        match label {
            "cache" => Served::Hit,
            "coalesced" => Served::Coalesced,
            _ => Served::Fresh,
        }
    }
}

/// Why a request could not be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecuteError {
    /// Queue full — retry later (HTTP 503).
    Busy,
    /// Service shutting down (HTTP 503).
    ShuttingDown,
    /// The simulation itself failed (HTTP 500).
    Failed(String),
}

impl ExecuteError {
    /// The HTTP status this error answers with. Every 503 carries
    /// `Retry-After`.
    pub fn status(&self) -> u16 {
        match self {
            ExecuteError::Busy | ExecuteError::ShuttingDown => 503,
            ExecuteError::Failed(_) => 500,
        }
    }

    /// The client-facing message (`/simulate` error body, sweep error
    /// record).
    pub fn message(&self) -> &str {
        match self {
            ExecuteError::Busy => "queue full, retry later",
            ExecuteError::ShuttingDown => "shutting down",
            ExecuteError::Failed(message) => message,
        }
    }

    /// The `served` label this outcome gets in `x-bbs-trace`.
    pub fn label(&self) -> &'static str {
        match self {
            ExecuteError::Busy => "busy",
            ExecuteError::ShuttingDown => "shutdown",
            ExecuteError::Failed(_) => "failed",
        }
    }
}

/// Worker-side stage timings for one computed result (all microseconds).
/// Coalesced subscribers observe the owning flight's timing — the work
/// happened once, so the breakdown is shared. Hit paths carry a default
/// (all-zero) timing: nothing past the cache probe ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timing {
    /// Enqueue → worker pop.
    pub queue_us: u64,
    /// `lower_model` wall time (zero on a workload-store hit).
    pub lower_us: u64,
    /// Cycle-accurate simulation.
    pub sim_us: u64,
    /// Result JSON serialization.
    pub ser_us: u64,
}

/// What became of one submitted request: the result bytes, how they were
/// served and the worker's stage timings, or why it failed.
pub type Outcome = Result<(Arc<str>, Served, Timing), ExecuteError>;

/// A caller's completion callback for [`SimService::submit`]. Invoked at
/// most once, from whichever thread completes the flight (a worker, or
/// the submitter itself when it finds the flight already done); dropped
/// unused when `submit` answers inline.
pub type Completion = Box<dyn FnOnce(Outcome) + Send + 'static>;

/// Immediate outcome of a non-blocking [`SimService::submit`].
pub enum Submitted {
    /// Result cache hit — the bytes are right here, the callback was
    /// dropped unused.
    Hit(Arc<str>),
    /// Enqueued (or coalesced onto an existing flight); the callback fires
    /// when the flight completes.
    Pending,
    /// Queue full. The request is handed back so the caller can *park* it
    /// and resubmit when a queue slot frees, instead of failing it.
    Busy(SimRequest),
    /// Service shutting down — nothing will be enqueued again.
    ShuttingDown,
}

/// One in-flight computation; completed exactly once — by a worker, or by
/// the owner when its enqueue fails. Carrying [`ExecuteError`] (not a bare
/// string) means coalesced waiters see the same error class as the owner:
/// backpressure stays a 503 for everyone, not a 500.
///
/// Waiters are [`Completion`] callbacks ([`Flight::subscribe`]): the
/// owner's, then one per coalesced caller. A subscriber arriving after
/// completion is invoked immediately — the worker may finish between a
/// caller's in-flight probe and its subscribe.
struct FlightState {
    result: Option<Result<(Arc<str>, Timing), ExecuteError>>,
    subscribers: Vec<(Served, Completion)>,
}

struct Flight {
    state: Mutex<FlightState>,
}

impl Flight {
    fn new() -> Arc<Flight> {
        Arc::new(Flight {
            state: Mutex::new(FlightState {
                result: None,
                subscribers: Vec::new(),
            }),
        })
    }

    fn complete(&self, r: Result<(Arc<str>, Timing), ExecuteError>) {
        let subscribers = {
            let mut state = self.state.lock().unwrap();
            state.result = Some(r.clone());
            std::mem::take(&mut state.subscribers)
        };
        // Callbacks run outside the lock: they re-enter the service
        // (resubmits, stats) and must not deadlock against subscribe().
        for (served, cb) in subscribers {
            cb(r.clone().map(|(bytes, timing)| (bytes, served, timing)));
        }
    }

    fn subscribe(&self, served: Served, cb: Completion) {
        let done = {
            let mut state = self.state.lock().unwrap();
            match &state.result {
                Some(r) => Some(r.clone()),
                None => {
                    state.subscribers.push((served, cb));
                    return;
                }
            }
        };
        if let Some(r) = done {
            cb(r.map(|(bytes, timing)| (bytes, served, timing)));
        }
    }
}

struct Job {
    key: u64,
    request: SimRequest,
    flight: Arc<Flight>,
    /// When the job entered the queue (queue-wait attribution).
    enqueued: Instant,
}

/// Shared state of the simulation service.
pub struct SimService {
    /// The content-addressed result cache.
    pub cache: ShardedCache,
    /// The shared lowered-model cache: every worker reads through it, so
    /// cold requests differing only in accelerator/config skip the
    /// RNG weight synthesis after the first.
    workloads: WorkloadStore,
    inflight: Mutex<HashMap<u64, Arc<Flight>>>,
    queue: Bounded<Job>,
    sim_runs: AtomicU64,
    coalesced: AtomicU64,
    errors: AtomicU64,
    worker_panics: AtomicU64,
    config: ServiceConfig,
    /// Durable result tier (`<cache_dir>/results`), absent without
    /// `cache_dir`.
    disk: Option<Arc<DiskStore>>,
    /// Durable workload tier (`<cache_dir>/workloads`), also plugged into
    /// the [`WorkloadStore`] — kept here for stats and flushing.
    workload_disk: Option<Arc<DiskStore>>,
    faults: Arc<FaultPlan>,
    /// Worker threads; respawned replacements land here too, so `stop`
    /// joins everything ever spawned.
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Stage histograms + logger, shared with the front end.
    telemetry: Arc<Telemetry>,
}

/// Bridges the [`WorkloadStore`] to the checksummed disk store through the
/// [`bbs_sim::persist`] codec. A decode failure (version skew) is a miss;
/// the storage layer already quarantined anything corrupt.
struct DiskWorkloadTier {
    disk: Arc<DiskStore>,
}

impl WorkloadTier for DiskWorkloadTier {
    fn load(&self, key: u64) -> Option<Vec<LayerWorkload>> {
        let bytes = self.disk.get(key)?;
        bbs_sim::persist::decode_workloads(&bytes).ok()
    }

    fn save(&self, key: u64, workloads: &[LayerWorkload]) {
        self.disk
            .put(key, &bbs_sim::persist::encode_workloads(workloads));
    }
}

/// Spawns the worker pool with default (standalone) telemetry; stop it
/// with [`SimService::stop`].
pub fn start(config: ServiceConfig) -> Arc<SimService> {
    start_with(config, Arc::new(Telemetry::default()))
}

/// Spawns the worker pool recording stage timings into `telemetry` —
/// the server passes its shared instance so worker-side stages land in
/// the same histograms `GET /metrics` renders.
pub fn start_with(config: ServiceConfig, telemetry: Arc<Telemetry>) -> Arc<SimService> {
    assert!(config.workers > 0, "need at least one worker");
    let faults = Arc::clone(&config.faults);

    // The durable tier only exists when a cache dir is configured; an
    // unusable dir (permissions, read-only fs) degrades to memory-only at
    // startup instead of failing the server.
    let mut disk = None;
    let mut workload_disk = None;
    if let Some(dir) = &config.cache_dir {
        let open = |sub: &str, budget: u64| match DiskStore::open(
            dir.join(sub),
            budget,
            Arc::clone(&faults),
        ) {
            Ok(store) => Some(Arc::new(store)),
            Err(e) => {
                telemetry.logger.warn(
                    "disk cache unavailable, running memory-only",
                    &[
                        ("dir", bbs_telemetry::Value::Str(&dir.display().to_string())),
                        ("tier", bbs_telemetry::Value::Str(sub)),
                        ("error", bbs_telemetry::Value::Str(&e.to_string())),
                    ],
                );
                None
            }
        };
        let half = config.disk_bytes / 2;
        disk = open("results", half);
        workload_disk = open("workloads", config.disk_bytes - half);
        let warm = |d: &Option<Arc<DiskStore>>| d.as_ref().map_or(0, |d| d.stats().warm_entries);
        telemetry.logger.info(
            "disk cache attached",
            &[
                ("dir", bbs_telemetry::Value::Str(&dir.display().to_string())),
                ("warm_results", bbs_telemetry::Value::U64(warm(&disk))),
                (
                    "warm_workloads",
                    bbs_telemetry::Value::U64(warm(&workload_disk)),
                ),
            ],
        );
    }

    let workloads = WorkloadStore::default();
    if let Some(wd) = &workload_disk {
        workloads.set_tier(Arc::new(DiskWorkloadTier {
            disk: Arc::clone(wd),
        }));
    }

    let service = Arc::new(SimService {
        cache: ShardedCache::new(CACHE_SHARDS, CACHE_ENTRIES),
        workloads,
        inflight: Mutex::new(HashMap::new()),
        queue: Bounded::new(config.queue_depth),
        sim_runs: AtomicU64::new(0),
        coalesced: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        worker_panics: AtomicU64::new(0),
        config: config.clone(),
        disk,
        workload_disk,
        faults,
        workers: Mutex::new(Vec::with_capacity(config.workers)),
        telemetry,
    });
    for i in 0..config.workers {
        spawn_worker(&service, i);
    }
    service
}

/// Spawns one worker thread and registers its handle for joining. The
/// [`RespawnGuard`] replaces the thread if it ever dies by panic, so the
/// pool never shrinks below its configured size.
fn spawn_worker(service: &Arc<SimService>, index: usize) {
    let svc = Arc::clone(service);
    let handle = std::thread::Builder::new()
        .name(format!("bbs-serve-worker-{index}"))
        .spawn(move || {
            let guard = RespawnGuard {
                service: Arc::clone(&svc),
                index,
            };
            svc.worker_loop();
            // Clean exit (queue closed): no replacement wanted.
            std::mem::forget(guard);
        })
        .expect("spawn worker");
    service.workers.lock().unwrap().push(handle);
}

/// Replaces a worker whose thread unwinds past every per-job guard.
struct RespawnGuard {
    service: Arc<SimService>,
    index: usize,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        self.service.worker_panics.fetch_add(1, Ordering::Relaxed);
        self.service.telemetry.logger.warn(
            "worker died by panic; respawning",
            &[("worker", bbs_telemetry::Value::U64(self.index as u64))],
        );
        spawn_worker(&self.service, self.index);
    }
}

impl SimService {
    /// Closes the queue, drains pending jobs, joins the workers (looping,
    /// since a panicking worker may respawn a replacement mid-join) and
    /// flushes the disk tier. Idempotent: later calls find no workers left.
    pub fn stop(&self) {
        self.queue.close();
        loop {
            let workers = std::mem::take(&mut *self.workers.lock().unwrap());
            if workers.is_empty() {
                break;
            }
            for w in workers {
                let _ = w.join();
            }
        }
        self.flush_disk();
    }

    /// The configured request cap (`max_weights_per_layer` clamp).
    pub fn max_cap(&self) -> usize {
        self.config.max_cap
    }

    /// Worker-pool size.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Jobs currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Simulations actually executed (the dedup test's ground truth).
    pub fn sim_runs(&self) -> u64 {
        self.sim_runs.load(Ordering::Relaxed)
    }

    /// Requests that joined an in-flight computation.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Simulation failures.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Worker panics survived (caught per-job or absorbed by a respawn).
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// The shared workload store (hit/miss/entry counters for `/stats`).
    pub fn workload_store(&self) -> &WorkloadStore {
        &self.workloads
    }

    /// The shared fault plan (inert unless configured).
    pub fn faults(&self) -> &Arc<FaultPlan> {
        &self.faults
    }

    /// Disk-tier counters for the result store, if a tier is attached.
    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.disk.as_ref().map(|d| d.stats())
    }

    /// Disk-tier counters for the workload store, if a tier is attached.
    pub fn workload_disk_stats(&self) -> Option<DiskStats> {
        self.workload_disk.as_ref().map(|d| d.stats())
    }

    /// Best-effort durability barrier over both disk tiers (drain path).
    fn flush_disk(&self) {
        if let Some(d) = &self.disk {
            d.flush();
        }
        if let Some(d) = &self.workload_disk {
            d.flush();
        }
    }

    /// Probes the durable tier after a memory miss, promoting hits into
    /// the memory cache so the next probe is free. Returns `None` without
    /// touching the filesystem when no tier is configured.
    fn disk_fetch(&self, key: u64) -> Option<Arc<str>> {
        let disk = self.disk.as_ref()?;
        let bytes = disk.get(key);
        self.note_disk_health();
        // Results are serialized JSON; the record was checksum-clean, so a
        // non-UTF-8 payload means version skew — treat as a miss.
        let text = String::from_utf8(bytes?).ok()?;
        let text: Arc<str> = Arc::from(text.as_str());
        self.cache.insert(key, Arc::clone(&text));
        Some(text)
    }

    /// Emits the memory-only degradation warning exactly once per tier.
    fn note_disk_health(&self) {
        for (tier, store) in [("results", &self.disk), ("workloads", &self.workload_disk)] {
            if let Some(d) = store {
                if d.degraded_event() {
                    self.telemetry.logger.warn(
                        "disk tier degraded to memory-only after repeated I/O errors",
                        &[("tier", bbs_telemetry::Value::Str(tier))],
                    );
                }
            }
        }
    }

    /// The one way into the service: the cache hit → coalesce → enqueue
    /// decision tree of the module docs. It never blocks; instead of
    /// waiting on the flight the caller hands over a [`Completion`]
    /// callback. The event loop lives on this — one thread submits
    /// thousands of requests and workers call back through the completion
    /// channel.
    ///
    /// On a full queue the request is *returned* ([`Submitted::Busy`])
    /// rather than consumed: the loop parks it and resubmits when a slot
    /// frees. Racing coalescers that subscribed to the failed flight get
    /// `Busy` through their callbacks.
    ///
    /// `key` must be `request.key()`; the caller computed it once already
    /// (to route, log or park the request), so it is not rebuilt here.
    pub fn submit(&self, request: SimRequest, key: u64, done: Completion) -> Submitted {
        debug_assert_eq!(key, request.key());
        if let Some(cached) = self.cache.get(key) {
            return Submitted::Hit(cached);
        }
        if let Some(cached) = self.disk_fetch(key) {
            return Submitted::Hit(cached);
        }

        let (flight, owner) = {
            let mut inflight = self.inflight.lock().unwrap();
            match inflight.get(&key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Flight::new();
                    inflight.insert(key, Arc::clone(&f));
                    (f, true)
                }
            }
        };

        if !owner {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            flight.subscribe(Served::Coalesced, done);
            return Submitted::Pending;
        }

        let job = Job {
            key,
            request,
            flight: Arc::clone(&flight),
            enqueued: Instant::now(),
        };
        match self.queue.try_push(job) {
            Ok(()) => {
                flight.subscribe(Served::Fresh, done);
                Submitted::Pending
            }
            Err((e, job)) => {
                self.inflight.lock().unwrap().remove(&key);
                let (err, outcome) = match e {
                    PushError::Full => (ExecuteError::Busy, Submitted::Busy(job.request)),
                    PushError::Closed => (ExecuteError::ShuttingDown, Submitted::ShuttingDown),
                };
                // Complete the dead flight so racing coalescers error out
                // instead of waiting forever; the owner's own callback is
                // NOT subscribed — the request came back instead.
                job.flight.complete(Err(err));
                drop(done);
                outcome
            }
        }
    }

    fn worker_loop(&self) {
        while let Some(job) = self.queue.pop() {
            // If anything below unwinds past the per-job catch_unwind (the
            // injected "hard" fault models exactly that), this guard fails
            // the flight so waiters see an error instead of hanging, and
            // the thread-level RespawnGuard replaces the worker.
            let mut guard = JobGuard {
                service: self,
                key: job.key,
                flight: Arc::clone(&job.flight),
                armed: true,
            };
            let queue_us = job.enqueued.elapsed().as_micros() as u64;
            self.telemetry.queue_us.record(queue_us);
            if self.faults.hard_panic_on(job.key) {
                panic!(
                    "injected hard fault: worker killed on cell {:016x}",
                    job.key
                );
            }
            // Double-check: the result may have been cached between the
            // caller's miss and this pop (see module docs).
            let outcome = match self.cache.peek(job.key) {
                Some(cached) => Ok((
                    cached,
                    Timing {
                        queue_us,
                        ..Timing::default()
                    },
                )),
                None => self
                    .run_simulation(job.key, &job.request)
                    .map(|(text, mut timing)| {
                        let text: Arc<str> = Arc::from(text.as_str());
                        self.cache.insert(job.key, Arc::clone(&text));
                        // Write-through to the durable tier (best-effort;
                        // failures degrade the tier, never the request).
                        if let Some(disk) = &self.disk {
                            disk.put(job.key, text.as_bytes());
                            self.note_disk_health();
                        }
                        timing.queue_us = queue_us;
                        (text, timing)
                    })
                    .map_err(|e| {
                        self.telemetry.logger.error(
                            "simulation failed",
                            &[
                                (
                                    "key",
                                    bbs_telemetry::Value::Str(&format!("{:016x}", job.key)),
                                ),
                                ("error", bbs_telemetry::Value::Str(&e)),
                            ],
                        );
                        ExecuteError::Failed(e)
                    }),
            };
            if outcome.is_err() {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
            guard.armed = false;
            // Unregister *after* the cache insert so a key absent from the
            // in-flight table is always either uncached (never computed or
            // failed) or already visible in the cache.
            self.inflight.lock().unwrap().remove(&job.key);
            job.flight.complete(outcome);
        }
    }

    fn run_simulation(&self, key: u64, request: &SimRequest) -> Result<(String, Timing), String> {
        let accel = accelerator_by_name(request.accelerator)
            .ok_or_else(|| format!("accelerator '{}' vanished", request.accelerator))?;
        if let Some(delay) = self.faults.sim_delay() {
            std::thread::sleep(delay);
        }
        // Serialization is inside the guard too: its exact-integer
        // assertions are unreachable for validated requests, but a panic
        // here must fail the request, not kill the worker.
        let (text, lowered, sim_us, ser_us) = catch_unwind(AssertUnwindSafe(|| {
            if self.faults.panic_on(key) {
                panic!("injected fault: worker panic on cell {key:016x}");
            }
            // `lowered` is `Some` only when this worker did the lowering.
            let (workloads, lowered) = self.workloads.get_or_lower(
                &request.model,
                request.seed,
                request.max_weights_per_layer,
            );
            let sim_started = Instant::now();
            let sim = simulate_lowered(
                accel.as_ref(),
                request.model.name,
                &workloads,
                &request.config,
            );
            let sim_us = sim_started.elapsed().as_micros() as u64;
            let ser_started = Instant::now();
            let text = sim_result_to_json(&sim).to_string();
            let ser_us = ser_started.elapsed().as_micros() as u64;
            (text, lowered, sim_us, ser_us)
        }))
        .map_err(|panic| {
            // Every unwind that lands here is a worker panic survived: the
            // cell fails, the worker lives, the counter tells the story.
            self.worker_panics.fetch_add(1, Ordering::Relaxed);
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "simulation panicked".to_string());
            format!("simulation failed: {msg}")
        })?;
        self.sim_runs.fetch_add(1, Ordering::Relaxed);
        let timing = Timing {
            queue_us: 0, // filled by the worker loop
            lower_us: lowered.map_or(0, |d| d.as_micros() as u64),
            sim_us,
            ser_us,
        };
        if lowered.is_some() {
            self.telemetry.lower_us.record(timing.lower_us);
        }
        self.telemetry.sim_us.record(sim_us);
        self.telemetry.ser_us.record(ser_us);
        Ok((text, timing))
    }
}

/// Fails a job's flight if the worker unwinds while holding it, so a dying
/// worker thread never leaves waiters blocked or the in-flight table
/// poisoned.
struct JobGuard<'a> {
    service: &'a SimService,
    key: u64,
    flight: Arc<Flight>,
    armed: bool,
}

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.service.errors.fetch_add(1, Ordering::Relaxed);
        self.service.inflight.lock().unwrap().remove(&self.key);
        self.flight.complete(Err(ExecuteError::Failed(format!(
            "worker died while simulating cell {:016x}",
            self.key
        ))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_json::Json;
    use bbs_sim::engine::simulate;
    use bbs_sim::json::sim_result_from_json;
    use bbs_sim::ArrayConfig;

    fn request(model: &str, accel: &str, cap: usize) -> SimRequest {
        SimRequest::from_json(
            &Json::parse(&format!(
                "{{\"model\":\"{model}\",\"accelerator\":\"{accel}\",\
                 \"max_weights_per_layer\":{cap}}}"
            ))
            .unwrap(),
            65536,
        )
        .unwrap()
    }

    /// Blocks on one request: `submit` plus a channel the completion
    /// sends its outcome down.
    fn run(svc: &SimService, request: SimRequest) -> Result<(Arc<str>, Served), ExecuteError> {
        let (tx, rx) = std::sync::mpsc::channel();
        let done: Completion = Box::new(move |outcome| {
            let _ = tx.send(outcome);
        });
        let key = request.key();
        match svc.submit(request, key, done) {
            Submitted::Hit(bytes) => Ok((bytes, Served::Hit)),
            Submitted::Pending => rx
                .recv()
                .expect("a flight completes every subscriber")
                .map(|(bytes, served, _)| (bytes, served)),
            Submitted::Busy(_) => Err(ExecuteError::Busy),
            Submitted::ShuttingDown => Err(ExecuteError::ShuttingDown),
        }
    }

    fn test_service() -> Arc<SimService> {
        start(ServiceConfig {
            workers: 2,
            queue_depth: 8,
            max_cap: 65536,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn fresh_then_hit_same_bytes() {
        let svc = test_service();
        let req = request("ViT-Small", "stripes", 256);
        let (first, how1) = run(&svc, req.clone()).unwrap();
        assert_eq!(how1, Served::Fresh);
        let (second, how2) = run(&svc, req.clone()).unwrap();
        assert_eq!(how2, Served::Hit);
        assert_eq!(first, second, "cache hit must be byte-identical");
        assert_eq!(svc.sim_runs(), 1);

        // And the payload decodes to the engine's exact result.
        let direct = simulate(
            &*accelerator_by_name("stripes").unwrap(),
            &req.model,
            &req.config,
            req.seed,
            req.max_weights_per_layer,
        );
        let decoded = sim_result_from_json(&Json::parse(&first).unwrap()).unwrap();
        assert_eq!(decoded, direct);
        svc.stop();
    }

    #[test]
    fn submit_on_a_cached_key_answers_inline() {
        let svc = test_service();
        let req = request("ViT-Small", "bitlet", 128);
        let (fresh, _) = run(&svc, req.clone()).unwrap();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let key = req.key();
        let outcome = svc.submit(
            req,
            key,
            Box::new(move |_| {
                let _ = tx.send(());
            }),
        );
        let Submitted::Hit(bytes) = outcome else {
            panic!("a cached key must be answered inline");
        };
        assert_eq!(bytes, fresh, "hit bytes equal the fresh run's");
        // The completion was dropped without ever being called.
        assert_eq!(
            rx.try_recv(),
            Err(std::sync::mpsc::TryRecvError::Disconnected)
        );
        svc.stop();
    }

    #[test]
    fn concurrent_duplicates_run_once() {
        let svc = test_service();
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let svc = Arc::clone(&svc);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    run(&svc, request("ResNet-34", "bitlet", 256)).unwrap().0
                })
            })
            .collect();
        let results: Vec<Arc<str>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        assert_eq!(svc.sim_runs(), 1, "deduplicated to one run");
        svc.stop();
    }

    #[test]
    fn distinct_requests_each_run() {
        let svc = test_service();
        run(&svc, request("ViT-Small", "stripes", 128)).unwrap();
        run(&svc, request("ViT-Small", "stripes", 192)).unwrap();
        assert_eq!(svc.sim_runs(), 2, "different cap, different key");
        let store = svc.workload_store();
        assert_eq!(store.misses(), 2, "different cap, different lowering");
        svc.stop();
    }

    #[test]
    fn accelerator_sweep_lowers_once() {
        let svc = test_service();
        for accel in ["stripes", "bitlet", "bitwave", "ant"] {
            run(&svc, request("ViT-Small", accel, 256)).unwrap();
        }
        assert_eq!(svc.sim_runs(), 4, "four distinct result keys");
        let store = svc.workload_store();
        assert_eq!(store.misses(), 1, "one (model, seed, cap) lowering");
        assert_eq!(store.hits(), 3);
        assert_eq!(store.entries(), 1);
        svc.stop();
    }

    #[test]
    fn full_queue_reports_busy() {
        // One worker, depth 1: saturate with slow jobs, then overflow.
        let svc = start(ServiceConfig {
            workers: 1,
            queue_depth: 1,
            max_cap: 65536,
            ..ServiceConfig::default()
        });
        let running: Vec<_> = (0..4)
            .map(|i| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    // Distinct seeds -> distinct keys -> no coalescing.
                    let mut req = request("VGG-16", "bitvert-moderate", 2048);
                    req.seed = 100 + i;
                    run(&svc, req)
                })
            })
            .collect();
        // With 4 distinct slow jobs racing a depth-1 queue, at least one
        // push must see it full.
        let outcomes: Vec<_> = running.into_iter().map(|h| h.join().unwrap()).collect();
        let busy = outcomes
            .iter()
            .filter(|o| matches!(o, Err(ExecuteError::Busy)))
            .count();
        let ok = outcomes.iter().filter(|o| o.is_ok()).count();
        assert!(ok >= 1, "some requests must succeed");
        assert!(busy + ok == 4);
        svc.stop();
    }

    #[test]
    fn healthy_traffic_records_no_errors() {
        let svc = test_service();
        run(&svc, request("Bert-SST2", "ant", 128)).unwrap();
        assert_eq!(svc.errors(), 0);
        svc.stop();
    }

    #[test]
    fn stop_drains_pending_work() {
        let svc = test_service();
        let req = request("ViT-Small", "sparten", 128);
        let (bytes, _) = run(&svc, req).unwrap();
        assert!(!bytes.is_empty());
        svc.stop(); // must not hang
    }

    #[test]
    fn default_config_is_sane() {
        let c = ServiceConfig::default();
        assert!(c.workers >= 1);
        assert!(c.queue_depth >= c.workers);
        assert!(c.cache_dir.is_none(), "no filesystem access by default");
        assert!(!c.faults.is_active(), "no faults unless configured");
        let _ = ArrayConfig::default();
    }

    fn tmp_cache_dir(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "bbs-serve-svc-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn disk_tier_warm_starts_a_restarted_service() {
        let dir = tmp_cache_dir("warm");
        let config = ServiceConfig {
            workers: 1,
            queue_depth: 8,
            cache_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let req = request("ViT-Small", "stripes", 192);

        let svc = start(config.clone());
        let (first, how) = run(&svc, req.clone()).unwrap();
        assert_eq!(how, Served::Fresh);
        let stats = svc.disk_stats().unwrap();
        assert_eq!(stats.writes, 1, "fresh result written through");
        svc.stop();

        // A "restarted server": new service, same cache dir.
        let svc = start(config);
        let (second, how) = run(&svc, req).unwrap();
        assert_eq!(how, Served::Hit, "served from disk without simulating");
        assert_eq!(first, second, "disk hit is byte-identical");
        assert_eq!(svc.sim_runs(), 0);
        let stats = svc.disk_stats().unwrap();
        assert_eq!((stats.hits, stats.warm_entries), (1, 1));
        let wl = svc.workload_disk_stats().unwrap();
        assert_eq!(wl.warm_entries, 1, "lowering persisted too");
        // A fresh result key over the same (model, seed, cap) loads the
        // lowering from the workload tier instead of re-synthesizing.
        run(&svc, request("ViT-Small", "bitlet", 192)).unwrap();
        assert_eq!(svc.workload_store().tier_hits(), 1);
        assert_eq!(svc.workload_store().misses(), 0);
        svc.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_panic_fails_only_its_cell() {
        let req_bad = request("ViT-Small", "stripes", 128);
        let req_good = request("ViT-Small", "bitlet", 128);
        let svc = start(ServiceConfig {
            workers: 1,
            queue_depth: 8,
            faults: Arc::new(
                FaultPlan::parse(&format!("panic_key={:016x}", req_bad.key())).unwrap(),
            ),
            ..ServiceConfig::default()
        });
        let err = run(&svc, req_bad).unwrap_err();
        assert!(matches!(&err, ExecuteError::Failed(m) if m.contains("injected fault")));
        // The pool survived: the untouched cell still simulates.
        let (bytes, _) = run(&svc, req_good).unwrap();
        assert!(!bytes.is_empty());
        assert_eq!(svc.worker_panics(), 1);
        assert_eq!(svc.errors(), 1);
        svc.stop();
    }

    #[test]
    fn hard_panic_respawns_the_worker_and_fails_the_flight() {
        let req_bad = request("ResNet-34", "stripes", 128);
        let req_good = request("ResNet-34", "bitlet", 128);
        // One worker: if the pool were not replenished, the second request
        // would hang forever.
        let svc = start(ServiceConfig {
            workers: 1,
            queue_depth: 8,
            faults: Arc::new(
                FaultPlan::parse(&format!("panic_hard_key={:016x}", req_bad.key())).unwrap(),
            ),
            ..ServiceConfig::default()
        });
        let err = run(&svc, req_bad).unwrap_err();
        assert!(matches!(&err, ExecuteError::Failed(m) if m.contains("worker died")));
        let (bytes, _) = run(&svc, req_good).unwrap();
        assert!(!bytes.is_empty(), "replacement worker serves traffic");
        assert!(svc.worker_panics() >= 1);
        svc.stop();
    }

    #[test]
    fn no_cache_dir_means_no_disk_io() {
        let svc = test_service();
        run(&svc, request("ViT-Small", "ant", 128)).unwrap();
        assert!(svc.disk_stats().is_none());
        assert!(svc.workload_disk_stats().is_none());
        svc.stop();
    }
}
