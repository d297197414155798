//! The shard coordinator: a `bbs-serve` front end that owns no simulator
//! of its own and instead consistent-hashes every job — single
//! `/simulate` requests and expanded `/sweep` cells alike — across N
//! downstream `bbs-serve` instances.
//!
//! ## Routing
//!
//! Placement is rendezvous (highest-random-weight) hashing over the job's
//! stable content address (`SimRequest::key()`, the same FNV-1a key the
//! result caches use): every shard is scored with
//! `splitmix64(key ^ fnv1a(shard address))` and the job goes to the
//! highest score. Two properties follow:
//!
//! * **Cache affinity** — a given `(model, accelerator, config, seed,
//!   cap)` point always lands on the same shard, so each shard's
//!   WorkloadStore and disk tier hold only its slice of the model zoo and
//!   warm re-runs hit that slice every time.
//! * **Minimal disruption** — when a shard disappears, only *its* keys
//!   move (each to its second-choice shard, deterministically); every
//!   other key keeps its home, unlike modulo hashing where most of the
//!   keyspace reshuffles.
//!
//! ## Fan-out and failover
//!
//! Each shard gets a small pool of forwarder threads, each reusing
//! pooled keep-alive [`Client`] connections. A forwarder retries a
//! failing shard with the client's bounded backoff (honoring 503
//! `Retry-After` floors); once a shard looks gone — connect refused,
//! transport errors, persistent saturation — its unfinished jobs are
//! *rerouted* to the next shard in rendezvous order rather than erroring,
//! so one dying shard never stalls a merged sweep stream. A background
//! prober watches every shard's `/readyz` and stops routing new jobs to
//! instances that report draining/saturated, re-admitting them when they
//! recover.
//!
//! The coordinator plugs into the event loop through the same
//! [`Submitted`]/completion-callback seam the local worker pool uses
//! (see `Shared::submit_job`), so the front end keeps its nonblocking
//! single-thread loop, its parking/backpressure machinery, and its
//! byte-identical NDJSON record formatting.

use crate::client::{parse_simulate_response, Client, ClientPool, RetryPolicy};
use crate::request::SimRequest;
use crate::service::{Completion, ExecuteError, Served, Submitted, Timing};
use crate::telemetry::Telemetry;
use bbs_json::{fnv1a_64, Json};
use bbs_telemetry::faults::splitmix64;
use bbs_telemetry::prom::PromText;
use bbs_telemetry::{Histogram, Value};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Forwarder threads (each with pooled keep-alive connections) per shard.
pub const CONNECTIONS_PER_SHARD: usize = 4;
/// How often the prober re-checks every shard's `/readyz`.
pub const PROBE_INTERVAL: Duration = Duration::from_millis(250);
/// Connect/read deadline for `/readyz` probes — a probe must never hang
/// for the full client timeout.
const PROBE_TIMEOUT: Duration = Duration::from_millis(1000);

/// One job on its way to a shard.
struct Job {
    /// The `/simulate` body (the request re-encoded once, at submit).
    body: String,
    /// The job's content address — also its routing key.
    key: u64,
    /// Fires exactly once with the outcome.
    done: Completion,
    /// Bitmask of shard indices already tried (reroute loop guard).
    tried: u64,
}

/// Per-shard routing state and counters.
struct ShardState {
    addr: SocketAddr,
    /// The address as a stats/metrics label.
    label: String,
    /// Rendezvous salt: FNV-1a of the address text.
    salt: u64,
    /// Jobs routed here (first placement and reroutes in).
    routed: AtomicU64,
    /// Jobs this shard failed to answer (before any reroute).
    errors: AtomicU64,
    /// Jobs rerouted *away* after this shard stopped answering.
    rerouted: AtomicU64,
    /// Jobs currently being forwarded.
    in_flight: AtomicU64,
    /// Transport-level verdict: connect refused / repeated resets.
    down: AtomicBool,
    /// Last `/readyz` verdict (alive shards can still be draining).
    ready: AtomicBool,
    /// Round-trip latency of successful forwards (µs).
    latency_us: Histogram,
}

impl ShardState {
    fn serviceable(&self) -> bool {
        !self.down.load(Ordering::SeqCst) && self.ready.load(Ordering::SeqCst)
    }
}

/// Why one shard could not answer a job.
enum ShardError {
    /// The shard is unreachable or persistently saturated — reroute.
    Unavailable(String),
    /// The shard answered definitively (4xx/5xx/malformed) — rerouting
    /// the same body elsewhere would fail the same way.
    Definitive(String),
}

struct Inner {
    shards: Vec<ShardState>,
    pools: Vec<ClientPool>,
    queues: Vec<JobQueue>,
    stopping: AtomicBool,
    /// Aggregate forward latency across every shard (µs).
    latency_us: Histogram,
    telemetry: Arc<Telemetry>,
}

#[derive(Default)]
struct JobQueue {
    jobs: Mutex<VecDeque<Job>>,
    cv: Condvar,
}

/// A running coordinator; stop it with [`Coordinator::stop`].
pub struct Coordinator {
    inner: Arc<Inner>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Coordinator {
    /// Spawns [`CONNECTIONS_PER_SHARD`] forwarders per shard and the
    /// readiness prober.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or holds more than 64 entries (the
    /// reroute guard is a `u64` bitmask).
    pub fn start(shards: &[SocketAddr], telemetry: Arc<Telemetry>) -> Coordinator {
        assert!(
            !shards.is_empty() && shards.len() <= 64,
            "coordinator needs 1..=64 shards"
        );
        let inner = Arc::new(Inner::new(shards, telemetry));

        let mut threads = Vec::new();
        for shard in 0..inner.shards.len() {
            for worker in 0..CONNECTIONS_PER_SHARD {
                let inner = Arc::clone(&inner);
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("bbs-coord-{shard}.{worker}"))
                        .spawn(move || forwarder_loop(&inner, shard))
                        .expect("spawn coordinator forwarder"),
                );
            }
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("bbs-coord-probe".to_string())
                    .spawn(move || probe_loop(&inner))
                    .expect("spawn coordinator prober"),
            );
        }
        Coordinator {
            inner,
            threads: Mutex::new(threads),
        }
    }

    /// Non-blocking submit, mirroring [`crate::service::SimService::submit`]:
    /// the job is queued for its rendezvous-choice shard and `done` fires
    /// from a forwarder thread when the downstream answer (or the final
    /// failure) arrives. The coordinator holds no result cache of its own
    /// — hits happen on the shard that owns the key — so this never
    /// returns [`Submitted::Hit`] or [`Submitted::Busy`].
    pub fn submit(&self, request: SimRequest, done: Completion) -> Submitted {
        if self.inner.stopping.load(Ordering::SeqCst) {
            return Submitted::ShuttingDown;
        }
        let key = request.key();
        let body = request.to_json().to_string();
        match self.inner.route(key, 0) {
            Some(idx) => {
                self.inner.shards[idx]
                    .routed
                    .fetch_add(1, Ordering::Relaxed);
                self.inner.push(
                    idx,
                    Job {
                        body,
                        key,
                        done,
                        tried: 0,
                    },
                );
                Submitted::Pending
            }
            None => {
                done(Err(ExecuteError::Failed(
                    "no shard available (all down or draining)".to_string(),
                )));
                Submitted::Pending
            }
        }
    }

    /// Whether at least one shard is currently reachable and ready —
    /// feeds the front end's own `/readyz`.
    pub fn any_serviceable(&self) -> bool {
        self.inner.shards.iter().any(ShardState::serviceable)
    }

    /// How many jobs the front end should keep in flight at once: the
    /// full fan-out width, with headroom so every forwarder stays busy.
    pub fn max_in_flight(&self) -> usize {
        2 * self.inner.pools.len().max(1) * CONNECTIONS_PER_SHARD
    }

    /// Number of configured shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The `/stats` `coordinator` block: per-shard routing counters,
    /// health, connection-pool stats and latency summaries.
    pub fn stats_json(&self) -> Json {
        let shards = self
            .inner
            .shards
            .iter()
            .zip(&self.inner.pools)
            .map(|(s, pool)| {
                let snap = s.latency_us.snapshot();
                Json::obj(vec![
                    ("addr", Json::str(&s.label)),
                    ("ready", Json::Bool(s.ready.load(Ordering::SeqCst))),
                    ("down", Json::Bool(s.down.load(Ordering::SeqCst))),
                    ("routed", Json::from_u64(s.routed.load(Ordering::Relaxed))),
                    (
                        "rerouted",
                        Json::from_u64(s.rerouted.load(Ordering::Relaxed)),
                    ),
                    ("errors", Json::from_u64(s.errors.load(Ordering::Relaxed))),
                    (
                        "in_flight",
                        Json::from_u64(s.in_flight.load(Ordering::Relaxed)),
                    ),
                    ("dials", Json::from_u64(pool.dials())),
                    ("reuses", Json::from_u64(pool.reuses())),
                    (
                        "latency_us",
                        Json::obj(vec![
                            ("count", Json::from_u64(snap.count)),
                            ("p50", Json::from_u64(snap.percentile(0.50))),
                            ("p99", Json::from_u64(snap.percentile(0.99))),
                            ("max", Json::from_u64(snap.max)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("shards", Json::Arr(shards)),
            (
                "hash",
                Json::str("rendezvous(splitmix64(key ^ fnv1a(addr)))"),
            ),
        ])
    }

    /// Appends the coordinator metric family to a `/metrics` exposition:
    /// per-shard routed/error/reroute counters, health and in-flight
    /// gauges, per-shard p99 and the aggregate forward-latency histogram.
    pub fn append_prometheus(&self, p: &mut PromText) {
        let shards = &self.inner.shards;
        p.gauge(
            "bbs_coord_shards",
            "Downstream shards configured.",
            shards.len() as f64,
        );
        let count = |f: &dyn Fn(&ShardState) -> u64| -> Vec<(&str, u64)> {
            shards.iter().map(|s| (s.label.as_str(), f(s))).collect()
        };
        p.counter_vec(
            "bbs_coord_cells_routed_total",
            "Jobs routed to each shard (first placement and reroutes in).",
            "shard",
            &count(&|s| s.routed.load(Ordering::Relaxed)),
        );
        p.counter_vec(
            "bbs_coord_errors_total",
            "Jobs each shard failed to answer.",
            "shard",
            &count(&|s| s.errors.load(Ordering::Relaxed)),
        );
        p.counter_vec(
            "bbs_coord_rerouted_total",
            "Jobs rerouted away from each shard after it stopped answering.",
            "shard",
            &count(&|s| s.rerouted.load(Ordering::Relaxed)),
        );
        let gauge = |f: &dyn Fn(&ShardState) -> f64| -> Vec<(&str, f64)> {
            shards.iter().map(|s| (s.label.as_str(), f(s))).collect()
        };
        p.gauge_vec(
            "bbs_coord_in_flight",
            "Jobs currently being forwarded to each shard.",
            "shard",
            &gauge(&|s| s.in_flight.load(Ordering::Relaxed) as f64),
        );
        p.gauge_vec(
            "bbs_coord_shard_serviceable",
            "1 while the shard is reachable and /readyz-ready.",
            "shard",
            &gauge(&|s| f64::from(u8::from(s.serviceable()))),
        );
        p.gauge_vec(
            "bbs_coord_shard_p99_seconds",
            "p99 forward latency per shard.",
            "shard",
            &gauge(&|s| s.latency_us.snapshot().percentile(0.99) as f64 * 1e-6),
        );
        p.histogram(
            "bbs_coord_request_seconds",
            "Forward round-trip latency across all shards.",
            &self.inner.latency_us.snapshot(),
            1e-6,
        );
    }

    /// Stops the prober and the forwarders; jobs still queued when the
    /// forwarders exit complete as shutdown errors.
    pub fn stop(&self) {
        self.inner.stopping.store(true, Ordering::SeqCst);
        for q in &self.inner.queues {
            q.cv.notify_all();
        }
        for t in self.threads.lock().unwrap().drain(..) {
            let _ = t.join();
        }
        for q in &self.inner.queues {
            let mut jobs = q.jobs.lock().unwrap();
            while let Some(job) = jobs.pop_front() {
                (job.done)(Err(ExecuteError::ShuttingDown));
            }
        }
    }
}

impl Inner {
    /// Routing state for `addrs`, each with a pool of
    /// [`CONNECTIONS_PER_SHARD`] keep-alive connections. The rendezvous
    /// salt is FNV-1a of the address text, so placement is stable across
    /// restarts for a stable shard list.
    fn new(addrs: &[SocketAddr], telemetry: Arc<Telemetry>) -> Inner {
        let shards: Vec<ShardState> = addrs
            .iter()
            .map(|&addr| {
                let label = addr.to_string();
                ShardState {
                    addr,
                    salt: fnv1a_64(label.as_bytes()),
                    label,
                    routed: AtomicU64::new(0),
                    errors: AtomicU64::new(0),
                    rerouted: AtomicU64::new(0),
                    in_flight: AtomicU64::new(0),
                    down: AtomicBool::new(false),
                    ready: AtomicBool::new(true),
                    latency_us: Histogram::new(),
                }
            })
            .collect();
        let pools = addrs
            .iter()
            .map(|&addr| ClientPool::new(addr, CONNECTIONS_PER_SHARD))
            .collect();
        let queues = (0..shards.len()).map(|_| JobQueue::default()).collect();
        Inner {
            shards,
            pools,
            queues,
            stopping: AtomicBool::new(false),
            latency_us: Histogram::new(),
            telemetry,
        }
    }

    /// Shard indices in descending rendezvous score for `key`.
    fn rank(&self, key: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.shards.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(splitmix64(key ^ self.shards[i].salt)));
        order
    }

    /// The best untried shard for `key`: the highest-ranked serviceable
    /// one, else the highest-ranked shard that is at least not known
    /// down (its readiness may just be stale), else `None`.
    fn route(&self, key: u64, tried: u64) -> Option<usize> {
        let order = self.rank(key);
        let untried = |&&i: &&usize| tried & (1u64 << i) == 0;
        order
            .iter()
            .filter(untried)
            .find(|&&i| self.shards[i].serviceable())
            .or_else(|| {
                order
                    .iter()
                    .filter(untried)
                    .find(|&&i| !self.shards[i].down.load(Ordering::SeqCst))
            })
            .copied()
    }

    fn push(&self, idx: usize, job: Job) {
        self.queues[idx].jobs.lock().unwrap().push_back(job);
        self.queues[idx].cv.notify_one();
    }

    /// Blocks for the next job on shard `idx`; `None` once the
    /// coordinator is stopping and the queue has drained.
    fn pop(&self, idx: usize) -> Option<Job> {
        let q = &self.queues[idx];
        let mut jobs = q.jobs.lock().unwrap();
        loop {
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            if self.stopping.load(Ordering::SeqCst) {
                return None;
            }
            // Bounded wait: a lost notify (or a reroute racing shutdown)
            // degrades to a 100ms poll, never a hang.
            let (guard, _) = q.cv.wait_timeout(jobs, Duration::from_millis(100)).unwrap();
            jobs = guard;
        }
    }

    /// Runs one job against shard `idx` with the bounded per-shard retry
    /// schedule (503 `Retry-After` honored as the backoff floor, exactly
    /// like [`Client::request_with_retry`]).
    fn try_shard(&self, idx: usize, job: &Job) -> Result<(Served, String), ShardError> {
        let shard = &self.shards[idx];
        let pool = &self.pools[idx];
        let retry = RetryPolicy::default();
        let attempts = retry.attempts.max(1);
        let mut server_floor: Option<Duration> = None;
        let mut last = String::from("no attempt made");
        for attempt in 0..attempts {
            if attempt > 0 {
                let mut wait = retry.backoff(attempt - 1);
                if let Some(floor) = server_floor.take() {
                    wait = wait.max(floor.min(retry.max));
                }
                std::thread::sleep(wait);
            }
            let mut client = match pool.get() {
                Ok(c) => c,
                Err(e) => {
                    last = format!("connect to {}: {e}", shard.label);
                    continue;
                }
            };
            match client.request("POST", "/simulate", &job.body) {
                Ok((200, resp)) => {
                    return match parse_simulate_response(&resp) {
                        Some((_key, served, text)) => {
                            let text = text.to_string();
                            pool.put(client);
                            Ok((served, text))
                        }
                        None => Err(ShardError::Definitive(format!(
                            "malformed /simulate response from shard {}",
                            shard.label
                        ))),
                    };
                }
                Ok((503, resp)) => {
                    // Backpressure: retry this shard after its own
                    // Retry-After hint, keeping the key's cache affinity.
                    server_floor = client
                        .response_header("retry-after")
                        .and_then(|v| v.trim().parse::<u64>().ok())
                        .map(Duration::from_secs);
                    pool.put(client);
                    last = format!("shard {} saturated: {resp}", shard.label);
                }
                Ok((status, resp)) => {
                    pool.put(client);
                    let message = Json::parse(&resp)
                        .ok()
                        .and_then(|v| v.get("error").and_then(|e| e.as_str().map(String::from)))
                        .unwrap_or(resp);
                    return Err(ShardError::Definitive(format!(
                        "shard {} answered {status}: {message}",
                        shard.label
                    )));
                }
                Err(e) => {
                    // Transport failure mid-exchange: the connection is
                    // poisoned — drop it (never pooled) and retry fresh.
                    last = format!("shard {}: {e}", shard.label);
                }
            }
        }
        Err(ShardError::Unavailable(last))
    }

    /// Forwards one job, rerouting it down the rendezvous order if the
    /// shard is unavailable; the completion fires exactly once.
    fn forward(&self, idx: usize, job: Job) {
        let shard = &self.shards[idx];
        shard.in_flight.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let result = self.try_shard(idx, &job);
        shard.in_flight.fetch_sub(1, Ordering::Relaxed);
        match result {
            Ok((served, text)) => {
                let us = started.elapsed().as_micros() as u64;
                shard.latency_us.record(us);
                self.latency_us.record(us);
                (job.done)(Ok((Arc::from(text.as_str()), served, Timing::default())));
            }
            Err(ShardError::Definitive(message)) => {
                shard.errors.fetch_add(1, Ordering::Relaxed);
                (job.done)(Err(ExecuteError::Failed(message)));
            }
            Err(ShardError::Unavailable(message)) => {
                shard.errors.fetch_add(1, Ordering::Relaxed);
                shard.down.store(true, Ordering::SeqCst);
                self.pools[idx].clear();
                let tried = job.tried | (1u64 << idx);
                match self.route(job.key, tried) {
                    Some(next) => {
                        shard.rerouted.fetch_add(1, Ordering::Relaxed);
                        self.shards[next].routed.fetch_add(1, Ordering::Relaxed);
                        self.telemetry.logger.warn(
                            "shard unavailable, rerouting",
                            &[
                                ("shard", Value::Str(&shard.label)),
                                ("to", Value::Str(&self.shards[next].label)),
                                ("error", Value::Str(&message)),
                            ],
                        );
                        self.push(next, Job { tried, ..job });
                    }
                    None => (job.done)(Err(ExecuteError::Failed(format!(
                        "every shard failed; last: {message}"
                    )))),
                }
            }
        }
    }
}

fn forwarder_loop(inner: &Inner, idx: usize) {
    while let Some(job) = inner.pop(idx) {
        inner.forward(idx, job);
    }
}

/// Polls every shard's `/readyz` on a fixed cadence: a 200 re-admits a
/// shard (clearing a transport-level `down` verdict), a 503 parks it
/// (alive but draining/saturated — stop sending new keys), a transport
/// error marks it down.
fn probe_loop(inner: &Inner) {
    while !inner.stopping.load(Ordering::SeqCst) {
        for (i, shard) in inner.shards.iter().enumerate() {
            let probe = Client::connect_with_timeout(shard.addr, PROBE_TIMEOUT)
                .and_then(|mut c| c.get("/readyz"));
            match probe {
                Ok((200, _)) => {
                    shard.ready.store(true, Ordering::SeqCst);
                    if shard.down.swap(false, Ordering::SeqCst) {
                        inner
                            .telemetry
                            .logger
                            .info("shard recovered", &[("shard", Value::Str(&shard.label))]);
                    }
                }
                Ok((_, _)) => {
                    // Alive but refusing traffic (draining or saturated).
                    shard.ready.store(false, Ordering::SeqCst);
                    shard.down.store(false, Ordering::SeqCst);
                }
                Err(e) => {
                    shard.ready.store(false, Ordering::SeqCst);
                    if !shard.down.swap(true, Ordering::SeqCst) {
                        inner.pools[i].clear();
                        inner.telemetry.logger.warn(
                            "shard probe failed",
                            &[
                                ("shard", Value::Str(&shard.label)),
                                ("error", Value::Str(&e.to_string())),
                            ],
                        );
                    }
                }
            }
        }
        let mut slept = Duration::ZERO;
        while slept < PROBE_INTERVAL && !inner.stopping.load(Ordering::SeqCst) {
            let step = Duration::from_millis(50).min(PROBE_INTERVAL - slept);
            std::thread::sleep(step);
            slept += step;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_inner(addrs: &[&str]) -> Inner {
        let addrs: Vec<SocketAddr> = addrs.iter().map(|a| a.parse().unwrap()).collect();
        Inner::new(&addrs, Arc::new(Telemetry::default()))
    }

    /// Pins where keys land, so a change of hash cannot silently move
    /// every key (and its warm cache) to another shard.
    #[test]
    fn route_pins_keys_to_their_shards() {
        let inner = test_inner(&[
            "127.0.0.1:9001",
            "127.0.0.1:9002",
            "127.0.0.1:9003",
            "127.0.0.1:9004",
        ]);
        let homes: Vec<usize> = (0..16u64).map(|k| inner.route(k, 0).unwrap()).collect();
        assert_eq!(homes, [2, 1, 0, 3, 2, 0, 0, 0, 0, 2, 0, 3, 2, 1, 3, 3]);
    }

    #[test]
    fn rendezvous_is_stable_and_spreads_keys() {
        let inner = test_inner(&[
            "127.0.0.1:9001",
            "127.0.0.1:9002",
            "127.0.0.1:9003",
            "127.0.0.1:9004",
        ]);
        let mut per_shard = [0usize; 4];
        for key in 0..4096u64 {
            let a = inner.route(key, 0).unwrap();
            let b = inner.route(key, 0).unwrap();
            assert_eq!(a, b, "placement must be deterministic");
            per_shard[a] += 1;
        }
        for (i, &n) in per_shard.iter().enumerate() {
            // A uniform split is 1024 per shard; allow generous skew.
            assert!(
                (512..=1536).contains(&n),
                "shard {i} got {n}/4096 keys: {per_shard:?}"
            );
        }
    }

    #[test]
    fn losing_a_shard_only_moves_its_own_keys() {
        let inner = test_inner(&["127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"]);
        let before: Vec<usize> = (0..1024u64).map(|k| inner.route(k, 0).unwrap()).collect();
        inner.shards[1].down.store(true, Ordering::SeqCst);
        for (k, &home) in before.iter().enumerate() {
            let now = inner.route(k as u64, 0).unwrap();
            if home != 1 {
                assert_eq!(now, home, "key {k} moved although its home shard is fine");
            } else {
                assert_ne!(now, 1, "key {k} still routed to the down shard");
            }
        }
    }

    #[test]
    fn route_skips_unready_shards_and_respects_the_tried_mask() {
        let inner = test_inner(&["127.0.0.1:9001", "127.0.0.1:9002"]);
        let key = 42;
        let first = inner.route(key, 0).unwrap();
        let second = inner.route(key, 1 << first).unwrap();
        assert_ne!(first, second);
        assert_eq!(inner.route(key, (1 << first) | (1 << second)), None);
        // A draining shard (ready=false) is skipped while any ready one
        // remains, but still beats a down shard as a last resort.
        inner.shards[first].ready.store(false, Ordering::SeqCst);
        assert_eq!(inner.route(key, 0), Some(second));
        inner.shards[second].down.store(true, Ordering::SeqCst);
        assert_eq!(inner.route(key, 0), Some(first));
    }
}
