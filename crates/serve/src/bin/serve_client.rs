//! Load generator for `bbs-serve`: drives a cold phase (unique requests)
//! and a warm phase (the same requests again — all cache hits), then
//! prints a latency/throughput summary as JSON. Feeds `BENCH_serve.json`
//! via `scripts/bench_baseline.sh`.
//!
//! `--sweep` switches from single `/simulate` requests to `/sweep` batch
//! jobs: each "request" becomes one 4×4 (models × accelerators) grid with
//! a per-request seed, and latencies are per-sweep (16 cells each).
//!
//! `--connections` switches to the concurrency sweep that feeds
//! `BENCH_async.json`: for each connection count in the list, that many
//! keep-alive connections are opened *simultaneously* and each issues
//! `--rounds` cache-hot `/simulate` requests back-to-back, measuring
//! rps and tail latency as the server multiplexes them all on its one
//! event-loop thread. `--verify` additionally checks every response
//! payload bit-identical against the engine run directly
//! (`engine::simulate_with` + `sim_result_to_json`, no service).
//!
//! `--shards N` (with `--self-host`) starts N in-process downstream
//! servers and puts the front end in coordinator mode, so the same sweep
//! workload measures 1→N shard scaling — feeds `BENCH_shard.json` via
//! `scripts/bench_shard.sh`.
//!
//! ```sh
//! serve_client --self-host --requests 8 --clients 4 --cap 2048
//! serve_client --self-host --sweep --requests 4 --clients 2 --cap 512
//! serve_client --self-host --sweep --requests 8 --clients 4 --shards 4
//! serve_client --addr 127.0.0.1:8080 --requests 16
//! serve_client --self-host --connections 64,256,1024 --rounds 32 --cap 512
//! serve_client --self-host --connections 256 --verify
//! ```

use bbs_json::Json;
use bbs_models::zoo;
use bbs_serve::client::Client;
use bbs_serve::registry::accelerator_by_name;
use bbs_serve::server::{start, ServeConfig};
use bbs_serve::service::ServiceConfig;
use bbs_sim::engine::simulate_with;
use bbs_sim::json::sim_result_to_json;
use bbs_sim::{ArrayConfig, WorkloadStore};
use bbs_telemetry::{Format, Histogram, Level, Logger, Value};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// The request mix both modes cycle through.
const MODELS: [&str; 4] = ["ViT-Small", "ResNet-34", "Bert-SST2", "VGG-16"];
const ACCELS: [&str; 4] = ["stripes", "bitwave", "bitvert-moderate", "bitlet"];

struct Args {
    addr: Option<String>,
    self_host: bool,
    requests: usize,
    clients: usize,
    cap: usize,
    warm_mult: usize,
    sweep: bool,
    /// Concurrency-sweep mode: connection counts to drive.
    connections: Option<Vec<usize>>,
    /// Requests per connection in `--connections` mode.
    rounds: usize,
    /// Check responses bit-identical to direct in-process simulation.
    verify: bool,
    /// `--self-host` only: start this many downstream shard servers and
    /// run the front end in coordinator mode (`BENCH_shard.json` scaling
    /// curve). Zero = plain single-server mode.
    shards: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        self_host: false,
        requests: 8,
        clients: 4,
        cap: 2048,
        warm_mult: 4,
        sweep: false,
        connections: None,
        rounds: 32,
        verify: false,
        shards: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--self-host" => args.self_host = true,
            "--sweep" => args.sweep = true,
            "--verify" => args.verify = true,
            "--addr" => args.addr = Some(value("--addr")?),
            "--requests" => args.requests = parse_num(&value("--requests")?)?,
            "--clients" => args.clients = parse_num(&value("--clients")?)?,
            "--cap" => args.cap = parse_num(&value("--cap")?)?,
            "--warm-mult" => args.warm_mult = parse_num(&value("--warm-mult")?)?,
            "--rounds" => args.rounds = parse_num(&value("--rounds")?)?,
            "--shards" => args.shards = parse_num(&value("--shards")?)?,
            "--connections" => {
                args.connections = Some(
                    value("--connections")?
                        .split(',')
                        .map(parse_num)
                        .collect::<Result<Vec<_>, _>>()?,
                )
            }
            "--help" | "-h" => {
                println!(
                    "usage: serve_client (--self-host | --addr HOST:PORT) [--sweep] \
                     [--requests N] [--clients C] [--cap CAP] [--warm-mult M] \
                     [--shards S]\n       \
                     serve_client (--self-host | --addr HOST:PORT) --connections N,.. \
                     [--rounds R] [--cap CAP] [--verify]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.self_host == args.addr.is_some() {
        return Err("pass exactly one of --self-host / --addr".to_string());
    }
    if args.requests == 0 || args.clients == 0 || args.warm_mult == 0 || args.rounds == 0 {
        return Err("counts must be positive".to_string());
    }
    if args.sweep && args.connections.is_some() {
        return Err("--sweep and --connections are mutually exclusive".to_string());
    }
    if args.shards > 0 && !args.self_host {
        return Err("--shards requires --self-host".to_string());
    }
    if args.shards > 64 {
        return Err("--shards supports at most 64 shards".to_string());
    }
    Ok(args)
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .ok()
        .filter(|&v| v > 0)
        .ok_or_else(|| format!("'{s}' is not a positive integer"))
}

/// Request `i` of the mix: a unique (model, accelerator, seed) point
/// cycling through light zoo models and the full accelerator spread.
fn request_point(i: usize) -> (&'static str, &'static str, u64) {
    let model = MODELS[i % MODELS.len()];
    let accel = ACCELS[(i / MODELS.len()) % ACCELS.len()];
    let seed = 7 + (i / (MODELS.len() * ACCELS.len())) as u64;
    (model, accel, seed)
}

/// The first `n` points of the request mix as `/simulate` bodies.
fn request_bodies(n: usize, cap: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let (model, accel, seed) = request_point(i);
            format!(
                "{{\"model\":\"{model}\",\"accelerator\":\"{accel}\",\
                 \"seed\":{seed},\"max_weights_per_layer\":{cap}}}"
            )
        })
        .collect()
}

/// The sweep mix: request `i` is one whole models × accelerators grid at
/// seed `7 + i` — unique work per sweep in the cold phase, all cache hits
/// when repeated warm.
fn sweep_bodies(n: usize, cap: usize) -> Vec<String> {
    let quoted = |names: &[&str]| {
        names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(",")
    };
    (0..n)
        .map(|i| {
            format!(
                "{{\"models\":[{}],\"accelerators\":[{}],\"seeds\":[{}],\
                 \"max_weights_per_layer\":[{cap}]}}",
                quoted(&MODELS),
                quoted(&ACCELS),
                7 + i as u64
            )
        })
        .collect()
}

/// Issues `bodies` across `clients` workers (request `i` goes to client
/// `i % clients`); returns per-request latencies in ms. Simulate mode
/// reuses one keep-alive connection per worker; sweep responses are
/// EOF-framed, so sweep mode reconnects per request.
fn run_phase(
    addr: SocketAddr,
    bodies: &[String],
    clients: usize,
    sweep: bool,
) -> Result<Vec<f64>, String> {
    let bodies = Arc::new(bodies.to_vec());
    let clients = clients.min(bodies.len());
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let bodies = Arc::clone(&bodies);
            std::thread::spawn(move || -> Result<Vec<f64>, String> {
                let mut keep_alive = if sweep {
                    None
                } else {
                    Some(Client::connect(addr).map_err(|e| e.to_string())?)
                };
                let mut latencies = Vec::new();
                for body in bodies.iter().skip(c).step_by(clients) {
                    let t = Instant::now();
                    match &mut keep_alive {
                        Some(client) => {
                            let (status, response) =
                                client.simulate(body).map_err(|e| e.to_string())?;
                            if status != 200 {
                                return Err(format!("request failed: {status} {response}"));
                            }
                        }
                        None => run_one_sweep(addr, body)?,
                    }
                    latencies.push(t.elapsed().as_secs_f64() * 1e3);
                }
                Ok(latencies)
            })
        })
        .collect();
    let mut all = Vec::new();
    for h in handles {
        all.extend(h.join().map_err(|_| "client thread panicked")??);
    }
    Ok(all)
}

/// One `/sweep` round trip: stream the grid, verify every cell succeeded
/// and the summary arrived.
fn run_one_sweep(addr: SocketAddr, body: &str) -> Result<(), String> {
    let client = Client::connect(addr).map_err(|e| e.to_string())?;
    let (status, lines) = client.sweep(body).map_err(|e| e.to_string())?;
    let mut saw_summary = false;
    for line in lines {
        let line = line.map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("sweep failed: {status} {line}"));
        }
        let v = Json::parse(&line).map_err(|e| e.to_string())?;
        if let Some(summary) = v.get("summary") {
            saw_summary = true;
            if summary.get("errors").and_then(Json::as_u64) != Some(0) {
                return Err(format!("sweep had failing cells: {line}"));
            }
        } else if let Some(err) = v.get("error") {
            return Err(format!("sweep cell failed: {err}"));
        }
    }
    if status != 200 {
        return Err(format!("sweep failed: {status}"));
    }
    if !saw_summary {
        return Err("sweep stream ended without summary".to_string());
    }
    Ok(())
}

/// Slices the spliced-verbatim `result` payload out of a `/simulate`
/// response body (`{"meta":{...},"result":<payload>}`).
fn extract_result(body: &str) -> Result<&str, String> {
    let idx = body
        .find("\"result\":")
        .ok_or_else(|| format!("response has no result field: {body}"))?;
    body[idx + "\"result\":".len()..]
        .strip_suffix('}')
        .ok_or_else(|| format!("unterminated response body: {body}"))
}

/// The `result` payload of each of the first `n` request bodies, from
/// the engine itself — no service, no cache, no HTTP — so the oracle
/// `--verify` compares against does not run the path it checks. The cap
/// is clamped to the default server bound, as a default server clamps it.
fn reference_results(n: usize, cap: usize) -> Result<Vec<String>, String> {
    let cap = cap.min(ServiceConfig::default().max_cap);
    // One store lowers each (model, seed) once for all accelerators;
    // the engine pins this bit-identical to a fresh lowering per run.
    let store = WorkloadStore::default();
    (0..n)
        .map(|i| {
            let (model, accel, seed) = request_point(i);
            let spec = zoo::by_name(model).ok_or_else(|| format!("unknown model {model}"))?;
            let accel =
                accelerator_by_name(accel).ok_or_else(|| format!("unknown accelerator {accel}"))?;
            let sim = simulate_with(
                &store,
                accel.as_ref(),
                &spec,
                &ArrayConfig::paper_16x32(),
                seed,
                cap,
            );
            Ok(sim_result_to_json(&sim).to_string())
        })
        .collect()
}

/// Counts live threads named `bbs-serve-*` in this process — in
/// `--self-host` mode that is exactly the server's footprint (the event
/// loop plus the workers), regardless of how many client threads the
/// bench itself spawns. Linux only (`/proc`); `None` elsewhere.
fn serve_thread_count() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let mut count = 0;
    for task in tasks.flatten() {
        let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
        if comm.trim_end().starts_with("bbs-serve") {
            count += 1;
        }
    }
    Some(count)
}

/// The per-stage timing keys a `x-bbs-trace` response header carries,
/// in header order (`id=` and `served=` precede them).
const TRACE_STAGES: [&str; 7] = [
    "parse_us", "queue_us", "lower_us", "sim_us", "ser_us", "park_us", "total_us",
];

/// Client-side aggregation for one concurrency point: a log-linear
/// histogram of observed latencies plus one histogram per server-side
/// stage parsed out of the `x-bbs-trace` response headers. Shared across
/// the connection threads (the histograms are lock-free).
struct TraceAgg {
    /// Client-observed round-trip latency, µs.
    latency: Histogram,
    /// Server-reported per-stage timings, µs, indexed like [`TRACE_STAGES`].
    stages: [Histogram; TRACE_STAGES.len()],
    /// Requests whose response carried a parseable trace header.
    traced: Histogram,
}

impl TraceAgg {
    fn new() -> TraceAgg {
        TraceAgg {
            latency: Histogram::new(),
            stages: std::array::from_fn(|_| Histogram::new()),
            traced: Histogram::new(),
        }
    }
    /// Folds one `x-bbs-trace` header (`id=..;served=..;parse_us=..;...`)
    /// into the per-stage histograms. Unknown keys are ignored so the
    /// client keeps working against newer servers.
    fn record_trace(&self, header: &str) {
        let mut any = false;
        for part in header.split(';') {
            let Some((key, value)) = part.split_once('=') else {
                continue;
            };
            let Some(idx) = TRACE_STAGES.iter().position(|s| *s == key) else {
                continue;
            };
            if let Ok(v) = value.parse::<u64>() {
                self.stages[idx].record(v);
                any = true;
            }
        }
        if any {
            self.traced.record(1);
        }
    }

    /// `{count, p50_us, p90_us, p99_us, max_us, mean_us}` for one histogram.
    fn hist_json(h: &Histogram) -> Json {
        let s = h.snapshot();
        Json::obj(vec![
            ("count", Json::from_u64(s.count)),
            ("p50_us", Json::from_u64(s.percentile(0.50))),
            ("p90_us", Json::from_u64(s.percentile(0.90))),
            ("p99_us", Json::from_u64(s.percentile(0.99))),
            ("max_us", Json::from_u64(s.max)),
            ("mean_us", Json::Num(round2(s.mean()))),
        ])
    }

    /// The full-resolution client latency distribution.
    fn latency_json(&self) -> Json {
        TraceAgg::hist_json(&self.latency)
    }

    /// Per-stage server timings; stages the server never reported (e.g.
    /// `lower_us` on an all-hot cache) are omitted.
    fn stages_json(&self) -> Json {
        let mut fields = Vec::new();
        for (name, hist) in TRACE_STAGES.iter().zip(&self.stages) {
            if hist.count() > 0 {
                fields.push((*name, TraceAgg::hist_json(hist)));
            }
        }
        fields.push(("traced_requests", Json::from_u64(self.traced.count())));
        Json::obj(fields)
    }
}

/// One concurrency point: `conns` keep-alive connections opened up front
/// (barrier), each issuing `rounds` requests back-to-back. Any non-200 or
/// payload mismatch fails the whole point.
fn run_connections_point(
    addr: SocketAddr,
    bodies: &Arc<Vec<String>>,
    conns: usize,
    rounds: usize,
    expected: &Option<Arc<Vec<String>>>,
) -> Result<Json, String> {
    // All connections connect, then start together; the main thread joins
    // the barrier too, so the wall clock starts when the flood does.
    let barrier = Arc::new(Barrier::new(conns + 1));
    let agg = Arc::new(TraceAgg::new());
    let handles: Vec<_> = (0..conns)
        .map(|c| {
            let bodies = Arc::clone(bodies);
            let barrier = Arc::clone(&barrier);
            let expected = expected.clone();
            let agg = Arc::clone(&agg);
            std::thread::Builder::new()
                .stack_size(128 * 1024)
                .spawn(move || -> Result<Vec<f64>, String> {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    barrier.wait();
                    let mut latencies = Vec::with_capacity(rounds);
                    for r in 0..rounds {
                        let i = (c + r) % bodies.len();
                        let body = &bodies[i];
                        let t = Instant::now();
                        let (status, response) =
                            client.simulate(body).map_err(|e| e.to_string())?;
                        let elapsed = t.elapsed();
                        latencies.push(elapsed.as_secs_f64() * 1e3);
                        agg.latency.record(elapsed.as_micros() as u64);
                        if let Some(header) = client.response_header("x-bbs-trace") {
                            agg.record_trace(header);
                        }
                        if status != 200 {
                            return Err(format!("request failed: {status} {response}"));
                        }
                        if let Some(expected) = &expected {
                            if extract_result(&response)? != expected[i] {
                                return Err(format!(
                                    "response differs from direct simulation for {body}"
                                ));
                            }
                        }
                    }
                    Ok(latencies)
                })
                .map_err(|e| format!("spawn connection thread: {e}"))
        })
        .collect::<Result<_, _>>()?;
    barrier.wait();
    let start = Instant::now();
    let mut latencies = Vec::with_capacity(conns * rounds);
    for h in handles {
        latencies.extend(h.join().map_err(|_| "connection thread panicked")??);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = latencies.len();
    Ok(Json::obj(vec![
        ("connections", Json::from_usize(conns)),
        ("requests", Json::from_usize(n)),
        ("wall_ms", Json::Num(round2(wall_ms))),
        (
            "rps",
            Json::Num(round2(n as f64 / (wall_ms / 1e3).max(1e-9))),
        ),
        ("p50_ms", Json::Num(round2(percentile(&latencies, 0.5)))),
        ("p95_ms", Json::Num(round2(percentile(&latencies, 0.95)))),
        ("p99_ms", Json::Num(round2(percentile(&latencies, 0.99)))),
        ("latency_hist", agg.latency_json()),
        ("server_stages_us", agg.stages_json()),
    ]))
}

/// The `--connections` concurrency sweep: warm the cache once, then
/// measure each connection count against the hot cache (the mode exists
/// to measure the event loop, not the simulator).
fn connections_bench(addr: SocketAddr, args: &Args) -> Result<Json, String> {
    let points_spec = args.connections.as_deref().unwrap_or(&[]);
    let bodies = Arc::new(request_bodies(args.requests.max(16), args.cap));

    let expected = if args.verify {
        Some(Arc::new(reference_results(bodies.len(), args.cap)?))
    } else {
        None
    };

    // Warm pass: every body lands in the server cache so the sweep
    // measures connection handling, not simulation throughput.
    let mut warmer = Client::connect(addr).map_err(|e| e.to_string())?;
    for body in bodies.iter() {
        let (status, response) = warmer.simulate(body).map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("warmup failed: {status} {response}"));
        }
    }

    let mut points = Vec::new();
    for &conns in points_spec {
        points.push(run_connections_point(
            addr,
            &bodies,
            conns,
            args.rounds,
            &expected,
        )?);
    }

    let stats_text = warmer.get("/stats").map_err(|e| e.to_string())?.1;
    let stats = Json::parse(&stats_text).map_err(|e| e.to_string())?;
    // The backend the *server* selected for its kernels (its /stats
    // advertisement) — top-level so BENCH_async.json runs are comparable
    // across hosts without digging into the embedded stats blob.
    let server_backend = stats
        .get("simd_backend")
        .and_then(Json::as_str)
        .unwrap_or("unknown")
        .to_string();
    let mut fields = vec![
        ("schema", Json::str("bbs-serve-async/v1")),
        ("server_simd_backend", Json::Str(server_backend)),
        (
            "config",
            Json::obj(vec![
                ("bodies", Json::from_usize(bodies.len())),
                ("rounds", Json::from_usize(args.rounds)),
                ("cap", Json::from_usize(args.cap)),
                ("verify", Json::Bool(args.verify)),
                ("self_host", Json::Bool(args.self_host)),
            ]),
        ),
    ];
    if args.self_host {
        if let Some(threads) = serve_thread_count() {
            // The whole server: one event-loop thread + the workers.
            fields.push(("server_threads", Json::from_usize(threads)));
        }
    }
    fields.push(("points", Json::Arr(points)));
    fields.push(("stats", stats));
    Ok(Json::obj(fields))
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn phase_json(latencies: &mut [f64], wall_ms: f64, cells_per_request: usize) -> Json {
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = latencies.len() as f64;
    Json::obj(vec![
        ("requests", Json::from_usize(latencies.len())),
        ("wall_ms", Json::Num(round2(wall_ms))),
        ("rps", Json::Num(round2(n / (wall_ms / 1e3)))),
        (
            "cells_per_s",
            Json::Num(round2(
                n * cells_per_request as f64 / (wall_ms / 1e3).max(1e-9),
            )),
        ),
        (
            "mean_ms",
            Json::Num(round2(latencies.iter().sum::<f64>() / n)),
        ),
        ("p50_ms", Json::Num(round2(percentile(latencies, 0.5)))),
        ("p95_ms", Json::Num(round2(percentile(latencies, 0.95)))),
        ("p99_ms", Json::Num(round2(percentile(latencies, 0.99)))),
    ])
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

fn main() -> ExitCode {
    // Human-first tool: text logs on stderr, JSON summary on stdout.
    let log = Logger::new(Level::Info, Format::Text, false);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            log.error("bad arguments", &[("error", Value::Str(&e))]);
            return ExitCode::FAILURE;
        }
    };

    let mut config = ServeConfig::default();
    if let Some(points) = &args.connections {
        // The sweep itself needs headroom above the largest point (the
        // warmup/stats connection rides alongside the flood).
        let largest = points.iter().copied().max().unwrap_or(0);
        config.max_connections = config.max_connections.max(largest + 16);
    }
    // `--shards N`: N in-process downstream servers, with the self-hosted
    // front end coordinating over them (the BENCH_shard.json topology).
    let mut shard_servers = Vec::new();
    if args.self_host && args.shards > 0 {
        // Split the machine's cores across the shards (as a real
        // deployment would split boxes) so the curve measures
        // coordination overhead and cache partitioning, not N worker
        // pools oversubscribing the same CPUs.
        let cores = std::thread::available_parallelism().map_or(2, |p| p.get());
        let shard_config = ServiceConfig {
            workers: (cores / args.shards).clamp(1, 8),
            ..ServiceConfig::default()
        };
        for _ in 0..args.shards {
            match start(ServeConfig {
                service: shard_config.clone(),
                log_quiet: true,
                ..ServeConfig::default()
            }) {
                Ok(s) => shard_servers.push(s),
                Err(e) => {
                    log.error(
                        "failed to start shard",
                        &[("error", Value::Str(&e.to_string()))],
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        config.shards = shard_servers.iter().map(|s| s.addr()).collect();
        // The coordinator front end simulates nothing locally.
        config.service.workers = 1;
    }
    let server = if args.self_host {
        match start(config) {
            Ok(s) => Some(s),
            Err(e) => {
                log.error(
                    "failed to start server",
                    &[("error", Value::Str(&e.to_string()))],
                );
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let addr: SocketAddr = match &server {
        Some(s) => s.addr(),
        None => match args.addr.as_deref().unwrap().parse() {
            Ok(a) => a,
            Err(e) => {
                log.error("bad --addr", &[("error", Value::Str(&e.to_string()))]);
                return ExitCode::FAILURE;
            }
        },
    };

    let outcome = (|| -> Result<Json, String> {
        if args.connections.is_some() {
            return connections_bench(addr, &args);
        }
        let bodies = if args.sweep {
            sweep_bodies(args.requests, args.cap)
        } else {
            request_bodies(args.requests, args.cap)
        };
        let cold_start = Instant::now();
        let mut cold = run_phase(addr, &bodies, args.clients, args.sweep)?;
        let cold_wall = cold_start.elapsed().as_secs_f64() * 1e3;

        let warm_bodies: Vec<String> = (0..args.warm_mult)
            .flat_map(|_| bodies.iter().cloned())
            .collect();
        let warm_start = Instant::now();
        let mut warm = run_phase(addr, &warm_bodies, args.clients, args.sweep)?;
        let warm_wall = warm_start.elapsed().as_secs_f64() * 1e3;

        let stats_text = Client::connect(addr)
            .and_then(|mut c| c.get("/stats"))
            .map_err(|e| e.to_string())?
            .1;
        let stats = Json::parse(&stats_text).map_err(|e| e.to_string())?;

        let cells_per_request = if args.sweep {
            MODELS.len() * ACCELS.len()
        } else {
            1
        };
        Ok(Json::obj(vec![
            ("schema", Json::str("bbs-serve-load/v1")),
            (
                "config",
                Json::obj(vec![
                    (
                        "mode",
                        Json::str(if args.sweep { "sweep" } else { "simulate" }),
                    ),
                    ("requests", Json::from_usize(args.requests)),
                    ("cells_per_request", Json::from_usize(cells_per_request)),
                    ("clients", Json::from_usize(args.clients)),
                    ("cap", Json::from_usize(args.cap)),
                    ("warm_mult", Json::from_usize(args.warm_mult)),
                    ("self_host", Json::Bool(args.self_host)),
                    ("shards", Json::from_usize(args.shards)),
                ]),
            ),
            ("cold", phase_json(&mut cold, cold_wall, cells_per_request)),
            ("warm", phase_json(&mut warm, warm_wall, cells_per_request)),
            ("stats", stats),
        ]))
    })();

    let code = match outcome {
        Ok(summary) => {
            println!("{}", summary.pretty(2));
            ExitCode::SUCCESS
        }
        Err(e) => {
            log.error("bench failed", &[("error", Value::Str(&e))]);
            ExitCode::FAILURE
        }
    };
    if let Some(s) = server {
        s.stop();
    }
    for shard in shard_servers {
        shard.stop();
    }
    code
}
