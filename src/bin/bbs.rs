//! The `bbs` command-line entry point.
//!
//! ```sh
//! bbs serve [--addr 127.0.0.1:8080] [--workers N] [--queue-depth N]
//!           [--max-cap N] [--max-connections N] [--idle-timeout-ms N]
//!           [--park-timeout-ms N]         # run the simulation service
//! bbs sweep (--addr HOST:PORT | --self-host)
//!           --models A,B --accelerators X,Y
//!           [--seeds 7,8] [--caps 4096] [--pe-cols 16,32]
//!                                         # stream a grid sweep as NDJSON
//! bbs models                              # list zoo models
//! bbs accelerators                        # list accelerator ids
//! ```

use bbs::serve::client::{sweep_with_resume, Client, RetryPolicy};
use bbs::serve::server::{start, ServeConfig};
use bbs::serve::service::ServiceConfig;
use bbs::sim::json::array_config_to_json;
use bbs::sim::ArrayConfig;
use bbs::telemetry::FaultPlan;
use bbs_json::Json;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const USAGE: &str = "usage:
  bbs serve [--addr HOST:PORT] [--workers N] [--queue-depth N] [--max-cap N]
            [--max-connections N] [--idle-timeout-ms N] [--park-timeout-ms N]
            [--log-level LVL] [--log-format FMT] [--slow-ms N]
            [--cache-dir PATH] [--disk-bytes N] [--drain-timeout-ms N]
            [--faults SPEC] [--shard-of A1,A2,..]
  bbs sweep (--addr HOST:PORT | --self-host) --models A,B --accelerators X,Y
            [--seeds S,..] [--caps C,..] [--pe-cols P,..] [--resume]
  bbs models
  bbs accelerators

serve options:
  --addr HOST:PORT   bind address (default 127.0.0.1:8080; port 0 = ephemeral)
  --workers N        simulation worker threads (default: CPU count, max 8)
  --queue-depth N    bounded job queue depth (default 64)
  --max-cap N        upper bound for max_weights_per_layer (default 65536)
  --max-connections N  open-connection cap (default 1024)
  --idle-timeout-ms N  idle keep-alive / slow-client reap deadline (default 120000)
  --park-timeout-ms N  queue-full parking deadline; 0 = immediate 503 (default 10000)
  --log-level LVL      stderr log threshold: error, warn, info (default), debug
  --log-format FMT     stderr log format: json (default) or text
  --slow-ms N          log requests slower than N ms at warn level (default 500)
  --cache-dir PATH     durable on-disk cache tier; survives restarts (warm
                       start). Without it the server never touches the disk.
  --disk-bytes N       byte budget for --cache-dir, oldest records evicted
                       first (default 1073741824)
  --drain-timeout-ms N shutdown grace for in-flight work on SIGTERM/SIGINT
                       (default 10000)
  --faults SPEC        deterministic fault-injection plan (chaos testing),
                       e.g. 'seed=7;disk_read_err=0.1;torn_write=0.05';
                       same grammar as the BBS_FAULTS env var
  --shard-of A1,A2,..  coordinator mode: forward every /simulate request and
                       /sweep cell to one of these downstream bbs-serve
                       instances, rendezvous-hashed by its content key (so
                       each shard's caches hold only its slice); this
                       instance runs no simulations of its own

sweep options (cells stream to stdout as NDJSON, summary record last):
  --addr HOST:PORT   sweep against a running bbs-serve instance
  --self-host        spin up an in-process server for this sweep
  --models A,B       model names (see `bbs models`)
  --accelerators X,Y accelerator ids (see `bbs accelerators`)
  --seeds S,..       weight-synthesis seeds (default 7)
  --caps C,..        per-layer weight caps (default 4096)
  --pe-cols P,..     PE-column variants of the paper 16x32 array (default: as-is)
  --resume           recover from a broken stream by re-requesting only the
                     failed or missing cells (output ordered by cell index)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("sweep") => sweep(&args[1..]),
        Some("models") => {
            for name in bbs::models::zoo::names() {
                println!("{name}");
            }
            ExitCode::SUCCESS
        }
        Some("accelerators") => {
            for id in bbs::serve::registry::ACCELERATOR_IDS {
                println!("{id}");
            }
            ExitCode::SUCCESS
        }
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("bbs: unknown command '{other}'\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn serve(args: &[String]) -> ExitCode {
    let mut config = ServeConfig {
        addr: "127.0.0.1:8080".to_string(),
        service: ServiceConfig::default(),
        ..ServeConfig::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("bbs serve: {flag} requires a value\n{USAGE}");
            return ExitCode::FAILURE;
        };
        let parsed = value.parse::<usize>();
        match (flag.as_str(), parsed) {
            ("--addr", _) => config.addr = value.clone(),
            ("--workers", Ok(n)) if n > 0 => config.service.workers = n,
            ("--queue-depth", Ok(n)) if n > 0 => config.service.queue_depth = n,
            ("--max-cap", Ok(n)) if n > 0 => config.service.max_cap = n,
            ("--max-connections", Ok(n)) if n > 0 => config.max_connections = n,
            ("--idle-timeout-ms", Ok(n)) if n > 0 => {
                config.idle_timeout = std::time::Duration::from_millis(n as u64)
            }
            // 0 is meaningful here: park nothing, 503 immediately.
            ("--park-timeout-ms", Ok(n)) => {
                config.park_timeout = std::time::Duration::from_millis(n as u64)
            }
            ("--log-level", _) => match bbs::telemetry::Level::from_flag(value) {
                Some(level) => config.log_level = level,
                None => {
                    eprintln!("bbs serve: --log-level must be error, warn, info or debug\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            ("--log-format", _) => match bbs::telemetry::Format::from_flag(value) {
                Some(format) => config.log_format = format,
                None => {
                    eprintln!("bbs serve: --log-format must be text or json\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            ("--slow-ms", Ok(n)) => config.slow_ms = n as u64,
            ("--cache-dir", _) => config.service.cache_dir = Some(std::path::PathBuf::from(value)),
            ("--disk-bytes", Ok(n)) if n > 0 => config.service.disk_bytes = n as u64,
            ("--drain-timeout-ms", Ok(n)) => {
                config.drain_timeout = std::time::Duration::from_millis(n as u64)
            }
            ("--faults", _) => match FaultPlan::parse(value) {
                Ok(plan) => config.service.faults = Arc::new(plan),
                Err(e) => {
                    eprintln!("bbs serve: bad --faults spec: {e}\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            ("--shard-of", _) => {
                let mut shards = Vec::new();
                for part in value.split(',').filter(|p| !p.trim().is_empty()) {
                    match part.trim().parse::<std::net::SocketAddr>() {
                        Ok(addr) => shards.push(addr),
                        Err(_) => {
                            eprintln!(
                                "bbs serve: --shard-of expects HOST:PORT,HOST:PORT,.. \
                                 (bad entry '{part}')\n{USAGE}"
                            );
                            return ExitCode::FAILURE;
                        }
                    }
                }
                if shards.is_empty() || shards.len() > 64 {
                    eprintln!("bbs serve: --shard-of needs 1..=64 addresses\n{USAGE}");
                    return ExitCode::FAILURE;
                }
                config.shards = shards;
            }
            _ => {
                eprintln!("bbs serve: bad argument '{flag} {value}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let server = match start(config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bbs serve: failed to bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "bbs-serve listening on http://{} ({} workers, queue depth {}, {} event loop, {} kernels)",
        server.addr(),
        config.service.workers,
        config.service.queue_depth,
        bbs::serve::event_loop::BACKEND,
        bbs_tensor::lanes::Backend::active().label()
    );
    println!(
        "routes: POST /simulate /sweep · GET /stats /metrics /logs/tail /healthz /readyz /models /accelerators"
    );

    // Serve until signalled. SIGTERM/SIGINT flip an AtomicBool (the only
    // async-signal-safe thing a handler may do) and the main thread polls
    // it, then runs the graceful drain: stop accepting, finish in-flight
    // work inside --drain-timeout-ms, flush the disk tier, join workers.
    install_stop_handler();
    while !STOP.load(Ordering::SeqCst) {
        std::thread::park_timeout(std::time::Duration::from_millis(200));
    }
    eprintln!("bbs-serve: caught shutdown signal, draining");
    server.stop();
    ExitCode::SUCCESS
}

static STOP: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_stop_handler() {
    // std links libc, so a plain extern declaration reaches signal(2); the
    // handler only stores to an atomic, which is async-signal-safe.
    extern "C" fn on_stop(_sig: i32) {
        STOP.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_stop);
        signal(SIGTERM, on_stop);
    }
}

#[cfg(not(unix))]
fn install_stop_handler() {}

/// Builds the `/sweep` grid body from comma-separated axis lists and
/// streams the response lines to stdout as they arrive. Exits non-zero
/// if the server rejects the spec or any cell errors.
fn sweep(args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut self_host = false;
    let mut resume = false;
    let mut models: Vec<String> = Vec::new();
    let mut accelerators: Vec<String> = Vec::new();
    let mut seeds: Vec<String> = Vec::new();
    let mut caps: Vec<String> = Vec::new();
    let mut pe_cols: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--self-host" {
            self_host = true;
            continue;
        }
        if flag == "--resume" {
            resume = true;
            continue;
        }
        let Some(value) = it.next() else {
            eprintln!("bbs sweep: {flag} requires a value\n{USAGE}");
            return ExitCode::FAILURE;
        };
        let list = || value.split(',').map(str::to_string).collect::<Vec<_>>();
        match flag.as_str() {
            "--addr" => addr = Some(value.clone()),
            "--models" => models = list(),
            "--accelerators" => accelerators = list(),
            "--seeds" => seeds = list(),
            "--caps" => caps = list(),
            "--pe-cols" => pe_cols = list(),
            _ => {
                eprintln!("bbs sweep: bad argument '{flag} {value}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    if self_host == addr.is_some() {
        eprintln!("bbs sweep: pass exactly one of --self-host / --addr\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if models.is_empty() || accelerators.is_empty() {
        eprintln!("bbs sweep: --models and --accelerators are required\n{USAGE}");
        return ExitCode::FAILURE;
    }

    let mut fields = vec![
        (
            "models",
            Json::Arr(models.iter().map(|m| Json::str(m)).collect()),
        ),
        (
            "accelerators",
            Json::Arr(accelerators.iter().map(|a| Json::str(a)).collect()),
        ),
    ];
    let num_axis = |name: &str, raw: &[String]| -> Result<Option<Json>, String> {
        if raw.is_empty() {
            return Ok(None);
        }
        let nums = raw
            .iter()
            .map(|v| {
                v.parse::<u64>()
                    .map(Json::from_u64)
                    .map_err(|_| format!("{name}: '{v}' is not a non-negative integer"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Some(Json::Arr(nums)))
    };
    let axes = [("seeds", &seeds), ("max_weights_per_layer", &caps)];
    for (name, raw) in axes {
        match num_axis(name, raw) {
            Ok(Some(v)) => fields.push((name, v)),
            Ok(None) => {}
            Err(e) => {
                eprintln!("bbs sweep: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if !pe_cols.is_empty() {
        let mut configs = Vec::new();
        for v in &pe_cols {
            match v.parse::<usize>() {
                Ok(cols) if cols > 0 => configs.push(array_config_to_json(
                    &ArrayConfig::paper_16x32().with_pe_cols(cols),
                )),
                _ => {
                    eprintln!("bbs sweep: --pe-cols: '{v}' is not a positive integer");
                    return ExitCode::FAILURE;
                }
            }
        }
        fields.push(("configs", Json::Arr(configs)));
    }
    let body = Json::obj(fields).to_string();

    let server = if self_host {
        match start(ServeConfig::default()) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("bbs sweep: failed to start server: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let resolved = match &server {
        Some(s) => s.addr().to_string(),
        None => addr.unwrap(),
    };

    let outcome = if resume {
        run_sweep_resume(&resolved, &body)
    } else {
        run_sweep(&resolved, &body)
    };
    if let Some(s) = server {
        s.stop();
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bbs sweep: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_sweep(addr: &str, body: &str) -> Result<(), String> {
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| format!("bad address '{addr}': {e}"))?;
    let client = Client::connect(addr).map_err(|e| e.to_string())?;
    let (status, lines) = client.sweep(body).map_err(|e| e.to_string())?;
    let mut cell_errors = 0u64;
    let mut saw_summary = false;
    for line in lines {
        let line = line.map_err(|e| e.to_string())?;
        println!("{line}");
        if let Ok(v) = Json::parse(&line) {
            if v.get("error").is_some() {
                cell_errors += 1;
            }
            saw_summary |= v.get("summary").is_some();
        }
    }
    if status != 200 {
        return Err(format!("server rejected sweep (HTTP {status})"));
    }
    if !saw_summary {
        // A clean EOF mid-grid would otherwise pass as success.
        return Err("stream ended without a summary record (truncated sweep)".to_string());
    }
    if cell_errors > 0 {
        return Err(format!("{cell_errors} cell(s) failed"));
    }
    Ok(())
}

/// `--resume` mode: survives a mid-stream failure by re-requesting only
/// the failed/missing cells; output comes out ordered by cell index
/// (reassembled), not completion order.
fn run_sweep_resume(addr: &str, body: &str) -> Result<(), String> {
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| format!("bad address '{addr}': {e}"))?;
    let outcome =
        sweep_with_resume(addr, body, &RetryPolicy::default()).map_err(|e| e.to_string())?;
    let mut cell_errors = 0u64;
    for record in &outcome.records {
        print!("{record}");
        if let Ok(v) = Json::parse(record) {
            if v.get("error").is_some() {
                cell_errors += 1;
            }
        }
    }
    print!("{}", outcome.summary);
    if let Some(e) = &outcome.stream_error {
        eprintln!(
            "bbs sweep: stream broke ({e}); recovered {} cell(s) via /simulate",
            outcome.resumed
        );
    }
    if cell_errors > 0 {
        return Err(format!("{cell_errors} cell(s) failed"));
    }
    Ok(())
}
