//! Load generator for `bbs-serve`: drives a cold phase (unique `/simulate`
//! requests) and a warm phase (the same requests again — all cache hits),
//! then prints a latency/throughput summary as JSON.
//!
//! ```sh
//! serve_client --self-host --requests 8 --clients 4 --cap 2048
//! serve_client --addr 127.0.0.1:8080 --requests 16
//! ```

use bbs_json::Json;
use bbs_serve::client::Client;
use bbs_serve::server::{start, ServeConfig};
use bbs_telemetry::{Format, Level, Logger, Value};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// The request mix: light zoo models across the accelerator spread.
const MODELS: [&str; 4] = ["ViT-Small", "ResNet-34", "Bert-SST2", "VGG-16"];
const ACCELS: [&str; 4] = ["stripes", "bitwave", "bitvert-moderate", "bitlet"];

struct Args {
    addr: Option<String>,
    self_host: bool,
    requests: usize,
    clients: usize,
    cap: usize,
    warm_mult: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        self_host: false,
        requests: 8,
        clients: 4,
        cap: 2048,
        warm_mult: 4,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--self-host" => args.self_host = true,
            "--addr" => args.addr = Some(value("--addr")?),
            "--requests" => args.requests = parse_num(&value("--requests")?)?,
            "--clients" => args.clients = parse_num(&value("--clients")?)?,
            "--cap" => args.cap = parse_num(&value("--cap")?)?,
            "--warm-mult" => args.warm_mult = parse_num(&value("--warm-mult")?)?,
            "--help" | "-h" => {
                println!(
                    "usage: serve_client (--self-host | --addr HOST:PORT) \
                     [--requests N] [--clients C] [--cap CAP] [--warm-mult M]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.self_host == args.addr.is_some() {
        return Err("pass exactly one of --self-host / --addr".to_string());
    }
    Ok(args)
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .ok()
        .filter(|&v| v > 0)
        .ok_or_else(|| format!("'{s}' is not a positive integer"))
}

/// The first `n` points of the request mix as `/simulate` bodies: request
/// `i` is a unique (model, accelerator, seed) point.
fn request_bodies(n: usize, cap: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let model = MODELS[i % MODELS.len()];
            let accel = ACCELS[(i / MODELS.len()) % ACCELS.len()];
            let seed = 7 + (i / (MODELS.len() * ACCELS.len())) as u64;
            format!(
                "{{\"model\":\"{model}\",\"accelerator\":\"{accel}\",\
                 \"seed\":{seed},\"max_weights_per_layer\":{cap}}}"
            )
        })
        .collect()
}

/// Issues `bodies` across `clients` workers (request `i` goes to client
/// `i % clients`), each on one keep-alive connection; returns per-request
/// latencies in ms.
fn run_phase(addr: SocketAddr, bodies: &[String], clients: usize) -> Result<Vec<f64>, String> {
    let bodies = Arc::new(bodies.to_vec());
    let clients = clients.min(bodies.len());
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let bodies = Arc::clone(&bodies);
            std::thread::spawn(move || -> Result<Vec<f64>, String> {
                let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                let mut latencies = Vec::new();
                for body in bodies.iter().skip(c).step_by(clients) {
                    let t = Instant::now();
                    let (status, response) = client.simulate(body).map_err(|e| e.to_string())?;
                    if status != 200 {
                        return Err(format!("request failed: {status} {response}"));
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

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn phase_json(latencies: &mut [f64], wall_ms: f64) -> Json {
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = latencies.len() as f64;
    Json::obj(vec![
        ("requests", Json::from_usize(latencies.len())),
        ("wall_ms", Json::Num(round2(wall_ms))),
        ("rps", Json::Num(round2(n / (wall_ms / 1e3)))),
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

    let server = if args.self_host {
        match start(ServeConfig::default()) {
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
        let bodies = request_bodies(args.requests, args.cap);
        let cold_start = Instant::now();
        let mut cold = run_phase(addr, &bodies, args.clients)?;
        let cold_wall = cold_start.elapsed().as_secs_f64() * 1e3;

        let warm_bodies: Vec<String> = (0..args.warm_mult)
            .flat_map(|_| bodies.iter().cloned())
            .collect();
        let warm_start = Instant::now();
        let mut warm = run_phase(addr, &warm_bodies, args.clients)?;
        let warm_wall = warm_start.elapsed().as_secs_f64() * 1e3;

        let stats_text = Client::connect(addr)
            .and_then(|mut c| c.get("/stats"))
            .map_err(|e| e.to_string())?
            .1;
        let stats = Json::parse(&stats_text).map_err(|e| e.to_string())?;

        Ok(Json::obj(vec![
            ("schema", Json::str("bbs-serve-load/v1")),
            (
                "config",
                Json::obj(vec![
                    ("requests", Json::from_usize(args.requests)),
                    ("clients", Json::from_usize(args.clients)),
                    ("cap", Json::from_usize(args.cap)),
                    ("warm_mult", Json::from_usize(args.warm_mult)),
                    ("self_host", Json::Bool(args.self_host)),
                ]),
            ),
            ("cold", phase_json(&mut cold, cold_wall)),
            ("warm", phase_json(&mut warm, warm_wall)),
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
    code
}
