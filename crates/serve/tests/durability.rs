//! Durability and graceful-degradation integration tests: a real server
//! on an ephemeral port with a disk cache tier underneath, restarted,
//! corrupted, and fault-injected over HTTP.
//!
//! Covers the failure-mode contract end to end:
//! * warm restart — results survive a stop/start cycle and are served
//!   from disk (`disk_hits` in `/stats`), byte-identical;
//! * corruption — a flipped byte in an on-disk record is detected,
//!   quarantined, and re-simulated, never served or fatal;
//! * injected disk errors — the tier degrades to memory-only while the
//!   server keeps answering;
//! * injected worker panics — one poisoned sweep cell becomes an error
//!   record, every other cell completes, the pool replenishes;
//! * stream resume — `sweep_with_resume` recovers the failed cell;
//! * readiness — `/readyz` flips to 503 under saturation while
//!   `/healthz` stays 200;
//! * injected connection resets — the accept path drops the stream, the
//!   client sees a transport error and the server still stops cleanly.

use bbs_json::Json;
use bbs_serve::client::{sweep_with_resume, Client, RetryPolicy};
use bbs_serve::request::SimRequest;
use bbs_serve::server::{start, ServeConfig, ServerHandle};
use bbs_serve::service::ServiceConfig;
use bbs_telemetry::FaultPlan;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const BODY: &str = "{\"model\":\"ViT-Small\",\"accelerator\":\"stripes\",\
                    \"seed\":7,\"max_weights_per_layer\":128}";

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "bbs-serve-dur-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn server_with(service: ServiceConfig) -> ServerHandle {
    start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        service,
        log_quiet: true,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

fn disk_config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_depth: 16,
        cache_dir: Some(dir.to_path_buf()),
        ..ServiceConfig::default()
    }
}

fn stat(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or_else(|| {
        panic!("stats missing {key}: {stats}");
    })
}

fn flag(stats: &Json, key: &str) -> bool {
    stats.get(key).and_then(Json::as_bool).unwrap_or_else(|| {
        panic!("stats missing bool {key}: {stats}");
    })
}

fn stats_of(addr: std::net::SocketAddr) -> Json {
    let mut client = Client::connect(addr).unwrap();
    let (status, body) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    Json::parse(&body).unwrap()
}

/// The verbatim `"result":…` splice of a `/simulate` response body.
fn result_text(body: &str) -> &str {
    let marker = ",\"result\":";
    let pos = body.find(marker).expect("result field");
    &body[pos + marker.len()..body.len() - 1]
}

#[test]
fn warm_restart_serves_results_from_disk() {
    let dir = tmp_dir("warm");

    // Cold server: simulate once, let the write-through land on disk.
    let server = server_with(disk_config(&dir));
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    let (status, first) = client.simulate(BODY).unwrap();
    assert_eq!(status, 200);
    let cold = result_text(&first).to_string();
    let stats = stats_of(addr);
    assert!(flag(&stats, "disk_enabled"), "{stats}");
    assert!(stat(&stats, "disk_writes") >= 1, "{stats}");
    assert_eq!(stat(&stats, "disk_hits"), 0);
    server.stop();

    // Restarted server, same directory: the record is warm on disk.
    let server = server_with(disk_config(&dir));
    let addr = server.addr();
    let stats = stats_of(addr);
    assert!(stat(&stats, "disk_warm_entries") >= 1, "{stats}");
    let mut client = Client::connect(addr).unwrap();
    let (status, warm) = client.simulate(BODY).unwrap();
    assert_eq!(status, 200);
    let meta = Json::parse(&warm).unwrap();
    assert_eq!(
        meta.get("meta").unwrap().get("served").unwrap().as_str(),
        Some("cache"),
        "disk hit must present as a cache hit: {warm}"
    );
    assert_eq!(result_text(&warm), cold, "byte-identical across restart");
    let stats = stats_of(addr);
    assert_eq!(stat(&stats, "disk_hits"), 1, "{stats}");
    assert_eq!(stat(&stats, "sim_runs"), 0, "no re-simulation: {stats}");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_disk_record_is_quarantined_and_resimulated() {
    let dir = tmp_dir("corrupt");
    let server = server_with(disk_config(&dir));
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    let (status, first) = client.simulate(BODY).unwrap();
    assert_eq!(status, 200);
    let clean = result_text(&first).to_string();
    server.stop();

    // Flip one payload byte in every stored result record.
    let mut flipped = 0;
    for entry in walk_records(&dir.join("results")) {
        let mut bytes = std::fs::read(&entry).unwrap();
        let at = bytes.len() - 1;
        bytes[at] ^= 0x40;
        std::fs::write(&entry, bytes).unwrap();
        flipped += 1;
    }
    assert!(flipped >= 1, "expected at least one on-disk record");

    let server = server_with(disk_config(&dir));
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    let (status, again) = client.simulate(BODY).unwrap();
    assert_eq!(status, 200, "corruption must never surface as an error");
    let meta = Json::parse(&again).unwrap();
    assert_eq!(
        meta.get("meta").unwrap().get("served").unwrap().as_str(),
        Some("simulated"),
        "corrupt record must not be served: {again}"
    );
    assert_eq!(result_text(&again), clean, "re-simulation reproduces");
    let stats = stats_of(addr);
    assert_eq!(stat(&stats, "disk_quarantined"), 1, "{stats}");
    assert_eq!(stat(&stats, "disk_hits"), 0, "{stats}");
    // The quarantined file moved aside rather than vanishing.
    let quarantined = walk_records(&dir.join("results").join("quarantine")).len();
    assert_eq!(quarantined, 1);
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

fn walk_records(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rec") {
                out.push(path);
            }
        }
    }
    out
}

#[test]
fn injected_write_errors_degrade_to_memory_only() {
    let dir = tmp_dir("degrade");
    let mut config = disk_config(&dir);
    config.faults = Arc::new(FaultPlan::parse("seed=3;disk_write_err=1").unwrap());
    let server = server_with(config);
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    // Enough distinct jobs to exhaust the store's error tolerance.
    for seed in 0..10u64 {
        let body = format!(
            "{{\"model\":\"ViT-Small\",\"accelerator\":\"stripes\",\
             \"seed\":{seed},\"max_weights_per_layer\":64}}"
        );
        let (status, _) = client.simulate(&body).unwrap();
        assert_eq!(status, 200, "disk failure must not fail requests");
    }
    let stats = stats_of(addr);
    assert!(stat(&stats, "disk_write_errors") >= 8, "{stats}");
    assert!(flag(&stats, "disk_degraded"), "{stats}");
    assert_eq!(
        stat(&stats, "disk_writes"),
        0,
        "every write failed: {stats}"
    );
    assert!(stat(&stats, "faults_injected") >= 8, "{stats}");
    // Still serving, still a healthy cache in memory.
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    let (_, warm) = client
        .simulate(
            "{\"model\":\"ViT-Small\",\"accelerator\":\"stripes\",\
             \"seed\":0,\"max_weights_per_layer\":64}",
        )
        .unwrap();
    assert_eq!(
        Json::parse(&warm)
            .unwrap()
            .get("meta")
            .unwrap()
            .get("served")
            .unwrap()
            .as_str(),
        Some("cache")
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

fn request_key(accelerator: &str, seed: u64, cap: usize) -> u64 {
    let body = format!(
        "{{\"model\":\"ViT-Small\",\"accelerator\":\"{accelerator}\",\
         \"seed\":{seed},\"max_weights_per_layer\":{cap}}}"
    );
    SimRequest::from_json(&Json::parse(&body).unwrap(), 65536)
        .unwrap()
        .key()
}

#[test]
fn poisoned_sweep_cell_fails_alone_and_server_survives() {
    // Poison exactly the (ViT-Small, stripes) cell of a two-cell sweep.
    let key = request_key("stripes", 7, 128);
    let config = ServiceConfig {
        workers: 2,
        queue_depth: 16,
        faults: Arc::new(FaultPlan::parse(&format!("panic_key={key:x}")).unwrap()),
        ..ServiceConfig::default()
    };
    let server = server_with(config);
    let addr = server.addr();

    let body = "{\"models\":[\"ViT-Small\"],\"accelerators\":[\"stripes\",\"bitlet\"],\
                \"seeds\":[7],\"max_weights_per_layer\":[128]}";
    let client = Client::connect(addr).unwrap();
    let (status, lines) = client.sweep(body).unwrap();
    assert_eq!(status, 200);
    let lines = lines.collect_lines().unwrap();
    assert_eq!(lines.len(), 3, "2 cells + summary: {lines:?}");
    let mut errors = 0;
    let mut ok = 0;
    for line in &lines[..2] {
        let v = Json::parse(line).unwrap();
        match v.get("error") {
            Some(e) => {
                errors += 1;
                let message = e.as_str().unwrap();
                assert!(message.contains("panic"), "unhelpful error: {message}");
            }
            None => {
                ok += 1;
                assert!(v.get("result").is_some(), "{line}");
            }
        }
    }
    assert_eq!((ok, errors), (1, 1), "{lines:?}");
    let summary = Json::parse(&lines[2]).unwrap();
    let summary = summary.get("summary").unwrap();
    assert_eq!(summary.get("ok").unwrap().as_u64(), Some(1));
    assert_eq!(summary.get("errors").unwrap().as_u64(), Some(1));

    // The pool survived: counters say one panic, and fresh work still runs.
    let stats = stats_of(addr);
    assert_eq!(stat(&stats, "worker_panics"), 1, "{stats}");
    let mut client = Client::connect(addr).unwrap();
    let (status, _) = client
        .simulate(
            "{\"model\":\"ViT-Small\",\"accelerator\":\"stripes\",\
             \"seed\":8,\"max_weights_per_layer\":128}",
        )
        .unwrap();
    assert_eq!(status, 200);
    server.stop();
}

#[test]
fn sweep_resume_recovers_a_crashed_cell() {
    // A hard panic kills the worker thread mid-cell exactly once; the
    // stream carries an error record for that cell, and the resume pass
    // re-requests it against the replenished pool.
    let key = request_key("stripes", 7, 128);
    let config = ServiceConfig {
        workers: 2,
        queue_depth: 16,
        faults: Arc::new(FaultPlan::parse(&format!("panic_hard_key={key:x}")).unwrap()),
        ..ServiceConfig::default()
    };
    let server = server_with(config);
    let addr = server.addr();

    let body = "{\"models\":[\"ViT-Small\"],\"accelerators\":[\"stripes\",\"bitlet\"],\
                \"seeds\":[7],\"max_weights_per_layer\":[128]}";
    let retry = RetryPolicy {
        attempts: 3,
        base: Duration::from_millis(5),
        max: Duration::from_millis(50),
        ..RetryPolicy::default()
    };
    let outcome = sweep_with_resume(addr, body, &retry).unwrap();
    assert_eq!(outcome.records.len(), 2);
    for record in &outcome.records {
        let v = Json::parse(record).unwrap();
        assert!(
            v.get("error").is_none(),
            "resume must recover every cell: {record}"
        );
        assert!(v.get("result").is_some(), "{record}");
    }
    assert!(outcome.resumed >= 1, "at least the crashed cell resumed");
    // Records come back reassembled in cell order.
    let cells: Vec<u64> = outcome
        .records
        .iter()
        .map(|r| {
            Json::parse(r)
                .unwrap()
                .get("cell")
                .unwrap()
                .as_u64()
                .unwrap()
        })
        .collect();
    assert_eq!(cells, [0, 1]);

    let stats = stats_of(addr);
    assert_eq!(stat(&stats, "worker_panics"), 1, "{stats}");
    assert_eq!(stat(&stats, "workers"), 2, "pool replenished: {stats}");
    server.stop();
}

#[test]
fn readyz_reports_saturation_and_healthz_stays_up() {
    // One slow worker, queue depth 1, fail-fast parking: the third
    // concurrent request gets a 503 and latches `saturated`.
    let server = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        service: ServiceConfig {
            workers: 1,
            queue_depth: 1,
            faults: Arc::new(FaultPlan::parse("sim_delay_ms=400").unwrap()),
            ..ServiceConfig::default()
        },
        park_timeout: Duration::ZERO,
        log_quiet: true,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.addr();

    let mut client = Client::connect(addr).unwrap();
    let (status, body) = client.get("/readyz").unwrap();
    assert_eq!((status, body.contains("ready")), (200, true), "{body}");

    let handles: Vec<_> = (0..4u64)
        .map(|seed| {
            std::thread::spawn(move || {
                let body = format!(
                    "{{\"model\":\"ViT-Small\",\"accelerator\":\"stripes\",\
                     \"seed\":{seed},\"max_weights_per_layer\":64}}"
                );
                let mut client = Client::connect(addr).unwrap();
                let (status, _) = client.simulate(&body).unwrap();
                // Stagger submissions so the worker is mid-delay when the
                // later requests arrive and the queue genuinely fills.
                status
            })
        })
        .inspect(|_| std::thread::sleep(Duration::from_millis(60)))
        .collect();
    let statuses: Vec<u16> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(
        statuses.contains(&503),
        "expected at least one fail-fast 503: {statuses:?}"
    );
    assert!(statuses.contains(&200), "{statuses:?}");

    // `saturated` latches until a submit gets through — no new submits
    // have happened, so readiness is still down while liveness is up.
    let (status, body) = client.get("/readyz").unwrap();
    assert_eq!((status, body.contains("saturated")), (503, true), "{body}");
    assert_eq!(
        client.response_header("retry-after"),
        Some("1"),
        "readiness 503 carries Retry-After"
    );
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200, "alive while saturated");

    // A successful submit (cache hit of a finished seed) clears the latch.
    let (status, _) = client
        .simulate(
            "{\"model\":\"ViT-Small\",\"accelerator\":\"stripes\",\
             \"seed\":0,\"max_weights_per_layer\":64}",
        )
        .unwrap();
    assert_eq!(status, 200);
    let (status, body) = client.get("/readyz").unwrap();
    assert_eq!((status, body.contains("ready")), (200, true), "{body}");
    server.stop();
}

#[test]
fn reset_connection_gets_a_transport_error() {
    // `conn_reset=1` drops every accepted connection, `/stats` included,
    // so the injection count is read from this test's handle on the plan.
    let faults = Arc::new(FaultPlan::parse("conn_reset=1").unwrap());
    let server = server_with(ServiceConfig {
        workers: 1,
        faults: Arc::clone(&faults),
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();
    let reply = client.simulate(BODY);
    assert!(reply.is_err(), "a reset connection answered: {reply:?}");
    server.stop();
    let resets = faults
        .injected_counts()
        .into_iter()
        .find(|&(site, _)| site == "conn_reset")
        .map(|(_, count)| count);
    assert_eq!(resets, Some(1), "{:?}", faults.injected_counts());
}
