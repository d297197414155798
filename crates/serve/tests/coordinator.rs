//! Coordinator-mode integration tests: real downstream `bbs-serve`
//! instances on ephemeral ports, a coordinator front end configured with
//! `ServeConfig::shards`, and sweeps/requests driven through the public
//! client. Covers the acceptance criteria for the sharded front end:
//! byte-identical merged sweeps, cache-affinity routing, graceful
//! degradation when a shard dies mid-sweep, and the coordinator blocks in
//! `/stats`, `/metrics` and `/readyz`.

use bbs_json::Json;
use bbs_models::json::model_spec_to_json;
use bbs_models::zoo;
use bbs_serve::client::Client;
use bbs_serve::server::{start, ServeConfig, ServerHandle};
use bbs_serve::service::ServiceConfig;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn shard_server() -> ServerHandle {
    start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        service: ServiceConfig {
            workers: 2,
            queue_depth: 16,
            ..ServiceConfig::default()
        },
        log_quiet: true,
        ..ServeConfig::default()
    })
    .expect("bind shard")
}

fn coordinator_for(shards: &[&ServerHandle]) -> ServerHandle {
    start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        service: ServiceConfig {
            // The coordinator runs no simulations of its own; keep its
            // idle local pool minimal.
            workers: 1,
            ..ServiceConfig::default()
        },
        shards: shards.iter().map(|s| s.addr()).collect(),
        log_quiet: true,
        ..ServeConfig::default()
    })
    .expect("bind coordinator")
}

fn stat(stats: &Json, key: &str) -> u64 {
    stats
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats missing {key}: {stats}"))
}

fn stats_of(addr: SocketAddr) -> Json {
    let mut client = Client::connect(addr).unwrap();
    let (status, body) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    Json::parse(&body).unwrap()
}

fn sweep_body(models: &[&str], accels: &[&str], seeds: &[u64], cap: usize) -> String {
    let quote = |names: &[&str]| {
        names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(",")
    };
    let seeds = seeds
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"models\":[{}],\"accelerators\":[{}],\"seeds\":[{seeds}],\
         \"max_weights_per_layer\":[{cap}]}}",
        quote(models),
        quote(accels),
    )
}

/// Runs a sweep and returns `(raw record lines sorted by cell index,
/// parsed summary)`; asserts exactly one trailing summary and a complete,
/// duplicate-free cell set.
fn run_sweep(addr: SocketAddr, body: &str) -> (Vec<String>, Json) {
    let client = Client::connect(addr).unwrap();
    let (status, lines) = client.sweep(body).unwrap();
    let lines = lines.collect_lines().unwrap();
    assert_eq!(status, 200, "{lines:?}");
    let mut cells: Vec<(usize, String)> = Vec::new();
    let mut summary = None;
    for line in lines {
        let v = Json::parse(&line).unwrap();
        if let Some(s) = v.get("summary") {
            assert!(summary.is_none(), "more than one summary record");
            summary = Some(s.clone());
        } else {
            assert!(summary.is_none(), "summary must be the last record");
            cells.push((v.get("cell").and_then(Json::as_usize).unwrap(), line));
        }
    }
    cells.sort_by_key(|(idx, _)| *idx);
    let indices: Vec<usize> = cells.iter().map(|(idx, _)| *idx).collect();
    assert_eq!(
        indices,
        (0..cells.len()).collect::<Vec<_>>(),
        "every cell exactly once"
    );
    (
        cells.into_iter().map(|(_, line)| line).collect(),
        summary.expect("trailing summary record"),
    )
}

/// Summary comparison modulo `wall_ms` (the only nondeterministic field).
fn assert_summaries_match(a: &Json, b: &Json) {
    for key in [
        "cells",
        "ok",
        "errors",
        "cache_hits",
        "coalesced",
        "simulated",
    ] {
        assert_eq!(
            stat(a, key),
            stat(b, key),
            "summary field {key}: {a} vs {b}"
        );
    }
}

/// The tentpole acceptance criterion: a 4-shard coordinator sweep yields
/// byte-identical records to a single-server sweep once sorted by cell
/// index, with a matching summary.
#[test]
fn four_shard_sweep_is_byte_identical_to_single_server() {
    let shards: Vec<ServerHandle> = (0..4).map(|_| shard_server()).collect();
    let coordinator = coordinator_for(&shards.iter().collect::<Vec<_>>());
    let single = shard_server();

    let body = sweep_body(
        &["ViT-Small", "ResNet-34", "Bert-SST2"],
        &["stripes", "bitwave", "bitlet"],
        &[7],
        256,
    );
    let (sharded, sharded_summary) = run_sweep(coordinator.addr(), &body);
    let (reference, reference_summary) = run_sweep(single.addr(), &body);

    assert_eq!(sharded.len(), 9);
    assert_eq!(
        sharded, reference,
        "sorted merged records must be byte-identical to a single server"
    );
    assert_summaries_match(&sharded_summary, &reference_summary);

    // The work was actually distributed: the shards collectively ran all
    // nine simulations, the coordinator's local pool ran none.
    let shard_runs: u64 = shards
        .iter()
        .map(|s| stat(&stats_of(s.addr()), "sim_runs"))
        .sum();
    assert_eq!(shard_runs, 9);
    assert_eq!(stat(&stats_of(coordinator.addr()), "sim_runs"), 0);

    // Warm re-sweep through the coordinator: every key lands back on the
    // shard that owns it, so the whole grid is served from shard caches.
    let (_, warm) = run_sweep(coordinator.addr(), &body);
    assert_eq!(stat(&warm, "cache_hits"), 9, "{warm}");
    assert_eq!(stat(&warm, "errors"), 0);

    coordinator.stop();
    single.stop();
    for shard in shards {
        shard.stop();
    }
}

/// A zoo model travels to its shard by name, but a changed spec — a zoo
/// name over a different layer table — must cross the coordinator in
/// full: its `/simulate` and `/sweep` answers equal a single server's,
/// result bytes and keys alike.
#[test]
fn changed_model_specs_cross_the_coordinator_in_full() {
    let shards: Vec<ServerHandle> = (0..2).map(|_| shard_server()).collect();
    let coordinator = coordinator_for(&shards.iter().collect::<Vec<_>>());
    let single = shard_server();

    let mut model = zoo::vit_small();
    model.layers[2].channels /= 2;
    let spec = model_spec_to_json(&model).to_string();
    let body = format!(
        "{{\"model\":{spec},\"accelerator\":\"bitwave\",\"seed\":7,\
         \"max_weights_per_layer\":64}}"
    );
    let simulate = |addr: SocketAddr| {
        let (status, resp) = Client::connect(addr).unwrap().simulate(&body).unwrap();
        assert_eq!(status, 200, "{resp}");
        resp
    };
    let sharded = simulate(coordinator.addr());
    assert_eq!(sharded, simulate(single.addr()), "same bytes, same key");

    // The same grid cell by zoo name is another key; the changed spec's
    // cell is the one `/simulate` just ran, so it is a cache hit on both.
    let grid = format!(
        "{{\"models\":[{spec},\"ViT-Small\"],\"accelerators\":[\"bitwave\",\"stripes\"],\
         \"seeds\":[7],\"max_weights_per_layer\":[64]}}"
    );
    let (records, summary) = run_sweep(coordinator.addr(), &grid);
    let (reference, reference_summary) = run_sweep(single.addr(), &grid);
    assert_eq!(records, reference);
    assert_summaries_match(&summary, &reference_summary);
    let key_of = |line: &str| Json::parse(line).unwrap().get("key").cloned().unwrap();
    assert_ne!(key_of(&records[0]), key_of(&records[2]));
    assert!(
        records[0].contains("\"served\":\"cache\""),
        "{}",
        records[0]
    );
    assert_eq!(stat(&stats_of(coordinator.addr()), "sim_runs"), 0);

    coordinator.stop();
    single.stop();
    for shard in shards {
        shard.stop();
    }
}

/// One custom layer of 2^32 channels: ~200 bytes that lowering would turn
/// into 2^37 weights. A single server and a 2-shard coordinator both
/// answer 400 at decode, and no shard ever sees the body; a `/sweep`
/// carrying it gets an error record for that cell and still runs the
/// other.
#[test]
fn oversized_custom_spec_is_refused_directly_and_through_a_coordinator() {
    let shards: Vec<ServerHandle> = (0..2).map(|_| shard_server()).collect();
    let coordinator = coordinator_for(&shards.iter().collect::<Vec<_>>());
    let single = shard_server();

    let wide = "{\"name\":\"VGG-16\",\"family\":\"cnn\",\"layers\":[{\"name\":\"wide\",\
                \"channels\":4294967296,\"elems_per_channel\":32,\"positions\":1,\
                \"unique_input_elems\":1}]}";
    let body = format!("{{\"model\":{wide},\"accelerator\":\"stripes\"}}");
    assert!(body.len() < 200, "{}", body.len());
    for addr in [single.addr(), coordinator.addr()] {
        let (status, resp) = Client::connect(addr).unwrap().simulate(&body).unwrap();
        assert_eq!(status, 400, "{resp}");
        assert!(resp.contains("materialize 137438953472 weights"), "{resp}");
    }
    for shard in &shards {
        assert_eq!(stat(&stats_of(shard.addr()), "requests"), 0);
    }

    let grid = format!(
        "{{\"models\":[{wide},\"ViT-Small\"],\"accelerators\":[\"stripes\"],\
         \"max_weights_per_layer\":[64]}}"
    );
    let (records, summary) = run_sweep(coordinator.addr(), &grid);
    assert!(records[0].contains("materialize"), "{}", records[0]);
    assert!(records[1].contains("\"result\""), "{}", records[1]);
    assert_eq!(summary.get("errors").and_then(Json::as_u64), Some(1));
    assert_eq!(run_sweep(single.addr(), &grid).0, records);

    coordinator.stop();
    single.stop();
    for shard in shards {
        shard.stop();
    }
}

/// `/simulate` routing has cache affinity: repeats of the same request hit
/// the shard that owns its key, and the coordinator's stats block accounts
/// for every routed job.
#[test]
fn simulate_requests_route_with_affinity() {
    let shards: Vec<ServerHandle> = (0..3).map(|_| shard_server()).collect();
    let coordinator = coordinator_for(&shards.iter().collect::<Vec<_>>());

    let bodies: Vec<String> = (0..6)
        .map(|i| {
            format!(
                "{{\"model\":\"ViT-Small\",\"accelerator\":\"stripes\",\
                 \"seed\":{},\"max_weights_per_layer\":64}}",
                7 + i
            )
        })
        .collect();
    for pass in 0..2 {
        for body in &bodies {
            let mut client = Client::connect(coordinator.addr()).unwrap();
            let (status, resp) = client.simulate(body).unwrap();
            assert_eq!(status, 200, "{resp}");
            let served = Json::parse(&resp)
                .unwrap()
                .get("meta")
                .and_then(|m| m.get("served"))
                .and_then(|s| s.as_str().map(String::from))
                .unwrap();
            if pass == 0 {
                assert_eq!(served, "simulated", "{resp}");
            } else {
                // The repeat rendezvous-hashes to the same shard, whose
                // cache already holds the key.
                assert_eq!(served, "cache", "{resp}");
            }
        }
    }

    let shard_runs: u64 = shards
        .iter()
        .map(|s| stat(&stats_of(s.addr()), "sim_runs"))
        .sum();
    assert_eq!(shard_runs, bodies.len() as u64, "each request ran once");

    let stats = stats_of(coordinator.addr());
    let coord = stats.get("coordinator").expect("coordinator stats block");
    let shard_stats = coord.get("shards").and_then(Json::as_arr).unwrap();
    assert_eq!(shard_stats.len(), shards.len());
    let routed: u64 = shard_stats.iter().map(|s| stat(s, "routed")).sum();
    assert_eq!(routed, 2 * bodies.len() as u64);
    let errors: u64 = shard_stats.iter().map(|s| stat(s, "errors")).sum();
    assert_eq!(errors, 0);

    coordinator.stop();
    for shard in shards {
        shard.stop();
    }
}

/// The failover criterion: a shard dies mid-sweep and the merged stream
/// still completes with every cell present — the dead shard's unfinished
/// cells reroute to their second-choice shards instead of stalling or
/// erroring — and a follow-up warm sweep is all cache hits on the
/// survivors.
#[test]
fn shard_death_mid_sweep_reroutes_without_stalling() {
    let mut shards: Vec<ServerHandle> = (0..3).map(|_| shard_server()).collect();
    let coordinator = coordinator_for(&shards.iter().collect::<Vec<_>>());
    let body = sweep_body(
        &["ViT-Small", "ResNet-34", "Bert-SST2", "VGG-16"],
        &["stripes", "bitwave", "bitlet"],
        &[7, 11],
        128,
    );
    const CELLS: u64 = 4 * 3 * 2;

    // Stream the sweep and kill a shard as soon as the first record
    // proves the grid is in flight.
    let client = Client::connect(coordinator.addr()).unwrap();
    let (status, lines) = client.sweep(&body).unwrap();
    assert_eq!(status, 200);
    let mut records = Vec::new();
    let mut victim = Some(shards[0].addr());
    let mut iter = lines;
    for line in &mut iter {
        let line = line.unwrap();
        if records.is_empty() {
            // First record arrived mid-sweep: take shard 0 down hard
            // enough that new connections are refused.
            let dead = shards.remove(0);
            dead.stop();
        }
        records.push(line);
    }
    let summary = Json::parse(records.last().expect("summary"))
        .unwrap()
        .get("summary")
        .cloned()
        .expect("trailing summary");
    assert_eq!(
        records.len() as u64 - 1,
        CELLS,
        "stream must complete every cell"
    );
    assert_eq!(stat(&summary, "cells"), CELLS);
    assert_eq!(
        stat(&summary, "ok"),
        CELLS,
        "dead shard's cells must reroute, not error: {summary}"
    );

    // One more sweep so any rerouted cells are warm everywhere, then the
    // acceptance check proper: a warm re-sweep on the survivors is all
    // cache hits.
    let (_, warm) = run_sweep(coordinator.addr(), &body);
    assert_eq!(stat(&warm, "errors"), 0, "{warm}");
    let (_, warm) = run_sweep(coordinator.addr(), &body);
    assert_eq!(stat(&warm, "cache_hits"), CELLS, "{warm}");

    // The stats block recorded the failover.
    let stats = stats_of(coordinator.addr());
    let coord = stats.get("coordinator").expect("coordinator stats block");
    let entry = coord
        .get("shards")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .find(|s| {
            s.get("addr").and_then(Json::as_str)
                == Some(victim.take().unwrap().to_string()).as_deref()
        })
        .cloned();
    assert!(entry.is_some(), "dead shard still listed: {coord}");

    coordinator.stop();
    for shard in shards {
        shard.stop();
    }
}

/// `/readyz`, `/stats` and `/metrics` surface coordinator health: a lone
/// dead shard flips readiness to 503 `unreachable`, and the metric
/// families for routing appear in the exposition.
#[test]
fn readyz_and_metrics_reflect_shard_health() {
    let shard = shard_server();
    let coordinator = coordinator_for(&[&shard]);

    let mut client = Client::connect(coordinator.addr()).unwrap();
    let (status, _) = client.get("/readyz").unwrap();
    assert_eq!(status, 200);

    let (status, metrics) = client.get("/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(metrics.contains("bbs_coord_shards 1"), "{metrics}");
    assert!(
        metrics.contains("bbs_coord_cells_routed_total{shard=\""),
        "{metrics}"
    );
    assert!(
        metrics.contains("bbs_coord_shard_serviceable{shard=\""),
        "{metrics}"
    );

    shard.stop();
    // The prober needs a beat to notice; poll until readiness flips.
    let deadline = Instant::now() + Duration::from_secs(5);
    let body = loop {
        let mut client = Client::connect(coordinator.addr()).unwrap();
        let (status, body) = client.get("/readyz").unwrap();
        if status == 503 {
            break body;
        }
        assert!(
            Instant::now() < deadline,
            "coordinator never noticed its only shard died"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(body.contains("unreachable"), "{body}");

    // A stopping shard first answers `/readyz` 503 (draining), and the
    // coordinator still tries a shard it has not seen refuse a connection
    // (its readiness may be stale). Wait until the prober marks it down.
    let shard_down = || {
        let stats = stats_of(coordinator.addr());
        stats
            .get("coordinator")
            .and_then(|c| c.get("shards"))
            .and_then(Json::as_arr)
            .and_then(|s| s.first()?.get("down")?.as_bool())
            == Some(true)
    };
    while !shard_down() {
        assert!(
            Instant::now() < deadline,
            "prober never marked the stopped shard down"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // With no live shard, a simulate answers a clean 500 — no hang.
    let mut client = Client::connect(coordinator.addr()).unwrap();
    let (status, resp) = client
        .simulate(
            "{\"model\":\"ViT-Small\",\"accelerator\":\"stripes\",\
             \"seed\":7,\"max_weights_per_layer\":64}",
        )
        .unwrap();
    assert_eq!(status, 500, "{resp}");
    assert!(resp.contains("no shard available"), "{resp}");

    coordinator.stop();
}
