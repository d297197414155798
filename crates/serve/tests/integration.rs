//! End-to-end integration tests: real TCP server on an ephemeral port,
//! concurrent clients, dedup/caching asserted through the `/stats`
//! endpoint, and response payloads checked bit-identical against calling
//! the simulation engine directly. The `/sweep` route is exercised the
//! same way: streamed grids checked cell-for-cell against
//! `simulate_with`, including under concurrent duplicate sweeps.
//!
//! This is the CI integration step — it runs inside `cargo test`, no
//! external tooling.

use bbs_json::Json;
use bbs_serve::client::Client;
use bbs_serve::registry::accelerator_by_name;
use bbs_serve::server::{start, ServeConfig};
use bbs_serve::service::ServiceConfig;
use bbs_sim::json::{sim_result_from_json, sim_result_to_json};
use bbs_sim::store::WorkloadStore;
use bbs_sim::ArrayConfig;
use std::sync::{Arc, Barrier};
use std::time::Instant;

fn test_server() -> bbs_serve::server::ServerHandle {
    start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        service: ServiceConfig {
            workers: 2,
            queue_depth: 16,
            max_cap: 65536,
            ..ServiceConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

fn stat(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or_else(|| {
        panic!("stats missing {key}: {stats}");
    })
}

/// The acceptance scenario: concurrent clients submit the same request;
/// the server simulates exactly once, everyone gets JSON that decodes to
/// a `SimResult` bit-identical to calling the engine directly.
#[test]
fn concurrent_duplicates_simulate_once_and_match_engine() {
    const CLIENTS: usize = 4;
    const BODY: &str = "{\"model\":\"ViT-Small\",\"accelerator\":\"bitvert-moderate\",\
                        \"seed\":7,\"max_weights_per_layer\":512}";

    let server = test_server();
    let addr = server.addr();

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                client.simulate(BODY).unwrap()
            })
        })
        .collect();
    let responses: Vec<(u16, String)> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    for (status, _) in &responses {
        assert_eq!(*status, 200);
    }
    // Every client got the same result payload.
    let parsed: Vec<Json> = responses
        .iter()
        .map(|(_, body)| Json::parse(body).unwrap())
        .collect();
    let first_result = parsed[0].get("result").expect("result field");
    for p in &parsed[1..] {
        assert_eq!(p.get("result").unwrap(), first_result);
    }

    // Dedup verified via the stats endpoint: N requests, one engine run.
    let mut client = Client::connect(addr).unwrap();
    let (status, stats_body) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    let stats = Json::parse(&stats_body).unwrap();
    assert_eq!(stat(&stats, "requests"), CLIENTS as u64);
    assert_eq!(stat(&stats, "sim_runs"), 1, "deduplicated: {stats}");
    assert_eq!(stat(&stats, "errors"), 0);
    assert_eq!(stat(&stats, "cached_results"), 1);
    // The one engine run lowered the model once into the workload store.
    assert_eq!(stat(&stats, "workload_misses"), 1);
    assert_eq!(stat(&stats, "workload_entries"), 1);
    assert!(stat(&stats, "workload_bytes") > 0, "{stats}");

    // A follow-up request is a pure cache hit (still one engine run) and
    // byte-identical to the first response's result.
    let (status, body) = client.simulate(BODY).unwrap();
    assert_eq!(status, 200);
    let warm = Json::parse(&body).unwrap();
    assert_eq!(warm.get("result").unwrap(), first_result);
    assert_eq!(
        warm.get("meta").unwrap().get("cached").unwrap(),
        &Json::Bool(true)
    );
    let (_, stats_body) = client.get("/stats").unwrap();
    let stats = Json::parse(&stats_body).unwrap();
    assert_eq!(stat(&stats, "sim_runs"), 1);
    assert!(stat(&stats, "cache_hits") >= 1);

    // Bit-identical to the engine: decode the wire payload and compare
    // against a direct simulation, both structurally and re-serialized.
    let direct = bbs_sim::engine::simulate(
        &*accelerator_by_name("bitvert-moderate").unwrap(),
        &bbs_models::zoo::vit_small(),
        &ArrayConfig::paper_16x32(),
        7,
        512,
    );
    let decoded = sim_result_from_json(first_result).unwrap();
    assert_eq!(decoded, direct, "wire result == direct engine result");
    assert_eq!(
        sim_result_to_json(&decoded).to_string(),
        sim_result_to_json(&direct).to_string()
    );

    server.stop();
}

#[test]
fn distinct_requests_simulate_separately() {
    let server = test_server();
    let mut client = Client::connect(server.addr()).unwrap();
    for (model, accel) in [("ResNet-34", "stripes"), ("ResNet-34", "bitlet")] {
        let body = format!(
            "{{\"model\":\"{model}\",\"accelerator\":\"{accel}\",\"max_weights_per_layer\":256}}"
        );
        let (status, response) = client.simulate(&body).unwrap();
        assert_eq!(status, 200, "{response}");
    }
    let (_, stats_body) = client.get("/stats").unwrap();
    let stats = Json::parse(&stats_body).unwrap();
    assert_eq!(stat(&stats, "sim_runs"), 2);
    assert_eq!(stat(&stats, "cached_results"), 2);
    // Two engine runs, but both requests share one (model, seed, cap):
    // the second simulation reused the first one's lowering.
    assert_eq!(stat(&stats, "workload_misses"), 1, "{stats}");
    assert_eq!(stat(&stats, "workload_hits"), 1, "{stats}");
    assert_eq!(stat(&stats, "workload_entries"), 1);
    server.stop();
}

#[test]
fn discovery_and_health_routes() {
    let server = test_server();
    let mut client = Client::connect(server.addr()).unwrap();

    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}"));

    let (status, body) = client.get("/models").unwrap();
    assert_eq!(status, 200);
    let models = Json::parse(&body).unwrap();
    let names = models.get("models").unwrap().as_arr().unwrap();
    assert_eq!(names.len(), 8);
    assert!(names.iter().any(|n| n.as_str() == Some("Llama-3-8B")));

    let (status, body) = client.get("/accelerators").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("bitvert-moderate"));

    server.stop();
}

#[test]
fn bad_requests_get_400s_and_unknown_routes_404() {
    let server = test_server();
    let mut client = Client::connect(server.addr()).unwrap();

    let cases = [
        ("not json at all", "parse error"),
        ("{\"accelerator\":\"ant\"}", "model"),
        (
            "{\"model\":\"NoSuch\",\"accelerator\":\"ant\"}",
            "unknown model",
        ),
        (
            "{\"model\":\"VGG-16\",\"accelerator\":\"tpu\"}",
            "unknown accelerator",
        ),
    ];
    for (body, needle) in cases {
        let (status, response) = client.simulate(body).unwrap();
        assert_eq!(status, 400, "{body} -> {response}");
        assert!(response.contains(needle), "{body} -> {response}");
    }

    let (status, _) = client.get("/nope").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.request("PUT", "/simulate", "").unwrap();
    assert_eq!(status, 405);

    // The connection is still usable after errors (keep-alive survives).
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);

    server.stop();
}

/// The 3×3 sweep grid the batch tests share.
const SWEEP_MODELS: [&str; 3] = ["ViT-Small", "ResNet-34", "Bert-SST2"];
const SWEEP_ACCELS: [&str; 3] = ["stripes", "bitwave", "bitlet"];
const SWEEP_CAP: usize = 256;

fn sweep_body() -> String {
    let quote = |names: &[&str]| {
        names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{{\"models\":[{}],\"accelerators\":[{}],\"seeds\":[7],\
         \"max_weights_per_layer\":[{SWEEP_CAP}]}}",
        quote(&SWEEP_MODELS),
        quote(&SWEEP_ACCELS)
    )
}

/// Runs one sweep and returns `(cell records by index, summary)`.
fn run_sweep(addr: std::net::SocketAddr, body: &str) -> (Vec<Json>, Json) {
    let client = Client::connect(addr).unwrap();
    let (status, lines) = client.sweep(body).unwrap();
    let lines = lines.collect_lines().unwrap();
    assert_eq!(status, 200, "{lines:?}");
    let mut cells: Vec<(usize, Json)> = Vec::new();
    let mut summary = None;
    for line in &lines {
        let v = Json::parse(line).unwrap();
        if let Some(s) = v.get("summary") {
            assert!(summary.is_none(), "one summary record: {lines:?}");
            summary = Some(s.clone());
        } else {
            assert!(summary.is_none(), "summary must be the last record");
            let idx = v.get("cell").and_then(Json::as_usize).unwrap();
            cells.push((idx, v));
        }
    }
    cells.sort_by_key(|(idx, _)| *idx);
    let indices: Vec<usize> = cells.iter().map(|(idx, _)| *idx).collect();
    assert_eq!(indices, (0..cells.len()).collect::<Vec<_>>(), "{lines:?}");
    (
        cells.into_iter().map(|(_, v)| v).collect(),
        summary.expect("trailing summary record"),
    )
}

/// The tentpole acceptance scenario: a 3×3 sweep equals direct
/// `simulate_with` results cell-for-cell, sweep cells move the shared
/// cache counters, and a warm re-sweep is all cache hits in under a
/// second.
#[test]
fn sweep_matches_direct_simulation_cell_for_cell() {
    let server = test_server();
    let (cells, summary) = run_sweep(server.addr(), &sweep_body());
    assert_eq!(cells.len(), 9);
    assert_eq!(summary.get("cells").unwrap().as_usize(), Some(9));
    assert_eq!(summary.get("errors").unwrap().as_usize(), Some(0));
    assert_eq!(summary.get("simulated").unwrap().as_usize(), Some(9));

    // Expansion order is model-major; every cell decodes to the exact
    // result of calling the engine directly (shared lowering store, the
    // production sweep path).
    let store = WorkloadStore::default();
    let cfg = ArrayConfig::paper_16x32();
    for (i, cell) in cells.iter().enumerate() {
        let (m, a) = (i / SWEEP_ACCELS.len(), i % SWEEP_ACCELS.len());
        assert_eq!(cell.get("model").unwrap().as_str(), Some(SWEEP_MODELS[m]));
        assert_eq!(
            cell.get("accelerator").unwrap().as_str(),
            Some(SWEEP_ACCELS[a])
        );
        let direct = bbs_sim::engine::simulate_with(
            &store,
            &*accelerator_by_name(SWEEP_ACCELS[a]).unwrap(),
            &bbs_models::zoo::by_name(SWEEP_MODELS[m]).unwrap(),
            &cfg,
            7,
            SWEEP_CAP,
        );
        let decoded = sim_result_from_json(cell.get("result").unwrap()).unwrap();
        assert_eq!(decoded, direct, "cell {i} differs from direct simulation");
    }

    // Sweep cells ride the shared result cache: 9 misses cold, and the
    // sweep itself is counted.
    let mut client = Client::connect(server.addr()).unwrap();
    let (_, stats_body) = client.get("/stats").unwrap();
    let stats = Json::parse(&stats_body).unwrap();
    assert_eq!(stat(&stats, "sweeps_total"), 1);
    assert_eq!(stat(&stats, "sweep_cells_total"), 9);
    assert_eq!(stat(&stats, "sim_runs"), 9);
    assert_eq!(stat(&stats, "cache_misses"), 9, "{stats}");
    assert_eq!(stat(&stats, "cached_results"), 9);
    // 3 models lowered once each, reused across the accelerator axis.
    assert_eq!(stat(&stats, "workload_misses"), 3, "{stats}");
    assert_eq!(stat(&stats, "workload_hits"), 6, "{stats}");

    // Warm re-sweep: all cache hits, no new engine runs, and fast — the
    // acceptance bound is < 1 s on 1 CPU for a warm 3×3.
    let warm_start = Instant::now();
    let (warm_cells, warm_summary) = run_sweep(server.addr(), &sweep_body());
    let warm_elapsed = warm_start.elapsed();
    assert_eq!(warm_summary.get("cache_hits").unwrap().as_usize(), Some(9));
    for (cold, warm) in cells.iter().zip(&warm_cells) {
        assert_eq!(
            cold.get("result").unwrap(),
            warm.get("result").unwrap(),
            "warm cell must be byte-identical"
        );
        assert_eq!(warm.get("served").unwrap().as_str(), Some("cache"));
    }
    assert!(
        warm_elapsed.as_secs_f64() < 1.0,
        "warm 3x3 sweep took {warm_elapsed:?}"
    );
    let (_, stats_body) = client.get("/stats").unwrap();
    let stats = Json::parse(&stats_body).unwrap();
    assert_eq!(stat(&stats, "sim_runs"), 9, "warm sweep re-simulated");
    assert_eq!(stat(&stats, "sweeps_total"), 2);
    assert!(stat(&stats, "cache_hits") >= 9, "{stats}");

    server.stop();
}

/// Concurrent duplicate sweeps: every cell still simulates exactly once
/// (coalescing/caching holds across overlapping grids), and both clients
/// stream identical result bytes.
#[test]
fn concurrent_duplicate_sweeps_coalesce() {
    const SWEEPERS: usize = 3;
    let server = test_server();
    let addr = server.addr();
    let barrier = Arc::new(Barrier::new(SWEEPERS));
    let handles: Vec<_> = (0..SWEEPERS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                run_sweep(addr, &sweep_body())
            })
        })
        .collect();
    let outcomes: Vec<(Vec<Json>, Json)> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    for (cells, summary) in &outcomes {
        assert_eq!(cells.len(), 9);
        assert_eq!(summary.get("errors").unwrap().as_usize(), Some(0));
        for (reference, cell) in outcomes[0].0.iter().zip(cells) {
            assert_eq!(
                reference.get("result").unwrap(),
                cell.get("result").unwrap(),
                "duplicate sweeps must stream identical results"
            );
        }
    }

    let mut client = Client::connect(addr).unwrap();
    let (_, stats_body) = client.get("/stats").unwrap();
    let stats = Json::parse(&stats_body).unwrap();
    assert_eq!(
        stat(&stats, "sim_runs"),
        9,
        "each distinct cell exactly once across {SWEEPERS} sweeps: {stats}"
    );
    assert_eq!(stat(&stats, "sweeps_total"), SWEEPERS as u64);
    assert_eq!(stat(&stats, "sweep_cells_total"), 9 * SWEEPERS as u64);
    server.stop();
}

/// Partial failure: an unknown model mid-grid yields error records for
/// exactly its cells while the rest of the grid still simulates, and
/// shape errors reject the whole sweep with a 400.
#[test]
fn sweep_error_records_and_shape_rejection() {
    let server = test_server();
    let body = "{\"models\":[\"ViT-Small\",\"NoSuchNet\",\"ResNet-34\"],\
                \"accelerators\":[\"stripes\",\"bitlet\"],\
                \"max_weights_per_layer\":[128]}";
    let (cells, summary) = run_sweep(server.addr(), body);
    assert_eq!(cells.len(), 6);
    assert_eq!(summary.get("ok").unwrap().as_usize(), Some(4));
    assert_eq!(summary.get("errors").unwrap().as_usize(), Some(2));
    for (i, cell) in cells.iter().enumerate() {
        let is_poisoned = i / 2 == 1; // model axis entry 1 is unknown
        assert_eq!(cell.get("error").is_some(), is_poisoned, "cell {i}");
        if is_poisoned {
            let msg = cell.get("error").unwrap().as_str().unwrap();
            assert!(msg.contains("unknown model"), "{msg}");
            assert_eq!(cell.get("model").unwrap().as_str(), Some("NoSuchNet"));
        } else {
            assert!(cell.get("result").is_some(), "cell {i}");
        }
    }

    // Shape errors are a 400 with a JSON error body, not a stream.
    let client = Client::connect(server.addr()).unwrap();
    let (status, lines) = client.sweep("{\"models\":[\"ViT-Small\"]}").unwrap();
    let lines = lines.collect_lines().unwrap();
    assert_eq!(status, 400);
    assert_eq!(lines.len(), 1);
    assert!(lines[0].contains("accelerators"), "{lines:?}");

    server.stop();
}

#[test]
fn custom_config_and_full_model_spec_roundtrip() {
    let server = test_server();
    let mut client = Client::connect(server.addr()).unwrap();

    // Narrow array (Fig. 14-style column sweep) via explicit config.
    let cfg = ArrayConfig::paper_16x32().with_pe_cols(8);
    let cfg_json = bbs_sim::json::array_config_to_json(&cfg);
    let mut model = bbs_models::zoo::bert_sst2();
    model.layers.truncate(6);
    let model_json = bbs_models::json::model_spec_to_json(&model);
    let body = format!(
        "{{\"model\":{model_json},\"accelerator\":\"bitwave\",\"seed\":9,\
         \"config\":{cfg_json},\"max_weights_per_layer\":256}}"
    );
    let (status, response) = client.simulate(&body).unwrap();
    assert_eq!(status, 200, "{response}");

    let direct = bbs_sim::engine::simulate(
        &*accelerator_by_name("bitwave").unwrap(),
        &model,
        &cfg,
        9,
        256,
    );
    let parsed = Json::parse(&response).unwrap();
    let decoded = sim_result_from_json(parsed.get("result").unwrap()).unwrap();
    assert_eq!(decoded, direct);
    assert_eq!(decoded.layers.len(), 6);

    server.stop();
}
