//! Property tests for the content-addressed cache (vendored proptest):
//!
//! * the cache key is a pure function of request *content* — stable across
//!   independently reconstructed requests and wire round trips;
//! * a cache hit returns bytes that decode to a `SimResult` bit-identical
//!   to a fresh run of the engine, for random zoo models / accelerators /
//!   configs / seeds / caps;
//! * sweep grids expand to cells whose job keys are stable across wire
//!   field order / whitespace and collision-free across distinct cells,
//!   with an unknown model mid-grid poisoning exactly its own cells;
//! * the resumable HTTP parser is invariant under arbitrary chunk splits
//!   of a pipelined request stream.

use bbs_json::Json;
use bbs_serve::http::RequestParser;
use bbs_serve::registry::{accelerator_by_name, ACCELERATOR_IDS};
use bbs_serve::request::SimRequest;
use bbs_serve::service::{start, Completion, Served, ServiceConfig, SimService, Submitted};
use bbs_serve::sweep::SweepPlan;
use bbs_sim::json::{array_config_to_json, sim_result_from_json, sim_result_to_json};
use bbs_sim::ArrayConfig;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{mpsc, Arc};

/// Light zoo models (the heavyweights would make 64 cases crawl).
const MODELS: [&str; 4] = ["ViT-Small", "ResNet-34", "Bert-SST2", "ResNet-50"];
const PE_COLS: [usize; 4] = [8, 16, 32, 64];

fn build_request(
    model_idx: usize,
    accel_idx: usize,
    cols_idx: usize,
    seed: u64,
    cap: usize,
) -> (String, SimRequest) {
    let cfg = ArrayConfig::paper_16x32().with_pe_cols(PE_COLS[cols_idx % PE_COLS.len()]);
    let body = format!(
        "{{\"model\":\"{}\",\"accelerator\":\"{}\",\"seed\":{},\
         \"max_weights_per_layer\":{},\"config\":{}}}",
        MODELS[model_idx % MODELS.len()],
        ACCELERATOR_IDS[accel_idx % ACCELERATOR_IDS.len()],
        seed,
        cap,
        array_config_to_json(&cfg)
    );
    let request = SimRequest::from_json(&Json::parse(&body).unwrap(), 65536).unwrap();
    (body, request)
}

proptest! {
    /// Decoding the same body twice — and re-decoding the request's own
    /// re-encoding — always lands on the same content address, and
    /// perturbing the seed never does.
    #[test]
    fn cache_key_is_stable_across_reconstruction(
        model_idx in 0usize..4,
        accel_idx in 0usize..8,
        cols_idx in 0usize..4,
        seed in 0u64..1_000_000,
        cap in 64usize..=2048,
    ) {
        let (body, request) = build_request(model_idx, accel_idx, cols_idx, seed, cap);
        let again = SimRequest::from_json(&Json::parse(&body).unwrap(), 65536).unwrap();
        prop_assert_eq!(request.key(), again.key());

        let wire = SimRequest::from_json(&request.to_json(), 65536).unwrap();
        prop_assert_eq!(request.key(), wire.key());

        let (_, perturbed) = build_request(model_idx, accel_idx, cols_idx, seed + 1, cap);
        prop_assert_ne!(request.key(), perturbed.key());
    }
}

/// Renders a sweep grid body with its top-level fields rotated by
/// `rotate` and `pad` injected around the JSON punctuation — the
/// content-equivalent spellings a client might produce.
fn sweep_grid_body(
    models: &[&str],
    accels: &[&str],
    cols: &[usize],
    seeds: &[u64],
    caps: &[usize],
    rotate: usize,
    pad: &str,
) -> String {
    let strings = |names: &[&str]| {
        names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(&format!(",{pad}"))
    };
    let nums = |vals: &[String]| vals.join(&format!(",{pad}"));
    let configs: Vec<String> = cols
        .iter()
        .map(|&c| array_config_to_json(&ArrayConfig::paper_16x32().with_pe_cols(c)).to_string())
        .collect();
    let mut fields = [
        ("models", format!("[{}]", strings(models))),
        ("accelerators", format!("[{}]", strings(accels))),
        ("configs", format!("[{}]", configs.join(","))),
        (
            "seeds",
            format!(
                "[{}]",
                nums(&seeds.iter().map(u64::to_string).collect::<Vec<_>>())
            ),
        ),
        (
            "max_weights_per_layer",
            format!(
                "[{}]",
                nums(&caps.iter().map(usize::to_string).collect::<Vec<_>>())
            ),
        ),
    ];
    let n_fields = fields.len();
    fields.rotate_left(rotate % n_fields);
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{pad}\"{k}\"{pad}:{pad}{v}"))
        .collect();
    format!("{{{}{pad}}}", body.join(","))
}

/// Every valid cell's job key, in expansion order.
fn plan_keys(plan: &SweepPlan) -> Vec<u64> {
    (0..plan.cell_count())
        .map(|i| plan.cell(i).request.expect("valid grid").key())
        .collect()
}

proptest! {
    /// Sweep-cell job keys are a pure function of grid *content*: spelling
    /// the same grid with rotated field order and extra whitespace decodes
    /// to identical keys, and every distinct cell gets a distinct key.
    #[test]
    fn sweep_cell_keys_stable_and_collision_free(
        n_models in 1usize..=3,
        n_accels in 1usize..=4,
        n_cols in 1usize..=3,
        seed_base in 0u64..1000,
        cap_base in 64usize..=512,
        // One knob for both respellings: rotation of the top-level field
        // order and the amount of whitespace injected.
        spelling in 0usize..20,
    ) {
        let models = &MODELS[..n_models];
        let accels = &ACCELERATOR_IDS[..n_accels];
        let cols = &PE_COLS[..n_cols];
        let seeds: Vec<u64> = [seed_base, seed_base + 1].to_vec();
        let caps = [cap_base, 2 * cap_base];
        let (rotate, pad_len) = (spelling % 5, spelling / 5);
        let pad = " ".repeat(pad_len);

        let canonical = sweep_grid_body(models, accels, cols, &seeds, &caps, 0, "");
        let respelled = sweep_grid_body(models, accels, cols, &seeds, &caps, rotate, &pad);
        let plan_a = SweepPlan::from_json(&Json::parse(&canonical).unwrap(), 65536).unwrap();
        let plan_b = SweepPlan::from_json(&Json::parse(&respelled).unwrap(), 65536).unwrap();

        let keys_a = plan_keys(&plan_a);
        let keys_b = plan_keys(&plan_b);
        prop_assert_eq!(&keys_a, &keys_b, "field order / whitespace changed keys");

        // Distinct axis values make every cell's content distinct, so all
        // job keys must differ (a collision would alias cache entries).
        let unique: HashSet<u64> = keys_a.iter().copied().collect();
        prop_assert_eq!(unique.len(), keys_a.len(), "job-key collision");
    }
}

proptest! {
    /// An unknown model mid-grid poisons exactly its own cells: they carry
    /// an error (and would stream as error records), every other cell
    /// still resolves to a runnable request.
    #[test]
    fn unknown_model_mid_grid_poisons_only_its_cells(
        bad_pos in 0usize..3,
        n_accels in 1usize..=3,
        cap in 64usize..=512,
    ) {
        let mut models: Vec<&str> = MODELS[..3].to_vec();
        models[bad_pos] = "NoSuchNet";
        let accels = &ACCELERATOR_IDS[..n_accels];
        let body = sweep_grid_body(&models, accels, &PE_COLS[..1], &[7], &[cap], 0, "");
        let plan = SweepPlan::from_json(&Json::parse(&body).unwrap(), 65536).unwrap();

        prop_assert_eq!(plan.cell_count(), 3 * n_accels);
        for i in 0..plan.cell_count() {
            let cell = plan.cell(i);
            let model_axis = i / n_accels;
            if model_axis == bad_pos {
                let err = cell.request.unwrap_err();
                prop_assert!(err.contains("unknown model"), "{}", err);
            } else {
                prop_assert!(cell.request.is_ok(), "cell {} should run", i);
            }
        }
    }
}

/// Drains every complete request currently buffered in `parser`.
fn drain_requests(parser: &mut RequestParser) -> Vec<(String, String, Vec<u8>)> {
    let mut out = Vec::new();
    while let Some(req) = parser.next_request().expect("well-formed stream") {
        out.push((req.method, req.path, req.body));
    }
    out
}

proptest! {
    /// The resumable parser is chunking-invariant: a pipelined byte stream
    /// split at arbitrary points — the fragments a nonblocking socket hands
    /// the event loop — parses to exactly the requests that feeding the
    /// whole buffer at once produces.
    #[test]
    fn request_parsing_is_invariant_under_chunk_splits(
        n_requests in 1usize..=5,
        body_len in 0usize..=300,
        // Split points as raw offsets; dedup/sort/clamp below.
        raw_cuts in proptest::collection::vec(0usize..4096, 0..12),
    ) {
        let mut stream = Vec::new();
        for i in 0..n_requests {
            let body: String = (0..(body_len + 17 * i) % 301)
                .map(|j| char::from(b'a' + ((i + j) % 26) as u8))
                .collect();
            if body.is_empty() && i % 2 == 0 {
                stream.extend_from_slice(
                    format!("GET /stats{i} HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n")
                        .as_bytes(),
                );
            } else {
                stream.extend_from_slice(
                    format!(
                        "POST /simulate HTTP/1.1\r\nhost: t\r\nx-req: {i}\r\n\
                         content-length: {}\r\n\r\n{body}",
                        body.len()
                    )
                    .as_bytes(),
                );
            }
        }

        // Whole buffer in one feed.
        let mut whole = RequestParser::new();
        whole.feed(&stream);
        let expected = drain_requests(&mut whole);
        prop_assert_eq!(expected.len(), n_requests);
        prop_assert!(whole.is_idle(), "no partial request may remain");

        // Same bytes, split at arbitrary offsets, draining after every
        // fragment (the event loop drains after every read).
        let mut cuts: Vec<usize> = raw_cuts
            .into_iter()
            .map(|c| c % (stream.len() + 1))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut chunked = RequestParser::new();
        let mut got = Vec::new();
        let mut prev = 0;
        for cut in cuts.into_iter().chain(std::iter::once(stream.len())) {
            chunked.feed(&stream[prev..cut]);
            got.extend(drain_requests(&mut chunked));
            prev = cut;
        }
        prop_assert_eq!(got, expected, "chunking changed the parse");
        prop_assert!(chunked.is_idle());
    }
}

/// Blocks on one request: `submit` plus a channel the completion sends
/// its outcome down. Backpressure and shutdown are test failures here.
fn run(service: &SimService, request: SimRequest) -> (Arc<str>, Served) {
    let (tx, rx) = mpsc::channel();
    let done: Completion = Box::new(move |outcome| {
        let _ = tx.send(outcome);
    });
    match service.submit(request, done) {
        Submitted::Hit(bytes) => (bytes, Served::Hit),
        Submitted::Pending => {
            let (bytes, served, _) = rx.recv().unwrap().unwrap();
            (bytes, served)
        }
        Submitted::Busy(_) | Submitted::ShuttingDown => panic!("service refused the request"),
    }
}

proptest! {
    /// Serving the same request twice yields one fresh run and one cache
    /// hit whose bytes decode to a `SimResult` equal (`==`, so every
    /// cycle count and f64 bit-exact) to a direct engine run.
    #[test]
    fn cache_hits_are_bit_identical_to_fresh_simulation(
        model_idx in 0usize..4,
        accel_idx in 0usize..8,
        seed in 0u64..1000,
        cap in 64usize..=256,
    ) {
        let (_, request) = build_request(model_idx, accel_idx, 1, seed, cap);

        let service = start(ServiceConfig {
            workers: 2,
            queue_depth: 4,
            max_cap: 65536,
            ..ServiceConfig::default()
        });
        let (fresh, how_fresh) = run(&service, request.clone());
        let (hit, how_hit) = run(&service, request.clone());
        service.stop();

        prop_assert_eq!(how_fresh, Served::Fresh);
        prop_assert_eq!(how_hit, Served::Hit);
        prop_assert_eq!(&fresh, &hit, "hit must be byte-identical");

        let direct = bbs_sim::engine::simulate(
            &*accelerator_by_name(request.accelerator).unwrap(),
            &request.model,
            &request.config,
            request.seed,
            request.max_weights_per_layer,
        );
        let decoded = sim_result_from_json(&Json::parse(&hit).unwrap()).unwrap();
        prop_assert_eq!(&decoded, &direct);
        prop_assert_eq!(
            sim_result_to_json(&decoded).to_string(),
            sim_result_to_json(&direct).to_string()
        );
    }
}
