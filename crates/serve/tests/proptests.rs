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
//!   of a pipelined request stream;
//! * the `/simulate` and `/sweep` decoders return — a request or a reason
//!   — on mutated bodies and never panic, and the streamed request key and
//!   workload fingerprint equal FNV-1a of the canonical tree they replaced,
//!   for every zoo model and for custom specs whose layer names need
//!   escaping (`hostile_*`, which CI also runs at 5,000 cases).

use bbs_json::{fnv1a_64, Json};
use bbs_models::json::model_spec_to_json;
use bbs_models::{zoo, LayerSpec, ModelSpec};
use bbs_serve::http::RequestParser;
use bbs_serve::registry::{accelerator_by_name, ACCELERATOR_IDS};
use bbs_serve::request::SimRequest;
use bbs_serve::service::{start, Completion, Served, ServiceConfig, SimService, Submitted};
use bbs_serve::sweep::SweepPlan;
use bbs_sim::json::{
    array_config_to_json, sim_result_from_json, sim_result_to_json, sweep_spec_to_json,
};
use bbs_sim::{ArrayConfig, SweepSpec};
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
    let key = request.key();
    match service.submit(request, key, done) {
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

/// The bodies the decoders below are fed mutations of: a `/simulate`
/// request carrying a changed model spec in full, and a `/sweep` body
/// with full specs, two configs and three accelerators.
fn hostile_bases() -> [String; 2] {
    let mut model = zoo::resnet34();
    model.layers[3].channels += 1;
    let request = SimRequest {
        model: Arc::new(model),
        accelerator: "bitvert-moderate",
        config: ArrayConfig::paper_16x32(),
        seed: 7,
        max_weights_per_layer: 4096,
    };
    let sweep = SweepSpec {
        models: vec![zoo::vit_small(), zoo::bert_sst2()],
        accelerators: vec!["stripes".into(), "bitwave".into(), "ant".into()],
        configs: vec![
            ArrayConfig::paper_16x32(),
            ArrayConfig::paper_16x32().with_pe_cols(8),
        ],
        seeds: vec![7, 8],
        caps: vec![256],
    };
    [
        request.to_json().to_string(),
        sweep_spec_to_json(&sweep).to_string(),
    ]
}

/// `text` with one byte flipped (`kind` 0), cut off (1) or inserted (2)
/// at `at`, modulo its length.
fn mutate(text: &str, kind: usize, at: u64, byte: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let last = bytes.len() - 1;
    let i = (at % (bytes.len() as u64 + 1)) as usize;
    match kind {
        0 => bytes[i.min(last)] ^= byte.max(1),
        1 => bytes.truncate(i),
        _ => bytes.insert(i, byte),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Replaces node `n` (pre-order, modulo the node count) of `v` with `with`.
fn replace_node(v: &mut Json, n: usize, with: Json) {
    fn count(v: &Json) -> usize {
        1 + match v {
            Json::Arr(items) => items.iter().map(count).sum(),
            Json::Obj(pairs) => pairs.iter().map(|(_, v)| count(v)).sum(),
            _ => 0,
        }
    }
    fn walk(v: &mut Json, n: &mut usize, with: &mut Option<Json>) {
        if *n == 0 {
            if let Some(with) = with.take() {
                *v = with;
            }
            return;
        }
        *n -= 1;
        let children: Vec<&mut Json> = match v {
            Json::Arr(items) => items.iter_mut().collect(),
            Json::Obj(pairs) => pairs.iter_mut().map(|(_, v)| v).collect(),
            _ => Vec::new(),
        };
        for child in children {
            if with.is_none() {
                return;
            }
            walk(child, n, with);
        }
    }
    let mut n = n % count(v);
    walk(v, &mut n, &mut Some(with));
}

/// A value a decoder must not trust: the wrong type, zero, negative,
/// fractional, non-finite, beyond 2^53, or an empty container.
fn edge_value(pick: u8) -> Json {
    match pick % 14 {
        0 => Json::Null,
        1 => Json::Bool(true),
        2 => Json::Num(0.0),
        3 => Json::Num(-1.0),
        4 => Json::Num(0.5),
        5 => Json::Num(f64::INFINITY),
        6 => Json::Num(f64::NAN),
        7 => Json::Num(1e300),
        8 => Json::Num((1u64 << 60) as f64),
        9 => Json::str(""),
        10 => Json::str("ViT-Small"),
        11 => Json::Arr(Vec::new()),
        12 => Json::Arr(vec![Json::Num(0.0)]),
        _ => Json::Obj(Vec::new()),
    }
}

proptest! {
    /// Both request decoders, on byte-level mutations of real bodies and
    /// on the same bodies with one value swapped for an edge case, at the
    /// smallest, default and an unbounded cap: each returns a request (and
    /// its key) or a reason, and none panics.
    #[test]
    fn hostile_bodies_decode_or_fail_cleanly(
        which in 0usize..2,
        kind in 0usize..4,
        at in any::<u64>(),
        byte in any::<u8>(),
    ) {
        let base = &hostile_bases()[which];
        let v = if kind < 3 {
            match Json::parse(&mutate(base, kind, at, byte)) {
                Ok(v) => v,
                Err(_) => return,
            }
        } else {
            let mut v = Json::parse(base).unwrap();
            replace_node(&mut v, at as usize, edge_value(byte));
            v
        };
        for cap in [1, 65536, usize::MAX] {
            if let Ok(request) = SimRequest::from_json(&v, cap) {
                let again = SimRequest::from_json(&request.to_json(), cap).unwrap();
                prop_assert_eq!(again.key(), request.key());
            }
            if let Ok(plan) = SweepPlan::from_json(&v, cap) {
                prop_assert!(plan.cell_count() <= bbs_serve::sweep::MAX_SWEEP_CELLS);
                for i in [0, plan.cell_count().saturating_sub(1)] {
                    if let Ok(request) = plan.cell(i).request {
                        let _ = request.key();
                    }
                }
            }
        }
    }
}

/// Characters for custom layer names: plain ASCII, everything the JSON
/// writer escapes, other control characters, and two- to four-byte UTF-8.
const NAME_CHARS: [char; 16] = [
    'a',
    'Z',
    '0',
    '.',
    '"',
    '\\',
    '/',
    '\n',
    '\t',
    '\r',
    '\u{0}',
    '\u{1f}',
    '\u{7f}',
    'é',
    '日',
    '\u{1f600}',
];

/// A layer name of up to six [`NAME_CHARS`], picked by the bits of `bits`.
fn layer_name(bits: u64) -> String {
    (0..bits % 7)
        .map(|i| NAME_CHARS[((bits >> (4 + 4 * i)) & 15) as usize])
        .collect()
}

/// The request key as it was first built: the whole request object as a
/// tree, canonicalized, hashed.
fn tree_key(request: &SimRequest) -> u64 {
    let canonical = Json::obj(vec![
        ("model", model_spec_to_json(&request.model)),
        ("accelerator", Json::str(request.accelerator)),
        ("config", array_config_to_json(&request.config)),
        ("seed", Json::from_u64(request.seed)),
        (
            "max_weights_per_layer",
            Json::from_usize(request.max_weights_per_layer),
        ),
    ])
    .canonical();
    fnv1a_64(canonical.as_bytes())
}

proptest! {
    /// The key and the workload fingerprint stream the spec's canonical
    /// text — cached for the shared zoo models, written per call for any
    /// other — and equal FNV-1a of the tree construction they replaced,
    /// for every zoo model by name and for custom layer tables under zoo
    /// names, at random accelerators, configs, seeds and caps. The
    /// request goes through its wire form first, as a server sees it.
    #[test]
    fn hostile_spec_keys_match_the_tree_oracle(
        model_idx in 0usize..16,
        names in proptest::collection::vec(any::<u64>(), 1..6),
        dims in proptest::collection::vec(1usize..4096, 18),
        picks in any::<u64>(),
        seed in 0u64..=(1u64 << 53),
        cap in 1usize..=200_000,
    ) {
        let zoo_model = &zoo::all()[model_idx % 8];
        let model = if model_idx < 8 {
            Json::str(zoo_model.name)
        } else {
            let layers = names
                .iter()
                .enumerate()
                .map(|(i, &bits)| LayerSpec {
                    name: layer_name(bits),
                    channels: dims[3 * i],
                    elems_per_channel: dims[3 * i + 1],
                    positions: dims[3 * i + 2],
                    unique_input_elems: dims[3 * i] * 7919,
                })
                .collect();
            model_spec_to_json(&ModelSpec {
                name: zoo_model.name,
                family: zoo_model.family,
                layers,
            })
        };
        let mut config = ArrayConfig::paper_16x32().with_pe_cols(PE_COLS[(picks & 3) as usize]);
        config.tech.freq_mhz = 1.0 + (picks >> 11) as f64 / (1u64 << 40) as f64;
        let body = Json::obj(vec![
            ("model", model),
            ("accelerator", Json::str(ACCELERATOR_IDS[(picks >> 2 & 7) as usize])),
            ("config", array_config_to_json(&config)),
            ("seed", Json::from_u64(seed)),
            ("max_weights_per_layer", Json::from_usize(cap)),
        ])
        .to_string();
        let request = SimRequest::from_json(&Json::parse(&body).unwrap(), 65536).unwrap();
        prop_assert_eq!(Arc::ptr_eq(&request.model, zoo_model), model_idx < 8);
        prop_assert_eq!(request.key(), tree_key(&request));
        prop_assert_eq!(
            bbs_sim::store::model_fingerprint(&request.model),
            fnv1a_64(model_spec_to_json(&request.model).canonical().as_bytes())
        );
    }
}
