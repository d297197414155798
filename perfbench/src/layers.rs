//! In-process timings of single library layers, each taken on the traced
//! run of the workload that exercises the layer: the models on `repro`,
//! lowering and the accelerator models on `serve_cold`, request routing
//! on every serve workload.

use crate::serve::{simulate_body, CAP, MODELS};
use crate::stats::median;
use crate::Outcome;
use bbs_json::Json;
use bbs_models::accuracy::{evaluate_model_fidelity, measure_real_accuracy, CompressionMethod};
use bbs_models::lm::{llama_subset, measure_lm_perplexity};
use bbs_models::zoo;
use bbs_serve::registry::{accelerator_by_name, ACCELERATOR_IDS};
use bbs_serve::SimRequest;
use bbs_sim::engine::simulate_with;
use bbs_sim::workload::lower_model;
use bbs_sim::{ArrayConfig, WorkloadStore};
use std::hint::black_box;
use std::time::Instant;

/// Rounds of the route/key timing; the median round is reported.
const ROUTE_ROUNDS: usize = 51;

fn ms_of(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// The models layer, with the arguments Fig. 17 and Fig. 11 use.
pub fn models(out: &mut Outcome) {
    let fig17_bbs_mod = bbs_bench::experiments::fig17::methods()
        .into_iter()
        .find(|(name, _)| name.starts_with("BBS (mod"))
        .map(|(_, m)| m)
        .expect("fig17 has a BBS (mod) method");
    out.layer(
        "models.lm_perplexity_ms",
        ms_of(|| {
            black_box(measure_lm_perplexity(&fig17_bbs_mod, 41));
        }),
    );
    out.layer(
        "models.real_accuracy_ms",
        ms_of(|| {
            black_box(measure_real_accuracy(
                &CompressionMethod::bbs_moderate(),
                21,
            ));
        }),
    );
    let llama = llama_subset(4);
    out.layer(
        "models.fidelity_ms",
        ms_of(|| {
            black_box(evaluate_model_fidelity(
                &llama,
                &fig17_bbs_mod,
                bbs_bench::SEED,
                256,
            ));
        }),
    );
}

/// Lowering and the accelerator models, on the serve models at the
/// server's default cap.
pub fn sim(seed: u64, out: &mut Outcome) {
    let models: Vec<_> = MODELS
        .iter()
        .map(|m| zoo::by_name(m).expect("zoo model"))
        .collect();
    out.layer(
        "sim.lower_ms",
        ms_of(|| {
            for model in &models {
                black_box(lower_model(model, seed, CAP));
            }
        }),
    );
    let store = WorkloadStore::default();
    for model in &models {
        store.get_or_lower(model, seed, CAP);
    }
    let cfg = ArrayConfig::paper_16x32();
    for id in ACCELERATOR_IDS {
        let accel = accelerator_by_name(id).expect("registry id");
        let ms = ms_of(|| {
            for model in &models {
                black_box(simulate_with(
                    &store,
                    accel.as_ref(),
                    model,
                    &cfg,
                    seed,
                    CAP,
                ));
            }
        });
        out.layer(&format!("sim.simulate_ms.{id}"), ms);
    }
}

/// What the server does with a body before it can look up the cache.
pub fn route_key(seed: u64, out: &mut Outcome) {
    let bodies: Vec<String> = MODELS
        .iter()
        .flat_map(|m| {
            ACCELERATOR_IDS
                .iter()
                .map(move |a| simulate_body(m, a, seed))
        })
        .collect();
    let rounds: Vec<f64> = (0..ROUTE_ROUNDS)
        .map(|_| {
            let start = Instant::now();
            for body in &bodies {
                let v = Json::parse(black_box(body)).expect("body parses");
                let request = SimRequest::from_json(&v, 65536).expect("body decodes");
                black_box(request.key());
            }
            start.elapsed().as_secs_f64() * 1e6 / bodies.len() as f64
        })
        .collect();
    out.layer("serve.route_key_us", median(&rounds));
}
