//! Ablation studies beyond the paper's figures — the design-choice
//! sensitivities DESIGN.md commits to:
//!
//! * compression group size (the paper fixes 32),
//! * sensitive-channel fraction β (the paper uses 10%/20%),
//! * array synchronization granularity (per-tile vs lock-step),
//! * BBS strategy crossover vs pruned-column count.

use crate::{f, print_table, weight_cap, workload_store, SEED};
use bbs_core::averaging::rounded_averaging;
use bbs_core::global::GlobalPruneConfig;
use bbs_core::prune::{BinaryPruner, PruneStrategy};
use bbs_core::shifting::zero_point_shifting;
use bbs_models::accuracy::{synthesize_model, CompressionKind, CompressionMethod};
use bbs_models::synth::synthesize_weights_sampled;
use bbs_models::zoo;
use bbs_sim::accel::bitvert::BitVert;
use bbs_sim::accel::stripes::Stripes;
use bbs_sim::accel::{wave_schedule_with, LatencyProfile, SyncGranularity};
use bbs_sim::config::ArrayConfig;
use bbs_sim::engine::simulate_with;
use bbs_tensor::metrics::mse_i8;
use bbs_tensor::rng::SeededRng;
use rayon::prelude::*;

/// Ablation A: compression group size. Larger groups amortize metadata but
/// make sparse columns harder to generate (more weights must agree).
pub fn group_size() {
    let model = zoo::resnet34();
    let layers: Vec<_> = model
        .layers
        .iter()
        .enumerate()
        .take(12)
        .map(|(i, spec)| {
            // Ensure every sampled channel holds at least one full group of
            // the largest size swept (64), so padding does not skew ratios.
            let cap = (weight_cap() / 4).max(spec.channels * 64);
            synthesize_weights_sampled(spec, model.family, SEED + i as u64, cap)
        })
        .collect();
    let mut rows = Vec::new();
    for &group in &[8usize, 16, 32, 64] {
        let mut orig: Vec<i8> = Vec::new();
        let mut recon: Vec<i32> = Vec::new();
        let mut stored = 0usize;
        for synth in &layers {
            let qt = &synth.weights;
            let pruner = BinaryPruner::moderate();
            for c in 0..qt.channels() {
                let comp = pruner.compress_channel(qt.channel(c), group);
                stored += comp.stored_bits();
                recon.extend(comp.decode());
                orig.extend_from_slice(qt.channel(c));
            }
        }
        rows.push(vec![
            group.to_string(),
            f(orig.len() as f64 * 8.0 / stored as f64, 3),
            f(mse_i8(&orig, &recon), 2),
        ]);
    }
    print_table(
        "Ablation A — compression group size (moderate pruning, ResNet-34 front): metadata amortization vs fit error",
        &["group size", "compression ratio", "mse"],
        &rows,
    );
}

/// Ablation B: sensitive-channel fraction β sweep (accuracy/footprint
/// trade).
fn beta_sweep() {
    let model = zoo::vit_small();
    let cap = weight_cap() / 2;
    let synth = synthesize_model(&model, SEED, cap);
    let sim_cfg = ArrayConfig::paper_16x32();
    let store = workload_store();
    let base = simulate_with(store, &Stripes::new(), &model, &sim_cfg, SEED, cap).total_cycles();
    // One flat parallel job per β: its fidelity and its BitVert simulation.
    let betas = [0.0f64, 0.05, 0.10, 0.20, 0.40];
    let rows: Vec<Vec<String>> = betas
        .par_iter()
        .map(|&beta| {
            let method = CompressionMethod {
                beta,
                ..CompressionMethod::new(
                    CompressionKind::Bbs(PruneStrategy::ZeroPointShifting, 4),
                    beta,
                )
            };
            let fit = synth.fidelity(&method);
            let cfg = GlobalPruneConfig {
                beta,
                ..GlobalPruneConfig::moderate()
            };
            let bv = simulate_with(
                store,
                &BitVert::with_config(cfg, "sweep"),
                &model,
                &sim_cfg,
                SEED,
                cap,
            )
            .total_cycles();
            vec![
                format!("{}%", (beta * 100.0) as u32),
                f(fit.compression_ratio, 2),
                format!("{}%", f(fit.est_accuracy_loss_pct, 2)),
                format!("{}x", f(base as f64 / bv as f64, 2)),
            ]
        })
        .collect();
    print_table(
        "Ablation B — sensitive fraction β (ViT-Small, moderate pruning): footprint/accuracy/speedup trade",
        &["beta", "compression", "est acc loss", "speedup"],
        &rows,
    );
}

/// Ablation C: array synchronization granularity — what the per-column
/// buffering is worth for each imbalance-prone design.
fn sync_granularity() {
    let mut rng = SeededRng::new(SEED);
    // A synthetic imbalanced profile: Pragmatic-like group latencies.
    let channels = 64;
    let groups = 32;
    let latencies: Vec<Vec<u32>> = (0..channels)
        .map(|_| {
            (0..groups)
                .map(|_| {
                    let maxpc = (0..8)
                        .map(|_| (rng.any_i8() as u8).count_ones())
                        .max()
                        .unwrap_or(1);
                    maxpc.max(1)
                })
                .collect()
        })
        .collect();
    let useful = latencies
        .iter()
        .map(|ch| ch.iter().map(|&l| l as u64 * 4).collect())
        .collect();
    let profile = LatencyProfile::from_nested(latencies, useful);
    let mut rows = Vec::new();
    for &cols in &[4usize, 16, 32] {
        let tile = wave_schedule_with(&profile, cols, 8, SyncGranularity::PerTile);
        let group = wave_schedule_with(&profile, cols, 8, SyncGranularity::PerGroup);
        rows.push(vec![
            cols.to_string(),
            tile.cycles.to_string(),
            group.cycles.to_string(),
            format!(
                "{}%",
                f(100.0 * (group.cycles as f64 / tile.cycles as f64 - 1.0), 1)
            ),
        ]);
    }
    print_table(
        "Ablation C — synchronization granularity on an imbalanced (Pragmatic-like) profile: lock-step penalty vs per-tile buffering",
        &["PE cols", "per-tile cycles", "lock-step cycles", "penalty"],
        &rows,
    );
}

/// Ablation D: strategy crossover — MSE of averaging vs shifting per
/// pruned-column count (the mechanism behind Fig. 6 and Algorithm 2's
/// strategy switch).
fn strategy_crossover() {
    let mut rng = SeededRng::new(SEED + 9);
    let groups: Vec<Vec<i8>> = (0..400)
        .map(|_| (0..32).map(|_| rng.gaussian_i8(0.0, 35.0)).collect())
        .collect();
    let mut rows = Vec::new();
    for cols in 1..=6usize {
        let mut avg_mse = 0.0;
        let mut zps_mse = 0.0;
        for g in &groups {
            avg_mse += rounded_averaging(g, cols).mse(g);
            zps_mse += zero_point_shifting(g, cols).mse(g);
        }
        let n = groups.len() as f64;
        rows.push(vec![
            cols.to_string(),
            f(avg_mse / n, 3),
            f(zps_mse / n, 3),
            if zps_mse <= avg_mse {
                "shifting"
            } else {
                "averaging"
            }
            .to_string(),
        ]);
    }
    print_table(
        "Ablation D — strategy MSE vs pruned columns (groups of 32, Gaussian sigma 35). Note: shifting wins MSE everywhere, yet averaging wins KL at 2 cols (Fig. 6) — the paper's point that distribution preservation, not MSE, predicts accuracy",
        &["cols", "averaging mse", "shifting mse", "winner"],
        &rows,
    );
}

/// Runs all ablations.
pub fn run() {
    group_size();
    beta_sweep();
    sync_granularity();
    strategy_crossover();
}
