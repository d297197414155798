//! Figure 16: EDP vs accuracy-loss Pareto frontier on ResNet-50.
//!
//! Each method contributes points from a pruning/precision sweep; EDP is
//! normalized to the dense Stripes baseline, accuracy loss is the
//! documented fidelity estimate.

use crate::{f, print_table, weight_cap, workload_store, SEED};
use bbs_core::global::GlobalPruneConfig;
use bbs_core::prune::{BinaryPruner, PruneStrategy};
use bbs_models::accuracy::{synthesize_model, CompressionKind, CompressionMethod};
use bbs_models::zoo;
use bbs_sim::accel::{
    ant::Ant, bitlet::Bitlet, bitvert::BitVert, bitwave::BitWave, stripes::Stripes, Accelerator,
};
use bbs_sim::config::ArrayConfig;
use bbs_sim::engine::simulate_with;
use rayon::prelude::*;

/// One Pareto point.
#[derive(Debug, Clone)]
pub struct ParetoPoint {
    /// Series name (accelerator/method).
    pub series: &'static str,
    /// Configuration label.
    pub config: String,
    /// EDP normalized to Stripes.
    pub norm_edp: f64,
    /// Estimated accuracy loss, %.
    pub acc_loss_pct: f64,
}

fn bitvert_label(cols: usize) -> &'static str {
    match cols {
        1 => "1col",
        2 => "2col",
        3 => "3col",
        4 => "4col",
        5 => "5col",
        _ => "6col",
    }
}

/// One point to compute: its labels, the accelerator to simulate, and the
/// compression whose accuracy loss it reports (`None`: lossless).
struct PointJob {
    series: &'static str,
    config: String,
    accel: Box<dyn Accelerator>,
    method: Option<CompressionMethod>,
}

/// The point list: every sweep of the figure, in output order.
fn point_jobs() -> Vec<PointJob> {
    let mut jobs = Vec::new();

    // BitVert: pruning sweep (averaging below 3 columns, shifting above —
    // the strategy choice Algorithm 2 makes).
    for cols in 1..=6usize {
        let strategy = if cols <= 2 {
            PruneStrategy::RoundedAveraging
        } else {
            PruneStrategy::ZeroPointShifting
        };
        let prune = GlobalPruneConfig {
            beta: if cols <= 2 { 0.10 } else { 0.20 },
            ch: 32,
            pruner: BinaryPruner::new(strategy, cols),
            group_size: 32,
        };
        jobs.push(PointJob {
            series: "BitVert",
            config: format!("{cols} cols"),
            accel: Box::new(BitVert::with_config(prune, bitvert_label(cols))),
            method: Some(CompressionMethod::new(
                CompressionKind::Bbs(strategy, cols),
                prune.beta,
            )),
        });
    }

    // BitWave: zero-column sweep.
    for cols in 1..=5usize {
        jobs.push(PointJob {
            series: "BitWave",
            config: format!("{cols} cols"),
            accel: Box::new(BitWave::with_columns(cols)),
            method: Some(CompressionMethod::new(
                CompressionKind::ZeroColumn(cols),
                0.10,
            )),
        });
    }

    // Bitlet: lossless (no compression), one point.
    jobs.push(PointJob {
        series: "Bitlet",
        config: "lossless".into(),
        accel: Box::new(Bitlet::new()),
        method: None,
    });

    // ANT at 6 bits.
    jobs.push(PointJob {
        series: "ANT",
        config: "6b".into(),
        accel: Box::new(Ant::new()),
        method: Some(CompressionMethod::ant6()),
    });

    // PTQ running on reduced-precision Stripes.
    for bits in [4u32, 5, 6] {
        jobs.push(PointJob {
            series: "PTQ",
            config: format!("{bits}b"),
            accel: Box::new(Stripes::with_bits(bits)),
            method: Some(CompressionMethod::new(
                CompressionKind::Ptq(bits as u8),
                0.0,
            )),
        });
    }
    jobs
}

/// Computes the Fig. 16 point cloud, one flat parallel job per point.
pub fn pareto_points() -> Vec<ParetoPoint> {
    let model = zoo::resnet50();
    let cfg = ArrayConfig::paper_16x32();
    let cap = weight_cap();
    let base = simulate_with(workload_store(), &Stripes::new(), &model, &cfg, SEED, cap);
    let base_edp = base.edp();
    // Every accuracy estimate compresses the same synthesized model.
    let synth = synthesize_model(&model, SEED, cap);
    point_jobs()
        .par_iter()
        .map(|job| {
            let sim = simulate_with(
                workload_store(),
                job.accel.as_ref(),
                &model,
                &cfg,
                SEED,
                cap,
            );
            ParetoPoint {
                series: job.series,
                config: job.config.clone(),
                norm_edp: sim.edp() / base_edp,
                acc_loss_pct: job
                    .method
                    .map_or(0.0, |m| synth.fidelity(&m).est_accuracy_loss_pct),
            }
        })
        .collect()
}

/// Checks whether a point is on the Pareto frontier of the cloud.
pub fn on_frontier(points: &[ParetoPoint], p: &ParetoPoint) -> bool {
    !points.iter().any(|q| {
        (q.norm_edp < p.norm_edp && q.acc_loss_pct <= p.acc_loss_pct)
            || (q.norm_edp <= p.norm_edp && q.acc_loss_pct < p.acc_loss_pct)
    })
}

/// Regenerates Fig. 16.
pub fn run() {
    let points = pareto_points();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.series.to_string(),
                p.config.clone(),
                f(p.norm_edp, 3),
                format!("{}%", f(p.acc_loss_pct, 2)),
                if on_frontier(&points, p) {
                    "*".into()
                } else {
                    "".into()
                },
            ]
        })
        .collect();
    print_table(
        "Fig. 16 (ResNet-50) — EDP vs estimated accuracy loss (paper: BitVert always sits on the Pareto frontier); * marks frontier points",
        &["series", "config", "norm EDP", "acc loss", "frontier"],
        &rows,
    );
}
