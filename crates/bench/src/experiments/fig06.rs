//! Figure 6: normalized KL divergence of the three bit-level pruning
//! techniques (zero-column, rounded averaging, zero-point shifting) on
//! ResNet-34 and ViT-Base at 2 and 4 pruned columns, group size 32.

use crate::{f, print_table, synthesize_all};
use bbs_core::averaging::rounded_averaging;
use bbs_core::shifting::zero_point_shifting;
use bbs_core::zero_col::sign_magnitude_zero_column;
use bbs_models::accuracy::SynthModel;
use bbs_models::zoo;
use bbs_tensor::metrics::BinnedHistogramI8;
use rayon::prelude::*;

/// KL of one whole-model compression with the given per-group kernel.
fn model_kl(model: &SynthModel, kernel: impl Fn(&[i8]) -> Vec<i32>) -> f64 {
    let mut orig = BinnedHistogramI8::new(4);
    let mut recon = BinnedHistogramI8::new(4);
    for layer in model.layers() {
        let qt = &layer.weights;
        for c in 0..qt.channels() {
            for group in qt.channel(c).chunks(32) {
                group.iter().for_each(|&w| orig.add(w as i32));
                kernel(group).into_iter().for_each(|r| recon.add(r));
            }
        }
    }
    orig.kl_divergence(&recon)
}

/// The three techniques at one pruning level.
pub fn technique_kls(model: &SynthModel, columns: usize) -> [f64; 3] {
    [
        model_kl(model, |g| sign_magnitude_zero_column(g, columns).decode()),
        model_kl(model, |g| rounded_averaging(g, columns).decode()),
        model_kl(model, |g| zero_point_shifting(g, columns).decode()),
    ]
}

/// Regenerates Fig. 6.
pub fn run() {
    let specs = [zoo::resnet34(), zoo::vit_base()];
    let models = synthesize_all(&specs);
    let jobs: Vec<(usize, usize)> = (0..specs.len())
        .flat_map(|m| [2usize, 4].map(|columns| (m, columns)))
        .collect();
    let rows: Vec<Vec<String>> = jobs
        .par_iter()
        .map(|&(m, columns)| {
            let [zc, avg, zps] = technique_kls(&models[m], columns);
            let max = zc.max(avg).max(zps).max(1e-12);
            vec![
                specs[m].name.to_string(),
                columns.to_string(),
                format!("{} ({})", f(zc / max, 3), f(zc, 5)),
                format!("{} ({})", f(avg / max, 3), f(avg, 5)),
                format!("{} ({})", f(zps / max, 3), f(zps, 5)),
            ]
        })
        .collect();
    print_table(
        "Fig. 6 — normalized KL divergence, lower is better (paper: averaging wins at 2 cols, shifting wins at 4, zero-column worst)",
        &["model", "cols", "zero-col norm (raw)", "rounded-avg norm (raw)", "zps norm (raw)"],
        &rows,
    );
}
