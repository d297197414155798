//! Figure 3: inherent weight value sparsity, bit sparsity (2's complement
//! and sign-magnitude) and BBS (bit-vector size 8) across INT8 DNNs.

use crate::{f, print_table, weight_cap, SEED};
use bbs_models::accuracy::synthesize_model;
use bbs_models::zoo;
use bbs_tensor::bits::SparsityStats;
use rayon::prelude::*;

/// Measures the four Fig. 3 sparsity statistics for one model, pooled
/// over the layers the fidelity experiments synthesize.
fn model_sparsity(model: &bbs_models::ModelSpec) -> SparsityStats {
    let synth = synthesize_model(model, SEED, weight_cap());
    let pooled: Vec<i8> = synth
        .layers()
        .iter()
        .flat_map(|layer| layer.weights.data.as_slice())
        .copied()
        .collect();
    SparsityStats::measure(&pooled)
}

/// Regenerates Fig. 3.
pub fn run() {
    // The figure shows six networks (BERT appears once).
    let models = [
        zoo::vgg16(),
        zoo::resnet34(),
        zoo::resnet50(),
        zoo::vit_small(),
        zoo::vit_base(),
        zoo::bert_mrpc(),
    ];
    let rows: Vec<Vec<String>> = models
        .par_iter()
        .map(|m| {
            let s = model_sparsity(m);
            vec![
                m.name.to_string(),
                f(s.value, 3),
                f(s.bit_twos_complement, 3),
                f(s.bit_sign_magnitude, 3),
                f(s.bbs, 3),
            ]
        })
        .collect();
    print_table(
        "Fig. 3 — weight sparsity by definition (paper: value < 0.05, 2C ~ 0.45-0.5, SM higher, BBS > 0.5 highest)",
        &["model", "value", "bit (2C)", "bit (SM)", "BBS (2C, v=8)"],
        &rows,
    );
}
