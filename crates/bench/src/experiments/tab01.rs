//! Table I: the evaluated models and the FP32 vs INT8 baseline fidelity.
//!
//! The paper reports ImageNet/GLUE accuracies; our substitution reports the
//! model-shape inventory plus the *measured* FP32 vs INT8 accuracy on the
//! trained substrate (which reproduces the paper's point: per-channel INT8
//! PTQ is accuracy-neutral).

use crate::{f, print_table};
use bbs_models::accuracy::{measure_real_accuracy, CompressionMethod};
use bbs_models::lm::measure_lm_perplexity;
use bbs_models::zoo;
use rayon::prelude::*;

/// Regenerates Table I.
pub fn run() {
    let rows: Vec<Vec<String>> = zoo::paper_benchmarks()
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                m.family.to_string(),
                m.layers.len().to_string(),
                format!("{}M", f(m.params() as f64 / 1e6, 1)),
                format!("{}G", f(m.macs() as f64 / 1e9, 2)),
            ]
        })
        .collect();
    print_table(
        "Table I — evaluated models (shapes of the real architectures)",
        &["model", "family", "weight layers", "params", "MACs"],
        &rows,
    );

    // INT8 neutrality on the measured substrates: the LM (`None`, the
    // longest job, so it starts first) and three classifier seeds, as one
    // flat parallel job list of (FP32, INT8) pairs.
    let int8_method = CompressionMethod::int8_baseline();
    let jobs = [None, Some(21u64), Some(22), Some(23)];
    let measured: Vec<(f64, f64)> = jobs
        .par_iter()
        .map(|job| match *job {
            Some(seed) => {
                let acc = measure_real_accuracy(&int8_method, seed);
                (acc.fp32, acc.int8)
            }
            None => {
                let lm = measure_lm_perplexity(&int8_method, 41);
                (lm.fp32, lm.int8)
            }
        })
        .collect();
    let (lm, classifiers) = (measured[0], &measured[1..]);
    let (mut fp32, mut int8) = (0.0, 0.0);
    for &(seed_fp32, seed_int8) in classifiers {
        fp32 += seed_fp32;
        int8 += seed_int8;
    }
    print_table(
        "Table I (measured) — FP32 vs INT8 baselines (paper: INT8 loss negligible)",
        &["substrate", "FP32", "INT8"],
        &[
            vec![
                "classifier accuracy (3-seed avg)".to_string(),
                f(fp32 / 3.0, 3),
                f(int8 / 3.0, 3),
            ],
            vec!["micro-LM perplexity".to_string(), f(lm.0, 3), f(lm.1, 3)],
        ],
    );
}
