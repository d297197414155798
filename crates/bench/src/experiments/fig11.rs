//! Figure 11: accuracy impact of PTQ vs BitWave vs BBS under conservative
//! and moderate compression.
//!
//! Two legs, per the substitution documented in `bbs_models::accuracy`:
//! 1. estimated accuracy loss from weight/output fidelity on the paper's
//!    seven model shapes,
//! 2. *real measured* accuracy on the trained-MLP substrate (averaged over
//!    seeds).

use crate::{f, print_table, synthesize_all};
use bbs_models::accuracy::{train_classifier, CompressionMethod, ModelFidelity, RealAccuracy};
use bbs_models::zoo;
use rayon::prelude::*;

/// One job of the figure's flat parallel list.
enum Job {
    /// Fidelity of (model, method).
    Fidelity(usize, usize),
    /// Train the classifier for a seed and measure it under every method.
    Classifier(u64),
}

/// A finished [`Job`].
enum Done {
    Fidelity(ModelFidelity),
    Classifier(Vec<RealAccuracy>),
}

/// The Fig. 11 method set: both compression levels, conservative first.
fn methods() -> [(&'static str, CompressionMethod); 6] {
    [
        ("PTQ (cons)", CompressionMethod::ptq_conservative()),
        ("BitWave (cons)", CompressionMethod::bitwave_conservative()),
        ("BBS (cons)", CompressionMethod::bbs_conservative()),
        ("PTQ (mod)", CompressionMethod::ptq_moderate()),
        ("BitWave (mod)", CompressionMethod::bitwave_moderate()),
        ("BBS (mod)", CompressionMethod::bbs_moderate()),
    ]
}

/// Regenerates Fig. 11.
pub fn run() {
    let methods = methods();

    // Leg 1 estimates accuracy loss on the paper's model shapes: each model
    // is synthesized once and compressed with all six methods. Leg 2
    // measures real accuracy on the trained substrate: each seed's
    // classifier is trained once and evaluated under every method. All of
    // it runs as one flat parallel job list after the syntheses.
    let models = zoo::paper_benchmarks();
    let seeds = [21u64, 22, 23, 24, 25];
    let synths = synthesize_all(&models);
    let jobs: Vec<Job> = (0..models.len())
        .flat_map(|m| (0..methods.len()).map(move |k| Job::Fidelity(m, k)))
        .chain(seeds.map(Job::Classifier))
        .collect();
    let done: Vec<Done> = jobs
        .par_iter()
        .map(|job| match *job {
            Job::Fidelity(m, k) => Done::Fidelity(synths[m].fidelity(&methods[k].1)),
            Job::Classifier(seed) => {
                let classifier = train_classifier(seed);
                let int8 = classifier.accuracy_under(&CompressionMethod::int8_baseline());
                Done::Classifier(
                    methods
                        .iter()
                        .map(|(_, m)| RealAccuracy {
                            fp32: classifier.fp32_accuracy(),
                            int8,
                            compressed: classifier.accuracy_under(m),
                        })
                        .collect(),
                )
            }
        })
        .collect();
    let mut fits = Vec::new();
    let mut per_seed = Vec::new();
    for d in done {
        match d {
            Done::Fidelity(fit) => fits.push(fit),
            Done::Classifier(accs) => per_seed.push(accs),
        }
    }
    let fits: Vec<&[ModelFidelity]> = fits.chunks(methods.len()).collect();

    for (level, level_fits) in ["conservative", "moderate"].into_iter().zip([0..3, 3..6]) {
        let mut rows = Vec::new();
        let mut ratio_sum = [0.0f64; 3];
        for (model, model_fits) in models.iter().zip(&fits) {
            let mut row = vec![model.name.to_string()];
            for (i, fit) in model_fits[level_fits.clone()].iter().enumerate() {
                ratio_sum[i] += fit.compression_ratio;
                row.push(format!(
                    "{}% ({}x)",
                    f(fit.est_accuracy_loss_pct, 2),
                    f(fit.compression_ratio, 2)
                ));
            }
            rows.push(row);
        }
        rows.push(vec![
            "mean ratio".to_string(),
            format!("{}x", f(ratio_sum[0] / models.len() as f64, 2)),
            format!("{}x", f(ratio_sum[1] / models.len() as f64, 2)),
            format!("{}x", f(ratio_sum[2] / models.len() as f64, 2)),
        ]);
        print_table(
            &format!(
                "Fig. 11 ({level}) — estimated accuracy loss (paper: BBS lowest; avg 0.25% cons / 0.45% mod at 1.29x / 1.66x)"
            ),
            &["model", "PTQ", "BitWave", "BBS"],
            &rows,
        );
    }

    let mut rows = Vec::new();
    for (mi, (name, _)) in methods.iter().enumerate() {
        let mut loss = 0.0;
        let mut fp32 = 0.0;
        for seed_accs in &per_seed {
            loss += seed_accs[mi].loss_vs_int8_pct();
            fp32 += seed_accs[mi].fp32;
        }
        rows.push(vec![
            name.to_string(),
            format!("{}%", f(loss / seeds.len() as f64, 2)),
            f(fp32 / seeds.len() as f64, 3),
        ]);
    }
    print_table(
        "Fig. 11 (measured) — real accuracy loss vs INT8 on the trained-MLP substrate, 5-seed average",
        &["method", "Δacc", "fp32 ref"],
        &rows,
    );
}
