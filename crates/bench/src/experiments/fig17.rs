//! Figure 17: LLM weight compression — BBS vs Olive on Llama-3-8B.
//!
//! Two legs: *real* perplexity on the trained micro language model (two
//! synthetic corpora standing in for Wikitext and C4), and weight-space
//! fidelity on Llama-3-8B-shaped tensors.

use crate::{labelled, weight_cap, Cell, Table, SEED};
use bbs_core::prune::PruneStrategy;
use bbs_models::accuracy::{synthesize_model, CompressionKind, CompressionMethod, ModelFidelity};
use bbs_models::lm::{llama_subset, train_micro_lm};
use rayon::prelude::*;

/// The Fig. 17 method set (β = 0: all channels compressed, §V-H).
pub fn methods() -> Vec<(&'static str, CompressionMethod)> {
    vec![
        ("INT8", CompressionMethod::int8_baseline()),
        (
            "Olive-4b",
            CompressionMethod::new(CompressionKind::Olive, 0.0),
        ),
        (
            "BBS (cons, 6.25b)",
            CompressionMethod::new(
                CompressionKind::Bbs(PruneStrategy::RoundedAveraging, 2),
                0.0,
            ),
        ),
        (
            "BBS (mod, 4.25b)",
            CompressionMethod::new(
                CompressionKind::Bbs(PruneStrategy::ZeroPointShifting, 4),
                0.0,
            ),
        ),
    ]
}

/// One job of the figure's flat parallel list.
enum Job {
    /// The Llama leg: synthesize the model, then every compressed method.
    Llama,
    /// Train the micro LM for a seed and evaluate it under every method.
    Lm(u64),
}

/// A finished [`Job`].
enum Done {
    Llama(Vec<ModelFidelity>),
    Lm(f64, Vec<f64>),
}

/// Regenerates Fig. 17.
pub fn run() {
    // Leg 1 measures real perplexity on the micro LM, two corpora, 3 seeds
    // each. Training depends only on the seed, so each LM is trained once
    // and evaluated under every method; only its perplexities are kept.
    // Leg 2 is Llama-3-8B-shaped fidelity (first 4 decoder blocks sampled),
    // without the INT8 baseline, which is exact by construction. Both legs
    // run as one flat parallel job list, the long Llama job first.
    let corpora = [("wikitext-like", 41u64), ("c4-like", 71u64)];
    let methods = methods();
    let compressed = &methods[1..];
    let jobs: Vec<Job> = std::iter::once(Job::Llama)
        .chain(
            corpora
                .iter()
                .flat_map(|&(_, corpus_seed)| (0..3u64).map(move |s| Job::Lm(corpus_seed + s))),
        )
        .collect();
    let done: Vec<Done> = jobs
        .par_iter()
        .map(|job| match *job {
            Job::Llama => {
                let llama = synthesize_model(&llama_subset(4), SEED, weight_cap());
                Done::Llama(compressed.iter().map(|(_, m)| llama.fidelity(m)).collect())
            }
            Job::Lm(seed) => {
                let lm = train_micro_lm(seed);
                let ppl = methods
                    .iter()
                    .map(|(_, m)| lm.perplexity_under(m))
                    .collect();
                Done::Lm(lm.fp32_perplexity(), ppl)
            }
        })
        .collect();
    let mut fits = Vec::new();
    let mut per_seed = Vec::new();
    for d in done {
        match d {
            Done::Llama(llama_fits) => fits = llama_fits,
            Done::Lm(fp32, ppl) => per_seed.push((fp32, ppl)),
        }
    }

    let rows = methods
        .iter()
        .enumerate()
        .map(|(mi, (name, _))| {
            let cells = per_seed.chunks(3).map(|corpus| {
                let mut fp32 = 0.0;
                let mut comp = 0.0;
                for (seed_fp32, ppl) in corpus {
                    fp32 += seed_fp32;
                    comp += ppl[mi];
                }
                Cell::template("{} (fp32 {})", &[(comp / 3.0, 3), (fp32 / 3.0, 3)])
            });
            labelled(name, cells)
        })
        .collect();
    let table = Table::new(
        "Fig. 17 (measured) — micro-LM perplexity after weight compression, 3-seed average (paper: BBS-mod beats Olive at similar footprint; BBS-cons ~ lossless)",
        &["method", "wikitext-like ppl", "c4-like ppl"],
        rows,
    );
    print!("{}", table.render());

    let rows = compressed
        .iter()
        .zip(&fits)
        .map(|((name, _), fit)| {
            vec![
                Cell::text(*name),
                Cell::num(fit.effective_bits, 2),
                Cell::sci(fit.kl_divergence, 2),
                Cell::num(fit.mse, 2),
                Cell::num(fit.output_sqnr_db, 1),
            ]
        })
        .collect();
    let table = Table::new(
        "Fig. 17 (fidelity) — Llama-3-8B-shaped weight fidelity (paper effective bits: Olive 4, BBS cons 6.25, BBS mod 4.25)",
        &["method", "eff bits", "KL", "MSE", "out SQNR dB"],
        rows,
    );
    print!("{}", table.render());
}
