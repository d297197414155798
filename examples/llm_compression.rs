//! LLM weight compression (the paper's §V-H): BBS vs Olive on
//! Llama-3-8B-shaped tensors, plus *measured* perplexity on the trained
//! micro language model.
//!
//! ```sh
//! cargo run --release --example llm_compression
//! ```

use bbs::core::prune::PruneStrategy;
use bbs::models::accuracy::{synthesize_model, CompressionKind, CompressionMethod};
use bbs::models::lm::{llama_subset, train_micro_lm};

fn main() {
    let methods = [
        (
            "Olive-4b",
            CompressionMethod::new(CompressionKind::Olive, 0.0),
        ),
        (
            "BBS cons (6.25b)",
            CompressionMethod::new(
                CompressionKind::Bbs(PruneStrategy::RoundedAveraging, 2),
                0.0,
            ),
        ),
        (
            "BBS mod (4.25b)",
            CompressionMethod::new(
                CompressionKind::Bbs(PruneStrategy::ZeroPointShifting, 4),
                0.0,
            ),
        ),
    ];

    // One trained model and one synthesized model serve every method.
    println!("micro-LM perplexity (measured, lower is better):");
    let lm = train_micro_lm(41);
    let fp32 = lm.fp32_perplexity();
    for (name, method) in &methods {
        let ppl = lm.perplexity_under(method);
        println!(
            "  {:<17} ppl {:.3} (fp32 {:.3}, +{:.2}%)",
            name,
            ppl,
            fp32,
            100.0 * (ppl / fp32 - 1.0)
        );
    }

    println!("\nLlama-3-8B-shaped weight fidelity (first 4 decoder blocks, sampled):");
    let llama = synthesize_model(&llama_subset(4), 7, 64 * 1024);
    for (name, method) in &methods {
        let f = llama.fidelity(method);
        println!(
            "  {:<17} {:.2} bits/weight, KL {:.2e}, output SQNR {:.1} dB",
            name, f.effective_bits, f.kl_divergence, f.output_sqnr_db
        );
    }
}
