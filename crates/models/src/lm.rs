//! Language-model perplexity substrate (paper §V-H, Fig. 17).
//!
//! The paper measures Llama-3-8B perplexity on Wikitext/C4 under BBS vs
//! Olive compression. Here the *real* measurement is a micro language model
//! trained from scratch on a synthetic Markov corpus — perplexity is
//! honestly computed as `exp(mean NLL)` before and after weight
//! compression — while Llama-3-8B-shaped tensors provide the weight-space
//! fidelity signal at scale (via [`crate::accuracy::evaluate_model_fidelity`]).

use crate::accuracy::{compress_mlp, CompressionMethod};
use crate::layer::ModelSpec;
use crate::trainer::{Dataset, Mlp, Recipe};
use crate::zoo;
use bbs_tensor::rng::SeededRng;

/// A synthetic order-1 Markov corpus with a learnable structure.
#[derive(Debug, Clone, PartialEq)]
pub struct Corpus {
    /// Token stream.
    pub tokens: Vec<usize>,
    /// Vocabulary size.
    pub vocab: usize,
}

/// Generates a Markov corpus: each token has a handful of likely
/// successors, so a trained model achieves perplexity well below vocab
/// size and degradation is measurable.
///
/// # Panics
///
/// Panics if `vocab < 4` or `len == 0`.
pub fn markov_corpus(vocab: usize, len: usize, seed: u64) -> Corpus {
    assert!(vocab >= 4);
    assert!(len > 0);
    let mut rng = SeededRng::new(seed ^ 0xc0de_0123);
    // Sparse transition table: 4 successors per token with decaying mass.
    let successors: Vec<Vec<usize>> = (0..vocab)
        .map(|_| (0..4).map(|_| rng.uniform_usize(0, vocab)).collect())
        .collect();
    let probs = [0.45, 0.30, 0.15, 0.10];
    let mut tokens = Vec::with_capacity(len);
    let mut t = rng.uniform_usize(0, vocab);
    for _ in 0..len {
        tokens.push(t);
        let u = rng.uniform();
        // 10% noise: jump anywhere; otherwise follow the table.
        t = if u < 0.1 {
            rng.uniform_usize(0, vocab)
        } else {
            let mut acc = 0.0;
            let v = rng.uniform();
            let mut next = successors[t][3];
            for (k, &p) in probs.iter().enumerate() {
                acc += p;
                if v < acc {
                    next = successors[t][k];
                    break;
                }
            }
            next
        };
    }
    Corpus { tokens, vocab }
}

/// Converts a corpus into next-token-prediction examples with a 2-token
/// one-hot context.
///
/// # Panics
///
/// Panics if the corpus has fewer than 3 tokens.
pub fn next_token_dataset(corpus: &Corpus) -> Dataset {
    assert!(corpus.tokens.len() >= 3);
    let v = corpus.vocab;
    let mut x = Vec::new();
    let mut y = Vec::new();
    for w in corpus.tokens.windows(3) {
        let mut feat = vec![0.0f32; 2 * v];
        feat[w[1]] = 1.0; // most recent token
        feat[v + w[0]] = 1.0; // previous token
        x.push(feat);
        y.push(w[2]);
    }
    Dataset {
        x,
        y,
        dim: 2 * v,
        classes: v,
    }
}

/// Perplexity of a model on a dataset: `exp(mean NLL)`.
pub fn perplexity(mlp: &Mlp, ds: &Dataset) -> f64 {
    mlp.loss(ds).exp()
}

/// Real perplexity measurements around one compression method.
#[derive(Debug, Clone, PartialEq)]
pub struct LmPerplexity {
    /// FP32 trained-model perplexity.
    pub fp32: f64,
    /// After INT8 per-channel quantization.
    pub int8: f64,
    /// After the evaluated compression method.
    pub compressed: f64,
}

/// The micro LM trained on one seed's corpus, with its held-out split: the
/// fixed model every compression method of Fig. 17 starts from.
#[derive(Debug, Clone)]
pub struct TrainedLm {
    mlp: Mlp,
    test: Dataset,
    fp32: f64,
}

/// Trains the micro LM on the synthetic corpus for `seed`.
pub fn train_micro_lm(seed: u64) -> TrainedLm {
    let (mlp, test) = lm_recipe(seed).run();
    let fp32 = perplexity(&mlp, &test);
    TrainedLm { mlp, test, fp32 }
}

/// The micro LM for `seed` before training.
pub(crate) fn lm_recipe(seed: u64) -> Recipe {
    let vocab = 32;
    // One stream, split 80/20 so train and test share the Markov table.
    let corpus = markov_corpus(vocab, 15_000, seed);
    let split = corpus.tokens.len() * 4 / 5;
    let train_corpus = Corpus {
        tokens: corpus.tokens[..split].to_vec(),
        vocab,
    };
    let test_corpus = Corpus {
        tokens: corpus.tokens[split..].to_vec(),
        vocab,
    };
    Recipe {
        mlp: Mlp::new(2 * vocab, 48, vocab, seed),
        train: next_token_dataset(&train_corpus),
        test: next_token_dataset(&test_corpus),
        epochs: 8,
        lr: 0.03,
        seed,
    }
}

impl TrainedLm {
    /// Test perplexity of the uncompressed FP32 model.
    pub fn fp32_perplexity(&self) -> f64 {
        self.fp32
    }

    /// Test perplexity of a compressed copy of the model; the trained
    /// weights themselves are never modified.
    pub fn perplexity_under(&self, method: &CompressionMethod) -> f64 {
        let mut mlp = self.mlp.clone();
        compress_mlp(&mut mlp, method);
        perplexity(&mlp, &self.test)
    }
}

/// Trains the micro LM on a synthetic corpus and measures perplexity under
/// a compression method (the honest leg of Fig. 17). Callers evaluating
/// several methods on one seed should train once with [`train_micro_lm`].
pub fn measure_lm_perplexity(method: &CompressionMethod, seed: u64) -> LmPerplexity {
    let lm = train_micro_lm(seed);
    LmPerplexity {
        fp32: lm.fp32_perplexity(),
        int8: lm.perplexity_under(&CompressionMethod::int8_baseline()),
        compressed: lm.perplexity_under(method),
    }
}

/// A truncated Llama-3-8B (first `blocks` decoder layers) for tractable
/// fidelity sweeps.
///
/// # Panics
///
/// Panics if `blocks` is 0 or exceeds 32.
pub fn llama_subset(blocks: usize) -> ModelSpec {
    assert!((1..=32).contains(&blocks));
    let full = zoo::llama3_8b();
    let layers = full.layers.into_iter().take(blocks * 7).collect();
    ModelSpec {
        name: "Llama-3-8B",
        family: full.family,
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::CompressionKind;
    use bbs_core::prune::PruneStrategy;

    #[test]
    fn corpus_is_learnable_structure() {
        let c = markov_corpus(32, 5000, 17);
        assert_eq!(c.tokens.len(), 5000);
        assert!(c.tokens.iter().all(|&t| t < 32));
        // Structured: conditional entropy must be far below log(32).
        let ds = next_token_dataset(&c);
        assert_eq!(ds.classes, 32);
        assert_eq!(ds.dim, 64);
    }

    #[test]
    fn trained_lm_beats_uniform_perplexity() {
        let p = measure_lm_perplexity(&CompressionMethod::int8_baseline(), 5);
        // Uniform guessing over 32 tokens would give ppl = 32; the Markov
        // structure is learnable to single digits.
        assert!(p.fp32 < 16.0, "fp32 ppl {}", p.fp32);
        assert!(p.fp32 > 2.0, "implausibly low ppl {}", p.fp32);
    }

    #[test]
    fn int8_quantization_barely_moves_perplexity() {
        let p = measure_lm_perplexity(&CompressionMethod::int8_baseline(), 6);
        assert!(
            (p.int8 / p.fp32 - 1.0).abs() < 0.05,
            "INT8 ppl moved: {} vs {}",
            p.int8,
            p.fp32
        );
    }

    /// The Fig. 17 method set: INT8 plus whole-tensor (β = 0, as in §V-H)
    /// Olive, BBS conservative and BBS moderate.
    fn fig17_methods() -> [CompressionMethod; 4] {
        [
            CompressionMethod::int8_baseline(),
            CompressionMethod::new(CompressionKind::Olive, 0.0),
            CompressionMethod::new(
                CompressionKind::Bbs(PruneStrategy::RoundedAveraging, 2),
                0.0,
            ),
            CompressionMethod::new(
                CompressionKind::Bbs(PruneStrategy::ZeroPointShifting, 4),
                0.0,
            ),
        ]
    }

    #[test]
    fn fig17_ordering_conservative_beats_moderate_beats_olive() {
        // Averaged over 2 seeds: conservative BBS ~ lossless, moderate BBS
        // degrades less than Olive-4bit at similar footprint.
        let [_, m_olive, m_cons, m_mod] = fig17_methods();
        let mut cons = 0.0;
        let mut moderate = 0.0;
        let mut olive = 0.0;
        for seed in [31u64, 32] {
            let lm = train_micro_lm(seed);
            let increase =
                |m: &CompressionMethod| lm.perplexity_under(m) / lm.fp32_perplexity() - 1.0;
            cons += increase(&m_cons);
            moderate += increase(&m_mod);
            olive += increase(&m_olive);
        }
        assert!(
            cons <= moderate + 0.02,
            "conservative ({cons}) must degrade no more than moderate ({moderate})"
        );
        assert!(
            moderate <= olive + 0.02,
            "moderate BBS ({moderate}) must not lose to Olive ({olive})"
        );
    }

    #[test]
    fn trained_lm_is_reused_unchanged_across_methods() {
        // Evaluating never touches the trained weights: any order gives
        // the same bits, and so does retraining for one method.
        let lm = train_micro_lm(41);
        let methods = fig17_methods();
        let forward: Vec<u64> = methods
            .iter()
            .map(|m| lm.perplexity_under(m).to_bits())
            .collect();
        let mut reverse: Vec<u64> = methods
            .iter()
            .rev()
            .map(|m| lm.perplexity_under(m).to_bits())
            .collect();
        reverse.reverse();
        assert_eq!(forward, reverse);

        let one_shot = measure_lm_perplexity(&methods[3], 41);
        assert_eq!(one_shot.fp32.to_bits(), lm.fp32_perplexity().to_bits());
        assert_eq!(one_shot.int8.to_bits(), forward[0]);
        assert_eq!(one_shot.compressed.to_bits(), forward[3]);
    }

    #[test]
    fn llama_subset_shapes() {
        let m = llama_subset(2);
        assert_eq!(m.layers.len(), 14);
        assert_eq!(m.layers[0].channels, 4096);
        assert_eq!(m.layers[4].channels, 14336); // gate projection
    }
}
