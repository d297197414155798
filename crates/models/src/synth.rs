//! Synthetic weight and activation generation.
//!
//! Weights are synthesized with the statistics the paper's argument relies
//! on (§II-B): Gaussian-like, small-valued, with per-channel scale spread
//! and a minority of heavy-tailed *outlier channels* (which per-channel
//! quantization turns into the large-scale "sensitive" channels of
//! Algorithm 2). Transformer families get slightly heavier tails.
//!
//! Activations follow the family's nonlinearity: post-ReLU half-Gaussians
//! for CNNs (≈ 50% zeros), GeLU-shaped for transformers (nearly dense —
//! the property that starves value-sparse accelerators like SparTen).

use crate::layer::{LayerSpec, ModelFamily};
use bbs_tensor::quant::{quantize_per_channel, QuantTensor, ScaleMethod};
use bbs_tensor::rng::SeededRng;
use bbs_tensor::{Shape, Tensor};

/// Fraction of outlier channels per layer.
const OUTLIER_FRACTION: f64 = 0.08;
/// Outlier channels have this many times the base spread.
const OUTLIER_SCALE: f64 = 4.0;

/// A layer's synthesized, per-channel-quantized weights, possibly
/// subsampled along the fan-in dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthLayer {
    /// The layer shape this tensor was synthesized for.
    pub spec: LayerSpec,
    /// Per-channel INT8 weights, `[channels, sampled_elems]`.
    pub weights: QuantTensor,
    /// `spec.elems_per_channel / sampled_elems` — scale factor for traffic
    /// extrapolation when the fan-in was subsampled.
    pub sample_factor: f64,
}

/// Synthesizes full-size per-channel-quantized weights for a layer.
pub fn synthesize_weights(spec: &LayerSpec, family: ModelFamily, seed: u64) -> SynthLayer {
    synthesize_weights_sampled(spec, family, seed, usize::MAX)
}

/// The fan-in [`synthesize_weights_sampled`] keeps per channel at cap
/// `max_weights`: the full fan-in if it fits, else a multiple of the
/// compression group size (32) near `max_weights / channels`, never
/// below one group.
fn sampled_fan_in(spec: &LayerSpec, max_weights: usize) -> usize {
    let epc = spec
        .elems_per_channel
        .min((max_weights / spec.channels.max(1)).max(1));
    // When subsampling, keep the fan-in a multiple of the compression group
    // size (32) so group padding does not distort storage statistics.
    if epc < spec.elems_per_channel {
        ((epc / 32).max(1) * 32).min(spec.elems_per_channel)
    } else {
        epc
    }
}

/// How many weights [`synthesize_weights_sampled`] materializes for
/// `spec` at cap `max_weights`: every channel times the sampled fan-in.
/// Every channel keeps at least one group, so a layer with very many
/// channels materializes far more than the cap; request decoders bound
/// untrusted specs by this count before anything is allocated.
pub fn materialized_weights(spec: &LayerSpec, max_weights: usize) -> u64 {
    (spec.channels as u64).saturating_mul(sampled_fan_in(spec, max_weights) as u64)
}

/// Synthesizes weights, subsampling the fan-in dimension so the tensor
/// holds roughly at most `max_weights` values (statistically equivalent
/// for group-level compression: groups never span channels). The cap is
/// best-effort: at least one 32-element group per channel is always
/// materialized, so very wide layers may exceed it
/// ([`materialized_weights`] gives the exact count).
pub fn synthesize_weights_sampled(
    spec: &LayerSpec,
    family: ModelFamily,
    seed: u64,
    max_weights: usize,
) -> SynthLayer {
    let epc = sampled_fan_in(spec, max_weights);
    let mut rng = SeededRng::new(seed ^ 0x5152_cafe);

    let heavy_tail = !matches!(family, ModelFamily::Cnn);
    let mut data = Vec::with_capacity(spec.channels * epc);
    for c in 0..spec.channels {
        // Per-channel spread: lognormal-ish variation around a base sigma,
        // with a minority of outlier channels.
        let base = 0.02 * (1.0 + 0.5 * rng.standard_normal().abs());
        let sigma = if (c as f64 / spec.channels as f64) < OUTLIER_FRACTION {
            base * OUTLIER_SCALE
        } else {
            base
        };
        if heavy_tail {
            for _ in 0..epc {
                let v = if rng.uniform() < 0.02 {
                    // Sparse heavy tail inside normal channels too.
                    rng.student_t(4) * sigma
                } else {
                    rng.gaussian(0.0, sigma)
                };
                data.push(v as f32);
            }
        } else {
            // CNN channels are pure Gaussians: bulk-fill the row (identical
            // sample sequence, hot-loop dispatch hoisted).
            rng.extend_gaussian_f32(&mut data, epc, 0.0, sigma);
        }
    }
    let tensor = Tensor::from_vec(Shape::matrix(spec.channels, epc), data)
        .expect("shape matches constructed data");
    let weights = quantize_per_channel(&tensor, 8, ScaleMethod::AbsMax).expect("rank-2 tensor");
    SynthLayer {
        spec: spec.clone(),
        weights,
        sample_factor: spec.elems_per_channel as f64 / epc as f64,
    }
}

/// Synthesizes INT8 activations with the family's post-nonlinearity
/// statistics.
pub fn synthesize_activations(n: usize, family: ModelFamily, seed: u64) -> Vec<i8> {
    let mut rng = SeededRng::new(seed ^ 0xac71_f00d);
    (0..n)
        .map(|_| match family {
            ModelFamily::Cnn => {
                // Post-ReLU: half the values are exactly zero.
                let v = rng.gaussian(0.0, 40.0);
                if v <= 0.0 {
                    0
                } else {
                    v.min(127.0) as i8
                }
            }
            ModelFamily::VisionTransformer | ModelFamily::Bert | ModelFamily::Llm => {
                // GeLU-shaped: dense, small negative tail.
                let x = rng.gaussian(0.0, 35.0);
                let g = 0.5 * x * (1.0 + (0.7978845608 * (x / 42.0)).tanh());
                g.clamp(-128.0, 127.0) as i8
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerSpec;
    use bbs_tensor::bits::SparsityStats;

    fn spec() -> LayerSpec {
        LayerSpec::linear("t", 512, 128, 16)
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = synthesize_weights(&spec(), ModelFamily::Cnn, 7);
        let b = synthesize_weights(&spec(), ModelFamily::Cnn, 7);
        assert_eq!(a.weights, b.weights);
        let c = synthesize_weights(&spec(), ModelFamily::Cnn, 8);
        assert_ne!(a.weights, c.weights);
    }

    #[test]
    fn outlier_channels_have_larger_scales() {
        let l = synthesize_weights(&spec(), ModelFamily::Cnn, 9);
        let scales = &l.weights.scales;
        let n_outlier = (128.0 * OUTLIER_FRACTION) as usize;
        let outlier_avg: f32 = scales[..n_outlier].iter().sum::<f32>() / n_outlier as f32;
        let normal_avg: f32 =
            scales[n_outlier..].iter().sum::<f32>() / (scales.len() - n_outlier) as f32;
        assert!(
            outlier_avg > 2.0 * normal_avg,
            "outliers {outlier_avg} vs normal {normal_avg}"
        );
    }

    #[test]
    fn weights_reproduce_fig3_sparsity_profile() {
        // Fig. 3: value sparsity < 5%, 2C bit sparsity ~ 45-55%, SM higher,
        // BBS highest.
        let l = synthesize_weights(&spec(), ModelFamily::VisionTransformer, 10);
        let s = SparsityStats::measure(l.weights.data.as_slice());
        assert!(s.value < 0.08, "value sparsity {}", s.value);
        assert!((0.40..=0.60).contains(&s.bit_twos_complement));
        assert!(s.bit_sign_magnitude > s.bit_twos_complement);
        assert!(s.bbs > s.bit_sign_magnitude);
        assert!(s.bbs >= 0.5);
    }

    #[test]
    fn sampling_caps_size_and_tracks_factor() {
        let big = LayerSpec::linear("big", 4096, 256, 1);
        let l = synthesize_weights_sampled(&big, ModelFamily::Llm, 11, 64 * 256);
        assert_eq!(l.weights.elems_per_channel(), 64);
        assert!((l.sample_factor - 64.0).abs() < 1e-12);
        assert_eq!(l.weights.data.len(), 64 * 256);
    }

    #[test]
    fn materialized_count_is_the_synthesized_size() {
        for (spec, cap) in [
            (LayerSpec::linear("fits", 100, 8, 1), 4096),
            (LayerSpec::linear("sampled", 4096, 256, 1), 64 * 256),
            (LayerSpec::linear("floor", 40, 1000, 1), 64),
            (LayerSpec::linear("narrow", 20, 1000, 1), 64),
            (LayerSpec::conv2d("conv", 64, 128, 3, 1, 8), 5000),
        ] {
            let l = synthesize_weights_sampled(&spec, ModelFamily::Cnn, 3, cap);
            assert_eq!(
                materialized_weights(&spec, cap),
                l.weights.data.len() as u64,
                "{spec}"
            );
        }
        let huge = LayerSpec::linear("huge", 32, 1 << 32, 1);
        assert_eq!(materialized_weights(&huge, 4096), 1 << 37);
    }

    #[test]
    fn cnn_activations_are_half_sparse() {
        let a = synthesize_activations(10_000, ModelFamily::Cnn, 12);
        let zeros = a.iter().filter(|&&x| x == 0).count() as f64 / a.len() as f64;
        assert!((0.4..=0.6).contains(&zeros), "ReLU zeros {zeros}");
        assert!(a.iter().all(|&x| x >= 0), "ReLU output is non-negative");
    }

    #[test]
    fn transformer_activations_are_dense() {
        let a = synthesize_activations(10_000, ModelFamily::Bert, 13);
        let zeros = a.iter().filter(|&&x| x == 0).count() as f64 / a.len() as f64;
        assert!(zeros < 0.15, "GeLU zeros {zeros} — should be nearly dense");
        assert!(a.iter().any(|&x| x < 0), "GeLU keeps a negative tail");
    }
}
