//! Hardware-aware **global binary pruning** (paper Algorithm 2).
//!
//! Pruning sensitivity is proxied by the per-channel quantization scale
//! factor: channels holding outliers get large scales and are kept at full
//! 8-bit precision. The top `β` fraction of channels *across the whole
//! model* is sensitive; within each layer the sensitive count is rounded up
//! to a multiple of the hardware parallelism `CH` so reordered chunks map
//! cleanly onto the PE array.
//!
//! Selecting the sensitive channels takes linear time: the top `k` under
//! (scale descending, position ascending) is found by selection, not by
//! sorting. Normal channels are compressed group by group through
//! [`BinaryPruner::compress_channel`]: rounded averaging packs each group
//! into bit planes once, and zero-point shifting runs its bounded search
//! on byte lanes.

use crate::prune::{BinaryPruner, CompressedChannel, DEFAULT_GROUP_SIZE};
use bbs_tensor::quant::QuantTensor;

/// Hardware parallelism: weight channels processed together by BitVert.
pub const DEFAULT_CH: usize = 32;

/// Configuration for global binary pruning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalPruneConfig {
    /// Minimum fraction of sensitive channels kept at 8 bits (`β`).
    pub beta: f64,
    /// Channels processed in parallel by the accelerator (`CH`).
    pub ch: usize,
    /// The pruner applied to normal (non-sensitive) channels.
    pub pruner: BinaryPruner,
    /// Compression group size.
    pub group_size: usize,
}

impl GlobalPruneConfig {
    /// The paper's conservative preset: β = 10%, 2 columns, averaging.
    pub fn conservative() -> Self {
        GlobalPruneConfig {
            beta: 0.10,
            ch: DEFAULT_CH,
            pruner: BinaryPruner::conservative(),
            group_size: DEFAULT_GROUP_SIZE,
        }
    }

    /// The paper's moderate preset: β = 20%, 4 columns, shifting.
    pub fn moderate() -> Self {
        GlobalPruneConfig {
            beta: 0.20,
            ch: DEFAULT_CH,
            pruner: BinaryPruner::moderate(),
            group_size: DEFAULT_GROUP_SIZE,
        }
    }
}

/// One channel of a globally pruned layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelEncoding {
    /// Sensitive channel kept at full 8-bit precision (no metadata).
    Raw(Vec<i8>),
    /// Normal channel after binary pruning.
    Pruned(CompressedChannel),
}

impl ChannelEncoding {
    /// Reconstructed integer weights.
    pub fn decode(&self) -> Vec<i32> {
        match self {
            ChannelEncoding::Raw(w) => w.iter().map(|&x| x as i32).collect(),
            ChannelEncoding::Pruned(c) => c.decode(),
        }
    }

    /// Storage in bits.
    pub fn stored_bits(&self) -> usize {
        match self {
            ChannelEncoding::Raw(w) => w.len() * 8,
            ChannelEncoding::Pruned(c) => c.stored_bits(),
        }
    }
}

/// A layer after global binary pruning, indexed by original channel.
#[derive(Debug, Clone, PartialEq)]
pub struct PrunedLayer {
    /// Per-channel sensitivity (true = kept at 8 bits).
    pub sensitive: Vec<bool>,
    /// Per-channel encodings in original channel order.
    pub channels: Vec<ChannelEncoding>,
}

impl PrunedLayer {
    /// Number of sensitive channels.
    pub fn sensitive_count(&self) -> usize {
        self.sensitive.iter().filter(|&&s| s).count()
    }

    /// Total storage in bits.
    pub fn stored_bits(&self) -> usize {
        self.channels.iter().map(|c| c.stored_bits()).sum()
    }
}

/// Selects per-layer sensitivity masks from per-channel scale factors
/// (Algorithm 2, lines 1–9).
///
/// The model's `⌈β·N⌉` channels with the largest scales are sensitive;
/// each layer's count of them is rounded up to a multiple of `ch` (capped
/// at the layer's width), and the layer keeps that many of its own
/// largest-scale channels. Equal scales go to the lower position (layer,
/// then channel), which is the order a stable descending sort gives.
///
/// # Panics
///
/// Panics if `layer_scales` is empty, any layer has no channels, any scale
/// is NaN, `beta` is outside `[0, 1]`, or `ch` is zero.
pub fn select_sensitive_channels(
    layer_scales: &[Vec<f32>],
    beta: f64,
    ch: usize,
) -> Vec<Vec<bool>> {
    assert!(!layer_scales.is_empty());
    assert!(layer_scales.iter().all(|l| !l.is_empty()));
    assert!(
        layer_scales.iter().flatten().all(|s| !s.is_nan()),
        "scales must not be NaN"
    );
    assert!((0.0..=1.0).contains(&beta), "beta must be a fraction");
    assert!(ch > 0);

    // How many of the model's top channels each layer holds.
    let total: usize = layer_scales.iter().map(Vec::len).sum();
    let global_sensitive = ((total as f64) * beta).ceil() as usize;
    let mut per_layer_count = vec![0usize; layer_scales.len()];
    if global_sensitive > 0 {
        let mut top = TopK::new(&mut layer_scales.concat(), global_sensitive);
        for (count, scales) in per_layer_count.iter_mut().zip(layer_scales) {
            *count = scales.iter().filter(|&&s| top.takes(s)).count();
        }
    }

    // Per layer: round the count up to a multiple of CH (capped at the
    // layer's channel count) and take the layer-local top channels.
    let mut scratch = Vec::new();
    layer_scales
        .iter()
        .zip(per_layer_count)
        .map(|(scales, count)| {
            let num_sens = (count.div_ceil(ch) * ch).min(scales.len());
            if num_sens == 0 {
                return vec![false; scales.len()];
            }
            scratch.clear();
            scratch.extend_from_slice(scales);
            let mut top = TopK::new(&mut scratch, num_sens);
            scales.iter().map(|&s| top.takes(s)).collect()
        })
        .collect()
}

/// The top `k` of a list of scales under (scale descending, position
/// ascending), without sorting: every scale above the `k`-th largest is
/// in, and of the scales equal to it, the first ones in position order
/// fill the remaining places.
struct TopK {
    /// The `k`-th largest scale.
    pivot: f32,
    /// Places left for scales equal to `pivot`.
    ties: usize,
}

impl TopK {
    /// The top `k` of `scales` (reordered in place as scratch).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k <= scales.len()`, or if a scale is NaN.
    fn new(scales: &mut [f32], k: usize) -> Self {
        let descending = |a: &f32, b: &f32| b.partial_cmp(a).expect("scales must not be NaN");
        let (above, &mut pivot, _) = scales.select_nth_unstable_by(k - 1, descending);
        let greater = above.iter().filter(|&&s| s > pivot).count();
        TopK {
            pivot,
            ties: k - greater,
        }
    }

    /// Whether the scale at the next position is in the top `k`; call it
    /// once per position, in position order.
    fn takes(&mut self, scale: f32) -> bool {
        if scale > self.pivot {
            true
        } else if scale == self.pivot && self.ties > 0 {
            self.ties -= 1;
            true
        } else {
            false
        }
    }
}

/// Applies global binary pruning to a set of per-channel quantized layers
/// (Algorithm 2, lines 10–14).
///
/// # Panics
///
/// Panics under the same conditions as [`select_sensitive_channels`].
pub fn global_prune(layers: &[QuantTensor], cfg: &GlobalPruneConfig) -> Vec<PrunedLayer> {
    let targets = vec![cfg.pruner.sparse_columns(); layers.len()];
    global_prune_mixed(layers, cfg, &targets)
}

/// Algorithm 2's per-layer variant: "prune a different number of bit
/// columns for different layers". `layer_targets[i]` overrides the
/// sparse-column count for layer `i`; the strategy, β and CH come from
/// `cfg`.
///
/// # Panics
///
/// Panics if `layer_targets.len() != layers.len()`, any target is ≥ 8, or
/// under the same conditions as [`select_sensitive_channels`].
fn global_prune_mixed(
    layers: &[QuantTensor],
    cfg: &GlobalPruneConfig,
    layer_targets: &[usize],
) -> Vec<PrunedLayer> {
    assert_eq!(layer_targets.len(), layers.len());
    let scales: Vec<Vec<f32>> = layers.iter().map(|l| l.scales.clone()).collect();
    let masks = select_sensitive_channels(&scales, cfg.beta, cfg.ch);
    layers
        .iter()
        .zip(&masks)
        .zip(layer_targets)
        .map(|((layer, mask), &target)| {
            let pruner = crate::prune::BinaryPruner::new(cfg.pruner.strategy(), target);
            let channels = (0..layer.channels())
                .map(|c| {
                    let w = layer.channel(c);
                    if mask[c] {
                        ChannelEncoding::Raw(w.to_vec())
                    } else {
                        ChannelEncoding::Pruned(pruner.compress_channel(w, cfg.group_size))
                    }
                })
                .collect();
            PrunedLayer {
                sensitive: mask.clone(),
                channels,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_tensor::quant::{quantize_per_channel, ScaleMethod};
    use bbs_tensor::rng::SeededRng;
    use bbs_tensor::{Shape, Tensor};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The oracle for [`select_sensitive_channels`]: Algorithm 2 by
    /// sorting. A stable descending sort of every (layer, channel, scale)
    /// triple gives each layer's share of the global top, and a stable
    /// descending sort of each layer's scales gives its mask.
    fn select_by_sorting(layer_scales: &[Vec<f32>], beta: f64, ch: usize) -> Vec<Vec<bool>> {
        let mut all: Vec<(usize, usize, f32)> = Vec::new();
        for (li, scales) in layer_scales.iter().enumerate() {
            for (ci, &s) in scales.iter().enumerate() {
                all.push((li, ci, s));
            }
        }
        all.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("scales must not be NaN"));
        let global_sensitive = ((all.len() as f64) * beta).ceil() as usize;

        let mut per_layer_count = vec![0usize; layer_scales.len()];
        for &(li, _, _) in all.iter().take(global_sensitive) {
            per_layer_count[li] += 1;
        }

        let mut masks = Vec::with_capacity(layer_scales.len());
        for (li, scales) in layer_scales.iter().enumerate() {
            let mut num_sens = per_layer_count[li];
            if num_sens > 0 {
                num_sens = num_sens.div_ceil(ch) * ch;
            }
            num_sens = num_sens.min(scales.len());

            let mut order: Vec<usize> = (0..scales.len()).collect();
            order.sort_by(|&a, &b| {
                scales[b]
                    .partial_cmp(&scales[a])
                    .expect("scales must not be NaN")
            });
            let mut mask = vec![false; scales.len()];
            for &c in order.iter().take(num_sens) {
                mask[c] = true;
            }
            masks.push(mask);
        }
        masks
    }

    /// Scales drawn from a few values, so that ties are common; `-0.0`
    /// ties with `0.0`.
    const TIED_SCALES: [f32; 6] = [0.0, -0.0, 0.003, 0.01, 0.010_000_001, 0.5];

    proptest! {
        #[test]
        fn selection_equals_the_sorting_oracle(
            layers in vec(vec(0usize..TIED_SCALES.len(), 1..=300), 1..=6),
            beta_kind in 0usize..3,
            random_beta in 0.0f64..=1.0,
            ch in 1usize..=64,
        ) {
            let scales: Vec<Vec<f32>> = layers
                .iter()
                .map(|l| l.iter().map(|&i| TIED_SCALES[i]).collect())
                .collect();
            let beta = [0.0, random_beta, 1.0][beta_kind];
            prop_assert_eq!(
                select_sensitive_channels(&scales, beta, ch),
                select_by_sorting(&scales, beta, ch),
                "beta {} ch {}", beta, ch
            );
        }
    }

    #[test]
    #[should_panic(expected = "scales must not be NaN")]
    fn nan_scales_are_rejected() {
        let _ = select_sensitive_channels(&[vec![0.5, f32::NAN]], 0.0, 1);
    }

    fn synth_layer(chans: usize, epc: usize, outliers: usize, seed: u64) -> QuantTensor {
        let mut rng = SeededRng::new(seed);
        let mut data = Vec::with_capacity(chans * epc);
        for c in 0..chans {
            let sigma = if c < outliers { 0.15 } else { 0.02 };
            data.extend(rng.gaussian_vec_f32(epc, 0.0, sigma));
        }
        let t = Tensor::from_vec(Shape::matrix(chans, epc), data).unwrap();
        quantize_per_channel(&t, 8, ScaleMethod::AbsMax).unwrap()
    }

    #[test]
    fn sensitive_counts_are_multiples_of_ch() {
        let layers = vec![
            synth_layer(64, 64, 8, 91),
            synth_layer(96, 64, 20, 92),
            synth_layer(128, 64, 2, 93),
        ];
        let scales: Vec<Vec<f32>> = layers.iter().map(|l| l.scales.clone()).collect();
        let masks = select_sensitive_channels(&scales, 0.10, 32);
        for (mask, layer) in masks.iter().zip(&layers) {
            let count = mask.iter().filter(|&&s| s).count();
            assert!(
                count % 32 == 0 || count == layer.channels(),
                "count {count} must be a CH multiple or the whole layer"
            );
        }
    }

    #[test]
    fn beta_is_a_floor_on_sensitive_fraction() {
        let layers = [synth_layer(128, 64, 16, 94), synth_layer(128, 64, 16, 95)];
        let scales: Vec<Vec<f32>> = layers.iter().map(|l| l.scales.clone()).collect();
        let masks = select_sensitive_channels(&scales, 0.20, 32);
        let total: usize = masks.iter().flatten().filter(|&&s| s).count();
        let all: usize = masks.iter().map(|m| m.len()).sum();
        assert!(
            total as f64 >= 0.20 * all as f64,
            "rounding up to CH multiples can only increase the fraction"
        );
    }

    #[test]
    fn outlier_channels_are_selected() {
        let layers = [synth_layer(64, 64, 8, 96)];
        let scales: Vec<Vec<f32>> = layers.iter().map(|l| l.scales.clone()).collect();
        let masks = select_sensitive_channels(&scales, 0.10, 8);
        // The 8 outlier channels (largest scales) must all be sensitive.
        for (c, &sensitive) in masks[0].iter().take(8).enumerate() {
            assert!(sensitive, "outlier channel {c} must be sensitive");
        }
    }

    #[test]
    fn beta_zero_marks_nothing() {
        let layers = [synth_layer(64, 64, 4, 97)];
        let scales: Vec<Vec<f32>> = layers.iter().map(|l| l.scales.clone()).collect();
        let masks = select_sensitive_channels(&scales, 0.0, 32);
        assert!(masks[0].iter().all(|&s| !s));
    }

    #[test]
    fn global_prune_leaves_sensitive_channels_exact() {
        let layers = vec![synth_layer(64, 96, 8, 98)];
        let pruned = global_prune(&layers, &GlobalPruneConfig::moderate());
        let layer = &pruned[0];
        assert!(layer.sensitive_count() >= 8);
        for (c, enc) in layer.channels.iter().enumerate() {
            let decoded = enc.decode();
            let original: Vec<i32> = layers[0].channel(c).iter().map(|&w| w as i32).collect();
            if layer.sensitive[c] {
                assert_eq!(decoded, original, "sensitive channel must be exact");
            } else {
                assert_ne!(decoded.len(), 0);
            }
        }
    }

    #[test]
    fn pruned_model_is_smaller() {
        // Enough channels that the CH-multiple rounding does not inflate the
        // sensitive fraction far beyond beta (26 -> 32 of 128 = 25%).
        let layers = vec![synth_layer(128, 96, 8, 99)];
        let pruned = global_prune(&layers, &GlobalPruneConfig::moderate());
        let stored = pruned[0].stored_bits();
        let original = 128 * 96 * 8;
        let ratio = original as f64 / stored as f64;
        assert!(
            ratio > 1.4,
            "moderate pruning with ~25% sensitive should give >1.4x, got {ratio}"
        );
    }

    #[test]
    fn ch_rounding_inflates_small_layers() {
        // A single small layer: beta=20% of 64 channels is 13, rounded up to
        // the CH=32 multiple -> half the layer stays sensitive. This is the
        // hardware-alignment cost the paper accepts.
        let layers = vec![synth_layer(64, 96, 8, 103)];
        let pruned = global_prune(&layers, &GlobalPruneConfig::moderate());
        assert_eq!(pruned[0].sensitive_count(), 32);
    }

    #[test]
    fn mixed_targets_shift_error_toward_robust_layers() {
        let layers = vec![
            synth_layer(64, 96, 16, 111), // many outliers -> sensitive layer
            synth_layer(64, 96, 0, 112),  // no outliers -> robust layer
        ];
        let cfg = GlobalPruneConfig {
            beta: 0.0,
            ..GlobalPruneConfig::moderate()
        };
        // The outlier-heavy layer gets the gentler target.
        let mixed = global_prune_mixed(&layers, &cfg, &[3, 5]);
        let uniform = global_prune(&layers, &cfg);
        // Sensitive layer keeps more bits under mixed targets...
        assert!(mixed[0].stored_bits() > uniform[0].stored_bits());
        // ...paid for by the robust layer.
        assert!(mixed[1].stored_bits() < uniform[1].stored_bits());
    }

    #[test]
    fn mixed_targets_roundtrip_lengths() {
        let layers = vec![synth_layer(32, 64, 4, 113)];
        let cfg = GlobalPruneConfig::moderate();
        let pruned = global_prune_mixed(&layers, &cfg, &[2]);
        for (c, enc) in pruned[0].channels.iter().enumerate() {
            assert_eq!(enc.decode().len(), layers[0].channel(c).len());
        }
    }

    #[test]
    fn conservative_preset_compression_near_paper() {
        // Paper: conservative pruning compresses ~1.29x on average.
        let layers = vec![synth_layer(128, 128, 13, 100)];
        let pruned = global_prune(&layers, &GlobalPruneConfig::conservative());
        let ratio = (128.0 * 128.0 * 8.0) / pruned[0].stored_bits() as f64;
        assert!(
            (1.15..=1.45).contains(&ratio),
            "conservative ratio {ratio} out of the paper's band"
        );
    }
}
