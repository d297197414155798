//! Model lowering: layer specs → simulation workloads with real bit
//! patterns.

use crate::accel::LatencyProfile;
use bbs_models::layer::{ModelFamily, ModelSpec};
use bbs_models::synth::{synthesize_activations, synthesize_weights_sampled};
use bbs_tensor::bits::value_sparsity;
use bbs_tensor::quant::QuantTensor;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A memoized accelerator view of one workload: the latency profile plus
/// the profile-derived storage counters, all independent of the array
/// configuration (`pe_cols`/`lanes` only enter at scheduling time).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEntry {
    /// Per-channel totals of pass latencies and effectual lane-cycles.
    pub profile: LatencyProfile,
    /// Stored weight bits over the sampled fan-in (pre-extrapolation).
    pub stored_bits_sampled: u64,
    /// Side-band metadata bits (e.g. BitVert's channel-index buffer).
    pub index_bits: u64,
}

/// Lazily-built per-accelerator [`ProfileEntry`]s, keyed by the
/// accelerator's profile key (a hash of every parameter that shapes the
/// profile). Lives on the workload, so store-shared lowerings carry their
/// profiles to every simulation that reuses them — a PE-column sweep
/// compresses each weight group once, not once per array geometry.
#[derive(Default)]
pub struct ProfileMemo(Mutex<HashMap<u64, Arc<ProfileEntry>>>);

impl ProfileMemo {
    /// Returns the memoized entry for `key`, building it if absent. A
    /// concurrent race may build twice; the build is deterministic, so
    /// either result is the same and the first insert wins.
    pub fn get_or_build(
        &self,
        key: u64,
        build: impl FnOnce() -> ProfileEntry,
    ) -> Arc<ProfileEntry> {
        if let Some(hit) = self.0.lock().unwrap().get(&key) {
            return Arc::clone(hit);
        }
        let built = Arc::new(build());
        Arc::clone(self.0.lock().unwrap().entry(key).or_insert(built))
    }

    /// Memoized entries (diagnostics).
    pub fn len(&self) -> usize {
        self.0.lock().unwrap().len()
    }

    /// Approximate heap footprint of all memoized profiles, for the
    /// workload store's byte accounting.
    pub fn approx_bytes(&self) -> usize {
        self.0
            .lock()
            .unwrap()
            .values()
            .map(|e| e.profile.approx_bytes() + 64)
            .sum()
    }

    /// Whether nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for ProfileMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ProfileMemo({} entries)", self.len())
    }
}

impl Clone for ProfileMemo {
    /// Clones start empty: the memo is a cache, not data.
    fn clone(&self) -> Self {
        ProfileMemo::default()
    }
}

/// One layer ready for simulation.
#[derive(Debug, Clone)]
pub struct LayerWorkload {
    /// Layer name.
    pub name: String,
    /// Output channels.
    pub channels: usize,
    /// True (full) fan-in per channel.
    pub elems_per_channel: usize,
    /// Output positions reusing the weights.
    pub positions: usize,
    /// Unique input activations.
    pub unique_input_elems: usize,
    /// Statistical family (activation shape).
    pub family: ModelFamily,
    /// Sampled per-channel INT8 weights.
    pub weights: QuantTensor,
    /// Cycle/traffic extrapolation factor for the fan-in subsampling.
    pub sample_factor: f64,
    /// Sampled activations (value-sparsity statistics for SparTen).
    pub activations: Vec<i8>,
    /// Lazily-built per-accelerator latency profiles (ignored by `==`).
    pub profiles: ProfileMemo,
}

impl PartialEq for LayerWorkload {
    /// Equality is over the lowered *data*; the profile memo is a derived
    /// cache and never participates.
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.channels == other.channels
            && self.elems_per_channel == other.elems_per_channel
            && self.positions == other.positions
            && self.unique_input_elems == other.unique_input_elems
            && self.family == other.family
            && self.weights == other.weights
            && self.sample_factor == other.sample_factor
            && self.activations == other.activations
    }
}

impl LayerWorkload {
    /// Total MACs of the (full) layer.
    pub fn macs(&self) -> u64 {
        (self.channels * self.elems_per_channel) as u64 * self.positions as u64
    }

    /// Full parameter count.
    pub fn params(&self) -> usize {
        self.channels * self.elems_per_channel
    }

    /// Output activation count.
    pub fn output_elems(&self) -> usize {
        self.channels * self.positions
    }

    /// Value sparsity of the sampled activations.
    pub fn activation_sparsity(&self) -> f64 {
        value_sparsity(&self.activations)
    }

    /// Value sparsity of the sampled weights.
    pub fn weight_sparsity(&self) -> f64 {
        value_sparsity(self.weights.data.as_slice())
    }
}

/// Lowers a model into per-layer workloads with deterministic synthesis.
///
/// Layers are synthesized in parallel (each layer draws from its own
/// `layer_seed`-derived generator, so per-layer streams are independent of
/// scheduling) and collected in layer order — the result is bit-identical
/// to a sequential lowering for any `RAYON_NUM_THREADS`.
///
/// `max_weights_per_layer` caps the materialized fan-in per layer; cycle
/// and traffic results are extrapolated by the recorded sample factor.
pub fn lower_model(
    model: &ModelSpec,
    seed: u64,
    max_weights_per_layer: usize,
) -> Vec<LayerWorkload> {
    use rayon::prelude::*;
    model
        .layers
        .iter()
        .enumerate()
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|(i, spec)| {
            let layer_seed = seed.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64);
            let synth =
                synthesize_weights_sampled(spec, model.family, layer_seed, max_weights_per_layer);
            let activations = synthesize_activations(
                spec.elems_per_channel.min(4096),
                model.family,
                layer_seed ^ 0xaaaa,
            );
            LayerWorkload {
                name: spec.name.clone(),
                channels: spec.channels,
                elems_per_channel: spec.elems_per_channel,
                positions: spec.positions,
                unique_input_elems: spec.unique_input_elems,
                family: model.family,
                weights: synth.weights,
                sample_factor: synth.sample_factor,
                activations,
                profiles: ProfileMemo::default(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_models::zoo;

    #[test]
    fn lowering_is_deterministic() {
        let m = zoo::vit_small();
        let a = lower_model(&m, 5, 8 * 1024);
        let b = lower_model(&m, 5, 8 * 1024);
        assert_eq!(a.len(), m.layers.len());
        assert_eq!(a[3].weights, b[3].weights);
    }

    /// `model` cut to its distinct layer shapes (Llama-3-8B repeats one
    /// block 32 times), which is the same synthesis per shape.
    fn distinct_shapes(model: &ModelSpec) -> ModelSpec {
        let mut shapes = model.clone();
        let mut seen = std::collections::HashSet::new();
        shapes
            .layers
            .retain(|l| seen.insert((l.channels, l.elems_per_channel)));
        shapes
    }

    /// `materialized_weights` is what lowering allocates, for every zoo
    /// model at the smallest, default and largest server caps, over each
    /// model's distinct layer shapes.
    #[test]
    fn materialized_weights_match_lowering_for_every_zoo_model() {
        use bbs_models::synth::materialized_weights;
        for model in zoo::all() {
            let shapes = distinct_shapes(&model);
            for cap in [1, 4096, 65536] {
                for (layer, lowered) in shapes.layers.iter().zip(lower_model(&shapes, 3, cap)) {
                    assert_eq!(
                        materialized_weights(layer, cap),
                        lowered.weights.data.len() as u64,
                        "{} {} at cap {cap}",
                        model.name,
                        layer.name
                    );
                }
            }
        }
    }

    /// FNV-1a over everything a lowering hands the simulator: each layer's
    /// weight codes, scale bits, sample-factor bits and activations.
    fn lowering_digest(layers: &[LayerWorkload]) -> u64 {
        let mut h = bbs_json::Fnv1a64::new();
        for l in layers {
            let codes: Vec<u8> = l.weights.data.as_slice().iter().map(|&w| w as u8).collect();
            h.write(&codes);
            for s in &l.weights.scales {
                h.write(&s.to_bits().to_le_bytes());
            }
            h.write(&l.sample_factor.to_bits().to_le_bytes());
            let acts: Vec<u8> = l.activations.iter().map(|&a| a as u8).collect();
            h.write(&acts);
        }
        h.finish()
    }

    /// The lowered bytes at serve's default cap, pinned for every zoo
    /// model over its distinct layer shapes. The golden transcript prints
    /// only rounded figures at a smaller cap; these digests see every
    /// synthesized bit, so weight synthesis may change how it computes a
    /// sample but never the sample.
    #[test]
    fn lowered_bytes_are_pinned_at_the_serve_cap() {
        let digests: Vec<(&str, u64)> = zoo::all()
            .iter()
            .map(|m| {
                (
                    m.name,
                    lowering_digest(&lower_model(&distinct_shapes(m), 7, 4096)),
                )
            })
            .collect();
        let pinned: [(&str, u64); 8] = [
            ("VGG-16", 0x7e88_39d2_670e_c256),
            ("ResNet-34", 0x5baf_b15c_7438_1df8),
            ("ResNet-50", 0xb1fa_e2c9_4ff8_1bc6),
            ("ViT-Small", 0xf7da_1c35_87d6_01d8),
            ("ViT-Base", 0xd7ad_674c_ca07_6ace),
            ("Bert-MRPC", 0xd042_850b_3181_2740),
            ("Bert-SST2", 0xd042_850b_3181_2740),
            ("Llama-3-8B", 0x3748_6dc1_d3d6_3e5d),
        ];
        assert_eq!(digests, pinned);
    }

    #[test]
    fn macs_are_preserved_under_sampling() {
        let m = zoo::resnet34();
        let wl = lower_model(&m, 5, 4 * 1024);
        let total: u64 = wl.iter().map(|l| l.macs()).sum();
        assert_eq!(total, m.macs(), "sampling must not change reported MACs");
    }

    #[test]
    fn cnn_activations_sparser_than_bert() {
        let cnn = lower_model(&zoo::resnet34(), 6, 4 * 1024);
        let bert = lower_model(&zoo::bert_sst2(), 6, 4 * 1024);
        let cnn_avg: f64 =
            cnn.iter().map(|l| l.activation_sparsity()).sum::<f64>() / cnn.len() as f64;
        let bert_avg: f64 =
            bert.iter().map(|l| l.activation_sparsity()).sum::<f64>() / bert.len() as f64;
        assert!(cnn_avg > 0.35, "ReLU sparsity {cnn_avg}");
        assert!(bert_avg < 0.15, "GeLU sparsity {bert_avg}");
    }

    #[test]
    fn weight_value_sparsity_is_low() {
        // The paper's Fig. 3 premise: 8-bit PTQ weights are value-dense.
        let wl = lower_model(&zoo::vgg16(), 7, 4 * 1024);
        for l in &wl {
            assert!(
                l.weight_sparsity() < 0.10,
                "{}: {}",
                l.name,
                l.weight_sparsity()
            );
        }
    }
}
