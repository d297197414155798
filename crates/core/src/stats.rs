//! Storage and fidelity accounting for compressed models.
//!
//! Produces the numbers the paper reports per benchmark: compression ratio,
//! effective bits per weight (Tables II/III), reconstruction MSE and KL
//! divergence (Fig. 6).

use crate::global::PrunedLayer;
use bbs_tensor::metrics;
use bbs_tensor::quant::QuantTensor;
use std::fmt;

/// Aggregated compression statistics for one or more layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionReport {
    /// Uncompressed weight bits.
    pub original_bits: usize,
    /// Stored bits after compression (metadata included).
    pub stored_bits: usize,
    /// Number of weights covered.
    pub weights: usize,
    /// Reconstruction MSE in the INT8 value domain.
    pub mse: f64,
    /// KL divergence between original and compressed value distributions.
    pub kl_divergence: f64,
}

impl CompressionReport {
    /// Compression ratio (`original / stored`), > 1 is smaller.
    pub fn compression_ratio(&self) -> f64 {
        self.original_bits as f64 / self.stored_bits as f64
    }

    /// Effective bits per weight after compression.
    pub fn effective_bits_per_weight(&self) -> f64 {
        self.stored_bits as f64 / self.weights as f64
    }
}

impl fmt::Display for CompressionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2}x ({:.2} bits/weight, mse {:.3}, kl {:.3e})",
            self.compression_ratio(),
            self.effective_bits_per_weight(),
            self.mse,
            self.kl_divergence
        )
    }
}

/// Builds the report for one pruned layer against its original tensor.
///
/// # Panics
///
/// Panics if the layer and tensor disagree on channel count or length.
pub fn layer_report(layer: &PrunedLayer, original: &QuantTensor) -> CompressionReport {
    assert_eq!(layer.channels.len(), original.channels());
    let mut original_values: Vec<i8> = Vec::with_capacity(original.data.len());
    let mut recon_values: Vec<i32> = Vec::with_capacity(original.data.len());
    let mut stored_bits = 0usize;
    for (c, enc) in layer.channels.iter().enumerate() {
        let w = original.channel(c);
        let d = enc.decode();
        assert_eq!(w.len(), d.len());
        original_values.extend_from_slice(w);
        recon_values.extend(d);
        stored_bits += enc.stored_bits();
    }
    let mse = metrics::mse_i8(&original_values, &recon_values);
    CompressionReport {
        original_bits: original_values.len() * 8,
        stored_bits,
        weights: original_values.len(),
        mse,
        kl_divergence: metrics::kl_divergence_i8_binned(&original_values, &recon_values, 1),
    }
}

/// Aggregates reports weighted by their weight counts (KL is aggregated by
/// bit-weighted average, matching how the paper averages per-layer results).
///
/// # Panics
///
/// Panics if `reports` is empty.
pub fn aggregate(reports: &[CompressionReport]) -> CompressionReport {
    assert!(!reports.is_empty());
    let total_weights: usize = reports.iter().map(|r| r.weights).sum();
    let original_bits = reports.iter().map(|r| r.original_bits).sum();
    let stored_bits = reports.iter().map(|r| r.stored_bits).sum();
    let wavg = |f: fn(&CompressionReport) -> f64| -> f64 {
        reports.iter().map(|r| f(r) * r.weights as f64).sum::<f64>() / total_weights as f64
    };
    CompressionReport {
        original_bits,
        stored_bits,
        weights: total_weights,
        mse: wavg(|r| r.mse),
        kl_divergence: wavg(|r| r.kl_divergence),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{global_prune, GlobalPruneConfig};
    use bbs_tensor::quant::{quantize_per_channel, ScaleMethod};
    use bbs_tensor::rng::SeededRng;
    use bbs_tensor::{Shape, Tensor};

    fn synth(chans: usize, epc: usize, seed: u64) -> QuantTensor {
        let mut rng = SeededRng::new(seed);
        let data = rng.gaussian_vec_f32(chans * epc, 0.0, 0.02);
        let t = Tensor::from_vec(Shape::matrix(chans, epc), data).unwrap();
        quantize_per_channel(&t, 8, ScaleMethod::AbsMax).unwrap()
    }

    #[test]
    fn report_reflects_moderate_compression() {
        // 128 channels so the CH-multiple rounding keeps sensitive ~25%.
        let layer = synth(128, 128, 101);
        let pruned = global_prune(std::slice::from_ref(&layer), &GlobalPruneConfig::moderate());
        let report = layer_report(&pruned[0], &layer);
        assert!(report.compression_ratio() > 1.4);
        assert!(report.effective_bits_per_weight() < 6.0);
        assert!(report.mse > 0.0);
        assert!(report.kl_divergence >= 0.0);
    }

    #[test]
    fn lossless_report_is_exact() {
        use crate::prune::{BinaryPruner, PruneStrategy};
        use bbs_tensor::quant::QuantTensor;
        // Small codes (|w| < 64) guarantee at least one redundant column per
        // group, so even target-0 (lossless) compression shrinks storage.
        let mut rng = SeededRng::new(102);
        let data: Vec<i8> = (0..32 * 64).map(|_| rng.gaussian_i8(0.0, 12.0)).collect();
        let layer = QuantTensor {
            data: Tensor::from_vec(Shape::matrix(32, 64), data).unwrap(),
            scales: vec![0.01; 32],
            bits: 8,
        };
        let cfg = GlobalPruneConfig {
            beta: 0.0,
            ch: 32,
            pruner: BinaryPruner::new(PruneStrategy::RoundedAveraging, 0),
            group_size: 32,
        };
        let pruned = global_prune(std::slice::from_ref(&layer), &cfg);
        let report = layer_report(&pruned[0], &layer);
        assert_eq!(report.mse, 0.0);
        assert!(report.kl_divergence.abs() < 1e-9);
        // Redundant-column removal still shrinks storage.
        assert!(report.compression_ratio() > 1.0);
    }

    #[test]
    fn aggregate_weights_by_size() {
        let a = CompressionReport {
            original_bits: 800,
            stored_bits: 400,
            weights: 100,
            mse: 1.0,
            kl_divergence: 0.1,
        };
        let b = CompressionReport {
            original_bits: 2400,
            stored_bits: 2400,
            weights: 300,
            mse: 3.0,
            kl_divergence: 0.3,
        };
        let agg = aggregate(&[a, b]);
        assert_eq!(agg.weights, 400);
        assert!((agg.mse - 2.5).abs() < 1e-12);
        assert!((agg.kl_divergence - 0.25).abs() < 1e-12);
        assert!((agg.compression_ratio() - 3200.0 / 2800.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_informative() {
        let r = CompressionReport {
            original_bits: 800,
            stored_bits: 500,
            weights: 100,
            mse: 0.5,
            kl_divergence: 1e-4,
        };
        let s = r.to_string();
        assert!(s.contains("1.60x"));
        assert!(s.contains("5.00 bits/weight"));
    }
}
