//! Fidelity metrics used throughout the paper's compression arguments.
//!
//! The paper quantifies how well a compressed weight tensor preserves the
//! original INT8 distribution using mean-square error (Figs. 4/5), KL
//! divergence over value histograms (Figs. 1 and 6) and downstream accuracy.
//! This module provides those kernels plus SQNR and cosine similarity used by
//! the layer-output fidelity experiments.

/// Mean square error between two equal-length `f32` slices.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn mse_f32(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "mse requires equal lengths");
    assert!(!a.is_empty(), "mse of empty slices is undefined");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum::<f64>()
        / a.len() as f64
}

/// Mean square error between `i8` values and their (possibly out-of-range)
/// integer reconstructions.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn mse_i8(original: &[i8], reconstructed: &[i32]) -> f64 {
    assert_eq!(original.len(), reconstructed.len());
    assert!(!original.is_empty());
    original
        .iter()
        .zip(reconstructed)
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum::<f64>()
        / original.len() as f64
}

/// Signal-to-quantization-noise ratio in dB: `10·log10(‖s‖² / ‖s−ŝ‖²)`.
///
/// Returns `f64::INFINITY` when the reconstruction is exact.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn sqnr_db(signal: &[f32], reconstructed: &[f32]) -> f64 {
    assert_eq!(signal.len(), reconstructed.len());
    assert!(!signal.is_empty());
    let p_sig: f64 = signal.iter().map(|&x| (x as f64).powi(2)).sum();
    let p_err: f64 = signal
        .iter()
        .zip(reconstructed)
        .map(|(&x, &y)| (x as f64 - y as f64).powi(2))
        .sum();
    if p_err == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (p_sig / p_err).log10()
    }
}

/// Cosine similarity between two vectors; 1.0 for identical directions.
///
/// # Panics
///
/// Panics if lengths differ or either vector is all-zero.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len());
    let dot: f64 = a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum();
    let na: f64 = a.iter().map(|&x| (x as f64).powi(2)).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|&x| (x as f64).powi(2)).sum::<f64>().sqrt();
    assert!(na > 0.0 && nb > 0.0, "cosine of zero vector");
    dot / (na * nb)
}

/// Exact 256-bin histogram of `i8` samples, optionally Laplace-smoothed.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramI8 {
    counts: [u64; 256],
    total: u64,
}

impl HistogramI8 {
    /// Builds a histogram from samples.
    pub fn from_samples(samples: &[i8]) -> Self {
        let mut counts = [0u64; 256];
        for &s in samples {
            counts[(s as i16 + 128) as usize] += 1;
        }
        HistogramI8 {
            counts,
            total: samples.len() as u64,
        }
    }

    /// Builds a histogram from integer reconstructions, clamping values
    /// outside the `i8` range into the rails (out-of-range reconstructions
    /// can appear after zero-point shifting).
    pub fn from_samples_i32(samples: &[i32]) -> Self {
        let mut counts = [0u64; 256];
        for &s in samples {
            let c = s.clamp(-128, 127);
            counts[(c + 128) as usize] += 1;
        }
        HistogramI8 {
            counts,
            total: samples.len() as u64,
        }
    }

    /// Number of samples in the histogram.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count for a particular value.
    pub fn count(&self, value: i8) -> u64 {
        self.counts[(value as i16 + 128) as usize]
    }

    /// Number of distinct values (quantization levels) that occur.
    ///
    /// The paper uses this to argue BBS preserves all quantization levels
    /// while zero-column pruning collapses many (Fig. 1).
    pub fn support_size(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Smoothed probability of a bin (Laplace smoothing with `eps`).
    fn prob(&self, idx: usize, eps: f64) -> f64 {
        (self.counts[idx] as f64 + eps) / (self.total as f64 + 256.0 * eps)
    }

    /// KL divergence `KL(self ‖ other)` with Laplace smoothing.
    ///
    /// This is the metric of Figs. 1 and 6: lower means the compressed
    /// distribution better preserves the original.
    pub fn kl_divergence(&self, other: &HistogramI8) -> f64 {
        const EPS: f64 = 1e-4;
        (0..256)
            .map(|i| {
                let p = self.prob(i, EPS);
                let q = other.prob(i, EPS);
                p * (p / q).ln()
            })
            .sum()
    }
}

/// KL divergence between an original `i8` tensor and an integer-valued
/// reconstruction (convenience wrapper over [`HistogramI8`]).
///
/// # Panics
///
/// Panics if `original` is empty.
pub fn kl_divergence_i8(original: &[i8], reconstructed: &[i32]) -> f64 {
    assert!(!original.is_empty());
    let p = HistogramI8::from_samples(original);
    let q = HistogramI8::from_samples_i32(reconstructed);
    p.kl_divergence(&q)
}

/// KL divergence over a coarse histogram with the given bin width.
///
/// A width of 4 measures distribution preservation at the resolution that
/// matters for quantization-level collapse (the paper's Figs. 1/6
/// argument): sub-bin rounding noise is ignored, while level collapse onto
/// coarse grids (e.g. multiples of 16 after zero-column pruning) remains
/// fully visible.
///
/// # Panics
///
/// Panics if `original` is empty or `bin_width` is zero.
pub fn kl_divergence_i8_binned(original: &[i8], reconstructed: &[i32], bin_width: usize) -> f64 {
    assert!(!original.is_empty());
    let mut p = BinnedHistogramI8::new(bin_width);
    let mut q = BinnedHistogramI8::new(bin_width);
    for &w in original {
        p.add(w as i32);
    }
    for &r in reconstructed {
        q.add(r);
    }
    p.kl_divergence(&q)
}

/// A coarse histogram over the `i8` code range, in bins of `bin_width`
/// adjacent levels; integer values outside the range are clamped into
/// the rails. It is the streaming form of [`kl_divergence_i8_binned`]:
/// count values as they are produced, then compare two histograms,
/// without holding either tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedHistogramI8 {
    counts: Vec<u64>,
    bin_width: usize,
    total: u64,
}

impl BinnedHistogramI8 {
    /// An empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is zero.
    pub fn new(bin_width: usize) -> Self {
        assert!(bin_width > 0);
        BinnedHistogramI8 {
            counts: vec![0; 256usize.div_ceil(bin_width)],
            bin_width,
            total: 0,
        }
    }

    /// Counts one value.
    pub fn add(&mut self, value: i32) {
        self.counts[((value.clamp(-128, 127) + 128) as usize) / self.bin_width] += 1;
        self.total += 1;
    }

    /// Number of values counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// KL divergence `KL(self ‖ other)` with Laplace smoothing.
    ///
    /// # Panics
    ///
    /// Panics if `self` is empty or the bin widths differ.
    pub fn kl_divergence(&self, other: &BinnedHistogramI8) -> f64 {
        assert!(self.total > 0);
        assert_eq!(self.bin_width, other.bin_width, "bin widths differ");
        let bins = self.counts.len();
        let (np, nq) = (self.total as f64, other.total as f64);
        const EPS: f64 = 1e-4;
        (0..bins)
            .map(|i| {
                let pi = (self.counts[i] as f64 + EPS) / (np + bins as f64 * EPS);
                let qi = (other.counts[i] as f64 + EPS) / (nq + bins as f64 * EPS);
                pi * (pi / qi).ln()
            })
            .sum()
    }
}

/// Geometric mean of positive values, the roll-up used by the paper's
/// speedup/energy summaries (Figs. 12/13).
///
/// # Panics
///
/// Panics if `values` is empty or any value is non-positive.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geomean requires positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_basics() {
        assert_eq!(mse_f32(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(mse_f32(&[0.0, 0.0], &[3.0, 4.0]), 12.5);
        assert_eq!(mse_i8(&[1, -2], &[2, -4]), 2.5);
    }

    #[test]
    fn sqnr_of_exact_reconstruction_is_infinite() {
        assert!(sqnr_db(&[1.0, -2.0], &[1.0, -2.0]).is_infinite());
    }

    #[test]
    fn sqnr_drops_with_noise() {
        let s = [1.0f32, 2.0, 3.0, 4.0];
        let small = [1.01f32, 2.01, 3.01, 4.01];
        let big = [1.5f32, 2.5, 3.5, 4.5];
        assert!(sqnr_db(&s, &small) > sqnr_db(&s, &big));
    }

    #[test]
    fn cosine_bounds() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn kl_of_identical_distributions_is_zero() {
        let samples: Vec<i8> = (-100..100).collect();
        let h = HistogramI8::from_samples(&samples);
        assert!(h.kl_divergence(&h).abs() < 1e-12);
    }

    #[test]
    fn kl_is_positive_for_different_distributions() {
        let p = HistogramI8::from_samples(&[-50, -25, 0, 25, 50]);
        let q = HistogramI8::from_samples(&[0, 0, 0, 0, 0]);
        assert!(p.kl_divergence(&q) > 0.1);
    }

    #[test]
    fn kl_detects_level_collapse() {
        // Simulates Fig. 1: zero-column pruning collapses quantization
        // levels, which should show as larger KL than a fine-grained change.
        let original: Vec<i8> = (0..1000).map(|i| ((i % 256) as i16 - 128) as i8).collect();
        let collapsed: Vec<i32> = original.iter().map(|&w| (w as i32 / 8) * 8).collect();
        let preserved: Vec<i32> = original
            .iter()
            .map(|&w| (w as i32 + if w % 2 == 0 { 1 } else { 0 }).clamp(-128, 127))
            .collect();
        let kl_collapsed = kl_divergence_i8(&original, &collapsed);
        let kl_preserved = kl_divergence_i8(&original, &preserved);
        assert!(
            kl_collapsed > kl_preserved,
            "collapse {kl_collapsed} vs preserve {kl_preserved}"
        );
    }

    #[test]
    fn support_size_counts_levels() {
        let h = HistogramI8::from_samples(&[1, 1, 2, 3]);
        assert_eq!(h.support_size(), 3);
        assert_eq!(h.total(), 4);
        assert_eq!(h.count(1), 2);
    }

    #[test]
    fn histogram_from_i32_clamps_rails() {
        let h = HistogramI8::from_samples_i32(&[300, -300, 0]);
        assert_eq!(h.count(127), 1);
        assert_eq!(h.count(-128), 1);
        assert_eq!(h.count(0), 1);
    }

    #[test]
    fn binned_histogram_clamps_rails_and_sees_collapse() {
        let mut rails = BinnedHistogramI8::new(4);
        let mut exact = BinnedHistogramI8::new(4);
        for (r, e) in [(300, 127), (-300, -128), (3, 3)] {
            rails.add(r);
            exact.add(e);
        }
        assert_eq!(rails, exact);
        assert_eq!(rails.total(), 3);
        let orig: Vec<i8> = (-64..64).collect();
        let collapsed: Vec<i32> = orig.iter().map(|&w| (w as i32 / 16) * 16).collect();
        assert!(kl_divergence_i8_binned(&orig, &collapsed, 4) > 0.5);
    }

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }
}
