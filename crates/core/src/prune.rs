//! Unified binary-pruning front-end over both strategies.
//!
//! The paper's two operating points (§V-A):
//!
//! * **conservative** — 2 sparse columns with rounded averaging,
//! * **moderate** — 4 sparse columns with zero-point shifting.
//!
//! [`BinaryPruner`] compresses groups, channels (with zero padding to the
//! group size) and whole 2-D weight tensors, and reports fidelity/storage
//! statistics.

use crate::averaging::rounded_averaging_packed;
use crate::encoding::CompressedGroup;
use crate::shifting::zero_point_shifting_padded;
use bbs_tensor::bits::PackedGroup;
use bbs_tensor::metrics;
use std::fmt;

/// The paper's group size for compression experiments.
pub const DEFAULT_GROUP_SIZE: usize = 32;

/// Which binary-pruning strategy to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruneStrategy {
    /// Rounded column averaging (Fig. 4) — best for few pruned columns.
    RoundedAveraging,
    /// Zero-point shifting (Fig. 5 / Algo. 1) — best for eager pruning.
    ZeroPointShifting,
}

impl fmt::Display for PruneStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PruneStrategy::RoundedAveraging => write!(f, "rounded-averaging"),
            PruneStrategy::ZeroPointShifting => write!(f, "zero-point-shifting"),
        }
    }
}

/// A compressed weight channel: its groups plus padding bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedChannel {
    /// Compressed groups covering the (padded) channel.
    pub groups: Vec<CompressedGroup>,
    /// Original channel length before zero padding.
    pub len: usize,
    /// Group size used for compression.
    pub group_size: usize,
}

impl CompressedChannel {
    /// Reconstructed integer weights, truncated to the original length.
    pub fn decode(&self) -> Vec<i32> {
        let mut out: Vec<i32> = self.groups.iter().flat_map(|g| g.decode()).collect();
        out.truncate(self.len);
        out
    }

    /// Total storage in bits (padded groups included — padding is what the
    /// hardware actually stores).
    pub fn stored_bits(&self) -> usize {
        self.groups.iter().map(|g| g.stored_bits()).sum()
    }

    /// Reconstruction MSE against the original channel.
    ///
    /// # Panics
    ///
    /// Panics if `original.len() != self.len`.
    pub fn mse(&self, original: &[i8]) -> f64 {
        assert_eq!(original.len(), self.len);
        metrics::mse_i8(original, &self.decode())
    }
}

/// Compresses groups/channels/tensors with a fixed strategy and target
/// sparse-column count.
///
/// # Example
///
/// ```
/// use bbs_core::prune::{BinaryPruner, PruneStrategy};
///
/// let pruner = BinaryPruner::new(PruneStrategy::RoundedAveraging, 2);
/// let channel: Vec<i8> = (0..64).map(|i| (i % 17) as i8 - 8).collect();
/// let compressed = pruner.compress_channel(&channel, 32);
/// assert_eq!(compressed.decode().len(), 64);
/// // These small weights (|w| <= 8) have 3 free redundant columns, already
/// // beyond the target of 2: 5 kept columns * 32 weights + 8 metadata bits
/// // per group — and the compression is lossless.
/// assert_eq!(compressed.stored_bits(), 2 * (5 * 32 + 8));
/// assert_eq!(compressed.mse(&channel), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinaryPruner {
    strategy: PruneStrategy,
    sparse_columns: usize,
}

impl BinaryPruner {
    /// Creates a pruner.
    ///
    /// # Panics
    ///
    /// Panics if `sparse_columns >= 8`.
    pub fn new(strategy: PruneStrategy, sparse_columns: usize) -> Self {
        assert!(sparse_columns < 8, "at least one column must remain");
        BinaryPruner {
            strategy,
            sparse_columns,
        }
    }

    /// The paper's conservative preset: 2 columns, rounded averaging.
    pub fn conservative() -> Self {
        BinaryPruner::new(PruneStrategy::RoundedAveraging, 2)
    }

    /// The paper's moderate preset: 4 columns, zero-point shifting.
    pub fn moderate() -> Self {
        BinaryPruner::new(PruneStrategy::ZeroPointShifting, 4)
    }

    /// The configured strategy.
    pub fn strategy(&self) -> PruneStrategy {
        self.strategy
    }

    /// The configured number of sparse columns.
    pub fn sparse_columns(&self) -> usize {
        self.sparse_columns
    }

    /// Compresses a single group.
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty or exceeds 64 weights.
    pub fn compress_group(&self, group: &[i8]) -> CompressedGroup {
        self.compress_padded(group, group.len())
    }

    /// Compresses the group of `words` zero-padded to `len` weights — the
    /// hot path of the channel and simulator loops, where a channel's
    /// trailing group is partial. Rounded averaging packs the words into
    /// bit planes once; zero-point shifting searches them as bytes and
    /// packs nothing.
    ///
    /// # Panics
    ///
    /// Panics if `words` is empty or longer than `len`, or `len` exceeds
    /// 64.
    pub fn compress_padded(&self, words: &[i8], len: usize) -> CompressedGroup {
        match self.strategy {
            PruneStrategy::RoundedAveraging => rounded_averaging_packed(
                &PackedGroup::from_words_padded(words, len),
                self.sparse_columns,
            ),
            PruneStrategy::ZeroPointShifting => {
                zero_point_shifting_padded(words, len, self.sparse_columns)
            }
        }
    }

    /// Compresses a channel, zero-padding the trailing partial group (no
    /// padded word vector is materialized).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or `group_size` is not in `1..=64`.
    pub fn compress_channel(&self, weights: &[i8], group_size: usize) -> CompressedChannel {
        assert!(!weights.is_empty());
        assert!((1..=64).contains(&group_size));
        let groups = weights
            .chunks(group_size)
            .map(|chunk| self.compress_padded(chunk, group_size))
            .collect();
        CompressedChannel {
            groups,
            len: weights.len(),
            group_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_tensor::rng::SeededRng;

    #[test]
    fn presets_match_paper() {
        let cons = BinaryPruner::conservative();
        assert_eq!(cons.strategy(), PruneStrategy::RoundedAveraging);
        assert_eq!(cons.sparse_columns(), 2);
        let moderate = BinaryPruner::moderate();
        assert_eq!(moderate.strategy(), PruneStrategy::ZeroPointShifting);
        assert_eq!(moderate.sparse_columns(), 4);
    }

    #[test]
    fn channel_padding_roundtrip() {
        let mut rng = SeededRng::new(71);
        let weights: Vec<i8> = (0..50).map(|_| rng.gaussian_i8(0.0, 10.0)).collect();
        let pruner = BinaryPruner::new(PruneStrategy::RoundedAveraging, 0);
        let c = pruner.compress_channel(&weights, 32);
        assert_eq!(c.groups.len(), 2);
        // Target 0 is lossless, padding must not leak into the output.
        let decoded = c.decode();
        assert_eq!(decoded.len(), 50);
        for (w, d) in weights.iter().zip(&decoded) {
            assert_eq!(*w as i32, *d);
        }
        assert_eq!(c.mse(&weights), 0.0);
    }

    #[test]
    fn padded_groups_compress_as_their_zero_padded_words() {
        let mut rng = SeededRng::new(74);
        for n in [1usize, 7, 31, 33, 50] {
            let words: Vec<i8> = (0..n).map(|_| rng.gaussian_i8(0.0, 30.0)).collect();
            let len = n.next_multiple_of(32);
            let mut padded = words.clone();
            padded.resize(len, 0);
            for pruner in [BinaryPruner::conservative(), BinaryPruner::moderate()] {
                assert_eq!(
                    pruner.compress_padded(&words, len),
                    pruner.compress_group(&padded),
                    "{n} words padded to {len}"
                );
            }
        }
    }

    #[test]
    fn moderate_compression_cuts_storage_roughly_in_half() {
        let mut rng = SeededRng::new(72);
        let weights: Vec<i8> = (0..1024).map(|_| rng.gaussian_i8(0.0, 25.0)).collect();
        let c = BinaryPruner::moderate().compress_channel(&weights, 32);
        let orig_bits = weights.len() * 8;
        let ratio = orig_bits as f64 / c.stored_bits() as f64;
        assert!(
            (1.8..=2.1).contains(&ratio),
            "4 of 8 columns pruned -> ~1.9x with metadata, got {ratio}"
        );
    }

    #[test]
    fn conservative_has_lower_error_than_moderate() {
        let mut rng = SeededRng::new(73);
        let weights: Vec<i8> = (0..2048).map(|_| rng.gaussian_i8(0.0, 30.0)).collect();
        let cons = BinaryPruner::conservative().compress_channel(&weights, 32);
        let moderate = BinaryPruner::moderate().compress_channel(&weights, 32);
        assert!(cons.mse(&weights) < moderate.mse(&weights));
    }

    #[test]
    fn strategy_display() {
        assert_eq!(
            PruneStrategy::RoundedAveraging.to_string(),
            "rounded-averaging"
        );
        assert_eq!(
            PruneStrategy::ZeroPointShifting.to_string(),
            "zero-point-shifting"
        );
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn rejects_full_pruning() {
        let _ = BinaryPruner::new(PruneStrategy::RoundedAveraging, 8);
    }
}
