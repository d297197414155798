//! Binary pruning by **rounded column averaging** (paper Fig. 4).
//!
//! To generate `n` bi-directional sparse columns in a group:
//!
//! 1. remove up to `min(3, n)` redundant sign-extension columns (lossless),
//! 2. replace the `g = n - r` least-significant columns of *every* weight by
//!    one shared `g`-bit constant — the rounded mean of the low-bit values,
//!    which is the MSE-optimal integer constant,
//! 3. store the remaining columns plus the 8-bit metadata.
//!
//! The pruned low columns are bi-directionally sparse by construction: the
//! `j`-th pruned column is all-zeros or all-ones according to bit `j` of the
//! constant — exactly the encoding the BitVert BBS multiplier consumes.

use crate::encoding::{BbsMetadata, CompressedGroup, ConstantKind, CONSTANT_BITS};
use crate::redundant::encoded_redundant_columns_packed;
use bbs_tensor::bits::{PackedGroup, WEIGHT_BITS};

/// Maximum total sparse columns a single group may be asked to generate
/// (at least one column must remain).
pub const MAX_SPARSE_COLUMNS: usize = WEIGHT_BITS - 1;

/// Compresses a group with rounded column averaging, generating at least
/// `target_sparse` sparse columns (redundant + averaged).
///
/// Redundant sign-extension columns are always removed (up to the 2-bit
/// metadata cap of 3) — they are free, lossless compression, so a group may
/// end up with *more* than `target_sparse` pruned columns. If the target
/// exceeds what the encoding supports (`averaged ≤ 6`, at least one kept
/// column), the group is pruned as far as the encoding allows.
///
/// # Panics
///
/// Panics if `group` is empty, exceeds 64 weights, or
/// `target_sparse > MAX_SPARSE_COLUMNS`.
pub fn rounded_averaging(group: &[i8], target_sparse: usize) -> CompressedGroup {
    rounded_averaging_packed(&PackedGroup::from_words(group), target_sparse)
}

/// The packed-representation averaging kernel: redundant columns from mask
/// comparisons, the low-bit sum from per-plane popcounts, and the kept
/// columns sliced straight out of the bit planes (replacing the `g` low
/// columns by the constant cannot change columns at significance ≥ `g`, so
/// no modified group is ever materialized).
///
/// Bit-identical to the per-weight oracle in this module's tests.
///
/// # Panics
///
/// Panics if `target_sparse > MAX_SPARSE_COLUMNS`.
pub fn rounded_averaging_packed(packed: &PackedGroup, target_sparse: usize) -> CompressedGroup {
    assert!(
        target_sparse <= MAX_SPARSE_COLUMNS,
        "cannot prune {target_sparse} of {WEIGHT_BITS} columns"
    );
    let r = encoded_redundant_columns_packed(packed);
    let g = target_sparse.saturating_sub(r).min(CONSTANT_BITS);
    let c = if g == 0 {
        0u8
    } else {
        // Same integer sum and f64 rounding as the per-weight oracle, so
        // the constant (ties included) is bit-identical.
        let mask = (1u32 << g) - 1;
        let mean = packed.low_bits_sum(g) as f64 / packed.len() as f64;
        (mean.round() as u32).min(mask) as u8
    };
    let kept: Vec<u64> = (g..WEIGHT_BITS - r).map(|b| packed.column(b)).collect();

    CompressedGroup::from_parts(
        packed.len(),
        kept,
        BbsMetadata {
            num_redundant: r as u8,
            constant: c as i8,
        },
        ConstantKind::LowBitsAverage,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redundant::{group_redundant_columns_scalar, MAX_ENCODED_REDUNDANT};
    use bbs_tensor::metrics::mse_i8;
    use bbs_tensor::rng::SeededRng;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The MSE-optimal shared constant for the `g` low bits of a group: the
    /// rounded mean of `w & (2^g - 1)`.
    fn optimal_low_bits_constant(group: &[i8], g: usize) -> u8 {
        assert!(!group.is_empty());
        assert!(g <= CONSTANT_BITS, "averaging constant limited to 6 bits");
        if g == 0 {
            return 0;
        }
        let mask = (1u32 << g) - 1;
        let sum: u32 = group.iter().map(|&w| (w as u8 as u32) & mask).sum();
        let mean = sum as f64 / group.len() as f64;
        (mean.round() as u32).min(mask) as u8
    }

    /// The per-weight oracle for [`rounded_averaging`]: low-bit
    /// replacement followed by a full repack.
    fn rounded_averaging_scalar(group: &[i8], target_sparse: usize) -> CompressedGroup {
        assert!(target_sparse <= MAX_SPARSE_COLUMNS);
        let r = group_redundant_columns_scalar(group).min(MAX_ENCODED_REDUNDANT);
        let g = target_sparse.saturating_sub(r).min(CONSTANT_BITS);
        let c = optimal_low_bits_constant(group, g);

        // Replace low bits, then take the kept columns from the modified group.
        let mask = if g == 0 { 0u8 } else { (1u16 << g) as u8 - 1 };
        let modified: Vec<i8> = group
            .iter()
            .map(|&w| (((w as u8) & !mask) | c) as i8)
            .collect();
        let bits = PackedGroup::from_words(&modified);
        let kept: Vec<u64> = (g..WEIGHT_BITS - r).map(|b| bits.column(b)).collect();

        CompressedGroup::from_parts(
            group.len(),
            kept,
            BbsMetadata {
                num_redundant: r as u8,
                constant: c as i8,
            },
            ConstantKind::LowBitsAverage,
        )
    }

    proptest! {
        #[test]
        fn packed_averaging_equals_scalar_oracle(
            w in vec(any::<i8>(), 1..=64),
            target in 0usize..=7,
        ) {
            prop_assert_eq!(
                rounded_averaging(&w, target),
                rounded_averaging_scalar(&w, target)
            );
        }
    }

    /// Every `i8` as a single-lane group, and each paired with a sweep of
    /// companions (group-level redundant counting and low-bit sums),
    /// across the legal targets.
    #[test]
    fn packed_averaging_equals_scalar_oracle_across_all_i8() {
        for w in i8::MIN..=i8::MAX {
            for target in 0usize..8 {
                assert_eq!(
                    rounded_averaging(&[w], target),
                    rounded_averaging_scalar(&[w], target),
                    "averaging w={w} target={target}"
                );
            }
            let o = (w as i16).wrapping_mul(37).wrapping_add(11) as i8;
            let group = [w, o, w.wrapping_add(o), o.wrapping_sub(w)];
            for target in [0usize, 2, 4, 7] {
                assert_eq!(
                    rounded_averaging(&group, target),
                    rounded_averaging_scalar(&group, target),
                    "averaging group={group:?} target={target}"
                );
            }
        }
    }

    /// Pins the tie behaviour of the averaging constant: the rounded mean
    /// uses `f64::round`, which breaks `x.5` ties *away from zero* (up,
    /// since the low-bit mean is non-negative). The packed kernel
    /// reproduces this exactly because it feeds the identical integer sum
    /// through the identical f64 expression.
    #[test]
    fn optimal_low_bits_constant_tie_rounding_regression() {
        // mean 0.5 → 1, not 0.
        assert_eq!(optimal_low_bits_constant(&[0, 1], 1), 1);
        // mean 2.5 → 3 (two bits).
        assert_eq!(optimal_low_bits_constant(&[2, 3], 2), 3);
        // mean 1.5 over four weights → 2.
        assert_eq!(optimal_low_bits_constant(&[1, 1, 2, 2], 3), 2);
        // mean 31.5 at the 6-bit field edge → 32.
        assert_eq!(optimal_low_bits_constant(&[31, 32], 6), 32);
        // A non-tie sanity point: mean 0.25 → 0.
        assert_eq!(optimal_low_bits_constant(&[0, 0, 0, 1], 1), 0);
        // The tie value flows through the full kernel identically on both
        // paths: low bits {0,1} average to 1.
        let group = [16i8, 17, 16, 17];
        let packed = rounded_averaging(&group, 4);
        assert_eq!(packed.metadata().constant, 1);
        assert_eq!(packed, rounded_averaging_scalar(&group, 4));
    }

    #[test]
    fn paper_fig4_walkthrough() {
        // Original weights of Fig. 4: -11, 20, -57, 13; target 4 sparse
        // columns. The paper finds 1 redundant column, averages the low
        // 3-bit values {5, 4, 7, 5} to the constant 5 and produces
        // {-11, 21, -59, 13}.
        let group = [-11i8, 20, -57, 13];
        let enc = rounded_averaging(&group, 4);
        assert_eq!(enc.num_redundant(), 1);
        assert_eq!(enc.low_pruned(), 3);
        assert_eq!(enc.metadata().constant, 5);
        assert_eq!(enc.decode(), vec![-11, 21, -59, 13]);
        // Metadata: 2 bits = 01, constant = 000101.
        assert_eq!(enc.metadata().pack(), 0b0100_0101);
        // Storage: 4 kept columns * 4 weights + 8 metadata bits.
        assert_eq!(enc.stored_bits(), 4 * 4 + 8);
    }

    #[test]
    fn constant_is_optimal_integer() {
        let mut rng = SeededRng::new(51);
        for _ in 0..100 {
            let n = rng.uniform_usize(2, 33);
            let group: Vec<i8> = (0..n).map(|_| rng.any_i8()).collect();
            let g = rng.uniform_usize(1, 7);
            let c = optimal_low_bits_constant(&group, g) as i64;
            let mask = (1i64 << g) - 1;
            let err = |cand: i64| -> i64 {
                group
                    .iter()
                    .map(|&w| ((w as u8 as i64 & mask) - cand).pow(2))
                    .sum()
            };
            // No other integer constant achieves lower squared error.
            for cand in 0..=mask {
                assert!(err(c) <= err(cand), "c={c} cand={cand} g={g}");
            }
        }
    }

    #[test]
    fn zero_target_is_lossless() {
        let group = [100i8, -100, 55, -1];
        let enc = rounded_averaging(&group, 0);
        assert_eq!(enc.mse(&group), 0.0);
        // 100 needs the full 8 bits, so nothing is redundant either.
        assert_eq!(enc.pruned_columns(), 0);
    }

    #[test]
    fn redundant_columns_are_free_beyond_target() {
        // Small weights: 3 redundant columns even though the target is 1.
        let group = [1i8, -2, 3, 0];
        let enc = rounded_averaging(&group, 1);
        assert_eq!(enc.num_redundant(), 3);
        assert_eq!(enc.low_pruned(), 0);
        assert_eq!(enc.mse(&group), 0.0);
    }

    #[test]
    fn redundant_columns_are_used_before_averaging() {
        // All small values: 3 redundant columns available (capped).
        let group = [1i8, -2, 3, 0];
        let enc = rounded_averaging(&group, 3);
        assert_eq!(enc.num_redundant(), 3);
        assert_eq!(enc.low_pruned(), 0);
        // Entirely lossless: only sign-extension columns removed.
        assert_eq!(enc.mse(&group), 0.0);
    }

    #[test]
    fn error_bounded_by_low_bit_range() {
        let mut rng = SeededRng::new(52);
        for _ in 0..200 {
            let n = rng.uniform_usize(2, 33);
            let group: Vec<i8> = (0..n).map(|_| rng.gaussian_i8(0.0, 40.0)).collect();
            for target in 0..=6 {
                let enc = rounded_averaging(&group, target);
                let g = enc.low_pruned();
                let bound = if g == 0 { 0.0 } else { ((1 << g) - 1) as f64 };
                for (w, d) in group.iter().zip(enc.decode()) {
                    assert!(
                        ((*w as i32 - d).abs() as f64) <= bound,
                        "per-weight error exceeds {bound} for g={g}"
                    );
                }
            }
        }
    }

    #[test]
    fn averaging_beats_truncation_mse() {
        // Replacing low bits with the rounded average must be at least as
        // good as zeroing them (the trivial constant 0).
        let mut rng = SeededRng::new(53);
        for _ in 0..100 {
            let n = rng.uniform_usize(4, 33);
            let group: Vec<i8> = (0..n).map(|_| rng.gaussian_i8(0.0, 35.0)).collect();
            let enc = rounded_averaging(&group, 4);
            let g = enc.low_pruned();
            let mask = if g == 0 { 0u8 } else { (1u16 << g) as u8 - 1 };
            let truncated: Vec<i32> = group
                .iter()
                .map(|&w| ((w as u8) & !mask) as i8 as i32)
                .collect();
            assert!(enc.mse(&group) <= mse_i8(&group, &truncated) + 1e-9);
        }
    }

    #[test]
    fn all_levels_preservable() {
        // BBS's key property vs zero-column pruning: a pruned column may be
        // all-ones, so odd constants survive (Fig. 1c). These weights need
        // the full 8-bit width (no redundant columns) and share low bits 111.
        let group = [71i8, 79, 87, 95];
        let enc = rounded_averaging(&group, 3);
        assert_eq!(enc.num_redundant(), 0);
        // Low 3 bits of every weight are 111 -> constant 7, zero error.
        assert_eq!(enc.metadata().constant, 7);
        assert_eq!(enc.mse(&group), 0.0);
    }

    #[test]
    fn max_target_leaves_one_column() {
        let group = [0i8, 1, -1, 2];
        let enc = rounded_averaging(&group, MAX_SPARSE_COLUMNS);
        assert!(enc.kept_column_count() >= 1);
        // With r capped at 3 and g capped at 6 a target of 7 cannot always
        // be met; pruned = r + g <= 7 here (some groups reach fewer).
        assert!(enc.pruned_columns() <= MAX_SPARSE_COLUMNS);
    }

    #[test]
    fn decode_values_stay_in_i8_range() {
        let mut rng = SeededRng::new(54);
        for _ in 0..200 {
            let n = rng.uniform_usize(2, 33);
            let group: Vec<i8> = (0..n).map(|_| rng.any_i8()).collect();
            let enc = rounded_averaging(&group, 5);
            for v in enc.decode() {
                assert!((-128..=127).contains(&v));
            }
        }
    }
}
