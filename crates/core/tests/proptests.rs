//! Property-based tests for the BBS compression invariants.
//!
//! These pin down the contracts the simulator and hardware models rely on:
//! exactness of the BBS dot-product identity, losslessness of redundant
//! column removal, error bounds of both pruning strategies, and metadata
//! roundtripping.

use bbs_core::averaging::rounded_averaging;
use bbs_core::bbs_math::{
    dot_bbs, dot_bit_serial, dot_reference, effectual_terms_bbs, effectual_terms_zero_skip,
};
use bbs_core::encoding::{BbsMetadata, CompressedGroup, ConstantKind};
use bbs_core::prune::{BinaryPruner, PruneStrategy};
use bbs_core::redundant::{group_redundant_columns, removal_is_lossless};
use bbs_core::reorder::ChannelOrder;
use bbs_core::shifting::zero_point_shifting;
use bbs_core::zero_col::sign_magnitude_zero_column;
use proptest::collection::vec;
use proptest::prelude::*;

fn group_strategy() -> impl Strategy<Value = Vec<i8>> {
    vec(any::<i8>(), 1..=64)
}

fn activation_strategy(n: usize) -> impl Strategy<Value = Vec<i32>> {
    vec(-128i32..=127, n..=n)
}

proptest! {
    #[test]
    fn bbs_dot_equals_reference(w in group_strategy()) {
        let a: Vec<i32> = (0..w.len()).map(|i| ((i as i32 * 37) % 255) - 127).collect();
        prop_assert_eq!(dot_bbs(&w, &a), dot_reference(&w, &a));
        prop_assert_eq!(dot_bit_serial(&w, &a), dot_reference(&w, &a));
    }

    #[test]
    fn bbs_dot_equals_reference_random_activations(
        w in vec(any::<i8>(), 16..=16),
        a in activation_strategy(16),
    ) {
        prop_assert_eq!(dot_bbs(&w, &a), dot_reference(&w, &a));
    }

    #[test]
    fn bbs_effectual_terms_at_most_half_rounded_up(col in any::<u64>(), n in 1usize..=64) {
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let col = col & mask;
        let bbs = effectual_terms_bbs(col, n);
        prop_assert!(bbs <= n / 2 + n % 2);
        prop_assert!(bbs <= effectual_terms_zero_skip(col, n));
    }

    #[test]
    fn lossless_encoding_roundtrips(w in group_strategy()) {
        let enc = CompressedGroup::lossless(&w);
        let decoded = enc.decode();
        for (orig, dec) in w.iter().zip(&decoded) {
            prop_assert_eq!(*orig as i32, *dec);
        }
        // Metadata survives the 8-bit wire format.
        let raw = enc.metadata().pack();
        let meta = BbsMetadata::unpack(raw, ConstantKind::ZeroPointShift);
        prop_assert_eq!(meta, enc.metadata());
    }

    #[test]
    fn redundant_count_is_maximal_and_lossless(w in group_strategy()) {
        let r = group_redundant_columns(&w);
        prop_assert!(removal_is_lossless(&w, r));
        if r < 7 {
            prop_assert!(!removal_is_lossless(&w, r + 1));
        }
    }

    #[test]
    fn averaging_error_bound(w in group_strategy(), target in 0usize..=6) {
        let enc = rounded_averaging(&w, target);
        let g = enc.low_pruned();
        let bound = if g == 0 { 0 } else { (1i32 << g) - 1 };
        for (orig, dec) in w.iter().zip(enc.decode()) {
            prop_assert!((*orig as i32 - dec).abs() <= bound);
        }
        // Storage never exceeds kept columns + metadata.
        prop_assert_eq!(enc.stored_bits(), w.len() * enc.kept_column_count() + 8);
    }

    #[test]
    fn averaging_prunes_at_least_target(w in group_strategy(), target in 0usize..=6) {
        let enc = rounded_averaging(&w, target);
        // Redundant columns are free, so pruned >= min(target, encodable).
        prop_assert!(enc.pruned_columns() >= target.min(enc.num_redundant() + 6));
        prop_assert!(enc.kept_column_count() >= 1);
    }

    #[test]
    fn shifting_dot_identity(w in vec(any::<i8>(), 8..=32), target in 0usize..=5) {
        let enc = zero_point_shifting(&w, target);
        let a: Vec<i32> = (0..w.len()).map(|i| ((i as i32 * 91) % 200) - 100).collect();
        let by_decode: i64 = enc
            .decode()
            .iter()
            .zip(&a)
            .map(|(&wv, &av)| wv as i64 * av as i64)
            .sum();
        prop_assert_eq!(enc.dot(&a), by_decode);
    }

    #[test]
    fn shifting_never_worse_than_truncation(w in vec(-100i8..=100, 16..=32)) {
        // Zeroing the 4 low bits directly is a valid candidate (c = 0), so
        // the searched optimum must be at least as good.
        let enc = zero_point_shifting(&w, 4);
        let trunc_mse: f64 = w
            .iter()
            .map(|&x| {
                let t = ((x as f64 / 16.0).round() as i32 * 16).clamp(-128, 112);
                ((x as i32 - t) as f64).powi(2)
            })
            .sum::<f64>()
            / w.len() as f64;
        prop_assert!(enc.mse(&w) <= trunc_mse + 1e-9);
    }

    #[test]
    fn channel_compression_decodes_to_original_length(
        w in vec(any::<i8>(), 1..=200),
        target in 0usize..=5,
    ) {
        let pruner = BinaryPruner::new(PruneStrategy::RoundedAveraging, target);
        let c = pruner.compress_channel(&w, 32);
        prop_assert_eq!(c.decode().len(), w.len());
    }

    #[test]
    fn zero_column_pruning_reaches_target_or_explains(
        w in vec(any::<i8>(), 8..=32),
        target in 0usize..=6,
    ) {
        let z = sign_magnitude_zero_column(&w, target);
        // The sign column is never forced, so the only shortfall case is a
        // target above the 7 forceable magnitude columns.
        prop_assert!(z.zero_columns() >= target.min(7));
    }

    #[test]
    fn reorder_unshuffle_inverse(mask in vec(any::<bool>(), 1..=128)) {
        let ord = ChannelOrder::from_sensitivity(&mask);
        let data: Vec<usize> = (0..mask.len()).collect();
        let chunked = ord.reorder(&data);
        prop_assert_eq!(ord.unshuffle(&chunked), data);
        // The sensitive chunk is contiguous and first.
        for pos in 0..ord.sensitive_count() {
            prop_assert!(mask[ord.original_index(pos)]);
        }
        for pos in ord.sensitive_count()..mask.len() {
            prop_assert!(!mask[ord.original_index(pos)]);
        }
    }
}
