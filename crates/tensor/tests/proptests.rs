//! Property tests for the tensor substrate.

use bbs_tensor::bits::{
    bbs_sparsity, bit_sparsity_sign_magnitude, bit_sparsity_twos_complement, redundant_sign_bits,
    sign_magnitude, PackedGroup,
};
use bbs_tensor::metrics::{geomean, kl_divergence_i8_binned, mse_i8, BinnedHistogramI8};
use bbs_tensor::quant::{quantize_per_channel, requantize_i8, ScaleMethod};
use bbs_tensor::{Shape, Tensor};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #[test]
    fn bitgroup_roundtrip(w in vec(any::<i8>(), 1..=64)) {
        let g = PackedGroup::from_words(&w);
        prop_assert_eq!(g.to_words(), w.clone());
        for (i, &x) in w.iter().enumerate() {
            for b in 0..8 {
                prop_assert_eq!((g.column(b) >> i) & 1, (x as u8 >> b) as u64 & 1);
            }
        }
    }

    #[test]
    fn packed_redundant_columns_is_min_over_lanes(w in vec(any::<i8>(), 1..=64)) {
        let p = PackedGroup::from_words(&w);
        let min_redundant = w.iter().map(|&x| redundant_sign_bits(x)).min().unwrap();
        prop_assert_eq!(p.redundant_columns(), min_redundant);
    }

    #[test]
    fn packed_padded_matches_explicit_zero_padding(
        w in vec(any::<i8>(), 1..=64),
        pad in 0usize..=16,
    ) {
        let n = (w.len() + pad).min(64);
        let mut padded = w.clone();
        padded.resize(n, 0);
        let a = PackedGroup::from_words_padded(&w, n);
        let b = PackedGroup::from_words(&padded);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn column_popcounts_sum_to_total_ones(w in vec(any::<i8>(), 1..=64)) {
        let g = PackedGroup::from_words(&w);
        let by_cols: usize = (0..8).map(|b| g.column_popcount(b)).sum();
        let by_rows: usize = w.iter().map(|&x| (x as u8).count_ones() as usize).sum();
        prop_assert_eq!(by_cols, by_rows);
    }

    #[test]
    fn sign_magnitude_preserves_value(w in any::<i8>()) {
        let sm = sign_magnitude(w);
        let mag = (sm & 0x7f) as i32;
        let val = if sm & 0x80 != 0 { -mag } else { mag };
        // Exact except the unrepresentable -128 (saturates to -127).
        if w == i8::MIN {
            prop_assert_eq!(val, -127);
        } else {
            prop_assert_eq!(val, w as i32);
        }
    }

    #[test]
    fn redundant_bits_match_width(w in any::<i8>()) {
        let r = redundant_sign_bits(w);
        prop_assert!(r < 8);
        // w must be representable in (8 - r) bits but not (7 - r).
        let m = 8 - r;
        let lo = -(1i32 << (m - 1));
        let hi = (1i32 << (m - 1)) - 1;
        prop_assert!((lo..=hi).contains(&(w as i32)));
    }

    #[test]
    fn sparsities_are_probabilities(w in vec(any::<i8>(), 1..=256)) {
        for s in [
            bit_sparsity_twos_complement(&w),
            bit_sparsity_sign_magnitude(&w),
            bbs_sparsity(&w, 8),
        ] {
            prop_assert!((0.0..=1.0).contains(&s));
        }
        // The BBS theorem.
        prop_assert!(bbs_sparsity(&w, 8) >= 0.5);
        prop_assert!(bbs_sparsity(&w, 8) >= bit_sparsity_twos_complement(&w) - 1e-12);
    }

    #[test]
    fn kl_is_nonnegative_and_zero_on_self(w in vec(any::<i8>(), 1..=512)) {
        let as_i32: Vec<i32> = w.iter().map(|&x| x as i32).collect();
        let kl = kl_divergence_i8_binned(&w, &as_i32, 4);
        prop_assert!(kl.abs() < 1e-9, "self-KL {kl}");
        let mut h = BinnedHistogramI8::new(1);
        as_i32.iter().for_each(|&v| h.add(v));
        prop_assert!(h.kl_divergence(&h).abs() < 1e-9);
    }

    #[test]
    fn mse_zero_iff_equal(w in vec(any::<i8>(), 1..=64)) {
        let same: Vec<i32> = w.iter().map(|&x| x as i32).collect();
        prop_assert_eq!(mse_i8(&w, &same), 0.0);
        let mut shifted = same.clone();
        shifted[0] += 1;
        prop_assert!(mse_i8(&w, &shifted) > 0.0);
    }

    #[test]
    fn quantization_error_bounded_by_half_step(
        data in vec(-1.0f32..1.0, 8..=64),
    ) {
        let n = data.len();
        let t = Tensor::from_vec(Shape::matrix(1, n), data).unwrap();
        let q = quantize_per_channel(&t, 8, ScaleMethod::AbsMax).unwrap();
        let r = q.dequantize();
        let s = q.scales[0];
        for (x, y) in t.row(0).iter().zip(r.row(0)) {
            prop_assert!((x - y).abs() <= s * 0.5 + 1e-6);
        }
    }

    #[test]
    fn requantize_monotone_in_bits(w in vec(any::<i8>(), 16..=64)) {
        let mse = |bits: u8| {
            let r = requantize_i8(&w, bits, ScaleMethod::AbsMax);
            mse_i8(&w, &r)
        };
        prop_assert!(mse(8) <= mse(6) + 1e-9);
        prop_assert!(mse(6) <= mse(4) + 1e-9);
        prop_assert!(mse(4) <= mse(2) + 1e-9);
    }

    #[test]
    fn geomean_between_min_and_max(v in vec(0.01f64..100.0, 1..=20)) {
        let g = geomean(&v);
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(g >= lo - 1e-9 && g <= hi + 1e-9);
    }
}
