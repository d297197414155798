//! The BitVert scheduler (paper Fig. 8), bit-exact.
//!
//! Per sub-group of 8 weight-column bits and per cycle:
//!
//! 1. popcount > 4 ⇒ invert the bits and flag the subtract path,
//! 2. four priority encoders scan 5-bit sliding windows (`w[k..k+5)`);
//!    each claims the first unclaimed one-bit in its window, emitting a
//!    `sel` index and a `val` flag.
//!
//! Because an (inverted-if-needed) sub-group has at most 4 one-bits, the
//! window property guarantees all of them are claimed — that is the
//! single-cycle-per-column invariant the performance model relies on.

/// Select/valid signals for one sub-group of 8 lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubGroupSelect {
    /// Whether the column bits were inverted (Eq. 3 subtract path).
    pub inverted: bool,
    /// `sel[k]` — activation index chosen by encoder `k` (absolute lane
    /// index within the sub-group, `k..=k+4`).
    pub sel: [u8; 4],
    /// `val[k]` — whether encoder `k` found an effectual bit.
    pub val: [bool; 4],
}

/// Number of priority encoders per sub-group.
pub const ENCODERS: usize = 4;
/// Sliding-window width seen by each encoder.
pub const WINDOW: usize = 5;

/// Runs the Fig. 8 scheduler on one 8-bit sub-group column.
fn schedule_subgroup(column_bits: u8) -> SubGroupSelect {
    let inverted = column_bits.count_ones() > 4;
    let mut bits = if inverted { !column_bits } else { column_bits };

    let mut sel = [0u8; 4];
    let mut val = [false; 4];
    for k in 0..ENCODERS {
        // Encoder k sees bits k..k+5 of the (masked) vector.
        let mut found = false;
        for i in k..(k + WINDOW) {
            if (bits >> i) & 1 == 1 {
                sel[k] = i as u8;
                val[k] = true;
                bits &= !(1u8 << i); // mask the claimed bit
                found = true;
                break;
            }
        }
        if !found {
            val[k] = false;
        }
    }
    SubGroupSelect { inverted, sel, val }
}

/// Evaluates a sub-group column partial sum through the scheduler + PE
/// term-select path: `Σ A[sel_k]` for valid encoders, subtracted from
/// `ΣA` when inverted (Fig. 7b steps 1–2).
///
/// # Panics
///
/// Panics if `activations.len() != 8`.
pub fn subgroup_partial_sum(column_bits: u8, activations: &[i32]) -> i64 {
    assert_eq!(activations.len(), 8);
    let s = schedule_subgroup(column_bits);
    let selected: i64 = (0..ENCODERS)
        .filter(|&k| s.val[k])
        .map(|k| activations[s.sel[k] as usize] as i64)
        .sum();
    if s.inverted {
        let total: i64 = activations.iter().map(|&a| a as i64).sum();
        total - selected
    } else {
        selected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::bitvert::pass_useful;
    use crate::bitvert_func::pe::{PE_GROUP, SUB_GROUP};
    use bbs_core::encoding::{BbsMetadata, CompressedGroup, ConstantKind};
    use bbs_core::prune::BinaryPruner;
    use bbs_tensor::bits::{PackedGroup, WEIGHT_BITS};
    use bbs_tensor::rng::SeededRng;
    use proptest::prelude::*;

    fn reference_sum(column_bits: u8, a: &[i32]) -> i64 {
        (0..8)
            .filter(|&i| (column_bits >> i) & 1 == 1)
            .map(|i| a[i] as i64)
            .sum()
    }

    #[test]
    fn all_sparse_patterns_are_captured() {
        // Exhaustive over all 256 column patterns: the scheduler must
        // reproduce the exact partial sum with at most 4 encoders.
        let a: Vec<i32> = vec![3, -7, 11, 19, -23, 31, 41, -53];
        for bits in 0u16..=255 {
            let bits = bits as u8;
            assert_eq!(
                subgroup_partial_sum(bits, &a),
                reference_sum(bits, &a),
                "pattern {bits:08b}"
            );
        }
    }

    #[test]
    fn inversion_triggers_above_half() {
        assert!(!schedule_subgroup(0b0000_1111).inverted);
        assert!(schedule_subgroup(0b0001_1111).inverted);
        assert!(schedule_subgroup(0b1111_1111).inverted);
        assert!(!schedule_subgroup(0).inverted);
    }

    #[test]
    fn encoder_k_claims_kth_lowest_bit() {
        // Bits {4,5,6,7}: the documented worst case — each encoder takes
        // the highest reachable lane of its window.
        let s = schedule_subgroup(0b1111_0000);
        assert_eq!(s.sel, [4, 5, 6, 7]);
        assert_eq!(s.val, [true; 4]);
    }

    #[test]
    fn empty_windows_deassert_val() {
        // One bit at lane 0: only encoder 0 fires.
        let s = schedule_subgroup(0b0000_0001);
        assert_eq!(s.val, [true, false, false, false]);
        assert_eq!(s.sel[0], 0);
    }

    #[test]
    fn window_property_proof_holds() {
        // For any pattern with <= 4 ones, the 5-bit sliding windows claim
        // *exactly* the set of one-bits (possibly on shifted encoders) —
        // the single-cycle-per-column guarantee of §IV-B.
        for bits in 0u16..=255 {
            let b = bits as u8;
            if b.count_ones() > 4 {
                continue;
            }
            let ones: Vec<u8> = (0..8).filter(|&i| (b >> i) & 1 == 1).collect();
            let s = schedule_subgroup(b);
            let mut claimed: Vec<u8> = (0..ENCODERS)
                .filter(|&k| s.val[k])
                .map(|k| s.sel[k])
                .collect();
            claimed.sort_unstable();
            assert_eq!(claimed, ones, "pattern {b:08b}");
        }
    }

    /// One PE pass of `group` at `lane_lo` as the functional PE steps it:
    /// one cycle per kept column, and the valid encoder slots the
    /// scheduler raises over both sub-groups of each column.
    fn scheduled_pass(group: &CompressedGroup, lane_lo: usize) -> (u32, u64) {
        let mut slots = 0u64;
        for j in 0..group.kept_column_count() {
            for sg in 0..PE_GROUP / SUB_GROUP {
                let bits = (group.kept_column(j) >> (lane_lo + sg * SUB_GROUP)) as u8;
                slots += schedule_subgroup(bits).val.iter().filter(|&&v| v).count() as u64;
            }
        }
        (group.kept_column_count() as u32, slots)
    }

    proptest! {
        /// The BitVert performance model against the functional PE: per
        /// 16-lane pass, `BitVert::build_profile` pushes the kept-column
        /// count (8 for a raw sensitive group) as cycles and
        /// `pass_useful` as effectual terms.
        #[test]
        fn scheduler_matches_the_bitvert_profile(
            len in prop_oneof![Just(32usize), Just(64usize)],
            words in 1usize..=64,
            gaussian in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = SeededRng::new(seed);
            let words: Vec<i8> = (0..words.min(len))
                .map(|_| if gaussian { rng.gaussian_i8(0.0, 35.0) } else { rng.any_i8() })
                .collect();
            // Trailing partial groups are zero-padded, as build_profile does.
            let packed = PackedGroup::from_words_padded(&words, len);
            let raw = CompressedGroup::from_parts(
                len,
                packed.columns(),
                BbsMetadata { num_redundant: 0, constant: 0 },
                ConstantKind::LowBitsAverage,
            );
            let mut groups = vec![(raw, WEIGHT_BITS as u32, packed.columns().to_vec())];
            for pruner in [BinaryPruner::conservative(), BinaryPruner::moderate()] {
                let enc = pruner.compress_padded(&words, len);
                let columns = enc.kept_columns().to_vec();
                groups.push((enc, columns.len() as u32, columns));
            }
            for (group, cycles, columns) in &groups {
                for lane_lo in (0..len).step_by(PE_GROUP) {
                    prop_assert_eq!(
                        scheduled_pass(group, lane_lo),
                        (*cycles, pass_useful(columns, lane_lo)),
                        "lanes {}.. of {:?}", lane_lo, group
                    );
                }
            }
        }
    }
}
