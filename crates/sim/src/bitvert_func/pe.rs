//! The BitVert PE datapath (paper Fig. 7b), bit-exact.
//!
//! A PE multiplies 16 weights against 16 activations, weights arriving as
//! kept bit columns of a compressed group. Per kept column (one cycle):
//!
//! 1. **term select** — the scheduler's `sel/val` signals pick effectual
//!    activations per sub-group of 8 (four 5:1 muxes each),
//! 2. **bit-serial multiply** — adder tree + optional subtract-from-ΣA,
//! 3. **single shift** — partial sum scaled by `2^col_idx`, where
//!    `col_idx` starts at `7 - #redundant` and counts down; the narrowed
//!    MSB column is accumulated negatively (two's complement),
//! 4. **BBS multiplier** — the 6-bit metadata constant times the group ΣA
//!    (sign depends on the pruning strategy),
//! 5. **accumulate**.

use crate::bitvert_func::scheduler::subgroup_partial_sum;
use bbs_core::encoding::{CompressedGroup, ConstantKind};

/// Weights processed by one PE pass.
pub const PE_GROUP: usize = 16;
/// Sub-group size.
pub const SUB_GROUP: usize = 8;

/// Executes one PE pass over a 16-lane slice of a compressed group.
///
/// `lane_lo` selects which 16 lanes of the (up to 64-lane) storage group
/// this PE processes. Returns the exact dot product of the *decoded*
/// weights in those lanes against `activations`.
///
/// # Panics
///
/// Panics if `activations.len() != 16` or the lane range exceeds the
/// group.
fn pe_pass(group: &CompressedGroup, lane_lo: usize, activations: &[i32]) -> i64 {
    assert_eq!(activations.len(), PE_GROUP);
    assert!(lane_lo + PE_GROUP <= group.len(), "lane range out of group");

    let kept = group.kept_column_count();
    let mut acc: i64 = 0;

    // Bit-serial phase: one cycle per kept column.
    for j in 0..kept {
        let mask = group.kept_column(j);
        // Per sub-group: scheduler + term select + adder tree + psum mux.
        let mut col_sum: i64 = 0;
        for sg in 0..(PE_GROUP / SUB_GROUP) {
            let shift = lane_lo + sg * SUB_GROUP;
            let bits = ((mask >> shift) & 0xff) as u8;
            let acts = &activations[sg * SUB_GROUP..(sg + 1) * SUB_GROUP];
            col_sum += subgroup_partial_sum(bits, acts);
        }
        // Single shift by the column significance; the narrowed MSB column
        // carries negative weight.
        acc += group.column_scale(j) * col_sum;
    }

    // BBS multiplier: constant × ΣA (time-multiplexed 3 bits/cycle in
    // hardware; numerically one multiply).
    let sum_a: i64 = activations.iter().map(|&a| a as i64).sum();
    let c = group.metadata().constant as i64;
    match group.kind() {
        ConstantKind::LowBitsAverage => acc + c * sum_a,
        ConstantKind::ZeroPointShift => acc - c * sum_a,
    }
}

/// Executes a full compressed storage group (all its 16-lane PE passes)
/// and returns the exact dot product against `activations`.
///
/// # Panics
///
/// Panics if `activations.len() != group.len()` or the group size is not a
/// multiple of 16.
pub fn group_dot(group: &CompressedGroup, activations: &[i32]) -> i64 {
    assert_eq!(activations.len(), group.len());
    assert_eq!(group.len() % PE_GROUP, 0, "group must tile into PE passes");
    (0..group.len() / PE_GROUP)
        .map(|pass| {
            pe_pass(
                group,
                pass * PE_GROUP,
                &activations[pass * PE_GROUP..(pass + 1) * PE_GROUP],
            )
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_core::averaging::rounded_averaging;
    use bbs_core::bbs_math::dot_reference;
    use bbs_core::encoding::CompressedGroup;
    use bbs_core::shifting::zero_point_shifting;
    use bbs_tensor::rng::SeededRng;

    fn random_case(rng: &mut SeededRng, n: usize) -> (Vec<i8>, Vec<i32>) {
        let w: Vec<i8> = (0..n).map(|_| rng.gaussian_i8(0.0, 35.0)).collect();
        let a: Vec<i32> = (0..n).map(|_| rng.any_i8() as i32).collect();
        (w, a)
    }

    #[test]
    fn pe_matches_reference_on_lossless_groups() {
        let mut rng = SeededRng::new(201);
        for _ in 0..100 {
            let (w, a) = random_case(&mut rng, 16);
            let enc = CompressedGroup::lossless(&w);
            assert_eq!(pe_pass(&enc, 0, &a), dot_reference(&w, &a));
        }
    }

    #[test]
    fn pe_matches_decoded_dot_after_averaging() {
        let mut rng = SeededRng::new(202);
        for target in 0..=5 {
            let (w, a) = random_case(&mut rng, 32);
            let enc = rounded_averaging(&w, target);
            let decoded = enc.decode();
            let expect: i64 = decoded
                .iter()
                .zip(&a)
                .map(|(&x, &y)| x as i64 * y as i64)
                .sum();
            assert_eq!(group_dot(&enc, &a), expect, "target {target}");
        }
    }

    #[test]
    fn pe_matches_decoded_dot_after_shifting() {
        let mut rng = SeededRng::new(203);
        for target in 0..=5 {
            let (w, a) = random_case(&mut rng, 32);
            let enc = zero_point_shifting(&w, target);
            let decoded = enc.decode();
            let expect: i64 = decoded
                .iter()
                .zip(&a)
                .map(|(&x, &y)| x as i64 * y as i64)
                .sum();
            assert_eq!(group_dot(&enc, &a), expect, "target {target}");
        }
    }

    #[test]
    fn pe_agrees_with_encoding_dot() {
        // The PE datapath and the algebraic CompressedGroup::dot must be
        // two implementations of the same function.
        let mut rng = SeededRng::new(204);
        for _ in 0..50 {
            let (w, a) = random_case(&mut rng, 32);
            let enc = zero_point_shifting(&w, 4);
            assert_eq!(group_dot(&enc, &a), enc.dot(&a));
        }
    }

    #[test]
    fn extreme_activations_do_not_overflow() {
        let w: Vec<i8> = vec![-128; 16];
        let a: Vec<i32> = vec![127; 16];
        let enc = CompressedGroup::lossless(&w);
        assert_eq!(pe_pass(&enc, 0, &a), dot_reference(&w, &a));
    }
}
