//! The BBS theorem: Eqs. 1–3 of the paper.
//!
//! A dot product between `N` weights and activations decomposes over weight
//! bit significances (Eq. 1). Per significance, the partial sum is the sum of
//! activations whose weight bit is one (Eq. 2) — or, equivalently, the group
//! activation sum minus the activations whose weight bit is zero (Eq. 3).
//! Whichever side has fewer terms needs at most `⌈N/2⌉` additions, so *any*
//! bit vector is at least 50% sparse once the majority symbol is treated as
//! sparse. This is what balances bit-serial workloads.
//!
//! Weights are two's complement: the MSB column (bit 7) carries weight
//! `-2^7`; all functions here handle that sign exactly.

use bbs_tensor::bits::{PackedGroup, WEIGHT_BITS};

/// Which side of the BBS identity a column uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BbsSide {
    /// Eq. 2 — sum activations at one-bits (the column had ≤ 50% ones).
    Direct,
    /// Eq. 3 — subtract activations at zero-bits from `ΣA` (column inverted).
    Inverted,
}

/// Reference integer dot product `Σ w_i · a_i`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot_reference(weights: &[i8], activations: &[i32]) -> i64 {
    assert_eq!(weights.len(), activations.len());
    weights
        .iter()
        .zip(activations)
        .map(|(&w, &a)| w as i64 * a as i64)
        .sum()
}

/// Signed weight of bit significance `b` in two's complement
/// (`-2^7` for the MSB, `+2^b` otherwise).
#[inline]
fn column_weight(b: usize) -> i64 {
    debug_assert!(b < WEIGHT_BITS);
    if b == WEIGHT_BITS - 1 {
        -(1i64 << b)
    } else {
        1i64 << b
    }
}

/// Eq. 2: partial sum of activations selected by the one-bits of a column.
pub fn column_sum_direct(column: u64, activations: &[i32]) -> i64 {
    activations
        .iter()
        .enumerate()
        .filter(|&(i, _)| (column >> i) & 1 == 1)
        .map(|(_, &a)| a as i64)
        .sum()
}

/// Eq. 3: the same partial sum computed as `ΣA` minus the activations at
/// zero-bits.
fn column_sum_inverted(column: u64, activations: &[i32]) -> i64 {
    let total: i64 = activations.iter().map(|&a| a as i64).sum();
    let zeros: i64 = activations
        .iter()
        .enumerate()
        .filter(|&(i, _)| (column >> i) & 1 == 0)
        .map(|(_, &a)| a as i64)
        .sum();
    total - zeros
}

/// BBS column evaluation: picks the side with at most `⌈N/2⌉` effectual
/// terms and reports which was used.
///
/// The returned sum equals [`column_sum_direct`] either way; the side only
/// changes *how many additions* a bit-serial PE performs.
fn column_sum_bbs(column: u64, activations: &[i32]) -> (i64, BbsSide) {
    let n = activations.len();
    let ones = (column & lane_mask(n)).count_ones() as usize;
    if ones * 2 <= n {
        (column_sum_direct(column, activations), BbsSide::Direct)
    } else {
        (column_sum_inverted(column, activations), BbsSide::Inverted)
    }
}

/// Number of effectual (processed) terms for a column under plain zero-bit
/// skipping: the popcount.
pub fn effectual_terms_zero_skip(column: u64, n: usize) -> usize {
    (column & lane_mask(n)).count_ones() as usize
}

/// Number of effectual terms for a column under BBS: `min(ones, zeros)`,
/// never more than `⌈N/2⌉`.
pub fn effectual_terms_bbs(column: u64, n: usize) -> usize {
    let ones = (column & lane_mask(n)).count_ones() as usize;
    ones.min(n - ones)
}

fn lane_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Eq. 1: bit-serial dot product — significance-by-significance partial sums
/// scaled by the signed column weight.
///
/// # Panics
///
/// Panics if the slices have different lengths, are empty, or exceed 64
/// elements.
pub fn dot_bit_serial(weights: &[i8], activations: &[i32]) -> i64 {
    assert_eq!(weights.len(), activations.len());
    let group = PackedGroup::from_words(weights);
    (0..WEIGHT_BITS)
        .map(|b| column_weight(b) * column_sum_direct(group.column(b), activations))
        .sum()
}

/// The full BBS dot product: every column evaluated on whichever side of
/// the identity has at most `⌈N/2⌉` terms. Numerically identical to
/// [`dot_reference`].
///
/// # Panics
///
/// Panics if the slices have different lengths, are empty, or exceed 64
/// elements.
pub fn dot_bbs(weights: &[i8], activations: &[i32]) -> i64 {
    assert_eq!(weights.len(), activations.len());
    let group = PackedGroup::from_words(weights);
    (0..WEIGHT_BITS)
        .map(|b| {
            let (sum, _) = column_sum_bbs(group.column(b), activations);
            column_weight(b) * sum
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_tensor::rng::SeededRng;

    #[test]
    fn column_weight_signs() {
        assert_eq!(column_weight(0), 1);
        assert_eq!(column_weight(6), 64);
        assert_eq!(column_weight(7), -128);
    }

    #[test]
    fn eq2_eq3_agree_on_every_column() {
        let mut rng = SeededRng::new(31);
        for _ in 0..200 {
            let n = rng.uniform_usize(1, 33);
            let col: u64 =
                (0..n).fold(0, |m, i| if rng.uniform() < 0.5 { m | (1 << i) } else { m });
            let a: Vec<i32> = (0..n).map(|_| rng.any_i8() as i32).collect();
            assert_eq!(column_sum_direct(col, &a), column_sum_inverted(col, &a));
        }
    }

    #[test]
    fn bbs_side_selection() {
        let a = vec![1i32; 8];
        // 2 ones out of 8 -> direct.
        let (_, side) = column_sum_bbs(0b0000_0011, &a);
        assert_eq!(side, BbsSide::Direct);
        // 6 ones out of 8 -> inverted.
        let (_, side) = column_sum_bbs(0b0011_1111, &a);
        assert_eq!(side, BbsSide::Inverted);
        // Exactly half stays direct.
        let (_, side) = column_sum_bbs(0b0000_1111, &a);
        assert_eq!(side, BbsSide::Direct);
    }

    #[test]
    fn bbs_effectual_terms_never_exceed_half() {
        let mut rng = SeededRng::new(32);
        for _ in 0..500 {
            let n = rng.uniform_usize(1, 65);
            let col: u64 =
                (0..n).fold(0, |m, i| if rng.uniform() < 0.7 { m | (1 << i) } else { m });
            let bbs = effectual_terms_bbs(col, n);
            assert!(bbs * 2 <= n + 1, "n={n} bbs={bbs}");
            assert!(bbs <= effectual_terms_zero_skip(col, n));
        }
    }

    #[test]
    fn bit_serial_matches_reference() {
        let mut rng = SeededRng::new(33);
        for _ in 0..300 {
            let n = rng.uniform_usize(1, 33);
            let w: Vec<i8> = (0..n).map(|_| rng.any_i8()).collect();
            let a: Vec<i32> = (0..n).map(|_| rng.any_i8() as i32).collect();
            assert_eq!(dot_bit_serial(&w, &a), dot_reference(&w, &a));
        }
    }

    #[test]
    fn bbs_matches_reference_including_extremes() {
        let w = vec![i8::MIN, i8::MAX, -1, 0, 64, -64, 127, -128];
        let a = vec![127, -128, 55, -1, 0, 33, -77, 100];
        assert_eq!(dot_bbs(&w, &a), dot_reference(&w, &a));
    }

    #[test]
    fn bbs_matches_reference_randomized() {
        let mut rng = SeededRng::new(34);
        for _ in 0..300 {
            let n = rng.uniform_usize(1, 64);
            let w: Vec<i8> = (0..n).map(|_| rng.any_i8()).collect();
            let a: Vec<i32> = (0..n).map(|_| rng.any_i8() as i32).collect();
            assert_eq!(dot_bbs(&w, &a), dot_reference(&w, &a));
        }
    }

    #[test]
    fn paper_fig2_four_way_dot_product() {
        // A 4-way dot product like the running example of Fig. 2.
        let w = vec![77i8, -25, -11, 6];
        let a = vec![3i32, 5, -7, 11];
        let expect = 77 * 3 - 25 * 5 + (-11) * (-7) + 6 * 11;
        assert_eq!(dot_reference(&w, &a), expect as i64);
        assert_eq!(dot_bbs(&w, &a), expect as i64);
    }
}
