//! Prior-art baseline: sign-magnitude **zero-bit-column** pruning
//! (BitWave-style, papers \[23\]/\[35\]/\[39\] in the BBS reference list).
//!
//! Weights are viewed in sign-magnitude form, where small Gaussian-like
//! values produce many inherent all-zero magnitude columns. If a group lacks
//! enough inherent zero columns, additional low-significance columns are
//! *forced* to zero, rounding each magnitude to its nearest representable
//! value. Only all-zero columns can be skipped — the limitation BBS lifts
//! (Fig. 1b vs 1c): forced groups collapse onto coarse magnitude grids and
//! lose quantization levels.

use bbs_tensor::bits::{sign_magnitude, unpack_planes, PackedGroup};
use bbs_tensor::metrics;

/// Number of bit columns in the sign-magnitude byte (sign + 7 magnitude).
pub const SM_COLUMNS: usize = 8;

/// A group compressed with sign-magnitude zero-column pruning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZeroColumnGroup {
    n: usize,
    /// Bitmap over the 8 sign-magnitude columns; a set bit marks an all-zero
    /// (skippable, unstored) column. Bit 7 is the sign column.
    zero_mask: u8,
    /// Reconstructed values after forcing.
    values: Vec<i8>,
}

impl ZeroColumnGroup {
    /// Group size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the group is empty (never true for a constructed group).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of zero (skippable) columns.
    pub fn zero_columns(&self) -> usize {
        self.zero_mask.count_ones() as usize
    }

    /// Number of stored columns.
    pub fn kept_columns(&self) -> usize {
        SM_COLUMNS - self.zero_columns()
    }

    /// Reconstructed integer values.
    pub fn decode(&self) -> Vec<i32> {
        self.values.iter().map(|&v| v as i32).collect()
    }

    /// Reconstructed values as the stored `i8` slice (allocation-free view
    /// of what [`decode`](Self::decode) widens).
    pub fn values(&self) -> &[i8] {
        &self.values
    }

    /// Storage in bits: kept columns plus the 8-bit column bitmap.
    pub fn stored_bits(&self) -> usize {
        self.n * self.kept_columns() + SM_COLUMNS
    }

    /// Reconstruction MSE against the original group.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn mse(&self, original: &[i8]) -> f64 {
        assert_eq!(original.len(), self.n);
        metrics::mse_i8(original, &self.decode())
    }
}

/// Nearest magnitude in `0..=127` whose bits avoid every column in `mask`.
fn nearest_representable_magnitude(m: u8, mask: u8) -> u8 {
    let mut best = 0u8;
    let mut best_dist = i32::MAX;
    for cand in 0u8..=127 {
        if cand & mask != 0 {
            continue;
        }
        let dist = (m as i32 - cand as i32).abs();
        if dist < best_dist {
            best_dist = dist;
            best = cand;
        }
    }
    best
}

/// Compresses a group by zero-column pruning with `target_sparse` zero
/// columns (inherent zero columns counted first, then low-significance
/// magnitude columns are forced).
///
/// Runs on the packed bit-plane representation: inherent zero columns are
/// mask tests, and the nearest representable magnitude is computed for all
/// lanes at once with prefix-OR / carry-ripple mask arithmetic instead of
/// the scalar oracle's 128-candidate scan per weight. Bit-identical to
/// [`sign_magnitude_zero_column_scalar`], which also serves groups larger
/// than the 64-lane packed representation (preserving the historical
/// unbounded-length contract of this function).
///
/// # Panics
///
/// Panics if `group` is empty or `target_sparse >= 8`.
pub fn sign_magnitude_zero_column(group: &[i8], target_sparse: usize) -> ZeroColumnGroup {
    assert!(!group.is_empty());
    assert!(
        target_sparse < SM_COLUMNS,
        "at least one column must remain"
    );
    if group.len() > bbs_tensor::bits::MAX_GROUP {
        return sign_magnitude_zero_column_scalar(group, target_sparse);
    }

    let sm: Vec<u8> = group.iter().map(|&w| sign_magnitude(w)).collect();
    let packed = PackedGroup::from_bytes(&sm);
    let lanes = packed.lane_mask();

    // Inherent all-zero columns (sign column included: an all-positive group
    // skips it for free).
    let mut zero_mask = 0u8;
    for b in 0..SM_COLUMNS {
        if packed.column_all_zero(b) {
            zero_mask |= 1 << b;
        }
    }

    // Force additional low-significance magnitude columns until the target
    // is reached (never the sign column — flipping signs is catastrophic).
    let mut forced = 0u8;
    let mut b = 0usize;
    while (zero_mask | forced).count_ones() < target_sparse as u32 && b < SM_COLUMNS - 1 {
        if (zero_mask >> b) & 1 == 0 {
            forced |= 1 << b;
        }
        b += 1;
    }

    // Magnitude planes (the sign plane stays aside) and the broadcast
    // forced-column masks.
    let sign = packed.column(7);
    let mut m = [0u64; 8];
    m[..7].copy_from_slice(&packed.columns()[..7]);
    let fmask: [u64; 8] = core::array::from_fn(|b| if (forced >> b) & 1 == 1 { lanes } else { 0 });

    // floor: the largest representable magnitude ≤ m, per lane. Bits above
    // each lane's highest conflicting (set ∧ forced) bit are kept, the rest
    // becomes the all-non-forced-ones fill below it. `seen[b]` marks lanes
    // with a conflict at significance ≥ b (suffix OR of conflict planes).
    let mut seen = [0u64; 9];
    for b in (0..8).rev() {
        seen[b] = seen[b + 1] | (m[b] & fmask[b]);
    }
    let mut floor = [0u64; 8];
    for b in 0..8 {
        let fill = if (forced >> b) & 1 == 1 {
            0
        } else {
            seen[b + 1]
        };
        floor[b] = (m[b] & !seen[b]) | fill;
    }

    // upper: the next representable magnitude after floor —
    // ((floor | forced) + 1) & !forced, with the carry out of bit 6
    // marking lanes whose upper would exceed 127 (no upper candidate).
    let mut upper = [0u64; 8];
    let mut carry = lanes;
    for b in 0..8 {
        let a = floor[b] | fmask[b];
        upper[b] = a ^ carry;
        carry &= a;
    }
    let ov = upper[7]; // magnitudes are 7-bit, so bit 7 is the +1 overflow
    for b in 0..8 {
        upper[b] &= !fmask[b];
    }
    upper[7] = 0;

    // Distances: dl = m - floor, du = upper - m (both fit 7 bits on the
    // lanes that matter), and their difference decides the mux. Ties go to
    // floor — the scalar oracle scans candidates in ascending order with
    // strict improvement, so the smaller candidate wins.
    let dl = sub_planes(&m, &floor, lanes);
    let du = sub_planes(&upper, &m, lanes);
    let d = sub_planes(&dl, &du, lanes);
    let nz = d.iter().fold(0u64, |acc, &p| acc | p);
    let choose_upper = nz & !d[7] & !ov & lanes;

    // Mux the winner, then apply the sign: v = sign ? -mag : mag.
    let mut v: [u64; 8] =
        core::array::from_fn(|b| (floor[b] & !choose_upper) | (upper[b] & choose_upper));
    for plane in v.iter_mut() {
        *plane ^= sign;
    }
    let mut carry = sign;
    for plane in v.iter_mut() {
        if carry == 0 {
            break;
        }
        let x = *plane;
        *plane = x ^ carry;
        carry &= x;
    }

    ZeroColumnGroup {
        n: group.len(),
        zero_mask: zero_mask | forced,
        values: unpack_planes(&v, group.len()),
    }
}

/// Lane-parallel `a - b` in 8-plane two's complement (borrow via
/// `a + !b + 1`).
#[inline]
fn sub_planes(a: &[u64; 8], b: &[u64; 8], lanes: u64) -> [u64; 8] {
    let mut out = [0u64; 8];
    let mut carry = lanes;
    for (p, o) in out.iter_mut().enumerate() {
        let x = a[p];
        let y = !b[p] & lanes;
        *o = x ^ y ^ carry;
        carry = (x & y) | (carry & (x ^ y));
    }
    out
}

/// Scalar reference oracle for [`sign_magnitude_zero_column`]: the
/// per-weight 128-candidate nearest-magnitude scan. Kept for the
/// packed-vs-scalar equivalence tests.
///
/// # Panics
///
/// Panics if `group` is empty or `target_sparse >= 8`.
pub fn sign_magnitude_zero_column_scalar(group: &[i8], target_sparse: usize) -> ZeroColumnGroup {
    assert!(!group.is_empty());
    assert!(
        target_sparse < SM_COLUMNS,
        "at least one column must remain"
    );

    let sm: Vec<u8> = group.iter().map(|&w| sign_magnitude(w)).collect();

    // Inherent all-zero columns (sign column included: an all-positive group
    // skips it for free).
    let mut zero_mask = 0u8;
    for b in 0..SM_COLUMNS {
        if sm.iter().all(|&v| (v >> b) & 1 == 0) {
            zero_mask |= 1 << b;
        }
    }

    // Force additional low-significance magnitude columns until the target
    // is reached (never the sign column — flipping signs is catastrophic).
    let mut forced = 0u8;
    let mut b = 0usize;
    while (zero_mask | forced).count_ones() < target_sparse as u32 && b < SM_COLUMNS - 1 {
        if (zero_mask >> b) & 1 == 0 {
            forced |= 1 << b;
        }
        b += 1;
    }

    // Round magnitudes onto the representable grid.
    let values: Vec<i8> = group
        .iter()
        .map(|&w| {
            let enc = sign_magnitude(w);
            let mag = nearest_representable_magnitude(enc & 0x7f, forced);
            if enc & 0x80 != 0 {
                -(mag as i16) as i8
            } else {
                mag as i8
            }
        })
        .collect();

    // Forced columns are now genuinely zero; recompute the final mask (the
    // rounding may also have zeroed further columns by accident — keep the
    // deterministic target mask only).
    ZeroColumnGroup {
        n: group.len(),
        zero_mask: zero_mask | forced,
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shifting::zero_point_shifting;
    use bbs_tensor::rng::SeededRng;

    #[test]
    fn inherent_zero_columns_are_free() {
        // Small magnitudes: columns 4..6 inherently zero, sign mixed.
        let group = [3i8, -5, 7, -2];
        let z = sign_magnitude_zero_column(&group, 3);
        assert!(z.zero_columns() >= 3);
        assert_eq!(z.mse(&group), 0.0, "no forcing needed");
    }

    #[test]
    fn all_positive_group_skips_sign_column() {
        let group = [1i8, 2, 3, 4];
        let z = sign_magnitude_zero_column(&group, 0);
        assert!(z.zero_mask & 0x80 != 0, "sign column inherently zero");
    }

    #[test]
    fn forcing_collapses_levels() {
        // Large values leave no inherent zero column; forcing the low
        // columns collapses magnitudes onto multiples of 2^k (Fig. 1b).
        let group = [77i8, -25, -11, 113, 95, -127, 66, -88];
        let z = sign_magnitude_zero_column(&group, 3);
        for v in z.decode() {
            assert_eq!(v.unsigned_abs() % 8, 0, "magnitude must be multiple of 8");
        }
    }

    #[test]
    fn rounding_is_nearest() {
        // Magnitude 7 with low 3 columns forced rounds to 8, not 0.
        let group = [7i8, 77, -25, 113, 95, -127, 66, -88];
        let z = sign_magnitude_zero_column(&group, 3);
        assert_eq!(z.decode()[0], 8);
    }

    #[test]
    fn packed_rounding_matches_scalar_oracle() {
        // Exhaustive over the full i8 space as single-lane groups, every
        // target: the packed floor/upper mask arithmetic must reproduce the
        // 128-candidate scan exactly.
        for w in i8::MIN..=i8::MAX {
            for target in 0..SM_COLUMNS {
                assert_eq!(
                    sign_magnitude_zero_column(&[w], target),
                    sign_magnitude_zero_column_scalar(&[w], target),
                    "w={w} target={target}"
                );
            }
        }
        let mut rng = SeededRng::new(84);
        for _ in 0..150 {
            let n = rng.uniform_usize(1, 65);
            let group: Vec<i8> = (0..n).map(|_| rng.any_i8()).collect();
            for target in 0..SM_COLUMNS {
                assert_eq!(
                    sign_magnitude_zero_column(&group, target),
                    sign_magnitude_zero_column_scalar(&group, target),
                    "group {group:?} target {target}"
                );
            }
        }
        // Groups beyond the 64-lane packed representation take the scalar
        // fallback — the historical unbounded-length contract holds.
        let big: Vec<i8> = (0..130).map(|_| rng.any_i8()).collect();
        assert_eq!(
            sign_magnitude_zero_column(&big, 3),
            sign_magnitude_zero_column_scalar(&big, 3)
        );
    }

    #[test]
    fn reconstruction_error_bounded() {
        let mut rng = SeededRng::new(81);
        for _ in 0..100 {
            let n = rng.uniform_usize(4, 33);
            let group: Vec<i8> = (0..n).map(|_| rng.gaussian_i8(0.0, 35.0)).collect();
            let z = sign_magnitude_zero_column(&group, 4);
            for (w, d) in group.iter().zip(z.decode()) {
                let err = (*w as i32 - d).abs();
                // Worst case: 4 forced low columns -> error <= 2^4 / 2 = 8,
                // except near the magnitude rail where rounding up past 127
                // is impossible (and -128 saturates in sign-magnitude).
                if w.unsigned_abs() <= 112 {
                    assert!(err <= 8, "error {err} for weight {w}");
                } else {
                    assert!(err <= 16, "rail error {err} for weight {w}");
                }
            }
        }
    }

    #[test]
    fn bbs_shifting_beats_zero_column_on_dense_groups() {
        // The Fig. 1/6 comparison: on groups without inherent sparsity,
        // bi-directional pruning preserves the distribution better.
        let mut rng = SeededRng::new(82);
        let mut mse_zero_col = 0.0;
        let mut mse_bbs = 0.0;
        for _ in 0..100 {
            let group: Vec<i8> = (0..32).map(|_| rng.gaussian_i8(0.0, 45.0)).collect();
            mse_zero_col += sign_magnitude_zero_column(&group, 4).mse(&group);
            mse_bbs += zero_point_shifting(&group, 4).mse(&group);
        }
        assert!(
            mse_bbs < mse_zero_col,
            "bbs {mse_bbs} should beat zero-column {mse_zero_col}"
        );
    }

    #[test]
    fn storage_accounting() {
        let group = [1i8; 16];
        let z = sign_magnitude_zero_column(&group, 0);
        // Magnitude 1: columns 1..6 zero, sign column zero -> 7 zero columns.
        assert_eq!(z.zero_columns(), 7);
        assert_eq!(z.stored_bits(), 16 + 8);
    }

    #[test]
    fn sign_never_flips() {
        let mut rng = SeededRng::new(83);
        for _ in 0..100 {
            let n = rng.uniform_usize(2, 33);
            let group: Vec<i8> = (0..n).map(|_| rng.any_i8()).collect();
            let z = sign_magnitude_zero_column(&group, 5);
            for (w, d) in group.iter().zip(z.decode()) {
                if *w as i32 != 0 && d != 0 {
                    assert_eq!((*w as i32).signum(), d.signum(), "sign must be preserved");
                }
            }
        }
    }
}
