//! Redundant (sign-extension) bit columns — Fig. 4, step 1.
//!
//! Columns immediately below the MSB whose content equals the MSB column for
//! *every* weight are redundant: dropping them and reinterpreting the
//! remaining bits as a narrower two's-complement number is lossless. The
//! paper's example: `-57 = 11000111b` drops its second bit to become the
//! 7-bit `1000111b`, still `-57` once the new MSB carries `-2^6`.

use bbs_tensor::bits::{redundant_sign_bits, PackedGroup, WEIGHT_BITS};

/// Maximum redundant-column count representable by the 2-bit metadata field.
pub const MAX_ENCODED_REDUNDANT: usize = 3;

/// Exact number of redundant sign-extension columns shared by the whole
/// group (0..=7): the minimum over each weight's redundant sign bits.
///
/// Packs the group and counts via [`PackedGroup::redundant_columns`] — a
/// handful of mask comparisons instead of a per-weight width loop. Groups
/// beyond the 64-lane packed representation take the scalar path, keeping
/// this function's historical unbounded-length contract.
///
/// # Panics
///
/// Panics if `group` is empty.
pub fn group_redundant_columns(group: &[i8]) -> usize {
    assert!(!group.is_empty());
    if group.len() > bbs_tensor::bits::MAX_GROUP {
        return group_redundant_columns_scalar(group);
    }
    PackedGroup::from_words(group).redundant_columns()
}

/// Per-weight minimum of [`redundant_sign_bits`]: the path
/// [`group_redundant_columns`] takes for groups beyond 64 lanes, and the
/// oracle its packed path is tested against.
///
/// # Panics
///
/// Panics if `group` is empty.
pub fn group_redundant_columns_scalar(group: &[i8]) -> usize {
    assert!(!group.is_empty());
    group
        .iter()
        .map(|&w| redundant_sign_bits(w))
        .min()
        .expect("non-empty group")
}

/// The redundant-column count actually encoded, capped at
/// [`MAX_ENCODED_REDUNDANT`] (the paper prunes the first 3 and averages
/// additional lower columns instead) — the single home of the
/// 2-bit-metadata cap on the packed path.
pub fn encoded_redundant_columns_packed(packed: &PackedGroup) -> usize {
    packed.redundant_columns().min(MAX_ENCODED_REDUNDANT)
}

/// Checks that every group member is representable in `WEIGHT_BITS - r`
/// bits — the invariant that makes removing `r` columns lossless.
pub fn removal_is_lossless(group: &[i8], r: usize) -> bool {
    if r >= WEIGHT_BITS {
        return false;
    }
    let m = WEIGHT_BITS - r;
    let lo = -(1i16 << (m - 1));
    let hi = (1i16 << (m - 1)) - 1;
    group.iter().all(|&w| (w as i16) >= lo && (w as i16) <= hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig4_group_has_one_redundant_column() {
        // Fig. 4 original weights: -11, 2, -57, 13 -> "# Redundant Columns"
        // metadata is 01 (one column).
        let group = [-11i8, 2, -57, 13];
        assert_eq!(group_redundant_columns(&group), 1);
        let packed = PackedGroup::from_words(&group);
        assert_eq!(encoded_redundant_columns_packed(&packed), 1);
    }

    #[test]
    fn small_groups_have_many_redundant_columns_capped_at_three() {
        let group = [1i8, -2, 3, 0];
        assert!(group_redundant_columns(&group) >= 4);
        let packed = PackedGroup::from_words(&group);
        assert_eq!(encoded_redundant_columns_packed(&packed), 3);
    }

    #[test]
    fn extreme_values_have_none() {
        assert_eq!(group_redundant_columns(&[-128]), 0);
        assert_eq!(group_redundant_columns(&[127, 0]), 0);
        assert_eq!(group_redundant_columns(&[100, -100]), 0);
    }

    #[test]
    fn losslessness_matches_count() {
        let groups: [&[i8]; 4] = [&[-11, 2, -57, 13], &[1, 1], &[-128, 5], &[63, -64]];
        for g in groups {
            let r = group_redundant_columns(g);
            assert!(removal_is_lossless(g, r), "removal at r={r} must be safe");
            if r < WEIGHT_BITS - 1 {
                assert!(
                    !removal_is_lossless(g, r + 1),
                    "r is maximal for group {g:?}"
                );
            }
        }
    }

    #[test]
    fn redundant_count_is_min_over_members() {
        // 63 needs 7 bits (1 redundant), 1 needs 2 bits (6 redundant).
        assert_eq!(group_redundant_columns(&[63, 1]), 1);
    }

    #[test]
    fn packed_count_matches_scalar_oracle() {
        use bbs_tensor::rng::SeededRng;
        // Exhaustive over single-weight groups (the full i8 space)...
        for w in i8::MIN..=i8::MAX {
            assert_eq!(
                group_redundant_columns(&[w]),
                group_redundant_columns_scalar(&[w]),
                "w={w}"
            );
        }
        // ...and random groups of every size, including beyond the 64-lane
        // packed representation (scalar fallback keeps the old contract).
        let mut rng = SeededRng::new(19);
        for n in (1..=64usize).chain([65, 100, 256]) {
            let g: Vec<i8> = (0..n).map(|_| rng.gaussian_i8(0.0, 35.0)).collect();
            assert_eq!(
                group_redundant_columns(&g),
                group_redundant_columns_scalar(&g)
            );
        }
    }
}
