//! The BBS compression encoding (paper §III-B).
//!
//! A compressed weight group stores only its *kept* bit columns plus one
//! 8-bit metadata word:
//!
//! ```text
//! | 2 bits: #redundant columns (0..=3) | 6 bits: BBS constant |
//! ```
//!
//! The constant's meaning depends on the pruning strategy:
//!
//! * **rounded averaging** — the unsigned `g`-bit value that replaced the
//!   `g` least-significant columns of every weight (`w = kept + c`),
//! * **zero-point shifting** — the signed shift added before pruning
//!   (`w = kept - c`).
//!
//! Either way, the hardware evaluates the constant with one multiply against
//! the group activation sum `ΣA` (Fig. 7, step 4), because
//! `Σ (kept_i ± c)·a_i = Σ kept_i·a_i ± c·ΣA`.

use crate::redundant::MAX_ENCODED_REDUNDANT;
use bbs_tensor::bits::{MAX_GROUP, WEIGHT_BITS};
use bbs_tensor::metrics;
use std::fmt;

/// Number of metadata bits per compressed group.
pub const METADATA_BITS: usize = 8;
/// Width of the BBS constant field.
pub const CONSTANT_BITS: usize = 6;

/// Interpretation of the 6-bit BBS constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstantKind {
    /// Rounded averaging: the constant is the unsigned low-bit average,
    /// reconstructed as `w = kept + c` (Fig. 4).
    LowBitsAverage,
    /// Zero-point shifting: the constant is the signed zero-point shift,
    /// reconstructed as `w = kept - c` (Fig. 5).
    ZeroPointShift,
}

impl fmt::Display for ConstantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstantKind::LowBitsAverage => write!(f, "rounded-averaging"),
            ConstantKind::ZeroPointShift => write!(f, "zero-point-shifting"),
        }
    }
}

/// The 8-bit per-group metadata word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BbsMetadata {
    /// Redundant (sign-extension) columns removed: 0..=3.
    pub num_redundant: u8,
    /// The BBS constant. Unsigned `g`-bit for averaging, signed 6-bit for
    /// shifting.
    pub constant: i8,
}

impl BbsMetadata {
    /// Packs into the 8-bit wire format.
    pub fn pack(&self) -> u8 {
        debug_assert!(self.num_redundant as usize <= MAX_ENCODED_REDUNDANT);
        ((self.num_redundant & 0x3) << CONSTANT_BITS) | (self.constant as u8 & 0x3f)
    }

    /// Unpacks from the 8-bit wire format.
    ///
    /// The constant field is sign-extended for [`ConstantKind::ZeroPointShift`]
    /// and kept unsigned for [`ConstantKind::LowBitsAverage`].
    pub fn unpack(raw: u8, kind: ConstantKind) -> Self {
        let num_redundant = raw >> CONSTANT_BITS;
        let low = raw & 0x3f;
        let constant = match kind {
            ConstantKind::LowBitsAverage => low as i8,
            // Sign-extend the 6-bit field.
            ConstantKind::ZeroPointShift => ((low << 2) as i8) >> 2,
        };
        BbsMetadata {
            num_redundant,
            constant,
        }
    }
}

/// A weight group after binary pruning: the kept bit columns plus metadata.
///
/// Kept columns are ordered from significance `g` (lowest kept) to
/// `7 - num_redundant` (the narrowed MSB, which carries negative weight).
///
/// # Example
///
/// ```
/// use bbs_core::averaging::rounded_averaging;
///
/// // The paper's Fig. 4 group: prune 4 columns (1 redundant + 3 averaged).
/// let group = [-11i8, 20, -57, 13];
/// let compressed = rounded_averaging(&group, 4);
/// assert_eq!(compressed.kept_column_count(), 4);
/// assert_eq!(compressed.decode(), vec![-11, 21, -59, 13]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedGroup {
    n: usize,
    kept: Vec<u64>,
    meta: BbsMetadata,
    kind: ConstantKind,
}

impl CompressedGroup {
    /// Assembles a compressed group from parts, validating the encoding
    /// invariants.
    ///
    /// # Panics
    ///
    /// Panics when the parts violate the format: empty/oversized group,
    /// no kept columns, more than 8 total columns, a redundant count beyond
    /// the 2-bit field, an averaging constant that does not fit the pruned
    /// low-column count, or a shifting constant outside the signed 6-bit
    /// range.
    pub fn from_parts(n: usize, kept: Vec<u64>, meta: BbsMetadata, kind: ConstantKind) -> Self {
        assert!((1..=MAX_GROUP).contains(&n), "group size {n}");
        assert!(!kept.is_empty(), "at least one kept column required");
        let r = meta.num_redundant as usize;
        assert!(r <= MAX_ENCODED_REDUNDANT, "redundant count {r}");
        assert!(kept.len() + r <= WEIGHT_BITS, "too many columns");
        let g = WEIGHT_BITS - r - kept.len();
        match kind {
            ConstantKind::LowBitsAverage => {
                assert!(
                    g <= CONSTANT_BITS,
                    "averaging supports at most 6 low columns"
                );
                assert!(
                    (0..(1i16 << g.max(1))).contains(&(meta.constant as i16)) || g == 0,
                    "averaging constant {} does not fit {g} bits",
                    meta.constant
                );
                if g == 0 {
                    assert_eq!(meta.constant, 0, "no low columns pruned but constant set");
                }
            }
            ConstantKind::ZeroPointShift => {
                assert!(
                    (-32..=31).contains(&meta.constant),
                    "shift constant {} outside signed 6-bit range",
                    meta.constant
                );
            }
        }
        let lane_mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        for (j, &c) in kept.iter().enumerate() {
            assert!(c & !lane_mask == 0, "kept column {j} has stray lane bits");
        }
        CompressedGroup {
            n,
            kept,
            meta,
            kind,
        }
    }

    /// Encodes a group *losslessly*: only redundant sign-extension columns
    /// are removed (no value changes).
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty or exceeds 64 weights.
    pub fn lossless(group: &[i8]) -> Self {
        // One pack serves both the redundant count and the kept columns.
        let bits = bbs_tensor::bits::PackedGroup::from_words(group);
        let r = crate::redundant::encoded_redundant_columns_packed(&bits);
        let kept: Vec<u64> = (0..WEIGHT_BITS - r).map(|b| bits.column(b)).collect();
        CompressedGroup::from_parts(
            group.len(),
            kept,
            BbsMetadata {
                num_redundant: r as u8,
                constant: 0,
            },
            ConstantKind::ZeroPointShift,
        )
    }

    /// Group size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the group is empty (never true for a constructed group).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of kept (stored) bit columns.
    pub fn kept_column_count(&self) -> usize {
        self.kept.len()
    }

    /// Number of pruned columns (redundant + generated sparse).
    pub fn pruned_columns(&self) -> usize {
        WEIGHT_BITS - self.kept.len()
    }

    /// Number of redundant columns removed.
    pub fn num_redundant(&self) -> usize {
        self.meta.num_redundant as usize
    }

    /// Number of generated sparse low columns (`g`).
    pub fn low_pruned(&self) -> usize {
        WEIGHT_BITS - self.num_redundant() - self.kept.len()
    }

    /// The metadata word.
    pub fn metadata(&self) -> BbsMetadata {
        self.meta
    }

    /// The constant interpretation.
    pub fn kind(&self) -> ConstantKind {
        self.kind
    }

    /// The kept column mask at index `j` (significance `low_pruned() + j`).
    pub fn kept_column(&self, j: usize) -> u64 {
        self.kept[j]
    }

    /// All kept column masks, lowest significance first (the allocation-free
    /// view behind [`kept_column`](Self::kept_column)).
    pub fn kept_columns(&self) -> &[u64] {
        &self.kept
    }

    /// Decodes the reconstructed integer weights.
    ///
    /// Values are on the INT8 grid but may slightly exceed the `i8` range
    /// after zero-point shifting (the hardware accumulator absorbs this; the
    /// constant is applied as `±c·ΣA`).
    ///
    /// Reconstruction is plane-based: the kept columns are placed at their
    /// significances, the narrowed MSB column is replicated upward (sign
    /// extension of the narrowed two's-complement value), and the whole
    /// group is unpacked with the fast inverse bit transpose.
    pub fn decode(&self) -> Vec<i32> {
        let g = self.low_pruned();
        let r = self.meta.num_redundant as usize;
        let mut planes = [0u64; WEIGHT_BITS];
        for (j, &col) in self.kept.iter().enumerate() {
            planes[g + j] = col;
        }
        let msb = self.kept[self.kept.len() - 1];
        for plane in planes.iter_mut().skip(WEIGHT_BITS - r) {
            *plane = msb;
        }
        let c = self.meta.constant as i32;
        bbs_tensor::bits::unpack_planes(&planes, self.n)
            .into_iter()
            .map(|w| match self.kind {
                ConstantKind::LowBitsAverage => w as i32 + c,
                ConstantKind::ZeroPointShift => w as i32 - c,
            })
            .collect()
    }

    /// Reconstruction MSE against the original group.
    ///
    /// # Panics
    ///
    /// Panics if `original.len() != self.len()`.
    pub fn mse(&self, original: &[i8]) -> f64 {
        assert_eq!(original.len(), self.n);
        metrics::mse_i8(original, &self.decode())
    }

    /// Storage cost in bits: kept columns plus the metadata word.
    pub fn stored_bits(&self) -> usize {
        self.n * self.kept.len() + METADATA_BITS
    }

    /// Uncompressed cost in bits.
    pub fn original_bits(&self) -> usize {
        self.n * WEIGHT_BITS
    }

    /// Effective bits per weight including metadata amortization.
    pub fn effective_bits_per_weight(&self) -> f64 {
        self.stored_bits() as f64 / self.n as f64
    }

    /// Per-column dot-product weight for the simulator: the signed scale of
    /// kept column `j`.
    pub fn column_scale(&self, j: usize) -> i64 {
        let g = self.low_pruned();
        let b = g + j;
        if j == self.kept.len() - 1 {
            -(1i64 << b)
        } else {
            1i64 << b
        }
    }

    /// Evaluates the compressed dot product against activations, exactly as
    /// the BitVert PE would: kept columns bit-serially plus the constant
    /// against `ΣA`.
    ///
    /// Equals `Σ decode()[i] · a_i`.
    ///
    /// # Panics
    ///
    /// Panics if `activations.len() != self.len()`.
    pub fn dot(&self, activations: &[i32]) -> i64 {
        assert_eq!(activations.len(), self.n);
        let col_part: i64 = (0..self.kept.len())
            .map(|j| {
                self.column_scale(j) * crate::bbs_math::column_sum_direct(self.kept[j], activations)
            })
            .sum();
        let sum_a: i64 = activations.iter().map(|&a| a as i64).sum();
        let c = self.meta.constant as i64;
        match self.kind {
            ConstantKind::LowBitsAverage => col_part + c * sum_a,
            ConstantKind::ZeroPointShift => col_part - c * sum_a,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_tensor::rng::SeededRng;

    #[test]
    fn metadata_roundtrip_shift() {
        for c in -32i8..=31 {
            for r in 0u8..=3 {
                let m = BbsMetadata {
                    num_redundant: r,
                    constant: c,
                };
                let unpacked = BbsMetadata::unpack(m.pack(), ConstantKind::ZeroPointShift);
                assert_eq!(unpacked, m);
            }
        }
    }

    #[test]
    fn metadata_roundtrip_average() {
        for c in 0i8..=63 {
            let m = BbsMetadata {
                num_redundant: 2,
                constant: c,
            };
            let unpacked = BbsMetadata::unpack(m.pack(), ConstantKind::LowBitsAverage);
            assert_eq!(unpacked, m);
        }
    }

    #[test]
    fn lossless_roundtrip_random_groups() {
        let mut rng = SeededRng::new(41);
        for _ in 0..200 {
            let n = rng.uniform_usize(1, 33);
            let group: Vec<i8> = (0..n).map(|_| rng.any_i8()).collect();
            let enc = CompressedGroup::lossless(&group);
            let decoded = enc.decode();
            for (w, d) in group.iter().zip(&decoded) {
                assert_eq!(*w as i32, *d);
            }
            assert_eq!(enc.mse(&group), 0.0);
        }
    }

    #[test]
    fn lossless_removes_redundant_columns() {
        let group = [1i8, -2, 3, 0];
        let enc = CompressedGroup::lossless(&group);
        assert_eq!(enc.num_redundant(), 3);
        assert_eq!(enc.kept_column_count(), 5);
        assert_eq!(enc.low_pruned(), 0);
        assert!(enc.stored_bits() < enc.original_bits());
    }

    #[test]
    fn dot_matches_decoded_reference() {
        let mut rng = SeededRng::new(42);
        for _ in 0..200 {
            let n = rng.uniform_usize(2, 33);
            let group: Vec<i8> = (0..n).map(|_| rng.gaussian_i8(0.0, 30.0)).collect();
            let enc = CompressedGroup::lossless(&group);
            let a: Vec<i32> = (0..n).map(|_| rng.any_i8() as i32).collect();
            let expect: i64 = enc
                .decode()
                .iter()
                .zip(&a)
                .map(|(&w, &x)| w as i64 * x as i64)
                .sum();
            assert_eq!(enc.dot(&a), expect);
        }
    }

    /// Per-lane oracle for [`CompressedGroup::decode`]: the signed
    /// contribution of the kept columns of lane `i` (the narrowed
    /// two's-complement value), summed column by column.
    fn kept_value(enc: &CompressedGroup, i: usize) -> i32 {
        let kept = enc.kept_columns();
        let mut v: i64 = 0;
        for (j, &col) in kept.iter().enumerate() {
            if (col >> i) & 1 == 1 {
                let b = enc.low_pruned() + j;
                // The narrowed MSB carries -2^b.
                v += if j == kept.len() - 1 {
                    -(1i64 << b)
                } else {
                    1i64 << b
                };
            }
        }
        v as i32
    }

    #[test]
    fn plane_decode_matches_kept_value_path() {
        // The transpose-based decode must agree with the per-lane
        // kept_value reconstruction for every strategy.
        let mut rng = SeededRng::new(43);
        for _ in 0..100 {
            let n = rng.uniform_usize(1, 65);
            let group: Vec<i8> = (0..n).map(|_| rng.any_i8()).collect();
            let target = rng.uniform_usize(0, 8);
            for enc in [
                CompressedGroup::lossless(&group),
                crate::averaging::rounded_averaging(&group, target.min(7)),
                crate::shifting::zero_point_shifting(&group, target.min(7)),
            ] {
                let c = enc.metadata().constant as i32;
                let expect: Vec<i32> = (0..n)
                    .map(|i| match enc.kind() {
                        ConstantKind::LowBitsAverage => kept_value(&enc, i) + c,
                        ConstantKind::ZeroPointShift => kept_value(&enc, i) - c,
                    })
                    .collect();
                assert_eq!(enc.decode(), expect);
            }
        }
    }

    #[test]
    fn stored_bits_accounting() {
        let group = [-11i8, 2, -57, 13];
        let enc = CompressedGroup::lossless(&group);
        // One redundant column: 7 columns * 4 weights + 8 metadata bits.
        assert_eq!(enc.stored_bits(), 7 * 4 + 8);
        assert!((enc.effective_bits_per_weight() - 9.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one kept column")]
    fn rejects_empty_columns() {
        let _ = CompressedGroup::from_parts(
            4,
            vec![],
            BbsMetadata {
                num_redundant: 0,
                constant: 0,
            },
            ConstantKind::ZeroPointShift,
        );
    }

    #[test]
    #[should_panic(expected = "shift constant")]
    fn rejects_out_of_range_shift_constant() {
        let _ = CompressedGroup::from_parts(
            4,
            vec![0; 4],
            BbsMetadata {
                num_redundant: 0,
                constant: 40,
            },
            ConstantKind::ZeroPointShift,
        );
    }

    #[test]
    #[should_panic(expected = "stray lane bits")]
    fn rejects_stray_lane_bits() {
        let _ = CompressedGroup::from_parts(
            2,
            vec![0b100; 8],
            BbsMetadata {
                num_redundant: 0,
                constant: 0,
            },
            ConstantKind::ZeroPointShift,
        );
    }

    #[test]
    fn constant_kind_display() {
        assert_eq!(
            ConstantKind::LowBitsAverage.to_string(),
            "rounded-averaging"
        );
        assert_eq!(
            ConstantKind::ZeroPointShift.to_string(),
            "zero-point-shifting"
        );
    }
}
