//! Bit-plane views of `i8` weight groups and the sparsity statistics of
//! the paper's Fig. 3.
//!
//! A *bit column* is the set of bits at one significance across a group of
//! weights; a *bit vector* is a fixed-size chunk of a column. The central
//! observation of BBS is that any bit vector is at least 50% sparse once the
//! majority symbol (zero or one) is treated as the sparse one.

use crate::lanes::{Backend, Lanes, U64x4, WORDS};

/// Number of bits in a weight (the paper's operand precision `p`).
pub const WEIGHT_BITS: usize = 8;

/// Maximum group size representable by the `u64` column masks.
pub const MAX_GROUP: usize = 64;

/// Returns bit `b` (0 = LSB) of a weight's two's-complement representation.
#[inline]
fn bit_of(w: i8, b: usize) -> bool {
    debug_assert!(b < WEIGHT_BITS);
    (w as u8 >> b) & 1 == 1
}

/// Minimal two's-complement width of `w`: the smallest `m ≥ 1` with
/// `-2^(m-1) <= w < 2^(m-1)`.
///
/// # Example
///
/// Seen through its public complement `redundant_sign_bits` (`8 - width`):
///
/// ```
/// use bbs_tensor::bits::redundant_sign_bits;
/// assert_eq!(redundant_sign_bits(0), 7); // width 1
/// assert_eq!(redundant_sign_bits(-1), 7); // width 1
/// assert_eq!(redundant_sign_bits(-57), 1); // width 7: 1000111b
/// assert_eq!(redundant_sign_bits(127), 0); // width 8
/// ```
fn min_twos_complement_width(w: i8) -> usize {
    for m in 1..WEIGHT_BITS {
        let lo = -(1i16 << (m - 1));
        let hi = 1i16 << (m - 1);
        if (w as i16) >= lo && (w as i16) < hi {
            return m;
        }
    }
    WEIGHT_BITS
}

/// Number of *redundant* sign-extension columns in the 8-bit representation
/// of `w` — columns immediately below the MSB identical to the MSB.
///
/// Removing them is lossless when the remaining bits are reinterpreted as a
/// narrower two's-complement number (paper §III-B, Fig. 4 step 1).
pub fn redundant_sign_bits(w: i8) -> usize {
    WEIGHT_BITS - min_twos_complement_width(w)
}

/// Sign-magnitude byte of `w`: bit 7 is the sign, bits 0‥6 the magnitude.
///
/// `-128` is saturated to magnitude 127 because sign-magnitude cannot
/// represent it — the same convention as the sign-magnitude accelerators the
/// paper compares against (BitWave).
#[inline]
pub fn sign_magnitude(w: i8) -> u8 {
    let sign = if w < 0 { 0x80u8 } else { 0 };
    let mag = (w as i16).unsigned_abs().min(127) as u8;
    sign | mag
}

/// Transposes an 8×8 bit matrix held in a `u64` (byte `i` = row `i`,
/// bit `b` of a byte = column `b`), in 18 word ops (Hacker's Delight 7-3).
///
/// An involution: applying it twice is the identity, so the same routine
/// packs words into bit planes and unpacks planes back into words.
#[inline]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00aa_00aa_00aa_00aa;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_cccc_0000_cccc;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_f0f0_f0f0;
    x ^= t ^ (t << 28);
    x
}

/// [`transpose8`] applied to four chunks at once over a lane vector: the
/// Hacker's Delight network is pure shift/xor/and, so it maps one-for-one
/// onto [`Lanes`] mask ops and stays bit-identical per word.
#[inline(always)]
fn transpose8_batched<L: Lanes>(mut x: L) -> L {
    let t = x.xor(x.shr(7)).and(L::splat(0x00aa_00aa_00aa_00aa));
    x = x.xor(t).xor(t.shl(7));
    let t = x.xor(x.shr(14)).and(L::splat(0x0000_cccc_0000_cccc));
    x = x.xor(t).xor(t.shl(14));
    let t = x.xor(x.shr(28)).and(L::splat(0x0000_0000_f0f0_f0f0));
    x = x.xor(t).xor(t.shl(28));
    x
}

#[inline(always)]
fn transpose_rows_batched<L: Lanes>(rows: &mut [u64; 8], nchunks: usize) {
    let mut ci = 0;
    while ci + WORDS <= nchunks {
        let quad: [u64; WORDS] = rows[ci..ci + WORDS].try_into().expect("quad slice");
        let tw = transpose8_batched(L::load(&quad)).store();
        rows[ci..ci + WORDS].copy_from_slice(&tw);
        ci += WORDS;
    }
    while ci < nchunks {
        rows[ci] = transpose8(rows[ci]);
        ci += 1;
    }
}

// `target_feature` functions only inline into other AVX2 functions, so the
// generic body must be `#[inline(always)]` (see `transpose8_batched`) for
// the intrinsics to fuse into one straight-line network.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose_rows_avx2(rows: &mut [u64; 8], nchunks: usize) {
    transpose_rows_batched::<crate::lanes::Avx2>(rows, nchunks);
}

/// Transposes the first `nchunks` 8×8 bit matrices, four chunks per
/// [`Lanes`] op: the AVX2 build under [`Backend::Wide`] on an AVX2 host,
/// else the portable [`U64x4`] build of the same source.
fn transpose_rows_with(backend: Backend, rows: &mut [u64; 8], nchunks: usize) {
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Wide && crate::lanes::avx2() {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe { transpose_rows_avx2(rows, nchunks) };
    }
    let _ = backend;
    transpose_rows_batched::<U64x4>(rows, nchunks)
}

/// Packs up to 64 words into their eight bit-plane masks: bit `i` of plane
/// `b` is bit `b` of word `i`. Lanes beyond `words.len()` are zero.
///
/// # Panics
///
/// Panics if `words` has more than [`MAX_GROUP`] elements (a larger slice
/// cannot be represented and would otherwise corrupt the lane masks).
fn pack_planes(words: &[i8]) -> [u64; WEIGHT_BITS] {
    assert!(words.len() <= MAX_GROUP, "at most {MAX_GROUP} lanes");
    let mut rows = [0u64; 8];
    let nchunks = words.len().div_ceil(8);
    for (ci, chunk) in words.chunks(8).enumerate() {
        let mut x = 0u64;
        for (i, &w) in chunk.iter().enumerate() {
            x |= (w as u8 as u64) << (8 * i);
        }
        rows[ci] = x;
    }
    transpose_rows_with(Backend::active(), &mut rows, nchunks);
    let mut cols = [0u64; WEIGHT_BITS];
    for (ci, &t) in rows[..nchunks].iter().enumerate() {
        for (b, col) in cols.iter_mut().enumerate() {
            *col |= ((t >> (8 * b)) & 0xff) << (8 * ci);
        }
    }
    cols
}

/// Reconstructs the first `n` words from their bit-plane masks (the
/// inverse of [`PackedGroup::from_words`]).
///
/// # Panics
///
/// Panics if `n > MAX_GROUP`.
pub fn unpack_planes(cols: &[u64; WEIGHT_BITS], n: usize) -> Vec<i8> {
    assert!(n <= MAX_GROUP, "at most {MAX_GROUP} lanes");
    let nchunks = n.div_ceil(8);
    let mut rows = [0u64; 8];
    for (ci, row) in rows[..nchunks].iter_mut().enumerate() {
        for (b, col) in cols.iter().enumerate() {
            *row |= ((col >> (8 * ci)) & 0xff) << (8 * b);
        }
    }
    // The transpose is an involution, so unpacking reuses the same batched
    // network as packing.
    transpose_rows_with(Backend::active(), &mut rows, nchunks);
    let mut out = [0i8; MAX_GROUP];
    for (chunk, x) in out.chunks_exact_mut(8).zip(rows) {
        chunk.copy_from_slice(&x.to_le_bytes().map(|b| b as i8));
    }
    out[..n].to_vec()
}

/// Bit-plane (bit-sliced) view of a group of up to 64 weights, the
/// representation the packed pruning kernels in `bbs-core` operate on
/// directly.
///
/// Column `b` is stored as a `u64` mask whose bit `i` is bit `b` of word
/// `i`. On top of the transpose-based pack/unpack it offers the
/// mask-arithmetic surface the binary-pruning algorithms need: popcount
/// column statistics, redundant-column counting as mask comparisons, and
/// zero-padded packing for partial trailing groups.
///
/// # Example
///
/// ```
/// use bbs_tensor::bits::PackedGroup;
///
/// let g = PackedGroup::from_words(&[-11, 2, -57, 13]);
/// assert_eq!(g.len(), 4);
/// // Weight -11 = 0b1111_0101: bit 0 set, bit 1 clear.
/// assert_eq!(g.column(0) & 1, 1);
/// assert_eq!(g.column(1) & 1, 0);
/// // Fig. 4: the group shares exactly one redundant sign column.
/// assert_eq!(g.redundant_columns(), 1);
/// assert_eq!(g.to_words(), vec![-11, 2, -57, 13]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedGroup {
    cols: [u64; WEIGHT_BITS],
    n: usize,
}

impl PackedGroup {
    /// Packs a weight group into bit planes.
    ///
    /// # Panics
    ///
    /// Panics if the group is empty or larger than [`MAX_GROUP`].
    pub fn from_words(words: &[i8]) -> Self {
        assert!(
            !words.is_empty() && words.len() <= MAX_GROUP,
            "group size must be in 1..={MAX_GROUP}, got {}",
            words.len()
        );
        PackedGroup {
            cols: pack_planes(words),
            n: words.len(),
        }
    }

    /// Packs a group zero-padded to `n` lanes (the trailing-partial-group
    /// convention of channel compression) without materializing the padded
    /// word vector.
    ///
    /// # Panics
    ///
    /// Panics if `words` is empty, `n < words.len()`, or `n > MAX_GROUP`.
    pub fn from_words_padded(words: &[i8], n: usize) -> Self {
        assert!(!words.is_empty() && words.len() <= n && n <= MAX_GROUP);
        PackedGroup {
            cols: pack_planes(words),
            n,
        }
    }

    /// Number of lanes in the group.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the group is empty (never true for a constructed group).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The mask of valid lanes (`n` low bits set).
    pub fn lane_mask(&self) -> u64 {
        lane_mask_of(self.n)
    }

    /// Column mask at significance `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b >= 8`.
    pub fn column(&self, b: usize) -> u64 {
        self.cols[b]
    }

    /// All eight column masks, LSB plane first.
    pub fn columns(&self) -> &[u64; WEIGHT_BITS] {
        &self.cols
    }

    /// Number of one-bits in column `b`.
    pub fn column_popcount(&self, b: usize) -> usize {
        self.cols[b].count_ones() as usize
    }

    /// Exact shared redundant sign-extension column count (0..=7) as mask
    /// comparisons: the number of consecutive columns below the MSB whose
    /// mask equals the MSB column mask.
    ///
    /// Equals `min` over lanes of `redundant_sign_bits(word)`.
    pub fn redundant_columns(&self) -> usize {
        let msb = self.cols[WEIGHT_BITS - 1];
        let mut r = 0;
        while r < WEIGHT_BITS - 1 && self.cols[WEIGHT_BITS - 2 - r] == msb {
            r += 1;
        }
        r
    }

    /// Sum over lanes of the low `g` bits of each word, via one popcount
    /// per plane: `Σ_i (word_i & (2^g - 1)) = Σ_{b<g} 2^b · |plane_b|`.
    ///
    /// # Panics
    ///
    /// Panics if `g > 8`.
    pub fn low_bits_sum(&self, g: usize) -> u32 {
        self.low_bits_sum_with(Backend::active(), g)
    }

    /// [`PackedGroup::low_bits_sum`] under an explicit backend: the
    /// per-plane popcounts run four planes at a time, in the AVX2 build
    /// under [`Backend::Wide`] on an AVX2 host, else in the portable one.
    fn low_bits_sum_with(&self, backend: Backend, g: usize) -> u32 {
        assert!(g <= WEIGHT_BITS);
        #[cfg(target_arch = "x86_64")]
        if backend == Backend::Wide && crate::lanes::avx2() {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { low_bits_sum_avx2(&self.cols, g) };
        }
        let _ = backend;
        low_bits_sum_batched::<U64x4>(&self.cols, g)
    }

    /// Reconstructs all words (fast inverse transpose).
    pub fn to_words(&self) -> Vec<i8> {
        unpack_planes(&self.cols, self.n)
    }
}

#[inline(always)]
fn low_bits_sum_batched<L: Lanes>(cols: &[u64; WEIGHT_BITS], g: usize) -> u32 {
    let mut quad = [0u64; WORDS];
    for (b, q) in quad.iter_mut().enumerate().take(g.min(WORDS)) {
        *q = cols[b];
    }
    let lo = L::load(&quad).popcounts();
    let mut quad = [0u64; WORDS];
    for (b, q) in quad.iter_mut().enumerate().take(g.saturating_sub(WORDS)) {
        *q = cols[b + WORDS];
    }
    let hi = L::load(&quad).popcounts();
    (0..WORDS)
        .map(|b| (lo[b] << b) + (hi[b] << (b + WORDS)))
        .sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn low_bits_sum_avx2(cols: &[u64; WEIGHT_BITS], g: usize) -> u32 {
    low_bits_sum_batched::<crate::lanes::Avx2>(cols, g)
}

fn lane_mask_of(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Fraction of zero *values* in a slice (the classic value sparsity that
/// collapses to < 5% after 8-bit PTQ — paper Fig. 3).
///
/// # Panics
///
/// Panics if `weights` is empty.
pub fn value_sparsity(weights: &[i8]) -> f64 {
    assert!(!weights.is_empty());
    weights.iter().filter(|&&w| w == 0).count() as f64 / weights.len() as f64
}

/// Fraction of zero bits in the two's-complement representation.
///
/// # Panics
///
/// Panics if `weights` is empty.
pub fn bit_sparsity_twos_complement(weights: &[i8]) -> f64 {
    assert!(!weights.is_empty());
    let ones: u32 = weights.iter().map(|&w| (w as u8).count_ones()).sum();
    1.0 - ones as f64 / (weights.len() * WEIGHT_BITS) as f64
}

/// Fraction of zero bits in the sign-magnitude representation.
///
/// # Panics
///
/// Panics if `weights` is empty.
pub fn bit_sparsity_sign_magnitude(weights: &[i8]) -> f64 {
    assert!(!weights.is_empty());
    let ones: u32 = weights
        .iter()
        .map(|&w| sign_magnitude(w).count_ones())
        .sum();
    1.0 - ones as f64 / (weights.len() * WEIGHT_BITS) as f64
}

/// Bi-directional bit sparsity with the given bit-vector size (paper Fig. 3
/// uses `vector_size = 8`): for every bit vector, the majority symbol is
/// sparse, so the skippable fraction is `max(zeros, ones) / len`.
///
/// Partial trailing vectors are included with their own length.
///
/// # Panics
///
/// Panics if `weights` is empty or `vector_size` is zero.
pub fn bbs_sparsity(weights: &[i8], vector_size: usize) -> f64 {
    assert!(!weights.is_empty());
    assert!(vector_size > 0);
    let mut sparse_bits = 0usize;
    let mut total_bits = 0usize;
    for chunk in weights.chunks(vector_size) {
        for b in 0..WEIGHT_BITS {
            let ones = chunk.iter().filter(|&&w| bit_of(w, b)).count();
            sparse_bits += ones.max(chunk.len() - ones);
            total_bits += chunk.len();
        }
    }
    sparse_bits as f64 / total_bits as f64
}

/// All four Fig. 3 sparsity statistics for one tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsityStats {
    /// Fraction of zero values.
    pub value: f64,
    /// Fraction of zero bits, two's complement.
    pub bit_twos_complement: f64,
    /// Fraction of zero bits, sign-magnitude.
    pub bit_sign_magnitude: f64,
    /// Bi-directional bit sparsity (vector size 8).
    pub bbs: f64,
}

impl SparsityStats {
    /// Computes the statistics of a weight slice with the paper's defaults.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn measure(weights: &[i8]) -> Self {
        SparsityStats {
            value: value_sparsity(weights),
            bit_twos_complement: bit_sparsity_twos_complement(weights),
            bit_sign_magnitude: bit_sparsity_sign_magnitude(weights),
            bbs: bbs_sparsity(weights, 8),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rebuilds a packed group from raw column masks.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not in `1..=MAX_GROUP` or a mask has bits beyond `n`.
    fn from_columns(n: usize, cols: [u64; WEIGHT_BITS]) -> PackedGroup {
        assert!((1..=MAX_GROUP).contains(&n));
        let valid = lane_mask_of(n);
        for (b, &c) in cols.iter().enumerate() {
            assert!(c & !valid == 0, "column {b} has bits beyond group size");
        }
        PackedGroup { cols, n }
    }

    #[test]
    fn fig4_example_bits() {
        // The weights of the paper's Fig. 4: -11, 2(0), -57, 13.
        // -57 = 1100_0111b.
        let w: i8 = -57;
        let bits: Vec<bool> = (0..8).map(|b| bit_of(w, b)).collect();
        assert_eq!(
            bits,
            vec![true, true, true, false, false, false, true, true]
        );
    }

    #[test]
    fn min_width_boundaries() {
        assert_eq!(min_twos_complement_width(0), 1);
        assert_eq!(min_twos_complement_width(-1), 1);
        // -57 needs 7 bits: 1000111b.
        assert_eq!(min_twos_complement_width(-57), 7);
        assert_eq!(min_twos_complement_width(127), 8);
        assert_eq!(min_twos_complement_width(1), 2);
        assert_eq!(min_twos_complement_width(-2), 2);
        assert_eq!(min_twos_complement_width(63), 7);
        assert_eq!(min_twos_complement_width(-64), 7);
        assert_eq!(min_twos_complement_width(64), 8);
        assert_eq!(min_twos_complement_width(-128), 8);
    }

    #[test]
    fn paper_redundant_column_example() {
        // Fig. 4: -57 = 11000111b has exactly one redundant column — removing
        // the second bit leaves 1000111b, still -57 with MSB weight -2^6.
        assert_eq!(redundant_sign_bits(-57), 1);
        // Small numbers have many redundant sign columns.
        assert_eq!(redundant_sign_bits(2), 5);
        assert_eq!(redundant_sign_bits(-11), 3);
        assert_eq!(redundant_sign_bits(13), 3);
    }

    #[test]
    fn sign_magnitude_encoding() {
        assert_eq!(sign_magnitude(0), 0);
        assert_eq!(sign_magnitude(5), 0b0000_0101);
        assert_eq!(sign_magnitude(-5), 0b1000_0101);
        assert_eq!(sign_magnitude(127), 0b0111_1111);
        assert_eq!(sign_magnitude(-127), 0b1111_1111);
        // -128 saturates.
        assert_eq!(sign_magnitude(-128), 0b1111_1111);
    }

    #[test]
    fn bitgroup_roundtrip_all_i8() {
        let words: Vec<i8> = (-64..64).collect();
        for chunk in words.chunks(32) {
            let g = PackedGroup::from_words(chunk);
            assert_eq!(g.to_words(), chunk);
        }
    }

    #[test]
    fn bitgroup_columns_match_bits() {
        let words = [-11i8, 2, -57, 13];
        let g = PackedGroup::from_words(&words);
        for (i, &w) in words.iter().enumerate() {
            for b in 0..8 {
                assert_eq!((g.column(b) >> i) & 1 == 1, bit_of(w, b));
            }
            assert_eq!(g.to_words()[i], w);
        }
    }

    #[test]
    fn column_classification() {
        // All-zero column: every weight has bit 4 clear.
        let g = PackedGroup::from_words(&[0, 1, 2, 3]);
        assert_eq!(g.column(4), 0);
        // All-one column: all-negative weights share the sign bit.
        let g = PackedGroup::from_words(&[-1, -2, -3, -4]);
        assert_eq!(g.column(7), g.lane_mask());
        // Mixed column.
        let g = PackedGroup::from_words(&[1, 0, 1, 0]);
        assert!(g.column(0) != 0 && g.column(0) != g.lane_mask());
        assert_eq!(g.column_popcount(0), 2);
    }

    #[test]
    fn from_columns_validates_lanes() {
        let g = PackedGroup::from_words(&[3, -3]);
        let g2 = from_columns(2, *g.columns());
        assert_eq!(g, g2);
    }

    #[test]
    #[should_panic(expected = "beyond group size")]
    fn from_columns_rejects_stray_bits() {
        let mut cols = [0u64; WEIGHT_BITS];
        cols[0] = 0b100; // lane 2 does not exist in a group of 2
        let _ = from_columns(2, cols);
    }

    #[test]
    fn transpose_pack_matches_naive_pack() {
        // The transpose fast path must agree with per-bit packing for every
        // group size, including sizes that are not multiples of 8.
        let mut rng = crate::rng::SeededRng::new(13);
        for n in 1..=64usize {
            let words: Vec<i8> = (0..n).map(|_| rng.any_i8()).collect();
            let cols = pack_planes(&words);
            for (i, &w) in words.iter().enumerate() {
                for (b, col) in cols.iter().enumerate() {
                    assert_eq!((col >> i) & 1 == 1, bit_of(w, b), "n={n} i={i} b={b}");
                }
            }
            // Lanes beyond n stay zero.
            let valid = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            for col in cols {
                assert_eq!(col & !valid, 0);
            }
            assert_eq!(unpack_planes(&cols, n), words);
        }
    }

    /// Both builds: the portable [`U64x4`] one and, on an AVX2 host, AVX2.
    const BACKENDS: [Backend; 2] = [Backend::Scalar, Backend::Wide];

    #[test]
    fn batched_transpose_matches_scalar_on_every_backend() {
        let mut rng = crate::rng::SeededRng::new(17);
        for backend in BACKENDS {
            for nchunks in 0..=8usize {
                let mut probe = [0u64; 8];
                for p in probe.iter_mut() {
                    *p = (rng.any_i8() as u8 as u64)
                        | ((rng.any_i8() as u8 as u64) << 21)
                        | ((rng.any_i8() as u8 as u64) << 42)
                        | ((rng.any_i8() as u8 as u64) << 56);
                }
                let mut want = probe;
                for r in want[..nchunks].iter_mut() {
                    *r = transpose8(*r);
                }
                let mut got = probe;
                transpose_rows_with(backend, &mut got, nchunks);
                assert_eq!(got, want, "{backend:?} nchunks={nchunks}");
            }
        }
    }

    #[test]
    fn packed_redundant_columns_is_min_over_lanes() {
        let mut rng = crate::rng::SeededRng::new(15);
        for _ in 0..300 {
            let n = rng.uniform_usize(1, 65);
            let words: Vec<i8> = (0..n).map(|_| rng.gaussian_i8(0.0, 35.0)).collect();
            let p = PackedGroup::from_words(&words);
            let expect = words.iter().map(|&w| redundant_sign_bits(w)).min().unwrap();
            assert_eq!(p.redundant_columns(), expect, "group {words:?}");
        }
        // Degenerate all-equal-column groups.
        assert_eq!(PackedGroup::from_words(&[0]).redundant_columns(), 7);
        assert_eq!(PackedGroup::from_words(&[-1, -1]).redundant_columns(), 7);
        assert_eq!(PackedGroup::from_words(&[-128, 127]).redundant_columns(), 0);
    }

    #[test]
    fn packed_low_bits_sum_matches_scalar_mask() {
        let mut rng = crate::rng::SeededRng::new(16);
        for _ in 0..100 {
            let n = rng.uniform_usize(1, 65);
            let words: Vec<i8> = (0..n).map(|_| rng.any_i8()).collect();
            let p = PackedGroup::from_words(&words);
            for g in 0..=8usize {
                let mask = if g == 8 { 0xff } else { (1u32 << g) - 1 };
                let expect: u32 = words.iter().map(|&w| (w as u8 as u32) & mask).sum();
                assert_eq!(p.low_bits_sum(g), expect, "g={g}");
                for backend in BACKENDS {
                    let got = p.low_bits_sum_with(backend, g);
                    assert_eq!(got, expect, "{backend:?} g={g}");
                }
            }
        }
    }

    #[test]
    fn packed_padded_and_bytes_constructors() {
        let p = PackedGroup::from_words_padded(&[5, -3], 8);
        assert_eq!(p.len(), 8);
        assert_eq!(p.to_words(), vec![5, -3, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn value_sparsity_counts_zeros() {
        assert_eq!(value_sparsity(&[0, 0, 1, -1]), 0.5);
        assert_eq!(value_sparsity(&[5]), 0.0);
    }

    #[test]
    fn bit_sparsity_extremes() {
        assert_eq!(bit_sparsity_twos_complement(&[0]), 1.0);
        assert_eq!(bit_sparsity_twos_complement(&[-1]), 0.0);
        // +1 has one bit set in both representations.
        assert_eq!(bit_sparsity_sign_magnitude(&[1]), 7.0 / 8.0);
    }

    #[test]
    fn sign_magnitude_sparsity_beats_twos_complement_for_small_negatives() {
        // Small negative numbers are nearly all ones in 2C but nearly all
        // zeros in SM — the effect the paper exploits in §II-B.
        let w = [-1i8, -2, -3, -2, -1, -3, -2, -1];
        assert!(bit_sparsity_sign_magnitude(&w) > bit_sparsity_twos_complement(&w));
    }

    #[test]
    fn bbs_sparsity_at_least_half() {
        // The BBS theorem: any bit-vector exhibits >= 50% sparsity.
        let mut rng = crate::rng::SeededRng::new(11);
        let w: Vec<i8> = (0..1024).map(|_| rng.any_i8()).collect();
        for &v in &[4usize, 8, 16, 32] {
            assert!(bbs_sparsity(&w, v) >= 0.5, "vector size {v}");
        }
    }

    #[test]
    fn bbs_sparsity_dominates_zero_bit_sparsity() {
        let mut rng = crate::rng::SeededRng::new(12);
        let w: Vec<i8> = (0..4096).map(|_| rng.gaussian_i8(0.0, 25.0)).collect();
        let s = SparsityStats::measure(&w);
        assert!(s.bbs >= s.bit_twos_complement);
        assert!(s.bit_twos_complement > 0.4);
        assert!(s.value < 0.1);
    }

    #[test]
    fn bbs_sparsity_handles_partial_chunks() {
        // 10 weights with vector size 8 leaves a trailing chunk of 2.
        let w = [0i8; 10];
        assert_eq!(bbs_sparsity(&w, 8), 1.0);
    }
}
