//! Binary pruning by **zero-point shifting** (paper Fig. 5 and Algorithm 1).
//!
//! Adding an optimal signed constant to a weight group changes every
//! weight's binary content, which can make zero columns appear in the low
//! significances. The constant comes from the 6-bit range `[-32, 31]`; for
//! each candidate:
//!
//! 1. `Wt = clip(W + c)`,
//! 2. count/remove redundant sign-extension columns,
//! 3. round every shifted weight to the nearest multiple of `2^g` inside
//!    the narrowed representable range (generating `g` all-zero low
//!    columns while minimizing MSE — a weight either zeroes its low bits or
//!    rounds up to the next multiple, whichever is closer),
//! 4. keep the constant whose reconstruction `Wt' - c` has the lowest MSE
//!    against the original group.
//!
//! Only *zero* sparse columns are generated (the constant field already
//! holds the shift), matching Algorithm 1 line 8.
//!
//! The search is bounded. Every rounded weight is a multiple of `2^g`, so
//! a lane's error is at least the distance from `w + c` to the nearest
//! multiple, which depends only on `w` and `c` mod `2^g`; a clip or the
//! clamp at the top of the range only lands it on a farther multiple.
//! Summed over the group, that gives a lower bound on every candidate's
//! squared error from a table per lane. The search scores candidates in
//! ascending bound and stops when no bound left can beat the winner: on
//! the serve models, about nine exact scores (1.2 batches of eight) per
//! group instead of 64.
//!
//! The exact scores run on byte lanes: the group's weights sit as `i8`
//! lanes, one [`ByteLanes`] register per 32 weights, and each candidate
//! costs a dozen exact integer vector ops. The squared error is an exact
//! integer, which preserves the per-weight oracle's selection bit-for-bit:
//! the oracle's f64 MSE is `sse / n` with `sse` and `n` exactly
//! representable, and `x ↦ x/n` is strictly monotone and injective for
//! these magnitudes, so integer comparisons (and ties) coincide with the
//! oracle's.

use crate::encoding::{BbsMetadata, CompressedGroup, ConstantKind};
use crate::redundant::MAX_ENCODED_REDUNDANT;
use bbs_tensor::bits::{MAX_GROUP, WEIGHT_BITS};
use bbs_tensor::lanes::{Backend, ByteLanes, I8x32, BYTES};
use std::cmp::Reverse;

/// Inclusive search range of the signed 6-bit shift constant.
pub const SHIFT_MIN: i32 = -32;
/// Inclusive upper end of the shift-constant range.
pub const SHIFT_MAX: i32 = 31;

/// Algorithm 1: finds the optimal shift constant and returns the compressed
/// group. Scores the shift constants on byte lanes under the process-wide
/// [`Backend::active`] backend, skipping those whose lower bound cannot
/// win, bit-identical to the per-weight Algorithm 1 oracle over all 64
/// constants in this module's tests (same winning constant under the same
/// tie-breaking, same stored columns) on every backend.
///
/// # Panics
///
/// Panics if `group` is empty, exceeds 64 weights, or
/// `target_sparse >= 8`.
pub fn zero_point_shifting(group: &[i8], target_sparse: usize) -> CompressedGroup {
    zero_point_shifting_padded(group, group.len(), target_sparse)
}

/// [`zero_point_shifting`] of `words` zero-padded to `len` weights (a
/// channel's trailing partial group). The padding is part of the group:
/// it is searched and stored like any weight of value 0.
///
/// # Panics
///
/// Panics if `words` is empty or longer than `len`, `len` exceeds 64, or
/// `target_sparse >= 8`.
pub(crate) fn zero_point_shifting_padded(
    words: &[i8],
    len: usize,
    target_sparse: usize,
) -> CompressedGroup {
    assert!(
        !words.is_empty() && words.len() <= len && len <= MAX_GROUP,
        "group of {} words padded to {len}: sizes must be in 1..={MAX_GROUP}",
        words.len()
    );
    assert!(target_sparse < WEIGHT_BITS);
    let lanes = lanes_of(words);
    encode(
        len,
        target_sparse,
        search_with(Backend::active(), &lanes, len, target_sparse),
    )
}

/// `words` as [`MAX_GROUP`] byte lanes, zero from lane `words.len()` on.
fn lanes_of(words: &[i8]) -> [i8; MAX_GROUP] {
    let mut lanes = [0i8; MAX_GROUP];
    lanes[..words.len()].copy_from_slice(words);
    lanes
}

/// Running winner of the constant search, with the oracle's tie rules:
/// lowest SSE, then more redundant columns (more free compression), then
/// the smaller shift magnitude, then the smaller constant (the oracle
/// scans the constants in ascending order and keeps the first of a tie).
struct BestShift {
    sse: u32,
    r: usize,
    c: i32,
}

impl BestShift {
    #[inline]
    fn consider(&mut self, sse: u32, r: usize, c: i32) {
        if (sse, Reverse(r), c.abs(), c) < (self.sse, Reverse(self.r), self.c.abs(), self.c) {
            *self = BestShift { sse, r, c };
        }
    }

    /// The constants that would beat the winner at an equal SSE: those
    /// keeping more redundant columns, or as many with a smaller
    /// `(|c|, c)`. `at_least` is the search's candidate masks by
    /// redundant count.
    #[inline]
    fn tie_winners(&self, at_least: &[u64; MAX_ENCODED_REDUNDANT + 2]) -> u64 {
        let m = self.c.abs();
        let nearer = span(1 - m, m - 1) | if self.c > 0 { span(-m, -m) } else { 0 };
        let same_r = at_least[self.r] & !at_least[self.r + 1];
        at_least[self.r + 1] | (same_r & nearer)
    }
}

/// The winning shift and the bit planes of its shifted, rounded weights.
type Found = (BestShift, [u64; WEIGHT_BITS]);

/// The byte-lane constants of rounding to a multiple of `2^g` after `r`
/// redundant columns: `s = min(sat(t + bias) & keep, hi)`, where the bias
/// is `2^(g-1)`, less one in negative lanes, and 0 when `g = 0`.
#[derive(Clone, Copy)]
struct Rounding<B> {
    half: B,
    neg: B,
    keep: B,
    hi: B,
}

impl<B: ByteLanes> Rounding<B> {
    /// The constants for `r` redundant columns at `target_sparse`.
    #[inline(always)]
    fn new(target_sparse: usize, r: usize) -> Self {
        let g = target_sparse.saturating_sub(r);
        let half = if g == 0 { 0 } else { 1 << (g - 1) };
        Rounding {
            half: B::splat(half),
            neg: B::splat(-((g > 0) as i8)),
            keep: B::splat((-1i32 << g) as i8),
            hi: B::splat(((1i32 << (WEIGHT_BITS - 1 - r)) - (1i32 << g)) as i8),
        }
    }

    /// `t` rounded half away from zero onto the grid: the saturating add
    /// lands exactly on the top rail `hi` when `r = 0`, and `min` clamps a
    /// round-up to `2^(7-r)` when `r > 0`.
    #[inline(always)]
    fn round(&self, t: B) -> B {
        let bias = self.half.add(t.negative().and(self.neg));
        t.adds(bias).and(self.keep).min(self.hi)
    }
}

/// Candidate `c` in one register: the rounded `s` and `|w + c - s|` with
/// lanes outside the group zeroed. A clipped lane (only when `r = 0`, at
/// a rail) rounds toward `w + c` and never past it, so the error is the
/// sum of the clip's and the rounding's magnitudes, at most 159.
#[inline(always)]
fn shift_lanes<B: ByteLanes>(w: B, valid: B, c: i32, rounding: &Rounding<B>) -> (B, B) {
    let cv = B::splat(c as i8);
    let t = w.adds(cv);
    let s = rounding.round(t);
    let err = w.add(cv).sub(t).abs().add(t.sub(s).abs()).and(valid);
    (s, err)
}

/// The residue bits the lower bound reads: a lane's `w mod 16`. A multiple
/// of `2^g` for `g >= 4` is a multiple of 16, so the 4-bit bound holds for
/// every larger `g` too (only less tightly).
const BOUND_BITS: usize = 4;
/// Residues mod `2^BOUND_BITS`.
const RESIDUES: usize = 1 << BOUND_BITS;

/// `BOUND_ROWS[b][x][ρ]`: the squared distance from `x + ρ` to the nearest
/// multiple of `2^b`, the least squared error of a lane `w ≡ x` under a
/// shift `c ≡ ρ (mod 16)` rounded to `b` zero low columns. At most 64, so
/// a group's sum fits `u16`.
static BOUND_ROWS: [[[u16; RESIDUES]; RESIDUES]; BOUND_BITS + 1] = {
    let mut rows = [[[0; RESIDUES]; RESIDUES]; BOUND_BITS + 1];
    let mut b = 1;
    while b <= BOUND_BITS {
        let step = 1 << b;
        let mut x = 0;
        while x < RESIDUES {
            let mut rho = 0;
            while rho < RESIDUES {
                let y = (x + rho) % step;
                let d = if y < step - y { y } else { step - y };
                rows[b][x][rho] = (d * d) as u16;
                rho += 1;
            }
            x += 1;
        }
        b += 1;
    }
    rows
};

/// `RESIDUE_CLASS[b]`: the candidates `k` with `k ≡ 0 (mod 2^b)`, bits
/// `0, 2^b, 2·2^b, ..`. `c = k + SHIFT_MIN` has the residues of `k`.
const RESIDUE_CLASS: [u64; BOUND_BITS + 1] = [
    u64::MAX,
    0x5555_5555_5555_5555,
    0x1111_1111_1111_1111,
    0x0101_0101_0101_0101,
    0x0001_0001_0001_0001,
];

/// The residues mod `2^bits` of the constants in `candidates`, as bits:
/// the mask folded onto its low `2^bits` bits.
#[inline]
fn open_residues(candidates: u64, bits: usize) -> u64 {
    let mut x = candidates;
    let mut half = 32;
    while half >= 1 << bits {
        x |= x >> half;
        half >>= 1;
    }
    x & ((1u64 << (1 << bits)) - 1)
}

/// The constants `lo..=hi` as a candidate mask: bit `c - SHIFT_MIN` stands
/// for the constant `c`.
#[inline]
fn span(lo: i32, hi: i32) -> u64 {
    let (lo, hi) = ((lo - SHIFT_MIN).max(0), (hi - SHIFT_MIN).min(63));
    if lo > hi {
        0
    } else {
        (u64::MAX >> (63 - hi)) & (u64::MAX << lo)
    }
}

/// `MAX_GROUP` all-ones bytes, then `MAX_GROUP` zeros.
static IN_GROUP: [[i8; MAX_GROUP]; 2] = [[-1; MAX_GROUP], [0; MAX_GROUP]];

/// Register `k` (lanes `32k..32k+32`) of a group's lanes.
#[inline(always)]
fn register<B: ByteLanes>(lanes: &[i8; MAX_GROUP], k: usize) -> B {
    B::load(lanes[k * BYTES..][..BYTES].try_into().expect("32 lanes"))
}

/// The bounded byte-lane search.
///
/// The constants fall into classes of one redundant count `r` and one
/// residue mod `2^b`, `b = min(target - r, 4)`, which share a lower bound
/// on the SSE: the sum over lanes of [`BOUND_ROWS`]. The search scores the
/// open constants eight at a time (squared errors reduced in one pass),
/// filling each batch class by class in ascending bound, and after each
/// batch keeps open only the constants whose bound (and tie rank, when the
/// bound equals the winner's SSE) can still beat [`BestShift`]'s winner.
/// It rebuilds only the winner's planes. Groups of up to 32 weights take
/// one register, larger ones two. Lanes at or beyond `len` (which counts a
/// partial group's zero padding) never reach a score or a plane.
///
/// `#[inline(always)]` so the AVX2 monomorphization inlines into its
/// `#[target_feature(enable = "avx2")]` wrapper — otherwise the
/// feature-gated intrinsics cannot inline and every lane op becomes an
/// out-of-line call. For the same reason it uses loops, not closures: a
/// closure does not inherit the wrapper's target feature.
#[inline(always)]
fn search<B: ByteLanes>(lanes: &[i8; MAX_GROUP], n: usize, target: usize) -> Found {
    let regs = n.div_ceil(BYTES);
    // All ones in lanes below `n`: a window into a fixed table, loaded
    // rather than computed, so the compiler keeps it out of the loop.
    let in_group: &[i8; MAX_GROUP] = IN_GROUP.as_flattened()[MAX_GROUP - n..][..MAX_GROUP]
        .try_into()
        .expect("64 lanes");
    let w: [B; 2] = [register(lanes, 0), register(lanes, 1)];
    let valid: [B; 2] = [register(in_group, 0), register(in_group, 1)];
    let group = &lanes[..n];
    // Folds over values, which vectorize (`min()` tracks references).
    let wmin = i32::from(group.iter().fold(i8::MAX, |m, &x| m.min(x)));
    let wmax = i32::from(group.iter().fold(i8::MIN, |m, &x| m.max(x)));
    // One entry per encodable `r`, spelled out: a closure would not
    // inherit the AVX2 feature, so the lane ops in it could not inline.
    let rounding: [Rounding<B>; MAX_ENCODED_REDUNDANT + 1] = [
        Rounding::new(target, 0),
        Rounding::new(target, 1),
        Rounding::new(target, 2),
        Rounding::new(target, 3),
    ];

    // `at_least[j]`: the constants after which the group keeps at least
    // `j` redundant columns, from its extremes alone. It keeps `j` exactly
    // when `wmin + c` and `wmax + c` both fit `8 - j` bits (a clipped
    // weight fits none of the narrowed ranges, as its unclipped value), so
    // each set is an interval and `at_least[j + 1]` lies inside it.
    let mut at_least = [u64::MAX, 0, 0, 0, 0];
    for (j, mask) in at_least
        .iter_mut()
        .enumerate()
        .skip(1)
        .take(MAX_ENCODED_REDUNDANT)
    {
        let half = 1 << (WEIGHT_BITS - 1 - j);
        *mask = span(-half - wmin, half - 1 - wmax);
    }
    // One level per redundant count some constant reaches (a single one
    // for most groups): the count, its bound bits, its constants, and the
    // lower bound of each residue class, the sum over lanes of
    // `BOUND_ROWS`. A class is the level's constants of one residue
    // mod 2^bits.
    let mut levels = [(0usize, 0usize, 0u64, [0u16; RESIDUES]); MAX_ENCODED_REDUNDANT + 1];
    let mut present = 0;
    for r in 0..=MAX_ENCODED_REDUNDANT {
        let mask = at_least[r] & !at_least[r + 1];
        if mask == 0 {
            continue;
        }
        let bits = target.saturating_sub(r).min(BOUND_BITS);
        let mut bound = [0u16; RESIDUES];
        if bits > 0 {
            for &x in group {
                let row = &BOUND_ROWS[bits][usize::from(x as u8) % RESIDUES];
                for (sum, &d) in bound.iter_mut().zip(row) {
                    *sum += d;
                }
            }
        }
        levels[present] = (r, bits, mask, bound);
        present += 1;
    }

    let mut best = BestShift {
        sse: u32::MAX,
        r: 0,
        c: 0,
    };
    // The constants not yet scored that may still win.
    let mut open = u64::MAX;
    let mut err = [[B::splat(0); 8]; 2];
    while open != 0 {
        // (c, r, bound) of up to eight open constants, class by class in
        // ascending bound.
        let mut batch = [(0i32, 0usize, 0u16); 8];
        let mut filled = 0;
        while filled < batch.len() {
            // The open class of the lowest bound, as `bound << 8 | level
            // << 4 | residue`: a branch-free minimum.
            let mut key = u32::MAX;
            for (l, (_, bits, mask, bound)) in levels.iter().enumerate().take(present) {
                let residues = open_residues(open & mask, *bits) as u32;
                for (rho, &b) in bound.iter().enumerate() {
                    // All ones unless residue `rho` has open constants.
                    let closed = ((residues >> rho & 1) ^ 1).wrapping_neg();
                    key = key.min((u32::from(b) << 8) | (l << 4 | rho) as u32 | closed);
                }
            }
            if key == u32::MAX {
                break;
            }
            let (r, bits, mask, _) = levels[(key >> 4 & 0xf) as usize];
            let mut take = open & mask & (RESIDUE_CLASS[bits] << (key & 0xf));
            while take != 0 && filled < batch.len() {
                let k = take.trailing_zeros();
                take &= take - 1;
                open &= !(1 << k);
                batch[filled] = (k as i32 + SHIFT_MIN, r, (key >> 8) as u16);
                filled += 1;
            }
        }
        // Slots past `filled` repeat the first constant: eight fixed slots
        // keep the squared errors in registers.
        let first = batch[0];
        for slot in &mut batch[filled..] {
            *slot = first;
        }
        for (j, &(c, r, _)) in batch.iter().enumerate() {
            for k in 0..regs {
                err[k][j] = shift_lanes(w[k], valid[k], c, &rounding[r]).1;
            }
        }
        let mut sse = B::square_sums(&err[0]);
        if regs == 2 {
            for (sum, hi) in sse.iter_mut().zip(B::square_sums(&err[1])) {
                *sum += hi;
            }
        }
        for (&(c, r, bound), &sse) in batch.iter().zip(&sse).take(filled) {
            debug_assert!(
                sse >= u32::from(bound),
                "c = {c}: SSE {sse} below bound {bound}"
            );
            best.consider(sse, r, c);
        }
        // Keep open the constants whose bound beats the winner's SSE, or
        // ties it with a better tie rank.
        let ties = best.tie_winners(&at_least);
        let mut live = 0;
        for (_, bits, mask, bound) in levels.iter().take(present) {
            let (mut below, mut equal) = (0u64, 0u64);
            for (rho, &b) in bound.iter().enumerate() {
                below |= u64::from(u32::from(b) < best.sse) << rho;
                equal |= u64::from(u32::from(b) == best.sse) << rho;
            }
            // Residue sets times the class pattern: every constant of each
            // residue in the set (no carries, the set is below `2^2^bits`).
            let first = (1u64 << (1 << bits)) - 1;
            let class = RESIDUE_CLASS[*bits];
            live |= mask & (((below & first) * class) | (((equal & first) * class) & ties));
        }
        open &= live;
    }
    let mut planes = [0u64; WEIGHT_BITS];
    for k in 0..regs {
        let (s, _) = shift_lanes(w[k], valid[k], best.c, &rounding[best.r]);
        for (plane, bits) in planes.iter_mut().zip(s.and(valid[k]).bit_planes()) {
            *plane |= u64::from(bits) << (BYTES * k);
        }
    }
    (best, planes)
}

/// AVX2 monomorphization of [`search`].
///
/// # Safety
///
/// The caller must have verified `is_x86_feature_detected!("avx2")`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn search_avx2(lanes: &[i8; MAX_GROUP], n: usize, target: usize) -> Found {
    search::<bbs_tensor::lanes::Avx2>(lanes, n, target)
}

/// The shift search under an explicit [`Backend`]: the AVX2 build under
/// [`Backend::Wide`] on an AVX2 host, else the portable [`I8x32`] build.
fn search_with(backend: Backend, lanes: &[i8; MAX_GROUP], n: usize, target: usize) -> Found {
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Wide && bbs_tensor::lanes::avx2() {
        // SAFETY: AVX2 support was just verified.
        return unsafe { search_avx2(lanes, n, target) };
    }
    let _ = backend;
    search::<I8x32>(lanes, n, target)
}

/// The group of `n` weights the winning shift encodes.
fn encode(n: usize, target: usize, (best, planes): Found) -> CompressedGroup {
    let g = target.saturating_sub(best.r);
    debug_assert!(
        planes.iter().take(g).all(|&c| c == 0),
        "generated low columns must be all-zero"
    );
    CompressedGroup::from_parts(
        n,
        &planes[g..WEIGHT_BITS - best.r],
        BbsMetadata {
            num_redundant: best.r as u8,
            constant: best.c as i8,
        },
        ConstantKind::ZeroPointShift,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::averaging::rounded_averaging;
    use bbs_tensor::bits::{redundant_sign_bits, PackedGroup};
    use bbs_tensor::rng::SeededRng;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Result of evaluating one shift constant weight by weight.
    #[derive(Debug, Clone, PartialEq)]
    struct ShiftCandidate {
        /// The shift constant.
        constant: i32,
        /// Redundant columns after shifting.
        num_redundant: usize,
        /// Shifted-and-rounded weights (low `g` bits zero).
        shifted: Vec<i8>,
        /// Reconstruction MSE against the original group.
        mse: f64,
    }

    fn redundant_after_shift(shifted: &[i8]) -> usize {
        shifted
            .iter()
            .map(|&w| redundant_sign_bits(w))
            .min()
            .expect("non-empty group")
            .min(MAX_ENCODED_REDUNDANT)
    }

    /// Evaluates one shift constant for a group and pruning target.
    fn evaluate_shift(group: &[i8], target_sparse: usize, constant: i32) -> ShiftCandidate {
        assert!(!group.is_empty());
        assert!(target_sparse < WEIGHT_BITS);
        assert!((SHIFT_MIN..=SHIFT_MAX).contains(&constant));

        // Step 1: shift and clip to the INT8 rails.
        let clipped: Vec<i8> = group
            .iter()
            .map(|&w| (w as i32 + constant).clamp(-128, 127) as i8)
            .collect();

        // Step 2: redundant columns of the shifted group (always removed —
        // they are free lossless compression, capped by the 2-bit metadata
        // field).
        let r = redundant_after_shift(&clipped);
        let g = target_sparse.saturating_sub(r);

        // Step 3: generate g all-zero low columns by rounding to the nearest
        // multiple of 2^g inside the narrowed range.
        let step = 1i32 << g;
        let lo = -(1i32 << (WEIGHT_BITS - 1 - r));
        let hi = (1i32 << (WEIGHT_BITS - 1 - r)) - step;
        let shifted: Vec<i8> = clipped
            .iter()
            .map(|&w| {
                let q = ((w as f64 / step as f64).round() as i32) * step;
                q.clamp(lo, hi) as i8
            })
            .collect();

        // Step 4: reconstruction error of Wt' - c against the original.
        let mse = group
            .iter()
            .zip(&shifted)
            .map(|(&w, &s)| {
                let recon = s as i32 - constant;
                let d = (w as i32 - recon) as f64;
                d * d
            })
            .sum::<f64>()
            / group.len() as f64;

        ShiftCandidate {
            constant,
            num_redundant: r,
            shifted,
            mse,
        }
    }

    /// The per-weight oracle for [`zero_point_shifting`]: Algorithm 1 as
    /// written, over [`evaluate_shift`] candidates.
    fn zero_point_shifting_scalar(group: &[i8], target_sparse: usize) -> CompressedGroup {
        assert!(target_sparse < WEIGHT_BITS);
        let mut best: Option<ShiftCandidate> = None;
        for constant in SHIFT_MIN..=SHIFT_MAX {
            let cand = evaluate_shift(group, target_sparse, constant);
            let better = match &best {
                None => true,
                // Ties broken toward more redundant columns (more free
                // compression), then toward the smaller shift magnitude.
                Some(b) => {
                    cand.mse < b.mse
                        || (cand.mse == b.mse && cand.num_redundant > b.num_redundant)
                        || (cand.mse == b.mse
                            && cand.num_redundant == b.num_redundant
                            && cand.constant.abs() < b.constant.abs())
                }
            };
            if better {
                best = Some(cand);
            }
        }
        let best = best.expect("non-empty constant range");

        let r = best.num_redundant;
        let g = target_sparse.saturating_sub(r);
        let bits = PackedGroup::from_words(&best.shifted);
        let kept: Vec<u64> = (g..WEIGHT_BITS - r).map(|b| bits.column(b)).collect();
        assert!(
            (0..g).all(|b| bits.column(b) == 0),
            "generated low columns must be all-zero"
        );

        CompressedGroup::from_parts(
            group.len(),
            &kept,
            BbsMetadata {
                num_redundant: r as u8,
                constant: best.constant as i8,
            },
            ConstantKind::ZeroPointShift,
        )
    }

    /// Both builds of the search: the portable [`I8x32`] one and, on an
    /// AVX2 host, AVX2.
    const BACKENDS: [Backend; 2] = [Backend::Scalar, Backend::Wide];

    /// `words` zero-padded to `len` and compressed by the search under
    /// `backend`.
    fn shift_on(backend: Backend, words: &[i8], len: usize, target: usize) -> CompressedGroup {
        encode(
            len,
            target,
            search_with(backend, &lanes_of(words), len, target),
        )
    }

    #[test]
    fn paper_fig5_constant_minus_14_behaviour() {
        // Fig. 5's original group {-7, 1, -20, 81} with the constant -14:
        // shift -> {-21, -13, -34, 67}; rounding to multiples of 16 (after
        // 0 redundant columns) -> {-16, -16, -32, 64}; reconstruction
        // {-2, -2, -18, 78}.
        let group = [-7i8, 1, -20, 81];
        let cand = evaluate_shift(&group, 4, -14);
        assert_eq!(cand.num_redundant, 0);
        assert_eq!(cand.shifted, vec![-16, -16, -32, 64]);
        let recon: Vec<i32> = cand.shifted.iter().map(|&s| s as i32 + 14).collect();
        assert_eq!(recon, vec![-2, -2, -18, 78]);
    }

    #[test]
    fn search_is_at_least_as_good_as_any_single_constant() {
        let mut rng = SeededRng::new(61);
        for _ in 0..50 {
            let n = rng.uniform_usize(4, 33);
            let group: Vec<i8> = (0..n).map(|_| rng.gaussian_i8(0.0, 35.0)).collect();
            let enc = zero_point_shifting(&group, 4);
            let best_mse = enc.mse(&group);
            for c in [-14i32, 0, 7, 31, -32] {
                let cand = evaluate_shift(&group, 4, c);
                assert!(best_mse <= cand.mse + 1e-9);
            }
        }
    }

    #[test]
    fn decode_matches_shifted_minus_constant() {
        let mut rng = SeededRng::new(62);
        for _ in 0..100 {
            let n = rng.uniform_usize(2, 33);
            let group: Vec<i8> = (0..n).map(|_| rng.any_i8()).collect();
            let enc = zero_point_shifting(&group, 3);
            let c = enc.metadata().constant as i32;
            let cand = evaluate_shift(&group, 3, c);
            let expect: Vec<i32> = cand.shifted.iter().map(|&s| s as i32 - c).collect();
            assert_eq!(enc.decode(), expect);
        }
    }

    #[test]
    fn zero_target_reduces_to_lossless() {
        let mut rng = SeededRng::new(63);
        for _ in 0..50 {
            let n = rng.uniform_usize(2, 17);
            let group: Vec<i8> = (0..n).map(|_| rng.gaussian_i8(0.0, 20.0)).collect();
            let enc = zero_point_shifting(&group, 0);
            assert_eq!(enc.mse(&group), 0.0, "target 0 must be exact");
        }
    }

    #[test]
    fn per_weight_error_bounded_by_rounding_step() {
        // Without rail clipping, the reconstruction error per weight is at
        // most half the rounding step (plus the clamp at range edges).
        let mut rng = SeededRng::new(64);
        for _ in 0..100 {
            let n = rng.uniform_usize(4, 33);
            // Moderate sigma keeps weights away from the rails so the only
            // error source is the rounding step itself.
            let group: Vec<i8> = (0..n).map(|_| rng.gaussian_i8(0.0, 15.0)).collect();
            let target = rng.uniform_usize(1, 5);
            let enc = zero_point_shifting(&group, target);
            let g = enc.low_pruned();
            let step = 1i32 << g;
            for (w, d) in group.iter().zip(enc.decode()) {
                let err = (*w as i32 - d).abs();
                assert!(
                    err <= step,
                    "error {err} beyond step {step} for target {target}"
                );
            }
        }
    }

    #[test]
    fn shifting_beats_averaging_for_eager_pruning() {
        // The paper's Fig. 6 finding: at 4 pruned columns, zero-point
        // shifting achieves lower error than rounded averaging on
        // Gaussian-like weights (in aggregate).
        let mut rng = SeededRng::new(65);
        let mut mse_shift = 0.0;
        let mut mse_avg = 0.0;
        for _ in 0..200 {
            let group: Vec<i8> = (0..32).map(|_| rng.gaussian_i8(0.0, 30.0)).collect();
            mse_shift += zero_point_shifting(&group, 4).mse(&group);
            mse_avg += rounded_averaging(&group, 4).mse(&group);
        }
        assert!(
            mse_shift < mse_avg,
            "shifting {mse_shift} should beat averaging {mse_avg} at 4 columns"
        );
    }

    #[test]
    fn rail_values_survive() {
        // Extreme weights near the rails must not overflow during search.
        let group = [127i8, -128, 127, -128];
        for target in 0..=6 {
            let enc = zero_point_shifting(&group, target);
            let recon = enc.decode();
            assert_eq!(recon.len(), 4);
            // Reconstructions may exceed i8 slightly but must stay sane.
            for v in recon {
                assert!((-192..=191).contains(&v), "unreasonable recon {v}");
            }
        }
    }

    proptest! {
        #[test]
        fn packed_shifting_equals_scalar_oracle(
            w in vec(any::<i8>(), 1..=64),
            target in 0usize..=7,
        ) {
            let oracle = zero_point_shifting_scalar(&w, target);
            for backend in BACKENDS {
                prop_assert_eq!(
                    shift_on(backend, &w, w.len(), target),
                    oracle,
                    "backend {backend:?}"
                );
            }
        }
    }

    #[test]
    fn every_backend_matches_scalar_oracle() {
        // Both builds of the search must agree with the per-weight oracle
        // bit-for-bit, including ragged group sizes and the zero padding
        // of a trailing partial group, which counts as group weights.
        let mut rng = SeededRng::new(91);
        for case in 0..150 {
            let n = rng.uniform_usize(1, 65);
            let group: Vec<i8> = if case % 2 == 0 {
                (0..n).map(|_| rng.any_i8()).collect()
            } else {
                (0..n).map(|_| rng.gaussian_i8(0.0, 35.0)).collect()
            };
            let padded_len = n.next_multiple_of(32);
            let mut padded = group.clone();
            padded.resize(padded_len, 0);
            // The searched words and the group the oracle sees.
            let cases = [(n, &group), (padded_len, &padded)];
            for (len, words) in cases {
                for target in 0..WEIGHT_BITS {
                    let oracle = zero_point_shifting_scalar(words, target);
                    for backend in BACKENDS {
                        assert_eq!(
                            shift_on(backend, &group, len, target),
                            oracle,
                            "backend {backend:?} group {words:?} target {target}"
                        );
                    }
                }
            }
        }
    }

    /// Asserts both builds of the search encode `group` as the oracle does
    /// at every target.
    fn assert_all_backends_match_oracle(group: &[i8]) {
        for target in 0..WEIGHT_BITS {
            let oracle = zero_point_shifting_scalar(group, target);
            for backend in BACKENDS {
                assert_eq!(
                    shift_on(backend, group, group.len(), target),
                    oracle,
                    "backend {backend:?} group {group:?} target {target}"
                );
            }
        }
    }

    #[test]
    fn exhaustive_i8_single_weight_all_backends() {
        // Every i8 value as a 1-weight group, every target, both builds —
        // exercises the clip/overflow corners exhaustively.
        for w in i8::MIN..=i8::MAX {
            assert_all_backends_match_oracle(&[w]);
        }
    }

    /// Every `i8` paired with a sweep of companions (multi-lane
    /// carry/borrow ripples and group-level redundant counting), every
    /// target, both builds.
    #[test]
    fn packed_shifting_equals_scalar_oracle_across_all_i8() {
        for w in i8::MIN..=i8::MAX {
            let o = (w as i16).wrapping_mul(37).wrapping_add(11) as i8;
            assert_all_backends_match_oracle(&[w, o, w.wrapping_add(o), o.wrapping_sub(w)]);
        }
    }

    #[test]
    fn generated_low_columns_are_zero_in_storage() {
        let mut rng = SeededRng::new(66);
        let group: Vec<i8> = (0..32).map(|_| rng.gaussian_i8(0.0, 30.0)).collect();
        let enc = zero_point_shifting(&group, 4);
        // All kept columns sit at significance >= g; the g low columns were
        // verified all-zero by the encoder's debug assertion. Reconstruct
        // the stored values and check their low bits.
        let c = enc.metadata().constant as i32;
        for v in enc.decode() {
            let stored = v + c;
            let g = enc.low_pruned();
            if g > 0 {
                assert_eq!(stored & ((1 << g) - 1), 0, "low bits of stored weight");
            }
        }
    }
}
