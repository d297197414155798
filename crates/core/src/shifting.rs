//! Binary pruning by **zero-point shifting** (paper Fig. 5 and Algorithm 1).
//!
//! Adding an optimal signed constant to a weight group changes every
//! weight's binary content, which can make zero columns appear in the low
//! significances. The search is exhaustive over the 6-bit constant range
//! `[-32, 31]`; for each candidate:
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

use crate::encoding::{BbsMetadata, CompressedGroup, ConstantKind};
use crate::redundant::MAX_ENCODED_REDUNDANT;
use bbs_tensor::bits::{PackedGroup, WEIGHT_BITS};
use bbs_tensor::lanes::{Backend, Lanes, U64x4};

/// Inclusive search range of the signed 6-bit shift constant.
pub const SHIFT_MIN: i32 = -32;
/// Inclusive upper end of the shift-constant range.
pub const SHIFT_MAX: i32 = 31;

/// Algorithm 1: finds the optimal shift constant and returns the compressed
/// group.
///
/// Runs entirely on the packed bit-plane representation — see
/// [`zero_point_shifting_packed`]. Bit-identical to the per-weight
/// Algorithm 1 oracle in this module's tests.
///
/// # Panics
///
/// Panics if `group` is empty, exceeds 64 weights, or
/// `target_sparse >= 8`.
pub fn zero_point_shifting(group: &[i8], target_sparse: usize) -> CompressedGroup {
    zero_point_shifting_packed(&PackedGroup::from_words(group), target_sparse)
}

// ---------------------------------------------------------------------------
// Bit-sliced (packed) search.
//
// The exhaustive 64-constant search is lane-parallel: all ≤64 weights of the
// group live as bit planes (`u64` masks, one per significance), and every
// per-weight step of Algorithm 1 becomes a handful of full-adder mask ops,
// run for four candidate constants at once (one per `Lanes` word):
//
// * `W + c`        — a bit-sliced full adder with per-word constant planes,
// * clip           — two overflow masks and a mux,
// * redundant cols — mask equality against the MSB plane,
// * round to 2^g   — bit-sliced add of the rounding bias, clear `g` planes,
//                    one overflow mux,
// * SSE            — plane-pair popcounts of the error magnitudes.
//
// The squared error is accumulated as an exact integer. That preserves the
// per-weight oracle's selection bit-for-bit: the oracle's per-candidate f64
// MSE is `sse / n` with `sse` and `n` exactly representable, and `x ↦ x/n`
// is strictly monotone and injective for these magnitudes, so integer SSE
// comparisons (and ties) coincide with the oracle's f64 comparisons.
// ---------------------------------------------------------------------------

/// Sign-extends 8 i8 planes to 9 planes.
#[inline]
fn widen9(cols: &[u64; 8]) -> [u64; 9] {
    let mut u = [0u64; 9];
    u[..8].copy_from_slice(cols);
    u[8] = cols[7];
    u
}

/// Running winner of the constant search, with the oracle's tie rules:
/// lowest SSE, then more redundant columns (more free compression), then
/// the smaller shift magnitude.
struct BestShift {
    sse: u64,
    r: usize,
    c: i32,
    s: [u64; WEIGHT_BITS],
}

impl BestShift {
    fn new() -> Self {
        BestShift {
            sse: u64::MAX,
            r: 0,
            c: 0,
            s: [0u64; WEIGHT_BITS],
        }
    }

    #[inline]
    fn consider(&mut self, sse: u64, r: usize, c: i32, s: &[u64; WEIGHT_BITS]) {
        let better = sse < self.sse
            || (sse == self.sse && r > self.r)
            || (sse == self.sse && r == self.r && c.abs() < self.c.abs());
        if better {
            self.sse = sse;
            self.r = r;
            self.c = c;
            self.s = *s;
        }
    }
}

/// Per-word exact integer sum of squared errors `Σ (u_i - s_i)²` over the
/// valid lanes, where `u` is the unclipped shifted sum (9 planes) and `s`
/// the rounded result (8 planes).
///
/// The error fits 9-plane two's complement: `|u - s| ≤ |u - clip(u)| +
/// |clip(u) - s| ≤ 32 + (step - 1) ≤ 159`.
#[inline(always)]
fn sse_planes_batched<L: Lanes>(u: &[L; 9], s: &[L; 8], lanes_v: L) -> [u64; 4] {
    // e = u - s as 9-plane two's complement.
    let mut e = [L::zero(); 9];
    let mut carry = lanes_v;
    for (b, plane) in e.iter_mut().enumerate() {
        let a = u[b];
        let nb = lanes_v.andnot(s[b.min(7)]);
        *plane = a.xor(nb).xor(carry);
        carry = a.and(nb).or(carry.and(a.xor(nb)));
    }
    // Conditional negate to magnitudes: small errors clear the high planes,
    // which lets most plane-pair products below vanish.
    let neg = e[8];
    let mut m = [L::zero(); 9];
    let mut carry = neg;
    for (b, plane) in m.iter_mut().enumerate() {
        let x = e[b].xor(neg);
        *plane = x.xor(carry);
        carry = carry.and(x);
    }
    debug_assert!(m[8].is_zero(), "error magnitude exceeds 8 bits");
    sse_of_magnitudes_batched(&m[..8])
}

/// Per-word `Σ_i m_i²` over lanes from non-negative magnitude planes:
/// `Σ_{b≤b'} 2^(b+b'+[b≠b']) · |m_b ∧ m_b'|`. Skipping an all-zero vector
/// plane drops only zero terms.
#[inline(always)]
fn sse_of_magnitudes_batched<L: Lanes>(m: &[L]) -> [u64; 4] {
    let mut sse = [0u64; 4];
    for (b, &pb) in m.iter().enumerate() {
        if pb.is_zero() {
            continue;
        }
        let c = pb.popcounts();
        for (j, out) in sse.iter_mut().enumerate() {
            *out += (c[j] as u64) << (2 * b);
        }
        for (b2, &pb2) in m.iter().enumerate().skip(b + 1) {
            if pb2.is_zero() {
                continue;
            }
            let c = pb.and(pb2).popcounts();
            for (j, out) in sse.iter_mut().enumerate() {
                *out += (c[j] as u64) << (b + b2 + 1);
            }
        }
    }
    sse
}

/// Candidate-batched search: 16 rounds of 4 consecutive constants, each
/// round evaluated across one [`Lanes`] vector (word `j` = candidate
/// `c0 + j`). The shift add, clip, rounding and SSE all run 4 candidates
/// wide; the only per-word scalar work is assembling the tiny
/// constant-dependent masks (rounding bias, low-plane clear, overflow
/// rail) from the already-stored redundant counts. Candidates are still
/// considered in ascending order, preserving the oracle's tie-breaking
/// bit-for-bit.
///
/// `#[inline(always)]` so the AVX2 monomorphization inlines into its
/// `#[target_feature(enable = "avx2")]` wrapper — otherwise the
/// feature-gated intrinsics cannot inline and every mask op becomes an
/// out-of-line call.
#[inline(always)]
fn search_batched<L: Lanes>(packed: &PackedGroup, target_sparse: usize) -> BestShift {
    let lanes = packed.lane_mask();
    let lanes_v = L::splat(lanes);
    let w9 = widen9(packed.columns());

    let mut best = BestShift::new();
    let mut c0 = SHIFT_MIN;
    while c0 <= SHIFT_MAX {
        // u_j = W + (c0 + j): full adder with per-word constant planes.
        let mut u = [L::zero(); 9];
        let mut carry = L::zero();
        for (b, plane) in u.iter_mut().enumerate() {
            let mut kw = [0u64; 4];
            for (j, w) in kw.iter_mut().enumerate() {
                if ((c0 + j as i32) >> b) & 1 != 0 {
                    *w = lanes;
                }
            }
            let a = L::splat(w9[b]);
            let kb = L::load(&kw);
            *plane = a.xor(kb).xor(carry);
            carry = a.and(kb).or(carry.and(a.xor(kb)));
        }

        // Clip to the INT8 rails, all four candidates at once.
        let clip_hi = u[7].andnot(u[8]).and(lanes_v);
        let clip_lo = u[8].andnot(u[7]).and(lanes_v);
        let clipped = clip_hi.or(clip_lo);
        let mut t = [L::zero(); 8];
        for (b, out) in t.iter_mut().enumerate() {
            let rail = if b < 7 { clip_hi } else { clip_lo };
            *out = u[b].andnot(clipped).or(rail);
        }

        // Redundant count (hence rounding step) per candidate.
        let ts: [[u64; 4]; 8] = core::array::from_fn(|b| t[b].store());
        let mut r4 = [0usize; 4];
        let mut g4 = [0usize; 4];
        for j in 0..4 {
            let msb = ts[7][j];
            let mut r = 0usize;
            while r < MAX_ENCODED_REDUNDANT && ts[6 - r][j] == msb {
                r += 1;
            }
            r4[j] = r;
            g4[j] = target_sparse.saturating_sub(r);
        }

        // Round to the nearest multiple of 2^g_j, ties away from zero:
        // add the combined bias `2^(g_j-1) - [t < 0]` (zero for g_j = 0 —
        // no rounding), then clear the g_j low planes. The bias is a
        // per-word 9-plane constant assembled from the negative-lane mask:
        // negative lanes add `2^(g-1) - 1` (bits 0..=g-2), non-negative
        // lanes add `2^(g-1)` (bit g-1).
        let negw = &ts[7];
        let mut a = [L::zero(); 9];
        a[..8].copy_from_slice(&t);
        a[8] = t[7];
        let mut carry = L::zero();
        for (b, plane) in a.iter_mut().enumerate() {
            let mut kw = [0u64; 4];
            for (j, w) in kw.iter_mut().enumerate() {
                let g = g4[j];
                if g == 0 {
                    continue;
                }
                if b + 1 < g {
                    *w = negw[j];
                } else if b + 1 == g {
                    *w = !negw[j] & lanes;
                }
            }
            let kb = L::load(&kw);
            let x = *plane;
            *plane = x.xor(kb).xor(carry);
            carry = x.and(kb).or(carry.and(x.xor(kb)));
        }
        let max_g = g4.iter().copied().max().unwrap_or(0);
        for (b, plane) in a.iter_mut().enumerate().take(max_g) {
            let mut zw = [0u64; 4];
            for (j, w) in zw.iter_mut().enumerate() {
                if b < g4[j] {
                    *w = u64::MAX;
                }
            }
            *plane = plane.andnot(L::load(&zw));
        }

        // Overflow mux: the only out-of-range rounding result is exactly
        // 2^(7-r_j) — positive with bit 7-r_j set. Rail those lanes down
        // to hi = 2^(7-r_j) - 2^g_j.
        let sa: [[u64; 4]; 9] = core::array::from_fn(|b| a[b].store());
        let mut ovw = [0u64; 4];
        for (j, w) in ovw.iter_mut().enumerate() {
            *w = sa[7 - r4[j]][j] & !sa[8][j] & lanes;
        }
        let ov = L::load(&ovw);
        let mut s = [L::zero(); 8];
        for (b, out) in s.iter_mut().enumerate() {
            let mut hw = [0u64; 4];
            for (j, w) in hw.iter_mut().enumerate() {
                if g4[j] > 0 {
                    let hi_val = (1i32 << (7 - r4[j])) - (1i32 << g4[j]);
                    if (hi_val >> b) & 1 != 0 {
                        *w = ovw[j];
                    }
                }
            }
            *out = a[b].andnot(ov).or(L::load(&hw));
        }

        let sse4 = sse_planes_batched(&u, &s, lanes_v);
        let ss: [[u64; 4]; 8] = core::array::from_fn(|b| s[b].store());
        for j in 0..4 {
            let sj: [u64; 8] = core::array::from_fn(|b| ss[b][j]);
            best.consider(sse4[j], r4[j], c0 + j as i32, &sj);
        }
        c0 += 4;
    }
    best
}

/// AVX2 monomorphization of [`search_batched`].
///
/// # Safety
///
/// The caller must have verified `is_x86_feature_detected!("avx2")`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn search_avx2(packed: &PackedGroup, target_sparse: usize) -> BestShift {
    search_batched::<bbs_tensor::lanes::Avx2>(packed, target_sparse)
}

/// The shift search under an explicit [`Backend`]: the AVX2 build under
/// [`Backend::Wide`] on an AVX2 host, else the portable [`U64x4`] build.
fn search_with(backend: Backend, packed: &PackedGroup, target_sparse: usize) -> BestShift {
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Wide && bbs_tensor::lanes::avx2() {
        // SAFETY: AVX2 support was just verified.
        return unsafe { search_avx2(packed, target_sparse) };
    }
    let _ = backend;
    search_batched::<U64x4>(packed, target_sparse)
}

/// The group the winning shift `best` encodes.
fn encode(packed: &PackedGroup, target_sparse: usize, best: BestShift) -> CompressedGroup {
    let g = target_sparse.saturating_sub(best.r);
    debug_assert!(
        best.s.iter().take(g).all(|&c| c == 0),
        "generated low columns must be all-zero"
    );
    let kept: Vec<u64> = best.s[g..WEIGHT_BITS - best.r].to_vec();

    CompressedGroup::from_parts(
        packed.len(),
        kept,
        BbsMetadata {
            num_redundant: best.r as u8,
            constant: best.c as i8,
        },
        ConstantKind::ZeroPointShift,
    )
}

/// The packed-representation shifting kernel: evaluates all 64 shift
/// constants with bit-sliced lane-parallel arithmetic on the process-wide
/// [`Backend::active`] backend. Bit-identical to the per-weight oracle in
/// this module's tests (same winning constant under the same tie-breaking,
/// same stored columns) on every backend.
///
/// # Panics
///
/// Panics if `target_sparse >= 8`.
pub fn zero_point_shifting_packed(packed: &PackedGroup, target_sparse: usize) -> CompressedGroup {
    assert!(target_sparse < WEIGHT_BITS);
    let best = search_with(Backend::active(), packed, target_sparse);
    encode(packed, target_sparse, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::averaging::rounded_averaging;
    use bbs_tensor::bits::redundant_sign_bits;
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
            kept,
            BbsMetadata {
                num_redundant: r as u8,
                constant: best.constant as i8,
            },
            ConstantKind::ZeroPointShift,
        )
    }

    /// Both builds of the search: the portable [`U64x4`] one and, on an
    /// AVX2 host, AVX2.
    const BACKENDS: [Backend; 2] = [Backend::Scalar, Backend::Wide];

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
            let packed = PackedGroup::from_words(&w);
            for backend in BACKENDS {
                prop_assert_eq!(
                    encode(&packed, target, search_with(backend, &packed, target)),
                    oracle,
                    "backend {backend:?}"
                );
            }
        }
    }

    #[test]
    fn every_backend_matches_scalar_oracle() {
        // Both builds of the search must agree with the per-weight oracle
        // bit-for-bit, including ragged group sizes.
        let mut rng = SeededRng::new(91);
        for case in 0..150 {
            let n = rng.uniform_usize(1, 65);
            let group: Vec<i8> = if case % 2 == 0 {
                (0..n).map(|_| rng.any_i8()).collect()
            } else {
                (0..n).map(|_| rng.gaussian_i8(0.0, 35.0)).collect()
            };
            let packed = PackedGroup::from_words(&group);
            for target in 0..WEIGHT_BITS {
                let oracle = zero_point_shifting_scalar(&group, target);
                for backend in BACKENDS {
                    assert_eq!(
                        encode(&packed, target, search_with(backend, &packed, target)),
                        oracle,
                        "backend {backend:?} group {group:?} target {target}"
                    );
                }
            }
        }
    }

    /// Asserts both builds of the search encode `group` as the oracle does
    /// at every target.
    fn assert_all_backends_match_oracle(group: &[i8]) {
        let packed = PackedGroup::from_words(group);
        for target in 0..WEIGHT_BITS {
            let oracle = zero_point_shifting_scalar(group, target);
            for backend in BACKENDS {
                assert_eq!(
                    encode(&packed, target, search_with(backend, &packed, target)),
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
