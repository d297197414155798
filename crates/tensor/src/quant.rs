//! Post-training quantization (PTQ) substrate.
//!
//! The paper's baseline models are per-channel symmetrically quantized 8-bit
//! DNNs (§III-C); the PTQ comparison points in Figs. 1/6/11 and Table III
//! re-quantize those INT8 weights to fewer levels. This module implements:
//!
//! * per-channel symmetric quantization of `f32` weights to `bits ≤ 8`,
//! * INT8-domain re-quantization (the "naive PTQ" baseline),
//! * a Microscaling-style shared-exponent format and a NoisyQuant-style
//!   dithered quantizer (Table III comparison points).

use crate::error::TensorError;
use crate::lanes::Backend;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// How the quantization scale is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ScaleMethod {
    /// Scale from the maximum absolute value (no clipping).
    #[default]
    AbsMax,
    /// Clip at the given quantile of |w| (e.g. `0.999`).
    Percentile(f64),
    /// Grid-search the clipping scale minimizing reconstruction MSE,
    /// with the given number of candidate scales.
    MseGrid(usize),
}

/// A per-channel symmetrically quantized tensor: `w ≈ q · scale[channel]`.
///
/// Weight tensors are canonicalized to 2-D `[channels, elems_per_channel]`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantTensor {
    /// Integer codes, shape `[channels, elems_per_channel]`.
    pub data: Tensor<i8>,
    /// Per-channel scale factors (length = number of channels).
    pub scales: Vec<f32>,
    /// Quantization bit width (2..=8).
    pub bits: u8,
}

impl QuantTensor {
    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.data.shape().dim(0)
    }

    /// Elements per channel.
    pub fn elems_per_channel(&self) -> usize {
        self.data.shape().dim(1)
    }

    /// Integer codes of one channel.
    pub fn channel(&self, c: usize) -> &[i8] {
        self.data.row(c)
    }

    /// Dequantizes back to `f32`.
    pub fn dequantize(&self) -> Tensor<f32> {
        let chans = self.channels();
        let epc = self.elems_per_channel();
        let mut out = Vec::with_capacity(chans * epc);
        for c in 0..chans {
            let s = self.scales[c];
            out.extend(self.data.row(c).iter().map(|&q| q as f32 * s));
        }
        Tensor::from_vec(self.data.shape().clone(), out).expect("shape preserved")
    }
}

/// Largest positive code for a symmetric `bits`-bit quantizer (e.g. 127 for 8).
pub fn qmax(bits: u8) -> i32 {
    assert!((2..=8).contains(&bits), "bits must be in 2..=8");
    (1i32 << (bits - 1)) - 1
}

/// `max |w|` as `f64`, dispatched over the lane backend.
///
/// Max is associative and commutative over non-NaN values and both paths
/// take `|w|` with an exact sign-bit clear followed by an exact f32→f64
/// conversion, so the wide path is bit-identical to the scalar fold.
fn absmax_f64_with(backend: Backend, channel: &[f32]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Wide && crate::lanes::avx2() {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe { absmax_avx2(channel) };
    }
    let _ = backend;
    channel.iter().fold(0.0f64, |m, &w| m.max(w.abs() as f64))
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn absmax_avx2(channel: &[f32]) -> f64 {
    use core::arch::x86_64::*;
    let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
    let mut m_lo = _mm256_setzero_pd();
    let mut m_hi = _mm256_setzero_pd();
    let mut chunks = channel.chunks_exact(8);
    for ch in &mut chunks {
        let v = _mm256_and_ps(_mm256_loadu_ps(ch.as_ptr()), abs_mask);
        m_lo = _mm256_max_pd(m_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
        m_hi = _mm256_max_pd(m_hi, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), _mm256_max_pd(m_lo, m_hi));
    let vec_max = lanes[0].max(lanes[1]).max(lanes[2]).max(lanes[3]);
    chunks
        .remainder()
        .iter()
        .fold(vec_max, |m, &w| m.max(w.abs() as f64))
}

/// One weight quantized to the symmetric `[-qm, qm]` grid — the scalar
/// definition every wide path must reproduce bit-for-bit.
#[inline]
fn quantize_one(w: f32, s: f32, qm: i32) -> i8 {
    let q = (w / s).round() as i32;
    q.clamp(-qm, qm) as i8
}

fn quantize_row(row: &[f32], s: f32, qm: i32, out: &mut Vec<i8>) {
    quantize_row_with(Backend::active(), row, s, qm, out)
}

fn quantize_row_with(backend: Backend, row: &[f32], s: f32, qm: i32, out: &mut Vec<i8>) {
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Wide && crate::lanes::avx2() {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { quantize_row_avx2(row, s, qm, out) };
        return;
    }
    let _ = backend;
    out.extend(row.iter().map(|&w| quantize_one(w, s, qm)));
}

/// Eight-wide quantization, bit-identical to [`quantize_one`].
///
/// `vdivps` is exact IEEE division, but `vroundps` rounds halves to even
/// while `f32::round` rounds halves away from zero, so rounding is emulated
/// as truncate-then-adjust: the fraction `q - trunc(q)` is exact (both are
/// multiples of `ulp(q)` and the difference is < 1), and `|frac| >= 0.5`
/// adds `copysign(1, q)`. Clamping happens on the float grid (integers up
/// to `qm <= 127` are exact in f32, and ±inf from overflowed divides clamp
/// like the scalar saturating `as i32` cast); an ordered-compare mask zeroes
/// NaN lanes (`0.0 / 0.0`) to match `f32::NAN as i32 == 0`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_row_avx2(row: &[f32], s: f32, qm: i32, out: &mut Vec<i8>) {
    use core::arch::x86_64::*;
    let sv = _mm256_set1_ps(s);
    let qmv = _mm256_set1_ps(qm as f32);
    let neg_qmv = _mm256_set1_ps(-(qm as f32));
    let half = _mm256_set1_ps(0.5);
    let one = _mm256_set1_ps(1.0);
    let sign_mask = _mm256_castsi256_ps(_mm256_set1_epi32(i32::MIN));
    let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
    let mut chunks = row.chunks_exact(8);
    for ch in &mut chunks {
        let q = _mm256_div_ps(_mm256_loadu_ps(ch.as_ptr()), sv);
        let t = _mm256_round_ps(q, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
        let frac = _mm256_and_ps(_mm256_sub_ps(q, t), abs_mask);
        let adj = _mm256_and_ps(
            _mm256_cmp_ps(frac, half, _CMP_GE_OQ),
            _mm256_or_ps(one, _mm256_and_ps(q, sign_mask)),
        );
        let r = _mm256_add_ps(t, adj);
        let c = _mm256_max_ps(_mm256_min_ps(r, qmv), neg_qmv);
        let c = _mm256_and_ps(c, _mm256_cmp_ps(q, q, _CMP_ORD_Q));
        let mut lane = [0i32; 8];
        _mm256_storeu_si256(lane.as_mut_ptr() as *mut __m256i, _mm256_cvttps_epi32(c));
        out.extend(lane.iter().map(|&v| v as i8));
    }
    out.extend(chunks.remainder().iter().map(|&w| quantize_one(w, s, qm)));
}

fn channel_scale(channel: &[f32], bits: u8, method: ScaleMethod) -> f32 {
    channel_scale_with(Backend::active(), channel, bits, method)
}

fn channel_scale_with(backend: Backend, channel: &[f32], bits: u8, method: ScaleMethod) -> f32 {
    let qm = qmax(bits) as f64;
    let absmax = absmax_f64_with(backend, channel);
    if absmax == 0.0 {
        return 1.0;
    }
    match method {
        ScaleMethod::AbsMax => (absmax / qm) as f32,
        ScaleMethod::Percentile(p) => {
            let mut mags: Vec<f64> = channel.iter().map(|&w| w.abs() as f64).collect();
            mags.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in weights"));
            let idx = ((mags.len() as f64 - 1.0) * p.clamp(0.0, 1.0)).round() as usize;
            (mags[idx].max(1e-12) / qm) as f32
        }
        ScaleMethod::MseGrid(steps) => mse_grid_scale(backend, channel, absmax, qm, steps),
    }
}

/// Candidate scales the `MseGrid` search scores in one pass over a channel.
const GRID_LANES: usize = 8;

/// The `MseGrid` search: the scale among `steps` candidate clip points
/// (40%..100% of `absmax`) with the smallest reconstruction MSE, the first
/// one on ties. Codes are scored on `[-qmax-1, qmax]`, one level wider
/// than the `[-qmax, qmax]` grid the callers reconstruct on.
///
/// Candidates are scored [`GRID_LANES`] at a time, one `f64` accumulator
/// each, so every candidate still sums its squared errors in element order
/// and the choice is bit-identical to scoring them one by one.
fn mse_grid_scale(backend: Backend, channel: &[f32], absmax: f64, qm: f64, steps: usize) -> f32 {
    let steps = steps.max(1);
    let (lo, hi) = (-(qm as f32) - 1.0, qm as f32);
    let mut best_scale = (absmax / qm) as f32;
    let mut best_mse = f64::INFINITY;
    for first in (0..steps).step_by(GRID_LANES) {
        let count = GRID_LANES.min(steps - first);
        // Spare lanes of the last batch repeat its last candidate and are
        // not compared.
        let scales: [f32; GRID_LANES] = std::array::from_fn(|lane| {
            let k = first + lane.min(count - 1);
            let frac = 0.4 + 0.6 * (k as f64 + 1.0) / steps as f64;
            (absmax * frac / qm) as f32
        });
        let mses = grid_mses_with(backend, channel, &scales, lo, hi);
        for (&s, &mse) in scales.iter().zip(&mses).take(count) {
            if mse < best_mse {
                best_mse = mse;
                best_scale = s;
            }
        }
    }
    best_scale
}

fn grid_mses_with(
    backend: Backend,
    channel: &[f32],
    scales: &[f32; GRID_LANES],
    lo: f32,
    hi: f32,
) -> [f64; GRID_LANES] {
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Wide && crate::lanes::avx2() {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe { grid_mses_avx2(channel, scales, lo, hi) };
    }
    let _ = backend;
    grid_mses(channel, scales, lo, hi)
}

/// [`grid_mses`] compiled for AVX2: the same source, wider lanes.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn grid_mses_avx2(
    channel: &[f32],
    scales: &[f32; GRID_LANES],
    lo: f32,
    hi: f32,
) -> [f64; GRID_LANES] {
    grid_mses(channel, scales, lo, hi)
}

/// Squared reconstruction error of `channel` under each candidate scale,
/// with codes clamped to `[lo, hi]`. Each lane sums in element order from
/// `-0.0`, as `Iterator::sum` does.
#[inline(always)]
fn grid_mses(channel: &[f32], scales: &[f32; GRID_LANES], lo: f32, hi: f32) -> [f64; GRID_LANES] {
    let mut acc = [-0.0f64; GRID_LANES];
    for &w in channel {
        for (a, &s) in acc.iter_mut().zip(scales) {
            // `clamp` keeps a NaN quotient (0/0 from a zero scale) NaN, so
            // that candidate's sum is NaN and never wins.
            let q = round_half_away(w / s).clamp(lo, hi);
            let d = w as f64 - (q * s) as f64;
            *a += d * d;
        }
    }
    acc
}

/// `f32::round` (halves away from zero) in plain float arithmetic, so it
/// vectorizes instead of calling `roundf`. Bit-identical to `f32::round`
/// for every input, signed zeros, infinities and NaN included.
///
/// Below 2^23, adding and subtracting 2^23 rounds `|x|` to an integer with
/// ties to even, exactly. A tie that went down (`|x| - even == 0.5`, also
/// exact) moves up by one, and the sign is copied back. From 2^23 up every
/// `f32` is already an integer; infinities and NaN fail the comparison and
/// pass through unchanged too.
#[inline(always)]
fn round_half_away(x: f32) -> f32 {
    const TWO_POW_23: f32 = 8_388_608.0;
    let a = x.abs();
    let even = (a + TWO_POW_23) - TWO_POW_23;
    let up = if a - even == 0.5 { even + 1.0 } else { even };
    if a < TWO_POW_23 {
        up.copysign(x)
    } else {
        x
    }
}

/// Quantizes a 2-D `[channels, elems]` `f32` tensor symmetrically per
/// channel.
///
/// Codes are clamped to `[-qmax(bits), qmax(bits)]` (symmetric grid; the
/// most-negative code is unused, matching common per-channel PTQ practice
/// such as TensorRT's).
///
/// # Errors
///
/// Returns [`TensorError::AxisOutOfRange`] if the tensor is not rank 2.
pub fn quantize_per_channel(
    weights: &Tensor<f32>,
    bits: u8,
    method: ScaleMethod,
) -> Result<QuantTensor, TensorError> {
    if weights.shape().rank() != 2 {
        return Err(TensorError::AxisOutOfRange {
            axis: 1,
            rank: weights.shape().rank(),
        });
    }
    let chans = weights.shape().dim(0);
    let epc = weights.shape().dim(1);
    let qm = qmax(bits);
    let mut scales = Vec::with_capacity(chans);
    let mut data = Vec::with_capacity(chans * epc);
    for c in 0..chans {
        let row = weights.row(c);
        let s = channel_scale(row, bits, method);
        scales.push(s);
        quantize_row(row, s, qm, &mut data);
    }
    Ok(QuantTensor {
        data: Tensor::from_vec(Shape::matrix(chans, epc), data)?,
        scales,
        bits,
    })
}

/// Re-quantizes INT8 codes to a `bits`-level grid and reconstructs them on
/// the original INT8 grid (the "naive PTQ" compression baseline of
/// Figs. 1/6/11).
///
/// The returned values are integers in the INT8 value domain (rounded), so
/// they can be compared against the originals with
/// [`metrics::mse_i8`](crate::metrics::mse_i8) and
/// [`metrics::kl_divergence_i8_binned`](crate::metrics::kl_divergence_i8_binned).
///
/// # Panics
///
/// Panics if `group` is empty.
pub fn requantize_i8(group: &[i8], bits: u8, method: ScaleMethod) -> Vec<i32> {
    assert!(!group.is_empty());
    let as_f32: Vec<f32> = group.iter().map(|&w| w as f32).collect();
    let qm = qmax(bits);
    let s = channel_scale(&as_f32, bits, method);
    as_f32
        .iter()
        .map(|&w| {
            let q = (w / s).round().clamp(-(qm as f32), qm as f32);
            (q * s).round() as i32
        })
        .collect()
}

/// Microscaling-style shared-exponent reconstruction (Table III).
///
/// A group shares one 8-bit exponent chosen from its largest magnitude;
/// each element is a small *floating-point* value (sign + 3-bit exponent +
/// the remaining mantissa bits, FP6-style for `element_bits = 6`). The
/// shared exponent is set by the group's outlier, so small values fall
/// below the representable range and collapse to zero — the failure mode
/// the paper points out for Microscaling ("the exponent is determined by
/// the largest value in every group, which forces small values to become
/// zero").
///
/// # Panics
///
/// Panics if `group` is empty or `element_bits` is not in `4..=8`.
pub fn microscaling_reconstruct(group: &[i8], element_bits: u8) -> Vec<i32> {
    assert!(!group.is_empty());
    assert!((4..=8).contains(&element_bits));
    let absmax = group
        .iter()
        .map(|&w| (w as i32).abs())
        .max()
        .expect("non-empty");
    if absmax == 0 {
        return vec![0; group.len()];
    }
    // Element format (OCP MXFP-style): 1 sign + 2 exponent + m mantissa
    // bits — E2M3 for 6-bit elements, E2M1 for 4-bit.
    let m_bits = element_bits as i32 - 3;
    let m_levels = 1i32 << m_bits;
    // Shared scale: the largest element value (exp 3, full mantissa) maps
    // to the group absmax.
    let max_elem = 8.0 * (2.0 - 1.0 / m_levels as f64);
    let scale = absmax as f64 / max_elem;
    group
        .iter()
        .map(|&w| {
            let a = (w as f64).abs() / scale;
            if a < 1.0 {
                // Below the smallest normal: flushes to zero — the narrow
                // element range is exactly what kills small values when an
                // outlier sets the shared exponent.
                return 0;
            }
            let e = a.log2().floor().min(3.0);
            let base = 2f64.powf(e);
            let m = ((a / base - 1.0) * m_levels as f64)
                .round()
                .clamp(0.0, (m_levels - 1) as f64);
            let v = (base * (1.0 + m / m_levels as f64) * scale).round() as i32;
            (w as i32).signum() * v
        })
        .collect()
}

/// NoisyQuant-style dithered re-quantization (Table III): a deterministic
/// per-element pseudo-noise bias is added before rounding and removed after,
/// trading rounding bias for noise.
///
/// # Panics
///
/// Panics if `group` is empty.
pub fn noisy_quant_reconstruct(group: &[i8], bits: u8) -> Vec<i32> {
    assert!(!group.is_empty());
    let as_f32: Vec<f32> = group.iter().map(|&w| w as f32).collect();
    let qm = qmax(bits);
    let s = channel_scale(&as_f32, bits, ScaleMethod::MseGrid(32));
    group
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            // Deterministic triangular-ish dither in (-0.5, 0.5) scale units.
            let noise = (((i.wrapping_mul(2654435761)) >> 8) & 0xffff) as f32 / 65536.0 - 0.5;
            let q = ((w as f32 + noise * s) / s)
                .round()
                .clamp(-(qm as f32), qm as f32);
            (q * s - noise * s).round() as i32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use crate::rng::SeededRng;

    /// The backends the differential tests compare. The portable wide path
    /// of these kernels is their scalar code, so on a host without AVX2
    /// both run it, and with AVX2 `Wide` runs the AVX2 kernels.
    const BACKENDS: [Backend; 2] = [Backend::Scalar, Backend::Wide];

    fn gaussian_matrix(chans: usize, epc: usize, seed: u64) -> Tensor<f32> {
        let mut rng = SeededRng::new(seed);
        let data = rng.gaussian_vec_f32(chans * epc, 0.0, 0.02);
        Tensor::from_vec(Shape::matrix(chans, epc), data).unwrap()
    }

    #[test]
    fn qmax_values() {
        assert_eq!(qmax(8), 127);
        assert_eq!(qmax(5), 15);
        assert_eq!(qmax(2), 1);
    }

    #[test]
    fn int8_quantization_roundtrip_error_bounded() {
        let w = gaussian_matrix(8, 64, 21);
        let qt = quantize_per_channel(&w, 8, ScaleMethod::AbsMax).unwrap();
        let recon = qt.dequantize();
        for c in 0..8 {
            let s = qt.scales[c];
            for (x, y) in w.row(c).iter().zip(recon.row(c)) {
                assert!((x - y).abs() <= s * 0.5 + 1e-7, "error beyond half LSB");
            }
        }
    }

    #[test]
    fn per_channel_scales_differ() {
        let mut data = vec![0.0f32; 2 * 16];
        for (i, v) in data.iter_mut().enumerate() {
            *v = if i < 16 { 0.01 } else { 1.0 } * ((i % 16) as f32 - 8.0);
        }
        let w = Tensor::from_vec(Shape::matrix(2, 16), data).unwrap();
        let qt = quantize_per_channel(&w, 8, ScaleMethod::AbsMax).unwrap();
        assert!(qt.scales[1] > qt.scales[0] * 50.0);
    }

    #[test]
    fn int8_quantization_has_negligible_error() {
        // Mirrors Table I: INT8 per-channel PTQ is essentially lossless.
        let w = gaussian_matrix(16, 256, 22);
        let qt = quantize_per_channel(&w, 8, ScaleMethod::AbsMax).unwrap();
        let recon = qt.dequantize();
        let sqnr = metrics::sqnr_db(w.as_slice(), recon.as_slice());
        assert!(sqnr > 40.0, "INT8 SQNR {sqnr} dB too low");
    }

    #[test]
    fn lower_bits_increase_error() {
        let w = gaussian_matrix(4, 128, 23);
        let mut last = -1.0f64;
        for bits in [8u8, 6, 4, 3] {
            let qt = quantize_per_channel(&w, bits, ScaleMethod::AbsMax).unwrap();
            let recon = qt.dequantize();
            let mse = w.mse(&recon).unwrap();
            assert!(mse >= last, "mse must grow as bits shrink");
            last = mse;
        }
    }

    #[test]
    fn mse_grid_never_worse_than_absmax() {
        let mut rng = SeededRng::new(24);
        // Heavy-tailed channel: clipping should help.
        let data: Vec<f32> = (0..512).map(|_| rng.student_t(3) as f32 * 0.02).collect();
        let w = Tensor::from_vec(Shape::matrix(1, 512), data).unwrap();
        let q_abs = quantize_per_channel(&w, 4, ScaleMethod::AbsMax).unwrap();
        let q_mse = quantize_per_channel(&w, 4, ScaleMethod::MseGrid(64)).unwrap();
        let mse_abs = w.mse(&q_abs.dequantize()).unwrap();
        let mse_mse = w.mse(&q_mse.dequantize()).unwrap();
        assert!(mse_mse <= mse_abs * 1.0001);
    }

    #[test]
    fn requantize_i8_is_exact_at_8_bits() {
        let group: Vec<i8> = (-127..=127).collect();
        let recon = requantize_i8(&group, 8, ScaleMethod::AbsMax);
        for (w, r) in group.iter().zip(&recon) {
            assert_eq!(*w as i32, *r);
        }
    }

    #[test]
    fn requantize_collapses_levels() {
        // PTQ to 5 bits can produce at most 2^5 - 1 = 31 distinct values
        // (symmetric grid) — the Fig. 1 limitation.
        let mut rng = SeededRng::new(25);
        let group: Vec<i8> = (0..512).map(|_| rng.gaussian_i8(0.0, 30.0)).collect();
        let recon = requantize_i8(&group, 5, ScaleMethod::MseGrid(64));
        let mut distinct: Vec<i32> = recon.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() <= 31, "got {} levels", distinct.len());
    }

    #[test]
    fn microscaling_zeroes_small_values() {
        // One outlier forces a large shared scale; small values flush to
        // zero (the narrow MXFP element range).
        let group = [100i8, 1, -1, 2, 0, -2, 1, 1];
        let recon = microscaling_reconstruct(&group, 4);
        assert_eq!(recon[0], 100, "outlier representable at full mantissa");
        assert!(
            recon[1..].iter().all(|&r| r == 0),
            "values far below the shared scale must collapse: {recon:?}"
        );
    }

    #[test]
    fn microscaling_fp6_keeps_moderate_values() {
        // Without outliers, E2M3 elements track the group well.
        let group = [40i8, -33, 25, 18, -44, 29, 37, -21];
        let recon = microscaling_reconstruct(&group, 6);
        for (w, r) in group.iter().zip(&recon) {
            assert!((*w as i32 - r).abs() <= 6, "{w} -> {r}");
        }
    }

    #[test]
    fn microscaling_zero_group() {
        assert_eq!(microscaling_reconstruct(&[0, 0, 0], 4), vec![0, 0, 0]);
    }

    #[test]
    fn noisy_quant_close_to_plain_ptq() {
        let mut rng = SeededRng::new(26);
        let group: Vec<i8> = (0..256).map(|_| rng.gaussian_i8(0.0, 25.0)).collect();
        let noisy = noisy_quant_reconstruct(&group, 6);
        let mse = metrics::mse_i8(&group, &noisy);
        // 6-bit quantization step on this range is ~2; dithered error stays
        // in the same ballpark.
        assert!(mse < 8.0, "mse {mse}");
    }

    #[test]
    fn quantize_row_matches_scalar_on_every_backend() {
        let mut rng = SeededRng::new(77);
        // Adversarial values around the rounding and saturation edges; the
        // 0.49999997 pair is the nearest-below-half f32 that naive
        // `x + copysign(0.5, x)` emulations round incorrectly.
        let edges: Vec<f32> = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -2.5,
            126.5,
            -126.5,
            127.5,
            0.499_999_97,
            -0.499_999_97,
            200.0,
            -200.0,
            1e30,
            -1e30,
            1e-30,
            f32::MIN_POSITIVE,
        ];
        for backend in BACKENDS {
            for s in [1.0f32, 0.02, 3.7e-3] {
                for qm in [127, 7, 1] {
                    let mut want = Vec::new();
                    quantize_row_with(Backend::Scalar, &edges, s, qm, &mut want);
                    let mut got = Vec::new();
                    quantize_row_with(backend, &edges, s, qm, &mut got);
                    assert_eq!(got, want, "{backend:?} s={s} qm={qm}");
                }
            }
            for case in 0..40 {
                let n = rng.uniform_usize(1, 70);
                let row: Vec<f32> = (0..n).map(|_| rng.gaussian(0.0, 0.05) as f32).collect();
                let s = channel_scale(&row, 8, ScaleMethod::AbsMax);
                let mut want = Vec::new();
                quantize_row_with(Backend::Scalar, &row, s, 127, &mut want);
                let mut got = Vec::new();
                quantize_row_with(backend, &row, s, 127, &mut got);
                assert_eq!(got, want, "{backend:?} case {case} n={n}");
            }
        }
    }

    #[test]
    fn quantize_row_zero_scale_matches_scalar() {
        // A denormal-small absmax can underflow the f32 scale to zero;
        // 0/0 = NaN must quantize to 0 and ±x/0 = ±inf must saturate,
        // exactly like the scalar `as i32` cast path.
        let row = [0.0f32, 1.0, -1.0, 5.5, -0.25, 0.0, 2.0, -3.0, 0.0];
        for backend in BACKENDS {
            let mut want = Vec::new();
            quantize_row_with(Backend::Scalar, &row, 0.0, 127, &mut want);
            let mut got = Vec::new();
            quantize_row_with(backend, &row, 0.0, 127, &mut got);
            assert_eq!(got, want, "{backend:?}");
        }
    }

    #[test]
    fn absmax_matches_scalar_on_every_backend() {
        let mut rng = SeededRng::new(78);
        for backend in BACKENDS {
            for case in 0..40 {
                let n = rng.uniform_usize(1, 70);
                let row: Vec<f32> = (0..n)
                    .map(|_| {
                        (rng.gaussian(0.0, 0.05) * 10f64.powi(rng.uniform_usize(0, 9) as i32 - 4))
                            as f32
                    })
                    .collect();
                let want = absmax_f64_with(Backend::Scalar, &row);
                let got = absmax_f64_with(backend, &row);
                assert_eq!(got.to_bits(), want.to_bits(), "{backend:?} case {case}");
            }
            assert_eq!(absmax_f64_with(backend, &[]), 0.0);
            assert_eq!(absmax_f64_with(backend, &[-0.0f32; 11]), 0.0);
        }
    }

    /// One candidate's squared reconstruction error, summed in one pass
    /// with `f32::round`: the per-candidate oracle of [`grid_mses`].
    fn candidate_mse_oracle(channel: &[f32], s: f32, lo: f32, hi: f32) -> f64 {
        channel
            .iter()
            .map(|&w| {
                let q = (w / s).round().clamp(lo, hi);
                let r = q * s;
                (w as f64 - r as f64).powi(2)
            })
            .sum()
    }

    /// The `MseGrid` scale as a full pass per candidate: the oracle the
    /// batched search must match bit for bit.
    fn mse_grid_oracle(channel: &[f32], bits: u8, steps: usize) -> f32 {
        let qm = qmax(bits) as f64;
        let absmax = channel.iter().fold(0.0f64, |m, &w| m.max(w.abs() as f64));
        if absmax == 0.0 {
            return 1.0;
        }
        let mut best_scale = (absmax / qm) as f32;
        let mut best_mse = f64::INFINITY;
        for k in 0..steps.max(1) {
            // Candidate clip points from 40%..100% of absmax.
            let frac = 0.4 + 0.6 * (k as f64 + 1.0) / steps.max(1) as f64;
            let s = (absmax * frac / qm) as f32;
            let mse = candidate_mse_oracle(channel, s, -(qm as f32) - 1.0, qm as f32);
            if mse < best_mse {
                best_mse = mse;
                best_scale = s;
            }
        }
        best_scale
    }

    /// Asserts every backend's `MseGrid` scale has the oracle's bits.
    fn assert_grid_scale_matches_oracle(channel: &[f32], bits: u8, steps: usize) {
        let want = mse_grid_oracle(channel, bits, steps);
        for backend in BACKENDS {
            let got = channel_scale_with(backend, channel, bits, ScaleMethod::MseGrid(steps));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{backend:?} bits={bits} steps={steps} channel={channel:?}"
            );
        }
    }

    #[test]
    fn mse_grid_matches_the_per_candidate_oracle_on_random_channels() {
        let mut rng = SeededRng::new(79);
        for bits in 2..=8u8 {
            for steps in [1usize, 7, 8, 32, 64] {
                for case in 0..4 {
                    let n = if case == 0 {
                        1
                    } else {
                        rng.uniform_usize(1, 301)
                    };
                    let codes: Vec<f32> = (0..n).map(|_| rng.any_i8() as f32).collect();
                    assert_grid_scale_matches_oracle(&codes, bits, steps);
                    let sigma = 10f64.powi(rng.uniform_usize(0, 7) as i32 - 4);
                    let floats: Vec<f32> = (0..n)
                        .map(|_| rng.student_t(3) as f32 * sigma as f32)
                        .collect();
                    assert_grid_scale_matches_oracle(&floats, bits, steps);
                }
            }
        }
    }

    #[test]
    fn mse_grid_matches_the_oracle_on_edge_rows() {
        let tiny = f32::from_bits(1); // the smallest subnormal
        let rows: Vec<Vec<f32>> = vec![
            // All zero, both signs: no search, scale 1.
            vec![0.0; 17],
            vec![0.0, -0.0, -0.0, 0.0],
            // Subnormal absmax: candidate scales underflow to 0 (0/0 is NaN,
            // w/0 is ±inf) or round to a few subnormal steps.
            vec![tiny, -tiny, 0.0, -0.0],
            vec![f32::from_bits(3), 0.0, -f32::from_bits(2), tiny],
            vec![-f32::from_bits(200), f32::from_bits(77), 0.0],
            // Signed zeros among ordinary weights.
            vec![0.0, -0.0, 1.0, -1.0, 0.5, -0.0],
            // Quotients on exact .5 ties: the last candidate of a search is
            // absmax / qmax, here 2 (3 bits) and 0.25 (8 bits).
            vec![6.0, -6.0, 1.0, -1.0, 3.0, -3.0, 5.0, -5.0, 0.0],
            vec![31.75, 0.125, -0.125, 0.375, -0.375, 2.625, -30.875, 0.0],
        ];
        for row in &rows {
            for bits in 2..=8u8 {
                for steps in [1usize, 2, 7, 8, 32] {
                    assert_grid_scale_matches_oracle(row, bits, steps);
                }
            }
        }
    }

    #[test]
    fn grid_lanes_match_the_per_candidate_sums() {
        // Every lane's sum, not only the winner, against the oracle; the
        // exact scales put quotients on .5 ties.
        let mut rng = SeededRng::new(80);
        let row: Vec<f32> = (-40..=40).map(|v| v as f32 * 0.5).collect();
        let scales: [f32; GRID_LANES] = [1.0, 2.0, 0.25, 4.0, 0.0, 3.7e-3, 1e-30, 0.5];
        let noisy: Vec<f32> = (0..97).map(|_| rng.gaussian(0.0, 0.05) as f32).collect();
        for backend in BACKENDS {
            for channel in [&row, &noisy] {
                for (lo, hi) in [(-128.0f32, 127.0f32), (-2.0, 1.0), (-8.0, 7.0)] {
                    let got = grid_mses_with(backend, channel, &scales, lo, hi);
                    for (lane, &s) in scales.iter().enumerate() {
                        let want = candidate_mse_oracle(channel, s, lo, hi);
                        assert!(
                            got[lane].to_bits() == want.to_bits()
                                || (got[lane].is_nan() && want.is_nan()),
                            "{backend:?} s={s} [{lo}, {hi}]: {} vs {want}",
                            got[lane]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn round_half_away_is_f32_round() {
        let mut rng = SeededRng::new(81);
        let edges = [
            0.0f32,
            -0.0,
            0.5,
            -0.5,
            0.499_999_97,
            -0.499_999_97,
            1.5,
            -2.5,
            4_194_303.5,
            4_194_304.5,
            -8_388_607.5,
            8_388_608.0,
            16_777_217.0,
            f32::MAX,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let bit_patterns: Vec<f32> = (0..1 << 20)
            .map(|_| f32::from_bits(rng.uniform_usize(0, 1 << 32) as u32))
            .collect();
        let magnitudes: Vec<f32> = (0..1 << 20)
            .map(|i| rng.gaussian(0.0, 10f64.powi(i % 9 - 1)) as f32)
            .collect();
        for x in edges.into_iter().chain(bit_patterns).chain(magnitudes) {
            let (got, want) = (round_half_away(x), x.round());
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "{x:e}: {got:e} vs {want:e}"
            );
        }
        assert!(round_half_away(f32::NAN).is_nan());
    }

    #[test]
    fn rejects_non_matrix_tensor() {
        let t = Tensor::from_vec(Shape::vector(4), vec![0.0f32; 4]).unwrap();
        assert!(quantize_per_channel(&t, 8, ScaleMethod::AbsMax).is_err());
    }
}
