//! Seeded random sampling used to synthesize DNN weights and activations.
//!
//! Every experiment in the reproduction is deterministic: all randomness
//! flows through [`SeededRng`] instances constructed from explicit seeds.
//! The samplers are implemented from first principles on top of `rand`'s
//! uniform source so no external distribution crate is needed.
//!
//! # One normal stream, two ways to evaluate it
//!
//! Every normal the generator hands out is one half of a Box-Muller pair
//! computed with libm: `r·cos θ` then `r·sin θ`, with `r = √(−2 ln u1)`
//! and `θ = 2π·u2` (see `exact_pair`). The per-call samplers
//! ([`SeededRng::standard_normal`], [`SeededRng::gaussian`],
//! [`SeededRng::student_t`]) evaluate it one pair at a time.
//!
//! The `f32` fills ([`SeededRng::extend_gaussian_f32`],
//! [`SeededRng::extend_heavy_tailed_f32`]) hand out the same stream, bit
//! for bit, faster. Which uniforms a fill draws never depends on a
//! transcendental result, so a fill first draws a chunk's uniforms in
//! stream order (a few hundred pairs, in L1), then evaluates every pair of
//! the chunk with a branch-free kernel over `f64` lanes, built twice as
//! [`crate::lanes`] prescribes. The kernel is approximate. Each output is
//! kept only when it is certified: every value within a margin of it casts
//! to the same `f32`, and the margin bounds the kernel's distance from
//! libm (see `certify`). Otherwise the output is recomputed from the same
//! uniforms through libm. An `f64` that outlives a fill (the spare of an
//! odd fill) is always computed through libm.

use crate::lanes::Backend;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::f64::consts::{FRAC_2_PI, PI};

#[cfg(unix)]
extern "C" {
    /// libm's paired sine/cosine — one argument reduction for both values.
    fn sincos(x: f64, s: *mut f64, c: *mut f64);
}

/// Whether the platform `sincos` is bit-identical to separate `sin`/`cos`
/// calls, checked once over deterministic probe points spanning the
/// Box-Muller theta range. Determinism of the output stream is
/// non-negotiable, so the paired call is only used when it provably agrees.
#[cfg(unix)]
fn sincos_is_exact() -> bool {
    use std::sync::OnceLock;
    static EXACT: OnceLock<bool> = OnceLock::new();
    *EXACT.get_or_init(|| {
        (0..257).all(|i| {
            let x = std::f64::consts::TAU * i as f64 / 256.0;
            let (mut s, mut c) = (0.0f64, 0.0f64);
            unsafe { sincos(x, &mut s, &mut c) };
            s.to_bits() == x.sin().to_bits() && c.to_bits() == x.cos().to_bits()
        })
    })
}

/// `(x.sin(), x.cos())` with one shared argument reduction where the
/// platform guarantees bit-identical results, separate calls otherwise.
#[inline]
fn sin_cos_exact(x: f64) -> (f64, f64) {
    #[cfg(unix)]
    if sincos_is_exact() {
        let (mut s, mut c) = (0.0f64, 0.0f64);
        unsafe { sincos(x, &mut s, &mut c) };
        return (s, c);
    }
    (x.sin(), x.cos())
}

/// One Box-Muller pair through libm, `(r·cos θ, r·sin θ)` with
/// `r = √(−2 ln u1)`: the definition of every normal [`SeededRng`] hands
/// out.
fn exact_pair(u1: f64, theta: f64) -> (f64, f64) {
    let r = (-2.0 * u1.ln()).sqrt();
    let (sin, cos) = sin_cos_exact(theta);
    (r * cos, r * sin)
}

/// A Student-t sample from its normals: `z / √(Σ x² / df)` over the `df`
/// normals `chi`, summed in order.
fn student_t_of(z: f64, chi: impl Iterator<Item = f64>, df: u32) -> f64 {
    let chi2: f64 = chi.map(|x| x.powi(2)).sum();
    z / (chi2 / df as f64).sqrt()
}

/// How far a fill's kernel output may lie from libm's, relative to the
/// magnitude of the terms it sums.
///
/// The kernel's `ln`, `sin` and `cos` each lie within a few ulps of the
/// true value, and so do libm's; its tests hold every normal `r·cos θ`
/// within 2^-48 of libm's (measured: 2^-50.6). A Gaussian output
/// `mean + std·z` then moves by at most `|std·z|·(2^-48 + 2^-52)`, and
/// `|std·z| ≤ |v| + |mean|`. A Student-t output `z / √(χ²/df) · std`
/// takes `z`'s error once and `χ²`'s twice, halved by the root, plus a few
/// roundings: under 2^-46. The margin 2^-40 leaves 2^6 of headroom over
/// the worst of these and 2^9 over the kernel's measured error.
const MARGIN: f64 = 1.0 / (1u64 << 40) as f64;

/// Casts each output value `v` to `f32` into `w`, and returns whether
/// every cast is certified: every value within `(|v| + offset)·MARGIN` of
/// `v` casts to the same `f32`.
///
/// Round-to-nearest is monotonic, so if both ends of that interval cast to
/// one `f32`, so does every value inside it, libm's included; rounding the
/// ends in `f64` keeps that, because a representable value inside the
/// exact interval stays inside the rounded one. `|v| + offset` must bound
/// the magnitude of the terms the output sums (`offset = |mean|` for
/// `mean + std·z`, zero for a product or quotient); `f64::MIN_POSITIVE`
/// covers outputs at zero. The bits are compared, not the values: `-0.0`
/// and `0.0` are different `f32`s, and a NaN (which equals nothing) never
/// certifies. Branch-free, so it vectorizes; an uncertified output's `w`
/// is one end's cast, which the caller replaces.
#[inline(always)]
fn certify(v: &[f64], offset: f64, w: &mut [f32]) -> bool {
    let mut all = true;
    for (w, &v) in w.iter_mut().zip(v) {
        let d = (v.abs() + offset) * MARGIN + f64::MIN_POSITIVE;
        let (lo, hi) = ((v - d) as f32, (v + d) as f32);
        *w = lo;
        all &= (lo.to_bits() == hi.to_bits()) & (lo == hi);
    }
    all
}

// fdlibm's `e_log.c`: `ln 2` split so that `k·LN2_HI` is exact for the
// binary exponents `k` of the uniforms, and the minimax coefficients of
// `ln(1 + f) = 2s + s·R(s²)` with `s = f / (2 + f)`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);

// fdlibm's `e_rem_pio2.c`: π/2 split into three 33-bit parts and a tail,
// so `k·PIO2_1..3` is exact for every quadrant `k ≤ 4` of `θ ∈ [0, 2π]`.
const PIO2_1: f64 = f64::from_bits(0x3ff9_21fb_5440_0000);
const PIO2_2: f64 = f64::from_bits(0x3dd0_b461_1a60_0000);
const PIO2_3: f64 = f64::from_bits(0x3ba3_198a_2e00_0000);
const PIO2_3T: f64 = f64::from_bits(0x397b_839a_2520_49c1);

// fdlibm's `k_sin.c` and `k_cos.c` polynomials on `[-π/4, π/4]`.
const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5549);
const S2: f64 = f64::from_bits(0x3f81_1111_1110_f8a6);
const S3: f64 = f64::from_bits(0xbf2a_01a0_19c1_61d5);
const S4: f64 = f64::from_bits(0x3ec7_1de3_57b1_fe7d);
const S5: f64 = f64::from_bits(0xbe5a_e5e6_8a2b_9ceb);
const S6: f64 = f64::from_bits(0x3de5_d93a_5acf_d57c);
const C1: f64 = f64::from_bits(0x3fa5_5555_5555_554c);
const C2: f64 = f64::from_bits(0xbf56_c16c_16c1_5177);
const C3: f64 = f64::from_bits(0x3efa_01a0_19cb_1590);
const C4: f64 = f64::from_bits(0xbe92_7e4f_809c_52ad);
const C5: f64 = f64::from_bits(0x3e21_ee9e_bdb4_b1c4);
const C6: f64 = f64::from_bits(0xbda8_fae9_be88_38d4);

/// 2^52: a non-negative integer `i < 2^52` is `bits(2^52 + i) − bits(2^52)`.
const TWO52: f64 = 4_503_599_627_370_496.0;
/// 1.5·2^52: `(x + ROUND) − ROUND` rounds `|x| < 2^51` to the nearest
/// integer, which also sits in the low mantissa bits of `x + ROUND`. On
/// the x86-64 baseline `f64::round` is a libm call and would not vectorize.
const ROUND: f64 = 1.5 * TWO52;

/// `ln x` for normal `x > 0`, branch-free (musl's form of fdlibm's
/// `e_log.c`): `x = 2^k·m` with `m ∈ [√2/2, √2)`, then
/// `ln x = k·ln 2 + ln m`.
#[inline(always)]
fn ln_fast(x: f64) -> f64 {
    let bits = x.to_bits();
    // Offsetting the high word moves `m ≥ √2` into the next binade, so
    // the exponent field carries `k + 1023` exactly.
    let hx = (bits >> 32) + (0x3ff0_0000 - 0x3fe6_a09e);
    let biased_k = hx >> 20;
    let m = f64::from_bits((((hx & 0x000f_ffff) + 0x3fe6_a09e) << 32) | (bits & 0xffff_ffff));
    let k = f64::from_bits(TWO52.to_bits() | biased_k) - (TWO52 + 1023.0);
    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    s * (hfsq + t2 + t1) + k * LN2_LO - hfsq + f + k * LN2_HI
}

/// `(sin θ, cos θ)` for `θ ∈ [0, 2π]`, branch-free.
///
/// `θ = k·π/2 + y` with `k` the nearest quadrant and `|y| ≤ π/4`. The
/// reduction is Cody-Waite over the three-part π/2: `θ − k·PIO2_1` is
/// exact (Sterbenz), and the later parts keep `y` accurate to a few ulps
/// even for the `θ` next to `k·π/2`, where `y` is as small as ~2^-54.
/// fdlibm's kernels give `sin y` and `cos y`, and the quadrant `k mod 4`
/// swaps and negates them through masks.
#[inline(always)]
fn sin_cos_fast(theta: f64) -> (f64, f64) {
    let shifted = theta * FRAC_2_PI + ROUND;
    let k = shifted - ROUND;
    let q = shifted.to_bits();
    let y = (((theta - k * PIO2_1) - k * PIO2_2) - k * PIO2_3) - k * PIO2_3T;
    let z = y * y;
    let w = z * z;
    let r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let sin = y + z * y * (S1 + z * r);
    let r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let one_hz = 1.0 - hz;
    let cos = one_hz + (((1.0 - one_hz) - hz) + z * r);
    // Odd quadrants swap sine and cosine; quadrants 2 and 3 negate the
    // sine, 1 and 2 the cosine.
    let swap = (q & 1).wrapping_neg();
    let (s, c) = (sin.to_bits(), cos.to_bits());
    let sin = (s & !swap) | (c & swap);
    let cos = (c & !swap) | (s & swap);
    (
        f64::from_bits(sin ^ ((q & 2) << 62)),
        f64::from_bits(cos ^ (((q + 1) & 2) << 62)),
    )
}

/// The kernel: `z[j] ≈ (r·cos θ, r·sin θ)` for the uniforms `u1[j]` and
/// angles `theta[j]`, over `u1 ∈ (2^-52, 1)` and `θ ∈ [0, 2π]`.
/// `#[inline(always)]` so each build compiles it with its own features.
#[inline(always)]
fn box_muller(u1: &[f64], theta: &[f64], z: &mut [[f64; 2]]) {
    for ((&u1, &theta), z) in u1.iter().zip(theta).zip(z) {
        let r = (-2.0 * ln_fast(u1)).sqrt();
        let (sin, cos) = sin_cos_fast(theta);
        *z = [r * cos, r * sin];
    }
}

/// The AVX2 build of [`box_muller`]: four pairs per instruction.
///
/// # Safety
///
/// The caller must have verified AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn box_muller_avx2(u1: &[f64], theta: &[f64], z: &mut [[f64; 2]]) {
    box_muller(u1, theta, z)
}

/// [`box_muller`] in the AVX2 build under [`Backend::Wide`] on an AVX2
/// host, else in the portable one (two pairs per SSE2 instruction).
fn box_muller_with(backend: Backend, u1: &[f64], theta: &[f64], z: &mut [[f64; 2]]) {
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Wide && crate::lanes::avx2() {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe { box_muller_avx2(u1, theta, z) };
    }
    let _ = backend;
    box_muller(u1, theta, z)
}

/// Box-Muller pairs a fill plans and evaluates at once: with its plan and
/// outputs a chunk takes 15 KB, so it stays in L1.
const PAIRS: usize = 256;
/// Pairs the kernel evaluates per step in its widest build; a chunk is
/// evaluated in whole steps so no pair runs in a scalar remainder loop.
const STEP: usize = 8;
/// Plan entry flag: the output is a Student-t draw.
const STUDENT_T: u16 = 1 << 15;

/// One chunk of a fill: its pairs' uniforms in stream order, the kernel's
/// normals, and which normals each output reads.
struct Chunk {
    u1: [f64; PAIRS],
    theta: [f64; PAIRS],
    /// Normal `i` of the chunk is `z[i / 2][i % 2]`.
    z: [[f64; 2]; PAIRS],
    /// Per planned output: the index of its first normal, with
    /// [`STUDENT_T`] set when it reads `1 + df` of them.
    plan: [u16; 2 * PAIRS],
    /// Per output: its `f64` value over the kernel's normals, and the
    /// `f32` the fill appends.
    values: [f64; 2 * PAIRS],
    casts: [f32; 2 * PAIRS],
}

thread_local! {
    /// Each thread's chunk, reused by every fill, so that a short fill
    /// (one 32-weight channel) pays nothing to set its buffers up.
    static CHUNK: RefCell<Box<Chunk>> = RefCell::new(Box::new(Chunk {
        // Lanes past a chunk's last pair hold in-domain values.
        u1: [0.5; PAIRS],
        theta: [0.0; PAIRS],
        z: [[0.0; 2]; PAIRS],
        plan: [0; 2 * PAIRS],
        values: [0.0; 2 * PAIRS],
        casts: [0.0; 2 * PAIRS],
    }));
}

impl Chunk {
    /// Draws the uniforms of up to `n` outputs in stream order: per output,
    /// the tail uniform when `tail` is set, then the pairs its normals
    /// need. Returns the outputs planned and the normals they read. A
    /// Gaussian fill's output `i` reads normal `i`, so it plans no entries.
    fn plan(&mut self, rng: &mut SeededRng, n: usize, tail: Option<(f64, u32)>) -> (usize, usize) {
        let Some((_, df)) = tail else {
            let outputs = n.min(2 * PAIRS);
            for j in 0..outputs.div_ceil(2) {
                (self.u1[j], self.theta[j]) = rng.box_muller_uniforms();
            }
            return (outputs, outputs);
        };
        let df = df as usize;
        let (mut outputs, mut pairs, mut normals) = (0, 0, 0);
        while outputs < n && normals + 1 + df <= 2 * PAIRS {
            let t = rng.tail_draw(tail);
            let need = 1 + t.map_or(0, |df| df as usize);
            while 2 * pairs < normals + need {
                (self.u1[pairs], self.theta[pairs]) = rng.box_muller_uniforms();
                pairs += 1;
            }
            self.plan[outputs] = normals as u16 | if t.is_some() { STUDENT_T } else { 0 };
            normals += need;
            outputs += 1;
        }
        (outputs, normals)
    }

    /// Normal `i` of the pairs `(u1[j], theta[j])`, through libm.
    fn exact_normal(u1: &[f64], theta: &[f64], i: usize) -> f64 {
        let (cos, sin) = exact_pair(u1[i / 2], theta[i / 2]);
        [cos, sin][i % 2]
    }

    /// The output a plan entry describes, over the normals `normal` gives:
    /// `mean + std·z`, or `student_t · std` for a Student-t entry.
    #[inline(always)]
    fn value(entry: u16, mean: f64, std: f64, df: u32, normal: impl Fn(usize) -> f64) -> f64 {
        let first = (entry & !STUDENT_T) as usize;
        if entry & STUDENT_T == 0 {
            mean + std * normal(first)
        } else {
            student_t_of(
                normal(first),
                (1..=df as usize).map(|i| normal(first + i)),
                df,
            ) * std
        }
    }

    /// Appends the chunk's `outputs` outputs to `out`: their values from
    /// the kernel's normals, certified in one pass; an output that does
    /// not certify is recomputed from libm's normals.
    fn emit(
        &mut self,
        out: &mut Vec<f32>,
        outputs: usize,
        mean: f64,
        std: f64,
        tail: Option<(f64, u32)>,
    ) {
        let Chunk {
            u1,
            theta,
            z,
            plan,
            values,
            casts,
        } = self;
        let z = z.as_flattened();
        let (v, w) = (&mut values[..outputs], &mut casts[..outputs]);
        // A Gaussian fill's output `o` is normal `o`.
        let entry = |o: usize| match tail {
            None => o as u16,
            Some(_) => plan[o],
        };
        let df = tail.map_or(0, |(_, df)| df);
        match tail {
            None => {
                for (v, &z) in v.iter_mut().zip(z) {
                    *v = mean + std * z;
                }
            }
            Some(_) => {
                for (v, &entry) in v.iter_mut().zip(plan.iter()) {
                    *v = Chunk::value(entry, mean, std, df, |i| z[i]);
                }
            }
        }
        if !certify(v, mean.abs(), w) {
            for o in 0..outputs {
                if !certify(&v[o..=o], mean.abs(), &mut w[o..=o]) {
                    let exact = |i| Chunk::exact_normal(u1, theta, i);
                    w[o] = Chunk::value(entry(o), mean, std, df, exact) as f32;
                }
            }
        }
        out.extend_from_slice(w);
    }
}

/// A deterministic random source with the distribution samplers the
/// reproduction needs.
///
/// # Example
///
/// ```
/// use bbs_tensor::rng::SeededRng;
///
/// let mut a = SeededRng::new(42);
/// let mut b = SeededRng::new(42);
/// assert_eq!(a.gaussian(0.0, 1.0), b.gaussian(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct SeededRng {
    inner: StdRng,
    /// Cached second Box-Muller variate.
    spare: Option<f64>,
}

impl SeededRng {
    /// Creates a new generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SeededRng {
            inner: StdRng::seed_from_u64(seed),
            spare: None,
        }
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range");
        self.inner.gen_range(lo..hi)
    }

    /// The inputs of one Box-Muller pair: `u1 ∈ (ε, 1)` by rejection, then
    /// `θ = 2π·u2`.
    fn box_muller_uniforms(&mut self) -> (f64, f64) {
        let u1 = loop {
            let u = self.uniform();
            if u > f64::EPSILON {
                break u;
            }
        };
        (u1, 2.0 * PI * self.uniform())
    }

    /// The degrees of freedom of the next heavy-tailed draw if it is a
    /// Student-t one, else `None`: draws its tail uniform when `tail` is
    /// set.
    fn tail_draw(&mut self, tail: Option<(f64, u32)>) -> Option<u32> {
        tail.filter(|&(p, _)| self.uniform() < p).map(|(_, df)| df)
    }

    /// Standard normal sample via Box-Muller.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        let (u1, theta) = self.box_muller_uniforms();
        let (cos, sin) = exact_pair(u1, theta);
        self.spare = Some(sin);
        cos
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn gaussian(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.standard_normal()
    }

    /// Gaussian sample rounded and clamped to `i8`.
    pub fn gaussian_i8(&mut self, mean: f64, std: f64) -> i8 {
        let v = self.gaussian(mean, std).round();
        v.clamp(i8::MIN as f64, i8::MAX as f64) as i8
    }

    /// Student-t sample with `df` degrees of freedom (heavy tails for
    /// outlier channels).
    ///
    /// # Panics
    ///
    /// Panics if `df` is zero.
    pub fn student_t(&mut self, df: u32) -> f64 {
        assert!(df > 0, "degrees of freedom must be positive");
        let z = self.standard_normal();
        student_t_of(z, (0..df).map(|_| self.standard_normal()), df)
    }

    /// Appends `n` Gaussian `f32` samples, consuming the generator state
    /// exactly as `n` successive [`SeededRng::gaussian`] calls would (the
    /// cached spare is drained first and an odd trailing sample re-arms
    /// it), with every sample bit-identical to that call's `as f32`.
    pub fn extend_gaussian_f32(&mut self, out: &mut Vec<f32>, n: usize, mean: f64, std: f64) {
        self.fill_f32_with(Backend::active(), out, n, mean, std, None)
    }

    /// Appends `n` heavy-tailed `f32` samples at scale `sigma`: exactly
    /// `n` iterations of `if uniform() < tail { student_t(df) * sigma }
    /// else { gaussian(0.0, sigma) }`, each cast to `f32`, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `df` is zero.
    pub fn extend_heavy_tailed_f32(
        &mut self,
        out: &mut Vec<f32>,
        n: usize,
        tail: f64,
        df: u32,
        sigma: f64,
    ) {
        assert!(df > 0, "degrees of freedom must be positive");
        self.fill_f32_with(Backend::active(), out, n, 0.0, sigma, Some((tail, df)))
    }

    /// One output of a fill through the per-call samplers.
    fn sample(&mut self, mean: f64, std: f64, tail: Option<(f64, u32)>) -> f64 {
        match self.tail_draw(tail) {
            Some(df) => self.student_t(df) * std,
            None => self.gaussian(mean, std),
        }
    }

    /// Both fills, with the kernel in `backend`'s build: chunk by chunk,
    /// plan the uniforms, evaluate the pairs, keep each certified output
    /// and recompute the others through libm. A chunk starts without a
    /// spare (an output drawn per call drains one), and a chunk that
    /// leaves one computes it through libm.
    fn fill_f32_with(
        &mut self,
        backend: Backend,
        out: &mut Vec<f32>,
        n: usize,
        mean: f64,
        std: f64,
        tail: Option<(f64, u32)>,
    ) {
        let df = tail.map_or(0, |(_, df)| df);
        if 1 + df as usize > 2 * PAIRS {
            // A draw that does not fit one chunk runs per call.
            out.extend((0..n).map(|_| self.sample(mean, std, tail) as f32));
            return;
        }
        out.reserve(n);
        CHUNK.with_borrow_mut(|chunk| {
            let mut rem = n;
            while rem > 0 {
                if self.spare.is_some() {
                    out.push(self.sample(mean, std, tail) as f32);
                    rem -= 1;
                    continue;
                }
                let (outputs, normals) = chunk.plan(self, rem, tail);
                let pairs = normals.div_ceil(2);
                let lanes = pairs.next_multiple_of(STEP);
                box_muller_with(
                    backend,
                    &chunk.u1[..lanes],
                    &chunk.theta[..lanes],
                    &mut chunk.z[..lanes],
                );
                chunk.emit(out, outputs, mean, std, tail);
                if normals % 2 == 1 {
                    self.spare = Some(Chunk::exact_normal(&chunk.u1, &chunk.theta, normals));
                }
                rem -= outputs;
            }
        });
    }

    /// Fills a vector with Gaussian samples.
    pub fn gaussian_vec(&mut self, n: usize, mean: f64, std: f64) -> Vec<f64> {
        (0..n).map(|_| self.gaussian(mean, std)).collect()
    }

    /// Fills a vector with Gaussian `f32` samples: one
    /// [`SeededRng::extend_gaussian_f32`] into a new vector.
    pub fn gaussian_vec_f32(&mut self, n: usize, mean: f32, std: f32) -> Vec<f32> {
        let mut out = Vec::with_capacity(n);
        self.extend_gaussian_f32(&mut out, n, mean as f64, std as f64);
        out
    }

    /// Random `i8` uniform over the full range.
    pub fn any_i8(&mut self) -> i8 {
        self.inner.gen::<i8>()
    }

    /// Shuffles a slice in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.uniform_usize(0, i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Both builds of the kernel; on a host without AVX2 both run the
    /// portable one.
    const BACKENDS: [Backend; 2] = [Backend::Scalar, Backend::Wide];

    /// The Gaussian fill's oracle: one libm Box-Muller pair at a time,
    /// the spare drained first and re-armed by an odd end.
    fn gaussian_oracle(rng: &mut SeededRng, out: &mut Vec<f32>, n: usize, mean: f64, std: f64) {
        let mut rem = n;
        if rem > 0 {
            if let Some(z) = rng.spare.take() {
                out.push((mean + std * z) as f32);
                rem -= 1;
            }
        }
        while rem > 0 {
            let u1 = loop {
                let u = rng.uniform();
                if u > f64::EPSILON {
                    break u;
                }
            };
            let u2 = rng.uniform();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            let (sin, cos) = sin_cos_exact(theta);
            out.push((mean + std * (r * cos)) as f32);
            rem -= 1;
            if rem > 0 {
                out.push((mean + std * (r * sin)) as f32);
                rem -= 1;
            } else {
                rng.spare = Some(r * sin);
            }
        }
    }

    /// The heavy-tailed fill's oracle: its definition, one per-call draw
    /// per output.
    fn heavy_tailed_oracle(
        rng: &mut SeededRng,
        out: &mut Vec<f32>,
        n: usize,
        tail: f64,
        df: u32,
        sigma: f64,
    ) {
        for _ in 0..n {
            let v = if rng.uniform() < tail {
                rng.student_t(df) * sigma
            } else {
                rng.gaussian(0.0, sigma)
            };
            out.push(v as f32);
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        /// Both fills, in both builds, equal their per-call oracles bit
        /// for bit: lengths that end odd and even and cross chunks, the
        /// outlier channels' 4× scale, and a lone draw before and after
        /// each fill, so that spares cross calls both ways.
        #[test]
        fn certified_fills_equal_their_per_call_oracles(
            seed in any::<u64>(),
            lens in vec(0usize..1100, 1..4),
            mean in prop_oneof![Just(0.0), -3.0f64..3.0],
            sigma in prop_oneof![Just(0.02), Just(0.02 * 4.0), 0.001f64..0.5, 0.5f64..4.0],
            (tail, df) in (
                prop_oneof![Just(0.0), Just(0.02), Just(1.0)],
                prop_oneof![Just(1u32), Just(4u32)],
            ),
            heavy in any::<bool>(),
        ) {
            for backend in BACKENDS {
                let (mut fast, mut slow) = (SeededRng::new(seed), SeededRng::new(seed));
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let (mut lone_got, mut lone_want) = (Vec::new(), Vec::new());
                for &n in &lens {
                    lone_got.push(fast.gaussian(mean, sigma).to_bits());
                    lone_want.push(slow.gaussian(mean, sigma).to_bits());
                    if heavy {
                        fast.fill_f32_with(backend, &mut got, n, 0.0, sigma, Some((tail, df)));
                        heavy_tailed_oracle(&mut slow, &mut want, n, tail, df, sigma);
                    } else {
                        fast.fill_f32_with(backend, &mut got, n, mean, sigma, None);
                        gaussian_oracle(&mut slow, &mut want, n, mean, sigma);
                    }
                }
                lone_got.push(fast.gaussian(mean, sigma).to_bits());
                lone_want.push(slow.gaussian(mean, sigma).to_bits());
                prop_assert_eq!(bits(&got), bits(&want), "{:?} lens {:?}", backend, lens);
                prop_assert_eq!(lone_got, lone_want);
            }
        }

        /// The certification apart from the kernel: an exact value `x`
        /// within a few `f64` ulps of an `f32` rounding midpoint (or a
        /// signed zero), seen through a value `v` perturbed by up to the
        /// margin, certifies as `x`'s own `f32` or not at all. Random
        /// kernel samples cannot show this, since the cast hides most
        /// errors.
        #[test]
        fn certified_outputs_are_exact_or_fall_back(
            f32_bits in any::<u32>(),
            near_zero in any::<bool>(),
            ulps in -4i64..=4,
            t in -1.0f64..=1.0,
            offset in prop_oneof![Just(0.0f64), any::<f64>()],
        ) {
            let x = if near_zero {
                // ±0 and the first subnormal `f64`s on either side.
                let tiny = f64::from_bits(ulps.unsigned_abs());
                if f32_bits & 1 == 0 { tiny } else { -tiny }
            } else {
                let a = f32::from_bits(f32_bits);
                prop_assume!(a.is_finite() && a.abs() < f32::MAX);
                let b = f32::from_bits(a.to_bits() + 1);
                let mid = (a as f64 + b as f64) / 2.0;
                f64::from_bits(mid.to_bits().wrapping_add_signed(ulps))
            };
            // `scale` bounds the terms `v` sums (`|v|`, plus a mean's
            // magnitude). The perturbation reaches the stated bound, 2^-40
            // of it, written out rather than read from `MARGIN`, so that a
            // narrower margin fails here; it stays inside the bound after
            // `v`'s own rounding.
            let bound = 1.0 / (1u64 << 40) as f64;
            let offset: f64 = offset;
            let scale = |v: f64| v.abs() + offset.abs();
            let e = t * (scale(x) * bound * (1.0 - 1.0 / 1024.0) + f64::MIN_POSITIVE);
            let v = x + e;
            prop_assume!((v - x).abs() <= scale(v) * bound + f64::MIN_POSITIVE);
            let mut w = [0.0f32];
            if certify(&[v], offset.abs(), &mut w) {
                prop_assert_eq!(w[0].to_bits(), (x as f32).to_bits(), "x {:e} v {:e}", x, v);
            }
        }
    }

    /// The largest relative distance between the kernel's normals and
    /// libm's, over the given inputs, in `backend`'s build.
    fn kernel_error(backend: Backend, u1: &[f64], theta: &[f64]) -> f64 {
        let mut z = vec![[0.0; 2]; u1.len()];
        box_muller_with(backend, u1, theta, &mut z);
        let mut worst = 0.0f64;
        for ((&u1, &theta), fast) in u1.iter().zip(theta).zip(&z) {
            let (cos, sin) = exact_pair(u1, theta);
            for (got, want) in fast.iter().zip([cos, sin]) {
                let rel = if want == 0.0 {
                    got.abs()
                } else {
                    ((got - want) / want).abs()
                };
                assert!(!rel.is_nan(), "u1 {u1:e} theta {theta:e}");
                worst = worst.max(rel);
            }
        }
        worst
    }

    /// The kernel lies within 2^-48 of libm over random pairs, over angles
    /// within 4,096 ulps of every `kπ/2` in `[0, 2π]` (directly, and from
    /// `u2` next to 1/4, 1/2 and 3/4), and over `u1` next to 1 and to
    /// 2^-52, in both builds.
    #[test]
    fn certified_kernel_is_within_2_pow_48_of_libm() {
        const ULP: f64 = 1.0 / (1u64 << 53) as f64;
        let mut rng = SeededRng::new(0x5eed);
        let random: Vec<(f64, f64)> = (0..1 << 17).map(|_| rng.box_muller_uniforms()).collect();
        let mut angles: Vec<f64> = Vec::new();
        for j in 0..=4096u64 {
            angles.push(f64::from_bits(j));
            for k in 1..=4 {
                let base = (k as f64 * std::f64::consts::FRAC_PI_2).to_bits();
                angles.extend([f64::from_bits(base - j), f64::from_bits(base + j)]);
            }
            for quarter in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let u2 = [quarter - j as f64 * ULP, quarter + j as f64 * ULP];
                angles.extend(
                    u2.iter()
                        .filter(|u| (0.0..1.0).contains(*u))
                        .map(|u| 2.0 * PI * u),
                );
            }
        }
        let u1_edges: Vec<f64> = (1..=4096)
            .flat_map(|j| [1.0 - j as f64 * ULP, 2.0 * ULP + j as f64 * ULP])
            .collect();
        let cases: [(&str, Vec<f64>, Vec<f64>); 3] = [
            (
                "random",
                random.iter().map(|p| p.0).collect(),
                random.iter().map(|p| p.1).collect(),
            ),
            (
                "near kπ/2",
                angles.iter().map(|_| 0.3).collect(),
                angles.clone(),
            ),
            (
                "u1 edges",
                u1_edges.clone(),
                (0..u1_edges.len()).map(|i| random[i].1).collect(),
            ),
        ];
        for backend in BACKENDS {
            for (name, u1, theta) in &cases {
                let worst = kernel_error(backend, u1, theta);
                assert!(
                    worst <= 1.0 / (1u64 << 48) as f64,
                    "{backend:?} {name}: relative error {worst:e}"
                );
            }
        }
    }

    /// An output whose kernel value and libm value cast to different
    /// `f32`s comes out as libm's, in both fills. Random fills almost never
    /// meet one (a fallback is rare, and its kernel value is usually still
    /// right), so `std` is chosen to put an `f32` rounding midpoint between
    /// the two values of a pair's first normal where they differ. The
    /// heavy-tailed fill runs with `tail = 0`, so a tail uniform precedes
    /// each output's normal.
    #[test]
    fn certified_fallback_takes_libms_value() {
        let midpoint = 1.0 + 1.0 / (1u64 << 24) as f64;
        for backend in BACKENDS {
            for heavy in [false, true] {
                let mut draws = SeededRng::new(0xfa11);
                let crafted = (0..PAIRS).find_map(|j| {
                    if heavy {
                        draws.uniform();
                    }
                    let (u1, theta) = draws.box_muller_uniforms();
                    if heavy {
                        draws.uniform();
                    }
                    let mut z = [[0.0; 2]];
                    box_muller_with(backend, &[u1], &[theta], &mut z);
                    let (fast, libm) = (z[0][0], exact_pair(u1, theta).0);
                    let std = midpoint / (0.5 * (fast + libm));
                    let cast = |z: f64| ((0.0 + std * z) as f32).to_bits();
                    (cast(fast) != cast(libm)).then_some((j, std))
                });
                let (j, std) = crafted.expect("a pair whose kernel and libm values straddle");
                let (n, tail) = (2 * j + 2, heavy.then_some((0.0, 4)));
                let (mut got, mut want) = (Vec::new(), Vec::new());
                SeededRng::new(0xfa11).fill_f32_with(backend, &mut got, n, 0.0, std, tail);
                let mut oracle = SeededRng::new(0xfa11);
                if heavy {
                    heavy_tailed_oracle(&mut oracle, &mut want, n, 0.0, 4, std);
                } else {
                    gaussian_oracle(&mut oracle, &mut want, n, 0.0, std);
                }
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{backend:?} heavy {heavy}: pair {j}"
                );
            }
        }
    }

    /// Certification rarely falls back: an output fails only when it lies
    /// within 2^-40 of an `f32` rounding midpoint, about 1 in 2^15. A
    /// kernel that drifted from libm would still be exact, only slow;
    /// this catches it.
    #[test]
    fn certified_fallbacks_are_rare() {
        let mut rng = SeededRng::new(0xfa11);
        let pairs: Vec<(f64, f64)> = (0..1 << 18).map(|_| rng.box_muller_uniforms()).collect();
        let u1: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let theta: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        for backend in BACKENDS {
            let mut z = vec![[0.0; 2]; pairs.len()];
            box_muller_with(backend, &u1, &theta, &mut z);
            let fallbacks = z
                .as_flattened()
                .iter()
                .filter(|&&z| !certify(&[0.02 * z], 0.0, &mut [0.0]))
                .count();
            assert!(
                fallbacks < 64,
                "{backend:?}: {fallbacks} of {} outputs",
                2 * pairs.len()
            );
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(1);
        for _ in 0..100 {
            assert_eq!(a.standard_normal(), b.standard_normal());
        }
    }

    #[test]
    fn paired_sincos_matches_direct_formula() {
        // The fast path must reproduce the exact pre-sincos f64 sequence:
        // r*sin(theta) then r*cos(theta) computed with separate libm calls.
        let mut fast = SeededRng::new(0xb0c5);
        let mut src = SeededRng::new(0xb0c5);
        for _ in 0..10_000 {
            let u1 = loop {
                let u = src.uniform();
                if u > f64::EPSILON {
                    break u;
                }
            };
            let u2 = src.uniform();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            assert_eq!(
                fast.standard_normal().to_bits(),
                (r * theta.cos()).to_bits()
            );
            assert_eq!(
                fast.standard_normal().to_bits(),
                (r * theta.sin()).to_bits()
            );
        }
    }

    #[test]
    fn extend_gaussian_matches_per_call_sequence() {
        let mut bulk = SeededRng::new(99);
        let mut solo = SeededRng::new(99);
        let mut got = Vec::new();
        for n in [0usize, 1, 2, 5, 8, 3] {
            // A lone draw between bulk calls forces the cached spare to
            // cross the bulk-call boundary in both directions.
            got.push(bulk.gaussian(0.5, 2.0) as f32);
            bulk.extend_gaussian_f32(&mut got, n, 0.5, 2.0);
        }
        let want: Vec<f32> = (0..got.len())
            .map(|_| solo.gaussian(0.5, 2.0) as f32)
            .collect();
        let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got_bits, want_bits);
    }

    #[test]
    fn gaussian_moments_are_close() {
        let mut rng = SeededRng::new(2);
        let xs = rng.gaussian_vec(200_000, 1.5, 2.0);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 1.5).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn student_t_has_heavier_tails_than_normal() {
        let mut rng = SeededRng::new(4);
        let t: Vec<f64> = (0..50_000).map(|_| rng.student_t(3)).collect();
        let extreme_t = t.iter().filter(|x| x.abs() > 4.0).count() as f64 / t.len() as f64;
        let n: Vec<f64> = (0..50_000).map(|_| rng.standard_normal()).collect();
        let extreme_n = n.iter().filter(|x| x.abs() > 4.0).count() as f64 / n.len() as f64;
        assert!(extreme_t > extreme_n);
    }

    #[test]
    fn gaussian_i8_clamps() {
        let mut rng = SeededRng::new(5);
        for _ in 0..1000 {
            // Huge sigma forces saturation at the rails without UB.
            let v = rng.gaussian_i8(0.0, 1000.0);
            assert!((i8::MIN..=i8::MAX).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SeededRng::new(6);
        let mut v: Vec<u32> = (0..64).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(v, (0..64).collect::<Vec<_>>());
    }
}
