//! Seeded random sampling used to synthesize DNN weights and activations.
//!
//! Every experiment in the reproduction is deterministic: all randomness
//! flows through [`SeededRng`] instances constructed from explicit seeds.
//! The samplers are implemented from first principles on top of `rand`'s
//! uniform source so no external distribution crate is needed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

    /// Standard normal sample via Box-Muller.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Box-Muller transform: two uniforms -> two independent normals.
        let u1 = loop {
            let u = self.uniform();
            if u > f64::EPSILON {
                break u;
            }
        };
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        let (sin, cos) = sin_cos_exact(theta);
        self.spare = Some(r * sin);
        r * cos
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

    /// Laplace sample (double exponential) with location `mu`, scale `b`.
    pub fn laplace(&mut self, mu: f64, b: f64) -> f64 {
        // Inverse CDF sampling.
        let u = self.uniform() - 0.5;
        mu - b * u.signum() * (1.0 - 2.0 * u.abs()).ln()
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
        let chi2: f64 = (0..df).map(|_| self.standard_normal().powi(2)).sum();
        z / (chi2 / df as f64).sqrt()
    }

    /// Appends `n` Gaussian `f32` samples, consuming the generator state
    /// exactly as `n` successive [`SeededRng::gaussian`] calls would (the
    /// cached spare is drained first and an odd trailing sample re-arms it),
    /// but with the per-call dispatch hoisted out of the hot loop.
    pub fn extend_gaussian_f32(&mut self, out: &mut Vec<f32>, n: usize, mean: f64, std: f64) {
        out.reserve(n);
        let mut rem = n;
        if rem > 0 {
            if let Some(z) = self.spare.take() {
                out.push((mean + std * z) as f32);
                rem -= 1;
            }
        }
        while rem > 0 {
            let u1 = loop {
                let u = self.uniform();
                if u > f64::EPSILON {
                    break u;
                }
            };
            let u2 = self.uniform();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            let (sin, cos) = sin_cos_exact(theta);
            out.push((mean + std * (r * cos)) as f32);
            rem -= 1;
            if rem > 0 {
                out.push((mean + std * (r * sin)) as f32);
                rem -= 1;
            } else {
                self.spare = Some(r * sin);
            }
        }
    }

    /// Fills a vector with Gaussian samples.
    pub fn gaussian_vec(&mut self, n: usize, mean: f64, std: f64) -> Vec<f64> {
        (0..n).map(|_| self.gaussian(mean, std)).collect()
    }

    /// Fills a vector with Gaussian f32 samples.
    pub fn gaussian_vec_f32(&mut self, n: usize, mean: f32, std: f32) -> Vec<f32> {
        (0..n)
            .map(|_| self.gaussian(mean as f64, std as f64) as f32)
            .collect()
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
    fn laplace_is_symmetric_heavyish() {
        let mut rng = SeededRng::new(3);
        let xs: Vec<f64> = (0..100_000).map(|_| rng.laplace(0.0, 1.0)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        // Laplace(0,1) variance = 2.
        let var = xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64;
        assert!((var - 2.0).abs() < 0.1, "var {var}");
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
