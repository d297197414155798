//! Wide-lane substrate for the packed kernels.
//!
//! BBS's pruning math is bit-plane mask arithmetic: full-adder ripples,
//! overflow muxes and popcount scoring over `u64` lane masks (one bit per
//! weight). Those kernels batch naturally four masks at a time — four
//! shift-search candidates, four 8-weight pack chunks — which is exactly a
//! 256-bit vector. This module provides that batching substrate:
//!
//! * [`Backend`] — which kernels run: the `scalar` oracle or the `wide`
//!   batched kernels,
//! * [`Lanes`] — a 4×`u64` vector trait the batched kernels are generic
//!   over, with a portable [`U64x4`] implementation and (on x86_64) an
//!   AVX2 [`Avx2`] implementation built on `std::arch` intrinsics.
//!
//! # Backend selection
//!
//! [`Backend::active`] is [`Backend::Wide`] unless `BBS_SIMD=scalar`
//! forces the scalar oracle; any other value, or none, means wide. The
//! wide kernels run the [`Avx2`] lanes when [`avx2`] detects the ISA and
//! the portable [`U64x4`] lanes otherwise (on aarch64 those compile to
//! NEON, a baseline target feature there).
//!
//! `scalar` is kept as the differential-testing oracle and for bisecting
//! miscompiles. Kernels that dispatch on the backend take it in private
//! `*_with(backend, ..)` forms, and their tests run the scalar oracle, the
//! portable instantiation and AVX2 (when detected) in one process instead
//! of relying on the process-wide environment override.
//!
//! # Bit-exactness
//!
//! Every batched kernel is required to be *bit-for-bit identical* to its
//! scalar oracle — the repro pipeline's golden outputs must not depend on
//! the host CPU. The wide kernels therefore only batch exact integer/mask
//! arithmetic; all floating-point kernels either stay scalar or use
//! provably-exact vector equivalents (IEEE divide, truncate, compares).

use std::sync::OnceLock;

/// Number of `u64` words in one [`Lanes`] vector.
pub const WORDS: usize = 4;

/// Which kernels run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The one-mask-at-a-time kernels: the differential oracle, selected
    /// only by `BBS_SIMD=scalar` or by a test.
    Scalar,
    /// The batched kernels: the [`Avx2`] lanes when [`avx2`] holds, else
    /// the portable [`U64x4`] lanes.
    Wide,
}

impl Backend {
    /// What `/stats`, `/metrics` and the startup log advertise:
    /// `"scalar"`, `"wide-avx2"` or `"wide-u64x4"`.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Wide if avx2() => "wide-avx2",
            Backend::Wide => "wide-u64x4",
        }
    }

    /// The backend a `BBS_SIMD` value selects.
    fn from_env(value: Option<&str>) -> Backend {
        if value == Some("scalar") {
            Backend::Scalar
        } else {
            Backend::Wide
        }
    }

    /// The process-wide backend: [`Backend::Scalar`] under
    /// `BBS_SIMD=scalar`, else [`Backend::Wide`]. Computed once.
    pub fn active() -> Backend {
        static ACTIVE: OnceLock<Backend> = OnceLock::new();
        *ACTIVE.get_or_init(|| Backend::from_env(std::env::var("BBS_SIMD").ok().as_deref()))
    }
}

/// Whether this host runs the [`Avx2`] lanes: AVX2 detected at runtime on
/// x86_64, never elsewhere. The one check every wide kernel dispatches on.
#[inline]
pub fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// A 4×`u64` bit-mask vector: the unit the wide kernels operate on.
///
/// Implementations must behave exactly like four independent `u64`s —
/// kernels generic over `Lanes` are verified bit-for-bit against the
/// scalar oracles, so any deviation is a test failure, not a tolerance.
pub trait Lanes: Copy {
    /// The all-zero vector.
    fn zero() -> Self;
    /// Broadcasts one mask to all four words.
    fn splat(x: u64) -> Self;
    /// Loads four masks.
    fn load(words: &[u64; WORDS]) -> Self;
    /// Stores the four masks.
    fn store(self) -> [u64; WORDS];
    /// Bitwise AND.
    fn and(self, o: Self) -> Self;
    /// Bitwise OR.
    fn or(self, o: Self) -> Self;
    /// Bitwise XOR.
    fn xor(self, o: Self) -> Self;
    /// `self & !o` (mask clear).
    fn andnot(self, o: Self) -> Self;
    /// Whether all four words are zero (ripple-carry early exit).
    fn is_zero(self) -> bool;
    /// Per-word shift right by a constant.
    fn shr(self, n: u32) -> Self;
    /// Per-word shift left by a constant.
    fn shl(self, n: u32) -> Self;
    /// Per-word popcounts (the scoring primitive).
    fn popcounts(self) -> [u32; WORDS];
}

/// Portable 4×-unrolled backend: plain `u64` arrays the compiler
/// auto-vectorizes for the target baseline (SSE2 on x86_64, NEON on
/// aarch64).
#[derive(Debug, Clone, Copy)]
pub struct U64x4(pub [u64; WORDS]);

impl Lanes for U64x4 {
    #[inline(always)]
    fn zero() -> Self {
        U64x4([0; WORDS])
    }
    #[inline(always)]
    fn splat(x: u64) -> Self {
        U64x4([x; WORDS])
    }
    #[inline(always)]
    fn load(words: &[u64; WORDS]) -> Self {
        U64x4(*words)
    }
    #[inline(always)]
    fn store(self) -> [u64; WORDS] {
        self.0
    }
    #[inline(always)]
    fn and(self, o: Self) -> Self {
        U64x4([
            self.0[0] & o.0[0],
            self.0[1] & o.0[1],
            self.0[2] & o.0[2],
            self.0[3] & o.0[3],
        ])
    }
    #[inline(always)]
    fn or(self, o: Self) -> Self {
        U64x4([
            self.0[0] | o.0[0],
            self.0[1] | o.0[1],
            self.0[2] | o.0[2],
            self.0[3] | o.0[3],
        ])
    }
    #[inline(always)]
    fn xor(self, o: Self) -> Self {
        U64x4([
            self.0[0] ^ o.0[0],
            self.0[1] ^ o.0[1],
            self.0[2] ^ o.0[2],
            self.0[3] ^ o.0[3],
        ])
    }
    #[inline(always)]
    fn andnot(self, o: Self) -> Self {
        U64x4([
            self.0[0] & !o.0[0],
            self.0[1] & !o.0[1],
            self.0[2] & !o.0[2],
            self.0[3] & !o.0[3],
        ])
    }
    #[inline(always)]
    fn is_zero(self) -> bool {
        (self.0[0] | self.0[1] | self.0[2] | self.0[3]) == 0
    }
    #[inline(always)]
    fn shr(self, n: u32) -> Self {
        U64x4([
            self.0[0] >> n,
            self.0[1] >> n,
            self.0[2] >> n,
            self.0[3] >> n,
        ])
    }
    #[inline(always)]
    fn shl(self, n: u32) -> Self {
        U64x4([
            self.0[0] << n,
            self.0[1] << n,
            self.0[2] << n,
            self.0[3] << n,
        ])
    }
    #[inline(always)]
    fn popcounts(self) -> [u32; WORDS] {
        [
            self.0[0].count_ones(),
            self.0[1].count_ones(),
            self.0[2].count_ones(),
            self.0[3].count_ones(),
        ]
    }
}

/// AVX2 backend: one `__m256i` per vector, nibble-LUT popcounts.
///
/// Safety: constructing and using this type executes AVX2 instructions.
/// It must only be reached through a dispatch path that has checked
/// [`avx2`].
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub struct Avx2(core::arch::x86_64::__m256i);

#[cfg(target_arch = "x86_64")]
impl Lanes for Avx2 {
    #[inline(always)]
    fn zero() -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx2(_mm256_setzero_si256()) }
    }
    #[inline(always)]
    fn splat(x: u64) -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx2(_mm256_set1_epi64x(x as i64)) }
    }
    #[inline(always)]
    fn load(words: &[u64; WORDS]) -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx2(_mm256_loadu_si256(words.as_ptr() as *const __m256i)) }
    }
    #[inline(always)]
    fn store(self) -> [u64; WORDS] {
        use core::arch::x86_64::*;
        let mut out = [0u64; WORDS];
        unsafe { _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, self.0) };
        out
    }
    #[inline(always)]
    fn and(self, o: Self) -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx2(_mm256_and_si256(self.0, o.0)) }
    }
    #[inline(always)]
    fn or(self, o: Self) -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx2(_mm256_or_si256(self.0, o.0)) }
    }
    #[inline(always)]
    fn xor(self, o: Self) -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx2(_mm256_xor_si256(self.0, o.0)) }
    }
    #[inline(always)]
    fn andnot(self, o: Self) -> Self {
        use core::arch::x86_64::*;
        // vpandn computes `!first & second`.
        unsafe { Avx2(_mm256_andnot_si256(o.0, self.0)) }
    }
    #[inline(always)]
    fn is_zero(self) -> bool {
        use core::arch::x86_64::*;
        unsafe { _mm256_testz_si256(self.0, self.0) != 0 }
    }
    #[inline(always)]
    fn shr(self, n: u32) -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx2(_mm256_srl_epi64(self.0, _mm_cvtsi64_si128(n as i64))) }
    }
    #[inline(always)]
    fn shl(self, n: u32) -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx2(_mm256_sll_epi64(self.0, _mm_cvtsi64_si128(n as i64))) }
    }
    #[inline(always)]
    fn popcounts(self) -> [u32; WORDS] {
        use core::arch::x86_64::*;
        // Nibble-LUT popcount (Muła): per-byte counts via two vpshufb
        // lookups, then vpsadbw folds each 64-bit lane's bytes.
        unsafe {
            #[allow(clippy::cast_possible_wrap)]
            let lut = _mm256_setr_epi8(
                0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3,
                2, 3, 3, 4,
            );
            let low_mask = _mm256_set1_epi8(0x0f);
            let lo = _mm256_and_si256(self.0, low_mask);
            let hi = _mm256_and_si256(_mm256_srli_epi64(self.0, 4), low_mask);
            let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
            let sums = _mm256_sad_epu8(cnt, _mm256_setzero_si256());
            let mut out = [0u64; WORDS];
            _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, sums);
            [out[0] as u32, out[1] as u32, out[2] as u32, out[3] as u32]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_words() -> Vec<[u64; WORDS]> {
        let mut v = vec![
            [0, 0, 0, 0],
            [u64::MAX; WORDS],
            [1, 2, 4, 8],
            [0x8000_0000_0000_0000, 1, u64::MAX, 0],
            [
                0xdead_beef_cafe_f00d,
                0x0123_4567_89ab_cdef,
                0xaaaa_aaaa_aaaa_aaaa,
                0x5555_5555_5555_5555,
            ],
        ];
        // A deterministic pseudo-random tail.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..32 {
            let mut w = [0u64; WORDS];
            for word in w.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *word = x;
            }
            v.push(w);
        }
        v
    }

    fn check_backend_ops<L: Lanes>() {
        for a in probe_words() {
            for b in probe_words() {
                let va = L::load(&a);
                let vb = L::load(&b);
                let expect = |f: fn(u64, u64) -> u64| {
                    [f(a[0], b[0]), f(a[1], b[1]), f(a[2], b[2]), f(a[3], b[3])]
                };
                assert_eq!(va.and(vb).store(), expect(|x, y| x & y));
                assert_eq!(va.or(vb).store(), expect(|x, y| x | y));
                assert_eq!(va.xor(vb).store(), expect(|x, y| x ^ y));
                assert_eq!(va.andnot(vb).store(), expect(|x, y| x & !y));
            }
            let va = L::load(&a);
            assert_eq!(va.store(), a);
            assert_eq!(va.is_zero(), a.iter().all(|&x| x == 0));
            assert_eq!(
                va.popcounts(),
                [
                    a[0].count_ones(),
                    a[1].count_ones(),
                    a[2].count_ones(),
                    a[3].count_ones()
                ]
            );
            for n in [0u32, 1, 7, 13, 31, 63] {
                assert_eq!(va.shr(n).store(), a.map(|x| x >> n));
                assert_eq!(va.shl(n).store(), a.map(|x| x << n));
            }
        }
        assert!(L::zero().is_zero());
        assert_eq!(L::splat(0xff).store(), [0xff; WORDS]);
    }

    #[test]
    fn u64x4_ops_match_scalar() {
        check_backend_ops::<U64x4>();
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_ops_match_scalar() {
        if avx2() {
            check_backend_ops::<Avx2>();
        }
    }

    #[test]
    fn only_scalar_selects_the_oracle() {
        assert_eq!(Backend::from_env(Some("scalar")), Backend::Scalar);
        for other in [
            None,
            Some(""),
            Some("wide"),
            Some("u64x4"),
            Some("native"),
            Some("auto"),
        ] {
            assert_eq!(Backend::from_env(other), Backend::Wide, "{other:?}");
        }
    }
}
