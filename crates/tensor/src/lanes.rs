//! Wide-lane substrate for the packed kernels.
//!
//! Two vector views of one 256-bit register serve BBS's pruning kernels:
//!
//! * [`Lanes`] — a 4×`u64` bit-mask vector: shift/xor/and transposes and
//!   popcount scoring over `u64` lane masks (one bit per weight), four
//!   8-weight pack chunks or four bit planes at a time,
//! * [`ByteLanes`] — a 32×`i8` vector holding one 32-weight group as
//!   bytes: the saturating adds, rounding masks and squared-error sums of
//!   the zero-point shift search, one candidate constant per pass.
//!
//! Each has a portable implementation ([`U64x4`], [`I8x32`]) and, on
//! x86_64, an AVX2 one ([`Avx2`], which implements both) built on
//! `std::arch` intrinsics. [`Backend`] says which build of each kernel
//! runs: the portable one or the widest one the host supports.
//!
//! # Backend selection
//!
//! Each kernel has two builds: the AVX2 build (its source instantiated
//! over [`Avx2`] or compiled under `#[target_feature(enable = "avx2")]`;
//! quantization and absmax have hand-written AVX2 bodies) and the portable
//! build (the same source over [`U64x4`] or [`I8x32`], or the plain loop).
//! A kernel runs the AVX2 build when it is handed [`Backend::Wide`] and
//! [`avx2`] holds, and the portable build otherwise (on aarch64 the
//! portable lanes compile to NEON, a baseline target feature there).
//!
//! [`Backend::active`] is [`Backend::Wide`] unless `BBS_SIMD=scalar`
//! forces the portable build; any other value, or none, means wide. The
//! override lets an AVX2 host run the portable build end to end, e.g. to
//! re-check the golden transcript or to bisect a miscompile. Kernels take
//! the backend in private `*_with(backend, ..)` forms, and their tests run
//! both builds in one process instead of relying on the environment.
//!
//! # Bit-exactness
//!
//! Both builds of every kernel are required to be *bit-for-bit identical*
//! to each other and to the reference code in the kernels' tests — the
//! repro pipeline's golden outputs must not depend on the host CPU. The
//! wide kernels therefore batch only three kinds of arithmetic:
//!
//! * exact integer/mask arithmetic;
//! * provably exact vector float equivalents (IEEE divide, truncate,
//!   compares), or float kernels that stay scalar;
//! * certified approximations with an exact fallback: the Box-Muller
//!   kernel behind [`crate::rng::SeededRng`]'s `f32` fills evaluates `ln`,
//!   `sin` and `cos` approximately, keeps an output only when every value
//!   within a stated error bound of it casts to the same `f32`, and
//!   recomputes any other output through libm. Its two builds may differ
//!   in the last bits of an `f64`; no output that leaves the kernel does.
//!   Its tests check the bound itself, apart from the kernel, since the
//!   cast hides most kernel errors from a random-sample comparison.

use std::sync::OnceLock;

/// Number of `u64` words in one [`Lanes`] vector.
pub const WORDS: usize = 4;
/// Number of `i8` lanes in one [`ByteLanes`] vector.
pub const BYTES: usize = 32;

/// Which build of each kernel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The portable build on every host: each kernel's source without
    /// `#[target_feature]` (over the [`U64x4`] or [`I8x32`] lanes).
    /// Selected only by `BBS_SIMD=scalar` or by a test.
    Scalar,
    /// The AVX2 build when [`avx2`] holds, else the same portable build.
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
/// per-weight oracles, so any deviation is a test failure, not a tolerance.
pub trait Lanes: Copy {
    /// Broadcasts one mask to all four words.
    fn splat(x: u64) -> Self;
    /// Loads four masks.
    fn load(words: &[u64; WORDS]) -> Self;
    /// Stores the four masks.
    fn store(self) -> [u64; WORDS];
    /// Bitwise AND.
    fn and(self, o: Self) -> Self;
    /// Bitwise XOR.
    fn xor(self, o: Self) -> Self;
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
    fn xor(self, o: Self) -> Self {
        U64x4([
            self.0[0] ^ o.0[0],
            self.0[1] ^ o.0[1],
            self.0[2] ^ o.0[2],
            self.0[3] ^ o.0[3],
        ])
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

/// AVX2 backend: one `__m256i` per vector, read as four `u64` masks
/// ([`Lanes`], nibble-LUT popcounts) or as 32 bytes ([`ByteLanes`]).
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
    fn xor(self, o: Self) -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx2(_mm256_xor_si256(self.0, o.0)) }
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

/// A 32×`i8` vector: one 32-weight group held as bytes.
///
/// Implementations must behave exactly like 32 independent `i8`s, with
/// the stated wrapping or saturating semantics — kernels generic over
/// `ByteLanes` are verified bit-for-bit against the per-weight oracles.
pub trait ByteLanes: Copy {
    /// Broadcasts one byte to all 32 lanes.
    fn splat(x: i8) -> Self;
    /// Loads 32 lanes.
    fn load(bytes: &[i8; BYTES]) -> Self;
    /// Lane-wise wrapping add.
    fn add(self, o: Self) -> Self;
    /// Lane-wise wrapping subtract.
    fn sub(self, o: Self) -> Self;
    /// Lane-wise saturating add (the INT8 clip of a sum).
    fn adds(self, o: Self) -> Self;
    /// Bitwise AND.
    fn and(self, o: Self) -> Self;
    /// Lane-wise signed minimum.
    fn min(self, o: Self) -> Self;
    /// Lane-wise `|x|`, read as an unsigned byte (`|-128|` = 128).
    fn abs(self) -> Self;
    /// All ones in negative lanes, zero elsewhere.
    fn negative(self) -> Self;
    /// The eight bit planes: bit `i` of plane `b` is bit `b` of lane `i`.
    fn bit_planes(self) -> [u32; 8];
    /// `Σ x²` over each vector's lanes read as unsigned bytes: eight
    /// squared-error sums from one reduction.
    fn square_sums(rows: &[Self; 8]) -> [u32; 8];
}

/// Portable byte lanes: a plain `[i8; 32]` the compiler vectorizes for
/// the target baseline.
#[derive(Debug, Clone, Copy)]
pub struct I8x32(pub [i8; BYTES]);

impl I8x32 {
    #[inline(always)]
    fn zip(self, o: Self, f: impl Fn(i8, i8) -> i8) -> Self {
        I8x32(core::array::from_fn(|i| f(self.0[i], o.0[i])))
    }
}

impl ByteLanes for I8x32 {
    #[inline(always)]
    fn splat(x: i8) -> Self {
        I8x32([x; BYTES])
    }
    #[inline(always)]
    fn load(bytes: &[i8; BYTES]) -> Self {
        I8x32(*bytes)
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self.zip(o, i8::wrapping_add)
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self.zip(o, i8::wrapping_sub)
    }
    #[inline(always)]
    fn adds(self, o: Self) -> Self {
        self.zip(o, i8::saturating_add)
    }
    #[inline(always)]
    fn and(self, o: Self) -> Self {
        self.zip(o, |x, y| x & y)
    }
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        self.zip(o, i8::min)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        self.zip(self, |x, _| x.unsigned_abs() as i8)
    }
    #[inline(always)]
    fn negative(self) -> Self {
        self.zip(self, |x, _| x >> 7)
    }
    #[inline(always)]
    fn bit_planes(self) -> [u32; 8] {
        core::array::from_fn(|b| {
            (0..BYTES).fold(0, |acc, i| acc | (((self.0[i] as u8 >> b) & 1) as u32) << i)
        })
    }
    #[inline(always)]
    fn square_sums(rows: &[Self; 8]) -> [u32; 8] {
        rows.map(|r| r.0.iter().map(|&x| (x as u8 as u32).pow(2)).sum())
    }
}

#[cfg(target_arch = "x86_64")]
impl ByteLanes for Avx2 {
    #[inline(always)]
    fn splat(x: i8) -> Self {
        use core::arch::x86_64::*;
        // SAFETY (every block of this impl): `Avx2` is only reached after
        // an `avx2()` check; the load reads exactly the 32 bytes it is given.
        unsafe { Avx2(_mm256_set1_epi8(x)) }
    }
    #[inline(always)]
    fn load(bytes: &[i8; BYTES]) -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx2(_mm256_loadu_si256(bytes.as_ptr() as *const __m256i)) }
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx2(_mm256_add_epi8(self.0, o.0)) }
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx2(_mm256_sub_epi8(self.0, o.0)) }
    }
    #[inline(always)]
    fn adds(self, o: Self) -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx2(_mm256_adds_epi8(self.0, o.0)) }
    }
    #[inline(always)]
    fn and(self, o: Self) -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx2(_mm256_and_si256(self.0, o.0)) }
    }
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx2(_mm256_min_epi8(self.0, o.0)) }
    }
    #[inline(always)]
    fn abs(self) -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx2(_mm256_abs_epi8(self.0)) }
    }
    #[inline(always)]
    fn negative(self) -> Self {
        use core::arch::x86_64::*;
        unsafe { Avx2(_mm256_cmpgt_epi8(_mm256_setzero_si256(), self.0)) }
    }
    #[inline(always)]
    fn bit_planes(self) -> [u32; 8] {
        use core::arch::x86_64::*;
        // vpmovmskb reads each lane's top bit; doubling moves the next
        // plane up.
        let mut planes = [0u32; 8];
        let mut x = self.0;
        for plane in planes.iter_mut().rev() {
            unsafe {
                *plane = _mm256_movemask_epi8(x) as u32;
                x = _mm256_add_epi8(x, x);
            }
        }
        planes
    }
    #[inline(always)]
    fn square_sums(rows: &[Self; 8]) -> [u32; 8] {
        use core::arch::x86_64::*;
        // Loops, not closures: a closure would not inherit the caller's
        // AVX2 feature, so its intrinsics could not inline.
        unsafe {
            // Zero-extend to i16 and `madd`: 8 i32 partial sums per row.
            let z = _mm256_setzero_si256();
            let mut s = [z; 8];
            for (s, r) in s.iter_mut().zip(rows) {
                let (lo, hi) = (_mm256_unpacklo_epi8(r.0, z), _mm256_unpackhi_epi8(r.0, z));
                *s = _mm256_add_epi32(_mm256_madd_epi16(lo, lo), _mm256_madd_epi16(hi, hi));
            }
            // Three hadd levels leave rows 0..3 and 4..7 per 128-bit half;
            // adding the halves finishes all eight sums.
            let (a0, a1) = (_mm256_hadd_epi32(s[0], s[1]), _mm256_hadd_epi32(s[2], s[3]));
            let (a2, a3) = (_mm256_hadd_epi32(s[4], s[5]), _mm256_hadd_epi32(s[6], s[7]));
            let (b0, b1) = (_mm256_hadd_epi32(a0, a1), _mm256_hadd_epi32(a2, a3));
            let sums = _mm256_add_epi32(
                _mm256_permute2x128_si256(b0, b1, 0x20),
                _mm256_permute2x128_si256(b0, b1, 0x31),
            );
            let mut out = [0u32; 8];
            _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, sums);
            out
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
                assert_eq!(va.xor(vb).store(), expect(|x, y| x ^ y));
            }
            let va = L::load(&a);
            assert_eq!(va.store(), a);
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
        assert_eq!(L::splat(0xff).store(), [0xff; WORDS]);
    }

    /// The lanes of `v`, read back through its bit planes.
    fn lanes_of<B: ByteLanes>(v: B) -> [i8; BYTES] {
        let p = v.bit_planes();
        core::array::from_fn(|i| {
            (0..8).fold(0u8, |acc, b| acc | ((p[b] >> i) as u8 & 1) << b) as i8
        })
    }

    /// Every byte op on every `(x, y)` pair of `i8`s, and the squared sums
    /// up to all-255 rows.
    fn check_byte_ops<B: ByteLanes>() {
        for x in i8::MIN..=i8::MAX {
            for chunk in 0..256 / BYTES {
                let ys: [i8; BYTES] = core::array::from_fn(|i| (chunk * BYTES + i) as u8 as i8);
                let (vx, vy) = (B::splat(x), B::load(&ys));
                let expect = |f: fn(i8, i8) -> i8| ys.map(|y| f(x, y));
                assert_eq!(lanes_of(vy), ys);
                assert_eq!(lanes_of(vx.add(vy)), expect(i8::wrapping_add));
                assert_eq!(lanes_of(vx.sub(vy)), expect(i8::wrapping_sub));
                assert_eq!(lanes_of(vx.adds(vy)), expect(i8::saturating_add));
                assert_eq!(lanes_of(vx.and(vy)), expect(|x, y| x & y));
                assert_eq!(lanes_of(vx.min(vy)), expect(i8::min));
                assert_eq!(lanes_of(vy.abs()), ys.map(|y| y.unsigned_abs() as i8));
                assert_eq!(
                    lanes_of(vy.negative()),
                    ys.map(|y| if y < 0 { -1 } else { 0 })
                );
            }
        }
        let rows: [[i8; BYTES]; 8] =
            core::array::from_fn(|k| core::array::from_fn(|i| (k * 37 + i * i * 11) as u8 as i8));
        let mut rows = rows.to_vec();
        rows[3] = [-1; BYTES];
        let rows: [[i8; BYTES]; 8] = rows.try_into().expect("eight rows");
        let sums = B::square_sums(&rows.map(|r| B::load(&r)));
        assert_eq!(
            sums,
            rows.map(|r| r.iter().map(|&x| (x as u8 as u32).pow(2)).sum::<u32>())
        );
        assert_eq!(sums[3], 32 * 255 * 255);
    }

    #[test]
    fn u64x4_ops_match_scalar() {
        check_backend_ops::<U64x4>();
        check_byte_ops::<I8x32>();
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_ops_match_scalar() {
        if avx2() {
            check_backend_ops::<Avx2>();
            check_byte_ops::<Avx2>();
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
