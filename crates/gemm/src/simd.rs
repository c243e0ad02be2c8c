//! One SIMD vocabulary for every kernel: the [`Vector`] trait, its three
//! tiers — portable, AVX2+FMA (8 lanes) and AVX-512F+FMA (16 lanes) — and
//! [`on_tier`], the one dispatch from a [`SimdLevel`] to a tier.
//!
//! A kernel is written once, as a [`Nest`]: a loop nest generic over the
//! vector type. [`on_tier`] runs it inside a function compiled with the
//! tier's target features, so the trait's `#[inline(always)]` methods
//! become that tier's instructions. The GEMM micro-kernel, the
//! fully-connected kernels, the sparse backward and the tiled stencil are
//! all nests; this is the only module of the workspace that names
//! `std::arch` (`spg-lint` enforces it).
//!
//! Every operation computes, lane by lane, the bits the portable tier
//! computes: IEEE single-precision arithmetic, fused where the name says
//! so ([`Vector::fma`], one rounding, `f32::mul_add` on the portable tier)
//! and rounded twice where it says so ([`Vector::mul_then_add`]). So a
//! nest gives the same bits on every tier as long as it assigns each
//! output element the same chain of operations at every lane width.

/// Instruction-set tiers the kernels dispatch across, in increasing f32
/// vector width.
///
/// Detection lives here so every kernel crate agrees on what the host
/// offers; the ordering lets callers write `level >= Avx2Fma`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SimdLevel {
    /// No usable SIMD: the portable tier runs.
    Scalar,
    /// AVX2 + FMA: 8-lane f32 vectors.
    Avx2Fma,
    /// AVX-512F + FMA: 16-lane f32 vectors (on every shipping part this
    /// implies AVX2+FMA, and detection requires both).
    Avx512Fma,
}

impl SimdLevel {
    /// f32 lanes per vector of this level's tier: 16 on AVX-512F, 8 on
    /// AVX2 and on the portable tier.
    pub const fn lanes(self) -> usize {
        match self {
            SimdLevel::Avx512Fma => 16,
            SimdLevel::Scalar | SimdLevel::Avx2Fma => 8,
        }
    }

    /// Short machine-readable name: `"scalar"`, `"avx2"` or `"avx512"`.
    pub fn id(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2Fma => "avx2",
            SimdLevel::Avx512Fma => "avx512",
        }
    }
}

/// Detects the widest [`SimdLevel`] the running CPU supports.
///
/// # Example
///
/// ```
/// use spg_gemm::SimdLevel;
/// let level = spg_gemm::detect_simd_level();
/// assert!(level >= SimdLevel::Scalar);
/// ```
pub fn detect_simd_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
        {
            return SimdLevel::Avx512Fma;
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return SimdLevel::Avx2Fma;
        }
    }
    SimdLevel::Scalar
}

/// One tier's f32 vector: the operations every kernel is spelled in.
///
/// Every method is `unsafe` for one shared reason: the running CPU must
/// have the tier's target features, which [`on_tier`] guarantees to the
/// nests it runs. The pointer methods add the lanes they touch.
pub trait Vector: Copy {
    /// The level whose tier this is.
    const LEVEL: SimdLevel;
    /// f32 lanes per vector.
    const LANES: usize = Self::LEVEL.lanes();
    /// Selects a vector's first lanes.
    type Mask: Copy;

    /// The mask of the first `n` lanes, `1 <= n <= LANES`.
    ///
    /// # Safety
    ///
    /// The running CPU has the tier's target features.
    unsafe fn first(n: usize) -> Self::Mask;

    /// Every lane `+0.0`.
    ///
    /// # Safety
    ///
    /// As [`Vector::first`].
    unsafe fn zero() -> Self;

    /// Every lane `x`.
    ///
    /// # Safety
    ///
    /// As [`Vector::first`].
    unsafe fn splat(x: f32) -> Self;

    /// The `LANES` floats at `p`.
    ///
    /// # Safety
    ///
    /// As [`Vector::first`], and `LANES` floats at `p` are readable.
    unsafe fn load(p: *const f32) -> Self;

    /// The lanes of `m` from `p`; the other lanes read as `+0.0`, and the
    /// memory behind them is not touched.
    ///
    /// # Safety
    ///
    /// As [`Vector::first`], and the lanes of `m` at `p` are readable.
    unsafe fn load_masked(p: *const f32, m: Self::Mask) -> Self;

    /// Writes the `LANES` floats at `p`.
    ///
    /// # Safety
    ///
    /// As [`Vector::first`], and `LANES` floats at `p` are writable.
    unsafe fn store(self, p: *mut f32);

    /// Writes the lanes of `m` to `p`, and nothing else.
    ///
    /// # Safety
    ///
    /// As [`Vector::first`], and the lanes of `m` at `p` are writable.
    unsafe fn store_masked(self, p: *mut f32, m: Self::Mask);

    /// `self + v`.
    ///
    /// # Safety
    ///
    /// As [`Vector::first`].
    unsafe fn add(self, v: Self) -> Self;

    /// `self + v * x`, rounded after the multiply and again after the add.
    ///
    /// # Safety
    ///
    /// As [`Vector::first`].
    unsafe fn mul_then_add(self, v: Self, x: Self) -> Self;

    /// `self + v * x`, rounded once (a fused multiply-add).
    ///
    /// # Safety
    ///
    /// As [`Vector::first`].
    unsafe fn fma(self, v: Self, x: Self) -> Self;

    /// The sum of the lanes by a halving tree: lane `l` takes in lane
    /// `l + LANES / 2`, then `l + LANES / 4`, ... `l + 1`; returns lane 0.
    ///
    /// # Safety
    ///
    /// As [`Vector::first`].
    unsafe fn halving_sum(self) -> f32;

    /// Transposes the `LANES x LANES` block `rows`: lane `l` of `rows[p]`
    /// moves to lane `p` of `rows[l]`. `L` is `LANES` (checked when the
    /// call is compiled).
    ///
    /// # Safety
    ///
    /// As [`Vector::first`].
    unsafe fn transpose<const L: usize>(rows: &mut [Self; L]);
}

/// A loop nest written once over [`Vector`], run by [`on_tier`].
///
/// Mark `run` — and every function of the nest that uses a vector —
/// `#[inline(always)]`: the nest then compiles inside `on_tier`'s
/// target-feature function, and the vector methods become single
/// instructions. A `run` left out of line is compiled without the tier's
/// features, and every vector method in it becomes a call.
pub trait Nest {
    /// What the nest returns.
    type Out;

    /// Runs the nest over `V`. `L` is `V::LANES` again, as a const
    /// parameter that can size an array: `const { assert!(L == V::LANES) }`
    /// holds in every call [`on_tier`] makes.
    ///
    /// # Safety
    ///
    /// The running CPU has `V`'s target features and `L == V::LANES`.
    unsafe fn run<V: Vector, const L: usize>(self) -> Self::Out;
}

/// Runs `nest` on the tier of `level`, or of the host's level when that is
/// narrower — the one place a level becomes a vector type.
pub fn on_tier<N: Nest>(level: SimdLevel, nest: N) -> N::Out {
    match level.min(detect_simd_level()) {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512Fma => {
            // SAFETY: the running CPU reports AVX-512F, AVX2 and FMA.
            unsafe { x86::avx512(nest) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => {
            // SAFETY: the running CPU reports AVX2 and FMA.
            unsafe { x86::avx2(nest) }
        }
        // SAFETY: the portable tier needs no target feature; L is its
        // lane count.
        _ => unsafe { nest.run::<Portable, { Portable::LANES }>() },
    }
}

/// The portable tier: eight lanes of plain arithmetic, the bits every
/// other tier reproduces.
#[derive(Clone, Copy, Debug)]
struct Portable([f32; 8]);

/// # Safety
///
/// Every method's contract is the trait's; plain arithmetic needs no
/// target feature, so only the pointer methods' lanes matter.
impl Vector for Portable {
    const LEVEL: SimdLevel = SimdLevel::Scalar;
    type Mask = usize;

    #[inline(always)]
    unsafe fn first(n: usize) -> usize {
        n
    }

    #[inline(always)]
    unsafe fn zero() -> Self {
        Portable([0.0; 8])
    }

    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        Portable([x; 8])
    }

    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        // SAFETY: the caller guarantees 8 readable floats at `p`.
        unsafe { Self::load_masked(p, 8) }
    }

    #[inline(always)]
    unsafe fn load_masked(p: *const f32, n: usize) -> Self {
        let mut v = [0.0; 8];
        for (i, lane) in v.iter_mut().enumerate().take(n) {
            // SAFETY: lane i < n is readable (the caller's contract).
            *lane = unsafe { *p.add(i) };
        }
        Portable(v)
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        // SAFETY: the caller guarantees 8 writable floats at `p`.
        unsafe { self.store_masked(p, 8) }
    }

    #[inline(always)]
    unsafe fn store_masked(self, p: *mut f32, n: usize) {
        for (i, &lane) in self.0.iter().enumerate().take(n) {
            // SAFETY: lane i < n is writable (the caller's contract).
            unsafe { *p.add(i) = lane };
        }
    }

    #[inline(always)]
    unsafe fn add(self, v: Self) -> Self {
        Portable(std::array::from_fn(|l| self.0[l] + v.0[l]))
    }

    #[inline(always)]
    unsafe fn mul_then_add(self, v: Self, x: Self) -> Self {
        Portable(std::array::from_fn(|l| self.0[l] + v.0[l] * x.0[l]))
    }

    #[inline(always)]
    unsafe fn fma(self, v: Self, x: Self) -> Self {
        Portable(std::array::from_fn(|l| v.0[l].mul_add(x.0[l], self.0[l])))
    }

    #[inline(always)]
    unsafe fn halving_sum(self) -> f32 {
        let mut a = self.0;
        let mut width = 4;
        while width > 0 {
            for l in 0..width {
                a[l] += a[l + width];
            }
            width /= 2;
        }
        a[0]
    }

    /// # Safety
    ///
    /// None beyond the trait's: plain indexing.
    #[inline(always)]
    unsafe fn transpose<const L: usize>(rows: &mut [Self; L]) {
        const { assert!(L == Self::LANES) };
        let r = *rows;
        for (l, row) in rows.iter_mut().enumerate() {
            row.0 = std::array::from_fn(|p| r[p].0[l]);
        }
    }
}

/// The x86-64 tiers and the target-feature functions [`on_tier`] runs a
/// nest in.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use super::{Nest, SimdLevel, Vector};

    /// The AVX2 tier: 8 lanes, tail masks in a vector register.
    #[derive(Clone, Copy)]
    struct Avx2(__m256);

    /// `-1` for lanes below a count, read at offset `8 - n`.
    static AVX2_MASKS: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    /// Lanes 0-3 of `v` plus lanes 4-7 (the halving tree's width-4
    /// step), then widths 2 and 1; returns lane 0.
    ///
    /// # Safety
    ///
    /// The running CPU has AVX.
    #[inline(always)]
    unsafe fn halving_sum_8(v: __m256) -> f32 {
        // SAFETY: the caller's contract.
        unsafe {
            let v4 = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
            let v2 = _mm_add_ps(v4, _mm_movehl_ps(v4, v4));
            _mm_cvtss_f32(_mm_add_ss(v2, _mm_shuffle_ps::<0b01>(v2, v2)))
        }
    }

    /// # Safety
    ///
    /// Every method's contract is the trait's: the CPU has AVX2 and FMA,
    /// and the pointer methods' lanes are readable or writable.
    impl Vector for Avx2 {
        const LEVEL: SimdLevel = SimdLevel::Avx2Fma;
        type Mask = __m256i;

        #[inline(always)]
        unsafe fn first(n: usize) -> __m256i {
            // SAFETY: 1 <= n <= 8, so the 8 ints at 8 - n are inside the
            // table; the CPU has AVX (the caller's contract).
            unsafe { _mm256_loadu_si256(AVX2_MASKS.as_ptr().add(8 - n).cast()) }
        }

        #[inline(always)]
        unsafe fn zero() -> Self {
            // SAFETY: the CPU has AVX (the caller's contract).
            unsafe { Avx2(_mm256_setzero_ps()) }
        }

        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            // SAFETY: the CPU has AVX (the caller's contract).
            unsafe { Avx2(_mm256_set1_ps(x)) }
        }

        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            // SAFETY: 8 readable floats at `p` (the caller's contract).
            unsafe { Avx2(_mm256_loadu_ps(p)) }
        }

        #[inline(always)]
        unsafe fn load_masked(p: *const f32, m: __m256i) -> Self {
            // SAFETY: the lanes of `m` are readable; masked-off lanes are
            // not accessed.
            unsafe { Avx2(_mm256_maskload_ps(p, m)) }
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            // SAFETY: 8 writable floats at `p` (the caller's contract).
            unsafe { _mm256_storeu_ps(p, self.0) }
        }

        #[inline(always)]
        unsafe fn store_masked(self, p: *mut f32, m: __m256i) {
            // SAFETY: the lanes of `m` are writable; masked-off lanes are
            // not accessed.
            unsafe { _mm256_maskstore_ps(p, m, self.0) }
        }

        #[inline(always)]
        unsafe fn add(self, v: Self) -> Self {
            // SAFETY: as in `splat`.
            unsafe { Avx2(_mm256_add_ps(self.0, v.0)) }
        }

        #[inline(always)]
        unsafe fn mul_then_add(self, v: Self, x: Self) -> Self {
            // SAFETY: as in `splat`.
            unsafe { Avx2(_mm256_add_ps(self.0, _mm256_mul_ps(v.0, x.0))) }
        }

        #[inline(always)]
        unsafe fn fma(self, v: Self, x: Self) -> Self {
            // SAFETY: the CPU has FMA (the caller's contract).
            unsafe { Avx2(_mm256_fmadd_ps(v.0, x.0, self.0)) }
        }

        #[inline(always)]
        unsafe fn halving_sum(self) -> f32 {
            // SAFETY: as in `splat`.
            unsafe { halving_sum_8(self.0) }
        }

        #[inline(always)]
        unsafe fn transpose<const L: usize>(rows: &mut [Self; L]) {
            const { assert!(L == Self::LANES) };
            // SAFETY: as in `splat`; every index is below L == 8.
            unsafe {
                let r = rows.map(|v| v.0);
                let mut t = [_mm256_setzero_ps(); 8];
                for k in 0..4 {
                    t[2 * k] = _mm256_unpacklo_ps(r[2 * k], r[2 * k + 1]);
                    t[2 * k + 1] = _mm256_unpackhi_ps(r[2 * k], r[2 * k + 1]);
                }
                // u[4k + j]: column 4q + j of rows 4k..4k+3 in each 128-bit
                // half q.
                let mut u = [_mm256_setzero_ps(); 8];
                for k in 0..2 {
                    u[4 * k] = _mm256_shuffle_ps::<0x44>(t[4 * k], t[4 * k + 2]);
                    u[4 * k + 1] = _mm256_shuffle_ps::<0xEE>(t[4 * k], t[4 * k + 2]);
                    u[4 * k + 2] = _mm256_shuffle_ps::<0x44>(t[4 * k + 1], t[4 * k + 3]);
                    u[4 * k + 3] = _mm256_shuffle_ps::<0xEE>(t[4 * k + 1], t[4 * k + 3]);
                }
                for j in 0..4 {
                    rows[j] = Avx2(_mm256_permute2f128_ps::<0x20>(u[j], u[4 + j]));
                    rows[4 + j] = Avx2(_mm256_permute2f128_ps::<0x31>(u[j], u[4 + j]));
                }
            }
        }
    }

    /// The AVX-512F tier: 16 lanes, tail masks in a mask register.
    #[derive(Clone, Copy)]
    struct Avx512(__m512);

    /// # Safety
    ///
    /// Every method's contract is the trait's: the CPU has AVX-512F, AVX2
    /// and FMA, and the pointer methods' lanes are readable or writable.
    impl Vector for Avx512 {
        const LEVEL: SimdLevel = SimdLevel::Avx512Fma;
        type Mask = __mmask16;

        #[inline(always)]
        unsafe fn first(n: usize) -> __mmask16 {
            u16::MAX >> (16 - n)
        }

        #[inline(always)]
        unsafe fn zero() -> Self {
            // SAFETY: the CPU has AVX-512F (the caller's contract).
            unsafe { Avx512(_mm512_setzero_ps()) }
        }

        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            // SAFETY: the CPU has AVX-512F (the caller's contract).
            unsafe { Avx512(_mm512_set1_ps(x)) }
        }

        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            // SAFETY: 16 readable floats at `p` (the caller's contract).
            unsafe { Avx512(_mm512_loadu_ps(p)) }
        }

        #[inline(always)]
        unsafe fn load_masked(p: *const f32, m: __mmask16) -> Self {
            // SAFETY: the lanes of `m` are readable; masked-off lanes are
            // not accessed.
            unsafe { Avx512(_mm512_maskz_loadu_ps(m, p)) }
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            // SAFETY: 16 writable floats at `p` (the caller's contract).
            unsafe { _mm512_storeu_ps(p, self.0) }
        }

        #[inline(always)]
        unsafe fn store_masked(self, p: *mut f32, m: __mmask16) {
            // SAFETY: the lanes of `m` are writable; masked-off lanes are
            // not accessed.
            unsafe { _mm512_mask_storeu_ps(p, m, self.0) }
        }

        #[inline(always)]
        unsafe fn add(self, v: Self) -> Self {
            // SAFETY: as in `splat`.
            unsafe { Avx512(_mm512_add_ps(self.0, v.0)) }
        }

        #[inline(always)]
        unsafe fn mul_then_add(self, v: Self, x: Self) -> Self {
            // SAFETY: as in `splat`.
            unsafe { Avx512(_mm512_add_ps(self.0, _mm512_mul_ps(v.0, x.0))) }
        }

        #[inline(always)]
        unsafe fn fma(self, v: Self, x: Self) -> Self {
            // SAFETY: as in `splat` (AVX-512F has its own fused multiply-add).
            unsafe { Avx512(_mm512_fmadd_ps(v.0, x.0, self.0)) }
        }

        #[inline(always)]
        unsafe fn halving_sum(self) -> f32 {
            // SAFETY: as in `splat`; the CPU also has AVX (the caller's
            // contract).
            unsafe {
                // Width 8: lanes 0-7 take in lanes 8-15.
                let v = self.0;
                let hi = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(v)));
                halving_sum_8(_mm256_add_ps(_mm512_castps512_ps256(v), hi))
            }
        }

        #[inline(always)]
        unsafe fn transpose<const L: usize>(rows: &mut [Self; L]) {
            const { assert!(L == Self::LANES) };
            // SAFETY: as in `splat`; every index is below L == 16.
            unsafe {
                let r = rows.map(|v| v.0);
                let mut t = [_mm512_setzero_ps(); 16];
                for k in 0..8 {
                    t[2 * k] = _mm512_unpacklo_ps(r[2 * k], r[2 * k + 1]);
                    t[2 * k + 1] = _mm512_unpackhi_ps(r[2 * k], r[2 * k + 1]);
                }
                // u[4k + j]: column 4q + j of rows 4k..4k+3 in each 128-bit
                // lane q.
                let mut u = [_mm512_setzero_ps(); 16];
                for k in 0..4 {
                    u[4 * k] = _mm512_shuffle_ps::<0x44>(t[4 * k], t[4 * k + 2]);
                    u[4 * k + 1] = _mm512_shuffle_ps::<0xEE>(t[4 * k], t[4 * k + 2]);
                    u[4 * k + 2] = _mm512_shuffle_ps::<0x44>(t[4 * k + 1], t[4 * k + 3]);
                    u[4 * k + 3] = _mm512_shuffle_ps::<0xEE>(t[4 * k + 1], t[4 * k + 3]);
                }
                for j in 0..4 {
                    // Lanes q0, q2 / q1, q3 of row groups 0-1 and 2-3 ...
                    let v0 = _mm512_shuffle_f32x4::<0x88>(u[j], u[4 + j]);
                    let v1 = _mm512_shuffle_f32x4::<0xDD>(u[j], u[4 + j]);
                    let v2 = _mm512_shuffle_f32x4::<0x88>(u[8 + j], u[12 + j]);
                    let v3 = _mm512_shuffle_f32x4::<0xDD>(u[8 + j], u[12 + j]);
                    // ... then one 128-bit lane q of all four row groups:
                    // column 4q + j.
                    rows[j] = Avx512(_mm512_shuffle_f32x4::<0x88>(v0, v2));
                    rows[8 + j] = Avx512(_mm512_shuffle_f32x4::<0xDD>(v0, v2));
                    rows[4 + j] = Avx512(_mm512_shuffle_f32x4::<0x88>(v1, v3));
                    rows[12 + j] = Avx512(_mm512_shuffle_f32x4::<0xDD>(v1, v3));
                }
            }
        }
    }

    /// `nest` on the AVX2 tier.
    ///
    /// # Safety
    ///
    /// The running CPU has AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn avx2<N: Nest>(nest: N) -> N::Out {
        // SAFETY: this function's target features are `Avx2`'s, and L is
        // its lane count.
        unsafe { nest.run::<Avx2, { Avx2::LANES }>() }
    }

    /// `nest` on the AVX-512F tier.
    ///
    /// # Safety
    ///
    /// The running CPU has AVX-512F, AVX2 and FMA.
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn avx512<N: Nest>(nest: N) -> N::Out {
        // SAFETY: this function's target features are `Avx512`'s, and L is
        // its lane count.
        unsafe { nest.run::<Avx512, { Avx512::LANES }>() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every level the host runs, portable first (just the portable one
    /// under Miri or on a host without SIMD).
    fn levels() -> Vec<SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Avx2Fma, SimdLevel::Avx512Fma]
            .into_iter()
            .filter(|&level| level <= detect_simd_level())
            .collect()
    }

    /// Floats that tell a fused from an unfused multiply-add, and the
    /// special values: signed zeros, infinities, NaN, subnormals.
    fn operands(salt: u32) -> Vec<f32> {
        let specials = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1e-40, -3e-39];
        (0..32u32)
            .map(|i| match (i + salt) % 5 {
                0 => specials[((i * 3 + salt) % 7) as usize],
                _ => {
                    let h = i.wrapping_mul(2_654_435_761).wrapping_add(salt.wrapping_mul(40_503));
                    1.0 + (h >> 9) as f32 / (1 << 23) as f32
                }
            })
            .collect()
    }

    /// Floats per operand: two 16-lane vectors, four 8-lane ones (what
    /// [`operands`] makes).
    const WIDTH: usize = 32;

    /// Runs every operation of the vocabulary over `WIDTH`-float operands
    /// in vectors of the tier's width, and returns each result's bits.
    struct Battery<'a> {
        a: &'a [f32],
        b: &'a [f32],
        c: &'a [f32],
    }

    impl Nest for Battery<'_> {
        type Out = Vec<(String, Vec<u32>)>;

        unsafe fn run<V: Vector, const L: usize>(self) -> Self::Out {
            const { assert!(L == V::LANES) };
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut out = Vec::new();
            // SAFETY: the CPU has `V`'s features (this fn's contract);
            // every pointer below addresses the lanes of a `WIDTH`- or
            // `L`-float buffer it is read from or written to.
            unsafe {
                let load = |x: &[f32], j: usize| V::load(x.as_ptr().add(j * L));
                let mut lane_wise = |name: &str, f: &dyn Fn(V, V, V) -> V| {
                    let mut r = vec![f32::NAN; WIDTH];
                    for j in 0..WIDTH / L {
                        let (a, b, c) = (load(self.a, j), load(self.b, j), load(self.c, j));
                        f(a, b, c).store(r.as_mut_ptr().add(j * L));
                    }
                    out.push((name.to_string(), bits(&r)));
                };
                lane_wise("zero", &|_, _, _| V::zero());
                lane_wise("splat", &|_, _, _| V::splat(self.a[3]));
                lane_wise("load/store", &|a, _, _| a);
                lane_wise("add", &|a, b, _| a.add(b));
                lane_wise("mul_then_add", &|a, b, c| a.mul_then_add(b, c));
                lane_wise("fma", &|a, b, c| a.fma(b, c));
                // The halving tree over all WIDTH floats: whole vectors
                // first, then inside the last one — the FC dot's order.
                let mut vs: Vec<V> = (0..WIDTH / L).map(|j| load(self.b, j)).collect();
                let mut width = vs.len() / 2;
                while width > 0 {
                    for j in 0..width {
                        vs[j] = vs[j].add(vs[j + width]);
                    }
                    width /= 2;
                }
                out.push(("halving_sum".into(), bits(&[vs[0].halving_sum()])));
                // Masked loads read only their lanes (+0.0 elsewhere);
                // masked stores write only theirs.
                for n in 1..=L {
                    let m = V::first(n);
                    let mut loaded = [f32::NAN; WIDTH];
                    V::load_masked(self.a.as_ptr(), m).store(loaded.as_mut_ptr());
                    let mut want = [0.0; WIDTH];
                    want[..n].copy_from_slice(&self.a[..n]);
                    want[L..].fill(f32::NAN);
                    assert_eq!(bits(&loaded), bits(&want), "{L}-lane load_masked({n})");
                    let mut stored = self.c.to_vec();
                    load(self.a, 0).store_masked(stored.as_mut_ptr(), m);
                    want = [0.0; WIDTH];
                    want.copy_from_slice(self.c);
                    want[..n].copy_from_slice(&self.a[..n]);
                    assert_eq!(bits(&stored), bits(&want), "{L}-lane store_masked({n})");
                }
                // The transpose moves lane l of row p to lane p of row l.
                let mut rows: [V; L] = std::array::from_fn(|p| V::splat(p as f32));
                for (p, row) in rows.iter_mut().enumerate() {
                    let lanes: Vec<f32> = (0..L).map(|l| (p * L + l) as f32).collect();
                    *row = V::load(lanes.as_ptr());
                }
                V::transpose(&mut rows);
                for (l, row) in rows.iter().enumerate() {
                    let mut got = vec![0.0; L];
                    row.store(got.as_mut_ptr());
                    let want: Vec<f32> = (0..L).map(|p| (p * L + l) as f32).collect();
                    assert_eq!(got, want, "{L}-lane transpose, row {l}");
                }
            }
            out
        }
    }

    /// Every operation of every tier the host runs gives the portable
    /// tier's bits — fused and unfused multiply-adds on operands where
    /// the two differ, infinities, NaNs, signed zeros and subnormals
    /// included — and the masked loads, masked stores and the transpose do
    /// what they say at every lane count.
    #[test]
    fn every_tier_speaks_the_portable_vocabulary() {
        let (a, b, c) = (operands(1), operands(2), operands(3));
        let want = on_tier(SimdLevel::Scalar, Battery { a: &a, b: &b, c: &c });
        let of = |op: &str| want.iter().find(|(name, _)| name == op).map(|(_, bits)| bits);
        assert_ne!(of("fma"), of("mul_then_add"), "the operands tell fused from unfused");
        for level in levels() {
            let got = on_tier(level, Battery { a: &a, b: &b, c: &c });
            for ((name, got), (_, want)) in got.iter().zip(&want) {
                assert_eq!(got, want, "{level:?} {name}");
            }
        }
    }

    /// A level runs its own tier, at that tier's lane count.
    #[test]
    fn lanes_are_the_tiers() {
        struct Lanes;
        impl Nest for Lanes {
            type Out = (SimdLevel, usize);
            unsafe fn run<V: Vector, const L: usize>(self) -> (SimdLevel, usize) {
                assert_eq!(L, V::LANES);
                (V::LEVEL, L)
            }
        }
        for level in levels() {
            assert_eq!(on_tier(level, Lanes), (level, level.lanes()), "{level:?}");
        }
        assert_eq!([SimdLevel::Avx2Fma.id(), SimdLevel::Avx512Fma.id()], ["avx2", "avx512"]);
    }
}
