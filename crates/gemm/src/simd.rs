//! One SIMD vocabulary for every kernel: the [`Vector`] trait, its three
//! tiers — portable, AVX2+FMA (8 lanes) and AVX-512F+FMA (16 lanes) — and
//! [`on_tier`], the one dispatch from a [`SimdLevel`] to a tier.
//!
//! A kernel is written once, as a [`Nest`]: a loop nest generic over the
//! vector type. [`on_tier`] runs it inside a function compiled with the
//! tier's target features, so the trait's `#[inline(always)]` methods
//! become that tier's instructions. The GEMM micro-kernel, the
//! fully-connected kernels, the sparse backward, the tiled stencil and the
//! max-pool, ReLU and LRN layers are all nests; this is the only module of
//! the workspace that names `std::arch` (`spg-lint` enforces it).
//!
//! Every operation computes, lane by lane, the bits the portable tier
//! computes: IEEE single-precision arithmetic, fused where the name says
//! so ([`Vector::fma`], one rounding, `f32::mul_add` on the portable tier)
//! and rounded twice where it says so ([`Vector::mul_then_add`]), with
//! [`Vector::max`] pinned where `f32::max` leaves a choice. So a
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
    /// A set of lanes: a tail's first lanes, or where a compare held.
    type Mask: Copy;

    /// The mask of the first `n` lanes, `0 <= n <= LANES`.
    ///
    /// # Safety
    ///
    /// The running CPU has the tier's target features.
    unsafe fn first(n: usize) -> Self::Mask;

    /// The lanes of `m` as bits, lane `l` at bit `l`.
    ///
    /// # Safety
    ///
    /// As [`Vector::first`].
    unsafe fn bits(m: Self::Mask) -> u32;

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

    /// `self - v`.
    ///
    /// # Safety
    ///
    /// As [`Vector::first`].
    unsafe fn sub(self, v: Self) -> Self;

    /// `self * v`.
    ///
    /// # Safety
    ///
    /// As [`Vector::first`].
    unsafe fn mul(self, v: Self) -> Self;

    /// `self / v`.
    ///
    /// # Safety
    ///
    /// As [`Vector::first`].
    unsafe fn div(self, v: Self) -> Self;

    /// `f32::max(self, v)`, pinned where `f32::max` leaves a choice: the
    /// larger lane; a NaN lane yields the other operand's; of two equal
    /// lanes (`+0.0` and `-0.0`), `self`'s.
    ///
    /// # Safety
    ///
    /// As [`Vector::first`].
    unsafe fn max(self, v: Self) -> Self;

    /// The lanes where `self > v` (false where either is NaN).
    ///
    /// # Safety
    ///
    /// As [`Vector::first`].
    unsafe fn gt(self, v: Self) -> Self::Mask;

    /// The lanes where `self == v` (false where either is NaN; `+0.0`
    /// equals `-0.0`).
    ///
    /// # Safety
    ///
    /// As [`Vector::first`].
    unsafe fn eq(self, v: Self) -> Self::Mask;

    /// The lanes where `self != v`: true where either is NaN.
    ///
    /// # Safety
    ///
    /// As [`Vector::first`].
    unsafe fn ne(self, v: Self) -> Self::Mask;

    /// `yes`'s lanes where `m` holds, `no`'s elsewhere.
    ///
    /// # Safety
    ///
    /// As [`Vector::first`].
    unsafe fn select(m: Self::Mask, yes: Self, no: Self) -> Self;

    /// The columns of `K` consecutive vectors read as rows of `K` floats:
    /// lane `j` of column `d` is float `K * j + d` of the run
    /// `v[0], v[1], ..`. `K` is 1, 2 or 4 (checked when the call is
    /// compiled).
    ///
    /// # Safety
    ///
    /// As [`Vector::first`].
    unsafe fn deinterleave<const K: usize>(v: [Self; K]) -> [Self; K];

    /// The inverse of [`Vector::deinterleave`]: float `K * j + d` of the
    /// returned run is lane `j` of column `d`.
    ///
    /// # Safety
    ///
    /// As [`Vector::first`].
    unsafe fn interleave<const K: usize>(columns: [Self; K]) -> [Self; K];

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

/// The portable mask of the lanes `l < 8` where `holds(l)`.
#[inline(always)]
fn lanes_where(holds: impl Fn(usize) -> bool) -> u32 {
    (0..8).filter(|&l| holds(l)).fold(0, |m, l| m | 1 << l)
}

/// # Safety
///
/// Every method's contract is the trait's; plain arithmetic needs no
/// target feature, so only the pointer methods' lanes matter.
impl Vector for Portable {
    const LEVEL: SimdLevel = SimdLevel::Scalar;
    /// Lane `l` at bit `l`.
    type Mask = u32;

    #[inline(always)]
    unsafe fn first(n: usize) -> u32 {
        (1u32 << n) - 1
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
        unsafe { Self::load_masked(p, 0xFF) }
    }

    #[inline(always)]
    unsafe fn load_masked(p: *const f32, m: u32) -> Self {
        let mut v = [0.0; 8];
        for (i, lane) in v.iter_mut().enumerate().filter(|&(i, _)| m >> i & 1 != 0) {
            // SAFETY: lane i of `m` is readable (the caller's contract).
            *lane = unsafe { *p.add(i) };
        }
        Portable(v)
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        // SAFETY: the caller guarantees 8 writable floats at `p`.
        unsafe { self.store_masked(p, 0xFF) }
    }

    #[inline(always)]
    unsafe fn store_masked(self, p: *mut f32, m: u32) {
        for (i, &lane) in self.0.iter().enumerate().filter(|&(i, _)| m >> i & 1 != 0) {
            // SAFETY: lane i of `m` is writable (the caller's contract).
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

    /// # Safety
    ///
    /// None beyond the trait's: plain arithmetic.
    #[inline(always)]
    unsafe fn sub(self, v: Self) -> Self {
        Portable(std::array::from_fn(|l| self.0[l] - v.0[l]))
    }

    #[inline(always)]
    unsafe fn mul(self, v: Self) -> Self {
        Portable(std::array::from_fn(|l| self.0[l] * v.0[l]))
    }

    #[inline(always)]
    unsafe fn div(self, v: Self) -> Self {
        Portable(std::array::from_fn(|l| self.0[l] / v.0[l]))
    }

    /// Spelled out rather than `f32::max`, whose choice between equal
    /// zeros the optimizer may make either way.
    ///
    /// # Safety
    ///
    /// None beyond the trait's: plain arithmetic.
    #[inline(always)]
    unsafe fn max(self, v: Self) -> Self {
        Portable(std::array::from_fn(|l| {
            let (s, v) = (self.0[l], v.0[l]);
            if v > s || s.is_nan() {
                v
            } else {
                s
            }
        }))
    }

    /// # Safety
    ///
    /// None beyond the trait's: plain arithmetic.
    #[inline(always)]
    unsafe fn gt(self, v: Self) -> u32 {
        lanes_where(|l| self.0[l] > v.0[l])
    }

    #[inline(always)]
    unsafe fn eq(self, v: Self) -> u32 {
        lanes_where(|l| self.0[l] == v.0[l])
    }

    #[inline(always)]
    unsafe fn ne(self, v: Self) -> u32 {
        lanes_where(|l| self.0[l] != v.0[l])
    }

    #[inline(always)]
    unsafe fn select(m: u32, yes: Self, no: Self) -> Self {
        Portable(std::array::from_fn(|l| if m >> l & 1 != 0 { yes.0[l] } else { no.0[l] }))
    }

    #[inline(always)]
    unsafe fn bits(m: u32) -> u32 {
        m
    }

    /// # Safety
    ///
    /// None beyond the trait's: plain arithmetic.
    #[inline(always)]
    unsafe fn deinterleave<const K: usize>(v: [Self; K]) -> [Self; K] {
        const { assert!(K == 1 || K == 2 || K == 4) };
        let run = |i: usize| v[i / 8].0[i % 8];
        std::array::from_fn(|d| Portable(std::array::from_fn(|j| run(K * j + d))))
    }

    #[inline(always)]
    unsafe fn interleave<const K: usize>(columns: [Self; K]) -> [Self; K] {
        const { assert!(K == 1 || K == 2 || K == 4) };
        let run = |i: usize| columns[i % K].0[i / K];
        std::array::from_fn(|q| Portable(std::array::from_fn(|l| run(8 * q + l))))
    }

    /// # Safety
    ///
    /// None beyond the trait's: plain arithmetic.
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

    /// The float pairs of `v` in the order 0, 2, 1, 3.
    ///
    /// # Safety
    ///
    /// The running CPU has AVX2.
    #[inline(always)]
    unsafe fn pairs_0213(v: __m256) -> __m256 {
        // SAFETY: the caller's contract.
        unsafe { _mm256_castpd_ps(_mm256_permute4x64_pd::<0xD8>(_mm256_castps_pd(v))) }
    }

    /// The even and the odd floats of the run `a, b`.
    ///
    /// # Safety
    ///
    /// The running CPU has AVX2.
    #[inline(always)]
    unsafe fn columns_2(a: __m256, b: __m256) -> [__m256; 2] {
        // SAFETY: the caller's contract. The shuffles pick the pairs of
        // each 128-bit half; the permute puts the halves' pairs in order.
        unsafe {
            let (e, o) = (_mm256_shuffle_ps::<0x88>(a, b), _mm256_shuffle_ps::<0xDD>(a, b));
            [pairs_0213(e), pairs_0213(o)]
        }
    }

    /// The inverse of [`columns_2`]: the run whose even floats are `e` and
    /// whose odd ones are `o`.
    ///
    /// # Safety
    ///
    /// The running CPU has AVX2.
    #[inline(always)]
    unsafe fn rows_2(e: __m256, o: __m256) -> [__m256; 2] {
        // SAFETY: the caller's contract. The permute (its own inverse)
        // puts floats 0-1 and 4-5 in the low 128-bit half; the unpacks
        // pair them within each half.
        unsafe {
            let (e, o) = (pairs_0213(e), pairs_0213(o));
            [_mm256_unpacklo_ps(e, o), _mm256_unpackhi_ps(e, o)]
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
            // SAFETY: 0 <= n <= 8, so the 8 ints at 8 - n are inside the
            // table; the CPU has AVX (the caller's contract).
            unsafe { _mm256_loadu_si256(AVX2_MASKS.as_ptr().add(8 - n).cast()) }
        }

        #[inline(always)]
        unsafe fn bits(m: __m256i) -> u32 {
            // SAFETY: the CPU has AVX (the caller's contract). A lane's sign
            // bit is its bit of the mask.
            unsafe { _mm256_movemask_ps(_mm256_castsi256_ps(m)) as u32 }
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
        unsafe fn sub(self, v: Self) -> Self {
            // SAFETY: as in `splat`.
            unsafe { Avx2(_mm256_sub_ps(self.0, v.0)) }
        }

        #[inline(always)]
        unsafe fn mul(self, v: Self) -> Self {
            // SAFETY: as in `splat`.
            unsafe { Avx2(_mm256_mul_ps(self.0, v.0)) }
        }

        #[inline(always)]
        unsafe fn div(self, v: Self) -> Self {
            // SAFETY: as in `splat`.
            unsafe { Avx2(_mm256_div_ps(self.0, v.0)) }
        }

        #[inline(always)]
        unsafe fn max(self, v: Self) -> Self {
            // SAFETY: as in `splat`. `max_ps(v, self)` is `v > self ? v :
            // self`; where `self` is NaN the blend takes `v`.
            unsafe {
                let larger = _mm256_max_ps(v.0, self.0);
                Avx2(_mm256_blendv_ps(larger, v.0, _mm256_cmp_ps::<_CMP_UNORD_Q>(self.0, self.0)))
            }
        }

        #[inline(always)]
        unsafe fn gt(self, v: Self) -> __m256i {
            // SAFETY: as in `splat`.
            unsafe { _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GT_OQ>(self.0, v.0)) }
        }

        #[inline(always)]
        unsafe fn eq(self, v: Self) -> __m256i {
            // SAFETY: as in `splat`.
            unsafe { _mm256_castps_si256(_mm256_cmp_ps::<_CMP_EQ_OQ>(self.0, v.0)) }
        }

        #[inline(always)]
        unsafe fn ne(self, v: Self) -> __m256i {
            // SAFETY: as in `splat`.
            unsafe { _mm256_castps_si256(_mm256_cmp_ps::<_CMP_NEQ_UQ>(self.0, v.0)) }
        }

        #[inline(always)]
        unsafe fn select(m: __m256i, yes: Self, no: Self) -> Self {
            // SAFETY: as in `splat`.
            unsafe { Avx2(_mm256_blendv_ps(no.0, yes.0, _mm256_castsi256_ps(m))) }
        }

        #[inline(always)]
        unsafe fn deinterleave<const K: usize>(v: [Self; K]) -> [Self; K] {
            const { assert!(K == 1 || K == 2 || K == 4) };
            // SAFETY: as in `splat`; each arm indexes below its K.
            unsafe {
                let columns = match K {
                    2 => {
                        let [e, o] = columns_2(v[0].0, v[1].0);
                        [e, o, e, o]
                    }
                    4 => {
                        // The even and odd floats of each half, then of those.
                        let [e0, o0] = columns_2(v[0].0, v[1].0);
                        let [e1, o1] = columns_2(v[2].0, v[3].0);
                        let ([c0, c2], [c1, c3]) = (columns_2(e0, e1), columns_2(o0, o1));
                        [c0, c1, c2, c3]
                    }
                    _ => [v[0].0; 4],
                };
                let mut out = v;
                for (o, &c) in out.iter_mut().zip(&columns) {
                    o.0 = c;
                }
                out
            }
        }

        #[inline(always)]
        unsafe fn interleave<const K: usize>(columns: [Self; K]) -> [Self; K] {
            const { assert!(K == 1 || K == 2 || K == 4) };
            // SAFETY: as in `splat`; each arm indexes below its K.
            unsafe {
                let run = match K {
                    2 => {
                        let [v0, v1] = rows_2(columns[0].0, columns[1].0);
                        [v0, v1, v0, v1]
                    }
                    4 => {
                        let ([e0, e1], [o0, o1]) = (
                            rows_2(columns[0].0, columns[2].0),
                            rows_2(columns[1].0, columns[3].0),
                        );
                        let ([v0, v1], [v2, v3]) = (rows_2(e0, o0), rows_2(e1, o1));
                        [v0, v1, v2, v3]
                    }
                    _ => [columns[0].0; 4],
                };
                let mut out = columns;
                for (o, &r) in out.iter_mut().zip(&run) {
                    o.0 = r;
                }
                out
            }
        }

        /// # Safety
        ///
        /// The trait's: the CPU has the tier's features.
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

    /// Two-source permute indices (`16 +` picks the second source): the
    /// even floats of a 32-float run, then the odd ones.
    static EVEN_ODD_16: [[i32; 16]; 2] = [
        [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30],
        [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31],
    ];

    /// The inverse of [`EVEN_ODD_16`]: floats 0-15, then 16-31, of the run
    /// whose even floats are the first source and odd ones the second.
    static ZIP_16: [[i32; 16]; 2] = [
        [0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23],
        [8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31],
    ];

    /// The even and the odd floats of the run `a, b`.
    ///
    /// # Safety
    ///
    /// The running CPU has AVX-512F.
    #[inline(always)]
    unsafe fn columns_16(a: __m512, b: __m512) -> [__m512; 2] {
        // SAFETY: the caller's contract; each table row is 16 ints.
        unsafe {
            let [even, odd] = [EVEN_ODD_16[0].as_ptr(), EVEN_ODD_16[1].as_ptr()];
            [
                _mm512_permutex2var_ps(a, _mm512_loadu_si512(even.cast()), b),
                _mm512_permutex2var_ps(a, _mm512_loadu_si512(odd.cast()), b),
            ]
        }
    }

    /// The inverse of [`columns_16`]: the run whose even floats are `e` and
    /// whose odd ones are `o`.
    ///
    /// # Safety
    ///
    /// The running CPU has AVX-512F.
    #[inline(always)]
    unsafe fn rows_16(e: __m512, o: __m512) -> [__m512; 2] {
        // SAFETY: the caller's contract; each table row is 16 ints.
        unsafe {
            let [low, high] = [ZIP_16[0].as_ptr(), ZIP_16[1].as_ptr()];
            [
                _mm512_permutex2var_ps(e, _mm512_loadu_si512(low.cast()), o),
                _mm512_permutex2var_ps(e, _mm512_loadu_si512(high.cast()), o),
            ]
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
            // Lossless: n <= 16.
            #[allow(clippy::cast_possible_truncation)]
            let m = ((1u32 << n) - 1) as u16;
            m
        }

        #[inline(always)]
        unsafe fn bits(m: __mmask16) -> u32 {
            u32::from(m)
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
        unsafe fn sub(self, v: Self) -> Self {
            // SAFETY: as in `splat`.
            unsafe { Avx512(_mm512_sub_ps(self.0, v.0)) }
        }

        #[inline(always)]
        unsafe fn mul(self, v: Self) -> Self {
            // SAFETY: as in `splat`.
            unsafe { Avx512(_mm512_mul_ps(self.0, v.0)) }
        }

        #[inline(always)]
        unsafe fn div(self, v: Self) -> Self {
            // SAFETY: as in `splat`.
            unsafe { Avx512(_mm512_div_ps(self.0, v.0)) }
        }

        #[inline(always)]
        unsafe fn max(self, v: Self) -> Self {
            // SAFETY: as in `splat`. `max_ps(v, self)` is `v > self ? v :
            // self`; where `self` is NaN the blend takes `v`.
            unsafe {
                let larger = _mm512_max_ps(v.0, self.0);
                let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(self.0, self.0);
                Avx512(_mm512_mask_blend_ps(nan, larger, v.0))
            }
        }

        #[inline(always)]
        unsafe fn gt(self, v: Self) -> __mmask16 {
            // SAFETY: as in `splat`.
            unsafe { _mm512_cmp_ps_mask::<_CMP_GT_OQ>(self.0, v.0) }
        }

        #[inline(always)]
        unsafe fn eq(self, v: Self) -> __mmask16 {
            // SAFETY: as in `splat`.
            unsafe { _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(self.0, v.0) }
        }

        #[inline(always)]
        unsafe fn ne(self, v: Self) -> __mmask16 {
            // SAFETY: as in `splat`.
            unsafe { _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(self.0, v.0) }
        }

        #[inline(always)]
        unsafe fn select(m: __mmask16, yes: Self, no: Self) -> Self {
            // SAFETY: as in `splat`.
            unsafe { Avx512(_mm512_mask_blend_ps(m, no.0, yes.0)) }
        }

        #[inline(always)]
        unsafe fn deinterleave<const K: usize>(v: [Self; K]) -> [Self; K] {
            const { assert!(K == 1 || K == 2 || K == 4) };
            // SAFETY: as in `splat`; each arm indexes below its K.
            unsafe {
                let columns = match K {
                    2 => {
                        let [e, o] = columns_16(v[0].0, v[1].0);
                        [e, o, e, o]
                    }
                    4 => {
                        // The even and odd floats of each half, then of those.
                        let [e0, o0] = columns_16(v[0].0, v[1].0);
                        let [e1, o1] = columns_16(v[2].0, v[3].0);
                        let ([c0, c2], [c1, c3]) = (columns_16(e0, e1), columns_16(o0, o1));
                        [c0, c1, c2, c3]
                    }
                    _ => [v[0].0; 4],
                };
                let mut out = v;
                for (o, &c) in out.iter_mut().zip(&columns) {
                    o.0 = c;
                }
                out
            }
        }

        #[inline(always)]
        unsafe fn interleave<const K: usize>(columns: [Self; K]) -> [Self; K] {
            const { assert!(K == 1 || K == 2 || K == 4) };
            // SAFETY: as in `splat`; each arm indexes below its K.
            unsafe {
                let run = match K {
                    2 => {
                        let [v0, v1] = rows_16(columns[0].0, columns[1].0);
                        [v0, v1, v0, v1]
                    }
                    4 => {
                        let ([e0, e1], [o0, o1]) = (
                            rows_16(columns[0].0, columns[2].0),
                            rows_16(columns[1].0, columns[3].0),
                        );
                        let ([v0, v1], [v2, v3]) = (rows_16(e0, o0), rows_16(e1, o1));
                        [v0, v1, v2, v3]
                    }
                    _ => [columns[0].0; 4],
                };
                let mut out = columns;
                for (o, &r) in out.iter_mut().zip(&run) {
                    o.0 = r;
                }
                out
            }
        }

        /// # Safety
        ///
        /// The trait's: the CPU has the tier's features.
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

    /// The values `max` and the compares treat specially, and two
    /// ordinary ones.
    const SPECIAL: [f32; 8] =
        [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-40, -1e-40, 1.5];

    /// Every ordered pair of [`SPECIAL`] values, as two operands of
    /// `PAIRS` floats: `+0.0` against `-0.0` both ways, NaN on either side.
    fn pairs() -> (Vec<f32>, Vec<f32>) {
        let n = SPECIAL.len();
        (0..PAIRS).map(|i| (SPECIAL[i / n], SPECIAL[i % n])).unzip()
    }

    /// Floats per operand of [`pairs`].
    const PAIRS: usize = SPECIAL.len() * SPECIAL.len();

    /// Runs every operation of the vocabulary over `WIDTH`-float operands
    /// (`PAIRS` floats for `max` and the compares) in vectors of the
    /// tier's width, and returns each result's bits.
    struct Battery<'a> {
        a: &'a [f32],
        b: &'a [f32],
        c: &'a [f32],
        x: &'a [f32],
        y: &'a [f32],
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
                lane_wise("sub", &|a, b, _| a.sub(b));
                lane_wise("mul", &|a, b, _| a.mul(b));
                lane_wise("div", &|a, b, _| a.div(b));
                lane_wise("select", &|a, b, c| V::select(a.gt(b), a, c));
                // `max` and the compares over every pair of specials; each
                // compare's mask as one float per lane, through `bits`.
                let mut pair_wise = |name: &str, f: &dyn Fn(V, V) -> V| {
                    let mut r = vec![f32::NAN; PAIRS];
                    for j in 0..PAIRS / L {
                        let (x, y) = (load(self.x, j), load(self.y, j));
                        f(x, y).store(r.as_mut_ptr().add(j * L));
                    }
                    out.push((name.to_string(), bits(&r)));
                };
                pair_wise("max", &|x, y| x.max(y));
                pair_wise("max, swapped", &|x, y| y.max(x));
                let lanes = |m: V::Mask| {
                    let b = V::bits(m);
                    let mut v = [0.0; L];
                    for (l, lane) in v.iter_mut().enumerate() {
                        *lane = (b >> l & 1) as f32;
                    }
                    V::load(v.as_ptr())
                };
                pair_wise("gt", &|x, y| lanes(x.gt(y)));
                pair_wise("eq", &|x, y| lanes(x.eq(y)));
                pair_wise("ne", &|x, y| lanes(x.ne(y)));
                pair_wise("select(eq)", &|x, y| V::select(x.eq(y), x, y));
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
                // masked stores write only theirs; a mask's bits and a
                // select through it name the same lanes.
                for n in 0..=L {
                    let m = V::first(n);
                    assert_eq!(V::bits(m), (1u32 << n) - 1, "{L}-lane first({n})");
                    let mut picked = [f32::NAN; L];
                    V::select(m, load(self.a, 0), load(self.c, 0)).store(picked.as_mut_ptr());
                    let want: Vec<f32> =
                        (0..L).map(|l| if l < n { self.a[l] } else { self.c[l] }).collect();
                    assert_eq!(bits(&picked), bits(&want), "{L}-lane select(first({n}))");
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
                windows::<V, L, 1>();
                windows::<V, L, 2>();
                windows::<V, L, 4>();
            }
            out
        }
    }

    /// `deinterleave::<K>` takes a run of `K` vectors to its columns, and
    /// `interleave::<K>` takes them back.
    ///
    /// # Safety
    ///
    /// The running CPU has `V`'s features and `L == V::LANES`.
    #[inline(always)]
    unsafe fn windows<V: Vector, const L: usize, const K: usize>() {
        let run: Vec<f32> = (0..K * L).map(|i| i as f32).collect();
        let read = |vs: &[V; K]| {
            let mut got = vec![f32::NAN; K * L];
            for (q, v) in vs.iter().enumerate() {
                // SAFETY: vector q of `got` is inside its K * L floats.
                unsafe { v.store(got.as_mut_ptr().add(q * L)) };
            }
            got
        };
        // SAFETY: vector q of `run` is inside its K * L floats; the CPU has
        // `V`'s features (this fn's contract).
        let columns =
            unsafe { V::deinterleave(std::array::from_fn(|q| V::load(run.as_ptr().add(q * L)))) };
        let want: Vec<f32> = (0..K).flat_map(|d| (0..L).map(move |j| (K * j + d) as f32)).collect();
        assert_eq!(read(&columns), want, "{L}-lane deinterleave::<{K}>");
        // SAFETY: as above.
        assert_eq!(read(&unsafe { V::interleave(columns) }), run, "{L}-lane interleave::<{K}>");
    }

    /// Every operation of every tier the host runs gives the portable
    /// tier's bits — fused and unfused multiply-adds on operands where
    /// the two differ, infinities, NaNs, signed zeros and subnormals
    /// included — and the masked loads, masked stores and the transpose do
    /// what they say at every lane count.
    #[test]
    fn every_tier_speaks_the_portable_vocabulary() {
        let (a, b, c) = (operands(1), operands(2), operands(3));
        let (x, y) = pairs();
        let battery = || Battery { a: &a, b: &b, c: &c, x: &x, y: &y };
        let want = on_tier(SimdLevel::Scalar, battery());
        let of = |op: &str| want.iter().find(|(name, _)| name == op).map(|(_, bits)| bits).unwrap();
        assert_ne!(of("fma"), of("mul_then_add"), "the operands tell fused from unfused");
        // `max` is `f32::max` wherever that is pinned (not both zero),
        // and keeps its receiver of two zeros.
        for (i, (&p, &q)) in x.iter().zip(&y).enumerate() {
            let got = f32::from_bits(of("max")[i]);
            if p == 0.0 && q == 0.0 {
                assert_eq!(got.to_bits(), p.to_bits(), "max({p:?}, {q:?})");
            } else if !(p.is_nan() && q.is_nan()) {
                let want = std::hint::black_box(p).max(std::hint::black_box(q));
                assert_eq!(got.to_bits(), want.to_bits(), "max({p:?}, {q:?})");
            }
        }
        for level in levels() {
            let got = on_tier(level, battery());
            assert_eq!(got.len(), want.len());
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
