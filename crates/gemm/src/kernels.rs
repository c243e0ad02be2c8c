//! Register-tiled GEMM micro-kernels and panel packing.
//!
//! The blocked driver packs operand panels for one register [`Tile`] and
//! calls that tile's micro-kernel over them; the tile is resolved once per
//! GEMM call from [`detect_simd_level`]. On x86-64 one micro-kernel source,
//! expanded per instruction set by `define_simd_kernel!`, holds the
//! `MR x NR` accumulator in vector registers and issues one fused
//! multiply-add per accumulator register per packed `k` step: a 6x16 tile
//! in twelve YMM registers under AVX2+FMA, a 12x32 tile in twenty-four ZMM
//! registers under AVX-512F. Elsewhere a portable scalar kernel runs. The
//! tile only decides which elements of C share a register: each SIMD tile
//! computes every element as the same single-rounding FMA chain over `k`.

/// Instruction-set tiers the runtime kernels dispatch across, in
/// increasing f32 vector width.
///
/// Detection lives here so every kernel crate (the GEMM micro-kernel and
/// the `spg-codegen` specialized stencil registry) agrees on what the
/// host offers; the ordering lets callers write `level >= Avx2Fma`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SimdLevel {
    /// No usable SIMD: portable scalar kernels run.
    Scalar,
    /// AVX2 + FMA: 8-lane f32 vectors.
    Avx2Fma,
    /// AVX-512F + FMA: 16-lane f32 vectors (on every shipping part this
    /// implies AVX2+FMA, and detection requires both).
    Avx512Fma,
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

/// Name of the GEMM micro-kernel that runs on this CPU.
///
/// Useful in benchmark output to record which register tile produced the
/// results: the 12x32 AVX-512 tile, the 6x16 AVX2 tile, or the portable
/// scalar kernel. On a Sapphire Rapids core the 16-lane tile lifts the
/// ImageNet-1K conv1 GEMMs from 62-66 to 94-108 GFlop/s; a register-only
/// FMA loop peaks at 140-145 GFlop/s with 16-lane and 77-94 with 8-lane
/// vectors.
///
/// # Example
///
/// ```
/// let name = spg_gemm::simd_backend_name();
/// assert!(["avx512f+fma", "avx2+fma", "scalar"].contains(&name));
/// ```
pub fn simd_backend_name() -> &'static str {
    match detect_simd_level() {
        SimdLevel::Avx512Fma => "avx512f+fma",
        SimdLevel::Avx2Fma => "avx2+fma",
        SimdLevel::Scalar => "scalar",
    }
}

/// Accumulator length that holds the largest tile (AVX-512's 12x32).
pub(crate) const ACC_LEN: usize = 12 * 32;

/// A micro-kernel: writes the row-major `mr x nr` tile
/// `acc[r * nr + c] = sum_p ap[p * mr + r] * bp[p * nr + c]` of two packed
/// `kc`-deep panels to the head of `acc`.
///
/// # Safety
///
/// The running CPU has the target features of the kernel's instruction set.
type Kernel = unsafe fn(usize, &[f32], &[f32], &mut [f32; ACC_LEN]);

/// A register tile: the `mr x nr` block of C one micro-kernel call
/// computes, the shape the operand panels are packed for.
#[derive(Clone, Copy)]
pub(crate) struct Tile {
    /// Rows of the tile, and of every packed A panel.
    pub(crate) mr: usize,
    /// Columns of the tile, and of every packed B panel.
    pub(crate) nr: usize,
    kernel: Kernel,
}

impl Tile {
    /// The tile of the widest instruction set the running CPU has.
    pub(crate) fn host() -> Tile {
        Tile::at(SimdLevel::Avx512Fma)
    }

    /// The tile of `level`, or of the host's level when that is narrower —
    /// so a tile's kernel always runs on this CPU.
    pub(crate) fn at(level: SimdLevel) -> Tile {
        match level.min(detect_simd_level()) {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512Fma => Tile { mr: 12, nr: 32, kernel: avx512::kernel::<12, 2> },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2Fma => Tile { mr: 6, nr: 16, kernel: avx2::kernel::<6, 2> },
            _ => Tile { mr: 6, nr: 16, kernel: microkernel_scalar::<6, 16> },
        }
    }

    /// Runs the micro-kernel over `kc`-deep panels packed for this tile.
    #[inline]
    pub(crate) fn run(self, kc: usize, ap: &[f32], bp: &[f32], acc: &mut [f32; ACC_LEN]) {
        // SAFETY: `Tile::at` pairs a SIMD kernel only with a level the
        // running CPU reports; the kernels slice the panels to `kc` steps
        // (panicking on a short one) and read them through safe chunking.
        unsafe { (self.kernel)(kc, ap, bp, acc) }
    }
}

/// Portable scalar micro-kernel for an `MR x NR` tile, with the
/// [`Kernel`] contract: a separate multiply and add per step.
fn microkernel_scalar<const MR: usize, const NR: usize>(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    acc: &mut [f32; ACC_LEN],
) {
    let acc = &mut acc[..MR * NR];
    acc.fill(0.0);
    for p in 0..kc {
        let a = &ap[p * MR..p * MR + MR];
        let b = &bp[p * NR..p * NR + NR];
        for (mr, &aval) in a.iter().enumerate() {
            let row = &mut acc[mr * NR..mr * NR + NR];
            for (cj, bj) in row.iter_mut().zip(b) {
                *cj += aval * bj;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
macro_rules! define_simd_kernel {
    (
        module: $mod_:ident,
        feature: $feat:literal,
        lanes: $lanes:literal,
        setzero: $setzero:ident,
        loadu: $loadu:ident,
        set1: $set1:ident,
        fmadd: $fmadd:ident,
        storeu: $storeu:ident
    ) => {
        mod $mod_ {
            use std::arch::x86_64::*;

            use super::ACC_LEN;

            /// f32 lanes per vector for this instruction set.
            const LANES: usize = $lanes;

            /// The [`Kernel`](super::Kernel) for an `MR x (NV * LANES)`
            /// tile, its accumulator an `[[vector; NV]; MR]` array the
            /// constant trip counts keep in `MR * NV` registers: per packed
            /// `k` step, `NV` loads of the B panel and `MR` broadcasts of
            /// the A panel feed `MR * NV` fused multiply-adds. Panics if a
            /// panel holds fewer than `kc` steps.
            ///
            /// # Safety
            ///
            /// The running CPU has this module's target features.
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn kernel<const MR: usize, const NV: usize>(
                kc: usize,
                ap: &[f32],
                bp: &[f32],
                acc: &mut [f32; ACC_LEN],
            ) {
                const { assert!(MR * NV * LANES <= ACC_LEN) };
                let mut c = [[$setzero(); NV]; MR];
                let a_steps = ap[..kc * MR].as_chunks::<MR>().0;
                for (a, b) in a_steps.iter().zip(bp[..kc * NV * LANES].chunks_exact(NV * LANES)) {
                    let mut bv = [$setzero(); NV];
                    for (j, v) in bv.iter_mut().enumerate() {
                        // SAFETY: j < NV, so the LANES floats at j * LANES
                        // lie inside the NV * LANES floats of `b`.
                        *v = unsafe { $loadu(b.as_ptr().add(j * LANES)) };
                    }
                    for (row, &ar) in c.iter_mut().zip(a) {
                        let av = $set1(ar);
                        for (cv, bj) in row.iter_mut().zip(&bv) {
                            *cv = $fmadd(av, *bj, *cv);
                        }
                    }
                }
                for (dst, v) in acc.chunks_exact_mut(LANES).zip(c.as_flattened()) {
                    // SAFETY: every chunk holds LANES writable floats.
                    unsafe { $storeu(dst.as_mut_ptr(), *v) };
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
define_simd_kernel! {
    module: avx2,
    feature: "avx2,fma",
    lanes: 8,
    setzero: _mm256_setzero_ps,
    loadu: _mm256_loadu_ps,
    set1: _mm256_set1_ps,
    fmadd: _mm256_fmadd_ps,
    storeu: _mm256_storeu_ps
}

#[cfg(target_arch = "x86_64")]
define_simd_kernel! {
    module: avx512,
    feature: "avx512f,fma",
    lanes: 16,
    setzero: _mm512_setzero_ps,
    loadu: _mm512_loadu_ps,
    set1: _mm512_set1_ps,
    fmadd: _mm512_fmadd_ps,
    storeu: _mm512_storeu_ps
}

/// Packs an `mc x kc` block of `a` (row-major, leading dimension `lda`)
/// into `tile.mr`-row panels: panel-major, then `k`, then row. Rows beyond
/// `mc` are zero-padded.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_a(
    tile: Tile,
    a: &[f32],
    lda: usize,
    row0: usize,
    col0: usize,
    mc: usize,
    kc: usize,
    out: &mut Vec<f32>,
) {
    let mr = tile.mr;
    out.clear();
    out.resize(mc.div_ceil(mr) * kc * mr, 0.0);
    for (i, panel) in out.chunks_exact_mut(kc * mr).enumerate() {
        for r in 0..(mc - i * mr).min(mr) {
            let src = (row0 + i * mr + r) * lda + col0;
            for (p, &v) in a[src..src + kc].iter().enumerate() {
                panel[p * mr + r] = v;
            }
        }
    }
}

/// Packs an `mc x kc` block of `A^T` into `tile.mr`-row panels by reading
/// `a` (the untransposed `k x m` matrix, leading dimension `lda`)
/// column-wise: element `(r, c)` of `A^T` is `a[c * lda + r]`, so `row0`
/// is a column offset into `a` and `col0` a row offset.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_at(
    tile: Tile,
    a: &[f32],
    lda: usize,
    row0: usize,
    col0: usize,
    mc: usize,
    kc: usize,
    out: &mut Vec<f32>,
) {
    let mr = tile.mr;
    out.clear();
    out.resize(mc.div_ceil(mr) * kc * mr, 0.0);
    for (i, panel) in out.chunks_exact_mut(kc * mr).enumerate() {
        let rows = (mc - i * mr).min(mr);
        for p in 0..kc {
            let src = (col0 + p) * lda + row0 + i * mr;
            panel[p * mr..p * mr + rows].copy_from_slice(&a[src..src + rows]);
        }
    }
}

/// Packs a `kc x nc` block of `b` (row-major, leading dimension `ldb`)
/// into `tile.nr`-column panels: panel-major, then `k`, then column.
/// Columns beyond `nc` are zero-padded.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_b(
    tile: Tile,
    b: &[f32],
    ldb: usize,
    row0: usize,
    col0: usize,
    kc: usize,
    nc: usize,
    out: &mut Vec<f32>,
) {
    let nr = tile.nr;
    out.clear();
    out.resize(nc.div_ceil(nr) * kc * nr, 0.0);
    for (i, panel) in out.chunks_exact_mut(kc * nr).enumerate() {
        let cols = (nc - i * nr).min(nr);
        for p in 0..kc {
            let src = (row0 + p) * ldb + col0 + i * nr;
            panel[p * nr..p * nr + cols].copy_from_slice(&b[src..src + cols]);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One tile per instruction set the host runs, widest last (just the
    /// scalar tile under Miri or on a host without AVX2+FMA).
    pub(crate) fn tiles() -> Vec<(SimdLevel, Tile)> {
        [SimdLevel::Scalar, SimdLevel::Avx2Fma, SimdLevel::Avx512Fma]
            .into_iter()
            .filter(|&level| level <= detect_simd_level())
            .map(|level| (level, Tile::at(level)))
            .collect()
    }

    fn reference_tile(t: Tile, kc: usize, ap: &[f32], bp: &[f32]) -> Vec<f32> {
        let mut acc = vec![0.0f32; t.mr * t.nr];
        for p in 0..kc {
            for r in 0..t.mr {
                for c in 0..t.nr {
                    acc[r * t.nr + c] += ap[p * t.mr + r] * bp[p * t.nr + c];
                }
            }
        }
        acc
    }

    #[test]
    fn microkernel_matches_reference() {
        let kc = 37;
        for (level, t) in tiles() {
            let ap: Vec<f32> = (0..kc * t.mr).map(|i| (i as f32 * 0.37).sin()).collect();
            let bp: Vec<f32> = (0..kc * t.nr).map(|i| (i as f32 * 0.11).cos()).collect();
            let mut fast = [0.0f32; ACC_LEN];
            t.run(kc, &ap, &bp, &mut fast);
            for (f, s) in fast.iter().zip(&reference_tile(t, kc, &ap, &bp)) {
                assert!((f - s).abs() < 1e-4, "{level:?}: {f} vs {s}");
            }
        }
    }

    #[test]
    fn scalar_kernel_matches_reference_exactly() {
        let (kc, t) = (5, Tile::at(SimdLevel::Scalar));
        let ap: Vec<f32> = (0..kc * t.mr).map(|i| i as f32).collect();
        let bp: Vec<f32> = (0..kc * t.nr).map(|i| (i % 7) as f32).collect();
        let mut acc = [0.0f32; ACC_LEN];
        t.run(kc, &ap, &bp, &mut acc);
        assert_eq!(acc[..t.mr * t.nr], reference_tile(t, kc, &ap, &bp));
    }

    #[test]
    fn zero_kc_yields_zero_tile() {
        for (level, t) in tiles() {
            let mut acc = [1.0f32; ACC_LEN];
            t.run(0, &[], &[], &mut acc);
            assert!(acc[..t.mr * t.nr].iter().all(|&v| v == 0.0), "{level:?}");
        }
    }

    #[test]
    fn pack_a_layout_and_padding() {
        // 2x3 matrix packed as one mr-row panel with kc=3.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        for (level, t) in tiles() {
            let mut out = Vec::new();
            pack_a(t, &a, 3, 0, 0, 2, 3, &mut out);
            assert_eq!(out.len(), 3 * t.mr, "{level:?}");
            // Each k column holds rows [a0k, a1k, 0, ...]: zero-padded to mr.
            for p in 0..3 {
                let mut column = vec![0.0; t.mr];
                column[..2].copy_from_slice(&[a[p], a[3 + p]]);
                assert_eq!(out[p * t.mr..(p + 1) * t.mr], column, "{level:?} k={p}");
            }
        }
    }

    #[test]
    fn pack_b_layout_and_padding() {
        // 2x3 matrix packed as one nr-column panel with kc=2, nc=3.
        let b = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        for (level, t) in tiles() {
            let mut out = Vec::new();
            pack_b(t, &b, 3, 0, 0, 2, 3, &mut out);
            assert_eq!(out.len(), 2 * t.nr, "{level:?}");
            for (p, row) in out.chunks_exact(t.nr).enumerate() {
                assert_eq!(row[..3], b[p * 3..p * 3 + 3], "{level:?} k={p}");
                assert!(row[3..].iter().all(|&v| v == 0.0), "{level:?} k={p}: padding");
            }
        }
    }

    #[test]
    fn pack_respects_offsets() {
        // 4x4 iota matrix; pack the 2x2 block at (1,2) -> [[6,7],[10,11]],
        // and the same block of A^T from the transposed iota.
        let a: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let at: Vec<f32> = (0..16).map(|i| ((i % 4) * 4 + i / 4) as f32).collect();
        for (level, t) in tiles() {
            let (mut direct, mut transposed) = (Vec::new(), Vec::new());
            pack_a(t, &a, 4, 1, 2, 2, 2, &mut direct);
            pack_at(t, &at, 4, 1, 2, 2, 2, &mut transposed);
            for out in [&direct, &transposed] {
                assert_eq!(out[..2], [6.0, 10.0], "{level:?}");
                assert_eq!(out[t.mr..t.mr + 2], [7.0, 11.0], "{level:?}");
            }
            let mut bp = Vec::new();
            pack_b(t, &a, 4, 1, 2, 2, 2, &mut bp);
            assert_eq!(bp[..2], [6.0, 7.0], "{level:?}");
            assert_eq!(bp[t.nr..t.nr + 2], [10.0, 11.0], "{level:?}");
        }
    }

    /// The name reports the tile `Tile::host` dispatches (CI's SIMD legs
    /// run this with `--nocapture` to log which one they exercised).
    #[test]
    fn backend_name_is_known() {
        let tile = Tile::host();
        println!("simd level {:?}, GEMM backend {}", detect_simd_level(), simd_backend_name());
        let expected = match simd_backend_name() {
            "avx512f+fma" => (12, 32),
            "avx2+fma" | "scalar" => (6, 16),
            other => panic!("unknown backend {other}"),
        };
        assert_eq!((tile.mr, tile.nr), expected);
    }
}
