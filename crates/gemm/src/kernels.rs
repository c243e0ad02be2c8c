//! The register-tiled GEMM micro-kernel and panel packing.
//!
//! The blocked driver packs operand panels for one register [`Tile`] and
//! runs [`micro_tile`] over them; the tile is resolved once per GEMM call
//! from [`detect_simd_level`]. The micro-kernel is one source over the
//! [`simd`](crate::simd) vocabulary: it holds the `MR x NR` accumulator in
//! vector registers and issues one fused multiply-add per accumulator
//! register per packed `k` step — a 12x32 tile in twenty-four ZMM
//! registers on AVX-512F, a 6x16 tile in twelve YMM registers on AVX2+FMA,
//! the same 6x16 tile in portable vectors elsewhere. The tile only decides
//! which elements of C share a register: every tier computes every element
//! as the same single-rounding FMA chain over `k`.

use crate::simd::{detect_simd_level, SimdLevel, Vector};

/// Accumulator length that holds the largest tile (AVX-512's 12x32).
pub(crate) const ACC_LEN: usize = 12 * 32;

/// Vectors per row of every register tile.
pub(crate) const TILE_VECTORS: usize = 2;

/// Rows of the register tile at `lanes`-lane vectors: 12 at 16 lanes
/// (24 of 32 ZMM registers), 6 at 8 (12 of 16 YMM registers). On a
/// Sapphire Rapids core the 16-lane tile lifts the ImageNet-1K conv1
/// GEMMs from 62-66 to 94-108 GFlop/s; a register-only FMA loop peaks at
/// 140-145 GFlop/s with 16-lane and 77-94 with 8-lane vectors.
pub(crate) const fn tile_rows(lanes: usize) -> usize {
    if lanes == 16 {
        12
    } else {
        6
    }
}

/// A register tile: the `mr x nr` block of C one micro-kernel call
/// computes, the shape the operand panels are packed for, and the tier
/// whose vectors hold it.
#[derive(Clone, Copy)]
pub(crate) struct Tile {
    /// Rows of the tile, and of every packed A panel.
    pub(crate) mr: usize,
    /// Columns of the tile, and of every packed B panel.
    pub(crate) nr: usize,
    /// The tier the micro-kernel runs on.
    pub(crate) level: SimdLevel,
}

impl Tile {
    /// The tile of the widest instruction set the running CPU has.
    pub(crate) fn host() -> Tile {
        Tile::at(SimdLevel::Avx512Fma)
    }

    /// The tile of `level`, or of the host's level when that is narrower —
    /// so a tile's kernel always runs on this CPU.
    pub(crate) fn at(level: SimdLevel) -> Tile {
        let level = level.min(detect_simd_level());
        let lanes = level.lanes();
        Tile { mr: tile_rows(lanes), nr: TILE_VECTORS * lanes, level }
    }
}

/// The micro-kernel: writes the row-major `MR x (NV * LANES)` tile
/// `acc[r * nr + c] = sum_p ap[p * MR + r] * bp[p * nr + c]` of two packed
/// `kc`-deep panels to the head of `acc`, its accumulator an
/// `[[V; NV]; MR]` array the constant trip counts keep in `MR * NV`
/// registers: per packed `k` step, `NV` loads of the B panel and `MR`
/// broadcasts of the A panel feed `MR * NV` fused multiply-adds. Panics if
/// a panel holds fewer than `kc` steps.
///
/// # Safety
///
/// The running CPU has `V`'s target features.
#[inline(always)]
pub(crate) unsafe fn micro_tile<V: Vector, const MR: usize, const NV: usize>(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    acc: &mut [f32; ACC_LEN],
) {
    const { assert!(MR * NV * V::LANES <= ACC_LEN) };
    let lanes = V::LANES;
    // SAFETY: the CPU has `V`'s features (this fn's contract); every load
    // reads vector j < NV of an `NV * LANES`-float step of `bp`, and every
    // store writes one `LANES`-float chunk of `acc`.
    unsafe {
        let mut c = [[V::zero(); NV]; MR];
        let a_steps = ap[..kc * MR].as_chunks::<MR>().0;
        for (a, b) in a_steps.iter().zip(bp[..kc * NV * lanes].chunks_exact(NV * lanes)) {
            let mut bv = [V::zero(); NV];
            for (j, v) in bv.iter_mut().enumerate() {
                *v = V::load(b.as_ptr().add(j * lanes));
            }
            for (row, &ar) in c.iter_mut().zip(a) {
                let av = V::splat(ar);
                for (cv, bj) in row.iter_mut().zip(&bv) {
                    *cv = cv.fma(av, *bj);
                }
            }
        }
        for (dst, v) in acc.chunks_exact_mut(lanes).zip(c.as_flattened()) {
            v.store(dst.as_mut_ptr());
        }
    }
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

/// The right operand of a blocked multiply, as the micro-kernel reads it:
/// the one seam through which a `k x n` operand reaches the packed panels.
///
/// A dense row-major matrix ([`RowMajor`]) is one implementation; an
/// operand that is never materialized — the unfold matrix of a CHW image,
/// gathered straight from the image — is another. The multiply's bits
/// depend only on the values packed, so two implementations that pack the
/// same values give the same product.
pub trait RightOperand: Sync {
    /// Packs the `kc x nc` block whose first element is `(row0, col0)`
    /// into `nr`-column panels: panel-major, then `k`, then column, so
    /// element `(row0 + p, col0 + i * nr + j)` lands at
    /// `panels[(i * kc + p) * nr + j]`. `panels` is exactly
    /// `nc.div_ceil(nr) * kc * nr` long and holds stale values: every
    /// element must be written, the columns past `nc` with zeros.
    fn pack(&self, nr: usize, row0: usize, col0: usize, kc: usize, nc: usize, panels: &mut [f32]);
}

/// A row-major matrix with leading dimension `ld`: the dense
/// [`RightOperand`].
#[derive(Debug, Clone, Copy)]
pub struct RowMajor<'a> {
    data: &'a [f32],
    ld: usize,
}

impl<'a> RowMajor<'a> {
    /// The matrix whose row `r` starts at `data[r * ld]`.
    pub fn new(data: &'a [f32], ld: usize) -> Self {
        RowMajor { data, ld }
    }
}

impl RightOperand for RowMajor<'_> {
    fn pack(&self, nr: usize, row0: usize, col0: usize, kc: usize, nc: usize, panels: &mut [f32]) {
        for (i, panel) in panels.chunks_exact_mut(kc * nr).enumerate() {
            let cols = (nc - i * nr).min(nr);
            for (p, dst) in panel.chunks_exact_mut(nr).enumerate() {
                let src = (row0 + p) * self.ld + col0 + i * nr;
                dst[..cols].copy_from_slice(&self.data[src..src + cols]);
                dst[cols..].fill(0.0);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::simd::{on_tier, Nest};

    /// One tile per instruction set the host runs, widest last (just the
    /// portable tile under Miri or on a host without AVX2+FMA).
    pub(crate) fn tiles() -> Vec<(SimdLevel, Tile)> {
        [SimdLevel::Scalar, SimdLevel::Avx2Fma, SimdLevel::Avx512Fma]
            .into_iter()
            .filter(|&level| level <= detect_simd_level())
            .map(|level| (level, Tile::at(level)))
            .collect()
    }

    /// One [`micro_tile`] call on `tile`'s tier.
    struct Micro<'a> {
        tile: Tile,
        kc: usize,
        ap: &'a [f32],
        bp: &'a [f32],
        acc: &'a mut [f32; ACC_LEN],
    }

    impl Nest for Micro<'_> {
        type Out = ();

        #[inline(always)]
        unsafe fn run<V: Vector, const L: usize>(self) {
            let Micro { tile, kc, ap, bp, acc } = self;
            assert_eq!((tile.mr, tile.nr), (tile_rows(L), TILE_VECTORS * L));
            // SAFETY: the CPU has `V`'s features (this fn's contract).
            unsafe {
                match tile_rows(L) {
                    12 => micro_tile::<V, 12, TILE_VECTORS>(kc, ap, bp, acc),
                    _ => micro_tile::<V, 6, TILE_VECTORS>(kc, ap, bp, acc),
                }
            }
        }
    }

    fn run(tile: Tile, kc: usize, ap: &[f32], bp: &[f32], acc: &mut [f32; ACC_LEN]) {
        on_tier(tile.level, Micro { tile, kc, ap, bp, acc });
    }

    /// The tile's FMA chain over `k`, spelled with `f32::mul_add`.
    fn reference_tile(t: Tile, kc: usize, ap: &[f32], bp: &[f32]) -> Vec<f32> {
        let mut acc = vec![0.0f32; t.mr * t.nr];
        for p in 0..kc {
            for r in 0..t.mr {
                for c in 0..t.nr {
                    let a = &mut acc[r * t.nr + c];
                    *a = ap[p * t.mr + r].mul_add(bp[p * t.nr + c], *a);
                }
            }
        }
        acc
    }

    /// Every tier's tile is the fused chain, bit for bit.
    #[test]
    fn microkernel_matches_reference_exactly() {
        let kc = 37;
        for (level, t) in tiles() {
            let ap: Vec<f32> = (0..kc * t.mr).map(|i| (i as f32 * 0.37).sin()).collect();
            let bp: Vec<f32> = (0..kc * t.nr).map(|i| (i as f32 * 0.11).cos()).collect();
            let mut fast = [0.0f32; ACC_LEN];
            run(t, kc, &ap, &bp, &mut fast);
            assert_eq!(fast[..t.mr * t.nr], reference_tile(t, kc, &ap, &bp), "{level:?}");
        }
    }

    #[test]
    fn zero_kc_yields_zero_tile() {
        for (level, t) in tiles() {
            let mut acc = [1.0f32; ACC_LEN];
            run(t, 0, &[], &[], &mut acc);
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
            let mut out = vec![f32::NAN; 2 * t.nr];
            RowMajor::new(&b, 3).pack(t.nr, 0, 0, 2, 3, &mut out);
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
            let mut bp = vec![0.0; 2 * t.nr];
            RowMajor::new(&a, 4).pack(t.nr, 1, 2, 2, 2, &mut bp);
            assert_eq!(bp[..2], [6.0, 7.0], "{level:?}");
            assert_eq!(bp[t.nr..t.nr + 2], [10.0, 11.0], "{level:?}");
        }
    }

    /// The host's tier and the tile `Tile::host` dispatches (CI's SIMD
    /// legs run this with `--nocapture` to log which one they exercised).
    #[test]
    fn backend_name_is_known() {
        let (level, tile) = (detect_simd_level(), Tile::host());
        println!("simd level {level:?} ({}), GEMM tile {}x{}", level.id(), tile.mr, tile.nr);
        let expected = match level {
            SimdLevel::Avx512Fma => (12, 32),
            SimdLevel::Avx2Fma | SimdLevel::Scalar => (6, 16),
        };
        assert_eq!((tile.mr, tile.nr, tile.level), (expected.0, expected.1, level));
    }
}
