use spg_tensor::Matrix;

use crate::kernels::{pack_a, pack_b, Tile, ACC_LEN};
use crate::{check_dims, GemmError};

/// Cache block of the `k` dimension (packed A/B panel depth). This alone
/// fixes each element of C's arithmetic: a chain of multiply-adds over `k`
/// inside each `KC`-deep block, the blocks added to C in order.
pub(crate) const KC: usize = 256;
/// Cache block of the `m` dimension (rows of packed A per block).
pub(crate) const MC: usize = 72;
/// Cache block of the `n` dimension (columns of packed B per block).
const NC: usize = 1024;

/// Packs an `mc x kc` block of the left operand at `(row0, col0)` for a
/// tile: [`pack_a`] for `A`, [`pack_at`](crate::kernels::pack_at) for an
/// `A` stored transposed.
pub(crate) type PackA = fn(Tile, &[f32], usize, usize, usize, usize, usize, &mut Vec<f32>);

/// Blocked, packed, register-tiled matrix multiply: `C = A * B`.
///
/// This is the workspace's stand-in for an optimized BLAS `sgemm`: a
/// three-level cache blocking (`KC`/`MC`/`NC`) around a register-tiled
/// micro-kernel at the host's vector width (12x32 under AVX-512F, 6x16
/// under AVX2+FMA, scalar elsewhere), with both operands packed into
/// contiguous panels — the structure described by Goto & van de Geijn and
/// referenced by the paper's locality discussion (Sec. 4.2).
///
/// # Errors
///
/// Returns [`GemmError::DimensionMismatch`] if `a.cols() != b.rows()`.
///
/// # Example
///
/// ```
/// use spg_tensor::Matrix;
///
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0])?;
/// let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0])?;
/// let c = spg_gemm::gemm(&a, &b)?;
/// assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn gemm(a: &Matrix, b: &Matrix) -> Result<Matrix, GemmError> {
    check_dims(a.rows(), a.cols(), b.rows(), b.cols())?;
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_into(a, b, &mut c)?;
    Ok(c)
}

/// Blocked multiply accumulating into an existing matrix: `C += A * B`.
///
/// # Errors
///
/// Returns [`GemmError::DimensionMismatch`] if the operand inner dimensions
/// differ, or [`GemmError::OutputShapeMismatch`] if `c` is not
/// `a.rows() x b.cols()`.
pub fn gemm_into(a: &Matrix, b: &Matrix, c: &mut Matrix) -> Result<(), GemmError> {
    check_dims(a.rows(), a.cols(), b.rows(), b.cols())?;
    if c.rows() != a.rows() || c.cols() != b.cols() {
        return Err(GemmError::OutputShapeMismatch {
            expected_rows: a.rows(),
            expected_cols: b.cols(),
            actual_rows: c.rows(),
            actual_cols: c.cols(),
        });
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    // A dense multiply performs every flop it is charged for, so useful
    // and total coincide (telemetry is a no-op unless enabled).
    spg_telemetry::record_flops(crate::gemm_flops(m, n, k), crate::gemm_flops(m, n, k));
    gemm_slice(m, n, k, a.as_slice(), k, b.as_slice(), n, c.as_mut_slice(), n);
    Ok(())
}

/// Blocked multiply over raw row-major slices: `C += A * B`, where `A` is
/// `m x k` with leading dimension `lda`, `B` is `k x n` with leading
/// dimension `ldb`, and `C` is `m x n` with leading dimension `ldc`.
///
/// This is the primitive the parallel schedules build on: Parallel-GEMM
/// hands each worker a contiguous row band of `A` and `C` through this
/// entry point without copying. The operand panels are packed into two
/// buffers the call allocates and frees (at most one `MC x KC` and one
/// `KC x NC` block, about 1 MB): a call touches no shared scratch, which is what
/// lets row bands run it concurrently, and is not allocation-free.
///
/// # Panics
///
/// Panics if any slice is too short for its stated geometry.
#[allow(clippy::too_many_arguments)]
pub fn gemm_slice(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    assert!(lda >= k && ldb >= n && ldc >= n, "leading dimensions too small");
    assert!(m == 0 || a.len() >= (m - 1) * lda + k, "a slice too short");
    assert!(k == 0 || b.len() >= (k - 1) * ldb + n, "b slice too short");
    assert!(m == 0 || c.len() >= (m - 1) * ldc + n, "c slice too short");
    if m == 0 || n == 0 || k == 0 {
        return;
    }

    let (mut a_pack, mut b_pack) = (Vec::new(), Vec::new());
    gemm_blocked(Tile::host(), pack_a, m, n, k, a, lda, b, ldb, c, ldc, &mut a_pack, &mut b_pack);
}

/// The blocked loop nest behind every multiply in this crate:
/// `C += op(A) * B` with `op(A)`'s blocks packed by `pack` and both
/// operands packed for `tile`, the micro-kernel's tiles added into `C`.
/// Assumes the caller checked the geometry; a zero dimension is a no-op.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_blocked(
    tile: Tile,
    pack: PackA,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    a_pack: &mut Vec<f32>,
    b_pack: &mut Vec<f32>,
) {
    let (mr, nr) = (tile.mr, tile.nr);
    let mut acc = [0.0f32; ACC_LEN];
    for jc in (0..n).step_by(NC) {
        let nc = (n - jc).min(NC);
        for pc in (0..k).step_by(KC) {
            let kc = (k - pc).min(KC);
            pack_b(tile, b, ldb, pc, jc, kc, nc, b_pack);
            for ic in (0..m).step_by(MC) {
                let mc = (m - ic).min(MC);
                pack(tile, a, lda, ic, pc, mc, kc, a_pack);
                for (jp, bp) in b_pack.chunks_exact(kc * nr).enumerate() {
                    let cols = (nc - jp * nr).min(nr);
                    for (ip, ap) in a_pack.chunks_exact(kc * mr).enumerate() {
                        tile.run(kc, ap, bp, &mut acc);
                        let rows = (mc - ip * mr).min(mr);
                        for (r, src) in acc.chunks_exact(nr).take(rows).enumerate() {
                            let cbase = (ic + ip * mr + r) * ldc + jc + jp * nr;
                            for (d, s) in c[cbase..cbase + cols].iter_mut().zip(src) {
                                *d += s;
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm_naive;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
        let diff = a.max_abs_diff(b).unwrap();
        assert!(diff < tol, "max diff {diff}");
    }

    #[test]
    fn matches_naive_on_random_sizes() {
        let mut rng = SmallRng::seed_from_u64(42);
        for &(m, k, n) in
            &[(1, 1, 1), (3, 5, 7), (6, 16, 6), (7, 17, 19), (64, 64, 64), (100, 37, 113)]
        {
            let a = Matrix::random_uniform(m, k, 1.0, &mut rng);
            let b = Matrix::random_uniform(k, n, 1.0, &mut rng);
            let fast = gemm(&a, &b).unwrap();
            let slow = gemm_naive(&a, &b).unwrap();
            assert_close(&fast, &slow, 1e-3);
        }
    }

    #[test]
    fn sizes_crossing_cache_blocks() {
        let mut rng = SmallRng::seed_from_u64(1);
        // Exceed KC and MC to exercise multi-block accumulation.
        let (m, k, n) = (MC + 5, KC + 9, 40);
        let a = Matrix::random_uniform(m, k, 1.0, &mut rng);
        let b = Matrix::random_uniform(k, n, 1.0, &mut rng);
        assert_close(&gemm(&a, &b).unwrap(), &gemm_naive(&a, &b).unwrap(), 1e-2);
    }

    #[test]
    fn gemm_into_accumulates() {
        let a = Matrix::from_vec(1, 1, vec![2.0]).unwrap();
        let b = Matrix::from_vec(1, 1, vec![3.0]).unwrap();
        let mut c = Matrix::from_vec(1, 1, vec![1.0]).unwrap();
        gemm_into(&a, &b, &mut c).unwrap();
        assert_eq!(c.get(0, 0), 7.0);
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(gemm(&a, &b).is_err());
        let b2 = Matrix::zeros(3, 2);
        let mut c = Matrix::zeros(2, 3);
        assert!(gemm_into(&a, &b2, &mut c).is_err());
    }

    #[test]
    fn gemm_slice_with_row_band() {
        // Compute only rows 1..3 of a 4x4 product via offset slices.
        let mut rng = SmallRng::seed_from_u64(2);
        let a = Matrix::random_uniform(4, 4, 1.0, &mut rng);
        let b = Matrix::random_uniform(4, 4, 1.0, &mut rng);
        let full = gemm_naive(&a, &b).unwrap();
        let mut c = Matrix::zeros(4, 4);
        gemm_slice(2, 4, 4, &a.as_slice()[4..], 4, b.as_slice(), 4, &mut c.as_mut_slice()[4..], 4);
        for j in 0..4 {
            assert_eq!(c.get(0, j), 0.0);
            assert!((c.get(1, j) - full.get(1, j)).abs() < 1e-4);
            assert!((c.get(2, j) - full.get(2, j)).abs() < 1e-4);
            assert_eq!(c.get(3, j), 0.0);
        }
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut c = [1.0f32; 4];
        gemm_slice(0, 2, 2, &[], 2, &[1.0, 2.0, 3.0, 4.0], 2, &mut c, 2);
        assert_eq!(c, [1.0; 4]);
    }

    /// Every SIMD tile computes each element of C as the same FMA chain,
    /// so the blocked, transposed and row-banded multiplies agree to the
    /// bit across the tiers this host runs — on `m`, `n` ragged against
    /// every tile, around each `KC` boundary, into a pre-filled C. The only
    /// test that runs the AVX2 tile on an AVX-512 host. Without SIMD (Miri)
    /// the scalar tile stands in, and the three entries must still agree.
    #[test]
    fn simd_tiers_are_bit_identical() {
        use crate::kernels::{pack_at, tests::tiles, SimdLevel};
        use crate::parallel::parallel_gemm_slice_on;

        let all = tiles();
        let simd: Vec<Tile> =
            all.iter().filter(|(level, _)| *level > SimdLevel::Scalar).map(|&(_, t)| t).collect();
        let tiers = if simd.is_empty() { vec![all[0].1] } else { simd };
        let (shapes, depths): (&[(usize, usize)], &[usize]) = if cfg!(miri) {
            (&[(7, 19)], &[0, 1, 257])
        } else {
            (&[(77, 37), (5, 1043)], &[0, 1, 255, 256, 257, 600])
        };
        let bits = |c: &[f32]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = SmallRng::seed_from_u64(3);
        for &(m, n) in shapes {
            for &k in depths {
                let a = Matrix::random_uniform(m, k, 1.0, &mut rng);
                let at = a.transposed();
                let b = Matrix::random_uniform(k, n, 1.0, &mut rng);
                let c0: Vec<f32> = (0..m * n).map(|i| (i % 5) as f32 - 2.5).collect();
                let (av, atv, bv) = (a.as_slice(), at.as_slice(), b.as_slice());
                let mut want = None;
                for &tile in &tiers {
                    let (mut pa, mut pb) = (Vec::new(), Vec::new());
                    let mut c = c0.clone();
                    gemm_blocked(tile, pack_a, m, n, k, av, k, bv, n, &mut c, n, &mut pa, &mut pb);
                    let want = want.get_or_insert_with(|| bits(&c));
                    let at_shape = (m, n, k, tile.mr, tile.nr);
                    assert_eq!(&bits(&c), want, "gemm_slice {at_shape:?}");
                    let mut c = c0.clone();
                    gemm_blocked(
                        tile, pack_at, m, n, k, atv, m, bv, n, &mut c, n, &mut pa, &mut pb,
                    );
                    assert_eq!(&bits(&c), want, "gemm_at_b_slice {at_shape:?}");
                    for split in [1, 2, 3, 7] {
                        let mut c = c0.clone();
                        parallel_gemm_slice_on(tile, m, n, k, av, bv, &mut c, split, split);
                        assert_eq!(&bits(&c), want, "parallel_gemm_slice/{split} {at_shape:?}");
                    }
                }
            }
        }
    }
}
