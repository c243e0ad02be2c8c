//! Transposed-left-operand multiply: `C = A^T * B` without materializing
//! `A^T`.
//!
//! The backward error propagation of Unfold+GEMM computes
//! `E_U^T = W^T * E_O` (Sec. 2.3); with only a plain `gemm`, the weight
//! matrix must first be transposed into a scratch buffer — pure traffic.
//! Packing already reorders operands into panels, so the transpose can be
//! folded into the A-panel packing for free.

use crate::blocked::Update;
use crate::kernels::{pack_at, RowMajor, Tile};
use crate::parallel::gemm_row_bands;

/// Raw-slice `C = A^T * B` with caller-owned packing buffers, the rows
/// of `C` split into `bands` row bands run on at most `threads` threads.
///
/// `a` is the untransposed `k x m` left operand and `b` is `k x n`, both
/// contiguous row-major; the product is stored into the `m x n` slice
/// `c`, whose old contents are never read (the first `KC` block's tiles
/// are stored, the later ones added), so `c` needs no zeroing. Each
/// element is the chain a `C += A^T * B` onto a zeroed `c` computes but
/// for the sign of a zero: a first block summing to `-0.0` is stored as
/// `-0.0`, where `0.0 + -0.0` is `0.0`. A band of rows of `C` reads the
/// matching *columns* of `a`, so the split needs no transposed copy. The
/// partition and its bit-identity for
/// every `bands` and `threads` are [`parallel_gemm_slice`]'s. On one
/// thread `a_pack` / `b_pack` are the panel-packing scratch vectors, grown
/// on first use and reused afterwards, so steady-state calls with stable
/// shapes perform no heap allocation; with more, each band packs into
/// buffers of its own. Records no telemetry — callers own the flop
/// accounting (mirroring [`gemm_slice`](crate::gemm_slice)).
///
/// # Panics
///
/// Panics if a slice length disagrees with the given dimensions or
/// `bands` or `threads` is zero.
///
/// [`parallel_gemm_slice`]: crate::parallel_gemm_slice
#[allow(clippy::too_many_arguments)]
pub fn gemm_at_b_slice(
    k: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    bands: usize,
    threads: usize,
    a_pack: &mut Vec<f32>,
    b_pack: &mut Vec<f32>,
) {
    assert!(bands > 0 && threads > 0, "gemm_at_b_slice: zero threads");
    assert_eq!(a.len(), k * m, "gemm_at_b_slice: a length mismatch");
    assert_eq!(b.len(), k * n, "gemm_at_b_slice: b length mismatch");
    assert_eq!(c.len(), m * n, "gemm_at_b_slice: c length mismatch");
    // A^T is m x k, read column-wise out of the k x m `a` (lda = m): row r
    // of A^T starts at column r of `a`.
    let (b, c, packs) = (RowMajor::new(b, n), (c, Update::Store), (a_pack, b_pack));
    gemm_row_bands(Tile::host(), (pack_at, m, 1), (m, n, k), a, &b, c, (bands, threads), packs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocked::tests::gemm;
    use crate::blocked::{KC, MC};
    use crate::gemm_naive;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spg_tensor::Matrix;

    /// `a^T * b` on one thread into a matrix of stale NaNs.
    fn at_b(a: &Matrix, b: &Matrix) -> Matrix {
        let (k, m, n) = (a.rows(), a.cols(), b.cols());
        let mut c = Matrix::from_vec(m, n, vec![f32::NAN; m * n]).unwrap();
        let (av, bv, cv) = (a.as_slice(), b.as_slice(), c.as_mut_slice());
        gemm_at_b_slice(k, m, n, av, bv, cv, 1, 1, &mut Vec::new(), &mut Vec::new());
        c
    }

    #[test]
    fn matches_explicit_transpose() {
        let mut rng = SmallRng::seed_from_u64(77);
        for &(k, m, n) in &[(1usize, 1usize, 1usize), (7, 5, 9), (17, 23, 13), (64, 100, 37)] {
            let a = Matrix::random_uniform(k, m, 1.0, &mut rng);
            let b = Matrix::random_uniform(k, n, 1.0, &mut rng);
            let fused = at_b(&a, &b);
            let oracle = gemm_naive(&a.transposed(), &b).unwrap();
            let diff = fused.max_abs_diff(&oracle).unwrap();
            assert!(diff < 1e-3, "{k}x{m}x{n}: {diff}");
        }
    }

    #[test]
    fn crosses_cache_blocks() {
        let mut rng = SmallRng::seed_from_u64(78);
        let a = Matrix::random_uniform(KC + 9, MC + 5, 1.0, &mut rng);
        let b = Matrix::random_uniform(KC + 9, 40, 1.0, &mut rng);
        let fused = at_b(&a, &b);
        let oracle = gemm(&a.transposed(), &b).unwrap();
        assert!(fused.max_abs_diff(&oracle).unwrap() < 1e-2);
    }

    #[test]
    fn slice_variant_overwrites_and_reuses_packs() {
        let mut rng = SmallRng::seed_from_u64(79);
        let a = Matrix::random_uniform(12, 9, 1.0, &mut rng);
        let b = Matrix::random_uniform(12, 7, 1.0, &mut rng);
        let oracle = gemm_naive(&a.transposed(), &b).unwrap();
        let mut c = vec![f32::NAN; 9 * 7];
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        gemm_at_b_slice(12, 9, 7, a.as_slice(), b.as_slice(), &mut c, 1, 1, &mut pa, &mut pb);
        let caps = (pa.capacity(), pb.capacity());
        // Second call overwrites and must not regrow the pack buffers.
        gemm_at_b_slice(12, 9, 7, a.as_slice(), b.as_slice(), &mut c, 1, 1, &mut pa, &mut pb);
        assert_eq!(caps, (pa.capacity(), pb.capacity()));
        for (got, want) in c.iter().zip(oracle.as_slice()) {
            assert!((got - want).abs() < 1e-3);
        }
    }

    /// Row bands of the transposed multiply — ragged against `MR` and
    /// `MC`, more bands than threads, over stale NaNs — are the serial
    /// `gemm_at_b_slice` and `gemm_slice` on an explicit transpose into a
    /// zeroed `C`, to the bit.
    #[test]
    fn row_bands_are_bit_identical_to_the_serial_transposed_gemm() {
        let mut rng = SmallRng::seed_from_u64(80);
        // m crosses MC (72) and divides by neither it nor MR (6); k
        // crosses KC (256), so bands store one k block and add another.
        let (m, k, n) = if cfg!(miri) { (11, 9, 19) } else { (83, 300, 37) };
        let a = Matrix::random_uniform(k, m, 1.0, &mut rng);
        let b = Matrix::random_uniform(k, n, 1.0, &mut rng);
        let (at, av, bv) = (a.transposed(), a.as_slice(), b.as_slice());
        let bits = |c: &[f32]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        let mut serial = vec![f32::NAN; m * n];
        gemm_at_b_slice(k, m, n, av, bv, &mut serial, 1, 1, &mut pa, &mut pb);
        let mut explicit = vec![0.0f32; m * n];
        crate::gemm_slice(m, n, k, at.as_slice(), k, bv, n, &mut explicit, n);
        assert_eq!(bits(&serial), bits(&explicit), "serial vs explicit transpose");
        for (bands, threads) in [(2, 2), (3, 3), (7, 7), (7, 3), (7, 2), (3, 1), (200, 5)] {
            let mut c = vec![f32::NAN; m * n];
            gemm_at_b_slice(k, m, n, av, bv, &mut c, bands, threads, &mut pa, &mut pb);
            assert_eq!(bits(&c), bits(&serial), "bands={bands} threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "b length mismatch")]
    fn dimension_mismatch_panics() {
        // a is 3 x 2 (k = 3), b is 4 x 2: the inner dimensions differ.
        let (a, b, mut c) = ([0.0f32; 6], [0.0f32; 8], [0.0f32; 4]);
        gemm_at_b_slice(3, 2, 2, &a, &b, &mut c, 1, 1, &mut Vec::new(), &mut Vec::new());
    }

    #[test]
    fn empty_operands() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(0, 2);
        let c = at_b(&a, &b);
        assert_eq!((c.rows(), c.cols()), (3, 2));
        assert!(c.as_slice().iter().all(|v| *v == 0.0));
    }
}
