//! Transposed-left-operand multiply: `C = A^T * B` without materializing
//! `A^T`.
//!
//! The backward error propagation of Unfold+GEMM computes
//! `E_U = E_O^T * W` (Sec. 2.3); with only a plain `gemm`, the gradient
//! matrix must first be transposed into a scratch buffer — pure traffic.
//! Packing already reorders operands into panels, so the transpose can be
//! folded into the A-panel packing for free.

use spg_tensor::Matrix;

use crate::blocked::gemm_blocked;
use crate::kernels::{pack_at, Tile};
use crate::{check_dims, GemmError};

/// Computes `C = A^T * B` where `a` is `k x m` and `b` is `k x n`, both
/// row-major. Equivalent to `gemm(&a.transposed(), b)` without the
/// intermediate transpose.
///
/// # Errors
///
/// Returns [`GemmError::DimensionMismatch`] if `a.rows() != b.rows()`.
///
/// # Example
///
/// ```
/// use spg_tensor::Matrix;
/// use spg_gemm::{gemm, gemm_at_b};
///
/// let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
/// let b = Matrix::from_vec(2, 2, vec![7.0, 8.0, 9.0, 10.0])?;
/// let fused = gemm_at_b(&a, &b)?;
/// let via_transpose = gemm(&a.transposed(), &b)?;
/// assert_eq!(fused.as_slice(), via_transpose.as_slice());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn gemm_at_b(a: &Matrix, b: &Matrix) -> Result<Matrix, GemmError> {
    // A^T is m x k with m = a.cols(), k = a.rows(); inner dim must match
    // b.rows().
    check_dims(a.cols(), a.rows(), b.rows(), b.cols())?;
    let (m, k, n) = (a.cols(), a.rows(), b.cols());
    let mut c = Matrix::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return Ok(c);
    }
    spg_telemetry::record_flops(crate::gemm_flops(m, n, k), crate::gemm_flops(m, n, k));
    let mut a_pack = Vec::new();
    let mut b_pack = Vec::new();
    gemm_at_b_slice(
        k,
        m,
        n,
        a.as_slice(),
        b.as_slice(),
        c.as_mut_slice(),
        &mut a_pack,
        &mut b_pack,
    );
    Ok(c)
}

/// Raw-slice `C += A^T * B` with caller-owned packing buffers.
///
/// `a` is the untransposed `k x m` left operand and `b` is `k x n`, both
/// contiguous row-major; the product accumulates into the `m x n` slice
/// `c`. `a_pack` / `b_pack` are panel-packing scratch vectors that grow on
/// first use and are reused afterwards, so steady-state calls with stable
/// shapes perform no heap allocation. Records no telemetry — callers own
/// the flop accounting (mirroring [`gemm_slice`](crate::gemm_slice)).
///
/// # Panics
///
/// Panics if a slice length disagrees with the given dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_at_b_slice(
    k: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    a_pack: &mut Vec<f32>,
    b_pack: &mut Vec<f32>,
) {
    assert_eq!(a.len(), k * m, "gemm_at_b_slice: a length mismatch");
    assert_eq!(b.len(), k * n, "gemm_at_b_slice: b length mismatch");
    assert_eq!(c.len(), m * n, "gemm_at_b_slice: c length mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // A^T is m x k, read column-wise out of the k x m `a` (lda = m).
    gemm_blocked(Tile::host(), pack_at, m, n, k, a, m, b, n, c, n, a_pack, b_pack);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocked::{KC, MC};
    use crate::{gemm, gemm_naive};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn matches_explicit_transpose() {
        let mut rng = SmallRng::seed_from_u64(77);
        for &(k, m, n) in &[(1usize, 1usize, 1usize), (7, 5, 9), (17, 23, 13), (64, 100, 37)] {
            let a = Matrix::random_uniform(k, m, 1.0, &mut rng);
            let b = Matrix::random_uniform(k, n, 1.0, &mut rng);
            let fused = gemm_at_b(&a, &b).unwrap();
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
        let fused = gemm_at_b(&a, &b).unwrap();
        let oracle = gemm(&a.transposed(), &b).unwrap();
        assert!(fused.max_abs_diff(&oracle).unwrap() < 1e-2);
    }

    #[test]
    fn slice_variant_accumulates_and_reuses_packs() {
        let mut rng = SmallRng::seed_from_u64(79);
        let a = Matrix::random_uniform(12, 9, 1.0, &mut rng);
        let b = Matrix::random_uniform(12, 7, 1.0, &mut rng);
        let oracle = gemm_naive(&a.transposed(), &b).unwrap();
        let mut c = vec![0.0f32; 9 * 7];
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        gemm_at_b_slice(12, 9, 7, a.as_slice(), b.as_slice(), &mut c, &mut pa, &mut pb);
        let caps = (pa.capacity(), pb.capacity());
        // Second call accumulates and must not regrow the pack buffers.
        gemm_at_b_slice(12, 9, 7, a.as_slice(), b.as_slice(), &mut c, &mut pa, &mut pb);
        assert_eq!(caps, (pa.capacity(), pb.capacity()));
        for (got, want) in c.iter().zip(oracle.as_slice()) {
            assert!((got - 2.0 * want).abs() < 1e-3);
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = Matrix::zeros(3, 2);
        let b = Matrix::zeros(4, 2); // inner dims 3 vs 4
        assert!(matches!(gemm_at_b(&a, &b), Err(GemmError::DimensionMismatch { .. })));
    }

    #[test]
    fn empty_operands() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(0, 2);
        let c = gemm_at_b(&a, &b).unwrap();
        assert_eq!((c.rows(), c.cols()), (3, 2));
        assert!(c.as_slice().iter().all(|v| *v == 0.0));
    }
}
