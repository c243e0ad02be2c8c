use spg_tensor::Matrix;

use crate::{check_dims, GemmError};

/// Reference triple-loop matrix multiply: `C = A * B`.
///
/// Unblocked and unvectorized; exists as the correctness oracle for every
/// optimized kernel in the workspace and as the "no blocking" end of the
/// blocking ablation.
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
/// let a = Matrix::from_vec(1, 2, vec![1.0, 2.0])?;
/// let b = Matrix::from_vec(2, 1, vec![3.0, 4.0])?;
/// let c = spg_gemm::gemm_naive(&a, &b)?;
/// assert_eq!(c.as_slice(), &[11.0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
// lint: allow(test-only) the correctness oracle the kernels' tests compare against
pub fn gemm_naive(a: &Matrix, b: &Matrix) -> Result<Matrix, GemmError> {
    check_dims(a.rows(), a.cols(), b.rows(), b.cols())?;
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    spg_telemetry::record_flops(crate::gemm_flops(m, n, k), crate::gemm_flops(m, n, k));
    let mut c = Matrix::zeros(m, n);
    let (av, bv) = (a.as_slice(), b.as_slice());
    let cv = c.as_mut_slice();
    for i in 0..m {
        for p in 0..k {
            let aip = av[i * k + p];
            if aip == 0.0 {
                continue;
            }
            let brow = &bv[p * n..(p + 1) * n];
            let crow = &mut cv[i * n..(i + 1) * n];
            for (cj, bj) in crow.iter_mut().zip(brow) {
                *cj += aip * bj;
            }
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_by_two() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = gemm_naive(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let b = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(gemm_naive(&a, &b).unwrap(), b);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(gemm_naive(&a, &b), Err(GemmError::DimensionMismatch { .. })));
    }
}
