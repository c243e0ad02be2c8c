use std::fmt;

use rand::distributions::{Distribution, Uniform};
use rand::Rng;

use crate::TensorError;

/// An owned, row-major 2-D matrix of `f32`.
///
/// This is the currency of the GEMM crate: the unfold step produces a
/// `Matrix`, GEMM consumes and produces them, and the sparse formats
/// convert from them.
///
/// # Example
///
/// ```
/// use spg_tensor::Matrix;
///
/// let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
/// assert_eq!((m.rows(), m.cols()), (2, 3));
/// assert_eq!(m.transposed().as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
/// # Ok::<(), spg_tensor::TensorError>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len() != rows * cols`.
    // lint: allow(test-only) tests and doc examples build operands from literals
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch { expected: rows * cols, actual: data.len() });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix with entries drawn uniformly from `[-scale, scale]`.
    pub fn random_uniform<R: Rng>(rows: usize, cols: usize, scale: f32, rng: &mut R) -> Self {
        let dist = Uniform::new_inclusive(-scale, scale);
        Matrix { rows, cols, data: (0..rows * cols).map(|_| dist.sample(rng)).collect() }
    }

    /// Creates a matrix where each entry is zero with probability `sparsity`
    /// and otherwise uniform in `[-scale, scale]`.
    ///
    /// This models the moderately sparse error-gradient matrices that drive
    /// the paper's goodput experiments (Sec. 3.3).
    pub fn random_sparse<R: Rng>(
        rows: usize,
        cols: usize,
        sparsity: f64,
        scale: f32,
        rng: &mut R,
    ) -> Self {
        let dist = Uniform::new_inclusive(-scale, scale);
        let data = (0..rows * cols)
            .map(|_| if rng.gen_bool(sparsity.clamp(0.0, 1.0)) { 0.0 } else { dist.sample(rng) })
            .collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows the full row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the full row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the transpose as a new matrix.
    // lint: allow(test-only) the oracle the transposed-operand GEMM tests compare against
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Maximum absolute element-wise difference from `other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if dimensions differ.
    // lint: allow(test-only) the tolerance check of the kernels' oracle tests
    pub fn max_abs_diff(&self, other: &Matrix) -> Result<f32, TensorError> {
        if self.rows != other.rows || self.cols != other.cols {
            let (expected, actual) = (self.data.len(), other.data.len());
            return Err(TensorError::LengthMismatch { expected, actual });
        }
        Ok(self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max))
    }
}

impl Default for Matrix {
    /// An empty `0 x 0` matrix that allocates nothing.
    fn default() -> Self {
        Matrix { rows: 0, cols: 0, data: Vec::new() }
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{}", self.rows, self.cols)?;
        if self.data.len() <= 9 {
            write!(f, ", {:?})", self.data)
        } else {
            write!(f, ", head={:?}..)", &self.data[..6])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let mut rng = SmallRng::seed_from_u64(3);
        let m = Matrix::random_uniform(5, 7, 1.0, &mut rng);
        assert_eq!(m.transposed().transposed(), m);
        assert_eq!(m.transposed().as_slice()[3 * 5 + 2], m.as_slice()[2 * 7 + 3]);
    }

    fn sparsity(m: &Matrix) -> f64 {
        m.data.iter().filter(|v| **v == 0.0).count() as f64 / m.data.len() as f64
    }

    #[test]
    fn random_sparse_hits_target_roughly() {
        let mut rng = SmallRng::seed_from_u64(9);
        let m = Matrix::random_sparse(100, 100, 0.8, 1.0, &mut rng);
        assert!((sparsity(&m) - 0.8).abs() < 0.05, "sparsity {}", sparsity(&m));
    }

    #[test]
    fn sparsity_extremes() {
        let mut rng = SmallRng::seed_from_u64(9);
        assert_eq!(sparsity(&Matrix::random_sparse(10, 10, 0.0, 1.0, &mut rng)), 0.0);
        assert_eq!(sparsity(&Matrix::random_sparse(10, 10, 1.0, 1.0, &mut rng)), 1.0);
    }

    #[test]
    fn max_abs_diff_checks_shape() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 2);
        assert!(a.max_abs_diff(&b).is_err());
    }
}
