use std::fmt;

use crate::Matrix;

/// A sparse matrix in compressed sparse row (CSR) format.
///
/// Stores the three classic arrays: non-zero `values`, their `col_indices`,
/// and `row_ptr` offsets marking where each row begins (Sec. 4.2 of the
/// paper). Rows with no non-zeros are represented by equal consecutive
/// `row_ptr` entries.
///
/// # Example
///
/// ```
/// use spg_tensor::{Matrix, sparse::Csr};
///
/// let dense = Matrix::from_vec(2, 3, vec![0.0, 5.0, 0.0, 7.0, 0.0, 0.0])?;
/// let csr = Csr::from_dense(&dense);
/// assert_eq!(csr.nnz(), 2);
/// assert_eq!(csr.to_dense(), dense);
/// # Ok::<(), spg_tensor::TensorError>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    values: Vec<f32>,
    col_indices: Vec<u32>,
    row_ptr: Vec<u32>,
}

/// Narrows a column index or nnz count to the stored `u32` width.
#[inline]
fn idx32(i: usize) -> u32 {
    u32::try_from(i).expect("CSR index fits u32")
}

impl Csr {
    /// Builds a CSR matrix from a dense row-major matrix, dropping zeros.
    // lint: allow(test-only) the dense round trip the sparse formats' tests check
    pub fn from_dense(dense: &Matrix) -> Self {
        let (rows, cols) = (dense.rows(), dense.cols());
        let mut values = Vec::new();
        let mut col_indices = Vec::new();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0u32);
        for r in 0..rows {
            for (c, &v) in dense.as_slice()[r * cols..(r + 1) * cols].iter().enumerate() {
                if v != 0.0 {
                    values.push(v);
                    col_indices.push(idx32(c));
                }
            }
            row_ptr.push(idx32(values.len()));
        }
        Csr { rows, cols, values, col_indices, row_ptr }
    }

    /// Rebuilds this matrix in place from the column window `c0..c1` of a
    /// dense row-major buffer whose rows are `stride` elements apart.
    ///
    /// The three CSR arrays are reused, so steady-state rebuilds with a
    /// stable sparsity level perform no heap allocation. The resulting
    /// matrix has `c1 - c0` columns with *window-local* column indices —
    /// exactly the per-tile rebuild the CT-CSR staging path needs.
    ///
    /// # Panics
    ///
    /// Panics if `c0 > c1`, `c1 > stride`, or `data.len() != rows * stride`.
    pub fn assign_from_columns(
        &mut self,
        rows: usize,
        stride: usize,
        c0: usize,
        c1: usize,
        data: &[f32],
    ) {
        assert!(c0 <= c1 && c1 <= stride, "column window out of bounds");
        assert_eq!(data.len(), rows * stride, "dense buffer length mismatch");
        self.rows = rows;
        self.cols = c1 - c0;
        self.values.clear();
        self.col_indices.clear();
        self.row_ptr.clear();
        self.row_ptr.push(0u32);
        for r in 0..rows {
            let row = &data[r * stride + c0..r * stride + c1];
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    self.values.push(v);
                    self.col_indices.push(idx32(c));
                }
            }
            self.row_ptr.push(idx32(self.values.len()));
        }
    }

    /// Number of stored non-zero values.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The non-zero values, row by row.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Column index of each non-zero value.
    pub fn col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    /// Row start offsets (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Expands back to a dense matrix.
    // lint: allow(test-only) the dense round trip the sparse formats' tests check
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        let dense = out.as_mut_slice();
        for (r, span) in self.row_ptr.windows(2).enumerate() {
            let span = span[0] as usize..span[1] as usize;
            for (&c, &v) in self.col_indices[span.clone()].iter().zip(&self.values[span]) {
                dense[r * self.cols + c as usize] = v;
            }
        }
        out
    }

    /// Bytes of storage used by the three CSR arrays.
    ///
    /// Used by the machine model to cost the format-construction and
    /// traversal memory traffic of the sparse kernels.
    pub fn storage_bytes(&self) -> usize {
        self.values.len() * 4 + self.col_indices.len() * 4 + self.row_ptr.len() * 4
    }
}

impl Default for Csr {
    /// An empty `0 x 0` matrix ready for [`Csr::assign_from_columns`].
    fn default() -> Self {
        Csr { rows: 0, cols: 0, values: Vec::new(), col_indices: Vec::new(), row_ptr: vec![0u32] }
    }
}

impl fmt::Debug for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Csr({}x{}, nnz={})", self.rows, self.cols, self.nnz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn round_trip_dense() {
        let mut rng = SmallRng::seed_from_u64(11);
        let dense = Matrix::random_sparse(13, 17, 0.7, 1.0, &mut rng);
        let csr = Csr::from_dense(&dense);
        assert_eq!(csr.to_dense(), dense);
    }

    #[test]
    fn whole_width_assign_matches_from_dense() {
        let dense = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 2.0]).unwrap();
        let mut b = Csr::default();
        b.assign_from_columns(2, 2, 0, 2, dense.as_slice());
        assert_eq!(Csr::from_dense(&dense), b);
    }

    #[test]
    fn empty_rows_have_equal_row_ptrs() {
        let dense = Matrix::from_vec(3, 2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0]).unwrap();
        let csr = Csr::from_dense(&dense);
        assert_eq!(csr.row_ptr(), &[0, 0, 1, 1]);
        assert_eq!((csr.col_indices(), csr.values()), (&[0][..], &[1.0][..]));
    }

    #[test]
    fn nnz_counts_non_zeros() {
        let dense = Matrix::from_vec(2, 2, vec![0.0, 0.0, 0.0, 3.0]).unwrap();
        assert_eq!(Csr::from_dense(&dense).nnz(), 1);
        assert_eq!(Csr::from_dense(&Matrix::zeros(0, 0)).nnz(), 0);
    }

    #[test]
    fn all_zero_matrix() {
        let csr = Csr::from_dense(&Matrix::zeros(4, 4));
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.to_dense(), Matrix::zeros(4, 4));
    }

    #[test]
    fn assign_from_columns_reuses_allocations() {
        let mut rng = SmallRng::seed_from_u64(13);
        let dense = Matrix::random_sparse(6, 8, 0.5, 1.0, &mut rng);
        let mut csr = Csr::default();
        csr.assign_from_columns(6, 8, 2, 5, dense.as_slice());
        // Warm rebuild: capacities must be reused.
        let caps = (csr.values.capacity(), csr.col_indices.capacity(), csr.row_ptr.capacity());
        csr.assign_from_columns(6, 8, 2, 5, dense.as_slice());
        assert_eq!(
            caps,
            (csr.values.capacity(), csr.col_indices.capacity(), csr.row_ptr.capacity())
        );
        // Contents match a window extracted by hand.
        let mut window = Vec::new();
        for r in 0..6 {
            window.extend_from_slice(&dense.as_slice()[r * 8 + 2..r * 8 + 5]);
        }
        assert_eq!(csr, Csr::from_dense(&Matrix::from_vec(6, 3, window).unwrap()));
    }

    #[test]
    fn storage_bytes_counts_arrays() {
        let dense = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let csr = Csr::from_dense(&dense);
        // 4 values + 4 col indices + 3 row ptrs, each 4 bytes
        assert_eq!(csr.storage_bytes(), (4 + 4 + 3) * 4);
    }
}
