use std::fmt;

use crate::sparse::Csr;
use crate::{Matrix, TensorError};

/// A sparse matrix in column-tiled CSR (CT-CSR) format — the paper's
/// locality-enhancing adaptation of CSR (Fig. 5a, Sec. 4.2).
///
/// The matrix is cut into vertical tiles of `tile_width` columns; each tile
/// is stored as an independent [`Csr`] whose column indices are *local* to
/// the tile. Compared with plain CSR this keeps the elements of adjacent
/// rows within a tile adjacent in memory, so a tile's working set needs
/// fewer TLB entries and enjoys better cache reuse when it is swept
/// repeatedly by the backward kernel.
///
/// # Example
///
/// ```
/// use spg_tensor::{Matrix, sparse::CtCsr};
///
/// let dense = Matrix::from_vec(2, 4, vec![1.0, 0.0, 0.0, 2.0,
///                                          0.0, 3.0, 4.0, 0.0])?;
/// let tiled = CtCsr::from_dense(&dense, 2)?;
/// assert_eq!(tiled.iter().count(), 2);
/// assert_eq!(tiled.to_dense(), dense);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct CtCsr {
    rows: usize,
    cols: usize,
    tile_width: usize,
    tiles: Vec<Csr>,
}

impl CtCsr {
    /// Builds a CT-CSR matrix from a dense matrix with the given tile width.
    ///
    /// The final tile may be narrower when `cols` is not a multiple of
    /// `tile_width`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ZeroTileWidth`] if `tile_width == 0`.
    // lint: allow(test-only) the dense round trip the sparse formats' tests check
    pub fn from_dense(dense: &Matrix, tile_width: usize) -> Result<Self, TensorError> {
        let mut out = CtCsr::default();
        out.assign_from_slice(dense.rows(), dense.cols(), dense.as_slice(), tile_width)?;
        Ok(out)
    }

    /// Rebuilds this matrix in place from a dense row-major buffer, reusing
    /// the per-tile CSR allocations.
    ///
    /// With a stable geometry and sparsity level, steady-state rebuilds are
    /// allocation-free: each tile's arrays are recycled by
    /// [`Csr::assign_from_columns`]. This is the per-sample staging path of
    /// the sparse backward kernels.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ZeroTileWidth`] if `tile_width == 0`, or
    /// [`TensorError::LengthMismatch`] if `data.len() != rows * cols`.
    pub fn assign_from_slice(
        &mut self,
        rows: usize,
        cols: usize,
        data: &[f32],
        tile_width: usize,
    ) -> Result<(), TensorError> {
        if tile_width == 0 {
            return Err(TensorError::ZeroTileWidth);
        }
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch { expected: rows * cols, actual: data.len() });
        }
        let num_tiles = cols.div_ceil(tile_width);
        self.rows = rows;
        self.cols = cols;
        self.tile_width = tile_width;
        self.tiles.truncate(num_tiles);
        while self.tiles.len() < num_tiles {
            self.tiles.push(Csr::default());
        }
        for (t, tile) in self.tiles.iter_mut().enumerate() {
            let c0 = t * tile_width;
            let c1 = (c0 + tile_width).min(cols);
            tile.assign_from_columns(rows, cols, c0, c1, data);
        }
        Ok(())
    }

    /// Iterates over tiles together with their global column offsets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Csr)> + '_ {
        self.tiles.iter().enumerate().map(|(t, tile)| (t * self.tile_width, tile))
    }

    /// Total number of stored non-zero values across all tiles.
    pub fn nnz(&self) -> usize {
        self.tiles.iter().map(Csr::nnz).sum()
    }

    /// Expands back to a dense matrix.
    // lint: allow(test-only) the dense round trip the sparse formats' tests check
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for (col0, tile) in self.iter() {
            let tile = tile.to_dense();
            let width = tile.cols();
            for (r, row) in tile.as_slice().chunks_exact(width).enumerate() {
                out.as_mut_slice()[r * self.cols + col0..][..width].copy_from_slice(row);
            }
        }
        out
    }

    /// Bytes of storage used across all tiles.
    pub fn storage_bytes(&self) -> usize {
        self.tiles.iter().map(Csr::storage_bytes).sum()
    }
}

impl Default for CtCsr {
    /// An empty matrix ready for [`CtCsr::assign_from_slice`].
    fn default() -> Self {
        CtCsr { rows: 0, cols: 0, tile_width: 1, tiles: Vec::new() }
    }
}

impl fmt::Debug for CtCsr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CtCsr({}x{}, tile_width={}, tiles={}, nnz={})",
            self.rows,
            self.cols,
            self.tile_width,
            self.tiles.len(),
            self.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn round_trip_various_tile_widths() {
        let mut rng = SmallRng::seed_from_u64(5);
        let dense = Matrix::random_sparse(9, 14, 0.8, 1.0, &mut rng);
        for tw in [1, 2, 3, 7, 14, 20] {
            let tiled = CtCsr::from_dense(&dense, tw).unwrap();
            assert_eq!(tiled.to_dense(), dense, "tile width {tw}");
        }
    }

    #[test]
    fn tile_geometry() {
        let dense = Matrix::zeros(4, 10);
        let tiled = CtCsr::from_dense(&dense, 4).unwrap();
        let offsets: Vec<usize> = tiled.iter().map(|(col0, _)| col0).collect();
        assert_eq!(offsets, [0, 4, 8]);
        let widths: Vec<usize> = tiled.iter().map(|(_, tile)| tile.to_dense().cols()).collect();
        assert_eq!(widths, [4, 4, 2]); // ragged final tile
    }

    #[test]
    fn nnz_matches_plain_csr() {
        let mut rng = SmallRng::seed_from_u64(7);
        let dense = Matrix::random_sparse(20, 20, 0.9, 1.0, &mut rng);
        let csr = Csr::from_dense(&dense);
        let tiled = CtCsr::from_dense(&dense, 6).unwrap();
        assert_eq!(tiled.nnz(), csr.nnz());
    }

    #[test]
    fn zero_tile_width_rejected() {
        let built = CtCsr::from_dense(&Matrix::zeros(2, 2), 0);
        assert!(matches!(built, Err(TensorError::ZeroTileWidth)), "{built:?}");
    }

    #[test]
    fn column_indices_are_tile_local() {
        let dense = Matrix::from_vec(1, 4, vec![0.0, 0.0, 0.0, 9.0]).unwrap();
        let tiled = CtCsr::from_dense(&dense, 2).unwrap();
        let (col0, tile) = tiled.iter().nth(1).unwrap();
        assert_eq!((col0, tile.col_indices()), (2, &[1][..])); // local col 1, not global 3
    }

    #[test]
    fn assign_validates_length() {
        let assigned = CtCsr::default().assign_from_slice(2, 2, &[0.0; 3], 2);
        let want = TensorError::LengthMismatch { expected: 4, actual: 3 };
        assert_eq!(assigned, Err(want));
    }

    #[test]
    fn assign_reuses_tiles_and_matches_fresh_build() {
        let mut rng = SmallRng::seed_from_u64(21);
        let a = Matrix::random_sparse(7, 10, 0.7, 1.0, &mut rng);
        let b = Matrix::random_sparse(7, 10, 0.7, 1.0, &mut rng);
        let mut tiled = CtCsr::from_dense(&a, 4).unwrap();
        tiled.assign_from_slice(7, 10, b.as_slice(), 4).unwrap();
        assert_eq!(tiled, CtCsr::from_dense(&b, 4).unwrap());
        // Geometry changes are handled too (tile count shrinks and grows).
        tiled.assign_from_slice(7, 10, b.as_slice(), 10).unwrap();
        assert_eq!(tiled.iter().count(), 1);
        tiled.assign_from_slice(7, 10, b.as_slice(), 3).unwrap();
        assert_eq!(tiled, CtCsr::from_dense(&b, 3).unwrap());
    }
}
