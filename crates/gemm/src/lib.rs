//! From-scratch f32 GEMM substrate with the two parallel schedules the
//! paper compares.
//!
//! The paper's characterization (Sec. 3) and all of its baselines are built
//! on general matrix multiply. This crate supplies:
//!
//! * [`gemm`] — a cache-blocked, panel-packed, register-tiled
//!   single-threaded GEMM whose micro-kernel runs at the host's vector
//!   width: one source expanded per instruction set, a 12x32 tile under
//!   AVX-512F and 6x16 under AVX2+FMA (detected once per call), a portable
//!   scalar fallback elsewhere. This plays the role OpenBLAS / MKL play in
//!   the paper.
//! * [`gemm_naive`] — the unblocked triple loop, used as the correctness
//!   oracle for every other kernel in the workspace.
//! * [`parallel_gemm`] — **Parallel-GEMM**: one multiply, row-partitioned
//!   across cores. This is the conventional schedule whose per-core
//!   arithmetic intensity shrinks as cores are added (Sec. 3.2).
//! * [`gemm_in_parallel`] — **GEMM-in-Parallel**: many independent
//!   single-threaded multiplies, one per core (Sec. 4.1). Inputs are never
//!   divided, so per-core arithmetic intensity — and hence per-core
//!   performance — stays flat as cores are added.
//! * [`spmm_csr_dense`] / [`spmm_ctcsr_dense`] — sparse × dense multiplies
//!   over the formats of [`spg_tensor::sparse`], the related-work baseline
//!   for the paper's sparse kernels.
//!
//! # Example
//!
//! ```
//! use spg_tensor::Matrix;
//! use spg_gemm::{gemm, gemm_naive};
//!
//! let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
//! let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0])?;
//! let fast = gemm(&a, &b)?;
//! let slow = gemm_naive(&a, &b)?;
//! assert_eq!(fast.as_slice(), slow.as_slice());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod batch;
mod blocked;
mod error;
mod kernels;
mod naive;
mod parallel;
mod sparse_dense;
mod transposed;

pub use batch::{gemm_in_parallel, gemm_in_parallel_into, BatchJob};
pub use blocked::{gemm, gemm_into, gemm_slice};
pub use error::GemmError;
pub use kernels::{detect_simd_level, simd_backend_name, SimdLevel};
pub use naive::{gemm_naive, gemm_naive_into};
pub use parallel::{parallel_gemm, parallel_gemm_cols, parallel_gemm_slice};
pub use sparse_dense::{spmm_csr_dense, spmm_ctcsr_dense, spmm_ctcsr_dense_into};
/// The workspace's one fork-join, which the parallel schedules here fan
/// out through; re-exported for crates above this one (`spg-core`'s
/// banded stencil) that have no `spg-sync` edge of their own.
pub use spg_sync::fork_join;
pub use transposed::{gemm_at_b, gemm_at_b_slice};

/// Number of floating-point operations in an `m x k` by `k x n` multiply
/// (one multiply + one add per inner-product step).
///
/// # Example
///
/// ```
/// assert_eq!(spg_gemm::gemm_flops(2, 3, 4), 48);
/// ```
pub const fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

fn check_dims(a_rows: usize, a_cols: usize, b_rows: usize, b_cols: usize) -> Result<(), GemmError> {
    if a_cols != b_rows {
        return Err(GemmError::DimensionMismatch { a_rows, a_cols, b_rows, b_cols });
    }
    Ok(())
}
