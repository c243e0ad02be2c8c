//! From-scratch f32 GEMM substrate.
//!
//! The paper's characterization (Sec. 3) and all of its baselines are built
//! on general matrix multiply. This crate supplies:
//!
//! * [`simd`] — the one SIMD vocabulary every kernel of the workspace is
//!   written in: the `Vector` trait, its portable, AVX2 and AVX-512F tiers,
//!   and the one dispatch from a [`SimdLevel`] to a tier.
//! * [`gemm_into`] / [`gemm_slice`] — a cache-blocked, panel-packed,
//!   register-tiled single-threaded GEMM whose micro-kernel runs at the
//!   host's vector width: one source over the [`simd`] vocabulary, a 12x32
//!   tile on AVX-512F and 6x16 on AVX2+FMA or portable vectors (the tier
//!   detected once per call). This plays the role OpenBLAS / MKL play in
//!   the paper.
//! * [`gemm_naive`] — the unblocked triple loop, used as the correctness
//!   oracle for every other kernel in the workspace.
//! * [`parallel_gemm`] / [`parallel_gemm_slice`] — **Parallel-GEMM**: one
//!   multiply, row-partitioned across cores. This is the conventional
//!   schedule whose per-core arithmetic intensity shrinks as cores are
//!   added (Sec. 3.2). Its right operand is any [`RightOperand`]: a dense
//!   [`RowMajor`] matrix, or one packed straight from where it lives (the
//!   Unfold+GEMM executors pack the unfold matrix from the image).
//! * [`gemm_at_b_slice`] — `C = A^T * B` with the transpose folded into
//!   the panel packing, for the Unfold+GEMM backward-data.
//! * [`FcKernels`] — the fully-connected layer's row dot, backward row
//!   sweep and gradient-record fold, at the host's vector width and with
//!   one weight-row load per block of samples.
//!
//! GEMM-in-Parallel (Sec. 4.1) is not an entry here: it is the training
//! pool in `spg-convnet`, whose workers each run one sample's
//! single-threaded [`gemm_slice`] calls.
//!
//! # Example
//!
//! ```
//! use spg_tensor::Matrix;
//! use spg_gemm::{gemm_into, gemm_naive};
//!
//! let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
//! let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0])?;
//! let mut fast = Matrix::zeros(2, 2);
//! gemm_into(&a, &b, &mut fast)?;
//! let slow = gemm_naive(&a, &b)?;
//! assert_eq!(fast.as_slice(), slow.as_slice());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod blocked;
mod error;
mod fc;
mod kernels;
mod naive;
mod parallel;
pub mod simd;
mod transposed;

pub use blocked::{gemm_into, gemm_slice};
pub use error::GemmError;
pub use fc::{FcKernels, DOT_LANES};
pub use kernels::{RightOperand, RowMajor};
pub use naive::gemm_naive;
pub use parallel::{parallel_gemm, parallel_gemm_slice};
pub use simd::{detect_simd_level, SimdLevel};
/// The workspace's one fork-join, which the parallel schedules here fan
/// out through; re-exported for crates above this one (`spg-core`'s
/// banded stencil) that have no `spg-sync` edge of their own.
pub use spg_sync::fork_join;
pub use transposed::gemm_at_b_slice;

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
