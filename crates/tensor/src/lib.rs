//! Dense tensor and sparse matrix substrate for the spg-CNN reproduction.
//!
//! This crate provides the data-representation layer that every other crate
//! in the workspace builds on:
//!
//! * [`Shape3`] / [`Shape4`] — small value types describing activation and
//!   weight geometry (`(c, h, w)` and `(f, c, h, w)`).
//! * [`Tensor`] — an owned, contiguous `f32` buffer with a length, the
//!   uniform currency for activations, weights, and gradients.
//! * [`Matrix`] — a 2-D row-major owned matrix used by the GEMM kernels.
//! * [`layout`] — axis-order permutation transforms, and the permuted
//!   weight copies the kernels read, each its own type built only from the
//!   canonical `[f, c, ky, kx]` weights. The paper's sparse backward kernel
//!   requires the channel dimension to be fastest-varying in
//!   weights/outputs and the feature dimension fastest-varying in the
//!   incoming gradient (Sec. 4.2); the stencils read feature-fastest
//!   weights.
//! * [`sparse`] — CSR and the paper's column-tiled CSR (CT-CSR, Fig. 5a)
//!   sparse matrix formats, plus conversion and sparsity measurement.
//!
//! # Example
//!
//! ```
//! use spg_tensor::{Shape3, Tensor};
//!
//! let shape = Shape3::new(3, 32, 32); // channels, height, width
//! let mut t = Tensor::zeros(shape.len());
//! t.as_mut_slice()[0] = 1.0;
//! assert_eq!(t.len(), 3 * 32 * 32);
//! assert_eq!(t.as_slice()[0], 1.0);
//! ```

#![warn(missing_docs)]

mod error;
pub mod layout;
mod matrix;
mod shape;
pub mod sparse;
mod tensor;

pub use error::TensorError;
pub use matrix::Matrix;
pub use shape::{Shape3, Shape4};
pub use tensor::Tensor;
