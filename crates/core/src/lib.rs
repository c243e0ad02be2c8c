//! **spg-CNN** — the optimization framework of *"Optimizing CNNs on
//! Multicores for Scalability, Performance and Goodput"* (ASPLOS 2017).
//!
//! The paper characterizes CNN training on multicore CPUs along a 2-D
//! design space of arithmetic intensity and sparsity (Fig. 1), then builds
//! three techniques plus a scheduler that picks among them per layer and
//! per phase:
//!
//! | Problem (region of Fig. 1) | Technique | Module |
//! |---|---|---|
//! | Parallel-GEMM loses per-core AIT as cores are added (R2, R3) | **GEMM-in-Parallel** — independent single-threaded GEMMs, one training input per core | [`schedule`], executors in `spg-gemm` / `spg-convnet` |
//! | Unfolding destroys the AIT of small convolutions (R4, R5) | **Stencil-Kernel (FP)** — generated direct-convolution kernels with register-tile reuse and a strided-layout transform | [`stencil`] |
//! | Dense BP wastes goodput on ~85–95 % sparse error gradients (R1, R3, R5) | **Sparse-Kernel (BP)** — CT-CSR gradients composed in place as small dense MMs by pointer shifting | [`sparse`] |
//! | Which technique where? | measure-and-pick scheduler with epoch re-tuning | [`autotune`] |
//!
//! A chosen plan becomes code in one place: [`verify`] lowers it to the
//! `spg-check` plan IR and has it proved, and [`compiled`] runs the proved
//! plan — the same program over the same prepared weights (permuted once
//! per update, never per sample) whether installed on a training layer or
//! held by the serving path.
//!
//! Supporting modules: [`ait`] (the Sec. 3 characterization math),
//! [`region`] (the Fig. 1 classifier), and [`config`] (a protobuf-text-like
//! network description parser, standing in for the paper's Protocol Buffer
//! front end).
//!
//! # Example: plan a CIFAR-10 layer
//!
//! ```
//! use spg_convnet::ConvSpec;
//! use spg_core::schedule::{recommended_plan, Technique};
//!
//! // CIFAR-10 layer 1 (Table 2): 64 features, 5x5, with 85 % gradient
//! // sparsity.
//! let spec = ConvSpec::square(8, 64, 64, 5, 1);
//! let plan = recommended_plan(&spec, 0.85);
//! assert_eq!(plan.forward, Technique::StencilFp);     // < 128 features
//! assert_eq!(plan.backward, Technique::SparseBp);      // > 75 % sparse
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod ait;
pub mod autotune;
pub mod backend;
pub mod compiled;
pub mod config;
mod error;
pub mod hybrid;
pub mod region;
pub mod schedule;
pub mod sparse;
pub mod stencil;
pub mod verify;

pub use error::SpgError;
