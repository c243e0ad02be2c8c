//! Facade crate for the spg-CNN workspace.
//!
//! Re-exports the public API of every member crate under one root so
//! examples and downstream users can depend on a single crate. See the
//! workspace `README.md` for an architecture overview, `DESIGN.md` for the
//! paper-to-module map, and `EXPERIMENTS.md` for reproduction results.
//!
//! # Quickstart
//!
//! ```
//! use spg_cnn::convnet::ConvSpec;
//! use spg_cnn::core::region::{classify, Region};
//!
//! // Layer 1 of CIFAR-10 (Table 2): 64 features, 5x5 kernel, unit stride.
//! let spec = ConvSpec::square(8, 64, 64, 5, 1);
//! let region = classify(&spec, 0.85);
//! assert_ne!(region, Region::R0); // small conv + sparse: not the easy region
//! ```

#![warn(missing_docs)]

pub mod bench_kernels;

pub use spg_check as check;
pub use spg_cluster as cluster;
pub use spg_codegen as codegen;
pub use spg_convnet as convnet;
pub use spg_core as core;
pub use spg_error as error;
pub use spg_gemm as gemm;
pub use spg_race as race;
pub use spg_serve as serve;
pub use spg_simcpu as simcpu;
pub use spg_sync as sync;
pub use spg_telemetry as telemetry;
pub use spg_tensor as tensor;
pub use spg_workloads as workloads;
