//! Analytical multicore machine model for reproducing the paper's scaling
//! and goodput figures.
//!
//! The paper's evaluation ran on a 16-core Intel Xeon E5-2650 (41.6 peak
//! GFlops/core, Sec. 3). This container has one core, so wall-clock
//! multicore measurements are impossible; instead, this crate implements
//! the paper's own analytical model of why each schedule scales the way it
//! does, and turns it into predicted GFlops/core, goodput, and end-to-end
//! throughput curves:
//!
//! * Per-core performance saturates with arithmetic intensity:
//!   `perf = peak * AIT / (AIT + AIT_half)` — a smooth roofline. The AIT
//!   fed in is the *schedule-dependent per-core* AIT from
//!   [`spg_core::ait`]: partitioned (falling with cores) for
//!   Parallel-GEMM, flat for GEMM-in-Parallel, intrinsic for the stencil
//!   kernel, and capped by the unfolding ratio for anything that unfolds
//!   (Sec. 3.1-3.2).
//! * Independent per-core working sets still share one memory system; a
//!   mild contention factor `1 / (1 + c * (cores - 1))` models the <15 %
//!   per-core drop the paper measures for GEMM-in-Parallel (Sec. 4.1).
//! * The sparse backward kernel processes only non-zero gradient work at a
//!   reduced per-element rate plus a sparsity-independent data-layout
//!   transform cost — reproducing both the >=0.75-sparsity crossover and
//!   the goodput roll-off past 90 % sparsity, where the bottleneck shifts
//!   to the transforms (Sec. 4.2).
//! * Scaling past one machine adds an interconnect bandwidth/latency
//!   term: α–β cost models of `spg-cluster`'s chain-ring and
//!   binomial-tree gradient all-reduce produce the 8/16/64-node
//!   synchronous-SGD scaling curves (`BENCH_cluster.json`).
//!
//! Every constant lives in [`Machine`] with the calibration rationale in
//! its docs. The model is validated against the paper's qualitative
//! claims in this crate's tests, and the `spg-bench` harness prints the
//! resulting figure series.

#![warn(missing_docs)]

mod backend;
mod endtoend;
mod interconnect;
mod machine;
mod predict;
mod sparse;

pub use backend::{AlgoPrediction, SimBackend};
pub use endtoend::{
    cifar10_layers, cifar10_throughput, training_throughput, Config as EndToEndConfig, LayerCost,
};
pub use interconnect::{cluster_scaling, ClusterPoint, Interconnect};
pub use machine::Machine;
pub use predict::{
    gemm_in_parallel_gflops_per_core, parallel_gemm_gflops_per_core, stencil_gflops_per_core,
};
pub use sparse::{sparse_bp_prediction, SparseBpPrediction};
