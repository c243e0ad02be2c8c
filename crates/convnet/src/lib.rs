//! CNN training substrate for the spg-CNN reproduction.
//!
//! Implements everything the paper's framework sits on top of: the
//! convolution math itself (forward propagation Eq. 2, backward error
//! propagation Eq. 3, weight-gradient computation Eq. 4), the
//! `Unfold + GEMM` baseline execution strategy (Sec. 2.3, Fig. 2), a small
//! layer zoo (convolution, ReLU, max-pool, fully-connected, softmax), a
//! sequential network container, an SGD training loop with gradient
//! sparsity instrumentation, and seeded synthetic datasets.
//!
//! The crate deliberately knows nothing about the paper's optimizations:
//! convolution layers execute through the [`exec::ConvExecutor`] trait, and
//! the `spg-core` crate plugs its stencil and sparse kernels in through
//! that seam. The [`mod@reference`] module is the correctness oracle for every
//! optimized kernel in the workspace.
//!
//! # Example
//!
//! ```
//! use spg_convnet::{ConvSpec, reference};
//! use spg_tensor::Tensor;
//!
//! // 1 input channel, 4x4 image, one 3x3 feature, unit stride.
//! let spec = ConvSpec::new(1, 4, 4, 1, 3, 3, 1, 1)?;
//! let input = Tensor::filled(spec.input_shape().len(), 1.0);
//! let weights = Tensor::filled(spec.weight_shape().len(), 1.0);
//! let mut output = Tensor::zeros(spec.output_shape().len());
//! reference::forward(&spec, input.as_slice(), weights.as_slice(), output.as_mut_slice());
//! assert_eq!(output.as_slice(), &[9.0; 4]); // 2x2 output of 3x3 ones
//! # Ok::<(), spg_convnet::ConvError>(())
//! ```

#![warn(missing_docs)]

pub mod data;
mod engine;
mod error;
pub mod exec;
pub mod gemm_exec;
pub mod gradcheck;
pub mod io;
pub mod layer;
mod net;
pub mod reference;
pub mod regularize;
pub mod sgd;
mod spec;
pub mod unfold;
pub mod workspace;

pub use engine::{Engine, EngineBuilder, LayerAlgo, NetworkPlanner};
pub use error::{ConvError, TrainError};
pub use net::{scope_label, Network, SampleTrace};
pub use sgd::{EpochStats, Trainer, TrainerConfig};
pub use spec::ConvSpec;
pub use workspace::{ConvScratch, Workspace};
