//! The execution seam between the CNN substrate and the spg-CNN
//! optimization framework.
//!
//! A [`ConvExecutor`] computes the three convolution phases — forward
//! propagation, backward error propagation, and weight gradients — for a
//! given [`ConvSpec`]. Every phase runs out of a caller-provided
//! [`ConvScratch`]: executors stage unfold matrices, packed panels, and
//! per-sample layout transforms in the scratch instead of allocating, so
//! the per-sample hot path is heap-free once the scratch has warmed up. The
//! substrate ships the two conventional executors ([`ReferenceExecutor`]
//! and [`UnfoldGemmExecutor`]); the `spg-core` crate plugs its lowered
//! per-layer programs in through this trait, and the paper's scheduler
//! swaps executors per layer and per phase (Sec. 4.4).
//!
//! # What changes per update vs per sample
//!
//! Weights change once per SGD update; a phase runs once per *sample*. The
//! weights therefore reach every phase as [`PreparedWeights`] — the
//! canonical tensor plus whichever permuted copies (Sec. 4.2, Fig. 5b) the
//! installed executors read — which the owning layer refreshes through
//! [`ConvExecutor::prepare`] whenever its weights or executors change, and
//! never while samples are in flight. No phase permutes weights.
//!
//! # Kernel dispatch layers beneath this seam
//!
//! The seam itself holds no per-sample state and knows nothing of plans.
//! `spg-core` fills it with one executor type: a lowered,
//! `spg-check`-verified program (`ConvProgram`) installed in a layer's
//! forward and backward slots. Which algorithm runs a phase (unfold-GEMM,
//! stencil, banded stencil, sparse), with what tiles, bands and worker
//! counts, and which instance of the stencil loop nest runs it (a
//! `spg-codegen` registry instance or the run-time-geometry one) are all
//! decided once, when the layer's plan is lowered; the program's per-call
//! work is a single `match` on that plan. Callers swapping executors never
//! observe the instance choice — specialized and generic stencil bodies
//! are one source text, bit-identical by construction, confirmed by the
//! golden Table 2 suite.

use std::fmt;
use std::sync::Arc;

use spg_tensor::Tensor;

use crate::workspace::ConvScratch;
use crate::{gemm_exec, reference, ConvSpec};

/// A convolution layer's weights in every layout its installed executors
/// read: the canonical tensor the optimizer updates, plus the permuted
/// copies an executor's [`prepare`](ConvExecutor::prepare) asked for.
///
/// A copy is empty until an executor fills it, and a kernel handed an
/// empty copy panics on its length assert — a missing `prepare` is loud,
/// never a stale read. The fields are public for the same reason
/// [`ConvScratch`]'s are: executors outside this crate fill and read them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PreparedWeights {
    /// Canonical `[f, c, ky, kx]` weights.
    pub fckk: Tensor,
    /// `[ky, kx, f, c]` copy (channel fastest), read by the sparse
    /// backward-data kernel.
    pub kkfc: Vec<f32>,
    /// `[ky][kx]` blocks of `(Nc x Nf)` matrices (feature fastest), read by
    /// the narrow-output stencil forward.
    pub kkcf: Vec<f32>,
}

impl PreparedWeights {
    /// Wraps canonical weights with no permuted copy yet.
    pub fn new(fckk: impl Into<Tensor>) -> Self {
        PreparedWeights { fckk: fckk.into(), kkfc: Vec::new(), kkcf: Vec::new() }
    }
}

/// Strategy object computing the three phases of a convolution layer.
///
/// Implementations must be `Send + Sync`: the trainer runs samples on
/// worker threads sharing one executor (the GEMM-in-Parallel schedule).
/// Per-call mutable state lives in the [`ConvScratch`] each worker owns,
/// never in the executor itself.
pub trait ConvExecutor: Send + Sync + fmt::Debug {
    /// Short human-readable name used in logs and benchmark output.
    fn name(&self) -> &str;

    /// Fills the permuted copies of `weights.fckk` that the phases of the
    /// [`ConvLayer`](crate::layer::ConvLayer) slot this executor sits in
    /// read. The layer calls it when its weights or executors change —
    /// once per update, not per sample. Executors reading only the
    /// canonical layout keep this default.
    fn prepare(&self, _spec: &ConvSpec, _weights: &mut PreparedWeights) {}

    /// Forward propagation (Eq. 2). `output` is overwritten.
    fn forward(
        &self,
        spec: &ConvSpec,
        input: &[f32],
        weights: &PreparedWeights,
        output: &mut [f32],
        scratch: &mut ConvScratch,
    );

    /// Backward error propagation (Eq. 3). `grad_in` is overwritten.
    fn backward_data(
        &self,
        spec: &ConvSpec,
        weights: &PreparedWeights,
        grad_out: &[f32],
        grad_in: &mut [f32],
        scratch: &mut ConvScratch,
    );

    /// Weight gradients (Eq. 4). `grad_weights` is overwritten.
    fn backward_weights(
        &self,
        spec: &ConvSpec,
        input: &[f32],
        grad_out: &[f32],
        grad_weights: &mut [f32],
        scratch: &mut ConvScratch,
    );
}

/// Shared handle to an executor, cheap to clone into worker threads.
pub type SharedExecutor = Arc<dyn ConvExecutor>;

/// The naive direct-convolution executor (the correctness oracle).
///
/// Needs no scratch: the direct loops read and write the caller's buffers
/// only.
///
/// # Example
///
/// ```
/// use spg_convnet::exec::{ConvExecutor, ReferenceExecutor};
///
/// assert_eq!(ReferenceExecutor.name(), "reference");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceExecutor;

impl ConvExecutor for ReferenceExecutor {
    fn name(&self) -> &str {
        "reference"
    }

    fn forward(
        &self,
        spec: &ConvSpec,
        input: &[f32],
        weights: &PreparedWeights,
        output: &mut [f32],
        _scratch: &mut ConvScratch,
    ) {
        reference::forward(spec, input, weights.fckk.as_slice(), output);
    }

    fn backward_data(
        &self,
        spec: &ConvSpec,
        weights: &PreparedWeights,
        grad_out: &[f32],
        grad_in: &mut [f32],
        _scratch: &mut ConvScratch,
    ) {
        reference::backward_data(spec, weights.fckk.as_slice(), grad_out, grad_in);
    }

    fn backward_weights(
        &self,
        spec: &ConvSpec,
        input: &[f32],
        grad_out: &[f32],
        grad_weights: &mut [f32],
        _scratch: &mut ConvScratch,
    ) {
        reference::backward_weights(spec, input, grad_out, grad_weights);
    }
}

/// The conventional `Unfold + GEMM` executor (Sec. 2.3).
///
/// With `threads == 1` this is the building block of the GEMM-in-Parallel
/// schedule; with `threads > 1` each GEMM is row-partitioned across cores
/// (Parallel-GEMM), reproducing the baseline whose per-core arithmetic
/// intensity shrinks as cores are added. The forward GEMM's `threads` row
/// bands run on as many threads as the call's
/// [core budget](ConvScratch::cores) allows — none beyond the caller's own
/// inside a sample worker — with the same output bits either way; the
/// backward GEMMs always fork `threads`.
#[derive(Debug, Clone, Copy)]
pub struct UnfoldGemmExecutor {
    threads: usize,
}

impl UnfoldGemmExecutor {
    /// Creates an executor that gives each GEMM `threads` cores.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "thread count must be positive");
        UnfoldGemmExecutor { threads }
    }

    /// Number of cores each GEMM is partitioned across.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for UnfoldGemmExecutor {
    fn default() -> Self {
        UnfoldGemmExecutor::new(1)
    }
}

impl ConvExecutor for UnfoldGemmExecutor {
    fn name(&self) -> &str {
        if self.threads > 1 {
            "unfold+parallel-gemm"
        } else {
            "unfold+gemm"
        }
    }

    fn forward(
        &self,
        spec: &ConvSpec,
        input: &[f32],
        weights: &PreparedWeights,
        output: &mut [f32],
        scratch: &mut ConvScratch,
    ) {
        gemm_exec::forward_scratch(
            spec,
            input,
            weights.fckk.as_slice(),
            output,
            self.threads,
            scratch,
        );
    }

    fn backward_data(
        &self,
        spec: &ConvSpec,
        weights: &PreparedWeights,
        grad_out: &[f32],
        grad_in: &mut [f32],
        scratch: &mut ConvScratch,
    ) {
        gemm_exec::backward_data_scratch(
            spec,
            weights.fckk.as_slice(),
            grad_out,
            grad_in,
            self.threads,
            scratch,
        );
    }

    fn backward_weights(
        &self,
        spec: &ConvSpec,
        input: &[f32],
        grad_out: &[f32],
        grad_weights: &mut [f32],
        scratch: &mut ConvScratch,
    ) {
        gemm_exec::backward_weights_scratch(
            spec,
            input,
            grad_out,
            grad_weights,
            self.threads,
            scratch,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executors_agree() {
        let spec = ConvSpec::new(2, 6, 6, 3, 3, 3, 1, 1).unwrap();
        let input: Vec<f32> =
            (0..spec.input_shape().len()).map(|i| (i as f32 * 0.3).sin()).collect();
        let weights = PreparedWeights::new(
            (0..spec.weight_shape().len()).map(|i| (i as f32 * 0.7).cos()).collect::<Tensor>(),
        );
        let olen = spec.output_shape().len();

        let mut scratch = ConvScratch { cores: 2, ..ConvScratch::new() };
        let mut a = vec![0f32; olen];
        let mut b = vec![0f32; olen];
        ReferenceExecutor.forward(&spec, &input, &weights, &mut a, &mut scratch);
        UnfoldGemmExecutor::new(2).forward(&spec, &input, &weights, &mut b, &mut scratch);
        let diff = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max);
        assert!(diff < 1e-4);
    }

    #[test]
    fn names_distinguish_schedules() {
        assert_eq!(UnfoldGemmExecutor::new(1).name(), "unfold+gemm");
        assert_eq!(UnfoldGemmExecutor::new(8).name(), "unfold+parallel-gemm");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threads_panics() {
        UnfoldGemmExecutor::new(0);
    }

    #[test]
    fn executor_is_object_safe() {
        let execs: Vec<SharedExecutor> =
            vec![Arc::new(ReferenceExecutor), Arc::new(UnfoldGemmExecutor::default())];
        assert_eq!(execs.len(), 2);
    }
}
