//! Real kernel measurements on the host machine.
//!
//! The scaling figures come from the `spg-simcpu` model (this container
//! has one core); these helpers supply the *measured single-core anchors*
//! printed alongside them — real wall-clock timings of the workspace's
//! kernels on this host, demonstrating that the implemented kernels show
//! the same single-core ordering the model predicts.
//!
//! Every kernel runs through its `_scratch` entry point with one reused
//! [`ConvScratch`], against weights prepared once outside the timed loop —
//! the per-sample path that ships (weight permutations are per update).

use std::time::Instant;

use spg_convnet::{gemm_exec, ConvScratch, ConvSpec};
use spg_core::autotune::Phase;
use spg_core::schedule::Technique;
use spg_core::verify::lower_phase;
use spg_workloads::synth::conv_operands;

/// Measured single-core GFlops of one forward convolution under the
/// given executor, averaged over `reps` runs after one warm-up.
fn time_forward<F: FnMut()>(flops: u64, reps: usize, mut run: F) -> f64 {
    run();
    let start = Instant::now();
    for _ in 0..reps {
        run();
    }
    let secs = start.elapsed().as_secs_f64() / reps as f64;
    flops as f64 / secs / 1e9
}

/// Measured GFlops of the Unfold+GEMM forward path on this host.
pub fn unfold_gemm_fp_gflops(spec: &ConvSpec, reps: usize) -> f64 {
    let ops = conv_operands(spec, 0.0, 0xbeef);
    let mut out = vec![0.0f32; spec.output_shape().len()];
    let mut scratch = ConvScratch::new();
    time_forward(spec.arithmetic_ops(), reps, || {
        gemm_exec::forward_scratch(
            spec,
            ops.input.as_slice(),
            ops.weights.as_slice(),
            &mut out,
            1,
            &mut scratch,
        );
    })
}

/// Measured GFlops of the stencil forward on this host's *generic*
/// runtime-parameterized loops (no `spg-codegen` instance bound).
pub fn stencil_fp_gflops(spec: &ConvSpec, reps: usize) -> f64 {
    let ops = conv_operands(spec, 0.0, 0xbeef);
    let mut out = vec![0.0f32; spec.output_shape().len()];
    let mut scratch = ConvScratch::new();
    let stencil = lower_phase(
        spec,
        Technique::StencilFp,
        Phase::Forward,
        1,
        spg_codegen::KernelChoice::Generic,
    )
    .expect("stencil plans verify on every valid spec");
    let weights = stencil.prepared(ops.weights.as_slice());
    time_forward(spec.arithmetic_ops(), reps, || {
        stencil.forward(ops.input.as_slice(), &weights, &mut out, &mut scratch);
    })
}

/// Measured GFlops of the stencil forward as [`CompiledConv`] deploys it
/// on this host: the same program, with the registry instance bound where
/// one resolves for the shape.
///
/// [`CompiledConv`]: spg_core::compiled::CompiledConv
pub fn stencil_fp_compiled_gflops(spec: &ConvSpec, reps: usize) -> f64 {
    use spg_core::compiled::CompiledConv;
    use spg_core::schedule::LayerPlan;
    let ops = conv_operands(spec, 0.0, 0xbeef);
    let plan = LayerPlan { forward: Technique::StencilFp, backward: Technique::SparseBp };
    let kernel =
        CompiledConv::compile(*spec, plan, ops.weights.as_slice(), 1).expect("valid operands");
    let mut out = vec![0.0f32; spec.output_shape().len()];
    let mut scratch = ConvScratch::new();
    time_forward(spec.arithmetic_ops(), reps, || {
        kernel.forward_scratch(ops.input.as_slice(), &mut out, &mut scratch);
    })
}

/// Measured backward-pass results at one sparsity level.
#[derive(Debug, Clone, Copy)]
pub struct SparseMeasurement {
    /// Gradient sparsity of the workload.
    pub sparsity: f64,
    /// Dense (Unfold+GEMM) backward time in seconds.
    pub dense_secs: f64,
    /// Sparse-kernel backward time in seconds.
    pub sparse_secs: f64,
    /// Measured goodput of the sparse kernel in GFlops (non-zero work
    /// over sparse time).
    pub goodput_gflops: f64,
}

impl SparseMeasurement {
    /// Speedup of the sparse kernel over the dense baseline.
    pub fn speedup(&self) -> f64 {
        self.dense_secs / self.sparse_secs
    }
}

/// Measures dense vs sparse backward propagation (error + delta-weights)
/// at one sparsity level on this host.
pub fn sparse_bp_measurement(spec: &ConvSpec, sparsity: f64, reps: usize) -> SparseMeasurement {
    let ops = conv_operands(spec, sparsity, 0x5ee0);
    let mut grad_in = vec![0.0f32; spec.input_shape().len()];
    let mut grad_w = vec![0.0f32; spec.weight_shape().len()];
    let mut scratch = ConvScratch::new();

    let mut dense = || {
        gemm_exec::backward_data_scratch(
            spec,
            ops.weights.as_slice(),
            ops.grad_out.as_slice(),
            &mut grad_in,
            1,
            &mut scratch,
        );
        gemm_exec::backward_weights_scratch(
            spec,
            ops.input.as_slice(),
            ops.grad_out.as_slice(),
            &mut grad_w,
            1,
            &mut scratch,
        );
    };
    dense();
    let start = Instant::now();
    for _ in 0..reps {
        dense();
    }
    let dense_secs = start.elapsed().as_secs_f64() / reps as f64;

    let program =
        lower_phase(spec, Technique::SparseBp, Phase::Backward, 1, spg_codegen::KernelChoice::Auto)
            .expect("sparse plans verify on every valid spec");
    let weights = program.prepared(ops.weights.as_slice());
    let mut sparse = || {
        program.backward_data(&weights, ops.grad_out.as_slice(), &mut grad_in, &mut scratch);
        program.backward_weights(
            ops.input.as_slice(),
            ops.grad_out.as_slice(),
            &mut grad_w,
            &mut scratch,
        );
    };
    sparse();
    let start = Instant::now();
    for _ in 0..reps {
        sparse();
    }
    let sparse_secs = start.elapsed().as_secs_f64() / reps as f64;

    let actual_sparsity = ops.grad_out.sparsity();
    let useful = 2.0 * spec.arithmetic_ops() as f64 * (1.0 - actual_sparsity);
    SparseMeasurement {
        sparsity: actual_sparsity,
        dense_secs,
        sparse_secs,
        goodput_gflops: useful / sparse_secs / 1e9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ConvSpec {
        ConvSpec::new(2, 12, 12, 4, 3, 3, 1, 1).expect("valid fixed spec")
    }

    #[test]
    fn forward_measurements_are_positive() {
        assert!(unfold_gemm_fp_gflops(&tiny(), 1) > 0.0);
        assert!(stencil_fp_gflops(&tiny(), 1) > 0.0);
    }

    #[test]
    fn sparse_measurement_reports_consistent_fields() {
        let m = sparse_bp_measurement(&tiny(), 0.9, 1);
        assert!(m.dense_secs > 0.0 && m.sparse_secs > 0.0);
        assert!(m.speedup() > 0.0);
        assert!((m.sparsity - 0.9).abs() < 0.15);
    }
}
