//! End-to-end gradient checks for the workspace-threaded executors.
//!
//! The `ConvExecutor` seam now routes every phase through a caller-owned
//! [`ConvScratch`]; these tests prove the optimized executors still compute
//! the same mathematics as [`ReferenceExecutor`] when driven through that
//! seam — first phase-by-phase against the oracle with one scratch reused
//! across every call, then as whole networks whose backpropagated
//! gradients must survive central finite differences.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use spg_codegen::KernelChoice;
use spg_convnet::exec::{ConvExecutor, PreparedWeights, ReferenceExecutor, SharedExecutor};
use spg_convnet::gradcheck::check_gradients;
use spg_convnet::layer::{ConvLayer, FcLayer};
use spg_convnet::{ConvScratch, ConvSpec, Network};
use spg_core::autotune::Phase;
use spg_core::schedule::{LayerPlan, Technique};
use spg_core::verify::lower;
use spg_tensor::Tensor;

fn pseudo(n: usize, salt: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let v = (i as u64).wrapping_mul(2862933555777941757).wrapping_add(salt);
            ((v >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

/// The stencil-forward + sparse-backward plan lowered for `spec`, as the
/// executors of the two `ConvLayer` slots.
fn optimized_executors(spec: &ConvSpec) -> (SharedExecutor, SharedExecutor) {
    let plan = LayerPlan { forward: Technique::StencilFp, backward: Technique::SparseBp };
    let program = std::sync::Arc::new(lower(spec, plan, 1, KernelChoice::Auto).unwrap());
    (program.executor_for(Phase::Forward), program.executor_for(Phase::Backward))
}

/// The GEMM plan lowered for `spec` at two cores — Parallel-GEMM, each
/// GEMM's rows split in two — as the executors of the two slots.
fn parallel_gemm_executors(spec: &ConvSpec) -> (SharedExecutor, SharedExecutor) {
    let gemm = Technique::GemmInParallel;
    let plan = LayerPlan { forward: gemm, backward: gemm };
    let program = std::sync::Arc::new(lower(spec, plan, 2, KernelChoice::Auto).unwrap());
    (program.executor_for(Phase::Forward), program.executor_for(Phase::Backward))
}

fn max_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max)
}

/// Every optimized executor must agree with the reference oracle on all
/// three phases, with a single `ConvScratch` reused across every call,
/// spec, and executor — the exact reuse pattern the worker pool runs.
#[test]
fn workspace_executors_match_reference_on_all_phases() {
    let specs = [
        ConvSpec::new(1, 8, 8, 4, 3, 3, 1, 1).unwrap(),
        ConvSpec::new(3, 10, 10, 5, 5, 5, 1, 1).unwrap(),
        ConvSpec::new(2, 9, 9, 3, 3, 3, 2, 2).unwrap(),
    ];
    // Two cores, so the Parallel-GEMM executors fork too.
    let mut scratch = ConvScratch::with_cores(2);
    let mut oracle_scratch = ConvScratch::new();
    for (si, spec) in specs.iter().enumerate() {
        let (stencil, sparse) = optimized_executors(spec);
        let (gemm_forward, gemm_backward) = parallel_gemm_executors(spec);
        let execs: Vec<SharedExecutor> = vec![gemm_forward, gemm_backward, stencil, sparse];
        let salt = 0xA11 + si as u64;
        let input = pseudo(spec.input_shape().len(), salt);
        // Prepared as a layer holding both slots prepares: each executor
        // fills what its slot's phase reads.
        let mut weights = PreparedWeights::new(pseudo(spec.weight_shape().len(), salt ^ 0x77));
        for exec in &execs {
            exec.prepare(spec, &mut weights);
        }
        let grad_out = pseudo(spec.output_shape().len(), salt ^ 0x99);

        let mut oracle_out = vec![0f32; spec.output_shape().len()];
        let mut oracle_gin = vec![0f32; spec.input_shape().len()];
        let mut oracle_gw = vec![0f32; spec.weight_shape().len()];
        ReferenceExecutor.forward(spec, &input, &weights, &mut oracle_out, &mut oracle_scratch);
        ReferenceExecutor.backward_data(
            spec,
            &weights,
            &grad_out,
            &mut oracle_gin,
            &mut oracle_scratch,
        );
        ReferenceExecutor.backward_weights(
            spec,
            &input,
            &grad_out,
            &mut oracle_gw,
            &mut oracle_scratch,
        );

        for exec in &execs {
            let mut out = vec![0f32; spec.output_shape().len()];
            let mut gin = vec![0f32; spec.input_shape().len()];
            let mut gw = vec![0f32; spec.weight_shape().len()];
            exec.forward(spec, &input, &weights, &mut out, &mut scratch);
            exec.backward_data(spec, &weights, &grad_out, &mut gin, &mut scratch);
            exec.backward_weights(spec, &input, &grad_out, &mut gw, &mut scratch);
            assert!(
                max_diff(&out, &oracle_out) < 1e-3,
                "{} forward diverged on spec {si}",
                exec.name()
            );
            assert!(
                max_diff(&gin, &oracle_gin) < 1e-3,
                "{} backward_data diverged on spec {si}",
                exec.name()
            );
            assert!(
                max_diff(&gw, &oracle_gw) < 1e-3,
                "{} backward_weights diverged on spec {si}",
                exec.name()
            );
        }
    }
}

/// A smooth conv+fc network wired with the stencil forward executor and
/// the sparse backward executor must pass numerical gradient checking —
/// the strongest end-to-end evidence that the scratch-threaded phases
/// compose into correct training.
#[test]
fn gradcheck_passes_with_optimized_executors() {
    let mut rng = SmallRng::seed_from_u64(7);
    let spec = ConvSpec::new(1, 8, 8, 3, 3, 3, 1, 1).unwrap();
    let out = spec.output_shape();
    let mut conv = ConvLayer::new(spec, &mut rng);
    let (stencil, sparse) = optimized_executors(&spec);
    conv.set_forward_executor(stencil);
    conv.set_backward_executor(sparse);
    let mut net =
        Network::new(vec![Box::new(conv), Box::new(FcLayer::new(out.len(), 2, &mut rng))]).unwrap();
    let input = Tensor::random_uniform(64, 1.0, &mut rng);
    let mismatches = check_gradients(&mut net, &input, 1, 1e-2, 2e-2, 3);
    assert!(mismatches.is_empty(), "{mismatches:?}");
}

/// Same network, both phases on the GEMM plan lowered at two cores —
/// covers the Parallel-GEMM program through the scratch seam.
#[test]
fn gradcheck_passes_with_parallel_gemm_backward() {
    let mut rng = SmallRng::seed_from_u64(11);
    let spec = ConvSpec::new(2, 7, 7, 4, 3, 3, 1, 1).unwrap();
    let out = spec.output_shape();
    let mut conv = ConvLayer::new(spec, &mut rng);
    let (forward, backward) = parallel_gemm_executors(&spec);
    conv.set_forward_executor(forward);
    conv.set_backward_executor(backward);
    let mut net =
        Network::new(vec![Box::new(conv), Box::new(FcLayer::new(out.len(), 2, &mut rng))]).unwrap();
    let input = Tensor::random_uniform(spec.input_shape().len(), 1.0, &mut rng);
    let mismatches = check_gradients(&mut net, &input, 0, 1e-2, 2e-2, 3);
    assert!(mismatches.is_empty(), "{mismatches:?}");
}
