//! Telemetry agreement tests: the goodput counters recorded by the
//! execution stack must match the closed-form characterization math in
//! `spg_core::ait` exactly — flop for flop — and the sparse kernels'
//! useful-flop fraction must equal the gradient density.
//!
//! Telemetry state is process-global, so every test records under a
//! unique scope label and asserts on before/after deltas; no test ever
//! disables collection (another test may still be recording).

use proptest::prelude::*;

use spg_codegen::KernelChoice;
use spg_convnet::exec::{ConvExecutor, PreparedWeights, UnfoldGemmExecutor};
use spg_convnet::layer::{ConvLayer, Layer};
use spg_convnet::workspace::ConvScratch;
use spg_convnet::ConvSpec;
use spg_core::ait::conv_gemm_dims;
use spg_core::autotune::tune_layer;
use spg_core::compiled::CompiledConv;
use spg_core::schedule::{LayerPlan, Technique};
use spg_core::sparse::kernel as sparse_kernel;
use spg_core::verify::{lower, lower_phase};
use spg_telemetry::Phase;
use spg_tensor::{layout, Tensor};

/// Current `(useful, total, tile_nnz, tile_capacity)` of one bucket.
fn bucket(label: &str, phase: Phase) -> (u64, u64, u64, u64) {
    spg_telemetry::snapshot()
        .scope(label, phase)
        .map(|s| (s.useful_flops, s.total_flops, s.tile_nnz, s.tile_capacity))
        .unwrap_or((0, 0, 0, 0))
}

fn delta(before: (u64, u64, u64, u64), after: (u64, u64, u64, u64)) -> (u64, u64, u64, u64) {
    (after.0 - before.0, after.1 - before.1, after.2 - before.2, after.3 - before.3)
}

fn pseudo(n: usize, salt: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let v = (i as u64).wrapping_mul(2862933555777941757).wrapping_add(salt);
            ((v >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

/// Runs `f` inside a `(label, phase)` scope and returns the bucket delta.
fn record_under(label: &str, phase: Phase, f: impl FnOnce()) -> (u64, u64, u64, u64) {
    spg_telemetry::set_enabled(true);
    let before = bucket(label, phase);
    {
        let _scope = spg_telemetry::scope(label, phase);
        f();
    }
    delta(before, bucket(label, phase))
}

/// The Unfold+GEMM executor's recorded flops must equal the analytic
/// `2*m*n*k` of the three convolution multiplies (`ait::conv_gemm_dims`)
/// exactly, for both the single-threaded (GEMM-in-Parallel building
/// block) and the row-partitioned Parallel-GEMM schedules.
#[test]
fn unfold_gemm_counters_match_ait_analytics() {
    let spec = ConvSpec::new(3, 10, 9, 5, 3, 2, 1, 1).unwrap();
    let dims = conv_gemm_dims(&spec);
    let flops = |(m, n, k): (usize, usize, usize)| 2 * (m * n * k) as u64;

    let input = pseudo(spec.input_shape().len(), 1);
    let weights = PreparedWeights::new(pseudo(spec.weight_shape().len(), 2));
    let grad_out = pseudo(spec.output_shape().len(), 3);
    let mut output = vec![0.0; spec.output_shape().len()];
    let mut grad_in = vec![0.0; spec.input_shape().len()];
    let mut grad_w = vec![0.0; spec.weight_shape().len()];

    for (threads, label) in [(1usize, "tel_unfold_gip"), (4, "tel_unfold_pg")] {
        let exec = UnfoldGemmExecutor::new(threads);
        let mut scratch = ConvScratch { cores: threads, ..ConvScratch::new() };
        let fwd = record_under(label, Phase::Forward, || {
            exec.forward(&spec, &input, &weights, &mut output, &mut scratch);
        });
        assert_eq!(fwd, (flops(dims.forward), flops(dims.forward), 0, 0), "{label} forward");

        let bwd_d = record_under(label, Phase::BackwardData, || {
            exec.backward_data(&spec, &weights, &grad_out, &mut grad_in, &mut scratch);
        });
        assert_eq!(
            bwd_d,
            (flops(dims.backward_data), flops(dims.backward_data), 0, 0),
            "{label} backward_data"
        );

        let bwd_w = record_under(label, Phase::BackwardWeights, || {
            exec.backward_weights(&spec, &input, &grad_out, &mut grad_w, &mut scratch);
        });
        assert_eq!(
            bwd_w,
            (flops(dims.backward_weights), flops(dims.backward_weights), 0, 0),
            "{label} backward_weights"
        );
    }

    // All three multiplies move the same flop count (ait invariant), so
    // each phase must also equal `spec.arithmetic_ops()`.
    assert_eq!(flops(dims.forward), spec.arithmetic_ops());
}

/// The stencil kernel computes the full dense convolution, so its
/// recorded useful and total flops both equal `spec.arithmetic_ops()` on
/// every internal code path (wide AVX/scalar, narrow shifted-GEMM).
#[test]
fn stencil_counters_match_arithmetic_ops() {
    let wide = ConvSpec::new(2, 12, 12, 4, 3, 3, 1, 1).unwrap(); // out_w >= 8
    let narrow = ConvSpec::new(2, 8, 6, 4, 3, 3, 1, 1).unwrap(); // out_w < 8
    for (spec, label) in [(wide, "tel_stencil_wide"), (narrow, "tel_stencil_narrow")] {
        let input = pseudo(spec.input_shape().len(), 7);
        let weights = pseudo(spec.weight_shape().len(), 8);
        let mut output = vec![0.0; spec.output_shape().len()];
        let stencil = lower_phase(
            &spec,
            Technique::StencilFp,
            spg_core::autotune::Phase::Forward,
            1,
            KernelChoice::Generic,
        )
        .unwrap();
        let weights = stencil.prepared(&weights);
        let got = record_under(label, Phase::Forward, || {
            stencil.forward(&input, &weights, &mut output, &mut ConvScratch::new());
        });
        let ops = spec.arithmetic_ops();
        assert_eq!(got, (ops, ops, 0, 0), "{label}");
    }
}

/// A narrow-output stencil forward records its flops on both ways to run
/// it: a `CompiledConv` (every served request — this reported 0 while the
/// accounting sat in a raw-weights wrapper serving never called) and the
/// executor installed on a `ConvLayer`.
#[test]
fn narrow_stencil_records_flops_compiled_and_installed() {
    let spec = ConvSpec::square(8, 6, 4, 5, 1); // 4x4 output
    let plan = LayerPlan { forward: Technique::StencilFp, backward: Technique::GemmInParallel };
    let weights = pseudo(spec.weight_shape().len(), 11);
    let input = pseudo(spec.input_shape().len(), 12);
    let mut output = vec![0.0; spec.output_shape().len()];
    let ops = spec.arithmetic_ops();

    let compiled = CompiledConv::compile(spec, plan, &weights, 1).unwrap();
    assert_eq!(compiled.program().plan().forward, spg_check::ForwardPlan::StencilNarrow);
    let mut scratch = ConvScratch::new();
    for call in 0..2 {
        let got = record_under("tel_narrow_compiled", Phase::Forward, || {
            compiled.forward_scratch(&input, &mut output, &mut scratch);
        });
        assert_eq!(got, (ops, ops, 0, 0), "compiled call {call}");
    }

    let mut conv = ConvLayer::with_weights(spec, Tensor::from_vec(weights)).unwrap();
    lower(&spec, plan, 1, KernelChoice::Auto)
        .unwrap()
        .install(&mut conv, &[spg_core::autotune::Phase::Forward]);
    let got = record_under("tel_narrow_installed", Phase::Forward, || {
        conv.forward(&input, &mut output, &mut scratch);
    });
    assert_eq!(got, (ops, ops, 0, 0), "installed executor");
}

/// Every `tune_layer` call must log one decision per phase, carrying the
/// active scope label, a timing for every candidate, and a winner drawn
/// from the candidate set.
#[test]
fn tune_layer_logs_decisions_with_candidate_timings() {
    spg_telemetry::set_enabled(true);
    let spec = ConvSpec::new(2, 8, 8, 4, 3, 3, 1, 1).unwrap();
    {
        let _scope = spg_telemetry::scope("tel_tune", Phase::Tune);
        tune_layer(&spec, 0.9, 1, 1, 1);
    }
    let snap = spg_telemetry::snapshot();
    let ours: Vec<_> = snap.decisions.iter().filter(|d| d.label == "tel_tune").collect();
    assert_eq!(ours.len(), 2, "one decision per phase");
    for (decision, candidates) in
        [(ours[0], Technique::forward_candidates()), (ours[1], Technique::backward_candidates(1))]
    {
        // Every candidate is accounted for: timed in the race or recorded
        // as rejected.
        assert_eq!(decision.candidates.len() + decision.rejected.len(), candidates.len());
        let ids: Vec<&str> = candidates.iter().map(|t| t.id()).collect();
        assert!(ids.contains(&decision.chosen.as_str()), "winner is a candidate");
        for timing in &decision.candidates {
            assert!(ids.contains(&timing.technique.as_str()));
        }
        for rejected in &decision.rejected {
            assert!(ids.contains(&rejected.technique.as_str()));
        }
        assert_eq!((decision.sparsity, decision.cores), (0.9, 1));
    }
    assert_eq!(ours[0].phase, Phase::Forward);
    assert_eq!(ours[1].phase, Phase::Backward);
}

fn conv_spec() -> impl Strategy<Value = ConvSpec> {
    (1usize..4, 4usize..14, 4usize..14, 1usize..6, 1usize..5, 1usize..5, 1usize..4, 1usize..4)
        .prop_filter_map("kernel fits input", |(c, h, w, f, ky, kx, sy, sx)| {
            ConvSpec::new(c, h, w, f, ky, kx, sy, sx).ok()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The sparse kernels' useful-flop fraction must track gradient
    /// sparsity *exactly*: useful = 2*nnz*kdim against the dense
    /// 2*Nf*H'*W'*kdim total, and the reported tile occupancy is
    /// nnz over the gradient matrix capacity.
    #[test]
    fn sparse_useful_flops_track_gradient_sparsity(
        spec in conv_spec(),
        salt in 0u64..500,
        keep in 1usize..8,
        tile_width in 1usize..8,
    ) {
        let mut grad_out = pseudo(spec.output_shape().len(), salt);
        for (i, x) in grad_out.iter_mut().enumerate() {
            if i % keep != 0 {
                *x = 0.0;
            }
        }
        let nnz = grad_out.iter().filter(|v| **v != 0.0).count() as u64;
        let kdim = (spec.in_c() * spec.ky() * spec.kx()) as u64;
        let capacity = (spec.out_h() * spec.out_w() * spec.features()) as u64;
        let expect = (2 * nnz * kdim, spec.arithmetic_ops(), nnz, capacity);

        let weights = pseudo(spec.weight_shape().len(), salt ^ 0xa5a5);
        let input = pseudo(spec.input_shape().len(), salt ^ 0x5a5a);
        let mut grad_in = vec![0.0; spec.input_shape().len()];
        let mut grad_w = vec![0.0; spec.weight_shape().len()];

        let mut w_kkfc = vec![0.0; weights.len()];
        layout::fckk_to_kkfc_into(&weights, spec.weight_shape(), &mut w_kkfc);
        let data = record_under("tel_sparse", Phase::BackwardData, || {
            sparse_kernel::backward_data_scratch(
                &spec,
                &w_kkfc,
                &grad_out,
                &mut grad_in,
                tile_width,
                &mut ConvScratch::new(),
            );
        });
        prop_assert_eq!(data, expect);

        let wts = record_under("tel_sparse", Phase::BackwardWeights, || {
            sparse_kernel::backward_weights_scratch(
                &spec,
                &input,
                &grad_out,
                &mut grad_w,
                tile_width,
                &mut ConvScratch::new(),
            );
        });
        prop_assert_eq!(wts, expect);
    }
}
