//! Property-based tests for the spg-CNN framework: the optimized kernels
//! must agree with the reference loops on arbitrary specs and sparsity
//! levels, and the characterization math must satisfy its invariants.

use proptest::prelude::*;

use spg_codegen::KernelChoice;
use spg_convnet::workspace::ConvScratch;
use spg_convnet::{reference, ConvSpec};
use spg_core::ait::{mm_ait, mm_ait_per_core, mm_ait_per_core_best, mm_ait_per_core_cols};
use spg_core::autotune::Phase;
use spg_core::compiled::CompiledConv;
use spg_core::region::{classify_by_features, Region};
use spg_core::schedule::{recommended_plan, LayerPlan, Technique};
use spg_core::sparse::kernel as sparse_kernel;
use spg_core::stencil::{
    plan_cache_schedule, plan_register_tile, ACCUMULATOR_BUDGET, L1_BUDGET_ELEMS,
};
use spg_core::verify::lower_phase;
use spg_tensor::layout;

fn conv_spec() -> impl Strategy<Value = ConvSpec> {
    (1usize..4, 4usize..14, 4usize..14, 1usize..6, 1usize..5, 1usize..5, 1usize..4, 1usize..4)
        .prop_filter_map("kernel fits input", |(c, h, w, f, ky, kx, sy, sx)| {
            ConvSpec::new(c, h, w, f, ky, kx, sy, sx).ok()
        })
}

fn pseudo(n: usize, salt: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let v = (i as u64).wrapping_mul(2862933555777941757).wrapping_add(salt);
            ((v >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

fn sparsify(v: &mut [f32], keep_every: usize) {
    for (i, x) in v.iter_mut().enumerate() {
        if i % keep_every != 0 {
            *x = 0.0;
        }
    }
}

fn max_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stencil_forward_matches_reference(spec in conv_spec(), salt in 0u64..500) {
        let input = pseudo(spec.input_shape().len(), salt);
        let weights = pseudo(spec.weight_shape().len(), salt ^ 0x1234);
        let olen = spec.output_shape().len();
        let mut ours = vec![0.0; olen];
        let mut oracle = vec![0.0; olen];
        let stencil =
            lower_phase(&spec, Technique::StencilFp, Phase::Forward, 1, KernelChoice::Generic)
                .unwrap();
        stencil.forward(&input, &stencil.prepared(&weights), &mut ours, &mut ConvScratch::new());
        reference::forward(&spec, &input, &weights, &mut oracle);
        prop_assert!(max_diff(&ours, &oracle) < 1e-3);
    }

    #[test]
    fn sparse_backward_data_matches_reference(
        spec in conv_spec(),
        salt in 0u64..500,
        keep in 1usize..8,
        tile_width in 1usize..8,
    ) {
        let weights = pseudo(spec.weight_shape().len(), salt);
        let mut grad_out = pseudo(spec.output_shape().len(), salt ^ 0x9e77);
        sparsify(&mut grad_out, keep);
        let ilen = spec.input_shape().len();
        let mut ours = vec![0.0; ilen];
        let mut oracle = vec![0.0; ilen];
        let mut w_kkfc = vec![0.0; weights.len()];
        layout::fckk_to_kkfc_into(&weights, spec.weight_shape(), &mut w_kkfc);
        sparse_kernel::backward_data_scratch(&spec, &w_kkfc, &grad_out, &mut ours, tile_width, &mut ConvScratch::new());
        reference::backward_data(&spec, &weights, &grad_out, &mut oracle);
        prop_assert!(max_diff(&ours, &oracle) < 1e-3);
    }

    #[test]
    fn sparse_backward_weights_matches_reference(
        spec in conv_spec(),
        salt in 0u64..500,
        keep in 1usize..8,
        tile_width in 1usize..8,
    ) {
        let input = pseudo(spec.input_shape().len(), salt);
        let mut grad_out = pseudo(spec.output_shape().len(), salt ^ 0x51a3);
        sparsify(&mut grad_out, keep);
        let wlen = spec.weight_shape().len();
        let mut ours = vec![0.0; wlen];
        let mut oracle = vec![0.0; wlen];
        sparse_kernel::backward_weights_scratch(&spec, &input, &grad_out, &mut ours, tile_width, &mut ConvScratch::new());
        reference::backward_weights(&spec, &input, &grad_out, &mut oracle);
        prop_assert!(max_diff(&ours, &oracle) < 1e-3);
    }

    /// The register-tile search must return an admissible plan that is at
    /// least as good as every admissible alternative.
    #[test]
    fn register_tile_search_is_optimal(spec in conv_spec()) {
        let plan = plan_register_tile(&spec);
        prop_assert!(plan.rx * plan.ry <= ACCUMULATOR_BUDGET);
        prop_assert!(plan.ry <= spec.out_h());
        for ry in 1..=ACCUMULATOR_BUDGET.min(spec.out_h()) {
            let loads = (ry + spec.ky() - 1) * spec.kx();
            let fmas = ry * spec.ky() * spec.kx();
            prop_assert!(
                plan.loads_per_fma() <= loads as f64 / fmas as f64 + 1e-12,
                "search missed ry={ry}"
            );
        }
    }

    /// AIT-per-core is monotonically non-increasing in the core count —
    /// the analytical heart of the scalability characterization.
    #[test]
    fn ait_per_core_monotone(m in 1usize..512, n in 1usize..512, k in 1usize..512) {
        let mut prev = f64::INFINITY;
        for cores in [1usize, 2, 4, 8, 16, 32] {
            let a = mm_ait_per_core(m, n, k, cores);
            prop_assert!(a <= prev + 1e-9);
            prop_assert!(a > 0.0);
            prev = a;
        }
        prop_assert!((mm_ait_per_core(m, n, k, 1) - mm_ait(m, n, k)).abs() < 1e-12);
    }

    /// The region classifier is total and consistent with its thresholds.
    #[test]
    fn region_classifier_total(features in 1usize..5000, sparsity in 0.0f64..1.0) {
        let r = classify_by_features(features, sparsity);
        prop_assert!(r.index() <= 5);
        prop_assert_eq!(r.is_sparse(), sparsity > 0.75);
        if features >= 1024 {
            prop_assert!(matches!(r, Region::R0 | Region::R1));
        }
    }

    /// Recommended plans always pick phase-appropriate techniques.
    #[test]
    fn plans_are_phase_appropriate(
        spec in conv_spec(),
        sparsity in 0.0f64..1.0,
        cores in 1usize..64,
    ) {
        let plan = recommended_plan(&spec, sparsity, cores);
        prop_assert!(Technique::forward_candidates().contains(&plan.forward));
        prop_assert!(Technique::backward_candidates(cores).contains(&plan.backward));
        prop_assert_eq!(plan.backward == Technique::SparseBp, sparsity > 0.75);
    }

    /// Column partitioning mirrors row partitioning under operand swap,
    /// and `best` dominates both.
    #[test]
    fn partition_axis_duality(m in 1usize..300, n in 1usize..300, k in 1usize..300, p in 1usize..32) {
        let rows = mm_ait_per_core(m, n, k, p);
        let cols = mm_ait_per_core_cols(m, n, k, p);
        let swapped = mm_ait_per_core(n, m, k, p);
        prop_assert!((cols - swapped).abs() < 1e-9, "duality broken: {cols} vs {swapped}");
        let best = mm_ait_per_core_best(m, n, k, p);
        prop_assert!(best + 1e-12 >= rows && best + 1e-12 >= cols);
        prop_assert!(best <= mm_ait(m, n, k) + 1e-9);
    }

    /// A compiled kernel must compute the same function as the reference
    /// for every plan combination on arbitrary specs.
    #[test]
    fn compiled_conv_matches_reference(
        spec in conv_spec(),
        salt in 0u64..200,
        fwd_idx in 0usize..3,
        bwd_idx in 0usize..3,
    ) {
        let forward = [Technique::ParallelGemm, Technique::GemmInParallel, Technique::StencilFp];
        let plan = LayerPlan {
            forward: forward[fwd_idx],
            backward: Technique::backward_candidates(2)[bwd_idx],
        };
        let weights = pseudo(spec.weight_shape().len(), salt);
        let kernel = CompiledConv::compile(spec, plan, &weights, 2).expect("valid weights");
        let input = pseudo(spec.input_shape().len(), salt ^ 0x1111);
        let mut grad_out = pseudo(spec.output_shape().len(), salt ^ 0x2222);
        sparsify(&mut grad_out, 3);

        let mut out = vec![0.0; spec.output_shape().len()];
        let mut oracle = vec![0.0; spec.output_shape().len()];
        kernel.forward_scratch(&input, &mut out, &mut ConvScratch::new());
        reference::forward(&spec, &input, &weights, &mut oracle);
        prop_assert!(max_diff(&out, &oracle) < 1e-3);

        let mut gin = vec![0.0; spec.input_shape().len()];
        let mut gin_oracle = vec![0.0; spec.input_shape().len()];
        kernel.backward_data_scratch(&grad_out, &mut gin, &mut ConvScratch::new());
        reference::backward_data(&spec, &weights, &grad_out, &mut gin_oracle);
        prop_assert!(max_diff(&gin, &gin_oracle) < 1e-3);
    }

    /// The cache schedule always returns an admissible tile.
    #[test]
    fn cache_schedule_is_admissible(spec in conv_spec()) {
        let tile = plan_cache_schedule(&spec);
        prop_assert!(tile.y_tile >= 1 && tile.y_tile <= spec.out_h());
        prop_assert!(tile.x_tile >= 1 && tile.x_tile <= spec.out_w());
        // Single-row tiles are always allowed to exceed nothing.
        if tile.y_tile > 1 {
            prop_assert!(tile.working_set_elems(&spec) <= L1_BUDGET_ELEMS);
        }
    }
}
