//! Hybrid intra-layer parallelism: how one sample's stencil splits across
//! workers.
//!
//! The paper's GEMM-in-Parallel scales by distributing whole samples, so
//! strong scaling collapses when `batch < cores` — the regime Jia et al.
//! (*Exploring Hidden Dimensions in Parallelizing CNNs*) and Dryden et al.
//! (*Improving Strong-Scaling of CNN Training by Exploiting Finer-Grained
//! Parallelism*) address by also splitting *within* a layer. The one
//! intra-sample decomposition of the stencil the plan IR proves safe —
//! contiguous output-row bands — is a partition of the output rows of the
//! sequential stencil's own loop nest. This module owns only the choice
//! of that partition, [`band_ranges`]; the cut itself is the workspace's
//! one rule, [`spg_convnet::partition`]. Lowering attaches it to the layer's tiled
//! plan; the verifier proves it an ascending disjoint cover; and the one
//! stencil loop nest (`spg-codegen`: the bound instance, or the
//! run-time-geometry one) runs the
//! bands as [`TileRegion`](spg_check::TileRegion)s of the parent tensors —
//! no copies in or out, one `fork_join` task per band when the call's
//! [core budget](spg_convnet::workspace::ConvScratch::cores) covers them
//! all, runs of neighbouring bands as one region when it covers fewer, and
//! the whole layer as the one sequential region at a budget of 1. No
//! technique names a split: the stencil lowered at more than one core
//! ([`verify::lower`](crate::verify::lower)) carries one wherever the layer
//! has rows to split.
//!
//! **Bit-identity.** Every output element's reduction is a single FMA chain
//! ordered `(channel asc, ky asc, kx asc)` regardless of which tile or
//! band computes it, and a banded plan only exists (by [`band_ranges`] and
//! the `spg-check` banded proof) on the tiled path where that invariant
//! holds. Banded outputs are therefore bit-identical to the sequential
//! kernel — the golden suite asserts exact equality, not a tolerance.

use spg_check::VECTOR_WIDTH as LANES;
use spg_convnet::ConvSpec;

/// The contiguous per-worker output-row bands a hybrid decomposition of
/// `spec` uses at `workers` workers. Lowering turns these into the plan's
/// `bands`, which is what the verifier proves and the stencil kernel runs,
/// and asks it whether a layer splits at all.
///
/// The bands are `min(workers, out_h)` parts of the output rows by
/// [`spg_convnet::partition`]. There is one band — i.e. "no decomposition
/// available" — when the rows are narrower than one vector (`out_w <
/// LANES`), when `workers <= 1`, or when the output has one row. Narrow
/// rows are a small layer's: CIFAR-10 L1 (4x4 outputs, 64 features) ran its sequential tiled plan
/// in 37–42 µs and the plan banded over two cores in 80–90 µs on a
/// two-core AVX-512 host, the fork costing more than the half layer it
/// saves (EXPERIMENTS).
pub fn band_ranges(spec: &ConvSpec, workers: usize) -> Vec<(usize, usize)> {
    let out_h = spec.out_h();
    let bands = if spec.out_w() < LANES { 1 } else { workers.clamp(1, out_h) };
    (0..bands).map(|b| spg_convnet::partition(out_h, bands, b)).map(|r| (r.start, r.end)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autotune::Phase;
    use crate::backend::{AlgoChoice, AlgoKernel};
    use crate::compiled::{CompiledConv, ConvProgram};
    use crate::schedule::{LayerPlan, Technique};
    use crate::verify::lower_phase;
    use spg_check::ForwardPlan;
    use spg_codegen::KernelChoice;
    use spg_convnet::workspace::ConvScratch;

    fn pseudo(n: usize, salt: usize) -> Vec<f32> {
        (0..n).map(|i| (((i * 31 + salt * 17) % 23) as f32 - 11.0) / 7.0).collect()
    }

    /// The stencil lowered for `spec` at `workers` cores under `kernel`,
    /// proved.
    fn program(spec: &ConvSpec, workers: usize, kernel: KernelChoice) -> ConvProgram {
        lower_phase(spec, Technique::StencilFp, Phase::Forward, workers, kernel)
            .expect("plan verifies")
    }

    /// 32x32 output, 7x7 stride 2 (a registry key): splits by output rows.
    fn rows_spec() -> ConvSpec {
        ConvSpec::square(69, 4, 3, 7, 2)
    }

    /// The same kernel over a one-row, 32-wide output: no rows to split.
    fn one_row_spec() -> ConvSpec {
        ConvSpec::new(3, 7, 69, 200, 7, 7, 2, 2).expect("valid spec")
    }

    /// One forward with every core the program was lowered for.
    fn run(
        exec: &ConvProgram,
        input: &[f32],
        weights: &[f32],
        scratch: &mut ConvScratch,
    ) -> Vec<f32> {
        let mut out = vec![0f32; exec.spec().output_shape().len()];
        scratch.cores = exec.cores();
        exec.forward(input, &exec.prepared(weights), &mut out, scratch);
        out
    }

    fn check_bit_identical(spec: ConvSpec, workers: usize) {
        let input = pseudo(spec.input_shape().len(), 1);
        let weights = pseudo(spec.weight_shape().len(), 2);
        let sequential = program(&spec, 1, KernelChoice::Generic);
        let oracle = run(&sequential, &input, &weights, &mut ConvScratch::new());
        // Auto binds the registry instance where the host has one (and is
        // the generic loops again under SPG_FORCE_GENERIC=1).
        for kernel in [KernelChoice::Auto, KernelChoice::Generic] {
            let exec = program(&spec, workers, kernel);
            assert!(
                matches!(&exec.plan().forward, ForwardPlan::StencilBanded { .. }),
                "{spec} x{workers}: {:?}",
                exec.plan().forward
            );
            let banded = run(&exec, &input, &weights, &mut ConvScratch::new());
            assert_eq!(oracle, banded, "{spec} x{workers} {kernel:?} not bit-identical");
            // Fewer cores than bands: runs of neighbouring bands, down to
            // the whole layer on the calling thread.
            for cores in [1, workers.div_ceil(2)] {
                let mut out = vec![f32::NAN; oracle.len()];
                let mut scratch = ConvScratch::with_cores(cores);
                exec.forward(&input, &exec.prepared(&weights), &mut out, &mut scratch);
                assert_eq!(oracle, out, "{spec} x{workers} on {cores} cores {kernel:?}");
            }
        }
    }

    #[test]
    fn bands_are_bit_identical_to_sequential_kernel() {
        let unit = ConvSpec::square(34, 6, 3, 3, 1); // 32x32 output

        // Interpreted, one ragged worker count races the bands enough.
        let workers: &[usize] = if cfg!(miri) { &[3] } else { &[2, 3, 8] };
        for &workers in workers {
            check_bit_identical(unit, workers);
            check_bit_identical(rows_spec(), workers);
        }
    }

    /// A banded plan binds the registry instance exactly when the
    /// sequential stencil does, and reports it.
    #[test]
    fn banded_plan_binds_the_instance_the_sequential_plan_gets() {
        let spec = rows_spec();
        let sequential = program(&spec, 1, KernelChoice::Auto);
        let exec = program(&spec, 2, KernelChoice::Auto);
        assert!(matches!(exec.plan().forward, ForwardPlan::StencilBanded { .. }), "{spec}");
        assert_eq!(
            exec.specialized_kernel().map(|k| k.level()),
            sequential.specialized_kernel().map(|k| k.level()),
            "{spec}"
        );
        let pinned = program(&spec, 2, KernelChoice::Generic);
        assert!(pinned.specialized_kernel().is_none(), "{spec}");
        let weights = pseudo(spec.weight_shape().len(), 2);
        let plan = LayerPlan { forward: Technique::StencilFp, backward: Technique::GemmInParallel };
        let compiled = CompiledConv::compile(spec, plan, &weights, 2).expect("compiles");
        assert_eq!(compiled.kernel_kind(), sequential.kernel_kind());
        let algo = AlgoChoice::of(compiled.program());
        let bound = sequential.specialized_kernel();
        let kernel = bound.map_or(AlgoKernel::Generic, |k| AlgoKernel::Specialized(k.level()));
        assert_eq!(algo.kernel, kernel, "{spec}: {algo}");
    }

    /// A banded forward — strided included — reads its input in place and
    /// stores straight into the output: it grows no scratch buffer, and a
    /// scratch reserved for the spec keeps exactly
    /// `ScratchCapacity::reserved_for`.
    #[test]
    fn banded_forward_stages_nothing_in_the_scratch() {
        let spec = rows_spec();
        let input = pseudo(spec.input_shape().len(), 3);
        let weights = pseudo(spec.weight_shape().len(), 4);
        let reserved = spg_check::ScratchCapacity::reserved_for(&spec);
        let exec = program(&spec, 2, KernelChoice::Auto);
        let mut fresh = ConvScratch::new();
        let a = run(&exec, &input, &weights, &mut fresh);
        assert_eq!(fresh.bytes(), 0, "{spec}: staging");
        let mut scratch = ConvScratch::new();
        scratch.reserve(&spec);
        let b = run(&exec, &input, &weights, &mut scratch);
        let live = (scratch.mat_b.len(), scratch.hwc_in.len(), scratch.hwc_out.len());
        assert_eq!(live, (reserved.mat_b, reserved.hwc_in, reserved.hwc_out), "{spec}");
        assert_eq!(scratch.wperm.len(), reserved.wperm, "{spec}");
        let elems = reserved.mat_b + reserved.hwc_in + reserved.hwc_out + reserved.wperm;
        assert_eq!(scratch.bytes(), elems * 4, "{spec}");
        assert_eq!(a, b, "{spec}");
    }

    #[test]
    fn narrow_spec_has_no_banded_plan() {
        // 4x4 output: too small a layer for a fork to pay; one output row:
        // nothing to split. band_ranges refuses both, and the stencil
        // lowers to the sequential tiled plan at any core count.
        for spec in [ConvSpec::square(8, 6, 4, 5, 1), one_row_spec()] {
            assert_eq!(band_ranges(&spec, 8), vec![(0, spec.out_h())]);
            assert!(matches!(
                program(&spec, 8, KernelChoice::Generic).plan().forward,
                ForwardPlan::StencilTiled { .. }
            ));
        }
    }
}
