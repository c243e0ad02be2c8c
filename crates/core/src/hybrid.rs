//! Hybrid intra-layer parallelism: how one sample's stencil splits across
//! workers.
//!
//! The paper's GEMM-in-Parallel scales by distributing whole samples, so
//! strong scaling collapses when `batch < cores` — the regime Jia et al.
//! (*Exploring Hidden Dimensions in Parallelizing CNNs*) and Dryden et al.
//! (*Improving Strong-Scaling of CNN Training by Exploiting Finer-Grained
//! Parallelism*) address by also splitting *within* a layer. The two
//! intra-sample decompositions the plan IR can prove safe
//! ([`spg_check::BandDim`]) — contiguous output-row bands and
//! output-feature slices — are partitions of one axis of the sequential
//! stencil's own loop nest. This module owns only that
//! partition, [`band_ranges`]. Lowering attaches it to the layer's tiled
//! plan; the verifier proves it an ascending disjoint cover; and the one
//! stencil loop nest (`spg-codegen`: the bound instance, or the
//! run-time-geometry one) runs the
//! bands as [`TileRegion`](spg_check::TileRegion)s of the parent tensors —
//! phase transform staged once in the caller's scratch, no copies in or
//! out, one `fork_join` task per band when the call's
//! [core budget](spg_convnet::workspace::ConvScratch::cores) covers them
//! all, runs of neighbouring bands as one region when it covers fewer, and
//! the whole layer as the one sequential region at a budget of 1. No
//! technique names a split: the stencil lowered at more than one core
//! ([`verify::lower`](crate::verify::lower)) carries one, along output rows
//! where the layer has rows to split and output features otherwise.
//!
//! **Bit-identity.** Every output element's reduction is a single FMA chain
//! ordered `(channel asc, ky asc, kx asc)` regardless of which tile, cache
//! block or band computes it, and a banded plan only exists (by
//! [`band_ranges`] and the `spg-check` banded proof) on the wide tiled path
//! where that invariant holds. Banded outputs are therefore bit-identical
//! to the sequential kernel — the golden suite asserts exact equality, not
//! a tolerance.

pub use spg_check::BandDim;
use spg_check::VECTOR_WIDTH as LANES;
use spg_convnet::ConvSpec;

/// The contiguous per-worker bands a hybrid decomposition of `spec` along
/// `dim` uses at `workers` workers. Lowering turns these into the plan's
/// `bands`, which is what the verifier proves and the stencil kernel runs,
/// and asks it whether a layer splits along `dim` at all.
///
/// Returns one band — i.e. "no decomposition available" — when the spec is
/// too narrow for the wide tiled kernel (`out_w < LANES`, where the
/// shifted-GEMM path's different accumulation order would break
/// bit-identity), when `workers <= 1`, or when the extent cannot be split.
pub fn band_ranges(spec: &ConvSpec, dim: BandDim, workers: usize) -> Vec<(usize, usize)> {
    let extent = match dim {
        BandDim::YRows => spec.out_h(),
        BandDim::OutChannels => spec.features(),
    };
    if spec.out_w() < LANES || workers <= 1 {
        return vec![(0, extent)];
    }
    spg_check::gemm::row_bands(extent, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autotune::Phase;
    use crate::backend::{AlgoKernel, ConvDescriptor, CpuBackend};
    use crate::compiled::{CompiledConv, ConvProgram};
    use crate::schedule::{stencil_split, LayerPlan, Technique};
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

    /// The same kernel over a one-row, 32-wide output: only the features
    /// are left to split.
    fn one_row_spec() -> ConvSpec {
        ConvSpec::new(3, 7, 69, 4, 7, 7, 2, 2).expect("valid spec")
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

    fn check_bit_identical(spec: ConvSpec, dim: BandDim, workers: usize) {
        let input = pseudo(spec.input_shape().len(), 1);
        let weights = pseudo(spec.weight_shape().len(), 2);
        let sequential = program(&spec, 1, KernelChoice::Generic);
        let oracle = run(&sequential, &input, &weights, &mut ConvScratch::new());
        // Auto binds the registry instance where the host has one (and is
        // the generic loops again under SPG_FORCE_GENERIC=1).
        for kernel in [KernelChoice::Auto, KernelChoice::Generic] {
            let exec = program(&spec, workers, kernel);
            assert!(
                matches!(&exec.plan().forward, ForwardPlan::StencilBanded { dim: d, .. } if *d == dim),
                "{spec} x{workers}: {:?}",
                exec.plan().forward
            );
            let banded = run(&exec, &input, &weights, &mut ConvScratch::new());
            assert_eq!(oracle, banded, "{spec} {dim:?} x{workers} {kernel:?} not bit-identical");
            // Fewer cores than bands: runs of neighbouring bands, down to
            // the whole layer on the calling thread.
            for cores in [1, workers.div_ceil(2)] {
                let mut out = vec![f32::NAN; oracle.len()];
                let mut scratch = ConvScratch { cores, ..ConvScratch::new() };
                exec.forward(&input, &exec.prepared(&weights), &mut out, &mut scratch);
                assert_eq!(oracle, out, "{spec} {dim:?} x{workers} on {cores} cores {kernel:?}");
            }
        }
    }

    #[test]
    fn bands_are_bit_identical_to_sequential_kernel() {
        let unit = ConvSpec::square(34, 6, 3, 3, 1); // 32x32 output

        // Interpreted, one ragged worker count races the bands enough.
        let workers: &[usize] = if cfg!(miri) { &[3] } else { &[2, 3, 8] };
        for &workers in workers {
            check_bit_identical(unit, BandDim::YRows, workers);
            check_bit_identical(rows_spec(), BandDim::YRows, workers);
            check_bit_identical(one_row_spec(), BandDim::OutChannels, workers);
        }
    }

    /// A banded plan binds the registry instance exactly when the
    /// sequential stencil does, and reports it.
    #[test]
    fn banded_plan_binds_the_instance_the_sequential_plan_gets() {
        for spec in [rows_spec(), one_row_spec()] {
            let sequential = program(&spec, 1, KernelChoice::Auto);
            let exec = program(&spec, 2, KernelChoice::Auto);
            assert!(matches!(exec.plan().forward, ForwardPlan::StencilBanded { .. }), "{spec}");
            assert_eq!(
                exec.specialized_kernel().map(|k| k.isa()),
                sequential.specialized_kernel().map(|k| k.isa()),
                "{spec}"
            );
            let pinned = program(&spec, 2, KernelChoice::Generic);
            assert!(pinned.specialized_kernel().is_none(), "{spec}");
            let weights = pseudo(spec.weight_shape().len(), 2);
            let plan =
                LayerPlan { forward: Technique::StencilFp, backward: Technique::GemmInParallel };
            let compiled = CompiledConv::compile(spec, plan, &weights, 2).expect("compiles");
            assert_eq!(compiled.kernel_kind(), sequential.kernel_kind());
            let algo = CpuBackend::new().algo_for(&ConvDescriptor::new(spec, 2), plan);
            let bound = sequential.specialized_kernel();
            let kernel = bound.map_or(AlgoKernel::Generic, |k| AlgoKernel::Specialized(k.isa()));
            assert_eq!(algo.kernel, kernel, "{spec}: {algo}");
        }
    }

    /// A banded forward lives in the caller's scratch: it stages the phase
    /// transform there, and a scratch reserved for the spec —
    /// `conv_workspace_bytes`' bound — is all it touches.
    #[test]
    fn banded_forward_runs_in_exactly_the_reserved_scratch() {
        for spec in [rows_spec(), one_row_spec()] {
            let input = pseudo(spec.input_shape().len(), 3);
            let weights = pseudo(spec.weight_shape().len(), 4);
            let reserved = spg_check::ScratchCapacity::reserved_for(&spec);
            let exec = program(&spec, 2, KernelChoice::Auto);
            let mut fresh = ConvScratch::new();
            let a = run(&exec, &input, &weights, &mut fresh);
            assert_eq!(fresh.hwc_in.len(), reserved.hwc_in, "{spec}: phase staging");
            let mut scratch = ConvScratch::new();
            scratch.reserve(&spec);
            let b = run(&exec, &input, &weights, &mut scratch);
            assert_eq!(spg_check::ScratchCapacity::of_scratch(&scratch), reserved, "{spec}");
            assert_eq!(scratch.bytes(), reserved.elems() * 4, "{spec}");
            assert_eq!(a, b, "{spec}");
        }
    }

    #[test]
    fn narrow_spec_has_no_banded_plan() {
        // 4x4 output: no wide tiles, so band_ranges refuses to split, no
        // dimension is picked, and the stencil lowers to the narrow kernel
        // at any core count.
        let spec = ConvSpec::square(8, 6, 4, 5, 1);
        assert_eq!(band_ranges(&spec, BandDim::YRows, 8), vec![(0, spec.out_h())]);
        assert_eq!(stencil_split(&spec, 8), None);
        assert_eq!(
            program(&spec, 8, KernelChoice::Generic).plan().forward,
            ForwardPlan::StencilNarrow
        );
    }
}
