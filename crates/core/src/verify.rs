//! Lowering: the one place a [`LayerPlan`] is interpreted.
//!
//! The pipeline is **lower → verify → execute**. [`lower`] turns a
//! technique pair into `spg-check`'s plan IR — choosing the narrow-output
//! cutoff, the phase transform, the x-tile segmentation, the band ranges
//! over that plan's loop nest, the GEMM worker counts and the sparse tile
//! width, and binding a `spg-codegen` instance when one resolves — hands
//! that IR to the verifier, and wraps the
//! [`VerifiedPlan`](spg_check::VerifiedPlan) it gets back in a
//! [`ConvProgram`]. The program's single dispatch
//! ([`compiled`](crate::compiled)) and the kernels beneath it read those
//! same fields; nothing downstream looks at a [`Technique`] again, so the
//! bounds that were proved are the bounds that execute by construction.
//! A rejected plan surfaces as [`SpgError::PlanRejected`] naming the
//! offending access, and no program exists for it.

use spg_check::{
    BackwardPlan, CheckReport, ConvPlan, ForwardPlan, RegisterTile, ScheduleTile, ScratchCapacity,
    VECTOR_WIDTH,
};
use spg_codegen::xplan::tiled_plan;
use spg_codegen::{KernelChoice, SpecializedKernel};
use spg_convnet::ConvSpec;

use crate::autotune::Phase;
use crate::compiled::ConvProgram;
use crate::hybrid::band_ranges;
use crate::schedule::{stencil_split, LayerPlan, Technique};
use crate::sparse::DEFAULT_TILE_WIDTH;
use crate::stencil::{plan_cache_schedule, plan_register_tile};
use crate::SpgError;

/// Lowers a forward technique: the narrow-output shifted-GEMM cutoff
/// (`out_w < VECTOR_WIDTH`), the wide tiled plan at `lanes` lanes (the
/// generic loops' 8, or a bound instance's own width), and the split of
/// either kernel over `cores` regions.
///
/// Every technique lowers *with* its intra-sample split. How many of the
/// proved regions run concurrently is not the plan's business: a call runs
/// them on `min(regions, core budget)` threads
/// ([`ConvScratch::cores`](spg_convnet::workspace::ConvScratch::cores)),
/// and at a budget of 1 — a sample worker of a saturated batch — the
/// sequential program. So the two GEMM techniques share one row-band
/// partition (GEMM-in-Parallel is that plan in a walk that owns one core,
/// Parallel-GEMM the same plan in a walk that owns them all), and the
/// stencil carries the [`band_ranges`] split of one axis of its loop nest,
/// along the dimension [`stencil_split`] picks for the layer.
fn lower_forward(spec: &ConvSpec, technique: Technique, cores: usize, lanes: usize) -> ForwardPlan {
    if technique != Technique::StencilFp {
        // The sparse technique has no forward kernel and falls back to GEMM.
        return ForwardPlan::UnfoldGemm { threads: cores.max(1) };
    }
    if spec.out_w() < VECTOR_WIDTH {
        return ForwardPlan::StencilNarrow;
    }
    let tiled = tiled_plan(spec, lanes, plan_cache_schedule(spec).y_tile);
    match stencil_split(spec, cores) {
        Some(dim) => ForwardPlan::StencilBanded {
            dim,
            tiled: Box::new(tiled),
            bands: band_ranges(spec, dim, cores),
        },
        None => tiled,
    }
}

/// Lowers a backward technique.
fn lower_backward(technique: Technique, cores: usize) -> BackwardPlan {
    match technique {
        Technique::SparseBp => BackwardPlan::SparsePointerShift { tile_width: DEFAULT_TILE_WIDTH },
        Technique::ParallelGemm => BackwardPlan::UnfoldGemm { threads: cores.max(1) },
        // The stencil is a forward-phase kernel; backward falls back to a
        // serial GEMM.
        Technique::GemmInParallel | Technique::StencilFp => BackwardPlan::UnfoldGemm { threads: 1 },
    }
}

/// The generators' register tile and cache schedule for `spec`, in the
/// verifier's IR.
fn generated_tiles(spec: &ConvSpec) -> (RegisterTile, ScheduleTile) {
    let tile = plan_register_tile(spec);
    let schedule = plan_cache_schedule(spec);
    (
        RegisterTile { rx: tile.rx, ry: tile.ry },
        ScheduleTile { y_tile: schedule.y_tile, x_tile: schedule.x_tile },
    )
}

/// The specialized instance [`lower`] binds to a stencil forward on `spec`
/// under [`KernelChoice::Auto`], if any.
#[cfg(test)]
pub(crate) fn select_kernel(spec: &ConvSpec) -> Option<&'static SpecializedKernel> {
    lower_phase(spec, Technique::StencilFp, Phase::Forward, 1, KernelChoice::Auto)
        .ok()?
        .specialized_kernel()
}

#[cfg(test)]
thread_local! {
    /// [`lower`] calls made on this thread, for the test that the contest
    /// lowers each candidate once.
    pub(crate) static LOWERINGS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Lowers `plan` for `spec` at `cores` cores — every forward technique
/// with the split of its kernel over that many regions, which a call runs
/// only as far as its core budget reaches — proves the result, and
/// returns the executable [`ConvProgram`]. [`KernelChoice::Auto`] binds a
/// stencil forward — sequential or banded — to the registry instance for
/// the shape ([`spg_codegen::lookup`]) when the plan at that instance's
/// lane width passes the verifier; every other case — unlisted geometry,
/// narrow output, missing CPU features, `SPG_FORCE_GENERIC`, a rejected
/// instance plan (an output narrower than the instance's vector), or
/// [`KernelChoice::Generic`] — lowers to the generic loops.
///
/// # Errors
///
/// Returns [`SpgError::PlanRejected`] with the verifier's typed
/// [`CheckError`](spg_check::CheckError) if any symbolic access range
/// escapes its buffer, worker regions overlap, staging overflows the
/// reserved scratch, or the tile shapes contradict the spec.
pub fn lower(
    spec: &ConvSpec,
    plan: LayerPlan,
    cores: usize,
    kernel: KernelChoice,
) -> Result<ConvProgram, SpgError> {
    #[cfg(test)]
    LOWERINGS.with(|n| n.set(n.get() + 1));
    let instance = match kernel {
        KernelChoice::Auto if plan.forward == Technique::StencilFp => spg_codegen::lookup(spec),
        _ => None,
    };
    if let Some(program) = instance.and_then(|inst| prove(spec, plan, cores, Some(inst)).ok()) {
        return Ok(program);
    }
    prove(spec, plan, cores, None)
}

/// Lowers `plan` with its tiled forward at `kernel`'s lane width (the
/// generic loops' [`VECTOR_WIDTH`] for `None`) and proves it.
fn prove(
    spec: &ConvSpec,
    plan: LayerPlan,
    cores: usize,
    kernel: Option<&'static SpecializedKernel>,
) -> Result<ConvProgram, SpgError> {
    let (register_tile, schedule) = generated_tiles(spec);
    let lowered = ConvPlan {
        forward: lower_forward(
            spec,
            plan.forward,
            cores,
            kernel.map_or(VECTOR_WIDTH, |k| k.lanes()),
        ),
        backward: lower_backward(plan.backward, cores),
        register_tile,
        schedule,
    };
    // What ConvScratch::reserve provides for this spec, which every
    // `_scratch` entry point establishes.
    let cap = ScratchCapacity::reserved_for(spec);
    match spg_check::verify_conv_plan(spec, lowered, &cap) {
        Ok(verified) => Ok(ConvProgram::bind(verified, kernel, plan, cores)),
        Err(check) => {
            let technique = match check {
                // Attribute the rejection to the phase whose kernel faulted;
                // tile-shape errors precede the phase dispatch and blame
                // forward.
                spg_check::CheckError::OutOfBounds { buffer, .. }
                | spg_check::CheckError::ScratchOverflow { buffer, .. }
                    if matches!(
                        buffer,
                        spg_check::Buf::GradIn
                            | spg_check::Buf::GradOut
                            | spg_check::Buf::GradWeights
                    ) =>
                {
                    plan.backward.id()
                }
                _ => plan.forward.id(),
            };
            Err(SpgError::PlanRejected { technique, check })
        }
    }
}

/// [`lower`] for measuring or running one phase of one technique: the
/// other phase gets the always-applicable serial GEMM baseline.
///
/// # Errors
///
/// As [`lower`].
pub fn lower_phase(
    spec: &ConvSpec,
    technique: Technique,
    phase: Phase,
    cores: usize,
    kernel: KernelChoice,
) -> Result<ConvProgram, SpgError> {
    let baseline = Technique::GemmInParallel;
    let plan = match phase {
        Phase::Forward => LayerPlan { forward: technique, backward: baseline },
        Phase::Backward => LayerPlan { forward: baseline, backward: technique },
    };
    lower(spec, plan, cores, kernel)
}

/// Verifies one technique for one phase of `spec` without building a
/// program — the contest's deploy gate and `spgcnn check`'s verdict.
///
/// # Errors
///
/// Returns [`SpgError::PlanRejected`] as [`lower`] does.
pub fn verify_technique(
    spec: &ConvSpec,
    technique: Technique,
    phase: Phase,
    cores: usize,
) -> Result<CheckReport, SpgError> {
    let cap = ScratchCapacity::reserved_for(spec);
    let result = match phase {
        Phase::Forward => {
            let (register_tile, schedule) = generated_tiles(spec);
            let forward = lower_forward(spec, technique, cores, VECTOR_WIDTH);
            spg_check::verify_forward(spec, &forward, register_tile, schedule, &cap)
        }
        Phase::Backward => {
            spg_check::verify_backward(spec, &lower_backward(technique, cores), &cap)
        }
    };
    result.map_err(|check| SpgError::PlanRejected { technique: technique.id(), check })
}

/// Verifies a complete layer plan (generic kernel binding) against `spec`
/// and reports what was proved.
///
/// # Errors
///
/// Returns [`SpgError::PlanRejected`] naming the offending access if either
/// phase of the lowered plan fails verification.
///
/// # Example
///
/// ```
/// use spg_convnet::ConvSpec;
/// use spg_core::schedule::recommended_plan;
/// use spg_core::verify::verify_plan;
///
/// let spec = ConvSpec::square(12, 16, 4, 3, 1);
/// let plan = recommended_plan(&spec, 0.9, 16);
/// let report = verify_plan(&spec, plan, 16)?;
/// assert!(report.accesses_proved > 0);
/// # Ok::<(), spg_core::SpgError>(())
/// ```
pub fn verify_plan(
    spec: &ConvSpec,
    plan: LayerPlan,
    cores: usize,
) -> Result<CheckReport, SpgError> {
    lower(spec, plan, cores, KernelChoice::Generic).map(|program| program.report())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every technique pair the scheduler can emit verifies clean on both a
    /// wide (tiled stencil) and a narrow (shifted-GEMM) layer.
    #[test]
    fn all_technique_pairs_verify_on_representative_specs() {
        let wide = ConvSpec::square(14, 5, 3, 3, 1);
        let narrow = ConvSpec::square(7, 6, 4, 3, 1); // 5-wide output
        let strided = ConvSpec::square(28, 8, 3, 5, 2);
        for spec in [wide, narrow, strided] {
            for &fwd in Technique::forward_candidates() {
                for &bwd in Technique::backward_candidates(4) {
                    let plan = LayerPlan { forward: fwd, backward: bwd };
                    let report = verify_plan(&spec, plan, 4)
                        .unwrap_or_else(|err| panic!("{spec} {plan} rejected: {err}"));
                    assert!(report.accesses_proved > 0, "{spec} {plan}");
                }
            }
        }
    }

    /// Lowering applies the narrow-output cutoff.
    #[test]
    fn narrow_output_lowers_to_shifted_gemm() {
        let narrow = ConvSpec::square(7, 6, 4, 3, 1);
        assert_eq!(
            lower_forward(&narrow, Technique::StencilFp, 1, VECTOR_WIDTH),
            ForwardPlan::StencilNarrow
        );
        let wide = ConvSpec::square(14, 5, 3, 3, 1);
        assert!(matches!(
            lower_forward(&wide, Technique::StencilFp, 1, VECTOR_WIDTH),
            ForwardPlan::StencilTiled { phased: false, .. }
        ));
    }

    /// Strided layers lower with the phase transform (`sx > 1`).
    #[test]
    fn strided_layer_lowers_phased() {
        let strided = ConvSpec::square(28, 8, 3, 5, 2);
        assert!(matches!(
            lower_forward(&strided, Technique::StencilFp, 1, VECTOR_WIDTH),
            ForwardPlan::StencilTiled { phased: true, .. }
        ));
    }

    /// Every specialized registry instance's lowered plan verifies clean
    /// on a shape of its key wide enough for its lanes — including the
    /// 16-lane AVX-512 plans, which exercise the verifier at a lane width
    /// the generic kernel never lowers to. (Static proof: independent of
    /// host CPU features.)
    #[test]
    fn specialized_instances_verify() {
        for inst in spg_codegen::all_instances() {
            let k = inst.key();
            let n = k.sx * (inst.lanes() + 5) + k.fx;
            let spec = match ConvSpec::new(3, n, n, 2, k.fy, k.fx, k.sy, k.sx) {
                Ok(s) => s,
                Err(e) => panic!("spec for {k}: {e:?}"),
            };
            let (register_tile, schedule) = generated_tiles(&spec);
            let report = spg_check::verify_forward(
                &spec,
                &lower_forward(&spec, Technique::StencilFp, 1, inst.lanes()),
                register_tile,
                schedule,
                &ScratchCapacity::reserved_for(&spec),
            )
            .unwrap();
            assert!(report.accesses_proved > 0, "{inst:?} on {spec}");
        }
    }

    /// Shapes the registry covers bind an instance iff the host can run
    /// SIMD and `SPG_FORCE_GENERIC` is unset; unlisted geometries never do.
    #[test]
    fn kernel_binding_is_gated() {
        let spec = ConvSpec::square(20, 4, 2, 3, 1); // 18-wide output, 3x3 s1
        let bound = select_kernel(&spec);
        if spg_codegen::force_generic()
            || spg_gemm::detect_simd_level() < spg_gemm::SimdLevel::Avx2Fma
        {
            assert!(bound.is_none());
        } else {
            let inst = bound.expect("registry shape on a SIMD host");
            assert_eq!(inst.key(), spg_codegen::KernelKey::of(&spec));
        }
        let unlisted = ConvSpec::new(1, 40, 40, 3, 4, 4, 3, 3).expect("valid spec");
        assert!(select_kernel(&unlisted).is_none());
    }

    /// Per-phase verification covers each candidate list end to end.
    #[test]
    fn every_candidate_verifies_for_its_phase() {
        let spec = ConvSpec::square(12, 16, 4, 3, 1);
        for &t in Technique::forward_candidates() {
            verify_technique(&spec, t, Phase::Forward, 8).unwrap();
        }
        for &t in Technique::backward_candidates(8) {
            verify_technique(&spec, t, Phase::Backward, 8).unwrap();
        }
    }

    /// The stencil lowered at more than one core carries the
    /// [`band_ranges`] split and verifies clean on a splittable spec; an
    /// unsplittable spec lowers to the sequential plan at any core count.
    #[test]
    fn stencil_lowers_with_its_split_when_splittable() {
        // ImageNet-22K L0 (Table 2): 128x128 output, stride 2.
        let spec = ConvSpec::square(262, 120, 3, 7, 2);
        let report = verify_technique(&spec, Technique::StencilFp, Phase::Forward, 8).unwrap();
        assert!(report.worker_regions >= 8, "{report:?}");
        assert!(matches!(
            lower_forward(&spec, Technique::StencilFp, 8, VECTOR_WIDTH),
            ForwardPlan::StencilBanded { dim: spg_check::BandDim::YRows, .. }
        ));
        let narrow = ConvSpec::square(7, 6, 4, 3, 1);
        assert_eq!(
            lower_forward(&narrow, Technique::StencilFp, 8, VECTOR_WIDTH),
            ForwardPlan::StencilNarrow
        );
    }
}
