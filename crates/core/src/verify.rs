//! Lowering: the one place a [`LayerPlan`] is interpreted.
//!
//! The pipeline is **lower → verify → execute**. [`lower`] turns a
//! technique pair into `spg-check`'s plan IR — choosing the register
//! tile, the band ranges over that plan's loop nest, the GEMM worker
//! counts, the sparse tile width and lane width, and
//! binding a `spg-codegen` instance when one resolves — hands
//! that IR to the verifier, and wraps the
//! [`VerifiedPlan`](spg_check::VerifiedPlan) it gets back in a
//! [`ConvProgram`]. The program's single dispatch
//! ([`compiled`](crate::compiled)) and the kernels beneath it read those
//! same fields; nothing downstream looks at a [`Technique`] again, so the
//! bounds that were proved are the bounds that execute by construction.
//! A rejected plan surfaces as [`SpgError::PlanRejected`] naming the
//! offending access, and no program exists for it.

use spg_check::{BackwardPlan, CheckReport, ConvPlan, ForwardPlan, ScratchCapacity, VECTOR_WIDTH};
use spg_codegen::{KernelChoice, SpecializedKernel};
use spg_convnet::ConvSpec;

use crate::autotune::Phase;
use crate::compiled::ConvProgram;
use crate::hybrid::band_ranges;
use crate::schedule::{LayerPlan, Technique};
use crate::sparse::DEFAULT_TILE_WIDTH;
use crate::stencil::plan_register_tile;
use crate::SpgError;

/// Lowers a forward technique: the tiled plan at `lanes` lanes (the
/// generic loops' 8, or a bound instance's own width) with the register
/// tile [`plan_register_tile`] picks there, and the split of either kernel
/// over `cores` regions. A row that fits no tile at `lanes` (one position
/// wide at the generic loops' 8) runs the GEMM, as the sparse technique's
/// forward does.
///
/// Every technique lowers *with* its intra-sample split. How many of the
/// proved regions run concurrently is not the plan's business: a call runs
/// them on `min(regions, core budget)` threads
/// ([`ConvScratch::cores`](spg_convnet::workspace::ConvScratch::cores)),
/// and at a budget of 1 — a sample worker of a saturated batch — the
/// sequential program. So the GEMM carries one row-band partition
/// (GEMM-in-Parallel is that plan in a walk that owns one core,
/// Parallel-GEMM the same plan in a walk that owns them all), and the
/// stencil carries the [`band_ranges`] split of its output rows wherever
/// that split has two bands or more.
fn lower_forward(spec: &ConvSpec, technique: Technique, cores: usize, lanes: usize) -> ForwardPlan {
    let tile = match technique {
        Technique::StencilFp => plan_register_tile(spec, lanes).map(|searched| searched.tile),
        // The GEMM, and the sparse technique, which has no forward kernel.
        Technique::GemmInParallel | Technique::SparseBp => None,
    };
    let Some(tile) = tile else {
        return ForwardPlan::UnfoldGemm { threads: cores.max(1) };
    };
    let bands = band_ranges(spec, cores);
    if bands.len() > 1 {
        ForwardPlan::StencilBanded { lanes, tile, bands }
    } else {
        ForwardPlan::StencilTiled { lanes, tile }
    }
}

/// Lowers a backward technique. As in [`lower_forward`], the GEMM lowers
/// with the row-band split of its two multiplies over `cores`, which a
/// call runs only as far as its core budget reaches. The stencil is a
/// forward-phase kernel; its backward falls back to the GEMM.
fn lower_backward(technique: Technique, cores: usize) -> BackwardPlan {
    match technique {
        // The lane width of the tier the sparse entries run on this CPU.
        Technique::SparseBp => {
            let lanes = spg_gemm::detect_simd_level().lanes();
            BackwardPlan::SparsePointerShift { tile_width: DEFAULT_TILE_WIDTH, lanes }
        }
        Technique::GemmInParallel | Technique::StencilFp => {
            BackwardPlan::UnfoldGemm { threads: cores.max(1) }
        }
    }
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
/// the shape ([`spg_codegen::lookup`]) when one of that instance's tiles
/// fits the output row and the plan at its lane width passes the
/// verifier; every other case — unlisted geometry, a row narrower than
/// every instance tile, missing CPU features, `SPG_FORCE_GENERIC`, a
/// rejected instance plan, or [`KernelChoice::Generic`] — lowers to the
/// generic loops, and a row too narrow for those to the GEMM.
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
    let bound = instance(spec, plan.forward, kernel);
    if let Some(program) = bound.and_then(|inst| prove(spec, plan, cores, Some(inst)).ok()) {
        return Ok(program);
    }
    prove(spec, plan, cores, None)
}

/// The registry instance [`lower`] tries first for a `forward` technique
/// on `spec` under `kernel`: the shape's ([`spg_codegen::lookup`]) for a
/// stencil forward under [`KernelChoice::Auto`] when one of its tiles fits
/// the output row, none otherwise.
fn instance(
    spec: &ConvSpec,
    forward: Technique,
    kernel: KernelChoice,
) -> Option<&'static SpecializedKernel> {
    match kernel {
        KernelChoice::Auto if forward == Technique::StencilFp => spg_codegen::lookup(spec)
            .filter(|inst| plan_register_tile(spec, inst.lanes()).is_some()),
        _ => None,
    }
}

/// Lowers `plan` with its tiled forward at `kernel`'s lane width (the
/// generic loops' [`VECTOR_WIDTH`] for `None`) and proves it.
fn prove(
    spec: &ConvSpec,
    plan: LayerPlan,
    cores: usize,
    kernel: Option<&'static SpecializedKernel>,
) -> Result<ConvProgram, SpgError> {
    let lowered = ConvPlan {
        forward: lower_forward(
            spec,
            plan.forward,
            cores,
            kernel.map_or(VECTOR_WIDTH, |k| k.lanes()),
        ),
        backward: lower_backward(plan.backward, cores),
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
/// program — the contest's deploy gate. The phase plan proved is the one
/// [`lower_phase`] deploys under [`KernelChoice::Auto`]: a stencil forward
/// at its bound instance's lane width when that plan proves, else at the
/// generic loops'.
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
    let result = match phase {
        Phase::Forward => {
            let prove_at = |lanes| {
                let forward = lower_forward(spec, technique, cores, lanes);
                spg_check::verify_forward(spec, &forward)
            };
            // `lower`'s fallback: a rejected instance plan runs generic.
            instance(spec, technique, KernelChoice::Auto)
                .and_then(|inst| prove_at(inst.lanes()).ok())
                .map_or_else(|| prove_at(VECTOR_WIDTH), Ok)
        }
        Phase::Backward => {
            let cap = ScratchCapacity::reserved_for(spec);
            spg_check::verify_backward(spec, &lower_backward(technique, cores), &cap)
        }
    };
    result.map_err(|check| SpgError::PlanRejected { technique: technique.id(), check })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every technique pair the scheduler can emit verifies clean on a
    /// wide, a narrow, a one-wide and a strided layer.
    #[test]
    fn all_technique_pairs_verify_on_representative_specs() {
        let wide = ConvSpec::square(14, 5, 3, 3, 1);
        let narrow = ConvSpec::square(7, 6, 4, 3, 1); // 5-wide output
        let column = ConvSpec::new(2, 6, 3, 4, 3, 3, 1, 1).unwrap(); // 1-wide output
        let strided = ConvSpec::square(28, 8, 3, 5, 2);
        for spec in [wide, narrow, column, strided] {
            for &fwd in Technique::forward_candidates() {
                for &bwd in Technique::backward_candidates() {
                    let plan = LayerPlan { forward: fwd, backward: bwd };
                    let report = lower(&spec, plan, 4, KernelChoice::Auto)
                        .unwrap_or_else(|err| panic!("{spec} {plan} rejected: {err}"))
                        .report();
                    assert!(report.accesses_proved > 0, "{spec} {plan}");
                }
            }
        }
    }

    /// Rows narrower than a vector lower to the tiled plan; a bound
    /// 16-lane instance is tried only where one of its tiles fits (a
    /// 3-wide row takes the generic 8-lane `(2, 5)` tile), and a one-wide
    /// row, which fits no tile, lowers to the GEMM.
    #[test]
    fn narrow_output_lowers_to_the_tiled_plan() {
        let narrow = ConvSpec::square(7, 6, 4, 3, 1); // 5-wide output
        let tile = plan_register_tile(&narrow, VECTOR_WIDTH).expect("fits").tile;
        assert_eq!(
            lower_forward(&narrow, Technique::StencilFp, 1, VECTOR_WIDTH),
            ForwardPlan::StencilTiled { lanes: VECTOR_WIDTH, tile }
        );
        // The scaled CIFAR-10 net's conv1: 3 wide, a registry key (5x5 s1).
        let three = ConvSpec::new(64, 7, 7, 64, 5, 5, 1, 1).unwrap();
        assert!(instance(&three, Technique::StencilFp, KernelChoice::Auto)
            .is_none_or(|inst| inst.lanes() == VECTOR_WIDTH));
        let program =
            lower_phase(&three, Technique::StencilFp, Phase::Forward, 1, KernelChoice::Auto)
                .expect("verifies");
        assert_eq!(
            program.plan().forward,
            ForwardPlan::StencilTiled {
                lanes: VECTOR_WIDTH,
                tile: spg_check::RegisterTile { nx: 2, nfv: 5 }
            }
        );
        let column = ConvSpec::new(2, 6, 3, 4, 3, 3, 1, 1).unwrap(); // 1-wide output
        for cores in [1, 4] {
            let program = lower_phase(
                &column,
                Technique::StencilFp,
                Phase::Forward,
                cores,
                KernelChoice::Auto,
            )
            .expect("verifies");
            assert_eq!(program.plan().forward, ForwardPlan::UnfoldGemm { threads: cores });
            assert!(program.specialized_kernel().is_none());
        }
    }

    /// The tiled plan carries the tile the Sec. 4.3 search picks at its
    /// lane width, strided or not: the stride needs no plan attribute.
    #[test]
    fn tiled_plan_carries_the_searched_tile() {
        for spec in [ConvSpec::square(28, 8, 3, 5, 2), ConvSpec::square(36, 64, 3, 5, 1)] {
            for lanes in [8, 16] {
                let tile = plan_register_tile(&spec, lanes).expect("fits").tile;
                assert_eq!(
                    lower_forward(&spec, Technique::StencilFp, 1, lanes),
                    ForwardPlan::StencilTiled { lanes, tile },
                    "{spec}"
                );
            }
        }
    }

    /// Every specialized registry instance's lowered plan verifies clean
    /// on a shape of its key — including the 16-lane AVX-512 plans, which
    /// exercise the verifier at a lane width the generic kernel never
    /// lowers to. (Static proof: independent of host CPU features.)
    #[test]
    fn specialized_instances_verify() {
        for inst in spg_codegen::all_instances() {
            let k = inst.key();
            let n = k.sx * (inst.lanes() + 5) + k.fx;
            let spec = match ConvSpec::new(3, n, n, 2, k.fy, k.fx, k.sy, k.sx) {
                Ok(s) => s,
                Err(e) => panic!("spec for {k}: {e:?}"),
            };
            let report = spg_check::verify_forward(
                &spec,
                &lower_forward(&spec, Technique::StencilFp, 1, inst.lanes()),
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
        for &t in Technique::backward_candidates() {
            verify_technique(&spec, t, Phase::Backward, 8).unwrap();
        }
    }

    /// A GEMM plan at 7 cores proves 7 row bands in each of its three
    /// multiplies, 8 features included: the bands are the ones the kernel
    /// cuts with `spg_sync::partition`, never fewer.
    #[test]
    fn gemm_plan_proves_a_band_per_core_in_every_multiply() {
        let spec = ConvSpec::new(3, 64, 64, 8, 7, 7, 1, 1).unwrap();
        let program =
            lower_phase(&spec, Technique::GemmInParallel, Phase::Forward, 7, KernelChoice::Auto)
                .unwrap();
        assert_eq!(program.report().worker_regions, 21);
    }

    /// The stencil lowered at more than one core carries the
    /// [`band_ranges`] split and verifies clean on a splittable spec; an
    /// unsplittable spec (here rows narrower than a vector) lowers to the
    /// sequential tiled plan at any core count.
    #[test]
    fn stencil_lowers_with_its_split_when_splittable() {
        // ImageNet-22K L0 (Table 2): 128x128 output, stride 2.
        let spec = ConvSpec::square(262, 120, 3, 7, 2);
        let report = verify_technique(&spec, Technique::StencilFp, Phase::Forward, 8).unwrap();
        assert!(report.worker_regions >= 8, "{report:?}");
        assert!(matches!(
            lower_forward(&spec, Technique::StencilFp, 8, VECTOR_WIDTH),
            ForwardPlan::StencilBanded { .. }
        ));
        let narrow = ConvSpec::square(7, 6, 4, 3, 1); // 5x5 output
        let tile = plan_register_tile(&narrow, VECTOR_WIDTH).expect("fits").tile;
        assert_eq!(
            lower_forward(&narrow, Technique::StencilFp, 8, VECTOR_WIDTH),
            ForwardPlan::StencilTiled { lanes: VECTOR_WIDTH, tile }
        );
    }
}
