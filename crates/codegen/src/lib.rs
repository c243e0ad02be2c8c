//! Stencil forward kernels for spg-CNN: one loop nest, instantiated per
//! kernel geometry and instruction set (JIT-lite codegen).
//!
//! The paper's basic-block generator chooses a register tile; this crate
//! finishes the job the way Georganas et al. describe for SIMD
//! convolutions: **specialize one parameterized kernel per (tile, stride,
//! layout) tuple** so the inner loops are branch-free with
//! compile-time-constant trip counts. The register-tiled basic block, its
//! region driver and its entry exist once (`kernels`); Rust const generics
//! play the role of the JIT — each registry entry is that loop nest with
//! `Fy`, `Fx`, `sy`, `sx` baked in, covering the kernel geometries of the
//! paper's Table 2 benchmarks in both AVX2+FMA (8-lane) and AVX-512F+FMA
//! (16-lane) variants — and the same source with the geometry read from the
//! plan's spec at run time is the "generic" kernel every other shape runs.
//!
//! Contracts:
//!
//! * **Verified before run.** Every instance lowers to the same
//!   `spg-check` `StencilTiled` plan IR ([`xplan::tiled_plan`] at the
//!   instance's lane width, 8 for the run-time-geometry one), and
//!   [`forward_tiled`] accepts only the [`spg_check::VerifiedTiled`] the
//!   verifier hands back — the tile list
//!   the loops iterate is the one that was proved.
//! * **Bit-identical.** Every instance is the same source, so all share
//!   the per-output-element reduction order (channels, `ky`, `kx`,
//!   single-rounded FMA) and their outputs are bit-identical by
//!   construction — confirmed over the full golden Table 2 suite.
//! * **Guaranteed fallback.** [`lookup`] returns `None` for unlisted
//!   geometries, narrow outputs, missing CPU features, or when
//!   `SPG_FORCE_GENERIC` is set; [`forward_tiled`] then runs the
//!   run-time-geometry instance (portable scalar loops on hosts without
//!   AVX2+FMA). Dispatch never fails loudly.

#![warn(missing_docs)]

use std::sync::OnceLock;

mod kernels;
mod registry;
pub mod xplan;

pub use registry::{all_instances, forward_tiled, lookup, Isa, KernelKey, SpecializedKernel};

/// Output rows held in the register tile by every instance of the loop
/// nest: six rows of up to two vectors fill the verifier's accumulator
/// budget at either lane width.
pub const TILE_ROWS: usize = 6;

/// Which stencil forward kernel a caller wants deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelChoice {
    /// Use the specialized instance when one exists, verifies clean, and
    /// the CPU can run it; otherwise the run-time-geometry ("generic")
    /// instance (the default).
    #[default]
    Auto,
    /// Always run the run-time-geometry instance (what the autotuner
    /// deploys when measurement favours it, and what `SPG_FORCE_GENERIC=1`
    /// forces process-wide).
    Generic,
}

impl KernelChoice {
    /// The decision-log spelling (`specialized` is recorded only for a
    /// resolved instance, never for the `Auto` intent itself).
    pub fn as_str(self) -> &'static str {
        match self {
            KernelChoice::Auto => "auto",
            KernelChoice::Generic => "generic",
        }
    }
}

/// Whether `SPG_FORCE_GENERIC` disables every specialized instance.
///
/// Read once per process (the CI fallback leg sets it for whole test
/// runs; per-call reads would put a syscall on the dispatch path). Any
/// non-empty value other than `0` forces the generic loops.
pub fn force_generic() -> bool {
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE.get_or_init(|| {
        std::env::var_os("SPG_FORCE_GENERIC").is_some_and(|v| !v.is_empty() && v != "0")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::tests::{proved, pseudo};
    use spg_convnet::workspace::ConvScratch;
    use spg_convnet::{reference, ConvSpec};
    use spg_gemm::SimdLevel;

    /// Every instance the host can run is the run-time-geometry instance
    /// bit for bit — one loop nest, whatever supplies `Fy, Fx, sy, sx` and
    /// however wide the lanes — and matches the reference oracle
    /// (tolerance: reduction order differs from the reference's), on a
    /// spec of its key with a ragged row (one vector and an overlapping
    /// tail) and a partial last register tile.
    #[test]
    fn runnable_instances_match_the_dynamic_instance_and_reference() {
        let level = spg_gemm::detect_simd_level();
        for inst in all_instances() {
            if !inst.isa().runnable_at(level) {
                continue;
            }
            let k = inst.key();
            let (out_h, out_w) = (14, inst.lanes() + 3);
            let (in_h, in_w) = (k.sy * (out_h - 1) + k.fy, k.sx * (out_w - 1) + k.fx);
            let spec = match ConvSpec::new(2, in_h, in_w, 3, k.fy, k.fx, k.sy, k.sx) {
                Ok(s) => s,
                Err(e) => panic!("spec for {k}: {e:?}"),
            };
            assert_eq!((spec.out_h(), spec.out_w()), (out_h, out_w));
            let input = pseudo(spec.input_shape().len(), 1);
            let weights = pseudo(spec.weight_shape().len(), 2);
            let mut out = vec![0f32; spec.output_shape().len()];
            let (mut dynamic, mut oracle) = (out.clone(), out.clone());
            let mut scratch = ConvScratch::new();
            let plan = proved(&spec, inst.lanes(), None);
            let tiled = plan.tiled().unwrap_or_else(|| unreachable!("lowered tiled"));
            forward_tiled(Some(inst), tiled, &input, &weights, &mut out, &mut scratch);
            let plan = proved(&spec, spg_check::VECTOR_WIDTH, None);
            let tiled = plan.tiled().unwrap_or_else(|| unreachable!("lowered tiled"));
            forward_tiled(None, tiled, &input, &weights, &mut dynamic, &mut scratch);
            assert_eq!(out, dynamic, "{inst:?} on {spec} diverged from the dynamic instance");
            reference::forward(&spec, &input, &weights, &mut oracle);
            let diff = out.iter().zip(&oracle).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
            assert!(diff < 5e-4, "{inst:?} on {spec}: diff {diff}");
        }
    }

    /// Unlisted geometries resolve to no instance — the silent fallback to
    /// the run-time-geometry instance.
    #[test]
    fn unlisted_shape_falls_back() {
        // 4x4 kernel at stride 3 is in no registry key.
        let spec = ConvSpec::new(2, 40, 40, 3, 4, 4, 3, 3).map_err(|e| format!("{e:?}")).unwrap();
        assert!(lookup(&spec).is_none());
        // 3x3 s1 *is* a key, but a 4-wide output row is narrower than any
        // instance's vector.
        let narrow = ConvSpec::square(6, 3, 2, 3, 1);
        assert!(lookup(&narrow).is_none());
    }

    /// Dispatch prefers the widest runnable ISA and respects the output
    /// width floor per instance.
    #[test]
    fn dispatch_prefers_widest_runnable_isa() {
        if force_generic() {
            // The CI fallback leg (SPG_FORCE_GENERIC=1) disables every
            // instance; dispatch order is unobservable there.
            assert!(lookup(&ConvSpec::square(20, 4, 2, 3, 1)).is_none());
            return;
        }
        let level = spg_gemm::detect_simd_level();
        let wide = ConvSpec::square(20, 4, 2, 3, 1); // 18-wide output
        let mid = ConvSpec::square(12, 4, 2, 3, 1); // 10-wide output
        match level {
            SimdLevel::Scalar => {
                assert!(lookup(&wide).is_none());
            }
            SimdLevel::Avx2Fma => {
                assert_eq!(lookup(&wide).map(|k| k.isa()), Some(Isa::Avx2));
            }
            SimdLevel::Avx512Fma => {
                assert_eq!(lookup(&wide).map(|k| k.isa()), Some(Isa::Avx512));
                // 10 < 16 lanes: AVX-512 instance inapplicable, AVX2 runs.
                assert_eq!(lookup(&mid).map(|k| k.isa()), Some(Isa::Avx2));
            }
        }
    }

    /// The plan lowering matches what the instance executes: lane width,
    /// tile rows, phase flag, and a covering x-tile list.
    #[test]
    fn lowered_plan_reflects_instance() {
        let spec = ConvSpec::square(64, 4, 3, 5, 2);
        let Some(inst) = lookup(&spec) else { return };
        match xplan::tiled_plan(&spec, inst.lanes(), 1) {
            spg_check::ForwardPlan::StencilTiled {
                lanes,
                tile_rows,
                cache_rows,
                x_tiles,
                phased,
            } => {
                assert_eq!(lanes, inst.lanes());
                assert_eq!(tile_rows, TILE_ROWS);
                assert_eq!(cache_rows, TILE_ROWS, "cache_rows clamps up to the tile");
                assert!(phased);
                assert!(!x_tiles.is_empty());
            }
            other => panic!("unexpected lowering: {other:?}"),
        }
    }

    /// An instance refuses a proved plan that was lowered for another
    /// lane width: the proof is about a different tile list.
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic(expected = "different register tile")]
    fn instance_rejects_a_plan_of_another_lane_width() {
        let spec = ConvSpec::square(40, 2, 2, 3, 1);
        let of_lanes = |lanes: usize| {
            let found = all_instances()
                .iter()
                .find(|k| k.lanes() == lanes && k.key() == KernelKey::of(&spec));
            found.unwrap_or_else(|| unreachable!("3x3 s1 has both ISAs"))
        };
        let wrong = proved(&spec, 16, None);
        let mut out = vec![0f32; spec.output_shape().len()];
        forward_tiled(
            Some(of_lanes(8)),
            wrong.tiled().unwrap_or_else(|| unreachable!("lowered tiled")),
            &pseudo(spec.input_shape().len(), 1),
            &pseudo(spec.weight_shape().len(), 2),
            &mut out,
            &mut ConvScratch::new(),
        );
    }

    #[test]
    fn registry_covers_table2_geometries() {
        for key in [(3, 3, 1, 1), (5, 5, 1, 1), (5, 5, 2, 2), (7, 7, 2, 2), (11, 11, 4, 4)] {
            let (fy, fx, sy, sx) = key;
            let hits =
                all_instances().iter().filter(|k| k.key() == KernelKey { fy, fx, sy, sx }).count();
            assert_eq!(hits, 2, "expected avx2+avx512 instances for {key:?}");
        }
    }

    #[test]
    fn kernel_choice_strings() {
        assert_eq!(KernelChoice::Auto.as_str(), "auto");
        assert_eq!(KernelChoice::Generic.as_str(), "generic");
        assert_eq!(KernelChoice::default(), KernelChoice::Auto);
    }
}
