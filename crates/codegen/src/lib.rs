//! Stencil forward kernels for spg-CNN: one loop nest, instantiated per
//! kernel geometry, vector tier and register tile (JIT-lite codegen).
//!
//! The paper's basic-block generator chooses a register tile; this crate
//! finishes the job the way Georganas et al. describe for SIMD
//! convolutions: **vectorize over a block of output features** — each
//! kernel tap loads a few weight vectors once and broadcasts one input
//! value per output position into them — and **specialize one
//! parameterized kernel per (tile, stride, layout) tuple** so the inner
//! loops are branch-free with compile-time-constant trip counts. The
//! register-tiled basic block, its region driver and its entry exist once
//! (`kernels`), written over `spg-gemm`'s one SIMD vocabulary
//! ([`spg_gemm::simd`]); Rust const generics play the role of the JIT —
//! each registry entry is that loop nest with `Fy`, `Fx`, `sy`, `sx` baked
//! in, covering the kernel geometries of the paper's Table 2 benchmarks on
//! both the AVX2+FMA (8-lane) and the AVX-512F+FMA (16-lane) tier, each at
//! every tile of [`register_tiles`] — and the same source with the
//! geometry read from the plan's spec at run time is the "generic" kernel
//! every other shape runs.
//!
//! Contracts:
//!
//! * **Verified before run.** Every instance runs only a `spg-check`
//!   `StencilTiled` plan at its own lane width and one of its tiles, and
//!   [`forward_tiled`] accepts only the [`spg_check::VerifiedTiled`] the
//!   verifier hands back — the tile and bands the loops iterate are the
//!   ones that were proved.
//! * **Bit-identical.** Every instance is the same source, so all share
//!   the per-output-element reduction order (channels, `ky`, `kx`,
//!   single-rounded FMA from `+0.0`) whatever the tile, lane width or band,
//!   and their outputs are bit-identical by construction — confirmed over
//!   the full golden Table 2 suite.
//! * **Guaranteed fallback.** [`lookup`] returns `None` for unlisted
//!   geometries, missing CPU features, or when `SPG_FORCE_GENERIC` is set;
//!   [`forward_tiled`] then runs the run-time-geometry instance (portable
//!   tier on hosts without AVX2+FMA). Dispatch never fails loudly.

#![warn(missing_docs)]

use std::sync::OnceLock;

mod kernels;
mod registry;

pub use kernels::register_tiles;
pub use registry::{all_instances, forward_tiled, lookup, KernelKey, SpecializedKernel};

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
    use crate::kernels::tests::{blocked, proved, pseudo};
    use spg_check::RegisterTile;
    use spg_convnet::workspace::ConvScratch;
    use spg_convnet::{reference, ConvSpec};
    use spg_gemm::SimdLevel;

    /// Every instance the host can run, at every tile it has, is the
    /// run-time-geometry instance bit for bit — one loop nest, whatever
    /// supplies `Fy, Fx, sy, sx`, however wide the lanes and the tile —
    /// and matches the reference oracle (tolerance: reduction order
    /// differs from the reference's), on specs of its key with a ragged
    /// last feature vector and more than one row: one with a ragged row,
    /// one with rows narrower than a vector.
    #[test]
    fn runnable_instances_match_the_dynamic_instance_and_reference() {
        let level = spg_gemm::detect_simd_level();
        let instances = all_instances().iter().filter(|inst| inst.level() <= level);
        for (inst, (out_h, out_w)) in instances.flat_map(|i| [(i, (3, 17)), (i, (2, 4))]) {
            let k = inst.key();
            let (in_h, in_w) = (k.sy * (out_h - 1) + k.fy, k.sx * (out_w - 1) + k.fx);
            let spec = match ConvSpec::new(2, in_h, in_w, inst.lanes() + 5, k.fy, k.fx, k.sy, k.sx)
            {
                Ok(s) => s,
                Err(e) => panic!("spec for {k}: {e:?}"),
            };
            let input = pseudo(spec.input_shape().len(), 1);
            let weights = pseudo(spec.weight_shape().len(), 2);
            let mut oracle = vec![0f32; spec.output_shape().len()];
            reference::forward(&spec, &input, &weights, &mut oracle);
            let generic =
                proved(&spec, spg_check::VECTOR_WIDTH, RegisterTile { nx: 4, nfv: 3 }, None);
            let mut dynamic = vec![0f32; spec.output_shape().len()];
            let tiled = generic.tiled().unwrap_or_else(|| unreachable!("lowered tiled"));
            let scratch = ConvScratch::new();
            forward_tiled(
                None,
                tiled,
                &input,
                &blocked(&generic, &weights),
                &mut dynamic,
                &scratch,
            );
            for &tile in register_tiles(inst.lanes()).iter().filter(|t| t.nx <= out_w) {
                let plan = proved(&spec, inst.lanes(), tile, None);
                let tiled = plan.tiled().unwrap_or_else(|| unreachable!("lowered tiled"));
                let mut out = vec![f32::NAN; spec.output_shape().len()];
                forward_tiled(
                    Some(inst),
                    tiled,
                    &input,
                    &blocked(&plan, &weights),
                    &mut out,
                    &scratch,
                );
                assert_eq!(
                    out, dynamic,
                    "{inst:?} {tile:?} on {spec} diverged from the dynamic instance"
                );
                let diff =
                    out.iter().zip(&oracle).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
                assert!(diff < 5e-4, "{inst:?} {tile:?} on {spec}: diff {diff}");
            }
        }
    }

    /// Every compiled tile fits its instruction set's register file.
    #[test]
    fn compiled_tiles_fit_their_register_files() {
        for lanes in [8, 16] {
            let registers = spg_check::vector_registers(lanes).unwrap_or_else(|| unreachable!());
            assert!(!register_tiles(lanes).is_empty());
            for tile in register_tiles(lanes) {
                assert!(tile.registers() <= registers, "{lanes} lanes: {tile:?}");
            }
        }
        assert!(register_tiles(4).is_empty());
    }

    /// Unlisted geometries resolve to no instance — the silent fallback to
    /// the run-time-geometry instance.
    #[test]
    fn unlisted_shape_falls_back() {
        // 4x4 kernel at stride 3 is in no registry key.
        let spec = ConvSpec::new(2, 40, 40, 3, 4, 4, 3, 3).map_err(|e| format!("{e:?}")).unwrap();
        assert!(lookup(&spec).is_none());
    }

    /// Dispatch prefers the widest runnable ISA, whatever the output width:
    /// the lanes hold output features.
    #[test]
    fn dispatch_prefers_widest_runnable_isa() {
        let wide = ConvSpec::square(20, 4, 2, 3, 1); // 18-wide output
        let mid = ConvSpec::square(12, 4, 2, 3, 1); // 10-wide output
        if force_generic() {
            // The CI fallback leg (SPG_FORCE_GENERIC=1) disables every
            // instance; dispatch order is unobservable there.
            assert!(lookup(&wide).is_none());
            return;
        }
        let level = Some(spg_gemm::detect_simd_level()).filter(|&l| l > SimdLevel::Scalar);
        assert_eq!(lookup(&wide).map(|k| k.level()), level);
        assert_eq!(lookup(&mid).map(|k| k.level()), level);
    }

    /// An instance refuses a proved plan that was lowered for another
    /// lane width: the proof is about a different tile.
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
        let wrong = proved(&spec, 16, RegisterTile { nx: 4, nfv: 4 }, None);
        let mut out = vec![0f32; spec.output_shape().len()];
        forward_tiled(
            Some(of_lanes(8)),
            wrong.tiled().unwrap_or_else(|| unreachable!("lowered tiled")),
            &pseudo(spec.input_shape().len(), 1),
            &blocked(&wrong, &pseudo(spec.weight_shape().len(), 2)),
            &mut out,
            &ConvScratch::new(),
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
    fn kernel_choice_defaults_to_auto() {
        assert_eq!(KernelChoice::default(), KernelChoice::Auto);
    }
}
