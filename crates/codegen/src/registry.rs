//! The specialized-kernel registry: compile-time-geometry instances of the
//! stencil loop nest keyed by kernel geometry, each bound to the vector
//! tier of a [`SimdLevel`] and resolved by runtime CPU features, runnable
//! only on a plan `spg-check` proved — and [`forward_tiled`], the one call
//! that runs a proved plan on the instance bound to it or on the
//! run-time-geometry instance.

use spg_check::VerifiedTiled;
use spg_convnet::workspace::ConvScratch;
use spg_convnet::ConvSpec;
use spg_gemm::SimdLevel;
use spg_tensor::layout::Ckkf;

use crate::kernels::{self, Dynamic, RegionFn};

/// The geometry tuple a specialized instance is monomorphized for —
/// the registry key, derived from a `ConvSpec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelKey {
    /// Kernel rows (`Fy`).
    pub fy: usize,
    /// Kernel columns (`Fx`).
    pub fx: usize,
    /// Vertical stride (`sy`).
    pub sy: usize,
    /// Horizontal stride (`sx`).
    pub sx: usize,
}

impl KernelKey {
    /// The key for a convolution's kernel geometry.
    pub fn of(spec: &ConvSpec) -> KernelKey {
        KernelKey { fy: spec.ky(), fx: spec.kx(), sy: spec.sy(), sx: spec.sx() }
    }
}

impl std::fmt::Display for KernelKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}s{}", self.fy, self.fx, self.sx)
    }
}

/// One monomorphized kernel instance: a `(geometry, tier)` pair bound to
/// the const-generic driver the compiler emitted for it.
pub struct SpecializedKernel {
    pub(crate) key: KernelKey,
    pub(crate) level: SimdLevel,
    pub(crate) run: RegionFn,
}

impl SpecializedKernel {
    /// The geometry key this instance was monomorphized for.
    pub fn key(&self) -> KernelKey {
        self.key
    }

    /// The level whose vector tier this instance runs on; a host runs it
    /// when [`detect_simd_level`](spg_gemm::detect_simd_level) reports at
    /// least this level.
    pub fn level(&self) -> SimdLevel {
        self.level
    }

    /// f32 lanes per vector (8 for AVX2, 16 for AVX-512).
    pub fn lanes(&self) -> usize {
        self.level.lanes()
    }
}

impl std::fmt::Debug for SpecializedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (key, id, lanes) = (self.key, self.level.id(), self.lanes());
        write!(f, "SpecializedKernel({key}, {id}, {lanes} lanes)")
    }
}

/// Expands to the registry entries for one geometry key: an AVX-512
/// instance (preferred when the host has it) and an AVX2 instance.
#[cfg(target_arch = "x86_64")]
macro_rules! instances {
    ($( ($fy:literal, $fx:literal, $sy:literal, $sx:literal) ),* $(,)?) => {
        &[
            $(
                SpecializedKernel {
                    key: KernelKey { fy: $fy, fx: $fx, sy: $sy, sx: $sx },
                    level: SimdLevel::Avx512Fma,
                    run: kernels::region::<kernels::Fixed<$fy, $fx, $sy, $sx>>,
                },
                SpecializedKernel {
                    key: KernelKey { fy: $fy, fx: $fx, sy: $sy, sx: $sx },
                    level: SimdLevel::Avx2Fma,
                    run: kernels::region::<kernels::Fixed<$fy, $fx, $sy, $sx>>,
                },
            )*
        ]
    };
}

/// Every monomorphized instance, in dispatch-preference order per key.
/// The key set covers the kernel geometries of the paper's Table 2
/// benchmarks — (7x7, s2), (5x5, s2), (3x3, s1), (5x5, s1), (11x11, s4) —
/// which is where the autotuner spends its forward time; anything else
/// runs the run-time-geometry instance.
#[cfg(target_arch = "x86_64")]
static REGISTRY: &[SpecializedKernel] =
    instances![(3, 3, 1, 1), (5, 5, 1, 1), (5, 5, 2, 2), (7, 7, 2, 2), (11, 11, 4, 4),];

/// Non-x86 hosts have no specialized instances: every shape takes the
/// run-time-geometry path, which is the guaranteed-fallback contract.
#[cfg(not(target_arch = "x86_64"))]
static REGISTRY: &[SpecializedKernel] = &[];

/// All registry instances (dispatch-preference order). Exposed so tests
/// and the golden suite can enumerate every instance; use
/// [`lookup`](crate::lookup) for dispatch.
// lint: allow(test-only) the golden suites enumerate every registry instance
pub fn all_instances() -> &'static [SpecializedKernel] {
    REGISTRY
}

/// Resolves the specialized instance for `spec`, or `None` when the
/// generic path must run: unlisted geometry, missing CPU features, or the
/// `SPG_FORCE_GENERIC` escape hatch. Wider ISAs win ties: the lanes are
/// output features, padded to whole vectors, so no output row is too
/// narrow for a vector.
pub fn lookup(spec: &ConvSpec) -> Option<&'static SpecializedKernel> {
    if crate::force_generic() {
        return None;
    }
    let key = KernelKey::of(spec);
    let level = spg_gemm::detect_simd_level();
    REGISTRY.iter().find(|k| k.key == key && k.level <= level)
}

/// Runs a proved tiled stencil forward — sequential or banded — for one
/// sample: on `kernel`, the registry instance lowering bound to the plan
/// (lowered at the instance's [`lanes`](SpecializedKernel::lanes) with one
/// of its [`register_tiles`](crate::register_tiles)), or, with none, on the
/// run-time-geometry instance of the same loop nest (the "generic" kernel:
/// geometry read from `plan.spec()`, 8-lane AVX2+FMA where the host has it,
/// the 8-lane portable tier otherwise). Either sweeps each of the plan's
/// regions with the plan's register tile, on as many threads as
/// `scratch`'s [core budget](ConvScratch::cores) allows, reading the CHW
/// input in place at every stride and `weights` in the feature-blocked
/// layout padded for the plan ([`VerifiedTiled::padded_features`]); it
/// allocates nothing.
///
/// Semantically identical to
/// [`reference::forward`](spg_convnet::reference::forward) on
/// `plan.spec()`.
///
/// # Panics
///
/// Panics if a buffer length does not match `plan.spec()` or `weights`
/// was padded for another tile; if the plan was lowered for another
/// register tile than the instance that runs it has
/// ([`spg_check::VECTOR_WIDTH`] lanes for the run-time-geometry one); or if
/// `kernel`'s key is not `plan.spec()`'s geometry or the running CPU lacks
/// its instruction set.
pub fn forward_tiled(
    kernel: Option<&SpecializedKernel>,
    plan: VerifiedTiled<'_>,
    input: &[f32],
    weights: &Ckkf,
    output: &mut [f32],
    scratch: &ConvScratch,
) {
    let (run, level): (RegionFn, SimdLevel) = match kernel {
        Some(inst) => {
            assert_eq!(KernelKey::of(plan.spec()), inst.key, "spec geometry vs instance key");
            assert!(
                inst.level <= spg_gemm::detect_simd_level(),
                "CPU lacks the {} features this instance requires",
                inst.level.id()
            );
            (inst.run, inst.level)
        }
        None => (kernels::region::<Dynamic>, SimdLevel::Avx2Fma),
    };
    kernels::forward(run, level, plan, input, weights, output, scratch);
}
