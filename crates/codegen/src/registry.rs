//! The specialized-kernel registry: compile-time-geometry instances of the
//! stencil loop nest keyed by kernel geometry, resolved by runtime CPU
//! features, runnable only on a plan `spg-check` proved — and
//! [`forward_tiled`], the one call that runs a proved plan on the instance
//! bound to it or on the run-time-geometry instance.

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

/// Instruction set a specialized instance was compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// AVX2 + FMA, 8 f32 lanes.
    Avx2,
    /// AVX-512F + FMA, 16 f32 lanes.
    Avx512,
}

impl Isa {
    /// Whether a detected [`SimdLevel`] can run this instance.
    pub fn runnable_at(self, level: SimdLevel) -> bool {
        match self {
            Isa::Avx2 => level >= SimdLevel::Avx2Fma,
            Isa::Avx512 => level >= SimdLevel::Avx512Fma,
        }
    }

    /// Short name for telemetry and benchmark documents.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }
}

/// One monomorphized kernel instance: a `(geometry, ISA)` pair bound to
/// the const-generic function the compiler emitted for it.
pub struct SpecializedKernel {
    pub(crate) key: KernelKey,
    pub(crate) isa: Isa,
    pub(crate) lanes: usize,
    pub(crate) run: RegionFn,
}

impl SpecializedKernel {
    /// The geometry key this instance was monomorphized for.
    pub fn key(&self) -> KernelKey {
        self.key
    }

    /// The instruction set this instance requires.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// f32 lanes per vector (8 for AVX2, 16 for AVX-512).
    pub fn lanes(&self) -> usize {
        self.lanes
    }
}

impl std::fmt::Debug for SpecializedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SpecializedKernel({}, {}, {} lanes)", self.key, self.isa.name(), self.lanes)
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
                    isa: Isa::Avx512,
                    lanes: kernels::avx512::LANES,
                    run: kernels::avx512::forward_tiled::<kernels::Fixed<$fy, $fx, $sy, $sx>>,
                },
                SpecializedKernel {
                    key: KernelKey { fy: $fy, fx: $fx, sy: $sy, sx: $sx },
                    isa: Isa::Avx2,
                    lanes: kernels::avx2::LANES,
                    run: kernels::avx2::forward_tiled::<kernels::Fixed<$fy, $fx, $sy, $sx>>,
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
    REGISTRY.iter().find(|k| k.key == key && k.isa.runnable_at(level))
}

/// Runs a proved tiled stencil forward — sequential or banded — for one
/// sample: on `kernel`, the registry instance lowering bound to the plan
/// (lowered at the instance's [`lanes`](SpecializedKernel::lanes) with one
/// of its [`register_tiles`](crate::register_tiles)), or, with none, on the
/// run-time-geometry instance of the same loop nest (the "generic" kernel:
/// geometry read from `plan.spec()`, 8-lane AVX2+FMA where the host has it,
/// portable scalar loops otherwise). Either sweeps each of the plan's
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
    let (run, lanes): (RegionFn, usize) = match kernel {
        Some(inst) => {
            assert_eq!(KernelKey::of(plan.spec()), inst.key, "spec geometry vs instance key");
            assert!(
                inst.isa.runnable_at(spg_gemm::detect_simd_level()),
                "CPU lacks the {} features this instance requires",
                inst.isa.name()
            );
            (inst.run, inst.lanes)
        }
        #[cfg(target_arch = "x86_64")]
        None if Isa::Avx2.runnable_at(spg_gemm::detect_simd_level()) => {
            (kernels::avx2::forward_tiled::<Dynamic>, kernels::avx2::LANES)
        }
        None => (kernels::forward_scalar::<Dynamic>, spg_check::VECTOR_WIDTH),
    };
    let tiles = kernels::register_tiles(lanes);
    // SAFETY: `run` is the scalar loops, or a SIMD driver whose target
    // features the ISA checks above found on this CPU, paired with its own
    // module's lane width and tiles; a registry instance's key matches the
    // spec, and the driver re-checks that against its const parameters.
    // Every bound the tile loops use comes from `plan`, which only
    // spg-check can construct.
    unsafe { kernels::forward(run, lanes, tiles, plan, input, weights, output, scratch) };
}
