//! cuDNN-style backend abstraction: descriptors, algorithm enumeration,
//! workspace queries, and compilation (ROADMAP item 3).
//!
//! The paper's central move is treating convolution execution strategy as
//! a *searchable space*. This module makes that space an explicit, typed
//! contract mirroring the cuDNN convolution API shape:
//!
//! | cuDNN | here |
//! |---|---|
//! | `cudnnConvolutionDescriptor_t` | [`ConvDescriptor`] |
//! | `cudnnConvolutionFwdAlgo_t` | [`AlgoChoice`] |
//! | `cudnnGetConvolutionForwardAlgorithm_v7` | [`Backend::get_algos`] |
//! | `cudnnGetConvolutionForwardWorkspaceSize` | [`Backend::workspace_size`] |
//! | plan/graph instantiation | [`Backend::compile`] |
//!
//! Two implementations ship behind the trait: [`CpuBackend`] — the real
//! SIMD backend, whose [`compile`](Backend::compile) produces the same
//! [`CompiledConv`] the serving path runs — and the analytical
//! `spg-simcpu` backend (`SimBackend`), whose answers come from the
//! Sec. 3 AIT model, so capacity planning exercises the *same* API as
//! production.
//!
//! # Example: enumerate, query, compile
//!
//! ```
//! use spg_convnet::ConvSpec;
//! use spg_core::backend::{Backend, ConvDescriptor, CpuBackend};
//!
//! let backend = CpuBackend::new();
//! let desc = ConvDescriptor::new(ConvSpec::square(12, 16, 4, 3, 1), 4);
//! let weights = vec![0.01; desc.spec.weight_shape().len()];
//! for algo in backend.get_algos(&desc) {
//!     let bytes = backend.workspace_size(&desc, algo);
//!     let kernel = backend.compile(&desc, algo, &weights)?;
//!     assert_eq!(kernel.plan(), algo.plan());
//!     assert!(bytes > 0);
//! }
//! # Ok::<(), spg_core::SpgError>(())
//! ```

use std::fmt;

use spg_check::{BackwardPlan, ScratchCapacity};
use spg_codegen::{Isa, KernelChoice};
use spg_convnet::layer::ConvLayer;
use spg_convnet::ConvSpec;

use crate::autotune::Phase;
use crate::compiled::{CompiledConv, ConvProgram};
use crate::schedule::{LayerPlan, Technique};
use crate::verify::{lower, lower_backward, lower_phase, verify_technique};
use crate::SpgError;

/// Descriptor of one convolution problem instance: the layer geometry plus
/// the core budget the algorithms may partition across. Plays the role of
/// `cudnnConvolutionDescriptor_t` — every [`Backend`] query takes one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvDescriptor {
    /// The convolution geometry (channels, image, features, kernel,
    /// strides).
    pub spec: ConvSpec,
    /// Cores available to parallel techniques (clamped to at least 1).
    pub cores: usize,
}

impl ConvDescriptor {
    /// Builds a descriptor; a zero `cores` is clamped to 1.
    pub fn new(spec: ConvSpec, cores: usize) -> Self {
        ConvDescriptor { spec, cores: cores.max(1) }
    }
}

/// Which generated forward kernel an [`AlgoChoice`] binds: the generic
/// runtime-parameterized loops, or a monomorphized `spg-codegen` instance
/// for a specific ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgoKernel {
    /// Generic runtime-parameterized loops (always available).
    Generic,
    /// Verified specialized instance for the named ISA; only enumerated
    /// when the registry resolves one for the shape on this host.
    Specialized(Isa),
}

impl AlgoKernel {
    /// Stable machine-readable identifier (`"generic"`, `"avx2"`,
    /// `"avx512"`).
    pub fn id(self) -> &'static str {
        match self {
            AlgoKernel::Generic => "generic",
            AlgoKernel::Specialized(isa) => isa.name(),
        }
    }
}

/// One runnable execution strategy for a convolution layer: a forward
/// technique × a backward technique × a forward kernel binding. The
/// backend analogue of a `cudnnConvolutionFwdAlgo_t` value, except typed
/// and enumerable per descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AlgoChoice {
    /// Forward-propagation technique.
    pub forward: Technique,
    /// Backward-propagation technique.
    pub backward: Technique,
    /// Forward kernel binding (generic loops or a specialized instance).
    pub kernel: AlgoKernel,
}

impl AlgoChoice {
    /// The two-phase layer plan this algorithm executes.
    pub fn plan(self) -> LayerPlan {
        LayerPlan { forward: self.forward, backward: self.backward }
    }

    /// Stable machine-readable identifier,
    /// `"<forward>+<backward>/<kernel>"` — e.g.
    /// `"stencil-fp+sparse-bp/avx2"`. Recorded in decision telemetry.
    pub fn id(self) -> String {
        format!("{}+{}/{}", self.forward.id(), self.backward.id(), self.kernel.id())
    }

    /// Lowers and verifies this algorithm for `spec` at `cores` workers:
    /// the program both [`Backend::compile`] and
    /// [`install`](spg_convnet::LayerAlgo::install) execute.
    ///
    /// # Errors
    ///
    /// Returns [`SpgError::PlanRejected`] if the verifier rejects the
    /// lowered plan, or [`SpgError::InvalidNetwork`] if lowering does not
    /// bind the specialized instance this algorithm names (wrong forward
    /// technique, unlisted shape, or an ISA this host does not prefer).
    pub fn lower(self, spec: &ConvSpec, cores: usize) -> Result<ConvProgram, SpgError> {
        let choice = match self.kernel {
            AlgoKernel::Generic => KernelChoice::Generic,
            AlgoKernel::Specialized(_) => KernelChoice::Auto,
        };
        let program = lower(spec, self.plan(), cores.max(1), choice)?;
        match (self.kernel, program.specialized_kernel()) {
            (AlgoKernel::Generic, _) => Ok(program),
            (AlgoKernel::Specialized(isa), Some(inst)) if inst.isa() == isa => Ok(program),
            (AlgoKernel::Specialized(isa), _) => Err(SpgError::InvalidNetwork {
                message: format!(
                    "no verified {} specialized kernel for {} on this shape and host",
                    isa.name(),
                    self.forward.id()
                ),
            }),
        }
    }
}

impl fmt::Display for AlgoChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id())
    }
}

/// A convolution execution backend: enumerates runnable algorithms for a
/// descriptor, answers per-algorithm workspace queries, and compiles a
/// chosen algorithm into an executable kernel.
///
/// Implemented by [`CpuBackend`] (real SIMD execution) and
/// `spg_simcpu::SimBackend` (analytical predictions from the Sec. 3
/// model); `Engine` pins and `spg-serve` dispatch through this trait.
pub trait Backend {
    /// What [`compile`](Backend::compile) produces: an executable
    /// [`CompiledConv`] for the CPU backend, an analytical prediction for
    /// the simulator.
    type Kernel;

    /// Stable backend identifier recorded in telemetry (`"cpu"`, `"sim"`).
    fn name(&self) -> &'static str;

    /// Enumerates every algorithm this backend can run for `desc`,
    /// filtered by `spg-check` plan verification and host CPU features.
    /// Order is deterministic: forward candidates × backward candidates in
    /// [`Technique`] candidate order, generic kernel before specialized.
    fn get_algos(&self, desc: &ConvDescriptor) -> impl Iterator<Item = AlgoChoice>;

    /// Upper bound, in bytes, on the [`ConvScratch`] footprint running
    /// `algo` on `desc` will reach — the cuDNN workspace-size query.
    /// Answered from closed-form sizing math; no buffers are allocated.
    ///
    /// [`ConvScratch`]: spg_convnet::workspace::ConvScratch
    fn workspace_size(&self, desc: &ConvDescriptor, algo: AlgoChoice) -> usize;

    /// Compiles `algo` for `desc` against `weights`, producing the bound
    /// kernel.
    ///
    /// # Errors
    ///
    /// Returns [`SpgError::InvalidNetwork`] if `weights` does not match
    /// the descriptor geometry or the algorithm's kernel binding is not
    /// runnable for it, or [`SpgError::PlanRejected`] if the plan-time
    /// verifier rejects the lowered plan.
    fn compile(
        &self,
        desc: &ConvDescriptor,
        algo: AlgoChoice,
        weights: &[f32],
    ) -> Result<Self::Kernel, SpgError>;
}

/// Closed-form upper bound on the [`ConvScratch`] bytes running `algo` on
/// `desc` reaches — the arithmetic behind every backend's
/// [`workspace_size`](Backend::workspace_size).
///
/// The geometry-determined buffers are the verifier's
/// [`ScratchCapacity::reserved_for`] — what
/// [`ConvScratch::reserve`](spg_convnet::workspace::ConvScratch::reserve)
/// provides; on top of that the lowered backward plan's lazily-grown
/// storage is bounded: the GEMM panel packs of the single-threaded
/// backward-data transposed multiply ([`spg_gemm::pack_high_water`]) for
/// serial GEMM backwards, and the dense-gradient CT-CSR capacity for the
/// sparse pointer-shift backward.
///
/// [`ConvScratch`]: spg_convnet::workspace::ConvScratch
pub fn conv_workspace_bytes(desc: &ConvDescriptor, algo: AlgoChoice) -> usize {
    let spec = &desc.spec;
    let patches = spec.out_h() * spec.out_w();
    let patch_len = spec.weight_shape().per_feature();
    let features = spec.features();
    let reserved = ScratchCapacity::reserved_for(spec).elems();
    let extra = match lower_backward(algo.backward, desc.cores) {
        // The single-threaded backward-data runs the transposed multiply
        // E_U = E_O^T W through the scratch pack buffers: k = features,
        // m = patches, n = patch_len.
        BackwardPlan::UnfoldGemm { threads: 1 } => {
            let (a, b) = spg_gemm::pack_high_water(patches, features, patch_len);
            a + b
        }
        // With more workers it stages E_O^T in mat_a (already counted) and
        // packs per-worker locally, outside the scratch.
        BackwardPlan::UnfoldGemm { .. } => 0,
        // CT-CSR staging: values + column indices bounded by a dense
        // gradient, plus one row-pointer array per column tile.
        BackwardPlan::SparsePointerShift { tile_width } => {
            patches * features * 2 + features.div_ceil(tile_width) * (patches + 1)
        }
    };
    (reserved + extra) * std::mem::size_of::<f32>()
}

/// The real CPU SIMD backend: algorithms are the verified
/// technique-pair × kernel space and [`compile`](Backend::compile)
/// produces the same [`CompiledConv`] artifact `spg-serve` runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuBackend;

impl CpuBackend {
    /// Creates the CPU backend (stateless).
    pub fn new() -> Self {
        CpuBackend
    }

    /// The algorithm the default ([`KernelChoice::Auto`]) compile path
    /// binds for `plan`: the specialized instance when lowering resolves
    /// and verifies one for the plan's forward, generic loops otherwise.
    /// `compile(desc, algo_for(desc, plan), ..)` is bit-identical to
    /// [`CompiledConv::compile`].
    pub fn algo_for(&self, desc: &ConvDescriptor, plan: LayerPlan) -> AlgoChoice {
        let bound = lower(&desc.spec, plan, desc.cores, KernelChoice::Auto)
            .ok()
            .and_then(|program| program.specialized_kernel());
        let kernel = bound.map_or(AlgoKernel::Generic, |inst| AlgoKernel::Specialized(inst.isa()));
        AlgoChoice { forward: plan.forward, backward: plan.backward, kernel }
    }
}

impl Backend for CpuBackend {
    type Kernel = CompiledConv;

    fn name(&self) -> &'static str {
        "cpu"
    }

    fn get_algos(&self, desc: &ConvDescriptor) -> impl Iterator<Item = AlgoChoice> {
        let spec = desc.spec;
        let cores = desc.cores;
        // Each verified forward candidate, with the ISA of the instance
        // Auto lowering binds to it (none for all but the stencil forward).
        let fwd: Vec<(Technique, Option<Isa>)> = Technique::forward_candidates()
            .iter()
            .filter_map(|&t| {
                let program =
                    lower_phase(&spec, t, Phase::Forward, cores, KernelChoice::Auto).ok()?;
                Some((t, program.specialized_kernel().map(|inst| inst.isa())))
            })
            .collect();
        let bwd: Vec<Technique> = Technique::backward_candidates(cores)
            .iter()
            .copied()
            .filter(|t| verify_technique(&spec, *t, Phase::Backward, cores).is_ok())
            .collect();
        let mut algos = Vec::with_capacity(fwd.len() * bwd.len() * 2);
        for &(forward, isa) in &fwd {
            for &backward in &bwd {
                algos.push(AlgoChoice { forward, backward, kernel: AlgoKernel::Generic });
                if let Some(isa) = isa {
                    algos.push(AlgoChoice {
                        forward,
                        backward,
                        kernel: AlgoKernel::Specialized(isa),
                    });
                }
            }
        }
        algos.into_iter()
    }

    fn workspace_size(&self, desc: &ConvDescriptor, algo: AlgoChoice) -> usize {
        conv_workspace_bytes(desc, algo)
    }

    fn compile(
        &self,
        desc: &ConvDescriptor,
        algo: AlgoChoice,
        weights: &[f32],
    ) -> Result<CompiledConv, SpgError> {
        CompiledConv::from_program(algo.lower(&desc.spec, desc.cores)?, weights)
    }
}

/// An [`AlgoChoice`] installs on an [`Engine`](spg_convnet::Engine) layer
/// via [`algo_override`](spg_convnet::Engine::algo_override): the plan is
/// lowered and verified for the layer's geometry with the algorithm's
/// kernel binding, and the resulting program fills both executor slots.
impl spg_convnet::LayerAlgo for AlgoChoice {
    fn id(&self) -> String {
        AlgoChoice::id(*self)
    }

    fn install(&self, conv: &mut ConvLayer, cores: usize) -> Result<(), spg_error::Error> {
        let program = self.lower(conv.spec(), cores)?;
        program.install(conv, &[Phase::Forward, Phase::Backward]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::select_kernel;
    use spg_convnet::workspace::ConvScratch;

    fn specs() -> Vec<ConvSpec> {
        vec![
            ConvSpec::square(12, 16, 4, 3, 1),
            ConvSpec::square(24, 4, 3, 3, 1),
            ConvSpec::new(2, 10, 10, 4, 3, 3, 1, 1).unwrap(),
            ConvSpec::new(3, 8, 8, 4, 3, 3, 2, 2).unwrap(),
            ConvSpec::square(28, 20, 1, 5, 1),
        ]
    }

    #[test]
    fn enumeration_is_verified_product_in_candidate_order() {
        for spec in specs() {
            let desc = ConvDescriptor::new(spec, 4);
            let algos: Vec<AlgoChoice> = CpuBackend::new().get_algos(&desc).collect();
            assert!(!algos.is_empty(), "no algos for {spec:?}");
            // Every enumerated generic pair verifies; every verified pair
            // is enumerated.
            for f in Technique::forward_candidates() {
                for b in Technique::backward_candidates(desc.cores) {
                    let runnable = verify_technique(&spec, *f, Phase::Forward, desc.cores).is_ok()
                        && verify_technique(&spec, *b, Phase::Backward, desc.cores).is_ok();
                    let listed = algos.iter().any(|a| {
                        a.forward == *f && a.backward == *b && a.kernel == AlgoKernel::Generic
                    });
                    assert_eq!(runnable, listed, "{spec:?} {f:?}+{b:?}");
                }
            }
            // Specialized entries appear exactly when the registry
            // resolves, and only on the stencil forward.
            let resolved = select_kernel(&spec).is_some();
            let any_specialized =
                algos.iter().any(|a| matches!(a.kernel, AlgoKernel::Specialized(_)));
            let stencil_listed = algos.iter().any(|a| a.forward == Technique::StencilFp);
            assert_eq!(any_specialized, resolved && stencil_listed, "{spec:?}");
            assert!(algos
                .iter()
                .filter(|a| matches!(a.kernel, AlgoKernel::Specialized(_)))
                .all(|a| a.forward == Technique::StencilFp));
        }
    }

    #[test]
    fn workspace_query_matches_reserve_and_bounds_extras() {
        for spec in specs() {
            let desc = ConvDescriptor::new(spec, 4);
            let mut scratch = ConvScratch::new();
            scratch.reserve(&spec);
            // ParallelGemm backward adds nothing beyond the reserved
            // geometry buffers, so the query equals the real footprint.
            let base = AlgoChoice {
                forward: Technique::ParallelGemm,
                backward: Technique::ParallelGemm,
                kernel: AlgoKernel::Generic,
            };
            assert_eq!(conv_workspace_bytes(&desc, base), scratch.bytes(), "{spec:?}");
            // Other backwards only grow the bound.
            for backward in [Technique::GemmInParallel, Technique::SparseBp] {
                let algo = AlgoChoice { backward, ..base };
                assert!(conv_workspace_bytes(&desc, algo) > scratch.bytes(), "{spec:?}");
            }
            // At one core even Parallel-GEMM backward takes the packed
            // single-threaded path, so its bound grows past the reserve.
            let single = ConvDescriptor::new(spec, 1);
            assert!(conv_workspace_bytes(&single, base) > scratch.bytes(), "{spec:?}");
        }
    }

    /// The serial backward-data multiply packs for the tile this CPU
    /// dispatches; its pack buffers stay inside the workspace bound and
    /// stop growing once warm (ImageNet-1K conv1-3, both CIFAR-10 layers).
    #[test]
    fn serial_backward_data_packs_stay_inside_the_bound() {
        let specs = [
            ConvSpec::square(55, 256, 96, 5, 1),
            ConvSpec::square(25, 384, 256, 3, 1),
            ConvSpec::square(11, 256, 384, 3, 1),
            ConvSpec::square(36, 64, 3, 5, 1),
            ConvSpec::square(8, 64, 64, 5, 1),
        ];
        let algo = AlgoChoice {
            forward: Technique::ParallelGemm,
            backward: Technique::GemmInParallel,
            kernel: AlgoKernel::Generic,
        };
        for spec in specs {
            let mut scratch = ConvScratch::new();
            scratch.reserve(&spec);
            let reserved = scratch.bytes();
            let weights = vec![0.01; spec.weight_shape().len()];
            let grad_out = vec![0.02; spec.output_shape().len()];
            let mut grad_in = vec![0.0; spec.input_shape().len()];
            let caps: Vec<_> = (0..2)
                .map(|_| {
                    spg_convnet::gemm_exec::backward_data_scratch(
                        &spec,
                        &weights,
                        &grad_out,
                        &mut grad_in,
                        1,
                        &mut scratch,
                    );
                    (scratch.pack_a.capacity(), scratch.pack_b.capacity())
                })
                .collect();
            assert_eq!(caps[0], caps[1], "{spec:?}: packs grew on the second call");
            let packs = (caps[1].0 + caps[1].1) * std::mem::size_of::<f32>();
            let bound = conv_workspace_bytes(&ConvDescriptor::new(spec, 1), algo);
            assert!(reserved + packs <= bound, "{spec:?}: {reserved} + {packs} > {bound}");
        }
    }

    #[test]
    fn algo_for_reproduces_auto_kernel_binding() {
        let backend = CpuBackend::new();
        for spec in specs() {
            let desc = ConvDescriptor::new(spec, 1);
            let plan =
                LayerPlan { forward: Technique::StencilFp, backward: Technique::GemmInParallel };
            let algo = backend.algo_for(&desc, plan);
            let expected = match select_kernel(&spec) {
                Some(inst) => AlgoKernel::Specialized(inst.isa()),
                None => AlgoKernel::Generic,
            };
            assert_eq!(algo.kernel, expected);
            let auto = CompiledConv::compile(
                spec,
                plan,
                &vec![0.02; spec.weight_shape().len()],
                desc.cores,
            )
            .unwrap();
            let routed =
                backend.compile(&desc, algo, &vec![0.02; spec.weight_shape().len()]).unwrap();
            assert_eq!(auto.kernel_kind(), routed.kernel_kind(), "{spec:?}");
        }
    }

    #[test]
    fn compile_rejects_unavailable_specialized_binding() {
        let backend = CpuBackend::new();
        // Unlisted geometry: no specialized instance can resolve.
        let spec = ConvSpec::new(1, 40, 40, 3, 4, 4, 3, 3).unwrap();
        let desc = ConvDescriptor::new(spec, 1);
        let weights = vec![0.0; spec.weight_shape().len()];
        let algo = AlgoChoice {
            forward: Technique::StencilFp,
            backward: Technique::GemmInParallel,
            kernel: AlgoKernel::Specialized(Isa::Avx2),
        };
        assert!(backend.compile(&desc, algo, &weights).is_err());
        let wrong_fwd = AlgoChoice { forward: Technique::ParallelGemm, ..algo };
        assert!(backend.compile(&desc, wrong_fwd, &weights).is_err());
    }

    #[test]
    fn ids_are_stable() {
        let algo = AlgoChoice {
            forward: Technique::StencilFp,
            backward: Technique::SparseBp,
            kernel: AlgoKernel::Generic,
        };
        assert_eq!(algo.id(), "stencil-fp+sparse-bp/generic");
        assert_eq!(algo.to_string(), algo.id());
        assert_eq!(AlgoKernel::Specialized(Isa::Avx512).id(), "avx512");
        assert_eq!(ConvDescriptor::new(specs()[0], 0).cores, 1);
    }
}
