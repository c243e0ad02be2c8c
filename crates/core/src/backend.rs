//! Algorithm pins: [`AlgoChoice`] names the technique pair and forward
//! kernel one convolution layer runs, and is what
//! [`Engine::algo_override`](spg_convnet::Engine::algo_override) installs.
//!
//! The candidate space is the contest's own — each phase's
//! [`Technique::forward_candidates`] / [`Technique::backward_candidates`]
//! lowered by [`verify::lower`](crate::verify::lower) — so nothing here
//! enumerates or sizes anything. [`AlgoChoice::of`] reads the algorithm
//! off a lowered program; [`AlgoChoice::lower`] lowers one back.
//!
//! [`Backend`], [`ConvDescriptor`] and [`CpuBackend`] remain only because
//! the benchmark harness (`benchmark/src`) spells them: every call of
//! theirs is [`CompiledConv::compile`] or [`AlgoChoice::of`] by another
//! route.
//!
//! # Example: read a pin off a compiled layer, lower it again
//!
//! ```
//! use spg_convnet::ConvSpec;
//! use spg_core::backend::AlgoChoice;
//! use spg_core::compiled::CompiledConv;
//! use spg_core::schedule::recommended_plan;
//!
//! let spec = ConvSpec::square(12, 16, 4, 3, 1);
//! let weights = vec![0.01; spec.weight_shape().len()];
//! let kernel = CompiledConv::compile(spec, recommended_plan(&spec, 0.0), &weights, 4)?;
//! let algo = AlgoChoice::of(kernel.program());
//! assert_eq!(algo.plan(), kernel.plan());
//! assert_eq!(algo.lower(&spec, 4)?.plan(), kernel.program().plan());
//! # Ok::<(), spg_core::SpgError>(())
//! ```

use std::fmt;

use spg_codegen::KernelChoice;
use spg_convnet::layer::ConvLayer;
use spg_convnet::ConvSpec;
use spg_gemm::SimdLevel;

use crate::autotune::Phase;
use crate::compiled::{CompiledConv, ConvProgram};
use crate::schedule::{LayerPlan, Technique};
use crate::verify::lower;
use crate::SpgError;

/// One convolution geometry plus a core budget. Kept because the
/// benchmark harness spells it; it is the `(spec, cores)` pair
/// [`CompiledConv::compile`] takes.
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
/// on the vector tier of a specific level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgoKernel {
    /// Generic runtime-parameterized loops (always available).
    Generic,
    /// Verified specialized instance on the named level's tier; lowering
    /// binds one only when the registry resolves one for the shape on this
    /// host.
    Specialized(SimdLevel),
}

impl AlgoKernel {
    /// Stable machine-readable identifier (`"generic"`, `"avx2"`,
    /// `"avx512"`).
    pub fn id(self) -> &'static str {
        match self {
            AlgoKernel::Generic => "generic",
            AlgoKernel::Specialized(level) => level.id(),
        }
    }
}

/// One runnable execution strategy for a convolution layer: a forward
/// technique × a backward technique × a forward kernel binding.
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
    /// The algorithm `program` runs: the technique pair it was lowered
    /// from and the instance lowering bound to its forward.
    pub fn of(program: &ConvProgram) -> Self {
        let LayerPlan { forward, backward } = program.techniques();
        let kernel = program
            .specialized_kernel()
            .map_or(AlgoKernel::Generic, |inst| AlgoKernel::Specialized(inst.level()));
        AlgoChoice { forward, backward, kernel }
    }

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
    /// the program [`install`](spg_convnet::LayerAlgo::install) executes.
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
            (AlgoKernel::Specialized(level), Some(inst)) if inst.level() == level => Ok(program),
            (AlgoKernel::Specialized(level), _) => Err(SpgError::InvalidNetwork {
                message: format!(
                    "no verified {} specialized kernel for {} on this shape and host",
                    level.id(),
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

/// Compiles an [`AlgoChoice`] for a [`ConvDescriptor`]. Kept because the
/// benchmark harness spells it; [`CpuBackend`] and `spg_simcpu`'s
/// `SimBackend` are its two implementations.
pub trait Backend {
    /// What [`compile`](Backend::compile) produces: an executable
    /// [`CompiledConv`] for the CPU backend, an analytical prediction for
    /// the simulator.
    type Kernel;

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

/// The CPU [`Backend`]. Kept because the benchmark harness spells it;
/// `compile(desc, algo_for(desc, plan), ..)` is [`CompiledConv::compile`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuBackend;

impl CpuBackend {
    /// Creates the CPU backend (stateless).
    pub fn new() -> Self {
        CpuBackend
    }

    /// The algorithm the default ([`KernelChoice::Auto`]) compile path
    /// runs for `plan`: [`AlgoChoice::of`] its lowered program, or the
    /// generic binding when the plan does not lower.
    pub fn algo_for(&self, desc: &ConvDescriptor, plan: LayerPlan) -> AlgoChoice {
        match lower(&desc.spec, plan, desc.cores, KernelChoice::Auto) {
            Ok(program) => AlgoChoice::of(&program),
            Err(_) => AlgoChoice {
                forward: plan.forward,
                backward: plan.backward,
                kernel: AlgoKernel::Generic,
            },
        }
    }
}

impl Backend for CpuBackend {
    type Kernel = CompiledConv;

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

    fn specs() -> Vec<ConvSpec> {
        vec![
            ConvSpec::square(12, 16, 4, 3, 1),
            ConvSpec::square(24, 4, 3, 3, 1),
            ConvSpec::new(2, 10, 10, 4, 3, 3, 1, 1).unwrap(),
            ConvSpec::new(3, 8, 8, 4, 3, 3, 2, 2).unwrap(),
            ConvSpec::square(28, 20, 1, 5, 1),
        ]
    }

    /// `of` reads back exactly the algorithm `lower` was asked for, on
    /// every candidate pair and both kernel bindings lowering offers.
    #[test]
    fn of_reads_back_the_lowered_algorithm() {
        for spec in specs() {
            for &forward in Technique::forward_candidates() {
                for &backward in Technique::backward_candidates() {
                    let generic = AlgoChoice { forward, backward, kernel: AlgoKernel::Generic };
                    let Ok(program) = generic.lower(&spec, 2) else { continue };
                    assert_eq!(AlgoChoice::of(&program), generic, "{spec:?}");
                    let auto =
                        CpuBackend::new().algo_for(&ConvDescriptor::new(spec, 2), generic.plan());
                    assert_eq!(AlgoChoice::of(&auto.lower(&spec, 2).unwrap()), auto, "{spec:?}");
                }
            }
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
                Some(inst) => AlgoKernel::Specialized(inst.level()),
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
            kernel: AlgoKernel::Specialized(SimdLevel::Avx2Fma),
        };
        assert!(backend.compile(&desc, algo, &weights).is_err());
        let wrong_fwd = AlgoChoice { forward: Technique::GemmInParallel, ..algo };
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
        assert_eq!(AlgoKernel::Specialized(SimdLevel::Avx512Fma).id(), "avx512");
        assert_eq!(AlgoKernel::Specialized(SimdLevel::Avx2Fma).id(), "avx2");
        assert_eq!(ConvDescriptor::new(specs()[0], 0).cores, 1);
    }
}
