//! The analytical [`Backend`], kept because the benchmark harness spells
//! it: [`SimBackend::compile`] answers with
//! [`forward_gflops_per_core`] — the Sec. 3 model's forward rate for the
//! algorithm's technique — in place of an executable kernel.
//!
//! # Example
//!
//! ```
//! use spg_convnet::ConvSpec;
//! use spg_core::backend::{AlgoChoice, AlgoKernel, Backend, ConvDescriptor};
//! use spg_core::schedule::Technique;
//! use spg_simcpu::{Machine, SimBackend};
//!
//! let backend = SimBackend::new(Machine::xeon_e5_2650());
//! let desc = ConvDescriptor::new(ConvSpec::square(32, 32, 32, 4, 1), 16);
//! let algo = AlgoChoice {
//!     forward: Technique::StencilFp,
//!     backward: Technique::SparseBp,
//!     kernel: AlgoKernel::Generic,
//! };
//! let weights = vec![0.0; desc.spec.weight_shape().len()];
//! let prediction = backend.compile(&desc, algo, &weights)?;
//! assert!(prediction.fwd_gflops_per_core > 0.0);
//! # Ok::<(), spg_core::SpgError>(())
//! ```

use spg_core::backend::{AlgoChoice, AlgoKernel, Backend, ConvDescriptor};
use spg_core::SpgError;

use crate::{forward_gflops_per_core, Machine};

/// What the analytical backend "compiles". Kept because the benchmark
/// harness spells it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgoPrediction {
    /// Predicted sustained forward GFlops per core.
    pub fwd_gflops_per_core: f64,
}

/// Analytical backend over a [`Machine`] model. Kept because the
/// benchmark harness spells it.
#[derive(Debug, Clone)]
pub struct SimBackend {
    machine: Machine,
}

impl SimBackend {
    /// Creates the analytical backend.
    pub fn new(machine: Machine) -> Self {
        SimBackend { machine }
    }
}

impl Backend for SimBackend {
    type Kernel = AlgoPrediction;

    fn compile(
        &self,
        desc: &ConvDescriptor,
        algo: AlgoChoice,
        weights: &[f32],
    ) -> Result<AlgoPrediction, SpgError> {
        // Same weight-length contract as the CPU backend, so swapping
        // backends cannot hide a mis-sized parameter buffer.
        if weights.len() != desc.spec.weight_shape().len() {
            return Err(SpgError::InvalidNetwork {
                message: format!(
                    "weight buffer has {} elements, spec requires {}",
                    weights.len(),
                    desc.spec.weight_shape().len()
                ),
            });
        }
        if let AlgoKernel::Specialized(isa) = algo.kernel {
            return Err(SpgError::InvalidNetwork {
                message: format!(
                    "the analytical backend models no specialized {} kernel",
                    isa.name()
                ),
            });
        }
        Ok(AlgoPrediction {
            fwd_gflops_per_core: forward_gflops_per_core(
                &self.machine,
                &desc.spec,
                algo.forward,
                desc.cores,
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spg_convnet::ConvSpec;
    use spg_core::schedule::Technique;

    /// `compile` is the model's forward rate for every technique a plan's
    /// forward can name, and refuses a mis-sized weight buffer.
    #[test]
    fn compile_is_the_forward_rate_of_the_technique() {
        let machine = Machine::xeon_e5_2650();
        let backend = SimBackend::new(machine.clone());
        let desc = ConvDescriptor::new(ConvSpec::square(32, 32, 32, 4, 1), 16);
        let weights = vec![0.0; desc.spec.weight_shape().len()];
        for forward in [
            Technique::ParallelGemm,
            Technique::GemmInParallel,
            Technique::StencilFp,
            Technique::SparseBp,
        ] {
            let algo =
                AlgoChoice { forward, backward: Technique::SparseBp, kernel: AlgoKernel::Generic };
            let p = backend.compile(&desc, algo, &weights).unwrap();
            let rate = forward_gflops_per_core(&machine, &desc.spec, forward, desc.cores);
            assert_eq!(p.fwd_gflops_per_core.to_bits(), rate.to_bits(), "{forward:?}");
            assert!(backend.compile(&desc, algo, &[0.0]).is_err(), "wrong weight length");
        }
    }
}
