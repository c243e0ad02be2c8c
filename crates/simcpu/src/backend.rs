//! The analytical [`Backend`]: algorithm enumeration and workspace
//! queries answered from the Sec. 3 AIT model instead of real execution.
//!
//! Capacity planning should exercise the *same* API as production. This
//! module implements `spg_core::backend::Backend` over [`Machine`]:
//! [`get_algos`](Backend::get_algos) enumerates the verified technique
//! pairs ranked by predicted forward GFlops/core (best first),
//! [`workspace_size`](Backend::workspace_size) shares the CPU backend's
//! closed-form scratch sizing, and [`compile`](Backend::compile) returns
//! an [`AlgoPrediction`] — the analytical stand-in for a compiled kernel.
//!
//! # Example
//!
//! ```
//! use spg_convnet::ConvSpec;
//! use spg_core::backend::{Backend, ConvDescriptor};
//! use spg_simcpu::{Machine, SimBackend};
//!
//! let backend = SimBackend::new(Machine::xeon_e5_2650());
//! let desc = ConvDescriptor::new(ConvSpec::square(32, 32, 32, 4, 1), 16);
//! let best = backend.get_algos(&desc).next().expect("some algo runs");
//! let weights = vec![0.0; desc.spec.weight_shape().len()];
//! let prediction = backend.compile(&desc, best, &weights)?;
//! assert!(prediction.fwd_gflops_per_core > 0.0);
//! # Ok::<(), spg_core::SpgError>(())
//! ```

use spg_core::autotune::Phase;
use spg_core::backend::{conv_workspace_bytes, AlgoChoice, AlgoKernel, Backend, ConvDescriptor};
use spg_core::schedule::Technique;
use spg_core::verify::verify_technique;
use spg_core::SpgError;

use crate::{
    gemm_in_parallel_gflops_per_core, parallel_gemm_gflops_per_core, sparse_bp_prediction,
    stencil_gflops_per_core, Machine,
};

/// What the analytical backend "compiles": the model's predictions for
/// one algorithm on one descriptor, in place of an executable kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgoPrediction {
    /// The algorithm the prediction describes.
    pub algo: AlgoChoice,
    /// Predicted sustained forward GFlops per core.
    pub fwd_gflops_per_core: f64,
    /// Predicted sustained backward GFlops per core (goodput per core for
    /// the sparse kernel).
    pub bwd_gflops_per_core: f64,
    /// The closed-form scratch upper bound, as
    /// [`workspace_size`](Backend::workspace_size) reports.
    pub workspace_bytes: usize,
}

/// Analytical backend over a [`Machine`] model.
///
/// The sparse backward prediction needs a gradient sparsity, which the
/// [`Backend`] compile contract does not carry; the backend holds an
/// assumed sparsity (default 0.9, the paper's mid-training regime),
/// overridable with [`with_sparsity`](SimBackend::with_sparsity).
#[derive(Debug, Clone)]
pub struct SimBackend {
    machine: Machine,
    bp_sparsity: f64,
}

impl SimBackend {
    /// Creates the analytical backend with the default 0.9 assumed
    /// backward gradient sparsity.
    pub fn new(machine: Machine) -> Self {
        SimBackend { machine, bp_sparsity: 0.9 }
    }

    /// Sets the gradient sparsity assumed by sparse-backward predictions.
    ///
    /// # Panics
    ///
    /// Panics if `sparsity` is outside `[0, 1]`.
    pub fn with_sparsity(mut self, sparsity: f64) -> Self {
        assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0, 1]");
        self.bp_sparsity = sparsity;
        self
    }

    /// The machine model answering the queries.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Predicted GFlops/core of `technique` as a forward phase.
    fn forward_rate(&self, desc: &ConvDescriptor, technique: Technique) -> f64 {
        match technique {
            Technique::ParallelGemm => {
                parallel_gemm_gflops_per_core(&self.machine, &desc.spec, desc.cores)
            }
            Technique::GemmInParallel | Technique::SparseBp => {
                gemm_in_parallel_gflops_per_core(&self.machine, &desc.spec, desc.cores)
            }
            Technique::StencilFp => stencil_gflops_per_core(&self.machine, &desc.spec, desc.cores),
        }
    }

    /// Predicted GFlops/core of `technique` as a backward phase (goodput
    /// per core for the sparse kernel, at the assumed sparsity).
    fn backward_rate(&self, desc: &ConvDescriptor, technique: Technique) -> f64 {
        match technique {
            Technique::SparseBp => {
                let p =
                    sparse_bp_prediction(&self.machine, &desc.spec, self.bp_sparsity, desc.cores);
                p.goodput_gflops / desc.cores as f64
            }
            other => self.forward_rate(desc, other),
        }
    }
}

impl Backend for SimBackend {
    type Kernel = AlgoPrediction;

    fn name(&self) -> &'static str {
        "sim"
    }

    fn get_algos(&self, desc: &ConvDescriptor) -> impl Iterator<Item = AlgoChoice> {
        // Same verified technique-pair space as the CPU backend — the
        // model predicts only what could actually run — but ranked by
        // predicted forward rate, best first, and generic-kernel only:
        // the analytical model expresses kernel specialization as an
        // efficiency factor, not a separate algorithm.
        let mut algos: Vec<(AlgoChoice, f64)> = Technique::forward_candidates()
            .iter()
            .filter(|t| verify_technique(&desc.spec, **t, Phase::Forward, desc.cores).is_ok())
            .flat_map(|&forward| {
                Technique::backward_candidates(desc.cores)
                    .iter()
                    .filter(|t| {
                        verify_technique(&desc.spec, **t, Phase::Backward, desc.cores).is_ok()
                    })
                    .map(move |&backward| AlgoChoice {
                        forward,
                        backward,
                        kernel: AlgoKernel::Generic,
                    })
                    .collect::<Vec<_>>()
            })
            .map(|algo| (algo, self.forward_rate(desc, algo.forward)))
            .collect();
        algos.sort_by(|a, b| b.1.total_cmp(&a.1));
        algos.into_iter().map(|(algo, _)| algo)
    }

    fn workspace_size(&self, desc: &ConvDescriptor, algo: AlgoChoice) -> usize {
        conv_workspace_bytes(desc, algo)
    }

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
            algo,
            fwd_gflops_per_core: self.forward_rate(desc, algo.forward),
            bwd_gflops_per_core: self.backward_rate(desc, algo.backward),
            workspace_bytes: conv_workspace_bytes(desc, algo),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spg_convnet::ConvSpec;
    use spg_core::backend::CpuBackend;

    fn desc() -> ConvDescriptor {
        ConvDescriptor::new(ConvSpec::square(32, 32, 32, 4, 1), 16)
    }

    #[test]
    fn enumeration_is_ranked_by_predicted_forward_rate() {
        let backend = SimBackend::new(Machine::default());
        let d = desc();
        let algos: Vec<AlgoChoice> = backend.get_algos(&d).collect();
        assert!(!algos.is_empty());
        let rates: Vec<f64> = algos.iter().map(|a| backend.forward_rate(&d, a.forward)).collect();
        assert!(rates.windows(2).all(|w| w[0] >= w[1]), "{rates:?}");
    }

    #[test]
    fn same_algo_space_as_cpu_backend_modulo_specialization() {
        // Capacity planning must see the space production will search:
        // the generic-kernel algo sets coincide.
        let d = desc();
        let mut sim: Vec<String> =
            SimBackend::new(Machine::default()).get_algos(&d).map(|a| a.id()).collect();
        let mut cpu: Vec<String> = CpuBackend::new()
            .get_algos(&d)
            .filter(|a| a.kernel == AlgoKernel::Generic)
            .map(|a| a.id())
            .collect();
        sim.sort();
        cpu.sort();
        assert_eq!(sim, cpu);
    }

    #[test]
    fn workspace_query_is_shared_with_cpu_backend() {
        let d = desc();
        let sim = SimBackend::new(Machine::default());
        for algo in CpuBackend::new().get_algos(&d) {
            assert_eq!(sim.workspace_size(&d, algo), CpuBackend::new().workspace_size(&d, algo));
        }
    }

    #[test]
    fn compile_returns_model_predictions() {
        let d = desc();
        let backend = SimBackend::new(Machine::default()).with_sparsity(0.95);
        let weights = vec![0.0; d.spec.weight_shape().len()];
        let algo = backend.get_algos(&d).next().unwrap();
        let p = backend.compile(&d, algo, &weights).unwrap();
        assert_eq!(p.algo, algo);
        assert!(p.fwd_gflops_per_core > 0.0 && p.bwd_gflops_per_core > 0.0);
        assert_eq!(p.workspace_bytes, backend.workspace_size(&d, algo));
        assert!(backend.compile(&d, algo, &[0.0]).is_err(), "wrong weight length must fail");
    }

    #[test]
    fn sparse_backward_rate_tracks_the_sparse_model() {
        let d = desc();
        let backend = SimBackend::new(Machine::default());
        let rate = backend.backward_rate(&d, Technique::SparseBp);
        let expected = sparse_bp_prediction(&Machine::default(), &d.spec, 0.9, d.cores)
            .goodput_gflops
            / d.cores as f64;
        assert!((rate - expected).abs() < 1e-12);
    }
}
