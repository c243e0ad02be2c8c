//! End-to-end training-throughput model for the Fig. 9 experiment:
//! CIFAR-10 images/second versus core count for the five configurations
//! the paper compares.

use spg_convnet::ConvSpec;

use crate::{
    gemm_in_parallel_gflops_per_core, parallel_gemm_gflops_per_core, sparse_bp_prediction,
    stencil_gflops_per_core, Machine,
};

/// Relative platform efficiency of Caffe's training loop (the Fig. 9
/// baseline that peaks at 273 images/s).
const CAFFE_PLATFORM_EFF: f64 = 1.0;
/// Relative platform efficiency of Adam's training loop (it peaks at 185
/// vs Caffe's 273 images/s in Fig. 9; the framework also carries more
/// per-image bookkeeping at low core counts). spg-CNN is implemented on
/// Adam, so its configurations inherit this factor.
const ADAM_PLATFORM_EFF: f64 = 0.5;
/// Fraction of time spent outside convolution layers (pooling,
/// activation, loss, parameter updates).
const NON_CONV_OVERHEAD: f64 = 0.15;
/// Throughput contribution of a hyper-thread beyond the physical cores
/// (the paper plots up to 32 threads on 16 physical cores).
const HYPERTHREAD_YIELD: f64 = 0.4;

/// One of the five Fig. 9 system configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Config {
    /// `Unfold + Parallel-GEMM` as deployed by Caffe (OpenBLAS).
    ParallelGemmCaffe,
    /// `Unfold + Parallel-GEMM` as deployed by Adam (MKL).
    ParallelGemmAdam,
    /// GEMM-in-Parallel for both FP and BP.
    GemmInParallel,
    /// GEMM-in-Parallel FP with the sparse kernel for BP.
    GipFpSparseBp,
    /// Stencil FP with the sparse kernel for BP (the full framework).
    StencilFpSparseBp,
}

impl Config {
    /// All five configurations in the paper's legend order.
    pub fn all() -> [Config; 5] {
        [
            Config::ParallelGemmCaffe,
            Config::ParallelGemmAdam,
            Config::GemmInParallel,
            Config::GipFpSparseBp,
            Config::StencilFpSparseBp,
        ]
    }

    /// The legend label used in Fig. 9.
    pub fn label(self) -> &'static str {
        match self {
            Config::ParallelGemmCaffe => "Parallel-GEMM (CAFFE)",
            Config::ParallelGemmAdam => "Parallel-GEMM (ADAM)",
            Config::GemmInParallel => "GEMM-in-Parallel (FP and BP)",
            Config::GipFpSparseBp => "GEMM-in-Parallel (FP) + Sparse-Kernel (BP)",
            Config::StencilFpSparseBp => "Stencil-Kernel (FP) + Sparse-Kernel (BP)",
        }
    }
}

/// Per-layer conv work used by the end-to-end model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerCost {
    /// The convolution spec of the layer.
    pub spec: ConvSpec,
}

/// The CIFAR-10 convolution layers of Table 2.
pub fn cifar10_layers() -> Vec<LayerCost> {
    vec![
        LayerCost { spec: ConvSpec::square(36, 64, 3, 5, 1) },
        LayerCost { spec: ConvSpec::square(8, 64, 64, 5, 1) },
    ]
}

/// Predicted CIFAR-10 training throughput (images/second) for one
/// configuration at one thread count — a point on a Fig. 9 curve.
///
/// Convenience wrapper over [`training_throughput`] with the Table 2
/// CIFAR-10 layers.
///
/// # Panics
///
/// Panics if `threads == 0` or `bp_sparsity` is outside `[0, 1]`.
pub fn cifar10_throughput(
    machine: &Machine,
    config: Config,
    threads: usize,
    bp_sparsity: f64,
) -> f64 {
    training_throughput(machine, &cifar10_layers(), config, threads, bp_sparsity)
}

/// Predicted training throughput (images/second) for an arbitrary stack
/// of convolution layers under one system configuration — the Fig. 9
/// model generalized to any benchmark network.
///
/// `threads` may exceed the machine's physical cores (hyper-threading);
/// excess threads contribute at a reduced yield. `bp_sparsity` is the
/// error-gradient sparsity the sparse configurations exploit (the paper
/// uses the conservatively measured 85 %).
///
/// # Panics
///
/// Panics if `threads == 0`, `bp_sparsity` is outside `[0, 1]`, or
/// `layers` is empty.
pub fn training_throughput(
    machine: &Machine,
    layers: &[LayerCost],
    config: Config,
    threads: usize,
    bp_sparsity: f64,
) -> f64 {
    assert!(threads > 0, "thread count must be positive");
    assert!((0.0..=1.0).contains(&bp_sparsity), "sparsity must be in [0, 1]");
    assert!(!layers.is_empty(), "layer list must be non-empty");

    let physical = threads.min(machine.cores) as f64;
    let effective = physical + HYPERTHREAD_YIELD * (threads as f64 - physical).max(0.0);

    match config {
        Config::ParallelGemmCaffe | Config::ParallelGemmAdam => {
            // All threads cooperate on one image at a time.
            let mut time = 0.0;
            for layer in layers {
                let per_core = parallel_gemm_gflops_per_core(machine, &layer.spec, threads);
                let rate = per_core * effective * 1e9;
                time += 3.0 * layer.spec.arithmetic_ops() as f64 / rate;
            }
            time *= 1.0 + NON_CONV_OVERHEAD;
            let eff = if config == Config::ParallelGemmCaffe {
                CAFFE_PLATFORM_EFF
            } else {
                ADAM_PLATFORM_EFF
            };
            eff / time
        }
        Config::GemmInParallel | Config::GipFpSparseBp | Config::StencilFpSparseBp => {
            // Each thread trains whole images with single-threaded kernels.
            let mut time = 0.0;
            for layer in layers {
                let fp_rate = match config {
                    Config::StencilFpSparseBp => {
                        stencil_gflops_per_core(machine, &layer.spec, threads)
                    }
                    _ => gemm_in_parallel_gflops_per_core(machine, &layer.spec, threads),
                } * 1e9;
                time += layer.spec.arithmetic_ops() as f64 / fp_rate;
                time += match config {
                    Config::GemmInParallel => {
                        let bp_rate =
                            gemm_in_parallel_gflops_per_core(machine, &layer.spec, threads) * 1e9;
                        2.0 * layer.spec.arithmetic_ops() as f64 / bp_rate
                    }
                    _ => sparse_bp_prediction(machine, &layer.spec, bp_sparsity, threads).time_s,
                };
            }
            time *= 1.0 + NON_CONV_OVERHEAD;
            ADAM_PLATFORM_EFF * effective / time
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::xeon_e5_2650()
    }

    /// Fig. 9: Caffe's Parallel-GEMM is fastest at 1-2 cores.
    #[test]
    fn caffe_wins_at_low_core_counts() {
        let m = machine();
        for threads in [1, 2] {
            let caffe = cifar10_throughput(&m, Config::ParallelGemmCaffe, threads, 0.85);
            for config in [Config::GemmInParallel, Config::GipFpSparseBp, Config::StencilFpSparseBp]
            {
                assert!(
                    caffe > cifar10_throughput(&m, config, threads, 0.85),
                    "{config:?} beat Caffe at {threads} threads"
                );
            }
        }
    }

    /// Fig. 9: beyond two cores the Parallel-GEMM platforms stop scaling
    /// while GEMM-in-Parallel keeps climbing.
    #[test]
    fn parallel_gemm_plateaus_gip_scales() {
        let m = machine();
        let caffe4 = cifar10_throughput(&m, Config::ParallelGemmCaffe, 4, 0.85);
        let caffe32 = cifar10_throughput(&m, Config::ParallelGemmCaffe, 32, 0.85);
        assert!(caffe32 < caffe4 * 2.0, "Parallel-GEMM must plateau");
        let gip4 = cifar10_throughput(&m, Config::GemmInParallel, 4, 0.85);
        let gip32 = cifar10_throughput(&m, Config::GemmInParallel, 32, 0.85);
        assert!(gip32 > gip4 * 3.0, "GiP must keep scaling: {gip4} -> {gip32}");
    }

    /// Fig. 9 at 32 threads: each added technique increases throughput,
    /// with sparse BP the bigger step (paper: ~28 % then ~10 %).
    #[test]
    fn technique_stack_ordering_at_32_threads() {
        let m = machine();
        let gip = cifar10_throughput(&m, Config::GemmInParallel, 32, 0.85);
        let sparse = cifar10_throughput(&m, Config::GipFpSparseBp, 32, 0.85);
        let full = cifar10_throughput(&m, Config::StencilFpSparseBp, 32, 0.85);
        assert!(sparse > gip * 1.1, "sparse BP should add >= 10 %: {gip} -> {sparse}");
        assert!(full > sparse * 1.02, "stencil FP should add more: {sparse} -> {full}");
        let sparse_gain = sparse / gip - 1.0;
        let stencil_gain = full / sparse - 1.0;
        assert!(sparse_gain > stencil_gain, "sparse step outweighs stencil step");
    }

    /// Summary claim: the full framework beats Parallel-GEMM (CAFFE) by
    /// several times end to end (paper: 8.36x at 32 threads).
    #[test]
    fn end_to_end_speedup_is_large() {
        let m = machine();
        let caffe_peak = (1..=32)
            .map(|t| cifar10_throughput(&m, Config::ParallelGemmCaffe, t, 0.85))
            .fold(0.0, f64::max);
        let full = cifar10_throughput(&m, Config::StencilFpSparseBp, 32, 0.85);
        let speedup = full / caffe_peak;
        assert!(speedup > 3.5, "end-to-end speedup {speedup}");
    }

    /// Adam's baseline trails Caffe's at every core count (Fig. 9).
    #[test]
    fn adam_trails_caffe() {
        let m = machine();
        for threads in [1, 2, 4, 8, 16, 32] {
            let caffe = cifar10_throughput(&m, Config::ParallelGemmCaffe, threads, 0.85);
            let adam = cifar10_throughput(&m, Config::ParallelGemmAdam, threads, 0.85);
            assert!(adam < caffe);
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            Config::all().iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 5);
    }
}
