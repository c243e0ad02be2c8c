//! The computation scheduler: techniques, per-layer plans, and the paper's
//! empirical selection heuristics (Sec. 4.4).

use std::fmt;

use spg_convnet::ConvSpec;

use crate::hybrid::band_ranges;
use crate::region::{HIGH_FEATURE_THRESHOLD, LOW_FEATURE_THRESHOLD, SPARSE_THRESHOLD};

/// An execution technique for one phase of one convolution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technique {
    /// `Unfold + Parallel-GEMM`: each GEMM partitioned across all cores
    /// (the conventional baseline).
    ParallelGemm,
    /// `Unfold + GEMM-in-Parallel`: single-threaded GEMMs, whole training
    /// inputs distributed across cores (Sec. 4.1).
    GemmInParallel,
    /// Generated direct-convolution stencil kernel, forward phase
    /// (Sec. 4.3).
    StencilFp,
    /// Stencil kernel with contiguous output-row bands split across
    /// workers within one sample (spatial-`y` hybrid parallelism).
    StencilYBand,
    /// Stencil kernel with output-feature slices split across workers
    /// within one sample (output-channel hybrid parallelism).
    StencilOutChannel,
    /// CT-CSR + pointer-shifting sparse kernel, backward phase (Sec. 4.2).
    SparseBp,
}

/// The worker-decomposition dimension a technique parallelizes over —
/// the {sample, y-band, out-channel} split space of Jia et al.
/// and Dryden et al., reported in the autotuner's decision log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionDim {
    /// Whole samples distributed across workers (data parallelism).
    Sample,
    /// Output rows of one sample banded across workers.
    YBand,
    /// Output features of one sample sliced across workers.
    OutChannel,
}

impl PartitionDim {
    /// Stable machine-readable identifier used in metrics JSON.
    pub fn id(self) -> &'static str {
        match self {
            PartitionDim::Sample => "sample",
            PartitionDim::YBand => "y-band",
            PartitionDim::OutChannel => "out-channel",
        }
    }
}

impl Technique {
    /// All techniques applicable to the forward phase.
    pub fn forward_candidates() -> &'static [Technique] {
        &[
            Technique::ParallelGemm,
            Technique::GemmInParallel,
            Technique::StencilFp,
            Technique::StencilYBand,
            Technique::StencilOutChannel,
        ]
    }

    /// All techniques applicable to the backward phase.
    pub fn backward_candidates() -> &'static [Technique] {
        &[Technique::ParallelGemm, Technique::GemmInParallel, Technique::SparseBp]
    }

    /// Stable machine-readable identifier used in metrics JSON.
    pub fn id(self) -> &'static str {
        match self {
            Technique::ParallelGemm => "parallel-gemm",
            Technique::GemmInParallel => "gemm-in-parallel",
            Technique::StencilFp => "stencil-fp",
            Technique::StencilYBand => "stencil-yband",
            Technique::StencilOutChannel => "stencil-ochannel",
            Technique::SparseBp => "sparse-bp",
        }
    }

    /// The worker-decomposition dimension this technique splits.
    /// Parallel-GEMM row-bands each GEMM's output over features, so it
    /// reports out-channel; the per-sample serial techniques scale by
    /// running samples concurrently and report sample.
    pub fn partition_dim(self) -> PartitionDim {
        match self {
            Technique::ParallelGemm => PartitionDim::OutChannel,
            Technique::GemmInParallel | Technique::StencilFp | Technique::SparseBp => {
                PartitionDim::Sample
            }
            Technique::StencilYBand => PartitionDim::YBand,
            Technique::StencilOutChannel => PartitionDim::OutChannel,
        }
    }

    /// The banded-stencil split dimension, for the hybrid techniques only.
    pub fn band_dim(self) -> Option<spg_check::BandDim> {
        match self {
            Technique::StencilYBand => Some(spg_check::BandDim::YRows),
            Technique::StencilOutChannel => Some(spg_check::BandDim::OutChannels),
            _ => None,
        }
    }
}

impl fmt::Display for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Technique::ParallelGemm => "Parallel-GEMM",
            Technique::GemmInParallel => "GEMM-in-Parallel",
            Technique::StencilFp => "Stencil-Kernel (FP)",
            Technique::StencilYBand => "Stencil-Kernel (FP, y-band)",
            Technique::StencilOutChannel => "Stencil-Kernel (FP, out-channel)",
            Technique::SparseBp => "Sparse-Kernel (BP)",
        };
        f.write_str(name)
    }
}

/// The chosen techniques for one convolution layer's two phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerPlan {
    /// Forward-propagation technique.
    pub forward: Technique,
    /// Backward-propagation technique (error + delta-weight phases).
    pub backward: Technique,
}

impl fmt::Display for LayerPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FP: {}, BP: {}", self.forward, self.backward)
    }
}

/// The paper's empirical selection heuristics (Sec. 4.4):
/// GEMM-in-Parallel beats Parallel-GEMM below 1024 features,
/// Stencil-Kernel beats GEMM-in-Parallel below 128 output features, and
/// Sparse-Kernel beats dense BP above 75 % gradient sparsity.
///
/// `cores` only matters for the degenerate single-core case, where
/// Parallel-GEMM and GEMM-in-Parallel coincide and the former is reported.
///
/// # Example
///
/// ```
/// use spg_convnet::ConvSpec;
/// use spg_core::schedule::{recommended_plan, Technique};
///
/// // AlexNet layer 1 (Table 2): 256 features -> GiP forward.
/// let spec = ConvSpec::square(55, 256, 96, 5, 1);
/// let plan = recommended_plan(&spec, 0.85, 16);
/// assert_eq!(plan.forward, Technique::GemmInParallel);
/// assert_eq!(plan.backward, Technique::SparseBp);
/// ```
pub fn recommended_plan(spec: &ConvSpec, bp_sparsity: f64, cores: usize) -> LayerPlan {
    let features = spec.features();
    let forward = if cores <= 1 {
        if features < LOW_FEATURE_THRESHOLD {
            Technique::StencilFp
        } else {
            Technique::ParallelGemm
        }
    } else if features < LOW_FEATURE_THRESHOLD {
        Technique::StencilFp
    } else if features < HIGH_FEATURE_THRESHOLD {
        Technique::GemmInParallel
    } else {
        Technique::ParallelGemm
    };
    let backward = if bp_sparsity > SPARSE_THRESHOLD {
        Technique::SparseBp
    } else if cores > 1 && features < HIGH_FEATURE_THRESHOLD {
        Technique::GemmInParallel
    } else {
        Technique::ParallelGemm
    };
    LayerPlan { forward, backward }
}

/// The banded form of the sequential stencil that spends `cores` cores
/// inside one sample of `spec`, if the layer can be split: y-bands first
/// (each worker reads only its rows of the input), then out-channel
/// slices. This is the one place that preference lives —
/// [`recommended_plan_for_batch`] pins the technique it names, and
/// lowering attaches the same split to [`Technique::StencilFp`] itself so
/// that a starved call can take it ([`verify::lower`](crate::verify::lower)).
pub(crate) fn starved_stencil_split(spec: &ConvSpec, cores: usize) -> Option<Technique> {
    [Technique::StencilYBand, Technique::StencilOutChannel].into_iter().find(|technique| {
        technique.band_dim().is_some_and(|dim| band_ranges(spec, dim, cores).len() > 1)
    })
}

/// Batch-aware variant of [`recommended_plan`]: when the batch cannot keep
/// every core busy with whole samples (`batch < cores`), sample-parallel
/// forward techniques starve, so the heuristic names an intra-sample
/// banded decomposition for layers wide enough to split (Jia et al.'s
/// hybrid dimension choice, restricted to the plan shapes `spg-check` can
/// prove). Falls back to [`recommended_plan`] whenever the batch saturates
/// the machine or no banding is available.
///
/// A walk needs no such pin to use its idle cores: every plan lowered at
/// `cores > 1` carries its split and runs it when the call's core budget
/// allows. Pinning is for forcing the stencil onto a layer the planner
/// gave to GEMM.
pub fn recommended_plan_for_batch(
    spec: &ConvSpec,
    bp_sparsity: f64,
    cores: usize,
    batch: usize,
) -> LayerPlan {
    let base = recommended_plan(spec, bp_sparsity, cores);
    if cores <= 1 || batch >= cores {
        return base;
    }
    match starved_stencil_split(spec, cores) {
        Some(forward) => LayerPlan { forward, backward: base.backward },
        None => base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_layer_plans_match_paper_narrative() {
        // ImageNet-22K L2 (400 features): GiP forward (Sec. 5.2).
        let l2 = ConvSpec::square(15, 400, 250, 3, 1);
        assert_eq!(recommended_plan(&l2, 0.5, 16).forward, Technique::GemmInParallel);
        // MNIST L0 (20 features): stencil forward (Sec. 5.2).
        let mnist = ConvSpec::square(28, 20, 1, 5, 1);
        assert_eq!(recommended_plan(&mnist, 0.5, 16).forward, Technique::StencilFp);
        // ID 1 of Table 1 (1024 features): Parallel-GEMM remains best.
        let big = ConvSpec::square(64, 1024, 512, 2, 1);
        assert_eq!(recommended_plan(&big, 0.5, 16).forward, Technique::ParallelGemm);
    }

    #[test]
    fn sparsity_gates_sparse_bp() {
        let spec = ConvSpec::square(32, 256, 64, 3, 1);
        assert_eq!(recommended_plan(&spec, 0.74, 16).backward, Technique::GemmInParallel);
        assert_eq!(recommended_plan(&spec, 0.76, 16).backward, Technique::SparseBp);
    }

    #[test]
    fn single_core_collapses_to_parallel_gemm() {
        let spec = ConvSpec::square(32, 256, 64, 3, 1);
        let plan = recommended_plan(&spec, 0.5, 1);
        assert_eq!(plan.forward, Technique::ParallelGemm);
        assert_eq!(plan.backward, Technique::ParallelGemm);
    }

    #[test]
    fn candidate_lists_are_phase_correct() {
        assert!(Technique::forward_candidates().contains(&Technique::StencilFp));
        assert!(!Technique::forward_candidates().contains(&Technique::SparseBp));
        assert!(Technique::backward_candidates().contains(&Technique::SparseBp));
        assert!(!Technique::backward_candidates().contains(&Technique::StencilFp));
    }

    #[test]
    fn starved_batch_prefers_intra_sample_bands() {
        // ImageNet-22K L0 geometry (Table 2) at batch 1 on 8 cores: whole
        // samples cover one worker, so the y-band decomposition wins.
        let spec = ConvSpec::square(262, 120, 3, 7, 2);
        let plan = recommended_plan_for_batch(&spec, 0.5, 8, 1);
        assert_eq!(plan.forward, Technique::StencilYBand);
        // A saturating batch falls back to the sample-parallel heuristic.
        assert_eq!(recommended_plan_for_batch(&spec, 0.5, 8, 8), recommended_plan(&spec, 0.5, 8));
        // Narrow outputs cannot band: fall back even when starved.
        let narrow = ConvSpec::square(8, 64, 64, 5, 1); // 4x4 output
        assert_eq!(
            recommended_plan_for_batch(&narrow, 0.5, 8, 1),
            recommended_plan(&narrow, 0.5, 8)
        );
    }

    #[test]
    fn partition_dims_cover_the_split_space() {
        assert_eq!(Technique::GemmInParallel.partition_dim().id(), "sample");
        assert_eq!(Technique::StencilFp.partition_dim().id(), "sample");
        assert_eq!(Technique::StencilYBand.partition_dim().id(), "y-band");
        assert_eq!(Technique::StencilOutChannel.partition_dim().id(), "out-channel");
        // Parallel-GEMM row-bands the GEMM over output features.
        assert_eq!(Technique::ParallelGemm.partition_dim().id(), "out-channel");
    }

    #[test]
    fn display_names() {
        assert_eq!(Technique::SparseBp.to_string(), "Sparse-Kernel (BP)");
        let plan = LayerPlan { forward: Technique::StencilFp, backward: Technique::SparseBp };
        assert!(plan.to_string().contains("FP: Stencil"));
    }
}
