//! The computation scheduler: techniques, per-layer plans, and the paper's
//! empirical selection heuristics (Sec. 4.4).
//!
//! A [`Technique`] names a *kernel* — the paper's three, plus the
//! Parallel-GEMM baseline they are measured against. How a kernel's work
//! is split across the cores of one sample is not a fifth name: lowering
//! ([`verify::lower`](crate::verify::lower)) attaches the split to the plan
//! — GEMM row bands, or the stencil bands `stencil_split` picks — and the
//! call's core budget decides how much of it runs.

use std::fmt;

use spg_check::BandDim;
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
    /// CT-CSR + pointer-shifting sparse kernel, backward phase (Sec. 4.2).
    SparseBp,
}

impl Technique {
    /// The techniques a forward contest measures. The GEMM kernel has one
    /// forward name: both GEMM techniques lower to the same row-banded
    /// program, and whether it runs as Parallel-GEMM or as one serial GEMM
    /// per sample is the call's core budget, not a technique.
    pub fn forward_candidates() -> &'static [Technique] {
        &[Technique::GemmInParallel, Technique::StencilFp]
    }

    /// The techniques a backward contest measures at `cores` cores. At one
    /// core Parallel-GEMM is GEMM-in-Parallel's program and is not listed.
    pub fn backward_candidates(cores: usize) -> &'static [Technique] {
        if cores > 1 {
            &[Technique::ParallelGemm, Technique::GemmInParallel, Technique::SparseBp]
        } else {
            &[Technique::GemmInParallel, Technique::SparseBp]
        }
    }

    /// Stable machine-readable identifier used in metrics JSON.
    pub fn id(self) -> &'static str {
        match self {
            Technique::ParallelGemm => "parallel-gemm",
            Technique::GemmInParallel => "gemm-in-parallel",
            Technique::StencilFp => "stencil-fp",
            Technique::SparseBp => "sparse-bp",
        }
    }

    /// No technique names a band split any more; `benchmark/` still asks.
    /// Remove with ROADMAP item 5.
    #[doc(hidden)]
    pub fn band_dim(self) -> Option<BandDim> {
        None
    }
}

impl fmt::Display for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Technique::ParallelGemm => "Parallel-GEMM",
            Technique::GemmInParallel => "GEMM-in-Parallel",
            Technique::StencilFp => "Stencil-Kernel (FP)",
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
/// Stencil-Kernel beats the unfolded GEMM below 128 output features,
/// GEMM-in-Parallel beats Parallel-GEMM below 1024 features, and
/// Sparse-Kernel beats dense BP above 75 % gradient sparsity.
///
/// The forward GEMM is always named [`Technique::GemmInParallel`]: its
/// plan carries the Parallel-GEMM row bands, and a walk that owns more
/// than one core runs them. On one core the same holds for backward.
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
    let forward = if features < LOW_FEATURE_THRESHOLD {
        Technique::StencilFp
    } else {
        Technique::GemmInParallel
    };
    let backward = if bp_sparsity > SPARSE_THRESHOLD {
        Technique::SparseBp
    } else if cores > 1 && features >= HIGH_FEATURE_THRESHOLD {
        Technique::ParallelGemm
    } else {
        Technique::GemmInParallel
    };
    LayerPlan { forward, backward }
}

/// The dimension the stencil's loop nest splits along to spend `cores`
/// cores inside one sample of `spec`, if the layer can be split: output
/// rows first (each worker reads only its rows of the input), else output
/// features. The one place the dimension is chosen — lowering attaches
/// this split to [`Technique::StencilFp`] at every `cores > 1`
/// ([`verify::lower`](crate::verify::lower)).
pub(crate) fn stencil_split(spec: &ConvSpec, cores: usize) -> Option<BandDim> {
    [BandDim::YRows, BandDim::OutChannels]
        .into_iter()
        .find(|&dim| band_ranges(spec, dim, cores).len() > 1)
}

/// [`recommended_plan`] with the stencil pinned onto every layer that can
/// spend a starved batch's idle cores (`batch < cores`) inside one sample.
/// Kept for `benchmark/`'s banded probe; remove with ROADMAP item 5. A
/// walk needs no such pin: every plan lowered at `cores > 1` carries its
/// split and runs it when the call's core budget allows.
pub fn recommended_plan_for_batch(
    spec: &ConvSpec,
    bp_sparsity: f64,
    cores: usize,
    batch: usize,
) -> LayerPlan {
    let base = recommended_plan(spec, bp_sparsity, cores);
    if batch < cores && stencil_split(spec, cores).is_some() {
        LayerPlan { forward: Technique::StencilFp, ..base }
    } else {
        base
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
        assert_eq!(recommended_plan(&big, 0.5, 16).forward, Technique::GemmInParallel);
        assert_eq!(recommended_plan(&big, 0.5, 16).backward, Technique::ParallelGemm);
    }

    #[test]
    fn sparsity_gates_sparse_bp() {
        let spec = ConvSpec::square(32, 256, 64, 3, 1);
        assert_eq!(recommended_plan(&spec, 0.74, 16).backward, Technique::GemmInParallel);
        assert_eq!(recommended_plan(&spec, 0.76, 16).backward, Technique::SparseBp);
    }

    #[test]
    fn single_core_collapses_to_gemm_in_parallel() {
        let spec = ConvSpec::square(32, 256, 64, 3, 1);
        let plan = recommended_plan(&spec, 0.5, 1);
        assert_eq!(plan.forward, Technique::GemmInParallel);
        assert_eq!(plan.backward, Technique::GemmInParallel);
    }

    #[test]
    fn candidate_lists_are_phase_correct() {
        assert!(Technique::forward_candidates().contains(&Technique::StencilFp));
        assert!(!Technique::forward_candidates().contains(&Technique::SparseBp));
        assert!(!Technique::forward_candidates().contains(&Technique::ParallelGemm));
        for cores in [1, 16] {
            let backward = Technique::backward_candidates(cores);
            assert!(backward.contains(&Technique::SparseBp));
            assert!(!backward.contains(&Technique::StencilFp));
            assert_eq!(backward.contains(&Technique::ParallelGemm), cores > 1);
        }
    }

    #[test]
    fn starved_batch_pins_the_stencil_where_it_splits() {
        // ImageNet-22K L0 geometry (Table 2) at batch 1 on 8 cores: whole
        // samples cover one worker, and the stencil splits by output rows.
        let spec = ConvSpec::square(262, 120, 3, 7, 2);
        assert_eq!(stencil_split(&spec, 8), Some(BandDim::YRows));
        assert_eq!(recommended_plan_for_batch(&spec, 0.5, 8, 1).forward, Technique::StencilFp);
        // A layer the heuristic gives to GEMM is pinned too.
        let wide = ConvSpec::square(55, 256, 96, 5, 1);
        assert_eq!(recommended_plan_for_batch(&wide, 0.5, 8, 1).forward, Technique::StencilFp);
        // A saturating batch falls back to the sample-parallel heuristic.
        assert_eq!(recommended_plan_for_batch(&wide, 0.5, 8, 8), recommended_plan(&wide, 0.5, 8));
        // One output row: only the features are left to split.
        let one_row = ConvSpec::new(3, 7, 69, 4, 7, 7, 2, 2).expect("valid spec");
        assert_eq!(stencil_split(&one_row, 2), Some(BandDim::OutChannels));
        // Narrow outputs cannot band: fall back even when starved.
        let narrow = ConvSpec::square(8, 64, 64, 5, 1); // 4x4 output
        assert_eq!(stencil_split(&narrow, 8), None);
        assert_eq!(
            recommended_plan_for_batch(&narrow, 0.5, 8, 1),
            recommended_plan(&narrow, 0.5, 8)
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(Technique::SparseBp.to_string(), "Sparse-Kernel (BP)");
        let plan = LayerPlan { forward: Technique::StencilFp, backward: Technique::SparseBp };
        assert!(plan.to_string().contains("FP: Stencil"));
    }
}
