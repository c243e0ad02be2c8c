//! The computation scheduler: techniques, per-layer plans, and the paper's
//! empirical selection heuristics (Sec. 4.4).
//!
//! A [`Technique`] names a *kernel*: the unfolded GEMM, the stencil and
//! the sparse kernel. How a kernel's work is split across the cores of one
//! sample is not a technique: lowering
//! ([`verify::lower`](crate::verify::lower)) attaches the split to the plan
//! — GEMM row bands, or the stencil's output-row bands — and the
//! call's core budget decides how much of it runs. So the paper's
//! Parallel-GEMM and GEMM-in-Parallel are one technique: the same GEMM
//! program in a walk that owns every core, or one core per sample.

use std::fmt;

use std::convert::Infallible;

use spg_convnet::ConvSpec;

use crate::hybrid::band_ranges;
use crate::region::{LOW_FEATURE_THRESHOLD, SPARSE_THRESHOLD};

/// An execution technique for one phase of one convolution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technique {
    /// `Unfold + GEMM`, lowered with the Parallel-GEMM row bands of each
    /// multiply: a sample worker of a saturated batch runs them as one
    /// single-threaded GEMM (GEMM-in-Parallel, Sec. 4.1), a call that owns
    /// every core for one sample runs them in parallel (the conventional
    /// Parallel-GEMM baseline).
    GemmInParallel,
    /// Generated direct-convolution stencil kernel, forward phase
    /// (Sec. 4.3).
    StencilFp,
    /// CT-CSR + pointer-shifting sparse kernel, backward phase (Sec. 4.2).
    SparseBp,
}

impl Technique {
    /// The techniques a forward contest measures.
    pub fn forward_candidates() -> &'static [Technique] {
        &[Technique::GemmInParallel, Technique::StencilFp]
    }

    /// The techniques a backward contest measures.
    pub fn backward_candidates() -> &'static [Technique] {
        &[Technique::GemmInParallel, Technique::SparseBp]
    }

    /// Stable machine-readable identifier used in metrics JSON.
    pub fn id(self) -> &'static str {
        match self {
            Technique::GemmInParallel => "gemm-in-parallel",
            Technique::StencilFp => "stencil-fp",
            Technique::SparseBp => "sparse-bp",
        }
    }

    /// No technique names a band split any more; `benchmark/` still asks.
    /// Remove with ROADMAP item 1(b).
    #[doc(hidden)]
    pub fn band_dim(self) -> Option<Infallible> {
        None
    }
}

impl fmt::Display for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
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
/// Stencil-Kernel beats the unfolded GEMM below 128 output features, and
/// Sparse-Kernel beats dense BP above 75 % gradient sparsity.
///
/// The third rule — GEMM-in-Parallel beats Parallel-GEMM below 1024
/// features — is about a core budget, not a plan: every GEMM plan carries
/// the Parallel-GEMM row bands, and a walk that lends one sample more than
/// one core runs them.
///
/// # Example
///
/// ```
/// use spg_convnet::ConvSpec;
/// use spg_core::schedule::{recommended_plan, Technique};
///
/// // AlexNet layer 1 (Table 2): 256 features -> GiP forward.
/// let spec = ConvSpec::square(55, 256, 96, 5, 1);
/// let plan = recommended_plan(&spec, 0.85);
/// assert_eq!(plan.forward, Technique::GemmInParallel);
/// assert_eq!(plan.backward, Technique::SparseBp);
/// ```
pub fn recommended_plan(spec: &ConvSpec, bp_sparsity: f64) -> LayerPlan {
    let forward = if spec.features() < LOW_FEATURE_THRESHOLD {
        Technique::StencilFp
    } else {
        Technique::GemmInParallel
    };
    let backward = if bp_sparsity > SPARSE_THRESHOLD {
        Technique::SparseBp
    } else {
        Technique::GemmInParallel
    };
    LayerPlan { forward, backward }
}

/// [`recommended_plan`] with the stencil pinned onto every layer that can
/// spend a starved batch's idle cores (`batch < cores`) inside one sample.
/// Kept for `benchmark/`'s banded probe; remove with ROADMAP item 1(b). A
/// walk needs no such pin: every plan lowered at `cores > 1` carries its
/// split and runs it when the call's core budget allows.
pub fn recommended_plan_for_batch(
    spec: &ConvSpec,
    bp_sparsity: f64,
    cores: usize,
    batch: usize,
) -> LayerPlan {
    let base = recommended_plan(spec, bp_sparsity);
    if batch < cores && band_ranges(spec, cores).len() > 1 {
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
        assert_eq!(recommended_plan(&l2, 0.5).forward, Technique::GemmInParallel);
        // MNIST L0 (20 features): stencil forward (Sec. 5.2).
        let mnist = ConvSpec::square(28, 20, 1, 5, 1);
        assert_eq!(recommended_plan(&mnist, 0.5).forward, Technique::StencilFp);
        // ID 1 of Table 1 (1024 features): the GEMM in both phases, whose
        // row bands run in parallel wherever a sample owns the cores.
        let big = ConvSpec::square(64, 1024, 512, 2, 1);
        let plan = recommended_plan(&big, 0.5);
        assert_eq!(
            (plan.forward, plan.backward),
            (Technique::GemmInParallel, Technique::GemmInParallel)
        );
    }

    #[test]
    fn sparsity_gates_sparse_bp() {
        let spec = ConvSpec::square(32, 256, 64, 3, 1);
        assert_eq!(recommended_plan(&spec, 0.74).backward, Technique::GemmInParallel);
        assert_eq!(recommended_plan(&spec, 0.76).backward, Technique::SparseBp);
    }

    #[test]
    fn candidate_lists_are_phase_correct() {
        assert!(Technique::forward_candidates().contains(&Technique::StencilFp));
        assert!(!Technique::forward_candidates().contains(&Technique::SparseBp));
        let backward = Technique::backward_candidates();
        assert!(backward.contains(&Technique::SparseBp));
        assert!(!backward.contains(&Technique::StencilFp));
    }

    #[test]
    fn starved_batch_pins_the_stencil_where_it_splits() {
        // ImageNet-22K L0 geometry (Table 2) at batch 1 on 8 cores: whole
        // samples cover one worker, and the stencil splits by output rows.
        let spec = ConvSpec::square(262, 120, 3, 7, 2);
        assert_eq!(band_ranges(&spec, 8).len(), 8);
        assert_eq!(recommended_plan_for_batch(&spec, 0.5, 8, 1).forward, Technique::StencilFp);
        // A layer the heuristic gives to GEMM is pinned too.
        let wide = ConvSpec::square(55, 256, 96, 5, 1);
        assert_eq!(recommended_plan_for_batch(&wide, 0.5, 8, 1).forward, Technique::StencilFp);
        // A saturating batch falls back to the sample-parallel heuristic.
        assert_eq!(recommended_plan_for_batch(&wide, 0.5, 8, 8), recommended_plan(&wide, 0.5));
        // One output row and narrow outputs do not band: fall back even
        // when starved.
        let one_row = ConvSpec::new(3, 7, 69, 40, 7, 7, 2, 2).expect("valid spec");
        let narrow = ConvSpec::square(8, 64, 64, 5, 1); // 4x4 output
        for spec in [one_row, narrow] {
            assert_eq!(band_ranges(&spec, 8).len(), 1, "{spec}");
            assert_eq!(recommended_plan_for_batch(&spec, 0.5, 8, 1), recommended_plan(&spec, 0.5));
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Technique::SparseBp.to_string(), "Sparse-Kernel (BP)");
        let plan = LayerPlan { forward: Technique::StencilFp, backward: Technique::SparseBp };
        assert!(plan.to_string().contains("FP: Stencil"));
    }
}
