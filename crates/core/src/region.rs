//! The Fig. 1 design-space classifier.
//!
//! The paper organizes convolutions in a 2-D space of arithmetic intensity
//! (which, per the Fig. 1 caption, tracks roughly `2 x` the output feature
//! count) and sparsity, dividing it into six regions with distinct
//! performance pathologies under `Unfold + Parallel-GEMM`:
//!
//! | Region | AIT / features | Sparsity | Pathology | Fix |
//! |---|---|---|---|---|
//! | 0 | high (>= 1024 features) | dense | none | — |
//! | 1 | high | sparse | poor goodput | Sparse-Kernel (BP) |
//! | 2 | moderate (128–1023) | dense | poor scalability | GEMM-in-Parallel |
//! | 3 | moderate | sparse | scalability + goodput | GiP + Sparse-Kernel |
//! | 4 | low (< 128 features) | dense | poor single-core perf | Stencil-Kernel (FP) |
//! | 5 | low | sparse | single-core + goodput | Stencil + Sparse-Kernel |

use std::fmt;

use spg_convnet::ConvSpec;

/// Feature-count boundary between the high-AIT regions (0, 1) and the
/// moderate regions (2, 3); from Sec. 4.4: Parallel-GEMM only stays
/// competitive at or above 1024 features.
pub const HIGH_FEATURE_THRESHOLD: usize = 1024;

/// Feature-count boundary between the moderate regions (2, 3) and the
/// low-AIT regions (4, 5); from Sec. 4.4: the stencil kernel wins below
/// 128 output features.
pub const LOW_FEATURE_THRESHOLD: usize = 128;

/// Sparsity above which a computation sits in an odd (sparse) region;
/// from Sec. 4.4: the sparse kernel overtakes dense GEMM above 75 %.
pub const SPARSE_THRESHOLD: f64 = 0.75;

/// One of the six regions of the paper's Fig. 1 design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// High AIT, dense: Parallel-GEMM already performs and scales well.
    R0,
    /// High AIT, sparse: throughput fine, goodput poor.
    R1,
    /// Moderate AIT, dense: scales poorly under Parallel-GEMM.
    R2,
    /// Moderate AIT, sparse: poor scalability and goodput.
    R3,
    /// Low AIT, dense: poor single-core performance after unfolding.
    R4,
    /// Low AIT, sparse: poor single-core performance and goodput.
    R5,
}

impl Region {
    /// Region index 0–5 as printed in the paper.
    pub fn index(self) -> usize {
        match self {
            Region::R0 => 0,
            Region::R1 => 1,
            Region::R2 => 2,
            Region::R3 => 3,
            Region::R4 => 4,
            Region::R5 => 5,
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Region {}", self.index())
    }
}

/// Classifies a convolution with a given error-gradient sparsity into its
/// Fig. 1 region, using the output-feature count as the AIT proxy the
/// figure's caption prescribes (`AIT ~ 2 x features`).
///
/// # Example
///
/// ```
/// use spg_convnet::ConvSpec;
/// use spg_core::region::{classify, Region};
///
/// // MNIST layer 0 (Table 2): 20 features -> low-AIT region.
/// let mnist = ConvSpec::square(28, 20, 1, 5, 1);
/// assert_eq!(classify(&mnist, 0.0), Region::R4);
/// assert_eq!(classify(&mnist, 0.9), Region::R5);
/// ```
pub fn classify(spec: &ConvSpec, sparsity: f64) -> Region {
    classify_by_features(spec.features(), sparsity)
}

/// Classifies directly from a feature count and sparsity.
///
/// # Panics
///
/// Panics if `sparsity` is not in `[0, 1]`.
pub fn classify_by_features(features: usize, sparsity: f64) -> Region {
    assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0, 1]");
    let sparse = sparsity > SPARSE_THRESHOLD;
    if features >= HIGH_FEATURE_THRESHOLD {
        if sparse {
            Region::R1
        } else {
            Region::R0
        }
    } else if features >= LOW_FEATURE_THRESHOLD {
        if sparse {
            Region::R3
        } else {
            Region::R2
        }
    } else if sparse {
        Region::R5
    } else {
        Region::R4
    }
}

/// The dense/sparse region pair a convolution occupies across training
/// (dense early, sparse once gradients sparsify) — the "Region (Reg)"
/// column of Table 1.
pub fn region_pair(spec: &ConvSpec) -> (Region, Region) {
    (classify(spec, 0.0), classify(spec, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1's "Region (Reg)" column, reproduced for all six IDs.
    #[test]
    fn table1_region_column() {
        let cases = [
            (32, 32, 32, 4, (Region::R4, Region::R5)),
            (64, 1024, 512, 2, (Region::R0, Region::R1)),
            (256, 256, 128, 3, (Region::R2, Region::R3)),
            (128, 128, 64, 7, (Region::R2, Region::R3)),
            (128, 512, 256, 5, (Region::R2, Region::R3)),
            (64, 64, 16, 11, (Region::R4, Region::R5)),
        ];
        for (n, nf, nc, k, expect) in cases {
            let spec = ConvSpec::square(n, nf, nc, k, 1);
            assert_eq!(region_pair(&spec), expect, "conv {n},{nf},{nc},{k}");
        }
    }

    #[test]
    fn sparsity_flips_parity_only() {
        for features in [16, 128, 500, 1024, 4096] {
            let dense = classify_by_features(features, 0.0);
            let sparse = classify_by_features(features, 0.95);
            assert_eq!(sparse.index(), dense.index() + 1);
        }
    }

    #[test]
    fn boundaries_are_inclusive_upward() {
        assert_eq!(classify_by_features(1024, 0.0), Region::R0);
        assert_eq!(classify_by_features(1023, 0.0), Region::R2);
        assert_eq!(classify_by_features(128, 0.0), Region::R2);
        assert_eq!(classify_by_features(127, 0.0), Region::R4);
    }

    #[test]
    fn sparse_threshold_is_exclusive() {
        assert_eq!(classify_by_features(256, 0.75), Region::R2);
        assert_eq!(classify_by_features(256, 0.7501), Region::R3);
    }

    #[test]
    #[should_panic(expected = "sparsity")]
    fn invalid_sparsity_panics() {
        classify_by_features(64, 1.5);
    }

    #[test]
    fn display_prints_index() {
        assert_eq!(Region::R3.to_string(), "Region 3");
    }
}
