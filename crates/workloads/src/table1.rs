//! The six benchmark convolutions of the paper's Table 1.
//!
//! "These benchmarks were chosen to represent convolutions with high,
//! moderate and low AIT, arching over a full spectrum of convolutions
//! spanned by kernel size and number of features."

use spg_convnet::ConvSpec;
use spg_core::region::{region_pair, Region};

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Convolution ID (0–5) as used throughout the paper's figures.
    pub id: usize,
    /// The convolution.
    pub spec: ConvSpec,
    /// "Intrinsic AIT" as printed in the paper.
    pub paper_intrinsic_ait: f64,
    /// "Unfold+GEMM" AIT as printed in the paper.
    pub paper_unfold_ait: f64,
    /// The dense/sparse region pair printed in the "Region (Reg)" column.
    pub paper_regions: (Region, Region),
}

impl Table1Row {
    /// Intrinsic AIT computed from Eq. 5–8.
    pub fn computed_intrinsic_ait(&self) -> f64 {
        self.spec.intrinsic_ait()
    }

    /// Unfold+GEMM AIT computed with the paper's `|U|` accounting.
    pub fn computed_unfold_ait(&self) -> f64 {
        self.spec.unfold_ait()
    }

    /// Region pair computed by the Fig. 1 classifier.
    pub fn computed_regions(&self) -> (Region, Region) {
        region_pair(&self.spec)
    }
}

/// All six rows of Table 1, in ID order.
///
/// # Example
///
/// ```
/// let rows = spg_workloads::table1::rows();
/// assert_eq!(rows.len(), 6);
/// assert_eq!(rows[1].spec.features(), 1024);
/// ```
pub fn rows() -> Vec<Table1Row> {
    let mk = |id, n, nf, nc, k, intrinsic, unfold, dense, sparse| Table1Row {
        id,
        spec: ConvSpec::square(n, nf, nc, k, 1),
        paper_intrinsic_ait: intrinsic,
        paper_unfold_ait: unfold,
        paper_regions: (dense, sparse),
    };
    vec![
        mk(0, 32, 32, 32, 4, 362.0, 25.0, Region::R4, Region::R5),
        mk(1, 64, 1024, 512, 2, 2015.0, 725.0, Region::R0, Region::R1),
        mk(2, 256, 256, 128, 3, 1510.0, 226.0, Region::R2, Region::R3),
        mk(3, 128, 128, 64, 7, 3561.0, 113.0, Region::R2, Region::R3),
        mk(4, 128, 512, 256, 5, 6567.0, 456.0, Region::R2, Region::R3),
        mk(5, 64, 64, 16, 11, 1921.0, 44.0, Region::R4, Region::R5),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole point of Table 1: the formulas reproduce the printed
    /// values (intrinsic exactly, unfold within rounding).
    #[test]
    fn computed_values_match_paper() {
        for row in rows() {
            let i_err = (row.computed_intrinsic_ait() - row.paper_intrinsic_ait).abs()
                / row.paper_intrinsic_ait;
            assert!(
                i_err < 0.005,
                "ID {}: intrinsic {} vs {}",
                row.id,
                row.computed_intrinsic_ait(),
                row.paper_intrinsic_ait
            );
            let u_err =
                (row.computed_unfold_ait() - row.paper_unfold_ait).abs() / row.paper_unfold_ait;
            assert!(
                u_err < 0.05,
                "ID {}: unfold {} vs {}",
                row.id,
                row.computed_unfold_ait(),
                row.paper_unfold_ait
            );
            assert_eq!(row.computed_regions(), row.paper_regions, "ID {}", row.id);
        }
    }

    #[test]
    fn ids_are_unique_and_ordered() {
        let ids: Vec<usize> = rows().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }
}
