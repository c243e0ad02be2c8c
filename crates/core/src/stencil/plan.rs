//! The basic-block generator's register-tile search (paper Sec. 4.3).

use std::fmt;

use spg_check::{ACCUMULATOR_BUDGET, VECTOR_WIDTH};
use spg_convnet::ConvSpec;

/// A chosen output register tile for the stencil basic block.
///
/// The tile is `rx` vectors wide (each [`VECTOR_WIDTH`] outputs) and `ry`
/// rows tall. Larger `ry` lets one loaded input vector feed up to
/// `min(ry, Fy)` output rows (the spatial-reuse win); `rx` amortizes the
/// weight broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterTilePlan {
    /// Tile width in vectors.
    pub rx: usize,
    /// Tile height in rows.
    pub ry: usize,
    /// Vector loads the basic block issues per `(c)` slice:
    /// `(ry + Fy - 1) * Fx * rx`.
    pub loads_per_block: usize,
    /// Fused multiply-adds per block: `rx * ry * Fy * Fx`.
    pub fmas_per_block: usize,
}

impl RegisterTilePlan {
    /// Vector loads per FMA — the quantity the search minimizes. Lower is
    /// better; an unfolded GEMM of the same convolution effectively pays
    /// one load per FMA element for small kernels.
    pub fn loads_per_fma(&self) -> f64 {
        self.loads_per_block as f64 / self.fmas_per_block as f64
    }

    /// Input reuse factor: FMAs served per loaded input vector.
    pub fn reuse(&self) -> f64 {
        1.0 / self.loads_per_fma()
    }
}

impl fmt::Display for RegisterTilePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} tile ({} loads / {} fmas per block)",
            self.rx, self.ry, self.loads_per_block, self.fmas_per_block
        )
    }
}

/// Searches all register tiles fitting the accumulator budget and returns
/// the one minimizing vector loads per FMA, tie-breaking toward larger
/// tiles (fewer loop iterations) and then wider tiles (fewer weight
/// broadcasts).
///
/// This is the paper's "geometric optimization problem ... our code
/// generator finds the optimal solution by iterating over all possible
/// values for rx and ry" (Sec. 4.3).
///
/// # Example
///
/// ```
/// use spg_convnet::ConvSpec;
/// use spg_core::stencil::plan_register_tile;
///
/// // Taller tiles amortize input loads across kernel rows.
/// let spec = ConvSpec::square(32, 16, 3, 3, 1);
/// let plan = plan_register_tile(&spec);
/// assert!(plan.ry > 1);
/// assert!(plan.rx * plan.ry <= spg_core::stencil::ACCUMULATOR_BUDGET);
/// ```
pub fn plan_register_tile(spec: &ConvSpec) -> RegisterTilePlan {
    let fy = spec.ky();
    let fx = spec.kx();
    // The 1x1 tile is always admissible, so the search below can only
    // improve on this seed; `best` is never left at a worse candidate.
    let mut best =
        RegisterTilePlan { rx: 1, ry: 1, loads_per_block: fy * fx, fmas_per_block: fy * fx };
    let mut seeded = true;
    for ry in 1..=ACCUMULATOR_BUDGET {
        for rx in 1..=ACCUMULATOR_BUDGET {
            if rx * ry > ACCUMULATOR_BUDGET {
                continue;
            }
            // Don't tile wider/taller than the output itself.
            if ry > spec.out_h() || (rx - 1) * VECTOR_WIDTH >= spec.out_w().max(1) + VECTOR_WIDTH {
                continue;
            }
            let candidate = RegisterTilePlan {
                rx,
                ry,
                loads_per_block: (ry + fy - 1) * fx * rx,
                fmas_per_block: rx * ry * fy * fx,
            };
            let better = if seeded {
                true
            } else {
                let b = &best;
                let (c, bb) = (candidate.loads_per_fma(), b.loads_per_fma());
                c < bb - 1e-12
                    || ((c - bb).abs() <= 1e-12
                        && (candidate.rx * candidate.ry > b.rx * b.ry
                            || (candidate.rx * candidate.ry == b.rx * b.ry && candidate.rx > b.rx)))
            };
            if better {
                best = candidate;
                seeded = false;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_example_counts() {
        // Fig. 7: Fx=1, Fy=2 kernel with rx=1, ry=2 tile -> 3 loads, 4 FMAs.
        let plan = RegisterTilePlan { rx: 1, ry: 2, loads_per_block: 3, fmas_per_block: 4 };
        assert!((plan.loads_per_fma() - 0.75).abs() < 1e-12);
        let spec = ConvSpec::new(1, 64, 64, 1, 2, 1, 1, 1).unwrap();
        let searched = plan_register_tile(&spec);
        // The searched plan must be at least as load-efficient as Fig. 7's.
        assert!(searched.loads_per_fma() <= plan.loads_per_fma());
    }

    #[test]
    fn respects_budget_and_output_bounds() {
        for (n, k) in [(32usize, 3usize), (8, 5), (64, 11), (4, 2)] {
            let spec = ConvSpec::square(n, 8, 4, k, 1);
            let plan = plan_register_tile(&spec);
            assert!(plan.rx * plan.ry <= ACCUMULATOR_BUDGET);
            assert!(plan.ry <= spec.out_h());
        }
    }

    #[test]
    fn taller_tiles_win_for_tall_kernels() {
        // With Fy large, reuse grows with ry, so the plan maxes ry.
        let spec = ConvSpec::square(64, 8, 4, 7, 1);
        let plan = plan_register_tile(&spec);
        assert_eq!(plan.ry, ACCUMULATOR_BUDGET, "plan was {plan}");
        assert_eq!(plan.rx, 1);
    }

    #[test]
    fn loads_formula_consistency() {
        let spec = ConvSpec::square(32, 8, 4, 3, 1);
        let plan = plan_register_tile(&spec);
        assert_eq!(plan.loads_per_block, (plan.ry + 3 - 1) * 3 * plan.rx);
        assert_eq!(plan.fmas_per_block, plan.rx * plan.ry * 9);
    }

    #[test]
    fn reuse_exceeds_one_for_multi_row_kernels() {
        // Any Fy > 1 kernel must achieve input reuse > 1 with a good tile.
        let spec = ConvSpec::square(32, 8, 4, 3, 1);
        let plan = plan_register_tile(&spec);
        assert!(plan.reuse() > 1.0, "reuse {}", plan.reuse());
    }

    #[test]
    fn one_by_one_kernel_has_no_reuse_to_find() {
        let spec = ConvSpec::square(16, 8, 4, 1, 1);
        let plan = plan_register_tile(&spec);
        // loads == fmas regardless of tile for 1x1 kernels.
        assert!((plan.loads_per_fma() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_output_clamps_tile() {
        let spec = ConvSpec::new(1, 3, 64, 1, 2, 2, 1, 1).unwrap(); // out_h = 2
        let plan = plan_register_tile(&spec);
        assert!(plan.ry <= 2);
    }
}
