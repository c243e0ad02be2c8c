//! The verifier's plan IR and the register-tile consistency checks.
//!
//! `spg-core` lowers its `LayerPlan` + generated tile parameters into
//! this IR before verification; the IR deliberately carries the *derived*
//! quantities the kernels actually execute with (lane count, register tile,
//! band ranges, worker count) rather than the planner's abstract knobs, so the
//! proof is about the code that runs, not the heuristic that chose it.

use crate::error::CheckError;
use crate::Interp;
use spg_convnet::ConvSpec;

/// SIMD lanes per vector register of the run-time-geometry ("generic")
/// stencil instance (AVX2: 8). The one definition; `spg-core` re-exports
/// it.
pub const VECTOR_WIDTH: usize = 8;

/// Architectural vector registers of the instruction set whose vectors
/// hold `lanes` f32 lanes: sixteen YMM on AVX2 (8 lanes), thirty-two ZMM on
/// AVX-512 (16 lanes). `None` for a lane width no instance runs.
pub const fn vector_registers(lanes: usize) -> Option<usize> {
    match lanes {
        8 => Some(16),
        16 => Some(32),
        _ => None,
    }
}

/// The stencil's register tile (Sec. 4.3's basic block, vectorized over
/// output features): `nx` consecutive output positions of one row times
/// `nfv` vectors of output features. Each kernel tap loads `nfv` weight
/// vectors, broadcasts `nx` input values and issues `nx * nfv` FMAs into
/// accumulators that live in registers for the whole reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegisterTile {
    /// Output positions (consecutive `x` of one row).
    pub nx: usize,
    /// Vectors of output features.
    pub nfv: usize,
}

impl RegisterTile {
    /// Vector registers the tile keeps live: its accumulators, the weight
    /// vectors of one tap and the broadcast input.
    pub fn registers(self) -> usize {
        self.nx * self.nfv + self.nfv + 1
    }
}

/// How the forward pass executes under the candidate plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForwardPlan {
    /// Register-tiled direct stencil with output features as vector
    /// lanes, reading the CHW input in place at every stride and the
    /// feature-blocked (`[c][ky][kx][f]`, features padded to whole tiles)
    /// weights.
    StencilTiled {
        /// f32 lanes per vector: output features per weight load.
        lanes: usize,
        /// The register tile every output row is swept with.
        tile: RegisterTile,
    },
    /// Hybrid intra-layer decomposition: the layer's own tiled plan with
    /// its output rows partitioned into disjoint contiguous worker bands.
    /// A band is not a convolution of its own — it is a range of that loop
    /// nest, reading the parent input and writing rows `[lo, hi)` of every
    /// output feature plane.
    StencilBanded {
        /// f32 lanes per vector, as in [`ForwardPlan::StencilTiled`].
        lanes: usize,
        /// The register tile every output row is swept with.
        tile: RegisterTile,
        /// Per-worker half-open `[lo, hi)` ranges of output rows; must
        /// disjointly cover the output's rows in ascending order.
        bands: Vec<(usize, usize)>,
    },
    /// Unfold + GEMM with `threads` parallel row bands (Parallel-GEMM when
    /// `threads > 1`, GEMM-in-Parallel's per-core serial GEMM when 1).
    UnfoldGemm {
        /// Parallel workers splitting the GEMM output.
        threads: usize,
    },
}

/// Accumulator vectors the sparse backward kernels hold in registers per
/// chunk at `lanes` f32 lanes: 16 ZMM at 16 lanes, 8 YMM otherwise. A
/// chunk of a `kx·c`-long weight-gradient run (backward-weights) or of a
/// `c`-long error row (backward-data) stays in them while a list of
/// non-zero gradients streams past. The one definition; the kernels' tiers
/// read it, and [`BackwardPlan::SparsePointerShift`] is proved against it.
pub const fn sparse_block(lanes: usize) -> usize {
    if lanes >= 16 {
        16
    } else {
        8
    }
}

/// How the backward pass executes under the candidate plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackwardPlan {
    /// CT-CSR pointer-shifting sparse composition (Eq. 11–15), register
    /// blocked.
    SparsePointerShift {
        /// Feature-tile width of backward-data's CT-CSR build.
        tile_width: usize,
        /// f32 lanes per vector of the tier both phases run; their register
        /// block is [`sparse_block`]`(lanes)` vectors.
        lanes: usize,
    },
    /// Unfold + GEMM backward (data and weights phases).
    UnfoldGemm {
        /// Parallel workers splitting each GEMM output.
        threads: usize,
    },
}

/// A complete lowered layer plan: both phases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvPlan {
    /// Forward execution strategy.
    pub forward: ForwardPlan,
    /// Backward execution strategy.
    pub backward: BackwardPlan,
}

/// Proves a stencil register tile admissible at `lanes` lanes: non-empty,
/// within the instruction set's vector register file (accumulators, one
/// tap's weight vectors and the broadcast), no wider than the group of
/// `lanes` positions whose stores are transposed together, and no wider
/// than the output row it sweeps — the last x-block overlaps its
/// predecessor, so it needs a whole tile of positions inside the row.
pub(crate) fn check_register_tile(
    interp: &mut Interp,
    spec: &ConvSpec,
    lanes: usize,
    tile: RegisterTile,
) -> Result<(), CheckError> {
    let Some(registers) = vector_registers(lanes) else {
        return Err(CheckError::PlanShapeMismatch {
            context: "no instruction set has vectors of this many lanes",
            expected: VECTOR_WIDTH,
            found: lanes,
        });
    };
    if tile.nx == 0 || tile.nfv == 0 {
        return Err(CheckError::PlanShapeMismatch {
            context: "register tile must be at least 1x1",
            expected: 1,
            found: 0,
        });
    }
    if tile.registers() > registers {
        return Err(CheckError::BudgetExceeded {
            context: "register-tile accumulators, weight vectors and broadcast",
            used: tile.registers(),
            budget: registers,
        });
    }
    if tile.nx > lanes {
        return Err(CheckError::PlanShapeMismatch {
            context: "register tile wider than a store group",
            expected: lanes,
            found: tile.nx,
        });
    }
    if tile.nx > spec.out_w() {
        return Err(CheckError::PlanShapeMismatch {
            context: "register tile wider than the output row",
            expected: spec.out_w(),
            found: tile.nx,
        });
    }
    interp.proved(4);
    Ok(())
}

/// Proves the sparse register block at `lanes` lanes admissible: a lane
/// width some tier runs, and [`sparse_block`]`(lanes)` accumulators plus
/// the broadcast non-zero, the loaded operand and the tail mask inside
/// that tier's vector register file.
pub(crate) fn check_sparse_lanes(interp: &mut Interp, lanes: usize) -> Result<(), CheckError> {
    let Some(registers) = vector_registers(lanes) else {
        return Err(CheckError::PlanShapeMismatch {
            context: "no instruction set has vectors of this many lanes",
            expected: VECTOR_WIDTH,
            found: lanes,
        });
    };
    let used = sparse_block(lanes) + 3;
    if used > registers {
        return Err(CheckError::BudgetExceeded {
            context: "sparse register block: accumulators, broadcast, operand and mask",
            used,
            budget: registers,
        });
    }
    interp.proved(2);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ConvSpec {
        ConvSpec::square(32, 16, 8, 5, 1)
    }

    #[test]
    fn budget_tile_accepted() {
        let mut interp = Interp::default();
        check_register_tile(&mut interp, &spec(), 16, RegisterTile { nx: 4, nfv: 6 }).unwrap();
        check_register_tile(&mut interp, &spec(), 8, RegisterTile { nx: 4, nfv: 3 }).unwrap();
    }

    /// The budget is the instruction set's: a tile that fits the 32 ZMM
    /// registers of AVX-512 overflows the 16 YMM registers of AVX2.
    #[test]
    fn register_tile_over_the_isa_register_file_rejected() {
        let mut interp = Interp::default();
        let tile = RegisterTile { nx: 4, nfv: 6 };
        let err = check_register_tile(&mut interp, &spec(), 8, tile).unwrap_err();
        assert!(matches!(err, CheckError::BudgetExceeded { used: 31, budget: 16, .. }));
        let over = RegisterTile { nx: 4, nfv: 7 };
        let err = check_register_tile(&mut interp, &spec(), 16, over).unwrap_err();
        assert!(matches!(err, CheckError::BudgetExceeded { used: 36, budget: 32, .. }));
        let err = check_register_tile(&mut interp, &spec(), 4, RegisterTile { nx: 1, nfv: 1 });
        assert!(matches!(err, Err(CheckError::PlanShapeMismatch { found: 4, .. })));
    }

    #[test]
    fn register_tile_wider_than_output_or_group_rejected() {
        let small = ConvSpec::square(10, 4, 2, 3, 1); // 8x8 output
        let mut interp = Interp::default();
        let tile = RegisterTile { nx: 9, nfv: 1 };
        let err = check_register_tile(&mut interp, &small, 16, tile).unwrap_err();
        assert!(matches!(err, CheckError::PlanShapeMismatch { expected: 8, found: 9, .. }));
        let err = check_register_tile(&mut interp, &spec(), 8, tile).unwrap_err();
        assert!(matches!(err, CheckError::PlanShapeMismatch { expected: 8, found: 9, .. }));
    }
}
