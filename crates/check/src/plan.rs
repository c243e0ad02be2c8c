//! The verifier's plan IR and the basic-block / schedule consistency checks.
//!
//! `spg-core` lowers its `LayerPlan` + generated tile/schedule parameters into
//! this IR before verification; the IR deliberately carries the *derived*
//! quantities the kernels actually execute with (lane count, tile row count,
//! x-tile list, worker count) rather than the planner's abstract knobs, so the
//! proof is about the code that runs, not the heuristic that chose it.

use crate::error::CheckError;
use crate::Interp;
use spg_convnet::ConvSpec;

/// SIMD lanes per vector register the generic stencil basic block is
/// generated for (AVX: 8). The one definition; `spg-core` re-exports it.
pub const VECTOR_WIDTH: usize = 8;

/// Architectural vector-accumulator budget for one basic block (Sec. 4.3:
/// sixteen YMM registers minus operand/broadcast temporaries).
pub const ACCUMULATOR_BUDGET: usize = 12;

/// L1 working-set budget in `f32` elements the schedule generator targets.
pub const L1_BUDGET_ELEMS: usize = 4 * 1024;

/// Elements per page used by the TLB cost model.
pub const PAGE_ELEMS: usize = 1024;

/// Data-TLB entry budget the schedule generator targets.
pub const TLB_BUDGET_PAGES: usize = 16;

/// One contiguous x-segment of a stencil row, `vectors * lanes` columns wide,
/// starting at output column `x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XTile {
    /// First output column the segment writes.
    pub x: usize,
    /// Vector registers per row of the segment (1 or 2).
    pub vectors: usize,
}

/// Register-tile shape chosen by the basic-block generator (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterTile {
    /// Vector registers along x.
    pub rx: usize,
    /// Rows along y.
    pub ry: usize,
}

/// Cache/TLB schedule tile chosen by the schedule generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleTile {
    /// Output rows per cache tile.
    pub y_tile: usize,
    /// Output columns per cache tile.
    pub x_tile: usize,
}

/// Which output dimension a banded (hybrid intra-layer) decomposition
/// splits across workers. Sample parallelism needs no plan: each worker
/// runs the whole unsplit plan on its own sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BandDim {
    /// Contiguous bands of output rows (spatial-`y` partitioning).
    YRows,
    /// Contiguous slices of output features (channel partitioning).
    OutChannels,
}

/// How the forward pass executes under the candidate plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForwardPlan {
    /// Register-tiled direct stencil over wide rows (`out_w >= lanes`),
    /// optionally through the Eq. 21 phase transform when `sx > 1`.
    StencilTiled {
        /// SIMD lanes per vector store.
        lanes: usize,
        /// Output rows per basic-block invocation.
        tile_rows: usize,
        /// Output rows per cache tile wrapped around the basic block.
        cache_rows: usize,
        /// Row segmentation; must cover `0..out_w` without escaping it.
        x_tiles: Vec<XTile>,
        /// Whether the input is staged through the phase transform.
        phased: bool,
    },
    /// Narrow-output stencil: per-tap gather into a patch block + small GEMM.
    StencilNarrow,
    /// Hybrid intra-layer decomposition: the layer's own tiled plan with
    /// one axis of its loop nest partitioned into disjoint contiguous
    /// worker bands. A band is not a convolution of its own — it is a
    /// range of that loop nest, reading the parent input and writing the
    /// parent output.
    StencilBanded {
        /// The output dimension the bands split.
        dim: BandDim,
        /// The whole layer's plan; must be [`ForwardPlan::StencilTiled`].
        tiled: Box<ForwardPlan>,
        /// Per-worker half-open `[lo, hi)` ranges of output rows or
        /// features (by `dim`); must disjointly cover the split extent.
        bands: Vec<(usize, usize)>,
    },
    /// Unfold + GEMM with `threads` parallel row bands (Parallel-GEMM when
    /// `threads > 1`, GEMM-in-Parallel's per-core serial GEMM when 1).
    UnfoldGemm {
        /// Parallel workers splitting the GEMM output.
        threads: usize,
    },
}

/// How the backward pass executes under the candidate plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackwardPlan {
    /// CT-CSR pointer-shifting sparse composition (Eq. 11–15).
    SparsePointerShift {
        /// Feature-tile width of the CT-CSR build.
        tile_width: usize,
    },
    /// Unfold + GEMM backward (data and weights phases).
    UnfoldGemm {
        /// Parallel workers splitting each GEMM output.
        threads: usize,
    },
}

/// A complete lowered layer plan: both phases plus the generated tile shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvPlan {
    /// Forward execution strategy.
    pub forward: ForwardPlan,
    /// Backward execution strategy.
    pub backward: BackwardPlan,
    /// Basic-block register tile the generator chose for this spec.
    pub register_tile: RegisterTile,
    /// Cache/TLB schedule tile the generator chose for this spec.
    pub schedule: ScheduleTile,
}

/// Proves the register tile admissible: within the accumulator budget and
/// no larger than the output extent it tiles (the generator's own admissibility
/// predicate, re-derived from the spec rather than trusted).
pub(crate) fn check_register_tile(
    interp: &mut Interp,
    spec: &ConvSpec,
    tile: RegisterTile,
) -> Result<(), CheckError> {
    if tile.rx == 0 || tile.ry == 0 {
        return Err(CheckError::PlanShapeMismatch {
            context: "register tile must be at least 1x1",
            expected: 1,
            found: 0,
        });
    }
    let accumulators = tile.rx * tile.ry;
    if accumulators > ACCUMULATOR_BUDGET {
        return Err(CheckError::BudgetExceeded {
            context: "register-tile vector accumulators",
            used: accumulators,
            budget: ACCUMULATOR_BUDGET,
        });
    }
    if tile.ry > spec.out_h() {
        return Err(CheckError::PlanShapeMismatch {
            context: "register tile taller than the output",
            expected: spec.out_h(),
            found: tile.ry,
        });
    }
    // Mirrors the generator's width admissibility: the widest admissible tile
    // keeps its last vector within one vector width of the row end.
    if (tile.rx - 1) * VECTOR_WIDTH >= spec.out_w().max(1) + VECTOR_WIDTH {
        return Err(CheckError::PlanShapeMismatch {
            context: "register tile wider than the output row admits",
            expected: spec.out_w(),
            found: tile.rx * VECTOR_WIDTH,
        });
    }
    interp.proved(3);
    Ok(())
}

/// Proves the schedule tile consistent with the spec and, for multi-row tiles,
/// within the L1 and TLB budgets the schedule generator targets.
///
/// Single-row tiles are the generator's unconditional fallback (a layer whose
/// one-row working set exceeds L1 still has to run), so budget violations are
/// only rejected when the plan claims a grown tile.
pub(crate) fn check_schedule_tile(
    interp: &mut Interp,
    spec: &ConvSpec,
    tile: ScheduleTile,
) -> Result<(), CheckError> {
    if tile.y_tile == 0 || tile.x_tile == 0 {
        return Err(CheckError::PlanShapeMismatch {
            context: "schedule tile must be at least 1x1",
            expected: 1,
            found: 0,
        });
    }
    if tile.y_tile > spec.out_h() {
        return Err(CheckError::PlanShapeMismatch {
            context: "schedule tile taller than the output",
            expected: spec.out_h(),
            found: tile.y_tile,
        });
    }
    if tile.x_tile > spec.out_w() {
        return Err(CheckError::PlanShapeMismatch {
            context: "schedule tile wider than the output",
            expected: spec.out_w(),
            found: tile.x_tile,
        });
    }
    if tile.y_tile > 1 {
        let working_set = working_set_elems(spec, tile);
        if working_set > L1_BUDGET_ELEMS {
            return Err(CheckError::BudgetExceeded {
                context: "cache-tile L1 working set",
                used: working_set,
                budget: L1_BUDGET_ELEMS,
            });
        }
        let pages = pages_touched(spec, tile);
        if pages > TLB_BUDGET_PAGES {
            return Err(CheckError::BudgetExceeded {
                context: "cache-tile TLB pages",
                used: pages,
                budget: TLB_BUDGET_PAGES,
            });
        }
    }
    interp.proved(3);
    Ok(())
}

/// Elements one cache tile keeps live: its input halo, its output tile, and
/// the kernel. Mirrors the schedule generator's cost model.
fn working_set_elems(spec: &ConvSpec, tile: ScheduleTile) -> usize {
    let input_tile = (tile.y_tile + spec.ky() - 1) * (tile.x_tile + spec.kx() - 1);
    input_tile + tile.y_tile * tile.x_tile + spec.ky() * spec.kx()
}

/// Average pages one cache tile touches. Mirrors the schedule generator's
/// TLB cost model (half-page expectation per row segment).
fn pages_touched(spec: &ConvSpec, tile: ScheduleTile) -> usize {
    let row_pages = |w: usize| w / PAGE_ELEMS + 2;
    let input_rows = tile.y_tile + spec.ky() - 1;
    input_rows * row_pages(tile.x_tile + spec.kx() - 1) / 2
        + tile.y_tile * row_pages(tile.x_tile) / 2
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
        check_register_tile(&mut interp, &spec(), RegisterTile { rx: 2, ry: 6 }).unwrap();
        check_schedule_tile(&mut interp, &spec(), ScheduleTile { y_tile: 4, x_tile: 28 }).unwrap();
    }

    #[test]
    fn oversized_register_tile_rejected() {
        let mut interp = Interp::default();
        let err =
            check_register_tile(&mut interp, &spec(), RegisterTile { rx: 4, ry: 4 }).unwrap_err();
        assert!(matches!(err, CheckError::BudgetExceeded { used: 16, budget: 12, .. }));
    }

    #[test]
    fn register_tile_taller_than_output_rejected() {
        let small = ConvSpec::square(8, 4, 2, 3, 1); // 6x6 output
        let mut interp = Interp::default();
        let err =
            check_register_tile(&mut interp, &small, RegisterTile { rx: 1, ry: 12 }).unwrap_err();
        assert!(matches!(err, CheckError::PlanShapeMismatch { found: 12, .. }));
    }

    #[test]
    fn grown_schedule_tile_over_tlb_rejected() {
        // 28x28 output: a tile the full height of the output touches 32 pages
        // under the half-page model, over the 16-entry budget.
        let mut interp = Interp::default();
        let err =
            check_schedule_tile(&mut interp, &spec(), ScheduleTile { y_tile: 28, x_tile: 28 })
                .unwrap_err();
        assert!(matches!(err, CheckError::BudgetExceeded { context: "cache-tile TLB pages", .. }));
    }

    #[test]
    fn grown_schedule_tile_over_l1_rejected() {
        // 76x76 output: a 60-row tile keeps a ~5000-element input halo live.
        let wide = ConvSpec::square(80, 4, 1, 5, 1);
        let mut interp = Interp::default();
        let err = check_schedule_tile(&mut interp, &wide, ScheduleTile { y_tile: 60, x_tile: 76 })
            .unwrap_err();
        assert!(matches!(
            err,
            CheckError::BudgetExceeded { context: "cache-tile L1 working set", .. }
        ));
    }

    #[test]
    fn single_row_fallback_tile_always_accepted() {
        let mut interp = Interp::default();
        check_schedule_tile(&mut interp, &spec(), ScheduleTile { y_tile: 1, x_tile: 28 }).unwrap();
    }
}
