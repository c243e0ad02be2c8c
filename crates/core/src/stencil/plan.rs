//! The basic-block generator's register-tile search (paper Sec. 4.3).

use std::fmt;

use spg_check::RegisterTile;
use spg_convnet::ConvSpec;

/// A chosen register tile for the stencil basic block, with what it costs
/// on `spec`.
///
/// The tile is `nx` consecutive output positions of one row by `nfv`
/// vectors of `lanes` output features. Each kernel tap loads `nfv` weight
/// vectors and broadcasts `nx` input values, and every broadcast feeds
/// `nfv` fused multiply-adds — the reuse that lets one input value serve a
/// whole block of features while it sits in a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterTilePlan {
    /// The tile: positions by feature vectors.
    pub tile: RegisterTile,
    /// f32 lanes per vector.
    pub lanes: usize,
    /// Vector loads (weight vectors and input broadcasts) the basic block
    /// issues per `(c)` slice: `(nx + nfv) * Fy * Fx`.
    pub loads_per_block: usize,
    /// Fused multiply-adds per block: `nx * nfv * Fy * Fx`.
    pub fmas_per_block: usize,
    /// Issue slots one output row costs per kernel tap: the tiles the
    /// sweep runs (whole store groups of `lanes` positions and x-blocks
    /// within them, the last of each overlapping; whole feature blocks,
    /// padding included) times the largest of the tile's FMAs, its loads
    /// (they issue on separate ports) and — when one feature block's
    /// weights overflow [`L1_WEIGHT_BYTES`] — the slots its weight vectors
    /// take to stream from L2.
    pub row_cost: usize,
}

/// Bytes of weights the search assumes one feature block can keep in L1
/// beside the input rows a tile reads. Past it every tile streams its
/// block's weights from L2 at about 16 bytes a cycle (two FMA slots), so
/// a tile must reuse each weight vector over more positions to stay
/// FMA-bound.
pub const L1_WEIGHT_BYTES: usize = 32 * 1024;

impl RegisterTilePlan {
    /// `tile` at `lanes` lanes, costed on `spec`.
    pub fn of(spec: &ConvSpec, lanes: usize, tile: RegisterTile) -> Self {
        let (taps, RegisterTile { nx, nfv }) = (spec.ky() * spec.kx(), tile);
        let width = lanes.min(spec.out_w());
        let x_blocks = spec.out_w().div_ceil(width) * width.div_ceil(nx);
        let tiles = x_blocks * spec.features().div_ceil(nfv * lanes);
        let block_bytes = spec.in_c() * taps * nfv * lanes * std::mem::size_of::<f32>();
        // 16 bytes a cycle, two FMA slots a cycle: lanes * 4 / 8 slots a vector.
        let streamed = if block_bytes > L1_WEIGHT_BYTES { nfv * lanes / 2 } else { 0 };
        RegisterTilePlan {
            tile,
            lanes,
            loads_per_block: (nx + nfv) * taps,
            fmas_per_block: nx * nfv * taps,
            row_cost: tiles * (nx * nfv).max(nx + nfv).max(streamed),
        }
    }
}

impl fmt::Display for RegisterTilePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} tile of {}-lane vectors ({} loads / {} fmas per block)",
            self.tile.nx, self.tile.nfv, self.lanes, self.loads_per_block, self.fmas_per_block
        )
    }
}

/// Searches the register tiles the stencil loop nest is compiled for at
/// `lanes` lanes ([`spg_codegen::register_tiles`]: position counts that
/// divide a store group of `lanes` positions, each with the most feature
/// vectors the instruction set's register file holds) and returns the one
/// whose row sweep of `spec` issues fewest
/// ([`row_cost`](RegisterTilePlan::row_cost)), tie-breaking toward fewer
/// loads per FMA, then larger tiles. Only tiles no wider than an output
/// row are admissible (the last x-block overlaps its predecessor); `None`
/// when none is — lowering then tries the generic 8-lane tiles, and a row
/// too narrow for those runs the GEMM.
///
/// This is the paper's "geometric optimization problem ... our code
/// generator finds the optimal solution by iterating over all possible
/// values" (Sec. 4.3), over positions x feature vectors: a sweep wastes the
/// overlap of its last store group and the padding of its last feature
/// block, so the tile with the fewest loads per FMA in isolation need not
/// win.
///
/// # Example
///
/// ```
/// use spg_convnet::ConvSpec;
/// use spg_core::stencil::plan_register_tile;
///
/// // CIFAR-10 L0: 64 features are four 16-lane vectors, one block of a
/// // 4-position by 4-vector tile.
/// let spec = ConvSpec::square(36, 64, 3, 5, 1);
/// let plan = plan_register_tile(&spec, 16).expect("a 32-wide row fits every tile");
/// assert_eq!((plan.tile.nx, plan.tile.nfv), (4, 4));
/// assert_eq!(plan.fmas_per_block, 2 * plan.loads_per_block); // each load feeds two FMAs
/// ```
pub fn plan_register_tile(spec: &ConvSpec, lanes: usize) -> Option<RegisterTilePlan> {
    let tiles = spg_codegen::register_tiles(lanes).iter().filter(|t| t.nx <= spec.out_w());
    tiles.map(|&tile| RegisterTilePlan::of(spec, lanes, tile)).min_by(|a, b| {
        let size = |p: &RegisterTilePlan| p.tile.nx * p.tile.nfv;
        a.row_cost
            .cmp(&b.row_cost)
            .then(
                (a.loads_per_block * b.fmas_per_block).cmp(&(b.loads_per_block * a.fmas_per_block)),
            )
            .then(size(b).cmp(&size(a)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(spec: &ConvSpec, lanes: usize) -> (usize, usize) {
        let plan = plan_register_tile(spec, lanes).expect("a tile fits the row");
        (plan.tile.nx, plan.tile.nfv)
    }

    /// The tiles the search picks on Table 2 geometries at both lane
    /// widths: one whole feature block where its weights stay in L1, long
    /// x-blocks that reuse each streamed weight vector where they do not.
    #[test]
    fn table2_tiles() {
        let cifar0 = ConvSpec::square(36, 64, 3, 5, 1); // 32 wide, 4 vectors
        let alex0 = ConvSpec::square(224, 96, 3, 11, 4); // 54 wide, 6 vectors
        let adam0 = ConvSpec::square(262, 120, 3, 7, 2); // 128 wide, 7.5 vectors
        let adam2 = ConvSpec::square(15, 400, 250, 3, 1); // 13 wide, 25 vectors
        assert_eq!(tile(&cifar0, 16), (4, 4));
        assert_eq!(tile(&alex0, 16), (8, 3));
        assert_eq!(tile(&adam0, 16), (8, 2));
        assert_eq!(tile(&adam2, 16), (8, 2));
        assert_eq!(tile(&cifar0, 8), (4, 2));
    }

    #[test]
    fn fits_the_register_file_and_the_row() {
        for (n, k, f) in [(32usize, 3usize, 8usize), (10, 3, 64), (64, 11, 3), (12, 2, 200)] {
            let spec = ConvSpec::square(n, f, 4, k, 1);
            for lanes in [8, 16] {
                let plan = plan_register_tile(&spec, lanes).expect("a tile fits the row");
                let registers =
                    spg_check::vector_registers(lanes).unwrap_or_else(|| unreachable!());
                assert!(plan.tile.registers() <= registers, "{spec}: {plan}");
                assert!(plan.tile.nx <= spec.out_w(), "{spec}: {plan}");
            }
        }
    }

    #[test]
    fn one_vector_of_features_takes_the_widest_row_tile() {
        // 8 features at 8 lanes: one vector, so only x-reuse is left.
        let spec = ConvSpec::square(32, 8, 4, 3, 1);
        assert_eq!(tile(&spec, 8), (8, 1));
    }

    #[test]
    fn loads_formula_consistency() {
        let spec = ConvSpec::square(32, 40, 4, 3, 1);
        let plan = plan_register_tile(&spec, 8).expect("a tile fits the row");
        let RegisterTile { nx, nfv } = plan.tile;
        assert_eq!(plan.loads_per_block, (nx + nfv) * 9);
        assert_eq!(plan.fmas_per_block, nx * nfv * 9);
        assert!(plan.fmas_per_block > plan.loads_per_block, "{plan:?}");
    }

    /// A row narrower than every tile of a lane width gets none at that
    /// width; the 8-lane tiles reach down to two positions, and a one-wide
    /// row fits no tile at all.
    #[test]
    fn rows_narrower_than_every_tile_get_none() {
        let two = ConvSpec::new(1, 3, 3, 64, 2, 2, 1, 1).unwrap(); // out_w = 2
        assert_eq!(plan_register_tile(&two, 16), None);
        assert_eq!(tile(&two, 8), (2, 5));
        let three = ConvSpec::new(3, 7, 7, 64, 5, 5, 1, 1).unwrap(); // out_w = 3
        assert_eq!(plan_register_tile(&three, 16), None);
        assert_eq!(tile(&three, 8), (2, 5));
        let four = ConvSpec::square(8, 64, 64, 5, 1); // CIFAR-10 L1: out_w = 4
        assert_eq!(tile(&four, 16), (4, 4));
        let one = ConvSpec::new(1, 3, 3, 64, 3, 3, 1, 1).unwrap(); // out_w = 1
        assert_eq!(plan_register_tile(&one, 8), None);
        assert_eq!(plan_register_tile(&one, 16), None);
    }
}
