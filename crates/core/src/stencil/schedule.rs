//! The stencil **schedule generator** (paper Sec. 4.3): picks cache tiles
//! for the generated basic blocks so that the input rows feeding an
//! output tile, the output tile itself, and the active weight slice fit
//! in the target cache level, and so the tile touches few enough pages to
//! sit in the TLB.
//!
//! "Locality optimizations are used to reduce TLB and cache misses.
//! Corresponding input and output are copied into contiguous memory ...
//! and then tiled so that input and output tiles fit in cache."

use std::fmt;

use spg_check::{L1_BUDGET_ELEMS, PAGE_ELEMS, TLB_BUDGET_PAGES};
use spg_convnet::ConvSpec;

/// A cache/TLB tile for the stencil loop nest: the kernel sweeps `(f, c)`
/// over output blocks of `y_tile` rows by `x_tile` columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSchedule {
    /// Output rows per tile (a multiple of the register tile height
    /// whenever the output allows it).
    pub y_tile: usize,
    /// Output columns per tile (a multiple of the vector width whenever
    /// the output allows it).
    pub x_tile: usize,
}

impl CacheSchedule {
    /// Elements of one channel's input the tile reads:
    /// `(y_tile + Fy - 1) * (x_tile + Fx - 1)` (valid for unit stride;
    /// strided convolutions read `sy`/`sx` times more rows/columns but
    /// use them once each, so the bound still holds per use).
    pub fn input_tile_elems(&self, spec: &ConvSpec) -> usize {
        (self.y_tile + spec.ky() - 1) * (self.x_tile + spec.kx() - 1)
    }

    /// Elements of one feature's output the tile writes.
    pub fn output_tile_elems(&self) -> usize {
        self.y_tile * self.x_tile
    }

    /// Total working set per `(f, c)` sweep in f32 elements.
    pub fn working_set_elems(&self, spec: &ConvSpec) -> usize {
        self.input_tile_elems(spec) + self.output_tile_elems() + spec.ky() * spec.kx()
    }

    /// Upper bound on distinct pages the tile's rows touch, assuming each
    /// tile row may straddle a page boundary.
    pub fn pages_touched(&self, spec: &ConvSpec) -> usize {
        let input_rows = self.y_tile + spec.ky() - 1;
        let row_pages = |w: usize| w / PAGE_ELEMS + 2;
        input_rows * row_pages(self.x_tile + spec.kx() - 1) / 2
            + self.y_tile * row_pages(self.x_tile) / 2
    }
}

impl fmt::Display for CacheSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} output tile", self.y_tile, self.x_tile)
    }
}

/// Chooses the largest output tile whose working set fits the L1 budget
/// and whose row count respects the TLB budget, preferring full-width
/// tiles (streaming whole rows keeps hardware prefetchers engaged) and
/// shrinking the width only when a single row group cannot fit.
///
/// # Example
///
/// ```
/// use spg_convnet::ConvSpec;
/// use spg_core::stencil::plan_cache_schedule;
///
/// // MNIST L0: 24x24 output, 5x5 kernel — whole output fits L1.
/// let spec = ConvSpec::square(28, 20, 1, 5, 1);
/// let tile = plan_cache_schedule(&spec);
/// assert_eq!(tile.x_tile, 24);
/// assert!(tile.working_set_elems(&spec) <= spg_core::stencil::L1_BUDGET_ELEMS);
/// ```
pub fn plan_cache_schedule(spec: &ConvSpec) -> CacheSchedule {
    let (out_h, out_w) = (spec.out_h(), spec.out_w());
    // Start from full width; shrink width only if even a minimal-height
    // tile overflows the budget.
    let mut x_tile = out_w;
    loop {
        let min_rows = CacheSchedule { y_tile: 1, x_tile };
        if min_rows.working_set_elems(spec) <= L1_BUDGET_ELEMS || x_tile <= 8 {
            break;
        }
        x_tile = (x_tile / 2).max(8);
    }
    // Grow height while the budget and TLB allow.
    let mut best = CacheSchedule { y_tile: 1, x_tile };
    for y_tile in 1..=out_h {
        let candidate = CacheSchedule { y_tile, x_tile };
        if candidate.working_set_elems(spec) > L1_BUDGET_ELEMS
            || candidate.pages_touched(spec) > TLB_BUDGET_PAGES
        {
            break;
        }
        best = candidate;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_outputs_get_one_tile() {
        // CIFAR L1: 4x4 output fits trivially.
        let spec = ConvSpec::square(8, 64, 64, 5, 1);
        let tile = plan_cache_schedule(&spec);
        assert_eq!((tile.y_tile, tile.x_tile), (4, 4));
    }

    #[test]
    fn budgets_are_respected() {
        for spec in [
            ConvSpec::square(256, 256, 128, 3, 1), // Table 1 ID 2
            ConvSpec::square(64, 64, 16, 11, 1),   // ID 5
            ConvSpec::square(262, 120, 3, 7, 2),   // ImageNet-22K L0
        ] {
            let tile = plan_cache_schedule(&spec);
            assert!(
                tile.working_set_elems(&spec) <= L1_BUDGET_ELEMS,
                "{spec}: {} elems",
                tile.working_set_elems(&spec)
            );
            assert!(tile.pages_touched(&spec) <= TLB_BUDGET_PAGES, "{spec}");
            assert!(tile.y_tile >= 1 && tile.x_tile >= 1);
        }
    }

    #[test]
    fn wide_outputs_shrink_width_before_giving_up() {
        // 254-wide rows with a 3x3 kernel: a full row pair exceeds no
        // budget, but several input rows do; the planner must still
        // return multiple rows by shrinking width.
        let spec = ConvSpec::square(256, 256, 128, 3, 1);
        let tile = plan_cache_schedule(&spec);
        assert!(tile.y_tile >= 2, "tile {tile}");
    }

    #[test]
    fn taller_kernels_get_shorter_tiles() {
        let small_kernel = plan_cache_schedule(&ConvSpec::square(64, 8, 4, 3, 1));
        let tall_kernel = plan_cache_schedule(&ConvSpec::square(64, 8, 4, 11, 1));
        assert!(tall_kernel.y_tile <= small_kernel.y_tile);
    }

    #[test]
    fn working_set_formula() {
        let spec = ConvSpec::square(16, 4, 2, 3, 1); // 14x14 out
        let tile = CacheSchedule { y_tile: 2, x_tile: 14 };
        assert_eq!(tile.input_tile_elems(&spec), 4 * 16);
        assert_eq!(tile.output_tile_elems(), 28);
        assert_eq!(tile.working_set_elems(&spec), 64 + 28 + 9);
    }

    #[test]
    fn display_is_readable() {
        let tile = CacheSchedule { y_tile: 6, x_tile: 32 };
        assert_eq!(tile.to_string(), "6x32 output tile");
    }
}
