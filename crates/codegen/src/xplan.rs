//! The `x` tile segmentation and the tiled-stencil plan built on it.
//!
//! One function segments an output row for every lane width (8-lane AVX2,
//! 16-lane AVX-512): double-width tiles while they fit, then single
//! vectors, then one overlapping single-vector tail for ragged widths.
//! It is called when a plan is lowered, never when one runs — the kernels
//! iterate the tile list `spg-check` proved.

use spg_check::{ForwardPlan, XTile};
use spg_convnet::ConvSpec;

use crate::TILE_ROWS;

/// `x` tile plan covering `0..out_w` with `lanes`-wide vectors: two-vector
/// tiles while they fit, then one-vector tiles, then one overlapping
/// one-vector tail.
///
/// # Panics
///
/// Panics if `lanes == 0` or `out_w < lanes` (narrower outputs take the
/// shifted-GEMM path and have no x plan).
pub fn x_plan_lanes(out_w: usize, lanes: usize) -> Vec<XTile> {
    assert!(lanes > 0, "lane count must be positive");
    assert!(out_w >= lanes, "output row narrower than one vector");
    let mut plan = Vec::new();
    let mut x = 0;
    while x + 2 * lanes <= out_w {
        plan.push(XTile { x, vectors: 2 });
        x += 2 * lanes;
    }
    while x + lanes <= out_w {
        plan.push(XTile { x, vectors: 1 });
        x += lanes;
    }
    if x < out_w {
        plan.push(XTile { x: out_w - lanes, vectors: 1 });
    }
    plan
}

/// The wide register-tiled stencil plan for `spec` at `lanes` lanes — the
/// generic AVX2 loops at 8, a registry instance at its own width — with
/// the cache-schedule row block `cache_rows` clamped up to [`TILE_ROWS`].
/// This is what the tile loops execute once `spg-check` has proved it.
///
/// # Panics
///
/// Panics if `lanes == 0` or `spec.out_w() < lanes`.
pub fn tiled_plan(spec: &ConvSpec, lanes: usize, cache_rows: usize) -> ForwardPlan {
    ForwardPlan::StencilTiled {
        lanes,
        tile_rows: TILE_ROWS,
        cache_rows: cache_rows.max(TILE_ROWS),
        x_tiles: x_plan_lanes(spec.out_w(), lanes),
        phased: spec.sx() > 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_exactly_with_overlapping_tail() {
        for lanes in [8usize, 16] {
            for out_w in lanes..5 * lanes {
                let plan = x_plan_lanes(out_w, lanes);
                let mut covered = vec![false; out_w];
                for tile in &plan {
                    let (x, w) = (tile.x, tile.vectors * lanes);
                    assert!(x + w <= out_w, "tile escapes: x={x} w={w} out_w={out_w}");
                    for c in covered.iter_mut().skip(x).take(w) {
                        *c = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "gap at out_w={out_w} lanes={lanes}");
            }
        }
    }

    #[test]
    fn exact_multiples_have_no_tail_overlap() {
        let plan = x_plan_lanes(32, 8);
        assert_eq!(plan, vec![XTile { x: 0, vectors: 2 }, XTile { x: 16, vectors: 2 }]);
        let plan = x_plan_lanes(32, 16);
        assert_eq!(plan, vec![XTile { x: 0, vectors: 2 }]);
    }

    #[test]
    fn ragged_width_gets_an_overlapping_tail() {
        let tiles = x_plan_lanes(24, 16);
        assert_eq!(tiles.len(), 2);
        assert_eq!((tiles[0].x, tiles[0].vectors), (0, 1));
        assert_eq!((tiles[1].x, tiles[1].vectors), (8, 1));
    }

    #[test]
    #[should_panic(expected = "narrower")]
    fn narrow_rows_rejected() {
        x_plan_lanes(7, 8);
    }
}
