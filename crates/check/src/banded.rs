//! Verification of banded (hybrid intra-layer) forward decompositions.
//!
//! A [`ForwardPlan::StencilBanded`] plan is the layer's own wide tiled
//! stencil plan with one axis of its loop nest — output rows or features —
//! partitioned into contiguous per-worker bands (Jia et al.'s
//! spatial/channel parallelism applied per layer). A band is a range of
//! that loop nest, not a convolution of its own: every worker reads the
//! parent input and weights and writes the parent output through the one
//! kernel, over the parent's x-tiles. The judgments here are:
//!
//! * the **parent tiled plan verifies** — which bounds every load, weight
//!   broadcast and store of every tile position in the layer, hence of
//!   every band (the narrow shifted-GEMM path accumulates in a different
//!   order and cannot be banded);
//! * the bands **disjointly cover** the split extent (race-free, complete)
//!   in **ascending order**, so that a run of consecutive bands is a
//!   contiguous range — what a call with fewer cores than bands runs as
//!   one region.

use crate::capacity::ScratchCapacity;
use crate::error::{Buf, CheckError};
use crate::gemm::check_row_bands;
use crate::plan::{BandDim, ForwardPlan};
use crate::{stencil, Interp};
use spg_convnet::ConvSpec;

/// Verifies a [`ForwardPlan::StencilBanded`] decomposition of `spec`.
pub(crate) fn check_forward_banded(
    interp: &mut Interp,
    spec: &ConvSpec,
    dim: BandDim,
    tiled: &ForwardPlan,
    bands: &[(usize, usize)],
    cap: &ScratchCapacity,
) -> Result<(), CheckError> {
    if bands.len() < 2 {
        // A one-band "decomposition" is the sequential plan wearing a
        // costume; planners must emit the plain tiled plan instead.
        return Err(CheckError::PlanShapeMismatch {
            context: "banded stencil requires at least two worker bands",
            expected: 2,
            found: bands.len(),
        });
    }
    for &(lo, hi) in bands {
        if hi <= lo {
            return Err(CheckError::PlanShapeMismatch {
                context: "banded stencil band range must be non-empty",
                expected: lo + 1,
                found: hi,
            });
        }
    }

    let ForwardPlan::StencilTiled { lanes, tile_rows, cache_rows, x_tiles, phased } = tiled else {
        return Err(CheckError::PlanShapeMismatch {
            context: "banded stencil must split the wide tiled kernel",
            expected: 1,
            found: 0,
        });
    };
    stencil::check_forward_tiled(
        interp,
        spec,
        *lanes,
        *tile_rows,
        *cache_rows,
        x_tiles,
        *phased,
        cap,
    )?;

    // Disjoint-cover proof over the split extent (unit stride: the ranges
    // are in output rows / features directly).
    let (extent, cover_context) = match dim {
        BandDim::YRows => (spec.out_h(), "banded stencil y-band output rows"),
        BandDim::OutChannels => (spec.features(), "banded stencil out-channel feature slices"),
    };
    check_row_bands(interp, Buf::Output, cover_context, extent, 1, bands)?;
    // A call with fewer cores than bands runs consecutive bands as one
    // region (`VerifiedTiled::regions`), so list order must be range
    // order: in a disjoint cover, each band starting where the last ended.
    match bands.windows(2).find(|pair| pair[1].0 != pair[0].1) {
        Some(pair) => Err(CheckError::PlanShapeMismatch {
            context: "banded stencil bands must ascend",
            expected: pair[0].1,
            found: pair[1].0,
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{XTile, VECTOR_WIDTH};

    /// A 32-wide row as lowering segments it: two 2-vector tiles.
    fn tiled_plan(spec: &ConvSpec) -> ForwardPlan {
        assert_eq!(spec.out_w(), 32);
        ForwardPlan::StencilTiled {
            lanes: VECTOR_WIDTH,
            tile_rows: 6,
            cache_rows: 6,
            x_tiles: vec![XTile { x: 0, vectors: 2 }, XTile { x: 16, vectors: 2 }],
            phased: spec.sx() > 1,
        }
    }

    fn check(spec: &ConvSpec, dim: BandDim, bands: &[(usize, usize)]) -> Result<(), CheckError> {
        check_with(spec, dim, &tiled_plan(spec), bands)
    }

    fn check_with(
        spec: &ConvSpec,
        dim: BandDim,
        tiled: &ForwardPlan,
        bands: &[(usize, usize)],
    ) -> Result<(), CheckError> {
        let cap = ScratchCapacity::reserved_for(spec);
        check_forward_banded(&mut Interp::default(), spec, dim, tiled, bands, &cap)
    }

    #[test]
    fn valid_bands_verify_on_all_dims() {
        let spec = ConvSpec::square(34, 16, 4, 3, 1); // 32x32 output
        check(&spec, BandDim::YRows, &[(0, 16), (16, 32)]).unwrap();
        check(&spec, BandDim::OutChannels, &[(0, 8), (8, 16)]).unwrap();
    }

    #[test]
    fn strided_bands_verify() {
        // Stride 2 in both dimensions: the bands index the parent's
        // phase-transformed staging, proved once for the whole layer.
        let spec = ConvSpec::square(69, 8, 3, 7, 2); // 32x32 output
        check(&spec, BandDim::YRows, &[(0, 11), (11, 22), (22, 32)]).unwrap();
        check(&spec, BandDim::OutChannels, &[(0, 3), (3, 6), (6, 8)]).unwrap();
    }

    #[test]
    fn single_band_rejected() {
        let spec = ConvSpec::square(34, 16, 4, 3, 1);
        let err = check(&spec, BandDim::YRows, &[(0, 32)]).unwrap_err();
        assert!(matches!(err, CheckError::PlanShapeMismatch { expected: 2, found: 1, .. }));
    }

    #[test]
    fn narrow_parent_plan_rejected() {
        let spec = ConvSpec::square(34, 16, 4, 3, 1);
        let bands = [(0, 16), (16, 32)];
        let err =
            check_with(&spec, BandDim::YRows, &ForwardPlan::StencilNarrow, &bands).unwrap_err();
        assert!(matches!(
            err,
            CheckError::PlanShapeMismatch {
                context: "banded stencil must split the wide tiled kernel",
                ..
            }
        ));
    }

    #[test]
    fn descending_bands_rejected() {
        // A disjoint cover in the wrong order: merging neighbours in the
        // list would not be merging neighbours in the output.
        let spec = ConvSpec::square(34, 16, 4, 3, 1);
        let err = check(&spec, BandDim::YRows, &[(16, 32), (0, 16)]).unwrap_err();
        assert!(matches!(
            err,
            CheckError::PlanShapeMismatch { context: "banded stencil bands must ascend", .. }
        ));
    }

    #[test]
    fn empty_band_rejected() {
        let spec = ConvSpec::square(34, 16, 4, 3, 1);
        let err = check(&spec, BandDim::YRows, &[(0, 16), (16, 16)]).unwrap_err();
        assert!(matches!(
            err,
            CheckError::PlanShapeMismatch {
                context: "banded stencil band range must be non-empty",
                ..
            }
        ));
    }
}
