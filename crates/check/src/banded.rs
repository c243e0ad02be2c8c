//! Verification of banded (hybrid intra-layer) forward decompositions.
//!
//! A [`ForwardPlan::StencilBanded`] plan is the layer's own wide tiled
//! stencil plan with one axis of its loop nest — output rows or features —
//! partitioned into contiguous per-worker bands (Jia et al.'s
//! spatial/channel parallelism applied per layer). A band is a range of
//! that loop nest, not a convolution of its own: every worker reads the
//! parent input and weights and writes the parent output through the one
//! kernel, with the parent's register tile. The judgments here are:
//!
//! * the **parent tiled plan verifies** — which bounds every input
//!   broadcast, weight load and store of every tile position in the
//!   layer, hence of every band;
//! * feature bands start on the tile's **feature blocks**, so every block a
//!   region sweeps lies inside the padded weight layout;
//! * the bands **disjointly cover** the split extent (race-free, complete)
//!   in **ascending order**, so that a run of consecutive bands is a
//!   contiguous range — what a call with fewer cores than bands runs as
//!   one region.

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

    let ForwardPlan::StencilTiled { lanes, tile } = *tiled else {
        return Err(CheckError::PlanShapeMismatch {
            context: "banded stencil must split the wide tiled kernel",
            expected: 1,
            found: 0,
        });
    };
    stencil::check_forward_tiled(interp, spec, lanes, tile)?;

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
    if let Some(pair) = bands.windows(2).find(|pair| pair[1].0 != pair[0].1) {
        return Err(CheckError::PlanShapeMismatch {
            context: "banded stencil bands must ascend",
            expected: pair[0].1,
            found: pair[1].0,
        });
    }
    // A region sweeps its features in whole feature blocks of the tile
    // from its first feature, reading the padded weight layout; a feature
    // band must therefore start on a block boundary, or its blocks would
    // straddle the layout's padding.
    let block = lanes * tile.nfv;
    match bands.iter().find(|&&(lo, _)| dim == BandDim::OutChannels && lo % block != 0) {
        Some(&(lo, _)) => Err(CheckError::PlanShapeMismatch {
            context: "out-channel band splits a register tile's feature block",
            expected: lo / block * block,
            found: lo,
        }),
        None => {
            interp.proved(1);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{RegisterTile, VECTOR_WIDTH};

    /// The generic instance's tile: 4 positions x 3 vectors of 8 features,
    /// feature blocks of 24.
    fn tiled_plan(_: &ConvSpec) -> ForwardPlan {
        ForwardPlan::StencilTiled { lanes: VECTOR_WIDTH, tile: RegisterTile { nx: 4, nfv: 3 } }
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
        check_forward_banded(&mut Interp::default(), spec, dim, tiled, bands)
    }

    #[test]
    fn valid_bands_verify_on_all_dims() {
        let spec = ConvSpec::square(34, 50, 4, 3, 1); // 32x32 output
        check(&spec, BandDim::YRows, &[(0, 16), (16, 32)]).unwrap();
        check(&spec, BandDim::OutChannels, &[(0, 24), (24, 50)]).unwrap();
    }

    #[test]
    fn feature_band_off_a_tile_block_rejected() {
        let spec = ConvSpec::square(34, 50, 4, 3, 1);
        let err = check(&spec, BandDim::OutChannels, &[(0, 16), (16, 50)]).unwrap_err();
        assert!(matches!(err, CheckError::PlanShapeMismatch { expected: 0, found: 16, .. }));
    }

    #[test]
    fn strided_bands_verify() {
        // Stride 2 in both dimensions: the bands read the parent's input in
        // place, proved once for the whole layer.
        let spec = ConvSpec::square(69, 60, 3, 7, 2); // 32x32 output
        check(&spec, BandDim::YRows, &[(0, 11), (11, 22), (22, 32)]).unwrap();
        check(&spec, BandDim::OutChannels, &[(0, 24), (24, 48), (48, 60)]).unwrap();
    }

    #[test]
    fn single_band_rejected() {
        let spec = ConvSpec::square(34, 16, 4, 3, 1);
        let err = check(&spec, BandDim::YRows, &[(0, 32)]).unwrap_err();
        assert!(matches!(err, CheckError::PlanShapeMismatch { expected: 2, found: 1, .. }));
    }

    #[test]
    fn non_tiled_parent_plan_rejected() {
        let spec = ConvSpec::square(34, 16, 4, 3, 1);
        let bands = [(0, 16), (16, 32)];
        let gemm = ForwardPlan::UnfoldGemm { threads: 2 };
        let err = check_with(&spec, BandDim::YRows, &gemm, &bands).unwrap_err();
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
