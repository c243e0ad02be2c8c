//! Verification of banded (hybrid intra-layer) forward decompositions.
//!
//! A [`ForwardPlan::StencilBanded`] plan is the layer's own wide tiled
//! stencil plan with its output rows partitioned into contiguous
//! per-worker bands (Jia et al.'s spatial parallelism applied per layer).
//! A band is a range of that loop nest, not a convolution of its own:
//! every worker reads the parent input and weights and writes rows
//! `[lo, hi)` of every output feature plane through the one kernel, with
//! the parent's register tile. The judgments here are:
//!
//! * the **parent tiled plan verifies** — which bounds every input
//!   broadcast, weight load and store of every tile position in the
//!   layer, hence of every band;
//! * the bands **disjointly cover** the output rows (race-free, complete)
//!   in **ascending order**, so that a run of consecutive bands is a
//!   contiguous range — what a call with fewer cores than bands runs as
//!   one region.

use crate::error::{Buf, CheckError};
use crate::gemm::check_row_bands;
use crate::plan::RegisterTile;
use crate::{stencil, Interp};
use spg_convnet::ConvSpec;

/// Verifies a [`ForwardPlan::StencilBanded`](crate::ForwardPlan::StencilBanded)
/// decomposition of `spec`: the tiled plan at `lanes` lanes with `tile`,
/// its output rows split over `bands`.
pub(crate) fn check_forward_banded(
    interp: &mut Interp,
    spec: &ConvSpec,
    lanes: usize,
    tile: RegisterTile,
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
    stencil::check_forward_tiled(interp, spec, lanes, tile)?;

    // Disjoint-cover proof over the output rows (unit stride: the ranges
    // are in output rows directly).
    check_row_bands(interp, Buf::Output, "banded stencil output rows", spec.out_h(), 1, bands)?;
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
    interp.proved(1);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::VECTOR_WIDTH;

    /// The generic instance's tile: 4 positions x 3 vectors of 8 features.
    const TILE: RegisterTile = RegisterTile { nx: 4, nfv: 3 };

    fn check(spec: &ConvSpec, bands: &[(usize, usize)]) -> Result<(), CheckError> {
        check_forward_banded(&mut Interp::default(), spec, VECTOR_WIDTH, TILE, bands)
    }

    #[test]
    fn valid_row_bands_verify() {
        let spec = ConvSpec::square(34, 50, 4, 3, 1); // 32x32 output
        check(&spec, &[(0, 16), (16, 32)]).unwrap();
    }

    #[test]
    fn strided_bands_verify() {
        // Stride 2 in both dimensions: the bands read the parent's input in
        // place, proved once for the whole layer.
        let spec = ConvSpec::square(69, 60, 3, 7, 2); // 32x32 output
        check(&spec, &[(0, 11), (11, 22), (22, 32)]).unwrap();
    }

    #[test]
    fn single_band_rejected() {
        let spec = ConvSpec::square(34, 16, 4, 3, 1);
        let err = check(&spec, &[(0, 32)]).unwrap_err();
        assert!(matches!(err, CheckError::PlanShapeMismatch { expected: 2, found: 1, .. }));
    }

    #[test]
    fn descending_bands_rejected() {
        // A disjoint cover in the wrong order: merging neighbours in the
        // list would not be merging neighbours in the output.
        let spec = ConvSpec::square(34, 16, 4, 3, 1);
        let err = check(&spec, &[(16, 32), (0, 16)]).unwrap_err();
        assert!(matches!(
            err,
            CheckError::PlanShapeMismatch { context: "banded stencil bands must ascend", .. }
        ));
    }

    #[test]
    fn empty_band_rejected() {
        let spec = ConvSpec::square(34, 16, 4, 3, 1);
        let err = check(&spec, &[(0, 16), (16, 16)]).unwrap_err();
        assert!(matches!(
            err,
            CheckError::PlanShapeMismatch {
                context: "banded stencil band range must be non-empty",
                ..
            }
        ));
    }
}
