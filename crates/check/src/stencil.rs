//! Stencil forward-plan checks: the register-tiled basic block with
//! output features as vector lanes, at every stride and output width.

use crate::error::{Buf, CheckError};
use crate::interval::Span;
use crate::plan::RegisterTile;
use crate::Interp;
use spg_convnet::ConvSpec;

/// Features per tap of the feature-blocked weight layout a tiled plan
/// reads: the spec's features padded to whole feature blocks of the tile.
pub(crate) fn padded_features(spec: &ConvSpec, lanes: usize, tile: RegisterTile) -> usize {
    let block = lanes * tile.nfv;
    spec.features().div_ceil(block) * block
}

/// Verifies the register-tiled stencil forward plan.
///
/// The loop nest sweeps each output row in groups of `lanes` positions
/// (the last overlapping its predecessor so it ends at the row end; one
/// group of the whole row on rows narrower than `lanes`), each group in
/// x-blocks of `tile.nx` positions (likewise), and the output features
/// in blocks of `tile.nfv * lanes`; a group's stores go to its consecutive
/// positions of each feature's plane. Symbolically evaluates every access
/// expression a tile executes and proves them in-bounds: the input
/// broadcasts `(c*H + y*sy + ky)*W + x*sx + kx` for every position of
/// every x-block and every tap (the stride is a broadcast offset, so the
/// input is read in place), the weight vector loads
/// `((c*Fy + ky)*Fx + kx)*Fp + fb + v*lanes + lane` inside the padded
/// feature-blocked layout, and the output stores `(f*OH + y)*OW + x`; and
/// proves the tile within its instruction set's register file.
pub(crate) fn check_forward_tiled(
    interp: &mut Interp,
    spec: &ConvSpec,
    lanes: usize,
    tile: RegisterTile,
) -> Result<(), CheckError> {
    crate::plan::check_register_tile(interp, spec, lanes, tile)?;
    let (out_h, out_w) = (spec.out_h(), spec.out_w());
    let (nc, in_h, in_w) = (spec.in_c(), spec.in_h(), spec.in_w());
    let (fy, fx, nf) = (spec.ky(), spec.kx(), spec.features());

    // Output positions an x-block reads and writes: block starts range over
    // 0..=out_w - nx (the overlapping last block included), plus the
    // in-block offsets.
    let positions = Span::iter(out_w - tile.nx + 1).plus(Span::iter(tile.nx));
    interp.access(Buf::Output, "stencil x-block positions", positions, out_w)?;

    // Input broadcasts: row y*sy + ky, column x*sx + kx.
    let rows = Span::iter(out_h).scale(spec.sy()).plus(Span::iter(fy));
    interp.access(Buf::Input, "stencil input row range", rows, in_h)?;
    let cols = positions.scale(spec.sx()).plus(Span::iter(fx));
    interp.access(Buf::Input, "stencil input column range", cols, in_w)?;
    let flat = Span::iter(nc).scale(in_h).plus(rows).scale(in_w).plus(cols);
    interp.access(Buf::Input, "stencil input broadcast", flat, spec.input_shape().len())?;

    // Weight vectors: feature blocks start at multiples of the block below
    // the padded feature count, each reading nfv whole vectors.
    let block = lanes * tile.nfv;
    let padded = padded_features(spec, lanes, tile);
    let features = Span::iter(padded / block)
        .scale(block)
        .plus(Span::iter(tile.nfv).scale(lanes))
        .plus(Span::iter(lanes));
    interp.access(Buf::Weights, "stencil feature-block weight lanes", features, padded)?;
    let taps = Span::iter(nc).scale(fy).plus(Span::iter(fy)).scale(fx).plus(Span::iter(fx));
    let w_span = taps.scale(padded).plus(features);
    interp.access(Buf::Weights, "stencil weight vector load", w_span, nc * fy * fx * padded)?;

    // Output stores: only features below nf (padding lanes are dropped).
    let out_span =
        Span::iter(nf).scale(out_h * out_w).plus(Span::iter(out_h).scale(out_w)).plus(positions);
    interp.access(Buf::Output, "stencil output store", out_span, spec.output_shape().len())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(spec: &ConvSpec, lanes: usize, tile: RegisterTile) -> Result<(), CheckError> {
        check_forward_tiled(&mut Interp::default(), spec, lanes, tile)
    }

    #[test]
    fn tiled_plans_verify_at_both_lane_widths_and_strides() {
        for spec in [
            ConvSpec::square(32, 16, 8, 5, 1),
            ConvSpec::square(64, 4, 2, 3, 2),
            ConvSpec::square(79, 40, 2, 7, 2), // 37x37: ragged last x-block
            ConvSpec::square(224, 96, 3, 11, 4),
        ] {
            check(&spec, 8, RegisterTile { nx: 4, nfv: 3 }).unwrap();
            check(&spec, 16, RegisterTile { nx: 4, nfv: 6 }).unwrap();
            check(&spec, 16, RegisterTile { nx: spec.out_w().min(16), nfv: 1 }).unwrap();
        }
    }

    #[test]
    fn padding_rounds_features_up_to_whole_tile_blocks() {
        let spec = ConvSpec::square(262, 120, 3, 7, 2);
        assert_eq!(padded_features(&spec, 16, RegisterTile { nx: 4, nfv: 4 }), 128);
        assert_eq!(padded_features(&spec, 16, RegisterTile { nx: 8, nfv: 3 }), 144);
        assert_eq!(padded_features(&spec, 8, RegisterTile { nx: 8, nfv: 1 }), 120);
    }

    #[test]
    fn tile_over_the_register_file_rejected() {
        let spec = ConvSpec::square(32, 16, 8, 5, 1);
        let err = check(&spec, 8, RegisterTile { nx: 4, nfv: 4 }).unwrap_err();
        assert!(matches!(err, CheckError::BudgetExceeded { budget: 16, .. }));
    }

    #[test]
    fn tile_wider_than_the_row_rejected() {
        let spec = ConvSpec::square(12, 4, 2, 3, 1); // 10-wide rows
        let err = check(&spec, 16, RegisterTile { nx: 12, nfv: 1 }).unwrap_err();
        assert!(matches!(err, CheckError::PlanShapeMismatch { expected: 10, found: 12, .. }));
    }
}
