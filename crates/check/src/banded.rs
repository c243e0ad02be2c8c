//! Verification of banded (hybrid intra-layer) forward decompositions.
//!
//! A [`ForwardPlan::StencilBanded`] plan splits one output dimension —
//! rows, columns, or features — into contiguous per-worker bands, each of
//! which runs the wide register-tiled stencil on a restricted sub-spec
//! (Jia et al.'s spatial/channel parallelism applied per layer). The
//! judgments here are:
//!
//! * the bands **disjointly cover** the split extent (race-free, complete);
//! * every band's sub-spec is **exactly the restriction** of the parent
//!   spec to its range (re-derived here, never trusted);
//! * the band's staged input/output slices are **in-bounds** in the parent
//!   tensors and **within the parent scratch envelope**;
//! * each band's inner plan is the **wide tiled stencil** (the narrow
//!   shifted-GEMM path accumulates in a different order and would break
//!   the banded path's bit-identity contract) and itself verifies against
//!   the band's own reserved scratch capacity.

use crate::capacity::ScratchCapacity;
use crate::error::{Buf, CheckError};
use crate::gemm::check_row_bands;
use crate::interval::Span;
use crate::plan::{BandDim, BandPlan, ForwardPlan};
use crate::{stencil, Interp};
use spg_convnet::ConvSpec;

/// The split extent of `spec` along `dim`, in the dimension's own units.
pub(crate) fn band_extent(spec: &ConvSpec, dim: BandDim) -> usize {
    match dim {
        BandDim::YRows => spec.out_h(),
        BandDim::XCols => spec.out_w(),
        BandDim::OutChannels => spec.features(),
    }
}

/// Re-derives the sub-spec a band `[lo, hi)` of `spec` along `dim` must
/// execute: the restriction of the convolution to that output range. The
/// input extent of a spatial band is the exact stencil footprint
/// `(len - 1) * stride + kernel`. Public so planners lower the very
/// restriction the checker re-derives instead of a reconstruction of it.
pub fn band_sub_spec(
    spec: &ConvSpec,
    dim: BandDim,
    lo: usize,
    hi: usize,
) -> Result<ConvSpec, CheckError> {
    let len = hi - lo;
    let derived = match dim {
        BandDim::YRows => ConvSpec::new(
            spec.in_c(),
            (len - 1) * spec.sy() + spec.ky(),
            spec.in_w(),
            spec.features(),
            spec.ky(),
            spec.kx(),
            spec.sy(),
            spec.sx(),
        ),
        BandDim::XCols => ConvSpec::new(
            spec.in_c(),
            spec.in_h(),
            (len - 1) * spec.sx() + spec.kx(),
            spec.features(),
            spec.ky(),
            spec.kx(),
            spec.sy(),
            spec.sx(),
        ),
        BandDim::OutChannels => ConvSpec::new(
            spec.in_c(),
            spec.in_h(),
            spec.in_w(),
            len,
            spec.ky(),
            spec.kx(),
            spec.sy(),
            spec.sx(),
        ),
    };
    derived.map_err(|_| CheckError::PlanShapeMismatch {
        context: "banded stencil band restriction is not a valid convolution",
        expected: 1,
        found: 0,
    })
}

/// Compares a claimed band sub-spec against the re-derived restriction,
/// field by field, so a mismatch names the offending dimension.
fn check_sub_spec(
    interp: &mut Interp,
    claimed: &ConvSpec,
    expected: &ConvSpec,
) -> Result<(), CheckError> {
    let fields: [(&'static str, usize, usize); 8] = [
        ("band sub-spec input channels", expected.in_c(), claimed.in_c()),
        ("band sub-spec input height", expected.in_h(), claimed.in_h()),
        ("band sub-spec input width", expected.in_w(), claimed.in_w()),
        ("band sub-spec features", expected.features(), claimed.features()),
        ("band sub-spec kernel height", expected.ky(), claimed.ky()),
        ("band sub-spec kernel width", expected.kx(), claimed.kx()),
        ("band sub-spec y stride", expected.sy(), claimed.sy()),
        ("band sub-spec x stride", expected.sx(), claimed.sx()),
    ];
    for (context, expected, found) in fields {
        if found != expected {
            return Err(CheckError::PlanShapeMismatch { context, expected, found });
        }
    }
    interp.proved(fields.len());
    Ok(())
}

/// Verifies a [`ForwardPlan::StencilBanded`] decomposition of `spec`.
#[allow(clippy::too_many_lines)]
pub(crate) fn check_forward_banded(
    interp: &mut Interp,
    spec: &ConvSpec,
    dim: BandDim,
    bands: &[BandPlan],
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
    for band in bands {
        let (lo, hi) = band.range;
        if hi <= lo {
            return Err(CheckError::PlanShapeMismatch {
                context: "banded stencil band range must be non-empty",
                expected: lo + 1,
                found: hi,
            });
        }
    }

    // Disjoint-cover proof over the split extent (unit stride: the ranges
    // are in output rows / columns / features directly).
    let extent = band_extent(spec, dim);
    let cover_context = match dim {
        BandDim::YRows => "banded stencil y-band output rows",
        BandDim::XCols => "banded stencil x-band output columns",
        BandDim::OutChannels => "banded stencil out-channel feature slices",
    };
    let ranges: Vec<(usize, usize)> = bands.iter().map(|b| b.range).collect();
    check_row_bands(interp, Buf::Output, cover_context, extent, 1, &ranges)?;

    for band in bands {
        let (lo, hi) = band.range;
        let expected = band_sub_spec(spec, dim, lo, hi)?;
        check_sub_spec(interp, &band.spec, &expected)?;

        match dim {
            BandDim::YRows => {
                // The worker stages input rows [lo*sy, lo*sy + in_h') of
                // every channel; prove the slice inside the parent input
                // and the staging buffers within the parent envelope.
                let row_lo = lo * spec.sy();
                interp.access(
                    Buf::Input,
                    "banded stencil y-band input rows",
                    Span::range(row_lo, row_lo + expected.in_h()),
                    spec.in_h(),
                )?;
                interp.capacity(
                    Buf::HwcIn,
                    "banded stencil y-band staged input",
                    expected.input_shape().len(),
                    cap.hwc_in.max(spec.input_shape().len()),
                )?;
                interp.capacity(
                    Buf::HwcOut,
                    "banded stencil y-band staged output",
                    expected.output_shape().len(),
                    cap.hwc_out.max(spec.output_shape().len()),
                )?;
            }
            BandDim::XCols => {
                let col_lo = lo * spec.sx();
                interp.access(
                    Buf::Input,
                    "banded stencil x-band input columns",
                    Span::range(col_lo, col_lo + expected.in_w()),
                    spec.in_w(),
                )?;
                interp.capacity(
                    Buf::HwcIn,
                    "banded stencil x-band staged input",
                    expected.input_shape().len(),
                    cap.hwc_in.max(spec.input_shape().len()),
                )?;
                interp.capacity(
                    Buf::HwcOut,
                    "banded stencil x-band staged output",
                    expected.output_shape().len(),
                    cap.hwc_out.max(spec.output_shape().len()),
                )?;
            }
            BandDim::OutChannels => {
                // No staging: the worker reads a weight slice and writes a
                // disjoint plane slice of the parent output directly.
                let per_feature = spec.weight_shape().per_feature();
                interp.access(
                    Buf::Weights,
                    "banded stencil out-channel weight slice",
                    Span::range(lo * per_feature, hi * per_feature),
                    spec.weight_shape().len(),
                )?;
                let plane = spec.out_h() * spec.out_w();
                interp.access(
                    Buf::Output,
                    "banded stencil out-channel output slice",
                    Span::range(lo * plane, hi * plane),
                    spec.output_shape().len(),
                )?;
            }
        }

        // Each band must run the wide tiled stencil — the narrow
        // shifted-GEMM path has a different accumulation order, and nested
        // banding would hide worker counts from the cover proof above.
        match &band.plan {
            ForwardPlan::StencilTiled { lanes, tile_rows, cache_rows, x_tiles, phased } => {
                let band_cap = ScratchCapacity::reserved_for(&band.spec);
                stencil::check_forward_tiled(
                    interp,
                    &band.spec,
                    *lanes,
                    *tile_rows,
                    *cache_rows,
                    x_tiles,
                    *phased,
                    &band_cap,
                )?;
            }
            _ => {
                return Err(CheckError::PlanShapeMismatch {
                    context: "banded stencil bands must run the wide tiled kernel",
                    expected: 1,
                    found: 0,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{XTile, VECTOR_WIDTH};

    /// The segmentation lowering emits (`spg_codegen::xplan::x_plan_lanes`),
    /// restated because `spg-check` sits below `spg-codegen`.
    fn tiles_for(out_w: usize) -> Vec<XTile> {
        let mut tiles = Vec::new();
        let mut x = 0;
        while x + 2 * VECTOR_WIDTH <= out_w {
            tiles.push(XTile { x, vectors: 2 });
            x += 2 * VECTOR_WIDTH;
        }
        while x + VECTOR_WIDTH <= out_w {
            tiles.push(XTile { x, vectors: 1 });
            x += VECTOR_WIDTH;
        }
        if x < out_w {
            tiles.push(XTile { x: out_w - VECTOR_WIDTH, vectors: 1 });
        }
        tiles
    }

    fn tiled_plan(spec: &ConvSpec) -> ForwardPlan {
        ForwardPlan::StencilTiled {
            lanes: VECTOR_WIDTH,
            tile_rows: 6,
            cache_rows: 6,
            x_tiles: tiles_for(spec.out_w()),
            phased: spec.sx() > 1,
        }
    }

    fn banded(spec: &ConvSpec, dim: BandDim, ranges: &[(usize, usize)]) -> ForwardPlan {
        let bands = ranges
            .iter()
            .map(|&(lo, hi)| {
                let sub = band_sub_spec(spec, dim, lo, hi).unwrap();
                BandPlan { range: (lo, hi), spec: sub, plan: tiled_plan(&sub) }
            })
            .collect();
        ForwardPlan::StencilBanded { dim, bands }
    }

    fn check(spec: &ConvSpec, plan: &ForwardPlan) -> Result<(), CheckError> {
        let mut interp = Interp::default();
        let cap = ScratchCapacity::reserved_for(spec);
        match plan {
            ForwardPlan::StencilBanded { dim, bands } => {
                check_forward_banded(&mut interp, spec, *dim, bands, &cap)
            }
            _ => panic!("test expects a banded plan"),
        }
    }

    #[test]
    fn valid_bands_verify_on_all_dims() {
        let spec = ConvSpec::square(34, 16, 4, 3, 1); // 32x32 output
        check(&spec, &banded(&spec, BandDim::YRows, &[(0, 16), (16, 32)])).unwrap();
        check(&spec, &banded(&spec, BandDim::XCols, &[(0, 16), (16, 32)])).unwrap();
        check(&spec, &banded(&spec, BandDim::OutChannels, &[(0, 8), (8, 16)])).unwrap();
    }

    #[test]
    fn strided_bands_verify() {
        // Stride 2 in both dimensions: the sub-spec footprint math must
        // account for the stride and the kernel tail.
        let spec = ConvSpec::square(69, 8, 3, 7, 2); // 32x32 output
        check(&spec, &banded(&spec, BandDim::YRows, &[(0, 11), (11, 22), (22, 32)])).unwrap();
        check(&spec, &banded(&spec, BandDim::XCols, &[(0, 16), (16, 32)])).unwrap();
    }

    #[test]
    fn single_band_rejected() {
        let spec = ConvSpec::square(34, 16, 4, 3, 1);
        let err = check(&spec, &banded(&spec, BandDim::YRows, &[(0, 32)])).unwrap_err();
        assert!(matches!(err, CheckError::PlanShapeMismatch { expected: 2, found: 1, .. }));
    }

    #[test]
    fn wrong_sub_spec_rejected() {
        let spec = ConvSpec::square(34, 16, 4, 3, 1);
        let mut plan = banded(&spec, BandDim::YRows, &[(0, 16), (16, 32)]);
        if let ForwardPlan::StencilBanded { bands, .. } = &mut plan {
            // Claim a taller sub-spec than the band's restriction admits.
            bands[0].spec = band_sub_spec(&spec, BandDim::YRows, 0, 20).unwrap();
        }
        let err = check(&spec, &plan).unwrap_err();
        assert!(matches!(
            err,
            CheckError::PlanShapeMismatch { context: "band sub-spec input height", .. }
        ));
    }

    #[test]
    fn narrow_inner_plan_rejected() {
        let spec = ConvSpec::square(34, 16, 4, 3, 1);
        let mut plan = banded(&spec, BandDim::YRows, &[(0, 16), (16, 32)]);
        if let ForwardPlan::StencilBanded { bands, .. } = &mut plan {
            bands[1].plan = ForwardPlan::StencilNarrow;
        }
        let err = check(&spec, &plan).unwrap_err();
        assert!(matches!(
            err,
            CheckError::PlanShapeMismatch {
                context: "banded stencil bands must run the wide tiled kernel",
                ..
            }
        ));
    }

    #[test]
    fn empty_band_rejected() {
        let spec = ConvSpec::square(34, 16, 4, 3, 1);
        let sub = band_sub_spec(&spec, BandDim::YRows, 0, 16).unwrap();
        let plan = ForwardPlan::StencilBanded {
            dim: BandDim::YRows,
            bands: vec![
                BandPlan { range: (0, 16), spec: sub, plan: tiled_plan(&sub) },
                BandPlan { range: (16, 16), spec: sub, plan: tiled_plan(&sub) },
            ],
        };
        let err = check(&spec, &plan).unwrap_err();
        assert!(matches!(
            err,
            CheckError::PlanShapeMismatch {
                context: "banded stencil band range must be non-empty",
                ..
            }
        ));
    }
}
