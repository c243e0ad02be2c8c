//! Stencil forward-plan checks: the register-tiled basic block over wide rows
//! (including the Eq. 21 phase-transformed strided variant) and the narrow
//! gather + GEMM fallback.

use crate::error::{Buf, CheckError};
use crate::interval::Span;
use crate::plan::{XTile, ACCUMULATOR_BUDGET};
use crate::Interp;
use spg_convnet::ConvSpec;

/// Verifies the register-tiled stencil forward plan.
///
/// Symbolically evaluates every access expression the generated basic block
/// executes — input loads `(c*H + y*sy + iy)*W + x + kx + v*lanes + lane`,
/// weight broadcasts `(f*Nc + c)*FyFx + ky*Fx + kx`, and output stores — and
/// proves them in-bounds; additionally proves the x-tile list covers the whole
/// output row, the accumulator budget holds, and (for `phased` plans) the
/// phase-transformed staging fits scratch and every load stays inside its
/// `(c, h)` row group.
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_forward_tiled(
    interp: &mut Interp,
    spec: &ConvSpec,
    lanes: usize,
    tile_rows: usize,
    cache_rows: usize,
    x_tiles: &[XTile],
    phased: bool,
    cap: &crate::ScratchCapacity,
) -> Result<(), CheckError> {
    let out_w = spec.out_w();
    let out_h = spec.out_h();
    let (nc, in_h, in_w) = (spec.in_c(), spec.in_h(), spec.in_w());
    let (fy, fx, nf) = (spec.ky(), spec.kx(), spec.features());
    if lanes == 0 || tile_rows == 0 || cache_rows == 0 {
        return Err(CheckError::PlanShapeMismatch {
            context: "tiled stencil lane/row counts must be positive",
            expected: 1,
            found: 0,
        });
    }
    if out_w < lanes {
        return Err(CheckError::PlanShapeMismatch {
            context: "tiled stencil requires a full vector of output columns",
            expected: lanes,
            found: out_w,
        });
    }
    if cache_rows < tile_rows {
        return Err(CheckError::PlanShapeMismatch {
            context: "cache tile shorter than the basic block it wraps",
            expected: tile_rows,
            found: cache_rows,
        });
    }
    if phased != (spec.sx() > 1) {
        return Err(CheckError::PlanShapeMismatch {
            context: "phase transform must be applied exactly when sx > 1",
            expected: usize::from(spec.sx() > 1),
            found: usize::from(phased),
        });
    }

    // The basic block keeps tile_rows x vectors accumulators live.
    let max_vectors = x_tiles.iter().map(|t| t.vectors).max().unwrap_or(0);
    let accumulators = tile_rows * max_vectors;
    if accumulators > ACCUMULATOR_BUDGET {
        return Err(CheckError::BudgetExceeded {
            context: "stencil basic-block accumulators",
            used: accumulators,
            budget: ACCUMULATOR_BUDGET,
        });
    }

    // Per-tile output row segments: in-bounds and jointly covering 0..out_w.
    // Overlap is allowed — the trailing remainder tile intentionally rewrites
    // columns the previous tile already produced (same values, same worker).
    let mut segments: Vec<Span> = Vec::with_capacity(x_tiles.len());
    for tile in x_tiles {
        if tile.vectors == 0 || tile.vectors > 2 {
            return Err(CheckError::PlanShapeMismatch {
                context: "x-tile vector count must be 1 or 2",
                expected: 2,
                found: tile.vectors,
            });
        }
        let seg = Span::range(tile.x, tile.x + tile.vectors * lanes);
        if seg.hi > out_w {
            return Err(CheckError::OutOfBounds {
                buffer: Buf::Output,
                context: "stencil x-tile row segment",
                lo: seg.lo,
                hi: seg.hi,
                len: out_w,
            });
        }
        interp.proved(1);
        segments.push(seg);
    }
    let mut sorted = segments.clone();
    sorted.sort_by_key(|s| s.lo);
    let mut next = 0usize;
    for seg in &sorted {
        if seg.lo > next {
            return Err(CheckError::IncompleteCover {
                buffer: Buf::Output,
                context: "stencil x-tile row coverage",
                missing: next,
                len: out_w,
            });
        }
        next = next.max(seg.hi);
    }
    if next < out_w {
        return Err(CheckError::IncompleteCover {
            buffer: Buf::Output,
            context: "stencil x-tile row coverage",
            missing: next,
            len: out_w,
        });
    }
    let seg_span = segments.iter().copied().fold(Span::range(0, 0), Span::hull);

    // Input rows the block touches: y*sy + iy for y a tile base and iy the
    // in-tile row; bounded by (out_h-1)*sy + fy - 1 regardless of tiling.
    let row_span = Span::iter(out_h).scale(spec.sy()).plus(Span::iter(fy));
    interp.access(Buf::Input, "stencil input row range", row_span, in_h)?;

    if phased {
        // Eq. 21 phase transform: the input is restaged as nc * in_h row
        // groups of sx phases, each ceil(in_w/sx) wide.
        let pw = in_w.div_ceil(spec.sx());
        let group = spec.sx() * pw;
        let phased_len = nc * in_h * group;
        interp.capacity(Buf::HwcIn, "phase-transformed input staging", phased_len, cap.hwc_in)?;
        // In-group offset of a load: (kx % sx)*pw + kx/sx + x + v*lanes + lane.
        let koff = (0..fx)
            .map(|kx| (kx % spec.sx()) * pw + kx / spec.sx())
            .fold(Span::range(0, 0), |acc, k| acc.hull(Span::point(k)));
        let intra = koff.plus(seg_span);
        // Row-group containment: a vector load must not run past the group
        // into the next (c, h) row's phases.
        if intra.hi > group {
            return Err(CheckError::OutOfBounds {
                buffer: Buf::HwcIn,
                context: "phased load escapes its (c, h) phase group",
                lo: intra.lo,
                hi: intra.hi,
                len: group,
            });
        }
        interp.proved(1);
        let flat = Span::iter(nc).scale(in_h).plus(row_span).scale(group).plus(intra);
        interp.access(Buf::HwcIn, "phased stencil input load", flat, phased_len)?;
    } else {
        // Unit-stride loads read fx + vectors*lanes contiguous columns per row.
        let col_span = seg_span.plus(Span::iter(fx));
        interp.access(Buf::Input, "stencil input column range", col_span, in_w)?;
        let flat = Span::iter(nc).scale(in_h).plus(row_span).scale(in_w).plus(col_span);
        interp.access(Buf::Input, "stencil input load", flat, spec.input_shape().len())?;
    }

    // Weight broadcasts: (f*nc + c)*fy*fx + ky*fx + kx.
    let w_span = Span::iter(nf)
        .scale(nc)
        .plus(Span::iter(nc))
        .scale(fy * fx)
        .plus(Span::iter(fy).scale(fx).plus(Span::iter(fx)));
    interp.access(Buf::Weights, "stencil weight broadcast", w_span, spec.weight_shape().len())?;

    // Output stores: f*oh*ow + (y + ty)*ow + segment columns.
    let out_span =
        Span::iter(nf).scale(out_h * out_w).plus(Span::iter(out_h).scale(out_w)).plus(seg_span);
    interp.access(Buf::Output, "stencil output store", out_span, spec.output_shape().len())?;
    Ok(())
}

/// Verifies the narrow-output stencil plan: per-tap gathers of `nc`-wide HWC
/// pixels into a patch block, a small GEMM against the `kkcf` weight blocks,
/// and HWC staging of both activations.
pub(crate) fn check_forward_narrow(
    interp: &mut Interp,
    spec: &ConvSpec,
    cap: &crate::ScratchCapacity,
) -> Result<(), CheckError> {
    let (nc, in_w) = (spec.in_c(), spec.in_w());
    let (fy, fx, nf) = (spec.ky(), spec.kx(), spec.features());
    let patches = spec.out_h() * spec.out_w();
    let in_len = spec.input_shape().len();
    let out_len = spec.output_shape().len();
    let w_len = spec.weight_shape().len();

    interp.capacity(Buf::HwcIn, "HWC input staging", in_len, cap.hwc_in)?;
    interp.capacity(Buf::HwcOut, "HWC output staging", patches * nf, cap.hwc_out)?;
    interp.capacity(Buf::MatA, "gathered patch block", patches * nc, cap.mat_a)?;

    // Per-tap gather: src = ((y*sy + ky)*in_w + x*sx + kx)*nc + 0..nc.
    let gather = Span::iter(spec.out_h())
        .scale(spec.sy())
        .plus(Span::iter(fy))
        .scale(in_w)
        .plus(Span::iter(spec.out_w()).scale(spec.sx()).plus(Span::iter(fx)))
        .scale(nc)
        .block(nc);
    interp.access(Buf::HwcIn, "narrow per-tap gather", gather, in_len)?;

    // kkcf weight block for tap (ky, kx): a contiguous nc*nf slab.
    let w_block = Span::iter(fy).scale(fx).plus(Span::iter(fx)).scale(nc * nf).block(nc * nf);
    interp.access(Buf::Weights, "narrow kkcf weight block", w_block, w_len)?;

    // Accumulating GEMM: gathered (patches x nc) * block (nc x nf) -> out_hwc.
    crate::gemm::check_gemm_dims(
        interp,
        "narrow stencil GEMM operands",
        (patches, nf, nc),
        crate::gemm::Operand { buf: Buf::MatA, len: patches * nc, ld: nc },
        crate::gemm::Operand { buf: Buf::Weights, len: nc * nf, ld: nf },
        crate::gemm::Operand { buf: Buf::HwcOut, len: patches * nf, ld: nf },
    )?;
    interp.access(Buf::Output, "narrow HWC-to-CHW store", Span::iter(out_len), out_len)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScratchCapacity;

    fn spec() -> ConvSpec {
        ConvSpec::square(32, 16, 8, 5, 1)
    }

    /// The segmentation lowering emits (`spg_codegen::xplan::x_plan_lanes`),
    /// restated because `spg-check` sits below `spg-codegen`.
    fn tiles_for(out_w: usize, lanes: usize) -> Vec<XTile> {
        let mut tiles = Vec::new();
        let mut x = 0;
        while x + 2 * lanes <= out_w {
            tiles.push(XTile { x, vectors: 2 });
            x += 2 * lanes;
        }
        while x + lanes <= out_w {
            tiles.push(XTile { x, vectors: 1 });
            x += lanes;
        }
        if x < out_w {
            tiles.push(XTile { x: out_w - lanes, vectors: 1 });
        }
        tiles
    }

    #[test]
    fn generated_plan_verifies() {
        let spec = spec();
        let cap = ScratchCapacity::reserved_for(&spec);
        let tiles = tiles_for(spec.out_w(), 8);
        let mut interp = Interp::default();
        check_forward_tiled(&mut interp, &spec, 8, 6, 6, &tiles, false, &cap).unwrap();
        assert!(interp.report.accesses_proved > 0);
    }

    #[test]
    fn strided_phased_plan_verifies() {
        let spec = ConvSpec::square(64, 4, 2, 3, 2);
        let cap = ScratchCapacity::reserved_for(&spec);
        let tiles = tiles_for(spec.out_w(), 8);
        let mut interp = Interp::default();
        check_forward_tiled(&mut interp, &spec, 8, 6, 6, &tiles, true, &cap).unwrap();
    }

    /// The AVX-512 registry instances in `spg-codegen` run 16-lane
    /// x-tiles; the verifier's symbolic model is lane-width-parametric, so
    /// the same plan shape proves at `lanes = 16`, including the
    /// overlapping 16-wide tail tile the x-plan emits for ragged rows.
    #[test]
    fn sixteen_lane_plan_verifies() {
        let spec = ConvSpec::square(40, 16, 8, 5, 1); // out_w = 36: 2x16 + overlap tail
        let cap = ScratchCapacity::reserved_for(&spec);
        let tiles = tiles_for(spec.out_w(), 16);
        assert!(tiles.iter().any(|t| t.x + t.vectors * 16 > 32), "tail must overlap");
        let mut interp = Interp::default();
        check_forward_tiled(&mut interp, &spec, 16, 6, 6, &tiles, false, &cap).unwrap();
        assert!(interp.report.accesses_proved > 0);
    }

    /// Same at stride 2 with the Eq. 21 phase transform — the geometry the
    /// registry's phased AVX-512 instances (e.g. 5x5/s2, 7x7/s2) execute.
    #[test]
    fn sixteen_lane_phased_plan_verifies() {
        let spec = ConvSpec::square(79, 4, 2, 3, 2); // out_w = 39
        let cap = ScratchCapacity::reserved_for(&spec);
        let tiles = tiles_for(spec.out_w(), 16);
        let mut interp = Interp::default();
        check_forward_tiled(&mut interp, &spec, 16, 6, 6, &tiles, true, &cap).unwrap();
    }

    #[test]
    fn escaping_x_tile_rejected() {
        let spec = spec();
        let cap = ScratchCapacity::reserved_for(&spec);
        let mut tiles = tiles_for(spec.out_w(), 8);
        tiles.last_mut().unwrap().x += 1; // off-by-one past the row end
        let mut interp = Interp::default();
        let err =
            check_forward_tiled(&mut interp, &spec, 8, 6, 6, &tiles, false, &cap).unwrap_err();
        assert!(matches!(
            err,
            CheckError::OutOfBounds {
                buffer: Buf::Output,
                context: "stencil x-tile row segment",
                ..
            }
        ));
    }

    #[test]
    fn gapped_x_tiles_rejected() {
        let spec = spec();
        let cap = ScratchCapacity::reserved_for(&spec);
        let mut tiles = tiles_for(spec.out_w(), 8);
        tiles.remove(0);
        let mut interp = Interp::default();
        let err =
            check_forward_tiled(&mut interp, &spec, 8, 6, 6, &tiles, false, &cap).unwrap_err();
        assert!(matches!(err, CheckError::IncompleteCover { missing: 0, .. }));
    }

    #[test]
    fn missing_phase_transform_rejected() {
        let spec = ConvSpec::square(64, 4, 2, 3, 2);
        let cap = ScratchCapacity::reserved_for(&spec);
        let tiles = tiles_for(spec.out_w(), 8);
        let mut interp = Interp::default();
        let err =
            check_forward_tiled(&mut interp, &spec, 8, 6, 6, &tiles, false, &cap).unwrap_err();
        assert!(matches!(err, CheckError::PlanShapeMismatch { expected: 1, found: 0, .. }));
    }

    #[test]
    fn undersized_phased_staging_rejected() {
        let spec = ConvSpec::square(64, 4, 2, 3, 2);
        let mut cap = ScratchCapacity::reserved_for(&spec);
        cap.hwc_in -= 1;
        let tiles = tiles_for(spec.out_w(), 8);
        let mut interp = Interp::default();
        let err = check_forward_tiled(&mut interp, &spec, 8, 6, 6, &tiles, true, &cap).unwrap_err();
        assert!(matches!(err, CheckError::ScratchOverflow { buffer: Buf::HwcIn, .. }));
    }

    #[test]
    fn narrow_plan_verifies() {
        let spec = ConvSpec::square(8, 4, 2, 3, 1); // out_w = 6 < 8
        let cap = ScratchCapacity::reserved_for(&spec);
        let mut interp = Interp::default();
        check_forward_narrow(&mut interp, &spec, &cap).unwrap();
    }
}
