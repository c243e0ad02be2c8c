//! Sparse backward checks (Eq. 11–15), register blocked.
//!
//! Backward-weights walks each feature's non-zero gradients and gathers,
//! per non-zero and kernel row, a `kx·c`-long run of the HWC input into a
//! register block of the feature's `[ky][kx][c]` weight-gradient run.
//! Backward-data walks a column-tiled CSR of the output gradient and, per
//! non-zero row and tap, holds the `c`-long input-gradient row it shifts
//! into (Eq. 15) in registers while the row's `kkfc` weight rows stream
//! past. Every address is an affine function of the position, the tap and
//! the chunk offset — exactly what the interval domain evaluates.

use crate::error::{Buf, CheckError};
use crate::interval::Span;
use crate::plan::check_sparse_lanes;
use crate::Interp;
use spg_convnet::ConvSpec;

/// Verifies the register-blocked sparse backward plan: the register block
/// at `lanes` lanes inside its tier's register file; backward-weights' HWC
/// input staging, its `kx·c` gathers and its `[f][ky][kx][c]` accumulator
/// runs; backward-data's staging, CT-CSR tiling, Eq. 15 shifted rows and
/// `kkfc` weight-row reads. The kernels sweep each run in chunks that
/// cover it exactly, so every extent is the whole run.
pub(crate) fn check_backward_sparse(
    interp: &mut Interp,
    spec: &ConvSpec,
    tile_width: usize,
    lanes: usize,
    cap: &crate::ScratchCapacity,
) -> Result<(), CheckError> {
    if tile_width == 0 {
        return Err(CheckError::PlanShapeMismatch {
            context: "CT-CSR feature-tile width must be positive",
            expected: 1,
            found: 0,
        });
    }
    check_sparse_lanes(interp, lanes)?;
    let (nc, in_w) = (spec.in_c(), spec.in_w());
    let (fy, fx, nf) = (spec.ky(), spec.kx(), spec.features());
    let in_len = spec.input_shape().len();
    let out_len = spec.output_shape().len();
    let w_len = spec.weight_shape().len();

    // Window origin of the non-zero at (y', x'): ((y'*sy)*in_w + x'*sx)*nc,
    // shifted by kernel row ky (and, for backward-data, column kx).
    let rows = Span::iter(spec.out_h()).scale(spec.sy()).plus(Span::iter(fy)).scale(in_w);
    let cols = Span::iter(spec.out_w()).scale(spec.sx());

    // Backward-weights: the input staged in HWC, one `kx·c` run gathered
    // per non-zero and kernel row, accumulated into `[f][ky][kx][c]`.
    let run = fx * nc;
    interp.capacity(Buf::HwcIn, "dW HWC input staging", in_len, cap.hwc_in)?;
    let gather = rows.plus(cols).scale(nc).block(run);
    interp.access(Buf::HwcIn, "dW kx·c gather", gather, in_len)?;
    interp.capacity(Buf::Wperm, "[f][ky][kx][c] weight-gradient accumulator", w_len, cap.wperm)?;
    let runs = Span::iter(nf).scale(fy * run).plus(Span::iter(fy).scale(run)).block(run);
    interp.access(Buf::Wperm, "[f][ky][kx][c] accumulator runs", runs, w_len)?;

    // Backward-data: E_O in HWC (CT-CSR source), E_I accumulated in HWC.
    interp.capacity(Buf::HwcOut, "CT-CSR E_O HWC staging", out_len, cap.hwc_out)?;
    interp.capacity(Buf::HwcIn, "pointer-shift E_I accumulator", in_len, cap.hwc_in)?;

    // Column tiles cover the nf features: tile t holds columns
    // [t*tile_width, min((t+1)*tile_width, nf)) — in-bounds by construction,
    // proved here so a mutated tiling cannot smuggle a wider tile through.
    let tiles = nf.div_ceil(tile_width);
    let last_lo = (tiles - 1) * tile_width;
    if last_lo >= nf {
        return Err(CheckError::PlanShapeMismatch {
            context: "CT-CSR column tiling exceeds the feature count",
            expected: nf,
            found: last_lo,
        });
    }
    interp.access(Buf::HwcOut, "CT-CSR column-tile features", Span::iter(nf), nf)?;

    // Eq. 15: the E_I row held in registers, at
    // ((yp*sy + ky)*in_w + xp*sx + kx)*nc.
    let shift = rows.plus(cols.plus(Span::iter(fx))).scale(nc).block(nc);
    interp.access(Buf::HwcIn, "Eq. 15 shifted E_I rows", shift, in_len)?;

    // kkfc weight rows streamed past that row: ((ky*fx + kx)*nf + f)*nc.
    let w_rows = Span::iter(fy)
        .scale(fx)
        .plus(Span::iter(fx))
        .scale(nf)
        .plus(Span::iter(nf))
        .scale(nc)
        .block(nc);
    interp.access(Buf::Weights, "kkfc pointer-shift weight rows", w_rows, w_len)?;

    // Final transforms back to the caller's layouts.
    interp.access(Buf::GradIn, "E_I HWC-to-CHW store", Span::iter(in_len), in_len)?;
    interp.access(Buf::GradWeights, "dW [f][ky][kx][c]-to-fckk store", Span::iter(w_len), w_len)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScratchCapacity;

    /// The AVX-512 tier's lane width.
    const LANES: usize = 16;

    #[test]
    fn pointer_shift_plan_verifies() {
        for spec in [
            ConvSpec::square(32, 16, 8, 5, 1),
            ConvSpec::square(31, 7, 3, 3, 2),
            ConvSpec::new(3, 13, 27, 5, 2, 4, 1, 3).unwrap(),
        ] {
            let cap = ScratchCapacity::reserved_for(&spec);
            let mut interp = Interp::default();
            check_backward_sparse(&mut interp, &spec, 8, LANES, &cap)
                .unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        }
    }

    #[test]
    fn zero_tile_width_rejected() {
        let spec = ConvSpec::square(32, 16, 8, 5, 1);
        let cap = ScratchCapacity::reserved_for(&spec);
        let mut interp = Interp::default();
        let err = check_backward_sparse(&mut interp, &spec, 0, LANES, &cap).unwrap_err();
        assert!(matches!(err, CheckError::PlanShapeMismatch { found: 0, .. }));
    }

    #[test]
    fn undersized_accumulator_rejected() {
        let spec = ConvSpec::square(32, 16, 8, 5, 1);
        let mut cap = ScratchCapacity::reserved_for(&spec);
        cap.hwc_in = spec.input_shape().len() - 1;
        let mut interp = Interp::default();
        let err = check_backward_sparse(&mut interp, &spec, 8, LANES, &cap).unwrap_err();
        assert!(matches!(err, CheckError::ScratchOverflow { buffer: Buf::HwcIn, .. }));
    }

    /// Both tiers' blocks fit their register files; a lane width no tier
    /// runs has no register file to prove the block against.
    #[test]
    fn register_block_needs_a_tier() {
        let spec = ConvSpec::square(32, 16, 8, 5, 1);
        let cap = ScratchCapacity::reserved_for(&spec);
        for lanes in [8, 16] {
            check_backward_sparse(&mut Interp::default(), &spec, 8, lanes, &cap).unwrap();
        }
        for lanes in [4, 12, 32] {
            let err =
                check_backward_sparse(&mut Interp::default(), &spec, 8, lanes, &cap).unwrap_err();
            assert!(matches!(err, CheckError::PlanShapeMismatch { found, .. } if found == lanes));
        }
    }
}
