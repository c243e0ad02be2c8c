//! Unfold + GEMM plan checks: operand dimension consistency, the image
//! operand's gathers and the fold's scatters inside their tensors, and the
//! disjointness / coverage proof for Parallel-GEMM's row-band split. The
//! shapes proved are `gemm_exec`'s own ([`gemm_shapes`]) and the bands are
//! [`spg_convnet::partition`]'s, the call the kernel cuts its rows with.

use crate::error::{Buf, CheckError};
use crate::interval::Span;
use crate::Interp;
use spg_convnet::gemm_exec::gemm_shapes;
use spg_convnet::ConvSpec;

/// Proves a set of half-open row bands over an `m x n` row-major buffer is a
/// race-free partition: every band in-bounds, pairwise disjoint, and jointly
/// covering all `m` rows. Public entry for tests and external auditors.
// lint: allow(test-only) mutation tests drive the shipped row-band check through it
pub fn verify_row_bands(
    buffer: Buf,
    context: &'static str,
    m: usize,
    n: usize,
    bands: &[(usize, usize)],
) -> Result<crate::CheckReport, CheckError> {
    let mut interp = Interp::default();
    check_row_bands(&mut interp, buffer, context, m, n, bands)?;
    Ok(interp.report)
}

/// Proves a set of half-open row bands over an `m x n` row-major buffer is a
/// race-free partition: every band in-bounds, pairwise disjoint, and jointly
/// covering all `m` rows. Bands are element ranges once scaled by `n`.
pub(crate) fn check_row_bands(
    interp: &mut Interp,
    buffer: Buf,
    context: &'static str,
    m: usize,
    n: usize,
    bands: &[(usize, usize)],
) -> Result<(), CheckError> {
    let len = m * n;
    let spans: Vec<Span> =
        bands.iter().map(|&(lo, hi)| Span::range(lo * n, hi.max(lo) * n)).collect();
    for (w, span) in spans.iter().enumerate() {
        if span.hi > len {
            return Err(CheckError::OutOfBounds { buffer, context, lo: span.lo, hi: span.hi, len });
        }
        for (v, other) in spans.iter().enumerate().skip(w + 1) {
            if span.overlaps(*other) {
                return Err(CheckError::OverlappingWorkers {
                    buffer,
                    context,
                    worker_a: w,
                    worker_b: v,
                    a: (span.lo, span.hi),
                    b: (other.lo, other.hi),
                });
            }
        }
    }
    // Sweep for the first uncovered element.
    let mut sorted = spans.clone();
    sorted.sort_by_key(|s| s.lo);
    let mut next = 0usize;
    for span in sorted.iter().filter(|s| !s.is_empty()) {
        if span.lo > next {
            return Err(CheckError::IncompleteCover { buffer, context, missing: next, len });
        }
        next = next.max(span.hi);
    }
    if next < len {
        return Err(CheckError::IncompleteCover { buffer, context, missing: next, len });
    }
    interp.proved(spans.len());
    interp.report.worker_regions += spans.len();
    Ok(())
}

/// The row bands an `UnfoldGemm { threads }` multiply with an `m x n`
/// output runs — band `b` is [`spg_convnet::partition`]`(m, threads.min(m),
/// b)`, the call `parallel_gemm_slice` makes — proved a race-free
/// partition of `buffer` when `threads > 1` (one thread runs the serial
/// multiply, which has no bands to prove). A plan with no workers is
/// refused.
fn check_gemm_bands(
    interp: &mut Interp,
    buffer: Buf,
    context: &'static str,
    (m, n): (usize, usize),
    threads: usize,
) -> Result<Vec<(usize, usize)>, CheckError> {
    if threads == 0 {
        return Err(CheckError::PlanShapeMismatch { context, expected: 1, found: 0 });
    }
    let parts = threads.min(m);
    let bands: Vec<_> = (0..parts)
        .map(|b| spg_convnet::partition(m, parts, b))
        .map(|rows| (rows.start, rows.end))
        .collect();
    if threads > 1 {
        check_row_bands(interp, buffer, context, m, n, &bands)?;
    }
    Ok(bands)
}

/// One GEMM operand: the buffer it lives in, its declared length, and its
/// leading dimension.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Operand {
    pub buf: Buf,
    pub len: usize,
    pub ld: usize,
}

/// Proves the dense operands of a `C += A * B` call in-bounds, `m x k` `A`
/// and `m x n` `C` (the right operand is the image, proved by its gather):
/// mirrors the kernel's own entry asserts, but at plan time, symbolically.
pub(crate) fn check_gemm_dims(
    interp: &mut Interp,
    context: &'static str,
    (m, n, k): (usize, usize, usize),
    a: Operand,
    c: Operand,
) -> Result<(), CheckError> {
    if a.ld < k {
        return Err(CheckError::PlanShapeMismatch { context, expected: k, found: a.ld });
    }
    if c.ld < n {
        return Err(CheckError::PlanShapeMismatch { context, expected: n, found: c.ld });
    }
    if m == 0 || n == 0 || k == 0 {
        // Degenerate GEMMs perform no accesses.
        interp.proved(1);
        return Ok(());
    }
    // Row i of A spans [i*lda, i*lda + k); analogous for C.
    let a_span = Span::iter(m).scale(a.ld).block(k);
    let c_span = Span::iter(m).scale(c.ld).block(n);
    for (operand, span) in [(a, a_span), (c, c_span)] {
        if span.hi > operand.len {
            return Err(CheckError::OutOfBounds {
                buffer: operand.buf,
                context,
                lo: span.lo,
                hi: span.hi,
                len: operand.len,
            });
        }
        interp.proved(1);
    }
    Ok(())
}

/// Every element of the unfold matrix as an offset into the CHW input:
/// `(c*in_h + y*sy + ky)*in_w + x*sx + kx` over every channel, position
/// and tap. The image operand gathers from exactly these offsets and the
/// row fold scatters into exactly these.
fn patch_span(spec: &ConvSpec) -> Span {
    Span::iter(spec.in_c())
        .scale(spec.in_h())
        .plus(Span::iter(spec.out_h()).scale(spec.sy()).plus(Span::iter(spec.ky())))
        .scale(spec.in_w())
        .plus(Span::iter(spec.out_w()).scale(spec.sx()).plus(Span::iter(spec.kx())))
}

/// Proves the image operand's gathers of `spec` (every element of `U`, or
/// `U^T`, packed straight from the CHW input) inside an input of
/// `input_len` elements. Public so mutation tests can shrink the input
/// under a real gather.
// lint: allow(test-only) mutation tests drive the shipped gather check through it
pub fn verify_patch_gather(
    spec: &ConvSpec,
    input_len: usize,
) -> Result<crate::CheckReport, CheckError> {
    let mut interp = Interp::default();
    interp.access(Buf::Input, "image operand gather", patch_span(spec), input_len)?;
    Ok(interp.report)
}

/// Verifies the unfold + GEMM forward plan: the image operand's gathers
/// lie inside the input, the GEMM dimensions match the spec, and (for
/// `threads > 1`) the Parallel-GEMM row-band split of the output is a
/// race-free partition.
pub(crate) fn check_forward_gemm(
    interp: &mut Interp,
    spec: &ConvSpec,
    threads: usize,
) -> Result<(), CheckError> {
    // C = W (m x k) * U^T (k x n), row bands over C; each band gathers
    // all of U^T from the input.
    let (m, n, k) = gemm_shapes(spec).forward;
    let in_len = spec.input_shape().len();
    interp.access(Buf::Input, "forward image operand gather", patch_span(spec), in_len)?;
    check_gemm_dims(
        interp,
        "forward unfold GEMM operands",
        (m, n, k),
        Operand { buf: Buf::Weights, len: spec.weight_shape().len(), ld: k },
        Operand { buf: Buf::Output, len: spec.output_shape().len(), ld: n },
    )?;
    let context = "forward Parallel-GEMM row bands";
    let bands = check_gemm_bands(interp, Buf::Output, context, (m, n), threads)?;
    if threads > 1 {
        // Each worker reads the matching A band: rows [row0, row1) of W.
        for (row0, row1) in bands {
            let span = Span::range(row0 * k, row1 * k);
            interp.access(Buf::Weights, "forward band weight rows", span, m * k)?;
        }
    }
    Ok(())
}

/// Verifies the unfold + GEMM backward plan: both the backward-data GEMM
/// (into `mat_b`, folded into `grad_in`) and the backward-weights GEMM,
/// and (for `threads > 1`) each one's row-band split of its output.
pub(crate) fn check_backward_gemm(
    interp: &mut Interp,
    spec: &ConvSpec,
    threads: usize,
    cap: &crate::ScratchCapacity,
) -> Result<(), CheckError> {
    let shapes = gemm_shapes(spec);
    let w_len = spec.weight_shape().len();
    let out_len = spec.output_shape().len();
    let in_len = spec.input_shape().len();

    // Backward-data: E_U^T (taps x positions) = W^T * E_O, or on outputs
    // of few positions E_U = E_O^T * W, computed as A^T B with A (k x m)
    // and B (k x n) both read in place: prove the operand extents the
    // transposed kernel reads, and the staged gradient's row bands (each
    // band reads its columns of A) when the plan splits.
    let (m, n, k) = shapes.backward_data;
    let (w, e_o) = ((Buf::Weights, w_len), (Buf::GradOut, out_len));
    let ((a, a_len), (b, b_len)) = if shapes.tap_rows { (w, e_o) } else { (e_o, w) };
    interp.capacity(Buf::MatB, "backward-data E_U staging", m * n, cap.mat_b)?;
    interp.access(a, "backward-data left operand read", Span::iter(k * m), a_len)?;
    interp.access(b, "backward-data right operand read", Span::iter(k * n), b_len)?;
    interp.proved(1);
    let context = "backward-data Parallel-GEMM row bands";
    check_gemm_bands(interp, Buf::MatB, context, (m, n), threads)?;
    // The row fold scatters the staged gradient back into CHW grad_in
    // along the patch geometry, a channel's taps into its plane alone.
    interp.access(Buf::GradIn, "backward-data fold scatter", patch_span(spec), in_len)?;

    // Backward-weights: dW (m x n) = E_O (m x k) * U (k x n), U gathered
    // from the input.
    interp.access(Buf::Input, "backward-weights image operand gather", patch_span(spec), in_len)?;
    let (m, n, k) = shapes.backward_weights;
    check_gemm_dims(
        interp,
        "backward-weights unfold GEMM operands",
        (m, n, k),
        Operand { buf: Buf::GradOut, len: out_len, ld: k },
        Operand { buf: Buf::GradWeights, len: w_len, ld: n },
    )?;
    let context = "backward-weights Parallel-GEMM row bands";
    check_gemm_bands(interp, Buf::GradWeights, context, (m, n), threads)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_partition_rows_exactly() {
        for m in [1usize, 5, 6, 7, 64, 1000] {
            for threads in [1usize, 2, 3, 4, 7, 64] {
                let mut interp = Interp::default();
                let bands =
                    check_gemm_bands(&mut interp, Buf::Output, "test bands", (m, 3), threads)
                        .unwrap_or_else(|e| panic!("m={m} threads={threads}: {e}"));
                check_row_bands(&mut interp, Buf::Output, "test bands", m, 3, &bands)
                    .unwrap_or_else(|e| panic!("m={m} threads={threads}: {e}"));
                assert_eq!(bands.len(), threads.min(m));
            }
        }
    }

    #[test]
    fn overlapping_bands_rejected() {
        let mut interp = Interp::default();
        let err =
            check_row_bands(&mut interp, Buf::Output, "t", 8, 2, &[(0, 5), (4, 8)]).unwrap_err();
        assert!(matches!(err, CheckError::OverlappingWorkers { worker_a: 0, worker_b: 1, .. }));
    }

    #[test]
    fn gapped_bands_rejected() {
        let mut interp = Interp::default();
        let err =
            check_row_bands(&mut interp, Buf::Output, "t", 8, 2, &[(0, 3), (4, 8)]).unwrap_err();
        assert!(matches!(err, CheckError::IncompleteCover { missing: 6, .. }));
    }

    #[test]
    fn escaping_band_rejected() {
        let mut interp = Interp::default();
        let err =
            check_row_bands(&mut interp, Buf::Output, "t", 8, 2, &[(0, 4), (4, 9)]).unwrap_err();
        assert!(matches!(err, CheckError::OutOfBounds { hi: 18, len: 16, .. }));
    }

    #[test]
    fn short_operand_rejected() {
        let mut interp = Interp::default();
        let err = check_gemm_dims(
            &mut interp,
            "t",
            (4, 4, 4),
            Operand { buf: Buf::Weights, len: 15, ld: 4 },
            Operand { buf: Buf::Output, len: 16, ld: 4 },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CheckError::OutOfBounds { buffer: Buf::Weights, hi: 16, len: 15, .. }
        ));
    }
}
