//! Unfold + GEMM plan checks: operand dimension consistency, the image
//! operand's gathers and the fold's scatters inside their tensors, and the
//! disjointness / coverage proof for Parallel-GEMM's row-band split.

use crate::error::{Buf, CheckError};
use crate::interval::Span;
use crate::Interp;
use spg_convnet::unfold::stages_tap_rows;
use spg_convnet::ConvSpec;

/// The row bands `parallel_gemm_slice` assigns to its workers for an `m`-row
/// output and `threads` requested workers: `workers = threads.min(m)` bands of
/// `ceil(m / workers)` rows, the last one truncated. Public so property tests
/// can mutate the bands and feed them back through [`verify_row_bands`].
#[must_use]
pub fn row_bands(m: usize, threads: usize) -> Vec<(usize, usize)> {
    if m == 0 || threads == 0 {
        return Vec::new();
    }
    let workers = threads.min(m);
    let band = m.div_ceil(workers);
    (0..workers)
        .map(|w| {
            let row0 = (w * band).min(m);
            (row0, ((w + 1) * band).min(m))
        })
        .filter(|(lo, hi)| lo < hi)
        .collect()
}

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
    if threads == 0 {
        return Err(CheckError::PlanShapeMismatch {
            context: "unfold GEMM forward worker count",
            expected: 1,
            found: 0,
        });
    }
    let patches = spec.out_h() * spec.out_w();
    let patch_len = spec.weight_shape().per_feature();
    let nf = spec.features();
    // C = W (nf x patch_len) * U^T (patch_len x patches), row bands over
    // C; each band gathers all of U^T from the input.
    let in_len = spec.input_shape().len();
    interp.access(Buf::Input, "forward image operand gather", patch_span(spec), in_len)?;
    let (m, n, k) = (nf, patches, patch_len);
    check_gemm_dims(
        interp,
        "forward unfold GEMM operands",
        (m, n, k),
        Operand { buf: Buf::Weights, len: spec.weight_shape().len(), ld: k },
        Operand { buf: Buf::Output, len: spec.output_shape().len(), ld: n },
    )?;
    if threads > 1 {
        let bands = row_bands(m, threads);
        check_row_bands(interp, Buf::Output, "forward Parallel-GEMM row bands", m, n, &bands)?;
        // Each worker reads the matching A band: rows [row0, row1) of W.
        for &(row0, row1) in &bands {
            let span = Span::range(row0 * k, row1 * k);
            interp.access(Buf::Weights, "forward band weight rows", span, nf * k)?;
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
    if threads == 0 {
        return Err(CheckError::PlanShapeMismatch {
            context: "unfold GEMM backward worker count",
            expected: 1,
            found: 0,
        });
    }
    let patches = spec.out_h() * spec.out_w();
    let patch_len = spec.weight_shape().per_feature();
    let nf = spec.features();
    let w_len = spec.weight_shape().len();
    let out_len = spec.output_shape().len();
    let in_len = spec.input_shape().len();

    // Backward-data: E_U^T (patch_len x patches) = W^T * E_O, or on
    // outputs of few positions E_U = E_O^T * W, computed as A^T B with A
    // and B both read in place: prove the operand extents the transposed
    // kernel reads, and the staged gradient's row bands (each band reads
    // its columns of A) when the plan splits.
    let staged = patch_len * patches;
    interp.capacity(Buf::MatB, "backward-data E_U staging", staged, cap.mat_b)?;
    interp.access(Buf::Weights, "backward-data weight read", Span::iter(nf * patch_len), w_len)?;
    interp.access(Buf::GradOut, "backward-data E_O read", Span::iter(nf * patches), out_len)?;
    interp.proved(1);
    if threads > 1 {
        let (m, n) =
            if stages_tap_rows(spec) { (patch_len, patches) } else { (patches, patch_len) };
        let bands = row_bands(m, threads);
        check_row_bands(interp, Buf::MatB, "backward-data Parallel-GEMM row bands", m, n, &bands)?;
    }
    // The row fold scatters the staged gradient back into CHW grad_in
    // along the patch geometry, a channel's taps into its plane alone.
    interp.access(Buf::GradIn, "backward-data fold scatter", patch_span(spec), in_len)?;

    // Backward-weights: dW (nf x patch_len) = E_O (nf x patches) * U, U
    // gathered from the input.
    interp.access(Buf::Input, "backward-weights image operand gather", patch_span(spec), in_len)?;
    let (m, n, k) = (nf, patch_len, patches);
    check_gemm_dims(
        interp,
        "backward-weights unfold GEMM operands",
        (m, n, k),
        Operand { buf: Buf::GradOut, len: out_len, ld: k },
        Operand { buf: Buf::GradWeights, len: w_len, ld: n },
    )?;
    if threads > 1 {
        let bands = row_bands(m, threads);
        check_row_bands(
            interp,
            Buf::GradWeights,
            "backward-weights Parallel-GEMM row bands",
            m,
            n,
            &bands,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_partition_rows_exactly() {
        for m in [1usize, 5, 6, 7, 64, 1000] {
            for threads in [1usize, 2, 3, 4, 7, 64] {
                let bands = row_bands(m, threads);
                let mut interp = Interp::default();
                check_row_bands(&mut interp, Buf::Output, "test bands", m, 3, &bands)
                    .unwrap_or_else(|e| panic!("m={m} threads={threads}: {e}"));
                assert!(bands.len() <= threads.min(m));
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
