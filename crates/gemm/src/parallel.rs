use spg_tensor::Matrix;

use crate::blocked::{gemm_blocked, PackA, Update};
use crate::kernels::{pack_a, RightOperand, RowMajor, Tile};
use crate::{check_dims, GemmError};

/// **Parallel-GEMM**: one matrix multiply partitioned across `threads`
/// cores by rows of the output (`C = A * B`).
///
/// This is the conventional schedule used by Caffe / TensorFlow / Torch via
/// multi-threaded BLAS. Each worker computes a contiguous row band of `C`
/// from the matching row band of `A` and the *entire* `B` — which is
/// exactly why the paper shows it scales poorly: the arithmetic per core
/// shrinks by `1/threads` while the `B` traffic per core does not, so
/// per-core arithmetic intensity falls as cores are added (Sec. 3.2).
///
/// # Errors
///
/// Returns [`GemmError::DimensionMismatch`] if `a.cols() != b.rows()`, or
/// [`GemmError::ZeroThreads`] if `threads == 0`.
///
/// # Example
///
/// ```
/// use spg_tensor::Matrix;
///
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0])?;
/// let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0])?;
/// let c = spg_gemm::parallel_gemm(&a, &b, 2)?;
/// assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn parallel_gemm(a: &Matrix, b: &Matrix, threads: usize) -> Result<Matrix, GemmError> {
    check_dims(a.rows(), a.cols(), b.rows(), b.cols())?;
    if threads == 0 {
        return Err(GemmError::ZeroThreads);
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return Ok(c);
    }
    // Recorded on the calling thread so the flops land in the caller's
    // scope; worker threads have no scope stack of their own.
    spg_telemetry::record_flops(crate::gemm_flops(m, n, k), crate::gemm_flops(m, n, k));
    let (b, packs) = (RowMajor::new(b.as_slice(), n), (&mut Vec::new(), &mut Vec::new()));
    parallel_gemm_slice(m, n, k, a.as_slice(), &b, c.as_mut_slice(), (threads, threads), packs);
    Ok(c)
}

/// Raw-slice Parallel-GEMM: accumulates `C += A * B` into caller-owned
/// storage, the rows of `C` split into `bands` contiguous row bands run on
/// at most `threads` threads.
///
/// `a` is the contiguous row-major `m x k` left operand and `c` the
/// `m x n` output; `b` is any `k x n` [`RightOperand`] — a dense
/// [`RowMajor`] matrix, or an operand packed straight from where it lives.
/// Like [`gemm_slice`] this **accumulates** and records no telemetry — the
/// workspace-threaded executors own both the zeroing and the flop
/// accounting. On one thread `a_pack` / `b_pack` are the panel-packing
/// buffers, grown on first use and reused afterwards, so a steady-state
/// call with stable shapes performs no heap allocation; with more, each
/// band packs into buffers of its own.
///
/// The partition is [`spg_sync::partition`]`(m, bands.min(m), b)` for
/// band `b`: the split `spg-check` proves disjoint and covering for an
/// `UnfoldGemm { threads: bands }` plan, from the same call. With fewer
/// threads than bands, thread `t` takes the contiguous run of whole bands
/// `partition(bands, threads, t)` as one band, so one thread is the serial
/// [`gemm_slice`] — the instructions of a plan never split at all. Every
/// element of `C` is the same `KC`-blocked chain of multiply-adds
/// whichever band holds its row (the micro-kernel accumulates each `(row,
/// column)` independently and the `k` blocks are visited in one order), so
/// the result is bit-identical for every `bands` and `threads`.
///
/// # Panics
///
/// Panics if a slice length disagrees with the given dimensions or
/// `bands` or `threads` is zero.
///
/// [`gemm_slice`]: crate::gemm_slice
#[allow(clippy::too_many_arguments)]
pub fn parallel_gemm_slice<B: RightOperand + ?Sized>(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &B,
    c: &mut [f32],
    (bands, threads): (usize, usize),
    packs: (&mut Vec<f32>, &mut Vec<f32>),
) {
    assert!(bands > 0 && threads > 0, "parallel_gemm_slice: zero threads");
    assert_eq!(a.len(), m * k, "parallel_gemm_slice: a length mismatch");
    assert_eq!(c.len(), m * n, "parallel_gemm_slice: c length mismatch");
    let (c, bands) = ((c, Update::Add), (bands, threads));
    gemm_row_bands(Tile::host(), (pack_a, k, k), (m, n, k), a, b, c, bands, packs);
}

/// The row-banded multiply behind [`parallel_gemm_slice`] and
/// [`gemm_at_b_slice`](crate::gemm_at_b_slice), over checked operands:
/// `C += op(A) * B` (or `C = op(A) * B`, as `update` says) on register
/// tile `tile`, `op(A)`'s blocks
/// packed by `pack` from `a` at leading dimension `lda`, with row `r` of
/// `op(A)` starting at `a[r * row_step..]` (`lda` for [`pack_a`], 1 for a
/// left operand stored transposed). The rows of `C` split as
/// [`parallel_gemm_slice`] documents. The first run of bands (all of them
/// at one thread) runs on the calling thread and packs into the caller's
/// `a_pack` / `b_pack`, warm from earlier calls; each other run packs into
/// buffers of its own.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_row_bands<B: RightOperand + ?Sized>(
    tile: Tile,
    (pack, lda, row_step): (PackA, usize, usize),
    (m, n, k): (usize, usize, usize),
    a: &[f32],
    b: &B,
    (c, update): (&mut [f32], Update),
    (bands, threads): (usize, usize),
    (a_pack, b_pack): (&mut Vec<f32>, &mut Vec<f32>),
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if update == Update::Store {
            c.fill(0.0);
        }
        return;
    }
    let run = |rows, a, c: &mut [f32], a_pack: &mut _, b_pack: &mut _| {
        gemm_blocked(tile, pack, (rows, n, k), a, lda, b, (c, n, update), (a_pack, b_pack))
    };
    let bands = bands.min(m);
    let threads = threads.min(bands);
    if threads == 1 {
        run(m, a, c, a_pack, b_pack);
        return;
    }
    let (mut rest, mut caller) = (c, Some((a_pack, b_pack)));
    spg_sync::fork_join((0..threads).map(|t| {
        // Thread t runs its run of bands as one band.
        let run_of = spg_sync::partition(bands, threads, t);
        let rows = spg_sync::partition(m, bands, run_of.start).start
            ..spg_sync::partition(m, bands, run_of.end - 1).end;
        let (cband, tail) = std::mem::take(&mut rest).split_at_mut(rows.len() * n);
        rest = tail;
        let (aband, packs) = (&a[rows.start * row_step..], caller.take());
        move || match packs {
            Some((a_pack, b_pack)) => run(rows.len(), aband, cband, a_pack, b_pack),
            None => run(rows.len(), aband, cband, &mut Vec::new(), &mut Vec::new()),
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gemm_naive, gemm_slice};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn matches_naive_across_thread_counts() {
        let mut rng = SmallRng::seed_from_u64(8);
        let a = Matrix::random_uniform(23, 17, 1.0, &mut rng);
        let b = Matrix::random_uniform(17, 31, 1.0, &mut rng);
        let slow = gemm_naive(&a, &b).unwrap();
        for threads in [1, 2, 3, 4, 8, 16, 64] {
            let fast = parallel_gemm(&a, &b, threads).unwrap();
            let diff = fast.max_abs_diff(&slow).unwrap();
            assert!(diff < 1e-3, "threads={threads} diff={diff}");
        }
    }

    #[test]
    fn more_threads_than_rows() {
        let mut rng = SmallRng::seed_from_u64(9);
        let a = Matrix::random_uniform(3, 5, 1.0, &mut rng);
        let b = Matrix::random_uniform(5, 4, 1.0, &mut rng);
        let fast = parallel_gemm(&a, &b, 16).unwrap();
        let slow = gemm_naive(&a, &b).unwrap();
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-4);
    }

    #[test]
    fn slice_variant_accumulates() {
        let mut rng = SmallRng::seed_from_u64(12);
        let a = Matrix::random_uniform(9, 6, 1.0, &mut rng);
        let b = Matrix::random_uniform(6, 11, 1.0, &mut rng);
        let oracle = gemm_naive(&a, &b).unwrap();
        let mut c = vec![1.0f32; 9 * 11];
        let (b, packs) = (RowMajor::new(b.as_slice(), 11), (&mut Vec::new(), &mut Vec::new()));
        parallel_gemm_slice(9, 11, 6, a.as_slice(), &b, &mut c, (3, 3), packs);
        for (got, want) in c.iter().zip(oracle.as_slice()) {
            assert!((got - (want + 1.0)).abs() < 1e-3);
        }
    }

    /// Any row split — ragged against `MR` and `MC`, more bands than
    /// threads — leaves every `C` element's FMA chain the serial GEMM's.
    #[test]
    fn row_bands_are_bit_identical_to_the_serial_gemm() {
        let mut rng = SmallRng::seed_from_u64(13);
        // m crosses MC (72) and divides by neither it nor MR (6); k
        // crosses KC (256), so bands accumulate over two k blocks.
        let (m, k, n) = if cfg!(miri) { (11, 9, 19) } else { (83, 300, 37) };
        let a = Matrix::random_uniform(m, k, 1.0, &mut rng);
        let b = Matrix::random_uniform(k, n, 1.0, &mut rng);
        let mut serial = vec![0.5f32; m * n];
        gemm_slice(m, n, k, a.as_slice(), k, b.as_slice(), n, &mut serial, n);
        let (b, mut pa, mut pb) = (RowMajor::new(b.as_slice(), n), Vec::new(), Vec::new());
        for (bands, threads) in [(2, 2), (3, 3), (7, 7), (7, 3), (7, 2), (3, 1), (200, 5)] {
            let mut c = vec![0.5f32; m * n];
            let packs = (&mut pa, &mut pb);
            parallel_gemm_slice(m, n, k, a.as_slice(), &b, &mut c, (bands, threads), packs);
            assert_eq!(c, serial, "bands={bands} threads={threads}");
        }
    }

    /// Band 0 runs on the calling thread, so it packs into the caller's
    /// buffers rather than fresh ones.
    #[test]
    fn the_first_band_packs_into_the_callers_buffers() {
        let mut rng = SmallRng::seed_from_u64(14);
        let (m, k, n) = (12, 5, 7);
        let a = Matrix::random_uniform(m, k, 1.0, &mut rng);
        let b = Matrix::random_uniform(k, n, 1.0, &mut rng);
        let (b, mut pa, mut pb) = (RowMajor::new(b.as_slice(), n), Vec::new(), Vec::new());
        let mut c = vec![0.0f32; m * n];
        parallel_gemm_slice(m, n, k, a.as_slice(), &b, &mut c, (2, 2), (&mut pa, &mut pb));
        assert!(pa.capacity() > 0 && pb.capacity() > 0, "the caller's packs went unused");
    }

    #[test]
    fn zero_threads_rejected() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 2);
        assert!(matches!(parallel_gemm(&a, &b, 0), Err(GemmError::ZeroThreads)));
    }

    #[test]
    fn empty_product() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 3);
        let c = parallel_gemm(&a, &b, 4).unwrap();
        assert_eq!((c.rows(), c.cols()), (0, 3));
    }
}
