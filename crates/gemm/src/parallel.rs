use spg_tensor::Matrix;

use crate::blocked::gemm_blocked;
use crate::kernels::{pack_a, Tile};
use crate::{check_dims, gemm_slice, GemmError};

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
    parallel_gemm_slice(m, n, k, a.as_slice(), b.as_slice(), c.as_mut_slice(), threads, threads);
    Ok(c)
}

/// Raw-slice Parallel-GEMM: accumulates `C += A * B` into caller-owned
/// storage, the rows of `C` split into `bands` contiguous row bands run on
/// at most `threads` threads.
///
/// Operands are contiguous row-major slices (`a` is `m x k`, `b` is
/// `k x n`, `c` is `m x n`). Like [`gemm_slice`] this **accumulates** and
/// records no telemetry — the workspace-threaded executors own both the
/// zeroing and the flop accounting — and like it each band packs its
/// operand panels into buffers of its own.
///
/// The partition is `bands.min(m)` bands of `ceil(m / bands)` rows, the
/// last truncated: the split `spg-check` proves disjoint and covering for
/// an `UnfoldGemm { threads: bands }` plan. With fewer threads than bands
/// each thread takes a contiguous run of whole bands as one band, so one
/// thread is the serial [`gemm_slice`] — the instructions of a plan never
/// split at all. Every element of `C` is the same `KC`-blocked chain of
/// multiply-adds whichever band holds its row (the micro-kernel
/// accumulates each `(row, column)` independently and the `k` blocks are
/// visited in one order), so the result is bit-identical for every
/// `bands` and `threads`.
///
/// # Panics
///
/// Panics if a slice length disagrees with the given dimensions or
/// `bands` or `threads` is zero.
#[allow(clippy::too_many_arguments)]
pub fn parallel_gemm_slice(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    bands: usize,
    threads: usize,
) {
    assert!(bands > 0 && threads > 0, "parallel_gemm_slice: zero threads");
    assert_eq!(a.len(), m * k, "parallel_gemm_slice: a length mismatch");
    assert_eq!(b.len(), k * n, "parallel_gemm_slice: b length mismatch");
    assert_eq!(c.len(), m * n, "parallel_gemm_slice: c length mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    parallel_gemm_slice_on(Tile::host(), m, n, k, a, b, c, bands, threads);
}

/// [`parallel_gemm_slice`] on a given register tile — every band runs the
/// one the call resolved — over checked, non-empty operands.
#[allow(clippy::too_many_arguments)]
pub(crate) fn parallel_gemm_slice_on(
    tile: Tile,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    bands: usize,
    threads: usize,
) {
    let run = |rows, a, c: &mut [f32]| {
        gemm_blocked(tile, pack_a, rows, n, k, a, k, b, n, c, n, &mut Vec::new(), &mut Vec::new())
    };
    let band = m.div_ceil(bands.min(m));
    let bands = m.div_ceil(band);
    let threads = threads.min(bands);
    if threads == 1 {
        run(m, a, c);
        return;
    }
    // Thread t runs bands [t * bands / threads, (t + 1) * bands / threads).
    let (mut rest, mut row0) = (c, 0);
    spg_sync::fork_join((1..=threads).map(|t| {
        let row1 = (t * bands / threads * band).min(m);
        let (cband, tail) = std::mem::take(&mut rest).split_at_mut((row1 - row0) * n);
        rest = tail;
        let aband = &a[row0 * k..row1 * k];
        let rows = row1 - row0;
        row0 = row1;
        move || run(rows, aband, cband)
    }));
}

/// **Parallel-GEMM, column partitioning**: one multiply split across
/// `threads` cores by *columns* of the output.
///
/// Each worker computes a column band of `C` from the matching column
/// band of `B` and the **entire** `A` — the mirror image of
/// [`parallel_gemm`]'s row partitioning, with the same pathology: the
/// replicated operand's traffic does not shrink with the core count
/// (Sec. 3.2 notes the partitioning choice only swaps which operand is
/// replicated). The ablation bench compares the two on asymmetric shapes.
///
/// # Errors
///
/// Returns [`GemmError::DimensionMismatch`] if `a.cols() != b.rows()`, or
/// [`GemmError::ZeroThreads`] if `threads == 0`.
pub fn parallel_gemm_cols(a: &Matrix, b: &Matrix, threads: usize) -> Result<Matrix, GemmError> {
    check_dims(a.rows(), a.cols(), b.rows(), b.cols())?;
    if threads == 0 {
        return Err(GemmError::ZeroThreads);
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return Ok(c);
    }
    spg_telemetry::record_flops(crate::gemm_flops(m, n, k), crate::gemm_flops(m, n, k));

    let workers = threads.min(n);
    if workers <= 1 {
        gemm_slice(m, n, k, a.as_slice(), k, b.as_slice(), n, c.as_mut_slice(), n);
        return Ok(c);
    }

    // Column bands share rows of C, so workers write disjoint column
    // ranges of every row; hand each worker a raw sub-view via split
    // boundaries computed up front.
    let band = n.div_ceil(workers);
    let av = a.as_slice();
    let bv = b.as_slice();
    // Compute each band into a private buffer, then stitch: avoids
    // aliasing &mut access to interleaved columns.
    let bands = (0..workers)
        .map(|w| ((w * band).min(n), ((w + 1) * band).min(n)))
        .filter(|(c0, c1)| c0 < c1);
    let partials = spg_sync::fork_join(bands.map(|(c0, c1)| {
        move || {
            let cols = c1 - c0;
            let mut part = vec![0.0f32; m * cols];
            // B column band: rows of b offset by c0, width cols.
            gemm_slice(m, cols, k, av, k, &bv[c0..], n, &mut part, cols);
            (c0, c1, part)
        }
    }));
    // The stitch runs strictly after the join, so the result slice
    // needs no lock: write each band straight into `c`.
    let cv = c.as_mut_slice();
    for (c0, c1, part) in partials {
        let cols = c1 - c0;
        for r in 0..m {
            cv[r * n + c0..r * n + c1].copy_from_slice(&part[r * cols..(r + 1) * cols]);
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm_naive;
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
        parallel_gemm_slice(9, 11, 6, a.as_slice(), b.as_slice(), &mut c, 3, 3);
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
        for (bands, threads) in [(2, 2), (3, 3), (7, 7), (7, 3), (7, 2), (3, 1), (200, 5)] {
            let mut c = vec![0.5f32; m * n];
            parallel_gemm_slice(m, n, k, a.as_slice(), b.as_slice(), &mut c, bands, threads);
            assert_eq!(c, serial, "bands={bands} threads={threads}");
        }
    }

    #[test]
    fn zero_threads_rejected() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 2);
        assert!(matches!(parallel_gemm(&a, &b, 0), Err(GemmError::ZeroThreads)));
        assert!(matches!(parallel_gemm_cols(&a, &b, 0), Err(GemmError::ZeroThreads)));
    }

    #[test]
    fn column_partition_matches_naive() {
        let mut rng = SmallRng::seed_from_u64(10);
        let a = Matrix::random_uniform(13, 21, 1.0, &mut rng);
        let b = Matrix::random_uniform(21, 29, 1.0, &mut rng);
        let slow = gemm_naive(&a, &b).unwrap();
        for threads in [1, 2, 3, 7, 32] {
            let fast = parallel_gemm_cols(&a, &b, threads).unwrap();
            let diff = fast.max_abs_diff(&slow).unwrap();
            assert!(diff < 1e-3, "threads={threads} diff={diff}");
        }
    }

    #[test]
    fn row_and_column_partitions_agree() {
        let mut rng = SmallRng::seed_from_u64(11);
        let a = Matrix::random_uniform(17, 9, 1.0, &mut rng);
        let b = Matrix::random_uniform(9, 23, 1.0, &mut rng);
        let rows = parallel_gemm(&a, &b, 4).unwrap();
        let cols = parallel_gemm_cols(&a, &b, 4).unwrap();
        assert!(rows.max_abs_diff(&cols).unwrap() < 1e-4);
    }

    #[test]
    fn empty_product() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 3);
        let c = parallel_gemm(&a, &b, 4).unwrap();
        assert_eq!((c.rows(), c.cols()), (0, 3));
    }
}
