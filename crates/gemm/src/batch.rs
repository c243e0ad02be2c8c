use std::sync::atomic::{AtomicUsize, Ordering};

use spg_tensor::Matrix;

use crate::{check_dims, gemm_slice, GemmError};

/// One independent multiply in a [`gemm_in_parallel`] batch.
///
/// In CNN training the batch items are the per-input unfolded activation
/// matrices of a mini-batch; each job is small enough for one core.
#[derive(Debug, Clone, Copy)]
pub struct BatchJob<'a> {
    /// Left operand.
    pub a: &'a Matrix,
    /// Right operand.
    pub b: &'a Matrix,
}

impl<'a> BatchJob<'a> {
    /// Creates a job multiplying `a` by `b`.
    pub fn new(a: &'a Matrix, b: &'a Matrix) -> Self {
        BatchJob { a, b }
    }
}

/// **GEMM-in-Parallel**: runs every job as an independent *single-threaded*
/// multiply, distributing whole jobs across `threads` workers (Sec. 4.1).
///
/// Because no individual multiply is partitioned, the per-core working set
/// and arithmetic intensity are identical to the single-core case — the
/// paper measures a per-core performance drop of under 15 % out to 16
/// cores, versus over 50 % for [`parallel_gemm`](crate::parallel_gemm).
///
/// Jobs are claimed from a shared atomic counter so stragglers balance
/// dynamically. Results are returned in job order.
///
/// # Errors
///
/// Returns [`GemmError::ZeroThreads`] if `threads == 0`, or
/// [`GemmError::DimensionMismatch`] if any job's inner dimensions differ
/// (checked up front; no work is performed in that case).
///
/// # Example
///
/// ```
/// use spg_tensor::Matrix;
/// use spg_gemm::{gemm_in_parallel, BatchJob};
///
/// let a = Matrix::from_vec(1, 2, vec![1.0, 2.0])?;
/// let b = Matrix::from_vec(2, 1, vec![3.0, 4.0])?;
/// let jobs = [BatchJob::new(&a, &b), BatchJob::new(&b, &a)];
/// let out = gemm_in_parallel(&jobs, 4)?;
/// assert_eq!(out[0].get(0, 0), 11.0);
/// assert_eq!(out[1].rows(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn gemm_in_parallel(jobs: &[BatchJob<'_>], threads: usize) -> Result<Vec<Matrix>, GemmError> {
    let mut results: Vec<Matrix> = jobs.iter().map(|_| Matrix::default()).collect();
    gemm_in_parallel_into(jobs, &mut results, threads)?;
    Ok(results)
}

/// [`gemm_in_parallel`] writing into caller-owned result matrices.
///
/// Each result is reshaped in place with [`Matrix::resize`], so with
/// steady-state job shapes the whole batch runs without heap allocation —
/// the property the per-worker training workspaces rely on.
///
/// # Errors
///
/// Returns [`GemmError::ZeroThreads`] if `threads == 0`, or
/// [`GemmError::DimensionMismatch`] if any job's inner dimensions differ or
/// `results.len() != jobs.len()` (checked up front; no work is performed in
/// either case).
pub fn gemm_in_parallel_into(
    jobs: &[BatchJob<'_>],
    results: &mut [Matrix],
    threads: usize,
) -> Result<(), GemmError> {
    if threads == 0 {
        return Err(GemmError::ZeroThreads);
    }
    if results.len() != jobs.len() {
        return Err(GemmError::DimensionMismatch {
            a_rows: jobs.len(),
            a_cols: 0,
            b_rows: results.len(),
            b_cols: 0,
        });
    }
    for job in jobs {
        check_dims(job.a.rows(), job.a.cols(), job.b.rows(), job.b.cols())?;
    }
    let batch_flops: u64 =
        jobs.iter().map(|j| crate::gemm_flops(j.a.rows(), j.b.cols(), j.a.cols())).sum();
    spg_telemetry::record_flops(batch_flops, batch_flops);
    for (job, out) in jobs.iter().zip(results.iter_mut()) {
        out.resize(job.a.rows(), job.b.cols());
    }

    let workers = threads.min(jobs.len().max(1));
    if workers <= 1 {
        for (job, out) in jobs.iter().zip(results.iter_mut()) {
            run_job(job, out);
        }
        return Ok(());
    }

    let next = AtomicUsize::new(0);
    // Hand each result slot to exactly one claimer through a Vec of options
    // guarded by the same index the atomic distributes.
    let slots: Vec<_> = results.iter_mut().map(std::sync::Mutex::new).collect();
    spg_sync::fork_join((0..workers).map(|_| {
        || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs.len() {
                break;
            }
            let mut out = spg_sync::lock(&slots[i]);
            run_job(&jobs[i], &mut out);
        }
    }));
    Ok(())
}

fn run_job(job: &BatchJob<'_>, out: &mut Matrix) {
    let (m, k, n) = (job.a.rows(), job.a.cols(), job.b.cols());
    gemm_slice(m, n, k, job.a.as_slice(), k, job.b.as_slice(), n, out.as_mut_slice(), n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm_naive;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn batch_matches_sequential() {
        let mut rng = SmallRng::seed_from_u64(21);
        let mats: Vec<(Matrix, Matrix)> = (0..9)
            .map(|i| {
                let m = 3 + i;
                (
                    Matrix::random_uniform(m, 7, 1.0, &mut rng),
                    Matrix::random_uniform(7, 5, 1.0, &mut rng),
                )
            })
            .collect();
        let jobs: Vec<BatchJob> = mats.iter().map(|(a, b)| BatchJob::new(a, b)).collect();
        for threads in [1, 2, 4, 16] {
            let out = gemm_in_parallel(&jobs, threads).unwrap();
            for ((a, b), c) in mats.iter().zip(&out) {
                let oracle = gemm_naive(a, b).unwrap();
                assert!(c.max_abs_diff(&oracle).unwrap() < 1e-3, "threads={threads}");
            }
        }
    }

    #[test]
    fn into_variant_recycles_results() {
        let mut rng = SmallRng::seed_from_u64(22);
        let a = Matrix::random_uniform(4, 6, 1.0, &mut rng);
        let b = Matrix::random_uniform(6, 5, 1.0, &mut rng);
        let jobs = [BatchJob::new(&a, &b), BatchJob::new(&a, &b)];
        let mut results = vec![Matrix::default(), Matrix::default()];
        gemm_in_parallel_into(&jobs, &mut results, 2).unwrap();
        let oracle = gemm_naive(&a, &b).unwrap();
        // Run again on the warm buffers: results must be overwritten, not
        // accumulated, and match the oracle both times.
        gemm_in_parallel_into(&jobs, &mut results, 2).unwrap();
        for c in &results {
            assert!(c.max_abs_diff(&oracle).unwrap() < 1e-3);
        }
        let mut short = vec![Matrix::default()];
        assert!(gemm_in_parallel_into(&jobs, &mut short, 2).is_err());
    }

    #[test]
    fn empty_batch() {
        assert!(gemm_in_parallel(&[], 4).unwrap().is_empty());
    }

    #[test]
    fn zero_threads_rejected() {
        assert!(matches!(gemm_in_parallel(&[], 0), Err(GemmError::ZeroThreads)));
    }

    #[test]
    fn bad_job_rejected_before_work() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let jobs = [BatchJob::new(&a, &b)];
        assert!(matches!(gemm_in_parallel(&jobs, 2), Err(GemmError::DimensionMismatch { .. })));
    }
}
