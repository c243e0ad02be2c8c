//! Order statistics the harness reports: medians, percentiles with the
//! "ten samples beyond" rule, the fast tail the end-to-end timings are
//! read from, and the quartile spread `benchmark compare` uses.

/// How many samples must lie beyond a percentile before it is reported.
pub const SAMPLES_BEYOND: usize = 10;

/// Blocks a timed region is cut into for the throughput: a fifth of a
/// second or so each, short enough for some to fall between the host's
/// slow stretches.
pub const BLOCKS: usize = 50;

/// Share of a run's operations (blocks) that are faster than the
/// reported latency (throughput): the end-to-end timings are the 5th
/// percentile latency and the 95th percentile block rate, not medians.
///
/// On the shared 2-vCPU reference host a two-thread operation flips
/// between two speeds for seconds to minutes at a time (`train_cifar10`
/// steps of 40 and 57 ms, `serve_cifar10` latencies of 3.8 and 5.5 ms)
/// with nothing else running in the guest, so a run's median lands on
/// whichever speed held for most of it: over 15 s windows of one
/// process the median step moved 32 % between its quartiles and the
/// 5th percentile 3 %. Host noise only ever adds time; the fast tail is
/// what the program costs when the host is out of the way.
pub const FAST_SHARE: f64 = 0.05;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one timed op.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `(0, 1]` of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    v[rank(v.len(), q) - 1]
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n)
}

/// Whether percentile `q` of `n` samples has at least
/// [`SAMPLES_BEYOND`] samples above it (the reporting rule).
pub fn percentile_supported(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= SAMPLES_BEYOND
}

/// The latency [`FAST_SHARE`] of `values` are faster than.
pub fn fast_latency(values: &[f64]) -> f64 {
    percentile(values, FAST_SHARE)
}

/// `units / block seconds` of each of the equal blocks of a run.
///
/// `durations_s[i]` is the wall time of timed operation `i`, each worth
/// `units_per_op` units of work; the run is cut into [`BLOCKS`] blocks
/// of whole operations, and operations beyond the last whole block are
/// left out. With fewer than two operations a block every operation is
/// its own block.
pub fn block_rates(durations_s: &[f64], units_per_op: f64) -> Vec<f64> {
    assert!(!durations_s.is_empty(), "throughput of no operations");
    let per_block = (durations_s.len() / BLOCKS).max(1);
    durations_s
        .chunks_exact(per_block)
        .map(|block| per_block as f64 * units_per_op / block.iter().sum::<f64>())
        .collect()
}

/// The block rate [`FAST_SHARE`] of a run's blocks are faster than.
pub fn fast_block_rate(durations_s: &[f64], units_per_op: f64) -> f64 {
    percentile(&block_rates(durations_s, units_per_op), 1.0 - FAST_SHARE)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method); `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let v = sorted(values);
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median; 0 when there are too few runs to have quartiles.
pub fn quartile_spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, _, q3]) => (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert!(percentile_supported(1000, 0.99));
        assert!(!percentile_supported(999, 0.99));
        // p50 of 20 samples is rank 10: ten beyond; of 19, rank 10: nine.
        assert!(percentile_supported(20, 0.5));
        assert!(!percentile_supported(19, 0.5));
        assert!(!percentile_supported(0, 0.5));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn the_fast_tail_ignores_a_slow_stretch_and_one_lucky_operation() {
        // 2 ops per block: most of the run 10x slower and one block
        // twice as fast must both leave the reported rate alone.
        let mut d = vec![0.1; 2 * BLOCKS];
        for slow in &mut d[4..2 * BLOCKS - 6] {
            *slow = 1.0;
        }
        d[0] = 0.05;
        d[1] = 0.05;
        let rate = fast_block_rate(&d, 4.0);
        assert!((rate - 40.0).abs() < 1e-9, "{rate}");
        // The same for latencies: rank 2 of 40.
        let mut l = vec![1.0; 40];
        l[7] = 0.1;
        l[8] = 0.1;
        l[9] = 0.05;
        assert!((fast_latency(&l) - 0.1).abs() < 1e-12);
        // Trailing ops past the last whole block are dropped.
        let mut d = vec![0.5; 2 * BLOCKS + 1];
        d[2 * BLOCKS] = 0.001;
        assert!((fast_block_rate(&d, 1.0) - 2.0).abs() < 1e-9);
        // Fewer ops than blocks: each op is a block, the fastest counts.
        assert!((fast_block_rate(&[0.5, 0.25, 1.0], 1.0) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }
}
