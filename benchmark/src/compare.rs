//! `spg-benchmark compare A.json B.json`: one row per end-to-end metric
//! and workload, judged against the metric's bound.

use std::fmt::Write as _;

use crate::doc::{end_to_end_values, RunDoc};
use crate::spec::{self, Better};
use crate::stats::{median, quartile_spread};

/// What a row concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worsened by more than the bound.
    Worse,
    /// Run-to-run spread exceeds the bound and the runs overlap.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric on one workload, A (the base) against B.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of A's runs: the base of the ratio.
    pub base: f64,
    /// Median of B's runs.
    pub new: f64,
    /// Larger of the two documents' quartile spreads, as a share of the
    /// median.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

/// Judges `b` against base `a`: by how much of the base median the
/// metric worsened, against its bound; when the runs of either side
/// spread wider than the bound, only a clean separation of all runs
/// counts.
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (base, new) = (median(a), median(b));
    let change = (new - base) / base.abs().max(f64::MIN_POSITIVE);
    let worsening = if better == Better::Higher { -change } else { change };
    let spread = quartile_spread(a).max(quartile_spread(b));
    let all_b_beat_all_a = |good: bool| {
        a.iter().all(|x| {
            b.iter().all(|y| if (better == Better::Higher) == good { y > x } else { y < x })
        })
    };
    let verdict = if spread > bound {
        if all_b_beat_all_a(true) {
            Verdict::Better
        } else if all_b_beat_all_a(false) && worsening > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (spread, verdict)
}

fn failure_share(runs: &[RunDoc]) -> f64 {
    let attempted: u64 = runs.iter().map(|r| r.ops_attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.ops_failed).sum();
    failed as f64 / attempted.max(1) as f64
}

/// Compares two result documents. Returns the report and whether the
/// comparison passed (no `worse` row, no higher failure share).
pub fn compare(a: &[RunDoc], b: &[RunDoc]) -> (String, bool) {
    let (va, vb) = (end_to_end_values(a), end_to_end_values(b));
    let mut rows = Vec::new();
    for ((workload, metric), base_runs) in &va {
        let (Some(new_runs), Some(def)) =
            (vb.get(&(workload.clone(), metric.clone())), spec::end_to_end(metric))
        else {
            continue;
        };
        let (spread, verdict) = judge(def.better, def.bound, base_runs, new_runs);
        rows.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            base: median(base_runs),
            new: median(new_runs),
            spread,
            bound: def.bound,
            verdict,
        });
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<30} {:<17} {:>13} {:>13} {:>9} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "spread", "bound"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<30} {:<17} {:>13.4} {:>13.4} {:>9.4} {:>6.1}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.new / r.base,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
    let (fa, fb) = (failure_share(a), failure_share(b));
    let _ = writeln!(out, "failed/attempted: A {fa:.6}  B {fb:.6}");
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = rows.iter().filter(|r| r.verdict == Verdict::Unresolved).count();
    let _ = writeln!(out, "{} rows: {worse} worse, {unresolved} unresolved", rows.len());
    (out, worse == 0 && fb <= fa && !rows.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_applied_in_the_metrics_direction() {
        use Better::{Higher, Lower};
        // Throughput down 5% against a 10% bound: same. Down 20%: worse.
        assert_eq!(judge(Higher, 0.10, &[100.0], &[95.0]).1, Verdict::Same);
        assert_eq!(judge(Higher, 0.10, &[100.0], &[80.0]).1, Verdict::Worse);
        assert_eq!(judge(Higher, 0.10, &[100.0], &[120.0]).1, Verdict::Better);
        // Latency up 20% is worse; down 20% is better.
        assert_eq!(judge(Lower, 0.10, &[10.0], &[12.0]).1, Verdict::Worse);
        assert_eq!(judge(Lower, 0.10, &[10.0], &[8.0]).1, Verdict::Better);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_separates() {
        use Better::Lower;
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        // Overlapping runs, spread 30% > bound 10%: unresolved.
        let (spread, v) = judge(Lower, 0.10, &noisy, &[9.5, 10.5, 13.0, 8.5, 11.5]);
        assert!(spread > 0.10);
        assert_eq!(v, Verdict::Unresolved);
        // Every B run beats every A run: better despite the spread.
        assert_eq!(judge(Lower, 0.10, &noisy, &[5.0, 6.0, 7.0, 5.5, 6.5]).1, Verdict::Better);
        // Every B run loses to every A run: worse despite the spread.
        assert_eq!(judge(Lower, 0.10, &noisy, &[15.0, 16.0, 19.0, 14.0, 17.0]).1, Verdict::Worse);
    }
}
