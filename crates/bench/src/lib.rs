//! Shared helpers for the spg-CNN benchmark harness.
//!
//! Each table and figure of the paper has a dedicated binary in
//! `src/bin/` (see `DESIGN.md` for the full index); this library holds
//! the table-formatting and series-printing helpers they share, so every
//! harness prints rows the same way `EXPERIMENTS.md` records them, and
//! [`anchor_gflops`], the one host measurement they print.

#![warn(missing_docs)]

pub mod figures;

use std::fmt::Write as _;

use spg_convnet::ConvSpec;
use spg_core::autotune::{measure_technique, Phase};
use spg_core::schedule::Technique;

/// Measured single-core GFlop/s of one technique on one phase of `spec` on
/// this host — the anchor the figure binaries print under a model curve.
///
/// The timing is [`measure_technique`] at one core, the measurement the
/// scheduler itself picks plans from (Sec. 4.4): kernels bind as they
/// deploy, weights are prepared outside the timed loop. Forward counts
/// `|A|` operations; backward (error + delta-weights) counts `2|A|` scaled
/// by the requested gradient density `1 - sparsity`, i.e. goodput.
///
/// # Panics
///
/// Panics if `reps == 0` or the verifier rejects `technique` for `spec`.
pub fn anchor_gflops(
    spec: &ConvSpec,
    technique: Technique,
    phase: Phase,
    sparsity: f64,
    reps: usize,
) -> f64 {
    let secs = measure_technique(spec, technique, phase, sparsity, 1, reps)
        .expect("the figures measure techniques that verify on every valid spec at one core")
        .as_secs_f64();
    let ops = match phase {
        Phase::Forward => spec.arithmetic_ops() as f64,
        Phase::Backward => 2.0 * spec.arithmetic_ops() as f64 * (1.0 - sparsity),
    };
    ops / secs / 1e9
}

/// Renders a fixed-width text table: a header row, a separator, and one
/// line per data row. Columns are sized to the widest cell.
///
/// # Example
///
/// ```
/// let t = spg_bench::render_table(
///     &["id", "value"],
///     &[vec!["0".into(), "362".into()], vec!["1".into(), "2015".into()]],
/// );
/// assert!(t.contains("id"));
/// assert!(t.lines().count() >= 4);
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width must match header width");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let write_row = |out: &mut String, cells: &[String]| {
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{cell:>w$}", w = w);
        }
        out.push('\n');
    };
    write_row(&mut out, &headers.iter().map(|h| (*h).to_owned()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        write_row(&mut out, row);
    }
    out
}

/// Formats a float with the given number of decimal places.
pub fn fmt(v: f64, places: usize) -> String {
    format!("{v:.places$}")
}

/// Formats a speedup as `N.NNx`.
pub fn fmt_speedup(v: f64) -> String {
    format!("{v:.2}x")
}

/// Prints a figure/table banner with the experiment identifier.
pub fn banner(id: &str, description: &str) -> String {
    format!("=== {id}: {description} ===\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["a", "longer"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // Every line has the same width.
        assert!(lines.iter().all(|l| l.len() == lines[1].len()));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_rows_panic() {
        render_table(&["a", "b"], &[vec!["1".into()]]);
    }

    /// Every (technique, phase) pair `fig3a`, `fig4cd` and `fig4ef` print.
    #[test]
    fn anchors_are_finite_and_positive() {
        let tiny = ConvSpec::new(2, 12, 12, 4, 3, 3, 1, 1).expect("valid fixed spec");
        for (technique, phase, sparsity) in [
            (Technique::GemmInParallel, Phase::Forward, 0.0),
            (Technique::StencilFp, Phase::Forward, 0.0),
            (Technique::GemmInParallel, Phase::Backward, 0.9),
            (Technique::SparseBp, Phase::Backward, 0.9),
        ] {
            let gf = anchor_gflops(&tiny, technique, phase, sparsity, 1);
            assert!(gf.is_finite() && gf > 0.0, "{technique:?} {phase:?}: {gf}");
        }
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt_speedup(16.0), "16.00x");
        assert!(banner("Fig 3a", "scalability").contains("Fig 3a"));
    }
}
