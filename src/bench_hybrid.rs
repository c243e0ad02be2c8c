//! Hybrid-vs-sample strong-scaling benchmark — the `spgcnn bench-hybrid`
//! subcommand and the data source for the committed `BENCH_hybrid.json`
//! baseline.
//!
//! The sweep fixes **batch = 1** — the serving / strong-scaling regime the
//! paper's GEMM-in-Parallel cannot use extra cores in, because sample
//! parallelism distributes whole samples and one sample occupies one
//! worker. At each worker count the benchmark times that starved
//! sample-parallel path (the sequential kernel: its wall time does not
//! change with workers, only its efficiency `1/W` does) against the three
//! intra-sample hybrid decompositions (`y-band`, `x-band`, `out-channel`),
//! checking every banded output bit-identical to the sequential kernel
//! before trusting its timing. The headline per (layer, workers) point is
//! the strong-scaling efficiency `t1 / (W * tW)`.

use std::time::Instant;

use spg_codegen::KernelChoice;
use spg_convnet::workspace::ConvScratch;
use spg_convnet::ConvSpec;
use spg_core::autotune::Phase;
use spg_core::schedule::Technique;
use spg_core::verify::lower_phase;
use spg_workloads::table2::Benchmark;

/// Default timing repetitions (median taken).
pub const DEFAULT_REPS: usize = 3;

/// The worker counts of the strong-scaling sweep. Batch = 1 throughout,
/// so every count past 1 starves the sample-parallel path.
pub const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Flop budget per timed repetition, from which the pinned per-layer
/// iteration count derives (`ceil(budget / layer_flops)`, clamped) so
/// reruns measure identical work.
const REP_FLOP_BUDGET: u64 = 500_000_000;

/// Upper clamp on the per-layer iteration count.
const MAX_ITERS: usize = 16;

/// One (layer, worker-count) measurement of the sweep.
#[derive(Debug, Clone)]
pub struct WorkerPoint {
    /// Worker count of this point.
    pub workers: usize,
    /// Sample-parallel wall time per forward at batch = 1: the sequential
    /// kernel, since one sample can occupy only one worker. Constant
    /// across the sweep by construction.
    pub sample_ms: f64,
    /// Median y-band wall time, when the layer splits at this count.
    pub yband_ms: Option<f64>,
    /// Median x-band wall time, when the layer splits at this count.
    pub xband_ms: Option<f64>,
    /// Median out-channel wall time, when the layer splits at this count.
    pub ochannel_ms: Option<f64>,
    /// Partition id of the fastest decomposition at this point
    /// (`"sample"` when no hybrid splits or none beats sample).
    pub best: &'static str,
    /// Wall time of the winning decomposition.
    pub best_ms: f64,
    /// Sample-parallel strong-scaling efficiency `t1 / (W * tW)` — at
    /// batch = 1 this is `1/W`, the starvation the hybrids exist to fix.
    pub sample_efficiency: f64,
    /// Strong-scaling efficiency of the winning decomposition.
    pub best_efficiency: f64,
}

/// One layer's full strong-scaling curve.
#[derive(Debug, Clone)]
pub struct LayerCurve {
    /// Table 2 benchmark label (or `Smoke` for the test layer).
    pub benchmark: String,
    /// Zero-based conv layer index within the benchmark.
    pub layer: usize,
    /// The layer geometry.
    pub spec: ConvSpec,
    /// Arithmetic ops per sample.
    pub flops: u64,
    /// Pinned forward calls per timed repetition.
    pub iters: usize,
    /// Whether every banded output matched the sequential kernel bit for
    /// bit (a `false` here invalidates the whole curve).
    pub bit_identical: bool,
    /// One point per [`WORKER_SWEEP`] entry.
    pub points: Vec<WorkerPoint>,
}

/// The full sweep's results plus the run parameters that pin the work.
#[derive(Debug, Clone)]
pub struct HybridReport {
    /// Timing repetitions per measurement (median taken).
    pub reps: usize,
    /// Fixed batch size of the sweep.
    pub batch: usize,
    /// Per-layer curves.
    pub layers: Vec<LayerCurve>,
}

/// The layers the sweep measures: the small-batch/large-image Table 2
/// layers where sample parallelism starves hardest (the two marquee first
/// layers) plus their successors for a mid-size contrast — or one tiny
/// synthetic layer in smoke mode, cheap enough for debug-build CLI tests.
fn layer_set(smoke: bool) -> Vec<(String, usize, ConvSpec)> {
    if smoke {
        return vec![("Smoke".to_string(), 0, ConvSpec::square(36, 16, 3, 5, 1))];
    }
    let mut layers = Vec::new();
    for bench in [Benchmark::ImageNet22K, Benchmark::ImageNet1K] {
        for (i, spec) in bench.conv_layers().into_iter().take(2).enumerate() {
            layers.push((bench.label().to_string(), i, spec));
        }
    }
    layers
}

fn pinned_iters(flops: u64) -> usize {
    let per_budget = REP_FLOP_BUDGET.div_ceil(flops.max(1));
    usize::try_from(per_budget).unwrap_or(MAX_ITERS).clamp(1, MAX_ITERS)
}

fn pseudo(n: usize, salt: usize) -> Vec<f32> {
    (0..n).map(|i| (((i * 31 + salt * 17) % 23) as f32 - 11.0) / 7.0).collect()
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Times `reps` repetitions of `iters` forward calls and returns the
/// median wall time per call in milliseconds.
fn time_ms(mut forward: impl FnMut(), iters: usize, reps: usize) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            forward();
        }
        #[allow(clippy::cast_precision_loss)]
        samples.push(start.elapsed().as_secs_f64() * 1e3 / iters as f64);
    }
    median(samples)
}

/// Runs the batch = 1 strong-scaling sweep.
///
/// # Panics
///
/// Panics if `reps == 0`.
pub fn run(reps: usize, smoke: bool) -> HybridReport {
    assert!(reps > 0, "repetition count must be positive");
    let layers = layer_set(smoke).into_iter().map(|(b, i, s)| run_layer(b, i, &s, reps)).collect();
    HybridReport { reps, batch: 1, layers }
}

fn run_layer(benchmark: String, layer: usize, spec: &ConvSpec, reps: usize) -> LayerCurve {
    let flops = spec.arithmetic_ops();
    let iters = pinned_iters(flops);
    let input = pseudo(spec.input_shape().len(), 1);
    let weights = pseudo(spec.weight_shape().len(), 2);
    let mut oracle = vec![0f32; spec.output_shape().len()];
    let mut scratch = ConvScratch::new();
    // Every forward here runs the generic loops, so the banded outputs are
    // compared against the very kernel their bands split.
    let lowered = |technique, workers| {
        lower_phase(spec, technique, Phase::Forward, workers, KernelChoice::Generic)
    };
    let sequential = lowered(Technique::StencilFp, 1)
        .unwrap_or_else(|e| panic!("sequential stencil plan for {spec}: {e}"));
    // Warm-up pays one-time buffer growth, then the starved baseline.
    let prepared = sequential.prepared(&weights);
    sequential.forward(&input, &prepared, &mut oracle, &mut scratch);
    let sample_ms =
        time_ms(|| sequential.forward(&input, &prepared, &mut oracle, &mut scratch), iters, reps);

    let mut bit_identical = true;
    let mut points = Vec::new();
    for workers in WORKER_SWEEP {
        let mut dims = [None, None, None];
        for (slot, technique) in
            [Technique::StencilYBand, Technique::StencilXBand, Technique::StencilOutChannel]
                .into_iter()
                .enumerate()
        {
            // A layer that does not split this way at this count has no
            // verified banded plan and is left out of the point.
            let Ok(exec) = lowered(technique, workers) else { continue };
            let mut banded = vec![0f32; spec.output_shape().len()];
            let mut hybrid_scratch = ConvScratch::new();
            let prepared = exec.prepared(&weights);
            exec.forward(&input, &prepared, &mut banded, &mut hybrid_scratch);
            bit_identical &= banded == oracle;
            dims[slot] = Some(time_ms(
                || exec.forward(&input, &prepared, &mut banded, &mut hybrid_scratch),
                iters,
                reps,
            ));
        }
        let [yband_ms, xband_ms, ochannel_ms] = dims;
        let (best, best_ms) =
            [("y-band", yband_ms), ("x-band", xband_ms), ("out-channel", ochannel_ms)]
                .into_iter()
                .filter_map(|(id, ms)| ms.map(|ms| (id, ms)))
                .fold(("sample", sample_ms), |acc, cand| if cand.1 < acc.1 { cand } else { acc });
        #[allow(clippy::cast_precision_loss)]
        let w = workers as f64;
        points.push(WorkerPoint {
            workers,
            sample_ms,
            yband_ms,
            xband_ms,
            ochannel_ms,
            best,
            best_ms,
            sample_efficiency: 1.0 / w,
            best_efficiency: sample_ms / (w * best_ms),
        });
    }
    LayerCurve { benchmark, layer, spec: *spec, flops, iters, bit_identical, points }
}

impl HybridReport {
    /// Layers on which some hybrid beats the starved sample-parallel path
    /// at the sweep's top worker count.
    pub fn hybrid_wins_at_top(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| {
                l.points.last().is_some_and(|p| p.best != "sample" && p.best_ms < p.sample_ms)
            })
            .count()
    }

    /// Serializes the report as the `spgcnn-bench-hybrid` JSON document
    /// (the committed `BENCH_hybrid.json` strong-scaling baseline).
    pub fn to_json(&self) -> String {
        let opt = |v: Option<f64>| match v {
            Some(v) if v.is_finite() => format!("{v:.4}"),
            _ => "null".to_string(),
        };
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"spgcnn-bench-hybrid\",\n");
        out.push_str("  \"schema_version\": 1,\n");
        out.push_str(&format!("  \"reps\": {},\n", self.reps));
        out.push_str(&format!("  \"batch\": {},\n", self.batch));
        out.push_str("  \"layers\": [");
        for (i, l) in self.layers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"benchmark\": \"{}\", \"layer\": {}, \"spec\": \"{}\", \
                 \"flops\": {}, \"iters\": {}, \"bit_identical\": {}, \"points\": [",
                l.benchmark, l.layer, l.spec, l.flops, l.iters, l.bit_identical,
            ));
            for (j, p) in l.points.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n      {{\"workers\": {}, \"sample_ms\": {:.4}, \"yband_ms\": {}, \
                     \"xband_ms\": {}, \"ochannel_ms\": {}, \"best\": \"{}\", \
                     \"best_ms\": {:.4}, \"sample_efficiency\": {:.4}, \
                     \"best_efficiency\": {:.4}}}",
                    p.workers,
                    p.sample_ms,
                    opt(p.yband_ms),
                    opt(p.xband_ms),
                    opt(p.ochannel_ms),
                    p.best,
                    p.best_ms,
                    p.sample_efficiency,
                    p.best_efficiency,
                ));
            }
            out.push_str("\n    ]}");
        }
        if !self.layers.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Human-readable table for terminal output.
    pub fn render_table(&self) -> String {
        let mut out =
            format!("hybrid vs starved sample parallelism, batch = 1 (median of {})\n", self.reps);
        let fmt = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.2}"));
        for l in &self.layers {
            out.push_str(&format!(
                "\n{} layer {} ({}){}\n{:>7} {:>10} {:>9} {:>9} {:>9}  {:<11} {:>9} {:>8}\n",
                l.benchmark,
                l.layer,
                l.spec,
                if l.bit_identical { ", banded outputs bit-identical" } else { ", DIVERGED" },
                "workers",
                "sample ms",
                "y-band",
                "x-band",
                "o-chan",
                "best",
                "best eff",
                "sample"
            ));
            for p in &l.points {
                out.push_str(&format!(
                    "{:>7} {:>10.2} {:>9} {:>9} {:>9}  {:<11} {:>8.2}% {:>7.2}%\n",
                    p.workers,
                    p.sample_ms,
                    fmt(p.yband_ms),
                    fmt(p.xband_ms),
                    fmt(p.ochannel_ms),
                    p.best,
                    p.best_efficiency * 100.0,
                    p.sample_efficiency * 100.0,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_covers_every_worker_count_and_validates() {
        let report = run(1, true);
        assert_eq!(report.layers.len(), 1);
        let layer = &report.layers[0];
        assert!(layer.bit_identical, "banded smoke outputs diverged");
        assert_eq!(layer.points.len(), WORKER_SWEEP.len());
        // Workers = 1: no decomposition, the baseline is the whole story.
        let first = &layer.points[0];
        assert_eq!((first.best, first.yband_ms), ("sample", None));
        // Workers > 1: the 32x32-output smoke layer splits on every dim.
        let last = layer.points.last().expect("sweep is non-empty");
        assert!(last.yband_ms.is_some() && last.xband_ms.is_some() && last.ochannel_ms.is_some());
        assert!((last.sample_efficiency - 0.125).abs() < 1e-12);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"spgcnn-bench-hybrid\""));
        assert!(json.contains("\"bit_identical\": true"));
        assert!(report.render_table().contains("bit-identical"));
    }

    #[test]
    fn real_layer_set_is_the_small_batch_marquee_layers() {
        let layers = layer_set(false);
        assert_eq!(layers.len(), 4);
        assert_eq!(layers[0].2, ConvSpec::square(262, 120, 3, 7, 2));
        assert_eq!(layers[2].2, ConvSpec::square(224, 96, 3, 11, 4));
    }
}
