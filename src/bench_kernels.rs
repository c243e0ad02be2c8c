//! Generic-vs-specialized stencil kernel benchmark over the Table 2
//! suite — the `spgcnn bench-kernels` subcommand and the data source for
//! the committed `BENCH_kernels.json` perf baseline that CI's
//! `tools/bench_gate.sh` diffs against.
//!
//! Per layer, the benchmark times the generic runtime-parameterized
//! stencil loops ([`KernelChoice::Generic`]) against the verified
//! `spg-codegen` registry instance lowering binds for the shape (when one resolves on
//! this host), single-core, median-of-`reps` with a **pinned, flop-derived
//! iteration count** so reruns measure identical work. The headline
//! number per layer is the dimensionless `speedup` ratio
//! (specialized/generic throughput), which is what the CI gate compares —
//! absolute GFLOP/s vary across machines, the ratio is stable.

use std::time::Instant;

use spg_codegen::KernelChoice;
use spg_convnet::exec::PreparedWeights;
use spg_convnet::workspace::ConvScratch;
use spg_convnet::ConvSpec;
use spg_core::autotune::Phase;
use spg_core::compiled::ConvProgram;
use spg_core::schedule::Technique;
use spg_core::verify::lower_phase;
use spg_workloads::table2::{all_layers, Benchmark};

/// Layers at or above this many arithmetic ops per sample are "hot": the
/// Table 2 layers where forward time concentrates and where the CI gate
/// enforces the regression threshold.
pub const HOT_LAYER_OPS: u64 = 100_000_000;

/// Default timing repetitions (median taken).
pub const DEFAULT_REPS: usize = 5;

/// Flop budget per timed repetition; the pinned per-layer iteration
/// count is derived from it (`ceil(budget / layer_flops)`, clamped).
/// Sized so even the largest Table 2 layer gets a multi-hundred-ms
/// timing window per repetition — short windows made the speedup ratio
/// too noisy to gate on.
const REP_FLOP_BUDGET: u64 = 4_000_000_000;

/// Upper clamp on the per-layer iteration count so cold layers do not
/// dominate wall time.
const MAX_ITERS: usize = 64;

/// One layer's generic-vs-specialized measurement.
#[derive(Debug, Clone)]
pub struct LayerResult {
    /// Table 2 benchmark label (e.g. `ImageNet-22K`).
    pub benchmark: &'static str,
    /// Zero-based conv layer index within the benchmark.
    pub layer: usize,
    /// The layer geometry.
    pub spec: ConvSpec,
    /// Whether the layer meets the [`HOT_LAYER_OPS`] threshold.
    pub hot: bool,
    /// Arithmetic ops per sample.
    pub flops: u64,
    /// Pinned forward calls per timed repetition.
    pub iters: usize,
    /// Median generic-loop throughput.
    pub generic_gflops: f64,
    /// Median specialized-instance throughput, when an instance resolved.
    pub specialized_gflops: Option<f64>,
    /// Median of the per-repetition specialized/generic throughput
    /// ratios (the repetitions are interleaved pairs, so machine-load
    /// drift cancels). Present when an instance resolved.
    pub speedup: Option<f64>,
    /// `"specialized"` when a registry instance resolved for this layer
    /// on this host, `"generic"` otherwise.
    pub kernel: &'static str,
    /// ISA of the resolved instance (`"avx2"` / `"avx512"`).
    pub isa: Option<&'static str>,
}

/// The full suite's results plus the run parameters that pin the work.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Timing repetitions per measurement (median taken).
    pub reps: usize,
    /// SIMD level detected on the measuring host.
    pub simd_level: &'static str,
    /// Per-layer results in Table 2 order.
    pub layers: Vec<LayerResult>,
}

/// The pinned iteration count for a layer: enough forward calls to fill
/// `REP_FLOP_BUDGET`, clamped to `1..=MAX_ITERS`. Deterministic in
/// the spec, so baseline and PR runs execute identical work.
pub fn pinned_iters(flops: u64) -> usize {
    let per_budget = REP_FLOP_BUDGET.div_ceil(flops.max(1));
    usize::try_from(per_budget).unwrap_or(MAX_ITERS).clamp(1, MAX_ITERS)
}

/// Times one repetition — `iters` forward calls through `exec` — and
/// returns its GFLOP/s.
fn time_rep(
    exec: &ConvProgram,
    input: &[f32],
    weights: &PreparedWeights,
    output: &mut [f32],
    scratch: &mut ConvScratch,
    iters: usize,
) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        exec.forward(input, weights, output, scratch);
    }
    let secs = start.elapsed().as_secs_f64().max(1e-12);
    #[allow(clippy::cast_precision_loss)]
    let work = (exec.spec().arithmetic_ops() * iters as u64) as f64;
    work / secs / 1e9
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Runs the generic-vs-specialized benchmark over every Table 2 conv
/// layer, single-core.
///
/// # Panics
///
/// Panics if `reps == 0`.
pub fn run(reps: usize) -> BenchReport {
    run_layers(all_layers(), reps)
}

/// [`run`] over an explicit layer list.
fn run_layers(layers: Vec<(Benchmark, usize, ConvSpec)>, reps: usize) -> BenchReport {
    assert!(reps > 0, "repetition count must be positive");
    let layers = layers
        .into_iter()
        .map(|(bench, layer, spec)| run_layer(bench, layer, &spec, reps))
        .collect();
    BenchReport {
        reps,
        simd_level: match spg_gemm::detect_simd_level() {
            spg_gemm::SimdLevel::Avx512Fma => "avx512",
            spg_gemm::SimdLevel::Avx2Fma => "avx2",
            spg_gemm::SimdLevel::Scalar => "scalar",
        },
        layers,
    }
}

fn run_layer(bench: Benchmark, layer: usize, spec: &ConvSpec, reps: usize) -> LayerResult {
    let flops = spec.arithmetic_ops();
    let iters = pinned_iters(flops);
    let input: Vec<f32> =
        (0..spec.input_shape().len()).map(|i| (((i * 31 + 7) % 17) as f32 - 8.0) / 6.0).collect();
    let weights: Vec<f32> =
        (0..spec.weight_shape().len()).map(|i| (((i * 13 + 3) % 11) as f32 - 5.0) / 4.0).collect();
    let mut output = vec![0.0f32; spec.output_shape().len()];
    let mut scratch = ConvScratch::new();

    let lowered = |kernel| {
        lower_phase(spec, Technique::StencilFp, Phase::Forward, 1, kernel)
            .unwrap_or_else(|e| panic!("stencil plan for {spec}: {e}"))
    };
    let generic_exec = lowered(KernelChoice::Generic);
    // Auto lowering binds the verified registry instance for this shape
    // when one resolves on this host.
    let auto_exec = lowered(KernelChoice::Auto);
    let inst = auto_exec.specialized_kernel();
    // Each plan reads the weights padded to its own register tile.
    let (generic_weights, auto_weights) =
        (generic_exec.prepared(&weights), auto_exec.prepared(&weights));

    // Warm-up pays one-time buffer growth and code-path warming.
    generic_exec.forward(&input, &generic_weights, &mut output, &mut scratch);
    if inst.is_some() {
        auto_exec.forward(&input, &auto_weights, &mut output, &mut scratch);
    }
    // Interleave generic/specialized repetitions so machine-load drift
    // over the run hits both kernels alike: the per-layer speedup ratio
    // (what the CI gate compares) stays stable even when absolute
    // throughput wobbles.
    let mut generic_samples = Vec::with_capacity(reps);
    let mut special_samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        generic_samples.push(time_rep(
            &generic_exec,
            &input,
            &generic_weights,
            &mut output,
            &mut scratch,
            iters,
        ));
        if inst.is_some() {
            special_samples.push(time_rep(
                &auto_exec,
                &input,
                &auto_weights,
                &mut output,
                &mut scratch,
                iters,
            ));
        }
    }
    let generic_gflops = median(generic_samples.clone());
    let (specialized_gflops, speedup) = if inst.is_some() {
        let s = median(special_samples.clone());
        // Median of per-pair ratios, not ratio of medians: each
        // interleaved pair ran back to back, so slow phases of the
        // machine cancel out of the ratio.
        let ratios: Vec<f64> =
            generic_samples.iter().zip(&special_samples).map(|(g, s)| s / g.max(1e-12)).collect();
        (Some(s), Some(median(ratios)))
    } else {
        (None, None)
    };
    LayerResult {
        benchmark: bench.label(),
        layer,
        spec: *spec,
        hot: flops >= HOT_LAYER_OPS,
        flops,
        iters,
        generic_gflops,
        specialized_gflops,
        speedup,
        kernel: if inst.is_some() { "specialized" } else { "generic" },
        isa: inst.map(|k| k.level().id()),
    }
}

impl BenchReport {
    /// Serializes the report as the `spgcnn-bench-kernels` JSON document
    /// `tools/bench_gate.sh` consumes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"spgcnn-bench-kernels\",\n");
        out.push_str("  \"schema_version\": 1,\n");
        out.push_str(&format!("  \"reps\": {},\n", self.reps));
        out.push_str(&format!("  \"simd_level\": \"{}\",\n", self.simd_level));
        out.push_str("  \"layers\": [");
        for (i, l) in self.layers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let opt = |v: Option<f64>| match v {
                Some(v) if v.is_finite() => format!("{v:.4}"),
                _ => "null".to_string(),
            };
            let isa = match l.isa {
                Some(isa) => format!("\"{isa}\""),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "\n    {{\"benchmark\": \"{}\", \"layer\": {}, \"spec\": \"{}\", \
                 \"hot\": {}, \"flops\": {}, \"iters\": {}, \"generic_gflops\": {:.4}, \
                 \"specialized_gflops\": {}, \"speedup\": {}, \"kernel\": \"{}\", \"isa\": {}}}",
                l.benchmark,
                l.layer,
                l.spec,
                l.hot,
                l.flops,
                l.iters,
                l.generic_gflops,
                opt(l.specialized_gflops),
                opt(l.speedup),
                l.kernel,
                isa,
            ));
        }
        if !self.layers.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Human-readable table for terminal output.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "generic vs specialized stencil forward, single core \
             (median of {}, simd {})\n{:<14} {:>5} {:>22} {:>4} {:>6} {:>12} {:>12} {:>8}  {}\n",
            self.reps,
            self.simd_level,
            "benchmark",
            "layer",
            "spec",
            "hot",
            "iters",
            "generic",
            "special",
            "speedup",
            "kernel"
        );
        for l in &self.layers {
            let special = l.specialized_gflops.map_or("-".to_string(), |v| format!("{v:.2}"));
            let speedup = l.speedup.map_or("-".to_string(), |v| format!("{v:.3}x"));
            out.push_str(&format!(
                "{:<14} {:>5} {:>22} {:>4} {:>6} {:>12.2} {:>12} {:>8}  {}{}\n",
                l.benchmark,
                l.layer,
                l.spec.to_string(),
                if l.hot { "hot" } else { "-" },
                l.iters,
                l.generic_gflops,
                special,
                speedup,
                l.kernel,
                l.isa.map_or(String::new(), |i| format!(" ({i})")),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_iters_are_deterministic_and_clamped() {
        assert_eq!(pinned_iters(REP_FLOP_BUDGET), 1);
        assert_eq!(pinned_iters(REP_FLOP_BUDGET * 10), 1);
        assert_eq!(pinned_iters(REP_FLOP_BUDGET / 4), 4);
        assert_eq!(pinned_iters(1), MAX_ITERS);
        assert_eq!(pinned_iters(0), MAX_ITERS);
    }

    /// The Table 2 layers the report test sweeps: full-size under release
    /// optimization (CI), geometry-shrunk in debug builds, where the
    /// unoptimized full sweep takes minutes.
    fn report_layers() -> Vec<(Benchmark, usize, ConvSpec)> {
        let mut layers = all_layers();
        if cfg!(debug_assertions) {
            for (_, _, spec) in &mut layers {
                *spec = spg_workloads::table2::shrunk(spec);
            }
        }
        layers
    }

    #[test]
    fn report_covers_every_table2_layer_and_validates() {
        let report = run_layers(report_layers(), 1);
        let table2 = all_layers();
        assert_eq!(report.layers.len(), table2.len());
        for (l, (bench, layer, _)) in report.layers.iter().zip(&table2) {
            assert_eq!((l.benchmark, l.layer), (bench.label(), *layer));
            assert_eq!(l.hot, l.flops >= HOT_LAYER_OPS, "{} L{}", l.benchmark, l.layer);
        }
        // 9 of the 12 Table 2 layers clear the hot threshold: the report
        // says so on the full-size sweep, the geometries themselves always.
        let hot_specs = table2.iter().filter(|(_, _, s)| s.arithmetic_ops() >= HOT_LAYER_OPS);
        assert_eq!(hot_specs.count(), 9);
        if !cfg!(debug_assertions) {
            assert_eq!(report.layers.iter().filter(|l| l.hot).count(), 9);
        }
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"spgcnn-bench-kernels\""));
        for l in &report.layers {
            assert!(l.generic_gflops > 0.0, "{} L{}", l.benchmark, l.layer);
            assert_eq!(l.kernel == "specialized", l.speedup.is_some());
        }
        assert!(report.render_table().contains("speedup"));
    }
}
