//! `spg-benchmark`: the repo's end-to-end and per-layer benchmark,
//! measured from outside the program through its public functions.
//!
//! ```text
//! spg-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run (what the driver calls)
//! spg-benchmark [--seed N] [--seconds S] [--repeat N] [--smoke]    every workload, untraced then traced
//! spg-benchmark compare A.json B.json                              judge B against A by the bounds
//! ```

mod compare;
mod doc;
mod host;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use doc::{Metric, RunDoc};
use host::Host;
use workloads::Env;

/// `run_seconds` of BENCHMARK.json: how long one run measures.
const RUN_SECONDS: f64 = 15.0;
/// What `--smoke` measures for instead.
const SMOKE_SECONDS: f64 = 0.4;

const USAGE: &str =
    "usage: spg-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--smoke] [--repeat N] [--p N]\n       spg-benchmark compare A.json B.json";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
    p: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
        p: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &String| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let s: f64 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} is outside (0, 60]"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--smoke" => out.smoke = true,
            "--repeat" => out.repeat = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--p" => out.p = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if out.repeat == 0 {
        return Err("--repeat must be at least 1".to_owned());
    }
    Ok(out)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_doc_path(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!("run-{workload}-t{}.json", u8::from(trace)))
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// One workload, one mode, in this process.
fn run_one(args: &Args, name: &str) -> Result<RunDoc, String> {
    let host = Host::stamp(args.p, args.seed)?;
    let seconds = args.seconds.unwrap_or(if args.smoke { SMOKE_SECONDS } else { RUN_SECONDS });
    let env = Env { p: host.p, smoke: args.smoke, seed: args.seed, seconds };
    let w = workloads::workload(name, env).ok_or_else(|| {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.0).collect();
        format!("unknown workload `{name}`; known: {}", known.join(", "))
    })?;
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;

    let mut doc = RunDoc {
        workload: w.name.to_owned(),
        trace: args.trace,
        seconds,
        smoke: args.smoke,
        host,
        plans: Vec::new(),
        checks: Vec::new(),
        ops_attempted: 0,
        ops_failed: 0,
        metrics: Vec::new(),
        detail: Vec::new(),
    };
    if args.trace {
        let t = probes::traced(&w, env)?;
        let path = out_dir().join(format!("trace-{}.json", w.name));
        t.tracer.write_chrome(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        doc.plans = t.plans;
        doc.checks = t.checks;
        doc.ops_attempted = t.attempted;
        doc.ops_failed = t.failed;
        doc.metrics = t.metrics;
        doc.detail = t.detail;
    } else {
        // spg_telemetry stays disabled: the untraced run pays only its
        // one-relaxed-load disabled path.
        let e = workloads::end_to_end(&w, env)?;
        if e.op_s.is_empty() {
            return Err("no operation was timed".to_owned());
        }
        let violated = e.checks.iter().filter(|c| !c.passed).count() as u64;
        doc.ops_attempted = e.op_s.len() as u64 + e.checks.len() as u64;
        doc.ops_failed = e.failed_ops + violated;
        doc.metrics = vec![
            Metric::new(
                "throughput_per_s_p95",
                "1/s",
                stats::fast_block_rate(&e.op_s, e.units_per_op),
            ),
            Metric::new("latency_ms_p5", "ms", stats::fast_latency(&e.latency_ms)),
            Metric::new("peak_rss_mb", "MB", host::peak_rss_mb()),
            Metric::new("setup_s", "s", stats::median(&e.setup_s)),
        ];
        doc.detail = vec![
            Metric::new("check_s", "s", e.check_s),
            Metric::new("timed_ops", "count", e.op_s.len() as f64),
            Metric::new("timed_s", "s", e.op_s.iter().sum()),
            // What medians would have read on this run.
            Metric::new(
                "throughput_per_s_p50",
                "1/s",
                stats::median(&stats::block_rates(&e.op_s, e.units_per_op)),
            ),
            Metric::new("latency_ms_p50", "ms", stats::median(&e.latency_ms)),
        ];
        // The highest percentile with ten samples beyond it, if any.
        for q in [0.999, 0.99, 0.9] {
            if stats::percentile_supported(e.latency_ms.len(), q) {
                let name = format!("latency_ms_p{}", (q * 1000.0).round() / 10.0);
                doc.detail.push(Metric::new(name, "ms", stats::percentile(&e.latency_ms, q)));
                break;
            }
        }
        doc.plans = e.plans;
        doc.checks = e.checks;
    }
    let path = run_doc_path(w.name, args.trace);
    std::fs::write(&path, doc.to_json() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(doc)
}

fn report_one(doc: &RunDoc) {
    let h = &doc.host;
    println!(
        "{} trace={} seed={} seconds={} | host: nproc={} P={} simd={} {} load1m={}",
        doc.workload,
        u8::from(doc.trace),
        h.seed,
        doc.seconds,
        h.nproc,
        h.p,
        h.simd,
        h.rustc,
        h.loadavg_1m
    );
    for (layer, algo) in &doc.plans {
        println!("  plan {layer}: {algo}");
    }
    for c in &doc.checks {
        println!(
            "  check {}: {} ({})",
            c.name,
            if c.passed { "passed" } else { "FAILED" },
            c.detail
        );
    }
    print_metrics(if doc.trace { "per-layer metrics" } else { "end-to-end metrics" }, &doc.metrics);
    print_metrics("detail", &doc.detail);
    println!("  ops_attempted={} ops_failed={}", doc.ops_attempted, doc.ops_failed);
}

/// Every workload, each mode in its own child process (clean `VmHWM`).
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut docs = Vec::new();
    let mut all_ok = true;
    for rep in 0..args.repeat {
        for (name, _) in spec::WORKLOADS {
            for trace in [false, true] {
                let mut cmd = std::process::Command::new(&exe);
                cmd.args(["--workload", name, "--seed", &args.seed.to_string()]);
                cmd.args(["--trace", if trace { "1" } else { "0" }]);
                if let Some(s) = args.seconds {
                    cmd.args(["--seconds", &s.to_string()]);
                }
                if let Some(p) = args.p {
                    cmd.args(["--p", &p.to_string()]);
                }
                if args.smoke {
                    cmd.arg("--smoke");
                }
                println!("--- run {}/{}: {name} trace={}", rep + 1, args.repeat, u8::from(trace));
                let status = cmd.status().map_err(|e| format!("{}: {e}", exe.display()))?;
                all_ok &= status.success();
                let path = run_doc_path(name, trace);
                if status.success() {
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    docs.extend(doc::results_from_json(&text)?);
                }
            }
        }
    }
    let path = out_dir().join("results.json");
    std::fs::write(&path, doc::results_to_json(&docs))
        .map_err(|e| format!("{}: {e}", path.display()))?;

    println!("=== end-to-end summary (median of {} run(s), tracing off)", args.repeat);
    for ((workload, metric), values) in doc::end_to_end_values(&docs) {
        let unit = spec::end_to_end(&metric).map_or("", |m| m.unit);
        let spread = match stats::quartiles(&values) {
            Some(_) => format!("spread {:.1}%", stats::quartile_spread(&values) * 100.0),
            None => "spread n/a (one run)".to_owned(),
        };
        println!(
            "  {workload:<30} {metric:<17} {:>14.4} {unit:<4} {spread}",
            stats::median(&values)
        );
    }
    let failed: u64 = docs.iter().map(|d| d.ops_failed).sum();
    let attempted: u64 = docs.iter().map(|d| d.ops_attempted).sum();
    println!("  ops_attempted={attempted} ops_failed={failed}");
    println!("results: {}", path.display());
    Ok(all_ok && failed == 0)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| doc::results_from_json(&t))
    };
    let (report, passed) = compare::compare(&read(a)?, &read(b)?);
    print!("{report}");
    Ok(passed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => compare_files(a, b),
            _ => Err(USAGE.to_owned()),
        },
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse_args(&argv).and_then(|args| match &args.workload {
            Some(name) => run_one(&args, name).map(|doc| {
                report_one(&doc);
                // The contract's result: the last line of standard output.
                println!("{}", doc.contract_line());
                doc.correct()
            }),
            None => run_all(&args),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("spg-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spg_telemetry::json::{self, Value};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let a =
            parse_args(&argv("--workload serve_cifar10 --seed 7 --seconds 8 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("serve_cifar10"), 7, Some(8.0), true)
        );
        let a = parse_args(&argv("--smoke --repeat 3")).unwrap();
        assert!(a.smoke && a.repeat == 3 && a.workload.is_none() && !a.trace);
        for bad in [
            "--trace 2",
            "--seconds 0",
            "--seconds 61",
            "--seed x",
            "--repeat 0",
            "--wat",
            "--seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn run_seconds_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(doc.get("run_seconds").and_then(Value::as_number), Some(RUN_SECONDS));
    }

    /// Both run modes of all five workloads on the scaled nets, in this
    /// process: every metric of each mode is present and finite, every
    /// invariant holds, nothing fails.
    #[test]
    fn smoke_runs_every_workload_in_both_modes() {
        for (name, _) in spec::WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    workload: Some((*name).to_owned()),
                    seed: 3,
                    seconds: Some(0.2),
                    trace,
                    smoke: true,
                    repeat: 1,
                    p: None,
                };
                let doc =
                    run_one(&args, name).unwrap_or_else(|e| panic!("{name} trace={trace}: {e}"));
                let expected = if trace { spec::PER_LAYER } else { spec::END_TO_END };
                assert_eq!(doc.metrics.len(), expected.len(), "{name}");
                for (m, def) in doc.metrics.iter().zip(expected) {
                    assert_eq!((m.name.as_str(), m.unit.as_str()), (def.name, def.unit));
                    assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
                }
                assert!(doc.correct(), "{name} trace={trace}: {:?}", doc.checks);
                assert!(doc.ops_attempted >= 1);
                if !trace {
                    assert!(doc.metrics.iter().all(|m| m.value > 0.0), "{name}: {:?}", doc.metrics);
                    assert!(!doc.checks.is_empty() && !doc.plans.is_empty());
                }
                json::parse(&doc.contract_line()).expect("contract line is JSON");
            }
        }
    }
}
