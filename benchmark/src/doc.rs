//! The result documents: one [`RunDoc`] per workload run, gathered into
//! `benchmark/out/results.json` by a full run. Written and read with the
//! repo's own dependency-free JSON helpers.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use spg_telemetry::json::{self, Value};

use crate::host::Host;

/// Name of the per-run schema.
pub const RUN_SCHEMA: &str = "spg-benchmark-run";
/// Name of the gathered schema.
pub const RESULTS_SCHEMA: &str = "spg-benchmark-results";
/// Version of both.
pub const SCHEMA_VERSION: u64 = 1;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name from the catalogue (or a detail row's own name).
    pub name: String,
    /// Unit, as BENCHMARK.json spells it.
    pub unit: String,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, unit: &str, value: f64) -> Self {
        Metric { name: name.into(), unit: unit.to_owned(), value }
    }
}

/// One invariant checked before timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Which invariant.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// What was compared.
    pub detail: String,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDoc {
    /// Workload name.
    pub workload: String,
    /// Whether this was the traced (per-layer) run.
    pub trace: bool,
    /// `--seconds` the run was asked to measure for.
    pub seconds: f64,
    /// Whether the scaled smoke nets were used.
    pub smoke: bool,
    /// Where it ran.
    pub host: Host,
    /// `(layer label, algorithm id)` the planner chose, in layer order.
    pub plans: Vec<(String, String)>,
    /// Invariants checked before timing.
    pub checks: Vec<Check>,
    /// Timed operations plus invariant comparisons.
    pub ops_attempted: u64,
    /// Operations that failed or invariants that did not hold.
    pub ops_failed: u64,
    /// The contract's metrics for this mode.
    pub metrics: Vec<Metric>,
    /// Further rows (per-conv breakdowns, sample counts, check time).
    pub detail: Vec<Metric>,
}

fn metrics_json(metrics: &[Metric]) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{{\"name\":{},\"unit\":{},\"value\":{}}}",
                json::string(&m.name),
                json::string(&m.unit),
                json::number(m.value)
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?.as_number().ok_or_else(|| format!("`{key}` is not a number"))
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    Ok(field(v, key)?.as_str().ok_or_else(|| format!("`{key}` is not a string"))?.to_owned())
}

fn flag(v: &Value, key: &str) -> Result<bool, String> {
    match field(v, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("`{key}` is not a boolean")),
    }
}

fn list<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    field(v, key)?.as_array().ok_or_else(|| format!("`{key}` is not an array"))
}

#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn whole(v: &Value, key: &str) -> Result<u64, String> {
    let n = num(v, key)?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("`{key}` is not a whole number"));
    }
    Ok(n as u64)
}

fn parse_metrics(v: &Value, key: &str) -> Result<Vec<Metric>, String> {
    list(v, key)?
        .iter()
        .map(|m| {
            Ok(Metric { name: text(m, "name")?, unit: text(m, "unit")?, value: num(m, "value")? })
        })
        .collect()
}

impl RunDoc {
    /// Whether every invariant held and no operation failed.
    pub fn correct(&self) -> bool {
        self.ops_failed == 0 && self.checks.iter().all(|c| c.passed)
    }

    /// The contract's last line of standard output.
    pub fn contract_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.ops_attempted.max(1),
            self.ops_failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}{}:{{\"value\":{},\"unit\":{}}}",
                json::string(&m.name),
                json::number(m.value),
                json::string(&m.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// Serializes the document.
    pub fn to_json(&self) -> String {
        let h = &self.host;
        let plans: Vec<String> = self
            .plans
            .iter()
            .map(|(l, a)| format!("{{\"layer\":{},\"algo\":{}}}", json::string(l), json::string(a)))
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":{},\"passed\":{},\"detail\":{}}}",
                    json::string(&c.name),
                    c.passed,
                    json::string(&c.detail)
                )
            })
            .collect();
        format!(
            "{{\"schema\":{},\"version\":{SCHEMA_VERSION},\"workload\":{},\"trace\":{},\
             \"seconds\":{},\"smoke\":{},\
             \"host\":{{\"nproc\":{},\"P\":{},\"simd\":{},\"rustc\":{},\"loadavg_1m\":{},\"seed\":{}}},\
             \"plans\":[{}],\"checks\":[{}],\"correct\":{},\"ops_attempted\":{},\"ops_failed\":{},\
             \"metrics\":{},\"detail\":{}}}",
            json::string(RUN_SCHEMA),
            json::string(&self.workload),
            self.trace,
            json::number(self.seconds),
            self.smoke,
            h.nproc,
            h.p,
            json::string(&h.simd),
            json::string(&h.rustc),
            json::number(h.loadavg_1m),
            h.seed,
            plans.join(","),
            checks.join(","),
            self.correct(),
            self.ops_attempted,
            self.ops_failed,
            metrics_json(&self.metrics),
            metrics_json(&self.detail),
        )
    }

    /// Reads a document back.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    #[allow(clippy::cast_possible_truncation)]
    pub fn from_value(v: &Value) -> Result<RunDoc, String> {
        if text(v, "schema")? != RUN_SCHEMA {
            return Err(format!("not a {RUN_SCHEMA} document"));
        }
        if whole(v, "version")? != SCHEMA_VERSION {
            return Err(format!("unsupported {RUN_SCHEMA} version"));
        }
        let h = field(v, "host")?;
        let host = Host {
            nproc: whole(h, "nproc")? as usize,
            p: whole(h, "P")? as usize,
            simd: text(h, "simd")?,
            rustc: text(h, "rustc")?,
            loadavg_1m: num(h, "loadavg_1m")?,
            seed: whole(h, "seed")?,
        };
        let plans = list(v, "plans")?
            .iter()
            .map(|p| Ok((text(p, "layer")?, text(p, "algo")?)))
            .collect::<Result<_, String>>()?;
        let checks = list(v, "checks")?
            .iter()
            .map(|c| {
                Ok(Check {
                    name: text(c, "name")?,
                    passed: flag(c, "passed")?,
                    detail: text(c, "detail")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(RunDoc {
            workload: text(v, "workload")?,
            trace: flag(v, "trace")?,
            seconds: num(v, "seconds")?,
            smoke: flag(v, "smoke")?,
            host,
            plans,
            checks,
            ops_attempted: whole(v, "ops_attempted")?,
            ops_failed: whole(v, "ops_failed")?,
            metrics: parse_metrics(v, "metrics")?,
            detail: parse_metrics(v, "detail")?,
        })
    }
}

/// Serializes a full run's documents as `results.json`.
pub fn results_to_json(runs: &[RunDoc]) -> String {
    let docs: Vec<String> = runs.iter().map(RunDoc::to_json).collect();
    format!(
        "{{\"schema\":{},\"version\":{SCHEMA_VERSION},\"runs\":[\n{}\n]}}\n",
        json::string(RESULTS_SCHEMA),
        docs.join(",\n")
    )
}

/// Reads `results.json` (or a single run document) back.
///
/// # Errors
///
/// Malformed JSON or a document of another schema.
pub fn results_from_json(text_in: &str) -> Result<Vec<RunDoc>, String> {
    let v = json::parse(text_in)?;
    match text(&v, "schema")?.as_str() {
        RUN_SCHEMA => Ok(vec![RunDoc::from_value(&v)?]),
        RESULTS_SCHEMA => list(&v, "runs")?.iter().map(RunDoc::from_value).collect(),
        other => Err(format!("unknown schema `{other}`")),
    }
}

/// Untraced values of every end-to-end metric, grouped by
/// `(workload, metric)` across the repeated runs of one document.
pub fn end_to_end_values(runs: &[RunDoc]) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in runs.iter().filter(|r| !r.trace) {
        for m in &run.metrics {
            out.entry((run.workload.clone(), m.name.clone())).or_default().push(m.value);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunDoc {
        RunDoc {
            workload: "serve_cifar10".to_owned(),
            trace: false,
            seconds: 8.0,
            smoke: true,
            host: Host {
                nproc: 2,
                p: 2,
                simd: "Avx512Fma".to_owned(),
                rustc: "rustc 1.95.0 (\"quoted\")".to_owned(),
                loadavg_1m: 0.25,
                seed: 42,
            },
            plans: vec![("conv0".to_owned(), "stencil-fp+gemm-in-parallel/avx512".to_owned())],
            checks: vec![Check {
                name: "served_logits".to_owned(),
                passed: true,
                detail: "64 inputs".to_owned(),
            }],
            ops_attempted: 1064,
            ops_failed: 0,
            metrics: vec![
                Metric::new("throughput_per_s_p95", "1/s", 3_512.062_5),
                Metric::new("setup_s", "s", 0.812_7),
            ],
            detail: vec![Metric::new("check_s", "s", 0.031)],
        }
    }

    #[test]
    fn run_and_results_documents_round_trip() {
        let doc = sample();
        let back = results_from_json(&doc.to_json()).unwrap();
        assert_eq!(back, vec![doc.clone()]);
        let mut traced = doc.clone();
        traced.trace = true;
        let all = vec![doc.clone(), traced];
        assert_eq!(results_from_json(&results_to_json(&all)).unwrap(), all);
        // Only untraced runs feed the end-to-end comparison.
        let grouped = end_to_end_values(&all);
        assert_eq!(grouped[&("serve_cifar10".to_owned(), "setup_s".to_owned())], vec![0.812_7]);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let mut doc = sample();
        let v = json::parse(&doc.contract_line()).unwrap();
        let Value::Object(map) = &v else { panic!("object") };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let m = v.get("metrics").and_then(|m| m.get("throughput_per_s_p95")).unwrap();
        assert_eq!(m.get("value").and_then(Value::as_number), Some(3_512.062_5));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("1/s"));
        // A failed check makes the run incorrect.
        doc.checks[0].passed = false;
        assert!(!doc.correct());
    }

    #[test]
    fn malformed_documents_are_rejected_with_the_field_name() {
        assert!(results_from_json("{").is_err());
        assert!(results_from_json("{\"schema\":\"other\"}").unwrap_err().contains("other"));
        let broken = sample().to_json().replace("\"ops_failed\":0", "\"ops_failed\":-1");
        assert!(results_from_json(&broken).unwrap_err().contains("ops_failed"));
    }
}
