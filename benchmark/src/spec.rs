//! The benchmark's catalogue: workload names, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the repo root
//! states the same lists; a unit test keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

/// `(name, why)` of every workload, in run order.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "train_imagenet1k",
        "Full ImageNet-1K net, batch 2P: conv/GEMM kernels are over 90% of a step, so kernel, layout and fusion work shows here and pool hand-off does not.",
    ),
    (
        "train_cifar10",
        "Same trainer path on the small CIFAR-10 net, batch 32: pool hand-off, ordered merge and apply_update are a large share, so runtime work shows here and big-kernel work should not.",
    ),
    (
        "serve_cifar10",
        "Closed loop of 8P requests through Server: per-worker 1-core compiled kernels plus queue, micro-batcher and reply path; forward-only, so backward and sparse work must not move it.",
    ),
    (
        "forward_imagenet22k_b1",
        "One image at a time through Engine::forward with the planner's plan on the ImageNet-22K net: batch-starved, so per-call workspace allocation and Parallel-GEMM do everything.",
    ),
    (
        "cluster_mnist_ring",
        "World-P ring SGD over socketpairs on the FC-heavy MNIST net: frame encode, CRC, UDS and the ordered chain dominate the step; same arithmetic as the trainer, plus the wire.",
    ),
];

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("throughput_per_s_p95", "1/s", Higher, 0.25),
    e2e("latency_ms_p5", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("gemm.sgemm_gflops", "gflop/s", Higher),
    layer("gemm.parallel_gemm_gflops", "gflop/s", Higher),
    layer("core.conv0.fwd_ms", "ms", Lower),
    layer("core.conv0.fwd_gflops", "gflop/s", Higher),
    layer("core.conv0.bwd_data_ms", "ms", Lower),
    layer("core.conv0.bwd_weights_ms", "ms", Lower),
    layer("core.conv0.banded_fwd_ms", "ms", Lower),
    layer("core.conv_all.fwd_ms", "ms", Lower),
    layer("core.conv_all.fwd_gflops", "gflop/s", Higher),
    layer("core.conv_all.bwd_data_ms", "ms", Lower),
    layer("core.conv_all.bwd_weights_ms", "ms", Lower),
    layer("core.conv_all.banded_fwd_ms", "ms", Lower),
    layer("core.plan_ms", "ms", Lower),
    layer("core.compile_ms", "ms", Lower),
    layer("core.bwd_grad_sparsity", "ratio", Higher),
    layer("core.bwd_goodput_gflops", "gflop/s", Higher),
    layer("codegen.specialized_layers", "count", Higher),
    layer("convnet.fwd_conv_ms", "ms", Lower),
    layer("convnet.fwd_fc_ms", "ms", Lower),
    layer("convnet.fwd_other_ms", "ms", Lower),
    layer("convnet.bwd_conv_ms", "ms", Lower),
    layer("convnet.bwd_fc_ms", "ms", Lower),
    layer("convnet.bwd_other_ms", "ms", Lower),
    layer("convnet.apply_update_ms", "ms", Lower),
    layer("convnet.net_build_ms", "ms", Lower),
    layer("convnet.workspace_alloc_ms", "ms", Lower),
    layer("convnet.workspace_mb", "MB", Lower),
    layer("convnet.step_1thread_ms", "ms", Lower),
    layer("convnet.pool_scaling_efficiency", "ratio", Higher),
    layer("convnet.step_unattributed_ms", "ms", Lower),
    layer("serve.start_ms", "ms", Lower),
    layer("serve.submit_us_p50", "us", Lower),
    layer("serve.mean_batch", "count", Higher),
    layer("serve.kernel_ms_per_request", "ms", Lower),
    layer("serve.non_kernel_share", "ratio", Lower),
    layer("serve.reply_lag_us_p50", "us", Lower),
    layer("serve.worker_imbalance", "ratio", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.queue_push_pop_ns", "ns", Lower),
    layer("serve.latency_ms_p99", "ms", Lower),
    layer("cluster.wire.encode_mb_per_s", "MB/s", Higher),
    layer("cluster.wire.decode_mb_per_s", "MB/s", Higher),
    layer("cluster.wire.crc32_mb_per_s", "MB/s", Higher),
    layer("cluster.allreduce.ring_ms", "ms", Lower),
    layer("cluster.allreduce.wire_bytes_per_step", "bytes", Lower),
    layer("cluster.allreduce.frames_per_step", "count", Lower),
    layer("cluster.solo_step_ms", "ms", Lower),
    layer("cluster.ring_overhead_ms", "ms", Lower),
    layer("telemetry.enabled_overhead_share", "ratio", Lower),
    layer("simcpu.fwd_residual", "ratio", Lower),
    layer("bench.trace_overhead_share", "ratio", Lower),
    layer("bench.sum_residual_share", "ratio", Lower),
];

/// The definition of end-to-end metric `name`.
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spg_telemetry::json::{self, Value};

    fn names(v: &Value, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(Value::as_array)
            .expect(key)
            .iter()
            .map(|e| e.get("name").and_then(Value::as_str).expect("name").to_owned())
            .collect()
    }

    /// BENCHMARK.json is what the driver reads; the catalogue is what the
    /// harness prints. They must agree entry for entry.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let Value::Object(map) = &doc else { panic!("object") };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );

        assert_eq!(names(&doc, "workloads"), WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>());
        for (entry, (_, why)) in
            doc.get("workloads").unwrap().as_array().unwrap().iter().zip(WORKLOADS)
        {
            assert_eq!(entry.get("why").and_then(Value::as_str), Some(*why));
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for (key, defs, bounded) in
            [("end_to_end", END_TO_END, true), ("per_layer", PER_LAYER, false)]
        {
            assert_eq!(names(&doc, key), defs.iter().map(|m| m.name).collect::<Vec<_>>());
            for (entry, def) in doc.get(key).unwrap().as_array().unwrap().iter().zip(defs) {
                assert_eq!(
                    entry.get("unit").and_then(Value::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                let better = if def.better == Higher { "higher" } else { "lower" };
                assert_eq!(entry.get("better").and_then(Value::as_str), Some(better));
                let bound = entry.get("bound").and_then(Value::as_number);
                assert_eq!(bound, bounded.then_some(def.bound), "{}", def.name);
            }
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        let all =
            END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).chain(WORKLOADS.iter().map(|w| w.0));
        for name in all {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = end_to_end("setup_s").expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&WORKLOADS.len()));
    }
}
