//! The traced run: the workload itself with spans around every call the
//! harness makes, then one probe per layer of the system.
//!
//! Every traced run reports every per-layer metric. Kernel-level probes
//! (gemm, core, codegen, simcpu, convnet per-layer times) always run on
//! the workload's own net. Probes of a whole subsystem — the trainer
//! pool, the server, the ring — run on the workload's own configuration
//! when the workload is of that kind, and otherwise on that subsystem's
//! home workload (`train_cifar10`, `serve_cifar10`, `cluster_mnist_ring`)
//! at probe length, so the layer is measured the same way everywhere.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use spg_cluster::wire::{crc32, decode_frame, encode_frame, Message};
use spg_cluster::{ring_allreduce, RingLink, SampleGrad};
use spg_convnet::workspace::{ConvScratch, Workspace};
use spg_convnet::{ConvSpec, EpochStats, Network};
use spg_core::backend::{AlgoChoice, AlgoKernel, Backend, ConvDescriptor, CpuBackend};
use spg_core::compiled::CompiledConv;
use spg_core::schedule::{recommended_plan_for_batch, LayerPlan};
use spg_serve::BoundedQueue;
use spg_simcpu::{Machine, SimBackend};
use spg_telemetry::Phase;
use spg_tensor::Tensor;

use crate::doc::{Check, Metric};
use crate::spec::PER_LAYER;
use crate::stats::{median, percentile, percentile_supported};
use crate::trace::Tracer;
use crate::workloads::{
    banded_logits_check, build_net, dataset, framework, plan_ids, reported_latency_ms,
    ring_dataset, ring_steps, step_seconds, workload, Env, ForwardPlans, ForwardSession, Kind,
    ServeSession, TrainSession, Workload, CHUNK_FLOATS, RETUNE_EVERY, REWARM_STEPS,
};

/// Share of an untraced run's timed operations each timed segment of a
/// traced run gets.
const SEGMENT_SHARE: f64 = 0.1;
/// Repetitions a kernel-sized probe takes its median over.
const KERNEL_REPS: usize = 5;

/// What a traced run produced.
pub struct Traced {
    /// Every per-layer metric, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Per-conv breakdowns and sample counts.
    pub detail: Vec<Metric>,
    /// Every span recorded.
    pub tracer: Tracer,
    /// `(layer, algorithm id)` of the workload's own net.
    pub plans: Vec<(String, String)>,
    /// Invariants checked (the band plans, by the forward workload).
    pub checks: Vec<Check>,
    /// Operations attempted by the traced workload segments.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

#[derive(Default)]
struct Sheet {
    values: BTreeMap<&'static str, f64>,
    detail: Vec<Metric>,
}

impl Sheet {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn note(&mut self, name: String, unit: &str, value: f64) {
        self.detail.push(Metric::new(name, unit, value));
    }

    /// Every catalogued metric, in order.
    ///
    /// # Panics
    ///
    /// Panics if a probe forgot one: the contract wants all of them.
    fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|def| {
                let v =
                    self.values.get(def.name).unwrap_or_else(|| panic!("{} not probed", def.name));
                Metric::new(def.name, def.unit, *v)
            })
            .collect()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall time, in milliseconds, of `reps` calls of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            ms(t.elapsed())
        })
        .collect();
    median(&times)
}

/// Operations per traced segment of `w`.
fn segment_ops(env: Env, w: &Workload, at_least: usize) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let n = (SEGMENT_SHARE * env.seconds * w.rate).round() as usize;
    n.max(at_least)
}

fn overhead_share(traced: f64, untraced: f64) -> f64 {
    (traced - untraced) / untraced
}

// ---------------------------------------------------------------------
// convnet: per-layer self times from driving Layer::forward/backward
// ---------------------------------------------------------------------

/// What one net costs per sample, layer by layer.
struct NetCosts {
    /// `[conv, fc, other]` forward self time per sample, ms.
    fwd_ms: [f64; 3],
    /// `[conv, fc, other]` backward self time per sample, ms.
    bwd_ms: [f64; 3],
    /// `Network::apply_gradient_slices`, ms.
    apply_update_ms: f64,
    /// Per conv layer: `(layer index, input, grad_out)` of the last
    /// driven sample — real activations and real gradient sparsity for
    /// the kernel probes.
    conv_io: Vec<(usize, Vec<f32>, Vec<f32>)>,
    /// Mean gradient sparsity entering each conv's backward.
    conv_sparsity: Vec<f64>,
    spans: Tracer,
}

impl NetCosts {
    fn per_sample_ms(&self) -> f64 {
        self.fwd_ms.iter().chain(&self.bwd_ms).sum()
    }
}

fn class_of(layer_name: &str) -> usize {
    match layer_name {
        "conv" => 0,
        "fc" => 1,
        _ => 2,
    }
}

fn zero_share(v: &[f32]) -> f64 {
    v.iter().filter(|x| **x == 0.0).count() as f64 / v.len().max(1) as f64
}

/// Drives `net` one sample at a time with the harness's own buffers, a
/// span around every `Layer::forward` / `Layer::backward` call. The
/// first sample is a warm-up whose gradient sparsities feed the same
/// re-plan a training run makes after `RETUNE_EVERY` steps, so the
/// backward executors are the steady-state ones.
fn net_costs(net: &mut Network, env: Env, origin: Instant, shape: spg_tensor::Shape3) -> NetCosts {
    let data = dataset(shape, 2, env);
    let layers = net.layers().len();
    let mut acts: Vec<Vec<f32>> = std::iter::once(net.input_len())
        .chain(net.layers().iter().map(|l| l.output_len()))
        .map(|n| vec![0.0; n])
        .collect();
    let widest = acts.iter().map(Vec::len).max().unwrap_or(0);
    let (mut grad_a, mut grad_b) = (vec![0.0f32; widest], vec![0.0f32; widest]);
    let mut param_grads: Vec<Tensor> =
        net.layers().iter().map(|l| Tensor::zeros(l.param_count())).collect();
    let mut scratch = ConvScratch::new();
    for spec in net.layers().iter().filter_map(|l| l.conv_spec()) {
        scratch.reserve(spec);
    }
    let names: Vec<(String, String)> = net
        .layers()
        .iter()
        .enumerate()
        .map(|(i, l)| (format!("fwd.L{i:02}.{}", l.name()), format!("bwd.L{i:02}.{}", l.name())))
        .collect();
    let conv_layers: Vec<usize> =
        (0..layers).filter(|&i| net.layers()[i].conv_spec().is_some()).collect();

    let mut spans = Tracer::new(origin, 0, false);
    let mut conv_io = Vec::new();
    let mut sparsity_sums = vec![0.0; conv_layers.len()];
    let budget = Duration::from_secs_f64(SEGMENT_SHARE * env.seconds);
    let begun = Instant::now();
    let mut samples = 0u64;
    // Sample 0 warms up and feeds the re-plan; then at least two traced
    // samples, more while the segment's time lasts.
    for sample in 0u64.. {
        if sample > 2 && (begun.elapsed() >= budget || sample > 20) {
            break;
        }
        spans.set_enabled(sample > 0);
        let which = usize::from(sample % 2 == 1);
        acts[0].copy_from_slice(data.image(which).as_slice());
        let fwd = spans.open("sample.fwd", sample);
        for (i, layer) in net.layers().iter().enumerate() {
            let (prev, rest) = acts.split_at_mut(i + 1);
            let id = spans.open(&names[i].0, sample);
            layer.forward(&prev[i], &mut rest[0], &mut scratch);
            spans.close(id);
        }
        spans.close(fwd);
        let logits = Tensor::from_vec(acts[layers].clone());
        let (_, loss_grad) = Network::loss_and_gradient(&logits, data.label(which));
        grad_a[..loss_grad.len()].copy_from_slice(loss_grad.as_slice());
        conv_io.clear();
        let mut sparsities = Vec::new();
        let bwd = spans.open("sample.bwd", sample);
        for (i, layer) in net.layers().iter().enumerate().rev() {
            let grad_out = &grad_a[..layer.output_len()];
            if layer.conv_spec().is_some() {
                // The harness's own bookkeeping gets its own span, so it
                // is not mistaken for time the layers left unexplained.
                let id = spans.open("harness.capture", sample);
                sparsities.push(zero_share(grad_out));
                conv_io.push((i, acts[i].clone(), grad_out.to_vec()));
                spans.close(id);
            }
            let id = spans.open(&names[i].1, sample);
            layer.backward(
                &acts[i],
                &acts[i + 1],
                grad_out,
                &mut grad_b[..layer.input_len()],
                &mut param_grads[i],
                &mut scratch,
            );
            spans.close(id);
            std::mem::swap(&mut grad_a, &mut grad_b);
        }
        spans.close(bwd);
        sparsities.reverse();
        conv_io.reverse();
        if sample == 0 {
            framework(env).retune(
                net,
                &EpochStats {
                    epoch: RETUNE_EVERY,
                    mean_loss: 0.0,
                    accuracy: 0.0,
                    conv_grad_sparsity: sparsities,
                    images_per_sec: 0.0,
                },
            );
        } else {
            samples += 1;
            for (sum, s) in sparsity_sums.iter_mut().zip(sparsities) {
                *sum += s;
            }
        }
    }

    let mut fwd_ms = [0.0; 3];
    let mut bwd_ms = [0.0; 3];
    for (span, own) in spans.spans().iter().zip(spans.self_times_ns()) {
        let mut parts = span.name.splitn(3, '.');
        let (dir, layer) = (parts.next(), parts.nth(1));
        let slot = match dir {
            Some("fwd") => &mut fwd_ms,
            Some("bwd") => &mut bwd_ms,
            _ => continue,
        };
        slot[class_of(layer.unwrap_or(""))] += own as f64 / 1e6 / samples as f64;
    }
    let apply_update_ms =
        median_ms(3, || net.apply_gradient_slices(black_box(&param_grads), 0.0, 1.0));
    NetCosts {
        fwd_ms,
        bwd_ms,
        apply_update_ms,
        conv_io,
        conv_sparsity: sparsity_sums.iter().map(|s| s / samples as f64).collect(),
        spans,
    }
}

// ---------------------------------------------------------------------
// gemm, core, codegen, simcpu: kernels of the workload's own net
// ---------------------------------------------------------------------

fn compile(
    spec: ConvSpec,
    cores: usize,
    plan: LayerPlan,
    weights: &[f32],
) -> Result<CompiledConv, String> {
    let desc = ConvDescriptor::new(spec, cores);
    let backend = CpuBackend::new();
    backend.compile(&desc, backend.algo_for(&desc, plan), weights).map_err(|e| e.to_string())
}

fn kernel_probes(
    sheet: &mut Sheet,
    net: &Network,
    plans: &[(usize, LayerPlan)],
    costs: &NetCosts,
    env: Env,
) -> Result<(), String> {
    let fw = framework(env);
    let sim = SimBackend::new(Machine::xeon_e5_2650());
    let mut scratch = ConvScratch::new();
    // [fwd, bwd_data, bwd_weights, banded_fwd] ms and forward flops, per conv.
    let mut rows: Vec<([f64; 4], u64)> = Vec::new();
    let (mut compile_ms, mut specialized, mut predicted_s) = (0.0, 0u32, 0.0);
    for ((layer, input, grad_out), sparsity) in costs.conv_io.iter().zip(&costs.conv_sparsity) {
        let spec = *net.layers()[*layer].conv_spec().expect("conv_io lists conv layers");
        let weights = net.layers()[*layer].params().expect("conv layers have parameters");
        let forward =
            plans.iter().find(|p| p.0 == *layer).expect("every conv is planned").1.forward;
        // Steady-state backward: what the trainer re-plans to at this
        // layer's measured gradient sparsity.
        let plan = LayerPlan { forward, backward: fw.plan_layer(&spec, *sparsity).backward };
        let t = Instant::now();
        let one = compile(spec, 1, plan, weights)?;
        compile_ms += ms(t.elapsed());
        specialized += u32::from(one.kernel_kind() == "specialized");
        let banded =
            compile(spec, env.p, recommended_plan_for_batch(&spec, 0.0, env.p, 1), weights)?;

        let mut output = vec![0.0f32; spec.output_shape().len()];
        let mut grad_in = vec![0.0f32; spec.input_shape().len()];
        let mut grad_w = vec![0.0f32; spec.weight_shape().len()];
        scratch.reserve(&spec);
        let row = [
            median_ms(KERNEL_REPS, || {
                one.forward_scratch(input, black_box(&mut output), &mut scratch)
            }),
            median_ms(KERNEL_REPS, || {
                one.backward_data_scratch(grad_out, black_box(&mut grad_in), &mut scratch);
            }),
            median_ms(KERNEL_REPS, || {
                one.backward_weights_scratch(input, grad_out, black_box(&mut grad_w), &mut scratch);
            }),
            median_ms(KERNEL_REPS, || {
                banded.forward_scratch(input, black_box(&mut output), &mut scratch);
            }),
        ];
        rows.push((row, spec.arithmetic_ops()));
        // The model knows techniques, not kernel specializations.
        let desc = ConvDescriptor::new(spec, 1);
        let generic =
            AlgoChoice { kernel: AlgoKernel::Generic, ..CpuBackend::new().algo_for(&desc, plan) };
        let prediction = sim.compile(&desc, generic, weights).map_err(|e| e.to_string())?;
        predicted_s += spec.arithmetic_ops() as f64 / (prediction.fwd_gflops_per_core * 1e9);
    }
    let gflops = |ops: u64, fwd_ms: f64| ops as f64 / fwd_ms / 1e6;
    let (first, first_ops) = *rows.first().ok_or("the net has no conv layer")?;
    let all: Vec<f64> = (0..4).map(|c| rows.iter().map(|r| r.0[c]).sum()).collect();
    let ops_all: u64 = rows.iter().map(|r| r.1).sum();
    sheet.set("core.conv0.fwd_ms", first[0]);
    sheet.set("core.conv0.fwd_gflops", gflops(first_ops, first[0]));
    sheet.set("core.conv0.bwd_data_ms", first[1]);
    sheet.set("core.conv0.bwd_weights_ms", first[2]);
    sheet.set("core.conv0.banded_fwd_ms", first[3]);
    sheet.set("core.conv_all.fwd_ms", all[0]);
    sheet.set("core.conv_all.fwd_gflops", gflops(ops_all, all[0]));
    sheet.set("core.conv_all.bwd_data_ms", all[1]);
    sheet.set("core.conv_all.bwd_weights_ms", all[2]);
    sheet.set("core.conv_all.banded_fwd_ms", all[3]);
    // conv0 is catalogued; the later layers are detail rows.
    for (k, (row, ops)) in rows.iter().enumerate().skip(1) {
        for (what, v) in
            ["fwd_ms", "bwd_data_ms", "bwd_weights_ms", "banded_fwd_ms"].iter().zip(row)
        {
            sheet.note(format!("core.conv{k}.{what}"), "ms", *v);
        }
        sheet.note(format!("core.conv{k}.fwd_gflops"), "gflop/s", gflops(*ops, row[0]));
    }
    sheet.set("core.compile_ms", compile_ms);
    sheet.set("codegen.specialized_layers", f64::from(specialized));
    sheet.set("simcpu.fwd_residual", (all[0] / 1e3 - predicted_s) / predicted_s);

    // The unfolded forward multiply of the heaviest conv: the shape both
    // Parallel-GEMM and GEMM-in-Parallel spend the step in.
    let heaviest = net
        .layers()
        .iter()
        .filter_map(|l| l.conv_spec())
        .max_by_key(|s| s.arithmetic_ops())
        .ok_or("the net has no conv layer")?;
    let (m, n, k) = spg_core::ait::conv_gemm_dims(heaviest).forward;
    let (a, b) = spg_workloads::synth::gemm_operands(m, n, k, env.seed);
    let mut c = spg_tensor::Matrix::zeros(m, n);
    let flops = spg_gemm::gemm_flops(m, n, k) as f64;
    let serial = median_ms(KERNEL_REPS, || {
        spg_gemm::gemm_into(&a, &b, black_box(&mut c)).expect("operands agree");
    });
    let parallel = median_ms(KERNEL_REPS, || {
        black_box(spg_gemm::parallel_gemm(&a, &b, env.p).expect("operands agree"));
    });
    sheet.set("gemm.sgemm_gflops", flops / serial / 1e6);
    sheet.set("gemm.parallel_gemm_gflops", flops / parallel / 1e6);
    sheet.note("gemm.shape_m".to_owned(), "count", m as f64);
    sheet.note("gemm.shape_n".to_owned(), "count", n as f64);
    sheet.note("gemm.shape_k".to_owned(), "count", k as f64);
    Ok(())
}

// ---------------------------------------------------------------------
// convnet pool, telemetry: the trainer at 1 and P threads
// ---------------------------------------------------------------------

/// What a subsystem run's untraced and traced segments measured.
struct Segments {
    /// Median (or mean, for the closed loop) operation time, untraced.
    untraced_ms: f64,
    /// The same with spans recorded; equal to `untraced_ms` when the
    /// segment ran without a tracer.
    traced_ms: f64,
    attempted: u64,
    failed: u64,
}

fn train_probe(
    sheet: &mut Sheet,
    w: &Workload,
    env: Env,
    costs: &NetCosts,
    tracer: Option<&mut Tracer>,
) -> Result<Segments, String> {
    let mut session = TrainSession::new(w, env)?;
    session.steps(env, env.p, w.warm, |_, _, _, _| {})?;
    let n = segment_ops(env, w, 2);

    // One trainer call, so one pool: a re-warm step, then n untraced,
    // n traced and n telemetry-on steps, switched at step boundaries.
    let mut local = Tracer::new(Instant::now(), 0, false);
    let tracing = tracer.is_some();
    let tracer = tracer.unwrap_or(&mut local);
    let mut segments: [Vec<f64>; 3] = Default::default();
    let mut sparsity = Vec::new();
    let mut parent = None;
    session.steps(env, env.p, 1 + 3 * n, |step, start, end, stats| {
        let Some(segment) = step.checked_sub(2).map(|s| s / n) else { return };
        segments[segment].push(ms(end - start));
        if segment == 1 {
            tracer.record("train.step", start, end, step as u64);
        }
        if segment == 2 {
            sparsity.extend(stats.conv_grad_sparsity.iter().copied());
        }
        if step == 1 + n {
            tracer.set_enabled(tracing);
            parent = Some(tracer.open("train.traced", 0));
        } else if step == 1 + 2 * n {
            if let Some(id) = parent.take() {
                tracer.close(id);
            }
            tracer.set_enabled(false);
            spg_telemetry::reset();
            spg_telemetry::set_enabled(true);
        }
    })?;
    spg_telemetry::set_enabled(false);
    let snapshot = spg_telemetry::snapshot();
    let (useful, wall_ns) = snapshot
        .scopes
        .iter()
        .filter(|s| {
            s.label.starts_with("conv")
                && matches!(s.phase, Phase::BackwardData | Phase::BackwardWeights)
        })
        .fold((0u64, 0u64), |(f, ns), s| (f + s.useful_flops, ns + s.wall_ns));

    let mut solo_ms = Vec::new();
    session.steps(env, 1, 1 + n.div_ceil(2).max(2), |step, a, b, _| {
        if step > 1 {
            solo_ms.push(ms(b - a));
        }
    })?;

    let [untraced, traced, telemetry] = segments.map(|s| median(&s));
    let one_thread = median(&solo_ms);
    sheet
        .set("core.bwd_grad_sparsity", sparsity.iter().sum::<f64>() / sparsity.len().max(1) as f64);
    sheet.set("core.bwd_goodput_gflops", useful as f64 / wall_ns.max(1) as f64);
    sheet.set("telemetry.enabled_overhead_share", overhead_share(telemetry, untraced));
    sheet.set("convnet.step_1thread_ms", one_thread);
    // images/s at P over P x images/s at 1: the batch cancels.
    sheet.set("convnet.pool_scaling_efficiency", one_thread / (env.p as f64 * untraced));
    // Merge, sync, spawn: what the per-sample layer times and the update
    // do not explain. Reported, never hidden.
    sheet.set(
        "convnet.step_unattributed_ms",
        untraced - w.batch as f64 * costs.per_sample_ms() / env.p as f64 - costs.apply_update_ms,
    );
    sheet.note("convnet.step_ms_p50".to_owned(), "ms", untraced);
    sheet.note("convnet.probe_steps_per_segment".to_owned(), "count", n as f64);
    Ok(Segments {
        untraced_ms: untraced,
        traced_ms: traced,
        attempted: (1 + 3 * n) as u64,
        failed: 0,
    })
}

// ---------------------------------------------------------------------
// serve: the server under a closed loop, and its queue
// ---------------------------------------------------------------------

/// One request through kernels compiled exactly as the server's workers
/// compile theirs (`cores = 1`), outside any queue or thread hand-off.
fn offline_request_ms(session: &ServeSession) -> Result<f64, String> {
    let net = &*session.net;
    let kernels: Vec<Option<CompiledConv>> = net
        .layers()
        .iter()
        .enumerate()
        .map(|(i, layer)| {
            let Some(spec) = layer.conv_spec() else { return Ok(None) };
            let plan = session.plans.iter().find(|p| p.0 == i).expect("every conv is planned").1;
            compile(*spec, 1, plan, layer.params().expect("conv parameters")).map(Some)
        })
        .collect::<Result<_, String>>()?;
    let widest =
        net.layers().iter().flat_map(|l| [l.input_len(), l.output_len()]).max().unwrap_or(0);
    let (mut cur, mut next) = (vec![0.0f32; widest], vec![0.0f32; widest]);
    let mut scratch = ConvScratch::new();
    let input = &session.inputs[0];
    Ok(median_ms(50, || {
        cur[..input.len()].copy_from_slice(input);
        for (layer, kernel) in net.layers().iter().zip(&kernels) {
            let (i, o) = (layer.input_len(), layer.output_len());
            match kernel {
                Some(k) => k.forward_scratch(&cur[..i], &mut next[..o], &mut scratch),
                None => layer.forward(&cur[..i], &mut next[..o], &mut scratch),
            }
            std::mem::swap(&mut cur, &mut next);
        }
        black_box(&cur);
    }))
}

fn serve_probe(
    sheet: &mut Sheet,
    w: &Workload,
    env: Env,
    tracer: Option<&mut Tracer>,
) -> Result<Segments, String> {
    let session = ServeSession::new(w, env)?;
    let (_, warm) = session.segment(w.warm as u64, |_, _, _, _| {});
    let length = segment_ops(env, w, 1) as u64;

    let begun = Instant::now();
    let (served, stats) = session.segment(length, |_, _, _, _| {});
    let wall_ms = ms(begun.elapsed());
    if served.is_empty() {
        return Err("the serving probe completed no request".to_owned());
    }

    let mut traced_op_ms = wall_ms / served.len() as f64;
    let mut traced_stats = None;
    if let Some(tracer) = tracer {
        tracer.set_enabled(true);
        let parent = tracer.open("serve.traced", 0);
        let begun = Instant::now();
        let (traced, stats) = session.segment(length, |seq, is_submit, t0, t1| {
            tracer.record(if is_submit { "serve.try_submit" } else { "serve.wait" }, t0, t1, seq);
        });
        traced_op_ms = ms(begun.elapsed()) / traced.len().max(1) as f64;
        tracer.close(parent);
        tracer.set_enabled(false);
        traced_stats = Some(stats);
    }

    let kernel_ms = offline_request_ms(&session)?;
    let mut per_worker = BTreeMap::new();
    for s in &served {
        *per_worker.entry(s.response.worker).or_insert(0u64) += 1;
    }
    let busiest = per_worker.values().max().copied().unwrap_or(0);
    let idlest =
        if per_worker.len() < env.p { 0 } else { per_worker.values().min().copied().unwrap_or(0) };
    let lag_us: Vec<f64> = served
        .iter()
        .map(|s| {
            ((s.redeemed - s.submitted).as_secs_f64() - s.response.latency.as_secs_f64()) * 1e6
        })
        .collect();
    let latency = reported_latency_ms(&served);
    sheet.set("serve.start_ms", ms(session.start));
    sheet.set(
        "serve.submit_us_p50",
        median(&served.iter().map(|s| s.submit.as_secs_f64() * 1e6).collect::<Vec<_>>()),
    );
    sheet.set(
        "serve.mean_batch",
        served.iter().map(|s| s.response.batch_size as f64).sum::<f64>() / served.len() as f64,
    );
    sheet.set("serve.kernel_ms_per_request", kernel_ms);
    sheet.set(
        "serve.non_kernel_share",
        1.0 - served.len() as f64 * kernel_ms / (env.p as f64 * wall_ms),
    );
    sheet.set("serve.reply_lag_us_p50", median(&lag_us));
    sheet.set("serve.worker_imbalance", busiest as f64 / idlest.max(1) as f64);
    sheet.set("serve.rejected", stats.failed as f64);
    sheet.set("serve.latency_ms_p99", percentile(&latency, 0.99));
    sheet.note("serve.latency_samples".to_owned(), "count", latency.len() as f64);
    sheet.note(
        "serve.latency_p99_has_ten_beyond".to_owned(),
        "count",
        f64::from(u8::from(percentile_supported(latency.len(), 0.99))),
    );
    sheet.note("serve.latency_ms_p50".to_owned(), "ms", median(&latency));
    sheet.note("serve.requests_per_s".to_owned(), "1/s", served.len() as f64 / wall_ms * 1e3);

    let queue = BoundedQueue::new(64);
    const PAIRS: u64 = 200_000;
    let t = Instant::now();
    for i in 0..PAIRS {
        queue.try_push(i).expect("the queue was just drained");
        black_box(queue.try_pop());
    }
    sheet.set("serve.queue_push_pop_ns", t.elapsed().as_secs_f64() * 1e9 / PAIRS as f64);

    session.shutdown();
    let (traced_done, traced_failed) = traced_stats.map_or((0, 0), |s| (s.completed, s.failed));
    let failed = warm.failed + stats.failed + traced_failed;
    Ok(Segments {
        untraced_ms: wall_ms / served.len() as f64,
        traced_ms: traced_op_ms,
        attempted: warm.completed + stats.completed + traced_done + failed,
        failed,
    })
}

// ---------------------------------------------------------------------
// cluster: the wire format, the all-reduce alone, the ring step
// ---------------------------------------------------------------------

fn wire_probes(sheet: &mut Sheet) {
    const FRAMES: usize = 4000;
    let msg = Message::ReduceChunk {
        epoch: 1,
        batch: 1,
        chunk: 0,
        data: (0..CHUNK_FLOATS).map(|i| i as f32 * 0.5).collect(),
    };
    let frame = encode_frame(&msg);
    let mb = (frame.len() * FRAMES) as f64 / 1e6;
    let rate = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..FRAMES {
            f();
        }
        mb / t.elapsed().as_secs_f64()
    };
    sheet.set(
        "cluster.wire.encode_mb_per_s",
        rate(&mut || drop(black_box(encode_frame(black_box(&msg))))),
    );
    sheet.set(
        "cluster.wire.decode_mb_per_s",
        rate(&mut || {
            drop(black_box(decode_frame(black_box(&frame)).expect("a frame we just encoded")))
        }),
    );
    sheet.set(
        "cluster.wire.crc32_mb_per_s",
        rate(&mut || {
            black_box(crc32(black_box(&frame)));
        }),
    );
}

/// `(frames, bytes)` one all-reduce puts on the wire: every one of the
/// `2 (W - 1)` link traversals carries one `AccMeta` and every chunk.
fn allreduce_traffic(world: usize, grad_len: usize, conv_count: usize) -> (u64, u64) {
    let meta = encode_frame(&Message::AccMeta {
        epoch: 0,
        batch: 0,
        loss_sum_bits: 0,
        correct: 0,
        sparsity_bits: vec![0; conv_count],
    })
    .len();
    let chunk = |floats: usize| {
        encode_frame(&Message::ReduceChunk {
            epoch: 0,
            batch: 0,
            chunk: 0,
            data: vec![0.0; floats],
        })
        .len()
    };
    let (full, tail) = (grad_len / CHUNK_FLOATS, grad_len % CHUNK_FLOATS);
    let frames = 1 + full + usize::from(tail > 0);
    let bytes = meta + full * chunk(CHUNK_FLOATS) + if tail > 0 { chunk(tail) } else { 0 };
    let legs = 2 * (world - 1);
    ((legs * frames) as u64, (legs * bytes) as u64)
}

/// `ring_allreduce` alone: `world` threads over socketpairs, each
/// holding `samples` gradients of `grad_len` floats; per repetition the
/// slowest rank's time, then the median over repetitions.
fn isolated_allreduce_ms(
    world: usize,
    grad_len: usize,
    conv_count: usize,
    samples: usize,
    reps: u32,
    tracer: &mut Tracer,
    origin: Instant,
) -> Result<f64, String> {
    let mut txs: Vec<Option<UnixStream>> = (0..world).map(|_| None).collect();
    let mut rxs: Vec<Option<UnixStream>> = (0..world).map(|_| None).collect();
    for r in 0..world {
        let (a, b) = UnixStream::pair().map_err(|e| e.to_string())?;
        txs[r] = Some(a);
        rxs[(r + 1) % world] = Some(b);
    }
    let barrier = Barrier::new(world);
    let per_rank: Vec<Result<(Vec<f64>, Tracer), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = txs
            .into_iter()
            .zip(rxs)
            .enumerate()
            .map(|(rank, (tx, rx))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut tx = tx.expect("fabric complete");
                    let mut rx = rx.expect("fabric complete");
                    let block: Vec<SampleGrad> = (0..samples)
                        .map(|s| SampleGrad {
                            grads: (0..grad_len).map(|i| ((i + s + rank) % 7) as f32).collect(),
                            loss: 1.0,
                            correct: true,
                            sparsity: vec![0.5; conv_count],
                        })
                        .collect();
                    #[allow(clippy::cast_possible_truncation)]
                    let mut spans = Tracer::new(origin, rank as u32 + 1, true);
                    let mut times = Vec::new();
                    for rep in 0..reps {
                        barrier.wait();
                        let id = spans.open("ring_allreduce", u64::from(rep));
                        let t = Instant::now();
                        let mut link = RingLink {
                            rank,
                            world,
                            rx_prev: &mut rx as &mut dyn Read,
                            tx_next: &mut tx as &mut dyn Write,
                        };
                        let acc = ring_allreduce(
                            &mut link,
                            1,
                            rep,
                            &block,
                            grad_len,
                            conv_count,
                            CHUNK_FLOATS,
                        )
                        .map_err(|e| e.to_string())?;
                        times.push(ms(t.elapsed()));
                        spans.close(id);
                        black_box(acc);
                    }
                    Ok((times, spans))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("rank panicked".to_owned())))
            .collect()
    });
    let mut slowest = vec![0.0f64; reps as usize];
    for rank in per_rank {
        let (times, spans) = rank?;
        tracer.absorb(spans);
        for (s, t) in slowest.iter_mut().zip(times) {
            *s = s.max(t);
        }
    }
    Ok(median(&slowest))
}

fn ring_probe(
    sheet: &mut Sheet,
    w: &Workload,
    env: Env,
    tracer: &mut Tracer,
    trace_steps: bool,
    origin: Instant,
) -> Result<Segments, String> {
    let data = ring_dataset(w, env);
    ring_steps(w, env, &data, env.p, w.warm)?;
    let n = segment_ops(env, w, 5);
    let timed = |stats: &[EpochStats]| median(&step_seconds(&stats[REWARM_STEPS..], w.batch)) * 1e3;
    let step_ms = timed(&ring_steps(w, env, &data, env.p, REWARM_STEPS + n)?);
    // The harness cannot see inside `train_in_proc`: the traced segment
    // is the same call under one span.
    let mut traced_step_ms = step_ms;
    if trace_steps {
        tracer.set_enabled(true);
        let parent = tracer.open("ring.traced", 0);
        let id = tracer.open("train_in_proc", 0);
        let stats = ring_steps(w, env, &data, env.p, REWARM_STEPS + n)?;
        tracer.close(id);
        tracer.close(parent);
        tracer.set_enabled(false);
        traced_step_ms = timed(&stats);
    }
    let solo_ms = timed(&ring_steps(w, env, &data, 1, REWARM_STEPS + n)?);

    let (net, _) = build_net(w.bench, env);
    let grad_len: usize = net.layers().iter().map(|l| l.param_count()).sum();
    let conv_count = net.layers().iter().filter(|l| l.conv_spec().is_some()).count();
    let (frames, bytes) = allreduce_traffic(env.p, grad_len, conv_count);
    let ring_ms = isolated_allreduce_ms(
        env.p,
        grad_len,
        conv_count,
        w.batch.div_ceil(env.p),
        if env.smoke { 3 } else { 9 },
        tracer,
        origin,
    )?;
    sheet.set("cluster.allreduce.ring_ms", ring_ms);
    sheet.set("cluster.allreduce.wire_bytes_per_step", bytes as f64);
    sheet.set("cluster.allreduce.frames_per_step", frames as f64);
    sheet.set("cluster.solo_step_ms", solo_ms);
    sheet.set("cluster.ring_overhead_ms", step_ms - solo_ms / env.p as f64);
    sheet.note("cluster.ring_step_ms_p50".to_owned(), "ms", step_ms);
    sheet.note("cluster.gradient_floats".to_owned(), "count", grad_len as f64);
    Ok(Segments {
        untraced_ms: step_ms,
        traced_ms: traced_step_ms,
        attempted: (w.warm + 3 * (REWARM_STEPS + n)) as u64,
        failed: 0,
    })
}

// ---------------------------------------------------------------------
// forward: Engine::forward under spans
// ---------------------------------------------------------------------

/// Calls of the band-plan engine that are timed.
const BANDED_CALLS: usize = 5;

/// The issue's second phase: the same forward with every conv pinned to
/// its intra-sample band plan. Checked against the sequential stencils,
/// then timed; a detail row, because no other workload runs bands end
/// to end (`core.conv*.banded_fwd_ms` is the catalogued kernel view).
fn banded_forward(
    w: &Workload,
    env: Env,
    sheet: &mut Sheet,
    plans: &mut Vec<(String, String)>,
) -> Result<(Check, u64), String> {
    let session = ForwardSession::new(w, env, ForwardPlans::Banded)?;
    let check = banded_logits_check(w, env, &session)?;
    let mut failed = 0u64;
    let calls: Vec<f64> = (0..BANDED_CALLS)
        .map(|i| {
            let t = Instant::now();
            failed += u64::from(session.forward(i).is_none());
            ms(t.elapsed())
        })
        .collect();
    sheet.note("forward.banded_latency_ms_p50".to_owned(), "ms", median(&calls));
    plans.extend(
        session.plans.iter().map(|(layer, algo)| (format!("{layer}.banded"), algo.clone())),
    );
    Ok((check, failed))
}

fn forward_traced(
    w: &Workload,
    env: Env,
    tracer: &mut Tracer,
    sheet: &mut Sheet,
) -> Result<Segments, String> {
    let session = ForwardSession::new(w, env, ForwardPlans::Planner)?;
    let mut failed = 0u64;
    let mut call = |i: usize| {
        let t = Instant::now();
        failed += u64::from(session.forward(i).is_none());
        ms(t.elapsed())
    };
    for i in 0..w.warm {
        call(i);
    }
    let n = segment_ops(env, w, 3);
    let untraced: Vec<f64> = (0..n).map(&mut call).collect();
    tracer.set_enabled(true);
    let parent = tracer.open("forward.traced", 0);
    let traced: Vec<f64> = (0..n)
        .map(|i| {
            let id = tracer.open("engine.forward", i as u64);
            let d = call(i);
            tracer.close(id);
            d
        })
        .collect();
    tracer.close(parent);
    tracer.set_enabled(false);
    sheet.note("forward.latency_ms_p50".to_owned(), "ms", median(&untraced));
    Ok(Segments {
        untraced_ms: median(&untraced),
        traced_ms: median(&traced),
        attempted: (w.warm + 2 * n) as u64,
        failed,
    })
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

fn home(name: &str, own: &Workload, kind: Kind, env: Env) -> Workload {
    if own.kind == kind {
        *own
    } else {
        workload(name, env).expect("home workloads are catalogued")
    }
}

/// Runs `w` traced and probes every layer; see the module docs for
/// which net each probe uses.
///
/// # Errors
///
/// Anything that stops a probe from running at all.
pub fn traced(w: &Workload, env: Env) -> Result<Traced, String> {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, 0, false);
    let mut sheet = Sheet::default();

    // The workload's own net: build, plan, per-layer and kernel costs.
    let mut built = None;
    let build_ms = median_ms(3, || built = Some(build_net(w.bench, env)));
    let (mut net, shape) = built.expect("median_ms ran the closure");
    let fw = framework(env);
    let mut plans = Vec::new();
    let mut plan_error = None;
    let plan_ms = median_ms(KERNEL_REPS, || match fw.try_plan_network(&mut net, 0.0) {
        Ok(p) => plans = p,
        Err(e) => plan_error = Some(e.to_string()),
    });
    if let Some(e) = plan_error {
        return Err(e);
    }
    let mut plan_rows = plan_ids(&net, &plans, env.p);
    let mut workspace_mb = 0.0;
    let alloc_ms = median_ms(3, || {
        let ws = Workspace::for_network(&net);
        workspace_mb = ws.bytes() as f64 / 1e6;
        black_box(ws);
    });
    let mut costs = net_costs(&mut net, env, origin, shape);
    tracer.absorb(std::mem::replace(&mut costs.spans, Tracer::new(origin, 0, false)));
    sheet.set("convnet.net_build_ms", build_ms);
    sheet.set("core.plan_ms", plan_ms);
    sheet.set("convnet.workspace_alloc_ms", alloc_ms);
    sheet.set("convnet.workspace_mb", workspace_mb);
    for (name, v) in ["convnet.fwd_conv_ms", "convnet.fwd_fc_ms", "convnet.fwd_other_ms"]
        .iter()
        .zip(costs.fwd_ms)
    {
        sheet.set(name, v);
    }
    for (name, v) in ["convnet.bwd_conv_ms", "convnet.bwd_fc_ms", "convnet.bwd_other_ms"]
        .iter()
        .zip(costs.bwd_ms)
    {
        sheet.set(name, v);
    }
    sheet.set("convnet.apply_update_ms", costs.apply_update_ms);
    kernel_probes(&mut sheet, &net, &plans, &costs, env)?;
    drop(net);

    // The subsystems: the workload's own configuration where it is of
    // that kind, the subsystem's home workload otherwise.
    let train_w = home("train_cifar10", w, Kind::Train, env);
    let serve_w = home("serve_cifar10", w, Kind::Serve, env);
    let ring_w = home("cluster_mnist_ring", w, Kind::Ring, env);
    let home_costs;
    let train_costs = if w.kind == Kind::Train {
        &costs
    } else {
        let (mut home_net, home_shape) = build_net(train_w.bench, env);
        fw.try_plan_network(&mut home_net, 0.0).map_err(|e| e.to_string())?;
        home_costs = net_costs(&mut home_net, env, origin, home_shape);
        &home_costs
    };
    let train = train_probe(
        &mut sheet,
        &train_w,
        env,
        train_costs,
        (w.kind == Kind::Train).then_some(&mut tracer),
    )?;
    let serve =
        serve_probe(&mut sheet, &serve_w, env, (w.kind == Kind::Serve).then_some(&mut tracer))?;
    let ring = ring_probe(&mut sheet, &ring_w, env, &mut tracer, w.kind == Kind::Ring, origin)?;
    wire_probes(&mut sheet);

    // Attempted counts the workload's own segments; failures count
    // everywhere (only the server and the engine can fail an operation
    // without stopping the run).
    let mut forward;
    let mut checks = Vec::new();
    let own = match w.kind {
        Kind::Train => &train,
        Kind::Serve => &serve,
        Kind::Ring => &ring,
        Kind::Forward => {
            forward = forward_traced(w, env, &mut tracer, &mut sheet)?;
            let (check, failed) = banded_forward(w, env, &mut sheet, &mut plan_rows)?;
            forward.attempted += (BANDED_CALLS + 1) as u64;
            forward.failed += failed + u64::from(!check.passed);
            checks.push(check);
            &forward
        }
    };
    sheet.set("bench.trace_overhead_share", overhead_share(own.traced_ms, own.untraced_ms));
    sheet.set("bench.sum_residual_share", tracer.residual_share());
    sheet.note("bench.spans".to_owned(), "count", tracer.spans().len() as f64);
    Ok(Traced {
        metrics: sheet.metrics(),
        detail: sheet.detail,
        tracer,
        plans: plan_rows,
        checks,
        attempted: own.attempted,
        failed: if w.kind == Kind::Serve { serve.failed } else { own.failed + serve.failed },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_traffic_counts_every_leg() {
        // World 1 never touches the wire.
        assert_eq!(allreduce_traffic(1, 5000, 1), (0, 0));
        // 2500 floats = 2 full chunks + a 452-float tail: 3 chunk frames
        // + 1 meta per leg; world 3 has 4 legs.
        let (frames, bytes) = allreduce_traffic(3, 2 * CHUNK_FLOATS + 452, 2);
        assert_eq!(frames, 16);
        let (f2, b2) = allreduce_traffic(2, 2 * CHUNK_FLOATS + 452, 2);
        assert_eq!((f2 * 2, b2 * 2), (frames, bytes));
        // Payload alone is 4 bytes a float; framing adds a little.
        let payload = (4 * (2 * CHUNK_FLOATS + 452) * 4) as u64;
        assert!(bytes > payload && bytes < payload + 16 * 64, "{bytes}");
    }

    #[test]
    fn isolated_allreduce_sums_every_rank_in_order() {
        let origin = Instant::now();
        let mut tracer = Tracer::new(origin, 0, true);
        let ms = isolated_allreduce_ms(2, 3000, 1, 2, 2, &mut tracer, origin).unwrap();
        assert!(ms > 0.0);
        // One span per rank per repetition, tagged with the rank's tid.
        assert_eq!(tracer.spans().len(), 4);
        assert!(tracer.spans().iter().any(|s| s.tid == 2));
    }

    #[test]
    fn every_catalogued_metric_must_be_probed() {
        let mut sheet = Sheet::default();
        for def in PER_LAYER {
            sheet.set(def.name, 1.0);
        }
        assert_eq!(sheet.metrics().len(), PER_LAYER.len());
        sheet.values.remove("serve.rejected");
        assert!(std::panic::catch_unwind(|| sheet.metrics()).is_err());
    }
}
