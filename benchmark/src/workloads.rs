//! The five workloads: how each is set up, checked and timed with tracing
//! off. The traced runs in [`crate::probes`] drive the same sessions.
//!
//! Sizing rule: every pool, worker and rank count is `P`; load comes from
//! this one process and one generator thread; the planner is always
//! `Framework::new(P, Heuristic, 2)`, never `Measured`, so plans repeat
//! from run to run.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spg_cluster::train::{train_in_proc, InProcTrainOptions};
use spg_cluster::AllReduce;
use spg_convnet::data::Dataset;
use spg_convnet::{Engine, EpochStats, Network, Trainer, TrainerConfig};
use spg_core::autotune::{Framework, TuningMode};
use spg_core::backend::{ConvDescriptor, CpuBackend};
use spg_core::config::NetworkDescription;
use spg_core::schedule::{recommended_plan_for_batch, LayerPlan, Technique};
use spg_serve::{Response, ServeConfig, Server};
use spg_tensor::Shape3;
use spg_workloads::networks;
use spg_workloads::table2::Benchmark;

use crate::doc::Check;
use crate::stats::BLOCKS;

/// Classes of the synthetic datasets: 8, not 1000 — a thousand ImageNet
/// prototypes would be 618 MB of inputs nobody measures.
pub const CLASSES: usize = 8;
/// Noise amplitude of the synthetic samples (the CLI's value).
pub const NOISE: f32 = 0.15;
/// Epochs between backward re-plans (the CLI's value).
pub const RETUNE_EVERY: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Distinct inputs the serving loop cycles through.
pub const SERVE_INPUTS: usize = 64;
/// Steps at the head of a separate timed call that re-warm its pool.
pub const REWARM_STEPS: usize = 3;

/// What every workload is sized and seeded from.
#[derive(Debug, Clone, Copy)]
pub struct Env {
    /// Pool, worker and rank count.
    pub p: usize,
    /// Scaled nets and 1/50 warm-up counts.
    pub smoke: bool,
    /// Seed of weights and inputs.
    pub seed: u64,
    /// How long to measure for.
    pub seconds: f64,
}

/// What a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Trainer::try_train_with`, one batch per epoch.
    Train,
    /// Closed loop through `Server`.
    Serve,
    /// `Engine::forward`, one image at a time.
    Forward,
    /// `train_in_proc` over a ring of socketpairs.
    Ring,
}

/// One workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as BENCHMARK.json lists it.
    pub name: &'static str,
    /// What runs.
    pub kind: Kind,
    /// Which Table 2 net.
    pub bench: Benchmark,
    /// Batch size (train, ring), request window (serve) or 1 (forward).
    pub batch: usize,
    /// Warm-up operations before timing.
    pub warm: usize,
    /// Timed operations per second of `--seconds`, so that a run times
    /// the same operations every time. On the reference host they take
    /// `--seconds` or so: less for `train_imagenet1k`, whose 0.8 s steps
    /// each average the host's jitter out, more for the two CIFAR-10
    /// workloads, whose short operations follow the host's slow
    /// stretches most closely and need the longest look to see past them.
    pub rate: f64,
    /// SGD step size of the training workloads.
    pub learning_rate: f32,
}

/// The workload called `name`, sized for `env`.
pub fn workload(name: &str, env: Env) -> Option<Workload> {
    let name = crate::spec::WORKLOADS.iter().find(|w| w.0 == name)?.0;
    let p = env.p;
    let (kind, bench, batch, warm, rate) = match name {
        "train_imagenet1k" => (Kind::Train, Benchmark::ImageNet1K, 2 * p, 2, 0.7),
        "train_cifar10" => (Kind::Train, Benchmark::Cifar10, 32, 20, 32.0),
        // Window = max_batch x workers, so batches fill and the 2 ms
        // batching deadline is not what gets measured.
        "serve_cifar10" => (Kind::Serve, Benchmark::Cifar10, 8 * p, 2000, 3600.0),
        "forward_imagenet22k_b1" => (Kind::Forward, Benchmark::ImageNet22K, 1, 5, 5.4),
        "cluster_mnist_ring" => (Kind::Ring, Benchmark::Mnist, 8, 10, 11.0),
        _ => return None,
    };
    let warm = if env.smoke { (warm / 50).max(2) } else { warm };
    // The trainer's default step size, 0.05, makes the ImageNet-1K net
    // diverge on its 2P-image batch: by step 8 the loss is 20, by step 13
    // every gradient is zero and a step costs 0.47 s instead of 0.8 s,
    // sooner or later with the seed. At 0.002 the loss falls slowly and
    // the gradient sparsity of every layer holds, so every step is the
    // same work.
    let learning_rate =
        if name == "train_imagenet1k" { 0.002 } else { TrainerConfig::default().learning_rate };
    Some(Workload { name, kind, bench, batch, warm, rate, learning_rate })
}

/// What an untraced run measured.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Wall seconds of each timed operation, in order.
    pub op_s: Vec<f64>,
    /// Latency of each timed operation, in milliseconds.
    pub latency_ms: Vec<f64>,
    /// Images or requests one operation completes.
    pub units_per_op: f64,
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Seconds spent on the benchmark-only reference checks.
    pub check_s: f64,
    /// Invariants checked before timing.
    pub checks: Vec<Check>,
    /// Timed operations that failed.
    pub failed_ops: u64,
    /// `(layer, algorithm id)` the planner chose.
    pub plans: Vec<(String, String)>,
}

/// Builds `bench`'s net (full Table 2 geometry, or scaled for smoke).
///
/// # Panics
///
/// Panics if a built-in description fails to parse or build — a bug in
/// `spg_workloads`, covered by its own tests.
pub fn build_net(bench: Benchmark, env: Env) -> (Network, Shape3) {
    let text =
        if env.smoke { networks::scaled_description(bench) } else { networks::description(bench) };
    let desc = NetworkDescription::parse(&text).expect("built-in description parses");
    let net = desc.build(env.seed).expect("built-in description builds");
    (net, desc.input)
}

/// The one planner every workload uses.
pub fn framework(env: Env) -> Framework {
    Framework::new(env.p, TuningMode::Heuristic, RETUNE_EVERY)
}

/// Seeded synthetic inputs of `bench`'s geometry.
pub fn dataset(shape: Shape3, samples: usize, env: Env) -> Dataset {
    Dataset::synthetic(shape, CLASSES, samples, NOISE, env.seed)
}

/// `(conv<i>, algorithm id)` rows for the result document.
pub fn plan_ids(
    net: &Network,
    plans: &[(usize, LayerPlan)],
    cores: usize,
) -> Vec<(String, String)> {
    plans
        .iter()
        .filter_map(|&(i, plan)| {
            let spec = net.layers()[i].conv_spec()?;
            let algo = CpuBackend::new().algo_for(&ConvDescriptor::new(*spec, cores), plan);
            Some((spg_convnet::scope_label(i, "conv"), algo.id()))
        })
        .collect()
}

/// Fewest operations a timed region holds, however short the run.
pub const MIN_OPS: usize = 5;

impl Workload {
    /// Operations a run of `seconds` times: `seconds x rate`, a whole
    /// number of blocks once there are at least two operations per
    /// block, never fewer than [`MIN_OPS`]. A fixed count, not a
    /// deadline: step time falls as training sparsifies the gradients
    /// (`train_imagenet1k` 0.8 s to 0.47 s over 30 steps), so runs are
    /// only comparable when they time the same steps.
    pub fn timed_ops(&self, seconds: f64) -> usize {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let n = (seconds * self.rate).round() as usize;
        if n >= 2 * BLOCKS {
            n / BLOCKS * BLOCKS
        } else {
            n.max(MIN_OPS)
        }
    }
}

fn bits_check(name: &str, what: &str, got: &[u64], want: &[u64]) -> Check {
    let passed = !want.is_empty() && got == want;
    Check {
        name: name.to_owned(),
        passed,
        detail: format!("{what}: {} values compared", want.len()),
    }
}

fn loss_bits(stats: &[EpochStats], n: usize) -> Vec<u64> {
    stats.iter().take(n).map(|s| s.mean_loss.to_bits()).collect()
}

fn logit_bits(logits: &[f32]) -> Vec<u64> {
    logits.iter().map(|v| u64::from(v.to_bits())).collect()
}

// ---------------------------------------------------------------------
// train_imagenet1k, train_cifar10
// ---------------------------------------------------------------------

/// A planned net with its one-batch dataset.
pub struct TrainSession {
    /// The net being trained.
    pub net: Network,
    /// `batch` samples: one batch per epoch, so epochs are steps.
    pub data: Dataset,
    fw: Framework,
    /// Plans chosen at sparsity 0.
    pub plans: Vec<(usize, LayerPlan)>,
    batch: usize,
    learning_rate: f32,
}

impl TrainSession {
    /// Builds, synthesizes and plans (with verification).
    ///
    /// # Errors
    ///
    /// A plan the verifier rejects.
    pub fn new(w: &Workload, env: Env) -> Result<Self, String> {
        let (mut net, shape) = build_net(w.bench, env);
        let data = dataset(shape, w.batch, env);
        let fw = framework(env);
        let plans = fw.try_plan_network(&mut net, 0.0).map_err(|e| e.to_string())?;
        Ok(TrainSession { net, data, fw, plans, batch: w.batch, learning_rate: w.learning_rate })
    }

    /// Runs `steps` steps on `threads` sample threads in one trainer
    /// call. After each step (and the re-plan `Engine::try_train` does
    /// there) `hook(step, start, end, stats)` sees its boundaries.
    ///
    /// # Errors
    ///
    /// A pool worker faulting past its restart budget.
    pub fn steps(
        &mut self,
        env: Env,
        threads: usize,
        steps: usize,
        mut hook: impl FnMut(usize, Instant, Instant, &EpochStats),
    ) -> Result<Vec<EpochStats>, String> {
        let TrainSession { net, data, fw, batch, learning_rate, .. } = self;
        let trainer = Trainer::new(TrainerConfig {
            learning_rate: *learning_rate,
            epochs: steps,
            batch_size: *batch,
            sample_threads: threads,
            shuffle_seed: env.seed,
            ..TrainerConfig::default()
        });
        let mut last = Instant::now();
        trainer
            .try_train_with(net, data, |net, stats| {
                fw.retune(net, stats);
                let now = Instant::now();
                hook(stats.epoch, last, now, stats);
                last = now;
            })
            .map_err(|e| e.to_string())
    }
}

fn train_end_to_end(w: &Workload, env: Env) -> Result<EndToEnd, String> {
    const CHECK_STEPS: usize = 2;
    let mut out = EndToEnd { units_per_op: w.batch as f64, ..EndToEnd::default() };
    let mut first_losses = Vec::new();
    for rep in 0..SETUP_REPS {
        let timed_steps = if rep + 1 == SETUP_REPS { w.timed_ops(env.seconds) } else { 0 };
        let t0 = Instant::now();
        let mut session = TrainSession::new(w, env)?;
        let mut setup_s = 0.0;
        let stats = session.steps(env, env.p, w.warm + timed_steps, |step, start, end, _| {
            if step <= w.warm {
                setup_s = t0.elapsed().as_secs_f64();
            } else {
                out.op_s.push((end - start).as_secs_f64());
            }
        })?;
        out.setup_s.push(setup_s);
        first_losses.push(loss_bits(&stats, CHECK_STEPS));
        if rep + 1 == SETUP_REPS {
            // A diverged net (loss 3x its start, every gradient zero)
            // trains faster than a healthy one: not a step worth timing.
            let (first, last) = (stats[0].mean_loss, stats[stats.len() - 1].mean_loss);
            out.checks.push(Check {
                name: "train_loss_did_not_diverge".to_owned(),
                passed: last.is_finite() && last <= 2.0 * first,
                detail: format!("loss {first:.4} at step 1, {last:.4} at step {}", stats.len()),
            });
        }
        if rep == 0 {
            out.plans = plan_ids(&session.net, &session.plans, env.p);
            drop(session);
            // The repo's headline invariant: the ordered merge makes the
            // losses bit-identical for every worker count.
            let t = Instant::now();
            let mut solo = TrainSession::new(w, env)?;
            let reference =
                loss_bits(&solo.steps(env, 1, CHECK_STEPS, |_, _, _, _| {})?, CHECK_STEPS);
            out.check_s = t.elapsed().as_secs_f64();
            out.checks.push(bits_check(
                "train_losses_match_one_thread",
                &format!("first {CHECK_STEPS} step losses at {} threads vs 1", env.p),
                &first_losses[0],
                &reference,
            ));
        }
    }
    out.checks.push(bits_check(
        "train_losses_repeat_across_setups",
        "first step losses of the last set-up vs the first",
        &first_losses[SETUP_REPS - 1],
        &first_losses[0],
    ));
    out.latency_ms = out.op_s.iter().map(|s| s * 1e3).collect();
    Ok(out)
}

// ---------------------------------------------------------------------
// serve_cifar10
// ---------------------------------------------------------------------

/// What [`closed_loop`] saw.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// Most requests ever outstanding at once.
    pub max_outstanding: usize,
    /// Requests redeemed successfully.
    pub completed: u64,
    /// Submissions refused plus replies that were errors.
    pub failed: u64,
}

/// One generator thread keeping up to `window` requests outstanding:
/// submit while `more(submitted)` holds and the window has room, then
/// redeem the oldest. Ends when nothing is outstanding and `more` is
/// false. `submit` returns `None` when the request was refused;
/// `redeem` returns whether the reply was a success.
pub fn closed_loop<P>(
    window: usize,
    mut more: impl FnMut(u64) -> bool,
    mut submit: impl FnMut(u64) -> Option<P>,
    mut redeem: impl FnMut(u64, P) -> bool,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let mut pending: VecDeque<(u64, P)> = VecDeque::with_capacity(window);
    let mut seq = 0u64;
    loop {
        while pending.len() < window && more(seq) {
            match submit(seq) {
                Some(p) => pending.push_back((seq, p)),
                None => stats.failed += 1,
            }
            seq += 1;
        }
        stats.max_outstanding = stats.max_outstanding.max(pending.len());
        let Some((id, p)) = pending.pop_front() else { return stats };
        if redeem(id, p) {
            stats.completed += 1;
        } else {
            stats.failed += 1;
        }
    }
}

/// One served request as the client saw it.
#[derive(Debug, Clone)]
pub struct Served {
    /// When `try_submit` was called.
    pub submitted: Instant,
    /// How long `try_submit` took.
    pub submit: Duration,
    /// When the reply was redeemed.
    pub redeemed: Instant,
    /// The server's reply.
    pub response: Response,
}

/// A started server with its inputs.
pub struct ServeSession {
    server: Server,
    /// The distinct inputs requests cycle through.
    pub inputs: Vec<Vec<f32>>,
    /// Forward plans the server compiled.
    pub plans: Vec<(usize, LayerPlan)>,
    /// The net being served (shared with the workers).
    pub net: Arc<Network>,
    /// How long `Server::start` took.
    pub start: Duration,
    window: usize,
}

impl ServeSession {
    /// Builds the net, plans forward, synthesizes inputs, starts `P`
    /// workers.
    ///
    /// # Errors
    ///
    /// A rejected plan or a kernel that fails to compile.
    pub fn new(w: &Workload, env: Env) -> Result<Self, String> {
        let (mut net, shape) = build_net(w.bench, env);
        let plans = framework(env).try_plan_network_forward(&mut net).map_err(|e| e.to_string())?;
        let data = dataset(shape, SERVE_INPUTS, env);
        let inputs = (0..data.len()).map(|i| data.image(i).as_slice().to_vec()).collect();
        let net = Arc::new(net);
        let config = ServeConfig {
            workers: env.p,
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            queue_capacity: 64,
            ..ServeConfig::default()
        };
        let t = Instant::now();
        let server = Server::start(Arc::clone(&net), &plans, config).map_err(|e| e.to_string())?;
        Ok(ServeSession { server, inputs, plans, net, start: t.elapsed(), window: w.batch })
    }

    /// Runs one closed-loop segment of `requests` requests.
    /// `around(seq, is_submit, start, end)` brackets each call into the
    /// server (the traced run hangs its spans there).
    pub fn segment(
        &self,
        requests: u64,
        around: impl FnMut(u64, bool, Instant, Instant),
    ) -> (Vec<Served>, LoopStats) {
        let mut served = Vec::new();
        // Shared by the submit and redeem halves of the loop.
        let around = RefCell::new(around);
        let submitted_at: RefCell<VecDeque<(Instant, Duration)>> = RefCell::default();
        let stats = closed_loop(
            self.window,
            |n| n < requests,
            |seq| {
                #[allow(clippy::cast_possible_truncation)]
                let input = self.inputs[seq as usize % self.inputs.len()].clone();
                let t0 = Instant::now();
                let pending = self.server.try_submit(input).ok();
                let t1 = Instant::now();
                (around.borrow_mut())(seq, true, t0, t1);
                if pending.is_some() {
                    submitted_at.borrow_mut().push_back((t0, t1 - t0));
                }
                pending
            },
            |seq, pending| {
                let t0 = Instant::now();
                let reply = pending.wait();
                let t1 = Instant::now();
                (around.borrow_mut())(seq, false, t0, t1);
                let (submitted, submit) =
                    submitted_at.borrow_mut().pop_front().expect("one entry per pending request");
                reply
                    .map(|response| {
                        served.push(Served { submitted, submit, redeemed: t1, response })
                    })
                    .is_ok()
            },
        );
        (served, stats)
    }

    /// Stops the workers and waits for them.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Gaps between successive completions: the per-operation wall time of
/// a closed loop.
fn completion_gaps(begun: Instant, served: &[Served]) -> Vec<f64> {
    let mut last = begun;
    served
        .iter()
        .map(|s| {
            let gap = s.redeemed.saturating_duration_since(last).as_secs_f64();
            last = last.max(s.redeemed);
            gap
        })
        .collect()
}

/// Server-reported latency of each reply, in milliseconds.
pub fn reported_latency_ms(served: &[Served]) -> Vec<f64> {
    served.iter().map(|s| s.response.latency.as_secs_f64() * 1e3).collect()
}

fn serve_end_to_end(w: &Workload, env: Env) -> Result<EndToEnd, String> {
    let mut out = EndToEnd { units_per_op: 1.0, ..EndToEnd::default() };
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let session = ServeSession::new(w, env)?;
        let (_, warm) = session.segment(w.warm as u64, |_, _, _, _| {});
        out.setup_s.push(t0.elapsed().as_secs_f64());
        out.failed_ops += warm.failed;
        if rep == 0 {
            out.plans = plan_ids(&session.net, &session.plans, 1);
            let t = Instant::now();
            out.checks.push(served_logits_check(w, env, &session)?);
            out.check_s = t.elapsed().as_secs_f64();
        }
        if rep + 1 == SETUP_REPS {
            let begun = Instant::now();
            let (served, stats) = session.segment(w.timed_ops(env.seconds) as u64, |_, _, _, _| {});
            out.failed_ops += stats.failed;
            if stats.max_outstanding > w.batch {
                return Err(format!("window {} exceeded: {}", w.batch, stats.max_outstanding));
            }
            out.op_s = completion_gaps(begun, &served);
            out.latency_ms = reported_latency_ms(&served);
        }
        session.shutdown();
    }
    Ok(out)
}

/// Every distinct input's served logits must be bit-equal to
/// `Engine::forward` on a second net built from the same seed and plans.
fn served_logits_check(w: &Workload, env: Env, session: &ServeSession) -> Result<Check, String> {
    let (net, _) = build_net(w.bench, env);
    let mut engine = Engine::builder()
        .network(net)
        .workers(env.p)
        .planner(Arc::new(framework(env)))
        .build()
        .map_err(|e| e.to_string())?;
    engine.try_tune_forward().map_err(|e| e.to_string())?;
    let (served, _) = session.segment(session.inputs.len() as u64, |_, _, _, _| {});
    let mut got = Vec::new();
    let mut want = Vec::new();
    for (s, input) in served.iter().zip(&session.inputs) {
        got.extend(logit_bits(&s.response.logits));
        want.extend(logit_bits(engine.forward(input).map_err(|e| e.to_string())?.as_slice()));
    }
    Ok(bits_check(
        "served_logits_match_engine_forward",
        &format!("logits of {} inputs", session.inputs.len()),
        &got,
        &want,
    ))
}

// ---------------------------------------------------------------------
// forward_imagenet22k_b1
// ---------------------------------------------------------------------

/// Distinct images the forward workloads cycle through.
pub const FORWARD_INPUTS: usize = 4;

/// An engine tuned for forward, with its inputs.
pub struct ForwardSession {
    /// The engine under test.
    pub engine: Engine,
    /// The images it is fed, one at a time.
    pub inputs: Vec<Vec<f32>>,
    /// `(layer, algorithm id)` in force.
    pub plans: Vec<(String, String)>,
}

/// Which conv plans a [`ForwardSession`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardPlans {
    /// What `Engine::try_tune_forward` installs.
    Planner,
    /// Every conv pinned to `recommended_plan_for_batch(spec, 0, P, 1)`:
    /// intra-sample bands wherever the layer can be banded.
    Banded,
    /// The banded plans with each band technique replaced by the
    /// sequential stencil it splits — the reference the banded logits
    /// must match bit for bit.
    Unbanded,
}

impl ForwardSession {
    /// Builds the engine, plans forward and applies `which`.
    ///
    /// # Errors
    ///
    /// A rejected plan or override.
    pub fn new(w: &Workload, env: Env, which: ForwardPlans) -> Result<Self, String> {
        let (net, shape) = build_net(w.bench, env);
        let data = dataset(shape, FORWARD_INPUTS, env);
        let inputs = (0..data.len()).map(|i| data.image(i).as_slice().to_vec()).collect();
        let fw = framework(env);
        let mut engine = Engine::builder()
            .network(net)
            .workers(env.p)
            .planner(Arc::new(fw.clone()))
            .build()
            .map_err(|e| e.to_string())?;
        engine.try_tune_forward().map_err(|e| e.to_string())?;
        let convs: Vec<_> = engine
            .network()
            .layers()
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.conv_spec().map(|s| (i, *s)))
            .collect();
        let mut plans = Vec::new();
        for (i, spec) in convs {
            let desc = ConvDescriptor::new(spec, env.p);
            let mut plan = recommended_plan_for_batch(&spec, 0.0, env.p, 1);
            match which {
                ForwardPlans::Planner => plan.forward = fw.plan_layer_forward(&spec),
                ForwardPlans::Banded => {}
                ForwardPlans::Unbanded => {
                    if plan.forward.band_dim().is_some() {
                        plan.forward = Technique::StencilFp;
                    }
                }
            }
            let algo = CpuBackend::new().algo_for(&desc, plan);
            if which != ForwardPlans::Planner {
                engine.algo_override(i, algo).map_err(|e| e.to_string())?;
            }
            plans.push((spg_convnet::scope_label(i, "conv"), algo.id()));
        }
        Ok(ForwardSession { engine, inputs, plans })
    }

    /// One `Engine::forward` call on input `i`; `None` when it failed.
    pub fn forward(&self, i: usize) -> Option<Vec<f32>> {
        let input = &self.inputs[i % self.inputs.len()];
        self.engine.forward(input).ok().map(spg_tensor::Tensor::into_vec)
    }

    /// Logits of every distinct input, as bit patterns.
    pub fn all_logit_bits(&self) -> Vec<u64> {
        (0..self.inputs.len())
            .flat_map(|i| logit_bits(&self.forward(i).unwrap_or_default()))
            .collect()
    }
}

/// Whether the logits of every input under the band plans are bit-equal
/// to those under the same plans with each band technique replaced by
/// the sequential stencil it splits. (Not the planner's plans: those
/// pick GEMM for some layers, a different order of additions.)
///
/// # Errors
///
/// A rejected plan or override.
pub fn banded_logits_check(
    w: &Workload,
    env: Env,
    banded: &ForwardSession,
) -> Result<Check, String> {
    let reference = ForwardSession::new(w, env, ForwardPlans::Unbanded)?.all_logit_bits();
    Ok(bits_check(
        "banded_logits_match_sequential_plan",
        &format!("logits of {FORWARD_INPUTS} inputs, band plans vs the stencils they split"),
        &banded.all_logit_bits(),
        &reference,
    ))
}

fn forward_end_to_end(w: &Workload, env: Env) -> Result<EndToEnd, String> {
    let mut out = EndToEnd { units_per_op: 1.0, ..EndToEnd::default() };
    // The reference engine lives and dies before the measured ones, so
    // the process's peak RSS is the workload's own.
    let t = Instant::now();
    let reference = ForwardSession::new(w, env, ForwardPlans::Planner)?.all_logit_bits();
    out.check_s = t.elapsed().as_secs_f64();
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let session = ForwardSession::new(w, env, ForwardPlans::Planner)?;
        for i in 0..w.warm {
            out.failed_ops += u64::from(session.forward(i).is_none());
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());
        if rep == 0 {
            out.plans.clone_from(&session.plans);
            let t = Instant::now();
            out.checks.push(bits_check(
                "forward_logits_repeat_across_engines",
                &format!("logits of {FORWARD_INPUTS} inputs, a second engine from the same seed"),
                &session.all_logit_bits(),
                &reference,
            ));
            out.check_s += t.elapsed().as_secs_f64();
        }
        if rep + 1 == SETUP_REPS {
            for i in 0..w.timed_ops(env.seconds) {
                let t = Instant::now();
                out.failed_ops += u64::from(session.forward(i).is_none());
                out.op_s.push(t.elapsed().as_secs_f64());
            }
        }
    }
    out.latency_ms = out.op_s.iter().map(|s| s * 1e3).collect();
    Ok(out)
}

// ---------------------------------------------------------------------
// cluster_mnist_ring
// ---------------------------------------------------------------------

/// Floats per all-reduce frame.
pub const CHUNK_FLOATS: usize = 1024;

/// Runs `steps` ring-SGD steps at `world` ranks (one thread each, over
/// socketpairs) from freshly built nets and returns each step's epoch
/// stats (one batch per epoch).
///
/// # Errors
///
/// Any typed cluster error.
pub fn ring_steps(
    w: &Workload,
    env: Env,
    data: &Dataset,
    world: usize,
    steps: usize,
) -> Result<Vec<EpochStats>, String> {
    let factory = || {
        let (mut net, _) = build_net(w.bench, env);
        framework(env).try_plan_network(&mut net, 0.0)?;
        Ok(net)
    };
    let trainer = TrainerConfig {
        epochs: steps,
        batch_size: w.batch,
        sample_threads: 1,
        shuffle_seed: env.seed,
        ..TrainerConfig::default()
    };
    let opts = InProcTrainOptions {
        world,
        algo: AllReduce::Ring,
        chunk_floats: CHUNK_FLOATS,
        ..InProcTrainOptions::default()
    };
    train_in_proc(&factory, data, &trainer, &opts).map_err(|e| e.to_string())
}

/// Wall seconds of each step, as rank 0 timed it.
pub fn step_seconds(stats: &[EpochStats], batch: usize) -> Vec<f64> {
    stats.iter().map(|s| batch as f64 / s.images_per_sec).collect()
}

/// The MNIST-shaped one-batch dataset of the ring workload.
pub fn ring_dataset(w: &Workload, env: Env) -> Dataset {
    let (_, shape) = build_net(w.bench, env);
    dataset(shape, w.batch, env)
}

fn ring_end_to_end(w: &Workload, env: Env) -> Result<EndToEnd, String> {
    const CHECK_STEPS: usize = 5;
    let mut out = EndToEnd { units_per_op: w.batch as f64, ..EndToEnd::default() };
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let data = ring_dataset(w, env);
        let stats = ring_steps(w, env, &data, env.p, w.warm.max(CHECK_STEPS))?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        if rep == 0 {
            let t = Instant::now();
            // The trainer a single process would run: same seed, same
            // shuffle, one thread, no re-plan (ranks never re-plan).
            let (mut net, _) = build_net(w.bench, env);
            let plans =
                framework(env).try_plan_network(&mut net, 0.0).map_err(|e| e.to_string())?;
            out.plans = plan_ids(&net, &plans, env.p);
            let solo = Trainer::new(TrainerConfig {
                epochs: CHECK_STEPS,
                batch_size: w.batch,
                sample_threads: 1,
                shuffle_seed: env.seed,
                ..TrainerConfig::default()
            })
            .try_train(&mut net, &mut data.clone())
            .map_err(|e| e.to_string())?;
            out.check_s = t.elapsed().as_secs_f64();
            out.checks.push(bits_check(
                "ring_losses_match_solo_trainer",
                &format!("first {CHECK_STEPS} step losses at world {} vs a solo Trainer", env.p),
                &loss_bits(&stats, CHECK_STEPS),
                &loss_bits(&solo, CHECK_STEPS),
            ));
        }
        if rep + 1 == SETUP_REPS {
            let stats = ring_steps(w, env, &data, env.p, REWARM_STEPS + w.timed_ops(env.seconds))?;
            out.op_s = step_seconds(&stats[REWARM_STEPS..], w.batch);
        }
    }
    out.latency_ms = out.op_s.iter().map(|s| s * 1e3).collect();
    Ok(out)
}

/// Sets `w` up [`SETUP_REPS`] times, checks its invariants, then times
/// it for `env.seconds` with tracing and telemetry off.
///
/// # Errors
///
/// Anything that stops the workload from running at all; failed
/// operations and violated invariants are counted, not raised.
pub fn end_to_end(w: &Workload, env: Env) -> Result<EndToEnd, String> {
    match w.kind {
        Kind::Train => train_end_to_end(w, env),
        Kind::Serve => serve_end_to_end(w, env),
        Kind::Forward => forward_end_to_end(w, env),
        Kind::Ring => ring_end_to_end(w, env),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_window_never_exceeds_its_bound() {
        for window in [1usize, 4, 16] {
            let outstanding = std::cell::Cell::new(0usize);
            let peak = std::cell::Cell::new(0usize);
            let stats = closed_loop(
                window,
                |n| n < 100,
                |seq| {
                    outstanding.set(outstanding.get() + 1);
                    peak.set(peak.get().max(outstanding.get()));
                    Some(seq)
                },
                |seq, ticket| {
                    assert_eq!(seq, ticket, "oldest is redeemed first");
                    outstanding.set(outstanding.get() - 1);
                    true
                },
            );
            assert_eq!(peak.get(), window.min(100));
            assert_eq!(stats, LoopStats { max_outstanding: window, completed: 100, failed: 0 });
        }
    }

    #[test]
    fn closed_loop_counts_refusals_and_error_replies_as_failures() {
        let stats =
            closed_loop(4, |n| n < 10, |seq| (seq % 5 != 0).then_some(seq), |seq, _| seq % 2 == 0);
        // seq 0 and 5 are refused; of the 8 accepted, 4 reply with errors.
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.failed, 6);
        assert!(stats.max_outstanding <= 4);
    }

    #[test]
    fn timed_regions_are_fixed_counts_of_whole_blocks() {
        let env = Env { p: 2, smoke: false, seed: 1, seconds: 15.0 };
        let ops = |name: &str, seconds: f64| workload(name, env).unwrap().timed_ops(seconds);
        assert_eq!(ops("train_imagenet1k", 15.0), 11);
        assert_eq!(ops("train_cifar10", 15.0), 450);
        assert_eq!(ops("serve_cifar10", 15.0), 54_000);
        assert_eq!(ops("forward_imagenet22k_b1", 15.0), 81);
        assert_eq!(ops("cluster_mnist_ring", 15.0), 150);
        // Shorter than one operation: still enough for a fast tail.
        assert_eq!(ops("train_imagenet1k", 0.4), MIN_OPS);
    }

    #[test]
    fn every_catalogued_workload_resolves() {
        let env = Env { p: 2, smoke: false, seed: 1, seconds: 1.0 };
        for (name, _) in crate::spec::WORKLOADS {
            let w = workload(name, env).expect(name);
            assert_eq!(w.name, *name);
        }
        assert_eq!(workload("serve_cifar10", env).unwrap().batch, 16);
        assert!(workload("nope", env).is_none());
        let smoke = Env { smoke: true, ..env };
        assert_eq!(workload("serve_cifar10", smoke).unwrap().warm, 40);
        assert_eq!(workload("train_imagenet1k", smoke).unwrap().warm, 2);
    }
}
