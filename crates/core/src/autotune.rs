//! Measure-and-pick scheduling (paper Sec. 4.4).
//!
//! "spg-CNN integrates the three techniques and automatically identifies
//! the best set for each convolution layer ... it runs each layer with
//! \[all applicable techniques\] and, based on the measured performance,
//! chooses the fastest technique to deploy for each layer. For BP, it
//! checks for a change in relative performance ... after a pre-specified
//! number of epochs as error gradient sparsity changes during training."
//!
//! [`tune_layer`] is the measurement primitive: one contest per phase over
//! [`Technique::forward_candidates`] / [`Technique::backward_candidates`],
//! each candidate lowered once, timed at the core budget the deployed walk
//! will pass, the winner's own program read for the decision log.
//! [`Framework`] applies plans to whole networks and re-tunes between
//! epochs.

use std::time::{Duration, Instant};

use spg_codegen::KernelChoice;
use spg_convnet::workspace::ConvScratch;
use spg_convnet::{ConvSpec, EpochStats, Network};

use crate::compiled::ConvProgram;
use crate::schedule::{recommended_plan, LayerPlan, Technique};
use crate::verify::{lower, lower_phase, verify_technique};
use crate::SpgError;

/// Which phase of a convolution layer a measurement exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Forward propagation.
    Forward,
    /// Backward propagation (error + delta-weight computation).
    Backward,
}

/// Times one technique on one phase of a convolution at a given gradient
/// sparsity, returning the mean wall time of `reps` runs (after one
/// warm-up run that also pays allocation and code-path warming costs) of
/// one sample with all `cores` cores to itself.
///
/// The synthetic operands are deterministic, so repeated calls measure
/// the same work.
///
/// # Errors
///
/// Returns [`SpgError::PlanRejected`] if the verifier rejects the technique
/// for `spec` at `cores` workers: a rejected plan never runs, not even to
/// be measured.
///
/// # Panics
///
/// Panics if `reps == 0`.
pub fn measure_technique(
    spec: &ConvSpec,
    technique: Technique,
    phase: Phase,
    sparsity: f64,
    cores: usize,
    reps: usize,
) -> Result<Duration, SpgError> {
    let program = lower_phase(spec, technique, phase, cores, KernelChoice::Auto)?;
    Ok(measure_program(&program, phase, sparsity, cores, reps))
}

/// Times one lowered program on one phase, one sample at a time, with
/// `budget` cores for the sample to spend inside itself
/// ([`ConvScratch::cores`]) — the primitive behind [`measure_technique`]
/// and the contest.
///
/// # Panics
///
/// Panics if `reps == 0`.
fn measure_program(
    program: &ConvProgram,
    phase: Phase,
    sparsity: f64,
    budget: usize,
    reps: usize,
) -> Duration {
    assert!(reps > 0, "repetition count must be positive");
    let spec = program.spec();
    let input: Vec<f32> =
        (0..spec.input_shape().len()).map(|i| ((i % 23) as f32 - 11.0) / 7.0).collect();
    let weights: Vec<f32> =
        (0..spec.weight_shape().len()).map(|i| ((i % 19) as f32 - 9.0) / 5.0).collect();
    // Prepared once, outside the timed loop, as a layer prepares once per
    // update: the runs below time the per-sample entry the trainer runs.
    let weights = program.prepared(&weights);
    let olen = spec.output_shape().len();
    // Clamped sparsity bounds the ratio to [1, 1000], so the cast is exact.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let keep_every = (1.0 / (1.0 - sparsity.clamp(0.0, 0.999)).max(1e-3)).round() as usize;
    let grad_out: Vec<f32> = (0..olen)
        .map(|i| if i % keep_every.max(1) == 0 { ((i % 13) as f32 - 6.0) / 4.0 } else { 0.0 })
        .collect();

    let mut output = vec![0.0f32; olen];
    let mut grad_in = vec![0.0f32; spec.input_shape().len()];
    let mut grad_w = vec![0.0f32; spec.weight_shape().len()];
    // One scratch reused across warm-up and all reps: the warm-up run
    // pays the buffer growth, so the timed runs measure the steady-state
    // (allocation-free) path the trainer actually executes.
    let mut scratch = ConvScratch { cores: budget, ..ConvScratch::new() };

    let mut run = |scratch: &mut ConvScratch| match phase {
        Phase::Forward => program.forward(&input, &weights, &mut output, scratch),
        Phase::Backward => {
            program.backward_data(&weights, &grad_out, &mut grad_in, scratch);
            program.backward_weights(&input, &grad_out, &mut grad_w, scratch);
        }
    };
    run(&mut scratch); // warm-up
    let start = Instant::now();
    for _ in 0..reps {
        run(&mut scratch);
    }
    // Repetition counts are single digits in practice; saturate rather than
    // truncate on a pathological caller.
    start.elapsed() / u32::try_from(reps).unwrap_or(u32::MAX)
}

/// Measures every applicable technique for both phases and returns the
/// fastest pair — the paper's per-layer selection step. Candidates are
/// lowered at `cores` and timed one sample at a time at `budget`, the
/// cores the deployed walk lends one sample: 1 for a trainer's sample
/// worker, `cores` for a call that owns them all.
///
/// # Panics
///
/// Panics if `reps == 0`.
pub fn tune_layer(
    spec: &ConvSpec,
    sparsity: f64,
    cores: usize,
    budget: usize,
    reps: usize,
) -> LayerPlan {
    LayerPlan {
        forward: pick(spec, Phase::Forward, sparsity, cores, budget, reps),
        backward: pick(spec, Phase::Backward, sparsity, cores, budget, reps),
    }
}

/// Measures only the forward-phase candidates, with all `cores` inside the
/// one sample, and returns the fastest — the inference subset of
/// [`tune_layer`] for a forward-only deployment
/// ([`Engine::forward`](spg_convnet::Engine::forward) spends every worker
/// inside the sample). Backward candidates are never run.
///
/// # Panics
///
/// Panics if `reps == 0`.
pub fn tune_layer_forward(spec: &ConvSpec, cores: usize, reps: usize) -> Technique {
    pick(spec, Phase::Forward, 0.0, cores, cores, reps)
}

/// One candidate of a contest: the technique and what lowering it gave.
type Lowered = (Technique, Result<ConvProgram, SpgError>);

/// Every candidate of `phase` at `cores`, each lowered once.
fn lower_candidates(spec: &ConvSpec, phase: Phase, cores: usize) -> Vec<Lowered> {
    let candidates = match phase {
        Phase::Forward => Technique::forward_candidates(),
        Phase::Backward => Technique::backward_candidates(cores),
    };
    candidates
        .iter()
        .map(|&t| (t, lower_phase(spec, t, phase, cores, KernelChoice::Auto)))
        .collect()
}

/// Runs the contest of `phase` over its candidates' lowered programs.
fn pick(
    spec: &ConvSpec,
    phase: Phase,
    sparsity: f64,
    cores: usize,
    budget: usize,
    reps: usize,
) -> Technique {
    // The deploy gate re-proves the winner through the plan-time verifier
    // at the moment it is about to be installed, so a plan that verified
    // when the race started but is rejected by the time it would deploy is
    // demoted, not installed.
    contest(phase, lower_candidates(spec, phase, cores), sparsity, cores, budget, reps, &|t| {
        verify_technique(spec, t, phase, cores).map(|_| ())
    })
}

/// Times each lowered candidate (a rejected plan never runs, not even to
/// be measured: its `Err` is the logged rejection), picks the fastest and
/// records the decision — the winner's own program supplies the `algo`,
/// `kernel` and `partition` fields — when telemetry is enabled.
///
/// `gate` is the deploy-time check, a seam fault-injection tests use to
/// reject a candidate mid-race. A gated-out winner is moved to the
/// decision's `rejected` list and the race re-picks from the remaining
/// timings; if the gate refuses every measured candidate the layer falls
/// back to the GEMM-in-Parallel serial baseline rather than panicking or
/// dropping the layer.
fn contest(
    phase: Phase,
    lowered: Vec<Lowered>,
    sparsity: f64,
    cores: usize,
    budget: usize,
    reps: usize,
    gate: &dyn Fn(Technique) -> Result<(), SpgError>,
) -> Technique {
    let reject = |t: Technique, e: &SpgError| spg_telemetry::RejectedCandidate {
        technique: t.id().to_string(),
        reason: e.to_string(),
    };
    let mut rejected = Vec::new();
    let mut timed: Vec<(Technique, ConvProgram, Duration)> = Vec::with_capacity(lowered.len());
    // What the stencil candidate bound, for the log's `kernel` field.
    let mut kernel = None;
    for (t, program) in lowered {
        match program {
            Ok(program) => {
                if t == Technique::StencilFp {
                    kernel = Some(program.kernel_kind());
                }
                let wall = measure_program(&program, phase, sparsity, budget, reps);
                timed.push((t, program, wall));
            }
            Err(e) => rejected.push(reject(t, &e)),
        }
    }
    let winner = loop {
        let fastest = timed.iter().enumerate().min_by_key(|(_, c)| c.2).map(|(i, c)| (i, c.0));
        let Some((idx, candidate)) = fastest else { break None };
        match gate(candidate) {
            Ok(()) => break Some(idx),
            // Rejected mid-race: record the refusal and re-pick from the
            // remaining timings.
            Err(e) => {
                rejected.push(reject(candidate, &e));
                timed.remove(idx);
            }
        }
    };
    // GEMM-in-Parallel is the always-applicable serial baseline; it
    // backstops the all-candidates-rejected case.
    let chosen = winner.map_or(Technique::GemmInParallel, |idx| timed[idx].0);
    // Log the measure-and-pick evidence so `spgcnn tune --json` can
    // report not just the winner but why it won.
    if spg_telemetry::enabled() {
        let program = winner.map(|idx| &timed[idx].1);
        spg_telemetry::record_decision(spg_telemetry::Decision {
            label: spg_telemetry::current_label().unwrap_or_else(|| "unscoped".to_string()),
            phase: match phase {
                Phase::Forward => spg_telemetry::Phase::Forward,
                Phase::Backward => spg_telemetry::Phase::Backward,
            },
            chosen: chosen.id().to_string(),
            sparsity,
            cores,
            candidates: timed
                .iter()
                .map(|(t, _, d)| spg_telemetry::CandidateTiming {
                    technique: t.id().to_string(),
                    wall_ns: duration_ns(*d),
                })
                .collect(),
            rejected,
            kernel: kernel.map(str::to_string),
            backend: Some("cpu".to_string()),
            // Per-phase algo spelling: `<technique>/<kernel>`, the kernel
            // leg being what the winner's program bound.
            algo: Some(format!(
                "{}/{}",
                chosen.id(),
                program.map_or("generic", ConvProgram::kernel_kind)
            )),
            // Minor-8 field: the dimension the winner's forward plan
            // splits one sample along. Backward plans have no such split.
            partition: match phase {
                Phase::Forward => program.map(|p| p.partition().to_string()),
                Phase::Backward => None,
            },
        });
    }
    chosen
}

/// Saturating nanosecond count for telemetry (u64 holds ~584 years).
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// How the framework chooses techniques.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuningMode {
    /// Use the paper's Sec. 4.4 empirical thresholds (no measurement).
    Heuristic,
    /// Measure all candidates with this many repetitions and pick the
    /// fastest (the paper's default behaviour).
    Measured {
        /// Timing repetitions per candidate.
        reps: usize,
    },
}

/// The spg-CNN framework facade: plans a network's layers and re-tunes
/// backward techniques as gradient sparsity drifts across epochs.
///
/// # Example
///
/// ```
/// use spg_core::autotune::{Framework, TuningMode};
///
/// let fw = Framework::new(16, TuningMode::Heuristic, 2);
/// assert_eq!(fw.cores(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct Framework {
    cores: usize,
    mode: TuningMode,
    retune_every: usize,
}

impl Framework {
    /// Creates a framework for a machine with `cores` cores, re-checking
    /// backward plans every `retune_every` epochs (the paper's
    /// "pre-specified number of epochs").
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or `retune_every == 0`.
    pub fn new(cores: usize, mode: TuningMode, retune_every: usize) -> Self {
        assert!(cores > 0, "core count must be positive");
        assert!(retune_every > 0, "retune interval must be positive");
        Framework { cores, mode, retune_every }
    }

    /// The configured core count.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The tuning mode.
    pub fn mode(&self) -> TuningMode {
        self.mode
    }

    /// Plans one layer for training at the given gradient sparsity. A
    /// measured plan is judged one sample on one core, as a trainer's
    /// sample worker runs it.
    pub fn plan_layer(&self, spec: &ConvSpec, sparsity: f64) -> LayerPlan {
        match self.mode {
            TuningMode::Heuristic => recommended_plan(spec, sparsity, self.cores),
            TuningMode::Measured { reps } => tune_layer(spec, sparsity, self.cores, 1, reps),
        }
    }

    /// Chooses a plan for every convolution layer (`choose` gets the conv
    /// ordinal and spec, under the layer's Tune scope so measurement flops
    /// stay out of the training buckets), lowers and verifies each one, and
    /// only then installs the programs in the `slots` executor slots — so a
    /// rejection leaves the network's executors untouched.
    fn install_plans(
        &self,
        net: &mut Network,
        slots: &[Phase],
        choose: impl Fn(usize, &ConvSpec) -> LayerPlan,
    ) -> Result<Vec<(usize, LayerPlan)>, SpgError> {
        let mut lowered = Vec::new();
        for (i, layer) in net.layers_mut().iter_mut().enumerate() {
            let label = spg_convnet::scope_label(i, layer.name());
            let Some(conv) = layer.as_conv_mut() else { continue };
            let _tune = spg_telemetry::scope(&label, spg_telemetry::Phase::Tune);
            let spec = *conv.spec();
            let plan = choose(lowered.len(), &spec);
            lowered.push((i, plan, lower(&spec, plan, self.cores, KernelChoice::Auto)?));
        }
        let mut plans = Vec::with_capacity(lowered.len());
        for (i, plan, program) in lowered {
            // The first pass only pushed indices of conv layers, so the
            // lookup cannot miss; skipping is the benign way to say so.
            let Some(conv) = net.layers_mut()[i].as_conv_mut() else { continue };
            program.install(conv, slots);
            plans.push((i, plan));
        }
        Ok(plans)
    }

    /// Plans every convolution layer of a network assuming `sparsity`
    /// backward-gradient sparsity, lowers and verifies each chosen plan,
    /// installs the resulting programs, and returns `(layer index, plan)`
    /// pairs for reporting. Nothing is installed unless every layer's plan
    /// verifies. This is what [`Engine::try_tune`] reaches via
    /// [`NetworkPlanner::try_plan`].
    ///
    /// [`Engine::try_tune`]: spg_convnet::Engine::try_tune
    /// [`NetworkPlanner::try_plan`]: spg_convnet::NetworkPlanner::try_plan
    ///
    /// # Errors
    ///
    /// Returns [`SpgError::PlanRejected`] if any layer's chosen plan fails
    /// verification (possible in heuristic mode, whose recommendations are
    /// not pre-filtered; measured mode only picks from verified
    /// candidates).
    pub fn try_plan_network(
        &self,
        net: &mut Network,
        sparsity: f64,
    ) -> Result<Vec<(usize, LayerPlan)>, SpgError> {
        self.install_plans(net, &[Phase::Forward, Phase::Backward], |_, spec| {
            self.plan_layer(spec, sparsity)
        })
    }

    /// [`try_plan_network`](Framework::try_plan_network) for callers with
    /// no error path.
    ///
    /// # Panics
    ///
    /// Panics with the verifier's message if a chosen plan is rejected.
    pub fn plan_network(&self, net: &mut Network, sparsity: f64) -> Vec<(usize, LayerPlan)> {
        self.try_plan_network(net, sparsity).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Plans one layer's forward technique only (the serving path). A
    /// measured plan is judged with every core inside the one sample, as
    /// [`Engine::forward`](spg_convnet::Engine::forward) runs it.
    pub fn plan_layer_forward(&self, spec: &ConvSpec) -> Technique {
        match self.mode {
            TuningMode::Heuristic => recommended_plan(spec, 0.0, self.cores).forward,
            TuningMode::Measured { reps } => tune_layer_forward(spec, self.cores, reps),
        }
    }

    /// Plans and installs forward executors only — inference never runs
    /// backward propagation, so backward tuning is skipped and the layers'
    /// backward slots are left alone. The returned plans carry the
    /// heuristic backward technique purely for reporting. Nothing is
    /// installed unless every layer's plan verifies.
    ///
    /// # Errors
    ///
    /// Returns [`SpgError::PlanRejected`] if any layer's chosen plan fails
    /// verification.
    pub fn try_plan_network_forward(
        &self,
        net: &mut Network,
    ) -> Result<Vec<(usize, LayerPlan)>, SpgError> {
        self.install_plans(net, &[Phase::Forward], |_, spec| LayerPlan {
            forward: self.plan_layer_forward(spec),
            backward: recommended_plan(spec, 0.0, self.cores).backward,
        })
    }

    /// [`try_plan_network_forward`](Framework::try_plan_network_forward)
    /// for callers with no error path.
    ///
    /// # Panics
    ///
    /// Panics with the verifier's message if a chosen plan is rejected.
    pub fn plan_network_forward(&self, net: &mut Network) -> Vec<(usize, LayerPlan)> {
        self.try_plan_network_forward(net).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Epoch callback for [`Trainer::train_with`](spg_convnet::Trainer):
    /// every `retune_every` epochs, re-plans each conv layer using that
    /// layer's measured gradient sparsity from the epoch statistics and
    /// installs the new plan's *backward* slot (forward plans do not
    /// depend on sparsity).
    ///
    /// # Panics
    ///
    /// Panics with the verifier's message if a re-chosen plan is rejected.
    pub fn retune(&self, net: &mut Network, stats: &EpochStats) {
        // Epochs are 1-based; 0 is a synthetic "before training" value
        // some callers pass, and `0.is_multiple_of(n)` holds for every n,
        // which used to trigger a spurious re-plan before the first batch.
        if stats.epoch == 0 || !stats.epoch.is_multiple_of(self.retune_every) {
            return;
        }
        self.install_plans(net, &[Phase::Backward], |conv_idx, spec| {
            let sparsity = stats.conv_grad_sparsity.get(conv_idx).copied().unwrap_or(0.0);
            self.plan_layer(spec, sparsity)
        })
        .unwrap_or_else(|e| panic!("{e}"));
    }
}

impl spg_convnet::NetworkPlanner for Framework {
    fn retune(&self, net: &mut Network, stats: &EpochStats) {
        Framework::retune(self, net, stats);
    }

    fn try_plan(&self, net: &mut Network, sparsity: f64) -> Result<(), spg_error::Error> {
        self.try_plan_network(net, sparsity).map(|_| ()).map_err(spg_error::Error::from)
    }

    fn try_plan_forward(&self, net: &mut Network) -> Result<(), spg_error::Error> {
        self.try_plan_network_forward(net).map(|_| ()).map_err(spg_error::Error::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spg_convnet::layer::{ConvLayer, ReluLayer};

    fn small_spec() -> ConvSpec {
        ConvSpec::new(2, 10, 10, 4, 3, 3, 1, 1).unwrap()
    }

    #[test]
    fn measurement_returns_nonzero_time() {
        let d =
            measure_technique(&small_spec(), Technique::GemmInParallel, Phase::Forward, 0.0, 1, 2);
        assert!(d.expect("baseline verifies") > Duration::ZERO);
    }

    #[test]
    fn tune_layer_returns_applicable_techniques() {
        let plan = tune_layer(&small_spec(), 0.9, 1, 1, 1);
        assert!(Technique::forward_candidates().contains(&plan.forward));
        assert!(Technique::backward_candidates(1).contains(&plan.backward));
    }

    /// One `tune_layer` call lowers each candidate once per phase: the
    /// contest times, gates and logs the programs it was handed.
    #[test]
    fn tune_layer_lowers_each_candidate_once_per_phase() {
        use crate::verify::LOWERINGS;
        spg_telemetry::set_enabled(true);
        let cores = 2;
        let before = LOWERINGS.with(std::cell::Cell::get);
        tune_layer(&small_spec(), 0.9, cores, 1, 1);
        let candidates =
            Technique::forward_candidates().len() + Technique::backward_candidates(cores).len();
        assert_eq!(LOWERINGS.with(std::cell::Cell::get) - before, candidates);
    }

    #[test]
    fn heuristic_framework_installs_executors() {
        let mut rng = SmallRng::seed_from_u64(1);
        let spec = small_spec();
        let conv = ConvLayer::new(spec, &mut rng);
        let olen = spec.output_shape().len();
        let mut net = Network::new(vec![Box::new(conv), Box::new(ReluLayer::new(olen))]).unwrap();
        let fw = Framework::new(16, TuningMode::Heuristic, 1);
        let plans = fw.plan_network(&mut net, 0.9);
        assert_eq!(plans.len(), 1);
        // 4 features < 128 -> stencil FP; 0.9 > 0.75 -> sparse BP.
        assert_eq!(plans[0].1.forward, Technique::StencilFp);
        assert_eq!(plans[0].1.backward, Technique::SparseBp);
        let conv = net.layers_mut()[0].as_conv_mut().unwrap();
        let (fwd, bwd) = conv.executor_names();
        assert_eq!(fwd, "stencil-fp");
        assert_eq!(bwd, "sparse-bp");
    }

    #[test]
    fn retune_respects_interval_and_sparsity() {
        let mut rng = SmallRng::seed_from_u64(2);
        let spec = small_spec();
        let conv = ConvLayer::new(spec, &mut rng);
        let olen = spec.output_shape().len();
        let mut net = Network::new(vec![Box::new(conv), Box::new(ReluLayer::new(olen))]).unwrap();
        let fw = Framework::new(16, TuningMode::Heuristic, 2);
        fw.plan_network(&mut net, 0.0); // dense start: GiP backward
        let stats = |epoch, sparsity| EpochStats {
            epoch,
            mean_loss: 1.0,
            accuracy: 0.5,
            conv_grad_sparsity: vec![sparsity],
            images_per_sec: 1.0,
        };
        // Epoch 1: interval not hit, stays dense.
        fw.retune(&mut net, &stats(1, 0.95));
        let bwd = net.layers_mut()[0].as_conv_mut().unwrap().executor_names().1;
        assert_ne!(bwd, "sparse-bp");
        // Epoch 2: interval hit, sparsity high -> sparse BP installed.
        fw.retune(&mut net, &stats(2, 0.95));
        let bwd = net.layers_mut()[0].as_conv_mut().unwrap().executor_names().1;
        assert_eq!(bwd, "sparse-bp");
    }

    #[test]
    fn retune_ignores_synthetic_epoch_zero() {
        let mut rng = SmallRng::seed_from_u64(4);
        let spec = small_spec();
        let conv = ConvLayer::new(spec, &mut rng);
        let olen = spec.output_shape().len();
        let mut net = Network::new(vec![Box::new(conv), Box::new(ReluLayer::new(olen))]).unwrap();
        // Measured mode records a tuning decision per re-planned phase, so
        // the decision log doubles as evidence of whether retune ran.
        let fw = Framework::new(1, TuningMode::Measured { reps: 1 }, 2);
        spg_telemetry::set_enabled(true);
        let stats = |epoch| EpochStats {
            epoch,
            mean_loss: 1.0,
            accuracy: 0.5,
            conv_grad_sparsity: vec![0.95],
            images_per_sec: 1.0,
        };
        // Retune scopes each layer, so its decisions carry the layer label.
        let label = spg_convnet::scope_label(0, net.layers_mut()[0].name());
        let logged = |label: &str| {
            spg_telemetry::snapshot().decisions.iter().filter(|d| d.label == label).count()
        };
        let before = logged(&label);
        // 0 is a multiple of every interval; before the guard this logged
        // a spurious pre-training re-plan.
        fw.retune(&mut net, &stats(0));
        assert_eq!(logged(&label), before, "epoch 0 must not re-plan");
        // Positive control: a real on-interval epoch does re-plan.
        fw.retune(&mut net, &stats(2));
        assert!(logged(&label) > before, "epoch 2 re-plans and logs its decision");
    }

    /// Forward decisions carry the minor-5 `kernel` field — what the
    /// stencil candidate bound — whenever the stencil technique was
    /// measured; backward decisions never do.
    #[test]
    fn forward_decisions_record_the_bound_kernel() {
        spg_telemetry::set_enabled(true);
        // Registry shape (3x3 s1) with an 18-wide output.
        let spec = ConvSpec::new(2, 20, 20, 3, 3, 3, 1, 1).unwrap();
        {
            let _scope = spg_telemetry::scope("kernel-decision-layer", spg_telemetry::Phase::Tune);
            tune_layer(&spec, 0.5, 1, 1, 1);
        }
        let bound = crate::verify::select_kernel(&spec).map_or("generic", |_| "specialized");
        let snap = spg_telemetry::snapshot();
        let mine: Vec<_> =
            snap.decisions.iter().filter(|d| d.label == "kernel-decision-layer").collect();
        let forward: Vec<_> =
            mine.iter().filter(|d| d.phase == spg_telemetry::Phase::Forward).collect();
        assert!(!forward.is_empty(), "forward decision logged");
        for d in &forward {
            assert_eq!(d.kernel.as_deref(), Some(bound), "forward decision records kernel");
        }
        for d in mine.iter().filter(|d| d.phase == spg_telemetry::Phase::Backward) {
            assert!(d.kernel.is_none(), "backward decisions carry no kernel field");
        }
    }

    /// A stencil plan deploys under the stencil name whichever kernel it
    /// was lowered with; a GEMM plan never does.
    #[test]
    fn forward_executor_honours_kernel_choice() {
        let deployed = |technique, kernel| {
            let program = lower_phase(&small_spec(), technique, Phase::Forward, 1, kernel);
            std::sync::Arc::new(program.expect("plan verifies")).executor_for(Phase::Forward)
        };
        let pinned = deployed(Technique::StencilFp, KernelChoice::Generic);
        assert_eq!(pinned.name(), "stencil-fp");
        let auto = deployed(Technique::StencilFp, KernelChoice::Auto);
        assert_eq!(auto.name(), "stencil-fp");
        let gemm = deployed(Technique::GemmInParallel, KernelChoice::Generic);
        assert_ne!(gemm.name(), "stencil-fp");
    }

    /// Fault injection for the deploy-time gate: when every measured
    /// candidate is rejected mid-race, the layer falls back to the
    /// GEMM-in-Parallel baseline, every refusal lands in the decision's
    /// `rejected` list, and nothing panics or drops the layer.
    #[test]
    fn gate_rejecting_everything_falls_back_to_gip() {
        spg_telemetry::set_enabled(true);
        let spec = small_spec();
        let reject_all = |t: Technique| {
            Err(crate::SpgError::PlanRejected {
                technique: t.id(),
                check: spg_check::CheckError::BudgetExceeded {
                    budget: 0,
                    used: 1,
                    context: "injected deploy-time fault",
                },
            })
        };
        let chosen = {
            let _scope = spg_telemetry::scope("gate-fault-layer", spg_telemetry::Phase::Tune);
            contest(
                Phase::Forward,
                lower_candidates(&spec, Phase::Forward, 1),
                0.0,
                1,
                1,
                1,
                &reject_all,
            )
        };
        assert_eq!(chosen, Technique::GemmInParallel, "baseline fallback");
        let snap = spg_telemetry::snapshot();
        let decision = snap
            .decisions
            .iter()
            .find(|d| d.label == "gate-fault-layer" && d.phase == spg_telemetry::Phase::Forward)
            .expect("decision still logged under fault injection");
        assert!(decision.candidates.is_empty(), "every timing was demoted");
        let rejected: Vec<&str> = decision.rejected.iter().map(|r| r.technique.as_str()).collect();
        for t in Technique::forward_candidates() {
            assert!(rejected.contains(&t.id()), "{} recorded as rejected", t.id());
        }
        assert!(
            decision.rejected.iter().any(|r| r.reason.contains("injected deploy-time fault")),
            "gate refusals carry the verifier's reason"
        );
    }

    /// A gate that refuses only the would-be winner re-picks the next
    /// fastest surviving candidate instead of falling all the way back.
    #[test]
    fn gate_rejecting_the_winner_repicks_a_survivor() {
        let spec = small_spec();
        use std::sync::Mutex;
        let refused: Mutex<Option<Technique>> = Mutex::new(None);
        let reject_first = |t: Technique| {
            let mut slot = refused.lock().unwrap();
            match *slot {
                // First candidate the gate sees (the race winner): refuse.
                None => {
                    *slot = Some(t);
                    Err(crate::SpgError::PlanRejected {
                        technique: t.id(),
                        check: spg_check::CheckError::BudgetExceeded {
                            budget: 0,
                            used: 1,
                            context: "injected deploy-time fault",
                        },
                    })
                }
                Some(_) => Ok(()),
            }
        };
        let chosen = contest(
            Phase::Forward,
            lower_candidates(&spec, Phase::Forward, 1),
            0.0,
            1,
            1,
            1,
            &reject_first,
        );
        let first = refused.lock().unwrap().expect("gate saw the race winner");
        assert_ne!(chosen, first, "refused winner must not deploy");
        assert!(Technique::forward_candidates().contains(&chosen));
    }

    /// Forward decisions record the minor-8 `partition` field read off the
    /// winner's lowered plan; backward decisions leave it absent.
    #[test]
    fn decisions_record_the_partition_the_winner_was_lowered_with() {
        spg_telemetry::set_enabled(true);
        // ImageNet-22K L0 (Table 2), one candidate per contest so the
        // winner is known.
        let spec = ConvSpec::square(262, 120, 3, 7, 2);
        let logged = |label: &str, technique, cores| {
            let program = lower_phase(&spec, technique, Phase::Forward, cores, KernelChoice::Auto);
            {
                let _scope = spg_telemetry::scope(label, spg_telemetry::Phase::Tune);
                contest(Phase::Forward, vec![(technique, program)], 0.0, cores, cores, 1, &|_| {
                    Ok(())
                });
            }
            let snap = spg_telemetry::snapshot();
            let decision = snap.decisions.iter().find(|d| d.label == label).cloned();
            decision.expect("decision logged").partition
        };
        let partition = logged("partition-stencil-8", Technique::StencilFp, 8);
        assert_eq!(partition.as_deref(), Some("y-band"));
        let partition = logged("partition-stencil-1", Technique::StencilFp, 1);
        assert_eq!(partition.as_deref(), Some("sample"));
        let partition = logged("partition-gemm-8", Technique::GemmInParallel, 8);
        assert_eq!(partition.as_deref(), Some("out-channel"));
        {
            let _scope = spg_telemetry::scope("partition-backward", spg_telemetry::Phase::Tune);
            pick(&small_spec(), Phase::Backward, 0.5, 1, 1, 1);
        }
        let snap = spg_telemetry::snapshot();
        let backward = snap.decisions.iter().find(|d| d.label == "partition-backward");
        assert!(backward.expect("decision logged").partition.is_none());
    }

    #[test]
    fn measured_mode_runs_end_to_end() {
        let fw = Framework::new(1, TuningMode::Measured { reps: 1 }, 1);
        let plan = fw.plan_layer(&small_spec(), 0.85);
        assert!(Technique::backward_candidates(1).contains(&plan.backward));
    }

    #[test]
    #[should_panic(expected = "core count")]
    fn zero_cores_rejected() {
        Framework::new(0, TuningMode::Heuristic, 1);
    }
}
