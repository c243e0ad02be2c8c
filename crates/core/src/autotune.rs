//! Measure-and-pick scheduling (paper Sec. 4.4).
//!
//! "spg-CNN integrates the three techniques and automatically identifies
//! the best set for each convolution layer ... it runs each layer with
//! \[all applicable techniques\] and, based on the measured performance,
//! chooses the fastest technique to deploy for each layer. For BP, it
//! checks for a change in relative performance ... after a pre-specified
//! number of epochs as error gradient sparsity changes during training."
//!
//! [`tune_layer`] is the measurement primitive; [`Framework`] applies
//! plans to whole networks and re-tunes between epochs.

use std::time::{Duration, Instant};

use spg_codegen::KernelChoice;
use spg_convnet::workspace::ConvScratch;
use spg_convnet::{ConvSpec, EpochStats, Network};

use crate::backend::{AlgoChoice, Backend, ConvDescriptor, CpuBackend};
use crate::compiled::ConvProgram;
use crate::schedule::{recommended_plan, LayerPlan, Technique};
use crate::verify::{lower, lower_phase};
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
/// warm-up run that also pays allocation and code-path warming costs).
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
    Ok(measure_program(&program, phase, sparsity, reps))
}

/// Times one lowered program on one phase — the primitive behind
/// [`measure_technique`], also used to race the generic stencil loops
/// against a specialized registry instance for the same technique.
///
/// # Panics
///
/// Panics if `reps == 0`.
fn measure_program(program: &ConvProgram, phase: Phase, sparsity: f64, reps: usize) -> Duration {
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
    // (allocation-free) path the trainer actually executes. A measurement
    // is one sample with the program's cores to itself.
    let mut scratch = ConvScratch { cores: program.cores(), ..ConvScratch::new() };

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
/// fastest pair — the paper's per-layer selection step.
///
/// # Panics
///
/// Panics if `reps == 0`.
pub fn tune_layer(spec: &ConvSpec, sparsity: f64, cores: usize, reps: usize) -> LayerPlan {
    tune_layer_with_kernels(spec, sparsity, cores, reps).plan
}

/// What tuning one layer produced: the technique pair plus which stencil
/// forward kernel — specialized registry instance or generic loops — the
/// per-layer measurement favoured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunedLayer {
    /// The fastest technique pair.
    pub plan: LayerPlan,
    /// Forward stencil kernel choice: [`KernelChoice::Generic`] when the
    /// generic loops measured faster than the specialized instance (or
    /// the caller should pin them), [`KernelChoice::Auto`] otherwise.
    pub fp_kernel: KernelChoice,
}

/// [`tune_layer`] returning the forward kernel choice alongside the
/// technique pair. The candidate space is the CPU backend's
/// [`get_algos`](Backend::get_algos) enumeration — the generic search the
/// backend abstraction makes possible — so the autotuner measures exactly
/// the algorithms any other backend consumer can compile. When the
/// stencil forward technique is enumerated with a verified specialized
/// instance, the instance is raced against the generic loops and the
/// winner is recorded in the decision log (schema minor 5, `kernel`
/// field; the chosen backend/algo ids land in the minor-6 fields).
///
/// # Panics
///
/// Panics if `reps == 0`.
pub fn tune_layer_with_kernels(
    spec: &ConvSpec,
    sparsity: f64,
    cores: usize,
    reps: usize,
) -> TunedLayer {
    let desc = ConvDescriptor::new(*spec, cores);
    let algos: Vec<AlgoChoice> = CpuBackend::new().get_algos(&desc).collect();
    let (forward, fp_kernel) = pick(spec, Phase::Forward, &algos, sparsity, cores, reps);
    let (backward, _) = pick(spec, Phase::Backward, &algos, sparsity, cores, reps);
    TunedLayer { plan: LayerPlan { forward, backward }, fp_kernel }
}

/// The techniques the backend enumeration admits for one phase, in
/// [`Technique`] candidate order, plus the rejection evidence for the
/// candidates it filtered out (re-deriving the verifier's reason, since
/// [`Backend::get_algos`] yields only survivors).
fn phase_candidates(
    spec: &ConvSpec,
    phase: Phase,
    algos: &[AlgoChoice],
    cores: usize,
) -> (Vec<Technique>, Vec<spg_telemetry::RejectedCandidate>) {
    let candidates = match phase {
        Phase::Forward => Technique::forward_candidates(),
        Phase::Backward => Technique::backward_candidates(),
    };
    let of_phase = |a: &AlgoChoice| match phase {
        Phase::Forward => a.forward,
        Phase::Backward => a.backward,
    };
    let mut safe = Vec::with_capacity(candidates.len());
    let mut rejected = Vec::new();
    for &t in candidates {
        if algos.iter().any(|a| of_phase(a) == t) {
            safe.push(t);
        } else if let Err(e) = crate::verify::verify_technique(spec, t, phase, cores) {
            rejected.push(spg_telemetry::RejectedCandidate {
                technique: t.id().to_string(),
                reason: e.to_string(),
            });
        }
    }
    (safe, rejected)
}

/// Measures the backend-enumerated techniques for one phase and picks the
/// fastest, recording the decision (with the forward stencil kernel
/// choice, the chosen backend/algo ids, and the winner's partition
/// dimension) when telemetry is enabled.
fn pick(
    spec: &ConvSpec,
    phase: Phase,
    algos: &[AlgoChoice],
    sparsity: f64,
    cores: usize,
    reps: usize,
) -> (Technique, KernelChoice) {
    // The deploy gate re-proves the winner through the plan-time verifier
    // at the moment it is about to be installed, so a plan that was
    // enumerable when the race started but is rejected by the time it
    // would deploy is demoted, not installed.
    pick_with_gate(spec, phase, algos, sparsity, cores, reps, &|t| {
        crate::verify::verify_technique(spec, t, phase, cores).map(|_| ())
    })
}

/// [`pick`] with an explicit deploy-time gate, the seam fault-injection
/// tests use to reject a candidate mid-race. A gated-out winner is moved
/// to the decision's `rejected` list and the race re-picks from the
/// remaining timings; if the gate refuses every measured candidate the
/// layer falls back to the GEMM-in-Parallel serial baseline rather than
/// panicking or dropping the layer.
fn pick_with_gate(
    spec: &ConvSpec,
    phase: Phase,
    algos: &[AlgoChoice],
    sparsity: f64,
    cores: usize,
    reps: usize,
    gate: &dyn Fn(Technique) -> Result<(), crate::SpgError>,
) -> (Technique, KernelChoice) {
    // Plan-time gate: the backend enumerates only verifier-approved
    // algorithms, so everything measured below is deployable; rejections
    // are logged, never run.
    let (safe, mut rejected) = phase_candidates(spec, phase, algos, cores);
    // Generic-vs-specialized race for the stencil forward kernel, first —
    // only when the verifier admitted the stencil technique (a rejected
    // plan must never run, not even for measurement). Its choice is the
    // one the layer deploys under, so every candidate below — the banded
    // stencils bind the same kernel — is timed as the program that would
    // be installed.
    let kernel = match phase {
        Phase::Forward if safe.contains(&Technique::StencilFp) => {
            Some(tune_forward_kernel(spec, sparsity, reps))
        }
        _ => None,
    };
    let choice = kernel.map_or(KernelChoice::Auto, |(choice, _)| choice);
    // Two names can lower to one program — both GEMM techniques' forward,
    // the sequential stencil at `cores > 1` and the band it splits into —
    // and one program is one measurement: a later name takes the earlier
    // one's time, and `min_by_key` gives the exact tie to the first name in
    // candidate order instead of letting noise pick the id that is logged.
    let mut timed: Vec<(Technique, Duration)> = Vec::with_capacity(safe.len());
    let mut programs: Vec<ConvProgram> = Vec::with_capacity(safe.len());
    for &t in &safe {
        let Ok(program) = lower_phase(spec, t, phase, cores, choice) else { continue };
        let twin = programs.iter().position(|seen| match phase {
            Phase::Forward => seen.plan().forward == program.plan().forward,
            Phase::Backward => seen.plan().backward == program.plan().backward,
        });
        let wall = match twin {
            Some(first) => timed[first].1,
            None => measure_program(&program, phase, sparsity, reps),
        };
        timed.push((t, wall));
        programs.push(program);
    }
    let chosen = loop {
        let fastest =
            timed.iter().enumerate().min_by_key(|&(_, &(_, d))| d).map(|(i, &(t, _))| (i, t));
        let Some((idx, candidate)) = fastest else {
            // GEMM-in-Parallel is the always-applicable serial baseline;
            // it backstops the all-candidates-rejected case.
            break Technique::GemmInParallel;
        };
        match gate(candidate) {
            Ok(()) => break candidate,
            Err(e) => {
                // Rejected mid-race: record the refusal and re-pick from
                // the remaining timings.
                rejected.push(spg_telemetry::RejectedCandidate {
                    technique: candidate.id().to_string(),
                    reason: e.to_string(),
                });
                timed.remove(idx);
            }
        }
    };
    // Log the measure-and-pick evidence so `spgcnn tune --json` can
    // report not just the winner but why it won.
    if spg_telemetry::enabled() {
        // Per-phase algo spelling: `<technique>/<kernel>`, where the
        // kernel leg is what deploying the winner under the race's choice
        // binds — an instance for a stencil forward, sequential or banded,
        // that resolves and verifies one; `generic` everywhere else.
        let bound = lower_phase(spec, chosen, phase, cores, choice)
            .is_ok_and(|program| program.specialized_kernel().is_some());
        let algo_kernel = if bound { "specialized" } else { "generic" };
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
                .map(|&(t, d)| spg_telemetry::CandidateTiming {
                    technique: t.id().to_string(),
                    wall_ns: duration_ns(d),
                })
                .collect(),
            rejected,
            kernel: kernel.map(|(_, name)| name.to_string()),
            backend: Some("cpu".to_string()),
            algo: Some(format!("{}/{algo_kernel}", chosen.id())),
            // Minor-8 field: which dimension the winner splits the layer
            // along. Backward techniques always split by sample.
            partition: match phase {
                Phase::Forward => Some(chosen.partition_dim().id().to_string()),
                Phase::Backward => None,
            },
        });
    }
    (chosen, choice)
}

/// Races the specialized instance lowering binds (when one resolves)
/// against the generic loops for the stencil forward kernel, returning the
/// deployment choice and its decision-log spelling. Shapes with no
/// runnable instance skip the measurement: `Auto` lowering already binds
/// the generic loops there.
fn tune_forward_kernel(
    spec: &ConvSpec,
    sparsity: f64,
    reps: usize,
) -> (KernelChoice, &'static str) {
    let lowered = |kernel| lower_phase(spec, Technique::StencilFp, Phase::Forward, 1, kernel);
    let (auto, generic) = match (lowered(KernelChoice::Auto), lowered(KernelChoice::Generic)) {
        (Ok(auto), Ok(generic)) if auto.specialized_kernel().is_some() => (auto, generic),
        _ => return (KernelChoice::Auto, "generic"),
    };
    let specialized = measure_program(&auto, Phase::Forward, sparsity, reps);
    let generic = measure_program(&generic, Phase::Forward, sparsity, reps);
    if specialized <= generic {
        (KernelChoice::Auto, "specialized")
    } else {
        (KernelChoice::Generic, "generic")
    }
}

/// Saturating nanosecond count for telemetry (u64 holds ~584 years).
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Measures only the forward-phase candidates and returns the fastest —
/// the inference/serving subset of [`tune_layer`]. Backward candidates
/// are never run, so tuning for a forward-only deployment costs roughly
/// a third of a full training tune.
///
/// # Panics
///
/// Panics if `reps == 0`.
pub fn tune_layer_forward(spec: &ConvSpec, cores: usize, reps: usize) -> Technique {
    tune_layer_forward_with_kernels(spec, cores, reps).0
}

/// [`tune_layer_forward`] returning the stencil kernel choice alongside
/// the technique — the serving path's analogue of
/// [`tune_layer_with_kernels`].
///
/// # Panics
///
/// Panics if `reps == 0`.
pub fn tune_layer_forward_with_kernels(
    spec: &ConvSpec,
    cores: usize,
    reps: usize,
) -> (Technique, KernelChoice) {
    let desc = ConvDescriptor::new(*spec, cores);
    let algos: Vec<AlgoChoice> = CpuBackend::new().get_algos(&desc).collect();
    pick(spec, Phase::Forward, &algos, 0.0, cores, reps)
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

    /// Plans one layer at the given gradient sparsity.
    pub fn plan_layer(&self, spec: &ConvSpec, sparsity: f64) -> LayerPlan {
        self.plan_layer_with_kernels(spec, sparsity).plan
    }

    /// Plans one layer and reports the forward stencil kernel choice
    /// alongside the technique pair. Heuristic mode never measures, so it
    /// keeps [`KernelChoice::Auto`] (specialized where available).
    pub fn plan_layer_with_kernels(&self, spec: &ConvSpec, sparsity: f64) -> TunedLayer {
        match self.mode {
            TuningMode::Heuristic => TunedLayer {
                plan: recommended_plan(spec, sparsity, self.cores),
                fp_kernel: KernelChoice::Auto,
            },
            TuningMode::Measured { reps } => {
                tune_layer_with_kernels(spec, sparsity, self.cores, reps)
            }
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
        choose: impl Fn(usize, &ConvSpec) -> TunedLayer,
    ) -> Result<Vec<(usize, LayerPlan)>, SpgError> {
        let mut lowered = Vec::new();
        for (i, layer) in net.layers_mut().iter_mut().enumerate() {
            let label = spg_convnet::scope_label(i, layer.name());
            let Some(conv) = layer.as_conv_mut() else { continue };
            let _tune = spg_telemetry::scope(&label, spg_telemetry::Phase::Tune);
            let spec = *conv.spec();
            let tuned = choose(lowered.len(), &spec);
            lowered.push((i, tuned.plan, lower(&spec, tuned.plan, self.cores, tuned.fp_kernel)?));
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
    /// backward-gradient sparsity, lowers and verifies each chosen plan
    /// (with the stencil forward kernel pinned to the generic loops where
    /// measurement favoured them), installs the resulting programs, and
    /// returns `(layer index, plan)` pairs for reporting. Nothing is
    /// installed unless every layer's plan verifies. This is what
    /// [`Engine::try_tune`] reaches via [`NetworkPlanner::try_plan`].
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
            self.plan_layer_with_kernels(spec, sparsity)
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

    /// Plans one layer's forward technique only (the serving path).
    pub fn plan_layer_forward(&self, spec: &ConvSpec) -> Technique {
        self.plan_layer_forward_with_kernels(spec).0
    }

    /// [`plan_layer_forward`](Framework::plan_layer_forward) reporting the
    /// stencil kernel choice alongside the technique.
    pub fn plan_layer_forward_with_kernels(&self, spec: &ConvSpec) -> (Technique, KernelChoice) {
        match self.mode {
            TuningMode::Heuristic => {
                (recommended_plan(spec, 0.0, self.cores).forward, KernelChoice::Auto)
            }
            TuningMode::Measured { reps } => {
                tune_layer_forward_with_kernels(spec, self.cores, reps)
            }
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
        self.install_plans(net, &[Phase::Forward], |_, spec| {
            let (forward, fp_kernel) = self.plan_layer_forward_with_kernels(spec);
            let backward = recommended_plan(spec, 0.0, self.cores).backward;
            TunedLayer { plan: LayerPlan { forward, backward }, fp_kernel }
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
            self.plan_layer_with_kernels(spec, sparsity)
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
        let plan = tune_layer(&small_spec(), 0.9, 1, 1);
        assert!(Technique::forward_candidates().contains(&plan.forward));
        assert!(Technique::backward_candidates().contains(&plan.backward));
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

    /// Forward decisions carry the minor-5 `kernel` field whenever the
    /// stencil technique was measured; backward decisions never do.
    #[test]
    fn forward_decisions_record_kernel_choice() {
        spg_telemetry::set_enabled(true);
        // Registry shape (3x3 s1) with an 18-wide output: stencil-fp
        // verifies, so the generic-vs-specialized race runs.
        let spec = ConvSpec::new(2, 20, 20, 3, 3, 3, 1, 1).unwrap();
        {
            let _scope = spg_telemetry::scope("kernel-decision-layer", spg_telemetry::Phase::Tune);
            let tuned = tune_layer_with_kernels(&spec, 0.5, 1, 1);
            assert!(matches!(tuned.fp_kernel, KernelChoice::Auto | KernelChoice::Generic));
        }
        let snap = spg_telemetry::snapshot();
        let mine: Vec<_> =
            snap.decisions.iter().filter(|d| d.label == "kernel-decision-layer").collect();
        let forward: Vec<_> =
            mine.iter().filter(|d| d.phase == spg_telemetry::Phase::Forward).collect();
        assert!(!forward.is_empty(), "forward decision logged");
        for d in &forward {
            let kernel = d.kernel.as_deref().expect("forward decision records kernel");
            assert!(kernel == "specialized" || kernel == "generic", "kernel = {kernel}");
        }
        for d in mine.iter().filter(|d| d.phase == spg_telemetry::Phase::Backward) {
            assert!(d.kernel.is_none(), "backward decisions carry no kernel field");
        }
    }

    /// A stencil plan deploys under the stencil name whichever kernel
    /// measurement favoured; a GEMM plan never does.
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
        let desc = ConvDescriptor::new(spec, 1);
        let algos: Vec<AlgoChoice> = CpuBackend::new().get_algos(&desc).collect();
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
            pick_with_gate(&spec, Phase::Forward, &algos, 0.0, 1, 1, &reject_all).0
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
        let desc = ConvDescriptor::new(spec, 1);
        let algos: Vec<AlgoChoice> = CpuBackend::new().get_algos(&desc).collect();
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
        let (chosen, _) = pick_with_gate(&spec, Phase::Forward, &algos, 0.0, 1, 1, &reject_first);
        let first = refused.lock().unwrap().expect("gate saw the race winner");
        assert_ne!(chosen, first, "refused winner must not deploy");
        assert!(Technique::forward_candidates().contains(&chosen));
    }

    /// Forward decisions record the minor-8 `partition` field naming the
    /// winner's worker decomposition; backward decisions leave it absent.
    #[test]
    fn decisions_record_partition_dimension() {
        spg_telemetry::set_enabled(true);
        let spec = small_spec();
        {
            let _scope = spg_telemetry::scope("partition-layer", spg_telemetry::Phase::Tune);
            tune_layer(&spec, 0.5, 1, 1);
        }
        let snap = spg_telemetry::snapshot();
        let mine: Vec<_> = snap.decisions.iter().filter(|d| d.label == "partition-layer").collect();
        assert!(!mine.is_empty());
        for d in &mine {
            match d.phase {
                spg_telemetry::Phase::Forward => {
                    let p = d.partition.as_deref().expect("forward decision names its partition");
                    assert!(["sample", "y-band", "out-channel"].contains(&p), "partition = {p}");
                }
                _ => assert!(d.partition.is_none(), "backward decisions carry no partition"),
            }
        }
    }

    #[test]
    fn measured_mode_runs_end_to_end() {
        let fw = Framework::new(1, TuningMode::Measured { reps: 1 }, 1);
        let plan = fw.plan_layer(&small_spec(), 0.85);
        assert!(Technique::backward_candidates().contains(&plan.backward));
    }

    #[test]
    #[should_panic(expected = "core count")]
    fn zero_cores_rejected() {
        Framework::new(0, TuningMode::Heuristic, 1);
    }
}
