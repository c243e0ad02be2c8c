//! The unified public entry point for training, inference, and tuning.
//!
//! [`Engine`] is the one facade callers are expected to use: it owns a
//! [`Network`], a worker count, a [`TrainerConfig`], and an optional
//! [`NetworkPlanner`] (the autotuner, injected by `spg-core` or any other
//! planner implementation), so application code never constructs
//! `Workspace`/`ConvScratch`/executor plumbing by hand. Inference through
//! it runs out of an activation trace and a scratch, not a training
//! workspace; [`Engine::forward`] keeps one such pair warm between calls.
//!
//! The worker count is the one core figure a caller gives. Whole samples
//! go to workers first (GEMM-in-Parallel, Sec. 4.1); when a call has fewer
//! samples than workers the engine hands the idle cores to the samples it
//! does have, as the [core budget](ConvScratch::cores) of their walk.
//!
//! # Example
//!
//! ```
//! use rand::{rngs::SmallRng, SeedableRng};
//! use spg_convnet::{layer::ConvLayer, ConvSpec, Engine, Network};
//! use spg_tensor::Tensor;
//!
//! // A single-conv-layer classifier over 8x8x1 images with 4 features.
//! let spec = ConvSpec::new(1, 8, 8, 4, 3, 3, 1, 1)?;
//! let conv = ConvLayer::new(spec, &mut SmallRng::seed_from_u64(7));
//! let net = Network::new(vec![Box::new(conv)])?;
//! let engine = Engine::builder().network(net).workers(2).build()?;
//! let input = Tensor::filled(engine.network().input_len(), 0.5);
//! let classes = engine.infer(&[input]);
//! assert_eq!(classes.len(), 1);
//! # Ok::<(), spg_error::Error>(())
//! ```

use std::sync::{Arc, Mutex};

use spg_error::{Error, ErrorKind};
use spg_tensor::Tensor;

use crate::data::Dataset;
use crate::layer::ConvLayer;
use crate::workspace::ConvScratch;
use crate::{EpochStats, Network, SampleTrace, Trainer, TrainerConfig};

/// Executor-planning strategy injected into an [`Engine`].
///
/// The `spg-core` autotuner implements this trait; the indirection keeps
/// `spg-convnet` free of a dependency on the tuning crate while letting
/// the Engine drive planning at the right moments (before training,
/// before forward-only serving, and between epochs as gradient sparsity
/// drifts).
pub trait NetworkPlanner: Send + Sync {
    /// Installs forward and backward executors for a full training run at
    /// the given expected backward gradient sparsity. Planners whose
    /// chosen plans can be rejected (e.g. by a plan-time verifier) report
    /// that as an error and install nothing on failure.
    ///
    /// # Errors
    ///
    /// Implementation-defined; the `spg-core` autotuner returns
    /// [`ErrorKind::Tuning`] when a chosen plan fails verification.
    fn try_plan(&self, net: &mut Network, sparsity: f64) -> Result<(), Error>;

    /// Installs forward executors only — the inference/serving path never
    /// runs backward propagation, so backward tuning work is skipped.
    ///
    /// # Errors
    ///
    /// Implementation-defined; see [`try_plan`](NetworkPlanner::try_plan).
    fn try_plan_forward(&self, net: &mut Network) -> Result<(), Error>;

    /// Re-plans after an epoch using its observed statistics (Sec. 4.4's
    /// sparsity-drift retuning). Implementations may be a no-op.
    fn retune(&self, net: &mut Network, stats: &EpochStats);
}

/// A per-layer algorithm choice installable on a [`ConvLayer`].
///
/// This is the seam through which an algorithm pin (the `spg-core`
/// `AlgoChoice`) reaches the [`Engine`] without `spg-convnet` depending
/// on `spg-core`: [`Engine::algo_override`] accepts any
/// `LayerAlgo` and re-installs it after every planner pass so an explicit
/// choice survives tuning and epoch retunes.
pub trait LayerAlgo: Send + Sync {
    /// Stable machine-readable identifier for logs and telemetry
    /// (e.g. `"stencil-fp+sparse-bp/generic"`).
    fn id(&self) -> String;

    /// Installs the executors implementing this algorithm on `conv`,
    /// with `cores` workers available to parallel techniques.
    ///
    /// # Errors
    ///
    /// Implementation-defined; `spg-core`'s `AlgoChoice` rejects algorithms
    /// whose lowered plans fail verification for the layer's geometry.
    fn install(&self, conv: &mut ConvLayer, cores: usize) -> Result<(), Error>;
}

/// Builder for [`Engine`]; obtained from [`Engine::builder`].
pub struct EngineBuilder {
    network: Option<Network>,
    /// A serialized weight file in the [`crate::io`] format.
    weights: Option<Vec<u8>>,
    workers: usize,
    planner: Option<Arc<dyn NetworkPlanner>>,
    trainer: TrainerConfig,
}

impl EngineBuilder {
    fn new() -> Self {
        EngineBuilder {
            network: None,
            weights: None,
            workers: 1,
            planner: None,
            trainer: TrainerConfig::default(),
        }
    }

    /// The network to run.
    pub fn network(mut self, net: Network) -> Self {
        self.network = Some(net);
        self
    }

    /// Initializes parameters from serialized bytes in the
    /// [`crate::io`] weight-file format.
    pub fn weights_bytes(mut self, bytes: Vec<u8>) -> Self {
        self.weights = Some(bytes);
        self
    }

    /// The cores the engine may use: [`Engine::infer`]'s sample workers,
    /// the cores [`Engine::forward`] spends inside its one sample, and the
    /// trainer's `sample_threads` unless a trainer config set after this
    /// call overrides it. Outputs never depend on it.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "worker count must be positive");
        self.workers = workers;
        self.trainer.sample_threads = workers;
        self
    }

    /// Injects an executor-planning strategy (normally the `spg-core`
    /// autotuner `Framework`).
    pub fn planner(mut self, planner: Arc<dyn NetworkPlanner>) -> Self {
        self.planner = Some(planner);
        self
    }

    /// Overrides the training hyperparameters.
    pub fn trainer(mut self, config: TrainerConfig) -> Self {
        self.trainer = config;
        self
    }

    /// Builds the engine.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::InvalidNetwork`] when no network was supplied,
    /// and [`ErrorKind::Io`] when supplied weight bytes do not load into it.
    pub fn build(self) -> Result<Engine, Error> {
        let Some(mut net) = self.network else {
            return Err(Error::new(
                ErrorKind::InvalidNetwork,
                "Engine::builder() needs .network(..)",
            ));
        };
        if let Some(bytes) = self.weights {
            crate::io::load_weights(&mut net, bytes.as_slice())
                .map_err(|e| Error::with_source(ErrorKind::Io, e.to_string(), e))?;
        }
        Ok(Engine {
            net,
            workers: self.workers,
            planner: self.planner,
            trainer: self.trainer,
            overrides: Vec::new(),
            warm: Mutex::new(None),
        })
    }
}

/// Re-installs pinned per-layer algorithms after a planner pass. Install
/// errors are ignored: every override was validated eagerly when
/// [`Engine::algo_override`] accepted it, and installation against the
/// same immutable layer geometry is deterministic.
fn apply_overrides(net: &mut Network, overrides: &[(usize, Arc<dyn LayerAlgo>)], cores: usize) {
    for (layer, algo) in overrides {
        if let Some(conv) = net.layers_mut().get_mut(*layer).and_then(|l| l.as_conv_mut()) {
            let _ = algo.install(conv, cores);
        }
    }
}

/// The unified facade over training, inference, and tuning.
///
/// Construct with [`Engine::builder`]; the module-level docs at the top of
/// `engine.rs` include a runnable example.
pub struct Engine {
    net: Network,
    workers: usize,
    planner: Option<Arc<dyn NetworkPlanner>>,
    trainer: TrainerConfig,
    /// Explicit per-layer algorithm pins, re-applied after every planner
    /// pass so they win over autotune and epoch retunes.
    overrides: Vec<(usize, Arc<dyn LayerAlgo>)>,
    /// The buffers the last [`Engine::forward`] ran out of, parked for the
    /// next one. Taken for the length of a call and put back after it; the
    /// lock is held only for the take and the put.
    warm: Mutex<Option<(SampleTrace, ConvScratch)>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("net", &self.net)
            .field("workers", &self.workers)
            .field("has_planner", &self.planner.is_some())
            .field("overrides", &self.overrides.len())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Installs forward-and-backward executor plans for training at the
    /// given expected gradient sparsity through the injected
    /// [`NetworkPlanner`] and re-applies any
    /// [`algo_override`](Engine::algo_override) pins on top. Without a
    /// planner only the pins are applied.
    ///
    /// # Errors
    ///
    /// Propagates the planner's [`NetworkPlanner::try_plan`] error; on
    /// failure no executors have been replaced.
    pub fn try_tune(&mut self, sparsity: f64) -> Result<(), Error> {
        if let Some(planner) = &self.planner {
            planner.try_plan(&mut self.net, sparsity)?;
        }
        apply_overrides(&mut self.net, &self.overrides, self.workers);
        Ok(())
    }

    /// Installs forward-only executor plans (the serving path); see
    /// [`Engine::try_tune`].
    ///
    /// # Errors
    ///
    /// Propagates the planner's [`NetworkPlanner::try_plan_forward`]
    /// error; on failure no executors have been replaced.
    pub fn try_tune_forward(&mut self) -> Result<(), Error> {
        if let Some(planner) = &self.planner {
            planner.try_plan_forward(&mut self.net)?;
        }
        apply_overrides(&mut self.net, &self.overrides, self.workers);
        Ok(())
    }

    /// Pins an explicit per-layer algorithm (an `spg-core`
    /// [`AlgoChoice`](LayerAlgo)), installing its executors immediately
    /// and re-installing them after every subsequent planner pass — the
    /// escape hatch from autotuning.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::InvalidNetwork`] if `layer` is out of range or
    /// not a convolution layer, or the algorithm's own install error if
    /// its plan does not verify for the layer's geometry.
    pub fn algo_override(
        &mut self,
        layer: usize,
        algo: impl LayerAlgo + 'static,
    ) -> Result<(), Error> {
        let workers = self.workers;
        let Some(boxed) = self.net.layers_mut().get_mut(layer) else {
            return Err(Error::new(
                ErrorKind::InvalidNetwork,
                format!("algo_override: layer {layer} out of range"),
            ));
        };
        let Some(conv) = boxed.as_conv_mut() else {
            return Err(Error::new(
                ErrorKind::InvalidNetwork,
                format!("algo_override: layer {layer} is not a convolution"),
            ));
        };
        algo.install(conv, workers)?;
        self.overrides.retain(|(i, _)| *i != layer);
        self.overrides.push((layer, Arc::new(algo)));
        Ok(())
    }

    /// Trains on `data` with the configured trainer, planning executors
    /// first and retuning between epochs when a planner is present.
    ///
    /// # Panics
    ///
    /// Panics if a sample thread crashes and its restart budget is
    /// exhausted; use [`Engine::try_train`] to receive that fault as a
    /// typed error instead.
    pub fn train(&mut self, data: &mut Dataset) -> Vec<EpochStats> {
        match self.try_train(data) {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Engine::train`].
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Training`] when a sample panicked and its
    /// slot's restart budget was already spent, so the run could not
    /// complete. The trained epochs before the fault are discarded — the
    /// network weights reflect every batch applied before the failing one.
    pub fn try_train(&mut self, data: &mut Dataset) -> Result<Vec<EpochStats>, Error> {
        self.try_tune(0.0)?;
        let trainer = Trainer::new(self.trainer.clone());
        let planner = self.planner.clone();
        let overrides = self.overrides.clone();
        let workers = self.workers;
        trainer
            .try_train_with(&mut self.net, data, move |net, stats| {
                if let Some(planner) = &planner {
                    planner.retune(net, stats);
                }
                apply_overrides(net, &overrides, workers);
            })
            .map_err(Error::from)
    }

    /// Classifies a batch of samples across the configured worker count:
    /// whole samples per worker (inference under GEMM-in-Parallel), and
    /// when there are fewer samples than workers, the spare workers' cores
    /// inside the samples there are ([`Network::infer_batch`]). The
    /// classes are the same for every worker count.
    pub fn infer(&self, inputs: &[Tensor]) -> Vec<usize> {
        self.net.infer_batch(inputs, self.workers)
    }

    /// Runs one forward pass, returning the logits.
    ///
    /// One sample cannot occupy [`workers`](EngineBuilder::workers) cores by
    /// sample parallelism, so the call spends them inside the sample:
    /// every layer that can split runs on up to that many threads
    /// (the [core budget](ConvScratch::cores)), and the logits are
    /// bit-identical to [`Network::forward_sample`]'s at every worker count. The
    /// walk runs out of a trace and scratch the engine keeps warm, so after
    /// the first call it builds no buffers: what it still allocates is the
    /// returned logits, the blocked GEMM's transient pack panels and the
    /// scoped threads of its forks. Concurrent callers are fine: one of
    /// them gets the warm buffers and the others build their own.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::InvalidNetwork`] if `input` has the wrong
    /// length.
    pub fn forward(&self, input: &[f32]) -> Result<Tensor, Error> {
        if input.len() != self.net.input_len() {
            return Err(Error::new(
                ErrorKind::InvalidNetwork,
                format!(
                    "input has {} values, network expects {}",
                    input.len(),
                    self.net.input_len()
                ),
            ));
        }
        let (mut trace, mut scratch) = spg_sync::lock(&self.warm)
            .take()
            .unwrap_or_else(|| (SampleTrace::for_network(&self.net), ConvScratch::new()));
        scratch.cores = self.workers;
        self.net.forward_sample(input, &mut trace, &mut scratch);
        let logits = trace.logits().clone();
        *spg_sync::lock(&self.warm) = Some((trace, scratch));
        Ok(logits)
    }

    /// Consumes the engine, returning the network behind an [`Arc`] for
    /// sharing with a serving worker pool (weights become immutable).
    pub fn into_shared(self) -> Arc<Network> {
        Arc::new(self.net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::ConvSpec;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spg_tensor::Shape3;

    /// One 3x3 conv over a 6x6 image, weights drawn from `seed`.
    fn small_net(seed: u64) -> Network {
        let spec = ConvSpec::new(1, 6, 6, 3, 3, 3, 1, 1).unwrap();
        let conv = ConvLayer::new(spec, &mut SmallRng::seed_from_u64(seed));
        Network::new(vec![Box::new(conv)]).unwrap()
    }

    #[test]
    fn builder_requires_a_network() {
        let err = Engine::builder().build().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidNetwork);
    }

    #[test]
    fn engine_builds_and_forwards() {
        let engine = Engine::builder().network(small_net(3)).build().unwrap();
        let input = vec![1.0; engine.network().input_len()];
        let logits = engine.forward(&input).unwrap();
        assert_eq!(logits.len(), engine.network().output_len());
        assert!(engine.forward(&[1.0]).is_err());
    }

    #[test]
    fn weight_bytes_round_trip() {
        let engine = Engine::builder().network(small_net(9)).build().unwrap();
        let mut bytes = Vec::new();
        crate::io::save_weights(engine.network(), &mut bytes).unwrap();
        let reloaded =
            Engine::builder().network(small_net(1)).weights_bytes(bytes).build().unwrap();
        assert_eq!(
            reloaded.network().layers()[0].params().unwrap(),
            engine.network().layers()[0].params().unwrap()
        );
    }

    #[test]
    fn engine_trains_and_infers() {
        let shape = Shape3::new(1, 6, 6);
        let mut data = Dataset::synthetic(shape, 3, 12, 0.05, 11);
        let mut engine = Engine::builder()
            .network(small_net(0x5b9c))
            .trainer(TrainerConfig { epochs: 1, batch_size: 4, ..TrainerConfig::default() })
            .workers(2)
            .build()
            .unwrap();
        let stats = engine.train(&mut data);
        assert_eq!(stats.len(), 1);
        let inputs: Vec<Tensor> = (0..data.len()).map(|i| data.image(i).clone()).collect();
        let classes = engine.infer(&inputs);
        assert_eq!(classes.len(), data.len());
    }
}
