//! Mini-batch SGD: the workspace's one epoch × batch training loop, with
//! cross-sample parallelism and the instrumentation the paper's
//! experiments need.
//!
//! [`Trainer::run`] owns the loop — shuffle schedule, in-order batch
//! accumulation, epoch statistics, the update pass, resumable
//! [`Progress`] — and is parameterized by one seam, [`BatchFold`]: how a
//! batch's per-sample results reach the update in sample order.
//! Two folds exist: [`LocalFold`], this process's sample threads, and
//! `spg-cluster`'s ring fold — one path at every world size, a one-rank
//! run included — whose ranks call this loop rather than copy it, and run
//! their block of each batch on a [`LocalFold`] of their own.
//!
//! The trainer's `sample_threads` knob *is* the GEMM-in-Parallel schedule
//! at the training-loop level: each sample thread pushes whole samples
//! through the shared network with single-threaded kernels, instead of
//! every sample's GEMM being partitioned across all cores (Sec. 4.1).
//!
//! [`LocalFold`] is the one block runner. It owns one *slot* per sample
//! thread, each with a [`Workspace`] it reuses for the whole run. Per
//! batch, [`LocalFold::run`] cuts the block of batch positions it is
//! handed — the whole batch in the trainer, a rank's
//! [`spg_sync::partition`] of it in a ring — with that same partition,
//! and slot `w` runs part `w`, all slots at once on one
//! [`spg_sync::fork_join`]; no thread outlives the batch. How many samples
//! a slot walks at once is fixed by the constructor: the trainer's slots
//! walk one sample at a time, a rank's its whole part as one block. Each
//! sample leaves its records, its loss and verdict and its conv layers'
//! gradient sparsities in that batch position's slots, so the fold adds
//! the scalars onto the one [`BatchAcc`] and the update pass reads the
//! records in sample order: the f32 accumulation is bit-identical for
//! every thread count and walk.
//!
//! # Records, folded into the update
//!
//! A sample's backward pass leaves per-layer gradient *records*
//! ([`Layer`]), not necessarily dense gradients: a
//! fully-connected layer's weight gradient is the rank-1 product `δ ⊗ x`,
//! and writing it out per sample moves `out x in` floats to perform as
//! many multiplies — no arithmetic intensity at all. It stays `(δ, x)`
//! until the update pass, which turns the batch's records into new weights
//! without ever storing their sum: per layer it cuts the parameters into
//! contiguous ranges, one per core the fold hands it, and walks each range
//! in cache-sized tiles — zero the tile, add every sample into it in
//! sample order, apply the update rule from it — so the batch gradient
//! exists one tile at a time, in cache, and never in full. The local fold
//! hands the pass its records once the batch is complete, with one tile
//! per slot, so the pass runs on the cores the slots ran on and even a
//! one-thread run holds a batch of records. Every parameter's gradient
//! sums `0.0 + g_0 + g_1 + ...` in sample order, which is the
//! [`BatchFold`] contract.
//!
//! Each slot is *supervised*, at every thread count and in every ring
//! rank: it runs each walk inside [`std::panic::catch_unwind`], so a
//! panicking kernel is a fault instead of a torn batch, under its own
//! [`spg_sync::supervise`] call per batch. After a fault the slot
//! rebuilds its [`Workspace`] and resumes at the first sample of the
//! faulted walk: the record sets are the batch's, not the workspace's, so
//! nothing is lost and the fold stays one in-order pass (hence
//! bit-identical). Only once the slot has spent its
//! [`TrainerConfig::restart_budget`] for the run does a fault fail the
//! batch with a typed [`TrainError::WorkerFault`].

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use spg_sync::{FaultInjector, FaultPlan, Restarts};
use spg_tensor::Tensor;

use crate::data::Dataset;
use crate::error::TrainError;
use crate::layer::{Layer, RecordFormat};
use crate::net::{argmax, loss_into, Network};
use crate::split;
use crate::workspace::{record_buffers, Workspace};

/// Configuration for [`Trainer`].
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Learning rate.
    pub learning_rate: f32,
    /// Momentum coefficient in `[0, 1)`; `0.0` is plain SGD. The update
    /// is `v = momentum * v + grad / batch; params -= lr * v`, `grad` the
    /// batch's summed gradient.
    pub momentum: f32,
    /// Number of passes over the dataset.
    pub epochs: usize,
    /// Samples per parameter update.
    pub batch_size: usize,
    /// Worker threads processing samples concurrently (GEMM-in-Parallel);
    /// `1` processes samples sequentially. In a ring, per rank: the
    /// threads its block of each batch is cut across.
    pub sample_threads: usize,
    /// Seed for per-epoch dataset shuffling.
    pub shuffle_seed: u64,
    /// How many times a sample thread's slot is restarted after a
    /// panicking sample (with a fresh [`Workspace`]) before the run fails
    /// with [`TrainError::WorkerFault`]. Per slot over the whole run, not
    /// global; in a ring, per slot of each rank.
    pub restart_budget: usize,
    /// Base delay before a slot's restart; doubles per further restart of
    /// the same slot within one batch (capped at one second) and starts
    /// over at the next batch.
    pub restart_backoff: Duration,
    /// Deterministic fault to inject for supervision testing: slot `K`
    /// panics when it starts its `N`-th sample of the run, retries
    /// included. It fires whenever set, once per run; `None` costs one
    /// `Option` test per sample. In a ring it arms every rank's slots,
    /// `K` counting from 0 within each rank, and fires once per rank.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            learning_rate: 0.05,
            momentum: 0.0,
            epochs: 5,
            batch_size: 8,
            sample_threads: 1,
            shuffle_seed: 0x5b9c,
            restart_budget: 2,
            restart_backoff: Duration::from_millis(1),
            fault_plan: None,
        }
    }
}

/// Metrics recorded for one training epoch.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Epoch index, starting at 1 (matching the paper's Fig. 3b axis).
    pub epoch: usize,
    /// Mean cross-entropy loss over the epoch.
    pub mean_loss: f64,
    /// Training accuracy over the epoch.
    pub accuracy: f64,
    /// Mean sparsity of the error gradient entering each *conv* layer's
    /// backward pass, in network order — the Fig. 3b series.
    pub conv_grad_sparsity: Vec<f64>,
    /// Training throughput in images per second.
    pub images_per_sec: f64,
}

/// Mini-batch SGD driver.
///
/// # Example
///
/// ```
/// use rand::{SeedableRng, rngs::SmallRng};
/// use spg_convnet::data::Dataset;
/// use spg_convnet::layer::{FcLayer, ReluLayer};
/// use spg_convnet::{Network, Trainer, TrainerConfig};
/// use spg_tensor::Shape3;
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let mut net = Network::new(vec![
///     Box::new(FcLayer::new(16, 8, &mut rng)),
///     Box::new(ReluLayer::new(8)),
///     Box::new(FcLayer::new(8, 2, &mut rng)),
/// ])?;
/// let mut data = Dataset::synthetic(Shape3::new(1, 4, 4), 2, 12, 0.1, 1);
/// let stats = Trainer::new(TrainerConfig { epochs: 2, ..Default::default() })
///     .train(&mut net, &mut data);
/// assert_eq!(stats.len(), 2);
/// # Ok::<(), spg_convnet::ConvError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainerConfig,
}

impl Trainer {
    /// Creates a trainer from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size`, `epochs`, or `sample_threads` is zero.
    pub fn new(config: TrainerConfig) -> Self {
        assert!(config.batch_size > 0, "batch size must be positive");
        assert!(config.epochs > 0, "epoch count must be positive");
        assert!(config.sample_threads > 0, "sample thread count must be positive");
        assert!((0.0..1.0).contains(&config.momentum), "momentum must be in [0, 1)");
        Trainer { config }
    }

    /// Trains the network, returning one [`EpochStats`] per epoch.
    ///
    /// # Panics
    ///
    /// Panics if a sample thread crashes past its restart budget; use
    /// [`try_train`](Self::try_train) for a typed error instead.
    pub fn train(&self, net: &mut Network, data: &mut Dataset) -> Vec<EpochStats> {
        self.train_with(net, data, |_, _| {})
    }

    /// Fallible [`train`](Self::train): a sample thread crashing past the
    /// restart budget surfaces as [`TrainError::WorkerFault`] instead of
    /// a panic.
    ///
    /// # Errors
    ///
    /// [`TrainError::WorkerFault`] when a sample panicked and its slot's
    /// restart budget was already spent.
    pub fn try_train(
        &self,
        net: &mut Network,
        data: &mut Dataset,
    ) -> Result<Vec<EpochStats>, TrainError> {
        self.try_train_with(net, data, |_, _| {})
    }

    /// Trains with a per-epoch callback (used by the autotuner to re-plan
    /// backward executors as gradient sparsity drifts, Sec. 4.4).
    ///
    /// # Panics
    ///
    /// Panics if a sample thread crashes past its restart budget; use
    /// [`try_train_with`](Self::try_train_with) for a typed error.
    pub fn train_with<F>(
        &self,
        net: &mut Network,
        data: &mut Dataset,
        after_epoch: F,
    ) -> Vec<EpochStats>
    where
        F: FnMut(&mut Network, &EpochStats),
    {
        match self.try_train_with(net, data, after_epoch) {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`train_with`](Self::train_with).
    ///
    /// # Errors
    ///
    /// [`TrainError::WorkerFault`] when a sample panicked and its slot's
    /// restart budget was already spent.
    pub fn try_train_with<F>(
        &self,
        net: &mut Network,
        data: &mut Dataset,
        after_epoch: F,
    ) -> Result<Vec<EpochStats>, TrainError>
    where
        F: FnMut(&mut Network, &EpochStats),
    {
        let mut progress = Progress::fresh(net);
        // The trainer's slots walk one sample at a time.
        let mut fold = LocalFold::for_config(net, &self.config, 1);
        self.run(net, data, &mut fold, &mut progress, after_epoch)?;
        Ok(progress.stats)
    }

    /// The epoch × batch SGD loop — the only one in the workspace — from
    /// `progress` to the end of training, folding each batch through
    /// `fold` (see [`BatchFold`]).
    ///
    /// `progress` changes only after a batch's fold succeeded, in one
    /// infallible sequence, so on `Err` it (and the network) hold exactly
    /// the last committed batch and a later call resumes from there. That
    /// call must be handed the dataset in its original order: epoch
    /// shuffles permute it in place, composing across epochs, so the loop
    /// replays the completed epochs' permutations on its way to the
    /// resume point.
    ///
    /// # Errors
    ///
    /// Whatever `fold` reports for the batch it could not fold.
    pub fn run<F: BatchFold>(
        &self,
        net: &mut Network,
        data: &mut Dataset,
        fold: &mut F,
        progress: &mut Progress,
        mut after_epoch: impl FnMut(&mut Network, &EpochStats),
    ) -> Result<(), F::Error> {
        let batch_size = self.config.batch_size;
        let mut acc = BatchAcc::new(net.conv_count());
        for epoch in 1..=self.config.epochs {
            data.shuffle(self.config.shuffle_seed.wrapping_add(epoch as u64));
            let data_len = data.len();
            if epoch < progress.next_epoch {
                continue;
            }
            // One scope entry per epoch: `trainer` wall time / call count
            // gives total optimizer-loop time in the metrics snapshot.
            let _telemetry = spg_telemetry::scope("trainer", spg_telemetry::Phase::Other);
            let start = Instant::now();
            while progress.next_batch * batch_size < data_len {
                let batch = progress.next_batch;
                let samples = batch * batch_size..((batch + 1) * batch_size).min(data_len);
                acc.clear();
                let folded = fold.fold(net, data, epoch, batch, samples.clone(), &mut acc)?;
                progress.epoch_acc.absorb(&acc, samples.len());
                let rule = Rule {
                    learning_rate: self.config.learning_rate,
                    momentum: self.config.momentum,
                    scale: samples.len() as f32,
                };
                update(net, rule, folded, &mut progress.velocity, FORK_FLOOR);
                progress.next_batch = batch + 1;
            }
            let stats = progress.epoch_acc.finish(epoch, start.elapsed().as_secs_f64());
            after_epoch(net, &stats);
            progress.stats.push(stats);
            progress.next_epoch = epoch + 1;
            progress.next_batch = 0;
        }
        Ok(())
    }
}

/// The one seam of the SGD loop: how a batch's per-sample results reach
/// the update pass.
///
/// # The sample-order contract
///
/// [`fold`](Self::fold) hands the update the batch's gradient as records
/// in sample order, plus any pre-summed spans: for every layer with
/// parameters, either each sample's record of that layer, at its batch
/// position in [`Folded::records`], or the layer's gradient already summed
/// in [`Folded::sums`]. A pre-summed span must hold what the pass would
/// have made of the records: for every element the additions start from
/// `0.0` and happen in sample order. `acc` must hold what
/// [`BatchAcc::add_scalars`] makes of the samples in sample order. f32
/// addition is not associative, so this order is the whole determinism
/// guarantee — every implementation that keeps it trains to the same
/// bits, wherever the samples ran (this process's sample threads, other
/// ranks of a ring) — and a reducer that re-associates the sum (a tree, a reduce-scatter)
/// cannot implement this trait. Starting from `0.0` is part of the
/// contract, not a convenience: `0.0 + g` is not a copy of `g`
/// (`0.0 + -0.0` is `+0.0`).
///
/// # Who zeroes
///
/// The loop zeroes `acc` before each call; the fold adds the batch onto it.
pub trait BatchFold {
    /// What a batch that could not be folded reports.
    type Error;

    /// Folds batch `batch` of (1-based) `epoch` — positions `samples` of
    /// `data` in its current shuffle, run through `net` — into `acc` and
    /// the returned [`Folded`].
    ///
    /// # Errors
    ///
    /// Implementation-defined; the loop then commits nothing for this
    /// batch and returns the error.
    fn fold(
        &mut self,
        net: &Network,
        data: &Dataset,
        epoch: usize,
        batch: usize,
        samples: Range<usize>,
        acc: &mut BatchAcc,
    ) -> Result<Folded<'_>, Self::Error>;
}

/// What a [`BatchFold`] hands the update pass: the batch's gradient, as
/// records and pre-summed spans, and the buffers the pass sums records in.
#[derive(Debug)]
pub struct Folded<'a> {
    /// The batch's gradient records by batch position, as
    /// [`process_block`] left them. A layer `sums` holds is not read here.
    pub records: &'a [Vec<Tensor>],
    /// Per layer, the batch's gradient as the fold pre-summed it, or an
    /// empty tensor (or no entry at all) where the pass sums the records.
    pub sums: &'a [Tensor],
    /// One non-empty tile buffer per core the pass may run on: a
    /// [`LocalFold`]'s, one per slot.
    pub tiles: &'a mut [Vec<f32>],
}

/// Everything the loop has committed besides the weights (which live in
/// the network): optimizer state, partial epoch statistics, resume
/// position. Hand it back to [`Trainer::run`] to resume after an error.
#[derive(Debug, Clone)]
pub struct Progress {
    /// Epoch (1-based) to resume at.
    pub next_epoch: usize,
    /// Batch index within `next_epoch` to resume at.
    pub next_batch: usize,
    /// Momentum velocity, one tensor per layer.
    pub velocity: Vec<Tensor>,
    /// Stats of every completed epoch.
    pub stats: Vec<EpochStats>,
    /// Statistics of `next_epoch`'s batches `0..next_batch`.
    epoch_acc: EpochAcc,
}

impl Progress {
    /// The start of training for `net`.
    pub fn fresh(net: &Network) -> Self {
        Progress {
            next_epoch: 1,
            next_batch: 0,
            velocity: zero_param_grads(net),
            stats: Vec::new(),
            epoch_acc: EpochAcc { acc: BatchAcc::new(net.conv_count()), samples: 0 },
        }
    }
}

/// One zeroed parameter-gradient-shaped tensor per layer (empty for
/// parameter-free layers).
pub(crate) fn zero_param_grads(net: &Network) -> Vec<Tensor> {
    net.layers().iter().map(|l| Tensor::zeros(l.param_count())).collect()
}

/// Runs dataset positions `samples` forward and backward as one block, in
/// `ws`: layer by layer, each layer over the whole block before the next
/// (see [`Network`]'s walk). Sample `j` of the block leaves its gradient
/// records in `records[j]` (one buffer per layer, as
/// [`record_buffers`] shapes them), its loss and whether its
/// prediction was correct in `scalars[j]`, and the gradient sparsity
/// entering each of its conv layers, in network order, at
/// `sparsity[j * convs..(j + 1) * convs]`. Every sample gets the bits a
/// block of one gives it.
///
/// # Panics
///
/// Panics if `records` or `scalars` does not hold one entry per sample,
/// `sparsity` one per sample and conv layer, or `ws` or a record set is
/// not shaped for `net`.
pub fn process_block(
    net: &Network,
    data: &Dataset,
    samples: Range<usize>,
    ws: &mut Workspace,
    records: &mut [Vec<Tensor>],
    scalars: &mut [(f32, bool)],
    sparsity: &mut [f64],
) {
    let k = samples.len();
    assert_eq!((records.len(), scalars.len()), (k, k), "one record set and one result per sample");
    ws.shape_block(net, k);
    let inputs = ws.trace.activations[0].as_mut_slice();
    for (input, i) in inputs.chunks_exact_mut(net.input_len()).zip(samples.clone()) {
        input.copy_from_slice(data.image(i).as_slice());
    }
    net.forward_walk(&mut ws.trace, &mut ws.scratch);
    // The loss gradients go where the backward walk starts from.
    let classes = net.output_len();
    let logits = ws.trace.logits().as_slice().chunks_exact(classes);
    let grads = ws.grad_a.as_mut_slice().chunks_exact_mut(classes);
    for (((scalar, i), logits), grad) in scalars.iter_mut().zip(samples).zip(logits).zip(grads) {
        let label = data.label(i);
        let loss = loss_into(logits, label, grad);
        *scalar = (loss, argmax(logits) == label);
    }
    net.backward_walk(ws, records, sparsity);
}

/// The in-process fold and the workspace's one block runner:
/// `min(sample_threads, batch_size)` slots, each owning one [`Workspace`]
/// and its supervision state for the whole run. [`run`](Self::run) cuts a
/// block of batch positions across the slots by [`spg_sync::partition`],
/// all slots on one [`spg_sync::fork_join`], each writing its positions'
/// record sets. As the trainer's [`BatchFold`] it runs the whole batch;
/// then the update pass sums the records by parameter range on as many
/// cores as there are slots, in the slots' tiles.
#[derive(Debug)]
pub struct LocalFold {
    slots: Vec<Slot>,
    /// Samples a slot walks at once: one in the trainer's fold, its whole
    /// part (`usize::MAX`) in a ring rank's.
    walk: usize,
    /// Gradient records by batch position; grows to the largest batch.
    records: Vec<Vec<Tensor>>,
    /// Loss and verdict by batch position.
    scalars: Vec<(f32, bool)>,
    /// Conv-layer gradient sparsities by batch position, one per conv
    /// layer each.
    sparsity: Vec<f64>,
    /// The update pass's tiles, one per slot.
    tiles: Vec<Vec<f32>>,
    injector: FaultInjector,
}

/// One sample thread's state, kept across batches.
#[derive(Debug)]
struct Slot {
    ws: Workspace,
    /// The restarts this slot may still spend in the run, and their
    /// backoff.
    restarts: Restarts,
    /// Samples this slot has started, retries included: the work units a
    /// [`FaultPlan`] counts.
    started: u64,
}

/// One slot's part of a block: its samples' positions in the dataset,
/// and the batch's per-sample outputs for exactly those samples.
struct Block<'a> {
    samples: Range<usize>,
    records: &'a mut [Vec<Tensor>],
    scalars: &'a mut [(f32, bool)],
    sparsity: &'a mut [f64],
}

impl LocalFold {
    /// The fold a ring rank runs its block of each batch on: `config`'s
    /// slots, restart policy and fault plan, each slot walking its whole
    /// part of the block as one block (see [`Network`]'s walk).
    pub fn for_rank(net: &Network, config: &TrainerConfig) -> Self {
        Self::for_config(net, config, usize::MAX)
    }

    /// The fold `config` asks for, its slots walking `walk` samples at a
    /// time. A slot that could never receive a sample — more sample
    /// threads than the batch has samples — is not made, and is counted as
    /// starved instead.
    fn for_config(net: &Network, config: &TrainerConfig, walk: usize) -> Self {
        let workers = config.sample_threads.min(config.batch_size).max(1);
        let starved = config.sample_threads.saturating_sub(workers);
        if starved > 0 {
            spg_telemetry::record_counter("train.starved_workers", starved as u64);
        }
        let restarts = Restarts { budget: config.restart_budget, backoff: config.restart_backoff };
        let slot = || Slot { ws: Workspace::for_network(net), restarts, started: 0 };
        LocalFold {
            slots: (0..workers).map(|_| slot()).collect(),
            walk,
            records: Vec::new(),
            scalars: Vec::new(),
            sparsity: Vec::new(),
            tiles: fold_tiles(net, workers),
            injector: FaultInjector::new(config.fault_plan),
        }
    }

    /// Runs batch positions `block` of the batch `samples` (positions of
    /// `data` in its current shuffle) of (1-based) `epoch`'s batch
    /// `batch`: slot `w` runs part `w` of `block` cut by
    /// [`spg_sync::partition`], each sample into its batch position's
    /// record set, scalars and sparsities.
    ///
    /// # Errors
    ///
    /// [`TrainError::WorkerFault`] when a sample panicked and its slot's
    /// restart budget was already spent.
    ///
    /// # Panics
    ///
    /// Panics if `block` does not lie within `0..samples.len()`.
    pub fn run(
        &mut self,
        net: &Network,
        data: &Dataset,
        epoch: usize,
        batch: usize,
        samples: Range<usize>,
        block: Range<usize>,
    ) -> Result<BlockOutputs<'_>, TrainError> {
        let (len, convs, workers) = (samples.len(), net.conv_count(), self.slots.len());
        if self.records.len() < len {
            self.records.resize_with(len, || record_buffers(net));
            self.scalars.resize(len, (0.0, false));
            self.sparsity.resize(len * convs, 0.0);
        }
        let sparsities = block.start * convs..block.end * convs;
        // Cut the block's outputs into the slots' parts, in slot order.
        let mut records = &mut self.records[..len][block.clone()];
        let mut scalars = &mut self.scalars[block.clone()];
        let mut sparsity = &mut self.sparsity[sparsities.clone()];
        let mut parts = Vec::with_capacity(workers);
        for w in 0..workers {
            let part = spg_sync::partition(block.len(), workers, w);
            let (k, first) = (part.len(), samples.start + block.start + part.start);
            let (r, s, g);
            (r, records) = std::mem::take(&mut records).split_at_mut(k);
            (s, scalars) = std::mem::take(&mut scalars).split_at_mut(k);
            (g, sparsity) = std::mem::take(&mut sparsity).split_at_mut(k * convs);
            parts.push(Block { samples: first..first + k, records: r, scalars: s, sparsity: g });
        }
        let (walk, injector) = (self.walk, &self.injector);
        // A slot whose part is empty (a block shorter than the slots) is
        // not forked.
        let tasks = self.slots.iter_mut().zip(parts).enumerate().take(block.len());
        let outcomes = spg_sync::fork_join(
            tasks.map(|(w, (slot, part))| move || slot.run(net, data, w, part, walk, injector)),
        );
        for (worker, outcome) in outcomes.into_iter().enumerate() {
            outcome.map_err(|message| TrainError::WorkerFault { worker, epoch, batch, message })?;
        }
        Ok(BlockOutputs {
            records: &mut self.records[..len],
            scalars: &self.scalars[block],
            sparsity: &self.sparsity[sparsities],
            tiles: &mut self.tiles,
        })
    }
}

/// What [`LocalFold::run`] leaves its caller: the batch's record sets by
/// batch position — the block's as the run wrote them, the others as the
/// caller left them — the block's losses, verdicts and conv-layer
/// sparsities, and the update pass's tiles, one per slot.
#[derive(Debug)]
pub struct BlockOutputs<'a> {
    /// Gradient records of every batch position.
    pub records: &'a mut [Vec<Tensor>],
    /// Loss and verdict of each sample of the block, in order.
    pub scalars: &'a [(f32, bool)],
    /// Conv-layer gradient sparsities of each sample of the block, one per
    /// conv layer each.
    pub sparsity: &'a [f64],
    /// The update pass's tiles, one per slot.
    pub tiles: &'a mut [Vec<f32>],
}

impl Slot {
    /// Runs `block` as slot `w`, `walk` samples at a time, under this
    /// slot's supervision: every sample of a walk counts as started, and
    /// a panicking walk rebuilds the workspace and the next incarnation
    /// resumes at that walk's first sample. The one-shot injector cannot
    /// re-trip on the retry; a real deterministic panic re-fires and burns
    /// the slot's budget down to the reported panic message.
    fn run(
        &mut self,
        net: &Network,
        data: &Dataset,
        w: usize,
        block: Block<'_>,
        walk: usize,
        injector: &FaultInjector,
    ) -> Result<(), String> {
        let Slot { ws, restarts, started } = self;
        let Block { samples, records, scalars, sparsity } = block;
        let (len, convs) = (samples.len(), sparsity.len() / samples.len().max(1));
        let mut next = 0;
        spg_sync::supervise(
            *restarts,
            || {
                while next < len {
                    let part = next..next + walk.min(len - next);
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        for _ in part.clone() {
                            *started += 1;
                            injector.check(w, *started);
                        }
                        let (records, scalars) =
                            (&mut records[part.clone()], &mut scalars[part.clone()]);
                        let sparsity = &mut sparsity[part.start * convs..part.end * convs];
                        let block = samples.start + part.start..samples.start + part.end;
                        process_block(net, data, block, ws, records, scalars, sparsity);
                    }));
                    if let Err(payload) = outcome {
                        spg_telemetry::record_counter("train.faulted_samples", 1);
                        // A panic may have left the workspace mid-update.
                        *ws = Workspace::for_network(net);
                        return Err(spg_sync::panic_message(payload.as_ref()));
                    }
                    next = part.end;
                }
                Ok(())
            },
            |_, _| {
                restarts.budget -= 1;
                spg_telemetry::record_counter("train.worker_restarts", 1);
            },
        )
    }
}

impl BatchFold for LocalFold {
    type Error = TrainError;

    fn fold(
        &mut self,
        net: &Network,
        data: &Dataset,
        epoch: usize,
        batch: usize,
        samples: Range<usize>,
        acc: &mut BatchAcc,
    ) -> Result<Folded<'_>, TrainError> {
        let len = samples.len();
        let BlockOutputs { records, scalars, sparsity, tiles } =
            self.run(net, data, epoch, batch, samples, 0..len)?;
        acc.add_scalars(scalars, sparsity);
        // Every slot is done: their cores are the update pass's.
        Ok(Folded { records, sums: &[], tiles })
    }
}

/// Floats per fold tile: 256 KB, so a tile and the record spans added into
/// it sit in a per-core L2 of 1 MB or more. Measured on the 20.7 M
/// parameter ImageNet-1K classifier at batch 4: tiles of 16 K, 64 K and
/// 256 K floats fold within 5 % of each other (17.3 ms on one core), 1 M
/// floats and the untiled range are 1.25-1.5x slower.
const FOLD_TILE: usize = 64 * 1024;

/// Element-adds (parameters x samples; a pre-summed span counts one per
/// parameter) a range must cover before it gets a thread of its own.
/// Measured here: one core folds 4.5-5 G element-adds/s, so 2 M is 0.4 ms
/// of work — a forked range carries at least ten times the fork cost
/// `spg_sync`'s `fork_join` module quotes (six times the first measurement
/// it was set against).
pub(crate) const FORK_FLOOR: usize = 2 * 1024 * 1024;

/// Record slices handed to [`RecordFormat::add_grads`] per call, held on
/// the stack so that summing allocates nothing. A larger batch is added a
/// group at a time; each element still takes its samples in order.
const RECORD_GROUP: usize = 32;

/// Tile buffers for an update pass on `cores` cores: one per core, each
/// `FOLD_TILE` (64 Ki) floats, or as many as `net`'s largest layer has
/// parameters if that is fewer. The local fold makes them once and hands
/// them to every batch's pass in its [`Folded`].
pub(crate) fn fold_tiles(net: &Network, cores: usize) -> Vec<Vec<f32>> {
    let largest = net.layers().iter().map(|l| l.param_count()).max().unwrap_or(0);
    (0..cores).map(|_| vec![0.0; FOLD_TILE.min(largest)]).collect()
}

/// The update rule, per parameter, from the batch's summed gradient `g`:
/// `v = momentum·v + g/scale; w -= learning_rate·v`, or
/// `w -= (learning_rate/scale)·g` without momentum.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rule {
    pub(crate) learning_rate: f32,
    pub(crate) momentum: f32,
    /// What the summed gradient is divided by: the batch's sample count.
    pub(crate) scale: f32,
}

impl Rule {
    /// Updates `params` (and, with momentum, their `velocity`) from
    /// `grads`, element by element.
    fn apply(self, params: &mut [f32], velocity: &mut [f32], grads: &[f32]) {
        assert_eq!(grads.len(), params.len(), "one gradient per parameter");
        if self.momentum > 0.0 {
            assert_eq!(velocity.len(), params.len(), "one velocity per parameter");
            for ((w, v), g) in params.iter_mut().zip(velocity).zip(grads) {
                *v = self.momentum * *v + g / self.scale;
                *w -= self.learning_rate * *v;
            }
        } else {
            let step = self.learning_rate / self.scale;
            for (w, g) in params.iter_mut().zip(grads) {
                *w -= step * g;
            }
        }
    }
}

/// One layer's batch gradient as the update pass reads it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Grads<'a> {
    /// Every sample's record set in sample order; the pass sums record
    /// `layer` of each, tile by tile.
    Records { records: &'a [Vec<Tensor>], layer: usize },
    /// The gradient, summed already.
    Summed(&'a [f32]),
}

/// The update pass: every layer with parameters updated by `rule` from its
/// batch gradient — `folded.sums[l]` where that is non-empty, the summed
/// records otherwise — and its velocity.
fn update(
    net: &mut Network,
    rule: Rule,
    folded: Folded<'_>,
    velocity: &mut [Tensor],
    floor: usize,
) {
    let Folded { records, sums, tiles } = folded;
    for (l, (layer, velocity)) in net.layers_mut().iter_mut().zip(velocity).enumerate() {
        let grads = match sums.get(l) {
            Some(sum) if !sum.is_empty() => Grads::Summed(sum.as_slice()),
            _ => Grads::Records { records, layer: l },
        };
        update_layer(&mut **layer, rule, grads, velocity.as_mut_slice(), tiles, floor);
    }
}

/// One layer's update: its parameters cut into up to `tiles.len()`
/// contiguous ranges — fewer when a range would not cover `floor`
/// element-adds — a thread and a tile each, every range walked
/// [`FOLD_TILE`] at a time; then the layer's
/// [`finish_update`](Layer::finish_update), once. Per element the update
/// reads the sum of its records in sample order whatever the split, so
/// the bits do not depend on it. `velocity` is empty without momentum.
pub(crate) fn update_layer(
    layer: &mut dyn Layer,
    rule: Rule,
    grads: Grads<'_>,
    velocity: &mut [f32],
    tiles: &mut [Vec<f32>],
    floor: usize,
) {
    let format = layer.record_format();
    let Some(params) = layer.params_mut() else { return };
    let samples = match grads {
        Grads::Records { records, .. } => records.len(),
        Grads::Summed(_) => 1,
    };
    let (work, cores) = (params.len() * samples, tiles.len());
    let range = Part { params, velocity, tiles };
    split::for_each_part(range, 1, work, cores, floor, |start, part| {
        part.update(rule, grads, format, start);
    });
    layer.finish_update();
}

/// A contiguous range of one layer's update: its parameters, their
/// velocity (empty without momentum), and the tiles of this range and the
/// ranges after it. The range sums in the first tile.
#[derive(Default)]
struct Part<'a> {
    params: &'a mut [f32],
    velocity: &'a mut [f32],
    tiles: &'a mut [Vec<f32>],
}

impl split::Cut for Part<'_> {
    fn len(&self) -> usize {
        self.params.len()
    }

    fn cut_front(self, len: usize) -> (Self, Self) {
        let (params, rest) = self.params.split_at_mut(len);
        let (velocity, rest_velocity) = self.velocity.split_at_mut(len.min(self.velocity.len()));
        let (tiles, rest_tiles) = self.tiles.split_at_mut(1);
        let part = Part { params, velocity, tiles };
        (part, Part { params: rest, velocity: rest_velocity, tiles: rest_tiles })
    }
}

impl Part<'_> {
    /// Updates this range, whose first parameter is the layer's `start`-th.
    fn update(self, rule: Rule, grads: Grads<'_>, format: RecordFormat, start: usize) {
        let Part { params, velocity, tiles } = self;
        let (records, layer) = match grads {
            Grads::Summed(sum) => {
                return rule.apply(params, velocity, &sum[start..start + params.len()]);
            }
            Grads::Records { records, layer } => (records, layer),
        };
        let tile = tiles[0].as_mut_slice();
        let step = tile.len();
        for (t, params) in params.chunks_mut(step).enumerate() {
            let (at, tile) = (t * step, &mut tile[..params.len()]);
            tile.fill(0.0);
            add_tile(format, records, layer, start + at, tile);
            let velocity = velocity.get_mut(at..at + params.len()).unwrap_or_default();
            rule.apply(params, velocity, tile);
        }
    }
}

/// Adds record `layer` of every sample in `records`, in sample order, onto
/// `tile`, which holds parameters `at..at + tile.len()`.
fn add_tile(
    format: RecordFormat,
    records: &[Vec<Tensor>],
    layer: usize,
    at: usize,
    tile: &mut [f32],
) {
    let mut group: [&[f32]; RECORD_GROUP] = [&[]; RECORD_GROUP];
    for samples in records.chunks(RECORD_GROUP) {
        for (slot, record) in group.iter_mut().zip(samples) {
            *slot = record[layer].as_slice();
        }
        format.add_grads(&group[..samples.len()], at, tile);
    }
}

/// Adds layer `layer`'s record of every sample in `records` (as
/// [`process_block`] left them), in sample order, onto `sum`, that layer's
/// whole gradient — `FOLD_TILE` floats at a time, with the update pass's
/// own per-tile add: what a ring rank folds onto a summed span, and onto
/// zeros the gradient a check compares.
///
/// # Panics
///
/// Panics if `sum` or a sample's records are not shaped for the layer.
pub fn add_records(net: &Network, layer: usize, records: &[Vec<Tensor>], sum: &mut [f32]) {
    let format = net.layers()[layer].record_format();
    assert_eq!(sum.len(), net.layers()[layer].param_count(), "one sum per parameter");
    for (t, tile) in sum.chunks_mut(FOLD_TILE).enumerate() {
        add_tile(format, records, layer, t * FOLD_TILE, tile);
    }
}

/// A batch's statistics — or, in [`Progress`], an epoch's so far: summed
/// losses, the correct count and the summed conv-layer gradient
/// sparsities. The trainer's loop, both folds, the ring's chain and the
/// epoch statistics all add onto this one type.
#[derive(Debug, Clone)]
pub struct BatchAcc {
    /// Summed losses.
    pub loss_sum: f64,
    /// Correct-prediction count.
    pub correct: usize,
    /// Summed backward gradient sparsity per conv layer.
    pub sparsity_sums: Vec<f64>,
}

impl BatchAcc {
    /// A zeroed accumulator for a network of `convs` conv layers.
    pub fn new(convs: usize) -> Self {
        BatchAcc { loss_sum: 0.0, correct: 0, sparsity_sums: vec![0.0; convs] }
    }

    fn clear(&mut self) {
        self.loss_sum = 0.0;
        self.correct = 0;
        self.sparsity_sums.fill(0.0);
    }

    /// Adds samples' scalars, in order: sample `j`'s loss and whether it
    /// was classified correctly, `scalars[j]`, and its conv-layer gradient
    /// sparsities, `sparsity[j * convs..(j + 1) * convs]`.
    ///
    /// # Panics
    ///
    /// Panics if `sparsity` does not hold one value per sample and conv
    /// layer.
    pub fn add_scalars(&mut self, scalars: &[(f32, bool)], sparsity: &[f64]) {
        let convs = self.sparsity_sums.len();
        assert_eq!(sparsity.len(), scalars.len() * convs, "one sparsity per sample and conv");
        for (j, &(loss, correct)) in scalars.iter().enumerate() {
            self.loss_sum += f64::from(loss);
            self.correct += usize::from(correct);
            for (sum, s) in self.sparsity_sums.iter_mut().zip(&sparsity[j * convs..]) {
                *sum += s;
            }
        }
    }
}

/// The epoch so far: its batches' sums and how many samples they hold.
#[derive(Debug, Clone)]
struct EpochAcc {
    acc: BatchAcc,
    samples: usize,
}

impl EpochAcc {
    fn absorb(&mut self, batch: &BatchAcc, batch_len: usize) {
        self.acc.loss_sum += batch.loss_sum;
        self.acc.correct += batch.correct;
        for (sum, s) in self.acc.sparsity_sums.iter_mut().zip(&batch.sparsity_sums) {
            *sum += s;
        }
        self.samples += batch_len;
    }

    /// Closes the epoch: its stats, leaving the accumulator zeroed for the
    /// next one.
    fn finish(&mut self, epoch: usize, elapsed: f64) -> EpochStats {
        let (acc, samples) = (&self.acc, self.samples as f64);
        let stats = EpochStats {
            epoch,
            mean_loss: acc.loss_sum / samples,
            accuracy: acc.correct as f64 / samples,
            conv_grad_sparsity: acc.sparsity_sums.iter().map(|s| s / samples.max(1.0)).collect(),
            images_per_sec: samples / elapsed.max(1e-9),
        };
        self.acc.clear();
        self.samples = 0;
        stats
    }
}

/// An epoch's statistics as bits, every epoch in turn: its mean loss, its
/// accuracy, then each conv layer's gradient sparsity — what two runs must
/// agree on to have trained alike.
pub fn stats_bits(stats: &[EpochStats]) -> Vec<u64> {
    stats
        .iter()
        .flat_map(|s| [&s.mean_loss, &s.accuracy].into_iter().chain(&s.conv_grad_sparsity))
        .map(|x| x.to_bits())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ConvLayer, FcLayer, MaxPoolLayer, ReluLayer};
    use crate::ConvSpec;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spg_tensor::Shape3;

    fn make_net(seed: u64) -> Network {
        let mut rng = SmallRng::seed_from_u64(seed);
        let spec = ConvSpec::new(1, 8, 8, 4, 3, 3, 1, 1).unwrap();
        let out = spec.output_shape();
        Network::new(vec![
            Box::new(ConvLayer::new(spec, &mut rng)),
            Box::new(ReluLayer::new(out.len())),
            Box::new(MaxPoolLayer::new(Shape3::new(out.c, out.h, out.w), 2).unwrap()),
            Box::new(FcLayer::new(4 * 3 * 3, 3, &mut rng)),
        ])
        .unwrap()
    }

    fn make_data() -> Dataset {
        Dataset::synthetic(Shape3::new(1, 8, 8), 3, 24, 0.15, 77)
    }

    /// A zero-weight FC head ties every logit, so the first class is the
    /// prediction: label 0 is correct in the trainer's accuracy and in
    /// `infer_batch` alike.
    #[test]
    fn tied_logits_predict_the_first_class_everywhere() {
        let mut head = FcLayer::new(4, 3, &mut SmallRng::seed_from_u64(1));
        head.set_params(&vec![0.0; head.param_count()]);
        let mut net = Network::new(vec![Box::new(head)]).unwrap();
        let image = Tensor::filled(4, 0.5);
        assert_eq!(net.infer_batch(std::slice::from_ref(&image), 1), [0]);
        let config = TrainerConfig { epochs: 1, batch_size: 1, ..Default::default() };
        let stats = Trainer::new(config).train(&mut net, &mut Dataset::of_one(image, 0));
        assert_eq!(stats[0].accuracy, 1.0);
    }

    #[test]
    fn training_reduces_loss_and_learns() {
        let mut net = make_net(10);
        let mut data = make_data();
        let cfg = TrainerConfig { epochs: 8, learning_rate: 0.1, ..Default::default() };
        let stats = Trainer::new(cfg).train(&mut net, &mut data);
        assert!(stats.last().unwrap().mean_loss < stats.first().unwrap().mean_loss);
        assert!(
            stats.last().unwrap().accuracy > 0.6,
            "accuracy {}",
            stats.last().unwrap().accuracy
        );
    }

    #[test]
    fn parallel_samples_match_sequential() {
        let mut data1 = make_data();
        let mut data2 = make_data();
        let mut net1 = make_net(11);
        let mut net2 = make_net(11);
        let base = TrainerConfig { epochs: 3, ..Default::default() };
        let s1 = Trainer::new(TrainerConfig { sample_threads: 1, ..base.clone() })
            .train(&mut net1, &mut data1);
        let s2 =
            Trainer::new(TrainerConfig { sample_threads: 4, ..base }).train(&mut net2, &mut data2);
        let (l1, l2) = (s1.last().unwrap().mean_loss, s2.last().unwrap().mean_loss);
        assert!((l1 - l2).abs() < 1e-3, "{l1} vs {l2}");
    }

    #[test]
    fn sample_thread_count_is_bit_deterministic() {
        // In-order folding makes the accumulation order — and therefore
        // every f32 rounding — independent of the thread count: epoch
        // losses must match to the bit, not merely to a tolerance.
        let run = |batch_size: usize, threads: usize| -> Vec<u64> {
            let mut net = make_net(42);
            let mut data = make_data();
            let cfg = TrainerConfig {
                epochs: 3,
                momentum: 0.9,
                batch_size,
                sample_threads: threads,
                ..Default::default()
            };
            Trainer::new(cfg)
                .train(&mut net, &mut data)
                .iter()
                .map(|s| s.mean_loss.to_bits())
                .collect()
        };
        assert_eq!(run(8, 1), run(8, 4));
        // 24 samples at batch 5 end each epoch on a batch of 4: blocks of
        // 2/1/1 at three threads, and an empty fifth block at five.
        assert_eq!([0, 1, 2].map(|w| spg_sync::partition(4, 3, w)), [0..2, 2..3, 3..4]);
        assert_eq!(spg_sync::partition(4, 5, 4), 4..4);
        let solo = run(5, 1);
        assert_eq!(run(5, 3), solo, "batch 5, 3 threads");
        assert_eq!(run(5, 5), solo, "batch 5, 5 threads");
    }

    #[test]
    fn gradient_sparsity_grows_over_epochs() {
        // The Fig. 3b dynamic: as the model fits, conv-layer error
        // gradients become sparser.
        let mut net = make_net(12);
        let mut data = make_data();
        let cfg = TrainerConfig { epochs: 10, learning_rate: 0.1, ..Default::default() };
        let stats = Trainer::new(cfg).train(&mut net, &mut data);
        let first = stats.first().unwrap().conv_grad_sparsity[0];
        let last = stats.last().unwrap().conv_grad_sparsity[0];
        assert!(last >= first, "sparsity did not grow: {first} -> {last}");
        assert!(last > 0.3, "final sparsity too low: {last}");
    }

    #[test]
    fn epoch_callback_fires_each_epoch() {
        let mut net = make_net(13);
        let mut data = make_data();
        let mut calls = 0;
        Trainer::new(TrainerConfig { epochs: 3, ..Default::default() }).train_with(
            &mut net,
            &mut data,
            |_, stats| {
                calls += 1;
                assert_eq!(stats.epoch, calls);
            },
        );
        assert_eq!(calls, 3);
    }

    #[test]
    fn pooled_epoch_callback_can_retune_executors() {
        // The callback takes &mut Network between batches of a
        // multi-thread run; a re-plan mid-training must not wedge or
        // corrupt the run.
        let mut net = make_net(14);
        let mut data = make_data();
        let mut calls = 0;
        Trainer::new(TrainerConfig { epochs: 2, sample_threads: 3, ..Default::default() })
            .train_with(&mut net, &mut data, |net, _| {
                calls += 1;
                for layer in net.layers_mut() {
                    if let Some(conv) = layer.as_conv_mut() {
                        conv.set_backward_executor(std::sync::Arc::new(
                            crate::exec::ReferenceExecutor,
                        ));
                    }
                }
            });
        assert_eq!(calls, 2);
    }

    /// Regression: a fold configured wider than the batch (batch_size=1,
    /// sample_threads=8) used to spawn all 8 workers, 7 of which could
    /// never receive a sample. The clamp must keep training correct
    /// (bit-identical to one thread) and count the declined slots in the
    /// starvation telemetry.
    #[test]
    fn starved_pool_clamps_workers_to_batch() {
        spg_telemetry::set_enabled(true);
        let starved_before = spg_telemetry::snapshot().counter("train.starved_workers");
        let run = |threads: usize| -> Vec<u64> {
            let mut net = make_net(21);
            let mut data = make_data();
            let cfg = TrainerConfig {
                epochs: 2,
                batch_size: 1,
                sample_threads: threads,
                ..Default::default()
            };
            Trainer::new(cfg)
                .train(&mut net, &mut data)
                .iter()
                .map(|s| s.mean_loss.to_bits())
                .collect()
        };
        let sequential = run(1);
        let starved = run(8);
        assert_eq!(sequential, starved, "starved pool must train identically");
        let declined = spg_telemetry::snapshot().counter("train.starved_workers") - starved_before;
        // The 8-thread run clamps to 1 slot for the run: 7 declined slots
        // recorded (the 1-thread run records none).
        assert_eq!(declined, 7, "declined worker slots counted");
    }

    /// A record's dense gradient: what the two-pass update added.
    fn dense(format: RecordFormat, record: &[f32]) -> Vec<f32> {
        match format {
            RecordFormat::Dense => record.to_vec(),
            RecordFormat::Outer { in_len, out_len } => {
                let (delta, x) = record.split_at(out_len);
                let weights = delta.iter().flat_map(|d| x[..in_len].iter().map(move |xi| d * xi));
                weights.chain(delta.iter().copied()).collect()
            }
        }
    }

    /// `0.0 + g_0 + g_1 + ...` of every layer's dense gradients, in
    /// sample order.
    fn dense_sums(net: &Network, records: &[Vec<Tensor>]) -> Vec<Vec<f32>> {
        let sum = |(l, layer): (usize, &dyn Layer)| {
            let mut sum = vec![0.0f32; layer.param_count()];
            for record in records {
                let g = dense(layer.record_format(), record[l].as_slice());
                sum.iter_mut().zip(g).for_each(|(a, g)| *a += g);
            }
            sum
        };
        net.layers().iter().map(|l| &**l).enumerate().map(sum).collect()
    }

    fn words(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Random records for `samples` samples of `net`.
    fn random_records(net: &Network, samples: usize, rng: &mut SmallRng) -> Vec<Vec<Tensor>> {
        let mut record = |l: &dyn Layer| Tensor::random_uniform(l.grad_record_len(), 1.0, rng);
        (0..samples).map(|_| net.layers().iter().map(|l| record(&**l)).collect()).collect()
    }

    /// `add_records` onto zeros — tile by tile, a stack group of records at
    /// a time — gives the bits of adding dense gradients one sample at a
    /// time, and so does a batch split into consecutive calls, the second
    /// adding onto what the first left. FC 601→110 is two tiles, the second
    /// partial; 70 samples of FC 7→3 are three record groups.
    #[test]
    fn fold_matches_the_sequential_dense_sum_for_every_split() {
        let mut rng = SmallRng::seed_from_u64(30);
        let wide = Network::new(vec![Box::new(FcLayer::new(601, 110, &mut rng))]).unwrap();
        let narrow = Network::new(vec![Box::new(FcLayer::new(7, 3, &mut rng))]).unwrap();
        for (net, samples) in [(wide, 3), (narrow, 2 * RECORD_GROUP + 6)] {
            let records = random_records(&net, samples, &mut rng);
            let want = words(&dense_sums(&net, &records)[0]);
            let zeros = vec![0.0; net.layers()[0].param_count()];
            let mut sum = zeros.clone();
            add_records(&net, 0, &records, &mut sum);
            assert_eq!(words(&sum), want, "{samples} samples in one call");
            let mut sum = zeros;
            add_records(&net, 0, &records[..1], &mut sum);
            add_records(&net, 0, &records[1..], &mut sum);
            assert_eq!(words(&sum), want, "{samples} samples in two calls");
        }
    }

    /// The one-pass update — per tile: zero, add the records in sample
    /// order (or read a pre-summed span), apply — gives, bit for bit, what
    /// the two-pass update gave: a dense in-order sum into a
    /// parameter-sized buffer, then `v = μ·v + g/scale; w -= lr·v`, or
    /// `w -= (lr/scale)·g` at μ = 0. Conv + FC, the FC's 65 778 parameters
    /// two tiles (the second partial), at one to three ranges. Small
    /// enough for Miri, which then interprets the range split.
    #[test]
    fn fold_and_apply_match_the_two_pass_update() {
        let mut rng = SmallRng::seed_from_u64(33);
        let spec = ConvSpec::new(1, 8, 8, 16, 3, 3, 1, 1).unwrap();
        let out = spec.output_shape().len();
        let net = |rng: &mut SmallRng| {
            Network::new(vec![
                Box::new(ConvLayer::new(spec, rng)),
                Box::new(ReluLayer::new(out)),
                Box::new(FcLayer::new(out, 114, rng)),
            ])
            .unwrap()
        };
        let start = net(&mut SmallRng::seed_from_u64(34));
        assert!(start.layers()[2].param_count() > FOLD_TILE);
        let records = random_records(&start, 3, &mut rng);
        let sums = dense_sums(&start, &records);
        let velocity: Vec<Tensor> = start
            .layers()
            .iter()
            .map(|l| Tensor::random_uniform(l.param_count(), 0.1, &mut rng))
            .collect();
        let (lr, scale) = (0.05f32, records.len() as f32);
        for momentum in [0.0f32, 0.9] {
            // The two-pass oracle.
            let (mut want_w, mut want_v) = (Vec::new(), Vec::new());
            for ((layer, g), v) in start.layers().iter().zip(&sums).zip(&velocity) {
                let mut w = layer.params().unwrap_or_default().to_vec();
                let mut v = v.as_slice().to_vec();
                if momentum > 0.0 {
                    for (v, g) in v.iter_mut().zip(g) {
                        *v = momentum * *v + g / scale;
                    }
                    w.iter_mut().zip(&v).for_each(|(w, v)| *w -= (lr / 1.0) * v);
                } else {
                    w.iter_mut().zip(g).for_each(|(w, g)| *w -= (lr / scale) * g);
                }
                want_w.push(words(&w));
                want_v.push(words(&v));
            }
            let rule = Rule { learning_rate: lr, momentum, scale };
            // The FC layer pre-summed, as a ring's chain carries it, or not.
            let presummed = |on: bool| {
                let mut sums: Vec<Tensor> = vec![Tensor::default(); 3];
                if on {
                    sums[2] = Tensor::from_vec(dense_sums(&start, &records)[2].clone());
                }
                sums
            };
            for (cores, on) in [(1, false), (2, false), (3, false), (1, true), (3, true)] {
                let mut net = net(&mut SmallRng::seed_from_u64(34));
                let mut v = velocity.clone();
                let (mut tiles, sums) = (fold_tiles(&net, cores), presummed(on));
                let folded = Folded { records: &records, sums: &sums, tiles: &mut tiles };
                update(&mut net, rule, folded, &mut v, 1);
                let at = format!("momentum {momentum}, {cores} cores, presummed {on}");
                for (l, layer) in net.layers().iter().enumerate() {
                    assert_eq!(words(layer.params().unwrap_or_default()), want_w[l], "{at}: w{l}");
                    if momentum > 0.0 {
                        assert_eq!(words(v[l].as_slice()), want_v[l], "{at}: v{l}");
                    }
                }
            }
        }
    }

    /// A fault is reported by the slot whose block holds the faulted
    /// position: at batch 4 and two threads, position 3 is slot 1's.
    #[test]
    fn a_fault_names_the_slot_whose_block_holds_the_sample() {
        /// Identity, until it meets the poisoned image.
        #[derive(Debug)]
        struct Poison(Vec<f32>);
        impl Layer for Poison {
            fn name(&self) -> &str {
                "poison"
            }
            fn input_len(&self) -> usize {
                self.0.len()
            }
            fn output_len(&self) -> usize {
                self.0.len()
            }
            fn forward_block(
                &self,
                xs: &[f32],
                ys: &mut [f32],
                _: &mut crate::workspace::ConvScratch,
            ) {
                assert!(xs.chunks_exact(self.0.len()).all(|x| x != self.0), "poisoned sample");
                ys.copy_from_slice(xs);
            }
            fn backward_block(
                &self,
                _: &[f32],
                _: &[f32],
                grad_outs: &[f32],
                grad_ins: &mut [f32],
                _: &mut [Tensor],
                _: &mut crate::workspace::ConvScratch,
            ) {
                grad_ins.copy_from_slice(grad_outs);
            }
        }

        let data = make_data();
        let mut rng = SmallRng::seed_from_u64(32);
        let poison = Poison(data.image(3).as_slice().to_vec());
        let net =
            Network::new(vec![Box::new(poison), Box::new(FcLayer::new(64, 3, &mut rng))]).unwrap();
        let config = TrainerConfig {
            batch_size: 4,
            sample_threads: 2,
            restart_budget: 0,
            ..Default::default()
        };
        assert_eq!(spg_sync::partition(4, 2, 1), 2..4);
        let mut acc = BatchAcc::new(net.conv_count());
        let mut fold = LocalFold::for_config(&net, &config, 1);
        let fault = fold.fold(&net, &data, 1, 0, 0..4, &mut acc).map(|_| ());
        assert!(
            matches!(fault, Err(TrainError::WorkerFault { worker: 1, epoch: 1, batch: 0, .. })),
            "{fault:?}"
        );
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_rejected() {
        Trainer::new(TrainerConfig { batch_size: 0, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn invalid_momentum_rejected() {
        Trainer::new(TrainerConfig { momentum: 1.0, ..Default::default() });
    }

    #[test]
    fn momentum_training_learns() {
        let mut net = make_net(20);
        let mut data = make_data();
        let cfg =
            TrainerConfig { epochs: 8, learning_rate: 0.05, momentum: 0.9, ..Default::default() };
        let stats = Trainer::new(cfg).train(&mut net, &mut data);
        assert!(stats.last().unwrap().mean_loss < stats.first().unwrap().mean_loss);
        assert!(stats.last().unwrap().accuracy > 0.6);
    }

    #[test]
    fn momentum_changes_the_trajectory() {
        let mut plain_net = make_net(21);
        let mut mom_net = make_net(21);
        let mut d1 = make_data();
        let mut d2 = make_data();
        let base = TrainerConfig { epochs: 3, ..Default::default() };
        let plain = Trainer::new(base.clone()).train(&mut plain_net, &mut d1);
        let momentum =
            Trainer::new(TrainerConfig { momentum: 0.9, ..base }).train(&mut mom_net, &mut d2);
        let (a, b) = (plain.last().unwrap().mean_loss, momentum.last().unwrap().mean_loss);
        assert!((a - b).abs() > 1e-6, "momentum had no effect: {a} vs {b}");
    }
}
