//! Mini-batch SGD: the workspace's one epoch × batch training loop, with
//! cross-sample parallelism and the instrumentation the paper's
//! experiments need.
//!
//! [`Trainer::run`] owns the loop — shuffle schedule, in-order batch
//! accumulation, epoch statistics, momentum update, resumable
//! [`Progress`] — and is parameterized by one seam, [`BatchFold`]: how a
//! batch's per-sample results reach the accumulator in sample order.
//! Two folds exist: [`LocalFold`], this process's sample threads, and
//! `spg-cluster`'s ring fold, whose ranks call this loop rather than copy
//! it.
//!
//! The trainer's `sample_threads` knob *is* the GEMM-in-Parallel schedule
//! at the training-loop level: each sample thread pushes whole samples
//! through the shared network with single-threaded kernels, instead of
//! every sample's GEMM being partitioned across all cores (Sec. 4.1).
//!
//! The local fold owns one *slot* per sample thread, each with a
//! [`Workspace`] it reuses for the whole run. Per batch, slot `w` runs
//! the [`block_bounds`] block `w` of the batch — the same contiguous
//! partition a ring rank runs — one sample at a time, all slots at once
//! on one [`spg_sync::fork_join`]; no thread outlives the batch. Each
//! sample leaves its records in that batch position's record set, so the
//! fold that follows reads them in sample order and the f32 gradient
//! accumulation is bit-identical for every thread count.
//!
//! # Records, folded once
//!
//! A sample's backward pass leaves per-layer gradient *records*
//! ([`Layer`]), not necessarily dense gradients: a
//! fully-connected layer's weight gradient is the rank-1 product `δ ⊗ x`,
//! and writing it out per sample moves `out x in` floats to perform as
//! many multiplies — no arithmetic intensity at all. It stays `(δ, x)`
//! until [`fold_records`], the one function that turns records into the
//! batch accumulator: per layer it cuts the parameters into contiguous
//! ranges, one per core it was given, and walks each range in
//! cache-sized tiles — zero-fill the tile, add every sample into it in
//! sample order — so the accumulator is written once per batch and never
//! read cold. The local fold folds when the batch is complete, on the
//! cores its slots ran on, so even a one-thread run holds a batch of
//! records. Every parameter sums `0.0 + g_0 + g_1 + ...` in sample order,
//! which is the [`BatchFold`] contract.
//!
//! Each slot is *supervised*, at every thread count: it runs each sample
//! inside [`std::panic::catch_unwind`], so a panicking kernel is a fault
//! instead of a torn batch, under its own [`spg_sync::supervise`] call per
//! batch. After a fault the slot rebuilds its [`Workspace`] and resumes at
//! the faulted sample: the record sets are the batch's, not the
//! workspace's, so nothing is lost and the fold stays one in-order pass
//! (hence bit-identical). Only once the slot has spent its
//! [`TrainerConfig::restart_budget`] for the run does a fault fail the
//! batch with a typed [`TrainError::WorkerFault`].

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use spg_sync::{FaultInjector, FaultPlan, Restarts};
use spg_tensor::Tensor;

use crate::data::Dataset;
use crate::error::TrainError;
use crate::layer::Layer;
use crate::net::{loss_into, Network};
use crate::split;
use crate::workspace::{record_buffers, Workspace};

/// Configuration for [`Trainer`].
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Learning rate.
    pub learning_rate: f32,
    /// Momentum coefficient in `[0, 1)`; `0.0` is plain SGD. The update
    /// is `v = momentum * v + grad; params -= lr * v`.
    pub momentum: f32,
    /// Number of passes over the dataset.
    pub epochs: usize,
    /// Samples per parameter update.
    pub batch_size: usize,
    /// Worker threads processing samples concurrently (GEMM-in-Parallel);
    /// `1` processes samples sequentially.
    pub sample_threads: usize,
    /// Seed for per-epoch dataset shuffling.
    pub shuffle_seed: u64,
    /// How many times a sample thread's slot is restarted after a
    /// panicking sample (with a fresh [`Workspace`]) before the run fails
    /// with [`TrainError::WorkerFault`]. Per slot over the whole run, not
    /// global.
    pub restart_budget: usize,
    /// Base delay before a slot's restart; doubles per further restart of
    /// the same slot within one batch (capped at one second) and starts
    /// over at the next batch.
    pub restart_backoff: Duration,
    /// Deterministic fault to inject for supervision testing: slot `K`
    /// panics when it starts its `N`-th sample of the run, retries
    /// included. It fires whenever set, once per run; `None` costs one
    /// `Option` test per sample.
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

    /// The configuration in use.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
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
        let mut fold = LocalFold::for_config(net, &self.config);
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
        let mut acc = BatchAcc::for_network(net);
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
                acc.begin_batch();
                fold.fold(net, data, epoch, batch, samples.clone(), &mut acc)?;
                progress.epoch_acc.absorb(&acc, samples.len());
                self.apply_batch(net, &mut progress.velocity, &acc, samples.len());
                progress.next_batch = batch + 1;
            }
            let stats = progress.epoch_acc.finish(epoch, data_len, start.elapsed().as_secs_f64());
            after_epoch(net, &stats);
            progress.stats.push(stats);
            progress.next_epoch = epoch + 1;
            progress.next_batch = 0;
        }
        Ok(())
    }

    /// Applies one batch's accumulated gradients (with optional momentum).
    fn apply_batch(
        &self,
        net: &mut Network,
        velocity: &mut [Tensor],
        acc: &BatchAcc,
        batch_len: usize,
    ) {
        let scale = batch_len as f32;
        if self.config.momentum > 0.0 {
            for (v, g) in velocity.iter_mut().zip(&acc.grads) {
                for (v, g) in v.iter_mut().zip(g.iter()) {
                    *v = self.config.momentum * *v + g / scale;
                }
            }
            net.apply_gradient_slices(velocity, self.config.learning_rate, 1.0);
        } else {
            net.apply_gradient_slices(&acc.grads, self.config.learning_rate, scale);
        }
    }
}

/// The one seam of the SGD loop: how a batch's per-sample results reach
/// the accumulator.
///
/// # The sample-order contract
///
/// [`fold`](Self::fold) must leave `acc` holding what absorbing the
/// batch's samples **one at a time, in sample order** produces: for every
/// gradient element and every scalar the additions start from zero and
/// happen in exactly that order. f32 addition is not associative, so this
/// order is the whole determinism guarantee — every implementation that
/// keeps it trains to the same bits, wherever the samples ran (this
/// process's sample threads, other ranks of a ring) — and a reducer that
/// re-associates the sum (a tree, a reduce-scatter) cannot implement this
/// trait.
///
/// # Who zeroes
///
/// The loop zeroes `acc`'s scalars before each call; the gradient tensors
/// arrive holding the previous batch's sums and the fold overwrites them:
/// [`fold_records`] zero-fills each tile right before the first sample is
/// added into it, while the tile is in cache, so the accumulator is never
/// swept cold. Starting from `0.0` is part of the contract, not a
/// convenience — `0.0 + g` is not a copy of `g` (`0.0 + -0.0` is `+0.0`).
/// A fold is free to wait until the batch is complete and fold once.
pub trait BatchFold {
    /// What a batch that could not be folded reports.
    type Error;

    /// Folds batch `batch` of (1-based) `epoch` — positions `samples` of
    /// `data` in its current shuffle, run through `net` — into `acc`.
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
    ) -> Result<(), Self::Error>;
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
            epoch_acc: EpochAcc::new(conv_layer_indices(net).len()),
        }
    }
}

/// Indices of the conv layers (the Fig. 3b sparsity series).
pub fn conv_layer_indices(net: &Network) -> Vec<usize> {
    net.layers().iter().enumerate().filter_map(|(i, l)| l.conv_spec().map(|_| i)).collect()
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
/// [`Workspace::param_grads`] is shaped), its loss and whether its
/// prediction was correct in `scalars[j]`, and its gradient sparsities in
/// `ws.grad_sparsity`. Every sample gets the bits a block of one gives it.
///
/// # Panics
///
/// Panics if `records` or `scalars` does not hold one entry per sample, or
/// `ws` or a record set is not shaped for `net`.
pub fn process_block(
    net: &Network,
    data: &Dataset,
    samples: Range<usize>,
    ws: &mut Workspace,
    records: &mut [Vec<Tensor>],
    scalars: &mut [(f32, bool)],
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
        let pred = (0..classes).max_by(|&a, &b| logits[a].total_cmp(&logits[b])).unwrap_or(0);
        *scalar = (loss, pred == label);
    }
    net.backward_walk(ws, records);
}

/// Slot `w`'s contiguous block `[start, end)` of a `batch_len`-sample
/// batch cut `workers` ways: the blocks partition the batch in slot
/// order, sized as evenly as possible (the first `batch_len % workers`
/// get one extra). The one partition rule for a batch — the local fold's
/// sample threads and a ring's ranks both take their samples by it.
pub fn block_bounds(batch_len: usize, workers: usize, w: usize) -> (usize, usize) {
    let base = batch_len / workers;
    let extra = batch_len % workers;
    let start = w * base + w.min(extra);
    let len = base + usize::from(w < extra);
    (start, start + len)
}

/// The in-process fold: `min(sample_threads, batch_size)` slots, each
/// owning one [`Workspace`] and its supervision state for the whole run.
/// Per batch the slots run their [`block_bounds`] blocks on one
/// [`spg_sync::fork_join`], a sample at a time, each into its batch
/// position's record set; then the records are folded by parameter range
/// on as many cores as there are slots.
#[derive(Debug)]
pub struct LocalFold {
    slots: Vec<Slot>,
    /// Gradient records by batch position; grows to the largest batch.
    records: Vec<Vec<Tensor>>,
    /// Loss and verdict by batch position.
    scalars: Vec<(f32, bool)>,
    /// Per-layer gradient sparsities by batch position, `layers` each.
    sparsity: Vec<f64>,
    backoff: Duration,
    injector: FaultInjector,
}

/// One sample thread's state, kept across batches.
#[derive(Debug)]
struct Slot {
    ws: Workspace,
    /// Restarts this slot may still spend in the run.
    restarts_left: usize,
    /// Samples this slot has started, retries included: the work units a
    /// [`FaultPlan`] counts.
    started: u64,
}

/// One slot's share of a batch: its samples' positions in the dataset,
/// and the batch's per-sample outputs for exactly those samples.
struct Block<'a> {
    samples: Range<usize>,
    records: &'a mut [Vec<Tensor>],
    scalars: &'a mut [(f32, bool)],
    sparsity: &'a mut [f64],
}

impl LocalFold {
    /// A one-slot fold for `net` with the default restart policy.
    pub fn new(net: &Network) -> Self {
        Self::for_config(net, &TrainerConfig::default())
    }

    /// The fold `config` asks for. A slot that could never receive a
    /// sample — more sample threads than the batch has samples — is not
    /// made, and is counted as starved instead.
    fn for_config(net: &Network, config: &TrainerConfig) -> Self {
        let workers = config.sample_threads.min(config.batch_size).max(1);
        let starved = config.sample_threads - workers;
        if starved > 0 {
            spg_telemetry::record_counter("train.starved_workers", starved as u64);
        }
        let slot = || Slot {
            ws: Workspace::for_network(net),
            restarts_left: config.restart_budget,
            started: 0,
        };
        LocalFold {
            slots: (0..workers).map(|_| slot()).collect(),
            records: Vec::new(),
            scalars: Vec::new(),
            sparsity: Vec::new(),
            backoff: config.restart_backoff,
            injector: FaultInjector::new(config.fault_plan),
        }
    }
}

impl Slot {
    /// Runs `block` as slot `w`, one sample at a time, under this slot's
    /// supervision: a panicking sample rebuilds the workspace and the
    /// next incarnation resumes at that sample. The one-shot injector
    /// cannot re-trip on the retry; a real deterministic panic re-fires
    /// and burns the slot's budget down to the reported panic message.
    fn run(
        &mut self,
        net: &Network,
        data: &Dataset,
        w: usize,
        block: Block<'_>,
        backoff: Duration,
        injector: &FaultInjector,
    ) -> Result<(), String> {
        let Slot { ws, restarts_left, started } = self;
        let Block { samples, records, scalars, sparsity } = block;
        let layers = net.layers().len();
        let mut next = 0;
        let restarts = Restarts { budget: *restarts_left, backoff };
        spg_sync::supervise(
            restarts,
            || {
                for (j, i) in samples.clone().enumerate().skip(next) {
                    *started += 1;
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        injector.check(w, *started);
                        let (records, scalars) = (&mut records[j..=j], &mut scalars[j..=j]);
                        process_block(net, data, i..i + 1, ws, records, scalars);
                    }));
                    if let Err(payload) = outcome {
                        spg_telemetry::record_counter("train.faulted_samples", 1);
                        // A panic may have left the workspace mid-update.
                        *ws = Workspace::for_network(net);
                        return Err(spg_sync::panic_message(payload.as_ref()));
                    }
                    sparsity[j * layers..(j + 1) * layers].copy_from_slice(&ws.grad_sparsity);
                    next = j + 1;
                }
                Ok(())
            },
            |_, _| {
                *restarts_left -= 1;
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
    ) -> Result<(), TrainError> {
        let (len, layers, workers) = (samples.len(), net.layers().len(), self.slots.len());
        if self.records.len() < len {
            self.records.resize_with(len, || record_buffers(net));
            self.scalars.resize(len, (0.0, false));
            self.sparsity.resize(len * layers, 0.0);
        }
        // Cut the batch's outputs into the slots' blocks, in slot order.
        let (mut records, mut scalars) = (&mut self.records[..len], &mut self.scalars[..len]);
        let mut sparsity = &mut self.sparsity[..len * layers];
        let mut blocks = Vec::with_capacity(workers);
        for w in 0..workers {
            let (start, end) = block_bounds(len, workers, w);
            let k = end - start;
            let (r, s, g);
            (r, records) = std::mem::take(&mut records).split_at_mut(k);
            (s, scalars) = std::mem::take(&mut scalars).split_at_mut(k);
            (g, sparsity) = std::mem::take(&mut sparsity).split_at_mut(k * layers);
            let samples = samples.start + start..samples.start + end;
            blocks.push(Block { samples, records: r, scalars: s, sparsity: g });
        }
        let (backoff, injector) = (self.backoff, &self.injector);
        // A slot whose block is empty (a batch shorter than the slots) is
        // not forked.
        let tasks = self.slots.iter_mut().zip(blocks).enumerate().take(len);
        let outcomes =
            spg_sync::fork_join(tasks.map(|(w, (slot, block))| {
                move || slot.run(net, data, w, block, backoff, injector)
            }));
        for (worker, outcome) in outcomes.into_iter().enumerate() {
            if let Err(message) = outcome {
                return Err(TrainError::WorkerFault { worker, epoch, batch, message });
            }
        }
        for (j, &(loss, correct)) in self.scalars[..len].iter().enumerate() {
            acc.add_scalars(loss, correct, &self.sparsity[j * layers..(j + 1) * layers]);
        }
        // Every slot is done: their cores are the fold's.
        acc.add_records(net, &self.records[..len], workers);
        Ok(())
    }
}

/// Floats per fold tile: 256 KB, so a tile and the record spans added into
/// it sit in a per-core L2 of 1 MB or more. Measured on the 20.7 M
/// parameter ImageNet-1K classifier at batch 4: tiles of 16 K, 64 K and
/// 256 K floats fold within 5 % of each other (17.3 ms on one core), 1 M
/// floats and the untiled range are 1.25-1.5x slower.
const FOLD_TILE: usize = 64 * 1024;

/// Element-adds (parameters x samples) a range must cover before it gets a
/// thread of its own. Measured here: one core folds 4.5-5 G element-adds/s
/// and a `fork_join` spawn costs ~70 us, so 2 M is 0.4 ms of work — a
/// forked range carries at least six times what its thread cost.
const FORK_FLOOR: usize = 2 * 1024 * 1024;

/// Turns samples' gradient records into their in-order sum — the one fold
/// behind every [`BatchFold`].
///
/// `records[s].as_ref()[l]` is sample `s`'s record for layer `l` as
/// [`Network::backward_into`] left it; `acc` yields one
/// [`param_count`](Layer::param_count)-long slice per layer, or an empty
/// one to leave that layer out (its records are then not read).
/// With `zero`, what `acc` held is dead and every element becomes
/// `0.0 + g_0 + g_1 + ...`; without, the records are added onto it (a batch
/// folded a few samples at a time). Per element the adds run in slice
/// order, one per sample, whatever `cores` is: each layer's parameters are
/// cut into up to `cores` contiguous ranges — fewer when a range would not
/// cover `FORK_FLOOR` element-adds — and a range walks `FOLD_TILE`-sized
/// tiles through [`Layer::add_grads`].
///
/// # Panics
///
/// Panics if `acc` or a sample's records are not shaped for `net`.
pub fn fold_records<'a, R: AsRef<[Tensor]>>(
    net: &Network,
    records: &[R],
    cores: usize,
    zero: bool,
    acc: impl IntoIterator<Item = &'a mut [f32]>,
) {
    let mut layer_records: Vec<&[f32]> = Vec::with_capacity(records.len());
    for ((l, layer), acc) in net.layers().iter().enumerate().zip(acc) {
        if acc.is_empty() {
            continue;
        }
        assert_eq!(acc.len(), layer.param_count(), "accumulator shaped for the network");
        layer_records.clear();
        layer_records.extend(records.iter().map(|r| r.as_ref()[l].as_slice()));
        fold_ranges(&**layer, &layer_records, cores, FORK_FLOOR, zero, acc);
    }
}

/// One layer's fold: `acc` cut into up to `cores` contiguous ranges, none
/// covering fewer than `floor` element-adds, a thread each, every range
/// walked tile by tile.
fn fold_ranges(
    layer: &dyn Layer,
    records: &[&[f32]],
    cores: usize,
    floor: usize,
    zero: bool,
    acc: &mut [f32],
) {
    let work = acc.len() * records.len();
    split::for_each_part(acc, 1, work, cores, floor, |start, range| {
        for (t, tile) in range.chunks_mut(FOLD_TILE).enumerate() {
            if zero {
                tile.fill(0.0);
            }
            layer.add_grads(records, start + t * FOLD_TILE, tile);
        }
    });
}

/// Per-batch accumulator, refilled by the [`BatchFold`] every batch.
#[derive(Debug)]
pub struct BatchAcc {
    /// Summed parameter gradients, one tensor per layer.
    pub grads: Vec<Tensor>,
    /// Summed losses.
    pub loss_sum: f64,
    /// Correct-prediction count.
    pub correct: usize,
    /// Summed backward gradient sparsity per conv layer.
    pub sparsity_sums: Vec<f64>,
    conv_layers: Vec<usize>,
    /// `grads` still holds the previous batch: the next fold starts from
    /// zero, later ones of the same batch add on.
    stale: bool,
}

impl BatchAcc {
    fn for_network(net: &Network) -> Self {
        let conv_layers = conv_layer_indices(net);
        BatchAcc {
            grads: zero_param_grads(net),
            loss_sum: 0.0,
            correct: 0,
            sparsity_sums: vec![0.0; conv_layers.len()],
            conv_layers,
            stale: true,
        }
    }

    /// Zeroes the scalars and marks `grads` dead: the gradient tensors are
    /// zeroed by the batch's first fold, tile by tile, not swept here.
    fn begin_batch(&mut self) {
        self.loss_sum = 0.0;
        self.correct = 0;
        self.sparsity_sums.fill(0.0);
        self.stale = true;
    }

    /// Runs sample `i` through [`process_block`] in `ws`, as a block of
    /// one whose records land in `ws.param_grads`, and absorbs it.
    pub fn absorb_sample(&mut self, net: &Network, data: &Dataset, i: usize, ws: &mut Workspace) {
        let mut records = std::mem::take(&mut ws.param_grads);
        let mut result = [(0.0, false)];
        process_block(net, data, i..i + 1, ws, std::slice::from_mut(&mut records), &mut result);
        self.add_scalars(result[0].0, result[0].1, &ws.grad_sparsity);
        self.add_records(net, std::slice::from_ref(&records), 1);
        ws.param_grads = records;
    }

    /// Absorbs one sample's scalars: its loss, whether it was classified
    /// correctly, and its per-layer gradient sparsities as
    /// [`process_block`] leaves a block of one's in the [`Workspace`].
    fn add_scalars(&mut self, loss: f32, correct: bool, grad_sparsity: &[f64]) {
        self.loss_sum += loss as f64;
        self.correct += correct as usize;
        for (dst, &li) in self.sparsity_sums.iter_mut().zip(&self.conv_layers) {
            *dst += grad_sparsity[li];
        }
    }

    /// Folds the next samples' gradient records, in order, on `cores`
    /// cores.
    fn add_records<R: AsRef<[Tensor]>>(&mut self, net: &Network, records: &[R], cores: usize) {
        let grads = self.grads.iter_mut().map(Tensor::as_mut_slice);
        fold_records(net, records, cores, self.stale, grads);
        self.stale = false;
    }
}

/// Per-epoch accumulator over the batch accumulators.
#[derive(Debug, Clone)]
struct EpochAcc {
    loss_sum: f64,
    correct: usize,
    sparsity_sums: Vec<f64>,
    sparsity_count: usize,
}

impl EpochAcc {
    fn new(conv_count: usize) -> Self {
        EpochAcc {
            loss_sum: 0.0,
            correct: 0,
            sparsity_sums: vec![0.0; conv_count],
            sparsity_count: 0,
        }
    }

    fn absorb(&mut self, acc: &BatchAcc, batch_len: usize) {
        self.loss_sum += acc.loss_sum;
        self.correct += acc.correct;
        for (dst, src) in self.sparsity_sums.iter_mut().zip(&acc.sparsity_sums) {
            *dst += src;
        }
        self.sparsity_count += batch_len;
    }

    /// Closes the epoch: its stats, leaving the accumulator zeroed for the
    /// next one.
    fn finish(&mut self, epoch: usize, samples: usize, elapsed: f64) -> EpochStats {
        let done = std::mem::replace(self, EpochAcc::new(self.sparsity_sums.len()));
        EpochStats {
            epoch,
            mean_loss: done.loss_sum / samples as f64,
            accuracy: done.correct as f64 / samples as f64,
            conv_grad_sparsity: done
                .sparsity_sums
                .iter()
                .map(|s| s / done.sparsity_count.max(1) as f64)
                .collect(),
            images_per_sec: samples as f64 / elapsed.max(1e-9),
        }
    }
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
        assert_eq!([0, 1, 2].map(|w| block_bounds(4, 3, w)), [(0, 2), (2, 3), (3, 4)]);
        assert_eq!(block_bounds(4, 5, 4), (4, 4));
        let solo = run(5, 1);
        assert_eq!(run(5, 3), solo, "batch 5, 3 threads");
        assert_eq!(run(5, 5), solo, "batch 5, 5 threads");
    }

    #[test]
    fn block_bounds_partition_every_batch() {
        for len in 0..20 {
            for workers in 1..6 {
                let mut next = 0;
                for w in 0..workers {
                    let (s, e) = block_bounds(len, workers, w);
                    assert_eq!(s, next, "len {len} workers {workers} slot {w}");
                    assert!(e >= s);
                    next = e;
                }
                assert_eq!(next, len);
            }
        }
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

    /// The fold's two splits — parameter ranges across threads, tiles
    /// within a range — and the split of a batch into consecutive calls
    /// all give the bits of adding dense gradients one sample at a time.
    /// Small enough for Miri, which then interprets the range split.
    #[test]
    fn fold_matches_the_sequential_dense_sum_for_every_split() {
        let mut rng = SmallRng::seed_from_u64(30);
        // 66 110 parameters: two tiles, and ranges that start mid-row.
        let fc = FcLayer::new(601, 110, &mut rng);
        let records: Vec<Tensor> =
            (0..3).map(|_| Tensor::random_uniform(fc.grad_record_len(), 1.0, &mut rng)).collect();
        let records: Vec<&[f32]> = records.iter().map(Tensor::as_slice).collect();
        let mut want = vec![0.0f32; fc.param_count()];
        for record in &records {
            let (delta, x) = record.split_at(110);
            let dense = delta
                .iter()
                .flat_map(|d| x.iter().map(move |xi| d * xi))
                .chain(delta.iter().copied());
            want.iter_mut().zip(dense).for_each(|(a, g)| *a += g);
        }
        let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        for ranges in [1, 2, 3] {
            let mut acc = vec![f32::NAN; fc.param_count()];
            fold_ranges(&fc, &records, ranges, 1, true, &mut acc);
            assert_eq!(
                acc.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want,
                "{ranges} ranges"
            );
            // The same batch a few samples at a time.
            fold_ranges(&fc, &records[..1], ranges, 1, true, &mut acc);
            fold_ranges(&fc, &records[1..], ranges, 1, false, &mut acc);
            assert_eq!(
                acc.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want,
                "{ranges} ranges"
            );
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
            fn forward(&self, x: &[f32], y: &mut [f32], _: &mut crate::workspace::ConvScratch) {
                assert!(x != self.0, "poisoned sample");
                y.copy_from_slice(x);
            }
            fn backward(
                &self,
                _: &[f32],
                _: &[f32],
                grad_out: &[f32],
                grad_in: &mut [f32],
                _: &mut Tensor,
                _: &mut crate::workspace::ConvScratch,
            ) {
                grad_in.copy_from_slice(grad_out);
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
        assert_eq!(block_bounds(4, 2, 1), (2, 4));
        let mut acc = BatchAcc::for_network(&net);
        let mut fold = LocalFold::for_config(&net, &config);
        let fault = fold.fold(&net, &data, 1, 0, 0..4, &mut acc);
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
