//! Mini-batch SGD: the workspace's one epoch × batch training loop, with
//! cross-sample parallelism and the instrumentation the paper's
//! experiments need.
//!
//! [`Trainer::run`] owns the loop — shuffle schedule, in-order batch
//! accumulation, epoch statistics, momentum update, resumable
//! [`Progress`] — and is parameterized by one seam, [`BatchFold`]: how a
//! batch's per-sample results reach the accumulator in sample order.
//! Three folds exist: [`LocalFold`] (this thread), the supervised worker
//! pool below, and `spg-cluster`'s ring fold, whose ranks call this loop
//! rather than copy it.
//!
//! The trainer's `sample_threads` knob *is* the GEMM-in-Parallel schedule
//! at the training-loop level: each worker thread pushes whole samples
//! through the shared network with single-threaded kernels, instead of
//! every sample's GEMM being partitioned across all cores (Sec. 4.1).
//!
//! Workers are *persistent*: one pool is spawned for the whole training
//! run, each worker owning one [`Workspace`] it reuses for every sample it
//! ever processes. Sample `j` of a batch always goes to worker
//! `j % workers` and results are received in exact sample order, so the
//! f32 gradient accumulation is bit-identical for every worker count.
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
//! read cold. The pool folds when the batch is complete, on the cores its
//! parked workers left idle; the local fold folds each sample as it
//! finishes. Either way every parameter sums `0.0 + g_0 + g_1 + ...` in
//! sample order, which is the [`BatchFold`] contract.
//!
//! The pool is *supervised*: each worker runs every sample inside
//! [`std::panic::catch_unwind`], so a panicking kernel is a fault instead
//! of a poisoned lock, and each worker is its own supervisor — one
//! [`spg_sync::supervise`] call per slot. After a fault the worker
//! rebuilds its [`Workspace`] and retries the faulted sample *in place*:
//! its job and result channels outlive the incarnation, so nothing is
//! lost, nothing is replayed from the merge loop, and the merge stays a
//! plain in-order `recv` followed by one fold (hence bit-identical). Only once
//! [`TrainerConfig::restart_budget`] is spent does the worker report the
//! fault, which fails the run with a typed [`TrainError::WorkerFault`].

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::RwLock;
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
    /// How many times a crashed pool worker is respawned (with a fresh
    /// [`Workspace`]) before the run fails with
    /// [`TrainError::WorkerFault`]. Per worker slot, not global.
    pub restart_budget: usize,
    /// Base delay before the first respawn; doubles per consecutive
    /// restart of the same worker (capped at one second).
    pub restart_backoff: Duration,
    /// Deterministic fault to inject for supervision testing. Inert
    /// unless the `fault-injection` cargo feature is enabled; forces the
    /// pooled path even when `sample_threads == 1`.
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
    /// Panics if a pool worker crashes past its restart budget; use
    /// [`try_train`](Self::try_train) for a typed error instead.
    pub fn train(&self, net: &mut Network, data: &mut Dataset) -> Vec<EpochStats> {
        self.train_with(net, data, |_, _| {})
    }

    /// Fallible [`train`](Self::train): a pool worker crashing past the
    /// restart budget surfaces as [`TrainError::WorkerFault`] instead of
    /// a panic.
    ///
    /// # Errors
    ///
    /// [`TrainError::WorkerFault`] when a worker panicked and the
    /// supervisor's restart budget was already spent.
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
    /// Panics if a pool worker crashes past its restart budget; use
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
    /// [`TrainError::WorkerFault`] when a worker panicked and the
    /// supervisor's restart budget was already spent.
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
        let shared = Shared::new(net, data);
        // The supervision machinery (and with it fault injection) lives
        // in the pool; a configured fault plan forces it so that
        // `--inject-fault` is never a silent no-op at one thread.
        if self.config.sample_threads == 1 && self.config.fault_plan.is_none() {
            let mut fold = LocalFold::new(&spg_sync::read(&shared.net));
            let Ok(()) = self.run(&shared, &mut fold, &mut progress, after_epoch);
        } else {
            // lint: allow(thread-spawn) the pool's lifetime: workers live for the whole run
            std::thread::scope(|scope| {
                // Dropped when this closure returns — on success or on a
                // typed fault — which closes the job channels, so the
                // workers exit before the scope joins them: no deadlock.
                let mut fold = PoolFold::spawn(scope, &shared, &self.config);
                self.run(&shared, &mut fold, &mut progress, after_epoch)
            })?;
        }
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
        shared: &Shared<'_>,
        fold: &mut F,
        progress: &mut Progress,
        mut after_epoch: impl FnMut(&mut Network, &EpochStats),
    ) -> Result<(), F::Error> {
        let batch_size = self.config.batch_size;
        let mut acc = BatchAcc::for_network(&spg_sync::read(&shared.net));
        for epoch in 1..=self.config.epochs {
            let data_len = {
                let mut data = spg_sync::write(&shared.data);
                data.shuffle(self.config.shuffle_seed.wrapping_add(epoch as u64));
                data.len()
            };
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
                fold.fold(shared, epoch, batch, samples.clone(), &mut acc)?;
                progress.epoch_acc.absorb(&acc, samples.len());
                self.apply_batch(
                    &mut spg_sync::write(&shared.net),
                    &mut progress.velocity,
                    &acc,
                    samples.len(),
                );
                progress.next_batch = batch + 1;
            }
            let stats = progress.epoch_acc.finish(epoch, data_len, start.elapsed().as_secs_f64());
            after_epoch(&mut spg_sync::write(&shared.net), &stats);
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

/// The network and dataset of one training run, as the loop and its
/// [`BatchFold`] share them.
///
/// The loop takes the write side only between batches (reshuffle,
/// update, epoch callback); a fold — and any worker threads it owns —
/// the read side only while it folds one. Acquisition goes through the
/// poison-recovering `spg_sync` helpers: a worker panic is confined by
/// `catch_unwind` while only read guards are held, and read guards never
/// leave the data mid-update.
#[derive(Debug)]
pub struct Shared<'a> {
    /// The network being trained.
    pub net: RwLock<&'a mut Network>,
    /// The dataset, reshuffled in place every epoch.
    pub data: RwLock<&'a mut Dataset>,
}

impl<'a> Shared<'a> {
    /// Wraps a run's network and dataset.
    pub fn new(net: &'a mut Network, data: &'a mut Dataset) -> Self {
        Shared { net: RwLock::new(net), data: RwLock::new(data) }
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
/// thread, a worker pool, other ranks of a ring) — and a reducer that
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

    /// Folds batch `batch` of (1-based) `epoch` — dataset positions
    /// `samples` of the current shuffle — into `acc`.
    ///
    /// # Errors
    ///
    /// Implementation-defined; the loop then commits nothing for this
    /// batch and returns the error.
    fn fold(
        &mut self,
        shared: &Shared<'_>,
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

/// The local fold: every sample runs on the calling thread in one
/// long-lived [`Workspace`] and is absorbed as soon as it finishes, one
/// [`fold_records`] call per sample on this one core — the reference
/// implementation of the [`BatchFold`] contract.
#[derive(Debug)]
pub struct LocalFold {
    ws: Workspace,
}

impl LocalFold {
    /// A fold with a workspace sized for `net`.
    pub fn new(net: &Network) -> Self {
        LocalFold { ws: Workspace::for_network(net) }
    }
}

impl BatchFold for LocalFold {
    type Error = std::convert::Infallible;

    fn fold(
        &mut self,
        shared: &Shared<'_>,
        _epoch: usize,
        _batch: usize,
        samples: Range<usize>,
        acc: &mut BatchAcc,
    ) -> Result<(), Self::Error> {
        let net = spg_sync::read(&shared.net);
        let data = spg_sync::read(&shared.data);
        for i in samples {
            acc.absorb_sample(&net, &data, i, &mut self.ws);
        }
        Ok(())
    }
}

/// One job: a dataset position and the recycled buffer its result
/// travels back in.
type Job = (usize, SampleResult);

/// What a worker sends back for a job: the filled buffer, or — once its
/// restart budget is spent — the panic message of the fault that spent it.
type JobResult = Result<SampleResult, String>;

/// The pool fold: `sample_threads` persistent workers, spawned once, each
/// owning one [`Workspace`]. Jobs carry recycled [`SampleResult`] buffers
/// out and back, so no steady-state step allocates a gradient-sized
/// buffer. Supervision lives in the workers ([`pool_worker`]); the fold
/// deals jobs round-robin, receives results in sample order, and once the
/// batch is complete — every worker parked on its job channel — folds the
/// records by parameter range on as many cores as there are workers.
struct PoolFold {
    job_txs: Vec<mpsc::Sender<Job>>,
    result_rxs: Vec<mpsc::Receiver<JobResult>>,
    free: Vec<SampleResult>,
    /// The current batch's results, in sample order, until it is complete.
    held: Vec<SampleResult>,
}

impl PoolFold {
    fn spawn<'scope, 'env>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        shared: &'env Shared<'_>,
        config: &'env TrainerConfig,
    ) -> Self {
        // Batch-starvation clamp: jobs round-robin as `j % workers`, so a
        // pool wider than the batch leaves slots that never receive a
        // sample — they would be spawned, idle for the whole run, and
        // still charge scope/teardown cost. Spawn only as many workers as
        // the batch can feed and count the declined slots.
        let workers = config.sample_threads.min(config.batch_size).max(1);
        let starved = config.sample_threads - workers;
        if starved > 0 {
            spg_telemetry::record_counter("train.starved_workers", starved as u64);
        }
        let injector = FaultInjector::new(config.fault_plan);
        let (job_txs, result_rxs) = (0..workers)
            .map(|w| {
                let (job_tx, job_rx) = mpsc::channel();
                let (result_tx, result_rx) = mpsc::channel();
                let injector = injector.clone();
                scope.spawn(move || pool_worker(shared, config, w, &injector, &job_rx, &result_tx));
                (job_tx, result_rx)
            })
            .unzip();
        // One result slot per sample that can be in flight.
        let free = {
            let net = spg_sync::read(&shared.net);
            (0..config.batch_size).map(|_| SampleResult::for_network(&net)).collect()
        };
        PoolFold { job_txs, result_rxs, free, held: Vec::with_capacity(config.batch_size) }
    }
}

/// Slot `w`'s thread for the whole run: a self-supervising worker. Each
/// incarnation owns a fresh [`Workspace`] (a panic may have left the old
/// one mid-update) and drains `jobs`, running every sample inside a panic
/// boundary. A fault ends the incarnation with the interrupted job kept
/// for the next one to retry first, so results still leave in job order.
/// The one-shot injector cannot re-trip on the retry; a real
/// deterministic panic re-fires and burns the budget down to the typed
/// report. Blocked on `recv` the worker holds no locks; it retires when
/// the pool drops its job sender.
fn pool_worker(
    shared: &Shared<'_>,
    config: &TrainerConfig,
    w: usize,
    injector: &FaultInjector,
    jobs: &mpsc::Receiver<Job>,
    results: &mpsc::Sender<JobResult>,
) {
    let restarts = Restarts { budget: config.restart_budget, backoff: config.restart_backoff };
    let mut jobs_started: u64 = 0;
    let mut retry: Option<Job> = None;
    let spent = spg_sync::supervise(
        restarts,
        || {
            let mut ws = Workspace::for_network(&spg_sync::read(&shared.net));
            while let Some((i, mut slot)) = retry.take().or_else(|| jobs.recv().ok()) {
                jobs_started += 1;
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    injector.check(w, jobs_started);
                    let net = spg_sync::read(&shared.net);
                    let data = spg_sync::read(&shared.data);
                    let mut result = [(0.0, false)];
                    let records = std::slice::from_mut(&mut slot.param_grads);
                    process_block(&net, &data, i..i + 1, &mut ws, records, &mut result);
                    (slot.loss, slot.correct) = result[0];
                    slot.grad_sparsity.copy_from_slice(&ws.grad_sparsity);
                }));
                match outcome {
                    Ok(()) => {
                        if results.send(Ok(slot)).is_err() {
                            break;
                        }
                    }
                    Err(payload) => {
                        spg_telemetry::record_counter("train.faulted_samples", 1);
                        retry = Some((i, slot));
                        return Err(spg_sync::panic_message(payload.as_ref()));
                    }
                }
            }
            Ok(())
        },
        |_, _| spg_telemetry::record_counter("train.worker_restarts", 1),
    );
    if let Err(message) = spent {
        let _ = results.send(Err(message));
    }
}

impl BatchFold for PoolFold {
    type Error = TrainError;

    fn fold(
        &mut self,
        shared: &Shared<'_>,
        epoch: usize,
        batch: usize,
        samples: Range<usize>,
        acc: &mut BatchAcc,
    ) -> Result<(), TrainError> {
        let workers = self.job_txs.len();
        // Sample j -> worker j % workers, round-robin. A send only fails
        // to a worker that already reported its final fault, which the
        // merge below returns.
        for (j, i) in samples.clone().enumerate() {
            let slot = self.free.pop().expect("one result slot per in-flight sample");
            let _ = self.job_txs[j % workers].send((i, slot));
        }
        // Receive in sample order: worker j % workers returns its results
        // FIFO, so `held` — and with it every f32 accumulation — is in the
        // `BatchFold` contract's order regardless of worker count, fault
        // or no fault.
        for j in 0..samples.len() {
            let w = j % workers;
            match self.result_rxs[w].recv() {
                Ok(Ok(r)) => {
                    acc.add_scalars(r.loss, r.correct, &r.grad_sparsity);
                    self.held.push(r);
                }
                // Worker w spent its restart budget on sample j, or died
                // without reporting.
                fault => {
                    self.free.append(&mut self.held);
                    let message = match fault {
                        Ok(Err(message)) => message,
                        _ => "training worker disconnected".to_string(),
                    };
                    return Err(TrainError::WorkerFault { worker: w, epoch, batch, message });
                }
            }
        }
        // Every worker is parked on `recv` now: their cores are the fold's.
        acc.add_records(&spg_sync::read(&shared.net), &self.held, workers);
        self.free.append(&mut self.held);
        Ok(())
    }
}

/// One sample's results, shuttled main -> worker -> main and recycled; the
/// worker's walk writes the gradient records straight into the slot, so
/// the worker can start its next sample while the batch completes.
struct SampleResult {
    loss: f32,
    correct: bool,
    param_grads: Vec<Tensor>,
    grad_sparsity: Vec<f64>,
}

impl SampleResult {
    fn for_network(net: &Network) -> Self {
        SampleResult {
            loss: 0.0,
            correct: false,
            param_grads: record_buffers(net),
            grad_sparsity: vec![0.0; net.layers().len()],
        }
    }
}

impl AsRef<[Tensor]> for SampleResult {
    fn as_ref(&self) -> &[Tensor] {
        &self.param_grads
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
        // In-order merging makes the accumulation order — and therefore
        // every f32 rounding — independent of the worker count: epoch
        // losses must match to the bit, not merely to a tolerance.
        let run = |threads: usize| -> Vec<u64> {
            let mut net = make_net(42);
            let mut data = make_data();
            let cfg = TrainerConfig {
                epochs: 3,
                momentum: 0.9,
                sample_threads: threads,
                ..Default::default()
            };
            Trainer::new(cfg)
                .train(&mut net, &mut data)
                .iter()
                .map(|s| s.mean_loss.to_bits())
                .collect()
        };
        assert_eq!(run(1), run(4));
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
        // The callback takes &mut Network under the pool's write lock; a
        // re-plan mid-training must not wedge or corrupt the run.
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

    /// Regression: a pool configured wider than the batch (batch_size=1,
    /// sample_threads=8) used to spawn all 8 workers, 7 of which could
    /// never receive a job through the `j % workers` round-robin. The
    /// clamp must keep training correct (bit-identical to one thread) and
    /// count the declined slots in the starvation telemetry.
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
        // The 8-thread run clamps to 1 worker per epoch-spanning pool:
        // 7 declined slots recorded (the 1-thread run records none).
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
            // The same batch a sample at a time, as the local fold does.
            fold_ranges(&fc, &records[..1], ranges, 1, true, &mut acc);
            fold_ranges(&fc, &records[1..], ranges, 1, false, &mut acc);
            assert_eq!(
                acc.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want,
                "{ranges} ranges"
            );
        }
    }

    /// A fault ends the batch early; the results received before it go
    /// back to the free list instead of leaving with the error.
    #[test]
    fn a_faulted_batch_returns_the_slots_it_had_received() {
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

        let mut data = make_data();
        let mut rng = SmallRng::seed_from_u64(32);
        // Sample 1 is worker 1's first job: sample 0 is received before it.
        let poison = Poison(data.image(1).as_slice().to_vec());
        let mut net =
            Network::new(vec![Box::new(poison), Box::new(FcLayer::new(64, 3, &mut rng))]).unwrap();
        let config = TrainerConfig {
            batch_size: 4,
            sample_threads: 2,
            restart_budget: 0,
            ..Default::default()
        };
        let mut acc = BatchAcc::for_network(&net);
        let shared = Shared::new(&mut net, &mut data);
        std::thread::scope(|scope| {
            let mut fold = PoolFold::spawn(scope, &shared, &config);
            let fault = fold.fold(&shared, 1, 0, 0..4, &mut acc);
            assert!(matches!(fault, Err(TrainError::WorkerFault { worker: 1, .. })), "{fault:?}");
            assert_eq!((fold.held.len(), fold.free.len()), (0, 1));
        });
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
