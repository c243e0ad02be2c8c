//! Synchronous data-parallel SGD across ranks: every rank processes its
//! contiguous block of each global batch, the gradients all-reduce over
//! the ring, and **every rank applies the identical update** — so weights
//! never travel after startup and losses are bit-identical to the
//! single-process `spg_convnet::Trainer` on the same seed.
//!
//! A rank *calls* the trainer's loop ([`Trainer::run`]): shuffle
//! schedule, epoch statistics, momentum update and resume logic are the
//! trainer's own code, not a copy. What this module adds is the ring
//! implementation of the loop's one seam, `spg_convnet::sgd::BatchFold`
//! — a rank's block of samples folded through [`ring_allreduce_into`] in
//! global sample order, which is that seam's contract — plus the
//! rank-specific fault handling below. The bit-identity tests pin 1, 2,
//! 3, and 4 ranks against the pool.
//!
//! # Fault recovery
//!
//! The loop advances a rank's progress only at batch commit (after the
//! update applies) and leaves the network at the last committed batch
//! whether it returns `Ok` or `Err`, so [`run_rank`] snapshots the
//! weights into the [`RankState`] once, on its way out — that snapshot
//! *is* the committed state, without serializing every parameter after
//! every batch. A rank dropping mid-all-reduce therefore leaves every
//! surviving rank with a consistent committed state and a typed
//! [`ClusterError::RingFault`]. The in-process driver
//! [`train_in_proc`] then replays: it takes the state with the most
//! committed batches (all survivors agree — updates are synchronous),
//! respawns every rank from it, and resumes at the faulted batch.
//! Because the resumed fold is the same arithmetic from the same state,
//! the recovered run's losses are bit-identical to a fault-free run —
//! the distributed analogue of PR 4's in-order sample replay.

use std::io::{BufReader, BufWriter, Read, Write};
use std::ops::Range;
use std::time::Duration;

use spg_convnet::data::Dataset;
use spg_convnet::sgd::{self, BatchFold, Progress, Shared};
use spg_convnet::workspace::Workspace;
use spg_convnet::{io, EpochStats, Network, Trainer, TrainerConfig};
use spg_sync::Restarts;

use crate::allreduce::{self, ring_allreduce_into, AllReduce, RingLink, SampleGrad};
use crate::ClusterError;

/// A deterministic mid-all-reduce fault drill: the named rank drops its
/// ring links (as a killed process would) right before the all-reduce
/// of the named batch. Always armed when configured — the drill is
/// plain configuration, no cargo feature required, mirroring the
/// `--inject-fault` CLI style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainFault {
    /// Rank that drops.
    pub rank: usize,
    /// Epoch (1-based) of the drop.
    pub epoch: usize,
    /// Batch index within the epoch.
    pub batch: usize,
}

impl TrainFault {
    /// Parses `"RANK:EPOCH:BATCH"` (e.g. `"1:1:2"`).
    pub fn parse(s: &str) -> Option<TrainFault> {
        let mut it = s.split(':');
        let rank = it.next()?.parse().ok()?;
        let epoch = it.next()?.parse().ok()?;
        let batch = it.next()?.parse().ok()?;
        if it.next().is_some() {
            return None;
        }
        Some(TrainFault { rank, epoch, batch })
    }
}

/// The communication fabric one rank trains over.
pub enum Comm {
    /// Single rank: no communication at all.
    Solo,
    /// Ring neighbors (UDS or TCP stream halves).
    Ring {
        /// Stream from the previous rank.
        rx_prev: Box<dyn Read + Send>,
        /// Stream to the next rank.
        tx_next: Box<dyn Write + Send>,
    },
}

/// Floats per all-reduce wire chunk unless a caller sets another value.
/// Every rank of a ring must agree on it (a mismatch is a typed
/// `Protocol` error), so each `Default` and the CLI's rank processes all
/// name this one constant.
pub const DEFAULT_CHUNK_FLOATS: usize = 1024;

/// Per-rank training options.
#[derive(Debug, Clone)]
pub struct RankOptions {
    /// This rank.
    pub rank: usize,
    /// Total rank count.
    pub world: usize,
    /// Floats per wire chunk.
    pub chunk_floats: usize,
    /// Optional deterministic fault drill.
    pub fault: Option<TrainFault>,
}

/// Everything a rank has durably committed: a weight snapshot plus the
/// trainer's own [`Progress`] (optimizer state, partial epoch statistics,
/// resume position). The progress advances only once a batch's update
/// has been applied; the snapshot is taken when [`run_rank`] returns, at
/// which point the network holds exactly that last committed batch.
#[derive(Debug, Clone)]
pub struct RankState {
    /// Weight snapshot (`spg_convnet::io` format) at the last commit.
    pub weights: Vec<u8>,
    /// The training loop's progress at the last commit.
    pub progress: Progress,
}

impl RankState {
    /// Fresh state at the start of training for `net`.
    pub fn fresh(net: &Network) -> Self {
        let mut weights = Vec::new();
        io::save_weights(net, &mut weights).expect("in-memory weight snapshot");
        RankState { weights, progress: Progress::fresh(net) }
    }
}

/// This rank's contiguous block `[start, end)` of a `batch_len`-sample
/// batch: blocks partition the batch in rank order, sized as evenly as
/// possible (first `batch_len % world` ranks get one extra).
pub fn block_bounds(batch_len: usize, world: usize, rank: usize) -> (usize, usize) {
    let base = batch_len / world;
    let extra = batch_len % world;
    let start = rank * base + rank.min(extra);
    let len = base + usize::from(rank < extra);
    (start, start + len)
}

/// Capacity of the buffers a rank's links are wrapped in: sixteen 4 KB
/// frames per syscall. A constant, not a knob — it only has to be
/// several frames large.
const LINK_BUF: usize = 64 * 1024;

/// A rank's `(rx_prev, tx_next)`, buffered once for the whole run.
type BufferedLinks<'r> = (BufReader<&'r mut dyn Read>, BufWriter<&'r mut dyn Write>);

/// The ring implementation of the trainer's [`BatchFold`] seam: this
/// rank runs its [`block_bounds`] block of the batch and the ordered
/// chain-in-ring all-reduce folds every rank's samples in global sample
/// order, which is exactly the seam's contract. Also carries the fault
/// drill, which hangs off the same per-batch point.
///
/// Every gradient-sized buffer lives here for the whole run — the
/// per-sample block, the reduced accumulator, the wire frame — so a
/// steady-state step allocates nothing that grows with the model.
struct RingFold<'r> {
    opts: &'r RankOptions,
    /// The ring links, buffered once for the run (`None`: one rank, no
    /// communication). The reader must live as long as the link: it may
    /// hold the next batch's first bytes (see [`allreduce`]).
    links: Option<BufferedLinks<'r>>,
    ws: Workspace,
    conv_layers: Vec<usize>,
    /// This rank's per-sample gradients; grows to the largest block seen.
    block: Vec<SampleGrad>,
    reduced: allreduce::BatchAcc,
    frame: Vec<u8>,
}

impl BatchFold for RingFold<'_> {
    type Error = ClusterError;

    fn fold(
        &mut self,
        shared: &Shared<'_>,
        epoch: usize,
        batch: usize,
        samples: Range<usize>,
        acc: &mut sgd::BatchAcc,
    ) -> Result<(), ClusterError> {
        let RankOptions { rank, world, chunk_floats, fault } = *self.opts;
        if fault == Some(TrainFault { rank, epoch, batch }) {
            // Dropping out here (links close when the caller drops Comm)
            // is what a killed worker looks like to its neighbors: their
            // reads fail mid-all-reduce.
            return Err(ClusterError::RingFault {
                rank,
                epoch,
                batch,
                message: "injected fault: rank dropped before all-reduce".to_string(),
            });
        }
        let net = spg_sync::read(&shared.net);
        let data = spg_sync::read(&shared.data);
        let Some((rx_prev, tx_next)) = &mut self.links else {
            // One rank owns the whole batch: the trainer's local fold.
            for i in samples {
                acc.absorb_sample(&net, &data, i, &mut self.ws);
            }
            return Ok(());
        };
        let (s0, s1) = block_bounds(samples.len(), world, rank);
        if self.block.len() < s1 - s0 {
            self.block.resize_with(s1 - s0, SampleGrad::default);
        }
        let block = &mut self.block[..s1 - s0];
        for (slot, i) in block.iter_mut().zip(samples.start + s0..) {
            (slot.loss, slot.correct) = sgd::process_sample(&net, &data, i, &mut self.ws);
            // The wire carries dense gradients: expand this sample's
            // records into its slot, `0.0 + g` per element, through the
            // trainer's own fold.
            slot.grads.resize(self.reduced.grads.len(), 0.0);
            let mut rest = slot.grads.as_mut_slice();
            let dense = net.layers().iter().map(|layer| {
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(layer.param_count());
                rest = tail;
                head
            });
            sgd::fold_records(&net, std::slice::from_ref(&self.ws.param_grads), 1, true, dense);
            slot.sparsity.clear();
            slot.sparsity.extend(self.conv_layers.iter().map(|&li| self.ws.grad_sparsity[li]));
        }
        let mut link = RingLink { rank, world, rx_prev, tx_next };
        ring_allreduce_into(
            &mut link,
            u32::try_from(epoch).expect("epoch fits u32"),
            u32::try_from(batch).expect("batch index fits u32"),
            block,
            &mut self.reduced,
            chunk_floats,
            &mut self.frame,
        )?;
        acc.loss_sum = self.reduced.loss_sum;
        acc.correct = usize::try_from(self.reduced.correct).expect("correct count fits usize");
        acc.sparsity_sums.clone_from(&self.reduced.sparsity_sums);
        let mut rest = self.reduced.grads.as_slice();
        for g in &mut acc.grads {
            let (layer, tail) = rest.split_at(g.len());
            g.as_mut_slice().copy_from_slice(layer);
            rest = tail;
        }
        Ok(())
    }
}

/// Runs one rank of the synchronous data-parallel training loop: the
/// trainer's own [`Trainer::run`] over the ring fold.
///
/// `state` carries committed progress in and out: on success it holds
/// the final state; on a typed error it holds the last *committed*
/// state, from which the driver replays deterministically. `data` must
/// arrive in its original order (the loop replays completed epochs'
/// shuffles). The returned stats (on success) equal
/// `state.progress.stats`.
///
/// # Errors
///
/// [`ClusterError::RingFault`] when a peer drops mid-all-reduce (or
/// this rank's own fault drill fires), [`ClusterError::Protocol`] on
/// wire sequence violations, [`ClusterError::Config`] on a
/// topology/config mismatch.
pub fn run_rank(
    net: &mut Network,
    data: &mut Dataset,
    trainer: &TrainerConfig,
    opts: &RankOptions,
    comm: &mut Comm,
    state: &mut RankState,
) -> Result<Vec<EpochStats>, ClusterError> {
    if opts.world == 0 || opts.rank >= opts.world {
        return Err(ClusterError::Config {
            detail: format!("rank {} out of range for world {}", opts.rank, opts.world),
        });
    }
    if matches!(comm, Comm::Solo) && opts.world > 1 {
        return Err(ClusterError::Config {
            detail: format!("world {} needs ring links, got Comm::Solo", opts.world),
        });
    }

    io::load_weights(net, state.weights.as_slice())
        .map_err(|e| ClusterError::Config { detail: format!("restoring rank state: {e}") })?;
    let conv_layers = sgd::conv_layer_indices(net);
    let grad_len = net.layers().iter().map(|l| l.param_count()).sum();
    let mut fold = RingFold {
        opts,
        links: match comm {
            Comm::Solo => None,
            Comm::Ring { rx_prev, tx_next } => Some((
                BufReader::with_capacity(LINK_BUF, &mut **rx_prev),
                BufWriter::with_capacity(LINK_BUF, &mut **tx_next),
            )),
        },
        ws: Workspace::for_network(net),
        reduced: allreduce::BatchAcc::zeroed(grad_len, conv_layers.len()),
        conv_layers,
        block: Vec::new(),
        frame: Vec::new(),
    };
    let result = {
        let shared = Shared::new(net, data);
        Trainer::new(trainer.clone()).run(&shared, &mut fold, &mut state.progress, |_, _| {})
    };
    // `Trainer::run` leaves the network at the last committed batch on
    // `Ok` and `Err` alike, so this one snapshot is the committed state.
    state.weights.clear();
    io::save_weights(net, &mut state.weights).expect("in-memory weight snapshot");
    result?;
    Ok(state.progress.stats.clone())
}

/// Options for the in-process multi-rank driver.
#[derive(Debug, Clone)]
pub struct InProcTrainOptions {
    /// Rank count.
    pub world: usize,
    /// Compatibility residue, read by nothing: see [`AllReduce`].
    pub algo: AllReduce,
    /// Floats per wire chunk.
    pub chunk_floats: usize,
    /// How many whole-cluster replays a mid-all-reduce fault may burn
    /// before the typed error surfaces to the caller.
    pub restart_budget: usize,
    /// Base backoff before a replay (doubles per consecutive restart).
    pub restart_backoff: Duration,
    /// Optional deterministic fault drill (fires on the first attempt
    /// only, like a one-shot `FaultPlan`).
    pub fault: Option<TrainFault>,
}

impl Default for InProcTrainOptions {
    fn default() -> Self {
        InProcTrainOptions {
            world: 2,
            algo: AllReduce::Ring,
            chunk_floats: DEFAULT_CHUNK_FLOATS,
            restart_budget: 2,
            restart_backoff: Duration::from_millis(1),
            fault: None,
        }
    }
}

/// Builds the ring socketpairs for `world` in-process ranks: element
/// `r` is `(rx_prev, tx_next)` for rank `r`.
fn ring_fabric(world: usize) -> std::io::Result<Vec<Comm>> {
    use std::os::unix::net::UnixStream;
    let mut txs: Vec<Option<UnixStream>> = (0..world).map(|_| None).collect();
    let mut rxs: Vec<Option<UnixStream>> = (0..world).map(|_| None).collect();
    for r in 0..world {
        let (a, b) = UnixStream::pair()?;
        txs[r] = Some(a);
        rxs[(r + 1) % world] = Some(b);
    }
    Ok(txs
        .into_iter()
        .zip(rxs)
        .map(|(tx, rx)| Comm::Ring {
            rx_prev: Box::new(rx.expect("fabric complete")),
            tx_next: Box::new(tx.expect("fabric complete")),
        })
        .collect())
}

/// Trains `world` in-process ranks (threads over Unix socketpairs) with
/// synchronous data-parallel SGD, recovering deterministically from
/// mid-all-reduce faults.
///
/// `factory` must deterministically construct the *same* initial
/// network on every call (e.g. seeded construction); every rank also
/// receives its own clone of `data`. On success the returned stats are
/// bit-identical (mean loss, accuracy, sparsity) to
/// `Trainer::train` with the same `TrainerConfig` on one process.
///
/// # Errors
///
/// The typed fault of the first failing rank once the restart budget is
/// spent; [`ClusterError::Config`] for topology/factory errors.
pub fn train_in_proc(
    factory: &(dyn Fn() -> Result<Network, spg_error::Error> + Sync),
    data: &Dataset,
    trainer: &TrainerConfig,
    opts: &InProcTrainOptions,
) -> Result<Vec<EpochStats>, ClusterError> {
    if opts.world == 0 {
        return Err(ClusterError::Config { detail: "world size must be positive".to_string() });
    }
    let seed_net =
        factory().map_err(|e| ClusterError::Config { detail: format!("network factory: {e}") })?;
    let fresh = RankState::fresh(&seed_net);
    drop(seed_net);
    let mut states: Vec<RankState> = vec![fresh; opts.world];
    // One-shot drill: only the first attempt carries it.
    let mut fault = opts.fault;

    // One incarnation is one whole-ring attempt. Its `Err` is a rank
    // fault, which `supervise` answers with a replay under the budget;
    // what no replay can cure (fabric setup, ranks disagreeing) rides
    // out in the `Ok` side as the run's own final `Err`.
    let restarts = Restarts { budget: opts.restart_budget, backoff: opts.restart_backoff };
    spg_sync::supervise(
        restarts,
        || {
            let fault = fault.take();
            let fabrics: Vec<Comm> = if opts.world == 1 {
                vec![Comm::Solo]
            } else {
                match ring_fabric(opts.world) {
                    Ok(fabrics) => fabrics,
                    Err(e) => {
                        return Ok(Err(ClusterError::Config {
                            detail: format!("building fabric: {e}"),
                        }))
                    }
                }
            };

            // Rank 0 runs on the calling thread, ranks 1.. on their own.
            let outcomes: Vec<(RankState, Result<Vec<EpochStats>, ClusterError>)> =
                spg_sync::fork_join(fabrics.into_iter().enumerate().zip(&states).map(
                    |((rank, mut comm), state)| {
                        let mut state = state.clone();
                        let mut data = data.clone();
                        move || {
                            let opts = RankOptions {
                                rank,
                                world: opts.world,
                                chunk_floats: opts.chunk_floats,
                                fault,
                            };
                            let result = match factory() {
                                Ok(mut net) => run_rank(
                                    &mut net, &mut data, trainer, &opts, &mut comm, &mut state,
                                ),
                                Err(e) => Err(ClusterError::Config {
                                    detail: format!("network factory: {e}"),
                                }),
                            };
                            (state, result)
                        }
                    },
                ));

            if let Some(err) = outcomes.iter().find_map(|(_, result)| result.as_ref().err()) {
                let err = err.clone();
                spg_telemetry::record_counter("cluster.train.faults", 1);
                // Resume from the most-advanced committed state; with
                // synchronous updates every committed state at the same
                // position is identical, so "most advanced" is unique.
                let best = outcomes
                    .into_iter()
                    .map(|(state, _)| state)
                    .max_by_key(|s| (s.progress.next_epoch, s.progress.next_batch))
                    .expect("world >= 1");
                states = vec![best; opts.world];
                return Err(err);
            }
            // All ranks finished; they must agree bit-for-bit.
            let mut stats = outcomes.into_iter().map(|(_, result)| result.expect("checked ok"));
            let reference = stats.next().expect("world >= 1");
            let loss_bits = |s: &[EpochStats]| -> Vec<u64> {
                s.iter().map(|e| e.mean_loss.to_bits()).collect()
            };
            for (rank, got) in stats.enumerate() {
                if loss_bits(&got) != loss_bits(&reference) {
                    return Ok(Err(ClusterError::Protocol {
                        rank: rank + 1,
                        detail: "ranks disagree on epoch losses after all-reduce".to_string(),
                    }));
                }
            }
            Ok(Ok(reference))
        },
        |_, _| spg_telemetry::record_counter("cluster.train.restarts", 1),
    )?
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spg_convnet::layer::{ConvLayer, FcLayer, MaxPoolLayer, ReluLayer};
    use spg_convnet::ConvSpec;
    use spg_tensor::Shape3;

    fn make_net() -> Result<Network, spg_error::Error> {
        let mut rng = SmallRng::seed_from_u64(42);
        let spec = ConvSpec::new(1, 8, 8, 4, 3, 3, 1, 1).unwrap();
        let out = spec.output_shape();
        Network::new(vec![
            Box::new(ConvLayer::new(spec, &mut rng)),
            Box::new(ReluLayer::new(out.len())),
            Box::new(MaxPoolLayer::new(Shape3::new(out.c, out.h, out.w), 2).unwrap()),
            Box::new(FcLayer::new(4 * 3 * 3, 3, &mut rng)),
        ])
        .map_err(|e| spg_error::Error::new(spg_error::ErrorKind::InvalidNetwork, e.to_string()))
    }

    fn make_data() -> Dataset {
        Dataset::synthetic(Shape3::new(1, 8, 8), 3, 24, 0.15, 77)
    }

    fn trainer_cfg() -> TrainerConfig {
        TrainerConfig { epochs: 3, momentum: 0.9, batch_size: 8, ..TrainerConfig::default() }
    }

    fn pool_loss_bits() -> Vec<u64> {
        let mut net = make_net().unwrap();
        let mut data = make_data();
        Trainer::new(trainer_cfg())
            .train(&mut net, &mut data)
            .iter()
            .map(|s| s.mean_loss.to_bits())
            .collect()
    }

    #[test]
    fn block_bounds_partition_every_batch() {
        for len in 0..20 {
            for world in 1..6 {
                let mut next = 0;
                for rank in 0..world {
                    let (s, e) = block_bounds(len, world, rank);
                    assert_eq!(s, next, "len {len} world {world} rank {rank}");
                    assert!(e >= s);
                    next = e;
                }
                assert_eq!(next, len);
            }
        }
    }

    #[test]
    fn ring_cluster_is_bit_identical_to_the_pool() {
        let expect = pool_loss_bits();
        for world in [1usize, 2, 3, 4] {
            let opts = InProcTrainOptions { world, ..Default::default() };
            let stats = train_in_proc(&make_net, &make_data(), &trainer_cfg(), &opts).unwrap();
            let got: Vec<u64> = stats.iter().map(|s| s.mean_loss.to_bits()).collect();
            assert_eq!(got, expect, "world {world} diverged from the single-process pool");
        }
    }

    #[test]
    fn small_chunks_do_not_change_the_bits() {
        let expect = pool_loss_bits();
        let opts = InProcTrainOptions { world: 3, chunk_floats: 17, ..Default::default() };
        let stats = train_in_proc(&make_net, &make_data(), &trainer_cfg(), &opts).unwrap();
        let got: Vec<u64> = stats.iter().map(|s| s.mean_loss.to_bits()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn mid_allreduce_fault_recovers_bit_identically() {
        let expect = pool_loss_bits();
        let opts = InProcTrainOptions {
            world: 3,
            fault: Some(TrainFault { rank: 1, epoch: 2, batch: 1 }),
            ..Default::default()
        };
        let stats = train_in_proc(&make_net, &make_data(), &trainer_cfg(), &opts).unwrap();
        let got: Vec<u64> = stats.iter().map(|s| s.mean_loss.to_bits()).collect();
        assert_eq!(got, expect, "recovered run diverged from the fault-free pool run");
    }

    /// The trainer's own local fold, failing once at a chosen batch: the
    /// resume logic lives in `Trainer::run`, so it must hold without a
    /// ring in sight.
    struct StopAt {
        inner: sgd::LocalFold,
        at: Option<(usize, usize)>,
    }

    impl BatchFold for StopAt {
        type Error = (usize, usize);

        fn fold(
            &mut self,
            shared: &Shared<'_>,
            epoch: usize,
            batch: usize,
            samples: Range<usize>,
            acc: &mut sgd::BatchAcc,
        ) -> Result<(), Self::Error> {
            if self.at == Some((epoch, batch)) {
                return Err((epoch, batch));
            }
            let Ok(()) = self.inner.fold(shared, epoch, batch, samples, acc);
            Ok(())
        }
    }

    #[test]
    fn local_fold_resumes_from_its_progress_bit_identically() {
        let expect = pool_loss_bits();
        // 24 samples at batch 8: three batches per epoch. Stop before the
        // first, a middle and the last batch of an epoch.
        for stop in [(1usize, 0usize), (2, 1), (3, 2)] {
            let mut net = make_net().unwrap();
            let trainer = Trainer::new(trainer_cfg());
            let mut progress = Progress::fresh(&net);
            let mut fold = StopAt { inner: sgd::LocalFold::new(&net), at: Some(stop) };

            let mut data = make_data();
            let stopped =
                trainer.run(&Shared::new(&mut net, &mut data), &mut fold, &mut progress, |_, _| {});
            assert_eq!(stopped, Err(stop));
            assert_eq!((progress.next_epoch, progress.next_batch), stop);

            // Resume: same network (it holds the committed weights), the
            // dataset back in its original order, the same progress value.
            fold.at = None;
            let mut data = make_data();
            trainer
                .run(&Shared::new(&mut net, &mut data), &mut fold, &mut progress, |_, _| {})
                .unwrap();
            let got: Vec<u64> = progress.stats.iter().map(|s| s.mean_loss.to_bits()).collect();
            assert_eq!(got, expect, "run stopped at {stop:?} diverged after resume");
        }
    }

    #[test]
    fn exhausted_restart_budget_surfaces_the_typed_fault() {
        // A fault injected on every attempt: impossible here (the drill
        // is one-shot), so instead spend the budget at zero with a
        // first-attempt fault.
        let opts = InProcTrainOptions {
            world: 2,
            restart_budget: 0,
            fault: Some(TrainFault { rank: 0, epoch: 1, batch: 0 }),
            ..Default::default()
        };
        let err = train_in_proc(&make_net, &make_data(), &trainer_cfg(), &opts).unwrap_err();
        assert!(matches!(err, ClusterError::RingFault { .. }), "expected RingFault, got {err:?}");
    }

    #[test]
    fn fault_parse_round_trips() {
        assert_eq!(TrainFault::parse("1:2:3"), Some(TrainFault { rank: 1, epoch: 2, batch: 3 }));
        assert_eq!(TrainFault::parse("1:2"), None);
        assert_eq!(TrainFault::parse("a:2:3"), None);
        assert_eq!(TrainFault::parse("1:2:3:4"), None);
    }
}
