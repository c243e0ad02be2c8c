//! Synchronous data-parallel SGD across ranks: every rank processes its
//! contiguous block of each global batch, the gradients all-reduce over
//! the ring, and **every rank applies the identical update** — so weights
//! never travel after startup and losses are bit-identical to the
//! single-process `spg_convnet::Trainer` on the same seed.
//!
//! A rank *calls* the trainer's loop ([`Trainer::run`]): shuffle
//! schedule, epoch statistics, momentum update and resume logic are the
//! trainer's own code, not a copy, and so is the runner of its block of
//! samples ([`LocalFold::run`]), whose supervised slots restart a
//! faulted sample as the solo trainer's do. What this module adds is
//! the ring implementation of the loop's one seam,
//! `spg_convnet::sgd::BatchFold` — a rank's block of samples folded
//! through the ordered chain in global sample order, which is that
//! seam's contract — plus the rank-specific fault handling below. The
//! bit-identity tests pin 1, 2, 3, and 4 ranks against the
//! single-process trainer.
//!
//! # What crosses the ring
//!
//! Per batch, each layer crosses the chain in whichever form is fewer
//! floats (see [`allreduce`](crate::allreduce)): *summed*, as the
//! running sum of its dense gradient, or *gathered*, as the batch's
//! gradient records, which every rank's update pass then sums tile by
//! tile, as the trainer's own does. Conv layers are summed; a
//! fully-connected layer, whose record is its `(δ, x)` factors, is
//! gathered until the batch is about as large as its input. Either way
//! every element is `0.0 + g_0 + g_1 + …` in sample order, the trainer's
//! bits, and a gathered layer's sum is never stored.
//!
//! # Fault recovery
//!
//! A sample that panics is first the rank's own slot's to cure: within
//! the slot's restart budget it reruns and keeps the bits, and no other
//! rank notices. Past the budget, the rank fails as a dropped rank does.
//! The loop advances a rank's progress only at batch commit (after the
//! update applies) and leaves the network at the last committed batch
//! whether it returns `Ok` or `Err`. A rank dropping mid-all-reduce
//! therefore leaves every surviving rank with a consistent committed
//! state and a typed [`ClusterError::RingFault`]. The in-process driver
//! [`train_in_proc`] snapshots that state (weights and progress) only then,
//! once per faulted rank on its way out — a run without a fault
//! serializes no weights at all, and its first attempt trains the
//! factory's network from a fresh [`Progress`]. It then replays: it takes
//! the state with the most committed batches (all survivors agree —
//! updates are synchronous), respawns every rank from it, and resumes at
//! the faulted batch.
//! Because the resumed fold is the same arithmetic from the same state,
//! the recovered run's losses are bit-identical to a fault-free run —
//! the distributed analogue of PR 4's in-order sample replay.

use std::io::{BufReader, BufWriter, Read, Write};
use std::ops::Range;
use std::time::Duration;

use spg_convnet::data::Dataset;
use spg_convnet::layer::Layer;
use spg_convnet::sgd::{
    self, stats_bits, BatchAcc, BatchFold, BlockOutputs, Folded, LocalFold, Progress,
};
use spg_convnet::{io, EpochStats, Network, Trainer, TrainerConfig};
use spg_sync::Restarts;
use spg_tensor::Tensor;

use crate::allreduce::{ring_allreduce_into, AllReduce, RingLink, Span, Step};
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

/// Everything a faulted rank had durably committed: a weight snapshot
/// plus the trainer's own [`Progress`] (optimizer state, partial epoch
/// statistics, resume position). The progress advances only once a
/// batch's update has been applied; the snapshot is taken when
/// [`run_rank`] returns `Err`, at which point the network holds exactly
/// that last committed batch.
#[derive(Debug, Clone)]
struct RankState {
    /// Weight snapshot (`spg_convnet::io` format) at the last commit.
    weights: Vec<u8>,
    /// The training loop's progress at the last commit.
    progress: Progress,
}

/// Capacity of the buffers a rank's links are wrapped in: sixteen 4 KB
/// frames per syscall. A constant, not a knob — it only has to be
/// several frames large.
const LINK_BUF: usize = 64 * 1024;

/// A rank's `(rx_prev, tx_next)`, buffered once for the whole run.
type BufferedLinks<'r> = (BufReader<&'r mut dyn Read>, BufWriter<&'r mut dyn Write>);

/// The size rule: a layer crosses the chain *gathered*, as the batch's
/// gradient records, when those are fewer floats than its dense
/// gradient, and *summed* otherwise (see [`allreduce`](crate::allreduce)).
/// A conv layer's record is its dense gradient, so conv layers are
/// always summed; a fully-connected layer is gathered until the batch has
/// about as many samples as it has inputs. Every rank computes the rule
/// from the same two numbers, so the layout needs no agreement on the
/// wire.
fn gathered(layer: &dyn Layer, batch_len: usize) -> bool {
    batch_len * layer.grad_record_len() < layer.param_count()
}

/// The ring implementation of the trainer's [`BatchFold`] seam: this
/// rank runs its block of the batch ([`spg_sync::partition`]) on the
/// trainer's own block runner, a [`LocalFold`] built from the rank's
/// [`TrainerConfig`], and the ordered chain-in-ring all-reduce folds every
/// rank's samples in global sample order, which is exactly the seam's
/// contract. One path for every world size: a one-rank run's block is the
/// whole batch, and its chain is first and last rank at once, so it moves
/// no bytes. Also carries the fault drill, which hangs off the same
/// per-batch point.
///
/// Every buffer lives here or in the local fold for the whole run — the
/// record slots, the summed spans, the layout, the wire frame, the update
/// pass's tiles — so a steady-state step allocates nothing that grows
/// with the model. The batch's scalars go straight onto the loop's `acc`.
struct RingFold<'r> {
    opts: &'r RankOptions,
    /// The ring links, buffered once for the run. The reader must live as
    /// long as the link: it may hold the next batch's first bytes (see
    /// [`allreduce`](crate::allreduce)).
    links: BufferedLinks<'r>,
    /// The block runner. Its records are the batch's by position: it
    /// writes this rank's samples' records, and the records of gathered
    /// layers arrive there off the wire.
    local: LocalFold,
    /// The batch's layout: `(layer, span)` in wire order.
    layout: Vec<(usize, Span)>,
    /// Per layer, the summed span the chain sums into and the update pass
    /// reads, or an empty tensor where the batch gathers the layer and the
    /// pass sums its records.
    sums: Vec<Tensor>,
    /// Per layer, the summed span of a layer this batch gathers, kept for
    /// a later batch that sums it (a short batch can flip a layer).
    parked: Vec<Tensor>,
    frame: Vec<u8>,
}

/// One batch of [`RingFold`] as the chain sees it.
struct RankStep<'a, 'r> {
    net: &'a Network,
    layout: &'a [(usize, Span)],
    block: Range<usize>,
    /// The batch's records, and this rank's block's scalars.
    ran: BlockOutputs<'r>,
    sums: &'a mut [Tensor],
}

impl Step for RankStep<'_, '_> {
    fn block(&self) -> Range<usize> {
        self.block.clone()
    }

    fn spans(&self) -> usize {
        self.layout.len()
    }

    fn span(&mut self, k: usize) -> (Span, &mut [f32]) {
        let (l, span) = self.layout[k];
        let buf = match span {
            Span::Summed => &mut self.sums[l],
            Span::Record(s) => &mut self.ran.records[s][l],
        };
        (span, buf.as_mut_slice())
    }

    fn fold(&mut self, k: usize) {
        let l = self.layout[k].0;
        let block = &self.ran.records[self.block.clone()];
        sgd::add_records(self.net, l, block, self.sums[l].as_mut_slice());
    }

    fn fold_scalars(&self, acc: &mut BatchAcc) {
        acc.add_scalars(self.ran.scalars, self.ran.sparsity);
    }
}

impl BatchFold for RingFold<'_> {
    type Error = ClusterError;

    fn fold(
        &mut self,
        net: &Network,
        data: &Dataset,
        epoch: usize,
        batch: usize,
        samples: Range<usize>,
        acc: &mut BatchAcc,
    ) -> Result<Folded<'_>, ClusterError> {
        let RankOptions { rank, world, chunk_floats, fault } = *self.opts;
        if fault == Some(TrainFault { rank, epoch, batch }) {
            // Dropping out here (links close when the caller drops them)
            // is what a killed worker looks like to its neighbors: their
            // reads fail mid-all-reduce.
            return Err(ClusterError::RingFault {
                rank,
                epoch,
                batch,
                message: "injected fault: rank dropped before all-reduce".to_string(),
            });
        }
        let batch_len = samples.len();
        let block = spg_sync::partition(batch_len, world, rank);
        let ran = self
            .local
            .run(net, data, epoch, batch, samples, block.clone())
            .map_err(|e| ClusterError::RingFault { rank, epoch, batch, message: e.to_string() })?;
        self.layout.clear();
        for (l, layer) in net.layers().iter().enumerate().filter(|(_, l)| l.param_count() > 0) {
            // A summed layer's span is its entry in `sums`, where the
            // update pass reads the chain's sum; a gathered layer's entry
            // is empty, so the pass sums its records.
            let summed = !gathered(&**layer, batch_len);
            let entry = &mut self.sums[l];
            if summed == entry.is_empty() {
                std::mem::swap(entry, &mut self.parked[l]);
            }
            if !summed {
                self.layout.extend((0..batch_len).map(|s| (l, Span::Record(s))));
                continue;
            }
            if entry.is_empty() {
                *entry = Tensor::zeros(layer.param_count());
            }
            self.layout.push((l, Span::Summed));
        }
        let mut step = RankStep { net, layout: &self.layout, block, ran, sums: &mut self.sums };
        let (rx_prev, tx_next) = &mut self.links;
        let mut link = RingLink { rank, world, rx_prev, tx_next };
        ring_allreduce_into(
            &mut link,
            u32::try_from(epoch).expect("epoch fits u32"),
            u32::try_from(batch).expect("batch index fits u32"),
            &mut step,
            acc,
            chunk_floats,
            &mut self.frame,
        )?;
        // Every rank now holds the whole batch's records of the gathered
        // layers; the update pass sums them on this rank's slots' cores.
        let BlockOutputs { records, tiles, .. } = step.ran;
        Ok(Folded { records, sums: &self.sums, tiles })
    }
}

/// Runs one rank of the synchronous data-parallel training loop: the
/// trainer's own [`Trainer::run`] over the ring fold. A rank runs its
/// block of each batch on its [`TrainerConfig::sample_threads`]
/// supervised slots, under the config's restart budget, backoff and fault
/// plan as the solo trainer does, and its update pass on as many cores.
///
/// `rx_prev` and `tx_next` are the links from the previous rank and to
/// the next; a one-rank ring, its own first and last rank, reads and
/// writes nothing, so at world 1 pass [`std::io::empty`] and
/// [`std::io::sink`].
///
/// `net` and `progress` are the committed state the rank starts from
/// (`Progress::fresh` over a newly built network on a first attempt) and
/// carry it out: on success the final state; on a typed error the last
/// *committed* state, from which the driver replays deterministically.
/// `data` must arrive in its original order (the loop replays completed
/// epochs' shuffles). The returned stats (on success) equal
/// `progress.stats`.
///
/// # Errors
///
/// [`ClusterError::RingFault`] when a peer drops mid-all-reduce, this
/// rank's own fault drill fires or one of its slots faults past its
/// restart budget; [`ClusterError::Protocol`] on wire sequence
/// violations, [`ClusterError::Config`] on a topology/config mismatch.
pub fn run_rank(
    net: &mut Network,
    data: &mut Dataset,
    trainer: &TrainerConfig,
    opts: &RankOptions,
    rx_prev: &mut dyn Read,
    tx_next: &mut dyn Write,
    progress: &mut Progress,
) -> Result<Vec<EpochStats>, ClusterError> {
    if opts.world == 0 || opts.rank >= opts.world {
        return Err(ClusterError::Config {
            detail: format!("rank {} out of range for world {}", opts.rank, opts.world),
        });
    }
    let mut fold = RingFold {
        opts,
        links: (
            BufReader::with_capacity(LINK_BUF, rx_prev),
            BufWriter::with_capacity(LINK_BUF, tx_next),
        ),
        local: LocalFold::for_rank(net, trainer),
        layout: Vec::new(),
        sums: vec![Tensor::default(); net.layers().len()],
        parked: vec![Tensor::default(); net.layers().len()],
        frame: Vec::new(),
    };
    Trainer::new(trainer.clone()).run(net, data, &mut fold, progress, |_, _| {})?;
    Ok(progress.stats.clone())
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
    /// only, like a one-shot `FaultPlan`). One that names a batch the run
    /// never reaches is refused before training.
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

/// A rank's links, owned: the stream from the previous rank and the
/// stream to the next.
type Links = (Box<dyn Read + Send>, Box<dyn Write + Send>);

/// The links of `world` in-process ranks: element `r` is rank `r`'s. A
/// ring of one reads and writes nothing; a larger one runs over Unix
/// socketpairs, pair `r` carrying rank `r`'s sends to rank `r + 1`.
fn ring_fabric(world: usize) -> std::io::Result<Vec<Links>> {
    if world == 1 {
        return Ok(vec![(Box::new(std::io::empty()), Box::new(std::io::sink()))]);
    }
    let pairs: Vec<_> =
        (0..world).map(|_| std::os::unix::net::UnixStream::pair()).collect::<Result<_, _>>()?;
    let (txs, mut rxs): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
    rxs.rotate_right(1);
    Ok(txs.into_iter().zip(rxs).map(|(tx, rx)| -> Links { (Box::new(rx), Box::new(tx)) }).collect())
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
/// spent; [`ClusterError::Config`] for topology/factory errors and, before
/// any rank trains, for a drill that can never fire (a rank outside the
/// ring, an epoch outside `1..=trainer.epochs`, a batch past the epoch).
pub fn train_in_proc(
    factory: &(dyn Fn() -> Result<Network, spg_error::Error> + Sync),
    data: &Dataset,
    trainer: &TrainerConfig,
    opts: &InProcTrainOptions,
) -> Result<Vec<EpochStats>, ClusterError> {
    if opts.world == 0 {
        return Err(ClusterError::Config { detail: "world size must be positive".to_string() });
    }
    if let Some(TrainFault { rank, epoch, batch }) = opts.fault {
        let batches = data.len().div_ceil(trainer.batch_size.max(1));
        if rank >= opts.world || !(1..=trainer.epochs).contains(&epoch) || batch >= batches {
            return Err(ClusterError::Config {
                detail: format!(
                    "fault drill {rank}:{epoch}:{batch} can never fire in world {} over {} \
                     epoch(s) of {batches} batch(es)",
                    opts.world, trainer.epochs
                ),
            });
        }
    }
    // The committed state a replay restarts from; a first attempt trains
    // the factory's network from a fresh progress.
    let mut committed: Option<RankState> = None;
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
            let fabrics = match ring_fabric(opts.world) {
                Ok(fabrics) => fabrics,
                Err(e) => {
                    return Ok(Err(ClusterError::Config {
                        detail: format!("building fabric: {e}"),
                    }))
                }
            };

            // Rank 0 runs on the calling thread, ranks 1.. on their own.
            // Each rank builds its network (a replay's weights loaded
            // over it), copies its data and takes any snapshot on its own
            // thread, which also frees the network and data: no rank
            // allocates or frees in the heap of a thread that is running
            // another.
            let replay = committed.take();
            let outcomes: Vec<_> =
                spg_sync::fork_join(fabrics.into_iter().enumerate().map(|(rank, (rx, tx))| {
                    let replay = replay.as_ref();
                    move || {
                        let opts = RankOptions {
                            rank,
                            world: opts.world,
                            chunk_floats: opts.chunk_floats,
                            fault,
                        };
                        let (mut net, mut progress) = match restore(factory, replay) {
                            Ok(start) => start,
                            Err(err) => return (None, Err(err)),
                        };
                        let (mut rx, mut tx, mut data) = (rx, tx, data.clone());
                        let result = run_rank(
                            &mut net,
                            &mut data,
                            trainer,
                            &opts,
                            &mut rx,
                            &mut tx,
                            &mut progress,
                        );
                        // `Trainer::run` leaves the network at the last
                        // committed batch on `Err`, so this one snapshot
                        // is the committed state.
                        let snapshot = result.is_err().then(|| {
                            let mut weights = Vec::new();
                            io::save_weights(&net, &mut weights).expect("in-memory snapshot");
                            RankState { weights, progress }
                        });
                        (snapshot, result)
                    }
                }));

            if let Some(err) = outcomes.iter().find_map(|(_, result)| result.as_ref().err()) {
                let err = err.clone();
                spg_telemetry::record_counter("cluster.train.faults", 1);
                // A rank the factory failed for has no snapshot; with none
                // at all the replay starts over from the factory.
                let snapshots: Vec<_> =
                    outcomes.into_iter().filter_map(|(state, _)| state).collect();
                committed = (!snapshots.is_empty()).then(|| most_committed(snapshots));
                return Err(err);
            }
            // All ranks finished; they must agree bit-for-bit.
            let mut stats = outcomes.into_iter().map(|(_, result)| result.expect("checked ok"));
            let reference = stats.next().expect("world >= 1");
            for (rank, got) in stats.enumerate() {
                if stats_bits(&got) != stats_bits(&reference) {
                    return Ok(Err(ClusterError::Protocol {
                        rank: rank + 1,
                        detail: "ranks disagree on epoch statistics after all-reduce".to_string(),
                    }));
                }
            }
            Ok(Ok(reference))
        },
        |_, _| spg_telemetry::record_counter("cluster.train.restarts", 1),
    )?
}

/// A rank's starting state: the factory's network from a fresh progress,
/// or with a replay's committed weights loaded over it and its progress.
fn restore(
    factory: &(dyn Fn() -> Result<Network, spg_error::Error> + Sync),
    replay: Option<&RankState>,
) -> Result<(Network, Progress), ClusterError> {
    let mut net =
        factory().map_err(|e| ClusterError::Config { detail: format!("network factory: {e}") })?;
    let progress = match replay {
        None => Progress::fresh(&net),
        Some(state) => {
            io::load_weights(&mut net, state.weights.as_slice()).map_err(|e| {
                ClusterError::Config { detail: format!("restoring rank state: {e}") }
            })?;
            state.progress.clone()
        }
    };
    Ok((net, progress))
}

/// The state a ring replays from after a rank fault: the most-advanced
/// committed one, whatever order the ranks' states arrive in. With
/// synchronous updates every committed state at the same position is
/// identical, so "most advanced" is unique.
fn most_committed(states: impl IntoIterator<Item = RankState>) -> RankState {
    states
        .into_iter()
        .max_by_key(|s| (s.progress.next_epoch, s.progress.next_batch))
        .expect("world >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spg_convnet::layer::{ConvLayer, FcLayer, MaxPoolLayer, ReluLayer};
    use spg_convnet::ConvSpec;
    use spg_core::config::NetworkDescription;
    use spg_sync::FaultPlan;
    use spg_tensor::Shape3;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use crate::wire::{encode_chunk_into, encode_frame, ChunkHead, Message};

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

    /// The single-process pool's epoch statistics as [`stats_bits`].
    fn pool_bits() -> Vec<u64> {
        stats_bits(&Trainer::new(trainer_cfg()).train(&mut make_net().unwrap(), &mut make_data()))
    }

    #[test]
    fn ring_cluster_is_bit_identical_to_the_pool() {
        let expect = pool_bits();
        for world in [1usize, 2, 3, 4] {
            let opts = InProcTrainOptions { world, ..Default::default() };
            let stats = train_in_proc(&make_net, &make_data(), &trainer_cfg(), &opts).unwrap();
            assert_eq!(stats_bits(&stats), expect, "world {world} diverged from the pool");
        }
    }

    #[test]
    fn small_chunks_do_not_change_the_bits() {
        let expect = pool_bits();
        let opts = InProcTrainOptions { world: 3, chunk_floats: 17, ..Default::default() };
        let stats = train_in_proc(&make_net, &make_data(), &trainer_cfg(), &opts).unwrap();
        assert_eq!(stats_bits(&stats), expect);
    }

    #[test]
    fn mid_allreduce_fault_recovers_bit_identically() {
        let expect = pool_bits();
        let opts = InProcTrainOptions {
            world: 3,
            fault: Some(TrainFault { rank: 1, epoch: 2, batch: 1 }),
            ..Default::default()
        };
        let stats = train_in_proc(&make_net, &make_data(), &trainer_cfg(), &opts).unwrap();
        assert_eq!(stats_bits(&stats), expect, "recovered run diverged from the fault-free pool");
    }

    /// [`make_net`] with a hidden layer: at batch 8, FC 36→32 crosses the
    /// chain gathered (8 × 68 record floats < 1 184 parameters) and FC
    /// 32→3 summed (8 × 35 ≥ 99); on a batch of two the latter flips to
    /// gathered as well (2 × 35 < 99).
    fn make_gathered_net() -> Result<Network, spg_error::Error> {
        let mut rng = SmallRng::seed_from_u64(42);
        let spec = ConvSpec::new(1, 8, 8, 4, 3, 3, 1, 1).unwrap();
        let out = spec.output_shape();
        Network::new(vec![
            Box::new(ConvLayer::new(spec, &mut rng)),
            Box::new(ReluLayer::new(out.len())),
            Box::new(MaxPoolLayer::new(Shape3::new(out.c, out.h, out.w), 2).unwrap()),
            Box::new(FcLayer::new(4 * 3 * 3, 32, &mut rng)),
            Box::new(ReluLayer::new(32)),
            Box::new(FcLayer::new(32, 3, &mut rng)),
        ])
        .map_err(|e| spg_error::Error::new(spg_error::ErrorKind::InvalidNetwork, e.to_string()))
    }

    /// The [`stats_bits`] of a ring run on [`make_gathered_net`] over
    /// `samples` samples, and of the solo trainer on the same.
    fn gathered_bits(samples: usize, opts: &InProcTrainOptions) -> (Vec<u64>, Vec<u64>) {
        let data = || Dataset::synthetic(Shape3::new(1, 8, 8), 3, samples, 0.15, 77);
        let ring = train_in_proc(&make_gathered_net, &data(), &trainer_cfg(), opts).unwrap();
        let solo =
            Trainer::new(trainer_cfg()).train(&mut make_gathered_net().unwrap(), &mut data());
        (stats_bits(&ring), stats_bits(&solo))
    }

    #[test]
    fn gathered_layers_are_bit_identical_to_the_pool() {
        let net = make_gathered_net().unwrap();
        assert!(gathered(&*net.layers()[3], 8) && !gathered(&*net.layers()[5], 8));
        for world in [1usize, 2, 3, 4] {
            let opts = InProcTrainOptions { world, ..Default::default() };
            let (ring, solo) = gathered_bits(24, &opts);
            assert_eq!(ring, solo, "world {world} diverged from the single-process pool");
        }
        // Chunks of 17 floats end inside the 68-float records, and world
        // 3 deals the batch of 8 in blocks of 3/3/2.
        assert_eq!([0, 1, 2].map(|r| spg_sync::partition(8, 3, r)), [0..3, 3..6, 6..8]);
        let opts = InProcTrainOptions { world: 3, chunk_floats: 17, ..Default::default() };
        let (ring, solo) = gathered_bits(24, &opts);
        assert_eq!(ring, solo, "chunk_floats 17 changed the bits");
    }

    #[test]
    fn gathered_layers_recover_a_mid_allreduce_fault_bit_identically() {
        let opts = InProcTrainOptions {
            world: 3,
            fault: Some(TrainFault { rank: 1, epoch: 2, batch: 1 }),
            ..Default::default()
        };
        let (ring, solo) = gathered_bits(24, &opts);
        assert_eq!(ring, solo, "recovered run diverged from the fault-free pool run");
    }

    /// 26 samples at batch 8 end each epoch on a batch of two: fewer
    /// samples than ranks, so the last ranks' blocks are empty, and FC
    /// 32→3 crosses that batch gathered while it crossed the others
    /// summed.
    #[test]
    fn a_short_batch_with_empty_blocks_and_a_flipped_layer_keeps_the_bits() {
        let fc = make_gathered_net().unwrap();
        assert!(!gathered(&*fc.layers()[5], 8) && gathered(&*fc.layers()[5], 2));
        for world in [3usize, 4] {
            assert_eq!(spg_sync::partition(2, world, world - 1), 2..2);
            for chunk_floats in [17, DEFAULT_CHUNK_FLOATS] {
                let opts = InProcTrainOptions { world, chunk_floats, ..Default::default() };
                let (ring, solo) = gathered_bits(26, &opts);
                assert_eq!(ring, solo, "world {world} chunk {chunk_floats}");
            }
        }
    }

    /// The lengths of the spans `rank` sends in one batch, reduce leg
    /// then broadcast leg, as the layout predicts them: a layer of G
    /// parameters costs G floats per leg summed, and gathered its records
    /// of R floats — up to this rank's block's end on the reduce leg, the
    /// whole batch on the broadcast leg.
    fn sent_spans(net: &Network, batch_len: usize, world: usize, rank: usize) -> Vec<usize> {
        let end = spg_sync::partition(batch_len, world, rank).end;
        let reduce = rank != world - 1;
        let broadcast = (rank + 1) % world != world - 1;
        let mut spans = Vec::new();
        for (leg_sends, samples) in [(reduce, end), (broadcast, batch_len)] {
            for layer in net.layers().iter().filter(|l| leg_sends && l.param_count() > 0) {
                if gathered(&**layer, batch_len) {
                    spans.extend(std::iter::repeat_n(layer.grad_record_len(), samples));
                } else {
                    spans.push(layer.param_count());
                }
            }
        }
        spans
    }

    /// The paper's full-geometry MNIST and CIFAR-10 networks (Table 2).
    fn full_net(layers: &str) -> Network {
        NetworkDescription::parse(layers).unwrap().build(1).unwrap()
    }

    const MNIST: &str = "input { channels: 1 height: 28 width: 28 }
        conv { features: 20 kernel: 5 } relu { } pool { window: 2 }
        fc { outputs: 500 } fc { outputs: 10 }";

    const CIFAR10: &str = "input { channels: 3 height: 36 width: 36 }
        conv { features: 64 kernel: 5 } relu { } pool { window: 4 }
        conv { features: 64 kernel: 5 } relu { } fc { outputs: 10 }";

    #[test]
    fn the_size_rule_gathers_only_layers_whose_records_are_smaller() {
        let forms = |net: &Network, batch_len| -> Vec<(bool, bool)> {
            let params = net.layers().iter().filter(|l| l.param_count() > 0);
            params.map(|l| (l.conv_spec().is_some(), gathered(&**l, batch_len))).collect()
        };
        // MNIST at batch 8: the conv layer summed, both FC layers gathered.
        let mnist = full_net(MNIST);
        assert_eq!(forms(&mnist, 8), [(true, false), (false, true), (false, true)]);
        // World 2: rank 0 sends the conv sum and its 4 samples' records,
        // rank 1 the conv sum and all 8 samples' records.
        let fc = [3380, 510];
        let expect = [500 + 4 * (fc[0] + fc[1]), 500 + 8 * (fc[0] + fc[1])];
        for (rank, want) in expect.into_iter().enumerate() {
            assert_eq!(sent_spans(&mnist, 8, 2, rank).iter().sum::<usize>(), want, "rank {rank}");
        }
        // CIFAR-10 at batch 32: every layer summed, so a conv-heavy ring
        // sends what it sent when the whole gradient was summed.
        let cifar = full_net(CIFAR10);
        assert!(forms(&cifar, 32).iter().all(|&(_, gathered)| !gathered));
        let dense: usize = cifar.layers().iter().map(|l| l.param_count()).sum();
        // World 3: rank 0 sends on both legs, rank 1 only reduces and
        // rank 2 only broadcasts.
        for (rank, want) in [2 * dense, dense, dense].into_iter().enumerate() {
            assert_eq!(sent_spans(&cifar, 32, 3, rank).iter().sum::<usize>(), want, "rank {rank}");
        }
    }

    /// A `Write` that counts what passes through it.
    struct Counted<W> {
        inner: W,
        bytes: Arc<AtomicU64>,
    }

    impl<W: Write> Write for Counted<W> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = self.inner.write(buf)?;
            self.bytes.fetch_add(n as u64, Ordering::Relaxed);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    /// One step of the full-geometry MNIST net at world 2, batch 8: each
    /// rank's link carries exactly the frames the layout predicts, and
    /// the whole step is under 0.3 MB, where the dense gradient alone is
    /// 5.8 MB a leg.
    #[test]
    fn the_wire_carries_what_the_layout_predicts() {
        let (world, batch_len, chunk_floats) = (2, 8, DEFAULT_CHUNK_FLOATS);
        let data = Dataset::synthetic(Shape3::new(1, 28, 28), 10, batch_len, 0.15, 3);
        let trainer =
            TrainerConfig { epochs: 1, batch_size: batch_len, ..TrainerConfig::default() };
        let counters: Vec<Arc<AtomicU64>> = (0..world).map(|_| Arc::default()).collect();
        let mut links = ring_fabric(world).unwrap();
        for ((_, tx_next), bytes) in links.iter_mut().zip(&counters) {
            let inner = std::mem::replace(tx_next, Box::new(std::io::sink()));
            *tx_next = Box::new(Counted { inner, bytes: Arc::clone(bytes) });
        }
        std::thread::scope(|scope| {
            for (rank, (mut rx_prev, mut tx_next)) in links.into_iter().enumerate() {
                let (data, trainer) = (&data, &trainer);
                scope.spawn(move || {
                    let mut net = full_net(MNIST);
                    let opts = RankOptions { rank, world, chunk_floats, fault: None };
                    let mut progress = Progress::fresh(&net);
                    let mut data = data.clone();
                    let (rx_prev, tx_next) = (&mut rx_prev, &mut tx_next);
                    run_rank(&mut net, &mut data, trainer, &opts, rx_prev, tx_next, &mut progress)
                        .unwrap();
                });
            }
        });

        let net = full_net(MNIST);
        let meta = encode_frame(&Message::AccMeta {
            epoch: 1,
            batch: 0,
            loss_sum_bits: 0,
            correct: 0,
            sparsity_bits: vec![0; 1],
        })
        .len();
        let frame = |floats: usize| {
            let mut f = Vec::new();
            let head = ChunkHead { broadcast: false, epoch: 1, batch: 0, chunk: 0 };
            encode_chunk_into(head, &vec![0.0; floats], &mut f);
            f.len()
        };
        let chunked = |span: usize| {
            let (full, tail) = (span / chunk_floats, span % chunk_floats);
            full * frame(chunk_floats) + if tail > 0 { frame(tail) } else { 0 }
        };
        let mut total = 0;
        for (rank, bytes) in counters.iter().enumerate() {
            // One leg each at world 2: rank 0 reduces, rank 1 broadcasts.
            let spans = sent_spans(&net, batch_len, world, rank);
            let predicted = (meta + spans.iter().map(|&s| chunked(s)).sum::<usize>()) as u64;
            assert_eq!(bytes.load(Ordering::Relaxed), predicted, "rank {rank}");
            total += predicted;
        }
        assert!(total < 300_000, "a world-2 MNIST step put {total} bytes on the wire");
    }

    /// A fault can leave the ranks' commits staggered, and their states
    /// reach the replay choice in any order: every arrival order, the
    /// four where a stale state comes first included, must replay from
    /// the most-committed one.
    #[test]
    fn replay_takes_the_most_committed_state_in_any_arrival_order() {
        let progress = Progress::fresh(&make_net().unwrap());
        let fresh = RankState { weights: Vec::new(), progress };
        let staggered = [(1, 2), (2, 0), (2, 1)];
        let at = |i: usize| {
            let mut s = fresh.clone();
            (s.progress.next_epoch, s.progress.next_batch) = staggered[i];
            s
        };
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let best = most_committed(order.map(at));
            let position = (best.progress.next_epoch, best.progress.next_batch);
            assert_eq!(position, (2, 1), "arrival order {order:?}");
        }
    }

    /// The trainer's own local fold, failing once at a chosen batch: the
    /// resume logic lives in `Trainer::run`, so it must hold without a
    /// ring in sight.
    struct StopAt {
        inner: LocalFold,
        at: Option<(usize, usize)>,
    }

    impl BatchFold for StopAt {
        type Error = (usize, usize);

        fn fold(
            &mut self,
            net: &Network,
            data: &Dataset,
            epoch: usize,
            batch: usize,
            samples: Range<usize>,
            acc: &mut BatchAcc,
        ) -> Result<Folded<'_>, Self::Error> {
            if self.at == Some((epoch, batch)) {
                return Err((epoch, batch));
            }
            Ok(self.inner.fold(net, data, epoch, batch, samples, acc).expect("no sample faults"))
        }
    }

    #[test]
    fn local_fold_resumes_from_its_progress_bit_identically() {
        let expect = pool_bits();
        // 24 samples at batch 8: three batches per epoch. Stop before the
        // first, a middle and the last batch of an epoch.
        for stop in [(1usize, 0usize), (2, 1), (3, 2)] {
            let mut net = make_net().unwrap();
            let trainer = Trainer::new(trainer_cfg());
            let mut progress = Progress::fresh(&net);
            let inner = LocalFold::for_rank(&net, &TrainerConfig::default());
            let mut fold = StopAt { inner, at: Some(stop) };

            let mut data = make_data();
            let stopped = trainer.run(&mut net, &mut data, &mut fold, &mut progress, |_, _| {});
            assert_eq!(stopped, Err(stop));
            assert_eq!((progress.next_epoch, progress.next_batch), stop);

            // Resume: same network (it holds the committed weights), the
            // dataset back in its original order, the same progress value.
            fold.at = None;
            let mut data = make_data();
            trainer.run(&mut net, &mut data, &mut fold, &mut progress, |_, _| {}).unwrap();
            assert_eq!(stats_bits(&progress.stats), expect, "stopped at {stop:?}, then resumed");
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

    /// The tests that read `train.worker_restarts`, a process-wide
    /// counter, take turns.
    static RESTARTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// The `train.worker_restarts` a ring run on [`make_net`] adds, and
    /// its [`stats_bits`]; telemetry on.
    fn restarts_and_bits(trainer: &TrainerConfig, world: usize) -> (u64, Vec<u64>) {
        let _turn = RESTARTS.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        spg_telemetry::set_enabled(true);
        let restarts = || spg_telemetry::snapshot().counter("train.worker_restarts");
        let before = restarts();
        let opts = InProcTrainOptions { world, ..Default::default() };
        let stats = train_in_proc(&make_net, &make_data(), trainer, &opts).unwrap();
        (restarts() - before, stats_bits(&stats))
    }

    /// A slot fault within budget restarts the slot inside its rank and
    /// keeps the bits: every rank's slot 0 panics once, on the second
    /// sample it starts, at every world size.
    #[test]
    fn a_slot_fault_in_every_rank_restarts_the_slot_and_keeps_the_bits() {
        let expect = pool_bits();
        let trainer =
            TrainerConfig { fault_plan: Some(FaultPlan::panic_on(0, 2)), ..trainer_cfg() };
        for world in [1usize, 2, 3, 4] {
            let (restarts, bits) = restarts_and_bits(&trainer, world);
            assert_eq!(bits, expect, "world {world} diverged from the pool");
            assert_eq!(restarts, world as u64, "world {world}: one restart per rank");
        }
    }

    /// A slot fault past its budget fails the rank with a typed ring fault
    /// that names it, and `train_in_proc` returns it once its replays are
    /// spent (each replay's ranks fault again) instead of panicking.
    #[test]
    fn a_slot_fault_past_budget_is_a_typed_ring_fault() {
        let trainer = TrainerConfig {
            restart_budget: 0,
            fault_plan: Some(FaultPlan::panic_on(0, 1)),
            ..trainer_cfg()
        };
        let opts = InProcTrainOptions { world: 2, ..Default::default() };
        let err = train_in_proc(&make_net, &make_data(), &trainer, &opts).unwrap_err();
        let ClusterError::RingFault { epoch: 1, batch: 0, message, .. } = &err else {
            panic!("expected a RingFault at epoch 1 batch 0, got {err:?}");
        };
        assert!(message.contains("training worker 0 crashed"), "{message}");
        assert!(message.contains("injected fault"), "{message}");
    }

    /// A rank cuts its block across its own sample threads: two ranks of
    /// two slots each train to the pool's bits, and slot 1 — which only a
    /// second sample thread makes — faults and restarts in both.
    #[test]
    fn ranks_with_two_sample_threads_match_the_pool() {
        let trainer = TrainerConfig {
            sample_threads: 2,
            fault_plan: Some(FaultPlan::panic_on(1, 1)),
            ..trainer_cfg()
        };
        let (restarts, bits) = restarts_and_bits(&trainer, 2);
        assert_eq!(bits, pool_bits());
        assert_eq!(restarts, 2, "slot 1 of each rank restarted once");
    }

    /// A drill naming a rank outside the ring, epoch 0, an epoch past the
    /// run or a batch past the epoch could never fire: it is refused
    /// before any rank trains.
    #[test]
    fn a_drill_that_can_never_fire_is_refused_up_front() {
        // 24 samples at batch 8: three batches in each of three epochs.
        let never = [(3, 1, 0), (7, 2, 1), (1, 0, 0), (1, 4, 0), (0, 1, 3)];
        for (rank, epoch, batch) in never {
            let opts = InProcTrainOptions {
                world: 3,
                fault: Some(TrainFault { rank, epoch, batch }),
                ..Default::default()
            };
            let err = train_in_proc(
                &|| unreachable!("no rank starts"),
                &make_data(),
                &trainer_cfg(),
                &opts,
            );
            assert!(
                matches!(&err, Err(ClusterError::Config { detail }) if detail.contains("never fire")),
                "{rank}:{epoch}:{batch}: {err:?}"
            );
        }
    }

    #[test]
    fn fault_parse_round_trips() {
        assert_eq!(TrainFault::parse("1:2:3"), Some(TrainFault { rank: 1, epoch: 2, batch: 3 }));
        assert_eq!(TrainFault::parse("1:2"), None);
        assert_eq!(TrainFault::parse("a:2:3"), None);
        assert_eq!(TrainFault::parse("1:2:3:4"), None);
    }
}
