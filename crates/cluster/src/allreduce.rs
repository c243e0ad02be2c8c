//! From-scratch gradient all-reduce: an **ordered chain-in-ring**
//! algorithm whose f32 accumulation order is *identical* to the
//! single-process SGD loop's in-order merge — the sample-order contract
//! of `spg_convnet::sgd::BatchFold`.
//!
//! # Why not the classic reduce-scatter ring
//!
//! f32 addition is not associative, and the workspace's determinism
//! contract (see `spg_convnet::sgd`) is that batch gradients merge in
//! exact sample order `j = 0..B-1`, making losses bit-identical for any
//! worker count. A reduce-scatter/allgather ring sums per-rank partial
//! blocks in ring order — a *different* association — so it cannot hit
//! the pool's bits. The ordered ring keeps the pool's association:
//!
//! * samples are owned in **contiguous blocks** by rank: rank `w` owns
//!   batch positions `[w·B/W .. (w+1)·B/W)` (same order the pool merges);
//! * rank 0 folds its samples, one at a time and in order, into a zeroed
//!   accumulator and streams it to rank 1 in chunks;
//! * each rank `r > 0` holds its per-sample gradients, folds them — in
//!   its local sample order — **on top of** the incoming accumulator
//!   chunk, and forwards; per element, the addition order is exactly the
//!   global sample order;
//! * rank `W-1` ends up with the finished accumulator and a broadcast
//!   leg circulates it `W-1 → 0 → 1 → … → W-2`.
//!
//! Per link the traffic is ≤ 2·G (one reduce pass + one broadcast pass,
//! pipelined in [`chunk_floats`](crate::ClusterConfig::chunk_floats)-
//! sized frames), the same asymptotic bandwidth as the classic ring —
//! what is given up is overlap *within* the fold (the chain is serial
//! across ranks), which the interconnect model in `spg-simcpu` charges
//! for honestly. Scalars (the f64 loss sum, the correct count, the conv
//! sparsity sums) ride an [`Message::AccMeta`] frame and fold in the
//! same order, so epoch statistics are bit-identical too.

use std::io::{Read, Write};

use crate::wire::{read_frame, write_frame, Message, WireError};
use crate::ClusterError;

/// The all-reduce algorithm the distributed trainer runs. There is one:
/// a reducer that re-associates the f32 fold (a tree, a reduce-scatter)
/// cannot meet the `BatchFold` sample-order contract.
///
/// Compatibility residue: the enum survives only because the frozen
/// `benchmark/` harness names `AllReduce::Ring` in
/// [`InProcTrainOptions::algo`](crate::train::InProcTrainOptions::algo);
/// drop both when the benchmark is next re-baselined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllReduce {
    /// Ordered chain-in-ring: bit-identical to the single-process pool.
    Ring,
}

/// One sample's contribution to the batch accumulator, captured by the
/// owning rank before the all-reduce starts.
#[derive(Debug, Clone)]
pub struct SampleGrad {
    /// Flattened parameter gradients (all layers concatenated in layer
    /// order).
    pub grads: Vec<f32>,
    /// Cross-entropy loss of the sample.
    pub loss: f32,
    /// Whether the prediction was correct.
    pub correct: bool,
    /// Backward gradient sparsity per conv layer.
    pub sparsity: Vec<f64>,
}

/// The fully reduced batch accumulator — the distributed equivalent of
/// the SGD pool's per-batch accumulator.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchAcc {
    /// Flattened summed gradients.
    pub grads: Vec<f32>,
    /// Summed losses (f64, folded in global sample order).
    pub loss_sum: f64,
    /// Correct-prediction count.
    pub correct: u64,
    /// Summed per-conv-layer sparsities.
    pub sparsity_sums: Vec<f64>,
}

impl BatchAcc {
    /// A zeroed accumulator for `grad_len` parameters and `conv_count`
    /// conv layers.
    pub fn zeroed(grad_len: usize, conv_count: usize) -> Self {
        BatchAcc {
            grads: vec![0.0; grad_len],
            loss_sum: 0.0,
            correct: 0,
            sparsity_sums: vec![0.0; conv_count],
        }
    }

    /// Folds one sample's scalars in, in order — the same statements the
    /// pool's `BatchAcc::absorb` executes.
    fn fold_scalars(&mut self, s: &SampleGrad) {
        self.loss_sum += f64::from(s.loss);
        self.correct += u64::from(s.correct);
        for (dst, &src) in self.sparsity_sums.iter_mut().zip(&s.sparsity) {
            *dst += src;
        }
    }

    /// Folds one sample's full gradient vector in.
    fn fold_grads(&mut self, s: &SampleGrad) {
        for (a, &g) in self.grads.iter_mut().zip(&s.grads) {
            *a += g;
        }
    }
}

/// The two directed stream halves a rank holds in the ring topology.
pub struct RingLink<'a> {
    /// This rank's position.
    pub rank: usize,
    /// Total rank count.
    pub world: usize,
    /// Stream from the previous rank `(rank + world - 1) % world`.
    pub rx_prev: &'a mut dyn Read,
    /// Stream to the next rank `(rank + 1) % world`.
    pub tx_next: &'a mut dyn Write,
}

/// Maps a transport error on the ring to a typed cluster error.
fn ring_err(rank: usize, epoch: u32, batch: u32, e: WireError) -> ClusterError {
    ClusterError::RingFault {
        rank,
        epoch: epoch as usize,
        batch: batch as usize,
        message: e.to_string(),
    }
}

/// Sequence-checks a received frame against the current (epoch, batch).
fn check_seq(
    rank: usize,
    epoch: u32,
    batch: u32,
    got_epoch: u32,
    got_batch: u32,
) -> Result<(), ClusterError> {
    if got_epoch != epoch || got_batch != batch {
        return Err(ClusterError::Protocol {
            rank,
            detail: format!(
                "sequence mismatch: expected epoch {epoch} batch {batch}, \
                 peer sent epoch {got_epoch} batch {got_batch}"
            ),
        });
    }
    Ok(())
}

/// Number of chunks a `grad_len`-float vector splits into.
fn chunk_count(grad_len: usize, chunk_floats: usize) -> usize {
    grad_len.div_ceil(chunk_floats.max(1))
}

/// Sends the accumulator's scalars as one `AccMeta` frame.
fn send_meta(tx: &mut dyn Write, epoch: u32, batch: u32, acc: &BatchAcc) -> Result<(), WireError> {
    write_frame(
        tx,
        &Message::AccMeta {
            epoch,
            batch,
            loss_sum_bits: acc.loss_sum.to_bits(),
            correct: acc.correct,
            sparsity_bits: acc.sparsity_sums.iter().map(|s| s.to_bits()).collect(),
        },
    )
}

/// Sends the accumulator as one `AccMeta` plus chunked frames of
/// `kind` (0x10 reduce / 0x11 broadcast).
fn send_acc(
    tx: &mut dyn Write,
    broadcast: bool,
    epoch: u32,
    batch: u32,
    acc: &BatchAcc,
    chunk_floats: usize,
) -> Result<(), WireError> {
    send_meta(tx, epoch, batch, acc)?;
    for (i, piece) in acc.grads.chunks(chunk_floats.max(1)).enumerate() {
        let chunk = u32::try_from(i).expect("chunk index fits u32");
        let data = piece.to_vec();
        let msg = if broadcast {
            Message::BroadcastChunk { epoch, batch, chunk, data }
        } else {
            Message::ReduceChunk { epoch, batch, chunk, data }
        };
        write_frame(tx, &msg)?;
        spg_telemetry::record_counter(
            if broadcast { "cluster.ring.broadcast_chunks" } else { "cluster.ring.reduce_chunks" },
            1,
        );
    }
    Ok(())
}

/// Receives an `AccMeta` frame, sequence-checked, into `acc`'s scalars.
fn recv_meta(
    rx: &mut dyn Read,
    rank: usize,
    epoch: u32,
    batch: u32,
    acc: &mut BatchAcc,
) -> Result<(), ClusterError> {
    match read_frame(rx).map_err(|e| ring_err(rank, epoch, batch, e))? {
        Message::AccMeta { epoch: ge, batch: gb, loss_sum_bits, correct, sparsity_bits } => {
            check_seq(rank, epoch, batch, ge, gb)?;
            acc.loss_sum = f64::from_bits(loss_sum_bits);
            acc.correct = correct;
            acc.sparsity_sums = sparsity_bits.into_iter().map(f64::from_bits).collect();
            Ok(())
        }
        other => Err(ClusterError::Protocol {
            rank,
            detail: format!("expected AccMeta, got frame type {:#04x}", other.tag()),
        }),
    }
}

/// Receives one sequence-checked gradient chunk of the expected kind
/// and index, returning its data.
fn recv_chunk(
    rx: &mut dyn Read,
    rank: usize,
    broadcast: bool,
    epoch: u32,
    batch: u32,
    expect_chunk: usize,
) -> Result<Vec<f32>, ClusterError> {
    let msg = read_frame(rx).map_err(|e| ring_err(rank, epoch, batch, e))?;
    let (ge, gb, gc, data, got_broadcast) = match msg {
        Message::ReduceChunk { epoch, batch, chunk, data } => (epoch, batch, chunk, data, false),
        Message::BroadcastChunk { epoch, batch, chunk, data } => (epoch, batch, chunk, data, true),
        other => {
            return Err(ClusterError::Protocol {
                rank,
                detail: format!("expected gradient chunk, got frame type {:#04x}", other.tag()),
            })
        }
    };
    check_seq(rank, epoch, batch, ge, gb)?;
    if got_broadcast != broadcast || gc as usize != expect_chunk {
        return Err(ClusterError::Protocol {
            rank,
            detail: format!(
                "chunk sequence violation: expected {} chunk {expect_chunk}, got {} chunk {gc}",
                if broadcast { "broadcast" } else { "reduce" },
                if got_broadcast { "broadcast" } else { "reduce" },
            ),
        });
    }
    Ok(data)
}

/// Runs the ordered chain-in-ring all-reduce for one batch.
///
/// `samples` are this rank's contributions in its local sample order;
/// `grad_len` is the flattened gradient length (identical on every
/// rank); `conv_count` the number of conv layers. Returns the finished
/// accumulator, identical — bit for bit — on every rank, and equal to
/// what the single-process pool computes for the same batch.
///
/// # Errors
///
/// [`ClusterError::RingFault`] when a neighbor drops mid-reduce (the
/// typed mid-all-reduce failure the recovery drill exercises) and
/// [`ClusterError::Protocol`] on sequence violations.
pub fn ring_allreduce(
    link: &mut RingLink<'_>,
    epoch: u32,
    batch: u32,
    samples: &[SampleGrad],
    grad_len: usize,
    conv_count: usize,
    chunk_floats: usize,
) -> Result<BatchAcc, ClusterError> {
    let (rank, world) = (link.rank, link.world);
    let mut acc = BatchAcc::zeroed(grad_len, conv_count);
    let chunks = chunk_count(grad_len, chunk_floats);

    if world == 1 {
        for s in samples {
            acc.fold_scalars(s);
            acc.fold_grads(s);
        }
        return Ok(acc);
    }

    // ---- Reduce leg: 0 → 1 → … → W-1, folding in rank order. ----
    if rank == 0 {
        for s in samples {
            acc.fold_scalars(s);
            acc.fold_grads(s);
        }
        send_acc(link.tx_next, false, epoch, batch, &acc, chunk_floats)
            .map_err(|e| ring_err(rank, epoch, batch, e))?;
    } else {
        recv_meta(link.rx_prev, rank, epoch, batch, &mut acc)?;
        for s in samples {
            acc.fold_scalars(s);
        }
        let last = rank == world - 1;
        if !last {
            send_meta(link.tx_next, epoch, batch, &acc)
                .map_err(|e| ring_err(rank, epoch, batch, e))?;
        }
        for c in 0..chunks {
            let mut data = recv_chunk(link.rx_prev, rank, false, epoch, batch, c)?;
            let off = c * chunk_floats.max(1);
            // Fold this rank's samples onto the incoming accumulator
            // slice, sample by sample: per element the addition order is
            // the global sample order, exactly the pool's association.
            let len = data.len();
            for s in samples {
                for (a, &g) in data.iter_mut().zip(&s.grads[off..off + len]) {
                    *a += g;
                }
            }
            if !last {
                write_frame(
                    link.tx_next,
                    &Message::ReduceChunk {
                        epoch,
                        batch,
                        chunk: u32::try_from(c).expect("chunk index fits u32"),
                        data: data.clone(),
                    },
                )
                .map_err(|e| ring_err(rank, epoch, batch, e))?;
                spg_telemetry::record_counter("cluster.ring.reduce_chunks", 1);
            }
            acc.grads[off..off + data.len()].copy_from_slice(&data);
        }
    }

    // ---- Broadcast leg: W-1 → 0 → 1 → … → W-2. ----
    if rank == world - 1 {
        send_acc(link.tx_next, true, epoch, batch, &acc, chunk_floats)
            .map_err(|e| ring_err(rank, epoch, batch, e))?;
    } else {
        let forward = (rank + 1) % world != world - 1;
        recv_meta(link.rx_prev, rank, epoch, batch, &mut acc)?;
        if forward {
            send_meta(link.tx_next, epoch, batch, &acc)
                .map_err(|e| ring_err(rank, epoch, batch, e))?;
        }
        for c in 0..chunks {
            let data = recv_chunk(link.rx_prev, rank, true, epoch, batch, c)?;
            let off = c * chunk_floats.max(1);
            acc.grads[off..off + data.len()].copy_from_slice(&data);
            if forward {
                write_frame(
                    link.tx_next,
                    &Message::BroadcastChunk {
                        epoch,
                        batch,
                        chunk: u32::try_from(c).expect("chunk index fits u32"),
                        data,
                    },
                )
                .map_err(|e| ring_err(rank, epoch, batch, e))?;
                spg_telemetry::record_counter("cluster.ring.broadcast_chunks", 1);
            }
        }
    }
    spg_telemetry::record_counter("cluster.ring.batches", 1);
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    /// Synthetic per-rank sample blocks: `world` ranks, `per_rank`
    /// samples each, `grad_len` parameters.
    fn blocks(world: usize, per_rank: usize, grad_len: usize) -> Vec<Vec<SampleGrad>> {
        (0..world)
            .map(|w| {
                (0..per_rank)
                    .map(|j| {
                        let g = (w * per_rank + j) as f32;
                        let grads: Vec<f32> =
                            (0..grad_len).map(|e| (e as f32).sin() * 0.25 + g * 0.001).collect();
                        SampleGrad {
                            grads,
                            loss: 0.5 + g * 0.01,
                            correct: j % 2 == 0,
                            sparsity: vec![0.25 + g as f64 * 0.001],
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// The oracle: the single-process pool's fold (global sample order).
    fn sequential_fold(blocks: &[Vec<SampleGrad>], grad_len: usize) -> BatchAcc {
        let mut acc = BatchAcc::zeroed(grad_len, 1);
        for block in blocks {
            for s in block {
                acc.fold_scalars(s);
                acc.fold_grads(s);
            }
        }
        acc
    }

    /// Runs the ring all-reduce across `world` threads over socketpairs.
    fn run_ring(blocks: Vec<Vec<SampleGrad>>, grad_len: usize, chunk: usize) -> Vec<BatchAcc> {
        let world = blocks.len();
        // Edge r -> (r+1) % world: pair.0 is r's tx, pair.1 is next's rx.
        let mut txs: Vec<Option<UnixStream>> = Vec::new();
        let mut rxs: Vec<Option<UnixStream>> = (0..world).map(|_| None).collect();
        for r in 0..world {
            let (a, b) = UnixStream::pair().expect("socketpair");
            txs.push(Some(a));
            rxs[(r + 1) % world] = Some(b);
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = blocks
                .into_iter()
                .enumerate()
                .zip(txs.iter_mut().zip(rxs.iter_mut()))
                .map(|((rank, samples), (tx, rx))| {
                    let mut tx = tx.take().unwrap();
                    let mut rx = rx.take().unwrap();
                    scope.spawn(move || {
                        let mut link = RingLink { rank, world, rx_prev: &mut rx, tx_next: &mut tx };
                        ring_allreduce(&mut link, 1, 0, &samples, grad_len, 1, chunk).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn ring_matches_sequential_fold_bit_for_bit() {
        for world in [1usize, 2, 3, 5] {
            for chunk in [3usize, 16, 1024] {
                let grad_len = 37;
                let blocks = blocks(world, 4, grad_len);
                let expect = sequential_fold(&blocks, grad_len);
                let got = run_ring(blocks, grad_len, chunk);
                for (rank, acc) in got.iter().enumerate() {
                    assert_eq!(
                        acc.loss_sum.to_bits(),
                        expect.loss_sum.to_bits(),
                        "world {world} chunk {chunk} rank {rank} loss"
                    );
                    assert_eq!(acc.correct, expect.correct);
                    for (a, b) in acc.grads.iter().zip(&expect.grads) {
                        assert_eq!(a.to_bits(), b.to_bits(), "world {world} chunk {chunk}");
                    }
                    for (a, b) in acc.sparsity_sums.iter().zip(&expect.sparsity_sums) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn sequence_mismatch_is_a_typed_protocol_error() {
        let (mut a, mut b) = UnixStream::pair().unwrap();
        // Rank 1 of 2 expects epoch 1 / batch 0; its "previous rank"
        // sends epoch 9 instead.
        let sender = std::thread::spawn(move || {
            let acc = BatchAcc::zeroed(4, 1);
            send_acc(&mut a, false, 9, 0, &acc, 4).unwrap();
        });
        let err = {
            let (mut dead_tx, _keep) = UnixStream::pair().unwrap();
            let mut link = RingLink { rank: 1, world: 2, rx_prev: &mut b, tx_next: &mut dead_tx };
            ring_allreduce(&mut link, 1, 0, &[], 4, 1, 4).unwrap_err()
        };
        sender.join().unwrap();
        assert!(
            matches!(err, ClusterError::Protocol { rank: 1, .. }),
            "expected Protocol error, got {err:?}"
        );
    }

    #[test]
    fn dropped_peer_is_a_typed_ring_fault() {
        let (a, mut b) = UnixStream::pair().unwrap();
        drop(a); // Peer dies before sending anything.
        let (mut dead_tx, _keep) = UnixStream::pair().unwrap();
        let mut link = RingLink { rank: 1, world: 2, rx_prev: &mut b, tx_next: &mut dead_tx };
        let err = ring_allreduce(&mut link, 3, 7, &[], 4, 1, 4).unwrap_err();
        match err {
            ClusterError::RingFault { rank, epoch, batch, .. } => {
                assert_eq!((rank, epoch, batch), (1, 3, 7));
            }
            other => panic!("expected RingFault, got {other:?}"),
        }
    }
}
