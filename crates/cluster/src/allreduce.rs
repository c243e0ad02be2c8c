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
//!
//! # Buffers and flushes
//!
//! [`ring_allreduce_into`] allocates nothing proportional to the
//! gradient. The accumulator is the caller's and is reduced **in place**:
//! an incoming chunk is decoded straight into its slice of
//! `acc.grads`, this rank's samples fold onto that slice, and the slice
//! is encoded from there — rank 0 is the same loop folding onto zeros.
//! Every frame, inbound and outbound, passes through the one
//! caller-owned `frame` buffer, which is free for reuse as soon as the
//! call that filled it returns.
//!
//! Frames are written without flushing, so a caller that owns its links
//! for many batches wraps them once in a `BufReader`/`BufWriter`
//! (`spg-cluster::train::run_rank` does) and pays a syscall per buffer
//! instead of per 4 KB frame. Two rules keep that safe. *Flush before
//! read:* each leg ends with a flush before the rank next blocks on a
//! read, so no peer ever waits on bytes parked in a buffer. *The reader
//! outlives the batch:* a buffered reader may have pulled the next
//! batch's first bytes off the socket, so it must be the same reader for
//! the link's whole life — never one made per call.

use std::io::{Read, Write};

use crate::wire::{
    decode_chunk_into, decode_frame, encode_chunk_into, encode_frame, read_frame_into, ChunkHead,
    Message, WireError,
};
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
#[derive(Debug, Clone, Default)]
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

/// One batch's all-reduce on one rank: the link, the (epoch, batch)
/// every frame is sequence-checked against, and the reused frame buffer.
struct Ring<'l, 'a> {
    link: &'l mut RingLink<'a>,
    epoch: u32,
    batch: u32,
    frame: &'l mut Vec<u8>,
}

impl Ring<'_, '_> {
    fn protocol(&self, detail: String) -> ClusterError {
        ClusterError::Protocol { rank: self.link.rank, detail }
    }

    /// Maps a wire error on the ring to a typed cluster error: a frame
    /// that verified but does not mean what the protocol needs here is
    /// the peer's violation; anything else is the link failing.
    fn wire_err(&self, e: WireError) -> ClusterError {
        match e {
            WireError::BadPayload { .. } => self.protocol(e.to_string()),
            e => ClusterError::RingFault {
                rank: self.link.rank,
                epoch: self.epoch as usize,
                batch: self.batch as usize,
                message: e.to_string(),
            },
        }
    }

    /// Sequence-checks a received frame against the current (epoch, batch).
    fn check_seq(&self, got_epoch: u32, got_batch: u32) -> Result<(), ClusterError> {
        if (got_epoch, got_batch) != (self.epoch, self.batch) {
            return Err(self.protocol(format!(
                "sequence mismatch: expected epoch {} batch {}, \
                 peer sent epoch {got_epoch} batch {got_batch}",
                self.epoch, self.batch
            )));
        }
        Ok(())
    }

    /// Ends a leg: everything queued reaches the peer before this rank
    /// blocks on its next read.
    fn flush(&mut self) -> Result<(), ClusterError> {
        self.link.tx_next.flush().map_err(|e| self.wire_err(e.into()))
    }

    fn recv(&mut self) -> Result<(), ClusterError> {
        read_frame_into(&mut *self.link.rx_prev, self.frame).map_err(|e| self.wire_err(e))
    }

    /// Queues the accumulator's scalars as one `AccMeta` frame.
    fn send_meta(&mut self, acc: &BatchAcc) -> Result<(), ClusterError> {
        let meta = encode_frame(&Message::AccMeta {
            epoch: self.epoch,
            batch: self.batch,
            loss_sum_bits: acc.loss_sum.to_bits(),
            correct: acc.correct,
            sparsity_bits: acc.sparsity_sums.iter().map(|s| s.to_bits()).collect(),
        });
        self.link.tx_next.write_all(&meta).map_err(|e| self.wire_err(e.into()))
    }

    /// Receives an `AccMeta` frame, sequence-checked, into `acc`'s scalars.
    fn recv_meta(&mut self, acc: &mut BatchAcc) -> Result<(), ClusterError> {
        self.recv()?;
        match decode_frame(self.frame).map_err(|e| self.wire_err(e))?.0 {
            Message::AccMeta { epoch, batch, loss_sum_bits, correct, sparsity_bits } => {
                self.check_seq(epoch, batch)?;
                acc.loss_sum = f64::from_bits(loss_sum_bits);
                acc.correct = correct;
                acc.sparsity_sums.clear();
                acc.sparsity_sums.extend(sparsity_bits.into_iter().map(f64::from_bits));
                Ok(())
            }
            other => {
                Err(self.protocol(format!("expected AccMeta, got frame type {:#04x}", other.tag())))
            }
        }
    }

    /// Queues `data` as chunk `chunk` of the given leg.
    fn send_chunk(
        &mut self,
        broadcast: bool,
        chunk: usize,
        data: &[f32],
    ) -> Result<(), ClusterError> {
        let chunk = u32::try_from(chunk).expect("chunk index fits u32");
        let head = ChunkHead { broadcast, epoch: self.epoch, batch: self.batch, chunk };
        encode_chunk_into(head, data, self.frame);
        self.link.tx_next.write_all(self.frame).map_err(|e| self.wire_err(e.into()))
    }

    /// Receives chunk `chunk` of the given leg into `out` — exactly
    /// `out.len()` floats, or the decoder rejects the peer's count —
    /// checking the sequence, the leg and the index.
    fn recv_chunk_into(
        &mut self,
        broadcast: bool,
        chunk: usize,
        out: &mut [f32],
    ) -> Result<(), ClusterError> {
        self.recv()?;
        let got = decode_chunk_into(self.frame, out).map_err(|e| self.wire_err(e))?;
        self.check_seq(got.epoch, got.batch)?;
        if got.broadcast != broadcast || got.chunk as usize != chunk {
            let leg = |b| if b { "broadcast" } else { "reduce" };
            return Err(self.protocol(format!(
                "chunk sequence violation: expected {} chunk {chunk}, got {} chunk {}",
                leg(broadcast),
                leg(got.broadcast),
                got.chunk
            )));
        }
        Ok(())
    }
}

/// Runs the ordered chain-in-ring all-reduce for one batch, in place.
///
/// `samples` are this rank's contributions in its local sample order,
/// each `acc.grads.len()` floats long (the flattened gradient length,
/// identical on every rank). On return `acc` holds the finished
/// accumulator, identical — bit for bit — on every rank, and equal to
/// what the single-process pool computes for the same batch; what it
/// held on entry is irrelevant. `frame` is scratch (see the module docs
/// for the buffer and flush rules); the call allocates nothing that
/// grows with the gradient.
///
/// # Errors
///
/// [`ClusterError::RingFault`] when a neighbor drops mid-reduce (the
/// typed mid-all-reduce failure the recovery drill exercises) and
/// [`ClusterError::Protocol`] on sequence violations, including a chunk
/// whose float count is not this rank's (mismatched `chunk_floats`).
///
/// # Panics
///
/// Panics if a sample's gradient is shorter than `acc.grads`.
pub fn ring_allreduce_into(
    link: &mut RingLink<'_>,
    epoch: u32,
    batch: u32,
    samples: &[SampleGrad],
    acc: &mut BatchAcc,
    chunk_floats: usize,
    frame: &mut Vec<u8>,
) -> Result<(), ClusterError> {
    let (first, last) = (link.rank == 0, link.rank == link.world - 1);
    let chunk_floats = chunk_floats.max(1);
    let mut ring = Ring { link, epoch, batch, frame };

    // ---- Reduce leg: 0 → 1 → … → W-1, folding in rank order. ----
    if first {
        acc.loss_sum = 0.0;
        acc.correct = 0;
        acc.sparsity_sums.fill(0.0);
    } else {
        ring.recv_meta(acc)?;
    }
    for s in samples {
        acc.fold_scalars(s);
    }
    if !last {
        ring.send_meta(acc)?;
    }
    for (c, slice) in acc.grads.chunks_mut(chunk_floats).enumerate() {
        if first {
            slice.fill(0.0);
        } else {
            ring.recv_chunk_into(false, c, slice)?;
        }
        // Fold this rank's samples onto the running accumulator slice,
        // sample by sample: per element the addition order is the global
        // sample order, exactly the pool's association.
        let span = c * chunk_floats..c * chunk_floats + slice.len();
        for s in samples {
            for (a, &g) in slice.iter_mut().zip(&s.grads[span.clone()]) {
                *a += g;
            }
        }
        if !last {
            ring.send_chunk(false, c, slice)?;
        }
    }
    ring.flush()?;
    let chunks = acc.grads.len().div_ceil(chunk_floats) as u64;
    if !last {
        spg_telemetry::record_counter("cluster.ring.reduce_chunks", chunks);
    }

    // ---- Broadcast leg: W-1 → 0 → 1 → … → W-2. ----
    // A rank sends unless its next rank is the leg's origin W-1 (which
    // at W = 1 is the rank itself: no traffic at all).
    let forward = (ring.link.rank + 1) % ring.link.world != ring.link.world - 1;
    if !last {
        ring.recv_meta(acc)?;
    }
    if forward {
        ring.send_meta(acc)?;
    }
    for (c, slice) in acc.grads.chunks_mut(chunk_floats).enumerate() {
        if !last {
            ring.recv_chunk_into(true, c, slice)?;
        }
        if forward {
            ring.send_chunk(true, c, slice)?;
        }
    }
    ring.flush()?;
    if forward {
        spg_telemetry::record_counter("cluster.ring.broadcast_chunks", chunks);
    }
    spg_telemetry::record_counter("cluster.ring.batches", 1);
    Ok(())
}

/// [`ring_allreduce_into`] for a caller without long-lived buffers:
/// allocates the accumulator (`grad_len` floats, `conv_count` sparsity
/// sums) and the frame buffer per call and returns the finished
/// accumulator.
///
/// # Errors
///
/// As [`ring_allreduce_into`].
pub fn ring_allreduce(
    link: &mut RingLink<'_>,
    epoch: u32,
    batch: u32,
    samples: &[SampleGrad],
    grad_len: usize,
    conv_count: usize,
    chunk_floats: usize,
) -> Result<BatchAcc, ClusterError> {
    let mut acc = BatchAcc::zeroed(grad_len, conv_count);
    ring_allreduce_into(link, epoch, batch, samples, &mut acc, chunk_floats, &mut Vec::new())?;
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, BufWriter};
    use std::os::unix::net::UnixStream;

    /// Synthetic per-rank sample blocks: `world` ranks, `per_rank`
    /// samples each, `grad_len` parameters; `salt` varies them per batch.
    fn blocks(world: usize, per_rank: usize, grad_len: usize, salt: usize) -> Vec<Vec<SampleGrad>> {
        (0..world)
            .map(|w| {
                (0..per_rank)
                    .map(|j| {
                        let g = (w * per_rank + j + 7 * salt) as f32;
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
        for s in blocks.iter().flatten() {
            acc.fold_scalars(s);
            for (a, &g) in acc.grads.iter_mut().zip(&s.grads) {
                *a += g;
            }
        }
        acc
    }

    fn assert_bit_equal(got: &BatchAcc, expect: &BatchAcc, what: &str) {
        assert_eq!(got.loss_sum.to_bits(), expect.loss_sum.to_bits(), "{what}: loss");
        assert_eq!(got.correct, expect.correct, "{what}: correct");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.grads), bits(&expect.grads), "{what}: grads");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.sparsity_sums), bits(&expect.sparsity_sums), "{what}: sparsity");
    }

    /// Socketpairs for a `world`-rank ring: element `r` is rank `r`'s
    /// `(rx_prev, tx_next)`.
    fn fabric(world: usize) -> Vec<(UnixStream, UnixStream)> {
        let mut txs = Vec::new();
        let mut rxs: Vec<Option<UnixStream>> = (0..world).map(|_| None).collect();
        for r in 0..world {
            let (a, b) = UnixStream::pair().expect("socketpair");
            txs.push(a);
            rxs[(r + 1) % world] = Some(b);
        }
        rxs.into_iter().map(|rx| rx.expect("fabric complete")).zip(txs).collect()
    }

    /// Runs `ring_allreduce` across one thread per block over bare
    /// socketpairs, rank `r` chunking by `chunk(r)`; every rank's result.
    fn run_ring(
        blocks: Vec<Vec<SampleGrad>>,
        grad_len: usize,
        chunk: impl Fn(usize) -> usize + Sync,
    ) -> Vec<Result<BatchAcc, ClusterError>> {
        let world = blocks.len();
        let chunk = &chunk;
        std::thread::scope(|scope| {
            let handles: Vec<_> = blocks
                .into_iter()
                .zip(fabric(world))
                .enumerate()
                .map(|(rank, (samples, (mut rx, mut tx)))| {
                    scope.spawn(move || {
                        let mut link = RingLink { rank, world, rx_prev: &mut rx, tx_next: &mut tx };
                        ring_allreduce(&mut link, 1, 0, &samples, grad_len, 1, chunk(rank))
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
                let blocks = blocks(world, 4, grad_len, 0);
                let expect = sequential_fold(&blocks, grad_len);
                for (rank, acc) in run_ring(blocks, grad_len, |_| chunk).into_iter().enumerate() {
                    let what = format!("world {world} chunk {chunk} rank {rank}");
                    assert_bit_equal(&acc.unwrap(), &expect, &what);
                }
            }
        }
    }

    /// Several batches back to back over the *same* buffered links, with
    /// no barrier between them and a chunk size that does not divide the
    /// gradient: a reader's read-ahead must survive into the next batch,
    /// middle ranks (world >= 3) must flush what they forward, and no
    /// gradient-sized buffer may be reallocated once the first batch has
    /// sized them.
    #[test]
    fn consecutive_batches_share_buffered_links_and_buffers() {
        const BATCHES: usize = 4;
        let (grad_len, chunk) = (1000, 48);
        for world in [3usize, 4] {
            let per_batch: Vec<_> = (0..BATCHES).map(|b| blocks(world, 3, grad_len, b)).collect();
            let expect: Vec<_> = per_batch.iter().map(|b| sequential_fold(b, grad_len)).collect();
            let (per_batch, expect) = (&per_batch, &expect);
            std::thread::scope(|scope| {
                for (rank, (rx, tx)) in fabric(world).into_iter().enumerate() {
                    scope.spawn(move || {
                        let mut rx = BufReader::new(rx);
                        let mut tx = BufWriter::new(tx);
                        let mut link = RingLink { rank, world, rx_prev: &mut rx, tx_next: &mut tx };
                        let mut acc = BatchAcc::zeroed(grad_len, 1);
                        let mut frame = Vec::new();
                        let mut sized = None;
                        for (b, blocks) in per_batch.iter().enumerate() {
                            let batch = u32::try_from(b).unwrap();
                            let mine = &blocks[rank];
                            ring_allreduce_into(
                                &mut link, 1, batch, mine, &mut acc, chunk, &mut frame,
                            )
                            .unwrap();
                            let what = format!("world {world} rank {rank} batch {b}");
                            assert_bit_equal(&acc, &expect[b], &what);
                            let now = (frame.as_ptr(), frame.capacity(), acc.grads.as_ptr());
                            assert_eq!(*sized.get_or_insert(now), now, "{what}: buffers moved");
                        }
                    });
                }
            });
        }
    }

    /// One rank of a 2-ring fed `frames` by a scripted peer; the rank's
    /// outbound link goes nowhere.
    fn rank1_fed(frames: &[Vec<u8>], grad_len: usize, chunk: usize) -> ClusterError {
        let (mut a, mut b) = UnixStream::pair().unwrap();
        for f in frames {
            a.write_all(f).unwrap();
        }
        let (mut dead_tx, _keep) = UnixStream::pair().unwrap();
        let mut link = RingLink { rank: 1, world: 2, rx_prev: &mut b, tx_next: &mut dead_tx };
        ring_allreduce(&mut link, 1, 0, &blocks(1, 2, grad_len, 0)[0], grad_len, 1, chunk)
            .unwrap_err()
    }

    fn meta(epoch: u32) -> Vec<u8> {
        encode_frame(&Message::AccMeta {
            epoch,
            batch: 0,
            loss_sum_bits: 0,
            correct: 0,
            sparsity_bits: vec![0],
        })
    }

    fn reduce_chunk(chunk: u32, floats: usize) -> Vec<u8> {
        encode_frame(&Message::ReduceChunk { epoch: 1, batch: 0, chunk, data: vec![1.0; floats] })
    }

    #[test]
    fn sequence_mismatch_is_a_typed_protocol_error() {
        // Rank 1 of 2 expects epoch 1 / batch 0; its "previous rank"
        // sends epoch 9 instead.
        let err = rank1_fed(&[meta(9)], 4, 4);
        assert!(
            matches!(err, ClusterError::Protocol { rank: 1, .. }),
            "expected Protocol error, got {err:?}"
        );
    }

    /// Regression: the ring used to take a chunk's float count from the
    /// peer. A longer chunk indexed past the sample gradients and
    /// panicked the rank; a shorter one was folded and forwarded as if
    /// complete, silently dropping the tail of the sum.
    #[test]
    fn wrong_chunk_length_is_a_typed_protocol_error() {
        for (floats, what) in [(5usize, "too long"), (3, "too short"), (0, "empty")] {
            let err = rank1_fed(&[meta(1), reduce_chunk(0, floats)], 4, 4);
            match err {
                ClusterError::Protocol { rank: 1, detail } => {
                    assert!(detail.contains("chunk_floats"), "{what}: {detail}");
                }
                other => panic!("{what}: expected Protocol error, got {other:?}"),
            }
        }
        // A short *final* chunk is the same violation, not a hang.
        let err = rank1_fed(&[meta(1), reduce_chunk(0, 4), reduce_chunk(1, 1)], 6, 4);
        assert!(matches!(err, ClusterError::Protocol { rank: 1, .. }), "short tail: {err:?}");
    }

    /// What two ranks configured with different `chunk_floats` do to each
    /// other: the first disagreeing chunk is a typed error on the rank
    /// that sees it, and its neighbor fails typed too instead of hanging.
    #[test]
    fn mismatched_chunk_floats_fail_typed_on_both_ranks() {
        for (c0, c1) in [(16usize, 17usize), (17, 16)] {
            let got = run_ring(blocks(2, 2, 37, 0), 37, |rank| [c0, c1][rank]);
            assert!(
                matches!(got[1], Err(ClusterError::Protocol { rank: 1, .. })),
                "chunks {c0}/{c1}: rank 1 got {:?}",
                got[1]
            );
            assert!(got[0].is_err(), "chunks {c0}/{c1}: rank 0 must not succeed");
        }
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
