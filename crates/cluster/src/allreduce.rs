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
//! the trainer's bits. The ordered ring keeps the trainer's association:
//!
//! * samples are owned in **contiguous blocks** by rank: rank `w` owns
//!   batch positions `spg_sync::partition(B, W, w)`, the blocks the
//!   trainer's sample threads take;
//! * a **reduce leg** runs `0 → 1 → … → W-1`, each rank adding its block
//!   on top of what arrives, and a **broadcast leg** circulates the
//!   finished batch `W-1 → 0 → 1 → … → W-2`.
//!
//! # Two forms, one chain
//!
//! A step's gradient crosses the chain as a *layout*: spans in wire
//! order, each a contiguous buffer, each in one of two forms.
//!
//! * **Summed**: a running accumulator. Rank 0 folds its samples onto
//!   zeros; each later rank folds its samples, in its local sample
//!   order, **on top of** the incoming sum and forwards it. Per element
//!   the addition order is exactly the global sample order.
//! * **Record**: one sample's gradient *record* (for a fully-connected
//!   layer, its `(δ, x)` factors), put on the chain by the rank that owns
//!   the sample and carried by every later one. The reduce leg into rank
//!   `r` carries the records of the samples before its block, the
//!   broadcast leg the whole batch's; every rank then folds the batch
//!   itself, the same fold on the same records in the same order. Nothing
//!   is summed on the wire.
//!
//! The caller picks the form per layer (`spg-cluster::train` takes
//! whichever is fewer floats). Per link, a layer of G parameters costs at
//! most 2·G floats summed (one reduce pass, one broadcast pass) and at
//! most 2·B·R gathered as B records of R floats, so at most
//! `min(2·G, 2·B·R)` — both pipelined in
//! [`chunk_floats`](crate::InProcTrainOptions::chunk_floats)-sized frames
//! whose indices run over the whole layout. What is given up is overlap
//! *within* the fold (the chain is serial across ranks), which the
//! interconnect model in `spg-simcpu` charges for honestly. The scalars
//! are the trainer's own `spg_convnet::sgd::BatchAcc` (the f64 loss sum,
//! the correct count, the conv sparsity sums): each rank adds its block
//! onto the accumulator that arrives, with the trainer's one
//! `BatchAcc::add_scalars`, and it rides an [`Message::AccMeta`] frame per
//! leg, so epoch statistics are bit-identical too.
//!
//! # Buffers and flushes
//!
//! The chain allocates nothing. Every span is the caller's
//! buffer and is filled **in place**: an incoming chunk is decoded
//! straight into its slice, a summed span's fold runs on it there, and
//! the slice is encoded from there. Every frame, inbound and outbound,
//! passes through the one caller-owned `frame` buffer, which is free for
//! reuse as soon as the call that filled it returns.
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
use std::ops::Range;

use spg_convnet::sgd::BatchAcc;

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
    /// Ordered chain-in-ring: bit-identical to the single-process trainer.
    Ring,
}

/// One sample's dense contribution to [`ring_allreduce`].
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

/// The form a span of a step's layout takes on the chain (see the
/// module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Span {
    /// A running sum each rank folds its block onto.
    Summed,
    /// The gradient record of the sample at this batch position.
    Record(usize),
}

/// One rank's side of one batch's chain: the step's layout — spans in
/// wire order, each backed by a contiguous buffer that every rank sizes
/// alike — and what this rank adds to it. The records of this rank's own
/// samples are in their spans' buffers before the chain starts.
pub(crate) trait Step {
    /// This rank's block of batch positions.
    fn block(&self) -> Range<usize>;

    /// How many spans the layout has.
    fn spans(&self) -> usize;

    /// Span `k`: its form and its buffer.
    fn span(&mut self, k: usize) -> (Span, &mut [f32]);

    /// Folds this rank's block, in sample order, onto summed span `k`'s
    /// buffer.
    fn fold(&mut self, k: usize);

    /// Folds this rank's block's scalars onto `acc`, in sample order.
    fn fold_scalars(&self, acc: &mut BatchAcc);
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
/// every frame is sequence-checked against, the chunk size, the reused
/// frame buffer and the bytes sent so far.
struct Ring<'l, 'a> {
    link: &'l mut RingLink<'a>,
    epoch: u32,
    batch: u32,
    chunk_floats: usize,
    frame: &'l mut Vec<u8>,
    sent: u64,
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

    /// Queues the accumulator as one `AccMeta` frame.
    fn send_meta(&mut self, acc: &BatchAcc) -> Result<(), ClusterError> {
        let meta = encode_frame(&Message::AccMeta {
            epoch: self.epoch,
            batch: self.batch,
            loss_sum_bits: acc.loss_sum.to_bits(),
            correct: u64::try_from(acc.correct).expect("correct count fits u64"),
            sparsity_bits: acc.sparsity_sums.iter().map(|s| s.to_bits()).collect(),
        });
        self.link.tx_next.write_all(&meta).map_err(|e| self.wire_err(e.into()))?;
        self.sent += meta.len() as u64;
        Ok(())
    }

    /// Receives an `AccMeta` frame, sequence-checked, into `acc`, whose
    /// conv layers it must count.
    fn recv_meta(&mut self, acc: &mut BatchAcc) -> Result<(), ClusterError> {
        self.recv()?;
        match decode_frame(self.frame).map_err(|e| self.wire_err(e))?.0 {
            Message::AccMeta { epoch, batch, loss_sum_bits, correct, sparsity_bits } => {
                self.check_seq(epoch, batch)?;
                if sparsity_bits.len() != acc.sparsity_sums.len() {
                    return Err(self.protocol(format!(
                        "AccMeta carries {} sparsity sums for {} conv layers",
                        sparsity_bits.len(),
                        acc.sparsity_sums.len()
                    )));
                }
                acc.loss_sum = f64::from_bits(loss_sum_bits);
                acc.correct = usize::try_from(correct).map_err(|e| self.protocol(e.to_string()))?;
                for (sum, bits) in acc.sparsity_sums.iter_mut().zip(sparsity_bits) {
                    *sum = f64::from_bits(bits);
                }
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
        self.link.tx_next.write_all(self.frame).map_err(|e| self.wire_err(e.into()))?;
        self.sent += self.frame.len() as u64;
        Ok(())
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

    /// Carries one span through this rank on one leg, chunk by chunk:
    /// each chunk is received into place when `rx` counts the leg's
    /// received chunks, then sent on when `tx` counts its sent ones.
    fn relay(
        &mut self,
        broadcast: bool,
        span: &mut [f32],
        mut rx: Option<&mut usize>,
        mut tx: Option<&mut usize>,
    ) -> Result<(), ClusterError> {
        for slice in span.chunks_mut(self.chunk_floats) {
            if let Some(c) = rx.as_deref_mut() {
                self.recv_chunk_into(broadcast, *c, slice)?;
                *c += 1;
            }
            if let Some(c) = tx.as_deref_mut() {
                self.send_chunk(broadcast, *c, slice)?;
                *c += 1;
            }
        }
        Ok(())
    }
}

/// Runs the ordered chain-in-ring all-reduce for one batch, in place.
///
/// `acc` enters zeroed, as the trainer's loop hands it to a fold. On
/// return every summed span of `step` holds the batch's sum, every record
/// span the record of its sample, and `acc` the batch's scalars —
/// identical, bit for bit, on every rank, and equal to what the
/// single-process trainer computes for the same batch. What the spans
/// (other than this rank's own records) held on entry is irrelevant.
/// `frame` is scratch (see the module docs for the buffer and
/// flush rules); the call allocates nothing that grows with the
/// gradient. Records `cluster.ring.wire_bytes`: the bytes this rank sent.
///
/// # Errors
///
/// [`ClusterError::RingFault`] when a neighbor drops mid-reduce (the
/// typed mid-all-reduce failure the recovery drill exercises) and
/// [`ClusterError::Protocol`] on sequence violations, including a chunk
/// whose float count is not this rank's (mismatched `chunk_floats`).
pub(crate) fn ring_allreduce_into(
    link: &mut RingLink<'_>,
    epoch: u32,
    batch: u32,
    step: &mut impl Step,
    acc: &mut BatchAcc,
    chunk_floats: usize,
    frame: &mut Vec<u8>,
) -> Result<(), ClusterError> {
    let (first, last) = (link.rank == 0, link.rank == link.world - 1);
    let mut ring = Ring { link, epoch, batch, chunk_floats: chunk_floats.max(1), frame, sent: 0 };
    let block = step.block();

    // ---- Reduce leg: 0 → 1 → … → W-1, adding blocks in rank order. ----
    if !first {
        ring.recv_meta(acc)?;
    }
    step.fold_scalars(acc);
    if !last {
        ring.send_meta(acc)?;
    }
    let (mut rx, mut tx) = (0, 0);
    for k in 0..step.spans() {
        let (form, span) = step.span(k);
        // A sum arrives from every rank but the first; a record only if
        // its sample precedes this rank's block. Both go on unless this
        // rank is the last, a record only once its sample is added.
        let (recv, send) = match form {
            Span::Summed => (!first, !last),
            Span::Record(s) => (s < block.start, s < block.end && !last),
        };
        if form == Span::Summed {
            // The first rank folds onto zeros, whatever the buffer held.
            if first {
                span.fill(0.0);
            }
            ring.relay(false, span, recv.then_some(&mut rx), None)?;
            step.fold(k);
            if send {
                ring.relay(false, step.span(k).1, None, Some(&mut tx))?;
            }
        } else {
            ring.relay(false, span, recv.then_some(&mut rx), send.then_some(&mut tx))?;
        }
    }
    ring.flush()?;
    if !last {
        spg_telemetry::record_counter("cluster.ring.reduce_chunks", tx as u64);
    }

    // ---- Broadcast leg: W-1 → 0 → 1 → … → W-2, every span whole. ----
    // A rank sends unless its next rank is the leg's origin W-1 (which
    // at W = 1 is the rank itself: no traffic at all).
    let forward = (ring.link.rank + 1) % ring.link.world != ring.link.world - 1;
    if !last {
        ring.recv_meta(acc)?;
    }
    if forward {
        ring.send_meta(acc)?;
    }
    let (mut rx, mut tx) = (0, 0);
    for k in 0..step.spans() {
        let span = step.span(k).1;
        ring.relay(true, span, (!last).then_some(&mut rx), forward.then_some(&mut tx))?;
    }
    ring.flush()?;
    if forward {
        spg_telemetry::record_counter("cluster.ring.broadcast_chunks", tx as u64);
    }
    spg_telemetry::record_counter("cluster.ring.wire_bytes", ring.sent);
    spg_telemetry::record_counter("cluster.ring.batches", 1);
    Ok(())
}

/// The dense entry's step: the whole gradient summed, one span per
/// chunk so that each chunk is folded and forwarded as soon as it
/// arrives, and every sample a dense [`SampleGrad`].
struct Dense<'a> {
    samples: &'a [SampleGrad],
    grads: &'a mut [f32],
    span: usize,
}

impl Dense<'_> {
    /// The gradient elements span `k` covers.
    fn range(&self, k: usize) -> Range<usize> {
        k * self.span..((k + 1) * self.span).min(self.grads.len())
    }
}

impl Step for Dense<'_> {
    fn block(&self) -> Range<usize> {
        0..0
    }

    fn spans(&self) -> usize {
        self.grads.len().div_ceil(self.span)
    }

    fn span(&mut self, k: usize) -> (Span, &mut [f32]) {
        let range = self.range(k);
        (Span::Summed, &mut self.grads[range])
    }

    fn fold(&mut self, k: usize) {
        let range = self.range(k);
        let sum = &mut self.grads[range.clone()];
        for s in self.samples {
            for (a, &g) in sum.iter_mut().zip(&s.grads[range.clone()]) {
                *a += g;
            }
        }
    }

    fn fold_scalars(&self, acc: &mut BatchAcc) {
        for s in self.samples {
            acc.add_scalars(&[(s.loss, s.correct)], &s.sparsity);
        }
    }
}

/// The all-reduce of dense per-sample gradients: `samples` are this
/// rank's contributions in its local sample order, each at least
/// `grad_len` floats and `conv_count` sparsities; the whole gradient
/// crosses the chain summed. Allocates the summed gradient (`grad_len`
/// floats), the accumulator and the frame buffer per call and returns the
/// first two.
///
/// # Errors
///
/// [`ClusterError::RingFault`] when a neighbor drops mid-reduce and
/// [`ClusterError::Protocol`] on sequence violations, including a chunk
/// whose float count is not this rank's (mismatched `chunk_floats`).
///
/// # Panics
///
/// Panics if a sample's gradient is shorter than `grad_len`, or its
/// sparsities are not `conv_count`.
pub fn ring_allreduce(
    link: &mut RingLink<'_>,
    epoch: u32,
    batch: u32,
    samples: &[SampleGrad],
    grad_len: usize,
    conv_count: usize,
    chunk_floats: usize,
) -> Result<(Vec<f32>, BatchAcc), ClusterError> {
    let (mut grads, mut acc) = (vec![0.0; grad_len], BatchAcc::new(conv_count));
    let mut dense = Dense { samples, grads: &mut grads, span: chunk_floats.max(1) };
    ring_allreduce_into(link, epoch, batch, &mut dense, &mut acc, chunk_floats, &mut Vec::new())?;
    Ok((grads, acc))
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

    /// A summed gradient and the batch's scalars.
    type Reduced = (Vec<f32>, BatchAcc);

    /// The oracle: the single-process pool's fold (global sample order).
    fn sequential_fold(blocks: &[Vec<SampleGrad>], grad_len: usize) -> Reduced {
        let (mut grads, mut acc) = (vec![0.0; grad_len], BatchAcc::new(1));
        for s in blocks.iter().flatten() {
            acc.add_scalars(&[(s.loss, s.correct)], &s.sparsity);
            for (a, &g) in grads.iter_mut().zip(&s.grads) {
                *a += g;
            }
        }
        (grads, acc)
    }

    fn assert_bit_equal((grads, acc): &Reduced, (want_grads, want): &Reduced, what: &str) {
        assert_eq!(acc.loss_sum.to_bits(), want.loss_sum.to_bits(), "{what}: loss");
        assert_eq!(acc.correct, want.correct, "{what}: correct");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(grads), bits(want_grads), "{what}: grads");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&acc.sparsity_sums), bits(&want.sparsity_sums), "{what}: sparsity");
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
    ) -> Vec<Result<Reduced, ClusterError>> {
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
                        let mut grads = vec![0.0; grad_len];
                        let mut frame = Vec::new();
                        let mut sized = None;
                        for (b, blocks) in per_batch.iter().enumerate() {
                            let batch = u32::try_from(b).unwrap();
                            let samples = &blocks[rank];
                            let mut acc = BatchAcc::new(1);
                            let mut dense = Dense { samples, grads: &mut grads, span: chunk };
                            ring_allreduce_into(
                                &mut link, 1, batch, &mut dense, &mut acc, chunk, &mut frame,
                            )
                            .unwrap();
                            let what = format!("world {world} rank {rank} batch {b}");
                            assert_bit_equal(&(grads.clone(), acc), &expect[b], &what);
                            let now = (frame.as_ptr(), frame.capacity(), grads.as_ptr());
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
        meta_with(epoch, vec![0])
    }

    fn meta_with(epoch: u32, sparsity_bits: Vec<u64>) -> Vec<u8> {
        encode_frame(&Message::AccMeta {
            epoch,
            batch: 0,
            loss_sum_bits: 0,
            correct: 0,
            sparsity_bits,
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

    /// The scalars land in the trainer's own accumulator, sized for the
    /// rank's conv layers: a peer that sends another count of sparsity
    /// sums is refused, not truncated or grown.
    #[test]
    fn a_wrong_sparsity_count_is_a_typed_protocol_error() {
        for sums in [vec![], vec![0, 0]] {
            let err = rank1_fed(&[meta_with(1, sums.clone())], 4, 4);
            assert!(matches!(err, ClusterError::Protocol { rank: 1, .. }), "{sums:?}: {err:?}");
        }
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
