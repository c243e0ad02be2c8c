//! Planned, reusable execution workspaces.
//!
//! The paper's scalability argument (Sec. 3.2/4.1) is that GEMM-in-Parallel
//! preserves each core's *full* arithmetic intensity. Re-allocating unfold
//! matrices, staging buffers, and gradient accumulators on every sample
//! squanders that: the allocator serializes cores on shared locks and cold
//! pages evict the very operands whose reuse the schedule protects. This
//! module provides the two pool types that make steady-state training
//! allocation-free:
//!
//! * [`ConvScratch`] — per-call scratch for a
//!   [`ConvExecutor`](crate::exec::ConvExecutor): the backward-data
//!   patch-space gradient, GEMM pack buffers, HWC staging, the
//!   permuted-order weight-gradient accumulator, the compacted non-zeros
//!   and CT-CSR staging. Buffers grow on first use (warm-up) and are
//!   recycled afterwards.
//! * [`Workspace`] — everything a block of training samples needs end to
//!   end except its gradient records: an activation trace, ping-pong
//!   error-gradient buffers, and one shared [`ConvScratch`]. The block
//!   runner (`sgd::LocalFold`, in the trainer and in every ring rank) owns
//!   one `Workspace` per sample thread for the lifetime of training. The
//!   records belong to that fold too, one set per batch position, shaped
//!   by [`record_buffers`]; a ring's chain writes the positions other
//!   ranks ran into the same sets.
//!
//! The same argument sizes the records. A fully-connected layer's
//! per-sample weight gradient is a rank-1 product: written out, the
//! ImageNet-1K classifier's (20 736 x 1000) is 83 MB stored to perform
//! 20.7 M multiplies — 4 bytes per flop before anything reads it back —
//! and the old step moved it four more times (copy to a result slot, add
//! into the accumulator, the accumulator's own zero-fill): about 2.7 GB
//! per 4-sample step for 166 Mflop of useful work, and `batch + workers`
//! resident copies. The record ([`Layer::grad_record_len`]) of that layer
//! is its two factors, 21 736 floats; the product is formed once per
//! batch inside the trainer's update pass, one cache-sized tile at a
//! time, and applied to the weights from the tile, so no parameter-sized
//! batch gradient is ever stored.
//!
//! [`Layer::grad_record_len`]: crate::layer::Layer::grad_record_len

use spg_tensor::sparse::CtCsr;
use spg_tensor::Tensor;

use crate::net::{Network, SampleTrace};
use crate::ConvSpec;

/// Resizes `buf` to `len` zeros, reusing its allocation, and returns it as
/// a slice.
///
/// This is the buffer-recycling primitive the workspace-threaded kernels
/// use for `Vec<f32>` scratch: after warm-up the capacity is stable and no
/// heap allocation occurs.
pub fn zeroed_slice(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    buf.clear();
    buf.resize(len, 0.0);
    &mut buf[..]
}

/// Per-call scratch buffers for the convolution executors.
///
/// One `ConvScratch` serves every conv layer of a network: each executor
/// call resizes the buffers it needs to the layer's geometry (a zero-cost
/// reshape once capacities have warmed up to the largest layer). The
/// fields are public so executor implementations outside this crate — the
/// stencil and sparse kernels and the autotuner's compiled executor in
/// `spg-core` — can stage through the same pool.
///
/// # The core budget
///
/// [`cores`](ConvScratch::cores) is how many cores this call may spend
/// *inside one sample*. It is not a setting: the code that walks a network
/// derives it from what it knows — `(workers, samples in flight)` — and it
/// travels to every layer with the scratch the layer already receives. A
/// trainer sample thread, a serving worker and a worker of a saturated
/// inference batch own one core each and keep the default 1;
/// [`Engine::forward`](crate::Engine::forward) has the engine's workers
/// and one sample, and passes them all; [`Network::infer_batch`] divides
/// its threads among fewer inputs. Layers that can split a sample — a
/// conv plan proved for `n` regions, the fully-connected layer's rows —
/// run on `min(n, cores)` threads, and at 1 run the sequential program.
/// The ReLU, the max-pool and the fold behind a GEMM backward split their
/// output over up to `cores` threads when each part carries enough work
/// to pay for its thread.
#[derive(Debug)]
pub struct ConvScratch {
    /// Cores the current call may spend inside one sample (at least 1);
    /// see the type-level docs. Set by whoever walks the network.
    pub cores: usize,
    /// Patch-space gradient `E_U` (or `E_U^T`) for the backward-data
    /// fold; only grows, and its head holds the current layer's (the
    /// multiply that fills it stores every element, so it is never
    /// zeroed).
    pub mat_b: Vec<f32>,
    /// Input-sized HWC staging buffer.
    pub hwc_in: Vec<f32>,
    /// Output-sized HWC staging buffer.
    pub hwc_out: Vec<f32>,
    /// Permuted-order (`[f][ky][kx][c]`) weight-gradient accumulator of
    /// the sparse backward-weights kernel. (Permuted *weights* are per
    /// update, not per sample: they live in the layer's
    /// [`PreparedWeights`](crate::exec::PreparedWeights).)
    pub wperm: Vec<f32>,
    /// One feature's non-zero output gradients as `(input window offset,
    /// value)`, compacted by the sparse backward-weights kernel; one entry
    /// per output position.
    pub nonzeros: Vec<(u32, f32)>,
    /// CT-CSR staging for the sparse backward-data kernel, rebuilt in place.
    pub ctcsr: CtCsr,
    /// GEMM panel-packing buffer (left operand).
    pub pack_a: Vec<f32>,
    /// GEMM panel-packing buffer (right operand).
    pub pack_b: Vec<f32>,
}

impl Default for ConvScratch {
    fn default() -> Self {
        ConvScratch {
            cores: 1,
            mat_b: Vec::new(),
            hwc_in: Vec::new(),
            hwc_out: Vec::new(),
            wperm: Vec::new(),
            nonzeros: Vec::new(),
            ctcsr: CtCsr::default(),
            pack_a: Vec::new(),
            pack_b: Vec::new(),
        }
    }
}

impl ConvScratch {
    /// Creates an empty scratch whose buffers grow on first use, with a
    /// core budget of 1.
    pub fn new() -> Self {
        ConvScratch::default()
    }

    /// Creates an empty scratch with a core budget of `cores`: what a walk
    /// that owns `cores` cores for one sample hands its layers. (A
    /// [`new`](ConvScratch::new) scratch runs every layer's sequential
    /// program.)
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn with_cores(cores: usize) -> Self {
        assert!(cores > 0, "a core budget is at least 1");
        ConvScratch { cores, ..ConvScratch::default() }
    }

    /// Pre-grows every geometry-determined buffer for `spec`, so the first
    /// sample through a layer of this shape allocates nothing.
    ///
    /// The sparse backward's storage (the compacted non-zeros, the CT-CSR
    /// tiles) and the GEMM pack buffers still warm up on first use.
    pub fn reserve(&mut self, spec: &ConvSpec) {
        let [mat_b, hwc_in, hwc_out, wperm] = Self::reserved_lengths(spec);
        let bufs = [&mut self.mat_b, &mut self.hwc_in, &mut self.hwc_out, &mut self.wperm];
        for (buf, len) in bufs.into_iter().zip([mat_b, hwc_in, hwc_out, wperm]) {
            if buf.len() < len {
                zeroed_slice(buf, len);
            }
        }
    }

    /// The lengths [`reserve`](Self::reserve) grows `[mat_b, hwc_in,
    /// hwc_out, wperm]` to for `spec`: one patch row per output position,
    /// the input and output images, the weights. `spg-check`'s capacity
    /// model reads the same figures.
    pub fn reserved_lengths(spec: &ConvSpec) -> [usize; 4] {
        [
            spec.out_h() * spec.out_w() * spec.weight_shape().per_feature(),
            spec.input_shape().len(),
            spec.output_shape().len(),
            spec.weight_shape().len(),
        ]
    }

    /// Current footprint of the scratch buffers in bytes.
    ///
    /// Reported to the telemetry workspace gauge per (layer, phase); after
    /// warm-up this is the steady-state scratch memory of the executor.
    pub fn bytes(&self) -> usize {
        (self.mat_b.len()
            + self.hwc_in.len()
            + self.hwc_out.len()
            + self.wperm.len()
            + self.pack_a.len()
            + self.pack_b.len())
            * std::mem::size_of::<f32>()
            + self.nonzeros.len() * std::mem::size_of::<(u32, f32)>()
            + self.ctcsr.storage_bytes()
    }
}

/// Everything a block of training samples needs but its gradient
/// records, preallocated; the samples share the scratch.
///
/// The trainer builds one `Workspace` per sample thread from the network's
/// geometry and reuses it for every block the thread walks. A walk over a
/// block of `k` samples ([`process_block`](crate::sgd::process_block))
/// grows the trace and the error-gradient buffers to `k` samples back to
/// back on its first call and reuses them after; its records, scalars and
/// sparsities go to slots the caller owns ([`record_buffers`]).
#[derive(Debug)]
pub struct Workspace {
    /// Reusable activation trace: the last block's inputs and every
    /// layer's outputs, sample after sample.
    pub trace: SampleTrace,
    /// Executor scratch shared by all layers (and all samples of a block).
    pub scratch: ConvScratch,
    /// Ping-pong error-gradient buffers, one longest activation per sample.
    pub(crate) grad_a: Tensor,
    pub(crate) grad_b: Tensor,
    /// One layer's records of a block's samples while that layer writes
    /// them in the backward walk; empty tensors between layers.
    pub(crate) staging: Vec<Tensor>,
}

/// Floats in the longest activation of `net`, input or output of a layer:
/// one sample's share of the error-gradient ping-pong buffers.
fn longest_activation(net: &Network) -> usize {
    net.layers().iter().map(|l| l.input_len().max(l.output_len())).max().unwrap_or(0)
}

impl Workspace {
    /// Plans a workspace for one sample of `net`: preallocates the
    /// activation trace, the gradient ping-pong buffers and conv scratch
    /// sized for the largest conv layer.
    pub fn for_network(net: &Network) -> Self {
        let trace = SampleTrace::for_network(net);
        let max_act = longest_activation(net);
        let mut scratch = ConvScratch::new();
        for layer in net.layers() {
            if let Some(spec) = layer.conv_spec() {
                scratch.reserve(spec);
            }
        }
        Workspace {
            trace,
            scratch,
            grad_a: Tensor::zeros(max_act),
            grad_b: Tensor::zeros(max_act),
            staging: vec![Tensor::default()],
        }
    }

    /// Shapes the per-sample buffers for a walk over `k` samples of `net`.
    /// A buffer already that long keeps its contents; one that changes
    /// length is zeroed, and reuses its allocation once it has held `k`
    /// samples.
    pub(crate) fn shape_block(&mut self, net: &Network, k: usize) {
        fn shape(t: &mut Tensor, len: usize) {
            if t.len() != len {
                let mut data = std::mem::take(t).into_vec();
                data.clear();
                data.resize(len, 0.0);
                *t = Tensor::from_vec(data);
            }
        }
        let acts = &mut self.trace.activations;
        shape(&mut acts[0], k * net.input_len());
        for (act, layer) in acts[1..].iter_mut().zip(net.layers()) {
            shape(act, k * layer.output_len());
        }
        let max_act = longest_activation(net);
        shape(&mut self.grad_a, k * max_act);
        shape(&mut self.grad_b, k * max_act);
    }

    /// Current footprint of all workspace buffers in bytes.
    pub fn bytes(&self) -> usize {
        let acts: usize = self.trace.activations.iter().map(Tensor::len).sum();
        (acts + self.grad_a.len() + self.grad_b.len()) * std::mem::size_of::<f32>()
            + self.scratch.bytes()
    }
}

/// One sample's record set: a zeroed gradient-record buffer per layer of
/// `net`, [`grad_record_len`](crate::layer::Layer::grad_record_len) long
/// (empty for parameter-free layers) — what
/// [`process_block`](crate::sgd::process_block) fills for each sample.
pub fn record_buffers(net: &Network) -> Vec<Tensor> {
    net.layers().iter().map(|l| Tensor::zeros(l.grad_record_len())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_slice_recycles_capacity() {
        let mut buf = Vec::new();
        {
            let s = zeroed_slice(&mut buf, 64);
            s.iter_mut().for_each(|v| *v = 3.0);
        }
        let cap = buf.capacity();
        let s = zeroed_slice(&mut buf, 32);
        assert_eq!(s.len(), 32);
        assert!(s.iter().all(|v| *v == 0.0));
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn reserve_sizes_buffers_for_spec() {
        let spec = ConvSpec::new(3, 8, 8, 4, 3, 3, 2, 2).unwrap();
        let mut scratch = ConvScratch::new();
        scratch.reserve(&spec);
        let patches = spec.out_h() * spec.out_w();
        let patch_len = spec.weight_shape().per_feature();
        assert!(scratch.mat_b.len() >= patches * patch_len);
        assert!(scratch.hwc_in.len() >= spec.input_shape().len());
        assert_eq!(scratch.hwc_out.len(), spec.output_shape().len());
        assert_eq!(scratch.wperm.len(), spec.weight_shape().len());
        assert!(scratch.bytes() > 0);
    }
}
