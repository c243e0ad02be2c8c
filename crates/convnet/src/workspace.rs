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
//!   [`ConvExecutor`](crate::exec::ConvExecutor): unfold matrices, GEMM
//!   pack buffers, HWC staging, the permuted-order weight-gradient
//!   accumulator, and CT-CSR staging. Buffers grow on first use (warm-up)
//!   and are recycled afterwards.
//! * [`Workspace`] — everything one training sample needs end to end:
//!   an activation trace, ping-pong error-gradient buffers, per-layer
//!   gradient-*record* buffers, and one shared [`ConvScratch`]. The
//!   trainer's persistent worker pool owns one `Workspace` per worker for
//!   the lifetime of training.
//!
//! The same argument sizes the record buffers. A fully-connected layer's
//! per-sample weight gradient is a rank-1 product: written out, the
//! ImageNet-1K classifier's (20 736 x 1000) is 83 MB stored to perform
//! 20.7 M multiplies — 4 bytes per flop before anything reads it back —
//! and the old step moved it four more times (copy to a result slot, add
//! into the accumulator, the accumulator's own zero-fill): about 2.7 GB
//! per 4-sample step for 166 Mflop of useful work, and `batch + workers`
//! resident copies. The record ([`Layer::grad_record_len`]) of that layer
//! is its two factors, 21 736 floats; the product is formed once per
//! batch inside [`fold_records`], tile by tile, so the step writes the
//! 97 MB accumulator once (about 1 byte per multiply-add at batch 4,
//! falling as 1/batch) and a workspace is 86 MB instead of 174 MB.
//!
//! [`Layer::grad_record_len`]: crate::layer::Layer::grad_record_len
//! [`fold_records`]: crate::sgd::fold_records

use spg_tensor::sparse::CtCsr;
use spg_tensor::{Matrix, Tensor};

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
/// trainer pool worker, a serving worker and a worker of a saturated
/// inference batch own one core each and keep the default 1;
/// [`Engine::forward`](crate::Engine::forward) has the engine's workers
/// and one sample, and passes them all; [`Network::infer_batch`] divides
/// its threads among fewer inputs. Layers that can split a sample — a
/// conv plan proved for `n` regions, the fully-connected layer's rows —
/// run on `min(n, cores)` threads, and at 1 run the sequential program.
#[derive(Debug)]
pub struct ConvScratch {
    /// Cores the current call may spend inside one sample (at least 1);
    /// see the type-level docs. Set by whoever walks the network.
    pub cores: usize,
    /// Patch-matrix scratch: the unfold matrix `U` / `U^T`, or the
    /// transposed gradient `E_O^T` in the Parallel-GEMM backward path.
    pub mat_a: Matrix,
    /// Patch-space gradient `E_U` for the backward-data fold.
    pub mat_b: Matrix,
    /// Input-sized HWC / phased staging buffer.
    pub hwc_in: Vec<f32>,
    /// Output-sized HWC staging buffer.
    pub hwc_out: Vec<f32>,
    /// Permuted-order (`kkfc`) weight-gradient accumulator of the sparse
    /// backward-weights kernel. (Permuted *weights* are per update, not
    /// per sample: they live in the layer's
    /// [`PreparedWeights`](crate::exec::PreparedWeights).)
    pub wperm: Vec<f32>,
    /// CT-CSR staging for the sparse backward kernels, rebuilt in place.
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
            mat_a: Matrix::default(),
            mat_b: Matrix::default(),
            hwc_in: Vec::new(),
            hwc_out: Vec::new(),
            wperm: Vec::new(),
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

    /// Pre-grows every geometry-determined buffer for `spec`, so the first
    /// sample through a layer of this shape allocates nothing.
    ///
    /// Sparsity-dependent storage (the CT-CSR tiles, the GEMM pack
    /// buffers) still warms up on first use.
    pub fn reserve(&mut self, spec: &ConvSpec) {
        let patches = spec.out_h() * spec.out_w();
        let patch_len = spec.weight_shape().per_feature();
        let unfold_area = patches * patch_len.max(spec.features());
        if self.mat_a.len() < unfold_area {
            self.mat_a.resize(patches, patch_len.max(spec.features()));
        }
        if self.mat_b.len() < patches * patch_len {
            self.mat_b.resize(patches, patch_len);
        }
        // The strided stencil path stages a phased copy of the input whose
        // padded length can exceed the input itself.
        let ishape = spec.input_shape();
        let phased = ishape.c * ishape.h * spec.sx() * ishape.w.div_ceil(spec.sx());
        let in_len = ishape.len().max(phased);
        if self.hwc_in.len() < in_len {
            zeroed_slice(&mut self.hwc_in, in_len);
        }
        let out_len = spec.output_shape().len();
        if self.hwc_out.len() < out_len {
            zeroed_slice(&mut self.hwc_out, out_len);
        }
        let w_len = spec.weight_shape().len();
        if self.wperm.len() < w_len {
            zeroed_slice(&mut self.wperm, w_len);
        }
    }

    /// Current footprint of the scratch buffers in bytes.
    ///
    /// Reported to the telemetry workspace gauge per (layer, phase); after
    /// warm-up this is the steady-state scratch memory of the executor.
    pub fn bytes(&self) -> usize {
        (self.mat_a.len()
            + self.mat_b.len()
            + self.hwc_in.len()
            + self.hwc_out.len()
            + self.wperm.len()
            + self.pack_a.len()
            + self.pack_b.len())
            * std::mem::size_of::<f32>()
            + self.ctcsr.storage_bytes()
    }
}

/// Everything one training sample needs, preallocated.
///
/// The trainer's worker pool builds one `Workspace` per worker from the
/// network's geometry and reuses it for every sample the worker processes;
/// [`Network::forward_into`] and [`Network::backward_into`] run entirely
/// out of these buffers.
#[derive(Debug)]
pub struct Workspace {
    /// Reusable activation trace filled by [`Network::forward_into`].
    pub trace: SampleTrace,
    /// Per-layer gradient records, each
    /// [`grad_record_len`](crate::layer::Layer::grad_record_len) long
    /// (empty tensors for parameter-free layers), overwritten by
    /// [`Network::backward_into`].
    pub param_grads: Vec<Tensor>,
    /// Output-side gradient sparsity observed per layer during backward.
    pub grad_sparsity: Vec<f64>,
    /// Executor scratch shared by all layers.
    pub scratch: ConvScratch,
    /// Ping-pong error-gradient buffers sized to the longest activation.
    pub(crate) grad_a: Tensor,
    pub(crate) grad_b: Tensor,
}

/// One zeroed gradient-record buffer per layer of `net`: what one sample's
/// [`Network::backward_into`] fills.
pub(crate) fn record_buffers(net: &Network) -> Vec<Tensor> {
    net.layers().iter().map(|l| Tensor::zeros(l.grad_record_len())).collect()
}

impl Workspace {
    /// Plans a workspace for `net`: preallocates the activation trace, the
    /// gradient ping-pong buffers, one gradient-record buffer per layer,
    /// and conv scratch sized for the largest conv layer.
    pub fn for_network(net: &Network) -> Self {
        let trace = SampleTrace::for_network(net);
        let max_act =
            net.layers().iter().map(|l| l.input_len().max(l.output_len())).max().unwrap_or(0);
        let param_grads = record_buffers(net);
        let grad_sparsity = vec![0.0; net.layers().len()];
        let mut scratch = ConvScratch::new();
        for layer in net.layers() {
            if let Some(spec) = layer.conv_spec() {
                scratch.reserve(spec);
            }
        }
        Workspace {
            trace,
            param_grads,
            grad_sparsity,
            scratch,
            grad_a: Tensor::zeros(max_act),
            grad_b: Tensor::zeros(max_act),
        }
    }

    /// Current footprint of all workspace buffers in bytes.
    pub fn bytes(&self) -> usize {
        let acts: usize = self.trace.activations.iter().map(Tensor::len).sum();
        let grads: usize = self.param_grads.iter().map(Tensor::len).sum();
        (acts + grads + self.grad_a.len() + self.grad_b.len()) * std::mem::size_of::<f32>()
            + self.scratch.bytes()
    }
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
        assert!(scratch.mat_a.len() >= patches * patch_len);
        assert!(scratch.hwc_in.len() >= spec.input_shape().len());
        assert_eq!(scratch.hwc_out.len(), spec.output_shape().len());
        assert_eq!(scratch.wperm.len(), spec.weight_shape().len());
        assert!(scratch.bytes() > 0);
    }
}
