//! The layer zoo: convolution, ReLU, max-pooling, and fully-connected
//! layers behind one object-safe [`Layer`] trait.
//!
//! Layers are *stateless across samples*: each phase takes a block of
//! samples' activations, gradient records and scratch explicitly, so the
//! trainer can push many samples through shared layers on worker
//! threads (the GEMM-in-Parallel schedule) and apply accumulated parameter
//! gradients afterwards. All per-sample buffers are caller-owned, which is
//! what makes steady-state training allocation-free.

use std::fmt;
use std::ops::Range;

use rand::Rng;
use spg_gemm::{FcKernels, SimdLevel};
use spg_tensor::{Shape3, Tensor};

use crate::exec::{PreparedWeights, SharedExecutor, UnfoldGemmExecutor};
use crate::rows::{self, HOST};
use crate::split;
use crate::workspace::ConvScratch;
use crate::{ConvError, ConvSpec};

/// A differentiable network layer.
///
/// A layer implements each phase once, over a *block* of samples stored
/// back to back: [`forward_block`](Layer::forward_block) writes the
/// block's outputs from its inputs; [`backward_block`](Layer::backward_block)
/// writes their input gradients from the saved activations and the output
/// gradients, and overwrites one gradient *record* per sample (ignored by
/// parameter-free layers). Both stage any intermediates in the caller's
/// [`ConvScratch`] instead of allocating. The training walk runs a block
/// layer by layer; [`forward`](Layer::forward) and
/// [`backward`](Layer::backward) are a block of one. A layer that can share
/// work across the block does — [`FcLayer`] loads each weight row once for
/// the whole block, ReLU and max-pool run it in one call — and one that
/// cannot loops over its samples. Either way every sample gets the bits a
/// block of one gives it.
///
/// # Gradient records
///
/// What `backward_block` leaves in a record is whatever the layer needs to
/// add that sample's parameter gradient into an accumulator later — not
/// necessarily the gradient itself. The layer's
/// [`record_format`](Layer::record_format) names the layout, and the fold
/// reads records through it ([`RecordFormat::add_grads`]): by default the
/// record *is* the dense gradient ([`ConvLayer`]); [`FcLayer`]'s is the two
/// factors of its rank-1 gradient. A layer that wraps another and forwards
/// `backward_block` must forward `record_format` as well, or the fold
/// misreads the inner layer's records.
///
/// # Updates
///
/// The trainer's update pass writes the parameters in place through
/// [`params_mut`](Layer::params_mut), range by range and possibly from
/// several threads, then calls [`finish_update`](Layer::finish_update) once
/// on the thread that owns the network.
pub trait Layer: Send + Sync + fmt::Debug {
    /// Short human-readable layer name.
    fn name(&self) -> &str;

    /// Number of input activations the layer expects.
    fn input_len(&self) -> usize;

    /// Number of output activations the layer produces.
    fn output_len(&self) -> usize;

    /// Forward propagation for a block of samples: `inputs` holds them
    /// back to back, [`input_len`](Layer::input_len) floats each, and
    /// `outputs` receives theirs the same way, overwritten.
    fn forward_block(&self, inputs: &[f32], outputs: &mut [f32], scratch: &mut ConvScratch);

    /// Backward propagation for a block of `records.len()` samples, stored
    /// back to back as in [`forward_block`](Layer::forward_block): sample
    /// `s` reads its slices of `inputs`, `outputs` (what `forward_block`
    /// wrote for those inputs; ReLU and max-pool read it) and `grad_outs`,
    /// and overwrites its slice of `grad_ins`. For layers with parameters
    /// the first [`grad_record_len`](Layer::grad_record_len) floats of
    /// `records[s]` are overwritten — every one of them, so a recycled
    /// buffer carries nothing over — with sample `s`'s gradient record.
    ///
    /// The training walk hands a convolution at layer 0 an *empty*
    /// `grad_ins`: nothing reads the gradient with respect to the image,
    /// and a layer that reports a [`conv_spec`](Layer::conv_spec) must then
    /// compute the records only.
    fn backward_block(
        &self,
        inputs: &[f32],
        outputs: &[f32],
        grad_outs: &[f32],
        grad_ins: &mut [f32],
        records: &mut [Tensor],
        scratch: &mut ConvScratch,
    );

    /// Forward propagation for one sample: a block of one.
    fn forward(&self, input: &[f32], output: &mut [f32], scratch: &mut ConvScratch) {
        self.forward_block(input, output, scratch);
    }

    /// Backward propagation for one sample: a block of one, whose record
    /// is `record`.
    fn backward(
        &self,
        input: &[f32],
        output: &[f32],
        grad_out: &[f32],
        grad_in: &mut [f32],
        record: &mut Tensor,
        scratch: &mut ConvScratch,
    ) {
        let records = std::slice::from_mut(record);
        self.backward_block(input, output, grad_out, grad_in, records, scratch);
    }

    /// Number of trainable parameters (0 for activation/pooling layers).
    fn param_count(&self) -> usize {
        0
    }

    /// How [`backward_block`](Layer::backward_block) lays out a sample's
    /// gradient record.
    fn record_format(&self) -> RecordFormat {
        RecordFormat::Dense
    }

    /// Floats in one sample's gradient record, as
    /// [`backward_block`](Layer::backward_block) writes it: [`Layer::param_count`]
    /// unless the [`record_format`](Layer::record_format) keeps something
    /// smaller than the dense gradient.
    fn grad_record_len(&self) -> usize {
        match self.record_format() {
            RecordFormat::Dense => self.param_count(),
            RecordFormat::Outer { in_len, out_len } => out_len + in_len,
        }
    }

    /// The convolution spec, for convolution layers only. The scheduler
    /// uses this to characterize and re-plan layers generically.
    fn conv_spec(&self) -> Option<&ConvSpec> {
        None
    }

    /// Access as a [`ConvLayer`], for convolution layers only: what a
    /// caller reads of the executors a network has installed.
    fn as_conv(&self) -> Option<&ConvLayer> {
        None
    }

    /// Mutable access as a [`ConvLayer`], for convolution layers only.
    /// The spg-CNN framework uses this to swap executors on a built
    /// network when re-tuning between epochs (Sec. 4.4).
    fn as_conv_mut(&mut self) -> Option<&mut ConvLayer> {
        None
    }

    /// Borrows the flattened trainable parameters, for layers that have
    /// them. Used by [`io`](crate::io) to persist trained models.
    fn params(&self) -> Option<&[f32]> {
        None
    }

    /// Borrows the flattened trainable parameters mutably, for layers that
    /// have them. A caller that writes through it must call
    /// [`finish_update`](Layer::finish_update) before the layer runs again.
    fn params_mut(&mut self) -> Option<&mut [f32]> {
        None
    }

    /// Refreshes whatever the layer derives from its parameters (a
    /// [`ConvLayer`]'s prepared weight copies) after they were written
    /// through [`params_mut`](Layer::params_mut).
    fn finish_update(&mut self) {}

    /// Replaces the flattened trainable parameters.
    ///
    /// # Panics
    ///
    /// Panics if the layer has parameters and `params.len() != param_count()`.
    fn set_params(&mut self, params: &[f32]) {
        if let Some(own) = self.params_mut() {
            assert_eq!(params.len(), own.len(), "parameter length");
            own.copy_from_slice(params);
            self.finish_update();
        }
    }
}

/// How a layer's gradient records map onto its flattened parameters.
///
/// A `Copy` value the fold reads instead of the layer, so the update pass
/// can sum records into a tile while it holds the layer's parameters
/// mutably.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordFormat {
    /// The record is the dense gradient, [`Layer::param_count`] floats.
    Dense,
    /// A fully-connected layer's `[δ (out_len) | x (in_len)]`: the weight
    /// gradient is `δ ⊗ x`, row-major `out_len x in_len`, followed by the
    /// bias gradient `δ`.
    Outer {
        /// Inputs per sample.
        in_len: usize,
        /// Outputs per sample.
        out_len: usize,
    },
}

impl RecordFormat {
    /// Adds elements `at..at + acc.len()` of each record's flattened
    /// parameter gradient to `acc`: `acc[k]` takes element `at + k` of
    /// every sample **in slice order, one rounded add per sample**, so a
    /// fold over any split of the parameters or of the sample list gives
    /// the bits of adding dense gradients one sample at a time. An `Outer`
    /// record's weight gradient is `δ[r] * x[c]` — multiply, then add,
    /// operation for operation what adding a dense `dW` would do.
    ///
    /// # Panics
    ///
    /// Panics if a record is too short for `at + acc.len()` parameters.
    pub fn add_grads(self, records: &[&[f32]], at: usize, acc: &mut [f32]) {
        let (n, out_len) = match self {
            RecordFormat::Dense => {
                let span = at..at + acc.len();
                for record in records {
                    for (a, g) in acc.iter_mut().zip(&record[span.clone()]) {
                        *a += g;
                    }
                }
                return;
            }
            RecordFormat::Outer { in_len, out_len } => (in_len, out_len),
        };
        let weights = n * out_len;
        assert!(at + acc.len() <= weights + out_len, "parameter range");
        let fc = FcKernels::host();
        let (mut at, mut rest) = (at, acc);
        // Weight rows the range touches; the first and last may be partial.
        while at < weights && !rest.is_empty() {
            let (r, c) = (at / n, at % n);
            let len = (n - c).min(rest.len());
            let (row, tail) = std::mem::take(&mut rest).split_at_mut(len);
            fc.fold(records, r, out_len + c, row);
            at += len;
            rest = tail;
        }
        // What is left lies in the bias rows, whose gradient is `δ` itself.
        if !rest.is_empty() {
            let first = at - weights;
            for record in records {
                for (a, delta) in rest.iter_mut().zip(&record[first..out_len]) {
                    *a += delta;
                }
            }
        }
    }
}

/// A convolution layer executing through pluggable
/// [`ConvExecutor`](crate::exec::ConvExecutor)s.
///
/// Forward and backward executors are independent because the paper's
/// framework picks them independently: e.g. Stencil-Kernel for FP and
/// Sparse-Kernel for BP on the same layer (Sec. 4.4).
///
/// The layer keeps its weights [prepared](PreparedWeights) for the
/// executors it holds: every `&mut self` entry that changes the weights or
/// an executor re-runs their [`prepare`] hook, so `forward`/`backward`
/// (`&self`, on any number of workers) only read.
///
/// [`prepare`]: crate::exec::ConvExecutor::prepare
pub struct ConvLayer {
    spec: ConvSpec,
    weights: PreparedWeights,
    fwd: SharedExecutor,
    bwd: SharedExecutor,
}

impl ConvLayer {
    /// Creates a convolution layer with small random weights and the
    /// default single-threaded `Unfold+GEMM` executor for both phases.
    pub fn new<R: Rng>(spec: ConvSpec, rng: &mut R) -> Self {
        let fan_in = spec.weight_shape().per_feature() as f32;
        let scale = (2.0 / fan_in).sqrt();
        let weights = Tensor::random_uniform(spec.weight_shape().len(), scale, rng);
        let exec: SharedExecutor = std::sync::Arc::new(UnfoldGemmExecutor);
        let weights = PreparedWeights::new(weights);
        let mut layer = ConvLayer { spec, weights, fwd: exec.clone(), bwd: exec };
        layer.prepare();
        layer
    }

    /// Drops the permuted weight copies and has both installed executors
    /// refill the ones they read. Runs wherever weights or executors
    /// change — all `&mut self`, so never while a sample is in flight.
    fn prepare(&mut self) {
        self.weights.clear_copies();
        self.fwd.prepare(&self.spec, &mut self.weights);
        self.bwd.prepare(&self.spec, &mut self.weights);
    }

    /// The convolution specification.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// Replaces the forward-phase executor.
    pub fn set_forward_executor(&mut self, exec: SharedExecutor) {
        self.fwd = exec;
        self.prepare();
    }

    /// Replaces the backward-phase executor (used for both error and
    /// weight-gradient computation).
    pub fn set_backward_executor(&mut self, exec: SharedExecutor) {
        self.bwd = exec;
        self.prepare();
    }

    /// Names of the current forward and backward executors.
    pub fn executor_names(&self) -> (String, String) {
        (self.fwd.name().to_owned(), self.bwd.name().to_owned())
    }
}

impl fmt::Debug for ConvLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ConvLayer({}, fwd={}, bwd={})", self.spec, self.fwd.name(), self.bwd.name())
    }
}

impl Layer for ConvLayer {
    fn name(&self) -> &str {
        "conv"
    }

    fn input_len(&self) -> usize {
        self.spec.input_shape().len()
    }

    fn output_len(&self) -> usize {
        self.spec.output_shape().len()
    }

    /// One executor call per sample.
    fn forward_block(&self, inputs: &[f32], outputs: &mut [f32], scratch: &mut ConvScratch) {
        let (n, m) = (self.input_len(), self.output_len());
        let k = inputs.len() / n;
        assert_eq!((inputs.len(), outputs.len()), (k * n, k * m), "block lengths");
        for (input, output) in inputs.chunks_exact(n).zip(outputs.chunks_exact_mut(m)) {
            self.fwd.forward(&self.spec, input, &self.weights, output, scratch);
            spg_telemetry::record_workspace_bytes(scratch.bytes() as u64);
        }
    }

    /// Sample by sample, both kernel sub-phases each.
    fn backward_block(
        &self,
        inputs: &[f32],
        _outputs: &[f32],
        grad_outs: &[f32],
        grad_ins: &mut [f32],
        records: &mut [Tensor],
        scratch: &mut ConvScratch,
    ) {
        let (n, m) = (self.input_len(), self.output_len());
        let gn = if grad_ins.is_empty() { 0 } else { n };
        for (s, record) in records.iter_mut().enumerate() {
            assert_eq!(record.len(), self.weights.fckk.len(), "parameter gradient length");
            let (input, grad_out) = (&inputs[s * n..(s + 1) * n], &grad_outs[s * m..(s + 1) * m]);
            // Split the two kernel sub-phases under the enclosing layer
            // scope so goodput is observable per kernel, not just per
            // layer. An empty `grad_ins` is layer 0's: nobody reads the
            // image gradient, and each sub-phase stages its own operands.
            if gn > 0 {
                let _telemetry = spg_telemetry::phase_scope(spg_telemetry::Phase::BackwardData);
                let grad_in = &mut grad_ins[s * gn..(s + 1) * gn];
                self.bwd.backward_data(&self.spec, &self.weights, grad_out, grad_in, scratch);
                spg_telemetry::record_workspace_bytes(scratch.bytes() as u64);
            }
            let _telemetry = spg_telemetry::phase_scope(spg_telemetry::Phase::BackwardWeights);
            let grad_weights = record.as_mut_slice();
            self.bwd.backward_weights(&self.spec, input, grad_out, grad_weights, scratch);
            spg_telemetry::record_workspace_bytes(scratch.bytes() as u64);
        }
    }

    fn param_count(&self) -> usize {
        self.weights.fckk.len()
    }

    fn conv_spec(&self) -> Option<&ConvSpec> {
        Some(&self.spec)
    }

    fn as_conv(&self) -> Option<&ConvLayer> {
        Some(self)
    }

    fn as_conv_mut(&mut self) -> Option<&mut ConvLayer> {
        Some(self)
    }

    fn params(&self) -> Option<&[f32]> {
        Some(self.weights.fckk.as_slice())
    }

    fn params_mut(&mut self) -> Option<&mut [f32]> {
        Some(self.weights.fckk.as_mut_slice())
    }

    fn finish_update(&mut self) {
        self.prepare();
    }
}

/// Activations a ReLU forward part must cover before it gets a thread of
/// its own.
///
/// Measured on a 2-vCPU AVX-512 host: one core clamps 1.97 M activations
/// (the ImageNet-22K net's first ReLU) in 0.64-0.73 ms, 0.34 ns each
/// (memory-bound: the vector nest reads as the scalar loop did), so a part
/// of 512 Ki is ~0.18 ms — five forks' worth at the ~35 µs `spg_sync`'s
/// `fork_join` module quotes.
/// At budget 2 that ReLU splits and the net's next one, 225 K, does not.
/// Alone, the two-way split read no faster on the host measured (0.66-0.90
/// ms); in the forward it stays: against a 1 Mi floor that stops it,
/// `forward_imagenet22k_b1` read 23.9 / 23.7 / 21.7 / 23.3 / 21.5
/// images/s against 22.2 / 21.3 / 26.0 / 23.1 / 20.5, alternating.
const RELU_FLOOR: usize = 512 * 1024;

/// Rectified linear unit: `y = max(0, x)`.
///
/// ReLU is the source of the error-gradient sparsity the paper exploits:
/// wherever the forward activation clamped to zero, the backward gradient
/// is zeroed too, and trained networks clamp most activations (Fig. 3b).
///
/// Both directions are `spg_gemm::simd` loop nests on the host's widest
/// tier, a vector of activations at a time. Forward: `x` where `x > 0`,
/// else `+0.0` (so NaN and `-0.0` give `+0.0`). Backward: a compare and a
/// select — `grad_out` where the forward's output is `> 0`, else `+0.0`.
///
/// A forward whose [core budget](ConvScratch::cores) exceeds 1 cuts the
/// activations into up to that many contiguous ranges, a thread each, when
/// each range would hold at least `RELU_FLOOR` of them. Every output is
/// the same `max(x, 0.0)` of its own input whichever thread writes it, so
/// the bits do not depend on the budget.
#[derive(Debug, Clone, Copy)]
pub struct ReluLayer {
    len: usize,
}

impl ReluLayer {
    /// Creates a ReLU over `len` activations.
    pub fn new(len: usize) -> Self {
        ReluLayer { len }
    }
}

impl Layer for ReluLayer {
    fn name(&self) -> &str {
        "relu"
    }

    fn input_len(&self) -> usize {
        self.len
    }

    fn output_len(&self) -> usize {
        self.len
    }

    fn forward_block(&self, inputs: &[f32], outputs: &mut [f32], scratch: &mut ConvScratch) {
        relu(HOST, inputs, outputs, scratch.cores, RELU_FLOOR);
    }

    fn backward_block(
        &self,
        _inputs: &[f32],
        outputs: &[f32],
        grad_outs: &[f32],
        grad_ins: &mut [f32],
        _records: &mut [Tensor],
        _scratch: &mut ConvScratch,
    ) {
        rows::relu_backward(HOST, outputs, grad_outs, grad_ins);
    }
}

/// `output = max(0, input)` on the tier of `level`, cut into contiguous
/// ranges by the split rule.
fn relu(level: SimdLevel, input: &[f32], output: &mut [f32], cores: usize, floor: usize) {
    split::for_each_part(output, 1, input.len(), cores, floor, |first, range| {
        rows::relu_forward(level, &input[first..first + range.len()], range);
    });
}

/// Input cells a max-pool part must read before it gets a thread of its
/// own. Measured as `RELU_FLOOR` is, against the cheaper direction: the
/// forward nest reads the 22K net's first pool, 1.97 M cells, in 0.43-0.48
/// ms on one core (0.23 ns a cell, against the scalar row loop's 0.26; the
/// backward nest takes 0.46 ns, the scalar search 1.04), so a part of 512
/// Ki cells is ~0.12 ms, three spawns' worth. At budget 2 that pool splits
/// and the net's second (225 K cells) does not.
const POOL_FLOOR: usize = 512 * 1024;

/// Non-overlapping max pooling over square windows.
///
/// Both directions are `spg_gemm::simd` loop nests on the host's widest
/// tier whose lanes are consecutive windows of an output plane — across
/// output rows when a vector's share of a window row never straddles
/// one, else row by row; a narrower last vector goes through masked loads
/// and stores, so nothing past the input is read.
///
/// Forward: every output is `f32::max` folded over its window in `(dy,
/// dx)` order from `-inf` — a NaN cell is skipped, and of two equal zeros
/// the earlier stays. Window column `dx` of a vector of windows is
/// deinterleaved from `k` consecutive loads of the input row (a
/// two-source permute for the shipped nets' windows, 2 and 4; other
/// windows gather it a lane at a time).
///
/// Backward reads the forward's `output` (the windows' maxima) and writes
/// every input cell once, with no search and no scatter: the window's
/// gradient `go` goes to its first cell in `(dy, dx)` order equal to the
/// maximum, or to its first cell when the maximum is `-inf` (a window of
/// `-inf` and NaN only), as `0.0 + go` (so `-0.0` arrives as `+0.0`);
/// every other cell, and every cell right of or below the last window,
/// gets `0.0`. That is the cell the first strict maximum (`>` in `(dy,
/// dx)` order) picks.
///
/// A call whose [core budget](ConvScratch::cores) exceeds 1 splits the
/// channel planes into up to that many contiguous runs, a thread each,
/// when each run would read at least `POOL_FLOOR` input cells. A plane is
/// the same loop whichever thread runs it and the planes do not share a
/// cell, so the bits do not depend on the budget.
#[derive(Debug, Clone, Copy)]
pub struct MaxPoolLayer {
    in_shape: Shape3,
    window: usize,
}

impl MaxPoolLayer {
    /// Creates a max-pool of `window x window` cells over `in_shape`.
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::ZeroDimension`] if `window == 0` and
    /// [`ConvError::KernelTooLarge`] if the window exceeds either spatial
    /// extent.
    pub fn new(in_shape: Shape3, window: usize) -> Result<Self, ConvError> {
        if window == 0 {
            return Err(ConvError::ZeroDimension { dim: "window" });
        }
        if window > in_shape.h {
            return Err(ConvError::KernelTooLarge { input: in_shape.h, kernel: window });
        }
        if window > in_shape.w {
            return Err(ConvError::KernelTooLarge { input: in_shape.w, kernel: window });
        }
        Ok(MaxPoolLayer { in_shape, window })
    }

    /// Output shape after pooling (floor division of spatial extents).
    pub fn out_shape(&self) -> Shape3 {
        Shape3::new(self.in_shape.c, self.in_shape.h / self.window, self.in_shape.w / self.window)
    }
}

impl Layer for MaxPoolLayer {
    fn name(&self) -> &str {
        "maxpool"
    }

    fn input_len(&self) -> usize {
        self.in_shape.len()
    }

    fn output_len(&self) -> usize {
        self.out_shape().len()
    }

    fn forward_block(&self, inputs: &[f32], outputs: &mut [f32], scratch: &mut ConvScratch) {
        self.forward_split(HOST, inputs, outputs, scratch.cores, POOL_FLOOR);
    }

    fn backward_block(
        &self,
        inputs: &[f32],
        outputs: &[f32],
        grad_outs: &[f32],
        grad_ins: &mut [f32],
        _records: &mut [Tensor],
        scratch: &mut ConvScratch,
    ) {
        let cores = scratch.cores;
        self.backward_split(HOST, inputs, outputs, grad_outs, grad_ins, cores, POOL_FLOOR);
    }
}

impl MaxPoolLayer {
    /// The geometry the row kernels read.
    fn rows(&self) -> rows::Pool {
        rows::Pool { h: self.in_shape.h, w: self.in_shape.w, k: self.window }
    }

    /// Samples in a block of `inputs`, whose outputs are `out_len` floats
    /// long.
    fn block_len(&self, inputs: &[f32], out_len: usize) -> usize {
        let k = inputs.len() / self.in_shape.len();
        assert_eq!(inputs.len(), k * self.in_shape.len(), "input length");
        assert_eq!(out_len, k * self.out_shape().len(), "output length");
        k
    }

    /// [`Layer::forward_block`] on the tier of `level` and up to `cores`
    /// threads, none reading fewer than `floor` input cells. The block's
    /// planes are one run of planes, sample after sample.
    fn forward_split(
        &self,
        level: SimdLevel,
        input: &[f32],
        output: &mut [f32],
        cores: usize,
        floor: usize,
    ) {
        let (ishape, out) = (self.in_shape, self.out_shape());
        let (in_plane, out_plane) = (ishape.h * ishape.w, out.h * out.w);
        self.block_len(input, output.len());
        split::for_each_part(output, out_plane, input.len(), cores, floor, |c0, outputs| {
            rows::pool_forward(level, self.rows(), &input[c0 * in_plane..], outputs);
        });
    }

    /// [`Layer::backward_block`] on the tier of `level` and up to `cores`
    /// threads, none reading fewer than `floor` input cells.
    #[allow(clippy::too_many_arguments)]
    fn backward_split(
        &self,
        level: SimdLevel,
        input: &[f32],
        output: &[f32],
        grad_out: &[f32],
        grad_in: &mut [f32],
        cores: usize,
        floor: usize,
    ) {
        let (ishape, out) = (self.in_shape, self.out_shape());
        let (in_plane, out_plane) = (ishape.h * ishape.w, out.h * out.w);
        self.block_len(input, output.len());
        assert_eq!(grad_in.len(), input.len(), "grad_in length");
        assert_eq!(grad_out.len(), output.len(), "grad_out length");
        split::for_each_part(grad_in, in_plane, input.len(), cores, floor, |c0, grad_ins| {
            let (at, from) = (c0 * in_plane, c0 * out_plane);
            let (outputs, grad_outs) = (&output[from..], &grad_out[from..]);
            rows::pool_backward(level, self.rows(), &input[at..], outputs, grad_outs, grad_ins);
        });
    }
}

/// Samples per call of the FC kernels: the kernels group them further by
/// what their tier's registers hold, so this only bounds the stack buffer
/// the per-row results and deltas pass through.
const KERNEL_SAMPLES: usize = 8;

/// A fully-connected (dense) layer with bias: `y = W x + b`.
///
/// Forward is one dot product per output row and sample, summed in an order
/// fixed by the source — 32 independent partial sums over whole blocks of
/// the row, folded by a halving tree, then the tail — so it gives the same
/// bits on every host. The kernels are [`spg_gemm::FcKernels`], one source
/// per instruction-set tier (portable, AVX2, AVX-512), picked at run time
/// from the host, each multiplying and adding separately in the portable
/// source's order. A block of samples
/// ([`forward_block`](Layer::forward_block),
/// [`backward_block`](Layer::backward_block)) loads each weight row once
/// for the whole block, forward and backward. A call whose
/// [core budget](ConvScratch::cores) exceeds 1 splits the rows over that
/// many threads; a row is one thread's dot products whichever thread gets
/// it, so the logits do not depend on the split.
///
/// Backward keeps the weight gradient `dW = δ ⊗ x` as its two factors: the
/// gradient record is `[δ (out_len) | x (in_len)]` ([`RecordFormat::Outer`]),
/// and the fold forms `acc[r][c] += δ[r] * x[c]` per sample only where and
/// when it asks for it.
#[derive(Debug)]
pub struct FcLayer {
    in_len: usize,
    out_len: usize,
    /// Row-major `out_len x in_len` weights followed by `out_len` biases.
    params: Tensor,
}

impl FcLayer {
    /// Creates a fully-connected layer with small random weights and zero
    /// biases.
    pub fn new<R: Rng>(in_len: usize, out_len: usize, rng: &mut R) -> Self {
        let scale = (2.0 / in_len as f32).sqrt();
        let mut params = Tensor::random_uniform(in_len * out_len, scale, rng);
        params.extend(std::iter::repeat_n(0.0, out_len));
        FcLayer { in_len, out_len, params }
    }

    fn weights(&self) -> &[f32] {
        &self.params.as_slice()[..self.in_len * self.out_len]
    }

    fn biases(&self) -> &[f32] {
        &self.params.as_slice()[self.in_len * self.out_len..]
    }

    /// Rows `rows` of a block of `k` samples' outputs, each handed to
    /// `write(sample, row, value)`: per row, the weight row is loaded once
    /// for the whole block.
    fn forward_rows(
        &self,
        fc: FcKernels,
        rows: Range<usize>,
        k: usize,
        inputs: &[f32],
        mut write: impl FnMut(usize, usize, f32),
    ) {
        let (w, b, n) = (self.weights(), self.biases(), self.in_len);
        let mut sums = [0.0f32; KERNEL_SAMPLES];
        for r in rows {
            let row = &w[r * n..(r + 1) * n];
            for s0 in (0..k).step_by(KERNEL_SAMPLES) {
                let sums = &mut sums[..(k - s0).min(KERNEL_SAMPLES)];
                fc.dot(row, &inputs[s0 * n..(s0 + sums.len()) * n], sums);
                for (s, dot) in (s0..).zip(sums.iter()) {
                    write(s, r, b[r] + dot);
                }
            }
        }
    }
}

impl Layer for FcLayer {
    fn name(&self) -> &str {
        "fc"
    }

    fn input_len(&self) -> usize {
        self.in_len
    }

    fn output_len(&self) -> usize {
        self.out_len
    }

    fn forward_block(&self, inputs: &[f32], outputs: &mut [f32], scratch: &mut ConvScratch) {
        let (n, m) = (self.in_len, self.out_len);
        let k = outputs.len() / m;
        assert_eq!((inputs.len(), outputs.len()), (k * n, k * m), "block lengths");
        let fc = FcKernels::host();
        let parts = scratch.cores.min(m);
        if parts <= 1 {
            return self.forward_rows(fc, 0..m, k, inputs, |s, r, y| outputs[s * m + r] = y);
        }
        // One task of rows per thread, each holding its rows of every
        // sample's output.
        let mut tasks: Vec<Vec<&mut [f32]>> = Vec::new();
        tasks.resize_with(parts, || Vec::with_capacity(k));
        for mut output in outputs.chunks_mut(m) {
            for (t, task) in tasks.iter_mut().enumerate() {
                let rows;
                (rows, output) = output.split_at_mut(spg_sync::partition(m, parts, t).len());
                task.push(rows);
            }
        }
        spg_sync::fork_join(tasks.into_iter().enumerate().map(|(t, mut rows)| {
            move || {
                let r = spg_sync::partition(m, parts, t);
                let r0 = r.start;
                self.forward_rows(fc, r, k, inputs, |s, i, y| rows[s][i - r0] = y);
            }
        }));
    }

    fn backward_block(
        &self,
        inputs: &[f32],
        _outputs: &[f32],
        grad_outs: &[f32],
        grad_ins: &mut [f32],
        records: &mut [Tensor],
        _scratch: &mut ConvScratch,
    ) {
        let (n, m, k) = (self.in_len, self.out_len, records.len());
        for (s, record) in records.iter_mut().enumerate() {
            // `>=`, not `==`: the frozen benchmark probe hands every layer a
            // `param_count()`-long buffer. Tighten with ROADMAP item 1(c).
            assert!(record.len() >= self.grad_record_len(), "gradient record length");
            let (delta, x) = record.as_mut_slice()[..m + n].split_at_mut(m);
            delta.copy_from_slice(&grad_outs[s * m..(s + 1) * m]);
            x.copy_from_slice(&inputs[s * n..(s + 1) * n]);
        }
        // `grad_in = Wᵀ δ`, row by row in row order, each row loaded once
        // for the whole block.
        grad_ins.fill(0.0);
        let (w, fc) = (self.weights(), FcKernels::host());
        let mut deltas = [0.0f32; KERNEL_SAMPLES];
        for r in 0..m {
            let row = &w[r * n..(r + 1) * n];
            for s0 in (0..k).step_by(KERNEL_SAMPLES) {
                let deltas = &mut deltas[..(k - s0).min(KERNEL_SAMPLES)];
                for (d, s) in deltas.iter_mut().zip(s0..) {
                    *d = grad_outs[s * m + r];
                }
                fc.sweep(row, deltas, &mut grad_ins[s0 * n..(s0 + deltas.len()) * n]);
            }
        }
    }

    fn param_count(&self) -> usize {
        self.params.len()
    }

    fn record_format(&self) -> RecordFormat {
        RecordFormat::Outer { in_len: self.in_len, out_len: self.out_len }
    }

    fn params(&self) -> Option<&[f32]> {
        Some(self.params.as_slice())
    }

    fn params_mut(&mut self) -> Option<&mut [f32]> {
        Some(self.params.as_mut_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spg_gemm::DOT_LANES;

    /// One row dot through the host's FC kernel.
    fn dot(w: &[f32], x: &[f32]) -> f32 {
        let mut out = [0.0];
        FcKernels::host().dot(w, x, &mut out);
        out[0]
    }

    #[test]
    fn relu_clamps_and_masks() {
        let relu = ReluLayer::new(4);
        let mut scratch = ConvScratch::new();
        let mut none = Tensor::default();
        let mut out = [0.0; 4];
        relu.forward(&[-1.0, 2.0, -3.0, 4.0], &mut out, &mut scratch);
        assert_eq!(out, [0.0, 2.0, 0.0, 4.0]);
        let mut gin = [9.0; 4];
        relu.backward(&[], &out, &[1.0, 1.0, 1.0, 1.0], &mut gin, &mut none, &mut scratch);
        assert_eq!(gin, [0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn relu_creates_gradient_sparsity() {
        // Half-negative input -> ~half-sparse gradient: the paper's Fig. 3b
        // mechanism in miniature.
        let relu = ReluLayer::new(100);
        let mut scratch = ConvScratch::new();
        let mut none = Tensor::default();
        let input: Vec<f32> = (0..100).map(|i| if i % 2 == 0 { -1.0 } else { 1.0 }).collect();
        let mut out = vec![0f32; 100];
        relu.forward(&input, &mut out, &mut scratch);
        let mut gin = vec![0f32; 100];
        relu.backward(&input, &out, &vec![1.0; 100], &mut gin, &mut none, &mut scratch);
        let g = Tensor::from_vec(gin);
        assert_eq!(g.sparsity(), 0.5);
    }

    #[test]
    fn maxpool_forward_and_routing() {
        let shape = Shape3::new(1, 4, 4);
        let pool = MaxPoolLayer::new(shape, 2).unwrap();
        let mut scratch = ConvScratch::new();
        let mut none = Tensor::default();
        let input: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let mut out = vec![0f32; 4];
        pool.forward(&input, &mut out, &mut scratch);
        assert_eq!(out, [5.0, 7.0, 13.0, 15.0]);
        let mut gin = vec![0f32; 16];
        pool.backward(&input, &out, &[1.0, 2.0, 3.0, 4.0], &mut gin, &mut none, &mut scratch);
        assert_eq!(gin[5], 1.0);
        assert_eq!(gin[7], 2.0);
        assert_eq!(gin[13], 3.0);
        assert_eq!(gin[15], 4.0);
        assert_eq!(gin.iter().sum::<f32>(), 10.0);
    }

    /// The budgets every split kernel is checked at.
    const BUDGETS: [usize; 4] = [1, 2, 3, 7];

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Inputs salted with the values `max` and `>` treat specially.
    fn salted(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let special = [f32::NAN, 0.0, -0.0, f32::NEG_INFINITY, f32::INFINITY];
        (0..len)
            .map(|i| match rng.gen_range(0..8) {
                0 => special[i % special.len()],
                1 => 0.0,
                2 => -0.0,
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect()
    }

    /// The scalar max-pool forward the row kernel replaced.
    fn pool_forward_oracle(in_shape: Shape3, k: usize, input: &[f32]) -> Vec<f32> {
        let out = Shape3::new(in_shape.c, in_shape.h / k, in_shape.w / k);
        let mut output = vec![0.0; out.len()];
        for c in 0..out.c {
            for y in 0..out.h {
                for x in 0..out.w {
                    let mut best = f32::NEG_INFINITY;
                    for dy in 0..k {
                        for dx in 0..k {
                            best = best.max(input[in_shape.index(c, y * k + dy, x * k + dx)]);
                        }
                    }
                    output[out.index(c, y, x)] = best;
                }
            }
        }
        output
    }

    /// The scalar max-pool backward the row kernel replaced, with its
    /// argmax starting at the window's first cell instead of index 0.
    fn pool_backward_oracle(
        in_shape: Shape3,
        k: usize,
        input: &[f32],
        grad_out: &[f32],
    ) -> Vec<f32> {
        let out = Shape3::new(in_shape.c, in_shape.h / k, in_shape.w / k);
        let mut grad_in = vec![0.0; in_shape.len()];
        for c in 0..out.c {
            for y in 0..out.h {
                for x in 0..out.w {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = in_shape.index(c, y * k, x * k);
                    for dy in 0..k {
                        for dx in 0..k {
                            let idx = in_shape.index(c, y * k + dy, x * k + dx);
                            if input[idx] > best {
                                best = input[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    grad_in[best_idx] += grad_out[out.index(c, y, x)];
                }
            }
        }
        grad_in
    }

    /// [`salted`] with some whole windows overwritten: all NaN, all
    /// `-inf`, `-inf` and NaN mixed, or `+0.0` and `-0.0` ties.
    fn windowed(shape: Shape3, k: usize, seed: u64) -> Vec<f32> {
        let mut input = salted(shape.len(), seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        for c in 0..shape.c {
            for y in 0..shape.h / k {
                for x in 0..shape.w / k {
                    let mode = rng.gen_range(0..6);
                    for (i, (dy, dx)) in
                        (0..k).flat_map(|dy| (0..k).map(move |dx| (dy, dx))).enumerate()
                    {
                        let cell = &mut input[shape.index(c, y * k + dy, x * k + dx)];
                        match mode {
                            0 => *cell = f32::NAN,
                            1 => *cell = f32::NEG_INFINITY,
                            2 => *cell = [f32::NEG_INFINITY, f32::NAN][i % 2],
                            3 => *cell = [0.0, -0.0][rng.gen_range(0..2_usize)],
                            _ => {}
                        }
                    }
                }
            }
        }
        input
    }

    /// Both max-pool nests give the scalar loops' bits on every tier and
    /// at every budget: windows of 1-5 cells, planes the window does not
    /// divide, rows of several vectors plus a tail, all-NaN and all-`-inf`
    /// windows, `+-0` ties, and gradients of `-0.0`, NaN and infinities.
    #[test]
    fn pool_row_kernels_match_the_scalar_loops_at_every_budget() {
        for k in 1..=5 {
            // Extents the window divides, extents it leaves a tail of, rows
            // of 37 windows, and 8-wide outputs whose vectors span rows.
            for (c, h, w) in [
                (3, 4 * k, 4 * k),
                (5, 4 * k + 1, 3 * k + k - 1),
                (2, k, 2 * k + 1),
                (2, 2 * k + 1, 38 * k - 1),
                (2, 8 * k, 8 * k + 1),
            ] {
                let shape = Shape3::new(c, h, w);
                let pool = MaxPoolLayer::new(shape, k).unwrap();
                let input = windowed(shape, k, (k * 100 + h) as u64);
                let grad_out = salted(pool.out_shape().len(), (k * 100 + w) as u64);
                let want_out = pool_forward_oracle(shape, k, &input);
                let want_grad = bits(&pool_backward_oracle(shape, k, &input, &grad_out));
                for (level, cores) in
                    rows::host_levels().into_iter().flat_map(|l| BUDGETS.map(|c| (l, c)))
                {
                    let at = (k, c, h, w, level, cores);
                    let mut out = vec![f32::NAN; pool.out_shape().len()];
                    pool.forward_split(level, &input, &mut out, cores, 1);
                    assert_eq!(bits(&out), bits(&want_out), "forward {at:?}");
                    let mut grad_in = vec![f32::NAN; shape.len()];
                    pool.backward_split(
                        level,
                        &input,
                        &want_out,
                        &grad_out,
                        &mut grad_in,
                        cores,
                        1,
                    );
                    assert_eq!(bits(&grad_in), want_grad, "backward {at:?}");
                }
            }
        }
    }

    #[test]
    fn an_all_minus_infinity_window_routes_to_its_own_first_cell() {
        let shape = Shape3::new(2, 2, 4);
        let pool = MaxPoolLayer::new(shape, 2).unwrap();
        // Channel 1's first window holds only -inf and NaN.
        let mut input: Vec<f32> = (0..shape.len()).map(|i| i as f32).collect();
        for (y, x) in [(0, 0), (0, 1), (1, 0)] {
            input[shape.index(1, y, x)] = f32::NEG_INFINITY;
        }
        input[shape.index(1, 1, 1)] = f32::NAN;
        let mut scratch = ConvScratch::new();
        let mut out = vec![0.0; pool.out_shape().len()];
        pool.forward(&input, &mut out, &mut scratch);
        assert_eq!(out[2], f32::NEG_INFINITY);
        let grad_out = [1.0, 2.0, 3.0, 4.0];
        let mut grad_in = vec![0.0; shape.len()];
        pool.backward(&input, &out, &grad_out, &mut grad_in, &mut Tensor::default(), &mut scratch);
        assert_eq!(grad_in[shape.index(1, 0, 0)], 3.0, "the window's own first cell");
        assert_eq!(grad_in[0], 0.0, "channel 0's first cell is not in the window");
        assert_eq!(grad_in.iter().sum::<f32>(), 10.0);
    }

    /// The scalar ReLU forward the nest replaced, `max(x, 0)`, spelled
    /// with the zero as the receiver: `x.max(0.0)` compiles to `x > 0 ? x
    /// : 0` in release builds but keeps `-0.0` in debug ones (`f32::max`
    /// leaves equal zeros open), and the release build's `+0.0` is the
    /// one the nest keeps.
    fn relu_oracle(x: f32) -> f32 {
        0.0_f32.max(x)
    }

    /// The scalar ReLU backward the nest replaced.
    fn relu_grad_oracle(o: f32, go: f32) -> f32 {
        if o > 0.0 {
            go
        } else {
            0.0
        }
    }

    #[test]
    fn relu_split_matches_the_serial_loop_at_every_budget() {
        for len in [0, 1, 7, 64, 1000] {
            let input = salted(len, len as u64);
            let want: Vec<u32> = input.iter().map(|&x| relu_oracle(x).to_bits()).collect();
            for (level, cores) in
                rows::host_levels().into_iter().flat_map(|l| BUDGETS.map(|c| (l, c)))
            {
                let mut out = vec![f32::NAN; len];
                relu(level, &input, &mut out, cores, 1);
                assert_eq!(bits(&out), want, "len {len}, {level:?}, cores {cores}");
            }
        }
    }

    #[test]
    fn relu_backward_matches_the_scalar_loop_on_every_tier() {
        for len in [1, 7, 16, 33, 1000] {
            let (output, grad_out) = (salted(len, len as u64), salted(len, len as u64 + 1));
            let want: Vec<u32> = output
                .iter()
                .zip(&grad_out)
                .map(|(&o, &go)| relu_grad_oracle(o, go).to_bits())
                .collect();
            for level in rows::host_levels() {
                let mut grad_in = vec![f32::NAN; len];
                rows::relu_backward(level, &output, &grad_out, &mut grad_in);
                assert_eq!(bits(&grad_in), want, "len {len}, {level:?}");
            }
        }
    }

    #[test]
    fn maxpool_validates_window() {
        assert!(MaxPoolLayer::new(Shape3::new(1, 4, 4), 0).is_err());
        assert!(MaxPoolLayer::new(Shape3::new(1, 4, 4), 5).is_err());
    }

    #[test]
    fn fc_forward_known_values() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut fc = FcLayer::new(2, 2, &mut rng);
        // Overwrite params with known values: W = [[1,2],[3,4]], b = [10, 20].
        fc.params = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0]);
        let mut out = [0.0; 2];
        fc.forward(&[1.0, 1.0], &mut out, &mut ConvScratch::new());
        assert_eq!(out, [13.0, 27.0]);
    }

    /// Lengths around the block size, and the ImageNet-22K head's row.
    const DOT_LENGTHS: [usize; 6] = [0, 1, DOT_LANES - 1, DOT_LANES, DOT_LANES + 1, 48_600];

    #[test]
    fn dot_agrees_with_an_f64_reference() {
        let mut rng = SmallRng::seed_from_u64(5);
        for len in DOT_LENGTHS {
            for _ in 0..3 {
                let w = Tensor::random_uniform(len, 1.0, &mut rng);
                let x = Tensor::random_uniform(len, 1.0, &mut rng);
                let terms = w.iter().zip(x.iter()).map(|(&a, &b)| f64::from(a) * f64::from(b));
                let (want, scale) = terms.fold((0.0, 0.0), |(s, m), t| (s + t, m + t.abs()));
                let got = f64::from(dot(w.as_slice(), x.as_slice()));
                assert!((got - want).abs() <= 1e-5 * scale, "len {len}: {got} vs {want}");
            }
        }
        assert_eq!(dot(&[], &[]), 0.0);
    }

    /// The order is the source's: block partial sums, the halving tree,
    /// then the tail — spelled out here element by element.
    #[test]
    fn dot_order_is_blocks_then_tree_then_tail() {
        let mut rng = SmallRng::seed_from_u64(6);
        let len = 3 * DOT_LANES + 5;
        let w = Tensor::random_uniform(len, 1.0, &mut rng);
        let x = Tensor::random_uniform(len, 1.0, &mut rng);
        let mut lanes = [0.0f32; DOT_LANES];
        for i in 0..3 * DOT_LANES {
            lanes[i % DOT_LANES] += w[i] * x[i];
        }
        for width in [16, 8, 4, 2, 1] {
            for l in 0..width {
                lanes[l] += lanes[l + width];
            }
        }
        let mut want = lanes[0];
        for i in 3 * DOT_LANES..len {
            want += w[i] * x[i];
        }
        assert_eq!(dot(w.as_slice(), x.as_slice()).to_bits(), want.to_bits());
    }

    /// A row is one thread's dot product whichever thread runs it.
    #[test]
    fn fc_logits_do_not_depend_on_the_core_budget() {
        let mut rng = SmallRng::seed_from_u64(7);
        let fc = FcLayer::new(67, 10, &mut rng);
        let input = Tensor::random_uniform(67, 1.0, &mut rng);
        let mut serial = [0.0f32; 10];
        fc.forward(input.as_slice(), &mut serial, &mut ConvScratch::new());
        for cores in [2, 3, 7, 64] {
            let mut split = [f32::NAN; 10];
            let mut scratch = ConvScratch::with_cores(cores);
            fc.forward(input.as_slice(), &mut split, &mut scratch);
            assert_eq!(split.map(f32::to_bits), serial.map(f32::to_bits), "cores {cores}");
        }
    }

    #[test]
    fn fc_backward_finite_difference() {
        let mut rng = SmallRng::seed_from_u64(2);
        let fc = FcLayer::new(3, 2, &mut rng);
        let mut scratch = ConvScratch::new();
        let input = [0.5, -0.3, 0.8];
        let gout = [1.0, -2.0];
        let mut out = [0.0; 2];
        fc.forward(&input, &mut out, &mut scratch);
        let mut gin = [0.0; 3];
        let mut record = Tensor::zeros(fc.grad_record_len());
        fc.backward(&input, &out, &gout, &mut gin, &mut record, &mut scratch);
        let mut grads = Tensor::zeros(fc.param_count());
        fc.record_format().add_grads(&[record.as_slice()], 0, grads.as_mut_slice());

        // Check dW[0][1] and db[0] by finite differences on <y, gout>.
        let eps = 1e-3;
        let loss = |fc: &FcLayer| {
            let mut o = [0.0; 2];
            fc.forward(&input, &mut o, &mut ConvScratch::new());
            o.iter().zip(&gout).map(|(a, b)| a * b).sum::<f32>()
        };
        for pi in [1usize, 6] {
            let mut plus = FcLayer { in_len: 3, out_len: 2, params: fc.params.clone() };
            plus.params[pi] += eps;
            let mut minus = FcLayer { in_len: 3, out_len: 2, params: fc.params.clone() };
            minus.params[pi] -= eps;
            let fd = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!((fd - grads[pi]).abs() < 1e-2, "param {pi}: {fd} vs {}", grads[pi]);
        }
    }

    #[test]
    fn conv_layer_roundtrip_through_trait() {
        let mut rng = SmallRng::seed_from_u64(3);
        let spec = ConvSpec::new(1, 4, 4, 2, 3, 3, 1, 1).unwrap();
        let layer = ConvLayer::new(spec, &mut rng);
        let mut scratch = ConvScratch::new();
        assert_eq!(layer.input_len(), 16);
        assert_eq!(layer.output_len(), 2 * 4);
        let input = vec![1.0; 16];
        let mut out = vec![0f32; 8];
        layer.forward(&input, &mut out, &mut scratch);
        let mut gin = vec![0f32; 16];
        let mut grads = Tensor::zeros(layer.param_count());
        layer.backward(&input, &out, &[1.0; 8], &mut gin, &mut grads, &mut scratch);
        assert_eq!(grads.len(), layer.param_count());
        assert!(layer.conv_spec().is_some());
    }

    #[test]
    fn conv_layer_update_moves_weights() {
        let mut rng = SmallRng::seed_from_u64(4);
        let spec = ConvSpec::new(1, 3, 3, 1, 2, 2, 1, 1).unwrap();
        let layer = ConvLayer::new(spec, &mut rng);
        let before = layer.params().unwrap().to_vec();
        let mut net = crate::Network::new(vec![Box::new(layer)]).unwrap();
        net.apply_gradient_slices(&[Tensor::filled(4, 1.0)], 0.1, 1.0);
        for (b, a) in before.iter().zip(net.layers()[0].params().unwrap()) {
            assert!((b - 0.1 - a).abs() < 1e-6);
        }
    }
}
