//! The layer zoo: convolution, ReLU, max-pooling, and fully-connected
//! layers behind one object-safe [`Layer`] trait.
//!
//! Layers are *stateless across samples*: `forward` and `backward` take the
//! sample's activations, parameter-gradient buffer, and scratch explicitly,
//! so the trainer can push many samples through shared layers on worker
//! threads (the GEMM-in-Parallel schedule) and apply accumulated parameter
//! gradients afterwards. All per-sample buffers are caller-owned, which is
//! what makes steady-state training allocation-free.

use std::fmt;

use rand::Rng;
use spg_tensor::{Shape3, Tensor};

use crate::exec::{PreparedWeights, SharedExecutor, UnfoldGemmExecutor};
use crate::workspace::ConvScratch;
use crate::{ConvError, ConvSpec};

/// A differentiable network layer.
///
/// `forward` writes `output` from `input`; `backward` writes `grad_in` from
/// the saved activations and `grad_out`, and overwrites `param_grads` with
/// the sample's gradient *record* (ignored by parameter-free layers). Both
/// stage any intermediates in the caller's [`ConvScratch`] instead of
/// allocating.
///
/// # Gradient records
///
/// What `backward` leaves in `param_grads` is whatever the layer needs to
/// add this sample's parameter gradient into an accumulator later — not
/// necessarily the gradient itself. Three methods define the format and
/// travel together: [`backward`](Layer::backward) writes a record of
/// [`grad_record_len`](Layer::grad_record_len) floats, and
/// [`add_grads`](Layer::add_grads) reads records back. By default the
/// record *is* the dense gradient ([`ConvLayer`]); [`FcLayer`]'s is the
/// two factors of its rank-1 gradient. A layer that wraps another and
/// forwards `backward` must forward the other two as well, or the fold
/// misreads the inner layer's records.
pub trait Layer: Send + Sync + fmt::Debug {
    /// Short human-readable layer name.
    fn name(&self) -> &str;

    /// Number of input activations the layer expects.
    fn input_len(&self) -> usize;

    /// Number of output activations the layer produces.
    fn output_len(&self) -> usize;

    /// Forward propagation for one sample. `output` is overwritten.
    fn forward(&self, input: &[f32], output: &mut [f32], scratch: &mut ConvScratch);

    /// Backward propagation for one sample. `grad_in` is overwritten; for
    /// layers with parameters, the first
    /// [`grad_record_len`](Layer::grad_record_len) floats of `param_grads`
    /// are overwritten — every one of them, so a recycled buffer carries
    /// nothing over — with this sample's gradient record.
    ///
    /// [`Network::backward_into`](crate::Network::backward_into) hands a
    /// convolution at layer 0 an *empty* `grad_in`: nothing reads the
    /// gradient with respect to the image, and a layer that reports a
    /// [`conv_spec`](Layer::conv_spec) must then compute the record only.
    fn backward(
        &self,
        input: &[f32],
        output: &[f32],
        grad_out: &[f32],
        grad_in: &mut [f32],
        param_grads: &mut Tensor,
        scratch: &mut ConvScratch,
    );

    /// Number of trainable parameters (0 for activation/pooling layers).
    fn param_count(&self) -> usize {
        0
    }

    /// Floats in one sample's gradient record, as
    /// [`backward`](Layer::backward) writes it: [`Layer::param_count`]
    /// unless the layer keeps something smaller than its dense gradient.
    fn grad_record_len(&self) -> usize {
        self.param_count()
    }

    /// Adds elements `at..at + acc.len()` of each record's flattened
    /// parameter gradient to `acc`: `acc[k]` takes element `at + k` of
    /// every sample **in slice order, one rounded add per sample**, so a
    /// fold over any split of the parameters or of the sample list gives
    /// the bits of adding dense gradients one sample at a time.
    ///
    /// # Panics
    ///
    /// Implementations panic if `at + acc.len() > param_count()` or a
    /// record is shorter than [`grad_record_len`](Layer::grad_record_len).
    fn add_grads(&self, records: &[&[f32]], at: usize, acc: &mut [f32]) {
        let span = at..at + acc.len();
        for record in records {
            for (a, g) in acc.iter_mut().zip(&record[span.clone()]) {
                *a += g;
            }
        }
    }

    /// Applies `params -= lr * grads` for layers with parameters.
    ///
    /// # Panics
    ///
    /// Implementations panic if `grads.len() != param_count()`.
    fn apply_update(&mut self, _grads: &Tensor, _lr: f32) {}

    /// The convolution spec, for convolution layers only. The scheduler
    /// uses this to characterize and re-plan layers generically.
    fn conv_spec(&self) -> Option<&ConvSpec> {
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

    /// Replaces the flattened trainable parameters.
    ///
    /// # Panics
    ///
    /// Implementations panic if `params.len() != param_count()`.
    fn set_params(&mut self, _params: &[f32]) {}
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
        Self::assemble(spec, weights)
    }

    /// A layer over `weights` (length already checked) with the default
    /// executor in both slots.
    fn assemble(spec: ConvSpec, weights: Tensor) -> Self {
        let exec: SharedExecutor = std::sync::Arc::new(UnfoldGemmExecutor::default());
        let weights = PreparedWeights::new(weights);
        let mut layer = ConvLayer { spec, weights, fwd: exec.clone(), bwd: exec };
        layer.prepare();
        layer
    }

    /// Drops the permuted weight copies and has both installed executors
    /// refill the ones they read. Runs wherever weights or executors
    /// change — all `&mut self`, so never while a sample is in flight.
    fn prepare(&mut self) {
        self.weights.kkfc.clear();
        self.weights.kkcf.clear();
        self.fwd.prepare(&self.spec, &mut self.weights);
        self.bwd.prepare(&self.spec, &mut self.weights);
    }

    /// Creates a layer with explicit weights (used by tests and oracles).
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::BufferLength`] if the weight length mismatches.
    pub fn with_weights(spec: ConvSpec, weights: Tensor) -> Result<Self, ConvError> {
        if weights.len() != spec.weight_shape().len() {
            return Err(ConvError::BufferLength {
                what: "weights",
                expected: spec.weight_shape().len(),
                actual: weights.len(),
            });
        }
        Ok(Self::assemble(spec, weights))
    }

    /// The convolution specification.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// Borrows the weights.
    pub fn weights(&self) -> &Tensor {
        &self.weights.fckk
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

    fn forward(&self, input: &[f32], output: &mut [f32], scratch: &mut ConvScratch) {
        self.fwd.forward(&self.spec, input, &self.weights, output, scratch);
        spg_telemetry::record_workspace_bytes(scratch.bytes() as u64);
    }

    fn backward(
        &self,
        input: &[f32],
        _output: &[f32],
        grad_out: &[f32],
        grad_in: &mut [f32],
        param_grads: &mut Tensor,
        scratch: &mut ConvScratch,
    ) {
        assert_eq!(param_grads.len(), self.weights.fckk.len(), "parameter gradient length");
        // Split the two kernel sub-phases under the enclosing layer scope
        // so goodput is observable per kernel, not just per layer. An
        // empty `grad_in` is layer 0's: nobody reads the image gradient,
        // and each sub-phase stages its own operands.
        if !grad_in.is_empty() {
            let _telemetry = spg_telemetry::phase_scope(spg_telemetry::Phase::BackwardData);
            self.bwd.backward_data(&self.spec, &self.weights, grad_out, grad_in, scratch);
            spg_telemetry::record_workspace_bytes(scratch.bytes() as u64);
        }
        {
            let _telemetry = spg_telemetry::phase_scope(spg_telemetry::Phase::BackwardWeights);
            self.bwd.backward_weights(
                &self.spec,
                input,
                grad_out,
                param_grads.as_mut_slice(),
                scratch,
            );
            spg_telemetry::record_workspace_bytes(scratch.bytes() as u64);
        }
    }

    fn param_count(&self) -> usize {
        self.weights.fckk.len()
    }

    fn apply_update(&mut self, grads: &Tensor, lr: f32) {
        assert_eq!(grads.len(), self.weights.fckk.len(), "gradient length");
        for (w, g) in self.weights.fckk.iter_mut().zip(grads.iter()) {
            *w -= lr * g;
        }
        self.prepare();
    }

    fn conv_spec(&self) -> Option<&ConvSpec> {
        Some(&self.spec)
    }

    fn as_conv_mut(&mut self) -> Option<&mut ConvLayer> {
        Some(self)
    }

    fn params(&self) -> Option<&[f32]> {
        Some(self.weights.fckk.as_slice())
    }

    fn set_params(&mut self, params: &[f32]) {
        assert_eq!(params.len(), self.weights.fckk.len(), "parameter length");
        self.weights.fckk.as_mut_slice().copy_from_slice(params);
        self.prepare();
    }
}

/// Rectified linear unit: `y = max(0, x)`.
///
/// ReLU is the source of the error-gradient sparsity the paper exploits:
/// wherever the forward activation clamped to zero, the backward gradient
/// is zeroed too, and trained networks clamp most activations (Fig. 3b).
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

    fn forward(&self, input: &[f32], output: &mut [f32], _scratch: &mut ConvScratch) {
        for (o, &i) in output.iter_mut().zip(input) {
            *o = i.max(0.0);
        }
    }

    fn backward(
        &self,
        _input: &[f32],
        output: &[f32],
        grad_out: &[f32],
        grad_in: &mut [f32],
        _param_grads: &mut Tensor,
        _scratch: &mut ConvScratch,
    ) {
        for ((gi, &go), &o) in grad_in.iter_mut().zip(grad_out).zip(output) {
            *gi = if o > 0.0 { go } else { 0.0 };
        }
    }
}

/// Non-overlapping max pooling over square windows.
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

    fn forward(&self, input: &[f32], output: &mut [f32], _scratch: &mut ConvScratch) {
        let out = self.out_shape();
        let k = self.window;
        for c in 0..out.c {
            for y in 0..out.h {
                for x in 0..out.w {
                    let mut best = f32::NEG_INFINITY;
                    for dy in 0..k {
                        for dx in 0..k {
                            best = best.max(input[self.in_shape.index(c, y * k + dy, x * k + dx)]);
                        }
                    }
                    output[out.index(c, y, x)] = best;
                }
            }
        }
    }

    fn backward(
        &self,
        input: &[f32],
        _output: &[f32],
        grad_out: &[f32],
        grad_in: &mut [f32],
        _param_grads: &mut Tensor,
        _scratch: &mut ConvScratch,
    ) {
        grad_in.fill(0.0);
        let out = self.out_shape();
        let k = self.window;
        for c in 0..out.c {
            for y in 0..out.h {
                for x in 0..out.w {
                    // Route the gradient to the argmax cell of the window.
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0;
                    for dy in 0..k {
                        for dx in 0..k {
                            let idx = self.in_shape.index(c, y * k + dy, x * k + dx);
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
    }
}

/// Independent partial sums [`dot`] keeps in flight: enough to fill the
/// widest vector unit twice over, so the loop is bound by the weight
/// stream and not by one add's latency.
const DOT_LANES: usize = 32;

/// `sum(w[i] * x[i])` at a summation order fixed by this source, not by
/// the compiler or the ISA: element `i` accumulates (multiply, then add —
/// Rust never fuses the two) into partial sum `i % DOT_LANES`, the partial
/// sums fold by a halving tree (lane `l` takes in lane `l + 16`, then
/// `l + 8`, ... `l + 1`), and the tail past the last whole block of
/// [`DOT_LANES`] is added last, in order. The partial sums are
/// independent, so the loop vectorizes at whatever width the target has,
/// and every host, worker count and row split computes the same bits.
fn dot(w: &[f32], x: &[f32]) -> f32 {
    assert_eq!(w.len(), x.len(), "dot operand lengths");
    let (blocks_w, blocks_x) = (w.chunks_exact(DOT_LANES), x.chunks_exact(DOT_LANES));
    let (tail_w, tail_x) = (blocks_w.remainder(), blocks_x.remainder());
    let mut acc = [0.0f32; DOT_LANES];
    for (bw, bx) in blocks_w.zip(blocks_x) {
        for ((a, wi), xi) in acc.iter_mut().zip(bw).zip(bx) {
            *a += wi * xi;
        }
    }
    let mut width = DOT_LANES / 2;
    while width > 0 {
        let (lo, hi) = acc.split_at_mut(width);
        for (l, h) in lo.iter_mut().zip(hi.iter()) {
            *l += h;
        }
        width /= 2;
    }
    tail_w.iter().zip(tail_x).fold(acc[0], |sum, (wi, xi)| sum + wi * xi)
}

/// A fully-connected (dense) layer with bias: `y = W x + b`.
///
/// Forward is one dot product per output row, summed in an order fixed by
/// the source — 32 independent partial sums over whole blocks of the row,
/// folded by a halving tree, then the tail — so it vectorizes and gives
/// the same bits on every host. A call whose
/// [core budget](ConvScratch::cores) exceeds 1 splits the rows over that
/// many threads; a row is one thread's dot product whichever thread gets
/// it, so the logits do not depend on the split.
///
/// Backward keeps the weight gradient `dW = δ ⊗ x` as its two factors: the
/// gradient record is `[δ (out_len) | x (in_len)]`, and
/// [`add_grads`](Layer::add_grads) forms `acc[r][c] += δ[r] * x[c]` per
/// sample — multiply, then add, which is operation for operation what
/// adding a dense `dW` would do — only where and when a fold asks for it.
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

    fn forward(&self, input: &[f32], output: &mut [f32], scratch: &mut ConvScratch) {
        assert_eq!(output.len(), self.out_len, "output length");
        let (w, b, n) = (self.weights(), self.biases(), self.in_len);
        // One task of rows per thread; a budget of 1 is one task, which
        // `fork_join` runs right here.
        let threads = scratch.cores.clamp(1, self.out_len.max(1));
        let per_thread = self.out_len.div_ceil(threads).max(1);
        spg_sync::fork_join(output.chunks_mut(per_thread).enumerate().map(|(t, rows)| {
            move || {
                for (o, r) in rows.iter_mut().zip(t * per_thread..) {
                    *o = b[r] + dot(&w[r * n..(r + 1) * n], input);
                }
            }
        }));
    }

    fn backward(
        &self,
        input: &[f32],
        _output: &[f32],
        grad_out: &[f32],
        grad_in: &mut [f32],
        param_grads: &mut Tensor,
        _scratch: &mut ConvScratch,
    ) {
        // `>=`, not `==`: the frozen benchmark probe hands every layer a
        // `param_count()`-long buffer. Tighten with ROADMAP item 5.
        assert!(param_grads.len() >= self.grad_record_len(), "gradient record length");
        let (delta, x) =
            param_grads.as_mut_slice()[..self.out_len + self.in_len].split_at_mut(self.out_len);
        delta.copy_from_slice(grad_out);
        x.copy_from_slice(input);
        let w = self.weights();
        grad_in.fill(0.0);
        for (r, &g) in grad_out.iter().enumerate() {
            let wrow = &w[r * self.in_len..(r + 1) * self.in_len];
            for (gi, &wi) in grad_in.iter_mut().zip(wrow) {
                *gi += g * wi;
            }
        }
    }

    fn param_count(&self) -> usize {
        self.params.len()
    }

    fn grad_record_len(&self) -> usize {
        self.out_len + self.in_len
    }

    fn add_grads(&self, records: &[&[f32]], at: usize, acc: &mut [f32]) {
        let (n, weights) = (self.in_len, self.in_len * self.out_len);
        assert!(at + acc.len() <= self.params.len(), "parameter range");
        let (mut at, mut rest) = (at, acc);
        // Weight rows the range touches; the first and last may be partial.
        while at < weights && !rest.is_empty() {
            let (r, c) = (at / n, at % n);
            let len = (n - c).min(rest.len());
            let (row, tail) = std::mem::take(&mut rest).split_at_mut(len);
            for record in records {
                let (delta, x) = (record[r], &record[self.out_len + c..self.out_len + n]);
                for (a, xi) in row.iter_mut().zip(x) {
                    *a += delta * xi;
                }
            }
            at += len;
            rest = tail;
        }
        // What is left lies in the bias rows, whose gradient is `δ` itself.
        if !rest.is_empty() {
            let first = at - weights;
            for record in records {
                for (a, delta) in rest.iter_mut().zip(&record[first..self.out_len]) {
                    *a += delta;
                }
            }
        }
    }

    fn apply_update(&mut self, grads: &Tensor, lr: f32) {
        assert_eq!(grads.len(), self.params.len(), "gradient length");
        for (p, g) in self.params.iter_mut().zip(grads.iter()) {
            *p -= lr * g;
        }
    }

    fn params(&self) -> Option<&[f32]> {
        Some(self.params.as_slice())
    }

    fn set_params(&mut self, params: &[f32]) {
        assert_eq!(params.len(), self.params.len(), "parameter length");
        self.params.as_mut_slice().copy_from_slice(params);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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
            let mut scratch = ConvScratch { cores, ..ConvScratch::new() };
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
        fc.add_grads(&[record.as_slice()], 0, grads.as_mut_slice());

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
        let mut layer = ConvLayer::new(spec, &mut rng);
        let before = layer.weights().clone();
        let grads = Tensor::filled(4, 1.0);
        layer.apply_update(&grads, 0.1);
        for (b, a) in before.iter().zip(layer.weights().iter()) {
            assert!((b - 0.1 - a).abs() < 1e-6);
        }
    }

    #[test]
    fn conv_layer_with_weights_validates() {
        let spec = ConvSpec::new(1, 3, 3, 1, 2, 2, 1, 1).unwrap();
        assert!(ConvLayer::with_weights(spec, Tensor::zeros(3)).is_err());
        assert!(ConvLayer::with_weights(spec, Tensor::zeros(4)).is_ok());
    }
}
