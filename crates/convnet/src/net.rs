//! Sequential network container with per-sample forward/backward passes
//! and the gradient-sparsity instrumentation behind the paper's Fig. 3b.
//!
//! Training runs a sample through [`Network::forward_into`] and
//! [`Network::backward_into`], entirely out of a caller-provided
//! [`Workspace`] — no per-sample heap allocation. Inference
//! ([`Network::forward`], [`Network::predict`], [`Network::infer_batch`])
//! runs the same forward walk over what forward reads only: an activation
//! trace and a [`ConvScratch`], never a training workspace's gradient
//! buffers.

use spg_tensor::Tensor;

use crate::layer::Layer;
use crate::workspace::{ConvScratch, Workspace};
use crate::ConvError;

/// Telemetry scope label for layer `index` with [`Layer::name`] `name`:
/// `conv0`, `relu1`, ... — the per-layer key of the metrics JSON schema.
///
/// # Example
///
/// ```
/// assert_eq!(spg_convnet::scope_label(0, "conv"), "conv0");
/// ```
pub fn scope_label(index: usize, name: &str) -> String {
    format!("{name}{index}")
}

/// All activations recorded during one sample's forward pass.
///
/// `activations[0]` is the input; `activations[i + 1]` is the output of
/// layer `i`. The trace is what `backward` consumes, which keeps the
/// layers themselves stateless and shareable across worker threads.
#[derive(Debug, Clone)]
pub struct SampleTrace {
    /// Input followed by each layer's output, in order.
    pub activations: Vec<Tensor>,
}

impl SampleTrace {
    /// Preallocates a trace shaped for `net`, ready for
    /// [`Network::forward_into`] to fill in place.
    pub fn for_network(net: &Network) -> Self {
        let mut activations = Vec::with_capacity(net.layers().len() + 1);
        activations.push(Tensor::zeros(net.input_len()));
        for layer in net.layers() {
            activations.push(Tensor::zeros(layer.output_len()));
        }
        SampleTrace { activations }
    }

    /// The network output (logits) for this sample.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty (cannot happen for traces produced by
    /// [`Network::forward`]).
    pub fn logits(&self) -> &Tensor {
        self.activations.last().expect("trace contains at least the input")
    }
}

/// Zero fraction of a slice (the [`Tensor::sparsity`] measure on borrows).
fn slice_sparsity(s: &[f32]) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    s.iter().filter(|v| **v == 0.0).count() as f64 / s.len() as f64
}

/// Index of the largest logit (the first, on ties).
fn argmax(logits: &Tensor) -> usize {
    let mut best = 0;
    for i in 1..logits.len() {
        if logits[i] > logits[best] {
            best = i;
        }
    }
    best
}

/// A sequential stack of layers with a softmax + cross-entropy loss head.
///
/// # Example
///
/// ```
/// use rand::{SeedableRng, rngs::SmallRng};
/// use spg_convnet::layer::{FcLayer, ReluLayer};
/// use spg_convnet::Network;
/// use spg_tensor::Tensor;
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let net = Network::new(vec![
///     Box::new(FcLayer::new(4, 8, &mut rng)),
///     Box::new(ReluLayer::new(8)),
///     Box::new(FcLayer::new(8, 3, &mut rng)),
/// ])?;
/// let trace = net.forward(&Tensor::filled(4, 0.5));
/// let (loss, _grad) = Network::loss_and_gradient(trace.logits(), 1);
/// assert!(loss > 0.0);
/// # Ok::<(), spg_convnet::ConvError>(())
/// ```
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Network(")?;
        for (i, l) in self.layers.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{}", l.name())?;
        }
        write!(f, ")")
    }
}

impl Network {
    /// Creates a network, validating that adjacent layer geometries chain.
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::EmptyNetwork`] for an empty stack, or
    /// [`ConvError::LayerMismatch`] when a layer's input length differs
    /// from its predecessor's output length.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Result<Self, ConvError> {
        if layers.is_empty() {
            return Err(ConvError::EmptyNetwork);
        }
        for i in 1..layers.len() {
            let produced = layers[i - 1].output_len();
            let expected = layers[i].input_len();
            if produced != expected {
                return Err(ConvError::LayerMismatch { layer: i, produced, expected });
            }
        }
        Ok(Network { layers })
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the layers (for executor re-planning).
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Number of input activations the network expects.
    pub fn input_len(&self) -> usize {
        self.layers[0].input_len()
    }

    /// Number of output logits the network produces.
    pub fn output_len(&self) -> usize {
        self.layers.last().expect("validated non-empty").output_len()
    }

    /// Runs one sample forward entirely inside `ws`, filling
    /// `ws.trace` — the allocation-free hot-path variant of
    /// [`Network::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_len()` or `ws` was planned for
    /// a different network geometry.
    pub fn forward_into(&self, input: &[f32], ws: &mut Workspace) {
        self.forward_walk(input, &mut ws.trace, &mut ws.scratch);
    }

    /// The forward pass: fills `trace` layer by layer, staging through
    /// `scratch`. Everything a forward needs and nothing a backward does.
    /// The caller has set `scratch.cores` to the cores this sample owns.
    pub(crate) fn forward_walk(
        &self,
        input: &[f32],
        trace: &mut SampleTrace,
        scratch: &mut ConvScratch,
    ) {
        assert_eq!(input.len(), self.input_len(), "input length");
        assert_eq!(trace.activations.len(), self.layers.len() + 1, "workspace trace length");
        trace.activations[0].as_mut_slice().copy_from_slice(input);
        for (i, layer) in self.layers.iter().enumerate() {
            let _telemetry =
                spg_telemetry::scope(&scope_label(i, layer.name()), spg_telemetry::Phase::Forward);
            let (prev, rest) = trace.activations.split_at_mut(i + 1);
            layer.forward(prev[i].as_slice(), rest[0].as_mut_slice(), scratch);
        }
    }

    /// Runs one sample forward, recording every activation.
    ///
    /// Allocates a fresh trace per call; training uses
    /// [`Network::forward_into`] with a pooled [`Workspace`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_len()`.
    pub fn forward(&self, input: &Tensor) -> SampleTrace {
        let mut trace = SampleTrace::for_network(self);
        self.forward_walk(input.as_slice(), &mut trace, &mut ConvScratch::new());
        trace
    }

    /// Softmax + cross-entropy loss and its gradient w.r.t. the logits.
    ///
    /// Returns `(loss, grad)` where `grad[i] = softmax(logits)[i] - [i == label]`.
    ///
    /// # Panics
    ///
    /// Panics if `label >= logits.len()`.
    pub fn loss_and_gradient(logits: &Tensor, label: usize) -> (f32, Tensor) {
        assert!(label < logits.len(), "label out of range");
        let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = logits.iter().map(|v| (v - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        let mut grad = Tensor::from_vec(exps.iter().map(|e| e / sum).collect());
        let loss = -(grad[label].max(1e-12)).ln();
        grad[label] -= 1.0;
        (loss, grad)
    }

    /// Runs one sample backward from a loss gradient at the logits, using
    /// the activations [`Network::forward_into`] left in `ws.trace` and
    /// writing per-layer gradient records (see [`Layer`]) into
    /// `ws.param_grads` and
    /// gradient-sparsity measurements (the zero fraction of the
    /// *output-side* error gradient each layer received — Fig. 3b's
    /// quantity for conv layers) into `ws.grad_sparsity`. A convolution
    /// at layer 0 is handed an empty `grad_in`: the gradient with respect
    /// to the image has no reader, so it is not computed.
    ///
    /// # Panics
    ///
    /// Panics if `loss_grad.len() != self.output_len()` or `ws` was planned
    /// for a different network geometry.
    pub fn backward_into(&self, loss_grad: &[f32], ws: &mut Workspace) {
        assert_eq!(loss_grad.len(), self.output_len(), "loss gradient length");
        let Workspace { trace, param_grads, grad_sparsity, scratch, grad_a, grad_b } = ws;
        assert_eq!(trace.activations.len(), self.layers.len() + 1, "workspace trace length");
        assert_eq!(param_grads.len(), self.layers.len(), "workspace gradient slots");
        grad_a.as_mut_slice()[..loss_grad.len()].copy_from_slice(loss_grad);
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let _telemetry =
                spg_telemetry::scope(&scope_label(i, layer.name()), spg_telemetry::Phase::Backward);
            let out_len = layer.output_len();
            let in_len = layer.input_len();
            let grad_out = &grad_a.as_slice()[..out_len];
            grad_sparsity[i] = slice_sparsity(grad_out);
            let in_len = if i == 0 && layer.conv_spec().is_some() { 0 } else { in_len };
            layer.backward(
                trace.activations[i].as_slice(),
                trace.activations[i + 1].as_slice(),
                grad_out,
                &mut grad_b.as_mut_slice()[..in_len],
                &mut param_grads[i],
                scratch,
            );
            std::mem::swap(grad_a, grad_b);
        }
    }

    /// Predicted class (argmax of logits) for one sample.
    pub fn predict(&self, input: &Tensor) -> usize {
        argmax(self.forward(input).logits())
    }

    /// Classifies a batch of samples, distributing whole samples across
    /// `threads` workers — inference under the GEMM-in-Parallel schedule
    /// (forward propagation is the inference subset of training, Sec. 6).
    /// Each worker builds one trace and one scratch and reuses them for
    /// every sample it classifies. A batch smaller than `threads` leaves
    /// cores without a sample; each worker then gets `threads /
    /// inputs.len()` of them as its [core budget](ConvScratch::cores) and
    /// spends them inside its sample. The classes do not depend on
    /// `threads`.
    ///
    /// Returns the predicted class per sample, in input order.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or any input has the wrong length.
    pub fn infer_batch(&self, inputs: &[Tensor], threads: usize) -> Vec<usize> {
        assert!(threads > 0, "thread count must be positive");
        let workers = threads.min(inputs.len().max(1));
        let classify = |batch: &[Tensor]| {
            let mut trace = SampleTrace::for_network(self);
            let mut scratch = ConvScratch { cores: threads / workers, ..ConvScratch::new() };
            let classes = batch.iter().map(|input| {
                self.forward_walk(input.as_slice(), &mut trace, &mut scratch);
                argmax(trace.logits())
            });
            classes.collect::<Vec<_>>()
        };
        if workers <= 1 {
            return classify(inputs);
        }
        let chunk = inputs.len().div_ceil(workers);
        let classes =
            spg_sync::fork_join(inputs.chunks(chunk).map(|batch| move || classify(batch)));
        classes.into_iter().flatten().collect()
    }

    /// Applies averaged parameter gradients from a dense per-layer slice:
    /// `params -= (lr / scale) * grads`. Empty tensors (parameter-free
    /// layers) are skipped. Never allocates — the trainer's hot loop calls
    /// it with [`Workspace`]-accumulated gradients.
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not have one entry per layer.
    pub fn apply_gradient_slices(&mut self, grads: &[Tensor], lr: f32, scale: f32) {
        assert_eq!(grads.len(), self.layers.len(), "one gradient slot per layer");
        for (layer, grad) in self.layers.iter_mut().zip(grads) {
            if !grad.is_empty() {
                layer.apply_update(grad, lr / scale);
            }
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

    fn tiny_net(rng: &mut SmallRng) -> Network {
        let spec = ConvSpec::new(1, 8, 8, 4, 3, 3, 1, 1).unwrap();
        let conv = ConvLayer::new(spec, rng);
        let out = spec.output_shape();
        Network::new(vec![
            Box::new(conv),
            Box::new(ReluLayer::new(out.len())),
            Box::new(MaxPoolLayer::new(Shape3::new(out.c, out.h, out.w), 2).unwrap()),
            Box::new(FcLayer::new(4 * 3 * 3, 3, rng)),
        ])
        .unwrap()
    }

    #[test]
    fn geometry_validation() {
        let mut rng = SmallRng::seed_from_u64(0);
        let bad = Network::new(vec![
            Box::new(FcLayer::new(4, 8, &mut rng)) as Box<dyn Layer>,
            Box::new(FcLayer::new(9, 3, &mut rng)),
        ]);
        assert!(matches!(bad, Err(ConvError::LayerMismatch { layer: 1, .. })));
        assert!(matches!(Network::new(vec![]), Err(ConvError::EmptyNetwork)));
    }

    #[test]
    fn forward_records_all_activations() {
        let mut rng = SmallRng::seed_from_u64(1);
        let net = tiny_net(&mut rng);
        let trace = net.forward(&Tensor::filled(64, 0.1));
        assert_eq!(trace.activations.len(), 5);
        assert_eq!(trace.logits().len(), 3);
    }

    #[test]
    fn softmax_loss_gradient_sums_to_zero() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0]);
        let (loss, grad) = Network::loss_and_gradient(&logits, 2);
        assert!(loss > 0.0);
        assert!(grad.iter().sum::<f32>().abs() < 1e-6);
        assert!(grad[2] < 0.0); // true class pushed up
    }

    #[test]
    fn loss_decreases_under_sgd_step() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut net = tiny_net(&mut rng);
        let input = Tensor::random_uniform(64, 1.0, &mut rng);
        let label = 1;
        let mut losses = Vec::new();
        let mut ws = Workspace::for_network(&net);
        let mut grads = crate::sgd::zero_param_grads(&net);
        for _ in 0..12 {
            net.forward_into(input.as_slice(), &mut ws);
            let (loss, grad) = Network::loss_and_gradient(ws.trace.logits(), label);
            losses.push(loss);
            net.backward_into(grad.as_slice(), &mut ws);
            let dense = grads.iter_mut().map(Tensor::as_mut_slice);
            crate::sgd::fold_records(&net, std::slice::from_ref(&ws.param_grads), 1, true, dense);
            net.apply_gradient_slices(&grads, 0.05, 1.0);
        }
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "loss did not decrease: {losses:?}"
        );
    }

    #[test]
    fn backward_measures_sparsity_per_layer() {
        let mut rng = SmallRng::seed_from_u64(3);
        let net = tiny_net(&mut rng);
        let mut ws = Workspace::for_network(&net);
        net.forward_into(Tensor::random_uniform(64, 1.0, &mut rng).as_slice(), &mut ws);
        let (_, grad) = Network::loss_and_gradient(ws.trace.logits(), 0);
        net.backward_into(grad.as_slice(), &mut ws);
        assert_eq!(ws.grad_sparsity.len(), 4);
        // The conv layer's incoming gradient passed through ReLU+pool and
        // must show some sparsity; the logits gradient is dense.
        assert!(ws.grad_sparsity[0] > 0.0);
        assert_eq!(ws.grad_sparsity[3], 0.0);
    }

    #[test]
    fn predict_returns_argmax() {
        let mut rng = SmallRng::seed_from_u64(4);
        let net = tiny_net(&mut rng);
        let p = net.predict(&Tensor::filled(64, 0.2));
        assert!(p < 3);
    }

    #[test]
    fn infer_batch_matches_sequential_prediction() {
        let mut rng = SmallRng::seed_from_u64(6);
        let net = tiny_net(&mut rng);
        let inputs: Vec<Tensor> =
            (0..9).map(|_| Tensor::random_uniform(64, 1.0, &mut rng)).collect();
        let sequential: Vec<usize> = inputs.iter().map(|i| net.predict(i)).collect();
        for threads in [1, 2, 4, 16] {
            assert_eq!(net.infer_batch(&inputs, threads), sequential, "threads={threads}");
        }
    }

    #[test]
    fn infer_batch_empty_input() {
        let mut rng = SmallRng::seed_from_u64(7);
        let net = tiny_net(&mut rng);
        assert!(net.infer_batch(&[], 4).is_empty());
    }

    #[test]
    fn debug_shows_layer_chain() {
        let mut rng = SmallRng::seed_from_u64(5);
        let net = tiny_net(&mut rng);
        let s = format!("{net:?}");
        assert!(s.contains("conv -> relu -> maxpool -> fc"));
    }
}
