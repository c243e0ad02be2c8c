//! Sequential network container with its forward and backward walks and
//! the gradient-sparsity instrumentation behind the paper's Fig. 3b.
//!
//! There is one training walk, layer-major over a *block* of samples: each
//! layer runs the whole block ([`Layer::forward_block`],
//! [`Layer::backward_block`]) before the next layer starts, entirely out of
//! a caller-provided [`Workspace`] — no heap allocation once it is warm.
//! Every trained sample goes through it (`sgd::process_block`): a trainer
//! slot runs its block of each batch, a ring rank its block, and a single
//! sample is a block of one. Inference ([`Network::forward_sample`],
//! [`Network::infer_batch`]) runs the same forward walk over what forward
//! reads only: an activation trace and a [`ConvScratch`], never a training
//! workspace's gradient buffers.

use spg_tensor::Tensor;

use crate::layer::Layer;
use crate::sgd::{update_layer, Grads, Rule, FORK_FLOOR};
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

/// All activations recorded during one forward pass.
///
/// `activations[0]` is the input; `activations[i + 1]` is the output of
/// layer `i`. A trace built here holds one sample; a training walk over a
/// block of `k` samples holds theirs back to back in each tensor. The trace
/// is what `backward` consumes, which keeps the layers themselves
/// stateless and shareable across worker threads.
#[derive(Debug, Clone)]
pub struct SampleTrace {
    /// Input followed by each layer's output, in order.
    pub activations: Vec<Tensor>,
}

impl SampleTrace {
    /// Preallocates a trace shaped for one sample of `net`, ready for
    /// [`Network::forward_sample`] to fill in place.
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
    /// Panics if the trace is empty (cannot happen for a trace built by
    /// [`SampleTrace::for_network`]).
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

/// Softmax + cross-entropy of `logits` against `label`, returning the loss
/// and writing its gradient with respect to the logits,
/// `softmax(logits) - onehot(label)`, into `grad` — in place, so a training
/// walk allocates nothing for it.
///
/// # Panics
///
/// Panics if `label >= logits.len()` or `grad.len() != logits.len()`.
pub(crate) fn loss_into(logits: &[f32], label: usize, grad: &mut [f32]) -> f32 {
    assert!(label < logits.len(), "label out of range");
    assert_eq!(grad.len(), logits.len(), "one gradient per logit");
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for (g, v) in grad.iter_mut().zip(logits) {
        *g = (v - max).exp();
    }
    let sum: f32 = grad.iter().sum();
    for g in grad.iter_mut() {
        *g /= sum;
    }
    let loss = -(grad[label].max(1e-12)).ln();
    grad[label] -= 1.0;
    loss
}

/// The class `logits` predict: the index of the first largest logit. A
/// later logit must compare greater to win, so ties (`-0.0` and `0.0`
/// included) go to the first and a NaN after index 0 never wins. The one
/// rule for the trainer's accuracy, [`Network::infer_batch`] and serving.
pub fn argmax(logits: &[f32]) -> usize {
    (1..logits.len()).fold(0, |best, i| if logits[i] > logits[best] { i } else { best })
}

/// A sequential stack of layers with a softmax + cross-entropy loss head.
///
/// # Example
///
/// ```
/// use rand::{SeedableRng, rngs::SmallRng};
/// use spg_convnet::layer::{FcLayer, ReluLayer};
/// use spg_convnet::{ConvScratch, Network, SampleTrace};
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let net = Network::new(vec![
///     Box::new(FcLayer::new(4, 8, &mut rng)),
///     Box::new(ReluLayer::new(8)),
///     Box::new(FcLayer::new(8, 3, &mut rng)),
/// ])?;
/// let mut trace = SampleTrace::for_network(&net);
/// net.forward_sample(&[0.5; 4], &mut trace, &mut ConvScratch::new());
/// let (loss, _grad) = Network::loss_and_gradient(trace.logits(), 1);
/// assert!(loss > 0.0);
/// # Ok::<(), spg_convnet::ConvError>(())
/// ```
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    /// [`scope_label`] of each layer, built once: a walk with telemetry off
    /// formats nothing.
    labels: Vec<String>,
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
        let labels = layers.iter().enumerate().map(|(i, l)| scope_label(i, l.name())).collect();
        Ok(Network { layers, labels })
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the layers (for executor re-planning). A layer
    /// put in another's place keeps that layer's telemetry label.
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

    /// One sample's forward pass: copies `input` into a one-sample
    /// `trace` (see [`SampleTrace::for_network`]) and walks it, every
    /// layer staging through `scratch` at its [core
    /// budget](ConvScratch::cores). The logits are `trace.logits()`. A
    /// caller that serves many samples keeps one trace and one scratch
    /// and allocates nothing once they are warm.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_len()` or `trace` is not
    /// shaped for one sample of this network.
    pub fn forward_sample(
        &self,
        input: &[f32],
        trace: &mut SampleTrace,
        scratch: &mut ConvScratch,
    ) {
        assert_eq!(input.len(), self.input_len(), "input length");
        trace.activations[0].as_mut_slice().copy_from_slice(input);
        self.forward_walk(trace, scratch);
    }

    /// The forward walk: from the block of inputs in `trace.activations[0]`
    /// it fills every later activation, layer by layer, staging through
    /// `scratch`. Everything a forward needs and nothing a backward does.
    /// The caller has set `scratch.cores` to the cores this block owns.
    pub(crate) fn forward_walk(&self, trace: &mut SampleTrace, scratch: &mut ConvScratch) {
        assert_eq!(trace.activations.len(), self.layers.len() + 1, "workspace trace length");
        for (i, layer) in self.layers.iter().enumerate() {
            let _telemetry = spg_telemetry::scope(&self.labels[i], spg_telemetry::Phase::Forward);
            let (prev, rest) = trace.activations.split_at_mut(i + 1);
            layer.forward_block(prev[i].as_slice(), rest[0].as_mut_slice(), scratch);
        }
    }

    /// Softmax + cross-entropy loss and its gradient w.r.t. the logits.
    ///
    /// Returns `(loss, grad)` where `grad[i] = softmax(logits)[i] - [i == label]`.
    ///
    /// # Panics
    ///
    /// Panics if `label >= logits.len()`.
    pub fn loss_and_gradient(logits: &Tensor, label: usize) -> (f32, Tensor) {
        let mut grad = Tensor::zeros(logits.len());
        let loss = loss_into(logits.as_slice(), label, grad.as_mut_slice());
        (loss, grad)
    }

    /// How many of the layers are convolutions: the length of the Fig. 3b
    /// sparsity series.
    pub(crate) fn conv_count(&self) -> usize {
        self.layers.iter().filter(|l| l.conv_spec().is_some()).count()
    }

    /// The backward walk over the block of `records.len()` samples whose
    /// forward walk `ws.trace` holds, from their loss gradients back to
    /// back at the head of `ws.grad_a`: layer by layer in reverse, sample
    /// `s`'s gradient records (see [`Layer`]) land in `records[s]` and the
    /// zero fraction of the *output-side* error gradient each conv layer
    /// received — Fig. 3b's quantity — in `sparsity[s * convs..]`, in
    /// network order. A convolution at layer 0 is handed an empty
    /// `grad_ins`: the gradient with respect to the image has no reader, so
    /// it is not computed.
    pub(crate) fn backward_walk(
        &self,
        ws: &mut Workspace,
        records: &mut [Vec<Tensor>],
        sparsity: &mut [f64],
    ) {
        let (k, layers, convs) = (records.len(), self.layers.len(), self.conv_count());
        let Workspace { trace, scratch, grad_a, grad_b, staging } = ws;
        assert_eq!(trace.activations.len(), layers + 1, "workspace trace length");
        assert_eq!(trace.activations[0].len(), k * self.input_len(), "one trace per record set");
        assert!(records.iter().all(|r| r.len() == layers), "gradient slots per sample");
        assert_eq!(sparsity.len(), k * convs, "one sparsity per sample and conv layer");
        staging.resize_with(k, Tensor::default);
        let mut conv = convs;
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let _telemetry = spg_telemetry::scope(&self.labels[i], spg_telemetry::Phase::Backward);
            let out_len = layer.output_len();
            let grad_outs = &grad_a.as_slice()[..k * out_len];
            let is_conv = layer.conv_spec().is_some();
            if is_conv {
                conv -= 1;
                for (s, grad_out) in grad_outs.chunks_exact(out_len).enumerate() {
                    sparsity[s * convs + conv] = slice_sparsity(grad_out);
                }
            }
            let in_len = if i == 0 && is_conv { 0 } else { layer.input_len() };
            // The layer takes this layer's record of every sample as one
            // slice: move them in, and back once it has written them.
            for (slot, record) in staging.iter_mut().zip(records.iter_mut()) {
                std::mem::swap(slot, &mut record[i]);
            }
            layer.backward_block(
                trace.activations[i].as_slice(),
                trace.activations[i + 1].as_slice(),
                grad_outs,
                &mut grad_b.as_mut_slice()[..k * in_len],
                staging,
                scratch,
            );
            for (slot, record) in staging.iter_mut().zip(records.iter_mut()) {
                std::mem::swap(slot, &mut record[i]);
            }
            std::mem::swap(grad_a, grad_b);
        }
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
            let mut scratch = ConvScratch::with_cores(threads / workers);
            let classes = batch.iter().map(|input| {
                self.forward_sample(input.as_slice(), &mut trace, &mut scratch);
                argmax(trace.logits().as_slice())
            });
            classes.collect::<Vec<_>>()
        };
        if workers <= 1 {
            return classify(inputs);
        }
        let classes = spg_sync::fork_join((0..workers).map(|w| {
            let batch = &inputs[spg_sync::partition(inputs.len(), workers, w)];
            move || classify(batch)
        }));
        classes.into_iter().flatten().collect()
    }

    /// Applies summed parameter gradients from a dense per-layer slice:
    /// `params -= (lr / scale) * grads`, through the trainer's update rule
    /// on the calling thread. Empty tensors (parameter-free layers) are
    /// skipped. Never allocates.
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not have one entry per layer.
    pub fn apply_gradient_slices(&mut self, grads: &[Tensor], lr: f32, scale: f32) {
        assert_eq!(grads.len(), self.layers.len(), "one gradient slot per layer");
        let rule = Rule { learning_rate: lr, momentum: 0.0, scale };
        for (layer, grad) in self.layers.iter_mut().zip(grads) {
            if !grad.is_empty() {
                let grad = Grads::Summed(grad.as_slice());
                update_layer(&mut **layer, rule, grad, &mut [], &mut [], FORK_FLOOR);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::layer::{ConvLayer, FcLayer, MaxPoolLayer, ReluLayer};
    use crate::ConvSpec;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spg_tensor::Shape3;

    /// One sample's forward walk on a fresh trace.
    pub(crate) fn trace_of(net: &Network, input: &Tensor) -> SampleTrace {
        let mut trace = SampleTrace::for_network(net);
        net.forward_sample(input.as_slice(), &mut trace, &mut ConvScratch::new());
        trace
    }

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
        let trace = trace_of(&net, &Tensor::filled(64, 0.1));
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
        use crate::sgd::{add_records, process_block, zero_param_grads};
        use crate::workspace::record_buffers;

        let mut rng = SmallRng::seed_from_u64(2);
        let mut net = tiny_net(&mut rng);
        let data = crate::data::Dataset::synthetic(Shape3::new(1, 8, 8), 3, 1, 0.2, 2);
        let mut losses = Vec::new();
        let mut ws = Workspace::for_network(&net);
        let (mut records, mut result, mut sparsity) =
            ([record_buffers(&net)], [(0.0, false)], [0.0]);
        for _ in 0..12 {
            process_block(&net, &data, 0..1, &mut ws, &mut records, &mut result, &mut sparsity);
            losses.push(result[0].0);
            let mut grads = zero_param_grads(&net);
            for (l, grad) in grads.iter_mut().enumerate() {
                add_records(&net, l, &records, grad.as_mut_slice());
            }
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
        assert_eq!(net.conv_count(), 1);
        let data = crate::data::Dataset::synthetic(Shape3::new(1, 8, 8), 3, 1, 0.2, 3);
        let mut ws = Workspace::for_network(&net);
        let (mut records, mut sparsity) = ([crate::workspace::record_buffers(&net)], [f64::NAN]);
        let scalars = &mut [(0.0, false)];
        crate::sgd::process_block(&net, &data, 0..1, &mut ws, &mut records, scalars, &mut sparsity);
        // The conv layer's incoming gradient passed through ReLU+pool and
        // must show some sparsity.
        assert!(sparsity[0] > 0.0 && sparsity[0] < 1.0, "{sparsity:?}");
    }

    #[test]
    fn infer_batch_matches_sequential_prediction() {
        let mut rng = SmallRng::seed_from_u64(6);
        let net = tiny_net(&mut rng);
        let inputs: Vec<Tensor> =
            (0..9).map(|_| Tensor::random_uniform(64, 1.0, &mut rng)).collect();
        let sequential: Vec<usize> =
            inputs.iter().map(|i| argmax(trace_of(&net, i).logits().as_slice())).collect();
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

    /// conv/relu/pool/fc/relu/fc, the net the block walk is tested on.
    fn block_net(rng: &mut SmallRng) -> Network {
        let spec = ConvSpec::new(1, 8, 8, 4, 3, 3, 1, 1).unwrap();
        let out = spec.output_shape();
        Network::new(vec![
            Box::new(ConvLayer::new(spec, rng)),
            Box::new(ReluLayer::new(out.len())),
            Box::new(MaxPoolLayer::new(Shape3::new(out.c, out.h, out.w), 2).unwrap()),
            Box::new(FcLayer::new(4 * 3 * 3, 40, rng)),
            Box::new(ReluLayer::new(40)),
            Box::new(FcLayer::new(40, 3, rng)),
        ])
        .unwrap()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A block of k samples leaves each sample the bits k walks of one
    /// leave it: every activation, every gradient record, the gradient
    /// sparsities, the loss and the verdict.
    #[test]
    fn a_block_walk_matches_single_sample_walks() {
        use crate::sgd::process_block;
        use crate::workspace::record_buffers;

        let mut rng = SmallRng::seed_from_u64(8);
        let net = block_net(&mut rng);
        let convs = net.conv_count();
        let data = crate::data::Dataset::synthetic(Shape3::new(1, 8, 8), 3, 5, 0.2, 5);
        let mut ws = Workspace::for_network(&net);
        let singles: Vec<_> = (0..5)
            .map(|i| {
                let (mut records, mut result) = (vec![record_buffers(&net)], [(0.0, false)]);
                let mut sparsity = vec![f64::NAN; convs];
                process_block(
                    &net,
                    &data,
                    i..i + 1,
                    &mut ws,
                    &mut records,
                    &mut result,
                    &mut sparsity,
                );
                let (loss, correct) = result[0];
                let acts = ws.trace.activations.clone();
                (acts, records.remove(0), sparsity, loss.to_bits(), correct)
            })
            .collect();
        for k in 1..=5 {
            let mut ws = Workspace::for_network(&net);
            let mut records: Vec<_> = (0..k).map(|_| record_buffers(&net)).collect();
            let mut results = vec![(f32::NAN, false); k];
            let mut sparsities = vec![f64::NAN; k * convs];
            process_block(&net, &data, 0..k, &mut ws, &mut records, &mut results, &mut sparsities);
            for (s, (acts, one_records, sparsity, loss, correct)) in singles[..k].iter().enumerate()
            {
                for (i, (block, one)) in ws.trace.activations.iter().zip(acts).enumerate() {
                    let at = s * one.len()..(s + 1) * one.len();
                    assert_eq!(
                        bits(&block.as_slice()[at]),
                        bits(one.as_slice()),
                        "k {k} s {s} act {i}"
                    );
                }
                for (l, (block, one)) in records[s].iter().zip(one_records).enumerate() {
                    assert_eq!(
                        bits(block.as_slice()),
                        bits(one.as_slice()),
                        "k {k} s {s} record {l}"
                    );
                }
                let block_sparsity = &sparsities[s * convs..(s + 1) * convs];
                assert_eq!(block_sparsity, &sparsity[..], "k {k} s {s} sparsity");
                assert_eq!(
                    (results[s].0.to_bits(), results[s].1),
                    (*loss, *correct),
                    "k {k} s {s}"
                );
            }
        }
    }

    /// Each layer's block methods give every sample of a block what a
    /// block of one ([`Layer::forward`], [`Layer::backward`]) gives it —
    /// outputs, input gradients and records — at block sizes that cross
    /// the FC kernels' groups, and the FC rows split over cores as well.
    #[test]
    fn layer_block_methods_match_per_sample_calls() {
        let mut rng = SmallRng::seed_from_u64(9);
        let net = block_net(&mut rng);
        for (i, layer) in net.layers().iter().enumerate() {
            let (n, m) = (layer.input_len(), layer.output_len());
            let grad_len = if i == 0 { 0 } else { n };
            for k in [1, 2, 3, 4, 5, 9] {
                let inputs = Tensor::random_uniform(k * n, 1.0, &mut rng);
                // Every third output gradient is zero, as behind a ReLU.
                let mut grad_outs = Tensor::random_uniform(k * m, 1.0, &mut rng);
                grad_outs.as_mut_slice().iter_mut().step_by(3).for_each(|g| *g = 0.0);
                let (inputs, grad_outs) = (inputs.as_slice(), grad_outs.as_slice());
                let mut one_out = vec![0.0; k * m];
                let mut one_grad_in = vec![f32::NAN; k * grad_len];
                let mut one_records = vec![Tensor::zeros(layer.grad_record_len()); k];
                let mut scratch = ConvScratch::new();
                for s in 0..k {
                    let output = &mut one_out[s * m..(s + 1) * m];
                    layer.forward(&inputs[s * n..(s + 1) * n], output, &mut scratch);
                }
                for (s, record) in one_records.iter_mut().enumerate() {
                    layer.backward(
                        &inputs[s * n..(s + 1) * n],
                        &one_out[s * m..(s + 1) * m],
                        &grad_outs[s * m..(s + 1) * m],
                        &mut one_grad_in[s * grad_len..(s + 1) * grad_len],
                        record,
                        &mut scratch,
                    );
                }
                for cores in [1, 3] {
                    let at = (i, k, cores);
                    let mut scratch = ConvScratch::with_cores(cores);
                    let mut out = vec![f32::NAN; k * m];
                    layer.forward_block(inputs, &mut out, &mut scratch);
                    assert_eq!(bits(&out), bits(&one_out), "forward {at:?}");
                    let mut grad_in = vec![f32::NAN; k * grad_len];
                    let mut records = vec![Tensor::filled(layer.grad_record_len(), 7.0); k];
                    layer.backward_block(
                        inputs,
                        &out,
                        grad_outs,
                        &mut grad_in,
                        &mut records,
                        &mut scratch,
                    );
                    assert_eq!(bits(&grad_in), bits(&one_grad_in), "grad_in {at:?}");
                    let record_bits =
                        |r: &[Tensor]| r.iter().map(|t| bits(t.as_slice())).collect::<Vec<_>>();
                    assert_eq!(record_bits(&records), record_bits(&one_records), "records {at:?}");
                }
            }
        }
    }

    #[test]
    fn debug_shows_layer_chain() {
        let mut rng = SmallRng::seed_from_u64(5);
        let net = tiny_net(&mut rng);
        let s = format!("{net:?}");
        assert!(s.contains("conv -> relu -> maxpool -> fc"));
    }
}
