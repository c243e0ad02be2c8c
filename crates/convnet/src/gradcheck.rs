//! Numerical gradient checking for whole networks.
//!
//! Backpropagation bugs are silent: a wrong gradient still trains, just
//! badly. This module verifies analytic gradients against central finite
//! differences of the loss, parameter by parameter — the strongest
//! correctness check available for the training stack, used by the
//! integration tests and available to downstream users adding layers.

use spg_tensor::Tensor;

use crate::sgd::{fold_records, zero_param_grads};
use crate::workspace::Workspace;
use crate::Network;

/// One analytic-vs-numeric disagreement found by [`check_gradients`].
#[derive(Debug, Clone, PartialEq)]
pub struct GradMismatch {
    /// Layer index.
    pub layer: usize,
    /// Flattened parameter index within the layer.
    pub param: usize,
    /// Analytic gradient from backpropagation.
    pub analytic: f32,
    /// Central finite-difference estimate.
    pub numeric: f32,
}

/// Verifies a network's backpropagated gradients against central finite
/// differences on one `(input, label)` sample.
///
/// For tractability only every `stride`-th parameter of each layer is
/// checked (use `1` to check all). Returns every parameter where
/// `|analytic - numeric| > tol * max(1, |analytic|, |numeric|)`; an empty
/// vector means the check passed.
///
/// # Panics
///
/// Panics if `stride == 0`, `eps <= 0`, or the input length does not
/// match the network.
///
/// # Example
///
/// ```
/// use rand::{SeedableRng, rngs::SmallRng};
/// use spg_convnet::gradcheck::check_gradients;
/// use spg_convnet::layer::FcLayer;
/// use spg_convnet::Network;
/// use spg_tensor::Tensor;
///
/// let mut rng = SmallRng::seed_from_u64(1);
/// let mut net = Network::new(vec![Box::new(FcLayer::new(6, 3, &mut rng))])?;
/// let input = Tensor::random_uniform(6, 1.0, &mut rng);
/// let mismatches = check_gradients(&mut net, &input, 1, 1e-2, 1e-2, 1);
/// assert!(mismatches.is_empty(), "{mismatches:?}");
/// # Ok::<(), spg_convnet::ConvError>(())
/// ```
pub fn check_gradients(
    net: &mut Network,
    input: &Tensor,
    label: usize,
    eps: f32,
    tol: f32,
    stride: usize,
) -> Vec<GradMismatch> {
    assert!(stride > 0, "stride must be positive");
    assert!(eps > 0.0, "epsilon must be positive");

    // Analytic gradients from one backward pass.
    let mut ws = Workspace::for_network(net);
    net.forward_into(input.as_slice(), &mut ws);
    let (_, loss_grad) = Network::loss_and_gradient(ws.trace.logits(), label);
    net.backward_into(loss_grad.as_slice(), &mut ws);
    // The dense gradient is the fold of this one sample's records.
    let mut analytic = zero_param_grads(net);
    let dense = analytic.iter_mut().map(Tensor::as_mut_slice);
    fold_records(net, std::slice::from_ref(&ws.param_grads), 1, true, dense);

    let loss_of = |net: &Network| {
        let trace = net.forward(input);
        Network::loss_and_gradient(trace.logits(), label).0
    };

    let mut mismatches = Vec::new();
    let layer_count = net.layers().len();
    #[allow(clippy::needless_range_loop)] // net is mutably re-borrowed inside
    for layer_idx in 0..layer_count {
        let grads = &analytic[layer_idx];
        let Some(original) = net.layers()[layer_idx].params().map(<[f32]>::to_vec) else {
            continue;
        };
        for pi in (0..original.len()).step_by(stride) {
            let mut perturbed = original.clone();
            perturbed[pi] = original[pi] + eps;
            net.layers_mut()[layer_idx].set_params(&perturbed);
            let plus = loss_of(net);
            perturbed[pi] = original[pi] - eps;
            net.layers_mut()[layer_idx].set_params(&perturbed);
            let minus = loss_of(net);
            let numeric = (plus - minus) / (2.0 * eps);
            let a = grads[pi];
            if (a - numeric).abs() > tol * 1.0f32.max(a.abs()).max(numeric.abs()) {
                mismatches.push(GradMismatch { layer: layer_idx, param: pi, analytic: a, numeric });
            }
        }
        net.layers_mut()[layer_idx].set_params(&original);
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ConvLayer, FcLayer, Layer, MaxPoolLayer, ReluLayer};
    use crate::ConvSpec;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spg_tensor::Shape3;

    /// Finite differences are only trustworthy on smooth networks: a
    /// parameter perturbation that flips a ReLU mask or a max-pool argmax
    /// crosses a kink and the numeric estimate is garbage there. The
    /// smooth conv + fc + softmax path must check out exactly; the kinked
    /// layers have dedicated analytic unit tests in `layer`.
    #[test]
    fn smooth_cnn_gradients_check_out() {
        let mut rng = SmallRng::seed_from_u64(3);
        let spec = ConvSpec::new(1, 8, 8, 3, 3, 3, 1, 1).unwrap();
        let out = spec.output_shape();
        let mut net = Network::new(vec![
            Box::new(ConvLayer::new(spec, &mut rng)),
            Box::new(FcLayer::new(out.len(), 2, &mut rng)),
        ])
        .unwrap();
        let input = Tensor::random_uniform(64, 1.0, &mut rng);
        let mismatches = check_gradients(&mut net, &input, 1, 1e-2, 2e-2, 3);
        assert!(mismatches.is_empty(), "{mismatches:?}");
    }

    /// With kinked layers present the check still passes at a loose
    /// tolerance for the overwhelming majority of parameters — a sanity
    /// net against gross backprop breakage.
    #[test]
    fn kinked_cnn_gradients_mostly_check_out() {
        let mut rng = SmallRng::seed_from_u64(3);
        let spec = ConvSpec::new(1, 8, 8, 3, 3, 3, 1, 1).unwrap();
        let out = spec.output_shape();
        let mut net = Network::new(vec![
            Box::new(ConvLayer::new(spec, &mut rng)),
            Box::new(ReluLayer::new(out.len())),
            Box::new(MaxPoolLayer::new(Shape3::new(out.c, out.h, out.w), 2).unwrap()),
            Box::new(FcLayer::new(3 * 3 * 3, 2, &mut rng)),
        ])
        .unwrap();
        let input = Tensor::random_uniform(64, 1.0, &mut rng);
        let total = net.layers().iter().map(|l| l.param_count()).sum::<usize>();
        let mismatches = check_gradients(&mut net, &input, 1, 1e-3, 5e-2, 1);
        assert!(
            mismatches.len() * 10 < total,
            "{} of {} parameters mismatched: {:?}",
            mismatches.len(),
            total,
            &mismatches[..mismatches.len().min(5)]
        );
    }

    #[test]
    fn detects_a_broken_gradient() {
        // A layer that lies about its gradient must be caught.
        #[derive(Debug)]
        struct LyingLayer {
            inner: FcLayer,
        }
        impl Layer for LyingLayer {
            fn name(&self) -> &str {
                "liar"
            }
            fn input_len(&self) -> usize {
                self.inner.input_len()
            }
            fn output_len(&self) -> usize {
                self.inner.output_len()
            }
            fn forward(
                &self,
                input: &[f32],
                output: &mut [f32],
                scratch: &mut crate::workspace::ConvScratch,
            ) {
                self.inner.forward(input, output, scratch);
            }
            fn backward(
                &self,
                input: &[f32],
                output: &[f32],
                grad_out: &[f32],
                grad_in: &mut [f32],
                param_grads: &mut Tensor,
                scratch: &mut crate::workspace::ConvScratch,
            ) {
                self.inner.backward(input, output, grad_out, grad_in, param_grads, scratch);
                // Distort the record (both factors of the inner layer's
                // gradient): wrong by construction.
                for v in param_grads.iter_mut() {
                    *v = *v * 2.0 + 0.5;
                }
            }
            fn param_count(&self) -> usize {
                self.inner.param_count()
            }
            fn grad_record_len(&self) -> usize {
                self.inner.grad_record_len()
            }
            fn add_grads(&self, records: &[&[f32]], at: usize, acc: &mut [f32]) {
                self.inner.add_grads(records, at, acc);
            }
            fn params(&self) -> Option<&[f32]> {
                self.inner.params()
            }
            fn set_params(&mut self, params: &[f32]) {
                self.inner.set_params(params);
            }
        }

        let mut rng = SmallRng::seed_from_u64(4);
        let mut net = Network::new(vec![
            Box::new(LyingLayer { inner: FcLayer::new(4, 2, &mut rng) }) as Box<dyn Layer>,
        ])
        .unwrap();
        let input = Tensor::random_uniform(4, 1.0, &mut rng);
        let mismatches = check_gradients(&mut net, &input, 0, 1e-2, 1e-2, 1);
        assert!(!mismatches.is_empty(), "the broken gradient went undetected");
    }

    #[test]
    fn restores_parameters_after_checking() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut net =
            Network::new(vec![Box::new(FcLayer::new(4, 3, &mut rng)) as Box<dyn Layer>]).unwrap();
        let before: Vec<f32> = net.layers()[0].params().unwrap().to_vec();
        let input = Tensor::random_uniform(4, 1.0, &mut rng);
        check_gradients(&mut net, &input, 2, 1e-2, 1e-2, 1);
        assert_eq!(net.layers()[0].params().unwrap(), before.as_slice());
    }
}
