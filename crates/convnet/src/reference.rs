//! Naive direct-convolution oracles: literal transcriptions of the paper's
//! Eq. 2 (forward), Eq. 3 (backward error), and Eq. 4 (weight gradients).
//!
//! Every optimized execution path in the workspace — unfold+GEMM, the
//! stencil forward kernel, the sparse backward kernel — is tested
//! element-wise against these loops. They are deliberately written as the
//! equations read, with no blocking or vectorization.

use crate::ConvSpec;

/// Forward propagation (Eq. 2):
/// `O[f,y,x] = sum_{c,ky,kx} I[c, y*sy+ky, x*sx+kx] * W[f,c,ky,kx]`.
///
/// `input` is CHW of `spec.input_shape()`, `weights` is FCKK of
/// `spec.weight_shape()`, `output` is CHW of `spec.output_shape()` and is
/// overwritten.
///
/// # Panics
///
/// Panics if any buffer length does not match the spec.
// lint: allow(test-only) the Eq. 2 oracle every forward kernel is tested against
pub fn forward(spec: &ConvSpec, input: &[f32], weights: &[f32], output: &mut [f32]) {
    let ishape = spec.input_shape();
    let wshape = spec.weight_shape();
    let oshape = spec.output_shape();
    assert_eq!(input.len(), ishape.len(), "input length");
    assert_eq!(weights.len(), wshape.len(), "weights length");
    assert_eq!(output.len(), oshape.len(), "output length");

    output.fill(0.0);
    let (sy, sx) = (spec.sy(), spec.sx());
    for f in 0..spec.features() {
        for c in 0..spec.in_c() {
            for y in 0..spec.out_h() {
                for x in 0..spec.out_w() {
                    let mut acc = 0.0f32;
                    for ky in 0..spec.ky() {
                        for kx in 0..spec.kx() {
                            acc += input[ishape.index(c, y * sy + ky, x * sx + kx)]
                                * weights[wshape.index(f, c, ky, kx)];
                        }
                    }
                    output[oshape.index(f, y, x)] += acc;
                }
            }
        }
    }
}

/// Backward error propagation (Eq. 3):
/// `EI[c,y,x] = sum_{f,ky,kx} EO[f, (y-ky)/sy, (x-kx)/sx] * W[f,c,ky,kx]`
/// with the sum restricted to integer, in-range output coordinates.
///
/// `grad_out` is CHW of `spec.output_shape()`, `grad_in` is CHW of
/// `spec.input_shape()` and is overwritten.
///
/// # Panics
///
/// Panics if any buffer length does not match the spec.
// lint: allow(test-only) the Eq. 3 oracle every backward-data kernel is tested against
pub fn backward_data(spec: &ConvSpec, weights: &[f32], grad_out: &[f32], grad_in: &mut [f32]) {
    let ishape = spec.input_shape();
    let wshape = spec.weight_shape();
    let oshape = spec.output_shape();
    assert_eq!(weights.len(), wshape.len(), "weights length");
    assert_eq!(grad_out.len(), oshape.len(), "grad_out length");
    assert_eq!(grad_in.len(), ishape.len(), "grad_in length");

    grad_in.fill(0.0);
    let (sy, sx) = (spec.sy(), spec.sx());
    // Iterate the forward direction and scatter — equivalent to Eq. 3's
    // gather but avoids the divisibility bookkeeping.
    for f in 0..spec.features() {
        for y in 0..spec.out_h() {
            for x in 0..spec.out_w() {
                let g = grad_out[oshape.index(f, y, x)];
                if g == 0.0 {
                    continue;
                }
                for c in 0..spec.in_c() {
                    for ky in 0..spec.ky() {
                        for kx in 0..spec.kx() {
                            grad_in[ishape.index(c, y * sy + ky, x * sx + kx)] +=
                                g * weights[wshape.index(f, c, ky, kx)];
                        }
                    }
                }
            }
        }
    }
}

/// Weight-gradient computation (Eq. 4):
/// `dW[f,c,ky,kx] = sum_{y,x} EO[f,y,x] * I[c, y*sy+ky, x*sx+kx]`.
///
/// `grad_weights` is FCKK of `spec.weight_shape()` and is overwritten.
///
/// # Panics
///
/// Panics if any buffer length does not match the spec.
// lint: allow(test-only) the Eq. 4 oracle every weight-gradient kernel is tested against
pub fn backward_weights(
    spec: &ConvSpec,
    input: &[f32],
    grad_out: &[f32],
    grad_weights: &mut [f32],
) {
    let ishape = spec.input_shape();
    let wshape = spec.weight_shape();
    let oshape = spec.output_shape();
    assert_eq!(input.len(), ishape.len(), "input length");
    assert_eq!(grad_out.len(), oshape.len(), "grad_out length");
    assert_eq!(grad_weights.len(), wshape.len(), "grad_weights length");

    grad_weights.fill(0.0);
    let (sy, sx) = (spec.sy(), spec.sx());
    for f in 0..spec.features() {
        for y in 0..spec.out_h() {
            for x in 0..spec.out_w() {
                let g = grad_out[oshape.index(f, y, x)];
                if g == 0.0 {
                    continue;
                }
                for c in 0..spec.in_c() {
                    for ky in 0..spec.ky() {
                        for kx in 0..spec.kx() {
                            grad_weights[wshape.index(f, c, ky, kx)] +=
                                g * input[ishape.index(c, y * sy + ky, x * sx + kx)];
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-checkable 1-channel example from the paper's Fig. 2a scale.
    #[test]
    fn forward_hand_example() {
        // 1x3x3 input, one 2x2 feature, stride 1 -> 2x2 output.
        let spec = ConvSpec::new(1, 3, 3, 1, 2, 2, 1, 1).unwrap();
        let input = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let weights = [1.0, 0.0, 0.0, 1.0]; // picks top-left + bottom-right
        let mut out = [0.0; 4];
        forward(&spec, &input, &weights, &mut out);
        assert_eq!(out, [1.0 + 5.0, 2.0 + 6.0, 4.0 + 8.0, 5.0 + 9.0]);
    }

    #[test]
    fn forward_two_channels_sum() {
        // Two channels with all-ones weights sum both receptive fields.
        let spec = ConvSpec::new(2, 2, 2, 1, 2, 2, 1, 1).unwrap();
        let input = [1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0];
        let weights = [1.0; 8];
        let mut out = [0.0; 1];
        forward(&spec, &input, &weights, &mut out);
        assert_eq!(out[0], 110.0);
    }

    #[test]
    fn forward_stride_two() {
        let spec = ConvSpec::new(1, 5, 5, 1, 1, 1, 2, 2).unwrap();
        let input: Vec<f32> = (0..25).map(|i| i as f32).collect();
        let weights = [2.0];
        let mut out = [0.0; 9];
        forward(&spec, &input, &weights, &mut out);
        // Samples at (0,0),(0,2),(0,4),(2,0)... doubled.
        assert_eq!(out, [0.0, 4.0, 8.0, 20.0, 24.0, 28.0, 40.0, 44.0, 48.0]);
    }

    /// Gradient check: backward_data must be the adjoint of forward.
    /// For any input u and output-grad v: <forward(u), v> == <u, backward_data(v)>.
    #[test]
    fn backward_data_is_adjoint_of_forward() {
        let spec = ConvSpec::new(2, 5, 6, 3, 3, 2, 2, 1).unwrap();
        let ilen = spec.input_shape().len();
        let olen = spec.output_shape().len();
        let wlen = spec.weight_shape().len();
        let input: Vec<f32> = (0..ilen).map(|i| ((i * 7 % 13) as f32) - 6.0).collect();
        let weights: Vec<f32> = (0..wlen).map(|i| ((i * 5 % 11) as f32) - 5.0).collect();
        let gout: Vec<f32> = (0..olen).map(|i| ((i * 3 % 7) as f32) - 3.0).collect();

        let mut fwd = vec![0.0; olen];
        forward(&spec, &input, &weights, &mut fwd);
        let mut gin = vec![0.0; ilen];
        backward_data(&spec, &weights, &gout, &mut gin);

        let lhs: f64 = fwd.iter().zip(&gout).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        let rhs: f64 = input.iter().zip(&gin).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    /// Gradient check: dW must satisfy <forward(u; W=E_fc), v> == dW[f,c,..]
    /// linearity. We verify via finite differences on a small spec.
    #[test]
    fn backward_weights_matches_finite_difference() {
        let spec = ConvSpec::new(1, 4, 4, 2, 2, 2, 1, 1).unwrap();
        let ilen = spec.input_shape().len();
        let olen = spec.output_shape().len();
        let wlen = spec.weight_shape().len();
        let input: Vec<f32> = (0..ilen).map(|i| (i as f32 * 0.37).sin()).collect();
        let weights: Vec<f32> = (0..wlen).map(|i| (i as f32 * 0.21).cos()).collect();
        let gout: Vec<f32> = (0..olen).map(|i| (i as f32 * 0.11).sin()).collect();

        let mut dw = vec![0.0; wlen];
        backward_weights(&spec, &input, &gout, &mut dw);

        // loss = <forward(input; W), gout>; d loss / d W[i] == dw[i].
        let eps = 1e-2f32;
        for wi in [0, 3, wlen - 1] {
            let mut wplus = weights.clone();
            wplus[wi] += eps;
            let mut wminus = weights.clone();
            wminus[wi] -= eps;
            let mut oplus = vec![0.0; olen];
            let mut ominus = vec![0.0; olen];
            forward(&spec, &input, &wplus, &mut oplus);
            forward(&spec, &input, &wminus, &mut ominus);
            let lplus: f32 = oplus.iter().zip(&gout).map(|(a, b)| a * b).sum();
            let lminus: f32 = ominus.iter().zip(&gout).map(|(a, b)| a * b).sum();
            let fd = (lplus - lminus) / (2.0 * eps);
            assert!((fd - dw[wi]).abs() < 1e-2, "w[{wi}]: fd {fd} vs analytic {}", dw[wi]);
        }
    }

    #[test]
    fn backward_data_strided_scatter() {
        // Stride 2, 1x1 kernel: each output grad lands on its sampled input.
        let spec = ConvSpec::new(1, 3, 3, 1, 1, 1, 2, 2).unwrap();
        let weights = [3.0];
        let gout = [1.0, 2.0, 3.0, 4.0];
        let mut gin = [0.0; 9];
        backward_data(&spec, &weights, &gout, &mut gin);
        assert_eq!(gin, [3.0, 0.0, 6.0, 0.0, 0.0, 0.0, 9.0, 0.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn forward_validates_buffers() {
        let spec = ConvSpec::new(1, 3, 3, 1, 2, 2, 1, 1).unwrap();
        let mut out = [0.0; 4];
        forward(&spec, &[0.0; 3], &[0.0; 4], &mut out);
    }
}
