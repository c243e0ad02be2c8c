//! `Unfold + GEMM` execution of convolution FP and BP — the conventional
//! strategy (Sec. 2.3) that every CNN framework of the paper's era used,
//! and the baseline every spg-CNN technique is measured against.
//!
//! All three phases run directly on raw slices: the row-major weight
//! tensor `[f][c*ky*kx]` *is* the GEMM weight matrix and the CHW gradient
//! `[f][out_h*out_w]` *is* `E_O`, so neither is ever copied. The only
//! materialized intermediates — the unfold matrix and the patch-space
//! gradient — live in a caller-provided [`ConvScratch`]; what a
//! steady-state sample still allocates is the blocked GEMM's two operand
//! pack panels ([`spg_gemm::gemm_slice`] builds them per call, so row bands
//! can run it concurrently; only the transposed backward-data multiply
//! packs into the scratch).

use spg_gemm::{gemm_at_b_slice, gemm_flops, parallel_gemm_slice};

use crate::unfold::{fold, unfold_into, unfold_transposed_into};
use crate::workspace::ConvScratch;
use crate::ConvSpec;

/// Forward propagation via `O = W_mat * U^T` (Fig. 2c), running out of a
/// caller-owned [`ConvScratch`].
///
/// `threads` is the row-band partition of the GEMM the plan was proved
/// for; the call runs it on `min(threads, scratch.cores)` threads — the
/// [core budget](ConvScratch::cores) its walker handed it. A sample worker
/// of a saturated batch (budget 1) therefore runs the single-threaded
/// blocked GEMM, the GEMM-in-Parallel building block, whatever `threads`
/// says, and a lone sample with the whole machine runs Parallel-GEMM;
/// the output bits are the same either way
/// ([`spg_gemm::parallel_gemm_slice`]).
///
/// # Panics
///
/// Panics if buffer lengths do not match the spec.
pub fn forward_scratch(
    spec: &ConvSpec,
    input: &[f32],
    weights: &[f32],
    output: &mut [f32],
    threads: usize,
    scratch: &mut ConvScratch,
) {
    let oshape = spec.output_shape();
    assert_eq!(output.len(), oshape.len(), "output length");
    assert_eq!(weights.len(), spec.weight_shape().len(), "weights length");
    let patches = spec.out_h() * spec.out_w();
    let patch_len = spec.weight_shape().per_feature();
    unfold_transposed_into(spec, input, &mut scratch.mat_a);
    // The weight tensor is row-major [f][c*ky*kx]: already the GEMM left
    // operand. The slice kernels accumulate, so clear the output first.
    output.fill(0.0);
    let (m, n, k) = (spec.features(), patches, patch_len);
    spg_telemetry::record_flops(gemm_flops(m, n, k), gemm_flops(m, n, k));
    let unfolded = scratch.mat_a.as_slice();
    parallel_gemm_slice(m, n, k, weights, unfolded, output, threads, scratch.cores);
}

/// Backward error propagation via `E_U = E_O^T * W_mat`, then `col2im`,
/// running out of a caller-owned [`ConvScratch`].
///
/// # Panics
///
/// Panics if buffer lengths do not match the spec.
pub fn backward_data_scratch(
    spec: &ConvSpec,
    weights: &[f32],
    grad_out: &[f32],
    grad_in: &mut [f32],
    threads: usize,
    scratch: &mut ConvScratch,
) {
    let oshape = spec.output_shape();
    assert_eq!(grad_out.len(), oshape.len(), "grad_out length");
    assert_eq!(grad_in.len(), spec.input_shape().len(), "grad_in length");
    assert_eq!(weights.len(), spec.weight_shape().len(), "weights length");
    let patches = spec.out_h() * spec.out_w();
    let patch_len = spec.weight_shape().per_feature();
    let features = spec.features();
    // grad_out is CHW = features x patches row-major; E_U = E_O^T * W.
    let (m, n, k) = (patches, patch_len, features);
    spg_telemetry::record_flops(gemm_flops(m, n, k), gemm_flops(m, n, k));
    scratch.mat_b.resize(patches, patch_len);
    if threads > 1 {
        // Parallel-GEMM partitions by rows of E_U, so stage the explicit
        // transpose of E_O in recycled scratch.
        scratch.mat_a.resize(patches, features);
        let eot = scratch.mat_a.as_mut_slice();
        for f in 0..features {
            let row = &grad_out[f * patches..(f + 1) * patches];
            for (p, &v) in row.iter().enumerate() {
                eot[p * features + f] = v;
            }
        }
        parallel_gemm_slice(
            m,
            n,
            k,
            scratch.mat_a.as_slice(),
            weights,
            scratch.mat_b.as_mut_slice(),
            threads,
            threads,
        );
    } else {
        // Transpose folded into panel packing; pack buffers are recycled.
        gemm_at_b_slice(
            k,
            m,
            n,
            grad_out,
            weights,
            scratch.mat_b.as_mut_slice(),
            &mut scratch.pack_a,
            &mut scratch.pack_b,
        );
    }
    fold(spec, &scratch.mat_b, grad_in);
}

/// Weight-gradient computation via `dW = E_O * U`, running out of a
/// caller-owned [`ConvScratch`].
///
/// # Panics
///
/// Panics if buffer lengths do not match the spec.
pub fn backward_weights_scratch(
    spec: &ConvSpec,
    input: &[f32],
    grad_out: &[f32],
    grad_weights: &mut [f32],
    threads: usize,
    scratch: &mut ConvScratch,
) {
    let oshape = spec.output_shape();
    assert_eq!(grad_out.len(), oshape.len(), "grad_out length");
    assert_eq!(grad_weights.len(), spec.weight_shape().len(), "grad_weights length");
    let patches = spec.out_h() * spec.out_w();
    let patch_len = spec.weight_shape().per_feature();
    unfold_into(spec, input, &mut scratch.mat_a);
    grad_weights.fill(0.0);
    let (m, n, k) = (spec.features(), patch_len, patches);
    spg_telemetry::record_flops(gemm_flops(m, n, k), gemm_flops(m, n, k));
    let unfolded = scratch.mat_a.as_slice();
    parallel_gemm_slice(m, n, k, grad_out, unfolded, grad_weights, threads, threads);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn spec_cases() -> Vec<ConvSpec> {
        vec![
            ConvSpec::new(1, 4, 4, 1, 2, 2, 1, 1).unwrap(),
            ConvSpec::new(2, 6, 5, 3, 3, 2, 1, 1).unwrap(),
            ConvSpec::new(3, 8, 8, 4, 3, 3, 2, 2).unwrap(),
            ConvSpec::new(2, 9, 7, 5, 2, 3, 2, 1).unwrap(),
        ]
    }

    fn pseudo(n: usize, salt: usize) -> Vec<f32> {
        (0..n).map(|i| (((i * 31 + salt * 17) % 23) as f32 - 11.0) / 7.0).collect()
    }

    #[test]
    fn forward_matches_reference() {
        for spec in spec_cases() {
            let input = pseudo(spec.input_shape().len(), 1);
            let weights = pseudo(spec.weight_shape().len(), 2);
            let mut via_gemm = vec![0f32; spec.output_shape().len()];
            let mut oracle = vec![0f32; spec.output_shape().len()];
            for threads in [1, 3] {
                let mut scratch = ConvScratch { cores: threads, ..ConvScratch::new() };
                forward_scratch(&spec, &input, &weights, &mut via_gemm, threads, &mut scratch);
                reference::forward(&spec, &input, &weights, &mut oracle);
                let diff =
                    via_gemm.iter().zip(&oracle).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
                assert!(diff < 1e-4, "{spec}: diff {diff}");
            }
        }
    }

    /// The core budget decides how many threads run a forward, never its
    /// bits: a 3-band plan on 1, 2 or 3 cores is the serial GEMM.
    #[test]
    fn forward_bits_do_not_depend_on_the_core_budget() {
        for spec in spec_cases() {
            let input = pseudo(spec.input_shape().len(), 1);
            let weights = pseudo(spec.weight_shape().len(), 2);
            let mut serial = vec![0f32; spec.output_shape().len()];
            forward_scratch(&spec, &input, &weights, &mut serial, 1, &mut ConvScratch::new());
            for cores in [1, 2, 3, 8] {
                let mut scratch = ConvScratch { cores, ..ConvScratch::new() };
                let mut banded = vec![0f32; serial.len()];
                forward_scratch(&spec, &input, &weights, &mut banded, 3, &mut scratch);
                assert_eq!(banded, serial, "{spec} cores={cores}");
            }
        }
    }

    #[test]
    fn backward_data_matches_reference() {
        for spec in spec_cases() {
            let weights = pseudo(spec.weight_shape().len(), 3);
            let grad_out = pseudo(spec.output_shape().len(), 4);
            let mut via_gemm = vec![0f32; spec.input_shape().len()];
            let mut oracle = vec![0f32; spec.input_shape().len()];
            for threads in [1, 3] {
                let mut scratch = ConvScratch::new();
                backward_data_scratch(
                    &spec,
                    &weights,
                    &grad_out,
                    &mut via_gemm,
                    threads,
                    &mut scratch,
                );
                reference::backward_data(&spec, &weights, &grad_out, &mut oracle);
                let diff =
                    via_gemm.iter().zip(&oracle).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
                assert!(diff < 1e-4, "{spec}: diff {diff}");
            }
        }
    }

    #[test]
    fn backward_weights_matches_reference() {
        for spec in spec_cases() {
            let input = pseudo(spec.input_shape().len(), 5);
            let grad_out = pseudo(spec.output_shape().len(), 6);
            let mut via_gemm = vec![0f32; spec.weight_shape().len()];
            let mut oracle = vec![0f32; spec.weight_shape().len()];
            let mut scratch = ConvScratch::new();
            backward_weights_scratch(&spec, &input, &grad_out, &mut via_gemm, 2, &mut scratch);
            reference::backward_weights(&spec, &input, &grad_out, &mut oracle);
            let diff =
                via_gemm.iter().zip(&oracle).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
            assert!(diff < 1e-4, "{spec}: diff {diff}");
        }
    }

    #[test]
    fn scratch_reuse_is_stable_across_phases() {
        // One scratch serving all three phases of all specs must keep
        // producing correct results (buffer shapes change per call).
        let mut scratch = ConvScratch::new();
        for spec in spec_cases() {
            let input = pseudo(spec.input_shape().len(), 7);
            let weights = pseudo(spec.weight_shape().len(), 8);
            let grad_out = pseudo(spec.output_shape().len(), 9);
            let mut out = vec![0f32; spec.output_shape().len()];
            let mut oracle_out = vec![0f32; spec.output_shape().len()];
            forward_scratch(&spec, &input, &weights, &mut out, 1, &mut scratch);
            reference::forward(&spec, &input, &weights, &mut oracle_out);
            let d = out.iter().zip(&oracle_out).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
            assert!(d < 1e-4, "{spec} forward: {d}");

            let mut gin = vec![0f32; spec.input_shape().len()];
            let mut oracle_gin = vec![0f32; spec.input_shape().len()];
            backward_data_scratch(&spec, &weights, &grad_out, &mut gin, 1, &mut scratch);
            reference::backward_data(&spec, &weights, &grad_out, &mut oracle_gin);
            let d = gin.iter().zip(&oracle_gin).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
            assert!(d < 1e-4, "{spec} backward_data: {d}");

            let mut gw = vec![0f32; spec.weight_shape().len()];
            let mut oracle_gw = vec![0f32; spec.weight_shape().len()];
            backward_weights_scratch(&spec, &input, &grad_out, &mut gw, 1, &mut scratch);
            reference::backward_weights(&spec, &input, &grad_out, &mut oracle_gw);
            let d = gw.iter().zip(&oracle_gw).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
            assert!(d < 1e-4, "{spec} backward_weights: {d}");
        }
    }
}
