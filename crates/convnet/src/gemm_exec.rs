//! `Unfold + GEMM` execution of convolution FP and BP — the conventional
//! strategy (Sec. 2.3) that every CNN framework of the paper's era used,
//! and the baseline every spg-CNN technique is measured against.
//!
//! All three phases run directly on raw slices: the row-major weight
//! tensor `[f][c*ky*kx]` *is* the GEMM weight matrix and the CHW gradient
//! `[f][out_h*out_w]` *is* `E_O`, so neither is ever copied. The unfold
//! matrix is never materialized either: the forward and backward-weights
//! multiplies pack their image operand straight from the CHW input
//! ([`ImageOperand`]), a cache block at a time. The one staged
//! intermediate is backward-data's patch-space gradient (`E_U^T`, or `E_U`
//! on outputs of few positions), which [`fold_rows`] adds back into the
//! input gradient tap by tap. Every phase
//! packs its panels into the caller's [`ConvScratch`], so a steady-state
//! sample at a core budget of 1 allocates nothing; row bands run
//! concurrently above it each pack into buffers of their own.
//!
//! Each phase's GEMM runs the row-band partition its plan was proved for
//! on as many threads as the call's [core budget](ConvScratch::cores)
//! allows, with the same bits at every budget: a sample worker of a
//! saturated batch (budget 1) runs one serial GEMM per phase — the
//! GEMM-in-Parallel building block — and a lone sample with the whole
//! machine runs Parallel-GEMM.

use spg_gemm::{gemm_at_b_slice, gemm_flops, parallel_gemm_slice};

use crate::unfold::{fold_rows, stages_tap_rows, ImageOperand};
use crate::workspace::ConvScratch;
use crate::ConvSpec;

/// The three multiplies of a convolution's Unfold + GEMM, each `(m, n,
/// k)` for `C (m x n) = op(A) (m x k) * B (k x n)`: what the phases below
/// run and what `spg-check` proves, worked out in one place
/// ([`gemm_shapes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmShapes {
    /// `O = W_mat * U^T`: features x positions, over taps.
    pub forward: (usize, usize, usize),
    /// `E_U^T = W_mat^T * E_O` (taps x positions) when `tap_rows`, else
    /// `E_U = E_O^T * W_mat` (positions x taps); over features.
    pub backward_data: (usize, usize, usize),
    /// Whether backward-data stages tap rows, `E_U^T`
    /// ([`stages_tap_rows`]).
    pub tap_rows: bool,
    /// `dW = E_O * U`: features x taps, over positions.
    pub backward_weights: (usize, usize, usize),
}

/// The [`GemmShapes`] of `spec`.
pub fn gemm_shapes(spec: &ConvSpec) -> GemmShapes {
    let (features, positions) = (spec.features(), spec.out_h() * spec.out_w());
    let taps = spec.weight_shape().per_feature();
    let tap_rows = stages_tap_rows(spec);
    GemmShapes {
        forward: (features, positions, taps),
        backward_data: if tap_rows {
            (taps, positions, features)
        } else {
            (positions, taps, features)
        },
        tap_rows,
        backward_weights: (features, taps, positions),
    }
}

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
/// ([`spg_gemm::parallel_gemm_slice`]). `U^T` is packed from the input by
/// each band ([`ImageOperand::transposed`]).
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
    // The weight tensor is row-major [f][c*ky*kx]: already the GEMM left
    // operand. The slice kernels accumulate, so clear the output first.
    output.fill(0.0);
    let (m, n, k) = gemm_shapes(spec).forward;
    spg_telemetry::record_flops(gemm_flops(m, n, k), gemm_flops(m, n, k));
    let unfolded = ImageOperand::transposed(spec, input);
    let packs = (&mut scratch.pack_a, &mut scratch.pack_b);
    parallel_gemm_slice(m, n, k, weights, &unfolded, output, (threads, scratch.cores), packs);
}

/// Backward error propagation via `E_U^T = W_mat^T * E_O`, then `col2im`
/// by rows, running out of a caller-owned [`ConvScratch`].
///
/// `threads` is the row-band partition of the staged gradient the plan
/// was proved for, run on `min(threads, scratch.cores)` threads as
/// [`forward_scratch`] runs its own; both operands are read in place (a
/// transposed operand's columns are its rows), so no transposed copy is
/// staged. On an output of few positions the multiply computes `E_U =
/// E_O^T * W_mat` instead ([`stages_tap_rows`]): the same elements, each
/// the same `KC`-blocked chain over features, since the product commutes.
/// They are stored into the scratch rather than added onto zeros — so a
/// `-0.0` stays one, which changes no sum: [`fold_rows`] adds it onto
/// `+0.0` or onto a running sum that round-to-nearest never makes `-0.0`.
/// The fold adds each element into `grad_in` in the patch-major fold's
/// order, splitting the input channels over the same budget.
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
    // weights is features x taps and grad_out features x positions, both
    // row-major: E_U^T = W^T * E_O and E_U = E_O^T * W.
    let shapes = gemm_shapes(spec);
    let (m, n, k) = shapes.backward_data;
    let (a, b) = if shapes.tap_rows { (weights, grad_out) } else { (grad_out, weights) };
    spg_telemetry::record_flops(gemm_flops(m, n, k), gemm_flops(m, n, k));
    if scratch.mat_b.len() < m * n {
        scratch.mat_b.resize(m * n, 0.0);
    }
    let eu = &mut scratch.mat_b[..m * n];
    let (cores, packs) = (scratch.cores, (&mut scratch.pack_a, &mut scratch.pack_b));
    gemm_at_b_slice(k, m, n, a, b, eu, threads, cores, packs.0, packs.1);
    fold_rows(spec, eu, shapes.tap_rows, grad_in, cores);
}

/// Weight-gradient computation via `dW = E_O * U`, running out of a
/// caller-owned [`ConvScratch`], its `threads` row bands run on
/// `min(threads, scratch.cores)` threads as [`forward_scratch`] runs its
/// own. `U` is packed from the input by each band
/// ([`ImageOperand::patches`]).
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
    grad_weights.fill(0.0);
    let (m, n, k) = gemm_shapes(spec).backward_weights;
    spg_telemetry::record_flops(gemm_flops(m, n, k), gemm_flops(m, n, k));
    let unfolded = ImageOperand::patches(spec, input);
    let packs = (&mut scratch.pack_a, &mut scratch.pack_b);
    parallel_gemm_slice(
        m,
        n,
        k,
        grad_out,
        &unfolded,
        grad_weights,
        (threads, scratch.cores),
        packs,
    );
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
                let mut scratch = ConvScratch::with_cores(threads);
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
                let mut scratch = ConvScratch::with_cores(cores);
                let mut banded = vec![0f32; serial.len()];
                forward_scratch(&spec, &input, &weights, &mut banded, 3, &mut scratch);
                assert_eq!(banded, serial, "{spec} cores={cores}");
            }
        }
    }

    /// The backward twin of the forward's budget rule: a 3-band plan's
    /// backward-data and backward-weights bits on 1, 2, 3 or 8 cores are
    /// the serial GEMMs'.
    #[test]
    fn backward_bits_do_not_depend_on_the_core_budget() {
        let specs = spec_cases();
        let specs = if cfg!(miri) { &specs[1..3] } else { &specs[..] };
        for spec in specs {
            let (input, weights) =
                (pseudo(spec.input_shape().len(), 5), pseudo(spec.weight_shape().len(), 3));
            let grad_out = pseudo(spec.output_shape().len(), 4);
            let run = |cores| {
                let mut scratch = ConvScratch::with_cores(cores);
                let mut grad_in = vec![0f32; spec.input_shape().len()];
                let mut grad_w = vec![0f32; spec.weight_shape().len()];
                backward_data_scratch(spec, &weights, &grad_out, &mut grad_in, 3, &mut scratch);
                backward_weights_scratch(spec, &input, &grad_out, &mut grad_w, 3, &mut scratch);
                (grad_in, grad_w)
            };
            let serial = run(1);
            for cores in [2, 3, 8] {
                assert_eq!(run(cores), serial, "{spec} cores={cores}");
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
                let mut scratch = ConvScratch::with_cores(threads);
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

    /// Every serial phase packs into the scratch for the tile this CPU
    /// dispatches, and the pack buffers stop growing once warm
    /// (ImageNet-1K conv1-3, both CIFAR-10 layers).
    #[test]
    fn serial_packs_stop_growing_after_the_first_step() {
        let specs = [
            ConvSpec::square(55, 256, 96, 5, 1),
            ConvSpec::square(25, 384, 256, 3, 1),
            ConvSpec::square(11, 256, 384, 3, 1),
            ConvSpec::square(36, 64, 3, 5, 1),
            ConvSpec::square(8, 64, 64, 5, 1),
        ];
        for spec in specs {
            let mut scratch = ConvScratch::new();
            scratch.reserve(&spec);
            let input = vec![0.03; spec.input_shape().len()];
            let weights = vec![0.01; spec.weight_shape().len()];
            let grad_out = vec![0.02; spec.output_shape().len()];
            let mut output = vec![0.0; spec.output_shape().len()];
            let mut grad_in = vec![0.0; spec.input_shape().len()];
            let mut grad_w = vec![0.0; spec.weight_shape().len()];
            let mut caps = (0..2).map(|_| {
                let s = &mut scratch;
                forward_scratch(&spec, &input, &weights, &mut output, 1, s);
                backward_data_scratch(&spec, &weights, &grad_out, &mut grad_in, 1, s);
                backward_weights_scratch(&spec, &input, &grad_out, &mut grad_w, 1, s);
                (s.pack_a.capacity(), s.pack_b.capacity())
            });
            let (first, second) = (caps.next().unwrap(), caps.next().unwrap());
            assert!(first.0 > 0 && first.1 > 0, "{spec}: packed outside the scratch");
            assert_eq!(first, second, "{spec}: packs grew on the second step");
        }
    }

    #[test]
    fn backward_weights_matches_reference() {
        for spec in spec_cases() {
            let input = pseudo(spec.input_shape().len(), 5);
            let grad_out = pseudo(spec.output_shape().len(), 6);
            let mut via_gemm = vec![0f32; spec.weight_shape().len()];
            let mut oracle = vec![0f32; spec.weight_shape().len()];
            let mut scratch = ConvScratch::with_cores(2);
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
