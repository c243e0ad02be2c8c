//! Input unfolding (`im2col`) and its adjoint folding (`col2im`).
//!
//! The unfold step (paper Fig. 2b) flattens every kernel application's
//! receptive field into one row of a matrix `U` of `out_h * out_w` rows by
//! `Nc * Fy * Fx` columns, channels stacked left to right. A convolution
//! then becomes the matrix multiply `O = W_mat * U^T` (Fig. 2c).
//!
//! Unfolding replicates each input element up to `Fy * Fx` times — this is
//! precisely the memory-traffic blow-up that caps the achievable arithmetic
//! intensity of Unfold+GEMM at the fraction
//! [`ConvSpec::unfold_ait_fraction`] (Sec. 3.1).

use spg_tensor::Matrix;

use crate::split;
use crate::ConvSpec;

/// Unfolds a CHW input into the patch matrix `U`
/// (`out_h * out_w` rows × `Nc * Fy * Fx` columns).
///
/// Row `y * out_w + x` holds the receptive field of output position
/// `(y, x)`; column `c * Fy * Fx + ky * Fx + kx` matches the flattening
/// order of a weight row, so `O = W_mat * U^T` is the convolution.
///
/// # Panics
///
/// Panics if `input.len() != spec.input_shape().len()`.
pub fn unfold(spec: &ConvSpec, input: &[f32]) -> Matrix {
    let mut u = Matrix::default();
    unfold_into(spec, input, &mut u);
    u
}

/// [`unfold`] into a caller-owned matrix, reshaped in place.
///
/// With steady-state layer geometry the matrix's buffer is recycled, so
/// per-sample unfolding performs no heap allocation — the hot-path variant
/// the workspace-threaded executors use.
///
/// # Panics
///
/// Panics if `input.len() != spec.input_shape().len()`.
pub fn unfold_into(spec: &ConvSpec, input: &[f32], u: &mut Matrix) {
    let ishape = spec.input_shape();
    assert_eq!(input.len(), ishape.len(), "input length");
    let patches = spec.out_h() * spec.out_w();
    let patch_len = spec.in_c() * spec.ky() * spec.kx();
    u.resize(patches, patch_len);
    let (sy, sx, kx_n, ky_n) = (spec.sy(), spec.sx(), spec.kx(), spec.ky());
    let uv = u.as_mut_slice();
    for y in 0..spec.out_h() {
        for x in 0..spec.out_w() {
            let row = (y * spec.out_w() + x) * patch_len;
            for c in 0..spec.in_c() {
                for ky in 0..ky_n {
                    let src = ishape.index(c, y * sy + ky, x * sx);
                    let dst = row + (c * ky_n + ky) * kx_n;
                    uv[dst..dst + kx_n].copy_from_slice(&input[src..src + kx_n]);
                }
            }
        }
    }
}

/// Unfolds directly into the transposed patch matrix `U^T`
/// (`Nc * Fy * Fx` rows × `out_h * out_w` columns), saving the explicit
/// transpose the forward GEMM would otherwise need.
///
/// # Panics
///
/// Panics if `input.len() != spec.input_shape().len()`.
pub fn unfold_transposed(spec: &ConvSpec, input: &[f32]) -> Matrix {
    let mut ut = Matrix::default();
    unfold_transposed_into(spec, input, &mut ut, 1);
    ut
}

/// Elements of `U^T` an unfold part must write before it gets a thread of
/// its own. Measured on a 2-vCPU AVX-512 host: one core writes the
/// ImageNet-22K net's GEMM unfolds at 0.55–0.75 ns an element (Table 2's
/// stride-2 conv1, 2.7 M elements, in 2.0 ms alone and 4.3 ms inside the
/// forward), and an empty two-task `fork_join` costs ~35 µs, so a part of
/// 512 Ki elements is ≥ 0.29 ms — eight spawns' worth. At budget 2 conv1's
/// unfold splits (4.3 → 3.6 ms inside the forward) and those of conv2–4
/// (291 K – 435 K) do not.
const UNFOLD_FLOOR: usize = 512 * 1024;

/// [`unfold_transposed`] into a caller-owned matrix, reshaped in place, on
/// up to `cores` threads.
///
/// The rows of `U^T` — one per `(c, ky, kx)` — are cut, whole channels'
/// rows at a time, into contiguous runs, a thread each, when each run
/// would write at least `UNFOLD_FLOOR` elements; it is a copy, so the result does not depend on `cores`. At
/// one core nothing forks.
///
/// # Panics
///
/// Panics if `input.len() != spec.input_shape().len()`.
pub fn unfold_transposed_into(spec: &ConvSpec, input: &[f32], ut: &mut Matrix, cores: usize) {
    unfold_transposed_split(spec, input, ut, cores, UNFOLD_FLOOR);
}

/// [`unfold_transposed_into`] with its split floor as a parameter.
fn unfold_transposed_split(
    spec: &ConvSpec,
    input: &[f32],
    ut: &mut Matrix,
    cores: usize,
    floor: usize,
) {
    let ishape = spec.input_shape();
    assert_eq!(input.len(), ishape.len(), "input length");
    let (out_w, patches) = (spec.out_w(), spec.out_h() * spec.out_w());
    let patch_len = spec.in_c() * spec.ky() * spec.kx();
    ut.resize(patch_len, patches);
    let (sy, sx, kx_n, ky_n) = (spec.sy(), spec.sx(), spec.kx(), spec.ky());
    let uv = ut.as_mut_slice();
    let work = uv.len();
    // A channel's rows are one item: its `ky * kx` rows of `patches`.
    let channel_rows = ky_n * kx_n * patches;
    split::for_each_part(uv, channel_rows, work, cores, floor, |c0, channels| {
        for (c, rows) in (c0..).zip(channels.chunks_exact_mut(channel_rows)) {
            for (ky, ky_rows) in rows.chunks_exact_mut(kx_n * patches).enumerate() {
                for (kx, urow) in ky_rows.chunks_exact_mut(patches).enumerate() {
                    for (y, dst) in urow.chunks_exact_mut(out_w).enumerate() {
                        let src = &input[ishape.index(c, y * sy + ky, kx)..];
                        // Stride 2 gets a copy compiled for its stride.
                        match sx {
                            1 => dst.copy_from_slice(&src[..out_w]),
                            2 => gather(dst, src, 2),
                            sx => gather(dst, src, sx),
                        }
                    }
                }
            }
        }
    });
}

/// `dst[x] = src[x * sx]`.
#[inline(always)]
fn gather(dst: &mut [f32], src: &[f32], sx: usize) {
    let src = &src[..(dst.len() - 1) * sx + 1];
    for (x, d) in dst.iter_mut().enumerate() {
        *d = src[x * sx];
    }
}

/// Folds a patch-space gradient back into input space (`col2im`):
/// the adjoint of [`unfold`]. Entries of overlapping receptive fields
/// accumulate.
///
/// `patch_grads` must be `out_h * out_w` rows × `Nc * Fy * Fx` columns;
/// `grad_in` is CHW of `spec.input_shape()` and is overwritten.
///
/// # Panics
///
/// Panics if buffer geometry does not match the spec.
pub fn fold(spec: &ConvSpec, patch_grads: &Matrix, grad_in: &mut [f32]) {
    let ishape = spec.input_shape();
    let patches = spec.out_h() * spec.out_w();
    let patch_len = spec.in_c() * spec.ky() * spec.kx();
    assert_eq!(patch_grads.rows(), patches, "patch rows");
    assert_eq!(patch_grads.cols(), patch_len, "patch cols");
    assert_eq!(grad_in.len(), ishape.len(), "grad_in length");

    grad_in.fill(0.0);
    let (sy, sx, kx_n, ky_n) = (spec.sy(), spec.sx(), spec.kx(), spec.ky());
    for y in 0..spec.out_h() {
        for x in 0..spec.out_w() {
            let row = patch_grads.row(y * spec.out_w() + x);
            for c in 0..spec.in_c() {
                for ky in 0..ky_n {
                    let dst = ishape.index(c, y * sy + ky, x * sx);
                    let src = (c * ky_n + ky) * kx_n;
                    for kx in 0..kx_n {
                        grad_in[dst + kx] += row[src + kx];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unfold_matches_fig2b() {
        // Fig. 2b setup: 3x3 image, 2 channels, 2x2 kernel.
        let spec = ConvSpec::new(2, 3, 3, 1, 2, 2, 1, 1).unwrap();
        let input: Vec<f32> = (1..=18).map(|i| i as f32).collect();
        let u = unfold(&spec, &input);
        assert_eq!((u.rows(), u.cols()), (4, 8));
        // First patch: channel 0 block [1,2,4,5], channel 1 block [10,11,13,14].
        assert_eq!(u.row(0), &[1.0, 2.0, 4.0, 5.0, 10.0, 11.0, 13.0, 14.0]);
        // Last patch (bottom-right).
        assert_eq!(u.row(3), &[5.0, 6.0, 8.0, 9.0, 14.0, 15.0, 17.0, 18.0]);
    }

    #[test]
    fn unfold_transposed_is_transpose_of_unfold() {
        let spec = ConvSpec::new(3, 6, 5, 1, 3, 2, 2, 1).unwrap();
        let input: Vec<f32> = (0..spec.input_shape().len()).map(|i| (i as f32).sin()).collect();
        let u = unfold(&spec, &input);
        let ut = unfold_transposed(&spec, &input);
        assert_eq!(ut, u.transposed());
    }

    /// The element-wise loop the row-sliced, split unfold replaced.
    fn unfold_transposed_oracle(spec: &ConvSpec, input: &[f32]) -> Vec<f32> {
        let ishape = spec.input_shape();
        let patches = spec.out_h() * spec.out_w();
        let (sy, sx, kx_n, ky_n) = (spec.sy(), spec.sx(), spec.kx(), spec.ky());
        let mut uv = vec![0.0; spec.in_c() * ky_n * kx_n * patches];
        for c in 0..spec.in_c() {
            for ky in 0..ky_n {
                for kx in 0..kx_n {
                    let urow = ((c * ky_n + ky) * kx_n + kx) * patches;
                    for y in 0..spec.out_h() {
                        let src = ishape.index(c, y * sy + ky, kx);
                        for x in 0..spec.out_w() {
                            uv[urow + y * spec.out_w() + x] = input[src + x * sx];
                        }
                    }
                }
            }
        }
        uv
    }

    #[test]
    fn split_unfold_matches_the_element_loop_at_every_budget() {
        // The ImageNet-22K convs shrunk (channels, features and sides
        // capped; kernel and stride kept), plus strides the nets skip.
        let specs = [
            ConvSpec::new(3, 19, 19, 8, 7, 7, 2, 2),
            ConvSpec::new(12, 15, 16, 10, 5, 5, 2, 2),
            ConvSpec::new(10, 8, 8, 12, 3, 3, 1, 1),
            ConvSpec::new(12, 7, 9, 12, 3, 3, 1, 1),
            ConvSpec::new(4, 9, 11, 6, 3, 2, 1, 2),
            ConvSpec::new(2, 10, 9, 3, 2, 3, 2, 1),
        ];
        for spec in specs.map(|s| s.unwrap()) {
            let input: Vec<f32> =
                (0..spec.input_shape().len()).map(|i| (i as f32 * 0.37).sin()).collect();
            let want = unfold_transposed_oracle(&spec, &input);
            for cores in [1, 2, 3, 7] {
                let mut ut = Matrix::default();
                unfold_transposed_split(&spec, &input, &mut ut, cores, 1);
                let got = ut.as_slice().iter().map(|v| v.to_bits());
                assert!(got.eq(want.iter().map(|v| v.to_bits())), "{spec:?} at {cores} cores");
            }
        }
    }

    #[test]
    fn fold_is_adjoint_of_unfold() {
        // <unfold(u), g> == <u, fold(g)> for all u, g.
        let spec = ConvSpec::new(2, 5, 4, 1, 2, 3, 1, 1).unwrap();
        let ilen = spec.input_shape().len();
        let input: Vec<f32> = (0..ilen).map(|i| ((i * 13 % 7) as f32) - 3.0).collect();
        let u = unfold(&spec, &input);
        let g = Matrix::from_vec(
            u.rows(),
            u.cols(),
            (0..u.len()).map(|i| ((i * 11 % 5) as f32) - 2.0).collect(),
        )
        .unwrap();
        let mut folded = vec![0f32; ilen];
        fold(&spec, &g, &mut folded);
        let lhs: f64 =
            u.as_slice().iter().zip(g.as_slice()).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        let rhs: f64 = input.iter().zip(&folded).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        assert!((lhs - rhs).abs() < 1e-6, "{lhs} vs {rhs}");
    }

    #[test]
    fn fold_accumulates_overlaps() {
        // 1x3 input, 1x2 kernel, stride 1: middle element overlaps 2 patches.
        let spec = ConvSpec::new(1, 1, 3, 1, 1, 2, 1, 1).unwrap();
        let g = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        let mut grad_in = [0.0; 3];
        fold(&spec, &g, &mut grad_in);
        assert_eq!(grad_in, [1.0, 2.0, 1.0]);
    }

    #[test]
    fn strided_unfold_skips_positions() {
        let spec = ConvSpec::new(1, 1, 5, 1, 1, 1, 1, 2).unwrap();
        let u = unfold(&spec, &[10.0, 11.0, 12.0, 13.0, 14.0]);
        assert_eq!(u.as_slice(), &[10.0, 12.0, 14.0]);
    }
}
