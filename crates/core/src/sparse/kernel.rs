//! The pointer-shifting sparse backward kernels (paper Sec. 4.2).
//!
//! One entry per phase. Backward-data reads the weights in the permuted
//! `[ky, kx, f, c]` layout of Fig. 5b and never produces it: weights change
//! once per update, so the permutation belongs to whoever owns them (a
//! layer's or a `CompiledConv`'s `PreparedWeights`), not to a per-sample
//! call. What is per-sample — the gradient's HWC transform and CT-CSR
//! build — is staged in the caller's scratch here.

use spg_tensor::layout::{self, Kkfc};
use spg_tensor::Shape3;

use spg_convnet::workspace::{zeroed_slice, ConvScratch};
use spg_convnet::ConvSpec;

/// Backward error propagation exploiting gradient sparsity (Eq. 11–15)
/// against weights already permuted to `[ky, kx, f, c]` order
/// ([`Kkfc`] — the layer's
/// [`PreparedWeights::kkfc`](spg_convnet::exec::PreparedWeights::kkfc),
/// refreshed once per update), staging the per-sample gradient transform
/// and CT-CSR build in a caller-provided [`ConvScratch`]: the per-sample
/// path performs no heap allocation once the scratch has warmed up.
///
/// Semantically identical to
/// [`reference::backward_data`](spg_convnet::reference::backward_data):
/// computes `E_I` from `E_O` and the weights, but touches only the
/// non-zero gradient elements.
///
/// `tile_width` is the CT-CSR column-tile width in features.
///
/// # Panics
///
/// Panics if buffer lengths do not match the spec or `tile_width == 0`.
pub fn backward_data_scratch(
    spec: &ConvSpec,
    w_kkfc: &Kkfc,
    grad_out: &[f32],
    grad_in: &mut [f32],
    tile_width: usize,
    scratch: &mut ConvScratch,
) {
    let w_kkfc = w_kkfc.as_slice();
    assert_eq!(w_kkfc.len(), spec.weight_shape().len(), "weights length");
    assert_eq!(grad_out.len(), spec.output_shape().len(), "grad_out length");
    assert_eq!(grad_in.len(), spec.input_shape().len(), "grad_in length");
    assert!(tile_width > 0, "tile width must be positive");

    let (nf, nc) = (spec.features(), spec.in_c());
    let (out_h, out_w) = (spec.out_h(), spec.out_w());
    let (in_h, in_w) = (spec.in_h(), spec.in_w());
    let (sy, sx) = (spec.sy(), spec.sx());
    let (fy, fx) = (spec.ky(), spec.kx());

    let ConvScratch { hwc_in, hwc_out, ctcsr, .. } = scratch;

    // Per-sample transform: gradient -> [y', x', f] (f fastest).
    let eo_hwc = zeroed_slice(hwc_out, nf * out_h * out_w);
    layout::chw_to_hwc_into(grad_out, Shape3::new(nf, out_h, out_w), eo_hwc);

    // Column-tiled CSR over (spatial positions x features), rebuilt in
    // place over the previous sample's tile storage.
    if ctcsr.assign_from_slice(out_h * out_w, nf, eo_hwc, tile_width).is_err() {
        unreachable!("tile width asserted positive above");
    }
    let eo_sparse = &*ctcsr;

    // Goodput accounting (Sec. 3.3): each stored gradient value touches
    // one `(c, ky, kx)` weight block, so the kernel performs
    // `2 * nnz * kdim` flops where a dense backward pass performs
    // `2 * Nf * H' * W' * kdim` — the skipped zeros are the gap.
    let nnz = eo_sparse.nnz() as u64;
    let kdim = (nc * fy * fx) as u64;
    spg_telemetry::record_flops(2 * nnz * kdim, spec.arithmetic_ops());
    spg_telemetry::record_tile_occupancy(nnz, (out_h * out_w * nf) as u64);

    // Accumulate E_I in HWC; each non-zero scatters a channel vector per
    // kernel offset via the Eq. 15 pointer shift.
    let ei_hwc = zeroed_slice(hwc_in, in_h * in_w * nc);
    let wv = w_kkfc;
    for (f0, tile) in eo_sparse.iter() {
        for p in 0..out_h * out_w {
            let (yp, xp) = (p / out_w, p % out_w);
            for (f_local, v) in tile.row_entries(p) {
                let f = f0 + f_local;
                for ky in 0..fy {
                    let row = (yp * sy + ky) * in_w;
                    for kx in 0..fx {
                        let dst = (row + xp * sx + kx) * nc;
                        let wbase = ((ky * fx + kx) * nf + f) * nc;
                        let wrow = &wv[wbase..wbase + nc];
                        let orow = &mut ei_hwc[dst..dst + nc];
                        for (o, &w) in orow.iter_mut().zip(wrow) {
                            *o += v * w;
                        }
                    }
                }
            }
        }
    }

    layout::hwc_to_chw_into(ei_hwc, Shape3::new(nc, in_h, in_w), grad_in);
}

/// Delta-weight computation exploiting gradient sparsity (Eq. 4, executed
/// sparsely): `dW[f, c, ky, kx] = sum_{y,x} E_O[f, y, x] * I[c, y*sy+ky, x*sx+kx]`
/// with the sum restricted to non-zero gradients, staging the layout
/// transforms, CT-CSR build, and the permuted-order gradient accumulator
/// in a caller-provided [`ConvScratch`].
///
/// # Panics
///
/// Panics if buffer lengths do not match the spec or `tile_width == 0`.
pub fn backward_weights_scratch(
    spec: &ConvSpec,
    input: &[f32],
    grad_out: &[f32],
    grad_weights: &mut [f32],
    tile_width: usize,
    scratch: &mut ConvScratch,
) {
    assert_eq!(input.len(), spec.input_shape().len(), "input length");
    assert_eq!(grad_out.len(), spec.output_shape().len(), "grad_out length");
    assert_eq!(grad_weights.len(), spec.weight_shape().len(), "grad_weights length");
    assert!(tile_width > 0, "tile width must be positive");

    let (nf, nc) = (spec.features(), spec.in_c());
    let (out_h, out_w) = (spec.out_h(), spec.out_w());
    let in_w = spec.in_w();
    let (sy, sx) = (spec.sy(), spec.sx());
    let (fy, fx) = (spec.ky(), spec.kx());

    let ConvScratch { hwc_in, hwc_out, wperm, ctcsr, .. } = scratch;

    let in_hwc = zeroed_slice(hwc_in, input.len());
    layout::chw_to_hwc_into(input, spec.input_shape(), in_hwc);
    let eo_hwc = zeroed_slice(hwc_out, nf * out_h * out_w);
    layout::chw_to_hwc_into(grad_out, Shape3::new(nf, out_h, out_w), eo_hwc);
    if ctcsr.assign_from_slice(out_h * out_w, nf, eo_hwc, tile_width).is_err() {
        unreachable!("tile width asserted positive above");
    }
    let eo_sparse = &*ctcsr;

    // Same goodput accounting as `backward_data_scratch`: the
    // delta-weight reduction also visits one `(c, ky, kx)` block per
    // stored gradient value (Eq. 4 executed sparsely).
    let nnz = eo_sparse.nnz() as u64;
    let kdim = (nc * fy * fx) as u64;
    spg_telemetry::record_flops(2 * nnz * kdim, spec.arithmetic_ops());
    spg_telemetry::record_tile_occupancy(nnz, (out_h * out_w * nf) as u64);

    // Accumulate dW in [ky, kx, f, c] (c fastest), then permute back.
    let dw_kkfc = zeroed_slice(wperm, fy * fx * nf * nc);
    let iv = &in_hwc[..];
    for (f0, tile) in eo_sparse.iter() {
        for p in 0..out_h * out_w {
            let (yp, xp) = (p / out_w, p % out_w);
            for (f_local, v) in tile.row_entries(p) {
                let f = f0 + f_local;
                for ky in 0..fy {
                    let row = (yp * sy + ky) * in_w;
                    for kx in 0..fx {
                        let src = (row + xp * sx + kx) * nc;
                        let dwbase = ((ky * fx + kx) * nf + f) * nc;
                        let irow = &iv[src..src + nc];
                        let drow = &mut dw_kkfc[dwbase..dwbase + nc];
                        for (d, &i) in drow.iter_mut().zip(irow) {
                            *d += v * i;
                        }
                    }
                }
            }
        }
    }

    layout::kkfc_to_fckk_into(dw_kkfc, spec.weight_shape(), grad_weights);
}

#[cfg(test)]
mod tests {
    use super::*;
    use spg_convnet::reference;

    fn sparse_grad(n: usize, sparsity_mod: usize, salt: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                if !(i * 7 + salt).is_multiple_of(sparsity_mod) {
                    0.0
                } else {
                    (((i * 13 + salt) % 17) as f32 - 8.0) / 4.0
                }
            })
            .collect()
    }

    fn pseudo(n: usize, salt: usize) -> Vec<f32> {
        (0..n).map(|i| (((i * 11 + salt * 3) % 19) as f32 - 9.0) / 6.0).collect()
    }

    /// `weights` in the `[ky, kx, f, c]` order backward-data reads.
    fn kkfc(spec: &ConvSpec, weights: &[f32]) -> Kkfc {
        Kkfc::from_fckk(weights, spec.weight_shape())
    }

    fn spec_cases() -> Vec<ConvSpec> {
        vec![
            ConvSpec::new(1, 4, 4, 1, 2, 2, 1, 1).unwrap(),
            ConvSpec::new(3, 8, 8, 5, 3, 3, 1, 1).unwrap(),
            ConvSpec::new(2, 9, 7, 4, 2, 3, 2, 1).unwrap(),
            ConvSpec::new(4, 10, 10, 6, 3, 3, 2, 2).unwrap(),
            ConvSpec::new(2, 12, 12, 3, 5, 5, 1, 2).unwrap(),
        ]
    }

    #[test]
    fn backward_data_matches_reference() {
        for spec in spec_cases() {
            let weights = pseudo(spec.weight_shape().len(), 1);
            let grad_out = sparse_grad(spec.output_shape().len(), 5, 2);
            let mut ours = vec![0f32; spec.input_shape().len()];
            let mut oracle = vec![0f32; spec.input_shape().len()];
            for tw in [1, 2, 64] {
                backward_data_scratch(
                    &spec,
                    &kkfc(&spec, &weights),
                    &grad_out,
                    &mut ours,
                    tw,
                    &mut ConvScratch::new(),
                );
                reference::backward_data(&spec, &weights, &grad_out, &mut oracle);
                let diff =
                    ours.iter().zip(&oracle).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
                assert!(diff < 1e-4, "{spec} tw={tw}: diff {diff}");
            }
        }
    }

    #[test]
    fn backward_weights_matches_reference() {
        for spec in spec_cases() {
            let input = pseudo(spec.input_shape().len(), 3);
            let grad_out = sparse_grad(spec.output_shape().len(), 4, 1);
            let mut ours = vec![0f32; spec.weight_shape().len()];
            let mut oracle = vec![0f32; spec.weight_shape().len()];
            for tw in [1, 3, 64] {
                backward_weights_scratch(
                    &spec,
                    &input,
                    &grad_out,
                    &mut ours,
                    tw,
                    &mut ConvScratch::new(),
                );
                reference::backward_weights(&spec, &input, &grad_out, &mut oracle);
                let diff =
                    ours.iter().zip(&oracle).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
                assert!(diff < 1e-4, "{spec} tw={tw}: diff {diff}");
            }
        }
    }

    #[test]
    fn fully_sparse_gradient_is_free_and_zero() {
        let spec = ConvSpec::new(2, 6, 6, 3, 3, 3, 1, 1).unwrap();
        let weights = pseudo(spec.weight_shape().len(), 9);
        let zeros = vec![0f32; spec.output_shape().len()];
        let mut gin = vec![1.0; spec.input_shape().len()];
        let w_kkfc = kkfc(&spec, &weights);
        backward_data_scratch(&spec, &w_kkfc, &zeros, &mut gin, 64, &mut ConvScratch::new());
        assert!(gin.iter().all(|v| *v == 0.0));
        let input = pseudo(spec.input_shape().len(), 10);
        let mut dw = vec![1.0; spec.weight_shape().len()];
        backward_weights_scratch(&spec, &input, &zeros, &mut dw, 64, &mut ConvScratch::new());
        assert!(dw.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn dense_gradient_still_correct() {
        // Sparsity 0 is the worst case but must stay correct.
        let spec = ConvSpec::new(2, 7, 7, 3, 3, 3, 1, 1).unwrap();
        let weights = pseudo(spec.weight_shape().len(), 4);
        let grad_out = pseudo(spec.output_shape().len(), 5);
        let mut ours = vec![0f32; spec.input_shape().len()];
        let mut oracle = vec![0f32; spec.input_shape().len()];
        let w_kkfc = kkfc(&spec, &weights);
        backward_data_scratch(&spec, &w_kkfc, &grad_out, &mut ours, 64, &mut ConvScratch::new());
        reference::backward_data(&spec, &weights, &grad_out, &mut oracle);
        let diff = ours.iter().zip(&oracle).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(diff < 1e-4, "diff {diff}");
    }

    #[test]
    #[should_panic(expected = "tile width")]
    fn zero_tile_width_panics() {
        let spec = ConvSpec::new(1, 4, 4, 1, 2, 2, 1, 1).unwrap();
        let mut gin = vec![0f32; 16];
        let w = kkfc(&spec, &[0.0; 4]);
        backward_data_scratch(&spec, &w, &[0.0; 9], &mut gin, 0, &mut ConvScratch::new());
    }
}
