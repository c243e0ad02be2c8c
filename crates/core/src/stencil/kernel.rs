//! The narrow direct-convolution forward kernel (paper Sec. 4.3).
//!
//! Which stencil plan a layer runs is chosen when its plan is lowered
//! ([`verify::lower`](crate::verify::lower)), never per call. Plans with
//! output rows at least one vector wide are **register-tiled**: the paper's
//! Fig. 7 basic block, whose one loop nest — compile-time- and
//! run-time-geometry instances alike — lives in `spg-codegen`
//! ([`spg_codegen::forward_tiled`]). What executes here is the other plan:
//!
//! **Shifted small dense MMs** ([`forward_narrow_scratch`], outputs
//! narrower than one vector): vectorizing along 4-element rows is
//! pointless, so the kernel vectorizes along *features* instead: inputs
//! and outputs are viewed in HWC layout and, for every kernel offset
//! `(ky, kx)`, a small dense `out_w x Nf x Nc` multiply accumulates the
//! shifted input rows into the output — convolution composed in place
//! as a series of small dense MMs by pointer shifting, with no unfolded
//! matrix. The weights arrive already permuted into those multiplies'
//! right-hand operands; like the sparse backward, this kernel reads the
//! permuted layout and never produces it.

use spg_tensor::{layout, Shape3};

use spg_convnet::workspace::{zeroed_slice, ConvScratch};
use spg_convnet::ConvSpec;
use spg_gemm::gemm_slice;

/// Narrow-output forward path: compose the convolution as shifted small
/// dense MMs over channel/feature-major views (one `out_w x Nf x Nc`
/// multiply per kernel offset), vectorized by the GEMM micro-kernel along
/// features. `w_kkcf` is the weights as those multiplies' right-hand
/// operands ([`spg_tensor::layout::narrow_weights_into`] — the layer's
/// [`PreparedWeights::kkcf`](spg_convnet::exec::PreparedWeights::kkcf),
/// refreshed once per update); the per-sample HWC views and gathered patch
/// block are staged in a caller-provided [`ConvScratch`].
///
/// # Panics
///
/// Panics if any buffer length does not match the spec.
pub fn forward_narrow_scratch(
    spec: &ConvSpec,
    input: &[f32],
    w_kkcf: &[f32],
    output: &mut [f32],
    scratch: &mut ConvScratch,
) {
    assert_eq!(input.len(), spec.input_shape().len(), "input length");
    assert_eq!(w_kkcf.len(), spec.weight_shape().len(), "weights length");
    assert_eq!(output.len(), spec.output_shape().len(), "output length");
    // Like the tiled plan, the full dense convolution: goodput 1.
    let ops = spec.arithmetic_ops();
    spg_telemetry::record_flops(ops, ops);
    let (nc, nf) = (spec.in_c(), spec.features());
    let (in_w, out_h, out_w) = (spec.in_w(), spec.out_h(), spec.out_w());
    let (sy, sx) = (spec.sy(), spec.sx());
    let (fy, fx) = (spec.ky(), spec.kx());

    let ConvScratch { mat_a, hwc_in, hwc_out, .. } = scratch;
    let in_hwc = zeroed_slice(hwc_in, input.len());
    layout::chw_to_hwc_into(input, spec.input_shape(), in_hwc);

    // The GEMMs accumulate across kernel offsets, so the output staging
    // buffer must start zeroed.
    let out_hwc = zeroed_slice(hwc_out, out_h * out_w * nf);
    let iv = &in_hwc[..];
    // Per kernel offset: gather the pointer-shifted input pixels into one
    // contiguous (P x Nc) block (rows of one output row are sx*Nc apart,
    // rows of different output rows are not uniformly spaced, so a single
    // strided GEMM cannot cover them), then one dense multiply per offset.
    let patches = out_h * out_w;
    mat_a.resize(patches, nc);
    let gathered = mat_a.as_mut_slice();
    for ky in 0..fy {
        for kx in 0..fx {
            let b = &w_kkcf[(ky * fx + kx) * nc * nf..(ky * fx + kx + 1) * nc * nf];
            for y in 0..out_h {
                for x in 0..out_w {
                    let src = ((y * sy + ky) * in_w + x * sx + kx) * nc;
                    let dst = (y * out_w + x) * nc;
                    gathered[dst..dst + nc].copy_from_slice(&iv[src..src + nc]);
                }
            }
            gemm_slice(patches, nf, nc, gathered, nc, b, nf, out_hwc, nf);
        }
    }

    layout::hwc_to_chw_into(out_hwc, Shape3::new(nf, out_h, out_w), output);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autotune::Phase;
    use crate::schedule::Technique;
    use crate::verify::lower_phase;
    use spg_check::ForwardPlan;
    use spg_codegen::KernelChoice;
    use spg_convnet::reference;

    fn pseudo(n: usize, salt: usize) -> Vec<f32> {
        (0..n).map(|i| (((i * 29 + salt * 13) % 19) as f32 - 9.0) / 5.0).collect()
    }

    /// The stencil forward as lowering deploys it on a narrow output.
    fn forward_scratch(
        spec: &ConvSpec,
        input: &[f32],
        weights: &[f32],
        output: &mut [f32],
        scratch: &mut ConvScratch,
    ) {
        let stencil =
            lower_phase(spec, Technique::StencilFp, Phase::Forward, 1, KernelChoice::Generic)
                .expect("stencil plans verify on every valid spec");
        assert_eq!(stencil.plan().forward, ForwardPlan::StencilNarrow, "{spec}");
        stencil.forward(input, &stencil.prepared(weights), output, scratch);
    }

    fn check(spec: ConvSpec) {
        let input = pseudo(spec.input_shape().len(), 1);
        let weights = pseudo(spec.weight_shape().len(), 2);
        let olen = spec.output_shape().len();
        let mut stencil = vec![0f32; olen];
        let mut oracle = vec![0f32; olen];
        forward_scratch(&spec, &input, &weights, &mut stencil, &mut ConvScratch::new());
        reference::forward(&spec, &input, &weights, &mut oracle);
        // Accumulation order differs from the reference; tolerance scales
        // with the reduction length (Nc * Fy * Fx).
        let diff = stencil.iter().zip(&oracle).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(diff < 5e-4, "{spec}: diff {diff}");
    }

    #[test]
    fn narrow_output_uses_shifted_gemm() {
        // CIFAR-10 L1 (Table 2): 4x4 outputs, 64 features.
        check(ConvSpec::square(8, 64, 64, 5, 1));
        check(ConvSpec::new(1, 4, 4, 1, 2, 2, 1, 1).unwrap());
        check(ConvSpec::new(3, 8, 8, 4, 3, 3, 1, 1).unwrap());
        check(ConvSpec::new(3, 6, 6, 7, 3, 3, 1, 1).unwrap());
    }

    #[test]
    fn narrow_strided_matches_reference() {
        check(ConvSpec::new(1, 8, 8, 2, 2, 2, 2, 2).unwrap());
        check(ConvSpec::new(2, 11, 13, 3, 3, 3, 1, 2).unwrap());
        check(ConvSpec::new(3, 12, 12, 2, 2, 2, 3, 3).unwrap());
        check(ConvSpec::new(2, 9, 9, 5, 3, 3, 2, 2).unwrap());
        // sy > 1 with sx == 1.
        check(ConvSpec::new(2, 10, 6, 3, 3, 3, 2, 1).unwrap());
        // AlexNet layer 0 geometry, shrunk input (stride 4, 11x11 kernel).
        check(ConvSpec::new(3, 30, 30, 4, 11, 11, 4, 4).unwrap());
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn validates_output_buffer() {
        let spec = ConvSpec::new(1, 4, 4, 1, 2, 2, 1, 1).unwrap();
        forward_scratch(&spec, &[0.0; 16], &[0.0; 4], &mut [0.0; 3], &mut ConvScratch::new());
    }
}
