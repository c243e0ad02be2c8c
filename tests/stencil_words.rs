//! Tiled-stencil output words on the page: every Table 2 layer, on full
//! geometry, at a core budget of 1 (the sequential
//! plan) and 2 (the plan banded over two regions).
//!
//! The golden suites compare instances with each other (specialized vs
//! generic, banded vs sequential); this pins each layer's output bits to a
//! literal, so a change of the per-output-element reduction order — a new
//! register tile, a new lane axis, a new weight layout — shows even when
//! every instance changes together.

use spg_cnn::codegen::KernelChoice;
use spg_cnn::convnet::workspace::ConvScratch;
use spg_cnn::convnet::ConvSpec;
use spg_cnn::core::autotune::Phase;
use spg_cnn::core::schedule::Technique;
use spg_cnn::core::verify::lower_phase;
use spg_cnn::gemm::{detect_simd_level, SimdLevel};
use spg_cnn::workloads::synth::conv_operands;
use spg_cnn::workloads::table2::{self, Benchmark};

/// `(benchmark, layer, [budget 1, budget 2])`: FNV-1a 64 of the output
/// words, recorded from the x-lane register tile (each output column one
/// SIMD lane) before the feature-lane tile replaced it — except CIFAR-10
/// L1, whose 4-wide rows ran a narrow shifted-GEMM kernel until the tiled
/// loop nest took them, and which is recorded from that loop nest.
const RECORDED: [(Benchmark, usize, [u64; 2]); 12] = [
    (Benchmark::ImageNet22K, 0, [0x2459_4255_c4f2_9cf0, 0x2459_4255_c4f2_9cf0]),
    (Benchmark::ImageNet22K, 1, [0xf4fb_2a76_379a_d722, 0xf4fb_2a76_379a_d722]),
    (Benchmark::ImageNet22K, 2, [0x536b_5844_73ff_c565, 0x536b_5844_73ff_c565]),
    (Benchmark::ImageNet22K, 3, [0xe10e_f80f_5779_47ba, 0xe10e_f80f_5779_47ba]),
    (Benchmark::ImageNet22K, 4, [0xf43f_23fa_d9e9_fdf6, 0xf43f_23fa_d9e9_fdf6]),
    (Benchmark::ImageNet1K, 0, [0x4088_72da_ab0f_9e9e, 0x4088_72da_ab0f_9e9e]),
    (Benchmark::ImageNet1K, 1, [0x59f2_fad5_5a38_3da7, 0x59f2_fad5_5a38_3da7]),
    (Benchmark::ImageNet1K, 2, [0xc811_6cc2_6f93_1b03, 0xc811_6cc2_6f93_1b03]),
    (Benchmark::ImageNet1K, 3, [0xdc49_3dff_b828_30db, 0xdc49_3dff_b828_30db]),
    (Benchmark::Cifar10, 0, [0xe3ed_21f5_f91d_ae5e, 0xe3ed_21f5_f91d_ae5e]),
    (Benchmark::Mnist, 0, [0xde97_aaab_8545_dd03, 0xde97_aaab_8545_dd03]),
    (Benchmark::Cifar10, 1, [0x5362_a9b3_6a8b_c001, 0x5362_a9b3_6a8b_c001]),
];

/// FNV-1a 64 over the little-endian bytes of each output word.
fn fnv1a(words: &[f32]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// `spec`'s stencil forward lowered for `cores` and run at that budget.
fn words(spec: &ConvSpec, cores: usize) -> u64 {
    let program =
        lower_phase(spec, Technique::StencilFp, Phase::Forward, cores, KernelChoice::Auto)
            .unwrap_or_else(|e| panic!("{spec} at {cores} cores: {e}"));
    let ops = conv_operands(spec, 0.0, 0x5eed);
    let weights = program.prepared(ops.weights.as_slice());
    let mut out = vec![0f32; spec.output_shape().len()];
    program.forward(ops.input.as_slice(), &weights, &mut out, &mut ConvScratch::with_cores(cores));
    fnv1a(&out)
}

#[test]
fn tiled_stencil_outputs_match_the_recorded_words() {
    if detect_simd_level() < SimdLevel::Avx2Fma {
        eprintln!("skipping: the words were recorded with fused multiply-adds");
        return;
    }
    for (bench, layer, want) in RECORDED {
        let spec = table2::all_layers()
            .into_iter()
            .find(|&(b, i, _)| (b, i) == (bench, layer))
            .map(|(_, _, spec)| spec)
            .unwrap_or_else(|| panic!("{bench:?} has no layer {layer}"));
        let got = [words(&spec, 1), words(&spec, 2)];
        assert_eq!(got, want, "{} layer {layer} at budgets 1 and 2", bench.label());
    }
}
