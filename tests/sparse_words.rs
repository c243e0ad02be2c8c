//! Sparse-kernel backward words on the page: both phases of every Table 2
//! layer, on full geometry, at three gradient sparsities.
//!
//! The unit tests compare the sparse kernel with the dense reference to a
//! tolerance; this pins each layer's output bits to a literal, so a change
//! of the per-element order of additions — a new loop nest, a register
//! block, a vector tier — shows. The kernel multiplies and then adds (no
//! fused multiply-add), so the words are the same on every host.
//! Backward-data is not run on layer 0 (a network never propagates an
//! error into its input).

use spg_cnn::codegen::KernelChoice;
use spg_cnn::convnet::workspace::ConvScratch;
use spg_cnn::convnet::ConvSpec;
use spg_cnn::core::autotune::Phase;
use spg_cnn::core::schedule::Technique;
use spg_cnn::core::verify::lower_phase;
use spg_cnn::workloads::synth::conv_operands;
use spg_cnn::workloads::table2::{self, Benchmark};

/// Gradient sparsities of the operands: the dense end of the kernel's
/// range, what `train_imagenet1k`'s conv2 reads, and what `train_cifar10`'s
/// conv0 reads.
const SPARSITIES: [f64; 3] = [0.5, 0.86, 0.95];

/// `(backward-weights, backward-data)` words at each of [`SPARSITIES`].
type Words = [(u64, u64); 3];

/// `(benchmark, layer, [(backward-weights, backward-data); 3])`: FNV-1a 64
/// of the output words per sparsity, in [`SPARSITIES`] order; 0 for the
/// backward-data of layer 0, which is not run.
const RECORDED: [(Benchmark, usize, Words); 12] = [
    (
        Benchmark::ImageNet22K,
        0,
        [(0xb1f8_46cb_7558_d8ad, 0), (0x86b9_9dd2_1d7d_cf58, 0), (0x643e_d8ac_a7ce_eee0, 0)],
    ),
    (
        Benchmark::ImageNet22K,
        1,
        [
            (0x32b1_cc41_1892_af22, 0x1c0c_0df8_a5f1_d711),
            (0x3bbe_3bd9_912b_5753, 0x21a9_d24b_b57b_53e7),
            (0x3858_54c4_403f_a795, 0xb4c6_9a7e_b7ee_39ad),
        ],
    ),
    (
        Benchmark::ImageNet22K,
        2,
        [
            (0x69d7_f35b_728a_45ad, 0xbaf0_37dc_830e_06c1),
            (0x9551_c4ae_1cd4_24ad, 0xfcf6_9809_d3c4_df45),
            (0x10ef_0eca_8c03_6f70, 0xd264_ca03_0a2a_65ea),
        ],
    ),
    (
        Benchmark::ImageNet22K,
        3,
        [
            (0xf9d2_5b7a_335b_f2d1, 0x7b40_4d67_9bda_64d1),
            (0x4671_ad02_2f13_5870, 0xa21b_efc1_1dbf_12bf),
            (0xd0a2_50d5_5c7c_e743, 0x3d4b_6dd1_1475_4e4d),
        ],
    ),
    (
        Benchmark::ImageNet22K,
        4,
        [
            (0x3b54_55b1_baca_9587, 0xc078_6712_763c_c604),
            (0x3364_a11d_7b3a_f1d8, 0x392f_7de2_f579_3285),
            (0xc2c5_fa65_17f7_367e, 0x89d7_abe3_596d_754c),
        ],
    ),
    (
        Benchmark::ImageNet1K,
        0,
        [(0x1682_1806_f769_a664, 0), (0x3469_3c9a_e957_ef19, 0), (0xd608_e639_95b4_ca9c, 0)],
    ),
    (
        Benchmark::ImageNet1K,
        1,
        [
            (0x09b2_617a_9ccd_9883, 0x1bc3_33bd_4cd8_aabe),
            (0x29f5_3b46_dc67_c815, 0xda6e_5777_38c1_1dfe),
            (0x9e30_038e_d1c7_fd80, 0xd376_181a_3d9e_ca97),
        ],
    ),
    (
        Benchmark::ImageNet1K,
        2,
        [
            (0x3f57_2e6d_949b_d873, 0x60e8_c00e_6946_00ec),
            (0x2537_b5e4_42e2_c008, 0xf907_a297_9b93_6e47),
            (0x41b3_820a_1cf6_c6a2, 0x4ec9_9f28_3be4_dbe9),
        ],
    ),
    (
        Benchmark::ImageNet1K,
        3,
        [
            (0x687d_573a_5688_a87e, 0x9c48_0950_72ca_3f6f),
            (0xe411_6ba9_f1ab_1c7b, 0x5aff_9bab_3805_2bfd),
            (0xaf3f_9655_26b2_8a36, 0x9a63_1147_fa55_e0ae),
        ],
    ),
    (
        Benchmark::Cifar10,
        0,
        [(0x4917_c3f4_66d8_e12a, 0), (0x9d16_53ff_6f41_6134, 0), (0xe289_c8e5_2b49_1497, 0)],
    ),
    (
        Benchmark::Cifar10,
        1,
        [
            (0xfd1a_cbfa_080f_2be7, 0xde89_d01c_90dc_1629),
            (0x1137_ff5f_def7_5f5b, 0x6186_cc7a_a076_7995),
            (0x9cb2_c5cd_e5ae_18a0, 0xeb87_6de6_d02e_8a4b),
        ],
    ),
    (
        Benchmark::Mnist,
        0,
        [(0x75bc_bdf7_194a_cc3e, 0), (0x5ee4_b80a_0426_aa9d, 0), (0xc67e_2a95_cbca_2b86, 0)],
    ),
];

/// FNV-1a 64 over the little-endian bytes of each output word.
fn fnv1a(words: &[f32]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// `(dW, dErr)` words of `spec`'s sparse backward on `conv_operands(spec,
/// sparsity, 7)`; dErr is 0 when `with_data` is false.
fn words(spec: &ConvSpec, sparsity: f64, with_data: bool) -> (u64, u64) {
    let program = lower_phase(spec, Technique::SparseBp, Phase::Backward, 1, KernelChoice::Auto)
        .unwrap_or_else(|e| panic!("{spec}: {e}"));
    let ops = conv_operands(spec, sparsity, 7);
    let weights = program.prepared(ops.weights.as_slice());
    let mut scratch = ConvScratch::new();
    let mut dw = vec![f32::NAN; spec.weight_shape().len()];
    program.backward_weights(ops.input.as_slice(), ops.grad_out.as_slice(), &mut dw, &mut scratch);
    let derr = if with_data {
        let mut gin = vec![f32::NAN; spec.input_shape().len()];
        program.backward_data(&weights, ops.grad_out.as_slice(), &mut gin, &mut scratch);
        fnv1a(&gin)
    } else {
        0
    };
    (fnv1a(&dw), derr)
}

/// Checks every recorded layer of `bench`. One test per benchmark, so the
/// harness runs them side by side.
fn check(bench: Benchmark) {
    let layers = bench.conv_layers();
    for &(_, layer, want) in RECORDED.iter().filter(|(b, _, _)| *b == bench) {
        for (&sparsity, want) in SPARSITIES.iter().zip(want) {
            let got = words(&layers[layer], sparsity, layer > 0);
            assert_eq!(got, want, "{} layer {layer} at sparsity {sparsity}", bench.label());
        }
    }
}

#[test]
#[cfg_attr(miri, ignore = "full Table 2 geometry is far too large to interpret")]
fn imagenet22k_words_match() {
    check(Benchmark::ImageNet22K);
}

#[test]
#[cfg_attr(miri, ignore = "full Table 2 geometry is far too large to interpret")]
fn imagenet1k_words_match() {
    check(Benchmark::ImageNet1K);
}

#[test]
#[cfg_attr(miri, ignore = "full Table 2 geometry is far too large to interpret")]
fn cifar10_and_mnist_words_match() {
    check(Benchmark::Cifar10);
    check(Benchmark::Mnist);
}

#[test]
fn every_table2_layer_is_recorded() {
    let recorded: Vec<(Benchmark, usize)> = RECORDED.iter().map(|&(b, i, _)| (b, i)).collect();
    let all: Vec<(Benchmark, usize)> =
        table2::all_layers().iter().map(|&(b, i, _)| (b, i)).collect();
    assert_eq!(recorded, all);
}
