//! Property-based tests for the CNN substrate: the Unfold+GEMM execution
//! path must agree with the naive reference on arbitrary convolution
//! specs, the adjoint identities of backpropagation must hold, and a fold
//! of gradient records must give the bits of the dense sample-order sum
//! however the parameters and the samples are split.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use spg_convnet::data::Dataset;
use spg_convnet::exec::{ConvExecutor, PreparedWeights, UnfoldGemmExecutor};
use spg_convnet::gradcheck::check_gradients;
use spg_convnet::layer::{ConvLayer, FcLayer, Layer, MaxPoolLayer, ReluLayer};
use spg_convnet::workspace::ConvScratch;
use spg_convnet::{gemm_exec, reference, unfold, ConvSpec, Network, Trainer, TrainerConfig};
use spg_gemm::{RightOperand, RowMajor};
use spg_tensor::{Matrix, Shape3, Tensor};

/// Random valid convolution specs, bounded to keep the oracle affordable.
fn conv_spec() -> impl Strategy<Value = ConvSpec> {
    (1usize..4, 3usize..12, 3usize..12, 1usize..5, 1usize..4, 1usize..4, 1usize..3, 1usize..3)
        .prop_filter_map("kernel fits input", |(c, h, w, f, ky, kx, sy, sx)| {
            ConvSpec::new(c, h, w, f, ky, kx, sy, sx).ok()
        })
}

fn pseudo(n: usize, salt: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let v = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(salt);
            ((v >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

/// Layer geometries for the layout passes: strides 1–4, kernels 1–11,
/// non-square inputs and kernels, 1–7 channels.
fn layout_spec() -> impl Strategy<Value = ConvSpec> {
    (1usize..=7, 1usize..=11, 1usize..=11, 1usize..=4, 1usize..=4, 0usize..14, 0usize..14).prop_map(
        |(c, ky, kx, sy, sx, dh, dw)| {
            ConvSpec::new(c, ky + dh, kx + dw, 1, ky, kx, sy, sx).expect("kernel fits input")
        },
    )
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The materialized `U^T` (`Nc * Fy * Fx` rows × `out_h * out_w` columns)
/// the Unfold+GEMM forward staged before its image operand was packed
/// straight from the input: the serial body of the old
/// `unfold_transposed_into`, kept as the oracle.
fn unfold_transposed_oracle(spec: &ConvSpec, input: &[f32]) -> Vec<f32> {
    let ishape = spec.input_shape();
    let (out_w, patches) = (spec.out_w(), spec.out_h() * spec.out_w());
    let (sy, sx, kx_n, ky_n) = (spec.sy(), spec.sx(), spec.kx(), spec.ky());
    let mut uv = vec![0.0; spec.in_c() * ky_n * kx_n * patches];
    for (c, rows) in uv.chunks_exact_mut(ky_n * kx_n * patches).enumerate() {
        for (ky, ky_rows) in rows.chunks_exact_mut(kx_n * patches).enumerate() {
            for (kx, urow) in ky_rows.chunks_exact_mut(patches).enumerate() {
                for (y, dst) in urow.chunks_exact_mut(out_w).enumerate() {
                    let src = &input[ishape.index(c, y * sy + ky, kx)..];
                    for (x, d) in dst.iter_mut().enumerate() {
                        *d = src[x * sx];
                    }
                }
            }
        }
    }
    uv
}

/// The patch-major `col2im` the backward-data fold ran before the row
/// fold, over `E_U` (`out_h * out_w` rows × `Nc * Fy * Fx` columns): the
/// old `unfold::fold`, kept as the oracle.
fn fold_oracle(spec: &ConvSpec, patch_grads: &Matrix, grad_in: &mut [f32]) {
    let ishape = spec.input_shape();
    grad_in.fill(0.0);
    let (sy, sx, kx_n, ky_n) = (spec.sy(), spec.sx(), spec.kx(), spec.ky());
    for y in 0..spec.out_h() {
        for x in 0..spec.out_w() {
            let cols = patch_grads.cols();
            let row = &patch_grads.as_slice()[(y * spec.out_w() + x) * cols..][..cols];
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

fn max_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max)
}

/// Values that make float addition interesting: a third of them signed
/// zeros, subnormals, infinities and magnitudes whose products overflow,
/// the rest ordinary numbers across a few binades so that sums round.
/// (`pseudo` shifts a small salt away; records of different samples must
/// differ, so this one mixes it in.)
fn awkward(n: usize, salt: u64) -> Vec<f32> {
    const PALETTE: [f32; 8] =
        [0.0, -0.0, 1e-40, -1e-40, f32::INFINITY, f32::NEG_INFINITY, f32::MIN_POSITIVE, 3.0e38];
    (0..n as u64)
        .map(|i| {
            let mut z = (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ salt.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 30)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let unit = (z >> 40) as f32 / (1u64 << 23) as f32 - 1.0;
            match PALETTE.get((z % 24) as usize) {
                Some(&special) => special,
                None => unit * ((z % 24) as f32 - 7.0),
            }
        })
        .collect()
}

/// Bits for comparison. Which NaN an operation produces is not part of
/// the contract (Rust leaves payloads unspecified); that it is one, is.
fn words(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() }).collect()
}

/// `0 = c_0 <= c_1 <= ... = len` from arbitrary numbers.
fn boundaries(len: usize, cuts: &[usize]) -> Vec<usize> {
    let mut at: Vec<usize> = cuts.iter().map(|c| c % (len + 1)).chain([0, len]).collect();
    at.sort_unstable();
    at
}

/// The layer's `RecordFormat::add_grads` over the partition of the
/// parameters at `param_cuts`, each range fed the samples in the
/// consecutive calls `sample_cuts` splits them into, starting from zeros.
fn folded(
    layer: &dyn Layer,
    records: &[Vec<f32>],
    param_cuts: &[usize],
    sample_cuts: &[usize],
) -> Vec<f32> {
    let records: Vec<&[f32]> = records.iter().map(Vec::as_slice).collect();
    let mut acc = vec![0.0f32; layer.param_count()];
    for range in boundaries(acc.len(), param_cuts).windows(2) {
        for call in boundaries(records.len(), sample_cuts).windows(2) {
            let (records, acc) = (&records[call[0]..call[1]], &mut acc[range[0]..range[1]]);
            layer.record_format().add_grads(records, range[0], acc);
        }
    }
    acc
}

/// A parameterised layer that keeps every provided method of [`Layer`]:
/// its record is its dense gradient.
#[derive(Debug)]
struct DenseRecords(usize);

impl Layer for DenseRecords {
    fn name(&self) -> &str {
        "dense-records"
    }

    fn input_len(&self) -> usize {
        0
    }

    fn output_len(&self) -> usize {
        0
    }

    fn forward_block(&self, _inputs: &[f32], _outputs: &mut [f32], _scratch: &mut ConvScratch) {}

    fn backward_block(
        &self,
        _inputs: &[f32],
        _outputs: &[f32],
        _grad_outs: &[f32],
        _grad_ins: &mut [f32],
        _records: &mut [Tensor],
        _scratch: &mut ConvScratch,
    ) {
    }

    fn param_count(&self) -> usize {
        self.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gemm_forward_matches_reference(spec in conv_spec(), salt in 0u64..1000) {
        let input = pseudo(spec.input_shape().len(), salt);
        let weights = pseudo(spec.weight_shape().len(), salt ^ 0xabcd);
        let olen = spec.output_shape().len();
        let mut via_gemm = vec![0.0; olen];
        let mut oracle = vec![0.0; olen];
        gemm_exec::forward_scratch(&spec, &input, &weights, &mut via_gemm, 1, &mut ConvScratch::new());
        reference::forward(&spec, &input, &weights, &mut oracle);
        prop_assert!(max_diff(&via_gemm, &oracle) < 1e-3);
    }

    #[test]
    fn gemm_backward_data_matches_reference(spec in conv_spec(), salt in 0u64..1000) {
        let weights = pseudo(spec.weight_shape().len(), salt);
        let grad_out = pseudo(spec.output_shape().len(), salt ^ 0x77);
        let ilen = spec.input_shape().len();
        let mut via_gemm = vec![0.0; ilen];
        let mut oracle = vec![0.0; ilen];
        gemm_exec::backward_data_scratch(&spec, &weights, &grad_out, &mut via_gemm, 1, &mut ConvScratch::new());
        reference::backward_data(&spec, &weights, &grad_out, &mut oracle);
        prop_assert!(max_diff(&via_gemm, &oracle) < 1e-3);
    }

    #[test]
    fn gemm_backward_weights_matches_reference(spec in conv_spec(), salt in 0u64..1000) {
        let input = pseudo(spec.input_shape().len(), salt);
        let grad_out = pseudo(spec.output_shape().len(), salt ^ 0x3131);
        let wlen = spec.weight_shape().len();
        let mut via_gemm = vec![0.0; wlen];
        let mut oracle = vec![0.0; wlen];
        gemm_exec::backward_weights_scratch(&spec, &input, &grad_out, &mut via_gemm, 1, &mut ConvScratch::new());
        reference::backward_weights(&spec, &input, &grad_out, &mut oracle);
        prop_assert!(max_diff(&via_gemm, &oracle) < 1e-3);
    }

    /// The adjoint identity <conv(u), v> == <u, conv^T(v)> must hold for
    /// arbitrary specs — this is the linchpin correctness property of BP.
    #[test]
    fn forward_backward_adjoint(spec in conv_spec(), salt in 0u64..1000) {
        let input = pseudo(spec.input_shape().len(), salt);
        let weights = pseudo(spec.weight_shape().len(), salt ^ 0x5555);
        let grad_out = pseudo(spec.output_shape().len(), salt ^ 0x9999);
        let mut fwd = vec![0.0; spec.output_shape().len()];
        let mut bwd = vec![0.0; spec.input_shape().len()];
        reference::forward(&spec, &input, &weights, &mut fwd);
        reference::backward_data(&spec, &weights, &grad_out, &mut bwd);
        let lhs: f64 = fwd.iter().zip(&grad_out).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        let rhs: f64 = input.iter().zip(&bwd).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0));
    }

    /// Row `j` of the image operand's `U^T` is the reference convolution
    /// of the input with the one-hot kernel at tap `j`, and the `|U|`
    /// accounting is the operand's size.
    #[test]
    fn image_operand_rows_are_one_hot_convolutions(spec in conv_spec(), salt in 0u64..1000) {
        let input = pseudo(spec.input_shape().len(), salt);
        let (patch_len, patches) = (spec.weight_shape().per_feature(), spec.out_h() * spec.out_w());
        prop_assert_eq!(patch_len as u64 * patches as u64, spec.unfolded_elems());
        let one = ConvSpec::new(spec.in_c(), spec.in_h(), spec.in_w(), 1, spec.ky(), spec.kx(), spec.sy(), spec.sx()).unwrap();
        let image = unfold::ImageOperand::transposed(&spec, &input);
        for j in 0..patch_len {
            let mut row = vec![f32::NAN; patches.div_ceil(16) * 16];
            image.pack(16, j, 0, 1, patches, &mut row);
            let mut hot = vec![0.0; patch_len];
            hot[j] = 1.0;
            let mut oracle = vec![0.0; patches];
            reference::forward(&one, &input, &hot, &mut oracle);
            prop_assert!(row[..patches] == oracle[..], "tap {}", j);
        }
    }

    /// Packing the image operand straight from the input gives, bit for
    /// bit and zero padding included, the panels a dense pack builds from
    /// the materialized unfold — `U^T` for the forward and `U` for
    /// backward-weights, at both register tiles' widths and any block.
    #[test]
    fn image_panels_are_the_dense_panels_of_the_unfold(
        spec in layout_spec(),
        salt in 0u64..1000,
        corner in (0usize..1000, 0usize..1000),
    ) {
        let input = awkward(spec.input_shape().len(), salt);
        let ut = unfold_transposed_oracle(&spec, &input);
        let (rows, cols) = (spec.weight_shape().per_feature(), spec.out_h() * spec.out_w());
        let u: Vec<f32> = (0..cols * rows).map(|i| ut[(i % rows) * cols + i / rows]).collect();
        let cases = [
            (unfold::ImageOperand::transposed(&spec, &input), RowMajor::new(&ut, cols), rows, cols),
            (unfold::ImageOperand::patches(&spec, &input), RowMajor::new(&u, rows), cols, rows),
        ];
        for (image, dense, k, n) in cases {
            let (row0, col0) = (corner.0 * k / 1000, corner.1 * n / 1000);
            let (kc, nc) = ((k - row0).min(256), (n - col0).min(1024));
            for nr in [16, 32] {
                let len = nc.div_ceil(nr) * kc * nr;
                let (mut got, mut want) = (vec![f32::NAN; len], vec![1.0; len]);
                image.pack(nr, row0, col0, kc, nc, &mut got);
                dense.pack(nr, row0, col0, kc, nc, &mut want);
                prop_assert!(bits(&got) == bits(&want), "nr {} at ({}, {})", nr, row0, col0);
            }
        }
    }

    /// The row fold — taps `(ky, kx)` descending, a channel's plane at a
    /// time, from `E_U^T` or from `E_U` — adds every input element's
    /// contributions in the patch-major fold's order, so it is that fold
    /// to the bit, on values where the order of float additions shows.
    #[test]
    fn row_fold_is_the_patch_major_fold(spec in layout_spec(), salt in 0u64..1000) {
        let (patch_len, patches) = (spec.weight_shape().per_feature(), spec.out_h() * spec.out_w());
        let eut = awkward(patch_len * patches, salt);
        let eu = Matrix::from_vec(patch_len, patches, eut.clone()).unwrap().transposed();
        let mut want = vec![0.0; spec.input_shape().len()];
        fold_oracle(&spec, &eu, &mut want);
        for (staged, tap_rows) in [(&eut[..], true), (eu.as_slice(), false)] {
            let mut got = vec![f32::NAN; want.len()];
            unfold::fold_rows(&spec, staged, tap_rows, &mut got, 1);
            prop_assert!(bits(&got) == bits(&want), "tap rows {}", tap_rows);
        }
    }

    /// `RecordFormat::Outer` forms the rank-B update from `(δ, x)` records:
    /// over any partition of the parameters (partial first and last rows
    /// included) and any split of the samples into consecutive calls it
    /// gives, bit for bit, "write each sample's dense `g * xi`, then
    /// `acc += dense` in sample order".
    #[test]
    fn fc_add_grads_is_the_dense_sum_under_any_split(
        in_len in 1usize..70,
        out_len in 1usize..6,
        samples in 1usize..=5,
        salt in 0u64..1000,
        param_cuts in proptest::collection::vec(0usize..100_000, 0..6),
        sample_cuts in proptest::collection::vec(0usize..100_000, 0..3),
    ) {
        let fc = FcLayer::new(in_len, out_len, &mut SmallRng::seed_from_u64(salt));
        let records: Vec<Vec<f32>> =
            (0..samples).map(|s| awkward(out_len + in_len, salt + 7 * s as u64)).collect();
        let mut want = vec![0.0f32; fc.param_count()];
        for record in &records {
            let (delta, x) = record.split_at(out_len);
            let weights = delta.iter().flat_map(|g| x.iter().map(move |xi| g * xi));
            let dense: Vec<f32> = weights.chain(delta.iter().copied()).collect();
            for (a, g) in want.iter_mut().zip(&dense) {
                *a += g;
            }
        }
        let got = folded(&fc, &records, &param_cuts, &sample_cuts);
        prop_assert_eq!(words(&got), words(&want));
    }

    /// The same for `RecordFormat::Dense`, the provided format, whose
    /// record is the dense gradient itself.
    #[test]
    fn default_add_grads_is_the_dense_sum_under_any_split(
        params in 1usize..200,
        samples in 1usize..=5,
        salt in 0u64..1000,
        param_cuts in proptest::collection::vec(0usize..100_000, 0..6),
        sample_cuts in proptest::collection::vec(0usize..100_000, 0..3),
    ) {
        let records: Vec<Vec<f32>> =
            (0..samples).map(|s| awkward(params, salt + 7 * s as u64)).collect();
        let mut want = vec![0.0f32; params];
        for record in &records {
            for (a, g) in want.iter_mut().zip(record) {
                *a += g;
            }
        }
        let got = folded(&DenseRecords(params), &records, &param_cuts, &sample_cuts);
        prop_assert_eq!(words(&got), words(&want));
    }

    /// AIT invariants: for unit-stride convolutions unfolding can only
    /// replicate the input (strided convolutions subsample, so `|U|` can
    /// shrink below `|I|`), and every AIT is positive.
    #[test]
    fn ait_ordering(spec in conv_spec()) {
        prop_assert!(spec.intrinsic_ait() > 0.0);
        prop_assert!(spec.unfold_ait() > 0.0);
        if spec.sy() == 1 && spec.sx() == 1 {
            prop_assert!(spec.unfold_blowup() >= 1.0);
        }
    }
}

/// `check_gradients` reads dense analytic gradients, which now exist only
/// as the fold of one sample's records: a fully-connected layer first
/// (its `x` is the image) and behind a conv stack (its `x` is pooled).
#[test]
fn gradients_check_out_through_the_record_expansion() {
    let mut rng = SmallRng::seed_from_u64(8);
    let mut fc_first = Network::new(vec![
        Box::new(FcLayer::new(12, 5, &mut rng)),
        Box::new(FcLayer::new(5, 3, &mut rng)),
    ])
    .unwrap();
    let input = Tensor::random_uniform(12, 1.0, &mut rng);
    let mismatches = check_gradients(&mut fc_first, &input, 2, 1e-2, 1e-2, 1);
    assert!(mismatches.is_empty(), "{mismatches:?}");

    let spec = ConvSpec::new(1, 8, 8, 3, 3, 3, 1, 1).unwrap();
    let out = spec.output_shape();
    let mut conv_stack = Network::new(vec![
        Box::new(ConvLayer::new(spec, &mut rng)),
        Box::new(ReluLayer::new(out.len())),
        Box::new(MaxPoolLayer::new(out, 2).unwrap()),
        Box::new(FcLayer::new(3 * 3 * 3, 2, &mut rng)),
    ])
    .unwrap();
    let input = Tensor::random_uniform(64, 1.0, &mut rng);
    // A perturbation small enough that no ReLU mask or pool argmax flips.
    let mismatches = check_gradients(&mut conv_stack, &input, 1, 1e-3, 5e-2, 1);
    assert!(mismatches.is_empty(), "{mismatches:?}");
}

/// Unfold+GEMM, counting the error-propagation calls it receives.
#[derive(Debug, Default)]
struct CountingExecutor {
    inner: UnfoldGemmExecutor,
    backward_data_calls: AtomicUsize,
}

impl ConvExecutor for CountingExecutor {
    fn name(&self) -> &str {
        "counting"
    }

    fn prepare(&self, spec: &ConvSpec, weights: &mut PreparedWeights) {
        self.inner.prepare(spec, weights);
    }

    fn forward(
        &self,
        spec: &ConvSpec,
        input: &[f32],
        weights: &PreparedWeights,
        output: &mut [f32],
        scratch: &mut ConvScratch,
    ) {
        self.inner.forward(spec, input, weights, output, scratch);
    }

    fn backward_data(
        &self,
        spec: &ConvSpec,
        weights: &PreparedWeights,
        grad_out: &[f32],
        grad_in: &mut [f32],
        scratch: &mut ConvScratch,
    ) {
        self.backward_data_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.backward_data(spec, weights, grad_out, grad_in, scratch);
    }

    fn backward_weights(
        &self,
        spec: &ConvSpec,
        input: &[f32],
        grad_out: &[f32],
        grad_weights: &mut [f32],
        scratch: &mut ConvScratch,
    ) {
        self.inner.backward_weights(spec, input, grad_out, grad_weights, scratch);
    }
}

/// Passes activations and gradients through: put first, it makes the conv
/// behind it layer 1, whose image-side gradient *is* read.
#[derive(Debug)]
struct Identity(usize);

impl Layer for Identity {
    fn name(&self) -> &str {
        "identity"
    }

    fn input_len(&self) -> usize {
        self.0
    }

    fn output_len(&self) -> usize {
        self.0
    }

    fn forward_block(&self, inputs: &[f32], outputs: &mut [f32], _scratch: &mut ConvScratch) {
        outputs.copy_from_slice(inputs);
    }

    fn backward_block(
        &self,
        _inputs: &[f32],
        _outputs: &[f32],
        grad_outs: &[f32],
        grad_ins: &mut [f32],
        _records: &mut [Tensor],
        _scratch: &mut ConvScratch,
    ) {
        grad_ins.copy_from_slice(grad_outs);
    }
}

/// Nothing reads the gradient with respect to the image, so a conv at
/// layer 0 is never asked for it; a later conv is asked once per sample;
/// and the losses are the same words whether or not it was computed.
#[test]
fn layer_zero_never_back_propagates_into_the_image() {
    const SAMPLES: usize = 8;
    const EPOCHS: usize = 2;
    let run = |behind_identity: bool, threads: usize| {
        let mut rng = SmallRng::seed_from_u64(9);
        let first = ConvSpec::new(1, 8, 8, 3, 3, 3, 1, 1).unwrap();
        let second = ConvSpec::new(3, 6, 6, 2, 3, 3, 1, 1).unwrap();
        let spies = [Arc::new(CountingExecutor::default()), Arc::new(CountingExecutor::default())];
        let convs = [first, second].map(|spec| ConvLayer::new(spec, &mut rng));
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        if behind_identity {
            layers.push(Box::new(Identity(64)));
        }
        for (mut conv, spy) in convs.into_iter().zip(&spies) {
            conv.set_backward_executor(spy.clone());
            let relu = ReluLayer::new(conv.output_len());
            layers.push(Box::new(conv));
            layers.push(Box::new(relu));
        }
        layers.push(Box::new(FcLayer::new(second.output_shape().len(), 3, &mut rng)));
        let mut net = Network::new(layers).unwrap();
        let mut data = Dataset::synthetic(Shape3::new(1, 8, 8), 3, SAMPLES, 0.15, 9);
        let config = TrainerConfig {
            epochs: EPOCHS,
            batch_size: 4,
            sample_threads: threads,
            ..TrainerConfig::default()
        };
        let losses: Vec<u64> = Trainer::new(config)
            .train(&mut net, &mut data)
            .iter()
            .map(|s| s.mean_loss.to_bits())
            .collect();
        (losses, spies.map(|spy| spy.backward_data_calls.load(Ordering::Relaxed)))
    };
    for threads in [1, 2] {
        let (skipped, calls) = run(false, threads);
        assert_eq!(calls, [0, SAMPLES * EPOCHS], "conv at layer 0, x{threads}");
        let (computed, calls) = run(true, threads);
        assert_eq!(calls, [SAMPLES * EPOCHS; 2], "conv behind an identity layer, x{threads}");
        assert_eq!(skipped, computed, "x{threads}");
    }
}
