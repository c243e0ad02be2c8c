//! Backward-propagation kernel benchmarks backing Figs. 4e / 4f and the
//! BP half of Fig. 8: dense Unfold+GEMM BP versus the CT-CSR
//! pointer-shifting sparse kernel across the sparsity sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use spg_convnet::{gemm_exec, ConvScratch, ConvSpec};
use spg_core::sparse::kernel as sparse;
use spg_core::sparse::DEFAULT_TILE_WIDTH;
use spg_tensor::layout;
use spg_workloads::synth::conv_operands;

fn bench_backward(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_backward");
    group.sample_size(10);
    let spec = ConvSpec::square(32, 32, 32, 4, 1); // shrunken Table 1 ID 0
    let mut grad_in = vec![0.0f32; spec.input_shape().len()];
    let mut grad_w = vec![0.0f32; spec.weight_shape().len()];
    let mut scratch = ConvScratch::new();
    group.throughput(Throughput::Elements(2 * spec.arithmetic_ops()));

    for sparsity in [0.5, 0.75, 0.9, 0.97] {
        let ops = conv_operands(&spec, sparsity, 0x44);
        let label = format!("s{:.2}", sparsity);
        group.bench_with_input(BenchmarkId::new("dense_bp", &label), &spec, |bch, spec| {
            bch.iter(|| {
                gemm_exec::backward_data_scratch(
                    spec,
                    ops.weights.as_slice(),
                    ops.grad_out.as_slice(),
                    &mut grad_in,
                    1,
                    &mut scratch,
                );
                gemm_exec::backward_weights_scratch(
                    spec,
                    ops.input.as_slice(),
                    ops.grad_out.as_slice(),
                    &mut grad_w,
                    1,
                    &mut scratch,
                );
            });
        });
        // Permuted once, as a layer permutes once per update.
        let w_kkfc = layout::fckk_to_kkfc(&ops.weights, spec.weight_shape()).expect("weights fit");
        group.bench_with_input(BenchmarkId::new("sparse_bp", &label), &spec, |bch, spec| {
            bch.iter(|| {
                sparse::backward_data_scratch(
                    spec,
                    w_kkfc.as_slice(),
                    ops.grad_out.as_slice(),
                    &mut grad_in,
                    DEFAULT_TILE_WIDTH,
                    &mut scratch,
                );
                sparse::backward_weights_scratch(
                    spec,
                    ops.input.as_slice(),
                    ops.grad_out.as_slice(),
                    &mut grad_w,
                    DEFAULT_TILE_WIDTH,
                    &mut scratch,
                );
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_backward);
criterion_main!(benches);
