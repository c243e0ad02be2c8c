//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * **CT-CSR vs plain CSR** in sparse-dense multiply (the Sec. 4.2
//!   locality claim).
//! * **Pointer-shifting in-place sparse BP vs unfold-then-sparse-MM**
//!   (the Sec. 4.2 "compose as small dense MMs without unfolding" claim).
//! * **CT-CSR tile width sweep** for the sparse backward kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use spg_convnet::{unfold, ConvScratch, ConvSpec};
use spg_core::sparse::kernel as sparse;
use spg_gemm::{spmm_csr_dense, spmm_ctcsr_dense};
use spg_tensor::sparse::{Csr, CtCsr};
use spg_tensor::{layout, Matrix};
use spg_workloads::synth::conv_operands;

use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_ctcsr_vs_csr(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_ctcsr_vs_csr");
    group.sample_size(10);
    let mut rng = SmallRng::seed_from_u64(0x77);
    let sparse_a = Matrix::random_sparse(256, 1024, 0.9, 1.0, &mut rng);
    let dense_b = Matrix::random_uniform(1024, 128, 1.0, &mut rng);
    let csr = Csr::from_dense(&sparse_a);
    let tiled = CtCsr::from_dense(&sparse_a, 64).expect("positive width");
    group.throughput(Throughput::Elements(2 * csr.nnz() as u64 * 128));
    group.bench_function("spmm_csr", |bch| {
        bch.iter(|| spmm_csr_dense(&csr, &dense_b).expect("dims agree"));
    });
    group.bench_function("spmm_ctcsr_tile64", |bch| {
        bch.iter(|| spmm_ctcsr_dense(&tiled, &dense_b).expect("dims agree"));
    });
    group.finish();
}

/// The related-work alternative the paper argues against: unfold the
/// backward problem into an explicit sparse matrix multiply instead of
/// composing it in place by pointer shifting.
fn unfold_then_sparse_mm(spec: &ConvSpec, weights: &[f32], grad_out: &[f32], grad_in: &mut [f32]) {
    let patches = spec.out_h() * spec.out_w();
    let w_mat =
        Matrix::from_vec(spec.features(), spec.weight_shape().per_feature(), weights.to_vec())
            .expect("weight length matches spec");
    let eo = Matrix::from_vec(spec.features(), patches, grad_out.to_vec())
        .expect("gradient length matches spec");
    let eo_sparse = Csr::from_dense(&eo.transposed());
    let eu = spmm_csr_dense(&eo_sparse, &w_mat).expect("dims agree");
    unfold::fold(spec, &eu, grad_in);
}

fn bench_pointer_shifting(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_pointer_shifting");
    group.sample_size(10);
    let spec = ConvSpec::square(32, 32, 32, 4, 1);
    let ops = conv_operands(&spec, 0.9, 0x88);
    let mut grad_in = vec![0.0f32; spec.input_shape().len()];
    let mut scratch = ConvScratch::new();
    let w_kkfc = layout::fckk_to_kkfc(&ops.weights, spec.weight_shape()).expect("weights fit");
    group.throughput(Throughput::Elements(spec.arithmetic_ops()));
    group.bench_function("in_place_pointer_shifting", |bch| {
        bch.iter(|| {
            sparse::backward_data_scratch(
                &spec,
                w_kkfc.as_slice(),
                ops.grad_out.as_slice(),
                &mut grad_in,
                64,
                &mut scratch,
            )
        });
    });
    group.bench_function("unfold_then_sparse_mm", |bch| {
        bch.iter(|| {
            unfold_then_sparse_mm(
                &spec,
                ops.weights.as_slice(),
                ops.grad_out.as_slice(),
                &mut grad_in,
            )
        });
    });
    group.finish();
}

fn bench_tile_width_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_tile_width");
    group.sample_size(10);
    let spec = ConvSpec::square(32, 128, 32, 3, 1);
    let ops = conv_operands(&spec, 0.9, 0x99);
    let mut grad_in = vec![0.0f32; spec.input_shape().len()];
    let mut scratch = ConvScratch::new();
    let w_kkfc = layout::fckk_to_kkfc(&ops.weights, spec.weight_shape()).expect("weights fit");
    group.throughput(Throughput::Elements(spec.arithmetic_ops()));
    for tw in [8usize, 32, 64, 128] {
        group.bench_with_input(BenchmarkId::new("sparse_bp_tile", tw), &tw, |bch, &tw| {
            bch.iter(|| {
                sparse::backward_data_scratch(
                    &spec,
                    w_kkfc.as_slice(),
                    ops.grad_out.as_slice(),
                    &mut grad_in,
                    tw,
                    &mut scratch,
                )
            });
        });
    }
    group.finish();
}

/// Per-update vs per-sample ablation: the weight permutations run once per
/// SGD update (`set_weights`, what a layer's `apply_update` pays), the
/// kernels once per sample. CIFAR-10 L1 (4x4 outputs, narrow forward and
/// sparse backward) is where a per-sample permutation would cost the most:
/// it is several times either kernel call.
fn bench_update_amortization(c: &mut Criterion) {
    use spg_core::compiled::CompiledConv;
    use spg_core::schedule::{LayerPlan, Technique};

    let mut group = c.benchmark_group("ablation_per_update");
    group.sample_size(10);
    let spec = ConvSpec::square(8, 64, 64, 5, 1); // CIFAR-10 L1
    let ops = conv_operands(&spec, 0.9, 0xaa);
    let mut out = vec![0.0f32; spec.output_shape().len()];
    let mut grad_in = vec![0.0f32; spec.input_shape().len()];
    let mut scratch = ConvScratch::new();
    let plan = LayerPlan { forward: Technique::StencilFp, backward: Technique::SparseBp };
    let mut compiled =
        CompiledConv::compile(spec, plan, ops.weights.as_slice(), 1).expect("valid weights");

    group.bench_function("prepare_weights_per_update", |bch| {
        bch.iter(|| compiled.set_weights(ops.weights.as_slice()));
    });
    group.bench_function("stencil_fp_per_sample", |bch| {
        bch.iter(|| compiled.forward_scratch(ops.input.as_slice(), &mut out, &mut scratch));
    });
    group.bench_function("sparse_bp_per_sample", |bch| {
        bch.iter(|| {
            compiled.backward_data_scratch(ops.grad_out.as_slice(), &mut grad_in, &mut scratch)
        });
    });
    group.finish();
}

/// Partition-axis ablation (Sec. 3.2): row vs column partitioning of one
/// GEMM. On asymmetric shapes the replicated operand differs; on this
/// single-core host the comparison measures the dispatch and stitching
/// overhead of each axis, while the AIT consequences live in
/// `spg_core::ait` and the machine model.
fn bench_partition_axis(c: &mut Criterion) {
    use spg_gemm::{parallel_gemm, parallel_gemm_cols};
    use spg_workloads::synth::gemm_operands;

    let mut group = c.benchmark_group("ablation_partition_axis");
    group.sample_size(10);
    // Tall-skinny: row partitioning replicates the small B.
    let (a, b) = gemm_operands(512, 64, 128, 0xbb);
    group.throughput(Throughput::Elements(spg_gemm::gemm_flops(512, 64, 128)));
    group.bench_function("rows_tall_skinny", |bch| {
        bch.iter(|| parallel_gemm(&a, &b, 4).expect("dims agree"));
    });
    group.bench_function("cols_tall_skinny", |bch| {
        bch.iter(|| parallel_gemm_cols(&a, &b, 4).expect("dims agree"));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ctcsr_vs_csr,
    bench_pointer_shifting,
    bench_tile_width_sweep,
    bench_update_amortization,
    bench_partition_axis
);
criterion_main!(benches);
