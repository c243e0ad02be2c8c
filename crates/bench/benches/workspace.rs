//! Allocation-path versus workspace-path benchmarks.
//!
//! Every conv kernel runs out of a caller-owned [`ConvScratch`]. The
//! `alloc` rows hand each call a fresh `ConvScratch::new()` (paying buffer
//! allocation and zeroing on every sample); the `workspace` rows reuse one
//! warmed scratch — the allocation-free steady state the training loop
//! runs in after warm-up. The gap between the two is the per-sample heap
//! cost the workspace design removes; it is what keeps per-core
//! arithmetic intensity at the kernel's own level instead of diluting it
//! with allocator traffic.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use spg_codegen::KernelChoice;
use spg_convnet::{gemm_exec, ConvScratch, ConvSpec};
use spg_core::autotune::Phase;
use spg_core::schedule::Technique;
use spg_core::sparse::kernel as sparse;
use spg_core::sparse::DEFAULT_TILE_WIDTH;
use spg_core::verify::lower_phase;
use spg_tensor::layout;
use spg_workloads::synth::conv_operands;

fn bench_forward_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("workspace_forward");
    group.sample_size(10);
    for (name, spec) in [
        ("cifar_l1", ConvSpec::square(8, 64, 64, 5, 1)),
        ("id0_shrunk", ConvSpec::square(32, 32, 32, 4, 1)),
    ] {
        let ops = conv_operands(&spec, 0.0, 0x55);
        let mut out = vec![0.0f32; spec.output_shape().len()];
        group.throughput(Throughput::Elements(spec.arithmetic_ops()));

        group.bench_with_input(BenchmarkId::new("unfold_alloc", name), &spec, |bch, spec| {
            bch.iter(|| {
                gemm_exec::forward_scratch(
                    spec,
                    ops.input.as_slice(),
                    ops.weights.as_slice(),
                    &mut out,
                    1,
                    &mut ConvScratch::new(),
                )
            });
        });
        let mut scratch = ConvScratch::new();
        group.bench_with_input(BenchmarkId::new("unfold_workspace", name), &spec, |bch, spec| {
            bch.iter(|| {
                gemm_exec::forward_scratch(
                    spec,
                    ops.input.as_slice(),
                    ops.weights.as_slice(),
                    &mut out,
                    1,
                    &mut scratch,
                )
            });
        });

        let stencil =
            lower_phase(&spec, Technique::StencilFp, Phase::Forward, 1, KernelChoice::Generic)
                .unwrap_or_else(|e| panic!("stencil plan for {spec}: {e}"));
        let weights = stencil.prepared(ops.weights.as_slice());
        group.bench_with_input(BenchmarkId::new("stencil_alloc", name), &spec, |bch, _| {
            bch.iter(|| {
                stencil.forward(ops.input.as_slice(), &weights, &mut out, &mut ConvScratch::new())
            });
        });
        let mut scratch = ConvScratch::new();
        group.bench_with_input(BenchmarkId::new("stencil_workspace", name), &spec, |bch, _| {
            bch.iter(|| stencil.forward(ops.input.as_slice(), &weights, &mut out, &mut scratch));
        });
    }
    group.finish();
}

fn bench_backward_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("workspace_backward");
    group.sample_size(10);
    let spec = ConvSpec::square(32, 32, 32, 4, 1); // shrunken Table 1 ID 0
    let ops = conv_operands(&spec, 0.9, 0x66);
    let mut grad_in = vec![0.0f32; spec.input_shape().len()];
    let mut grad_w = vec![0.0f32; spec.weight_shape().len()];
    group.throughput(Throughput::Elements(2 * spec.arithmetic_ops()));

    group.bench_with_input(BenchmarkId::new("dense_bp", "alloc"), &spec, |bch, spec| {
        bch.iter(|| {
            gemm_exec::backward_data_scratch(
                spec,
                ops.weights.as_slice(),
                ops.grad_out.as_slice(),
                &mut grad_in,
                1,
                &mut ConvScratch::new(),
            );
            gemm_exec::backward_weights_scratch(
                spec,
                ops.input.as_slice(),
                ops.grad_out.as_slice(),
                &mut grad_w,
                1,
                &mut ConvScratch::new(),
            );
        });
    });
    let mut scratch = ConvScratch::new();
    group.bench_with_input(BenchmarkId::new("dense_bp", "workspace"), &spec, |bch, spec| {
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
    group.bench_with_input(BenchmarkId::new("sparse_bp", "alloc"), &spec, |bch, spec| {
        bch.iter(|| {
            sparse::backward_data_scratch(
                spec,
                w_kkfc.as_slice(),
                ops.grad_out.as_slice(),
                &mut grad_in,
                DEFAULT_TILE_WIDTH,
                &mut ConvScratch::new(),
            );
            sparse::backward_weights_scratch(
                spec,
                ops.input.as_slice(),
                ops.grad_out.as_slice(),
                &mut grad_w,
                DEFAULT_TILE_WIDTH,
                &mut ConvScratch::new(),
            );
        });
    });
    let mut scratch = ConvScratch::new();
    group.bench_with_input(BenchmarkId::new("sparse_bp", "workspace"), &spec, |bch, spec| {
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
    group.finish();
}

criterion_group!(benches, bench_forward_paths, bench_backward_paths);
criterion_main!(benches);
