//! Forward-propagation kernel benchmarks backing Figs. 4c / 4d and the FP
//! half of Fig. 8: Unfold+GEMM versus the stencil kernel on the
//! small-convolution layers where the paper deploys the stencil
//! (MNIST L0, CIFAR-10 L1), and on a shrunken Table 1 ID 5 geometry.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use spg_codegen::KernelChoice;
use spg_convnet::{gemm_exec, ConvScratch, ConvSpec};
use spg_core::autotune::Phase;
use spg_core::schedule::Technique;
use spg_core::verify::lower_phase;
use spg_workloads::synth::conv_operands;

fn cases() -> Vec<(&'static str, ConvSpec)> {
    vec![
        ("mnist_l0", ConvSpec::square(28, 20, 1, 5, 1)),
        ("cifar_l1", ConvSpec::square(8, 64, 64, 5, 1)),
        ("id5_shrunk", ConvSpec::square(32, 64, 16, 11, 1)),
        ("alexnet_l0_shrunk_strided", ConvSpec::square(56, 32, 3, 11, 4)),
    ]
}

fn bench_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_forward");
    group.sample_size(10);
    for (name, spec) in cases() {
        let ops = conv_operands(&spec, 0.0, 0x33);
        let mut out = vec![0.0f32; spec.output_shape().len()];
        let mut scratch = ConvScratch::new();
        group.throughput(Throughput::Elements(spec.arithmetic_ops()));
        group.bench_with_input(BenchmarkId::new("unfold_gemm", name), &spec, |bch, spec| {
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
        group.bench_with_input(BenchmarkId::new("stencil", name), &spec, |bch, _| {
            bch.iter(|| stencil.forward(ops.input.as_slice(), &weights, &mut out, &mut scratch));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_forward);
criterion_main!(benches);
