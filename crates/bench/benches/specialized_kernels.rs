//! Specialized-vs-generic stencil kernel benchmarks over the Table 2
//! layers the `spg-codegen` registry covers.
//!
//! The CI perf gate runs the self-contained `spgcnn bench-kernels`
//! harness (median-of-5, pinned iteration counts) and diffs against the
//! committed `BENCH_kernels.json`; this criterion bench is the
//! interactive companion for kernel work — run
//! `cargo bench --bench specialized_kernels` to get criterion's full
//! statistics on the same layer set.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use spg_codegen::KernelChoice;
use spg_convnet::workspace::ConvScratch;
use spg_core::autotune::Phase;
use spg_core::schedule::Technique;
use spg_core::verify::lower_phase;
use spg_workloads::synth::conv_operands;
use spg_workloads::table2;

fn bench_specialized(c: &mut Criterion) {
    let mut group = c.benchmark_group("specialized_kernels");
    group.sample_size(10);
    for (benchmark, layer, spec) in table2::all_layers() {
        let lowered = |kernel| {
            lower_phase(&spec, Technique::StencilFp, Phase::Forward, 1, kernel)
                .unwrap_or_else(|e| panic!("stencil plan for {spec}: {e}"))
        };
        let (auto, generic) = (lowered(KernelChoice::Auto), lowered(KernelChoice::Generic));
        // Only layers lowering binds an instance to on this host are
        // interesting as a pair; the gate's JSON harness reports the rest.
        if auto.specialized_kernel().is_none() {
            continue;
        }
        let name = format!("{}_l{layer}", benchmark.label().replace(' ', "_").to_lowercase());
        let ops = conv_operands(&spec, 0.0, 0x5a);
        let mut out = vec![0.0f32; spec.output_shape().len()];
        let mut scratch = ConvScratch::default();
        let weights = generic.prepared(ops.weights.as_slice());
        group.throughput(Throughput::Elements(spec.arithmetic_ops()));
        group.bench_with_input(BenchmarkId::new("specialized", &name), &spec, |bch, _| {
            bch.iter(|| auto.forward(ops.input.as_slice(), &weights, &mut out, &mut scratch));
        });
        group.bench_with_input(BenchmarkId::new("generic", &name), &spec, |bch, _| {
            bch.iter(|| generic.forward(ops.input.as_slice(), &weights, &mut out, &mut scratch));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_specialized);
criterion_main!(benches);
