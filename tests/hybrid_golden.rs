//! Golden hybrid-parallelism suite: the intra-sample split the stencil is
//! lowered with at 8 workers on the paper's Table 2 layers — output rows,
//! or output features where a layer has no rows to split — must (a) prove
//! safe through `spg-check`'s banded plan IR, and (b) produce output
//! bit-identical to the sequential stencil kernel — the invariant that lets
//! a starved call spend its idle cores inside the sample without perturbing
//! training numerics.
//!
//! Bit-identity here is `assert_eq!` on the raw f32 bits, not a tolerance:
//! every band is a range of the sequential kernel's own loop nest over the
//! same tensors — generic loops or bound `spg-codegen` instance — with the
//! same `(channel, ky, kx)` FMA chain order, so any difference at all is a
//! bug.

use spg_cnn::check::{ForwardPlan, VECTOR_WIDTH};
use spg_cnn::codegen::KernelChoice;
use spg_cnn::convnet::workspace::ConvScratch;
use spg_cnn::convnet::ConvSpec;
use spg_cnn::core::autotune::Phase;
use spg_cnn::core::compiled::ConvProgram;
use spg_cnn::core::schedule::Technique;
use spg_cnn::core::verify::lower_phase;
use spg_cnn::workloads::table2::all_layers;

/// The worker count of the issue's strong-scaling sweep: more workers than
/// any single-sample batch can feed, so sample parallelism starves.
const WORKERS: usize = 8;

/// The stencil lowered for `spec` at `cores` cores, proved.
fn stencil(spec: &ConvSpec, cores: usize, kernel: KernelChoice) -> ConvProgram {
    lower_phase(spec, Technique::StencilFp, Phase::Forward, cores, kernel)
        .expect("stencil plan verifies")
}

/// How many bands `program`'s forward plan splits the layer into.
fn bands(program: &ConvProgram) -> usize {
    match &program.plan().forward {
        ForwardPlan::StencilBanded { bands, .. } => bands.len(),
        _ => 1,
    }
}

fn pseudo(n: usize, salt: usize) -> Vec<f32> {
    (0..n).map(|i| (((i * 31 + salt * 17) % 23) as f32 - 11.0) / 7.0).collect()
}

/// The stencil at 8 workers proves safe on every Table 2 layer, and on
/// every layer with rows at least a vector wide — all but CIFAR-10 L1's
/// 4x4 output, too small a layer for a fork to pay — the proved plan is a
/// split with a region per band: the split exists for these real layers,
/// not a lucky shape.
#[test]
fn every_hybrid_candidate_verifies_on_table2() {
    let mut splittable = 0usize;
    for (bench, i, spec) in all_layers() {
        let program = stencil(&spec, WORKERS, KernelChoice::Generic);
        let bands = bands(&program);
        if spec.out_w() < VECTOR_WIDTH {
            assert!(matches!(program.plan().forward, ForwardPlan::StencilTiled { .. }));
            continue;
        }
        assert!(bands >= 2, "{} layer {i}: {bands} band(s)", bench.label());
        assert!(
            program.report().worker_regions >= bands,
            "{} layer {i}: proved {} regions for {bands} bands",
            bench.label(),
            program.report().worker_regions
        );
        splittable += 1;
    }
    assert!(splittable >= 11, "only {splittable}/12 layers splittable");
}

/// Banded execution is bit-identical to the sequential stencil kernel on
/// the real Table 2 layers at 8 workers.
///
/// Debug builds skip layers past an arithmetic budget — the unoptimized
/// kernel is two orders slower and the heaviest layers would dominate the
/// tier-1 suite — while `cargo test --release` covers all twelve.
#[test]
fn hybrid_outputs_bit_identical_on_table2() {
    let budget: u64 = if cfg!(debug_assertions) { 700_000_000 } else { u64::MAX };
    let mut checked = 0usize;
    for (bench, i, spec) in all_layers() {
        if spec.arithmetic_ops() > budget {
            continue;
        }
        let input = pseudo(spec.input_shape().len(), 3 * i + 1);
        let weights = pseudo(spec.weight_shape().len(), 5 * i + 2);
        let mut oracle = vec![0f32; spec.output_shape().len()];
        let sequential = stencil(&spec, 1, KernelChoice::Generic);
        let prepared = sequential.prepared(&weights);
        sequential.forward(&input, &prepared, &mut oracle, &mut ConvScratch::new());
        // The bound registry instance where the host has one (the generic
        // loops again under SPG_FORCE_GENERIC=1), then the generic loops
        // pinned.
        for kernel in [KernelChoice::Auto, KernelChoice::Generic] {
            let exec = stencil(&spec, WORKERS, kernel);
            if bands(&exec) <= 1 {
                continue;
            }
            let prepared = exec.prepared(&weights);
            // Every band on a thread of its own, then three threads
            // running runs of neighbouring bands.
            for cores in [WORKERS, 3] {
                let mut banded = vec![0f32; spec.output_shape().len()];
                let mut scratch = ConvScratch::with_cores(cores);
                exec.forward(&input, &prepared, &mut banded, &mut scratch);
                assert_eq!(
                    oracle,
                    banded,
                    "{} layer {i} {kernel:?} on {cores} cores not bit-identical",
                    bench.label()
                );
            }
            checked += 1;
        }
    }
    // Both marquee large-image layers (ImageNet-22K L0, ImageNet-1K L0)
    // sit under the debug budget, so even the debug run covers them.
    assert!(checked >= 15, "only {checked} hybrid configurations checked");
}
