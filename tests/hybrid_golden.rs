//! Golden hybrid-parallelism suite: every {y-band, out-channel}
//! decomposition the autotuner can race on the paper's Table 2 layers must
//! (a) prove safe through `spg-check`'s banded plan IR at the worker count
//! it would run with, and (b) produce output bit-identical to the
//! sequential stencil kernel — the invariant that lets the tuner swap a
//! hybrid in for sample parallelism without perturbing training numerics.
//!
//! Bit-identity here is `assert_eq!` on the raw f32 bits, not a tolerance:
//! every band is a range of the sequential kernel's own loop nest over the
//! same tensors — generic loops or bound `spg-codegen` instance — with the
//! same `(channel, ky, kx)` FMA chain order, so any difference at all is a
//! bug.

use spg_cnn::check::BandDim;
use spg_cnn::codegen::KernelChoice;
use spg_cnn::convnet::workspace::ConvScratch;
use spg_cnn::core::autotune::Phase;
use spg_cnn::core::hybrid::band_ranges;
use spg_cnn::core::schedule::Technique;
use spg_cnn::core::verify::{lower_phase, verify_technique};
use spg_cnn::workloads::table2::all_layers;

/// The worker count of the issue's strong-scaling sweep: more workers than
/// any single-sample batch can feed, so sample parallelism starves.
const WORKERS: usize = 8;

fn hybrids() -> [(Technique, BandDim); 2] {
    [
        (Technique::StencilYBand, BandDim::YRows),
        (Technique::StencilOutChannel, BandDim::OutChannels),
    ]
}

fn pseudo(n: usize, salt: usize) -> Vec<f32> {
    (0..n).map(|i| (((i * 31 + salt * 17) % 23) as f32 - 11.0) / 7.0).collect()
}

/// Every hybrid candidate on every Table 2 layer either proves safe at 8
/// workers or has no decomposition (a single band) and is rejected —
/// nothing in between. Most of the 24 (layer, dimension) pairs must split:
/// the hybrids exist precisely for these real layers, not a lucky shape.
#[test]
fn every_hybrid_candidate_verifies_on_table2() {
    let mut splittable = 0usize;
    for (bench, i, spec) in all_layers() {
        for (t, dim) in hybrids() {
            let bands = band_ranges(&spec, dim, WORKERS).len();
            match verify_technique(&spec, t, Phase::Forward, WORKERS) {
                Ok(report) => {
                    assert!(
                        bands >= 2,
                        "{} layer {i}: {t} verified with {bands} band(s)",
                        bench.label()
                    );
                    assert!(
                        report.worker_regions >= bands,
                        "{} layer {i}: {t} proved {} regions for {bands} bands",
                        bench.label(),
                        report.worker_regions
                    );
                    splittable += 1;
                }
                Err(e) => assert!(
                    bands <= 1,
                    "{} layer {i}: {t} rejected despite {bands} bands: {e}",
                    bench.label()
                ),
            }
        }
    }
    // y-band and out-channel splits are available on every layer wide
    // enough for the tiled kernel: all but CIFAR-10 L1's 4x4 output.
    assert!(splittable >= 22, "only {splittable}/24 hybrid candidates splittable");
}

/// Banded execution is bit-identical to the sequential stencil kernel on
/// the real Table 2 layers, for every splittable dimension at 8 workers.
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
        let sequential =
            lower_phase(&spec, Technique::StencilFp, Phase::Forward, 1, KernelChoice::Generic)
                .expect("stencil plan verifies");
        let prepared = sequential.prepared(&weights);
        sequential.forward(&input, &prepared, &mut oracle, &mut ConvScratch::new());
        for (t, dim) in hybrids() {
            if band_ranges(&spec, dim, WORKERS).len() <= 1 {
                continue;
            }
            // The bound registry instance where the host has one (the
            // generic loops again under SPG_FORCE_GENERIC=1), then the
            // generic loops pinned.
            for kernel in [KernelChoice::Auto, KernelChoice::Generic] {
                let exec = lower_phase(&spec, t, Phase::Forward, WORKERS, kernel)
                    .expect("splittable layer verifies");
                let prepared = exec.prepared(&weights);
                // Every band on a thread of its own, then three threads
                // running runs of neighbouring bands.
                for cores in [WORKERS, 3] {
                    let mut banded = vec![0f32; spec.output_shape().len()];
                    let mut scratch = ConvScratch { cores, ..ConvScratch::new() };
                    exec.forward(&input, &prepared, &mut banded, &mut scratch);
                    assert_eq!(
                        oracle,
                        banded,
                        "{} layer {i} {dim:?} {kernel:?} on {cores} cores not bit-identical",
                        bench.label()
                    );
                }
            }
            checked += 1;
        }
    }
    // Both marquee large-image layers (ImageNet-22K L0, ImageNet-1K L0)
    // sit under the debug budget, so even the debug run covers them.
    assert!(checked >= 15, "only {checked} hybrid configurations checked");
}
