//! Golden verification suite: every plan the scheduler or autotuner can pick
//! for the paper's Table 2 workloads must pass the static verifier clean.
//!
//! This is the acceptance gate for `spg-check` as a production gate: if any
//! real layer's real plan were rejected, `CompiledConv::compile` would refuse
//! it at deployment time, so this test failing means either a kernel regressed
//! or the verifier's lowering diverged from the executor dispatch.

use spg_cnn::codegen::KernelChoice;
use spg_cnn::core::autotune::{Framework, Phase, TuningMode};
use spg_cnn::core::schedule::{recommended_plan, Technique};
use spg_cnn::core::verify::{lower_phase, verify_plan, verify_technique};
use spg_cnn::workloads::table2::all_layers;

/// Every heuristic-recommended plan for every Table 2 layer, across the
/// sparsity range and core counts the scheduler branches on, verifies clean.
#[test]
fn every_recommended_table2_plan_verifies() {
    let mut proved = 0usize;
    for (bench, i, spec) in all_layers() {
        for sparsity in [0.0, 0.5, 0.95] {
            for cores in [1usize, 4, 16] {
                let plan = recommended_plan(&spec, sparsity, cores);
                let report = verify_plan(&spec, plan, cores).unwrap_or_else(|e| {
                    panic!("{} layer {i} ({spec}) plan {plan} rejected: {e}", bench.label())
                });
                assert!(report.accesses_proved > 0);
                proved += report.accesses_proved;
            }
        }
    }
    // 12 layers x 9 configurations, each proving dozens of ranges.
    assert!(proved > 12 * 9, "suspiciously few proved facts: {proved}");
}

/// Every candidate technique the autotuner would measure — not just the
/// winners — verifies on every Table 2 layer, so the measure-and-pick loop
/// never has its candidate pool narrowed by the safety gate on real layers.
#[test]
fn every_autotune_candidate_verifies_on_table2() {
    for (bench, i, spec) in all_layers() {
        for cores in [1usize, 16] {
            for &t in Technique::forward_candidates() {
                verify_technique(&spec, t, Phase::Forward, cores).unwrap_or_else(|e| {
                    panic!("{} layer {i}: forward {t} rejected: {e}", bench.label())
                });
            }
            for &t in Technique::backward_candidates(cores) {
                verify_technique(&spec, t, Phase::Backward, cores).unwrap_or_else(|e| {
                    panic!("{} layer {i}: backward {t} rejected: {e}", bench.label())
                });
            }
        }
    }
}

/// No two candidates of one contest lower to the same phase plan, on any
/// Table 2 layer at any core count: the contest never times one program
/// under two names, so it needs no rule for which name a tie logs.
#[test]
fn contest_candidates_never_share_a_plan() {
    for (bench, i, spec) in all_layers() {
        for cores in [1usize, 2, 8] {
            for (phase, candidates) in [
                (Phase::Forward, Technique::forward_candidates()),
                (Phase::Backward, Technique::backward_candidates(cores)),
            ] {
                let programs: Vec<_> = candidates
                    .iter()
                    .map(|&t| {
                        let lowered = lower_phase(&spec, t, phase, cores, KernelChoice::Auto);
                        (t, lowered.expect("candidates verify on Table 2"))
                    })
                    .collect();
                for (n, (a, pa)) in programs.iter().enumerate() {
                    for (b, pb) in &programs[n + 1..] {
                        let distinct = match phase {
                            Phase::Forward => pa.plan().forward != pb.plan().forward,
                            Phase::Backward => pa.plan().backward != pb.plan().backward,
                        };
                        assert!(
                            distinct,
                            "{} layer {i} x{cores} {phase:?}: {a} and {b} are one program",
                            bench.label()
                        );
                    }
                }
            }
        }
    }
}

/// A measured autotune pick on a real (small) layer passes back through the
/// verifier: exercises the tuner's verify-then-measure path end to end.
#[test]
fn measured_autotune_pick_verifies() {
    // MNIST's single conv layer: small enough to measure in-process.
    let (_, _, spec) = all_layers().into_iter().last().unwrap();
    let tuner = Framework::new(2, TuningMode::Measured { reps: 1 }, 1);
    let plan = tuner.plan_layer(&spec, 0.9);
    verify_plan(&spec, plan, 2).unwrap();
}
