//! Golden suite for the specialized-kernel registry (`spg-codegen`).
//!
//! The registry's contract is *bit-identity*: a specialized instance may
//! only ever be faster than the generic runtime-parameterized stencil,
//! never different. These tests enforce that contract over the full
//! Table 2 workload set, plus the two dispatch properties the serving and
//! training stacks rely on: unlisted shapes silently take the generic
//! path, and the autotuner records which kernel it deployed per layer.

use spg_cnn::check::{verify_conv_plan, BackwardPlan, ConvPlan, ForwardPlan, ScratchCapacity};
use spg_cnn::codegen::{all_instances, forward_tiled, lookup, KernelChoice, KernelKey};
use spg_cnn::convnet::workspace::ConvScratch;
use spg_cnn::convnet::ConvSpec;
use spg_cnn::core::autotune::Phase;
use spg_cnn::core::compiled::{CompiledConv, ConvProgram};
use spg_cnn::core::schedule::{LayerPlan, Technique};
use spg_cnn::core::stencil::plan_register_tile;
use spg_cnn::core::verify::lower_phase;
use spg_cnn::gemm::{detect_simd_level, SimdLevel};
use spg_cnn::workloads::synth::conv_operands;
use spg_cnn::workloads::table2;

/// The sequential stencil forward lowered for `spec` under `kernel`.
fn stencil(spec: &ConvSpec, kernel: KernelChoice) -> ConvProgram {
    lower_phase(spec, Technique::StencilFp, Phase::Forward, 1, kernel)
        .expect("stencil plan verifies")
}

/// Every registry instance the host can execute is bit-identical
/// (`assert_eq!`, not approximate) to the generic stencil kernel on every
/// Table 2 layer whose geometry it specializes. Exact equality holds
/// because the specialized bodies replicate the generic kernel's
/// per-output-element reduction order — channels, then `ky`, then `kx`,
/// single-rounded FMA throughout — and that chain is independent of the
/// lane width and the register tile (each output element is one lane of
/// one accumulator for its whole reduction).
#[test]
fn every_runnable_instance_bit_matches_generic_on_table2() {
    if detect_simd_level() < SimdLevel::Avx2Fma {
        eprintln!("skipping: host has no AVX2+FMA, registry never dispatches");
        return;
    }
    let level = detect_simd_level();
    let mut pairs = 0usize;
    for (bench, i, spec) in table2::all_layers() {
        let key = KernelKey::of(&spec);
        for inst in all_instances() {
            if inst.key() != key || inst.level() > level {
                continue;
            }
            // The instance's own tiled plan (the searched tile at its
            // lanes), proved: the only way to run an instance. Every Table
            // 2 row fits a tile of both widths.
            let searched = plan_register_tile(&spec, inst.lanes()).expect("a tile fits the row");
            let ops = conv_operands(&spec, 0.0, 0x77);
            let mut scratch = ConvScratch::new();
            let mut got = vec![0.0f32; spec.output_shape().len()];
            let mut want = vec![0.0f32; spec.output_shape().len()];
            let plan = ConvPlan {
                forward: ForwardPlan::StencilTiled { lanes: inst.lanes(), tile: searched.tile },
                backward: BackwardPlan::UnfoldGemm { threads: 1 },
            };
            let proved = verify_conv_plan(&spec, plan, &ScratchCapacity::reserved_for(&spec))
                .expect("instance plan verifies");
            let tiled = proved.tiled().expect("lowered tiled");
            let mut weights = spg_cnn::tensor::layout::Ckkf::default();
            weights.refresh(ops.weights.as_slice(), spec.weight_shape(), tiled.feature_block());
            forward_tiled(Some(inst), tiled, ops.input.as_slice(), &weights, &mut got, &scratch);
            let generic = stencil(&spec, KernelChoice::Generic);
            generic.forward(
                ops.input.as_slice(),
                &generic.prepared(ops.weights.as_slice()),
                &mut want,
                &mut scratch,
            );
            assert_eq!(
                got,
                want,
                "{} layer {i} ({spec}): {inst:?} diverged from the generic kernel",
                bench.label()
            );
            pairs += 1;
        }
    }
    // Every benchmark contributes at least one specializable layer, and
    // AVX-512 hosts exercise both ISAs per key.
    assert!(pairs >= 8, "suspiciously few instance/layer pairs compared: {pairs}");
}

/// A geometry outside the registry (4x4 kernel — no Table 2 layer uses
/// it) resolves to no instance, and both the executor and the compiled
/// layer silently run the generic path under `KernelChoice::Auto`.
#[test]
fn unlisted_shape_silently_takes_the_generic_path() {
    let spec = ConvSpec::new(4, 12, 12, 3, 4, 4, 1, 1).expect("valid spec");
    assert!(lookup(&spec).is_none(), "4x4 must not be a registry key");

    let ops = conv_operands(&spec, 0.0, 0x21);
    let mut scratch = ConvScratch::new();
    let mut auto_out = vec![0.0f32; spec.output_shape().len()];
    let mut generic_out = vec![0.0f32; spec.output_shape().len()];
    let (auto, generic) =
        (stencil(&spec, KernelChoice::Auto), stencil(&spec, KernelChoice::Generic));
    let weights = generic.prepared(ops.weights.as_slice());
    auto.forward(ops.input.as_slice(), &weights, &mut auto_out, &mut scratch);
    generic.forward(ops.input.as_slice(), &weights, &mut generic_out, &mut scratch);
    assert_eq!(auto_out, generic_out);

    let plan = LayerPlan { forward: Technique::StencilFp, backward: Technique::SparseBp };
    let compiled = CompiledConv::compile(spec, plan, ops.weights.as_slice(), 1)
        .expect("unlisted shape still compiles");
    assert_eq!(compiled.kernel_kind(), "generic");
    assert!(compiled.program().specialized_kernel().is_none());
}

/// A registry-listed geometry binds a specialized instance at compile
/// time on capable hosts, and pinning `KernelChoice::Generic` produces
/// bit-identical output — the autotuner's deploy path in both directions.
#[test]
fn compiled_layer_reports_its_kernel_and_choices_agree() {
    let spec = ConvSpec::square(24, 4, 3, 3, 1);
    let plan = LayerPlan { forward: Technique::StencilFp, backward: Technique::SparseBp };
    let ops = conv_operands(&spec, 0.0, 0x43);
    let auto = CompiledConv::compile(spec, plan, ops.weights.as_slice(), 1).expect("compiles");
    let pinned = CompiledConv::compile_with_kernel(
        spec,
        plan,
        ops.weights.as_slice(),
        1,
        KernelChoice::Generic,
    )
    .expect("compiles");
    assert_eq!(pinned.kernel_kind(), "generic");
    if detect_simd_level() >= SimdLevel::Avx2Fma && !spg_cnn::codegen::force_generic() {
        assert_eq!(auto.kernel_kind(), "specialized");
    }
    let mut scratch = ConvScratch::new();
    let mut a = vec![0.0f32; spec.output_shape().len()];
    let mut b = vec![0.0f32; spec.output_shape().len()];
    auto.forward_scratch(ops.input.as_slice(), &mut a, &mut scratch);
    pinned.forward_scratch(ops.input.as_slice(), &mut b, &mut scratch);
    assert_eq!(a, b);
}

/// The measured autotuner records which kernel the stencil candidate
/// bound in the telemetry decision log (schema minor 5): every forward
/// decision carries `kernel: specialized|generic`.
#[test]
fn autotuner_decision_log_records_kernel_per_layer() {
    spg_cnn::telemetry::set_enabled(true);
    let spec = ConvSpec::new(2, 20, 20, 3, 3, 3, 1, 1).expect("valid spec");
    {
        let _scope =
            spg_cnn::telemetry::scope("codegen-golden-tune", spg_cnn::telemetry::Phase::Tune);
        spg_cnn::core::autotune::tune_layer_forward(&spec, 1, 1);
    }
    let snap = spg_cnn::telemetry::snapshot();
    let mine: Vec<_> = snap.decisions.iter().filter(|d| d.label == "codegen-golden-tune").collect();
    assert!(!mine.is_empty(), "tuning logged a decision");
    for d in &mine {
        assert_eq!(d.kernel.as_deref(), Some(stencil(&spec, KernelChoice::Auto).kernel_kind()));
    }
}
