//! Golden suite for algorithm pins (`spg_core::backend`).
//!
//! The contract is *bit-identity*: routing a layer through
//! `Backend::compile` — on the default path or with any [`AlgoChoice`] of
//! the contest's candidate space — may never change a single output bit
//! relative to `CompiledConv::compile`, and a pin installed on an engine
//! runs the program the compiled layer runs.
//!
//! Release builds sweep the full Table 2 geometry set (all 12 layers);
//! debug builds shrink each layer's spatial extent and channel/feature
//! counts (kernel and stride preserved) so the same 12 layer shapes stay
//! covered without the unoptimized kernels taking minutes per forward.

use spg_cnn::check::{verify_conv_plan, ScratchCapacity};
use spg_cnn::codegen::KernelChoice;
use spg_cnn::convnet::layer::{ConvLayer, Layer};
use spg_cnn::convnet::workspace::ConvScratch;
use spg_cnn::convnet::{ConvSpec, Engine, LayerAlgo, Network};
use spg_cnn::core::backend::{AlgoChoice, Backend, ConvDescriptor, CpuBackend};
use spg_cnn::core::compiled::CompiledConv;
use spg_cnn::core::config::NetworkDescription;
use spg_cnn::core::schedule::{recommended_plan, LayerPlan, Technique};
use spg_cnn::core::verify::lower;
use spg_cnn::tensor::Tensor;
use spg_cnn::workloads::synth::conv_operands;
use spg_cnn::workloads::table2;

/// The Table 2 layer geometries under test: full-size under release
/// optimization, proportionally shrunk (same kernel, stride, and square
/// shape; spatial side and channel/feature counts capped) in debug
/// builds, where one full-size ImageNet forward takes several seconds.
fn golden_specs() -> Vec<(String, ConvSpec)> {
    table2::all_layers()
        .into_iter()
        .map(|(bench, i, spec)| {
            let label = format!("{} layer {i}", bench.label());
            (label, if cfg!(debug_assertions) { table2::shrunk(&spec) } else { spec })
        })
        .collect()
}

/// Builds a single-conv network with the layer geometry of `spec` (all
/// Table 2 layers are square, so the text config can express them).
fn conv_network(spec: &ConvSpec) -> Network {
    let text = format!(
        "name: \"backend-golden\"\n\
         input {{ channels: {} height: {} width: {} }}\n\
         conv {{ features: {} kernel: {} stride: {} }}\n",
        spec.in_c(),
        spec.in_h(),
        spec.in_w(),
        spec.features(),
        spec.kx(),
        spec.sx()
    );
    NetworkDescription::parse(&text).expect("valid text").build(42).expect("valid net")
}

/// The contest's candidate space for `spec` at `cores`: every forward
/// candidate × every backward candidate, on the generic kernel and on the
/// one `KernelChoice::Auto` binds, kept where lowering succeeds.
fn candidates(spec: &ConvSpec, cores: usize) -> Vec<AlgoChoice> {
    let mut algos = Vec::new();
    for &forward in Technique::forward_candidates() {
        for &backward in Technique::backward_candidates(cores) {
            for kernel in [KernelChoice::Generic, KernelChoice::Auto] {
                let plan = LayerPlan { forward, backward };
                let Ok(program) = lower(spec, plan, cores, kernel) else { continue };
                let algo = AlgoChoice::of(&program);
                if !algos.contains(&algo) {
                    algos.push(algo);
                }
            }
        }
    }
    algos
}

/// The default path rerouted through the backend is bit-identical to the
/// pre-backend `CompiledConv::compile` on every Table 2 layer: same
/// kernel binding, same output bits.
#[test]
fn default_path_through_the_backend_is_bit_identical() {
    let backend = CpuBackend::new();
    for (label, spec) in golden_specs() {
        let desc = ConvDescriptor::new(spec, 1);
        let plan = recommended_plan(&spec, 0.0, 1);
        let ops = conv_operands(&spec, 0.0, 0x5a);
        let old = CompiledConv::compile(spec, plan, ops.weights.as_slice(), 1)
            .expect("direct compile succeeds");
        let algo = backend.algo_for(&desc, plan);
        let new =
            backend.compile(&desc, algo, ops.weights.as_slice()).expect("backend compile succeeds");
        assert_eq!(old.kernel_kind(), new.kernel_kind(), "{label}: kernel binding changed");
        let mut scratch = ConvScratch::new();
        let mut want = vec![0.0f32; spec.output_shape().len()];
        let mut got = vec![0.0f32; spec.output_shape().len()];
        old.forward_scratch(ops.input.as_slice(), &mut want, &mut scratch);
        new.forward_scratch(ops.input.as_slice(), &mut got, &mut scratch);
        assert_eq!(got, want, "{label}: backend default path diverged");
    }
}

/// `Engine::algo_override` with each candidate algorithm produces the
/// same output bits as compiling that algorithm through the backend
/// directly — the executor-install path and the compiled-kernel path
/// agree for the whole candidate space on every Table 2 layer.
#[test]
fn algo_override_matches_backend_compile_for_every_enumerated_algo() {
    let backend = CpuBackend::new();
    let mut compared = 0usize;
    for (label, spec) in golden_specs() {
        let desc = ConvDescriptor::new(spec, 1);
        let ops = conv_operands(&spec, 0.0, 0x33);
        let mut engine =
            Engine::builder().network(conv_network(&spec)).build().expect("engine builds");
        let weights = engine.network().layers()[0].params().expect("conv has weights").to_vec();
        for algo in candidates(&spec, 1) {
            let compiled = backend.compile(&desc, algo, &weights).expect("candidates compile");
            let mut scratch = ConvScratch::new();
            let mut want = vec![0.0f32; spec.output_shape().len()];
            compiled.forward_scratch(ops.input.as_slice(), &mut want, &mut scratch);

            engine.algo_override(0, algo).expect("candidates install");
            let got = engine.forward(ops.input.as_slice()).expect("forward succeeds");
            assert_eq!(got.as_slice(), &want[..], "{label}: {algo} override diverged");
            compared += 1;
        }
    }
    assert!(compared >= 12, "suspiciously few (layer, algo) pairs compared: {compared}");
}

/// The two entry points are one program. For every candidate algorithm
/// on the shrunk Table 2 layers — plus two layers wide enough to lower to
/// the tiled, instance-bound and banded plans the 4-wide shrunk outputs
/// never reach — at 1 and 2 cores, the executor `install` puts on a
/// `ConvLayer` (training, `Engine::forward`) and the `CompiledConv` from
/// `Backend::compile` (serving) produce the same bits in all three phases,
/// and both run the plan `spg-check` verified.
#[test]
fn installed_executor_and_compiled_conv_are_one_program() {
    let backend = CpuBackend::new();
    let mut specs: Vec<(String, ConvSpec)> = table2::all_layers()
        .into_iter()
        .map(|(bench, i, spec)| (format!("{} layer {i}", bench.label()), table2::shrunk(&spec)))
        .collect();
    specs.push(("wide 3x3".into(), ConvSpec::square(34, 6, 3, 3, 1)));
    specs.push(("wide strided 7x7".into(), ConvSpec::square(69, 4, 3, 7, 2)));
    let mut compared = 0usize;
    for (label, spec) in specs {
        let ops = conv_operands(&spec, 0.8, 0x13);
        let (input, grad_out) = (ops.input.as_slice(), ops.grad_out.as_slice());
        let (olen, ilen, wlen) =
            (spec.output_shape().len(), spec.input_shape().len(), spec.weight_shape().len());
        for cores in [1, 2] {
            let desc = ConvDescriptor::new(spec, cores);
            for algo in candidates(&spec, cores) {
                let at = format!("{label} x{cores} {algo}");
                let mut conv = ConvLayer::with_weights(spec, ops.weights.clone()).expect("weights");
                algo.install(&mut conv, cores).expect("candidates install");
                let compiled = backend
                    .compile(&desc, algo, ops.weights.as_slice())
                    .expect("candidates compile");

                // install() runs exactly algo.lower()'s program.
                let installed = algo.lower(&spec, cores).expect("candidates lower");
                assert_eq!(installed.plan(), compiled.program().plan(), "{at}: plans differ");
                assert_eq!(
                    installed.specialized_kernel().map(|k| k.isa()),
                    compiled.specialized_kernel().map(|k| k.isa()),
                    "{at}: kernel bindings differ"
                );
                let proved = verify_conv_plan(
                    &spec,
                    installed.plan().clone(),
                    &ScratchCapacity::reserved_for(&spec),
                )
                .expect("the reported plan is the verified one");
                assert_eq!(proved.plan(), compiled.program().plan(), "{at}");

                let mut scratch = ConvScratch::new();
                let (mut out_a, mut out_b) = (vec![0f32; olen], vec![0f32; olen]);
                conv.forward(input, &mut out_a, &mut scratch);
                compiled.forward_scratch(input, &mut out_b, &mut scratch);
                assert_eq!(out_a, out_b, "{at}: forward");

                let (mut gin_a, mut gin_b) = (vec![0f32; ilen], vec![0f32; ilen]);
                let (mut gw_a, mut gw_b) = (Tensor::zeros(wlen), vec![0f32; wlen]);
                conv.backward(input, &out_a, grad_out, &mut gin_a, &mut gw_a, &mut scratch);
                compiled.backward_data_scratch(grad_out, &mut gin_b, &mut scratch);
                compiled.backward_weights_scratch(input, grad_out, &mut gw_b, &mut scratch);
                assert_eq!(gin_a, gin_b, "{at}: backward data");
                assert_eq!(gw_a.as_slice(), &gw_b[..], "{at}: backward weights");
                compared += 1;
            }
        }
    }
    // Two forward names, and two backward names at one core, three at two.
    assert!(compared >= 14 * (2 * 2 + 2 * 3), "only {compared} (layer, cores, algo) compared");
}
