//! Ownership of prepared weights: a `ConvLayer` keeps the permuted copies
//! its installed executors read, refreshed wherever weights or executors
//! change and nowhere else.
//!
//! * **Staleness.** After every way a layer's weights or executors can
//!   change, each conv layer's three phases are bit-equal to a
//!   `CompiledConv` freshly compiled from the layer's current parameters
//!   with the same plan — the layer never reads a copy of older weights.
//! * **Frequency.** The prepare hook runs once per install and once per
//!   applied batch, whatever the batch size or worker count, and always on
//!   the thread that owns the network — never on a pool worker.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;

use spg_cnn::check::{BackwardPlan, ForwardPlan};
use spg_cnn::codegen::KernelChoice;
use spg_cnn::convnet::data::Dataset;
use spg_cnn::convnet::exec::{ConvExecutor, PreparedWeights, UnfoldGemmExecutor};
use spg_cnn::convnet::workspace::ConvScratch;
use spg_cnn::convnet::{io, ConvSpec, Engine, EpochStats, Network, Trainer, TrainerConfig};
use spg_cnn::core::autotune::{Framework, TuningMode};
use spg_cnn::core::backend::{AlgoChoice, AlgoKernel};
use spg_cnn::core::compiled::CompiledConv;
use spg_cnn::core::config::NetworkDescription;
use spg_cnn::core::schedule::{LayerPlan, Technique};
use spg_cnn::tensor::{Shape3, Tensor};
use spg_cnn::workloads::networks::build_scaled;
use spg_cnn::workloads::table2::Benchmark;

const CORES: usize = 2;

fn pseudo(n: usize, salt: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let v = (i as u64).wrapping_mul(2862933555777941757).wrapping_add(salt);
            ((v >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

/// Asserts every conv layer of `net` runs all three phases to the same
/// bits as `compile(spec, current params)` for that layer, and returns the
/// lowered plans that were compared.
fn assert_fresh(
    net: &Network,
    when: &str,
    compile: impl Fn(usize, ConvSpec, &[f32]) -> CompiledConv,
) -> Vec<(ForwardPlan, BackwardPlan)> {
    let mut lowered = Vec::new();
    let mut scratch = ConvScratch::new();
    for (i, layer) in net.layers().iter().enumerate() {
        let Some(&spec) = layer.conv_spec() else { continue };
        let fresh = compile(i, spec, layer.params().expect("conv layers have parameters"));
        let at = format!("{when}: layer {i} ({})", fresh.plan());
        let (ilen, olen, wlen) =
            (spec.input_shape().len(), spec.output_shape().len(), spec.weight_shape().len());
        let input = pseudo(ilen, 3 * i as u64 + 1);
        // ~80 % zeros, so the sparse kernels skip and visit in one pass.
        let grad_out: Vec<f32> = pseudo(olen, 3 * i as u64 + 2)
            .into_iter()
            .enumerate()
            .map(|(j, v)| if j % 5 == 0 { v } else { 0.0 })
            .collect();

        let (mut out_a, mut out_b) = (vec![0f32; olen], vec![0f32; olen]);
        layer.forward(&input, &mut out_a, &mut scratch);
        fresh.forward_scratch(&input, &mut out_b, &mut scratch);
        assert_eq!(out_a, out_b, "{at}: forward");

        let (mut gin_a, mut gin_b) = (vec![0f32; ilen], vec![0f32; ilen]);
        let (mut gw_a, mut gw_b) = (Tensor::zeros(wlen), vec![0f32; wlen]);
        layer.backward(&input, &out_a, &grad_out, &mut gin_a, &mut gw_a, &mut scratch);
        fresh.backward_data_scratch(&grad_out, &mut gin_b, &mut scratch);
        fresh.backward_weights_scratch(&input, &grad_out, &mut gw_b, &mut scratch);
        assert_eq!(gin_a, gin_b, "{at}: backward data");
        assert_eq!(gw_a.as_slice(), &gw_b[..], "{at}: backward weights");

        let plan = fresh.program().plan();
        lowered.push((plan.forward.clone(), plan.backward));
    }
    lowered
}

/// Compiles layer `i` fresh against its entry in `plans`.
fn compile_planned(
    plans: &BTreeMap<usize, LayerPlan>,
) -> impl Fn(usize, ConvSpec, &[f32]) -> CompiledConv + '_ {
    |i, spec, w| CompiledConv::compile(spec, plans[&i], w, CORES).expect("planned layers compile")
}

#[test]
fn layer_phases_never_read_stale_prepared_weights() {
    let fw = Framework::new(CORES, TuningMode::Heuristic, 1);
    let mut net = build_scaled(Benchmark::Cifar10, 7).expect("built-in description");
    let mut plans: BTreeMap<usize, LayerPlan> =
        fw.plan_network(&mut net, 0.9).into_iter().collect();

    // The net exercises both permuted layouts: conv1's 3x3 output lowers
    // to the narrow stencil, and 90 % sparsity plans sparse backwards.
    let lowered = assert_fresh(&net, "planned", compile_planned(&plans));
    assert!(lowered.iter().any(|(f, _)| *f == ForwardPlan::StencilNarrow), "{lowered:?}");
    assert!(
        lowered.iter().any(|(_, b)| matches!(b, BackwardPlan::SparsePointerShift { .. })),
        "{lowered:?}"
    );

    for (i, layer) in net.layers_mut().iter_mut().enumerate() {
        if layer.param_count() > 0 {
            let grads = Tensor::from_vec(pseudo(layer.param_count(), 40 + i as u64));
            layer.apply_update(&grads, 0.05);
        }
    }
    assert_fresh(&net, "apply_update", compile_planned(&plans));

    for (i, layer) in net.layers_mut().iter_mut().enumerate() {
        if layer.param_count() > 0 {
            layer.set_params(&pseudo(layer.param_count(), 50 + i as u64));
        }
    }
    assert_fresh(&net, "set_params", compile_planned(&plans));

    let mut bytes = Vec::new();
    let donor = build_scaled(Benchmark::Cifar10, 99).expect("built-in description");
    io::save_weights(&donor, &mut bytes).expect("in-memory write");
    io::load_weights(&mut net, bytes.as_slice()).expect("same topology");
    assert_fresh(&net, "load_weights", compile_planned(&plans));

    // Retune re-plans only the backward slot, per layer, from the epoch's
    // measured sparsity: conv0 goes dense, conv1 stays sparse.
    let sparsity = [0.1, 0.95];
    let stats = EpochStats {
        epoch: 1,
        mean_loss: 1.0,
        accuracy: 0.5,
        conv_grad_sparsity: sparsity.to_vec(),
        images_per_sec: 1.0,
    };
    fw.retune(&mut net, &stats);
    let specs: Vec<ConvSpec> = net.layers().iter().filter_map(|l| l.conv_spec().copied()).collect();
    for ((plan, spec), s) in plans.values_mut().zip(&specs).zip(sparsity) {
        plan.backward = fw.plan_layer(spec, s).backward;
    }
    let lowered = assert_fresh(&net, "retune", compile_planned(&plans));
    assert!(matches!(lowered[0].1, BackwardPlan::UnfoldGemm { .. }), "{lowered:?}");
    assert!(matches!(lowered[1].1, BackwardPlan::SparsePointerShift { .. }), "{lowered:?}");

    // An explicit pin swaps both slots of conv0 — back from the dense
    // backward the retune left it with to a sparse one; conv1 keeps its plan.
    let pin = AlgoChoice {
        forward: Technique::StencilFp,
        backward: Technique::SparseBp,
        kernel: AlgoKernel::Generic,
    };
    let conv0 = *plans.keys().next().expect("two conv layers");
    let mut engine =
        Engine::builder().network(net).workers(CORES).build().expect("network supplied");
    engine.algo_override(conv0, pin).expect("the pinned plan installs");
    let compile_rest = compile_planned(&plans);
    assert_fresh(engine.network(), "algo_override", |i, spec, w| {
        if i == conv0 {
            CompiledConv::compile_with_kernel(spec, pin.plan(), w, CORES, KernelChoice::Generic)
                .expect("the pinned plan compiles")
        } else {
            compile_rest(i, spec, w)
        }
    });
}

/// Delegates to `UnfoldGemmExecutor`, counting `prepare` calls and those of
/// them that ran on a thread other than `home`.
#[derive(Debug)]
struct CountingExecutor {
    inner: UnfoldGemmExecutor,
    home: ThreadId,
    prepares: AtomicUsize,
    foreign: AtomicUsize,
}

impl ConvExecutor for CountingExecutor {
    fn name(&self) -> &str {
        "counting"
    }

    fn prepare(&self, _spec: &ConvSpec, _weights: &mut PreparedWeights) {
        self.prepares.fetch_add(1, Ordering::SeqCst);
        if std::thread::current().id() != self.home {
            self.foreign.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn forward(
        &self,
        spec: &ConvSpec,
        input: &[f32],
        weights: &PreparedWeights,
        output: &mut [f32],
        scratch: &mut ConvScratch,
    ) {
        self.inner.forward(spec, input, weights, output, scratch);
    }

    fn backward_data(
        &self,
        spec: &ConvSpec,
        weights: &PreparedWeights,
        grad_out: &[f32],
        grad_in: &mut [f32],
        scratch: &mut ConvScratch,
    ) {
        self.inner.backward_data(spec, weights, grad_out, grad_in, scratch);
    }

    fn backward_weights(
        &self,
        spec: &ConvSpec,
        input: &[f32],
        grad_out: &[f32],
        grad_weights: &mut [f32],
        scratch: &mut ConvScratch,
    ) {
        self.inner.backward_weights(spec, input, grad_out, grad_weights, scratch);
    }
}

#[test]
fn prepare_runs_once_per_install_and_once_per_applied_batch() {
    const NET: &str = r#"
        name: "counting"
        input { channels: 1 height: 8 width: 8 }
        conv  { features: 4 kernel: 3 }
        relu  { }
        fc    { outputs: 3 }
    "#;
    const SAMPLES: usize = 12;
    for sample_threads in [1, 2, 3] {
        for batch_size in [2, 5, SAMPLES] {
            let at = format!("{sample_threads} threads, batch {batch_size}");
            let mut net =
                NetworkDescription::parse(NET).expect("valid text").build(3).expect("valid net");
            let counting = Arc::new(CountingExecutor {
                inner: UnfoldGemmExecutor::default(),
                home: std::thread::current().id(),
                prepares: AtomicUsize::new(0),
                foreign: AtomicUsize::new(0),
            });
            let conv = net.layers_mut()[0].as_conv_mut().expect("layer 0 is conv");
            conv.set_forward_executor(counting.clone());
            assert_eq!(counting.prepares.load(Ordering::SeqCst), 1, "{at}: install");

            let epochs = 2;
            let config =
                TrainerConfig { epochs, batch_size, sample_threads, ..TrainerConfig::default() };
            let mut data = Dataset::synthetic(Shape3::new(1, 8, 8), 3, SAMPLES, 0.1, 5);
            Trainer::new(config).train(&mut net, &mut data);

            let batches = epochs * SAMPLES.div_ceil(batch_size);
            assert_eq!(counting.prepares.load(Ordering::SeqCst), 1 + batches, "{at}: batches");
            assert_eq!(counting.foreign.load(Ordering::SeqCst), 0, "{at}: off-thread prepares");
        }
    }
}
