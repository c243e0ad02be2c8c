//! A walk that owns one core forks nothing, whatever its plans could
//! split: a trainer's sample thread and a serving worker run a band plan
//! as the sequential stencil it splits, and a GEMM plan's row bands —
//! forward and backward — as one serial GEMM, on their own thread. The
//! only forks of a training run are the trainer's own: one thread per
//! sample thread but the first, per batch. (Before the core budget each
//! of the trainer's P sample workers forked P band threads for a layer
//! whose plan was banded, and later still P GEMM threads for a layer
//! whose backward was Parallel-GEMM.)
//!
//! A one-rank ring at one sample thread forks nothing at all.
//!
//! The tests read deltas of `fork_join_spawns`, a process-wide count, so
//! they take turns.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use spg_cnn::check::BackwardPlan;
use spg_cnn::cluster::{train_in_proc, InProcTrainOptions};
use spg_cnn::codegen::KernelChoice;
use spg_cnn::convnet::data::Dataset;
use spg_cnn::convnet::layer::{ConvLayer, Layer, MaxPoolLayer, ReluLayer};
use spg_cnn::convnet::unfold::{fold_rows, stages_tap_rows};
use spg_cnn::convnet::workspace::ConvScratch;
use spg_cnn::convnet::{ConvSpec, Engine, LayerAlgo, TrainerConfig};
use spg_cnn::core::autotune::{Framework, TuningMode};
use spg_cnn::core::backend::AlgoChoice;
use spg_cnn::core::compiled::CompiledConv;
use spg_cnn::core::config::NetworkDescription;
use spg_cnn::core::schedule::{LayerPlan, Technique};
use spg_cnn::core::verify::lower;
use spg_cnn::serve::{ServeConfig, Server};
use spg_cnn::sync::fork_join_spawns;
use spg_cnn::tensor::{Shape3, Tensor};

static SPAWN_COUNT: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    SPAWN_COUNT.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One conv wide enough to band (18x18 output), then a classifier.
const NET: &str = r#"
    name: "bandable"
    input { channels: 2 height: 20 width: 20 }
    conv  { features: 6 kernel: 3 }
    relu  { }
    pool  { window: 2 }
    fc    { outputs: 4 }
"#;

const WORKERS: usize = 2;

/// An algorithm pinned at a core count of its own, whatever the engine's.
struct LoweredAt(AlgoChoice, usize);

impl LayerAlgo for LoweredAt {
    fn id(&self) -> String {
        self.0.id()
    }

    fn install(&self, conv: &mut ConvLayer, _cores: usize) -> Result<(), spg_cnn::error::Error> {
        self.0.install(conv, self.1)
    }
}

/// The stencil forward, the GEMM backward.
const STENCIL: LayerPlan =
    LayerPlan { forward: Technique::StencilFp, backward: Technique::GemmInParallel };

/// The GEMM in both phases.
const GEMM: LayerPlan =
    LayerPlan { forward: Technique::GemmInParallel, backward: Technique::GemmInParallel };

/// The engine with its conv pinned to `plan` lowered at `cores`.
fn pinned(plan: LayerPlan, cores: usize) -> Engine {
    let desc = NetworkDescription::parse(NET).expect("description parses");
    let net = desc.build(23).expect("description builds");
    let spec = *net.layers()[0].conv_spec().expect("layer 0 is the conv");
    let mut engine = Engine::builder()
        .network(net)
        .workers(WORKERS)
        .trainer(TrainerConfig {
            epochs: 2,
            batch_size: 4,
            sample_threads: WORKERS,
            ..TrainerConfig::default()
        })
        .build()
        .expect("engine builds");
    let program = lower(&spec, plan, cores, KernelChoice::Auto).expect("the plan verifies");
    // Every GEMM backward carries the row bands of the cores it was
    // lowered at.
    assert_eq!(program.plan().backward, BackwardPlan::UnfoldGemm { threads: cores });
    let algo = AlgoChoice::of(&program);
    engine.algo_override(0, LoweredAt(algo, cores)).expect("the plan verifies");
    engine
}

/// Batches of a [`train`] run: 16 samples at batch 4, two epochs.
const BATCHES: u64 = 2 * 16 / 4;

/// The threads a [`train`] run forks for its sample threads alone: the
/// fold's records are far below its fork floor.
const TRAINER_FORKS: u64 = (WORKERS as u64 - 1) * BATCHES;

/// The epoch-loss words of training the engine pinned to `plan` at
/// `cores`, and the threads the training forked.
fn train(plan: LayerPlan, cores: usize) -> (Vec<u64>, u64) {
    let mut engine = pinned(plan, cores);
    let mut data = Dataset::synthetic(spg_cnn::tensor::Shape3::new(2, 20, 20), 4, 16, 0.1, 5);
    let before = fork_join_spawns();
    let stats = engine.try_train(&mut data).expect("training completes");
    let bits: Vec<u64> = stats.iter().map(|s| s.mean_loss.to_bits()).collect();
    (bits, fork_join_spawns() - before)
}

#[test]
fn a_band_pinned_net_trains_on_the_pools_threads_alone() {
    let _turn = serialized();
    let (banded, banded_forks) = train(STENCIL, WORKERS);
    let (sequential, sequential_forks) = train(STENCIL, 1);
    assert_eq!(TRAINER_FORKS, 8);
    assert_eq!(banded_forks, TRAINER_FORKS, "a sample thread owns one core and forks nothing");
    assert_eq!(sequential_forks, TRAINER_FORKS);
    assert_eq!(banded, sequential, "the band plan ran as the stencil it splits");
    // A one-rank ring at one sample thread runs its rank, its block and
    // its update pass on the calling thread, to the pool's bits.
    let factory = || Ok(Arc::try_unwrap(pinned(STENCIL, WORKERS).into_shared()).expect("sole"));
    let data = Dataset::synthetic(spg_cnn::tensor::Shape3::new(2, 20, 20), 4, 16, 0.1, 5);
    let trainer = TrainerConfig { epochs: 2, batch_size: 4, ..TrainerConfig::default() };
    let solo = InProcTrainOptions { world: 1, ..InProcTrainOptions::default() };
    let before = fork_join_spawns();
    let stats = train_in_proc(&factory, &data, &trainer, &solo).expect("the ring trains");
    assert_eq!(fork_join_spawns() - before, 0, "a one-rank ring forks nothing");
    assert_eq!(stats.iter().map(|s| s.mean_loss.to_bits()).collect::<Vec<_>>(), banded);
    // The same engine does fork when a call owns the cores: one band
    // thread, and one for the classifier's rows.
    let engine = pinned(STENCIL, WORKERS);
    let before = fork_join_spawns();
    engine.forward(&vec![0.25; engine.network().input_len()]).expect("input fits");
    assert_eq!(fork_join_spawns() - before, 2 * (WORKERS as u64 - 1));
}

/// The backward GEMM follows the core budget as the forward does: lowered
/// at `WORKERS`, its row bands run as one serial GEMM inside each sample
/// thread, with the loss words of the plan lowered at 1.
#[test]
fn a_gemm_pinned_net_trains_on_the_pools_threads_alone() {
    let _turn = serialized();
    let (banded, banded_forks) = train(GEMM, WORKERS);
    let (serial, serial_forks) = train(GEMM, 1);
    assert_eq!(banded_forks, TRAINER_FORKS, "a sample thread owns one core and forks nothing");
    assert_eq!(serial_forks, TRAINER_FORKS);
    assert_eq!(banded, serial, "the row bands ran as the serial GEMM");
}

/// A layer compiled at `WORKERS` owns those cores in every phase, whoever
/// lends it the scratch: each backward GEMM forks its second band, and the
/// bits are those of the layer compiled at 1.
#[test]
fn a_compiled_layer_runs_its_backward_on_its_own_cores() {
    let _turn = serialized();
    let desc = NetworkDescription::parse(NET).expect("description parses");
    let net = desc.build(23).expect("description builds");
    let layer = &net.layers()[0];
    let spec = *layer.conv_spec().expect("layer 0 is the conv");
    let weights = layer.params().expect("conv layers expose parameters");
    let input: Vec<f32> = (0..spec.input_shape().len()).map(|i| (i % 7) as f32 - 3.0).collect();
    let grad_out: Vec<f32> = (0..spec.output_shape().len()).map(|i| (i % 5) as f32 - 2.0).collect();
    let backward = |cores| {
        let compiled = CompiledConv::compile(spec, GEMM, weights, cores).expect("plan compiles");
        let mut scratch = ConvScratch::new();
        let mut grad_in = vec![0.0; spec.input_shape().len()];
        let mut grad_w = vec![0.0; spec.weight_shape().len()];
        let before = fork_join_spawns();
        compiled.backward_data_scratch(&grad_out, &mut grad_in, &mut scratch);
        compiled.backward_weights_scratch(&input, &grad_out, &mut grad_w, &mut scratch);
        let forks = fork_join_spawns() - before;
        assert_eq!(scratch.cores, 1, "the lent budget is handed back");
        (grad_in, grad_w, forks)
    };
    let (gin, gw, forks) = backward(WORKERS);
    let (gin_serial, gw_serial, serial_forks) = backward(1);
    assert_eq!(forks, 2 * (WORKERS as u64 - 1), "one band thread per backward GEMM");
    assert_eq!(serial_forks, 0);
    assert_eq!((gin, gw), (gin_serial, gw_serial), "the bits do not depend on the cores");
}

/// The threads a ReLU, a max-pool (both phases) and a stride-2 3x3 fold
/// onto `shape` fork at `cores`.
fn elementwise_forks(shape: Shape3, cores: usize) -> u64 {
    let relu = ReluLayer::new(shape.len());
    let pool = MaxPoolLayer::new(shape, 2).expect("valid pool");
    let spec = ConvSpec::new(shape.c, shape.h, shape.w, 1, 3, 3, 2, 2).expect("valid spec");
    let input: Vec<f32> = (0..shape.len()).map(|i| (i % 7) as f32 - 3.0).collect();
    let mut scratch = ConvScratch::with_cores(cores);
    let mut activations = vec![0.0; shape.len()];
    let mut pooled = vec![0.0; pool.output_len()];
    let mut grad_in = vec![0.0; shape.len()];
    let patch_grads = vec![0.5; spec.weight_shape().per_feature() * spec.out_h() * spec.out_w()];
    let before = fork_join_spawns();
    relu.forward(&input, &mut activations, &mut scratch);
    pool.forward(&activations, &mut pooled, &mut scratch);
    let grad_out = pooled.clone();
    let mut none = Tensor::default();
    pool.backward(&activations, &pooled, &grad_out, &mut grad_in, &mut none, &mut scratch);
    let tap_rows = stages_tap_rows(&spec);
    fold_rows(&spec, &patch_grads, tap_rows, &mut grad_in, scratch.cores);
    fork_join_spawns() - before
}

/// The layers between the convs follow the budget as the convs do: at
/// budget 1 a ReLU, a max-pool and a GEMM's fold fork nothing however
/// large, and at budget 2 one below its split floor forks nothing either.
#[test]
fn relu_pool_and_fold_fork_only_above_budget_one_and_their_floor() {
    let _turn = serialized();
    // 2.1 M activations, 4.7 M patch-gradient elements: above every floor.
    let large = Shape3::new(8, 512, 512);
    let small = Shape3::new(6, 24, 24);
    assert_eq!(elementwise_forks(large, 1), 0, "a one-core walk forks nothing");
    assert_eq!(elementwise_forks(small, 2), 0, "below the floor nothing forks");
    assert_eq!(elementwise_forks(large, 2), 4, "one thread per call above the floor");
}

/// A net planned for the pool's cores is served at budget 1: whatever its
/// programs split, a serving worker runs their sequential form.
#[test]
fn a_serving_worker_forks_nothing() {
    let _turn = serialized();
    let desc = NetworkDescription::parse(NET).expect("description parses");
    let mut net = desc.build(23).expect("description builds");
    // Plans lowered for the pool's cores; each worker walks them on the
    // one core it owns.
    let plans = Framework::new(WORKERS, TuningMode::Heuristic, 1)
        .try_plan_network_forward(&mut net)
        .unwrap();
    let config = ServeConfig {
        workers: WORKERS,
        max_batch: 2,
        max_delay: Duration::from_millis(1),
        queue_capacity: 8,
        ..ServeConfig::default()
    };
    let input = vec![0.25; net.input_len()];
    let server = Server::start(Arc::new(net), &plans, config).expect("the plans are installed");
    let before = fork_join_spawns();
    let pending: Vec<_> = (0..6)
        .map(|_| server.submit_timeout(input.clone(), Duration::from_secs(10)).expect("room"))
        .collect();
    for reply in pending {
        reply.wait().expect("worker alive");
    }
    assert_eq!(fork_join_spawns() - before, 0, "a serving worker owns one core");
    server.shutdown();
}
