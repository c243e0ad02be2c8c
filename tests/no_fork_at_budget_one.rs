//! A walk that owns one core forks nothing, whatever its plans could
//! split: a trainer pool worker and a serving worker run a band plan as
//! the sequential stencil it splits, on their own thread. (Before the core
//! budget each of the trainer's P sample workers forked P band threads for
//! a layer whose plan was banded.)
//!
//! The tests read deltas of `fork_join_spawns`, a process-wide count, so
//! they take turns.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use spg_cnn::codegen::KernelChoice;
use spg_cnn::convnet::data::Dataset;
use spg_cnn::convnet::layer::ConvLayer;
use spg_cnn::convnet::{Engine, LayerAlgo, TrainerConfig};
use spg_cnn::core::backend::AlgoChoice;
use spg_cnn::core::config::NetworkDescription;
use spg_cnn::core::schedule::{LayerPlan, Technique};
use spg_cnn::core::verify::lower;
use spg_cnn::serve::{ServeConfig, Server};
use spg_cnn::sync::fork_join_spawns;

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

/// The engine with its conv pinned to the stencil lowered at `cores`.
fn pinned(cores: usize) -> Engine {
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
    let plan = LayerPlan { forward: Technique::StencilFp, backward: Technique::GemmInParallel };
    let program = lower(&spec, plan, cores, KernelChoice::Auto).expect("the stencil plan verifies");
    let algo = AlgoChoice::of(&program);
    engine.algo_override(0, LoweredAt(algo, cores)).expect("the stencil plan verifies");
    engine
}

#[test]
fn a_band_pinned_net_trains_on_the_pools_threads_alone() {
    let _turn = serialized();
    let losses = |cores| {
        let mut engine = pinned(cores);
        let mut data = Dataset::synthetic(spg_cnn::tensor::Shape3::new(2, 20, 20), 4, 16, 0.1, 5);
        let before = fork_join_spawns();
        let stats = engine.try_train(&mut data).expect("training completes");
        let bits: Vec<u64> = stats.iter().map(|s| s.mean_loss.to_bits()).collect();
        (bits, fork_join_spawns() - before)
    };
    let (banded, banded_forks) = losses(WORKERS);
    let (sequential, sequential_forks) = losses(1);
    assert_eq!(banded_forks, 0, "a sample worker owns one core and forks nothing");
    assert_eq!(sequential_forks, 0);
    assert_eq!(banded, sequential, "the band plan ran as the stencil it splits");
    // The same engine does fork when a call owns the cores: one band
    // thread, and one for the classifier's rows.
    let engine = pinned(WORKERS);
    let before = fork_join_spawns();
    engine.forward(&vec![0.25; engine.network().input_len()]).expect("input fits");
    assert_eq!(fork_join_spawns() - before, 2 * (WORKERS as u64 - 1));
}

#[test]
fn a_serving_worker_forks_nothing() {
    let _turn = serialized();
    let desc = NetworkDescription::parse(NET).expect("description parses");
    let net = desc.build(23).expect("description builds");
    // Workers compile their plans for the one core each of them owns.
    let plan = LayerPlan { forward: Technique::StencilFp, backward: Technique::GemmInParallel };
    let config = ServeConfig {
        workers: WORKERS,
        max_batch: 2,
        max_delay: Duration::from_millis(1),
        queue_capacity: 8,
        ..ServeConfig::default()
    };
    let input = vec![0.25; net.input_len()];
    let server = Server::start(Arc::new(net), &[(0, plan)], config).expect("plan compiles");
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
