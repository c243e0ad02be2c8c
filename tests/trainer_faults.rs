//! The trainer's fault path without a `FaultPlan`: a layer that really
//! panics stands in for a kernel bug. Each sample
//! thread's slot supervises itself (`spg_sync::supervise`): it rebuilds
//! its workspace and resumes at the faulted sample, so a transient fault
//! leaves no trace in the bits, and a deterministic one burns exactly the
//! slot's restart budget before the run fails with a typed error.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use spg_cnn::convnet::data::Dataset;
use spg_cnn::convnet::layer::{FcLayer, Layer, ReluLayer};
use spg_cnn::convnet::workspace::ConvScratch;
use spg_cnn::convnet::{Network, TrainError, Trainer, TrainerConfig};
use spg_cnn::sync::FaultPlan;
use spg_cnn::tensor::{Shape3, Tensor};

/// Both tests read deltas of the process-global `train.*` counters.
static COUNTERS: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    COUNTERS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What the tripwire saw, shared with the test.
#[derive(Debug, Default)]
struct Visits {
    poisoned: AtomicUsize,
    healthy: AtomicUsize,
}

/// An identity layer that panics when it is handed the `poison` image.
#[derive(Debug)]
struct Tripwire {
    len: usize,
    poison: Option<Vec<f32>>,
    /// Panic on the first poisoned visit only (a transient fault).
    once: bool,
    tripped: AtomicBool,
    /// A poisoned visit waits for this many healthy visits before it
    /// panics: the barrier that forces "the sibling got through its
    /// block while this slot was still faulting".
    after_healthy: usize,
    visits: Arc<Visits>,
}

impl Layer for Tripwire {
    fn name(&self) -> &str {
        "tripwire"
    }

    fn input_len(&self) -> usize {
        self.len
    }

    fn output_len(&self) -> usize {
        self.len
    }

    fn forward(&self, input: &[f32], output: &mut [f32], _scratch: &mut ConvScratch) {
        if self.poison.as_deref() == Some(input) {
            self.visits.poisoned.fetch_add(1, Ordering::SeqCst);
            while self.visits.healthy.load(Ordering::SeqCst) < self.after_healthy {
                std::thread::yield_now();
            }
            if !(self.once && self.tripped.swap(true, Ordering::SeqCst)) {
                panic!("tripwire: simulated kernel crash");
            }
        } else {
            self.visits.healthy.fetch_add(1, Ordering::SeqCst);
        }
        output.copy_from_slice(input);
    }

    fn backward(
        &self,
        _input: &[f32],
        _output: &[f32],
        grad_out: &[f32],
        grad_in: &mut [f32],
        _param_grads: &mut Tensor,
        _scratch: &mut ConvScratch,
    ) {
        grad_in.copy_from_slice(grad_out);
    }
}

const SHAPE: Shape3 = Shape3 { c: 1, h: 4, w: 4 };
const BATCH: usize = 4;

fn dataset() -> Dataset {
    Dataset::synthetic(SHAPE, 3, 12, 0.15, 7)
}

/// The image the trainer visits at `position` of epoch 1.
fn first_epoch_image(config: &TrainerConfig, position: usize) -> Vec<f32> {
    let mut data = dataset();
    data.shuffle(config.shuffle_seed.wrapping_add(1));
    data.image(position).as_slice().to_vec()
}

fn network(tripwire: Tripwire) -> Network {
    let mut rng = SmallRng::seed_from_u64(33);
    let len = tripwire.len;
    Network::new(vec![
        Box::new(tripwire),
        Box::new(FcLayer::new(len, 8, &mut rng)),
        Box::new(ReluLayer::new(8)),
        Box::new(FcLayer::new(8, 3, &mut rng)),
    ])
    .unwrap()
}

fn config(threads: usize) -> TrainerConfig {
    TrainerConfig {
        epochs: 2,
        batch_size: BATCH,
        sample_threads: threads,
        restart_backoff: Duration::ZERO,
        // Supervision runs at every thread count. This plan never fires:
        // no slot starts its u64::MAX-th sample.
        fault_plan: Some(FaultPlan::panic_on(0, u64::MAX)),
        ..TrainerConfig::default()
    }
}

fn counters() -> (u64, u64) {
    let snap = spg_cnn::telemetry::snapshot();
    (snap.counter("train.worker_restarts"), snap.counter("train.faulted_samples"))
}

/// A layer that panics on one input every time: the owning slot retries
/// it `restart_budget` times, then the run fails with the typed fault
/// naming that slot — while the sibling slot, never disturbed, worked
/// through its own block of the same batch.
#[test]
fn deterministic_panic_burns_the_slot_budget_then_fails_typed() {
    let _serial = serialized();
    spg_cnn::telemetry::set_enabled(true);
    let config = TrainerConfig { restart_budget: 2, ..config(2) };
    let visits = Arc::new(Visits::default());
    // Batch 0 of epoch 1 gives slot 0 the block of positions 0, 1 and
    // slot 1 the block 2, 3. Position 0 is poisoned; its every visit
    // waits until slot 1 has run both of its samples, and slot 0 never
    // gets past it to position 1.
    let mut net = network(Tripwire {
        len: SHAPE.len(),
        poison: Some(first_epoch_image(&config, 0)),
        once: false,
        tripped: AtomicBool::new(false),
        after_healthy: 2,
        visits: Arc::clone(&visits),
    });
    let before = counters();

    let (tx, rx) = std::sync::mpsc::channel();
    let trainer = Trainer::new(config);
    let worker = std::thread::spawn(move || {
        let _ = tx.send(trainer.try_train(&mut net, &mut dataset()));
    });
    let result = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("a faulted run must fail fast, not deadlock");
    worker.join().unwrap();

    match result {
        Err(TrainError::WorkerFault { worker, epoch, batch, message }) => {
            assert_eq!((worker, epoch, batch), (0, 1, 0));
            assert!(message.contains("tripwire"), "panic message survives: {message}");
        }
        other => panic!("expected WorkerFault, got {other:?}"),
    }
    assert_eq!(visits.poisoned.load(Ordering::SeqCst), 3, "first try + restart_budget retries");
    assert_eq!(visits.healthy.load(Ordering::SeqCst), 2, "exactly the sibling's two samples ran");
    let after = counters();
    assert_eq!(after.0 - before.0, 2, "exactly restart_budget respawns of the slot");
    assert_eq!(after.1 - before.1, 3, "every faulted attempt counted");
}

/// A layer that panics on its first visit only: the slot resumes at the
/// sample, and losses and weights come out bit-identical to a
/// run that never faulted — at 1, 2 and 3 threads.
#[test]
fn transient_panic_trains_to_the_same_bits_as_a_clean_run() {
    let _serial = serialized();
    spg_cnn::telemetry::set_enabled(true);
    let train = |threads: usize, poison: Option<Vec<f32>>| {
        let mut net = network(Tripwire {
            len: SHAPE.len(),
            poison,
            once: true,
            tripped: AtomicBool::new(false),
            after_healthy: 0,
            visits: Arc::default(),
        });
        let stats = Trainer::new(config(threads))
            .try_train(&mut net, &mut dataset())
            .expect("one panic is within the restart budget");
        let losses: Vec<u64> = stats.iter().map(|s| s.mean_loss.to_bits()).collect();
        let weights: Vec<Vec<f32>> =
            net.layers().iter().filter_map(|l| l.params().map(<[f32]>::to_vec)).collect();
        (losses, weights)
    };
    let clean = train(1, None);
    for threads in [1, 2, 3] {
        let before = counters();
        // Position 5: the second batch, so committed state precedes it;
        // position 1 of that batch is slot 0's at every thread count.
        let faulted = train(threads, Some(first_epoch_image(&config(threads), 5)));
        assert_eq!(faulted, clean, "{threads} thread(s): a retried sample changed the bits");
        let after = counters();
        assert_eq!((after.0 - before.0, after.1 - before.1), (1, 1), "one fault, one respawn");
    }
}
