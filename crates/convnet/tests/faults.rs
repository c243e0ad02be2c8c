//! Deterministic fault drills for the trainer's sample threads. A
//! [`FaultPlan`] is plain configuration, so these run with every
//! `cargo test`.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use spg_convnet::data::Dataset;
use spg_convnet::layer::{ConvLayer, FcLayer, ReluLayer};
use spg_convnet::{ConvSpec, Network, TrainError, Trainer, TrainerConfig};
use spg_sync::FaultPlan;
use spg_tensor::Shape3;

/// Both drills bump the process-global `train.faulted_samples` counter,
/// and the first asserts an exact delta on it: they must not interleave.
static COUNTERS: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    // A drill that failed while holding the lock left no state behind.
    COUNTERS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn build_network(seed: u64) -> Network {
    let mut rng = SmallRng::seed_from_u64(seed);
    let spec = ConvSpec::new(1, 8, 8, 4, 3, 3, 1, 1).unwrap();
    let conv_out = spec.output_shape().len();
    Network::new(vec![
        Box::new(ConvLayer::new(spec, &mut rng)),
        Box::new(ReluLayer::new(conv_out)),
        Box::new(FcLayer::new(conv_out, 3, &mut rng)),
    ])
    .unwrap()
}

fn dataset() -> Dataset {
    Dataset::synthetic(Shape3::new(1, 8, 8), 3, 12, 0.15, 7)
}

fn config(threads: usize) -> TrainerConfig {
    TrainerConfig {
        epochs: 2,
        batch_size: 4,
        sample_threads: threads,
        restart_backoff: Duration::ZERO,
        ..TrainerConfig::default()
    }
}

/// With budget left, an injected panic is invisible in the results: the
/// slot rebuilds its workspace, resumes at the faulted sample, and the
/// run finishes with bit-identical statistics
/// and weights — while the restart shows up in the telemetry counters.
#[test]
fn training_recovers_from_injected_panic_bit_identically() {
    let _serial = serialized();
    let mut clean_net = build_network(21);
    let clean = Trainer::new(config(3))
        .try_train(&mut clean_net, &mut dataset())
        .expect("uninjected run trains");

    spg_telemetry::set_enabled(true);
    let restarts_before = spg_telemetry::snapshot().counter("train.worker_restarts");
    let faulted_before = spg_telemetry::snapshot().counter("train.faulted_samples");

    // Slot 1's second sample: at batch 4 and three threads its block is
    // position 2 alone, so this is position 2 of epoch 1's second batch.
    let plan = Some(FaultPlan::panic_on(1, 2));
    let mut injected_net = build_network(21);
    let injected = Trainer::new(TrainerConfig { fault_plan: plan, ..config(3) })
        .try_train(&mut injected_net, &mut dataset())
        .expect("one panic is within the restart budget");

    assert_eq!(clean.len(), injected.len());
    for (a, b) in clean.iter().zip(&injected) {
        assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits(), "epoch {} loss", a.epoch);
        assert_eq!(a.accuracy, b.accuracy, "epoch {} accuracy", a.epoch);
    }
    for (i, (a, b)) in clean_net.layers().iter().zip(injected_net.layers()).enumerate() {
        assert_eq!(a.params(), b.params(), "layer {i} weights diverged after the respawn");
    }
    let snap = spg_telemetry::snapshot();
    assert_eq!(snap.counter("train.worker_restarts"), restarts_before + 1, "exactly one respawn");
    assert_eq!(
        snap.counter("train.faulted_samples"),
        faulted_before + 1,
        "exactly one faulted sample"
    );
}

/// With the budget already spent, the same panic surfaces as a typed
/// `WorkerFault` carrying the crash coordinates — and the run returns
/// promptly instead of waiting on the faulted slot.
#[test]
fn exhausted_budget_fails_with_typed_error_without_deadlock() {
    let _serial = serialized();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let plan = Some(FaultPlan::panic_on(0, 1));
        let trainer =
            Trainer::new(TrainerConfig { fault_plan: plan, restart_budget: 0, ..config(2) });
        let result = trainer.try_train(&mut build_network(5), &mut dataset());
        let _ = tx.send(result);
    });
    let result = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("a faulted run must fail fast, not deadlock");
    match result {
        Err(TrainError::WorkerFault { worker, epoch, batch, message }) => {
            assert_eq!(worker, 0);
            assert_eq!(epoch, 1, "first epoch");
            assert_eq!(batch, 0, "first batch");
            assert!(message.contains("injected fault"), "message: {message}");
        }
        other => panic!("expected WorkerFault, got {other:?}"),
    }
}
