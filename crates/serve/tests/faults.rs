//! Deterministic fault drills for the serving pool. A [`FaultPlan`] is
//! plain configuration, so these run with every `cargo test`.
//!
//! The supervision tests in `serving.rs` crash a worker through
//! a purpose-built panicking layer; these drills instead use the real
//! [`FaultPlan`] path that ships in the production config surface, i.e.
//! exactly what `spgcnn serve --inject-fault` exercises in CI.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use spg_convnet::layer::{ConvLayer, FcLayer, ReluLayer};
use spg_convnet::{ConvScratch, ConvSpec, Network, SampleTrace};
use spg_core::autotune::{Framework, TuningMode};
use spg_serve::{FaultPlan, ServeConfig, ServeError, Server};

fn build_network(seed: u64) -> Network {
    let mut rng = SmallRng::seed_from_u64(seed);
    let spec = ConvSpec::new(2, 8, 8, 4, 3, 3, 1, 1).unwrap();
    let conv_out = spec.output_shape().len();
    Network::new(vec![
        Box::new(ConvLayer::new(spec, &mut rng)),
        Box::new(ReluLayer::new(conv_out)),
        Box::new(FcLayer::new(conv_out, 5, &mut rng)),
    ])
    .unwrap()
}

fn sample_input(len: usize, salt: usize) -> Vec<f32> {
    (0..len).map(|i| (((i * 31 + salt * 17) % 23) as f32 - 11.0) / 7.0).collect()
}

/// The logits of `input` through the network's own single-sample forward.
fn logits(net: &Network, input: &[f32]) -> Vec<f32> {
    let mut trace = SampleTrace::for_network(net);
    net.forward_sample(input, &mut trace, &mut ConvScratch::new());
    trace.logits().as_slice().to_vec()
}

/// The ISSUE acceptance drill: a 4-worker pool with one injected panic
/// answers every request — the faulted micro-batch's requests as typed
/// `WorkerFault`s, everything else bit-identical to the unbatched
/// forward path — and the supervisor restarts the crashed worker.
#[test]
fn four_worker_pool_survives_injected_panic() {
    let mut net = build_network(42);
    let framework = Framework::new(1, TuningMode::Heuristic, 1);
    let plans = framework.try_plan_network_forward(&mut net).unwrap();
    let net = Arc::new(net);

    let inputs: Vec<Vec<f32>> = (0..32).map(|s| sample_input(net.input_len(), s)).collect();
    let expected: Vec<Vec<f32>> = inputs.iter().map(|input| logits(&net, input)).collect();

    // `any:2` rather than a fixed worker: on a small host the MPMC queue
    // does not guarantee which worker pops which request, but *some*
    // worker always reaches its second micro-batch with 32 requests and
    // max_batch 1.
    let config = ServeConfig {
        workers: 4,
        max_batch: 1,
        max_delay: Duration::ZERO,
        restart_backoff: Duration::ZERO,
        fault_plan: Some(FaultPlan::any_worker(2).with_seed(7)),
        ..ServeConfig::default()
    };
    let server = Server::start(Arc::clone(&net), &plans, config).unwrap();
    let pending: Vec<_> = inputs
        .iter()
        .map(|input| server.submit_timeout(input.clone(), Duration::from_secs(30)).unwrap())
        .collect();

    let mut faulted = 0usize;
    for (i, p) in pending.into_iter().enumerate() {
        match p.wait() {
            Ok(r) => assert_eq!(r.logits, expected[i], "surviving request {i} diverged"),
            Err(ServeError::WorkerFault { batch, message, .. }) => {
                assert_eq!(batch, 2, "the plan targets the second micro-batch");
                assert!(message.contains("injected fault"), "panic message: {message}");
                assert!(message.contains("any:2:7"), "plan echoed for triage: {message}");
                faulted += 1;
            }
            Err(e) => panic!("request {i}: unexpected error {e}"),
        }
    }
    // max_batch 1: the one-shot plan fails exactly one request.
    assert_eq!(faulted, 1, "exactly the faulted micro-batch fails");
    assert_eq!(server.faulted_batches(), 1);
    assert!(server.wait_restarts(1, Duration::from_secs(5)), "the crashed worker was respawned");
    assert_eq!(server.restarts(), 1, "exactly one respawn");
    server.shutdown();
}
