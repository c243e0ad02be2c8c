//! Tier-1 behavioural guarantees of the serving engine: batched serving
//! is bit-identical to the unbatched forward path for any worker count
//! and batch size, and a full queue rejects instead of blocking.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use spg_convnet::layer::{ConvLayer, FcLayer, ReluLayer};
use spg_convnet::workspace::Workspace;
use spg_convnet::{ConvSpec, Network};
use spg_core::autotune::{Framework, TuningMode};
use spg_core::schedule::{LayerPlan, Technique};
use spg_error::ErrorKind;
use spg_serve::{ServeConfig, ServeError, Server};

/// conv -> relu -> fc classifier over 8x8x2 inputs.
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

/// The acceptance-criteria core: for every worker count and batch size,
/// per-request logits from the batched server are bit-identical to the
/// single-sample forward pass on the same network — tuned, or served as
/// built with no plans.
#[test]
fn batched_serving_is_bit_identical_to_unbatched_forward() {
    let mut planned = build_network(42);
    // Plan forward executors exactly as the serving CLI does: cores = 1,
    // the single-threaded-kernel-per-worker schedule.
    let framework = Framework::new(1, TuningMode::Heuristic, 1);
    let plans = framework.plan_network_forward(&mut planned);
    // The unplanned net runs the executors it was built with.
    let cases = [(Arc::new(planned), plans), (Arc::new(build_network(42)), Vec::new())];
    for (net, plans) in &cases {
        serves_bit_identical_logits(net, plans);
    }
}

fn serves_bit_identical_logits(net: &Arc<Network>, plans: &[(usize, LayerPlan)]) {
    // Reference logits from the unbatched path.
    let mut ws = Workspace::for_network(net);
    let inputs: Vec<Vec<f32>> = (0..24).map(|s| sample_input(net.input_len(), s)).collect();
    let expected: Vec<Vec<u32>> = inputs
        .iter()
        .map(|input| {
            net.forward_into(input, &mut ws);
            ws.trace.logits().iter().map(|v| v.to_bits()).collect()
        })
        .collect();

    for workers in [1, 2, 4] {
        for max_batch in [1, 3, 8] {
            let config = ServeConfig {
                workers,
                max_batch,
                max_delay: Duration::from_millis(1),
                queue_capacity: 64,
                ..ServeConfig::default()
            };
            let server = Server::start(Arc::clone(net), plans, config).unwrap();
            let pending: Vec<_> = inputs
                .iter()
                .map(|input| {
                    server
                        .submit_timeout(input.clone(), Duration::from_secs(10))
                        .expect("capacity 64 covers 24 requests")
                })
                .collect();
            for (i, p) in pending.into_iter().enumerate() {
                let response = p.wait().expect("worker alive");
                let bits: Vec<u32> = response.logits.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    bits,
                    expected[i],
                    "{} plans, workers={workers} max_batch={max_batch} request {i}: \
                     logits diverged",
                    plans.len()
                );
                assert!(response.batch_size >= 1 && response.batch_size <= max_batch);
                assert!(response.worker < workers);
            }
            server.shutdown();
        }
    }
}

/// `plans` is checked against the executors `net` has installed: an entry
/// for a layer that is no convolution, or for a technique the layer's
/// forward executor does not run, is an invalid network.
#[test]
fn start_rejects_plans_the_network_does_not_run() {
    // Built, not planned: layer 0 runs unfold+gemm, layer 1 is a ReLU.
    let net = Arc::new(build_network(42));
    let stencil = LayerPlan { forward: Technique::StencilFp, backward: Technique::GemmInParallel };
    let gemm = LayerPlan { forward: Technique::GemmInParallel, ..stencil };
    for (plans, why) in [
        ([(1, gemm)], "layer 1 is a ReLU"),
        ([(3, gemm)], "the net has three layers"),
        ([(0, stencil)], "layer 0 runs unfold+gemm"),
    ] {
        let e = Server::start(Arc::clone(&net), &plans, ServeConfig::default()).err().expect(why);
        assert_eq!(e.kind(), ErrorKind::InvalidNetwork, "{why}: {e}");
    }
    // The plan the layer does run is accepted.
    Server::start(net, &[(0, gemm)], ServeConfig::default()).expect("layer 0 runs gemm").shutdown();
}

/// Backpressure: a full queue must reject immediately (`try_submit`) and
/// time out within the deadline (`submit_timeout`) — never block past it.
#[test]
fn full_queue_rejects_rather_than_blocking() {
    let net = Arc::new(build_network(7));
    // One worker, long batch delay, tiny queue: the worker blocks its
    // batch window while the queue fills behind it.
    let config = ServeConfig {
        workers: 1,
        max_batch: 64,
        max_delay: Duration::from_secs(2),
        queue_capacity: 2,
        ..ServeConfig::default()
    };
    let server = Server::start(Arc::clone(&net), &[], config).unwrap();

    // First request wakes the worker and starts its 2 s gather window;
    // the rest land in the queue until it is full. The worker drains the
    // queue into its batch concurrently, so a fixed number of
    // submissions can lose the race on a busy (or single-core) host —
    // keep submitting until one is rejected, bounded by a deadline well
    // under the 2 s window.
    let mut pending = Vec::new();
    let mut rejected = 0;
    let mut s = 0;
    let flood_deadline = Instant::now() + Duration::from_millis(1500);
    while rejected == 0 && Instant::now() < flood_deadline {
        match server.try_submit(sample_input(net.input_len(), s)) {
            Ok(p) => pending.push(p),
            Err(ServeError::Rejected { capacity }) => {
                assert_eq!(capacity, 2);
                rejected += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
        s += 1;
    }
    assert!(rejected > 0, "instant submissions must overflow a 2-slot queue");

    // A deadline-bounded submit on the still-full queue must return
    // within (roughly) its deadline, not block for the 2 s batch window.
    let start = Instant::now();
    let result =
        server.submit_timeout(sample_input(net.input_len(), 99), Duration::from_millis(50));
    match result {
        Err(ServeError::Timeout { waited }) => {
            assert!(waited >= Duration::from_millis(50));
            assert!(
                start.elapsed() < Duration::from_millis(1500),
                "timed-out submit blocked for {:?}",
                start.elapsed()
            );
        }
        // The worker may have drained the queue between fills; accepting
        // is legal — the guarantee under test is only "never block past
        // the deadline".
        Ok(p) => drop(p),
        Err(e) => panic!("unexpected error: {e}"),
    }

    // Graceful shutdown still answers every accepted request.
    let accepted = pending.len();
    let answered = pending.into_iter().filter_map(|p| p.wait().ok()).count();
    assert_eq!(answered, accepted, "accepted requests must be served, not dropped");
    server.shutdown();
}

/// Regression: `submit_timeout` computed `start + patience`, and
/// `Instant + Duration` panics on overflow — so `Duration::MAX` ("wait
/// as long as it takes") aborted the submitter instead of submitting.
#[test]
fn submit_timeout_accepts_an_unrepresentable_deadline() {
    let net = Arc::new(build_network(9));
    let server = Server::start(Arc::clone(&net), &[], ServeConfig::default()).unwrap();
    let response = server
        .submit_timeout(sample_input(net.input_len(), 3), Duration::MAX)
        .expect("a queue with room accepts at any patience")
        .wait()
        .expect("served");
    assert_eq!(response.logits.len(), net.output_len());
    server.shutdown();
}

/// Regression: a pool wider than the request queue (workers=8,
/// queue_capacity=1) used to spawn all 8 workers even though the queue
/// can never feed them simultaneously. The clamp must keep serving
/// correct and record the declined slots in the starvation telemetry.
#[test]
fn starved_pool_clamps_workers_to_queue_capacity() {
    spg_telemetry::set_enabled(true);
    let before = spg_telemetry::snapshot().counter("serve.starved_workers");
    let mut net = build_network(9);
    let framework = Framework::new(1, TuningMode::Heuristic, 1);
    let plans = framework.plan_network_forward(&mut net);
    let net = Arc::new(net);
    let config = ServeConfig {
        workers: 8,
        max_batch: 1,
        max_delay: Duration::from_millis(1),
        queue_capacity: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(Arc::clone(&net), &plans, config).unwrap();
    let declined = spg_telemetry::snapshot().counter("serve.starved_workers") - before;
    assert_eq!(declined, 7, "7 of 8 worker slots declined for a 1-slot queue");
    // The clamped pool still serves correctly.
    let mut ws = Workspace::for_network(&net);
    for s in 0..4 {
        let input = sample_input(net.input_len(), s);
        net.forward_into(&input, &mut ws);
        let expected = ws.trace.logits().as_slice().to_vec();
        let response = server
            .submit_timeout(input, Duration::from_secs(10))
            .expect("clamped pool accepts work")
            .wait()
            .expect("clamped pool serves work");
        assert_eq!(response.logits, expected, "request {s}");
        assert!(response.worker < 1, "only the fed worker slot exists");
    }
    server.shutdown();
}

/// Bad inputs fail fast with a typed error instead of reaching a worker.
#[test]
fn wrong_length_input_is_rejected_up_front() {
    let net = Arc::new(build_network(3));
    let server = Server::start(Arc::clone(&net), &[], ServeConfig::default()).unwrap();
    match server.try_submit(vec![1.0; 3]) {
        Err(ServeError::BadInput { expected, actual }) => {
            assert_eq!(expected, net.input_len());
            assert_eq!(actual, 3);
        }
        other => panic!("expected BadInput, got {other:?}"),
    }
}

/// Shutdown drains queued work: every request accepted before shutdown
/// receives a response.
#[test]
fn shutdown_drains_in_flight_requests() {
    let net = Arc::new(build_network(5));
    let config = ServeConfig {
        workers: 2,
        max_batch: 4,
        max_delay: Duration::from_millis(1),
        queue_capacity: 32,
        ..ServeConfig::default()
    };
    let server = Server::start(Arc::clone(&net), &[], config).unwrap();
    let pending: Vec<_> = (0..20)
        .map(|s| {
            server
                .submit_timeout(sample_input(net.input_len(), s), Duration::from_secs(10))
                .expect("queue has room")
        })
        .collect();
    server.shutdown();
    for p in pending {
        p.wait().expect("accepted request served before shutdown completed");
    }
}

/// ServeError converts into the unified error type with kind `Serving`
/// and a walkable source chain.
#[test]
fn serve_errors_convert_to_unified_error() {
    let e: spg_error::Error = ServeError::ShuttingDown.into();
    assert_eq!(e.kind(), spg_error::ErrorKind::Serving);
    assert!(std::error::Error::source(&e).is_some());
}

/// `max_delay: 0` must serve every request in its own immediate batch —
/// the deadline arithmetic (`now + 0`) must not underflow or stall.
#[test]
fn zero_max_delay_serves_every_request() {
    let mut net = build_network(9);
    let framework = Framework::new(1, TuningMode::Heuristic, 1);
    let plans = framework.plan_network_forward(&mut net);
    let net = Arc::new(net);
    let mut ws = Workspace::for_network(&net);
    let inputs: Vec<Vec<f32>> = (0..8).map(|s| sample_input(net.input_len(), s)).collect();
    let expected: Vec<Vec<f32>> = inputs
        .iter()
        .map(|input| {
            net.forward_into(input, &mut ws);
            ws.trace.logits().as_slice().to_vec()
        })
        .collect();

    let config = ServeConfig { workers: 2, max_delay: Duration::ZERO, ..ServeConfig::default() };
    let server = Server::start(Arc::clone(&net), &plans, config).unwrap();
    for (i, input) in inputs.iter().enumerate() {
        let p = server.submit_timeout(input.clone(), Duration::from_secs(10)).unwrap();
        let r = p.wait().expect("zero-delay batches still complete");
        assert_eq!(r.logits, expected[i], "request {i}");
    }
    server.shutdown();
}

/// A layer that panics when its input starts with NaN — a deterministic
/// stand-in for a kernel bug that faults a chosen request, where a
/// `FaultPlan` faults a chosen micro-batch.
#[derive(Debug)]
struct PanickingLayer {
    len: usize,
}

impl spg_convnet::layer::Layer for PanickingLayer {
    fn name(&self) -> &str {
        "nan-tripwire"
    }

    fn input_len(&self) -> usize {
        self.len
    }

    fn output_len(&self) -> usize {
        self.len
    }

    fn forward(
        &self,
        input: &[f32],
        output: &mut [f32],
        _scratch: &mut spg_convnet::workspace::ConvScratch,
    ) {
        assert!(!input[0].is_nan(), "NaN tripwire: simulated kernel crash");
        output.copy_from_slice(input);
    }

    fn backward(
        &self,
        _input: &[f32],
        _output: &[f32],
        grad_out: &[f32],
        grad_in: &mut [f32],
        _param_grads: &mut spg_tensor::Tensor,
        _scratch: &mut spg_convnet::workspace::ConvScratch,
    ) {
        grad_in.copy_from_slice(grad_out);
    }
}

fn tripwire_network(len: usize) -> Arc<Network> {
    Arc::new(Network::new(vec![Box::new(PanickingLayer { len })]).unwrap())
}

/// The tentpole guarantee, no feature flags needed: a panicking batch
/// fails with a typed `WorkerFault`, every other request still gets a
/// correct response, and the supervisor respawns the crashed worker.
#[test]
fn panicking_batch_is_isolated_and_worker_respawns() {
    let net = tripwire_network(4);
    // max_batch 1 pins the blast radius to exactly the poisoned request.
    let config = ServeConfig {
        workers: 2,
        max_batch: 1,
        max_delay: Duration::ZERO,
        restart_backoff: Duration::ZERO,
        ..ServeConfig::default()
    };
    let server = Server::start(Arc::clone(&net), &[], config).unwrap();

    let good: Vec<_> = (0..6)
        .map(|s| {
            let input = sample_input(4, s);
            let p = server.submit_timeout(input.clone(), Duration::from_secs(10)).unwrap();
            (input, p)
        })
        .collect();
    let poison =
        server.submit_timeout(vec![f32::NAN, 0.0, 0.0, 0.0], Duration::from_secs(10)).unwrap();
    // Submitted after the poison pill: proves the pool keeps serving.
    let after: Vec<_> = (6..12)
        .map(|s| {
            let input = sample_input(4, s);
            let p = server.submit_timeout(input.clone(), Duration::from_secs(10)).unwrap();
            (input, p)
        })
        .collect();

    for (input, p) in good.into_iter().chain(after) {
        let r = p.wait().expect("healthy requests survive a neighbour's panic");
        assert_eq!(r.logits, input, "identity layer must echo the input bit-for-bit");
    }
    match poison.wait() {
        Err(ServeError::WorkerFault { worker, batch, message }) => {
            assert!(worker < 2);
            assert!(batch >= 1);
            assert!(message.contains("NaN tripwire"), "panic message survives: {message}");
        }
        other => panic!("expected WorkerFault, got {other:?}"),
    }
    // The supervisor bumps the restart counter just before respawning,
    // so the faulted reply can race a step ahead of it: wait for it.
    assert!(server.wait_restarts(1, Duration::from_secs(5)), "the worker was respawned");
    assert_eq!(server.restarts(), 1, "one respawn");
    assert_eq!(server.faulted_batches(), 1, "one faulted batch");
    server.shutdown();
}

/// `restart_budget: 0` retires the slot instead of respawning: the fault
/// still only fails its own batch, and the restart counter stays at zero.
#[test]
fn exhausted_restart_budget_retires_the_worker() {
    let net = tripwire_network(4);
    let config = ServeConfig {
        workers: 1,
        max_batch: 1,
        max_delay: Duration::ZERO,
        restart_budget: 0,
        ..ServeConfig::default()
    };
    let server = Server::start(Arc::clone(&net), &[], config).unwrap();
    let poison =
        server.submit_timeout(vec![f32::NAN, 0.0, 0.0, 0.0], Duration::from_secs(10)).unwrap();
    assert!(matches!(poison.wait(), Err(ServeError::WorkerFault { .. })));
    // The only slot is retired; an accepted request can no longer be
    // served and must surface as Disconnected once the server goes away.
    let orphan = server.try_submit(sample_input(4, 1)).unwrap();
    assert_eq!(server.restarts(), 0);
    assert_eq!(server.faulted_batches(), 1);
    server.shutdown();
    assert!(matches!(orphan.wait(), Err(ServeError::Disconnected)));
}
