//! The core budget decides how many threads a sample's walk uses, never
//! its bits: `Engine::forward` at any worker count, `Network::forward`,
//! `Engine::infer`, a `Server` on the same plans and concurrent callers of
//! one engine all produce the same logits on the three scaled benchmark
//! nets — a banded stencil, a narrow stencil and row-banded GEMM layers
//! between them.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use spg_cnn::convnet::{Engine, Network};
use spg_cnn::core::autotune::{Framework, TuningMode};
use spg_cnn::core::schedule::LayerPlan;
use spg_cnn::serve::{ServeConfig, Server};
use spg_cnn::tensor::Tensor;
use spg_cnn::workloads::networks::build_scaled;
use spg_cnn::workloads::table2::Benchmark;

const BENCHMARKS: [Benchmark; 3] =
    [Benchmark::ImageNet22K, Benchmark::ImageNet1K, Benchmark::Cifar10];

/// `bench`'s scaled net, planned for forward at `workers` cores, behind an
/// engine of as many workers; plus the plans installed.
fn engine(bench: Benchmark, workers: usize) -> (Engine, Vec<(usize, LayerPlan)>) {
    let mut net = build_scaled(bench, 19).expect("built-in description builds");
    let plans = Framework::new(workers, TuningMode::Heuristic, 1).plan_network_forward(&mut net);
    let engine = Engine::builder().network(net).workers(workers).build().expect("engine builds");
    (engine, plans)
}

fn inputs(net: &Network, count: usize) -> Vec<Vec<f32>> {
    (0..count)
        .map(|s| {
            (0..net.input_len()).map(|i| (((i * 31 + s * 17) % 23) as f32 - 11.0) / 7.0).collect()
        })
        .collect()
}

fn bits(logits: &[f32]) -> Vec<u32> {
    logits.iter().map(|v| v.to_bits()).collect()
}

fn argmax(logits: &[f32]) -> usize {
    (1..logits.len()).fold(0, |best, i| if logits[i] > logits[best] { i } else { best })
}

#[test]
fn forward_bits_do_not_depend_on_the_worker_count() {
    for bench in BENCHMARKS {
        let samples = inputs(engine(bench, 1).0.network(), 3);
        let mut reference: Option<Vec<Vec<u32>>> = None;
        for workers in 1..=4 {
            let (engine, plans) = engine(bench, workers);
            let logits: Vec<Vec<f32>> =
                samples.iter().map(|x| engine.forward(x).expect("input fits").into_vec()).collect();
            let got: Vec<Vec<u32>> = logits.iter().map(|l| bits(l)).collect();
            // The walk with no spare cores, on the same plans.
            for (x, want) in samples.iter().zip(&got) {
                let trace = engine.network().forward(&Tensor::from_vec(x.clone()));
                assert_eq!(&bits(trace.logits().as_slice()), want, "{bench:?} x{workers}");
            }
            // Every worker count, planned for its own core count.
            let reference = reference.get_or_insert_with(|| got.clone());
            assert_eq!(&got, reference, "{bench:?}: {workers} workers vs 1");

            // `infer` below, at, and above the point where samples run out
            // before workers do.
            let classes: Vec<usize> = logits.iter().map(|l| argmax(l)).collect();
            for count in [1, workers.saturating_sub(1).max(1), workers, 3 * workers] {
                let batch: Vec<Tensor> =
                    (0..count).map(|i| Tensor::from_vec(samples[i % 3].clone())).collect();
                let want: Vec<usize> = (0..count).map(|i| classes[i % 3]).collect();
                assert_eq!(engine.infer(&batch), want, "{bench:?} x{workers}, {count} inputs");
            }

            // Serving workers compile the same plans at one core each.
            let config = ServeConfig {
                workers,
                max_batch: 2,
                max_delay: Duration::from_millis(1),
                queue_capacity: 8,
                ..ServeConfig::default()
            };
            let server =
                Server::start(engine.into_shared(), &plans, config).expect("plans compile");
            for (x, want) in samples.iter().zip(&got) {
                let reply = server
                    .submit_timeout(x.clone(), Duration::from_secs(10))
                    .expect("queue has room")
                    .wait()
                    .expect("worker alive");
                assert_eq!(&bits(&reply.logits), want, "{bench:?} x{workers}: served");
            }
            server.shutdown();
        }
    }
}

/// Four callers released together into one engine's `forward`: one takes
/// the warm buffers, the rest build their own, and every call returns the
/// bits a lone caller gets.
#[test]
fn concurrent_callers_of_one_engine_get_the_same_bits() {
    let (engine, _) = engine(Benchmark::ImageNet22K, 2);
    let samples = inputs(engine.network(), 4);
    let alone: Vec<Vec<u32>> =
        samples.iter().map(|x| bits(engine.forward(x).expect("input fits").as_slice())).collect();
    let (engine, start) = (Arc::new(engine), Barrier::new(4));
    std::thread::scope(|scope| {
        let callers: Vec<_> = (0..4)
            .map(|caller| {
                let (engine, start, samples, alone) = (&engine, &start, &samples, &alone);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..8 {
                        let i = (caller + round) % samples.len();
                        let logits = engine.forward(&samples[i]).expect("input fits");
                        assert_eq!(
                            bits(logits.as_slice()),
                            alone[i],
                            "caller {caller} round {round}"
                        );
                    }
                })
            })
            .collect();
        callers.into_iter().for_each(|caller| caller.join().expect("caller finished"));
    });
}
