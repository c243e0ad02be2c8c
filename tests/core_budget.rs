//! The core budget decides how many threads a sample's walk uses, never
//! its bits: `Engine::forward` at any worker count, `Network::forward_sample`,
//! `Engine::infer`, a `Server` on the same plans and concurrent callers of
//! one engine all produce the same logits on the three scaled benchmark
//! nets — banded stencils on wide and narrow rows and row-banded GEMM
//! layers between them.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use spg_cnn::convnet::data::Dataset;
use spg_cnn::convnet::{argmax, ConvScratch, Engine, Network, SampleTrace};
use spg_cnn::core::autotune::{Framework, TuningMode};
use spg_cnn::core::config::NetworkDescription;
use spg_cnn::core::schedule::LayerPlan;
use spg_cnn::gemm::{detect_simd_level, SimdLevel};
use spg_cnn::serve::{ServeConfig, Server};
use spg_cnn::tensor::Tensor;
use spg_cnn::workloads::networks::{build_scaled, scaled_description};
use spg_cnn::workloads::table2::Benchmark;

const BENCHMARKS: [Benchmark; 3] =
    [Benchmark::ImageNet22K, Benchmark::ImageNet1K, Benchmark::Cifar10];

/// `bench`'s scaled net, planned for forward at `workers` cores, behind an
/// engine of as many workers; plus the plans installed.
fn engine(bench: Benchmark, workers: usize) -> (Engine, Vec<(usize, LayerPlan)>) {
    let mut net = build_scaled(bench, 19).expect("built-in description builds");
    let plans = Framework::new(workers, TuningMode::Heuristic, 1)
        .try_plan_network_forward(&mut net)
        .unwrap();
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
                let net = engine.network();
                let mut trace = SampleTrace::for_network(net);
                net.forward_sample(x, &mut trace, &mut ConvScratch::new());
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

            // Serving workers run the same walk over the same installed
            // plans, at one core each.
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

/// `Engine::forward` logits of the three scaled nets (seed 42, heuristic
/// plans, first image of the seed-42 synthetic set) as recorded when the
/// stencil loop nest became single-source — CIFAR-10's when its 3-wide
/// conv1 left the narrow shifted-GEMM kernel for that loop nest. The worker-count test above
/// compares runs with each other; this pins them to words on the page, so
/// a change of summation order in any layer shows.
#[test]
fn forward_logits_match_the_recorded_words() {
    if detect_simd_level() < SimdLevel::Avx2Fma {
        eprintln!("skipping: the words were recorded with fused multiply-adds");
        return;
    }
    let recorded = [
        "bc207556 bc7430c0 3cb6ce80 ba0e128a 3d22606f bd56e3b0 bc67cbf1 bd7ecde7 3a81a8ce \
         3d02827d bc190f3d bda28cdf bd5c79c8 bd10b6c7 bd05d1b5 3d15d817 3db9a853 3dcd3b74 \
         3db9ba87 3e3674a2",
        "bdba35bd bd60d01d bd75d017 3e1e45c9 ba040880 bc10b540 bcace1da 3df3a301 bb51ee60 \
         bdc8f04b bde35f19 3d137181 3da5e38a 3d67482f bda39864 3d3ed470 be2b8d0b bd11870f \
         3c773d02 3e056690",
        "3e0e83d4 bc444b88 3e9ddc9c 3e278a71 be358217 bb368760 bd01e06a 3dbba444 bdc0f43e 3c922e08",
    ];
    for (bench, want) in BENCHMARKS.into_iter().zip(recorded) {
        let shape = NetworkDescription::parse(&scaled_description(bench)).expect("parses").input;
        let image = Dataset::synthetic(shape, 8, 4, 0.15, 42).image(0).as_slice().to_vec();
        for workers in [1, 2] {
            let mut net = build_scaled(bench, 42).expect("built-in description builds");
            Framework::new(workers, TuningMode::Heuristic, 1)
                .try_plan_network_forward(&mut net)
                .unwrap();
            let engine =
                Engine::builder().network(net).workers(workers).build().expect("engine builds");
            let logits = engine.forward(&image).expect("input fits");
            let got: Vec<String> =
                bits(logits.as_slice()).iter().map(|w| format!("{w:08x}")).collect();
            assert_eq!(got.join(" "), want, "{bench:?} x{workers}");
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
