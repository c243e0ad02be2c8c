//! Cross-crate integration: a network described in text, planned by the
//! spg-CNN framework, trained on synthetic data with every optimized
//! kernel engaged, must learn — and must learn the *same function* the
//! baseline kernels learn.

use spg_cnn::convnet::data::Dataset;
use spg_cnn::convnet::{Network, Trainer, TrainerConfig};
use spg_cnn::core::autotune::{Framework, TuningMode};
use spg_cnn::core::config::NetworkDescription;
use spg_cnn::tensor::Shape3;

const NET: &str = r#"
    name: "integration"
    input { channels: 1 height: 12 width: 12 }
    conv  { features: 6 kernel: 3 }
    relu  { }
    pool  { window: 2 }
    fc    { outputs: 3 }
"#;

fn dataset() -> Dataset {
    Dataset::synthetic(Shape3::new(1, 12, 12), 3, 36, 0.1, 2024)
}

fn train(net: &mut Network, threads: usize) -> Vec<spg_cnn::convnet::EpochStats> {
    let trainer = Trainer::new(TrainerConfig {
        epochs: 6,
        learning_rate: 0.08,
        batch_size: 6,
        sample_threads: threads,
        momentum: 0.0,
        shuffle_seed: 7,
        ..TrainerConfig::default()
    });
    trainer.train(net, &mut dataset())
}

#[test]
fn baseline_network_learns() {
    let mut net = NetworkDescription::parse(NET).expect("valid text").build(5).expect("valid net");
    let stats = train(&mut net, 1);
    let (first, last) = (&stats[0], stats.last().expect("epochs ran"));
    assert!(last.mean_loss < first.mean_loss, "{} -> {}", first.mean_loss, last.mean_loss);
    assert!(last.accuracy > 0.6, "accuracy {}", last.accuracy);
}

#[test]
fn optimized_network_matches_baseline_trajectory() {
    // Same seed, same data, same schedule of updates: swapping in the
    // stencil forward and sparse backward executors must not change the
    // math, so the loss trajectories agree to f32 noise.
    let desc = NetworkDescription::parse(NET).expect("valid text");
    let mut baseline = desc.build(5).expect("valid net");
    let mut optimized = desc.build(5).expect("valid net");
    Framework::new(16, TuningMode::Heuristic, 1).plan_network(&mut optimized, 0.9);

    let base_stats = train(&mut baseline, 1);
    let opt_stats = train(&mut optimized, 1);
    for (b, o) in base_stats.iter().zip(&opt_stats) {
        assert!(
            (b.mean_loss - o.mean_loss).abs() < 1e-3,
            "epoch {}: baseline {} vs optimized {}",
            b.epoch,
            b.mean_loss,
            o.mean_loss
        );
    }
}

#[test]
fn gemm_in_parallel_sample_threads_preserve_learning() {
    let desc = NetworkDescription::parse(NET).expect("valid text");
    let mut net = desc.build(5).expect("valid net");
    let stats = train(&mut net, 4);
    assert!(stats.last().expect("epochs ran").accuracy > 0.6);
}

#[test]
fn gradient_sparsity_stays_high_once_trained() {
    let desc = NetworkDescription::parse(NET).expect("valid text");
    let mut net = desc.build(5).expect("valid net");
    let stats = train(&mut net, 1);
    let final_sparsity = stats.last().expect("epochs ran").conv_grad_sparsity[0];
    assert!(final_sparsity > 0.3, "conv gradient sparsity {final_sparsity}");
}

#[test]
fn framework_retunes_to_sparse_backward_during_training() {
    let desc = NetworkDescription::parse(NET).expect("valid text");
    let mut net = desc.build(5).expect("valid net");
    let framework = Framework::new(16, TuningMode::Heuristic, 1);
    framework.plan_network(&mut net, 0.0); // start dense

    let trainer = Trainer::new(TrainerConfig {
        epochs: 6,
        learning_rate: 0.08,
        batch_size: 6,
        sample_threads: 1,
        momentum: 0.0,
        shuffle_seed: 7,
        ..TrainerConfig::default()
    });
    let mut data = dataset();
    trainer.train_with(&mut net, &mut data, |net, stats| framework.retune(net, stats));

    // If the measured sparsity crossed the 0.75 threshold, the backward
    // executor must have been swapped to the sparse kernel.
    let conv = net.layers_mut()[0].as_conv_mut().expect("first layer is conv");
    let (_, bwd) = conv.executor_names();
    // Either outcome is legitimate depending on the measured sparsity,
    // but the executor must be one of the two backward candidates.
    assert!(bwd == "sparse-bp" || bwd == "unfold+gemm", "unexpected executor {bwd}");
}

/// A heuristic retune leaves one backward decision per conv layer in the
/// decision log. On the scaled CIFAR-10 net conv0's gradient is mostly
/// zeros (a max-pool follows its ReLU), so the epoch-2 retune deploys the
/// sparse kernel there, and the log says so with the sparsity it saw.
#[test]
fn heuristic_retune_logs_the_deployed_backward() {
    use spg_cnn::convnet::data::Dataset;
    use spg_cnn::workloads::networks::{build_scaled, scaled_description};
    use spg_cnn::workloads::table2::Benchmark;

    spg_cnn::telemetry::set_enabled(true);
    let bench = Benchmark::Cifar10;
    let shape = NetworkDescription::parse(&scaled_description(bench)).expect("parses").input;
    let mut net = build_scaled(bench, 42).expect("built-in description builds");
    let mut data = Dataset::synthetic(shape, 8, 16, 0.15, 42);
    let framework = Framework::new(1, TuningMode::Heuristic, 2);
    framework.plan_network(&mut net, 0.0);
    let config = TrainerConfig { epochs: 2, batch_size: 8, ..TrainerConfig::default() };
    let mut observed = None;
    Trainer::new(config).train_with(&mut net, &mut data, |net, stats| {
        if stats.epoch == 2 {
            observed = Some(stats.conv_grad_sparsity[0]);
        }
        framework.retune(net, stats);
    });
    let sparsity = observed.expect("epoch 2 ran");
    assert!(sparsity > 0.75, "conv0 gradient sparsity {sparsity}");
    let label = spg_cnn::convnet::scope_label(0, net.layers()[0].name());
    let logged = spg_cnn::telemetry::snapshot().decisions;
    let decision = logged
        .iter()
        .rev()
        .find(|d| d.label == label && d.sparsity == sparsity)
        .unwrap_or_else(|| panic!("no decision for {label} at {sparsity}: {logged:?}"));
    assert_eq!(decision.phase, spg_cnn::telemetry::Phase::Backward);
    assert_eq!(decision.chosen, "sparse-bp");
    assert_eq!(decision.cores, 1);
    assert!(decision.candidates.is_empty());
    let (_, bwd) = net.layers_mut()[0].as_conv_mut().expect("conv0").executor_names();
    assert_eq!(bwd, "sparse-bp");
}
