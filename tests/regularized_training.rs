//! Integration: networks with the regularization layers (dropout, LRN)
//! train end to end, persist, and feed the sparse backward kernels the
//! extra gradient sparsity dropout creates.

use spg_cnn::convnet::data::Dataset;
use spg_cnn::convnet::{io, ConvScratch, Network, SampleTrace, Trainer, TrainerConfig};
use spg_cnn::core::autotune::{Framework, TuningMode};
use spg_cnn::core::config::NetworkDescription;
use spg_cnn::tensor::Shape3;

const NET: &str = r#"
    name: "regularized"
    input { channels: 2 height: 12 width: 12 }
    conv  { features: 8 kernel: 3 }
    lrn   { size: 3 }
    relu  { }
    pool  { window: 2 }
    fc    { outputs: 8 }
    dropout { rate_pct: 30 }
    fc    { outputs: 3 }
"#;

#[test]
fn regularized_network_trains_with_optimized_kernels() {
    let desc = NetworkDescription::parse(NET).expect("valid text");
    let mut net = desc.build(11).expect("valid net");
    Framework::new(16, TuningMode::Heuristic, 1).plan_network(&mut net, 0.9);

    let mut data = Dataset::synthetic(Shape3::new(2, 12, 12), 3, 30, 0.1, 31);
    let trainer = Trainer::new(TrainerConfig {
        epochs: 8,
        learning_rate: 0.08,
        momentum: 0.9,
        batch_size: 6,
        sample_threads: 2,
        shuffle_seed: 5,
        ..TrainerConfig::default()
    });
    let stats = trainer.train(&mut net, &mut data);
    let (first, last) = (&stats[0], stats.last().expect("epochs ran"));
    assert!(last.mean_loss < first.mean_loss, "{} -> {}", first.mean_loss, last.mean_loss);
    assert!(last.accuracy > 0.5, "accuracy {}", last.accuracy);
}

#[test]
fn dropout_adds_gradient_sparsity_at_the_conv_layer() {
    let with_dropout = NetworkDescription::parse(NET).expect("valid text");
    let without: String = NET.replace("dropout { rate_pct: 30 }", "relu { }");
    let without = NetworkDescription::parse(&without).expect("valid text");

    let run = |desc: &NetworkDescription| {
        let mut net = desc.build(11).expect("valid net");
        let mut data = Dataset::synthetic(Shape3::new(2, 12, 12), 3, 30, 0.1, 31);
        let trainer = Trainer::new(TrainerConfig { epochs: 2, ..TrainerConfig::default() });
        let stats = trainer.train(&mut net, &mut data);
        stats.last().expect("epochs ran").conv_grad_sparsity[0]
    };
    let s_with = run(&with_dropout);
    let s_without = run(&without);
    assert!(
        s_with >= s_without - 0.02,
        "dropout should not reduce conv gradient sparsity: {s_with} vs {s_without}"
    );
}

#[test]
fn regularized_network_round_trips_through_weight_files() {
    let desc = NetworkDescription::parse(NET).expect("valid text");
    let source = desc.build(11).expect("valid net");
    let mut buf = Vec::new();
    io::save_weights(&source, &mut buf).expect("in-memory write succeeds");

    let mut restored = desc.build(99).expect("valid net"); // different init
    io::load_weights(&mut restored, buf.as_slice()).expect("structurally identical");

    let logits = |net: &Network| {
        let mut trace = SampleTrace::for_network(net);
        net.forward_sample(&vec![0.2; net.input_len()], &mut trace, &mut ConvScratch::new());
        trace.logits().clone()
    };
    assert_eq!(logits(&source).as_slice(), logits(&restored).as_slice());
}
