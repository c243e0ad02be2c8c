//! Training-loss words on the page: the trainer-side twin of
//! `core_budget.rs`'s `forward_logits_match_the_recorded_words`.
//!
//! The determinism drills compare runs with each other (1 thread vs 4, ring
//! vs pool, fault vs clean); this pins the epoch losses of the three scaled
//! benchmark nets to literals, so a change of summation order anywhere in
//! the step — a kernel, the per-sample gradient, the batch fold, the
//! momentum update — shows even when every worker count changes together.

use spg_cnn::convnet::data::Dataset;
use spg_cnn::convnet::{Trainer, TrainerConfig};
use spg_cnn::core::autotune::{Framework, TuningMode};
use spg_cnn::core::config::NetworkDescription;
use spg_cnn::gemm::{detect_simd_level, SimdLevel};
use spg_cnn::workloads::networks::{build_scaled, scaled_description};
use spg_cnn::workloads::table2::Benchmark;

/// `(net, momentum, mean loss of epochs 1..=3)`, recorded at the commit
/// before per-sample gradient records and the range fold landed — except
/// CIFAR-10's, re-recorded when its 3-wide conv1 left the narrow
/// shifted-GEMM kernel for the tiled stencil. Two batches of 8 per epoch,
/// heuristic plans re-tuned after epoch 2.
const RECORDED: [(Benchmark, f32, [u64; 3]); 6] = [
    (
        Benchmark::Cifar10,
        0.0,
        [0x4002_6f85_0e00_0000, 0x4000_0485_7500_0000, 0x3ffa_cc99_a800_0000],
    ),
    (
        Benchmark::Cifar10,
        0.9,
        [0x4002_6f85_0e00_0000, 0x3ffc_bc4f_d000_0000, 0x3fec_0ff2_fd00_0000],
    ),
    (
        Benchmark::ImageNet1K,
        0.0,
        [0x4007_692a_b800_0000, 0x3ffe_a0eb_5e00_0000, 0x3fed_269a_f400_0000],
    ),
    (
        Benchmark::ImageNet1K,
        0.9,
        [0x4007_692a_b800_0000, 0x3ff4_47eb_e600_0000, 0x3fab_9cb0_6320_0000],
    ),
    (Benchmark::Mnist, 0.0, [0x4003_181a_a500_0000, 0x4000_e468_7f00_0000, 0x3ffd_d1bd_6e00_0000]),
    (Benchmark::Mnist, 0.9, [0x4003_181a_a500_0000, 0x3ffd_e5e3_cf00_0000, 0x3ff3_1249_6180_0000]),
];

#[test]
fn epoch_losses_match_the_recorded_words() {
    if detect_simd_level() < SimdLevel::Avx2Fma {
        eprintln!("skipping: the words were recorded with fused multiply-adds");
        return;
    }
    for (bench, momentum, want) in RECORDED {
        let shape = NetworkDescription::parse(&scaled_description(bench)).expect("parses").input;
        for workers in 1..=3 {
            let mut net = build_scaled(bench, 42).expect("built-in description builds");
            let mut data = Dataset::synthetic(shape, 8, 16, 0.15, 42);
            let framework = Framework::new(workers, TuningMode::Heuristic, 2);
            framework.plan_network(&mut net, 0.0);
            let config = TrainerConfig {
                epochs: 3,
                batch_size: 8,
                momentum,
                sample_threads: workers,
                ..TrainerConfig::default()
            };
            let stats = Trainer::new(config)
                .train_with(&mut net, &mut data, |net, stats| framework.retune(net, stats));
            let got: Vec<String> =
                stats.iter().map(|s| format!("{:#018x}", s.mean_loss.to_bits())).collect();
            let want: Vec<String> = want.iter().map(|w| format!("{w:#018x}")).collect();
            assert_eq!(got, want, "{bench:?} momentum {momentum} x{workers}");
        }
    }
}
