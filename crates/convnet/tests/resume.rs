//! Training resumes from [`Progress`]: a run whose fold fails at some
//! `(epoch, batch)` holds exactly the last committed batch, and handing
//! that progress back to [`Trainer::run`] — on the dataset in its original
//! order, with a fresh fold — finishes with the bits of a run that was
//! never interrupted, at every interruption point.

use std::ops::Range;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use spg_convnet::data::Dataset;
use spg_convnet::layer::{ConvLayer, FcLayer, ReluLayer};
use spg_convnet::sgd::{BatchAcc, BatchFold, Folded, LocalFold, Progress};
use spg_convnet::{ConvSpec, EpochStats, Network, Trainer, TrainerConfig};
use spg_tensor::Shape3;

const EPOCHS: usize = 2;
const BATCHES: usize = 3;
const BATCH: usize = 4;

fn network() -> Network {
    let mut rng = SmallRng::seed_from_u64(31);
    let spec = ConvSpec::new(1, 8, 8, 4, 3, 3, 1, 1).unwrap();
    let conv_out = spec.output_shape().len();
    Network::new(vec![
        Box::new(ConvLayer::new(spec, &mut rng)),
        Box::new(ReluLayer::new(conv_out)),
        Box::new(FcLayer::new(conv_out, 3, &mut rng)),
    ])
    .unwrap()
}

/// The dataset in its original order.
fn dataset() -> Dataset {
    Dataset::synthetic(Shape3::new(1, 8, 8), 3, BATCH * BATCHES, 0.15, 9)
}

/// Momentum on, so the resumed run also needs the velocity it was handed.
fn trainer() -> Trainer {
    Trainer::new(TrainerConfig {
        epochs: EPOCHS,
        batch_size: BATCH,
        momentum: 0.9,
        ..TrainerConfig::default()
    })
}

/// The shipped local fold, failing once at `at`.
struct FailOnce {
    inner: LocalFold,
    at: Option<(usize, usize)>,
}

impl FailOnce {
    /// The shipped fold for `net` at the default config.
    fn new(net: &Network, at: Option<(usize, usize)>) -> Self {
        FailOnce { inner: LocalFold::for_rank(net, &TrainerConfig::default()), at }
    }
}

#[derive(Debug)]
struct Interrupted;

impl BatchFold for FailOnce {
    type Error = Interrupted;

    fn fold(
        &mut self,
        net: &Network,
        data: &Dataset,
        epoch: usize,
        batch: usize,
        samples: Range<usize>,
        acc: &mut BatchAcc,
    ) -> Result<Folded<'_>, Interrupted> {
        if self.at == Some((epoch, batch)) {
            self.at = None;
            return Err(Interrupted);
        }
        Ok(self.inner.fold(net, data, epoch, batch, samples, acc).expect("the local fold folds"))
    }
}

/// Everything an epoch reports except its wall-clock throughput.
fn bits(stats: &[EpochStats]) -> Vec<(usize, u64, u64, Vec<u64>)> {
    let sparsity = |s: &EpochStats| s.conv_grad_sparsity.iter().map(|x| x.to_bits()).collect();
    stats
        .iter()
        .map(|s| (s.epoch, s.mean_loss.to_bits(), s.accuracy.to_bits(), sparsity(s)))
        .collect()
}

fn weights(net: &Network) -> Vec<Vec<u32>> {
    let layer_bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect();
    net.layers().iter().filter_map(|l| l.params()).map(layer_bits).collect()
}

#[test]
fn a_run_resumed_from_its_progress_matches_an_uninterrupted_run() {
    let trainer = trainer();
    let mut clean = network();
    let mut progress = Progress::fresh(&clean);
    let mut fold = FailOnce::new(&clean, None);
    trainer.run(&mut clean, &mut dataset(), &mut fold, &mut progress, |_, _| {}).unwrap();
    let (want_stats, want_weights) = (bits(&progress.stats), weights(&clean));
    assert_eq!(want_stats.len(), EPOCHS);

    for at in (1..=EPOCHS).flat_map(|epoch| (0..BATCHES).map(move |batch| (epoch, batch))) {
        let mut net = network();
        let mut progress = Progress::fresh(&net);
        let mut fold = FailOnce::new(&net, Some(at));
        let first = trainer.run(&mut net, &mut dataset(), &mut fold, &mut progress, |_, _| {});
        assert!(first.is_err(), "{at:?}: the fold must fail");
        assert_eq!((progress.next_epoch, progress.next_batch), at, "{at:?}: committed batches");

        let mut fresh = FailOnce::new(&net, None);
        trainer.run(&mut net, &mut dataset(), &mut fresh, &mut progress, |_, _| {}).unwrap();
        assert_eq!(bits(&progress.stats), want_stats, "{at:?}: epoch stats");
        assert_eq!(weights(&net), want_weights, "{at:?}: weights");
    }
}
