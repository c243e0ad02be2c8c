//! A warm training walk allocates nothing with telemetry off, and neither
//! does a warm step's update pass.
//!
//! Counts, under a counting global allocator, every heap request made by
//! forward and backward walks of a conv/relu/pool/fc net after one warm-up
//! call: the trainer's block walk (`process_block`, the only way a sample
//! is trained, which writes the loss gradient in place), at a block of one
//! and of three. Then, in a momentum run of the trainer's own loop, the
//! requests between one batch's fold and the next: the update pass, which
//! sums and applies the batch in tiles the fold owns. Telemetry is off, so each instrumentation site is one
//! relaxed load — no scope label is formatted. The convs run the executors the heuristic plans at budget 1:
//! the stencil forward on the 4-feature layer, the GEMM forward on the
//! 128-feature one and the GEMM backward on both, every GEMM packing its
//! panels into the workspace's scratch. This file holds one test on
//! purpose: the counter is global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use spg_cnn::convnet::data::Dataset;
use spg_cnn::convnet::layer::{ConvLayer, FcLayer, MaxPoolLayer, ReluLayer};
use std::ops::Range;

use spg_cnn::convnet::sgd::{process_block, BatchAcc, BatchFold, Folded, LocalFold, Progress};
use spg_cnn::convnet::workspace::record_buffers;
use spg_cnn::convnet::{ConvSpec, Network, TrainError, Trainer, TrainerConfig, Workspace};
use spg_cnn::core::autotune::{Framework, TuningMode};
use spg_cnn::core::schedule::Technique;
use spg_cnn::tensor::{Shape3, Tensor};

static REQUESTS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (that is, from `System`) with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// conv(4) / relu / conv(128) / relu / pool / fc / relu / fc, planned by
/// the heuristic for a one-core sample at gradient sparsity 0.
fn make_net() -> Network {
    let mut rng = SmallRng::seed_from_u64(9);
    let narrow = ConvSpec::new(1, 12, 12, 4, 3, 3, 1, 1).expect("valid spec");
    let wide = ConvSpec::new(4, 10, 10, 128, 3, 3, 1, 1).expect("valid spec");
    let out = wide.output_shape();
    let pooled = MaxPoolLayer::new(Shape3::new(out.c, out.h, out.w), 2).expect("valid pool");
    let flat = pooled.out_shape().len();
    let mut net = Network::new(vec![
        Box::new(ConvLayer::new(narrow, &mut rng)),
        Box::new(ReluLayer::new(narrow.output_shape().len())),
        Box::new(ConvLayer::new(wide, &mut rng)),
        Box::new(ReluLayer::new(out.len())),
        Box::new(pooled),
        Box::new(FcLayer::new(flat, 40, &mut rng)),
        Box::new(ReluLayer::new(40)),
        Box::new(FcLayer::new(40, 5, &mut rng)),
    ])
    .expect("layers chain");
    let plans = Framework::new(1, TuningMode::Heuristic, 1).plan_network(&mut net, 0.0);
    let techniques: Vec<_> = plans.iter().map(|(_, p)| (p.forward, p.backward)).collect();
    let (stencil, gemm) = (Technique::StencilFp, Technique::GemmInParallel);
    assert_eq!(techniques, [(stencil, gemm), (gemm, gemm)], "{plans:?}");
    net
}

/// The trainer's own fold, noting the request count as a fold returns and
/// as the next fold of the same epoch starts: between them lies the loop's
/// work on the batch, its update pass.
struct Between {
    inner: LocalFold,
    returned: Option<usize>,
    gaps: Vec<usize>,
}

impl BatchFold for Between {
    type Error = TrainError;

    fn fold(
        &mut self,
        net: &Network,
        data: &Dataset,
        epoch: usize,
        batch: usize,
        samples: Range<usize>,
        acc: &mut BatchAcc,
    ) -> Result<Folded<'_>, TrainError> {
        let started = REQUESTS.load(Ordering::Relaxed);
        if let Some(returned) = self.returned.take().filter(|_| batch > 0) {
            self.gaps.push(started - returned);
        }
        let folded = self.inner.fold(net, data, epoch, batch, samples, acc)?;
        self.returned = Some(REQUESTS.load(Ordering::Relaxed));
        Ok(folded)
    }
}

/// Heap requests `walk` makes over `reps` calls.
fn requests(reps: usize, mut walk: impl FnMut(usize)) -> usize {
    let before = REQUESTS.load(Ordering::Relaxed);
    for rep in 0..reps {
        walk(rep);
    }
    REQUESTS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_walks_allocate_nothing() {
    spg_telemetry::set_enabled(false);
    let net = make_net();
    let data = Dataset::synthetic(Shape3::new(1, 12, 12), 5, 8, 0.2, 3);
    let mut ws = Workspace::for_network(&net);

    // The trainer's walk, loss gradient included, at two block sizes.
    let slots = |k: usize| -> Vec<Vec<Tensor>> { (0..k).map(|_| record_buffers(&net)).collect() };
    let convs = net.layers().iter().filter(|l| l.conv_spec().is_some()).count();
    for k in [1, 3] {
        let (mut records, mut scalars) = (slots(k), vec![(0.0, false); k]);
        let mut sparsity = vec![0.0; k * convs];
        let mut block = |rep: usize| {
            let start = rep % (data.len() - k + 1);
            let (records, scalars) = (&mut records, &mut scalars);
            process_block(&net, &data, start..start + k, &mut ws, records, scalars, &mut sparsity);
        };
        block(0);
        assert_eq!(requests(6, &mut block), 0, "process_block of {k}");
    }

    // Two epochs of four batches: six update passes between folds.
    let mut net = net;
    let config = TrainerConfig { epochs: 2, batch_size: 2, momentum: 0.9, ..Default::default() };
    let mut fold = Between {
        inner: LocalFold::for_rank(&net, &TrainerConfig::default()),
        returned: None,
        gaps: vec![],
    };
    fold.gaps.reserve(8);
    let mut progress = Progress::fresh(&net);
    let mut data = data;
    Trainer::new(config).run(&mut net, &mut data, &mut fold, &mut progress, |_, _| {}).unwrap();
    assert_eq!(fold.gaps, [0; 6], "requests between folds");
}
