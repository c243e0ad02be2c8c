//! The multi-thread trainer holds no per-sample dense gradient.
//!
//! Counts, under a counting global allocator, the heap requests at least
//! half a dense gradient large made by whole `try_train` runs at two
//! sample threads on a net whose parameters are almost all in one
//! fully-connected layer. The momentum buffer is the one such request:
//! the update pass sums the batch tile by tile and stores no batch
//! gradient, and no record set and no slot workspace is gradient-sized,
//! because a sample's record of that layer is `(δ, x)` — so the count
//! depends neither on how many steps the run takes **nor on the batch
//! size**. The same runs pin the update pass's fork budget and its bits.
//! This file holds one test on purpose: both counters are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use spg_convnet::data::Dataset;
use spg_convnet::layer::{FcLayer, ReluLayer};
use spg_convnet::{Network, Trainer, TrainerConfig};
use spg_tensor::Shape3;

/// 1024·1024 + 1024 parameters in the first layer, 10 250 in the second:
/// a dense gradient, or one sample's worth of it, is ~4.2 MB.
const GRADIENT_BYTES: usize = (1024 * 1024 + 1024 + 1024 * 10 + 10) * 4;

static LARGE_REQUESTS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn note(size: usize) {
        if size >= GRADIENT_BYTES / 2 {
            LARGE_REQUESTS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
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

/// What one run cost and computed.
#[derive(Debug, PartialEq)]
struct Run {
    large_requests: usize,
    forks: u64,
    losses: Vec<u64>,
}

/// `steps` one-batch epochs of `batch` samples on `threads` sample
/// threads; the net is built (and dropped) outside the counted region.
fn run(threads: usize, batch: usize, steps: usize) -> Run {
    let mut rng = SmallRng::seed_from_u64(5);
    let mut net = Network::new(vec![
        Box::new(FcLayer::new(1024, 1024, &mut rng)),
        Box::new(ReluLayer::new(1024)),
        Box::new(FcLayer::new(1024, 10, &mut rng)),
    ])
    .expect("layers chain");
    let mut data = Dataset::synthetic(Shape3::new(1, 32, 32), 10, batch, 0.2, 11);
    let trainer = Trainer::new(TrainerConfig {
        epochs: steps,
        batch_size: batch,
        momentum: 0.9,
        sample_threads: threads,
        ..TrainerConfig::default()
    });
    let (requests, forks) = (LARGE_REQUESTS.load(Ordering::Relaxed), spg_sync::fork_join_spawns());
    let stats = trainer.try_train(&mut net, &mut data).expect("no worker faults");
    Run {
        large_requests: LARGE_REQUESTS.load(Ordering::Relaxed) - requests,
        forks: spg_sync::fork_join_spawns() - forks,
        losses: stats.iter().map(|s| s.mean_loss.to_bits()).collect(),
    }
}

#[test]
fn pooled_steps_hold_no_dense_per_sample_gradient() {
    let short = run(2, 4, 2);
    let long = run(2, 4, 6);
    let wide = run(2, 16, 2);
    assert_eq!(short.large_requests, 1, "the momentum buffer, and no batch accumulator");
    assert_eq!(long.large_requests, short.large_requests, "four extra steps");
    assert_eq!(wide.large_requests, short.large_requests, "four times the result slots");

    // Two forks a step: the second slot's block of samples, and — one
    // layer is above the fork floor at either batch size — the update
    // pass's second range on that slot's core.
    assert_eq!((short.forks, long.forks, wide.forks), (4, 12, 4));

    for (pooled, (batch, steps)) in [(&short, (4, 2)), (&long, (4, 6)), (&wide, (16, 2))] {
        let solo = run(1, batch, steps);
        assert_eq!(solo.forks, 0, "one sample thread runs and folds on its own core");
        assert_eq!(solo.losses, pooled.losses, "batch {batch}: two update ranges vs one");
        assert_eq!(solo.large_requests, pooled.large_requests);
    }
}
