//! A steady-state ring step allocates nothing that grows with the model.
//!
//! Counts, under a counting global allocator, the heap requests at least
//! half a gradient large made by whole `train_in_proc` runs. Set-up makes
//! some (networks, workspaces, the summed spans, the record slots that
//! gathered layers cross the ring in, link buffers); the count must not
//! depend on how many steps the run then takes. At batch 9 the net's FC
//! 256→96 crosses the ring gathered, as records, and FC 96→4 summed, so
//! both forms run. This file holds one test on purpose: the counter is
//! global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use spg_cluster::{train_in_proc, InProcTrainOptions};
use spg_convnet::data::Dataset;
use spg_convnet::layer::{FcLayer, ReluLayer};
use spg_convnet::{Network, TrainerConfig};
use spg_tensor::Shape3;

/// The net below has 256·96 + 96 + 96·4 + 4 = 25 060 parameters: a
/// gradient, a weight snapshot or a momentum buffer is ~100 KB.
const GRADIENT_BYTES: usize = 25_060 * 4;

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

fn make_net() -> Result<Network, spg_error::Error> {
    let mut rng = SmallRng::seed_from_u64(5);
    Network::new(vec![
        Box::new(FcLayer::new(256, 96, &mut rng)),
        Box::new(ReluLayer::new(96)),
        Box::new(FcLayer::new(96, 4, &mut rng)),
    ])
    .map_err(|e| spg_error::Error::new(spg_error::ErrorKind::InvalidNetwork, e.to_string()))
}

/// Large heap requests made by a `world`-rank run of `steps` one-batch
/// epochs, and the run's loss bits.
fn large_requests(data: &Dataset, world: usize, steps: usize) -> (usize, Vec<u64>) {
    let trainer = TrainerConfig {
        epochs: steps,
        batch_size: data.len(),
        momentum: 0.9,
        ..TrainerConfig::default()
    };
    let opts = InProcTrainOptions { world, ..InProcTrainOptions::default() };
    let before = LARGE_REQUESTS.load(Ordering::Relaxed);
    let stats = train_in_proc(&make_net, data, &trainer, &opts).expect("ring trains");
    let made = LARGE_REQUESTS.load(Ordering::Relaxed) - before;
    (made, stats.iter().map(|s| s.mean_loss.to_bits()).collect())
}

#[test]
fn ring_steps_make_no_gradient_sized_allocations() {
    let data = Dataset::synthetic(Shape3::new(1, 16, 16), 4, 9, 0.2, 11);
    for world in [1usize, 2, 3] {
        let (short, short_losses) = large_requests(&data, world, 2);
        let (long, long_losses) = large_requests(&data, world, 7);
        assert!(short > 0, "the counter sees set-up's gradient-sized buffers");
        assert_eq!(
            long,
            short,
            "world {world}: five extra steps made {} gradient-sized allocations",
            long.wrapping_sub(short)
        );
        assert_eq!(long_losses[..2], short_losses[..], "world {world}: same run, same bits");
    }
}
