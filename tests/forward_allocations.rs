//! A warm served forward allocates nothing.
//!
//! Counts, under a counting global allocator, every heap request one
//! `Network::forward_sample` makes after a warm-up sample — what a serve
//! worker runs per request: the net's heuristic forward plans, a
//! one-sample trace, a fresh `ConvScratch` (core budget 1) and telemetry
//! off. On the full-scale CIFAR-10 net both conv layers run the stencil,
//! the 4-wide CIFAR-10 L1 included; on the scaled ImageNet-1K net the
//! 256-feature conv runs the GEMM, packing its image operand into the
//! scratch. This file holds
//! one test on purpose: the counter is global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use spg_cnn::convnet::workspace::ConvScratch;
use spg_cnn::convnet::SampleTrace;
use spg_cnn::core::autotune::{Framework, TuningMode};
use spg_cnn::core::config::NetworkDescription;
use spg_cnn::core::schedule::Technique;
use spg_cnn::workloads::networks;
use spg_cnn::workloads::table2::Benchmark;

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

/// Heap requests of three warm `forward_sample` calls through `desc`'s
/// net, planned by the heuristic; some conv plan's forward must be
/// `forward`.
fn warm_forward_requests(desc: &str, forward: Technique) -> usize {
    let desc = NetworkDescription::parse(desc).expect("built-in description parses");
    let mut net = desc.build(5).expect("built-in description builds");
    let plans =
        Framework::new(2, TuningMode::Heuristic, 1).try_plan_network_forward(&mut net).unwrap();
    assert!(plans.iter().any(|(_, p)| p.forward == forward), "{plans:?}");
    let input: Vec<f32> =
        (0..net.input_len()).map(|i| (((i * 31) % 23) as f32 - 11.0) / 7.0).collect();
    let mut trace = SampleTrace::for_network(&net);
    let mut scratch = ConvScratch::new();
    net.forward_sample(&input, &mut trace, &mut scratch);

    let before = REQUESTS.load(Ordering::Relaxed);
    for _ in 0..3 {
        net.forward_sample(&input, &mut trace, &mut scratch);
    }
    REQUESTS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_cifar10_forward_sample_allocates_nothing() {
    spg_cnn::telemetry::set_enabled(false);
    let stencil = networks::description(Benchmark::Cifar10);
    assert_eq!(warm_forward_requests(&stencil, Technique::StencilFp), 0, "CIFAR-10 (stencil)");
    let gemm = networks::scaled_description(Benchmark::ImageNet1K);
    assert_eq!(warm_forward_requests(&gemm, Technique::GemmInParallel), 0, "ImageNet-1K (GEMM)");
}
