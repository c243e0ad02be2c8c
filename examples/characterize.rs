//! Characterize a convolution the way the paper's Sec. 3 does: compute
//! its arithmetic intensities, place it in the Fig. 1 design space, show
//! how Parallel-GEMM partitioning erodes its per-core AIT, and print the
//! stencil basic block the code generator would emit for it.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example characterize
//! ```

use spg_cnn::convnet::ConvSpec;
use spg_cnn::core::ait::{conv_gemm_dims, conv_training_ait_per_core};
use spg_cnn::core::region::classify;
use spg_cnn::core::schedule::recommended_plan;
use spg_cnn::core::stencil::{plan_register_tile, render_basic_block};

fn main() {
    // CIFAR-10 layer 1 (Table 2): the kind of small convolution that the
    // conventional approach serves worst.
    let spec = ConvSpec::square(8, 64, 64, 5, 1);
    println!("convolution: {spec}");
    println!();

    println!("-- Sec. 3.1: arithmetic intensity --");
    println!("arithmetic ops |A|      : {}", spec.arithmetic_ops());
    println!("intrinsic AIT           : {:.1}", spec.intrinsic_ait());
    println!("Unfold+GEMM AIT         : {:.1}", spec.unfold_ait());
    println!("unfold traffic blow-up  : {:.1}x", spec.unfold_blowup());
    println!();

    println!("-- Sec. 3.2: AIT per core under Parallel-GEMM --");
    let dims = conv_gemm_dims(&spec);
    println!("forward GEMM dims       : {:?}", dims.forward);
    for cores in [1usize, 2, 4, 8, 16] {
        println!(
            "  {cores:>2} cores -> mean AIT/core {:.1}",
            conv_training_ait_per_core(&spec, cores)
        );
    }
    println!();

    println!("-- Fig. 1 placement and Sec. 4.4 plan --");
    for sparsity in [0.0, 0.85] {
        let region = classify(&spec, sparsity);
        let plan = recommended_plan(&spec, sparsity);
        println!("  sparsity {sparsity:.2}: {region} -> {plan}");
    }
    println!();

    println!("-- Sec. 4.2: generated sparse backward kernel --");
    let lanes = spg_cnn::gemm::detect_simd_level().lanes();
    for line in spg_cnn::core::sparse::render_backward_kernel(&spec, 64, lanes).lines() {
        println!("  {line}");
    }
    println!();

    println!("-- Sec. 4.3: generated stencil basic block --");
    // At the lane width this host's dispatch runs the layer with.
    let lanes = spg_cnn::codegen::lookup(&spec).map_or(spg_cnn::check::VECTOR_WIDTH, |k| k.lanes());
    let plan = plan_register_tile(&spec, lanes).expect("4-wide rows fit a tile at both widths");
    println!("register tile: {plan}");
    let listing = render_basic_block(&spec, Some(plan));
    // The full listing for a 5x5 kernel is long; show its head.
    for line in listing.lines().take(14) {
        println!("  {line}");
    }
    println!("  ... ({} more lines)", listing.lines().count().saturating_sub(14));
}
