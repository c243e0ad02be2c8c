//! The goodput story (paper Sec. 3.3 / 4.2) on real kernels: measure how
//! dense backward propagation wastes throughput on sparse error
//! gradients, and how the CT-CSR pointer-shifting kernel converts
//! sparsity into wall-clock speedup — including the format-construction
//! and layout-transform costs.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example sparse_backprop
//! ```

use std::time::Instant;

use spg_cnn::convnet::workspace::ConvScratch;
use spg_cnn::convnet::{gemm_exec, reference, ConvSpec};
use spg_cnn::core::sparse::kernel as sparse;
use spg_cnn::core::sparse::DEFAULT_TILE_WIDTH;
use spg_cnn::tensor::layout::Kkfc;
use spg_cnn::workloads::synth::conv_operands;

fn time<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f(); // warm-up
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

fn main() {
    // A shrunken Table 1 ID 0 geometry: small features, Region 4/5.
    let spec = ConvSpec::square(32, 32, 32, 4, 1);
    println!("convolution: {spec}");
    println!("backward work: {} flops (error + delta-weights)\n", 2 * spec.arithmetic_ops());

    println!(
        "{:>8}  {:>12} {:>12} {:>9}  {:>10} {:>10}",
        "sparsity", "dense (ms)", "sparse (ms)", "speedup", "thru GF", "goodput GF"
    );
    // One warm scratch reused across every timed call, exactly like the
    // training and serving loops (the allocation-free path).
    let mut scratch = ConvScratch::new();
    for sparsity in [0.0, 0.5, 0.75, 0.9, 0.97] {
        let ops = conv_operands(&spec, sparsity, 0xabc);
        let mut grad_in = vec![0.0f32; spec.input_shape().len()];
        let mut grad_w = vec![0.0f32; spec.weight_shape().len()];
        // The sparse backward-data kernel reads the weights permuted to
        // `[ky, kx, f, c]`, as a layer's prepared weights hold them.
        let w_kkfc = Kkfc::from_fckk(ops.weights.as_slice(), spec.weight_shape());

        let dense_secs = time(3, || {
            gemm_exec::backward_data_scratch(
                &spec,
                ops.weights.as_slice(),
                ops.grad_out.as_slice(),
                &mut grad_in,
                1,
                &mut scratch,
            );
            gemm_exec::backward_weights_scratch(
                &spec,
                ops.input.as_slice(),
                ops.grad_out.as_slice(),
                &mut grad_w,
                1,
                &mut scratch,
            );
        });
        let sparse_secs = time(3, || {
            sparse::backward_data_scratch(
                &spec,
                &w_kkfc,
                ops.grad_out.as_slice(),
                &mut grad_in,
                DEFAULT_TILE_WIDTH,
                &mut scratch,
            );
            sparse::backward_weights_scratch(
                &spec,
                ops.input.as_slice(),
                ops.grad_out.as_slice(),
                &mut grad_w,
                DEFAULT_TILE_WIDTH,
                &mut scratch,
            );
        });

        // Verify the sparse kernel against the reference oracle while
        // we're here — goodput means nothing if the answer is wrong.
        let mut oracle = vec![0.0f32; spec.input_shape().len()];
        reference::backward_data(
            &spec,
            ops.weights.as_slice(),
            ops.grad_out.as_slice(),
            &mut oracle,
        );
        let max_diff =
            grad_in.iter().zip(&oracle).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(max_diff < 1e-3, "sparse kernel diverged from oracle: {max_diff}");

        let actual = ops.grad_out.sparsity();
        let total_flops = 2.0 * spec.arithmetic_ops() as f64;
        let useful = total_flops * (1.0 - actual);
        println!(
            "{:>8.2}  {:>12.3} {:>12.3} {:>8.2}x  {:>10.2} {:>10.2}",
            actual,
            dense_secs * 1e3,
            sparse_secs * 1e3,
            dense_secs / sparse_secs,
            total_flops / dense_secs / 1e9, // dense throughput
            useful / sparse_secs / 1e9,     // sparse goodput
        );
    }
    println!("\nnote: dense throughput is constant but its *goodput* collapses with sparsity;");
    println!("the sparse kernel keeps goodput high and wins past the ~0.75 crossover (Fig. 4f).");
}
