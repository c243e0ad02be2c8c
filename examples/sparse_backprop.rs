//! The goodput story (paper Sec. 3.3 / 4.2, Fig. 4e/4f) on real kernels:
//! one core, full Table 2 geometry. For every layer the dense backward
//! (Unfold+GEMM, both phases) is timed once — its work does not depend on
//! the gradient's zeros — and the sparse backward across gradient
//! sparsity, with its goodput (useful flops per second, Sec. 3.3) and the
//! sparsity from which it stays ahead of the GEMM. Backward-data is not
//! run on layer 0, as in training. The transform and format-construction
//! costs are inside the timed calls.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example sparse_backprop
//! ```
//!
//! Pin it to one core (`taskset -c 1`) for stable numbers.

use std::hint::black_box;
use std::time::Instant;

use spg_cnn::codegen::KernelChoice;
use spg_cnn::convnet::exec::PreparedWeights;
use spg_cnn::convnet::workspace::ConvScratch;
use spg_cnn::convnet::ConvSpec;
use spg_cnn::core::autotune::Phase;
use spg_cnn::core::compiled::ConvProgram;
use spg_cnn::core::schedule::Technique;
use spg_cnn::core::verify::lower_phase;
use spg_cnn::workloads::synth::{conv_operands, ConvOperands};
use spg_cnn::workloads::table2;

/// Gradient sparsities of the sweep.
const SPARSITIES: [f64; 8] = [0.5, 0.6, 0.7, 0.75, 0.8, 0.86, 0.9, 0.95];

/// One backward of `program` on `ops`: weights, then data past layer 0,
/// into `grads` (`dW`, `E_I`).
fn backward(
    program: &ConvProgram,
    weights: &PreparedWeights,
    ops: &ConvOperands,
    with_data: bool,
    grads: &mut (Vec<f32>, Vec<f32>),
    scratch: &mut ConvScratch,
) {
    let (input, grad_out) = (black_box(ops.input.as_slice()), ops.grad_out.as_slice());
    program.backward_weights(input, grad_out, &mut grads.0, scratch);
    if with_data {
        program.backward_data(weights, grad_out, &mut grads.1, scratch);
    }
}

/// Median seconds of [`backward`] after a warm-up call, on weights
/// prepared once (as a layer prepares them once per update).
fn time_backward(
    program: &ConvProgram,
    spec: &ConvSpec,
    ops: &ConvOperands,
    with_data: bool,
    grads: &mut (Vec<f32>, Vec<f32>),
) -> f64 {
    let weights = program.prepared(ops.weights.as_slice());
    let mut scratch = ConvScratch::new();
    let reps = if spec.arithmetic_ops() > 400_000_000 { 3 } else { 9 };
    let mut secs: Vec<f64> = (0..=reps)
        .map(|_| {
            let start = Instant::now();
            backward(program, &weights, ops, with_data, grads, &mut scratch);
            start.elapsed().as_secs_f64()
        })
        .skip(1)
        .collect();
    secs.sort_by(f64::total_cmp);
    secs[secs.len() / 2]
}

/// Largest difference between `a` and `b`, relative to `b`'s largest
/// magnitude.
fn relative_diff(a: &[f32], b: &[f32]) -> f32 {
    let scale = b.iter().fold(1e-6f32, |m, x| m.max(x.abs()));
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max) / scale
}

fn main() {
    println!("one core; backward = backward-weights + backward-data (layer 0: weights only)");
    println!(
        "{:<16} {:>8} {:>11} {:>11} {:>8} {:>11} {:>11}",
        "layer", "sparsity", "GEMM (ms)", "sparse (ms)", "speedup", "goodput GF", "GEMM GF"
    );
    for (bench, layer, spec) in table2::all_layers() {
        let name = format!("{} L{layer}", bench.label());
        let lowered = |t| {
            lower_phase(&spec, t, Phase::Backward, 1, KernelChoice::Auto)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        let (gemm, sparse) = (lowered(Technique::GemmInParallel), lowered(Technique::SparseBp));
        let with_data = layer > 0;
        let phases = if with_data { 2.0 } else { 1.0 };
        let dense_flops = phases * spec.arithmetic_ops() as f64;
        let zeros =
            || (vec![0.0f32; spec.weight_shape().len()], vec![0.0f32; spec.input_shape().len()]);
        let (mut dense_grads, mut sparse_grads) = (zeros(), zeros());
        let dense_secs =
            time_backward(&gemm, &spec, &conv_operands(&spec, 0.5, 7), with_data, &mut dense_grads);
        let mut crossover = None;
        for sparsity in SPARSITIES {
            let ops = conv_operands(&spec, sparsity, 7);
            let secs = time_backward(&sparse, &spec, &ops, with_data, &mut sparse_grads);
            // Goodput means nothing if the answer is wrong: the sparse
            // gradients must match the GEMM's on the same operands.
            let weights = gemm.prepared(ops.weights.as_slice());
            let scratch = &mut ConvScratch::new();
            backward(&gemm, &weights, &ops, with_data, &mut dense_grads, scratch);
            let diff = relative_diff(&sparse_grads.0, &dense_grads.0).max(if with_data {
                relative_diff(&sparse_grads.1, &dense_grads.1)
            } else {
                0.0
            });
            assert!(diff < 1e-4, "{name} at {sparsity}: sparse diverged from GEMM by {diff}");
            let useful = dense_flops * (1.0 - ops.grad_out.sparsity());
            crossover = match (crossover, secs <= dense_secs) {
                (None, true) => Some(sparsity),
                (_, false) => None,
                (kept, true) => kept,
            };
            println!(
                "{name:<16} {sparsity:>8.2} {:>11.3} {:>11.3} {:>7.2}x {:>11.1} {:>11.1}",
                dense_secs * 1e3,
                secs * 1e3,
                dense_secs / secs,
                useful / secs / 1e9,
                dense_flops / dense_secs / 1e9,
            );
        }
        match crossover {
            Some(s) => println!("{name:<16} sparse stays ahead of the GEMM from {s:.2}"),
            None => println!("{name:<16} sparse does not stay ahead of the GEMM by 0.95"),
        }
    }
}
