//! Regenerates Fig. 4c and Fig. 4d: Stencil-Kernel (FP) scalability and
//! its speedup over GEMM-in-Parallel, with measured single-core
//! stencil-vs-unfold+GEMM anchors from the autotuner's own measurement on
//! this host.

use spg_bench::{anchor_gflops, fmt_speedup, render_table};
use spg_core::autotune::Phase;
use spg_core::schedule::Technique;
use spg_simcpu::Machine;

fn main() {
    let machine = Machine::xeon_e5_2650();
    print!("{}", spg_bench::figures::fig4c_report(&machine));
    println!();
    print!("{}", spg_bench::figures::fig4d_report(&machine));

    println!("\nmeasured single-core stencil/unfold+GEMM FP speedups on this host");
    println!(
        "(the stencil as it deploys; `spgcnn bench-kernels` splits generic from specialized):"
    );
    let cases = [
        ("MNIST L0", spg_convnet::ConvSpec::square(28, 20, 1, 5, 1)),
        ("CIFAR L1", spg_convnet::ConvSpec::square(8, 64, 64, 5, 1)),
    ];
    let mut rows = Vec::new();
    for (name, spec) in cases {
        let gemm = anchor_gflops(&spec, Technique::GemmInParallel, Phase::Forward, 0.0, 5);
        let stencil = anchor_gflops(&spec, Technique::StencilFp, Phase::Forward, 0.0, 5);
        rows.push(vec![name.to_owned(), fmt_speedup(stencil / gemm)]);
    }
    print!("{}", render_table(&["layer", "stencil speedup"], &rows));
}
