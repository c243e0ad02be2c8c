//! Regenerates Fig. 4c and Fig. 4d: Stencil-Kernel (FP) scalability and
//! its speedup over GEMM-in-Parallel, with measured single-core
//! stencil-vs-unfold+GEMM anchors from this host's real kernels.

use spg_bench::{fmt_speedup, render_table};
use spg_simcpu::Machine;

fn main() {
    let machine = Machine::xeon_e5_2650();
    print!("{}", spg_bench::figures::fig4c_report(&machine));
    println!();
    print!("{}", spg_bench::figures::fig4d_report(&machine));

    println!("\nmeasured single-core stencil/unfold+GEMM FP speedups on this host");
    println!("(generic runs the runtime-parameterized loops; compiled binds a registry instance):");
    let cases = [
        ("MNIST L0", spg_convnet::ConvSpec::square(28, 20, 1, 5, 1)),
        ("CIFAR L1", spg_convnet::ConvSpec::square(8, 64, 64, 5, 1)),
    ];
    let mut rows = Vec::new();
    for (name, spec) in cases {
        let gemm = spg_bench::measured::unfold_gemm_fp_gflops(&spec, 5);
        let stencil = spg_bench::measured::stencil_fp_gflops(&spec, 5);
        let compiled = spg_bench::measured::stencil_fp_compiled_gflops(&spec, 5);
        rows.push(vec![name.to_owned(), fmt_speedup(stencil / gemm), fmt_speedup(compiled / gemm)]);
    }
    print!("{}", render_table(&["layer", "generic speedup", "compiled speedup"], &rows));
}
