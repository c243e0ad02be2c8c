//! Regenerates Fig. 4c and Fig. 4d: Stencil-Kernel (FP) scalability and
//! its speedup over GEMM-in-Parallel, with measured single-core
//! stencil-vs-unfold+GEMM anchors from the autotuner's own measurement on
//! this host.

use spg_simcpu::Machine;

fn main() {
    let machine = Machine::xeon_e5_2650();
    print!("{}", spg_bench::figures::fig4c_report(&machine));
    println!();
    print!("{}", spg_bench::figures::fig4d_report(&machine));
    println!();
    print!("{}", spg_bench::figures::fig4cd_anchors());
}
