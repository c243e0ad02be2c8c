//! Regenerates Fig. 4e and Fig. 4f: Sparse-Kernel (BP) goodput and its
//! speedup over GEMM-in-Parallel across sparsity levels, with measured
//! single-core sparse-vs-dense BP anchors from the autotuner's own
//! measurement on this host.

use spg_simcpu::Machine;

fn main() {
    let machine = Machine::xeon_e5_2650();
    print!("{}", spg_bench::figures::fig4e_report(&machine));
    println!();
    print!("{}", spg_bench::figures::fig4f_report(&machine));
    println!();
    print!("{}", spg_bench::figures::fig4ef_anchors());
}
