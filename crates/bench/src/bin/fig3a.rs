//! Regenerates Fig. 3a: Parallel-GEMM GFlops/core vs core count for the
//! Table 1 convolutions (machine model), with measured single-core
//! Unfold+GEMM anchors from the autotuner's own measurement on this host.

use spg_simcpu::Machine;

fn main() {
    let machine = Machine::xeon_e5_2650();
    print!("{}", spg_bench::figures::fig3a_report(&machine));
    println!();
    print!("{}", spg_bench::figures::fig3a_anchors());
}
