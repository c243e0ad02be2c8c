//! Regenerates Fig. 4e and Fig. 4f: Sparse-Kernel (BP) goodput and its
//! speedup over GEMM-in-Parallel across sparsity levels, with measured
//! single-core sparse-vs-dense BP anchors from the autotuner's own
//! measurement on this host.

use spg_bench::{anchor_gflops, fmt, fmt_speedup, render_table};
use spg_core::autotune::Phase;
use spg_core::schedule::Technique;
use spg_simcpu::Machine;

fn main() {
    let machine = Machine::xeon_e5_2650();
    print!("{}", spg_bench::figures::fig4e_report(&machine));
    println!();
    print!("{}", spg_bench::figures::fig4f_report(&machine));

    println!("\nmeasured single-core sparse/dense BP on this host (shrunken ID 0 geometry;");
    println!("the synthetic gradient at sparsity s keeps one element in round(1/(1-s))):");
    let spec = spg_convnet::ConvSpec::square(32, 32, 32, 4, 1);
    let mut rows = Vec::new();
    for s in [0.5, 0.75, 0.9, 0.97] {
        let sparse = anchor_gflops(&spec, Technique::SparseBp, Phase::Backward, s, 3);
        let dense = anchor_gflops(&spec, Technique::GemmInParallel, Phase::Backward, s, 3);
        rows.push(vec![fmt(s, 2), fmt(sparse, 2), fmt_speedup(sparse / dense)]);
    }
    print!("{}", render_table(&["sparsity", "goodput GFlops", "speedup vs dense"], &rows));
}
