//! Regenerates Fig. 3a: Parallel-GEMM GFlops/core vs core count for the
//! Table 1 convolutions (machine model), with measured single-core
//! Unfold+GEMM anchors from the autotuner's own measurement on this host.

use spg_bench::{anchor_gflops, fmt, render_table};
use spg_core::autotune::Phase;
use spg_core::schedule::Technique;
use spg_simcpu::Machine;

fn main() {
    let machine = Machine::xeon_e5_2650();
    print!("{}", spg_bench::figures::fig3a_report(&machine));

    // Measured single-core anchors on shrunken Table 1 geometries (the
    // full convolutions run minutes each at debug sizes; the shrunken
    // ones preserve the feature/kernel ratios that set the AIT ordering).
    println!("\nmeasured single-core Unfold+GEMM anchors on this host (shrunken geometries):");
    let shrunk = [
        (0, spg_convnet::ConvSpec::square(32, 32, 32, 4, 1)),
        (5, spg_convnet::ConvSpec::square(32, 64, 16, 11, 1)),
    ];
    let mut rows = Vec::new();
    for (id, spec) in shrunk {
        let gf = anchor_gflops(&spec, Technique::GemmInParallel, Phase::Forward, 0.0, 3);
        rows.push(vec![format!("ID {id} (shrunk)"), fmt(gf, 2)]);
    }
    print!("{}", render_table(&["conv", "GFlops (1 core, this host)"], &rows));
}
