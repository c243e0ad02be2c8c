//! Measured companion to Fig. 8: per-conv-layer kernel comparisons on
//! *this host's* real kernels, at the paper's full Table 2 geometries and
//! its 85 % backward-gradient sparsity.
//!
//! On a single core, GEMM-in-Parallel and the Parallel-GEMM baseline are
//! the same schedule, so the multicore GiP gains of Fig. 8 live in the
//! `fig8` model harness; what *can* be measured here is the per-layer
//! kernel contest the scheduler adjudicates: Unfold+GEMM vs the stencil
//! kernel for FP (generic loops and the compiled, instance-bound form),
//! and dense vs sparse BP.

use spg_bench::measured::{
    sparse_bp_measurement, stencil_fp_compiled_gflops, stencil_fp_gflops, unfold_gemm_fp_gflops,
};
use spg_bench::{fmt, fmt_speedup, render_table};
use spg_workloads::table2;

const REPS: usize = 3;

fn main() {
    println!("=== Fig 8 (measured): per-layer kernel contest on this host ===");
    println!("(full Table 2 geometries, single core, 85 % BP sparsity, {REPS} reps)\n");

    let mut rows = Vec::new();
    for (bench, layer, spec) in table2::all_layers() {
        // The largest ImageNet layers at full geometry take minutes per
        // rep through the baselines; shrink only the spatial extent
        // (feature counts and kernels untouched) for specs above a work
        // budget.
        let spec = if spec.arithmetic_ops() > 2_000_000_000 {
            spg_convnet::ConvSpec::new(
                spec.in_c(),
                (spec.in_h() / 2).max(spec.ky() * 2),
                (spec.in_w() / 2).max(spec.kx() * 2),
                spec.features(),
                spec.ky(),
                spec.kx(),
                spec.sy(),
                spec.sx(),
            )
            .expect("halving spatial extent keeps the spec valid")
        } else {
            spec
        };
        let gemm = unfold_gemm_fp_gflops(&spec, REPS);
        let stencil = stencil_fp_gflops(&spec, REPS);
        let compiled = stencil_fp_compiled_gflops(&spec, REPS);
        let bp = sparse_bp_measurement(&spec, 0.85, REPS);
        rows.push(vec![
            format!("{} L{layer}", bench.label()),
            fmt(gemm, 1),
            fmt_speedup(stencil / gemm),
            fmt_speedup(compiled / gemm),
            fmt_speedup(bp.speedup()),
        ]);
    }
    print!(
        "{}",
        render_table(
            &[
                "layer",
                "U+GEMM GF",
                "stencil FP (generic)",
                "stencil FP (compiled)",
                "sparse BP @0.85",
            ],
            &rows
        )
    );
    println!("\nspeedups are vs the single-core Unfold+GEMM baseline; the multicore");
    println!("GiP component of Fig. 8 comes from the machine model (see `fig8`).");
}
