//! Predicted per-core performance of the dense schedules
//! (Figs. 3a, 4a–4d).
//!
//! The per-core arithmetic intensity of an Unfold+GEMM phase composes two
//! traffic sources (Sec. 3.1 + 3.2):
//!
//! * the GEMM operand traffic, which row-partitioning divides unevenly —
//!   each core reads its band of `A` and `C` but the **whole** of `B`;
//! * the unfolding overhead — writing the unfolded matrix `U` and reading
//!   the original input — which is proportional to the layer, not to the
//!   partitioning.
//!
//! `AIT/core = (|A| / p) / (T_partition(p) + (|U| + |I|) / p)`: at one
//! core this reduces to the unfold-capped intensity of Table 1; as `p`
//! grows the whole-`B` term dominates and intensity falls like `1/p` —
//! the decay Fig. 3a plots. GEMM-in-Parallel keeps `p = 1` intensity at
//! every core count (Fig. 4a); the stencil kernel never unfolds, so its
//! intensity is the intrinsic AIT of the convolution (Fig. 4c).

use spg_convnet::ConvSpec;
use spg_core::ait::conv_gemm_dims;
use spg_core::schedule::Technique;

use crate::Machine;

/// Per-core AIT of one Unfold+GEMM phase with GEMM dims `(m, n, k)`
/// row-partitioned across `p` cores, including the per-layer unfolding
/// overhead (`|U|` write + `|I|` read) amortized across the cores.
fn phase_ait_per_core(spec: &ConvSpec, dims: (usize, usize, usize), p: usize) -> f64 {
    assert!(p > 0, "core count must be positive");
    let (m, n, k) = (dims.0 as f64, dims.1 as f64, dims.2 as f64);
    let p = p as f64;
    let flops = 2.0 * m * n * k / p;
    let gemm_traffic = (m / p) * k + k * n + (m / p) * n;
    let unfold_overhead = (spec.unfolded_elems() as f64 + spec.input_elems() as f64) / p;
    flops / (gemm_traffic + unfold_overhead)
}

/// Aggregate GFlops/core over the three training multiplies: each phase
/// performs the same flop count, so the sustained rate is the
/// flop-weighted harmonic mean of the per-phase rates — total work over
/// total wall time, exactly what the paper's Fig. 3a timing measures.
fn training_gflops_per_core(machine: &Machine, spec: &ConvSpec, partition: usize) -> f64 {
    let d = conv_gemm_dims(spec);
    let inv_sum: f64 = [d.forward, d.backward_data, d.backward_weights]
        .iter()
        .map(|&dims| {
            let perf = machine.peak_gflops_per_core
                * machine.saturation(phase_ait_per_core(spec, dims, partition));
            1.0 / perf.max(1e-9)
        })
        .sum();
    3.0 / inv_sum
}

/// Predicted GFlops per core for `Unfold + Parallel-GEMM` on `cores`
/// cores — the Fig. 3a series.
///
/// # Panics
///
/// Panics if `cores == 0`.
pub fn parallel_gemm_gflops_per_core(machine: &Machine, spec: &ConvSpec, cores: usize) -> f64 {
    training_gflops_per_core(machine, spec, cores)
}

/// Predicted GFlops per core for GEMM-in-Parallel on `cores` cores — the
/// Fig. 4a series.
///
/// Per-core AIT equals the single-core value regardless of core count
/// (inputs are never divided, Sec. 4.1); only the mild shared
/// memory-system contention term varies with `cores`.
///
/// # Panics
///
/// Panics if `cores == 0`.
pub fn gemm_in_parallel_gflops_per_core(machine: &Machine, spec: &ConvSpec, cores: usize) -> f64 {
    training_gflops_per_core(machine, spec, 1) * machine.contention(cores)
}

/// Predicted GFlops per core for the stencil forward kernel — the Fig. 4c
/// series.
///
/// Direct convolution never unfolds: its effective AIT is the *intrinsic*
/// AIT of the convolution (Sec. 4.3), discounted by the kernel's
/// sustained fraction of peak. Scaling follows the same
/// independent-working-set contention as GEMM-in-Parallel.
///
/// # Panics
///
/// Panics if `cores == 0`.
pub fn stencil_gflops_per_core(machine: &Machine, spec: &ConvSpec, cores: usize) -> f64 {
    machine.peak_gflops_per_core
        * machine.saturation(spec.intrinsic_ait())
        * machine.stencil_efficiency
        * machine.contention(cores)
}

/// Predicted GFlops per core of `technique` as a forward phase on `cores`
/// cores, one sample per core: the GEMM at the GEMM-in-Parallel rate
/// ([`parallel_gemm_gflops_per_core`] models the same program with one
/// sample spread over every core). The sparse technique has no forward
/// kernel and runs the GEMM forward.
///
/// # Panics
///
/// Panics if `cores == 0`.
pub fn forward_gflops_per_core(
    machine: &Machine,
    spec: &ConvSpec,
    technique: Technique,
    cores: usize,
) -> f64 {
    match technique {
        Technique::GemmInParallel | Technique::SparseBp => {
            gemm_in_parallel_gflops_per_core(machine, spec, cores)
        }
        Technique::StencilFp => stencil_gflops_per_core(machine, spec, cores),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1() -> Vec<ConvSpec> {
        vec![
            ConvSpec::square(32, 32, 32, 4, 1),    // ID 0
            ConvSpec::square(64, 1024, 512, 2, 1), // ID 1
            ConvSpec::square(256, 256, 128, 3, 1), // ID 2
            ConvSpec::square(128, 128, 64, 7, 1),  // ID 3
            ConvSpec::square(128, 512, 256, 5, 1), // ID 4
            ConvSpec::square(64, 64, 16, 11, 1),   // ID 5
        ]
    }

    /// Fig. 3a headline: Parallel-GEMM's average per-core drop from 1 to
    /// 16 cores exceeds 50 % across the benchmark convolutions.
    #[test]
    fn parallel_gemm_drops_over_half() {
        let m = Machine::default();
        let mut drops = Vec::new();
        for spec in table1() {
            let p1 = parallel_gemm_gflops_per_core(&m, &spec, 1);
            let p16 = parallel_gemm_gflops_per_core(&m, &spec, 16);
            assert!(p16 < p1, "{spec}");
            drops.push(1.0 - p16 / p1);
        }
        let avg = drops.iter().sum::<f64>() / drops.len() as f64;
        assert!(avg > 0.5, "average Parallel-GEMM drop {avg}");
    }

    /// Fig. 3a ordering: ID 1 (Region 0/1) is the only convolution that
    /// keeps most of its per-core performance.
    #[test]
    fn only_large_conv_scales_well_under_parallel_gemm() {
        let m = Machine::default();
        let specs = table1();
        let retention = |s: &ConvSpec| {
            parallel_gemm_gflops_per_core(&m, s, 16) / parallel_gemm_gflops_per_core(&m, s, 1)
        };
        let id1 = retention(&specs[1]);
        for (i, spec) in specs.iter().enumerate() {
            if i != 1 {
                assert!(retention(spec) < id1, "ID {i} should scale worse than ID 1");
            }
        }
        assert!(id1 > 0.5, "ID 1 retention {id1}");
    }

    /// Fig. 4a headline: GEMM-in-Parallel's average per-core drop stays
    /// under 15 %.
    #[test]
    fn gemm_in_parallel_drops_under_fifteen_percent() {
        let m = Machine::default();
        let mut drops = Vec::new();
        for spec in table1() {
            let p1 = gemm_in_parallel_gflops_per_core(&m, &spec, 1);
            let p16 = gemm_in_parallel_gflops_per_core(&m, &spec, 16);
            drops.push(1.0 - p16 / p1);
        }
        let avg = drops.iter().sum::<f64>() / drops.len() as f64;
        assert!(avg < 0.15, "average GiP drop {avg}");
    }

    /// Fig. 4b: the GiP / Parallel-GEMM speedup grows with core count.
    #[test]
    fn gip_speedup_grows_with_cores() {
        let m = Machine::default();
        let spec = ConvSpec::square(256, 256, 128, 3, 1); // ID 2, Region 2
        let mut prev = 0.0;
        for cores in [1, 2, 4, 8, 16] {
            let s = gemm_in_parallel_gflops_per_core(&m, &spec, cores)
                / parallel_gemm_gflops_per_core(&m, &spec, cores);
            assert!(s >= prev * 0.999, "speedup must grow: {s} after {prev}");
            prev = s;
        }
        assert!(prev > 2.0, "16-core GiP speedup should be substantial: {prev}");
    }

    /// Fig. 4b ordering: convolutions with fewer output features benefit
    /// more from GEMM-in-Parallel.
    #[test]
    fn fewer_features_benefit_more_from_gip() {
        let m = Machine::default();
        let narrow = ConvSpec::square(256, 64, 128, 3, 1);
        let wide = ConvSpec::square(64, 1024, 512, 2, 1);
        let speedup = |s: &ConvSpec| {
            gemm_in_parallel_gflops_per_core(&m, s, 16) / parallel_gemm_gflops_per_core(&m, s, 16)
        };
        assert!(speedup(&narrow) > speedup(&wide));
    }

    /// Fig. 4d: the stencil kernel beats GEMM-in-Parallel below 128
    /// output features and loses above.
    #[test]
    fn stencil_crossover_near_128_features() {
        let m = Machine::default();
        for spec in table1() {
            let st = stencil_gflops_per_core(&m, &spec, 16);
            let gip = gemm_in_parallel_gflops_per_core(&m, &spec, 16);
            if spec.features() < 128 {
                assert!(st > gip, "{spec}: stencil {st} <= gip {gip}");
            } else {
                assert!(st < gip * 1.15, "{spec}: stencil should not dominate: {st} vs {gip}");
            }
        }
    }

    /// Sec. 3.1: ID 1 runs near peak on one core; ID 0 far below.
    #[test]
    fn single_core_anchors() {
        let m = Machine::default();
        let id1 = parallel_gemm_gflops_per_core(&m, &table1()[1], 1);
        let id0 = parallel_gemm_gflops_per_core(&m, &table1()[0], 1);
        assert!(id1 > 0.85 * m.peak_gflops_per_core, "ID 1: {id1}");
        assert!(id0 < 0.5 * m.peak_gflops_per_core, "ID 0: {id0}");
    }

    /// Stencil per-core performance is nearly flat in core count.
    #[test]
    fn stencil_scales_flat() {
        let m = Machine::default();
        let spec = ConvSpec::square(32, 32, 32, 4, 1);
        let p1 = stencil_gflops_per_core(&m, &spec, 1);
        let p16 = stencil_gflops_per_core(&m, &spec, 16);
        assert!(p16 > 0.85 * p1);
    }

    /// At one core GiP and Parallel-GEMM are the same schedule.
    #[test]
    fn schedules_coincide_on_one_core() {
        let m = Machine::default();
        for spec in table1() {
            let a = gemm_in_parallel_gflops_per_core(&m, &spec, 1);
            let b = parallel_gemm_gflops_per_core(&m, &spec, 1);
            assert!((a - b).abs() < 1e-9, "{spec}");
        }
    }
}
