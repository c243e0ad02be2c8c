/// Description of a multicore CPU for the analytical model.
///
/// The default preset models the paper's testbed. Constants were
/// calibrated once against the qualitative anchors the paper reports and
/// are validated by this crate's tests:
///
/// * Parallel-GEMM loses more than 50 % per-core performance by 16 cores
///   on moderate convolutions, while GEMM-in-Parallel loses less than
///   15 % (Sec. 4.1).
/// * Large convolutions (Table 1 ID 1) run near peak on one core.
/// * Small unfolded convolutions (IDs 0 and 5) run far below peak on one
///   core (Sec. 3.1).
/// * The sparse kernel overtakes dense BP near 75 % sparsity and peaks
///   before ~90 %, beyond which transform costs dominate (Sec. 4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// Physical cores (the paper's machine: 16, with 32 hyper-threads).
    pub cores: usize,
    /// Peak single-core throughput in GFlops (paper: 41.6).
    pub peak_gflops_per_core: f64,
    /// Roofline ridge point: the per-core arithmetic intensity (flops per
    /// element of traffic) at which a kernel transitions from
    /// bandwidth-bound to compute-bound. Calibrated so Table 1 ID 1
    /// (per-core AIT ~ 680 with unfold overhead) runs at peak on one core
    /// while ID 0's unfold-capped AIT of ~29 lands near a seventh of
    /// peak — matching the Fig. 3a single-core ordering.
    pub ait_ridge: f64,
    /// Per-extra-core slowdown for schedules with independent per-core
    /// working sets (shared memory-system pressure). `0.01` yields a
    /// ~13 % per-core drop at 16 cores — the paper's "< 15 % on average".
    pub contention_per_core: f64,
    /// Streaming bandwidth available to one core for data-layout
    /// transforms, in GB/s.
    pub stream_bw_gbs: f64,
    /// Fraction of a dense GEMM's per-element rate that the sparse
    /// backward kernel achieves on *non-zero* elements (irregular access,
    /// CT-CSR traversal). Calibrated so the sparse/dense crossover lands
    /// at the paper's ~75 % sparsity.
    pub sparse_efficiency: f64,
    /// Fraction of peak the stencil kernel sustains at unbounded AIT
    /// (direct convolution doesn't reach GEMM's register efficiency;
    /// Fig. 4c tops out near 30 of 41.6 GFlops/core).
    pub stencil_efficiency: f64,
}

impl Machine {
    /// The paper's testbed: Intel Xeon E5-2650, 16 physical cores,
    /// 41.6 GFlops/core peak.
    pub fn xeon_e5_2650() -> Self {
        Machine {
            cores: 16,
            peak_gflops_per_core: 41.6,
            ait_ridge: 200.0,
            contention_per_core: 0.01,
            stream_bw_gbs: 2.0,
            sparse_efficiency: 0.25,
            stencil_efficiency: 0.68,
        }
    }

    /// Roofline: the fraction of peak a kernel with the given per-core
    /// arithmetic intensity sustains, `min(1, ait / ait_ridge)`.
    ///
    /// # Example
    ///
    /// ```
    /// let m = spg_simcpu::Machine::xeon_e5_2650();
    /// assert!((m.saturation(100.0) - 0.5).abs() < 1e-12);
    /// assert_eq!(m.saturation(1000.0), 1.0);
    /// ```
    pub fn saturation(&self, ait: f64) -> f64 {
        if ait <= 0.0 {
            return 0.0;
        }
        (ait / self.ait_ridge).min(1.0)
    }

    /// Shared-memory-system contention factor for `active` cores running
    /// independent working sets.
    ///
    /// # Panics
    ///
    /// Panics if `active == 0`.
    pub fn contention(&self, active: usize) -> f64 {
        assert!(active > 0, "active core count must be positive");
        1.0 / (1.0 + self.contention_per_core * (active as f64 - 1.0))
    }
}

impl Default for Machine {
    fn default() -> Self {
        Machine::xeon_e5_2650()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_matches_paper_headline_numbers() {
        let m = Machine::xeon_e5_2650();
        assert_eq!(m.cores, 16);
        assert!((m.peak_gflops_per_core - 41.6).abs() < 1e-12);
    }

    #[test]
    fn saturation_is_monotone_and_bounded() {
        let m = Machine::default();
        let mut prev = 0.0;
        for ait in [0.0, 1.0, 10.0, 50.0, 200.0, 2000.0] {
            let s = m.saturation(ait);
            assert!((0.0..=1.0).contains(&s));
            assert!(s >= prev);
            prev = s;
        }
        assert_eq!(m.saturation(m.ait_ridge), 1.0);
    }

    #[test]
    fn contention_matches_paper_bound_at_16_cores() {
        let m = Machine::default();
        assert_eq!(m.contention(1), 1.0);
        let at16 = m.contention(16);
        assert!(at16 > 0.85 && at16 < 1.0, "GiP per-core drop must be < 15 %: {at16}");
    }

    #[test]
    #[should_panic(expected = "active core count")]
    fn zero_active_cores_panics() {
        Machine::default().contention(0);
    }
}
