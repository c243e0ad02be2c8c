//! Arithmetic-intensity characterization math (paper Sec. 3).
//!
//! These functions are the analytical core of the paper's scalability
//! argument: partitioning one GEMM across cores divides the arithmetic
//! evenly but *not* the memory traffic, so AIT per core falls as cores are
//! added (Sec. 3.2); running whole GEMMs per core keeps it flat (Sec. 4.1).
//! The `spg-simcpu` machine model turns these intensities into the
//! GFlops/core curves of Figs. 3a and 4a.

use spg_convnet::ConvSpec;

/// AIT *per core* when the multiply is row-partitioned across `cores`
/// (the Parallel-GEMM schedule): each core computes `m / cores` rows of
/// `C`, touching its slice of `A` and `C` but the **entire** `B`
/// (Sec. 3.2).
///
/// One core gives the single-core AIT `2mnk / (mk + kn + mn)` flops per
/// element of traffic; the square dual-core example in the paper gives
/// `n / 2`, down from the single-core `2n / 3`.
///
/// # Panics
///
/// Panics if `cores == 0`.
///
/// # Example
///
/// ```
/// use spg_core::ait::mm_ait_per_core;
///
/// // Paper's worked example: n x n on 2 cores -> AIT n/2.
/// let ait = mm_ait_per_core(100, 100, 100, 2);
/// assert!((ait - 50.0).abs() < 1e-9);
/// ```
pub fn mm_ait_per_core(m: usize, n: usize, k: usize, cores: usize) -> f64 {
    assert!(cores > 0, "core count must be positive");
    let p = cores as f64;
    let (m, n, k) = (m as f64, n as f64, k as f64);
    // Partition rows of C: flops/core = 2mnk/p,
    // traffic/core = (m/p)k (A band) + kn (all of B) + (m/p)n (C band).
    let flops = 2.0 * m * n * k / p;
    let traffic = (m / p) * k + k * n + (m / p) * n;
    flops / traffic
}

/// GEMM dimensions `(m, n, k)` of the three multiplies a convolution
/// layer performs under Unfold+GEMM (Sec. 2.3 / Sec. 3):
/// forward `O = W * U^T`, backward error `E_U = E_O^T * W`, and
/// delta-weights `dW = E_O * U`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGemmDims {
    /// Forward multiply dimensions.
    pub forward: (usize, usize, usize),
    /// Backward error multiply dimensions.
    pub backward_data: (usize, usize, usize),
    /// Delta-weight multiply dimensions.
    pub backward_weights: (usize, usize, usize),
}

/// Computes the GEMM dimensions of a convolution under Unfold+GEMM.
///
/// # Example
///
/// ```
/// use spg_convnet::ConvSpec;
/// use spg_core::ait::conv_gemm_dims;
///
/// let spec = ConvSpec::square(8, 4, 2, 3, 1); // 6x6 output
/// let dims = conv_gemm_dims(&spec);
/// assert_eq!(dims.forward, (4, 36, 18)); // Nf x patches, K = Nc*Fy*Fx
/// ```
pub fn conv_gemm_dims(spec: &ConvSpec) -> ConvGemmDims {
    let patches = spec.out_h() * spec.out_w();
    let kdim = spec.in_c() * spec.ky() * spec.kx();
    let nf = spec.features();
    ConvGemmDims {
        forward: (nf, patches, kdim),
        backward_data: (patches, kdim, nf),
        backward_weights: (nf, kdim, patches),
    }
}

/// Mean AIT per core across a convolution's three training multiplies
/// under Parallel-GEMM — the quantity whose decay Fig. 3a visualizes.
pub fn conv_training_ait_per_core(spec: &ConvSpec, cores: usize) -> f64 {
    let dims = conv_gemm_dims(spec);
    let phases = [dims.forward, dims.backward_data, dims.backward_weights];
    phases.iter().map(|&(m, n, k)| mm_ait_per_core(m, n, k, cores)).sum::<f64>() / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_single_core_ait_is_two_thirds_n() {
        for n in [30, 300, 3000] {
            let ait = mm_ait_per_core(n, n, n, 1);
            assert!((ait - 2.0 * n as f64 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn per_core_ait_decreases_with_cores() {
        let mut prev = f64::INFINITY;
        for cores in [1, 2, 4, 8, 16] {
            let ait = mm_ait_per_core(512, 512, 512, cores);
            assert!(ait < prev, "AIT must fall as cores grow");
            prev = ait;
        }
    }

    #[test]
    fn paper_dual_core_example() {
        // Sec. 3.2: square n x n on 2 cores -> n/2.
        let n = 256;
        let ait = mm_ait_per_core(n, n, n, 2);
        assert!((ait - n as f64 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn conv_gemm_dims_match_spec_algebra() {
        let spec = ConvSpec::square(32, 32, 32, 4, 1);
        let dims = conv_gemm_dims(&spec);
        let patches = 29 * 29;
        assert_eq!(dims.forward, (32, patches, 32 * 16));
        assert_eq!(dims.backward_data, (patches, 32 * 16, 32));
        assert_eq!(dims.backward_weights, (32, 32 * 16, patches));
        // Flop counts of all three multiplies are identical.
        let f = |(m, n, k): (usize, usize, usize)| 2 * m * n * k;
        assert_eq!(f(dims.forward), f(dims.backward_data));
        assert_eq!(f(dims.forward), f(dims.backward_weights));
        assert_eq!(f(dims.forward) as u64, spec.arithmetic_ops());
    }

    #[test]
    fn small_feature_convs_end_up_memory_bound() {
        // The effect behind Fig. 4b's ordering: partitioning pushes the
        // absolute per-core AIT of few-feature convolutions far below that
        // of wide ones, so they fall under the roofline ridge first and
        // benefit most from GEMM-in-Parallel.
        let small = ConvSpec::square(32, 32, 32, 4, 1); // Table 1 ID 0
        let large = ConvSpec::square(64, 1024, 512, 2, 1); // Table 1 ID 1
        let small16 = conv_training_ait_per_core(&small, 16);
        let large16 = conv_training_ait_per_core(&large, 16);
        assert!(small16 < large16 / 5.0, "small {small16} vs large {large16}");
        // And both lose AIT versus their own single-core schedule.
        assert!(small16 < conv_training_ait_per_core(&small, 1));
        assert!(large16 < conv_training_ait_per_core(&large, 1));
    }

    #[test]
    #[should_panic(expected = "core count")]
    fn zero_cores_panics() {
        mm_ait_per_core(8, 8, 8, 0);
    }
}
