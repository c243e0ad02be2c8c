//! Hybrid intra-layer parallelism: banded stencil execution of one sample.
//!
//! The paper's GEMM-in-Parallel scales by distributing whole samples, so
//! strong scaling collapses when `batch < cores` — the regime Jia et al.
//! (*Exploring Hidden Dimensions in Parallelizing CNNs*) and Dryden et al.
//! (*Improving Strong-Scaling of CNN Training by Exploiting Finer-Grained
//! Parallelism*) address by also splitting *within* a layer. This module
//! implements the three intra-sample decompositions the plan IR can prove
//! safe ([`spg_check::BandDim`]): contiguous output-row bands, output-column
//! bands, and output-feature slices, each band running the same wide
//! register-tiled stencil kernel as the sequential path. The bands are the
//! partition; the fan-out itself is the workspace's one fork-join
//! (`spg_sync::fork_join`, reached here as `spg_gemm::fork_join`): the
//! calling thread runs the first band, and a panicking band's own payload
//! reaches the caller once its siblings have finished.
//!
//! **Bit-identity.** Every output element's reduction is a single FMA chain
//! ordered `(channel asc, ky asc, kx asc)` regardless of tile position or
//! band offsets, and a banded plan only exists (by [`band_ranges`] and the
//! `spg-check` banded proof) on the wide tiled path where that invariant
//! holds. Banded outputs are therefore bit-identical to the sequential
//! kernel — the golden suite asserts exact equality, not a tolerance.

use std::fmt;
use std::sync::Mutex;

pub use spg_check::BandDim;
use spg_check::{ForwardPlan, VerifiedPlan, VECTOR_WIDTH as LANES};
use spg_convnet::workspace::{zeroed_slice, ConvScratch};
use spg_convnet::ConvSpec;

use crate::stencil::kernel;

/// The split extent of `spec` along `dim`.
fn extent(spec: &ConvSpec, dim: BandDim) -> usize {
    match dim {
        BandDim::YRows => spec.out_h(),
        BandDim::XCols => spec.out_w(),
        BandDim::OutChannels => spec.features(),
    }
}

/// The contiguous per-worker bands a hybrid decomposition of `spec` along
/// `dim` uses at `workers` workers. Lowering turns these into the plan's
/// `bands`, which is what the verifier proves and [`HybridExecutor`] runs;
/// the planner heuristics and `spg-simcpu` call it to predict whether and
/// how a layer splits.
///
/// Returns one band — i.e. "no decomposition available" — when the spec is
/// too narrow for the wide tiled kernel (`out_w < LANES`, where the
/// shifted-GEMM path's different accumulation order would break
/// bit-identity), when `workers <= 1`, or when the extent cannot be split.
/// X-bands additionally shed workers until every band is at least one
/// vector wide, since each band must itself satisfy the wide-kernel gate.
pub fn band_ranges(spec: &ConvSpec, dim: BandDim, workers: usize) -> Vec<(usize, usize)> {
    let n = extent(spec, dim);
    if spec.out_w() < LANES || workers <= 1 {
        return vec![(0, n)];
    }
    match dim {
        BandDim::YRows | BandDim::OutChannels => spg_check::gemm::row_bands(n, workers),
        BandDim::XCols => {
            let mut w = workers.min(n / LANES).max(1);
            loop {
                let bands = spg_check::gemm::row_bands(n, w);
                let narrowest = bands.iter().map(|&(lo, hi)| hi - lo).min().unwrap_or(0);
                if narrowest >= LANES || w == 1 {
                    return bands;
                }
                w -= 1;
            }
        }
    }
}

/// Per-worker staging buffers, pooled across calls so the per-sample hot
/// path performs no heap allocation once warmed up to a geometry.
#[derive(Default)]
struct BandWorkspace {
    input: Vec<f32>,
    output: Vec<f32>,
    scratch: ConvScratch,
}

/// Runs a proved banded forward plan: one `fork_join` task per band of the
/// plan, each executing the band's own proved tiled plan on its
/// restriction of the spec. Owns the per-worker staging pool, so a
/// long-lived holder (a [`ConvProgram`](crate::compiled::ConvProgram))
/// allocates nothing per sample once warm.
#[derive(Default)]
pub struct HybridExecutor {
    pool: Mutex<Vec<BandWorkspace>>,
}

impl fmt::Debug for HybridExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HybridExecutor").finish_non_exhaustive()
    }
}

impl HybridExecutor {
    fn take_workspace(&self) -> BandWorkspace {
        self.pool.lock().unwrap_or_else(|p| p.into_inner()).pop().unwrap_or_default()
    }

    fn put_workspace(&self, ws: BandWorkspace) {
        self.pool.lock().unwrap_or_else(|p| p.into_inner()).push(ws);
    }

    /// Forward propagation of one sample over the bands of `plan`.
    /// `output` is overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `plan`'s forward is not [`ForwardPlan::StencilBanded`] or
    /// buffer lengths do not match `plan.spec()`.
    pub fn forward(&self, plan: &VerifiedPlan, input: &[f32], weights: &[f32], output: &mut [f32]) {
        let ForwardPlan::StencilBanded { dim, .. } = &plan.plan().forward else {
            panic!("HybridExecutor runs banded forward plans only");
        };
        let (spec, dim) = (plan.spec(), *dim);
        assert_eq!(input.len(), spec.input_shape().len(), "input length");
        assert_eq!(weights.len(), spec.weight_shape().len(), "weights length");
        assert_eq!(output.len(), spec.output_shape().len(), "output length");
        match dim {
            BandDim::OutChannels => self.forward_out_channels(plan, input, weights, output),
            BandDim::YRows | BandDim::XCols => {
                self.forward_spatial(plan, dim, input, weights, output);
            }
        }
    }

    /// Output-feature slices: no staging — workers write disjoint
    /// `split_at_mut` plane slices of the parent output directly.
    fn forward_out_channels(
        &self,
        plan: &VerifiedPlan,
        input: &[f32],
        weights: &[f32],
        output: &mut [f32],
    ) {
        let spec = plan.spec();
        let plane = spec.out_h() * spec.out_w();
        let per_feature = spec.weight_shape().per_feature();
        let mut rest = output;
        spg_gemm::fork_join(plan.bands().map(|((lo, hi), band)| {
            let (band_out, tail) = std::mem::take(&mut rest).split_at_mut((hi - lo) * plane);
            rest = tail;
            let band_weights = &weights[lo * per_feature..hi * per_feature];
            move || {
                let mut ws = self.take_workspace();
                kernel::forward_tiled(band, input, band_weights, band_out, &mut ws.scratch);
                self.put_workspace(ws);
            }
        }));
    }

    /// Spatial bands: each worker stages its input band — the rectangle of
    /// rows (y-bands) or columns (x-bands), stencil halo included, that its
    /// outputs read — runs the kernel into a staged band output, and the
    /// bands are scattered into the parent output after the join: a
    /// deterministic gather, not a shared-write.
    fn forward_spatial(
        &self,
        plan: &VerifiedPlan,
        dim: BandDim,
        input: &[f32],
        weights: &[f32],
        output: &mut [f32],
    ) {
        let spec = plan.spec();
        let (nc, nf) = (spec.in_c(), spec.features());
        let (in_h, in_w) = (spec.in_h(), spec.in_w());
        let (out_h, out_w) = (spec.out_h(), spec.out_w());
        // Where band [lo, ..) starts in a plane, as (row, column) output
        // coordinates; scaled by the stride for the input plane.
        let origin = |lo: usize| if dim == BandDim::YRows { (lo, 0) } else { (0, lo) };
        let staged = spg_gemm::fork_join(plan.bands().map(|((lo, _), band)| {
            move || {
                let sub = band.spec();
                let mut ws = self.take_workspace();
                let BandWorkspace { input: stage_in, output: stage_out, scratch } = &mut ws;
                let band_in = zeroed_slice(stage_in, sub.input_shape().len());
                let (rows, cols) = (sub.in_h(), sub.in_w());
                let (r0, c0) = origin(lo);
                let (r0, c0) = (r0 * spec.sy(), c0 * spec.sx());
                for c in 0..nc {
                    for r in 0..rows {
                        let src = (c * in_h + r0 + r) * in_w + c0;
                        let dst = (c * rows + r) * cols;
                        band_in[dst..dst + cols].copy_from_slice(&input[src..src + cols]);
                    }
                }
                let band_out = zeroed_slice(stage_out, sub.output_shape().len());
                kernel::forward_tiled(band, band_in, weights, band_out, scratch);
                (lo, sub.out_h(), sub.out_w(), ws)
            }
        }));
        for (lo, rows, cols, ws) in staged {
            let (r0, c0) = origin(lo);
            for f in 0..nf {
                for r in 0..rows {
                    let src = (f * rows + r) * cols;
                    let dst = (f * out_h + r0 + r) * out_w + c0;
                    output[dst..dst + cols].copy_from_slice(&ws.output[src..src + cols]);
                }
            }
            self.put_workspace(ws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autotune::Phase;
    use crate::compiled::ConvProgram;
    use crate::schedule::Technique;
    use crate::verify::lower_phase;
    use spg_codegen::KernelChoice;

    fn pseudo(n: usize, salt: usize) -> Vec<f32> {
        (0..n).map(|i| (((i * 31 + salt * 17) % 23) as f32 - 11.0) / 7.0).collect()
    }

    /// `forward` lowered for `spec` on the generic loops, proved.
    fn program(spec: &ConvSpec, forward: Technique, workers: usize) -> ConvProgram {
        lower_phase(spec, forward, Phase::Forward, workers, KernelChoice::Generic)
            .expect("plan verifies")
    }

    fn banded(dim: BandDim) -> Technique {
        match dim {
            BandDim::YRows => Technique::StencilYBand,
            BandDim::XCols => Technique::StencilXBand,
            BandDim::OutChannels => Technique::StencilOutChannel,
        }
    }

    fn sequential(spec: &ConvSpec, input: &[f32], weights: &[f32]) -> Vec<f32> {
        let mut out = vec![0f32; spec.output_shape().len()];
        let exec = program(spec, Technique::StencilFp, 1);
        exec.forward(input, &exec.prepared(weights), &mut out, &mut ConvScratch::new());
        out
    }

    fn check_bit_identical(spec: ConvSpec, dim: BandDim, workers: usize) {
        let input = pseudo(spec.input_shape().len(), 1);
        let weights = pseudo(spec.weight_shape().len(), 2);
        let oracle = sequential(&spec, &input, &weights);
        let exec = program(&spec, banded(dim), workers);
        let mut banded = vec![0f32; spec.output_shape().len()];
        exec.forward(&input, &exec.prepared(&weights), &mut banded, &mut ConvScratch::new());
        assert_eq!(oracle, banded, "{spec} {dim:?} x{workers} not bit-identical");
    }

    #[test]
    fn bands_are_bit_identical_to_sequential_kernel() {
        let unit = ConvSpec::square(34, 6, 3, 3, 1); // 32x32 output
        let strided = ConvSpec::square(69, 4, 3, 7, 2); // 32x32 output, sx 2
        for dim in [BandDim::YRows, BandDim::XCols, BandDim::OutChannels] {
            for workers in [2, 3, 8] {
                check_bit_identical(unit, dim, workers);
                check_bit_identical(strided, dim, workers);
            }
        }
    }

    #[test]
    fn narrow_spec_has_no_banded_plan() {
        // 4x4 output: no wide tiles, so band_ranges refuses to split and
        // lowering yields a single band the verifier rejects — there is
        // nothing to run, where the executor used to fall back silently.
        let spec = ConvSpec::square(8, 6, 4, 5, 1);
        assert_eq!(band_ranges(&spec, BandDim::YRows, 8), vec![(0, spec.out_h())]);
        let err =
            lower_phase(&spec, Technique::StencilYBand, Phase::Forward, 8, KernelChoice::Generic)
                .unwrap_err();
        assert!(matches!(err, crate::SpgError::PlanRejected { technique: "stencil-yband", .. }));
    }

    #[test]
    fn x_bands_shed_workers_until_vector_wide() {
        // 25-wide output at 8 workers: 25/8 = 3 bands of >= LANES, and the
        // ragged split (9,9,7) must shed to 2 workers (13,12).
        let spec = ConvSpec::new(1, 27, 27, 2, 3, 3, 1, 1).unwrap();
        let ranges = band_ranges(&spec, BandDim::XCols, 8);
        assert!(ranges.iter().all(|&(lo, hi)| hi - lo >= LANES), "{ranges:?}");
        let covered: usize = ranges.iter().map(|&(lo, hi)| hi - lo).sum();
        assert_eq!(covered, spec.out_w());
    }

    #[test]
    fn workspace_pool_is_reused_across_calls() {
        let spec = ConvSpec::square(34, 4, 2, 3, 1);
        let input = pseudo(spec.input_shape().len(), 5);
        let weights = pseudo(spec.weight_shape().len(), 6);
        let plan = spg_check::verify_conv_plan(
            &spec,
            program(&spec, Technique::StencilYBand, 4).plan().clone(),
            &spg_check::ScratchCapacity::reserved_for(&spec),
        )
        .expect("plan verifies");
        let exec = HybridExecutor::default();
        let mut a = vec![0f32; spec.output_shape().len()];
        let mut b = vec![0f32; spec.output_shape().len()];
        exec.forward(&plan, &input, &weights, &mut a);
        let pooled = exec.pool.lock().unwrap().len();
        assert!(pooled >= 1, "workers should return workspaces to the pool");
        exec.forward(&plan, &input, &weights, &mut b);
        assert_eq!(a, b);
        assert!(exec.pool.lock().unwrap().len() >= pooled);
    }
}
