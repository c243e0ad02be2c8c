//! Compiled per-layer kernels — the artifact the paper's code generator
//! produces.
//!
//! spg-CNN is a *code generation* framework: for each convolution layer it
//! emits specialized kernels whose setup work — weight layout transforms,
//! register-tile and cache-schedule planning — happens once per layer (or
//! once per parameter update), not once per sample. The stateless
//! [`ConvExecutor`] seam pays those costs
//! on every call; [`CompiledConv`] is the amortized form: compile once,
//! [`set_weights`](CompiledConv::set_weights) after each SGD step, and run
//! every sample of the batch against the cached plan.

use std::fmt;

use spg_codegen::{KernelChoice, SpecializedKernel};
use spg_tensor::{layout, Tensor};

use spg_convnet::exec::ConvExecutor;
use spg_convnet::workspace::ConvScratch;
use spg_convnet::{gemm_exec, ConvSpec};

use crate::hybrid::HybridExecutor;
use crate::schedule::{LayerPlan, Technique};
use crate::sparse::{kernel as sparse_kernel, DEFAULT_TILE_WIDTH};
use crate::specialized::select_kernel;
use crate::stencil::{
    kernel as stencil_kernel, plan_cache_schedule, plan_register_tile, render_basic_block,
    CacheSchedule, RegisterTilePlan, VECTOR_WIDTH,
};

/// A convolution layer compiled against a [`LayerPlan`]: cached weight
/// transforms plus the generator's tile plans, executable over any number
/// of samples.
///
/// # Example
///
/// ```
/// use spg_convnet::workspace::ConvScratch;
/// use spg_convnet::ConvSpec;
/// use spg_core::compiled::CompiledConv;
/// use spg_core::schedule::recommended_plan;
///
/// let spec = ConvSpec::square(12, 16, 4, 3, 1);
/// let plan = recommended_plan(&spec, 0.9, 16);
/// let weights = vec![0.01; spec.weight_shape().len()];
/// let kernel = CompiledConv::compile(spec, plan, &weights, 1)?;
///
/// let input = vec![1.0; spec.input_shape().len()];
/// let mut output = vec![0.0; spec.output_shape().len()];
/// let mut scratch = ConvScratch::new();
/// kernel.forward_scratch(&input, &mut output, &mut scratch);
/// assert!(output.iter().any(|v| *v != 0.0));
/// # Ok::<(), spg_core::SpgError>(())
/// ```
pub struct CompiledConv {
    spec: ConvSpec,
    plan: LayerPlan,
    cores: usize,
    tile_width: usize,
    /// Owned weights in canonical FCKK order.
    weights: Tensor,
    /// Cached `[ky, kx, f, c]` weights for the sparse backward kernel.
    w_kkfc: Option<Tensor>,
    /// Cached `[ky][kx] (Nc x Nf)` weights for the narrow stencil path.
    w_kkcf: Option<Vec<f32>>,
    /// Verified `spg-codegen` instance for the forward stencil, when one
    /// resolved (stencil plans compiled with [`KernelChoice::Auto`] only).
    specialized: Option<&'static SpecializedKernel>,
    /// Banded intra-sample executor for hybrid forward plans; owns the
    /// per-worker staging pool so repeated calls allocate nothing.
    hybrid: Option<HybridExecutor>,
    register_tile: RegisterTilePlan,
    cache_schedule: CacheSchedule,
}

impl CompiledConv {
    /// Compiles a layer: plans the register tile and cache schedule and
    /// pre-computes every weight transform the chosen techniques need.
    ///
    /// # Errors
    ///
    /// Returns [`SpgError::InvalidNetwork`](crate::SpgError::InvalidNetwork)
    /// if the weight buffer length does not match the spec, or
    /// [`SpgError::PlanRejected`](crate::SpgError::PlanRejected) if the
    /// static verifier cannot prove the lowered plan safe.
    pub fn compile(
        spec: ConvSpec,
        plan: LayerPlan,
        weights: &[f32],
        cores: usize,
    ) -> Result<Self, crate::SpgError> {
        Self::compile_with_kernel(spec, plan, weights, cores, KernelChoice::Auto)
    }

    /// [`compile`](CompiledConv::compile) with an explicit forward-kernel
    /// choice: [`KernelChoice::Auto`] consults the `spg-codegen` registry
    /// after the plan verifies (a resolved instance is itself re-verified
    /// against its own lowered plan before it is kept);
    /// [`KernelChoice::Generic`] pins the generic runtime-parameterized
    /// loops — what the autotuner passes when per-layer measurement
    /// favours them.
    ///
    /// # Errors
    ///
    /// Returns [`SpgError::InvalidNetwork`](crate::SpgError::InvalidNetwork)
    /// if the weight buffer length does not match the spec, or
    /// [`SpgError::PlanRejected`](crate::SpgError::PlanRejected) if the
    /// static verifier cannot prove the lowered plan safe.
    pub fn compile_with_kernel(
        spec: ConvSpec,
        plan: LayerPlan,
        weights: &[f32],
        cores: usize,
        kernel_choice: KernelChoice,
    ) -> Result<Self, crate::SpgError> {
        if weights.len() != spec.weight_shape().len() {
            return Err(crate::SpgError::InvalidNetwork {
                message: format!(
                    "weight buffer has {} elements, spec requires {}",
                    weights.len(),
                    spec.weight_shape().len()
                ),
            });
        }
        // Plan-time gate: prove every access range of the lowered plan
        // in-bounds, disjoint across workers, and within scratch capacity
        // before constructing anything that will execute it.
        crate::verify::verify_plan(&spec, plan, cores.max(1))?;
        // Registry consult, after the generic plan passed: a specialized
        // instance is kept only if its own lowered plan also verifies
        // (select_kernel gates through verify_specialized).
        let specialized = match (plan.forward, kernel_choice) {
            (Technique::StencilFp, KernelChoice::Auto) => select_kernel(&spec),
            _ => None,
        };
        let mut compiled = CompiledConv {
            spec,
            plan,
            cores: cores.max(1),
            tile_width: DEFAULT_TILE_WIDTH,
            weights: Tensor::zeros(weights.len()),
            w_kkfc: None,
            w_kkcf: None,
            specialized,
            hybrid: plan.forward.band_dim().map(|dim| HybridExecutor::new(dim, cores.max(1))),
            register_tile: plan_register_tile(&spec),
            cache_schedule: plan_cache_schedule(&spec),
        };
        compiled.set_weights(weights);
        Ok(compiled)
    }

    /// Refreshes the cached weight transforms after a parameter update.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the compiled spec's weight
    /// count (the geometry was fixed at compile time).
    pub fn set_weights(&mut self, weights: &[f32]) {
        assert_eq!(weights.len(), self.spec.weight_shape().len(), "weights length");
        self.weights = Tensor::from_vec(weights.to_vec());
        self.w_kkfc = if self.plan.backward == Technique::SparseBp {
            match layout::fckk_to_kkfc(&self.weights, self.spec.weight_shape()) {
                Ok(kkfc) => Some(kkfc),
                Err(_) => unreachable!("weight length asserted at entry"),
            }
        } else {
            None
        };
        self.w_kkcf =
            if self.plan.forward == Technique::StencilFp && self.spec.out_w() < VECTOR_WIDTH {
                Some(stencil_kernel::narrow_weights(&self.spec, weights))
            } else {
                None
            };
    }

    /// The compiled convolution's specification.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// The plan the layer was compiled against.
    pub fn plan(&self) -> LayerPlan {
        self.plan
    }

    /// The generator's register-tile choice.
    pub fn register_tile(&self) -> RegisterTilePlan {
        self.register_tile
    }

    /// The generator's cache-schedule choice.
    pub fn cache_schedule(&self) -> CacheSchedule {
        self.cache_schedule
    }

    /// Which forward kernel this layer runs: `"specialized"` when a
    /// verified `spg-codegen` instance was bound at compile time,
    /// `"generic"` otherwise.
    pub fn kernel_kind(&self) -> &'static str {
        if self.specialized.is_some() {
            "specialized"
        } else {
            "generic"
        }
    }

    /// The bound specialized instance, if any.
    pub fn specialized_kernel(&self) -> Option<&'static SpecializedKernel> {
        self.specialized
    }

    /// Forward propagation for one sample running out of a
    /// caller-provided [`ConvScratch`]: with a reused scratch the
    /// per-sample path performs no heap allocation. `output` is
    /// overwritten.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths do not match the spec.
    pub fn forward_scratch(&self, input: &[f32], output: &mut [f32], scratch: &mut ConvScratch) {
        match self.plan.forward {
            Technique::StencilFp => {
                if let Some(w_kkcf) = &self.w_kkcf {
                    stencil_kernel::forward_narrow_pretransformed_scratch(
                        &self.spec, input, w_kkcf, output, scratch,
                    );
                } else if let Some(inst) = self.specialized {
                    inst.forward(
                        &self.spec,
                        input,
                        self.weights.as_slice(),
                        output,
                        scratch,
                        self.cache_schedule.y_tile,
                    );
                } else {
                    stencil_kernel::forward_scratch(
                        &self.spec,
                        input,
                        self.weights.as_slice(),
                        output,
                        scratch,
                    );
                }
            }
            Technique::ParallelGemm => {
                gemm_exec::forward_scratch(
                    &self.spec,
                    input,
                    self.weights.as_slice(),
                    output,
                    self.cores,
                    scratch,
                );
            }
            Technique::StencilYBand | Technique::StencilXBand | Technique::StencilOutChannel => {
                // The compile-time verifier proved the banded plan, so the
                // executor (sharing its band source of truth) runs it.
                self.hybrid
                    .as_ref()
                    .unwrap_or_else(|| {
                        unreachable!("hybrid plan compiled with its banded executor")
                    })
                    .forward(&self.spec, input, self.weights.as_slice(), output, scratch);
            }
            Technique::GemmInParallel | Technique::SparseBp => {
                gemm_exec::forward_scratch(
                    &self.spec,
                    input,
                    self.weights.as_slice(),
                    output,
                    1,
                    scratch,
                );
            }
        }
    }

    /// Backward error propagation for one sample running out of a
    /// caller-provided [`ConvScratch`]. `grad_in` is overwritten.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths do not match the spec.
    pub fn backward_data_scratch(
        &self,
        grad_out: &[f32],
        grad_in: &mut [f32],
        scratch: &mut ConvScratch,
    ) {
        match (&self.plan.backward, &self.w_kkfc) {
            (Technique::SparseBp, Some(w_kkfc)) => {
                sparse_kernel::backward_data_pretransformed_scratch(
                    &self.spec,
                    w_kkfc.as_slice(),
                    grad_out,
                    grad_in,
                    self.tile_width,
                    scratch,
                )
            }
            (Technique::ParallelGemm, _) => gemm_exec::backward_data_scratch(
                &self.spec,
                self.weights.as_slice(),
                grad_out,
                grad_in,
                self.cores,
                scratch,
            ),
            _ => gemm_exec::backward_data_scratch(
                &self.spec,
                self.weights.as_slice(),
                grad_out,
                grad_in,
                1,
                scratch,
            ),
        }
    }

    /// Delta-weight computation for one sample running out of a
    /// caller-provided [`ConvScratch`]. `grad_weights` is overwritten.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths do not match the spec.
    pub fn backward_weights_scratch(
        &self,
        input: &[f32],
        grad_out: &[f32],
        grad_weights: &mut [f32],
        scratch: &mut ConvScratch,
    ) {
        match self.plan.backward {
            Technique::SparseBp => sparse_kernel::backward_weights_scratch(
                &self.spec,
                input,
                grad_out,
                grad_weights,
                self.tile_width,
                scratch,
            ),
            Technique::ParallelGemm => gemm_exec::backward_weights_scratch(
                &self.spec,
                input,
                grad_out,
                grad_weights,
                self.cores,
                scratch,
            ),
            _ => gemm_exec::backward_weights_scratch(
                &self.spec,
                input,
                grad_out,
                grad_weights,
                1,
                scratch,
            ),
        }
    }

    /// Renders the generated kernels as readable pseudo-C: the stencil
    /// basic block for stencil forward plans, and the pointer-shifting
    /// sparse kernel for sparse backward plans.
    pub fn render(&self) -> String {
        let kernel = match self.specialized {
            Some(inst) => {
                format!(
                    "specialized ({}, {}, {} lanes)",
                    inst.key(),
                    inst.isa().name(),
                    inst.lanes()
                )
            }
            None => "generic".to_string(),
        };
        let mut out = format!(
            "/* compiled conv: {}\n   plan: {}\n   cache schedule: {}\n   forward kernel: {} */\n",
            self.spec, self.plan, self.cache_schedule, kernel
        );
        if self.plan.forward == Technique::StencilFp && self.spec.out_w() >= VECTOR_WIDTH {
            out.push_str(&render_basic_block(&self.spec, Some(self.register_tile)));
        }
        if self.plan.backward == Technique::SparseBp {
            out.push('\n');
            out.push_str(&crate::sparse::render_backward_kernel(&self.spec, self.tile_width));
        }
        out
    }
}

impl fmt::Debug for CompiledConv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CompiledConv({}, {}, tile {}, schedule {})",
            self.spec, self.plan, self.register_tile, self.cache_schedule
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spg_convnet::reference;

    fn pseudo(n: usize, salt: usize) -> Vec<f32> {
        (0..n).map(|i| (((i * 37 + salt * 11) % 23) as f32 - 11.0) / 9.0).collect()
    }

    fn sparse_grad(n: usize, keep: usize) -> Vec<f32> {
        (0..n).map(|i| if i % keep == 0 { ((i % 13) as f32 - 6.0) / 4.0 } else { 0.0 }).collect()
    }

    fn check_all_phases(spec: ConvSpec, plan: LayerPlan) {
        let weights = pseudo(spec.weight_shape().len(), 1);
        let kernel = match CompiledConv::compile(spec, plan, &weights, 2) {
            Ok(kernel) => kernel,
            // Hybrid forwards are legitimately rejected on specs they
            // cannot band; every other plan must compile.
            Err(err) => {
                assert!(plan.forward.band_dim().is_some(), "{spec} {plan}: {err}");
                return;
            }
        };
        let input = pseudo(spec.input_shape().len(), 2);
        let grad_out = sparse_grad(spec.output_shape().len(), 4);

        let mut scratch = ConvScratch::new();
        let mut out = vec![0.0; spec.output_shape().len()];
        let mut oracle = vec![0.0; spec.output_shape().len()];
        kernel.forward_scratch(&input, &mut out, &mut scratch);
        reference::forward(&spec, &input, &weights, &mut oracle);
        let d = out.iter().zip(&oracle).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(d < 1e-3, "{spec} fwd ({plan}): {d}");

        let mut gin = vec![0.0; spec.input_shape().len()];
        let mut gin_oracle = vec![0.0; spec.input_shape().len()];
        kernel.backward_data_scratch(&grad_out, &mut gin, &mut scratch);
        reference::backward_data(&spec, &weights, &grad_out, &mut gin_oracle);
        let d = gin.iter().zip(&gin_oracle).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(d < 1e-3, "{spec} bwd-data ({plan}): {d}");

        let mut gw = vec![0.0; spec.weight_shape().len()];
        let mut gw_oracle = vec![0.0; spec.weight_shape().len()];
        kernel.backward_weights_scratch(&input, &grad_out, &mut gw, &mut scratch);
        reference::backward_weights(&spec, &input, &grad_out, &mut gw_oracle);
        let d = gw.iter().zip(&gw_oracle).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(d < 1e-3, "{spec} bwd-w ({plan}): {d}");
    }

    #[test]
    fn every_plan_combination_matches_reference() {
        let wide = ConvSpec::square(14, 5, 3, 3, 1);
        let narrow = ConvSpec::square(7, 6, 4, 3, 1); // 5-wide output
        for spec in [wide, narrow] {
            for &fwd in Technique::forward_candidates() {
                for &bwd in Technique::backward_candidates() {
                    check_all_phases(spec, LayerPlan { forward: fwd, backward: bwd });
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        // One ConvScratch carried across every phase and plan combination
        // must not change results relative to a fresh per-call scratch.
        let spec = ConvSpec::square(14, 5, 3, 3, 1);
        let weights = pseudo(spec.weight_shape().len(), 6);
        let input = pseudo(spec.input_shape().len(), 7);
        let grad_out = sparse_grad(spec.output_shape().len(), 3);
        let mut scratch = ConvScratch::new();
        for &fwd in Technique::forward_candidates() {
            for &bwd in Technique::backward_candidates() {
                let plan = LayerPlan { forward: fwd, backward: bwd };
                let kernel = match CompiledConv::compile(spec, plan, &weights, 2) {
                    Ok(kernel) => kernel,
                    Err(err) => {
                        assert!(plan.forward.band_dim().is_some(), "{plan}: {err}");
                        continue;
                    }
                };
                let olen = spec.output_shape().len();
                let (ilen, wlen) = (spec.input_shape().len(), spec.weight_shape().len());
                let mut a = vec![0f32; olen];
                let mut b = vec![0f32; olen];
                kernel.forward_scratch(&input, &mut a, &mut scratch);
                kernel.forward_scratch(&input, &mut b, &mut ConvScratch::new());
                assert_eq!(a, b, "{plan} fwd");
                let mut ga = vec![0f32; ilen];
                let mut gb = vec![0f32; ilen];
                kernel.backward_data_scratch(&grad_out, &mut ga, &mut scratch);
                kernel.backward_data_scratch(&grad_out, &mut gb, &mut ConvScratch::new());
                assert_eq!(ga, gb, "{plan} bwd-data");
                let mut wa = vec![0f32; wlen];
                let mut wb = vec![0f32; wlen];
                kernel.backward_weights_scratch(&input, &grad_out, &mut wa, &mut scratch);
                kernel.backward_weights_scratch(
                    &input,
                    &grad_out,
                    &mut wb,
                    &mut ConvScratch::new(),
                );
                assert_eq!(wa, wb, "{plan} bwd-w");
            }
        }
    }

    #[test]
    fn set_weights_refreshes_caches() {
        let spec = ConvSpec::square(10, 4, 2, 3, 1);
        let plan = LayerPlan { forward: Technique::StencilFp, backward: Technique::SparseBp };
        let w1 = pseudo(spec.weight_shape().len(), 3);
        let mut kernel = CompiledConv::compile(spec, plan, &w1, 1).expect("valid weights");

        let input = pseudo(spec.input_shape().len(), 4);
        let grad_out = sparse_grad(spec.output_shape().len(), 3);
        let mut scratch = ConvScratch::new();
        let mut before = vec![0.0; spec.input_shape().len()];
        kernel.backward_data_scratch(&grad_out, &mut before, &mut scratch);

        let w2: Vec<f32> = w1.iter().map(|v| v * 2.0).collect();
        kernel.set_weights(&w2);
        let mut after = vec![0.0; spec.input_shape().len()];
        kernel.backward_data_scratch(&grad_out, &mut after, &mut scratch);
        for (b, a) in before.iter().zip(&after) {
            assert!((b * 2.0 - a).abs() < 1e-4, "cache not refreshed: {b} vs {a}");
        }
        let _ = input;
    }

    #[test]
    fn compile_validates_weight_length() {
        let spec = ConvSpec::square(8, 2, 2, 3, 1);
        let plan = LayerPlan { forward: Technique::StencilFp, backward: Technique::SparseBp };
        assert!(CompiledConv::compile(spec, plan, &[0.0; 3], 1).is_err());
    }

    #[test]
    fn render_includes_plan_and_block() {
        let spec = ConvSpec::square(16, 4, 2, 3, 1);
        let plan = LayerPlan { forward: Technique::StencilFp, backward: Technique::SparseBp };
        let weights = vec![0.1; spec.weight_shape().len()];
        let kernel = CompiledConv::compile(spec, plan, &weights, 1).expect("valid weights");
        let listing = kernel.render();
        assert!(listing.contains("Stencil-Kernel"));
        assert!(listing.contains("_mm256_fmadd_ps"));
        assert!(listing.contains("output tile"));
    }

    /// A pinned-generic compile never binds an instance, and its output is
    /// bit-identical to the auto compile's (the specialized instance
    /// preserves the generic reduction order exactly).
    #[test]
    fn kernel_choice_generic_pins_generic_and_matches_auto() {
        let spec = ConvSpec::square(24, 4, 3, 3, 1); // 22-wide output, 3x3 s1
        let plan = LayerPlan { forward: Technique::StencilFp, backward: Technique::SparseBp };
        let weights = pseudo(spec.weight_shape().len(), 8);
        let auto = CompiledConv::compile(spec, plan, &weights, 1).expect("valid weights");
        let generic = CompiledConv::compile_with_kernel(
            spec,
            plan,
            &weights,
            1,
            spg_codegen::KernelChoice::Generic,
        )
        .expect("valid weights");
        assert_eq!(generic.kernel_kind(), "generic");
        assert!(generic.specialized_kernel().is_none());
        if spg_gemm::detect_simd_level() >= spg_gemm::SimdLevel::Avx2Fma
            && !spg_codegen::force_generic()
        {
            assert_eq!(auto.kernel_kind(), "specialized");
            assert!(auto.render().contains("forward kernel: specialized"));
        }
        let input = pseudo(spec.input_shape().len(), 9);
        let mut scratch = ConvScratch::new();
        let mut a = vec![0f32; spec.output_shape().len()];
        let mut b = vec![0f32; spec.output_shape().len()];
        auto.forward_scratch(&input, &mut a, &mut scratch);
        generic.forward_scratch(&input, &mut b, &mut scratch);
        assert_eq!(a, b);
    }

    /// Shapes outside the registry compile to the generic kernel even
    /// under `KernelChoice::Auto` — the silent fallback.
    #[test]
    fn unlisted_shape_compiles_generic() {
        let spec = ConvSpec::square(14, 5, 3, 4, 1); // 4x4 kernel: no key
        let plan = LayerPlan { forward: Technique::StencilFp, backward: Technique::SparseBp };
        let weights = pseudo(spec.weight_shape().len(), 5);
        let kernel = CompiledConv::compile(spec, plan, &weights, 1).expect("valid weights");
        assert_eq!(kernel.kernel_kind(), "generic");
        assert!(kernel.render().contains("forward kernel: generic"));
    }

    #[test]
    fn debug_is_informative() {
        let spec = ConvSpec::square(8, 2, 2, 3, 1);
        let plan = LayerPlan { forward: Technique::GemmInParallel, backward: Technique::SparseBp };
        let weights = vec![0.1; spec.weight_shape().len()];
        let kernel = CompiledConv::compile(spec, plan, &weights, 1).expect("valid weights");
        assert!(format!("{kernel:?}").contains("CompiledConv"));
    }
}
