//! Executing a lowered plan: [`ConvProgram`] and its weight-owning form,
//! [`CompiledConv`] — the artifact the paper's code generator produces.
//!
//! spg-CNN is a *code generation* framework: for each convolution layer it
//! decides once which kernels run and with what tiles, bands and worker
//! counts. Here that decision is a [`ConvProgram`]: the plan
//! [`verify::lower`](crate::verify::lower) lowered and `spg-check` proved,
//! plus the `spg-codegen` instance bound to it. The program's three phase
//! methods are the only dispatch in the crate — one `match` on the lowered
//! [`ForwardPlan`] / [`BackwardPlan`] — and its `prepare` is the only
//! place that knows which weight permutation such a plan reads. Both
//! entry points are those four functions over a [`PreparedWeights`]:
//! training installs [`ConvProgram::executor_for`] on a [`ConvLayer`],
//! which owns the prepared weights and refreshes them per update through
//! the [`ConvExecutor`] seam; serving holds a [`CompiledConv`] — program,
//! plan and its own prepared weights, refreshed by
//! [`set_weights`](CompiledConv::set_weights).

use std::fmt;
use std::sync::Arc;

use spg_check::{BackwardPlan, BandDim, CheckReport, ConvPlan, ForwardPlan, VerifiedPlan};
use spg_codegen::{KernelChoice, SpecializedKernel};
use spg_tensor::layout;

use spg_convnet::exec::{ConvExecutor, PreparedWeights, SharedExecutor};
use spg_convnet::layer::ConvLayer;
use spg_convnet::workspace::{zeroed_slice, ConvScratch};
use spg_convnet::{gemm_exec, ConvSpec};

use crate::autotune::Phase;
use crate::schedule::{LayerPlan, Technique};
use crate::sparse::kernel as sparse_kernel;
use crate::stencil::{
    kernel as stencil_kernel, plan_cache_schedule, plan_register_tile, render_tiled_block,
};

/// A verified, kernel-bound layer plan, executable over any number of
/// samples against weights [prepared](ConvProgram::prepared) for it. Built
/// only by
/// [`verify::lower`](crate::verify::lower).
#[derive(Debug)]
pub struct ConvProgram {
    plan: VerifiedPlan,
    /// The `spg-codegen` instance the tiled forward — sequential or
    /// banded — runs, bound at lowering; `None` runs the run-time-geometry
    /// instance.
    kernel: Option<&'static SpecializedKernel>,
    /// The technique pair `plan` was lowered from.
    techniques: LayerPlan,
    /// The cores `plan` was lowered for: how many regions its splits have.
    cores: usize,
}

impl ConvProgram {
    /// Binds a proved plan to the instance lowering chose for it, with the
    /// technique pair and core count it was lowered from.
    pub(crate) fn bind(
        plan: VerifiedPlan,
        kernel: Option<&'static SpecializedKernel>,
        techniques: LayerPlan,
        cores: usize,
    ) -> Self {
        ConvProgram { plan, kernel, techniques, cores }
    }

    /// The convolution this program was lowered for.
    pub fn spec(&self) -> &ConvSpec {
        self.plan.spec()
    }

    /// The lowered plan `spg-check` proved — the one that executes.
    pub fn plan(&self) -> &ConvPlan {
        self.plan.plan()
    }

    /// What the proof covered.
    pub fn report(&self) -> CheckReport {
        self.plan.report()
    }

    /// The bound specialized instance, if any.
    pub fn specialized_kernel(&self) -> Option<&'static SpecializedKernel> {
        self.kernel
    }

    /// Which forward kernel this program runs: `"specialized"` when a
    /// verified `spg-codegen` instance was bound at lowering, `"generic"`
    /// otherwise.
    pub fn kernel_kind(&self) -> &'static str {
        if self.kernel.is_some() {
            "specialized"
        } else {
            "generic"
        }
    }

    /// The technique pair this program was lowered from.
    pub fn techniques(&self) -> LayerPlan {
        self.techniques
    }

    /// The dimension the forward plan splits one sample along, as the
    /// decision log spells it: `"y-band"` / `"out-channel"` for a banded
    /// stencil, `"out-channel"` for GEMM row bands, `"sample"` for a plan
    /// with nothing to run beside itself.
    pub fn partition(&self) -> &'static str {
        match &self.plan.plan().forward {
            ForwardPlan::StencilBanded { dim: BandDim::YRows, .. } => "y-band",
            ForwardPlan::StencilBanded { dim: BandDim::OutChannels, .. } => "out-channel",
            ForwardPlan::UnfoldGemm { threads } if *threads > 1 => "out-channel",
            _ => "sample",
        }
    }

    /// The cores this program was lowered for. A caller that owns them all
    /// for one sample — a [`CompiledConv`], a measurement — runs the phase
    /// methods with this as the scratch's
    /// [core budget](ConvScratch::cores); a network walk passes its own.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// This program as a [`ConvLayer`] executor for `phase`'s slot. Both
    /// slots' executors run all three phases identically; `phase` selects
    /// which half of the plan [`ConvExecutor::name`] reports
    /// (`"stencil-fp"`, `"sparse-bp"`, ...) and
    /// [`ConvExecutor::prepare`] prepares weights for.
    pub fn executor_for(self: &Arc<Self>, phase: Phase) -> SharedExecutor {
        Arc::new(PlanExecutor { program: Arc::clone(self), phase })
    }

    /// Installs this program in `conv`'s executor slots for `slots`; the
    /// other slot keeps whatever it held.
    pub fn install(self, conv: &mut ConvLayer, slots: &[Phase]) {
        let program = Arc::new(self);
        for &phase in slots {
            match phase {
                Phase::Forward => conv.set_forward_executor(program.executor_for(phase)),
                Phase::Backward => conv.set_backward_executor(program.executor_for(phase)),
            }
        }
    }

    /// Refreshes in `weights` the permuted copies of `weights.fckk` that
    /// `phases` of this plan read: the narrow stencil forward's `kkcf`, the
    /// sparse backward-data's `kkfc`, nothing for every other plan.
    ///
    /// # Panics
    ///
    /// Panics if `weights.fckk` does not match the spec's weight count.
    pub(crate) fn prepare(&self, phases: &[Phase], weights: &mut PreparedWeights) {
        let shape = self.plan.spec().weight_shape();
        let lowered = self.plan.plan();
        let PreparedWeights { fckk, kkfc, kkcf } = weights;
        if phases.contains(&Phase::Forward) && lowered.forward == ForwardPlan::StencilNarrow {
            layout::narrow_weights_into(fckk.as_slice(), shape, zeroed_slice(kkcf, fckk.len()));
        }
        if phases.contains(&Phase::Backward)
            && matches!(lowered.backward, BackwardPlan::SparsePointerShift { .. })
        {
            layout::fckk_to_kkfc_into(fckk.as_slice(), shape, zeroed_slice(kkfc, fckk.len()));
        }
    }

    /// `weights` prepared for both phases of this plan — what a caller
    /// without a layer (measurement, tests) runs the phase methods against.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` does not match the spec's weight count.
    pub fn prepared(&self, weights: &[f32]) -> PreparedWeights {
        let mut prepared = PreparedWeights::new(weights.to_vec());
        self.prepare(&[Phase::Forward, Phase::Backward], &mut prepared);
        prepared
    }

    /// Forward propagation for one sample. `output` is overwritten. The
    /// plan's regions — stencil bands, GEMM row bands — run on as many
    /// threads as `scratch`'s [core budget](ConvScratch::cores) allows;
    /// the output bits do not depend on it.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths do not match the spec, or `weights` was
    /// not [prepared](ConvProgram::prepared) for this plan's forward.
    pub fn forward(
        &self,
        input: &[f32],
        weights: &PreparedWeights,
        output: &mut [f32],
        scratch: &mut ConvScratch,
    ) {
        let spec = self.plan.spec();
        let fckk = weights.fckk.as_slice();
        match &self.plan.plan().forward {
            // A banded plan is the tiled plan with its loop nest split
            // across the call's cores: same kernel, same scratch.
            ForwardPlan::StencilTiled { .. } | ForwardPlan::StencilBanded { .. } => {
                let tiled = self.plan.tiled().unwrap_or_else(|| unreachable!("forward is tiled"));
                spg_codegen::forward_tiled(self.kernel, tiled, input, fckk, output, scratch);
            }
            ForwardPlan::StencilNarrow => {
                stencil_kernel::forward_narrow_scratch(spec, input, &weights.kkcf, output, scratch);
            }
            ForwardPlan::UnfoldGemm { threads } => {
                gemm_exec::forward_scratch(spec, input, fckk, output, *threads, scratch);
            }
        }
    }

    /// Backward error propagation for one sample. `grad_in` is
    /// overwritten.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths do not match the spec, or `weights` was
    /// not [prepared](ConvProgram::prepared) for this plan's backward.
    pub fn backward_data(
        &self,
        weights: &PreparedWeights,
        grad_out: &[f32],
        grad_in: &mut [f32],
        scratch: &mut ConvScratch,
    ) {
        let spec = self.plan.spec();
        match self.plan.plan().backward {
            BackwardPlan::SparsePointerShift { tile_width } => {
                sparse_kernel::backward_data_scratch(
                    spec,
                    &weights.kkfc,
                    grad_out,
                    grad_in,
                    tile_width,
                    scratch,
                );
            }
            BackwardPlan::UnfoldGemm { threads } => {
                gemm_exec::backward_data_scratch(
                    spec,
                    weights.fckk.as_slice(),
                    grad_out,
                    grad_in,
                    threads,
                    scratch,
                );
            }
        }
    }

    /// Delta-weight computation for one sample. `grad_weights` is
    /// overwritten.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths do not match the spec.
    pub fn backward_weights(
        &self,
        input: &[f32],
        grad_out: &[f32],
        grad_weights: &mut [f32],
        scratch: &mut ConvScratch,
    ) {
        let spec = self.plan.spec();
        match self.plan.plan().backward {
            BackwardPlan::SparsePointerShift { tile_width } => {
                sparse_kernel::backward_weights_scratch(
                    spec,
                    input,
                    grad_out,
                    grad_weights,
                    tile_width,
                    scratch,
                );
            }
            BackwardPlan::UnfoldGemm { threads } => gemm_exec::backward_weights_scratch(
                spec,
                input,
                grad_out,
                grad_weights,
                threads,
                scratch,
            ),
        }
    }
}

/// A [`ConvProgram`] behind the [`ConvExecutor`] seam, named for the
/// [`ConvLayer`] slot it fills and preparing that slot's phase.
#[derive(Debug)]
struct PlanExecutor {
    program: Arc<ConvProgram>,
    phase: Phase,
}

impl ConvExecutor for PlanExecutor {
    fn name(&self) -> &str {
        // Named for the technique, not for the lowered plan: at more than
        // one core a sample-partitioned technique's plan carries a split it
        // runs only when a call is starved of samples. The GEMM names are
        // `UnfoldGemmExecutor`'s.
        let techniques = self.program.techniques();
        let (technique, own_kernel) = match self.phase {
            Phase::Forward => (techniques.forward, Technique::StencilFp),
            Phase::Backward => (techniques.backward, Technique::SparseBp),
        };
        match technique {
            t if t == own_kernel => t.id(),
            Technique::ParallelGemm if self.program.cores() > 1 => "unfold+parallel-gemm",
            // GEMM-in-Parallel, and the other phase's kernel falling back.
            _ => "unfold+gemm",
        }
    }

    fn prepare(&self, spec: &ConvSpec, weights: &mut PreparedWeights) {
        assert_eq!(spec, self.program.spec(), "executor was lowered for another layer");
        self.program.prepare(&[self.phase], weights);
    }

    fn forward(
        &self,
        spec: &ConvSpec,
        input: &[f32],
        weights: &PreparedWeights,
        output: &mut [f32],
        scratch: &mut ConvScratch,
    ) {
        assert_eq!(spec, self.program.spec(), "executor was lowered for another layer");
        self.program.forward(input, weights, output, scratch);
    }

    fn backward_data(
        &self,
        spec: &ConvSpec,
        weights: &PreparedWeights,
        grad_out: &[f32],
        grad_in: &mut [f32],
        scratch: &mut ConvScratch,
    ) {
        assert_eq!(spec, self.program.spec(), "executor was lowered for another layer");
        self.program.backward_data(weights, grad_out, grad_in, scratch);
    }

    fn backward_weights(
        &self,
        spec: &ConvSpec,
        input: &[f32],
        grad_out: &[f32],
        grad_weights: &mut [f32],
        scratch: &mut ConvScratch,
    ) {
        assert_eq!(spec, self.program.spec(), "executor was lowered for another layer");
        self.program.backward_weights(input, grad_out, grad_weights, scratch);
    }
}

/// A convolution layer compiled against a [`LayerPlan`]: the lowered
/// [`ConvProgram`] plus its own [`PreparedWeights`], executable over any
/// number of samples — what a [`ConvLayer`] with the program installed in
/// both slots holds, without the layer. Without a walker, too: a compiled
/// layer runs its forward on the cores it was compiled for
/// ([`ConvProgram::cores`]) — a serving worker compiles at 1 and stays on
/// its thread, a `cores`-wide compile of a lone layer uses them all.
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
    program: ConvProgram,
    /// Owned weights, prepared for both phases of `program`.
    weights: PreparedWeights,
}

impl CompiledConv {
    /// Compiles a layer: lowers and verifies the plan (binding a
    /// specialized instance where one resolves) and prepares the weights
    /// for it.
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
    /// choice: [`KernelChoice::Auto`] binds the `spg-codegen` instance
    /// lowering resolves for the shape; [`KernelChoice::Generic`] pins the
    /// generic runtime-parameterized loops — the bit-identity reference
    /// and what an [`AlgoKernel::Generic`](crate::backend::AlgoKernel) pin
    /// lowers with.
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
        let program = crate::verify::lower(&spec, plan, cores.max(1), kernel_choice)?;
        Self::from_program(program, weights)
    }

    /// Pairs an already lowered `program` with its weights.
    pub(crate) fn from_program(
        program: ConvProgram,
        weights: &[f32],
    ) -> Result<Self, crate::SpgError> {
        let expected = program.spec().weight_shape().len();
        if weights.len() != expected {
            return Err(crate::SpgError::InvalidNetwork {
                message: format!(
                    "weight buffer has {} elements, spec requires {expected}",
                    weights.len(),
                ),
            });
        }
        let weights = program.prepared(weights);
        Ok(CompiledConv { program, weights })
    }

    /// Replaces the weights after a parameter update and re-prepares them.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the compiled spec's weight
    /// count (the geometry was fixed at compile time).
    pub fn set_weights(&mut self, weights: &[f32]) {
        assert_eq!(weights.len(), self.weights.fckk.len(), "weights length");
        self.weights.fckk.as_mut_slice().copy_from_slice(weights);
        self.program.prepare(&[Phase::Forward, Phase::Backward], &mut self.weights);
    }

    /// The compiled convolution's specification.
    pub fn spec(&self) -> &ConvSpec {
        self.program.spec()
    }

    /// The plan the layer was compiled against.
    pub fn plan(&self) -> LayerPlan {
        self.program.techniques()
    }

    /// The lowered, verified program this layer executes.
    pub fn program(&self) -> &ConvProgram {
        &self.program
    }

    /// Which forward kernel this layer runs: `"specialized"` when a
    /// verified `spg-codegen` instance was bound at compile time,
    /// `"generic"` otherwise.
    pub fn kernel_kind(&self) -> &'static str {
        self.program.kernel_kind()
    }

    /// The bound specialized instance, if any.
    pub fn specialized_kernel(&self) -> Option<&'static SpecializedKernel> {
        self.program.specialized_kernel()
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
        // A compiled layer owns the cores it was compiled for, whoever
        // lends it the scratch.
        let lent = std::mem::replace(&mut scratch.cores, self.program.cores());
        self.program.forward(input, &self.weights, output, scratch);
        scratch.cores = lent;
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
        self.program.backward_data(&self.weights, grad_out, grad_in, scratch);
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
        self.program.backward_weights(input, grad_out, grad_weights, scratch);
    }

    /// Renders the generated kernels as readable pseudo-C: the basic block
    /// a tiled stencil forward — sequential or banded — executes, beside
    /// the tile the Sec. 4.3 search would pick, and the pointer-shifting
    /// sparse kernel for sparse backward plans.
    pub fn render(&self) -> String {
        let spec = self.program.spec();
        let kernel = match self.program.specialized_kernel() {
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
            "/* compiled conv: {}\n   plan: {}\n   cache schedule: {}\n   forward kernel: {}",
            spec,
            self.plan(),
            plan_cache_schedule(spec),
            kernel
        );
        match self.program.plan.tiled() {
            Some(tiled) => {
                let model = plan_register_tile(spec);
                out.push_str(&format!("\n   model optimum (Sec. 4.3): {model} */\n"));
                out.push_str(&render_tiled_block(tiled));
            }
            None => out.push_str(" */\n"),
        }
        let lowered = self.program.plan();
        if let BackwardPlan::SparsePointerShift { tile_width } = lowered.backward {
            out.push('\n');
            out.push_str(&crate::sparse::render_backward_kernel(spec, tile_width));
        }
        out
    }
}

impl fmt::Debug for CompiledConv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CompiledConv({}, {}, {})", self.program.spec(), self.plan(), self.kernel_kind())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Technique;
    use spg_convnet::reference;

    fn pseudo(n: usize, salt: usize) -> Vec<f32> {
        (0..n).map(|i| (((i * 37 + salt * 11) % 23) as f32 - 11.0) / 9.0).collect()
    }

    fn sparse_grad(n: usize, keep: usize) -> Vec<f32> {
        (0..n).map(|i| if i % keep == 0 { ((i % 13) as f32 - 6.0) / 4.0 } else { 0.0 }).collect()
    }

    fn check_all_phases(spec: ConvSpec, plan: LayerPlan) {
        let weights = pseudo(spec.weight_shape().len(), 1);
        let kernel = CompiledConv::compile(spec, plan, &weights, 2).expect("plan compiles");
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
                for &bwd in Technique::backward_candidates(2) {
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
            for &bwd in Technique::backward_candidates(2) {
                let plan = LayerPlan { forward: fwd, backward: bwd };
                let kernel = CompiledConv::compile(spec, plan, &weights, 2).expect("plan compiles");
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
        // What executes (6 rows of the 14-wide row's one vector), and what
        // the search models, labelled.
        assert!(listing.contains("1x6 register tile of 8-lane vectors"));
        assert!(listing.contains("model optimum (Sec. 4.3): "));
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
