//! `spg-check`: plan-time static verification of spg-CNN execution plans.
//!
//! The paper's performance comes from *generated* code over raw buffers —
//! register-tiled stencil basic blocks (Sec. 4.3), CT-CSR pointer-shifting
//! sparse composition (Eq. 11–15), and Parallel-GEMM row-band splits. A wrong plan there is silent memory corruption, not a
//! test failure. This crate closes that gap with an abstract interpretation
//! over the plan IR: every read/write access range is computed symbolically
//! (exact interval arithmetic over the kernels' monotone affine index
//! expressions) and proved
//!
//! * **in-bounds** for the declared tensor shapes,
//! * **disjoint** across parallel workers (race-free by construction),
//! * **within capacity** of the reserved [`ConvScratch`] staging buffers, and
//! * **consistent** with the layer spec's loop bounds and strides,
//!
//! returning a typed [`CheckError`] naming the offending access instead of
//! executing. Verification runs at plan time (microseconds per layer), never
//! per sample, and its success is a value: [`verify_conv_plan`] returns a
//! [`VerifiedPlan`], the only thing the kernels' `unsafe` tile loops accept
//! their bounds — and, split across workers, their output — from.
//!
//! [`ConvScratch`]: spg_convnet::workspace::ConvScratch

mod banded;
pub mod capacity;
pub mod error;
pub mod gemm;
pub mod interval;
pub mod plan;
mod sparse;
mod stencil;
mod verified;

pub use capacity::ScratchCapacity;
pub use error::{Buf, CheckError};
pub use interval::Span;
pub use plan::{
    sparse_block, vector_registers, BackwardPlan, ConvPlan, ForwardPlan, RegisterTile, VECTOR_WIDTH,
};
pub use verified::{TileRegion, VerifiedPlan, VerifiedTiled};

use spg_convnet::ConvSpec;

/// What a successful verification proved, for telemetry and reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Symbolic access ranges and consistency facts proved in-bounds.
    pub accesses_proved: usize,
    /// Parallel worker regions proved disjoint and covering.
    pub worker_regions: usize,
}

impl CheckReport {
    /// Accumulates another report (e.g. across layers of a network).
    pub fn absorb(&mut self, other: CheckReport) {
        self.accesses_proved += other.accesses_proved;
        self.worker_regions += other.worker_regions;
    }
}

/// The abstract interpreter's accumulator: counts proved facts and performs
/// the two primitive judgments (range-in-bounds, capacity-covers).
#[derive(Debug, Default)]
pub(crate) struct Interp {
    pub report: CheckReport,
}

impl Interp {
    /// Records `n` facts proved by plain arithmetic (no range involved).
    fn proved(&mut self, n: usize) {
        self.report.accesses_proved += n;
    }

    /// Judges a symbolic access range against a buffer length.
    fn access(
        &mut self,
        buffer: Buf,
        context: &'static str,
        span: Span,
        len: usize,
    ) -> Result<(), CheckError> {
        if span.hi > len {
            return Err(CheckError::OutOfBounds { buffer, context, lo: span.lo, hi: span.hi, len });
        }
        self.proved(1);
        Ok(())
    }

    /// Judges a required staging footprint against reserved capacity.
    fn capacity(
        &mut self,
        buffer: Buf,
        context: &'static str,
        required: usize,
        reserved: usize,
    ) -> Result<(), CheckError> {
        if required > reserved {
            return Err(CheckError::ScratchOverflow { buffer, context, required, reserved });
        }
        self.proved(1);
        Ok(())
    }
}

/// Verifies a forward plan against `spec`. No forward plan stages
/// anything in the scratch: the stencil reads the input in place and the
/// GEMM packs its image operand straight from it.
pub fn verify_forward(spec: &ConvSpec, forward: &ForwardPlan) -> Result<CheckReport, CheckError> {
    let mut interp = Interp::default();
    match *forward {
        ForwardPlan::StencilTiled { lanes, tile } => {
            stencil::check_forward_tiled(&mut interp, spec, lanes, tile)?;
        }
        ForwardPlan::StencilBanded { lanes, tile, ref bands } => {
            banded::check_forward_banded(&mut interp, spec, lanes, tile, bands)?;
        }
        ForwardPlan::UnfoldGemm { threads } => {
            gemm::check_forward_gemm(&mut interp, spec, threads)?;
        }
    }
    Ok(interp.report)
}

/// Verifies a backward plan against `spec` and the scratch capacities `cap`.
pub fn verify_backward(
    spec: &ConvSpec,
    backward: &BackwardPlan,
    cap: &ScratchCapacity,
) -> Result<CheckReport, CheckError> {
    let mut interp = Interp::default();
    match backward {
        BackwardPlan::SparsePointerShift { tile_width, lanes } => {
            sparse::check_backward_sparse(&mut interp, spec, *tile_width, *lanes, cap)?;
        }
        BackwardPlan::UnfoldGemm { threads } => {
            gemm::check_backward_gemm(&mut interp, spec, *threads, cap)?;
        }
    }
    Ok(interp.report)
}

/// Verifies a complete lowered layer plan — both phases — and returns it
/// as the proof-carrying [`VerifiedPlan`] the kernels execute from. This is
/// the only way to obtain one.
///
/// # Errors
///
/// Returns the typed [`CheckError`] naming the first judgment that failed;
/// no `VerifiedPlan` exists for a rejected plan.
pub fn verify_conv_plan(
    spec: &ConvSpec,
    plan: ConvPlan,
    cap: &ScratchCapacity,
) -> Result<VerifiedPlan, CheckError> {
    let mut report = verify_forward(spec, &plan.forward)?;
    report.absorb(verify_backward(spec, &plan.backward, cap)?);
    Ok(VerifiedPlan::proved(*spec, plan, report))
}
