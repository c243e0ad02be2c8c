//! Typed verification failures naming the offending access.

use std::fmt;

/// The buffer an access range was proved (or failed to prove) against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Buf {
    /// The layer input tensor (CHW) or its HWC staging copy.
    Input,
    /// The layer weight tensor (or a permuted copy of it).
    Weights,
    /// The layer output tensor.
    Output,
    /// The input-gradient tensor written by backward-data.
    GradIn,
    /// The output-gradient tensor read by backward.
    GradOut,
    /// The weight-gradient tensor written by backward-weights.
    GradWeights,
    /// `ConvScratch::mat_a` (unfold / gather / transpose staging).
    MatA,
    /// `ConvScratch::mat_b` (backward-data unfolded gradient).
    MatB,
    /// `ConvScratch::hwc_in` (HWC / phase-transformed input staging).
    HwcIn,
    /// `ConvScratch::hwc_out` (HWC output staging).
    HwcOut,
    /// `ConvScratch::wperm` (permuted-order weight-gradient staging).
    Wperm,
}

impl Buf {
    /// Stable short name used in error messages and telemetry.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Buf::Input => "input",
            Buf::Weights => "weights",
            Buf::Output => "output",
            Buf::GradIn => "grad_in",
            Buf::GradOut => "grad_out",
            Buf::GradWeights => "grad_weights",
            Buf::MatA => "scratch.mat_a",
            Buf::MatB => "scratch.mat_b",
            Buf::HwcIn => "scratch.hwc_in",
            Buf::HwcOut => "scratch.hwc_out",
            Buf::Wperm => "scratch.wperm",
        }
    }
}

impl fmt::Display for Buf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A plan was proved unsafe (or inconsistent with its layer spec); nothing ran.
///
/// Every variant names the construct that failed so the rejection can be logged
/// and acted on without reproducing the abstract interpretation by hand.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckError {
    /// A symbolically computed access range `[lo, hi)` escapes the buffer.
    OutOfBounds {
        /// Buffer the access targets.
        buffer: Buf,
        /// Which access expression in the plan produced the range.
        context: &'static str,
        /// Lowest index the plan would touch.
        lo: usize,
        /// One past the highest index the plan would touch.
        hi: usize,
        /// Declared length of the buffer.
        len: usize,
    },
    /// A partition of an output buffer leaves some element unwritten.
    IncompleteCover {
        /// Buffer the partition targets.
        buffer: Buf,
        /// Which partition in the plan is incomplete.
        context: &'static str,
        /// First index no worker/tile covers.
        missing: usize,
        /// Declared length of the buffer.
        len: usize,
    },
    /// Two parallel workers would write overlapping output regions (a data race).
    OverlappingWorkers {
        /// Buffer both workers write.
        buffer: Buf,
        /// Which parallel split in the plan overlaps.
        context: &'static str,
        /// First worker index.
        worker_a: usize,
        /// Second worker index.
        worker_b: usize,
        /// First worker's write range `[lo, hi)`.
        a: (usize, usize),
        /// Second worker's write range `[lo, hi)`.
        b: (usize, usize),
    },
    /// A plan's high-water scratch footprint exceeds the reserved capacity.
    ScratchOverflow {
        /// Scratch buffer that would need to grow (i.e. allocate) mid-run.
        buffer: Buf,
        /// Which staging step in the plan needs the capacity.
        context: &'static str,
        /// Elements the plan requires.
        required: usize,
        /// Elements the `ConvScratch` reservation provides.
        reserved: usize,
    },
    /// A plan parameter disagrees with what the layer spec implies.
    PlanShapeMismatch {
        /// Which parameter is inconsistent.
        context: &'static str,
        /// Value the spec implies.
        expected: usize,
        /// Value the plan carries.
        found: usize,
    },
    /// A plan exceeds a hardware budget the generator is required to respect.
    BudgetExceeded {
        /// Which budget (accumulator registers, L1 working set, TLB pages).
        context: &'static str,
        /// Amount the plan uses.
        used: usize,
        /// The budget ceiling.
        budget: usize,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::OutOfBounds { buffer, context, lo, hi, len } => {
                write!(f, "{context}: access range [{lo}, {hi}) escapes {buffer} of length {len}")
            }
            CheckError::IncompleteCover { buffer, context, missing, len } => write!(
                f,
                "{context}: partition of {buffer} (length {len}) never writes index {missing}"
            ),
            CheckError::OverlappingWorkers { buffer, context, worker_a, worker_b, a, b } => {
                write!(
                    f,
                    "{context}: workers {worker_a} and {worker_b} write overlapping ranges \
                     [{}, {}) and [{}, {}) of {buffer}",
                    a.0, a.1, b.0, b.1
                )
            }
            CheckError::ScratchOverflow { buffer, context, required, reserved } => write!(
                f,
                "{context}: needs {required} elements of {buffer} but only {reserved} reserved"
            ),
            CheckError::PlanShapeMismatch { context, expected, found } => {
                write!(f, "{context}: plan carries {found}, spec implies {expected}")
            }
            CheckError::BudgetExceeded { context, used, budget } => {
                write!(f, "{context}: plan uses {used}, budget is {budget}")
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// Stable short tag for a rejection, suitable for telemetry.
impl CheckError {
    /// One-word classification of the failure (variant name in kebab case).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            CheckError::OutOfBounds { .. } => "out-of-bounds",
            CheckError::IncompleteCover { .. } => "incomplete-cover",
            CheckError::OverlappingWorkers { .. } => "overlapping-workers",
            CheckError::ScratchOverflow { .. } => "scratch-overflow",
            CheckError::PlanShapeMismatch { .. } => "plan-shape-mismatch",
            CheckError::BudgetExceeded { .. } => "budget-exceeded",
        }
    }
}
