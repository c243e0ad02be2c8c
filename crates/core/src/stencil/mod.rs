//! **Stencil-Kernel (FP)** — generated direct convolution (paper Sec. 4.3).
//!
//! Unfolding a small convolution multiplies its memory traffic by up to
//! `Fx * Fy`, collapsing arithmetic intensity (Table 1, IDs 0 and 5). The
//! stencil kernel instead computes the convolution *in place*, exploiting
//! the same spatial reuse a stencil computation enjoys: each input element
//! contributes to up to `Fy * Fx` neighbouring outputs while it sits in a
//! register or cache line.
//!
//! The module mirrors the paper's two-stage generator:
//!
//! * [`RegisterTilePlan`] / [`plan_register_tile`] — the **basic block
//!   generator**: searches output register-tile shapes `rx x ry`
//!   (vectors wide x rows tall) for the one minimizing vector loads per
//!   FMA, subject to the accumulator-register budget.
//! * [`CacheSchedule`] / [`plan_cache_schedule`] — the **schedule
//!   generator**: picks output cache tiles whose working set fits L1 and
//!   whose footprint respects the TLB budget; the kernel holds one such
//!   tile across the whole channel reduction.
//! * The **register-tiled basic block** a wide plan runs is
//!   [`spg_codegen::forward_tiled`]: one loop nest over the proved plan's
//!   own x-tiles and cache row block, instantiated with compile-time
//!   geometry (registry instances) and run-time geometry (every other
//!   shape), the Eq. 21 strided-layout transform applied first when the
//!   convolution's `x`-stride is not 1.
//! * [`kernel`] — the feature-vectorized shifted-GEMM path narrow plans
//!   run.
//! * [`render_tiled_block`] / [`render_basic_block`] — emit the basic
//!   block a proved plan executes, and the one the search models, as
//!   readable pseudo-C intrinsics, mirroring the paper's Fig. 7 listing.
//!
//! Which of these runs for a layer is decided once, when
//! [`verify::lower`](crate::verify::lower) lowers the layer's plan.

pub mod kernel;
mod plan;
mod render;
mod schedule;

pub use plan::{plan_register_tile, RegisterTilePlan};
pub use render::{render_basic_block, render_tiled_block};
pub use schedule::{plan_cache_schedule, CacheSchedule};
// The generators search under the budgets the verifier judges against.
pub use spg_check::{
    ACCUMULATOR_BUDGET, L1_BUDGET_ELEMS, PAGE_ELEMS, TLB_BUDGET_PAGES, VECTOR_WIDTH,
};
