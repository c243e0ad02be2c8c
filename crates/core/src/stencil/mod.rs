//! **Stencil-Kernel (FP)** — generated direct convolution (paper Sec. 4.3).
//!
//! Unfolding a small convolution multiplies its memory traffic by up to
//! `Fx * Fy`, collapsing arithmetic intensity (Table 1, IDs 0 and 5). The
//! stencil kernel instead computes the convolution *in place*, exploiting
//! the same spatial reuse a stencil computation enjoys: each input element
//! contributes to up to `Fy * Fx` neighbouring outputs while it sits in a
//! register or cache line.
//!
//! The paper builds the kernel from two generators, a basic block and a
//! cache schedule. This module has the first:
//!
//! * [`RegisterTilePlan`] / [`plan_register_tile`] — the **basic block
//!   generator**: searches register tiles `nx x nfv` (output positions x
//!   vectors of output features) within the instruction set's register
//!   file for the one whose row sweep issues fewest, then loads least per
//!   FMA. Its choice is the tile the plan carries and the kernel runs.
//! * The **register-tiled basic block** every stencil plan runs is
//!   [`spg_codegen::forward_tiled`]: one loop nest sweeping the proved
//!   plan's tile over its regions, output features as vector lanes,
//!   instantiated with compile-time geometry (registry instances) and
//!   run-time geometry (every other shape). Rows narrower than one vector
//!   are one store group of the whole row. The stride is a broadcast
//!   offset, so strided layers read the CHW input in place — the paper's
//!   Eq. 21 strided-layout transform is not needed.
//! * [`render_tiled_block`] / [`render_basic_block`] — emit the basic
//!   block a proved plan executes, and the one the search models, as
//!   readable pseudo-C intrinsics, mirroring the paper's Fig. 7 listing.
//!
//! The schedule generator (cache and TLB tiles) is not implemented: the
//! loop nest sweeps rows, then feature blocks, then position groups, and a
//! cache schedule would have to be a loop it executes.
//!
//! Which tile runs for a layer is decided once, when
//! [`verify::lower`](crate::verify::lower) lowers the layer's plan; a
//! one-wide output row fits no tile and lowers to Unfold+GEMM.

mod plan;
mod render;

pub use plan::{plan_register_tile, RegisterTilePlan, L1_WEIGHT_BYTES};
pub use render::{render_basic_block, render_tiled_block};
pub use spg_check::VECTOR_WIDTH;
