//! The proof-carrying result of verification.
//!
//! [`verify_conv_plan`](crate::verify_conv_plan) is the only constructor of
//! a [`VerifiedPlan`], and a `VerifiedPlan` the only source of a
//! [`VerifiedTiled`] — the value the `unsafe` stencil tile loops take their
//! bounds from. The x-tiles, cache rows and band ranges a kernel iterates
//! are the very `Vec`s the abstract interpretation judged.

use spg_convnet::ConvSpec;

use crate::plan::{ConvPlan, ForwardPlan, XTile};
use crate::CheckReport;

/// A [`ConvPlan`] proved safe for one [`ConvSpec`]: it exists only if the
/// verifier accepted exactly this `(spec, plan)` pair.
#[derive(Debug, Clone)]
pub struct VerifiedPlan {
    spec: ConvSpec,
    plan: ConvPlan,
    report: CheckReport,
}

impl VerifiedPlan {
    /// Called by [`verify_conv_plan`](crate::verify_conv_plan) alone, after
    /// every judgment succeeded.
    pub(crate) fn proved(spec: ConvSpec, plan: ConvPlan, report: CheckReport) -> Self {
        VerifiedPlan { spec, plan, report }
    }

    /// The convolution the plan was proved against.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// The plan that was proved (read-only).
    pub fn plan(&self) -> &ConvPlan {
        &self.plan
    }

    /// What the proof covered.
    pub fn report(&self) -> CheckReport {
        self.report
    }

    /// The forward plan as the tile loops consume it, when it is the wide
    /// register-tiled stencil.
    pub fn tiled(&self) -> Option<VerifiedTiled<'_>> {
        VerifiedTiled::of(&self.spec, &self.plan.forward)
    }

    /// The worker bands of a banded forward plan in worker order: output
    /// range along the split dimension and the band's proved tiled plan on
    /// its sub-spec. Empty for every other forward plan.
    pub fn bands(&self) -> impl Iterator<Item = ((usize, usize), VerifiedTiled<'_>)> {
        let bands = match &self.plan.forward {
            ForwardPlan::StencilBanded { bands, .. } => bands.as_slice(),
            _ => &[],
        };
        // The banded check rejects any band whose inner plan is not the
        // tiled stencil, so no band is dropped here.
        bands.iter().filter_map(|b| Some((b.range, VerifiedTiled::of(&b.spec, &b.plan)?)))
    }
}

/// A proved [`ForwardPlan::StencilTiled`] bound to its spec: what
/// `spg-core`'s tile loops and `spg_codegen::SpecializedKernel::forward`
/// accept. Obtainable only from a [`VerifiedPlan`].
#[derive(Debug, Clone, Copy)]
pub struct VerifiedTiled<'a> {
    spec: &'a ConvSpec,
    lanes: usize,
    tile_rows: usize,
    cache_rows: usize,
    x_tiles: &'a [XTile],
    phased: bool,
}

impl<'a> VerifiedTiled<'a> {
    fn of(spec: &'a ConvSpec, plan: &'a ForwardPlan) -> Option<Self> {
        match plan {
            ForwardPlan::StencilTiled { lanes, tile_rows, cache_rows, x_tiles, phased } => {
                Some(VerifiedTiled {
                    spec,
                    lanes: *lanes,
                    tile_rows: *tile_rows,
                    cache_rows: *cache_rows,
                    x_tiles,
                    phased: *phased,
                })
            }
            _ => None,
        }
    }

    /// The convolution (or band restriction) the tiles were proved for.
    pub fn spec(&self) -> &'a ConvSpec {
        self.spec
    }

    /// SIMD lanes per vector store.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Output rows per basic-block invocation.
    pub fn tile_rows(&self) -> usize {
        self.tile_rows
    }

    /// Output rows per cache tile.
    pub fn cache_rows(&self) -> usize {
        self.cache_rows
    }

    /// The row segmentation, proved to cover `0..out_w` without escaping it.
    pub fn x_tiles(&self) -> &'a [XTile] {
        self.x_tiles
    }

    /// Whether the input is staged through the Eq. 21 phase transform.
    pub fn phased(&self) -> bool {
        self.phased
    }
}
