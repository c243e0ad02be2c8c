//! The proof-carrying result of verification.
//!
//! [`verify_conv_plan`](crate::verify_conv_plan) is the only constructor of
//! a [`VerifiedPlan`], a `VerifiedPlan` the only source of a
//! [`VerifiedTiled`], and [`VerifiedTiled::regions`] the only source of a
//! [`TileRegion`] — the values the `unsafe` stencil tile loops take their
//! bounds and their output rows from. The register tile and band ranges a
//! kernel iterates are the very values the abstract interpretation judged,
//! and the output rows two workers write are the ranges it proved
//! disjoint.

use std::marker::PhantomData;

use spg_convnet::ConvSpec;

use crate::plan::{ConvPlan, ForwardPlan, RegisterTile};
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
    /// register-tiled stencil — sequential, or banded across workers.
    pub fn tiled(&self) -> Option<VerifiedTiled<'_>> {
        let (lanes, tile, bands) = match self.plan.forward {
            ForwardPlan::StencilTiled { lanes, tile } => (lanes, tile, None),
            ForwardPlan::StencilBanded { lanes, tile, ref bands } => {
                (lanes, tile, Some(&bands[..]))
            }
            ForwardPlan::UnfoldGemm { .. } => return None,
        };
        Some(VerifiedTiled { spec: &self.spec, lanes, tile, bands })
    }
}

/// A proved [`ForwardPlan::StencilTiled`] bound to its spec, with the
/// proved output-row bands of its loop nest when the plan is banded: what
/// `spg_codegen::forward_tiled` — every instance of the one tile loop nest
/// — accepts. Obtainable only from a [`VerifiedPlan`].
#[derive(Debug, Clone, Copy)]
pub struct VerifiedTiled<'a> {
    spec: &'a ConvSpec,
    lanes: usize,
    tile: RegisterTile,
    bands: Option<&'a [(usize, usize)]>,
}

impl<'a> VerifiedTiled<'a> {
    /// The convolution the tiles were proved for.
    pub fn spec(&self) -> &'a ConvSpec {
        self.spec
    }

    /// f32 lanes per vector: output features per weight load.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The register tile, proved within the lane width's register file
    /// and no wider than an output row.
    pub fn tile(&self) -> RegisterTile {
        self.tile
    }

    /// Output features a tile computes: `nfv` vectors of `lanes`.
    pub fn feature_block(&self) -> usize {
        self.lanes * self.tile.nfv
    }

    /// Features per tap of the weight layout the plan reads: the spec's
    /// features padded to whole feature blocks.
    pub fn padded_features(&self) -> usize {
        crate::stencil::padded_features(self.spec, self.lanes, self.tile)
    }

    /// Splits `output` into the regions of the plan's loop nest a call with
    /// `cores` cores runs, one per thread in band order: the whole layer
    /// for a sequential plan; for a banded plan its proved bands, as they
    /// are when `cores` reaches their count, and otherwise as `cores`
    /// contiguous runs of whole bands cut by [`spg_convnet::partition`],
    /// each run one region. One core therefore gets one region spanning
    /// the layer — the sequential parent plan — and no region is ever
    /// anything but a union of bands the proof showed in-bounds, disjoint
    /// and in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `output.len()` is not the spec's output length.
    pub fn regions<'r>(
        self,
        output: &'r mut [f32],
        cores: usize,
    ) -> impl Iterator<Item = TileRegion<'r>>
    where
        'a: 'r,
    {
        let (nf, out_h, out_w) = (self.spec.features(), self.spec.out_h(), self.spec.out_w());
        assert_eq!(output.len(), nf * out_h * out_w, "output length");
        // The borrow ends here as a reference and lives on in the regions'
        // `PhantomData`: from now on the output is reached through this
        // pointer alone, so no `&mut` aliases a region's stores.
        let out = output.as_mut_ptr();
        let bands = self.bands.map_or(1, <[_]>::len);
        let threads = cores.clamp(1, bands);
        (0..threads).map(move |t| {
            // Thread t runs a run of bands; ascending bands that cover the
            // rows make the first one's start to the last one's end their
            // union.
            let run = spg_convnet::partition(bands, threads, t);
            let rows =
                self.bands.map_or((0, out_h), |bands| (bands[run.start].0, bands[run.end - 1].1));
            TileRegion { rows, out, planes: nf, out_h, out_w, borrow: PhantomData }
        })
    }
}

/// One worker's share of a proved tiled forward: output rows `[lo, hi)` of
/// every feature plane, the rows of the parent loop nest it runs and —
/// through [`plane_rows`](TileRegion::plane_rows) — the part of the output
/// it stores to. Obtainable only from [`VerifiedTiled::regions`], so the
/// rows are the ones `spg-check` proved in-bounds and disjoint from every
/// sibling's.
#[derive(Debug)]
pub struct TileRegion<'r> {
    rows: (usize, usize),
    /// Start of the whole output, shared with the sibling regions.
    out: *mut f32,
    /// Output feature planes, each `out_h x out_w`.
    planes: usize,
    out_h: usize,
    out_w: usize,
    borrow: PhantomData<&'r mut [f32]>,
}

// SAFETY: the only non-`Send` field is `out`, a pointer into the output
// slice `regions` took mutably borrowed for `'r` and gave up as a
// reference. Sibling regions hold the same pointer, and each dereferences
// it only in `plane_rows`, at its own rows — unions of consecutive bands,
// which the banded proof behind the `VerifiedPlan` (band ranges ascend and
// disjointly cover the output rows) showed pairwise disjoint. No element
// is reachable from two threads.
unsafe impl Send for TileRegion<'_> {}

impl TileRegion<'_> {
    /// Half-open range of output rows the region computes.
    pub fn rows(&self) -> (usize, usize) {
        self.rows
    }

    /// Rows [`rows`](TileRegion::rows) of feature `f`'s output plane, the
    /// region's own: `(hi - lo) * out_w` contiguous elements starting at
    /// row `lo`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a feature of the output.
    #[inline]
    pub fn plane_rows(&mut self, f: usize) -> &mut [f32] {
        assert!(f < self.planes, "feature outside the output");
        let (lo, hi) = self.rows;
        // SAFETY: `regions` checked the output holds `planes x out_h x
        // out_w` elements, `f` is below `planes` and the proved rows keep
        // `hi` at most `out_h`, so the slice lies inside it. It overlaps no
        // sibling's (their rows are disjoint from these), the `&mut self`
        // receiver keeps this region from holding two at once, and `'r`
        // keeps the output borrowed meanwhile.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.out.add((f * self.out_h + lo) * self.out_w),
                (hi - lo) * self.out_w,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{BackwardPlan, VECTOR_WIDTH};
    use crate::{verify_conv_plan, ScratchCapacity};

    fn proved(spec: &ConvSpec, bands: Option<Vec<(usize, usize)>>) -> VerifiedPlan {
        let (lanes, tile) = (VECTOR_WIDTH, RegisterTile { nx: 6, nfv: 1 });
        let forward = match bands {
            Some(bands) => ForwardPlan::StencilBanded { lanes, tile, bands },
            None => ForwardPlan::StencilTiled { lanes, tile },
        };
        let plan = ConvPlan { forward, backward: BackwardPlan::UnfoldGemm { threads: 1 } };
        verify_conv_plan(spec, plan, &ScratchCapacity::reserved_for(spec)).expect("plan verifies")
    }

    /// The regions of a plan — sequential or row-banded — written from
    /// one thread each, hand out every output element exactly once (and,
    /// under Miri or TSan, to exactly one thread).
    #[test]
    fn regions_partition_the_output() {
        let spec = ConvSpec::square(20, 20, 2, 3, 1); // 20 planes of 18x18
        let rows = || Some(vec![(0, 7), (7, 13), (13, 18)]);
        // (bands, cores, regions): a region per band with the cores for
        // it, runs of bands with fewer, the whole layer with one.
        let splits = [(None, 4, 1), (rows(), 3, 3), (rows(), 8, 3), (rows(), 2, 2), (rows(), 1, 1)];
        for (bands, cores, count) in splits {
            let plan = proved(&spec, bands);
            let tiled = plan.tiled().expect("tiled forward");
            let mut output = vec![0f32; spec.output_shape().len()];
            let regions: Vec<_> = tiled.regions(&mut output, cores).collect();
            assert_eq!(regions.len(), count);
            if count == 1 {
                assert_eq!(regions[0].rows(), (0, spec.out_h()));
            }
            let fill = |mut region: TileRegion<'_>| {
                let (y_lo, y_hi) = region.rows();
                for f in 0..spec.features() {
                    let rows = region.plane_rows(f);
                    assert_eq!(rows.len(), (y_hi - y_lo) * spec.out_w());
                    rows.iter_mut().for_each(|o| *o += 1.0);
                }
            };
            std::thread::scope(|scope| {
                let workers: Vec<_> =
                    regions.into_iter().map(|region| scope.spawn(move || fill(region))).collect();
                workers.into_iter().for_each(|worker| worker.join().expect("worker finished"));
            });
            assert!(output.iter().all(|&o| o == 1.0), "{:?}", plan.plan().forward);
        }
    }

    #[test]
    #[should_panic(expected = "feature outside the output")]
    fn plane_rows_refuses_a_feature_past_the_output() {
        let spec = ConvSpec::square(20, 20, 2, 3, 1);
        let plan = proved(&spec, Some(vec![(0, 9), (9, 18)]));
        let mut output = vec![0f32; spec.output_shape().len()];
        let mut first =
            plan.tiled().expect("tiled forward").regions(&mut output, 2).next().unwrap();
        first.plane_rows(spec.features());
    }
}
