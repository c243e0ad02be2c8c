//! The proof-carrying result of verification.
//!
//! [`verify_conv_plan`](crate::verify_conv_plan) is the only constructor of
//! a [`VerifiedPlan`], a `VerifiedPlan` the only source of a
//! [`VerifiedTiled`], and [`VerifiedTiled::regions`] the only source of a
//! [`TileRegion`] — the values the `unsafe` stencil tile loops take their
//! bounds and their output rows from. The x-tiles, cache rows and band
//! ranges a kernel iterates are the very `Vec`s the abstract interpretation
//! judged, and the rows of the output two workers write are the ranges it
//! proved disjoint.

use std::marker::PhantomData;

use spg_convnet::ConvSpec;

use crate::plan::{BandDim, ConvPlan, ForwardPlan, XTile};
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
        let (tiled, bands) = match &self.plan.forward {
            ForwardPlan::StencilBanded { dim, tiled, bands } => {
                (&**tiled, Some((*dim, &bands[..])))
            }
            sequential => (sequential, None),
        };
        match tiled {
            ForwardPlan::StencilTiled { lanes, tile_rows, cache_rows, x_tiles, phased } => {
                Some(VerifiedTiled {
                    spec: &self.spec,
                    lanes: *lanes,
                    tile_rows: *tile_rows,
                    cache_rows: *cache_rows,
                    x_tiles,
                    phased: *phased,
                    bands,
                })
            }
            _ => None,
        }
    }
}

/// A proved [`ForwardPlan::StencilTiled`] bound to its spec, with the
/// proved worker partition of its loop nest when the plan is banded: what
/// `spg_codegen::forward_tiled` — every instance of the one tile loop nest
/// — accepts. Obtainable only from a [`VerifiedPlan`].
#[derive(Debug, Clone, Copy)]
pub struct VerifiedTiled<'a> {
    spec: &'a ConvSpec,
    lanes: usize,
    tile_rows: usize,
    cache_rows: usize,
    x_tiles: &'a [XTile],
    phased: bool,
    bands: Option<(BandDim, &'a [(usize, usize)])>,
}

impl<'a> VerifiedTiled<'a> {
    /// The convolution the tiles were proved for.
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

    /// Splits `output` into the regions of the plan's loop nest a call with
    /// `cores` cores runs, one per thread in band order: the whole layer
    /// for a sequential plan; for a banded plan its proved bands, as they
    /// are when `cores` reaches their count, and otherwise as `cores`
    /// contiguous runs of whole bands, each run one region. One core
    /// therefore gets one region spanning the layer — the sequential parent
    /// plan — and no region is ever anything but a union of bands the
    /// proof showed in-bounds, disjoint and in ascending order.
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
        let bands = self.bands.map_or(1, |(_, bands)| bands.len());
        let threads = cores.clamp(1, bands);
        (0..threads).map(move |t| {
            // Thread t runs bands [first, last]; ascending bands that
            // cover the extent make first.lo..last.hi their union.
            let (first, last) = (t * bands / threads, (t + 1) * bands / threads - 1);
            let (features, rows) = match self.bands {
                None => ((0, nf), (0, out_h)),
                Some((BandDim::YRows, bands)) => ((0, nf), (bands[first].0, bands[last].1)),
                Some((BandDim::OutChannels, bands)) => {
                    ((bands[first].0, bands[last].1), (0, out_h))
                }
            };
            TileRegion { features, rows, out, out_h, out_w, borrow: PhantomData }
        })
    }
}

/// One worker's share of a proved tiled forward: the features and output
/// rows of the parent loop nest it runs, and — through
/// [`plane_rows`](TileRegion::plane_rows) — the part of the output it
/// stores to. Obtainable only from [`VerifiedTiled::regions`], so the
/// ranges are the ones `spg-check` proved in-bounds and disjoint from every
/// sibling's.
#[derive(Debug)]
pub struct TileRegion<'r> {
    features: (usize, usize),
    rows: (usize, usize),
    /// Start of the whole output, shared with the sibling regions.
    out: *mut f32,
    out_h: usize,
    out_w: usize,
    borrow: PhantomData<&'r mut [f32]>,
}

// SAFETY: the only non-`Send` field is `out`, a pointer into the output
// slice `regions` took mutably borrowed for `'r` and gave up as a
// reference. Sibling regions hold the same pointer, and each dereferences
// it only in `plane_rows`, at its own features and rows — unions of
// consecutive bands, which the banded proof behind the `VerifiedPlan` (band
// ranges ascend and disjointly cover the split extent) showed pairwise
// disjoint. No element is reachable from two threads.
unsafe impl Send for TileRegion<'_> {}

impl TileRegion<'_> {
    /// Half-open range of output features the region computes.
    pub fn features(&self) -> (usize, usize) {
        self.features
    }

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
    /// Panics if `f` is outside [`features`](TileRegion::features).
    pub fn plane_rows(&mut self, f: usize) -> &mut [f32] {
        assert!((self.features.0..self.features.1).contains(&f), "feature outside the region");
        let (lo, hi) = self.rows;
        // SAFETY: `regions` checked the output holds `features x out_h x
        // out_w` elements, and the proved ranges keep `f` below the feature
        // count and `hi` at most `out_h`, so the slice lies inside it. It
        // overlaps no sibling's (their features or rows are disjoint from
        // these), the `&mut self` receiver keeps this region from holding
        // two at once, and `'r` keeps the output borrowed meanwhile.
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
    use crate::plan::{BackwardPlan, RegisterTile, ScheduleTile, VECTOR_WIDTH};
    use crate::{verify_conv_plan, ScratchCapacity};

    fn proved(spec: &ConvSpec, bands: Option<(BandDim, Vec<(usize, usize)>)>) -> VerifiedPlan {
        let tiled = ForwardPlan::StencilTiled {
            lanes: VECTOR_WIDTH,
            tile_rows: 6,
            cache_rows: 6,
            x_tiles: vec![XTile { x: 0, vectors: 2 }, XTile { x: 2, vectors: 2 }],
            phased: false,
        };
        let forward = match bands {
            Some((dim, bands)) => ForwardPlan::StencilBanded { dim, tiled: Box::new(tiled), bands },
            None => tiled,
        };
        let plan = ConvPlan {
            forward,
            backward: BackwardPlan::UnfoldGemm { threads: 1 },
            register_tile: RegisterTile { rx: 2, ry: 6 },
            schedule: ScheduleTile { y_tile: 1, x_tile: spec.out_w() },
        };
        verify_conv_plan(spec, plan, &ScratchCapacity::reserved_for(spec)).expect("plan verifies")
    }

    /// The regions of a plan — sequential, row-banded, feature-sliced —
    /// written from one thread each, hand out every output element exactly
    /// once (and, under Miri or TSan, to exactly one thread).
    #[test]
    fn regions_partition_the_output() {
        let spec = ConvSpec::square(20, 5, 2, 3, 1); // 5 planes of 18x18
        let rows = || Some((BandDim::YRows, vec![(0, 7), (7, 13), (13, 18)]));
        // (bands, cores, regions): a region per band with the cores for
        // it, runs of bands with fewer, the whole layer with one.
        let splits = [
            (None, 4, 1),
            (rows(), 3, 3),
            (rows(), 8, 3),
            (rows(), 2, 2),
            (rows(), 1, 1),
            (Some((BandDim::OutChannels, vec![(0, 2), (2, 5)])), 2, 2),
            (Some((BandDim::OutChannels, vec![(0, 2), (2, 5)])), 1, 1),
        ];
        for (bands, cores, count) in splits {
            let plan = proved(&spec, bands);
            let tiled = plan.tiled().expect("tiled forward");
            let mut output = vec![0f32; spec.output_shape().len()];
            let regions: Vec<_> = tiled.regions(&mut output, cores).collect();
            assert_eq!(regions.len(), count);
            if count == 1 {
                let whole = ((0, spec.features()), (0, spec.out_h()));
                assert_eq!((regions[0].features(), regions[0].rows()), whole);
            }
            let fill = |mut region: TileRegion<'_>| {
                let ((f_lo, f_hi), (y_lo, y_hi)) = (region.features(), region.rows());
                for f in f_lo..f_hi {
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
    #[should_panic(expected = "feature outside the region")]
    fn plane_rows_refuses_a_siblings_feature() {
        let spec = ConvSpec::square(20, 5, 2, 3, 1);
        let plan = proved(&spec, Some((BandDim::OutChannels, vec![(0, 2), (2, 5)])));
        let mut output = vec![0f32; spec.output_shape().len()];
        let mut first =
            plan.tiled().expect("tiled forward").regions(&mut output, 2).next().unwrap();
        first.plane_rows(2);
    }
}
