//! Property tests for the plan verifier: known-good plans verify clean, and
//! every seeded mutation — off-by-one tile bounds, overlapping worker splits,
//! gapped row coverage, undersized scratch — is rejected with the matching
//! [`CheckError`] variant. The verifier's value is exactly this asymmetry:
//! real plans pass, every corrupted neighbour of a real plan fails loudly.
//!
//! Every plan-level judgment here also goes through [`verify_conv_plan`],
//! the only constructor of the [`VerifiedPlan`] the kernels execute from:
//! a mutated plan is unconstructible as that type — the same typed error is
//! the only outcome — and an accepted plan comes back holding exactly what
//! was judged.

use proptest::prelude::*;

use spg_check::{
    gemm, verify_conv_plan, verify_forward, BackwardPlan, BandDim, Buf, CheckError, ConvPlan,
    ForwardPlan, RegisterTile, ScheduleTile, ScratchCapacity, VerifiedPlan, XTile, VECTOR_WIDTH,
};
use spg_convnet::ConvSpec;

/// Specs wide enough for the tiled stencil path (`out_w >= VECTOR_WIDTH`).
fn wide_spec() -> impl Strategy<Value = ConvSpec> {
    (1usize..4, 10usize..24, 1usize..6, 1usize..5, 1usize..3).prop_filter_map(
        "tiled stencil needs a full vector of output columns",
        |(c, n, f, k, s)| {
            let spec = ConvSpec::new(c, n, n, f, k, k, s, s).ok()?;
            (spec.out_w() >= VECTOR_WIDTH).then_some(spec)
        },
    )
}

/// Any valid spec, narrow outputs included.
fn any_spec() -> impl Strategy<Value = ConvSpec> {
    (1usize..4, 4usize..18, 1usize..6, 1usize..5, 1usize..3)
        .prop_filter_map("kernel fits input", |(c, n, f, k, s)| {
            ConvSpec::new(c, n, n, f, k, k, s, s).ok()
        })
}

/// The x segmentation lowering emits (16-wide greedy, then 8-wide, then an
/// overlapping 8-wide remainder anchored at the row end), restated because
/// `spg-check` sits below the crate that owns it.
fn x_tiles(out_w: usize) -> Vec<XTile> {
    let lanes = VECTOR_WIDTH;
    let mut tiles = Vec::new();
    let mut x = 0;
    while x + 2 * lanes <= out_w {
        tiles.push(XTile { x, vectors: 2 });
        x += 2 * lanes;
    }
    while x + lanes <= out_w {
        tiles.push(XTile { x, vectors: 1 });
        x += lanes;
    }
    if x < out_w {
        tiles.push(XTile { x: out_w - lanes, vectors: 1 });
    }
    tiles
}

/// The known-good tiled stencil plan for a wide spec.
fn good_tiled(spec: &ConvSpec) -> ForwardPlan {
    ForwardPlan::StencilTiled {
        lanes: VECTOR_WIDTH,
        tile_rows: 2,
        cache_rows: 2,
        x_tiles: x_tiles(spec.out_w()),
        phased: spec.sx() > 1,
    }
}

/// A register/schedule tile pair that is always admissible (the generators'
/// unconditional 1x1 / single-row fallbacks).
fn good_tiles(spec: &ConvSpec) -> (RegisterTile, ScheduleTile) {
    (RegisterTile { rx: 1, ry: 1 }, ScheduleTile { y_tile: 1, x_tile: spec.out_w() })
}

fn verify(spec: &ConvSpec, fwd: &ForwardPlan, cap: &ScratchCapacity) -> Result<(), CheckError> {
    let (rt, st) = good_tiles(spec);
    verify_tiles(spec, fwd, rt, st, cap)
}

/// Judges `fwd` under the given tiles and shows the verdict is also the
/// only way to (not) obtain the executable type: [`verify_conv_plan`] on
/// the same forward plan (with the always-admissible serial GEMM backward)
/// returns the identical error, or a [`VerifiedPlan`] holding this plan.
fn verify_tiles(
    spec: &ConvSpec,
    fwd: &ForwardPlan,
    register_tile: RegisterTile,
    schedule: ScheduleTile,
    cap: &ScratchCapacity,
) -> Result<(), CheckError> {
    let judged = verify_forward(spec, fwd, register_tile, schedule, cap).map(|_| ());
    let plan = ConvPlan {
        forward: fwd.clone(),
        backward: BackwardPlan::UnfoldGemm { threads: 1 },
        register_tile,
        schedule,
    };
    let executable: Result<VerifiedPlan, CheckError> = verify_conv_plan(spec, plan.clone(), cap);
    match (&judged, executable) {
        (Ok(()), Ok(proved)) => {
            assert_eq!((proved.spec(), proved.plan()), (spec, &plan));
            assert_eq!(
                proved.tiled().is_some(),
                matches!(fwd, ForwardPlan::StencilTiled { .. } | ForwardPlan::StencilBanded { .. })
            );
        }
        (Err(expected), Err(err)) => assert_eq!(&err, expected),
        (judged, executable) => panic!("verdicts disagree: {judged:?} vs {executable:?}"),
    }
    judged
}

/// Specs whose output splits into two bands along either dimension: at
/// least 18 output rows on the wide tiled path, and at least 4 output
/// features (two non-trivial slices).
fn splittable_spec() -> impl Strategy<Value = ConvSpec> {
    (1usize..3, 20usize..44, 4usize..8, 1usize..4, 1usize..3).prop_filter_map(
        "two bands per split dimension",
        |(c, n, f, k, s)| {
            let spec = ConvSpec::new(c, n, n, f, k, k, s, s).ok()?;
            (spec.out_w() >= 18 && spec.out_h() >= 18).then_some(spec)
        },
    )
}

fn band_dims() -> impl Strategy<Value = BandDim> {
    prop_oneof![Just(BandDim::YRows), Just(BandDim::OutChannels)]
}

/// The split extent of `spec` along `dim` (output rows / features).
fn extent_for(spec: &ConvSpec, dim: BandDim) -> usize {
    match dim {
        BandDim::YRows => spec.out_h(),
        BandDim::OutChannels => spec.features(),
    }
}

/// A banded plan: the known-good tiled plan of the whole layer with its
/// rows or features split over `ranges`.
fn banded_plan(spec: &ConvSpec, dim: BandDim, ranges: &[(usize, usize)]) -> ForwardPlan {
    ForwardPlan::StencilBanded { dim, tiled: Box::new(good_tiled(spec)), bands: ranges.to_vec() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Baseline: the mirrored-from-the-kernel plan always verifies.
    #[test]
    fn good_tiled_plan_verifies(spec in wide_spec()) {
        let cap = ScratchCapacity::reserved_for(&spec);
        prop_assert!(verify(&spec, &good_tiled(&spec), &cap).is_ok());
    }

    /// Off-by-one tile bound: shifting any x-tile one column right must be
    /// rejected — either the segment escapes the row (OutOfBounds) or it
    /// opens a one-column gap at its old position (IncompleteCover).
    #[test]
    fn shifted_x_tile_rejected(spec in wide_spec(), pick in 0usize..64) {
        let cap = ScratchCapacity::reserved_for(&spec);
        let mut tiles = x_tiles(spec.out_w());
        let i = pick % tiles.len();
        tiles[i].x += 1;
        let mutated = ForwardPlan::StencilTiled {
            lanes: VECTOR_WIDTH,
            tile_rows: 2,
            cache_rows: 2,
            x_tiles: tiles,
            phased: spec.sx() > 1,
        };
        let err = verify(&spec, &mutated, &cap).unwrap_err();
        prop_assert!(
            matches!(
                err,
                CheckError::OutOfBounds { buffer: Buf::Output, .. }
                    | CheckError::IncompleteCover { buffer: Buf::Output, .. }
            ),
            "unexpected error {err:?}"
        );
    }

    /// Dropping an x-tile leaves uncovered output columns: IncompleteCover.
    /// (No tile is redundant: coverage below the remainder is tight, and the
    /// remainder is the only segment reaching the row end.)
    #[test]
    fn dropped_x_tile_rejected(spec in wide_spec(), pick in 0usize..64) {
        let cap = ScratchCapacity::reserved_for(&spec);
        let mut tiles = x_tiles(spec.out_w());
        let i = pick % tiles.len();
        tiles.remove(i);
        let mutated = ForwardPlan::StencilTiled {
            lanes: VECTOR_WIDTH,
            tile_rows: 2,
            cache_rows: 2,
            x_tiles: tiles,
            phased: spec.sx() > 1,
        };
        let err = verify(&spec, &mutated, &cap).unwrap_err();
        prop_assert!(
            matches!(err, CheckError::IncompleteCover { buffer: Buf::Output, .. }),
            "unexpected error {err:?}"
        );
    }

    /// Claiming the phase transform on a unit-stride layer (or omitting it
    /// on a strided one) contradicts the kernel dispatch: PlanShapeMismatch.
    #[test]
    fn wrong_phase_claim_rejected(spec in wide_spec()) {
        let cap = ScratchCapacity::reserved_for(&spec);
        let mutated = ForwardPlan::StencilTiled {
            lanes: VECTOR_WIDTH,
            tile_rows: 2,
            cache_rows: 2,
            x_tiles: x_tiles(spec.out_w()),
            phased: spec.sx() == 1, // inverted
        };
        let err = verify(&spec, &mutated, &cap).unwrap_err();
        prop_assert!(matches!(err, CheckError::PlanShapeMismatch { .. }));
    }

    /// Undersized scratch: shrinking a required staging capacity below the
    /// plan's high-water footprint is a ScratchOverflow. The narrow stencil
    /// stages the whole input in hwc_in, so zeroing that reservation must
    /// overflow on every spec.
    #[test]
    fn undersized_scratch_rejected(spec in any_spec()) {
        let mut cap = ScratchCapacity::reserved_for(&spec);
        cap.hwc_in = 0;
        let err = verify(&spec, &ForwardPlan::StencilNarrow, &cap).unwrap_err();
        prop_assert!(
            matches!(err, CheckError::ScratchOverflow { buffer: Buf::HwcIn, .. }),
            "unexpected error {err:?}"
        );
    }

    /// The phased tiled path stages the phase-transformed input in hwc_in;
    /// one element short of its footprint is likewise a ScratchOverflow.
    #[test]
    fn undersized_phased_scratch_rejected(spec in wide_spec()) {
        let mut cap = ScratchCapacity::reserved_for(&spec);
        if spec.sx() > 1 {
            cap.hwc_in -= 1;
            let err = verify(&spec, &good_tiled(&spec), &cap).unwrap_err();
            prop_assert!(
                matches!(err, CheckError::ScratchOverflow { buffer: Buf::HwcIn, .. }),
                "unexpected error {err:?}"
            );
        }
    }

    /// Overlapping worker splits: merging two adjacent GEMM row bands into
    /// overlapping ranges is an OverlappingWorkers rejection.
    #[test]
    fn overlapping_worker_bands_rejected(m in 2usize..64, threads in 2usize..8) {
        let mut bands = gemm::row_bands(m, threads);
        prop_assert!(bands.len() >= 2); // min(threads, m) >= 2 workers
        // Stretch band 0 one row into band 1's territory.
        bands[0].1 += 1;
        let err = gemm::verify_row_bands(Buf::Output, "mutated bands", m, 4, &bands).unwrap_err();
        prop_assert!(
            matches!(err, CheckError::OverlappingWorkers { worker_a: 0, worker_b: 1, .. }),
            "unexpected error {err:?}"
        );
    }

    /// Gapped worker splits: a skipped output row is an IncompleteCover.
    /// `m >= 2 * threads` keeps every band at least two rows tall, so the
    /// shrunken band stays non-empty and the gap is a genuine hole.
    #[test]
    fn gapped_worker_bands_rejected(m in 16usize..64, threads in 2usize..8) {
        let mut bands = gemm::row_bands(m, threads);
        prop_assert!(bands.len() >= 2 && bands[0].1 - bands[0].0 >= 2);
        bands[0].1 -= 1;
        let err = gemm::verify_row_bands(Buf::Output, "mutated bands", m, 4, &bands).unwrap_err();
        prop_assert!(
            matches!(err, CheckError::IncompleteCover { .. }),
            "unexpected error {err:?}"
        );
    }

    /// Escaping worker splits: extending the last band past `m` rows is an
    /// OutOfBounds on the output operand.
    #[test]
    fn escaping_worker_band_rejected(m in 2usize..64, threads in 1usize..8) {
        let mut bands = gemm::row_bands(m, threads);
        let last = bands.len() - 1;
        bands[last].1 += 1;
        let err = gemm::verify_row_bands(Buf::Output, "mutated bands", m, 4, &bands).unwrap_err();
        prop_assert!(
            matches!(err, CheckError::OutOfBounds { buffer: Buf::Output, .. }),
            "unexpected error {err:?}"
        );
    }

    /// The forward GEMM arm proves the split a starved call runs: the plan
    /// GEMM-in-Parallel lowers to at three cores verifies with one proved
    /// region per row band (the judgment the three mutations above break),
    /// and a worker count of zero is refused.
    #[test]
    fn forward_gemm_row_bands_verify(spec in any_spec()) {
        let cap = ScratchCapacity::reserved_for(&spec);
        let (rt, st) = good_tiles(&spec);
        let plan = ForwardPlan::UnfoldGemm { threads: 3 };
        let report = verify_forward(&spec, &plan, rt, st, &cap).unwrap();
        prop_assert_eq!(report.worker_regions, gemm::row_bands(spec.features(), 3).len());
        prop_assert!(verify(&spec, &plan, &cap).is_ok());
        let serial = verify_forward(&spec, &ForwardPlan::UnfoldGemm { threads: 1 }, rt, st, &cap);
        prop_assert_eq!(serial.unwrap().worker_regions, 0);
        prop_assert!(verify(&spec, &ForwardPlan::UnfoldGemm { threads: 0 }, &cap).is_err());
    }

    /// Oversized register tiles (accumulator budget) and zero-sized tiles
    /// are rejected as BudgetExceeded / PlanShapeMismatch respectively.
    #[test]
    fn bad_register_tiles_rejected(spec in wide_spec()) {
        let cap = ScratchCapacity::reserved_for(&spec);
        let st = ScheduleTile { y_tile: 1, x_tile: spec.out_w() };
        let over = RegisterTile { rx: 4, ry: 4 };
        let err = verify_tiles(&spec, &good_tiled(&spec), over, st, &cap).unwrap_err();
        prop_assert!(matches!(err, CheckError::BudgetExceeded { .. }));
        let zero = RegisterTile { rx: 0, ry: 1 };
        let err = verify_tiles(&spec, &good_tiled(&spec), zero, st, &cap).unwrap_err();
        prop_assert!(matches!(err, CheckError::PlanShapeMismatch { .. }));
    }

    /// Baseline for the band mutations: a two-band split of any dimension
    /// — y-rows or out-channel slices — verifies clean.
    #[test]
    fn good_band_split_verifies(spec in splittable_spec(), dim in band_dims()) {
        let cap = ScratchCapacity::reserved_for(&spec);
        let e = extent_for(&spec, dim);
        let plan = banded_plan(&spec, dim, &[(0, e / 2), (e / 2, e)]);
        prop_assert!(verify(&spec, &plan, &cap).is_ok());
    }

    /// Overlapping bands: stretching worker 0 one unit into worker 1's
    /// range is an OverlappingWorkers rejection on every split dimension.
    #[test]
    fn overlapping_bands_rejected(spec in splittable_spec(), dim in band_dims()) {
        let cap = ScratchCapacity::reserved_for(&spec);
        let e = extent_for(&spec, dim);
        let plan = banded_plan(&spec, dim, &[(0, e / 2 + 1), (e / 2, e)]);
        let err = verify(&spec, &plan, &cap).unwrap_err();
        prop_assert!(
            matches!(
                err,
                CheckError::OverlappingWorkers { buffer: Buf::Output, worker_a: 0, worker_b: 1, .. }
            ),
            "unexpected error {err:?}"
        );
    }

    /// Gapped bands: shrinking worker 0 leaves an uncovered unit of the
    /// split extent — IncompleteCover on every split dimension.
    #[test]
    fn gapped_bands_rejected(spec in splittable_spec(), dim in band_dims()) {
        let cap = ScratchCapacity::reserved_for(&spec);
        let e = extent_for(&spec, dim);
        let plan = banded_plan(&spec, dim, &[(0, e / 2 - 1), (e / 2, e)]);
        let err = verify(&spec, &plan, &cap).unwrap_err();
        prop_assert!(
            matches!(err, CheckError::IncompleteCover { buffer: Buf::Output, .. }),
            "unexpected error {err:?}"
        );
    }

    /// Escaping bands: extending the last band past the split extent is an
    /// OutOfBounds on the output operand for every split dimension.
    #[test]
    fn escaping_band_rejected(spec in splittable_spec(), dim in band_dims()) {
        let cap = ScratchCapacity::reserved_for(&spec);
        let e = extent_for(&spec, dim);
        let plan = banded_plan(&spec, dim, &[(0, e / 2), (e / 2, e + 1)]);
        let err = verify(&spec, &plan, &cap).unwrap_err();
        prop_assert!(
            matches!(err, CheckError::OutOfBounds { buffer: Buf::Output, .. }),
            "unexpected error {err:?}"
        );
    }

    /// Bands out of order: a disjoint cover listed back to front is
    /// rejected, because a call with fewer cores than bands runs list
    /// neighbours as one contiguous region.
    #[test]
    fn descending_bands_rejected(spec in splittable_spec(), dim in band_dims()) {
        let cap = ScratchCapacity::reserved_for(&spec);
        let e = extent_for(&spec, dim);
        let plan = banded_plan(&spec, dim, &[(e / 2, e), (0, e / 2)]);
        let err = verify(&spec, &plan, &cap).unwrap_err();
        prop_assert!(
            matches!(
                err,
                CheckError::PlanShapeMismatch { context: "banded stencil bands must ascend", .. }
            ),
            "unexpected error {err:?}"
        );
    }

    /// Bands are ranges of the parent's loop nest, so a fault in the
    /// parent plan is a fault in every band: a well-split plan over a
    /// parent that lost an x-tile is rejected with the parent's own
    /// IncompleteCover, on every split dimension.
    #[test]
    fn band_split_of_a_broken_parent_plan_rejected(
        spec in splittable_spec(),
        dim in band_dims(),
    ) {
        let cap = ScratchCapacity::reserved_for(&spec);
        let e = extent_for(&spec, dim);
        let mut plan = banded_plan(&spec, dim, &[(0, e / 2), (e / 2, e)]);
        if let ForwardPlan::StencilBanded { tiled, .. } = &mut plan {
            if let ForwardPlan::StencilTiled { x_tiles, .. } = &mut **tiled {
                x_tiles.remove(0);
            }
        }
        let err = verify(&spec, &plan, &cap).unwrap_err();
        prop_assert!(
            matches!(
                err,
                CheckError::IncompleteCover {
                    buffer: Buf::Output,
                    context: "stencil x-tile row coverage",
                    missing: 0,
                    ..
                }
            ),
            "unexpected error {err:?}"
        );
    }

    /// The full-plan entry point rejects a corrupted backward tile width,
    /// so no executable plan carries one.
    #[test]
    fn zero_sparse_tile_width_rejected(spec in any_spec()) {
        let cap = ScratchCapacity::reserved_for(&spec);
        let (rt, _) = good_tiles(&spec);
        let plan = ConvPlan {
            forward: ForwardPlan::UnfoldGemm { threads: 1 },
            backward: BackwardPlan::SparsePointerShift { tile_width: 0 },
            register_tile: rt,
            schedule: ScheduleTile { y_tile: 1, x_tile: spec.out_w().max(1) },
        };
        let err = verify_conv_plan(&spec, plan, &cap).unwrap_err();
        prop_assert!(matches!(err, CheckError::PlanShapeMismatch { .. }));
    }
}
