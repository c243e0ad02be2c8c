//! Property tests for the plan verifier: known-good plans verify clean, and
//! every seeded mutation — register tiles too wide or over budget,
//! overlapping worker splits, gapped row coverage, undersized scratch, a GEMM image gather past the input, a sparse
//! gather or accumulator outside its staging, a sparse register block past
//! its register file — is rejected with the matching [`CheckError`]
//! variant. The verifier's value is exactly this asymmetry:
//! real plans pass, every corrupted neighbour of a real plan fails loudly.
//!
//! Every plan-level judgment here also goes through [`verify_conv_plan`],
//! the only constructor of the [`VerifiedPlan`] the kernels execute from:
//! a mutated plan is unconstructible as that type — the same typed error is
//! the only outcome — and an accepted plan comes back holding exactly what
//! was judged.

use proptest::prelude::*;

use spg_check::{
    gemm, verify_conv_plan, verify_forward, BackwardPlan, Buf, CheckError, ConvPlan, ForwardPlan,
    RegisterTile, ScratchCapacity, VerifiedPlan, VECTOR_WIDTH,
};
use spg_convnet::ConvSpec;

/// The row bands a `threads`-way GEMM over `m` output rows runs and the
/// verifier proves: `min(threads, m)` parts of the one partition rule.
fn row_bands(m: usize, threads: usize) -> Vec<(usize, usize)> {
    let parts = threads.min(m);
    (0..parts).map(|b| spg_convnet::partition(m, parts, b)).map(|r| (r.start, r.end)).collect()
}

/// Specs whose rows hold a whole 8-lane store group (`out_w >=
/// VECTOR_WIDTH`), so every tile the mutations start from fits a row.
fn wide_spec() -> impl Strategy<Value = ConvSpec> {
    (1usize..4, 10usize..24, 1usize..6, 1usize..5, 1usize..3).prop_filter_map(
        "the mutated tiles need a full vector of output columns",
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

/// The known-good register tile for a wide spec: one vector of 8 features
/// by 4 positions, inside every lane width's register file and every tiled
/// output row.
const GOOD_TILE: RegisterTile = RegisterTile { nx: 4, nfv: 1 };

/// The known-good tiled stencil plan for a wide spec.
fn good_tiled(_: &ConvSpec) -> ForwardPlan {
    ForwardPlan::StencilTiled { lanes: VECTOR_WIDTH, tile: GOOD_TILE }
}

/// Judges `fwd` and shows the verdict is also the only way to (not)
/// obtain the executable type: [`verify_conv_plan`] on the same forward
/// plan (with the always-admissible serial GEMM backward) returns the
/// identical error, or a [`VerifiedPlan`] holding this plan.
fn verify(spec: &ConvSpec, fwd: &ForwardPlan, cap: &ScratchCapacity) -> Result<(), CheckError> {
    let judged = verify_forward(spec, fwd).map(|_| ());
    let plan = ConvPlan { forward: fwd.clone(), backward: BackwardPlan::UnfoldGemm { threads: 1 } };
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

/// Specs whose output splits into two row bands on the wide tiled path:
/// at least 18 output rows.
fn splittable_spec() -> impl Strategy<Value = ConvSpec> {
    (1usize..3, 20usize..44, 16usize..40, 1usize..4, 1usize..3).prop_filter_map(
        "two row bands",
        |(c, n, f, k, s)| {
            let spec = ConvSpec::new(c, n, n, f, k, k, s, s).ok()?;
            (spec.out_w() >= 18 && spec.out_h() >= 18).then_some(spec)
        },
    )
}

/// A banded plan: the known-good tiled plan of the whole layer with its
/// output rows split over `ranges`.
fn banded_plan(ranges: &[(usize, usize)]) -> ForwardPlan {
    ForwardPlan::StencilBanded { lanes: VECTOR_WIDTH, tile: GOOD_TILE, bands: ranges.to_vec() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Baseline: the mirrored-from-the-kernel plan always verifies.
    #[test]
    fn good_tiled_plan_verifies(spec in wide_spec()) {
        let cap = ScratchCapacity::reserved_for(&spec);
        prop_assert!(verify(&spec, &good_tiled(&spec), &cap).is_ok());
    }

    /// A register tile one position wider than the output row, or than a
    /// 16-position store group, is refused: the overlapping last x-block
    /// would start before the row or the group.
    #[test]
    fn tile_wider_than_the_row_rejected(spec in wide_spec()) {
        // wide_spec() rows are at most 23 wide: past 15 the group bound
        // (16 positions) is what a one-wider tile breaks first.
        let cap = ScratchCapacity::reserved_for(&spec);
        let tile = RegisterTile { nx: spec.out_w() + 1, nfv: 1 };
        let mutated = ForwardPlan::StencilTiled { lanes: 16, tile };
        let err = verify(&spec, &mutated, &cap).unwrap_err();
        prop_assert!(
            matches!(err, CheckError::PlanShapeMismatch { found, .. } if found == tile.nx),
            "unexpected error {err:?}"
        );
    }

    /// Undersized scratch: shrinking a required staging capacity below the
    /// plan's high-water footprint is a ScratchOverflow. The GEMM
    /// backward-data stages all of `E_U` (or `E_U^T`) in mat_b, so one
    /// element short of that reservation must overflow on every spec.
    #[test]
    fn undersized_scratch_rejected(spec in any_spec()) {
        let mut cap = ScratchCapacity::reserved_for(&spec);
        cap.mat_b -= 1;
        let plan = ConvPlan {
            forward: ForwardPlan::UnfoldGemm { threads: 1 },
            backward: BackwardPlan::UnfoldGemm { threads: 1 },
        };
        let err = verify_conv_plan(&spec, plan, &cap).unwrap_err();
        prop_assert!(
            matches!(err, CheckError::ScratchOverflow { buffer: Buf::MatB, context, .. }
                if context.contains("E_U")),
            "unexpected error {err:?}"
        );
    }

    /// The GEMM's image operand gathers every patch straight from the
    /// input: the gather a real plan proves fits an input that ends at the
    /// last window's last tap, and is refused against one that ends a
    /// single element before it.
    #[test]
    fn image_gather_past_the_input_rejected(spec in any_spec()) {
        prop_assert!(gemm::verify_patch_gather(&spec, spec.input_shape().len()).is_ok());
        let last = spec.input_shape().index(
            spec.in_c() - 1,
            (spec.out_h() - 1) * spec.sy() + spec.ky() - 1,
            (spec.out_w() - 1) * spec.sx() + spec.kx() - 1,
        );
        prop_assert!(gemm::verify_patch_gather(&spec, last + 1).is_ok());
        let err = gemm::verify_patch_gather(&spec, last).unwrap_err();
        prop_assert!(
            matches!(err, CheckError::OutOfBounds { buffer: Buf::Input, hi, len, .. }
                if hi == last + 1 && len == last),
            "unexpected error {err:?}"
        );
    }

    /// Overlapping worker splits: merging two adjacent GEMM row bands into
    /// overlapping ranges is an OverlappingWorkers rejection.
    #[test]
    fn overlapping_worker_bands_rejected(m in 2usize..64, threads in 2usize..8) {
        let mut bands = row_bands(m, threads);
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
        let mut bands = row_bands(m, threads);
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
        let mut bands = row_bands(m, threads);
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
        let plan = ForwardPlan::UnfoldGemm { threads: 3 };
        let report = verify_forward(&spec, &plan).unwrap();
        prop_assert_eq!(report.worker_regions, row_bands(spec.features(), 3).len());
        prop_assert!(verify(&spec, &plan, &cap).is_ok());
        let serial = verify_forward(&spec, &ForwardPlan::UnfoldGemm { threads: 1 });
        prop_assert_eq!(serial.unwrap().worker_regions, 0);
        prop_assert!(verify(&spec, &ForwardPlan::UnfoldGemm { threads: 0 }, &cap).is_err());
    }

    /// Register tiles over their instruction set's register file, empty
    /// tiles and lane widths no instruction set has are rejected as
    /// BudgetExceeded / PlanShapeMismatch.
    #[test]
    fn bad_register_tiles_rejected(spec in wide_spec()) {
        let cap = ScratchCapacity::reserved_for(&spec);
        let tiled = |lanes, nx, nfv| ForwardPlan::StencilTiled {
            lanes,
            tile: RegisterTile { nx, nfv },
        };
        // 8 positions x 2 vectors: 19 registers, over AVX2's 16.
        let err = verify(&spec, &tiled(8, 8, 2), &cap).unwrap_err();
        prop_assert!(matches!(err, CheckError::BudgetExceeded { used: 19, budget: 16, .. }));
        // 4 positions x 7 vectors: 36 registers, over AVX-512's 32.
        let err = verify(&spec, &tiled(16, 4, 7), &cap).unwrap_err();
        prop_assert!(matches!(err, CheckError::BudgetExceeded { used: 36, budget: 32, .. }));
        let err = verify(&spec, &tiled(8, 0, 1), &cap).unwrap_err();
        prop_assert!(matches!(err, CheckError::PlanShapeMismatch { .. }));
        let err = verify(&spec, &tiled(4, 1, 1), &cap).unwrap_err();
        prop_assert!(matches!(err, CheckError::PlanShapeMismatch { found: 4, .. }));
    }

    /// Baseline for the band mutations: a two-band split of the output
    /// rows verifies clean.
    #[test]
    fn good_band_split_verifies(spec in splittable_spec()) {
        let cap = ScratchCapacity::reserved_for(&spec);
        let (m, e) = (spec.out_h() / 2, spec.out_h());
        let plan = banded_plan(&[(0, m), (m, e)]);
        prop_assert!(verify(&spec, &plan, &cap).is_ok());
    }

    /// Overlapping bands: stretching worker 0 one unit into worker 1's
    /// range is an OverlappingWorkers rejection.
    #[test]
    fn overlapping_bands_rejected(spec in splittable_spec()) {
        let cap = ScratchCapacity::reserved_for(&spec);
        let (m, e) = (spec.out_h() / 2, spec.out_h());
        let plan = banded_plan(&[(0, m + 1), (m, e)]);
        let err = verify(&spec, &plan, &cap).unwrap_err();
        prop_assert!(
            matches!(
                err,
                CheckError::OverlappingWorkers { buffer: Buf::Output, worker_a: 0, worker_b: 1, .. }
            ),
            "unexpected error {err:?}"
        );
    }

    /// Gapped bands: shrinking worker 0 leaves an uncovered output row —
    /// IncompleteCover.
    #[test]
    fn gapped_bands_rejected(spec in splittable_spec()) {
        let cap = ScratchCapacity::reserved_for(&spec);
        let (m, e) = (spec.out_h() / 2, spec.out_h());
        let plan = banded_plan(&[(0, m - 1), (m, e)]);
        let err = verify(&spec, &plan, &cap).unwrap_err();
        prop_assert!(
            matches!(err, CheckError::IncompleteCover { buffer: Buf::Output, .. }),
            "unexpected error {err:?}"
        );
    }

    /// Escaping bands: extending the last band past the output rows is an
    /// OutOfBounds on the output operand.
    #[test]
    fn escaping_band_rejected(spec in splittable_spec()) {
        let cap = ScratchCapacity::reserved_for(&spec);
        let (m, e) = (spec.out_h() / 2, spec.out_h());
        let plan = banded_plan(&[(0, m), (m, e + 1)]);
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
    fn descending_bands_rejected(spec in splittable_spec()) {
        let cap = ScratchCapacity::reserved_for(&spec);
        let (m, e) = (spec.out_h() / 2, spec.out_h());
        let plan = banded_plan(&[(m, e), (0, m)]);
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
    /// parent at a lane width no instruction set has is rejected with the
    /// parent's own PlanShapeMismatch.
    #[test]
    fn band_split_of_a_broken_parent_plan_rejected(spec in splittable_spec()) {
        let cap = ScratchCapacity::reserved_for(&spec);
        let (m, e) = (spec.out_h() / 2, spec.out_h());
        let mut plan = banded_plan(&[(0, m), (m, e)]);
        if let ForwardPlan::StencilBanded { lanes, .. } = &mut plan {
            *lanes = 4;
        }
        let err = verify(&spec, &plan, &cap).unwrap_err();
        prop_assert!(
            matches!(
                err,
                CheckError::PlanShapeMismatch {
                    context: "no instruction set has vectors of this many lanes",
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
        let err = verify_sparse(&spec, 0, SPARSE_AVX512, &cap).unwrap_err();
        prop_assert!(matches!(err, CheckError::PlanShapeMismatch { .. }));
    }

    /// Both tiers' register blocks verify on every spec.
    #[test]
    fn sparse_register_blocks_verify(spec in any_spec()) {
        let cap = ScratchCapacity::reserved_for(&spec);
        for lanes in [SPARSE_AVX2, SPARSE_AVX512] {
            prop_assert!(verify_sparse(&spec, 64, lanes, &cap).is_ok(), "{} lanes", lanes);
        }
    }

    /// Backward-weights' `kx·c` gathers read the input staged in HWC: an
    /// input staging one element short cannot hold the last window.
    #[test]
    fn sparse_gather_outside_the_hwc_input_rejected(spec in any_spec()) {
        let mut cap = ScratchCapacity::reserved_for(&spec);
        cap.hwc_in = spec.input_shape().len() - 1;
        let err = verify_sparse(&spec, 64, SPARSE_AVX512, &cap).unwrap_err();
        prop_assert!(
            matches!(err, CheckError::ScratchOverflow { buffer: Buf::HwcIn, context, .. }
                if context.contains("dW HWC input")),
            "unexpected error {err:?}"
        );
    }

    /// The `[f][ky][kx][c]` accumulator lives in `wperm`: one element
    /// short and the last feature's last run escapes it.
    #[test]
    fn sparse_accumulator_outside_wperm_rejected(spec in any_spec()) {
        let mut cap = ScratchCapacity::reserved_for(&spec);
        cap.wperm = spec.weight_shape().len() - 1;
        let err = verify_sparse(&spec, 64, SPARSE_AVX512, &cap).unwrap_err();
        prop_assert!(
            matches!(err, CheckError::ScratchOverflow { buffer: Buf::Wperm, .. }),
            "unexpected error {err:?}"
        );
    }

    /// A register block is proved against its tier's register file: a
    /// lane width no tier runs has none, and is rejected.
    #[test]
    fn sparse_lanes_without_a_register_file_rejected(spec in any_spec()) {
        let cap = ScratchCapacity::reserved_for(&spec);
        for lanes in [4, 12, 32] {
            let err = verify_sparse(&spec, 64, lanes, &cap).unwrap_err();
            prop_assert!(
                matches!(err, CheckError::PlanShapeMismatch { found, .. } if found == lanes),
                "unexpected error {err:?}"
            );
        }
    }
}

/// The AVX2 and portable tiers' lane width.
const SPARSE_AVX2: usize = 8;

/// The AVX-512 tier's lane width.
const SPARSE_AVX512: usize = 16;

/// Judges a sparse backward through the full-plan entry point, the only
/// constructor of an executable plan.
fn verify_sparse(
    spec: &ConvSpec,
    tile_width: usize,
    lanes: usize,
    cap: &ScratchCapacity,
) -> Result<VerifiedPlan, CheckError> {
    let plan = ConvPlan {
        forward: ForwardPlan::UnfoldGemm { threads: 1 },
        backward: BackwardPlan::SparsePointerShift { tile_width, lanes },
    };
    verify_conv_plan(spec, plan, cap)
}
