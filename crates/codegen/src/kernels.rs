//! The stencil forward loop nest, written once and instantiated per
//! [`Geometry`] and instruction set.
//!
//! One source text holds the register-tiled basic block and its per-region
//! driver (`define_simd_forward!`, expanded per instruction set), and one
//! function is the entry ([`forward`]) that stages the Eq. 21 phase
//! transform and forks one driver task per proved region. The kernel
//! geometry — `Fy`, `Fx`, `sy`, `sx` — reaches the loops through the
//! [`Geometry`] a driver is instantiated at:
//!
//! * [`Fixed`] carries it as **const generic parameters**: the `(ky, kx)`
//!   reduction loops have compile-time-constant trip counts, so LLVM fully
//!   unrolls them and folds every weight index `ky*Fx + kx` and every tap
//!   offset to a constant. This is the Georganas et al. per-(tile, stride,
//!   layout) specialization, realized through Rust monomorphization instead
//!   of a run-time JIT — the registry's instances.
//! * [`Dynamic`] reads it from the plan's spec at run time — the "generic"
//!   kernel every unlisted shape runs, built for AVX2+FMA only.
//!
//! Both are the same loops, so the per-output-element reduction order —
//! `(c, ky, kx)` with single-rounded FMA throughout — is the same, and a
//! fixed instance is **bit-identical** to the dynamic one on any geometry
//! both execute by construction (the golden Table 2 suite confirms it). Lane
//! width does not change the per-element chain: each output column is one
//! SIMD lane, and a 16-lane FMA rounds each lane exactly like an 8-lane FMA.
//! Hosts without AVX2+FMA (and Miri) run the entry over the scalar
//! shift-and-scale driver ([`forward_scalar`]) instead.

use spg_check::{TileRegion, VerifiedTiled};
use spg_convnet::workspace::{zeroed_slice, ConvScratch};
use spg_convnet::ConvSpec;
use spg_tensor::transform::StridedLayout;

use crate::TILE_ROWS;

/// The kernel geometry one instance of the loop nest runs, bound to the
/// input layout it reads: compile-time constants ([`Fixed`]) or the spec's
/// own values ([`Dynamic`]).
pub(crate) trait Geometry {
    /// `spec`'s kernel geometry over an input staged in rows of
    /// `row_stride` elements: the CHW input itself at unit `x` stride, else
    /// `sx` phases of `row_stride / sx` columns each (Eq. 21).
    ///
    /// # Panics
    ///
    /// Panics if `spec` is not the geometry a fixed instance was built for.
    fn bind(spec: &ConvSpec, row_stride: usize) -> Self;
    /// Kernel rows, kernel columns and vertical stride: `(fy, fx, sy)`.
    fn dims(&self) -> (usize, usize, usize);
    /// Input column offset of tap `kx`, loop-invariant across a sample:
    /// phase `kx % sx` at column `kx / sx` — `kx` itself at unit stride.
    fn koff(&self, kx: usize) -> usize;
}

/// Compile-time geometry: one registry key. The tap offsets are an array of
/// the key's own length, so `koff(kx)` under an unrolled `kx` is a constant
/// slot.
pub(crate) struct Fixed<const FY: usize, const FX: usize, const SY: usize, const SX: usize> {
    koff: [usize; FX],
}

impl<const FY: usize, const FX: usize, const SY: usize, const SX: usize> Geometry
    for Fixed<FY, FX, SY, SX>
{
    fn bind(spec: &ConvSpec, row_stride: usize) -> Self {
        assert!(
            (spec.ky(), spec.kx(), spec.sy(), spec.sx()) == (FY, FX, SY, SX),
            "spec geometry does not match the monomorphized instance"
        );
        Fixed { koff: std::array::from_fn(|kx| (kx % SX) * (row_stride / SX) + kx / SX) }
    }
    #[inline(always)]
    fn dims(&self) -> (usize, usize, usize) {
        (FY, FX, SY)
    }
    #[inline(always)]
    fn koff(&self, kx: usize) -> usize {
        self.koff[kx]
    }
}

/// Run-time geometry, read from the plan's spec: any kernel size and stride.
pub(crate) struct Dynamic {
    spec: ConvSpec,
    /// Columns per phase of the staged input.
    pw: usize,
}

impl Geometry for Dynamic {
    fn bind(spec: &ConvSpec, row_stride: usize) -> Self {
        Dynamic { spec: *spec, pw: row_stride / spec.sx() }
    }
    #[inline(always)]
    fn dims(&self) -> (usize, usize, usize) {
        (self.spec.ky(), self.spec.kx(), self.spec.sy())
    }
    #[inline(always)]
    fn koff(&self, kx: usize) -> usize {
        // Kernel widths are unbounded here, so the offsets are computed,
        // not tabled; unit stride skips the division.
        match self.spec.sx() {
            1 => kx,
            sx => (kx % sx) * self.pw + kx / sx,
        }
    }
}

/// A region driver — one instruction set's `forward_tiled::<G>`, or the
/// portable [`forward_scalar`] — bound to its [`Geometry`]: the plan, one
/// of its regions, the staged input with its row stride, and the weights.
///
/// # Safety
///
/// The contract of `forward_tiled` in the `define_simd_forward!` module the
/// pointer was taken from; none for [`forward_scalar`].
pub(crate) type RegionFn = unsafe fn(VerifiedTiled<'_>, &mut TileRegion<'_>, &[f32], usize, &[f32]);

/// The one tiled-stencil entry: validates buffer lengths and the plan's
/// register tile, records the flop traffic (full dense convolution:
/// goodput 1, Sec. 3.3), applies the Eq. 21 phase transform for a phased
/// plan once for the whole sample in `scratch`, and runs one `run` task per
/// region the plan has at the scratch's core budget — the whole layer on
/// the calling thread for a sequential plan or a single core, else runs of
/// proved bands, all reading the one staging.
///
/// # Safety
///
/// `run` must be [`forward_scalar`], or a `forward_tiled` of a
/// `define_simd_forward!` module whose target features the running CPU
/// has; `lanes` that module's `LANES` (any plan's for the scalar loops).
pub(crate) unsafe fn forward(
    run: RegionFn,
    lanes: usize,
    plan: VerifiedTiled<'_>,
    input: &[f32],
    weights: &[f32],
    output: &mut [f32],
    scratch: &mut ConvScratch,
) {
    let spec = plan.spec();
    assert_eq!(input.len(), spec.input_shape().len(), "input length");
    assert_eq!(weights.len(), spec.weight_shape().len(), "weights length");
    assert!(
        plan.lanes() == lanes && plan.tile_rows() == TILE_ROWS,
        "plan was lowered for a different register tile"
    );
    let ops = spec.arithmetic_ops();
    spg_telemetry::record_flops(ops, ops);

    // The CHW input (row stride in_w) or, for phased plans, its Eq. 21
    // staging: (c, h) row groups of sx phases x pw columns.
    let cores = scratch.cores;
    let (staged, row_stride): (&[f32], usize) = if plan.phased() {
        let Ok(lay) = StridedLayout::new(spec.input_shape(), spec.sx()) else {
            unreachable!("ConvSpec validation rejects zero strides")
        };
        let phased = zeroed_slice(&mut scratch.hwc_in, lay.transformed_len());
        lay.apply_into(input, phased);
        (phased, spec.sx() * lay.phase_width())
    } else {
        (input, spec.in_w())
    };
    spg_gemm::fork_join(plan.regions(output, cores).map(|mut region| {
        // SAFETY: target features guaranteed by the caller; `staged` is the
        // length-checked input of plan.spec() or the freshly staged buffer
        // of lay.transformed_len() elements, in rows of `row_stride` —
        // unit-stride exactly when the plan is not phased; the lane assert
        // and the driver's own `Geometry::bind` tie this instance to the
        // plan spg-check proved, whose x-tile and phase-group containment
        // judgments bound every tap access; `region` comes from that
        // plan's own split of the length-checked `output`.
        move || unsafe { run(plan, &mut region, staged, row_stride, weights) }
    }));
}

/// Portable shift-and-scale region driver over either input layout — the
/// only one on hosts without AVX2+FMA and under Miri, and the oracle for
/// the SIMD tile — over one region's features and rows.
pub(crate) fn forward_scalar<G: Geometry>(
    plan: VerifiedTiled<'_>,
    region: &mut TileRegion<'_>,
    input: &[f32],
    row_stride: usize,
    weights: &[f32],
) {
    let spec = plan.spec();
    let g = G::bind(spec, row_stride);
    let (wshape, (fy, fx, sy)) = (spec.weight_shape(), g.dims());
    let (in_h, out_w) = (spec.in_h(), spec.out_w());
    let (f_lo, f_hi) = region.features();
    let (y_lo, y_hi) = region.rows();
    for f in f_lo..f_hi {
        let out_rows = region.plane_rows(f);
        out_rows.fill(0.0);
        for c in 0..spec.in_c() {
            for ky in 0..fy {
                for kx in 0..fx {
                    let w = weights[wshape.index(f, c, ky, kx)];
                    if w == 0.0 {
                        continue;
                    }
                    for (y, out_row) in (y_lo..y_hi).zip(out_rows.chunks_exact_mut(out_w)) {
                        let base = (c * in_h + y * sy + ky) * row_stride + g.koff(kx);
                        let in_row = &input[base..base + out_w];
                        for (o, &i) in out_row.iter_mut().zip(in_row) {
                            *o += w * i;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
macro_rules! define_simd_forward {
    (
        module: $mod_:ident,
        feature: $feat:literal,
        lanes: $lanes:literal,
        setzero: $setzero:ident,
        loadu: $loadu:ident,
        set1: $set1:ident,
        fmadd: $fmadd:ident,
        storeu: $storeu:ident
    ) => {
        pub(crate) mod $mod_ {
            use std::arch::x86_64::*;

            use spg_check::{TileRegion, VerifiedTiled};

            use super::Geometry;
            use crate::TILE_ROWS;

            /// f32 lanes per vector for this instruction set.
            pub(crate) const LANES: usize = $lanes;

            /// Register-tiled basic block over a `rows x (RX*LANES)` output
            /// tile (the Fig. 7 structure with the channel loop hoisted
            /// inside the tile): for every channel, every input row feeding
            /// the tile and every `kx` tap, load the input vector once and
            /// fan its contributions out to all output rows it serves —
            /// input row `iy` serves the rows `ty` with `ky = iy - ty*sy` in
            /// `[0, fy)`, up to `ceil(fy / sy)` of them, so cross-row reuse
            /// survives vertical striding whenever `sy < fy`. The complete
            /// `(c, ky, kx)` reduction runs before a single store, so tiles
            /// may overlap in `x` — overlapping columns are recomputed —
            /// which lets a ragged row end in one overlapping tile instead
            /// of a scalar tail. One weight broadcast feeds `RX` (1 or 2)
            /// fused multiply-adds, the GEMM micro-kernel's 6x16 shape. At
            /// [`Fixed`](super::Fixed) geometry the `fy`/`fx` trip counts
            /// unroll at compile time.
            ///
            /// # Safety
            ///
            /// Caller guarantees the target features of this module; that
            /// for every `c < nc` and `iy < (rows-1)*sy + fy`,
            /// `in_tile + c*c_stride + iy*row_stride + g.koff(kx) + RX*LANES`
            /// stays within the input buffer (the x-tile, row-range and
            /// phase-group judgments behind the caller's `VerifiedTiled`);
            /// that `w_f` points to `nc * fy * fx` readable floats; and
            /// that `out` has `rows` rows of `RX*LANES` writable elements
            /// at stride `out_stride`.
            #[target_feature(enable = $feat)]
            #[inline]
            #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
            unsafe fn tile_block<const RX: usize, G: Geometry>(
                g: &G,
                rows: usize,
                nc: usize,
                in_tile: *const f32,
                c_stride: usize,
                row_stride: usize,
                w_f: *const f32,
                out: *mut f32,
                out_stride: usize,
            ) {
                let (fy, fx, sy) = g.dims();
                debug_assert!((1..=TILE_ROWS).contains(&rows) && sy >= 1);
                debug_assert!(RX == 1 || RX == 2);
                let mut acc = [[$setzero(); RX]; TILE_ROWS];
                for c in 0..nc {
                    // SAFETY: c < nc; the caller contract bounds
                    // in_tile + c*c_stride and w_f + c*fy*fx.
                    let (in_c, w_fc) = unsafe { (in_tile.add(c * c_stride), w_f.add(c * fy * fx)) };
                    for iy in 0..(rows - 1) * sy + fy {
                        // Output rows served by input row iy: ty with
                        // 0 <= iy - ty*sy < fy.
                        let ty_lo = (iy + 1).saturating_sub(fy).div_ceil(sy);
                        let ty_hi = (iy / sy).min(rows - 1);
                        if ty_lo > ty_hi {
                            continue;
                        }
                        // SAFETY: iy stays below the caller-proved row bound.
                        let base = unsafe { in_c.add(iy * row_stride) };
                        for kx in 0..fx {
                            let off = g.koff(kx);
                            let mut ivec = [$setzero(); RX];
                            for (rx, v) in ivec.iter_mut().enumerate() {
                                // SAFETY: the caller contract (the x-tile the
                                // driver took from its `VerifiedTiled`) keeps
                                // koff(kx) + RX*LANES inside the input buffer.
                                *v = unsafe { $loadu(base.add(off + rx * LANES)) };
                            }
                            for ty in ty_lo..=ty_hi {
                                let ky = iy - ty * sy;
                                // SAFETY: ky < fy and kx < fx by loop bounds;
                                // w_fc points to fy*fx readable floats (the
                                // verifier's weight-broadcast range proof).
                                let w = unsafe { $set1(*w_fc.add(ky * fx + kx)) };
                                for rx in 0..RX {
                                    acc[ty][rx] = $fmadd(ivec[rx], w, acc[ty][rx]);
                                }
                            }
                        }
                    }
                }
                for (r, row) in acc.iter().enumerate().take(rows) {
                    for (rx, a) in row.iter().enumerate() {
                        // SAFETY: r < rows; the caller contract guarantees
                        // `out` has rows rows of RX*LANES writable elements
                        // at stride out_stride (output-store range proof).
                        unsafe { $storeu(out.add(r * out_stride + rx * LANES), *a) };
                    }
                }
            }

            /// Drives [`tile_block`] over one proved region of the plan:
            /// its feature planes, cache row blocks of its rows (one block
            /// swept completely, all channels reduced inside the register
            /// tiles, before moving down the image), register tiles, then
            /// each of the plan's own x-tiles.
            ///
            /// # Safety
            ///
            /// Caller guarantees the target features of this module, that
            /// `plan.lanes() == LANES` and `plan.tile_rows() == TILE_ROWS`,
            /// that `region` is one of `plan.regions(output, _)` for an
            /// output of `plan.spec()`, and that `input` in rows of
            /// `row_stride` is the input (or its phase-transformed staging,
            /// exactly when `plan.phased()`) of `plan.spec()` — so every
            /// access the tile
            /// blocks perform lies in the ranges spg-check proved to
            /// produce `plan`, and every store in the part of the output it
            /// proved this region's alone. `weights` must match
            /// `plan.spec()`.
            #[target_feature(enable = $feat)]
            pub(crate) unsafe fn forward_tiled<G: Geometry>(
                plan: VerifiedTiled<'_>,
                region: &mut TileRegion<'_>,
                input: &[f32],
                row_stride: usize,
                weights: &[f32],
            ) {
                let spec = plan.spec();
                let g = &G::bind(spec, row_stride);
                let (out_w, nc, c_stride) = (spec.out_w(), spec.in_c(), spec.in_h() * row_stride);
                let (fy, fx, sy) = g.dims();
                let in_ptr = input.as_ptr();
                let (f_lo, f_hi) = region.features();
                let (y_lo, y_hi) = region.rows();
                for f in f_lo..f_hi {
                    let out_rows = region.plane_rows(f).as_mut_ptr();
                    // SAFETY: f < nf keeps the weight block offset inside
                    // the validated weight buffer.
                    let w_f = unsafe { weights.as_ptr().add(f * nc * fy * fx) };
                    let mut y0 = y_lo;
                    while y0 < y_hi {
                        let y1 = (y0 + plan.cache_rows()).min(y_hi);
                        let mut y = y0;
                        while y < y1 {
                            let rows = TILE_ROWS.min(y1 - y);
                            for tile in plan.x_tiles() {
                                let x = tile.x;
                                // SAFETY: row y*sy is the first input row the
                                // tile reads and x its first column; the
                                // proved row range covers y*sy + iy for every
                                // in-tile iy, the proved x-tile segment covers
                                // x + koff(kx) + RX*LANES.
                                let in_tile = unsafe { in_ptr.add(y * sy * row_stride + x) };
                                // SAFETY: y_lo <= y < y_hi and x + tile width
                                // <= out_w (this tile's proved segment),
                                // inside the region's rows of the f-th plane.
                                let dst = unsafe { out_rows.add((y - y_lo) * out_w + x) };
                                // SAFETY: target features guaranteed by the
                                // caller; the pointer arguments satisfy the
                                // tile-block contract because `tile` and the
                                // row range come from a `TileRegion` of the
                                // caller's `VerifiedTiled`, which also makes
                                // the stored elements this worker's alone.
                                unsafe {
                                    if tile.vectors == 2 {
                                        tile_block::<2, G>(
                                            g, rows, nc, in_tile, c_stride, row_stride, w_f, dst,
                                            out_w,
                                        );
                                    } else {
                                        tile_block::<1, G>(
                                            g, rows, nc, in_tile, c_stride, row_stride, w_f, dst,
                                            out_w,
                                        );
                                    }
                                }
                            }
                            y += rows;
                        }
                        y0 = y1;
                    }
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
define_simd_forward! {
    module: avx2,
    feature: "avx2,fma",
    lanes: 8,
    setzero: _mm256_setzero_ps,
    loadu: _mm256_loadu_ps,
    set1: _mm256_set1_ps,
    fmadd: _mm256_fmadd_ps,
    storeu: _mm256_storeu_ps
}

#[cfg(target_arch = "x86_64")]
define_simd_forward! {
    module: avx512,
    feature: "avx512f,fma",
    lanes: 16,
    setzero: _mm512_setzero_ps,
    loadu: _mm512_loadu_ps,
    set1: _mm512_set1_ps,
    fmadd: _mm512_fmadd_ps,
    storeu: _mm512_storeu_ps
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::xplan::tiled_plan;
    use spg_check::VECTOR_WIDTH;
    use spg_check::{
        BackwardPlan, BandDim, ConvPlan, ForwardPlan, RegisterTile, ScheduleTile, ScratchCapacity,
        VerifiedPlan,
    };
    use spg_convnet::reference;

    pub(crate) fn pseudo(n: usize, salt: usize) -> Vec<f32> {
        (0..n).map(|i| (((i * 29 + salt * 13) % 19) as f32 - 9.0) / 5.0).collect()
    }

    /// `spec`'s tiled plan at `lanes` lanes — split into `n` bands along
    /// `dim` for `Some((dim, n))` — proved: the only way to run a kernel.
    pub(crate) fn proved(
        spec: &ConvSpec,
        lanes: usize,
        split: Option<(BandDim, usize)>,
    ) -> VerifiedPlan {
        let tiled = tiled_plan(spec, lanes, 12);
        let forward = match split {
            None => tiled,
            Some((dim, n)) => {
                let extent = match dim {
                    BandDim::YRows => spec.out_h(),
                    BandDim::OutChannels => spec.features(),
                };
                let bands = spg_check::gemm::row_bands(extent, n);
                ForwardPlan::StencilBanded { dim, tiled: Box::new(tiled), bands }
            }
        };
        let plan = ConvPlan {
            forward,
            backward: BackwardPlan::UnfoldGemm { threads: 1 },
            register_tile: RegisterTile { rx: 1, ry: 1 },
            schedule: ScheduleTile { y_tile: 1, x_tile: spec.out_w() },
        };
        match spg_check::verify_conv_plan(spec, plan, &ScratchCapacity::reserved_for(spec)) {
            Ok(v) => v,
            Err(e) => panic!("{lanes}-lane plan on {spec}: {e}"),
        }
    }

    /// Every split the tests run: sequential, then 2 and 3 bands along
    /// each dimension, each with the cores for all its bands.
    fn splits() -> Vec<Option<(BandDim, usize)>> {
        let mut splits = vec![None];
        for dim in [BandDim::YRows, BandDim::OutChannels] {
            splits.extend([2, 3].map(|n| Some((dim, n))));
        }
        splits
    }

    /// One forward of `spec` under `split` on `kernel`, every band on its
    /// own core.
    fn run(
        kernel: fn(VerifiedTiled<'_>, &[f32], &[f32], &mut [f32], &mut ConvScratch),
        spec: &ConvSpec,
        split: Option<(BandDim, usize)>,
        input: &[f32],
        weights: &[f32],
    ) -> Vec<f32> {
        let plan = proved(spec, VECTOR_WIDTH, split);
        let tiled = plan.tiled().unwrap_or_else(|| unreachable!("lowered tiled"));
        let mut out = vec![f32::NAN; spec.output_shape().len()];
        let mut scratch = ConvScratch::with_cores(split.map_or(1, |(_, n)| n));
        kernel(tiled, input, weights, &mut out, &mut scratch);
        out
    }

    /// The run-time-geometry instance as dispatch runs it on this host.
    fn dynamic(
        plan: VerifiedTiled<'_>,
        input: &[f32],
        weights: &[f32],
        output: &mut [f32],
        scratch: &mut ConvScratch,
    ) {
        crate::forward_tiled(None, plan, input, weights, output, scratch);
    }

    /// The scalar arm of the entry, as a host without AVX2+FMA runs it.
    fn scalar(
        plan: VerifiedTiled<'_>,
        input: &[f32],
        weights: &[f32],
        output: &mut [f32],
        scratch: &mut ConvScratch,
    ) {
        // SAFETY: the scalar loops are safe code; no target feature is required.
        unsafe {
            forward(forward_scalar::<Dynamic>, VECTOR_WIDTH, plan, input, weights, output, scratch);
        }
    }

    fn max_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
    }

    fn oracle(spec: &ConvSpec, input: &[f32], weights: &[f32]) -> Vec<f32> {
        let mut out = vec![0f32; spec.output_shape().len()];
        reference::forward(spec, input, weights, &mut out);
        out
    }

    /// Geometries in no registry key — a 4x4 kernel at stride 3 (phased)
    /// and Table 1 ID 1's 2x2 at stride 1 (channels shrunk) — run the
    /// run-time-geometry instance: it agrees with the reference
    /// (tolerance: the reduction order differs), and with itself bit for
    /// bit however the layer is banded. 14x21 outputs: a ragged row (two
    /// vectors and an overlapping tail) and a partial last register tile.
    #[test]
    fn dynamic_instance_matches_reference_on_unlisted_geometries() {
        let strided = ConvSpec::new(2, 4 + 3 * 13, 4 + 3 * 20, 5, 4, 4, 3, 3);
        let unit = ConvSpec::new(3, 15, 22, 5, 2, 2, 1, 1);
        for spec in [strided, unit].map(|s| s.unwrap_or_else(|e| panic!("{e:?}"))) {
            assert!(crate::lookup(&spec).is_none(), "{spec} must not be a registry key");
            assert_eq!((spec.out_h(), spec.out_w()), (14, 21));
            let input = pseudo(spec.input_shape().len(), 1);
            let weights = pseudo(spec.weight_shape().len(), 2);
            let sequential = run(dynamic, &spec, None, &input, &weights);
            let diff = max_diff(&sequential, &oracle(&spec, &input, &weights));
            assert!(diff < 5e-4, "{spec}: diff {diff}");
            for split in splits() {
                let banded = run(dynamic, &spec, split, &input, &weights);
                assert_eq!(banded, sequential, "{spec} {split:?}");
            }
        }
    }

    /// Output widths straddling the 8-lane boundary and heights not
    /// divisible by the 6-row tile.
    #[test]
    fn tile_edges_are_exact() {
        for w in [8usize, 9, 15, 16, 17] {
            for h in [3usize, 6, 7, 13] {
                let spec = ConvSpec::new(1, h + 2, w + 2, 2, 3, 3, 1, 1);
                let spec = spec.unwrap_or_else(|e| panic!("{e:?}"));
                let input = pseudo(spec.input_shape().len(), 1);
                let weights = pseudo(spec.weight_shape().len(), 2);
                let out = run(dynamic, &spec, None, &input, &weights);
                let diff = max_diff(&out, &oracle(&spec, &input, &weights));
                assert!(diff < 5e-4, "{spec}: diff {diff}");
            }
        }
    }

    /// The scalar arm — what hosts without AVX2+FMA and Miri run — agrees
    /// with the reference, zero-weight short circuit included, and is
    /// invariant under banding bit for bit.
    #[test]
    fn scalar_arm_over_band_regions_equals_the_sequential_pass() {
        let unit = ConvSpec::square(22, 5, 2, 3, 1); // 20x20 output
        let strided = ConvSpec::square(47, 3, 2, 7, 2); // 21x21 output, sx 2
        for spec in [unit, strided] {
            let input = pseudo(spec.input_shape().len(), 5);
            let mut weights = pseudo(spec.weight_shape().len(), 6);
            weights[4] = 0.0;
            weights[9] = 0.0;
            let sequential = run(scalar, &spec, None, &input, &weights);
            let diff = max_diff(&sequential, &oracle(&spec, &input, &weights));
            assert!(diff < 5e-4, "{spec}: diff {diff}");
            for split in splits() {
                assert_eq!(run(scalar, &spec, split, &input, &weights), sequential, "{spec}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn validates_output_buffer() {
        let spec = ConvSpec::square(12, 1, 1, 3, 1);
        let plan = proved(&spec, VECTOR_WIDTH, None);
        let tiled = plan.tiled().unwrap_or_else(|| unreachable!("lowered tiled"));
        dynamic(tiled, &[0.0; 144], &[0.0; 9], &mut [0.0; 3], &mut ConvScratch::new());
    }
}
