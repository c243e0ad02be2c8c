//! Direct-convolution forward kernels (paper Sec. 4.3).
//!
//! Two plans execute here, chosen when the layer's plan is lowered
//! ([`verify::lower`](crate::verify::lower)), never per call:
//!
//! * **Register-tiled basic block** ([`forward_tiled`], plans with output
//!   rows at least one vector wide): the paper's Fig. 7 structure. On
//!   `x86_64` with AVX2+FMA an `ry`-row output register tile is held in YMM
//!   accumulators while the `(c, ky, kx)` reduction streams over it; every
//!   loaded input vector feeds up to `min(ry, Fy)` output rows — the
//!   spatial reuse that restores the arithmetic intensity unfolding
//!   destroys. The loops iterate the x-tiles and cache row block of the
//!   [`VerifiedTiled`] plan they are handed and the features and rows of
//!   each of its [`TileRegion`]s: one region on the calling thread for a
//!   sequential plan, one per worker for a banded one, all reading the
//!   parent input and writing the parent output. Non-unit `x`
//!   strides first apply the Eq. 21 phase transform, once per sample, so
//!   the strided loads become contiguous. Hosts without AVX2+FMA run a
//!   scalar shift-and-scale fallback with identical semantics.
//! * **Shifted small dense MMs** ([`forward_narrow_scratch`], outputs
//!   narrower than one vector): vectorizing along 4-element rows is
//!   pointless, so the kernel vectorizes along *features* instead: inputs
//!   and outputs are viewed in HWC layout and, for every kernel offset
//!   `(ky, kx)`, a small dense `out_w x Nf x Nc` multiply accumulates the
//!   shifted input rows into the output — convolution composed in place
//!   as a series of small dense MMs by pointer shifting, with no unfolded
//!   matrix. The weights arrive already permuted into those multiplies'
//!   right-hand operands; like the sparse backward, this kernel reads the
//!   permuted layout and never produces it.

use spg_check::{TileRegion, VerifiedTiled, VECTOR_WIDTH};
use spg_codegen::TILE_ROWS;
use spg_tensor::transform::StridedLayout;
use spg_tensor::{layout, Shape3};

use spg_convnet::workspace::{zeroed_slice, ConvScratch};
use spg_convnet::ConvSpec;
use spg_gemm::gemm_slice;

/// Builds the Eq. 21 phase layout for `spec`'s x stride.
fn phase_layout(spec: &ConvSpec) -> StridedLayout {
    match StridedLayout::new(spec.input_shape(), spec.sx()) {
        Ok(lay) => lay,
        // ConvSpec validation rejects zero strides.
        Err(_) => unreachable!("positive stride by spec validation"),
    }
}

/// Forward propagation by the generic register-tiled stencil over a proved
/// plan — each of the regions it has at the scratch's
/// [core budget](ConvScratch::cores) a `fork_join` task, so a banded
/// plan's bands run in parallel when the call owns the cores for them and
/// as the one sequential region when it owns one — staging the phase
/// transform (strided plans) once in a caller-provided [`ConvScratch`]: the
/// per-sample hot path uses no memory outside the scratch, and performs no
/// heap allocation once it has warmed up to this geometry.
///
/// Semantically identical to
/// [`reference::forward`](spg_convnet::reference::forward) on
/// `plan.spec()`; the layout transform's cost is part of this call (the
/// paper includes transform time in its stencil measurements, Sec. 4.3).
///
/// # Panics
///
/// Panics if any buffer length does not match `plan.spec()`, or if the
/// plan was lowered for a register tile other than the generic kernel's
/// ([`VECTOR_WIDTH`] lanes, [`TILE_ROWS`] rows).
pub fn forward_tiled(
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
        plan.lanes() == VECTOR_WIDTH && plan.tile_rows() == TILE_ROWS,
        "plan was lowered for a different register tile"
    );

    // The stencil kernel computes the full dense convolution, so every
    // charged flop is useful (goodput 1, Sec. 3.3).
    let ops = spec.arithmetic_ops();
    spg_telemetry::record_flops(ops, ops);

    let cores = scratch.cores;
    if plan.phased() {
        let lay = phase_layout(spec);
        let phased = zeroed_slice(&mut scratch.hwc_in, lay.transformed_len());
        lay.apply_into(input, phased);
        // Eq. 21 staging: each (c, h) row group is sx phases of pw columns,
        // and tap kx reads phase kx % sx from column kx / sx.
        let (sx, pw) = (spec.sx(), lay.phase_width());
        run_tiled(plan, cores, phased, sx * pw, |kx| (kx % sx) * pw + kx / sx, weights, output);
    } else {
        run_tiled(plan, cores, input, spec.in_w(), |kx| kx, weights, output);
    }
}

/// One tiled pass over `input` — the CHW input (`row_stride = in_w`,
/// `koff = kx`) or its phase-transformed staging — one task per region of
/// the plan at `cores` cores, on the AVX2+FMA basic block where the host
/// has it, the scalar shift-and-scale loops otherwise. Only
/// [`forward_tiled`] calls this, after its entry asserts.
fn run_tiled(
    plan: VerifiedTiled<'_>,
    cores: usize,
    input: &[f32],
    row_stride: usize,
    koff: impl Fn(usize) -> usize + Copy + Send,
    weights: &[f32],
    output: &mut [f32],
) {
    spg_gemm::fork_join(plan.regions(output, cores).map(|mut region| {
        move || {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                // SAFETY: AVX2+FMA presence checked above; the caller
                // asserted the plan's register tile and the weight length
                // against plan.spec(), `region` is one of that plan's own
                // regions of the length-checked output, and the caller
                // passes one of the two layouts of that spec's input —
                // unit-stride exactly when the plan is not phased, else the
                // freshly staged buffer whose row groups the plan's
                // phase-group containment proof is about.
                unsafe { avx::forward_tiled(plan, &mut region, input, row_stride, koff, weights) };
                return;
            }
            forward_scalar(plan.spec(), &mut region, input, row_stride, koff, weights);
        }
    }));
}

/// Narrow-output forward path: compose the convolution as shifted small
/// dense MMs over channel/feature-major views (one `out_w x Nf x Nc`
/// multiply per kernel offset), vectorized by the GEMM micro-kernel along
/// features. `w_kkcf` is the weights as those multiplies' right-hand
/// operands ([`spg_tensor::layout::narrow_weights_into`] — the layer's
/// [`PreparedWeights::kkcf`](spg_convnet::exec::PreparedWeights::kkcf),
/// refreshed once per update); the per-sample HWC views and gathered patch
/// block are staged in a caller-provided [`ConvScratch`].
///
/// # Panics
///
/// Panics if any buffer length does not match the spec.
pub fn forward_narrow_scratch(
    spec: &ConvSpec,
    input: &[f32],
    w_kkcf: &[f32],
    output: &mut [f32],
    scratch: &mut ConvScratch,
) {
    assert_eq!(input.len(), spec.input_shape().len(), "input length");
    assert_eq!(w_kkcf.len(), spec.weight_shape().len(), "weights length");
    assert_eq!(output.len(), spec.output_shape().len(), "output length");
    // Like the tiled plan, the full dense convolution: goodput 1.
    let ops = spec.arithmetic_ops();
    spg_telemetry::record_flops(ops, ops);
    let (nc, nf) = (spec.in_c(), spec.features());
    let (in_w, out_h, out_w) = (spec.in_w(), spec.out_h(), spec.out_w());
    let (sy, sx) = (spec.sy(), spec.sx());
    let (fy, fx) = (spec.ky(), spec.kx());

    let ConvScratch { mat_a, hwc_in, hwc_out, .. } = scratch;
    let in_hwc = zeroed_slice(hwc_in, input.len());
    layout::chw_to_hwc_into(input, spec.input_shape(), in_hwc);

    // The GEMMs accumulate across kernel offsets, so the output staging
    // buffer must start zeroed.
    let out_hwc = zeroed_slice(hwc_out, out_h * out_w * nf);
    let iv = &in_hwc[..];
    // Per kernel offset: gather the pointer-shifted input pixels into one
    // contiguous (P x Nc) block (rows of one output row are sx*Nc apart,
    // rows of different output rows are not uniformly spaced, so a single
    // strided GEMM cannot cover them), then one dense multiply per offset.
    let patches = out_h * out_w;
    mat_a.resize(patches, nc);
    let gathered = mat_a.as_mut_slice();
    for ky in 0..fy {
        for kx in 0..fx {
            let b = &w_kkcf[(ky * fx + kx) * nc * nf..(ky * fx + kx + 1) * nc * nf];
            for y in 0..out_h {
                for x in 0..out_w {
                    let src = ((y * sy + ky) * in_w + x * sx + kx) * nc;
                    let dst = (y * out_w + x) * nc;
                    gathered[dst..dst + nc].copy_from_slice(&iv[src..src + nc]);
                }
            }
            gemm_slice(patches, nf, nc, gathered, nc, b, nf, out_hwc, nf);
        }
    }

    layout::hwc_to_chw_into(out_hwc, Shape3::new(nf, out_h, out_w), output);
}

/// Portable shift-and-scale path over either input layout of
/// [`run_tiled`] (also the oracle for the AVX tile), over one region's
/// features and rows.
fn forward_scalar(
    spec: &ConvSpec,
    region: &mut TileRegion<'_>,
    input: &[f32],
    row_stride: usize,
    koff: impl Fn(usize) -> usize,
    weights: &[f32],
) {
    let wshape = spec.weight_shape();
    let (in_h, out_w, sy) = (spec.in_h(), spec.out_w(), spec.sy());
    let (f_lo, f_hi) = region.features();
    let (y_lo, y_hi) = region.rows();
    for f in f_lo..f_hi {
        let out_rows = region.plane_rows(f);
        out_rows.fill(0.0);
        for c in 0..spec.in_c() {
            for ky in 0..spec.ky() {
                for kx in 0..spec.kx() {
                    let w = weights[wshape.index(f, c, ky, kx)];
                    if w == 0.0 {
                        continue;
                    }
                    for (y, out_row) in (y_lo..y_hi).zip(out_rows.chunks_exact_mut(out_w)) {
                        let base = (c * in_h + y * sy + ky) * row_stride + koff(kx);
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
mod avx {
    use super::{TileRegion, VerifiedTiled, TILE_ROWS, VECTOR_WIDTH as LANES};
    use std::arch::x86_64::*;

    /// Register-tiled basic block over a `rows x LANES` output tile,
    /// reducing over **all** channels and kernel offsets before a single
    /// store (the Fig. 7 structure with the channel loop hoisted inside
    /// the tile): for every channel, every input row feeding the tile and
    /// every `kx` shift, load the input vector once and fan its
    /// contributions out to all output rows it serves. Because the tile
    /// performs the complete reduction, tiles may overlap in `x` —
    /// overlapping columns are simply recomputed — which lets callers
    /// cover ragged row tails with one final overlapping tile instead of
    /// a scalar path.
    ///
    /// Output row `ty` of the tile reads input rows `ty * sy + ky`; input
    /// row `iy` therefore serves output rows with `ky = iy - ty * sy` in
    /// `[0, fy)` — up to `ceil(fy / sy)` of them, so cross-row reuse
    /// survives vertical striding whenever `sy < fy` (e.g. the stride-2
    /// 7x7 ImageNet-22K layer reuses each loaded row up to 4x).
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX2+FMA; that for every `c < nc` and
    /// `iy < (rows - 1) * sy + fy`, `in_row(c, iy) + kx_offset(kx) +
    /// LANES` stays within the input buffer; that `weights(c)` points to
    /// `fy * fx` readable floats; and that `out` has `rows` rows of at
    /// least `LANES` writable elements at stride `out_stride`.
    /// `RX` is the tile width in vectors (1 or 2). The two-vector form
    /// mirrors the GEMM micro-kernel's 6x16 shape: one weight broadcast
    /// feeds `RX` fused multiply-adds, halving the broadcast overhead
    /// that otherwise caps the kernel's instruction throughput.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments, clippy::manual_range_contains, clippy::needless_range_loop)]
    unsafe fn tile_block<const RX: usize>(
        rows: usize,
        fy: usize,
        fx: usize,
        sy: usize,
        nc: usize,
        in_row: impl Fn(usize, usize) -> *const f32,
        weights: impl Fn(usize) -> *const f32,
        kx_offset: impl Fn(usize) -> usize,
        out: *mut f32,
        out_stride: usize,
    ) {
        debug_assert!(rows >= 1 && rows <= TILE_ROWS && sy >= 1);
        debug_assert!(RX == 1 || RX == 2);
        let mut acc = [[_mm256_setzero_ps(); RX]; TILE_ROWS];
        for c in 0..nc {
            let w_fc = weights(c);
            for iy in 0..(rows - 1) * sy + fy {
                // Output rows served by input row iy: ty with
                // 0 <= iy - ty*sy < fy.
                let ty_lo = (iy + 1).saturating_sub(fy).div_ceil(sy);
                let ty_hi = (iy / sy).min(rows - 1);
                if ty_lo > ty_hi {
                    continue;
                }
                let base = in_row(c, iy);
                for kx in 0..fx {
                    let off = kx_offset(kx);
                    let mut ivec = [_mm256_setzero_ps(); RX];
                    for (rx, v) in ivec.iter_mut().enumerate() {
                        // SAFETY: the caller contract (an x-tile and row
                        // range taken from a `VerifiedTiled`) guarantees
                        // in_row(c, iy) + kx_offset(kx) + RX * LANES stays
                        // inside the input buffer.
                        *v = unsafe { _mm256_loadu_ps(base.add(off + rx * LANES)) };
                    }
                    for ty in ty_lo..=ty_hi {
                        let ky = iy - ty * sy;
                        // SAFETY: ky < fy and kx < fx by the loop bounds, and
                        // the caller contract guarantees weights(c) points to
                        // fy * fx readable floats (the verifier's weight-
                        // broadcast range proof).
                        let w = unsafe { _mm256_broadcast_ss(&*w_fc.add(ky * fx + kx)) };
                        for rx in 0..RX {
                            acc[ty][rx] = _mm256_fmadd_ps(ivec[rx], w, acc[ty][rx]);
                        }
                    }
                }
            }
        }
        for (r, row) in acc.iter().enumerate().take(rows) {
            for (rx, a) in row.iter().enumerate() {
                // SAFETY: r < rows and the caller contract guarantees `out`
                // has `rows` rows of RX * LANES writable elements at stride
                // `out_stride` (the verifier's output-store range proof).
                unsafe { _mm256_storeu_ps(out.add(r * out_stride + rx * LANES), *a) };
            }
        }
    }

    /// Register-tiled forward pass over one proved region of a plan: its
    /// feature planes, cache row blocks of its rows, register tiles, then
    /// each of the plan's x-tiles. `input` is the CHW input (unit `x` stride,
    /// `row_stride = in_w`, `koff = kx`) or its Eq. 21 phase-transformed
    /// staging (`row_stride = sx * pw`, `koff = (kx % sx) * pw + kx / sx`).
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX2+FMA, `plan.lanes() == LANES`,
    /// `plan.tile_rows() == TILE_ROWS`, a `weights` length matching
    /// `plan.spec()`, that `region` is one of `plan.regions(output, _)` for an
    /// output of `plan.spec()`, and that `input`/`row_stride`/`koff` are
    /// one of the two layouts above for `plan.spec()`'s input, unit-stride
    /// exactly when `!plan.phased()`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn forward_tiled(
        plan: VerifiedTiled<'_>,
        region: &mut TileRegion<'_>,
        input: &[f32],
        row_stride: usize,
        koff: impl Fn(usize) -> usize + Copy,
        weights: &[f32],
    ) {
        let spec = plan.spec();
        let (in_h, out_w) = (spec.in_h(), spec.out_w());
        let (fy, fx) = (spec.ky(), spec.kx());
        let (nc, sy) = (spec.in_c(), spec.sy());
        let in_ptr = input.as_ptr();
        let w_ptr = weights.as_ptr();
        let (f_lo, f_hi) = region.features();
        let (y_lo, y_hi) = region.rows();

        for f in f_lo..f_hi {
            let out_rows = region.plane_rows(f).as_mut_ptr();
            // Cache schedule: sweep one block of output rows completely
            // (all channels reduced inside the register tiles) before
            // moving down the image.
            let mut y0 = y_lo;
            while y0 < y_hi {
                let y1 = (y0 + plan.cache_rows()).min(y_hi);
                let mut y = y0;
                while y < y1 {
                    let rows = TILE_ROWS.min(y1 - y);
                    for tile in plan.x_tiles() {
                        let x = tile.x;
                        // SAFETY: c < nc, y*sy + iy <= (out_h-1)*sy + fy - 1
                        // < in_h, and x + koff(kx) + vectors*LANES stays in
                        // the row (unit stride) or the (c, h) phase group
                        // (phased): `tile` is read from `plan` and the row
                        // range from a region of it, the values spg-check
                        // constructed by proving exactly these ranges
                        // in-bounds.
                        let in_row = |c: usize, iy: usize| unsafe {
                            in_ptr.add((c * in_h + y * sy + iy) * row_stride + x)
                        };
                        // SAFETY: f < nf and c < nc index whole fy*fx blocks
                        // of the validated weight buffer.
                        let w_fc = |c: usize| unsafe { w_ptr.add((f * nc + c) * fy * fx) };
                        // SAFETY: y_lo <= y < y_hi and x + vectors*LANES <=
                        // out_w (this tile's proved segment), inside the
                        // region's rows of the f-th plane.
                        let dst = unsafe { out_rows.add((y - y_lo) * out_w + x) };
                        // SAFETY: AVX2+FMA guaranteed by the caller; the
                        // closure contracts above bound every access the
                        // block performs, and the stored elements lie in
                        // this region's rows of its own feature plane.
                        unsafe {
                            if tile.vectors == 2 {
                                tile_block::<2>(
                                    rows, fy, fx, sy, nc, in_row, w_fc, koff, dst, out_w,
                                );
                            } else {
                                tile_block::<1>(
                                    rows, fy, fx, sy, nc, in_row, w_fc, koff, dst, out_w,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autotune::Phase;
    use crate::schedule::Technique;
    use crate::verify::lower_phase;
    use spg_codegen::KernelChoice;
    use spg_convnet::reference;

    fn pseudo(n: usize, salt: usize) -> Vec<f32> {
        (0..n).map(|i| (((i * 29 + salt * 13) % 19) as f32 - 9.0) / 5.0).collect()
    }

    /// The stencil forward as lowering deploys it on the generic loops:
    /// the tiled plan on wide outputs, shifted GEMM on narrow ones.
    fn forward_scratch(
        spec: &ConvSpec,
        input: &[f32],
        weights: &[f32],
        output: &mut [f32],
        scratch: &mut ConvScratch,
    ) {
        let stencil =
            lower_phase(spec, Technique::StencilFp, Phase::Forward, 1, KernelChoice::Generic)
                .expect("stencil plans verify on every valid spec");
        stencil.forward(input, &stencil.prepared(weights), output, scratch);
    }

    fn check(spec: ConvSpec) {
        let input = pseudo(spec.input_shape().len(), 1);
        let weights = pseudo(spec.weight_shape().len(), 2);
        let olen = spec.output_shape().len();
        let mut stencil = vec![0f32; olen];
        let mut oracle = vec![0f32; olen];
        forward_scratch(&spec, &input, &weights, &mut stencil, &mut ConvScratch::new());
        reference::forward(&spec, &input, &weights, &mut oracle);
        // Accumulation order differs from the reference; tolerance scales
        // with the reduction length (Nc * Fy * Fx).
        let diff = stencil.iter().zip(&oracle).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(diff < 5e-4, "{spec}: diff {diff}");
    }

    #[test]
    fn unit_stride_matches_reference() {
        check(ConvSpec::new(1, 4, 4, 1, 2, 2, 1, 1).unwrap());
        check(ConvSpec::new(3, 8, 8, 4, 3, 3, 1, 1).unwrap());
        check(ConvSpec::new(2, 9, 7, 5, 2, 4, 1, 1).unwrap());
        // MNIST layer 0 shape (Table 2).
        check(ConvSpec::square(28, 20, 1, 5, 1));
    }

    #[test]
    fn strided_matches_reference() {
        check(ConvSpec::new(1, 8, 8, 2, 2, 2, 2, 2).unwrap());
        check(ConvSpec::new(2, 11, 13, 3, 3, 3, 1, 2).unwrap());
        check(ConvSpec::new(3, 12, 12, 2, 2, 2, 3, 3).unwrap());
        // AlexNet layer 0 geometry, shrunk input (stride 4, 11x11 kernel).
        check(ConvSpec::new(3, 30, 30, 4, 11, 11, 4, 4).unwrap());
    }

    #[test]
    fn vertical_stride_only() {
        // sy > 1 with sx == 1 stays on the fast path.
        check(ConvSpec::new(2, 10, 6, 3, 3, 3, 2, 1).unwrap());
    }

    #[test]
    fn narrow_output_uses_shifted_gemm() {
        // CIFAR-10 L1 (Table 2): 4x4 outputs, 64 features.
        check(ConvSpec::square(8, 64, 64, 5, 1));
        check(ConvSpec::new(3, 6, 6, 7, 3, 3, 1, 1).unwrap());
        // Narrow and strided.
        check(ConvSpec::new(2, 9, 9, 5, 3, 3, 2, 2).unwrap());
    }

    #[test]
    fn tile_edges_are_exact() {
        // Output widths straddling the 8-lane boundary and heights not
        // divisible by the 6-row tile.
        for w in [8usize, 9, 15, 16, 17] {
            for h in [3usize, 6, 7, 13] {
                check(ConvSpec::new(1, h + 2, w + 2, 2, 3, 3, 1, 1).unwrap());
            }
        }
    }

    #[test]
    fn zero_weights_short_circuit_is_invisible() {
        let spec = ConvSpec::new(1, 5, 12, 2, 3, 3, 1, 1).unwrap();
        let input = pseudo(60, 3);
        let mut weights = pseudo(18, 4);
        weights[4] = 0.0;
        weights[9] = 0.0;
        let mut stencil = vec![0f32; spec.output_shape().len()];
        let mut oracle = vec![0f32; spec.output_shape().len()];
        forward_scratch(&spec, &input, &weights, &mut stencil, &mut ConvScratch::new());
        reference::forward(&spec, &input, &weights, &mut oracle);
        let diff = stencil.iter().zip(&oracle).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(diff < 5e-4, "diff {diff}");
    }

    /// The scalar fallback — what hosts without AVX2+FMA and Miri run —
    /// is invariant under banding, region by region, and agrees with the
    /// reference.
    #[test]
    fn scalar_fallback_over_band_regions_equals_the_sequential_pass() {
        let unit = ConvSpec::square(22, 5, 2, 3, 1); // 20x20 output
        let strided = ConvSpec::square(47, 3, 2, 7, 2); // 21x21 output, sx 2
        for spec in [unit, strided] {
            let input = pseudo(spec.input_shape().len(), 5);
            let weights = pseudo(spec.weight_shape().len(), 6);
            let lay = phase_layout(&spec);
            let mut phased = vec![0f32; lay.transformed_len()];
            lay.apply_into(&input, &mut phased);
            let (sx, pw) = (spec.sx(), lay.phase_width());
            let scalar = |technique, workers| {
                let lowered =
                    lower_phase(&spec, technique, Phase::Forward, workers, KernelChoice::Generic)
                        .expect("plan verifies");
                let proved = spg_check::verify_conv_plan(
                    &spec,
                    lowered.plan().clone(),
                    &spg_check::ScratchCapacity::reserved_for(&spec),
                )
                .expect("lowered plans verify");
                let tiled = proved.tiled().expect("stencil plans are tiled");
                let mut out = vec![f32::NAN; spec.output_shape().len()];
                for mut region in tiled.regions(&mut out, workers) {
                    // The Eq. 21 layout of the input (the identity at sx = 1).
                    let koff = |kx: usize| (kx % sx) * pw + kx / sx;
                    forward_scalar(&spec, &mut region, &phased, sx * pw, koff, &weights);
                }
                out
            };
            let sequential = scalar(Technique::StencilFp, 1);
            let mut oracle = vec![0f32; spec.output_shape().len()];
            reference::forward(&spec, &input, &weights, &mut oracle);
            let diff =
                sequential.iter().zip(&oracle).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
            assert!(diff < 5e-4, "{spec}: diff {diff}");
            for banded in [Technique::StencilYBand, Technique::StencilOutChannel] {
                assert_eq!(scalar(banded, 2), sequential, "{spec} {banded}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn validates_output_buffer() {
        let spec = ConvSpec::new(1, 4, 4, 1, 2, 2, 1, 1).unwrap();
        forward_scratch(&spec, &[0.0; 16], &[0.0; 4], &mut [0.0; 3], &mut ConvScratch::new());
    }
}
