//! Monomorphized stencil forward kernels (JIT-lite specialization).
//!
//! One `define_simd_forward!` expansion per instruction set generates the
//! register-tiled basic block and its driver with the kernel geometry —
//! `Fy`, `Fx`, `sy`, `sx` — as **const generic parameters**: the `(ky, kx)`
//! reduction loops have compile-time-constant trip counts, so LLVM fully
//! unrolls them and folds every weight index `ky*Fx + kx` and every
//! kernel-offset address to a constant. This is the Georganas et al.
//! per-(tile, stride, layout) specialization, realized through Rust
//! monomorphization instead of a run-time JIT.
//!
//! The loop structure — and therefore the per-output-element reduction
//! order `(c, ky, kx)` with single-rounded FMA throughout — is copied from
//! the generic `spg-core` stencil kernel, so every specialized instance is
//! **bit-identical** to the generic AVX path on any geometry both execute
//! (the golden Table 2 suite asserts this). Lane width does not change the
//! per-element chain: each output column is one SIMD lane, and a 16-lane
//! FMA rounds each lane exactly like an 8-lane FMA.

use spg_check::VerifiedTiled;
use spg_convnet::workspace::ConvScratch;
use spg_convnet::ConvSpec;
use spg_tensor::transform::StridedLayout;

/// Signature of a monomorphized forward instance: the proved tiled plan
/// (spec, x-tiles, cache row block and the regions of its loop nest), the
/// operands, and the scratch the phase transform stages in.
///
/// # Safety
///
/// Callers of a `ForwardFn` must guarantee the module's target features
/// are available on the running CPU and that the plan's lane width, tile
/// rows and spec geometry match the instance — exactly the checks
/// [`crate::SpecializedKernel::forward`] performs before dispatching.
pub(crate) type ForwardFn =
    unsafe fn(VerifiedTiled<'_>, &[f32], &[f32], &mut [f32], &mut ConvScratch);

/// Builds the Eq. 21 phase layout for a compile-time `x` stride.
fn phase_layout(spec: &ConvSpec, sx: usize) -> StridedLayout {
    match StridedLayout::new(spec.input_shape(), sx) {
        Ok(lay) => lay,
        // Registry keys carry strictly positive strides.
        Err(_) => unreachable!("positive stride by registry key construction"),
    }
}

macro_rules! define_simd_forward {
    (
        module: $mod_:ident,
        feature: $feat:literal,
        lanes: $lanes:literal,
        vec: $vec:ty,
        setzero: $setzero:ident,
        loadu: $loadu:ident,
        set1: $set1:ident,
        fmadd: $fmadd:ident,
        storeu: $storeu:ident
    ) => {
        pub(crate) mod $mod_ {
            use std::arch::x86_64::*;

            use spg_check::{TileRegion, VerifiedTiled};
            use spg_convnet::workspace::zeroed_slice;

            use super::{phase_layout, ConvScratch};
            use crate::TILE_ROWS;

            /// f32 lanes per vector for this instruction set.
            pub(crate) const LANES: usize = $lanes;

            /// Register-tiled basic block over a `rows x (RX*LANES)` output
            /// tile with compile-time kernel geometry: the complete
            /// `(c, ky, kx)` reduction runs before a single store, `FY`/`FX`
            /// trip counts unroll at compile time, and `koff[kx]` holds the
            /// per-tap input column offset (unit-stride: `x + kx`; phased:
            /// `(kx % sx)*pw + kx/sx + x`), loop-invariant across the whole
            /// block. The reduction order per output element matches the
            /// generic kernel exactly — channels, then `ky` (via `iy`),
            /// then `kx`, all single-rounded FMA — which is what makes the
            /// instance bit-identical to the generic path.
            ///
            /// # Safety
            ///
            /// Caller guarantees the target features of this module; that
            /// for every `c < nc` and `iy < (rows-1)*SY + FY`,
            /// `in_tile + c*c_stride + iy*row_stride + koff[kx] + RX*LANES`
            /// stays within the input buffer (the x-tile, row-range and
            /// phase-group judgments behind the caller's `VerifiedTiled`);
            /// that `w_f` points to `nc * FY * FX` readable floats; and
            /// that `out` has `rows` rows of `RX*LANES` writable elements
            /// at stride `out_stride`.
            #[target_feature(enable = $feat)]
            #[inline]
            #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
            unsafe fn tile_block<
                const RX: usize,
                const FY: usize,
                const FX: usize,
                const SY: usize,
            >(
                rows: usize,
                nc: usize,
                in_tile: *const f32,
                c_stride: usize,
                row_stride: usize,
                koff: &[usize; FX],
                w_f: *const f32,
                out: *mut f32,
                out_stride: usize,
            ) {
                debug_assert!((1..=TILE_ROWS).contains(&rows) && SY >= 1);
                debug_assert!(RX == 1 || RX == 2);
                let mut acc = [[$setzero(); RX]; TILE_ROWS];
                for c in 0..nc {
                    // SAFETY: c < nc; the caller contract bounds
                    // in_tile + c*c_stride and w_f + c*FY*FX.
                    let (in_c, w_fc) = unsafe { (in_tile.add(c * c_stride), w_f.add(c * FY * FX)) };
                    for iy in 0..(rows - 1) * SY + FY {
                        // Output rows served by input row iy: ty with
                        // 0 <= iy - ty*SY < FY.
                        let ty_lo = (iy + 1).saturating_sub(FY).div_ceil(SY);
                        let ty_hi = (iy / SY).min(rows - 1);
                        if ty_lo > ty_hi {
                            continue;
                        }
                        // SAFETY: iy stays below the caller-proved row bound.
                        let base = unsafe { in_c.add(iy * row_stride) };
                        for kx in 0..FX {
                            let mut ivec = [$setzero(); RX];
                            for (rx, v) in ivec.iter_mut().enumerate() {
                                // SAFETY: the caller contract (the x-tile the
                                // driver took from its `VerifiedTiled`) keeps
                                // koff[kx] + RX*LANES inside the input buffer.
                                *v = unsafe { $loadu(base.add(koff[kx] + rx * LANES)) };
                            }
                            for ty in ty_lo..=ty_hi {
                                let ky = iy - ty * SY;
                                // SAFETY: ky < FY and kx < FX by loop bounds;
                                // w_fc points to FY*FX readable floats (the
                                // verifier's weight-broadcast range proof).
                                let w = unsafe { $set1(*w_fc.add(ky * FX + kx)) };
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
            /// its feature planes, cache row blocks of its rows, register
            /// tiles, then each of the plan's own x-tiles — the loop nest
            /// of the generic kernel.
            ///
            /// # Safety
            ///
            /// Caller guarantees the target features of this module, that
            /// `plan.lanes() == LANES`, that `region` is one of
            /// `plan.regions(output, _)` for an output of `plan.spec()`, and
            /// that `input`/`c_stride`/`row_stride`/`koff` describe the
            /// input (or its phase-transformed staging) of `plan.spec()` —
            /// so every access the tile blocks perform lies in the ranges
            /// spg-check proved to produce `plan`, and every store in the
            /// part of the output it proved this region's alone. `weights`
            /// must match `plan.spec()`.
            #[target_feature(enable = $feat)]
            #[allow(clippy::too_many_arguments)]
            unsafe fn forward_tiled<const FY: usize, const FX: usize, const SY: usize>(
                plan: VerifiedTiled<'_>,
                region: &mut TileRegion<'_>,
                input: &[f32],
                c_stride: usize,
                row_stride: usize,
                koff: [usize; FX],
                weights: &[f32],
            ) {
                let out_w = plan.spec().out_w();
                let nc = plan.spec().in_c();
                let in_ptr = input.as_ptr();
                let (f_lo, f_hi) = region.features();
                let (y_lo, y_hi) = region.rows();
                for f in f_lo..f_hi {
                    let out_rows = region.plane_rows(f).as_mut_ptr();
                    // SAFETY: f < nf keeps the weight block offset inside
                    // the validated weight buffer.
                    let w_f = unsafe { weights.as_ptr().add(f * nc * FY * FX) };
                    let mut y0 = y_lo;
                    while y0 < y_hi {
                        let y1 = (y0 + plan.cache_rows()).min(y_hi);
                        let mut y = y0;
                        while y < y1 {
                            let rows = TILE_ROWS.min(y1 - y);
                            for tile in plan.x_tiles() {
                                let x = tile.x;
                                // SAFETY: row y*SY is the first input row the
                                // tile reads and x its first column; the
                                // proved row range covers y*SY + iy for every
                                // in-tile iy, the proved x-tile segment covers
                                // x + koff[kx] + RX*LANES.
                                let in_tile = unsafe { in_ptr.add(y * SY * row_stride + x) };
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
                                        tile_block::<2, FY, FX, SY>(
                                            rows, nc, in_tile, c_stride, row_stride, &koff, w_f,
                                            dst, out_w,
                                        );
                                    } else {
                                        tile_block::<1, FY, FX, SY>(
                                            rows, nc, in_tile, c_stride, row_stride, &koff, w_f,
                                            dst, out_w,
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

            /// The registry entry point for one `(Fy, Fx, sy, sx)` key:
            /// validates buffer lengths and the plan's shape against the
            /// instance, applies the Eq. 21 phase transform when `SX > 1`
            /// (a compile-time branch) once for the whole sample, and runs
            /// the monomorphized tiled driver over each region of the
            /// proved plan, banded regions in parallel.
            ///
            /// # Safety
            ///
            /// Caller guarantees the CPU supports this module's target
            /// features (the registry wrapper checks).
            pub(crate) unsafe fn forward_entry<
                const FY: usize,
                const FX: usize,
                const SY: usize,
                const SX: usize,
            >(
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
                    (spec.ky(), spec.kx(), spec.sy(), spec.sx()) == (FY, FX, SY, SX),
                    "spec geometry does not match the monomorphized instance"
                );
                assert!(
                    plan.lanes() == LANES && plan.tile_rows() == TILE_ROWS,
                    "plan was lowered for a different register tile"
                );
                // The CHW input (row stride in_w, tap kx at column kx) or,
                // for strided keys, its Eq. 21 staging: (c, h) row groups of
                // SX phases x pw columns, tap kx in phase kx % SX at column
                // kx / SX. `SX` is a compile-time branch.
                let cores = scratch.cores;
                let (staged, row_stride, koff): (&[f32], usize, [usize; FX]) = if SX == 1 {
                    (input, spec.in_w(), std::array::from_fn(|kx| kx))
                } else {
                    let lay = phase_layout(spec, SX);
                    let phased = zeroed_slice(&mut scratch.hwc_in, lay.transformed_len());
                    lay.apply_into(input, phased);
                    let pw = lay.phase_width();
                    (phased, SX * pw, std::array::from_fn(|kx| (kx % SX) * pw + kx / SX))
                };
                let c_stride = spec.in_h() * row_stride;
                // One task per region the plan has at the call's core
                // budget: the whole layer on the calling thread for a
                // sequential plan or a single core, else runs of proved
                // bands, all reading the one staging above.
                spg_gemm::fork_join(plan.regions(output, cores).map(|mut region| {
                    // SAFETY: target features guaranteed by the caller;
                    // `staged` is the length-checked input of plan.spec() or
                    // the freshly staged buffer of lay.transformed_len()
                    // elements, in rows of `row_stride` and channel planes of
                    // in_h rows; the lane and geometry asserts above tie this
                    // instance to the plan spg-check proved, whose x-tile and
                    // phase-group containment judgments bound every koff
                    // access; `region` comes from that plan's own split of
                    // the length-checked `output`.
                    move || unsafe {
                        forward_tiled::<FY, FX, SY>(
                            plan,
                            &mut region,
                            staged,
                            c_stride,
                            row_stride,
                            koff,
                            weights,
                        );
                    }
                }));
            }
        }
    };
}

define_simd_forward! {
    module: avx2,
    feature: "avx2,fma",
    lanes: 8,
    vec: __m256,
    setzero: _mm256_setzero_ps,
    loadu: _mm256_loadu_ps,
    set1: _mm256_set1_ps,
    fmadd: _mm256_fmadd_ps,
    storeu: _mm256_storeu_ps
}

define_simd_forward! {
    module: avx512,
    feature: "avx512f,fma",
    lanes: 16,
    vec: __m512,
    setzero: _mm512_setzero_ps,
    loadu: _mm512_loadu_ps,
    set1: _mm512_set1_ps,
    fmadd: _mm512_fmadd_ps,
    storeu: _mm512_storeu_ps
}
