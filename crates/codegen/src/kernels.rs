//! The stencil forward loop nest, written once and instantiated per
//! [`Geometry`], instruction set and register tile.
//!
//! One source text holds the register-tiled basic block and its per-region
//! driver (`define_simd_forward!`, expanded per instruction set), and one
//! function is the entry ([`forward`]) that forks one driver task per
//! proved region. The lanes of a vector are **output features**: a tile is
//! `NX` consecutive output positions of one row times `NFV` vectors of
//! features, and every kernel tap `(c, ky, kx)` loads `NFV` weight vectors
//! from the feature-blocked layout ([`Ckkf`]), broadcasts `NX` input
//! values and issues `NX * NFV` fused multiply-adds (Georganas et al.'s
//! direct convolution). The stride is only a broadcast offset — position
//! `i` of a tile reads input column `i*sx + kx` — so every stride reads
//! the CHW input in place. The kernel geometry — `Fy`, `Fx`, `sy`, `sx` —
//! reaches the loops through the [`Geometry`] a driver is instantiated at:
//!
//! * [`Fixed`] carries it as **const generic parameters**: the `(ky, kx)`
//!   reduction loops have compile-time-constant trip counts and every
//!   broadcast offset `i*sx + kx` folds to a constant. This is the
//!   Georganas et al. per-(tile, stride, layout) specialization, realized
//!   through Rust monomorphization instead of a run-time JIT — the
//!   registry's instances.
//! * [`Dynamic`] reads it from the plan's spec at run time — the "generic"
//!   kernel every unlisted shape runs, built for AVX2+FMA only.
//!
//! Both are the same loops, so the per-output-element reduction order —
//! `(c, ky, kx)` with single-rounded FMA into an accumulator that starts at
//! `+0.0` — is the same, and a fixed instance is **bit-identical** to the
//! dynamic one on any geometry both execute by construction. Neither lane
//! width nor register tile changes the per-element chain: an output element
//! is one lane of one accumulator for its whole reduction, and a 16-lane
//! FMA rounds each lane exactly like an 8-lane FMA or a scalar one. Hosts
//! without AVX2+FMA (and Miri) run the entry over the scalar driver
//! ([`forward_scalar`]), the same chain through `f32::mul_add`.

use spg_check::{RegisterTile, TileRegion, VerifiedTiled};
use spg_convnet::workspace::ConvScratch;
use spg_convnet::ConvSpec;
use spg_tensor::layout::Ckkf;

/// The register tiles the 8-lane (AVX2) instances are compiled for, and
/// the run-time-geometry instance runs: `(positions, feature vectors)`
/// inside 16 YMM registers, the positions dividing the 8-position groups
/// the stores transpose.
pub(crate) const TILES_8: &[RegisterTile] = &[
    RegisterTile { nx: 8, nfv: 1 },
    RegisterTile { nx: 4, nfv: 2 },
    RegisterTile { nx: 4, nfv: 3 },
    RegisterTile { nx: 2, nfv: 5 },
];

/// The register tiles the 16-lane (AVX-512) instances are compiled for:
/// inside 32 ZMM registers, the positions dividing the 16-position groups.
pub(crate) const TILES_16: &[RegisterTile] = &[
    RegisterTile { nx: 16, nfv: 1 },
    RegisterTile { nx: 8, nfv: 1 },
    RegisterTile { nx: 8, nfv: 2 },
    RegisterTile { nx: 8, nfv: 3 },
    RegisterTile { nx: 4, nfv: 4 },
    RegisterTile { nx: 4, nfv: 5 },
    RegisterTile { nx: 4, nfv: 6 },
];

/// The register tiles the loop nest is compiled for at `lanes` lanes —
/// what the register-tile search chooses among. Empty for a lane width no
/// instance has.
pub fn register_tiles(lanes: usize) -> &'static [RegisterTile] {
    match lanes {
        8 => TILES_8,
        16 => TILES_16,
        _ => &[],
    }
}

/// The kernel geometry one instance of the loop nest runs: compile-time
/// constants ([`Fixed`]) or the spec's own values ([`Dynamic`]).
pub(crate) trait Geometry {
    /// `spec`'s kernel geometry.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is not the geometry a fixed instance was built for.
    fn bind(spec: &ConvSpec) -> Self;
    /// Kernel rows, kernel columns and the strides: `(fy, fx, sy, sx)`.
    fn dims(&self) -> (usize, usize, usize, usize);
}

/// Compile-time geometry: one registry key.
pub(crate) struct Fixed<const FY: usize, const FX: usize, const SY: usize, const SX: usize>;

impl<const FY: usize, const FX: usize, const SY: usize, const SX: usize> Geometry
    for Fixed<FY, FX, SY, SX>
{
    fn bind(spec: &ConvSpec) -> Self {
        assert!(
            (spec.ky(), spec.kx(), spec.sy(), spec.sx()) == (FY, FX, SY, SX),
            "spec geometry does not match the monomorphized instance"
        );
        Fixed
    }
    #[inline(always)]
    fn dims(&self) -> (usize, usize, usize, usize) {
        (FY, FX, SY, SX)
    }
}

/// Run-time geometry, read from the plan's spec: any kernel size and stride.
pub(crate) struct Dynamic {
    dims: (usize, usize, usize, usize),
}

impl Geometry for Dynamic {
    fn bind(spec: &ConvSpec) -> Self {
        Dynamic { dims: (spec.ky(), spec.kx(), spec.sy(), spec.sx()) }
    }
    #[inline(always)]
    fn dims(&self) -> (usize, usize, usize, usize) {
        self.dims
    }
}

/// A region driver — one instruction set's `forward_tiled::<G>`, or the
/// portable [`forward_scalar`] — bound to its [`Geometry`]: the plan, one
/// of its regions, the CHW input and the feature-blocked weights.
///
/// # Safety
///
/// The contract of `forward_tiled` in the `define_simd_forward!` module the
/// pointer was taken from; none for [`forward_scalar`].
pub(crate) type RegionFn = unsafe fn(VerifiedTiled<'_>, &mut TileRegion<'_>, &[f32], &Ckkf);

/// The one tiled-stencil entry: validates buffer lengths, the weight
/// layout's padding and the plan's register tile, records the flop traffic
/// (full dense convolution: goodput 1, Sec. 3.3), and runs one `run` task
/// per region the plan has at the scratch's core budget — the whole layer
/// on the calling thread for a sequential plan or a single core, else runs
/// of proved bands.
///
/// # Safety
///
/// `run` must be [`forward_scalar`], or a `forward_tiled` of a
/// `define_simd_forward!` module whose target features the running CPU
/// has; `lanes` and `tiles` that module's `LANES` and compiled tiles (any
/// plan's for the scalar loops).
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn forward(
    run: RegionFn,
    lanes: usize,
    tiles: &[RegisterTile],
    plan: VerifiedTiled<'_>,
    input: &[f32],
    weights: &Ckkf,
    output: &mut [f32],
    scratch: &ConvScratch,
) {
    let spec = plan.spec();
    assert_eq!(input.len(), spec.input_shape().len(), "input length");
    assert!(
        plan.lanes() == lanes && tiles.contains(&plan.tile()),
        "plan was lowered for a different register tile"
    );
    let taps = spec.in_c() * spec.ky() * spec.kx();
    assert!(
        weights.padded_features() == plan.padded_features()
            && weights.as_slice().len() == taps * plan.padded_features(),
        "weights were not prepared in this plan's feature-blocked layout"
    );
    let ops = spec.arithmetic_ops();
    spg_telemetry::record_flops(ops, ops);
    spg_gemm::fork_join(plan.regions(output, scratch.cores).map(|mut region| {
        // SAFETY: target features guaranteed by the caller; `input` is the
        // length-checked input of plan.spec() and `weights` its
        // feature-blocked layout at the plan's padding, length-checked
        // above; the lane and tile asserts and the driver's own
        // `Geometry::bind` tie this instance to the plan spg-check proved,
        // whose x-block, weight-lane and store judgments bound every
        // access; `region` comes from that plan's own split of the
        // length-checked `output`.
        move || unsafe { run(plan, &mut region, input, weights) }
    }));
}

/// Portable region driver — the only one on hosts without AVX2+FMA and
/// under Miri — over one region's features and rows: each output element
/// is the `(c, ky, kx)` chain of single-rounded fused multiply-adds from
/// `+0.0`, the SIMD tiles' own chain, so it is their bits on every input,
/// infinities and NaNs included.
pub(crate) fn forward_scalar<G: Geometry>(
    plan: VerifiedTiled<'_>,
    region: &mut TileRegion<'_>,
    input: &[f32],
    weights: &Ckkf,
) {
    let spec = plan.spec();
    let (fy, fx, sy, sx) = G::bind(spec).dims();
    let (in_h, in_w, out_w) = (spec.in_h(), spec.in_w(), spec.out_w());
    let (w, padded) = (weights.as_slice(), weights.padded_features());
    let (f_lo, f_hi) = region.features();
    let (y_lo, y_hi) = region.rows();
    for f in f_lo..f_hi {
        let out_rows = region.plane_rows(f);
        out_rows.fill(0.0);
        for c in 0..spec.in_c() {
            for ky in 0..fy {
                for kx in 0..fx {
                    let wf = w[((c * fy + ky) * fx + kx) * padded + f];
                    for (y, out_row) in (y_lo..y_hi).zip(out_rows.chunks_exact_mut(out_w)) {
                        let in_row = &input[(c * in_h + y * sy + ky) * in_w + kx..];
                        for (o, &i) in out_row.iter_mut().zip(in_row.iter().step_by(sx)) {
                            *o = i.mul_add(wf, *o);
                        }
                    }
                }
            }
        }
    }
}

/// Transposes an 8x8 block held as eight AVX vectors: `rows[p]` lane `l`
/// moves to `rows[l]` lane `p`.
///
/// # Safety
///
/// The CPU must have AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
unsafe fn transpose_8x8(rows: &mut [std::arch::x86_64::__m256; 8]) {
    use std::arch::x86_64::*;
    let r = *rows;
    let t = [
        _mm256_unpacklo_ps(r[0], r[1]),
        _mm256_unpackhi_ps(r[0], r[1]),
        _mm256_unpacklo_ps(r[2], r[3]),
        _mm256_unpackhi_ps(r[2], r[3]),
        _mm256_unpacklo_ps(r[4], r[5]),
        _mm256_unpackhi_ps(r[4], r[5]),
        _mm256_unpacklo_ps(r[6], r[7]),
        _mm256_unpackhi_ps(r[6], r[7]),
    ];
    // u[4k + j]: column 4q + j of rows 4k..4k+3 in each 128-bit half q.
    let u = [
        _mm256_shuffle_ps::<0x44>(t[0], t[2]),
        _mm256_shuffle_ps::<0xEE>(t[0], t[2]),
        _mm256_shuffle_ps::<0x44>(t[1], t[3]),
        _mm256_shuffle_ps::<0xEE>(t[1], t[3]),
        _mm256_shuffle_ps::<0x44>(t[4], t[6]),
        _mm256_shuffle_ps::<0xEE>(t[4], t[6]),
        _mm256_shuffle_ps::<0x44>(t[5], t[7]),
        _mm256_shuffle_ps::<0xEE>(t[5], t[7]),
    ];
    for j in 0..4 {
        rows[j] = _mm256_permute2f128_ps::<0x20>(u[j], u[4 + j]);
        rows[4 + j] = _mm256_permute2f128_ps::<0x31>(u[j], u[4 + j]);
    }
}

/// Transposes a 16x16 block held as sixteen AVX-512 vectors: `rows[p]`
/// lane `l` moves to `rows[l]` lane `p`.
///
/// # Safety
///
/// The CPU must have AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn transpose_16x16(rows: &mut [std::arch::x86_64::__m512; 16]) {
    use std::arch::x86_64::*;
    let r = *rows;
    let mut t = [_mm512_setzero_ps(); 16];
    for k in 0..8 {
        t[2 * k] = _mm512_unpacklo_ps(r[2 * k], r[2 * k + 1]);
        t[2 * k + 1] = _mm512_unpackhi_ps(r[2 * k], r[2 * k + 1]);
    }
    // u[4k + j]: column 4q + j of rows 4k..4k+3 in each 128-bit lane q.
    let mut u = [_mm512_setzero_ps(); 16];
    for k in 0..4 {
        u[4 * k] = _mm512_shuffle_ps::<0x44>(t[4 * k], t[4 * k + 2]);
        u[4 * k + 1] = _mm512_shuffle_ps::<0xEE>(t[4 * k], t[4 * k + 2]);
        u[4 * k + 2] = _mm512_shuffle_ps::<0x44>(t[4 * k + 1], t[4 * k + 3]);
        u[4 * k + 3] = _mm512_shuffle_ps::<0xEE>(t[4 * k + 1], t[4 * k + 3]);
    }
    for j in 0..4 {
        // Lanes q0, q2 / q1, q3 of row groups 0-1 and 2-3 ...
        let v0 = _mm512_shuffle_f32x4::<0x88>(u[j], u[4 + j]);
        let v1 = _mm512_shuffle_f32x4::<0xDD>(u[j], u[4 + j]);
        let v2 = _mm512_shuffle_f32x4::<0x88>(u[8 + j], u[12 + j]);
        let v3 = _mm512_shuffle_f32x4::<0xDD>(u[8 + j], u[12 + j]);
        // ... then one 128-bit lane q of all four row groups: column 4q + j.
        rows[j] = _mm512_shuffle_f32x4::<0x88>(v0, v2);
        rows[8 + j] = _mm512_shuffle_f32x4::<0xDD>(v0, v2);
        rows[4 + j] = _mm512_shuffle_f32x4::<0x88>(v1, v3);
        rows[12 + j] = _mm512_shuffle_f32x4::<0xDD>(v1, v3);
    }
}

#[cfg(target_arch = "x86_64")]
macro_rules! define_simd_forward {
    (
        module: $mod_:ident,
        feature: $feat:literal,
        lanes: $lanes:literal,
        tiles: [$( ($nx:literal, $nfv:literal) ),* $(,)?],
        transpose: $transpose:ident,
        setzero: $setzero:ident,
        loadu: $loadu:ident,
        set1: $set1:ident,
        fmadd: $fmadd:ident,
        storeu: $storeu:ident
    ) => {
        pub(crate) mod $mod_ {
            use std::arch::x86_64::*;

            use spg_check::{TileRegion, VerifiedTiled};
            use spg_tensor::layout::Ckkf;

            use super::Geometry;

            /// f32 lanes per vector for this instruction set.
            pub(crate) const LANES: usize = $lanes;

            /// Stored accumulators of a group of `LANES` output positions:
            /// `NFV` vectors of features at each position.
            type Group<const NFV: usize> = [[[f32; LANES]; NFV]; LANES];

            /// Register-tiled basic block over `NX` output positions x
            /// `NFV` vectors of output features (the Fig. 7 structure with
            /// features as lanes): for every channel and kernel tap, load
            /// the tap's `NFV` weight vectors once and fan each broadcast
            /// input value out over them. Accumulators start at `+0.0` and
            /// take the complete `(c, ky, kx)` reduction before they are
            /// spilled to `out`, so neighbouring x-blocks may overlap — an
            /// overlapping position is recomputed bit for bit — which lets
            /// a ragged row end in one overlapping block instead of a
            /// scalar tail. At [`Fixed`](super::Fixed) geometry the
            /// `fy`/`fx` trip counts and the broadcast offsets are
            /// compile-time constants.
            ///
            /// # Safety
            ///
            /// Caller guarantees the target features of this module; that
            /// for every `c < nc`, `ky < fy`, `kx < fx` and `i < NX`,
            /// `input + c*plane + ky*in_w + i*sx + kx` is a readable input
            /// element (the x-block and row-range judgments behind the
            /// caller's `VerifiedTiled`); and that `w` points to
            /// `nc*fy*fx` taps of `padded` floats whose first
            /// `NFV*LANES` are readable (the weight-lane judgment).
            #[target_feature(enable = $feat)]
            #[inline]
            #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
            unsafe fn tile_block<const NX: usize, const NFV: usize, G: Geometry>(
                g: &G,
                nc: usize,
                input: *const f32,
                plane: usize,
                in_w: usize,
                w: *const f32,
                padded: usize,
                out: &mut [[[f32; LANES]; NFV]],
            ) {
                let (fy, fx, _, sx) = g.dims();
                let mut acc = [[$setzero(); NFV]; NX];
                let mut w_tap = w;
                for c in 0..nc {
                    for ky in 0..fy {
                        // SAFETY: c < nc and ky < fy: inside the caller's
                        // proved row range.
                        let row = unsafe { input.add(c * plane + ky * in_w) };
                        for kx in 0..fx {
                            let mut wv = [$setzero(); NFV];
                            for (v, lane) in wv.iter_mut().enumerate() {
                                // SAFETY: tap (c, ky, kx) of the caller's
                                // weight contract, v < NFV vectors in.
                                *lane = unsafe { $loadu(w_tap.add(v * LANES)) };
                            }
                            for i in 0..NX {
                                // SAFETY: position i < NX at tap (ky, kx):
                                // the caller's x-block contract.
                                let x = unsafe { $set1(*row.add(i * sx + kx)) };
                                for v in 0..NFV {
                                    acc[i][v] = $fmadd(x, wv[v], acc[i][v]);
                                }
                            }
                            // SAFETY: the next tap's block (or one past the
                            // last, never read).
                            w_tap = unsafe { w_tap.add(padded) };
                        }
                    }
                }
                for (spill, vectors) in out.iter_mut().zip(&acc) {
                    for (lanes, a) in spill.iter_mut().zip(vectors) {
                        // SAFETY: `lanes` is LANES writable floats.
                        unsafe { $storeu(lanes.as_mut_ptr(), *a) };
                    }
                }
            }

            /// Drives [`tile_block`] over one proved region of the plan:
            /// each of its rows, each feature block of `NFV*LANES` of its
            /// features, each group of `LANES` output positions of the row
            /// (the last one overlapping its predecessor so it ends at the
            /// row end; one narrower group on rows under `LANES` wide),
            /// tiled by x-blocks of `NX`. A group's accumulators are
            /// transposed in registers, `LANES` positions by `LANES`
            /// features a vector, and each feature's positions stored into
            /// its own output plane; padding lanes and features past the
            /// region are dropped.
            ///
            /// # Safety
            ///
            /// As [`forward_tiled`], with `plan.tile()` equal to
            /// `(NX, NFV)`.
            #[target_feature(enable = $feat)]
            unsafe fn sweep<const NX: usize, const NFV: usize, G: Geometry>(
                plan: VerifiedTiled<'_>,
                region: &mut TileRegion<'_>,
                input: &[f32],
                weights: &Ckkf,
            ) {
                let spec = plan.spec();
                let g = &G::bind(spec);
                let (_, _, sy, sx) = g.dims();
                let (nc, in_w, out_w) = (spec.in_c(), spec.in_w(), spec.out_w());
                let plane = spec.in_h() * in_w;
                let padded = weights.padded_features();
                let (f_lo, f_hi) = region.features();
                let (y_lo, y_hi) = region.rows();
                let width = LANES.min(out_w);
                let mut group: Group<NFV> = [[[0.0; LANES]; NFV]; LANES];
                for y in y_lo..y_hi {
                    let at = (y - y_lo) * out_w;
                    for fb in (f_lo..f_hi).step_by(NFV * LANES) {
                        // SAFETY: fb is a feature-block start below the
                        // padded feature count (regions start on blocks).
                        let w = unsafe { weights.as_slice().as_ptr().add(fb) };
                        let mut next = 0;
                        loop {
                            let x0 = next.min(out_w - width);
                            let mut p = 0;
                            loop {
                                let p0 = p.min(width - NX);
                                let x = x0 + p0;
                                // SAFETY: row y*sy, column x*sx: the first
                                // input element of the x-block at x, inside
                                // the proved row and column ranges.
                                let origin = unsafe { input.as_ptr().add(y * sy * in_w + x * sx) };
                                // SAFETY: target features guaranteed by the
                                // caller; x + NX <= out_w and fb come from
                                // this proved plan's x-blocks and feature
                                // blocks.
                                unsafe {
                                    tile_block::<NX, NFV, G>(
                                        g,
                                        nc,
                                        origin,
                                        plane,
                                        in_w,
                                        w,
                                        padded,
                                        &mut group[p0..p0 + NX],
                                    );
                                }
                                if p0 + NX >= width {
                                    break;
                                }
                                p += NX;
                            }
                            for v in 0..NFV {
                                let first = fb + v * LANES;
                                if first >= f_hi {
                                    break;
                                }
                                let mut rows = [$setzero(); LANES];
                                for (row, position) in rows.iter_mut().zip(&group) {
                                    // SAFETY: LANES readable floats.
                                    *row = unsafe { $loadu(position[v].as_ptr()) };
                                }
                                // SAFETY: target features guaranteed by the
                                // caller.
                                unsafe { super::$transpose(&mut rows) };
                                for (f, row) in (first..f_hi.min(first + LANES)).zip(&rows) {
                                    let dst = &mut region.plane_rows(f)[at + x0..at + x0 + width];
                                    if width == LANES {
                                        // SAFETY: `dst` is LANES writable floats.
                                        unsafe { $storeu(dst.as_mut_ptr(), *row) };
                                    } else {
                                        let mut lanes = [0.0; LANES];
                                        // SAFETY: `lanes` is LANES writable floats.
                                        unsafe { $storeu(lanes.as_mut_ptr(), *row) };
                                        dst.copy_from_slice(&lanes[..width]);
                                    }
                                }
                            }
                            if x0 + width >= out_w {
                                break;
                            }
                            next += LANES;
                        }
                    }
                }
            }

            /// Runs one proved region of the plan through the tile the
            /// plan chose.
            ///
            /// # Safety
            ///
            /// Caller guarantees the target features of this module, that
            /// `plan.lanes() == LANES` and `plan.tile()` is one of this
            /// lane width's `register_tiles`, that `region` is one of
            /// `plan.regions(output, _)` for an output of `plan.spec()`,
            /// that `input` is the input of `plan.spec()`, and that
            /// `weights` is its feature-blocked layout at
            /// `plan.padded_features()` — so every access the tile blocks
            /// perform lies in the ranges spg-check proved to produce
            /// `plan`, and every store in the part of the output it proved
            /// this region's alone.
            #[target_feature(enable = $feat)]
            pub(crate) unsafe fn forward_tiled<G: Geometry>(
                plan: VerifiedTiled<'_>,
                region: &mut TileRegion<'_>,
                input: &[f32],
                weights: &Ckkf,
            ) {
                let tile = plan.tile();
                match (tile.nx, tile.nfv) {
                    $(
                        // SAFETY: the caller's contract, at this tile.
                        ($nx, $nfv) => unsafe {
                            sweep::<$nx, $nfv, G>(plan, region, input, weights)
                        },
                    )*
                    _ => unreachable!("the entry admits only this module's tiles"),
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
    tiles: [(8, 1), (4, 2), (4, 3), (2, 5)],
    transpose: transpose_8x8,
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
    tiles: [(16, 1), (8, 1), (8, 2), (8, 3), (4, 4), (4, 5), (4, 6)],
    transpose: transpose_16x16,
    setzero: _mm512_setzero_ps,
    loadu: _mm512_loadu_ps,
    set1: _mm512_set1_ps,
    fmadd: _mm512_fmadd_ps,
    storeu: _mm512_storeu_ps
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use spg_check::VECTOR_WIDTH;
    use spg_check::{BackwardPlan, BandDim, ConvPlan, ForwardPlan, VerifiedPlan};
    use spg_convnet::reference;

    pub(crate) fn pseudo(n: usize, salt: usize) -> Vec<f32> {
        (0..n).map(|i| (((i * 29 + salt * 13) % 19) as f32 - 9.0) / 5.0).collect()
    }

    /// `spec`'s tiled plan at `lanes` lanes with `tile` — split into `n`
    /// bands along `dim` for `Some((dim, n))`, feature bands on whole
    /// feature blocks — proved: the only way to run a kernel.
    pub(crate) fn proved(
        spec: &ConvSpec,
        lanes: usize,
        tile: RegisterTile,
        split: Option<(BandDim, usize)>,
    ) -> VerifiedPlan {
        let tiled = ForwardPlan::StencilTiled { lanes, tile };
        let forward = match split {
            None => tiled,
            Some((dim, n)) => {
                let block = lanes * tile.nfv;
                let bands = match dim {
                    BandDim::YRows => spg_check::gemm::row_bands(spec.out_h(), n),
                    BandDim::OutChannels => {
                        let blocks = spec.features().div_ceil(block);
                        let blocks = spg_check::gemm::row_bands(blocks, n);
                        blocks
                            .into_iter()
                            .map(|(lo, hi)| (lo * block, (hi * block).min(spec.features())))
                            .collect()
                    }
                };
                ForwardPlan::StencilBanded { dim, tiled: Box::new(tiled), bands }
            }
        };
        let plan = ConvPlan { forward, backward: BackwardPlan::UnfoldGemm { threads: 1 } };
        let cap = spg_check::ScratchCapacity::reserved_for(spec);
        match spg_check::verify_conv_plan(spec, plan, &cap) {
            Ok(v) => v,
            Err(e) => panic!("{lanes}-lane {tile:?} plan on {spec}: {e}"),
        }
    }

    /// `weights` in the feature-blocked layout `plan` reads.
    pub(crate) fn blocked(plan: &VerifiedPlan, weights: &[f32]) -> Ckkf {
        let tiled = plan.tiled().unwrap_or_else(|| unreachable!("lowered tiled"));
        let mut ckkf = Ckkf::default();
        ckkf.refresh(weights, plan.spec().weight_shape(), tiled.feature_block());
        ckkf
    }

    /// Every split the tests run on `spec` at `tile`: sequential, then 2
    /// and 3 bands along each dimension with two or more rows or feature
    /// blocks to split, each with the cores for all its bands.
    fn splits(spec: &ConvSpec, tile: RegisterTile) -> Vec<Option<(BandDim, usize)>> {
        let blocks = spec.features().div_ceil(VECTOR_WIDTH * tile.nfv);
        let mut splits = vec![None];
        for (dim, units) in [(BandDim::YRows, spec.out_h()), (BandDim::OutChannels, blocks)] {
            if units > 1 {
                splits.extend([2, 3].map(|n| Some((dim, n))));
            }
        }
        splits
    }

    /// Rows narrower than one vector, at every stride up to 4: output
    /// widths 3 to 6, AlexNet L0's 11x11 stride-4 kernel on a shrunk
    /// input, and — off Miri, where it is too slow — CIFAR-10 L1 itself
    /// (Table 2: 4x4 outputs, 64 channels, 64 features).
    fn narrow_specs() -> Vec<ConvSpec> {
        let mut specs = vec![
            ConvSpec::new(1, 4, 4, 1, 2, 2, 1, 1),
            ConvSpec::new(3, 8, 8, 4, 3, 3, 1, 1),
            ConvSpec::new(3, 6, 6, 7, 3, 3, 1, 1),
            ConvSpec::new(1, 8, 8, 2, 2, 2, 2, 2),
            ConvSpec::new(2, 11, 13, 3, 3, 3, 1, 2),
            ConvSpec::new(3, 12, 12, 2, 2, 2, 3, 3),
            ConvSpec::new(2, 9, 9, 5, 3, 3, 2, 2),
            ConvSpec::new(2, 10, 6, 3, 3, 3, 2, 1), // sy > 1 with sx == 1
            ConvSpec::new(3, 30, 30, 4, 11, 11, 4, 4),
        ];
        if !cfg!(miri) {
            specs.push(ConvSpec::new(64, 8, 8, 64, 5, 5, 1, 1));
        }
        specs.into_iter().map(|s| s.unwrap_or_else(|e| panic!("{e:?}"))).collect()
    }

    type Kernel = fn(VerifiedTiled<'_>, &[f32], &Ckkf, &mut [f32], &ConvScratch);

    /// One forward of `spec` at `tile` under `split` on `kernel`, every
    /// band on its own core.
    fn run(
        kernel: Kernel,
        spec: &ConvSpec,
        tile: RegisterTile,
        split: Option<(BandDim, usize)>,
        input: &[f32],
        weights: &[f32],
    ) -> Vec<f32> {
        let plan = proved(spec, VECTOR_WIDTH, tile, split);
        let tiled = plan.tiled().unwrap_or_else(|| unreachable!("lowered tiled"));
        let mut out = vec![f32::NAN; spec.output_shape().len()];
        let scratch = ConvScratch::with_cores(split.map_or(1, |(_, n)| n));
        kernel(tiled, input, &blocked(&plan, weights), &mut out, &scratch);
        out
    }

    /// The run-time-geometry instance as dispatch runs it on this host.
    fn dynamic(
        plan: VerifiedTiled<'_>,
        input: &[f32],
        weights: &Ckkf,
        output: &mut [f32],
        scratch: &ConvScratch,
    ) {
        crate::forward_tiled(None, plan, input, weights, output, scratch);
    }

    /// The scalar arm of the entry, as a host without AVX2+FMA runs it.
    fn scalar(
        plan: VerifiedTiled<'_>,
        input: &[f32],
        weights: &Ckkf,
        output: &mut [f32],
        scratch: &ConvScratch,
    ) {
        // SAFETY: the scalar loops are safe code; no target feature is required.
        unsafe {
            let tiles = [plan.tile()];
            let run = forward_scalar::<Dynamic>;
            forward(run, VECTOR_WIDTH, &tiles, plan, input, weights, output, scratch);
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

    /// Geometries in no registry key — a 4x4 kernel at stride 3 and Table
    /// 1 ID 1's 2x2 at stride 1 (channels shrunk) — and rows narrower than
    /// a vector ([`narrow_specs`]) run the run-time-geometry instance at
    /// every tile that fits the row: it agrees with the reference
    /// (tolerance: the reduction order differs) and with the scalar arm
    /// bit for bit, and with itself bit for bit however the layer is
    /// banded. 14x21 outputs: ragged x-blocks for every tile; 50 features:
    /// a ragged last vector, and two or more feature blocks.
    #[test]
    fn dynamic_instance_matches_reference_on_unlisted_geometries() {
        let strided = ConvSpec::new(2, 4 + 3 * 13, 4 + 3 * 20, 50, 4, 4, 3, 3);
        let unit = ConvSpec::new(3, 15, 22, 50, 2, 2, 1, 1);
        let unlisted = [strided, unit].map(|s| s.unwrap_or_else(|e| panic!("{e:?}")));
        for spec in &unlisted {
            assert!(crate::lookup(spec).is_none(), "{spec} must not be a registry key");
            assert_eq!((spec.out_h(), spec.out_w()), (14, 21));
        }
        for spec in unlisted.into_iter().chain(narrow_specs()) {
            let input = pseudo(spec.input_shape().len(), 1);
            let weights = pseudo(spec.weight_shape().len(), 2);
            let want = oracle(&spec, &input, &weights);
            for &tile in TILES_8.iter().filter(|t| t.nx <= spec.out_w()) {
                let sequential = run(dynamic, &spec, tile, None, &input, &weights);
                let diff = max_diff(&sequential, &want);
                assert!(diff < 5e-4, "{spec} {tile:?}: diff {diff}");
                let portable = run(scalar, &spec, tile, None, &input, &weights);
                assert_eq!(portable, sequential, "{spec} {tile:?}: scalar arm");
                for split in splits(&spec, tile) {
                    let banded = run(dynamic, &spec, tile, split, &input, &weights);
                    assert_eq!(banded, sequential, "{spec} {tile:?} {split:?}");
                }
            }
        }
    }

    /// Output widths at and around every tile width — rows of two to five
    /// positions, narrower than a vector, included — heights of one row
    /// and more, feature counts straddling the lane blocks: the reference's
    /// values within tolerance, the scalar arm's bits exactly.
    #[test]
    fn tile_edges_are_exact() {
        for w in [2usize, 3, 4, 5, 8, 9, 15, 16, 17] {
            for (h, nf) in [(1usize, 1usize), (3, 7), (7, 9), (13, 17)] {
                let spec = ConvSpec::new(1, h + 2, w + 2, nf, 3, 3, 1, 1);
                let spec = spec.unwrap_or_else(|e| panic!("{e:?}"));
                let input = pseudo(spec.input_shape().len(), 1);
                let weights = pseudo(spec.weight_shape().len(), 2);
                let want = oracle(&spec, &input, &weights);
                for &tile in TILES_8.iter().filter(|t| t.nx <= w) {
                    let out = run(dynamic, &spec, tile, None, &input, &weights);
                    let diff = max_diff(&out, &want);
                    assert!(diff < 5e-4, "{spec} {tile:?}: diff {diff}");
                    let portable = run(scalar, &spec, tile, None, &input, &weights);
                    assert_eq!(portable, out, "{spec} {tile:?}: scalar arm");
                }
            }
        }
    }

    /// A zero weight times an infinite input is NaN in IEEE arithmetic,
    /// and every driver says so: the scalar arm, the SIMD tile and the
    /// reference put NaN at exactly the same outputs (and agree on the
    /// finite ones), whatever the zero weights skip.
    #[test]
    fn infinite_inputs_make_the_same_nans_in_every_driver() {
        let spec = ConvSpec::square(12, 10, 2, 3, 1); // 10x10 output
        let mut input = pseudo(spec.input_shape().len(), 3);
        input[17] = f32::INFINITY;
        input[spec.input_shape().len() - 30] = f32::NEG_INFINITY;
        let mut weights = pseudo(spec.weight_shape().len(), 4);
        // Feature 0 and 3 see the infinities only through zero weights.
        for f in [0, 3] {
            let per = spec.weight_shape().per_feature();
            weights[f * per..(f + 1) * per].fill(0.0);
        }
        let want = oracle(&spec, &input, &weights);
        let nans = |out: &[f32]| out.iter().map(|v| v.is_nan()).collect::<Vec<_>>();
        assert!(nans(&want).iter().any(|&n| n), "the oracle must see 0 * inf");
        let tile = RegisterTile { nx: 4, nfv: 3 };
        for kernel in [scalar as Kernel, dynamic as Kernel] {
            let out = run(kernel, &spec, tile, None, &input, &weights);
            assert_eq!(nans(&out), nans(&want), "{spec}: NaN positions");
            let finite = |out: &[f32]| {
                out.iter().map(|v| if v.is_nan() { 0.0 } else { *v }).collect::<Vec<_>>()
            };
            assert!(max_diff(&finite(&out), &finite(&want)) < 5e-4, "{spec}: finite outputs");
        }
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn validates_output_buffer() {
        let spec = ConvSpec::square(12, 1, 1, 3, 1);
        let tile = RegisterTile { nx: 4, nfv: 3 };
        let plan = proved(&spec, VECTOR_WIDTH, tile, None);
        let tiled = plan.tiled().unwrap_or_else(|| unreachable!("lowered tiled"));
        let weights = blocked(&plan, &[0.0; 9]);
        dynamic(tiled, &[0.0; 144], &weights, &mut [0.0; 3], &ConvScratch::new());
    }

    #[test]
    #[should_panic(expected = "feature-blocked layout")]
    fn refuses_weights_padded_for_another_tile() {
        let spec = ConvSpec::square(12, 10, 1, 3, 1);
        let plan = proved(&spec, VECTOR_WIDTH, RegisterTile { nx: 4, nfv: 3 }, None);
        let other = proved(&spec, VECTOR_WIDTH, RegisterTile { nx: 4, nfv: 2 }, None);
        let tiled = plan.tiled().unwrap_or_else(|| unreachable!("lowered tiled"));
        let weights = blocked(&other, &pseudo(spec.weight_shape().len(), 1));
        let mut out = vec![0.0; spec.output_shape().len()];
        dynamic(tiled, &pseudo(144, 2), &weights, &mut out, &ConvScratch::new());
    }
}
