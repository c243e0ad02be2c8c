//! The stencil forward loop nest, written once and instantiated per
//! [`Geometry`], vector tier and register tile.
//!
//! One source holds the register-tiled basic block and its per-region
//! driver — a [`Nest`] over the [`spg_gemm::simd`] vocabulary, run on the
//! tier a level names — and one function is the entry ([`forward`]) that
//! forks one driver task per proved region. The lanes of a vector are
//! **output features**: a tile is `NX` consecutive output positions of one
//! row times `NFV` vectors of features, and every kernel tap `(c, ky, kx)`
//! loads `NFV` weight vectors from the feature-blocked layout ([`Ckkf`]),
//! broadcasts `NX` input values and issues `NX * NFV` fused multiply-adds
//! (Georganas et al.'s direct convolution). The stride is only a broadcast
//! offset — position `i` of a tile reads input column `i*sx + kx` — so
//! every stride reads the CHW input in place. The kernel geometry — `Fy`,
//! `Fx`, `sy`, `sx` — reaches the loops through the [`Geometry`] a driver
//! is instantiated at:
//!
//! * [`Fixed`] carries it as **const generic parameters**: the `(ky, kx)`
//!   reduction loops have compile-time-constant trip counts and every
//!   broadcast offset `i*sx + kx` folds to a constant. This is the
//!   Georganas et al. per-(tile, stride, layout) specialization, realized
//!   through Rust monomorphization instead of a run-time JIT — the
//!   registry's instances.
//! * [`Dynamic`] reads it from the plan's spec at run time — the "generic"
//!   kernel every unlisted shape runs, at 8 lanes: AVX2+FMA where the host
//!   has it, the portable tier elsewhere (and under Miri).
//!
//! Both are the same loops, so the per-output-element reduction order —
//! `(c, ky, kx)` with single-rounded FMA into an accumulator that starts at
//! `+0.0` — is the same, and a fixed instance is **bit-identical** to the
//! dynamic one on any geometry both execute by construction. Neither tier,
//! lane width nor register tile changes the per-element chain: an output
//! element is one lane of one accumulator for its whole reduction, and
//! every tier's FMA rounds each lane as `f32::mul_add` does.

use std::marker::PhantomData;

use spg_check::{RegisterTile, TileRegion, VerifiedTiled};
use spg_convnet::workspace::ConvScratch;
use spg_convnet::ConvSpec;
use spg_gemm::simd::{on_tier, Nest, Vector};
use spg_gemm::SimdLevel;
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
    /// Whether the geometry is compile-time: a registry instance, run only
    /// on the SIMD tier it is registered for; the run-time geometry runs
    /// only at 8 lanes.
    const FIXED: bool;
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
    const FIXED: bool = true;
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
    const FIXED: bool = false;
    fn bind(spec: &ConvSpec) -> Self {
        Dynamic { dims: (spec.ky(), spec.kx(), spec.sy(), spec.sx()) }
    }
    #[inline(always)]
    fn dims(&self) -> (usize, usize, usize, usize) {
        self.dims
    }
}

/// A region driver: the loop nest at one [`Geometry`], run on the tier of
/// a level over one region of the plan, the CHW input and the
/// feature-blocked weights.
///
/// # Safety
///
/// [`region`]'s contract.
pub(crate) type RegionFn =
    unsafe fn(SimdLevel, VerifiedTiled<'_>, &mut TileRegion<'_>, &[f32], &Ckkf);

/// The [`RegionFn`] of geometry `G`: the nest, once per region, on the
/// tier of `level` (or the host's, when that is narrower).
///
/// # Safety
///
/// `region` is one of `plan.regions(output, _)` for an output of
/// `plan.spec()`, `input` is the input of `plan.spec()`, and `weights` its
/// feature-blocked layout at `plan.padded_features()` — what [`forward`]
/// checks before it runs a driver.
pub(crate) unsafe fn region<G: Geometry>(
    level: SimdLevel,
    plan: VerifiedTiled<'_>,
    region: &mut TileRegion<'_>,
    input: &[f32],
    weights: &Ckkf,
) {
    on_tier(level, Region::<G> { plan, region, input, weights, geometry: PhantomData });
}

/// The one tiled-stencil entry: validates buffer lengths, the weight
/// layout's padding and the plan's register tile against `level`'s lane
/// width, records the flop traffic (full dense convolution: goodput 1,
/// Sec. 3.3), and runs one `run` task per region the plan has at the
/// scratch's core budget — the whole layer on the calling thread for a
/// sequential plan or a single core, else runs of proved bands.
pub(crate) fn forward(
    run: RegionFn,
    level: SimdLevel,
    plan: VerifiedTiled<'_>,
    input: &[f32],
    weights: &Ckkf,
    output: &mut [f32],
    scratch: &ConvScratch,
) {
    let spec = plan.spec();
    assert_eq!(input.len(), spec.input_shape().len(), "input length");
    let lanes = level.min(spg_gemm::detect_simd_level()).lanes();
    assert!(
        plan.lanes() == lanes && register_tiles(lanes).contains(&plan.tile()),
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
        // SAFETY: `region` comes from this plan's own split of `output`,
        // and `input` and `weights` were length-checked above.
        move || unsafe { run(level, plan, &mut region, input, weights) }
    }));
}

/// One region's operands: the nest [`region`] runs.
struct Region<'a, 'r, G> {
    plan: VerifiedTiled<'a>,
    region: &'a mut TileRegion<'r>,
    input: &'a [f32],
    weights: &'a Ckkf,
    geometry: PhantomData<G>,
}

/// # Safety
///
/// `run`'s contract is the trait's.
impl<G: Geometry> Nest for Region<'_, '_, G> {
    type Out = ();

    /// Runs the region through the tile the plan chose.
    #[inline(always)]
    unsafe fn run<V: Vector, const L: usize>(self) {
        let tile = self.plan.tile();
        // The access proofs are about this lane width: `forward` checked
        // it against the level, this re-checks it against the tier that
        // runs.
        assert_eq!(self.plan.lanes(), L, "plan was lowered for a different register tile");
        // No instance runs on a tier it is not made for — a fixed geometry
        // on the portable one, the run-time geometry at 16 lanes — so
        // those are not compiled.
        if const {
            let portable = V::LEVEL as u8 == SimdLevel::Scalar as u8;
            G::FIXED && portable || !G::FIXED && L != 8
        } {
            unreachable!("an instance runs only on its own tiers");
        }
        // SAFETY: the CPU has `V`'s features (this fn's contract); the plan
        // was proved at L lanes with this tile, and `region`, `input` and
        // the weights are what `region`'s caller guarantees — `sweep`'s
        // contract.
        unsafe {
            if const { L == 8 } {
                match (tile.nx, tile.nfv) {
                    (8, 1) => sweep::<V, L, 8, 1, G>(self),
                    (4, 2) => sweep::<V, L, 4, 2, G>(self),
                    (4, 3) => sweep::<V, L, 4, 3, G>(self),
                    (2, 5) => sweep::<V, L, 2, 5, G>(self),
                    _ => unreachable!("the entry admits only this lane width's tiles"),
                }
            } else {
                match (tile.nx, tile.nfv) {
                    (16, 1) => sweep::<V, L, 16, 1, G>(self),
                    (8, 1) => sweep::<V, L, 8, 1, G>(self),
                    (8, 2) => sweep::<V, L, 8, 2, G>(self),
                    (8, 3) => sweep::<V, L, 8, 3, G>(self),
                    (4, 4) => sweep::<V, L, 4, 4, G>(self),
                    (4, 5) => sweep::<V, L, 4, 5, G>(self),
                    (4, 6) => sweep::<V, L, 4, 6, G>(self),
                    _ => unreachable!("the entry admits only this lane width's tiles"),
                }
            }
        }
    }
}

/// Drives [`tile_block`] over one proved region of the plan: each of its
/// rows, each feature block of `NFV*L` features, each group of `L`
/// output positions of the row (the last one overlapping its predecessor
/// so it ends at the row end; one narrower group on rows under `L` wide),
/// tiled by x-blocks of `NX`. A group's accumulators are transposed in
/// registers, `L` positions by `L` features a vector, and each feature's
/// positions stored into its own output plane; padding lanes and features
/// past the layer's are dropped.
///
/// # Safety
///
/// The running CPU has `V`'s target features; `plan` was proved at `L`
/// lanes with tile `(NX, NFV)`, `region` is one of `plan.regions(output,
/// _)` for an output of `plan.spec()`, `input` is the input of
/// `plan.spec()`, and `weights` its feature-blocked layout at
/// `plan.padded_features()` — so every access the tile blocks perform lies
/// in the ranges spg-check proved to produce `plan`, and every store in
/// the part of the output it proved this region's alone.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
unsafe fn sweep<V: Vector, const L: usize, const NX: usize, const NFV: usize, G: Geometry>(
    job: Region<'_, '_, G>,
) {
    const { assert!(L == V::LANES) };
    let Region { plan, region, input, weights, .. } = job;
    let spec = plan.spec();
    let g = &G::bind(spec);
    let (_, _, sy, sx) = g.dims();
    let (nc, in_w, out_w) = (spec.in_c(), spec.in_w(), spec.out_w());
    let plane = spec.in_h() * in_w;
    let padded = weights.padded_features();
    let nf = spec.features();
    let (y_lo, y_hi) = region.rows();
    let width = L.min(out_w);
    // SAFETY: the CPU has `V`'s features (this fn's contract).
    let (mask, mut group) = unsafe { (V::first(width), [[V::zero(); NFV]; L]) };
    for y in y_lo..y_hi {
        let at = (y - y_lo) * out_w;
        for fb in (0..nf).step_by(NFV * L) {
            // SAFETY: fb is a feature-block start below the padded feature
            // count.
            let w = unsafe { weights.as_slice().as_ptr().add(fb) };
            let mut next = 0;
            loop {
                let x0 = next.min(out_w - width);
                let mut p = 0;
                loop {
                    let p0 = p.min(width - NX);
                    let x = x0 + p0;
                    // SAFETY: row y*sy, column x*sx: the first input element
                    // of the x-block at x, inside the proved row and column
                    // ranges.
                    let origin = unsafe { input.as_ptr().add(y * sy * in_w + x * sx) };
                    // SAFETY: this fn's contract; x + NX <= out_w and fb come
                    // from this proved plan's x-blocks and feature blocks.
                    unsafe {
                        tile_block::<V, NX, NFV, G>(
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
                    let first = fb + v * L;
                    if first >= nf {
                        break;
                    }
                    let mut rows: [V; L] = std::array::from_fn(|p| group[p][v]);
                    // SAFETY: the CPU has `V`'s features (this fn's
                    // contract).
                    unsafe { V::transpose(&mut rows) };
                    for (f, row) in (first..nf.min(first + L)).zip(&rows) {
                        let dst = region.plane_rows(f)[at + x0..at + x0 + width].as_mut_ptr();
                        // SAFETY: `dst` is `width` writable floats: all L
                        // lanes, or the lanes of `mask`.
                        unsafe {
                            if width == L {
                                row.store(dst);
                            } else {
                                row.store_masked(dst, mask);
                            }
                        }
                    }
                }
                if x0 + width >= out_w {
                    break;
                }
                next += L;
            }
        }
    }
}

/// Register-tiled basic block over `NX` output positions x `NFV` vectors
/// of output features (the Fig. 7 structure with features as lanes): for
/// every channel and kernel tap, load the tap's `NFV` weight vectors once
/// and fan each broadcast input value out over them. Accumulators start at
/// `+0.0` and take the complete `(c, ky, kx)` reduction before they are
/// spilled to `out`, so neighbouring x-blocks may overlap — an overlapping
/// position is recomputed bit for bit — which lets a ragged row end in one
/// overlapping block instead of a scalar tail. At [`Fixed`] geometry the
/// `fy`/`fx` trip counts and the broadcast offsets are compile-time
/// constants.
///
/// # Safety
///
/// The running CPU has `V`'s target features; for every `c < nc`,
/// `ky < fy`, `kx < fx` and `i < NX`, `input + c*plane + ky*in_w + i*sx +
/// kx` is a readable input element (the x-block and row-range judgments
/// behind the caller's `VerifiedTiled`); and `w` points to `nc*fy*fx` taps
/// of `padded` floats whose first `NFV*LANES` are readable (the
/// weight-lane judgment).
#[inline(always)]
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
unsafe fn tile_block<V: Vector, const NX: usize, const NFV: usize, G: Geometry>(
    g: &G,
    nc: usize,
    input: *const f32,
    plane: usize,
    in_w: usize,
    w: *const f32,
    padded: usize,
    out: &mut [[V; NFV]],
) {
    let (fy, fx, _, sx) = g.dims();
    // SAFETY: the CPU has `V`'s features and every pointer read below is
    // an input element or weight lane of the caller's contract.
    unsafe {
        let mut acc = [[V::zero(); NFV]; NX];
        let mut w_tap = w;
        for c in 0..nc {
            for ky in 0..fy {
                let row = input.add(c * plane + ky * in_w);
                for kx in 0..fx {
                    let mut wv = [V::zero(); NFV];
                    for (v, lane) in wv.iter_mut().enumerate() {
                        *lane = V::load(w_tap.add(v * V::LANES));
                    }
                    for i in 0..NX {
                        let x = V::splat(*row.add(i * sx + kx));
                        for v in 0..NFV {
                            acc[i][v] = acc[i][v].fma(x, wv[v]);
                        }
                    }
                    // The next tap's block; past the last one it is never
                    // read.
                    w_tap = w_tap.wrapping_add(padded);
                }
            }
        }
        out.copy_from_slice(&acc);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use spg_check::VECTOR_WIDTH;
    use spg_check::{BackwardPlan, ConvPlan, ForwardPlan, VerifiedPlan};
    use spg_convnet::reference;

    pub(crate) fn pseudo(n: usize, salt: usize) -> Vec<f32> {
        (0..n).map(|i| (((i * 29 + salt * 13) % 19) as f32 - 9.0) / 5.0).collect()
    }

    /// `spec`'s tiled plan at `lanes` lanes with `tile` — its output rows
    /// split into `n` bands for `Some(n)` — proved: the only way to run a
    /// kernel.
    pub(crate) fn proved(
        spec: &ConvSpec,
        lanes: usize,
        tile: RegisterTile,
        bands: Option<usize>,
    ) -> VerifiedPlan {
        let forward = match bands {
            None => ForwardPlan::StencilTiled { lanes, tile },
            Some(n) => {
                let n = n.min(spec.out_h());
                let bands = (0..n).map(|b| spg_convnet::partition(spec.out_h(), n, b));
                let bands = bands.map(|rows| (rows.start, rows.end)).collect();
                ForwardPlan::StencilBanded { lanes, tile, bands }
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

    /// Every split the tests run on `spec`: sequential, then 2 and 3 row
    /// bands when there are two or more rows to split, each with the cores
    /// for all its bands.
    fn splits(spec: &ConvSpec) -> Vec<Option<usize>> {
        let mut splits = vec![None];
        if spec.out_h() > 1 {
            splits.extend([Some(2), Some(3)]);
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
        split: Option<usize>,
        input: &[f32],
        weights: &[f32],
    ) -> Vec<f32> {
        let plan = proved(spec, VECTOR_WIDTH, tile, split);
        let tiled = plan.tiled().unwrap_or_else(|| unreachable!("lowered tiled"));
        let mut out = vec![f32::NAN; spec.output_shape().len()];
        let scratch = ConvScratch::with_cores(split.unwrap_or(1));
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

    /// The entry on the portable tier, as a host without AVX2+FMA runs it.
    fn portable(
        plan: VerifiedTiled<'_>,
        input: &[f32],
        weights: &Ckkf,
        output: &mut [f32],
        scratch: &ConvScratch,
    ) {
        let run = region::<Dynamic>;
        forward(run, SimdLevel::Scalar, plan, input, weights, output, scratch);
    }

    /// The oracle every tier must match bit for bit: each output element's
    /// `(c, ky, kx)` chain of `f32::mul_add` from `+0.0`, as plain loops.
    fn scalar_chain(
        plan: VerifiedTiled<'_>,
        input: &[f32],
        weights: &Ckkf,
        output: &mut [f32],
        _: &ConvScratch,
    ) {
        let spec = plan.spec();
        let (fy, fx, sy, sx) = (spec.ky(), spec.kx(), spec.sy(), spec.sx());
        let (in_h, in_w, out_w) = (spec.in_h(), spec.in_w(), spec.out_w());
        let (w, padded) = (weights.as_slice(), weights.padded_features());
        for (f, plane) in output.chunks_exact_mut(spec.out_h() * out_w).enumerate() {
            plane.fill(0.0);
            for c in 0..spec.in_c() {
                for ky in 0..fy {
                    for kx in 0..fx {
                        let wf = w[((c * fy + ky) * fx + kx) * padded + f];
                        for (y, out_row) in plane.chunks_exact_mut(out_w).enumerate() {
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
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
    /// (tolerance: the reduction order differs), with the portable tier and
    /// the scalar-chain oracle bit for bit, and with itself bit for bit
    /// however the layer is
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
                for (name, kernel) in [("portable", portable as Kernel), ("oracle", scalar_chain)] {
                    let other = run(kernel, &spec, tile, None, &input, &weights);
                    assert_eq!(bits(&other), bits(&sequential), "{spec} {tile:?}: {name}");
                }
                for split in splits(&spec) {
                    let banded = run(dynamic, &spec, tile, split, &input, &weights);
                    assert_eq!(banded, sequential, "{spec} {tile:?} {split:?}");
                }
            }
        }
    }

    /// Output widths at and around every tile width — rows of two to five
    /// positions, narrower than a vector, included — heights of one row
    /// and more, feature counts straddling the lane blocks: the reference's
    /// values within tolerance, the portable tier's and the scalar-chain
    /// oracle's bits exactly.
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
                    for (name, kernel) in
                        [("portable", portable as Kernel), ("oracle", scalar_chain)]
                    {
                        let other = run(kernel, &spec, tile, None, &input, &weights);
                        assert_eq!(bits(&other), bits(&out), "{spec} {tile:?}: {name}");
                    }
                }
            }
        }
    }

    /// A zero weight times an infinite input is NaN in IEEE arithmetic,
    /// and every driver says so: the portable tier, the scalar-chain oracle,
    /// the host's tier and the reference put NaN at exactly the same outputs (and agree on the
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
        for kernel in [portable as Kernel, scalar_chain, dynamic] {
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
