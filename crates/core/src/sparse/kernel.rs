//! The sparse backward kernels (paper Sec. 4.2), register blocked at the
//! host's vector width.
//!
//! One entry per phase, each one loop nest over a `Vector` type whose
//! innermost step is a chunk of up to [`sparse_block`]`(lanes)`
//! accumulators held in registers while a list of non-zero gradients
//! streams past.
//!
//! * **Backward-weights** reads `E_O`'s own CHW rows: row `f` is feature
//!   `f`'s positions in ascending `p`. The row's non-zeros are compacted
//!   once, as (input window offset, value), and the feature's weight
//!   gradient — `ky` runs of `kx·c` floats, each contiguous in the HWC
//!   input — is accumulated chunk by chunk across them, then permuted once
//!   to `fckk`. No HWC transform of `E_O` and no CT-CSR build.
//! * **Backward-data** keeps the CT-CSR and the Eq. 15 pointer shift. Per
//!   column tile, position `p` and tap `(ky, kx)`, the `c`-long `E_I` row
//!   the shift lands on stays in registers across row `p`'s non-zeros in
//!   the tile. It reads the weights in the permuted `[ky, kx, f, c]`
//!   layout of Fig. 5b and never produces it: weights change once per
//!   update, so the permutation belongs to whoever owns them (a layer's or
//!   a `CompiledConv`'s `PreparedWeights`), not to a per-sample call.
//!
//! Each phase is one [`Nest`] over the [`spg_gemm::simd`] vocabulary; each
//! entry runs the widest tier the CPU has, as
//! [`FcKernels`](spg_gemm::FcKernels) does, and every tier multiplies and
//! then adds (never fused). Each output element takes its terms in the
//! order of the unblocked scalar loops this kernel replaced — a
//! weight-gradient element in ascending `p`, an input-gradient element in
//! (tile, `p`, `f`) order — so every tier computes the same bits on every
//! host. A gradient entry is a
//! non-zero when `v != 0.0`: `-0.0` is skipped, a NaN is kept and
//! propagates.
//!
//! What is per sample — the HWC transforms, the compaction and the CT-CSR
//! build — is staged in the caller's [`ConvScratch`]; a warm call allocates
//! nothing.

use spg_check::sparse_block;
use spg_gemm::simd::{on_tier, Nest, Vector};
use spg_gemm::{detect_simd_level, SimdLevel};
use spg_tensor::layout::{self, Kkfc};
use spg_tensor::sparse::CtCsr;
use spg_tensor::Shape3;

use spg_convnet::workspace::{zeroed_slice, ConvScratch};
use spg_convnet::ConvSpec;

/// The chunks a run of `n` floats is swept in at `lanes` lanes, as
/// `(first float, vectors, lanes of the last vector)`: whole blocks of
/// [`sparse_block`]`(lanes)` vectors first, then the vectors left in
/// descending powers of two. They cover `0..n` in order; only the last
/// vector of the last chunk may be partial.
pub(crate) fn chunks(lanes: usize, n: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let block = sparse_block(lanes);
    let total = n.div_ceil(lanes);
    let tail = n + lanes - total * lanes;
    let mut at = 0;
    std::iter::from_fn(move || {
        let left = total - at;
        if left == 0 {
            return None;
        }
        let q = if left >= block { block } else { 1 << left.ilog2() };
        let chunk = (at * lanes, q, if q == left { tail } else { lanes });
        at += q;
        Some(chunk)
    })
}

/// Backward error propagation exploiting gradient sparsity (Eq. 11–15)
/// against weights already permuted to `[ky, kx, f, c]` order
/// ([`Kkfc`] — the layer's
/// [`PreparedWeights::kkfc`](spg_convnet::exec::PreparedWeights::kkfc),
/// refreshed once per update), staging the per-sample gradient transform
/// and CT-CSR build in a caller-provided [`ConvScratch`]: the per-sample
/// path performs no heap allocation once the scratch has warmed up.
///
/// Semantically identical to
/// [`reference::backward_data`](spg_convnet::reference::backward_data):
/// computes `E_I` from `E_O` and the weights, but touches only the
/// non-zero gradient elements. `tile_width` is the CT-CSR column-tile width
/// in features.
///
/// # Panics
///
/// Panics if buffer lengths do not match the spec or `tile_width == 0`.
pub fn backward_data_scratch(
    spec: &ConvSpec,
    w_kkfc: &Kkfc,
    grad_out: &[f32],
    grad_in: &mut [f32],
    tile_width: usize,
    scratch: &mut ConvScratch,
) {
    backward_data_on(detect_simd_level(), spec, w_kkfc, grad_out, grad_in, tile_width, scratch);
}

/// [`backward_data_scratch`] on the tier of `level`, or the host's when
/// that is narrower.
fn backward_data_on(
    level: SimdLevel,
    spec: &ConvSpec,
    w_kkfc: &Kkfc,
    grad_out: &[f32],
    grad_in: &mut [f32],
    tile_width: usize,
    scratch: &mut ConvScratch,
) {
    let w_kkfc = w_kkfc.as_slice();
    assert_eq!(w_kkfc.len(), spec.weight_shape().len(), "weights length");
    assert_eq!(grad_out.len(), spec.output_shape().len(), "grad_out length");
    assert_eq!(grad_in.len(), spec.input_shape().len(), "grad_in length");
    assert!(tile_width > 0, "tile width must be positive");

    let (nf, nc) = (spec.features(), spec.in_c());
    let (out_h, out_w) = (spec.out_h(), spec.out_w());
    let (in_h, in_w) = (spec.in_h(), spec.in_w());
    let ConvScratch { hwc_in, hwc_out, ctcsr, .. } = scratch;

    // Per-sample transform: gradient -> [y', x', f] (f fastest), then the
    // column-tiled CSR over (spatial positions x features), rebuilt in
    // place over the previous sample's tile storage.
    let eo_hwc = staged(hwc_out, nf * out_h * out_w);
    layout::chw_to_hwc_into(grad_out, Shape3::new(nf, out_h, out_w), eo_hwc);
    if ctcsr.assign_from_slice(out_h * out_w, nf, eo_hwc, tile_width).is_err() {
        unreachable!("tile width asserted positive above");
    }

    // Goodput accounting (Sec. 3.3): each stored gradient value touches
    // one `(c, ky, kx)` weight block, so the kernel performs
    // `2 * nnz * kdim` flops where a dense backward pass performs
    // `2 * Nf * H' * W' * kdim` — the skipped zeros are the gap.
    record_goodput(spec, ctcsr.nnz());

    let ei_hwc = zeroed_slice(hwc_in, in_h * in_w * nc);
    on_tier(level, DataJob { spec, w_kkfc, eo: ctcsr, ei_hwc });

    layout::hwc_to_chw_into(ei_hwc, Shape3::new(nc, in_h, in_w), grad_in);
}

/// Delta-weight computation exploiting gradient sparsity (Eq. 4, executed
/// sparsely): `dW[f, c, ky, kx] = sum_{y,x} E_O[f, y, x] * I[c, y*sy+ky, x*sx+kx]`
/// with the sum restricted to non-zero gradients, staging the input's HWC
/// transform, each feature's compacted non-zeros and the `[f][ky][kx][c]`
/// accumulator in a caller-provided [`ConvScratch`].
///
/// # Panics
///
/// Panics if buffer lengths do not match the spec or the input has more
/// than `u32::MAX` elements.
pub fn backward_weights_scratch(
    spec: &ConvSpec,
    input: &[f32],
    grad_out: &[f32],
    grad_weights: &mut [f32],
    scratch: &mut ConvScratch,
) {
    backward_weights_on(detect_simd_level(), spec, input, grad_out, grad_weights, scratch);
}

/// [`backward_weights_scratch`] on the tier of `level`, or the host's when
/// that is narrower.
fn backward_weights_on(
    level: SimdLevel,
    spec: &ConvSpec,
    input: &[f32],
    grad_out: &[f32],
    grad_weights: &mut [f32],
    scratch: &mut ConvScratch,
) {
    assert_eq!(input.len(), spec.input_shape().len(), "input length");
    assert_eq!(grad_out.len(), spec.output_shape().len(), "grad_out length");
    assert_eq!(grad_weights.len(), spec.weight_shape().len(), "grad_weights length");
    assert!(u32::try_from(input.len()).is_ok(), "window offsets are u32");

    let ConvScratch { hwc_in, wperm, nonzeros, .. } = scratch;
    let in_hwc = staged(hwc_in, input.len());
    layout::chw_to_hwc_into(input, spec.input_shape(), in_hwc);
    let positions = spec.out_h() * spec.out_w();
    if nonzeros.len() < positions {
        nonzeros.resize(positions, (0, 0.0));
    }
    let kdim = spec.weight_shape().per_feature();
    let acc = staged(wperm, spec.weight_shape().len());

    let job = WeightsJob { spec, in_hwc, grad_out, nonzeros, acc };
    let nnz = on_tier(level, job);
    // Same goodput accounting as `backward_data_scratch`: the delta-weight
    // reduction also visits one `(c, ky, kx)` block per stored gradient
    // value (Eq. 4 executed sparsely).
    record_goodput(spec, nnz);

    // Each feature's accumulator is `[ky][kx][c]`: an HWC block of shape
    // (c, ky, kx), permuted to the caller's `[c][ky][kx]`.
    let shape = Shape3::new(spec.in_c(), spec.ky(), spec.kx());
    for (from, to) in acc.chunks_exact(kdim).zip(grad_weights.chunks_exact_mut(kdim)) {
        layout::hwc_to_chw_into(from, shape, to);
    }
}

/// The first `len` floats of `buf`, grown (never shrunk) to hold them:
/// staging every element of which the caller overwrites, so it is not
/// zeroed.
fn staged(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Telemetry of one sparse phase over `nnz` stored gradient values.
fn record_goodput(spec: &ConvSpec, nnz: usize) {
    let nnz = nnz as u64;
    let kdim = spec.weight_shape().per_feature() as u64;
    spg_telemetry::record_flops(2 * nnz * kdim, spec.arithmetic_ops());
    spg_telemetry::record_tile_occupancy(nnz, spec.output_shape().len() as u64);
}

/// Backward-weights' operands, staged by its entry.
struct WeightsJob<'a> {
    spec: &'a ConvSpec,
    /// The input in HWC, `u32`-indexable.
    in_hwc: &'a [f32],
    /// `E_O` in CHW: one row of positions per feature.
    grad_out: &'a [f32],
    /// At least one entry per output position.
    nonzeros: &'a mut [(u32, f32)],
    /// The `[f][ky][kx][c]` accumulator, every element overwritten.
    acc: &'a mut [f32],
}

/// # Safety
///
/// `run`'s contract is the trait's.
impl Nest for WeightsJob<'_> {
    type Out = usize;

    /// Backward-weights' loop nest: per feature, compact its non-zeros in
    /// ascending `p` (a vector of positions at a time: the set bits of its
    /// unordered `!= 0` mask, so NaN is kept and `-0.0` skipped), then per
    /// kernel row and chunk of that row's `kx·c` run, sum the run's gathers
    /// over the non-zeros in registers. Returns the non-zeros counted.
    #[inline(always)]
    unsafe fn run<V: Vector, const L: usize>(self) -> usize {
        let WeightsJob { spec, in_hwc, grad_out, nonzeros, acc } = self;
        let (nc, in_w, out_w) = (spec.in_c(), spec.in_w(), spec.out_w());
        let (fy, fx, sy, sx) = (spec.ky(), spec.kx(), spec.sy(), spec.sx());
        let (run, row_stride) = (fx * nc, in_w * nc);
        let mut nnz = 0;
        let rows = grad_out.chunks_exact(spec.out_h() * out_w);
        for (row, acc) in rows.zip(acc.chunks_exact_mut(fy * run)) {
            let mut n = 0;
            for (yp, positions) in row.chunks_exact(out_w).enumerate() {
                let origin = yp * sy * row_stride;
                for x0 in (0..out_w).step_by(L) {
                    let lanes = (out_w - x0).min(L);
                    // SAFETY: positions `x0..x0 + lanes` are inside the row;
                    // the CPU has `V`'s features (this fn's contract).
                    let mut live = unsafe {
                        let p = positions.as_ptr().add(x0);
                        let v = if lanes == L {
                            V::load(p)
                        } else {
                            V::load_masked(p, V::first(lanes))
                        };
                        V::bits(v.ne(V::zero()))
                    };
                    while live != 0 {
                        let xp = x0 + live.trailing_zeros() as usize;
                        // Lossless: the window origin lies inside the input,
                        // whose length the entry asserted fits a u32.
                        #[allow(clippy::cast_possible_truncation)]
                        let offset = (origin + xp * sx * nc) as u32;
                        nonzeros[n] = (offset, positions[xp]);
                        n += 1;
                        live &= live - 1;
                    }
                }
            }
            let nz = &nonzeros[..n];
            nnz += n;
            for (ky, acc_row) in acc.chunks_exact_mut(run).enumerate() {
                for (at, q, tail) in chunks(V::LANES, run) {
                    let dst = &mut acc_row[at..at + (q - 1) * V::LANES + tail];
                    // SAFETY: `ky < fy` and `at < run` keep the pointer inside
                    // the input; with every non-zero's window origin the chunk
                    // reads inside the `kx·c` run of row `y'*sy + ky` — the
                    // "dW kx·c gather" spg-check proves for every spec, and
                    // the entry asserted the input's length; `dst` holds the
                    // chunk's lanes; the CPU has `V`'s features (this fn's
                    // contract).
                    unsafe {
                        let src = in_hwc.as_ptr().add(ky * row_stride + at);
                        match q {
                            16 => gather::<V, 16>(nz, src, tail, dst),
                            8 => gather::<V, 8>(nz, src, tail, dst),
                            4 => gather::<V, 4>(nz, src, tail, dst),
                            2 => gather::<V, 2>(nz, src, tail, dst),
                            _ => gather::<V, 1>(nz, src, tail, dst),
                        }
                    }
                }
            }
        }
        nnz
    }
}

/// One chunk of a feature's weight gradient: `dst[j] = Σ v · src[off +
/// j]` over the non-zeros `(off, v)`, in list order, from `+0.0` — `Q`
/// accumulators, the last vector `tail` lanes wide.
///
/// # Safety
///
/// The running CPU has `V`'s target features, `dst.len() == (Q - 1) *
/// LANES + tail`, and for every non-zero that many floats at `src + off`
/// are readable.
#[inline(always)]
unsafe fn gather<V: Vector, const Q: usize>(
    nz: &[(u32, f32)],
    src: *const f32,
    tail: usize,
    dst: &mut [f32],
) {
    // SAFETY: the caller's contract: the CPU has `V`'s features; every
    // vector below reads a chunk lane of a non-zero's window, and the
    // stores write `dst`'s lanes.
    unsafe {
        let m = V::first(tail);
        let mut acc = [V::splat(0.0); Q];
        for &(off, v) in nz {
            let x = src.add(off as usize);
            let v = V::splat(v);
            for (q, a) in acc.iter_mut().enumerate() {
                let p = x.add(q * V::LANES);
                let xv = if q + 1 < Q { V::load(p) } else { V::load_masked(p, m) };
                *a = a.mul_then_add(v, xv);
            }
        }
        store::<V, Q>(&acc, m, dst);
    }
}

/// Writes `Q` accumulators to `dst`, the last one through `m`.
///
/// # Safety
///
/// The running CPU has `V`'s target features and `dst` holds `Q - 1`
/// whole vectors plus the lanes of `m`.
#[inline(always)]
unsafe fn store<V: Vector, const Q: usize>(acc: &[V; Q], m: V::Mask, dst: &mut [f32]) {
    for (q, a) in acc.iter().enumerate() {
        // SAFETY: the caller's contract: vector q of `dst` is writable
        // (whole below Q - 1, the lanes of `m` at Q - 1).
        unsafe {
            let p = dst.as_mut_ptr().add(q * V::LANES);
            if q + 1 < Q {
                a.store(p);
            } else {
                a.store_masked(p, m);
            }
        }
    }
}

/// Backward-data's operands, staged by its entry.
struct DataJob<'a> {
    spec: &'a ConvSpec,
    /// The weights in `[ky][kx][f][c]` order.
    w_kkfc: &'a [f32],
    /// `E_O`'s CT-CSR over (positions × features).
    eo: &'a CtCsr,
    /// The zeroed `E_I` accumulator in HWC.
    ei_hwc: &'a mut [f32],
}

/// # Safety
///
/// `run`'s contract is the trait's.
impl Nest for DataJob<'_> {
    type Out = ();

    /// Backward-data's loop nest: per column tile, position `p` with a
    /// non-zero in the tile, tap `(ky, kx)` and chunk of the `c`-long `E_I`
    /// row the Eq. 15 shift lands on, add the row's non-zeros' weight rows
    /// into that chunk in registers.
    #[inline(always)]
    unsafe fn run<V: Vector, const L: usize>(self) {
        let DataJob { spec, w_kkfc, eo, ei_hwc } = self;
        let (nf, nc, in_w, out_w) = (spec.features(), spec.in_c(), spec.in_w(), spec.out_w());
        let (fy, fx, sy, sx) = (spec.ky(), spec.kx(), spec.sy(), spec.sx());
        for (f0, tile) in eo.iter() {
            let (row_ptr, cols, vals) = (tile.row_ptr(), tile.col_indices(), tile.values());
            for (p, bounds) in row_ptr.windows(2).enumerate() {
                let (lo, hi) = (bounds[0] as usize, bounds[1] as usize);
                if lo == hi {
                    continue;
                }
                let (cols, vals) = (&cols[lo..hi], &vals[lo..hi]);
                let (yp, xp) = (p / out_w, p % out_w);
                for ky in 0..fy {
                    for kx in 0..fx {
                        let dst = ((yp * sy + ky) * in_w + xp * sx + kx) * nc;
                        let taps = ((ky * fx + kx) * nf + f0) * nc;
                        for (at, q, tail) in chunks(V::LANES, nc) {
                            let row = &mut ei_hwc[dst + at..dst + at + (q - 1) * V::LANES + tail];
                            // SAFETY: tile columns are below the tile's width,
                            // so `f0 + col < nf` and each weight row read lies
                            // inside tap (ky, kx)'s `kkfc` block — the "kkfc
                            // pointer-shift weight rows" spg-check proves, at
                            // this chunk's lanes; `row` holds the chunk's
                            // lanes; the CPU has `V`'s features (this fn's
                            // contract).
                            unsafe {
                                let w = w_kkfc.as_ptr().add(taps + at);
                                match q {
                                    16 => shift::<V, 16>(cols, vals, w, nc, tail, row),
                                    8 => shift::<V, 8>(cols, vals, w, nc, tail, row),
                                    4 => shift::<V, 4>(cols, vals, w, nc, tail, row),
                                    2 => shift::<V, 2>(cols, vals, w, nc, tail, row),
                                    _ => shift::<V, 1>(cols, vals, w, nc, tail, row),
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// One chunk of an `E_I` row: `row[j] += v · w[f·nc + j]` for the row's
/// non-zeros `(f, v)`, in column order — `Q` accumulators loaded from and
/// stored back to `row`, the last vector `tail` lanes wide.
///
/// # Safety
///
/// The running CPU has `V`'s target features, `row.len() == (Q - 1) *
/// LANES + tail`, and for every column `f` that many floats at `w + f·nc`
/// are readable.
#[inline(always)]
unsafe fn shift<V: Vector, const Q: usize>(
    cols: &[u32],
    vals: &[f32],
    w: *const f32,
    nc: usize,
    tail: usize,
    row: &mut [f32],
) {
    // SAFETY: the caller's contract: the CPU has `V`'s features; the
    // loads and stores of `row` stay inside its lanes, and every weight
    // vector read is a chunk lane of a non-zero's weight row.
    unsafe {
        let m = V::first(tail);
        let at = |q: usize| row.as_ptr().add(q * V::LANES);
        let mut acc: [V; Q] =
            std::array::from_fn(
                |q| {
                    if q + 1 < Q {
                        V::load(at(q))
                    } else {
                        V::load_masked(at(q), m)
                    }
                },
            );
        for (&f, &v) in cols.iter().zip(vals) {
            let wf = w.add(f as usize * nc);
            let v = V::splat(v);
            for (q, a) in acc.iter_mut().enumerate() {
                let p = wf.add(q * V::LANES);
                let wv = if q + 1 < Q { V::load(p) } else { V::load_masked(p, m) };
                *a = a.mul_then_add(v, wv);
            }
        }
        store::<V, Q>(&acc, m, row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spg_convnet::reference;

    fn sparse_grad(n: usize, sparsity_mod: usize, salt: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                if !(i * 7 + salt).is_multiple_of(sparsity_mod) {
                    0.0
                } else {
                    (((i * 13 + salt) % 17) as f32 - 8.0) / 4.0
                }
            })
            .collect()
    }

    fn pseudo(n: usize, salt: usize) -> Vec<f32> {
        (0..n).map(|i| (((i * 11 + salt * 3) % 19) as f32 - 9.0) / 6.0).collect()
    }

    /// `weights` in the `[ky, kx, f, c]` order backward-data reads.
    fn kkfc(spec: &ConvSpec, weights: &[f32]) -> Kkfc {
        let mut copy = Kkfc::default();
        copy.refresh(weights, spec.weight_shape());
        copy
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every tier the host runs, portable first (only the portable one
    /// under Miri or on a host without SIMD).
    fn tiers() -> Vec<SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Avx2Fma, SimdLevel::Avx512Fma]
            .into_iter()
            .filter(|&level| level <= detect_simd_level())
            .collect()
    }

    /// Small specs around the lane widths: channel rows and `kx·c` runs
    /// shorter than a vector, a whole vector plus a tail, several chunks —
    /// every chunk size of both lane widths, up to a whole 16-vector block.
    fn spec_cases() -> Vec<ConvSpec> {
        vec![
            ConvSpec::new(1, 4, 4, 1, 2, 2, 1, 1).unwrap(),
            ConvSpec::new(3, 8, 8, 5, 3, 3, 1, 1).unwrap(),
            ConvSpec::new(2, 9, 7, 4, 2, 3, 2, 1).unwrap(),
            ConvSpec::new(4, 10, 10, 6, 3, 3, 2, 2).unwrap(),
            ConvSpec::new(2, 12, 12, 3, 5, 5, 1, 2).unwrap(),
            ConvSpec::new(17, 6, 6, 3, 2, 2, 1, 1).unwrap(),
            ConvSpec::new(40, 5, 5, 9, 2, 2, 1, 1).unwrap(),
            ConvSpec::new(96, 4, 4, 3, 3, 3, 1, 1).unwrap(),
        ]
    }

    fn data_at(level: SimdLevel, spec: &ConvSpec, w: &[f32], g: &[f32], tw: usize) -> Vec<f32> {
        let mut out = vec![f32::NAN; spec.input_shape().len()];
        let w = kkfc(spec, w);
        backward_data_on(level, spec, &w, g, &mut out, tw, &mut ConvScratch::new());
        out
    }

    fn weights_at(level: SimdLevel, spec: &ConvSpec, x: &[f32], g: &[f32]) -> Vec<f32> {
        let mut out = vec![f32::NAN; spec.weight_shape().len()];
        backward_weights_on(level, spec, x, g, &mut out, &mut ConvScratch::new());
        out
    }

    fn max_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
    }

    #[test]
    fn backward_data_matches_reference() {
        for spec in spec_cases() {
            let weights = pseudo(spec.weight_shape().len(), 1);
            let grad_out = sparse_grad(spec.output_shape().len(), 5, 2);
            let mut oracle = vec![0f32; spec.input_shape().len()];
            reference::backward_data(&spec, &weights, &grad_out, &mut oracle);
            for tw in [1, 2, 64] {
                let ours = data_at(detect_simd_level(), &spec, &weights, &grad_out, tw);
                let diff = max_diff(&ours, &oracle);
                assert!(diff < 1e-4, "{spec} tw={tw}: diff {diff}");
            }
        }
    }

    #[test]
    fn backward_weights_matches_reference() {
        for spec in spec_cases() {
            let input = pseudo(spec.input_shape().len(), 3);
            let grad_out = sparse_grad(spec.output_shape().len(), 4, 1);
            let mut oracle = vec![0f32; spec.weight_shape().len()];
            reference::backward_weights(&spec, &input, &grad_out, &mut oracle);
            let ours = weights_at(detect_simd_level(), &spec, &input, &grad_out);
            let diff = max_diff(&ours, &oracle);
            assert!(diff < 1e-4, "{spec}: diff {diff}");
        }
    }

    /// The chunks sweep `0..n` in order, in whole vectors but the very
    /// last, in power-of-two sizes no wider than the block — the sizes the
    /// loop nests have an instance of.
    #[test]
    fn chunks_cover_each_run_exactly() {
        for lanes in [8, 16] {
            let block = sparse_block(lanes);
            assert!(block.is_power_of_two() && block <= 16, "{lanes} lanes");
            for n in 0..300 {
                let mut next = 0;
                for (at, q, tail) in chunks(lanes, n) {
                    assert_eq!(at, next, "{lanes} lanes, n={n}");
                    assert!(q.is_power_of_two() && q <= block, "{lanes} lanes, n={n}");
                    assert!((1..=lanes).contains(&tail), "{lanes} lanes, n={n}");
                    next = at + (q - 1) * lanes + tail;
                    assert!(tail == lanes || next == n, "{lanes} lanes, n={n}");
                }
                assert_eq!(next, n, "{lanes} lanes");
            }
        }
    }

    /// Every tier computes the portable tier's bits in both phases.
    #[test]
    fn tiers_are_bit_identical() {
        for spec in spec_cases() {
            let weights = pseudo(spec.weight_shape().len(), 5);
            let input = pseudo(spec.input_shape().len(), 6);
            let grad_out = sparse_grad(spec.output_shape().len(), 3, 4);
            let want_data = data_at(SimdLevel::Scalar, &spec, &weights, &grad_out, 3);
            let want_weights = weights_at(SimdLevel::Scalar, &spec, &input, &grad_out);
            for level in tiers() {
                let data = data_at(level, &spec, &weights, &grad_out, 3);
                assert_eq!(bits(&data), bits(&want_data), "dErr {level:?} {spec}");
                let dw = weights_at(level, &spec, &input, &grad_out);
                assert_eq!(bits(&dw), bits(&want_weights), "dW {level:?} {spec}");
            }
        }
    }

    /// Every tier computes the portable tier's bits on full Table 2
    /// geometry: CIFAR-10's two conv layers (a 15-float `kx·c` run; 64
    /// channels, whole 16-vector blocks) at ~0.95 gradient sparsity.
    #[test]
    #[cfg_attr(miri, ignore = "full Table 2 geometry is too large to interpret")]
    fn tiers_are_bit_identical_on_cifar10_geometry() {
        for spec in [ConvSpec::square(36, 64, 3, 5, 1), ConvSpec::square(8, 64, 64, 5, 1)] {
            let weights = pseudo(spec.weight_shape().len(), 2);
            let input = pseudo(spec.input_shape().len(), 3);
            let grad_out = sparse_grad(spec.output_shape().len(), 20, 1);
            let want_data = data_at(SimdLevel::Scalar, &spec, &weights, &grad_out, 64);
            let want_weights = weights_at(SimdLevel::Scalar, &spec, &input, &grad_out);
            for level in tiers().into_iter().skip(1) {
                let data = data_at(level, &spec, &weights, &grad_out, 64);
                assert_eq!(bits(&data), bits(&want_data), "dErr {level:?} {spec}");
                let dw = weights_at(level, &spec, &input, &grad_out);
                assert_eq!(bits(&dw), bits(&want_weights), "dW {level:?} {spec}");
            }
        }
    }

    /// The non-zero predicate is `v != 0.0` on every tier and in both
    /// phases, as in `reference::backward_*`: a `-0.0` gradient entry is
    /// skipped (its window holds an infinity that would make NaNs), a NaN
    /// entry is kept and propagates, and an infinite entry times a zero
    /// input or weight makes a NaN. Every tier agrees with the reference on
    /// which elements are NaN, and with the portable tier bit for bit.
    #[test]
    fn nonzero_predicate_keeps_nans_and_skips_negative_zero() {
        let spec = ConvSpec::new(3, 7, 7, 4, 3, 3, 1, 1).unwrap();
        let (out_len, in_len) = (spec.output_shape().len(), spec.input_shape().len());
        let mut grad_out = sparse_grad(out_len, 4, 3);
        let mut input = pseudo(in_len, 8);
        let mut weights = pseudo(spec.weight_shape().len(), 9);
        // -0.0 at feature 0, (0, 0), whose window holds an infinite input
        // and meets an infinite weight.
        grad_out[0] = -0.0;
        input[0] = f32::INFINITY;
        weights[0] = f32::NEG_INFINITY;
        // A NaN at feature 1, (2, 3); +∞ at feature 2, (4, 1), whose
        // window holds a zero input and which meets a zero weight.
        grad_out[25 + 2 * 5 + 3] = f32::NAN;
        grad_out[2 * 25 + 4 * 5 + 1] = f32::INFINITY;
        input[2 * 49 + 5 * 7 + 2] = 0.0;
        weights[2 * 27 + 9 + 4] = 0.0;
        let nans = |v: &[f32]| v.iter().map(|x| x.is_nan()).collect::<Vec<_>>();
        let mut want_data = vec![0f32; in_len];
        reference::backward_data(&spec, &weights, &grad_out, &mut want_data);
        let mut want_weights = vec![0f32; spec.weight_shape().len()];
        reference::backward_weights(&spec, &input, &grad_out, &mut want_weights);
        assert!(nans(&want_data).iter().any(|&n| n) && nans(&want_weights).iter().any(|&n| n));
        let base_data = data_at(SimdLevel::Scalar, &spec, &weights, &grad_out, 2);
        let base_weights = weights_at(SimdLevel::Scalar, &spec, &input, &grad_out);
        for level in tiers() {
            let data = data_at(level, &spec, &weights, &grad_out, 2);
            let dw = weights_at(level, &spec, &input, &grad_out);
            assert_eq!(nans(&data), nans(&want_data), "dErr NaNs {level:?}");
            assert_eq!(nans(&dw), nans(&want_weights), "dW NaNs {level:?}");
            assert_eq!(bits(&data), bits(&base_data), "dErr {level:?}");
            assert_eq!(bits(&dw), bits(&base_weights), "dW {level:?}");
            // The skipped -0.0 leaves the infinities out of the elements
            // whose only infinite term it would have been.
            assert!(!dw[0].is_nan() && !data[0].is_nan(), "{level:?}");
        }
    }

    #[test]
    fn fully_sparse_gradient_is_free_and_zero() {
        let spec = ConvSpec::new(2, 6, 6, 3, 3, 3, 1, 1).unwrap();
        let weights = pseudo(spec.weight_shape().len(), 9);
        let zeros = vec![0f32; spec.output_shape().len()];
        let gin = data_at(detect_simd_level(), &spec, &weights, &zeros, 64);
        assert!(gin.iter().all(|v| v.to_bits() == 0));
        let input = pseudo(spec.input_shape().len(), 10);
        let dw = weights_at(detect_simd_level(), &spec, &input, &zeros);
        assert!(dw.iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    fn dense_gradient_still_correct() {
        // Sparsity 0 is the worst case but must stay correct.
        let spec = ConvSpec::new(2, 7, 7, 3, 3, 3, 1, 1).unwrap();
        let weights = pseudo(spec.weight_shape().len(), 4);
        let grad_out = pseudo(spec.output_shape().len(), 5);
        let mut oracle = vec![0f32; spec.input_shape().len()];
        reference::backward_data(&spec, &weights, &grad_out, &mut oracle);
        let ours = data_at(detect_simd_level(), &spec, &weights, &grad_out, 64);
        let diff = max_diff(&ours, &oracle);
        assert!(diff < 1e-4, "diff {diff}");
    }

    /// A warm call of either phase allocates nothing: the scratch's
    /// buffers keep their storage.
    #[test]
    fn warm_calls_reuse_the_scratch() {
        let spec = ConvSpec::new(4, 10, 10, 6, 3, 3, 1, 1).unwrap();
        let weights = kkfc(&spec, &pseudo(spec.weight_shape().len(), 1));
        let input = pseudo(spec.input_shape().len(), 2);
        let grad_out = sparse_grad(spec.output_shape().len(), 3, 1);
        let mut gin = vec![0f32; spec.input_shape().len()];
        let mut dw = vec![0f32; spec.weight_shape().len()];
        let mut scratch = ConvScratch::new();
        let run = |scratch: &mut ConvScratch, gin: &mut [f32], dw: &mut [f32]| {
            backward_data_scratch(&spec, &weights, &grad_out, gin, 2, scratch);
            backward_weights_scratch(&spec, &input, &grad_out, dw, scratch);
        };
        run(&mut scratch, &mut gin, &mut dw);
        let storage = |s: &ConvScratch| {
            (s.hwc_in.as_ptr(), s.hwc_out.as_ptr(), s.wperm.as_ptr(), s.nonzeros.as_ptr())
        };
        let (before, bytes) = (storage(&scratch), scratch.bytes());
        run(&mut scratch, &mut gin, &mut dw);
        assert_eq!((storage(&scratch), scratch.bytes()), (before, bytes));
    }

    #[test]
    #[should_panic(expected = "tile width")]
    fn zero_tile_width_panics() {
        let spec = ConvSpec::new(1, 4, 4, 1, 2, 2, 1, 1).unwrap();
        let mut gin = vec![0f32; 16];
        let w = kkfc(&spec, &[0.0; 4]);
        backward_data_scratch(&spec, &w, &[0.0; 9], &mut gin, 0, &mut ConvScratch::new());
    }
}
