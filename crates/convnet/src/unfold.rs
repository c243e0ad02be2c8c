//! The unfold matrix (`im2col`) read where the image sits, and its adjoint
//! fold (`col2im`) by rows.
//!
//! The unfold step (paper Fig. 2b) flattens every kernel application's
//! receptive field into one row of a matrix `U` of `out_h * out_w` rows by
//! `Nc * Fy * Fx` columns, channels stacked left to right. A convolution
//! then becomes the matrix multiply `O = W_mat * U^T` (Fig. 2c).
//!
//! Unfolding replicates each input element up to `Fy * Fx` times — this is
//! precisely the memory-traffic blow-up that caps the achievable arithmetic
//! intensity of Unfold+GEMM at [`ConvSpec::unfold_ait`] (Sec. 3.1). Here
//! `U` is never materialized: [`ImageOperand`] packs the blocked GEMM's panels of `U`
//! or `U^T` straight from the CHW input, one cache block at a time, so the
//! replication costs L2 traffic rather than a `|U|`-sized matrix streamed
//! through memory. Backward-data's patch-space gradient is still staged
//! (as `E_U^T`, or `E_U` on outputs of few positions); [`fold_rows`] adds
//! it back into the input gradient a channel's plane at a time — `E_U^T`
//! one tap at a time, `E_U` one position at a time.

use spg_gemm::RightOperand;

use crate::split;
use crate::ConvSpec;

/// The unfold matrix `U` (or `U^T`) of one CHW input, as a GEMM
/// [`RightOperand`] that gathers its panels from the input itself.
///
/// Element `(j, p)` of `U^T` — `j = (c * Fy + ky) * Fx + kx` a weight
/// column, `p = y * out_w + x` an output position — is
/// `input[c][y * sy + ky][x * sx + kx]`; `U` holds the same element at
/// `(p, j)`. The packed panels hold exactly the values a dense pack of the
/// materialized matrix would, in the same places, so a multiply over this
/// operand has the bits of one over the materialized unfold.
#[derive(Debug, Clone, Copy)]
pub struct ImageOperand<'a> {
    spec: ConvSpec,
    input: &'a [f32],
    /// `U` (rows are positions) rather than `U^T` (rows are weight columns).
    positions_are_rows: bool,
}

/// The widest register tile's panel width: one panel's columns are at most
/// this many runs of one input row.
const MAX_NR: usize = 32;

impl<'a> ImageOperand<'a> {
    /// `U^T` (`Nc * Fy * Fx` rows × `out_h * out_w` columns): the
    /// forward's right operand, `O = W_mat * U^T`.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != spec.input_shape().len()`.
    pub fn transposed(spec: &ConvSpec, input: &'a [f32]) -> Self {
        assert_eq!(input.len(), spec.input_shape().len(), "input length");
        ImageOperand { spec: *spec, input, positions_are_rows: false }
    }

    /// `U` (`out_h * out_w` rows × `Nc * Fy * Fx` columns): the
    /// backward-weights right operand, `dW = E_O * U`.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != spec.input_shape().len()`.
    pub fn patches(spec: &ConvSpec, input: &'a [f32]) -> Self {
        assert_eq!(input.len(), spec.input_shape().len(), "input length");
        ImageOperand { spec: *spec, input, positions_are_rows: true }
    }

    /// Offset of weight column `j`'s tap from its window's first element.
    fn tap_offset(&self, j: usize) -> usize {
        let s = &self.spec;
        let (c, tap) = (j / (s.ky() * s.kx()), j % (s.ky() * s.kx()));
        (c * s.in_h() + tap / s.kx()) * s.in_w() + tap % s.kx()
    }

    /// Offset of output position `p`'s window's first element.
    fn window_offset(&self, p: usize) -> usize {
        let s = &self.spec;
        (p / s.out_w()) * s.sy() * s.in_w() + (p % s.out_w()) * s.sx()
    }

    /// Packs a block of `U^T`: rows are weight columns, so a panel row is
    /// up to `nr` consecutive positions — runs of one input row at stride
    /// `sx`, the same runs for every weight column of the panel.
    fn pack_transposed(
        &self,
        nr: usize,
        row0: usize,
        col0: usize,
        kc: usize,
        nc: usize,
        panels: &mut [f32],
    ) {
        let (out_w, sx) = (self.spec.out_w(), self.spec.sx());
        for (i, panel) in panels.chunks_exact_mut(kc * nr).enumerate() {
            let (first, cols) = (col0 + i * nr, (nc - i * nr).min(nr));
            // (panel column, window offset, length) of each run.
            let mut runs = [(0, 0, 0); MAX_NR];
            let (mut at, mut n_runs) = (0, 0);
            while at < cols {
                let x = (first + at) % out_w;
                let len = (cols - at).min(out_w - x);
                runs[n_runs] = (at, self.window_offset(first + at), len);
                (at, n_runs) = (at + len, n_runs + 1);
            }
            for (j, dst) in (row0..).zip(panel.chunks_exact_mut(nr)) {
                let tap = self.tap_offset(j);
                for &(at, window, len) in &runs[..n_runs] {
                    let src = &self.input[tap + window..];
                    // Stride 2 gets a copy compiled for its stride.
                    match sx {
                        1 => dst[at..at + len].copy_from_slice(&src[..len]),
                        2 => gather(&mut dst[at..at + len], src, 2),
                        sx => gather(&mut dst[at..at + len], src, sx),
                    }
                }
                dst[cols..].fill(0.0);
            }
        }
    }

    /// Packs a block of `U`: rows are positions, so a panel row is up to
    /// `nr` taps of one window, at offsets the panel computes once.
    fn pack_patches(
        &self,
        nr: usize,
        row0: usize,
        col0: usize,
        kc: usize,
        nc: usize,
        panels: &mut [f32],
    ) {
        for (i, panel) in panels.chunks_exact_mut(kc * nr).enumerate() {
            let (first, cols) = (col0 + i * nr, (nc - i * nr).min(nr));
            let mut taps = [0; MAX_NR];
            for (j, tap) in (first..).zip(&mut taps[..cols]) {
                *tap = self.tap_offset(j);
            }
            let taps = &taps[..cols];
            for (p, dst) in (row0..).zip(panel.chunks_exact_mut(nr)) {
                let window = &self.input[self.window_offset(p)..];
                for (d, &tap) in dst.iter_mut().zip(taps) {
                    *d = window[tap];
                }
                dst[cols..].fill(0.0);
            }
        }
    }
}

impl RightOperand for ImageOperand<'_> {
    fn pack(&self, nr: usize, row0: usize, col0: usize, kc: usize, nc: usize, panels: &mut [f32]) {
        assert!(nr <= MAX_NR, "panel wider than {MAX_NR} columns");
        if self.positions_are_rows {
            self.pack_patches(nr, row0, col0, kc, nc, panels);
        } else {
            self.pack_transposed(nr, row0, col0, kc, nc, panels);
        }
    }
}

/// `dst[x] = src[x * sx]`.
#[inline(always)]
fn gather(dst: &mut [f32], src: &[f32], sx: usize) {
    let src = &src[..(dst.len() - 1) * sx + 1];
    for (x, d) in dst.iter_mut().enumerate() {
        *d = src[x * sx];
    }
}

/// `dst[x * sx] += src[x]` for `x < n`.
#[inline(always)]
fn add_strided(dst: &mut [f32], src: &[f32], n: usize, sx: usize) {
    let dst = &mut dst[..(n - 1) * sx + 1];
    let src = &src[..n];
    for x in 0..n {
        dst[x * sx] += src[x];
    }
}

/// Output positions from which backward-data stages `E_U^T` (a row per
/// tap) rather than `E_U` (a row per position). Measured on a 2-vCPU
/// AVX-512 host, one core, multiply plus fold: a 15x15 output (256 → 384
/// features, 3x3) takes 7.5 ms as `E_U` and 8.9 ms as `E_U^T`, a 17x17 one
/// 11.3 against 11.1 ms, a 16x16 one (64 → 64, 5x5) 1.49 against 1.43 ms;
/// on ImageNet-1K conv1 (51x51) the multiplies tie (58 and 56 ms) and the
/// fold of `E_U` takes 55 ms against 13 for `E_U^T`. Few positions leave
/// most of the register tile's 32 columns empty when they are the
/// multiply's columns; many make the taps of `E_U`, which the fold reads,
/// too far apart to stay in cache.
///
/// Re-timed once `E_U` folded patch-major (same host, one core, medians of
/// 15 over three alternating runs, synthetic operands): the `E_U` fold of
/// the 16x16 layer fell from 0.84-0.90 to 0.44-0.66 ms and CIFAR-10 L1's
/// (4x4, 64 → 64, 5x5) from 83-88 to 32-36 µs. Multiply plus fold then
/// split the runs at 15x15 (`E_U` won one of three), and `E_U^T` won all
/// three at 16x16 (0.57-0.97 against 0.89-1.36 ms) and 17x17 (5.1-7.1
/// against 5.7-8.7 ms). A cheaper `E_U` fold could only move the
/// crossover up, past 16x16, and these numbers do not, so the constant
/// stays.
const TAP_ROWS_FROM: usize = 256;

/// Whether backward-data stages its patch-space gradient as `E_U^T`
/// (`Nc * Fy * Fx` rows × `out_h * out_w` columns) rather than as `E_U`
/// (its transpose) — the layout [`fold_rows`] is then given.
pub fn stages_tap_rows(spec: &ConvSpec) -> bool {
    spec.out_h() * spec.out_w() >= TAP_ROWS_FROM
}

/// Elements of `E_U` a fold part must read before it gets a thread of
/// its own. Measured on a 2-vCPU AVX-512 host: one core folds
/// ImageNet-1K conv1's `E_U^T` (6.2 M elements) at 0.73–0.92 ns an
/// element, so a part of 512 Ki elements is ≥ 0.38 ms — ten forks' worth
/// at the ~35 µs `spg_sync`'s `fork_join` module quotes. At budget 2 conv1's
/// fold splits (4.6–5.7 → 2.6–2.7 ms) and so does conv2's (1.2 M
/// elements, 1.0–1.1 → 0.62–0.64 ms); conv3's (0.28 M) does not.
const FOLD_FLOOR: usize = 512 * 1024;

/// Folds the patch-space gradient `E_U` back into the CHW input gradient
/// (`col2im`, the adjoint of the unfold), on up to `cores` threads.
/// `eu` is `E_U^T` (`Nc * Fy * Fx` rows × `out_h * out_w` columns,
/// row-major) when `tap_rows`, else `E_U` ([`stages_tap_rows`] says which
/// backward-data stages). `grad_in` is overwritten.
///
/// Every input element takes its contributions in ascending output
/// position `(y, x)`, whichever layout arrives. `E_U^T` folds tap-major:
/// each tap `(c, ky, kx)` — a row — adds into channel `c`'s plane alone,
/// the taps going `(ky, kx)` descending, which for any one element is
/// ascending `(y, x)`. `E_U` folds patch-major: positions ascending, each
/// adding one contiguous run of `Fx` taps per `(c, ky)` from its row. So
/// the two layouts' sums are equal to the bit.
/// Channels' planes are disjoint: they are cut, whole planes at a time,
/// into contiguous runs, a thread each, when each run would read at least
/// `FOLD_FLOOR` elements of `E_U`; every element is summed the same way
/// whichever thread holds its plane, so the result does not depend on
/// `cores`. At one core nothing forks.
///
/// # Panics
///
/// Panics if a buffer length does not match the spec.
pub fn fold_rows(spec: &ConvSpec, eu: &[f32], tap_rows: bool, grad_in: &mut [f32], cores: usize) {
    fold_rows_split(spec, eu, tap_rows, grad_in, cores, FOLD_FLOOR);
}

/// [`fold_rows`] with its split floor as a parameter.
fn fold_rows_split(
    spec: &ConvSpec,
    eu: &[f32],
    tap_rows: bool,
    grad_in: &mut [f32],
    cores: usize,
    floor: usize,
) {
    let (out_w, patches) = (spec.out_w(), spec.out_h() * spec.out_w());
    let patch_len = spec.weight_shape().per_feature();
    assert_eq!(eu.len(), patch_len * patches, "E_U length");
    assert_eq!(grad_in.len(), spec.input_shape().len(), "grad_in length");
    let (sy, sx, kx_n, ky_n, in_w) = (spec.sy(), spec.sx(), spec.kx(), spec.ky(), spec.in_w());
    let plane = spec.in_h() * in_w;
    split::for_each_part(grad_in, plane, eu.len(), cores, floor, |c0, planes| {
        planes.fill(0.0);
        if !tap_rows {
            for (p, row) in eu.chunks_exact(patch_len).enumerate() {
                let window = (p / out_w) * sy * in_w + (p % out_w) * sx;
                for (c, gplane) in (c0..).zip(planes.chunks_exact_mut(plane)) {
                    let taps = row[c * ky_n * kx_n..(c + 1) * ky_n * kx_n].chunks_exact(kx_n);
                    for (ky, run) in taps.enumerate() {
                        let dst = &mut gplane[window + ky * in_w..][..kx_n];
                        dst.iter_mut().zip(run).for_each(|(d, g)| *d += g);
                    }
                }
            }
            return;
        }
        for (c, gplane) in (c0..).zip(planes.chunks_exact_mut(plane)) {
            for ky in (0..ky_n).rev() {
                for kx in (0..kx_n).rev() {
                    let tap = &eu[((c * ky_n + ky) * kx_n + kx) * patches..];
                    for y in 0..spec.out_h() {
                        let dst = &mut gplane[(y * sy + ky) * in_w + kx..];
                        let src = &tap[y * out_w..];
                        // Unit stride and stride 2 get loops compiled for them.
                        match sx {
                            1 => add_strided(dst, src, out_w, 1),
                            2 => add_strided(dst, src, out_w, 2),
                            sx => add_strided(dst, src, out_w, sx),
                        }
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn unfold_matches_fig2b() {
        // Fig. 2b setup: 3x3 image, 2 channels, 2x2 kernel; U is 4 x 8.
        let spec = ConvSpec::new(2, 3, 3, 1, 2, 2, 1, 1).unwrap();
        let input: Vec<f32> = (1..=18).map(|i| i as f32).collect();
        let mut panel = vec![f32::NAN; 4 * 8];
        ImageOperand::patches(&spec, &input).pack(8, 0, 0, 4, 8, &mut panel);
        // First patch: channel 0 block [1,2,4,5], channel 1 block [10,11,13,14].
        assert_eq!(panel[..8], [1.0, 2.0, 4.0, 5.0, 10.0, 11.0, 13.0, 14.0]);
        // Last patch (bottom-right).
        assert_eq!(panel[24..], [5.0, 6.0, 8.0, 9.0, 14.0, 15.0, 17.0, 18.0]);
    }

    #[test]
    fn strided_unfold_skips_positions() {
        let spec = ConvSpec::new(1, 1, 5, 1, 1, 1, 1, 2).unwrap();
        let image = ImageOperand::transposed(&spec, &[10.0, 11.0, 12.0, 13.0, 14.0]);
        let mut panel = vec![f32::NAN; 16];
        image.pack(16, 0, 0, 1, 3, &mut panel);
        assert_eq!(panel[..3], [10.0, 12.0, 14.0]);
        assert!(panel[3..].iter().all(|&v| v == 0.0), "padding");
    }

    #[test]
    fn fold_accumulates_overlaps() {
        // 1x3 input, 1x2 kernel, stride 1: middle element overlaps 2 patches.
        let spec = ConvSpec::new(1, 1, 3, 1, 1, 2, 1, 1).unwrap();
        let mut grad_in = [f32::NAN; 3];
        fold_rows(&spec, &[1.0; 4], true, &mut grad_in, 1);
        assert_eq!(grad_in, [1.0, 2.0, 1.0]);
    }

    /// The channel split is a partition of whole planes: at every budget
    /// and from either staged layout — `E_U^T` tap-major, `E_U`
    /// patch-major — the fold is the serial fold of `E_U^T` to the bit
    /// (which is the patch-major oracle's: `tests/properties.rs`).
    #[test]
    fn split_fold_matches_the_serial_fold_at_every_budget() {
        // The ImageNet-1K/22K convs shrunk (channels, features and sides
        // capped; kernel and stride kept), plus strides the nets skip and
        // a 16-position, 64-channel 5x5 layer (the few-position case).
        // Miri interprets smaller ones of the same kinds.
        let specs = if cfg!(miri) {
            vec![
                ConvSpec::new(3, 7, 7, 2, 3, 3, 2, 2),
                ConvSpec::new(4, 8, 8, 2, 5, 5, 1, 1),
                ConvSpec::new(2, 5, 6, 2, 2, 3, 1, 2),
            ]
        } else {
            vec![
                ConvSpec::new(3, 19, 19, 8, 7, 7, 2, 2),
                ConvSpec::new(12, 15, 16, 10, 5, 5, 2, 2),
                ConvSpec::new(10, 8, 8, 12, 3, 3, 1, 1),
                ConvSpec::new(4, 9, 11, 6, 3, 2, 1, 2),
                ConvSpec::new(2, 10, 9, 3, 2, 3, 2, 1),
                ConvSpec::new(3, 23, 23, 2, 11, 11, 4, 4),
                ConvSpec::new(64, 8, 8, 4, 5, 5, 1, 1),
            ]
        };
        for spec in specs.into_iter().map(Result::unwrap) {
            let (taps, patches) = (spec.weight_shape().per_feature(), spec.out_h() * spec.out_w());
            let eut: Vec<f32> =
                (0..taps * patches).map(|i| (i as f32 * 0.61).sin() * 1e3).collect();
            let eu: Vec<f32> =
                (0..taps * patches).map(|i| eut[(i % taps) * patches + i / taps]).collect();
            let mut serial = vec![f32::NAN; spec.input_shape().len()];
            fold_rows_split(&spec, &eut, true, &mut serial, 1, 1);
            for cores in [1, 2, 3, 7] {
                for (staged, tap_rows) in [(&eut, true), (&eu, false)] {
                    let mut grad_in = vec![f32::NAN; spec.input_shape().len()];
                    fold_rows_split(&spec, staged, tap_rows, &mut grad_in, cores, 1);
                    let layout = if tap_rows { "E_U^T" } else { "E_U" };
                    assert_eq!(bits(&grad_in), bits(&serial), "{spec} {layout} at {cores} cores");
                }
            }
        }
    }
}
