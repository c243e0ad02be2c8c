//! Axis-order (data layout) transforms.
//!
//! The paper's sparse backward kernel (Sec. 4.2) performs an explicit data
//! layout transformation before computing: weights and outputs are permuted
//! so the channel dimension `c` is fastest-varying in memory, and the
//! incoming error gradient is permuted so the feature dimension `f` is
//! fastest-varying. This lets each non-zero gradient element multiply a
//! *contiguous* weight vector `W'[f, *]` and accumulate into a contiguous
//! output vector `E_I[y, x, *]` with SIMD.
//!
//! All transforms here are total bijections on the element set; property
//! tests assert the round trips.

use crate::{Shape3, Shape4};

/// Converts a CHW activation `src` to HWC order (channel fastest-varying)
/// in caller-owned `out`: element `(c, y, x)` moves from offset
/// `(c*h + y)*w + x` to offset `(y*w + x)*c_count + c`.
///
/// Allocation-free; the workspace-threaded sparse kernels stage activations
/// through preallocated buffers with this.
///
/// # Panics
///
/// Panics if `src.len()` or `out.len()` differs from `shape.len()`.
///
/// # Example
///
/// ```
/// use spg_tensor::{layout, Shape3};
///
/// let shape = Shape3::new(2, 1, 2); // 2 channels, 1x2 spatial
/// let mut hwc = [0.0; 4];
/// layout::chw_to_hwc_into(&[1.0, 2.0, 3.0, 4.0], shape, &mut hwc);
/// assert_eq!(hwc, [1.0, 3.0, 2.0, 4.0]);
/// ```
pub fn chw_to_hwc_into(src: &[f32], shape: Shape3, out: &mut [f32]) {
    assert_eq!(src.len(), shape.len(), "chw_to_hwc_into: src length mismatch");
    assert_eq!(out.len(), shape.len(), "chw_to_hwc_into: out length mismatch");
    let (c_n, h, w) = (shape.c, shape.h, shape.w);
    for c in 0..c_n {
        for y in 0..h {
            let row = &src[(c * h + y) * w..(c * h + y + 1) * w];
            for (x, &v) in row.iter().enumerate() {
                out[(y * w + x) * c_n + c] = v;
            }
        }
    }
}

/// Converts an HWC activation `src` back to CHW order in caller-owned
/// `out`: the inverse of [`chw_to_hwc_into`].
///
/// # Panics
///
/// Panics if `src.len()` or `out.len()` differs from `shape.len()`.
pub fn hwc_to_chw_into(src: &[f32], shape: Shape3, out: &mut [f32]) {
    assert_eq!(src.len(), shape.len(), "hwc_to_chw_into: src length mismatch");
    assert_eq!(out.len(), shape.len(), "hwc_to_chw_into: out length mismatch");
    let (c_n, h, w) = (shape.c, shape.h, shape.w);
    for y in 0..h {
        for x in 0..w {
            let base = (y * w + x) * c_n;
            for c in 0..c_n {
                out[(c * h + y) * w + x] = src[base + c];
            }
        }
    }
}

/// Permutes weights `src` from `[f, c, ky, kx]` to `[ky, kx, f, c]` order
/// (channel fastest-varying) in caller-owned `out`.
///
/// This is the weight layout the sparse backward kernel multiplies against:
/// for a fixed kernel coordinate `(ky, kx)` and gradient feature `f`, the
/// per-channel weights `W'[ky, kx, f, *]` are contiguous.
///
/// # Panics
///
/// Panics if `src.len()` or `out.len()` differs from `shape.len()`.
pub fn fckk_to_kkfc_into(src: &[f32], shape: Shape4, out: &mut [f32]) {
    assert_eq!(src.len(), shape.len(), "fckk_to_kkfc_into: src length mismatch");
    assert_eq!(out.len(), shape.len(), "fckk_to_kkfc_into: out length mismatch");
    let Shape4 { f: f_n, c: c_n, ky: ky_n, kx: kx_n } = shape;
    for f in 0..f_n {
        for c in 0..c_n {
            for ky in 0..ky_n {
                for kx in 0..kx_n {
                    let from = ((f * c_n + c) * ky_n + ky) * kx_n + kx;
                    let to = ((ky * kx_n + kx) * f_n + f) * c_n + c;
                    out[to] = src[from];
                }
            }
        }
    }
}

/// `buf` resized to `len` elements, all zero, reusing its allocation.
fn zeroed(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    buf.clear();
    buf.resize(len, 0.0);
    buf
}

/// Canonical `[f, c, ky, kx]` weights permuted to `[ky, kx, f, c]`
/// (channel fastest) — what the sparse backward-data kernel reads: for a
/// kernel offset `(ky, kx)` and gradient feature `f`, the per-channel
/// weights `W'[ky, kx, f, *]` are contiguous.
///
/// Built only from canonical weights ([`refresh`](Kkfc::refresh)), so a
/// kernel whose signature takes a `Kkfc` cannot be handed them unpermuted.
/// Empty until the first refresh.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Kkfc(Vec<f32>);

impl Kkfc {
    /// Refills this copy from `fckk` weights of `shape`, reusing its storage.
    ///
    /// # Panics
    ///
    /// Panics if `fckk.len() != shape.len()`.
    pub fn refresh(&mut self, fckk: &[f32], shape: Shape4) {
        fckk_to_kkfc_into(fckk, shape, zeroed(&mut self.0, shape.len()));
    }

    /// The permuted weights.
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Drops the copy (keeping its storage) until the next refresh.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

/// Canonical `[f, c, ky, kx]` weights permuted to `[c][ky][kx][f]`, with
/// the feature axis zero-padded to a multiple of a block of features —
/// what the feature-lane stencil reads: for every kernel tap `(c, ky, kx)`
/// the weights of a block of output features are one aligned run of
/// vectors, loaded once and fanned out over the tile's output positions.
/// The padding lanes multiply to zero and are never stored.
///
/// Built only from canonical weights ([`refresh`](Ckkf::refresh)); empty
/// until the first refresh.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ckkf {
    data: Vec<f32>,
    padded: usize,
}

impl Ckkf {
    /// Refills this copy from `fckk` weights of `shape` with the features
    /// padded to a multiple of `block`, reusing its storage.
    ///
    /// # Panics
    ///
    /// Panics if `fckk.len() != shape.len()` or `block == 0`.
    pub fn refresh(&mut self, fckk: &[f32], shape: Shape4, block: usize) {
        assert_eq!(fckk.len(), shape.len(), "Ckkf::refresh: fckk length mismatch");
        assert!(block > 0, "Ckkf::refresh: empty feature block");
        let Shape4 { f: f_n, c: c_n, ky: ky_n, kx: kx_n } = shape;
        let padded = f_n.div_ceil(block) * block;
        let out = zeroed(&mut self.data, c_n * ky_n * kx_n * padded);
        for f in 0..f_n {
            for c in 0..c_n {
                for ky in 0..ky_n {
                    for kx in 0..kx_n {
                        out[((c * ky_n + ky) * kx_n + kx) * padded + f] =
                            fckk[shape.index(f, c, ky, kx)];
                    }
                }
            }
        }
        self.padded = padded;
    }

    /// Features per tap, padding included: the stride between taps.
    pub fn padded_features(&self) -> usize {
        self.padded
    }

    /// The permuted weights.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Drops the copy (keeping its storage) until the next refresh.
    pub fn clear(&mut self) {
        self.data.clear();
        self.padded = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32).collect()
    }

    fn kkfc(src: &[f32], shape: Shape4) -> Vec<f32> {
        let mut out = vec![0.0; shape.len()];
        fckk_to_kkfc_into(src, shape, &mut out);
        out
    }

    #[test]
    fn chw_hwc_round_trip() {
        let shape = Shape3::new(3, 4, 5);
        let t = iota(shape.len());
        let (mut hwc, mut back) = (vec![0.0; shape.len()], vec![0.0; shape.len()]);
        chw_to_hwc_into(&t, shape, &mut hwc);
        hwc_to_chw_into(&hwc, shape, &mut back);
        assert_eq!(back, t);
    }

    #[test]
    fn chw_to_hwc_places_elements() {
        let shape = Shape3::new(2, 2, 2);
        // CHW: c0 = [0,1,2,3], c1 = [4,5,6,7]
        let t = iota(8);
        let mut hwc = vec![0.0; 8];
        chw_to_hwc_into(&t, shape, &mut hwc);
        // (y=0,x=0) -> [c0, c1] = [0, 4]
        assert_eq!(&hwc[..2], &[0.0, 4.0]);
        // (y=1,x=1) -> [3, 7]
        assert_eq!(&hwc[6..], &[3.0, 7.0]);
    }

    #[test]
    fn weight_permutation_moves_each_weight_to_its_kkfc_index() {
        let shape = Shape4::new(3, 2, 2, 2);
        let t = iota(shape.len());
        let kkfc = kkfc(&t, shape);
        let Shape4 { f: f_n, c: c_n, ky: ky_n, kx: kx_n } = shape;
        for (f, c, ky, kx) in (0..f_n).flat_map(|f| {
            (0..c_n).flat_map(move |c| {
                (0..ky_n).flat_map(move |ky| (0..kx_n).map(move |kx| (f, c, ky, kx)))
            })
        }) {
            let at = ((ky * kx_n + kx) * f_n + f) * c_n + c;
            assert_eq!(kkfc[at], t[shape.index(f, c, ky, kx)]);
        }
    }

    #[test]
    fn weight_permutation_channel_contiguity() {
        let shape = Shape4::new(2, 3, 1, 1);
        // src[f=0] = [0,1,2], src[f=1] = [3,4,5] (over channels)
        let t = iota(shape.len());
        // With ky=kx=0, layout is [f=0 channels..., f=1 channels...]
        assert_eq!(kkfc(&t, shape), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn feature_blocked_weights_pad_each_tap_to_whole_blocks() {
        // 3 features, 2 channels, 1x2 kernel, blocks of 2: 4 features a tap.
        let shape = Shape4::new(3, 2, 1, 2);
        let t = iota(shape.len());
        let mut ckkf = Ckkf::default();
        ckkf.refresh(&t, shape, 2);
        assert_eq!(ckkf.padded_features(), 4);
        // Tap (c=0, kx=0): src[f, 0, 0, 0] = f*4; tap (c=1, kx=1): f*4 + 3.
        assert_eq!(&ckkf.as_slice()[..4], &[0.0, 4.0, 8.0, 0.0]);
        assert_eq!(&ckkf.as_slice()[12..], &[3.0, 7.0, 11.0, 0.0]);
        let mut copy = Kkfc::default();
        copy.refresh(&t, shape);
        assert_eq!(copy.as_slice(), kkfc(&t, shape));
    }
}
