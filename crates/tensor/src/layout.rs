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

use crate::{Shape3, Shape4, Tensor, TensorError};

/// Converts a CHW activation tensor to HWC order (channel fastest-varying).
///
/// Element `(c, y, x)` moves from offset `(c*h + y)*w + x` to offset
/// `(y*w + x)*c_count + c`.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if `src.len() != shape.len()`.
///
/// # Example
///
/// ```
/// use spg_tensor::{layout, Shape3, Tensor};
///
/// let shape = Shape3::new(2, 1, 2); // 2 channels, 1x2 spatial
/// let chw = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
/// let hwc = layout::chw_to_hwc(&chw, shape)?;
/// assert_eq!(hwc.as_slice(), &[1.0, 3.0, 2.0, 4.0]);
/// # Ok::<(), spg_tensor::TensorError>(())
/// ```
pub fn chw_to_hwc(src: &Tensor, shape: Shape3) -> Result<Tensor, TensorError> {
    check_len(src.len(), shape.len())?;
    let mut out = vec![0.0f32; src.len()];
    chw_to_hwc_into(src.as_slice(), shape, &mut out);
    Ok(Tensor::from_vec(out))
}

/// Slice-based [`chw_to_hwc`] writing into caller-owned storage.
///
/// Allocation-free; the workspace-threaded sparse kernels stage activations
/// through preallocated buffers with this.
///
/// # Panics
///
/// Panics if `src.len()` or `out.len()` differs from `shape.len()`.
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

/// Converts an HWC activation tensor back to CHW order.
///
/// Inverse of [`chw_to_hwc`].
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if `src.len() != shape.len()`.
pub fn hwc_to_chw(src: &Tensor, shape: Shape3) -> Result<Tensor, TensorError> {
    check_len(src.len(), shape.len())?;
    let mut out = vec![0.0f32; src.len()];
    hwc_to_chw_into(src.as_slice(), shape, &mut out);
    Ok(Tensor::from_vec(out))
}

/// Slice-based [`hwc_to_chw`] writing into caller-owned storage.
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

/// Permutes a weight tensor from `[f, c, ky, kx]` to `[ky, kx, f, c]` order
/// (channel fastest-varying).
///
/// This is the weight layout the sparse backward kernel multiplies against:
/// for a fixed kernel coordinate `(ky, kx)` and gradient feature `f`, the
/// per-channel weights `W'[ky, kx, f, *]` are contiguous.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if `src.len() != shape.len()`.
pub fn fckk_to_kkfc(src: &Tensor, shape: Shape4) -> Result<Tensor, TensorError> {
    check_len(src.len(), shape.len())?;
    let mut out = vec![0.0f32; src.len()];
    fckk_to_kkfc_into(src.as_slice(), shape, &mut out);
    Ok(Tensor::from_vec(out))
}

/// Slice-based [`fckk_to_kkfc`] writing into caller-owned storage.
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

/// Permutes a weight tensor from `[ky, kx, f, c]` back to `[f, c, ky, kx]`.
///
/// Inverse of [`fckk_to_kkfc`].
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if `src.len() != shape.len()`.
pub fn kkfc_to_fckk(src: &Tensor, shape: Shape4) -> Result<Tensor, TensorError> {
    check_len(src.len(), shape.len())?;
    let mut out = vec![0.0f32; src.len()];
    kkfc_to_fckk_into(src.as_slice(), shape, &mut out);
    Ok(Tensor::from_vec(out))
}

/// Slice-based [`kkfc_to_fckk`] writing into caller-owned storage.
///
/// # Panics
///
/// Panics if `src.len()` or `out.len()` differs from `shape.len()`.
pub fn kkfc_to_fckk_into(src: &[f32], shape: Shape4, out: &mut [f32]) {
    assert_eq!(src.len(), shape.len(), "kkfc_to_fckk_into: src length mismatch");
    assert_eq!(out.len(), shape.len(), "kkfc_to_fckk_into: out length mismatch");
    let Shape4 { f: f_n, c: c_n, ky: ky_n, kx: kx_n } = shape;
    for ky in 0..ky_n {
        for kx in 0..kx_n {
            for f in 0..f_n {
                for c in 0..c_n {
                    let from = ((ky * kx_n + kx) * f_n + f) * c_n + c;
                    let to = ((f * c_n + c) * ky_n + ky) * kx_n + kx;
                    out[to] = src[from];
                }
            }
        }
    }
}

/// Permutes a weight tensor from `[f, c, ky, kx]` into `[ky][kx]` blocks of
/// `(Nc x Nf)` matrices (feature fastest-varying) — the right-hand operands
/// of the narrow-output stencil's shifted small dense multiplies, one block
/// per kernel offset.
///
/// # Panics
///
/// Panics if `src.len()` or `out.len()` differs from `shape.len()`.
pub fn narrow_weights_into(src: &[f32], shape: Shape4, out: &mut [f32]) {
    assert_eq!(src.len(), shape.len(), "narrow_weights_into: src length mismatch");
    assert_eq!(out.len(), shape.len(), "narrow_weights_into: out length mismatch");
    let Shape4 { f: f_n, c: c_n, ky: ky_n, kx: kx_n } = shape;
    for f in 0..f_n {
        for c in 0..c_n {
            for ky in 0..ky_n {
                for kx in 0..kx_n {
                    out[((ky * kx_n + kx) * c_n + c) * f_n + f] = src[shape.index(f, c, ky, kx)];
                }
            }
        }
    }
}

fn check_len(actual: usize, expected: usize) -> Result<(), TensorError> {
    if actual != expected {
        Err(TensorError::LengthMismatch { expected, actual })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota(n: usize) -> Tensor {
        (0..n).map(|i| i as f32).collect()
    }

    #[test]
    fn chw_hwc_round_trip() {
        let shape = Shape3::new(3, 4, 5);
        let t = iota(shape.len());
        let hwc = chw_to_hwc(&t, shape).unwrap();
        let back = hwc_to_chw(&hwc, shape).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn chw_to_hwc_places_elements() {
        let shape = Shape3::new(2, 2, 2);
        // CHW: c0 = [0,1,2,3], c1 = [4,5,6,7]
        let t = iota(8);
        let hwc = chw_to_hwc(&t, shape).unwrap();
        // (y=0,x=0) -> [c0, c1] = [0, 4]
        assert_eq!(&hwc.as_slice()[..2], &[0.0, 4.0]);
        // (y=1,x=1) -> [3, 7]
        assert_eq!(&hwc.as_slice()[6..], &[3.0, 7.0]);
    }

    #[test]
    fn weight_permutation_round_trip() {
        let shape = Shape4::new(3, 2, 2, 2);
        let t = iota(shape.len());
        let kkfc = fckk_to_kkfc(&t, shape).unwrap();
        let back = kkfc_to_fckk(&kkfc, shape).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn weight_permutation_channel_contiguity() {
        let shape = Shape4::new(2, 3, 1, 1);
        // src[f=0] = [0,1,2], src[f=1] = [3,4,5] (over channels)
        let t = iota(shape.len());
        let kkfc = fckk_to_kkfc(&t, shape).unwrap();
        // With ky=kx=0, layout is [f=0 channels..., f=1 channels...]
        assert_eq!(kkfc.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn narrow_weights_are_feature_contiguous_per_offset() {
        let shape = Shape4::new(2, 3, 1, 2);
        let t = iota(shape.len());
        let mut kkcf = vec![0.0f32; shape.len()];
        narrow_weights_into(t.as_slice(), shape, &mut kkcf);
        // Block kx=0: rows c=0..3 of [f=0, f=1]; src[f, c, 0, kx] = (f*3 + c)*2 + kx.
        assert_eq!(&kkcf[..6], &[0.0, 6.0, 2.0, 8.0, 4.0, 10.0]);
        assert_eq!(&kkcf[6..], &[1.0, 7.0, 3.0, 9.0, 5.0, 11.0]);
    }

    #[test]
    fn into_variants_match_allocating_transforms() {
        let shape = Shape3::new(3, 2, 4);
        let t = iota(shape.len());
        let mut buf = vec![0.0f32; shape.len()];
        chw_to_hwc_into(t.as_slice(), shape, &mut buf);
        assert_eq!(buf, chw_to_hwc(&t, shape).unwrap().into_vec());
        let mut back = vec![0.0f32; shape.len()];
        hwc_to_chw_into(&buf, shape, &mut back);
        assert_eq!(back, t.into_vec());

        let wshape = Shape4::new(2, 3, 2, 2);
        let w = iota(wshape.len());
        let mut kkfc = vec![0.0f32; wshape.len()];
        fckk_to_kkfc_into(w.as_slice(), wshape, &mut kkfc);
        assert_eq!(kkfc, fckk_to_kkfc(&w, wshape).unwrap().into_vec());
        let mut fckk = vec![0.0f32; wshape.len()];
        kkfc_to_fckk_into(&kkfc, wshape, &mut fckk);
        assert_eq!(fckk, w.into_vec());
    }

    #[test]
    fn length_mismatch_rejected() {
        let shape = Shape3::new(2, 2, 2);
        let t = iota(7);
        assert!(chw_to_hwc(&t, shape).is_err());
        assert!(hwc_to_chw(&t, shape).is_err());
        let w = Shape4::new(2, 2, 2, 2);
        assert!(fckk_to_kkfc(&t, w).is_err());
        assert!(kkfc_to_fckk(&t, w).is_err());
    }
}
