//! **Sparse-Kernel (BP)** — goodput-oriented backward propagation
//! (paper Sec. 4.2).
//!
//! After the first couple of training epochs, 85–95 % of backward error
//! gradients are zero (Fig. 3b), so a dense GEMM spends most of its cycles
//! multiplying zeros: high throughput, low *goodput*. Off-the-shelf sparse
//! GEMM only wins when both operands are >95 % sparse; CNN backward
//! passes multiply a *moderately sparse* gradient by a dense weight or
//! activation tensor.
//!
//! The paper's kernel — implemented in [`kernel`] — works as follows:
//!
//! 1. **Layout transforms**: weights are permuted to `[ky, kx, f, c]`
//!    (channels fastest; once per update, by whoever owns them) and
//!    activations/gradients to HWC (per sample), so every non-zero
//!    gradient element multiplies *contiguous* channel vectors.
//! 2. **CT-CSR**: backward-data stores the gradient matrix (spatial
//!    positions × features) column-tiled (Fig. 5a) for cache and TLB
//!    locality. Backward-weights needs no such build: `E_O`'s own CHW row
//!    `f` already lists feature `f`'s positions in ascending order.
//! 3. **Pointer shifting** (Eq. 11–15, Fig. 6): instead of unfolding, each
//!    non-zero `E_O[y', x', f]` meets `W'[ky, kx, f, *]` at
//!    `E_I[y'*sy + ky, x'*sx + kx, *]` for every kernel offset — composing
//!    the sparse convolution as a series of small dense multiplies
//!    computed in place.
//! 4. **Register blocking at the host's vector width**: both phases hold
//!    their accumulators in vector registers across a list of non-zeros —
//!    backward-data the `c`-long `E_I` row a shift lands on, across one
//!    CT-CSR row; backward-weights a chunk of feature `f`'s `kx·c`-long
//!    gradient run, across all of `f`'s non-zeros. One loop nest per
//!    phase runs on a portable, an AVX2 and an AVX-512F tier; every tier
//!    multiplies then adds in the unblocked loops' order, so the bits are
//!    the same on every host (`tests/sparse_words.rs`).
//!
//! All transform and format-construction costs happen inside the kernel
//! calls, as in the paper's measurements.

pub mod kernel;

mod render;

pub use render::render_backward_kernel;

/// Default CT-CSR column-tile width (features per tile) of backward-data.
/// 64 channels of f32 per weight slab keeps a tile's working set within
/// L1/L2 reach.
pub const DEFAULT_TILE_WIDTH: usize = 64;
