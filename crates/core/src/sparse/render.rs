//! Renders the generated sparse backward kernels as readable pseudo-code,
//! mirroring the paper's Fig. 5b / Fig. 6 illustration of the
//! pointer-shifting composition. Like
//! [`render_tiled_block`](crate::stencil::render_tiled_block), this is for
//! inspection — the executable loop nests live in
//! [`kernel`](crate::sparse::kernel) — but it makes their structure, the
//! register block included, reviewable and testable.

use std::fmt::Write as _;

use spg_check::sparse_block;
use spg_convnet::ConvSpec;

use super::kernel::chunks;

/// The chunks of a run of `n` floats at `lanes` lanes, as vector counts
/// (`16+8+2`).
fn chunk_list(lanes: usize, n: usize) -> String {
    let sizes: Vec<String> = chunks(lanes, n).map(|(_, q, _)| q.to_string()).collect();
    sizes.join("+")
}

/// Emits both phases of the sparse backward the generator produces for
/// `spec` at the given CT-CSR tile width and lane width, as commented
/// pseudo-C.
///
/// # Example
///
/// ```
/// use spg_convnet::ConvSpec;
/// use spg_core::sparse::render_backward_kernel;
///
/// let spec = ConvSpec::square(8, 64, 64, 5, 1);
/// let listing = render_backward_kernel(&spec, 64, 16);
/// assert!(listing.contains("CT-CSR"));
/// assert!(listing.contains("pointer shift"));
/// assert!(listing.contains("backward-weights"));
/// ```
pub fn render_backward_kernel(spec: &ConvSpec, tile_width: usize, lanes: usize) -> String {
    let (nf, nc) = (spec.features(), spec.in_c());
    let (fy, fx) = (spec.ky(), spec.kx());
    let (sy, sx) = (spec.sy(), spec.sx());
    let run = fx * nc;
    let tiles = nf.div_ceil(tile_width.max(1));
    let vectors = sparse_block(lanes);
    let mut out = String::new();
    let mut line = |text: String| {
        let _ = writeln!(out, "{text}");
    };
    line(format!(
        "/* sparse backward kernels: {spec}\n   register block: up to {vectors} accumulators of {lanes} lanes; \
         multiply, then add (never fused) */"
    ));
    line(format!(
        "/* backward-weights: E_O's own CHW rows, no CT-CSR; a {run}-float kx*c run per \
         kernel row, in chunks of {} vectors */",
        chunk_list(lanes, run)
    ));
    line("transform(I, CHW -> HWC);       /* channels fastest */".to_string());
    line(format!("for (f = 0; f < {nf}; ++f) {{"));
    line("  nz = compact(E_O[f], v != 0.0); /* (window offset, v), ascending p */".to_string());
    line(format!("  for (ky = 0; ky < {fy}; ++ky)"));
    line(format!("    for (chunk of 0..{run}) {{   /* accumulators in registers */"));
    line("      acc = 0;".to_string());
    line(format!("      for ((off, v) in nz) acc += v * I[off + ky*IN_W*{nc} + chunk];"));
    line("      dW'[f][ky][chunk] = acc;      /* [f][ky][kx][c] */".to_string());
    line("    }".to_string());
    line("}".to_string());
    line("transform(dW', [f][ky][kx][c] -> FCKK);".to_string());
    line(format!(
        "/* backward-data: E_O stored as CT-CSR: {tiles} column tile(s) of <= {tile_width} \
         features; a {nc}-float E_I row in chunks of {} vectors */",
        chunk_list(lanes, nc)
    ));
    line(format!("transform(W,  FCKK -> KKFC);    /* once per update: W'[ky][kx][f][0..{nc}] */"));
    line("transform(E_O, CHW -> HWC);     /* features fastest */".to_string());
    line(format!("build_ct_csr(E_O, tile_width = {tile_width});"));
    line(format!("for (tile = 0; tile < {tiles}; ++tile)"));
    line(
        "  for (p = 0; p < OUT_H*OUT_W; ++p)     /* y' = p / OUT_W, x' = p % OUT_W */".to_string(),
    );
    line(format!("    for (ky = 0; ky < {fy}; ++ky) for (kx = 0; kx < {fx}; ++kx)"));
    line(format!("      for (chunk of 0..{nc}) {{"));
    line(format!(
        "        /* pointer shift (Eq. 15): E_O[y',x',f] -> E_I[y'*{sy}+ky, x'*{sx}+kx, *] */"
    ));
    line(format!("        acc = E_I[((y'*{sy}+ky)*IN_W + x'*{sx}+kx)*{nc} + chunk];"));
    line("        for ((f, v) in ct_csr_row(tile, p)) /* non-zeros only: goodput */".to_string());
    line(format!("          acc += v * W'[((ky*{fx}+kx)*{nf} + f)*{nc} + chunk];"));
    line("        E_I[...] = acc;".to_string());
    line("      }".to_string());
    line("transform(E_I, HWC -> CHW);".to_string());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The AVX-512 tier's lane width.
    const AVX512: usize = 16;

    #[test]
    fn listing_reflects_geometry() {
        let spec = ConvSpec::new(16, 10, 10, 48, 3, 3, 2, 2).unwrap();
        let listing = render_backward_kernel(&spec, 32, AVX512);
        assert!(listing.contains("2 column tile(s)")); // ceil(48/32)
        assert!(listing.contains("x'*2+kx")); // stride in the pointer shift
        assert!(listing.contains("a 48-float kx*c run")); // 3 x 16 channels
        assert!(listing.contains("in chunks of 2+1 vectors")); // 48 floats, 16 lanes
    }

    #[test]
    fn chunks_follow_the_register_block() {
        let spec = ConvSpec::square(27, 384, 256, 3, 1);
        let wide = render_backward_kernel(&spec, 64, AVX512);
        assert!(wide.contains("768-float kx*c run per kernel row, in chunks of 16+16+16 vectors"));
        assert!(wide.contains("256-float E_I row in chunks of 16 vectors"));
        let narrow = render_backward_kernel(&spec, 64, 8);
        assert!(narrow.contains("E_I row in chunks of 8+8+8+8 vectors"));
    }

    #[test]
    fn single_tile_when_width_covers_features() {
        let spec = ConvSpec::square(8, 20, 4, 3, 1);
        let listing = render_backward_kernel(&spec, 64, AVX512);
        assert!(listing.contains("1 column tile(s)"));
    }

    #[test]
    fn transforms_bracket_each_phase() {
        let spec = ConvSpec::square(8, 8, 2, 3, 1);
        let listing = render_backward_kernel(&spec, 8, AVX512);
        let at = |s: &str| listing.find(s).unwrap_or_else(|| panic!("no {s}"));
        assert!(at("CHW -> HWC") < at("[f][ky][kx][c] -> FCKK"));
        assert!(at("[f][ky][kx][c] -> FCKK") < at("FCKK -> KKFC"));
        assert!(at("FCKK -> KKFC") < at("HWC -> CHW"));
    }
}
