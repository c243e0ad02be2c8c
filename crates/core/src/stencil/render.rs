//! Renders a stencil basic block as pseudo-C SIMD intrinsics, mirroring the
//! paper's Fig. 7 listing. The emitted text is for inspection and
//! documentation — the executable loop nest is
//! [`spg_codegen::forward_tiled`] — but it makes the "code generator"
//! nature of the framework tangible and testable: [`render_tiled_block`]
//! lists the tile a proved plan executes, [`render_basic_block`] the tile
//! the Sec. 4.3 search models.

use std::fmt::Write as _;

use spg_check::{VerifiedTiled, VECTOR_WIDTH};
use spg_convnet::ConvSpec;

use crate::stencil::{plan_register_tile, RegisterTilePlan};

/// Emits the basic block for one `(f, c)` slice of `spec` under `plan` —
/// the Sec. 4.3 model's tile, on unit-stride 8-lane rows whatever `spec`'s
/// strides — as Fig. 7-style pseudo-C. Each input vector is loaded once and
/// its contributions to every output vector in the register tile are
/// listed.
///
/// # Example
///
/// ```
/// use spg_convnet::ConvSpec;
/// use spg_core::stencil::{plan_register_tile, render_basic_block};
///
/// // The paper's Fig. 7 shape: 1x2 kernel, 1x2 register tile.
/// let spec = ConvSpec::new(1, 64, 64, 1, 2, 1, 1, 1)?;
/// let listing = render_basic_block(&spec, None);
/// assert!(listing.contains("_mm256_loadu_ps"));
/// assert!(listing.contains("_mm256_fmadd_ps"));
/// # Ok::<(), spg_convnet::ConvError>(())
/// ```
pub fn render_basic_block(spec: &ConvSpec, plan: Option<RegisterTilePlan>) -> String {
    let plan = plan.unwrap_or_else(|| plan_register_tile(spec));
    listing(spec, plan.rx, plan.ry, VECTOR_WIDTH, (1, 1))
}

/// Emits the basic block the kernel executes for `tiled` — sequential or
/// banded, a band being a range of the same loop nest: the plan's tile rows
/// by its widest x-tile at its lane width, input rows reused across the
/// spec's `y` stride, taps addressed in the Eq. 21 staging for a phased
/// plan.
pub fn render_tiled_block(tiled: VerifiedTiled<'_>) -> String {
    let spec = tiled.spec();
    let vectors = tiled.x_tiles().iter().map(|t| t.vectors).max().unwrap_or(1);
    let rows = tiled.tile_rows().min(spec.out_h());
    listing(spec, vectors, rows, tiled.lanes(), (spec.sy(), spec.sx()))
}

/// The listing of an `rx`-vector by `ry`-row tile of `lanes`-lane vectors
/// over `spec`'s kernel at strides `(sy, sx)`.
fn listing(
    spec: &ConvSpec,
    rx: usize,
    ry: usize,
    lanes: usize,
    (sy, sx): (usize, usize),
) -> String {
    let (fy, fx) = (spec.ky(), spec.kx());
    let (vec, mm) = if lanes == VECTOR_WIDTH { ("__m256", "_mm256") } else { ("__m512", "_mm512") };
    // Unit x stride reads the input in place; otherwise tap kx is column
    // kx / sx of phase kx % sx in a row of sx phases x PW columns.
    let (src, row_stride) =
        if sx == 1 { ("input", "NX".to_string()) } else { ("staged", format!("({sx}*PW)")) };
    let row = |iy: usize| if sy == 1 { format!("y + {iy}") } else { format!("{sy}*y + {iy}") };
    let mut body = String::new();
    let (mut loads, mut fmas) = (0usize, 0usize);
    for ty in 0..ry {
        for tx in 0..rx {
            let _ = writeln!(body, "{vec} ovec_{ty}_{tx} = {mm}_setzero_ps();");
        }
    }
    for iy in 0..(ry - 1) * sy + fy {
        // Row ty reads input rows ty*sy..ty*sy+fy, so iy feeds the ty with
        // 0 <= iy - ty*sy < fy, within [0, ry).
        let ty_lo = (iy + 1).saturating_sub(fy).div_ceil(sy);
        let ty_hi = (iy / sy).min(ry - 1);
        if ty_lo > ty_hi {
            continue;
        }
        let contributions = ty_hi - ty_lo + 1;
        for kx in 0..fx {
            let tap =
                if sx == 1 { format!("{kx}") } else { format!("{}*PW + {}", kx % sx, kx / sx) };
            for tx in 0..rx {
                let _ = writeln!(
                    body,
                    "/* load input vector {loads}: row {}, tap {kx}, tile col {tx} -> {contributions} contribution(s) */",
                    row(iy)
                );
                let _ = writeln!(
                    body,
                    "{vec} ivec{loads} = {mm}_loadu_ps({src} + ({})*{row_stride} + x + {tx}*{lanes} + {tap});",
                    row(iy)
                );
                for ty in ty_lo..=ty_hi {
                    let ky = iy - ty * sy;
                    let _ = writeln!(
                        body,
                        "ovec_{ty}_{tx} = {mm}_fmadd_ps(ivec{loads}, wvec[{ky}][{kx}], ovec_{ty}_{tx});"
                    );
                    fmas += 1;
                }
                loads += 1;
            }
        }
    }
    let _ = writeln!(body, "/* store register tile */");
    for ty in 0..ry {
        for tx in 0..rx {
            let _ = writeln!(
                body,
                "{mm}_storeu_ps(output + (y + {ty})*OX + x + {tx}*{lanes}, ovec_{ty}_{tx});"
            );
        }
    }
    // The block loads each input vector once: FMAs per load is its reuse.
    format!(
        "/* stencil basic block: {fy}x{fx} kernel, {rx}x{ry} register tile of {lanes}-lane vectors, \
         y stride {sy}\n   {loads} vector loads, {fmas} fmadds per block (reuse {:.2}x) */\n{body}",
        fmas as f64 / loads as f64
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_shape_load_count() {
        // Fig. 7: Fy=2, Fx=1, tile 1x2 -> 3 loads.
        let spec = ConvSpec::new(1, 64, 64, 1, 2, 1, 1, 1).unwrap();
        let plan = RegisterTilePlan { rx: 1, ry: 2, loads_per_block: 3, fmas_per_block: 4 };
        let listing = render_basic_block(&spec, Some(plan));
        assert_eq!(listing.matches("_mm256_loadu_ps").count(), 3);
        assert_eq!(listing.matches("_mm256_fmadd_ps").count(), 4);
        assert_eq!(listing.matches("_mm256_storeu_ps").count(), 2);
    }

    #[test]
    fn counts_match_plan_for_searched_tiles() {
        for (k, n) in [(3usize, 32usize), (5, 32), (2, 16)] {
            let spec = ConvSpec::square(n, 8, 4, k, 1);
            let plan = plan_register_tile(&spec);
            let listing = render_basic_block(&spec, Some(plan));
            assert_eq!(
                listing.matches("_mm256_loadu_ps").count(),
                plan.loads_per_block,
                "kernel {k}"
            );
            assert_eq!(
                listing.matches("_mm256_fmadd_ps").count(),
                plan.fmas_per_block,
                "kernel {k}"
            );
        }
    }

    #[test]
    fn middle_rows_have_max_contributions() {
        // For a 3-tall kernel and tall tile, interior input rows feed 3
        // output rows each.
        let spec = ConvSpec::square(32, 8, 4, 3, 1);
        let listing = render_basic_block(&spec, None);
        assert!(listing.contains("3 contribution(s)"));
    }

    /// The executed tile of a strided plan, sequential or banded: six rows
    /// by the widest x-tile, every one of its `ry * rx * Fy * Fx` FMAs
    /// listed once, input rows shared across the y stride, taps addressed
    /// in the phase staging.
    #[test]
    fn tiled_block_lists_the_tile_the_plan_runs() {
        use crate::compiled::CompiledConv;
        use crate::schedule::{LayerPlan, Technique};
        let spec = ConvSpec::square(69, 8, 3, 7, 2); // 32x32 output
        let plan = LayerPlan { forward: Technique::StencilFp, backward: Technique::GemmInParallel };
        let weights = vec![0.0; spec.weight_shape().len()];
        let generic = spg_codegen::KernelChoice::Generic;
        for cores in [1, 2] {
            let listing = CompiledConv::compile_with_kernel(spec, plan, &weights, cores, generic)
                .expect("stencil plan verifies")
                .render();
            assert!(
                listing.contains("2x6 register tile of 8-lane vectors, y stride 2"),
                "{listing}"
            );
            assert_eq!(listing.matches("_mm256_fmadd_ps").count(), 2 * 6 * 7 * 7);
            assert_eq!(listing.matches("_mm256_loadu_ps").count(), (5 * 2 + 7) * 7 * 2);
            assert_eq!(listing.matches("_mm256_storeu_ps").count(), 12);
            assert!(
                listing.contains("staged + (2*y + 16)*(2*PW) + x + 1*8 + 0*PW + 3"),
                "{listing}"
            );
        }
    }
}
