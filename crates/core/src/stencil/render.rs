//! Renders a stencil basic block as pseudo-C SIMD intrinsics, mirroring the
//! paper's Fig. 7 listing. The emitted text is for inspection and
//! documentation — the executable loop nest is
//! [`spg_codegen::forward_tiled`] — but it makes the "code generator"
//! nature of the framework tangible and testable: [`render_tiled_block`]
//! lists the tile a proved plan executes, [`render_basic_block`] the tile
//! the Sec. 4.3 search models.

use std::fmt::Write as _;

use spg_check::{RegisterTile, VerifiedTiled, VECTOR_WIDTH};
use spg_convnet::ConvSpec;

use crate::stencil::{plan_register_tile, RegisterTilePlan};

/// Emits the basic block for one `(c)` slice of `spec` under `plan` — the
/// Sec. 4.3 search's tile at the generic instance's 8 lanes by default —
/// as Fig. 7-style pseudo-C. Each weight vector and each broadcast input
/// value is loaded once and its contributions to every accumulator in the
/// register tile are listed. A one-wide output row fits no tile; its
/// listing says so.
///
/// # Example
///
/// ```
/// use spg_convnet::ConvSpec;
/// use spg_core::stencil::render_basic_block;
///
/// // The paper's Fig. 7 kernel shape: 2x1, here over 8 features.
/// let spec = ConvSpec::new(1, 64, 64, 8, 2, 1, 1, 1)?;
/// let listing = render_basic_block(&spec, None);
/// assert!(listing.contains("_mm256_loadu_ps"));
/// assert!(listing.contains("_mm256_fmadd_ps"));
/// # Ok::<(), spg_convnet::ConvError>(())
/// ```
pub fn render_basic_block(spec: &ConvSpec, plan: Option<RegisterTilePlan>) -> String {
    match plan.or_else(|| plan_register_tile(spec, VECTOR_WIDTH)) {
        Some(plan) => listing(spec, plan.tile, plan.lanes),
        None => format!("/* no register tile fits a {}-wide output row */\n", spec.out_w()),
    }
}

/// Emits the basic block the kernel executes for `tiled` — sequential or
/// banded, a band being a range of the same loop nest: the plan's
/// register tile at its lane width, inputs broadcast at the spec's `x`
/// stride straight from the CHW input.
pub fn render_tiled_block(tiled: VerifiedTiled<'_>) -> String {
    listing(tiled.spec(), tiled.tile(), tiled.lanes())
}

/// The listing of an `nx`-position by `nfv`-vector tile of `lanes`-lane
/// feature vectors over `spec`'s kernel: per tap, the weight vectors, then
/// each position's broadcast and its FMAs.
fn listing(spec: &ConvSpec, RegisterTile { nx, nfv }: RegisterTile, lanes: usize) -> String {
    let (fy, fx, sy, sx) = (spec.ky(), spec.kx(), spec.sy(), spec.sx());
    let (vec, mm) = if lanes == VECTOR_WIDTH { ("__m256", "_mm256") } else { ("__m512", "_mm512") };
    let row = |ky: usize| if sy == 1 { format!("y + {ky}") } else { format!("{sy}*y + {ky}") };
    let col = |i: usize, kx: usize| {
        if sx == 1 {
            format!("x + {}", i + kx)
        } else {
            format!("{sx}*(x + {i}) + {kx}")
        }
    };
    let mut body = String::new();
    let (mut loads, mut fmas) = (0usize, 0usize);
    for i in 0..nx {
        for v in 0..nfv {
            let _ = writeln!(body, "{vec} acc_{i}_{v} = {mm}_setzero_ps();");
        }
    }
    for ky in 0..fy {
        for kx in 0..fx {
            let _ =
                writeln!(body, "/* tap ({ky}, {kx}): {nfv} weight vector(s), {nx} broadcast(s) */");
            for v in 0..nfv {
                let _ = writeln!(
                    body,
                    "{vec} w{v} = {mm}_loadu_ps(weights + ({ky}*{fx} + {kx})*FP + f + {v}*{lanes});"
                );
                loads += 1;
            }
            for i in 0..nx {
                let _ = writeln!(
                    body,
                    "{vec} x{i} = {mm}_set1_ps(input[({})*NX + {}]);",
                    row(ky),
                    col(i, kx)
                );
                loads += 1;
                for v in 0..nfv {
                    let _ = writeln!(body, "acc_{i}_{v} = {mm}_fmadd_ps(x{i}, w{v}, acc_{i}_{v});");
                    fmas += 1;
                }
            }
        }
    }
    let _ = writeln!(
        body,
        "/* store register tile: lane l of acc_i_v is feature f + v*{lanes} + l at (y, x + i) */"
    );
    for i in 0..nx {
        for v in 0..nfv {
            let _ = writeln!(body, "{mm}_storeu_ps(spill[{i}][{v}], acc_{i}_{v});");
        }
    }
    format!(
        "/* stencil basic block: {fy}x{fx} kernel, {nx}x{nfv} register tile of {lanes}-lane \
         feature vectors, x stride {sx}\n   {loads} vector loads, {fmas} fmadds per block (reuse \
         {:.2}x) */\n{body}",
        fmas as f64 / loads as f64
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_shape_load_count() {
        // Fig. 7's 2x1 kernel over a 2-position by 1-vector tile: per tap
        // one weight vector and two broadcasts.
        let spec = ConvSpec::new(1, 64, 64, 8, 2, 1, 1, 1).unwrap();
        let tile = RegisterTile { nx: 2, nfv: 1 };
        let plan =
            RegisterTilePlan { tile, lanes: 8, loads_per_block: 6, fmas_per_block: 4, row_cost: 0 };
        let listing = render_basic_block(&spec, Some(plan));
        assert_eq!(listing.matches("_mm256_loadu_ps").count(), 2);
        assert_eq!(listing.matches("_mm256_set1_ps").count(), 4);
        assert_eq!(listing.matches("_mm256_fmadd_ps").count(), 4);
        assert_eq!(listing.matches("_mm256_storeu_ps").count(), 2);
    }

    #[test]
    fn counts_match_plan_for_searched_tiles() {
        for (k, n, f) in [(3usize, 32usize, 8usize), (5, 32, 40), (2, 16, 64)] {
            let spec = ConvSpec::square(n, f, 4, k, 1);
            for lanes in [8, 16] {
                let plan = plan_register_tile(&spec, lanes).expect("a tile fits the row");
                let listing = render_basic_block(&spec, Some(plan));
                let mm = if lanes == 8 { "_mm256" } else { "_mm512" };
                let loads = listing.matches(&format!("{mm}_loadu_ps")).count()
                    + listing.matches(&format!("{mm}_set1_ps")).count();
                assert_eq!(loads, plan.loads_per_block, "kernel {k}, {lanes} lanes");
                let fmas = listing.matches(&format!("{mm}_fmadd_ps")).count();
                assert_eq!(fmas, plan.fmas_per_block, "kernel {k}, {lanes} lanes");
            }
        }
    }

    /// The executed tile of a strided plan, sequential or banded: the
    /// plan's tile, every one of its `nx * nfv * Fy * Fx` FMAs listed once,
    /// inputs broadcast at the x stride from the CHW input.
    #[test]
    fn tiled_block_lists_the_tile_the_plan_runs() {
        use crate::compiled::CompiledConv;
        use crate::schedule::{LayerPlan, Technique};
        let spec = ConvSpec::square(69, 64, 3, 7, 2); // 32x32 output, 8 vectors
        let plan = LayerPlan { forward: Technique::StencilFp, backward: Technique::GemmInParallel };
        let weights = vec![0.0; spec.weight_shape().len()];
        let generic = spg_codegen::KernelChoice::Generic;
        for cores in [1, 2] {
            let listing = CompiledConv::compile_with_kernel(spec, plan, &weights, cores, generic)
                .expect("stencil plan verifies")
                .render();
            assert!(
                listing.contains(
                    "7x7 kernel, 4x2 register tile of 8-lane feature vectors, x stride 2"
                ),
                "{listing}"
            );
            assert_eq!(listing.matches("_mm256_fmadd_ps").count(), 4 * 2 * 7 * 7);
            assert_eq!(listing.matches("_mm256_loadu_ps").count(), 2 * 7 * 7);
            assert_eq!(listing.matches("_mm256_set1_ps").count(), 4 * 7 * 7);
            assert_eq!(listing.matches("_mm256_storeu_ps").count(), 8);
            assert!(listing.contains("input[(2*y + 6)*NX + 2*(x + 3) + 5]"), "{listing}");
        }
    }
}
