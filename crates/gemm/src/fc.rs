//! Fully-connected kernels at the host's vector width: the forward row
//! dot, the backward row sweep, and the fold of rank-1 gradient records.
//!
//! A fully-connected layer reads every weight once per sample for its
//! forward dot and once more for its input gradient, so at the small
//! per-core batches data-parallel training runs it is bound by the weight
//! stream, not by arithmetic. The kernels here take a *block* of samples
//! per weight row: the row is loaded once and used for every sample of the
//! block, and the forward keeps each sample's partial sums in registers.
//!
//! Each kernel is one source over the [`simd`](crate::simd) vocabulary,
//! run on the tier [`FcKernels::host`] resolves from [`detect_simd_level`]
//! as the GEMM tile is. Every kernel multiplies and then adds (no fused
//! multiply-add) in an order no lane width changes, so every tier computes
//! the portable tier's bits:
//!
//! * the row dot accumulates element `i` into partial sum `i % DOT_LANES`,
//!   folds the [`DOT_LANES`] partial sums by a halving tree (lane `l` takes
//!   in lane `l + 16`, then `l + 8`, ... `l + 1`) and adds the tail past the
//!   last whole block last, in order. The partial sums are `DOT_LANES /
//!   LANES` vectors; the tree adds whole vectors while it spans more than
//!   one, then finishes inside the register;
//! * the sweep and the fold are element-wise: each output element takes one
//!   multiply and one add per row or record, in row or record order, at any
//!   width.

use crate::simd::{detect_simd_level, on_tier, Nest, SimdLevel, Vector};

/// Independent partial sums the row dot keeps in flight: enough to fill the
/// widest vector unit twice over, so the loop is bound by the weight stream
/// and not by one add's latency.
pub const DOT_LANES: usize = 32;

/// Accumulator vectors the fold keeps in registers per pass.
const FOLD_VECTORS: usize = 4;

/// The fully-connected kernels of one instruction-set tier.
///
/// # Example
///
/// ```
/// let fc = spg_gemm::FcKernels::host();
/// let w = [1.0, 2.0, 3.0];
/// let mut out = [0.0; 2];
/// fc.dot(&w, &[1.0, 1.0, 1.0, 0.0, 1.0, 0.0], &mut out);
/// assert_eq!(out, [6.0, 2.0]);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FcKernels {
    level: SimdLevel,
}

impl FcKernels {
    /// The kernels of the widest tier the running CPU has.
    pub fn host() -> FcKernels {
        FcKernels::at(SimdLevel::Avx512Fma)
    }

    /// The kernels of `level`, or of the host's level when that is
    /// narrower — so the kernels always run on this CPU.
    pub(crate) fn at(level: SimdLevel) -> FcKernels {
        FcKernels { level: level.min(detect_simd_level()) }
    }

    /// The forward row dot over a block: `out[s]` becomes the dot product
    /// of the weight row `w` with sample `s`'s input, `xs[s * n..(s + 1) *
    /// n]` for `n = w.len()`. The row is loaded once per group of samples
    /// whose partial sums fit the tier's registers (4 on AVX-512, 2 at 8
    /// lanes).
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != w.len() * out.len()`.
    pub fn dot(&self, w: &[f32], xs: &[f32], out: &mut [f32]) {
        assert_eq!(xs.len(), w.len() * out.len(), "one input row per output");
        on_tier(self.level, Job::Dot { w, xs, out });
    }

    /// The backward row sweep over a block, for `n = w.len()`:
    /// `grads[s * n + c] += deltas[s] * w[c]` — one weight row's share of
    /// every sample's input gradient, the row loaded once for the whole
    /// block.
    ///
    /// # Panics
    ///
    /// Panics if `grads.len() != w.len() * deltas.len()`.
    pub fn sweep(&self, w: &[f32], deltas: &[f32], grads: &mut [f32]) {
        assert_eq!(grads.len(), w.len() * deltas.len(), "one gradient row per delta");
        on_tier(self.level, Job::Sweep { w, deltas, grads });
    }

    /// The record fold: `acc[k] += record[delta_at] * record[x_at + k]` for
    /// every record, in slice order — a run of one weight row of a rank-1
    /// gradient `δ ⊗ x`, summed over samples. Each accumulator vector stays
    /// in a register across all the records.
    ///
    /// # Panics
    ///
    /// Panics if a record is too short for `delta_at` or for `x_at +
    /// acc.len()`.
    pub fn fold(&self, records: &[&[f32]], delta_at: usize, x_at: usize, acc: &mut [f32]) {
        let end = x_at + acc.len();
        assert!(records.iter().all(|r| delta_at < r.len() && end <= r.len()), "record length");
        on_tier(self.level, Job::Fold { records, delta_at, x_at, acc });
    }
}

/// One call of a kernel, with the lengths its entry checked.
enum Job<'a> {
    Dot { w: &'a [f32], xs: &'a [f32], out: &'a mut [f32] },
    Sweep { w: &'a [f32], deltas: &'a [f32], grads: &'a mut [f32] },
    Fold { records: &'a [&'a [f32]], delta_at: usize, x_at: usize, acc: &'a mut [f32] },
}

/// # Safety
///
/// `run`'s contract is the trait's.
impl Nest for Job<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<V: Vector, const L: usize>(self) {
        // SAFETY: the CPU has `V`'s features (this fn's contract), and the
        // entries checked the lengths each kernel reads.
        unsafe {
            match self {
                // DOT_LANES / LANES partial-sum vectors per sample, and the
                // samples sharing the register file while a row streams
                // past: 2 x 4 at 16 lanes, 4 x 2 at 8.
                Job::Dot { w, xs, out } if L == 16 => dot::<V, 2, 4>(w, xs, out),
                Job::Dot { w, xs, out } => dot::<V, 4, 2>(w, xs, out),
                Job::Sweep { w, deltas, grads } => sweep::<V>(w, deltas, grads),
                Job::Fold { records, delta_at, x_at, acc } => {
                    fold::<V>(records, delta_at, x_at, acc)
                }
            }
        }
    }
}

/// The row dot: whole groups of `GROUP` samples, then what is left as one
/// smaller group.
///
/// # Safety
///
/// The running CPU has `V`'s target features, `NV * V::LANES ==
/// DOT_LANES`, and `xs.len() == w.len() * out.len()`.
#[inline(always)]
unsafe fn dot<V: Vector, const NV: usize, const GROUP: usize>(
    w: &[f32],
    xs: &[f32],
    out: &mut [f32],
) {
    let n = w.len();
    for (g, out) in out.chunks_mut(GROUP).enumerate() {
        let xs = &xs[g * GROUP * n..(g * GROUP + out.len()) * n];
        // SAFETY: the caller's contract; a chunk holds at most GROUP (≤ 4)
        // samples.
        unsafe {
            match out.len() {
                4 => dot_group::<V, NV, 4>(w, xs, out),
                3 => dot_group::<V, NV, 3>(w, xs, out),
                2 => dot_group::<V, NV, 2>(w, xs, out),
                _ => dot_group::<V, NV, 1>(w, xs, out),
            }
        }
    }
}

/// `G` row dots sharing every load of `w`: sample `s`'s partial sums live
/// in `acc[s]`, lane `j * LANES + l` of the block in lane `l` of vector
/// `j`, so partial sum `i % DOT_LANES` takes element `i`.
///
/// # Safety
///
/// As [`dot`], with `out.len() == G`.
#[inline(always)]
unsafe fn dot_group<V: Vector, const NV: usize, const G: usize>(
    w: &[f32],
    xs: &[f32],
    out: &mut [f32],
) {
    let (n, lanes) = (w.len(), V::LANES);
    let rows: [&[f32]; G] = std::array::from_fn(|s| &xs[s * n..(s + 1) * n]);
    // SAFETY: the CPU has `V`'s features (the caller's contract); vector
    // j < NV of a DOT_LANES block lies inside the block, NV * LANES being
    // DOT_LANES.
    unsafe {
        let mut acc = [[V::zero(); NV]; G];
        let (w_blocks, tail) = w.as_chunks::<DOT_LANES>();
        for (b, wb) in w_blocks.iter().enumerate() {
            let mut wv = [V::zero(); NV];
            for (j, v) in wv.iter_mut().enumerate() {
                *v = V::load(wb.as_ptr().add(j * lanes));
            }
            for (a, row) in acc.iter_mut().zip(&rows) {
                let xb = &row[b * DOT_LANES..(b + 1) * DOT_LANES];
                for (j, (av, wj)) in a.iter_mut().zip(&wv).enumerate() {
                    *av = av.mul_then_add(*wj, V::load(xb.as_ptr().add(j * lanes)));
                }
            }
        }
        let at = n - tail.len();
        for ((o, mut a), row) in out.iter_mut().zip(acc).zip(&rows) {
            // The tree's whole-vector steps (widths DOT_LANES / 2 down to
            // LANES), then the steps inside the register.
            let mut width = NV / 2;
            while width > 0 {
                for j in 0..width {
                    a[j] = a[j].add(a[j + width]);
                }
                width /= 2;
            }
            let terms = tail.iter().zip(&row[at..]);
            *o = terms.fold(a[0].halving_sum(), |sum, (wi, xi)| sum + wi * xi);
        }
    }
}

/// The row sweep: per vector of the row, one load of `w` serves every
/// sample; a partial last vector goes through a mask.
///
/// # Safety
///
/// The running CPU has `V`'s target features, and `grads.len() == w.len()
/// * deltas.len()`.
#[inline(always)]
unsafe fn sweep<V: Vector>(w: &[f32], deltas: &[f32], grads: &mut [f32]) {
    let (n, lanes) = (w.len(), V::LANES);
    let whole = n - n % lanes;
    // SAFETY: the CPU has `V`'s features (the caller's contract); a vector
    // at `c < whole` is `LANES` floats inside `w` and inside every sample's
    // gradient row, and the tail's mask covers the `n - whole` floats left.
    unsafe {
        for c in (0..whole).step_by(lanes) {
            let wv = V::load(w.as_ptr().add(c));
            for (s, &d) in deltas.iter().enumerate() {
                let g = grads[s * n + c..s * n + c + lanes].as_mut_ptr();
                V::load(g).mul_then_add(V::splat(d), wv).store(g);
            }
        }
        if whole < n {
            let m = V::first(n - whole);
            let wv = V::load_masked(w.as_ptr().add(whole), m);
            for (s, &d) in deltas.iter().enumerate() {
                let g = grads[s * n + whole..(s + 1) * n].as_mut_ptr();
                V::load_masked(g, m).mul_then_add(V::splat(d), wv).store_masked(g, m);
            }
        }
    }
}

/// The record fold: [`FOLD_VECTORS`] accumulator vectors at a time, then
/// single vectors, the last one masked.
///
/// # Safety
///
/// The running CPU has `V`'s target features, and every record holds index
/// `delta_at` and indices `x_at..x_at + acc.len()`.
#[inline(always)]
unsafe fn fold<V: Vector>(records: &[&[f32]], delta_at: usize, x_at: usize, acc: &mut [f32]) {
    let mut at = x_at;
    let mut wide = acc.chunks_exact_mut(FOLD_VECTORS * V::LANES);
    // SAFETY: the caller's contract; each block is `Q * LANES` floats (the
    // last one shorter), read from the records at the block's own offset.
    unsafe {
        for block in &mut wide {
            fold_vectors::<V, FOLD_VECTORS>(records, delta_at, at, block);
            at += block.len();
        }
        for block in wide.into_remainder().chunks_mut(V::LANES) {
            fold_vectors::<V, 1>(records, delta_at, at, block);
            at += block.len();
        }
    }
}

/// `Q` vectors of the accumulator (`block`, `(Q - 1) * LANES` floats plus
/// one to `LANES` more) held in registers while every record adds into
/// them.
///
/// # Safety
///
/// The running CPU has `V`'s target features, every record holds index
/// `delta_at` and indices `x_at..x_at + block.len()`, and `block` has the
/// length above.
#[inline(always)]
unsafe fn fold_vectors<V: Vector, const Q: usize>(
    records: &[&[f32]],
    delta_at: usize,
    x_at: usize,
    block: &mut [f32],
) {
    let lanes = V::LANES;
    let tail = block.len() - (Q - 1) * lanes;
    let masked = |q: usize| q + 1 == Q && tail < lanes;
    // SAFETY: the CPU has `V`'s features (the caller's contract); vector
    // q < Q of `block` and of a record's `x` run is whole, or just the
    // lanes of `m` for a partial last one.
    unsafe {
        let m = V::first(tail);
        let load = |p: *const f32, q: usize| {
            let p = p.add(q * lanes);
            if masked(q) {
                V::load_masked(p, m)
            } else {
                V::load(p)
            }
        };
        let mut a: [V; Q] = std::array::from_fn(|q| load(block.as_ptr(), q));
        for record in records {
            let d = V::splat(record[delta_at]);
            let x = record[x_at..x_at + block.len()].as_ptr();
            for (q, v) in a.iter_mut().enumerate() {
                *v = v.mul_then_add(d, load(x, q));
            }
        }
        for (q, v) in a.iter().enumerate() {
            let p = block.as_mut_ptr().add(q * lanes);
            if masked(q) {
                v.store_masked(p, m);
            } else {
                v.store(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Every tier the host runs, portable first (just the portable one
    /// under Miri or on a host without SIMD).
    fn tiers() -> Vec<(SimdLevel, FcKernels)> {
        [SimdLevel::Scalar, SimdLevel::Avx2Fma, SimdLevel::Avx512Fma]
            .into_iter()
            .filter(|&level| level <= detect_simd_level())
            .map(|level| (level, FcKernels::at(level)))
            .collect()
    }

    fn random(len: usize, rng: &mut SmallRng) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Row lengths around the lane and block sizes, MNIST's FC1 row and the
    /// ImageNet-22K head's; blocks of 1..=9 samples cross every group size.
    fn shapes() -> (&'static [usize], usize) {
        if cfg!(miri) {
            (&[0, 1, 17, 33], 3)
        } else {
            (&[0, 1, 15, 16, 17, 31, 32, 33, 2_880, 48_600], 9)
        }
    }

    /// Every tier gives the portable tier's bits: the row dot, the
    /// backward sweep, and the record fold from the start of a row and
    /// from inside one. The only test that runs the AVX2 tier on an
    /// AVX-512 host.
    #[test]
    fn fc_tiers_are_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(33);
        let (lengths, max_block) = shapes();
        let all = tiers();
        let portable = all[0].1;
        for &n in lengths {
            let w = random(n, &mut rng);
            for k in 1..=max_block {
                let xs = random(k * n, &mut rng);
                let deltas = random(k, &mut rng);
                let g0 = random(k * n, &mut rng);
                let (mut dot_want, mut sweep_want) = (vec![0.0; k], g0.clone());
                portable.dot(&w, &xs, &mut dot_want);
                portable.sweep(&w, &deltas, &mut sweep_want);
                // Records `[δ (3) | x (n)]`: row 1's δ times x, whole and
                // from column 5 (or the middle of a short row) on.
                let records: Vec<Vec<f32>> = (0..k).map(|_| random(3 + n, &mut rng)).collect();
                let records: Vec<&[f32]> = records.iter().map(Vec::as_slice).collect();
                let starts = [0, n.min(5), n / 2];
                let acc0 = random(n, &mut rng);
                let fold_want: Vec<Vec<f32>> = starts
                    .iter()
                    .map(|&c| {
                        let mut acc = acc0[c..].to_vec();
                        portable.fold(&records, 1, 3 + c, &mut acc);
                        acc
                    })
                    .collect();
                for &(level, fc) in &all[1..] {
                    let at = (level, n, k);
                    let mut dot = vec![f32::NAN; k];
                    fc.dot(&w, &xs, &mut dot);
                    assert_eq!(bits(&dot), bits(&dot_want), "dot {at:?}");
                    let mut sweep = g0.clone();
                    fc.sweep(&w, &deltas, &mut sweep);
                    assert_eq!(bits(&sweep), bits(&sweep_want), "sweep {at:?}");
                    for (&c, want) in starts.iter().zip(&fold_want) {
                        let mut acc = acc0[c..].to_vec();
                        fc.fold(&records, 1, 3 + c, &mut acc);
                        assert_eq!(bits(&acc), bits(want), "fold from column {c} {at:?}");
                    }
                }
            }
        }
    }

    /// The portable order, element by element: blocks, tree, tail.
    #[test]
    fn the_portable_dot_is_blocks_then_tree_then_tail() {
        let mut rng = SmallRng::seed_from_u64(34);
        let n = 2 * DOT_LANES + 3;
        let (w, x) = (random(n, &mut rng), random(n, &mut rng));
        let mut lanes = [0.0f32; DOT_LANES];
        for i in 0..2 * DOT_LANES {
            lanes[i % DOT_LANES] += w[i] * x[i];
        }
        for width in [16, 8, 4, 2, 1] {
            for l in 0..width {
                lanes[l] += lanes[l + width];
            }
        }
        let want = (2 * DOT_LANES..n).fold(lanes[0], |sum, i| sum + w[i] * x[i]);
        for (level, fc) in tiers() {
            let mut got = [0.0];
            fc.dot(&w, &x, &mut got);
            assert_eq!(got[0].to_bits(), want.to_bits(), "{level:?}");
        }
    }

    #[test]
    #[should_panic(expected = "record length")]
    fn fold_rejects_a_short_record() {
        FcKernels::host().fold(&[&[1.0, 2.0]], 0, 1, &mut [0.0; 2]);
    }
}
