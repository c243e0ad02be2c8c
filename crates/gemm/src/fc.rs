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
//! There is one source per instruction-set tier — a portable one, AVX2 with
//! 8 lanes, AVX-512F with 16 — resolved by [`FcKernels::host`] from
//! [`detect_simd_level`] as the GEMM tile is. Every tier multiplies and then
//! adds (no fused multiply-add) and keeps the portable source's order of
//! additions, so every tier computes the portable source's bits:
//!
//! * the row dot accumulates element `i` into partial sum `i % DOT_LANES`,
//!   folds the [`DOT_LANES`] partial sums by a halving tree (lane `l` takes
//!   in lane `l + 16`, then `l + 8`, ... `l + 1`) and adds the tail past the
//!   last whole block last, in order. The SIMD tiers hold the partial sums
//!   as 2 ZMM or 4 YMM registers, and the tree is the same pairs of lanes;
//! * the sweep and the fold are element-wise: each output element takes one
//!   multiply and one add per row or record, in row or record order, at any
//!   width.

use crate::kernels::{detect_simd_level, SimdLevel};

/// Independent partial sums the row dot keeps in flight: enough to fill the
/// widest vector unit twice over, so the loop is bound by the weight stream
/// and not by one add's latency.
pub const DOT_LANES: usize = 32;

/// `out[s] = dot(w, xs[s * n..(s + 1) * n])` for every `s < out.len()`,
/// where `n = w.len()`.
///
/// # Safety
///
/// The running CPU has the target features of the kernel's tier, and
/// `xs.len() == w.len() * out.len()`.
type DotFn = unsafe fn(&[f32], &[f32], &mut [f32]);

/// `grads[s * n + c] += deltas[s] * w[c]`, where `n = w.len()`.
///
/// # Safety
///
/// The running CPU has the target features of the kernel's tier, and
/// `grads.len() == w.len() * deltas.len()`.
type SweepFn = unsafe fn(&[f32], &[f32], &mut [f32]);

/// `acc[k] += record[delta_at] * record[x_at + k]` for every record, in
/// slice order.
///
/// # Safety
///
/// The running CPU has the target features of the kernel's tier, and every
/// record holds index `delta_at` and indices `x_at..x_at + acc.len()`.
type FoldFn = unsafe fn(&[&[f32]], usize, usize, &mut [f32]);

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
    dot: DotFn,
    sweep: SweepFn,
    fold: FoldFn,
}

impl FcKernels {
    /// The kernels of the widest tier the running CPU has.
    pub fn host() -> FcKernels {
        FcKernels::at(SimdLevel::Avx512Fma)
    }

    /// The kernels of `level`, or of the host's level when that is
    /// narrower — so the kernels always run on this CPU.
    pub(crate) fn at(level: SimdLevel) -> FcKernels {
        match level.min(detect_simd_level()) {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512Fma => {
                FcKernels { dot: avx512::dot, sweep: avx512::sweep, fold: avx512::fold }
            }
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2Fma => {
                FcKernels { dot: avx2::dot, sweep: avx2::sweep, fold: avx2::fold }
            }
            _ => FcKernels { dot: portable::dot, sweep: portable::sweep, fold: portable::fold },
        }
    }

    /// The forward row dot over a block: `out[s]` becomes the dot product
    /// of the weight row `w` with sample `s`'s input, `xs[s * n..(s + 1) *
    /// n]` for `n = w.len()`. The row is loaded once per group of samples
    /// whose partial sums fit the tier's registers (4 on AVX-512, 2 on
    /// AVX2).
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != w.len() * out.len()`.
    pub fn dot(&self, w: &[f32], xs: &[f32], out: &mut [f32]) {
        assert_eq!(xs.len(), w.len() * out.len(), "one input row per output");
        // SAFETY: `at` pairs a SIMD kernel only with a level the running
        // CPU reports, and the lengths were checked above.
        unsafe { (self.dot)(w, xs, out) }
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
        // SAFETY: as in `dot`.
        unsafe { (self.sweep)(w, deltas, grads) }
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
        // SAFETY: as in `dot`.
        unsafe { (self.fold)(records, delta_at, x_at, acc) }
    }
}

/// The portable tier: the order every tier reproduces, spelled as plain
/// loops.
mod portable {
    use super::DOT_LANES;

    /// One row dot: partial sums over whole blocks of [`DOT_LANES`], the
    /// halving tree, then the tail in order.
    fn row_dot(w: &[f32], x: &[f32]) -> f32 {
        let (blocks_w, blocks_x) = (w.chunks_exact(DOT_LANES), x.chunks_exact(DOT_LANES));
        let (tail_w, tail_x) = (blocks_w.remainder(), blocks_x.remainder());
        let mut acc = [0.0f32; DOT_LANES];
        for (bw, bx) in blocks_w.zip(blocks_x) {
            for ((a, wi), xi) in acc.iter_mut().zip(bw).zip(bx) {
                *a += wi * xi;
            }
        }
        let mut width = DOT_LANES / 2;
        while width > 0 {
            let (lo, hi) = acc.split_at_mut(width);
            for (l, h) in lo.iter_mut().zip(hi.iter()) {
                *l += h;
            }
            width /= 2;
        }
        tail_w.iter().zip(tail_x).fold(acc[0], |sum, (wi, xi)| sum + wi * xi)
    }

    pub(super) fn dot(w: &[f32], xs: &[f32], out: &mut [f32]) {
        let n = w.len();
        for (s, o) in out.iter_mut().enumerate() {
            *o = row_dot(w, &xs[s * n..(s + 1) * n]);
        }
    }

    pub(super) fn sweep(w: &[f32], deltas: &[f32], grads: &mut [f32]) {
        let n = w.len();
        for (s, &d) in deltas.iter().enumerate() {
            for (g, wi) in grads[s * n..(s + 1) * n].iter_mut().zip(w) {
                *g += d * wi;
            }
        }
    }

    pub(super) fn fold(records: &[&[f32]], delta_at: usize, x_at: usize, acc: &mut [f32]) {
        let end = x_at + acc.len();
        for record in records {
            let d = record[delta_at];
            for (a, xi) in acc.iter_mut().zip(&record[x_at..end]) {
                *a += d * xi;
            }
        }
    }
}

/// The last three steps of the dot's halving tree (widths 4, 2, 1) on the
/// 8 lanes left after the wider steps, returning lane 0.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn tree_8(v8: std::arch::x86_64::__m256) -> f32 {
    use std::arch::x86_64::*;
    let v4 = _mm_add_ps(_mm256_castps256_ps128(v8), _mm256_extractf128_ps::<1>(v8));
    let v2 = _mm_add_ps(v4, _mm_movehl_ps(v4, v4));
    _mm_cvtss_f32(_mm_add_ss(v2, _mm_shuffle_ps::<0b01>(v2, v2)))
}

/// The dot's halving tree over 4 YMM registers (lanes 0-7, 8-15, 16-23,
/// 24-31).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tree_avx2(acc: &[std::arch::x86_64::__m256; 4]) -> f32 {
    use std::arch::x86_64::*;
    // Width 16: lanes 0-15 take in lanes 16-31; width 8: 0-7 take 8-15.
    let (lo, hi) = (_mm256_add_ps(acc[0], acc[2]), _mm256_add_ps(acc[1], acc[3]));
    tree_8(_mm256_add_ps(lo, hi))
}

/// The dot's halving tree over 2 ZMM registers (lanes 0-15, 16-31).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2")]
fn tree_avx512(acc: &[std::arch::x86_64::__m512; 2]) -> f32 {
    use std::arch::x86_64::*;
    // Width 16: lanes 0-15 take in lanes 16-31; width 8: 0-7 take 8-15.
    let v16 = _mm512_add_ps(acc[0], acc[1]);
    let hi = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(v16)));
    tree_8(_mm256_add_ps(_mm512_castps512_ps256(v16), hi))
}

#[cfg(target_arch = "x86_64")]
macro_rules! define_fc_tier {
    (
        module: $mod_:ident,
        feature: $feat:literal,
        lanes: $lanes:literal,
        group: $group:literal,
        tree: $tree:ident,
        setzero: $setzero:ident,
        loadu: $loadu:ident,
        storeu: $storeu:ident,
        set1: $set1:ident,
        add: $add:ident,
        mul: $mul:ident
    ) => {
        mod $mod_ {
            use std::arch::x86_64::*;

            use super::DOT_LANES;

            /// f32 lanes per vector for this instruction set.
            const LANES: usize = $lanes;

            /// Vectors holding one sample's [`DOT_LANES`] partial sums.
            const NV: usize = DOT_LANES / LANES;

            /// Samples whose partial sums share the register file while one
            /// weight row streams past: `GROUP * NV` accumulators plus `NV`
            /// weight vectors.
            const GROUP: usize = $group;

            /// Accumulator vectors the fold keeps in registers per pass.
            const FOLD_VECTORS: usize = 4;

            /// The [`DotFn`](super::DotFn) of this tier: whole groups of
            /// samples, then what is left as one smaller group.
            ///
            /// # Safety
            ///
            /// The running CPU has this module's target features.
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn dot(w: &[f32], xs: &[f32], out: &mut [f32]) {
                let n = w.len();
                for (g, out) in out.chunks_mut(GROUP).enumerate() {
                    let xs = &xs[g * GROUP * n..(g * GROUP + out.len()) * n];
                    // A chunk holds at most GROUP (≤ 4) samples.
                    match out.len() {
                        4 => dot_group::<4>(w, xs, out),
                        3 => dot_group::<3>(w, xs, out),
                        2 => dot_group::<2>(w, xs, out),
                        _ => dot_group::<1>(w, xs, out),
                    }
                }
            }

            /// `G` row dots sharing every load of `w`: sample `s`'s partial
            /// sums live in `acc[s]`, lane `j * LANES + l` of the block in
            /// lane `l` of vector `j`, so partial sum `i % DOT_LANES` takes
            /// element `i` as in the portable source.
            #[target_feature(enable = $feat)]
            fn dot_group<const G: usize>(w: &[f32], xs: &[f32], out: &mut [f32]) {
                let n = w.len();
                let rows: [&[f32]; G] = std::array::from_fn(|s| &xs[s * n..(s + 1) * n]);
                let mut acc = [[$setzero(); NV]; G];
                let blocks = n / DOT_LANES;
                for b in 0..blocks {
                    let at = b * DOT_LANES;
                    let wb = &w[at..at + DOT_LANES];
                    let mut wv = [$setzero(); NV];
                    for (j, v) in wv.iter_mut().enumerate() {
                        // SAFETY: j < NV, so the LANES floats at j * LANES
                        // lie inside the DOT_LANES floats of `wb`.
                        *v = unsafe { $loadu(wb.as_ptr().add(j * LANES)) };
                    }
                    for (a, row) in acc.iter_mut().zip(&rows) {
                        let xb = &row[at..at + DOT_LANES];
                        for (j, (av, wj)) in a.iter_mut().zip(&wv).enumerate() {
                            // SAFETY: as for `wb`, inside the block of `xb`.
                            let xv = unsafe { $loadu(xb.as_ptr().add(j * LANES)) };
                            *av = $add(*av, $mul(*wj, xv));
                        }
                    }
                }
                let tail = blocks * DOT_LANES;
                for ((o, a), row) in out.iter_mut().zip(&acc).zip(&rows) {
                    let terms = w[tail..].iter().zip(&row[tail..]);
                    *o = terms.fold(super::$tree(a), |sum, (wi, xi)| sum + wi * xi);
                }
            }

            /// The [`SweepFn`](super::SweepFn) of this tier: per vector of
            /// the row, one load of `w` serves every sample.
            ///
            /// # Safety
            ///
            /// The running CPU has this module's target features.
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn sweep(w: &[f32], deltas: &[f32], grads: &mut [f32]) {
                let n = w.len();
                let whole = n - n % LANES;
                for c in (0..whole).step_by(LANES) {
                    // SAFETY: c + LANES <= whole <= n floats of `w`.
                    let wv = unsafe { $loadu(w.as_ptr().add(c)) };
                    for (s, &d) in deltas.iter().enumerate() {
                        let g = &mut grads[s * n + c..s * n + c + LANES];
                        // SAFETY: `g` holds exactly LANES floats.
                        let gv = unsafe { $loadu(g.as_ptr()) };
                        let sum = $add(gv, $mul($set1(d), wv));
                        // SAFETY: as above; `g` is writable.
                        unsafe { $storeu(g.as_mut_ptr(), sum) };
                    }
                }
                for (s, &d) in deltas.iter().enumerate() {
                    for (g, wi) in grads[s * n + whole..(s + 1) * n].iter_mut().zip(&w[whole..]) {
                        *g += d * wi;
                    }
                }
            }

            /// The [`FoldFn`](super::FoldFn) of this tier: `FOLD_VECTORS`
            /// accumulator vectors at a time, then single vectors, then the
            /// scalar tail.
            ///
            /// # Safety
            ///
            /// The running CPU has this module's target features.
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn fold(
                records: &[&[f32]],
                delta_at: usize,
                x_at: usize,
                acc: &mut [f32],
            ) {
                let mut at = 0;
                let mut wide = acc.chunks_exact_mut(FOLD_VECTORS * LANES);
                for block in &mut wide {
                    fold_vectors::<FOLD_VECTORS>(records, delta_at, x_at + at, block);
                    at += FOLD_VECTORS * LANES;
                }
                let mut narrow = wide.into_remainder().chunks_exact_mut(LANES);
                for block in &mut narrow {
                    fold_vectors::<1>(records, delta_at, x_at + at, block);
                    at += LANES;
                }
                let tail = narrow.into_remainder();
                for record in records {
                    let d = record[delta_at];
                    for (a, xi) in tail.iter_mut().zip(&record[x_at + at..]) {
                        *a += d * xi;
                    }
                }
            }

            /// `V` vectors of the accumulator (`block`, `V * LANES` floats)
            /// held in registers while every record adds into them.
            #[target_feature(enable = $feat)]
            fn fold_vectors<const V: usize>(
                records: &[&[f32]],
                delta_at: usize,
                x_at: usize,
                block: &mut [f32],
            ) {
                let mut a = [$setzero(); V];
                for (j, v) in a.iter_mut().enumerate() {
                    // SAFETY: j < V, and `block` holds V * LANES floats.
                    *v = unsafe { $loadu(block.as_ptr().add(j * LANES)) };
                }
                for record in records {
                    let d = $set1(record[delta_at]);
                    let x = &record[x_at..x_at + V * LANES];
                    for (j, v) in a.iter_mut().enumerate() {
                        // SAFETY: j < V, and `x` holds V * LANES floats.
                        let xv = unsafe { $loadu(x.as_ptr().add(j * LANES)) };
                        *v = $add(*v, $mul(d, xv));
                    }
                }
                for (j, v) in a.iter().enumerate() {
                    // SAFETY: as for the loads; `block` is writable.
                    unsafe { $storeu(block.as_mut_ptr().add(j * LANES), *v) };
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
define_fc_tier! {
    module: avx2,
    feature: "avx2",
    lanes: 8,
    group: 2,
    tree: tree_avx2,
    setzero: _mm256_setzero_ps,
    loadu: _mm256_loadu_ps,
    storeu: _mm256_storeu_ps,
    set1: _mm256_set1_ps,
    add: _mm256_add_ps,
    mul: _mm256_mul_ps
}

#[cfg(target_arch = "x86_64")]
define_fc_tier! {
    module: avx512,
    feature: "avx512f,avx2",
    lanes: 16,
    group: 4,
    tree: tree_avx512,
    setzero: _mm512_setzero_ps,
    loadu: _mm512_loadu_ps,
    storeu: _mm512_storeu_ps,
    set1: _mm512_set1_ps,
    add: _mm512_add_ps,
    mul: _mm512_mul_ps
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

    /// Every tier gives the portable source's bits: the row dot, the
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
