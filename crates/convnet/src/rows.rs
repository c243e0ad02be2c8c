//! The loop nests of the layers between the convolutions: max-pool forward
//! and backward and ReLU forward and backward, each written once over
//! `spg_gemm::simd`'s [`Vector`] and run on the host's tier by
//! [`on_tier`].
//!
//! Each nest gives every output element the chain of operations the
//! scalar loop it replaced gave it, so every tier computes the same bits.
//! Lanes are consecutive output elements — activations, or the windows of
//! a pool's output plane — and a narrower last vector is read and written
//! through masks ([`load`], [`store`]; LRN's nests share them), so nothing
//! outside the operands is touched.

use spg_gemm::simd::{on_tier, Nest, Vector};
use spg_gemm::SimdLevel;

/// The level these layers run at: the host's widest tier (`on_tier`
/// narrows it to what the CPU has).
pub(crate) const HOST: SimdLevel = SimdLevel::Avx512Fma;

/// ReLU's forward over one part: `output[i] = max(0, input[i])` — `+0.0`
/// unless `input[i] > 0`, so NaN and `-0.0` give `+0.0`.
pub(crate) fn relu_forward(level: SimdLevel, input: &[f32], output: &mut [f32]) {
    assert_eq!(input.len(), output.len(), "relu lengths");
    on_tier(level, Relu { input, output });
}

/// ReLU's backward: `grad_in[i] = grad_out[i]` where `output[i] > 0`,
/// `+0.0` elsewhere.
pub(crate) fn relu_backward(
    level: SimdLevel,
    output: &[f32],
    grad_out: &[f32],
    grad_in: &mut [f32],
) {
    assert_eq!(output.len(), grad_in.len(), "relu lengths");
    assert_eq!(grad_out.len(), grad_in.len(), "relu lengths");
    on_tier(level, ReluGrad { output, grad_out, grad_in });
}

/// The geometry of one max-pool: input planes `h x w`, windows `k x k`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pool {
    pub(crate) h: usize,
    pub(crate) w: usize,
    pub(crate) k: usize,
}

impl Pool {
    fn out_h(self) -> usize {
        self.h / self.k
    }

    fn out_w(self) -> usize {
        self.w / self.k
    }
}

/// Pools the planes `outputs` holds from the planes `inputs` starts with:
/// each output is `f32::max` folded over its window in `(dy, dx)` order
/// from `-inf` (of two equal zeros the running maximum stays).
pub(crate) fn pool_forward(level: SimdLevel, pool: Pool, inputs: &[f32], outputs: &mut [f32]) {
    let planes = outputs.len() / (pool.out_h() * pool.out_w());
    assert!(inputs.len() >= planes * pool.h * pool.w, "pool input length");
    on_tier(level, PoolForward { pool, inputs, outputs });
}

/// Routes the gradients of the planes `grad_outs` starts with into the
/// planes `grad_ins` holds, writing every cell once: the cell a window's
/// gradient goes to gets `0.0 + go`, every other cell `0.0`. The window's
/// maximum `out` (the forward's output) picks the cell: the first in
/// `(dy, dx)` order equal to `out`, or the window's first cell if `out`
/// is `-inf`.
pub(crate) fn pool_backward(
    level: SimdLevel,
    pool: Pool,
    inputs: &[f32],
    outputs: &[f32],
    grad_outs: &[f32],
    grad_ins: &mut [f32],
) {
    let planes = grad_ins.len() / (pool.h * pool.w);
    let out_len = planes * pool.out_h() * pool.out_w();
    assert!(inputs.len() >= grad_ins.len(), "pool input length");
    assert!(outputs.len() >= out_len && grad_outs.len() >= out_len, "pool output length");
    on_tier(level, PoolBackward { pool, inputs, outputs, grad_outs, grad_ins });
}

/// ReLU forward's operands.
struct Relu<'a> {
    input: &'a [f32],
    output: &'a mut [f32],
}

/// # Safety
///
/// `run`'s contract is the trait's.
impl Nest for Relu<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<V: Vector, const L: usize>(self) {
        let Relu { input, output } = self;
        let (len, (head, end)) = (output.len(), aligned_body::<L>(output.as_ptr(), output.len()));
        let (x, y) = (input.as_ptr(), output.as_mut_ptr());
        // SAFETY: `input` and `output` are equally long (the entry asserted
        // it) and each call's lanes `at..at + n` are inside both; the CPU
        // has `V`'s features (this fn's contract).
        unsafe {
            relu_lanes::<V, L>(x, y, 0, head);
            for at in (head..end).step_by(L) {
                relu_lanes::<V, L>(x, y, at, L);
            }
            relu_lanes::<V, L>(x, y, end, len - end);
        }
    }
}

/// ReLU backward's operands.
struct ReluGrad<'a> {
    output: &'a [f32],
    grad_out: &'a [f32],
    grad_in: &'a mut [f32],
}

/// # Safety
///
/// `run`'s contract is the trait's.
impl Nest for ReluGrad<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<V: Vector, const L: usize>(self) {
        let ReluGrad { output, grad_out, grad_in } = self;
        let (len, (head, end)) =
            (grad_in.len(), aligned_body::<L>(grad_in.as_ptr(), grad_in.len()));
        let (o, go, g) = (output.as_ptr(), grad_out.as_ptr(), grad_in.as_mut_ptr());
        // SAFETY: as in `Relu::run`: the three slices are equally long.
        unsafe {
            relu_grad_lanes::<V, L>(o, go, g, 0, head);
            for at in (head..end).step_by(L) {
                relu_grad_lanes::<V, L>(o, go, g, at, L);
            }
            relu_grad_lanes::<V, L>(o, go, g, end, len - end);
        }
    }
}

/// `y[at..at + n] = max(0, x[at..at + n])`, `n <= L`.
///
/// # Safety
///
/// The running CPU has `V`'s target features, `L == V::LANES`, and `n`
/// floats are readable at `x + at` and writable at `y + at`.
#[inline(always)]
unsafe fn relu_lanes<V: Vector, const L: usize>(x: *const f32, y: *mut f32, at: usize, n: usize) {
    // SAFETY: the caller's contract.
    unsafe { store::<V, L>(V::zero().max(load::<V, L>(x.add(at), n)), y.add(at), n) }
}

/// `g = go` where `o > 0`, else `+0.0`, on lanes `at..at + n`, `n <= L`.
///
/// # Safety
///
/// As [`relu_lanes`], for `o` and `go` read and `g` written.
#[inline(always)]
unsafe fn relu_grad_lanes<V: Vector, const L: usize>(
    o: *const f32,
    go: *const f32,
    g: *mut f32,
    at: usize,
    n: usize,
) {
    // SAFETY: the caller's contract.
    unsafe {
        let (o, go) = (load::<V, L>(o.add(at), n), load::<V, L>(go.add(at), n));
        store::<V, L>(V::select(o.gt(V::zero()), go, V::zero()), g.add(at), n);
    }
}

/// Max-pool forward's operands.
struct PoolForward<'a> {
    pool: Pool,
    inputs: &'a [f32],
    outputs: &'a mut [f32],
}

/// # Safety
///
/// `run`'s contract is the trait's.
impl Nest for PoolForward<'_> {
    type Out = ();

    /// The shipped nets' windows (2 and 4, and 1) deinterleave whole
    /// vectors; any other window gathers its columns lane by lane.
    #[inline(always)]
    unsafe fn run<V: Vector, const L: usize>(self) {
        let PoolForward { pool, inputs, outputs } = self;
        let in_planes = inputs.chunks_exact(pool.h * pool.w);
        for (o_plane, i_plane) in
            outputs.chunks_exact_mut(pool.out_h() * pool.out_w()).zip(in_planes)
        {
            // SAFETY: `i_plane` is the plane `o_plane` pools; the CPU has
            // `V`'s features (this fn's contract).
            unsafe {
                match pool.k {
                    1 => pool_plane::<V, L, 1>(pool, i_plane, o_plane),
                    2 => pool_plane::<V, L, 2>(pool, i_plane, o_plane),
                    4 => pool_plane::<V, L, 4>(pool, i_plane, o_plane),
                    _ => pool_plane_gathered::<V, L>(pool, i_plane, o_plane),
                }
            }
        }
    }
}

/// A run of at most `L` consecutive windows of an output plane: the
/// first's index `i0`, the count `n`, and for each of the `K` vectors
/// that hold a window row of them, the input-plane offset of its first
/// cell in window row 0.
#[derive(Clone, Copy)]
struct Span<const K: usize> {
    i0: usize,
    n: usize,
    offsets: [usize; K],
}

impl<const K: usize> Span<K> {
    /// Vector `q` of window row `dy`: its input-plane offset, and how
    /// many of its floats are the span's (0 past the last window, whose
    /// offset is then meaningless).
    #[inline(always)]
    fn vector<const L: usize>(&self, pool: Pool, dy: usize, q: usize) -> (usize, usize) {
        (self.offsets[q] + dy * pool.w, (self.n * K).saturating_sub(q * L).min(L))
    }
}

/// The [`Span`]s a `K x K` pool's nests cut an output plane into, `L`
/// lanes wide. The `L / K` windows one vector of a window row covers must
/// lie in one output row: where the output width is a multiple of `L / K`
/// (CIFAR-10's 8-wide pool output at 16 lanes, say) the spans run across
/// rows, else each output row is cut on its own and its last span is
/// narrower.
struct Spans<const L: usize, const K: usize> {
    pool: Pool,
    /// The next span's first window, and its row and column.
    i: usize,
    y: usize,
    x: usize,
}

impl<const L: usize, const K: usize> Spans<L, K> {
    fn new(pool: Pool) -> Self {
        Spans { pool, i: 0, y: 0, x: 0 }
    }
}

impl<const L: usize, const K: usize> Iterator for Spans<L, K> {
    type Item = Span<K>;

    #[inline(always)]
    fn next(&mut self) -> Option<Span<K>> {
        let (out_w, plane) = (self.pool.out_w(), self.pool.out_h() * self.pool.out_w());
        if self.i >= plane {
            return None;
        }
        let across_rows = out_w % (L / K) == 0;
        let end = if across_rows { plane } else { (self.y + 1) * out_w };
        let n = (end - self.i).min(L);
        let mut offsets = [0; K];
        let (mut y, mut x) = (self.y, self.x);
        for offset in &mut offsets {
            *offset = y * K * self.pool.w + x * K;
            // Across rows a vector's windows end at a row's end or before.
            x += L / K;
            if across_rows && x == out_w {
                (x, y) = (0, y + 1);
            }
        }
        let span = Span { i0: self.i, n, offsets };
        self.i += n;
        self.x += n;
        while self.x >= out_w {
            (self.x, self.y) = (self.x - out_w, self.y + 1);
        }
        Some(span)
    }
}

/// The `K` vectors of window row `dy` of a span; floats past the span
/// read `+0.0`.
///
/// # Safety
///
/// The running CPU has `V`'s target features, `L == V::LANES`, `K ==
/// pool.k`, `plane` holds the input plane and the span is one of
/// [`Spans`].
#[inline(always)]
unsafe fn load_run<V: Vector, const L: usize, const K: usize>(
    pool: Pool,
    plane: &[f32],
    span: &Span<K>,
    dy: usize,
) -> [V; K] {
    // SAFETY: the caller's contract: vector q's floats are cells of the
    // span's windows, `len` of them from its offset in one input row.
    unsafe {
        let mut run = [V::zero(); K];
        for (q, v) in run.iter_mut().enumerate() {
            let (at, len) = span.vector::<L>(pool, dy, q);
            if len == L {
                *v = V::load(plane.as_ptr().add(at));
            } else if len > 0 {
                *v = V::load_masked(plane.as_ptr().add(at), V::first(len));
            }
        }
        run
    }
}

/// Writes the floats of window row `dy` of a span from its `K` vectors.
///
/// # Safety
///
/// As [`load_run`], with `plane` the gradient plane.
#[inline(always)]
unsafe fn store_run<V: Vector, const L: usize, const K: usize>(
    pool: Pool,
    run: [V; K],
    plane: &mut [f32],
    span: &Span<K>,
    dy: usize,
) {
    // SAFETY: as in `load_run`.
    unsafe {
        for (q, v) in run.iter().enumerate() {
            let (at, len) = span.vector::<L>(pool, dy, q);
            if len == L {
                v.store(plane.as_mut_ptr().add(at));
            } else if len > 0 {
                v.store_masked(plane.as_mut_ptr().add(at), V::first(len));
            }
        }
    }
}

/// One plane of a `K x K` pool.
///
/// # Safety
///
/// The running CPU has `V`'s target features, `L == V::LANES`, `K ==
/// pool.k`, `i_plane` holds an input plane and `o_plane` an output plane.
#[inline(always)]
unsafe fn pool_plane<V: Vector, const L: usize, const K: usize>(
    pool: Pool,
    i_plane: &[f32],
    o_plane: &mut [f32],
) {
    for span in Spans::<L, K>::new(pool) {
        // SAFETY: the caller's contract; the span's outputs are inside
        // the plane.
        unsafe {
            let mut acc = V::splat(f32::NEG_INFINITY);
            for dy in 0..K {
                for column in V::deinterleave(load_run::<V, L, K>(pool, i_plane, &span, dy)) {
                    acc = acc.max(column);
                }
            }
            store::<V, L>(acc, o_plane.as_mut_ptr().add(span.i0), span.n);
        }
    }
}

/// The input-plane offset of cell `(dy, dx)` of window `i` of the plane.
fn cell(pool: Pool, i: usize, dy: usize, dx: usize) -> usize {
    let (y, x) = (i / pool.out_w(), i % pool.out_w());
    (y * pool.k + dy) * pool.w + x * pool.k + dx
}

/// [`pool_plane`] for a window with no deinterleave: column `dx` of the
/// windows is gathered a lane at a time.
///
/// # Safety
///
/// As [`pool_plane`], without `K`.
#[inline(always)]
unsafe fn pool_plane_gathered<V: Vector, const L: usize>(
    pool: Pool,
    i_plane: &[f32],
    o_plane: &mut [f32],
) {
    for i0 in (0..o_plane.len()).step_by(L) {
        let n = (o_plane.len() - i0).min(L);
        // SAFETY: the caller's contract; outputs `i0..i0 + n` are inside
        // the plane.
        unsafe {
            let mut acc = V::splat(f32::NEG_INFINITY);
            for dy in 0..pool.k {
                for dx in 0..pool.k {
                    let mut column = [0.0; L];
                    for (j, lane) in column.iter_mut().enumerate().take(n) {
                        *lane = i_plane[cell(pool, i0 + j, dy, dx)];
                    }
                    acc = acc.max(V::load(column.as_ptr()));
                }
            }
            store::<V, L>(acc, o_plane.as_mut_ptr().add(i0), n);
        }
    }
}

/// Max-pool backward's operands.
struct PoolBackward<'a> {
    pool: Pool,
    inputs: &'a [f32],
    outputs: &'a [f32],
    grad_outs: &'a [f32],
    grad_ins: &'a mut [f32],
}

/// # Safety
///
/// `run`'s contract is the trait's.
impl Nest for PoolBackward<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<V: Vector, const L: usize>(self) {
        let PoolBackward { pool, inputs, outputs, grad_outs, grad_ins } = self;
        let (out_w, out_plane) = (pool.out_w(), pool.out_h() * pool.out_w());
        let planes = inputs.chunks_exact(pool.h * pool.w).zip(outputs.chunks_exact(out_plane));
        let planes = planes.zip(grad_outs.chunks_exact(out_plane));
        for (g_plane, ((i_plane, o_plane), go_plane)) in
            grad_ins.chunks_exact_mut(pool.h * pool.w).zip(planes)
        {
            let windows = (i_plane, o_plane, go_plane);
            // SAFETY: the planes are one input plane, its outputs and their
            // gradients; the CPU has `V`'s features (this fn's contract).
            unsafe {
                match pool.k {
                    1 => route_plane::<V, L, 1>(pool, windows, g_plane),
                    2 => route_plane::<V, L, 2>(pool, windows, g_plane),
                    4 => route_plane::<V, L, 4>(pool, windows, g_plane),
                    _ => route_plane_gathered::<V, L>(pool, windows, g_plane),
                }
            }
            // The cells right of the last window column, then the rows
            // below the last window row.
            let covered = pool.out_h() * pool.k * pool.w;
            for g_row in g_plane[..covered].chunks_exact_mut(pool.w) {
                g_row[out_w * pool.k..].fill(0.0);
            }
            g_plane[covered..].fill(0.0);
        }
    }
}

/// The window rule's first step: where the maximum `out` is `-inf` the
/// window's first cell `v` is read as `out` itself, so it takes the
/// gradient.
///
/// # Safety
///
/// The running CPU has `V`'s target features.
#[inline(always)]
unsafe fn first_cell<V: Vector>(out: V, v: V) -> V {
    // SAFETY: the caller's contract.
    unsafe { V::select(out.eq(V::splat(f32::NEG_INFINITY)), out, v) }
}

/// One cell of the window rule: where `v` equals the window's `target`
/// the cell takes `g` and the target becomes NaN, which no later cell
/// equals; elsewhere it takes `0.0`.
///
/// # Safety
///
/// The running CPU has `V`'s target features.
#[inline(always)]
unsafe fn route<V: Vector>(v: V, g: V, target: &mut V) -> V {
    // SAFETY: the caller's contract.
    unsafe {
        let hit = v.eq(*target);
        *target = V::select(hit, V::splat(f32::NAN), *target);
        V::select(hit, g, V::zero())
    }
}

/// The gradient of one input plane's windows of a `K x K` pool: every
/// cell of a window written once. `windows` is the input plane, its
/// outputs and their gradients.
///
/// # Safety
///
/// The running CPU has `V`'s target features, `L == V::LANES`, `K ==
/// pool.k`, and the planes are whole.
#[inline(always)]
unsafe fn route_plane<V: Vector, const L: usize, const K: usize>(
    pool: Pool,
    (i_plane, o_plane, go_plane): (&[f32], &[f32], &[f32]),
    g_plane: &mut [f32],
) {
    for span in Spans::<L, K>::new(pool) {
        let (i0, n) = (span.i0, span.n);
        // SAFETY: the caller's contract; the span's outputs are inside
        // the output planes.
        unsafe {
            let mut target = load::<V, L>(o_plane.as_ptr().add(i0), n);
            let out = target;
            let g = V::zero().add(load::<V, L>(go_plane.as_ptr().add(i0), n));
            for dy in 0..K {
                let mut cells = V::deinterleave(load_run::<V, L, K>(pool, i_plane, &span, dy));
                if dy == 0 {
                    cells[0] = first_cell(out, cells[0]);
                }
                for cell in &mut cells {
                    *cell = route(*cell, g, &mut target);
                }
                store_run::<V, L, K>(pool, V::interleave(cells), g_plane, &span, dy);
            }
        }
    }
}

/// [`route_plane`] for a window with no deinterleave: each column of the
/// windows is gathered and scattered a lane at a time.
///
/// # Safety
///
/// As [`route_plane`], without `K`.
#[inline(always)]
unsafe fn route_plane_gathered<V: Vector, const L: usize>(
    pool: Pool,
    (i_plane, o_plane, go_plane): (&[f32], &[f32], &[f32]),
    g_plane: &mut [f32],
) {
    for i0 in (0..o_plane.len()).step_by(L) {
        let n = (o_plane.len() - i0).min(L);
        // SAFETY: the caller's contract; outputs `i0..i0 + n` are inside
        // the output planes.
        unsafe {
            let mut target = load::<V, L>(o_plane.as_ptr().add(i0), n);
            let out = target;
            let g = V::zero().add(load::<V, L>(go_plane.as_ptr().add(i0), n));
            for dy in 0..pool.k {
                for dx in 0..pool.k {
                    let mut lanes = [0.0; L];
                    for (j, lane) in lanes.iter_mut().enumerate().take(n) {
                        *lane = i_plane[cell(pool, i0 + j, dy, dx)];
                    }
                    let mut v = V::load(lanes.as_ptr());
                    if dy == 0 && dx == 0 {
                        v = first_cell(out, v);
                    }
                    route(v, g, &mut target).store(lanes.as_mut_ptr());
                    for (j, &lane) in lanes.iter().enumerate().take(n) {
                        g_plane[cell(pool, i0 + j, dy, dx)] = lane;
                    }
                }
            }
        }
    }
}

/// The first `n` lanes at `p`; the others read `+0.0`.
///
/// # Safety
///
/// The running CPU has `V`'s target features, `L == V::LANES`, `n <= L`
/// and `n` floats at `p` are readable (none is read when `n` is 0).
#[inline(always)]
pub(crate) unsafe fn load<V: Vector, const L: usize>(p: *const f32, n: usize) -> V {
    // SAFETY: the caller's contract.
    unsafe {
        if n == L {
            V::load(p)
        } else {
            V::load_masked(p, V::first(n))
        }
    }
}

/// Writes the first `n` lanes of `v` to `p`.
///
/// # Safety
///
/// As [`load`], and `n` floats at `p` are writable.
#[inline(always)]
pub(crate) unsafe fn store<V: Vector, const L: usize>(v: V, p: *mut f32, n: usize) {
    // SAFETY: the caller's contract.
    unsafe {
        if n == L {
            v.store(p);
        } else {
            v.store_masked(p, V::first(n));
        }
    }
}

/// Where a pass over `len` floats from `p` keeps whole vectors: it runs
/// a head of `head` floats up to the next `L`-float boundary of `p`, so
/// every whole vector after it is aligned, then whole vectors up to `end`,
/// then a tail of `len - end`; the head and the tail may be empty.
fn aligned_body<const L: usize>(p: *const f32, len: usize) -> (usize, usize) {
    let head = ((L - (p.addr() / 4) % L) % L).min(len);
    (head, head + (len - head) / L * L)
}

/// Every SIMD level the host runs, portable first: the tiers the layers'
/// oracle tests compare.
#[cfg(test)]
pub(crate) fn host_levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Avx2Fma, SimdLevel::Avx512Fma]
        .into_iter()
        .filter(|&level| level <= spg_gemm::detect_simd_level())
        .collect()
}
