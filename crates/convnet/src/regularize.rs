//! Regularization layers: dropout and local response normalization.
//!
//! Both appear in the paper's benchmark networks (AlexNet interleaves LRN
//! after its early convolutions; dropout regularizes the classifier
//! heads, CIFAR-10's topology comes from the dropout paper). Dropout is
//! also a second source of the gradient sparsity the sparse backward
//! kernel exploits: a dropped activation zeroes its gradient exactly like
//! a clamped ReLU.

use spg_gemm::simd::{on_tier, Nest, Vector};
use spg_gemm::SimdLevel;
use spg_tensor::Tensor;

use crate::layer::Layer;
use crate::rows::{load, store, HOST};
use crate::workspace::ConvScratch;
use crate::ConvError;

/// Inverted dropout: each activation is zeroed with probability `rate`,
/// survivors are scaled by `1 / (1 - rate)` so expected activations are
/// unchanged.
///
/// Layers are stateless across samples (the trainer shares them between
/// worker threads), so the mask cannot live in `self`: it is derived
/// deterministically by hashing the layer seed, the position, and the
/// activation bits. The same input always drops the same units — a
/// per-input dropout pattern rather than a per-presentation one — which
/// preserves dropout's ensemble effect across *different* inputs while
/// keeping forward and backward trivially consistent.
#[derive(Debug, Clone, Copy)]
pub struct DropoutLayer {
    len: usize,
    rate: f32,
    seed: u64,
}

impl DropoutLayer {
    /// Creates a dropout layer over `len` activations.
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::ZeroDimension`] if `rate` is outside `[0, 1)`.
    pub fn new(len: usize, rate: f32, seed: u64) -> Result<Self, ConvError> {
        if !(0.0..1.0).contains(&rate) {
            return Err(ConvError::ZeroDimension { dim: "dropout rate" });
        }
        Ok(DropoutLayer { len, rate, seed })
    }

    #[inline]
    fn keeps(&self, i: usize, value: f32) -> bool {
        // splitmix64 over (seed, index, value bits).
        let mut h =
            self.seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ u64::from(value.to_bits());
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d049bb133111eb);
        h ^= h >> 31;
        (h >> 40) as f32 / (1u64 << 24) as f32 >= self.rate
    }
}

impl Layer for DropoutLayer {
    fn name(&self) -> &str {
        "dropout"
    }

    fn input_len(&self) -> usize {
        self.len
    }

    fn output_len(&self) -> usize {
        self.len
    }

    /// Position `i` of the block is activation `i % len` of its sample,
    /// so each sample keeps its own mask.
    fn forward_block(&self, inputs: &[f32], outputs: &mut [f32], _scratch: &mut ConvScratch) {
        let scale = 1.0 / (1.0 - self.rate);
        for (i, (o, &x)) in outputs.iter_mut().zip(inputs).enumerate() {
            *o = if self.keeps(i % self.len, x) { x * scale } else { 0.0 };
        }
    }

    fn backward_block(
        &self,
        inputs: &[f32],
        _outputs: &[f32],
        grad_outs: &[f32],
        grad_ins: &mut [f32],
        _records: &mut [Tensor],
        _scratch: &mut ConvScratch,
    ) {
        let scale = 1.0 / (1.0 - self.rate);
        for (i, ((gi, &go), &x)) in grad_ins.iter_mut().zip(grad_outs).zip(inputs).enumerate() {
            *gi = if self.keeps(i % self.len, x) { go * scale } else { 0.0 };
        }
    }
}

/// Local response normalization across channels (AlexNet Sec. 3.3):
/// `b[c] = a[c] / (k + alpha/n * sum_{c'} a[c']^2)^beta` with the sum over
/// a window of `n` adjacent channels centred on `c`.
///
/// Both directions run plane by plane over chunks of positions, one
/// `spg_gemm::simd` loop nest on the host's tier, lanes being positions.
/// Forward: per plane `c` the window sum `Σ a[c']·a[c']` over `c'` in the
/// window, ascending from `0.0`, multiply then add; `D = k + (alpha/n)·sum`;
/// `b = a · D.powf(-beta)`. Backward: planes `c'` ascending; a position
/// whose `grad_out` is non-zero (NaN counts) adds `go·D^-beta` into
/// `grad_in[c']`, then subtracts `shared·a[c]` from `grad_in[c]` for each
/// `c` of the window, ascending, with `shared = go·coeff·a[c']·D^-beta / D`
/// left to right; a zero gradient touches nothing. `powf` stays a scalar
/// libm call — the backward makes it only where the gradient is non-zero —
/// and everything else is a vector pass, so each element gets the scalar
/// loop's operations in its order and every tier computes the same bits.
#[derive(Debug, Clone, Copy)]
pub struct LrnLayer {
    channels: usize,
    plane: usize,
    size: usize,
    alpha: f32,
    beta: f32,
    k: f32,
}

impl LrnLayer {
    /// AlexNet's published constants.
    pub const ALEXNET_ALPHA: f32 = 1e-4;
    /// AlexNet's published constants.
    pub const ALEXNET_BETA: f32 = 0.75;
    /// AlexNet's published constants.
    pub const ALEXNET_K: f32 = 2.0;

    /// Creates an LRN over activations of `channels` feature maps of
    /// `plane` spatial elements each, with window `size` and AlexNet's
    /// constants.
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::ZeroDimension`] if any argument is zero.
    pub fn new(channels: usize, plane: usize, size: usize) -> Result<Self, ConvError> {
        for (dim, v) in [("channels", channels), ("plane", plane), ("size", size)] {
            if v == 0 {
                return Err(ConvError::ZeroDimension { dim });
            }
        }
        Ok(LrnLayer {
            channels,
            plane,
            size,
            alpha: Self::ALEXNET_ALPHA,
            beta: Self::ALEXNET_BETA,
            k: Self::ALEXNET_K,
        })
    }

    /// Window of channels contributing to output channel `c`.
    #[inline]
    fn window(&self, c: usize) -> std::ops::Range<usize> {
        let half = self.size / 2;
        c.saturating_sub(half)..(c + half + 1).min(self.channels)
    }

    /// One sample's [`Layer::forward_block`] on the tier of `level`.
    fn forward_on(&self, level: SimdLevel, input: &[f32], output: &mut [f32]) {
        assert_eq!(input.len(), self.input_len(), "input length");
        assert_eq!(output.len(), self.output_len(), "output length");
        on_tier(level, LrnForward { lrn: self, input, output });
    }

    /// One sample's [`Layer::backward_block`] on the tier of `level`.
    fn backward_on(&self, level: SimdLevel, input: &[f32], grad_out: &[f32], grad_in: &mut [f32]) {
        assert_eq!(input.len(), self.input_len(), "input length");
        assert_eq!(grad_out.len(), self.output_len(), "grad_out length");
        assert_eq!(grad_in.len(), self.input_len(), "grad_in length");
        on_tier(level, LrnBackward { lrn: self, input, grad_out, grad_in });
    }

    /// `D = k + alpha/n * Σ a²` over the window of plane `c`, at the `n`
    /// positions from `p` (the other lanes are not the layer's).
    ///
    /// # Safety
    ///
    /// The running CPU has `V`'s target features, `L == V::LANES`, `n <=
    /// L`, `p + n <= plane` and `input` holds every plane.
    #[inline(always)]
    unsafe fn denominators<V: Vector, const L: usize>(
        &self,
        input: &[f32],
        c: usize,
        p: usize,
        n: usize,
    ) -> V {
        // SAFETY: the caller's contract: each plane of the window holds
        // positions `p..p + n`.
        unsafe {
            let mut sum = V::zero();
            for cc in self.window(c) {
                let v = load::<V, L>(input.as_ptr().add(cc * self.plane + p), n);
                sum = sum.mul_then_add(v, v);
            }
            V::splat(self.k).mul_then_add(V::splat(self.alpha / self.size as f32), sum)
        }
    }
}

/// Positions an LRN pass holds on the stack at once: a chunk of each
/// plane, whose denominators and their powers sit in two buffers.
const CHUNK: usize = 256;

/// LRN forward's operands.
struct LrnForward<'a> {
    lrn: &'a LrnLayer,
    input: &'a [f32],
    output: &'a mut [f32],
}

/// # Safety
///
/// `run`'s contract is the trait's.
impl Nest for LrnForward<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<V: Vector, const L: usize>(self) {
        let LrnForward { lrn, input, output } = self;
        let mut powers = [0.0f32; CHUNK];
        for p0 in (0..lrn.plane).step_by(CHUNK) {
            let m = (lrn.plane - p0).min(CHUNK);
            for c in 0..lrn.channels {
                // SAFETY: positions `p0..p0 + m` are inside every plane and
                // `powers` holds `m` floats; the CPU has `V`'s features
                // (this fn's contract).
                unsafe {
                    for q in (0..m).step_by(L) {
                        let n = (m - q).min(L);
                        let d = lrn.denominators::<V, L>(input, c, p0 + q, n);
                        store::<V, L>(d, powers.as_mut_ptr().add(q), n);
                    }
                    for d in &mut powers[..m] {
                        *d = d.powf(-lrn.beta);
                    }
                    let at = c * lrn.plane + p0;
                    for q in (0..m).step_by(L) {
                        let n = (m - q).min(L);
                        let x = load::<V, L>(input.as_ptr().add(at + q), n);
                        let power = load::<V, L>(powers.as_ptr().add(q), n);
                        store::<V, L>(x.mul(power), output.as_mut_ptr().add(at + q), n);
                    }
                }
            }
        }
    }
}

/// LRN backward's operands.
struct LrnBackward<'a> {
    lrn: &'a LrnLayer,
    input: &'a [f32],
    grad_out: &'a [f32],
    grad_in: &'a mut [f32],
}

/// # Safety
///
/// `run`'s contract is the trait's.
impl Nest for LrnBackward<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<V: Vector, const L: usize>(self) {
        // d b[c'] / d a[c] = delta(c,c') * D(c')^-beta
        //   - 2 alpha beta / n * a[c] a[c'] * D(c')^(-beta-1)
        // for c in the window of c'.
        let LrnBackward { lrn, input, grad_out, grad_in } = self;
        grad_in.fill(0.0);
        let coeff = 2.0 * lrn.alpha * lrn.beta / lrn.size as f32;
        let (mut denominators, mut powers) = ([0.0f32; CHUNK], [0.0f32; CHUNK]);
        for p0 in (0..lrn.plane).step_by(CHUNK) {
            let m = (lrn.plane - p0).min(CHUNK);
            for cprime in 0..lrn.channels {
                let at = cprime * lrn.plane + p0;
                // SAFETY: as in `LrnForward::run`; `grad_out` and
                // `grad_in` are as long as `input`.
                unsafe {
                    for q in (0..m).step_by(L) {
                        let n = (m - q).min(L);
                        let d = lrn.denominators::<V, L>(input, cprime, p0 + q, n);
                        store::<V, L>(d, denominators.as_mut_ptr().add(q), n);
                        // `powf` only where the gradient is non-zero.
                        let go = load::<V, L>(grad_out.as_ptr().add(at + q), n);
                        let mut live = V::bits(go.ne(V::zero()));
                        while live != 0 {
                            let i = q + live.trailing_zeros() as usize;
                            powers[i] = denominators[i].powf(-lrn.beta);
                            live &= live - 1;
                        }
                    }
                    for q in (0..m).step_by(L) {
                        let n = (m - q).min(L);
                        let go = load::<V, L>(grad_out.as_ptr().add(at + q), n);
                        let live = go.ne(V::zero());
                        let d = load::<V, L>(denominators.as_ptr().add(q), n);
                        let power = load::<V, L>(powers.as_ptr().add(q), n);
                        let x = load::<V, L>(input.as_ptr().add(at + q), n);
                        let g = grad_in.as_mut_ptr().add(at + q);
                        let own = load::<V, L>(g, n);
                        store::<V, L>(V::select(live, own.mul_then_add(go, power), own), g, n);
                        let shared = go.mul(V::splat(coeff)).mul(x).mul(power).div(d);
                        for c in lrn.window(cprime) {
                            let from = c * lrn.plane + p0 + q;
                            let g = grad_in.as_mut_ptr().add(from);
                            let (gi, xc) =
                                (load::<V, L>(g, n), load::<V, L>(input.as_ptr().add(from), n));
                            store::<V, L>(V::select(live, gi.sub(shared.mul(xc)), gi), g, n);
                        }
                    }
                }
            }
        }
    }
}

impl Layer for LrnLayer {
    fn name(&self) -> &str {
        "lrn"
    }

    fn input_len(&self) -> usize {
        self.channels * self.plane
    }

    fn output_len(&self) -> usize {
        self.channels * self.plane
    }

    /// Sample by sample.
    fn forward_block(&self, inputs: &[f32], outputs: &mut [f32], _scratch: &mut ConvScratch) {
        let n = self.input_len();
        assert_eq!(inputs.len() % n, 0, "block length");
        for (input, output) in inputs.chunks_exact(n).zip(outputs.chunks_exact_mut(n)) {
            self.forward_on(HOST, input, output);
        }
    }

    /// Sample by sample.
    fn backward_block(
        &self,
        inputs: &[f32],
        _outputs: &[f32],
        grad_outs: &[f32],
        grad_ins: &mut [f32],
        _records: &mut [Tensor],
        _scratch: &mut ConvScratch,
    ) {
        let n = self.input_len();
        let samples = inputs.chunks_exact(n).zip(grad_outs.chunks_exact(n));
        for ((input, grad_out), grad_in) in samples.zip(grad_ins.chunks_exact_mut(n)) {
            self.backward_on(HOST, input, grad_out, grad_in);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `k + alpha/n * sum a^2` for channel `c` at spatial position `p`:
    /// the scalar loop's denominator.
    fn denom(lrn: &LrnLayer, input: &[f32], c: usize, p: usize) -> f32 {
        let mut sum = 0.0;
        for cc in lrn.window(c) {
            let v = input[cc * lrn.plane + p];
            sum += v * v;
        }
        lrn.k + lrn.alpha / lrn.size as f32 * sum
    }

    /// The scalar LRN forward the nest replaced.
    fn forward_oracle(lrn: &LrnLayer, input: &[f32]) -> Vec<f32> {
        let mut output = vec![0.0; input.len()];
        for c in 0..lrn.channels {
            for p in 0..lrn.plane {
                let idx = c * lrn.plane + p;
                output[idx] = input[idx] * denom(lrn, input, c, p).powf(-lrn.beta);
            }
        }
        output
    }

    /// The scalar LRN backward the nest replaced.
    fn backward_oracle(lrn: &LrnLayer, input: &[f32], grad_out: &[f32]) -> Vec<f32> {
        let mut grad_in = vec![0.0; input.len()];
        let coeff = 2.0 * lrn.alpha * lrn.beta / lrn.size as f32;
        for cprime in 0..lrn.channels {
            for p in 0..lrn.plane {
                let idx = cprime * lrn.plane + p;
                let go = grad_out[idx];
                if go == 0.0 {
                    continue;
                }
                let d = denom(lrn, input, cprime, p);
                let d_beta = d.powf(-lrn.beta);
                grad_in[idx] += go * d_beta;
                let shared = go * coeff * input[idx] * d_beta / d;
                for c in lrn.window(cprime) {
                    grad_in[c * lrn.plane + p] -= shared * input[c * lrn.plane + p];
                }
            }
        }
        grad_in
    }

    /// `len` floats from a hash of `seed`: mostly in `(-2, 2)`, with
    /// `specials` salted in and, when `zeros`, every other one `+-0.0`.
    fn salted(len: usize, seed: u64, specials: &[f32], zeros: bool) -> Vec<f32> {
        (0..len as u64)
            .map(|i| {
                let h =
                    (i ^ seed.wrapping_mul(0x9e37_79b9)).wrapping_mul(0x2545_f491_4f6c_dd1d) >> 40;
                match h % 16 {
                    0 | 1 if !specials.is_empty() => specials[(h / 16) as usize % specials.len()],
                    2..=9 if zeros => [0.0, -0.0][(h / 16) as usize % 2],
                    _ => (h % 4001) as f32 / 1000.0 - 2.0,
                }
            })
            .collect()
    }

    /// The bits of `v`, every NaN as `f32::NAN`'s: where two NaNs meet in
    /// an add, x86 returns the first operand's, and the compiler may
    /// commute an add (to fold a load into it, say), so which NaN the
    /// scalar loop keeps is the compiler's choice, not the source's.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits()).collect()
    }

    /// Both LRN nests give the scalar loops' bits on every tier: windows
    /// of 1, 3 and 5 planes, planes shorter than a vector and longer than
    /// a chunk, NaN, infinite and huge inputs, and gradients that are
    /// zero, `-0.0` or NaN.
    #[test]
    fn lrn_nests_match_the_scalar_loops_on_every_tier() {
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e30, -1e30, 0.0, -0.0];
        for size in [1, 3, 5] {
            for (channels, plane) in [(1, 1), (2, 5), (7, 17), (6, CHUNK + 37)] {
                let lrn = LrnLayer::new(channels, plane, size).unwrap();
                let seed = (size * 1000 + channels * 10 + plane) as u64;
                let input = salted(lrn.input_len(), seed, &specials, false);
                let want_out = bits(&forward_oracle(&lrn, &input));
                for grad_out in [
                    salted(lrn.input_len(), seed + 1, &[f32::NAN, -0.0], true),
                    salted(lrn.input_len(), seed + 2, &[], false),
                    vec![0.0; lrn.input_len()],
                ] {
                    let want_grad = bits(&backward_oracle(&lrn, &input, &grad_out));
                    for level in crate::rows::host_levels() {
                        let at = (size, channels, plane, level);
                        let mut out = vec![f32::NAN; lrn.output_len()];
                        lrn.forward_on(level, &input, &mut out);
                        assert_eq!(bits(&out), want_out, "forward {at:?}");
                        let mut grad_in = vec![f32::NAN; lrn.input_len()];
                        lrn.backward_on(level, &input, &grad_out, &mut grad_in);
                        assert_eq!(bits(&grad_in), want_grad, "backward {at:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn dropout_zeroes_roughly_rate_fraction() {
        let layer = DropoutLayer::new(10_000, 0.4, 7).unwrap();
        let input: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.37).sin() + 1.5).collect();
        let mut out = vec![0f32; 10_000];
        layer.forward(&input, &mut out, &mut ConvScratch::new());
        let dropped = out.iter().filter(|v| **v == 0.0).count() as f64 / 10_000.0;
        assert!((dropped - 0.4).abs() < 0.03, "dropped {dropped}");
        // Survivors are scaled by 1/(1-p).
        let kept = out.iter().zip(&input).find(|(o, _)| **o != 0.0).expect("some survive");
        assert!((kept.0 / kept.1 - 1.0 / 0.6).abs() < 1e-5);
    }

    #[test]
    fn dropout_forward_backward_masks_agree() {
        let layer = DropoutLayer::new(256, 0.5, 3).unwrap();
        let input: Vec<f32> = (0..256).map(|i| (i as f32 * 0.71).cos()).collect();
        let mut scratch = ConvScratch::new();
        let mut none = Tensor::default();
        let mut out = vec![0f32; 256];
        layer.forward(&input, &mut out, &mut scratch);
        let mut gin = vec![0f32; 256];
        layer.backward(&input, &out, &vec![1.0; 256], &mut gin, &mut none, &mut scratch);
        for (o, g) in out.iter().zip(&gin) {
            assert_eq!(*o == 0.0, *g == 0.0, "mask mismatch");
        }
    }

    #[test]
    fn dropout_increases_gradient_sparsity() {
        let layer = DropoutLayer::new(1000, 0.6, 9).unwrap();
        let input: Vec<f32> = (0..1000).map(|i| (i as f32).sin() + 2.0).collect();
        let mut gin = vec![0f32; 1000];
        layer.backward(
            &input,
            &[],
            &vec![1.0; 1000],
            &mut gin,
            &mut Tensor::default(),
            &mut ConvScratch::new(),
        );
        let sparsity = gin.iter().filter(|v| **v == 0.0).count() as f64 / 1000.0;
        assert!(sparsity > 0.5, "sparsity {sparsity}");
    }

    #[test]
    fn dropout_rejects_invalid_rate() {
        assert!(DropoutLayer::new(8, 1.0, 0).is_err());
        assert!(DropoutLayer::new(8, -0.1, 0).is_err());
        assert!(DropoutLayer::new(8, 0.0, 0).is_ok());
    }

    #[test]
    fn lrn_normalizes_toward_unit_scale() {
        let lrn = LrnLayer::new(4, 2, 3).unwrap();
        let input = vec![1.0; 8];
        let mut out = vec![0f32; 8];
        lrn.forward(&input, &mut out, &mut ConvScratch::new());
        // Every output is input / (2 + small)^0.75 — positive and < input.
        assert!(out.iter().all(|v| *v > 0.0 && *v < 1.0));
        // Interior channels see a bigger window sum than edge channels.
        assert!(out[0] > out[2], "edge {} vs interior {}", out[0], out[2]);
    }

    #[test]
    fn lrn_gradient_matches_finite_difference() {
        let lrn = LrnLayer::new(3, 2, 3).unwrap();
        let input: Vec<f32> = vec![0.4, -0.7, 1.1, 0.2, -0.3, 0.9];
        let gout: Vec<f32> = vec![1.0, -2.0, 0.5, 0.7, 1.5, -0.4];
        let mut gin = vec![0f32; 6];
        lrn.backward(&input, &[], &gout, &mut gin, &mut Tensor::default(), &mut ConvScratch::new());

        let loss = |inp: &[f32]| {
            let mut out = vec![0f32; 6];
            lrn.forward(inp, &mut out, &mut ConvScratch::new());
            out.iter().zip(&gout).map(|(a, b)| a * b).sum::<f32>()
        };
        let eps = 1e-3;
        for i in 0..6 {
            let mut plus = input.clone();
            plus[i] += eps;
            let mut minus = input.clone();
            minus[i] -= eps;
            let fd = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!((fd - gin[i]).abs() < 1e-3, "input {i}: fd {fd} vs analytic {}", gin[i]);
        }
    }

    #[test]
    fn lrn_rejects_zero_dimensions() {
        assert!(LrnLayer::new(0, 2, 3).is_err());
        assert!(LrnLayer::new(2, 0, 3).is_err());
        assert!(LrnLayer::new(2, 2, 0).is_err());
    }
}
