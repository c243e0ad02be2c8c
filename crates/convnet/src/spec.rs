use std::fmt;

use spg_tensor::{Shape3, Shape4};

use crate::ConvError;

/// Full specification of a 2-D convolution: the paper's 5-tuple
/// `<Nf, Fy, Fx, sy, sx>` (Sec. 2.2) plus the input geometry
/// `<Nc, Ny, Nx>` it is applied to.
///
/// All of the paper's characterization quantities — operation count `|A|`
/// (Eq. 5), memory footprints `|I|`, `|W|`, `|O|` (Eq. 6–8), unfolded size
/// `|U|`, intrinsic arithmetic intensity, and the unfolding AIT ratio `r`
/// (Sec. 3.1) — are methods here.
///
/// Convolutions are *valid* (no implicit padding); the paper's benchmarks
/// bake padding into the stated input sizes (Table 2 note).
///
/// # Example
///
/// ```
/// use spg_convnet::ConvSpec;
///
/// // Table 1, ID 2: Nx=Ny=256, Nf=256, Nc=128, Fx=Fy=3.
/// let spec = ConvSpec::square(256, 256, 128, 3, 1);
/// assert_eq!(spec.out_h(), 254);
/// assert_eq!(spec.intrinsic_ait().round(), 1510.0); // Table 1 "Intrinsic AIT"
/// assert_eq!(spec.unfold_ait().round(), 227.0);     // Table 1 prints 226
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvSpec {
    in_c: usize,
    in_h: usize,
    in_w: usize,
    features: usize,
    ky: usize,
    kx: usize,
    sy: usize,
    sx: usize,
}

impl ConvSpec {
    /// Creates a fully general convolution spec.
    ///
    /// Arguments follow the paper's notation: input channels `Nc`, input
    /// height `Ny`, input width `Nx`, output features `Nf`, kernel extents
    /// `Fy`/`Fx`, strides `sy`/`sx`.
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::ZeroDimension`] if any argument is zero and
    /// [`ConvError::KernelTooLarge`] if the kernel exceeds the input.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_c: usize,
        in_h: usize,
        in_w: usize,
        features: usize,
        ky: usize,
        kx: usize,
        sy: usize,
        sx: usize,
    ) -> Result<Self, ConvError> {
        for (dim, v) in [
            ("Nc", in_c),
            ("Ny", in_h),
            ("Nx", in_w),
            ("Nf", features),
            ("Fy", ky),
            ("Fx", kx),
            ("sy", sy),
            ("sx", sx),
        ] {
            if v == 0 {
                return Err(ConvError::ZeroDimension { dim });
            }
        }
        if ky > in_h {
            return Err(ConvError::KernelTooLarge { input: in_h, kernel: ky });
        }
        if kx > in_w {
            return Err(ConvError::KernelTooLarge { input: in_w, kernel: kx });
        }
        Ok(ConvSpec { in_c, in_h, in_w, features, ky, kx, sy, sx })
    }

    /// Creates a square spec in Table 1 / Table 2 notation:
    /// `Nx(=Ny), Nf, Nc, Fx(=Fy), sx(=sy)`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are invalid (zero, or kernel larger than
    /// input); the table entries are compile-time constants, so this is a
    /// programming error.
    pub fn square(n: usize, nf: usize, nc: usize, k: usize, stride: usize) -> Self {
        ConvSpec::new(nc, n, n, nf, k, k, stride, stride)
            .expect("table constants form a valid convolution")
    }

    /// Number of input channels `Nc`.
    pub fn in_c(&self) -> usize {
        self.in_c
    }

    /// Input height `Ny`.
    pub fn in_h(&self) -> usize {
        self.in_h
    }

    /// Input width `Nx`.
    pub fn in_w(&self) -> usize {
        self.in_w
    }

    /// Number of output features `Nf`.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Kernel height `Fy`.
    pub fn ky(&self) -> usize {
        self.ky
    }

    /// Kernel width `Fx`.
    pub fn kx(&self) -> usize {
        self.kx
    }

    /// Stride along `y`.
    pub fn sy(&self) -> usize {
        self.sy
    }

    /// Stride along `x`.
    pub fn sx(&self) -> usize {
        self.sx
    }

    /// Output height `(Ny - Fy) / sy + 1`.
    pub fn out_h(&self) -> usize {
        (self.in_h - self.ky) / self.sy + 1
    }

    /// Output width `(Nx - Fx) / sx + 1`.
    pub fn out_w(&self) -> usize {
        (self.in_w - self.kx) / self.sx + 1
    }

    /// Input activation shape `(Nc, Ny, Nx)`.
    pub fn input_shape(&self) -> Shape3 {
        Shape3::new(self.in_c, self.in_h, self.in_w)
    }

    /// Output activation shape `(Nf, out_h, out_w)`.
    pub fn output_shape(&self) -> Shape3 {
        Shape3::new(self.features, self.out_h(), self.out_w())
    }

    /// Weight shape `(Nf, Nc, Fy, Fx)`.
    pub fn weight_shape(&self) -> Shape4 {
        Shape4::new(self.features, self.in_c, self.ky, self.kx)
    }

    /// Number of arithmetic operations `|A|` in one forward pass (Eq. 5):
    /// two ops (multiply + add) per weight application per output element.
    pub fn arithmetic_ops(&self) -> u64 {
        2 * self.features as u64
            * self.out_h() as u64
            * self.out_w() as u64
            * self.in_c as u64
            * self.ky as u64
            * self.kx as u64
    }

    /// Input footprint `|I| = Nx * Ny * Nc` in elements (Eq. 6).
    pub fn input_elems(&self) -> u64 {
        self.input_shape().len() as u64
    }

    /// Weight footprint `|W| = Nf * Fx * Fy * Nc` in elements (Eq. 7).
    pub fn weight_elems(&self) -> u64 {
        self.weight_shape().len() as u64
    }

    /// Output footprint `|O|` in elements (Eq. 8).
    pub fn output_elems(&self) -> u64 {
        self.output_shape().len() as u64
    }

    /// Exact size `|U|` of the unfolded input matrix in elements
    /// (`out_h * out_w` patches of `Nc * Fy * Fx` each): every kernel
    /// application gets its own copy of its receptive field.
    pub fn unfolded_elems(&self) -> u64 {
        self.out_h() as u64
            * self.out_w() as u64
            * self.in_c as u64
            * self.ky as u64
            * self.kx as u64
    }

    /// `|U|` under the paper's accounting, which approximates the patch
    /// count with the *input* spatial extents `Nx * Ny` (Sec. 3.1). This is
    /// the variant that reproduces Table 1's "Unfold+GEMM AIT" column.
    pub fn unfolded_elems_paper(&self) -> u64 {
        self.in_h as u64 * self.in_w as u64 * self.in_c as u64 * self.ky as u64 * self.kx as u64
    }

    /// Intrinsic arithmetic intensity of the convolution:
    /// `|A| / (|I| + |W| + |O|)` (Sec. 3.1). Reproduces Table 1's
    /// "Intrinsic AIT" column exactly.
    pub fn intrinsic_ait(&self) -> f64 {
        self.arithmetic_ops() as f64
            / (self.input_elems() + self.weight_elems() + self.output_elems()) as f64
    }

    /// Arithmetic intensity of the Unfold+GEMM execution:
    /// `intrinsic_ait * r = |A| / (2|U| + |W| + |O|)` with the paper's
    /// `|U|` accounting. Reproduces Table 1's "Unfold+GEMM" column within
    /// rounding.
    pub fn unfold_ait(&self) -> f64 {
        self.arithmetic_ops() as f64
            / (2 * self.unfolded_elems_paper() + self.weight_elems() + self.output_elems()) as f64
    }

    /// Replication factor of the unfold step (`|U| / |I|`), roughly
    /// `Fx * Fy / (sx * sy)` for kernels much smaller than the input.
    pub fn unfold_blowup(&self) -> f64 {
        self.unfolded_elems() as f64 / self.input_elems() as f64
    }
}

impl fmt::Display for ConvSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conv {}x{}x{} -> {} features, {}x{} kernel, stride {}x{}",
            self.in_c, self.in_h, self.in_w, self.features, self.ky, self.kx, self.sy, self.sx
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let s = ConvSpec::new(3, 10, 8, 16, 3, 3, 1, 1).unwrap();
        assert_eq!(s.out_h(), 8);
        assert_eq!(s.out_w(), 6);
        assert_eq!(s.output_shape().len(), 16 * 8 * 6);
        assert_eq!(s.weight_shape().len(), 16 * 3 * 9);
    }

    #[test]
    fn strided_geometry() {
        // Table 2, AlexNet L0: 224, 96 features, 3 channels, 11x11, stride 4.
        let s = ConvSpec::square(224, 96, 3, 11, 4);
        assert_eq!(s.out_h(), 54);
        assert_eq!(s.out_w(), 54);
    }

    #[test]
    fn rejects_invalid() {
        assert!(ConvSpec::new(0, 4, 4, 1, 1, 1, 1, 1).is_err());
        assert!(ConvSpec::new(1, 4, 4, 1, 5, 1, 1, 1).is_err());
        assert!(ConvSpec::new(1, 4, 4, 1, 1, 5, 1, 1).is_err());
        assert!(ConvSpec::new(1, 4, 4, 1, 1, 1, 0, 1).is_err());
    }

    /// Table 1 of the paper: intrinsic AIT column, reproduced exactly for
    /// all six convolution IDs.
    #[test]
    fn table1_intrinsic_ait() {
        let cases = [
            // (Nx, Nf, Nc, Fx) -> Table 1 "Intrinsic AIT"
            (32, 32, 32, 4, 362.0),
            (64, 1024, 512, 2, 2015.0),
            (256, 256, 128, 3, 1510.0),
            (128, 128, 64, 7, 3561.0),
            (128, 512, 256, 5, 6567.0),
            (64, 64, 16, 11, 1921.0),
        ];
        for (n, nf, nc, k, expect) in cases {
            let s = ConvSpec::square(n, nf, nc, k, 1);
            let ait = s.intrinsic_ait();
            assert!(
                (ait - expect).abs() / expect < 0.01,
                "{n},{nf},{nc},{k}: got {ait}, expected {expect}"
            );
        }
    }

    /// Table 1: Unfold+GEMM AIT column, reproduced within 2 % for all six
    /// IDs using the paper's `|U|` accounting.
    #[test]
    fn table1_unfold_ait() {
        let cases = [
            (32, 32, 32, 4, 25.0),
            (64, 1024, 512, 2, 725.0),
            (256, 256, 128, 3, 226.0),
            (128, 128, 64, 7, 113.0),
            (128, 512, 256, 5, 456.0),
            (64, 64, 16, 11, 44.0),
        ];
        for (n, nf, nc, k, expect) in cases {
            let s = ConvSpec::square(n, nf, nc, k, 1);
            let ait = s.unfold_ait();
            assert!(
                (ait - expect).abs() / expect < 0.05,
                "{n},{nf},{nc},{k}: got {ait}, expected {expect}"
            );
        }
    }

    #[test]
    fn kernel_equals_input_gives_one_output() {
        // At the limit Fx = Nx the convolution is a matrix multiply, so
        // unfolding replicates nothing.
        let s = ConvSpec::square(8, 32, 16, 8, 1);
        assert_eq!(s.out_h(), 1);
        assert_eq!(s.unfold_blowup(), 1.0);
    }

    #[test]
    fn unfold_blowup_grows_with_kernel() {
        let small = ConvSpec::square(64, 8, 8, 2, 1);
        let large = ConvSpec::square(64, 8, 8, 7, 1);
        assert!(large.unfold_blowup() > small.unfold_blowup());
    }

    #[test]
    fn display_mentions_kernel() {
        let s = ConvSpec::square(8, 4, 2, 3, 1);
        assert!(s.to_string().contains("3x3 kernel"));
    }
}
