use std::fmt;
use std::ops::{Index, IndexMut};

use rand::distributions::{Distribution, Uniform};
use rand::Rng;

use crate::TensorError;

/// An owned, contiguous buffer of `f32` values.
///
/// `Tensor` is deliberately shape-agnostic: geometry lives in
/// [`Shape3`](crate::Shape3) / [`Shape4`](crate::Shape4) (or in the layer
/// specs of downstream crates) and indexing helpers there compute flat
/// offsets into the tensor. This keeps one buffer type usable for
/// activations, weights, gradients, and scratch space alike.
///
/// # Example
///
/// ```
/// use spg_tensor::Tensor;
///
/// let mut t = Tensor::zeros(8);
/// t[3] = 2.5;
/// assert_eq!(t.iter().sum::<f32>(), 2.5);
/// ```
#[derive(Clone, Default, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        Tensor { data: vec![0.0; len] }
    }

    /// Creates a tensor filled with `value`.
    ///
    /// # Example
    ///
    /// ```
    /// use spg_tensor::Tensor;
    /// let t = Tensor::filled(4, 1.5);
    /// assert_eq!(t.as_slice(), &[1.5; 4]);
    /// ```
    // lint: allow(test-only) tests and doc examples build constant inputs
    pub fn filled(len: usize, value: f32) -> Self {
        Tensor { data: vec![value; len] }
    }

    /// Creates a tensor from an existing vector, taking ownership.
    pub fn from_vec(data: Vec<f32>) -> Self {
        Tensor { data }
    }

    /// Creates a tensor of `len` values drawn uniformly from `[-scale, scale]`.
    ///
    /// This is the weight-initialization primitive used throughout the
    /// workspace; callers pass a seeded RNG for reproducibility.
    ///
    /// # Example
    ///
    /// ```
    /// use spg_tensor::Tensor;
    /// use rand::{SeedableRng, rngs::SmallRng};
    ///
    /// let mut rng = SmallRng::seed_from_u64(7);
    /// let t = Tensor::random_uniform(16, 0.1, &mut rng);
    /// assert!(t.iter().all(|v| v.abs() <= 0.1));
    /// ```
    pub fn random_uniform<R: Rng>(len: usize, scale: f32, rng: &mut R) -> Self {
        let dist = Uniform::new_inclusive(-scale, scale);
        Tensor { data: (0..len).map(|_| dist.sample(rng)).collect() }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Iterates over elements.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Fraction of elements equal to zero, in `[0, 1]`.
    ///
    /// This is the paper's *sparsity* measure (Sec. 1.2) applied to a raw
    /// buffer. Returns `0.0` for an empty tensor.
    ///
    /// # Example
    ///
    /// ```
    /// use spg_tensor::Tensor;
    /// let t = Tensor::from_vec(vec![0.0, 1.0, 0.0, 0.0]);
    /// assert_eq!(t.sparsity(), 0.75);
    /// ```
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|v| **v == 0.0).count();
        zeros as f64 / self.data.len() as f64
    }

    /// Maximum absolute element-wise difference from `other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if lengths differ.
    // lint: allow(test-only) the tolerance check of the layers' oracle tests
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32, TensorError> {
        if self.len() != other.len() {
            return Err(TensorError::LengthMismatch { expected: self.len(), actual: other.len() });
        }
        Ok(self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max))
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.data.len() <= 8 {
            write!(f, "Tensor({:?})", self.data)
        } else {
            write!(f, "Tensor(len={}, head={:?}..)", self.data.len(), &self.data[..8])
        }
    }
}

impl Index<usize> for Tensor {
    type Output = f32;
    #[inline]
    fn index(&self, i: usize) -> &f32 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Tensor {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        &mut self.data[i]
    }
}

impl From<Vec<f32>> for Tensor {
    fn from(data: Vec<f32>) -> Self {
        Tensor::from_vec(data)
    }
}

impl AsRef<[f32]> for Tensor {
    fn as_ref(&self) -> &[f32] {
        &self.data
    }
}

impl AsMut<[f32]> for Tensor {
    fn as_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

impl FromIterator<f32> for Tensor {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        Tensor { data: iter.into_iter().collect() }
    }
}

impl Extend<f32> for Tensor {
    fn extend<I: IntoIterator<Item = f32>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Tensor {
    type Item = &'a f32;
    type IntoIter = std::slice::Iter<'a, f32>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl IntoIterator for Tensor {
    type Item = f32;
    type IntoIter = std::vec::IntoIter<f32>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_filled() {
        assert_eq!(Tensor::zeros(3).as_slice(), &[0.0; 3]);
        assert_eq!(Tensor::filled(2, 7.0).as_slice(), &[7.0, 7.0]);
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros(4);
        t[2] = 9.0;
        assert_eq!(t[2], 9.0);
    }

    #[test]
    fn sparsity_measures_zero_fraction() {
        let t = Tensor::from_vec(vec![0.0, 0.0, 1.0, 2.0]);
        assert_eq!(t.sparsity(), 0.5);
        assert_eq!(Tensor::zeros(0).sparsity(), 0.0);
        assert_eq!(Tensor::zeros(5).sparsity(), 1.0);
    }

    #[test]
    fn random_uniform_is_seeded_and_bounded() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(1);
        let ta = Tensor::random_uniform(32, 0.5, &mut a);
        let tb = Tensor::random_uniform(32, 0.5, &mut b);
        assert_eq!(ta, tb);
        assert!(ta.iter().all(|v| v.abs() <= 0.5));
    }

    #[test]
    fn max_abs_diff_detects_mismatch() {
        let a = Tensor::from_vec(vec![1.0, 2.0]);
        let b = Tensor::from_vec(vec![1.0, 2.5]);
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.5);
        let c = Tensor::zeros(3);
        assert!(a.max_abs_diff(&c).is_err());
    }

    #[test]
    fn collect_and_extend() {
        let mut t: Tensor = (0..4).map(|i| i as f32).collect();
        t.extend([4.0, 5.0]);
        assert_eq!(t.len(), 6);
        assert_eq!(t[5], 5.0);
    }

    #[test]
    fn debug_truncates_long_tensors() {
        let t = Tensor::zeros(100);
        let s = format!("{t:?}");
        assert!(s.contains("len=100"));
        assert!(s.len() < 120);
    }
}
