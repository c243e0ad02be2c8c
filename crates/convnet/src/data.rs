//! Seeded synthetic labelled datasets.
//!
//! The paper trains on MNIST / CIFAR-10 / ImageNet; those datasets are not
//! available here, so we substitute generators that preserve what the
//! experiments actually measure: input geometry (which fixes the per-layer
//! convolution shapes and thus throughput) and *learnable class structure*
//! (so real training dynamics — loss descent and the ReLU-driven gradient
//! sparsification of Fig. 3b — emerge rather than being scripted).
//!
//! Each class gets a random low-frequency prototype image; samples are the
//! prototype plus noise. A CNN separates them within a couple of epochs,
//! after which most activations are confidently gated and error gradients
//! become sparse — the dynamic the paper's sparse kernels exploit.

use rand::distributions::{Distribution, Uniform};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spg_tensor::{Shape3, Tensor};

/// A labelled set of images with fixed geometry.
#[derive(Debug, Clone)]
pub struct Dataset {
    images: Vec<Tensor>,
    labels: Vec<usize>,
}

impl Dataset {
    /// Generates `samples` images of `shape` across `classes` classes.
    ///
    /// `noise` in `[0, 1]` controls separability: `0.0` gives pure
    /// prototypes (trivially separable), higher values blur class
    /// structure. The same `seed` always produces the same dataset.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0` or `shape` is empty.
    ///
    /// # Example
    ///
    /// ```
    /// use spg_convnet::data::Dataset;
    /// use spg_tensor::Shape3;
    ///
    /// let ds = Dataset::synthetic(Shape3::new(1, 8, 8), 3, 30, 0.3, 7);
    /// assert_eq!(ds.len(), 30);
    /// assert!(ds.label(0) < 3);
    /// ```
    pub fn synthetic(shape: Shape3, classes: usize, samples: usize, noise: f32, seed: u64) -> Self {
        assert!(classes > 0, "class count must be positive");
        assert!(!shape.is_empty(), "shape must be non-empty");
        let mut rng = SmallRng::seed_from_u64(seed);
        let prototypes: Vec<Tensor> =
            (0..classes).map(|_| smooth_prototype(shape, &mut rng)).collect();
        let noise_dist = Uniform::new_inclusive(-noise, noise);
        let mut images = Vec::with_capacity(samples);
        let mut labels = Vec::with_capacity(samples);
        for i in 0..samples {
            let label = i % classes;
            let img: Tensor =
                prototypes[label].iter().map(|v| v + noise_dist.sample(&mut rng)).collect();
            images.push(img);
            labels.push(label);
        }
        Dataset { images, labels }
    }

    /// A dataset of the one image `image` labelled `label`: how a single
    /// sample enters the training walk.
    pub(crate) fn of_one(image: Tensor, label: usize) -> Self {
        Dataset { images: vec![image], labels: vec![label] }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Returns `true` if the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Borrows sample `i`'s image.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn image(&self, i: usize) -> &Tensor {
        &self.images[i]
    }

    /// Sample `i`'s label.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// Shuffles sample order in place with the given seed (between epochs).
    pub fn shuffle(&mut self, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in (1..self.images.len()).rev() {
            let j = rng.gen_range(0..=i);
            self.images.swap(i, j);
            self.labels.swap(i, j);
        }
    }
}

/// A low-frequency random image: random anchor grid, bilinearly upsampled.
/// Low-frequency structure is what convolutional features latch onto.
fn smooth_prototype<R: Rng>(shape: Shape3, rng: &mut R) -> Tensor {
    const GRID: usize = 4;
    let dist = Uniform::new_inclusive(-1.0f32, 1.0);
    let mut out = Tensor::zeros(shape.len());
    for c in 0..shape.c {
        let anchors: Vec<f32> = (0..GRID * GRID).map(|_| dist.sample(rng)).collect();
        for y in 0..shape.h {
            for x in 0..shape.w {
                let fy = y as f32 / shape.h.max(1) as f32 * (GRID - 1) as f32;
                let fx = x as f32 / shape.w.max(1) as f32 * (GRID - 1) as f32;
                #[allow(clippy::cast_possible_truncation)] // fy, fx lie in [0, GRID-1]
                let (y0, x0) = (fy as usize, fx as usize);
                let (y1, x1) = ((y0 + 1).min(GRID - 1), (x0 + 1).min(GRID - 1));
                let (ty, tx) = (fy - y0 as f32, fx - x0 as f32);
                let top = anchors[y0 * GRID + x0] * (1.0 - tx) + anchors[y0 * GRID + x1] * tx;
                let bot = anchors[y1 * GRID + x0] * (1.0 - tx) + anchors[y1 * GRID + x1] * tx;
                out[shape.index(c, y, x)] = top * (1.0 - ty) + bot * ty;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let a = Dataset::synthetic(Shape3::new(1, 6, 6), 2, 10, 0.2, 42);
        let b = Dataset::synthetic(Shape3::new(1, 6, 6), 2, 10, 0.2, 42);
        assert_eq!(a.image(3).as_slice(), b.image(3).as_slice());
        assert_eq!(a.label(3), b.label(3));
    }

    #[test]
    fn labels_cycle_through_classes() {
        let ds = Dataset::synthetic(Shape3::new(1, 4, 4), 3, 9, 0.1, 1);
        let counts: Vec<usize> =
            (0..3).map(|c| (0..ds.len()).filter(|&i| ds.label(i) == c).count()).collect();
        assert_eq!(counts, vec![3, 3, 3]);
    }

    #[test]
    fn same_class_samples_are_similar() {
        let ds = Dataset::synthetic(Shape3::new(1, 8, 8), 2, 8, 0.05, 9);
        // Samples 0 and 2 share class 0; 0 and 1 differ.
        let d_same: f32 =
            ds.image(0).iter().zip(ds.image(2).iter()).map(|(a, b)| (a - b).abs()).sum();
        let d_diff: f32 =
            ds.image(0).iter().zip(ds.image(1).iter()).map(|(a, b)| (a - b).abs()).sum();
        assert!(d_same < d_diff, "same {d_same} vs diff {d_diff}");
    }

    #[test]
    fn shuffle_preserves_pairing() {
        let mut ds = Dataset::synthetic(Shape3::new(1, 4, 4), 4, 16, 0.0, 5);
        // With zero noise, each image *is* its class prototype.
        let pairs = |ds: &Dataset| -> Vec<(Vec<f32>, usize)> {
            (0..ds.len()).map(|i| (ds.image(i).as_slice().to_vec(), ds.label(i))).collect()
        };
        let proto = pairs(&ds);
        ds.shuffle(99);
        for (img, label) in pairs(&ds) {
            let matching = proto.iter().find(|(p, _)| *p == img).expect("image survives shuffle");
            assert_eq!(matching.1, label);
        }
    }

    #[test]
    #[should_panic(expected = "class count")]
    fn zero_classes_rejected() {
        Dataset::synthetic(Shape3::new(1, 4, 4), 0, 4, 0.1, 1);
    }
}
