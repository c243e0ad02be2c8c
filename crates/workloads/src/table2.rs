//! The per-benchmark convolution layer specifications of the paper's
//! Table 2: ImageNet-22K (Adam), ImageNet-1K (AlexNet), CIFAR-10, and
//! MNIST (LeCun), in `Nx(=Ny), Nf, Nc, Fx(=Fy), sx(=sy)` notation.

use spg_convnet::ConvSpec;

/// One of the four real-world image-recognition benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Adam-ImageNet: 22 000 categories, 262x262 inputs after padding.
    ImageNet22K,
    /// AlexNet: 1 000 categories, 224x224 inputs.
    ImageNet1K,
    /// CIFAR-10: 10 categories, 36x36 inputs after padding.
    Cifar10,
    /// MNIST (LeCun): 10 categories, 28x28 grayscale inputs.
    Mnist,
}

impl Benchmark {
    /// All four benchmarks in the paper's column order.
    pub fn all() -> [Benchmark; 4] {
        [Benchmark::ImageNet22K, Benchmark::ImageNet1K, Benchmark::Cifar10, Benchmark::Mnist]
    }

    /// The name used in the paper's tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            Benchmark::ImageNet22K => "ImageNet 22K",
            Benchmark::ImageNet1K => "ImageNet 1K",
            Benchmark::Cifar10 => "CIFAR-10",
            Benchmark::Mnist => "MNIST",
        }
    }

    /// The benchmark's convolution layers, in network order (Table 2).
    pub fn conv_layers(self) -> Vec<ConvSpec> {
        let sq = ConvSpec::square;
        match self {
            Benchmark::ImageNet22K => vec![
                sq(262, 120, 3, 7, 2),
                sq(64, 250, 120, 5, 2),
                sq(15, 400, 250, 3, 1),
                sq(13, 400, 400, 3, 1),
                sq(11, 600, 400, 3, 1),
            ],
            Benchmark::ImageNet1K => vec![
                sq(224, 96, 3, 11, 4),
                sq(55, 256, 96, 5, 1),
                sq(27, 384, 256, 3, 1),
                sq(13, 256, 192, 3, 1),
            ],
            Benchmark::Cifar10 => vec![sq(36, 64, 3, 5, 1), sq(8, 64, 64, 5, 1)],
            Benchmark::Mnist => vec![sq(28, 20, 1, 5, 1)],
        }
    }
}

/// `(benchmark, layer index, spec)` for every convolution layer in
/// Table 2 — the x-axis of Fig. 8.
pub fn all_layers() -> Vec<(Benchmark, usize, ConvSpec)> {
    Benchmark::all()
        .into_iter()
        .flat_map(|b| b.conv_layers().into_iter().enumerate().map(move |(i, s)| (b, i, s)))
        .collect()
}

/// A Table 2 layer proportionally shrunk for unoptimized (debug) test
/// builds, where one full-size ImageNet forward takes seconds: same
/// kernel, stride and square shape; spatial side and channel/feature
/// counts capped.
// lint: allow(test-only) debug-build tests run Table 2 layers at this size
pub fn shrunk(spec: &ConvSpec) -> ConvSpec {
    let side = (spec.kx() + 3 * spec.sx()).min(spec.in_h());
    ConvSpec::new(
        spec.in_c().min(64),
        side,
        side,
        spec.features().min(64),
        spec.kx(),
        spec.ky(),
        spec.sx(),
        spec.sy(),
    )
    .expect("shrunk Table 2 layer stays a valid spec")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_counts_match_table2() {
        assert_eq!(Benchmark::ImageNet22K.conv_layers().len(), 5);
        assert_eq!(Benchmark::ImageNet1K.conv_layers().len(), 4);
        assert_eq!(Benchmark::Cifar10.conv_layers().len(), 2);
        assert_eq!(Benchmark::Mnist.conv_layers().len(), 1);
        assert_eq!(all_layers().len(), 12);
    }

    #[test]
    fn alexnet_l0_is_the_famous_stride4_conv() {
        let l0 = Benchmark::ImageNet1K.conv_layers()[0];
        assert_eq!(l0.features(), 96);
        assert_eq!(l0.kx(), 11);
        assert_eq!(l0.sx(), 4);
        assert_eq!(l0.out_w(), 54);
    }

    /// Adjacent Table 2 layers must be geometrically consistent: each
    /// layer's channel count equals the previous layer's feature count —
    /// or half of it, for AlexNet's two-group convolutions (its layer 3
    /// reads 192 of the 384 features, exactly as Table 2 prints).
    #[test]
    fn channel_chains_are_consistent() {
        for b in Benchmark::all() {
            let layers = b.conv_layers();
            for w in layers.windows(2) {
                let ok = w[1].in_c() == w[0].features() || w[1].in_c() * 2 == w[0].features();
                assert!(ok, "{}: channel chain broken", b.label());
            }
        }
    }

    #[test]
    fn mnist_matches_lecun_geometry() {
        let l0 = Benchmark::Mnist.conv_layers()[0];
        assert_eq!((l0.in_c(), l0.in_h(), l0.features()), (1, 28, 20));
        assert_eq!(l0.out_h(), 24);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            Benchmark::all().iter().map(|b| b.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
