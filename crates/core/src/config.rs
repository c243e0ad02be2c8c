//! Network-description parser.
//!
//! The paper takes CNN descriptions "using Google Protocol Buffer, similar
//! to how CAFFE describes its inputs" (Sec. 4). This module implements a
//! small hand-written parser for an equivalent protobuf-text-like format,
//! avoiding an external dependency while playing the same role: declare a
//! network in text, get an optimized, trainable [`Network`].
//!
//! # Format
//!
//! ```text
//! # comments run to end of line
//! name: "cifar10"
//! input { channels: 3 height: 36 width: 36 }
//! conv  { features: 64 kernel: 5 stride: 1 }
//! relu  { }
//! lrn   { size: 5 }
//! pool  { window: 2 }
//! dropout { rate_pct: 50 }
//! fc    { outputs: 10 }
//! ```
//!
//! Layers are listed in order; activation geometry is inferred and
//! validated while building.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use spg_convnet::layer::{ConvLayer, FcLayer, Layer, MaxPoolLayer, ReluLayer};
use spg_convnet::regularize::{DropoutLayer, LrnLayer};
use spg_convnet::{ConvSpec, Network};
use spg_tensor::Shape3;

use crate::SpgError;

/// One layer in a parsed description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerDesc {
    /// Convolution with square kernel and stride.
    Conv {
        /// Output feature count `Nf`.
        features: usize,
        /// Kernel extent `Fx = Fy`.
        kernel: usize,
        /// Stride `sx = sy`.
        stride: usize,
    },
    /// Rectified linear unit.
    Relu,
    /// Non-overlapping square max pooling.
    Pool {
        /// Window extent.
        window: usize,
    },
    /// Fully-connected layer.
    Fc {
        /// Output neuron count.
        outputs: usize,
    },
    /// Inverted dropout.
    Dropout {
        /// Drop probability in integer percent (`50` = 0.5).
        rate_pct: usize,
    },
    /// Local response normalization across channels (AlexNet constants).
    Lrn {
        /// Channel window size.
        size: usize,
    },
}

/// A parsed network description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkDescription {
    /// Network name.
    pub name: String,
    /// Input activation geometry.
    pub input: Shape3,
    /// Layers in order.
    pub layers: Vec<LayerDesc>,
}

impl NetworkDescription {
    /// Parses a description from its text form.
    ///
    /// # Errors
    ///
    /// Returns [`SpgError::Parse`] on malformed input and
    /// [`SpgError::InvalidNetwork`] when required sections are missing.
    ///
    /// # Example
    ///
    /// ```
    /// use spg_core::config::NetworkDescription;
    ///
    /// let text = r#"
    ///     name: "mnist"
    ///     input { channels: 1 height: 28 width: 28 }
    ///     conv { features: 20 kernel: 5 stride: 1 }
    ///     relu { }
    ///     pool { window: 2 }
    ///     fc { outputs: 10 }
    /// "#;
    /// let desc = NetworkDescription::parse(text)?;
    /// assert_eq!(desc.name, "mnist");
    /// assert_eq!(desc.layers.len(), 4);
    /// # Ok::<(), spg_core::SpgError>(())
    /// ```
    pub fn parse(text: &str) -> Result<Self, SpgError> {
        let mut name = None;
        let mut input = None;
        let mut layers = Vec::new();
        let mut tokens = tokenize(text);
        while let Some((line, tok)) = tokens.next() {
            match tok.as_str() {
                "name:" => {
                    let (_, value) = tokens.next().ok_or_else(|| SpgError::Parse {
                        line,
                        message: "expected a name after `name:`".into(),
                    })?;
                    name = Some(value.trim_matches('"').to_owned());
                }
                "input" => {
                    let fields = parse_block(&mut tokens, line)?;
                    input = Some(Shape3::new(
                        field(&fields, "channels", line)?,
                        field(&fields, "height", line)?,
                        field(&fields, "width", line)?,
                    ));
                }
                "conv" => {
                    let fields = parse_block(&mut tokens, line)?;
                    layers.push(LayerDesc::Conv {
                        features: field(&fields, "features", line)?,
                        kernel: field(&fields, "kernel", line)?,
                        stride: field_or(&fields, "stride", 1),
                    });
                }
                "relu" => {
                    parse_block(&mut tokens, line)?;
                    layers.push(LayerDesc::Relu);
                }
                "pool" => {
                    let fields = parse_block(&mut tokens, line)?;
                    layers.push(LayerDesc::Pool { window: field(&fields, "window", line)? });
                }
                "fc" => {
                    let fields = parse_block(&mut tokens, line)?;
                    layers.push(LayerDesc::Fc { outputs: field(&fields, "outputs", line)? });
                }
                "dropout" => {
                    let fields = parse_block(&mut tokens, line)?;
                    let rate_pct = field(&fields, "rate_pct", line)?;
                    if rate_pct >= 100 {
                        return Err(SpgError::Parse {
                            line,
                            message: format!("dropout rate_pct {rate_pct} must be below 100"),
                        });
                    }
                    layers.push(LayerDesc::Dropout { rate_pct });
                }
                "lrn" => {
                    let fields = parse_block(&mut tokens, line)?;
                    layers.push(LayerDesc::Lrn { size: field(&fields, "size", line)? });
                }
                other => {
                    return Err(SpgError::Parse {
                        line,
                        message: format!("unknown section `{other}`"),
                    })
                }
            }
        }
        let input = input.ok_or_else(|| SpgError::InvalidNetwork {
            message: "missing `input { ... }` section".into(),
        })?;
        if layers.is_empty() {
            return Err(SpgError::InvalidNetwork { message: "no layers declared".into() });
        }
        Ok(NetworkDescription { name: name.unwrap_or_else(|| "unnamed".into()), input, layers })
    }

    /// Builds a trainable [`Network`] with seeded random initialization.
    ///
    /// Every activation and parameter count is computed with checked
    /// arithmetic and held to [`MAX_NETWORK_ELEMS`] before the layer that
    /// needs it is constructed, so a hostile description is refused
    /// without allocating from its numbers.
    ///
    /// # Errors
    ///
    /// Returns [`SpgError::InvalidNetwork`] naming the layer when its
    /// geometry does not chain (e.g. a kernel larger than its input), when
    /// a count is zero or overflows, or when the network exceeds the
    /// element bound.
    pub fn build(&self, seed: u64) -> Result<Network, SpgError> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut shape = self.input;
        // Current activation count, and whether an fc has flattened it.
        let mut len = elems("input", &[shape.c, shape.h, shape.w])?;
        let mut flat = false;
        let mut params = 0usize;
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        for (i, desc) in self.layers.iter().enumerate() {
            let at = |what: &str| format!("layer {i}: {what}");
            let invalid = |e: &dyn std::fmt::Display| SpgError::InvalidNetwork {
                message: at(&e.to_string()),
            };
            // Spatial layers need the CHW geometry an fc flattens away.
            let spatial = |name: &str| match flat {
                true => Err(invalid(&format_args!("{name} after fc is unsupported"))),
                false => Ok(()),
            };
            match *desc {
                LayerDesc::Conv { features, kernel, stride } => {
                    spatial("conv")?;
                    let spec = ConvSpec::new(
                        shape.c, shape.h, shape.w, features, kernel, kernel, stride, stride,
                    )
                    .map_err(|e| invalid(&e))?;
                    let weights = elems(&at("conv weights"), &[features, shape.c, kernel, kernel])?;
                    params = charge(params, weights, &at("conv weights"))?;
                    shape = spec.output_shape();
                    len = elems(&at("conv output"), &[shape.c, shape.h, shape.w])?;
                    layers.push(Box::new(ConvLayer::new(spec, &mut rng)));
                }
                LayerDesc::Relu => layers.push(Box::new(ReluLayer::new(len))),
                LayerDesc::Pool { window } => {
                    spatial("pool")?;
                    let pool = MaxPoolLayer::new(shape, window).map_err(|e| invalid(&e))?;
                    shape = pool.out_shape();
                    len = elems(&at("pool output"), &[shape.c, shape.h, shape.w])?;
                    layers.push(Box::new(pool));
                }
                LayerDesc::Fc { outputs } => {
                    let weights = elems(&at("fc weights"), &[len, outputs])?;
                    params = charge(params, weights, &at("fc weights"))?;
                    params = charge(params, outputs, &at("fc biases"))?;
                    layers.push(Box::new(FcLayer::new(len, outputs, &mut rng)));
                    len = outputs;
                    flat = true;
                }
                LayerDesc::Dropout { rate_pct } => {
                    // The mask seed derives from the layer position only —
                    // not from the weight-initialization seed — so a saved
                    // model restored into a freshly built shell computes
                    // the same function (see `io`).
                    let layer = DropoutLayer::new(len, rate_pct as f32 / 100.0, 0xd20b ^ i as u64)
                        .map_err(|e| invalid(&e))?;
                    layers.push(Box::new(layer));
                }
                LayerDesc::Lrn { size } => {
                    spatial("lrn")?;
                    let layer =
                        LrnLayer::new(shape.c, shape.plane(), size).map_err(|e| invalid(&e))?;
                    layers.push(Box::new(layer));
                }
            }
        }
        Network::new(layers).map_err(|e| SpgError::InvalidNetwork { message: e.to_string() })
    }
}

/// Largest single activation, and largest total parameter count, in `f32`
/// elements that [`NetworkDescription::build`] accepts: 1 GiB of `f32`s,
/// an order of magnitude above the full ImageNet-22K description.
pub const MAX_NETWORK_ELEMS: usize = 1 << 28;

/// The product of `factors` as an element count `build` may allocate:
/// non-zero, computed without overflow, and within [`MAX_NETWORK_ELEMS`].
fn elems(what: &str, factors: &[usize]) -> Result<usize, SpgError> {
    factors
        .iter()
        .try_fold(1usize, |n, &f| n.checked_mul(f))
        .filter(|n| (1..=MAX_NETWORK_ELEMS).contains(n))
        .ok_or_else(|| SpgError::InvalidNetwork {
            message: format!(
                "{what}: {factors:?} elements is zero or above the {MAX_NETWORK_ELEMS}-element bound"
            ),
        })
}

/// `params + more`, held to [`MAX_NETWORK_ELEMS`] for the whole network.
fn charge(params: usize, more: usize, what: &str) -> Result<usize, SpgError> {
    params.checked_add(more).filter(|&n| n <= MAX_NETWORK_ELEMS).ok_or_else(|| {
        SpgError::InvalidNetwork {
            message: format!(
                "{what}: network exceeds {MAX_NETWORK_ELEMS} parameters ({params} + {more})"
            ),
        }
    })
}

/// Tokenizer yielding `(line, token)` pairs; `{`/`}` are their own tokens,
/// `#` comments run to end of line.
fn tokenize(text: &str) -> impl Iterator<Item = (usize, String)> + '_ {
    text.lines().enumerate().flat_map(|(i, raw)| {
        let line = raw.split('#').next().unwrap_or("");
        line.replace('{', " { ")
            .replace('}', " } ")
            .split_whitespace()
            .map(|t| (i + 1, t.to_owned()))
            .collect::<Vec<_>>()
    })
}

fn parse_block(
    tokens: &mut impl Iterator<Item = (usize, String)>,
    start_line: usize,
) -> Result<Vec<(String, usize)>, SpgError> {
    match tokens.next() {
        Some((_, t)) if t == "{" => {}
        _ => {
            return Err(SpgError::Parse { line: start_line, message: "expected `{`".into() });
        }
    }
    let mut fields = Vec::new();
    loop {
        match tokens.next() {
            Some((_, t)) if t == "}" => return Ok(fields),
            Some((line, key)) if key.ends_with(':') => {
                let (_, value) = tokens.next().ok_or_else(|| SpgError::Parse {
                    line,
                    message: format!("expected a value after `{key}`"),
                })?;
                let parsed = value.parse::<usize>().map_err(|_| SpgError::Parse {
                    line,
                    message: format!("`{value}` is not a non-negative integer"),
                })?;
                fields.push((key.trim_end_matches(':').to_owned(), parsed));
            }
            Some((line, t)) => {
                return Err(SpgError::Parse { line, message: format!("unexpected token `{t}`") });
            }
            None => {
                return Err(SpgError::Parse {
                    line: start_line,
                    message: "unterminated block".into(),
                });
            }
        }
    }
}

fn field(fields: &[(String, usize)], key: &str, line: usize) -> Result<usize, SpgError> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| SpgError::Parse { line, message: format!("missing field `{key}`") })
}

fn field_or(fields: &[(String, usize)], key: &str, default: usize) -> usize {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| *v).unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CIFAR: &str = r#"
        # CIFAR-10 (Table 2): two conv layers then a classifier.
        name: "cifar10"
        input { channels: 3 height: 36 width: 36 }
        conv { features: 64 kernel: 5 stride: 1 }
        relu { }
        pool { window: 2 }
        conv { features: 64 kernel: 5 stride: 1 }
        relu { }
        pool { window: 2 }
        fc { outputs: 10 }
    "#;

    #[test]
    fn parses_cifar_description() {
        let desc = NetworkDescription::parse(CIFAR).unwrap();
        assert_eq!(desc.name, "cifar10");
        assert_eq!(desc.input, Shape3::new(3, 36, 36));
        assert_eq!(desc.layers.len(), 7);
        assert_eq!(desc.layers[0], LayerDesc::Conv { features: 64, kernel: 5, stride: 1 });
        assert_eq!(desc.layers[6], LayerDesc::Fc { outputs: 10 });
    }

    #[test]
    fn builds_trainable_network_with_correct_geometry() {
        let desc = NetworkDescription::parse(CIFAR).unwrap();
        let net = desc.build(7).unwrap();
        // 36 -> conv5 -> 32 -> pool2 -> 16 -> conv5 -> 12 -> pool2 -> 6.
        assert_eq!(net.input_len(), 3 * 36 * 36);
        assert_eq!(net.output_len(), 10);
        assert_eq!(net.layers().len(), 7);
        assert!(net.layers()[3].conv_spec().is_some());
        assert_eq!(net.layers()[3].conv_spec().unwrap().in_h(), 16);
    }

    #[test]
    fn default_stride_is_one() {
        let desc = NetworkDescription::parse(
            "input { channels: 1 height: 8 width: 8 }\nconv { features: 2 kernel: 3 }",
        )
        .unwrap();
        assert_eq!(desc.layers[0], LayerDesc::Conv { features: 2, kernel: 3, stride: 1 });
    }

    #[test]
    fn reports_line_numbers_on_errors() {
        let err = NetworkDescription::parse("input { channels: 1 height: 8 width: 8 }\nwat { }")
            .unwrap_err();
        assert!(matches!(err, SpgError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn rejects_missing_input_and_empty_networks() {
        assert!(matches!(
            NetworkDescription::parse("conv { features: 2 kernel: 3 }"),
            Err(SpgError::InvalidNetwork { .. })
        ));
        assert!(matches!(
            NetworkDescription::parse("input { channels: 1 height: 4 width: 4 }"),
            Err(SpgError::InvalidNetwork { .. })
        ));
    }

    #[test]
    fn rejects_bad_values_and_unterminated_blocks() {
        assert!(NetworkDescription::parse("input { channels: x height: 4 width: 4 }").is_err());
        assert!(NetworkDescription::parse("input { channels: 1").is_err());
    }

    #[test]
    fn build_rejects_oversized_kernels() {
        let desc = NetworkDescription::parse(
            "input { channels: 1 height: 4 width: 4 }\nconv { features: 2 kernel: 9 }",
        )
        .unwrap();
        assert!(matches!(desc.build(0), Err(SpgError::InvalidNetwork { .. })));
    }

    #[test]
    fn dropout_and_lrn_layers_build() {
        let desc = NetworkDescription::parse(
            r#"
            input { channels: 4 height: 8 width: 8 }
            conv { features: 8 kernel: 3 }
            lrn { size: 3 }
            relu { }
            fc { outputs: 4 }
            dropout { rate_pct: 50 }
            fc { outputs: 2 }
            "#,
        )
        .unwrap();
        let net = desc.build(3).unwrap();
        assert_eq!(net.layers().len(), 6);
        assert_eq!(net.layers()[1].name(), "lrn");
        assert_eq!(net.layers()[4].name(), "dropout");
        assert_eq!(net.output_len(), 2);
        // Forward runs end to end.
        let out = net.forward(&spg_tensor::Tensor::filled(net.input_len(), 0.3));
        assert_eq!(out.logits().len(), 2);
    }

    #[test]
    fn dropout_rate_must_be_below_100() {
        let err = NetworkDescription::parse(
            "input { channels: 1 height: 4 width: 4 }\ndropout { rate_pct: 100 }",
        )
        .unwrap_err();
        assert!(matches!(err, SpgError::Parse { .. }), "{err}");
    }

    #[test]
    fn lrn_after_fc_rejected() {
        let desc = NetworkDescription::parse(
            "input { channels: 1 height: 4 width: 4 }\nfc { outputs: 4 }\nlrn { size: 3 }",
        )
        .unwrap();
        assert!(matches!(desc.build(0), Err(SpgError::InvalidNetwork { .. })));
    }

    #[test]
    fn build_is_seed_deterministic() {
        let desc = NetworkDescription::parse(CIFAR).unwrap();
        let a = desc.build(3).unwrap();
        let b = desc.build(3).unwrap();
        let input = spg_tensor::Tensor::filled(a.input_len(), 0.1);
        assert_eq!(a.forward(&input).logits().as_slice(), b.forward(&input).logits().as_slice());
    }
}
