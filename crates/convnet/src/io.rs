//! Trained-model persistence: a small self-describing binary format for
//! network weights.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic  b"SPGW"
//! u32    format version (currently 1)
//! u32    layer count
//! per layer:
//!   u64  parameter count (0 for parameter-free layers)
//!   f32* parameters, little-endian
//! ```
//!
//! Loading validates the layer count and every per-layer parameter count
//! against the receiving network, so weights can only be restored into a
//! structurally identical model — and it is atomic: the whole stream is
//! parsed and validated before the first parameter is written, so a
//! failed load leaves the network exactly as it was.

use std::io::{Read, Write};

use crate::{ConvError, Network};

const MAGIC: [u8; 4] = *b"SPGW";
const VERSION: u32 = 1;

/// Serializes a network's trainable parameters.
///
/// # Errors
///
/// Returns any I/O error from the writer.
///
/// # Example
///
/// ```
/// use rand::{SeedableRng, rngs::SmallRng};
/// use spg_convnet::layer::FcLayer;
/// use spg_convnet::{io, Network};
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let net = Network::new(vec![Box::new(FcLayer::new(4, 2, &mut rng))])?;
/// let mut buf = Vec::new();
/// io::save_weights(&net, &mut buf)?;
/// assert!(buf.starts_with(b"SPGW"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn save_weights<W: Write>(net: &Network, mut writer: W) -> std::io::Result<()> {
    writer.write_all(&MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    let layer_count = u32::try_from(net.layers().len()).expect("layer count fits the format's u32");
    writer.write_all(&layer_count.to_le_bytes())?;
    // One buffer and one `write_all` per layer, not one per float: on an
    // unbuffered `File` each of those was a syscall.
    let mut buf = Vec::new();
    for layer in net.layers() {
        let params = layer.params().unwrap_or(&[]);
        buf.clear();
        buf.extend_from_slice(&(params.len() as u64).to_le_bytes());
        buf.resize(8 + params.len() * 4, 0);
        for (dst, p) in buf[8..].chunks_exact_mut(4).zip(params) {
            dst.copy_from_slice(&p.to_le_bytes());
        }
        writer.write_all(&buf)?;
    }
    Ok(())
}

/// Restores trainable parameters into a structurally identical network.
/// All or nothing: on `Err` no layer of `net` has been modified.
///
/// # Errors
///
/// Returns [`LoadError::Io`] on reader failures (including a truncated
/// stream), [`LoadError::Format`] on a malformed or mismatched file.
pub fn load_weights<R: Read>(net: &mut Network, mut reader: R) -> Result<(), LoadError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(LoadError::Format("bad magic; not an spg-cnn weight file".into()));
    }
    let version = read_u32(&mut reader)?;
    if version != VERSION {
        return Err(LoadError::Format(format!("unsupported format version {version}")));
    }
    let layer_count = read_u32(&mut reader)? as usize;
    if layer_count != net.layers().len() {
        return Err(LoadError::Format(format!(
            "file has {layer_count} layers, network has {}",
            net.layers().len()
        )));
    }
    // Stage every layer's parameters first. Buffers are sized by the
    // network's own parameter counts (the file's count field is only
    // compared against them), so a hostile length cannot drive allocation.
    let mut staged: Vec<Vec<f32>> = Vec::with_capacity(layer_count);
    let mut raw = Vec::new();
    for (i, layer) in net.layers().iter().enumerate() {
        let mut count_bytes = [0u8; 8];
        reader.read_exact(&mut count_bytes)?;
        let count = usize::try_from(u64::from_le_bytes(count_bytes)).map_err(|_| {
            LoadError::Format(format!("layer {i}: parameter count overflows usize"))
        })?;
        if count != layer.param_count() {
            return Err(LoadError::Format(format!(
                "layer {i}: file has {count} parameters, layer has {}",
                layer.param_count()
            )));
        }
        raw.resize(count * 4, 0);
        reader.read_exact(&mut raw)?;
        staged.push(
            raw.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect(),
        );
    }
    for (layer, params) in net.layers_mut().iter_mut().zip(&staged) {
        if !params.is_empty() {
            layer.set_params(params);
        }
    }
    Ok(())
}

fn read_u32<R: Read>(reader: &mut R) -> std::io::Result<u32> {
    let mut buf = [0u8; 4];
    reader.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Error restoring weights from a file.
#[derive(Debug)]
pub enum LoadError {
    /// The reader failed.
    Io(std::io::Error),
    /// The file is malformed or does not match the network.
    Format(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Format(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

#[doc(hidden)]
impl From<ConvError> for LoadError {
    fn from(e: ConvError) -> Self {
        LoadError::Format(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ConvLayer, FcLayer, ReluLayer};
    use crate::ConvSpec;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spg_tensor::Tensor;

    fn make_net(seed: u64) -> Network {
        let mut rng = SmallRng::seed_from_u64(seed);
        let spec = ConvSpec::new(1, 6, 6, 3, 3, 3, 1, 1).unwrap();
        Network::new(vec![
            Box::new(ConvLayer::new(spec, &mut rng)),
            Box::new(ReluLayer::new(spec.output_shape().len())),
            Box::new(FcLayer::new(spec.output_shape().len(), 2, &mut rng)),
        ])
        .unwrap()
    }

    #[test]
    fn round_trip_restores_exact_outputs() {
        let source = make_net(1);
        let mut target = make_net(2); // different weights
        let input = Tensor::filled(36, 0.3);
        let source_logits = source.forward(&input).logits().clone();
        let before = target.forward(&input).logits().clone();
        assert_ne!(source_logits.as_slice(), before.as_slice());

        let mut buf = Vec::new();
        save_weights(&source, &mut buf).unwrap();
        load_weights(&mut target, buf.as_slice()).unwrap();
        let after = target.forward(&input).logits().clone();
        assert_eq!(source_logits.as_slice(), after.as_slice());
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut net = make_net(3);
        assert!(matches!(
            load_weights(&mut net, &b"NOPE"[..]),
            Err(LoadError::Io(_)) | Err(LoadError::Format(_))
        ));
        let mut buf = Vec::new();
        save_weights(&net, &mut buf).unwrap();
        buf[4] = 99; // version
        let mut net2 = make_net(3);
        assert!(matches!(load_weights(&mut net2, buf.as_slice()), Err(LoadError::Format(_))));
    }

    #[test]
    fn rejects_structural_mismatch() {
        let source = make_net(4);
        let mut buf = Vec::new();
        save_weights(&source, &mut buf).unwrap();

        let mut rng = SmallRng::seed_from_u64(5);
        let mut different = Network::new(vec![
            Box::new(FcLayer::new(8, 2, &mut rng)) as Box<dyn crate::layer::Layer>
        ])
        .unwrap();
        assert!(matches!(load_weights(&mut different, buf.as_slice()), Err(LoadError::Format(_))));
    }

    #[test]
    fn rejects_truncated_file() {
        let source = make_net(6);
        let mut buf = Vec::new();
        save_weights(&source, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let mut target = make_net(6);
        assert!(matches!(load_weights(&mut target, buf.as_slice()), Err(LoadError::Io(_))));
    }

    /// Regression: loading used to `set_params` layer by layer, so a file
    /// truncated inside the last layer returned `Err` with every earlier
    /// layer already overwritten — a half-restored model.
    #[test]
    fn failed_load_leaves_the_network_untouched() {
        let source = make_net(1);
        let mut buf = Vec::new();
        save_weights(&source, &mut buf).unwrap();
        buf.truncate(buf.len() - 3); // inside the final (fc) layer

        let mut target = make_net(2);
        let input = Tensor::filled(36, 0.3);
        let before = target.forward(&input).logits().clone();
        assert!(matches!(load_weights(&mut target, buf.as_slice()), Err(LoadError::Io(_))));
        let after = target.forward(&input).logits().clone();
        assert_eq!(before.as_slice(), after.as_slice(), "conv layer was overwritten");
    }

    #[test]
    fn parameter_free_layers_store_zero_counts() {
        let net = make_net(7);
        let mut buf = Vec::new();
        save_weights(&net, &mut buf).unwrap();
        // magic + version + count + (conv: 8B + params) + (relu: 8B) + (fc ...)
        let conv_params = net.layers()[0].param_count();
        let relu_offset = 4 + 4 + 4 + 8 + conv_params * 4;
        let relu_count = u64::from_le_bytes(buf[relu_offset..relu_offset + 8].try_into().unwrap());
        assert_eq!(relu_count, 0);
    }
}
