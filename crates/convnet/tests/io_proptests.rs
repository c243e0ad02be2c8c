//! Property tests for the weight-file loader.
//!
//! Pins the contract documented on `io::load_weights`: any malformed
//! stream — truncated, bit-flipped, or prefixed with garbage — returns a
//! typed [`LoadError`] instead of panicking, and a failed load leaves the
//! receiving network exactly as it was.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use spg_convnet::io::{load_weights, save_weights, LoadError};
use spg_convnet::layer::{ConvLayer, FcLayer, ReluLayer};
use spg_convnet::{ConvSpec, Network};

/// magic + version + layer count.
const HEADER_LEN: usize = 12;

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

/// A valid weight file for `make_net`'s structure (different weights).
fn valid_file() -> Vec<u8> {
    let mut buf = Vec::new();
    save_weights(&make_net(1), &mut buf).unwrap();
    buf
}

/// Every parameter of every layer, as bits.
fn param_bits(net: &Network) -> Vec<Vec<u32>> {
    net.layers()
        .iter()
        .map(|l| l.params().unwrap_or(&[]).iter().map(|p| p.to_bits()).collect())
        .collect()
}

/// Loads `bytes` into a fresh network; on `Err` asserts the network is
/// unchanged. Returns the outcome.
fn load_checked(bytes: &[u8]) -> Result<(), LoadError> {
    let mut net = make_net(2);
    let before = param_bits(&net);
    let result = load_weights(&mut net, bytes);
    if result.is_err() {
        assert_eq!(param_bits(&net), before, "failed load modified the network");
    }
    result
}

fn byte() -> impl Strategy<Value = u8> {
    (0u32..256).prop_map(|v| u8::try_from(v).expect("in byte range"))
}

/// Maps a fraction in `[0, 1)` onto an index into `len` bytes.
fn index_for(frac: f64, len: usize) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let idx = ((len as f64) * frac) as usize;
    idx.min(len.saturating_sub(1))
}

/// Truncation at *every* offset (the file is small enough to sweep
/// exhaustively): always a typed I/O error, never a partial restore.
#[test]
fn truncation_at_every_offset_is_a_typed_error() {
    let file = valid_file();
    assert!(load_checked(&file).is_ok(), "the untruncated file loads");
    for len in 0..file.len() {
        match load_checked(&file[..len]) {
            Err(LoadError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "offset {len}")
            }
            other => panic!("offset {len}: expected Io(UnexpectedEof), got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A single flipped byte in the header or a count field is a typed
    /// format error; in a parameter payload it is indistinguishable from
    /// other weights (the format carries no checksum) and loads. Either
    /// way: no panic, and `Err` leaves the network unchanged.
    #[test]
    fn single_byte_flip_never_panics(frac in 0.0f64..1.0, mask in 1u32..256) {
        let mut file = valid_file();
        let at = index_for(frac, file.len());
        file[at] ^= u8::try_from(mask).expect("in byte range");
        let result = load_checked(&file);
        if at < HEADER_LEN {
            prop_assert!(matches!(result, Err(LoadError::Format(_))), "header flip at {}: {:?}", at, result);
        }
    }

    /// Garbage in front of a valid file: the magic no longer lines up.
    #[test]
    fn garbage_prefix_is_rejected(prefix in proptest::collection::vec(byte(), 1..64)) {
        let aligned = prefix.starts_with(b"SPGW");
        let mut file = prefix;
        file.extend_from_slice(&valid_file());
        let result = load_checked(&file);
        prop_assert!(aligned || result.is_err());
    }

    /// Outright garbage of any length.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(byte(), 0..256)) {
        let _ = load_checked(&bytes);
    }
}
