//! Property tests for the weight-file format.
//!
//! Pins the contract documented on `io::load_weights`: any malformed
//! stream — truncated, bit-flipped, or prefixed with garbage — returns a
//! typed [`LoadError`] instead of panicking, and a failed load leaves the
//! receiving network exactly as it was. And the other half of a
//! checkpoint's contract: what `save_weights` writes is fixed byte for
//! byte, and every f32 bit pattern survives the round trip.

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

/// The file format, byte for byte: magic, version, layer count, then per
/// layer a u64 count and raw little-endian f32 bit patterns — NaN payload
/// and negative zero included, nothing canonicalized.
#[test]
fn golden_bytes_pin_the_format() {
    let mut rng = SmallRng::seed_from_u64(0);
    let mut net = Network::new(vec![
        Box::new(FcLayer::new(2, 1, &mut rng)),
        Box::new(ReluLayer::new(1)),
        Box::new(FcLayer::new(1, 1, &mut rng)),
    ])
    .unwrap();
    net.layers_mut()[0].set_params(&[1.0, -0.0, f32::from_bits(0x7fc0_0001)]);
    net.layers_mut()[2].set_params(&[f32::from_bits(1), -2.5]);
    #[rustfmt::skip]
    let golden: &[u8] = &[
        b'S', b'P', b'G', b'W', 1, 0, 0, 0, 3, 0, 0, 0,
        3, 0, 0, 0, 0, 0, 0, 0,
        0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0x80, 0x01, 0x00, 0xc0, 0x7f,
        0, 0, 0, 0, 0, 0, 0, 0,
        2, 0, 0, 0, 0, 0, 0, 0,
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x20, 0xc0,
    ];
    let mut file = Vec::new();
    save_weights(&net, &mut file).unwrap();
    assert_eq!(file, golden);

    net.layers_mut()[0].set_params(&[0.0; 3]);
    load_weights(&mut net, golden).unwrap();
    assert_eq!(
        param_bits(&net),
        vec![vec![0x3f80_0000, 0x8000_0000, 0x7fc0_0001], vec![], vec![1, 0xc020_0000]]
    );
}

/// Any f32 bit pattern, weighted toward the ones a value-level copy
/// would mangle: NaN payloads (quiet and signalling, both signs), -0.0,
/// subnormals, infinities.
fn any_f32_bits() -> impl Strategy<Value = u32> {
    prop_oneof![
        0u32..u32::MAX,
        Just(0x8000_0000u32),
        Just(0x7fc0_0001u32),
        Just(0xffc1_2345u32),
        Just(0x7f80_0001u32),
        Just(0x0000_0001u32),
        Just(0x807f_ffffu32),
        Just(0x7f80_0000u32),
        Just(0xff80_0000u32),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A checkpoint round-trips by bits: whatever patterns the weights
    /// hold, save → load restores exactly them, a second save reproduces
    /// the file, and the file cut anywhere is a typed error that leaves
    /// the receiving network untouched.
    #[test]
    fn checkpoint_round_trips_every_bit_pattern(
        pool in proptest::collection::vec(any_f32_bits(), 256..257),
    ) {
        let mut source = make_net(1);
        let mut next = pool.iter().cycle().map(|&b| f32::from_bits(b));
        for layer in source.layers_mut() {
            let params: Vec<f32> = next.by_ref().take(layer.param_count()).collect();
            if !params.is_empty() {
                layer.set_params(&params);
            }
        }
        let mut file = Vec::new();
        save_weights(&source, &mut file).unwrap();

        let mut target = make_net(2);
        load_weights(&mut target, file.as_slice()).expect("a saved checkpoint loads");
        prop_assert_eq!(param_bits(&target), param_bits(&source));
        let mut again = Vec::new();
        save_weights(&target, &mut again).unwrap();
        prop_assert_eq!(&again, &file);

        for cut in 0..file.len() {
            prop_assert!(
                matches!(load_checked(&file[..cut]), Err(LoadError::Io(_))),
                "cut at {} of {}", cut, file.len()
            );
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
