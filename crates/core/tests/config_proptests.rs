//! Property tests for the network-description parser and builder.
//!
//! A description is outside input: whatever bytes arrive, `parse` + `build`
//! must come back with a network or a typed [`SpgError`] — never a panic,
//! an arithmetic overflow, or an allocation sized by a number the text
//! supplied. Shaped like `crates/cluster/tests/wire_proptests.rs` and
//! `crates/convnet/tests/io_proptests.rs`.

use proptest::prelude::*;

use spg_convnet::Network;
use spg_core::config::{NetworkDescription, MAX_NETWORK_ELEMS};
use spg_core::SpgError;

/// A valid description using every section the format has.
const VALID: &str = r#"# every layer kind once
name: "all-layers"
input { channels: 2 height: 12 width: 12 }
conv { features: 4 kernel: 3 stride: 1 }
lrn { size: 3 }
relu { }
pool { window: 2 }
fc { outputs: 6 }
dropout { rate_pct: 25 }
fc { outputs: 3 }
"#;

fn parse_and_build(text: &str) -> Result<Network, SpgError> {
    NetworkDescription::parse(text)?.build(1)
}

/// Parameters a built network holds; a network that built at all must sit
/// inside the bound `build` promises.
fn param_count(net: &Network) -> usize {
    net.layers().iter().map(|l| l.params().map_or(0, <[f32]>::len)).sum()
}

/// Printable ASCII plus the whitespace the tokenizer splits on.
fn text_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        (0x20u32..0x7f).prop_map(|v| u8::try_from(v).expect("ascii")),
        Just(b'\n'),
        Just(b'\t'),
    ]
}

fn ascii(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("strategy yields ASCII")
}

/// Field values that are either harmless or far past anything a machine
/// can hold — never a mid-sized count that would legitimately allocate
/// hundreds of megabytes inside a test.
fn hostile_value() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..4,
        Just(u32::MAX as usize + 1),
        Just(usize::MAX),
        Just(usize::MAX / 2 + 1),
        (1usize << 40)..(1usize << 62),
    ]
}

/// Truncation at every byte: a typed error, or (when the cut lands after a
/// complete layer) a shorter network — never a panic.
#[test]
fn truncation_at_every_byte_is_typed() {
    let full = parse_and_build(VALID).expect("the untruncated description builds").layers().len();
    assert_eq!(full, 7);
    for len in 0..VALID.len() {
        match parse_and_build(&VALID[..len]) {
            Ok(net) => assert!(net.layers().len() <= full, "cut at {len}"),
            Err(SpgError::Parse { .. } | SpgError::InvalidNetwork { .. }) => {}
            Err(other) => panic!("cut at {len}: unexpected error {other}"),
        }
    }
}

/// The two inputs the parent's `build` fell over on — a cubed 2^32 input
/// (multiply overflow) and an fc asking for `in_len * usize::MAX` floats —
/// and a network whose factors each fit but whose parameter total does
/// not: all refused with an error naming where.
#[test]
fn overflowing_counts_are_refused_by_layer() {
    let cubed = "input { channels: 4294967296 height: 4294967296 width: 4294967296 }\nrelu { }";
    let greedy =
        "input { channels: 1 height: 4 width: 4 }\nrelu { }\nfc { outputs: 18446744073709551615 }";
    let wide = format!(
        "input {{ channels: 1 height: 1 width: 1 }}\nfc {{ outputs: {n} }}\nfc {{ outputs: {n} }}",
        n = 1usize << 20
    );
    for (text, place) in [(cubed, "input"), (greedy, "layer 1"), (&wide, "layer 1")] {
        match parse_and_build(text) {
            Err(SpgError::InvalidNetwork { message }) => {
                assert!(message.contains(place), "{message}")
            }
            other => panic!("expected InvalidNetwork at {place}, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One flipped byte (kept ASCII): parse + build never panics, and
    /// whatever still builds is inside the bound.
    #[test]
    fn single_byte_flip_never_panics(at in 0usize..VALID.len(), mask in 1u32..128) {
        let mut bytes = VALID.as_bytes().to_vec();
        bytes[at] ^= u8::try_from(mask).expect("below 128");
        if let Ok(net) = parse_and_build(&ascii(bytes)) {
            prop_assert!(param_count(&net) <= MAX_NETWORK_ELEMS);
        }
    }

    /// Garbage before or after a valid description.
    #[test]
    fn garbage_prefix_and_suffix_never_panic(
        prefix in proptest::collection::vec(text_byte(), 0..48),
        suffix in proptest::collection::vec(text_byte(), 0..48),
    ) {
        let text = format!("{}\n{VALID}\n{}", ascii(prefix), ascii(suffix));
        let _ = parse_and_build(&text);
    }

    /// Huge and zero values in every numeric field: a typed error, or a
    /// network whose size the text did not get to choose.
    #[test]
    fn huge_and_zero_fields_are_typed(v in proptest::collection::vec(hostile_value(), 10)) {
        let text = format!(
            "input {{ channels: {} height: {} width: {} }}\n\
             conv {{ features: {} kernel: {} stride: {} }}\n\
             lrn {{ size: {} }}\npool {{ window: {} }}\n\
             fc {{ outputs: {} }}\nrelu {{ }}\nfc {{ outputs: {} }}",
            v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8], v[9],
        );
        match parse_and_build(&text) {
            Ok(net) => prop_assert!(param_count(&net) <= 1 << 10, "{} params", param_count(&net)),
            Err(SpgError::Parse { .. } | SpgError::InvalidNetwork { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error {other}"),
        }
    }
}
