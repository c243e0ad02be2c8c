//! Property tests for the cluster wire protocol.
//!
//! Pins the contract documented on `decode_frame`: any encoded message
//! round-trips bit-exactly, and any malformed input — truncated, bit-flipped,
//! wrong version, or outright garbage — returns a typed [`WireError`]
//! instead of panicking.

use proptest::prelude::*;
use spg_cluster::wire::{
    crc32, decode_chunk_into, decode_frame, encode_chunk_into, encode_frame, read_frame,
    read_frame_into, write_frame, ChunkHead, Message, WireError, HEADER_LEN, MAGIC, MAX_PAYLOAD,
    TRAILER_LEN, VERSION,
};

fn byte() -> impl Strategy<Value = u8> {
    (0u32..256).prop_map(|v| u8::try_from(v).expect("in byte range"))
}

fn bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(byte(), 0..max_len)
}

fn small_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..26, 0..24).prop_map(|v| {
        v.into_iter().map(|b| char::from(b'a' + u8::try_from(b).expect("below 26"))).collect()
    })
}

fn floats() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-4.0f32..4.0, 0..48)
}

fn any_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (0u64..1 << 48, bytes(32), floats()).prop_map(|(id, key, input)| Message::InferRequest {
            id,
            key,
            input
        }),
        (0u64..1 << 48, 0u32..1000, floats())
            .prop_map(|(id, class, logits)| Message::InferResponse { id, class, logits }),
        (0u64..1 << 48, small_string())
            .prop_map(|(id, message)| Message::InferError { id, message }),
        (0u32..64, 0u32..4096, 0u32..256, floats()).prop_map(|(epoch, batch, chunk, data)| {
            Message::ReduceChunk { epoch, batch, chunk, data }
        }),
        (0u32..64, 0u32..4096, 0u32..256, floats()).prop_map(|(epoch, batch, chunk, data)| {
            Message::BroadcastChunk { epoch, batch, chunk, data }
        }),
        (
            0u32..64,
            0u32..4096,
            0u64..u64::MAX,
            0u64..1 << 32,
            proptest::collection::vec(0u64..u64::MAX, 0..8)
        )
            .prop_map(|(epoch, batch, loss_sum_bits, correct, sparsity_bits)| {
                Message::AccMeta { epoch, batch, loss_sum_bits, correct, sparsity_bits }
            }),
    ]
}

/// A version byte that is never [`VERSION`].
fn wrong_version() -> impl Strategy<Value = u8> {
    (0u32..255).prop_map(|v| {
        let v = u8::try_from(v).expect("below 255");
        if v >= VERSION {
            v + 1
        } else {
            v
        }
    })
}

/// Maps a fraction in `[0, 1)` onto an index into `len` bytes.
fn index_for(frac: f64, len: usize) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let idx = ((len as f64) * frac) as usize;
    idx.min(len.saturating_sub(1))
}

/// Bit-at-a-time CRC-32 (IEEE, reflected): shares no table and no loop
/// structure with the shipped slicing implementation.
fn reference_crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

/// The encoder as it stood before the bulk/borrowed rewrite: payload
/// built element by element into its own buffer, then copied behind the
/// header and sealed with the reference CRC. The wire format is whatever
/// this function writes.
fn reference_frame(msg: &Message) -> Vec<u8> {
    fn u32s(p: &mut Vec<u8>, vs: &[u32]) {
        for v in vs {
            p.extend_from_slice(&v.to_le_bytes());
        }
    }
    fn u64s(p: &mut Vec<u8>, vs: &[u64]) {
        for v in vs {
            p.extend_from_slice(&v.to_le_bytes());
        }
    }
    fn counted(p: &mut Vec<u8>, len: usize) {
        u32s(p, &[u32::try_from(len).expect("fits u32")]);
    }
    fn f32s(p: &mut Vec<u8>, vs: &[f32]) {
        counted(p, vs.len());
        for v in vs {
            p.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    let mut p = Vec::new();
    let tag = match msg {
        Message::InferRequest { id, key, input } => {
            u64s(&mut p, &[*id]);
            counted(&mut p, key.len());
            p.extend_from_slice(key);
            f32s(&mut p, input);
            0x01
        }
        Message::InferResponse { id, class, logits } => {
            u64s(&mut p, &[*id]);
            u32s(&mut p, &[*class]);
            f32s(&mut p, logits);
            0x02
        }
        Message::InferError { id, message } => {
            u64s(&mut p, &[*id]);
            counted(&mut p, message.len());
            p.extend_from_slice(message.as_bytes());
            0x03
        }
        Message::ReduceChunk { epoch, batch, chunk, data }
        | Message::BroadcastChunk { epoch, batch, chunk, data } => {
            u32s(&mut p, &[*epoch, *batch, *chunk]);
            f32s(&mut p, data);
            if matches!(msg, Message::ReduceChunk { .. }) {
                0x10
            } else {
                0x11
            }
        }
        Message::AccMeta { epoch, batch, loss_sum_bits, correct, sparsity_bits } => {
            u32s(&mut p, &[*epoch, *batch]);
            u64s(&mut p, &[*loss_sum_bits, *correct]);
            counted(&mut p, sparsity_bits.len());
            u64s(&mut p, sparsity_bits);
            0x12
        }
        other => panic!("reference encoder does not know {other:?}"),
    };
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC);
    frame.push(VERSION);
    frame.push(tag);
    counted(&mut frame, p.len());
    frame.extend_from_slice(&p);
    let crc = reference_crc32(&frame[2..]);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

/// The chunk fields of a `ReduceChunk` / `BroadcastChunk`.
fn chunk_parts(msg: &Message) -> Option<(ChunkHead, &[f32])> {
    match msg {
        Message::ReduceChunk { epoch, batch, chunk, data } => Some((
            ChunkHead { broadcast: false, epoch: *epoch, batch: *batch, chunk: *chunk },
            data,
        )),
        Message::BroadcastChunk { epoch, batch, chunk, data } => {
            Some((ChunkHead { broadcast: true, epoch: *epoch, batch: *batch, chunk: *chunk }, data))
        }
        _ => None,
    }
}

fn any_chunk() -> impl Strategy<Value = Message> {
    (0u32..2, 0u32..64, 0u32..4096, 0u32..256, floats()).prop_map(
        |(leg, epoch, batch, chunk, data)| {
            if leg == 0 {
                Message::ReduceChunk { epoch, batch, chunk, data }
            } else {
                Message::BroadcastChunk { epoch, batch, chunk, data }
            }
        },
    )
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// Every message decodes back to itself and consumes exactly the
    /// bytes `encode_frame` produced — even with trailing garbage after
    /// the frame.
    #[test]
    fn round_trip_is_exact(msg in any_message(), trailing in bytes(16)) {
        let frame = encode_frame(&msg);
        prop_assert!(frame.len() >= HEADER_LEN + TRAILER_LEN);
        prop_assert_eq!(&frame[0..2], &MAGIC[..]);
        prop_assert_eq!(frame[2], VERSION);

        let (decoded, consumed) = decode_frame(&frame).expect("well-formed frame decodes");
        prop_assert_eq!(&decoded, &msg);
        prop_assert_eq!(consumed, frame.len());

        // Trailing bytes past the frame must not confuse the decoder.
        let mut padded = frame.clone();
        padded.extend_from_slice(&trailing);
        let (decoded, consumed) = decode_frame(&padded).expect("frame with trailing bytes decodes");
        prop_assert_eq!(&decoded, &msg);
        prop_assert_eq!(consumed, frame.len());
    }

    /// Every strict prefix of a valid frame is a typed `Truncated` error,
    /// never a panic and never a bogus success.
    #[test]
    fn truncation_is_typed(msg in any_message(), frac in 0.0f64..1.0) {
        let frame = encode_frame(&msg);
        let cut = index_for(frac, frame.len());
        match decode_frame(&frame[..cut]) {
            Err(WireError::Truncated { needed, got }) => {
                prop_assert_eq!(got, cut);
                prop_assert!(needed > got);
            }
            other => prop_assert!(false, "prefix of {} bytes gave {:?}", cut, other),
        }
    }

    /// Flipping any single byte of a frame yields a typed error: the CRC
    /// covers version, type, length, and payload; the magic and trailer
    /// bytes are checked directly against it.
    #[test]
    fn single_byte_corruption_is_typed(msg in any_message(), frac in 0.0f64..1.0, flip in 1u32..256) {
        let mut frame = encode_frame(&msg);
        let pos = index_for(frac, frame.len());
        frame[pos] ^= u8::try_from(flip).expect("in byte range");
        match decode_frame(&frame) {
            Err(
                WireError::BadMagic { .. }
                | WireError::BadVersion { .. }
                | WireError::BadChecksum { .. }
                | WireError::TooLarge { .. }
                | WireError::Truncated { .. },
            ) => {}
            other => prop_assert!(false, "flip {:#x} at byte {} gave {:?}", flip, pos, other),
        }
    }

    /// A wrong version byte on an otherwise clean frame (checksum
    /// recomputed) reports `BadVersion`, not a checksum failure.
    #[test]
    fn future_version_is_typed(msg in any_message(), version in wrong_version()) {
        let mut frame = encode_frame(&msg);
        frame[2] = version;
        let body_end = frame.len() - TRAILER_LEN;
        let crc = crc32(&frame[2..body_end]);
        frame.truncate(body_end);
        frame.extend_from_slice(&crc.to_le_bytes());
        match decode_frame(&frame) {
            Err(WireError::BadVersion { found }) => prop_assert_eq!(found, version),
            other => prop_assert!(false, "version {} gave {:?}", version, other),
        }
    }

    /// Arbitrary garbage never panics the decoder: it either fails typed
    /// or (when it happens to start with a valid header) decodes within
    /// bounds.
    #[test]
    fn garbage_never_panics(garbage in bytes(256)) {
        if let Ok((_, consumed)) = decode_frame(&garbage) {
            prop_assert!(consumed <= garbage.len());
        }
    }

    /// Garbage behind a valid header prefix exercises the deeper decode
    /// paths (length, checksum, payload decoders) without panicking.
    #[test]
    fn framed_garbage_never_panics(tag in byte(), len in 0u32..128, body in bytes(160)) {
        let mut frame = Vec::with_capacity(HEADER_LEN + body.len());
        frame.extend_from_slice(&MAGIC);
        frame.push(VERSION);
        frame.push(tag);
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&body);
        let _ = decode_frame(&frame);

        // Same bytes with a correct checksum drive the payload decoders
        // themselves on arbitrary input.
        let take = (len as usize).min(body.len());
        let mut honest = Vec::new();
        honest.extend_from_slice(&MAGIC);
        honest.push(VERSION);
        honest.push(tag);
        let take_len = u32::try_from(take).expect("take fits in u32");
        honest.extend_from_slice(&take_len.to_le_bytes());
        honest.extend_from_slice(&body[..take]);
        let crc = crc32(&honest[2..]);
        honest.extend_from_slice(&crc.to_le_bytes());
        let _ = decode_frame(&honest);
    }

    /// `write_frame`/`read_frame` round-trip a whole conversation over a
    /// byte stream, then report a clean close at the frame boundary.
    #[test]
    fn stream_round_trip(msgs in proptest::collection::vec(any_message(), 0..6)) {
        let mut buf: Vec<u8> = Vec::new();
        for msg in &msgs {
            write_frame(&mut buf, msg).expect("writing to a Vec cannot fail");
        }
        let mut cursor = std::io::Cursor::new(buf);
        for msg in &msgs {
            let got = read_frame(&mut cursor).expect("stream frame decodes");
            prop_assert_eq!(&got, msg);
        }
        match read_frame(&mut cursor) {
            Err(WireError::Closed) => {}
            other => prop_assert!(false, "exhausted stream gave {:?}", other),
        }
    }

    /// A hostile length prefix with an under-delivering peer is a typed
    /// `Truncated` carrying the actually-received count. The claim may be
    /// the full 64 MiB cap while only a handful of bytes ever arrive:
    /// `read_frame` sizes its buffer by receipt, so the claim never
    /// drives an up-front allocation (the old decoder allocated
    /// `claim + 4` bytes here before reading anything).
    #[test]
    fn hostile_length_under_delivery_is_typed(
        claim in 1u32..=MAX_PAYLOAD,
        deliver in 0usize..512,
    ) {
        let mut stream = Vec::new();
        stream.extend_from_slice(&MAGIC);
        stream.push(VERSION);
        stream.push(0x01);
        stream.extend_from_slice(&claim.to_le_bytes());
        // Strictly under-deliver the claimed payload + trailer.
        let deliver = deliver.min(claim as usize + TRAILER_LEN - 1);
        stream.resize(stream.len() + deliver, 0);
        let mut cursor = std::io::Cursor::new(stream);
        match read_frame(&mut cursor) {
            Err(WireError::Truncated { needed, got }) => {
                prop_assert_eq!(needed, HEADER_LEN + claim as usize + TRAILER_LEN);
                prop_assert_eq!(got, deliver);
            }
            other => prop_assert!(false, "claim {} deliver {} gave {:?}", claim, deliver, other),
        }
    }

    /// A stream cut mid-frame reports `Truncated`, not `Closed`.
    #[test]
    fn stream_cut_mid_frame_is_truncated(msg in any_message(), frac in 0.0f64..1.0) {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, &msg).expect("writing to a Vec cannot fail");
        let cut = index_for(frac, buf.len()).max(1);
        buf.truncate(cut);
        let mut cursor = std::io::Cursor::new(buf);
        match read_frame(&mut cursor) {
            Err(WireError::Truncated { .. }) => {}
            other => prop_assert!(false, "cut at {} gave {:?}", cut, other),
        }
    }

    /// The wire did not move: the shipped encoder writes, byte for byte,
    /// what the pre-rewrite element-by-element encoder wrote, for every
    /// message variant.
    #[test]
    fn encoder_matches_the_reference_encoder(msg in any_message()) {
        prop_assert_eq!(encode_frame(&msg), reference_frame(&msg));
    }

    /// One chunk codec: the borrowed encode is byte-identical to
    /// `encode_frame` of the owned message (into a dirty reused buffer),
    /// and the borrowed decode returns what `decode_frame` returns.
    #[test]
    fn borrowed_chunk_codec_equals_the_owned_one(msg in any_chunk(), junk in bytes(64)) {
        let (head, data) = chunk_parts(&msg).expect("a chunk");
        let mut frame = junk;
        encode_chunk_into(head, data, &mut frame);
        prop_assert_eq!(&frame, &encode_frame(&msg));

        let mut out = vec![f32::NAN; data.len()];
        prop_assert_eq!(decode_chunk_into(&frame, &mut out), Ok(head));
        prop_assert_eq!(bits(&out), bits(data));
        let (owned, _) = decode_frame(&frame).expect("owned decode");
        prop_assert_eq!(&owned, &msg);
    }

    /// The borrowed decoder rejects what the owned one rejects, with the
    /// same typed error, and leaves `out` alone: any single corrupted
    /// byte (a flipped payload bit is `BadChecksum`), any truncation.
    #[test]
    fn borrowed_chunk_decode_failures_are_typed(
        msg in any_chunk(),
        frac in 0.0f64..1.0,
        flip in 1u32..256,
    ) {
        let (_, data) = chunk_parts(&msg).expect("a chunk");
        let frame = encode_frame(&msg);
        let pos = index_for(frac, frame.len());
        let mut out = vec![7.0f32; data.len()];

        let mut bad = frame.clone();
        bad[pos] ^= u8::try_from(flip).expect("in byte range");
        let err = decode_chunk_into(&bad, &mut out).expect_err("corruption must not decode");
        prop_assert_eq!(&err, &decode_frame(&bad).expect_err("owned decoder rejects it too"));
        if (HEADER_LEN..frame.len() - TRAILER_LEN).contains(&pos) {
            prop_assert!(matches!(err, WireError::BadChecksum { .. }), "payload flip gave {:?}", err);
        }

        match decode_chunk_into(&frame[..pos], &mut out) {
            Err(WireError::Truncated { needed, got }) => {
                prop_assert_eq!(got, pos);
                prop_assert!(needed > got);
            }
            other => prop_assert!(false, "prefix of {} bytes gave {:?}", pos, other),
        }
        prop_assert!(out.iter().all(|&x| x == 7.0), "a failed decode wrote to `out`");
    }

    /// A verified frame that is not the expected chunk is `BadPayload`:
    /// another message type, or a float count that is not `out.len()`.
    #[test]
    fn borrowed_chunk_decode_rejects_other_frames(msg in any_message(), extra in 1usize..8) {
        let frame = encode_frame(&msg);
        match chunk_parts(&msg) {
            None => {
                let got = decode_chunk_into(&frame, &mut []);
                prop_assert!(matches!(got, Err(WireError::BadPayload { .. })), "{:?}", got);
            }
            Some((_, data)) => {
                let mut long = vec![0.0; data.len() + extra];
                let got = decode_chunk_into(&frame, &mut long);
                prop_assert!(matches!(got, Err(WireError::BadPayload { .. })), "{:?}", got);
                if data.len() >= extra {
                    let got = decode_chunk_into(&frame, &mut long[..data.len() - extra]);
                    prop_assert!(matches!(got, Err(WireError::BadPayload { .. })), "{:?}", got);
                }
            }
        }
    }

    /// `read_frame_into` hands back exactly the frame's bytes, reusing a
    /// dirty buffer, and leaves the stream at the next frame.
    #[test]
    fn read_frame_into_returns_the_frame_bytes(
        msgs in proptest::collection::vec(any_message(), 1..5),
        junk in bytes(64),
    ) {
        let stream: Vec<u8> = msgs.iter().flat_map(encode_frame).collect();
        let mut cursor = std::io::Cursor::new(stream);
        let mut frame = junk;
        for msg in &msgs {
            read_frame_into(&mut cursor, &mut frame).expect("whole frame on the stream");
            prop_assert_eq!(&frame, &encode_frame(msg));
        }
        prop_assert_eq!(read_frame_into(&mut cursor, &mut frame), Err(WireError::Closed));
    }
}

/// Special float values (negative zero, infinities, NaN payloads)
/// round-trip bit-exactly because the codec moves raw `to_bits`.
#[test]
fn special_floats_round_trip_bit_exact() {
    let specials =
        vec![0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, f32::MIN_POSITIVE, f32::MAX];
    let msg = Message::ReduceChunk { epoch: 1, batch: 2, chunk: 3, data: specials.clone() };
    let (decoded, _) = decode_frame(&encode_frame(&msg)).expect("specials decode");
    match decoded {
        Message::ReduceChunk { data, .. } => {
            assert_eq!(data.len(), specials.len());
            for (a, b) in data.iter().zip(specials.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        other => panic!("wrong variant: {other:?}"),
    }
}

/// A length prefix above `MAX_PAYLOAD` is rejected before any allocation.
#[test]
fn oversized_length_is_rejected() {
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC);
    frame.push(VERSION);
    frame.push(0x01);
    frame.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    match decode_frame(&frame) {
        Err(WireError::TooLarge { len }) => assert_eq!(len, MAX_PAYLOAD + 1),
        other => panic!("oversized length gave {other:?}"),
    }
}

/// `read_frame` rejects an over-cap length prefix from the header alone:
/// the typed error surfaces before a single payload byte is consumed
/// from the stream (so nothing is allocated for the hostile claim).
#[test]
fn oversized_stream_length_rejected_at_the_header() {
    let mut stream = Vec::new();
    stream.extend_from_slice(&MAGIC);
    stream.push(VERSION);
    stream.push(0x01);
    stream.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    // Payload bytes that must never be read.
    stream.resize(stream.len() + 64, 0xAB);
    let mut cursor = std::io::Cursor::new(stream);
    match read_frame(&mut cursor) {
        Err(WireError::TooLarge { len }) => assert_eq!(len, MAX_PAYLOAD + 1),
        other => panic!("oversized stream length gave {other:?}"),
    }
    assert_eq!(cursor.position(), HEADER_LEN as u64, "no payload byte consumed");
}

/// The same rejection through the buffer-reusing read path the ring
/// uses, behind a `BufReader` as the ring holds it.
#[test]
fn oversized_stream_length_rejected_by_read_frame_into() {
    let mut stream = Vec::new();
    stream.extend_from_slice(&MAGIC);
    stream.push(VERSION);
    stream.push(0x10);
    stream.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    stream.resize(stream.len() + 64, 0xAB);
    let mut reader = std::io::BufReader::new(std::io::Cursor::new(stream));
    let mut frame = vec![0xCD; 32];
    assert_eq!(
        read_frame_into(&mut reader, &mut frame),
        Err(WireError::TooLarge { len: MAX_PAYLOAD + 1 })
    );
    assert!(frame.capacity() < 1024, "the hostile claim must not size the buffer");
}

/// Frames exactly as the parent commit's encoder wrote them (one per
/// message variant, special floats included), committed as bytes: the
/// wire format is pinned by data, not only by a second implementation.
#[test]
fn golden_frames_from_the_previous_encoder() {
    let golden: [(Message, &str); 6] = [
        (
            Message::InferRequest { id: 7, key: b"user-123".to_vec(), input: vec![0.5, -1.25] },
            "5347010120000000070000000000000008000000757365722d31323302000000\
             0000003f0000a0bffe2732cb",
        ),
        (
            Message::InferResponse {
                id: 7,
                class: 2,
                logits: vec![0.1, 0.9, f32::from_bits(0x7fc0_0001)],
            },
            "534701021c00000007000000000000000200000003000000cdcccc3d6666663f\
             0100c07fd60c5908",
        ),
        (
            Message::InferError { id: 9, message: "worker 0 panicked".to_string() },
            "534701031d000000090000000000000011000000776f726b657220302070616e\
             69636b65644bfa9bdb",
        ),
        (
            Message::ReduceChunk {
                epoch: 1,
                batch: 3,
                chunk: 0,
                data: vec![1.0, -0.0, f32::MIN_POSITIVE / 2.0],
            },
            "534701101c000000010000000300000000000000030000000000803f00000080\
             000040006b678e15",
        ),
        (
            Message::BroadcastChunk { epoch: 2, batch: 0, chunk: 4, data: vec![-0.0, 3.5] },
            "53470111180000000200000000000000040000000200000000000080000060401634ad8c",
        ),
        (
            Message::AccMeta {
                epoch: 1,
                batch: 2,
                loss_sum_bits: 1.75f64.to_bits(),
                correct: 6,
                sparsity_bits: vec![0.5f64.to_bits(), 0.25f64.to_bits()],
            },
            "534701122c0000000100000002000000000000000000fc3f0600000000000000\
             02000000000000000000e03f000000000000d03f32a98f31",
        ),
    ];
    for (msg, hex) in golden {
        let want = unhex(hex);
        assert_eq!(encode_frame(&msg), want, "{msg:?}");
        assert_eq!(reference_frame(&msg), want, "reference encoder drifted on {msg:?}");
        let (back, used) = decode_frame(&want).expect("golden frame decodes");
        assert_eq!(used, want.len());
        assert_eq!(encode_frame(&back), want, "{msg:?} did not survive a round trip");
    }
}

/// The bytes of a hex fixture.
fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex fixture"))
        .collect()
}

/// The handshake (0x20) and end-of-stream (0x21) frames an earlier
/// protocol defined, and no peer sent, are no longer message types: their
/// well-formed frames, as that encoder wrote them, decode to a typed
/// UnknownType.
#[test]
fn retired_frame_types_are_unknown() {
    let retired =
        [(0x20, "53470120080000000300000008000000b68afdb2"), (0x21, "5347012100000000b2743f86")];
    for (tag, hex) in retired {
        assert_eq!(decode_frame(&unhex(hex)), Err(WireError::UnknownType { tag }));
    }
}

/// A transport that fails under a frame reaches the caller as a typed
/// [`WireError::Io`] carrying the OS message, on the read side and on the
/// write side.
#[test]
fn transport_failure_is_typed_io() {
    struct Broken;
    impl std::io::Read for Broken {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("link down"))
        }
    }
    impl std::io::Write for Broken {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("link down"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let read = read_frame(&mut Broken);
    assert!(matches!(&read, Err(WireError::Io { message }) if message == "link down"), "{read:?}");
    let written = write_frame(&mut Broken, &Message::InferError { id: 1, message: String::new() });
    assert!(matches!(&written, Err(WireError::Io { .. })), "{written:?}");
}
