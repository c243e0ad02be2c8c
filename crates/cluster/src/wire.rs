//! The cluster wire protocol: length-prefixed, versioned, checksummed
//! frames carrying inference and all-reduce traffic between shards and
//! ranks.
//!
//! Every frame has the layout
//!
//! ```text
//! +----+----+---------+------+-------------+---------+
//! | 'S'| 'G'| version | type | len (u32 le)| payload | crc32 (u32 le)
//! +----+----+---------+------+-------------+---------+
//! ```
//!
//! The CRC-32 (IEEE polynomial, implemented from scratch below — no
//! external dependency) covers the `version`, `type`, `len`, and
//! `payload` bytes, so a flipped bit anywhere after the magic is caught
//! before the payload is interpreted. Decoding NEVER panics: every
//! malformed input maps to a typed [`WireError`] variant, which the
//! round-trip and corruption proptests in `tests/wire_proptests.rs` pin
//! down.
//!
//! Integers are little-endian; floating-point values travel as raw IEEE
//! bit patterns (`f32::to_bits` / `f64::to_bits`), which is what makes
//! the distributed trainer's bit-identical-loss guarantee possible: no
//! value is ever reformatted in transit.

use std::io::{Read, Write};

/// Frame preamble: every frame starts with these two bytes.
pub const MAGIC: [u8; 2] = *b"SG";

/// Current protocol version; bumped on any incompatible frame change.
pub const VERSION: u8 = 1;

/// Upper bound on the payload length field: 64 MiB. A corrupted or
/// hostile length prefix must not drive a huge allocation.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// Fixed bytes before the payload: magic(2) + version(1) + type(1) +
/// len(4).
pub const HEADER_LEN: usize = 8;

/// Trailing checksum bytes.
pub const TRAILER_LEN: usize = 4;

/// The little-endian `u32` at the front of `b`.
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) slicing tables, computed at
/// compile time. `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// which is what lets [`crc32`] fold sixteen input bytes per step.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0u32;
    while i < 256 {
        let mut crc = i;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i as usize] = crc;
        i += 1;
    }
    let mut n = 256;
    while n < 16 * 256 {
        let prev = tables[n / 256 - 1][n % 256];
        tables[n / 256][n % 256] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
        n += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`, slicing-by-16: sixteen table lookups per
/// sixteen input bytes with no dependency between them, instead of one
/// dependent lookup per byte. Same polynomial, same values.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let words =
            [crc ^ le_u32(block), le_u32(&block[4..]), le_u32(&block[8..]), le_u32(&block[12..])];
        crc = 0;
        for (w, tables) in words.iter().zip(CRC_TABLES.rchunks_exact(4)) {
            crc ^= tables[3][(w & 0xFF) as usize]
                ^ tables[2][((w >> 8) & 0xFF) as usize]
                ^ tables[1][((w >> 16) & 0xFF) as usize]
                ^ tables[0][(w >> 24) as usize];
        }
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Typed decode/transport failures. Decoding malformed bytes always
/// lands in one of these variants — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The frame does not start with [`MAGIC`].
    BadMagic {
        /// The two bytes found instead.
        found: [u8; 2],
    },
    /// The frame's version byte is not [`VERSION`].
    BadVersion {
        /// The version byte found.
        found: u8,
    },
    /// The input ended before the frame did.
    Truncated {
        /// Bytes the frame needed.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The checksum trailer does not match the frame contents.
    BadChecksum {
        /// CRC computed over the received bytes.
        computed: u32,
        /// CRC carried in the trailer.
        carried: u32,
    },
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    TooLarge {
        /// The offending length.
        len: u32,
    },
    /// The type byte names no known message.
    UnknownType {
        /// The type byte found.
        tag: u8,
    },
    /// The payload's internal structure is inconsistent with its type.
    BadPayload {
        /// What was wrong, for diagnostics.
        what: &'static str,
    },
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// An I/O error on the underlying transport.
    Io {
        /// The OS error message.
        message: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic { found } => {
                write!(f, "bad frame magic {found:02x?} (expected \"SG\")")
            }
            WireError::BadVersion { found } => {
                write!(f, "unsupported protocol version {found} (expected {VERSION})")
            }
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            WireError::BadChecksum { computed, carried } => {
                write!(
                    f,
                    "frame checksum mismatch: computed {computed:#010x}, carried {carried:#010x}"
                )
            }
            WireError::TooLarge { len } => {
                write!(f, "frame payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap")
            }
            WireError::UnknownType { tag } => write!(f, "unknown frame type {tag:#04x}"),
            WireError::BadPayload { what } => write!(f, "malformed payload: {what}"),
            WireError::Closed => write!(f, "peer closed the connection"),
            WireError::Io { message } => write!(f, "transport i/o error: {message}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io { message: e.to_string() }
    }
}

/// Every message the cluster protocol carries.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Message {
    /// Router -> shard: classify one input.
    InferRequest {
        /// Request id, echoed in the response.
        id: u64,
        /// Routing key (opaque bytes; may be empty).
        key: Vec<u8>,
        /// Input activations.
        input: Vec<f32>,
    },
    /// Shard -> router: a completed classification.
    InferResponse {
        /// Echoed request id.
        id: u64,
        /// Argmax class.
        class: u32,
        /// Raw logits.
        logits: Vec<f32>,
    },
    /// Shard -> router: the request failed inside the shard.
    InferError {
        /// Echoed request id.
        id: u64,
        /// Typed-error rendering, best effort.
        message: String,
    },
    /// Ring reduce leg: one chunk of the running gradient accumulator.
    ReduceChunk {
        /// Epoch the chunk belongs to (1-based, sequence-checked).
        epoch: u32,
        /// Batch within the epoch (0-based, sequence-checked).
        batch: u32,
        /// Chunk index within the flattened gradient vector.
        chunk: u32,
        /// Accumulator values for this chunk.
        data: Vec<f32>,
    },
    /// Ring broadcast leg: one chunk of the final accumulator.
    BroadcastChunk {
        /// Epoch the chunk belongs to.
        epoch: u32,
        /// Batch within the epoch.
        batch: u32,
        /// Chunk index within the flattened gradient vector.
        chunk: u32,
        /// Final accumulator values for this chunk.
        data: Vec<f32>,
    },
    /// Scalar side of the batch accumulator (travels once per leg,
    /// before the chunks). Floats are raw bit patterns so the fold
    /// stays bit-exact.
    AccMeta {
        /// Epoch the accumulator belongs to.
        epoch: u32,
        /// Batch within the epoch.
        batch: u32,
        /// `f64::to_bits` of the running loss sum.
        loss_sum_bits: u64,
        /// Running correct-prediction count.
        correct: u64,
        /// `f64::to_bits` of each conv layer's running sparsity sum.
        sparsity_bits: Vec<u64>,
    },
    /// Connection handshake: who is dialing.
    Hello {
        /// The dialer's rank (or shard id).
        rank: u32,
        /// World size the dialer was configured with.
        world: u32,
    },
    /// Graceful end-of-stream marker.
    Shutdown,
}

impl Message {
    /// The frame type byte for this message.
    pub fn tag(&self) -> u8 {
        match self {
            Message::InferRequest { .. } => 0x01,
            Message::InferResponse { .. } => 0x02,
            Message::InferError { .. } => 0x03,
            Message::ReduceChunk { .. } => 0x10,
            Message::BroadcastChunk { .. } => 0x11,
            Message::AccMeta { .. } => 0x12,
            Message::Hello { .. } => 0x20,
            Message::Shutdown => 0x21,
        }
    }
}

/// Header fields of a gradient chunk frame
/// ([`Message::ReduceChunk`] / [`Message::BroadcastChunk`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkHead {
    /// `true` for the broadcast leg (type `0x11`), `false` for the reduce
    /// leg (type `0x10`).
    pub broadcast: bool,
    /// Epoch the chunk belongs to.
    pub epoch: u32,
    /// Batch within the epoch.
    pub batch: u32,
    /// Chunk index within the flattened gradient vector.
    pub chunk: u32,
}

/// Little-endian payload writer, appending to a caller-owned buffer.
struct Enc<'a> {
    buf: &'a mut Vec<u8>,
}

impl Enc<'_> {
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn len_prefix(&mut self, len: usize) {
        self.u32(u32::try_from(len).expect("sequence length fits the wire format's u32"));
    }
    fn bytes(&mut self, b: &[u8]) {
        self.len_prefix(b.len());
        self.buf.extend_from_slice(b);
    }
    /// One bulk conversion: the destination is sized once and filled by
    /// a fixed-width loop the compiler turns into a block copy on
    /// little-endian targets.
    fn f32s(&mut self, v: &[f32]) {
        self.len_prefix(v.len());
        let start = self.buf.len();
        self.buf.resize(start + v.len() * 4, 0);
        for (dst, x) in self.buf[start..].chunks_exact_mut(4).zip(v) {
            dst.copy_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    fn u64s(&mut self, v: &[u64]) {
        self.len_prefix(v.len());
        for x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }
    fn chunk(&mut self, head: ChunkHead, data: &[f32]) {
        self.u32(head.epoch);
        self.u32(head.batch);
        self.u32(head.chunk);
        self.f32s(data);
    }
}

/// Bulk inverse of [`Enc::f32s`]'s body: `raw` holds `out.len()`
/// little-endian bit patterns.
fn f32s_from_le(raw: &[u8], out: &mut [f32]) {
    for (dst, c) in out.iter_mut().zip(raw.chunks_exact(4)) {
        *dst = f32::from_bits(le_u32(c));
    }
}

/// Little-endian payload reader over a borrowed slice.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end =
            self.pos.checked_add(n).ok_or(WireError::BadPayload { what: "length overflow" })?;
        if end > self.buf.len() {
            return Err(WireError::Truncated { needed: end, got: self.buf.len() });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        self.take(4).map(le_u32)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    /// A counted f32 sequence, still as its little-endian bytes.
    fn f32s_raw(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        self.take(n.checked_mul(4).ok_or(WireError::BadPayload { what: "f32 count overflow" })?)
    }

    fn f32s(&mut self) -> Result<Vec<f32>, WireError> {
        let raw = self.f32s_raw()?;
        let mut out = vec![0.0; raw.len() / 4];
        f32s_from_le(raw, &mut out);
        Ok(out)
    }

    fn u64s(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.u32()? as usize;
        let raw = self
            .take(n.checked_mul(8).ok_or(WireError::BadPayload { what: "u64 count overflow" })?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect())
    }

    /// A gradient chunk's header fields; its floats follow as one counted
    /// sequence ([`f32s`](Self::f32s) / [`f32s_raw`](Self::f32s_raw)).
    fn chunk_head(&mut self, broadcast: bool) -> Result<ChunkHead, WireError> {
        Ok(ChunkHead { broadcast, epoch: self.u32()?, batch: self.u32()?, chunk: self.u32()? })
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::BadPayload { what: "trailing bytes after payload" });
        }
        Ok(())
    }
}

/// Writes one complete frame of type `tag` into `frame` (cleared first,
/// capacity kept): the payload is serialized in place behind the header,
/// then the length is patched in and the checksum appended.
fn seal_frame(frame: &mut Vec<u8>, tag: u8, payload: impl FnOnce(&mut Enc<'_>)) {
    frame.clear();
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&[VERSION, tag, 0, 0, 0, 0]);
    payload(&mut Enc { buf: frame });
    let len = frame.len() - HEADER_LEN;
    debug_assert!(len <= MAX_PAYLOAD as usize, "oversized frame payload");
    let len = u32::try_from(len).expect("payload length fits the wire format's u32");
    frame[4..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&frame[2..]);
    frame.extend_from_slice(&crc.to_le_bytes());
}

/// Encodes `msg` as one complete frame.
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let mut frame = Vec::new();
    seal_frame(&mut frame, msg.tag(), |e| match msg {
        Message::InferRequest { id, key, input } => {
            e.u64(*id);
            e.bytes(key);
            e.f32s(input);
        }
        Message::InferResponse { id, class, logits } => {
            e.u64(*id);
            e.u32(*class);
            e.f32s(logits);
        }
        Message::InferError { id, message } => {
            e.u64(*id);
            e.bytes(message.as_bytes());
        }
        Message::ReduceChunk { epoch, batch, chunk, data }
        | Message::BroadcastChunk { epoch, batch, chunk, data } => {
            let broadcast = matches!(msg, Message::BroadcastChunk { .. });
            e.chunk(ChunkHead { broadcast, epoch: *epoch, batch: *batch, chunk: *chunk }, data);
        }
        Message::AccMeta { epoch, batch, loss_sum_bits, correct, sparsity_bits } => {
            e.u32(*epoch);
            e.u32(*batch);
            e.u64(*loss_sum_bits);
            e.u64(*correct);
            e.u64s(sparsity_bits);
        }
        Message::Hello { rank, world } => {
            e.u32(*rank);
            e.u32(*world);
        }
        Message::Shutdown => {}
    });
    frame
}

/// Encodes a gradient chunk straight from a borrowed slice into a reused
/// frame buffer (cleared first, capacity kept) — byte for byte the frame
/// [`encode_frame`] produces for the matching [`Message::ReduceChunk`] /
/// [`Message::BroadcastChunk`], whose arms run this same payload writer.
pub fn encode_chunk_into(head: ChunkHead, data: &[f32], frame: &mut Vec<u8>) {
    seal_frame(frame, if head.broadcast { 0x11 } else { 0x10 }, |e| e.chunk(head, data));
}

/// Verifies the frame at the front of `bytes` — magic, length cap,
/// completeness, checksum, version, in that order — and returns its type
/// byte, its payload and the number of bytes it occupies.
fn open_frame(bytes: &[u8]) -> Result<(u8, &[u8], usize), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated { needed: HEADER_LEN, got: bytes.len() });
    }
    if bytes[0..2] != MAGIC {
        return Err(WireError::BadMagic { found: [bytes[0], bytes[1]] });
    }
    let version = bytes[2];
    let len = le_u32(&bytes[4..]);
    if len > MAX_PAYLOAD {
        return Err(WireError::TooLarge { len });
    }
    let body_end = HEADER_LEN + len as usize;
    let total = body_end + TRAILER_LEN;
    if bytes.len() < total {
        return Err(WireError::Truncated { needed: total, got: bytes.len() });
    }
    let carried = le_u32(&bytes[body_end..]);
    let computed = crc32(&bytes[2..body_end]);
    if computed != carried {
        return Err(WireError::BadChecksum { computed, carried });
    }
    // Version is checked after the checksum so a corrupted version byte
    // reports as corruption, and a clean future-version frame as
    // BadVersion.
    if version != VERSION {
        return Err(WireError::BadVersion { found: version });
    }
    Ok((bytes[3], &bytes[HEADER_LEN..body_end], total))
}

/// Decodes one frame from the front of `bytes`, returning the message
/// and the number of bytes consumed.
///
/// # Errors
///
/// Any malformed input returns the matching [`WireError`] variant; this
/// function never panics on arbitrary bytes (pinned by proptests).
pub fn decode_frame(bytes: &[u8]) -> Result<(Message, usize), WireError> {
    let (tag, payload, total) = open_frame(bytes)?;
    let mut d = Dec::new(payload);
    let msg = match tag {
        0x01 => {
            let id = d.u64()?;
            let key = d.bytes()?;
            let input = d.f32s()?;
            Message::InferRequest { id, key, input }
        }
        0x02 => {
            let id = d.u64()?;
            let class = d.u32()?;
            let logits = d.f32s()?;
            Message::InferResponse { id, class, logits }
        }
        0x03 => {
            let id = d.u64()?;
            let bytes = d.bytes()?;
            let message = String::from_utf8(bytes)
                .map_err(|_| WireError::BadPayload { what: "error message is not utf-8" })?;
            Message::InferError { id, message }
        }
        0x10 | 0x11 => {
            let ChunkHead { broadcast, epoch, batch, chunk } = d.chunk_head(tag == 0x11)?;
            let data = d.f32s()?;
            if broadcast {
                Message::BroadcastChunk { epoch, batch, chunk, data }
            } else {
                Message::ReduceChunk { epoch, batch, chunk, data }
            }
        }
        0x12 => {
            let epoch = d.u32()?;
            let batch = d.u32()?;
            let loss_sum_bits = d.u64()?;
            let correct = d.u64()?;
            let sparsity_bits = d.u64s()?;
            Message::AccMeta { epoch, batch, loss_sum_bits, correct, sparsity_bits }
        }
        0x20 => {
            let rank = d.u32()?;
            let world = d.u32()?;
            Message::Hello { rank, world }
        }
        0x21 => Message::Shutdown,
        tag => return Err(WireError::UnknownType { tag }),
    };
    d.finish()?;
    Ok((msg, total))
}

/// Decodes the gradient chunk frame at the front of `frame` straight
/// into `out`: the borrowed counterpart of [`decode_frame`], with the
/// same checks in the same order and no owned `Vec`.
///
/// # Errors
///
/// Everything [`decode_frame`] reports, plus [`WireError::BadPayload`]
/// for a well-formed frame of any other type or one that does not carry
/// exactly `out.len()` floats (the count is the peer's claim); `out` is
/// written only on `Ok`.
pub fn decode_chunk_into(frame: &[u8], out: &mut [f32]) -> Result<ChunkHead, WireError> {
    let (tag, payload, _) = open_frame(frame)?;
    if !matches!(tag, 0x10 | 0x11) {
        return Err(WireError::BadPayload { what: "not a gradient chunk frame" });
    }
    let mut d = Dec::new(payload);
    let head = d.chunk_head(tag == 0x11)?;
    let raw = d.f32s_raw()?;
    d.finish()?;
    if raw.len() != out.len() * 4 {
        return Err(WireError::BadPayload {
            what: "gradient chunk does not carry the expected float count \
                   (do the ranks agree on chunk_floats?)",
        });
    }
    f32s_from_le(raw, out);
    Ok(head)
}

/// Writes one frame to `w` and flushes it.
///
/// # Errors
///
/// [`WireError::Io`] on transport failure.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, msg: &Message) -> Result<(), WireError> {
    let frame = encode_frame(msg);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads exactly one frame's bytes from `r` into `frame` (cleared first,
/// capacity kept), checking only what framing needs — the magic and the
/// length cap. Hand the bytes to [`decode_frame`] or
/// [`decode_chunk_into`] for the checksum and everything after it.
///
/// The buffer grows with the bytes received, not with the untrusted
/// length prefix: a hostile prefix costs the sender real bandwidth
/// instead of driving a [`MAX_PAYLOAD`]-sized allocation on the receiver
/// before the checksum is ever verified.
///
/// # Errors
///
/// [`WireError::Closed`] when the peer hung up cleanly between frames;
/// [`WireError::Truncated`] when it hung up mid-frame;
/// [`WireError::BadMagic`]; [`WireError::TooLarge`] for a length prefix
/// over [`MAX_PAYLOAD`]; [`WireError::Io`].
pub fn read_frame_into<R: Read + ?Sized>(r: &mut R, frame: &mut Vec<u8>) -> Result<(), WireError> {
    frame.clear();
    match r.take(HEADER_LEN as u64).read_to_end(frame)? {
        // A clean close is only clean at a frame boundary.
        0 => return Err(WireError::Closed),
        HEADER_LEN => {}
        got => return Err(WireError::Truncated { needed: HEADER_LEN, got }),
    }
    if frame[0..2] != MAGIC {
        return Err(WireError::BadMagic { found: [frame[0], frame[1]] });
    }
    let len = le_u32(&frame[4..]);
    if len > MAX_PAYLOAD {
        return Err(WireError::TooLarge { len });
    }
    let rest = len as usize + TRAILER_LEN;
    let got = r.take(rest as u64).read_to_end(frame)?;
    if got < rest {
        return Err(WireError::Truncated { needed: HEADER_LEN + rest, got });
    }
    Ok(())
}

/// Reads and decodes exactly one frame from `r`.
///
/// # Errors
///
/// Everything [`read_frame_into`] and [`decode_frame`] report.
pub fn read_frame<R: Read + ?Sized>(r: &mut R) -> Result<Message, WireError> {
    let mut frame = Vec::new();
    read_frame_into(r, &mut frame)?;
    decode_frame(&frame).map(|(msg, _)| msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_messages() -> Vec<Message> {
        vec![
            Message::InferRequest { id: 7, key: b"user-123".to_vec(), input: vec![0.5, -1.25] },
            Message::InferRequest { id: 8, key: Vec::new(), input: Vec::new() },
            Message::InferResponse { id: 7, class: 2, logits: vec![0.1, 0.9, f32::NAN] },
            Message::InferError { id: 9, message: "worker 0 panicked".to_string() },
            Message::ReduceChunk { epoch: 1, batch: 3, chunk: 0, data: vec![1.0; 5] },
            Message::BroadcastChunk { epoch: 2, batch: 0, chunk: 4, data: vec![-0.0, 3.5] },
            Message::AccMeta {
                epoch: 1,
                batch: 2,
                loss_sum_bits: 1.75f64.to_bits(),
                correct: 6,
                sparsity_bits: vec![0.5f64.to_bits(), 0.25f64.to_bits()],
            },
            Message::Hello { rank: 3, world: 8 },
            Message::Shutdown,
        ]
    }

    #[test]
    fn round_trip_every_message() {
        for msg in all_messages() {
            let frame = encode_frame(&msg);
            let (back, used) = decode_frame(&frame).expect("decode");
            assert_eq!(used, frame.len());
            // NaN-tolerant comparison: compare the re-encoded bytes.
            assert_eq!(encode_frame(&back), frame, "{msg:?}");
        }
    }

    #[test]
    fn stream_round_trip() {
        let mut buf = Vec::new();
        for msg in all_messages() {
            write_frame(&mut buf, &msg).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for msg in all_messages() {
            let back = read_frame(&mut cursor).unwrap();
            assert_eq!(encode_frame(&back), encode_frame(&msg));
        }
        assert_eq!(read_frame(&mut cursor), Err(WireError::Closed));
    }

    #[test]
    fn truncation_is_typed() {
        let frame = encode_frame(&Message::Hello { rank: 1, world: 2 });
        for cut in 0..frame.len() {
            match decode_frame(&frame[..cut]) {
                Err(WireError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn corruption_is_typed() {
        let frame = encode_frame(&Message::ReduceChunk {
            epoch: 1,
            batch: 2,
            chunk: 3,
            data: vec![1.0, 2.0],
        });
        // Flip one bit at every position: magic bytes report BadMagic,
        // everything else must be caught by the checksum (or the length
        // cap / truncation guard when the length field grows).
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x10;
            match decode_frame(&bad) {
                Ok(_) => panic!("bit flip at {i} went undetected"),
                Err(
                    WireError::BadMagic { .. }
                    | WireError::BadChecksum { .. }
                    | WireError::TooLarge { .. }
                    | WireError::Truncated { .. },
                ) => {}
                Err(other) => panic!("bit flip at {i}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut frame = encode_frame(&Message::Shutdown);
        frame[2] = VERSION + 1;
        // Re-seal the checksum so the version check itself is exercised.
        let body_end = frame.len() - TRAILER_LEN;
        let crc = crc32(&frame[2..body_end]).to_le_bytes();
        frame[body_end..].copy_from_slice(&crc);
        assert_eq!(decode_frame(&frame), Err(WireError::BadVersion { found: VERSION + 1 }));
    }

    #[test]
    fn unknown_type_is_typed() {
        let mut frame = encode_frame(&Message::Shutdown);
        frame[3] = 0x7F;
        let body_end = frame.len() - TRAILER_LEN;
        let crc = crc32(&frame[2..body_end]).to_le_bytes();
        frame[body_end..].copy_from_slice(&crc);
        assert_eq!(decode_frame(&frame), Err(WireError::UnknownType { tag: 0x7F }));
    }

    #[test]
    fn oversized_length_is_capped() {
        let mut frame = encode_frame(&Message::Shutdown);
        frame[4..8].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(decode_frame(&frame), Err(WireError::TooLarge { len: MAX_PAYLOAD + 1 }));
    }

    /// A frame far larger than any read buffer exercises the
    /// grow-as-bytes-arrive path and still round-trips exactly.
    #[test]
    fn large_frame_crosses_chunked_read_boundary() {
        let data = vec![1.5f32; (64 << 10) / 4 + 123];
        let msg = Message::ReduceChunk { epoch: 1, batch: 0, chunk: 0, data };
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), msg);
        assert_eq!(read_frame(&mut cursor), Err(WireError::Closed));
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The byte-at-a-time loop the slicing implementation replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// Every length around the 16-byte block size at every start offset
    /// (so every split between whole blocks and the byte-wise tail, at
    /// every alignment), then long buffers of odd lengths.
    #[test]
    fn crc32_slicing_matches_bytewise() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.to_le_bytes()[3]
        };
        let buf: Vec<u8> = (0..64 + 64).map(|_| next()).collect();
        for start in 0..64 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        for len in [65usize, 1000, 4110, 4111, 65_537, 300_003] {
            let long: Vec<u8> = (0..len).map(|_| next()).collect();
            assert_eq!(crc32(&long), crc32_bytewise(&long), "len {len}");
            assert_eq!(crc32(&long[3..]), crc32_bytewise(&long[3..]), "len {len} offset 3");
        }
    }
}
