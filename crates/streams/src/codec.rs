//! Binary columnar frame codec for cross-process links.
//!
//! ROADMAP item 1: the cross-PE transport promoted to a real wire
//! protocol. A frame is the unit the batched transport already ships
//! between PEs (a columnar [`Frame`]); this module gives it a compact,
//! length-prefixed, versioned byte layout so it can cross a TCP socket
//! without per-value parsing:
//!
//! ```text
//! ┌─────────┬─────────┬──────────────┬──────────────────┬──────────┐
//! │ magic   │ version │ body_len u32 │ body (see below) │ crc32c   │
//! │ "SPCF"  │ 1 byte  │ LE           │                  │ LE, body │
//! └─────────┴─────────┴──────────────┴──────────────────┴──────────┘
//! body:
//!   n_entries u32 · n_data u32 · n_ctrl u32 · n_punct u32
//!   tags        n_entries × u8          (0 = data, 1 = control, 2 = EOS)
//!   total_vals  u64
//!   seqs        n_data × u64 LE         (row ids)
//!   stamps      n_data × u64 LE
//!   lens        n_data × u32 LE
//!   values      total_vals × f64 LE     (one contiguous block)
//!   mask_flags  ⌈n_data/8⌉ bytes        (bit i = data tuple i is gappy)
//!   presence    ⌈total_vals/8⌉ bytes    (bit per value; 1 = observed)
//!   controls    n_ctrl × { kind u32 · sender u32 · tagged u8 · len u32 · bytes }
//! ```
//!
//! The layout is *columnar*, like the in-memory [`Frame`]: all values of a
//! batch land in one contiguous little-endian f64 block, so encoding a
//! frame ([`encode_columns`]) is a handful of column copies, and a decode
//! ([`decode_frame`]) is a bounds check plus bulk copies straight into a
//! frame's columns — no per-value formatting or parsing anywhere (CSV is
//! how observations *enter* the graph, through `ops::LineSource`; this is
//! how they cross processes inside it). The presence bitmap is packed and
//! unpacked eight mask entries a byte, and the checksum is the SSE4.2
//! `crc32` instruction where the CPU has it. Both directions reuse
//! caller-owned buffers and allocate nothing in steady state (guarded by
//! `tests/codec_alloc.rs`, the same allocator-counter pattern as the
//! serving path). [`encode_frame`] encodes the same bytes from a slice of
//! tuples, and [`Frame::tuples`] reads a decoded frame back as tuples: the
//! tests' two oracles.
//!
//! Torn and corrupted input can never partially apply: a decode first
//! proves the full frame is present, then verifies the CRC-32C over the
//! body, and only then copies columns out. Truncation surfaces as
//! [`CodecError::Incomplete`] (read more bytes), corruption as
//! [`CodecError::Corrupt`]; neither ever panics.
//!
//! Control payloads are `Arc<dyn Any>` in memory, so the codec cannot
//! serialize them structurally; applications register per-kind byte codecs
//! via [`register_control_codec`] (the engine registers its sync/snapshot
//! payloads at distributed start-up). A payload-free signal round-trips
//! without any registration; an unregistered payload-carrying kind fails
//! the encode loudly rather than silently dropping state.

use crate::tuple::{ControlTuple, Frame, Punctuation, Tuple, TAG_CTRL, TAG_DATA, TAG_EOS};
use crate::watched::lock;
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// First bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SPCF";
/// Wire version this build speaks. Decoders reject other versions loudly
/// (compat rule: the version byte bumps on any layout change; there is no
/// in-band negotiation — both ends of a link run the same binary).
pub const VERSION: u8 = 2;
/// Bytes before the body: magic, version, body length.
pub const HEADER_LEN: usize = 9;
/// Bytes after the body: CRC-32C (Castagnoli) over the body.
pub const TRAILER_LEN: usize = 4;
/// Sanity cap on a frame body. A length prefix larger than this is treated
/// as corruption, so a flipped bit in the length field can never make the
/// receiver buffer gigabytes.
pub const MAX_BODY_LEN: usize = 1 << 28;

/// Why a frame failed to encode or decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Not enough bytes yet — not an error on a streaming read, just "read
    /// more and retry".
    Incomplete,
    /// The bytes can never become a valid frame (bad magic/version, bad
    /// CRC, inconsistent counts, trailing garbage). The static message
    /// names the first check that failed.
    Corrupt(&'static str),
    /// A control tuple of this kind carries a payload but no codec was
    /// registered for it (see [`register_control_codec`]).
    UnregisteredControl(u32),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Incomplete => write!(f, "incomplete frame"),
            CodecError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
            CodecError::UnregisteredControl(k) => {
                write!(f, "no control codec registered for kind {k}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for std::io::Error {
    fn from(e: CodecError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Control payload registry
// ---------------------------------------------------------------------------

/// Serializes a control payload of a known kind into `out` (appending).
/// Returns `false` when the payload is not the type this codec expects.
pub type ControlEncodeFn = fn(&(dyn Any + Send + Sync), &mut Vec<u8>) -> bool;
/// Deserializes a control payload previously produced by the matching
/// encode fn. Returns `None` on malformed bytes.
pub type ControlDecodeFn = fn(&[u8]) -> Option<Arc<dyn Any + Send + Sync>>;

fn registry() -> &'static Mutex<HashMap<u32, (ControlEncodeFn, ControlDecodeFn)>> {
    static REGISTRY: OnceLock<Mutex<HashMap<u32, (ControlEncodeFn, ControlDecodeFn)>>> =
        OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Registers the byte codec for control tuples of `kind`. Idempotent:
/// re-registering a kind replaces the previous codec (processes that build
/// several engines register the same codecs once per engine).
pub fn register_control_codec(kind: u32, enc: ControlEncodeFn, dec: ControlDecodeFn) {
    lock(registry()).insert(kind, (enc, dec));
}

// ---------------------------------------------------------------------------
// CRC-32C (Castagnoli). Like every CRC-32 it detects every error burst of
// at most 32 bits, so it catches any one corrupted byte of the body, which
// the robustness proptests rely on. On x86-64 with SSE4.2 the `crc32`
// instruction folds in eight bytes per step; elsewhere a slice-by-8 table
// walk does, through eight shifted tables. The table walk (1.5 GB/s) was
// a sixth of a `tcp2-galaxy` tuple's CPU across both ends of the wire
// (`streams.codec.encode_ns_per_tuple` / `decode_ns_per_tuple`), and it
// stays the portable path and the tests' reference.
// ---------------------------------------------------------------------------

// A `static`, not a `const`: an unoptimised build copies a `const` array
// at every index.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0x82F6_3B78 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32C (Castagnoli) of `bytes`: the SSE4.2 instruction where the CPU
/// has it, the slice-by-8 table otherwise.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc32_sse42` needs SSE4.2, which the CPU was just
        // detected to have.
        return unsafe { crc32_sse42(bytes) };
    }
    crc32_table(bytes)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32_sse42(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut c = u64::from(!0u32);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        c = _mm_crc32_u64(c, u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    let mut c = c as u32;
    for &b in words.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    !c
}

fn crc32_table(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][(lo >> 8 & 0xFF) as usize]
            ^ CRC_TABLES[5][(lo >> 16 & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][(hi >> 8 & 0xFF) as usize]
            ^ CRC_TABLES[1][(hi >> 16 & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Bulk little-endian copies. On little-endian targets these are plain
// memcpys through a byte view — no per-value conversion; the big-endian
// fallback converts value by value so the wire format stays LE everywhere.
// ---------------------------------------------------------------------------

macro_rules! bulk_le {
    (read $read_name:ident, $ty:ty, $size:expr) => {
        /// Appends `n` values decoded from the front of `src` to `dst`.
        fn $read_name(src: &[u8], dst: &mut Vec<$ty>, n: usize) {
            debug_assert!(src.len() >= n * $size);
            let start = dst.len();
            dst.resize(start + n, Default::default());
            #[cfg(target_endian = "little")]
            {
                // SAFETY: the destination is initialized $ty storage and a
                // byte-wise overwrite of it with n*$size bytes is in
                // bounds; unaligned source bytes are fine for a byte copy.
                let out = unsafe {
                    std::slice::from_raw_parts_mut(
                        dst.as_mut_ptr().add(start) as *mut u8,
                        n * $size,
                    )
                };
                out.copy_from_slice(&src[..n * $size]);
            }
            #[cfg(not(target_endian = "little"))]
            {
                for i in 0..n {
                    let mut b = [0u8; $size];
                    b.copy_from_slice(&src[i * $size..(i + 1) * $size]);
                    dst[start + i] = <$ty>::from_le_bytes(b);
                }
            }
        }
    };
    (both $write_name:ident, $read_name:ident, $ty:ty, $size:expr) => {
        fn $write_name(out: &mut Vec<u8>, vals: &[$ty]) {
            #[cfg(target_endian = "little")]
            {
                // SAFETY: any $ty value is valid to view as bytes; the
                // slice covers exactly the values' own storage.
                let bytes = unsafe {
                    std::slice::from_raw_parts(vals.as_ptr() as *const u8, vals.len() * $size)
                };
                out.extend_from_slice(bytes);
            }
            #[cfg(not(target_endian = "little"))]
            {
                for v in vals {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        bulk_le!(read $read_name, $ty, $size);
    };
}

bulk_le!(both write_f64s, read_f64s, f64, 8);
bulk_le!(both write_u64s, read_u64s, u64, 8);

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// ORs the eight bits of `byte` into the bitmap `bits` at bit `at` onward
/// (bit i of `byte` → bit `at + i`). Set bits must lie inside `bits`.
fn or_bits(bits: &mut [u8], at: usize, byte: u8) {
    let (i, shift) = (at / 8, at % 8);
    bits[i] |= byte << shift;
    if shift != 0 && byte >> (8 - shift) != 0 {
        bits[i + 1] |= byte >> (8 - shift);
    }
}

/// Each byte's eight bits as presence flags, least significant first.
const UNPACKED: [[bool; 8]; 256] = {
    let mut table = [[false; 8]; 256];
    let mut bit = 0;
    while bit < 8 * 256 {
        table[bit / 8][bit % 8] = (bit / 8) >> (bit % 8) & 1 != 0;
        bit += 1;
    }
    table
};

/// The eight bits of the bitmap `bits` from bit `at` onward, as one byte
/// (bit `at + i` → bit i); bits past the end of `bits` read as zero.
fn bits_at(bits: &[u8], at: usize) -> u8 {
    let (i, shift) = (at / 8, at % 8);
    let lo = bits[i] >> shift;
    match bits.get(i + 1) {
        Some(&hi) if shift != 0 => lo | hi << (8 - shift),
        _ => lo,
    }
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

/// Clears `out` and writes the header with a zero body length; returns
/// where the body starts.
fn begin_frame(out: &mut Vec<u8>) -> usize {
    out.clear();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    push_u32(out, 0); // body_len, patched by `finish_frame`
    out.len()
}

/// Patches the body length in and appends the CRC trailer.
fn finish_frame(out: &mut Vec<u8>, body_start: usize) -> Result<(), CodecError> {
    let body_len = out.len() - body_start;
    if body_len > MAX_BODY_LEN {
        return Err(CodecError::Corrupt("frame body exceeds MAX_BODY_LEN"));
    }
    out[body_start - 4..body_start].copy_from_slice(&(body_len as u32).to_le_bytes());
    let crc = crc32(&out[body_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Appends `flags` packed eight a byte, bit i of a byte = flag i.
fn push_flags(out: &mut Vec<u8>, flags: impl Iterator<Item = bool>) {
    let mut acc = 0u8;
    let mut nbits = 0u8;
    for flag in flags {
        acc |= u8::from(flag) << nbits;
        nbits += 1;
        if nbits == 8 {
            out.push(acc);
            acc = 0;
            nbits = 0;
        }
    }
    if nbits > 0 {
        out.push(acc);
    }
}

/// ORs one row's presence bits into the bitmap `bits` from bit `at` on: its
/// mask's first `len` entries, or `len` ones for a complete row.
fn or_presence(bits: &mut [u8], at: usize, len: usize, mask: Option<&[bool]>) {
    match mask {
        None => {
            for k in (0..len).step_by(8) {
                or_bits(bits, at + k, 0xFF >> (8 - (len - k).min(8)));
            }
        }
        Some(m) => {
            for (k, group) in m[..len].chunks(8).enumerate() {
                let byte = group
                    .iter()
                    .rev()
                    .fold(0u8, |acc, &present| acc << 1 | u8::from(present));
                or_bits(bits, at + 8 * k, byte);
            }
        }
    }
}

/// Appends one control entry. Payload bytes are produced straight into
/// the frame buffer; the length field is patched afterwards.
fn push_control(out: &mut Vec<u8>, c: &ControlTuple) -> Result<(), CodecError> {
    push_u32(out, c.kind);
    push_u32(out, c.sender);
    if c.payload_as::<()>().is_some() {
        out.push(0);
        push_u32(out, 0);
        return Ok(());
    }
    let Some(&(enc, _)) = lock(registry()).get(&c.kind) else {
        return Err(CodecError::UnregisteredControl(c.kind));
    };
    out.push(1);
    let len_at = out.len();
    push_u32(out, 0);
    if !enc(&*c.payload, out) {
        return Err(CodecError::UnregisteredControl(c.kind));
    }
    let len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Encodes a batch of tuples as one wire frame into `out` (cleared first).
/// The same bytes as [`encode_columns`] of a frame holding these tuples.
///
/// Steady-state this allocates nothing once `out` has grown to the working
/// frame size; data values land in the body via bulk copies. Control
/// payloads go through the per-kind registry; a payload-free signal needs
/// no registration.
pub fn encode_frame(tuples: &[Tuple], out: &mut Vec<u8>) -> Result<(), CodecError> {
    let body_start = begin_frame(out);

    let mut n_data = 0u32;
    let mut n_ctrl = 0u32;
    let mut n_punct = 0u32;
    let mut total_vals = 0u64;
    for t in tuples {
        match t {
            Tuple::Data(d) => {
                n_data += 1;
                total_vals += d.values.len() as u64;
            }
            Tuple::Control(_) => n_ctrl += 1,
            Tuple::Punct(Punctuation::EndOfStream) => n_punct += 1,
        }
    }
    push_u32(out, tuples.len() as u32);
    push_u32(out, n_data);
    push_u32(out, n_ctrl);
    push_u32(out, n_punct);
    for t in tuples {
        out.push(match t {
            Tuple::Data(_) => TAG_DATA,
            Tuple::Control(_) => TAG_CTRL,
            Tuple::Punct(_) => TAG_EOS,
        });
    }
    push_u64(out, total_vals);
    let data = || {
        tuples.iter().filter_map(|t| match t {
            Tuple::Data(d) => Some(d),
            _ => None,
        })
    };
    for d in data() {
        push_u64(out, d.seq);
    }
    for d in data() {
        push_u64(out, d.timestamp_ns);
    }
    for d in data() {
        push_u32(out, d.values.len() as u32);
    }
    for d in data() {
        write_f64s(out, &d.values);
    }
    // Mask-presence flags: one bit per data tuple.
    push_flags(out, data().map(|d| d.mask.is_some()));
    // Presence bitmap: one bit per value, 1 = observed, OR-ed into a zeroed
    // region eight entries at a time. Complete observations contribute
    // all-ones runs.
    let at = out.len();
    out.resize(at + (total_vals as usize).div_ceil(8), 0);
    let mut bit = 0;
    for d in data() {
        let len = d.values.len();
        or_presence(
            &mut out[at..],
            bit,
            len,
            d.mask.as_deref().map(Vec::as_slice),
        );
        bit += len;
    }
    for t in tuples {
        if let Tuple::Control(c) = t {
            push_control(out, c)?;
        }
    }
    finish_frame(out, body_start)
}

/// Encodes the entries of `frame` from entry `from` on as one wire frame
/// into `out` (cleared first), copying the frame's columns: the sequence
/// numbers, timestamps and values are bulk copies, the lengths and the two
/// bitmaps are derived a row at a time. The bytes are [`encode_frame`]'s
/// for the same entries. `out` is grown to the frame's exact size (control
/// payloads aside) when it is short, so a fresh buffer holds no slack, and
/// one reused at the working size allocates nothing.
pub fn encode_columns(frame: &Frame, from: usize, out: &mut Vec<u8>) -> Result<(), CodecError> {
    let skipped = &frame.tags[..from];
    let r0 = skipped.iter().filter(|&&t| t == TAG_DATA).count();
    let c0 = skipped.iter().filter(|&&t| t == TAG_CTRL).count();
    let before = |ends: &[usize]| if r0 == 0 { 0 } else { ends[r0 - 1] };
    let (v0, m0) = (before(&frame.ends), before(&frame.mask_ends));
    let tags = &frame.tags[from..];
    let values = &frame.values[v0..];
    let n_data = frame.n_rows() - r0;
    let n_ctrl = frame.ctrls.len() - c0;

    let body_start = begin_frame(out);
    let body = 16 + tags.len() + 8 + 20 * n_data + 8 * values.len();
    let bitmaps = n_data.div_ceil(8) + values.len().div_ceil(8);
    out.reserve_exact(body + bitmaps + 13 * n_ctrl + TRAILER_LEN);
    push_u32(out, tags.len() as u32);
    push_u32(out, n_data as u32);
    push_u32(out, n_ctrl as u32);
    push_u32(out, (tags.len() - n_data - n_ctrl) as u32);
    out.extend_from_slice(tags);
    push_u64(out, values.len() as u64);
    write_u64s(out, &frame.seqs[r0..]);
    write_u64s(out, &frame.stamps[r0..]);
    let mut start = v0;
    for &end in &frame.ends[r0..] {
        push_u32(out, (end - start) as u32);
        start = end;
    }
    write_f64s(out, values);
    push_flags(out, frame.masked[r0..].iter().copied());
    let at = out.len();
    out.resize(at + values.len().div_ceil(8), 0);
    let (mut start, mut mask_start) = (v0, m0);
    for r in r0..frame.n_rows() {
        let (end, mask_end) = (frame.ends[r], frame.mask_ends[r]);
        let mask = frame.masked[r].then(|| &frame.masks[mask_start..mask_end]);
        or_presence(&mut out[at..], start - v0, end - start, mask);
        (start, mask_start) = (end, mask_end);
    }
    for c in &frame.ctrls[c0..] {
        push_control(out, c)?;
    }
    finish_frame(out, body_start)
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

/// The name the benchmark's stage replay decodes into: a frame is the one
/// decoded layout. ROADMAP item 3 (a) queues the replay's respelling to
/// [`Frame`] and this alias's deletion.
pub type ColumnarFrame = Frame;

/// Inspects a frame header and returns the total frame length (header +
/// body + CRC trailer). [`CodecError::Incomplete`] when fewer than
/// [`HEADER_LEN`] bytes are available.
pub fn frame_len(buf: &[u8]) -> Result<usize, CodecError> {
    if buf.len() < HEADER_LEN {
        return Err(CodecError::Incomplete);
    }
    if buf[..4] != MAGIC {
        return Err(CodecError::Corrupt("bad magic"));
    }
    if buf[4] != VERSION {
        return Err(CodecError::Corrupt("unsupported frame version"));
    }
    let body_len = u32::from_le_bytes([buf[5], buf[6], buf[7], buf[8]]) as usize;
    if body_len > MAX_BODY_LEN {
        return Err(CodecError::Corrupt("frame body exceeds MAX_BODY_LEN"));
    }
    Ok(HEADER_LEN + body_len + TRAILER_LEN)
}

/// Cursor over a body slice with bounds-checked take operations.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .at
            .checked_add(n)
            .ok_or(CodecError::Corrupt("length overflow"))?;
        if end > self.buf.len() {
            return Err(CodecError::Corrupt("section extends past body"));
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

/// Decodes one full frame from the front of `buf` into `frame` (cleared
/// first), returning the number of bytes consumed.
///
/// The CRC is verified over the whole body *before* any column is copied,
/// so a failed decode never partially applies: on any `Err`, `frame` holds
/// either its previous content (`Incomplete`, bad CRC) or no entries. The
/// sequence numbers, timestamps and values are bulk copies; the value ends
/// are summed from the lengths, and only gappy rows get a mask, unpacked
/// out of the presence bitmap. Control payloads go through the registry:
/// a kind with no registered decoder, or a payload its decoder rejects,
/// fails the decode.
pub fn decode_frame(buf: &[u8], frame: &mut Frame) -> Result<usize, CodecError> {
    let total = frame_len(buf)?;
    if buf.len() < total {
        return Err(CodecError::Incomplete);
    }
    let body = &buf[HEADER_LEN..total - TRAILER_LEN];
    let want = u32::from_le_bytes(buf[total - TRAILER_LEN..total].try_into().expect("4 bytes"));
    if crc32(body) != want {
        return Err(CodecError::Corrupt("checksum mismatch"));
    }
    frame.clear();
    decode_body(body, frame).inspect_err(|_| frame.clear())?;
    Ok(total)
}

fn decode_body(body: &[u8], frame: &mut Frame) -> Result<(), CodecError> {
    let mut cur = Cursor { buf: body, at: 0 };
    let n_entries = cur.u32()? as usize;
    let n_data = cur.u32()? as usize;
    let n_ctrl = cur.u32()? as usize;
    let n_punct = cur.u32()? as usize;
    if n_data
        .checked_add(n_ctrl)
        .and_then(|s| s.checked_add(n_punct))
        != Some(n_entries)
    {
        return Err(CodecError::Corrupt("entry counts disagree"));
    }
    let tags = cur.take(n_entries)?;
    let (mut td, mut tc, mut tp) = (0usize, 0usize, 0usize);
    for &t in tags {
        match t {
            TAG_DATA => td += 1,
            TAG_CTRL => tc += 1,
            TAG_EOS => tp += 1,
            _ => return Err(CodecError::Corrupt("unknown entry tag")),
        }
    }
    if (td, tc, tp) != (n_data, n_ctrl, n_punct) {
        return Err(CodecError::Corrupt("tags disagree with counts"));
    }
    frame.tags.extend_from_slice(tags);

    let total_vals = cur.u64()?;
    read_u64s(cur.take(n_data * 8)?, &mut frame.seqs, n_data);
    read_u64s(cur.take(n_data * 8)?, &mut frame.stamps, n_data);
    let mut end = 0u64;
    for len in cur.take(n_data * 4)?.chunks_exact(4) {
        end += u64::from(u32::from_le_bytes(len.try_into().expect("4 bytes")));
        frame.ends.push(end as usize);
    }
    if end != total_vals {
        return Err(CodecError::Corrupt("value lengths disagree with total"));
    }
    let total_vals = total_vals as usize;
    let val_bytes = total_vals
        .checked_mul(8)
        .ok_or(CodecError::Corrupt("length overflow"))?;
    read_f64s(cur.take(val_bytes)?, &mut frame.values, total_vals);
    let mask_flags = cur.take(n_data.div_ceil(8))?;
    let presence = cur.take(total_vals.div_ceil(8))?;
    let mut start = 0;
    for (r, &end) in frame.ends.iter().enumerate() {
        let masked = mask_flags[r / 8] >> (r % 8) & 1 != 0;
        frame.masked.push(masked);
        if masked {
            for k in (start..end).step_by(8) {
                let bits = &UNPACKED[usize::from(bits_at(presence, k))];
                frame.masks.extend_from_slice(&bits[..(end - k).min(8)]);
            }
        }
        frame.mask_ends.push(frame.masks.len());
        start = end;
    }

    for _ in 0..n_ctrl {
        let kind = cur.u32()?;
        let sender = cur.u32()?;
        let tagged = match cur.take(1)?[0] {
            0 => false,
            1 => true,
            _ => return Err(CodecError::Corrupt("bad control payload flag")),
        };
        let len = cur.u32()? as usize;
        if !tagged && len != 0 {
            return Err(CodecError::Corrupt("unit control payload with bytes"));
        }
        let bytes = cur.take(len)?;
        let payload: Arc<dyn Any + Send + Sync> = if !tagged {
            Arc::new(())
        } else {
            let Some(&(_, dec)) = lock(registry()).get(&kind) else {
                return Err(CodecError::UnregisteredControl(kind));
            };
            dec(bytes).ok_or(CodecError::Corrupt("control payload rejected"))?
        };
        frame.ctrls.push(ControlTuple::new(kind, sender, payload));
    }
    if cur.at != body.len() {
        return Err(CodecError::Corrupt("trailing bytes after last section"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::DataTuple;

    fn data(seq: u64, vals: Vec<f64>) -> Tuple {
        Tuple::Data(DataTuple::new(seq, vals))
    }

    fn round_trip(tuples: &[Tuple]) -> Vec<Tuple> {
        let mut buf = Vec::new();
        encode_frame(tuples, &mut buf).expect("encode");
        let mut frame = Frame::default();
        let n = decode_frame(&buf, &mut frame).expect("decode");
        assert_eq!(n, buf.len(), "whole frame consumed");
        frame.tuples()
    }

    #[test]
    fn empty_frame_round_trips() {
        assert!(round_trip(&[]).is_empty());
    }

    #[test]
    fn data_batch_round_trips_bit_identical() {
        let tuples: Vec<Tuple> = (0..17)
            .map(|i| {
                let mut d = DataTuple::new(i, (0..5).map(|j| (i * 5 + j) as f64 * 0.1).collect());
                d.timestamp_ns = 1_000 + i;
                Tuple::Data(d)
            })
            .collect();
        let back = round_trip(&tuples);
        assert_eq!(back.len(), 17);
        for (a, b) in tuples.iter().zip(&back) {
            let (Tuple::Data(a), Tuple::Data(b)) = (a, b) else {
                panic!("tag changed");
            };
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.timestamp_ns, b.timestamp_ns);
            assert_eq!(a.values.len(), b.values.len());
            for (x, y) in a.values.iter().zip(b.values.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert!(b.mask.is_none());
        }
    }

    #[test]
    fn masks_and_nonfinite_values_survive() {
        let tuples = vec![
            Tuple::Data(DataTuple::masked(
                7,
                vec![1.0, f64::NAN, -0.0],
                vec![true, false, true],
            )),
            data(8, vec![f64::INFINITY, f64::MIN_POSITIVE]),
        ];
        let back = round_trip(&tuples);
        let Tuple::Data(d0) = &back[0] else { panic!() };
        assert_eq!(
            d0.mask.as_ref().unwrap().as_slice(),
            &[true, false, true],
            "gap pattern survives"
        );
        assert_eq!(d0.values[1].to_bits(), f64::NAN.to_bits());
        assert_eq!(d0.values[2].to_bits(), (-0.0f64).to_bits());
        let Tuple::Data(d1) = &back[1] else { panic!() };
        assert!(d1.mask.is_none());
        assert_eq!(d1.values[0], f64::INFINITY);
    }

    #[test]
    fn mixed_ordering_is_preserved() {
        let tuples = vec![
            data(0, vec![1.0]),
            Tuple::Control(ControlTuple::signal(9, 2)),
            data(1, vec![2.0]),
            Tuple::Punct(Punctuation::EndOfStream),
        ];
        let back = round_trip(&tuples);
        assert!(matches!(back[0], Tuple::Data(_)));
        let Tuple::Control(c) = &back[1] else {
            panic!()
        };
        assert_eq!((c.kind, c.sender), (9, 2));
        assert!(c.payload_as::<()>().is_some());
        assert!(matches!(back[2], Tuple::Data(_)));
        assert!(matches!(back[3], Tuple::Punct(_)));
    }

    #[test]
    fn registered_control_payload_round_trips() {
        const KIND: u32 = 0x00C0_DEC0;
        fn enc(p: &(dyn Any + Send + Sync), out: &mut Vec<u8>) -> bool {
            match p.downcast_ref::<u64>() {
                Some(v) => {
                    out.extend_from_slice(&v.to_le_bytes());
                    true
                }
                None => false,
            }
        }
        fn dec(b: &[u8]) -> Option<Arc<dyn Any + Send + Sync>> {
            let v = u64::from_le_bytes(b.try_into().ok()?);
            Some(Arc::new(v))
        }
        register_control_codec(KIND, enc, dec);
        let tuples = vec![Tuple::Control(ControlTuple::new(
            KIND,
            4,
            Arc::new(0xDEAD_BEEFu64),
        ))];
        let back = round_trip(&tuples);
        let Tuple::Control(c) = &back[0] else {
            panic!()
        };
        assert_eq!(*c.payload_as::<u64>().unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn a_rejected_control_payload_leaves_the_frame_empty() {
        const KIND: u32 = 0x00C0_DEC1;
        fn enc(_: &(dyn Any + Send + Sync), out: &mut Vec<u8>) -> bool {
            out.push(7);
            true
        }
        fn dec(_: &[u8]) -> Option<Arc<dyn Any + Send + Sync>> {
            None
        }
        register_control_codec(KIND, enc, dec);
        let tuples = vec![
            data(0, vec![1.0, 2.0]),
            Tuple::Control(ControlTuple::new(KIND, 1, Arc::new(0u8))),
        ];
        let mut buf = Vec::new();
        encode_frame(&tuples, &mut buf).unwrap();
        let mut frame = Frame::from_tuples(&[data(9, vec![3.0])]);
        assert_eq!(
            decode_frame(&buf, &mut frame),
            Err(CodecError::Corrupt("control payload rejected"))
        );
        assert!(frame.is_empty() && frame.values.is_empty() && frame.ctrls.is_empty());
    }

    #[test]
    fn unregistered_payload_kind_fails_encode_loudly() {
        let tuples = vec![Tuple::Control(ControlTuple::new(
            0xFFFF_FFFE,
            0,
            Arc::new(String::from("opaque")),
        ))];
        let mut buf = Vec::new();
        assert_eq!(
            encode_frame(&tuples, &mut buf),
            Err(CodecError::UnregisteredControl(0xFFFF_FFFE))
        );
    }

    #[test]
    fn truncation_yields_incomplete_and_corruption_yields_corrupt() {
        let tuples = vec![data(0, vec![1.0, 2.0, 3.0]), data(1, vec![4.0, 5.0, 6.0])];
        let mut buf = Vec::new();
        encode_frame(&tuples, &mut buf).unwrap();
        let mut frame = Frame::default();
        for cut in 0..buf.len() {
            let err = decode_frame(&buf[..cut], &mut frame).expect_err("truncated");
            assert!(
                matches!(err, CodecError::Incomplete | CodecError::Corrupt(_)),
                "cut={cut}: {err}"
            );
        }
        // Flip one bit anywhere in body or trailer: CRC must catch it.
        for at in HEADER_LEN..buf.len() {
            let mut bad = buf.clone();
            bad[at] ^= 0x01;
            let err = decode_frame(&bad, &mut frame).expect_err("corrupt");
            assert!(matches!(err, CodecError::Corrupt(_)), "at={at}: {err}");
        }
    }

    #[test]
    fn oversized_length_prefix_is_corrupt_not_oom() {
        let mut buf = Vec::new();
        encode_frame(&[data(0, vec![1.0])], &mut buf).unwrap();
        buf[5..9].copy_from_slice(&(u32::MAX).to_le_bytes());
        let mut frame = Frame::default();
        assert!(matches!(
            decode_frame(&buf, &mut frame),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn back_to_back_frames_decode_with_consumed_offsets() {
        let mut stream = Vec::new();
        let mut one = Vec::new();
        encode_frame(&[data(0, vec![1.0])], &mut one).unwrap();
        stream.extend_from_slice(&one);
        encode_frame(&[data(1, vec![2.0]), data(2, vec![3.0])], &mut one).unwrap();
        stream.extend_from_slice(&one);
        let mut frame = Frame::default();
        let n1 = decode_frame(&stream, &mut frame).unwrap();
        let mut out = frame.tuples();
        let n2 = decode_frame(&stream[n1..], &mut frame).unwrap();
        out.extend(frame.tuples());
        assert_eq!(n1 + n2, stream.len());
        assert_eq!(out.len(), 3);
        let Tuple::Data(d) = &out[2] else { panic!() };
        assert_eq!(d.seq, 2);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // CRC-32C (Castagnoli) check value: the CRC of "123456789".
        assert_eq!(crc32(b"123456789"), 0xE306_9283);
        assert_eq!(crc32_table(b"123456789"), 0xE306_9283);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse42_crc_equals_the_table_at_every_length_and_alignment() {
        if !std::arch::is_x86_feature_detected!("sse4.2") {
            return;
        }
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let bytes: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=4096 {
                let s = &bytes[start..start + len];
                // SAFETY: SSE4.2 was detected above.
                let fast = unsafe { crc32_sse42(s) };
                assert_eq!(fast, crc32_table(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn a_version_1_frame_is_rejected_by_name() {
        let mut buf = Vec::new();
        encode_frame(&[data(0, vec![1.0])], &mut buf).unwrap();
        buf[4] = 1;
        let mut frame = Frame::default();
        assert_eq!(
            decode_frame(&buf, &mut frame),
            Err(CodecError::Corrupt("unsupported frame version"))
        );
    }

    #[test]
    fn decode_reuses_buffers_across_frames() {
        let mut buf = Vec::new();
        let mut frame = Frame::default();
        encode_frame(&[data(0, vec![1.0; 64])], &mut buf).unwrap();
        decode_frame(&buf, &mut frame).unwrap();
        let cap = frame.values.capacity();
        encode_frame(&[data(1, vec![2.0; 32])], &mut buf).unwrap();
        decode_frame(&buf, &mut frame).unwrap();
        assert_eq!(frame.values.len(), 32);
        assert_eq!(frame.values.capacity(), cap, "decode reuses the columns");
        assert_eq!(frame.seqs, [1]);
    }
}
