//! The PPGB binary frame format — the framed data route.
//!
//! XML-over-SOAP pays a marshaling tax on every bulk PerformanceResult hop:
//! the rows are escaped into character data, wrapped in an envelope, and
//! re-parsed on arrival. PPGB removes the tax for peers that advertise it:
//! a kind-1 frame carries a batch of `n >= 1` calls — call header from the
//! [`CallContext`], per-entry args — with every string as a raw
//! length-prefixed byte run, zero escaping, and the answer comes back as an
//! interleaved stream of per-entry sections (kinds 8/9/6/7/3).
//!
//! ## Frame layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"PPGB"
//! 4       1     version (currently 2; version 1 defined the kind-7 checksum
//!               as byte-serial FNV-1a and is refused, see below)
//! 5       1     kind: 1 = batch call, 3 = fault, 4 = notification event,
//!               5 = cached segment, 6 = stream rows, 7 = stream trailer,
//!               8 = batch-stream head, 9 = entry head; 2 is reserved
//! 6       1     flags: bit 0 = call-header section present (kind 1),
//!               bit 1 = entry-tagged (kinds 3/6/7)
//! 7       1     reserved (0)
//! 8       ...   sections, per kind (see below)
//! ```
//!
//! Primitives: `str` = `u32 len` + that many UTF-8 bytes; `u8`/`u32`/`u64`/
//! `i64`/`f64` are fixed-width LE. A [`Value`] is a 1-byte tag (0 Nil, 1 Str,
//! 2 Int, 3 Double, 4 Bool, 5 StrArray) followed by its payload; a `StrArray`
//! is `u32 count` + `count` raw `str` runs — the packed PerformanceResult
//! columns ride here untouched.
//!
//! * kind 1 (call): optional call header (`str` request id, `u8` deadline
//!   flag + `u64` remaining ms, `str` leg tag), then `u32` entry count, then
//!   per entry: `str` path, `u8` repeat flag, and — when the flag is 0 —
//!   `str` method, `u8` ns flag + `str` ns, `u32` param count, per param
//!   `str` name + value. Repeat flag 1 means "same method/namespace/params
//!   as the previous entry", the common bulk shape (one `getPR` tuple set
//!   fanned across a host's instances), so those entries cost one path and
//!   one byte. The encoder always dedups when the fields byte-match, which
//!   keeps the encoding canonical; flag 1 on the first entry is malformed.
//! * kind 2: reserved. It once carried a buffered batch response; no
//!   encoder emits it and every decoder rejects it as malformed.
//! * kind 3 (fault): `u8` code, `str` faultstring, `u8` detail flag + `str`
//!   detail. Untagged, it is a whole-batch refusal (the container refused
//!   the batch before dispatching any entry) and decodes to
//!   [`WireError::Fault`], which is a *semantic* outcome, not corruption:
//!   it must never trigger the XML fallback.
//! * kind 4 (notification event): `str` topic, `u64` per-topic sequence
//!   number, `str` payload — one event of the push notification plane,
//!   carried as one HTTP chunk on a long-lived subscription stream.
//! * kind 5 (cached segment): `str` series key, `f64` window start, `f64`
//!   window end, `u8` filterable flag, `u64` insertion wall clock (unix
//!   ms), then one *row block* (below) — one time-interval segment of the
//!   gateway's semantic result cache, spilled to disk so a restarted
//!   gateway rehydrates warm. The on-disk spill format IS this frame: one
//!   frame per file, decoded with the same typed-corruption discipline
//!   (a damaged file is treated as cold, never a panic).
//! * kind 6 (stream segment): one row block — one bounded-size batch of
//!   PerformanceResult rows on an incremental result stream. Stream frames
//!   ride length-prefixed (`u32 len` + frame bytes) on a chunked HTTP
//!   response body, so [`FrameReader`] can resynchronize regardless of
//!   where transport chunk boundaries fall.
//! * kind 7 (stream trailer): `u64` total row count + `u64` stream
//!   checksum over every row in stream order (see *Stream checksum*
//!   below), then an optional trace string
//!   (`ppg_context::encode_trace` text; absent on pre-trace trailers).
//!   Streamed responses flush their HTTP headers before the handler runs,
//!   so the server's spans ride here instead of `X-PPG-Trace`. The trailer
//!   is the commit point: a stream that ends without one is *partial* —
//!   the consumer keeps the rows but counts the flight truncated. A kind-3
//!   fault frame may appear mid-stream instead; it is semantic, not
//!   corruption.
//! * kind 8 (batch-stream head): `u32` entry count — the first frame of a
//!   batched result stream, declaring how many per-entry sections follow.
//! * kind 9 (entry head): `u32` entry index — opens one entry's section of
//!   a batch stream. After it, kind-6 row frames, a kind-7 trailer, or a
//!   kind-3 fault carrying flag bit 1 (*entry-tagged*: a `u32` entry index
//!   rides right after the frame header) seal that entry independently.
//!   Sections interleave freely — producers of different entries yield
//!   frames as their scans run — and the stream is complete only when
//!   every declared entry has sealed (trailer or entry fault). Bytes
//!   ending earlier truncate exactly the unsealed entries; sealed
//!   siblings stand. A kind-3 frame *without* the entry flag remains a
//!   whole-batch fault.
//!
//! ## Row blocks
//!
//! Both the cached-segment and stream-segment frames carry rows as a row
//! block: `u8` mode, `u32` row count, then per-row payload. Mode 0 is raw
//! (`str` per row). Mode 1 is columnar delta coding, chosen by the encoder
//! only when *every* row in the block carries a `t=A:B` field whose bounds
//! are canonically-rendered integers: each row splits into prefix (bytes
//! through `t=`), the two timestamps, and suffix (bytes from the field
//! end); prefixes and suffixes are front-coded (varint shared-with-previous
//! length + varint remainder length + remainder bytes) and the timestamps
//! ride as zigzag varints — delta from the previous row's start, then the
//! span `B - A`. Monotone timestamp columns therefore cost ~1 byte per
//! bound instead of re-rendered decimal text, and the decode rebuilds the
//! exact original text (canonicality makes re-rendering lossless).
//!
//! Front coding lets a mode-1 block of *B* bytes describe ~*B*²/24 bytes of
//! rows (one long first row, then 6-byte rows sharing all of it), so a
//! mode-1 block may decode to at most 64 times its own encoded length
//! (`COLUMNAR_EXPANSION`), and never past 256 MiB
//! (`MAX_COLUMNAR_DECODED_BYTES`); the decoder returns
//! [`WireError::Malformed`] *before* allocating the row that would cross the
//! cap, and the encoder falls back to mode 0 (which cannot expand) for a
//! block that would cross it, so every block this encoder emits decodes.
//!
//! ## Stream checksum
//!
//! The kind-7 trailer (and each entry trailer of a batch stream) seals a
//! 64-bit running sum over the rows of its stream or entry section. The
//! state starts at `CHECKSUM_SEED` (`0x9e37_79b9_7f4a_7c15`); one *word*
//! `w` is folded in as `h = (h ^ w) * CHECKSUM_MUL (mod 2^64); h ^= h >> 32`
//! (`CHECKSUM_MUL` is `0xff51_afd7_ed55_8ccd`). Each row folds,
//! in order: its byte length as one word, then its bytes as little-endian
//! 64-bit words, the last one zero-padded. The length word goes first, so
//! the word sequence determines the row list (`["ab","c"]` and
//! `["a","bc"]` differ in their first word) and the fold is
//! order-sensitive. Every step is a bijection of the state and injective
//! in the word, so two streams that differ in exactly one word — any
//! single flipped bit — always differ in their sum. It is an error check,
//! not a MAC. Version 1 frames defined this field as byte-serial FNV-1a;
//! the layouts are identical, so the version byte is what refuses a stale
//! peer or an old spill file ([`WireError::UnsupportedVersion`]).
//!
//! Every other decode failure is a typed, non-panicking [`WireError`] whose
//! [`WireError::is_corrupt`] is true — before any row arrived, the caller's
//! cue to forget the peer's framed capability and re-send as per-call XML.

use crate::fault::{Fault, FaultCode};
use crate::value::Value;
use ppg_context::CallContext;
use std::fmt;

/// Magic bytes opening every frame.
pub const PPGB_MAGIC: [u8; 4] = *b"PPGB";
/// Current frame format version.
pub const PPGB_VERSION: u8 = 2;
/// Content type of a PPGB request body (and of the notify plane's
/// negotiated event stream).
pub const BINARY_CONTENT_TYPE: &str = "application/x-ppg-binary";
/// Content type of an incremental PPGB result stream (chunked body of
/// length-prefixed kind-6/kind-7 frames). Advertised in `Accept` by
/// streaming-capable consumers; answered by streaming containers.
pub const STREAM_CONTENT_TYPE: &str = "application/x-ppg-stream";
/// Whether `PPG_FORCE_XML=1` pins every exchange to per-call SOAP/XML: the
/// operational escape hatch that keeps framed routes and PPGB event frames
/// out of play. Read afresh on every call.
pub fn force_xml() -> bool {
    std::env::var("PPG_FORCE_XML").is_ok_and(|v| v == "1")
}

/// Default bound on the encoded row bytes of one stream frame.
pub const DEFAULT_STREAM_FRAME_BYTES: usize = 16 * 1024;
/// Hard sanity cap on a single length-prefixed stream frame: a length
/// prefix beyond this is corruption, not a real frame.
const MAX_STREAM_FRAME_BYTES: usize = 64 * 1024 * 1024;
/// A columnar (mode-1) row block may decode to at most this many times its
/// own encoded length. Real blocks sit near 4x (50-byte rows in ~14 bytes);
/// the bound only has to stop the quadratic front-coding blow-up.
const COLUMNAR_EXPANSION: usize = 64;
/// Absolute ceiling on the decoded bytes of one columnar row block,
/// whatever its encoded length.
const MAX_COLUMNAR_DECODED_BYTES: usize = 4 * MAX_STREAM_FRAME_BYTES;

const KIND_CALL: u8 = 1;
// Kind 2 is reserved (a retired buffered batch response); decoders reject it.
const KIND_FAULT: u8 = 3;
const KIND_EVENT: u8 = 4;
const KIND_SEGMENT: u8 = 5;
const KIND_STREAM: u8 = 6;
const KIND_TRAILER: u8 = 7;
const KIND_BATCH_HEAD: u8 = 8;
const KIND_ENTRY_HEAD: u8 = 9;
const FLAG_CONTEXT: u8 = 1;
/// Flag bit on kind-3/6/7 stream frames: the frame belongs to one entry of
/// a batch stream and carries a `u32` entry index right after the header.
const FLAG_ENTRY: u8 = 2;

/// Typed decode failure. Corrupt variants trigger XML fallback; a
/// [`WireError::Fault`] is a well-formed refusal and does not.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The buffer ended before the structure it promised.
    Truncated,
    /// The first four bytes are not `PPGB`.
    BadMagic,
    /// A version this decoder does not speak.
    UnsupportedVersion(u8),
    /// Structurally invalid content (bad tag, non-UTF-8 run, length lies).
    Malformed(String),
    /// A well-formed whole-batch fault frame (kind 3).
    Fault(Fault),
}

impl WireError {
    /// True when the frame itself is unusable and the sender should fall
    /// back to XML; false for [`WireError::Fault`], which is an answer.
    pub fn is_corrupt(&self) -> bool {
        !matches!(self, WireError::Fault(_))
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "PPGB frame truncated"),
            WireError::BadMagic => write!(f, "not a PPGB frame"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported PPGB version {v}"),
            WireError::Malformed(m) => write!(f, "malformed PPGB frame: {m}"),
            WireError::Fault(fault) => write!(f, "whole-batch fault: {fault}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One sub-call of a kind-1 batch call frame.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchEntry {
    /// Target service path on the receiving container
    /// (e.g. `/ogsa/services/psu-app/instances/3`).
    pub path: String,
    /// Operation name.
    pub method: String,
    /// Call namespace, if one applies.
    pub namespace: Option<String>,
    /// `(name, value)` parameters in call order.
    pub params: Vec<(String, Value)>,
}

impl BatchEntry {
    /// Build an entry from borrowed parameter pairs.
    pub fn new(
        path: impl Into<String>,
        method: impl Into<String>,
        namespace: impl Into<String>,
        params: &[(&str, Value)],
    ) -> BatchEntry {
        BatchEntry {
            path: path.into(),
            method: method.into(),
            namespace: Some(namespace.into()),
            params: params
                .iter()
                .map(|(n, v)| ((*n).to_owned(), v.clone()))
                .collect(),
        }
    }

    /// Look up a parameter by name.
    pub fn param(&self, name: &str) -> Option<&Value> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

// ---------------------------------------------------------------- encoding

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Nil => out.push(0),
        Value::Str(s) => {
            out.push(1);
            put_str(out, s);
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Double(d) => {
            out.push(3);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Value::Bool(b) => {
            out.push(4);
            out.push(u8::from(*b));
        }
        Value::StrArray(items) => {
            out.push(5);
            put_u32(out, items.len() as u32);
            for item in items {
                put_str(out, item);
            }
        }
    }
}

fn put_fault(out: &mut Vec<u8>, fault: &Fault) {
    out.push(match fault.code {
        FaultCode::VersionMismatch => 0,
        FaultCode::MustUnderstand => 1,
        FaultCode::Client => 2,
        FaultCode::Server => 3,
    });
    put_str(out, &fault.string);
    match &fault.detail {
        Some(d) => {
            out.push(1);
            put_str(out, d);
        }
        None => out.push(0),
    }
}

fn put_header(out: &mut Vec<u8>, kind: u8, flags: u8) {
    out.extend_from_slice(&PPGB_MAGIC);
    out.push(PPGB_VERSION);
    out.push(kind);
    out.push(flags);
    out.push(0);
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Initial state of the stream checksum: the sum of a stream of no rows.
const CHECKSUM_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
/// Odd multiplier of the checksum's word step.
const CHECKSUM_MUL: u64 = 0xff51_afd7_ed55_8ccd;

/// Fold one 64-bit word into the stream checksum. A bijection of `hash`
/// for a fixed word and injective in `word` for a fixed hash (odd multiply
/// and xor-shift are both invertible), so changing one word of a stream
/// always changes its sum.
#[inline]
fn checksum_word(hash: u64, word: u64) -> u64 {
    let h = (hash ^ word).wrapping_mul(CHECKSUM_MUL);
    h ^ (h >> 32)
}

/// Fold one row into the running stream checksum: its length, then its
/// bytes eight at a time (module docs, *Stream checksum*). The length word
/// keeps `["ab","c"]` and `["a","bc"]` apart.
fn checksum_row(hash: u64, row: &[u8]) -> u64 {
    let mut hash = checksum_word(hash, row.len() as u64);
    let mut words = row.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8) yields 8 bytes"));
        hash = checksum_word(hash, word);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        // Zero-padded little-endian word, assembled bytewise: a
        // variable-length `copy_from_slice` here is a `memcpy` call that
        // costs more than the whole fold of a short row.
        let last = tail
            .iter()
            .rev()
            .fold(0u64, |word, &b| (word << 8) | u64::from(b));
        hash = checksum_word(hash, last);
    }
    hash
}

/// Parse `text` as an `i64` when — and only when — it is exactly what
/// `i64::to_string` renders: optional `-`, no `+`, no leading zero, no
/// `-0`, in range. Allocation-free.
fn canonical_i64(text: &[u8]) -> Option<i64> {
    let (negative, digits) = match text.split_first() {
        Some((b'-', rest)) => (true, rest),
        _ => (false, text),
    };
    // 19 digits cannot overflow a u64; i64's own range is checked below.
    if digits.is_empty() || digits.len() > 19 || (digits[0] == b'0' && text.len() > 1) {
        return None;
    }
    let mut magnitude: u64 = 0;
    for &d in digits {
        if !d.is_ascii_digit() {
            return None;
        }
        magnitude = magnitude * 10 + u64::from(d - b'0');
    }
    if negative {
        (magnitude <= i64::MIN.unsigned_abs()).then(|| (magnitude as i64).wrapping_neg())
    } else {
        i64::try_from(magnitude).ok()
    }
}

/// Where a row's `t=A:B` field sits: `prefix_end` is the index just past
/// `t=`, `suffix_start` the index of the field's end (`|` or end-of-row).
#[derive(Clone, Copy)]
struct TsSplit {
    prefix_end: usize,
    start: i64,
    end: i64,
    suffix_start: usize,
}

/// Locate the first `t=` field of a row; `Some` when — and only when —
/// it reads `t=A:B` with both bounds canonically-rendered integers
/// ([`canonical_i64`]), so the columnar decode can rebuild the exact
/// original text. Point-form `t=A` and fractional bounds disqualify.
/// Works on bytes: the delimiters are ASCII, which never occurs inside a
/// multi-byte UTF-8 sequence.
fn split_monotone_ts(row: &[u8]) -> Option<TsSplit> {
    let mut field_start = 0usize;
    loop {
        let rest = &row[field_start..];
        let field_len = rest.iter().position(|&b| b == b'|').unwrap_or(rest.len());
        if let Some(spec) = rest[..field_len].strip_prefix(b"t=") {
            let colon = spec.iter().position(|&b| b == b':')?;
            return Some(TsSplit {
                prefix_end: field_start + 2,
                start: canonical_i64(&spec[..colon])?,
                end: canonical_i64(&spec[colon + 1..])?,
                suffix_start: field_start + field_len,
            });
        }
        if field_len == rest.len() {
            return None;
        }
        field_start += field_len + 1;
    }
}

fn put_front_coded(out: &mut Vec<u8>, prev: &[u8], cur: &[u8]) {
    let shared = prev.iter().zip(cur).take_while(|(a, b)| a == b).count();
    put_varint(out, shared as u64);
    put_varint(out, (cur.len() - shared) as u64);
    out.extend_from_slice(&cur[shared..]);
}

/// The most bytes a columnar block of `block_len` encoded bytes may decode
/// to (module docs, *Row blocks*). Encoder and decoder agree on
/// `block_len`: a row block is always the last section of its frame.
fn columnar_decoded_cap(block_len: usize) -> usize {
    block_len
        .saturating_mul(COLUMNAR_EXPANSION)
        .min(MAX_COLUMNAR_DECODED_BYTES)
}

fn put_raw_row_block(out: &mut Vec<u8>, rows: &[String]) {
    out.push(0);
    put_u32(out, rows.len() as u32);
    for row in rows {
        put_str(out, row);
    }
}

/// Encode a row block — the shared row payload of cached-segment (kind 5)
/// and stream-segment (kind 6) frames — as the last section of the frame
/// in `out`. Mode 1 (columnar delta coding) is chosen only when every row
/// qualifies via [`split_monotone_ts`] and the block stays under
/// [`columnar_decoded_cap`]; anything else falls to mode 0 raw strings.
/// `splits` is scratch, cleared here, so a caller encoding many blocks
/// allocates it once.
fn put_row_block(out: &mut Vec<u8>, rows: &[String], splits: &mut Vec<TsSplit>) {
    splits.clear();
    for row in rows {
        match split_monotone_ts(row.as_bytes()) {
            Some(split) => splits.push(split),
            None => break,
        }
    }
    if rows.is_empty() || splits.len() != rows.len() {
        put_raw_row_block(out, rows);
        return;
    }
    let block_start = out.len();
    out.push(1);
    put_u32(out, rows.len() as u32);
    let mut prev_prefix: &[u8] = b"";
    let mut prev_suffix: &[u8] = b"";
    let mut prev_start: i64 = 0;
    let mut decoded_bytes = 0usize;
    for (row, split) in rows.iter().zip(splits.iter()) {
        let bytes = row.as_bytes();
        let prefix = &bytes[..split.prefix_end];
        let suffix = &bytes[split.suffix_start..];
        put_front_coded(out, prev_prefix, prefix);
        put_varint(out, zigzag(split.start.wrapping_sub(prev_start)));
        put_varint(out, zigzag(split.end.wrapping_sub(split.start)));
        put_front_coded(out, prev_suffix, suffix);
        prev_prefix = prefix;
        prev_suffix = suffix;
        prev_start = split.start;
        decoded_bytes += bytes.len();
    }
    if decoded_bytes > columnar_decoded_cap(out.len() - block_start) {
        out.truncate(block_start);
        put_raw_row_block(out, rows);
    }
}

/// Encode a batch call frame into `out` (cleared first), so callers can
/// reuse one wire buffer per connection.
pub fn encode_binary_batch_call_into(
    out: &mut Vec<u8>,
    entries: &[BatchEntry],
    ctx: Option<&CallContext>,
) {
    out.clear();
    let flags = if ctx.is_some() { FLAG_CONTEXT } else { 0 };
    put_header(out, KIND_CALL, flags);
    if let Some(ctx) = ctx {
        put_str(out, ctx.request_id());
        match ctx.deadline_ms() {
            Some(ms) => {
                out.push(1);
                out.extend_from_slice(&ms.to_le_bytes());
            }
            None => {
                out.push(0);
                out.extend_from_slice(&0u64.to_le_bytes());
            }
        }
        put_str(out, ctx.leg_tag());
    }
    put_u32(out, entries.len() as u32);
    // Bulk batches fan one tuple set across many instances: the args of
    // consecutive entries are usually byte-identical. Encode each entry's
    // args once into a scratch buffer and emit a 1-byte repeat marker
    // instead of the bytes whenever they match the previous entry's.
    let mut prev_args: Vec<u8> = Vec::new();
    let mut args: Vec<u8> = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        put_str(out, &entry.path);
        args.clear();
        put_str(&mut args, &entry.method);
        match &entry.namespace {
            Some(ns) => {
                args.push(1);
                put_str(&mut args, ns);
            }
            None => args.push(0),
        }
        put_u32(&mut args, entry.params.len() as u32);
        for (name, value) in &entry.params {
            put_str(&mut args, name);
            put_value(&mut args, value);
        }
        if i > 0 && args == prev_args {
            out.push(1);
        } else {
            out.push(0);
            out.extend_from_slice(&args);
            std::mem::swap(&mut prev_args, &mut args);
        }
    }
}

/// Encode a batch call frame.
pub fn encode_binary_batch_call(entries: &[BatchEntry], ctx: Option<&CallContext>) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + entries.len() * 64);
    encode_binary_batch_call_into(&mut out, entries, ctx);
    out
}

/// A notification event as carried on the push plane: one topic, a
/// per-topic sequence number assigned by the source, and an opaque payload.
/// Subscribers detect queue-overflow drops by gaps in `seq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireEvent {
    /// Topic name (e.g. `registry.members`).
    pub topic: String,
    /// Source-assigned, per-topic, strictly increasing sequence number.
    pub seq: u64,
    /// Opaque payload (topic-specific text).
    pub payload: String,
}

/// Encode a notification event frame (kind 4): `str` topic, `u64` seq,
/// `str` payload. One frame rides as one HTTP chunk on the push stream.
pub fn encode_binary_event(event: &WireEvent) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + event.topic.len() + event.payload.len());
    put_header(&mut out, KIND_EVENT, 0);
    put_str(&mut out, &event.topic);
    out.extend_from_slice(&event.seq.to_le_bytes());
    put_str(&mut out, &event.payload);
    out
}

/// Decode a notification event frame. Corruption is a typed [`WireError`]
/// whose [`WireError::is_corrupt`] drives the XML fallback, exactly like
/// the batch frames.
pub fn decode_binary_event(buf: &[u8]) -> Result<WireEvent, WireError> {
    let (mut r, _flags) = open_frame(buf, KIND_EVENT)?;
    let topic = r.str()?;
    let seq = r.u64()?;
    let payload = r.str()?;
    r.done()?;
    Ok(WireEvent {
        topic,
        seq,
        payload,
    })
}

/// One time-interval segment of the gateway result cache, as persisted in
/// a spill file (kind 5). The series key names the `(site instance,
/// metric, foci, type)` tuple the segment belongs to; the window bounds
/// may be infinite for unbounded queries; `inserted_unix_ms` lets a
/// restarted process apply the cache TTL across the restart.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSegment {
    /// Series key: `<instance url>::<window-blanked query tuple>`.
    pub series: String,
    /// Window start (may be `-inf` for an unbounded query).
    pub start: f64,
    /// Window end (may be `+inf`).
    pub end: f64,
    /// True when every row carries a `t=` span, so the segment can answer
    /// narrower windows by per-row filtering.
    pub filterable: bool,
    /// Wall-clock insertion time, milliseconds since the unix epoch.
    pub inserted_unix_ms: u64,
    /// The cached PerformanceResult rows, verbatim.
    pub rows: Vec<String>,
}

/// Encode a cached-segment frame (kind 5) — the on-disk spill format of
/// the gateway's semantic result cache.
pub fn encode_binary_segment(segment: &WireSegment) -> Vec<u8> {
    let rows_len: usize = segment.rows.iter().map(|r| r.len() + 4).sum();
    let mut out = Vec::with_capacity(64 + segment.series.len() + rows_len);
    put_header(&mut out, KIND_SEGMENT, 0);
    put_str(&mut out, &segment.series);
    out.extend_from_slice(&segment.start.to_le_bytes());
    out.extend_from_slice(&segment.end.to_le_bytes());
    out.push(u8::from(segment.filterable));
    out.extend_from_slice(&segment.inserted_unix_ms.to_le_bytes());
    put_row_block(&mut out, &segment.rows, &mut Vec::new());
    out
}

/// Decode a cached-segment frame. Corruption is a typed [`WireError`]; a
/// spill loader treats any error as "this segment is cold" and deletes
/// the file — never a panic.
pub fn decode_binary_segment(buf: &[u8]) -> Result<WireSegment, WireError> {
    let (mut r, _flags) = open_frame(buf, KIND_SEGMENT)?;
    let series = r.str()?;
    let start = r.f64()?;
    let end = r.f64()?;
    let filterable = match r.u8()? {
        0 => false,
        1 => true,
        b => return Err(WireError::Malformed(format!("bad filterable flag {b}"))),
    };
    let inserted_unix_ms = r.u64()?;
    if start.is_nan() || end.is_nan() || start > end {
        return Err(WireError::Malformed(format!(
            "segment window [{start}, {end}] is not a valid interval"
        )));
    }
    let rows = read_row_block(&mut r)?;
    r.done()?;
    Ok(WireSegment {
        series,
        start,
        end,
        filterable,
        inserted_unix_ms,
        rows,
    })
}

// ---------------------------------------------------------------- decoding

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("string run is not UTF-8".into()))
    }

    /// A count prefix, sanity-bounded by the bytes actually remaining so a
    /// corrupt frame cannot coax a huge allocation (`min_item` is the
    /// smallest possible encoding of one item).
    fn count(&mut self, min_item: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_item) > self.buf.len() - self.pos {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    fn varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            let low = u64::from(b & 0x7f);
            if shift == 63 && low > 1 {
                return Err(WireError::Malformed("varint overflows u64".into()));
            }
            v |= low << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::Malformed("varint too long".into()));
            }
        }
    }

    /// One front-coded item: how many leading bytes it shares with its
    /// predecessor (bounded by `prev_len`, the predecessor's length) and
    /// its own remainder bytes.
    fn front_coded(&mut self, prev_len: usize) -> Result<(usize, &'a [u8]), WireError> {
        let shared = self.varint()?;
        if shared > prev_len as u64 {
            return Err(WireError::Malformed(
                "front-coded shared length exceeds previous item".into(),
            ));
        }
        let rest_len = usize::try_from(self.varint()?).map_err(|_| WireError::Truncated)?;
        Ok((shared as usize, self.take(rest_len)?))
    }

    fn value(&mut self) -> Result<Value, WireError> {
        match self.u8()? {
            0 => Ok(Value::Nil),
            1 => Ok(Value::Str(self.str()?)),
            2 => Ok(Value::Int(self.i64()?)),
            3 => Ok(Value::Double(self.f64()?)),
            4 => match self.u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                b => Err(WireError::Malformed(format!("bad bool byte {b}"))),
            },
            5 => {
                let n = self.count(4)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.str()?);
                }
                Ok(Value::StrArray(items))
            }
            t => Err(WireError::Malformed(format!("unknown value tag {t}"))),
        }
    }

    fn fault(&mut self) -> Result<Fault, WireError> {
        let code = match self.u8()? {
            0 => FaultCode::VersionMismatch,
            1 => FaultCode::MustUnderstand,
            2 => FaultCode::Client,
            3 => FaultCode::Server,
            c => return Err(WireError::Malformed(format!("unknown fault code {c}"))),
        };
        let string = self.str()?;
        let detail = match self.u8()? {
            0 => None,
            1 => Some(self.str()?),
            b => return Err(WireError::Malformed(format!("bad detail flag {b}"))),
        };
        Ok(Fault {
            code,
            string,
            detail,
        })
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after frame",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Render `v` as decimal text into `buf`, returning the used tail — what
/// `i64::to_string` produces, without the allocation.
fn fmt_i64(buf: &mut [u8; 20], v: i64) -> &[u8] {
    let mut at = buf.len();
    let mut magnitude = v.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (magnitude % 10) as u8;
        magnitude /= 10;
        if magnitude == 0 {
            break;
        }
    }
    if v < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    &buf[at..]
}

/// Decode a row block (see [`put_row_block`]), the last section of the
/// frame `r` reads.
fn read_row_block(r: &mut Reader) -> Result<Vec<String>, WireError> {
    let block_len = r.buf.len() - r.pos;
    match r.u8()? {
        0 => {
            let n = r.count(4)?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push(r.str()?);
            }
            Ok(rows)
        }
        1 => {
            // Minimum columnar row: two 1-byte front codes (2 bytes each)
            // plus two 1-byte varint deltas.
            let n = r.count(6)?;
            let cap = columnar_decoded_cap(block_len);
            let mut decoded_bytes = 0usize;
            let mut rows: Vec<String> = Vec::with_capacity(n);
            // The previous row's prefix is `prev[..prev_prefix_len]`, its
            // suffix `prev[prev_suffix_start..]`: the shared bytes are
            // copied out of the previous decoded row itself.
            let mut prev_prefix_len = 0usize;
            let mut prev_suffix_start = 0usize;
            let mut prev_start: i64 = 0;
            for _ in 0..n {
                let prev = rows.last().map_or(&b""[..], |row| row.as_bytes());
                let (prefix_shared, prefix_rest) = r.front_coded(prev_prefix_len)?;
                let start = prev_start.wrapping_add(unzigzag(r.varint()?));
                let end = start.wrapping_add(unzigzag(r.varint()?));
                let (suffix_shared, suffix_rest) = r.front_coded(prev.len() - prev_suffix_start)?;
                let (mut start_buf, mut end_buf) = ([0u8; 20], [0u8; 20]);
                let start_text = fmt_i64(&mut start_buf, start);
                let end_text = fmt_i64(&mut end_buf, end);
                let prefix_len = prefix_shared + prefix_rest.len();
                let suffix_start = prefix_len + start_text.len() + 1 + end_text.len();
                let row_len = suffix_start + suffix_shared + suffix_rest.len();
                decoded_bytes += row_len;
                if decoded_bytes > cap {
                    return Err(WireError::Malformed(format!(
                        "columnar block of {block_len} bytes decodes past its {cap}-byte cap"
                    )));
                }
                let mut bytes = Vec::with_capacity(row_len);
                bytes.extend_from_slice(&prev[..prefix_shared]);
                bytes.extend_from_slice(prefix_rest);
                bytes.extend_from_slice(start_text);
                bytes.push(b':');
                bytes.extend_from_slice(end_text);
                bytes
                    .extend_from_slice(&prev[prev_suffix_start..prev_suffix_start + suffix_shared]);
                bytes.extend_from_slice(suffix_rest);
                let row = String::from_utf8(bytes)
                    .map_err(|_| WireError::Malformed("columnar row is not UTF-8".into()))?;
                rows.push(row);
                prev_prefix_len = prefix_len;
                prev_suffix_start = suffix_start;
                prev_start = start;
            }
            Ok(rows)
        }
        m => Err(WireError::Malformed(format!("unknown row-block mode {m}"))),
    }
}

fn open_frame<'a>(buf: &'a [u8], want_kind: u8) -> Result<(Reader<'a>, u8), WireError> {
    let mut r = Reader { buf, pos: 0 };
    if r.take(4)? != PPGB_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u8()?;
    if version != PPGB_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = r.u8()?;
    let flags = r.u8()?;
    let _reserved = r.u8()?;
    if kind == KIND_FAULT {
        // A whole-batch fault answers any expectation.
        let fault = r.fault()?;
        r.done()?;
        return Err(WireError::Fault(fault));
    }
    if kind != want_kind {
        return Err(WireError::Malformed(format!(
            "expected frame kind {want_kind}, got {kind}"
        )));
    }
    Ok((r, flags))
}

/// Decode a batch call frame into its entries and (optional) shared context.
pub fn decode_binary_batch_call(
    buf: &[u8],
) -> Result<(Vec<BatchEntry>, Option<CallContext>), WireError> {
    let (mut r, flags) = open_frame(buf, KIND_CALL)?;
    let ctx = if flags & FLAG_CONTEXT != 0 {
        let request_id = r.str()?;
        let has_deadline = r.u8()?;
        let deadline_ms = r.u64()?;
        let leg = r.str()?;
        let ms_text = deadline_ms.to_string();
        Some(CallContext::from_wire(
            Some(&request_id),
            (has_deadline != 0).then_some(ms_text.as_str()),
            Some(&leg),
        ))
    } else {
        None
    };
    let n = r.count(13)?;
    let mut entries: Vec<BatchEntry> = Vec::with_capacity(n);
    for _ in 0..n {
        let path = r.str()?;
        let repeat = r.u8()?;
        let (method, namespace, pairs) = match repeat {
            1 => {
                let Some(prev) = entries.last() else {
                    return Err(WireError::Malformed(
                        "repeat-args flag on the first entry".to_owned(),
                    ));
                };
                (
                    prev.method.clone(),
                    prev.namespace.clone(),
                    prev.params.clone(),
                )
            }
            0 => {
                let method = r.str()?;
                let namespace = match r.u8()? {
                    0 => None,
                    1 => Some(r.str()?),
                    b => return Err(WireError::Malformed(format!("bad namespace flag {b}"))),
                };
                let params = r.count(5)?;
                let mut pairs = Vec::with_capacity(params);
                for _ in 0..params {
                    let name = r.str()?;
                    pairs.push((name, r.value()?));
                }
                (method, namespace, pairs)
            }
            b => return Err(WireError::Malformed(format!("bad repeat-args flag {b}"))),
        };
        entries.push(BatchEntry {
            path,
            method,
            namespace,
            params: pairs,
        });
    }
    r.done()?;
    Ok((entries, ctx))
}

// --------------------------------------------------------------- streaming

/// Overwrite the 4-byte length prefix reserved at the front of `out`.
fn seal_length_prefix(mut out: Vec<u8>) -> Vec<u8> {
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
    out
}

/// Incremental encoder for a PPGB result stream: rows go in one at a
/// time, bounded-size length-prefixed kind-6 frames come out, and
/// [`FrameWriter::finish`] seals the stream with a kind-7 trailer
/// carrying the total row count and checksum. The buffered
/// [`encode_binary_segment`] path shares the same row-block core, so the
/// columnar delta coding is identical on both paths.
pub struct FrameWriter {
    max_frame_bytes: usize,
    rows: Vec<String>,
    pending_bytes: usize,
    total_rows: u64,
    checksum: u64,
    /// Batch-stream entry index; `Some` tags every emitted frame with
    /// [`FLAG_ENTRY`] + the index so sections of different entries can
    /// interleave on one wire.
    entry: Option<u32>,
    /// Returned frame buffers whose capacity the next flush reuses (the
    /// producer-side half of the connection's buffer recycling loop).
    spare: Vec<Vec<u8>>,
    /// [`put_row_block`]'s per-block scratch, kept across flushes.
    splits: Vec<TsSplit>,
}

/// How many spent frame buffers a [`FrameWriter`] keeps for reuse.
const FRAME_SPARE_CAP: usize = 4;

impl FrameWriter {
    /// A writer emitting data frames of roughly `max_frame_bytes` of row
    /// payload each (the bound is on raw row bytes; columnar coding only
    /// shrinks the encoded frame below it).
    pub fn new(max_frame_bytes: usize) -> FrameWriter {
        FrameWriter {
            max_frame_bytes: max_frame_bytes.max(1),
            rows: Vec::new(),
            pending_bytes: 0,
            total_rows: 0,
            checksum: CHECKSUM_SEED,
            entry: None,
            spare: Vec::new(),
            splits: Vec::new(),
        }
    }

    /// A writer for one entry of a batch stream: every frame it emits is
    /// entry-tagged with `entry`, so several writers can interleave their
    /// sections on one stream and the reader still verifies each entry's
    /// row count and checksum independently.
    pub fn for_entry(max_frame_bytes: usize, entry: u32) -> FrameWriter {
        let mut fw = FrameWriter::new(max_frame_bytes);
        fw.entry = Some(entry);
        fw
    }

    /// Hand back a spent frame buffer (its bytes already on the socket) so
    /// the next flush reuses its capacity instead of allocating.
    pub fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.spare.len() < FRAME_SPARE_CAP && buf.capacity() > 0 {
            buf.clear();
            self.spare.push(buf);
        }
    }

    /// Add one row. Returns a sealed, length-prefixed frame when the
    /// pending batch reaches the frame-size bound, `None` otherwise.
    pub fn push(&mut self, row: String) -> Option<Vec<u8>> {
        self.checksum = checksum_row(self.checksum, row.as_bytes());
        self.total_rows += 1;
        self.pending_bytes += 4 + row.len();
        self.rows.push(row);
        if self.pending_bytes >= self.max_frame_bytes {
            self.flush()
        } else {
            None
        }
    }

    /// Encode every pending row as one frame; `None` when nothing is
    /// pending. Starts from a recycled buffer when one is available.
    pub fn flush(&mut self) -> Option<Vec<u8>> {
        if self.rows.is_empty() {
            return None;
        }
        let mut out = self.spare.pop().unwrap_or_default();
        out.reserve(4 + 8 + 4 + 5 + self.pending_bytes);
        out.extend_from_slice(&[0; 4]);
        match self.entry {
            Some(idx) => {
                put_header(&mut out, KIND_STREAM, FLAG_ENTRY);
                put_u32(&mut out, idx);
            }
            None => put_header(&mut out, KIND_STREAM, 0),
        }
        put_row_block(&mut out, &self.rows, &mut self.splits);
        self.rows.clear();
        self.pending_bytes = 0;
        Some(seal_length_prefix(out))
    }

    /// Rows pushed so far (committed and pending).
    pub fn rows_pushed(&self) -> u64 {
        self.total_rows
    }

    /// Seal the stream: any pending data frame, then the trailer. The
    /// returned frames must be sent in order; after this the writer is
    /// spent.
    pub fn finish(self) -> Vec<Vec<u8>> {
        self.finish_with_trace("")
    }

    /// [`FrameWriter::finish`], with the producer's trace embedded in the
    /// trailer. A streamed response's headers are long gone by the time the
    /// producer's spans exist, so the trailer is their only ride home.
    pub fn finish_with_trace(mut self, trace: &str) -> Vec<Vec<u8>> {
        let mut frames = Vec::with_capacity(2);
        if let Some(frame) = self.flush() {
            frames.push(frame);
        }
        let mut out = self.spare.pop().unwrap_or_default();
        out.reserve(4 + 8 + 4 + 16 + 4 + trace.len());
        out.extend_from_slice(&[0; 4]);
        match self.entry {
            Some(idx) => {
                put_header(&mut out, KIND_TRAILER, FLAG_ENTRY);
                put_u32(&mut out, idx);
            }
            None => put_header(&mut out, KIND_TRAILER, 0),
        }
        out.extend_from_slice(&self.total_rows.to_le_bytes());
        out.extend_from_slice(&self.checksum.to_le_bytes());
        put_str(&mut out, trace);
        frames.push(seal_length_prefix(out));
        frames
    }
}

/// Encode a fault as a length-prefixed stream frame — the in-band error
/// channel of a result stream. A consumer surfaces it as
/// [`WireError::Fault`]: semantic, never the corruption fallback.
pub fn encode_stream_fault(fault: &Fault) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 + 16 + fault.string.len());
    out.extend_from_slice(&[0; 4]);
    put_header(&mut out, KIND_FAULT, 0);
    put_fault(&mut out, fault);
    seal_length_prefix(out)
}

/// One decoded event on a PPGB result stream.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// One data frame's rows, in stream order.
    Rows(Vec<String>),
    /// The trailer arrived and the row count + checksum verified: the
    /// stream is complete.
    End {
        /// Total rows carried by the stream.
        rows: u64,
    },
}

enum StreamFrame {
    Rows(Vec<String>),
    Trailer {
        rows: u64,
        checksum: u64,
        trace: String,
    },
}

fn decode_stream_frame(buf: &[u8]) -> Result<StreamFrame, WireError> {
    let mut r = Reader { buf, pos: 0 };
    if r.take(4)? != PPGB_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u8()?;
    if version != PPGB_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = r.u8()?;
    let _flags = r.u8()?;
    let _reserved = r.u8()?;
    match kind {
        KIND_FAULT => {
            let fault = r.fault()?;
            r.done()?;
            Err(WireError::Fault(fault))
        }
        KIND_STREAM => {
            let rows = read_row_block(&mut r)?;
            r.done()?;
            Ok(StreamFrame::Rows(rows))
        }
        KIND_TRAILER => {
            let rows = r.u64()?;
            let checksum = r.u64()?;
            // Pre-trace trailers end at the checksum; tolerate both shapes.
            let trace = if r.pos < r.buf.len() {
                r.str()?
            } else {
                String::new()
            };
            r.done()?;
            Ok(StreamFrame::Trailer {
                rows,
                checksum,
                trace,
            })
        }
        k => Err(WireError::Malformed(format!(
            "unexpected stream frame kind {k}"
        ))),
    }
}

/// Incremental decoder for a PPGB result stream: feed transport bytes in
/// whatever pieces they arrive, pull [`StreamEvent`]s out. The reader
/// buffers at most one frame plus the bytes of the next length prefix —
/// constant memory regardless of result-set size. A stream whose bytes
/// end before [`StreamEvent::End`] was produced is *partial*: the rows
/// seen so far are valid, but the producer died mid-flight.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    pos: usize,
    rows_seen: u64,
    checksum: u64,
    finished: bool,
    trace: String,
}

impl FrameReader {
    /// A fresh reader expecting the start of a stream.
    pub fn new() -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            pos: 0,
            rows_seen: 0,
            checksum: CHECKSUM_SEED,
            finished: false,
            trace: String::new(),
        }
    }

    /// Append transport bytes. Chunk boundaries are immaterial — frames
    /// are delimited by their own length prefixes.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Decode the next complete frame, if one is buffered. `Ok(None)`
    /// means "need more bytes" (or, after [`StreamEvent::End`], "stream
    /// over"). Errors are terminal for the stream.
    pub fn next_event(&mut self) -> Result<Option<StreamEvent>, WireError> {
        if self.finished {
            if self.pos < self.buf.len() {
                return Err(WireError::Malformed(format!(
                    "{} bytes after stream trailer",
                    self.buf.len() - self.pos
                )));
            }
            return Ok(None);
        }
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap()) as usize;
        if len > MAX_STREAM_FRAME_BYTES {
            return Err(WireError::Malformed(format!(
                "stream frame length {len} exceeds sanity bound"
            )));
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let frame = &self.buf[self.pos + 4..self.pos + 4 + len];
        let decoded = decode_stream_frame(frame)?;
        self.pos += 4 + len;
        match decoded {
            StreamFrame::Rows(rows) => {
                for row in &rows {
                    self.checksum = checksum_row(self.checksum, row.as_bytes());
                }
                self.rows_seen += rows.len() as u64;
                Ok(Some(StreamEvent::Rows(rows)))
            }
            StreamFrame::Trailer {
                rows,
                checksum,
                trace,
            } => {
                if rows != self.rows_seen {
                    return Err(WireError::Malformed(format!(
                        "trailer claims {rows} rows, stream carried {}",
                        self.rows_seen
                    )));
                }
                if checksum != self.checksum {
                    return Err(WireError::Malformed("stream checksum mismatch".into()));
                }
                self.finished = true;
                self.trace = trace;
                Ok(Some(StreamEvent::End { rows }))
            }
        }
    }

    /// True once the trailer has been decoded and verified. A stream that
    /// ends (EOF / connection drop) while this is false was truncated.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Rows decoded so far.
    pub fn rows_seen(&self) -> u64 {
        self.rows_seen
    }

    /// The producer's trace text from the trailer (empty until
    /// [`FrameReader::finished`], or when the producer sent none).
    pub fn trailer_trace(&self) -> &str {
        &self.trace
    }

    /// Bytes currently buffered but not yet consumed — stays bounded by
    /// one frame plus a partial prefix.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }
}

// --------------------------------------------------------- batch streaming

/// Encode the kind-8 head frame opening a batch stream: how many entry
/// sections the stream will carry. Length-prefixed like every stream frame.
pub fn encode_batch_stream_head(entries: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 + 4);
    out.extend_from_slice(&[0; 4]);
    put_header(&mut out, KIND_BATCH_HEAD, 0);
    put_u32(&mut out, entries);
    seal_length_prefix(out)
}

/// Encode the kind-9 frame opening entry `entry`'s section.
pub fn encode_entry_head(entry: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 + 4);
    out.extend_from_slice(&[0; 4]);
    put_header(&mut out, KIND_ENTRY_HEAD, 0);
    put_u32(&mut out, entry);
    seal_length_prefix(out)
}

/// Encode an entry-tagged fault frame: seals entry `entry` with `fault`
/// without poisoning its siblings (contrast [`encode_stream_fault`], whose
/// untagged kind-3 frame fails the whole stream).
pub fn encode_entry_fault(entry: u32, fault: &Fault) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 + 4 + 16 + fault.string.len());
    out.extend_from_slice(&[0; 4]);
    put_header(&mut out, KIND_FAULT, FLAG_ENTRY);
    put_u32(&mut out, entry);
    put_fault(&mut out, fault);
    seal_length_prefix(out)
}

/// One decoded event on a batched PPGB result stream.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchStreamEvent {
    /// The kind-8 head arrived: the stream declares this many entries.
    Begin {
        /// Declared entry-section count.
        entries: u32,
    },
    /// Entry `entry`'s section opened (its kind-9 head arrived).
    EntryOpen {
        /// Batch index of the entry.
        entry: u32,
    },
    /// One data frame of rows belonging to entry `entry`.
    EntryRows {
        /// Batch index of the entry.
        entry: u32,
        /// The frame's rows, in that entry's stream order.
        rows: Vec<String>,
    },
    /// Entry `entry`'s trailer arrived and its row count + checksum
    /// verified: that entry is complete.
    EntryEnd {
        /// Batch index of the entry.
        entry: u32,
        /// Total rows the entry's section carried.
        rows: u64,
    },
    /// Entry `entry` sealed with an in-band fault; its siblings continue.
    EntryFault {
        /// Batch index of the entry.
        entry: u32,
        /// The fault that sealed the entry.
        fault: Fault,
    },
}

enum BatchFrame {
    Head {
        entries: u32,
    },
    EntryOpen {
        entry: u32,
    },
    EntryRows {
        entry: u32,
        rows: Vec<String>,
    },
    EntryTrailer {
        entry: u32,
        rows: u64,
        checksum: u64,
        trace: String,
    },
    EntryFault {
        entry: u32,
        fault: Fault,
    },
}

fn decode_batch_stream_frame(buf: &[u8]) -> Result<BatchFrame, WireError> {
    let mut r = Reader { buf, pos: 0 };
    if r.take(4)? != PPGB_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u8()?;
    if version != PPGB_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = r.u8()?;
    let flags = r.u8()?;
    let _reserved = r.u8()?;
    let tagged = flags & FLAG_ENTRY != 0;
    match kind {
        KIND_BATCH_HEAD => {
            let entries = r.u32()?;
            r.done()?;
            Ok(BatchFrame::Head { entries })
        }
        KIND_ENTRY_HEAD => {
            let entry = r.u32()?;
            r.done()?;
            Ok(BatchFrame::EntryOpen { entry })
        }
        KIND_FAULT if tagged => {
            let entry = r.u32()?;
            let fault = r.fault()?;
            r.done()?;
            Ok(BatchFrame::EntryFault { entry, fault })
        }
        KIND_FAULT => {
            // Untagged: the container refused the whole batch — semantic,
            // terminal, never the corruption fallback.
            let fault = r.fault()?;
            r.done()?;
            Err(WireError::Fault(fault))
        }
        KIND_STREAM if tagged => {
            let entry = r.u32()?;
            let rows = read_row_block(&mut r)?;
            r.done()?;
            Ok(BatchFrame::EntryRows { entry, rows })
        }
        KIND_TRAILER if tagged => {
            let entry = r.u32()?;
            let rows = r.u64()?;
            let checksum = r.u64()?;
            let trace = if r.pos < r.buf.len() {
                r.str()?
            } else {
                String::new()
            };
            r.done()?;
            Ok(BatchFrame::EntryTrailer {
                entry,
                rows,
                checksum,
                trace,
            })
        }
        k => Err(WireError::Malformed(format!(
            "unexpected batch-stream frame kind {k} (flags {flags})"
        ))),
    }
}

/// Per-entry verification state inside a [`BatchStreamReader`].
struct EntrySection {
    rows_seen: u64,
    checksum: u64,
    sealed: bool,
    trace: String,
}

impl EntrySection {
    fn new() -> EntrySection {
        EntrySection {
            rows_seen: 0,
            checksum: CHECKSUM_SEED,
            sealed: false,
            trace: String::new(),
        }
    }
}

/// Incremental decoder for a batched PPGB result stream: feed transport
/// bytes, pull [`BatchStreamEvent`]s out. Entry sections may interleave
/// arbitrarily; each entry's row count and checksum verify independently
/// against its own trailer, and the stream completes only when every
/// declared entry has sealed. Bytes ending earlier truncate exactly the
/// entries [`BatchStreamReader::unsealed_entries`] reports — sealed
/// siblings are unconditionally valid.
pub struct BatchStreamReader {
    buf: Vec<u8>,
    pos: usize,
    declared: Option<u32>,
    sections: std::collections::HashMap<u32, EntrySection>,
    sealed: u32,
    finished: bool,
}

impl Default for BatchStreamReader {
    fn default() -> BatchStreamReader {
        BatchStreamReader::new()
    }
}

impl BatchStreamReader {
    /// A fresh reader expecting a kind-8 head frame first.
    pub fn new() -> BatchStreamReader {
        BatchStreamReader {
            buf: Vec::new(),
            pos: 0,
            declared: None,
            sections: std::collections::HashMap::new(),
            sealed: 0,
            finished: false,
        }
    }

    /// Append transport bytes; chunk boundaries are immaterial.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    fn section(&mut self, entry: u32) -> Result<&mut EntrySection, WireError> {
        match self.declared {
            None => Err(WireError::Malformed(
                "entry frame before batch-stream head".into(),
            )),
            Some(n) if entry >= n => Err(WireError::Malformed(format!(
                "entry index {entry} out of range (declared {n})"
            ))),
            Some(_) => Ok(self.sections.entry(entry).or_insert_with(EntrySection::new)),
        }
    }

    /// Decode the next complete frame, if one is buffered. `Ok(None)`
    /// means "need more bytes" (or, once [`BatchStreamReader::finished`],
    /// "stream over"). Errors other than [`WireError::Fault`] are
    /// corruption and terminal for the whole stream.
    pub fn next_event(&mut self) -> Result<Option<BatchStreamEvent>, WireError> {
        if self.finished {
            if self.pos < self.buf.len() {
                return Err(WireError::Malformed(format!(
                    "{} bytes after batch stream completed",
                    self.buf.len() - self.pos
                )));
            }
            return Ok(None);
        }
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap()) as usize;
        if len > MAX_STREAM_FRAME_BYTES {
            return Err(WireError::Malformed(format!(
                "stream frame length {len} exceeds sanity bound"
            )));
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let frame = &self.buf[self.pos + 4..self.pos + 4 + len];
        let decoded = decode_batch_stream_frame(frame)?;
        self.pos += 4 + len;
        match decoded {
            BatchFrame::Head { entries } => {
                if self.declared.is_some() {
                    return Err(WireError::Malformed("duplicate batch-stream head".into()));
                }
                self.declared = Some(entries);
                if entries == 0 {
                    self.finished = true;
                }
                Ok(Some(BatchStreamEvent::Begin { entries }))
            }
            BatchFrame::EntryOpen { entry } => {
                self.section(entry)?;
                Ok(Some(BatchStreamEvent::EntryOpen { entry }))
            }
            BatchFrame::EntryRows { entry, rows } => {
                let section = self.section(entry)?;
                if section.sealed {
                    return Err(WireError::Malformed(format!(
                        "rows for entry {entry} after its trailer"
                    )));
                }
                for row in &rows {
                    section.checksum = checksum_row(section.checksum, row.as_bytes());
                }
                section.rows_seen += rows.len() as u64;
                Ok(Some(BatchStreamEvent::EntryRows { entry, rows }))
            }
            BatchFrame::EntryTrailer {
                entry,
                rows,
                checksum,
                trace,
            } => {
                let section = self.section(entry)?;
                if section.sealed {
                    return Err(WireError::Malformed(format!(
                        "duplicate trailer for entry {entry}"
                    )));
                }
                if rows != section.rows_seen {
                    return Err(WireError::Malformed(format!(
                        "entry {entry} trailer claims {rows} rows, section carried {}",
                        section.rows_seen
                    )));
                }
                if checksum != section.checksum {
                    return Err(WireError::Malformed(format!(
                        "entry {entry} checksum mismatch"
                    )));
                }
                section.sealed = true;
                section.trace = trace;
                self.sealed += 1;
                if Some(self.sealed) == self.declared {
                    self.finished = true;
                }
                Ok(Some(BatchStreamEvent::EntryEnd { entry, rows }))
            }
            BatchFrame::EntryFault { entry, fault } => {
                let section = self.section(entry)?;
                if section.sealed {
                    return Err(WireError::Malformed(format!(
                        "fault for entry {entry} after it sealed"
                    )));
                }
                section.sealed = true;
                self.sealed += 1;
                if Some(self.sealed) == self.declared {
                    self.finished = true;
                }
                Ok(Some(BatchStreamEvent::EntryFault { entry, fault }))
            }
        }
    }

    /// True once every declared entry has sealed. A stream whose bytes end
    /// while this is false truncated exactly the unsealed entries.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Declared entry count (`None` before the head frame).
    pub fn declared_entries(&self) -> Option<u32> {
        self.declared
    }

    /// Entries not yet sealed by a trailer or fault, ascending — on EOF
    /// these (plus any index never opened) are the truncated ones.
    pub fn unsealed_entries(&self) -> Vec<u32> {
        let Some(n) = self.declared else {
            return Vec::new();
        };
        (0..n)
            .filter(|idx| !self.sections.get(idx).is_some_and(|s| s.sealed))
            .collect()
    }

    /// Rows decoded so far for one entry.
    pub fn entry_rows_seen(&self, entry: u32) -> u64 {
        self.sections.get(&entry).map_or(0, |s| s.rows_seen)
    }

    /// The producer trace from one entry's trailer (empty until sealed, or
    /// when the producer sent none).
    pub fn entry_trace(&self, entry: u32) -> &str {
        self.sections.get(&entry).map_or("", |s| s.trace.as_str())
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod row_block_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn entries() -> Vec<BatchEntry> {
        vec![
            BatchEntry::new(
                "/ogsa/services/psu-app/instances/0",
                "getPR",
                "urn:pperfgrid:Execution",
                &[
                    ("metric", Value::from("gflops")),
                    ("foci", Value::StrArray(vec!["/Execution".into()])),
                    ("n", Value::Int(-7)),
                    ("x", Value::Double(1.25)),
                    ("flag", Value::Bool(true)),
                    ("nothing", Value::Nil),
                ],
            ),
            BatchEntry {
                path: "/ogsa/services/x".into(),
                method: "destroy".into(),
                namespace: None,
                params: vec![],
            },
        ]
    }

    #[test]
    fn call_roundtrip_with_context() {
        let ctx = CallContext::with_budget(Duration::from_millis(750)).leg("h1", 1);
        let frame = encode_binary_batch_call(&entries(), Some(&ctx));
        let (decoded, dctx) = decode_binary_batch_call(&frame).unwrap();
        assert_eq!(decoded, entries());
        let dctx = dctx.expect("context section present");
        assert_eq!(dctx.request_id(), ctx.request_id());
        assert_eq!(dctx.leg_tag(), "h1");
        assert!(dctx.remaining().unwrap() <= Duration::from_millis(750));
    }

    #[test]
    fn call_roundtrip_without_context() {
        let frame = encode_binary_batch_call(&[], None);
        let (decoded, ctx) = decode_binary_batch_call(&frame).unwrap();
        assert!(decoded.is_empty());
        assert!(ctx.is_none());
    }

    #[test]
    fn repeated_args_collapse_to_one_byte_per_entry() {
        // The bulk shape: one getPR tuple set fanned across N instances.
        let make = |i: usize| {
            BatchEntry::new(
                format!("/ogsa/services/bulk-exec/instances/{i}"),
                "getPR",
                "urn:pperfgrid:Execution",
                &[
                    ("metric", Value::from("gflops")),
                    ("foci", Value::StrArray(vec!["/Execution".into()])),
                ],
            )
        };
        let bulk: Vec<BatchEntry> = (0..16).map(make).collect();
        let frame = encode_binary_batch_call(&bulk, None);
        let (decoded, _) = decode_binary_batch_call(&frame).unwrap();
        assert_eq!(decoded, bulk);
        // Entries 2..16 carry only their path + the repeat byte, so the
        // whole frame stays under two full entries' worth plus paths.
        let one_entry = encode_binary_batch_call(&bulk[..1], None);
        let path_cost: usize = bulk
            .iter()
            .skip(1)
            .map(|e| 4 + e.path.len() + 1) // str prefix + path + repeat byte
            .sum();
        assert!(
            frame.len() <= one_entry.len() + path_cost + 4,
            "{} bytes for 16 entries ({} for one)",
            frame.len(),
            one_entry.len()
        );
        // Mixed batches still round-trip: a differing entry breaks (and
        // later restarts) the repeat run.
        let mut mixed = bulk.clone();
        mixed[7].method = "destroy".into();
        let frame = encode_binary_batch_call(&mixed, None);
        let (decoded, _) = decode_binary_batch_call(&frame).unwrap();
        assert_eq!(decoded, mixed);
    }

    #[test]
    fn repeat_flag_on_first_entry_is_malformed() {
        let frame = encode_binary_batch_call(&entries(), None);
        // Frame layout: 8-byte header, u32 entry count, then str path
        // (u32 len + bytes) and the repeat byte of entry 0. Flip it to 1.
        let path_len = entries()[0].path.len();
        let mut bad = frame.clone();
        let flag_at = 8 + 4 + 4 + path_len;
        assert_eq!(bad[flag_at], 0);
        bad[flag_at] = 1;
        let err = decode_binary_batch_call(&bad).unwrap_err();
        assert!(err.is_corrupt(), "{err}");
    }

    /// A bare (unprefixed) kind-3 whole-batch fault frame.
    fn whole_fault_frame(fault: &Fault) -> Vec<u8> {
        encode_stream_fault(fault)[4..].to_vec()
    }

    #[test]
    fn kind_two_is_reserved_and_rejected_by_every_decoder() {
        // Header of the retired buffered batch response, then an empty
        // outcome list.
        let mut frame = Vec::new();
        frame.extend_from_slice(b"PPGB");
        frame.extend_from_slice(&[PPGB_VERSION, 2, 0, 0]);
        frame.extend_from_slice(&0u32.to_le_bytes());
        let malformed = |e: WireError| matches!(e, WireError::Malformed(_));
        assert!(malformed(decode_binary_batch_call(&frame).unwrap_err()));
        assert!(malformed(decode_binary_event(&frame).unwrap_err()));
        assert!(malformed(decode_binary_segment(&frame).unwrap_err()));
        let mut prefixed = (frame.len() as u32).to_le_bytes().to_vec();
        prefixed.extend_from_slice(&frame);
        let mut stream = FrameReader::new();
        stream.feed(&prefixed);
        assert!(malformed(stream.next_event().unwrap_err()));
        let mut batch = BatchStreamReader::new();
        batch.feed(&prefixed);
        assert!(malformed(batch.next_event().unwrap_err()));
    }

    #[test]
    fn packed_columns_ride_unescaped() {
        // A packed block handed over as a call parameter appears verbatim in
        // the frame bytes — the whole point of the binary plane.
        let rows = vec!["a<b&c>d".into(), "x\"y'z".into()];
        let block = crate::value::pack_strs(&rows);
        let entry = BatchEntry::new(
            "/x",
            "getPR",
            "urn:x",
            &[("rows", Value::Str(block.clone()))],
        );
        let frame = encode_binary_batch_call(&[entry], None);
        assert!(frame.windows(block.len()).any(|w| w == block.as_bytes()));
    }

    #[test]
    fn whole_batch_fault_is_semantic_not_corrupt() {
        let frame = whole_fault_frame(&Fault::deadline_exceeded("batch refused"));
        match decode_binary_batch_call(&frame) {
            Err(WireError::Fault(f)) => {
                assert!(f.is_deadline_exceeded());
                assert!(!WireError::Fault(f).is_corrupt());
            }
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn corruption_yields_typed_errors() {
        assert_eq!(
            decode_binary_batch_call(b"").unwrap_err(),
            WireError::Truncated
        );
        assert_eq!(
            decode_binary_batch_call(b"SOAP....").unwrap_err(),
            WireError::BadMagic
        );
        let mut frame = encode_binary_batch_call(&entries(), None);
        frame[4] = 9; // version
        assert_eq!(
            decode_binary_batch_call(&frame).unwrap_err(),
            WireError::UnsupportedVersion(9)
        );
        let frame = encode_binary_batch_call(&entries(), None);
        for cut in [5, 9, frame.len() - 1] {
            let err = decode_binary_batch_call(&frame[..cut]).unwrap_err();
            assert!(err.is_corrupt(), "cut at {cut}: {err}");
        }
        // Trailing garbage is rejected, not silently ignored.
        let mut padded = frame.clone();
        padded.extend_from_slice(b"xx");
        assert!(matches!(
            decode_binary_batch_call(&padded).unwrap_err(),
            WireError::Malformed(_)
        ));
        // A segment frame fed to the call decoder is malformed.
        let other = encode_binary_segment(&segment());
        assert!(matches!(
            decode_binary_batch_call(&other).unwrap_err(),
            WireError::Malformed(_)
        ));
    }

    #[test]
    fn event_roundtrip() {
        let ev = WireEvent {
            topic: "registry.members".into(),
            seq: 41,
            payload: "unregister|PSU/hpl".into(),
        };
        let frame = encode_binary_event(&ev);
        assert_eq!(decode_binary_event(&frame).unwrap(), ev);
        // Payloads with XML-hostile bytes ride untouched.
        let nasty = WireEvent {
            topic: "t".into(),
            seq: u64::MAX,
            payload: "a<b&c>\"d'|e\0f".into(),
        };
        let frame = encode_binary_event(&nasty);
        assert_eq!(decode_binary_event(&frame).unwrap(), nasty);
    }

    #[test]
    fn event_corruption_is_typed() {
        let frame = encode_binary_event(&WireEvent {
            topic: "topic".into(),
            seq: 7,
            payload: "payload".into(),
        });
        for cut in [0, 5, 9, frame.len() - 1] {
            let err = decode_binary_event(&frame[..cut]).unwrap_err();
            assert!(err.is_corrupt(), "cut at {cut}: {err}");
        }
        let mut padded = frame.clone();
        padded.extend_from_slice(b"zz");
        assert!(matches!(
            decode_binary_event(&padded).unwrap_err(),
            WireError::Malformed(_)
        ));
        // A batch frame fed to the event decoder is malformed, and a kind-3
        // fault frame still decodes as a semantic fault.
        let batch = encode_binary_batch_call(&entries(), None);
        assert!(matches!(
            decode_binary_event(&batch).unwrap_err(),
            WireError::Malformed(_)
        ));
        let fault = whole_fault_frame(&Fault::server("refused"));
        assert!(matches!(
            decode_binary_event(&fault).unwrap_err(),
            WireError::Fault(_)
        ));
    }

    #[test]
    fn huge_count_cannot_coax_allocation() {
        // kind 1, no context, entry count u32::MAX with no entry bytes.
        let mut frame = Vec::new();
        frame.extend_from_slice(b"PPGB");
        frame.extend_from_slice(&[PPGB_VERSION, 1, 0, 0]);
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_binary_batch_call(&frame).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn reusable_buffer_clears_between_frames() {
        let mut wire = Vec::new();
        encode_binary_batch_call_into(&mut wire, &entries(), None);
        let first = wire.clone();
        encode_binary_batch_call_into(&mut wire, &entries(), None);
        assert_eq!(wire, first, "buffer reuse yields identical frames");
    }

    fn segment() -> WireSegment {
        WireSegment {
            series: "http://h:1/svc/execution/mem-0::gflops|/Execution|-|MEM".into(),
            start: 2.0,
            end: 10.5,
            filterable: true,
            inserted_unix_ms: 1_700_000_000_123,
            rows: vec!["gflops|t=2:3|a".into(), "gflops|t=9.5:10.5|b".into()],
        }
    }

    #[test]
    fn segment_roundtrip() {
        let seg = segment();
        let frame = encode_binary_segment(&seg);
        assert_eq!(decode_binary_segment(&frame).unwrap(), seg);
    }

    #[test]
    fn segment_roundtrip_infinite_window() {
        let seg = WireSegment {
            start: f64::NEG_INFINITY,
            end: f64::INFINITY,
            filterable: false,
            rows: vec![],
            ..segment()
        };
        let back = decode_binary_segment(&encode_binary_segment(&seg)).unwrap();
        assert_eq!(back, seg);
        assert!(back.start.is_infinite() && back.end.is_infinite());
    }

    #[test]
    fn segment_corruption_is_typed() {
        let frame = encode_binary_segment(&segment());
        // Truncation anywhere yields a typed, corrupt error.
        for cut in [0, 4, 8, frame.len() / 2, frame.len() - 1] {
            let err = decode_binary_segment(&frame[..cut]).unwrap_err();
            assert!(err.is_corrupt(), "cut at {cut}: {err}");
        }
        // Bad magic.
        let mut bad = frame.clone();
        bad[0] = b'X';
        assert_eq!(
            decode_binary_segment(&bad).unwrap_err(),
            WireError::BadMagic
        );
        // Wrong kind: an event frame is not a segment.
        let event = encode_binary_event(&WireEvent {
            topic: "t".into(),
            seq: 1,
            payload: "p".into(),
        });
        assert!(decode_binary_segment(&event).unwrap_err().is_corrupt());
        // A row-count lie cannot coax a huge allocation.
        let mut lied = frame.clone();
        let count_at =
            frame.len() - (4 + 4 + "gflops|t=2:3|a".len() + 4 + "gflops|t=9.5:10.5|b".len());
        lied[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_binary_segment(&lied).unwrap_err(),
            WireError::Truncated
        );
        // An inverted window is malformed, not a panic.
        let seg = WireSegment {
            start: 9.0,
            end: 1.0,
            ..segment()
        };
        assert!(matches!(
            decode_binary_segment(&encode_binary_segment(&seg)).unwrap_err(),
            WireError::Malformed(_)
        ));
    }

    // ----------------------------------------------------------- streaming

    fn monotone_rows(n: i64) -> Vec<String> {
        (0..n)
            .map(|i| {
                let t = 1_000 + i;
                format!("gflops|t={t}:{}|v=3.5,node{:02}", t + 1, i % 16)
            })
            .collect()
    }

    /// Drain every event currently decodable.
    fn drain(reader: &mut FrameReader) -> Vec<StreamEvent> {
        let mut events = Vec::new();
        while let Some(ev) = reader.next_event().unwrap() {
            events.push(ev);
        }
        events
    }

    #[test]
    fn varint_zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, 127, -128, 1 << 20, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v, "zigzag({v})");
            let mut buf = Vec::new();
            put_varint(&mut buf, zigzag(v));
            let mut r = Reader { buf: &buf, pos: 0 };
            assert_eq!(unzigzag(r.varint().unwrap()), v, "varint({v})");
            assert!(r.done().is_ok());
        }
        // An 11-byte continuation run is malformed, not a hang or panic.
        let long = [0x80u8; 11];
        let mut r = Reader { buf: &long, pos: 0 };
        assert!(matches!(r.varint().unwrap_err(), WireError::Malformed(_)));
    }

    #[test]
    fn stream_roundtrip_across_arbitrary_feed_splits() {
        let rows = monotone_rows(100);
        let mut writer = FrameWriter::new(512);
        let mut wire = Vec::new();
        for row in &rows {
            if let Some(frame) = writer.push(row.clone()) {
                wire.extend_from_slice(&frame);
            }
        }
        let frames = writer.finish();
        assert!(frames.len() >= 2 || rows.is_empty());
        for frame in &frames {
            wire.extend_from_slice(frame);
        }
        // Feed the whole stream one byte at a time: chunk boundaries are
        // immaterial to the reader.
        let mut reader = FrameReader::new();
        let mut got: Vec<String> = Vec::new();
        let mut ended = false;
        for &b in &wire {
            reader.feed(&[b]);
            for ev in drain(&mut reader) {
                match ev {
                    StreamEvent::Rows(batch) => got.extend(batch),
                    StreamEvent::End { rows: n } => {
                        assert_eq!(n, 100);
                        ended = true;
                    }
                }
            }
        }
        assert!(ended, "trailer never verified");
        assert!(reader.finished());
        assert_eq!(got, rows);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn stream_without_trailer_is_partial_not_error() {
        let mut writer = FrameWriter::new(128);
        let mut wire = Vec::new();
        for row in monotone_rows(40) {
            if let Some(frame) = writer.push(row) {
                wire.extend_from_slice(&frame);
            }
        }
        // Producer dies: finish() never called, no trailer on the wire.
        let mut reader = FrameReader::new();
        reader.feed(&wire);
        let events = drain(&mut reader);
        assert!(events.iter().all(|ev| matches!(ev, StreamEvent::Rows(_))));
        assert!(!reader.finished(), "no trailer means not finished");
        assert!(reader.rows_seen() > 0);
    }

    #[test]
    fn stream_checksum_and_count_are_verified() {
        let mut writer = FrameWriter::new(64);
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for row in monotone_rows(8) {
            if let Some(frame) = writer.push(row) {
                frames.push(frame);
            }
        }
        frames.extend(writer.finish());
        assert!(frames.len() >= 3);

        // Corrupt one text byte inside the first data frame: rows decode
        // (differently), so the trailer checksum is the tripwire.
        let mut corrupted: Vec<u8> = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            let mut f = frame.clone();
            if i == 0 {
                let at = f.len() - 2; // inside the last row's suffix text
                f[at] ^= 0x01;
            }
            corrupted.extend_from_slice(&f);
        }
        let mut reader = FrameReader::new();
        reader.feed(&corrupted);
        let err = loop {
            match reader.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("corruption went undetected"),
                Err(e) => break e,
            }
        };
        assert!(err.is_corrupt(), "{err}");

        // Drop a whole data frame: the trailer row count is the tripwire.
        let mut short: Vec<u8> = Vec::new();
        for frame in frames.iter().skip(1) {
            short.extend_from_slice(frame);
        }
        let mut reader = FrameReader::new();
        reader.feed(&short);
        let err = loop {
            match reader.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("missing frame went undetected"),
                Err(e) => break e,
            }
        };
        assert!(err.is_corrupt(), "{err}");
    }

    #[test]
    fn stream_fault_frame_is_semantic() {
        let mut wire = Vec::new();
        let mut writer = FrameWriter::new(64);
        for row in monotone_rows(4) {
            if let Some(frame) = writer.push(row) {
                wire.extend_from_slice(&frame);
            }
        }
        if let Some(frame) = writer.flush() {
            wire.extend_from_slice(&frame);
        }
        wire.extend_from_slice(&encode_stream_fault(&Fault::deadline_exceeded(
            "budget spent mid-stream",
        )));
        let mut reader = FrameReader::new();
        reader.feed(&wire);
        let err = loop {
            match reader.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("fault frame never surfaced"),
                Err(e) => break e,
            }
        };
        match err {
            WireError::Fault(f) => assert!(f.is_deadline_exceeded()),
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn stream_rejects_bytes_after_trailer_and_insane_lengths() {
        let writer = FrameWriter::new(64);
        let mut wire = Vec::new();
        for frame in writer.finish() {
            wire.extend_from_slice(&frame);
        }
        wire.extend_from_slice(b"junk");
        let mut reader = FrameReader::new();
        reader.feed(&wire);
        assert!(matches!(
            reader.next_event().unwrap(),
            Some(StreamEvent::End { rows: 0 })
        ));
        assert!(matches!(
            reader.next_event().unwrap_err(),
            WireError::Malformed(_)
        ));
        // A length prefix past the sanity cap is corruption, not an
        // attempted 4 GiB allocation.
        let mut reader = FrameReader::new();
        reader.feed(&u32::MAX.to_le_bytes());
        assert!(matches!(
            reader.next_event().unwrap_err(),
            WireError::Malformed(_)
        ));
    }

    /// Drain every batch-stream event currently decodable.
    fn drain_batch(reader: &mut BatchStreamReader) -> Vec<BatchStreamEvent> {
        let mut events = Vec::new();
        while let Some(ev) = reader.next_event().unwrap() {
            events.push(ev);
        }
        events
    }

    /// One entry's complete section: kind-9 head, data frames, trailer.
    fn entry_section(entry: u32, rows: &[String], frame_bytes: usize) -> Vec<Vec<u8>> {
        let mut frames = vec![encode_entry_head(entry)];
        let mut writer = FrameWriter::for_entry(frame_bytes, entry);
        for row in rows {
            if let Some(frame) = writer.push(row.clone()) {
                frames.push(frame);
            }
        }
        frames.extend(writer.finish());
        frames
    }

    #[test]
    fn batch_stream_interleaves_entries_across_arbitrary_feed_splits() {
        let rows0 = monotone_rows(60);
        let rows1: Vec<String> = (0..45).map(|i| format!("iops|t={i}:{}|z", i + 1)).collect();
        let sec0 = entry_section(0, &rows0, 256);
        let sec1 = entry_section(1, &rows1, 256);

        // Interleave the two sections frame by frame, the way two producers
        // sharing one connection would.
        let mut wire = encode_batch_stream_head(2);
        let mut it0 = sec0.into_iter();
        let mut it1 = sec1.into_iter();
        loop {
            match (it0.next(), it1.next()) {
                (None, None) => break,
                (a, b) => {
                    for frame in [a, b].into_iter().flatten() {
                        wire.extend_from_slice(&frame);
                    }
                }
            }
        }

        // Feed one byte at a time: chunk boundaries are immaterial.
        let mut reader = BatchStreamReader::new();
        let mut got0: Vec<String> = Vec::new();
        let mut got1: Vec<String> = Vec::new();
        let mut sealed = Vec::new();
        for &b in &wire {
            reader.feed(&[b]);
            for ev in drain_batch(&mut reader) {
                match ev {
                    BatchStreamEvent::Begin { entries } => assert_eq!(entries, 2),
                    BatchStreamEvent::EntryOpen { .. } => {}
                    BatchStreamEvent::EntryRows { entry: 0, rows } => got0.extend(rows),
                    BatchStreamEvent::EntryRows { entry: 1, rows } => got1.extend(rows),
                    BatchStreamEvent::EntryEnd { entry, rows } => sealed.push((entry, rows)),
                    other => panic!("unexpected event {other:?}"),
                }
            }
        }
        assert_eq!(got0, rows0);
        assert_eq!(got1, rows1);
        sealed.sort_unstable();
        assert_eq!(sealed, vec![(0, 60), (1, 45)]);
        assert!(reader.finished());
        assert!(reader.unsealed_entries().is_empty());
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn batch_entry_fault_does_not_poison_siblings() {
        let rows1 = monotone_rows(10);
        let mut wire = encode_batch_stream_head(2);
        // Entry 0 opens, streams a little, then dies with a tagged fault.
        wire.extend_from_slice(&encode_entry_head(0));
        let mut dying = FrameWriter::for_entry(64, 0);
        for row in monotone_rows(3) {
            if let Some(frame) = dying.push(row) {
                wire.extend_from_slice(&frame);
            }
        }
        if let Some(frame) = dying.flush() {
            wire.extend_from_slice(&frame);
        }
        wire.extend_from_slice(&encode_entry_fault(
            0,
            &Fault::deadline_exceeded("scan budget spent"),
        ));
        // Entry 1 completes normally after the sibling's fault.
        for frame in entry_section(1, &rows1, 128) {
            wire.extend_from_slice(&frame);
        }

        let mut reader = BatchStreamReader::new();
        reader.feed(&wire);
        let events = drain_batch(&mut reader);
        let fault = events
            .iter()
            .find_map(|ev| match ev {
                BatchStreamEvent::EntryFault { entry: 0, fault } => Some(fault.clone()),
                _ => None,
            })
            .expect("entry 0 fault surfaced");
        assert!(fault.is_deadline_exceeded());
        let survivor: Vec<String> = events
            .iter()
            .filter_map(|ev| match ev {
                BatchStreamEvent::EntryRows { entry: 1, rows } => Some(rows.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(survivor, rows1);
        assert!(reader.finished(), "fault seals its entry; stream completes");
        assert!(reader.unsealed_entries().is_empty());
    }

    #[test]
    fn batch_stream_truncation_reports_exactly_the_unsealed_entries() {
        let mut wire = encode_batch_stream_head(3);
        // Entry 1 seals; entry 0 opens but never seals; entry 2 never opens.
        wire.extend_from_slice(&encode_entry_head(0));
        let mut writer = FrameWriter::for_entry(64, 0);
        for row in monotone_rows(5) {
            if let Some(frame) = writer.push(row) {
                wire.extend_from_slice(&frame);
            }
        }
        // Producer dies: no flush, no trailer.
        drop(writer);
        for frame in entry_section(1, &monotone_rows(7), 64) {
            wire.extend_from_slice(&frame);
        }

        let mut reader = BatchStreamReader::new();
        reader.feed(&wire);
        let events = drain_batch(&mut reader);
        assert!(events
            .iter()
            .any(|ev| matches!(ev, BatchStreamEvent::EntryEnd { entry: 1, rows: 7 })));
        assert!(!reader.finished());
        assert_eq!(reader.unsealed_entries(), vec![0, 2]);
        assert!(reader.entry_rows_seen(0) > 0);
        assert_eq!(reader.entry_rows_seen(2), 0);
    }

    #[test]
    fn batch_entry_trailer_verifies_rows_and_checksum_independently() {
        let sec0 = entry_section(0, &monotone_rows(8), 64);
        let sec1 = entry_section(1, &monotone_rows(8), 64);
        assert!(sec0.len() >= 4);

        // Corrupt a text byte inside entry 0's first data frame: entry 0's
        // own trailer checksum is the tripwire.
        let mut wire = encode_batch_stream_head(2);
        for (i, frame) in sec0.iter().enumerate() {
            let mut f = frame.clone();
            if i == 1 {
                let at = f.len() - 2;
                f[at] ^= 0x01;
            }
            wire.extend_from_slice(&f);
        }
        for frame in &sec1 {
            wire.extend_from_slice(frame);
        }
        let mut reader = BatchStreamReader::new();
        reader.feed(&wire);
        let err = loop {
            match reader.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("corruption went undetected"),
                Err(e) => break e,
            }
        };
        assert!(err.is_corrupt(), "{err}");

        // Drop one of entry 0's data frames: its trailer row count trips.
        let mut wire = encode_batch_stream_head(2);
        for (i, frame) in sec0.iter().enumerate() {
            if i != 1 {
                wire.extend_from_slice(frame);
            }
        }
        for frame in &sec1 {
            wire.extend_from_slice(frame);
        }
        let mut reader = BatchStreamReader::new();
        reader.feed(&wire);
        let err = loop {
            match reader.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("missing frame went undetected"),
                Err(e) => break e,
            }
        };
        assert!(err.is_corrupt(), "{err}");
    }

    #[test]
    fn batch_untagged_fault_fails_the_whole_stream() {
        let mut wire = encode_batch_stream_head(2);
        for frame in entry_section(0, &monotone_rows(4), 64) {
            wire.extend_from_slice(&frame);
        }
        // The container refusing the batch outright: untagged kind-3.
        wire.extend_from_slice(&encode_stream_fault(&Fault::cancelled("sink went away")));
        let mut reader = BatchStreamReader::new();
        reader.feed(&wire);
        let err = loop {
            match reader.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("whole-batch fault never surfaced"),
                Err(e) => break e,
            }
        };
        assert!(!err.is_corrupt());
        match err {
            WireError::Fault(f) => assert!(f.is_cancelled()),
            other => panic!("expected semantic fault, got {other:?}"),
        }
    }

    #[test]
    fn batch_stream_rejects_malformed_shapes() {
        // Entry frame before the head.
        let mut reader = BatchStreamReader::new();
        reader.feed(&encode_entry_head(0));
        assert!(matches!(
            reader.next_event().unwrap_err(),
            WireError::Malformed(_)
        ));

        // Entry index out of declared range.
        let mut reader = BatchStreamReader::new();
        let mut wire = encode_batch_stream_head(1);
        wire.extend_from_slice(&encode_entry_head(3));
        reader.feed(&wire);
        assert!(matches!(
            reader.next_event().unwrap(),
            Some(BatchStreamEvent::Begin { entries: 1 })
        ));
        assert!(matches!(
            reader.next_event().unwrap_err(),
            WireError::Malformed(_)
        ));

        // Duplicate head.
        let mut reader = BatchStreamReader::new();
        let mut wire = encode_batch_stream_head(1);
        wire.extend_from_slice(&encode_batch_stream_head(1));
        reader.feed(&wire);
        reader.next_event().unwrap();
        assert!(matches!(
            reader.next_event().unwrap_err(),
            WireError::Malformed(_)
        ));

        // Rows after an entry sealed.
        let mut reader = BatchStreamReader::new();
        let mut wire = encode_batch_stream_head(1);
        for frame in entry_section(0, &monotone_rows(2), usize::MAX) {
            wire.extend_from_slice(&frame);
        }
        reader.feed(&wire);
        while let Ok(Some(_)) = reader.next_event() {}
        assert!(reader.finished());
        let mut writer = FrameWriter::for_entry(usize::MAX, 0);
        writer.push("late".into());
        let mut reader2 = BatchStreamReader::new();
        let mut wire2 = encode_batch_stream_head(2);
        for frame in entry_section(0, &monotone_rows(2), usize::MAX) {
            wire2.extend_from_slice(&frame);
        }
        if let Some(frame) = writer.flush() {
            wire2.extend_from_slice(&frame);
        }
        reader2.feed(&wire2);
        let err = loop {
            match reader2.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("post-seal rows went undetected"),
                Err(e) => break e,
            }
        };
        assert!(err.is_corrupt(), "{err}");

        // An empty batch (0 entries) finishes immediately; trailing bytes
        // after completion are rejected.
        let mut reader = BatchStreamReader::new();
        let mut wire = encode_batch_stream_head(0);
        wire.extend_from_slice(b"junk");
        reader.feed(&wire);
        assert!(matches!(
            reader.next_event().unwrap(),
            Some(BatchStreamEvent::Begin { entries: 0 })
        ));
        assert!(reader.finished());
        assert!(matches!(
            reader.next_event().unwrap_err(),
            WireError::Malformed(_)
        ));
    }

    #[test]
    fn frame_writer_recycles_spent_buffers() {
        let mut writer = FrameWriter::new(usize::MAX);
        // Hand back a big spent buffer; the next flush must reuse its
        // capacity instead of allocating fresh.
        writer.recycle(Vec::with_capacity(8 * 1024));
        writer.push("gflops|t=1:2|x".into());
        let frame = writer.flush().expect("pending rows flush");
        assert!(
            frame.capacity() >= 8 * 1024,
            "flush reused the recycled buffer's capacity"
        );
        // The recycled frame round-trips like any other.
        let mut reader = FrameReader::new();
        reader.feed(&frame);
        match reader.next_event().unwrap() {
            Some(StreamEvent::Rows(rows)) => assert_eq!(rows, vec!["gflops|t=1:2|x"]),
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn columnar_rows_roundtrip_exactly() {
        // Canonical integer t=A:B spans → mode 1; everything else → mode 0.
        // Both must round-trip byte-exact through the segment wrapper too.
        let tricky: Vec<Vec<String>> = vec![
            monotone_rows(32),
            // Decreasing and negative timestamps still qualify (deltas zigzag).
            vec![
                "m|t=-5:-4|x".into(),
                "m|t=-9:100|x".into(),
                "m|t=-9223372036854775808:9223372036854775807|x".into(),
            ],
            // Non-canonical renderings must NOT be columnar-coded (they
            // would re-render differently) — mode 0 keeps them exact.
            vec![
                "m|t=01:2|x".into(),
                "m|t=+1:2|x".into(),
                "m|t=1.0:2|x".into(),
            ],
            // Point form, missing field, empty rows.
            vec!["m|t=7|x".into(), "no time field".into(), String::new()],
            // t= at row start and end; suffix/prefix edge cases.
            vec!["t=1:2".into(), "a|b|t=3:4".into(), "t=5:6|".into()],
        ];
        for rows in tricky {
            let seg = WireSegment {
                rows: rows.clone(),
                filterable: false,
                ..segment()
            };
            let back = decode_binary_segment(&encode_binary_segment(&seg)).unwrap();
            assert_eq!(back.rows, rows);

            let mut writer = FrameWriter::new(usize::MAX);
            for row in &rows {
                writer.push(row.clone());
            }
            let mut wire = Vec::new();
            for frame in writer.finish() {
                wire.extend_from_slice(&frame);
            }
            let mut reader = FrameReader::new();
            reader.feed(&wire);
            let mut got = Vec::new();
            for ev in drain(&mut reader) {
                if let StreamEvent::Rows(batch) = ev {
                    got.extend(batch);
                }
            }
            assert!(reader.finished());
            assert_eq!(got, rows);
        }
    }

    #[test]
    fn columnar_delta_coding_halves_monotone_payloads() {
        // The acceptance floor: varint+delta columns ≥2x smaller than the
        // packed (mode 0) encoding on a monotone-timestamp workload.
        let rows = monotone_rows(512);
        let mut columnar = Vec::new();
        put_row_block(&mut columnar, &rows, &mut Vec::new());
        assert_eq!(columnar[0], 1, "monotone rows must pick mode 1");
        let mut raw = Vec::new();
        raw.push(0u8);
        put_u32(&mut raw, rows.len() as u32);
        for row in &rows {
            put_str(&mut raw, row);
        }
        let ratio = raw.len() as f64 / columnar.len() as f64;
        assert!(
            ratio >= 2.0,
            "columnar {} vs raw {} bytes — only {ratio:.2}x",
            columnar.len(),
            raw.len()
        );
    }

    #[test]
    fn corrupt_columnar_blocks_are_typed() {
        let rows = monotone_rows(8);
        let mut block = Vec::new();
        put_row_block(&mut block, &rows, &mut Vec::new());
        assert_eq!(block[0], 1);
        // Truncation anywhere is typed.
        for cut in [1, 5, 8, block.len() / 2, block.len() - 1] {
            let mut r = Reader {
                buf: &block[..cut],
                pos: 0,
            };
            let err = match read_row_block(&mut r).and_then(|_| r.done()) {
                Err(e) => e,
                Ok(()) => panic!("cut at {cut} decoded"),
            };
            assert!(err.is_corrupt(), "cut at {cut}: {err}");
        }
        // A shared-length lie (first row claims bytes from a predecessor
        // that does not exist) is malformed.
        let mut lied = block.clone();
        lied[5] = 3; // first prefix's shared-length varint
        let mut r = Reader { buf: &lied, pos: 0 };
        assert!(matches!(
            read_row_block(&mut r).unwrap_err(),
            WireError::Malformed(_)
        ));
        // An unknown mode byte is malformed.
        let mut bad_mode = block;
        bad_mode[0] = 9;
        let mut r = Reader {
            buf: &bad_mode,
            pos: 0,
        };
        assert!(matches!(
            read_row_block(&mut r).unwrap_err(),
            WireError::Malformed(_)
        ));
    }
}
