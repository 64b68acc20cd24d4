//! Allocation budget of the PPGB row path, held by a counting allocator:
//! a streamed row costs one allocation to decode and none to encode, and no
//! hostile input makes a decoder allocate out of proportion to its bytes.
//! The counters are per thread, so tests running in parallel do not see
//! each other's allocations.

use pperf_soap::{
    decode_binary_segment, encode_batch_stream_head, encode_binary_segment, encode_entry_head,
    BatchStreamReader, FrameReader, FrameWriter, StreamEvent, WireError, WireSegment,
    DEFAULT_STREAM_FRAME_BYTES, PPGB_MAGIC, PPGB_VERSION,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread's last frees can run after its locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell`s (no lazy allocation, no destructor) and never
// influence which pointer is returned or freed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with the
        // same `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f`, returning its result with the allocations (count, bytes) this
/// thread made meanwhile.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (allocs, bytes) = (ALLOCS.get(), BYTES.get());
    let out = f();
    (out, ALLOCS.get() - allocs, BYTES.get() - bytes)
}

const ROWS: usize = 8_192;

/// 50-byte rows with a canonical, monotone `t=` span: mode 1.
fn columnar_rows() -> Vec<String> {
    (0..ROWS)
        .map(|i| {
            let t = 1_000_000 + i;
            format!(
                "gflops|t={t}:{}|v=3.5,node{:02},rank{i:04},k=1",
                t + 1,
                i % 16
            )
        })
        .collect()
}

/// 50-byte rows with no `t=` field: mode 0.
fn packed_rows() -> Vec<String> {
    (0..ROWS)
        .map(|i| {
            format!(
                "gflops|sample {i:08}|v=3.5,node{:02},rank{i:04},ok=1y",
                i % 16
            )
        })
        .collect()
}

fn encode_stream(rows: Vec<String>) -> Vec<Vec<u8>> {
    let mut writer = FrameWriter::new(DEFAULT_STREAM_FRAME_BYTES);
    let mut frames = Vec::new();
    for row in rows {
        frames.extend(writer.push(row));
    }
    frames.extend(writer.finish());
    frames
}

#[test]
fn decoding_a_stream_allocates_once_per_row() {
    for (name, rows, mode) in [
        ("columnar", columnar_rows(), 1u8),
        ("packed", packed_rows(), 0u8),
    ] {
        assert!(rows.iter().all(|row| row.len() == 50), "{name}");
        let frames = encode_stream(rows.clone());
        // Length prefix (4) + frame header (8), then the block's mode byte.
        assert_eq!(frames[0][12], mode, "{name} rows picked the wrong mode");
        let mut got: Vec<String> = Vec::with_capacity(ROWS);
        let ((), allocs, bytes) = measured(|| {
            let mut reader = FrameReader::new();
            for frame in &frames {
                reader.feed(frame);
                while let Some(event) = reader.next_event().expect("own stream decodes") {
                    if let StreamEvent::Rows(batch) = event {
                        got.extend(batch);
                    }
                }
            }
            assert!(reader.finished());
        });
        assert_eq!(got, rows, "{name}");
        let budget = (ROWS + 4 * frames.len() + 16) as u64;
        assert!(
            allocs <= budget,
            "{name}: {allocs} allocations for {ROWS} rows in {} frames (budget {budget})",
            frames.len()
        );
        // Exact-size rows: the row bytes themselves, the per-frame row
        // vectors (24 B per row) and the reader's frame buffer — nothing
        // over-reserved.
        let row_bytes: usize = rows.iter().map(String::len).sum();
        let ceiling = (row_bytes + 24 * ROWS + 8 * DEFAULT_STREAM_FRAME_BYTES) as u64;
        assert!(
            bytes <= ceiling,
            "{name}: {bytes} bytes allocated to decode {row_bytes} row bytes (ceiling {ceiling})"
        );
    }
}

#[test]
fn encoding_owned_rows_allocates_per_frame_not_per_row() {
    for (name, rows) in [("columnar", columnar_rows()), ("packed", packed_rows())] {
        let mut frames: Vec<Vec<u8>> = Vec::with_capacity(64);
        let ((), allocs, _) = measured(|| {
            let mut writer = FrameWriter::new(DEFAULT_STREAM_FRAME_BYTES);
            for row in rows {
                frames.extend(writer.push(row));
            }
            frames.extend(writer.finish());
        });
        assert!(frames.len() > 8, "{name}: {} frames", frames.len());
        // Per frame: the frame buffer. Once per writer: the pending-row and
        // split scratch vectors growing to one frame's worth.
        let budget = (2 * frames.len() + 32) as u64;
        assert!(
            allocs <= budget,
            "{name}: {allocs} allocations to encode {ROWS} rows into {} frames (budget {budget})",
            frames.len()
        );
    }
}

/// Wrap `body` as one length-prefixed stream frame of `kind`.
fn stream_frame(kind: u8, flags: u8, body: &[u8]) -> Vec<u8> {
    let mut out = ((8 + body.len()) as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&PPGB_MAGIC);
    out.extend_from_slice(&[PPGB_VERSION, kind, flags, 0]);
    out.extend_from_slice(body);
    out
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// One stream data frame whose mode-1 block opens with a `first_len`-byte
/// row and adds `sharers` rows of a few bytes each, every one sharing all
/// of the first row's prefix: the shape front coding expands quadratically.
fn sharing_frame(first_len: usize, sharers: u32) -> Vec<u8> {
    let mut block = vec![1u8];
    block.extend_from_slice(&(1 + sharers).to_le_bytes());
    put_varint(&mut block, 0);
    put_varint(&mut block, first_len as u64);
    block.extend(std::iter::repeat_n(b'a', first_len - 2));
    block.extend_from_slice(b"t=");
    block.extend_from_slice(&[0, 0, 0, 0]);
    for _ in 0..sharers {
        put_varint(&mut block, first_len as u64);
        block.extend_from_slice(&[0, 0, 0, 0, 0]);
    }
    stream_frame(6, 0, &block)
}

#[test]
fn front_coding_bomb_is_refused_before_it_allocates() {
    // ~58 kB on the wire, ~96 MB of rows if decoded.
    let frame = sharing_frame(16_000, 6_000);
    assert!(frame.len() <= 64 * 1024, "{} bytes", frame.len());
    let (result, _, bytes) = measured(|| {
        let mut reader = FrameReader::new();
        reader.feed(&frame);
        reader.next_event()
    });
    match result {
        Err(WireError::Malformed(why)) => assert!(why.contains("cap"), "{why}"),
        other => panic!("bomb was not refused: {other:?}"),
    }
    assert!(
        bytes <= allocation_ceiling(frame.len()),
        "{bytes} bytes allocated refusing a {}-byte frame",
        frame.len()
    );

    // The same shape under the cap still decodes.
    let mut reader = FrameReader::new();
    reader.feed(&sharing_frame(64, 40));
    match reader.next_event() {
        Ok(Some(StreamEvent::Rows(rows))) => {
            assert_eq!(rows.len(), 41);
            assert!(rows.iter().all(|row| row.len() == 64 + 3));
        }
        other => panic!("under-cap block did not decode: {other:?}"),
    }
}

/// xorshift64*: deterministic input generator for the hostile-bytes loops.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }

    /// Damage `input`: flip a few bytes, then maybe cut it short.
    fn mutate(&mut self, input: &[u8]) -> Vec<u8> {
        let mut out = input.to_vec();
        for _ in 0..1 + self.below(3) {
            let at = self.below(out.len());
            out[at] = self.next() as u8;
        }
        if self.below(3) == 0 {
            out.truncate(self.below(out.len()));
        }
        out
    }
}

/// A random row block body: mostly a plausible mode byte, so the loops
/// reach the row decoders instead of dying at the mode check.
fn hostile_block(rng: &mut Rng) -> Vec<u8> {
    let mut block = vec![if rng.below(8) == 0 {
        rng.next() as u8
    } else {
        rng.below(2) as u8
    }];
    // A small, believable row count keeps the count sanity check passing.
    block.extend_from_slice(&(rng.below(40) as u32).to_le_bytes());
    // Low-valued bytes read as short varints and lengths: deeper decodes.
    let len = rng.below(400);
    let body: Vec<u8> = (0..len)
        .map(|_| {
            if rng.below(4) == 0 {
                rng.next() as u8
            } else {
                rng.below(12) as u8
            }
        })
        .collect();
    block.extend_from_slice(&body);
    block
}

/// No decoder may allocate more than the columnar expansion cap (64x) plus
/// its bookkeeping (row vectors, feed buffer, error text) allows.
fn allocation_ceiling(input_len: usize) -> u64 {
    80 * input_len as u64 + 4_096
}

/// Feed `decode` 3 000 hostile inputs — `crafted` ones that reach the row
/// decoders, damaged copies of `valid`, and short pure noise — and hold
/// each to [`allocation_ceiling`]. A panic anywhere fails the test.
fn assert_survives_hostile_bytes(
    seed: u64,
    valid: &[u8],
    mut crafted: impl FnMut(&mut Rng) -> Vec<u8>,
    decode: impl Fn(&[u8]),
) {
    let mut rng = Rng(seed);
    for case in 0..3_000 {
        let input = match case % 3 {
            0 => crafted(&mut rng),
            1 => rng.mutate(valid),
            _ => {
                let n = rng.below(64);
                rng.bytes(n)
            }
        };
        let ((), _, bytes) = measured(|| decode(&input));
        assert!(
            bytes <= allocation_ceiling(input.len()),
            "case {case}: {bytes} bytes allocated for {} input bytes",
            input.len()
        );
    }
}

#[test]
fn frame_reader_survives_hostile_bytes_with_bounded_allocation() {
    let valid: Vec<u8> = encode_stream(columnar_rows()[..400].to_vec()).concat();
    assert_survives_hostile_bytes(
        0x5eed_0001,
        &valid,
        |rng| stream_frame(6, 0, &hostile_block(rng)),
        |input| {
            let mut reader = FrameReader::new();
            reader.feed(input);
            while let Ok(Some(_)) = reader.next_event() {}
        },
    );
}

#[test]
fn batch_stream_reader_survives_hostile_bytes_with_bounded_allocation() {
    let mut valid = encode_batch_stream_head(2);
    for entry in 0..2u32 {
        valid.extend_from_slice(&encode_entry_head(entry));
        let mut writer = FrameWriter::for_entry(1_024, entry);
        for row in &columnar_rows()[..120] {
            valid.extend(writer.push(row.clone()).into_iter().flatten());
        }
        valid.extend(writer.finish().concat());
    }
    assert_survives_hostile_bytes(
        0x5eed_0002,
        &valid,
        |rng| {
            // An entry-tagged data frame (flag bit 1 + u32 index) after a
            // valid head, so the block decoder is reached.
            let mut body = (rng.below(3) as u32).to_le_bytes().to_vec();
            body.extend_from_slice(&hostile_block(rng));
            let mut wire = encode_batch_stream_head(2);
            wire.extend_from_slice(&stream_frame(6, 2, &body));
            wire
        },
        |input| {
            let mut reader = BatchStreamReader::new();
            reader.feed(input);
            while let Ok(Some(_)) = reader.next_event() {}
        },
    );
}

#[test]
fn segment_decoder_survives_hostile_bytes_with_bounded_allocation() {
    let segment = WireSegment {
        series: "http://h:1/svc::gflops".into(),
        start: 0.0,
        end: 400.0,
        filterable: true,
        inserted_unix_ms: 1_750_000_000_000,
        rows: columnar_rows()[..400].to_vec(),
    };
    let valid = encode_binary_segment(&segment);
    assert_eq!(decode_binary_segment(&valid).unwrap(), segment);
    // Header, series, window, filterable flag, insertion clock; then the
    // row block to the end of the frame.
    let block_at = 8 + 4 + segment.series.len() + 8 + 8 + 1 + 8;
    assert_eq!(valid[block_at], 1);
    assert_survives_hostile_bytes(
        0x5eed_0003,
        &valid,
        |rng| {
            let mut frame = valid[..block_at].to_vec();
            frame.extend_from_slice(&hostile_block(rng));
            frame
        },
        |input| {
            let _ = decode_binary_segment(input);
        },
    );
}
