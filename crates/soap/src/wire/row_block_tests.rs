//! Differential and hardening tests for the row-block core and the stream
//! checksum. The version-1 row-block codec is kept below, verbatim, as the
//! oracle: the allocation-free encoder must reproduce its bytes and the
//! single-allocation decoder must invert both.

use super::*;
use proptest::prelude::*;

/// The row-block codec as it stood before the allocation-free rewrite:
/// `parse` + `to_string` canonicality, owned prefix/suffix buffers.
mod reference {
    use super::super::{put_str, put_u32, put_varint, unzigzag, zigzag, Reader, WireError};

    pub fn split_monotone_ts(row: &str) -> Option<(usize, i64, i64, usize)> {
        let mut field_start = 0usize;
        loop {
            let field_end = row[field_start..]
                .find('|')
                .map(|i| field_start + i)
                .unwrap_or(row.len());
            let field = &row[field_start..field_end];
            if let Some(spec) = field.strip_prefix("t=") {
                let (a_text, b_text) = spec.split_once(':')?;
                let a: i64 = a_text.parse().ok()?;
                let b: i64 = b_text.parse().ok()?;
                if a.to_string() != a_text || b.to_string() != b_text {
                    return None;
                }
                return Some((field_start + 2, a, b, field_end));
            }
            if field_end == row.len() {
                return None;
            }
            field_start = field_end + 1;
        }
    }

    fn put_front_coded(out: &mut Vec<u8>, prev: &[u8], cur: &[u8]) {
        let shared = prev.iter().zip(cur).take_while(|(a, b)| a == b).count();
        put_varint(out, shared as u64);
        put_varint(out, (cur.len() - shared) as u64);
        out.extend_from_slice(&cur[shared..]);
    }

    pub fn put_row_block(out: &mut Vec<u8>, rows: &[String]) {
        let mut splits = Vec::with_capacity(rows.len());
        for row in rows {
            match split_monotone_ts(row) {
                Some(split) => splits.push(split),
                None => {
                    splits.clear();
                    break;
                }
            }
        }
        if rows.is_empty() || splits.len() != rows.len() {
            out.push(0);
            put_u32(out, rows.len() as u32);
            for row in rows {
                put_str(out, row);
            }
            return;
        }
        out.push(1);
        put_u32(out, rows.len() as u32);
        let mut prev_prefix: &[u8] = b"";
        let mut prev_suffix: &[u8] = b"";
        let mut prev_start: i64 = 0;
        for (row, &(prefix_end, start, end, suffix_start)) in rows.iter().zip(&splits) {
            let bytes = row.as_bytes();
            let prefix = &bytes[..prefix_end];
            let suffix = &bytes[suffix_start..];
            put_front_coded(out, prev_prefix, prefix);
            put_varint(out, zigzag(start.wrapping_sub(prev_start)));
            put_varint(out, zigzag(end.wrapping_sub(start)));
            put_front_coded(out, prev_suffix, suffix);
            prev_prefix = prefix;
            prev_suffix = suffix;
            prev_start = start;
        }
    }

    fn front_coded(r: &mut Reader, prev: &[u8]) -> Result<Vec<u8>, WireError> {
        let shared = r.varint()? as usize;
        if shared > prev.len() {
            return Err(WireError::Malformed(
                "front-coded shared length exceeds previous item".into(),
            ));
        }
        let rest_len = r.varint()? as usize;
        let rest = r.take(rest_len)?;
        let mut out = Vec::with_capacity(shared + rest_len);
        out.extend_from_slice(&prev[..shared]);
        out.extend_from_slice(rest);
        Ok(out)
    }

    pub fn read_row_block(r: &mut Reader) -> Result<Vec<String>, WireError> {
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
                let n = r.count(6)?;
                let mut rows = Vec::with_capacity(n);
                let mut prev_prefix: Vec<u8> = Vec::new();
                let mut prev_suffix: Vec<u8> = Vec::new();
                let mut prev_start: i64 = 0;
                for _ in 0..n {
                    let prefix = front_coded(r, &prev_prefix)?;
                    let start = prev_start.wrapping_add(unzigzag(r.varint()?));
                    let end = start.wrapping_add(unzigzag(r.varint()?));
                    let suffix = front_coded(r, &prev_suffix)?;
                    let start_text = start.to_string();
                    let end_text = end.to_string();
                    let mut bytes = Vec::with_capacity(
                        prefix.len() + start_text.len() + 1 + end_text.len() + suffix.len(),
                    );
                    bytes.extend_from_slice(&prefix);
                    bytes.extend_from_slice(start_text.as_bytes());
                    bytes.push(b':');
                    bytes.extend_from_slice(end_text.as_bytes());
                    bytes.extend_from_slice(&suffix);
                    let row = String::from_utf8(bytes)
                        .map_err(|_| WireError::Malformed("columnar row is not UTF-8".into()))?;
                    rows.push(row);
                    prev_prefix = prefix;
                    prev_suffix = suffix;
                    prev_start = start;
                }
                Ok(rows)
            }
            m => Err(WireError::Malformed(format!("unknown row-block mode {m}"))),
        }
    }
}

fn encode(rows: &[String]) -> Vec<u8> {
    let mut out = Vec::new();
    put_row_block(&mut out, rows, &mut Vec::new());
    out
}

fn encode_reference(rows: &[String]) -> Vec<u8> {
    let mut out = Vec::new();
    reference::put_row_block(&mut out, rows);
    out
}

fn decode(block: &[u8]) -> Result<Vec<String>, WireError> {
    let mut r = Reader { buf: block, pos: 0 };
    let rows = read_row_block(&mut r)?;
    r.done()?;
    Ok(rows)
}

fn decode_reference(block: &[u8]) -> Result<Vec<String>, WireError> {
    let mut r = Reader { buf: block, pos: 0 };
    let rows = reference::read_row_block(&mut r)?;
    r.done()?;
    Ok(rows)
}

/// Both encoders agree byte for byte, and every decoder inverts them.
fn assert_differential(rows: &[String]) {
    let block = encode(rows);
    assert_eq!(
        block,
        encode_reference(rows),
        "encoders diverge on {rows:?}"
    );
    assert_eq!(decode(&block).unwrap(), rows, "new decoder on {rows:?}");
    assert_eq!(
        decode_reference(&block).unwrap(),
        rows,
        "reference decoder on {rows:?}"
    );
}

/// Bounds that must disqualify a row from columnar coding (they would
/// re-render differently), beside ones that must qualify.
const NON_CANONICAL: [&str; 14] = [
    "m|t=007:9|x",
    "m|t=-0:1|x",
    "m|t=1:-0|x",
    "m|t=+5:6|x",
    "m|t=5:+6|x",
    "m|t=5|x",
    "m|t=1.5:2|x",
    "m|t=1:2.0|x",
    "m|t=:2|x",
    "m|t=1:|x",
    "m|t=1:2:3|x",
    "m|t=99999999999999999999:1|x",
    "m|t=9223372036854775808:1|x",
    "m|t=1:-9223372036854775809|x",
];

const CANONICAL: [&str; 8] = [
    "m|t=0:0|x",
    "m|t=-1:1|x",
    "m|t=9223372036854775807:-9223372036854775808|x",
    "m|t=-9223372036854775808:9223372036854775807|x",
    "t=1:2",
    "t=5:6|",
    "a|b|t=3:4",
    "|t=10:20||",
];

fn strings(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| (*s).to_owned()).collect()
}

/// One row: qualifying, deliberately non-canonical, or arbitrary text.
fn row_strategy() -> BoxedStrategy<String> {
    let bound = || {
        prop_oneof![
            any::<i64>(),
            -3i64..1_000,
            Just(i64::MIN),
            Just(i64::MAX),
            Just(0i64),
        ]
    };
    // Multi-byte members (2- and 3-byte UTF-8) so shared-prefix cuts land
    // inside characters.
    let text = || "[ab|é日=:t]{0,5}";
    prop_oneof![
        (text(), bound(), bound(), text()).prop_map(|(p, a, b, s)| format!("{p}|t={a}:{b}|{s}")),
        (bound(), bound(), text()).prop_map(|(a, b, s)| format!("t={a}:{b}{s}")),
        ("[-+0-9]{0,21}", "[-+0-9.]{0,4}").prop_map(|(a, b)| format!("m|t={a}:{b}|x")),
        (0usize..NON_CANONICAL.len()).prop_map(|i| NON_CANONICAL[i].to_owned()),
        (0usize..CANONICAL.len()).prop_map(|i| CANONICAL[i].to_owned()),
        "\\PC{0,24}",
        Just(String::new()),
    ]
    .boxed()
}

/// A block that always qualifies for mode 1, with long shared affixes.
fn columnar_block_strategy() -> impl Strategy<Value = Vec<String>> {
    (
        "[aé日|]{0,6}",
        "[aé日|]{0,6}",
        proptest::collection::vec((any::<i64>(), -5i64..50, "[aéè日]{0,3}"), 1..12),
    )
        .prop_map(|(prefix, suffix, items)| {
            items
                .into_iter()
                .map(|(a, span, tail)| {
                    format!("{prefix}|t={a}:{}|{suffix}{tail}", a.wrapping_add(span))
                })
                .collect()
        })
}

proptest! {
    #[test]
    fn arbitrary_blocks_encode_like_the_reference_and_roundtrip(
        rows in proptest::collection::vec(row_strategy(), 0..12),
    ) {
        assert_differential(&rows);
    }

    #[test]
    fn columnar_blocks_encode_like_the_reference_and_roundtrip(
        rows in columnar_block_strategy(),
    ) {
        prop_assert_eq!(encode(&rows)[0], 1, "block must pick mode 1");
        assert_differential(&rows);
    }

    #[test]
    fn split_agrees_with_the_reference(row in row_strategy()) {
        let got = split_monotone_ts(row.as_bytes())
            .map(|s| (s.prefix_end, s.start, s.end, s.suffix_start));
        prop_assert_eq!(got, reference::split_monotone_ts(&row));
    }

    #[test]
    fn canonical_i64_is_parse_plus_rerender(text in "[-+0-9]{0,21}", v in any::<i64>()) {
        let oracle = |t: &str| t.parse::<i64>().ok().filter(|p| p.to_string() == t);
        prop_assert_eq!(canonical_i64(text.as_bytes()), oracle(&text));
        let rendered = v.to_string();
        prop_assert_eq!(canonical_i64(rendered.as_bytes()), Some(v));
        prop_assert_eq!(fmt_i64(&mut [0u8; 20], v), rendered.as_bytes());
    }

    #[test]
    fn row_block_decoder_never_panics(mode in 0u8..3, body in proptest::collection::vec(any::<u8>(), 0..200)) {
        let mut block = vec![mode];
        block.extend_from_slice(&body);
        let _ = decode(&block);
    }
}

#[test]
fn non_canonical_bounds_fall_to_mode_zero_and_survive() {
    for row in NON_CANONICAL {
        assert!(
            split_monotone_ts(row.as_bytes()).is_none(),
            "{row} must not qualify"
        );
        // Alone, and poisoning an otherwise columnar block.
        assert_differential(&strings(&[row]));
        let mixed = strings(&["m|t=1:2|x", row, "m|t=3:4|x"]);
        assert_eq!(encode(&mixed)[0], 0, "{row} must force mode 0");
        assert_differential(&mixed);
    }
    for row in CANONICAL {
        assert!(
            split_monotone_ts(row.as_bytes()).is_some(),
            "{row} must qualify"
        );
        assert_eq!(encode(&strings(&[row]))[0], 1);
    }
    assert_differential(&strings(&CANONICAL));
    // Empty rows and an empty block.
    assert_differential(&strings(&["", "", ""]));
    assert_differential(&[]);
    // Only the first `t=` field counts: a later canonical one
    // does not rescue the row.
    assert_differential(&strings(&["t=x|t=1:2"]));
    assert_eq!(encode(&strings(&["t=x|t=1:2"]))[0], 0);
}

#[test]
fn shared_prefix_cuts_inside_multibyte_characters_roundtrip() {
    // é = C3 A9, è = C3 A8: consecutive prefixes and suffixes share the
    // lead byte, so front coding cuts mid-character on both sides.
    let rows = strings(&[
        "né|t=1:2|è日",
        "nè|t=2:3|é日",
        "n日|t=3:4|日本",
        "n日|t=4:5|日木",
    ]);
    let block = encode(&rows);
    assert_eq!(block[0], 1);
    assert_differential(&rows);
    // The cut really lands inside a character: row 2's prefix shares "n"
    // plus é's lead byte with row 1's.
    let prefix_shared_row2 = {
        let mut r = Reader {
            buf: &block,
            pos: 5,
        };
        r.front_coded(0).unwrap();
        r.varint().unwrap();
        r.varint().unwrap();
        r.front_coded(usize::MAX).unwrap();
        r.front_coded(usize::MAX).unwrap().0
    };
    assert_eq!(prefix_shared_row2, 2);
}

#[test]
fn a_cut_that_leaves_invalid_utf8_is_malformed() {
    // Row 1 "é|t=1:2"; row 2 claims to share é's lead byte only and
    // continues with ASCII: its text would be C3 7C … — not UTF-8.
    let mut block = vec![1u8];
    put_u32(&mut block, 2);
    put_varint(&mut block, 0);
    put_varint(&mut block, 5);
    block.extend_from_slice("é|t=".as_bytes());
    block.extend_from_slice(&[zigzag(1) as u8, zigzag(1) as u8, 0, 0]);
    put_varint(&mut block, 1);
    put_varint(&mut block, 3);
    block.extend_from_slice(b"|t=");
    block.extend_from_slice(&[zigzag(1) as u8, zigzag(1) as u8, 0, 0]);
    assert!(matches!(decode(&block), Err(WireError::Malformed(_))));
    assert!(matches!(
        decode_reference(&block),
        Err(WireError::Malformed(_))
    ));
}

#[test]
fn encoder_never_emits_a_block_its_decoder_refuses() {
    // 300 rows that differ only in their timestamps, 1 KiB each: columnar
    // coding would be ~3 KiB for ~300 KiB of rows — past the expansion cap,
    // so the encoder must fall back to mode 0, which cannot expand.
    let filler = "x".repeat(1_000);
    let rows: Vec<String> = (0..300)
        .map(|i| format!("m|t={i}:{}|{filler}", i + 1))
        .collect();
    let block = encode(&rows);
    assert_eq!(block[0], 0, "over-cap block falls to mode 0");
    assert_eq!(decode(&block).unwrap(), rows);
    // The same rows in a block short enough to stay under the cap keep
    // mode 1, byte-identical to the reference.
    assert_eq!(encode(&rows[..32])[0], 1);
    assert_differential(&rows[..32]);
}

fn checksum<R: AsRef<[u8]>>(rows: &[R]) -> u64 {
    rows.iter()
        .fold(CHECKSUM_SEED, |sum, row| checksum_row(sum, row.as_ref()))
}

#[test]
fn checksum_separates_every_single_bit_flip() {
    let rows: Vec<Vec<u8>> = ["gflops|t=1000:1001|v=3.5,node07", "", "é日", "12345678"]
        .iter()
        .map(|row| row.as_bytes().to_vec())
        .collect();
    let clean = checksum(&rows);
    for at in 0..rows.len() {
        for bit in 0..rows[at].len() * 8 {
            let mut flipped = rows.clone();
            flipped[at][bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum(&flipped), clean, "row {at} bit {bit}");
        }
    }
}

#[test]
fn checksum_is_sensitive_to_order_boundaries_and_multiplicity() {
    let base = checksum(&["alpha", "beta", "gamma"]);
    // Dropped, duplicated, swapped.
    assert_ne!(checksum(&["alpha", "gamma"]), base);
    assert_ne!(checksum(&["alpha", "beta", "beta", "gamma"]), base);
    assert_ne!(checksum(&["beta", "alpha", "gamma"]), base);
    assert_ne!(checksum(&["alpha", "beta"]), base);
    // Shifted row boundary, including across the 8-byte word edge.
    assert_ne!(checksum(&["ab", "c"]), checksum(&["a", "bc"]));
    assert_ne!(checksum(&["abc"]), checksum(&["ab", "c"]));
    assert_ne!(checksum(&["12345678", "9"]), checksum(&["1234567", "89"]));
    // Zero padding of the tail word is not confusable with real NULs, and
    // empty rows count.
    assert_ne!(checksum(&["a"]), checksum(&["a\0"]));
    assert_ne!(checksum::<&str>(&[]), checksum(&[""]));
    assert_ne!(checksum(&[""]), checksum(&["", ""]));
    assert_eq!(checksum::<&str>(&[]), CHECKSUM_SEED);
}

#[test]
fn version_one_frames_are_refused_by_version() {
    // Same layout, different checksum definition: the version byte is the
    // only thing that can tell a stale peer or an old spill file apart.
    let mut writer = FrameWriter::new(64);
    writer.push("gflops|t=1:2|x".into());
    let mut stream: Vec<u8> = writer.finish().concat();
    assert_eq!(stream[8], 2);
    stream[8] = 1;
    let mut reader = FrameReader::new();
    reader.feed(&stream);
    assert_eq!(
        reader.next_event().unwrap_err(),
        WireError::UnsupportedVersion(1)
    );

    let mut batch = encode_batch_stream_head(1);
    batch[8] = 1;
    let mut reader = BatchStreamReader::new();
    reader.feed(&batch);
    assert_eq!(
        reader.next_event().unwrap_err(),
        WireError::UnsupportedVersion(1)
    );

    let mut spill = encode_binary_segment(&WireSegment {
        series: "s".into(),
        start: 0.0,
        end: 1.0,
        filterable: true,
        inserted_unix_ms: 0,
        rows: vec!["m|t=0:1|x".into()],
    });
    spill[4] = 1;
    assert_eq!(
        decode_binary_segment(&spill).unwrap_err(),
        WireError::UnsupportedVersion(1)
    );
}
