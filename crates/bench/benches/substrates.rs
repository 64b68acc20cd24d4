//! Substrate microbenchmarks: XML parsing/serialization, the SQL engine,
//! the HTTP transport — the three cost centers under every PPerfGrid
//! query — the PPGB row-block codec under every streamed one, and the
//! gateway's segment cache under every repeated one.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use pperf_datastore::{SmgSpec, SmgStore};
use pperf_gateway::{SegmentCache, SegmentCacheConfig};
use pperf_httpd::{HttpClient, HttpServer, Request, Response, ServerConfig};
use pperf_soap::{FrameReader, FrameWriter, StreamEvent, DEFAULT_STREAM_FRAME_BYTES};
use pperf_xml::Element;
use std::sync::Arc;

fn xml_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("xml");
    for items in [1usize, 100, 5000] {
        let mut root = Element::new("soap:Envelope");
        let mut body = Element::new("soap:Body");
        let mut resp = Element::new("m:getPRResponse");
        let mut ret = Element::new("return");
        for i in 0..items {
            ret.push_child(Element::with_text(
                "item",
                format!("/Process/{i}|func_time|{i}.5"),
            ));
        }
        resp.push_child(ret);
        body.push_child(resp);
        root.push_child(body);
        let text = root.to_xml();
        group.bench_function(BenchmarkId::new("serialize", items), |b| {
            b.iter(|| std::hint::black_box(&root).to_xml());
        });
        group.bench_function(BenchmarkId::new("parse", items), |b| {
            b.iter(|| pperf_xml::parse(std::hint::black_box(&text)).unwrap());
        });
    }
    group.finish();
}

fn sql_engine(c: &mut Criterion) {
    let store = SmgStore::build(SmgSpec {
        num_execs: 1,
        procs: 8,
        events_per_proc: 1000,
        num_functions: 16,
        seed: 1,
    });
    let conn = store.database().connect();
    let mut group = c.benchmark_group("minidb");
    group.sample_size(20);
    group.bench_function("point_select", |b| {
        b.iter(|| {
            conn.query("SELECT COUNT(*) AS n FROM executions WHERE execid = 0")
                .unwrap()
        });
    });
    group.bench_function("scan_filter_8k_events", |b| {
        b.iter(|| {
            conn.query("SELECT COUNT(*) AS n FROM events WHERE procid = 3 AND starttime > 1.0")
                .unwrap()
        });
    });
    group.bench_function("join_events_functions", |b| {
        b.iter(|| {
            conn.query(
                "SELECT COUNT(*) AS n FROM events e, functions f \
                 WHERE e.funcid = f.funcid AND f.module = 'MPI'",
            )
            .unwrap()
        });
    });
    group.bench_function("group_by_procid", |b| {
        b.iter(|| {
            conn.query("SELECT procid, COUNT(*) AS n FROM events GROUP BY procid ORDER BY procid")
                .unwrap()
        });
    });
    group.finish();
}

/// The three statements the SMG98 wrapper sends, on the store the
/// `hetero_fanout` benchmark workload uses (8 executions × 8 processes × 125
/// events = 8 000 `events` rows, 24 functions). Every one of them scans the
/// whole `events` table, so time per iteration ÷ 8 000 is ns per scanned
/// event row — printed beside each median.
fn sql_smg_shapes(_: &mut Criterion) {
    let store = SmgStore::build(SmgSpec {
        num_execs: 8,
        procs: 8,
        events_per_proc: 125,
        num_functions: 24,
        ..SmgSpec::default()
    });
    let db = store.database();
    let conn = db.connect();
    let scanned = db.row_count("events").expect("events table") as f64;
    eprintln!("\n== minidb_smg ==");
    let per_row = |name: &str, run: &mut dyn FnMut() -> usize| {
        let returned = run();
        let mut samples: Vec<f64> = (0..20)
            .map(|_| {
                let started = std::time::Instant::now();
                for _ in 0..20 {
                    std::hint::black_box(run());
                }
                started.elapsed().as_nanos() as f64 / 20.0 / scanned
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        eprintln!(
            "minidb_smg/{name:<34} median {:>7.1} ns per scanned event row  ({scanned} scanned, {returned} returned)",
            samples[samples.len() / 2]
        );
    };
    // `func_time` / `func_calls` on a /Code/<module>/<function> focus.
    per_row("function_focus_aggregate_join", &mut || {
        conn.query(
            "SELECT COUNT(*) AS calls, SUM(e.endtime - e.starttime) AS total \
             FROM events e, functions f \
             WHERE e.execid = 0 AND e.funcid = f.funcid \
             AND f.module = 'MPI' AND f.name = 'MPI_Allgather'",
        )
        .unwrap()
        .len()
    });
    // The batched form for /Process/N foci.
    per_row("process_inlist_group_by", &mut || {
        conn.query(
            "SELECT e.procid AS pid, COUNT(*) AS calls, SUM(e.endtime - e.starttime) AS total \
             FROM events e WHERE e.execid = 0 AND e.procid IN (0, 1, 2, 3) GROUP BY e.procid",
        )
        .unwrap()
        .len()
    });
    // `event_intervals` for one process, streamed off the lazy cursor.
    per_row("event_intervals_cursor", &mut || {
        let mut cursor = conn
            .query_cursor(
                "SELECT e.procid AS procid, e.starttime AS s, e.endtime AS t, e.bytes AS b \
                 FROM events e WHERE e.execid = 0 AND e.procid = 3",
            )
            .unwrap();
        let mut rows = 0;
        loop {
            let batch = cursor.next_batch(256).unwrap();
            if batch.is_empty() {
                return rows;
            }
            rows += std::hint::black_box(batch).len();
        }
    });
}

fn http_roundtrip(c: &mut Criterion) {
    let handler = Arc::new(|req: &Request| Response::ok("text/xml", req.body.clone()));
    let server = HttpServer::bind("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
    let client = HttpClient::new();
    let url = format!("{}/echo", server.base_url());
    let mut group = c.benchmark_group("httpd");
    group.sample_size(30);
    for size in [64usize, 8 * 1024, 512 * 1024] {
        let body = vec![b'x'; size];
        group.bench_function(BenchmarkId::new("echo_roundtrip", size), |b| {
            b.iter(|| client.post(&url, "text/xml", body.clone()).unwrap());
        });
    }
    group.finish();
}

/// Rows per timed iteration of the `row_block` group: at 1 000 rows the
/// reported microseconds per iteration read directly as ns/row.
const ROW_BLOCK_ROWS: usize = 1_000;

fn encode_stream(rows: Vec<String>) -> Vec<Vec<u8>> {
    let mut writer = FrameWriter::new(DEFAULT_STREAM_FRAME_BYTES);
    let mut frames = Vec::new();
    for row in rows {
        frames.extend(writer.push(row));
    }
    frames.extend(writer.finish());
    frames
}

fn decode_stream(frames: &[Vec<u8>]) -> u64 {
    let mut reader = FrameReader::new();
    let mut seen = 0;
    for frame in frames {
        reader.feed(frame);
        while let Some(event) = reader.next_event().expect("own stream decodes") {
            match event {
                StreamEvent::Rows(rows) => {
                    std::hint::black_box(rows);
                }
                StreamEvent::End { rows } => seen = rows,
            }
        }
    }
    seen
}

/// The PPGB row path — checksum, row-block coding, framing — through
/// `FrameWriter`/`FrameReader`, on 50-byte rows of the two shapes the
/// encoder distinguishes: `t=`-marked monotone rows (mode 1, columnar) and
/// opaque rows (mode 0, packed).
fn row_block(c: &mut Criterion) {
    let columnar: Vec<String> = (0..ROW_BLOCK_ROWS)
        .map(|i| {
            let t = 1_000_000 + i;
            format!(
                "gflops|t={t}:{}|v=3.5,node{:02},rank{i:04},k=1",
                t + 1,
                i % 16
            )
        })
        .collect();
    let packed: Vec<String> = (0..ROW_BLOCK_ROWS)
        .map(|i| {
            format!(
                "gflops|sample {i:08}|v=3.5,node{:02},rank{i:04},ok=1y",
                i % 16
            )
        })
        .collect();
    let mut group = c.benchmark_group("row_block");
    group.sample_size(20);
    for (shape, rows) in [("columnar", columnar), ("packed", packed)] {
        assert!(rows.iter().all(|row| row.len() == 50));
        let frames = encode_stream(rows.clone());
        let wire_bytes: usize = frames.iter().map(Vec::len).sum();
        eprintln!(
            "row_block/{shape}: {:.2} wire B/row for 50 B rows, {} frames per {ROW_BLOCK_ROWS} rows",
            wire_bytes as f64 / ROW_BLOCK_ROWS as f64,
            frames.len() - 1,
        );
        group.bench_function(BenchmarkId::new("encode_us_per_1000_rows", shape), |b| {
            b.iter_batched(|| rows.clone(), encode_stream, BatchSize::SmallInput);
        });
        group.bench_function(BenchmarkId::new("decode_us_per_1000_rows", shape), |b| {
            b.iter(|| assert_eq!(decode_stream(&frames), ROW_BLOCK_ROWS as u64));
        });
    }
    group.finish();
}

/// The gateway's segment cache on benchmark-shaped series (512 marked
/// unit-interval rows): a hit is two binary searches and a copy of the
/// rows handed over, so its cost is reported per returned row, at the
/// window widths the `windows_*` workloads use; a merge-insert (eight
/// touching 128-row fetches growing one segment) per inserted row.
fn segment_cache(c: &mut Criterion) {
    const SPANS: usize = 512;
    let rows = |from: usize, to: usize| -> Arc<Vec<String>> {
        Arc::new(
            (from..to)
                .map(|t| format!("gflops|t={t}:{}|v=3.5,node07,rank{t:04},k=1", t + 1))
                .collect(),
        )
    };
    let cache = SegmentCache::new(SegmentCacheConfig::default());
    cache.insert("series", (0.0, SPANS as f64), rows(0, SPANS));
    let mut group = c.benchmark_group("segment_cache");
    group.sample_size(20);
    for width in [8usize, 32, 128] {
        // Bounds between the unit marks: exactly `width` rows intersect.
        let windows: Vec<(f64, f64)> = (0..1024 / width)
            .map(|i| (i * 37) % (SPANS - width))
            .map(|start| (start as f64 + 0.5, (start + width) as f64 - 0.5))
            .collect();
        group.bench_function(BenchmarkId::new("lookup_us_per_1024_rows", width), |b| {
            b.iter(|| {
                for window in &windows {
                    std::hint::black_box(cache.lookup("series", *window));
                }
            });
        });
    }
    let fetches: Vec<_> = (0..8)
        .map(|i| (i * 128, rows(i * 128, (i + 1) * 128)))
        .collect();
    group.bench_function("merge_insert_us_per_1024_rows", |b| {
        b.iter_batched(
            || SegmentCache::new(SegmentCacheConfig::default()),
            |cache| {
                for (start, rows) in &fetches {
                    let window = (*start as f64, (*start + 128) as f64);
                    cache.insert("series", window, Arc::clone(rows));
                }
                assert_eq!(cache.len(), 1);
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    xml_roundtrip,
    sql_engine,
    sql_smg_shapes,
    http_roundtrip,
    row_block,
    segment_cache
);
criterion_main!(benches);
