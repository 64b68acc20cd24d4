//! The traced run: per-layer metrics for one workload.
//!
//! Three sources, all recorded from the benchmark's own files:
//!
//! * **the Table-4 ladder** — the workload's representative single-target
//!   query replayed by one client at successive depths (wrapper in-process,
//!   Execution service in-process, stub over loopback, gateway, panel), so
//!   a layer's self time is its rung minus the rung below, exactly the
//!   thesis's "total − mapping" subtraction;
//! * **layer probes** — each layer's public functions timed in isolation on
//!   the workload's own payload (its representative rows, its SOAP
//!   documents, its window sequence);
//! * **the traced window** — the workload's closed loop with spans recorded
//!   around every operation, gateway query and wrapper call, a counting
//!   allocator switched on, and the gateway's counters read before and
//!   after.
//!
//! A layer the workload bypasses is still probed in isolation (on the
//! deployment of the workload that does use it), so every metric is a
//! measured number on every workload; `metrics::PER_LAYER` says where each
//! one is expected to move an end-to-end metric.

use crate::alloc;
use crate::host;
use crate::measure::{run_window, Schedule, WindowReport};
use crate::metrics::PER_LAYER;
use crate::report::{self, Metric};
use crate::spans::{self, ladder_self_times, LayerTotals, Rung};
use crate::stats::median;
use crate::workloads::{
    planned_handles, pr, tiny_app, Fixture, Kind, MappingStores, Op, Representative, Windows,
    Workload,
};
use pperf_client::{ExecQuery, ExecutionQueryPanel};
use pperf_gateway::{
    series_key, FederatedQuery, GatewaySnapshot, SegmentCache, SegmentCacheConfig,
};
use pperf_httpd::{HttpClient, HttpServer, Request, Response, ServerConfig, Url};
use pperf_ogsi::ServicePort;
use pperf_soap::wire::{
    decode_binary_segment, encode_binary_segment, FrameReader, FrameWriter, StreamEvent,
    WireSegment, DEFAULT_STREAM_FRAME_BYTES, STREAM_CONTENT_TYPE,
};
use pperf_soap::{decode_call, decode_response, encode_call, encode_response, Value};
use pperfgrid::{ExecutionService, ExecutionStub, ExecutionWrapper, EXECUTION_NS};
use ppg_context::CallContext;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows a row-codec probe runs over: the workload's representative rows,
/// cycled up to this many so per-row numbers are not one frame's overhead.
const CODEC_ROWS: usize = 4096;
/// Bytes a stream probe moves per request.
const STREAM_PROBE_BYTES: usize = 1 << 20;
/// Operations whose `(series, window, rows)` the cache probes replay.
const CACHE_REPLAY_OPS: usize = 400;

/// Everything one traced run of one workload produced.
pub struct TracedReport {
    pub workload: Workload,
    pub seed: u64,
    /// Store kind of the ladder's representative query.
    rep_kind: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    ladder: Vec<Rung>,
    /// Whether the gateway rung reached the site (false: answered from the
    /// segment cache, so no lower rung ran inside it).
    gateway_called_upstream: bool,
    panel_us: f64,
    layer_table: Vec<(&'static str, LayerTotals)>,
    span_count: usize,
    span_file: PathBuf,
    pinned_cpu: Option<usize>,
    loadavg_start: f64,
    loadavg_end: f64,
    reference: WindowReport,
    traced: WindowReport,
}

impl TracedReport {
    /// Every per-layer metric, in registry order.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|m| {
                let value = *self
                    .values
                    .get(m.name)
                    .unwrap_or_else(|| panic!("traced run did not measure {}", m.name));
                (m.name, value, m.unit)
            })
            .collect()
    }
}

// ------------------------------------------------------------------- timing

/// Median seconds per call of `work`: seven batches, each sized from a
/// first call to last a seventh of `budget`.
fn bench(budget: Duration, mut work: impl FnMut()) -> f64 {
    work();
    let started = Instant::now();
    work();
    let once = started.elapsed().as_secs_f64().max(1e-9);
    let iters = ((budget.as_secs_f64() / 7.0 / once) as u64).clamp(1, 1_000_000);
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..iters {
                work();
            }
            started.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    median(&samples)
}

/// Median seconds per call of `work` when each call consumes an input that
/// `prepare` builds outside the timed section (calls are timed one by one,
/// so `work` should take tens of microseconds or more).
fn bench_prepared<I>(
    budget: Duration,
    mut prepare: impl FnMut() -> I,
    mut work: impl FnMut(I),
) -> f64 {
    work(prepare());
    let began = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (began.elapsed() < budget && samples.len() < 10_000) {
        let input = prepare();
        let started = Instant::now();
        work(input);
        samples.push(started.elapsed().as_secs_f64());
    }
    median(&samples)
}

const US: f64 = 1e6;
const NS: f64 = 1e9;
const MB: f64 = 1e6;

struct Probe<'a> {
    values: &'a mut BTreeMap<&'static str, f64>,
    /// Time one probe may spend measuring.
    budget: Duration,
}

impl Probe<'_> {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            crate::metrics::per_layer(name).is_some(),
            "unregistered per-layer metric {name}"
        );
        assert!(value.is_finite(), "{name} is not a number: {value}");
        self.values.insert(name, value);
    }
}

// ------------------------------------------------------------------- ladder

fn cycled_rows(rows: &[String], n: usize) -> Vec<String> {
    assert!(!rows.is_empty(), "representative query returned no rows");
    rows.iter()
        .cycle()
        .take(n.max(rows.len()))
        .cloned()
        .collect()
}

/// Rungs 0–4 for the workload's representative query; fills the ladder
/// metrics and returns `(rungs bottom first, panel_us, gateway reached
/// the site)`.
fn ladder(p: &mut Probe, fixture: &Fixture, rep_rows: &[String]) -> (Vec<Rung>, f64, bool) {
    let rep = &fixture.rep;
    let gateway = fixture.gateway();
    let budget = p.budget * 3;

    // Rung 0: the mapping layer alone.
    let rung0 = bench(budget, || {
        black_box(rep.wrapper.get_pr(&rep.pr).expect("rung 0 getPR"));
    }) * US;
    p.set("pperfgrid.wrapper.rows_per_query", rep_rows.len() as f64);

    // Rung 1: the Execution service, invoked in-process with the call the
    // container would hand it.
    let service = ExecutionService::new(rep.exec_id.clone(), Arc::clone(&rep.wrapper), false);
    let call = decode_call(&encode_call(
        "getPR",
        EXECUTION_NS,
        &ExecutionStub::pr_params(&rep.pr),
    ))
    .expect("decode own getPR call");
    let rung1 = bench(budget, || {
        black_box(service.invoke("getPR", &call).expect("rung 1 getPR"));
    }) * US;
    p.set("pperfgrid.execution.self_us", rung1 - rung0);

    // Rung 2: the same call through the stub, over loopback HTTP.
    let handle = planned_handles(gateway, &rep.single)
        .into_iter()
        .next()
        .expect("representative execution is planned");
    let stub = ExecutionStub::bind(Arc::clone(&fixture.client), &handle);
    let rung2 = bench(budget, || {
        black_box(stub.get_pr(&rep.pr).expect("rung 2 getPR"));
    }) * US;
    p.set("ogsi.stub.call_us", rung2);
    p.set("ogsi.services_overhead_us", rung2 - rung1);

    // Rung 3: the gateway answering the single-target federated form.
    let before = gateway.snapshot().upstream_calls;
    let rung3 = bench(budget, || {
        let result = gateway.query(&rep.single);
        assert!(result.errors.is_empty(), "rung 3: {:?}", result.errors);
        black_box(result);
    }) * US;
    let reached_site = gateway.snapshot().upstream_calls > before + 1;
    p.set("gateway.query_us", rung3);

    // Fan-out overhead: the full form against its slowest single site.
    let time_query = |q: &FederatedQuery| {
        bench(budget, || {
            let result = gateway.query(q);
            assert!(
                result.errors.is_empty(),
                "fan-out probe: {:?}",
                result.errors
            );
            black_box(result);
        }) * US
    };
    let full = time_query(&rep.full);
    let slowest_site = rep.per_site.iter().map(time_query).fold(0.0, f64::max);
    p.set("gateway.fanout_overhead_us", full - slowest_site);

    // Rung 4: the client panel running that one query on that one execution.
    let mut panel = ExecutionQueryPanel::open(Arc::clone(&fixture.client), &[handle]);
    panel.add_query(ExecQuery::once(rep.pr.clone()));
    let panel_us = bench(budget, || {
        black_box(panel.run_queries().expect("rung 4 run_queries"));
    }) * US;
    p.set("client.panel_us", panel_us);

    let rungs = vec![
        Rung {
            name: "pperfgrid.wrapper (mapping)",
            total_us: rung0,
        },
        Rung {
            name: "pperfgrid.execution",
            total_us: rung1,
        },
        Rung {
            name: "ogsi stub + container (services)",
            total_us: rung2,
        },
        Rung {
            name: "gateway.query",
            total_us: rung3,
        },
    ];
    (rungs, panel_us, reached_site)
}

// ------------------------------------------------------------ mapping layer

fn mapping_probes(p: &mut Probe, fixture: &Fixture, out_dir: &Path) {
    // The four heterogeneous stores: the workload's own on `hetero_fanout`,
    // built here otherwise.
    let scratch = out_dir.join(format!("stores-{}", std::process::id()));
    let built;
    let stores = match &fixture.kind {
        Kind::Hetero(h) => &h.stores,
        _ => {
            built = MappingStores::build(&scratch);
            &built
        }
    };
    for (metric, app, exec_id, query) in stores.representatives() {
        let exec = app.execution(&exec_id).expect("representative execution");
        let secs = bench(p.budget, || {
            black_box(exec.get_pr(&query).expect("mapping probe getPR"));
        });
        p.set(metric, secs * US);
    }

    // The zero-cost wrapper the bench workloads sit on: their floor.
    let (bench_exec, bench_query) = if fixture.rep.kind == "bench" {
        (Arc::clone(&fixture.rep.wrapper), fixture.rep.pr.clone())
    } else {
        let exec = Arc::clone(&tiny_app().execs[0]) as Arc<dyn ExecutionWrapper>;
        (exec, pr("gflops", &["/Execution"]))
    };
    let secs = bench(p.budget, || {
        black_box(
            bench_exec
                .get_pr(&bench_query)
                .expect("bench wrapper getPR"),
        );
    });
    p.set("pperfgrid.wrapper.get_pr_us.bench", secs * US);

    // Streaming form into a null sink.
    let rep = &fixture.rep;
    let mut rows = 0u64;
    let secs = bench(p.budget, || {
        rows = rep
            .wrapper
            .get_pr_stream(&rep.pr, &mut |batch| {
                black_box(batch);
                Ok(())
            })
            .expect("stream probe");
    });
    p.set("pperfgrid.wrapper.stream_rows_per_s", rows as f64 / secs);

    // minidb under the HPL and SMG stores.
    let hpl = stores.hpl_db.connect();
    let secs = bench(p.budget, || {
        black_box(
            hpl.query("SELECT gflops FROM hpl_runs WHERE runid = 100")
                .expect("point query"),
        );
    });
    p.set("minidb.point_query_us", secs * US);

    let smg = stores.smg_db.connect();
    let events = stores.smg_db.row_count("events").expect("SMG events table") as f64;
    let secs = bench(p.budget, || {
        black_box(
            smg.query(
                "SELECT e.procid AS pid, COUNT(*) AS calls, SUM(e.endtime - e.starttime) AS total \
                 FROM events e WHERE e.execid = 0 AND e.procid IN (0, 1, 2, 3) GROUP BY e.procid",
            )
            .expect("IN-list scan"),
        );
    });
    p.set("minidb.inlist_scan_rows_per_s", events / secs);

    let mut yielded = 0usize;
    let secs = bench(p.budget, || {
        let mut cursor = smg
            .query_cursor("SELECT procid, starttime, endtime, bytes FROM events WHERE execid = 0")
            .expect("open cursor");
        yielded = 0;
        loop {
            let batch = cursor.next_batch(256).expect("cursor batch");
            if batch.is_empty() {
                break;
            }
            yielded += batch.len();
            black_box(batch);
        }
    });
    p.set("minidb.cursor_rows_per_s", yielded as f64 / secs);
    drop(hpl);
    drop(smg);
    let _ = std::fs::remove_dir_all(&scratch);
}

// -------------------------------------------------------------- wire layers

/// `soap.codec`, `xml` and `context` on the representative call's own SOAP
/// documents. Returns `(call document, response document)`.
fn codec_probes(p: &mut Probe, rep: &Representative, rep_rows: &[String]) -> (String, String) {
    let params = ExecutionStub::pr_params(&rep.pr);
    let call_xml = encode_call("getPR", EXECUTION_NS, &params);
    let answer = Value::StrArray(rep_rows.to_vec());
    let response_xml = encode_response("getPR", &answer);

    let secs = bench(p.budget, || {
        black_box(encode_call("getPR", EXECUTION_NS, &params));
    });
    p.set("soap.codec.encode_call_us", secs * US);
    let secs = bench(p.budget, || {
        black_box(decode_call(&call_xml).expect("decode call"));
    });
    p.set("soap.codec.decode_call_us", secs * US);
    let secs = bench(p.budget, || {
        black_box(encode_response("getPR", &answer));
    });
    p.set("soap.codec.encode_response_us", secs * US);
    let secs = bench(p.budget, || {
        black_box(decode_response(&response_xml).expect("decode response"));
    });
    p.set("soap.codec.decode_response_us", secs * US);
    p.set(
        "soap.codec.xml_bytes_per_row",
        response_xml.len() as f64 / rep_rows.len() as f64,
    );

    let secs = bench(p.budget, || {
        black_box(pperf_xml::parse(&response_xml).expect("parse response document"));
    });
    p.set("xml.parse_mb_per_s", response_xml.len() as f64 / MB / secs);
    let document = pperf_xml::parse(&response_xml).expect("parse response document");
    let mut written = 0usize;
    let secs = bench(p.budget, || {
        let text = document.to_xml();
        written = text.len();
        black_box(text);
    });
    p.set("xml.write_mb_per_s", written as f64 / MB / secs);

    let spans: Vec<ppg_context::Span> = (0..8)
        .map(|i| {
            ppg_context::Span::new(
                [
                    "gateway",
                    "ogsi.stub",
                    "ogsi.container",
                    "pperfgrid.execution",
                ][i % 4],
                "getPR",
                format!("127.0.0.1:{}", 40_000 + i),
                137 * (i as u64 + 1),
                "ok",
            )
        })
        .collect();
    let secs = bench(p.budget, || {
        let text = ppg_context::encode_trace(&spans);
        let back = ppg_context::decode_trace(&text);
        let ctx = CallContext::from_wire(Some("bq42"), Some("5000"), Some("t3.a0"));
        ctx.extend_spans(back);
        black_box(ctx);
    });
    p.set("context.trace_roundtrip_ns", secs * NS);
    (call_xml, response_xml)
}

/// `soap.wire`: the stream framing and the spill segment format over the
/// workload's rows. Returns the encoded stream frames.
fn wire_probes(p: &mut Probe, rep_rows: &[String]) -> Vec<Vec<u8>> {
    let rows = cycled_rows(rep_rows, CODEC_ROWS);
    let n = rows.len() as f64;
    let encode = |rows: Vec<String>| -> Vec<Vec<u8>> {
        let mut writer = FrameWriter::new(DEFAULT_STREAM_FRAME_BYTES);
        let mut frames = Vec::new();
        for row in rows {
            frames.extend(writer.push(row));
        }
        frames.extend(writer.finish());
        frames
    };
    let secs = bench_prepared(
        p.budget,
        || rows.clone(),
        |rows| {
            black_box(encode(rows));
        },
    );
    p.set("soap.wire.encode_ns_per_row", secs * NS / n);

    let frames = encode(rows.clone());
    let bytes: usize = frames.iter().map(Vec::len).sum();
    // The trailer is a frame too, but carries no rows.
    p.set("soap.wire.bytes_per_row", bytes as f64 / n);
    p.set(
        "soap.wire.frames_per_krow",
        (frames.len() - 1) as f64 * 1000.0 / n,
    );
    let secs = bench(p.budget, || {
        let mut reader = FrameReader::new();
        let mut seen = 0u64;
        for frame in &frames {
            reader.feed(frame);
            while let Some(event) = reader.next_event().expect("decode own stream") {
                match event {
                    StreamEvent::Rows(rows) => {
                        black_box(rows);
                    }
                    StreamEvent::End { rows } => seen = rows,
                }
            }
        }
        assert_eq!(seen as usize, rows.len(), "stream probe lost rows");
    });
    p.set("soap.wire.decode_ns_per_row", secs * NS / n);

    let segment = WireSegment {
        series: series_key(
            "http://127.0.0.1:40000/ogsa/services/probe",
            "gflops",
            &[],
            "",
        ),
        start: 0.0,
        end: n,
        filterable: true,
        inserted_unix_ms: 1_750_000_000_000,
        rows,
    };
    let secs = bench(p.budget, || {
        black_box(encode_binary_segment(&segment));
    });
    p.set("soap.wire.segment_encode_ns_per_row", secs * NS / n);
    let encoded = encode_binary_segment(&segment);
    let secs = bench(p.budget, || {
        black_box(decode_binary_segment(&encoded).expect("decode own segment"));
    });
    p.set("soap.wire.segment_decode_ns_per_row", secs * NS / n);
    frames
}

/// `httpd`: the benchmark's own echo/stream handler behind `HttpServer`,
/// driven through `HttpClient` — the transport with no SOAP on top.
fn httpd_probes(p: &mut Probe, call_xml: &str, response_xml: &str, frames: &[Vec<u8>]) {
    let payload = response_xml.as_bytes().to_vec();
    // One request's worth of stream: whole copies of the frame sequence.
    let per_copy: usize = frames.iter().map(Vec::len).sum();
    let copies = STREAM_PROBE_BYTES.div_ceil(per_copy.max(1));
    let wire_frames: Vec<Vec<u8>> = frames.to_vec();
    let handler = move |request: &Request| -> Response {
        match request.path.as_str() {
            "/echo" => Response::ok("text/xml", request.body.clone()),
            "/payload" => Response::ok("text/xml", payload.clone()),
            "/stream" => {
                let (response, writer) = Response::stream(STREAM_CONTENT_TYPE);
                for _ in 0..copies {
                    for frame in &wire_frames {
                        writer.send(frame.clone());
                    }
                }
                writer.close();
                response
            }
            _ => Response::text(pperf_httpd::Status(404), "no such probe"),
        }
    };
    let config = ServerConfig::default();
    assert!(
        config.injected_latency.is_none(),
        "zero-sleep guard: server config injects latency"
    );
    let mut server =
        HttpServer::bind("127.0.0.1:0", config, Arc::new(handler)).expect("bind probe server");
    let base = server.base_url();
    let client = HttpClient::new();
    let body = call_xml.as_bytes().to_vec();

    let echo = format!("{base}/echo");
    let secs = bench(p.budget, || {
        let response = client.post(&echo, "text/xml", body.clone()).expect("echo");
        assert_eq!(response.body.len(), body.len());
    });
    p.set("httpd.rtt_us_small", secs * US);

    let payload_url = format!("{base}/payload");
    let secs = bench(p.budget, || {
        let response = client
            .post(&payload_url, "text/xml", body.clone())
            .expect("payload");
        assert_eq!(response.body.len(), response_xml.len());
    });
    p.set("httpd.rtt_us_payload", secs * US);

    // Two keep-alive connections, one thread each, for the probe's budget.
    let stop = AtomicBool::new(false);
    let window = p.budget * 3;
    let started = Instant::now();
    let served: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let client = HttpClient::new();
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        client.post(&echo, "text/xml", body.clone()).expect("echo");
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        workers
            .into_iter()
            .map(|w| w.join().expect("echo client panicked"))
            .sum()
    });
    p.set(
        "httpd.rps_2conn",
        served as f64 / started.elapsed().as_secs_f64(),
    );

    let stream_url = Url::parse(&format!("{base}/stream")).expect("probe url");
    let request = Request::post(stream_url.path.clone(), "text/xml", body.clone());
    let mut buf = vec![0u8; 64 * 1024];
    let mut received = 0usize;
    let secs = bench(p.budget * 2, || {
        let mut streaming = client
            .send_streaming(&stream_url, &request, None)
            .expect("open stream");
        received = 0;
        loop {
            let n = streaming.read_data(&mut buf).expect("read stream");
            if n == 0 {
                break;
            }
            received += n;
        }
    });
    assert_eq!(received, per_copy * copies, "stream probe lost bytes");
    p.set("httpd.stream_mb_per_s", received as f64 / MB / secs);
    server.shutdown();
}

// ------------------------------------------------------------ gateway cache

/// `(series, window, rows)` of every execution the first
/// [`CACHE_REPLAY_OPS`] generated operations touch.
type CacheReplay = Vec<(String, (f64, f64), Arc<Vec<String>>)>;

fn cache_replay(fixture: &Fixture, windows: &Windows, seed: u64) -> CacheReplay {
    let mut gen = fixture.op_gen(seed);
    let mut replay = Vec::new();
    for _ in 0..CACHE_REPLAY_OPS {
        let Op::Federated { query, .. } = fixture.next_op(&mut gen) else {
            continue;
        };
        let group: usize = query.selector.as_ref().map_or(0, |(_, value)| {
            value.parse().expect("numeric group selector")
        });
        let window: (f64, f64) = (
            query.start.parse().expect("numeric window start"),
            query.end.parse().expect("numeric window end"),
        );
        let pr = query.pr_query();
        let first = group * windows.group_size();
        for exec in &windows.app.execs[first..first + windows.group_size()] {
            let instance = format!("http://127.0.0.1:40000/ogsa/services/probe/{}", exec.id());
            replay.push((
                series_key(&instance, &pr.metric, &pr.foci, &pr.rtype),
                window,
                Arc::new(exec.get_pr(&pr).expect("replay rows")),
            ));
        }
    }
    replay
}

/// `SegmentCache` operations replaying a window workload's own sequence on
/// fresh caches with that workload's budget.
fn cache_probes(p: &mut Probe, fixture: &Fixture, seed: u64, out_dir: &Path) {
    let Kind::Windows(windows) = &fixture.kind else {
        unreachable!("cache probes run on a window deployment")
    };
    let replay = cache_replay(fixture, windows, seed);
    let spill_dir = out_dir.join(format!("probe-spill-{}", std::process::id()));
    let config = |spill: bool| SegmentCacheConfig {
        max_bytes: windows.cache_budget,
        spill_dir: spill.then(|| spill_dir.clone()),
        ..SegmentCacheConfig::default()
    };
    let spills = windows.spill_dir.is_some();
    let filled = |spill: bool| {
        let cache = SegmentCache::new(config(spill));
        for (series, window, rows) in &replay {
            cache.insert(series, *window, Arc::clone(rows));
        }
        cache
    };
    let per_entry = replay.len() as f64;

    let secs = bench_prepared(
        p.budget,
        || SegmentCache::new(config(spills)),
        |cache| {
            for (series, window, rows) in &replay {
                cache.insert(series, *window, Arc::clone(rows));
            }
            black_box(cache);
        },
    );
    p.set("gateway.cache.insert_us", secs * US / per_entry);

    let cache = filled(spills);
    let secs = bench(p.budget, || {
        for (series, window, _) in &replay {
            black_box(cache.lookup(series, *window));
        }
    });
    p.set("gateway.cache.lookup_us", secs * US / per_entry);
    drop(cache);

    let mut series: Vec<&String> = replay.iter().map(|(s, _, _)| s).collect();
    series.sort_unstable();
    series.dedup();
    let secs = bench_prepared(
        p.budget,
        || filled(spills),
        |cache| {
            for s in &series {
                cache.remove(s);
            }
            black_box(cache);
        },
    );
    p.set("gateway.cache.remove_us", secs * US / series.len() as f64);

    // Spill always needs a directory, whether or not the workload has one.
    let cache = filled(true);
    let resident = cache.counters().segments.max(1) as f64;
    let secs = bench(p.budget, || cache.spill_now());
    p.set("gateway.cache.spill_us", secs * US / resident);
    drop(cache);
    let _ = std::fs::remove_dir_all(&spill_dir);
}

/// Spin (yielding) until `done`; the push plane answers in microseconds, so
/// five seconds without an answer is a lost event, not a slow one.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let started = Instant::now();
    while !done() {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "{what} not observed within 5 s"
        );
        std::thread::yield_now();
    }
}

/// The push plane on a window deployment: publish `cache.invalidate` and
/// watch the gateway's own counters for it.
fn notify_probes(p: &mut Probe, fixture: &Fixture) {
    let Kind::Windows(windows) = &fixture.kind else {
        unreachable!("notify probes run on a window deployment")
    };
    let gateway = fixture.gateway();
    // Publish → the cached series for that instance is gone.
    let rounds = (p.budget.as_millis() as usize / 2).clamp(5, 200);
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let refill = gateway.query(&fixture.rep.single);
        assert!(
            refill.errors.is_empty(),
            "notify probe refill: {:?}",
            refill.errors
        );
        let before = gateway.snapshot().notify_invalidations;
        let started = Instant::now();
        windows
            .publish_invalidate(0)
            .expect("publish cache.invalidate");
        wait_until("cache invalidation", || {
            gateway.snapshot().notify_invalidations > before
        });
        samples.push(started.elapsed().as_secs_f64());
    }
    p.set("notify.publish_to_invalidate_us", median(&samples) * US);

    // A burst of events until the gateway's sink has counted them all —
    // short enough to fit the subscription's 256-event queue, which drops
    // its oldest entry when a publisher outruns the consumer.
    let burst = 200u64;
    let before = gateway.snapshot().notify_events;
    let started = Instant::now();
    for i in 0..burst {
        windows
            .publish_invalidate(i as usize % windows.app.execs.len())
            .expect("publish cache.invalidate");
    }
    wait_until("event burst", || {
        gateway.snapshot().notify_events >= before + burst
    });
    p.set(
        "notify.events_per_s",
        burst as f64 / started.elapsed().as_secs_f64(),
    );
}

// ------------------------------------------------------------ traced window

fn per_k(count: u64, queries: u64) -> f64 {
    count as f64 * 1000.0 / queries.max(1) as f64
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Gateway counter deltas over the traced window (exact counts).
fn window_counters(p: &mut Probe, before: &GatewaySnapshot, after: &GatewaySnapshot) {
    let queries = after.queries - before.queries;
    let upstream = after.upstream_calls - before.upstream_calls;
    let coalesced = after.coalesced - before.coalesced;
    let hits = after.cache_hits - before.cache_hits;
    let lookups = hits + (after.cache_misses - before.cache_misses);
    p.set(
        "gateway.upstream_calls_per_query",
        upstream as f64 / queries.max(1) as f64,
    );
    p.set(
        "gateway.coalesced_share",
        share(coalesced, upstream + coalesced),
    );
    p.set(
        "gateway.plan.snapshot_refreshes_per_kquery",
        per_k(
            after.plan_snapshot_refreshes - before.plan_snapshot_refreshes,
            queries,
        ),
    );
    p.set("gateway.cache.hit_rate", share(hits, lookups));
    p.set(
        "gateway.cache.range_hit_share",
        share(after.cache_range_hits - before.cache_range_hits, lookups),
    );
    p.set(
        "gateway.cache.partial_hit_share",
        share(
            after.cache_partial_hits - before.cache_partial_hits,
            lookups,
        ),
    );
    p.set(
        "gateway.cache.evictions_per_kquery",
        per_k(after.cache_evictions - before.cache_evictions, queries),
    );
    p.set(
        "gateway.cache.spill_writes_per_kquery",
        per_k(
            after.cache_spill_writes - before.cache_spill_writes,
            queries,
        ),
    );
    p.set(
        "gateway.cache.spill_loads_per_kquery",
        per_k(after.cache_spill_loads - before.cache_spill_loads, queries),
    );
    p.set("gateway.cache.bytes", after.cache_bytes as f64);
    p.set(
        "notify.resyncs",
        (after.notify_resyncs - before.notify_resyncs) as f64,
    );
    p.set(
        "notify.invalidations_per_kquery",
        per_k(
            after.notify_invalidations - before.notify_invalidations,
            queries,
        ),
    );
}

/// The traced run of one workload.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    schedule: Schedule,
    out_dir: &Path,
) -> TracedReport {
    let loadavg_start = host::loadavg1();
    let pinned_cpu = host::pin_to_one_cpu();
    let mut values = BTreeMap::new();
    let fixture = Fixture::deploy(workload, out_dir, true);
    let mut gen = fixture.op_gen(seed);

    // Reference window with tracing off, then the same loop traced: the
    // difference is what the tracing itself costs.
    let quarter = schedule.window / 4;
    run_window(&fixture, &mut gen, schedule.warmup, false);
    let reference = run_window(&fixture, &mut gen, quarter, false);
    let before = fixture.gateway().snapshot();
    let (allocs0, bytes0) = alloc::counters();
    spans::set_tracing(true);
    alloc::set_counting(true);
    let traced = run_window(&fixture, &mut gen, quarter, true);
    alloc::set_counting(false);
    spans::set_tracing(false);
    let (allocs1, bytes1) = alloc::counters();
    let after = fixture.gateway().snapshot();
    let recorded = spans::drain();

    let mut p = Probe {
        values: &mut values,
        budget: if schedule.smoke {
            Duration::from_millis(10)
        } else {
            Duration::from_millis(70)
        },
    };
    window_counters(&mut p, &before, &after);
    let ops = traced.attempted.max(1) as f64;
    p.set("process.allocs_per_query", (allocs1 - allocs0) as f64 / ops);
    p.set(
        "process.alloc_bytes_per_query",
        (bytes1 - bytes0) as f64 / ops,
    );
    p.set(
        "process.trace_overhead_pct",
        (traced.latency_p50_ms - reference.latency_p50_ms) / reference.latency_p50_ms * 100.0,
    );
    p.set("client.latency_p99_ms", reference.latency_p99_ms);

    let rep_rows = fixture
        .rep
        .wrapper
        .get_pr(&fixture.rep.pr)
        .expect("representative query");
    let (ladder, panel_us, gateway_called_upstream) = ladder(&mut p, &fixture, &rep_rows);
    let warm_plan = &fixture.rep.full;
    let secs = bench(p.budget, || {
        black_box(fixture.gateway().planner().plan(warm_plan));
    });
    p.set("gateway.plan.plan_us", secs * US);
    mapping_probes(&mut p, &fixture, out_dir);
    let (call_xml, response_xml) = codec_probes(&mut p, &fixture.rep, &rep_rows);
    let frames = wire_probes(&mut p, &rep_rows);
    httpd_probes(&mut p, &call_xml, &response_xml, &frames);
    let services_overhead = p.values["ogsi.services_overhead_us"];
    let codec: f64 = [
        "soap.codec.encode_call_us",
        "soap.codec.decode_call_us",
        "soap.codec.encode_response_us",
        "soap.codec.decode_response_us",
    ]
    .iter()
    .map(|name| p.values[name])
    .sum();
    let rtt = p.values["httpd.rtt_us_payload"];
    p.set(
        "ogsi.container.dispatch_self_us",
        services_overhead - codec - rtt,
    );

    // The cache and the push plane are probed on a window deployment: the
    // workload's own when it is one, `windows_churn`'s otherwise.
    let churn;
    let window_fixture = match &fixture.kind {
        Kind::Windows(_) => &fixture,
        _ => {
            churn = Fixture::deploy(Workload::WindowsChurn, out_dir, false);
            &churn
        }
    };
    cache_probes(&mut p, window_fixture, seed, out_dir);
    notify_probes(&mut p, window_fixture);

    // Span files and the folded layer table.
    let span_file = out_dir.join(format!("trace-{}.json", workload.name()));
    std::fs::write(&span_file, spans::to_json(&recorded)).expect("write span file");
    let mut layer_table: Vec<(&'static str, LayerTotals)> =
        spans::fold(&recorded).into_iter().collect();
    layer_table.sort_by_key(|(_, totals)| std::cmp::Reverse(totals.total_ns));

    let failed = reference.failed + traced.failed;
    let mut failures = reference.failures.clone();
    failures.extend(traced.failures.iter().cloned());
    TracedReport {
        workload,
        seed,
        rep_kind: fixture.rep.kind,
        correct: failed == 0 && traced.attempted >= 1,
        attempted: reference.attempted + traced.attempted,
        failed,
        failures,
        values,
        ladder,
        gateway_called_upstream,
        panel_us,
        layer_table,
        span_count: recorded.len(),
        span_file,
        pinned_cpu,
        loadavg_start,
        loadavg_end: host::loadavg1(),
        reference,
        traced,
    }
}

// ----------------------------------------------------------------- printing

pub fn print_traced(t: &TracedReport) {
    println!(
        "== {}  seed {}  TRACED  (stresses {}) ==",
        t.workload.name(),
        t.seed,
        t.workload.stresses()
    );
    println!(
        "  transport: loopback HTTP inside one process, not a real link; zero injected latency"
    );
    report::print_host_line(
        t.pinned_cpu,
        t.loadavg_start,
        t.loadavg_end,
        t.loadavg_start > host::nproc() as f64,
    );
    println!(
        "  windows: untraced reference {:.2} s / {} operations (p50 {:.4} ms), traced {:.2} s / {} \
         operations (p50 {:.4} ms); {} spans -> {}",
        t.reference.seconds,
        t.reference.attempted,
        t.reference.latency_p50_ms,
        t.traced.seconds,
        t.traced.attempted,
        t.traced.latency_p50_ms,
        t.span_count,
        t.span_file.display()
    );
    for failure in &t.failures {
        println!("  FAILED {failure}");
    }

    println!("  per-layer metrics:");
    for (name, value, unit) in t.metrics() {
        let moves = crate::metrics::per_layer(name).map_or("", |m| m.should_move);
        println!("    {name:<44} {value:>16.4} {unit:<8} -> {moves}");
    }

    // Table 4, carried through every hop of the representative query.
    let top = t.values["gateway.query_us"];
    println!(
        "  layer ladder (Table 4: self = rung - rung below), representative query on a `{}` store, \
         {} rows:",
        t.rep_kind,
        t.values["pperfgrid.wrapper.rows_per_query"]
    );
    println!(
        "    {:<36} {:>12} {:>12} {:>10}",
        "rung", "total us", "self us", "of gateway"
    );
    let site_path = &t.ladder[..3];
    let rows: Vec<(&str, f64, f64)> = if t.gateway_called_upstream {
        ladder_self_times(&t.ladder)
            .into_iter()
            .zip(&t.ladder)
            .map(|((name, own), rung)| (name, rung.total_us, own))
            .collect()
    } else {
        // The gateway answered from its segment cache: no lower rung ran
        // inside it, so its total is all its own; the site path below is
        // what a miss would add.
        let mut rows: Vec<(&str, f64, f64)> = ladder_self_times(site_path)
            .into_iter()
            .zip(site_path)
            .map(|((name, own), rung)| (name, rung.total_us, own))
            .collect();
        rows.push(("gateway.query (cache hit, no upstream)", top, top));
        rows
    };
    let mut self_sum = 0.0;
    for (name, total, own) in &rows {
        if t.gateway_called_upstream || name.starts_with("gateway") {
            self_sum += own;
            println!(
                "    {name:<36} {total:>12.2} {own:>12.2} {:>9.1} %",
                own / top * 100.0
            );
        } else {
            println!("    {name:<36} {total:>12.2} {own:>12.2}   (miss path)");
        }
    }
    println!(
        "    self times sum to {self_sum:.2} us against the top rung's {top:.2} us ({:+.2} %)",
        (self_sum - top) / top * 100.0
    );
    println!(
        "    side rung: client.panel (ExecutionQueryPanel::run_queries) {:.2} us total, {:.2} us over \
         the stub call it wraps",
        t.panel_us,
        t.panel_us - t.ladder[2].total_us
    );

    // What the spans of the traced window say about the same split.
    let process_cpu_ms = t.traced.cpu_s * 1e3;
    let ops = t.traced.attempted.max(1) as f64;
    println!(
        "  span layer table (traced window, whole workload mix; the process burned {process_cpu_ms:.1} ms \
         of CPU over {ops} operations):"
    );
    println!(
        "    {:<34} {:>8} {:>13} {:>13} {:>12} {:>9}",
        "span", "count", "wall total ms", "wall self ms", "cpu self ms", "of CPU"
    );
    for (name, l) in &t.layer_table {
        println!(
            "    {name:<34} {:>8} {:>13.3} {:>13.3} {:>12.3} {:>7.1} %",
            l.count,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6,
            l.self_cpu_ns as f64 / 1e6,
            l.self_cpu_ns as f64 / 1e6 / process_cpu_ms * 100.0
        );
    }

    // Where a query's CPU goes: the mapping layer from its spans, the row
    // wire and the byte transport priced from their probes.
    let cpu_per_op = process_cpu_ms / ops;
    let mapping_ms: f64 = t
        .layer_table
        .iter()
        .filter(|(name, _)| name.starts_with("pperfgrid.wrapper."))
        .map(|(_, l)| l.self_cpu_ns as f64 / 1e6)
        .sum::<f64>()
        / ops;
    println!("  where a query's CPU goes ({cpu_per_op:.4} ms of process CPU per operation):");
    let line = |what: &str, ms: f64| {
        println!(
            "    {what:<78} {ms:>9.4} ms {:>6.1} %",
            ms / cpu_per_op * 100.0
        );
    };
    line(
        "mapping layer: pperfgrid.wrapper incl. minidb + datastore (span CPU)",
        mapping_ms,
    );
    if t.values["gateway.upstream_calls_per_query"] > 0.0 && t.values["gateway.cache.bytes"] == 0.0
    {
        // Gateway on the path with its cache off: every verified row crossed
        // the row wire exactly once.
        let rows_per_op = t.traced.rows_verified as f64 / ops;
        let wire_ms = rows_per_op
            * (t.values["soap.wire.encode_ns_per_row"] + t.values["soap.wire.decode_ns_per_row"])
            / 1e6;
        let stream_ms =
            t.traced.wire_bytes_per_query / MB / t.values["httpd.stream_mb_per_s"] * 1e3;
        line(
            "row wire: rows/op x soap.wire encode + decode ns/row (probe estimate)",
            wire_ms,
        );
        line(
            "byte transport: wire bytes/op / httpd.stream_mb_per_s (probe estimate)",
            stream_ms,
        );
        line(
            "everything else: gateway plan + merge, container dispatch, SOAP, HTTP requests",
            cpu_per_op - mapping_ms - wire_ms - stream_ms,
        );
    } else {
        line(
            "everything else: gateway, cache, container dispatch, SOAP/XML, httpd",
            cpu_per_op - mapping_ms,
        );
    }
}
