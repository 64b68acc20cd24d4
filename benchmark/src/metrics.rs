//! The metric registry: every name the benchmark prints, with its unit and —
//! for end-to-end metrics — the bound by which it may worsen before a change
//! counts as a regression. `BENCHMARK.json` carries the same tables; a test
//! holds the two together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening as a share of the reference median.
    pub bound: f64,
    pub meaning: &'static str,
}

/// The end-to-end metrics, the same on every workload.
///
/// Bounds come from what the reference box can resolve, not from what one
/// would like: over ten seeds per workload the timing metrics' quartiles lie
/// 2–10 % of the median apart (the box's own slow phases outlast a run, and
/// every timing moves with them together), `peak_rss_mb`'s up to 8 %,
/// `wire_bytes_per_query`'s up to 1 %. A bound is three times the widest of
/// those, capped at the 25 % the benchmark contract allows, so that a breach
/// is a change and not the weather. Smaller effects are for paired runs to
/// resolve (ten alternating pairs, per the choosing-metrics guide).
///
/// `failed_share` is not in this table: it is always 0 on a healthy run (so
/// it cannot carry a relative bound) and travels as the `failed`/`attempted`
/// counts instead, with an absolute bound of zero.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "build stores, start containers, publish, bind, prime — everything before warm-up (fastest of 5 set-ups in the run)",
    },
    EndToEnd {
        name: "throughput_qps",
        unit: "queries/s",
        better: Better::Higher,
        bound: 0.25,
        meaning: "verified-correct operations completed per second, over the quiet third of the window",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        meaning: "median per-operation latency over the quiet third (sample count printed beside it)",
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        meaning: "95th percentile latency over the quiet third (>= 10 samples beyond it; p99 is reported ungated as client.latency_p99_ms)",
    },
    EndToEnd {
        name: "cpu_ms_per_query",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        meaning: "process user+sys CPU per operation over the quiet third (client, gateway and sites share the process, so this is whole-system CPU per query)",
    },
    EndToEnd {
        name: "wire_bytes_per_query",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.05,
        meaning: "HttpClient::payload_bytes() sent+received per operation, whole window",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        meaning: "VmHWM of the workload's process when the window closes",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// What is timed or counted.
    pub measured_by: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub should_move: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    measured_by: &'static str,
    should_move: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        measured_by,
        should_move,
    }
}

use Better::{Higher, Lower};

const WRAPPER_BY: &str =
    "rung 0: ExecutionWrapper::get_pr in-process (the thesis's mapping column)";
const WRAPPER_MOVES: &str = "latency_p50_ms, cpu_ms_per_query on hetero_fanout; none elsewhere";
const CODEC_BY: &str = "soap::codec function on the workload's real getPR payload";
const CODEC_MOVES: &str = "latency_p50_ms, wire_bytes_per_query on percall_xml";
const WIRE_BY: &str =
    "FrameWriter push/flush/finish, FrameReader feed/next_event over the workload's rows";
const WIRE_MOVES: &str =
    "throughput_qps, cpu_ms_per_query, wire_bytes_per_query on bulk_stream; none on percall_xml";
const HTTPD_BY: &str = "HttpClient against a benchmark echo/stream Handler on HttpServer";
const CACHE_OP_BY: &str =
    "SegmentCache call replaying the workload's (series, window, rows) sequence on a fresh cache";
const CACHE_CTR_BY: &str = "snapshot() delta over the traced run's gateway traffic";
const CACHE_CTR_MOVES: &str =
    "throughput_qps, wire_bytes_per_query on windows_churn; flat on windows_hot";

/// The per-layer metrics of the traced run, prefixed by module.
pub const PER_LAYER: [PerLayer; 58] = [
    layer(
        "pperfgrid.wrapper.get_pr_us.hpl_sql",
        "us",
        Lower,
        WRAPPER_BY,
        WRAPPER_MOVES,
    ),
    layer(
        "pperfgrid.wrapper.get_pr_us.hpl_xml",
        "us",
        Lower,
        WRAPPER_BY,
        WRAPPER_MOVES,
    ),
    layer(
        "pperfgrid.wrapper.get_pr_us.rma_text",
        "us",
        Lower,
        WRAPPER_BY,
        WRAPPER_MOVES,
    ),
    layer(
        "pperfgrid.wrapper.get_pr_us.smg_sql",
        "us",
        Lower,
        WRAPPER_BY,
        WRAPPER_MOVES,
    ),
    layer(
        "pperfgrid.wrapper.get_pr_us.bench",
        "us",
        Lower,
        WRAPPER_BY,
        "none (zero-cost wrapper; the floor under every bench workload)",
    ),
    layer(
        "pperfgrid.wrapper.rows_per_query",
        "rows",
        Higher,
        "rows the representative query returns",
        "context for every per-row number",
    ),
    layer(
        "pperfgrid.wrapper.stream_rows_per_s",
        "rows/s",
        Higher,
        "get_pr_stream into a null sink",
        "throughput_qps on bulk_stream",
    ),
    layer(
        "pperfgrid.execution.self_us",
        "us",
        Lower,
        "rung 1 - rung 0: ExecutionService through ServicePort::invoke",
        "latency_p50_ms on percall_xml",
    ),
    layer(
        "minidb.point_query_us",
        "us",
        Lower,
        "Database::connect() single-row SELECT on the HPL store",
        "cpu_ms_per_query, throughput_qps on hetero_fanout",
    ),
    layer(
        "minidb.inlist_scan_rows_per_s",
        "rows/s",
        Higher,
        "grouped scan of the SMG events table",
        "cpu_ms_per_query, throughput_qps on hetero_fanout",
    ),
    layer(
        "minidb.cursor_rows_per_s",
        "rows/s",
        Higher,
        "query_cursor/next_batch over the SMG events table",
        "cpu_ms_per_query, throughput_qps on hetero_fanout",
    ),
    layer(
        "ogsi.stub.call_us",
        "us",
        Lower,
        "rung 2: ExecutionStub::get_pr over loopback",
        "latency_p50_ms on percall_xml",
    ),
    layer(
        "ogsi.services_overhead_us",
        "us",
        Lower,
        "rung 2 - rung 1 (Table 4's overhead column)",
        "latency_p50_ms on percall_xml",
    ),
    layer(
        "ogsi.container.dispatch_self_us",
        "us",
        Lower,
        "services overhead - soap.codec.* - httpd.rtt_us_small",
        "latency_p50_ms, cpu_ms_per_query on percall_xml",
    ),
    layer(
        "soap.codec.encode_call_us",
        "us",
        Lower,
        CODEC_BY,
        CODEC_MOVES,
    ),
    layer(
        "soap.codec.decode_call_us",
        "us",
        Lower,
        CODEC_BY,
        CODEC_MOVES,
    ),
    layer(
        "soap.codec.encode_response_us",
        "us",
        Lower,
        CODEC_BY,
        CODEC_MOVES,
    ),
    layer(
        "soap.codec.decode_response_us",
        "us",
        Lower,
        CODEC_BY,
        CODEC_MOVES,
    ),
    layer(
        "soap.codec.xml_bytes_per_row",
        "bytes",
        Lower,
        "encoded response size / rows",
        CODEC_MOVES,
    ),
    layer(
        "xml.parse_mb_per_s",
        "MB/s",
        Higher,
        "pperf_xml::parse on that SOAP response document",
        "cpu_ms_per_query on percall_xml",
    ),
    layer(
        "xml.write_mb_per_s",
        "MB/s",
        Higher,
        "pperf_xml::to_xml on the parsed document",
        "cpu_ms_per_query on percall_xml",
    ),
    layer(
        "soap.wire.encode_ns_per_row",
        "ns",
        Lower,
        WIRE_BY,
        WIRE_MOVES,
    ),
    layer(
        "soap.wire.decode_ns_per_row",
        "ns",
        Lower,
        WIRE_BY,
        WIRE_MOVES,
    ),
    layer(
        "soap.wire.bytes_per_row",
        "bytes",
        Lower,
        WIRE_BY,
        WIRE_MOVES,
    ),
    layer(
        "soap.wire.frames_per_krow",
        "frames",
        Lower,
        WIRE_BY,
        WIRE_MOVES,
    ),
    layer(
        "soap.wire.segment_encode_ns_per_row",
        "ns",
        Lower,
        "encode_binary_segment (spill format)",
        "latency_p95_ms on windows_churn",
    ),
    layer(
        "soap.wire.segment_decode_ns_per_row",
        "ns",
        Lower,
        "decode_binary_segment (spill format)",
        "latency_p95_ms on windows_churn",
    ),
    layer(
        "httpd.rtt_us_small",
        "us",
        Lower,
        HTTPD_BY,
        "latency_p50_ms on percall_xml",
    ),
    layer(
        "httpd.rtt_us_payload",
        "us",
        Lower,
        HTTPD_BY,
        "latency_p50_ms on percall_xml",
    ),
    layer(
        "httpd.rps_2conn",
        "1/s",
        Higher,
        HTTPD_BY,
        "throughput_qps on percall_xml",
    ),
    layer(
        "httpd.stream_mb_per_s",
        "MB/s",
        Higher,
        HTTPD_BY,
        "throughput_qps on bulk_stream",
    ),
    layer(
        "context.trace_roundtrip_ns",
        "ns",
        Lower,
        "encode_trace + decode_trace + CallContext::from_wire on an 8-span trace",
        "cpu_ms_per_query on percall_xml",
    ),
    layer(
        "gateway.query_us",
        "us",
        Lower,
        "rung 3: FederatedGateway::query, single target",
        "latency_p50_ms, latency_p95_ms on hetero_fanout",
    ),
    layer(
        "gateway.fanout_overhead_us",
        "us",
        Lower,
        "full query - slowest single-site query (FederatedQuery::sites)",
        "latency_p50_ms, latency_p95_ms on hetero_fanout",
    ),
    layer(
        "gateway.plan.plan_us",
        "us",
        Lower,
        "gateway.planner().plan(&q), warm",
        "latency_p50_ms on windows_hot",
    ),
    layer(
        "gateway.plan.snapshot_refreshes_per_kquery",
        "count",
        Lower,
        "snapshot() delta",
        "latency_p50_ms on windows_hot",
    ),
    layer(
        "gateway.upstream_calls_per_query",
        "count",
        Lower,
        "snapshot() delta (exact count)",
        "wire_bytes_per_query, throughput_qps on hetero_fanout; 0 on windows_hot",
    ),
    layer(
        "gateway.coalesced_share",
        "ratio",
        Higher,
        "snapshot() delta (exact count)",
        "wire_bytes_per_query, throughput_qps on hetero_fanout",
    ),
    layer(
        "gateway.cache.lookup_us",
        "us",
        Lower,
        CACHE_OP_BY,
        "latency_p50_ms on windows_hot",
    ),
    layer(
        "gateway.cache.insert_us",
        "us",
        Lower,
        CACHE_OP_BY,
        "throughput_qps, latency_p95_ms on windows_churn",
    ),
    layer(
        "gateway.cache.remove_us",
        "us",
        Lower,
        CACHE_OP_BY,
        "throughput_qps, latency_p95_ms on windows_churn",
    ),
    layer(
        "gateway.cache.spill_us",
        "us",
        Lower,
        "SegmentCache::spill_now per resident segment",
        "throughput_qps, latency_p95_ms on windows_churn",
    ),
    layer(
        "gateway.cache.hit_rate",
        "ratio",
        Higher,
        CACHE_CTR_BY,
        CACHE_CTR_MOVES,
    ),
    layer(
        "gateway.cache.range_hit_share",
        "ratio",
        Higher,
        CACHE_CTR_BY,
        CACHE_CTR_MOVES,
    ),
    layer(
        "gateway.cache.partial_hit_share",
        "ratio",
        Higher,
        CACHE_CTR_BY,
        CACHE_CTR_MOVES,
    ),
    layer(
        "gateway.cache.evictions_per_kquery",
        "count",
        Lower,
        CACHE_CTR_BY,
        CACHE_CTR_MOVES,
    ),
    layer(
        "gateway.cache.spill_writes_per_kquery",
        "count",
        Lower,
        CACHE_CTR_BY,
        CACHE_CTR_MOVES,
    ),
    layer(
        "gateway.cache.spill_loads_per_kquery",
        "count",
        Lower,
        CACHE_CTR_BY,
        CACHE_CTR_MOVES,
    ),
    layer(
        "gateway.cache.bytes",
        "bytes",
        Lower,
        "snapshot().cache_bytes at window end",
        CACHE_CTR_MOVES,
    ),
    layer(
        "notify.publish_to_invalidate_us",
        "us",
        Lower,
        "publish -> snapshot().notify_invalidations observed",
        "failed_share (stale reads) on windows_churn",
    ),
    layer(
        "notify.events_per_s",
        "1/s",
        Higher,
        "burst of published events until the gateway's sinks have them",
        "failed_share (stale reads) on windows_churn",
    ),
    layer(
        "notify.resyncs",
        "count",
        Lower,
        "snapshot().notify_resyncs",
        "failed_share (stale reads) on windows_churn",
    ),
    layer(
        "notify.invalidations_per_kquery",
        "count",
        Lower,
        "snapshot().notify_invalidations delta over the traced window",
        "throughput_qps, wire_bytes_per_query on windows_churn; 0 elsewhere",
    ),
    layer(
        "client.panel_us",
        "us",
        Lower,
        "rung 4: ExecutionQueryPanel::run_queries, one execution",
        "latency_p50_ms on percall_xml",
    ),
    layer(
        "client.latency_p99_ms",
        "ms",
        Lower,
        "ungated tail of the untraced reference window",
        "none (reported, never gated)",
    ),
    layer(
        "process.allocs_per_query",
        "count",
        Lower,
        "counting global allocator over the traced window",
        "cpu_ms_per_query, peak_rss_mb everywhere",
    ),
    layer(
        "process.alloc_bytes_per_query",
        "bytes",
        Lower,
        "counting global allocator over the traced window",
        "cpu_ms_per_query, peak_rss_mb everywhere",
    ),
    layer(
        "process.trace_overhead_pct",
        "%",
        Lower,
        "traced vs untraced latency_p50_ms in the same run",
        "none (the cost of the traced run itself)",
    ),
];

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    use crate::workloads::Workload;
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let list = |out: &mut String, key: &str, rows: Vec<String>| {
        out.push_str(&format!(
            "  \"{key}\": [\n    {}\n  ]",
            rows.join(",\n    ")
        ));
    };
    list(
        &mut out,
        "workloads",
        Workload::ALL
            .iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
            .collect(),
    );
    out.push_str(",\n");
    list(
        &mut out,
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect(),
    );
    out.push_str(",\n");
    list(
        &mut out,
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect(),
    );
    out.push_str("\n}\n");
    out
}

/// The metric tables of `benchmark/README.md`, as Markdown.
pub fn markdown_tables() -> String {
    let mut out = String::from(
        "| end-to-end metric | unit | better | bound | meaning |\n|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {:.0} % | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.meaning
        ));
    }
    out.push_str(
        "\n| per-layer metric | unit | better | measured by | should move |\n|---|---|---|---|---|\n",
    );
    for m in &PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.measured_by,
            m.should_move
        ));
    }
    out
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_obey_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(Workload::ALL.iter().map(|w| (w.name(), "count")))
        {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} on {name}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    /// `README.md` carries the tables `-- metrics` prints and names every
    /// workload.
    #[test]
    fn readme_tables_are_generated_from_the_registry() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md");
        let text = std::fs::read_to_string(&path).expect("read benchmark/README.md");
        assert!(
            text.contains(&markdown_tables()),
            "paste the output of `-- metrics` into README.md"
        );
        for w in Workload::ALL {
            assert!(
                text.contains(&format!("`{}`", w.name())),
                "{} missing",
                w.name()
            );
        }
    }

    /// `BENCHMARK.json` is exactly what `-- manifest` prints from this
    /// registry: same metrics, units, directions, bounds and workloads.
    #[test]
    fn benchmark_json_is_generated_from_the_registry() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
        assert_eq!(
            text,
            benchmark_json(),
            "regenerate with `-- manifest > BENCHMARK.json`"
        );
        assert!(text.len() < 64 * 1024);
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
    }
}
