//! Human-readable output and the machine-readable result line.

use crate::host;
use crate::measure::{RunReport, SAMPLE_FLOOR};
use crate::metrics::{self, END_TO_END};
use std::collections::BTreeMap;

/// `(name, value, unit)`.
pub type Metric = (&'static str, f64, &'static str);

/// The last line of a single-workload run: one JSON object with exactly
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[derive(Debug, Clone, PartialEq)]
pub struct ParsedResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

/// Read back a [`result_line`] (the suite commands collect their children's
/// results this way). Only the shape this program writes is understood.
pub fn parse_result_line(line: &str) -> Option<ParsedResult> {
    let after = |key: &str| -> Option<&str> {
        let at = line.find(key)? + key.len();
        Some(line[at..].trim_start())
    };
    let number = |text: &str| -> Option<f64> {
        let end = text
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(text.len());
        text[..end].parse().ok()
    };
    let correct = after("\"correct\":")?.starts_with("true");
    let attempted = number(after("\"attempted\":")?)? as u64;
    let failed = number(after("\"failed\":")?)? as u64;
    let mut metrics = BTreeMap::new();
    let mut rest = after("\"metrics\":")?;
    while let Some(open) = rest.find('"') {
        let name_end = open + 1 + rest[open + 1..].find('"')?;
        let name = &rest[open + 1..name_end];
        let value_at = name_end + rest[name_end..].find("\"value\":")? + "\"value\":".len();
        metrics.insert(name.to_owned(), number(rest[value_at..].trim_start())?);
        let close = value_at + rest[value_at..].find('}')?;
        rest = &rest[close + 1..];
    }
    Some(ParsedResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// The seven gated end-to-end metrics of a run, in registry order.
pub fn end_to_end_metrics(run: &RunReport) -> Vec<Metric> {
    let w = &run.window;
    let value = |name: &str| match name {
        "setup_s" => run.setup_s,
        "throughput_qps" => w.throughput_qps,
        "latency_p50_ms" => w.latency_p50_ms,
        "latency_p95_ms" => w.latency_p95_ms,
        "cpu_ms_per_query" => w.cpu_ms_per_query,
        "wire_bytes_per_query" => w.wire_bytes_per_query,
        "peak_rss_mb" => w.peak_rss_mb,
        other => unreachable!("unregistered end-to-end metric {other}"),
    };
    END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect()
}

/// Whether the run's outputs were correct: every answer verified and every
/// metric a number. The sample floor is reported separately — a slow box
/// makes a run thin, not wrong.
pub fn run_is_correct(run: &RunReport) -> bool {
    run.window.failed == 0
        && run.window.attempted >= 1
        && end_to_end_metrics(run)
            .iter()
            .all(|(_, v, _)| v.is_finite())
}

pub fn print_host_line(
    pinned_cpu: Option<usize>,
    loadavg_start: f64,
    loadavg_end: f64,
    noisy: bool,
) {
    println!(
        "  generator: closed loop, 1 client thread on 1 keep-alive connection, nproc {}{}, \
         loadavg(1m) {loadavg_start:.2} -> {loadavg_end:.2}{}",
        host::nproc(),
        pinned_cpu.map_or(
            " — NOT pinned: the kernel refused".to_owned(),
            |cpu| format!(", whole process pinned to CPU {cpu}")
        ),
        if noisy {
            "  ** noisy: loadavg at start exceeded nproc **"
        } else {
            ""
        }
    );
}

pub fn print_run(run: &RunReport, smoke: bool) {
    let w = &run.window;
    println!(
        "== {}  seed {}  (stresses {}) ==",
        run.workload.name(),
        run.seed,
        run.workload.stresses()
    );
    println!(
        "  transport: loopback HTTP inside one process, not a real link; zero injected latency"
    );
    print_host_line(
        run.pinned_cpu,
        run.loadavg_start,
        run.loadavg_end,
        run.noisy,
    );
    println!(
        "  window: {:.2} s, {} operations in {} slice(s); timing metrics over the quiet third: {} \
         slice(s), {} operations; {} rows verified, the client spent {:.1} % of the window verifying \
         (its only idle time)",
        w.seconds,
        w.attempted,
        w.slices,
        w.quiet_slices,
        w.quiet_ops,
        w.rows_verified,
        w.verify_share * 100.0
    );
    println!(
        "  per-slice queries/s: {}",
        w.slice_qps
            .iter()
            .map(|q| format!("{q:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("  operation-sequence hash {:016x}", run.sequence_hash);
    for (name, value, unit) in end_to_end_metrics(run) {
        let note = match name {
            "setup_s" => format!(
                "fastest of {} set-ups: {}",
                run.setup_times.len(),
                run.setup_times
                    .iter()
                    .map(|t| format!("{t:.3}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
            "throughput_qps" | "cpu_ms_per_query" => "quiet third".to_owned(),
            "latency_p50_ms" => format!("quiet third, n = {}", w.quiet_ops),
            "latency_p95_ms" => format!(
                "quiet third, n = {}{}",
                w.quiet_ops,
                if w.tail_ok {
                    ""
                } else {
                    " (thin tail: fewer than 10 samples beyond it)"
                }
            ),
            "wire_bytes_per_query" => format!("whole window, n = {}", w.attempted),
            _ => String::new(),
        };
        let bound = metrics::end_to_end(name).map_or(0.0, |m| m.bound);
        println!(
            "  {name:<22} {value:>14.4} {unit:<10} bound {:>4.0} %   {note}",
            bound * 100.0
        );
    }
    println!(
        "  {:<22} {:>14.6} {:<10} bound  0 abs  {} failed of {} attempted",
        "failed_share",
        w.failed as f64 / w.attempted.max(1) as f64,
        "ratio",
        w.failed,
        w.attempted
    );
    println!(
        "  {:<22} {:>14.4} {:<10} ungated",
        "client.latency_p99_ms", w.latency_p99_ms, "ms"
    );
    for failure in &w.failures {
        println!("  FAILED {failure}");
    }
    if !smoke && (w.attempted as usize) < SAMPLE_FLOOR {
        println!(
            "  BELOW SAMPLE FLOOR: {} operations in the window, {SAMPLE_FLOOR} wanted",
            w.attempted
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = result_line(
            true,
            1500,
            0,
            &[
                ("latency_p50_ms", 1.2034, "ms"),
                ("setup_s", 0.8127, "s"),
                ("x.y-z", -3e-7, "%"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1500, \"failed\": 0, \"metrics\": {\
             \"latency_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"x.y-z\": {\"value\": -0.0000003, \"unit\": \"%\"}}}"
        );
        let parsed = parse_result_line(&line).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (1500, 0));
        assert_eq!(parsed.metrics["latency_p50_ms"], 1.2034);
        assert_eq!(parsed.metrics["x.y-z"], -3e-7);
        assert_eq!(parsed.metrics.len(), 3);
        assert!(parse_result_line("not a result").is_none());
    }
}
