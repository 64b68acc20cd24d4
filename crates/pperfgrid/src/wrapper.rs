//! The Mapping Layer contract.
//!
//! Thesis §4.3: "The mapping layer acts as the intermediary between the data
//! layer and the semantic layer, taking questions asked by the semantic
//! layer, translating them into a query format that is understandable by the
//! data layer given its native format and schema, processing query results,
//! and returning them back to the semantic layer."
//!
//! A publisher exposes a dataset by implementing [`ApplicationWrapper`] (and
//! its [`ExecutionWrapper`] children) over whatever storage they have; the
//! Semantic Layer services are generic over these traits.

use std::fmt;
use std::sync::Arc;

/// Error from a wrapper (data-layer access failure, unknown id, bad query).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrapperError(pub String);

impl fmt::Display for WrapperError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wrapper error: {}", self.0)
    }
}

impl std::error::Error for WrapperError {}

impl From<pperf_minidb::DbError> for WrapperError {
    fn from(e: pperf_minidb::DbError) -> Self {
        WrapperError(e.to_string())
    }
}

impl From<std::io::Error> for WrapperError {
    fn from(e: std::io::Error) -> Self {
        WrapperError(e.to_string())
    }
}

/// A Performance Result query: one metric, one or more foci, a time range,
/// and a collection-tool type (thesis §4.4: "A Performance Result measures
/// one metric, for one or more foci, for some time period... also has a
/// type, which refers to the type of measurement tool used to collect it").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrQuery {
    /// Metric name (e.g. `gflops`, `func_calls`).
    pub metric: String,
    /// Foci — resource-hierarchy nodes (e.g. `/Process/27`,
    /// `/Code/MPI/MPI_Comm_rank`).
    pub foci: Vec<String>,
    /// Start of the time window (rendered seconds).
    pub start: String,
    /// End of the time window.
    pub end: String,
    /// Tool type, or [`crate::TYPE_UNDEFINED`] for any.
    pub rtype: String,
}

/// Backslash-escape the characters that double as separators in
/// [`pr_cache_key`] (`|` between fields, `,` between foci, `-`
/// between times, and `\` itself). Typical metric/focus names contain none
/// of them, so common keys keep the exact thesis rendering.
fn escape_key_component(out: &mut String, component: &str) {
    for c in component.chars() {
        if matches!(c, '\\' | '|' | ',' | '-') {
            out.push('\\');
        }
        out.push(c);
    }
}

/// The canonical Performance Result key — thesis §5.3.2.3's
/// `"func_calls | /Code/MPI/MPI_Allgather | UNDEFINED | 0.0-11.047856"`
/// rendering, with separator characters escaped.
///
/// Every layer that needs a key for a `(metric, foci, type, window)` tuple —
/// the per-instance [`crate::PrCache`], and the gateway's result cache and
/// coalescing flight keys — derives it from this one function, so the
/// layers cannot drift apart and alias two different queries onto one
/// cached row set.
pub fn pr_cache_key(metric: &str, foci: &[String], start: &str, end: &str, rtype: &str) -> String {
    let mut key = String::with_capacity(
        metric.len()
            + foci.iter().map(|f| f.len() + 1).sum::<usize>()
            + rtype.len()
            + start.len()
            + end.len()
            + 10,
    );
    escape_key_component(&mut key, metric);
    key.push_str(" | ");
    for (i, focus) in foci.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        escape_key_component(&mut key, focus);
    }
    key.push_str(" | ");
    escape_key_component(&mut key, rtype);
    key.push_str(" | ");
    escape_key_component(&mut key, start);
    key.push('-');
    escape_key_component(&mut key, end);
    key
}

impl PrQuery {
    /// The cache key format of thesis §5.3.2.3 — see [`pr_cache_key`].
    ///
    /// Components are escaped so adversarial names cannot alias: without
    /// escaping, a metric containing `" | "`, a focus containing `","`, or a
    /// time containing `"-"` could collide with a *different* query's key
    /// and serve it the wrong cached rows.
    pub fn cache_key(&self) -> String {
        pr_cache_key(
            &self.metric,
            &self.foci,
            &self.start,
            &self.end,
            &self.rtype,
        )
    }

    /// Parse the start/end as f64 seconds, tolerating empty strings (empty ⇒
    /// unbounded side).
    pub fn time_window(&self) -> Result<(f64, f64), WrapperError> {
        let parse = |s: &str, default: f64| -> Result<f64, WrapperError> {
            if s.is_empty() {
                Ok(default)
            } else {
                s.trim()
                    .parse()
                    .map_err(|_| WrapperError(format!("bad time value {s:?}")))
            }
        };
        let start = parse(&self.start, f64::NEG_INFINITY)?;
        let end = parse(&self.end, f64::INFINITY)?;
        if start > end {
            return Err(WrapperError(format!(
                "start time {start} is after end time {end}"
            )));
        }
        Ok((start, end))
    }
}

/// The per-row time-span convention: a PerformanceResult row is
/// *interval-shaped* when one of its `|`-separated fields starts with
/// `t=`, carrying `t=<start>:<end>` or `t=<point>` (f64 seconds). Returns
/// the row's `(start, end)` span, or `None` for rows without the marker.
///
/// Rows are otherwise opaque strings, so wrappers opt in: only a wrapper
/// that knows every row's time extent emits the marker. A result set in
/// which *every* row is interval-shaped can be cached once for a wide
/// window and then filtered down to answer any narrower window — the
/// monotone-narrowing guarantee (shrinking the window only removes rows)
/// holds exactly when inclusion means "the row's span intersects the
/// query window". Window-dependent aggregates (e.g. a per-function time
/// total recomputed per window) must NOT carry the marker.
pub fn row_time_span(row: &str) -> Option<(f64, f64)> {
    for field in row.split('|') {
        let Some(spec) = field.strip_prefix("t=") else {
            continue;
        };
        let (a, b) = match spec.split_once(':') {
            Some((a, b)) => (a, b),
            None => (spec, spec),
        };
        let start: f64 = a.trim().parse().ok()?;
        let end: f64 = b.trim().parse().ok()?;
        if start.is_nan() || end.is_nan() || start > end {
            return None;
        }
        return Some((start, end));
    }
    None
}

/// The Application side of the Mapping Layer (thesis Table 1 semantics).
pub trait ApplicationWrapper: Send + Sync {
    /// General information about the application as `(name, value)` pairs —
    /// rendered on the wire as `name|value` strings.
    fn app_info(&self) -> Vec<(String, String)>;

    /// Number of unique executions available.
    fn num_execs(&self) -> usize;

    /// Attributes that describe executions, each with the set (no
    /// duplicates) of its possible values.
    fn exec_query_params(&self) -> Vec<(String, Vec<String>)>;

    /// All unique execution ids.
    fn all_exec_ids(&self) -> Vec<String>;

    /// Execution ids whose `attribute` equals `value`.
    fn exec_ids_matching(&self, attribute: &str, value: &str) -> Result<Vec<String>, WrapperError>;

    /// Open the Execution wrapper for one id.
    fn execution(&self, exec_id: &str) -> Result<Arc<dyn ExecutionWrapper>, WrapperError>;
}

/// Row-batch granularity of the streamed Performance Result path: the
/// default [`ExecutionWrapper::get_pr_stream`] adapter and the wrappers'
/// native overrides hand rows to the sink in groups of about this many, so
/// the producer side of a stream never holds more than one batch beyond
/// what the transport has admitted.
pub const STREAM_BATCH_ROWS: usize = 256;

/// Feed an already-materialized row set through a streaming sink in
/// [`STREAM_BATCH_ROWS`]-sized batches — the adapter behind the default
/// [`ExecutionWrapper::get_pr_stream`], shared with wrappers that stream
/// natively for some query shapes and fall back to buffered production for
/// the rest. An answer that fits one batch reaches the sink in its own
/// buffer.
pub fn stream_rows_buffered(
    rows: Vec<String>,
    sink: &mut dyn FnMut(Vec<String>) -> Result<(), WrapperError>,
) -> Result<u64, WrapperError> {
    let total = rows.len() as u64;
    if rows.len() <= STREAM_BATCH_ROWS {
        if !rows.is_empty() {
            sink(rows)?;
        }
        return Ok(total);
    }
    let mut it = rows.into_iter();
    loop {
        let batch: Vec<String> = it.by_ref().take(STREAM_BATCH_ROWS).collect();
        if batch.is_empty() {
            return Ok(total);
        }
        sink(batch)?;
    }
}

/// The Execution side of the Mapping Layer (thesis Table 2 semantics).
pub trait ExecutionWrapper: Send + Sync {
    /// General information about the execution as `(name, value)` pairs.
    fn info(&self) -> Vec<(String, String)>;

    /// All unique focus values (resource-hierarchy nodes).
    fn foci(&self) -> Vec<String>;

    /// All unique metric names.
    fn metrics(&self) -> Vec<String>;

    /// All unique tool-type values.
    fn types(&self) -> Vec<String>;

    /// `(start, end)` times of the execution, rendered.
    fn time_start_end(&self) -> (String, String);

    /// Performance Results matching the query, as rendered strings.
    fn get_pr(&self, query: &PrQuery) -> Result<Vec<String>, WrapperError>;

    /// Performance Results for many queries at once — one outcome per query,
    /// in order: a loop over [`ExecutionWrapper::get_pr`].
    ///
    /// Nothing in the Services Layer calls it; the Execution PortType has no
    /// batch operation. It stays only because the repository's benchmark
    /// package overrides it in its tracing decorator, and goes when that
    /// override does (ROADMAP item 15(vi)).
    fn get_pr_batch(&self, queries: &[PrQuery]) -> Vec<Result<Vec<String>, WrapperError>> {
        queries.iter().map(|q| self.get_pr(q)).collect()
    }

    /// Performance Results for one query, produced incrementally: row
    /// batches flow through `sink` as the consumer drains them, and the
    /// total row count comes back at the end. A sink error (the transport
    /// died, the caller cancelled at a frame boundary) aborts production —
    /// wrappers must stop scanning, not finish the result set into the
    /// void.
    ///
    /// The default materializes [`ExecutionWrapper::get_pr`] and replays it
    /// in [`STREAM_BATCH_ROWS`] batches: correct for every wrapper, it
    /// merely forfeits the constant-memory guarantee a native override
    /// (driving a data-layer cursor) provides.
    fn get_pr_stream(
        &self,
        query: &PrQuery,
        sink: &mut dyn FnMut(Vec<String>) -> Result<(), WrapperError>,
    ) -> Result<u64, WrapperError> {
        stream_rows_buffered(self.get_pr(query)?, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_key_matches_thesis_format() {
        let q = PrQuery {
            metric: "func_calls".into(),
            foci: vec!["/Code/MPI/MPI_Allgather".into()],
            start: "0.0".into(),
            end: "11.047856".into(),
            rtype: "UNDEFINED".into(),
        };
        assert_eq!(
            q.cache_key(),
            "func_calls | /Code/MPI/MPI_Allgather | UNDEFINED | 0.0-11.047856"
        );
    }

    #[test]
    fn adversarial_names_cannot_collide() {
        let q = |metric: &str, foci: &[&str], start: &str, end: &str, rtype: &str| PrQuery {
            metric: metric.into(),
            foci: foci.iter().map(|&f| f.to_owned()).collect(),
            start: start.into(),
            end: end.into(),
            rtype: rtype.into(),
        };
        // Un-escaped, every pair below rendered to the same key string.
        let collisions = [
            // A `,` inside one focus vs. two foci.
            (
                q("m", &["a,b"], "0", "1", "t"),
                q("m", &["a", "b"], "0", "1", "t"),
            ),
            // A `-` inside a time vs. the start-end separator.
            (
                q("m", &["f"], "1-2", "3", "t"),
                q("m", &["f"], "1", "2-3", "t"),
            ),
            // A ` | ` inside the metric vs. the field separator.
            (
                q("m | x", &["f"], "0", "1", "t"),
                q("m", &["x | f"], "0", "1", "t"),
            ),
            // A `|` migrating between type and focus fields.
            (
                q("m", &["f | u"], "0", "1", "t"),
                q("m", &["f"], "0", "1", "u | t"),
            ),
        ];
        for (a, b) in collisions {
            assert_ne!(a.cache_key(), b.cache_key(), "{a:?} vs {b:?}");
        }
        // Escaping is deterministic: equal queries still share a key.
        let a = q("m|x", &["a,b", "c-d"], "0", "1", "t\\u");
        assert_eq!(a.cache_key(), a.clone().cache_key());
    }

    #[test]
    fn shared_helper_and_method_agree_on_hostile_names() {
        // `pr_cache_key` is the one source of truth: the method, the stub's
        // wire parameters, and the gateway's cache/flight keys all derive
        // from it. Guard the equivalence on names that exercise every
        // escaped separator (`|`, `-`, `,`, `\`).
        let q = PrQuery {
            metric: "lat | p99-p50".into(),
            foci: vec!["/a,b".into(), "/c\\d|e".into()],
            start: "-1.5".into(),
            end: "2-3".into(),
            rtype: "tau-2.x".into(),
        };
        assert_eq!(
            q.cache_key(),
            pr_cache_key(&q.metric, &q.foci, &q.start, &q.end, &q.rtype)
        );
        // And the key still round-trips unambiguously: a hostile metric
        // cannot fabricate the field separator.
        assert!(q.cache_key().contains("lat \\| p99\\-p50 | "));
    }

    #[test]
    fn default_batch_matches_per_query_calls() {
        struct Fixed;
        impl ExecutionWrapper for Fixed {
            fn info(&self) -> Vec<(String, String)> {
                vec![]
            }
            fn foci(&self) -> Vec<String> {
                vec![]
            }
            fn metrics(&self) -> Vec<String> {
                vec![]
            }
            fn types(&self) -> Vec<String> {
                vec![]
            }
            fn time_start_end(&self) -> (String, String) {
                (String::new(), String::new())
            }
            fn get_pr(&self, query: &PrQuery) -> Result<Vec<String>, WrapperError> {
                if query.metric == "bad" {
                    Err(WrapperError("no such metric".into()))
                } else {
                    Ok(vec![format!("{}|1.0", query.metric)])
                }
            }
        }
        let q = |metric: &str| PrQuery {
            metric: metric.into(),
            foci: vec![],
            start: String::new(),
            end: String::new(),
            rtype: "t".into(),
        };
        let queries = [q("gflops"), q("bad"), q("walltime")];
        let batch = Fixed.get_pr_batch(&queries);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0], Ok(vec!["gflops|1.0".into()]));
        assert!(batch[1].is_err());
        assert_eq!(batch[2], Ok(vec!["walltime|1.0".into()]));
    }

    #[test]
    fn buffered_stream_hands_a_small_answer_over_in_its_own_buffer() {
        let rows: Vec<String> = (0..4).map(|i| format!("r{i}")).collect();
        let buffer = rows.as_ptr();
        let mut batches = Vec::new();
        let total = stream_rows_buffered(rows, &mut |batch| {
            batches.push((batch.as_ptr(), batch.len()));
            Ok(())
        })
        .unwrap();
        assert_eq!(total, 4);
        assert_eq!(batches, [(buffer, 4)], "the answer's buffer, uncopied");

        // A larger answer still leaves in STREAM_BATCH_ROWS-row batches, and
        // an empty one never reaches the sink.
        let rows: Vec<String> = (0..2 * STREAM_BATCH_ROWS + 3)
            .map(|i| i.to_string())
            .collect();
        let mut sizes = Vec::new();
        let total = stream_rows_buffered(rows, &mut |batch| {
            sizes.push(batch.len());
            Ok(())
        })
        .unwrap();
        assert_eq!(total, 2 * STREAM_BATCH_ROWS as u64 + 3);
        assert_eq!(sizes, [STREAM_BATCH_ROWS, STREAM_BATCH_ROWS, 3]);
        assert_eq!(
            stream_rows_buffered(Vec::new(), &mut |_| panic!("no rows, no batch")),
            Ok(0)
        );
    }

    #[test]
    fn multi_foci_key_is_order_sensitive() {
        let base = PrQuery {
            metric: "m".into(),
            foci: vec!["/a".into(), "/b".into()],
            start: "0".into(),
            end: "1".into(),
            rtype: "t".into(),
        };
        let mut swapped = base.clone();
        swapped.foci.reverse();
        assert_ne!(base.cache_key(), swapped.cache_key());
    }

    #[test]
    fn time_window_parsing() {
        let mut q = PrQuery {
            metric: "m".into(),
            foci: vec![],
            start: "1.5".into(),
            end: "2.5".into(),
            rtype: "t".into(),
        };
        assert_eq!(q.time_window().unwrap(), (1.5, 2.5));
        q.start = String::new();
        q.end = String::new();
        let (s, e) = q.time_window().unwrap();
        assert!(s.is_infinite() && s < 0.0 && e.is_infinite() && e > 0.0);
        q.start = "oops".into();
        assert!(q.time_window().is_err());
        q.start = "5".into();
        q.end = "1".into();
        assert!(q.time_window().is_err(), "inverted window rejected");
    }
}
