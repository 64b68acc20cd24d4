//! The benchmark's own spans: recorded from the benchmark's files around
//! calls into each layer's public functions, kept in memory, folded into
//! self times, and written out when the traced run ends. Nothing here
//! reaches inside the program's crates.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded interval. `parent == 0` means "not known where it was
/// recorded" (a span taken on a server thread, which only knows its query):
/// [`fold`] attaches it to the innermost span of the same query that
/// contains it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub query: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// CPU time the recording thread consumed between start and end. A run
    /// is pinned to one CPU, so wall time inside a span includes every other
    /// thread's turn on it; this does not.
    pub cpu_ns: u64,
}

static TRACING: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_tracing(on: bool) {
    now_ns();
    TRACING.store(on, Ordering::SeqCst);
}

pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// The calling thread's CPU clock, read only while tracing (0 otherwise).
pub fn thread_cpu_ns() -> u64 {
    if tracing() {
        crate::host::thread_cpu().as_nanos() as u64
    } else {
        0
    }
}

/// A fresh span (or query) id.
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Record a finished span under a fresh id. A no-op with tracing off, so
/// untraced runs pay one relaxed load per call site.
pub fn record(
    parent: u64,
    query: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    cpu_ns: u64,
) {
    if tracing() {
        record_with_id(next_id(), parent, query, name, start_ns, end_ns, cpu_ns);
    }
}

/// Record a span whose id was reserved up front (so children recorded while
/// it was open could already name it as their parent).
pub fn record_with_id(
    id: u64,
    parent: u64,
    query: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    cpu_ns: u64,
) {
    if !tracing() {
        return;
    }
    SPANS.lock().expect("span buffer lock").push(Span {
        id,
        parent,
        query,
        name,
        start_ns,
        end_ns,
        cpu_ns,
    });
}

/// Take everything recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer lock"))
}

/// The request id a traced client puts on a query's `CallContext`, and the
/// inverse a server-side span uses to find its query again.
pub fn request_id_for(query: u64) -> String {
    format!("bq{query}")
}

pub fn query_of_request_id(request_id: &str) -> u64 {
    request_id
        .strip_prefix("bq")
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// Per-name totals from [`fold`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Thread CPU inside these spans, less that of the spans nested in them
    /// on the same thread (those that named them as parent).
    pub self_cpu_ns: u64,
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Fold spans into per-name totals. A span's self time is its duration
/// minus the part of its interval its children cover — overlapping children
/// (parallel fan-out legs) count once, and a child's overhang outside its
/// parent is not subtracted.
pub fn fold(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut by_query: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        by_query.entry(span.query).or_default().push(i);
    }
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let mut nested_cpu: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        *nested_cpu.entry(span.parent).or_default() += span.cpu_ns;
    }
    for members in by_query.values() {
        for &i in members {
            let span = &spans[i];
            let parent = if span.parent != 0 {
                span.parent
            } else {
                // Innermost container: the shortest same-query span whose
                // interval holds this one.
                members
                    .iter()
                    .map(|&j| &spans[j])
                    .filter(|p| {
                        p.id != span.id
                            && p.start_ns <= span.start_ns
                            && p.end_ns >= span.end_ns
                            && (p.end_ns - p.start_ns) > (span.end_ns - span.start_ns)
                    })
                    .min_by_key(|p| p.end_ns - p.start_ns)
                    .map_or(0, |p| p.id)
            };
            if parent != 0 {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start_ns, span.end_ns));
            }
        }
    }
    let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for span in spans {
        let duration = span.end_ns.saturating_sub(span.start_ns);
        let child_ns = children
            .get_mut(&span.id)
            .map_or(0, |c| covered(c, span.start_ns, span.end_ns));
        let entry = totals.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += duration - child_ns;
        entry.self_cpu_ns += span
            .cpu_ns
            .saturating_sub(nested_cpu.get(&span.id).copied().unwrap_or(0));
    }
    totals
}

/// One rung of a Table-4 ladder: the time of the whole call at that depth.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    pub name: &'static str,
    pub total_us: f64,
}

/// Table 4's subtraction carried up a ladder: each rung's self time is its
/// total minus the rung below (the bottom rung keeps its total). Rungs are
/// given bottom first; the self times sum to the top rung by construction,
/// and a negative self time means the measurement noise exceeded the layer.
pub fn ladder_self_times(rungs: &[Rung]) -> Vec<(&'static str, f64)> {
    let mut below = 0.0;
    rungs
        .iter()
        .map(|rung| {
            let own = rung.total_us - below;
            below = rung.total_us;
            (rung.name, own)
        })
        .collect()
}

/// The span file: one JSON array of `{id, parent, query, name, start_ns,
/// end_ns, cpu_ns}` objects.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 4);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"query\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{}}}",
            s.id, s.parent, s.query, s.name, s.start_ns, s.end_ns, s.cpu_ns
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, query: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            query,
            name,
            start_ns: start,
            end_ns: end,
            cpu_ns: (end - start) / 2,
        }
    }

    #[test]
    fn nested_cpu_is_subtracted_only_for_named_parents() {
        let spans = [
            span(1, 0, 9, "op", 0, 100),
            // Same thread, nested: names its parent.
            span(2, 1, 9, "gateway", 10, 90),
            // Another thread: adopted by containment, its CPU is its own.
            span(3, 0, 9, "wrapper", 20, 40),
        ];
        let t = fold(&spans);
        assert_eq!(t["op"].self_cpu_ns, 50 - 40);
        assert_eq!(t["gateway"].self_cpu_ns, 40);
        assert_eq!(t["wrapper"].self_cpu_ns, 10);
    }

    #[test]
    fn child_coverage_is_subtracted_once() {
        let spans = [
            span(1, 0, 9, "op", 0, 100),
            span(2, 1, 9, "gateway", 10, 90),
            span(3, 2, 9, "wrapper", 20, 40),
        ];
        let t = fold(&spans);
        assert_eq!(t["op"].self_ns, 20);
        assert_eq!(t["gateway"].self_ns, 60);
        assert_eq!(t["wrapper"].self_ns, 20);
        let self_sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(self_sum, 100, "self times tile the root span");
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Three parallel legs: [10,50], [30,70], [60,65] → union 60.
        let spans = [
            span(1, 0, 1, "gateway", 0, 100),
            span(2, 1, 1, "leg", 10, 50),
            span(3, 1, 1, "leg", 30, 70),
            span(4, 1, 1, "leg", 60, 65),
        ];
        let t = fold(&spans);
        assert_eq!(t["gateway"].self_ns, 40);
        assert_eq!(t["leg"].count, 3);
        assert_eq!(t["leg"].total_ns, 40 + 40 + 5);
    }

    #[test]
    fn child_overhang_is_clipped_to_the_parent() {
        let spans = [span(1, 0, 1, "p", 10, 20), span(2, 1, 1, "c", 15, 40)];
        assert_eq!(fold(&spans)["p"].self_ns, 5);
    }

    #[test]
    fn orphans_attach_to_the_innermost_container_of_their_query() {
        let spans = [
            span(1, 0, 7, "op", 0, 100),
            span(2, 1, 7, "gateway", 5, 95),
            // Server-side span: knows its query, not its parent.
            span(3, 0, 7, "wrapper", 30, 50),
            // Same interval, other query: must not be adopted by query 7.
            span(4, 0, 8, "wrapper", 30, 50),
        ];
        let t = fold(&spans);
        assert_eq!(t["gateway"].self_ns, 70);
        assert_eq!(t["op"].self_ns, 10);
        assert_eq!(t["wrapper"].self_ns, 40);
    }

    #[test]
    fn ladder_subtracts_the_rung_below() {
        let rungs = [
            Rung {
                name: "wrapper",
                total_us: 40.0,
            },
            Rung {
                name: "execution",
                total_us: 45.0,
            },
            Rung {
                name: "stub",
                total_us: 150.0,
            },
            Rung {
                name: "gateway",
                total_us: 400.0,
            },
        ];
        let own = ladder_self_times(&rungs);
        assert_eq!(
            own,
            vec![
                ("wrapper", 40.0),
                ("execution", 5.0),
                ("stub", 105.0),
                ("gateway", 250.0)
            ]
        );
        let sum: f64 = own.iter().map(|(_, v)| v).sum();
        assert!((sum - 400.0).abs() < 1e-9, "self times sum to the top rung");
    }

    #[test]
    fn request_ids_round_trip() {
        assert_eq!(query_of_request_id(&request_id_for(42)), 42);
        assert_eq!(query_of_request_id("0000-abcd"), 0);
    }
}
