//! The gateway-level shared result cache: semantic time-interval segments.
//!
//! Sits *above* the per-Execution PR caches (thesis §5.3.2.3): one cache
//! for the whole federation. Where the v1 cache was an exact-match map on
//! the stringified query tuple, this cache is keyed by *series* — the
//! `(site instance, metric, foci, type)` tuple with the time window
//! blanked — and stores one or more time-interval **segments** per series.
//! A lookup for `[t2, t5]` is answered by containment within a cached
//! `[t0, t10]` segment; adjacent or overlapping segments are stitched to
//! answer windows no single insert covered; a partially covered window
//! yields the covered rows plus the missing sub-range, so the caller
//! fetches only what the cache lacks.
//!
//! Range answers are only sound when rows declare their own time extent:
//! a segment is **filterable** when every row carries the `t=` span marker
//! (see [`pperfgrid::row_time_span`]), and only filterable segments
//! participate in containment/stitching. Segments of unmarked rows answer
//! exact window repeats only — precisely the v1 behavior.
//!
//! Capacity is a real byte budget, not an entry count: admission control
//! rejects segments that would monopolize it, and eviction weighs cost
//! (bytes) against value (hit recency × overlap frequency) with a CLOCK
//! second chance for segments that keep absorbing queries. Evicted-but-
//! fresh segments spill to disk as PPGB kind-5 frames (one frame per
//! file), and a restarted gateway pointed at the same spill directory
//! rehydrates warm: the first overlapping query is answered from disk
//! without touching any site.

use parking_lot::Mutex;
use pperf_soap::{decode_binary_segment, encode_binary_segment, WireSegment};
use pperfgrid::{pr_cache_key, row_time_span};
use std::cmp::Ordering as CmpOrdering;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The cache key of one series: the instance URL plus the query tuple
/// with both time bounds blanked. All windows of the same logical query
/// land in the same series, and the `<instance url>::` prefix keeps the
/// site-scoped invalidation prefix-match working unchanged.
pub fn series_key(instance: &str, metric: &str, foci: &[String], rtype: &str) -> String {
    let mut key = String::new();
    write_series_key(&mut key, instance, &series_tuple(metric, foci, rtype));
    key
}

/// The window-blanked query tuple: the half of a series key every target of
/// one query shares.
pub(crate) fn series_tuple(metric: &str, foci: &[String], rtype: &str) -> String {
    pr_cache_key(metric, foci, "", "", rtype)
}

/// Write `instance`'s series key for `tuple` into `key`, reusing its buffer.
pub(crate) fn write_series_key(key: &mut String, instance: &str, tuple: &str) {
    key.clear();
    key.reserve(instance.len() + 2 + tuple.len());
    key.push_str(instance);
    key.push_str("::");
    key.push_str(tuple);
}

/// Geometry and persistence knobs for [`SegmentCache`].
#[derive(Debug, Clone)]
pub struct SegmentCacheConfig {
    /// Maximum live segments (a backstop against many tiny segments).
    pub max_segments: usize,
    /// Byte budget for all cached rows; the real capacity control.
    pub max_bytes: usize,
    /// Freshness window; applied across restarts via wall-clock stamps.
    pub ttl: Duration,
    /// Spill directory: evicted-but-fresh segments are written here as
    /// PPGB kind-5 frames and reloaded on demand. `None` disables spill.
    pub spill_dir: Option<PathBuf>,
    /// Byte budget for the spill directory (oldest files dropped beyond).
    pub spill_max_bytes: u64,
}

impl Default for SegmentCacheConfig {
    fn default() -> SegmentCacheConfig {
        SegmentCacheConfig {
            max_segments: 1024,
            max_bytes: 32 << 20,
            ttl: Duration::from_secs(30),
            spill_dir: None,
            spill_max_bytes: 256 << 20,
        }
    }
}

/// The outcome of one [`SegmentCache::lookup`].
#[derive(Debug, Clone)]
pub enum Lookup {
    /// The whole window is answered from cache. `exact` distinguishes a
    /// byte-identical window repeat from a containment/stitching answer.
    Hit {
        /// The rows of the answer (filtered to the window for range hits).
        rows: Arc<Vec<String>>,
        /// True for an exact window match, false for a range answer.
        exact: bool,
    },
    /// A contiguous part of the window is cached; the caller should fetch
    /// only `missing` and merge.
    Partial {
        /// Rows covering the cached part of the window.
        rows: Vec<String>,
        /// The uncovered sub-window to fetch remotely.
        missing: (f64, f64),
    },
    /// Nothing usable is cached.
    Miss,
}

/// A point-in-time snapshot of every cache counter and gauge.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounters {
    /// Lookups answered wholly from cache (exact + range).
    pub hits: u64,
    /// Lookups needing a wire call (partials included).
    pub misses: u64,
    /// Exact window repeats.
    pub exact_hits: u64,
    /// Containment / stitched range answers.
    pub range_hits: u64,
    /// Partially covered lookups (also counted in `misses`).
    pub partial_hits: u64,
    /// Segments evicted under budget pressure.
    pub evictions: u64,
    /// Inserts rejected by admission control (segment too large).
    pub admission_rejections: u64,
    /// Window slices created by admitting over-budget filterable scans as
    /// several smaller segments instead of rejecting them.
    pub admission_slices: u64,
    /// Segments written to the spill directory.
    pub spill_writes: u64,
    /// Segments rehydrated from the spill directory.
    pub spill_loads: u64,
    /// Spill files dropped as corrupt or expired.
    pub spill_drops: u64,
    /// Spill-directory compaction passes (expired-file sweep + merge of
    /// overlapping same-series runs into one file).
    pub spill_compactions: u64,
    /// Live in-memory segments.
    pub segments: usize,
    /// Bytes held by live segments.
    pub bytes: usize,
    /// Bytes held in the spill directory.
    pub spill_bytes: u64,
    /// Recency queue length (bounded; see eviction notes).
    pub queue_len: usize,
}

/// One row's time extent inside a sorted run, plus `reach`: the running
/// maximum of span ends over the run up to and including this row. Starts
/// are non-decreasing by the run order and `reach` by construction, so the
/// rows intersecting a window are bracketed by two binary searches.
#[derive(Debug, Clone, Copy)]
struct RowSpan {
    start: f64,
    end: f64,
    reach: f64,
}

/// The total order of a sorted run: span start, then span end, then row
/// text. Identical rows are therefore neighbours, which is what lets a
/// merge drop a row fetched twice by comparing neighbours alone.
fn run_order<A: AsRef<str>, B: AsRef<str>>(a: &(RowSpan, A), b: &(RowSpan, B)) -> CmpOrdering {
    (a.0.start.total_cmp(&b.0.start))
        .then(a.0.end.total_cmp(&b.0.end))
        .then_with(|| a.1.as_ref().cmp(b.1.as_ref()))
}

/// Recompute `reach` for `spans[from..]` (everything before is final).
fn seal_reach(spans: &mut [RowSpan], from: usize) {
    let mut reach = match from {
        0 => f64::NEG_INFINITY,
        _ => spans[from - 1].reach,
    };
    for span in &mut spans[from..] {
        reach = reach.max(span.end);
        span.reach = reach;
    }
}

type Rows = Arc<Vec<String>>;

/// Put interval-shaped rows into run order; rows handed back as `Err` when
/// any of them lacks the `t=` marker (the segment is then not filterable).
/// Wrapper output is already in time order, so the common case is one
/// linear check that keeps the caller's `Arc`; only out-of-order rows pay
/// a sort and a copy.
fn sorted_run(rows: Rows) -> Result<(Rows, Vec<RowSpan>), Rows> {
    let Some(mut spans) = rows
        .iter()
        .map(|r| {
            row_time_span(r).map(|(start, end)| RowSpan {
                start,
                end,
                reach: end,
            })
        })
        .collect::<Option<Vec<RowSpan>>>()
    else {
        return Err(rows);
    };
    let key = |i: usize| (spans[i], rows[i].as_str());
    let rows = if (1..rows.len()).all(|i| run_order(&key(i - 1), &key(i)) != CmpOrdering::Greater) {
        rows
    } else {
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| run_order(&key(a), &key(b)));
        let sorted = Arc::new(order.iter().map(|&i| rows[i].clone()).collect());
        spans = order.iter().map(|&i| spans[i]).collect();
        sorted
    };
    seal_reach(&mut spans, 0);
    Ok((rows, spans))
}

/// Two-way merge of sorted run `b` into sorted run `a`. A row present in
/// both is kept once, so a boundary row fetched by two overlapping windows
/// does not double while rows a wrapper really emitted twice stay twice.
/// Everything in `a` ordered before `b`'s first row stays where it is: an
/// in-order append (the streaming case) touches only the new rows. The
/// caller re-seals `reach` from the returned position.
fn merge_runs<T: AsRef<str>>(a: &mut Vec<(RowSpan, T)>, b: Vec<(RowSpan, T)>) -> usize {
    let Some(first) = b.first() else {
        return a.len();
    };
    let kept = a.partition_point(|row| run_order(row, first) == CmpOrdering::Less);
    let tail = a.split_off(kept);
    a.reserve(tail.len() + b.len());
    let (mut old, mut new) = (tail.into_iter().peekable(), b.into_iter().peekable());
    while let (Some(l), Some(r)) = (old.peek(), new.peek()) {
        match run_order(l, r) {
            CmpOrdering::Less => a.extend(old.next()),
            CmpOrdering::Greater => a.extend(new.next()),
            CmpOrdering::Equal => {
                a.extend(old.next());
                new.next();
            }
        }
    }
    a.extend(old);
    a.extend(new);
    kept
}

/// A run as owned `(span, row)` pairs for merging. Rows are moved out of
/// the `Arc` unless a reader still holds it.
fn zip_run(rows: Arc<Vec<String>>, spans: Vec<RowSpan>) -> Vec<(RowSpan, String)> {
    let rows = Arc::try_unwrap(rows).unwrap_or_else(|shared| (*shared).clone());
    spans.into_iter().zip(rows).collect()
}

/// The index range of a run holding every row that can intersect `window`:
/// rows past `hi` start after it, rows before `lo` (and everything before
/// them) end before it. Rows inside may still end before the window when a
/// long earlier row holds `reach` up, so callers also check `end`.
fn run_range(spans: &[RowSpan], window: (f64, f64)) -> std::ops::Range<usize> {
    let hi = spans.partition_point(|s| s.start <= window.1);
    let lo = spans[..hi].partition_point(|s| s.reach < window.0);
    lo..hi
}

#[derive(Clone)]
struct Segment {
    /// Unique, monotonically increasing id — never reused, so a queue
    /// entry can always tell whether it still names a live segment.
    id: u64,
    start: f64,
    end: f64,
    rows: Arc<Vec<String>>,
    /// Per-row time spans when every row is interval-shaped (`Some` ⇔
    /// the segment is filterable); `rows` is then a sorted run.
    spans: Option<Vec<RowSpan>>,
    /// Estimated resident cost in bytes.
    bytes: usize,
    /// Monotonic freshness deadline.
    fresh_until: Instant,
    /// Wall-clock insert time (unix ms), carried through spill files so
    /// the TTL applies across restarts.
    wall_ms: u64,
    /// Generation stamp, bumped on every touch: the queue entry carrying
    /// the current `(id, gen)` is the segment's one live queue position,
    /// everything older is skippable in O(1).
    gen: u64,
    /// Hits absorbed since insert/last second chance — the "overlap
    /// frequency" half of the eviction value function.
    hits_seen: u64,
}

impl Segment {
    fn intersects(&self, w: (f64, f64)) -> bool {
        self.start <= w.1 && self.end >= w.0
    }

    /// The spans of a filterable segment that can serve `window`.
    fn serving(&self, window: (f64, f64)) -> Option<&[RowSpan]> {
        self.spans.as_deref().filter(|_| self.intersects(window))
    }
}

/// One series' live segments, kept in window-start order, and the shared
/// key its recency-queue entries carry.
struct Series {
    key: Arc<str>,
    segs: Vec<Segment>,
}

struct SpillEntry {
    path: PathBuf,
    start: f64,
    end: f64,
    bytes: u64,
    wall_ms: u64,
}

#[derive(Default)]
struct Inner {
    series: HashMap<Arc<str>, Series>,
    /// Recency order, least-recent at the front. Entries are
    /// `(series, segment id, generation)`; an entry is live only while it
    /// matches the segment's current generation, so stale entries are
    /// recognized without scanning the queue. The queue is compacted
    /// whenever it exceeds `2 × live segments + 64`, bounding it on
    /// read-heavy workloads (the v1 cache leaked queue memory here).
    order: VecDeque<(Arc<str>, u64, u64)>,
    segment_count: usize,
    bytes: usize,
    next_id: u64,
    /// On-disk segments by series, loadable on a memory miss.
    spill: HashMap<String, Vec<SpillEntry>>,
    spill_bytes: u64,
    next_file: u64,
    /// Spill files written since the last directory compaction; eviction
    /// churn writing many small files is what compaction folds back up.
    spill_writes_since_compact: u64,
    /// The most recent invalidations, oldest first: `(epoch, scope)` where
    /// the scope is a series key or a key prefix. An insert that looked up
    /// before an invalidation covering its series is refused.
    invalidations: VecDeque<(u64, String)>,
    /// Epoch of the newest invalidation trimmed from the log: an insert
    /// that looked up before it cannot be cleared any more, so it is
    /// refused too.
    invalidation_floor: u64,
}

/// A byte-budgeted, TTL-bounded semantic segment cache of rendered
/// PerformanceResult rows, with disk spill for warm restarts.
#[derive(Default)]
pub struct SegmentCache {
    config: SegmentCacheConfig,
    inner: Mutex<Inner>,
    /// Invalidation epoch: bumped (under the lock) by every [`remove`]
    /// and [`invalidate_prefix`], read lock-free by fills.
    ///
    /// [`remove`]: SegmentCache::remove
    /// [`invalidate_prefix`]: SegmentCache::invalidate_prefix
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    exact_hits: AtomicU64,
    range_hits: AtomicU64,
    partial_hits: AtomicU64,
    evictions: AtomicU64,
    admission_rejections: AtomicU64,
    admission_slices: AtomicU64,
    spill_writes: AtomicU64,
    spill_loads: AtomicU64,
    spill_drops: AtomicU64,
    spill_compactions: AtomicU64,
}

/// Compact the spill directory after this many file writes, regardless of
/// how full the byte budget is — eviction churn writes many small adjacent
/// files and merging them keeps the restart scan and lookup probes cheap.
const SPILL_COMPACT_EVERY: u64 = 64;

/// Invalidations remembered for clearing late inserts. A fetch lives for at
/// most one query deadline, so the log only has to outlast the
/// invalidations of that long; overflow refuses the oldest fills instead of
/// trusting them.
const INVALIDATION_LOG: usize = 256;

fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Rough resident cost of a segment: row bytes plus per-row and per-
/// segment bookkeeping overhead.
fn segment_cost(series: &str, rows: &[String]) -> usize {
    series.len() + 96 + rows.iter().map(|r| r.len() + 48).sum::<usize>()
}

enum Probe {
    Exact(Arc<Vec<String>>),
    Range(Vec<String>),
    Partial(Vec<String>, (f64, f64)),
    Miss,
}

/// Drop the expired segments of one series; returns `(count, bytes)`.
fn purge_expired(segs: &mut Vec<Segment>, now: Instant) -> (usize, usize) {
    let (mut dropped, mut dropped_bytes) = (0usize, 0usize);
    segs.retain(|s| {
        if s.fresh_until > now {
            true
        } else {
            dropped += 1;
            dropped_bytes += s.bytes;
            false
        }
    });
    // The expired segments' queue entries go stale by construction (their
    // (id, gen) no longer resolves) — eviction skips them and compaction
    // reclaims them, so an expired-then-reinserted series can never be
    // evicted through a leftover queue position.
    (dropped, dropped_bytes)
}

/// The rows of a sorted run that intersect `window`, by reference.
fn rows_in_window<'a>(
    rows: &'a [String],
    spans: &[RowSpan],
    window: (f64, f64),
) -> Vec<(RowSpan, &'a String)> {
    let range = run_range(spans, window);
    let rows = &rows[range.clone()];
    (spans[range].iter().zip(rows))
        .filter(|(span, _)| span.end >= window.0)
        .map(|(span, row)| (*span, row))
        .collect()
}

/// Copy out the rows of `covered` from every segment serving it, touching
/// (recency + frequency, one queue entry each — no queue scan) the segments
/// that served. One segment is the common case: two binary searches and an
/// exact-capacity copy. Rows are compared only where several segments
/// overlap (window slices, segments promoted from spill).
fn gather(
    series: &mut Series,
    order: &mut VecDeque<(Arc<str>, u64, u64)>,
    covered: (f64, f64),
) -> Vec<String> {
    for seg in &mut series.segs {
        if seg.serving(covered).is_some() {
            seg.gen += 1;
            seg.hits_seen = seg.hits_seen.saturating_add(1);
            order.push_back((Arc::clone(&series.key), seg.id, seg.gen));
        }
    }
    let mut serving = series
        .segs
        .iter()
        .filter_map(|seg| seg.serving(covered).map(|spans| (seg, spans)));
    let (first, first_spans) = serving
        .next()
        .expect("a covered window has a serving segment");
    let rest: Vec<_> = serving.collect();
    if rest.is_empty() {
        let range = run_range(first_spans, covered);
        let wanted = |i: &usize| first_spans[*i].end >= covered.0;
        let mut rows = Vec::with_capacity(range.clone().filter(wanted).count());
        rows.extend(range.filter(wanted).map(|i| first.rows[i].clone()));
        return rows;
    }
    let mut merged = rows_in_window(&first.rows, first_spans, covered);
    for (seg, spans) in rest {
        merge_runs(&mut merged, rows_in_window(&seg.rows, spans, covered));
    }
    merged.into_iter().map(|(_, row)| row.clone()).collect()
}

impl SegmentCache {
    /// Open a cache. When a spill directory is configured it is created
    /// and scanned: well-formed, still-fresh segment files become loadable
    /// index entries (rows stay on disk until a lookup wants them);
    /// corrupt or expired files are deleted — cold, never a panic.
    pub fn new(config: SegmentCacheConfig) -> SegmentCache {
        let cache = SegmentCache {
            config,
            ..SegmentCache::default()
        };
        cache.scan_spill_dir();
        cache
    }

    fn scan_spill_dir(&self) {
        let Some(dir) = self.config.spill_dir.clone() else {
            return;
        };
        if std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        let Ok(entries) = std::fs::read_dir(&dir) else {
            return;
        };
        let ttl_ms = self.config.ttl.as_millis() as u64;
        let now_ms = now_unix_ms();
        let mut inner = self.inner.lock();
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("ppgseg") {
                continue;
            }
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                if let Some(n) = stem.rsplit('-').next().and_then(|n| n.parse::<u64>().ok()) {
                    inner.next_file = inner.next_file.max(n + 1);
                }
            }
            let seg = std::fs::read(&path)
                .ok()
                .and_then(|bytes| decode_binary_segment(&bytes).ok());
            let fresh = seg
                .as_ref()
                .is_some_and(|s| now_ms.saturating_sub(s.inserted_unix_ms) < ttl_ms);
            match seg {
                Some(seg) if fresh => {
                    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                    inner.spill_bytes += bytes;
                    inner.spill.entry(seg.series).or_default().push(SpillEntry {
                        path,
                        start: seg.start,
                        end: seg.end,
                        bytes,
                        wall_ms: seg.inserted_unix_ms,
                    });
                }
                _ => {
                    // Corrupt, unreadable, or past its wall-clock TTL:
                    // the restart simply starts cold for this segment.
                    let _ = std::fs::remove_file(&path);
                    self.spill_drops.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Look up `window` within `series`, refreshing the recency of every
    /// contributing segment. A memory miss consults the spill index and
    /// promotes intersecting on-disk segments before giving up. Expired
    /// segments are purged on the way in. Partial answers count as a
    /// miss (a wire call still happens) *and* as a partial hit.
    pub fn lookup(&self, series: &str, window: (f64, f64)) -> Lookup {
        if window.0.is_nan() || window.1.is_nan() || window.0 > window.1 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Lookup::Miss;
        }
        let now = Instant::now();
        let mut inner = self.inner.lock();
        let mut probe = self.probe(&mut inner, series, window, now);
        if !matches!(probe, Probe::Exact(_) | Probe::Range(_))
            && self.load_spill(&mut inner, series, window, now) > 0
        {
            probe = self.probe(&mut inner, series, window, now);
        }
        self.maybe_compact(&mut inner);
        drop(inner);
        match probe {
            Probe::Exact(rows) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.exact_hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Hit { rows, exact: true }
            }
            Probe::Range(rows) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.range_hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Hit {
                    rows: Arc::new(rows),
                    exact: false,
                }
            }
            Probe::Partial(rows, missing) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.partial_hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Partial { rows, missing }
            }
            Probe::Miss => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Lookup::Miss
            }
        }
    }

    /// Probe the in-memory segments of `series` (expired ones are purged
    /// first): an exact window repeat, else how far the filterable
    /// segments intersecting the window chain coverage across it.
    fn probe(&self, inner: &mut Inner, series: &str, window: (f64, f64), now: Instant) -> Probe {
        let Some(entry) = inner.series.get_mut(series) else {
            return Probe::Miss;
        };
        let (dropped, dropped_bytes) = purge_expired(&mut entry.segs, now);
        inner.segment_count -= dropped;
        inner.bytes -= dropped_bytes;
        if entry.segs.is_empty() {
            inner.series.remove(series);
            return Probe::Miss;
        }
        let (w0, w1) = window;
        // Exact window repeat: any segment, filterable or not (a filterable
        // segment holds every row intersecting its own window).
        if let Some(seg) = (entry.segs.iter_mut()).find(|s| s.start == w0 && s.end == w1) {
            seg.gen += 1;
            seg.hits_seen = seg.hits_seen.saturating_add(1);
            let queued = (Arc::clone(&entry.key), seg.id, seg.gen);
            inner.order.push_back(queued);
            return Probe::Exact(Arc::clone(&seg.rows));
        }
        let serving = || entry.segs.iter().filter(|s| s.serving(window).is_some());
        // Greedy chain from the left edge: how far do touching segments
        // (already in start order) carry coverage?
        let mut frontier = w0;
        let mut reached = false;
        for seg in serving() {
            if seg.start > frontier {
                break;
            }
            frontier = frontier.max(seg.end);
            reached = true;
            if frontier >= w1 {
                break;
            }
        }
        let (covered, missing) = if reached && frontier >= w1 {
            (window, None)
        } else if reached && frontier > w0 {
            // A covered prefix [w0, frontier]; fetch the rest.
            ((w0, frontier), Some((frontier, w1)))
        } else {
            // Try a covered suffix chained back from the right edge.
            let mut back = w1;
            let mut reached_back = false;
            for seg in serving().rev() {
                if seg.end < back {
                    break;
                }
                back = back.min(seg.start);
                reached_back = true;
            }
            if !(reached_back && back < w1) {
                return Probe::Miss;
            }
            ((back, w1), Some((w0, back)))
        };
        let rows = gather(entry, &mut inner.order, covered);
        match missing {
            None => Probe::Range(rows),
            Some(missing) => Probe::Partial(rows, missing),
        }
    }

    /// The invalidation epoch a fill should carry from its lookup to its
    /// [`SegmentCache::insert_at`]: read it *before* the lookup.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Insert rows fetched for `window` into `series`. Overlapping or
    /// touching filterable segments are merged (rows deduped) so coverage
    /// stays contiguous; a non-filterable insert replaces only the same
    /// exact window. An over-budget *filterable* insert is admitted as
    /// several window slices (each under the admission cap) instead of
    /// being rejected — only oversized unfilterable segments, which cannot
    /// be split soundly, are rejected outright. Budget overruns evict
    /// coldest-first with spill.
    pub fn insert(&self, series: &str, window: (f64, f64), rows: Arc<Vec<String>>) {
        self.insert_at(series, window, rows, u64::MAX);
    }

    /// [`SegmentCache::insert`] for rows whose fetch began at `epoch` (see
    /// [`SegmentCache::epoch`]): if the series was invalidated since, the
    /// rows predate the invalidation and are dropped instead of stored.
    /// Returns whether the rows were accepted.
    pub fn insert_at(
        &self,
        series: &str,
        window: (f64, f64),
        rows: Arc<Vec<String>>,
        epoch: u64,
    ) -> bool {
        let (w0, w1) = window;
        if w0.is_nan() || w1.is_nan() || w0 > w1 {
            return false;
        }
        let run = sorted_run(rows);
        if let Err(rows) = &run {
            if segment_cost(series, rows) > self.config.max_bytes / 4 {
                self.admission_rejections.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
        let now = Instant::now();
        let mut inner = self.inner.lock();
        let superseded = epoch < inner.invalidation_floor
            || (inner.invalidations.iter().rev())
                .take_while(|(at, _)| *at > epoch)
                .any(|(_, scope)| series.starts_with(scope.as_str()));
        if superseded {
            return false;
        }
        let key: Arc<str> = match inner.series.get_mut(series) {
            Some(entry) => {
                let (dropped, dropped_bytes) = purge_expired(&mut entry.segs, now);
                let key = Arc::clone(&entry.key);
                inner.segment_count -= dropped;
                inner.bytes -= dropped_bytes;
                key
            }
            None => Arc::from(series),
        };
        let (seg_window, seg_rows, seg_spans) = match run {
            Ok((rows, spans)) => {
                let (window, rows, spans) =
                    self.merge_filterable(&mut inner, &key, window, rows, spans);
                (window, rows, Some(spans))
            }
            Err(rows) => {
                // Replace a byte-identical window (a refresh), leave others.
                if let Some(entry) = inner.series.get_mut(&*key) {
                    if let Some(pos) = (entry.segs.iter())
                        .position(|s| s.spans.is_none() && s.start == w0 && s.end == w1)
                    {
                        let old = entry.segs.remove(pos);
                        inner.segment_count -= 1;
                        inner.bytes -= old.bytes;
                    }
                }
                (window, rows, None)
            }
        };
        if segment_cost(&key, &seg_rows) > self.config.max_bytes / 4 {
            // The admission cap applies to the *merged* segment too: a big
            // scan (or a merge that grew past the cap) lands as slices.
            match &seg_spans {
                Some(spans) => {
                    self.insert_sliced(&mut inner, &key, seg_window, &seg_rows, spans, now)
                }
                None => {
                    self.admission_rejections.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
        } else {
            let fresh_until = now + self.config.ttl;
            self.push_segment(
                &mut inner,
                &key,
                seg_window,
                seg_rows,
                seg_spans,
                fresh_until,
                now_unix_ms(),
            );
        }
        self.evict_over_budget(&mut inner, now);
        self.maybe_compact(&mut inner);
        true
    }

    /// Make one segment live: id, accounting, its place in the series'
    /// start order, and its first recency-queue entry.
    #[allow(clippy::too_many_arguments)]
    fn push_segment(
        &self,
        inner: &mut Inner,
        key: &Arc<str>,
        window: (f64, f64),
        rows: Arc<Vec<String>>,
        spans: Option<Vec<RowSpan>>,
        fresh_until: Instant,
        wall_ms: u64,
    ) {
        let bytes = segment_cost(key, &rows);
        let id = inner.next_id;
        inner.next_id += 1;
        inner.bytes += bytes;
        inner.segment_count += 1;
        let entry = inner
            .series
            .entry(Arc::clone(key))
            .or_insert_with(|| Series {
                key: Arc::clone(key),
                segs: Vec::new(),
            });
        let at = entry.segs.partition_point(|s| s.start <= window.0);
        entry.segs.insert(
            at,
            Segment {
                id,
                start: window.0,
                end: window.1,
                rows,
                spans,
                bytes,
                fresh_until,
                wall_ms,
                gen: 0,
                hits_seen: 0,
            },
        );
        inner.order.push_back((Arc::clone(key), id, 0));
    }

    /// Admit one over-budget filterable segment as several window slices.
    /// The window is cut wherever a greedy pack of the run (in start order)
    /// fills the admission cap, and every slice holds *all* rows
    /// intersecting its cell — a row straddling a cut is held by each cell
    /// it reaches into, so a slice stays a complete answer for its own
    /// window whichever of its neighbours is evicted, and a later lookup
    /// stitches the cells back into one range answer, the shared rows
    /// compared away. Slices bypass the merge (merging would just rebuild
    /// the over-budget segment).
    fn insert_sliced(
        &self,
        inner: &mut Inner,
        key: &Arc<str>,
        window: (f64, f64),
        rows: &[String],
        spans: &[RowSpan],
        now: Instant,
    ) {
        let cap = (self.config.max_bytes / 4).max(1);
        // A cell always takes at least one row (and every row sharing its
        // start), so a single row larger than the cap is still admitted.
        let base = key.len() + 96;
        let mut bounds = vec![window.0];
        let mut cell_bytes = base;
        for (row, span) in rows.iter().zip(spans) {
            let row_cost = row.len() + 48;
            let cut = span.start.min(window.1);
            if cell_bytes > base && cell_bytes + row_cost > cap && cut > bounds[bounds.len() - 1] {
                bounds.push(cut);
                cell_bytes = base;
            }
            cell_bytes += row_cost;
        }
        bounds.push(window.1);
        for cell in bounds.windows(2) {
            let cell = (cell[0], cell[1]);
            let (mut cell_spans, cell_rows): (Vec<RowSpan>, Vec<String>) =
                (rows_in_window(rows, spans, cell).into_iter())
                    .map(|(span, row)| (span, row.clone()))
                    .unzip();
            seal_reach(&mut cell_spans, 0);
            let fresh_until = now + self.config.ttl;
            let rows = Arc::new(cell_rows);
            self.push_segment(
                inner,
                key,
                cell,
                rows,
                Some(cell_spans),
                fresh_until,
                now_unix_ms(),
            );
            self.admission_slices.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Union the incoming filterable run with every cached filterable
    /// segment it overlaps or touches, dropping the absorbed ones: a
    /// two-way merge per absorbed segment, so only rows both sides hold (a
    /// row at a shared boundary appears in both fetches) are compared by
    /// text. Absorbed rows are moved, not copied, unless a reader still
    /// holds them. Returns the merged window, rows, and spans.
    fn merge_filterable(
        &self,
        inner: &mut Inner,
        key: &Arc<str>,
        window: (f64, f64),
        rows: Arc<Vec<String>>,
        spans: Vec<RowSpan>,
    ) -> ((f64, f64), Arc<Vec<String>>, Vec<RowSpan>) {
        let (mut w0, mut w1) = window;
        let mut absorbed: Vec<Segment> = Vec::new();
        if let Some(entry) = inner.series.get_mut(&**key) {
            let mut i = 0;
            while i < entry.segs.len() {
                let s = &entry.segs[i];
                if s.spans.is_some() && s.start <= w1 && s.end >= w0 {
                    w0 = w0.min(s.start);
                    w1 = w1.max(s.end);
                    absorbed.push(entry.segs.remove(i));
                } else {
                    i += 1;
                }
            }
        }
        if absorbed.is_empty() {
            return (window, rows, spans);
        }
        for seg in &absorbed {
            inner.segment_count -= 1;
            inner.bytes -= seg.bytes;
        }
        // Old runs first (already in start order), the new fetch last.
        let mut runs = absorbed
            .into_iter()
            .map(|seg| zip_run(seg.rows, seg.spans.expect("filterable by construction")))
            .chain(std::iter::once(zip_run(rows, spans)));
        let mut merged = runs.next().expect("at least the new run");
        let mut dirty_from = merged.len();
        for run in runs {
            dirty_from = dirty_from.min(merge_runs(&mut merged, run));
        }
        let (mut spans, rows): (Vec<RowSpan>, Vec<String>) = merged.into_iter().unzip();
        seal_reach(&mut spans, dirty_from);
        ((w0, w1), Arc::new(rows), spans)
    }

    /// Evict while over either budget. Queue entries whose `(id, gen)` no
    /// longer resolves are skipped in O(1); a segment that absorbed ≥ 2
    /// hits since its last pass gets a CLOCK second chance (frequency
    /// halved, recency refreshed) instead of dying — hot overlap-heavy
    /// segments survive churn. Evicted-but-fresh segments spill to disk.
    fn evict_over_budget(&self, inner: &mut Inner, now: Instant) {
        while inner.segment_count > self.config.max_segments || inner.bytes > self.config.max_bytes
        {
            let Some((key, id, gen)) = inner.order.pop_front() else {
                break;
            };
            let Some(entry) = inner.series.get_mut(&*key) else {
                continue;
            };
            let segs = &mut entry.segs;
            let Some(pos) = segs.iter().position(|s| s.id == id && s.gen == gen) else {
                continue;
            };
            if segs[pos].hits_seen >= 2 {
                let seg = &mut segs[pos];
                seg.hits_seen /= 2;
                seg.gen += 1;
                let entry = (Arc::clone(&key), id, seg.gen);
                inner.order.push_back(entry);
                continue;
            }
            let seg = segs.remove(pos);
            if segs.is_empty() {
                inner.series.remove(&*key);
            }
            inner.segment_count -= 1;
            inner.bytes -= seg.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if seg.fresh_until > now {
                self.spill_segment(inner, &key, &seg);
            }
        }
    }

    /// Compact the recency queue once it exceeds `2 × segments + 64`
    /// entries, dropping everything whose `(id, gen)` no longer names a
    /// live segment. Each live segment holds exactly one live entry, so
    /// the queue stays bounded no matter how read-heavy the workload —
    /// the v1 cache grew its queue on every hit, forever.
    fn maybe_compact(&self, inner: &mut Inner) {
        if inner.order.len() <= 2 * inner.segment_count + 64 {
            return;
        }
        let Inner { order, series, .. } = inner;
        order.retain(|(key, id, gen)| {
            series
                .get(&**key)
                .is_some_and(|entry| entry.segs.iter().any(|s| s.id == *id && s.gen == *gen))
        });
    }
    /// Write one segment to the spill directory as a PPGB kind-5 frame,
    /// then enforce the spill byte budget by dropping oldest-first.
    fn spill_segment(&self, inner: &mut Inner, key: &str, seg: &Segment) {
        let Some(dir) = self.config.spill_dir.as_deref() else {
            return;
        };
        let frame = encode_binary_segment(&WireSegment {
            series: key.to_owned(),
            start: seg.start,
            end: seg.end,
            filterable: seg.spans.is_some(),
            inserted_unix_ms: seg.wall_ms,
            rows: seg.rows.as_ref().clone(),
        });
        let n = inner.next_file;
        inner.next_file += 1;
        let path = dir.join(format!("seg-{:016x}-{n}.ppgseg", fnv64(key)));
        if std::fs::write(&path, &frame).is_err() {
            return;
        }
        self.spill_writes.fetch_add(1, Ordering::Relaxed);
        inner.spill_bytes += frame.len() as u64;
        inner
            .spill
            .entry(key.to_owned())
            .or_default()
            .push(SpillEntry {
                path,
                start: seg.start,
                end: seg.end,
                bytes: frame.len() as u64,
                wall_ms: seg.wall_ms,
            });
        inner.spill_writes_since_compact += 1;
        if inner.spill_writes_since_compact >= SPILL_COMPACT_EVERY
            || inner.spill_bytes > self.config.spill_max_bytes / 4 * 3
        {
            inner.spill_writes_since_compact = 0;
            self.compact_spill(inner);
        }
        while inner.spill_bytes > self.config.spill_max_bytes {
            // Drop the oldest spill file anywhere.
            let oldest = inner
                .spill
                .iter()
                .flat_map(|(k, v)| v.iter().map(move |e| (k.clone(), e.wall_ms)))
                .min_by_key(|(_, ms)| *ms);
            let Some((series, wall_ms)) = oldest else {
                break;
            };
            let Some(entries) = inner.spill.get_mut(&series) else {
                break;
            };
            let Some(pos) = entries.iter().position(|e| e.wall_ms == wall_ms) else {
                break;
            };
            let entry = entries.swap_remove(pos);
            if entries.is_empty() {
                inner.spill.remove(&series);
            }
            inner.spill_bytes -= entry.bytes;
            let _ = std::fs::remove_file(&entry.path);
            self.spill_drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Compact the spill directory in place: sweep files past their
    /// wall-clock TTL, then merge each series' overlapping (or touching)
    /// window runs into one file. Eviction churn under byte pressure
    /// writes many small adjacent segments of the same series; folding
    /// them up keeps the restart scan short and a later `load_spill`
    /// promotes one merged segment instead of a pile of slivers.
    fn compact_spill(&self, inner: &mut Inner) {
        if self.config.spill_dir.is_none() {
            return;
        }
        self.spill_compactions.fetch_add(1, Ordering::Relaxed);
        let ttl_ms = self.config.ttl.as_millis() as u64;
        let now_ms = now_unix_ms();
        let keys: Vec<String> = inner.spill.keys().cloned().collect();
        for key in keys {
            if let Some(entries) = inner.spill.get_mut(&key) {
                let mut i = 0;
                while i < entries.len() {
                    if now_ms.saturating_sub(entries[i].wall_ms) >= ttl_ms {
                        let e = entries.swap_remove(i);
                        inner.spill_bytes -= e.bytes;
                        let _ = std::fs::remove_file(&e.path);
                        self.spill_drops.fetch_add(1, Ordering::Relaxed);
                    } else {
                        i += 1;
                    }
                }
                if entries.is_empty() {
                    inner.spill.remove(&key);
                    continue;
                }
            }
            self.merge_spill_runs(inner, &key);
        }
    }

    /// Merge every maximal run of overlapping/touching spill windows of
    /// one series into a single file. Entries that fail to merge (corrupt,
    /// unfilterable, write error) pass through untouched.
    fn merge_spill_runs(&self, inner: &mut Inner, key: &str) {
        let Some(mut entries) = inner.spill.remove(key) else {
            return;
        };
        entries.sort_by(|a, b| a.start.total_cmp(&b.start));
        let mut rebuilt: Vec<SpillEntry> = Vec::new();
        let mut run: Vec<SpillEntry> = Vec::new();
        let mut run_end = f64::NEG_INFINITY;
        for entry in entries {
            if run.is_empty() || entry.start <= run_end {
                run_end = run_end.max(entry.end);
                run.push(entry);
            } else {
                self.flush_spill_run(inner, key, std::mem::take(&mut run), &mut rebuilt);
                run_end = entry.end;
                run.push(entry);
            }
        }
        self.flush_spill_run(inner, key, run, &mut rebuilt);
        if !rebuilt.is_empty() {
            inner.spill.insert(key.to_owned(), rebuilt);
        }
    }

    /// Replace one run of spill entries with a single merged file. Runs of
    /// one entry, or runs where any file fails to decode as a filterable
    /// segment of this series, are kept as-is — merging is an optimization
    /// and must never lose data it cannot faithfully rewrite.
    fn flush_spill_run(
        &self,
        inner: &mut Inner,
        key: &str,
        run: Vec<SpillEntry>,
        rebuilt: &mut Vec<SpillEntry>,
    ) {
        if run.len() < 2 {
            rebuilt.extend(run);
            return;
        }
        let Some(dir) = self.config.spill_dir.as_deref() else {
            rebuilt.extend(run);
            return;
        };
        // Each file holds a sorted run (one written by an older layout is
        // sorted here); the runs fold into one by two-way merge.
        let mut merged: Vec<(RowSpan, String)> = Vec::new();
        let mut start = f64::INFINITY;
        let mut end = f64::NEG_INFINITY;
        // The merged file carries the run's *oldest* insert time, so the
        // TTL stays conservative: merging never extends any row's life.
        let mut wall_ms = u64::MAX;
        for e in &run {
            let decoded = std::fs::read(&e.path)
                .ok()
                .and_then(|bytes| decode_binary_segment(&bytes).ok())
                .filter(|s| s.series == key && s.filterable)
                .and_then(|s| Some((s.start, s.end, sorted_run(Arc::new(s.rows)).ok()?)));
            let Some((seg_start, seg_end, (rows, spans))) = decoded else {
                rebuilt.extend(run);
                return;
            };
            start = start.min(seg_start);
            end = end.max(seg_end);
            wall_ms = wall_ms.min(e.wall_ms);
            merge_runs(&mut merged, zip_run(rows, spans));
        }
        let rows = merged.into_iter().map(|(_, row)| row).collect();
        let frame = encode_binary_segment(&WireSegment {
            series: key.to_owned(),
            start,
            end,
            filterable: true,
            inserted_unix_ms: wall_ms,
            rows,
        });
        let n = inner.next_file;
        inner.next_file += 1;
        let path = dir.join(format!("seg-{:016x}-{n}.ppgseg", fnv64(key)));
        if std::fs::write(&path, &frame).is_err() {
            rebuilt.extend(run);
            return;
        }
        for e in &run {
            inner.spill_bytes -= e.bytes;
            let _ = std::fs::remove_file(&e.path);
        }
        inner.spill_bytes += frame.len() as u64;
        rebuilt.push(SpillEntry {
            path,
            start,
            end,
            bytes: frame.len() as u64,
            wall_ms,
        });
    }

    /// Promote spilled segments of `series` that intersect `window` back
    /// into memory. Returns how many were loaded. Corrupt or expired
    /// files are deleted and treated as cold.
    fn load_spill(
        &self,
        inner: &mut Inner,
        series: &str,
        window: (f64, f64),
        now: Instant,
    ) -> usize {
        let Some(entries) = inner.spill.get_mut(series) else {
            return 0;
        };
        let mut picked: Vec<SpillEntry> = Vec::new();
        let mut i = 0;
        while i < entries.len() {
            let e = &entries[i];
            if e.start <= window.1 && e.end >= window.0 {
                picked.push(entries.swap_remove(i));
            } else {
                i += 1;
            }
        }
        if entries.is_empty() {
            inner.spill.remove(series);
        }
        if picked.is_empty() {
            return 0;
        }
        let ttl_ms = self.config.ttl.as_millis() as u64;
        let now_ms = now_unix_ms();
        let mut loaded = 0usize;
        for entry in picked {
            inner.spill_bytes -= entry.bytes;
            let decoded = std::fs::read(&entry.path)
                .ok()
                .and_then(|bytes| decode_binary_segment(&bytes).ok())
                .filter(|seg| seg.series == series);
            let _ = std::fs::remove_file(&entry.path);
            let Some(seg) = decoded else {
                self.spill_drops.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            let age_ms = now_ms.saturating_sub(seg.inserted_unix_ms);
            if age_ms >= ttl_ms {
                self.spill_drops.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let key: Arc<str> = match inner.series.get(series) {
                Some(entry) => Arc::clone(&entry.key),
                None => Arc::from(series),
            };
            let (rows, spans) = match sorted_run(Arc::new(seg.rows)) {
                Ok((rows, spans)) => (rows, Some(spans)),
                Err(rows) => (rows, None),
            };
            let fresh_until = now + Duration::from_millis(ttl_ms - age_ms);
            let window = (seg.start, seg.end);
            self.push_segment(
                inner,
                &key,
                window,
                rows,
                spans,
                fresh_until,
                seg.inserted_unix_ms,
            );
            self.spill_loads.fetch_add(1, Ordering::Relaxed);
            loaded += 1;
        }
        self.evict_over_budget(inner, now);
        loaded
    }

    /// Write every fresh in-memory segment to the spill directory (the
    /// graceful-shutdown path), replacing any previous spill files so the
    /// directory holds exactly the current cache content. A no-op without
    /// a spill directory. Segments stay in memory.
    pub fn spill_now(&self) {
        if self.config.spill_dir.is_none() {
            return;
        }
        let now = Instant::now();
        let mut inner = self.inner.lock();
        for (_, entries) in std::mem::take(&mut inner.spill) {
            for e in entries {
                let _ = std::fs::remove_file(&e.path);
            }
        }
        inner.spill_bytes = 0;
        let keys: Vec<Arc<str>> = inner.series.keys().cloned().collect();
        for key in keys {
            let snapshot: Vec<Segment> = match inner.series.get(&*key) {
                Some(entry) => (entry.segs)
                    .iter()
                    .filter(|s| s.fresh_until > now)
                    .cloned()
                    .collect(),
                None => continue,
            };
            for seg in &snapshot {
                self.spill_segment(&mut inner, &key, seg);
            }
        }
    }

    /// Number of live in-memory segments.
    pub fn len(&self) -> usize {
        self.inner.lock().segment_count
    }

    /// True when nothing is cached in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters (partials count as misses).
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Hit rate in `[0, 1]`; 0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = self.stats();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Every counter and gauge at once.
    pub fn counters(&self) -> CacheCounters {
        let inner = self.inner.lock();
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            exact_hits: self.exact_hits.load(Ordering::Relaxed),
            range_hits: self.range_hits.load(Ordering::Relaxed),
            partial_hits: self.partial_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            admission_rejections: self.admission_rejections.load(Ordering::Relaxed),
            admission_slices: self.admission_slices.load(Ordering::Relaxed),
            spill_writes: self.spill_writes.load(Ordering::Relaxed),
            spill_loads: self.spill_loads.load(Ordering::Relaxed),
            spill_drops: self.spill_drops.load(Ordering::Relaxed),
            spill_compactions: self.spill_compactions.load(Ordering::Relaxed),
            segments: inner.segment_count,
            bytes: inner.bytes,
            spill_bytes: inner.spill_bytes,
            queue_len: inner.order.len(),
        }
    }

    /// Recency queue length (diagnostics; bounded by `2 × segments + 65`).
    pub fn queue_len(&self) -> usize {
        self.inner.lock().order.len()
    }

    /// Invalidate a whole series — every in-memory segment *and* every
    /// spill file (counters are kept) — and refuse any insert whose fetch
    /// began before now (see [`SegmentCache::insert_at`]). Used for
    /// site-scoped invalidation: a lease expiry or change event must not
    /// leave stale rows reachable through disk, nor let a fetch already in
    /// flight put them back. Queue entries die with their segments (their
    /// `(id, gen)` stops resolving), so removal cannot skew eviction.
    pub fn remove(&self, series: &str) {
        let mut inner = self.inner.lock();
        self.drop_series(&mut inner, series);
        self.log_invalidation(&mut inner, series);
        self.maybe_compact(&mut inner);
    }

    /// [`SegmentCache::remove`] for every series whose key starts with
    /// `prefix` (one instance's `<url>::`, one container's `http://host/`),
    /// including series nothing is cached for yet: their in-flight fetches
    /// are refused all the same. Returns how many series were dropped.
    pub fn invalidate_prefix(&self, prefix: &str) -> usize {
        let mut inner = self.inner.lock();
        let mut doomed: Vec<String> = (inner.series.keys().map(|k| &**k))
            .chain(inner.spill.keys().map(String::as_str))
            .filter(|k| k.starts_with(prefix))
            .map(str::to_owned)
            .collect();
        doomed.sort_unstable();
        doomed.dedup();
        for series in &doomed {
            self.drop_series(&mut inner, series);
        }
        self.log_invalidation(&mut inner, prefix);
        self.maybe_compact(&mut inner);
        doomed.len()
    }

    /// Take back what this cache holds for `series` without declaring the
    /// series invalid: a fill retracting its own incremental claims, whose
    /// later whole-window insert must still be accepted.
    pub(crate) fn retract(&self, series: &str) {
        let mut inner = self.inner.lock();
        self.drop_series(&mut inner, series);
        self.maybe_compact(&mut inner);
    }

    fn drop_series(&self, inner: &mut Inner, series: &str) {
        if let Some(entry) = inner.series.remove(series) {
            inner.segment_count -= entry.segs.len();
            inner.bytes -= entry.segs.iter().map(|s| s.bytes).sum::<usize>();
        }
        if let Some(entries) = inner.spill.remove(series) {
            for e in entries {
                inner.spill_bytes -= e.bytes;
                let _ = std::fs::remove_file(&e.path);
            }
        }
    }

    /// Open a new invalidation epoch covering every series key that starts
    /// with `scope`.
    fn log_invalidation(&self, inner: &mut Inner, scope: &str) {
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        if inner.invalidations.len() == INVALIDATION_LOG {
            if let Some((trimmed, _)) = inner.invalidations.pop_front() {
                inner.invalidation_floor = trimmed;
            }
        }
        inner.invalidations.push_back((epoch, scope.to_owned()));
    }

    /// Drop every segment and every spill file (counters are kept); like
    /// [`SegmentCache::remove`], for every series at once.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        self.log_invalidation(&mut inner, "");
        inner.series.clear();
        inner.order.clear();
        inner.segment_count = 0;
        inner.bytes = 0;
        for (_, entries) in std::mem::take(&mut inner.spill) {
            for e in entries {
                let _ = std::fs::remove_file(&e.path);
            }
        }
        inner.spill_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(max_segments: usize, max_bytes: usize, ttl: Duration) -> SegmentCacheConfig {
        SegmentCacheConfig {
            max_segments,
            max_bytes,
            ttl,
            spill_dir: None,
            spill_max_bytes: 1 << 20,
        }
    }

    fn plain_rows(s: &str) -> Arc<Vec<String>> {
        Arc::new(vec![s.to_owned()])
    }

    /// `n` interval-shaped rows, one per second of `[t0, t0 + n)`.
    fn spanned_rows(tag: &str, t0: u64, n: u64) -> Arc<Vec<String>> {
        Arc::new(
            (t0..t0 + n)
                .map(|t| format!("m|t={t}:{}|{tag}.{t}", t + 1))
                .collect(),
        )
    }

    struct TempDirGuard(PathBuf);

    impl TempDirGuard {
        fn new(tag: &str) -> TempDirGuard {
            let mut path = std::env::temp_dir();
            path.push(format!("ppg-segcache-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).unwrap();
            TempDirGuard(path)
        }
    }

    impl Drop for TempDirGuard {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    const ALL: (f64, f64) = (f64::NEG_INFINITY, f64::INFINITY);

    #[test]
    fn exact_hit_and_miss_counting() {
        let cache = SegmentCache::new(config(8, 1 << 20, Duration::from_secs(60)));
        assert!(matches!(cache.lookup("a", ALL), Lookup::Miss));
        cache.insert("a", ALL, plain_rows("1"));
        match cache.lookup("a", ALL) {
            Lookup::Hit { rows, exact } => {
                assert_eq!(rows[0], "1");
                assert!(exact);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(cache.stats(), (1, 1));
        assert!((cache.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn unmarked_rows_answer_exact_windows_only() {
        let cache = SegmentCache::new(config(8, 1 << 20, Duration::from_secs(60)));
        cache.insert("a", (0.0, 10.0), plain_rows("opaque"));
        assert!(matches!(cache.lookup("a", (2.0, 5.0)), Lookup::Miss));
        assert!(matches!(
            cache.lookup("a", (0.0, 10.0)),
            Lookup::Hit { exact: true, .. }
        ));
    }

    #[test]
    fn containment_answers_narrower_window() {
        let cache = SegmentCache::new(config(8, 1 << 20, Duration::from_secs(60)));
        cache.insert("a", (0.0, 10.0), spanned_rows("x", 0, 10));
        match cache.lookup("a", (2.0, 5.0)) {
            Lookup::Hit { rows, exact } => {
                assert!(!exact);
                // Rows spanning [1,2]..[5,6] intersect [2,5].
                assert_eq!(rows.len(), 5, "{rows:?}");
                assert!(rows.iter().all(|r| r.contains("x.")));
            }
            other => panic!("expected range hit, got {other:?}"),
        }
        let c = cache.counters();
        assert_eq!((c.range_hits, c.exact_hits), (1, 0));
    }

    #[test]
    fn adjacent_segments_stitch() {
        let cache = SegmentCache::new(config(8, 1 << 20, Duration::from_secs(60)));
        cache.insert("a", (0.0, 5.0), spanned_rows("x", 0, 5));
        cache.insert("a", (5.0, 10.0), spanned_rows("x", 5, 5));
        // Touching filterable segments merge into one [0,10] segment.
        assert_eq!(cache.len(), 1);
        match cache.lookup("a", (2.0, 8.0)) {
            Lookup::Hit { rows, exact } => {
                assert!(!exact);
                // [1,2]..[8,9] intersect [2,8].
                assert_eq!(rows.len(), 8, "{rows:?}");
            }
            other => panic!("expected stitched hit, got {other:?}"),
        }
    }

    #[test]
    fn partial_overlap_returns_missing_subrange() {
        let cache = SegmentCache::new(config(8, 1 << 20, Duration::from_secs(60)));
        cache.insert("a", (0.0, 5.0), spanned_rows("x", 0, 5));
        match cache.lookup("a", (2.0, 8.0)) {
            Lookup::Partial { rows, missing } => {
                assert_eq!(missing, (5.0, 8.0));
                assert!(!rows.is_empty());
                assert!(rows.iter().all(|r| {
                    let (s, e) = row_time_span(r).unwrap();
                    e >= 2.0 && s <= 5.0
                }));
            }
            other => panic!("expected partial, got {other:?}"),
        }
        // A suffix overlap works symmetrically.
        let cache = SegmentCache::new(config(8, 1 << 20, Duration::from_secs(60)));
        cache.insert("a", (5.0, 10.0), spanned_rows("x", 5, 5));
        match cache.lookup("a", (2.0, 8.0)) {
            Lookup::Partial { missing, .. } => assert_eq!(missing, (2.0, 5.0)),
            other => panic!("expected partial, got {other:?}"),
        }
        let c = cache.counters();
        assert_eq!(c.partial_hits, 1);
        assert_eq!(c.misses, 1, "partial counts as a miss");
    }

    #[test]
    fn merge_dedups_boundary_rows() {
        let cache = SegmentCache::new(config(8, 1 << 20, Duration::from_secs(60)));
        // Both fetches contain the boundary row spanning [4,6].
        let left = Arc::new(vec!["m|t=1:2|a".to_owned(), "m|t=4:6|b".to_owned()]);
        let right = Arc::new(vec!["m|t=4:6|b".to_owned(), "m|t=8:9|c".to_owned()]);
        cache.insert("a", (0.0, 5.0), left);
        cache.insert("a", (5.0, 10.0), right);
        assert_eq!(cache.len(), 1, "merged into one segment");
        match cache.lookup("a", (0.0, 10.0)) {
            Lookup::Hit { rows, .. } => {
                assert_eq!(rows.len(), 3, "boundary row deduped: {rows:?}");
            }
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn recency_queue_stays_bounded_under_hot_gets() {
        // v1 regression: every get pushed a queue entry and nothing
        // reclaimed them outside over-capacity inserts.
        let cache = SegmentCache::new(config(8, 1 << 20, Duration::from_secs(60)));
        cache.insert("a", (0.0, 10.0), spanned_rows("x", 0, 10));
        for _ in 0..10_000 {
            assert!(matches!(cache.lookup("a", (2.0, 5.0)), Lookup::Hit { .. }));
        }
        let c = cache.counters();
        assert_eq!(c.hits, 10_000);
        assert!(
            c.queue_len <= 2 * c.segments + 65,
            "queue leaked: {} entries for {} segments",
            c.queue_len,
            c.segments
        );
    }

    #[test]
    fn eviction_prefers_cold_segments() {
        let cache = SegmentCache::new(config(2, 1 << 20, Duration::from_secs(60)));
        cache.insert("a", ALL, plain_rows("1"));
        cache.insert("b", ALL, plain_rows("2"));
        // Touch `a` repeatedly: overlap frequency earns it a second chance.
        for _ in 0..3 {
            assert!(matches!(cache.lookup("a", ALL), Lookup::Hit { .. }));
        }
        cache.insert("c", ALL, plain_rows("3"));
        assert!(
            matches!(cache.lookup("b", ALL), Lookup::Miss),
            "cold b evicted"
        );
        assert!(matches!(cache.lookup("a", ALL), Lookup::Hit { .. }));
        assert!(matches!(cache.lookup("c", ALL), Lookup::Hit { .. }));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.counters().evictions, 1);
    }

    #[test]
    fn byte_budget_evicts_and_tracks_bytes() {
        let one = segment_cost("s-0", &["m|0123456789".to_owned()]);
        // Room for four one-row segments (and the admission threshold of a
        // quarter budget admits exactly one of them).
        let cache = SegmentCache::new(config(1024, one * 4, Duration::from_secs(60)));
        for i in 0..6 {
            cache.insert(&format!("s-{i}"), ALL, plain_rows("m|0123456789"));
        }
        let c = cache.counters();
        assert_eq!(c.admission_rejections, 0);
        assert!(c.bytes <= one * 4, "over budget: {} bytes", c.bytes);
        assert!(
            c.segments <= 4 && c.segments >= 1,
            "{} segments",
            c.segments
        );
        assert!(c.evictions >= 2);
    }

    #[test]
    fn admission_control_rejects_oversized_segments() {
        let cache = SegmentCache::new(config(1024, 4096, Duration::from_secs(60)));
        let huge: Arc<Vec<String>> = Arc::new(
            (0..100)
                .map(|i| format!("m|{i}|{}", "y".repeat(64)))
                .collect(),
        );
        cache.insert("a", ALL, huge);
        assert_eq!(cache.len(), 0, "oversized segment not admitted");
        assert_eq!(cache.counters().admission_rejections, 1);
        // Normal segments still cache fine.
        cache.insert("a", ALL, plain_rows("1"));
        assert!(matches!(cache.lookup("a", ALL), Lookup::Hit { .. }));
    }

    #[test]
    fn over_budget_scan_admitted_as_window_slices() {
        // 40 interval rows cost well over max_bytes/4, but every row
        // carries its span, so admission slices the scan instead of
        // rejecting it.
        let cache = SegmentCache::new(config(1024, 4096, Duration::from_secs(60)));
        let rows = spanned_rows("x", 0, 40);
        assert!(
            segment_cost("a", &rows) > 4096 / 4,
            "scan must be over-budget"
        );
        cache.insert("a", (0.0, 40.0), rows);
        let c = cache.counters();
        assert_eq!(c.admission_rejections, 0, "sliced, not rejected");
        assert!(
            c.segments >= 2,
            "expected several slices, got {}",
            c.segments
        );
        assert_eq!(c.admission_slices as usize, c.segments);
        assert_eq!(c.evictions, 0, "slices fit the overall budget");
        // A sub-window inside one slice answers from cache.
        match cache.lookup("a", (12.0, 18.0)) {
            Lookup::Hit { rows, exact } => {
                assert!(!exact);
                // Rows spanning [11,12]..[18,19] intersect [12,18].
                assert_eq!(rows.len(), 8, "{rows:?}");
            }
            other => panic!("expected range hit, got {other:?}"),
        }
        // The full scan window stitches every slice back together: the
        // re-query needs zero wire calls.
        match cache.lookup("a", (0.0, 40.0)) {
            Lookup::Hit { rows, exact } => {
                assert!(!exact);
                assert_eq!(rows.len(), 40, "all rows recovered across slices");
            }
            other => panic!("expected stitched hit, got {other:?}"),
        }
    }

    #[test]
    fn ttl_expires_and_reinsert_is_not_evictable_via_stale_queue() {
        let cache = SegmentCache::new(config(2, 1 << 20, Duration::from_millis(20)));
        cache.insert("a", ALL, plain_rows("old"));
        assert!(matches!(cache.lookup("a", ALL), Lookup::Hit { .. }));
        std::thread::sleep(Duration::from_millis(40));
        assert!(matches!(cache.lookup("a", ALL), Lookup::Miss), "expired");
        assert_eq!(cache.len(), 0, "expired segment purged");
        // Reinsert under the same series: the stale queue entries from the
        // first life must not make the new segment evictable out of turn.
        cache.insert("a", ALL, plain_rows("new"));
        cache.insert("b", ALL, plain_rows("2"));
        cache.insert("c", ALL, plain_rows("3")); // evicts one of a/b, not both
        let live = [
            matches!(cache.lookup("a", ALL), Lookup::Hit { .. }),
            matches!(cache.lookup("b", ALL), Lookup::Hit { .. }),
            matches!(cache.lookup("c", ALL), Lookup::Hit { .. }),
        ];
        assert_eq!(live.iter().filter(|l| **l).count(), 2, "{live:?}");
        assert!(live[2], "newest insert always survives");
    }

    #[test]
    fn remove_purges_series_without_disturbing_others() {
        let cache = SegmentCache::new(config(8, 1 << 20, Duration::from_secs(60)));
        cache.insert("a", ALL, plain_rows("1"));
        cache.insert("b", ALL, plain_rows("2"));
        cache.remove("a");
        cache.remove("nonexistent");
        assert!(matches!(cache.lookup("a", ALL), Lookup::Miss));
        assert!(matches!(cache.lookup("b", ALL), Lookup::Hit { .. }));
        assert_eq!(cache.len(), 1);
        // Dangling queue entries from the removed series must not evict
        // live segments.
        cache.insert("c", ALL, plain_rows("3"));
        cache.insert("d", ALL, plain_rows("4"));
        assert!(matches!(cache.lookup("b", ALL), Lookup::Hit { .. }));
    }

    #[test]
    fn reinsert_refreshes_value() {
        let cache = SegmentCache::new(config(2, 1 << 20, Duration::from_secs(60)));
        cache.insert("a", ALL, plain_rows("old"));
        cache.insert("a", ALL, plain_rows("new"));
        match cache.lookup("a", ALL) {
            Lookup::Hit { rows, .. } => assert_eq!(rows[0], "new"),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(cache.len(), 1);
        cache.insert("b", ALL, plain_rows("2"));
        assert!(matches!(cache.lookup("a", ALL), Lookup::Hit { .. }));
        assert!(matches!(cache.lookup("b", ALL), Lookup::Hit { .. }));
    }

    #[test]
    fn spill_roundtrip_rehydrates_warm() {
        let dir = TempDirGuard::new("roundtrip");
        let mut cfg = config(8, 1 << 20, Duration::from_secs(60));
        cfg.spill_dir = Some(dir.0.clone());
        let cache = SegmentCache::new(cfg.clone());
        cache.insert("a", (0.0, 10.0), spanned_rows("x", 0, 10));
        cache.spill_now();
        assert_eq!(cache.counters().spill_writes, 1);
        drop(cache);

        let warm = SegmentCache::new(cfg);
        assert_eq!(warm.len(), 0, "rows stay on disk until wanted");
        match warm.lookup("a", (2.0, 5.0)) {
            Lookup::Hit { rows, exact } => {
                assert!(!exact);
                assert_eq!(rows.len(), 5);
            }
            other => panic!("expected warm hit, got {other:?}"),
        }
        let c = warm.counters();
        assert_eq!(c.spill_loads, 1);
        assert_eq!(c.hits, 1);
    }

    #[test]
    fn eviction_spills_then_reloads() {
        let dir = TempDirGuard::new("evictspill");
        let mut cfg = config(1, 1 << 20, Duration::from_secs(60));
        cfg.spill_dir = Some(dir.0.clone());
        let cache = SegmentCache::new(cfg);
        cache.insert("a", (0.0, 10.0), spanned_rows("x", 0, 10));
        cache.insert("b", (0.0, 10.0), spanned_rows("y", 0, 10));
        assert_eq!(cache.len(), 1, "capacity 1 evicted the older segment");
        assert_eq!(
            cache.counters().spill_writes,
            1,
            "evicted-but-fresh spilled"
        );
        // The evicted series answers again — from disk, not a miss.
        match cache.lookup("a", (2.0, 5.0)) {
            Lookup::Hit { rows, .. } => assert_eq!(rows.len(), 5),
            other => panic!("expected reload hit, got {other:?}"),
        }
        assert_eq!(cache.counters().spill_loads, 1);
    }

    #[test]
    fn spill_compaction_merges_adjacent_files() {
        let dir = TempDirGuard::new("compact");
        let mut cfg = config(1, 1 << 20, Duration::from_secs(60));
        cfg.spill_dir = Some(dir.0.clone());
        let cache = SegmentCache::new(cfg);
        let ppgseg_files = |dir: &std::path::Path| {
            std::fs::read_dir(dir)
                .unwrap()
                .flatten()
                .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("ppgseg"))
                .count()
        };
        // Capacity 1: alternating series evict (and spill) each other, so
        // series "a" accumulates one small touching spill file per window
        // and "b" one identical file per round — exactly the eviction
        // churn the write-count trigger is sized for.
        for i in 0..33u64 {
            cache.insert(
                "a",
                ((i * 5) as f64, (i * 5 + 5) as f64),
                spanned_rows("x", i * 5, 5),
            );
            if i < 32 {
                cache.insert("b", (0.0, 5.0), spanned_rows("y", 0, 5));
            }
        }
        let c = cache.counters();
        assert_eq!(c.spill_writes, 64, "every eviction spilled");
        assert!(c.spill_compactions >= 1, "write-count trigger fired");
        assert!(
            ppgseg_files(&dir.0) <= 3,
            "touching runs folded into one file per series, got {}",
            ppgseg_files(&dir.0)
        );
        assert_eq!(c.spill_drops, 0, "merging is not dropping");
        // The merged file still answers a window spanning several of the
        // original slivers.
        match cache.lookup("a", (2.0, 8.0)) {
            Lookup::Hit { rows, .. } => assert_eq!(rows.len(), 8, "{rows:?}"),
            other => panic!("expected hit from merged spill, got {other:?}"),
        }
        assert!(cache.counters().spill_loads >= 1);
    }

    #[test]
    fn corrupt_spill_file_is_cold_not_panic() {
        let dir = TempDirGuard::new("corrupt");
        let mut cfg = config(8, 1 << 20, Duration::from_secs(60));
        cfg.spill_dir = Some(dir.0.clone());
        // A valid frame, truncated on disk; pure garbage; and a whole frame
        // spilled by a PPGB version-1 process, refused by version.
        let frame = encode_binary_segment(&WireSegment {
            series: "a".into(),
            start: 0.0,
            end: 10.0,
            filterable: true,
            inserted_unix_ms: now_unix_ms(),
            rows: vec!["m|t=1:2|x".into()],
        });
        std::fs::write(
            dir.0.join("seg-0000000000000000-0.ppgseg"),
            &frame[..frame.len() / 2],
        )
        .unwrap();
        std::fs::write(dir.0.join("seg-0000000000000000-1.ppgseg"), b"not a frame").unwrap();
        let mut stale = frame.clone();
        stale[4] = 1;
        std::fs::write(dir.0.join("seg-0000000000000000-2.ppgseg"), &stale).unwrap();
        let cache = SegmentCache::new(cfg);
        assert!(matches!(cache.lookup("a", (2.0, 5.0)), Lookup::Miss));
        let c = cache.counters();
        assert_eq!(c.spill_drops, 3);
        assert_eq!(c.spill_loads, 0);
        assert_eq!(
            std::fs::read_dir(&dir.0).unwrap().count(),
            0,
            "corrupt files deleted"
        );
    }

    #[test]
    fn remove_and_clear_delete_spill_files() {
        let dir = TempDirGuard::new("removespill");
        let mut cfg = config(8, 1 << 20, Duration::from_secs(60));
        cfg.spill_dir = Some(dir.0.clone());
        let cache = SegmentCache::new(cfg);
        cache.insert("a", (0.0, 10.0), spanned_rows("x", 0, 10));
        cache.insert("b", (0.0, 10.0), spanned_rows("y", 0, 10));
        cache.spill_now();
        assert_eq!(std::fs::read_dir(&dir.0).unwrap().count(), 2);
        cache.remove("a");
        assert_eq!(std::fs::read_dir(&dir.0).unwrap().count(), 1);
        cache.clear();
        assert_eq!(std::fs::read_dir(&dir.0).unwrap().count(), 0);
        assert!(matches!(cache.lookup("b", (0.0, 10.0)), Lookup::Miss));
    }

    #[test]
    fn spill_now_is_idempotent() {
        let dir = TempDirGuard::new("idempotent");
        let mut cfg = config(8, 1 << 20, Duration::from_secs(60));
        cfg.spill_dir = Some(dir.0.clone());
        let cache = SegmentCache::new(cfg);
        cache.insert("a", (0.0, 10.0), spanned_rows("x", 0, 10));
        cache.spill_now();
        cache.spill_now();
        assert_eq!(
            std::fs::read_dir(&dir.0).unwrap().count(),
            1,
            "re-spill replaces, not duplicates"
        );
    }

    #[test]
    fn series_key_blanks_the_window() {
        let a = series_key("http://h:1/x", "m", &["/Execution".into()], "T");
        let b = series_key("http://h:1/x", "m", &["/Execution".into()], "T");
        assert_eq!(a, b);
        assert!(a.starts_with("http://h:1/x::"));
    }

    #[test]
    fn rows_without_spans_are_stored_as_given() {
        let cache = SegmentCache::new(config(8, 1 << 20, Duration::from_secs(60)));
        // One unmarked row makes the whole segment opaque: kept in the
        // order given, never merged, answering its exact window only.
        let mixed = Arc::new(vec![
            "m|t=7:8|late".to_owned(),
            "m|no span".to_owned(),
            "m|t=1:2|early".to_owned(),
        ]);
        cache.insert("a", (0.0, 10.0), Arc::clone(&mixed));
        cache.insert("a", (5.0, 15.0), plain_rows("other window"));
        assert_eq!(cache.len(), 2, "opaque segments never merge");
        match cache.lookup("a", (0.0, 10.0)) {
            Lookup::Hit { rows, exact } => {
                assert!(exact);
                assert!(Arc::ptr_eq(&rows, &mixed), "stored as given, not re-sorted");
            }
            other => panic!("expected exact hit, got {other:?}"),
        }
        assert!(matches!(cache.lookup("a", (1.0, 2.0)), Lookup::Miss));
        assert!(matches!(cache.lookup("a", (0.0, 15.0)), Lookup::Miss));
        assert_eq!(cache.counters().range_hits, 0);
    }

    #[test]
    fn out_of_order_rows_become_a_sorted_run() {
        let cache = SegmentCache::new(config(8, 1 << 20, Duration::from_secs(60)));
        // A long early row keeps `reach` up across short later ones, two
        // rows share a start, and one row is emitted twice on purpose.
        let rows = Arc::new(vec![
            "m|t=6:7|f".to_owned(),
            "m|t=0:9|long".to_owned(),
            "m|t=2:3|b".to_owned(),
            "m|t=2:3|a".to_owned(),
            "m|t=4:5|twice".to_owned(),
            "m|t=4:5|twice".to_owned(),
        ]);
        cache.insert("a", (0.0, 10.0), rows);
        let answer = |w: (f64, f64)| match cache.lookup("a", w) {
            Lookup::Hit { rows, .. } => rows.as_ref().clone(),
            other => panic!("expected hit, got {other:?}"),
        };
        assert_eq!(
            answer((0.0, 10.0)),
            [
                "m|t=0:9|long",
                "m|t=2:3|a",
                "m|t=2:3|b",
                "m|t=4:5|twice",
                "m|t=4:5|twice",
                "m|t=6:7|f"
            ]
        );
        // [8, 10] is past every short row, but the long one still reaches it.
        assert_eq!(answer((8.0, 10.0)), ["m|t=0:9|long"]);
        assert_eq!(
            answer((3.5, 4.0)),
            ["m|t=0:9|long", "m|t=4:5|twice", "m|t=4:5|twice"]
        );
        // Re-fetching an overlapping window neither doubles the shared rows
        // nor collapses the row the wrapper really emitted twice.
        cache.insert(
            "a",
            (4.0, 12.0),
            Arc::new(vec![
                "m|t=0:9|long".to_owned(),
                "m|t=4:5|twice".to_owned(),
                "m|t=4:5|twice".to_owned(),
                "m|t=6:7|f".to_owned(),
                "m|t=11:12|new".to_owned(),
            ]),
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(answer((0.0, 12.0)).len(), 7);
    }

    #[test]
    fn insert_that_lost_a_race_with_invalidation_is_dropped() {
        let cache = SegmentCache::new(config(8, 1 << 20, Duration::from_secs(60)));
        let w = (0.0, 10.0);
        // A read misses, and while its fetch is out the series is invalidated.
        let epoch = cache.epoch();
        assert!(matches!(cache.lookup("a", w), Lookup::Miss));
        cache.remove("a");
        assert!(!cache.insert_at("a", w, spanned_rows("old", 0, 10), epoch));
        assert!(
            matches!(cache.lookup("a", w), Lookup::Miss),
            "pre-update rows must not come back"
        );
        // A fetch that began after the invalidation is stored as usual.
        let epoch = cache.epoch();
        assert!(cache.insert_at("a", w, spanned_rows("new", 0, 10), epoch));
        assert!(matches!(cache.lookup("a", w), Lookup::Hit { .. }));
        // An instance-wide invalidation also covers series nothing was
        // cached for yet; other instances are untouched.
        let epoch = cache.epoch();
        assert_eq!(cache.invalidate_prefix("http://h/x::"), 0);
        assert!(!cache.insert_at("http://h/x::m", w, spanned_rows("old", 0, 10), epoch));
        assert!(cache.insert_at("http://h/y::m", w, spanned_rows("ok", 0, 10), epoch));
        // A fill retracting its own claims does not invalidate the series.
        let epoch = cache.epoch();
        cache.retract("http://h/y::m");
        assert!(cache.insert_at("http://h/y::m", w, spanned_rows("ok", 0, 10), epoch));
        // Once the log has forgotten an invalidation, fills older than it
        // are refused rather than trusted.
        let epoch = cache.epoch();
        for i in 0..=INVALIDATION_LOG {
            cache.remove(&format!("elsewhere-{i}"));
        }
        assert!(!cache.insert_at("b", w, spanned_rows("old", 0, 10), epoch));
        assert!(cache.insert_at("b", w, spanned_rows("new", 0, 10), cache.epoch()));
    }

    // ------------------------------------------------- sorted runs vs the scan

    /// The linear-scan stitch the sorted runs replaced, kept as the oracle:
    /// every row of every serving segment is visited and row texts are
    /// deduplicated through a hash set.
    fn stitch(segs: &[Segment], window: (f64, f64)) -> Vec<String> {
        let mut rows: Vec<String> = Vec::new();
        let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for seg in segs {
            let Some(spans) = seg.serving(window) else {
                continue;
            };
            for (row, span) in seg.rows.iter().zip(spans) {
                if span.end >= window.0 && span.start <= window.1 && seen.insert(row.as_str()) {
                    rows.push(row.clone());
                }
            }
        }
        rows
    }

    /// A lookup's class, missing sub-range and rows (as a sorted multiset).
    #[derive(Debug, PartialEq)]
    enum Answer {
        Hit(Vec<String>),
        Partial(Vec<String>, (f64, f64)),
        Miss,
    }

    fn answer(lookup: Lookup) -> Answer {
        let sorted = |mut rows: Vec<String>| {
            rows.sort();
            rows
        };
        match lookup {
            Lookup::Hit { rows, .. } => Answer::Hit(sorted(rows.as_ref().clone())),
            Lookup::Partial { rows, missing } => Answer::Partial(sorted(rows), missing),
            Lookup::Miss => Answer::Miss,
        }
    }

    /// What `lookup` must answer for the segments as they stand, worked out
    /// the slow way: candidates collected and sorted per call, coverage
    /// chained over them, rows by [`stitch`].
    fn oracle(cache: &SegmentCache, series: &str, window: (f64, f64)) -> Answer {
        let inner = cache.inner.lock();
        let Some(entry) = inner.series.get(series) else {
            return Answer::Miss;
        };
        let (w0, w1) = window;
        let mut candidates: Vec<&Segment> = (entry.segs.iter())
            .filter(|s| s.spans.is_some() && s.start <= w1 && s.end >= w0)
            .collect();
        candidates.sort_by(|a, b| a.start.total_cmp(&b.start));
        if let Some(seg) = entry.segs.iter().find(|s| s.start == w0 && s.end == w1) {
            return answer(Lookup::Hit {
                rows: Arc::clone(&seg.rows),
                exact: true,
            });
        }
        let mut frontier = w0;
        let mut reached = false;
        for seg in &candidates {
            if seg.start > frontier {
                break;
            }
            frontier = frontier.max(seg.end);
            reached = true;
        }
        if reached && frontier >= w1 {
            return answer(Lookup::Hit {
                rows: Arc::new(stitch(&entry.segs, window)),
                exact: false,
            });
        }
        if reached && frontier > w0 {
            return answer(Lookup::Partial {
                rows: stitch(&entry.segs, (w0, frontier)),
                missing: (frontier, w1),
            });
        }
        let mut back = w1;
        let mut reached_back = false;
        for seg in candidates.iter().rev() {
            if seg.end < back {
                break;
            }
            back = back.min(seg.start);
            reached_back = true;
        }
        if reached_back && back < w1 {
            return answer(Lookup::Partial {
                rows: stitch(&entry.segs, (back, w1)),
                missing: (w0, back),
            });
        }
        Answer::Miss
    }

    /// xorshift64*: the test's own seeded generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The data a wrapper would hold for one series: 160 marked rows over
    /// `[0, 64]`. Starts repeat (two rows per half unit), every seventh row
    /// is long enough to overhang many later ones, a few are points.
    fn universe(series: usize) -> Vec<((f64, f64), String)> {
        (0..160u32)
            .map(|id| {
                let start = f64::from(id / 2) * 0.4;
                let len = match id % 7 {
                    0 => 9.5,
                    3 => 0.0,
                    n => f64::from(n) * 0.3,
                };
                let end = start + len;
                ((start, end), format!("m|t={start}:{end}|s{series}.r{id}"))
            })
            .collect()
    }

    fn rows_of(universe: &[((f64, f64), String)], window: (f64, f64)) -> Vec<String> {
        let mut rows: Vec<String> = (universe.iter())
            .filter(|((s, e), _)| *e >= window.0 && *s <= window.1)
            .map(|(_, row)| row.clone())
            .collect();
        rows.sort();
        rows
    }

    /// Seeded random insert / overlapping insert / over-budget (sliced)
    /// insert / lookup / remove / spill + reload sequences over three series.
    /// After every lookup: the sorted-run answer equals the linear scan's
    /// on the same segments (class, missing sub-range, row multiset), and
    /// the rows are exactly the wrapper's rows of the covered window — so
    /// sorting, merging, slicing, eviction and spill lost or doubled none.
    #[test]
    fn sorted_runs_answer_like_the_linear_scan() {
        for seed in [1u64, 2, 3, 4] {
            let dir = TempDirGuard::new(&format!("oracle-{seed}"));
            // Tight budgets: whole-range scans exceed the admission cap and
            // land as slices, and three series compete for five segments,
            // so eviction, spill and reload happen throughout.
            let mut cfg = config(5, 24 << 10, Duration::from_secs(600));
            cfg.spill_dir = Some(dir.0.clone());
            let mut cache = SegmentCache::new(cfg.clone());
            let universes: Vec<_> = (0..3).map(universe).collect();
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let (mut hits, mut partials, mut multi) = (0u32, 0u32, 0u32);
            // (slices, evictions, spill loads), summed over re-opened caches.
            let mut churn = [0u64; 3];
            let mut tally = |cache: &SegmentCache| {
                let c = cache.counters();
                for (sum, n) in
                    churn
                        .iter_mut()
                        .zip([c.admission_slices, c.evictions, c.spill_loads])
                {
                    *sum += n;
                }
            };
            for _ in 0..2_500 {
                let s = rng.below(3) as usize;
                let series = format!("series-{s}");
                // Windows on a half-unit grid, so bounds coincide with row
                // starts and ends (the duplicate-boundary case) often.
                let a = rng.below(128) as f64 / 2.0;
                let width = match rng.below(8) {
                    0 => 64.0,
                    1 => 0.0,
                    n => n as f64 * 1.5,
                };
                let window = (a, (a + width).min(64.0));
                match rng.below(20) {
                    0..=7 => {
                        let mut rows = rows_of(&universes[s], window);
                        if rng.below(2) == 0 {
                            // Out-of-order delivery.
                            for i in (1..rows.len()).rev() {
                                rows.swap(i, rng.below(i as u64 + 1) as usize);
                            }
                        }
                        cache.insert(&series, window, Arc::new(rows));
                    }
                    8 => cache.remove(&series),
                    9 => {
                        cache.spill_now();
                        tally(&cache);
                        cache = SegmentCache::new(cfg.clone());
                    }
                    _ => {
                        let got = answer(cache.lookup(&series, window));
                        assert_eq!(
                            got,
                            oracle(&cache, &series, window),
                            "seed {seed} {series} {window:?}"
                        );
                        let covered = match &got {
                            Answer::Hit(_) => window,
                            Answer::Partial(_, missing) if missing.0 == window.0 => {
                                (missing.1, window.1)
                            }
                            Answer::Partial(_, missing) => (window.0, missing.0),
                            Answer::Miss => continue,
                        };
                        let (Answer::Hit(rows) | Answer::Partial(rows, _)) = &got else {
                            unreachable!()
                        };
                        assert_eq!(
                            rows,
                            &rows_of(&universes[s], covered),
                            "seed {seed} {series} {window:?}"
                        );
                        hits += u32::from(matches!(got, Answer::Hit(_)));
                        partials += u32::from(matches!(got, Answer::Partial(..)));
                        let inner = cache.inner.lock();
                        let serving = (inner.series.get(series.as_str())).map_or(0, |e| {
                            e.segs
                                .iter()
                                .filter(|s| s.serving(covered).is_some())
                                .count()
                        });
                        multi += u32::from(serving > 1);
                    }
                }
            }
            tally(&cache);
            assert!(
                hits > 100 && partials > 100 && multi > 20 && churn.iter().all(|n| *n > 20),
                "seed {seed}: {hits} hits, {partials} partials, {multi} stitched, \
                 slices/evictions/spill loads {churn:?}"
            );
        }
    }
}
