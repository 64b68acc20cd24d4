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
    format!(
        "{}::{}",
        instance,
        pr_cache_key(metric, foci, "", "", rtype)
    )
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

#[derive(Clone)]
struct Segment {
    /// Unique, monotonically increasing id — never reused, so a queue
    /// entry can always tell whether it still names a live segment.
    id: u64,
    start: f64,
    end: f64,
    rows: Arc<Vec<String>>,
    /// Per-row time spans when every row is interval-shaped (`Some` ⇔
    /// the segment is filterable); parsed once at insert.
    spans: Option<Vec<(f64, f64)>>,
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
}

struct SpillEntry {
    path: PathBuf,
    start: f64,
    end: f64,
    bytes: u64,
    wall_ms: u64,
}

struct Inner {
    series: HashMap<Arc<str>, Vec<Segment>>,
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
}

/// A byte-budgeted, TTL-bounded semantic segment cache of rendered
/// PerformanceResult rows, with disk spill for warm restarts.
pub struct SegmentCache {
    config: SegmentCacheConfig,
    inner: Mutex<Inner>,
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

impl SegmentCache {
    /// Open a cache. When a spill directory is configured it is created
    /// and scanned: well-formed, still-fresh segment files become loadable
    /// index entries (rows stay on disk until a lookup wants them);
    /// corrupt or expired files are deleted — cold, never a panic.
    pub fn new(config: SegmentCacheConfig) -> SegmentCache {
        let cache = SegmentCache {
            config,
            inner: Mutex::new(Inner {
                series: HashMap::new(),
                order: VecDeque::new(),
                segment_count: 0,
                bytes: 0,
                next_id: 0,
                spill: HashMap::new(),
                spill_bytes: 0,
                next_file: 0,
                spill_writes_since_compact: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            exact_hits: AtomicU64::new(0),
            range_hits: AtomicU64::new(0),
            partial_hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            admission_rejections: AtomicU64::new(0),
            admission_slices: AtomicU64::new(0),
            spill_writes: AtomicU64::new(0),
            spill_loads: AtomicU64::new(0),
            spill_drops: AtomicU64::new(0),
            spill_compactions: AtomicU64::new(0),
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
        self.purge_expired(&mut inner, series, now);
        let mut probe = self.probe(&mut inner, series, window);
        if !matches!(probe, Probe::Exact(_) | Probe::Range(_))
            && self.load_spill(&mut inner, series, window, now) > 0
        {
            probe = self.probe(&mut inner, series, window);
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

    fn purge_expired(&self, inner: &mut Inner, series: &str, now: Instant) {
        let Some(segs) = inner.series.get_mut(series) else {
            return;
        };
        let mut dropped_bytes = 0usize;
        let mut dropped = 0usize;
        segs.retain(|s| {
            if s.fresh_until > now {
                true
            } else {
                dropped_bytes += s.bytes;
                dropped += 1;
                false
            }
        });
        if segs.is_empty() {
            inner.series.remove(series);
        }
        inner.segment_count -= dropped;
        inner.bytes -= dropped_bytes;
        // The expired segments' queue entries go stale by construction
        // (their (id, gen) no longer resolves) — eviction skips them and
        // compaction reclaims them, so an expired-then-reinserted series
        // can never be evicted through a leftover queue position.
    }

    /// Probe in-memory segments. Touches (recency + frequency) every
    /// segment that contributes to the answer.
    fn probe(&self, inner: &mut Inner, series: &str, window: (f64, f64)) -> Probe {
        let Some((key, segs)) = inner.series.get_key_value(series) else {
            return Probe::Miss;
        };
        let key = Arc::clone(key);
        let (w0, w1) = window;
        // Exact window repeat: any segment, filterable or not.
        if let Some(pos) = segs.iter().position(|s| s.start == w0 && s.end == w1) {
            let rows = Arc::clone(&segs[pos].rows);
            let id = segs[pos].id;
            self.touch(inner, &key, &[id]);
            return Probe::Exact(rows);
        }
        // Range answers draw on filterable segments intersecting the
        // window, in start order.
        let mut candidates: Vec<usize> = segs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.spans.is_some() && s.intersects(window))
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            return Probe::Miss;
        }
        candidates.sort_by(|&a, &b| segs[a].start.total_cmp(&segs[b].start));
        // Greedy chain from the left edge: how far do touching segments
        // carry coverage?
        let mut frontier = w0;
        let mut reached = false;
        for &i in &candidates {
            if segs[i].start > frontier {
                break;
            }
            frontier = frontier.max(segs[i].end);
            reached = true;
            if frontier >= w1 {
                break;
            }
        }
        if reached && frontier >= w1 {
            let (rows, used) = stitch(segs, &candidates, window);
            self.touch(inner, &key, &used);
            return Probe::Range(rows);
        }
        if reached && frontier > w0 {
            // A covered prefix [w0, frontier]; fetch the rest.
            let covered = (w0, frontier);
            let (rows, used) = stitch(segs, &candidates, covered);
            self.touch(inner, &key, &used);
            return Probe::Partial(rows, (frontier, w1));
        }
        // Try a covered suffix chained back from the right edge.
        let mut back = w1;
        let mut reached_back = false;
        for &i in candidates.iter().rev() {
            if segs[i].end < back {
                break;
            }
            back = back.min(segs[i].start);
            reached_back = true;
        }
        if reached_back && back < w1 {
            let covered = (back, w1);
            let (rows, used) = stitch(segs, &candidates, covered);
            self.touch(inner, &key, &used);
            return Probe::Partial(rows, (w0, back));
        }
        Probe::Miss
    }

    /// Refresh recency and frequency for the given segment ids: bump each
    /// generation (invalidating the old queue entry in place) and append
    /// the new one. O(1) per touched segment — no queue scan.
    fn touch(&self, inner: &mut Inner, key: &Arc<str>, ids: &[u64]) {
        let Some(segs) = inner.series.get_mut(&**key) else {
            return;
        };
        let mut pushes: Vec<(u64, u64)> = Vec::with_capacity(ids.len());
        for seg in segs.iter_mut() {
            if ids.contains(&seg.id) {
                seg.gen += 1;
                seg.hits_seen = seg.hits_seen.saturating_add(1);
                pushes.push((seg.id, seg.gen));
            }
        }
        for (id, gen) in pushes {
            inner.order.push_back((Arc::clone(key), id, gen));
        }
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
        let (w0, w1) = window;
        if w0.is_nan() || w1.is_nan() || w0 > w1 {
            return;
        }
        let spans: Option<Vec<(f64, f64)>> = rows.iter().map(|r| row_time_span(r)).collect();
        let cost = segment_cost(series, &rows);
        if cost > self.config.max_bytes / 4 && spans.is_none() {
            self.admission_rejections.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let now = Instant::now();
        let mut inner = self.inner.lock();
        self.purge_expired(&mut inner, series, now);
        let key: Arc<str> = match inner.series.get_key_value(series) {
            Some((k, _)) => Arc::clone(k),
            None => Arc::from(series),
        };
        let (seg_window, seg_rows, seg_spans) = if let Some(spans) = spans {
            self.merge_filterable(&mut inner, &key, window, &rows, spans)
        } else {
            // Replace a byte-identical window (a refresh), leave others.
            if let Some(segs) = inner.series.get_mut(&*key) {
                if let Some(pos) = segs
                    .iter()
                    .position(|s| s.spans.is_none() && s.start == w0 && s.end == w1)
                {
                    let old = segs.swap_remove(pos);
                    inner.segment_count -= 1;
                    inner.bytes -= old.bytes;
                }
            }
            (window, rows, None)
        };
        let bytes = segment_cost(&key, &seg_rows);
        if bytes > self.config.max_bytes / 4 {
            // The admission cap applies to the *merged* segment too: a big
            // scan (or a merge that grew past the cap) lands as slices.
            if let Some(seg_spans) = seg_spans {
                self.insert_sliced(&mut inner, &key, seg_window, &seg_rows, &seg_spans, now);
                self.evict_over_budget(&mut inner, now);
                self.maybe_compact(&mut inner);
            } else {
                self.admission_rejections.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let seg = Segment {
            id,
            start: seg_window.0,
            end: seg_window.1,
            rows: seg_rows,
            spans: seg_spans,
            bytes,
            fresh_until: now + self.config.ttl,
            wall_ms: now_unix_ms(),
            gen: 0,
            hits_seen: 0,
        };
        inner.bytes += bytes;
        inner.segment_count += 1;
        inner.series.entry(Arc::clone(&key)).or_default().push(seg);
        inner.order.push_back((key, id, 0));
        self.evict_over_budget(&mut inner, now);
        self.maybe_compact(&mut inner);
    }

    /// Admit one over-budget filterable segment as several window-sized
    /// slices, each under the admission cap. Rows are sorted by span start
    /// and packed greedily; interior slice boundaries come from each
    /// following chunk's first row start (clamped monotone within the
    /// window), and every slice's window is widened to cover its own rows'
    /// clamped spans, so the slices tile the scan window — a later lookup
    /// stitches them back into one range answer. Slices bypass the merge
    /// (merging would just rebuild the over-budget segment).
    fn insert_sliced(
        &self,
        inner: &mut Inner,
        key: &Arc<str>,
        window: (f64, f64),
        rows: &[String],
        spans: &[(f64, f64)],
        now: Instant,
    ) {
        let cap = (self.config.max_bytes / 4).max(1);
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| spans[a].0.total_cmp(&spans[b].0));
        // Greedy pack under the cap. A chunk always takes at least one row,
        // so a single row larger than the cap is still admitted whole.
        let base = key.len() + 96;
        let mut chunks: Vec<Vec<usize>> = Vec::new();
        let mut cur: Vec<usize> = Vec::new();
        let mut cur_bytes = base;
        for idx in order {
            let row_cost = rows[idx].len() + 48;
            if !cur.is_empty() && cur_bytes + row_cost > cap {
                chunks.push(std::mem::take(&mut cur));
                cur_bytes = base;
            }
            cur.push(idx);
            cur_bytes += row_cost;
        }
        if !cur.is_empty() {
            chunks.push(cur);
        }
        let mut bounds: Vec<f64> = Vec::with_capacity(chunks.len() + 1);
        bounds.push(window.0);
        for chunk in chunks.iter().skip(1) {
            let prev = *bounds.last().expect("seeded with window.0");
            bounds.push(spans[chunk[0]].0.max(prev).min(window.1));
        }
        bounds.push(window.1);
        for (chunk, pair) in chunks.iter().zip(bounds.windows(2)) {
            let chunk_rows: Vec<String> = chunk.iter().map(|&i| rows[i].clone()).collect();
            let chunk_spans: Vec<(f64, f64)> = chunk.iter().map(|&i| spans[i]).collect();
            // Widen the partition cell to the chunk's own row extent so a
            // row straddling a boundary stays reachable from both sides.
            let mut start = pair[0];
            let mut end = pair[1];
            for &(s0, s1) in &chunk_spans {
                start = start.min(s0.max(window.0));
                end = end.max(s1.min(window.1));
            }
            let bytes = segment_cost(key, &chunk_rows);
            let id = inner.next_id;
            inner.next_id += 1;
            inner.bytes += bytes;
            inner.segment_count += 1;
            inner
                .series
                .entry(Arc::clone(key))
                .or_default()
                .push(Segment {
                    id,
                    start,
                    end,
                    rows: Arc::new(chunk_rows),
                    spans: Some(chunk_spans),
                    bytes,
                    fresh_until: now + self.config.ttl,
                    wall_ms: now_unix_ms(),
                    gen: 0,
                    hits_seen: 0,
                });
            inner.order.push_back((Arc::clone(key), id, 0));
            self.admission_slices.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Union the incoming filterable segment with every cached filterable
    /// segment it overlaps or touches, dropping the absorbed ones. Rows
    /// are deduped by text (a row at a shared boundary appears in both
    /// fetches). Returns the merged window, rows, and spans.
    #[allow(clippy::type_complexity)]
    fn merge_filterable(
        &self,
        inner: &mut Inner,
        key: &Arc<str>,
        window: (f64, f64),
        rows: &Arc<Vec<String>>,
        spans: Vec<(f64, f64)>,
    ) -> ((f64, f64), Arc<Vec<String>>, Option<Vec<(f64, f64)>>) {
        let (mut w0, mut w1) = window;
        let mut absorbed: Vec<Segment> = Vec::new();
        if let Some(segs) = inner.series.get_mut(&**key) {
            let mut i = 0;
            while i < segs.len() {
                let s = &segs[i];
                if s.spans.is_some() && s.start <= w1 && s.end >= w0 {
                    w0 = w0.min(s.start);
                    w1 = w1.max(s.end);
                    absorbed.push(segs.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            if segs.is_empty() {
                inner.series.remove(&**key);
            }
        }
        for s in &absorbed {
            inner.segment_count -= 1;
            inner.bytes -= s.bytes;
        }
        if absorbed.is_empty() {
            return (window, Arc::clone(rows), Some(spans));
        }
        // Old rows first (oldest window order), new fetch last; dedup.
        let mut merged_rows: Vec<String> = Vec::new();
        let mut merged_spans: Vec<(f64, f64)> = Vec::new();
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        absorbed.sort_by(|a, b| a.start.total_cmp(&b.start));
        for seg in &absorbed {
            let spans = seg.spans.as_ref().expect("filterable by construction");
            for (row, span) in seg.rows.iter().zip(spans) {
                if seen.insert(row.clone()) {
                    merged_rows.push(row.clone());
                    merged_spans.push(*span);
                }
            }
        }
        for (row, span) in rows.iter().zip(&spans) {
            if seen.insert(row.clone()) {
                merged_rows.push(row.clone());
                merged_spans.push(*span);
            }
        }
        ((w0, w1), Arc::new(merged_rows), Some(merged_spans))
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
            let Some(segs) = inner.series.get_mut(&*key) else {
                continue;
            };
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
            let seg = segs.swap_remove(pos);
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
                .is_some_and(|segs| segs.iter().any(|s| s.id == *id && s.gen == *gen))
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
        let mut decoded = Vec::with_capacity(run.len());
        for e in &run {
            let seg = std::fs::read(&e.path)
                .ok()
                .and_then(|bytes| decode_binary_segment(&bytes).ok())
                .filter(|s| s.series == key && s.filterable);
            match seg {
                Some(s) => decoded.push(s),
                None => {
                    rebuilt.extend(run);
                    return;
                }
            }
        }
        let mut rows: Vec<String> = Vec::new();
        let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
        let mut start = f64::INFINITY;
        let mut end = f64::NEG_INFINITY;
        // The merged file carries the run's *oldest* insert time, so the
        // TTL stays conservative: merging never extends any row's life.
        let mut wall_ms = u64::MAX;
        for (seg, e) in decoded.iter().zip(&run) {
            start = start.min(seg.start);
            end = end.max(seg.end);
            wall_ms = wall_ms.min(e.wall_ms);
            for row in &seg.rows {
                if seen.insert(row.as_str()) {
                    rows.push(row.clone());
                }
            }
        }
        drop(seen);
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
            let spans: Option<Vec<(f64, f64)>> =
                seg.rows.iter().map(|r| row_time_span(r)).collect();
            let key: Arc<str> = match inner.series.get_key_value(series) {
                Some((k, _)) => Arc::clone(k),
                None => Arc::from(series),
            };
            let bytes = segment_cost(series, &seg.rows);
            let id = inner.next_id;
            inner.next_id += 1;
            let remaining = Duration::from_millis(ttl_ms - age_ms);
            inner.bytes += bytes;
            inner.segment_count += 1;
            inner
                .series
                .entry(Arc::clone(&key))
                .or_default()
                .push(Segment {
                    id,
                    start: seg.start,
                    end: seg.end,
                    rows: Arc::new(seg.rows),
                    spans,
                    bytes,
                    fresh_until: now + remaining,
                    wall_ms: seg.inserted_unix_ms,
                    gen: 0,
                    hits_seen: 0,
                });
            inner.order.push_back((key, id, 0));
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
                Some(segs) => segs
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

    /// Drop a whole series — every in-memory segment *and* every spill
    /// file (counters are kept). Used for site-scoped invalidation: a
    /// lease expiry or change event must not leave stale rows reachable
    /// through disk. Queue entries die with their segments (their
    /// `(id, gen)` stops resolving), so removal cannot skew eviction.
    pub fn remove(&self, series: &str) {
        let mut inner = self.inner.lock();
        if let Some(segs) = inner.series.remove(series) {
            inner.segment_count -= segs.len();
            inner.bytes -= segs.iter().map(|s| s.bytes).sum::<usize>();
        }
        if let Some(entries) = inner.spill.remove(series) {
            for e in entries {
                inner.spill_bytes -= e.bytes;
                let _ = std::fs::remove_file(&e.path);
            }
        }
        self.maybe_compact(&mut inner);
    }

    /// Drop every segment and every spill file (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
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

/// Collect the rows of `candidates` (indices into `segs`, start-ordered)
/// that intersect `window`, deduping by row text across segments. Returns
/// the rows and the ids of the segments that contributed at least one row
/// (or whose window intersects — they still served the answer).
fn stitch(segs: &[Segment], candidates: &[usize], window: (f64, f64)) -> (Vec<String>, Vec<u64>) {
    let mut rows: Vec<String> = Vec::new();
    let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
    let mut used: Vec<u64> = Vec::new();
    for &i in candidates {
        let seg = &segs[i];
        if !seg.intersects(window) {
            continue;
        }
        used.push(seg.id);
        let spans = seg.spans.as_ref().expect("candidates are filterable");
        for (row, span) in seg.rows.iter().zip(spans) {
            if span.1 >= window.0 && span.0 <= window.1 && seen.insert(row.as_str()) {
                rows.push(row.clone());
            }
        }
    }
    (rows, used)
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
}
