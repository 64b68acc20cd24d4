//! The federated gateway orchestrator.
//!
//! One [`FederatedGateway::query`] call plans, probes, scatters and gathers
//! (DESIGN.md, "The gateway"):
//!
//! * **Plan** — [`crate::plan::Planner`] binds each site's Application and
//!   expands the query to per-Execution `getPR` targets, all remembered, so
//!   a warm plan makes no wire call.
//! * **Probe** — each (target, tuple) pair is looked up in the segment
//!   cache ([`crate::cache::SegmentCache`]): a hit answers at once, a
//!   partial hit narrows the fetch to the missing sub-range. What is left
//!   becomes the query's slot table.
//! * **Scatter** — the slots go out as flights on the worker pool: one
//!   framed call per host, or one per-call SOAP/XML `getPR` per slot, as
//!   `framed_route` decides. A flight holds one site permit, and
//!   identical in-flight tuples share one call
//!   ([`crate::coalesce::SingleFlight`]).
//! * **Gather** — each slot has legs: its primary flight and, after
//!   `hedge_after` or a failed primary, a hedge to a replica host. The first
//!   answer wins and the losing legs are cancelled; at the deadline every
//!   open slot becomes a `Timeout` [`SiteError`] while every answered slot's
//!   rows are still returned.

use crate::cache::{self, Lookup, SegmentCache, SegmentCacheConfig};
use crate::coalesce::{FlightOutcome, FlightResult, FlightRows, SingleFlight};
use crate::plan::{ExecTarget, Planner, QueryPlan, SitePlan};
use crate::pool::{SiteLimiter, WorkerPool};
use crate::query::{FederatedQuery, FederatedResult, SiteError, SiteErrorKind, SiteRows};
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use pperf_httpd::{HttpClient, Request};
use pperf_ogsi::{BatchStreamEntryOutcome, Gsh, OgsiError, ServiceStub};
use pperf_soap::{force_xml, BatchEntry, Fault};
use pperfgrid::{row_time_span, ExecutionStub, PrQuery, EXECUTION_NS};
use ppg_context::CallContext;
use ppg_notify::{
    Event, NotificationSink, NotifyError, SinkConfig, SinkHandler, TOPIC_CACHE_INVALIDATE,
    TOPIC_REGISTRY_MEMBERS,
};
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Where a fetched result should land in the segment cache: the series,
/// the window the fetch covers (the *narrowed* window for a partial-
/// coverage fetch), and the cache's invalidation epoch as of the lookup
/// that missed — rows fetched across an invalidation of their series are
/// served to their caller but never stored. `None` when the cache is
/// disabled or the query's time bounds don't parse.
#[derive(Debug, Clone)]
struct CacheFill {
    series: String,
    window: (f64, f64),
    epoch: u64,
}

/// Store fetched rows where `fill` says, and index the series under its
/// site so a lease invalidation can find it.
fn cache_store(
    inner: &Inner,
    site: &str,
    fill: &CacheFill,
    window: (f64, f64),
    rows: Arc<Vec<String>>,
) {
    if inner
        .cache
        .insert_at(&fill.series, window, rows, fill.epoch)
    {
        let mut site_keys = inner.site_keys.lock();
        if !(site_keys.get(site)).is_some_and(|keys| keys.contains(&fill.series)) {
            let keys = site_keys.entry(site.to_owned()).or_default();
            keys.insert(fill.series.clone());
        }
    }
}

/// Render one window bound back to the wire's string form (empty string
/// for an unbounded side). `f64` Display round-trips through
/// [`PrQuery::time_window`] exactly.
fn fmt_time(t: f64) -> String {
    if t.is_infinite() {
        String::new()
    } else {
        format!("{t}")
    }
}

/// Merge cache-covered prefix rows with a narrowed fetch, deduping by row
/// text (the boundary instant appears in both).
fn merge_prefix(prefix: &[String], fetched: &[String]) -> Arc<Vec<String>> {
    let mut seen: HashSet<&str> = HashSet::with_capacity(prefix.len() + fetched.len());
    let mut merged: Vec<String> = Vec::with_capacity(prefix.len() + fetched.len());
    for row in prefix.iter().chain(fetched.iter()) {
        if seen.insert(row.as_str()) {
            merged.push(row.clone());
        }
    }
    Arc::new(merged)
}

/// Worker threads in the scatter pool.
const WORKERS: usize = 8;

/// Tuning knobs for the gateway.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Max concurrent upstream calls per site.
    pub per_site_concurrency: usize,
    /// Default whole-query deadline budget, applied when the caller's
    /// [`CallContext`] carries none. Targets still pending at the deadline
    /// yield `Timeout` site errors and their legs are cancelled.
    pub call_timeout: Duration,
    /// Fire a hedge request against a replica host after this long without
    /// an answer; `None` disables hedging entirely.
    pub hedge_after: Option<Duration>,
    /// Retries per upstream call on transport errors.
    pub retries: u32,
    /// Base backoff between retries (doubles per attempt).
    pub backoff: Duration,
    /// Shared result cache on/off.
    pub cache_enabled: bool,
    /// Shared result cache byte budget (admission control rejects
    /// segments over a quarter of it).
    pub cache_max_bytes: usize,
    /// Spill directory for evicted-but-fresh cache segments (PPGB kind-5
    /// frames, one per file). A gateway restarted over a populated spill
    /// directory rehydrates warm. `None` disables spill.
    pub cache_spill_dir: Option<PathBuf>,
    /// How long a registry snapshot may be reused by the planner before the
    /// two snapshot wire calls are repeated. `Duration::ZERO` disables the
    /// snapshot cache.
    pub plan_cache_ttl: Duration,
    /// Subscribe to the push notification plane: registry membership deltas
    /// invalidate the planner snapshot the moment they happen (instead of
    /// waiting out `plan_cache_ttl`), and per-site invalidation events drop
    /// cached results ahead of their TTL. Sites that don't speak the plane
    /// silently stay on TTL polling, as does everything when this is off.
    pub notifications_enabled: bool,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            per_site_concurrency: 4,
            call_timeout: Duration::from_secs(10),
            hedge_after: Some(Duration::from_millis(250)),
            retries: 1,
            backoff: Duration::from_millis(25),
            cache_enabled: true,
            cache_max_bytes: SegmentCacheConfig::default().max_bytes,
            cache_spill_dir: None,
            plan_cache_ttl: Duration::from_millis(500),
            notifications_enabled: true,
        }
    }
}

impl GatewayConfig {
    /// Set the per-site concurrency limit.
    pub fn with_per_site_concurrency(mut self, limit: usize) -> GatewayConfig {
        self.per_site_concurrency = limit;
        self
    }

    /// Set the per-target deadline.
    pub fn with_call_timeout(mut self, timeout: Duration) -> GatewayConfig {
        self.call_timeout = timeout;
        self
    }

    /// Set (or disable, with `None`) the hedge delay.
    pub fn with_hedging(mut self, hedge_after: Option<Duration>) -> GatewayConfig {
        self.hedge_after = hedge_after;
        self
    }

    /// Set the retry count and base backoff.
    pub fn with_retries(mut self, retries: u32, backoff: Duration) -> GatewayConfig {
        self.retries = retries;
        self.backoff = backoff;
        self
    }

    /// Toggle the shared result cache.
    pub fn with_cache(mut self, enabled: bool) -> GatewayConfig {
        self.cache_enabled = enabled;
        self
    }

    /// Set the shared result cache byte budget.
    pub fn with_cache_budget(mut self, max_bytes: usize) -> GatewayConfig {
        self.cache_max_bytes = max_bytes;
        self
    }

    /// Set the cache spill directory (warm-restart persistence).
    pub fn with_cache_spill(mut self, dir: impl Into<PathBuf>) -> GatewayConfig {
        self.cache_spill_dir = Some(dir.into());
        self
    }

    /// Set (or disable, with `Duration::ZERO`) the planner's registry
    /// snapshot cache TTL.
    pub fn with_plan_cache(mut self, ttl: Duration) -> GatewayConfig {
        self.plan_cache_ttl = ttl;
        self
    }

    /// Toggle push-notification subscriptions (event-driven invalidation).
    pub fn with_notifications(mut self, enabled: bool) -> GatewayConfig {
        self.notifications_enabled = enabled;
        self
    }
}

/// Rolling latency/error accounting for one site.
#[derive(Debug, Clone, Default)]
pub struct SiteLatency {
    /// Flights run against the site: one framed call, or one per-call
    /// `getPR`, however many slots it carried. A flight whose every member
    /// coalesced onto another caller's call is not counted.
    pub calls: u64,
    /// How many of them failed.
    pub errors: u64,
    /// Sum of call latencies.
    pub total: Duration,
    /// Latency of the most recent call.
    pub last: Duration,
}

impl SiteLatency {
    /// Mean latency over all recorded calls.
    pub fn avg(&self) -> Duration {
        if self.calls == 0 {
            Duration::ZERO
        } else {
            self.total / self.calls as u32
        }
    }
}

#[derive(Default)]
struct Stats {
    queries: AtomicU64,
    upstream: AtomicU64,
    hedges_fired: AtomicU64,
    hedge_wins: AtomicU64,
    /// Legs cancelled because their sibling won the hedge race.
    hedges_cancelled: AtomicU64,
    /// Targets abandoned (and site errors reported) because the query
    /// deadline budget ran out.
    deadline_exceeded: AtomicU64,
    /// Sites whose cached results were dropped after their registry lease
    /// expired or they republished — detected by TTL polling (snapshot
    /// refresh diff).
    lease_invalidations: AtomicU64,
    /// Invalidations driven by push notifications (registry membership
    /// deltas and per-site `cache.invalidate` events), counted separately
    /// from the TTL-expiry path above.
    notify_invalidations: AtomicU64,
    /// Per-call SOAP/XML `getPR` calls issued.
    xml_calls: AtomicU64,
    /// Framed calls whose answer stream opened.
    batch_streams: AtomicU64,
    /// getPR entries those framed calls carried.
    batch_stream_entries: AtomicU64,
    /// Framed entries that died after delivering rows but before their
    /// trailer — surfaced as partial results with a `Truncated` site error,
    /// siblings unaffected.
    batch_stream_truncated: AtomicU64,
    /// Framed attempts a host turned away, re-sent per-call over SOAP/XML.
    batch_stream_fallbacks: AtomicU64,
    in_flight: AtomicI64,
    sites: Mutex<HashMap<String, SiteLatency>>,
}

impl Stats {
    fn record_site(&self, site: &str, latency: Duration, failed: bool) {
        let mut sites = self.sites.lock();
        let entry = sites.entry(site.to_owned()).or_default();
        entry.calls += 1;
        entry.errors += u64::from(failed);
        entry.total += latency;
        entry.last = latency;
    }
}

/// A point-in-time view of the gateway's counters (also published as
/// service data by [`crate::service::FederatedQueryService`]).
#[derive(Debug, Clone)]
pub struct GatewaySnapshot {
    /// Federated queries served.
    pub queries: u64,
    /// Upstream `getPR` calls performed (lifetime).
    pub upstream_calls: u64,
    /// Shared-cache hits.
    pub cache_hits: u64,
    /// Shared-cache misses.
    pub cache_misses: u64,
    /// `hits / (hits + misses)`, 0 before any lookup.
    pub cache_hit_rate: f64,
    /// Hits answered by range containment or stitching rather than an
    /// exact window repeat.
    pub cache_range_hits: u64,
    /// Lookups partially covered by cache (the fetch was narrowed to the
    /// missing sub-range; also counted in `cache_misses`).
    pub cache_partial_hits: u64,
    /// Segments evicted under budget pressure.
    pub cache_evictions: u64,
    /// Live in-memory cache segments.
    pub cache_segments: u64,
    /// Bytes held by live cache segments.
    pub cache_bytes: u64,
    /// Segments spilled to disk (eviction or [`FederatedGateway::persist_cache`]).
    pub cache_spill_writes: u64,
    /// Segments rehydrated from the spill directory.
    pub cache_spill_loads: u64,
    /// Callers coalesced onto another caller's in-flight call.
    pub coalesced: u64,
    /// Flights currently running on the worker pool.
    pub in_flight: i64,
    /// Hedge requests fired.
    pub hedges_fired: u64,
    /// Hedge requests that answered before their primary.
    pub hedge_wins: u64,
    /// Legs cancelled because their sibling won the hedge race.
    pub hedges_cancelled: u64,
    /// Targets abandoned because the query deadline budget ran out.
    pub deadline_exceeded: u64,
    /// Sites invalidated after a registry lease expiry or republish,
    /// detected by TTL polling.
    pub lease_invalidations: u64,
    /// Invalidations driven by push notifications (membership deltas,
    /// per-site cache invalidation events).
    pub notify_invalidations: u64,
    /// Push subscriptions currently connected (registry + sites).
    pub notify_subscriptions: u64,
    /// Events delivered over those subscriptions (lifetime).
    pub notify_events: u64,
    /// Poll-fallback resyncs after sequence gaps on those subscriptions.
    pub notify_resyncs: u64,
    /// Per-call SOAP/XML `getPR` calls issued (sites without the framed
    /// route, downgrades, `PPG_FORCE_XML=1`).
    pub xml_calls: u64,
    /// Framed calls whose answer stream opened: one PPGB exchange per host
    /// group or hedge leg.
    pub batch_streams: u64,
    /// getPR entries those framed calls carried.
    pub batch_stream_entries: u64,
    /// Framed entries that died after delivering rows but before their
    /// trailer (partial results, `Truncated` site errors).
    pub batch_stream_truncated: u64,
    /// Framed attempts a host turned away (404, a non-stream answer,
    /// corruption before any row), re-sent per-call over SOAP/XML.
    pub batch_stream_fallback_calls: u64,
    /// Registry-snapshot cache hits in the planner.
    pub plan_snapshot_hits: u64,
    /// Registry-snapshot refreshes (actual wire snapshots) in the planner.
    pub plan_snapshot_refreshes: u64,
    /// Site plans served from a remembered selector expansion (no
    /// Application call).
    pub plan_expansion_hits: u64,
    /// Site plans that asked the site's Application what the selector
    /// expands to.
    pub plan_expansion_refreshes: u64,
    /// Remembered expansions dropped ahead of their TTL (site invalidation
    /// event, site error, lease).
    pub plan_expansion_invalidations: u64,
    /// TCP connections the gateway's HTTP client has opened (lifetime; a
    /// client shared with other components counts theirs too). Flat across
    /// queries means every exchange, streamed ones included, rode a pooled
    /// keep-alive connection.
    pub http_connections_opened: u64,
    /// Per-site latency/error accounting, sorted by site label.
    pub per_site: Vec<(String, SiteLatency)>,
}

struct Inner {
    config: GatewayConfig,
    client: Arc<HttpClient>,
    planner: Planner,
    limiter: Arc<SiteLimiter>,
    cache: SegmentCache,
    /// Which cache series keys belong to which site, so a lease
    /// invalidation can drop exactly that site's entries.
    site_keys: Mutex<HashMap<String, HashSet<String>>>,
    flights: Arc<SingleFlight>,
    stats: Stats,
    notify: NotifyState,
    /// Container authorities that turned the framed route away: legacy
    /// peers behind a stale advertisement, remembered so later calls go
    /// per-call over SOAP/XML without the dead probe.
    no_framed: Mutex<HashSet<String>>,
}

/// The gateway's push subscriptions (empty when notifications are off).
#[derive(Default)]
struct NotifyState {
    /// Push connection to the registry's container (`registry.members`).
    registry_sink: Mutex<Option<NotificationSink>>,
    /// Per-site push connections keyed by factory authority
    /// (`cache.invalidate` + `service.data`).
    site_sinks: Mutex<HashMap<String, NotificationSink>>,
    /// Authorities that answered subscribe with a non-200: legacy sites.
    /// The gateway silently stays on TTL polling for them.
    unsupported: Mutex<HashSet<String>>,
}

impl NotifyState {
    /// `(connected, events_received, resyncs)` across every sink.
    fn counters(&self) -> (u64, u64, u64) {
        let mut connected = 0u64;
        let mut events = 0u64;
        let mut resyncs = 0u64;
        let mut tally = |sink: &NotificationSink| {
            connected += u64::from(sink.is_connected());
            let c = sink.counters();
            events += c.events_received;
            resyncs += c.resyncs;
        };
        if let Some(sink) = self.registry_sink.lock().as_ref() {
            tally(sink);
        }
        for sink in self.site_sinks.lock().values() {
            tally(sink);
        }
        (connected, events, resyncs)
    }
}

/// Drop one site's cached results. Returns whether anything was dropped.
fn drop_site_cache(inner: &Inner, site: &str) -> bool {
    match inner.site_keys.lock().remove(site) {
        Some(keys) => {
            for key in keys {
                inner.cache.remove(&key);
            }
            true
        }
        None => false,
    }
}

/// Registry-membership push events: any delta retires the planner snapshot
/// immediately (the poll path would serve it for up to `plan_cache_ttl`);
/// withdrawals additionally drop the site's cached results and binding.
struct RegistryEvents {
    inner: Weak<Inner>,
}

impl RegistryEvents {
    /// Missed deltas (sequence gap or lost connection): fall back to a poll
    /// resync — distrust the snapshot and let the next plan re-read the
    /// registry.
    fn resync(&self) {
        if let Some(inner) = self.inner.upgrade() {
            inner.planner.invalidate_snapshot();
        }
    }
}

impl SinkHandler for RegistryEvents {
    fn on_event(&self, event: &Event) {
        let Some(inner) = self.inner.upgrade() else {
            return;
        };
        if event.topic != TOPIC_REGISTRY_MEMBERS {
            return;
        }
        inner.planner.invalidate_snapshot();
        let mut parts = event.payload.splitn(3, '|');
        let op = parts.next().unwrap_or("");
        let site = parts.next().unwrap_or("");
        if matches!(op, "unregister" | "expire") && !site.is_empty() {
            inner.planner.unbind_site(site);
            drop_site_cache(&inner, site);
            inner
                .stats
                .notify_invalidations
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    fn on_gap(&self, _topic: &str, _expected: u64, _got: u64) {
        self.resync();
    }

    fn on_disconnect(&self) {
        self.resync();
    }
}

/// Per-site push events: a `cache.invalidate` for an instance path drops
/// exactly the cached results bound to that instance, refuses the fetches
/// of it still in flight, and forgets the expansions naming it.
struct SiteEvents {
    inner: Weak<Inner>,
    /// The site container's `host:port`, used to reconstruct instance URLs.
    authority: String,
}

impl SiteEvents {
    /// Invalidate every series of the instance at `path` on this container
    /// — or, with `None` (events were missed, so any of its results may be
    /// stale), of the whole container. A delivered event that dropped rows
    /// counts as a push invalidation.
    fn invalidate(&self, path: Option<&str>) {
        let Some(inner) = self.inner.upgrade() else {
            return;
        };
        // Cache series keys are `<instance url>::<window-blanked tuple>`.
        let url = path.map(|path| format!("http://{}{path}", self.authority));
        let prefix = match &url {
            Some(url) => format!("{url}::"),
            None => format!("http://{}/", self.authority),
        };
        inner
            .planner
            .forget_expansions_at(&self.authority, url.as_deref());
        for keys in inner.site_keys.lock().values_mut() {
            keys.retain(|key| !key.starts_with(&prefix));
        }
        if inner.cache.invalidate_prefix(&prefix) > 0 && path.is_some() {
            (inner.stats.notify_invalidations).fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl SinkHandler for SiteEvents {
    fn on_event(&self, event: &Event) {
        if event.topic == TOPIC_CACHE_INVALIDATE {
            self.invalidate(Some(&event.payload));
        }
    }

    fn on_gap(&self, _topic: &str, _expected: u64, _got: u64) {
        self.invalidate(None);
    }

    fn on_disconnect(&self) {
        // Deltas may be missed from here on; cached rows keep their TTL (a
        // dead site's last answers are still its answers), but handles are
        // asked for again.
        if let Some(inner) = self.inner.upgrade() {
            inner.planner.forget_expansions_at(&self.authority, None);
        }
    }
}

/// The federation front door: one of these serves any number of concurrent
/// [`FederatedQuery`]s over a shared pool, cache, and single-flight group.
pub struct FederatedGateway {
    inner: Arc<Inner>,
    pool: WorkerPool,
}

/// One uncached slot of a query, built once by the cache probe: a
/// (target, tuple) pair still to be fetched. Flights and legs name slots by
/// their index in the query's [`Scatter`].
struct Slot {
    /// The site the target belongs to.
    plan: Arc<SitePlan>,
    /// The target's index in `plan.targets`.
    target: usize,
    /// The `getPR` tuple this slot fetches (queries with `extra_metrics`
    /// expand each target to several slots, one per tuple) — already
    /// narrowed to the missing sub-range on a partial cache hit.
    pr: Arc<PrQuery>,
    /// Where the fetched rows land in the segment cache.
    fill: Option<CacheFill>,
    /// Cache-covered rows to merge in front of a narrowed fetch's answer.
    prefix: Option<Arc<Vec<String>>>,
}

impl Slot {
    fn target(&self) -> &ExecTarget {
        &self.plan.targets[self.target]
    }

    /// The instance leg `leg` calls: the primary (leg 0) or the replica
    /// (leg 1, the hedge).
    fn instance(&self, leg: usize) -> &Gsh {
        let target = self.target();
        match leg {
            0 => &target.primary,
            _ => target.hedge.as_ref().expect("a hedge leg has a replica"),
        }
    }
}

/// One query's scatter, shared with its flights: the slot table, the
/// channel leg outcomes come back on, and the query's upstream-call count.
struct Scatter {
    slots: Vec<Slot>,
    tx: Sender<Outcome>,
    upstream: AtomicU64,
}

/// One leg's answer for one slot.
struct Outcome {
    slot: usize,
    leg: usize,
    result: FlightResult,
}

/// A slot's gather state.
struct SlotState {
    /// Answered, failed, or timed out: later outcomes are dropped.
    done: bool,
    /// When the hedge leg fires; `None` once it has fired, or when the
    /// slot has no replica (or hedging is off).
    hedge_at: Option<Instant>,
    /// Leg 0 is the primary, leg 1 the hedge once fired.
    legs: Vec<Leg>,
}

/// One leg of a slot: a call to one instance under its own context.
struct Leg {
    /// Cancelled when the leg loses the race or the deadline passes.
    ctx: CallContext,
    /// A primary sharing its framed call (and `ctx`) with sibling slots:
    /// cancelling it would cancel them too.
    shared: bool,
    failed: bool,
}

fn classify(error: &OgsiError) -> (SiteErrorKind, bool) {
    match error {
        OgsiError::Transport(_) => (SiteErrorKind::Unreachable, true),
        // A budget that ran out locally, a server that rejected the call as
        // past-deadline, and a cancelled leg are all deadline conditions —
        // and never retryable (the budget only shrinks).
        OgsiError::DeadlineExceeded(_) => (SiteErrorKind::Timeout, false),
        OgsiError::Fault(fault) => (fault_kind(fault), false),
        _ => (SiteErrorKind::Fault, false),
    }
}

fn fault_kind(fault: &Fault) -> SiteErrorKind {
    if fault.is_deadline_exceeded() || fault.is_cancelled() {
        SiteErrorKind::Timeout
    } else {
        SiteErrorKind::Fault
    }
}

/// The route decision: whether calls to `host` ride the framed PPGB route.
/// They do when the site advertises it, `PPG_FORCE_XML=1` is not set, and
/// the host has not turned the route away. Asked when a site's flights are
/// formed and again when each flight — primary or hedge — starts, since a
/// host may turn the route away in between.
fn framed_route(inner: &Inner, advertised: bool, host: &str) -> bool {
    advertised && !force_xml() && !inner.no_framed.lock().contains(host)
}

/// Run one leg's wire call: `attempt` is tried until it succeeds or fails
/// for good, each try counted as an upstream call. A retryable failure
/// sleeps out an exponential backoff first — unless retries are spent or
/// the backoff would outlive the leg's budget (it only shrinks).
fn retrying<T>(
    inner: &Inner,
    leg_ctx: &CallContext,
    query_upstream: &AtomicU64,
    mut attempt: impl FnMut() -> Result<T, OgsiError>,
) -> Result<T, (SiteErrorKind, String)> {
    let mut retries = 0u32;
    loop {
        if leg_ctx.expired() {
            let detail = format!("leg {} expired before attempt", leg_ctx.leg_tag());
            return Err((SiteErrorKind::Timeout, detail));
        }
        inner.stats.upstream.fetch_add(1, Ordering::Relaxed);
        query_upstream.fetch_add(1, Ordering::Relaxed);
        let e = match attempt() {
            Ok(answer) => return Ok(answer),
            Err(e) => e,
        };
        let (kind, retryable) = classify(&e);
        if !retryable || retries >= inner.config.retries {
            return Err((kind, e.to_string()));
        }
        retries += 1;
        let backoff = inner.config.backoff * (1 << retries.min(6));
        if leg_ctx.remaining().is_some_and(|r| backoff >= r) {
            let detail = format!("{e} (budget exhausted during retry backoff)");
            return Err((SiteErrorKind::Timeout, detail));
        }
        std::thread::sleep(backoff);
    }
}

impl FederatedGateway {
    /// A gateway federating the sites registered at `registry`.
    pub fn new(
        client: Arc<HttpClient>,
        registry: Gsh,
        config: GatewayConfig,
    ) -> Arc<FederatedGateway> {
        let planner = Planner::new(
            Arc::clone(&client),
            registry,
            config.hedge_after.is_some(),
            config.plan_cache_ttl,
        );
        let pool = WorkerPool::new(WORKERS);
        let inner = Inner {
            limiter: SiteLimiter::new(config.per_site_concurrency),
            cache: SegmentCache::new(SegmentCacheConfig {
                max_bytes: config.cache_max_bytes,
                spill_dir: config.cache_spill_dir.clone(),
                ..SegmentCacheConfig::default()
            }),
            site_keys: Mutex::new(HashMap::new()),
            flights: SingleFlight::new(),
            stats: Stats::default(),
            planner,
            client,
            config,
            notify: NotifyState::default(),
            no_framed: Mutex::new(HashSet::new()),
        };
        let gateway = Arc::new(FederatedGateway {
            inner: Arc::new(inner),
            pool,
        });
        gateway.ensure_registry_subscription();
        gateway
    }

    /// Subscribe to the registry container's membership deltas, once. A
    /// non-notifying (legacy) registry is remembered and the gateway stays
    /// on TTL polling; transient failures retry on the next query.
    fn ensure_registry_subscription(&self) {
        let inner = &self.inner;
        if !inner.config.notifications_enabled {
            return;
        }
        if inner.notify.registry_sink.lock().is_some() {
            return;
        }
        let authority = inner.planner.registry_authority();
        if inner.notify.unsupported.lock().contains(&authority) {
            return;
        }
        let handler = Arc::new(RegistryEvents {
            inner: Arc::downgrade(inner),
        });
        let config = SinkConfig {
            topics: vec![TOPIC_REGISTRY_MEMBERS.to_owned()],
            ..SinkConfig::default()
        };
        match NotificationSink::connect(&authority, config, handler) {
            Ok(sink) => *inner.notify.registry_sink.lock() = Some(sink),
            Err(NotifyError::Unsupported(_)) => {
                inner.notify.unsupported.lock().insert(authority);
            }
            Err(_) => {} // transient; retried on the next query
        }
    }

    /// Subscribe to each planned site's invalidation events, once per
    /// container authority. Legacy sites (subscribe answered non-200) are
    /// remembered and silently stay on TTL polling.
    fn ensure_site_subscriptions(&self, sites: &[SitePlan]) {
        let inner = &self.inner;
        if !inner.config.notifications_enabled {
            return;
        }
        for plan in sites {
            let authority = plan.factory.url().authority();
            if inner.notify.site_sinks.lock().contains_key(&authority)
                || inner.notify.unsupported.lock().contains(&authority)
            {
                continue;
            }
            let handler = Arc::new(SiteEvents {
                inner: Arc::downgrade(inner),
                authority: authority.clone(),
            });
            let config = SinkConfig {
                topics: vec![TOPIC_CACHE_INVALIDATE.to_owned()],
                ..SinkConfig::default()
            };
            match NotificationSink::connect(&authority, config, handler) {
                Ok(sink) => {
                    inner.notify.site_sinks.lock().insert(authority, sink);
                }
                Err(NotifyError::Unsupported(_)) => {
                    inner.notify.unsupported.lock().insert(authority);
                }
                Err(_) => {} // transient; retried on the next query
            }
        }
    }

    /// Push subscriptions currently connected (diagnostics and tests).
    pub fn notify_subscriptions(&self) -> u64 {
        self.inner.notify.counters().0
    }

    /// The planner (exposed for diagnostics and tests).
    pub fn planner(&self) -> &Planner {
        &self.inner.planner
    }

    /// Drop all cached results (bindings are kept).
    pub fn clear_cache(&self) {
        self.inner.cache.clear();
        self.inner.site_keys.lock().clear();
    }

    /// Drop one site's cached results: its registry lease expired or it
    /// republished, so its instance handles (the cache keys) are stale.
    /// This is the TTL-polling detection path; push-driven invalidations
    /// count under `notify_invalidations` instead.
    pub fn invalidate_site(&self, site: &str) {
        drop_site_cache(&self.inner, site);
        self.inner
            .stats
            .lease_invalidations
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Write every fresh cache segment to the spill directory (the
    /// graceful-shutdown path), so the next gateway started over the same
    /// directory answers overlapping queries without contacting any site.
    /// A no-op unless a spill directory is configured.
    pub fn persist_cache(&self) {
        self.inner.cache.spill_now();
    }

    /// Current counters.
    pub fn snapshot(&self) -> GatewaySnapshot {
        let inner = &self.inner;
        let cache = inner.cache.counters();
        let (cache_hits, cache_misses) = (cache.hits, cache.misses);
        let mut per_site: Vec<(String, SiteLatency)> = inner
            .stats
            .sites
            .lock()
            .iter()
            .map(|(site, lat)| (site.clone(), lat.clone()))
            .collect();
        per_site.sort_by(|a, b| a.0.cmp(&b.0));
        let (plan_snapshot_hits, plan_snapshot_refreshes) = inner.planner.snapshot_stats();
        let (plan_expansion_hits, plan_expansion_refreshes, plan_expansion_invalidations) =
            inner.planner.expansion_stats();
        let (notify_subscriptions, notify_events, notify_resyncs) = inner.notify.counters();
        GatewaySnapshot {
            queries: inner.stats.queries.load(Ordering::Relaxed),
            upstream_calls: inner.stats.upstream.load(Ordering::Relaxed),
            cache_hits,
            cache_misses,
            cache_hit_rate: inner.cache.hit_rate(),
            cache_range_hits: cache.range_hits,
            cache_partial_hits: cache.partial_hits,
            cache_evictions: cache.evictions,
            cache_segments: cache.segments as u64,
            cache_bytes: cache.bytes as u64,
            cache_spill_writes: cache.spill_writes,
            cache_spill_loads: cache.spill_loads,
            coalesced: inner.flights.coalesced(),
            in_flight: inner.stats.in_flight.load(Ordering::Relaxed),
            hedges_fired: inner.stats.hedges_fired.load(Ordering::Relaxed),
            hedge_wins: inner.stats.hedge_wins.load(Ordering::Relaxed),
            hedges_cancelled: inner.stats.hedges_cancelled.load(Ordering::Relaxed),
            deadline_exceeded: inner.stats.deadline_exceeded.load(Ordering::Relaxed),
            lease_invalidations: inner.stats.lease_invalidations.load(Ordering::Relaxed),
            notify_invalidations: inner.stats.notify_invalidations.load(Ordering::Relaxed),
            notify_subscriptions,
            notify_events,
            notify_resyncs,
            xml_calls: inner.stats.xml_calls.load(Ordering::Relaxed),
            batch_streams: inner.stats.batch_streams.load(Ordering::Relaxed),
            batch_stream_entries: inner.stats.batch_stream_entries.load(Ordering::Relaxed),
            batch_stream_truncated: inner.stats.batch_stream_truncated.load(Ordering::Relaxed),
            batch_stream_fallback_calls: inner.stats.batch_stream_fallbacks.load(Ordering::Relaxed),
            plan_snapshot_hits,
            plan_snapshot_refreshes,
            plan_expansion_hits,
            plan_expansion_refreshes,
            plan_expansion_invalidations,
            http_connections_opened: inner.client.connections_opened(),
            per_site,
        }
    }

    /// Run one federated query end to end (blocking; safe to call from many
    /// threads at once) under a fresh default-budget context.
    pub fn query(&self, query: &FederatedQuery) -> FederatedResult {
        // Nobody else holds this context, so the result takes its trace
        // instead of copying it.
        let ctx = CallContext::with_budget(self.inner.config.call_timeout);
        self.run_query(query, ctx, true)
    }

    /// Run one federated query under the caller's [`CallContext`]: its
    /// deadline bounds the whole scatter-gather (falling back to
    /// `call_timeout` when it carries none), every upstream hop inherits its
    /// request id, and the assembled cross-site trace comes back on the
    /// result.
    pub fn query_with_context(&self, query: &FederatedQuery, ctx: &CallContext) -> FederatedResult {
        // Normalize: every query runs under *some* deadline so a silent site
        // cannot hold the gather forever.
        let qctx = if ctx.deadline().is_some() {
            ctx.clone()
        } else {
            ctx.with_remaining(self.inner.config.call_timeout)
        };
        self.run_query(query, qctx, false)
    }

    fn run_query(
        &self,
        query: &FederatedQuery,
        qctx: CallContext,
        own_trace: bool,
    ) -> FederatedResult {
        let started = Instant::now();
        let inner = &self.inner;
        inner.stats.queries.fetch_add(1, Ordering::Relaxed);
        let deadline = qctx.deadline().expect("normalized context has a deadline");
        let QueryPlan {
            sites,
            mut errors,
            invalidated,
            expanded,
        } = inner.planner.plan(query);
        for site in &invalidated {
            self.invalidate_site(site);
        }
        for (site, why) in &expanded {
            qctx.record_span("gateway.plan", "expand", site, started, why);
        }
        self.ensure_registry_subscription();
        self.ensure_site_subscriptions(&sites);
        let sites_total = sites.len() + errors.len();
        // Every tuple of the query (primary metric + extras) fans out to
        // every target. Tuples of one instance land in the same framed call,
        // so a multi-metric query still costs one wire call per host. A
        // tuple's window and the window-blanked half of its cache series
        // key are the same for every target: worked out once, here. A query
        // whose time bounds don't parse bypasses the cache entirely
        // (fetched, served, never stored).
        let prs: Vec<_> = (query.pr_queries().into_iter())
            .map(|pr| {
                let window = pr.time_window().ok().filter(|_| inner.config.cache_enabled);
                let tuple = || cache::series_tuple(&pr.metric, &pr.foci, &pr.rtype);
                let cached = window.map(|window| (window, tuple()));
                (Arc::new(pr), cached)
            })
            .collect();
        let targets: usize = sites.iter().map(|site| site.targets.len()).sum();
        let mut rows: Vec<SiteRows> = Vec::with_capacity(targets * prs.len());
        let mut slots: Vec<Slot> = Vec::new();
        let mut states: Vec<SlotState> = Vec::new();
        // Each flight: slot indices that ride one call.
        let mut flights: Vec<Vec<usize>> = Vec::new();
        let scatter_start = Instant::now();
        let mut series = String::new();
        for plan in sites {
            let plan = Arc::new(plan);
            let first = slots.len();
            // Probe the shared segment cache first; only misses become
            // slots, and a partially covered window's slot fetches just the
            // missing sub-range. Pairs the cache answered: exact, range,
            // partial.
            let mut answered = [0usize; 3];
            for (t, target) in plan.targets.iter().enumerate() {
                for (pr, cached) in &prs {
                    let mut slot_pr = Arc::clone(pr);
                    let mut fill: Option<CacheFill> = None;
                    let mut prefix: Option<Arc<Vec<String>>> = None;
                    if let Some((window, tuple)) = cached {
                        cache::write_series_key(&mut series, target.primary.as_str(), tuple);
                        let epoch = inner.cache.epoch();
                        let fill_at = |window| CacheFill {
                            series: series.clone(),
                            window,
                            epoch,
                        };
                        match inner.cache.lookup(&series, *window) {
                            Lookup::Hit {
                                rows: cached,
                                exact,
                            } => {
                                answered[usize::from(!exact)] += 1;
                                rows.push(SiteRows {
                                    site: plan.site.clone(),
                                    execution: target.primary.clone(),
                                    rows: cached,
                                    from_cache: true,
                                    hedged: false,
                                    truncated: false,
                                });
                                continue;
                            }
                            Lookup::Partial {
                                rows: covered,
                                missing,
                            } => {
                                answered[2] += 1;
                                let mut narrowed = (**pr).clone();
                                narrowed.start = fmt_time(missing.0);
                                narrowed.end = fmt_time(missing.1);
                                slot_pr = Arc::new(narrowed);
                                prefix = Some(Arc::new(covered));
                                fill = Some(fill_at(missing));
                            }
                            Lookup::Miss => fill = Some(fill_at(*window)),
                        }
                    }
                    slots.push(Slot {
                        plan: Arc::clone(&plan),
                        target: t,
                        pr: slot_pr,
                        fill,
                        prefix,
                    });
                    states.push(SlotState {
                        done: false,
                        hedge_at: (target.hedge.as_ref())
                            .and(inner.config.hedge_after)
                            .map(|delay| scatter_start + delay),
                        legs: Vec::new(),
                    });
                }
            }
            if answered != [0; 3] {
                // One span per site, not one per target: what the cache
                // answered, by kind.
                let [exact, range, partial] = answered;
                let outcome = format!("hit:{exact} range-hit:{range} partial-hit:{partial}");
                qctx.record_span("gateway.cache", "getPR", &plan.site, started, &outcome);
            }
            // The site's misses form one flight per host (a site's
            // instances may be spread across replica containers) where the
            // route to that host is framed, and one flight per slot
            // otherwise.
            if !plan.framed {
                flights.extend((first..slots.len()).map(|idx| vec![idx]));
                continue;
            }
            let mut hosts: Vec<(String, Vec<usize>)> = Vec::new();
            for (idx, slot) in slots.iter().enumerate().skip(first) {
                let host = slot.target().primary.url().authority();
                match hosts.iter_mut().find(|(h, _)| *h == host) {
                    Some((_, members)) => members.push(idx),
                    None => hosts.push((host, vec![idx])),
                }
            }
            for (host, members) in hosts {
                if framed_route(inner, plan.framed, &host) {
                    flights.push(members);
                } else {
                    flights.extend(members.into_iter().map(|idx| vec![idx]));
                }
            }
        }

        let (tx, rx) = unbounded::<Outcome>();
        let scatter = Arc::new(Scatter {
            slots,
            tx,
            upstream: AtomicU64::new(0),
        });
        for members in flights {
            self.submit(&scatter, &mut states, 0, members, &qctx);
        }

        // While a slot is open, the gatherer wakes at the deadline or the
        // earliest hedge still to fire.
        while let Some(wake) = (states.iter().filter(|state| !state.done))
            .map(|state| state.hedge_at.map_or(deadline, |at| at.min(deadline)))
            .min()
        {
            match rx.recv_timeout(wake.saturating_duration_since(Instant::now())) {
                Ok(Outcome {
                    slot: idx,
                    leg,
                    result,
                }) => {
                    if states[idx].done {
                        continue; // a leg that lost the race, or came too late
                    }
                    let (slot, state) = (&scatter.slots[idx], &mut states[idx]);
                    match result {
                        Ok(data) => {
                            state.done = true;
                            let hedged = leg > 0;
                            if hedged {
                                inner.stats.hedge_wins.fetch_add(1, Ordering::Relaxed);
                            }
                            let cancelled = self.cancel_legs(slot, &state.legs, Some(leg));
                            (inner.stats.hedges_cancelled).fetch_add(cancelled, Ordering::Relaxed);
                            // A narrowed fetch answers only the missing
                            // sub-range: put the cache-covered prefix back.
                            let merged = match &slot.prefix {
                                Some(prefix) => merge_prefix(prefix, &data.rows),
                                None => data.rows,
                            };
                            if data.truncated {
                                // The stream died after delivering rows: the
                                // rows stand, and the site also carries a
                                // structured partial-result error.
                                errors.push(SiteError {
                                    site: slot.plan.site.clone(),
                                    kind: SiteErrorKind::Truncated,
                                    detail: data.truncated_detail,
                                });
                            }
                            rows.push(SiteRows {
                                site: slot.plan.site.clone(),
                                execution: slot.target().primary.clone(),
                                rows: merged,
                                from_cache: false,
                                hedged,
                                truncated: data.truncated,
                            });
                        }
                        Err((kind, detail)) => {
                            state.legs[leg].failed = true;
                            if leg == 0 && state.hedge_at.is_some() {
                                // Fail fast: don't wait for the hedge delay
                                // once the primary has definitively failed.
                                self.fire_hedge(&scatter, &mut states, idx, &qctx);
                            } else if state.hedge_at.is_none()
                                && state.legs.iter().all(|l| l.failed)
                            {
                                state.done = true;
                                errors.push(SiteError {
                                    site: slot.plan.site.clone(),
                                    kind,
                                    detail,
                                });
                            }
                        }
                    }
                }
                // Timed out (the sender lives in `scatter`, so the channel
                // never disconnects): fire due hedges, expire the deadline.
                Err(_) => {
                    let now = Instant::now();
                    for (idx, slot) in scatter.slots.iter().enumerate() {
                        if states[idx].done {
                            continue;
                        }
                        if states[idx].hedge_at.is_some_and(|at| at <= now) {
                            self.fire_hedge(&scatter, &mut states, idx, &qctx);
                        }
                        if deadline <= now {
                            states[idx].done = true;
                            self.cancel_legs(slot, &states[idx].legs, None);
                            (inner.stats.deadline_exceeded).fetch_add(1, Ordering::Relaxed);
                            errors.push(SiteError {
                                site: slot.plan.site.clone(),
                                kind: SiteErrorKind::Timeout,
                                detail: format!(
                                    "getPR did not complete within the query budget \
                                     (request {})",
                                    qctx.request_id()
                                ),
                            });
                        }
                    }
                }
            }
        }
        if !errors.is_empty() {
            // One structured error per site; the first (earliest) failure wins.
            let mut seen = HashSet::new();
            errors.retain(|e| seen.insert(e.site.clone()));
            // A site that faulted or vanished may have lost the instances its
            // remembered expansions name: ask it again next time.
            for e in &errors {
                if !matches!(e.kind, SiteErrorKind::Planning | SiteErrorKind::Timeout) {
                    inner.planner.forget_expansions(&e.site, "site-error");
                }
            }
        }
        rows.sort_by(|a, b| {
            (a.site.as_str(), a.execution.as_str()).cmp(&(b.site.as_str(), b.execution.as_str()))
        });
        qctx.record_span(
            "gateway",
            "federatedQuery",
            "",
            started,
            if errors.is_empty() { "ok" } else { "partial" },
        );
        FederatedResult {
            rows,
            errors,
            sites_total,
            elapsed: started.elapsed(),
            upstream_calls: scatter.upstream.load(Ordering::Relaxed),
            request_id: qctx.request_id().to_owned(),
            trace: if own_trace {
                qctx.take_spans()
            } else {
                qctx.spans()
            },
        }
    }

    /// Fire slot `idx`'s hedge leg (leg 1) at its replica.
    fn fire_hedge(
        &self,
        scatter: &Arc<Scatter>,
        states: &mut [SlotState],
        idx: usize,
        qctx: &CallContext,
    ) {
        states[idx].hedge_at = None;
        (self.inner.stats.hedges_fired).fetch_add(1, Ordering::Relaxed);
        self.submit(scatter, states, 1, vec![idx], qctx);
    }

    /// Cancel a slot's live legs, returning how many were cancelled. With
    /// `winner` — the slot was just answered — every other leg lost, except
    /// a primary sharing its framed call with sibling slots, which is left
    /// to finish for them. With `None` — the deadline passed — every leg is
    /// doomed, siblings included, so a shared call is cancelled too, but
    /// only once.
    fn cancel_legs(&self, slot: &Slot, legs: &[Leg], winner: Option<usize>) -> u64 {
        let mut cancelled = 0;
        for (leg, state) in legs.iter().enumerate() {
            let spared = state.shared && (winner.is_some() || state.ctx.cancelled());
            if Some(leg) == winner || state.failed || spared {
                continue;
            }
            self.cancel_leg(&state.ctx, slot.instance(leg));
            cancelled += 1;
        }
        cancelled
    }

    /// Cancel a leg: flip its local flag (stops retry loops and pre-send
    /// checks here) and tell the target's container to interrupt any handler
    /// still working under this leg's cancel key. The POST is fire-and-forget
    /// on a fresh thread — the worker pool may be saturated by the very calls
    /// being cancelled.
    fn cancel_leg(&self, ctx: &CallContext, target: &Gsh) {
        ctx.cancel();
        let key = ctx.cancel_key();
        let mut url = target.url();
        url.path = "/ogsa/cancel".into();
        url.query = String::new();
        let client = Arc::clone(&self.inner.client);
        std::thread::spawn(move || {
            let request = Request::post("/ogsa/cancel", "text/plain", key.into_bytes());
            let _ = client.send(&url, &request);
        });
    }

    /// Queue one flight on the worker pool: leg `leg` of the slots in
    /// `members`, under one fresh leg context that each of them records as
    /// that leg. The leaders' outcomes come back on the scatter's channel.
    fn submit(
        &self,
        scatter: &Arc<Scatter>,
        states: &mut [SlotState],
        leg: usize,
        members: Vec<usize>,
        qctx: &CallContext,
    ) {
        let attempt = leg as u32;
        let mut ctx = qctx.leg(ppg_context::leg_tag(members[0], attempt), attempt);
        let shared = members.len() > 1;
        if let Some(rem) = ctx.remaining().filter(|_| shared) {
            // A shared framed call hands its outcomes back when its last
            // entry seals: an entry running right up to the deadline would
            // hold every finished sibling past the gather deadline. Reserve
            // headroom so they arrive.
            let margin = (rem / 8).min(Duration::from_millis(250));
            ctx = ctx.with_remaining(rem.saturating_sub(margin));
        }
        for &idx in &members {
            let ctx = ctx.clone();
            states[idx].legs.push(Leg {
                ctx,
                shared,
                failed: false,
            });
        }
        let inner = Arc::clone(&self.inner);
        let scatter = Arc::clone(scatter);
        self.pool.submit(move || {
            let started = Instant::now();
            inner.stats.in_flight.fetch_add(1, Ordering::Relaxed);
            let results = run_flight(&inner, &scatter, leg, &members, &ctx);
            inner.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
            if !results.is_empty() {
                let site = &scatter.slots[members[0]].plan.site;
                let failed = results.iter().any(|(_, r)| r.is_err());
                inner.stats.record_site(site, started.elapsed(), failed);
            }
            for (slot, result) in results {
                let _ = scatter.tx.send(Outcome { slot, leg, result });
            }
        });
    }
}

/// One flight: leg `leg` of the slots in `members`. Each member first joins
/// its tuple's single-flight group; a follower registers the delivery of
/// its leader's outcome and is done here. The leaders then share one site
/// permit and ride one framed call or one per-call SOAP/XML `getPR` each,
/// as [`framed_route`] decides now. A host that turns the framed call away
/// is remembered, and the leaders re-send per-call. Every token is
/// published exactly once. Returns the leaders' results (every member's,
/// if the leg expired before send).
fn run_flight(
    inner: &Arc<Inner>,
    scatter: &Arc<Scatter>,
    leg: usize,
    members: &[usize],
    ctx: &CallContext,
) -> Vec<(usize, FlightResult)> {
    let started = Instant::now();
    let site = &scatter.slots[members[0]].plan.site;
    if ctx.expired() {
        let outcome = if ctx.cancelled() {
            "cancelled-before-send"
        } else {
            "deadline-exceeded-before-send"
        };
        ctx.record_span("gateway.call", "getPR", site, started, outcome);
        let detail = format!("leg {} abandoned before send: {outcome}", ctx.leg_tag());
        return (members.iter())
            .map(|&idx| (idx, Err((SiteErrorKind::Timeout, detail.clone()))))
            .collect();
    }
    let mut leaders = Vec::with_capacity(members.len());
    for &idx in members {
        let slot = &scatter.slots[idx];
        // The flight key is the exact upstream tuple (instance handle +
        // PrQuery key): concurrent identical tuples share one call.
        let key = format!("{}::{}", slot.instance(leg).as_str(), slot.pr.cache_key());
        let (scatter, ctx) = (Arc::clone(scatter), ctx.clone());
        let deliver = move |outcome: &FlightOutcome| {
            if outcome.leader_request_id != ctx.request_id() {
                // A different request did the work: adopt its spans, then
                // record the coalescing itself so the trace shows which
                // request actually hit the wire.
                ctx.extend_spans(outcome.spans.clone());
                ctx.record_span(
                    "gateway.coalesce",
                    "getPR",
                    &scatter.slots[idx].plan.site,
                    started,
                    &format!("leader:{}", outcome.leader_request_id),
                );
            }
            let result = outcome.result.clone();
            let _ = scatter.tx.send(Outcome {
                slot: idx,
                leg,
                result,
            });
        };
        if let Some(token) = inner.flights.join(&key, deliver) {
            leaders.push((idx, token));
        }
    }
    if leaders.is_empty() {
        return Vec::new();
    }
    // Spans this flight records start here; the slice past this index is
    // what followers adopt. Sibling legs of the same request share the
    // trace, so a rare interleaved sibling span may ride along — acceptable
    // for diagnostic data.
    let span_base = ctx.span_count();
    let wire: Vec<&Slot> = leaders
        .iter()
        .map(|(idx, _)| &scatter.slots[*idx])
        .collect();
    // One permit covers the whole flight: a framed call is one upstream
    // request from the site's point of view, whatever its entry count.
    let outcomes = match inner.limiter.acquire_until(site, ctx.deadline()) {
        None => {
            ctx.record_span("gateway.call", "getPR", site, started, "deadline-exceeded");
            let detail = format!("no {site} permit became free before the deadline");
            vec![Err((SiteErrorKind::Timeout, detail)); wire.len()]
        }
        Some(_permit) => {
            let host = wire[0].instance(leg).url().authority();
            let framed = framed_route(inner, wire[0].plan.framed, &host);
            match framed.then(|| run_framed_wire(inner, &wire, leg, ctx, &scatter.upstream)) {
                Some(Some(outcomes)) => outcomes,
                turned_away => {
                    if turned_away.is_some() {
                        (inner.stats.batch_stream_fallbacks).fetch_add(1, Ordering::Relaxed);
                        inner.no_framed.lock().insert(host);
                    }
                    (wire.iter())
                        .map(|slot| fetch_xml(inner, slot, leg, ctx, &scatter.upstream))
                        .collect()
                }
            }
        }
    };
    let flight_spans = OnceCell::new();
    let mut results = Vec::with_capacity(leaders.len());
    for ((idx, token), result) in leaders.into_iter().zip(outcomes) {
        inner.flights.publish(token, || {
            let spans = flight_spans.get_or_init(|| {
                let mut spans = ctx.spans();
                spans.split_off(span_base.min(spans.len()))
            });
            FlightOutcome::new(result.clone(), ctx.request_id(), spans.clone())
        });
        results.push((idx, result));
    }
    results
}

/// One per-call SOAP/XML `getPR` for leg `leg` of `slot`; a complete
/// answer is stored where the slot's cache fill says.
fn fetch_xml(
    inner: &Inner,
    slot: &Slot,
    leg: usize,
    leg_ctx: &CallContext,
    query_upstream: &AtomicU64,
) -> FlightResult {
    let stub = ExecutionStub::bind(Arc::clone(&inner.client), slot.instance(leg));
    let rows = retrying(inner, leg_ctx, query_upstream, || {
        inner.stats.xml_calls.fetch_add(1, Ordering::Relaxed);
        stub.get_pr_with_context(&slot.pr, leg_ctx)
    })?;
    let rows = Arc::new(rows);
    if let Some(fill) = &slot.fill {
        cache_store(inner, &slot.plan.site, fill, fill.window, Arc::clone(&rows));
    }
    Ok(FlightRows::complete(rows))
}

/// Drive one framed exchange: leg `leg` of each of `slots`, one entry
/// each. Row frames accumulate per entry and merge into the cache as they
/// land, behind a per-entry monotone frontier ([`FrameClaims`]): an
/// out-of-order frame poisons only that entry's series, never its
/// siblings. A sealed entry stores its whole window. An entry the stream
/// died in keeps its delivered rows as a truncated partial answer — or,
/// with no rows, fails `Timeout` when the leg had run out of budget (the
/// deadline's doing, not the site's) and `Unreachable` otherwise. Returns
/// one result per slot, or `None` when the host turned the framed route
/// away (404, a non-stream answer, corruption before any row).
fn run_framed_wire(
    inner: &Inner,
    slots: &[&Slot],
    leg: usize,
    leg_ctx: &CallContext,
    query_upstream: &AtomicU64,
) -> Option<Vec<FlightResult>> {
    let site = &slots[0].plan.site;
    let stub = ServiceStub::new(Arc::clone(&inner.client), slots[0].instance(leg).clone());
    let entries: Vec<BatchEntry> = (slots.iter())
        .map(|slot| {
            let params = ExecutionStub::pr_params(&slot.pr);
            BatchEntry::new(
                slot.instance(leg).url().path,
                "getPR",
                EXECUTION_NS,
                &params,
            )
        })
        .collect();
    // Per-entry accumulation and incremental cache claims. The stub only
    // errors before any row arrived, so a retry starts from this same clean
    // slate — no partial cache claims to unwind.
    let mut entry_rows: Vec<Vec<String>> = vec![Vec::new(); slots.len()];
    let mut claims: Vec<FrameClaims> = (slots.iter())
        .map(|slot| FrameClaims::new(slot.fill.as_ref(), &slot.pr))
        .collect();
    let exchanged = retrying(inner, leg_ctx, query_upstream, || {
        stub.call_batch_stream(&entries, leg_ctx, &mut |entry, frame| {
            claims[entry].claim(inner, site, &frame);
            entry_rows[entry].extend(frame);
            // Frame-boundary cancellation: a spent budget (deadline or a
            // lost hedge race) stops the pull here.
            !leg_ctx.expired()
        })
    });
    let streamed = match exchanged {
        Ok(Some(streamed)) => streamed,
        Ok(None) => return None,
        Err(failure) => return Some(vec![Err(failure); slots.len()]),
    };
    inner.stats.batch_streams.fetch_add(1, Ordering::Relaxed);
    (inner.stats.batch_stream_entries).fetch_add(slots.len() as u64, Ordering::Relaxed);
    let results = (streamed.entries.iter().zip(entry_rows).enumerate())
        .map(|(i, (outcome, rows))| match outcome {
            BatchStreamEntryOutcome::Done { .. } => {
                let rows = Arc::new(rows);
                if let Some(fill) = &slots[i].fill {
                    // The sealed entry covers its whole window even where
                    // sparse rows left gaps between the incremental claims.
                    cache_store(inner, site, fill, fill.window, Arc::clone(&rows));
                }
                Ok(FlightRows::complete(rows))
            }
            BatchStreamEntryOutcome::Fault(fault) => Err((fault_kind(fault), fault.to_string())),
            BatchStreamEntryOutcome::Truncated {
                rows: delivered,
                detail,
            } => {
                (inner.stats.batch_stream_truncated).fetch_add(1, Ordering::Relaxed);
                if streamed.cancelled {
                    let detail = format!(
                        "stream abandoned at a frame boundary after {} rows (leg {})",
                        rows.len(),
                        leg_ctx.leg_tag()
                    );
                    Err((SiteErrorKind::Timeout, detail))
                } else if rows.is_empty() {
                    // A rowless truncation after the budget ran out is the
                    // deadline's doing, not the site's.
                    let kind = if leg_ctx.expired() {
                        SiteErrorKind::Timeout
                    } else {
                        SiteErrorKind::Unreachable
                    };
                    Err((kind, detail.clone()))
                } else {
                    let detail = format!("entry stream died after {delivered} rows: {detail}");
                    Ok(FlightRows::truncated(Arc::new(rows), detail))
                }
            }
        })
        .collect();
    Some(results)
}

/// One framed entry's incremental cache claims. Per-frame merges are sound
/// only for single-focus tuples (a multi-foci scan restarts time once per
/// focus) and only while the frame sequence stays monotone in time: each
/// frame may claim the window its own rows span solely because no later
/// frame's row can reach back into it. The first violation retracts the
/// claims made so far and stops claiming; the whole-window insert at the
/// trailer still happens.
struct FrameClaims {
    fill: Option<CacheFill>,
    frontier: f64,
}

impl FrameClaims {
    fn new(fill: Option<&CacheFill>, pr: &PrQuery) -> FrameClaims {
        FrameClaims {
            fill: fill.filter(|_| pr.foci.len() <= 1).cloned(),
            frontier: f64::NEG_INFINITY,
        }
    }

    fn claim(&mut self, inner: &Inner, site: &str, frame: &[String]) {
        let Some(fill) = &self.fill else {
            return;
        };
        match frame_window(frame) {
            Some((lo, hi)) if lo >= self.frontier => {
                self.frontier = hi;
                // Clamp the claim to the fetched window: a row's span may
                // poke past the query bounds, but rows beyond them were
                // never fetched.
                let claim = (lo.max(fill.window.0), hi.min(fill.window.1));
                if claim.0 <= claim.1 {
                    cache_store(inner, site, fill, claim, Arc::new(frame.to_vec()));
                }
            }
            _ => {
                // Out-of-order frame (or an unparseable span).
                inner.cache.retract(&fill.series);
                self.fill = None;
            }
        }
    }
}

/// The min/max time span covered by one stream frame's rows, or `None` when
/// any row lacks a parseable span.
fn frame_window(rows: &[String]) -> Option<(f64, f64)> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for row in rows {
        let (s, e) = row_time_span(row)?;
        lo = lo.min(s);
        hi = hi.max(e);
    }
    (lo <= hi).then_some((lo, hi))
}
