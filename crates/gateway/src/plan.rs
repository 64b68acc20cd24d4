//! The federation planner.
//!
//! Planning turns one [`crate::FederatedQuery`] into a
//! concrete scatter plan: snapshot the Registry's service entries, bind (or
//! reuse) an Application instance per site, expand the query's selector to
//! per-Execution `getPR` targets, and — when the site advertises its Manager
//! — pair each target with a hedge replica on a different host.
//!
//! Like the paper's client, which asks the Application for `getExecs` once
//! and then works on the handles it got back, the planner remembers each
//! selector's expansion beside the site's binding for `plan_cache_ttl`, so a
//! warm plan costs no wire call. An expansion is forgotten with its binding,
//! on a membership delta, on an invalidation event from the site, and after
//! any query on which the site faulted — a vanished instance costs one
//! failed query, never a stuck plan.
//!
//! A site that fails any planning step yields a structured
//! [`SiteError`] instead of failing the whole federation.

use crate::query::{FederatedQuery, SiteError, SiteErrorKind};
use parking_lot::Mutex;
use pperf_httpd::HttpClient;
use pperf_ogsi::{FactoryStub, GridServiceStub, Gsh, OgsiError, RegistryStub};
use pperf_soap::PPGB_VERSION;
use pperfgrid::{ApplicationStub, ManagerStub, FRAMED_CAPABILITY};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One `getPR` target: the primary Execution instance, and optionally a
/// hedge instance of the same execution on a different replica host.
#[derive(Debug, Clone)]
pub struct ExecTarget {
    /// The instance the Manager resolved for this execution.
    pub primary: Gsh,
    /// A distinct-host replica instance for hedged requests, if any.
    pub hedge: Option<Gsh>,
}

/// The per-site slice of a scatter plan.
#[derive(Debug, Clone)]
pub struct SitePlan {
    /// Site label (`organization/service`).
    pub site: String,
    /// The site's Application factory handle.
    pub factory: Gsh,
    /// Expanded `getPR` targets (shared with the planner's remembered
    /// expansion: a warm plan clones the pointer, not the handles).
    pub targets: Arc<[ExecTarget]>,
    /// The site advertises the framed PPGB route at this build's
    /// `PPGB_VERSION`: its targets ride one framed call per host instead of
    /// one SOAP/XML call each.
    pub framed: bool,
}

/// A complete scatter plan: per-site target lists plus the sites that failed
/// to plan.
#[derive(Debug, Clone, Default)]
pub struct QueryPlan {
    /// Successfully planned sites.
    pub sites: Vec<SitePlan>,
    /// Sites that failed planning (factory down, selector rejected, ...).
    pub errors: Vec<SiteError>,
    /// Sites whose registry entry vanished (soft-state lease expired) or
    /// changed factory URL (site republished) since the previous snapshot.
    /// The gateway drops their cached results and bindings.
    pub invalidated: Vec<String>,
    /// Sites this plan had to expand over the wire, each with why no
    /// remembered expansion served: `cold` (never asked), `ttl`, `event`
    /// (membership delta or site invalidation), `site-error`, `lease`.
    pub expanded: Vec<(String, &'static str)>,
}

impl QueryPlan {
    /// Total `getPR` targets across all planned sites.
    pub fn target_count(&self) -> usize {
        self.sites.iter().map(|s| s.targets.len()).sum()
    }
}

/// One selector's remembered expansion, fresh while `plan_cache_ttl` has not
/// run out and the membership generation it was made under still stands.
struct Expansion {
    targets: Arc<[ExecTarget]>,
    at: Instant,
    generation: u64,
}

/// Selector values are caller-chosen, so each site remembers at most this
/// many expansions; the oldest makes room.
const MAX_EXPANSIONS_PER_SITE: usize = 64;

/// A bound Application instance (and its site's Manager, once discovered),
/// reused across queries so repeat federations skip `createService`.
struct BoundSite {
    app: ApplicationStub,
    manager: Option<ManagerStub>,
    /// Whether the site takes framed calls, read once at bind time.
    framed: bool,
    /// `selector → targets` (hedges included) as last expanded.
    expansions: HashMap<Option<(String, String)>, Expansion>,
}

/// One registry entry as the planner uses it: label and factory handle
/// worked out once per snapshot, not once per plan.
struct SiteEntry {
    /// Site label (`organization/service`).
    site: String,
    factory_url: String,
    /// The parsed factory handle, or why it does not parse.
    factory: Result<Gsh, String>,
}

/// A cached registry snapshot with its capture time and the membership
/// generation it was captured under.
struct Snapshot {
    entries: Arc<[SiteEntry]>,
    at: Instant,
    generation: u64,
}

/// The planner: registry snapshotting plus Application-binding state.
pub struct Planner {
    client: Arc<HttpClient>,
    registry: Gsh,
    hedging: bool,
    bound: Mutex<HashMap<String, BoundSite>>,
    /// Short-TTL cache of the registry snapshot: planning a federated query
    /// costs two wire calls (`findOrganizations` + `listServices`) before
    /// any site is touched; back-to-back queries reuse one snapshot. The
    /// same TTL bounds each remembered expansion. `Duration::ZERO` disables
    /// both: every plan asks the registry and every site again.
    snapshot_ttl: Duration,
    snapshot: Mutex<Option<Snapshot>>,
    /// Registry-membership generation: bumped by every invalidation (push
    /// delta, explicit call). A snapshot or expansion is only served while
    /// its recorded generation still matches, so a delta arriving
    /// *mid-refresh* — after the wire fetch started but before the result
    /// was stored — can never resurrect the pre-delta view.
    generation: AtomicU64,
    snapshot_hits: AtomicU64,
    snapshot_refreshes: AtomicU64,
    /// Bumped whenever expansions are dropped: an expansion whose wire call
    /// was in flight across a drop is used for its own query but not kept.
    expansion_drops: AtomicU64,
    expansion_hits: AtomicU64,
    expansion_refreshes: AtomicU64,
    expansion_invalidations: AtomicU64,
    /// Why a site's expansions were last dropped, until its next expansion
    /// reports it in [`QueryPlan::expanded`].
    drop_cause: Mutex<HashMap<String, &'static str>>,
    /// `site label → factory URL` as of the previous fresh snapshot, diffed
    /// against each new one to detect expired leases and republished sites.
    last_seen: Mutex<HashMap<String, String>>,
}

impl Planner {
    /// A planner reading site entries from the registry at `registry`,
    /// reusing each snapshot and expansion for `snapshot_ttl` (zero
    /// disables both).
    pub fn new(
        client: Arc<HttpClient>,
        registry: Gsh,
        hedging: bool,
        snapshot_ttl: Duration,
    ) -> Planner {
        Planner {
            client,
            registry,
            hedging,
            bound: Mutex::new(HashMap::new()),
            snapshot_ttl,
            snapshot: Mutex::new(None),
            generation: AtomicU64::new(0),
            snapshot_hits: AtomicU64::new(0),
            snapshot_refreshes: AtomicU64::new(0),
            expansion_drops: AtomicU64::new(0),
            expansion_hits: AtomicU64::new(0),
            expansion_refreshes: AtomicU64::new(0),
            expansion_invalidations: AtomicU64::new(0),
            drop_cause: Mutex::new(HashMap::new()),
            last_seen: Mutex::new(HashMap::new()),
        }
    }

    /// Snapshot the registry and expand `query` into a scatter plan.
    pub fn plan(&self, query: &FederatedQuery) -> QueryPlan {
        let (entries, invalidated) = match self.snapshot() {
            Ok(snapshot) => snapshot,
            Err(e) => {
                return QueryPlan {
                    errors: vec![SiteError {
                        site: "<registry>".to_owned(),
                        kind: SiteErrorKind::Planning,
                        detail: format!("registry snapshot failed: {e}"),
                    }],
                    ..QueryPlan::default()
                }
            }
        };
        let mut plan = QueryPlan {
            invalidated,
            ..QueryPlan::default()
        };
        for entry in entries.iter() {
            if let Some(pattern) = &query.site_pattern {
                if !entry.site.contains(pattern.as_str()) {
                    continue;
                }
            }
            match self.plan_site(entry, query, &mut plan.expanded) {
                Ok(site_plan) => plan.sites.push(site_plan),
                Err(detail) => plan.errors.push(SiteError {
                    site: entry.site.clone(),
                    kind: SiteErrorKind::Planning,
                    detail,
                }),
            }
        }
        plan
    }

    /// All registered service entries, every organization, plus the sites
    /// invalidated since the previous fresh snapshot. Served from the TTL
    /// cache when fresh enough (the invalidated list is only ever non-empty
    /// on a refresh — a cached snapshot cannot observe lease changes).
    fn snapshot(&self) -> Result<(Arc<[SiteEntry]>, Vec<String>), OgsiError> {
        let generation = self.generation.load(Ordering::Acquire);
        if self.snapshot_ttl > Duration::ZERO {
            if let Some(cached) = self.snapshot.lock().as_ref() {
                if cached.at.elapsed() <= self.snapshot_ttl && cached.generation == generation {
                    self.snapshot_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((Arc::clone(&cached.entries), Vec::new()));
                }
            }
        }
        // `generation` was read before the wire fetch: if a membership delta
        // lands while the fetch is in flight, the stored snapshot is already
        // stale-by-generation and the next plan refreshes again.
        let registry = RegistryStub::bind(Arc::clone(&self.client), &self.registry);
        let mut entries = Vec::new();
        for org in registry.find_organizations("")? {
            for service in registry.list_services(&org.name)? {
                entries.push(SiteEntry {
                    site: format!("{}/{}", service.organization, service.name),
                    factory: Gsh::parse(service.factory_url.as_str()).map_err(|e| e.to_string()),
                    factory_url: service.factory_url,
                });
            }
        }
        let entries: Arc<[SiteEntry]> = entries.into();
        self.snapshot_refreshes.fetch_add(1, Ordering::Relaxed);
        let invalidated = self.diff_leases(&entries);
        // A vanished or republished site's Application binding points at a
        // dead (or wrong) instance; retire it with the lease.
        for site in &invalidated {
            self.unbind(site, "lease");
        }
        *self.snapshot.lock() = Some(Snapshot {
            entries: Arc::clone(&entries),
            at: Instant::now(),
            generation,
        });
        Ok((entries, invalidated))
    }

    /// Sites present in the previous snapshot whose entry is now gone
    /// (lease expired without renewal) or carries a different factory URL
    /// (site republished after a restart). Updates the `last_seen` map.
    fn diff_leases(&self, entries: &[SiteEntry]) -> Vec<String> {
        let fresh: HashMap<String, String> = entries
            .iter()
            .map(|e| (e.site.clone(), e.factory_url.clone()))
            .collect();
        let mut last_seen = self.last_seen.lock();
        let mut invalidated: Vec<String> = last_seen
            .iter()
            .filter(|(site, url)| fresh.get(*site) != Some(url))
            .map(|(site, _)| site.clone())
            .collect();
        invalidated.sort();
        *last_seen = fresh;
        invalidated
    }

    /// `(hits, refreshes)` counters for the registry-snapshot cache.
    pub fn snapshot_stats(&self) -> (u64, u64) {
        (
            self.snapshot_hits.load(Ordering::Relaxed),
            self.snapshot_refreshes.load(Ordering::Relaxed),
        )
    }

    /// `(hits, refreshes, invalidations)` for remembered expansions: site
    /// plans served without a wire call, site plans that asked the
    /// Application, and expansions dropped before their TTL (event, site
    /// error, lease).
    pub fn expansion_stats(&self) -> (u64, u64, u64) {
        (
            self.expansion_hits.load(Ordering::Relaxed),
            self.expansion_refreshes.load(Ordering::Relaxed),
            self.expansion_invalidations.load(Ordering::Relaxed),
        )
    }

    /// Drop the cached registry snapshot so the next plan refreshes (push
    /// membership deltas, tests, or callers that just changed the registry
    /// and can't wait out the TTL). Also bumps the membership generation,
    /// which retires every remembered expansion and any refresh still in
    /// flight — without the bump, a concurrent [`Planner::plan`] that
    /// fetched entries *before* this call could store them *after* it,
    /// resurrecting the pre-delta view.
    pub fn invalidate_snapshot(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
        *self.snapshot.lock() = None;
    }

    /// The current membership generation (diagnostics and tests).
    pub fn snapshot_generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Drop one site's cached Application binding (its registry entry was
    /// withdrawn, so the bound instance is — or is about to be — gone).
    /// Also forgets the site's lease, so the next snapshot refresh does not
    /// re-report a withdrawal that a push delta already handled.
    pub fn unbind_site(&self, site: &str) {
        self.unbind(site, "lease");
        self.last_seen.lock().remove(site);
    }

    /// Drop a binding and, with it, every expansion it remembered.
    fn unbind(&self, site: &str, cause: &'static str) {
        self.expansion_drops.fetch_add(1, Ordering::AcqRel);
        let dropped = (self.bound.lock().remove(site)).map_or(0, |b| b.expansions.len());
        self.note_dropped(site, dropped, cause);
    }

    /// Forget what `site` expanded to: a query on it just ended with a
    /// fault or an unreachable instance, so its handles may be gone.
    pub fn forget_expansions(&self, site: &str, cause: &'static str) {
        self.expansion_drops.fetch_add(1, Ordering::AcqRel);
        let dropped = (self.bound.lock().get_mut(site)).map_or(0, |b| {
            let dropped = b.expansions.len();
            b.expansions.clear();
            dropped
        });
        self.note_dropped(site, dropped, cause);
    }

    /// A site container at `authority` published an invalidation: forget
    /// every expansion naming the instance `url` — or, when events were
    /// missed (`url` is `None`: a gap or a lost connection), every
    /// expansion with a target on that container.
    pub fn forget_expansions_at(&self, authority: &str, url: Option<&str>) {
        // Counted even when nothing stored is named: an expansion still on
        // the wire may name the instance, and must not be kept.
        self.expansion_drops.fetch_add(1, Ordering::AcqRel);
        let on_container = format!("http://{authority}/");
        let names = |gsh: &Gsh| match url {
            Some(url) => gsh.as_str() == url,
            None => gsh.as_str().starts_with(&on_container),
        };
        let mut dropped: Vec<(String, usize)> = Vec::new();
        for (site, bound) in self.bound.lock().iter_mut() {
            let before = bound.expansions.len();
            bound.expansions.retain(|_, exp| {
                !(exp.targets.iter())
                    .any(|t| names(&t.primary) || t.hedge.as_ref().is_some_and(&names))
            });
            if bound.expansions.len() < before {
                dropped.push((site.clone(), before - bound.expansions.len()));
            }
        }
        for (site, count) in dropped {
            self.note_dropped(&site, count, "event");
        }
    }

    fn note_dropped(&self, site: &str, expansions: usize, cause: &'static str) {
        if expansions > 0 {
            (self.expansion_invalidations).fetch_add(expansions as u64, Ordering::Relaxed);
            self.drop_cause.lock().insert(site.to_owned(), cause);
        }
    }

    /// The `host:port` of the registry this planner snapshots.
    pub fn registry_authority(&self) -> String {
        self.registry.url().authority()
    }

    /// Plan one site: from its remembered expansion when that is fresh,
    /// else over the wire — retrying once with a fresh Application instance
    /// if a cached binding has gone stale (site restarted since the last
    /// query).
    fn plan_site(
        &self,
        entry: &SiteEntry,
        query: &FederatedQuery,
        expanded: &mut Vec<(String, &'static str)>,
    ) -> Result<SitePlan, String> {
        let factory = entry.factory.as_ref().map_err(String::clone)?;
        let generation = self.generation.load(Ordering::Acquire);
        let mut cause = "cold";
        if let Some(bound) = self.bound.lock().get(&entry.site) {
            match bound.expansions.get(&query.selector) {
                Some(exp) if exp.generation != generation => cause = "event",
                Some(exp) if exp.at.elapsed() > self.snapshot_ttl => cause = "ttl",
                Some(exp) => {
                    self.expansion_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(site_plan(
                        entry,
                        factory,
                        bound.framed,
                        Arc::clone(&exp.targets),
                    ));
                }
                None => {}
            }
        }
        if let Some(dropped) = self.drop_cause.lock().remove(&entry.site) {
            cause = dropped;
        }
        expanded.push((entry.site.clone(), cause));
        self.expansion_refreshes.fetch_add(1, Ordering::Relaxed);
        let was_bound = self.bound.lock().contains_key(&entry.site);
        let (framed, targets) = match self.expand(entry, factory, query, generation) {
            Err(_) if was_bound => {
                self.bound.lock().remove(&entry.site);
                self.expand(entry, factory, query, generation)
            }
            other => other,
        }
        .map_err(|e| e.to_string())?;
        Ok(site_plan(entry, factory, framed, targets))
    }

    /// Ask the site's Application (binding it first if need be) what the
    /// query's selector expands to, and remember the answer.
    fn expand(
        &self,
        entry: &SiteEntry,
        factory: &Gsh,
        query: &FederatedQuery,
        generation: u64,
    ) -> Result<(bool, Arc<[ExecTarget]>), OgsiError> {
        let site = entry.site.as_str();
        let drops = self.expansion_drops.load(Ordering::Acquire);
        // Look up (and drop the lock on) the cached binding before any wire
        // work: createService and capability discovery must not run under it.
        let cached = (self.bound.lock().get(site))
            .map(|bound| (bound.app.clone(), bound.manager.clone(), bound.framed));
        let (app, manager, framed) = match cached {
            Some(cached) => cached,
            None => self.bind(site, factory)?,
        };
        let primaries = match &query.selector {
            Some((attribute, value)) => app.get_execs(attribute, value)?,
            None => app.get_all_execs()?,
        };
        // One wire call learns every hedge; a failure (or a site without a
        // Manager) leaves the targets unhedged — hedging is best-effort.
        let hedges = (manager.filter(|_| !primaries.is_empty()))
            .and_then(|manager| manager.get_hedges(&primaries).ok())
            .unwrap_or_else(|| vec![None; primaries.len()]);
        let targets: Arc<[ExecTarget]> = primaries
            .into_iter()
            .zip(hedges)
            .map(|(primary, hedge)| ExecTarget { primary, hedge })
            .collect();
        if self.snapshot_ttl > Duration::ZERO
            && self.expansion_drops.load(Ordering::Acquire) == drops
        {
            if let Some(bound) = self.bound.lock().get_mut(site) {
                let known = &mut bound.expansions;
                if known.len() >= MAX_EXPANSIONS_PER_SITE && !known.contains_key(&query.selector) {
                    let oldest = known.iter().min_by_key(|(_, exp)| exp.at);
                    if let Some(oldest) = oldest.map(|(selector, _)| selector.clone()) {
                        known.remove(&oldest);
                    }
                }
                known.insert(
                    query.selector.clone(),
                    Expansion {
                        targets: Arc::clone(&targets),
                        at: Instant::now(),
                        generation,
                    },
                );
            }
        }
        Ok((framed, targets))
    }

    /// Create and remember the site's Application instance, discovering its
    /// Manager and whether it takes framed calls once.
    fn bind(
        &self,
        site: &str,
        factory: &Gsh,
    ) -> Result<(ApplicationStub, Option<ManagerStub>, bool), OgsiError> {
        let instance = FactoryStub::bind(Arc::clone(&self.client), factory).create_service(&[])?;
        let app = ApplicationStub::bind(Arc::clone(&self.client), &instance);
        let manager = self.hedging.then(|| self.discover_manager(&app)).flatten();
        let framed = self.advertises_framed(&app);
        self.bound.lock().insert(
            site.to_owned(),
            BoundSite {
                app: app.clone(),
                manager: manager.clone(),
                framed,
                expansions: HashMap::new(),
            },
        );
        Ok((app, manager, framed))
    }

    /// The site's Manager handle, advertised as `managerGsh` service data on
    /// its Application instances. Best-effort: sites predating the element
    /// simply don't hedge.
    fn discover_manager(&self, app: &ApplicationStub) -> Option<ManagerStub> {
        let gs = GridServiceStub::bind(Arc::clone(&self.client), app.handle());
        let value = gs.find_service_data("managerGsh").ok()?;
        let gsh = Gsh::parse(value.as_str()?).ok()?;
        Some(ManagerStub::bind(Arc::clone(&self.client), &gsh))
    }

    /// Whether the site advertises the framed route at this build's
    /// `PPGB_VERSION`. Absent, another version, or unreadable all mean "no",
    /// so such sites keep working on per-call SOAP/XML.
    fn advertises_framed(&self, app: &ApplicationStub) -> bool {
        let gs = GridServiceStub::bind(Arc::clone(&self.client), app.handle());
        let advertised = gs.find_service_data(FRAMED_CAPABILITY).ok();
        advertised.and_then(|v| v.as_int()) == Some(i64::from(PPGB_VERSION))
    }

    /// Drop every cached Application binding (e.g. between test phases).
    pub fn clear_bindings(&self) {
        self.bound.lock().clear();
    }

    /// Number of sites with a live cached Application binding.
    pub fn bound_sites(&self) -> usize {
        self.bound.lock().len()
    }
}

fn site_plan(
    entry: &SiteEntry,
    factory: &Gsh,
    framed: bool,
    targets: Arc<[ExecTarget]>,
) -> SitePlan {
    SitePlan {
        site: entry.site.clone(),
        factory: factory.clone(),
        targets,
        framed,
    }
}
