//! `pperf-gateway`: the federated query gateway — PPerfGrid's federation
//! front door.
//!
//! The thesis's client performs federation *manually*: discover sites, bind
//! each Application, fan a `getPR` out per Execution, and merge by hand
//! (`pperf-client`'s query panels). This crate promotes that pattern into a
//! first-class Grid service: one [`FederatedQuery`] — a metric over a set of
//! foci — is answered with Performance Results from *every* registered site,
//! however heterogeneous their backing stores.
//!
//! The pipeline, in order:
//!
//! * **Planner** ([`plan`]) — snapshots the Registry, binds (and reuses)
//!   one Application instance per site, and expands the query to concrete
//!   per-Execution `getPR` targets, remembering each selector's expansion
//!   the way the paper's client keeps the handles `getExecs` gave it.
//! * **Scatter executor** ([`pool`]) — a bounded worker pool with per-site
//!   concurrency permits, per-call timeouts, and retry with exponential
//!   backoff.
//! * **Coalescing** ([`coalesce`]) — identical in-flight `getPR` tuples
//!   (same Execution instance, metric, foci, window, type) share a single
//!   upstream call; the key reuses [`pperfgrid::PrQuery::cache_key`].
//! * **Result cache** ([`cache`]) — a gateway-level semantic segment cache
//!   layered above the per-Execution PR caches: a cached wider time window
//!   answers any narrower one, adjacent segments stitch, partial coverage
//!   narrows the upstream fetch to the missing sub-range, a byte budget
//!   with admission control bounds memory, and evicted-but-fresh segments
//!   spill to disk as PPGB frames for warm restarts.
//! * **Hedging** — targets silent past a configurable delay (or whose
//!   primary fails) are retried against a replica instance on a different
//!   host, obtained from the site's Manager; first answer wins.
//! * **Partial results** — a down or timed-out site becomes a structured
//!   [`SiteError`] in the answer; every surviving site's rows are returned.
//! * **Call context** — every query runs under a `ppg_context::CallContext`:
//!   one request id and a deadline budget propagated to every site, losing
//!   hedge legs and deadline-orphaned calls cancelled cooperatively at
//!   their site, and a cross-site trace (one span per hop) assembled into
//!   the [`FederatedResult`]. Callers pass their own context via
//!   [`FederatedGateway::query_with_context`].
//!
//! Use it in-process via [`FederatedGateway::query`], or deploy it as an
//! OGSI service ([`FederatedQueryService`]) exposing the `FederatedQuery`
//! PortType and service data (per-site latency, cache hit rate, in-flight
//! and coalesced counts).

pub mod cache;
pub mod coalesce;
pub mod gateway;
pub mod plan;
pub mod pool;
pub mod query;
pub mod service;

pub use cache::{series_key, CacheCounters, Lookup, SegmentCache, SegmentCacheConfig};
pub use coalesce::{FlightOutcome, FlightResult, FlightRows, SingleFlight};
pub use gateway::{FederatedGateway, GatewayConfig, GatewaySnapshot, SiteLatency};
pub use plan::{ExecTarget, Planner, QueryPlan, SitePlan};
pub use pool::{SiteLimiter, WorkerPool};
pub use query::{FederatedQuery, FederatedResult, SiteError, SiteErrorKind, SiteRows};
pub use service::{gateway_description, FederatedQueryService, FederatedQueryStub, WireResult};

/// Namespace for FederatedQuery PortType calls.
pub const GATEWAY_NS: &str = "urn:pperfgrid:FederatedQuery";
