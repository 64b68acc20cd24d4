//! PPerfGrid: Grid services-based exchange of heterogeneous parallel
//! performance data.
//!
//! This crate is the paper's primary contribution — the Semantic and Mapping
//! Layers of the five-layer architecture (thesis §4), deployed on the
//! `pperf-ogsi` Grid services substrate:
//!
//! * **Mapping Layer** — the [`ApplicationWrapper`] / [`ExecutionWrapper`]
//!   traits and four concrete wrappers translating the heterogeneous
//!   backends (HPL relational, HPL XML files, PRESTA RMA ASCII files, SMG98
//!   five-table relational) into PPerfGrid's uniform semantics.
//! * **Semantic Layer** — the Application and Execution semantic objects
//!   ([`ApplicationService`], [`ExecutionService`]) exposing exactly the
//!   PortTypes of thesis Tables 1 and 2, deployed as transient, stateful
//!   Grid service instances through factories.
//! * **[`Manager`]** — the internal Grid service of §5.3.1.4: caches
//!   Execution service instances by execution id and interleaves instance
//!   creation round-robin across replica hosts.
//! * **[`PrCache`]** — the Performance Results cache of §5.3.2.3, keyed by
//!   the stringified query tuple (`"metric | foci | type | t0-t1"`).
//! * **[`Site`]** — deployment glue: stand up a complete PPerfGrid site
//!   (Application factory + Execution factory + Manager) in one or more
//!   containers and publish it to a registry.
//! * **Typed client stubs** — [`ApplicationStub`], [`ExecutionStub`] — the
//!   client half of the architecture adapters.
//!
//! # Quick start
//!
//! See `examples/quickstart.rs` in the repository root for the full
//! registry → factory → Application → Execution → PerformanceResult walk.

/// The typed fault for an operation whose [`ppg_context::CallContext`]
/// expired or was cancelled before (or while) the work ran.
pub(crate) fn context_fault(ctx: &ppg_context::CallContext, what: &str) -> pperf_soap::Fault {
    if ctx.cancelled() {
        pperf_soap::Fault::cancelled(format!("{what}: leg cancelled by caller"))
    } else {
        pperf_soap::Fault::deadline_exceeded(format!("{what}: deadline exceeded"))
    }
}

pub mod access;
pub mod application;
pub mod execution;
pub mod manager;
pub mod prcache;
pub mod site;
pub mod stats;
pub mod timing;
pub mod wrapper;
pub mod wrappers;

pub use access::{ExecutionAccess, LocalSites};
pub use application::{ApplicationFactory, ApplicationService, ApplicationStub};
pub use execution::{
    decode_pr_tuple, encode_pr_tuple, ExecutionFactory, ExecutionService, ExecutionStub,
};
pub use manager::{Manager, ManagerService, ManagerStub, Placement};
pub use prcache::{CachePolicy, PrCache};
pub use site::{Site, SiteConfig};
pub use timing::{TimedApplicationWrapper, TimingLog};
pub use wrapper::{
    pr_cache_key, row_time_span, stream_rows_buffered, ApplicationWrapper, ExecutionWrapper,
    PrQuery, WrapperError, STREAM_BATCH_ROWS,
};

/// Namespace for Application PortType calls.
pub const APPLICATION_NS: &str = "urn:pperfgrid:Application";
/// Namespace for Execution PortType calls.
pub const EXECUTION_NS: &str = "urn:pperfgrid:Execution";
/// Namespace for Manager calls.
pub const MANAGER_NS: &str = "urn:pperfgrid:Manager";
/// The `type` value meaning "any measurement tool" in a getPR query.
pub const TYPE_UNDEFINED: &str = "UNDEFINED";
/// Service-data element advertising the framed PPGB route
/// (`POST /ogsa/batch-stream`). Its value is the `PPGB_VERSION` the site's
/// containers speak; a client finding no element, or another version,
/// uses per-call SOAP/XML.
pub const FRAMED_CAPABILITY: &str = "supportsFramedWire";
