//! Shared experiment fixtures: data stores, sites, containers, scales.

use pperf_datastore::{
    rma_to_database, HplSpec, HplStore, HplXmlStore, RmaSpec, RmaTextStore, SmgSpec, SmgStore,
};
use pperf_httpd::HttpClient;
use pperf_ogsi::{Container, ContainerConfig, FactoryStub, Gsh, OgsiError};
use pperfgrid::wrappers::{
    HplSqlWrapper, HplXmlWrapper, RmaSqlWrapper, RmaTextWrapper, SmgSqlWrapper,
};
use pperfgrid::{
    ApplicationStub, ApplicationWrapper, ExecutionStub, Site, SiteConfig, TimedApplicationWrapper,
    TimingLog,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// The simulated per-statement RDBMS round trip (see
/// `pperf_minidb::Database::set_query_latency`). The thesis paid ~80 ms per
/// JDBC/PostgreSQL statement on 2004 hardware; our whole stack is ~300×
/// faster, so the constant is scaled to keep the thesis's cost *ratios*
/// (RDBMS access dearer than SOAP overhead, dearer than file parsing)
/// without inflating experiment runtimes.
pub const DB_ROUND_TRIP: Duration = Duration::from_micros(400);

/// Experiment sizing.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Queries per fast data source in Table 4/5 style experiments
    /// (thesis: 100).
    pub fast_queries: usize,
    /// Queries against SMG98 (thesis: 30, "to minimize testing time and
    /// still ensure an adequate sample").
    pub smg_queries: usize,
    /// Caching experiment queries per configuration (thesis: 30).
    pub caching_queries: usize,
    /// Execution-instance counts swept by Figure 12
    /// (thesis: 2, 4, 8, 16, 32, 64, 124).
    pub exec_counts: Vec<usize>,
    /// Repeats of each query within its thread (thesis: 10).
    pub repeats: usize,
    /// Runs of the combined query set (thesis: 10).
    pub sets: usize,
    /// SMG98 dataset size.
    pub smg_spec: SmgSpec,
    /// HPL dataset size.
    pub hpl_spec: HplSpec,
    /// RMA dataset size.
    pub rma_spec: RmaSpec,
    /// Per-host capacity model for Figure 12: HTTP workers per container.
    pub host_workers: usize,
    /// Per-host capacity model for Figure 12: per-request service latency.
    pub host_latency: Duration,
}

impl Scale {
    /// Thesis-equivalent sample sizes (minutes of runtime).
    pub fn full() -> Scale {
        Scale {
            fast_queries: 100,
            smg_queries: 30,
            caching_queries: 30,
            exec_counts: vec![2, 4, 8, 16, 32, 64, 124],
            repeats: 10,
            sets: 10,
            smg_spec: SmgSpec {
                num_execs: 8,
                procs: 16,
                events_per_proc: 10_000,
                num_functions: 240,
                seed: 0x534d47,
            },
            hpl_spec: HplSpec::default(),
            rma_spec: RmaSpec::default(),
            host_workers: 2,
            host_latency: Duration::from_millis(2),
        }
    }

    /// Small configuration for CI / integration tests (seconds of runtime).
    pub fn quick() -> Scale {
        Scale {
            fast_queries: 12,
            smg_queries: 4,
            caching_queries: 8,
            exec_counts: vec![2, 4, 8],
            repeats: 3,
            sets: 3,
            smg_spec: SmgSpec {
                num_execs: 8,
                procs: 8,
                events_per_proc: 7500,
                num_functions: 80,
                seed: 0x534d47,
            },
            hpl_spec: HplSpec {
                num_execs: 16,
                ..HplSpec::default()
            },
            rma_spec: RmaSpec {
                num_execs: 4,
                trials: 2,
                ..RmaSpec::default()
            },
            host_workers: 2,
            host_latency: Duration::from_millis(2),
        }
    }

    /// Pick `full()` unless the `PPG_QUICK` environment variable is set.
    pub fn from_env() -> Scale {
        if std::env::var_os("PPG_QUICK").is_some() {
            Scale::quick()
        } else {
            Scale::full()
        }
    }
}

/// Which data source an experiment row refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// HPL in the relational store.
    HplRdbms,
    /// HPL in XML files.
    HplXml,
    /// PRESTA RMA in ASCII text files.
    RmaAscii,
    /// PRESTA RMA imported into the relational store.
    RmaRdbms,
    /// SMG98 in the five-table relational store.
    SmgRdbms,
}

impl SourceKind {
    /// Display label matching the thesis tables.
    pub fn label(self) -> &'static str {
        match self {
            SourceKind::HplRdbms => "HPL (RDBMS)",
            SourceKind::HplXml => "HPL (XML files)",
            SourceKind::RmaAscii => "RMA (ASCII text files)",
            SourceKind::RmaRdbms => "RMA (RDBMS)",
            SourceKind::SmgRdbms => "SMG98 (RDBMS)",
        }
    }
}

/// RAII guard deleting a generated file-store directory.
pub struct DirGuard(PathBuf);

impl DirGuard {
    /// Create a fresh temp directory.
    pub fn new(tag: &str) -> DirGuard {
        let path = std::env::temp_dir().join(format!(
            "ppg-bench-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        DirGuard(path)
    }

    /// The directory path.
    pub fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A deployed single-source fixture: container + site + timing + one bound
/// Application instance, ready to issue queries.
pub struct Fixture {
    /// The hosting container (kept alive).
    pub container: Arc<Container>,
    /// Shared HTTP client.
    pub client: Arc<HttpClient>,
    /// The deployed site.
    pub site: Site,
    /// Mapping-layer timing log (fed by the timed wrapper).
    pub mapping_log: Arc<TimingLog>,
    /// A bound Application instance.
    pub app: ApplicationStub,
    /// Guard for any generated file store.
    _dir: Option<DirGuard>,
}

impl Fixture {
    /// Bind to the execution with the given id via `getExecs`.
    pub fn execution(&self, attribute: &str, value: &str) -> Result<ExecutionStub, OgsiError> {
        let gshs = self.app.get_execs(attribute, value)?;
        let gsh = gshs
            .first()
            .ok_or_else(|| OgsiError::NotFound(format!("{attribute}={value}")))?;
        Ok(ExecutionStub::bind(Arc::clone(&self.client), gsh))
    }

    /// All execution handles.
    pub fn all_execs(&self) -> Result<Vec<Gsh>, OgsiError> {
        self.app.get_all_execs()
    }
}

/// Build the wrapper for one source kind at the given scale. The RDBMS
/// sources get the simulated server round-trip.
pub fn build_wrapper(
    kind: SourceKind,
    scale: &Scale,
) -> (Arc<dyn ApplicationWrapper>, Option<DirGuard>) {
    match kind {
        SourceKind::HplRdbms => {
            let store = HplStore::build(scale.hpl_spec.clone());
            store.database().set_query_latency(Some(DB_ROUND_TRIP));
            (Arc::new(HplSqlWrapper::new(store.database().clone())), None)
        }
        SourceKind::HplXml => {
            let dir = DirGuard::new("hplxml");
            let store = HplXmlStore::generate(dir.path(), &scale.hpl_spec).expect("generate xml");
            (Arc::new(HplXmlWrapper::new(store)), Some(dir))
        }
        SourceKind::RmaAscii => {
            let dir = DirGuard::new("rma");
            let store = RmaTextStore::generate(dir.path(), &scale.rma_spec).expect("generate rma");
            (Arc::new(RmaTextWrapper::new(store)), Some(dir))
        }
        SourceKind::RmaRdbms => {
            let dir = DirGuard::new("rmadb");
            let store = RmaTextStore::generate(dir.path(), &scale.rma_spec).expect("generate rma");
            let db = rma_to_database(&store).expect("import rma");
            db.set_query_latency(Some(DB_ROUND_TRIP));
            (Arc::new(RmaSqlWrapper::new(db)), Some(dir))
        }
        SourceKind::SmgRdbms => {
            let store = SmgStore::build(scale.smg_spec.clone());
            store.database().set_query_latency(Some(DB_ROUND_TRIP));
            (Arc::new(SmgSqlWrapper::new(store.database().clone())), None)
        }
    }
}

/// Deploy a single-source fixture with the given PR-cache setting.
pub fn deploy_fixture(kind: SourceKind, scale: &Scale, cache_enabled: bool) -> Fixture {
    let container =
        Container::start("127.0.0.1:0", ContainerConfig::default()).expect("start container");
    let client = Arc::new(HttpClient::new());
    let (wrapper, dir) = build_wrapper(kind, scale);
    let mapping_log = TimingLog::new();
    let timed: Arc<dyn ApplicationWrapper> = Arc::new(TimedApplicationWrapper::new(
        wrapper,
        Arc::clone(&mapping_log),
    ));
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        timed,
        &SiteConfig::new("src").with_cache(cache_enabled),
    )
    .expect("deploy site");
    let factory = FactoryStub::bind(Arc::clone(&client), &site.app_factory);
    let app_gsh = factory.create_service(&[]).expect("create application");
    let app = ApplicationStub::bind(Arc::clone(&client), &app_gsh);
    Fixture {
        container,
        client,
        site,
        mapping_log,
        app,
        _dir: dir,
    }
}

/// The representative `getPR` query for each source — chosen to reproduce
/// the thesis's Table 4 payload profile (~8 B, ~5.7 kB, ~hundreds of kB).
pub fn representative_query(kind: SourceKind) -> pperfgrid::PrQuery {
    use pperfgrid::{PrQuery, TYPE_UNDEFINED};
    match kind {
        SourceKind::HplRdbms | SourceKind::HplXml => PrQuery {
            metric: "gflops".into(),
            foci: vec!["/Execution".into()],
            start: String::new(),
            end: String::new(),
            rtype: TYPE_UNDEFINED.into(),
        },
        SourceKind::RmaAscii | SourceKind::RmaRdbms => PrQuery {
            metric: "bandwidth_mbps".into(),
            foci: vec!["/Op/unidir".into()],
            start: String::new(),
            end: String::new(),
            rtype: TYPE_UNDEFINED.into(),
        },
        SourceKind::SmgRdbms => PrQuery {
            metric: "event_intervals".into(),
            foci: vec!["/Code/MPI/MPI_Allgather".into()],
            start: String::new(),
            end: String::new(),
            rtype: TYPE_UNDEFINED.into(),
        },
    }
}

/// The execution each source's experiments query (first id).
pub fn first_exec(fixture: &Fixture, kind: SourceKind) -> ExecutionStub {
    let attr = match kind {
        SourceKind::HplRdbms | SourceKind::HplXml => ("runid", "100"),
        SourceKind::RmaAscii | SourceKind::RmaRdbms | SourceKind::SmgRdbms => ("execid", "0"),
    };
    fixture
        .execution(attr.0, attr.1)
        .expect("bind first execution")
}
