//! End-to-end federation tests: heterogeneous sites, graceful degradation
//! when a site dies mid-query, single-flight coalescing under a query storm,
//! hedged replicas, and the OGSI wire service.

use pperf_datastore::{HplSpec, HplStore};
use pperf_gateway::{
    FederatedGateway, FederatedQuery, FederatedQueryService, FederatedQueryStub, GatewayConfig,
    SiteErrorKind,
};
use pperf_httpd::HttpClient;
use pperf_ogsi::{Container, ContainerConfig, GridServiceStub, Gsh, RegistryService, RegistryStub};
use pperfgrid::wrappers::{HplSqlWrapper, MemApplicationWrapper, MemExecution};
use pperfgrid::{ApplicationWrapper, ExecutionWrapper, PrQuery, Site, SiteConfig, WrapperError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn start_container() -> Arc<Container> {
    Container::start("127.0.0.1:0", ContainerConfig::default()).unwrap()
}

fn registry_on(container: &Container) -> Gsh {
    container
        .deploy_service("registry", Arc::new(RegistryService::new()))
        .unwrap()
}

/// A scripted in-memory site exposing `gflops` for `/Execution`, so it can
/// join a federation with the (relational) HPL site on the same metric.
fn mem_wrapper(
    execs: usize,
    rows_per_exec: usize,
    delay: Option<Duration>,
) -> MemApplicationWrapper {
    let app = MemApplicationWrapper::new(vec![("name", "MemApp")]);
    for i in 0..execs {
        let mut exec = MemExecution {
            info: vec![("runid".into(), i.to_string())],
            foci: vec!["/Execution".into()],
            metrics: vec!["gflops".into()],
            types: vec!["MEM".into()],
            time: ("0".into(), "10".into()),
            query_delay: delay,
            ..Default::default()
        };
        exec.results.insert(
            ("gflops".into(), "/Execution".into()),
            (0..rows_per_exec)
                .map(|r| format!("gflops|{i}.{r}"))
                .collect(),
        );
        app.add_execution(format!("mem-{i}"), exec);
    }
    app
}

fn publish(
    client: &Arc<HttpClient>,
    registry: &Gsh,
    org: &str,
    name_desc: (&str, &str),
    site: &Site,
) {
    let stub = RegistryStub::bind(Arc::clone(client), registry);
    stub.register_organization(org, "test").unwrap();
    site.publish(&stub, org, name_desc.1).unwrap();
    let _ = name_desc.0;
}

#[test]
fn federates_heterogeneous_sites_and_caches_repeats() {
    let client = Arc::new(HttpClient::new());
    let c1 = start_container();
    let c2 = start_container();
    let registry = registry_on(&c1);

    // Site A: relational HPL store. Site B: scripted in-memory store.
    let hpl = HplStore::build(HplSpec::tiny());
    let hpl_wrapper: Arc<dyn ApplicationWrapper> =
        Arc::new(HplSqlWrapper::new(hpl.database().clone()));
    let hpl_site = Site::deploy(
        &c1,
        Arc::clone(&client),
        hpl_wrapper,
        &SiteConfig::new("hpl"),
    )
    .unwrap();
    let mem: Arc<dyn ApplicationWrapper> = Arc::new(mem_wrapper(2, 3, None));
    let mem_site = Site::deploy(&c2, Arc::clone(&client), mem, &SiteConfig::new("mem")).unwrap();
    publish(
        &client,
        &registry,
        "PSU",
        ("HPL", "Linpack (RDBMS)"),
        &hpl_site,
    );
    publish(
        &client,
        &registry,
        "MEM",
        ("mem", "scripted store"),
        &mem_site,
    );

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default().with_call_timeout(Duration::from_secs(10)),
    );
    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);

    let first = gateway.query(&query);
    assert!(first.errors.is_empty(), "{:?}", first.errors);
    assert_eq!(first.sites_total, 2);
    assert_eq!(
        first.sites_answered(),
        2,
        "both backends answered: {:?}",
        first.rows
    );
    // 8 tiny-HPL executions + 2 scripted ones, one result set each.
    assert_eq!(first.rows.len(), 10);
    assert!(first.total_rows() >= 8 + 2 * 3);
    // Both sites advertise the framed route, so the 10 targets collapse
    // into one framed call per site — unless the operational PPG_FORCE_XML
    // pin sends every target per-call over SOAP/XML (ci.sh runs this suite
    // both ways).
    assert!(first.rows.iter().all(|r| !r.from_cache));
    let snapshot = gateway.snapshot();
    if pperf_soap::force_xml() {
        assert_eq!(first.upstream_calls, 10);
        assert_eq!(snapshot.xml_calls, 10);
        assert_eq!(snapshot.batch_streams, 0, "the pin never frames");
    } else {
        assert_eq!(first.upstream_calls, 2);
        assert_eq!(snapshot.batch_streams, 2);
        assert_eq!(snapshot.batch_stream_entries, 10);
        assert_eq!(snapshot.xml_calls, 0, "nothing fell back to per-call");
    }

    // The identical query again: answered wholly from the gateway cache.
    let second = gateway.query(&query);
    assert!(second.errors.is_empty());
    assert_eq!(second.rows.len(), 10);
    assert_eq!(second.upstream_calls, 0, "repeat served from cache");
    assert!(second.rows.iter().all(|r| r.from_cache));
    assert_eq!(second.total_rows(), first.total_rows());

    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.queries, 2);
    assert!(snapshot.cache_hits >= 10);
    assert!(snapshot.cache_hit_rate > 0.0);
    assert_eq!(snapshot.per_site.len(), 2);

    // A selector narrows the fan-out (mem-1 only).
    let narrowed = gateway.query(&query.clone().matching("runid", "1").sites("MEM"));
    assert!(narrowed.errors.is_empty());
    assert_eq!(narrowed.sites_total, 1);
    assert_eq!(narrowed.rows.len(), 1);
}

#[test]
fn site_stopped_mid_query_yields_partial_result() {
    let client = Arc::new(HttpClient::new());
    let c1 = start_container();
    let c2 = start_container();
    let registry = registry_on(&c1);

    let hpl = HplStore::build(HplSpec::tiny());
    let hpl_wrapper: Arc<dyn ApplicationWrapper> =
        Arc::new(HplSqlWrapper::new(hpl.database().clone()));
    let hpl_site = Site::deploy(
        &c1,
        Arc::clone(&client),
        hpl_wrapper,
        &SiteConfig::new("hpl"),
    )
    .unwrap();
    // The doomed site answers slowly, so its targets straddle the shutdown.
    let slow: Arc<dyn ApplicationWrapper> =
        Arc::new(mem_wrapper(3, 1, Some(Duration::from_millis(250))));
    // Per-call SOAP/XML: the point here is calls *straddling* the shutdown,
    // which a single framed exchange wouldn't.
    let slow_config = SiteConfig::new("slow").with_framed_advertised(false);
    let slow_site = Site::deploy(&c2, Arc::clone(&client), slow, &slow_config).unwrap();
    publish(
        &client,
        &registry,
        "PSU",
        ("HPL", "Linpack (RDBMS)"),
        &hpl_site,
    );
    publish(
        &client,
        &registry,
        "DOOMED",
        ("slow", "slow store"),
        &slow_site,
    );

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(None)
            .with_retries(0, Duration::from_millis(5))
            .with_per_site_concurrency(1)
            .with_call_timeout(Duration::from_secs(10)),
    );
    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);

    // Scatter in the background, then stop the slow site's container while
    // its calls are in flight.
    let gw = Arc::clone(&gateway);
    let q = query.clone();
    let handle = std::thread::spawn(move || gw.query(&q));
    std::thread::sleep(Duration::from_millis(100));
    c2.shutdown();
    let result = handle.join().unwrap();

    assert!(
        result.is_partial(),
        "rows {:?} errors {:?}",
        result.rows.len(),
        result.errors
    );
    // Every surviving site's rows are intact...
    assert_eq!(
        result.rows.iter().filter(|r| r.site == "PSU/hpl").count(),
        8,
        "surviving site answered in full; errors: {:?}",
        result.errors
    );
    // ...and the dead site became a structured error, not a query failure.
    let dead: Vec<_> = result
        .errors
        .iter()
        .filter(|e| e.site == "DOOMED/slow")
        .collect();
    assert_eq!(
        dead.len(),
        1,
        "one structured error for the dead site: {:?}",
        result.errors
    );
    assert!(
        matches!(
            dead[0].kind,
            SiteErrorKind::Unreachable | SiteErrorKind::Timeout
        ),
        "kind: {:?}",
        dead[0].kind
    );

    // A later query finds the site unplannable but still answers from the
    // survivors (the stale cached binding is retired).
    let after = gateway.query(&query);
    assert!(after.is_partial());
    assert_eq!(
        after.rows.iter().filter(|r| r.site == "PSU/hpl").count(),
        8,
        "errors: {:?}",
        after.errors
    );
    assert!(after
        .errors
        .iter()
        .any(|e| e.site == "DOOMED/slow" && e.kind == SiteErrorKind::Planning));
}

/// Wraps a wrapper, counting upstream `get_pr` arrivals at the data layer.
struct CountingWrapper {
    inner: MemApplicationWrapper,
    get_pr_calls: Arc<AtomicUsize>,
}

struct CountingExec {
    inner: Arc<dyn ExecutionWrapper>,
    get_pr_calls: Arc<AtomicUsize>,
}

impl ApplicationWrapper for CountingWrapper {
    fn app_info(&self) -> Vec<(String, String)> {
        self.inner.app_info()
    }
    fn num_execs(&self) -> usize {
        self.inner.num_execs()
    }
    fn exec_query_params(&self) -> Vec<(String, Vec<String>)> {
        self.inner.exec_query_params()
    }
    fn all_exec_ids(&self) -> Vec<String> {
        self.inner.all_exec_ids()
    }
    fn exec_ids_matching(&self, attribute: &str, value: &str) -> Result<Vec<String>, WrapperError> {
        self.inner.exec_ids_matching(attribute, value)
    }
    fn execution(&self, exec_id: &str) -> Result<Arc<dyn ExecutionWrapper>, WrapperError> {
        Ok(Arc::new(CountingExec {
            inner: self.inner.execution(exec_id)?,
            get_pr_calls: Arc::clone(&self.get_pr_calls),
        }))
    }
}

impl ExecutionWrapper for CountingExec {
    fn info(&self) -> Vec<(String, String)> {
        self.inner.info()
    }
    fn foci(&self) -> Vec<String> {
        self.inner.foci()
    }
    fn metrics(&self) -> Vec<String> {
        self.inner.metrics()
    }
    fn types(&self) -> Vec<String> {
        self.inner.types()
    }
    fn time_start_end(&self) -> (String, String) {
        self.inner.time_start_end()
    }
    fn get_pr(&self, query: &PrQuery) -> Result<Vec<String>, WrapperError> {
        self.get_pr_calls.fetch_add(1, Ordering::SeqCst);
        self.inner.get_pr(query)
    }
}

#[test]
fn identical_concurrent_queries_coalesce_to_one_upstream_call() {
    let client = Arc::new(HttpClient::new());
    let container = start_container();
    let registry = registry_on(&container);

    let get_pr_calls = Arc::new(AtomicUsize::new(0));
    // One slow execution; the site's own PR cache is OFF so every upstream
    // getPR reaches the counter.
    let counting: Arc<dyn ApplicationWrapper> = Arc::new(CountingWrapper {
        inner: mem_wrapper(1, 2, Some(Duration::from_millis(300))),
        get_pr_calls: Arc::clone(&get_pr_calls),
    });
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        counting,
        &SiteConfig::new("mem").with_cache(false),
    )
    .unwrap();
    publish(&client, &registry, "MEM", ("mem", "counting store"), &site);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default().with_call_timeout(Duration::from_secs(10)),
    );
    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);

    let queries = 6;
    let results: Vec<_> = (0..queries)
        .map(|_| {
            let gw = Arc::clone(&gateway);
            let q = query.clone();
            std::thread::spawn(move || gw.query(&q))
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();

    for result in &results {
        assert!(result.errors.is_empty(), "{:?}", result.errors);
        assert_eq!(result.total_rows(), 2);
    }
    assert_eq!(
        get_pr_calls.load(Ordering::SeqCst),
        1,
        "{queries} identical concurrent queries must share one upstream getPR"
    );
    let snapshot = gateway.snapshot();
    assert!(
        snapshot.coalesced + snapshot.cache_hits >= (queries - 1) as u64,
        "coalesced {} cache_hits {}",
        snapshot.coalesced,
        snapshot.cache_hits
    );
}

#[test]
fn hedged_replica_answers_for_a_slow_primary() {
    let client = Arc::new(HttpClient::new());
    let slow_host = start_container();
    let fast_host = start_container();
    let registry = registry_on(&slow_host);

    // Same logical data replicated on two hosts; the first replica's
    // mapping layer is pathologically slow.
    let slow: Arc<dyn ApplicationWrapper> =
        Arc::new(mem_wrapper(2, 1, Some(Duration::from_millis(800))));
    let fast: Arc<dyn ApplicationWrapper> = Arc::new(mem_wrapper(2, 1, None));
    let site = Site::deploy_replicated(
        &slow_host,
        &[(&slow_host, slow), (&fast_host, fast)],
        Arc::clone(&client),
        &SiteConfig::new("repl"),
    )
    .unwrap();
    publish(
        &client,
        &registry,
        "REPL",
        ("repl", "replicated store"),
        &site,
    );

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default()
            .with_hedging(Some(Duration::from_millis(100)))
            .with_call_timeout(Duration::from_secs(10)),
    );
    let result = gateway.query(&FederatedQuery::new("gflops", vec!["/Execution".into()]));

    assert!(result.errors.is_empty(), "{:?}", result.errors);
    assert_eq!(result.rows.len(), 2);
    // Round-robin placement puts one primary on the slow host; its hedge on
    // the fast host must win the race.
    assert!(
        result.rows.iter().any(|r| r.hedged),
        "no hedge won: {:?}",
        result.rows
    );
    assert!(
        result.elapsed < Duration::from_millis(700),
        "hedging should beat the 800ms primary, took {:?}",
        result.elapsed
    );
    let snapshot = gateway.snapshot();
    assert!(snapshot.hedges_fired >= 1);
    assert!(snapshot.hedge_wins >= 1);
}

#[test]
fn gateway_grid_service_answers_over_the_wire() {
    let client = Arc::new(HttpClient::new());
    let container = start_container();
    let registry = registry_on(&container);

    let mem: Arc<dyn ApplicationWrapper> = Arc::new(mem_wrapper(2, 2, None));
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        mem,
        &SiteConfig::new("mem"),
    )
    .unwrap();
    publish(&client, &registry, "MEM", ("mem", "scripted store"), &site);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default(),
    );
    let gateway_gsh =
        FederatedQueryService::deploy(Arc::clone(&gateway), &container, "federated-query").unwrap();

    let stub = FederatedQueryStub::bind(Arc::clone(&client), &gateway_gsh);
    let answer = stub
        .query(&FederatedQuery::new("gflops", vec!["/Execution".into()]))
        .unwrap();
    assert_eq!(answer.sites_total, 1);
    assert_eq!(answer.rows.len(), 4, "{:?}", answer.rows);
    assert!(answer.errors.is_empty());
    assert!(answer
        .rows
        .iter()
        .all(|(site, _, row)| site == "MEM/mem" && row.contains("gflops|")));

    // Selector over the wire: only runid 0.
    let narrowed = stub
        .query(&FederatedQuery::new("gflops", vec!["/Execution".into()]).matching("runid", "0"))
        .unwrap();
    assert_eq!(narrowed.rows.len(), 2);

    // The gateway publishes its counters as service data.
    let gs = GridServiceStub::bind(Arc::clone(&client), &gateway_gsh);
    let queries = gs.find_service_data("queries").unwrap();
    assert!(queries.as_int().unwrap() >= 2);
    let per_site = gs.find_service_data("perSiteLatency").unwrap();
    let per_site = per_site.as_str_array().unwrap();
    assert!(
        per_site.iter().any(|row| row.starts_with("MEM/mem|")),
        "{per_site:?}"
    );
    let hit_rate = gs.find_service_data("cacheHitRate").unwrap();
    assert!(hit_rate.as_double().is_some() || hit_rate.as_int().is_some());
}
