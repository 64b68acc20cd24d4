//! End-to-end call-context tests: deadline propagation over the wire,
//! cooperative cancellation of doomed site work, hedge-loser cancellation,
//! cross-site trace assembly, request-id survival through coalescing, the
//! planner's registry-snapshot cache, and lease-driven cache invalidation.

use pperf_gateway::{
    FederatedGateway, FederatedQuery, FederatedQueryService, FederatedQueryStub, GatewayConfig,
    SiteErrorKind,
};
use pperf_httpd::{HttpClient, Request};
use pperf_ogsi::{
    Container, ContainerConfig, Gsh, RegistryService, RegistryStub, ServiceEntry, OGSI_NS,
};
use pperf_soap::encode_call;
use pperfgrid::wrappers::{MemApplicationWrapper, MemExecution};
use pperfgrid::{ApplicationWrapper, ExecutionWrapper, PrQuery, Site, SiteConfig, WrapperError};
use ppg_context::CallContext;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_container() -> Arc<Container> {
    Container::start("127.0.0.1:0", ContainerConfig::default()).unwrap()
}

fn registry_on(container: &Container) -> Gsh {
    container
        .deploy_service("registry", Arc::new(RegistryService::new()))
        .unwrap()
}

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

fn publish(client: &Arc<HttpClient>, registry: &Gsh, org: &str, description: &str, site: &Site) {
    let stub = RegistryStub::bind(Arc::clone(client), registry);
    stub.register_organization(org, "test").unwrap();
    site.publish(&stub, org, description).unwrap();
}

/// Wraps a wrapper, counting `get_pr` calls that ran to *completion* — a
/// cancelled or deadline-aborted call never reaches the counter, which is
/// how these tests prove no work finishes after the budget is gone.
struct CompletionCountingWrapper {
    inner: MemApplicationWrapper,
    completed: Arc<AtomicUsize>,
}

struct CompletionCountingExec {
    inner: Arc<dyn ExecutionWrapper>,
    completed: Arc<AtomicUsize>,
}

impl ApplicationWrapper for CompletionCountingWrapper {
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
        Ok(Arc::new(CompletionCountingExec {
            inner: self.inner.execution(exec_id)?,
            completed: Arc::clone(&self.completed),
        }))
    }
}

impl ExecutionWrapper for CompletionCountingExec {
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
        let rows = self.inner.get_pr(query)?;
        self.completed.fetch_add(1, Ordering::SeqCst);
        Ok(rows)
    }
}

/// Poll `predicate` for up to `timeout`; cancel POSTs and handler aborts are
/// asynchronous, so counters are awaited rather than asserted immediately.
fn wait_for(timeout: Duration, mut predicate: impl FnMut() -> bool) -> bool {
    let give_up = Instant::now() + timeout;
    loop {
        if predicate() {
            return true;
        }
        if Instant::now() >= give_up {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The acceptance scenario: a 200 ms budget against one healthy and one
/// stalled site returns partial results within the budget, the stalled
/// site's handler observes the deadline/cancellation (no work completes),
/// and the trace spans every layer under one request id.
#[test]
fn stalled_site_yields_partial_results_within_budget_and_its_work_is_cancelled() {
    let client = Arc::new(HttpClient::new());
    let fast_host = start_container();
    let stalled_host = start_container();
    let registry = registry_on(&fast_host);

    let fast: Arc<dyn ApplicationWrapper> = Arc::new(mem_wrapper(1, 2, None));
    let fast_site = Site::deploy(
        &fast_host,
        Arc::clone(&client),
        fast,
        &SiteConfig::new("fast"),
    )
    .unwrap();
    let completed = Arc::new(AtomicUsize::new(0));
    // The stalled site's mapping layer "scans" for 10 s; its PR cache is off
    // so the completion counter sees every arrival.
    let stalled: Arc<dyn ApplicationWrapper> = Arc::new(CompletionCountingWrapper {
        inner: mem_wrapper(1, 1, Some(Duration::from_secs(10))),
        completed: Arc::clone(&completed),
    });
    let stalled_site = Site::deploy(
        &stalled_host,
        Arc::clone(&client),
        stalled,
        &SiteConfig::new("stall").with_cache(false),
    )
    .unwrap();
    publish(&client, &registry, "FAST", "healthy store", &fast_site);
    publish(&client, &registry, "STALL", "stalled store", &stalled_site);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default()
            .with_hedging(None)
            .with_retries(0, Duration::from_millis(5))
            .with_call_timeout(Duration::from_millis(200)),
    );
    let started = Instant::now();
    let result = gateway.query(&FederatedQuery::new("gflops", vec!["/Execution".into()]));
    let elapsed = started.elapsed();

    assert!(
        result.is_partial(),
        "rows {:?} errors {:?}",
        result.rows.len(),
        result.errors
    );
    assert_eq!(
        result.rows.iter().filter(|r| r.site == "FAST/fast").count(),
        1,
        "healthy site answered"
    );
    let stall_err = result
        .errors
        .iter()
        .find(|e| e.site == "STALL/stall")
        .expect("stalled site reported as a structured error");
    assert_eq!(stall_err.kind, SiteErrorKind::Timeout);
    assert!(
        elapsed < Duration::from_millis(600),
        "partial answer must arrive near the 200ms budget, took {elapsed:?}"
    );

    // The trace spans the gateway, the OGSI hops to the healthy site, and
    // its pperfgrid execution service — all under one request id.
    assert!(!result.request_id.is_empty());
    for layer in [
        "gateway",
        "ogsi.stub",
        "ogsi.container",
        "pperfgrid.execution",
    ] {
        assert!(
            result.trace.iter().any(|s| s.layer == layer),
            "no {layer} span in {:?}",
            result.trace
        );
    }
    assert!(
        stall_err.detail.contains(&result.request_id),
        "timeout detail names the request: {}",
        stall_err.detail
    );

    // The stalled site's handler observes the doom cooperatively: its
    // counters record a deadline/cancellation outcome, never a completion.
    assert!(
        wait_for(Duration::from_secs(3), || {
            let (_, deadline_exceeded, _, cancelled_calls) = stalled_host.context_counters();
            deadline_exceeded + cancelled_calls >= 1
        }),
        "stalled handler never observed the deadline: {:?}",
        stalled_host.context_counters()
    );
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        completed.load(Ordering::SeqCst),
        0,
        "no stalled-site work may complete after the deadline"
    );
    assert!(gateway.snapshot().deadline_exceeded >= 1);
}

/// A request whose budget is already spent when it reaches the container is
/// refused before any work starts, with a typed deadline fault.
#[test]
fn container_rejects_requests_arriving_past_their_deadline() {
    let client = Arc::new(HttpClient::new());
    let container = start_container();
    let registry = registry_on(&container);

    // A raw POST carrying an exhausted budget (0 ms remaining): the server
    // must fault without invoking the service.
    let mut url = registry.url();
    let mut request = Request::post(
        url.path.clone(),
        "text/xml; charset=utf-8",
        encode_call("findOrganizations", OGSI_NS, &[("pattern", "".into())]).into_bytes(),
    );
    request
        .headers
        .set(ppg_context::REQUEST_ID_HEADER, "wire-0001");
    request.headers.set(ppg_context::DEADLINE_MS_HEADER, "0");
    url.query = String::new();
    let response = client.send(&url, &request).unwrap();

    assert_eq!(response.status.0, 500);
    let body = response.body_str().into_owned();
    assert!(
        body.contains("arrived after its deadline"),
        "expected a deadline fault, got: {body}"
    );
    assert_eq!(
        response.headers.get(ppg_context::REQUEST_ID_HEADER),
        Some("wire-0001")
    );
    let trace = ppg_context::decode_trace(
        response
            .headers
            .get(ppg_context::TRACE_HEADER)
            .unwrap_or(""),
    );
    assert!(
        trace
            .iter()
            .any(|s| s.layer == "ogsi.container" && s.outcome == "deadline-exceeded"),
        "{trace:?}"
    );
    let (requests, deadline_exceeded, _, _) = container.context_counters();
    assert_eq!(requests, 1);
    assert_eq!(deadline_exceeded, 1);
}

/// When a hedge wins the race, the losing primary leg is cancelled at its
/// site: the cancel POST arrives, the handler aborts, and no work completes.
#[test]
fn losing_hedge_leg_is_cancelled_at_its_site() {
    let client = Arc::new(HttpClient::new());
    let slow_host = start_container();
    let fast_host = start_container();
    let registry = registry_on(&slow_host);

    let completed = Arc::new(AtomicUsize::new(0));
    let slow: Arc<dyn ApplicationWrapper> = Arc::new(CompletionCountingWrapper {
        inner: mem_wrapper(2, 1, Some(Duration::from_secs(10))),
        completed: Arc::clone(&completed),
    });
    let fast: Arc<dyn ApplicationWrapper> = Arc::new(mem_wrapper(2, 1, None));
    let site = Site::deploy_replicated(
        &slow_host,
        &[(&slow_host, slow), (&fast_host, fast)],
        Arc::clone(&client),
        &SiteConfig::new("repl").with_cache(false),
    )
    .unwrap();
    publish(&client, &registry, "REPL", "replicated store", &site);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default()
            .with_hedging(Some(Duration::from_millis(100)))
            .with_call_timeout(Duration::from_secs(10)),
    );
    let result = gateway.query(&FederatedQuery::new("gflops", vec!["/Execution".into()]));

    assert!(result.errors.is_empty(), "{:?}", result.errors);
    assert!(
        result.rows.iter().any(|r| r.hedged),
        "a hedge must win: {:?}",
        result.rows
    );
    let snapshot = gateway.snapshot();
    assert!(snapshot.hedge_wins >= 1);
    assert!(
        snapshot.hedges_cancelled >= 1,
        "the losing primary leg must be cancelled: {snapshot:?}"
    );
    // The slow host receives the cancel, its handler aborts mid-scan, and
    // the abandoned call never completes.
    assert!(
        wait_for(Duration::from_secs(3), || {
            let (_, _, cancels_received, cancelled_calls) = slow_host.context_counters();
            cancels_received >= 1 && cancelled_calls >= 1
        }),
        "slow host never observed the cancel: {:?}",
        slow_host.context_counters()
    );
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        completed.load(Ordering::SeqCst),
        0,
        "the cancelled leg's work must not run to completion"
    );
}

/// A three-site federation under one caller-chosen request id: every layer
/// contributes spans, remote spans precede the stub hop that awaited them,
/// and the gateway's own span closes the trace.
#[test]
fn trace_spans_three_sites_under_one_request_id() {
    let client = Arc::new(HttpClient::new());
    let containers: Vec<Arc<Container>> = (0..3).map(|_| start_container()).collect();
    let registry = registry_on(&containers[0]);
    for (i, container) in containers.iter().enumerate() {
        let mem: Arc<dyn ApplicationWrapper> = Arc::new(mem_wrapper(1, 1, None));
        let site = Site::deploy(
            container,
            Arc::clone(&client),
            mem,
            &SiteConfig::new(format!("s{i}")),
        )
        .unwrap();
        publish(&client, &registry, &format!("ORG{i}"), "store", &site);
    }

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default().with_hedging(None),
    );
    let ctx = CallContext::with_request_id("trace-0001");
    let result = gateway.query_with_context(
        &FederatedQuery::new("gflops", vec!["/Execution".into()]),
        &ctx,
    );

    assert!(result.errors.is_empty(), "{:?}", result.errors);
    assert_eq!(result.rows.len(), 3);
    assert_eq!(result.request_id, "trace-0001");

    let layers: Vec<&str> = result.trace.iter().map(|s| s.layer.as_str()).collect();
    assert_eq!(
        layers
            .iter()
            .filter(|l| **l == "pperfgrid.execution")
            .count(),
        3,
        "one execution-service span per site: {layers:?}"
    );
    assert_eq!(layers.iter().filter(|l| **l == "ogsi.stub").count(), 3);
    assert!(layers.iter().filter(|l| **l == "ogsi.container").count() >= 3);
    // Container spans name their authority (host:port); three distinct
    // containers means three distinct sites in the trace.
    let mut authorities: Vec<&str> = result
        .trace
        .iter()
        .filter(|s| s.layer == "ogsi.container")
        .map(|s| s.site.as_str())
        .collect();
    authorities.sort_unstable();
    authorities.dedup();
    assert_eq!(authorities.len(), 3, "{:?}", result.trace);
    // Ordering: the first remote span precedes the first stub span (the stub
    // merges the server's spans before recording its own), and the closing
    // gateway span is last.
    let first_container = layers.iter().position(|l| *l == "ogsi.container").unwrap();
    let first_stub = layers.iter().position(|l| *l == "ogsi.stub").unwrap();
    assert!(first_container < first_stub, "{layers:?}");
    let last = result.trace.last().unwrap();
    assert_eq!(
        (last.layer.as_str(), last.operation.as_str()),
        ("gateway", "federatedQuery")
    );
}

/// Concurrent identical queries coalesce onto one upstream call, but each
/// caller keeps its own request id; followers adopt the leader's spans and
/// record which request actually did the work.
#[test]
fn request_id_survives_coalescing() {
    let client = Arc::new(HttpClient::new());
    let container = start_container();
    let registry = registry_on(&container);

    let mem: Arc<dyn ApplicationWrapper> =
        Arc::new(mem_wrapper(1, 1, Some(Duration::from_millis(300))));
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        mem,
        &SiteConfig::new("mem").with_cache(false),
    )
    .unwrap();
    publish(&client, &registry, "MEM", "scripted store", &site);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(None)
            .with_call_timeout(Duration::from_secs(10)),
    );
    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);

    let results: Vec<_> = (0..4)
        .map(|i| {
            let gw = Arc::clone(&gateway);
            let q = query.clone();
            std::thread::spawn(move || {
                let ctx = CallContext::with_request_id(format!("rq-{i}"));
                gw.query_with_context(&q, &ctx)
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();

    for (i, result) in results.iter().enumerate() {
        assert!(result.errors.is_empty(), "{:?}", result.errors);
        assert_eq!(
            result.request_id,
            format!("rq-{i}"),
            "coalescing must not swap request ids"
        );
    }
    assert!(
        gateway.snapshot().coalesced >= 1,
        "queries never overlapped"
    );
    // Followers record the coalescing and adopt the leader's remote spans.
    let followers: Vec<_> = results
        .iter()
        .filter(|r| {
            r.trace
                .iter()
                .any(|s| s.layer == "gateway.coalesce" && s.outcome.starts_with("leader:"))
        })
        .collect();
    assert!(!followers.is_empty());
    for follower in &followers {
        let leader = follower
            .trace
            .iter()
            .find(|s| s.layer == "gateway.coalesce")
            .and_then(|s| s.outcome.strip_prefix("leader:"))
            .unwrap()
            .to_owned();
        assert_ne!(leader, follower.request_id);
        assert!(
            follower
                .trace
                .iter()
                .any(|s| s.layer == "pperfgrid.execution"),
            "follower adopted the leader's remote spans: {:?}",
            follower.trace
        );
    }
}

/// The planner's registry-snapshot cache: back-to-back queries reuse one
/// snapshot (skipping both registry wire calls), the TTL and explicit
/// invalidation force refreshes, and zero TTL disables the cache.
#[test]
fn planner_snapshot_cache_skips_registry_calls() {
    let client = Arc::new(HttpClient::new());
    let container = start_container();
    let registry = registry_on(&container);
    let mem: Arc<dyn ApplicationWrapper> = Arc::new(mem_wrapper(1, 1, None));
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        mem,
        &SiteConfig::new("mem"),
    )
    .unwrap();
    publish(&client, &registry, "MEM", "scripted store", &site);
    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);

    let cached = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default()
            .with_hedging(None)
            .with_plan_cache(Duration::from_secs(10)),
    );
    cached.query(&query);
    cached.query(&query);
    let (hits, refreshes) = cached.planner().snapshot_stats();
    assert_eq!((hits, refreshes), (1, 1), "second plan reuses the snapshot");
    cached.planner().invalidate_snapshot();
    cached.query(&query);
    assert_eq!(cached.planner().snapshot_stats().1, 2);
    let snapshot = cached.snapshot();
    assert_eq!(snapshot.plan_snapshot_hits, 1);
    assert_eq!(snapshot.plan_snapshot_refreshes, 2);

    let uncached = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default()
            .with_hedging(None)
            .with_plan_cache(Duration::ZERO),
    );
    uncached.query(&query);
    uncached.query(&query);
    assert_eq!(
        uncached.planner().snapshot_stats(),
        (0, 2),
        "zero TTL disables the snapshot cache"
    );
}

/// A site registered under a soft-state lease that lapses without renewal is
/// invalidated on the next fresh snapshot: its cached results and binding
/// are dropped and the invalidation is counted.
#[test]
fn lapsed_registry_lease_invalidates_the_sites_cache() {
    let client = Arc::new(HttpClient::new());
    let container = start_container();
    let registry = registry_on(&container);
    let mem: Arc<dyn ApplicationWrapper> = Arc::new(mem_wrapper(1, 2, None));
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        mem,
        &SiteConfig::new("mem"),
    )
    .unwrap();
    let stub = RegistryStub::bind(Arc::clone(&client), &registry);
    stub.register_organization("MEM", "test").unwrap();
    let entry = ServiceEntry {
        organization: "MEM".to_owned(),
        name: "mem".to_owned(),
        description: "leased store".to_owned(),
        factory_url: site.app_factory.as_str().to_owned(),
    };
    stub.register_service_with_ttl(&entry, 1).unwrap();

    // Fresh snapshots every plan, so the lease lapse is seen promptly.
    // Push notifications stay off: this test pins the TTL lease-diff
    // detection path, which otherwise races the registry's `expire` push
    // event for the same withdrawal (the push path is covered in
    // tests/notify.rs).
    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default()
            .with_hedging(None)
            .with_plan_cache(Duration::ZERO)
            .with_notifications(false),
    );
    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);
    let first = gateway.query(&query);
    assert_eq!(first.rows.len(), 1, "{:?}", first.errors);
    let second = gateway.query(&query);
    assert!(second.rows.iter().all(|r| r.from_cache));
    assert_eq!(gateway.snapshot().lease_invalidations, 0);

    // Let the lease lapse without renewal.
    std::thread::sleep(Duration::from_millis(1200));
    let lapsed = gateway.query(&query);
    assert_eq!(lapsed.sites_total, 0, "{lapsed:?}");
    assert_eq!(
        gateway.snapshot().lease_invalidations,
        1,
        "the lapsed site's cache entries must be dropped"
    );

    // Republishing brings the site back; its query plans and answers again.
    stub.register_service_with_ttl(&entry, 600).unwrap();
    let back = gateway.query(&query);
    assert_eq!(back.rows.len(), 1, "{:?}", back.errors);
}

/// `GET /metrics` exposes the container's context counters and the gateway
/// service's counters (including the deadline/cancel ones) as a scrapeable
/// text document; the wire answer carries the request id and trace.
#[test]
fn metrics_endpoint_exposes_context_and_gateway_counters() {
    let client = Arc::new(HttpClient::new());
    let container = start_container();
    let registry = registry_on(&container);
    let mem: Arc<dyn ApplicationWrapper> = Arc::new(mem_wrapper(1, 1, None));
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        mem,
        &SiteConfig::new("mem"),
    )
    .unwrap();
    publish(&client, &registry, "MEM", "scripted store", &site);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default().with_hedging(None),
    );
    let gateway_gsh =
        FederatedQueryService::deploy(Arc::clone(&gateway), &container, "federated-query").unwrap();
    let stub = FederatedQueryStub::bind(Arc::clone(&client), &gateway_gsh);
    let ctx = CallContext::with_budget(Duration::from_secs(10));
    let answer = stub
        .query_with_context(
            &FederatedQuery::new("gflops", vec!["/Execution".into()]),
            &ctx,
        )
        .unwrap();
    assert_eq!(answer.rows.len(), 1);
    assert_eq!(answer.request_id, ctx.request_id());
    assert!(
        answer.trace.iter().any(|s| s.layer == "gateway"),
        "wire answer carries the gateway trace: {:?}",
        answer.trace
    );

    let mut url = registry.url();
    url.path = "/metrics".to_owned();
    url.query = String::new();
    let response = client.send(&url, &Request::get("/metrics")).unwrap();
    assert_eq!(response.status.0, 200);
    let body = response.body_str().into_owned();
    for needle in [
        "ppg_requests_total ",
        "ppg_deadline_exceeded_total ",
        "ppg_cancels_received_total ",
        "ppg_cancelled_calls_total ",
        "name=\"queries\"} 1",
        "name=\"deadlineExceeded\"}",
        "name=\"hedgesCancelled\"}",
        "name=\"leaseInvalidations\"}",
        "name=\"planSnapshotRefreshes\"}",
    ] {
        assert!(body.contains(needle), "missing {needle:?} in:\n{body}");
    }
    assert!(
        body.contains("path=\"/ogsa/services/federated-query\""),
        "{body}"
    );
}

/// Leg rule 1, fail-fast: a primary that fails outright fires its hedge at
/// once instead of waiting out `hedge_after`.
#[test]
fn failed_primary_fires_its_hedge_at_once() {
    let client = Arc::new(HttpClient::new());
    let home = start_container();
    let replica_host = start_container();
    let registry = registry_on(&home);
    let here: Arc<dyn ApplicationWrapper> = Arc::new(mem_wrapper(2, 1, None));
    let there: Arc<dyn ApplicationWrapper> = Arc::new(mem_wrapper(2, 1, None));
    let site = Site::deploy_replicated(
        &home,
        &[(&home, here), (&replica_host, there)],
        Arc::clone(&client),
        &SiteConfig::new("repl").with_cache(false),
    )
    .unwrap();
    publish(&client, &registry, "REPL", "replicated store", &site);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(Some(Duration::from_secs(5)))
            .with_plan_cache(Duration::from_secs(60))
            .with_call_timeout(Duration::from_secs(10)),
    );
    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);
    // Warm the plan: both primaries and their hedges are remembered.
    let warm = gateway.query(&query);
    assert!(warm.errors.is_empty(), "{:?}", warm.errors);
    assert_eq!(warm.rows.len(), 2);
    assert_eq!(gateway.snapshot().hedges_fired, 0);

    // Round-robin placement put one primary on the replica host; take that
    // host down. Its primary fails outright, and its hedge (on `home`)
    // must answer long before the 5 s hedge delay.
    replica_host.shutdown();
    let result = gateway.query(&query);
    assert!(result.errors.is_empty(), "{:?}", result.errors);
    assert_eq!(result.rows.len(), 2);
    assert_eq!(
        result.rows.iter().filter(|r| r.hedged).count(),
        1,
        "the dead host's slot is answered by its hedge: {:?}",
        result.rows
    );
    assert!(
        result.elapsed < Duration::from_secs(2),
        "the hedge must fire as soon as the primary fails, took {:?}",
        result.elapsed
    );
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.hedges_fired, 1);
    assert_eq!(snapshot.hedge_wins, 1);
}

/// Leg rule 3's exception: hedges that win for every entry of a shared
/// framed call leave that call running — cancelling it would cancel its
/// siblings. Under `PPG_FORCE_XML=1` each primary rides its own call, so
/// each losing primary is cancelled instead.
#[test]
fn hedge_wins_do_not_cancel_a_shared_primary() {
    let client = Arc::new(HttpClient::new());
    let slow_host = start_container();
    let fast_host = start_container();
    let registry = registry_on(&slow_host);
    let completed = Arc::new(AtomicUsize::new(0));
    let slow: Arc<dyn ApplicationWrapper> = Arc::new(CompletionCountingWrapper {
        inner: mem_wrapper(4, 1, Some(Duration::from_millis(1500))),
        completed: Arc::clone(&completed),
    });
    let fast: Arc<dyn ApplicationWrapper> = Arc::new(mem_wrapper(4, 1, None));
    let site = Site::deploy_replicated(
        &slow_host,
        &[(&slow_host, slow), (&fast_host, fast)],
        Arc::clone(&client),
        &SiteConfig::new("repl").with_cache(false),
    )
    .unwrap();
    publish(&client, &registry, "REPL", "replicated store", &site);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(Some(Duration::from_millis(100)))
            .with_call_timeout(Duration::from_secs(10)),
    );
    let result = gateway.query(&FederatedQuery::new("gflops", vec!["/Execution".into()]));
    let cancels_at_return = slow_host.context_counters().2;

    assert!(result.errors.is_empty(), "{:?}", result.errors);
    assert_eq!(result.rows.len(), 4);
    assert_eq!(
        result.rows.iter().filter(|r| r.hedged).count(),
        2,
        "both slow-host slots are answered by their hedges: {:?}",
        result.rows
    );
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.hedge_wins, 2);
    let (framed_calls, framed_entries, ..) = slow_host.batch_stream_counters();
    if framed_calls > 0 {
        assert_eq!(
            (framed_calls, framed_entries),
            (1, 2),
            "the slow host's two entries share one framed call"
        );
        assert_eq!(cancels_at_return, 0);
        assert_eq!(snapshot.hedges_cancelled, 0, "{snapshot:?}");
        // A cancel POST is fire-and-forget: give a stray one time to land.
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(
            slow_host.context_counters().2,
            0,
            "the shared primary must be left to finish"
        );
    } else {
        assert_eq!(snapshot.hedges_cancelled, 2, "{snapshot:?}");
    }
}

/// Leg rule 5: two entries sharing one stalled framed call both come back
/// `Timeout`; the stalled host is cancelled at most once for the call (once
/// per per-call leg under `PPG_FORCE_XML=1`) and completes no work.
#[test]
fn shared_stalled_call_times_out_with_at_most_one_cancel() {
    let client = Arc::new(HttpClient::new());
    let stalled_host = start_container();
    let registry = registry_on(&stalled_host);
    let completed = Arc::new(AtomicUsize::new(0));
    let stalled: Arc<dyn ApplicationWrapper> = Arc::new(CompletionCountingWrapper {
        inner: mem_wrapper(2, 1, Some(Duration::from_secs(10))),
        completed: Arc::clone(&completed),
    });
    let site = Site::deploy(
        &stalled_host,
        Arc::clone(&client),
        stalled,
        &SiteConfig::new("stall").with_cache(false),
    )
    .unwrap();
    publish(&client, &registry, "STALL", "stalled store", &site);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default()
            .with_hedging(None)
            .with_retries(0, Duration::from_millis(5))
            .with_call_timeout(Duration::from_millis(400)),
    );
    let started = Instant::now();
    let result = gateway.query(&FederatedQuery::new("gflops", vec!["/Execution".into()]));
    let elapsed = started.elapsed();

    assert!(result.rows.is_empty(), "{:?}", result.rows);
    assert_eq!(result.errors.len(), 1, "{:?}", result.errors);
    assert_eq!(result.errors[0].kind, SiteErrorKind::Timeout);
    assert!(
        elapsed < Duration::from_millis(1000),
        "both slots must give up near the 400 ms budget, took {elapsed:?}"
    );
    let (framed_calls, framed_entries, ..) = stalled_host.batch_stream_counters();
    let legs = if framed_calls > 0 {
        assert_eq!((framed_calls, framed_entries), (1, 2));
        1
    } else {
        2
    };
    assert!(
        wait_for(Duration::from_secs(3), || {
            let (_, deadline_exceeded, _, cancelled_calls) = stalled_host.context_counters();
            deadline_exceeded + cancelled_calls >= 1
        }),
        "stalled handler never observed the deadline: {:?}",
        stalled_host.context_counters()
    );
    std::thread::sleep(Duration::from_millis(200));
    let cancels = stalled_host.context_counters().2;
    assert!(cancels <= legs, "{cancels} cancels for {legs} leg(s)");
    assert_eq!(
        completed.load(Ordering::SeqCst),
        0,
        "no stalled work may complete"
    );
}

/// A single-flight follower never holds a gateway worker. With the default
/// eight workers, one leader parked on a stalled site plus seven
/// short-budget identical queries coalesced behind it must leave a worker
/// for a query to a healthy site, which answers within its budget.
#[test]
fn coalesced_followers_do_not_hold_workers() {
    let client = Arc::new(HttpClient::new());
    let healthy_host = start_container();
    let stalled_host = start_container();
    let registry = registry_on(&healthy_host);
    let healthy: Arc<dyn ApplicationWrapper> = Arc::new(mem_wrapper(1, 1, None));
    let healthy_site = Site::deploy(
        &healthy_host,
        Arc::clone(&client),
        healthy,
        &SiteConfig::new("healthy"),
    )
    .unwrap();
    let stalled: Arc<dyn ApplicationWrapper> =
        Arc::new(mem_wrapper(1, 1, Some(Duration::from_secs(10))));
    let stalled_site = Site::deploy(
        &stalled_host,
        Arc::clone(&client),
        stalled,
        &SiteConfig::new("stalled").with_cache(false),
    )
    .unwrap();
    publish(
        &client,
        &registry,
        "HEALTHY",
        "healthy store",
        &healthy_site,
    );
    publish(&client, &registry, "STALL", "stalled store", &stalled_site);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(None)
            .with_retries(0, Duration::from_millis(5))
            .with_plan_cache(Duration::from_secs(60)),
    );
    let stalled_query = FederatedQuery::new("gflops", vec!["/Execution".into()]).sites("STALL");
    let run = |budget: Duration| {
        let gateway = Arc::clone(&gateway);
        let query = stalled_query.clone();
        std::thread::spawn(move || {
            gateway.query_with_context(&query, &CallContext::with_budget(budget))
        })
    };
    // The leader parks on the stalled site for its whole 2.5 s budget.
    let leader = run(Duration::from_millis(2500));
    assert!(
        wait_for(Duration::from_secs(2), || gateway.snapshot().in_flight >= 1),
        "the leader never went upstream"
    );
    std::thread::sleep(Duration::from_millis(50));
    let followers: Vec<_> = (0..7).map(|_| run(Duration::from_millis(300))).collect();
    assert!(
        wait_for(Duration::from_secs(2), || gateway.snapshot().coalesced >= 7),
        "the followers never coalesced: {:?}",
        gateway.snapshot()
    );
    for follower in followers {
        let result = follower.join().unwrap();
        assert!(result.rows.is_empty());
        assert_eq!(result.errors[0].kind, SiteErrorKind::Timeout);
    }

    let budget = Duration::from_millis(800);
    let started = Instant::now();
    let result = gateway.query_with_context(
        &FederatedQuery::new("gflops", vec!["/Execution".into()]).sites("HEALTHY"),
        &CallContext::with_budget(budget),
    );
    let elapsed = started.elapsed();
    assert!(
        result.errors.is_empty(),
        "the healthy site must answer while the leader is parked: {:?}",
        result.errors
    );
    assert_eq!(result.rows.len(), 1);
    assert!(elapsed < budget, "took {elapsed:?}");
    assert!(leader.join().unwrap().rows.is_empty());
}
