//! Semantic segment cache, end to end: range subsumption over real wire
//! calls, narrowed fetches on partial overlap, warm restarts from the PPGB
//! spill directory, corrupt-spill resilience, and a concurrent
//! query/invalidation stress run.

use pperf_gateway::{FederatedGateway, FederatedQuery, GatewayConfig};
use pperf_httpd::HttpClient;
use pperf_ogsi::{Container, ContainerConfig, Gsh, RegistryService, RegistryStub};
use pperfgrid::wrappers::{MemApplicationWrapper, MemExecution};
use pperfgrid::{ApplicationWrapper, ExecutionWrapper, PrQuery, Site, SiteConfig, WrapperError};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn start_container() -> Arc<Container> {
    Container::start("127.0.0.1:0", ContainerConfig::default()).unwrap()
}

fn registry_on(container: &Container) -> Gsh {
    container
        .deploy_service("registry", Arc::new(RegistryService::new()))
        .unwrap()
}

fn publish(client: &Arc<HttpClient>, registry: &Gsh, org: &str, site: &Site) {
    let stub = RegistryStub::bind(Arc::clone(client), registry);
    stub.register_organization(org, "test").unwrap();
    site.publish(&stub, org, "segment-cache test site").unwrap();
}

/// A scripted site whose rows carry `t=` interval markers: one row per unit
/// interval `[t, t+1]` for `t` in `0..10`, per execution. Interval-shaped
/// rows make segments *filterable*, which is what range subsumption needs.
fn spanned_wrapper(execs: usize, delay: Option<Duration>) -> MemApplicationWrapper {
    let app = MemApplicationWrapper::new(vec![("name", "SpanApp")]);
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
            (0..10)
                .map(|t| format!("gflops|t={t}:{}|{i}.{t}", t + 1))
                .collect(),
        );
        app.add_execution(format!("mem-{i}"), exec);
    }
    app
}

/// Rows of `spanned_wrapper` whose `[t, t+1]` span intersects `[w0, w1]`.
fn rows_in(execs: usize, w0: i64, w1: i64) -> usize {
    execs * (0..10i64).filter(|t| t + 1 >= w0 && *t <= w1).count()
}

struct TempDirGuard(PathBuf);

impl TempDirGuard {
    fn new(tag: &str) -> TempDirGuard {
        let dir = std::env::temp_dir().join(format!(
            "ppg-segcache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDirGuard(dir)
    }
}

impl Drop for TempDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Holds a `get_pr` inside the data layer until the test lets it go, so an
/// interleaving is forced rather than slept for.
#[derive(Default)]
struct Gate {
    /// `(armed, a call is waiting)`.
    state: Mutex<(bool, bool)>,
    changed: Condvar,
}

impl Gate {
    fn arm(&self) {
        self.state.lock().unwrap().0 = true;
    }

    /// Called by the data layer: blocks while the gate is armed.
    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        while state.0 {
            state.1 = true;
            self.changed.notify_all();
            state = self.changed.wait(state).unwrap();
        }
        state.1 = false;
    }

    fn wait_for_a_caller(&self) {
        let mut state = self.state.lock().unwrap();
        while !state.1 {
            state = self.changed.wait(state).unwrap();
        }
    }

    fn release(&self) {
        self.state.lock().unwrap().0 = false;
        self.changed.notify_all();
    }
}

/// Wraps the scripted store, counting data-layer `get_pr` arrivals and
/// recording each query's `(start, end)` window.
struct RecordingWrapper {
    inner: MemApplicationWrapper,
    get_pr_calls: Arc<AtomicUsize>,
    windows: Arc<Mutex<Vec<(String, String)>>>,
    gate: Arc<Gate>,
}

struct RecordingExec {
    inner: Arc<dyn ExecutionWrapper>,
    get_pr_calls: Arc<AtomicUsize>,
    windows: Arc<Mutex<Vec<(String, String)>>>,
    gate: Arc<Gate>,
}

impl ApplicationWrapper for RecordingWrapper {
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
        Ok(Arc::new(RecordingExec {
            inner: self.inner.execution(exec_id)?,
            get_pr_calls: Arc::clone(&self.get_pr_calls),
            windows: Arc::clone(&self.windows),
            gate: Arc::clone(&self.gate),
        }))
    }
}

impl ExecutionWrapper for RecordingExec {
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
        self.windows
            .lock()
            .unwrap()
            .push((query.start.clone(), query.end.clone()));
        self.gate.pass();
        self.inner.get_pr(query)
    }
}

fn query_over(start: &str, end: &str) -> FederatedQuery {
    FederatedQuery::new("gflops", vec!["/Execution".into()]).over(start, end)
}

#[test]
fn contained_query_is_served_with_zero_wire_calls() {
    let client = Arc::new(HttpClient::new());
    let container = start_container();
    let registry = registry_on(&container);
    let app: Arc<dyn ApplicationWrapper> = Arc::new(spanned_wrapper(1, None));
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        app,
        &SiteConfig::new("mem"),
    )
    .unwrap();
    publish(&client, &registry, "MEM", &site);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default().with_call_timeout(Duration::from_secs(10)),
    );

    // Prime the cache with the wide window.
    let wide = gateway.query(&query_over("0", "10"));
    assert!(wide.errors.is_empty(), "{:?}", wide.errors);
    assert!(wide.upstream_calls > 0);
    assert_eq!(wide.total_rows(), rows_in(1, 0, 10));

    // A strictly narrower window is answered by containment: zero wire
    // calls, rows filtered down to the requested range.
    let narrow = gateway.query(&query_over("2", "5"));
    assert!(narrow.errors.is_empty(), "{:?}", narrow.errors);
    assert_eq!(
        narrow.upstream_calls, 0,
        "contained query must not hit the wire"
    );
    assert!(narrow.rows.iter().all(|r| r.from_cache));
    assert_eq!(narrow.total_rows(), rows_in(1, 2, 5));

    let snapshot = gateway.snapshot();
    assert!(snapshot.cache_range_hits >= 1, "{snapshot:?}");
    assert!(snapshot.cache_segments >= 1);
    assert!(snapshot.cache_bytes > 0);
}

#[test]
fn partial_overlap_fetches_only_the_missing_subrange() {
    let client = Arc::new(HttpClient::new());
    let container = start_container();
    let registry = registry_on(&container);
    let get_pr_calls = Arc::new(AtomicUsize::new(0));
    let windows = Arc::new(Mutex::new(Vec::new()));
    let app: Arc<dyn ApplicationWrapper> = Arc::new(RecordingWrapper {
        inner: spanned_wrapper(1, None),
        get_pr_calls: Arc::clone(&get_pr_calls),
        windows: Arc::clone(&windows),
        gate: Arc::default(),
    });
    // The site's own PR cache stays off so the recorded windows are exactly
    // what the gateway asked for.
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        app,
        &SiteConfig::new("mem").with_cache(false),
    )
    .unwrap();
    publish(&client, &registry, "MEM", &site);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default().with_call_timeout(Duration::from_secs(10)),
    );

    let prime = gateway.query(&query_over("0", "5"));
    assert!(prime.errors.is_empty(), "{:?}", prime.errors);
    assert_eq!(prime.total_rows(), rows_in(1, 0, 5));

    // [3, 8] overlaps the cached [0, 5]: the cache serves [3, 5] and the
    // gateway fetches only the missing (5, 8] upstream.
    let straddle = gateway.query(&query_over("3", "8"));
    assert!(straddle.errors.is_empty(), "{:?}", straddle.errors);
    assert_eq!(straddle.total_rows(), rows_in(1, 3, 8));
    let recorded = windows.lock().unwrap().clone();
    assert!(
        recorded.iter().any(|(s, e)| s == "5" && e == "8"),
        "expected a narrowed [5, 8] upstream fetch, saw {recorded:?}"
    );
    assert!(
        !recorded.iter().any(|(s, e)| s == "3" && e == "8"),
        "the full [3, 8] window must not be re-fetched: {recorded:?}"
    );
    let snapshot = gateway.snapshot();
    assert!(snapshot.cache_partial_hits >= 1, "{snapshot:?}");

    // The merged segment now spans [0, 8]: any window inside it is free.
    let inside = gateway.query(&query_over("1", "7"));
    assert_eq!(inside.upstream_calls, 0, "{:?}", gateway.snapshot());
    assert_eq!(inside.total_rows(), rows_in(1, 1, 7));
}

#[test]
fn adjacent_segments_stitch_into_one_answer() {
    let client = Arc::new(HttpClient::new());
    let container = start_container();
    let registry = registry_on(&container);
    let app: Arc<dyn ApplicationWrapper> = Arc::new(spanned_wrapper(1, None));
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        app,
        &SiteConfig::new("mem"),
    )
    .unwrap();
    publish(&client, &registry, "MEM", &site);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default().with_call_timeout(Duration::from_secs(10)),
    );

    let left = gateway.query(&query_over("0", "4"));
    assert!(left.errors.is_empty(), "{:?}", left.errors);
    let right = gateway.query(&query_over("4", "9"));
    assert!(right.errors.is_empty(), "{:?}", right.errors);

    // [1, 8] is covered by chaining [0, 4] and [4, 9].
    let spanning = gateway.query(&query_over("1", "8"));
    assert!(spanning.errors.is_empty(), "{:?}", spanning.errors);
    assert_eq!(
        spanning.upstream_calls, 0,
        "stitched answer must not hit the wire"
    );
    assert!(spanning.rows.iter().all(|r| r.from_cache));
    assert_eq!(spanning.total_rows(), rows_in(1, 1, 8));
}

#[test]
fn warm_restart_answers_first_overlapping_query_from_disk() {
    let spill = TempDirGuard::new("warm");
    let client = Arc::new(HttpClient::new());
    let container = start_container();
    let registry = registry_on(&container);
    let get_pr_calls = Arc::new(AtomicUsize::new(0));
    let app: Arc<dyn ApplicationWrapper> = Arc::new(RecordingWrapper {
        inner: spanned_wrapper(2, None),
        get_pr_calls: Arc::clone(&get_pr_calls),
        windows: Arc::new(Mutex::new(Vec::new())),
        gate: Arc::default(),
    });
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        app,
        &SiteConfig::new("mem").with_cache(false),
    )
    .unwrap();
    publish(&client, &registry, "MEM", &site);

    let config = || {
        GatewayConfig::default()
            .with_call_timeout(Duration::from_secs(10))
            .with_cache_spill(&spill.0)
    };

    // First life: populate, then spill the warm segments to disk.
    let first_life = FederatedGateway::new(Arc::clone(&client), registry.clone(), config());
    let primed = first_life.query(&query_over("0", "10"));
    assert!(primed.errors.is_empty(), "{:?}", primed.errors);
    assert_eq!(primed.total_rows(), rows_in(2, 0, 10));
    first_life.persist_cache();
    assert!(first_life.snapshot().cache_spill_writes >= 1);
    drop(first_life);
    let calls_before = get_pr_calls.load(Ordering::SeqCst);
    assert!(calls_before > 0);

    // Second life: a brand-new gateway over the same spill directory must
    // answer its first overlapping query from disk — zero upstream getPR
    // wire calls, zero data-layer arrivals at the site.
    let second_life = FederatedGateway::new(Arc::clone(&client), registry.clone(), config());
    let warm = second_life.query(&query_over("2", "5"));
    assert!(warm.errors.is_empty(), "{:?}", warm.errors);
    assert_eq!(warm.upstream_calls, 0, "warm restart must answer from disk");
    assert!(warm.rows.iter().all(|r| r.from_cache));
    assert_eq!(warm.total_rows(), rows_in(2, 2, 5));
    assert_eq!(
        get_pr_calls.load(Ordering::SeqCst),
        calls_before,
        "no data-layer arrivals at the site after the restart"
    );
    let snapshot = second_life.snapshot();
    assert!(snapshot.cache_spill_loads >= 1, "{snapshot:?}");
}

#[test]
fn corrupt_spill_files_leave_the_cache_cold_not_broken() {
    let spill = TempDirGuard::new("corrupt");
    // Plant garbage where segments would live: random bytes, a truncated
    // PPGB header, and an empty file.
    std::fs::write(
        spill.0.join("seg-00000000deadbeef-0.ppgseg"),
        b"not a frame",
    )
    .unwrap();
    std::fs::write(
        spill.0.join("seg-00000000deadbeef-1.ppgseg"),
        b"PPGB\x01\x05",
    )
    .unwrap();
    std::fs::write(spill.0.join("seg-00000000deadbeef-2.ppgseg"), b"").unwrap();

    let client = Arc::new(HttpClient::new());
    let container = start_container();
    let registry = registry_on(&container);
    let app: Arc<dyn ApplicationWrapper> = Arc::new(spanned_wrapper(1, None));
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        app,
        &SiteConfig::new("mem"),
    )
    .unwrap();
    publish(&client, &registry, "MEM", &site);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default()
            .with_call_timeout(Duration::from_secs(10))
            .with_cache_spill(&spill.0),
    );

    // The poisoned directory degrades to a cold start — queries still work.
    let cold = gateway.query(&query_over("0", "10"));
    assert!(cold.errors.is_empty(), "{:?}", cold.errors);
    assert!(cold.upstream_calls > 0, "corrupt spill must read as cold");
    assert_eq!(cold.total_rows(), rows_in(1, 0, 10));
    assert_eq!(gateway.snapshot().cache_spill_loads, 0);

    // The repeat confirms the cache itself is healthy.
    let repeat = gateway.query(&query_over("2", "5"));
    assert_eq!(repeat.upstream_calls, 0);
    assert_eq!(repeat.total_rows(), rows_in(1, 2, 5));
}

#[test]
fn concurrent_queries_and_invalidations_stay_consistent() {
    let client = Arc::new(HttpClient::new());
    let container = start_container();
    let registry = registry_on(&container);
    let app: Arc<dyn ApplicationWrapper> = Arc::new(spanned_wrapper(2, None));
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        app,
        &SiteConfig::new("mem"),
    )
    .unwrap();
    publish(&client, &registry, "MEM", &site);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default().with_call_timeout(Duration::from_secs(10)),
    );

    // Four reader threads sweep overlapping windows while the main thread
    // hammers invalidation. Every answer must stay exact regardless of
    // whether it came from the wire, a cached range, or a stitched pair.
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let gw = Arc::clone(&gateway);
            std::thread::spawn(move || {
                for i in 0..25 {
                    let w0 = (w + i) % 6;
                    let w1 = w0 + 4;
                    let result = gw.query(&query_over(&w0.to_string(), &w1.to_string()));
                    assert!(result.errors.is_empty(), "{:?}", result.errors);
                    assert_eq!(
                        result.total_rows(),
                        rows_in(2, w0 as i64, w1 as i64),
                        "window [{w0}, {w1}]"
                    );
                }
            })
        })
        .collect();
    for _ in 0..40 {
        gateway.invalidate_site("mem");
        std::thread::sleep(Duration::from_millis(1));
        gateway.clear_cache();
    }
    for worker in workers {
        worker.join().unwrap();
    }

    // After the storm, a fresh prime + contained query still behaves.
    gateway.clear_cache();
    let wide = gateway.query(&query_over("0", "10"));
    assert!(wide.errors.is_empty());
    let narrow = gateway.query(&query_over("3", "6"));
    assert_eq!(narrow.upstream_calls, 0);
    assert_eq!(narrow.total_rows(), rows_in(2, 3, 6));
}

/// The stale re-insert race, forced: a read misses and is held inside the
/// site's data layer; the instance's `cache.invalidate` arrives and is
/// handled; only then does the read's fetch return. Its rows predate the
/// invalidation, so they are served to that reader and never stored — the
/// next read goes back to the site.
#[test]
fn fetch_that_lost_a_race_with_invalidation_is_not_stored() {
    let client = Arc::new(HttpClient::new());
    let c_reg = start_container();
    let c_site = start_container();
    let registry = registry_on(&c_reg);
    let gate = Arc::new(Gate::default());
    let app: Arc<dyn ApplicationWrapper> = Arc::new(RecordingWrapper {
        inner: spanned_wrapper(1, None),
        get_pr_calls: Arc::new(AtomicUsize::new(0)),
        windows: Arc::new(Mutex::new(Vec::new())),
        gate: Arc::clone(&gate),
    });
    let config = SiteConfig::new("mem").with_cache(false);
    let site = Site::deploy(&c_site, Arc::clone(&client), app, &config).unwrap();
    publish(&client, &registry, "MEM", &site);
    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default().with_call_timeout(Duration::from_secs(10)),
    );

    // Bind, subscribe, and learn the instance's path.
    let first = gateway.query(&query_over("0", "2"));
    assert!(first.errors.is_empty(), "{:?}", first.errors);
    let instance = first.rows[0].execution.path();
    let connected = std::time::Instant::now();
    while gateway.notify_subscriptions() < 2 {
        assert!(
            connected.elapsed() < Duration::from_secs(5),
            "no push subscription"
        );
        std::thread::yield_now();
    }

    gate.arm();
    let racing = std::thread::scope(|scope| {
        let read = scope.spawn(|| gateway.query(&query_over("5", "8")));
        gate.wait_for_a_caller();
        let handled = gateway.snapshot().notify_events;
        let source = c_site.notification_source().expect("notifying container");
        assert!(source.publish("cache.invalidate", &instance) > 0);
        while gateway.snapshot().notify_events == handled {
            std::thread::yield_now();
        }
        gate.release();
        read.join().unwrap()
    });
    assert!(racing.errors.is_empty(), "{:?}", racing.errors);
    assert_eq!(
        racing.total_rows(),
        rows_in(1, 5, 8),
        "the reader is still served"
    );

    let after = gateway.query(&query_over("5", "8"));
    assert!(after.errors.is_empty(), "{:?}", after.errors);
    assert_eq!(
        (after.upstream_calls, after.rows[0].from_cache),
        (1, false),
        "rows fetched before the invalidation must not answer reads after it"
    );
    assert_eq!(after.total_rows(), rows_in(1, 5, 8));
}
