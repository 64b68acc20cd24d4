//! Remembered selector expansions, end to end: the paper's client asks the
//! Application for `getExecs` once and then works on the handles; so does
//! the planner, for `plan_cache_ttl`. Application calls are counted at a
//! wrapping `ApplicationWrapper`, so "no wire call" is observed where the
//! call would have landed.

use pperf_gateway::{FederatedGateway, FederatedQuery, FederatedResult, GatewayConfig};
use pperf_httpd::HttpClient;
use pperf_ogsi::{Container, ContainerConfig, GridServiceStub, Gsh, RegistryService, RegistryStub};
use pperfgrid::wrappers::{MemApplicationWrapper, MemExecution};
use pperfgrid::{ApplicationWrapper, ExecutionWrapper, Site, SiteConfig, WrapperError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The scripted store, counting the calls a selector expansion makes.
struct CountingApp {
    inner: MemApplicationWrapper,
    expansions: AtomicU64,
}

impl ApplicationWrapper for CountingApp {
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
        self.expansions.fetch_add(1, Ordering::SeqCst);
        self.inner.all_exec_ids()
    }
    fn exec_ids_matching(&self, attribute: &str, value: &str) -> Result<Vec<String>, WrapperError> {
        self.expansions.fetch_add(1, Ordering::SeqCst);
        self.inner.exec_ids_matching(attribute, value)
    }
    fn execution(&self, exec_id: &str) -> Result<Arc<dyn ExecutionWrapper>, WrapperError> {
        self.inner.execution(exec_id)
    }
}

fn execution(i: usize) -> MemExecution {
    let mut exec = MemExecution {
        info: vec![("runid".into(), i.to_string())],
        foci: vec!["/Execution".into()],
        metrics: vec!["gflops".into()],
        types: vec!["MEM".into()],
        time: ("0".into(), "10".into()),
        ..Default::default()
    };
    exec.results.insert(
        ("gflops".into(), "/Execution".into()),
        vec![format!("gflops|{i}")],
    );
    exec
}

/// A registry container, a site container with two executions behind a
/// counting wrapper, and a gateway over them.
struct Deployment {
    client: Arc<HttpClient>,
    registry: Gsh,
    _c_reg: Arc<Container>,
    _c_site: Arc<Container>,
    app: Arc<CountingApp>,
    site: Site,
    gateway: Arc<FederatedGateway>,
}

impl Deployment {
    fn new(config: GatewayConfig) -> Deployment {
        let client = Arc::new(HttpClient::new());
        let start = || Container::start("127.0.0.1:0", ContainerConfig::default()).unwrap();
        let (c_reg, c_site) = (start(), start());
        let registry = c_reg
            .deploy_service("registry", Arc::new(RegistryService::new()))
            .unwrap();
        let app = Arc::new(CountingApp {
            inner: MemApplicationWrapper::new(vec![("name", "MemApp")]),
            expansions: AtomicU64::new(0),
        });
        for i in 0..2 {
            app.inner.add_execution(format!("mem-{i}"), execution(i));
        }
        let wrapper: Arc<dyn ApplicationWrapper> = Arc::clone(&app) as _;
        let site = Site::deploy(
            &c_site,
            Arc::clone(&client),
            wrapper,
            &SiteConfig::new("mem"),
        )
        .unwrap();
        let stub = RegistryStub::bind(Arc::clone(&client), &registry);
        stub.register_organization("MEM", "test").unwrap();
        site.publish(&stub, "MEM", "scripted store").unwrap();
        let gateway = FederatedGateway::new(
            Arc::clone(&client),
            registry.clone(),
            config
                .with_hedging(None)
                .with_call_timeout(Duration::from_secs(10)),
        );
        Deployment {
            client,
            registry,
            _c_reg: c_reg,
            _c_site: c_site,
            app,
            site,
            gateway,
        }
    }

    fn query(&self) -> FederatedResult {
        self.gateway
            .query(&FederatedQuery::new("gflops", vec!["/Execution".into()]))
    }

    fn expansions(&self) -> u64 {
        self.app.expansions.load(Ordering::SeqCst)
    }

    /// Destroy the Execution instance behind `result`'s first row, the way
    /// a site retires one: the instance goes and its Manager forgets it.
    fn destroy_first_execution(&self, result: &FederatedResult) {
        GridServiceStub::bind(Arc::clone(&self.client), &result.rows[0].execution)
            .destroy()
            .unwrap();
        self.site.manager.clear_cache();
    }
}

/// Why the plan of `result` asked the site again, from its trace.
fn expand_causes(result: &FederatedResult) -> Vec<&str> {
    (result.trace.iter())
        .filter(|s| s.layer == "gateway.plan")
        .map(|s| s.outcome.as_str())
        .collect()
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let started = Instant::now();
    while !done() {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "{what} not observed"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn second_identical_query_makes_no_application_call() {
    let d = Deployment::new(GatewayConfig::default().with_plan_cache(Duration::from_secs(60)));
    let first = d.query();
    assert!(first.errors.is_empty(), "{:?}", first.errors);
    assert_eq!(first.rows.len(), 2);
    assert_eq!(expand_causes(&first), ["cold"]);
    assert_eq!(d.expansions(), 1);

    let second = d.query();
    assert_eq!(second.rows.len(), 2);
    assert_eq!(d.expansions(), 1, "the expansion was remembered");
    assert!(expand_causes(&second).is_empty());

    // Another selector is another expansion, remembered beside the first.
    let one = FederatedQuery::new("gflops", vec!["/Execution".into()]).matching("runid", "1");
    assert_eq!(d.gateway.query(&one).rows.len(), 1);
    assert_eq!(d.gateway.query(&one).rows.len(), 1);
    assert_eq!(d.expansions(), 2);
    assert_eq!(d.query().rows.len(), 2);
    assert_eq!(d.expansions(), 2);

    let snapshot = d.gateway.snapshot();
    assert_eq!(snapshot.plan_expansion_refreshes, 2);
    assert_eq!(snapshot.plan_expansion_hits, 3);
    assert_eq!(snapshot.plan_expansion_invalidations, 0);
}

#[test]
fn new_execution_becomes_visible_after_the_ttl() {
    let ttl = Duration::from_millis(150);
    let d = Deployment::new(GatewayConfig::default().with_plan_cache(ttl));
    let expanded = Instant::now();
    assert_eq!(d.query().rows.len(), 2);
    d.app.inner.add_execution("mem-2", execution(2));
    let soon = d.query();
    if expanded.elapsed() < ttl {
        assert_eq!(
            soon.rows.len(),
            2,
            "within the TTL the remembered handles serve"
        );
    }
    std::thread::sleep(ttl + Duration::from_millis(50));
    let later = d.query();
    assert_eq!(later.rows.len(), 3, "{:?}", later.errors);
    assert_eq!(expand_causes(&later), ["ttl"]);
}

#[test]
fn zero_ttl_asks_every_time() {
    let d = Deployment::new(GatewayConfig::default().with_plan_cache(Duration::ZERO));
    for asked in 1..=3 {
        assert_eq!(d.query().rows.len(), 2);
        assert_eq!(d.expansions(), asked);
    }
    let snapshot = d.gateway.snapshot();
    assert_eq!(snapshot.plan_expansion_hits, 0);
    assert_eq!(snapshot.plan_expansion_refreshes, 3);
}

#[test]
fn destroyed_instance_event_forces_a_re_expansion() {
    // The result cache is off so that every query needs live handles.
    let d = Deployment::new(
        GatewayConfig::default()
            .with_plan_cache(Duration::from_secs(60))
            .with_cache(false),
    );
    let first = d.query();
    assert!(first.errors.is_empty(), "{:?}", first.errors);
    wait_until("push subscriptions", || {
        d.gateway.notify_subscriptions() == 2
    });

    d.destroy_first_execution(&first);
    wait_until("cache.invalidate for the destroyed instance", || {
        d.gateway.snapshot().plan_expansion_invalidations == 1
    });
    let second = d.query();
    assert!(second.errors.is_empty(), "{:?}", second.errors);
    assert_eq!(second.rows.len(), 2);
    assert_eq!(expand_causes(&second), ["event"]);
    assert_eq!(d.expansions(), 2);
    assert_ne!(
        first.rows[0].execution, second.rows[0].execution,
        "the Manager made a new instance for the destroyed one"
    );
}

#[test]
fn without_push_a_destroyed_instance_costs_one_failed_query() {
    let d = Deployment::new(
        GatewayConfig::default()
            .with_plan_cache(Duration::from_secs(60))
            .with_cache(false)
            .with_notifications(false),
    );
    let first = d.query();
    assert!(first.errors.is_empty(), "{:?}", first.errors);
    d.destroy_first_execution(&first);

    // Nothing told the gateway: the remembered handle is dead.
    let failed = d.query();
    assert_eq!(failed.errors.len(), 1, "{:?}", failed.errors);
    assert_eq!(
        failed.rows.len(),
        1,
        "the surviving execution still answers"
    );
    assert_eq!(d.expansions(), 1);

    // The failure dropped the expansion, so the next query asks again.
    let healed = d.query();
    assert!(healed.errors.is_empty(), "{:?}", healed.errors);
    assert_eq!(healed.rows.len(), 2);
    assert_eq!(expand_causes(&healed), ["site-error"]);
    assert_eq!(d.expansions(), 2);
    assert_eq!(d.gateway.snapshot().plan_expansion_invalidations, 1);
}

#[test]
fn registry_unregister_and_republish_each_force_a_re_expansion() {
    let d = Deployment::new(GatewayConfig::default().with_plan_cache(Duration::from_secs(60)));
    assert_eq!(d.query().rows.len(), 2);
    wait_until("push subscriptions", || {
        d.gateway.notify_subscriptions() == 2
    });
    let stub = RegistryStub::bind(Arc::clone(&d.client), &d.registry);

    // Withdrawn: the binding and its expansion go with the lease.
    let generation = d.gateway.planner().snapshot_generation();
    assert!(stub.unregister_service("MEM", "mem").unwrap());
    wait_until("the unregister delta", || {
        d.gateway.planner().snapshot_generation() > generation
            && d.gateway.snapshot().plan_expansion_invalidations == 1
    });
    assert_eq!(d.query().sites_total, 0);

    // Republished: bound and expanded afresh.
    let generation = d.gateway.planner().snapshot_generation();
    d.site.publish(&stub, "MEM", "scripted store").unwrap();
    wait_until("the register delta", || {
        d.gateway.planner().snapshot_generation() > generation
    });
    let back = d.query();
    assert_eq!(back.rows.len(), 2, "{:?}", back.errors);
    assert_eq!(expand_causes(&back), ["lease"]);
    assert_eq!(d.expansions(), 2);

    // Any membership delta retires what was remembered under the old view.
    let generation = d.gateway.planner().snapshot_generation();
    stub.register_organization("OTHER", "test").unwrap();
    d.site.publish(&stub, "OTHER", "second entry").unwrap();
    wait_until("the second register delta", || {
        d.gateway.planner().snapshot_generation() > generation
    });
    let both = d.query();
    assert_eq!(both.sites_total, 2, "{:?}", both.errors);
    assert!(expand_causes(&both).contains(&"event"), "{:?}", both.trace);
}
