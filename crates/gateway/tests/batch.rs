//! A fleet mixing a site that advertises the framed route with a legacy
//! site that does not: the capable site's targets share one framed call,
//! the legacy site's go per-call over SOAP/XML, and both answer the same
//! rows. (The full cross-route oracle is `wire_equivalence.rs`.)

use pperf_gateway::{FederatedGateway, FederatedQuery, GatewayConfig};
use pperf_httpd::HttpClient;
use pperf_ogsi::{Container, ContainerConfig, Gsh, RegistryService, RegistryStub};
use pperfgrid::wrappers::{MemApplicationWrapper, MemExecution};
use pperfgrid::{ApplicationWrapper, Site, SiteConfig};
use std::collections::BTreeMap;
use std::sync::Arc;

fn start_container() -> Arc<Container> {
    Container::start("127.0.0.1:0", ContainerConfig::default()).unwrap()
}

fn registry_on(container: &Container) -> Gsh {
    container
        .deploy_service("registry", Arc::new(RegistryService::new()))
        .unwrap()
}

fn mem_wrapper(execs: usize, rows_per_exec: usize) -> MemApplicationWrapper {
    let app = MemApplicationWrapper::new(vec![("name", "MemApp")]);
    for i in 0..execs {
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
            (0..rows_per_exec)
                .map(|r| format!("gflops|{i}.{r}"))
                .collect(),
        );
        app.add_execution(format!("mem-{i}"), exec);
    }
    app
}

fn publish(client: &Arc<HttpClient>, registry: &Gsh, org: &str, site: &Site) {
    let stub = RegistryStub::bind(Arc::clone(client), registry);
    stub.register_organization(org, "test").unwrap();
    site.publish(&stub, org, "store").unwrap();
}

/// Rows per site, sorted — handle-independent result shape for comparison
/// across routes.
fn rows_by_site(result: &pperf_gateway::FederatedResult) -> BTreeMap<String, Vec<String>> {
    let mut by_site: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for site_rows in &result.rows {
        by_site
            .entry(site_rows.site.clone())
            .or_default()
            .extend(site_rows.rows.iter().cloned());
    }
    for rows in by_site.values_mut() {
        rows.sort();
    }
    by_site
}

/// A fleet mixing a framed site with a legacy (non-advertising) site over
/// identical wrappers answers identical rows for both — batching is a
/// wire-level optimization, never a semantic change — and the counters show
/// which route each site rode.
#[test]
fn mixed_fleet_batched_and_legacy_sites_agree() {
    let client = Arc::new(HttpClient::new());
    let c_new = start_container();
    let c_old = start_container();
    let registry = registry_on(&c_new);

    let new_site = Site::deploy(
        &c_new,
        Arc::clone(&client),
        Arc::new(mem_wrapper(3, 2)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("new"),
    )
    .unwrap();
    let old_site = Site::deploy(
        &c_old,
        Arc::clone(&client),
        Arc::new(mem_wrapper(3, 2)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("old").with_framed_advertised(false),
    )
    .unwrap();
    publish(&client, &registry, "NEW", &new_site);
    publish(&client, &registry, "OLD", &old_site);

    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);
    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(None),
    );
    let result = gateway.query(&query);
    assert!(result.errors.is_empty(), "{:?}", result.errors);
    assert_eq!(result.rows.len(), 6);
    // One framed call for the capable site, three per-call XML calls for
    // the legacy one.
    assert_eq!(result.upstream_calls, 4);
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.batch_streams, 1);
    assert_eq!(snapshot.batch_stream_entries, 3);
    assert_eq!(snapshot.xml_calls, 3);
    assert_eq!(snapshot.batch_stream_fallback_calls, 0, "no downgrades");
    // The wire-level counters agree: only the capable site's container saw
    // a framed call.
    let (calls, entries, ..) = c_new.batch_stream_counters();
    assert_eq!((calls, entries), (1, 3));
    assert_eq!(c_old.batch_stream_counters().0, 0);

    // Identical rows, whatever the route.
    let by_site = rows_by_site(&result);
    assert_eq!(by_site.len(), 2);
    assert_eq!(by_site["NEW/new"], by_site["OLD/old"]);
    assert_eq!(by_site["NEW/new"].len(), 6);
    assert_eq!(result.sites_total, 2);
}
