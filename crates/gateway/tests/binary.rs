//! The PPGB framed route beside SOAP/XML: a fleet of framed, XML-only and
//! legacy sites answers identical rows with every counter showing which
//! route each site used, and a stale framed advertisement downgrades to XML
//! transparently, once.

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

fn start_legacy_container() -> Arc<Container> {
    // A container predating the PPGB framed route: `/ogsa/batch-stream`
    // answers 404 and every `getPR` is answered in SOAP/XML.
    let config = ContainerConfig {
        streaming_enabled: false,
        ..Default::default()
    };
    Container::start("127.0.0.1:0", config).unwrap()
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

fn plain_gateway(client: &Arc<HttpClient>, registry: &Gsh) -> Arc<FederatedGateway> {
    FederatedGateway::new(
        Arc::clone(client),
        registry.clone(),
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(None),
    )
}

/// A fleet mixing a PPGB-framed site, an XML-only site (honest: neither it
/// nor its container has the framed route) and a legacy site on a framed
/// container that does not advertise it answers the same rows from every
/// site. The codec is a wire-level optimization, never a semantic change —
/// and every counter shows which route each site actually used.
#[test]
fn mixed_fleet_binary_and_xml_sites_agree() {
    let client = Arc::new(HttpClient::new());
    let c_bin = start_container();
    let c_xml = start_legacy_container();
    let c_old = start_container();
    let registry = registry_on(&c_bin);

    let bin_site = Site::deploy(
        &c_bin,
        Arc::clone(&client),
        Arc::new(mem_wrapper(3, 2)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("bin"),
    )
    .unwrap();
    let xml_site = Site::deploy(
        &c_xml,
        Arc::clone(&client),
        Arc::new(mem_wrapper(3, 2)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("xml").with_framed_advertised(false),
    )
    .unwrap();
    let old_site = Site::deploy(
        &c_old,
        Arc::clone(&client),
        Arc::new(mem_wrapper(3, 2)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("old").with_framed_advertised(false),
    )
    .unwrap();
    publish(&client, &registry, "BIN", &bin_site);
    publish(&client, &registry, "XML", &xml_site);
    publish(&client, &registry, "OLD", &old_site);

    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);
    let gateway = plain_gateway(&client, &registry);
    let result = gateway.query(&query);
    assert!(result.errors.is_empty(), "{:?}", result.errors);
    assert_eq!(result.rows.len(), 9);
    // One framed call for the PPGB site, three per-call XML calls each for
    // the other two.
    assert_eq!(result.upstream_calls, 7);
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.batch_streams, 1, "only the BIN site spoke PPGB");
    assert_eq!(snapshot.batch_stream_entries, 3);
    assert_eq!(snapshot.xml_calls, 6);
    assert_eq!(snapshot.batch_stream_fallback_calls, 0, "no downgrades");
    // Container-side agreement: the framed site's container saw one PPGB
    // exchange (its capability came from service data, no probe); the
    // others saw none — not even the one that would have served it.
    let (calls, entries, ..) = c_bin.batch_stream_counters();
    assert_eq!((calls, entries), (1, 3));
    assert_eq!(c_xml.batch_stream_counters().0, 0);
    assert_eq!(c_old.batch_stream_counters().0, 0);

    let by_site = rows_by_site(&result);
    assert_eq!(by_site.len(), 3);
    assert_eq!(by_site["BIN/bin"], by_site["XML/xml"]);
    assert_eq!(by_site["BIN/bin"], by_site["OLD/old"]);
    assert_eq!(result.sites_total, 3);
}

/// A site whose advertisement lies (claims the framed route, its container
/// 404s it) costs one transparent downgrade, never a failed query: the
/// held entries are re-sent as per-call XML and the authority is
/// remembered, so later queries go straight to XML.
#[test]
fn stale_advertisement_downgrades_transparently() {
    let client = Arc::new(HttpClient::new());
    let container = start_legacy_container();
    let registry = registry_on(&container);

    // The framed route advertised (the SiteConfig default) against a
    // container that never decodes PPGB — e.g. a site rolled back after its
    // registry entry was cached.
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        Arc::new(mem_wrapper(3, 2)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("stale"),
    )
    .unwrap();
    publish(&client, &registry, "STALE", &site);

    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);
    let gateway = plain_gateway(&client, &registry);

    let first = gateway.query(&query);
    assert!(
        first.errors.is_empty(),
        "downgrade must be invisible: {:?}",
        first.errors
    );
    assert_eq!(first.rows.len(), 3);
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.batch_stream_fallback_calls, 1);
    assert_eq!(snapshot.batch_streams, 0);
    assert_eq!(snapshot.xml_calls, 3, "re-sent as XML");

    // The authority was remembered: no second downgrade round trip.
    let second = gateway.query(&query);
    assert!(second.errors.is_empty(), "{:?}", second.errors);
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.batch_stream_fallback_calls, 1);
    assert_eq!(snapshot.xml_calls, 6);
    assert_eq!(container.batch_stream_counters().0, 0);
    assert_eq!(rows_by_site(&first), rows_by_site(&second));
}
