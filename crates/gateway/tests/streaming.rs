//! One-target sites and the framed route's fallbacks: a site that does not
//! advertise the framed route is served per-call over buffered SOAP/XML
//! without a probe, and a dead route behind a stale advertisement costs one
//! transparent fallback that the gateway then remembers. (The one-entry
//! stream itself — window, mid-stream kill, cancel — is `batch_stream.rs`.)

use pperf_gateway::{FederatedGateway, FederatedQuery, GatewayConfig};
use pperf_httpd::HttpClient;
use pperf_ogsi::{Container, ContainerConfig, Gsh, RegistryService, RegistryStub};
use pperfgrid::wrappers::{MemApplicationWrapper, MemExecution};
use pperfgrid::{ApplicationWrapper, Site, SiteConfig};
use std::sync::Arc;
use std::time::Duration;

fn start_container(config: ContainerConfig) -> Arc<Container> {
    Container::start("127.0.0.1:0", config).unwrap()
}

fn registry_on(container: &Container) -> Gsh {
    container
        .deploy_service("registry", Arc::new(RegistryService::new()))
        .unwrap()
}

/// A one-execution site whose rows are ~90 bytes wide.
fn wide_wrapper(rows: usize) -> MemApplicationWrapper {
    let app = MemApplicationWrapper::new(vec![("name", "WideApp")]);
    let mut exec = MemExecution {
        info: vec![("runid".into(), "0".into())],
        foci: vec!["/Execution".into()],
        metrics: vec!["gflops".into()],
        types: vec!["MEM".into()],
        time: ("0".into(), "10".into()),
        ..Default::default()
    };
    exec.results.insert(
        ("gflops".into(), "/Execution".into()),
        (0..rows)
            .map(|r| format!("gflops|{r:06}|{}", "x".repeat(80)))
            .collect(),
    );
    app.add_execution("mem-0", exec);
    app
}

fn publish(client: &Arc<HttpClient>, registry: &Gsh, org: &str, site: &Site) {
    let stub = RegistryStub::bind(Arc::clone(client), registry);
    stub.register_organization(org, "test").unwrap();
    site.publish(&stub, org, "wide store").unwrap();
}

/// No cache, hedging or retries, so every query drives exactly the one
/// target's route under test.
fn one_target_config() -> GatewayConfig {
    GatewayConfig::default()
        .with_cache(false)
        .with_hedging(None)
        .with_retries(0, Duration::from_millis(5))
        .with_call_timeout(Duration::from_secs(10))
}

#[test]
fn site_not_advertising_streams_is_served_buffered() {
    let client = Arc::new(HttpClient::new());
    let container = start_container(ContainerConfig::default());
    let registry = registry_on(&container);
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        Arc::new(wide_wrapper(40)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("legacy").with_framed_advertised(false),
    )
    .unwrap();
    publish(&client, &registry, "LEGACY", &site);

    let gateway = FederatedGateway::new(Arc::clone(&client), registry.clone(), one_target_config());
    let result = gateway.query(&FederatedQuery::new("gflops", vec!["/Execution".into()]));
    assert!(result.errors.is_empty(), "{:?}", result.errors);
    assert_eq!(result.total_rows(), 40);

    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.xml_calls, 1, "one buffered per-call answer");
    assert_eq!(
        snapshot.batch_streams, 0,
        "no advertisement, no stream attempt"
    );
    assert_eq!(
        snapshot.batch_stream_fallback_calls, 0,
        "and no dead probe either"
    );
    assert_eq!(
        container.batch_stream_counters().0,
        0,
        "/ogsa/batch-stream never hit"
    );
}

#[test]
fn stale_streaming_advertisement_falls_back_and_is_remembered() {
    let client = Arc::new(HttpClient::new());
    // The container's framed route is off, but the site still advertises
    // it — the model of a stale capability record.
    let container = start_container(ContainerConfig {
        streaming_enabled: false,
        ..ContainerConfig::default()
    });
    let registry = registry_on(&container);
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        Arc::new(wide_wrapper(40)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("stale"),
    )
    .unwrap();
    publish(&client, &registry, "STALE", &site);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        one_target_config().with_per_site_concurrency(1),
    );
    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);

    let first = gateway.query(&query);
    assert!(first.errors.is_empty(), "{:?}", first.errors);
    assert_eq!(first.total_rows(), 40, "fallback is transparent");
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.batch_streams, 0);
    assert_eq!(
        snapshot.batch_stream_fallback_calls, 1,
        "one dead probe, then the authority is remembered"
    );
    assert_eq!(snapshot.xml_calls, 1, "the one target re-sent per-call");

    let second = gateway.query(&query);
    assert!(second.errors.is_empty(), "{:?}", second.errors);
    assert_eq!(second.total_rows(), 40);
    let snapshot = gateway.snapshot();
    assert_eq!(
        snapshot.batch_stream_fallback_calls, 1,
        "later calls skip the probe entirely"
    );
    assert_eq!(snapshot.xml_calls, 2);
}
