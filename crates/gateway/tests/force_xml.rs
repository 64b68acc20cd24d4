//! `PPG_FORCE_XML=1` operational escape hatch: every exchange stays per-call
//! SOAP/XML no matter what sites advertise. Lives in its own test binary
//! because the variable is process-global.

use pperf_gateway::{FederatedGateway, FederatedQuery, GatewayConfig};
use pperf_httpd::HttpClient;
use pperf_ogsi::{
    Container, ContainerConfig, FactoryStub, RegistryService, RegistryStub, StreamWire,
};
use pperfgrid::wrappers::{MemApplicationWrapper, MemExecution};
use pperfgrid::{ApplicationStub, ApplicationWrapper, ExecutionStub, PrQuery, Site, SiteConfig};
use ppg_context::CallContext;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn force_xml_pins_every_exchange_to_xml() {
    // Set before any stub call; nothing else runs in this process.
    std::env::set_var("PPG_FORCE_XML", "1");

    let client = Arc::new(HttpClient::new());
    let container = Container::start("127.0.0.1:0", ContainerConfig::default()).unwrap();
    let registry = container
        .deploy_service("registry", Arc::new(RegistryService::new()))
        .unwrap();

    let app = MemApplicationWrapper::new(vec![("name", "MemApp")]);
    for i in 0..3 {
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
        app.add_execution(format!("mem-{i}"), exec);
    }
    // The site advertises the framed route and its container serves it —
    // only the environment override keeps the exchange on XML.
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        Arc::new(app) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("forced"),
    )
    .unwrap();
    let stub = RegistryStub::bind(Arc::clone(&client), &registry);
    stub.register_organization("FORCED", "test").unwrap();
    site.publish(&stub, "FORCED", "store").unwrap();

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(None)
            .with_call_timeout(Duration::from_secs(10)),
    );
    let result = gateway.query(&FederatedQuery::new("gflops", vec!["/Execution".into()]));
    assert!(result.errors.is_empty(), "{:?}", result.errors);
    assert_eq!(result.rows.len(), 3);

    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.xml_calls, 3, "one per-call XML call per target");
    assert_eq!(snapshot.batch_streams, 0, "forced XML never frames");
    assert_eq!(
        snapshot.batch_stream_fallback_calls, 0,
        "a pin is not a fallback: nothing was probed, nothing failed"
    );
    assert_eq!(
        container.batch_stream_counters().0,
        0,
        "/ogsa/batch-stream never hit"
    );

    // A direct one-target stream would normally be a one-entry framed call;
    // the override pins it to buffered XML too, and says so.
    let factory = FactoryStub::bind(Arc::clone(&client), &site.app_factory);
    let app = ApplicationStub::bind(Arc::clone(&client), &factory.create_service(&[]).unwrap());
    let execs = app.get_all_execs().unwrap();
    let exec = ExecutionStub::bind(Arc::clone(&client), &execs[0]);
    let query = PrQuery {
        metric: "gflops".into(),
        foci: vec!["/Execution".into()],
        start: String::new(),
        end: String::new(),
        rtype: String::new(),
    };
    let ctx = CallContext::with_budget(Duration::from_secs(10));
    let mut delivered = 0usize;
    let outcome = exec
        .get_pr_stream(&query, &ctx, &mut |rows| {
            delivered += rows.len();
            true
        })
        .unwrap();
    assert_eq!(outcome.wire, StreamWire::Buffered);
    assert_eq!(delivered, 1);
    assert_eq!(
        container.batch_stream_counters().0,
        0,
        "/ogsa/batch-stream never hit"
    );
}
