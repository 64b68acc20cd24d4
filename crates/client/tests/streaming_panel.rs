//! The Execution panel's streaming run: every `(execution × query)` pair is
//! a one-entry framed call whose rows reach the sink frame by frame. It
//! answers exactly what the buffered run answers, and a container without
//! the framed route is served by the buffered fallback.

use pperf_client::{ExecQuery, ExecutionQueryPanel};
use pperf_httpd::HttpClient;
use pperf_ogsi::{Container, ContainerConfig, FactoryStub, StreamWire};
use pperf_soap::force_xml;
use pperfgrid::wrappers::{MemApplicationWrapper, MemExecution};
use pperfgrid::{ApplicationStub, ApplicationWrapper, PrQuery, Site, SiteConfig};
use ppg_context::CallContext;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// A three-execution site on `container` (600 rows each, several frames),
/// bound into a panel holding one `getPR` query.
fn panel_on(container: &Container, client: &Arc<HttpClient>) -> ExecutionQueryPanel {
    let app = MemApplicationWrapper::new(vec![("name", "MemApp")]);
    for i in 0..3 {
        let mut exec = MemExecution {
            info: vec![("runid".into(), i.to_string())],
            foci: vec!["/Execution".into()],
            metrics: vec!["gflops".into()],
            types: vec!["MEM".into()],
            time: ("0".into(), "1000".into()),
            ..Default::default()
        };
        exec.results.insert(
            ("gflops".into(), "/Execution".into()),
            (0..600)
                .map(|r| format!("gflops|{i}|t={r}:{}", r + 1))
                .collect(),
        );
        app.add_execution(format!("mem-{i}"), exec);
    }
    let site = Site::deploy(
        container,
        Arc::clone(client),
        Arc::new(app) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("mem"),
    )
    .unwrap();
    let factory = FactoryStub::bind(Arc::clone(client), &site.app_factory);
    let app = ApplicationStub::bind(Arc::clone(client), &factory.create_service(&[]).unwrap());
    let mut panel = ExecutionQueryPanel::open(Arc::clone(client), &app.get_all_execs().unwrap());
    panel.add_query(ExecQuery::once(PrQuery {
        metric: "gflops".into(),
        foci: vec!["/Execution".into()],
        start: String::new(),
        end: String::new(),
        rtype: String::new(),
    }));
    panel
}

/// Streamed rows per execution, and the wire each pair rode.
fn stream_all(panel: &ExecutionQueryPanel) -> (BTreeMap<String, Vec<String>>, Vec<StreamWire>) {
    let mut rows: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let ctx = CallContext::with_budget(Duration::from_secs(10));
    let (results, timing) = panel
        .run_queries_streaming(&ctx, &mut |exec, batch| {
            rows.entry(exec.as_str().to_owned())
                .or_default()
                .extend(batch);
            true
        })
        .unwrap();
    assert_eq!(timing.calls, 3);
    assert!(results.iter().all(|r| !r.truncated && !r.cancelled));
    (rows, results.iter().map(|r| r.wire).collect())
}

fn buffered_all(panel: &ExecutionQueryPanel) -> BTreeMap<String, Vec<String>> {
    let (results, _) = panel.run_queries().unwrap();
    (results.into_iter())
        .map(|r| (r.execution.as_str().to_owned(), r.rows))
        .collect()
}

#[test]
fn streaming_run_returns_the_buffered_rows() {
    let client = Arc::new(HttpClient::new());
    let container = Container::start("127.0.0.1:0", ContainerConfig::default()).unwrap();
    let panel = panel_on(&container, &client);
    let (streamed, wires) = stream_all(&panel);
    assert_eq!(streamed, buffered_all(&panel));
    let expected = if force_xml() {
        StreamWire::Buffered
    } else {
        StreamWire::Stream
    };
    assert!(wires.iter().all(|w| *w == expected), "{wires:?}");
    if !force_xml() {
        assert_eq!(
            container.batch_stream_counters().0,
            3,
            "one framed call per pair"
        );
    }
}

#[test]
fn streaming_run_falls_back_to_buffered_against_a_legacy_container() {
    let client = Arc::new(HttpClient::new());
    let legacy = ContainerConfig {
        streaming_enabled: false,
        ..ContainerConfig::default()
    };
    let container = Container::start("127.0.0.1:0", legacy).unwrap();
    let panel = panel_on(&container, &client);
    let (streamed, wires) = stream_all(&panel);
    assert_eq!(streamed, buffered_all(&panel));
    let expected = if force_xml() {
        StreamWire::Buffered
    } else {
        StreamWire::StreamFallback
    };
    assert!(wires.iter().all(|w| *w == expected), "{wires:?}");
    assert_eq!(container.batch_stream_counters().0, 0);
}
