//! End-to-end test of the client panel workflow (thesis Figs. 8–11):
//! publish → discover → bind → query applications → query executions →
//! visualize.

use pperf_client::{
    chart, AppQuery, ApplicationQueryPanel, DiscoveryPanel, ExecQuery, ExecutionQueryPanel,
    PublisherPanel,
};
use pperf_datastore::{HplSpec, HplStore, RmaSpec, RmaTextStore};
use pperf_httpd::HttpClient;
use pperf_ogsi::{Container, ContainerConfig, RegistryService};
use pperfgrid::wrappers::{HplSqlWrapper, RmaTextWrapper};
use pperfgrid::{PrQuery, Site, SiteConfig, TYPE_UNDEFINED};
use std::sync::Arc;

struct Grid {
    _container: Arc<Container>,
    client: Arc<HttpClient>,
    registry_gsh: pperf_ogsi::Gsh,
    _rma_dir: RmaDirGuard,
}

struct RmaDirGuard(std::path::PathBuf);

impl Drop for RmaDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One container hosting a registry and two published sites (HPL and RMA)
/// from two organizations.
fn grid() -> Grid {
    let container = Container::start("127.0.0.1:0", ContainerConfig::default()).unwrap();
    let client = Arc::new(HttpClient::new());
    let registry_gsh = container
        .deploy_service("registry", Arc::new(RegistryService::new()))
        .unwrap();

    let hpl = Arc::new(HplSqlWrapper::new(
        HplStore::build(HplSpec::tiny()).database().clone(),
    ));
    let hpl_site = Site::deploy(
        &container,
        Arc::clone(&client),
        hpl,
        &SiteConfig::new("hpl"),
    )
    .unwrap();

    // Tests of this binary run in parallel threads of one process: each grid
    // needs a directory of its own, or one test's clean-up deletes the files
    // another is reading.
    static GRIDS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let rma_dir = std::env::temp_dir().join(format!(
        "client-e2e-rma-{}-{}",
        std::process::id(),
        GRIDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&rma_dir);
    let rma_store = RmaTextStore::generate(&rma_dir, &RmaSpec::tiny()).unwrap();
    let rma = Arc::new(RmaTextWrapper::new(rma_store));
    let rma_site = Site::deploy(
        &container,
        Arc::clone(&client),
        rma,
        &SiteConfig::new("rma"),
    )
    .unwrap();

    let publisher = PublisherPanel::connect(Arc::clone(&client), &registry_gsh);
    publisher
        .register_organization("PSU", "Portland, OR")
        .unwrap();
    publisher
        .register_organization("LLNL", "Livermore, CA")
        .unwrap();
    publisher
        .publish_service("PSU", "HPL", "Linpack runs", &hpl_site.app_factory)
        .unwrap();
    publisher
        .publish_service(
            "LLNL",
            "PRESTA-RMA",
            "MPI bandwidth/latency",
            &rma_site.app_factory,
        )
        .unwrap();

    Grid {
        _container: container,
        client,
        registry_gsh,
        _rma_dir: RmaDirGuard(rma_dir),
    }
}

#[test]
fn full_panel_workflow() {
    let grid = grid();

    // Fig. 8: discovery.
    let mut discovery = DiscoveryPanel::connect(Arc::clone(&grid.client), &grid.registry_gsh);
    let orgs = discovery.find_organizations("").unwrap();
    assert_eq!(orgs.len(), 2);
    let psu_services = discovery.services_of("PSU").unwrap();
    assert_eq!(psu_services.len(), 1);
    discovery.bind(&psu_services[0]).unwrap();
    let llnl_services = discovery.services_of("LLNL").unwrap();
    discovery.bind(&llnl_services[0]).unwrap();
    // Re-binding is idempotent.
    discovery.bind(&psu_services[0]).unwrap();
    assert_eq!(discovery.bindings().len(), 2);

    // Fig. 9: application queries ("runid 100-109 from the HPL data source"
    // in miniature: runid 100-103).
    let mut app_panel =
        ApplicationQueryPanel::open(Arc::clone(&grid.client), discovery.bindings()).unwrap();
    let params = app_panel.query_params(0).unwrap();
    assert!(params.iter().any(|(a, _)| a == "runid"));
    for runid in 100..104 {
        app_panel.add_query(AppQuery {
            binding: 0,
            attribute: "runid".into(),
            value: runid.to_string(),
        });
    }
    let execs = app_panel.run_queries().unwrap();
    assert_eq!(execs.len(), 4);

    // Duplicate results are unioned like OR terms.
    app_panel.add_query(AppQuery {
        binding: 0,
        attribute: "runid".into(),
        value: "100".into(),
    });
    assert_eq!(app_panel.run_queries().unwrap().len(), 4, "no duplicates");

    // Fig. 10: execution queries, one thread per execution.
    let mut exec_panel = ExecutionQueryPanel::open(app_panel.client(), &execs);
    let (metrics, foci, types, (start, end)) = exec_panel.discover(0).unwrap();
    assert_eq!(metrics, ["gflops", "runtimesec"]);
    assert_eq!(foci, ["/Execution"]);
    assert_eq!(types, ["hpl"]);
    exec_panel.add_query(ExecQuery::once(PrQuery {
        metric: "gflops".into(),
        foci,
        start,
        end,
        rtype: types[0].clone(),
    }));
    let (results, timing) = exec_panel.run_queries().unwrap();
    assert_eq!(results.len(), 4);
    assert_eq!(timing.calls, 4);
    for r in &results {
        assert_eq!(r.rows.len(), 1);
        assert!(r.rows[0].parse::<f64>().unwrap() > 0.0);
    }

    // Fig. 11: visualization.
    let rows: Vec<(String, f64)> = results
        .iter()
        .enumerate()
        .map(|(i, r)| (format!("runid {}", 100 + i), r.rows[0].parse().unwrap()))
        .collect();
    let chart = chart::bar_chart("HPL gflops", "gflops", &rows, 70);
    assert!(chart.contains("runid 100"));
    assert!(chart.contains('#'));
}

#[test]
fn cross_store_comparison_in_one_session() {
    // The point of PPerfGrid: compare heterogeneous stores uniformly.
    let grid = grid();
    let mut discovery = DiscoveryPanel::connect(Arc::clone(&grid.client), &grid.registry_gsh);
    for org in ["PSU", "LLNL"] {
        for svc in discovery.services_of(org).unwrap() {
            discovery.bind(&svc).unwrap();
        }
    }
    let app_panel =
        ApplicationQueryPanel::open(Arc::clone(&grid.client), discovery.bindings()).unwrap();

    // Both applications answer the same PortType despite different backends.
    for (binding, app) in app_panel.applications() {
        let info = app.get_app_info().unwrap();
        assert!(!info.is_empty(), "{}", binding.service);
        assert!(app.get_num_execs().unwrap() > 0);
    }

    // Query RMA (binding 1) executions and fetch a multi-row PR.
    let execs = app_panel.all_execs(1).unwrap();
    assert_eq!(execs.len(), 3);
    let mut exec_panel = ExecutionQueryPanel::open(app_panel.client(), &execs);
    exec_panel.add_query(ExecQuery::once(PrQuery {
        metric: "bandwidth_mbps".into(),
        foci: vec!["/Op/unidir".into()],
        start: String::new(),
        end: String::new(),
        rtype: TYPE_UNDEFINED.into(),
    }));
    let (results, _) = exec_panel.run_queries().unwrap();
    assert_eq!(results.len(), 3);
    assert!(
        results.iter().all(|r| r.rows.len() == 3),
        "3 msg sizes per op"
    );
}

#[test]
fn repeats_multiply_calls() {
    let grid = grid();
    let mut discovery = DiscoveryPanel::connect(Arc::clone(&grid.client), &grid.registry_gsh);
    let svc = discovery.services_of("PSU").unwrap();
    discovery.bind(&svc[0]).unwrap();
    let app_panel =
        ApplicationQueryPanel::open(Arc::clone(&grid.client), discovery.bindings()).unwrap();
    let execs = app_panel.all_execs(0).unwrap();
    let mut exec_panel = ExecutionQueryPanel::open(app_panel.client(), &execs);
    exec_panel.add_query(ExecQuery {
        query: PrQuery {
            metric: "gflops".into(),
            foci: vec![],
            start: String::new(),
            end: String::new(),
            rtype: TYPE_UNDEFINED.into(),
        },
        repeats: 10,
    });
    let (results, timing) = exec_panel.run_queries().unwrap();
    assert_eq!(results.len(), 8);
    assert_eq!(timing.calls, 80, "8 executions × 10 repeats");
}

#[test]
fn unbind_shrinks_comparison_set() {
    let grid = grid();
    let mut discovery = DiscoveryPanel::connect(Arc::clone(&grid.client), &grid.registry_gsh);
    for org in ["PSU", "LLNL"] {
        for svc in discovery.services_of(org).unwrap() {
            discovery.bind(&svc).unwrap();
        }
    }
    assert_eq!(discovery.bindings().len(), 2);
    assert!(discovery.unbind("PSU", "HPL"));
    assert!(!discovery.unbind("PSU", "HPL"));
    assert_eq!(discovery.bindings().len(), 1);
    assert_eq!(discovery.bindings()[0].organization, "LLNL");
}
