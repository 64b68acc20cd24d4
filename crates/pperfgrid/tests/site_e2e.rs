//! End-to-end tests of a deployed PPerfGrid site: the component interaction
//! of thesis Fig. 3 over real sockets, Manager replica interleaving (§6.5),
//! and Performance Result caching (§6.6).

use pperf_datastore::{HplSpec, HplStore, SmgSpec, SmgStore};
use pperf_httpd::HttpClient;
use pperf_ogsi::{
    BatchStreamEntryOutcome, Container, ContainerConfig, FactoryStub, GridServiceStub,
    RegistryService, RegistryStub, ServiceStub,
};
use pperf_soap::{BatchEntry, FaultCode};
use pperfgrid::wrappers::{HplSqlWrapper, SmgSqlWrapper};
use pperfgrid::{ApplicationStub, ExecutionStub, PrQuery, Site, SiteConfig, TYPE_UNDEFINED};
use ppg_context::CallContext;
use std::sync::Arc;
use std::time::Duration;

fn container() -> Arc<Container> {
    Container::start("127.0.0.1:0", ContainerConfig::default()).unwrap()
}

fn hpl_wrapper() -> Arc<HplSqlWrapper> {
    Arc::new(HplSqlWrapper::new(
        HplStore::build(HplSpec::tiny()).database().clone(),
    ))
}

fn pr_query(metric: &str) -> PrQuery {
    PrQuery {
        metric: metric.into(),
        foci: vec!["/Execution".into()],
        start: String::new(),
        end: String::new(),
        rtype: TYPE_UNDEFINED.into(),
    }
}

/// The full Fig. 3 walk: registry → application factory → application
/// instance → execution instances → performance results.
#[test]
fn figure3_component_interaction() {
    let node = container();
    let client = Arc::new(HttpClient::new());

    // Publisher side: deploy the site and the registry; publish the service.
    let registry_gsh = node
        .deploy_service("registry", Arc::new(RegistryService::new()))
        .unwrap();
    let site = Site::deploy(
        &node,
        Arc::clone(&client),
        hpl_wrapper(),
        &SiteConfig::new("hpl"),
    )
    .unwrap();
    let registry = RegistryStub::bind(Arc::clone(&client), &registry_gsh);
    registry
        .register_organization("PSU", "Portland, OR")
        .unwrap();
    site.publish(&registry, "PSU", "Linpack runs").unwrap();

    // 1a/1b: client logs into the registry and finds Application factories.
    let orgs = registry.find_organizations("").unwrap();
    assert_eq!(orgs.len(), 1);
    let services = registry.list_services(&orgs[0].name).unwrap();
    assert_eq!(services.len(), 1);
    let factory_gsh = pperf_ogsi::Gsh::parse(&services[0].factory_url).unwrap();

    // 2a-2c: bind to the factory, create an Application instance.
    let factory = FactoryStub::bind(Arc::clone(&client), &factory_gsh);
    let app_gsh = factory.create_service(&[]).unwrap();
    let app = ApplicationStub::bind(Arc::clone(&client), &app_gsh);

    // Application PortType (Table 1).
    let info = app.get_app_info().unwrap();
    assert!(info.iter().any(|(n, v)| n == "name" && v == "HPL"));
    assert_eq!(app.get_num_execs().unwrap(), 8);
    let params = app.get_exec_query_params().unwrap();
    assert!(params
        .iter()
        .any(|(a, vs)| a == "numprocs" && !vs.is_empty()));

    // 3a-3i: query executions; Execution instances come back as GSHs.
    let (attr, values) = params
        .iter()
        .find(|(a, _)| a == "numprocs")
        .cloned()
        .unwrap();
    let exec_gshs = app.get_execs(&attr, &values[0]).unwrap();
    assert!(!exec_gshs.is_empty());

    // 4a-4f: bind to Execution instances and query Performance Results.
    let exec = ExecutionStub::bind(Arc::clone(&client), &exec_gshs[0]);
    assert_eq!(exec.get_types().unwrap(), ["hpl"]);
    assert_eq!(exec.get_foci().unwrap(), ["/Execution"]);
    assert_eq!(exec.get_metrics().unwrap(), ["gflops", "runtimesec"]);
    let (start, end) = exec.get_time_start_end().unwrap();
    assert!(start.parse::<f64>().unwrap() <= end.parse::<f64>().unwrap());
    let rows = exec.get_pr(&pr_query("gflops")).unwrap();
    assert_eq!(rows.len(), 1);
    assert!(rows[0].parse::<f64>().unwrap() > 0.0);

    // getAllExecs returns every execution.
    let all = app.get_all_execs().unwrap();
    assert_eq!(all.len(), 8);
}

#[test]
fn manager_caches_execution_instances() {
    let node = container();
    let client = Arc::new(HttpClient::new());
    let site = Site::deploy(
        &node,
        Arc::clone(&client),
        hpl_wrapper(),
        &SiteConfig::new("hpl"),
    )
    .unwrap();
    let factory = FactoryStub::bind(Arc::clone(&client), &site.app_factory);
    let app1 = ApplicationStub::bind(Arc::clone(&client), &factory.create_service(&[]).unwrap());

    let first = app1.get_all_execs().unwrap();
    let (hits0, created0) = site.manager.stats();
    assert_eq!(created0, 8);
    assert_eq!(hits0, 0);

    // The same query from another Application instance reuses cached GSHs —
    // "when another request for the same Execution instance is made, the
    // cached GSH of the previously created instance is returned" (§5.3.1.4).
    let app2 = ApplicationStub::bind(Arc::clone(&client), &factory.create_service(&[]).unwrap());
    let second = app2.get_all_execs().unwrap();
    assert_eq!(first, second, "same instances, not new ones");
    let (hits1, created1) = site.manager.stats();
    assert_eq!(created1, 8, "no new instances created");
    assert_eq!(hits1, 8);
    assert_eq!(
        node.live_instances(),
        8 + 2,
        "8 executions + 2 applications"
    );
}

#[test]
fn manager_interleaves_across_replica_hosts() {
    // Two containers = the two Sun hosts of §6.5; one HPL replica on each.
    let host_a = container();
    let host_b = container();
    let client = Arc::new(HttpClient::new());
    let wrapper_a = hpl_wrapper();
    let wrapper_b = hpl_wrapper();
    let site = Site::deploy_replicated(
        &host_a,
        &[(&host_a, wrapper_a), (&host_b, wrapper_b)],
        Arc::clone(&client),
        &SiteConfig::new("hpl"),
    )
    .unwrap();
    assert_eq!(site.exec_factories.len(), 2);

    let factory = FactoryStub::bind(Arc::clone(&client), &site.app_factory);
    let app = ApplicationStub::bind(Arc::clone(&client), &factory.create_service(&[]).unwrap());
    let execs = app.get_all_execs().unwrap();
    assert_eq!(execs.len(), 8);

    // Interleaved placement: ID1→hostA, ID2→hostB, ... (§5.3.1.4). With a
    // sequential request stream the split is exactly 4/4 and alternating.
    let port_a = host_a.base_url();
    let port_b = host_b.base_url();
    let on_a = execs
        .iter()
        .filter(|g| g.as_str().starts_with(&port_a))
        .count();
    let on_b = execs
        .iter()
        .filter(|g| g.as_str().starts_with(&port_b))
        .count();
    assert_eq!((on_a, on_b), (4, 4), "16-and-16 style even split");
    for pair in execs.chunks(2) {
        if let [x, y] = pair {
            assert_ne!(
                x.as_str().starts_with(&port_a),
                y.as_str().starts_with(&port_a),
                "adjacent ids land on different hosts"
            );
        }
    }

    // Instances on both hosts answer queries.
    for gsh in &execs {
        let exec = ExecutionStub::bind(Arc::clone(&client), gsh);
        assert_eq!(exec.get_pr(&pr_query("gflops")).unwrap().len(), 1);
    }
    // The application instance lives on the primary host only.
    assert_eq!(host_a.live_instances(), 4 + 1);
    assert_eq!(host_b.live_instances(), 4);
}

#[test]
fn pr_cache_hits_skip_the_mapping_layer() {
    let node = container();
    let client = Arc::new(HttpClient::new());

    // Use a timed wrapper around SMG (slow mapping layer) to observe cache
    // effect through service data counters.
    let store = SmgStore::build(SmgSpec::tiny());
    let wrapper = Arc::new(SmgSqlWrapper::new(store.database().clone()));
    let site = Site::deploy(&node, Arc::clone(&client), wrapper, &SiteConfig::new("smg")).unwrap();
    let factory = FactoryStub::bind(Arc::clone(&client), &site.app_factory);
    let app = ApplicationStub::bind(Arc::clone(&client), &factory.create_service(&[]).unwrap());
    let execs = app.get_execs("execid", "0").unwrap();
    assert_eq!(execs.len(), 1);
    let exec = ExecutionStub::bind(Arc::clone(&client), &execs[0]);

    let query = PrQuery {
        metric: "func_calls".into(),
        foci: vec!["/Code/MPI/MPI_Allgather".into()],
        start: String::new(),
        end: String::new(),
        rtype: TYPE_UNDEFINED.into(),
    };
    let first = exec.get_pr(&query).unwrap();
    let second = exec.get_pr(&query).unwrap();
    assert_eq!(first, second, "cache returns identical results");

    let gs = GridServiceStub::bind(Arc::clone(&client), &execs[0]);
    assert_eq!(gs.find_service_data("cacheHits").unwrap().as_int(), Some(1));
    assert_eq!(
        gs.find_service_data("cacheMisses").unwrap().as_int(),
        Some(1)
    );
    assert_eq!(
        gs.find_service_data("cacheEntries").unwrap().as_int(),
        Some(1)
    );

    // A different query misses.
    let mut other = query.clone();
    other.foci = vec!["/Process/0".into()];
    exec.get_pr(&other).unwrap();
    assert_eq!(
        gs.find_service_data("cacheMisses").unwrap().as_int(),
        Some(2)
    );
}

#[test]
fn caching_can_be_disabled_per_site() {
    let node = container();
    let client = Arc::new(HttpClient::new());
    let site = Site::deploy(
        &node,
        Arc::clone(&client),
        hpl_wrapper(),
        &SiteConfig::new("hpl").with_cache(false),
    )
    .unwrap();
    let factory = FactoryStub::bind(Arc::clone(&client), &site.app_factory);
    let app = ApplicationStub::bind(Arc::clone(&client), &factory.create_service(&[]).unwrap());
    let execs = app.get_execs("runid", "100").unwrap();
    let exec = ExecutionStub::bind(Arc::clone(&client), &execs[0]);
    exec.get_pr(&pr_query("gflops")).unwrap();
    exec.get_pr(&pr_query("gflops")).unwrap();
    let gs = GridServiceStub::bind(Arc::clone(&client), &execs[0]);
    assert_eq!(
        gs.find_service_data("cacheEnabled").unwrap().as_bool(),
        Some(false)
    );
    assert_eq!(
        gs.find_service_data("cacheEntries").unwrap().as_int(),
        Some(0),
        "disabled cache stores nothing"
    );
}

#[test]
fn manager_service_is_reachable_over_soap() {
    // "The Manager is... not accessed by the client but only by Application
    // service instances" — but it *is* a Grid service; verify the SOAP face.
    let node = container();
    let client = Arc::new(HttpClient::new());
    let site = Site::deploy(
        &node,
        Arc::clone(&client),
        hpl_wrapper(),
        &SiteConfig::new("hpl"),
    )
    .unwrap();
    let stub = pperf_ogsi::ServiceStub::new(Arc::clone(&client), site.manager_gsh.clone());
    let v = stub
        .call(
            "getExecs",
            &[(
                "execIds",
                pperf_soap::Value::StrArray(vec!["100".into(), "101".into()]),
            )],
        )
        .unwrap();
    let gshs = v.as_str_array().unwrap();
    assert_eq!(gshs.len(), 2);
    assert!(gshs[0].contains("/instances/"));
    // Service data reflects the two creations.
    let gs = GridServiceStub::bind(Arc::clone(&client), &site.manager_gsh);
    assert_eq!(
        gs.find_service_data("instancesCreated").unwrap().as_int(),
        Some(2)
    );
    assert_eq!(
        gs.find_service_data("replicaCount").unwrap().as_int(),
        Some(1)
    );
}

#[test]
fn invalid_queries_fault_cleanly() {
    let node = container();
    let client = Arc::new(HttpClient::new());
    let site = Site::deploy(
        &node,
        Arc::clone(&client),
        hpl_wrapper(),
        &SiteConfig::new("hpl"),
    )
    .unwrap();
    let factory = FactoryStub::bind(Arc::clone(&client), &site.app_factory);
    let app = ApplicationStub::bind(Arc::clone(&client), &factory.create_service(&[]).unwrap());
    // Unknown attribute → client fault.
    match app.get_execs("walltime", "1") {
        Err(pperf_ogsi::OgsiError::Fault(f)) => assert!(f.string.contains("walltime")),
        other => panic!("expected fault, got {other:?}"),
    }
    // Unknown metric → server fault from the wrapper.
    let execs = app.get_execs("runid", "100").unwrap();
    let exec = ExecutionStub::bind(Arc::clone(&client), &execs[0]);
    assert!(exec.get_pr(&pr_query("watts")).is_err());
}

#[test]
fn concurrent_clients_share_instances() {
    let node = container();
    let client = Arc::new(HttpClient::new());
    let site = Site::deploy(
        &node,
        Arc::clone(&client),
        hpl_wrapper(),
        &SiteConfig::new("hpl"),
    )
    .unwrap();
    let factory = FactoryStub::bind(Arc::clone(&client), &site.app_factory);
    let app_gsh = factory.create_service(&[]).unwrap();

    std::thread::scope(|scope| {
        for _ in 0..6 {
            let client = Arc::new(HttpClient::new());
            let gsh = app_gsh.clone();
            scope.spawn(move || {
                let app = ApplicationStub::bind(Arc::clone(&client), &gsh);
                let execs = app.get_all_execs().unwrap();
                assert_eq!(execs.len(), 8);
                let exec = ExecutionStub::bind(client, &execs[0]);
                assert_eq!(exec.get_pr(&pr_query("gflops")).unwrap().len(), 1);
            });
        }
    });
    // Exactly 8 Execution instances exist despite 6 concurrent requesters.
    let (_, created) = site.manager.stats();
    assert_eq!(created, 8, "manager dedupes concurrent creations by id");
    assert_eq!(node.live_instances(), 8 + 1);
}

#[test]
fn execution_vocabulary_queryable_via_xpath() {
    // Thesis §7: "By exposing metrics, foci, type, and time as service data
    // elements of an Execution service instance, a user could conceivably
    // enter an XPath query" — the implemented extension.
    let node = container();
    let client = Arc::new(HttpClient::new());
    let site = Site::deploy(
        &node,
        Arc::clone(&client),
        hpl_wrapper(),
        &SiteConfig::new("hpl"),
    )
    .unwrap();
    let factory = FactoryStub::bind(Arc::clone(&client), &site.app_factory);
    let app = ApplicationStub::bind(Arc::clone(&client), &factory.create_service(&[]).unwrap());
    let execs = app.get_execs("runid", "100").unwrap();
    let gs = GridServiceStub::bind(Arc::clone(&client), &execs[0]);

    let metrics = gs
        .query_service_data_xpath("/serviceData/metrics/item/text()")
        .unwrap();
    assert_eq!(metrics, ["gflops", "runtimesec"]);
    let foci = gs
        .query_service_data_xpath("/serviceData/foci/item/text()")
        .unwrap();
    assert_eq!(foci, ["/Execution"]);
    let types = gs.query_service_data_xpath("//types/item/text()").unwrap();
    assert_eq!(types, ["hpl"]);
    let start = gs
        .query_service_data_xpath("/serviceData/timeStart/text()")
        .unwrap();
    assert_eq!(start, ["0.0"]);
    // Positional predicate: the second metric.
    let second = gs
        .query_service_data_xpath("/serviceData/metrics/item[2]/text()")
        .unwrap();
    assert_eq!(second, ["runtimesec"]);
    // Value predicate: find the metric element containing 'gflops'.
    let hit = gs
        .query_service_data_xpath("//metrics[item='gflops']/item[1]/text()")
        .unwrap();
    assert_eq!(hit, ["gflops"]);
}

#[test]
fn local_bypass_skips_services_layer() {
    // Thesis §7: a client co-located with the data store should access it
    // directly through its wrapper. Deploy a site, advertise it locally,
    // and verify that handles upgrade to local access while foreign handles
    // stay remote — with identical results either way.
    let node = container();
    let client = Arc::new(HttpClient::new());
    let wrapper = hpl_wrapper();
    let site = Site::deploy(
        &node,
        Arc::clone(&client),
        Arc::clone(&wrapper) as Arc<dyn pperfgrid::ApplicationWrapper>,
        &SiteConfig::new("hpl"),
    )
    .unwrap();
    let factory = FactoryStub::bind(Arc::clone(&client), &site.app_factory);
    let app = ApplicationStub::bind(Arc::clone(&client), &factory.create_service(&[]).unwrap());
    let execs = app.get_all_execs().unwrap();

    let local_sites = pperfgrid::LocalSites::new();
    local_sites.advertise(&site.exec_factories[0], wrapper);

    let access = local_sites.open(Arc::clone(&client), &execs[0]).unwrap();
    assert!(
        access.is_local(),
        "co-located handle upgrades to local access"
    );
    let local_rows = access.get_pr(&pr_query("gflops")).unwrap();
    assert_eq!(access.get_metrics().unwrap(), ["gflops", "runtimesec"]);
    assert_eq!(access.get_types().unwrap(), ["hpl"]);
    assert!(access.get_info().unwrap().iter().any(|(n, _)| n == "runid"));

    // The remote path returns the same data.
    let remote = ExecutionStub::bind(Arc::clone(&client), &execs[0]);
    assert_eq!(remote.get_pr(&pr_query("gflops")).unwrap(), local_rows);

    // A handle from an unadvertised site stays remote.
    let other_node = container();
    let other_site = Site::deploy(
        &other_node,
        Arc::clone(&client),
        hpl_wrapper(),
        &SiteConfig::new("hpl"),
    )
    .unwrap();
    let other_factory = FactoryStub::bind(Arc::clone(&client), &other_site.app_factory);
    let other_app = ApplicationStub::bind(
        Arc::clone(&client),
        &other_factory.create_service(&[]).unwrap(),
    );
    let other_execs = other_app.get_all_execs().unwrap();
    let access = local_sites
        .open(Arc::clone(&client), &other_execs[0])
        .unwrap();
    assert!(!access.is_local(), "foreign handle stays remote");
    assert_eq!(access.get_pr(&pr_query("gflops")).unwrap().len(), 1);
}

#[test]
fn least_loaded_placement_balances_toward_idle_host() {
    // The runtime-adaptive distribution §6.5 leaves to future work: a
    // Manager that probes host load instead of blindly interleaving.
    let host_a = container();
    let host_b = container();
    let client = Arc::new(HttpClient::new());
    // 16 executions so the balancing phases below never run out of ids.
    let wide = || -> Arc<HplSqlWrapper> {
        Arc::new(HplSqlWrapper::new(
            HplStore::build(HplSpec {
                num_execs: 16,
                ..HplSpec::default()
            })
            .database()
            .clone(),
        ))
    };
    let site = Site::deploy_replicated(
        &host_a,
        &[(&host_a, wide()), (&host_b, wide())],
        Arc::clone(&client),
        &SiteConfig::new("hpl"),
    )
    .unwrap();

    // Pre-load host A with 4 instances created directly through its factory,
    // simulating existing load from another query session.
    let factory_a = FactoryStub::bind(Arc::clone(&client), &site.exec_factories[0]);
    for runid in 100..104 {
        factory_a
            .create_service(&[("execId", pperf_soap::Value::from(runid.to_string()))])
            .unwrap();
    }
    assert_eq!(host_a.live_instances(), 4);
    assert_eq!(host_b.live_instances(), 0);

    // A least-loaded Manager placing 4 new instances should send them all to
    // the idle host B until the loads equalize.
    let manager = pperfgrid::Manager::with_placement(
        Arc::clone(&client),
        site.exec_factories.clone(),
        pperfgrid::Placement::LeastLoaded,
    );
    let ids: Vec<String> = (104..108).map(|i| i.to_string()).collect();
    let gshs = manager.get_execs(&ids, None).unwrap();
    let on_b = gshs
        .iter()
        .filter(|g| g.as_str().starts_with(&host_b.base_url()))
        .count();
    assert_eq!(on_b, 4, "all new placements go to the idle host");
    assert_eq!(host_b.live_instances(), 4);

    // Once balanced, further placements spread across both hosts.
    let more: Vec<String> = (108..112).map(|i| i.to_string()).collect();
    let gshs = manager.get_execs(&more, None).unwrap();
    let more_on_a = gshs
        .iter()
        .filter(|g| g.as_str().starts_with(&host_a.base_url()))
        .count();
    assert_eq!(more_on_a, 2, "balanced hosts alternate");
    assert_eq!(host_a.live_instances(), 6);
    assert_eq!(host_b.live_instances(), 6);
}

/// Bind one Execution instance of a fresh HPL site on `node`.
fn hpl_execution(node: &Container, client: &Arc<HttpClient>) -> pperf_ogsi::Gsh {
    let site = Site::deploy(
        node,
        Arc::clone(client),
        hpl_wrapper(),
        &SiteConfig::new("hpl"),
    )
    .unwrap();
    let factory = FactoryStub::bind(Arc::clone(client), &site.app_factory);
    let app = ApplicationStub::bind(Arc::clone(client), &factory.create_service(&[]).unwrap());
    app.get_all_execs().unwrap().remove(0)
}

/// The Execution PortType is thesis Table 2's six operations, in the
/// table's order — in the description the factory and its instances
/// share, and in what a live instance publishes at `?wsdl`.
#[test]
fn execution_port_type_is_table2() {
    const TABLE2: [&str; 6] = [
        "getInfo",
        "getFoci",
        "getMetrics",
        "getTypes",
        "getTimeStartEnd",
        "getPR",
    ];
    let names = |desc: &pperf_soap::wsdl::ServiceDescription| -> Vec<String> {
        assert_eq!(desc.port_types.len(), 1, "one PortType: Execution");
        assert_eq!(desc.port_types[0].name, "Execution");
        (desc.port_types[0].operations.iter())
            .map(|op| op.name.clone())
            .collect()
    };
    assert_eq!(
        names(&pperfgrid::execution::execution_description()),
        TABLE2
    );

    let node = container();
    let client = Arc::new(HttpClient::new());
    let exec = hpl_execution(&node, &client);
    let published = ServiceStub::new(Arc::clone(&client), exec)
        .fetch_description()
        .unwrap();
    assert_eq!(names(&published), TABLE2);
}

/// A framed call whose entries name a streamed operation (`getPR`) and one
/// with no streaming form (`getInfo`): the second seals alone with a client
/// fault naming the operation, the first completes with trailer-verified
/// rows, and the container counts one entry fault.
#[test]
fn framed_entry_without_a_streaming_form_seals_alone() {
    let node = container();
    let client = Arc::new(HttpClient::new());
    let exec = hpl_execution(&node, &client);
    let query = pr_query("gflops");
    let expected = ExecutionStub::bind(Arc::clone(&client), &exec)
        .get_pr(&query)
        .unwrap();
    let path = exec.url().path;
    let entries = [
        BatchEntry::new(
            path.clone(),
            "getPR",
            pperfgrid::EXECUTION_NS,
            &ExecutionStub::pr_params(&query),
        ),
        BatchEntry::new(path, "getInfo", pperfgrid::EXECUTION_NS, &[]),
    ];
    let faults_before = node.batch_stream_counters().4;

    let mut rows: Vec<Vec<String>> = vec![Vec::new(); entries.len()];
    let answer = ServiceStub::new(Arc::clone(&client), exec)
        .call_batch_stream(
            &entries,
            &CallContext::with_budget(Duration::from_secs(10)),
            &mut |entry, got| {
                rows[entry].extend(got);
                true
            },
        )
        .unwrap()
        .expect("the container serves the framed route");

    assert!(!answer.cancelled);
    match &answer.entries[0] {
        BatchStreamEntryOutcome::Done { rows: n } => assert_eq!(*n as usize, expected.len()),
        other => panic!("getPR entry must seal with its trailer: {other:?}"),
    }
    assert_eq!(rows[0], expected);
    match &answer.entries[1] {
        BatchStreamEntryOutcome::Fault(fault) => {
            assert_eq!(fault.code, FaultCode::Client);
            assert!(fault.string.contains("getInfo"), "{}", fault.string);
        }
        other => panic!("getInfo entry must seal with a fault: {other:?}"),
    }
    assert!(rows[1].is_empty());
    assert_eq!(node.batch_stream_counters().4, faults_before + 1);
}
