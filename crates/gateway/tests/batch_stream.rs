//! Interleaved batch-stream integration: a mixed fleet of batch-stream and
//! buffered-batch sites must federate identically, a site killed mid-entry
//! costs exactly the unsealed entry (sealed siblings keep their rows), a
//! consumer hangup abandons the whole batch at a frame boundary, and a
//! stale `supportsBatchStream` advertisement downgrades to the buffered
//! multi-call once and is then remembered. A cleanly ended batch stream
//! leaves its connection pooled, and a container on one CPU answers a batch
//! with one producer, entry by entry in request order.

use pperf_gateway::{FederatedGateway, FederatedQuery, GatewayConfig, SiteErrorKind};
use pperf_httpd::{HttpClient, Request};
use pperf_ogsi::{
    BatchStreamEntryOutcome, Container, ContainerConfig, FactoryStub, Gsh, RegistryService,
    RegistryStub, ServiceStub,
};
use pperf_soap::{
    encode_binary_batch_call, BatchEntry, BatchStreamEvent, BatchStreamReader, BINARY_CONTENT_TYPE,
    STREAM_CONTENT_TYPE,
};
use pperfgrid::wrappers::{MemApplicationWrapper, MemExecution};
use pperfgrid::{
    ApplicationStub, ApplicationWrapper, ExecutionStub, PrQuery, Site, SiteConfig, EXECUTION_NS,
    STREAM_BATCH_ROWS,
};
use ppg_context::CallContext;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_container(config: ContainerConfig) -> Arc<Container> {
    Container::start("127.0.0.1:0", config).unwrap()
}

fn registry_on(container: &Container) -> Gsh {
    container
        .deploy_service("registry", Arc::new(RegistryService::new()))
        .unwrap()
}

fn mem_wrapper(execs: usize, rows_per_exec: usize) -> MemApplicationWrapper {
    delayed_wrapper(execs, rows_per_exec, None)
}

/// Like [`mem_wrapper`], with every scan taking `delay` — so entries that
/// run on parallel producers seal out of request order.
fn delayed_wrapper(
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

/// A wide slow execution whose scan spans many stream frames: ~90-byte rows
/// trickled one [`STREAM_BATCH_ROWS`] batch per `delay`.
fn wide_exec(rows: usize, delay: Duration) -> MemExecution {
    let mut exec = MemExecution {
        info: vec![("runid".into(), "wide".into())],
        foci: vec!["/Execution".into()],
        metrics: vec!["gflops".into()],
        types: vec!["MEM".into()],
        time: ("0".into(), "10".into()),
        query_delay: Some(delay),
        ..Default::default()
    };
    exec.results.insert(
        ("gflops".into(), "/Execution".into()),
        (0..rows)
            .map(|r| format!("gflops|{r:06}|{}", "x".repeat(80)))
            .collect(),
    );
    exec
}

fn publish(client: &Arc<HttpClient>, registry: &Gsh, org: &str, site: &Site) {
    let stub = RegistryStub::bind(Arc::clone(client), registry);
    stub.register_organization(org, "test").unwrap();
    site.publish(&stub, org, "store").unwrap();
}

/// Rows per site, sorted — handle-independent result shape for comparison
/// across gateways and wire planes.
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

fn batch_config() -> GatewayConfig {
    GatewayConfig::default()
        .with_cache(false)
        .with_hedging(None)
        .with_retries(0, Duration::from_millis(5))
        .with_call_timeout(Duration::from_secs(10))
}

/// A fleet mixing a batch-stream site with one that still batches buffered
/// must answer exactly like an all-per-call gateway — the interleaved wire
/// is a transport optimization, never a semantic change — and the counters
/// must show which plane each site actually rode.
#[test]
fn mixed_fleet_batch_stream_and_buffered_sites_agree() {
    let client = Arc::new(HttpClient::new());
    let c_new = start_container(ContainerConfig::default());
    let c_old = start_container(ContainerConfig::default());
    let registry = registry_on(&c_new);

    let new_site = Site::deploy(
        &c_new,
        Arc::clone(&client),
        Arc::new(mem_wrapper(3, 2)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("new"),
    )
    .unwrap();
    // Batches and streams, but predates the interleaved batch wire.
    let old_site = Site::deploy(
        &c_old,
        Arc::clone(&client),
        Arc::new(mem_wrapper(3, 2)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("old").with_batch_stream_advertised(false),
    )
    .unwrap();
    publish(&client, &registry, "NEW", &new_site);
    publish(&client, &registry, "OLD", &old_site);

    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);
    let gateway = FederatedGateway::new(Arc::clone(&client), registry.clone(), batch_config());
    let result = gateway.query(&query);
    assert!(result.errors.is_empty(), "{:?}", result.errors);
    assert_eq!(result.rows.len(), 6);
    // One interleaved stream for the capable site, one buffered multi-call
    // for the legacy one.
    assert_eq!(result.upstream_calls, 2);
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.batch_streams, 1);
    assert_eq!(snapshot.batch_stream_entries, 3);
    assert_eq!(snapshot.batch_stream_truncated, 0);
    assert_eq!(snapshot.batch_stream_fallback_calls, 0, "no downgrades");
    assert_eq!(snapshot.batched_calls, 1, "OLD rode the buffered batch");
    assert_eq!(snapshot.batch_entries, 3);
    // Container-side agreement: only the capable container saw the
    // interleaved route, and it saw no buffered batch at all.
    let (calls, entries, frames, rows, faults) = c_new.batch_stream_counters();
    assert_eq!((calls, entries, faults), (1, 3, 0));
    assert!(
        frames >= 1 + 3 * 2,
        "head + per-entry head/trailer: {frames}"
    );
    assert_eq!(rows, 6);
    assert_eq!(c_new.batch_counters(), (0, 0));
    assert_eq!(c_old.batch_stream_counters().0, 0);

    // Identical FederatedResult from an all-per-call gateway.
    let per_call_gw = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        batch_config().with_batching(false),
    );
    let per_call = per_call_gw.query(&query);
    assert!(per_call.errors.is_empty(), "{:?}", per_call.errors);
    assert_eq!(per_call.upstream_calls, 6);
    assert_eq!(per_call_gw.snapshot().batch_streams, 0);
    assert_eq!(rows_by_site(&result), rows_by_site(&per_call));
    assert_eq!(result.sites_total, per_call.sites_total);
}

/// A site killed while one entry of its batch is still streaming costs
/// exactly that entry: sealed sibling entries keep their rows un-truncated,
/// the unsealed one degrades to flagged partial rows plus one structured
/// error — never a whole-batch failure and never silent row loss.
#[test]
fn mid_entry_kill_truncates_only_the_unsealed_entry() {
    let client = Arc::new(HttpClient::new());
    let c1 = start_container(ContainerConfig::default());
    let c2 = start_container(ContainerConfig::default());
    let registry = registry_on(&c1);

    // Two tiny entries seal almost immediately; the wide one trickles a
    // ~23KB batch every 120ms so the shutdown lands mid-entry.
    let doomed_rows = 12 * STREAM_BATCH_ROWS;
    let app = mem_wrapper(2, 2);
    app.add_execution(
        "mem-wide",
        wide_exec(doomed_rows, Duration::from_millis(120)),
    );
    let site = Site::deploy(
        &c2,
        Arc::clone(&client),
        Arc::new(app) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("doomed"),
    )
    .unwrap();
    publish(&client, &registry, "DOOMED", &site);

    let gateway = FederatedGateway::new(Arc::clone(&client), registry.clone(), batch_config());
    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);
    let gw = Arc::clone(&gateway);
    let q = query.clone();
    let handle = std::thread::spawn(move || gw.query(&q));
    std::thread::sleep(Duration::from_millis(500));
    c2.shutdown();
    let result = handle.join().unwrap();

    // The sealed entries' rows are intact and complete.
    let sealed: Vec<_> = result
        .rows
        .iter()
        .filter(|r| r.site == "DOOMED/doomed" && !r.truncated)
        .collect();
    assert_eq!(sealed.len(), 2, "errors: {:?}", result.errors);
    assert!(sealed.iter().all(|r| r.rows.len() == 2));
    // The unsealed entry degraded to a flagged strict prefix of its scan.
    let partial: Vec<_> = result
        .rows
        .iter()
        .filter(|r| r.site == "DOOMED/doomed" && r.truncated)
        .collect();
    assert_eq!(partial.len(), 1, "rows: {:?}", result.rows.len());
    assert!(
        !partial[0].rows.is_empty() && partial[0].rows.len() < doomed_rows,
        "a strict prefix of the scan: {} of {doomed_rows}",
        partial[0].rows.len()
    );
    assert!(
        result
            .errors
            .iter()
            .any(|e| e.site == "DOOMED/doomed" && e.kind == SiteErrorKind::Truncated),
        "errors: {:?}",
        result.errors
    );
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.batch_streams, 1);
    assert!(snapshot.batch_stream_truncated >= 1);
}

/// Poll `predicate` for up to `timeout` — producer-side consequences of a
/// consumer hangup are asynchronous.
fn wait_for(timeout: Duration, mut predicate: impl FnMut() -> bool) -> bool {
    let give_up = Instant::now() + timeout;
    while Instant::now() < give_up {
        if predicate() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    predicate()
}

/// A consumer hanging up after the first frame abandons the *whole* batch
/// stream at that frame boundary: every unsealed entry reports truncated,
/// `cancelled` is set, and the producers abort their scans instead of
/// rendering the remaining batches into a dead socket.
#[test]
fn consumer_cancel_abandons_batch_at_frame_boundary() {
    let client = Arc::new(HttpClient::new());
    let container = start_container(ContainerConfig::default());
    // Two slow wide entries: each is 24 batches × 100ms ≈ 2.4s of scan,
    // far more than the consumer will take.
    let per_entry_rows = 24 * STREAM_BATCH_ROWS;
    let app = MemApplicationWrapper::new(vec![("name", "WideApp")]);
    app.add_execution(
        "wide-0",
        wide_exec(per_entry_rows, Duration::from_millis(100)),
    );
    app.add_execution(
        "wide-1",
        wide_exec(per_entry_rows, Duration::from_millis(100)),
    );
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        Arc::new(app) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("slow"),
    )
    .unwrap();

    // Bind straight to the Executions the way the gateway's planner would.
    let factory = FactoryStub::bind(Arc::clone(&client), &site.app_factory);
    let app = ApplicationStub::bind(Arc::clone(&client), &factory.create_service(&[]).unwrap());
    let execs = app.get_all_execs().unwrap();
    assert_eq!(execs.len(), 2);

    let query = PrQuery {
        metric: "gflops".into(),
        foci: vec!["/Execution".into()],
        start: String::new(),
        end: String::new(),
        rtype: String::new(),
    };
    let entries: Vec<BatchEntry> = execs
        .iter()
        .map(|gsh| {
            BatchEntry::new(
                gsh.url().path,
                "getPR",
                EXECUTION_NS,
                &ExecutionStub::pr_params(&query),
            )
        })
        .collect();
    let stub = ServiceStub::new(Arc::clone(&client), execs[0].clone());
    let ctx = CallContext::with_budget(Duration::from_secs(10));
    let mut delivered = 0usize;
    let streamed = stub
        .call_batch_stream(&entries, &ctx, &mut |_entry, rows| {
            delivered += rows.len();
            false // stop after the very first frame of either entry
        })
        .unwrap()
        .expect("peer speaks the batch-stream wire");

    assert!(streamed.cancelled, "sink refusal is a cancel, not an error");
    assert!(
        delivered > 0 && delivered < per_entry_rows,
        "exactly the first frame's rows arrived: {delivered}"
    );
    // Neither slow entry had sealed: both report truncated with the
    // abandonment as the reason, no invented faults.
    assert_eq!(streamed.entries.len(), 2);
    for outcome in &streamed.entries {
        match outcome {
            BatchStreamEntryOutcome::Truncated { detail, .. } => {
                assert!(detail.contains("abandoned by consumer"), "{detail}");
            }
            other => panic!("unsealed entry must truncate: {other:?}"),
        }
    }
    // The producers notice the hangup at the next frame boundary and abort:
    // the row counter settles far short of the full two-entry scan.
    assert!(
        wait_for(Duration::from_secs(5), || {
            let before = container.batch_stream_counters().3;
            std::thread::sleep(Duration::from_millis(250));
            let after = container.batch_stream_counters().3;
            before == after && (after as usize) < 2 * per_entry_rows
        }),
        "producers must abort mid-scan: {:?}",
        container.batch_stream_counters()
    );
}

/// A stale `supportsBatchStream` advertisement (the route 404s) costs one
/// transparent downgrade to the buffered multi-call — never a failed query —
/// and the authority is remembered so later queries skip the dead probe.
#[test]
fn stale_batch_stream_advertisement_falls_back_and_is_remembered() {
    let client = Arc::new(HttpClient::new());
    // Streaming routes off, but the site still advertises the interleaved
    // wire — the model of a stale capability record.
    let container = start_container(ContainerConfig {
        streaming_enabled: false,
        ..ContainerConfig::default()
    });
    let registry = registry_on(&container);
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        Arc::new(mem_wrapper(2, 2)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("stale"),
    )
    .unwrap();
    publish(&client, &registry, "STALE", &site);

    let gateway = FederatedGateway::new(Arc::clone(&client), registry.clone(), batch_config());
    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);

    let first = gateway.query(&query);
    assert!(first.errors.is_empty(), "{:?}", first.errors);
    assert_eq!(first.total_rows(), 4, "fallback is transparent");
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.batch_streams, 0);
    assert_eq!(
        snapshot.batch_stream_fallback_calls, 1,
        "one dead probe, then the authority is remembered"
    );
    assert_eq!(snapshot.batched_calls, 1, "the batch stayed one exchange");
    assert_eq!(snapshot.batch_entries, 2);

    let second = gateway.query(&query);
    assert!(second.errors.is_empty(), "{:?}", second.errors);
    assert_eq!(second.total_rows(), 4);
    let snapshot = gateway.snapshot();
    assert_eq!(
        snapshot.batch_stream_fallback_calls, 1,
        "later queries skip the probe entirely"
    );
    assert_eq!(snapshot.batched_calls, 2);
    assert_eq!(
        container.batch_stream_counters().0,
        0,
        "the dead route never counted a stream"
    );
}

/// Fifty sequential federated queries against one batch-stream site
/// (registry on the same container, caches off, so every query streams a
/// batch) open no connection beyond those the first query's bind opened:
/// each stream ends with its terminator and its socket goes back to the
/// pool for the next exchange. (The bind reads four capabilities
/// concurrently, so it may open up to four; the pool keeps them all.)
#[test]
fn sequential_batch_stream_queries_reuse_pooled_connections() {
    let setup = Arc::new(HttpClient::new());
    let container = start_container(ContainerConfig::default());
    let registry = registry_on(&container);
    let site = Site::deploy(
        &container,
        Arc::clone(&setup),
        Arc::new(mem_wrapper(3, 2)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("pooled"),
    )
    .unwrap();
    publish(&setup, &registry, "POOLED", &site);

    let client = Arc::new(HttpClient::new());
    let gateway = FederatedGateway::new(Arc::clone(&client), registry, batch_config());
    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);
    let bind = gateway.query(&query);
    assert!(bind.errors.is_empty(), "{:?}", bind.errors);
    let bound = gateway.snapshot().http_connections_opened;
    assert!((1..=4).contains(&bound), "bind opened {bound}");
    for _ in 0..50 {
        let result = gateway.query(&query);
        assert!(result.errors.is_empty(), "{:?}", result.errors);
        assert_eq!(result.total_rows(), 6);
    }
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.batch_streams, 51, "every query streamed its batch");
    assert_eq!(snapshot.batch_stream_fallback_calls, 0);
    assert_eq!(
        snapshot.http_connections_opened, bound,
        "pooled connections carried every later exchange"
    );
    assert_eq!(client.connections_opened(), bound);
}

/// Deploy `app` as a site on `container` and bind one `getPR` batch entry
/// per Execution instance, the way the gateway's planner would.
fn bound_entries(
    container: &Container,
    client: &Arc<HttpClient>,
    app: MemApplicationWrapper,
) -> Vec<BatchEntry> {
    let site = Site::deploy(
        container,
        Arc::clone(client),
        Arc::new(app) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("wide"),
    )
    .unwrap();
    let factory = FactoryStub::bind(Arc::clone(client), &site.app_factory);
    let app = ApplicationStub::bind(Arc::clone(client), &factory.create_service(&[]).unwrap());
    let query = PrQuery {
        metric: "gflops".into(),
        foci: vec!["/Execution".into()],
        start: String::new(),
        end: String::new(),
        rtype: String::new(),
    };
    (app.get_all_execs().unwrap().iter())
        .map(|gsh| {
            BatchEntry::new(
                gsh.url().path,
                "getPR",
                EXECUTION_NS,
                &ExecutionStub::pr_params(&query),
            )
        })
        .collect()
}

/// Send `entries` to `container`'s `/ogsa/batch-stream` and read the raw
/// interleaved sections: the order entries sealed in (each seal verified
/// its row count and checksum) and each entry's rows.
fn stream_batch(
    container: &Container,
    client: &HttpClient,
    entries: &[BatchEntry],
) -> (Vec<u32>, Vec<Vec<String>>) {
    let url =
        pperf_httpd::Url::parse(&format!("{}/ogsa/batch-stream", container.base_url())).unwrap();
    let frame = encode_binary_batch_call(entries, None);
    let mut request = Request::post(url.path.clone(), BINARY_CONTENT_TYPE, frame);
    request.headers.set("Accept", STREAM_CONTENT_TYPE);
    let mut stream = client.send_streaming(&url, &request, None).unwrap();
    assert!(stream.is_chunked());
    let mut reader = BatchStreamReader::new();
    let mut sealed = Vec::new();
    let mut rows = vec![Vec::new(); entries.len()];
    let mut buf = [0u8; 8192];
    loop {
        while let Some(event) = reader.next_event().unwrap() {
            match event {
                BatchStreamEvent::EntryRows { entry, rows: got } => {
                    rows[entry as usize].extend(got);
                }
                BatchStreamEvent::EntryEnd { entry, rows: count } => {
                    assert_eq!(count as usize, rows[entry as usize].len());
                    sealed.push(entry);
                }
                BatchStreamEvent::EntryFault { entry, fault } => {
                    panic!("entry {entry} faulted: {fault:?}")
                }
                BatchStreamEvent::Begin { .. } | BatchStreamEvent::EntryOpen { .. } => {}
            }
        }
        match stream.read_data(&mut buf).unwrap() {
            0 => break,
            n => reader.feed(&buf[..n]),
        }
    }
    assert!(reader.finished(), "every declared entry sealed");
    (sealed, rows)
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confine the calling thread (and threads it starts afterwards) to the
/// first CPU it may run on. Returns whether the kernel agreed.
fn pin_to_one_cpu() -> bool {
    // A Linux `cpu_set_t`: 1 024 CPUs in 16 words.
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `bytes` bytes; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = mask.iter().position(|w| *w != 0) else {
        return false;
    };
    let mut one = [0u64; 16];
    one[word] = 1 << mask[word].trailing_zeros();
    // SAFETY: `one` is a readable buffer of exactly `bytes` bytes naming a
    // CPU the thread was already allowed on.
    unsafe { sched_setaffinity(0, bytes, one.as_ptr()) == 0 }
}

/// A container started on a thread pinned to one CPU sizes its batch
/// producers to that CPU: a 16-entry batch stream is answered by one
/// producer, so entries seal strictly in request order (each scan takes
/// 10 ms, so two producers would seal them interleaved). The same batch
/// answered by an unpinned container (however many producers it runs)
/// carries identical rows per entry.
#[test]
fn one_cpu_container_streams_a_batch_with_one_producer() {
    let pinned = std::thread::spawn(|| {
        assert!(pin_to_one_cpu(), "sched_setaffinity refused");
        start_container(ContainerConfig::default())
    })
    .join()
    .unwrap();
    let unpinned = start_container(ContainerConfig::default());
    let client = Arc::new(HttpClient::new());
    let app = || delayed_wrapper(16, 3, Some(Duration::from_millis(10)));
    let pinned_entries = bound_entries(&pinned, &client, app());
    let unpinned_entries = bound_entries(&unpinned, &client, app());
    assert_eq!(pinned_entries.len(), 16);

    let (order, pinned_rows) = stream_batch(&pinned, &client, &pinned_entries);
    assert_eq!(
        order,
        (0..16).collect::<Vec<u32>>(),
        "one producer, in order"
    );
    let (mut other_order, unpinned_rows) = stream_batch(&unpinned, &client, &unpinned_entries);
    other_order.sort_unstable();
    assert_eq!(other_order, order, "every entry sealed once");
    assert_eq!(pinned_rows, unpinned_rows);
    assert!(pinned_rows.iter().all(|rows| rows.len() == 3));
}
