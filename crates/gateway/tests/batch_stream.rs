//! The framed route (`POST /ogsa/batch-stream`) end to end: a site killed
//! mid-entry costs exactly the unsealed entry (sealed siblings keep their
//! rows), a consumer hangup abandons the whole call at a frame boundary, a
//! per-entry fault or deadline costs exactly that entry, a one-entry scan
//! streams through a bounded in-flight window, a multi-metric query shares
//! one exchange, a rowless truncation after the leg expired is a timeout,
//! and a stale advertisement downgrades to per-call SOAP/XML once and is
//! then remembered. A framed site and a buffered one in the same fleet
//! answer the same rows. A cleanly ended framed call leaves its connection
//! pooled, and a container on one CPU answers a call with one producer,
//! entry by entry in request order. (Answers agreeing across routes over
//! generated fleets is `wire_equivalence.rs`.)

use pperf_gateway::{FederatedGateway, FederatedQuery, GatewayConfig, SiteErrorKind};
use pperf_httpd::{HttpClient, Request};
use pperf_ogsi::{
    BatchStreamEntryOutcome, Container, ContainerConfig, FactoryStub, Gsh, RegistryService,
    RegistryStub, ServiceStub, StreamWire,
};
use pperf_soap::{
    encode_binary_batch_call, BatchEntry, BatchStreamEvent, BatchStreamReader, BINARY_CONTENT_TYPE,
    DEFAULT_STREAM_FRAME_BYTES, STREAM_CONTENT_TYPE,
};
use pperfgrid::wrappers::{MemApplicationWrapper, MemExecution};
use pperfgrid::{
    ApplicationStub, ApplicationWrapper, ExecutionStub, PrQuery, Site, SiteConfig, EXECUTION_NS,
    STREAM_BATCH_ROWS,
};
use ppg_context::CallContext;
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

fn batch_config() -> GatewayConfig {
    GatewayConfig::default()
        .with_cache(false)
        .with_hedging(None)
        .with_retries(0, Duration::from_millis(5))
        .with_call_timeout(Duration::from_secs(10))
}

/// A fleet mixing a framed site with one answered buffered (per-call
/// SOAP/XML, no framed advertisement) returns the same rows from both — the
/// interleaved wire is a transport optimization, never a semantic change —
/// and the counters on both ends show which route each site rode.
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
    let gateway = FederatedGateway::new(Arc::clone(&client), registry.clone(), batch_config());
    let result = gateway.query(&query);
    assert!(result.errors.is_empty(), "{:?}", result.errors);
    assert_eq!(result.rows.len(), 6);
    // One interleaved stream for the capable site, one buffered call per
    // target for the other.
    assert_eq!(result.upstream_calls, 4);
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.batch_streams, 1);
    assert_eq!(snapshot.batch_stream_entries, 3);
    assert_eq!(snapshot.batch_stream_truncated, 0);
    assert_eq!(snapshot.batch_stream_fallback_calls, 0, "no downgrades");
    assert_eq!(snapshot.xml_calls, 3, "OLD rode buffered per-call XML");
    // Container-side agreement: only the capable container saw the
    // interleaved route.
    let (calls, entries, frames, rows, faults) = c_new.batch_stream_counters();
    assert_eq!((calls, entries, faults), (1, 3, 0));
    assert!(
        frames >= 1 + 3 * 2,
        "head + per-entry head/trailer: {frames}"
    );
    assert_eq!(rows, 6);
    assert_eq!(c_old.batch_stream_counters().0, 0);

    let mut by_site: std::collections::BTreeMap<&str, Vec<&String>> = Default::default();
    for site_rows in &result.rows {
        by_site
            .entry(site_rows.site.as_str())
            .or_default()
            .extend(site_rows.rows.iter());
    }
    for rows in by_site.values_mut() {
        rows.sort();
    }
    assert_eq!(by_site.len(), 2);
    assert_eq!(by_site["NEW/new"], by_site["OLD/old"]);
    assert_eq!(result.sites_total, 2);
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

/// A stale framed-route advertisement (the container 404s the route) costs
/// one transparent downgrade to per-call SOAP/XML — never a failed query,
/// the stub's span names the cause — and the authority is remembered so
/// later queries skip the dead probe.
#[test]
fn stale_batch_stream_advertisement_falls_back_and_is_remembered() {
    let client = Arc::new(HttpClient::new());
    // The framed route off, but the site still advertises it — the model of
    // a stale capability record.
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
    assert!(
        (first.trace.iter()).any(|s| s.layer == "ogsi.stub" && s.outcome == "downgrade:http-404"),
        "the downgrade names its cause: {:?}",
        first.trace
    );
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.batch_streams, 0);
    assert_eq!(
        snapshot.batch_stream_fallback_calls, 1,
        "one dead probe, then the authority is remembered"
    );
    assert_eq!(snapshot.xml_calls, 2, "the held entries re-sent per-call");

    let second = gateway.query(&query);
    assert!(second.errors.is_empty(), "{:?}", second.errors);
    assert_eq!(second.total_rows(), 4);
    let snapshot = gateway.snapshot();
    assert_eq!(
        snapshot.batch_stream_fallback_calls, 1,
        "later queries skip the probe entirely"
    );
    assert_eq!(snapshot.xml_calls, 4);
    assert_eq!(
        container.batch_stream_counters().0,
        0,
        "the dead route never counted a framed call"
    );
}

/// Fifty sequential federated queries against one framed site (registry on
/// the same container, caches off, so every query makes a framed call) open
/// no connection beyond the one the first query opened: the bind's calls,
/// its one capability read included, run one after another on it, and each
/// stream ends with its terminator so its socket goes back to the pool for
/// the next exchange.
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
    assert_eq!(bound, 1, "the bind's calls shared one connection");
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

/// A one-execution site whose rows are ~90 bytes wide, so a full scan spans
/// many stream frames. An optional per-batch delay makes the stream last
/// long enough for mid-flight events to land.
fn wide_wrapper(rows: usize, delay: Option<Duration>) -> MemApplicationWrapper {
    let app = MemApplicationWrapper::new(vec![("name", "WideApp")]);
    let mut exec = wide_exec(rows, delay.unwrap_or_default());
    exec.query_delay = delay;
    app.add_execution("mem-0", exec);
    app
}

/// A one-target site is a one-entry framed call: its scan crosses the
/// federation frame by frame, and the shared in-flight window bounds what
/// the producer queues ahead of the socket.
#[test]
fn large_scan_streams_with_bounded_inflight_window() {
    let client = Arc::new(HttpClient::new());
    let window = 4 * 1024;
    let container = start_container(ContainerConfig {
        stream_window_bytes: window,
        ..ContainerConfig::default()
    });
    let registry = registry_on(&container);
    let rows = 4096usize;
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        Arc::new(wide_wrapper(rows, None)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("wide"),
    )
    .unwrap();
    publish(&client, &registry, "WIDE", &site);

    let gateway = FederatedGateway::new(Arc::clone(&client), registry.clone(), batch_config());
    let result = gateway.query(&FederatedQuery::new("gflops", vec!["/Execution".into()]));
    assert!(result.errors.is_empty(), "{:?}", result.errors);
    assert_eq!(result.total_rows(), rows);

    // The producer may queue at most the window plus the frame it is
    // finishing; the scan itself is more than 8× that, so the bound is
    // only holdable if backpressure really parks the producer.
    let bound = (window + DEFAULT_STREAM_FRAME_BYTES + 1024) as u64;
    let payload: u64 = (result.rows.iter())
        .flat_map(|r| r.rows.iter())
        .map(|r| r.len() as u64)
        .sum();
    assert!(
        payload >= 8 * bound,
        "scan must dwarf the window: {payload}"
    );
    let peak = container.batch_stream_peak_queued();
    assert!(
        peak > 0 && peak <= bound,
        "in-flight window must bound producer memory: peak {peak}, bound {bound}"
    );

    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.batch_streams, 1, "one target, one framed call");
    assert_eq!(snapshot.batch_stream_entries, 1);
    assert_eq!(snapshot.batch_stream_fallback_calls, 0);
    assert_eq!(snapshot.batch_stream_truncated, 0);
    let (calls, entries, frames, sent_rows, faults) = container.batch_stream_counters();
    assert_eq!((calls, entries, faults), (1, 1, 0));
    assert!(frames >= 8, "{frames}");
    assert_eq!(sent_rows, rows as u64);
}

/// A one-entry framed call whose site dies mid-scan degrades to a partial
/// answer: the frames that arrived stand, flagged truncated, beside one
/// structured error — not a query failure and not silent row loss.
#[test]
fn site_killed_mid_stream_yields_truncated_partial_rows() {
    let client = Arc::new(HttpClient::new());
    let c1 = start_container(ContainerConfig::default());
    let c2 = start_container(ContainerConfig::default());
    let registry = registry_on(&c1);

    let fast = Site::deploy(
        &c1,
        Arc::clone(&client),
        Arc::new(wide_wrapper(8, None)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("fast"),
    )
    .unwrap();
    // The doomed scan trickles one ~23KB batch every 120ms, so frames are
    // in flight for well over a second — the shutdown lands mid-stream.
    let doomed_rows = 12 * STREAM_BATCH_ROWS;
    let doomed = Site::deploy(
        &c2,
        Arc::clone(&client),
        Arc::new(wide_wrapper(doomed_rows, Some(Duration::from_millis(120))))
            as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("doomed"),
    )
    .unwrap();
    publish(&client, &registry, "FAST", &fast);
    publish(&client, &registry, "DOOMED", &doomed);

    let gateway = FederatedGateway::new(Arc::clone(&client), registry.clone(), batch_config());
    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);
    let gw = Arc::clone(&gateway);
    let q = query.clone();
    let handle = std::thread::spawn(move || gw.query(&q));
    std::thread::sleep(Duration::from_millis(500));
    c2.shutdown();
    let result = handle.join().unwrap();

    let survivor = (result.rows.iter()).filter(|r| r.site == "FAST/fast" && !r.truncated);
    assert_eq!(survivor.count(), 1, "errors: {:?}", result.errors);
    let partial: Vec<_> = (result.rows.iter())
        .filter(|r| r.site == "DOOMED/doomed")
        .collect();
    assert_eq!(partial.len(), 1, "rows: {:?}", result.rows.len());
    assert!(partial[0].truncated, "partial rows must be flagged");
    assert!(
        !partial[0].rows.is_empty() && partial[0].rows.len() < doomed_rows,
        "a strict prefix of the scan: {} of {doomed_rows}",
        partial[0].rows.len()
    );
    assert!(
        (result.errors.iter())
            .any(|e| e.site == "DOOMED/doomed" && e.kind == SiteErrorKind::Truncated),
        "errors: {:?}",
        result.errors
    );
    assert!(gateway.snapshot().batch_stream_truncated >= 1);
}

/// `ExecutionStub::get_pr_stream` is a one-entry framed call: a sink that
/// refuses the first frame abandons the stream at that frame boundary, and
/// the producer aborts its scan instead of rendering the rest.
#[test]
fn consumer_cancel_stops_stream_at_frame_boundary() {
    let client = Arc::new(HttpClient::new());
    let container = start_container(ContainerConfig::default());
    // 24 batches × 100ms ≈ 2.4s of scan — far more than the consumer will
    // take; the per-batch delay gives the producer a chance to observe the
    // hangup between batches rather than finish in one burst.
    let total_rows = 24 * STREAM_BATCH_ROWS;
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        Arc::new(wide_wrapper(total_rows, Some(Duration::from_millis(100))))
            as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("slow"),
    )
    .unwrap();
    let factory = FactoryStub::bind(Arc::clone(&client), &site.app_factory);
    let app = ApplicationStub::bind(Arc::clone(&client), &factory.create_service(&[]).unwrap());
    let execs = app.get_all_execs().unwrap();
    assert_eq!(execs.len(), 1);
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
            false // stop after the very first frame
        })
        .unwrap();

    assert!(outcome.cancelled, "sink refusal is a cancel, not an error");
    assert_eq!(outcome.wire, StreamWire::Stream);
    assert!(
        delivered > 0 && delivered < total_rows,
        "exactly the first frame's rows arrived: {delivered} of {total_rows}"
    );
    assert!(
        wait_for(Duration::from_secs(5), || {
            let (calls, _, _, rows, faults) = container.batch_stream_counters();
            calls == 1 && faults >= 1 && (rows as usize) < total_rows
        }),
        "producer must abort mid-scan: {:?}",
        container.batch_stream_counters()
    );
}

/// A site whose executions know `gflops` and `iterations`, two rows each.
fn two_metric_wrapper(execs: usize) -> MemApplicationWrapper {
    let app = MemApplicationWrapper::new(vec![("name", "MemApp")]);
    for i in 0..execs {
        let mut exec = MemExecution {
            info: vec![("runid".into(), i.to_string())],
            foci: vec!["/Execution".into()],
            metrics: vec!["gflops".into(), "iterations".into()],
            types: vec!["MEM".into()],
            time: ("0".into(), "10".into()),
            ..Default::default()
        };
        for metric in ["gflops", "iterations"] {
            let rows = (0..2).map(|r| format!("{metric}|{i}.{r}")).collect();
            exec.results
                .insert((metric.into(), "/Execution".into()), rows);
        }
        app.add_execution(format!("mem-{i}"), exec);
    }
    app
}

/// `extra_metrics` expands each execution into several `getPR` tuples, and
/// every tuple of a host rides the same framed call: a two-metric query
/// over one host costs exactly one wire exchange.
#[test]
fn multi_metric_query_shares_one_frame() {
    let client = Arc::new(HttpClient::new());
    let container = start_container(ContainerConfig::default());
    let registry = registry_on(&container);
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        Arc::new(two_metric_wrapper(3)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("multi"),
    )
    .unwrap();
    publish(&client, &registry, "MULTI", &site);

    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]).also_metric("iterations");
    let gateway = FederatedGateway::new(Arc::clone(&client), registry.clone(), batch_config());
    let result = gateway.query(&query);
    assert!(result.errors.is_empty(), "{:?}", result.errors);
    // 3 executions × 2 tuples, one row-set each.
    assert_eq!(result.rows.len(), 6);
    assert_eq!(result.total_rows(), 12);
    assert_eq!(result.upstream_calls, 1, "all six tuples shared one call");
    let snapshot = gateway.snapshot();
    assert_eq!(
        (snapshot.batch_streams, snapshot.batch_stream_entries),
        (1, 6)
    );
    let (calls, entries, ..) = container.batch_stream_counters();
    assert_eq!((calls, entries), (1, 6));
    let rows: Vec<&String> = result.rows.iter().flat_map(|r| r.rows.iter()).collect();
    assert_eq!(rows.iter().filter(|r| r.starts_with("gflops|")).count(), 6);
    assert_eq!(
        rows.iter().filter(|r| r.starts_with("iterations|")).count(),
        6
    );
}

/// A site with two quick executions plus `extra` (keyed after them, so a
/// one-producer container runs it last).
fn site_with(container: &Container, client: &Arc<HttpClient>, extra: MemExecution) -> Site {
    let app = mem_wrapper(2, 2);
    app.add_execution("mem-x", extra);
    Site::deploy(
        container,
        Arc::clone(client),
        Arc::new(app) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("mem"),
    )
    .unwrap()
}

/// One entry of a framed call faulting (here: an execution that doesn't
/// know the metric) costs exactly that entry — its site still contributes
/// every other execution's rows, plus one structured error.
#[test]
fn per_entry_fault_yields_partial_result_under_batching() {
    let client = Arc::new(HttpClient::new());
    let container = start_container(ContainerConfig::default());
    let registry = registry_on(&container);
    let bad = MemExecution {
        info: vec![("runid".into(), "bad".into())],
        foci: vec!["/Execution".into()],
        metrics: vec!["iterations".into()], // no gflops ⇒ getPR faults
        types: vec!["MEM".into()],
        time: ("0".into(), "10".into()),
        ..Default::default()
    };
    let site = site_with(&container, &client, bad);
    publish(&client, &registry, "MEM", &site);

    let gateway = FederatedGateway::new(Arc::clone(&client), registry.clone(), batch_config());
    let result = gateway.query(&FederatedQuery::new("gflops", vec!["/Execution".into()]));
    assert!(result.is_partial(), "errors: {:?}", result.errors);
    assert_eq!(result.rows.len(), 2, "healthy entries answered");
    assert_eq!(result.total_rows(), 4);
    assert_eq!(result.errors.len(), 1);
    assert_eq!(result.errors[0].kind, SiteErrorKind::Fault);
    assert!(
        result.errors[0].detail.contains("unknown metric"),
        "{:?}",
        result.errors[0]
    );
    // The whole site still rode one framed call.
    let snapshot = gateway.snapshot();
    assert_eq!(
        (snapshot.batch_streams, snapshot.batch_stream_entries),
        (1, 3)
    );
}

/// An execution that stalls `delay` before its first row.
fn stalled_exec(delay: Duration) -> MemExecution {
    let mut exec = MemExecution {
        info: vec![("runid".into(), "slow".into())],
        foci: vec!["/Execution".into()],
        metrics: vec!["gflops".into()],
        types: vec!["MEM".into()],
        time: ("0".into(), "10".into()),
        query_delay: Some(delay),
        ..Default::default()
    };
    exec.results.insert(
        ("gflops".into(), "/Execution".into()),
        vec!["gflops|late".into()],
    );
    exec
}

/// Entries that outlive the query budget expire individually: the fast
/// entries of the same framed call still answer, the slow one becomes one
/// structured Timeout error.
#[test]
fn per_entry_deadline_yields_partial_result_under_batching() {
    let client = Arc::new(HttpClient::new());
    let container = start_container(ContainerConfig::default());
    let registry = registry_on(&container);
    let site = site_with(&container, &client, stalled_exec(Duration::from_secs(5)));
    publish(&client, &registry, "MEM", &site);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        batch_config().with_call_timeout(Duration::from_millis(400)),
    );
    let result = gateway.query(&FederatedQuery::new("gflops", vec!["/Execution".into()]));
    assert!(result.is_partial(), "errors: {:?}", result.errors);
    assert_eq!(
        result.rows.len(),
        2,
        "fast entries of the call answered: {:?}",
        result.rows
    );
    assert!(
        (result.errors.iter()).any(|e| e.kind == SiteErrorKind::Timeout),
        "slow entry expired: {:?}",
        result.errors
    );
}

/// An entry that never delivered a row when its leg ran out of budget is
/// the deadline's doing, not the site's: `Timeout`, and the site keeps the
/// expansion it had (an `Unreachable` would make the planner forget it and
/// ask the site again on the next query).
#[test]
fn rowless_truncation_after_the_leg_expired_is_a_timeout() {
    let client = Arc::new(HttpClient::new());
    let container = start_container(ContainerConfig::default());
    let registry = registry_on(&container);
    let site = site_with(&container, &client, stalled_exec(Duration::from_secs(5)));
    publish(&client, &registry, "MEM", &site);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        batch_config()
            .with_call_timeout(Duration::from_millis(600))
            .with_plan_cache(Duration::from_secs(60)),
    );
    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);
    let first = gateway.query(&query);
    assert_eq!(first.rows.len(), 2, "{:?}", first.errors);
    assert_eq!(first.errors.len(), 1, "{:?}", first.errors);
    assert_eq!(
        first.errors[0].kind,
        SiteErrorKind::Timeout,
        "{:?}",
        first.errors
    );
    let expanded = gateway.snapshot().plan_expansion_refreshes;

    let second = gateway.query(&query);
    assert_eq!(second.errors.len(), 1, "{:?}", second.errors);
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.plan_expansion_invalidations, 0, "expansion kept");
    assert_eq!(
        snapshot.plan_expansion_refreshes, expanded,
        "the second plan asked the site nothing"
    );
}
