//! Allocation budget of a gateway cache hit, held by a counting allocator:
//! a warm all-hit federated query allocates for the rows it hands over plus
//! a fixed amount of bookkeeping, and a segment lookup for its rows and
//! their container. The counters are per thread — an all-hit query never
//! leaves the caller's thread — so tests running in parallel do not see
//! each other's allocations.

use pperf_gateway::{
    series_key, FederatedGateway, FederatedQuery, GatewayConfig, Lookup, SegmentCache,
    SegmentCacheConfig,
};
use pperf_httpd::HttpClient;
use pperf_ogsi::{Container, ContainerConfig, RegistryService, RegistryStub};
use pperfgrid::wrappers::{MemApplicationWrapper, MemExecution};
use pperfgrid::{ApplicationWrapper, Site, SiteConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread's last frees can run after its locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` (no lazy allocation, no destructor) and never
// influences which pointer is returned or freed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with the
        // same `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f`, returning its result with the allocations this thread made
/// meanwhile.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.get();
    let out = f();
    (out, ALLOCS.get() - before)
}

const SPANS: usize = 512;

/// One execution's rows: a marked unit interval per time step.
fn unit_rows(exec: usize) -> Vec<String> {
    (0..SPANS)
        .map(|t| format!("gflops|t={t}:{}|v=3.5,e{exec:02}", t + 1))
        .collect()
}

#[test]
fn single_lookup_allocates_for_its_rows_and_their_container() {
    let cache = SegmentCache::new(SegmentCacheConfig::default());
    let series = series_key("http://h:1/x", "gflops", &["/Execution".into()], "T");
    cache.insert(&series, (0.0, SPANS as f64), Arc::new(unit_rows(0)));
    for (start, width) in [(17.0, 8.0), (200.0, 32.0), (300.0, 128.0)] {
        let window = (start, start + width);
        // Warm: the recency queue has reached its steady capacity.
        for _ in 0..200 {
            cache.lookup(&series, window);
        }
        let (found, allocs) = measured(|| cache.lookup(&series, window));
        let Lookup::Hit { rows, exact: false } = found else {
            panic!("expected a range hit for {window:?}");
        };
        assert_eq!(rows.len(), width as usize + 2);
        assert!(
            allocs <= rows.len() as u64 + 4,
            "{allocs} allocations for {} rows",
            rows.len()
        );
    }
}

#[test]
fn warm_all_hit_query_allocates_for_rows_not_bookkeeping() {
    let client = Arc::new(HttpClient::new());
    let container = Container::start("127.0.0.1:0", ContainerConfig::default()).unwrap();
    let registry = container
        .deploy_service("registry", Arc::new(RegistryService::new()))
        .unwrap();
    let app = MemApplicationWrapper::new(vec![("name", "Windows")]);
    for i in 0..16 {
        let mut exec = MemExecution {
            info: vec![("runid".into(), i.to_string())],
            foci: vec!["/Execution".into()],
            metrics: vec!["gflops".into()],
            types: vec!["MEM".into()],
            time: ("0".into(), SPANS.to_string()),
            ..Default::default()
        };
        let key = ("gflops".into(), "/Execution".into());
        exec.results.insert(key, unit_rows(i));
        app.add_execution(format!("mem-{i:02}"), exec);
    }
    let wrapper: Arc<dyn ApplicationWrapper> = Arc::new(app);
    let config = SiteConfig::new("mem").with_cache(false);
    let site = Site::deploy(&container, Arc::clone(&client), wrapper, &config).unwrap();
    let stub = RegistryStub::bind(Arc::clone(&client), &registry);
    stub.register_organization("MEM", "test").unwrap();
    site.publish(&stub, "MEM", "window store").unwrap();
    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry,
        GatewayConfig::default()
            .with_hedging(None)
            .with_plan_cache(Duration::from_secs(60)),
    );
    let over = |start: usize, end: usize| {
        FederatedQuery::new("gflops", vec!["/Execution".into()])
            .over(start.to_string(), end.to_string())
    };
    let primed = gateway.query(&over(0, SPANS));
    assert!(primed.errors.is_empty(), "{:?}", primed.errors);
    assert_eq!(primed.total_rows(), 16 * SPANS);

    let query = over(100, 132);
    for _ in 0..50 {
        gateway.query(&query);
    }
    let (answer, allocs) = measured(|| gateway.query(&query));
    assert!(answer.errors.is_empty(), "{:?}", answer.errors);
    assert_eq!(answer.upstream_calls, 0);
    assert_eq!(answer.rows.len(), 16);
    assert!(answer.rows.iter().all(|r| r.from_cache));
    let rows = answer.total_rows() as u64;
    assert_eq!(rows, 16 * 34);
    assert!(
        allocs <= rows + 250,
        "{allocs} allocations for a 16-target all-hit query returning {rows} rows"
    );
}
