//! Allocation budget of the Services Layer's getPR, held by a counting
//! allocator: an in-process `invoke("getPR")` or `invoke_stream("getPR")`
//! on a small answer allocates a fixed number of times, with the PR cache
//! off, on and missing, and on it and hitting. A wrapper that implements
//! only `get_pr` is counted too, so the default streaming adapter is
//! measured. The counters are per thread — an in-process call never leaves
//! the caller's thread — so tests running in parallel do not see each
//! other's allocations.
//!
//! Each ceiling is an exact count: what the call allocated when the test
//! was written, lowered where a later change took allocations out. A change
//! that raises one has added allocations to every getPR and should say why.
//! Two mapping-layer calls of the benchmark's core scenario are held the
//! same way: RMA `get_pr` on one op, and SMG98 `func_calls` on one function.

use pperf_datastore::{RmaSpec, RmaTextStore, SmgSpec, SmgStore};
use pperf_ogsi::ServicePort;
use pperf_soap::{Call, Fault};
use pperfgrid::wrappers::{MemExecution, RmaTextWrapper, SmgSqlWrapper};
use pperfgrid::{
    ApplicationWrapper, ExecutionService, ExecutionStub, ExecutionWrapper, PrQuery, WrapperError,
    EXECUTION_NS,
};
use ppg_context::CallContext;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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

const ROWS: usize = 4;

fn rows() -> Vec<String> {
    (0..ROWS).map(|i| format!("gflops|{i}.5")).collect()
}

/// A 4-row execution with its own streaming form.
fn mem_execution() -> Arc<dyn ExecutionWrapper> {
    let mut exec = MemExecution {
        foci: vec!["/Execution".into()],
        metrics: vec!["gflops".into()],
        types: vec!["MEM".into()],
        time: ("0".into(), "10".into()),
        ..Default::default()
    };
    exec.results
        .insert(("gflops".into(), "/Execution".into()), rows());
    Arc::new(exec)
}

/// A wrapper implementing only `get_pr`: its stream is the provided
/// adapter over the buffered answer.
struct BufferedOnly;

impl ExecutionWrapper for BufferedOnly {
    fn info(&self) -> Vec<(String, String)> {
        vec![]
    }
    fn foci(&self) -> Vec<String> {
        vec!["/Execution".into()]
    }
    fn metrics(&self) -> Vec<String> {
        vec!["gflops".into()]
    }
    fn types(&self) -> Vec<String> {
        vec!["MEM".into()]
    }
    fn time_start_end(&self) -> (String, String) {
        ("0".into(), "10".into())
    }
    fn get_pr(&self, _query: &PrQuery) -> Result<Vec<String>, WrapperError> {
        Ok(rows())
    }
}

fn get_pr_call() -> Call {
    let query = PrQuery {
        metric: "gflops".into(),
        foci: vec!["/Execution".into()],
        start: String::new(),
        end: String::new(),
        rtype: pperfgrid::TYPE_UNDEFINED.into(),
    };
    Call {
        method: "getPR".into(),
        namespace: Some(EXECUTION_NS.into()),
        params: ExecutionStub::pr_params(&query)
            .into_iter()
            .map(|(name, value)| (name.to_owned(), value))
            .collect(),
    }
}

/// What one measured getPR does to its service.
#[derive(Clone, Copy, Debug)]
enum Cache {
    Off,
    /// On, and the call is the service's first: it misses and fills.
    Miss,
    /// On, and an earlier call filled it: the call hits.
    Hit,
}

fn service(wrapper: &Arc<dyn ExecutionWrapper>, cache: Cache) -> ExecutionService {
    let service = ExecutionService::new(
        "e0".into(),
        Arc::clone(wrapper),
        !matches!(cache, Cache::Off),
    );
    if matches!(cache, Cache::Hit) {
        service.invoke("getPR", &get_pr_call()).unwrap();
    }
    service
}

/// Allocations of one `invoke("getPR")`, after a warm-up call on another
/// service of the same shape.
fn invoke_allocs(wrapper: &Arc<dyn ExecutionWrapper>, cache: Cache) -> u64 {
    let call = get_pr_call();
    service(wrapper, cache).invoke("getPR", &call).unwrap();
    let service = service(wrapper, cache);
    let (value, allocs) = measured(|| service.invoke("getPR", &call));
    assert_eq!(value.unwrap().as_str_array().unwrap().len(), ROWS);
    allocs
}

/// Allocations of one `invoke_stream("getPR")` into a sink that keeps the
/// rows, with a fresh context (its span is part of the count).
fn stream_allocs(wrapper: &Arc<dyn ExecutionWrapper>, cache: Cache) -> u64 {
    let call = get_pr_call();
    let mut kept: Vec<Vec<String>> = Vec::with_capacity(4);
    let mut sink = |rows: Vec<String>| -> Result<(), Fault> {
        kept.push(rows);
        Ok(())
    };
    service(wrapper, cache)
        .invoke_stream("getPR", &call, &CallContext::new(), &mut sink)
        .unwrap();
    let service = service(wrapper, cache);
    let ctx = CallContext::new();
    let (total, allocs) = measured(|| service.invoke_stream("getPR", &call, &ctx, &mut sink));
    assert_eq!(total.unwrap(), ROWS as u64);
    allocs
}

#[test]
fn invoke_get_pr_stays_within_its_ceilings() {
    let mem = mem_execution();
    let buffered: Arc<dyn ExecutionWrapper> = Arc::new(BufferedOnly);
    for (name, wrapper, cache, ceiling) in [
        ("mem, cache off", &mem, Cache::Off, 13),
        ("mem, cache miss", &mem, Cache::Miss, 23),
        ("mem, cache hit", &mem, Cache::Hit, 10),
        ("get_pr only, cache off", &buffered, Cache::Off, 9),
    ] {
        let allocs = invoke_allocs(wrapper, cache);
        assert!(allocs <= ceiling, "invoke, {name}: {allocs} > {ceiling}");
    }
}

#[test]
fn invoke_stream_get_pr_stays_within_its_ceilings() {
    let mem = mem_execution();
    let buffered: Arc<dyn ExecutionWrapper> = Arc::new(BufferedOnly);
    for (name, wrapper, cache, ceiling) in [
        ("mem, cache off", &mem, Cache::Off, 18),
        // One cache key per call, not one for the probe and one for the fill.
        ("mem, cache miss", &mem, Cache::Miss, 28),
        ("mem, cache hit", &mem, Cache::Hit, 15),
        // The adapter hands a one-batch answer over in its own buffer.
        ("get_pr only, cache off", &buffered, Cache::Off, 14),
    ] {
        let allocs = stream_allocs(wrapper, cache);
        assert!(
            allocs <= ceiling,
            "invoke_stream, {name}: {allocs} > {ceiling}"
        );
    }
}

// ------------------------------------------------------------ mapping layer

/// The SMG98 trace of the benchmark's core scenario: 8 executions × 8
/// processes × 125 events over 24 functions.
fn smg_execution() -> Arc<dyn ExecutionWrapper> {
    let store = SmgStore::build(SmgSpec {
        num_execs: 8,
        procs: 8,
        events_per_proc: 125,
        num_functions: 24,
        ..SmgSpec::default()
    });
    SmgSqlWrapper::new(store.database().clone())
        .execution("0")
        .unwrap()
}

fn query(metric: &str, focus: &str) -> PrQuery {
    PrQuery {
        metric: metric.into(),
        foci: vec![focus.into()],
        start: String::new(),
        end: String::new(),
        rtype: pperfgrid::TYPE_UNDEFINED.into(),
    }
}

/// Allocations of one warm `get_pr`, with the answer's row count.
fn get_pr_allocs(exec: &Arc<dyn ExecutionWrapper>, query: &PrQuery) -> (usize, u64) {
    exec.get_pr(query).unwrap();
    let (rows, allocs) = measured(|| exec.get_pr(query));
    (rows.unwrap().len(), allocs)
}

#[test]
fn rma_text_get_pr_stays_within_its_ceiling() {
    let dir = std::env::temp_dir().join(format!("rma-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = RmaTextStore::generate(&dir, &RmaSpec::default()).unwrap();
    let exec = RmaTextWrapper::new(store).execution("0").unwrap();
    let (rows, allocs) = get_pr_allocs(&exec, &query("bandwidth_mbps", "/Op/unidir"));
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(rows, 80, "20 sizes × 4 trials");
    // One per answer row, the answer's growth and the file read. Building
    // all 400 records of the file as owned strings first cost 593.
    assert!(allocs <= 91, "rma_text get_pr: {allocs} > 91");
}

#[test]
fn smg_sql_get_pr_stays_within_its_ceiling() {
    let exec = smg_execution();
    let (rows, allocs) = get_pr_allocs(&exec, &query("func_calls", "/Code/MPI/MPI_Allgather"));
    assert_eq!(rows, 1);
    // The statement's text, parse and plan, the `functions` hash join and
    // the one group; nothing per event, indexed or scanned.
    assert!(allocs <= 145, "smg_sql get_pr: {allocs} > 145");
}
