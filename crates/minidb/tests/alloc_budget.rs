//! Allocation budget of the join/aggregate pipeline, held by a counting
//! allocator: the SMG98 function-focus statements allocate in proportion to
//! the `functions` table and the groups they return, never to the `events`
//! rows they scan. The counters are per thread, so tests running in parallel
//! do not see each other's allocations.

use pperf_minidb::{Database, DbValue};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

const FUNCTIONS: usize = 24;
const MODULES: [&str; 3] = ["MPI", "SMG", "HYPRE"];

/// The two SMG98 tables the function-focus statements touch, with `events`
/// rows spread evenly over 8 executions, 8 processes and every function.
fn smg_like(events: usize) -> Database {
    let db = Database::new();
    let conn = db.connect();
    conn.execute("CREATE TABLE functions (funcid INT, name TEXT, module TEXT)")
        .unwrap();
    conn.execute(
        "CREATE TABLE events (execid INT, procid INT, funcid INT, \
         starttime DOUBLE, endtime DOUBLE, bytes INT)",
    )
    .unwrap();
    db.bulk_insert(
        "functions",
        (0..FUNCTIONS)
            .map(|f| {
                vec![
                    DbValue::Int(f as i64),
                    DbValue::from(format!("fn_{f}")),
                    DbValue::from(MODULES[f % MODULES.len()]),
                ]
            })
            .collect(),
    )
    .unwrap();
    db.bulk_insert(
        "events",
        (0..events)
            .map(|i| {
                vec![
                    DbValue::Int((i % 8) as i64),
                    DbValue::Int((i / 8 % 8) as i64),
                    DbValue::Int((i / 64 % FUNCTIONS) as i64),
                    DbValue::Double(i as f64),
                    DbValue::Double(i as f64 + 0.25),
                    DbValue::Int(64),
                ]
            })
            .collect(),
    )
    .unwrap();
    db
}

#[test]
fn function_focus_join_allocates_by_functions_and_groups_not_events() {
    // `func_time` / `func_calls` on one /Code/<module>/<function> focus, and
    // the batched form that groups a module's functions.
    let one_focus = "SELECT COUNT(*) AS calls, SUM(e.endtime - e.starttime) AS total \
                     FROM events e, functions f \
                     WHERE e.execid = 0 AND e.funcid = f.funcid \
                     AND f.module = 'MPI' AND f.name = 'fn_3'";
    let grouped = "SELECT f.module AS module, f.name AS name, COUNT(*) AS calls, \
                   SUM(e.endtime - e.starttime) AS total \
                   FROM events e, functions f \
                   WHERE e.execid = 0 AND e.funcid = f.funcid \
                   AND f.name IN ('fn_0', 'fn_3', 'fn_6', 'fn_9', 'fn_12') \
                   GROUP BY f.module, f.name";
    let small = smg_like(3_072);
    let large = smg_like(49_152);
    for (sql, groups) in [(one_focus, 1), (grouped, 5)] {
        let (small_rs, small_allocs) = measured(|| small.connect().query(sql).unwrap());
        let (large_rs, large_allocs) = measured(|| large.connect().query(sql).unwrap());
        assert_eq!(small_rs.len(), groups, "{sql}");
        assert_eq!(large_rs.len(), groups, "{sql}");
        let calls = |rs: &pperf_minidb::ResultSet| -> i64 {
            (0..rs.len()).map(|i| rs.get_i64(i, "calls").unwrap()).sum()
        };
        assert_eq!(calls(&large_rs), 16 * calls(&small_rs), "{sql}");
        // 16× the events: not one allocation more.
        assert_eq!(
            large_allocs, small_allocs,
            "allocations must not depend on the number of events: {sql}"
        );
        // Parsing and binding the statement, one bucket per surviving
        // function, a handful per group.
        let budget = (100 + 4 * FUNCTIONS + 16 * groups) as u64;
        assert!(
            large_allocs <= budget,
            "{large_allocs} allocations, budget {budget}: {sql}"
        );
    }
}

#[test]
fn filtered_scan_allocates_by_rows_returned() {
    // The lazy cursor behind `event_intervals`: one allocation per output
    // row (its cells are numbers) plus the batch vector's growth.
    let db = smg_like(49_152);
    let conn = db.connect();
    let (rows, allocs) = measured(|| {
        let mut cursor = conn
            .query_cursor(
                "SELECT e.procid AS procid, e.starttime AS s, e.endtime AS t, e.bytes AS b \
                 FROM events e WHERE e.execid = 0 AND e.procid = 3",
            )
            .unwrap();
        let mut rows = 0u64;
        loop {
            let batch = cursor.next_batch(256).unwrap();
            if batch.is_empty() {
                return rows;
            }
            rows += batch.len() as u64;
        }
    });
    assert_eq!(rows, 49_152 / 64);
    assert!(
        allocs <= rows + 20 * (rows / 256 + 1) + 60,
        "{allocs} allocations for {rows} rows out of 49 152 scanned"
    );
}

/// [`smg_like`] with `events(execid)` indexed, as the SMG98 store declares.
fn smg_like_indexed(events: usize) -> Database {
    let db = smg_like(events);
    db.connect()
        .execute("CREATE INDEX ON events (execid)")
        .unwrap();
    db
}

#[test]
fn indexed_function_focus_join_allocates_by_functions_and_groups_not_events() {
    // The statements of the unindexed test, walking `execid = 0`'s posting
    // list: no more allocations than the scan, at any size.
    let one_focus = "SELECT COUNT(*) AS calls, SUM(e.endtime - e.starttime) AS total \
                     FROM events e, functions f \
                     WHERE e.execid = 0 AND e.funcid = f.funcid \
                     AND f.module = 'MPI' AND f.name = 'fn_3'";
    let grouped = "SELECT f.module AS module, f.name AS name, COUNT(*) AS calls, \
                   SUM(e.endtime - e.starttime) AS total \
                   FROM events e, functions f \
                   WHERE e.execid = 0 AND e.funcid = f.funcid \
                   AND f.name IN ('fn_0', 'fn_3', 'fn_6', 'fn_9', 'fn_12') \
                   GROUP BY f.module, f.name";
    let small = smg_like_indexed(3_072);
    let large = smg_like_indexed(49_152);
    let scanned = smg_like(49_152);
    for (sql, groups) in [(one_focus, 1), (grouped, 5)] {
        let (small_rs, small_allocs) = measured(|| small.connect().query(sql).unwrap());
        let (large_rs, large_allocs) = measured(|| large.connect().query(sql).unwrap());
        let (scanned_rs, scanned_allocs) = measured(|| scanned.connect().query(sql).unwrap());
        assert_eq!(small_rs.len(), groups, "{sql}");
        assert_eq!(
            format!("{:?}", large_rs.rows()),
            format!("{:?}", scanned_rs.rows())
        );
        assert_eq!(large_allocs, small_allocs, "{sql}");
        assert!(
            large_allocs <= scanned_allocs,
            "{large_allocs} > {scanned_allocs}: {sql}"
        );
        let budget = (100 + 4 * FUNCTIONS + 16 * groups) as u64;
        assert!(
            large_allocs <= budget,
            "{large_allocs} allocations, budget {budget}: {sql}"
        );
    }
}

#[test]
fn indexed_filtered_scan_allocates_by_rows_returned() {
    let db = smg_like_indexed(49_152);
    let conn = db.connect();
    let (rows, allocs) = measured(|| {
        let mut cursor = conn
            .query_cursor(
                "SELECT e.procid AS procid, e.starttime AS s, e.endtime AS t, e.bytes AS b \
                 FROM events e WHERE e.execid = 0 AND e.procid = 3",
            )
            .unwrap();
        let mut rows = 0u64;
        loop {
            let batch = cursor.next_batch(256).unwrap();
            if batch.is_empty() {
                return rows;
            }
            rows += batch.len() as u64;
        }
    });
    assert_eq!(rows, 49_152 / 64);
    assert!(
        allocs <= rows + 20 * (rows / 256 + 1) + 60,
        "{allocs} allocations for {rows} rows out of 6 144 indexed"
    );
}
