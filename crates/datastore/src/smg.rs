//! The SMG98 data store: a five-table relational database shaped like a
//! Vampir trace (thesis §6.1: data "gathered by Christian Hansen using the
//! Vampir tracing tool for the SMG98 application... stored in a relational
//! database with 5 tables").
//!
//! Schema:
//!
//! * `executions(execid, rundate, numprocs, starttime, endtime, appversion)`
//! * `processes(execid, procid, node)`
//! * `functions(funcid, name, module)` — names like `MPI_Allgather`,
//!   modules `MPI` / `SMG` / `HYPRE`
//! * `events(execid, procid, funcid, starttime, endtime, bytes)` — the bulk
//!   table; every function-enter/exit interval
//! * `messages(execid, src, dst, starttime, endtime, bytes)` — point-to-point
//!   traffic
//!
//! `events(execid)` carries an equality index, as an RDBMS would answer a
//! per-execution lookup: a query about one execution reads that execution's
//! events, not every execution's.
//!
//! The `events` table is what made the original store 250 MB and its
//! mapping-layer queries ~66 s; scaled down, it remains orders of magnitude
//! slower to query than HPL's single small table, preserving the Table 4 and
//! Table 5 orderings.

use crate::spec::SmgSpec;
use pperf_minidb::{Database, DbValue};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// MPI function names used for the synthetic trace.
pub const MPI_FUNCTIONS: &[&str] = &[
    "MPI_Allgather",
    "MPI_Allreduce",
    "MPI_Barrier",
    "MPI_Bcast",
    "MPI_Comm_rank",
    "MPI_Comm_size",
    "MPI_Irecv",
    "MPI_Isend",
    "MPI_Recv",
    "MPI_Send",
    "MPI_Wait",
    "MPI_Waitall",
];

/// The five tables, in creation order (the index is declared apart: see
/// [`SmgStore::build`]).
pub const SCHEMA: &[&str] = &[
    "CREATE TABLE executions (execid INT, rundate TEXT, numprocs INT, \
     starttime DOUBLE, endtime DOUBLE, appversion TEXT)",
    "CREATE TABLE processes (execid INT, procid INT, node TEXT)",
    "CREATE TABLE functions (funcid INT, name TEXT, module TEXT)",
    "CREATE TABLE events (execid INT, procid INT, funcid INT, \
     starttime DOUBLE, endtime DOUBLE, bytes INT)",
    "CREATE TABLE messages (execid INT, src INT, dst INT, \
     starttime DOUBLE, endtime DOUBLE, bytes INT)",
];

/// The SMG98 store.
pub struct SmgStore {
    db: Database,
    spec: SmgSpec,
}

impl SmgStore {
    /// Generate the store from a spec: the [`SCHEMA`] tables and an index
    /// on `events(execid)`, which the loads below keep current.
    pub fn build(spec: SmgSpec) -> SmgStore {
        let db = Database::new();
        let conn = db.connect();
        for ddl in SCHEMA {
            conn.execute(ddl).expect("create an SMG98 table");
        }
        conn.execute("CREATE INDEX ON events (execid)")
            .expect("index events by execution");

        let mut rng = StdRng::seed_from_u64(spec.seed);

        // functions: MPI names first, then synthetic solver kernels.
        let mut function_rows = Vec::new();
        for (i, name) in MPI_FUNCTIONS.iter().enumerate().take(spec.num_functions) {
            function_rows.push(vec![
                DbValue::Int(i as i64),
                DbValue::Text((*name).to_owned()),
                DbValue::Text("MPI".into()),
            ]);
        }
        for i in MPI_FUNCTIONS.len()..spec.num_functions {
            let module = if i % 3 == 0 { "HYPRE" } else { "SMG" };
            function_rows.push(vec![
                DbValue::Int(i as i64),
                DbValue::Text(format!("smg_kernel_{i}")),
                DbValue::Text(module.into()),
            ]);
        }
        db.bulk_insert("functions", function_rows)
            .expect("load functions");

        for execid in 0..spec.num_execs as i64 {
            let runtime = 40.0 + 40.0 * rng.random::<f64>();
            let day = 1 + (execid % 28);
            db.bulk_insert(
                "executions",
                vec![vec![
                    DbValue::Int(execid),
                    DbValue::Text(format!("2004-03-{day:02}")),
                    DbValue::Int(spec.procs as i64),
                    DbValue::Double(0.0),
                    DbValue::Double((runtime * 1000.0).round() / 1000.0),
                    DbValue::Text("SMG98-1.0".into()),
                ]],
            )
            .expect("load executions");

            let mut proc_rows = Vec::with_capacity(spec.procs);
            for procid in 0..spec.procs as i64 {
                proc_rows.push(vec![
                    DbValue::Int(execid),
                    DbValue::Int(procid),
                    DbValue::Text(format!("node{:02}", procid / 4)),
                ]);
            }
            db.bulk_insert("processes", proc_rows)
                .expect("load processes");

            let mut event_rows = Vec::with_capacity(spec.procs * spec.events_per_proc);
            let mut msg_rows = Vec::new();
            for procid in 0..spec.procs as i64 {
                let mut t = runtime * rng.random::<f64>() * 0.001;
                for _ in 0..spec.events_per_proc {
                    let funcid = rng.random_range(0..spec.num_functions) as i64;
                    let dur = (runtime / spec.events_per_proc as f64) * rng.random::<f64>() * 1.8;
                    let bytes = if (funcid as usize) < MPI_FUNCTIONS.len() {
                        1i64 << rng.random_range(4..18)
                    } else {
                        0
                    };
                    event_rows.push(vec![
                        DbValue::Int(execid),
                        DbValue::Int(procid),
                        DbValue::Int(funcid),
                        DbValue::Double(t),
                        DbValue::Double(t + dur),
                        DbValue::Int(bytes),
                    ]);
                    // Sends generate a message row.
                    if bytes > 0 && rng.random::<f64>() < 0.3 {
                        let dst = rng.random_range(0..spec.procs) as i64;
                        msg_rows.push(vec![
                            DbValue::Int(execid),
                            DbValue::Int(procid),
                            DbValue::Int(dst),
                            DbValue::Double(t),
                            DbValue::Double(t + dur * 0.8),
                            DbValue::Int(bytes),
                        ]);
                    }
                    t += dur;
                }
            }
            db.bulk_insert("events", event_rows).expect("load events");
            db.bulk_insert("messages", msg_rows).expect("load messages");
        }
        SmgStore { db, spec }
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The generation spec.
    pub fn spec(&self) -> &SmgSpec {
        &self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_tables_exist() {
        let store = SmgStore::build(SmgSpec::tiny());
        assert_eq!(
            store.database().table_names(),
            ["events", "executions", "functions", "messages", "processes"]
        );
    }

    #[test]
    fn cardinalities_match_spec() {
        let spec = SmgSpec::tiny();
        let store = SmgStore::build(spec.clone());
        let db = store.database();
        assert_eq!(db.row_count("executions"), Some(spec.num_execs));
        assert_eq!(db.row_count("processes"), Some(spec.num_execs * spec.procs));
        assert_eq!(db.row_count("functions"), Some(spec.num_functions));
        assert_eq!(db.row_count("events"), Some(spec.total_events()));
        assert!(db.row_count("messages").unwrap() > 0);
    }

    #[test]
    fn representative_trace_query_works() {
        let store = SmgStore::build(SmgSpec::tiny());
        let conn = store.database().connect();
        // Time in MPI_Allgather across all processes of execution 0 — the
        // shape of query the Execution wrapper issues for getPR.
        let rs = conn
            .query(
                "SELECT COUNT(*) AS calls, SUM(e.endtime) AS s \
                 FROM events e, functions f \
                 WHERE e.funcid = f.funcid AND f.name = 'MPI_Allgather' AND e.execid = 0",
            )
            .unwrap();
        assert!(rs.get_i64(0, "calls").unwrap() > 0);
    }

    #[test]
    fn events_have_positive_durations() {
        let store = SmgStore::build(SmgSpec::tiny());
        let conn = store.database().connect();
        let rs = conn
            .query("SELECT COUNT(*) AS bad FROM events WHERE endtime < starttime")
            .unwrap();
        assert_eq!(rs.get_i64(0, "bad").unwrap(), 0);
    }

    #[test]
    fn deterministic() {
        let a = SmgStore::build(SmgSpec::tiny());
        let b = SmgStore::build(SmgSpec::tiny());
        let qa = a
            .database()
            .connect()
            .query("SELECT SUM(bytes) AS s FROM events")
            .unwrap();
        let qb = b
            .database()
            .connect()
            .query("SELECT SUM(bytes) AS s FROM events")
            .unwrap();
        assert_eq!(qa.get_i64(0, "s").unwrap(), qb.get_i64(0, "s").unwrap());
    }
}
