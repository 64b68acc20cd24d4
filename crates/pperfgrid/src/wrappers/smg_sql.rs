//! SMG98 wrapper over the five-table Vampir-style trace database.
//!
//! The Mapping Layer issues multi-table SQL joins over the large `events`
//! table and post-processes rows into Performance Results ("this
//! implementation might also include some processing to combine results or
//! convert types before returning the final values", thesis §5.2). These are
//! the long-running queries of Tables 4 and 5.

use super::cell;
use crate::wrapper::{ApplicationWrapper, ExecutionWrapper, PrQuery, WrapperError};
use crate::TYPE_UNDEFINED;
use pperf_minidb::{sql_quote, Database};
use std::sync::Arc;

const METRICS: &[&str] = &[
    "func_time",
    "func_calls",
    "event_intervals",
    "msg_bytes",
    "msg_count",
];

/// A parsed SMG focus.
enum Focus {
    /// `/Process/<procid>`
    Process(i64),
    /// `/Code/<module>/<function>`
    Function { module: String, name: String },
    /// `/Code/<module>` — every function in a module
    Module(String),
}

fn parse_focus(focus: &str) -> Result<Focus, WrapperError> {
    let parts: Vec<&str> = focus.split('/').filter(|s| !s.is_empty()).collect();
    match parts.as_slice() {
        ["Process", pid] => pid
            .parse()
            .map(Focus::Process)
            .map_err(|_| WrapperError(format!("bad process focus {focus:?}"))),
        ["Code", module] => Ok(Focus::Module((*module).to_owned())),
        ["Code", module, name] => Ok(Focus::Function {
            module: (*module).to_owned(),
            name: (*name).to_owned(),
        }),
        _ => Err(WrapperError(format!("unrecognized focus {focus:?}"))),
    }
}

/// The SMG98 Application wrapper.
pub struct SmgSqlWrapper {
    db: Database,
}

impl SmgSqlWrapper {
    /// Wrap a database with the five-table SMG98 schema.
    pub fn new(db: Database) -> SmgSqlWrapper {
        SmgSqlWrapper { db }
    }
}

impl ApplicationWrapper for SmgSqlWrapper {
    fn app_info(&self) -> Vec<(String, String)> {
        vec![
            ("name".into(), "SMG98".into()),
            ("version".into(), "1.0".into()),
            (
                "description".into(),
                "Semicoarsening multigrid solver traced with Vampir".into(),
            ),
            ("storage".into(), "RDBMS (5 tables)".into()),
        ]
    }

    fn num_execs(&self) -> usize {
        self.db
            .connect()
            .query("SELECT COUNT(*) AS n FROM executions")
            .and_then(|rs| rs.get_i64(0, "n"))
            .unwrap_or(0) as usize
    }

    fn exec_query_params(&self) -> Vec<(String, Vec<String>)> {
        let conn = self.db.connect();
        ["execid", "rundate", "numprocs", "appversion"]
            .iter()
            .map(|attr| {
                let values = conn
                    .query(&format!(
                        "SELECT DISTINCT {attr} FROM executions ORDER BY {attr}"
                    ))
                    .map(|rs| rs.rows().iter().map(|r| r[0].render()).collect())
                    .unwrap_or_default();
                ((*attr).to_owned(), values)
            })
            .collect()
    }

    fn all_exec_ids(&self) -> Vec<String> {
        self.db
            .connect()
            .query("SELECT execid FROM executions ORDER BY execid")
            .map(|rs| rs.rows().iter().map(|r| r[0].render()).collect())
            .unwrap_or_default()
    }

    fn exec_ids_matching(&self, attribute: &str, value: &str) -> Result<Vec<String>, WrapperError> {
        let predicate = match attribute.to_ascii_lowercase().as_str() {
            a @ ("execid" | "numprocs") => {
                let v: i64 = value.trim().parse().map_err(|_| {
                    WrapperError(format!("attribute {a} needs an integer, got {value:?}"))
                })?;
                format!("{a} = {v}")
            }
            a @ ("rundate" | "appversion") => format!("{a} = {}", sql_quote(value)),
            other => return Err(WrapperError(format!("unknown attribute {other:?}"))),
        };
        let rs = self.db.connect().query(&format!(
            "SELECT execid FROM executions WHERE {predicate} ORDER BY execid"
        ))?;
        Ok(rs.rows().iter().map(|r| r[0].render()).collect())
    }

    fn execution(&self, exec_id: &str) -> Result<Arc<dyn ExecutionWrapper>, WrapperError> {
        let execid: i64 = exec_id
            .trim()
            .parse()
            .map_err(|_| WrapperError(format!("bad SMG execution id {exec_id:?}")))?;
        let rs = self.db.connect().query(&format!(
            "SELECT COUNT(*) AS n FROM executions WHERE execid = {execid}"
        ))?;
        if rs.get_i64(0, "n").unwrap_or(0) == 0 {
            return Err(WrapperError(format!(
                "no SMG execution with execid {execid}"
            )));
        }
        Ok(Arc::new(SmgSqlExecution {
            db: self.db.clone(),
            execid,
        }))
    }
}

/// One SMG98 execution.
struct SmgSqlExecution {
    db: Database,
    execid: i64,
}

impl SmgSqlExecution {
    fn time_predicate(t0: f64, t1: f64) -> String {
        // Events overlapping [t0, t1]; infinite bounds drop the clause.
        let mut clauses = Vec::new();
        if t0.is_finite() {
            clauses.push(format!("e.endtime >= {t0}"));
        }
        if t1.is_finite() {
            clauses.push(format!("e.starttime <= {t1}"));
        }
        if clauses.is_empty() {
            String::new()
        } else {
            format!(" AND {}", clauses.join(" AND "))
        }
    }

    /// The `(procid, starttime, endtime, bytes)` event scan for one focus —
    /// shared by the materialized fetch and the streaming cursor path.
    fn events_sql(&self, focus: &Focus, t0: f64, t1: f64) -> String {
        let time = Self::time_predicate(t0, t1);
        match focus {
            Focus::Process(pid) => format!(
                "SELECT e.procid AS procid, e.starttime AS s, e.endtime AS t, e.bytes AS b \
                 FROM events e WHERE e.execid = {} AND e.procid = {pid}{time}",
                self.execid
            ),
            Focus::Function { module, name } => format!(
                "SELECT e.procid AS procid, e.starttime AS s, e.endtime AS t, e.bytes AS b \
                 FROM events e, functions f \
                 WHERE e.execid = {} AND e.funcid = f.funcid AND f.module = {} AND f.name = {}{time}",
                self.execid,
                sql_quote(module),
                sql_quote(name)
            ),
            Focus::Module(module) => format!(
                "SELECT e.procid AS procid, e.starttime AS s, e.endtime AS t, e.bytes AS b \
                 FROM events e, functions f \
                 WHERE e.execid = {} AND e.funcid = f.funcid AND f.module = {}{time}",
                self.execid,
                sql_quote(module)
            ),
        }
    }

    /// Fetch `(procid, starttime, endtime, bytes)` event rows for one focus.
    fn events_for_focus(
        &self,
        focus: &Focus,
        t0: f64,
        t1: f64,
    ) -> Result<Vec<(i64, f64, f64, i64)>, WrapperError> {
        let sql = self.events_sql(focus, t0, t1);
        let rs = self.db.connect().query(&sql)?;
        let (procid, s, t, b) = (
            rs.column_index("procid")?,
            rs.column_index("s")?,
            rs.column_index("t")?,
            rs.column_index("b")?,
        );
        let mut out = Vec::with_capacity(rs.len());
        for row in rs.rows() {
            out.push((
                cell::int(&row[procid], "procid")?,
                cell::float(&row[s], "s")?,
                cell::float(&row[t], "t")?,
                cell::int(&row[b], "b")?,
            ));
        }
        Ok(out)
    }

    /// Run the aggregate query for one focus: `(call count, total time)`.
    fn aggregate_for_focus(
        &self,
        focus: &Focus,
        t0: f64,
        t1: f64,
    ) -> Result<(i64, f64), WrapperError> {
        let time = Self::time_predicate(t0, t1);
        let select = "SELECT COUNT(*) AS calls, SUM(e.endtime - e.starttime) AS total";
        let sql = match focus {
            Focus::Process(pid) => format!(
                "{select} FROM events e WHERE e.execid = {} AND e.procid = {pid}{time}",
                self.execid
            ),
            Focus::Function { module, name } => format!(
                "{select} FROM events e, functions f \
                 WHERE e.execid = {} AND e.funcid = f.funcid AND f.module = {} AND f.name = {}{time}",
                self.execid,
                sql_quote(module),
                sql_quote(name)
            ),
            Focus::Module(module) => format!(
                "{select} FROM events e, functions f \
                 WHERE e.execid = {} AND e.funcid = f.funcid AND f.module = {}{time}",
                self.execid,
                sql_quote(module)
            ),
        };
        let rs = self.db.connect().query(&sql)?;
        let calls = rs.get_i64(0, "calls")?;
        // SUM over zero rows is NULL.
        let total = if calls == 0 {
            0.0
        } else {
            rs.get_f64(0, "total")?
        };
        Ok((calls, total))
    }

    /// Fetch `(bytes,)` message rows for a process focus.
    fn messages_for_process(&self, pid: i64, t0: f64, t1: f64) -> Result<Vec<i64>, WrapperError> {
        let mut sql = format!(
            "SELECT m.bytes AS b FROM messages m WHERE m.execid = {} AND m.src = {pid}",
            self.execid
        );
        if t0.is_finite() {
            sql.push_str(&format!(" AND m.endtime >= {t0}"));
        }
        if t1.is_finite() {
            sql.push_str(&format!(" AND m.starttime <= {t1}"));
        }
        let rs = self.db.connect().query(&sql)?;
        let b = rs.column_index("b")?;
        rs.rows()
            .iter()
            .map(|row| cell::int(&row[b], "b"))
            .collect()
    }
}

impl ExecutionWrapper for SmgSqlExecution {
    fn info(&self) -> Vec<(String, String)> {
        let conn = self.db.connect();
        let Ok(rs) = conn.query(&format!(
            "SELECT * FROM executions WHERE execid = {}",
            self.execid
        )) else {
            return vec![];
        };
        if rs.is_empty() {
            return vec![];
        }
        rs.columns()
            .iter()
            .map(|c| {
                (
                    c.clone(),
                    rs.get(0, c).map(|v| v.render()).unwrap_or_default(),
                )
            })
            .collect()
    }

    fn foci(&self) -> Vec<String> {
        let conn = self.db.connect();
        let mut foci = Vec::new();
        if let Ok(rs) = conn.query(&format!(
            "SELECT DISTINCT procid FROM processes WHERE execid = {} ORDER BY procid",
            self.execid
        )) {
            foci.extend(
                rs.rows()
                    .iter()
                    .map(|r| format!("/Process/{}", r[0].render())),
            );
        }
        if let Ok(rs) =
            conn.query("SELECT DISTINCT module, name FROM functions ORDER BY module, name")
        {
            for i in 0..rs.len() {
                let module = rs.get_str(i, "module").unwrap_or("?");
                let name = rs.get_str(i, "name").unwrap_or("?");
                foci.push(format!("/Code/{module}/{name}"));
            }
        }
        foci
    }

    fn metrics(&self) -> Vec<String> {
        METRICS.iter().map(|m| (*m).to_owned()).collect()
    }

    fn types(&self) -> Vec<String> {
        vec!["vampir".into()]
    }

    fn time_start_end(&self) -> (String, String) {
        let conn = self.db.connect();
        let Ok(rs) = conn.query(&format!(
            "SELECT starttime, endtime FROM executions WHERE execid = {}",
            self.execid
        )) else {
            return ("0.0".into(), "0.0".into());
        };
        if rs.is_empty() {
            return ("0.0".into(), "0.0".into());
        }
        (
            rs.get(0, "starttime")
                .map(|v| v.render())
                .unwrap_or_default(),
            rs.get(0, "endtime").map(|v| v.render()).unwrap_or_default(),
        )
    }

    fn get_pr(&self, query: &PrQuery) -> Result<Vec<String>, WrapperError> {
        if !METRICS
            .iter()
            .any(|m| m.eq_ignore_ascii_case(&query.metric))
        {
            return Err(WrapperError(format!(
                "unknown SMG metric {:?}",
                query.metric
            )));
        }
        if query.rtype != TYPE_UNDEFINED && !query.rtype.eq_ignore_ascii_case("vampir") {
            return Ok(vec![]);
        }
        if query.foci.is_empty() {
            return Err(WrapperError(
                "SMG queries need at least one focus (/Process/N or /Code/...)".into(),
            ));
        }
        let (t0, t1) = query.time_window()?;
        let metric = query.metric.to_ascii_lowercase();
        let mut rows = Vec::new();
        for focus_str in &query.foci {
            let focus = parse_focus(focus_str)?;
            match metric.as_str() {
                // Aggregate metrics push the arithmetic into the engine
                // (`SUM(e.endtime - e.starttime)`), so only one row crosses
                // the Mapping Layer boundary.
                "func_time" | "func_calls" => {
                    let (calls, total) = self.aggregate_for_focus(&focus, t0, t1)?;
                    if metric == "func_time" {
                        rows.push(format!("{focus_str}|func_time|{total:.6}"));
                    } else {
                        rows.push(format!("{focus_str}|func_calls|{calls}"));
                    }
                }
                "event_intervals" => {
                    // Raw interval dump — the large-payload query shape of
                    // Table 4 (~hundreds of kB for a whole-module focus).
                    let events = self.events_for_focus(&focus, t0, t1)?;
                    rows.reserve(events.len());
                    for (pid, s, t, b) in events {
                        rows.push(format!("{focus_str}|{pid}|{s:.6}|{t:.6}|{b}"));
                    }
                }
                "msg_bytes" | "msg_count" => {
                    let Focus::Process(pid) = focus else {
                        return Err(WrapperError(format!(
                            "{metric} requires a /Process/N focus, got {focus_str:?}"
                        )));
                    };
                    let bytes = self.messages_for_process(pid, t0, t1)?;
                    let value = if metric == "msg_bytes" {
                        bytes.iter().sum::<i64>()
                    } else {
                        bytes.len() as i64
                    };
                    rows.push(format!("{focus_str}|{metric}|{value}"));
                }
                _ => unreachable!("metric validated above"),
            }
        }
        Ok(rows)
    }

    /// Native streaming for the raw-dump metric: `event_intervals` rows
    /// flow straight off a data-layer cursor in bounded batches, so the
    /// Table 4 large-payload shape never materializes in the Mapping Layer.
    /// Every other metric is a small aggregate — those take the buffered
    /// adapter over [`SmgSqlExecution::get_pr`].
    fn get_pr_stream(
        &self,
        query: &PrQuery,
        sink: &mut dyn FnMut(Vec<String>) -> Result<(), WrapperError>,
    ) -> Result<u64, WrapperError> {
        if !query.metric.eq_ignore_ascii_case("event_intervals") {
            return crate::wrapper::stream_rows_buffered(self.get_pr(query)?, sink);
        }
        if query.rtype != TYPE_UNDEFINED && !query.rtype.eq_ignore_ascii_case("vampir") {
            return Ok(0);
        }
        if query.foci.is_empty() {
            return Err(WrapperError(
                "SMG queries need at least one focus (/Process/N or /Code/...)".into(),
            ));
        }
        let (t0, t1) = query.time_window()?;
        let mut total = 0u64;
        for focus_str in &query.foci {
            let focus = parse_focus(focus_str)?;
            let conn = self.db.connect();
            let mut cursor = conn.query_cursor(&self.events_sql(&focus, t0, t1))?;
            loop {
                let rows = cursor.next_batch(crate::wrapper::STREAM_BATCH_ROWS)?;
                if rows.is_empty() {
                    break;
                }
                let mut batch = Vec::with_capacity(rows.len());
                for row in &rows {
                    // Projection order: procid, s, t, b (see events_sql).
                    let bad = || WrapperError("malformed event row from cursor".into());
                    let pid = row[0].as_int().ok_or_else(bad)?;
                    let s = row[1].as_f64().ok_or_else(bad)?;
                    let t = row[2].as_f64().ok_or_else(bad)?;
                    let b = row[3].as_int().ok_or_else(bad)?;
                    batch.push(format!("{focus_str}|{pid}|{s:.6}|{t:.6}|{b}"));
                }
                total += batch.len() as u64;
                sink(batch)?;
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pperf_datastore::{SmgSpec, SmgStore};

    fn wrapper() -> SmgSqlWrapper {
        SmgSqlWrapper::new(SmgStore::build(SmgSpec::tiny()).database().clone())
    }

    fn pr(metric: &str, foci: Vec<String>) -> PrQuery {
        PrQuery {
            metric: metric.into(),
            foci,
            start: String::new(),
            end: String::new(),
            rtype: TYPE_UNDEFINED.into(),
        }
    }

    #[test]
    fn application_semantics() {
        let w = wrapper();
        assert_eq!(w.num_execs(), 2);
        assert_eq!(w.all_exec_ids(), ["0", "1"]);
        let params = w.exec_query_params();
        assert!(params.iter().any(|(a, _)| a == "numprocs"));
        assert_eq!(w.exec_ids_matching("execid", "1").unwrap(), ["1"]);
        let np = w.exec_ids_matching("numprocs", "4").unwrap();
        assert_eq!(np.len(), 2, "tiny spec uses 4 procs for all executions");
        assert!(w.exec_ids_matching("walltime", "1").is_err());
        assert!(w.execution("99").is_err());
    }

    #[test]
    fn foci_include_processes_and_functions() {
        let w = wrapper();
        let e = w.execution("0").unwrap();
        let foci = e.foci();
        assert!(foci.contains(&"/Process/0".to_owned()));
        assert!(foci.contains(&"/Process/3".to_owned()));
        assert!(foci.iter().any(|f| f.starts_with("/Code/MPI/")));
        assert_eq!(e.types(), ["vampir"]);
    }

    #[test]
    fn func_metrics_per_focus() {
        let w = wrapper();
        let e = w.execution("0").unwrap();
        let rows = e
            .get_pr(&pr(
                "func_calls",
                vec!["/Process/0".into(), "/Code/MPI/MPI_Allgather".into()],
            ))
            .unwrap();
        assert_eq!(rows.len(), 2, "one row per focus");
        for row in &rows {
            let parts: Vec<&str> = row.split('|').collect();
            assert_eq!(parts[1], "func_calls");
            let n: i64 = parts[2].parse().unwrap();
            assert!(n > 0, "{row}");
        }
        let time_rows = e
            .get_pr(&pr("func_time", vec!["/Process/1".into()]))
            .unwrap();
        let t: f64 = time_rows[0].split('|').nth(2).unwrap().parse().unwrap();
        assert!(t > 0.0);
    }

    #[test]
    fn event_intervals_is_bulk() {
        let w = wrapper();
        let e = w.execution("0").unwrap();
        let rows = e
            .get_pr(&pr("event_intervals", vec!["/Code/MPI".into()]))
            .unwrap();
        assert!(rows.len() > 10, "module focus returns many intervals");
        let bytes: usize = rows.iter().map(String::len).sum();
        assert!(bytes > 500);
    }

    #[test]
    fn time_window_narrows_results() {
        let w = wrapper();
        let e = w.execution("0").unwrap();
        let all = e
            .get_pr(&pr("func_calls", vec!["/Process/0".into()]))
            .unwrap();
        let all_n: i64 = all[0].split('|').nth(2).unwrap().parse().unwrap();
        let narrow = e
            .get_pr(&PrQuery {
                metric: "func_calls".into(),
                foci: vec!["/Process/0".into()],
                start: "0.0".into(),
                end: "0.5".into(),
                rtype: TYPE_UNDEFINED.into(),
            })
            .unwrap();
        let narrow_n: i64 = narrow[0].split('|').nth(2).unwrap().parse().unwrap();
        assert!(
            narrow_n < all_n,
            "narrow window ({narrow_n}) < full ({all_n})"
        );
    }

    #[test]
    fn message_metrics() {
        let w = wrapper();
        let e = w.execution("0").unwrap();
        let rows = e
            .get_pr(&pr("msg_count", vec!["/Process/0".into()]))
            .unwrap();
        let n: i64 = rows[0].split('|').nth(2).unwrap().parse().unwrap();
        assert!(n >= 0);
        // msg metrics reject code foci.
        assert!(e
            .get_pr(&pr("msg_bytes", vec!["/Code/MPI/MPI_Send".into()]))
            .is_err());
    }

    #[test]
    fn unmatched_focus_yields_zero_row() {
        let w = wrapper();
        let e = w.execution("0").unwrap();
        // A process with no events still gets its zero row: the aggregate
        // counts zero rows and sums none.
        let rows = e
            .get_pr(&pr(
                "func_calls",
                vec!["/Process/0".into(), "/Process/99".into()],
            ))
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], "/Process/99|func_calls|0");
        let rows = e
            .get_pr(&pr("func_time", vec!["/Process/99".into()]))
            .unwrap();
        assert_eq!(rows, ["/Process/99|func_time|0.000000"]);
    }

    /// The store's rows in a database with its schema and no index.
    fn unindexed_copy(db: &Database) -> Database {
        let copy = Database::new();
        let conn = copy.connect();
        for ddl in pperf_datastore::smg::SCHEMA {
            conn.execute(ddl).unwrap();
        }
        for table in db.table_names() {
            let rows = db
                .connect()
                .query(&format!("SELECT * FROM {table}"))
                .unwrap();
            copy.bulk_insert(&table, rows.rows().to_vec()).unwrap();
        }
        copy
    }

    #[test]
    fn indexed_store_answers_as_an_unindexed_copy() {
        let store = SmgStore::build(SmgSpec::tiny());
        let indexed = SmgSqlWrapper::new(store.database().clone());
        let scanned = SmgSqlWrapper::new(unindexed_copy(store.database()));
        let mut compared = 0;
        for id in indexed.all_exec_ids() {
            let (a, b) = (
                indexed.execution(&id).unwrap(),
                scanned.execution(&id).unwrap(),
            );
            let mut foci = a.foci();
            assert_eq!(foci, b.foci());
            foci.extend(["/Code/MPI", "/Code/SMG", "/Process/99"].map(String::from));
            for focus in &foci {
                for metric in METRICS {
                    for (start, end) in [("", ""), ("0.5", "2")] {
                        let q = PrQuery {
                            start: start.into(),
                            end: end.into(),
                            ..pr(metric, vec![focus.clone()])
                        };
                        let answer = a.get_pr(&q).map_err(|e| e.0);
                        assert_eq!(answer, b.get_pr(&q).map_err(|e| e.0), "{id} {q:?}");
                        let mut streamed = Vec::new();
                        let total = a.get_pr_stream(&q, &mut |rows| {
                            streamed.extend(rows);
                            Ok(())
                        });
                        match &answer {
                            Ok(rows) => {
                                assert_eq!(total.unwrap(), rows.len() as u64);
                                assert_eq!(&streamed, rows, "{id} {q:?}");
                            }
                            Err(_) => assert!(total.is_err(), "{id} {q:?}"),
                        }
                        compared += usize::from(answer.is_ok());
                    }
                }
            }
        }
        assert!(compared > 100, "answers compared: {compared}");
    }

    #[test]
    fn validation_errors() {
        let w = wrapper();
        let e = w.execution("0").unwrap();
        assert!(
            e.get_pr(&pr("func_calls", vec![])).is_err(),
            "foci required"
        );
        assert!(e
            .get_pr(&pr("nonsense", vec!["/Process/0".into()]))
            .is_err());
        assert!(e
            .get_pr(&pr("func_calls", vec!["/Bogus/x".into()]))
            .is_err());
        let mut q = pr("func_calls", vec!["/Process/0".into()]);
        q.rtype = "hpl".into();
        assert!(
            e.get_pr(&q).unwrap().is_empty(),
            "foreign type yields empty"
        );
    }
}
