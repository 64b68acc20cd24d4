//! PRESTA RMA wrapper over an RDBMS import of the text files — the same
//! logical content as [`super::RmaTextWrapper`] behind a relational Mapping
//! Layer, for the ablation the thesis proposes in §6.6 ("Future tests
//! performed with both the ASCII text files and an RDBMS version of the RMA
//! data source could confirm this theory").

use super::cell;
use crate::wrapper::{ApplicationWrapper, ExecutionWrapper, PrQuery, WrapperError};
use crate::TYPE_UNDEFINED;
use pperf_minidb::{sql_quote, Database};
use std::sync::Arc;

const METRICS: &[&str] = &["bandwidth_mbps", "latency_us"];

/// The RMA-over-RDBMS Application wrapper (expects the `rma_execs` /
/// `rma_records` schema produced by `pperf_datastore::rma_to_database`).
pub struct RmaSqlWrapper {
    db: Database,
}

impl RmaSqlWrapper {
    /// Wrap a database with the RMA schema.
    pub fn new(db: Database) -> RmaSqlWrapper {
        RmaSqlWrapper { db }
    }
}

impl ApplicationWrapper for RmaSqlWrapper {
    fn app_info(&self) -> Vec<(String, String)> {
        vec![
            ("name".into(), "PRESTA-RMA".into()),
            ("version".into(), "1.2".into()),
            (
                "description".into(),
                "PRESTA benchmark data imported into an RDBMS".into(),
            ),
            ("storage".into(), "RDBMS (2 tables)".into()),
        ]
    }

    fn num_execs(&self) -> usize {
        self.db
            .connect()
            .query("SELECT COUNT(*) AS n FROM rma_execs")
            .and_then(|rs| rs.get_i64(0, "n"))
            .unwrap_or(0) as usize
    }

    fn exec_query_params(&self) -> Vec<(String, Vec<String>)> {
        let conn = self.db.connect();
        ["execid", "rundate", "numprocs"]
            .iter()
            .map(|attr| {
                let values = conn
                    .query(&format!(
                        "SELECT DISTINCT {attr} FROM rma_execs ORDER BY {attr}"
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
            .query("SELECT execid FROM rma_execs ORDER BY execid")
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
            "rundate" => format!("rundate = {}", sql_quote(value)),
            other => return Err(WrapperError(format!("unknown attribute {other:?}"))),
        };
        let rs = self.db.connect().query(&format!(
            "SELECT execid FROM rma_execs WHERE {predicate} ORDER BY execid"
        ))?;
        Ok(rs.rows().iter().map(|r| r[0].render()).collect())
    }

    fn execution(&self, exec_id: &str) -> Result<Arc<dyn ExecutionWrapper>, WrapperError> {
        let execid: i64 = exec_id
            .trim()
            .parse()
            .map_err(|_| WrapperError(format!("bad RMA execution id {exec_id:?}")))?;
        let rs = self.db.connect().query(&format!(
            "SELECT COUNT(*) AS n FROM rma_execs WHERE execid = {execid}"
        ))?;
        if rs.get_i64(0, "n").unwrap_or(0) == 0 {
            return Err(WrapperError(format!("no RMA execution {execid}")));
        }
        Ok(Arc::new(RmaSqlExecution {
            db: self.db.clone(),
            execid,
        }))
    }
}

struct RmaSqlExecution {
    db: Database,
    execid: i64,
}

impl ExecutionWrapper for RmaSqlExecution {
    fn info(&self) -> Vec<(String, String)> {
        let conn = self.db.connect();
        let Ok(rs) = conn.query(&format!(
            "SELECT * FROM rma_execs WHERE execid = {}",
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
        self.db
            .connect()
            .query(&format!(
                "SELECT DISTINCT op FROM rma_records WHERE execid = {} ORDER BY op",
                self.execid
            ))
            .map(|rs| {
                rs.rows()
                    .iter()
                    .map(|r| format!("/Op/{}", r[0].render()))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn metrics(&self) -> Vec<String> {
        METRICS.iter().map(|m| (*m).to_owned()).collect()
    }

    fn types(&self) -> Vec<String> {
        vec!["presta".into()]
    }

    fn time_start_end(&self) -> (String, String) {
        let conn = self.db.connect();
        let Ok(rs) = conn.query(&format!(
            "SELECT starttime, endtime FROM rma_execs WHERE execid = {}",
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
                "unknown RMA metric {:?}",
                query.metric
            )));
        }
        if query.rtype != TYPE_UNDEFINED && !query.rtype.eq_ignore_ascii_case("presta") {
            return Ok(vec![]);
        }
        let (t0, t1) = query.time_window()?;
        // Window check against the execution's span.
        let span = self.db.connect().query(&format!(
            "SELECT starttime, endtime FROM rma_execs WHERE execid = {}",
            self.execid
        ))?;
        if span.is_empty() || span.get_f64(0, "endtime")? < t0 || span.get_f64(0, "starttime")? > t1
        {
            return Ok(vec![]);
        }
        let ops: Vec<&str> = query
            .foci
            .iter()
            .filter_map(|f| f.strip_prefix("/Op/"))
            .collect();
        if !query.foci.is_empty() && ops.is_empty() {
            return Ok(vec![]);
        }
        let mut sql = format!(
            "SELECT op, msgsize, {} AS v FROM rma_records WHERE execid = {}",
            query.metric.to_ascii_lowercase(),
            self.execid
        );
        if let [single] = ops.as_slice() {
            sql.push_str(&format!(" AND op = {}", sql_quote(single)));
        } else if !ops.is_empty() {
            let clauses: Vec<String> = ops
                .iter()
                .map(|op| format!("op = {}", sql_quote(op)))
                .collect();
            sql.push_str(&format!(" AND ({})", clauses.join(" OR ")));
        }
        sql.push_str(" ORDER BY op, msgsize");
        let rs = self.db.connect().query(&sql)?;
        let (op, msgsize, v) = (
            rs.column_index("op")?,
            rs.column_index("msgsize")?,
            rs.column_index("v")?,
        );
        let mut out = Vec::with_capacity(rs.len());
        for row in rs.rows() {
            out.push(format!(
                "op={} msgsize={} {}={:.3}",
                cell::text(&row[op], "op")?,
                cell::int(&row[msgsize], "msgsize")?,
                query.metric,
                cell::float(&row[v], "v")?
            ));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wrappers::RmaTextWrapper;
    use pperf_datastore::{rma_to_database, RmaSpec, RmaTextStore};
    use std::path::PathBuf;

    struct Guard(PathBuf);
    impl Drop for Guard {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn stores() -> (Guard, RmaTextWrapper, RmaSqlWrapper) {
        let dir = std::env::temp_dir().join(format!(
            "rma-sql-wrap-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = RmaTextStore::generate(&dir, &RmaSpec::tiny()).unwrap();
        let db = rma_to_database(&store).unwrap();
        (
            Guard(dir.clone()),
            RmaTextWrapper::new(RmaTextStore::open(dir)),
            RmaSqlWrapper::new(db),
        )
    }

    #[test]
    fn sql_and_text_wrappers_agree() {
        let (_g, text, sql) = stores();
        assert_eq!(sql.num_execs(), text.num_execs());
        assert_eq!(sql.all_exec_ids(), text.all_exec_ids());
        let q = PrQuery {
            metric: "bandwidth_mbps".into(),
            foci: vec!["/Op/unidir".into()],
            start: String::new(),
            end: String::new(),
            rtype: TYPE_UNDEFINED.into(),
        };
        for id in text.all_exec_ids() {
            let mut a = text.execution(&id).unwrap().get_pr(&q).unwrap();
            let mut b = sql.execution(&id).unwrap().get_pr(&q).unwrap();
            a.sort();
            b.sort();
            assert_eq!(a, b, "execution {id}");
        }
        let et = text.execution("0").unwrap();
        let es = sql.execution("0").unwrap();
        assert_eq!(es.foci(), et.foci());
        assert_eq!(es.metrics(), et.metrics());
        assert_eq!(es.types(), et.types());
    }

    #[test]
    fn multi_op_foci() {
        let (_g, _text, sql) = stores();
        let e = sql.execution("1").unwrap();
        let q = PrQuery {
            metric: "latency_us".into(),
            foci: vec!["/Op/unidir".into(), "/Op/latency".into()],
            start: String::new(),
            end: String::new(),
            rtype: TYPE_UNDEFINED.into(),
        };
        assert_eq!(e.get_pr(&q).unwrap().len(), 6, "2 ops × 3 sizes");
    }

    #[test]
    fn errors_and_filters() {
        let (_g, _text, sql) = stores();
        assert!(sql.execution("42").is_err());
        assert!(sql.exec_ids_matching("color", "red").is_err());
        let e = sql.execution("0").unwrap();
        let mut q = PrQuery {
            metric: "bandwidth_mbps".into(),
            foci: vec![],
            start: String::new(),
            end: String::new(),
            rtype: "vampir".into(),
        };
        assert!(e.get_pr(&q).unwrap().is_empty());
        q.rtype = TYPE_UNDEFINED.into();
        q.metric = "mystery".into();
        assert!(e.get_pr(&q).is_err());
    }
}
