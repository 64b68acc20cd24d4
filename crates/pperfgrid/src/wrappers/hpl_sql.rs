//! HPL wrapper over the single-table relational store (JDBC/SQL analogue of
//! thesis Fig. 4: `executeQuery("SELECT id FROM information"); ...process
//! results, return`).

use super::cell;
use crate::wrapper::{ApplicationWrapper, ExecutionWrapper, PrQuery, WrapperError};
use crate::TYPE_UNDEFINED;
use pperf_minidb::{sql_quote, Database};
use std::sync::Arc;

/// Attributes exposed through `getExecQueryParams` and accepted by
/// `getExecs`.
const ATTRIBUTES: &[(&str, bool)] = &[
    // (name, is_numeric)
    ("runid", true),
    ("rundate", false),
    ("numprocs", true),
    ("n", true),
    ("nb", true),
];

/// Metrics a Performance Result query may ask for.
const METRICS: &[&str] = &["gflops", "runtimesec"];

/// The HPL Application wrapper.
pub struct HplSqlWrapper {
    db: Database,
}

impl HplSqlWrapper {
    /// Wrap a database containing the `hpl_runs` table.
    pub fn new(db: Database) -> HplSqlWrapper {
        HplSqlWrapper { db }
    }
}

fn attribute_predicate(attribute: &str, value: &str) -> Result<String, WrapperError> {
    let (name, numeric) = ATTRIBUTES
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(attribute))
        .ok_or_else(|| WrapperError(format!("unknown attribute {attribute:?}")))?;
    if *numeric {
        let v: i64 = value.trim().parse().map_err(|_| {
            WrapperError(format!("attribute {name} needs an integer, got {value:?}"))
        })?;
        Ok(format!("{name} = {v}"))
    } else {
        Ok(format!("{name} = {}", sql_quote(value)))
    }
}

impl ApplicationWrapper for HplSqlWrapper {
    fn app_info(&self) -> Vec<(String, String)> {
        vec![
            ("name".into(), "HPL".into()),
            ("version".into(), "1.0".into()),
            (
                "description".into(),
                "HPL - A Portable Implementation of the High-Performance Linpack \
                 Benchmark for Distributed-Memory Computers"
                    .into(),
            ),
            ("storage".into(), "RDBMS (single table)".into()),
        ]
    }

    fn num_execs(&self) -> usize {
        self.db
            .connect()
            .query("SELECT COUNT(*) AS n FROM hpl_runs")
            .and_then(|rs| rs.get_i64(0, "n"))
            .unwrap_or(0) as usize
    }

    fn exec_query_params(&self) -> Vec<(String, Vec<String>)> {
        let conn = self.db.connect();
        ATTRIBUTES
            .iter()
            .map(|(attr, _)| {
                let values = conn
                    .query(&format!(
                        "SELECT DISTINCT {attr} FROM hpl_runs ORDER BY {attr}"
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
            .query("SELECT runid FROM hpl_runs ORDER BY runid")
            .map(|rs| rs.rows().iter().map(|r| r[0].render()).collect())
            .unwrap_or_default()
    }

    fn exec_ids_matching(&self, attribute: &str, value: &str) -> Result<Vec<String>, WrapperError> {
        let predicate = attribute_predicate(attribute, value)?;
        let rs = self.db.connect().query(&format!(
            "SELECT runid FROM hpl_runs WHERE {predicate} ORDER BY runid"
        ))?;
        Ok(rs.rows().iter().map(|r| r[0].render()).collect())
    }

    fn execution(&self, exec_id: &str) -> Result<Arc<dyn ExecutionWrapper>, WrapperError> {
        let runid: i64 = exec_id
            .trim()
            .parse()
            .map_err(|_| WrapperError(format!("bad HPL execution id {exec_id:?}")))?;
        let rs = self.db.connect().query(&format!(
            "SELECT COUNT(*) AS n FROM hpl_runs WHERE runid = {runid}"
        ))?;
        if rs.get_i64(0, "n").unwrap_or(0) == 0 {
            return Err(WrapperError(format!("no HPL execution with runid {runid}")));
        }
        Ok(Arc::new(HplSqlExecution {
            db: self.db.clone(),
            runid,
        }))
    }
}

/// One HPL execution.
struct HplSqlExecution {
    db: Database,
    runid: i64,
}

impl HplSqlExecution {
    /// Answer one query of a batch from the already-fetched whole row,
    /// mirroring [`ExecutionWrapper::get_pr`]'s validation exactly.
    fn answer_from_row(
        &self,
        rs: &pperf_minidb::ResultSet,
        query: &PrQuery,
    ) -> Result<Vec<String>, WrapperError> {
        let metric = query.metric.to_ascii_lowercase();
        if !METRICS.contains(&metric.as_str()) {
            return Err(WrapperError(format!(
                "unknown HPL metric {:?}",
                query.metric
            )));
        }
        if query.rtype != TYPE_UNDEFINED && !query.rtype.eq_ignore_ascii_case("hpl") {
            return Ok(vec![]);
        }
        if !query.foci.is_empty() && !query.foci.iter().any(|f| f == "/Execution") {
            return Ok(vec![]);
        }
        let (t0, t1) = query.time_window()?;
        if rs.is_empty() {
            return Ok(vec![]);
        }
        if rs.get_f64(0, "endtime")? < t0 || rs.get_f64(0, "starttime")? > t1 {
            return Ok(vec![]);
        }
        Ok(vec![rs.get(0, &metric)?.render()])
    }

    fn field(&self, column: &str) -> Result<String, WrapperError> {
        let rs = self.db.connect().query(&format!(
            "SELECT {column} FROM hpl_runs WHERE runid = {}",
            self.runid
        ))?;
        if rs.is_empty() {
            return Err(WrapperError(format!("runid {} disappeared", self.runid)));
        }
        Ok(rs.rows()[0][0].render())
    }
}

impl ExecutionWrapper for HplSqlExecution {
    fn info(&self) -> Vec<(String, String)> {
        let conn = self.db.connect();
        let Ok(rs) = conn.query(&format!(
            "SELECT * FROM hpl_runs WHERE runid = {}",
            self.runid
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
        vec!["/Execution".into()]
    }

    fn metrics(&self) -> Vec<String> {
        METRICS.iter().map(|m| (*m).to_owned()).collect()
    }

    fn types(&self) -> Vec<String> {
        vec!["hpl".into()]
    }

    fn time_start_end(&self) -> (String, String) {
        (
            self.field("starttime").unwrap_or_else(|_| "0.0".into()),
            self.field("endtime").unwrap_or_else(|_| "0.0".into()),
        )
    }

    fn get_pr(&self, query: &PrQuery) -> Result<Vec<String>, WrapperError> {
        if !METRICS
            .iter()
            .any(|m| m.eq_ignore_ascii_case(&query.metric))
        {
            return Err(WrapperError(format!(
                "unknown HPL metric {:?}",
                query.metric
            )));
        }
        if query.rtype != TYPE_UNDEFINED && !query.rtype.eq_ignore_ascii_case("hpl") {
            return Ok(vec![]); // a different tool's data was requested
        }
        if !query.foci.is_empty() && !query.foci.iter().any(|f| f == "/Execution") {
            return Ok(vec![]); // HPL data has only the whole-execution focus
        }
        let (t0, t1) = query.time_window()?;
        // The run must overlap the requested window.
        let rs = self.db.connect().query(&format!(
            "SELECT {} AS v, starttime, endtime FROM hpl_runs WHERE runid = {}",
            query.metric, self.runid
        ))?;
        // Cells in the order of the SELECT list above: v, starttime, endtime.
        let Some(row) = rs.rows().first() else {
            return Ok(vec![]);
        };
        let start = cell::float(&row[1], "starttime")?;
        let end = cell::float(&row[2], "endtime")?;
        if end < t0 || start > t1 {
            return Ok(vec![]);
        }
        // The thesis's HPL payload: a single ~8-byte value (Table 4).
        Ok(vec![row[0].render()])
    }

    fn get_pr_batch(&self, queries: &[PrQuery]) -> Vec<Result<Vec<String>, WrapperError>> {
        if queries.len() < 2 {
            return queries.iter().map(|q| self.get_pr(q)).collect();
        }
        // The whole miss group targets this one run, so a single whole-row
        // scan answers every metric in it — one data-layer round trip
        // instead of one SELECT per query.
        let rs = match self.db.connect().query(&format!(
            "SELECT gflops, runtimesec, starttime, endtime FROM hpl_runs WHERE runid = {}",
            self.runid
        )) {
            Ok(rs) => rs,
            Err(e) => {
                let err = WrapperError::from(e);
                return queries.iter().map(|_| Err(err.clone())).collect();
            }
        };
        crate::wrapper::bulk_stats::record(1, queries.len() as u64 - 1);
        queries
            .iter()
            .map(|q| self.answer_from_row(&rs, q))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pperf_datastore::{HplSpec, HplStore};

    fn wrapper() -> HplSqlWrapper {
        HplSqlWrapper::new(HplStore::build(HplSpec::tiny()).database().clone())
    }

    fn pr(metric: &str, foci: Vec<String>, rtype: &str) -> PrQuery {
        PrQuery {
            metric: metric.into(),
            foci,
            start: String::new(),
            end: String::new(),
            rtype: rtype.into(),
        }
    }

    #[test]
    fn table1_semantics() {
        let w = wrapper();
        assert_eq!(w.num_execs(), 8);
        assert_eq!(w.all_exec_ids().len(), 8);
        assert_eq!(w.all_exec_ids()[0], "100");
        let info = w.app_info();
        assert_eq!(info[0], ("name".into(), "HPL".into()));
        let params = w.exec_query_params();
        let numprocs = params.iter().find(|(a, _)| a == "numprocs").unwrap();
        assert!(!numprocs.1.is_empty());
        // Values are unique.
        let mut sorted = numprocs.1.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), numprocs.1.len());
    }

    #[test]
    fn exec_ids_matching_filters() {
        let w = wrapper();
        let all = w.all_exec_ids();
        let by_runid = w.exec_ids_matching("runid", "100").unwrap();
        assert_eq!(by_runid, ["100"]);
        let params = w.exec_query_params();
        let (_, np_values) = params
            .iter()
            .find(|(a, _)| a == "numprocs")
            .unwrap()
            .clone();
        let mut total = 0;
        for v in &np_values {
            total += w.exec_ids_matching("numprocs", v).unwrap().len();
        }
        assert_eq!(
            total,
            all.len(),
            "partitioning by attribute covers all execs"
        );
        assert!(w.exec_ids_matching("walltime", "1").is_err());
        assert!(w.exec_ids_matching("numprocs", "lots").is_err());
    }

    #[test]
    fn execution_discovery_ops() {
        let w = wrapper();
        let e = w.execution("100").unwrap();
        assert_eq!(e.foci(), ["/Execution"]);
        assert_eq!(e.metrics(), ["gflops", "runtimesec"]);
        assert_eq!(e.types(), ["hpl"]);
        let (s, _) = e.time_start_end();
        assert_eq!(s, "0.0");
        let info = e.info();
        assert!(info.iter().any(|(n, v)| n == "runid" && v == "100"));
        assert!(w.execution("9999").is_err());
        assert!(w.execution("abc").is_err());
    }

    #[test]
    fn get_pr_returns_single_small_value() {
        let w = wrapper();
        let e = w.execution("100").unwrap();
        let rows = e
            .get_pr(&pr("gflops", vec!["/Execution".into()], TYPE_UNDEFINED))
            .unwrap();
        assert_eq!(rows.len(), 1);
        let v: f64 = rows[0].parse().unwrap();
        assert!(v > 0.0);
        assert!(rows[0].len() <= 16, "payload stays ~8 bytes: {:?}", rows[0]);
        // Empty foci means "no restriction".
        assert_eq!(
            e.get_pr(&pr("runtimesec", vec![], TYPE_UNDEFINED))
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn get_pr_type_and_focus_filtering() {
        let w = wrapper();
        let e = w.execution("100").unwrap();
        assert!(e
            .get_pr(&pr("gflops", vec![], "vampir"))
            .unwrap()
            .is_empty());
        assert_eq!(e.get_pr(&pr("gflops", vec![], "hpl")).unwrap().len(), 1);
        assert!(e
            .get_pr(&pr("gflops", vec!["/Process/3".into()], TYPE_UNDEFINED))
            .unwrap()
            .is_empty());
        assert!(e.get_pr(&pr("watts", vec![], TYPE_UNDEFINED)).is_err());
    }

    #[test]
    fn get_pr_time_window() {
        let w = wrapper();
        let e = w.execution("100").unwrap();
        let (_, end) = e.time_start_end();
        let end: f64 = end.parse().unwrap();
        // Window beyond the run: no results.
        let far = PrQuery {
            metric: "gflops".into(),
            foci: vec![],
            start: format!("{}", end + 1.0),
            end: format!("{}", end + 2.0),
            rtype: TYPE_UNDEFINED.into(),
        };
        assert!(e.get_pr(&far).unwrap().is_empty());
        // Overlapping window: result present.
        let overlap = PrQuery {
            metric: "gflops".into(),
            foci: vec![],
            start: "0.0".into(),
            end: format!("{end}"),
            rtype: TYPE_UNDEFINED.into(),
        };
        assert_eq!(e.get_pr(&overlap).unwrap().len(), 1);
    }

    #[test]
    fn batch_collapses_to_one_scan_and_agrees_with_loop() {
        let w = wrapper();
        let e = w.execution("100").unwrap();
        let queries = [
            pr("gflops", vec!["/Execution".into()], TYPE_UNDEFINED),
            pr("runtimesec", vec![], "hpl"),
            pr("watts", vec![], TYPE_UNDEFINED), // unknown metric
            pr("gflops", vec![], "vampir"),      // foreign type
            pr("gflops", vec!["/Process/3".into()], TYPE_UNDEFINED), // foreign focus
        ];
        let before = crate::wrapper::bulk_stats::snapshot();
        let batch = e.get_pr_batch(&queries);
        let after = crate::wrapper::bulk_stats::snapshot();
        assert_eq!(batch.len(), queries.len());
        for (got, q) in batch.iter().zip(&queries) {
            assert_eq!(got, &e.get_pr(q), "{q:?}");
        }
        assert!(after.0 > before.0, "a bulk scan was recorded");
        assert!(
            after.1 >= before.1 + queries.len() as u64 - 1,
            "point queries collapsed: {before:?} -> {after:?}"
        );
        // A window query answered from the same row.
        let mut windowed = pr("gflops", vec![], TYPE_UNDEFINED);
        windowed.start = "1e9".into();
        windowed.end = "2e9".into();
        let batch = e.get_pr_batch(&[windowed.clone(), pr("gflops", vec![], TYPE_UNDEFINED)]);
        assert_eq!(batch[0], Ok(vec![]), "out-of-window via bulk path");
        assert_eq!(batch[1].as_ref().unwrap().len(), 1);
        // Singleton groups keep the plain path.
        let single = e.get_pr_batch(&[pr("gflops", vec![], TYPE_UNDEFINED)]);
        assert_eq!(single[0].as_ref().unwrap().len(), 1);
    }

    #[test]
    fn sql_injection_in_value_is_contained() {
        let w = wrapper();
        // A crafted value must not break out of the quoted literal.
        let r = w.exec_ids_matching("rundate", "x' OR '1'='1").unwrap();
        assert!(r.is_empty());
    }
}
