//! PRESTA RMA wrapper over the ASCII text-file store ("parse a text file
//! using custom in-line code", thesis §5.2).

use crate::wrapper::{ApplicationWrapper, ExecutionWrapper, PrQuery, WrapperError};
use crate::TYPE_UNDEFINED;
use pperf_datastore::rma::{scan_rma, RmaLine};
use pperf_datastore::RmaTextStore;
use std::fmt::Write as _;
use std::sync::Arc;

const METRICS: &[&str] = &["bandwidth_mbps", "latency_us"];
const ATTRIBUTES: &[&str] = &["execid", "rundate", "numprocs"];

/// The RMA Application wrapper.
pub struct RmaTextWrapper {
    store: Arc<RmaTextStore>,
}

impl RmaTextWrapper {
    /// Wrap a text store directory.
    pub fn new(store: RmaTextStore) -> RmaTextWrapper {
        RmaTextWrapper {
            store: Arc::new(store),
        }
    }
}

impl ApplicationWrapper for RmaTextWrapper {
    fn app_info(&self) -> Vec<(String, String)> {
        vec![
            ("name".into(), "PRESTA-RMA".into()),
            ("version".into(), "1.2".into()),
            (
                "description".into(),
                "PRESTA MPI Bandwidth and Latency Benchmark (RMA/one-sided operations)".into(),
            ),
            ("storage".into(), "ASCII text files".into()),
        ]
    }

    fn num_execs(&self) -> usize {
        self.store.exec_ids().map(|v| v.len()).unwrap_or(0)
    }

    fn exec_query_params(&self) -> Vec<(String, Vec<String>)> {
        let Ok(ids) = self.store.exec_ids() else {
            return vec![];
        };
        let executions: Vec<_> = ids
            .iter()
            .filter_map(|id| self.store.read_execution(*id).ok())
            .collect();
        ATTRIBUTES
            .iter()
            .map(|attr| {
                let mut values: Vec<String> = executions
                    .iter()
                    .filter_map(|e| e.header(attr).map(str::to_owned))
                    .collect();
                values.sort();
                values.dedup();
                ((*attr).to_owned(), values)
            })
            .collect()
    }

    fn all_exec_ids(&self) -> Vec<String> {
        self.store
            .exec_ids()
            .map(|ids| ids.iter().map(i64::to_string).collect())
            .unwrap_or_default()
    }

    fn exec_ids_matching(&self, attribute: &str, value: &str) -> Result<Vec<String>, WrapperError> {
        if !ATTRIBUTES.iter().any(|a| a.eq_ignore_ascii_case(attribute)) {
            return Err(WrapperError(format!("unknown attribute {attribute:?}")));
        }
        let mut out = Vec::new();
        for id in self.store.exec_ids()? {
            let exec = self.store.read_execution(id)?;
            if exec.header(&attribute.to_ascii_lowercase()) == Some(value) {
                out.push(id.to_string());
            }
        }
        Ok(out)
    }

    fn execution(&self, exec_id: &str) -> Result<Arc<dyn ExecutionWrapper>, WrapperError> {
        let execid: i64 = exec_id
            .trim()
            .parse()
            .map_err(|_| WrapperError(format!("bad RMA execution id {exec_id:?}")))?;
        self.store.read_execution(execid)?; // fail fast
        Ok(Arc::new(RmaTextExecution {
            store: Arc::clone(&self.store),
            execid,
        }))
    }
}

struct RmaTextExecution {
    store: Arc<RmaTextStore>,
    execid: i64,
}

impl RmaTextExecution {
    fn parse(&self) -> Result<pperf_datastore::rma::RmaExecution, WrapperError> {
        Ok(self.store.read_execution(self.execid)?)
    }
}

impl ExecutionWrapper for RmaTextExecution {
    fn info(&self) -> Vec<(String, String)> {
        self.parse().map(|e| e.headers).unwrap_or_default()
    }

    fn foci(&self) -> Vec<String> {
        let Ok(exec) = self.parse() else {
            return vec![];
        };
        let mut ops: Vec<String> = exec
            .records
            .iter()
            .map(|r| format!("/Op/{}", r.op))
            .collect();
        ops.sort();
        ops.dedup();
        ops
    }

    fn metrics(&self) -> Vec<String> {
        METRICS.iter().map(|m| (*m).to_owned()).collect()
    }

    fn types(&self) -> Vec<String> {
        vec!["presta".into()]
    }

    fn time_start_end(&self) -> (String, String) {
        let exec = match self.parse() {
            Ok(e) => e,
            Err(_) => return ("0.0".into(), "0.0".into()),
        };
        (
            exec.header("starttime").unwrap_or("0.0").to_owned(),
            exec.header("endtime").unwrap_or("0.0").to_owned(),
        )
    }

    /// Each call re-reads and re-scans the ASCII file — the Mapping Layer
    /// cost the caching experiment (Table 5) found cheap relative to an
    /// RDBMS, giving RMA its near-1.0 caching speedup. One pass validates
    /// every line, as [`pperf_datastore::rma::parse_rma`] does, and formats
    /// only the answer's rows; the time window is decided after it, so
    /// headers may follow the rows.
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
        // Focus filter: /Op/<name>; empty = all operations.
        let ops: Vec<&str> = query
            .foci
            .iter()
            .filter_map(|f| f.strip_prefix("/Op/"))
            .collect();
        // Foci given but none of the RMA form: the file is still read and
        // validated, and nothing is kept.
        let none_wanted = !query.foci.is_empty() && ops.is_empty();
        let latency = query.metric.eq_ignore_ascii_case("latency_us");
        let text = self.store.read_text(self.execid)?;
        let (mut start, mut end) = (None, None);
        let mut rows = Vec::new();
        for line in scan_rma(&text) {
            match line.map_err(WrapperError)? {
                // The first of each header counts, as `RmaExecution::header`.
                RmaLine::Header("starttime", v) => {
                    start.get_or_insert(v);
                }
                RmaLine::Header("endtime", v) => {
                    end.get_or_insert(v);
                }
                RmaLine::Header(..) => {}
                RmaLine::Row(r) if !none_wanted && (ops.is_empty() || ops.contains(&r.op)) => {
                    let value = if latency {
                        r.latency_us
                    } else {
                        r.bandwidth_mbps
                    };
                    // Room for any size and a value of up to 14 characters:
                    // formatting does not regrow the row.
                    let mut row = String::with_capacity(48 + r.op.len() + query.metric.len());
                    let _ = write!(
                        row,
                        "op={} msgsize={} {}={value:.3}",
                        r.op, r.msgsize, query.metric
                    );
                    rows.push(row);
                }
                RmaLine::Row(_) => {}
            }
        }
        let start: f64 = start.unwrap_or("0").parse().unwrap_or(0.0);
        let end: f64 = end.unwrap_or("0").parse().unwrap_or(0.0);
        if end < t0 || start > t1 {
            return Ok(vec![]);
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pperf_datastore::RmaSpec;
    use std::path::PathBuf;

    struct Guard(PathBuf);
    impl Drop for Guard {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn wrapper(tag: &str, spec: &RmaSpec) -> (Guard, RmaTextWrapper) {
        let dir = std::env::temp_dir().join(format!("rma-wrap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = RmaTextStore::generate(&dir, spec).unwrap();
        (Guard(dir), RmaTextWrapper::new(store))
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
        let (_g, w) = wrapper("app", &RmaSpec::tiny());
        assert_eq!(w.num_execs(), 3);
        assert_eq!(w.all_exec_ids(), ["0", "1", "2"]);
        let params = w.exec_query_params();
        assert!(params.iter().any(|(a, v)| a == "numprocs" && !v.is_empty()));
        let hit = w.exec_ids_matching("execid", "1").unwrap();
        assert_eq!(hit, ["1"]);
        assert!(w.exec_ids_matching("nope", "x").is_err());
    }

    #[test]
    fn execution_semantics() {
        let (_g, w) = wrapper("exec", &RmaSpec::tiny());
        let e = w.execution("0").unwrap();
        assert_eq!(e.types(), ["presta"]);
        assert_eq!(e.metrics(), ["bandwidth_mbps", "latency_us"]);
        let foci = e.foci();
        assert!(foci.contains(&"/Op/unidir".to_owned()));
        assert!(foci.contains(&"/Op/latency".to_owned()));
        let (s, end) = e.time_start_end();
        assert_eq!(s, "0.0");
        assert!(end.parse::<f64>().unwrap() > 0.0);
    }

    #[test]
    fn get_pr_payload_and_filtering() {
        let (_g, w) = wrapper("pr", &RmaSpec::tiny());
        let e = w.execution("0").unwrap();
        let all = e.get_pr(&pr("bandwidth_mbps", vec![])).unwrap();
        assert_eq!(all.len(), 2 * 3, "ops × sizes");
        let unidir = e
            .get_pr(&pr("bandwidth_mbps", vec!["/Op/unidir".into()]))
            .unwrap();
        assert_eq!(unidir.len(), 3);
        assert!(unidir.iter().all(|r| r.starts_with("op=unidir ")));
        let foreign_focus = e
            .get_pr(&pr("latency_us", vec!["/Process/1".into()]))
            .unwrap();
        assert!(foreign_focus.is_empty());
        assert!(e.get_pr(&pr("mystery", vec![])).is_err());
    }

    #[test]
    fn default_payload_is_multi_kb() {
        let (_g, w) = wrapper("payload", &RmaSpec::default());
        let e = w.execution("0").unwrap();
        let rows = e
            .get_pr(&pr("bandwidth_mbps", vec!["/Op/unidir".into()]))
            .unwrap();
        let bytes: usize = rows.iter().map(String::len).sum();
        assert!(
            (2_000..12_000).contains(&bytes),
            "RMA payload {bytes} bytes should be ~5.7 kB-class"
        );
    }

    /// A store directory holding `files` as `(execid, text)`.
    fn store_with(tag: &str, files: &[(i64, &str)]) -> (Guard, RmaTextWrapper) {
        let dir = std::env::temp_dir().join(format!("rma-wrap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (execid, text) in files {
            std::fs::write(dir.join(format!("rma-{execid}.txt")), text).unwrap();
        }
        (
            Guard(dir.clone()),
            RmaTextWrapper::new(RmaTextStore::open(dir)),
        )
    }

    const HEADERS: &str = "# presta-rma\n# execid 0\n# starttime 0.0\n# endtime 12.5\n";
    const ROWS: &str = "op msgsize bandwidth_mbps latency_us\n\
                        unidir 8 11.920 55.100\n\
                        put 8 30.000 60.000\n\
                        unidir 64 20.500 61.250\n";

    #[test]
    fn a_bad_row_of_an_op_not_asked_for_still_faults() {
        let good = format!("{HEADERS}{ROWS}");
        let (g, w) = store_with("strict", &[(0, &good)]);
        let e = w.execution("0").unwrap();
        let unidir = pr("bandwidth_mbps", vec!["/Op/unidir".into()]);
        assert_eq!(e.get_pr(&unidir).unwrap().len(), 2);
        let bad = good.replace("put 8 30.000", "put 8 fast");
        std::fs::write(g.0.join("rma-0.txt"), &bad).unwrap();
        let expected = pperf_datastore::rma::parse_rma(0, &bad).unwrap_err();
        assert_eq!(expected, "line 7: bad bandwidth \"fast\"");
        for query in [unidir, pr("latency_us", vec!["/Process/1".into()])] {
            assert_eq!(e.get_pr(&query).unwrap_err().0, expected, "{query:?}");
        }
    }

    #[test]
    fn headers_after_the_rows_answer_the_same() {
        let first = format!("{HEADERS}{ROWS}");
        let last = format!("{ROWS}{HEADERS}");
        let (_g, w) = store_with("hdr-last", &[(0, &first), (1, &last)]);
        let (e0, e1) = (w.execution("0").unwrap(), w.execution("1").unwrap());
        let mut answered = 0;
        for (start, end) in [
            ("", ""),
            ("0", "5"),
            ("12.5", "40"),
            ("13", "20"),
            ("-5", "-1"),
        ] {
            for foci in [vec![], vec!["/Op/unidir".to_owned()]] {
                let q = PrQuery {
                    start: start.into(),
                    end: end.into(),
                    ..pr("latency_us", foci)
                };
                let rows = e0.get_pr(&q).unwrap();
                assert_eq!(rows, e1.get_pr(&q).unwrap(), "{q:?}");
                answered += usize::from(!rows.is_empty());
            }
        }
        assert_eq!(answered, 6, "three windows meet [0, 12.5], two miss it");
    }

    /// `get_pr` as it was written over [`pperf_datastore::rma::parse_rma`]:
    /// parse every record, then filter.
    fn reference_get_pr(
        w: &RmaTextWrapper,
        execid: i64,
        query: &PrQuery,
    ) -> Result<Vec<String>, WrapperError> {
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
        let exec = w.store.read_execution(execid)?;
        let header = |k: &str| exec.header(k).unwrap_or("0").parse().unwrap_or(0.0);
        if header("endtime") < t0 || header("starttime") > t1 {
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
        let latency = query.metric.eq_ignore_ascii_case("latency_us");
        Ok(exec
            .records
            .iter()
            .filter(|r| ops.is_empty() || ops.contains(&r.op.as_str()))
            .map(|r| {
                let value = if latency {
                    r.latency_us
                } else {
                    r.bandwidth_mbps
                };
                format!(
                    "op={} msgsize={} {}={:.3}",
                    r.op, r.msgsize, query.metric, value
                )
            })
            .collect())
    }

    #[test]
    fn every_answer_matches_the_parse_then_filter_reference() {
        let (_g, w) = wrapper("reference", &RmaSpec::tiny());
        let foci_sets: [&[&str]; 6] = [
            &[],
            &["/Op/unidir"],
            &["/Op/latency", "/Op/unidir"],
            &["/Op/nope"],
            &["/Process/1"],
            &["/Op/latency", "/Process/1"],
        ];
        let mut compared = 0;
        for execid in 0..3 {
            let e = w.execution(&execid.to_string()).unwrap();
            for metric in ["bandwidth_mbps", "latency_us", "LATENCY_US", "mystery"] {
                for foci in foci_sets {
                    for (start, end) in [("", ""), ("0", "1"), ("100", ""), ("", "-1"), ("x", "")] {
                        for rtype in [TYPE_UNDEFINED, "presta", "vampir"] {
                            let q = PrQuery {
                                metric: metric.into(),
                                foci: foci.iter().map(|f| (*f).to_owned()).collect(),
                                start: start.into(),
                                end: end.into(),
                                rtype: rtype.into(),
                            };
                            let got = e.get_pr(&q).map_err(|e| e.0);
                            let want = reference_get_pr(&w, execid, &q).map_err(|e| e.0);
                            assert_eq!(got, want, "exec {execid}: {q:?}");
                            compared += usize::from(got.is_ok_and(|rows| !rows.is_empty()));
                        }
                    }
                }
            }
        }
        assert!(compared > 50, "non-empty answers compared: {compared}");
    }

    #[test]
    fn wrong_type_yields_empty() {
        let (_g, w) = wrapper("type", &RmaSpec::tiny());
        let e = w.execution("0").unwrap();
        let mut q = pr("bandwidth_mbps", vec![]);
        q.rtype = "vampir".into();
        assert!(e.get_pr(&q).unwrap().is_empty());
    }
}
