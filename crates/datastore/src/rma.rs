//! The PRESTA RMA data store: flat ASCII text files with a custom parser
//! (thesis §6.1: "the Presta RMA dataset was stored in flat text files...
//! accessed through a custom parser written in Java").
//!
//! File format (one file per execution, `rma-<execid>.txt`):
//!
//! ```text
//! # presta-rma synthetic trace
//! # execid 3
//! # rundate 2004-05-14
//! # numprocs 8
//! # starttime 0.0
//! # endtime 12.5
//! op msgsize bandwidth_mbps latency_us
//! unidir 8 11.92 55.1
//! ...
//! ```

use crate::spec::RmaSpec;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io;
use std::path::{Path, PathBuf};

/// One parsed data row.
#[derive(Debug, Clone, PartialEq)]
pub struct RmaRecord {
    /// MPI operation name.
    pub op: String,
    /// Message size in bytes.
    pub msgsize: u64,
    /// Bandwidth in MB/s.
    pub bandwidth_mbps: f64,
    /// Latency in microseconds.
    pub latency_us: f64,
}

/// A parsed execution file: header metadata plus records.
#[derive(Debug, Clone)]
pub struct RmaExecution {
    /// Execution id.
    pub execid: i64,
    /// Header key/value pairs in file order (execid included).
    pub headers: Vec<(String, String)>,
    /// Data rows.
    pub records: Vec<RmaRecord>,
}

impl RmaExecution {
    /// Header lookup.
    pub fn header(&self, key: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// The RMA store: a directory of ASCII files.
pub struct RmaTextStore {
    dir: PathBuf,
}

impl RmaTextStore {
    /// Generate files for `spec` under `dir` (created if needed).
    pub fn generate(dir: impl Into<PathBuf>, spec: &RmaSpec) -> io::Result<RmaTextStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut rng = StdRng::seed_from_u64(spec.seed);
        for execid in 0..spec.num_execs as i64 {
            let numprocs = 1i64 << rng.random_range(1..5);
            let endtime = 8.0 + 8.0 * rng.random::<f64>();
            let day = 1 + (execid % 28);
            let mut text = String::with_capacity(8192);
            text.push_str("# presta-rma synthetic trace\n");
            text.push_str(&format!("# execid {execid}\n"));
            text.push_str(&format!("# rundate 2004-05-{day:02}\n"));
            text.push_str(&format!("# numprocs {numprocs}\n"));
            text.push_str("# starttime 0.0\n");
            text.push_str(&format!("# endtime {endtime:.3}\n"));
            text.push_str("op msgsize bandwidth_mbps latency_us\n");
            for op in &spec.ops {
                for &size in &spec.msg_sizes {
                    for _trial in 0..spec.trials.max(1) {
                        // Bandwidth saturates with message size; latency grows.
                        let peak = 80.0 + 40.0 * rng.random::<f64>(); // MB/s-class (2004 LAN)
                        let bw = peak * (size as f64) / (size as f64 + 8192.0)
                            * (0.9 + 0.2 * rng.random::<f64>());
                        let lat = 40.0 + size as f64 / 100.0 * (0.9 + 0.2 * rng.random::<f64>());
                        text.push_str(&format!("{op} {size} {bw:.3} {lat:.3}\n"));
                    }
                }
            }
            std::fs::write(dir.join(format!("rma-{execid}.txt")), text)?;
        }
        Ok(RmaTextStore { dir })
    }

    /// Open an existing store directory.
    pub fn open(dir: impl Into<PathBuf>) -> RmaTextStore {
        RmaTextStore { dir: dir.into() }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// All execution ids present (sorted).
    pub fn exec_ids(&self) -> io::Result<Vec<i64>> {
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(id) = name
                .strip_prefix("rma-")
                .and_then(|s| s.strip_suffix(".txt"))
                .and_then(|s| s.parse::<i64>().ok())
            {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    /// Parse one execution file. This is the custom parser — called on every
    /// (uncached) query, so its cost is part of the Mapping Layer time the
    /// experiments measure.
    pub fn read_execution(&self, execid: i64) -> io::Result<RmaExecution> {
        parse_rma(execid, &self.read_text(execid)?)
            .map_err(|m| io::Error::new(io::ErrorKind::InvalidData, m))
    }

    /// One execution file's text, for a caller that runs [`scan_rma`]
    /// over it.
    pub fn read_text(&self, execid: i64) -> io::Result<String> {
        std::fs::read_to_string(self.dir.join(format!("rma-{execid}.txt")))
    }
}

/// Parse an RMA file body.
pub fn parse_rma(execid: i64, text: &str) -> Result<RmaExecution, String> {
    let mut headers = Vec::new();
    let mut records = Vec::new();
    for line in scan_rma(text) {
        match line? {
            RmaLine::Header(key, value) => headers.push((key.to_owned(), value.to_owned())),
            RmaLine::Row(row) => records.push(RmaRecord {
                op: row.op.to_owned(),
                msgsize: row.msgsize,
                bandwidth_mbps: row.bandwidth_mbps,
                latency_us: row.latency_us,
            }),
        }
    }
    Ok(RmaExecution {
        execid,
        headers,
        records,
    })
}

/// One data row, borrowed from the file text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmaRow<'t> {
    /// MPI operation name.
    pub op: &'t str,
    /// Message size in bytes.
    pub msgsize: u64,
    /// Bandwidth in MB/s.
    pub bandwidth_mbps: f64,
    /// Latency in microseconds.
    pub latency_us: f64,
}

/// A line of an RMA file that carries something.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RmaLine<'t> {
    /// `# key value`: a header (comments without a value carry nothing).
    Header(&'t str, &'t str),
    /// A data row.
    Row(RmaRow<'t>),
}

/// Scan an RMA file body line by line, borrowing from it: the headers and
/// rows [`parse_rma`] keeps, in file order, each validated as it is
/// reached. The first malformed line, or a body without the column line,
/// ends the scan with its error.
pub fn scan_rma(text: &str) -> RmaScanner<'_> {
    RmaScanner {
        lines: text.lines().enumerate(),
        saw_column_line: false,
        done: false,
    }
}

/// The iterator behind [`scan_rma`].
pub struct RmaScanner<'t> {
    lines: std::iter::Enumerate<std::str::Lines<'t>>,
    saw_column_line: bool,
    done: bool,
}

impl<'t> Iterator for RmaScanner<'t> {
    type Item = Result<RmaLine<'t>, String>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        for (lineno, line) in self.lines.by_ref() {
            match scan_line(&mut self.saw_column_line, lineno, line) {
                Ok(None) => continue,
                Ok(Some(item)) => return Some(Ok(item)),
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        self.done = true;
        (!self.saw_column_line).then(|| Err("missing column header line".into()))
    }
}

/// Validate one line (`lineno` counts from 0) and say what it carries.
fn scan_line<'t>(
    saw_column_line: &mut bool,
    lineno: usize,
    line: &'t str,
) -> Result<Option<RmaLine<'t>>, String> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(None);
    }
    if let Some(comment) = line.strip_prefix('#') {
        return Ok(comment
            .trim()
            .split_once(' ')
            .map(|(key, value)| RmaLine::Header(key, value.trim())));
    }
    if !*saw_column_line {
        // The first non-comment line names the columns.
        if line != "op msgsize bandwidth_mbps latency_us" {
            return Err(format!(
                "line {}: unexpected column header {line:?}",
                lineno + 1
            ));
        }
        *saw_column_line = true;
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let [Some(op), Some(size), Some(bw), Some(lat)] =
        [parts.next(), parts.next(), parts.next(), parts.next()]
    else {
        return Err(format!("line {}: short data row {line:?}", lineno + 1));
    };
    if parts.next().is_some() {
        return Err(format!("line {}: extra fields in {line:?}", lineno + 1));
    }
    Ok(Some(RmaLine::Row(RmaRow {
        op,
        msgsize: size
            .parse()
            .map_err(|_| format!("line {}: bad msgsize {size:?}", lineno + 1))?,
        bandwidth_mbps: bw
            .parse()
            .map_err(|_| format!("line {}: bad bandwidth {bw:?}", lineno + 1))?,
        latency_us: lat
            .parse()
            .map_err(|_| format!("line {}: bad latency {lat:?}", lineno + 1))?,
    })))
}

/// Import a text store into a relational database — the thesis's proposed
/// future test: "Future tests performed with both the ASCII text files and
/// an RDBMS version of the RMA data source could confirm this theory"
/// (§6.6). Builds `rma_execs(execid, rundate, numprocs, starttime, endtime)`
/// and `rma_records(execid, op, msgsize, bandwidth_mbps, latency_us)`.
pub fn rma_to_database(store: &RmaTextStore) -> std::io::Result<pperf_minidb::Database> {
    use pperf_minidb::DbValue;
    let db = pperf_minidb::Database::new();
    let conn = db.connect();
    conn.execute(
        "CREATE TABLE rma_execs (execid INT, rundate TEXT, numprocs INT, \
         starttime DOUBLE, endtime DOUBLE)",
    )
    .expect("create rma_execs");
    conn.execute(
        "CREATE TABLE rma_records (execid INT, op TEXT, msgsize INT, \
         bandwidth_mbps DOUBLE, latency_us DOUBLE)",
    )
    .expect("create rma_records");
    for id in store.exec_ids()? {
        let exec = store.read_execution(id)?;
        let header_f64 = |k: &str| {
            exec.header(k)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        let header_i64 = |k: &str| {
            exec.header(k)
                .and_then(|v| v.parse::<i64>().ok())
                .unwrap_or(0)
        };
        db.bulk_insert(
            "rma_execs",
            vec![vec![
                DbValue::Int(id),
                DbValue::Text(exec.header("rundate").unwrap_or("").to_owned()),
                DbValue::Int(header_i64("numprocs")),
                DbValue::Double(header_f64("starttime")),
                DbValue::Double(header_f64("endtime")),
            ]],
        )
        .expect("load rma_execs");
        let rows = exec
            .records
            .iter()
            .map(|r| {
                vec![
                    DbValue::Int(id),
                    DbValue::Text(r.op.clone()),
                    DbValue::Int(r.msgsize as i64),
                    DbValue::Double(r.bandwidth_mbps),
                    DbValue::Double(r.latency_us),
                ]
            })
            .collect();
        db.bulk_insert("rma_records", rows)
            .expect("load rma_records");
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RmaSpec;

    fn temp_store(tag: &str, spec: &RmaSpec) -> (PathBuf, RmaTextStore) {
        let dir = std::env::temp_dir().join(format!("rma-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = RmaTextStore::generate(&dir, spec).unwrap();
        (dir, store)
    }

    #[test]
    fn generate_and_parse_roundtrip() {
        let spec = RmaSpec::tiny();
        let (dir, store) = temp_store("roundtrip", &spec);
        let ids = store.exec_ids().unwrap();
        assert_eq!(ids, [0, 1, 2]);
        let exec = store.read_execution(1).unwrap();
        assert_eq!(exec.execid, 1);
        assert_eq!(exec.header("execid"), Some("1"));
        assert!(exec.header("numprocs").is_some());
        assert_eq!(
            exec.records.len(),
            spec.ops.len() * spec.msg_sizes.len() * spec.trials.max(1)
        );
        assert!(exec
            .records
            .iter()
            .all(|r| r.bandwidth_mbps > 0.0 && r.latency_us > 0.0));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn default_payload_is_kilobytes() {
        // The thesis reports ~5,692 bytes transferred per RMA query; the
        // default spec's rendered record set should be the same order of
        // magnitude (a few kB).
        let spec = RmaSpec::default();
        let (dir, store) = temp_store("payload", &spec);
        let exec = store.read_execution(0).unwrap();
        let rendered: usize = exec
            .records
            .iter()
            .map(|r| {
                format!(
                    "{} {} {} {}",
                    r.op, r.msgsize, r.bandwidth_mbps, r.latency_us
                )
                .len()
            })
            .sum();
        assert!(
            (2_000..20_000).contains(&rendered),
            "rendered payload {rendered} bytes out of range"
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn parser_rejects_malformed() {
        assert!(parse_rma(0, "").is_err());
        assert!(parse_rma(0, "# only comments\n").is_err());
        assert!(parse_rma(0, "bogus columns\n").is_err());
        let good_hdr = "op msgsize bandwidth_mbps latency_us\n";
        assert!(
            parse_rma(0, &format!("{good_hdr}unidir 8 1.0")).is_err(),
            "short row"
        );
        assert!(
            parse_rma(0, &format!("{good_hdr}unidir 8 1.0 2.0 junk")).is_err(),
            "long row"
        );
        assert!(parse_rma(0, &format!("{good_hdr}unidir eight 1.0 2.0")).is_err());
        assert!(
            parse_rma(0, good_hdr).unwrap().records.is_empty(),
            "header only is valid"
        );
    }

    #[test]
    fn every_unicode_space_separates_fields() {
        // A vertical tab and a no-break space are White_Space, though not
        // `u8::is_ascii_whitespace`; lines holding them still split on them.
        let hdr = "op msgsize bandwidth_mbps latency_us\n";
        for sep in ["\u{0b}", "\u{a0}", " \t", "\u{0c}"] {
            let body = format!("{hdr}\u{0b}unidir{sep}8 1.5{sep}2.5\u{a0}\n");
            let exec = parse_rma(0, &body).unwrap_or_else(|e| panic!("{sep:?}: {e}"));
            assert_eq!(exec.records.len(), 1, "{sep:?}");
            assert_eq!(exec.records[0].op, "unidir");
            assert_eq!(exec.records[0].latency_us, 2.5);
        }
        assert!(parse_rma(0, &format!("{hdr}unidir\u{85}8 1.5 2.5 x")).is_err());
    }

    #[test]
    fn deterministic_generation() {
        let spec = RmaSpec::tiny();
        let (d1, s1) = temp_store("det1", &spec);
        let (d2, s2) = temp_store("det2", &spec);
        let a = s1.read_execution(0).unwrap();
        let b = s2.read_execution(0).unwrap();
        assert_eq!(a.records, b.records);
        std::fs::remove_dir_all(d1).unwrap();
        std::fs::remove_dir_all(d2).unwrap();
    }

    #[test]
    fn missing_execution_is_io_error() {
        let spec = RmaSpec::tiny();
        let (dir, store) = temp_store("missing", &spec);
        assert!(store.read_execution(999).is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }
}
