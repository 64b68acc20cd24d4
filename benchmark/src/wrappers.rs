//! The benchmark's own Mapping Layer pieces: a zero-cost wrapper over
//! pre-rendered rows (so a workload can take the mapping layer out of the
//! picture), and a tracing decorator that records a span around every
//! wrapper call the program makes (the thesis's "mapping" column).

use crate::spans;
use pperfgrid::{
    row_time_span, ApplicationWrapper, ExecutionWrapper, PrQuery, WrapperError, STREAM_BATCH_ROWS,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// How a [`BenchExec`]'s rows relate to time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Rows carry no `t=` marker: every query returns all of them.
    Opaque,
    /// Row `t` of each focus spans the unit interval `[t, t+1]`, so a window
    /// maps to an index range without scanning.
    UnitIntervals,
    /// Rows carry arbitrary `t=a:b` spans; bounded windows filter by scan.
    Spans,
}

/// Rows per focus, in focus order.
type RowSet = Vec<Vec<String>>;

/// `(exec, focus, row, version) -> row text`.
pub type Render = fn(usize, usize, usize, u64) -> String;

/// One scripted execution: pre-rendered rows per focus, no backend, no
/// delay. With `versioned` rows every row carries a `v=<n>` field that
/// [`BenchExec::bump_version`] advances, which is what lets the oracle tell
/// a stale cached answer from a fresh one.
pub struct BenchExec {
    pub index: usize,
    info: Vec<(String, String)>,
    metric: String,
    foci: Vec<String>,
    layout: Layout,
    render: Option<Render>,
    rows_per_focus: usize,
    rows: RwLock<Arc<RowSet>>,
    version: AtomicU64,
    /// `(time of update in ns, version it installed)`, oldest first.
    history: Mutex<Vec<(u64, u64)>>,
}

impl BenchExec {
    fn matches(&self, attribute: &str, value: &str) -> bool {
        self.info.iter().any(|(n, v)| n == attribute && v == value)
    }

    pub fn id(&self) -> String {
        format!("e{:03}", self.index)
    }

    /// Install the next row version (re-rendering every row) and remember
    /// when, so reads that started well after this instant can be checked
    /// for staleness. Returns the new version.
    pub fn bump_version(&self) -> u64 {
        let render = self
            .render
            .expect("bump_version on an unversioned execution");
        let version = self.version.load(Ordering::SeqCst) + 1;
        let fresh: RowSet = (0..self.foci.len())
            .map(|f| {
                (0..self.rows_per_focus)
                    .map(|t| render(self.index, f, t, version))
                    .collect()
            })
            .collect();
        *self.rows.write().expect("rows lock") = Arc::new(fresh);
        self.version.store(version, Ordering::SeqCst);
        self.history
            .lock()
            .expect("history lock")
            .push((spans::now_ns(), version));
        version
    }

    /// The version every read starting at `at_ns` must already see: the one
    /// installed by the latest update at least `grace_ns` before it.
    pub fn min_version_at(&self, at_ns: u64, grace_ns: u64) -> u64 {
        let cutoff = at_ns.saturating_sub(grace_ns);
        self.history
            .lock()
            .expect("history lock")
            .iter()
            .rev()
            .find(|(t, _)| *t <= cutoff)
            .map_or(0, |(_, v)| *v)
    }

    /// Feed the rows `query` selects to `emit`, focus by focus.
    fn select(
        &self,
        query: &PrQuery,
        emit: &mut dyn FnMut(&[String]) -> Result<(), WrapperError>,
    ) -> Result<(), WrapperError> {
        if query.metric != self.metric {
            return Err(WrapperError(format!("unknown metric {:?}", query.metric)));
        }
        let (w0, w1) = query.time_window()?;
        let unbounded = w0 == f64::NEG_INFINITY && w1 == f64::INFINITY;
        let rows = Arc::clone(&self.rows.read().expect("rows lock"));
        let wanted: Vec<usize> = if query.foci.is_empty() {
            (0..self.foci.len()).collect()
        } else {
            query
                .foci
                .iter()
                .filter_map(|f| self.foci.iter().position(|own| own == f))
                .collect()
        };
        for f in wanted {
            let focus_rows = &rows[f];
            match self.layout {
                _ if unbounded => emit(focus_rows)?,
                Layout::Opaque => emit(focus_rows)?,
                Layout::UnitIntervals => {
                    // Row t spans [t, t+1]; it intersects [w0, w1] iff
                    // t >= w0 - 1 and t <= w1.
                    let lo = (w0 - 1.0).ceil().max(0.0) as usize;
                    let hi = w1.floor().min(focus_rows.len() as f64 - 1.0);
                    if hi >= lo as f64 {
                        emit(&focus_rows[lo..=hi as usize])?;
                    }
                }
                Layout::Spans => {
                    let kept: Vec<String> = focus_rows
                        .iter()
                        .filter(|row| match row_time_span(row) {
                            Some((a, b)) => b >= w0 && a <= w1,
                            None => true,
                        })
                        .cloned()
                        .collect();
                    emit(&kept)?;
                }
            }
        }
        Ok(())
    }
}

impl ExecutionWrapper for BenchExec {
    fn info(&self) -> Vec<(String, String)> {
        self.info.clone()
    }

    fn foci(&self) -> Vec<String> {
        self.foci.clone()
    }

    fn metrics(&self) -> Vec<String> {
        vec![self.metric.clone()]
    }

    fn types(&self) -> Vec<String> {
        vec!["bench".into()]
    }

    fn time_start_end(&self) -> (String, String) {
        ("0".into(), self.rows_per_focus.to_string())
    }

    fn get_pr(&self, query: &PrQuery) -> Result<Vec<String>, WrapperError> {
        let mut out = Vec::new();
        self.select(query, &mut |rows| {
            out.extend_from_slice(rows);
            Ok(())
        })?;
        Ok(out)
    }

    /// Native streaming: pre-rendered rows go to the sink a batch at a time,
    /// so a full scan never materializes a second copy of the result set.
    fn get_pr_stream(
        &self,
        query: &PrQuery,
        sink: &mut dyn FnMut(Vec<String>) -> Result<(), WrapperError>,
    ) -> Result<u64, WrapperError> {
        let mut total = 0u64;
        self.select(query, &mut |rows| {
            for batch in rows.chunks(STREAM_BATCH_ROWS) {
                total += batch.len() as u64;
                sink(batch.to_vec())?;
            }
            Ok(())
        })?;
        Ok(total)
    }
}

/// Shape of a [`BenchApp`].
pub struct BenchSpec {
    pub name: &'static str,
    pub execs: usize,
    pub metric: &'static str,
    pub foci: Vec<String>,
    pub rows_per_focus: usize,
    pub layout: Layout,
    /// Executions per `group` attribute value (selector granularity).
    pub group_size: usize,
    pub render: Render,
    /// Rows carry a `v=` field and may be re-rendered at a new version.
    pub versioned: bool,
}

/// The benchmark-owned Application wrapper.
pub struct BenchApp {
    name: &'static str,
    pub execs: Vec<Arc<BenchExec>>,
}

impl BenchApp {
    pub fn build(spec: &BenchSpec) -> Arc<BenchApp> {
        let execs = (0..spec.execs)
            .map(|index| {
                let rows: RowSet = (0..spec.foci.len())
                    .map(|f| {
                        (0..spec.rows_per_focus)
                            .map(|t| (spec.render)(index, f, t, 0))
                            .collect()
                    })
                    .collect();
                Arc::new(BenchExec {
                    index,
                    info: vec![
                        ("runid".into(), index.to_string()),
                        ("group".into(), (index / spec.group_size.max(1)).to_string()),
                    ],
                    metric: spec.metric.to_owned(),
                    foci: spec.foci.clone(),
                    layout: spec.layout,
                    render: spec.versioned.then_some(spec.render),
                    rows_per_focus: spec.rows_per_focus,
                    rows: RwLock::new(Arc::new(rows)),
                    version: AtomicU64::new(0),
                    history: Mutex::new(Vec::new()),
                })
            })
            .collect();
        Arc::new(BenchApp {
            name: spec.name,
            execs,
        })
    }
}

impl ApplicationWrapper for BenchApp {
    fn app_info(&self) -> Vec<(String, String)> {
        vec![
            ("name".into(), self.name.to_owned()),
            ("storage".into(), "pre-rendered rows (benchmark)".into()),
        ]
    }

    fn num_execs(&self) -> usize {
        self.execs.len()
    }

    fn exec_query_params(&self) -> Vec<(String, Vec<String>)> {
        let mut params: Vec<(String, Vec<String>)> = Vec::new();
        for exec in &self.execs {
            for (name, value) in &exec.info {
                match params.iter_mut().find(|(n, _)| n == name) {
                    Some((_, values)) if !values.contains(value) => values.push(value.clone()),
                    Some(_) => {}
                    None => params.push((name.clone(), vec![value.clone()])),
                }
            }
        }
        params
    }

    fn all_exec_ids(&self) -> Vec<String> {
        self.execs.iter().map(|e| e.id()).collect()
    }

    fn exec_ids_matching(&self, attribute: &str, value: &str) -> Result<Vec<String>, WrapperError> {
        Ok(self
            .execs
            .iter()
            .filter(|e| e.matches(attribute, value))
            .map(|e| e.id())
            .collect())
    }

    fn execution(&self, exec_id: &str) -> Result<Arc<dyn ExecutionWrapper>, WrapperError> {
        self.execs
            .iter()
            .find(|e| e.id() == exec_id)
            .map(|e| Arc::clone(e) as Arc<dyn ExecutionWrapper>)
            .ok_or_else(|| WrapperError(format!("no execution {exec_id:?}")))
    }
}

/// The query a span recorded on a server thread belongs to: the traced
/// client put it in the request id the program propagates to every hop.
fn current_query() -> u64 {
    ppg_context::current().map_or(0, |ctx| spans::query_of_request_id(ctx.request_id()))
}

/// Decorator recording a span around every Execution wrapper call — the
/// thesis's Table 4 "mapping layer" timer, with the query id attached.
/// Deployed only in the traced run.
pub struct TracedApp {
    inner: Arc<dyn ApplicationWrapper>,
}

impl TracedApp {
    pub fn wrap(inner: Arc<dyn ApplicationWrapper>) -> Arc<dyn ApplicationWrapper> {
        Arc::new(TracedApp { inner })
    }
}

impl ApplicationWrapper for TracedApp {
    fn app_info(&self) -> Vec<(String, String)> {
        self.inner.app_info()
    }

    fn num_execs(&self) -> usize {
        self.inner.num_execs()
    }

    fn exec_query_params(&self) -> Vec<(String, Vec<String>)> {
        self.inner.exec_query_params()
    }

    fn all_exec_ids(&self) -> Vec<String> {
        timed("pperfgrid.wrapper.get_execs", |_| self.inner.all_exec_ids())
    }

    fn exec_ids_matching(&self, attribute: &str, value: &str) -> Result<Vec<String>, WrapperError> {
        timed("pperfgrid.wrapper.get_execs", |_| {
            self.inner.exec_ids_matching(attribute, value)
        })
    }

    fn execution(&self, exec_id: &str) -> Result<Arc<dyn ExecutionWrapper>, WrapperError> {
        Ok(Arc::new(TracedExec {
            inner: self.inner.execution(exec_id)?,
        }))
    }
}

struct TracedExec {
    inner: Arc<dyn ExecutionWrapper>,
}

/// Run `work` inside a span named `name`, attributed to the current query.
/// `work` is handed the span's id, for spans nested in it.
fn timed<T>(name: &'static str, work: impl FnOnce(u64) -> T) -> T {
    if !spans::tracing() {
        return work(0);
    }
    let id = spans::next_id();
    let (start, cpu) = (spans::now_ns(), spans::thread_cpu_ns());
    let out = work(id);
    let cpu = spans::thread_cpu_ns() - cpu;
    spans::record_with_id(id, 0, current_query(), name, start, spans::now_ns(), cpu);
    out
}

/// Span name of every Execution wrapper result fetch.
pub const WRAPPER_SPAN: &str = "pperfgrid.wrapper.get_pr";
/// Span name of a streamed batch being handed to the service's sink.
pub const SINK_SPAN: &str = "pperfgrid.execution.stream_sink";

impl ExecutionWrapper for TracedExec {
    fn info(&self) -> Vec<(String, String)> {
        self.inner.info()
    }

    fn foci(&self) -> Vec<String> {
        self.inner.foci()
    }

    fn metrics(&self) -> Vec<String> {
        self.inner.metrics()
    }

    fn types(&self) -> Vec<String> {
        self.inner.types()
    }

    fn time_start_end(&self) -> (String, String) {
        self.inner.time_start_end()
    }

    fn get_pr(&self, query: &PrQuery) -> Result<Vec<String>, WrapperError> {
        timed(WRAPPER_SPAN, |_| self.inner.get_pr(query))
    }

    fn get_pr_batch(&self, queries: &[PrQuery]) -> Vec<Result<Vec<String>, WrapperError>> {
        timed(WRAPPER_SPAN, |_| self.inner.get_pr_batch(queries))
    }

    fn get_pr_stream(
        &self,
        query: &PrQuery,
        sink: &mut dyn FnMut(Vec<String>) -> Result<(), WrapperError>,
    ) -> Result<u64, WrapperError> {
        // What the sink does with a batch (frame it, wait for the consumer's
        // window) is not the mapping layer's time: it gets a span of its own,
        // nested in this one, so folding takes it out.
        timed(WRAPPER_SPAN, |id| {
            self.inner.get_pr_stream(query, &mut |batch| {
                if id == 0 {
                    return sink(batch);
                }
                let (start, cpu) = (spans::now_ns(), spans::thread_cpu_ns());
                let handed = sink(batch);
                let cpu = spans::thread_cpu_ns() - cpu;
                spans::record(id, current_query(), SINK_SPAN, start, spans::now_ns(), cpu);
                handed
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_row(exec: usize, _focus: usize, t: usize, version: u64) -> String {
        format!("gflops|t={t}:{}|v={version}|e{exec:03}|{t}", t + 1)
    }

    fn app(versioned: bool) -> Arc<BenchApp> {
        BenchApp::build(&BenchSpec {
            name: "test",
            execs: 4,
            metric: "gflops",
            foci: vec!["/Execution".into()],
            rows_per_focus: 16,
            layout: Layout::UnitIntervals,
            group_size: 2,
            render: unit_row,
            versioned,
        })
    }

    fn q(start: &str, end: &str) -> PrQuery {
        PrQuery {
            metric: "gflops".into(),
            foci: vec!["/Execution".into()],
            start: start.into(),
            end: end.into(),
            rtype: pperfgrid::TYPE_UNDEFINED.into(),
        }
    }

    #[test]
    fn unit_interval_windows_match_a_span_scan() {
        let app = app(false);
        let exec = app.execution("e001").unwrap();
        for (a, b) in [
            ("0", "16"),
            ("3", "5"),
            ("0", "0"),
            ("15", "40"),
            ("2.5", "2.6"),
        ] {
            let got = exec.get_pr(&q(a, b)).unwrap();
            let (w0, w1): (f64, f64) = (a.parse().unwrap(), b.parse().unwrap());
            let want: Vec<String> = (0..16)
                .map(|t| unit_row(1, 0, t, 0))
                .filter(|row| {
                    let (s, e) = row_time_span(row).unwrap();
                    e >= w0 && s <= w1
                })
                .collect();
            assert_eq!(got, want, "window [{a}, {b}]");
        }
        assert_eq!(exec.get_pr(&q("", "")).unwrap().len(), 16);
        assert!(exec.get_pr(&q("20", "30")).unwrap().is_empty());
    }

    #[test]
    fn streaming_yields_the_same_rows_in_batches() {
        let app = app(false);
        let exec = app.execution("e002").unwrap();
        let mut streamed = Vec::new();
        let total = exec
            .get_pr_stream(&q("", ""), &mut |batch| {
                streamed.extend(batch);
                Ok(())
            })
            .unwrap();
        assert_eq!(total, 16);
        assert_eq!(streamed, exec.get_pr(&q("", "")).unwrap());
    }

    #[test]
    fn selectors_and_versions() {
        let app = app(true);
        assert_eq!(
            app.exec_ids_matching("group", "1").unwrap(),
            ["e002", "e003"]
        );
        let exec = &app.execs[3];
        assert_eq!(exec.min_version_at(spans::now_ns(), 0), 0);
        assert_eq!(exec.bump_version(), 1);
        let now = spans::now_ns();
        assert_eq!(exec.min_version_at(now, 0), 1);
        // Inside the grace period the old version is still acceptable.
        assert_eq!(exec.min_version_at(now, u64::MAX / 2), 0);
        let rows = exec.get_pr(&q("0", "1")).unwrap();
        assert!(rows.iter().all(|r| r.contains("|v=1|")), "{rows:?}");
    }
}
