//! The Execution semantic object as a Grid service (thesis Table 2 and
//! §5.3.2), its factory, and the typed client stub.

use crate::prcache::{CachePolicy, PrCache};
use crate::wrapper::{
    ApplicationWrapper, ExecutionWrapper, PrQuery, WrapperError, STREAM_BATCH_ROWS,
};
use crate::{EXECUTION_NS, TYPE_UNDEFINED};
use pperf_httpd::HttpClient;
use pperf_ogsi::{Factory, Gsh, ServiceData, ServicePort, ServiceStub};
use pperf_soap::wsdl::{Operation, PortType, ServiceDescription};
use pperf_soap::{Call, Fault, Value, ValueType};
use ppg_context::CallContext;
use std::sync::Arc;
use std::time::Instant;

/// The Execution PortType description (thesis Table 2, verbatim semantics).
pub fn execution_description() -> ServiceDescription {
    ServiceDescription::new("PPerfGridExecution", EXECUTION_NS).with_port_type(PortType::new(
        "Execution",
        vec![
            Operation::new(
                "getInfo",
                vec![],
                ValueType::StrArray,
                "Returns general information about the Execution; elements are \
                 name|value pairs",
            ),
            Operation::new(
                "getFoci",
                vec![],
                ValueType::StrArray,
                "Returns all possible unique focus values (resource-hierarchy nodes, \
                 e.g. /Process/27 or /Code/MPI/MPI_Comm_rank)",
            ),
            Operation::new(
                "getMetrics",
                vec![],
                ValueType::StrArray,
                "Returns all possible unique metric values (e.g. func_calls, \
                 msg_deliv_time)",
            ),
            Operation::new(
                "getTypes",
                vec![],
                ValueType::StrArray,
                "Returns all possible unique type values (the performance tool used \
                 to collect the data)",
            ),
            Operation::new(
                "getTimeStartEnd",
                vec![],
                ValueType::StrArray,
                "Returns [start, end] times of the Execution",
            ),
            Operation::new(
                "getPR",
                vec![
                    ("metric", ValueType::Str),
                    ("foci", ValueType::StrArray),
                    ("startTime", ValueType::Str),
                    ("endTime", ValueType::Str),
                    ("type", ValueType::Str),
                ],
                ValueType::StrArray,
                "Returns Performance Results meeting the criteria",
            ),
        ],
    ))
}

/// A transient, stateful Execution Grid service instance.
///
/// State: the execution id it represents, the mapping-layer wrapper it
/// queries, and its Performance Results cache (§5.3.2.3).
pub struct ExecutionService {
    exec_id: String,
    wrapper: Arc<dyn ExecutionWrapper>,
    cache: PrCache,
    cache_enabled: bool,
}

impl ExecutionService {
    /// Wrap an execution wrapper as a service instance.
    pub fn new(exec_id: String, wrapper: Arc<dyn ExecutionWrapper>, cache_enabled: bool) -> Self {
        Self::with_cache(exec_id, wrapper, cache_enabled, PrCache::new())
    }

    /// Wrap with an explicitly configured cache (capacity / policy).
    pub fn with_cache(
        exec_id: String,
        wrapper: Arc<dyn ExecutionWrapper>,
        cache_enabled: bool,
        cache: PrCache,
    ) -> Self {
        ExecutionService {
            exec_id,
            wrapper,
            cache,
            cache_enabled,
        }
    }

    /// The execution id this instance represents.
    pub fn exec_id(&self) -> &str {
        &self.exec_id
    }

    /// Cache hit/miss counters.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// `getPR`: the one body behind both ways the container reaches it —
    /// [`ServicePort::invoke`] collects the rows, [`ServicePort::invoke_stream`]
    /// hands its sink straight through. Rows reach `sink` in bounded batches
    /// as the mapping layer produces them; the total row count comes back.
    ///
    /// With a context: a call that is already expired is refused before the
    /// wrapper runs, and a call whose context expires while the wrapper works
    /// ends with the typed fault — its rows neither complete the answer nor
    /// enter the cache, so a doomed call cannot evict live data. A cache hit
    /// replays the cached rows batch-wise (the consumer's window still bounds
    /// in-flight bytes); a miss tees the rows into the cache and commits them
    /// only at successful completion. The `pperfgrid.execution` span's
    /// outcome says which way the call went.
    fn get_pr(
        &self,
        call: &Call,
        ctx: Option<&CallContext>,
        sink: &mut dyn FnMut(Vec<String>) -> Result<(), Fault>,
    ) -> Result<u64, Fault> {
        let query = pr_query_from_call(call)?;
        let started = Instant::now();
        let (outcome, tag) = self.answer_pr(&query, ctx, sink);
        if let Some(ctx) = ctx {
            ctx.record_span("pperfgrid.execution", "getPR", &self.exec_id, started, tag);
        }
        outcome
    }

    /// [`ExecutionService::get_pr`]'s answer and its span outcome.
    fn answer_pr(
        &self,
        query: &PrQuery,
        ctx: Option<&CallContext>,
        sink: &mut dyn FnMut(Vec<String>) -> Result<(), Fault>,
    ) -> (Result<u64, Fault>, &'static str) {
        let doomed = || ctx.filter(|c| c.expired()).map(|c| self.doomed_fault(c));
        if let Some(fault) = doomed() {
            return outcome_tagged(Err(fault));
        }
        let key = self.cache_enabled.then(|| query.cache_key());
        if let Some(rows) = key.as_ref().and_then(|key| self.cache.get(key)) {
            for chunk in rows.chunks(STREAM_BATCH_ROWS) {
                if let Err(f) = sink(chunk.to_vec()) {
                    return (Err(f), "stream-aborted");
                }
            }
            return (Ok(rows.len() as u64), "ok-cached");
        }
        let mut tee: Option<Vec<String>> = key.is_some().then(Vec::new);
        let mut sink_fault: Option<Fault> = None;
        let scanned = self.wrapper.get_pr_stream(query, &mut |rows: Vec<String>| {
            if let Some(tee) = tee.as_mut() {
                tee.extend(rows.iter().cloned());
            }
            sink(rows).map_err(|f| {
                let refused = WrapperError(format!("stream sink refused rows: {}", f.string));
                sink_fault = Some(f);
                refused
            })
        });
        outcome_tagged(match (doomed(), scanned) {
            (Some(fault), _) => Err(fault),
            (None, Ok(total)) => {
                if let (Some(key), Some(rows)) = (key, tee) {
                    self.cache.insert(key, rows);
                }
                Ok(total)
            }
            (None, Err(e)) => Err(sink_fault.unwrap_or_else(|| Fault::server(e.to_string()))),
        })
    }

    /// The typed fault for a call whose context expired mid-flight.
    fn doomed_fault(&self, ctx: &CallContext) -> Fault {
        crate::context_fault(ctx, &format!("getPR on {}", self.exec_id))
    }
}

/// An answer with the span outcome that names it.
fn outcome_tagged(outcome: Result<u64, Fault>) -> (Result<u64, Fault>, &'static str) {
    let tag = match &outcome {
        Ok(_) => "ok",
        Err(f) if f.is_deadline_exceeded() => "deadline-exceeded",
        Err(f) if f.is_cancelled() => "cancelled",
        Err(_) => "fault",
    };
    (outcome, tag)
}

/// Parse the standard `getPR` parameter set into a [`PrQuery`].
fn pr_query_from_call(call: &Call) -> Result<PrQuery, Fault> {
    Ok(PrQuery {
        metric: req_str(call, "metric")?,
        foci: call
            .param("foci")
            .and_then(Value::as_str_array)
            .map(<[String]>::to_vec)
            .unwrap_or_default(),
        start: call
            .param("startTime")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_owned(),
        end: call
            .param("endTime")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_owned(),
        rtype: call
            .param("type")
            .and_then(Value::as_str)
            .unwrap_or(TYPE_UNDEFINED)
            .to_owned(),
    })
}

fn req_str(call: &Call, name: &str) -> Result<String, Fault> {
    call.param(name)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| Fault::client(format!("missing string parameter {name:?}")))
}

/// Render `(name, value)` pairs in the `name|value` wire format of Tables
/// 1–2.
pub(crate) fn render_pairs(pairs: Vec<(String, String)>) -> Value {
    Value::StrArray(pairs.into_iter().map(|(n, v)| format!("{n}|{v}")).collect())
}

impl ServicePort for ExecutionService {
    fn description(&self) -> ServiceDescription {
        execution_description()
    }

    fn invoke(&self, operation: &str, call: &Call) -> Result<Value, Fault> {
        match operation {
            "getInfo" => Ok(render_pairs(self.wrapper.info())),
            "getFoci" => Ok(Value::StrArray(self.wrapper.foci())),
            "getMetrics" => Ok(Value::StrArray(self.wrapper.metrics())),
            "getTypes" => Ok(Value::StrArray(self.wrapper.types())),
            "getTimeStartEnd" => {
                let (s, e) = self.wrapper.time_start_end();
                Ok(Value::StrArray(vec![s, e]))
            }
            "getPR" => {
                let mut rows: Vec<String> = Vec::new();
                self.get_pr(call, ppg_context::current().as_ref(), &mut |batch| {
                    if rows.is_empty() {
                        rows = batch;
                    } else {
                        rows.extend(batch);
                    }
                    Ok(())
                })?;
                Ok(Value::StrArray(rows))
            }
            other => Err(Fault::client(format!(
                "unknown Execution operation {other:?}"
            ))),
        }
    }

    fn invoke_stream(
        &self,
        operation: &str,
        call: &Call,
        ctx: &CallContext,
        sink: &mut dyn FnMut(Vec<String>) -> Result<(), Fault>,
    ) -> Result<u64, Fault> {
        if operation != "getPR" {
            return Err(Fault::client(format!(
                "operation {operation:?} has no streaming form"
            )));
        }
        self.get_pr(call, Some(ctx), sink)
    }

    fn service_data(&self) -> ServiceData {
        let (hits, misses) = self.cache.stats();
        let (start, end) = self.wrapper.time_start_end();
        // Metrics, foci, type, and time are exposed as service data elements
        // so clients can discover the query vocabulary through
        // `queryServiceDataXPath` — the extension the thesis sketches in §7.
        ServiceData::new()
            .with("execId", Value::Str(self.exec_id.clone()))
            .with("metrics", Value::StrArray(self.wrapper.metrics()))
            .with("foci", Value::StrArray(self.wrapper.foci()))
            .with("types", Value::StrArray(self.wrapper.types()))
            .with("timeStart", Value::Str(start))
            .with("timeEnd", Value::Str(end))
            .with("cacheEnabled", Value::Bool(self.cache_enabled))
            .with(
                crate::FRAMED_CAPABILITY,
                Value::Int(i64::from(pperf_soap::PPGB_VERSION)),
            )
            .with("cacheEntries", Value::Int(self.cache.len() as i64))
            .with("cacheHits", Value::Int(hits as i64))
            .with("cacheMisses", Value::Int(misses as i64))
    }
}

/// Factory creating Execution service instances for a site's data store.
///
/// `createService` takes `execId` (required) and `cacheEnabled` (optional,
/// default true) parameters.
pub struct ExecutionFactory {
    app_wrapper: Arc<dyn ApplicationWrapper>,
    default_cache_enabled: bool,
    cache_capacity: usize,
    cache_policy: CachePolicy,
}

impl ExecutionFactory {
    /// A factory over the given Application wrapper.
    pub fn new(app_wrapper: Arc<dyn ApplicationWrapper>) -> ExecutionFactory {
        ExecutionFactory {
            app_wrapper,
            default_cache_enabled: true,
            cache_capacity: 4096,
            cache_policy: CachePolicy::Fifo,
        }
    }

    /// Override the default caching behaviour of created instances.
    pub fn with_cache_default(mut self, enabled: bool) -> ExecutionFactory {
        self.default_cache_enabled = enabled;
        self
    }

    /// Override the cache geometry of created instances.
    pub fn with_cache_config(mut self, capacity: usize, policy: CachePolicy) -> ExecutionFactory {
        self.cache_capacity = capacity;
        self.cache_policy = policy;
        self
    }
}

impl Factory for ExecutionFactory {
    fn description(&self) -> ServiceDescription {
        execution_description()
    }

    fn create(&self, call: &Call) -> Result<Arc<dyn ServicePort>, Fault> {
        let exec_id = req_str(call, "execId")?;
        let cache_enabled = call
            .param("cacheEnabled")
            .and_then(Value::as_bool)
            .unwrap_or(self.default_cache_enabled);
        let wrapper = self
            .app_wrapper
            .execution(&exec_id)
            .map_err(|e| Fault::client(e.to_string()))?;
        Ok(Arc::new(ExecutionService::with_cache(
            exec_id,
            wrapper,
            cache_enabled,
            PrCache::with_policy(self.cache_capacity, self.cache_policy),
        )))
    }
}

/// Typed client stub for the Execution PortType.
#[derive(Clone)]
pub struct ExecutionStub {
    stub: ServiceStub,
}

impl ExecutionStub {
    /// Bind to an Execution instance by handle.
    pub fn bind(client: Arc<HttpClient>, handle: &Gsh) -> ExecutionStub {
        ExecutionStub {
            stub: ServiceStub::new(client, handle.clone()).with_namespace(EXECUTION_NS),
        }
    }

    /// The bound handle.
    pub fn handle(&self) -> &Gsh {
        self.stub.handle()
    }

    /// The untyped stub (for standard OGSI operations).
    pub fn stub(&self) -> &ServiceStub {
        &self.stub
    }

    /// `getInfo` as `(name, value)` pairs.
    pub fn get_info(&self) -> pperf_ogsi::Result<Vec<(String, String)>> {
        Ok(split_pairs(self.stub.call_str_array("getInfo", &[])?))
    }

    /// `getFoci`.
    pub fn get_foci(&self) -> pperf_ogsi::Result<Vec<String>> {
        self.stub.call_str_array("getFoci", &[])
    }

    /// `getMetrics`.
    pub fn get_metrics(&self) -> pperf_ogsi::Result<Vec<String>> {
        self.stub.call_str_array("getMetrics", &[])
    }

    /// `getTypes`.
    pub fn get_types(&self) -> pperf_ogsi::Result<Vec<String>> {
        self.stub.call_str_array("getTypes", &[])
    }

    /// `getTimeStartEnd` as `(start, end)`.
    pub fn get_time_start_end(&self) -> pperf_ogsi::Result<(String, String)> {
        let v = self.stub.call_str_array("getTimeStartEnd", &[])?;
        let mut it = v.into_iter();
        Ok((it.next().unwrap_or_default(), it.next().unwrap_or_default()))
    }

    /// `getPR`.
    pub fn get_pr(&self, query: &PrQuery) -> pperf_ogsi::Result<Vec<String>> {
        self.stub.call_str_array("getPR", &Self::pr_params(query))
    }

    /// `getPR` carrying an explicit call context (deadline, id, trace).
    pub fn get_pr_with_context(
        &self,
        query: &PrQuery,
        ctx: &CallContext,
    ) -> pperf_ogsi::Result<Vec<String>> {
        self.stub
            .call_str_array_with_context("getPR", &Self::pr_params(query), ctx)
    }

    /// `getPR` as an incremental row stream — a one-entry framed call whose
    /// frames decode into `on_rows` calls as they arrive, so client memory
    /// stays bounded by one frame regardless of result size. The buffered
    /// fallback (legacy peers, `PPG_FORCE_XML=1`) follows
    /// [`ServiceStub::call_stream`]; the returned
    /// outcome names the wire that carried the rows. `on_rows` returning
    /// `false` abandons the stream at that frame boundary.
    pub fn get_pr_stream(
        &self,
        query: &PrQuery,
        ctx: &CallContext,
        on_rows: &mut dyn FnMut(Vec<String>) -> bool,
    ) -> pperf_ogsi::Result<pperf_ogsi::StreamOutcome> {
        self.stub
            .call_stream("getPR", &Self::pr_params(query), ctx, on_rows)
    }

    /// The wire parameter set for a `getPR` call. Public so batching layers
    /// (the gateway's framed calls) marshal *exactly* the parameters
    /// the per-call path uses, instead of re-deriving them.
    pub fn pr_params(query: &PrQuery) -> [(&'static str, Value); 5] {
        [
            ("metric", Value::from(query.metric.as_str())),
            ("foci", Value::StrArray(query.foci.clone())),
            ("startTime", Value::from(query.start.as_str())),
            ("endTime", Value::from(query.end.as_str())),
            ("type", Value::from(query.rtype.as_str())),
        ]
    }
}

/// Split `name|value` strings back into pairs.
pub(crate) fn split_pairs(rows: Vec<String>) -> Vec<(String, String)> {
    rows.into_iter()
        .map(|row| match row.split_once('|') {
            Some((n, v)) => (n.to_owned(), v.to_owned()),
            None => (row, String::new()),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wrapper::WrapperError;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A wrapper implementing only `get_pr`, counting how often the service
    /// reaches the mapping layer.
    struct CountingWrapper {
        calls: AtomicUsize,
    }

    impl ExecutionWrapper for CountingWrapper {
        fn info(&self) -> Vec<(String, String)> {
            vec![]
        }
        fn foci(&self) -> Vec<String> {
            vec![]
        }
        fn metrics(&self) -> Vec<String> {
            vec![]
        }
        fn types(&self) -> Vec<String> {
            vec![]
        }
        fn time_start_end(&self) -> (String, String) {
            (String::new(), String::new())
        }
        fn get_pr(&self, query: &PrQuery) -> Result<Vec<String>, WrapperError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if query.metric == "bad" {
                Err(WrapperError("unknown metric".into()))
            } else {
                Ok(vec![format!("{}|1.0", query.metric)])
            }
        }
    }

    fn service(cache_enabled: bool) -> (ExecutionService, Arc<CountingWrapper>) {
        let wrapper = Arc::new(CountingWrapper {
            calls: AtomicUsize::new(0),
        });
        let service = ExecutionService::new(
            "e0".into(),
            wrapper.clone() as Arc<dyn ExecutionWrapper>,
            cache_enabled,
        );
        (service, wrapper)
    }

    fn get_pr_call(metric: &str) -> Call {
        let query = PrQuery {
            metric: metric.into(),
            foci: vec![],
            start: "0".into(),
            end: "1".into(),
            rtype: "t".into(),
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

    fn streamed(
        service: &ExecutionService,
        call: &Call,
        ctx: &CallContext,
    ) -> Result<Vec<String>, Fault> {
        let mut rows = Vec::new();
        service.invoke_stream("getPR", call, ctx, &mut |batch| {
            rows.extend(batch);
            Ok(())
        })?;
        Ok(rows)
    }

    #[test]
    fn get_pr_hits_cache_and_reaches_wrapper_once_per_miss() {
        let (service, wrapper) = service(true);
        let ctx = CallContext::new();
        let gflops = get_pr_call("gflops");

        // A collected miss fills the cache the streamed form then hits.
        let collected = service.invoke("getPR", &gflops).unwrap();
        assert_eq!(collected.as_str_array().unwrap(), ["gflops|1.0"]);
        assert_eq!(streamed(&service, &gflops, &ctx).unwrap(), ["gflops|1.0"]);
        assert_eq!(wrapper.calls.load(Ordering::SeqCst), 1);

        // Faults are never cached: both forms reach the wrapper again.
        let bad = get_pr_call("bad");
        assert!(service.invoke("getPR", &bad).is_err());
        assert!(streamed(&service, &bad, &ctx).is_err());
        assert_eq!(wrapper.calls.load(Ordering::SeqCst), 3);

        // A consumer that refuses the rows gets its own fault back, and the
        // abandoned answer does not enter the cache.
        let walltime = get_pr_call("walltime");
        let refused = service
            .invoke_stream("getPR", &walltime, &ctx, &mut |_| {
                Err(Fault::client("consumer gone"))
            })
            .unwrap_err();
        assert_eq!(refused.string, "consumer gone");
        assert_eq!(
            service
                .invoke("getPR", &walltime)
                .unwrap()
                .as_str_array()
                .unwrap(),
            ["walltime|1.0"]
        );
        assert_eq!(wrapper.calls.load(Ordering::SeqCst), 5);
        assert_eq!(service.cache_stats(), (1, 5));

        let outcomes: Vec<String> = (ctx.spans().into_iter())
            .filter(|s| s.layer == "pperfgrid.execution")
            .map(|s| s.outcome)
            .collect();
        assert_eq!(outcomes, ["ok-cached", "fault", "fault"]);
    }

    #[test]
    fn expired_context_refuses_get_pr_without_touching_wrapper() {
        let (service, wrapper) = service(true);
        let ctx = CallContext::with_budget(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let call = get_pr_call("gflops");

        let err = streamed(&service, &call, &ctx).unwrap_err();
        assert!(err.is_deadline_exceeded(), "{err:?}");
        // `invoke` reads the context the container scopes for the call.
        let err = {
            let _scope = ppg_context::scope(&ctx);
            service.invoke("getPR", &call).unwrap_err()
        };
        assert!(err.is_deadline_exceeded(), "{err:?}");
        assert_eq!(wrapper.calls.load(Ordering::SeqCst), 0);
        let outcomes: Vec<(String, String)> = (ctx.spans().into_iter())
            .map(|s| (s.layer, s.outcome))
            .collect();
        let refused = (
            "pperfgrid.execution".to_owned(),
            "deadline-exceeded".to_owned(),
        );
        assert_eq!(outcomes, [refused.clone(), refused]);
        assert_eq!(service.cache_stats(), (0, 0));
    }
}
