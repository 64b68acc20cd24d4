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
use pperf_soap::{pack_strs, unpack_strs, Call, Fault, Value, ValueType};
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
            Operation::new(
                "getPRBatch",
                vec![("queries", ValueType::StrArray)],
                ValueType::StrArray,
                "Answers many getPR tuples in one call; each query and each \
                 per-query outcome is one packed-strings block, outcomes in \
                 query order",
            ),
        ],
    ))
}

/// Encode one `getPRBatch` query tuple as a packed-strings block:
/// `[metric, startTime, endTime, type, focus...]` through
/// [`pperf_soap::pack_strs`]. The length-prefixed grammar keeps hostile
/// metric/focus names (separators, newlines) lossless without inventing a
/// second escaping scheme next to [`crate::wrapper::pr_cache_key`].
pub fn encode_pr_tuple(query: &PrQuery) -> String {
    let mut items = Vec::with_capacity(4 + query.foci.len());
    items.push(query.metric.clone());
    items.push(query.start.clone());
    items.push(query.end.clone());
    items.push(query.rtype.clone());
    items.extend(query.foci.iter().cloned());
    pack_strs(&items)
}

/// Decode a [`encode_pr_tuple`] block back into a query.
pub fn decode_pr_tuple(block: &str) -> Result<PrQuery, Fault> {
    let mut items = unpack_strs(block)
        .map_err(|e| Fault::client(format!("malformed getPRBatch tuple: {e}")))?
        .into_iter();
    let (Some(metric), Some(start), Some(end), Some(rtype)) =
        (items.next(), items.next(), items.next(), items.next())
    else {
        return Err(Fault::client(
            "getPRBatch tuple needs [metric, startTime, endTime, type, focus...]",
        ));
    };
    Ok(PrQuery {
        metric,
        foci: items.collect(),
        start,
        end,
        rtype,
    })
}

/// Encode one per-query `getPRBatch` outcome: `["ok", row...]` for rows, or
/// `[tag, message]` for a per-query fault (`tag` is `fault`,
/// `deadline-exceeded`, or `cancelled`).
fn encode_pr_outcome(outcome: &Result<Vec<String>, Fault>) -> String {
    match outcome {
        Ok(rows) => {
            let mut items = Vec::with_capacity(rows.len() + 1);
            items.push("ok".to_owned());
            items.extend(rows.iter().cloned());
            pack_strs(&items)
        }
        Err(f) => {
            let tag = if f.is_deadline_exceeded() {
                "deadline-exceeded"
            } else if f.is_cancelled() {
                "cancelled"
            } else {
                "fault"
            };
            pack_strs(&[tag.to_owned(), f.string.clone()])
        }
    }
}

/// Decode a [`encode_pr_outcome`] block.
fn decode_pr_outcome(block: &str) -> Result<Result<Vec<String>, Fault>, Fault> {
    let mut items = unpack_strs(block)
        .map_err(|e| Fault::client(format!("malformed getPRBatch outcome: {e}")))?
        .into_iter();
    let tag = items
        .next()
        .ok_or_else(|| Fault::client("empty getPRBatch outcome"))?;
    Ok(match tag.as_str() {
        "ok" => Ok(items.collect()),
        "deadline-exceeded" => Err(Fault::deadline_exceeded(items.next().unwrap_or_default())),
        "cancelled" => Err(Fault::cancelled(items.next().unwrap_or_default())),
        "fault" => Err(Fault::server(items.next().unwrap_or_default())),
        other => {
            return Err(Fault::client(format!(
                "unknown getPRBatch outcome tag {other:?}"
            )))
        }
    })
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

    fn get_pr(&self, call: &Call, ctx: Option<&CallContext>) -> Result<Value, Fault> {
        let query = pr_query_from_call(call)?;
        let started = Instant::now();
        if let Some(ctx) = ctx {
            if ctx.expired() {
                ctx.record_span(
                    "pperfgrid.execution",
                    "getPR",
                    &self.exec_id,
                    started,
                    "deadline-exceeded",
                );
                return Err(self.doomed_fault(ctx));
            }
        }
        let result = if self.cache_enabled {
            let key = query.cache_key();
            if let Some(rows) = self.cache.get(&key) {
                if let Some(ctx) = ctx {
                    ctx.record_span(
                        "pperfgrid.execution",
                        "getPR",
                        &self.exec_id,
                        started,
                        "ok-cached",
                    );
                }
                return Ok(Value::StrArray((*rows).clone()));
            }
            match self.wrapper.get_pr(&query) {
                // A caller that stopped waiting gets a typed fault, and the
                // rows (if the wrapper raced past the last check) do NOT
                // enter the cache: a doomed call must not evict live data.
                Ok(_) | Err(_) if ctx.is_some_and(|c| c.expired()) => {
                    Err(self.doomed_fault(ctx.expect("checked is_some")))
                }
                Ok(rows) => {
                    let shared = self.cache.insert(key, rows);
                    Ok(Value::StrArray((*shared).clone()))
                }
                Err(e) => Err(Fault::server(e.to_string())),
            }
        } else {
            match self.wrapper.get_pr(&query) {
                Ok(_) | Err(_) if ctx.is_some_and(|c| c.expired()) => {
                    Err(self.doomed_fault(ctx.expect("checked is_some")))
                }
                Ok(rows) => Ok(Value::StrArray(rows)),
                Err(e) => Err(Fault::server(e.to_string())),
            }
        };
        if let Some(ctx) = ctx {
            let tag = match &result {
                Ok(_) => "ok",
                Err(f) if f.is_deadline_exceeded() => "deadline-exceeded",
                Err(f) if f.is_cancelled() => "cancelled",
                Err(_) => "fault",
            };
            ctx.record_span("pperfgrid.execution", "getPR", &self.exec_id, started, tag);
        }
        result
    }

    /// `getPRBatch`: many query tuples against this one instance, one wire
    /// call. Each tuple probes the PR cache individually; the *misses* are
    /// funnelled through a single [`ExecutionWrapper::get_pr_batch`] call so
    /// the mapping layer sees one request per miss group rather than one per
    /// tuple. Outcomes are per tuple — a bad tuple or a budget that runs out
    /// mid-batch faults that tuple, not its neighbours.
    fn get_pr_batch(&self, call: &Call, ctx: Option<&CallContext>) -> Result<Value, Fault> {
        let blocks = call
            .param("queries")
            .and_then(Value::as_str_array)
            .ok_or_else(|| Fault::client("missing string-array parameter \"queries\""))?;
        let started = Instant::now();
        if let Some(ctx) = ctx {
            if ctx.expired() {
                ctx.record_span(
                    "pperfgrid.execution",
                    "getPRBatch",
                    &self.exec_id,
                    started,
                    "deadline-exceeded",
                );
                return Err(self.doomed_fault(ctx));
            }
        }
        let mut outcomes: Vec<Option<Result<Vec<String>, Fault>>> = vec![None; blocks.len()];
        let mut misses: Vec<(usize, PrQuery)> = Vec::new();
        for (i, block) in blocks.iter().enumerate() {
            match decode_pr_tuple(block) {
                Ok(query) => {
                    if self.cache_enabled {
                        if let Some(rows) = self.cache.get(&query.cache_key()) {
                            outcomes[i] = Some(Ok((*rows).clone()));
                            continue;
                        }
                    }
                    misses.push((i, query));
                }
                Err(f) => outcomes[i] = Some(Err(f)),
            }
        }
        if !misses.is_empty() {
            let queries: Vec<PrQuery> = misses.iter().map(|(_, q)| q.clone()).collect();
            let results = self.wrapper.get_pr_batch(&queries);
            // Same doomed-call discipline as getPR: when the caller's budget
            // ran out while the wrapper worked, the rows neither go back on
            // the wire nor into the cache.
            let doomed = ctx.is_some_and(|c| c.expired());
            for ((i, query), result) in misses.into_iter().zip(results) {
                outcomes[i] = Some(if doomed {
                    Err(self.doomed_fault(ctx.expect("checked is_some")))
                } else {
                    match result {
                        Ok(rows) if self.cache_enabled => {
                            let shared = self.cache.insert(query.cache_key(), rows);
                            Ok((*shared).clone())
                        }
                        Ok(rows) => Ok(rows),
                        Err(e) => Err(Fault::server(e.to_string())),
                    }
                });
            }
        }
        let outcomes: Vec<Result<Vec<String>, Fault>> = outcomes
            .into_iter()
            .map(|o| o.expect("every tuple got an outcome"))
            .collect();
        if let Some(ctx) = ctx {
            let tag = if outcomes.iter().all(Result::is_ok) {
                "ok"
            } else if outcomes.iter().any(Result::is_ok) {
                "partial"
            } else {
                "fault"
            };
            ctx.record_span(
                "pperfgrid.execution",
                "getPRBatch",
                &self.exec_id,
                started,
                tag,
            );
        }
        Ok(Value::StrArray(
            outcomes.iter().map(encode_pr_outcome).collect(),
        ))
    }

    /// The typed fault for a call whose context expired mid-flight.
    fn doomed_fault(&self, ctx: &CallContext) -> Fault {
        crate::context_fault(ctx, &format!("getPR on {}", self.exec_id))
    }

    /// Streaming `getPR`: rows reach `sink` in bounded batches as the
    /// mapping layer produces them, instead of one buffered array.
    ///
    /// Cache discipline mirrors the buffered path: a hit streams the cached
    /// rows (batch-wise, so the consumer's window still bounds in-flight
    /// bytes); a miss tees the streamed rows into the cache and commits them
    /// only at successful completion — a stream that faults, is abandoned by
    /// its consumer, or whose caller stopped waiting never enters the cache.
    fn stream_pr(
        &self,
        call: &Call,
        ctx: &CallContext,
        sink: &mut dyn FnMut(Vec<String>) -> Result<(), Fault>,
    ) -> Result<u64, Fault> {
        let query = pr_query_from_call(call)?;
        let started = Instant::now();
        if ctx.expired() {
            ctx.record_span(
                "pperfgrid.execution",
                "getPR",
                &self.exec_id,
                started,
                "deadline-exceeded",
            );
            return Err(self.doomed_fault(ctx));
        }
        if self.cache_enabled {
            if let Some(rows) = self.cache.get(&query.cache_key()) {
                let total = rows.len() as u64;
                for chunk in rows.chunks(STREAM_BATCH_ROWS) {
                    if let Err(f) = sink(chunk.to_vec()) {
                        ctx.record_span(
                            "pperfgrid.execution",
                            "getPR",
                            &self.exec_id,
                            started,
                            "stream-aborted",
                        );
                        return Err(f);
                    }
                }
                ctx.record_span(
                    "pperfgrid.execution",
                    "getPR",
                    &self.exec_id,
                    started,
                    "ok-cached",
                );
                return Ok(total);
            }
        }
        let mut collected: Option<Vec<String>> = self.cache_enabled.then(Vec::new);
        let mut sink_fault: Option<Fault> = None;
        let result = {
            let collected = &mut collected;
            let sink_fault = &mut sink_fault;
            let mut wrapper_sink = |rows: Vec<String>| -> Result<(), WrapperError> {
                if let Some(buf) = collected.as_mut() {
                    buf.extend(rows.iter().cloned());
                }
                match sink(rows) {
                    Ok(()) => Ok(()),
                    Err(f) => {
                        let detail = f.string.clone();
                        *sink_fault = Some(f);
                        Err(WrapperError(format!("stream sink refused rows: {detail}")))
                    }
                }
            };
            self.wrapper.get_pr_stream(&query, &mut wrapper_sink)
        };
        let outcome = match result {
            // Doomed-call discipline, as in get_pr: rows produced after the
            // caller stopped waiting neither complete the stream nor enter
            // the cache.
            Ok(_) | Err(_) if ctx.expired() => Err(self.doomed_fault(ctx)),
            Ok(total) => {
                if let Some(rows) = collected {
                    self.cache.insert(query.cache_key(), rows);
                }
                Ok(total)
            }
            Err(e) => Err(match sink_fault {
                Some(f) => f,
                None => Fault::server(e.to_string()),
            }),
        };
        let tag = match &outcome {
            Ok(_) => "ok",
            Err(f) if f.is_deadline_exceeded() => "deadline-exceeded",
            Err(f) if f.is_cancelled() => "cancelled",
            Err(_) => "fault",
        };
        ctx.record_span("pperfgrid.execution", "getPR", &self.exec_id, started, tag);
        outcome
    }
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
            "getPR" => self.get_pr(call, ppg_context::current().as_ref()),
            "getPRBatch" => self.get_pr_batch(call, ppg_context::current().as_ref()),
            other => Err(Fault::client(format!(
                "unknown Execution operation {other:?}"
            ))),
        }
    }

    fn invoke_ctx(&self, operation: &str, call: &Call, ctx: &CallContext) -> Result<Value, Fault> {
        if operation == "getPR" {
            return self.get_pr(call, Some(ctx));
        }
        if operation == "getPRBatch" {
            return self.get_pr_batch(call, Some(ctx));
        }
        // The discovery operations are cheap, but refusing doomed work at
        // the boundary keeps the contract uniform across operations.
        if ctx.expired() {
            return Err(self.doomed_fault(ctx));
        }
        self.invoke(operation, call)
    }

    fn supports_stream(&self, operation: &str) -> bool {
        operation == "getPR"
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
        self.stream_pr(call, ctx, sink)
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

    /// `getPRBatch`: many tuples, one call, per-tuple outcomes in order.
    pub fn get_pr_batch(
        &self,
        queries: &[PrQuery],
    ) -> pperf_ogsi::Result<Vec<Result<Vec<String>, Fault>>> {
        let blocks = self
            .stub
            .call_str_array("getPRBatch", &[Self::pr_batch_params(queries)])?;
        Self::decode_pr_batch(queries.len(), blocks)
    }

    /// `getPRBatch` carrying an explicit call context.
    pub fn get_pr_batch_with_context(
        &self,
        queries: &[PrQuery],
        ctx: &CallContext,
    ) -> pperf_ogsi::Result<Vec<Result<Vec<String>, Fault>>> {
        let blocks = self.stub.call_str_array_with_context(
            "getPRBatch",
            &[Self::pr_batch_params(queries)],
            ctx,
        )?;
        Self::decode_pr_batch(queries.len(), blocks)
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

    fn pr_batch_params(queries: &[PrQuery]) -> (&'static str, Value) {
        (
            "queries",
            Value::StrArray(queries.iter().map(encode_pr_tuple).collect()),
        )
    }

    fn decode_pr_batch(
        expected: usize,
        blocks: Vec<String>,
    ) -> pperf_ogsi::Result<Vec<Result<Vec<String>, Fault>>> {
        if blocks.len() != expected {
            return Err(pperf_ogsi::OgsiError::Soap(
                pperf_soap::SoapError::Envelope(format!(
                    "getPRBatch answered {} outcomes for {} queries",
                    blocks.len(),
                    expected
                )),
            ));
        }
        blocks
            .iter()
            .map(|b| {
                decode_pr_outcome(b)
                    .map_err(|f| pperf_ogsi::OgsiError::Soap(pperf_soap::SoapError::Fault(f)))
            })
            .collect()
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

    #[test]
    fn pr_tuple_roundtrips_hostile_names() {
        let query = PrQuery {
            metric: "lat | p99-p50;3:abc".into(),
            foci: vec!["/a,b".into(), "/c\nd".into()],
            start: "-1.5".into(),
            end: "2-3".into(),
            rtype: "tau;2".into(),
        };
        assert_eq!(decode_pr_tuple(&encode_pr_tuple(&query)).unwrap(), query);
        // Foci-less tuples are legal (empty foci ⇒ all foci, as in getPR).
        let bare = PrQuery {
            metric: "m".into(),
            foci: vec![],
            start: String::new(),
            end: String::new(),
            rtype: "UNDEFINED".into(),
        };
        assert_eq!(decode_pr_tuple(&encode_pr_tuple(&bare)).unwrap(), bare);
        assert!(decode_pr_tuple("not packed").is_err());
        assert!(decode_pr_tuple(&pack_strs(&["m".into(), "0".into()])).is_err());
    }

    #[test]
    fn pr_outcome_roundtrips() {
        let ok: Result<Vec<String>, Fault> = Ok(vec!["gflops|1.5".into(), "a;1:x".into()]);
        assert_eq!(decode_pr_outcome(&encode_pr_outcome(&ok)).unwrap(), ok);
        let empty: Result<Vec<String>, Fault> = Ok(vec![]);
        assert_eq!(
            decode_pr_outcome(&encode_pr_outcome(&empty)).unwrap(),
            empty
        );
        let fault = decode_pr_outcome(&encode_pr_outcome(&Err(Fault::server("boom"))))
            .unwrap()
            .unwrap_err();
        assert_eq!(fault.string, "boom");
        let deadline =
            decode_pr_outcome(&encode_pr_outcome(&Err(Fault::deadline_exceeded("late"))))
                .unwrap()
                .unwrap_err();
        assert!(deadline.is_deadline_exceeded());
        let cancelled = decode_pr_outcome(&encode_pr_outcome(&Err(Fault::cancelled("gone"))))
            .unwrap()
            .unwrap_err();
        assert!(cancelled.is_cancelled());
        assert!(decode_pr_outcome("").is_err());
        assert!(decode_pr_outcome(&pack_strs(&["weird".into()])).is_err());
    }

    /// A wrapper that counts how it is reached, to pin the miss-group
    /// contract: getPRBatch goes through get_pr_batch exactly once per
    /// batch that has misses, never through per-query get_pr directly.
    struct CountingWrapper {
        batch_calls: AtomicUsize,
        queries_seen: AtomicUsize,
    }

    impl CountingWrapper {
        fn new() -> Self {
            CountingWrapper {
                batch_calls: AtomicUsize::new(0),
                queries_seen: AtomicUsize::new(0),
            }
        }
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
            if query.metric == "bad" {
                Err(WrapperError("unknown metric".into()))
            } else {
                Ok(vec![format!("{}|1.0", query.metric)])
            }
        }
        fn get_pr_batch(&self, queries: &[PrQuery]) -> Vec<Result<Vec<String>, WrapperError>> {
            self.batch_calls.fetch_add(1, Ordering::SeqCst);
            self.queries_seen.fetch_add(queries.len(), Ordering::SeqCst);
            queries.iter().map(|q| self.get_pr(q)).collect()
        }
    }

    fn batch_call(queries: &[PrQuery]) -> Call {
        Call {
            method: "getPRBatch".into(),
            namespace: Some(EXECUTION_NS.into()),
            params: vec![(
                "queries".into(),
                Value::StrArray(queries.iter().map(encode_pr_tuple).collect()),
            )],
        }
    }

    fn query(metric: &str) -> PrQuery {
        PrQuery {
            metric: metric.into(),
            foci: vec![],
            start: "0".into(),
            end: "1".into(),
            rtype: "t".into(),
        }
    }

    #[test]
    fn batch_hits_cache_per_entry_and_wrapper_once_per_miss_group() {
        let wrapper = Arc::new(CountingWrapper::new());
        let service = ExecutionService::new(
            "e0".into(),
            wrapper.clone() as Arc<dyn ExecutionWrapper>,
            true,
        );
        let queries = [query("gflops"), query("bad"), query("walltime")];

        let out = service
            .invoke("getPRBatch", &batch_call(&queries))
            .unwrap()
            .into_str_array()
            .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(
            decode_pr_outcome(&out[0]).unwrap(),
            Ok(vec!["gflops|1.0".into()])
        );
        assert!(decode_pr_outcome(&out[1]).unwrap().is_err());
        assert_eq!(wrapper.batch_calls.load(Ordering::SeqCst), 1);
        assert_eq!(wrapper.queries_seen.load(Ordering::SeqCst), 3);

        // Second round: the two good tuples are cached; only the failed one
        // (faults are never cached) plus a fresh tuple reach the wrapper,
        // again as one group.
        let queries2 = [
            query("gflops"),
            query("bad"),
            query("walltime"),
            query("iters"),
        ];
        let out2 = service
            .invoke("getPRBatch", &batch_call(&queries2))
            .unwrap()
            .into_str_array()
            .unwrap();
        assert_eq!(out2.len(), 4);
        assert_eq!(wrapper.batch_calls.load(Ordering::SeqCst), 2);
        assert_eq!(wrapper.queries_seen.load(Ordering::SeqCst), 5);
        let (hits, misses) = service.cache_stats();
        assert_eq!(hits, 2);
        assert_eq!(misses, 5);
    }

    #[test]
    fn malformed_tuple_faults_only_its_entry() {
        let wrapper = Arc::new(CountingWrapper::new());
        let service = ExecutionService::new("e0".into(), wrapper, true);
        let call = Call {
            method: "getPRBatch".into(),
            namespace: None,
            params: vec![(
                "queries".into(),
                Value::StrArray(vec![encode_pr_tuple(&query("gflops")), "garbage".into()]),
            )],
        };
        let out = service
            .invoke("getPRBatch", &call)
            .unwrap()
            .into_str_array()
            .unwrap();
        assert_eq!(
            decode_pr_outcome(&out[0]).unwrap(),
            Ok(vec!["gflops|1.0".into()])
        );
        assert!(decode_pr_outcome(&out[1]).unwrap().is_err());
    }

    #[test]
    fn expired_context_refuses_batch_without_touching_wrapper() {
        let wrapper = Arc::new(CountingWrapper::new());
        let service = ExecutionService::new(
            "e0".into(),
            wrapper.clone() as Arc<dyn ExecutionWrapper>,
            true,
        );
        let ctx = CallContext::with_budget(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let err = service
            .invoke_ctx("getPRBatch", &batch_call(&[query("gflops")]), &ctx)
            .unwrap_err();
        assert!(err.is_deadline_exceeded());
        assert_eq!(wrapper.batch_calls.load(Ordering::SeqCst), 0);
    }
}
