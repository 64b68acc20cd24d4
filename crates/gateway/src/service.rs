//! The gateway as an OGSI Grid service: the `FederatedQuery` PortType, its
//! typed client stub, and service data publishing the gateway's counters.
//!
//! Wire rendering of a federated answer (a `StrArray`): one header element
//! `h|sitesTotal|elapsedMs|upstreamCalls`, then `r|site|execGsh|row` per
//! result row and `e|site|kind|detail` per site error. Rows are split with
//! `splitn(4, '|')` so Performance Result rows may themselves contain `|`
//! (they do — `name|value` pairs). Context-era additions ride along as
//! `id|requestId` and one `t|<encoded span>` element per trace span (the
//! span encoding percent-escapes `|`, so the prefix split stays safe);
//! old clients ignore the unknown tags.

use crate::gateway::FederatedGateway;
use crate::query::FederatedQuery;
use crate::GATEWAY_NS;
use pperf_httpd::HttpClient;
use pperf_ogsi::{Container, Gsh, OgsiError, ServiceData, ServicePort, ServiceStub};
use pperf_soap::wsdl::{Operation, PortType, ServiceDescription};
use pperf_soap::{Call, Fault, Value, ValueType};
use std::sync::Arc;

/// The FederatedQuery PortType description.
pub fn gateway_description() -> ServiceDescription {
    ServiceDescription::new("PPerfGridFederatedQuery", GATEWAY_NS).with_port_type(PortType::new(
        "FederatedQuery",
        vec![Operation::new(
            "federatedQuery",
            vec![
                ("metric", ValueType::Str),
                ("foci", ValueType::StrArray),
                ("startTime", ValueType::Str),
                ("endTime", ValueType::Str),
                ("type", ValueType::Str),
                ("attribute", ValueType::Str),
                ("value", ValueType::Str),
                ("sitePattern", ValueType::Str),
            ],
            ValueType::StrArray,
            "Scatter-gather one Performance Result query across every \
             registered site; returns a header element, result rows \
             (r|site|execGsh|row), and per-site errors (e|site|kind|detail). \
             attribute/value/sitePattern are optional selectors",
        )],
    ))
}

/// The gateway wrapped as a (persistent) Grid service.
pub struct FederatedQueryService {
    gateway: Arc<FederatedGateway>,
}

impl FederatedQueryService {
    /// Wrap a gateway.
    pub fn new(gateway: Arc<FederatedGateway>) -> FederatedQueryService {
        FederatedQueryService { gateway }
    }

    /// Deploy a gateway as `name` in `container`.
    pub fn deploy(
        gateway: Arc<FederatedGateway>,
        container: &Container,
        name: &str,
    ) -> Result<Gsh, OgsiError> {
        container.deploy_service(name, Arc::new(FederatedQueryService::new(gateway)))
    }
}

impl ServicePort for FederatedQueryService {
    fn description(&self) -> ServiceDescription {
        gateway_description()
    }

    fn invoke(&self, operation: &str, call: &Call) -> Result<Value, Fault> {
        self.run(operation, call, ppg_context::current().as_ref())
    }

    fn service_data(&self) -> ServiceData {
        let snapshot = self.gateway.snapshot();
        let per_site: Vec<String> = snapshot
            .per_site
            .iter()
            .map(|(site, lat)| {
                format!(
                    "{site}|{}|{}|{}|{}",
                    lat.calls,
                    lat.errors,
                    lat.avg().as_millis(),
                    lat.last.as_millis()
                )
            })
            .collect();
        ServiceData::new()
            .with("queries", Value::Int(snapshot.queries as i64))
            .with("upstreamCalls", Value::Int(snapshot.upstream_calls as i64))
            .with("cacheHits", Value::Int(snapshot.cache_hits as i64))
            .with("cacheMisses", Value::Int(snapshot.cache_misses as i64))
            .with("cacheHitRate", Value::Double(snapshot.cache_hit_rate))
            .with(
                "cacheRangeHits",
                Value::Int(snapshot.cache_range_hits as i64),
            )
            .with(
                "cachePartialHits",
                Value::Int(snapshot.cache_partial_hits as i64),
            )
            .with(
                "cacheEvictions",
                Value::Int(snapshot.cache_evictions as i64),
            )
            .with("cacheSegments", Value::Int(snapshot.cache_segments as i64))
            .with("cacheBytes", Value::Int(snapshot.cache_bytes as i64))
            .with(
                "cacheSpillWrites",
                Value::Int(snapshot.cache_spill_writes as i64),
            )
            .with(
                "cacheSpillLoads",
                Value::Int(snapshot.cache_spill_loads as i64),
            )
            .with("coalescedCalls", Value::Int(snapshot.coalesced as i64))
            .with("inFlightCalls", Value::Int(snapshot.in_flight))
            .with("hedgesFired", Value::Int(snapshot.hedges_fired as i64))
            .with("hedgeWins", Value::Int(snapshot.hedge_wins as i64))
            .with(
                "hedgesCancelled",
                Value::Int(snapshot.hedges_cancelled as i64),
            )
            .with(
                "deadlineExceeded",
                Value::Int(snapshot.deadline_exceeded as i64),
            )
            .with(
                "leaseInvalidations",
                Value::Int(snapshot.lease_invalidations as i64),
            )
            .with(
                "notifyInvalidations",
                Value::Int(snapshot.notify_invalidations as i64),
            )
            .with(
                "notifySubscriptions",
                Value::Int(snapshot.notify_subscriptions as i64),
            )
            .with("notifyEvents", Value::Int(snapshot.notify_events as i64))
            .with("notifyResyncs", Value::Int(snapshot.notify_resyncs as i64))
            .with("xmlCalls", Value::Int(snapshot.xml_calls as i64))
            .with("batchStreams", Value::Int(snapshot.batch_streams as i64))
            .with(
                "batchStreamEntries",
                Value::Int(snapshot.batch_stream_entries as i64),
            )
            .with(
                "batchStreamTruncated",
                Value::Int(snapshot.batch_stream_truncated as i64),
            )
            .with(
                "batchStreamFallbackCalls",
                Value::Int(snapshot.batch_stream_fallback_calls as i64),
            )
            .with(
                "planSnapshotHits",
                Value::Int(snapshot.plan_snapshot_hits as i64),
            )
            .with(
                "planSnapshotRefreshes",
                Value::Int(snapshot.plan_snapshot_refreshes as i64),
            )
            .with(
                "planExpansionHits",
                Value::Int(snapshot.plan_expansion_hits as i64),
            )
            .with(
                "planExpansionRefreshes",
                Value::Int(snapshot.plan_expansion_refreshes as i64),
            )
            .with(
                "planExpansionInvalidations",
                Value::Int(snapshot.plan_expansion_invalidations as i64),
            )
            .with(
                "httpConnectionsOpened",
                Value::Int(snapshot.http_connections_opened as i64),
            )
            .with("perSiteLatency", Value::StrArray(per_site))
    }
}

impl FederatedQueryService {
    fn run(
        &self,
        operation: &str,
        call: &Call,
        ctx: Option<&ppg_context::CallContext>,
    ) -> Result<Value, Fault> {
        match operation {
            "federatedQuery" => {
                let metric = call
                    .param("metric")
                    .and_then(Value::as_str)
                    .ok_or_else(|| Fault::client("missing 'metric'"))?;
                let foci = call
                    .param("foci")
                    .and_then(Value::as_str_array)
                    .ok_or_else(|| Fault::client("missing 'foci' array"))?;
                let mut query = FederatedQuery::new(metric, foci.to_vec());
                if let Some(start) = call.param("startTime").and_then(Value::as_str) {
                    query.start = start.to_owned();
                }
                if let Some(end) = call.param("endTime").and_then(Value::as_str) {
                    query.end = end.to_owned();
                }
                if let Some(rtype) = call.param("type").and_then(Value::as_str) {
                    if !rtype.is_empty() {
                        query.rtype = rtype.to_owned();
                    }
                }
                if let Some(extras) = call.param("extraMetrics").and_then(Value::as_str_array) {
                    for extra in extras {
                        query = query.also_metric(extra.clone());
                    }
                }
                let attribute = call.param("attribute").and_then(Value::as_str);
                let value = call.param("value").and_then(Value::as_str);
                if let (Some(attribute), Some(value)) = (attribute, value) {
                    query = query.matching(attribute, value);
                }
                if let Some(pattern) = call.param("sitePattern").and_then(Value::as_str) {
                    if !pattern.is_empty() {
                        query = query.sites(pattern);
                    }
                }
                let result = match ctx {
                    Some(ctx) => self.gateway.query_with_context(&query, ctx),
                    None => self.gateway.query(&query),
                };
                let mut out = Vec::with_capacity(
                    2 + result.total_rows() + result.errors.len() + result.trace.len(),
                );
                out.push(format!(
                    "h|{}|{}|{}",
                    result.sites_total,
                    result.elapsed.as_millis(),
                    result.upstream_calls
                ));
                for site_rows in &result.rows {
                    for row in site_rows.rows.iter() {
                        out.push(format!(
                            "r|{}|{}|{row}",
                            site_rows.site,
                            site_rows.execution.as_str()
                        ));
                    }
                }
                for error in &result.errors {
                    out.push(format!("e|{}|{}|{}", error.site, error.kind, error.detail));
                }
                out.push(format!("id|{}", result.request_id));
                for span in &result.trace {
                    out.push(format!(
                        "t|{}",
                        ppg_context::encode_trace(std::slice::from_ref(span))
                    ));
                }
                Ok(Value::StrArray(out))
            }
            other => Err(Fault::client(format!(
                "unknown FederatedQuery operation {other:?}"
            ))),
        }
    }
}

/// One parsed federated answer off the wire.
#[derive(Debug, Clone, Default)]
pub struct WireResult {
    /// `(site, execution GSH, rendered row)` triples.
    pub rows: Vec<(String, String, String)>,
    /// `(site, kind, detail)` triples.
    pub errors: Vec<(String, String, String)>,
    /// Sites fanned out to.
    pub sites_total: usize,
    /// Gateway-side wall-clock, milliseconds.
    pub elapsed_ms: u64,
    /// Upstream `getPR` calls the gateway performed for this query.
    pub upstream_calls: u64,
    /// Request id the gateway ran the query under (empty from pre-context
    /// gateways).
    pub request_id: String,
    /// The gateway's assembled cross-site trace.
    pub trace: Vec<ppg_context::Span>,
}

/// Typed client stub for the FederatedQuery PortType.
#[derive(Clone)]
pub struct FederatedQueryStub {
    stub: ServiceStub,
}

impl FederatedQueryStub {
    /// Bind to a deployed gateway service.
    pub fn bind(client: Arc<HttpClient>, handle: &Gsh) -> FederatedQueryStub {
        FederatedQueryStub {
            stub: ServiceStub::new(client, handle.clone()).with_namespace(GATEWAY_NS),
        }
    }

    /// The bound handle.
    pub fn handle(&self) -> &Gsh {
        self.stub.handle()
    }

    /// Run a federated query over the wire.
    pub fn query(&self, query: &FederatedQuery) -> Result<WireResult, OgsiError> {
        let mut params: Vec<(&str, Value)> = vec![
            ("metric", Value::from(query.metric.as_str())),
            ("foci", Value::StrArray(query.foci.clone())),
            ("startTime", Value::from(query.start.as_str())),
            ("endTime", Value::from(query.end.as_str())),
            ("type", Value::from(query.rtype.as_str())),
        ];
        if let Some((attribute, value)) = &query.selector {
            params.push(("attribute", Value::from(attribute.as_str())));
            params.push(("value", Value::from(value.as_str())));
        }
        if let Some(pattern) = &query.site_pattern {
            params.push(("sitePattern", Value::from(pattern.as_str())));
        }
        let elements = self.stub.call_str_array("federatedQuery", &params)?;
        let mut result = WireResult::default();
        for element in elements {
            // Context-era tags first: their payloads are opaque (the span
            // encoding has its own escaping), so they must not go through
            // the positional splitn below.
            if let Some(id) = element.strip_prefix("id|") {
                result.request_id = id.to_owned();
                continue;
            }
            if let Some(span) = element.strip_prefix("t|") {
                result.trace.extend(ppg_context::decode_trace(span));
                continue;
            }
            let mut parts = element.splitn(4, '|');
            match parts.next() {
                Some("h") => {
                    result.sites_total = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_default();
                    result.elapsed_ms = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_default();
                    result.upstream_calls = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_default();
                }
                Some("r") => {
                    let site = parts.next().unwrap_or_default().to_owned();
                    let exec = parts.next().unwrap_or_default().to_owned();
                    let row = parts.next().unwrap_or_default().to_owned();
                    result.rows.push((site, exec, row));
                }
                Some("e") => {
                    let site = parts.next().unwrap_or_default().to_owned();
                    let kind = parts.next().unwrap_or_default().to_owned();
                    let detail = parts.next().unwrap_or_default().to_owned();
                    result.errors.push((site, kind, detail));
                }
                _ => {}
            }
        }
        Ok(result)
    }

    /// Run a federated query over the wire under `ctx`: the stub layer puts
    /// the context on the request (headers + SOAP header block) and merges
    /// the response trace back into `ctx`.
    pub fn query_with_context(
        &self,
        query: &FederatedQuery,
        ctx: &ppg_context::CallContext,
    ) -> Result<WireResult, OgsiError> {
        let _scope = ppg_context::scope(ctx);
        self.query(query)
    }
}
