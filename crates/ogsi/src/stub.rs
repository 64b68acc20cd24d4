//! Dynamic client-side stubs — the runtime equivalent of the generated stub
//! classes GT3.2/Axis produced from WSDL (thesis §4.5: "A client's interface
//! to a Grid service, therefore, is a local stub and its associated
//! architecture adapter modules").

use crate::error::{OgsiError, Result};
use crate::gsh::Gsh;
use crate::{framed_operation, FRAMED_PATH};
use pperf_httpd::{HttpClient, HttpError, Request, Url};
use pperf_soap::wsdl::ServiceDescription;
use pperf_soap::{
    decode_response, encode_binary_batch_call, encode_call, encode_call_with_context, BatchEntry,
    BatchStreamEvent, BatchStreamReader, Fault, SoapError, Value, WireError, BINARY_CONTENT_TYPE,
    STREAM_CONTENT_TYPE,
};
use ppg_context::CallContext;
use std::sync::Arc;
use std::time::Instant;

/// Span outcome tag for a whole-call fault.
fn fault_tag(fault: &Fault) -> &'static str {
    if fault.is_deadline_exceeded() {
        "deadline-exceeded"
    } else if fault.is_cancelled() {
        "cancelled"
    } else {
        "fault"
    }
}

/// Which wire actually carried a [`ServiceStub::call_stream`] result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamWire {
    /// A one-entry framed PPGB call on `POST /ogsa/batch-stream`.
    Stream,
    /// The buffered SOAP/XML call, because `PPG_FORCE_XML=1` pinned it.
    Buffered,
    /// The framed attempt was turned away below the application layer
    /// (legacy site, route gone, corrupt head); the rows came from the
    /// transparent buffered re-send.
    StreamFallback,
}

/// How one entry of a [`ServiceStub::call_batch_stream`] ended.
#[derive(Debug, Clone)]
pub enum BatchStreamEntryOutcome {
    /// The entry sealed cleanly with its trailer after delivering `rows`.
    Done {
        /// Rows the entry's data frames carried (trailer-verified).
        rows: u64,
    },
    /// The entry sealed with an in-band fault frame. Sibling entries are
    /// unaffected.
    Fault(Fault),
    /// The stream died (EOF, transport error, consumer cancel) before this
    /// entry's trailer. The `rows` delivered so far reached the sink and
    /// stand, but the entry is incomplete and must not be cached whole.
    Truncated {
        /// Rows delivered before the stream died.
        rows: u64,
        /// What killed the stream.
        detail: String,
    },
}

/// Result of a [`ServiceStub::call_batch_stream`] that got a real framed
/// answer (the peer serves the route), whatever the per-entry outcomes.
#[derive(Debug, Clone)]
pub struct BatchStreamResult {
    /// Per-entry outcomes, in request order.
    pub entries: Vec<BatchStreamEntryOutcome>,
    /// True when the consumer callback stopped the stream early (returned
    /// `false`); unfinished entries are reported as truncated.
    pub cancelled: bool,
}

/// Outcome of a completed [`ServiceStub::call_stream`].
#[derive(Debug, Clone, Copy)]
pub struct StreamOutcome {
    /// Rows delivered to the consumer callback.
    pub rows: u64,
    /// Which wire carried them.
    pub wire: StreamWire,
    /// True when the consumer callback stopped the stream early at a frame
    /// boundary (its return was `false`); the rows delivered so far are
    /// valid but the stream was abandoned, not completed.
    pub cancelled: bool,
}

/// Fill every entry slot a dead framed stream left unsealed with a
/// [`BatchStreamEntryOutcome::Truncated`] carrying the rows that did arrive.
fn seal_unfinished(
    outcomes: Vec<Option<BatchStreamEntryOutcome>>,
    delivered: &[u64],
    detail: &str,
) -> Vec<BatchStreamEntryOutcome> {
    outcomes
        .into_iter()
        .enumerate()
        .map(|(i, outcome)| {
            outcome.unwrap_or_else(|| BatchStreamEntryOutcome::Truncated {
                rows: delivered[i],
                detail: detail.to_owned(),
            })
        })
        .collect()
}

/// An untyped stub bound to one Grid service (or service instance).
///
/// The stub is the client half of the architecture adapter: `call` marshals
/// the invocation into a SOAP document, POSTs it, and demarshals the response
/// or fault.
#[derive(Clone)]
pub struct ServiceStub {
    client: Arc<HttpClient>,
    handle: Gsh,
    url: Url,
    namespace: String,
}

impl ServiceStub {
    /// Bind a stub to a handle, sharing an HTTP client (connection pool).
    pub fn new(client: Arc<HttpClient>, handle: Gsh) -> ServiceStub {
        let url = handle.url();
        ServiceStub {
            client,
            handle,
            url,
            namespace: crate::OGSI_NS.to_owned(),
        }
    }

    /// Use a specific call namespace instead of the OGSI default.
    pub fn with_namespace(mut self, ns: impl Into<String>) -> ServiceStub {
        self.namespace = ns.into();
        self
    }

    /// The bound handle.
    pub fn handle(&self) -> &Gsh {
        &self.handle
    }

    /// Invoke `operation` with the given parameters.
    ///
    /// When a [`CallContext`] is scoped on this thread (see
    /// [`ppg_context::scope`]) it is forwarded automatically, so a service
    /// handler's outbound calls inherit the inbound request's deadline and
    /// id without every call site changing.
    pub fn call(&self, operation: &str, params: &[(&str, Value)]) -> Result<Value> {
        match ppg_context::current() {
            Some(ctx) => self.call_with_context(operation, params, &ctx),
            None => self.call_plain(operation, params),
        }
    }

    /// Invoke `operation`, carrying `ctx` on the wire: the context rides as
    /// `X-PPG-*` HTTP headers plus a SOAP header block, the exchange is
    /// bounded by the context's deadline, and the hop is recorded as a span
    /// (with the server's own spans, returned via `X-PPG-Trace`, merged in
    /// ahead of it).
    pub fn call_with_context(
        &self,
        operation: &str,
        params: &[(&str, Value)],
        ctx: &CallContext,
    ) -> Result<Value> {
        let started = Instant::now();
        let site = self.url.authority();
        if ctx.expired() {
            let outcome = if ctx.cancelled() {
                "cancelled-before-send"
            } else {
                "deadline-exceeded-before-send"
            };
            ctx.record_span("ogsi.stub", operation, &site, started, outcome);
            return Err(OgsiError::DeadlineExceeded(format!(
                "{operation} on {site}: budget exhausted before send"
            )));
        }
        let body = encode_call_with_context(operation, &self.namespace, params, ctx);
        let mut request = Request::post(
            self.url.path.clone(),
            "text/xml; charset=utf-8",
            body.into_bytes(),
        );
        request
            .headers
            .set(ppg_context::REQUEST_ID_HEADER, ctx.request_id());
        if let Some(ms) = ctx.deadline_ms() {
            request
                .headers
                .set(ppg_context::DEADLINE_MS_HEADER, ms.to_string());
        }
        if !ctx.leg_tag().is_empty() {
            request.headers.set(ppg_context::LEG_HEADER, ctx.leg_tag());
        }
        let response = match self
            .client
            .send_with_deadline(&self.url, &request, ctx.deadline())
        {
            Ok(response) => response,
            Err(HttpError::TimedOut) => {
                ctx.record_span("ogsi.stub", operation, &site, started, "deadline-exceeded");
                return Err(OgsiError::DeadlineExceeded(format!(
                    "{operation} on {site}: no response within budget"
                )));
            }
            Err(e) => {
                ctx.record_span("ogsi.stub", operation, &site, started, "transport-error");
                return Err(OgsiError::Transport(e));
            }
        };
        // Merge the server's spans before recording this hop's, so remote
        // spans precede the stub span that awaited them.
        if let Some(trace) = response.headers.get(ppg_context::TRACE_HEADER) {
            ctx.extend_spans(ppg_context::decode_trace(trace));
        }
        if !response.status.is_success() && response.status.0 != 500 {
            // 500 carries a SOAP fault body; anything else is transport-level.
            ctx.record_span("ogsi.stub", operation, &site, started, "http-error");
            return Err(OgsiError::HttpStatus(
                response.status.0,
                response.body_str().into_owned(),
            ));
        }
        match decode_response(&response.body_str()) {
            Ok(v) => {
                ctx.record_span("ogsi.stub", operation, &site, started, "ok");
                Ok(v)
            }
            Err(SoapError::Fault(f)) => {
                let outcome = if f.is_deadline_exceeded() {
                    "deadline-exceeded"
                } else if f.is_cancelled() {
                    "cancelled"
                } else {
                    "fault"
                };
                ctx.record_span("ogsi.stub", operation, &site, started, outcome);
                Err(OgsiError::Fault(f))
            }
            Err(e) => {
                ctx.record_span("ogsi.stub", operation, &site, started, "soap-error");
                Err(OgsiError::Soap(e))
            }
        }
    }

    /// The context-free invoke path: no headers, no deadline, no spans.
    fn call_plain(&self, operation: &str, params: &[(&str, Value)]) -> Result<Value> {
        let body = encode_call(operation, &self.namespace, params);
        let request = Request::post(
            self.url.path.clone(),
            "text/xml; charset=utf-8",
            body.into_bytes(),
        );
        let response = self.client.send(&self.url, &request)?;
        if !response.status.is_success() && response.status.0 != 500 {
            // 500 carries a SOAP fault body; anything else is transport-level.
            return Err(OgsiError::HttpStatus(
                response.status.0,
                response.body_str().into_owned(),
            ));
        }
        match decode_response(&response.body_str()) {
            Ok(v) => Ok(v),
            Err(SoapError::Fault(f)) => Err(OgsiError::Fault(f)),
            Err(e) => Err(OgsiError::Soap(e)),
        }
    }

    /// Convenience: invoke and coerce the result to a string array (the
    /// dominant return type in the PPerfGrid PortTypes).
    pub fn call_str_array(&self, operation: &str, params: &[(&str, Value)]) -> Result<Vec<String>> {
        let v = self.call(operation, params)?;
        v.into_str_array().ok_or_else(|| {
            OgsiError::Soap(SoapError::Envelope(format!(
                "{operation} returned a non-array"
            )))
        })
    }

    /// Convenience: [`ServiceStub::call_with_context`] coerced to a string
    /// array.
    pub fn call_str_array_with_context(
        &self,
        operation: &str,
        params: &[(&str, Value)],
        ctx: &CallContext,
    ) -> Result<Vec<String>> {
        let v = self.call_with_context(operation, params, ctx)?;
        v.into_str_array().ok_or_else(|| {
            OgsiError::Soap(SoapError::Envelope(format!(
                "{operation} returned a non-array"
            )))
        })
    }

    /// Convenience: invoke and coerce the result to an integer.
    pub fn call_int(&self, operation: &str, params: &[(&str, Value)]) -> Result<i64> {
        let v = self.call(operation, params)?;
        v.as_int().ok_or_else(|| {
            OgsiError::Soap(SoapError::Envelope(format!(
                "{operation} returned a non-integer"
            )))
        })
    }

    /// Invoke `operation` expecting a row stream: a one-entry framed call,
    /// each data frame's rows handed to `on_rows` as they decode — constant
    /// memory regardless of result size. `on_rows` returning `false`
    /// abandons the stream at that frame boundary (the connection is
    /// dropped, which the producer observes as consumer death).
    ///
    /// `PPG_FORCE_XML=1` pins the buffered SOAP/XML call; a peer that turns
    /// the framed route away (404 from a legacy site, a non-stream answer, a
    /// corrupt head) gets a transparent buffered re-send, reported as
    /// [`StreamWire::StreamFallback`].
    ///
    /// A stream that dies after delivering rows is NOT retried — the rows
    /// already reached `on_rows` — and surfaces as
    /// [`OgsiError::StreamTruncated`]; an in-band fault frame surfaces as
    /// the fault it carries.
    pub fn call_stream(
        &self,
        operation: &str,
        params: &[(&str, Value)],
        ctx: &CallContext,
        on_rows: &mut dyn FnMut(Vec<String>) -> bool,
    ) -> Result<StreamOutcome> {
        if pperf_soap::force_xml() {
            return self.call_buffered_rows(operation, params, ctx, on_rows, StreamWire::Buffered);
        }
        let entry = BatchEntry::new(
            self.url.path.clone(),
            operation,
            self.namespace.clone(),
            params,
        );
        let streamed =
            self.call_batch_stream(std::slice::from_ref(&entry), ctx, &mut |_, rows| {
                on_rows(rows)
            })?;
        let Some(streamed) = streamed else {
            return self.call_buffered_rows(
                operation,
                params,
                ctx,
                on_rows,
                StreamWire::StreamFallback,
            );
        };
        let outcome = (streamed.entries.into_iter().next()).expect("one outcome per entry sent");
        let done = |rows, cancelled| StreamOutcome {
            rows,
            wire: StreamWire::Stream,
            cancelled,
        };
        match outcome {
            BatchStreamEntryOutcome::Done { rows } => Ok(done(rows, false)),
            BatchStreamEntryOutcome::Fault(fault) => Err(OgsiError::Fault(fault)),
            BatchStreamEntryOutcome::Truncated { rows, .. } if streamed.cancelled => {
                Ok(done(rows, true))
            }
            BatchStreamEntryOutcome::Truncated { rows, detail } => {
                Err(OgsiError::StreamTruncated { rows, detail })
            }
        }
    }

    /// The buffered fallback: one ordinary call, rows delivered to the
    /// callback in a single gulp. The result is already complete when the
    /// callback runs, so its cancel return is moot here.
    fn call_buffered_rows(
        &self,
        operation: &str,
        params: &[(&str, Value)],
        ctx: &CallContext,
        on_rows: &mut dyn FnMut(Vec<String>) -> bool,
        wire: StreamWire,
    ) -> Result<StreamOutcome> {
        let rows = self.call_str_array_with_context(operation, params, ctx)?;
        let total = rows.len() as u64;
        if !rows.is_empty() {
            let _ = on_rows(rows);
        }
        Ok(StreamOutcome {
            rows: total,
            wire,
            cancelled: false,
        })
    }

    /// The framed call: `entries` (one or more, each naming its own target
    /// path) ride one kind-1 PPGB frame to `POST /ogsa/batch-stream`, and
    /// their results stream back as *interleaved* sections: each entry's
    /// rows are handed to `on_rows(entry_index, rows)` as its frames decode,
    /// in whatever order the server's producers yield them.
    ///
    /// `Ok(None)` means "this peer does not serve the framed route" (404
    /// from a legacy site, a non-stream head, or a corrupt frame before any
    /// rows flowed): the caller should fall back to per-call SOAP/XML and
    /// remember the peer. The cause is the `ogsi.stub` span's outcome
    /// (`downgrade:<cause>`). After rows have been delivered the attempt is
    /// never retried — a dead stream surfaces as per-entry
    /// [`BatchStreamEntryOutcome::Truncated`] outcomes inside `Ok(Some)`,
    /// and sibling entries that already sealed keep their real outcomes.
    /// `on_rows` returning `false` abandons the stream at that frame
    /// boundary and sets `cancelled` on the result.
    ///
    /// `Err` is reserved for failures before any rows were delivered
    /// (budget spent before send, transport death on the request, a
    /// whole-call fault frame).
    ///
    /// A one-entry call's trailer carries the container's spans; they are
    /// merged into `ctx` ahead of this hop's own span.
    pub fn call_batch_stream(
        &self,
        entries: &[BatchEntry],
        ctx: &CallContext,
        on_rows: &mut dyn FnMut(usize, Vec<String>) -> bool,
    ) -> Result<Option<BatchStreamResult>> {
        let started = Instant::now();
        let site = self.url.authority();
        let op = framed_operation(entries);
        if ctx.expired() {
            let outcome = if ctx.cancelled() {
                "cancelled-before-send"
            } else {
                "deadline-exceeded-before-send"
            };
            ctx.record_span("ogsi.stub", op, &site, started, outcome);
            return Err(OgsiError::DeadlineExceeded(format!(
                "{op} on {site}: budget exhausted before send"
            )));
        }
        let frame = encode_binary_batch_call(entries, Some(ctx));
        let mut url = self.url.clone();
        url.path = FRAMED_PATH.to_owned();
        let mut request = Request::post(url.path.clone(), BINARY_CONTENT_TYPE, frame);
        request.headers.set("Accept", STREAM_CONTENT_TYPE);
        self.set_context_headers(&mut request, ctx);
        let mut stream = match self.client.send_streaming(&url, &request, ctx.deadline()) {
            Ok(stream) => stream,
            Err(HttpError::TimedOut) => {
                ctx.record_span("ogsi.stub", op, &site, started, "deadline-exceeded");
                return Err(OgsiError::DeadlineExceeded(format!(
                    "{op} on {site}: no stream head within budget"
                )));
            }
            Err(e) => {
                ctx.record_span("ogsi.stub", op, &site, started, "transport-error");
                return Err(OgsiError::Transport(e));
            }
        };
        if let Some(trace) = stream.headers.get(ppg_context::TRACE_HEADER) {
            ctx.extend_spans(ppg_context::decode_trace(trace));
        }
        let is_stream = stream.status.is_success()
            && stream
                .content_type()
                .is_some_and(|ct| ct.starts_with(STREAM_CONTENT_TYPE));
        if !is_stream {
            // Legacy site: 404 (route absent) or a buffered answer. Fall
            // back to per-call XML, which will surface any real fault.
            let cause = if stream.status.is_success() {
                "downgrade:not-stream".to_owned()
            } else {
                format!("downgrade:http-{}", stream.status.0)
            };
            ctx.record_span("ogsi.stub", op, &site, started, &cause);
            return Ok(None);
        }
        let mut reader = BatchStreamReader::new();
        let mut outcomes: Vec<Option<BatchStreamEntryOutcome>> = vec![None; entries.len()];
        let mut delivered: Vec<u64> = vec![0; entries.len()];
        let mut total_delivered = 0u64;
        let mut buf = [0u8; 8192];
        loop {
            loop {
                match reader.next_event() {
                    Ok(Some(BatchStreamEvent::Begin { entries: declared })) => {
                        if declared as usize != entries.len() {
                            // The head must echo our arity; anything else is
                            // a broken peer. No rows flowed yet (the head is
                            // the first frame), so the buffered re-send is
                            // safe.
                            ctx.record_span("ogsi.stub", op, &site, started, "downgrade:arity");
                            return Ok(None);
                        }
                    }
                    Ok(Some(BatchStreamEvent::EntryOpen { .. })) => {}
                    Ok(Some(BatchStreamEvent::EntryRows { entry, rows })) => {
                        let index = entry as usize;
                        delivered[index] += rows.len() as u64;
                        total_delivered += rows.len() as u64;
                        if !on_rows(index, rows) {
                            // Frame-boundary cancel: abandon the stream.
                            // Dropping it drops the connection, which the
                            // producers observe as consumer death.
                            ctx.record_span("ogsi.stub", op, &site, started, "stream-cancelled");
                            return Ok(Some(BatchStreamResult {
                                entries: seal_unfinished(
                                    outcomes,
                                    &delivered,
                                    "stream abandoned by consumer",
                                ),
                                cancelled: true,
                            }));
                        }
                    }
                    Ok(Some(BatchStreamEvent::EntryEnd { entry, rows })) => {
                        outcomes[entry as usize] = Some(BatchStreamEntryOutcome::Done { rows });
                    }
                    Ok(Some(BatchStreamEvent::EntryFault { entry, fault })) => {
                        outcomes[entry as usize] = Some(BatchStreamEntryOutcome::Fault(fault));
                    }
                    Ok(None) => break,
                    Err(WireError::Fault(f)) => {
                        // An untagged kind-3 frame is a whole-batch refusal
                        // (budget spent on arrival); the server sends it
                        // before any entry opens.
                        ctx.record_span("ogsi.stub", op, &site, started, fault_tag(&f));
                        return Err(OgsiError::Fault(f));
                    }
                    Err(_) if total_delivered == 0 => {
                        ctx.record_span("ogsi.stub", op, &site, started, "downgrade:corrupt");
                        return Ok(None);
                    }
                    Err(e) => {
                        ctx.record_span("ogsi.stub", op, &site, started, "stream-truncated");
                        return Ok(Some(BatchStreamResult {
                            entries: seal_unfinished(outcomes, &delivered, &e.to_string()),
                            cancelled: false,
                        }));
                    }
                }
            }
            if reader.finished() {
                // Every declared entry sealed. Drain the transport epilogue
                // so the connection can be checked back into the pool.
                while matches!(stream.read_data(&mut buf), Ok(n) if n > 0) {}
                for entry in 0..entries.len() as u32 {
                    let trace = reader.entry_trace(entry);
                    if !trace.is_empty() {
                        ctx.extend_spans(ppg_context::decode_trace(trace));
                    }
                }
                let sealed: Vec<BatchStreamEntryOutcome> = outcomes
                    .into_iter()
                    .map(|o| o.expect("finished batch stream sealed every entry"))
                    .collect();
                let tag = if sealed
                    .iter()
                    .all(|o| matches!(o, BatchStreamEntryOutcome::Done { .. }))
                {
                    "ok"
                } else {
                    "partial"
                };
                ctx.record_span("ogsi.stub", op, &site, started, tag);
                return Ok(Some(BatchStreamResult {
                    entries: sealed,
                    cancelled: false,
                }));
            }
            match stream.read_data(&mut buf) {
                Ok(0) => {
                    // EOF before every entry sealed: the site died
                    // mid-flight. Entries that already sealed keep their
                    // outcomes; exactly the unsealed ones are truncated.
                    ctx.record_span("ogsi.stub", op, &site, started, "stream-truncated");
                    return Ok(Some(BatchStreamResult {
                        entries: seal_unfinished(
                            outcomes,
                            &delivered,
                            "stream ended before entry trailer",
                        ),
                        cancelled: false,
                    }));
                }
                Ok(n) => reader.feed(&buf[..n]),
                Err(HttpError::TimedOut) => {
                    ctx.record_span("ogsi.stub", op, &site, started, "deadline-exceeded");
                    if total_delivered == 0 {
                        return Err(OgsiError::DeadlineExceeded(format!(
                            "{op} on {site}: stream stalled past budget"
                        )));
                    }
                    return Ok(Some(BatchStreamResult {
                        entries: seal_unfinished(
                            outcomes,
                            &delivered,
                            "stream stalled past budget",
                        ),
                        cancelled: false,
                    }));
                }
                Err(e) if total_delivered == 0 => {
                    ctx.record_span("ogsi.stub", op, &site, started, "transport-error");
                    return Err(OgsiError::Transport(e));
                }
                Err(e) => {
                    ctx.record_span("ogsi.stub", op, &site, started, "stream-truncated");
                    return Ok(Some(BatchStreamResult {
                        entries: seal_unfinished(outcomes, &delivered, &e.to_string()),
                        cancelled: false,
                    }));
                }
            }
        }
    }

    /// Stamp the `X-PPG-*` context headers onto an outbound request.
    fn set_context_headers(&self, request: &mut Request, ctx: &CallContext) {
        request
            .headers
            .set(ppg_context::REQUEST_ID_HEADER, ctx.request_id());
        if let Some(ms) = ctx.deadline_ms() {
            request
                .headers
                .set(ppg_context::DEADLINE_MS_HEADER, ms.to_string());
        }
        if !ctx.leg_tag().is_empty() {
            request.headers.set(ppg_context::LEG_HEADER, ctx.leg_tag());
        }
    }

    /// Fetch the service description published at `?wsdl`.
    pub fn fetch_description(&self) -> Result<ServiceDescription> {
        let mut url = self.url.clone();
        url.query = "wsdl".into();
        let response = self.client.get(&url.to_string())?;
        if !response.status.is_success() {
            return Err(OgsiError::HttpStatus(
                response.status.0,
                response.body_str().into_owned(),
            ));
        }
        Ok(ServiceDescription::from_xml(&response.body_str())?)
    }
}
