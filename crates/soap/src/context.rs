//! The call-context SOAP header block.
//!
//! The stack's [`CallContext`] travels in two redundant places: HTTP
//! headers (`X-PPG-Request-Id`, `X-PPG-Deadline-Ms`, `X-PPG-Leg`) for
//! transports that can see them, and a SOAP `<Header>` block for anything
//! that only sees the envelope (store-and-forward intermediaries, message
//! logs). This module owns the header-block shape:
//!
//! ```xml
//! <soap:Header>
//!   <ppg:CallContext xmlns:ppg="urn:ppg:context">
//!     <requestId>af31c2-0001</requestId>
//!     <deadlineMs>1874</deadlineMs>   <!-- remaining budget, optional -->
//!     <leg>t2.a1</leg>                <!-- cancellation leg, optional -->
//!   </ppg:CallContext>
//! </soap:Header>
//! ```

use crate::codec::{call_from_envelope, call_len_hint, write_call, Call};
use crate::envelope::{write_document, Envelope};
use crate::value::Value;
use crate::Result;
use pperf_xml::{escape_text_into, Element};
use ppg_context::CallContext;
use std::fmt::Write as _;

/// Namespace of the `<CallContext>` header block.
pub const CONTEXT_NS: &str = "urn:ppg:context";

/// Write the `<ppg:CallContext>` header entry for `ctx` onto `out`.
fn write_context_header(ctx: &CallContext, out: &mut String) {
    out.push_str("<ppg:CallContext xmlns:ppg=\"");
    out.push_str(CONTEXT_NS);
    out.push_str("\"><requestId>");
    escape_text_into(ctx.request_id(), out);
    out.push_str("</requestId>");
    if let Some(ms) = ctx.deadline_ms() {
        let _ = write!(out, "<deadlineMs>{ms}</deadlineMs>");
    }
    if !ctx.leg_tag().is_empty() {
        out.push_str("<leg>");
        escape_text_into(ctx.leg_tag(), out);
        out.push_str("</leg>");
    }
    out.push_str("</ppg:CallContext>");
}

/// Reconstruct a [`CallContext`] from a parsed `<Header>` element, if it
/// carries a `<CallContext>` block.
pub fn context_from_header(header: &Element) -> Option<CallContext> {
    let block = header.child("CallContext")?;
    let request_id = block.child("requestId").map(|e| e.text().into_owned());
    let deadline_ms = block.child("deadlineMs").map(|e| e.text().into_owned());
    let leg = block.child("leg").map(|e| e.text().into_owned());
    Some(CallContext::from_wire(
        request_id.as_deref(),
        deadline_ms.as_deref(),
        leg.as_deref(),
    ))
}

/// Encode an RPC request carrying the call context as a SOAP header block.
pub fn encode_call_with_context(
    method: &str,
    namespace: &str,
    params: &[(&str, Value)],
    ctx: &CallContext,
) -> String {
    let header = |out: &mut String| write_context_header(ctx, out);
    write_document(call_len_hint(params) + 192, Some(&header), |out| {
        write_call(out, method, namespace, params)
    })
}

/// Decode an RPC request along with its call context, when the envelope
/// carries one. The [`Call`] itself is identical to [`decode_call`]'s, and
/// both come from one parse of `text`.
///
/// [`decode_call`]: crate::decode_call
pub fn decode_call_with_context(text: &str) -> Result<(Call, Option<CallContext>)> {
    let env = Envelope::parse(text)?;
    let call = call_from_envelope(&env)?;
    let ctx = env.header.as_ref().and_then(context_from_header);
    Ok((call, ctx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn context_roundtrips_through_the_envelope() {
        let ctx = CallContext::with_budget(Duration::from_millis(800));
        let leg = ctx.leg(ppg_context::leg_tag(1, 1), 1);
        let wire = encode_call_with_context(
            "getPR",
            "urn:pperfgrid:Execution",
            &[("metric", Value::from("gflops"))],
            &leg,
        );
        let (call, decoded) = decode_call_with_context(&wire).unwrap();
        assert_eq!(call.method, "getPR");
        assert_eq!(call.param("metric").unwrap().as_str(), Some("gflops"));
        let decoded = decoded.expect("context header present");
        assert_eq!(decoded.request_id(), ctx.request_id());
        assert_eq!(decoded.leg_tag(), "t1.a1");
        assert_eq!(decoded.hedge_attempt(), 1);
        let remaining = decoded.remaining().expect("deadline carried");
        assert!(remaining <= Duration::from_millis(800));
    }

    #[test]
    fn plain_calls_have_no_context() {
        let wire = crate::encode_call("getFoci", "urn:x", &[]);
        let (call, ctx) = decode_call_with_context(&wire).unwrap();
        assert_eq!(call.method, "getFoci");
        assert!(ctx.is_none());
    }

    #[test]
    fn context_without_deadline_stays_open() {
        let ctx = CallContext::with_request_id("fixed-id");
        let wire = encode_call_with_context("ping", "urn:x", &[], &ctx);
        let (_, decoded) = decode_call_with_context(&wire).unwrap();
        let decoded = decoded.unwrap();
        assert_eq!(decoded.request_id(), "fixed-id");
        assert!(decoded.deadline().is_none());
        assert_eq!(decoded.cancel_key(), "fixed-id");
    }
}
