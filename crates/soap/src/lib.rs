//! SOAP 1.1 messaging for PPerfGrid.
//!
//! The thesis's Services Layer converts between call-return style (native
//! method invocations) and message style (SOAP documents over HTTP) — the
//! *architecture adapter* pattern of §4.5. This crate implements the message
//! side:
//!
//! * [`Value`] — the RPC type system (strings, integers, doubles, booleans,
//!   and string arrays — the types the Application/Execution PortTypes use),
//! * [`encode_call`] / [`decode_call`] — request envelopes,
//! * [`encode_response`] / [`decode_response`] — response envelopes,
//! * [`Fault`] — SOAP faults, encoded and decoded symmetrically,
//! * [`wsdl`] — WSDL-like service descriptions (the GWSDL stand-in) that
//!   clients can fetch to discover operations.
//!
//! # Example
//!
//! ```
//! use pperf_soap::{encode_call, decode_call, Value};
//!
//! let wire = encode_call("getExecs", "urn:pperfgrid", &[
//!     ("attribute", Value::from("numprocs")),
//!     ("value", Value::from("8")),
//! ]);
//! let call = decode_call(&wire).unwrap();
//! assert_eq!(call.method, "getExecs");
//! assert_eq!(call.params[1].1.as_str().unwrap(), "8");
//! ```

mod codec;
pub mod context;
mod envelope;
mod fault;
mod value;
pub mod wire;
pub mod wsdl;

pub use codec::{decode_call, decode_response, encode_call, encode_fault, encode_response, Call};
pub use context::{
    context_from_header, decode_call_with_context, encode_call_with_context, CONTEXT_NS,
};
pub use envelope::{Envelope, SOAP_ENV_NS, XSD_NS, XSI_NS};
pub use fault::{Fault, FaultCode, CANCELLED_DETAIL, DEADLINE_EXCEEDED_DETAIL};
pub use value::{pack_strs, unpack_strs, Value, ValueError, ValueType, PACK_THRESHOLD};
pub use wire::{
    decode_binary_batch_call, decode_binary_event, decode_binary_segment, encode_batch_stream_head,
    encode_binary_batch_call, encode_binary_batch_call_into, encode_binary_event,
    encode_binary_segment, encode_entry_fault, encode_entry_head, encode_stream_fault, force_xml,
    BatchEntry, BatchStreamEvent, BatchStreamReader, FrameReader, FrameWriter, StreamEvent,
    WireError, WireEvent, WireSegment, BINARY_CONTENT_TYPE, DEFAULT_STREAM_FRAME_BYTES, PPGB_MAGIC,
    PPGB_VERSION, STREAM_CONTENT_TYPE,
};

/// Errors raised while encoding or decoding SOAP messages.
#[derive(Debug, Clone, PartialEq)]
pub enum SoapError {
    /// The XML itself failed to parse.
    Xml(pperf_xml::Error),
    /// The document parsed but is not a valid SOAP envelope.
    Envelope(String),
    /// A value failed to decode (bad type attribute, non-numeric text, ...).
    Value(ValueError),
    /// The peer returned a SOAP fault.
    Fault(Fault),
}

impl std::fmt::Display for SoapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SoapError::Xml(e) => write!(f, "soap: {e}"),
            SoapError::Envelope(m) => write!(f, "soap: malformed envelope: {m}"),
            SoapError::Value(e) => write!(f, "soap: {e}"),
            SoapError::Fault(fault) => write!(f, "soap fault: {fault}"),
        }
    }
}

impl std::error::Error for SoapError {}

impl From<pperf_xml::Error> for SoapError {
    fn from(e: pperf_xml::Error) -> Self {
        SoapError::Xml(e)
    }
}

impl From<ValueError> for SoapError {
    fn from(e: ValueError) -> Self {
        SoapError::Value(e)
    }
}

impl From<Fault> for SoapError {
    fn from(f: Fault) -> Self {
        SoapError::Fault(f)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SoapError>;
