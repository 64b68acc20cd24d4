//! RPC call/response encoding on top of envelopes.
//!
//! Wire shape (matching the Axis RPC style the thesis describes):
//!
//! ```xml
//! <soap:Envelope ...>
//!   <soap:Body>
//!     <m:getExecs xmlns:m="urn:pperfgrid:Application">
//!       <attribute xsi:type="xsd:string">numprocs</attribute>
//!       <value xsi:type="xsd:string">8</value>
//!     </m:getExecs>
//!   </soap:Body>
//! </soap:Envelope>
//! ```
//!
//! Responses wrap a single `<return>` element in `<{method}Response>`; errors
//! travel as `<soap:Fault>`.

use crate::envelope::{write_document, Envelope};
use crate::fault::Fault;
use crate::value::Value;
use crate::{Result, SoapError};
use pperf_xml::escape_attr_into;

/// A decoded RPC request: method name, namespace URI, and named parameters in
/// call order.
#[derive(Debug, Clone, PartialEq)]
pub struct Call {
    /// Method (operation) name, prefix stripped.
    pub method: String,
    /// The method namespace (`xmlns:m` on the call element), if present.
    pub namespace: Option<String>,
    /// `(name, value)` parameters in document order.
    pub params: Vec<(String, Value)>,
}

impl Call {
    /// Look up a parameter by name.
    pub fn param(&self, name: &str) -> Option<&Value> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Positional parameter access (SOAP RPC params are ordered).
    pub fn arg(&self, index: usize) -> Option<&Value> {
        self.params.get(index).map(|(_, v)| v)
    }
}

/// Encode an RPC request document.
pub fn encode_call(method: &str, namespace: &str, params: &[(&str, Value)]) -> String {
    write_document(call_len_hint(params), None, |out| {
        write_call(out, method, namespace, params)
    })
}

/// Expected size of a call element carrying `params`.
pub(crate) fn call_len_hint(params: &[(&str, Value)]) -> usize {
    params
        .iter()
        .map(|(name, value)| 2 * name.len() + value.xml_len_hint())
        .sum()
}

/// Write the call element `<m:{method} xmlns:m="{namespace}">` with one
/// child per parameter onto `out`.
pub(crate) fn write_call(
    out: &mut String,
    method: &str,
    namespace: &str,
    params: &[(&str, Value)],
) {
    out.push_str("<m:");
    out.push_str(method);
    out.push_str(" xmlns:m=\"");
    escape_attr_into(namespace, out);
    out.push('"');
    if params.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for (name, value) in params {
        value.write_xml(name, out);
    }
    out.push_str("</m:");
    out.push_str(method);
    out.push('>');
}

/// Decode an RPC request document into a [`Call`].
///
/// A `<Fault>` body is reported as [`SoapError::Fault`]; requests should not
/// carry faults, so surfacing it as an error is the safe interpretation.
pub fn decode_call(text: &str) -> Result<Call> {
    call_from_envelope(&Envelope::parse(text)?)
}

/// The [`Call`] in a parsed request envelope.
pub(crate) fn call_from_envelope(env: &Envelope) -> Result<Call> {
    if let Some(f) = Fault::from_element(&env.body) {
        return Err(SoapError::Fault(f));
    }
    let method = env.body.local_name().to_owned();
    let namespace = env.body.attr("xmlns:m").map(str::to_owned);
    let mut params = Vec::with_capacity(env.body.element_count());
    for child in env.body.child_elements() {
        let value = Value::from_element(child)?;
        params.push((child.local_name().to_owned(), value));
    }
    Ok(Call {
        method,
        namespace,
        params,
    })
}

/// Encode a successful RPC response carrying one return value.
pub fn encode_response(method: &str, ret: &Value) -> String {
    write_document(2 * method.len() + ret.xml_len_hint(), None, |out| {
        out.push_str("<m:");
        out.push_str(method);
        out.push_str("Response>");
        ret.write_xml("return", out);
        out.push_str("</m:");
        out.push_str(method);
        out.push_str("Response>");
    })
}

/// Encode a fault response.
pub fn encode_fault(fault: &Fault) -> String {
    let detail = fault.detail.as_ref().map_or(0, String::len);
    write_document(fault.string.len() + detail + 96, None, |out| {
        fault.write_xml(out)
    })
}

/// Decode an RPC response: the return value on success, or the fault as a
/// typed error.
pub fn decode_response(text: &str) -> Result<Value> {
    let env = Envelope::parse(text)?;
    if let Some(f) = Fault::from_element(&env.body) {
        return Err(SoapError::Fault(f));
    }
    if !env.body.local_name().ends_with("Response") {
        return Err(SoapError::Envelope(format!(
            "expected a *Response element, got <{}>",
            env.body.name
        )));
    }
    match env.body.child("return") {
        Some(ret) => Ok(Value::from_element(ret)?),
        None => Ok(Value::Nil), // void return
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultCode;

    #[test]
    fn call_roundtrip() {
        let wire = encode_call(
            "getPR",
            "urn:pperfgrid:Execution",
            &[
                ("metric", Value::from("gflops")),
                (
                    "foci",
                    Value::StrArray(vec!["/Process/1".into(), "/Process/2".into()]),
                ),
                ("startTime", Value::from("0.0")),
                ("endTime", Value::from("11.047856")),
                ("type", Value::from("UNDEFINED")),
            ],
        );
        let call = decode_call(&wire).unwrap();
        assert_eq!(call.method, "getPR");
        assert_eq!(call.namespace.as_deref(), Some("urn:pperfgrid:Execution"));
        assert_eq!(call.params.len(), 5);
        assert_eq!(call.param("metric").unwrap().as_str(), Some("gflops"));
        assert_eq!(call.arg(1).unwrap().as_str_array().unwrap().len(), 2);
        assert!(call.param("missing").is_none());
    }

    #[test]
    fn zero_param_call() {
        let wire = encode_call("getNumExecs", "urn:x", &[]);
        let call = decode_call(&wire).unwrap();
        assert_eq!(call.method, "getNumExecs");
        assert!(call.params.is_empty());
    }

    #[test]
    fn response_roundtrip() {
        let wire = encode_response("getNumExecs", &Value::Int(124));
        assert_eq!(decode_response(&wire).unwrap(), Value::Int(124));
    }

    #[test]
    fn void_response() {
        let wire = encode_response("destroy", &Value::Nil);
        assert_eq!(decode_response(&wire).unwrap(), Value::Nil);
    }

    #[test]
    fn fault_roundtrip() {
        let f = Fault::client("no such attribute").with_detail("attr=walltime");
        let wire = encode_fault(&f);
        match decode_response(&wire) {
            Err(SoapError::Fault(got)) => {
                assert_eq!(got.code, FaultCode::Client);
                assert_eq!(got.string, "no such attribute");
                assert_eq!(got.detail.as_deref(), Some("attr=walltime"));
            }
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn fault_detected_in_call_position() {
        let wire = encode_fault(&Fault::server("x"));
        assert!(matches!(decode_call(&wire), Err(SoapError::Fault(_))));
    }

    #[test]
    fn non_response_rejected() {
        let wire = encode_call("getFoci", "urn:x", &[]);
        assert!(matches!(
            decode_response(&wire),
            Err(SoapError::Envelope(_))
        ));
    }

    #[test]
    fn infinities_travel_as_xsd_double() {
        let wire = encode_response("getMax", &Value::Double(f64::INFINITY));
        assert!(
            wire.contains(r#"<return xsi:type="xsd:double">INF</return>"#),
            "{wire}"
        );
        assert_eq!(
            decode_response(&wire).unwrap(),
            Value::Double(f64::INFINITY)
        );
        let wire = encode_call(
            "setMin",
            "urn:x",
            &[("v", Value::Double(f64::NEG_INFINITY))],
        );
        assert!(
            wire.contains(r#"<v xsi:type="xsd:double">-INF</v>"#),
            "{wire}"
        );
        let call = decode_call(&wire).unwrap();
        assert_eq!(call.param("v"), Some(&Value::Double(f64::NEG_INFINITY)));
    }

    #[test]
    fn delimiter_strings_survive() {
        // The thesis's interfaces delimit name|value pairs with '|'; make
        // sure nothing on the wire path mangles them.
        let v = Value::StrArray(vec!["name|HPL".into(), "version|1.2 & \"final\"".into()]);
        let wire = encode_response("getAppInfo", &v);
        assert_eq!(decode_response(&wire).unwrap(), v);
    }
}
