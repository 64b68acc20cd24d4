//! SOAP faults — the error half of the RPC conversation.

use pperf_xml::{escape_text_into, Element};
use std::fmt;

/// Standard SOAP 1.1 fault code classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultCode {
    /// The message was malformed or used an unsupported version.
    VersionMismatch,
    /// A mandatory header was not understood.
    MustUnderstand,
    /// The message content was invalid — the caller's fault.
    Client,
    /// Processing failed on the service side.
    Server,
}

impl FaultCode {
    fn as_str(self) -> &'static str {
        match self {
            FaultCode::VersionMismatch => "soap:VersionMismatch",
            FaultCode::MustUnderstand => "soap:MustUnderstand",
            FaultCode::Client => "soap:Client",
            FaultCode::Server => "soap:Server",
        }
    }

    fn from_str(s: &str) -> FaultCode {
        match s.rsplit(':').next().unwrap_or(s) {
            "VersionMismatch" => FaultCode::VersionMismatch,
            "MustUnderstand" => FaultCode::MustUnderstand,
            "Client" => FaultCode::Client,
            _ => FaultCode::Server,
        }
    }
}

/// Detail marker identifying a deadline-exceeded fault on the wire. The
/// `FaultCode` enum is closed (SOAP 1.1 defines exactly four classes), so
/// typed stack conditions ride in `<detail>` instead.
pub const DEADLINE_EXCEEDED_DETAIL: &str = "ppg:DeadlineExceeded";
/// Detail marker identifying a cancelled-call fault on the wire.
pub const CANCELLED_DETAIL: &str = "ppg:Cancelled";

/// A SOAP fault: code, human-readable string, and optional detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Fault class.
    pub code: FaultCode,
    /// Short human-readable explanation.
    pub string: String,
    /// Application-specific detail (e.g. the wrapped service error).
    pub detail: Option<String>,
}

impl Fault {
    /// A server-side fault with the given message.
    pub fn server(msg: impl Into<String>) -> Fault {
        Fault {
            code: FaultCode::Server,
            string: msg.into(),
            detail: None,
        }
    }

    /// A client-side (caller error) fault with the given message.
    pub fn client(msg: impl Into<String>) -> Fault {
        Fault {
            code: FaultCode::Client,
            string: msg.into(),
            detail: None,
        }
    }

    /// Attach application detail.
    pub fn with_detail(mut self, detail: impl Into<String>) -> Fault {
        self.detail = Some(detail.into());
        self
    }

    /// A typed deadline-exceeded fault: the request's budget ran out before
    /// the work completed, and the server refused to finish doomed work.
    pub fn deadline_exceeded(msg: impl Into<String>) -> Fault {
        Fault::server(msg).with_detail(DEADLINE_EXCEEDED_DETAIL)
    }

    /// A typed cancellation fault: the caller (e.g. a hedged gateway that
    /// already has a winner) asked this leg to stop.
    pub fn cancelled(msg: impl Into<String>) -> Fault {
        Fault::server(msg).with_detail(CANCELLED_DETAIL)
    }

    /// True for faults produced by [`Fault::deadline_exceeded`], surviving
    /// a wire roundtrip.
    pub fn is_deadline_exceeded(&self) -> bool {
        matches!(&self.detail, Some(d) if d.starts_with(DEADLINE_EXCEEDED_DETAIL))
    }

    /// True for faults produced by [`Fault::cancelled`].
    pub fn is_cancelled(&self) -> bool {
        matches!(&self.detail, Some(d) if d.starts_with(CANCELLED_DETAIL))
    }

    /// Write the `<soap:Fault>` body payload onto `out`.
    pub(crate) fn write_xml(&self, out: &mut String) {
        out.push_str("<soap:Fault><faultcode>");
        out.push_str(self.code.as_str());
        out.push_str("</faultcode><faultstring>");
        escape_text_into(&self.string, out);
        out.push_str("</faultstring>");
        if let Some(d) = &self.detail {
            out.push_str("<detail>");
            escape_text_into(d, out);
            out.push_str("</detail>");
        }
        out.push_str("</soap:Fault>");
    }

    /// Decode from a `<Fault>` payload element. Returns `None` if the element
    /// is not a fault.
    pub fn from_element(el: &Element) -> Option<Fault> {
        if el.local_name() != "Fault" {
            return None;
        }
        let code = el
            .child("faultcode")
            .map(|c| FaultCode::from_str(&c.text()))
            .unwrap_or(FaultCode::Server);
        let string = el
            .child("faultstring")
            .map(|s| s.text().into_owned())
            .unwrap_or_default();
        let detail = el.child("detail").map(|d| d.text().into_owned());
        Some(Fault {
            code,
            string,
            detail,
        })
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.string, self.code.as_str())?;
        if let Some(d) = &self.detail {
            write!(f, ": {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Fault {}

#[cfg(test)]
mod tests {
    use super::*;

    /// `f` written and parsed back into a tree.
    fn written(f: &Fault) -> Element {
        let mut out = String::new();
        f.write_xml(&mut out);
        pperf_xml::parse(&out).expect("written fault parses")
    }

    #[test]
    fn roundtrip() {
        let f = Fault::server("boom & <bust>").with_detail("stack");
        assert_eq!(Fault::from_element(&written(&f)).unwrap(), f);
    }

    #[test]
    fn roundtrip_all_codes() {
        for code in [
            FaultCode::VersionMismatch,
            FaultCode::MustUnderstand,
            FaultCode::Client,
            FaultCode::Server,
        ] {
            let f = Fault {
                code,
                string: "x".into(),
                detail: None,
            };
            assert_eq!(Fault::from_element(&written(&f)).unwrap().code, code);
        }
    }

    #[test]
    fn non_fault_is_none() {
        assert!(Fault::from_element(&Element::new("getExecsResponse")).is_none());
    }

    #[test]
    fn unknown_code_defaults_to_server() {
        let mut el = Element::new("Fault");
        el.push_child(Element::with_text("faultcode", "weird:Thing"));
        el.push_child(Element::with_text("faultstring", "m"));
        assert_eq!(Fault::from_element(&el).unwrap().code, FaultCode::Server);
    }

    #[test]
    fn display_includes_detail() {
        let f = Fault::client("bad arg").with_detail("param 2");
        let s = f.to_string();
        assert!(s.contains("bad arg") && s.contains("param 2"));
    }
}
