//! SOAP envelope construction and validation.

use crate::{Result, SoapError};
use pperf_xml::{Element, Node};

/// The SOAP 1.1 envelope namespace.
pub const SOAP_ENV_NS: &str = "http://schemas.xmlsoap.org/soap/envelope/";
/// XML Schema datatypes namespace.
pub const XSD_NS: &str = "http://www.w3.org/2001/XMLSchema";
/// XML Schema instance namespace.
pub const XSI_NS: &str = "http://www.w3.org/2001/XMLSchema-instance";
/// SOAP encoding namespace.
pub const SOAP_ENC_NS: &str = "http://schemas.xmlsoap.org/soap/encoding/";

/// A parsed SOAP envelope: optional header plus the body payload element.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Header entries, if a `<Header>` element was present.
    pub header: Option<Element>,
    /// The single payload element inside `<Body>` (the call, the response, or
    /// a `<Fault>`).
    pub body: Element,
}

/// Write a whole envelope document: the XML declaration, `<soap:Envelope>`
/// declaring the four namespaces above, a `<soap:Header>` holding what
/// `header_entry` writes (when given), and `<soap:Body>` holding what
/// `payload` writes. `len_hint` is the payload's expected size.
pub(crate) fn write_document(
    len_hint: usize,
    header_entry: Option<&dyn Fn(&mut String)>,
    payload: impl FnOnce(&mut String),
) -> String {
    let mut out = String::with_capacity(len_hint + 320);
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
    out.push_str("<soap:Envelope xmlns:soap=\"");
    out.push_str(SOAP_ENV_NS);
    out.push_str("\" xmlns:xsd=\"");
    out.push_str(XSD_NS);
    out.push_str("\" xmlns:xsi=\"");
    out.push_str(XSI_NS);
    out.push_str("\" xmlns:soapenc=\"");
    out.push_str(SOAP_ENC_NS);
    out.push_str("\">");
    if let Some(entry) = header_entry {
        out.push_str("<soap:Header>");
        entry(&mut out);
        out.push_str("</soap:Header>");
    }
    out.push_str("<soap:Body>");
    payload(&mut out);
    out.push_str("</soap:Body></soap:Envelope>");
    out
}

impl Envelope {
    /// Parse and validate an envelope from wire text. The header and the
    /// payload move out of the parsed tree; nothing is copied.
    pub fn parse(text: &str) -> Result<Envelope> {
        let root = pperf_xml::parse(text)?;
        if root.local_name() != "Envelope" {
            return Err(SoapError::Envelope(format!(
                "root element is <{}>, expected Envelope",
                root.name
            )));
        }
        let (mut header, mut body) = (None, None);
        for el in into_elements(root.children) {
            match el.local_name() {
                "Header" if header.is_none() => header = Some(el),
                "Body" if body.is_none() => body = Some(el),
                _ => {}
            }
        }
        let body = body.ok_or_else(|| SoapError::Envelope("missing <Body>".into()))?;
        let mut elems = into_elements(body.children);
        let payload = elems
            .next()
            .ok_or_else(|| SoapError::Envelope("empty <Body>".into()))?;
        if elems.next().is_some() {
            return Err(SoapError::Envelope("multiple elements in <Body>".into()));
        }
        Ok(Envelope {
            header,
            body: payload,
        })
    }
}

/// The element children of `nodes`, by value.
fn into_elements(nodes: Vec<Node>) -> impl Iterator<Item = Element> {
    nodes.into_iter().filter_map(|n| match n {
        Node::Element(e) => Some(e),
        Node::Text(_) | Node::RawText(_) => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_then_parse() {
        let payload = Element::with_text("ping", "1");
        let doc = write_document(0, None, |out| out.push_str(&payload.to_xml()));
        let env = Envelope::parse(&doc).unwrap();
        assert_eq!(env.body, payload);
        assert!(env.header.is_none());
        let with_header =
            write_document(0, Some(&|out: &mut String| out.push_str("<h/>")), |out| {
                out.push_str("<ping/>")
            });
        let env = Envelope::parse(&with_header).unwrap();
        assert_eq!(env.header.unwrap().child("h"), Some(&Element::new("h")));
    }

    #[test]
    fn header_preserved() {
        let mut root = Element::new("soap:Envelope");
        root.set_attr("xmlns:soap", SOAP_ENV_NS);
        root.push_child(Element::with_text("soap:Header", "h"));
        let mut body = Element::new("soap:Body");
        body.push_child(Element::new("op"));
        root.push_child(body);
        let env = Envelope::parse(&root.to_xml()).unwrap();
        assert_eq!(env.header.unwrap().text(), "h");
    }

    #[test]
    fn rejects_non_envelope() {
        assert!(matches!(
            Envelope::parse("<html/>"),
            Err(SoapError::Envelope(_))
        ));
    }

    #[test]
    fn rejects_missing_or_empty_body() {
        let no_body = "<soap:Envelope xmlns:soap=\"x\"/>";
        assert!(Envelope::parse(no_body).is_err());
        let empty_body = "<soap:Envelope xmlns:soap=\"x\"><soap:Body/></soap:Envelope>";
        assert!(Envelope::parse(empty_body).is_err());
    }

    #[test]
    fn rejects_multi_payload_body() {
        let multi = "<Envelope><Body><a/><b/></Body></Envelope>";
        assert!(Envelope::parse(multi).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            Envelope::parse("not xml at all"),
            Err(SoapError::Xml(_))
        ));
    }
}
