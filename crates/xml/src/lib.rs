//! A from-scratch XML 1.0 subset sufficient for SOAP messaging.
//!
//! PPerfGrid's wire protocol is SOAP, which is XML. The 2004 implementation
//! leaned on Apache Axis for all XML handling; this crate is the Rust
//! replacement. It provides:
//!
//! * [`Element`] — an owned document tree (elements, attributes, text, CDATA),
//! * [`parse`] — a recursive-descent parser over a byte slice,
//! * [`Element::to_xml`] / [`Element::to_xml_pretty`] — serialization,
//! * escaping/unescaping of the five predefined entities plus numeric
//!   character references.
//!
//! The subset deliberately omits DTDs, processing instructions other than the
//! XML declaration, and full namespace resolution (prefixes are kept verbatim
//! in names, with [`Element::local_name`] for prefix-stripped comparisons) —
//! exactly what a SOAP 1.1 RPC engine needs and nothing more.
//!
//! # Example
//!
//! ```
//! use pperf_xml::{Element, parse};
//!
//! let mut root = Element::new("Envelope");
//! root.set_attr("xmlns", "http://schemas.xmlsoap.org/soap/envelope/");
//! root.push_child(Element::with_text("Body", "hi & bye"));
//! let text = root.to_xml();
//! let back = parse(&text).unwrap();
//! assert_eq!(back.child("Body").unwrap().text(), "hi & bye");
//! ```

mod error;
mod escape;
mod node;
mod parser;
mod writer;
pub mod xpath;

pub use error::{Error, Result};
pub use escape::{escape_attr, escape_attr_into, escape_text, escape_text_into, unescape};
pub use node::{Element, Node};
pub use parser::{parse, parse_bytes};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple_document() {
        let mut root = Element::new("a");
        root.set_attr("k", "v");
        root.push_child(Element::with_text("b", "text"));
        let s = root.to_xml();
        let parsed = parse(&s).unwrap();
        assert_eq!(parsed, root);
    }

    #[test]
    fn doc_example_compiles() {
        let mut root = Element::new("Envelope");
        root.set_attr("xmlns", "http://schemas.xmlsoap.org/soap/envelope/");
        root.push_child(Element::with_text("Body", "hi & bye"));
        let text = root.to_xml();
        let back = parse(&text).unwrap();
        assert_eq!(back.child("Body").unwrap().text(), "hi & bye");
    }
}
