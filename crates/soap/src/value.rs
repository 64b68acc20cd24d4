//! The RPC value model and its XML encoding.
//!
//! PPerfGrid's PortTypes (thesis Tables 1 & 2) exchange strings, string
//! arrays, and integers; doubles and booleans round out the set for metric
//! payloads. Each value is encoded as an element carrying an `xsi:type`
//! attribute, SOAP section-5 style.

use pperf_xml::{escape_text_into, Element};
use std::fmt::{self, Write as _};

/// Item count at which `Value::write_xml` switches a `StrArray` to the
/// packed length-prefixed block (one text node) instead of one `<item>`
/// element per row. Small arrays keep the classic Section-5 shape so
/// foreign decoders and existing fixtures still read them.
pub const PACK_THRESHOLD: usize = 4;

/// `xsi:type` local name of the packed string-array encoding.
const PACKED_TYPE: &str = "packedStrings";

/// Encode `items` as a length-prefixed columnar block: each item is
/// `len ':' bytes ';'`, where `len` is the item's UTF-8 byte length. The
/// length prefix makes the block self-delimiting, so rows containing `|`,
/// `:`, `;`, or newlines round-trip untouched.
pub fn pack_strs(items: &[String]) -> String {
    let mut out = String::with_capacity(items.iter().map(|s| s.len() + 8).sum());
    for item in items {
        out.push_str(&item.len().to_string());
        out.push(':');
        out.push_str(item);
        out.push(';');
    }
    out
}

/// Decode a block produced by [`pack_strs`].
pub fn unpack_strs(block: &str) -> Result<Vec<String>, ValueError> {
    let mut out = Vec::new();
    let mut rest = block;
    loop {
        rest = rest.trim_start();
        if rest.is_empty() {
            return Ok(out);
        }
        let colon = rest
            .find(':')
            .ok_or_else(|| ValueError("packed block: missing ':' after length".into()))?;
        let len: usize = rest[..colon]
            .parse()
            .map_err(|_| ValueError(format!("packed block: bad length {:?}", &rest[..colon])))?;
        let data_start = colon + 1;
        let data_end = data_start + len;
        if data_end > rest.len() {
            return Err(ValueError("packed block: truncated item".into()));
        }
        if !rest.is_char_boundary(data_end) {
            return Err(ValueError("packed block: length splits a character".into()));
        }
        out.push(rest[data_start..data_end].to_owned());
        if rest.as_bytes().get(data_end) != Some(&b';') {
            return Err(ValueError("packed block: missing ';' terminator".into()));
        }
        rest = &rest[data_end + 1..];
    }
}

/// A typed RPC value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `xsd:string`
    Str(String),
    /// `xsd:int` (64-bit on the Rust side; the wire format is just digits)
    Int(i64),
    /// `xsd:double`
    Double(f64),
    /// `xsd:boolean`
    Bool(bool),
    /// `soapenc:Array` of `xsd:string` — the workhorse of the PPerfGrid
    /// interfaces (`getExecs`, `getFoci`, `getPR`, ... all return it).
    StrArray(Vec<String>),
    /// Absence of a value (`xsi:nil`); used for void returns.
    Nil,
}

/// The wire-level type tag of a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    Str,
    Int,
    Double,
    Bool,
    StrArray,
    Nil,
}

impl ValueType {
    /// The `xsi:type` attribute value used on the wire.
    pub fn xsi_type(self) -> &'static str {
        match self {
            ValueType::Str => "xsd:string",
            ValueType::Int => "xsd:int",
            ValueType::Double => "xsd:double",
            ValueType::Bool => "xsd:boolean",
            ValueType::StrArray => "soapenc:Array",
            ValueType::Nil => "xsd:anyType",
        }
    }

    fn from_xsi(s: &str) -> Option<ValueType> {
        // Accept any prefix; match the local part, as foreign stacks pick
        // their own prefixes.
        let local = s.rsplit(':').next().unwrap_or(s);
        match local {
            "string" => Some(ValueType::Str),
            "int" | "long" | "integer" | "short" => Some(ValueType::Int),
            "double" | "float" | "decimal" => Some(ValueType::Double),
            "boolean" => Some(ValueType::Bool),
            "Array" => Some(ValueType::StrArray),
            "anyType" => Some(ValueType::Nil),
            _ => None,
        }
    }
}

/// A decode failure for a single value element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueError(pub String);

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad value: {}", self.0)
    }
}

impl std::error::Error for ValueError {}

impl Value {
    /// The type tag of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Str(_) => ValueType::Str,
            Value::Int(_) => ValueType::Int,
            Value::Double(_) => ValueType::Double,
            Value::Bool(_) => ValueType::Bool,
            Value::StrArray(_) => ValueType::StrArray,
            Value::Nil => ValueType::Nil,
        }
    }

    /// Borrow the string, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The double, if this is a `Double`.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// The boolean, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrow the array, if this is a `StrArray`.
    pub fn as_str_array(&self) -> Option<&[String]> {
        match self {
            Value::StrArray(v) => Some(v),
            _ => None,
        }
    }

    /// Take ownership of the array, if this is a `StrArray`.
    pub fn into_str_array(self) -> Option<Vec<String>> {
        match self {
            Value::StrArray(v) => Some(v),
            _ => None,
        }
    }

    /// Approximate wire payload size in bytes: the length of the encoded
    /// character data (used by the Table 4 "bytes transferred" column).
    pub fn payload_bytes(&self) -> usize {
        match self {
            Value::Str(s) => s.len(),
            Value::Int(i) => {
                let mut n = if *i < 0 { 1 } else { 0 };
                let mut v = i.unsigned_abs();
                loop {
                    n += 1;
                    v /= 10;
                    if v == 0 {
                        break;
                    }
                }
                n
            }
            Value::Double(_) => 8,
            Value::Bool(_) => 5,
            Value::StrArray(v) => v.iter().map(|s| s.len()).sum(),
            Value::Nil => 0,
        }
    }

    /// Rough byte count of this value written by [`Value::write_xml`], so
    /// a document can be allocated once instead of growing as it is written.
    pub(crate) fn xml_len_hint(&self) -> usize {
        const TAGS: usize = 96;
        match self {
            Value::StrArray(items) if items.len() >= PACK_THRESHOLD => {
                TAGS + items.iter().map(|s| s.len() + 4).sum::<usize>()
            }
            Value::StrArray(items) => TAGS + items.iter().map(|s| s.len() + 36).sum::<usize>(),
            Value::Str(s) => TAGS + s.len(),
            _ => TAGS + 24,
        }
    }

    /// Write this value as the element `<name xsi:type="…">…</name>` onto
    /// `out`. The text is what the value's decoder reads back:
    /// [`Value::from_element`] turns every value written here into an
    /// equal one (NaN into a NaN).
    pub(crate) fn write_xml(&self, name: &str, out: &mut String) {
        out.push('<');
        out.push_str(name);
        out.push_str(" xsi:type=\"");
        match self {
            Value::Str(s) => {
                open_typed(out, ValueType::Str);
                escape_text_into(s, out);
            }
            Value::Int(i) => {
                open_typed(out, ValueType::Int);
                let _ = write!(out, "{i}");
            }
            Value::Double(d) => {
                open_typed(out, ValueType::Double);
                if d.is_infinite() {
                    // `xsd:double` spells the infinities `INF` / `-INF`.
                    out.push_str(if *d > 0.0 { "INF" } else { "-INF" });
                } else {
                    // `{:?}` prints enough digits for exact f64 roundtrip,
                    // and `NaN` for NaN, which is also the `xsd:double` form.
                    let _ = write!(out, "{d:?}");
                }
            }
            Value::Bool(b) => {
                open_typed(out, ValueType::Bool);
                out.push_str(if *b { "true" } else { "false" });
            }
            Value::StrArray(items) if items.len() >= PACK_THRESHOLD => {
                // Compact columnar form: one text node for the whole array,
                // the block of [`pack_strs`] escaped item by item (its
                // lengths and separators are never markup).
                let _ = write!(out, "ppg:{PACKED_TYPE}\" count=\"{}\">", items.len());
                for item in items {
                    let _ = write!(out, "{}:", item.len());
                    escape_text_into(item, out);
                    out.push(';');
                }
            }
            Value::StrArray(items) => {
                out.push_str(ValueType::StrArray.xsi_type());
                let _ = write!(out, "\" soapenc:arrayType=\"xsd:string[{}]\"", items.len());
                if items.is_empty() {
                    out.push_str("/>");
                    return;
                }
                out.push('>');
                for item in items {
                    out.push_str("<item xsi:type=\"xsd:string\">");
                    escape_text_into(item, out);
                    out.push_str("</item>");
                }
            }
            Value::Nil => {
                out.push_str(ValueType::Nil.xsi_type());
                out.push_str("\" xsi:nil=\"true\"/>");
                return;
            }
        }
        out.push_str("</");
        out.push_str(name);
        out.push('>');
    }

    /// Decode from an element written by `Value::write_xml` (or a
    /// compatible foreign encoding).
    pub fn from_element(el: &Element) -> Result<Value, ValueError> {
        if el.attr("xsi:nil") == Some("true") {
            return Ok(Value::Nil);
        }
        if let Some(t) = el.attr("xsi:type") {
            if t.rsplit(':').next() == Some(PACKED_TYPE) {
                let items = unpack_strs(&el.text())?;
                if let Some(count) = el.attr("count") {
                    let expected: usize = count
                        .parse()
                        .map_err(|_| ValueError(format!("bad packed count {count:?}")))?;
                    if expected != items.len() {
                        return Err(ValueError(format!(
                            "packed count mismatch: declared {expected}, decoded {}",
                            items.len()
                        )));
                    }
                }
                return Ok(Value::StrArray(items));
            }
        }
        let ty = match el.attr("xsi:type") {
            Some(t) => ValueType::from_xsi(t)
                .ok_or_else(|| ValueError(format!("unknown xsi:type {t:?} on <{}>", el.name)))?,
            // Untyped elements: infer array if it has <item> children, else string.
            None => {
                if el.child("item").is_some() {
                    ValueType::StrArray
                } else {
                    ValueType::Str
                }
            }
        };
        match ty {
            ValueType::Str => Ok(Value::Str(el.text().into_owned())),
            ValueType::Int => {
                let t = el.text();
                t.trim()
                    .parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| ValueError(format!("bad int {t:?}")))
            }
            ValueType::Double => {
                let t = el.text();
                let trimmed = t.trim();
                match trimmed {
                    "NaN" => Ok(Value::Double(f64::NAN)),
                    "INF" => Ok(Value::Double(f64::INFINITY)),
                    "-INF" => Ok(Value::Double(f64::NEG_INFINITY)),
                    _ => trimmed
                        .parse::<f64>()
                        .map(Value::Double)
                        .map_err(|_| ValueError(format!("bad double {t:?}"))),
                }
            }
            ValueType::Bool => match el.text().trim() {
                "true" | "1" => Ok(Value::Bool(true)),
                "false" | "0" => Ok(Value::Bool(false)),
                other => Err(ValueError(format!("bad boolean {other:?}"))),
            },
            ValueType::StrArray => {
                let items = el
                    .children_named("item")
                    .map(|i| i.text().into_owned())
                    .collect();
                Ok(Value::StrArray(items))
            }
            ValueType::Nil => Ok(Value::Nil),
        }
    }
}

/// Finish `xsi:type="` with `ty`'s wire name and close the open tag.
fn open_typed(out: &mut String, ty: ValueType) {
    out.push_str(ty.xsi_type());
    out.push_str("\">");
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<f64> for Value {
    fn from(d: f64) -> Self {
        Value::Double(d)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<Vec<String>> for Value {
    fn from(v: Vec<String>) -> Self {
        Value::StrArray(v)
    }
}

impl From<&[&str]> for Value {
    fn from(v: &[&str]) -> Self {
        Value::StrArray(v.iter().map(|s| (*s).to_owned()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `v` written as `<name>` and parsed back into a tree.
    fn written(v: &Value, name: &str) -> Element {
        let mut out = String::new();
        v.write_xml(name, &mut out);
        pperf_xml::parse(&out).expect("written value parses")
    }

    fn roundtrip(v: Value) {
        let el = written(&v, "param");
        let back = Value::from_element(&el).unwrap();
        match (&v, &back) {
            (Value::Double(a), Value::Double(b)) if a.is_nan() => assert!(b.is_nan()),
            _ => assert_eq!(v, back),
        }
    }

    #[test]
    fn roundtrip_all_types() {
        roundtrip(Value::Str("hello | world".into()));
        roundtrip(Value::Str(String::new()));
        roundtrip(Value::Int(0));
        roundtrip(Value::Int(i64::MIN));
        roundtrip(Value::Int(i64::MAX));
        roundtrip(Value::Double(std::f64::consts::PI));
        roundtrip(Value::Double(-0.0));
        roundtrip(Value::Double(f64::NAN));
        roundtrip(Value::Double(f64::INFINITY));
        roundtrip(Value::Double(f64::NEG_INFINITY));
        roundtrip(Value::Bool(true));
        roundtrip(Value::Bool(false));
        roundtrip(Value::StrArray(vec![]));
        roundtrip(Value::StrArray(vec!["a".into(), "".into(), "c|d".into()]));
        roundtrip(Value::Nil);
    }

    #[test]
    fn foreign_prefixes_accepted() {
        let mut el = Element::with_text("p", "42");
        el.set_attr("xsi:type", "ns1:int");
        assert_eq!(Value::from_element(&el).unwrap(), Value::Int(42));
    }

    #[test]
    fn untyped_defaults_to_string() {
        let el = Element::with_text("p", "free-form");
        assert_eq!(
            Value::from_element(&el).unwrap(),
            Value::Str("free-form".into())
        );
    }

    #[test]
    fn untyped_with_items_is_array() {
        let mut el = Element::new("p");
        el.push_child(Element::with_text("item", "x"));
        assert_eq!(
            Value::from_element(&el).unwrap(),
            Value::StrArray(vec!["x".into()])
        );
    }

    #[test]
    fn bad_scalars_rejected() {
        let mut el = Element::with_text("p", "forty-two");
        el.set_attr("xsi:type", "xsd:int");
        assert!(Value::from_element(&el).is_err());
        el.set_attr("xsi:type", "xsd:double");
        assert!(Value::from_element(&el).is_err());
        el.set_attr("xsi:type", "xsd:boolean");
        assert!(Value::from_element(&el).is_err());
        el.set_attr("xsi:type", "xsd:mystery");
        assert!(Value::from_element(&el).is_err());
    }

    #[test]
    fn payload_bytes_counts_data() {
        assert_eq!(Value::Str("12345678".into()).payload_bytes(), 8);
        assert_eq!(Value::Int(-100).payload_bytes(), 4);
        assert_eq!(Value::Int(0).payload_bytes(), 1);
        assert_eq!(
            Value::StrArray(vec!["ab".into(), "cde".into()]).payload_bytes(),
            5
        );
        assert_eq!(Value::Nil.payload_bytes(), 0);
    }

    #[test]
    fn array_type_attribute_present() {
        let el = written(&Value::StrArray(vec!["a".into(), "b".into()]), "r");
        assert_eq!(el.attr("soapenc:arrayType"), Some("xsd:string[2]"));
    }

    #[test]
    fn large_arrays_use_the_packed_form() {
        let rows: Vec<String> = (0..PACK_THRESHOLD).map(|i| format!("gflops|{i}")).collect();
        let v = Value::StrArray(rows);
        let el = written(&v, "return");
        assert_eq!(el.attr("xsi:type"), Some("ppg:packedStrings"));
        assert_eq!(el.attr("count"), Some(PACK_THRESHOLD.to_string().as_str()));
        assert_eq!(el.element_count(), 0, "packed form has no <item> children");
        assert_eq!(Value::from_element(&el).unwrap(), v);
    }

    #[test]
    fn packed_roundtrips_hostile_rows_through_the_wire() {
        let rows = vec![
            "plain".to_owned(),
            String::new(),
            "semi;colon:and|pipe".to_owned(),
            "multi\nline ☃ 4:x;".to_owned(),
            "ampersand & <angle>".to_owned(),
        ];
        let v = Value::StrArray(rows);
        let wire = crate::encode_response("getPR", &v);
        assert_eq!(crate::decode_response(&wire).unwrap(), v);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let items = vec!["a".to_owned(), String::new(), "1:2;".to_owned()];
        assert_eq!(unpack_strs(&pack_strs(&items)).unwrap(), items);
        assert_eq!(unpack_strs("").unwrap(), Vec::<String>::new());
    }

    #[test]
    fn malformed_packed_blocks_rejected() {
        assert!(unpack_strs("5:ab;").is_err(), "truncated");
        assert!(unpack_strs("2:ab").is_err(), "missing terminator");
        assert!(unpack_strs("x:ab;").is_err(), "bad length");
        assert!(unpack_strs("ab;").is_err(), "no length");
        assert!(unpack_strs("1:☃;").is_err(), "length splits a char");
    }

    #[test]
    fn packed_count_mismatch_rejected() {
        let mut el = written(&Value::StrArray(vec!["a".into(); PACK_THRESHOLD]), "r");
        el.set_attr("count", "3");
        assert!(Value::from_element(&el).is_err());
    }
}
