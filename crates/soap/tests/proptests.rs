//! Property tests: the SOAP codec is lossless for every value the PortTypes
//! can carry, the decoders never panic on arbitrary input, and the envelope
//! writer emits byte for byte the document a tree serializer would.

use pperf_soap::{
    decode_binary_batch_call, decode_binary_event, decode_binary_segment, decode_call,
    decode_call_with_context, decode_response, encode_binary_batch_call, encode_call,
    encode_call_with_context, encode_fault, encode_response, pack_strs, unpack_strs, BatchEntry,
    Fault, FaultCode, SoapError, Value, WireError, CONTEXT_NS, PACK_THRESHOLD, SOAP_ENV_NS, XSD_NS,
    XSI_NS,
};
use pperf_xml::Element;
use ppg_context::CallContext;
use proptest::prelude::*;
use std::time::Duration;

/// The tree-built documents the envelope writer must reproduce byte for
/// byte: every element built as an [`Element`], then serialized.
mod reference {
    use super::*;

    pub fn value(v: &Value, name: &str) -> Element {
        let mut el = Element::new(name);
        el.set_attr("xsi:type", v.value_type().xsi_type());
        match v {
            Value::Str(s) => {
                el.push_text(s.clone());
            }
            Value::Int(i) => {
                el.push_text(i.to_string());
            }
            Value::Double(d) if d.is_infinite() => {
                el.push_text(if *d > 0.0 { "INF" } else { "-INF" });
            }
            Value::Double(d) => {
                el.push_text(format!("{d:?}"));
            }
            Value::Bool(b) => {
                el.push_text(if *b { "true" } else { "false" });
            }
            Value::StrArray(items) if items.len() >= PACK_THRESHOLD => {
                el.set_attr("xsi:type", "ppg:packedStrings");
                el.set_attr("count", items.len().to_string());
                el.push_raw_text(pack_strs(items));
            }
            Value::StrArray(items) => {
                el.set_attr("soapenc:arrayType", format!("xsd:string[{}]", items.len()));
                for item in items {
                    let mut it = Element::new("item");
                    it.set_attr("xsi:type", "xsd:string");
                    it.push_text(item.clone());
                    el.push_child(it);
                }
            }
            Value::Nil => {
                el.set_attr("xsi:nil", "true");
            }
        }
        el
    }

    fn document(payload: Element, header_entry: Option<Element>) -> String {
        let mut env = Element::new("soap:Envelope");
        env.set_attr("xmlns:soap", SOAP_ENV_NS);
        env.set_attr("xmlns:xsd", XSD_NS);
        env.set_attr("xmlns:xsi", XSI_NS);
        env.set_attr("xmlns:soapenc", "http://schemas.xmlsoap.org/soap/encoding/");
        if let Some(entry) = header_entry {
            let mut header = Element::new("soap:Header");
            header.push_child(entry);
            env.push_child(header);
        }
        let mut body = Element::new("soap:Body");
        body.push_child(payload);
        env.push_child(body);
        env.to_document()
    }

    fn call_element(method: &str, namespace: &str, params: &[(&str, Value)]) -> Element {
        let mut call = Element::new(format!("m:{method}"));
        call.set_attr("xmlns:m", namespace);
        for (name, v) in params {
            call.push_child(value(v, name));
        }
        call
    }

    pub fn call(method: &str, namespace: &str, params: &[(&str, Value)]) -> String {
        document(call_element(method, namespace, params), None)
    }

    /// The context block with `deadline_ms` given rather than read from a
    /// clock, so the reference does not race the writer across a
    /// millisecond boundary.
    pub fn call_with_context(
        method: &str,
        namespace: &str,
        params: &[(&str, Value)],
        ctx: &CallContext,
        deadline_ms: Option<u64>,
    ) -> String {
        let mut block = Element::new("ppg:CallContext");
        block.set_attr("xmlns:ppg", CONTEXT_NS);
        block.push_child(Element::with_text("requestId", ctx.request_id()));
        if let Some(ms) = deadline_ms {
            block.push_child(Element::with_text("deadlineMs", ms.to_string()));
        }
        if !ctx.leg_tag().is_empty() {
            block.push_child(Element::with_text("leg", ctx.leg_tag()));
        }
        document(call_element(method, namespace, params), Some(block))
    }

    pub fn response(method: &str, ret: &Value) -> String {
        let mut resp = Element::new(format!("m:{method}Response"));
        resp.push_child(value(ret, "return"));
        document(resp, None)
    }

    pub fn fault(f: &Fault) -> String {
        let code = match f.code {
            FaultCode::VersionMismatch => "soap:VersionMismatch",
            FaultCode::MustUnderstand => "soap:MustUnderstand",
            FaultCode::Client => "soap:Client",
            FaultCode::Server => "soap:Server",
        };
        let mut el = Element::new("soap:Fault");
        el.push_child(Element::with_text("faultcode", code));
        el.push_child(Element::with_text("faultstring", f.string.clone()));
        if let Some(d) = &f.detail {
            el.push_child(Element::with_text("detail", d.clone()));
        }
        document(el, None)
    }
}

/// The `<deadlineMs>` the writer put in `wire`, if any.
fn written_deadline_ms(wire: &str) -> Option<u64> {
    let start = wire.find("<deadlineMs>")? + "<deadlineMs>".len();
    let end = start + wire[start..].find('<')?;
    Some(wire[start..end].parse().expect("numeric deadline"))
}

/// Assert every document the writer produces for these inputs equals the
/// tree-built reference, and that the call forms decode back to `params`.
fn assert_writer_matches_reference(
    method: &str,
    namespace: &str,
    params: &[(&str, Value)],
    ctx: &CallContext,
) {
    let wire = encode_call(method, namespace, params);
    assert_eq!(wire, reference::call(method, namespace, params));

    let wire = encode_call_with_context(method, namespace, params, ctx);
    let ms = written_deadline_ms(&wire);
    assert_eq!(ms.is_some(), ctx.deadline().is_some(), "{wire}");
    assert_eq!(
        wire,
        reference::call_with_context(method, namespace, params, ctx, ms)
    );
    let (call, back) = decode_call_with_context(&wire).expect("own encoding must decode");
    assert_eq!(call.method, method);
    assert_eq!(call.namespace.as_deref(), Some(namespace));
    assert_eq!(call.params.len(), params.len());
    let back = back.expect("context block present");
    if !ctx.request_id().is_empty() {
        // An empty id reads back as a fresh one (`CallContext::from_wire`).
        assert_eq!(back.request_id(), ctx.request_id());
    }
    assert_eq!(back.leg_tag(), ctx.leg_tag());

    for (_, v) in params {
        assert_eq!(encode_response(method, v), reference::response(method, v));
    }
    let fault = match params.first() {
        Some((_, Value::Str(s))) => Fault::client(s.clone()).with_detail(namespace),
        _ => Fault::server(namespace),
    };
    assert_eq!(encode_fault(&fault), reference::fault(&fault));
}

/// Strings dense in what escaping and packing have to get right.
fn markup_string() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[&<>\"';:|0-9a-z é☃\n]{0,16}").unwrap()
}

fn markup_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        markup_string().prop_map(Value::Str),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Double),
        any::<bool>().prop_map(Value::Bool),
        proptest::collection::vec(markup_string(), 0..7).prop_map(Value::StrArray),
        Just(Value::Nil),
    ]
}

#[test]
fn writer_matches_tree_reference_on_edge_cases() {
    let hostile = "& < > \" ' é ☃";
    let arrays = [0usize, 3, 4, 5].map(|n| {
        Value::StrArray(
            (0..n)
                .map(|i| match i % 3 {
                    0 => hostile.to_owned(),
                    1 => String::new(),
                    _ => format!("<row {i}>|a&b;4:x;"),
                })
                .collect(),
        )
    });
    let mut params: Vec<(&str, Value)> = vec![
        ("s", Value::from(hostile)),
        ("empty", Value::from("")),
        ("unicode", Value::from("Zürich ☃ 日本")),
        ("nil", Value::Nil),
        ("min", Value::Int(i64::MIN)),
        ("max", Value::Int(i64::MAX)),
        ("nan", Value::Double(f64::NAN)),
        ("negzero", Value::Double(-0.0)),
        ("inf", Value::Double(f64::INFINITY)),
        ("neginf", Value::Double(f64::NEG_INFINITY)),
        ("pi", Value::Double(std::f64::consts::PI)),
        ("yes", Value::Bool(true)),
    ];
    params.extend(arrays.iter().map(|a| ("rows", a.clone())));
    let contexts = [
        CallContext::with_request_id(hostile),
        CallContext::with_request_id("").leg("t1.a0", 0),
        CallContext::with_budget(Duration::from_secs(30)).leg(format!("<{hostile}>"), 1),
    ];
    for ctx in &contexts {
        assert_writer_matches_reference("getPR", "urn:pperfgrid:Execution", &params, ctx);
        assert_writer_matches_reference("getNumExecs", hostile, &[], ctx);
        for (name, v) in &params {
            assert_writer_matches_reference("m", "urn:x", &[(name, v.clone())], ctx);
        }
    }
    for code in [
        FaultCode::VersionMismatch,
        FaultCode::MustUnderstand,
        FaultCode::Client,
        FaultCode::Server,
    ] {
        for detail in [None, Some(String::new()), Some(hostile.to_owned())] {
            let f = Fault {
                code,
                string: hostile.to_owned(),
                detail,
            };
            assert_eq!(encode_fault(&f), reference::fault(&f));
        }
    }
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        proptest::string::string_regex("\\PC{0,60}")
            .unwrap()
            .prop_map(Value::Str),
        any::<i64>().prop_map(Value::Int),
        // Finite doubles only: NaN breaks equality, covered by a unit test.
        proptest::num::f64::NORMAL.prop_map(Value::Double),
        any::<bool>().prop_map(Value::Bool),
        proptest::collection::vec(proptest::string::string_regex("\\PC{0,40}").unwrap(), 0..8)
            .prop_map(Value::StrArray),
        Just(Value::Nil),
    ]
}

fn method_strategy() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_]{0,20}"
}

proptest! {
    #[test]
    fn call_roundtrip(
        method in method_strategy(),
        params in proptest::collection::vec(("[a-zA-Z][a-zA-Z0-9]{0,12}", value_strategy()), 0..6),
    ) {
        let borrowed: Vec<(&str, Value)> =
            params.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
        let wire = encode_call(&method, "urn:test", &borrowed);
        let call = decode_call(&wire).expect("own encoding must decode");
        prop_assert_eq!(&call.method, &method);
        prop_assert_eq!(call.params.len(), params.len());
        for ((name, value), (dn, dv)) in params.iter().zip(&call.params) {
            prop_assert_eq!(name, dn);
            prop_assert_eq!(value, dv);
        }
    }

    #[test]
    fn response_roundtrip(method in method_strategy(), value in value_strategy()) {
        let wire = encode_response(&method, &value);
        let decoded = decode_response(&wire).expect("own encoding must decode");
        prop_assert_eq!(decoded, value);
    }

    #[test]
    fn fault_roundtrip(msg in "\\PC{0,60}", detail in proptest::option::of("\\PC{0,60}")) {
        let mut fault = Fault::server(msg.clone());
        if let Some(d) = &detail {
            fault = fault.with_detail(d.clone());
        }
        let wire = encode_fault(&fault);
        match decode_response(&wire) {
            Err(SoapError::Fault(f)) => {
                prop_assert_eq!(f.string, msg);
                prop_assert_eq!(f.detail, detail);
            }
            other => prop_assert!(false, "expected fault, got {:?}", other),
        }
    }

    #[test]
    fn decoders_never_panic(input in "\\PC{0,300}") {
        let _ = decode_call(&input);
        let _ = decode_response(&input);
    }

    #[test]
    fn packed_codec_roundtrip(
        items in proptest::collection::vec(proptest::string::string_regex("\\PC{0,40}").unwrap(), 0..24),
    ) {
        prop_assert_eq!(unpack_strs(&pack_strs(&items)).unwrap(), items.clone());
        // And through the full wire path, where arrays at/above the pack
        // threshold take the columnar form.
        let wire = encode_response("getPR", &Value::StrArray(items.clone()));
        prop_assert_eq!(decode_response(&wire).unwrap(), Value::StrArray(items));
    }

    #[test]
    fn unpack_never_panics(input in "\\PC{0,200}") {
        let _ = unpack_strs(&input);
    }

    #[test]
    fn ppgb_call_roundtrip_byte_identical(
        entries in proptest::collection::vec(
            (
                "[a-zA-Z0-9/_-]{1,40}",
                method_strategy(),
                proptest::option::of("[a-z:]{1,20}"),
                proptest::collection::vec(("[a-zA-Z][a-zA-Z0-9]{0,12}", value_strategy()), 0..4),
            ),
            0..6,
        ),
    ) {
        let built: Vec<BatchEntry> = entries
            .iter()
            .map(|(path, method, ns, params)| BatchEntry {
                path: format!("/{path}"),
                method: method.clone(),
                namespace: ns.clone(),
                params: params.clone(),
            })
            .collect();
        let frame = encode_binary_batch_call(&built, None);
        let (decoded, ctx) = decode_binary_batch_call(&frame).expect("own encoding must decode");
        prop_assert_eq!(&decoded, &built);
        prop_assert!(ctx.is_none());
        // The codec is canonical: re-encoding the decoded envelope yields
        // the original frame byte for byte.
        prop_assert_eq!(encode_binary_batch_call(&decoded, None), frame);
    }

    #[test]
    fn ppgb_truncation_yields_typed_error(
        params in proptest::collection::vec(("[a-z]{1,8}", value_strategy()), 1..6),
        cut_seed in any::<u64>(),
    ) {
        let borrowed: Vec<(&str, Value)> =
            params.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
        let entry = BatchEntry::new("/x", "getPR", "urn:test", &borrowed);
        let frame = encode_binary_batch_call(&[entry], None);
        let cut = (cut_seed % frame.len() as u64) as usize;
        match decode_binary_batch_call(&frame[..cut]) {
            Ok(_) => prop_assert!(false, "truncated frame decoded"),
            Err(e) => prop_assert!(e.is_corrupt(), "truncation must be corrupt, got {:?}", e),
        }
    }

    #[test]
    fn ppgb_bit_flips_never_panic(
        entries in proptest::collection::vec(
            ("[a-zA-Z0-9/_-]{1,30}", method_strategy()),
            1..4,
        ),
        flip_seed in any::<u64>(),
    ) {
        let built: Vec<BatchEntry> = entries
            .iter()
            .map(|(path, method)| BatchEntry {
                path: format!("/{path}"),
                method: method.clone(),
                namespace: None,
                params: vec![],
            })
            .collect();
        let mut frame = encode_binary_batch_call(&built, None);
        let i = (flip_seed % frame.len() as u64) as usize;
        frame[i] ^= 1 << ((flip_seed >> 32) % 8);
        // The flip may still decode (a length byte that stays consistent, a
        // character swap); what it must never do is panic or allocate wild.
        match decode_binary_batch_call(&frame) {
            Ok(_) => {}
            Err(WireError::Fault(_)) => {} // kind byte flipped to 3
            Err(e) => prop_assert!(e.is_corrupt()),
        }
    }

    #[test]
    fn ppgb_decoders_never_panic(input in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_binary_batch_call(&input);
        let _ = decode_binary_event(&input);
        let _ = decode_binary_segment(&input);
    }

    #[test]
    fn writer_matches_tree_reference(
        method in method_strategy(),
        namespace in markup_string(),
        params in proptest::collection::vec(("[a-zA-Z][a-zA-Z0-9]{0,12}", markup_value()), 0..6),
        request_id in markup_string(),
        leg in proptest::option::of(markup_string()),
        budget_ms in proptest::option::of(1u64..100_000),
    ) {
        let borrowed: Vec<(&str, Value)> =
            params.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
        let mut ctx = match budget_ms {
            Some(ms) => CallContext::with_budget(Duration::from_millis(ms)),
            None => CallContext::with_request_id(request_id.clone()),
        };
        if let Some(tag) = leg {
            ctx = ctx.leg(tag, 1);
        }
        assert_writer_matches_reference(&method, &namespace, &borrowed, &ctx);
    }

    #[test]
    fn doubles_roundtrip_exactly(d in any::<f64>()) {
        let wire = encode_response("m", &Value::Double(d));
        match decode_response(&wire).unwrap() {
            Value::Double(back) => {
                if d.is_nan() {
                    prop_assert!(back.is_nan());
                } else {
                    prop_assert_eq!(back, d);
                }
            }
            other => prop_assert!(false, "expected double, got {:?}", other),
        }
    }
}
