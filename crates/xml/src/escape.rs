//! Entity escaping and unescaping.
//!
//! Covers the five predefined XML entities plus decimal/hex numeric character
//! references — the set SOAP payloads actually use.

use crate::error::{Error, ErrorKind, Result};
use std::borrow::Cow;

/// Escape text content: `&`, `<`, `>` are replaced by entities.
///
/// Borrows the input unchanged (no allocation at all) when nothing needs
/// escaping — the common case for performance-metric payloads.
pub fn escape_text(s: &str) -> Cow<'_, str> {
    escape_impl(s, false)
}

/// Escape an attribute value: like [`escape_text`] but also escapes `"`.
pub fn escape_attr(s: &str) -> Cow<'_, str> {
    escape_impl(s, true)
}

fn needs_escape(b: u8, attr: bool) -> bool {
    b == b'&' || b == b'<' || b == b'>' || (attr && (b == b'"' || b == b'\''))
}

fn escape_impl(s: &str, attr: bool) -> Cow<'_, str> {
    // Fast path: scan once; most payloads need no escaping and borrow.
    if !s.bytes().any(|b| needs_escape(b, attr)) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    escape_into(s, attr, &mut out);
    Cow::Owned(out)
}

/// Append the escaped form of `s` to `out`, copying clean stretches as whole
/// chunks instead of char by char.
fn escape_into(s: &str, attr: bool, out: &mut String) {
    let bytes = s.as_bytes();
    let mut clean = 0; // start of the current unescaped run
    for (i, &b) in bytes.iter().enumerate() {
        if !needs_escape(b, attr) {
            continue;
        }
        out.push_str(&s[clean..i]);
        out.push_str(match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            _ => "&apos;",
        });
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
}

/// Append the escaped form of `s` (text-content rules) to `out`.
///
/// The tree serializer and the SOAP envelope writer both escape through
/// this, so a document reads the same whichever of them wrote it.
pub fn escape_text_into(s: &str, out: &mut String) {
    escape_into(s, false, out);
}

/// Append the escaped form of `s` (attribute-value rules) to `out`.
pub fn escape_attr_into(s: &str, out: &mut String) {
    escape_into(s, true, out);
}

/// Resolve all entity references in `s`.
///
/// Supports `&amp; &lt; &gt; &quot; &apos;` and numeric references
/// (`&#NN;`, `&#xHH;`). Unknown named entities are an error: SOAP engines
/// must not silently pass through undeclared entities.
pub fn unescape(s: &str) -> Result<String> {
    if !s.contains('&') {
        return Ok(s.to_owned());
    }
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'&' {
            let semi = s[i..]
                .find(';')
                .ok_or_else(|| Error::new(i, ErrorKind::BadEntity(s[i + 1..].to_owned())))?;
            let name = &s[i + 1..i + semi];
            let replacement = resolve_entity(name)
                .ok_or_else(|| Error::new(i, ErrorKind::BadEntity(name.to_owned())))?;
            out.push(replacement);
            i += semi + 1;
        } else {
            // Push the whole UTF-8 char, not just a byte.
            let c = s[i..].chars().next().expect("in-bounds char");
            out.push(c);
            i += c.len_utf8();
        }
    }
    Ok(out)
}

fn resolve_entity(name: &str) -> Option<char> {
    match name {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        _ => {
            let code =
                if let Some(hex) = name.strip_prefix("#x").or_else(|| name.strip_prefix("#X")) {
                    u32::from_str_radix(hex, 16).ok()?
                } else if let Some(dec) = name.strip_prefix('#') {
                    dec.parse::<u32>().ok()?
                } else {
                    return None;
                };
            char::from_u32(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_basic() {
        assert_eq!(escape_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
        assert_eq!(escape_attr("say \"hi\""), "say &quot;hi&quot;");
        assert_eq!(escape_attr("it's"), "it&apos;s");
    }

    #[test]
    fn escape_noop_is_cheap() {
        assert_eq!(escape_text("plain"), "plain");
        assert_eq!(escape_attr("plain"), "plain");
        // Clean strings must borrow — no fresh String on the hot path.
        assert!(matches!(escape_text("plain metric 1.5"), Cow::Borrowed(_)));
        assert!(matches!(escape_attr("urn:pperfgrid"), Cow::Borrowed(_)));
        assert!(matches!(escape_text("a&b"), Cow::Owned(_)));
    }

    #[test]
    fn unescape_named() {
        assert_eq!(unescape("a&lt;b&amp;c&gt;d").unwrap(), "a<b&c>d");
        assert_eq!(unescape("&quot;x&apos;").unwrap(), "\"x'");
    }

    #[test]
    fn unescape_numeric() {
        assert_eq!(unescape("&#65;&#x42;").unwrap(), "AB");
        assert_eq!(unescape("&#x2603;").unwrap(), "☃");
    }

    #[test]
    fn unescape_rejects_unknown() {
        assert!(unescape("&bogus;").is_err());
        assert!(unescape("&unterminated").is_err());
        assert!(unescape("&#xZZ;").is_err());
        assert!(unescape("&#xD800;").is_err(), "surrogates are not chars");
    }

    #[test]
    fn unescape_preserves_multibyte() {
        assert_eq!(unescape("héllo &amp; wörld").unwrap(), "héllo & wörld");
    }

    #[test]
    fn roundtrip_text() {
        let cases = ["", "plain", "<>&\"'", "a&amp;b", "mixed <tag> & \"quotes\""];
        for c in cases {
            assert_eq!(unescape(&escape_text(c)).unwrap(), c);
            assert_eq!(unescape(&escape_attr(c)).unwrap(), c);
        }
    }
}
