//! HTTP request/response types and their wire codecs.

use crate::error::{HttpError, Result};
use std::io::{BufRead, Write};

/// Maximum accepted body size (64 MiB) — large enough for the SMG98 payloads,
/// small enough to bound a misbehaving peer.
pub const MAX_BODY: usize = 64 * 1024 * 1024;
/// Maximum accepted header section size.
const MAX_HEADER_BYTES: usize = 64 * 1024;

/// A case-insensitive header multimap (order-preserving).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    entries: Vec<(String, String)>,
}

impl Headers {
    /// Empty header set.
    pub fn new() -> Headers {
        Headers::default()
    }

    /// Append a header (duplicates allowed, as in HTTP).
    pub fn insert(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.entries.push((name.into(), value.into()));
    }

    /// Replace all occurrences of `name` with a single value.
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        self.entries.push((name.to_owned(), value.into()));
    }

    /// First value for `name`, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Iterate over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of header entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no headers.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// An HTTP status code with its canonical reason phrase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Status(pub u16);

impl Status {
    pub const OK: Status = Status(200);
    pub const BAD_REQUEST: Status = Status(400);
    pub const NOT_FOUND: Status = Status(404);
    pub const METHOD_NOT_ALLOWED: Status = Status(405);
    pub const PAYLOAD_TOO_LARGE: Status = Status(413);
    pub const INTERNAL_SERVER_ERROR: Status = Status(500);
    pub const SERVICE_UNAVAILABLE: Status = Status(503);

    /// Canonical reason phrase.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Whether this is a 2xx status.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }
}

/// An HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method verb (`GET`, `POST`, ...).
    pub method: String,
    /// Path component, percent-decoding not applied (SOAP paths are plain).
    pub path: String,
    /// Raw query string after `?`, or empty.
    pub query: String,
    /// Request headers.
    pub headers: Headers,
    /// Request body.
    pub body: Vec<u8>,
}

impl Request {
    /// Build a POST request.
    pub fn post(path: impl Into<String>, content_type: &str, body: Vec<u8>) -> Request {
        let mut headers = Headers::new();
        headers.set("Content-Type", content_type);
        Request {
            method: "POST".into(),
            path: path.into(),
            query: String::new(),
            headers,
            body,
        }
    }

    /// Build a GET request.
    pub fn get(path: impl Into<String>) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            query: String::new(),
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// Body interpreted as UTF-8 (lossy).
    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }

    /// Read one request from a buffered stream. `Ok(None)` means the peer
    /// closed the connection cleanly between requests (keep-alive end).
    pub fn read_from(reader: &mut impl BufRead) -> Result<Option<Request>> {
        let Some(start_line) = read_line_opt(reader)? else {
            return Ok(None);
        };
        let mut request = parse_request_line(&start_line)?;
        request.headers = read_headers(reader)?;
        request.body = read_body(reader, &request.headers, MAX_BODY)?;
        Ok(Some(request))
    }

    /// Serialize to the wire, including framing headers.
    pub fn write_to(&self, w: &mut impl Write, host: &str) -> Result<()> {
        let target = if self.query.is_empty() {
            self.path.clone()
        } else {
            format!("{}?{}", self.path, self.query)
        };
        write!(w, "{} {} HTTP/1.1\r\n", self.method, target)?;
        write!(w, "Host: {host}\r\n")?;
        write!(w, "Content-Length: {}\r\n", self.body.len())?;
        for (name, value) in self.headers.iter() {
            if name.eq_ignore_ascii_case("Content-Length") || name.eq_ignore_ascii_case("Host") {
                continue;
            }
            write!(w, "{name}: {value}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(&self.body)?;
        w.flush()?;
        Ok(())
    }

    /// Whether the client asked to close the connection after this exchange.
    pub fn wants_close(&self) -> bool {
        self.headers
            .get("Connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: Status,
    /// Response headers.
    pub headers: Headers,
    /// Response body.
    pub body: Vec<u8>,
    /// When set, the body is produced incrementally: the event loop writes
    /// chunked framing and parks the connection in push mode (see
    /// [`Response::stream`]). `body` is ignored.
    pub stream: Option<crate::stream::StreamHandle>,
}

impl Response {
    /// 200 with the given content type and body.
    pub fn ok(content_type: &str, body: Vec<u8>) -> Response {
        let mut headers = Headers::new();
        headers.set("Content-Type", content_type);
        Response {
            status: Status::OK,
            headers,
            body,
            stream: None,
        }
    }

    /// A plain-text response with an arbitrary status.
    pub fn text(status: Status, msg: impl Into<String>) -> Response {
        let mut headers = Headers::new();
        headers.set("Content-Type", "text/plain; charset=utf-8");
        Response {
            status,
            headers,
            body: msg.into().into_bytes(),
            stream: None,
        }
    }

    /// An XML response (used for SOAP payloads and WSDL documents).
    pub fn xml(status: Status, body: impl Into<String>) -> Response {
        let mut headers = Headers::new();
        headers.set("Content-Type", "text/xml; charset=utf-8");
        Response {
            status,
            headers,
            body: body.into().into_bytes(),
            stream: None,
        }
    }

    /// A 200 streaming response: the paired [`crate::StreamWriter`] feeds
    /// the body one `Transfer-Encoding: chunked` chunk per payload while
    /// the connection stays parked on the event loop. Closing the writer
    /// ends the stream cleanly and the connection serves its next
    /// keep-alive request; peer death surfaces through
    /// [`crate::StreamWriter::is_dead`].
    pub fn stream(content_type: &str) -> (Response, crate::stream::StreamWriter) {
        Response::stream_windowed(content_type, 0)
    }

    /// Like [`Response::stream`], but with a bounded in-flight window
    /// (`window_bytes`; 0 = unbounded): [`crate::StreamWriter::send_blocking`]
    /// parks the producer while `window_bytes` are queued, and the event
    /// loop stops moving payloads into a connection whose output buffer
    /// already holds that many unflushed bytes. A slow reader therefore
    /// backpressures the producer instead of ballooning server memory.
    pub fn stream_windowed(
        content_type: &str,
        window_bytes: usize,
    ) -> (Response, crate::stream::StreamWriter) {
        let (handle, writer) = crate::stream::stream_pair_windowed(window_bytes);
        let mut headers = Headers::new();
        headers.set("Content-Type", content_type);
        (
            Response {
                status: Status::OK,
                headers,
                body: Vec::new(),
                stream: Some(handle),
            },
            writer,
        )
    }

    /// Serialize the head of a streaming response: chunked framing, no
    /// `Content-Length`. The body chunks follow via the stream pump.
    pub(crate) fn write_stream_head(&self, out: &mut Vec<u8>) {
        use std::io::Write as _;
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\n",
            self.status.0,
            self.status.reason()
        );
        let _ = write!(out, "Transfer-Encoding: chunked\r\n");
        for (name, value) in self.headers.iter() {
            if name.eq_ignore_ascii_case("Content-Length")
                || name.eq_ignore_ascii_case("Transfer-Encoding")
            {
                continue;
            }
            let _ = write!(out, "{name}: {value}\r\n");
        }
        let _ = out.write_all(b"\r\n");
    }

    /// Body interpreted as UTF-8 (lossy).
    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }

    /// Read one response from a buffered stream.
    pub fn read_from(reader: &mut impl BufRead) -> Result<Response> {
        Response::read_from_limited(reader, MAX_BODY)
    }

    /// Read one response, rejecting bodies larger than `max_body` with a
    /// typed [`HttpError::BodyTooLarge`] *before* allocating — the client's
    /// guard against a misbehaving peer ballooning a consumer.
    pub fn read_from_limited(reader: &mut impl BufRead, max_body: usize) -> Result<Response> {
        let mut response = Response::read_head(reader)?;
        response.body = read_body(reader, &response.headers, max_body)?;
        Ok(response)
    }

    /// Read only the status line and headers (empty body) — the entry
    /// point for streamed bodies, which the caller consumes incrementally.
    pub(crate) fn read_head(reader: &mut impl BufRead) -> Result<Response> {
        let status_line = read_line_opt(reader)?.ok_or(HttpError::ConnectionClosed)?;
        let mut parts = status_line.splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed(format!(
                "bad status line {status_line:?}"
            )));
        }
        let code: u16 = parts
            .next()
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| HttpError::Malformed(format!("bad status line {status_line:?}")))?;
        let headers = read_headers(reader)?;
        Ok(Response {
            status: Status(code),
            headers,
            body: Vec::new(),
            stream: None,
        })
    }

    /// Whether the body uses chunked transfer-encoding (a streamed
    /// response; no `Content-Length`).
    pub fn is_chunked(&self) -> bool {
        self.headers
            .get("Transfer-Encoding")
            .is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
    }

    /// Serialize to the wire, including framing headers.
    pub fn write_to(&self, w: &mut impl Write) -> Result<()> {
        write!(w, "HTTP/1.1 {} {}\r\n", self.status.0, self.status.reason())?;
        write!(w, "Content-Length: {}\r\n", self.body.len())?;
        for (name, value) in self.headers.iter() {
            if name.eq_ignore_ascii_case("Content-Length") {
                continue;
            }
            write!(w, "{name}: {value}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(&self.body)?;
        w.flush()?;
        Ok(())
    }

    /// Serialize only the status line and headers (`Content-Length`
    /// framing). The caller then moves `body` into the connection's output
    /// buffer as its own segment, so a large buffered response reaches
    /// `writev(2)` without an intermediate copy.
    pub(crate) fn write_head(&self, out: &mut Vec<u8>) {
        use std::io::Write as _;
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\n",
            self.status.0,
            self.status.reason()
        );
        let _ = write!(out, "Content-Length: {}\r\n", self.body.len());
        for (name, value) in self.headers.iter() {
            if name.eq_ignore_ascii_case("Content-Length") {
                continue;
            }
            let _ = write!(out, "{name}: {value}\r\n");
        }
        let _ = out.write_all(b"\r\n");
    }
}

/// Parse a request line into a [`Request`] skeleton (empty headers/body).
fn parse_request_line(start_line: &str) -> Result<Request> {
    let mut parts = start_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_owned(), t.to_owned(), v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line {start_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target, String::new()),
    };
    Ok(Request {
        method,
        path,
        query,
        headers: Headers::new(),
        body: Vec::new(),
    })
}

/// Declared body length, validated against a byte limit.
pub(crate) fn body_length_limited(headers: &Headers, limit: usize) -> Result<usize> {
    let len: usize = match headers.get("Content-Length") {
        Some(v) => v
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad Content-Length {v:?}")))?,
        None => 0,
    };
    if len > limit {
        return Err(HttpError::BodyTooLarge { limit, got: len });
    }
    Ok(len)
}

/// Declared body length, validated against [`MAX_BODY`].
fn body_length(headers: &Headers) -> Result<usize> {
    body_length_limited(headers, MAX_BODY)
}

/// An incremental, resumable HTTP request parser.
///
/// The readiness-driven server cannot block on a partial message: a slow
/// client may deliver a request one byte at a time across many readiness
/// events. This parser accumulates fed bytes and yields a [`Request`] only
/// once the full message (head *and* declared body) has arrived; until then
/// every byte is retained, so a pause of any length between chunks loses
/// nothing. (The old blocking server restarted `Request::read_from` after a
/// read timeout, discarding whatever the `BufReader` had already consumed
/// and desyncing the connection — the regression tests cover that shape.)
///
/// Bytes beyond the first complete request stay buffered, which gives
/// pipelining for free: call [`RequestParser::try_next`] again to drain
/// them.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Resume offset for the head-terminator scan (no byte is scanned twice).
    scan: usize,
    /// Parsed head awaiting its body: the request skeleton plus body length.
    pending: Option<(Request, usize)>,
}

impl RequestParser {
    /// An empty parser at a message boundary.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Append bytes received from the peer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether EOF here is a clean keep-alive close (no partial message).
    pub fn is_clean_boundary(&self) -> bool {
        self.pending.is_none() && self.buf.is_empty()
    }

    /// Bytes currently buffered (partial message plus any pipelined data).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Try to complete one request from the buffered bytes. `Ok(None)` means
    /// more bytes are needed; errors are fatal to the connection.
    pub fn try_next(&mut self) -> Result<Option<Request>> {
        if self.pending.is_none() {
            let Some(head_end) = self.find_head_end()? else {
                return Ok(None);
            };
            let mut head = &self.buf[..head_end];
            let start_line = read_line_opt(&mut head)?
                .ok_or_else(|| HttpError::Malformed("empty request head".into()))?;
            let mut request = parse_request_line(&start_line)?;
            request.headers = read_headers(&mut head)?;
            let body_len = body_length(&request.headers)?;
            self.buf.drain(..head_end);
            self.scan = 0;
            self.pending = Some((request, body_len));
        }
        let (_, body_len) = self.pending.as_ref().expect("pending head");
        if self.buf.len() < *body_len {
            return Ok(None);
        }
        let (mut request, body_len) = self.pending.take().expect("pending head");
        request.body = self.buf.drain(..body_len).collect();
        Ok(Some(request))
    }

    /// Scan for the blank line ending the head; returns the offset just past
    /// it. Tolerates LF-only line endings, like the blocking reader.
    fn find_head_end(&mut self) -> Result<Option<usize>> {
        while self.scan < self.buf.len() {
            let i = self.scan;
            if self.buf[i] != b'\n' {
                self.scan += 1;
                continue;
            }
            match self.buf.get(i + 1) {
                Some(b'\n') => return Ok(Some(i + 2)),
                Some(b'\r') => match self.buf.get(i + 2) {
                    Some(b'\n') => return Ok(Some(i + 3)),
                    Some(_) => self.scan += 1,
                    // "\n\r" at the buffer edge: wait for the next byte.
                    None => return Ok(None),
                },
                Some(_) => self.scan += 1,
                // Trailing "\n" at the buffer edge: wait for the next byte.
                None => return Ok(None),
            }
        }
        // `read_headers` enforces the precise per-header limit once the head
        // completes; this bounds memory while it is still arriving.
        if self.buf.len() > MAX_HEADER_BYTES * 2 {
            return Err(HttpError::Malformed("header section too large".into()));
        }
        Ok(None)
    }
}

/// Read a CRLF- (or LF-) terminated line; `None` on clean EOF at a boundary.
fn read_line_opt(reader: &mut impl BufRead) -> Result<Option<String>> {
    let mut line = String::new();
    let n = reader.read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

fn read_headers(reader: &mut impl BufRead) -> Result<Headers> {
    let mut headers = Headers::new();
    let mut total = 0usize;
    loop {
        let line = read_line_opt(reader)?.ok_or(HttpError::ConnectionClosed)?;
        if line.is_empty() {
            return Ok(headers);
        }
        total += line.len();
        if total > MAX_HEADER_BYTES {
            return Err(HttpError::Malformed("header section too large".into()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
        headers.insert(name.trim(), value.trim());
    }
}

fn read_body(reader: &mut impl BufRead, headers: &Headers, limit: usize) -> Result<Vec<u8>> {
    let len = body_length_limited(headers, limit)?;
    let mut body = vec![0u8; len];
    let mut read = 0;
    while read < len {
        let n = std::io::Read::read(reader, &mut body[read..])?;
        if n == 0 {
            return Err(HttpError::ConnectionClosed);
        }
        read += n;
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn roundtrip_request(req: &Request) -> Request {
        let mut wire = Vec::new();
        req.write_to(&mut wire, "localhost:1").unwrap();
        Request::read_from(&mut BufReader::new(&wire[..]))
            .unwrap()
            .unwrap()
    }

    #[test]
    fn request_roundtrip() {
        let mut req = Request::post("/svc/app", "text/xml", b"<a/>".to_vec());
        req.headers.set("SOAPAction", "\"getExecs\"");
        let back = roundtrip_request(&req);
        assert_eq!(back.method, "POST");
        assert_eq!(back.path, "/svc/app");
        assert_eq!(back.body, b"<a/>");
        assert_eq!(back.headers.get("soapaction"), Some("\"getExecs\""));
        assert_eq!(back.headers.get("content-type"), Some("text/xml"));
    }

    #[test]
    fn request_query_split() {
        let mut req = Request::get("/svc/app");
        req.query = "wsdl".into();
        let back = roundtrip_request(&req);
        assert_eq!(back.path, "/svc/app");
        assert_eq!(back.query, "wsdl");
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::xml(Status::OK, "<r/>");
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();
        let back = Response::read_from(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(back.status, Status::OK);
        assert_eq!(back.body, b"<r/>");
    }

    #[test]
    fn empty_body_response() {
        let resp = Response::text(Status::NOT_FOUND, "");
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();
        let back = Response::read_from(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(back.status.0, 404);
        assert!(back.body.is_empty());
    }

    #[test]
    fn clean_eof_returns_none() {
        let empty: &[u8] = b"";
        assert!(Request::read_from(&mut BufReader::new(empty))
            .unwrap()
            .is_none());
    }

    #[test]
    fn truncated_body_is_error() {
        let wire = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(matches!(
            Request::read_from(&mut BufReader::new(&wire[..])),
            Err(HttpError::ConnectionClosed)
        ));
    }

    #[test]
    fn bad_content_length_rejected() {
        let wire = b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n";
        assert!(Request::read_from(&mut BufReader::new(&wire[..])).is_err());
    }

    #[test]
    fn oversize_body_rejected() {
        let wire = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            Request::read_from(&mut BufReader::new(wire.as_bytes())),
            Err(HttpError::BodyTooLarge { .. })
        ));
    }

    #[test]
    fn limited_body_read_is_typed_not_oom() {
        let resp = Response::ok("text/plain", vec![b'x'; 100]);
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();
        let err = Response::read_from_limited(&mut BufReader::new(&wire[..]), 50).unwrap_err();
        assert!(
            matches!(
                err,
                HttpError::BodyTooLarge {
                    limit: 50,
                    got: 100
                }
            ),
            "{err:?}"
        );
        let back = Response::read_from_limited(&mut BufReader::new(&wire[..]), 100).unwrap();
        assert_eq!(back.body.len(), 100);
    }

    #[test]
    fn chunked_detection() {
        let mut resp = Response::ok("text/plain", vec![]);
        assert!(!resp.is_chunked());
        resp.headers.set("Transfer-Encoding", "chunked");
        assert!(resp.is_chunked());
    }

    #[test]
    fn headers_case_insensitive() {
        let mut h = Headers::new();
        h.insert("Content-Type", "a");
        assert_eq!(h.get("CONTENT-TYPE"), Some("a"));
        h.set("content-type", "b");
        assert_eq!(h.get("Content-Type"), Some("b"));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn status_reasons() {
        assert_eq!(Status::OK.reason(), "OK");
        assert!(Status::OK.is_success());
        assert!(!Status::INTERNAL_SERVER_ERROR.is_success());
        assert_eq!(Status(799).reason(), "Unknown");
    }

    #[test]
    fn lf_only_lines_tolerated() {
        let wire = b"GET /x HTTP/1.1\nHost: h\n\n";
        let req = Request::read_from(&mut BufReader::new(&wire[..]))
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/x");
        assert_eq!(req.headers.get("host"), Some("h"));
    }

    #[test]
    fn incremental_parser_single_bytes() {
        // The resumable-parser property: feeding one byte at a time yields
        // exactly the same request as a single read, no matter where the
        // chunk boundaries fall.
        let mut req = Request::post("/svc/app?q=1", "text/xml", b"<body/>".to_vec());
        req.headers.set("SOAPAction", "\"op\"");
        let mut wire = Vec::new();
        req.write_to(&mut wire, "h:1").unwrap();
        let mut parser = RequestParser::new();
        for (i, byte) in wire.iter().enumerate() {
            parser.feed(std::slice::from_ref(byte));
            let parsed = parser.try_next().unwrap();
            if i + 1 < wire.len() {
                assert!(parsed.is_none(), "complete at byte {i} of {}", wire.len());
            } else {
                let back = parsed.expect("request complete at final byte");
                assert_eq!(back.method, "POST");
                assert_eq!(back.path, "/svc/app");
                assert_eq!(back.body, b"<body/>");
                assert!(parser.is_clean_boundary());
            }
        }
    }

    #[test]
    fn incremental_parser_pipelined_requests() {
        let mut wire = Vec::new();
        Request::post("/a", "text/plain", b"one".to_vec())
            .write_to(&mut wire, "h:1")
            .unwrap();
        Request::post("/b", "text/plain", b"two".to_vec())
            .write_to(&mut wire, "h:1")
            .unwrap();
        let mut parser = RequestParser::new();
        parser.feed(&wire);
        let first = parser.try_next().unwrap().expect("first request");
        assert_eq!(first.path, "/a");
        assert_eq!(first.body, b"one");
        assert!(!parser.is_clean_boundary(), "second request still buffered");
        let second = parser.try_next().unwrap().expect("second request");
        assert_eq!(second.path, "/b");
        assert_eq!(second.body, b"two");
        assert!(parser.is_clean_boundary());
        assert!(parser.try_next().unwrap().is_none());
    }

    #[test]
    fn incremental_parser_rejects_oversize_body() {
        let mut parser = RequestParser::new();
        parser.feed(
            format!(
                "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY + 1
            )
            .as_bytes(),
        );
        assert!(matches!(
            parser.try_next(),
            Err(HttpError::BodyTooLarge { .. })
        ));
    }

    #[test]
    fn incremental_parser_rejects_unbounded_head() {
        let mut parser = RequestParser::new();
        parser.feed(b"POST / HTTP/1.1\r\n");
        let filler = vec![b'a'; 8 * 1024];
        loop {
            parser.feed(&filler); // header line that never terminates
            match parser.try_next() {
                Ok(None) => continue,
                Err(HttpError::Malformed(m)) => {
                    assert!(m.contains("header"), "{m}");
                    break;
                }
                other => panic!("expected header-size error, got {other:?}"),
            }
        }
    }

    #[test]
    fn incremental_parser_lf_only_and_split_terminator() {
        // LF-only framing, with the "\n\r" of a CRLF terminator split across
        // feeds — the edge the scanner must not mis-consume.
        let mut parser = RequestParser::new();
        parser.feed(b"GET /x HTTP/1.1\nHost: h\n\r");
        assert!(parser.try_next().unwrap().is_none());
        parser.feed(b"\n");
        let req = parser.try_next().unwrap().expect("complete");
        assert_eq!(req.path, "/x");
        assert_eq!(req.headers.get("host"), Some("h"));
    }

    #[test]
    fn wants_close_detection() {
        let mut req = Request::get("/");
        assert!(!req.wants_close());
        req.headers.set("Connection", "close");
        assert!(req.wants_close());
        req.headers.set("Connection", "keep-alive");
        assert!(!req.wants_close());
    }
}
