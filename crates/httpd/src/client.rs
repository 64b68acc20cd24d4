//! Keep-alive HTTP client with per-authority connection pooling.

use crate::error::{HttpError, Result};
use crate::message::{body_length_limited, Headers, Request, Response, Status, MAX_BODY};
use crate::url::Url;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// An exchange failure, tagged with whether any request byte may already
/// have reached the wire — the fact that decides retry safety.
struct ExchangeError {
    /// At least one request byte was (or may have been) flushed; the server
    /// may have executed the request even though no response arrived.
    wrote: bool,
    error: HttpError,
}

/// One pooled connection.
struct PooledConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// Serialization buffer, reused across exchanges on this connection so a
    /// busy keep-alive stream doesn't reallocate per request.
    wire: Vec<u8>,
}

impl PooledConn {
    /// Connect to `authority`, trying every resolved address before giving
    /// up (a host with a dead A record and a live one must still connect).
    fn connect(authority: &str, timeout: Duration) -> Result<PooledConn> {
        let addrs: Vec<_> = std::net::ToSocketAddrs::to_socket_addrs(authority)
            .map_err(HttpError::Io)?
            .collect();
        if addrs.is_empty() {
            return Err(HttpError::BadUrl(format!("{authority:?} did not resolve")));
        }
        let mut last_err: Option<std::io::Error> = None;
        for addr in &addrs {
            match TcpStream::connect_timeout(addr, timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    return Ok(PooledConn {
                        reader: BufReader::new(stream.try_clone()?),
                        stream,
                        wire: Vec::new(),
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(HttpError::Io(last_err.expect("at least one address tried")))
    }

    /// Cheap liveness probe for a pooled connection: a non-blocking peek.
    /// `WouldBlock` means the peer is quiet but connected; EOF means it
    /// closed (server restart); stray bytes mean the stream is desynced.
    /// Crucially, the probe itself sends nothing.
    fn is_stale(&mut self) -> bool {
        if !self.reader.buffer().is_empty() {
            return true; // leftover unread bytes: desynced
        }
        if self.stream.set_nonblocking(true).is_err() {
            return true;
        }
        let mut byte = [0u8; 1];
        let stale = match self.stream.peek(&mut byte) {
            Ok(0) => true, // EOF
            Ok(_) => true, // unsolicited bytes: desynced
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
            Err(_) => true,
        };
        if self.stream.set_nonblocking(false).is_err() {
            return true;
        }
        stale
    }

    /// Serialize and flush one request. The request is written with an
    /// explicit count, so a failure can be classified as before-any-byte
    /// (retry-safe) or after (ambiguous).
    fn write_request(
        &mut self,
        request: &Request,
        host: &str,
    ) -> std::result::Result<(), ExchangeError> {
        self.wire.clear();
        request
            .write_to(&mut self.wire, host)
            .expect("serializing to a Vec cannot fail");
        let wire = &self.wire;
        let mut written = 0usize;
        while written < wire.len() {
            match self.stream.write(&wire[written..]) {
                Ok(0) => {
                    return Err(ExchangeError {
                        wrote: written > 0,
                        error: HttpError::ConnectionClosed,
                    })
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Err(ExchangeError {
                        wrote: written > 0,
                        error: HttpError::Io(e),
                    })
                }
            }
        }
        Ok(())
    }

    /// One request/response exchange, bounding the response body at
    /// `max_body` bytes.
    fn exchange(
        &mut self,
        request: &Request,
        host: &str,
        max_body: usize,
    ) -> std::result::Result<Response, ExchangeError> {
        self.write_request(request, host)?;
        Response::read_from_limited(&mut self.reader, max_body)
            .map_err(|error| ExchangeError { wrote: true, error })
    }

    /// Like [`PooledConn::exchange`], but gives up once `deadline` passes:
    /// the socket read timeout is set to the remaining budget for the
    /// duration of the exchange and cleared again on success (the timeout is
    /// a socket option, so it would otherwise leak into later requests on
    /// this pooled connection).
    fn exchange_with_deadline(
        &mut self,
        request: &Request,
        host: &str,
        deadline: Option<Instant>,
        max_body: usize,
    ) -> std::result::Result<Response, ExchangeError> {
        let Some(deadline) = deadline else {
            return self.exchange(request, host, max_body);
        };
        self.arm_deadline(deadline)?;
        let result = self.exchange(request, host, max_body);
        if result.is_ok() {
            let _ = self.stream.set_read_timeout(None);
        }
        result
    }

    /// Set the socket read timeout to the budget remaining before
    /// `deadline`, failing fast if it has already passed.
    fn arm_deadline(&mut self, deadline: Instant) -> std::result::Result<(), ExchangeError> {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(ExchangeError {
                wrote: false,
                error: HttpError::TimedOut,
            });
        }
        if let Err(e) = self.stream.set_read_timeout(Some(remaining)) {
            return Err(ExchangeError {
                wrote: false,
                error: HttpError::Io(e),
            });
        }
        Ok(())
    }
}

/// Does this exchange failure look like the socket read timeout firing?
fn read_timed_out(error: &HttpError) -> bool {
    matches!(
        error,
        HttpError::Io(e) if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        )
    )
}

/// A blocking HTTP client.
///
/// Connections are pooled per `host:port` and reused across requests (HTTP
/// keep-alive), which matters for the overhead experiment: without reuse,
/// TCP connection setup would dominate the measured SOAP overhead and
/// distort the Table 4 shape.
///
/// Retry discipline (the at-most-once guarantee): a pooled connection is
/// probed before use, and a request is re-sent on a fresh connection only
/// when the failure *provably* happened before any request byte was
/// flushed. Once a byte may have reached the server, a failed exchange
/// surfaces as [`HttpError::ResponseLost`] instead of being retried —
/// silently re-sending could re-execute a non-idempotent SOAP call such as
/// `createService`. One stale pooled connection condemns every pooled
/// connection for that authority (a server restart kills them all at once),
/// so later requests skip straight to a fresh connect instead of each
/// paying a failed exchange.
pub struct HttpClient {
    pool: Mutex<HashMap<String, Vec<PooledConn>>>,
    connect_timeout: Duration,
    /// Largest buffered response body this client will accept; beyond it a
    /// typed [`HttpError::BodyTooLarge`] surfaces instead of an unbounded
    /// allocation. Streamed (chunked) reads are exempt by construction —
    /// they never hold more than one read buffer.
    max_body_bytes: usize,
    /// Request payload bytes flushed (bodies only, headers excluded) — the
    /// bytes-on-wire metric the codec benchmarks compare.
    bytes_sent: AtomicU64,
    /// Response payload bytes received (bodies only).
    bytes_received: AtomicU64,
    /// TCP connections this client opened (pooled reuse opens none).
    connections_opened: AtomicU64,
}

impl Default for HttpClient {
    fn default() -> Self {
        Self::new()
    }
}

impl HttpClient {
    /// A client with a 10-second connect timeout.
    pub fn new() -> HttpClient {
        Self::with_connect_timeout(Duration::from_secs(10))
    }

    /// Override the connect timeout.
    pub fn with_connect_timeout(timeout: Duration) -> HttpClient {
        HttpClient {
            pool: Mutex::new(HashMap::new()),
            connect_timeout: timeout,
            max_body_bytes: MAX_BODY,
            bytes_sent: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
            connections_opened: AtomicU64::new(0),
        }
    }

    /// Cap buffered response bodies at `bytes` (default 64 MiB, `MAX_BODY`).
    pub fn with_max_body_bytes(mut self, bytes: usize) -> HttpClient {
        self.max_body_bytes = bytes;
        self
    }

    /// `(request payload bytes sent, response payload bytes received)` over
    /// this client's lifetime. Bodies only — header overhead is roughly
    /// codec-independent, and the benchmarks compare codec payloads.
    pub fn payload_bytes(&self) -> (u64, u64) {
        (
            self.bytes_sent.load(Ordering::Relaxed),
            self.bytes_received.load(Ordering::Relaxed),
        )
    }

    /// TCP connections opened over this client's lifetime. A request that
    /// reuses a pooled keep-alive connection (buffered or streamed) opens
    /// none, so this answers "did that exchange reconnect".
    pub fn connections_opened(&self) -> u64 {
        self.connections_opened.load(Ordering::Relaxed)
    }

    /// POST `body` to `url`.
    pub fn post(&self, url: &str, content_type: &str, body: Vec<u8>) -> Result<Response> {
        let url = Url::parse(url)?;
        let mut request = Request::post(url.path.clone(), content_type, body);
        request.query = url.query.clone();
        self.send(&url, &request)
    }

    /// GET `url`.
    pub fn get(&self, url: &str) -> Result<Response> {
        let url = Url::parse(url)?;
        let mut request = Request::get(url.path.clone());
        request.query = url.query.clone();
        self.send(&url, &request)
    }

    /// Send a prebuilt request to a parsed URL.
    pub fn send(&self, url: &Url, request: &Request) -> Result<Response> {
        self.send_with_deadline(url, request, None)
    }

    /// Send a prebuilt request, giving up with [`HttpError::TimedOut`] once
    /// `deadline` passes. A timed-out connection is dropped rather than
    /// pooled: its late response would desync the keep-alive stream.
    pub fn send_with_deadline(
        &self,
        url: &Url,
        request: &Request,
        deadline: Option<Instant>,
    ) -> Result<Response> {
        let authority = url.authority();
        if matches!(deadline, Some(d) if Instant::now() >= d) {
            return Err(HttpError::TimedOut);
        }
        if let Some(mut conn) = self.checkout(&authority) {
            if conn.is_stale() {
                // A server restart kills every pooled connection to this
                // authority at once; drain them so subsequent requests go
                // straight to a fresh connect.
                self.drain(&authority);
            } else {
                match conn.exchange_with_deadline(
                    request,
                    &authority,
                    deadline,
                    self.max_body_bytes,
                ) {
                    Ok(resp) => {
                        self.count_payload(request, &resp);
                        self.checkin(&authority, conn);
                        return Ok(resp);
                    }
                    Err(ExchangeError {
                        error: HttpError::TimedOut,
                        ..
                    }) => {
                        return Err(HttpError::TimedOut);
                    }
                    Err(failure) if deadline.is_some() && read_timed_out(&failure.error) => {
                        return Err(HttpError::TimedOut);
                    }
                    Err(ExchangeError {
                        error: error @ HttpError::BodyTooLarge { .. },
                        ..
                    }) => {
                        // The head arrived fine; the body is just over the
                        // cap. Surface it typed (the conn is dropped — its
                        // unread body would desync a keep-alive stream).
                        return Err(error);
                    }
                    Err(failure) if !failure.wrote => {
                        // Nothing reached the wire: retrying on a fresh
                        // connection cannot double-execute anything.
                        self.drain(&authority);
                    }
                    Err(failure) => return Err(HttpError::ResponseLost(Box::new(failure.error))),
                }
            }
        }
        let mut conn = self.open(&authority, deadline)?;
        match conn.exchange_with_deadline(request, &authority, deadline, self.max_body_bytes) {
            Ok(resp) => {
                self.count_payload(request, &resp);
                self.checkin(&authority, conn);
                Ok(resp)
            }
            Err(ExchangeError {
                error: HttpError::TimedOut,
                ..
            }) => Err(HttpError::TimedOut),
            Err(failure) if deadline.is_some() && read_timed_out(&failure.error) => {
                Err(HttpError::TimedOut)
            }
            Err(ExchangeError {
                error: error @ HttpError::BodyTooLarge { .. },
                ..
            }) => Err(error),
            Err(failure) if !failure.wrote => Err(failure.error),
            Err(failure) => Err(HttpError::ResponseLost(Box::new(failure.error))),
        }
    }

    /// Send a prebuilt request and hand back the response with its body
    /// *unread*: the caller consumes it incrementally through
    /// [`StreamingResponse::read_data`], so no layer ever buffers more than
    /// its own read window. This is the receive half of the streamed data
    /// path — a chunked peer is decoded chunk by chunk; a buffered peer
    /// (legacy, fault, downgrade) can be collected with
    /// [`StreamingResponse::into_buffered`].
    ///
    /// Retry discipline matches [`HttpClient::send_with_deadline`]: a
    /// failure is retried on a fresh connection only when provably no
    /// request byte reached the wire.
    pub fn send_streaming(
        &self,
        url: &Url,
        request: &Request,
        deadline: Option<Instant>,
    ) -> Result<StreamingResponse<'_>> {
        let authority = url.authority();
        if matches!(deadline, Some(d) if Instant::now() >= d) {
            return Err(HttpError::TimedOut);
        }
        if let Some(mut conn) = self.checkout(&authority) {
            if conn.is_stale() {
                self.drain(&authority);
            } else {
                match self.start_stream(conn, request, &authority, deadline) {
                    Ok(streaming) => return Ok(streaming),
                    Err(ExchangeError {
                        error: HttpError::TimedOut,
                        ..
                    }) => return Err(HttpError::TimedOut),
                    Err(failure) if deadline.is_some() && read_timed_out(&failure.error) => {
                        return Err(HttpError::TimedOut);
                    }
                    Err(failure) if !failure.wrote => self.drain(&authority),
                    Err(failure) => return Err(HttpError::ResponseLost(Box::new(failure.error))),
                }
            }
        }
        let conn = self.open(&authority, deadline)?;
        match self.start_stream(conn, request, &authority, deadline) {
            Ok(streaming) => Ok(streaming),
            Err(ExchangeError {
                error: HttpError::TimedOut,
                ..
            }) => Err(HttpError::TimedOut),
            Err(failure) if deadline.is_some() && read_timed_out(&failure.error) => {
                Err(HttpError::TimedOut)
            }
            Err(failure) if !failure.wrote => Err(failure.error),
            Err(failure) => Err(HttpError::ResponseLost(Box::new(failure.error))),
        }
    }

    /// Write the request on `conn` and read the response head, leaving the
    /// body on the wire for incremental consumption.
    fn start_stream<'a>(
        &'a self,
        mut conn: PooledConn,
        request: &Request,
        authority: &str,
        deadline: Option<Instant>,
    ) -> std::result::Result<StreamingResponse<'a>, ExchangeError> {
        if let Some(deadline) = deadline {
            conn.arm_deadline(deadline)?;
        }
        conn.write_request(request, authority)?;
        self.bytes_sent
            .fetch_add(request.body.len() as u64, Ordering::Relaxed);
        let head = Response::read_head(&mut conn.reader)
            .map_err(|error| ExchangeError { wrote: true, error })?;
        let state = if head.is_chunked() {
            BodyState::Chunked { remaining: 0 }
        } else {
            let len = body_length_limited(&head.headers, self.max_body_bytes)
                .map_err(|error| ExchangeError { wrote: true, error })?;
            BodyState::Sized { remaining: len }
        };
        Ok(StreamingResponse {
            client: self,
            authority: authority.to_owned(),
            conn: Some(conn),
            status: head.status,
            headers: head.headers,
            state,
            finished: false,
            bytes: 0,
        })
    }

    fn count_payload(&self, request: &Request, response: &Response) {
        self.bytes_sent
            .fetch_add(request.body.len() as u64, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(response.body.len() as u64, Ordering::Relaxed);
    }

    /// Open a fresh connection to `authority`, within what is left of
    /// `deadline` when one is set, and count it.
    fn open(&self, authority: &str, deadline: Option<Instant>) -> Result<PooledConn> {
        let timeout = match deadline {
            Some(d) => self
                .connect_timeout
                .min(d.saturating_duration_since(Instant::now())),
            None => self.connect_timeout,
        };
        let conn = PooledConn::connect(authority, timeout)?;
        self.connections_opened.fetch_add(1, Ordering::Relaxed);
        Ok(conn)
    }

    fn checkout(&self, authority: &str) -> Option<PooledConn> {
        self.pool.lock().get_mut(authority)?.pop()
    }

    fn checkin(&self, authority: &str, conn: PooledConn) {
        let mut pool = self.pool.lock();
        let slot = pool.entry(authority.to_owned()).or_default();
        // Bound the pool: beyond this, extra connections are dropped (closed).
        if slot.len() < 16 {
            slot.push(conn);
        }
    }

    /// Drop every pooled connection for `authority`.
    fn drain(&self, authority: &str) {
        self.pool.lock().remove(authority);
    }

    /// Pooled connections currently idle for `authority` (test hook).
    #[cfg(test)]
    fn pooled(&self, authority: &str) -> usize {
        self.pool.lock().get(authority).map_or(0, Vec::len)
    }
}

/// Where the next body byte comes from on a streaming connection.
enum BodyState {
    /// Chunked transfer-encoding; `remaining` bytes left in the current
    /// chunk (0 = the next read starts with a chunk-size line).
    Chunked { remaining: usize },
    /// `Content-Length` body with `remaining` unread bytes.
    Sized { remaining: usize },
}

/// Longest tolerated chunk-size line (hex size + extensions + CRLF).
const MAX_CHUNK_LINE: usize = 256;

/// A response whose body is still on the wire.
///
/// Dechunked body bytes are pulled with [`StreamingResponse::read_data`];
/// the connection returns to the keep-alive pool only after the body is
/// read to completion. Dropping mid-body closes the connection instead —
/// its remaining body bytes would desync the stream for the next request.
pub struct StreamingResponse<'a> {
    client: &'a HttpClient,
    authority: String,
    conn: Option<PooledConn>,
    pub status: Status,
    pub headers: Headers,
    state: BodyState,
    finished: bool,
    /// Body bytes handed to the caller so far (counted into the client's
    /// receive gauge on drop).
    bytes: u64,
}

impl StreamingResponse<'_> {
    /// The response `Content-Type`, if declared.
    pub fn content_type(&self) -> Option<&str> {
        self.headers.get("Content-Type")
    }

    /// Whether the body arrives chunked (a streamed response).
    pub fn is_chunked(&self) -> bool {
        matches!(self.state, BodyState::Chunked { .. })
    }

    /// Body bytes handed to the caller so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes
    }

    /// Pull the next run of dechunked body bytes into `buf`. Returns 0
    /// exactly once the body is complete (for chunked bodies: the final
    /// 0-chunk and its trailer arrived), at which point the connection has
    /// been returned to the pool. An error poisons the connection.
    pub fn read_data(&mut self, buf: &mut [u8]) -> Result<usize> {
        if self.finished {
            return Ok(0);
        }
        if buf.is_empty() {
            return Err(HttpError::Malformed("zero-length read buffer".into()));
        }
        let n = match self.fill(buf) {
            Ok(n) => n,
            Err(e) => return Err(self.poison(e)),
        };
        if n == 0 {
            self.finish();
        } else {
            self.bytes += n as u64;
        }
        Ok(n)
    }

    /// Inner read against the current body state. Does not touch
    /// finished/poisoned bookkeeping — `read_data` owns that.
    fn fill(&mut self, buf: &mut [u8]) -> Result<usize> {
        let conn = self.conn.as_mut().expect("unfinished stream has a conn");
        match &mut self.state {
            BodyState::Sized { remaining } => {
                if *remaining == 0 {
                    return Ok(0);
                }
                let want = buf.len().min(*remaining);
                let n = read_some(&mut conn.reader, &mut buf[..want])?;
                if n == 0 {
                    return Err(HttpError::ConnectionClosed);
                }
                *remaining -= n;
                Ok(n)
            }
            BodyState::Chunked { remaining } => loop {
                if *remaining > 0 {
                    let want = buf.len().min(*remaining);
                    let n = read_some(&mut conn.reader, &mut buf[..want])?;
                    if n == 0 {
                        return Err(HttpError::ConnectionClosed);
                    }
                    *remaining -= n;
                    if *remaining == 0 {
                        read_crlf(&mut conn.reader)?;
                    }
                    return Ok(n);
                }
                let mut line = [0u8; MAX_CHUNK_LINE];
                let size = read_chunk_size(&mut conn.reader, &mut line)?;
                if size == 0 {
                    // Trailer section: lines until the blank terminator.
                    while !read_chunk_line(&mut conn.reader, &mut line)?.is_empty() {}
                    return Ok(0);
                }
                *remaining = size;
            },
        }
    }

    /// Collect the rest of the body into a plain [`Response`], bounded by
    /// the client's `max_body_bytes`. This is the downgrade path: a peer
    /// that answered buffered (legacy XML/PPGB, a fault, a 404) instead of
    /// a stream.
    pub fn into_buffered(mut self) -> Result<Response> {
        let limit = self.client.max_body_bytes;
        let mut body = Vec::new();
        let mut buf = [0u8; 16 * 1024];
        loop {
            let n = self.read_data(&mut buf)?;
            if n == 0 {
                break;
            }
            if body.len() + n > limit {
                return Err(self.poison(HttpError::BodyTooLarge {
                    limit,
                    got: body.len() + n,
                }));
            }
            body.extend_from_slice(&buf[..n]);
        }
        let mut response = Response::ok("", body);
        response.status = self.status;
        response.headers = std::mem::take(&mut self.headers);
        Ok(response)
    }

    /// Body complete — for a chunked body, the terminator chunk and trailer
    /// arrived: clear the borrowed socket's read timeout and give the
    /// connection back to the pool, where the next request reuses it.
    fn finish(&mut self) {
        self.finished = true;
        if let Some(conn) = self.conn.take() {
            let _ = conn.stream.set_read_timeout(None);
            self.client.checkin(&self.authority, conn);
        }
    }

    /// Mid-body failure: the connection is desynced, drop it on the floor.
    fn poison(&mut self, error: HttpError) -> HttpError {
        self.finished = true;
        self.conn = None;
        if matches!(error, HttpError::Io(ref e) if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        )) {
            return HttpError::TimedOut;
        }
        if matches!(self.state, BodyState::Chunked { .. })
            && self.bytes > 0
            && !matches!(error, HttpError::BodyTooLarge { .. })
        {
            // The chunked body died after part of it was delivered — the
            // producer aborted mid-stream. That is a lost response, not a
            // protocol error on our side.
            return HttpError::ResponseLost(Box::new(error));
        }
        error
    }
}

impl Drop for StreamingResponse<'_> {
    fn drop(&mut self) {
        // An abandoned stream must not be pooled; `finish` already took the
        // conn on the clean path, so whatever is left here just closes.
        self.conn = None;
        self.client
            .bytes_received
            .fetch_add(self.bytes, Ordering::Relaxed);
    }
}

/// One `read(2)`, retrying on `Interrupted`.
fn read_some(reader: &mut impl Read, buf: &mut [u8]) -> Result<usize> {
    loop {
        match reader.read(buf) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// Read one LF-terminated line of the chunked framing into `line`, and
/// return it without its line ending. Copies straight out of the reader's
/// buffer: nothing is allocated per chunk.
fn read_chunk_line<'l>(
    reader: &mut impl BufRead,
    line: &'l mut [u8; MAX_CHUNK_LINE],
) -> Result<&'l [u8]> {
    let mut len = 0;
    loop {
        let available = match reader.fill_buf() {
            Ok([]) => return Err(HttpError::ConnectionClosed),
            Ok(available) => available,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e)),
        };
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.map_or(available.len(), |at| at + 1);
        if len + take > MAX_CHUNK_LINE {
            return Err(HttpError::Malformed("oversized chunk-size line".into()));
        }
        line[len..len + take].copy_from_slice(&available[..take]);
        len += take;
        reader.consume(take);
        if newline.is_some() {
            let mut end = len;
            while end > 0 && matches!(line[end - 1], b'\n' | b'\r') {
                end -= 1;
            }
            return Ok(&line[..end]);
        }
    }
}

/// Parse the next chunk-size line (hex, optional `;extensions`), using
/// `line` as the read buffer.
fn read_chunk_size(reader: &mut impl BufRead, line: &mut [u8; MAX_CHUNK_LINE]) -> Result<usize> {
    let line = read_chunk_line(reader, line)?;
    let digits = line.split(|&b| b == b';').next().unwrap_or_default();
    std::str::from_utf8(digits)
        .ok()
        .and_then(|digits| usize::from_str_radix(digits.trim(), 16).ok())
        .ok_or_else(|| {
            HttpError::Malformed(format!(
                "bad chunk size {:?}",
                String::from_utf8_lossy(line)
            ))
        })
}

/// Consume the CRLF that terminates a chunk's payload.
fn read_crlf(reader: &mut impl Read) -> Result<()> {
    let mut crlf = [0u8; 2];
    let mut got = 0;
    while got < 2 {
        let n = read_some(reader, &mut crlf[got..])?;
        if n == 0 {
            return Err(HttpError::ConnectionClosed);
        }
        got += n;
    }
    if &crlf != b"\r\n" {
        return Err(HttpError::Malformed("chunk payload not CRLF-framed".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Status;
    use crate::server::{HttpServer, ServerConfig};
    use std::sync::Arc;

    #[test]
    fn get_and_post() {
        let handler = Arc::new(|req: &Request| {
            if req.method == "GET" {
                Response::ok("text/plain", format!("got {}", req.path).into_bytes())
            } else {
                Response::ok("text/plain", req.body.clone())
            }
        });
        let server = HttpServer::bind("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
        let client = HttpClient::new();
        let resp = client
            .get(&format!("{}/info?wsdl", server.base_url()))
            .unwrap();
        assert_eq!(resp.body_str(), "got /info");
        let resp = client
            .post(
                &format!("{}/svc", server.base_url()),
                "text/xml",
                b"<x/>".to_vec(),
            )
            .unwrap();
        assert_eq!(resp.body, b"<x/>");
    }

    #[test]
    fn stale_connection_retried() {
        // First server dies; a new one takes over the same handler logic on a
        // new port — but for the pool key to match we need the same port, so
        // instead simulate staleness by shutting the server's keep-alive side:
        // easiest reliable check is to make two sequential servers and verify
        // the client works again after pool entries go stale.
        let handler = Arc::new(|_: &Request| Response::ok("text/plain", b"one".to_vec()));
        let mut server = HttpServer::bind("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
        let addr = server.addr();
        let client = HttpClient::new();
        let url = format!("http://{addr}/x");
        assert_eq!(client.get(&url).unwrap().body, b"one");
        server.shutdown();
        // Pooled connection is now dead; a fresh connect will fail (nobody
        // listening) — expect an error, not a hang or panic.
        assert!(client.get(&url).is_err());
    }

    #[test]
    fn stale_pool_is_drained_wholesale() {
        // Park several pooled connections, kill the server, and verify ONE
        // stale hit empties the whole per-authority pool (no per-request
        // failed-exchange tax on the rest).
        // The handler holds each request until all three are in flight, so
        // no exchange can finish and lend its connection to another.
        let all_in = Arc::new(std::sync::Barrier::new(3));
        let handler = Arc::new(move |req: &Request| {
            all_in.wait();
            Response::ok("text/plain", req.body.clone())
        });
        let mut server = HttpServer::bind("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
        let addr = server.addr();
        let authority = format!("{addr}");
        let client = HttpClient::new();
        let url = format!("http://{addr}/x");
        // Three concurrently in-flight requests leave three pooled conns.
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let client = &client;
                let url = url.clone();
                scope.spawn(move || {
                    client.post(&url, "text/plain", b"warm".to_vec()).unwrap();
                });
            }
        });
        assert_eq!(client.pooled(&authority), 3);
        server.shutdown();
        // Give the peer's FINs time to land so the probe sees EOF.
        std::thread::sleep(Duration::from_millis(50));
        assert!(client.get(&url).is_err());
        assert_eq!(
            client.pooled(&authority),
            0,
            "one stale hit must drain the whole authority pool"
        );
    }

    #[test]
    fn payload_bytes_count_bodies_of_successful_exchanges() {
        let handler = Arc::new(|_: &Request| Response::ok("text/plain", b"0123456789".to_vec()));
        let server = HttpServer::bind("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
        let client = HttpClient::new();
        assert_eq!(client.payload_bytes(), (0, 0));
        let url = format!("{}/x", server.base_url());
        client.post(&url, "text/plain", b"abcd".to_vec()).unwrap();
        assert_eq!(client.payload_bytes(), (4, 10));
        // GET has an empty body; only the response side grows.
        client.get(&url).unwrap();
        assert_eq!(client.payload_bytes(), (4, 20));
        // A failed exchange counts nothing.
        let dead = HttpClient::with_connect_timeout(Duration::from_millis(300));
        assert!(dead
            .post("http://127.0.0.1:1/x", "t", b"xx".to_vec())
            .is_err());
        assert_eq!(dead.payload_bytes(), (0, 0));
    }

    /// A server whose `/stream` path streams `parts` then closes the writer
    /// (or, with `abort`, drops it unclosed) and whose other paths echo the
    /// request path buffered.
    fn parts_server(parts: &'static [&'static str], abort: bool) -> HttpServer {
        let handler = Arc::new(move |req: &Request| {
            if req.path != "/stream" {
                return Response::ok("text/plain", req.path.clone().into_bytes());
            }
            let (resp, writer) = Response::stream_windowed("application/x-ppg-stream", 0);
            std::thread::spawn(move || {
                for part in parts {
                    writer.send(part.as_bytes().to_vec());
                }
                if !abort {
                    writer.close();
                }
            });
            resp
        });
        HttpServer::bind("127.0.0.1:0", ServerConfig::default(), handler).unwrap()
    }

    /// Read a streamed body to its end through `buf`-sized reads.
    fn drain_stream(streaming: &mut StreamingResponse<'_>, buf: &mut [u8]) -> Result<Vec<u8>> {
        let mut got = Vec::new();
        loop {
            match streaming.read_data(buf)? {
                0 => return Ok(got),
                n => got.extend_from_slice(&buf[..n]),
            }
        }
    }

    fn stream_request(authority: &str) -> (Url, Request) {
        let url = Url::parse(&format!("http://{authority}/stream")).unwrap();
        let request = Request::post(url.path.clone(), "text/plain", Vec::new());
        (url, request)
    }

    #[test]
    fn streaming_receive_dechunks_and_repools() {
        // Three chunks then a clean close: the client sees the dechunked
        // bytes in order, and once the terminator is read the connection
        // goes back to the pool and carries the next request.
        let server = parts_server(&["alpha-", "beta-", "gamma"], false);
        let authority = format!("{}", server.addr());
        let client = HttpClient::new();
        let (url, request) = stream_request(&authority);
        let mut streaming = client.send_streaming(&url, &request, None).unwrap();
        assert_eq!(streaming.status, Status::OK);
        assert!(streaming.is_chunked());
        assert_eq!(
            streaming.content_type(),
            Some("application/x-ppg-stream"),
            "stream head carries the negotiated content type"
        );
        // Deliberately smaller than the chunks.
        let got = drain_stream(&mut streaming, &mut [0u8; 7]).unwrap();
        assert_eq!(got, b"alpha-beta-gamma");
        assert_eq!(streaming.bytes_read(), got.len() as u64);
        drop(streaming);
        assert_eq!(
            client.pooled(&authority),
            1,
            "a cleanly terminated stream's connection is pooled"
        );
        // The next request rides the same socket.
        let again = client.get(&format!("http://{authority}/again")).unwrap();
        assert_eq!(again.body, b"/again");
        assert_eq!(client.connections_opened(), 1, "no reconnect");
        assert_eq!(server.requests_served(), 2);
        let (_, received) = client.payload_bytes();
        assert!(received >= 16, "streamed bytes counted: {received}");
    }

    #[test]
    fn pooled_post_stream_connection_carries_buffered_then_stream() {
        let server = parts_server(&["one-", "two"], false);
        let authority = format!("{}", server.addr());
        let client = HttpClient::new();
        let (url, request) = stream_request(&authority);
        let mut buf = [0u8; 64];
        let mut first = client.send_streaming(&url, &request, None).unwrap();
        assert_eq!(drain_stream(&mut first, &mut buf).unwrap(), b"one-two");
        drop(first);
        // A buffered exchange, then a second stream, on the one socket.
        let buffered = client
            .post(
                &format!("http://{authority}/between"),
                "text/plain",
                Vec::new(),
            )
            .unwrap();
        assert_eq!(buffered.body, b"/between");
        let mut second = client.send_streaming(&url, &request, None).unwrap();
        assert!(second.is_chunked());
        assert_eq!(drain_stream(&mut second, &mut buf).unwrap(), b"one-two");
        drop(second);
        assert_eq!(
            client.connections_opened(),
            1,
            "three exchanges, one socket"
        );
        assert_eq!(client.pooled(&authority), 1);
        assert_eq!(server.requests_served(), 3);
    }

    #[test]
    fn aborted_stream_is_never_pooled() {
        // The producer drops its writer unclosed after two chunks: the body
        // ends without a terminator, the read fails typed, and the socket is
        // dropped rather than pooled — the next request reconnects.
        let server = parts_server(&["partial-", "rows"], true);
        let authority = format!("{}", server.addr());
        let client = HttpClient::new();
        let (url, request) = stream_request(&authority);
        let mut streaming = client.send_streaming(&url, &request, None).unwrap();
        let err = drain_stream(&mut streaming, &mut [0u8; 64]).unwrap_err();
        assert!(matches!(err, HttpError::ResponseLost(_)), "{err:?}");
        drop(streaming);
        assert_eq!(
            client.pooled(&authority),
            0,
            "a truncated stream is dropped"
        );
        assert!(client.get(&format!("http://{authority}/after")).is_ok());
        assert_eq!(
            client.connections_opened(),
            2,
            "the next request reconnects"
        );
    }

    #[test]
    fn streaming_nonchunked_collects_via_into_buffered() {
        // A buffered peer (the downgrade path): send_streaming must still
        // work, with into_buffered yielding an ordinary Response.
        let handler =
            Arc::new(|_: &Request| Response::ok("text/xml", b"<buffered-peer/>".to_vec()));
        let server = HttpServer::bind("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
        let authority = format!("{}", server.addr());
        let client = HttpClient::new();
        let url = Url::parse(&format!("http://{authority}/x")).unwrap();
        let request = Request::post(url.path.clone(), "text/plain", Vec::new());
        let streaming = client.send_streaming(&url, &request, None).unwrap();
        assert!(!streaming.is_chunked());
        let resp = streaming.into_buffered().unwrap();
        assert_eq!(resp.status, Status::OK);
        assert_eq!(resp.body, b"<buffered-peer/>");
        assert_eq!(resp.headers.get("Content-Type"), Some("text/xml"));
        assert_eq!(client.pooled(&authority), 1);
    }

    #[test]
    fn abandoned_stream_is_not_repooled() {
        let handler = Arc::new(|_: &Request| {
            let (resp, writer) = Response::stream_windowed("application/x-ppg-stream", 0);
            std::thread::spawn(move || {
                writer.send(vec![b'x'; 4096]);
                writer.close();
            });
            resp
        });
        let server = HttpServer::bind("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
        let authority = format!("{}", server.addr());
        let client = HttpClient::new();
        let url = Url::parse(&format!("http://{authority}/stream")).unwrap();
        let request = Request::post(url.path.clone(), "text/plain", Vec::new());
        let mut streaming = client.send_streaming(&url, &request, None).unwrap();
        let mut buf = [0u8; 16];
        assert!(streaming.read_data(&mut buf).unwrap() > 0);
        drop(streaming); // body unconsumed: the conn is desynced
        assert_eq!(
            client.pooled(&authority),
            0,
            "abandoned mid-body stream must not rejoin the pool"
        );
    }

    #[test]
    fn truncated_chunked_body_surfaces_response_lost() {
        // A producer that dies after its first flushed chunk: the server
        // closes the connection without the terminator chunk, and the
        // client must report the loss as typed ResponseLost, not a parse
        // error.
        let handler = Arc::new(|_: &Request| {
            let (resp, writer) = Response::stream_windowed("application/x-ppg-stream", 0);
            std::thread::spawn(move || {
                writer.send(b"first-chunk".to_vec());
                drop(writer); // dies without close()
            });
            resp
        });
        let server = HttpServer::bind("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
        let client = HttpClient::new();
        let url = Url::parse(&format!("http://{}/stream", server.addr())).unwrap();
        let request = Request::post(url.path.clone(), "text/plain", Vec::new());
        let mut streaming = client.send_streaming(&url, &request, None).unwrap();
        assert!(streaming.is_chunked());
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        let err = loop {
            match streaming.read_data(&mut buf) {
                Ok(0) => panic!("truncated stream must not end cleanly"),
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, HttpError::ResponseLost(_)), "{err:?}");
        assert_eq!(got, b"first-chunk", "delivered bytes arrive before loss");
    }

    #[test]
    fn oversized_body_is_typed_not_buffered() {
        let handler = Arc::new(|_: &Request| Response::ok("text/plain", vec![b'x'; 1000]));
        let server = HttpServer::bind("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
        let client = HttpClient::new().with_max_body_bytes(100);
        let url = format!("{}/big", server.base_url());
        let err = client.get(&url).unwrap_err();
        assert!(
            matches!(
                err,
                HttpError::BodyTooLarge {
                    limit: 100,
                    got: 1000
                }
            ),
            "{err:?}"
        );
        // Within the cap still succeeds (fresh connection; the oversized
        // one was dropped, not pooled).
        let ok = HttpClient::new().with_max_body_bytes(1000);
        assert_eq!(ok.get(&url).unwrap().body.len(), 1000);
    }

    #[test]
    fn connection_refused_is_error() {
        let client = HttpClient::with_connect_timeout(Duration::from_millis(300));
        // Port 1 on localhost is essentially guaranteed closed.
        assert!(client.get("http://127.0.0.1:1/x").is_err());
    }

    #[test]
    fn status_passthrough() {
        let handler = Arc::new(|_: &Request| Response::text(Status::NOT_FOUND, "nope"));
        let server = HttpServer::bind("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
        let client = HttpClient::new();
        let resp = client
            .get(&format!("{}/missing", server.base_url()))
            .unwrap();
        assert_eq!(resp.status, Status::NOT_FOUND);
        assert_eq!(resp.body_str(), "nope");
    }
}
