//! The NotificationSink PortType: one persistent push connection per
//! source, typed events delivered to callbacks.
//!
//! The sink cannot ride [`pperf_httpd::HttpClient`] — that client buffers
//! whole responses, and a subscription response never ends. Instead it
//! holds a raw `TcpStream`, writes the subscribe POST itself, and reads
//! the `Transfer-Encoding: chunked` stream incrementally: one chunk is one
//! event (PPGB kind-4 frame or the XML fallback, per the negotiated
//! content type).
//!
//! Per-topic sequence numbers make missed deltas observable: the subscribe
//! response carries a `topic=seq` baseline, and any jump beyond `+1`
//! invokes [`SinkHandler::on_gap`] — the subscriber's cue to resync by
//! polling (the gateway re-reads the registry) rather than trusting a
//! stream that dropped events. Disconnects reconnect with exponential
//! backoff and re-subscribe flagged `resync=1`.

use crate::source::{SUBSCRIBE_PATH, SUBSCRIPTION_ID_HEADER, TOPIC_SEQ_HEADER};
use crate::{decode_xml_event, Event, NotifyError};
use parking_lot::Mutex;
use pperf_httpd::Request;
use pperf_soap::{decode_binary_event, force_xml, BINARY_CONTENT_TYPE};
use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Callbacks a subscriber implements. All run on the sink's reader thread.
pub trait SinkHandler: Send + Sync + 'static {
    /// One delivered event.
    fn on_event(&self, event: &Event);

    /// A sequence gap: events in `[expected, got)` on `topic` were dropped
    /// (bounded-queue overflow at the source). The subscriber should
    /// resync by polling; the stream itself continues.
    fn on_gap(&self, topic: &str, expected: u64, got: u64) {
        let _ = (topic, expected, got);
    }

    /// The push connection ended (source shutdown, lease expiry, network).
    /// Deltas may have been missed; poll-resync here. A reconnect attempt
    /// follows automatically when the sink is configured to reconnect.
    fn on_disconnect(&self) {}
}

/// Sink tuning knobs.
#[derive(Debug, Clone)]
pub struct SinkConfig {
    /// Topics to subscribe to.
    pub topics: Vec<String>,
    /// Requested soft-state lease.
    pub lease: Duration,
    /// Requested bounded-queue depth at the source.
    pub queue: usize,
    /// Ask for PPGB event frames (ignored under `PPG_FORCE_XML=1`).
    pub binary: bool,
    /// Reconnect (with backoff) after a disconnect.
    pub reconnect: bool,
    /// First reconnect delay; doubles up to [`SinkConfig::backoff_max`].
    pub backoff_start: Duration,
    /// Reconnect delay ceiling.
    pub backoff_max: Duration,
}

impl Default for SinkConfig {
    fn default() -> Self {
        SinkConfig {
            topics: Vec::new(),
            lease: Duration::from_secs(30),
            queue: 256,
            binary: true,
            reconnect: true,
            backoff_start: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
        }
    }
}

/// Counter snapshot of one sink.
#[derive(Debug, Clone, Copy, Default)]
pub struct SinkCounters {
    /// Events delivered to the handler.
    pub events_received: u64,
    /// Sequence gaps detected (each triggers a poll resync).
    pub resyncs: u64,
    /// Successful re-subscriptions after a disconnect.
    pub reconnects: u64,
}

struct SinkShared {
    authority: String,
    config: SinkConfig,
    handler: Arc<dyn SinkHandler>,
    request_id: String,
    stop: AtomicBool,
    /// The live socket, kept so `stop()` can unblock the reader.
    sock: Mutex<Option<TcpStream>>,
    events_received: AtomicU64,
    resyncs: AtomicU64,
    reconnects: AtomicU64,
    connected: AtomicBool,
}

/// One open subscription stream.
struct Conn {
    reader: BufReader<TcpStream>,
    binary: bool,
    /// Last seen (or baseline) sequence number per topic.
    last: HashMap<String, u64>,
}

/// A running NotificationSink. Dropping it stops the reader thread.
pub struct NotificationSink {
    shared: Arc<SinkShared>,
    thread: Option<JoinHandle<()>>,
}

impl NotificationSink {
    /// Subscribe to `authority` (a `host:port`). The first subscribe runs
    /// synchronously so an unsupported peer surfaces as
    /// [`NotifyError::Unsupported`] — the mixed-fleet cue to stay on TTL
    /// polling. On success a reader thread delivers events until
    /// [`NotificationSink::stop`].
    pub fn connect<H: SinkHandler>(
        authority: &str,
        config: SinkConfig,
        handler: Arc<H>,
    ) -> Result<NotificationSink, NotifyError> {
        let handler: Arc<dyn SinkHandler> = handler;
        let ctx = ppg_context::CallContext::new();
        let shared = Arc::new(SinkShared {
            authority: authority.to_owned(),
            config,
            handler,
            request_id: ctx.request_id().to_owned(),
            stop: AtomicBool::new(false),
            sock: Mutex::new(None),
            events_received: AtomicU64::new(0),
            resyncs: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            connected: AtomicBool::new(false),
        });
        let conn = open_subscription(&shared, false)?;
        let runner = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name(format!("ppg-sink-{authority}"))
            .spawn(move || run(runner, conn))
            .expect("spawn sink reader thread");
        Ok(NotificationSink {
            shared,
            thread: Some(thread),
        })
    }

    /// The source's `host:port`.
    pub fn authority(&self) -> &str {
        &self.shared.authority
    }

    /// Whether the push connection is currently up.
    pub fn is_connected(&self) -> bool {
        self.shared.connected.load(Ordering::Acquire)
    }

    /// Counter snapshot.
    pub fn counters(&self) -> SinkCounters {
        SinkCounters {
            events_received: self.shared.events_received.load(Ordering::Relaxed),
            resyncs: self.shared.resyncs.load(Ordering::Relaxed),
            reconnects: self.shared.reconnects.load(Ordering::Relaxed),
        }
    }

    /// Stop the reader thread and close the push connection. Idempotent.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(sock) = self.shared.sock.lock().as_ref() {
            let _ = sock.shutdown(std::net::Shutdown::Both);
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for NotificationSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NotificationSink")
            .field("authority", &self.shared.authority)
            .field("connected", &self.is_connected())
            .finish()
    }
}

impl Drop for NotificationSink {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Open one subscription: connect, POST, parse the streaming head.
fn open_subscription(shared: &SinkShared, resync: bool) -> Result<Conn, NotifyError> {
    let stream = TcpStream::connect(&shared.authority)?;
    stream.set_nodelay(true)?;
    // The poll interval of the read loop: timeouts are idle ticks, not
    // failures, and bound how long `stop()` waits for the thread.
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    let cfg = &shared.config;
    let mut body = format!(
        "topics={}\nlease={}\nqueue={}\n",
        cfg.topics.join(","),
        cfg.lease.as_secs().max(1),
        cfg.queue
    );
    if resync {
        body.push_str("resync=1\n");
    }
    let mut request = Request::post(SUBSCRIBE_PATH, "text/plain", body.into_bytes());
    if cfg.binary && !force_xml() {
        request.headers.set("Accept", BINARY_CONTENT_TYPE);
    }
    request
        .headers
        .set(ppg_context::REQUEST_ID_HEADER, &shared.request_id);
    let mut wire = Vec::new();
    request
        .write_to(&mut wire, &shared.authority)
        .map_err(|e| NotifyError::Protocol(e.to_string()))?;
    (&stream).write_all(&wire)?;

    *shared.sock.lock() = Some(stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    let status_line = read_line(&mut reader, &shared.stop)?
        .ok_or_else(|| NotifyError::Protocol("EOF before status line".into()))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| NotifyError::Protocol(format!("bad status line {status_line:?}")))?;
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = read_line(&mut reader, &shared.stop)?
            .ok_or_else(|| NotifyError::Protocol("EOF in response head".into()))?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_owned(), value.trim().to_owned()));
        }
    }
    let header = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    };
    if status != 200 {
        return Err(NotifyError::Unsupported(status));
    }
    if !header("Transfer-Encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
        return Err(NotifyError::Protocol(
            "subscribe answered without chunked framing".into(),
        ));
    }
    let binary = header("Content-Type").is_some_and(|v| v == BINARY_CONTENT_TYPE);
    let _sub_id = header(SUBSCRIPTION_ID_HEADER);
    let mut last = HashMap::new();
    if let Some(baseline) = header(TOPIC_SEQ_HEADER) {
        for pair in baseline.split(',') {
            if let Some((topic, seq)) = pair.split_once('=') {
                if let Ok(seq) = seq.trim().parse::<u64>() {
                    last.insert(topic.trim().to_owned(), seq);
                }
            }
        }
    }
    Ok(Conn {
        reader,
        binary,
        last,
    })
}

/// Reader loop: consume events until stopped; reconnect on disconnect.
fn run(shared: Arc<SinkShared>, mut conn: Conn) {
    let mut backoff = shared.config.backoff_start;
    loop {
        shared.connected.store(true, Ordering::Release);
        let _ = consume(&shared, &mut conn);
        shared.connected.store(false, Ordering::Release);
        *shared.sock.lock() = None;
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        shared.handler.on_disconnect();
        if !shared.config.reconnect {
            return;
        }
        loop {
            std::thread::sleep(backoff);
            if shared.stop.load(Ordering::Acquire) {
                return;
            }
            match open_subscription(&shared, true) {
                Ok(next) => {
                    // Carry sequence state across the reconnect so deltas
                    // dropped while disconnected still surface as a gap.
                    let mut next = next;
                    for (topic, seq) in &conn.last {
                        next.last.entry(topic.clone()).or_insert(*seq);
                    }
                    conn = next;
                    shared.reconnects.fetch_add(1, Ordering::Relaxed);
                    backoff = shared.config.backoff_start;
                    break;
                }
                Err(_) => {
                    backoff = (backoff * 2).min(shared.config.backoff_max);
                }
            }
        }
    }
}

/// Consume chunks until EOF, error, or stop.
fn consume(shared: &SinkShared, conn: &mut Conn) -> Result<(), NotifyError> {
    loop {
        let Some(size_line) = read_line(&mut conn.reader, &shared.stop)? else {
            return Ok(()); // EOF or stop
        };
        if size_line.is_empty() {
            continue; // tolerate a stray blank between chunks
        }
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| NotifyError::Protocol(format!("bad chunk size {size_line:?}")))?;
        if size == 0 {
            // Terminator: the source ended the stream cleanly (unsubscribe,
            // lease expiry, shutdown).
            let _ = read_line(&mut conn.reader, &shared.stop)?;
            return Ok(());
        }
        let mut payload = vec![0u8; size];
        read_exact(&mut conn.reader, &mut payload, &shared.stop)?;
        let _ = read_line(&mut conn.reader, &shared.stop)?; // trailing CRLF
        let event = if conn.binary {
            decode_binary_event(&payload)
                .map_err(|e| NotifyError::Protocol(format!("bad event frame: {e}")))?
        } else {
            decode_xml_event(&String::from_utf8_lossy(&payload))?
        };
        let expected = conn.last.get(&event.topic).map(|s| s + 1);
        if let Some(expected) = expected {
            if event.seq > expected {
                shared.resyncs.fetch_add(1, Ordering::Relaxed);
                shared.handler.on_gap(&event.topic, expected, event.seq);
            }
        }
        conn.last.insert(event.topic.clone(), event.seq);
        shared.events_received.fetch_add(1, Ordering::Relaxed);
        shared.handler.on_event(&event);
    }
}

/// Read one CRLF/LF-terminated line; `None` on EOF or stop request.
/// Read timeouts are idle ticks: keep waiting unless stopping.
fn read_line(
    reader: &mut BufReader<TcpStream>,
    stop: &AtomicBool,
) -> Result<Option<String>, NotifyError> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => {
                return if line.is_empty() {
                    Ok(None)
                } else {
                    Err(NotifyError::Protocol("EOF mid-line".into()))
                };
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    while line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
                }
                line.push(byte[0]);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::Acquire) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NotifyError::Io(e)),
        }
    }
}

/// Fill `buf` completely, treating read timeouts as idle ticks.
fn read_exact(
    reader: &mut BufReader<TcpStream>,
    buf: &mut [u8],
    stop: &AtomicBool,
) -> Result<(), NotifyError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Err(NotifyError::Protocol("EOF mid-chunk".into())),
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::Acquire) {
                    return Err(NotifyError::Protocol("stopped mid-chunk".into()));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NotifyError::Io(e)),
        }
    }
    Ok(())
}
