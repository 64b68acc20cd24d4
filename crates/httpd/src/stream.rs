//! Streaming (chunked) response support: long-lived push connections and
//! bounded-window result streams.
//!
//! A normal [`crate::Response`] is a complete buffer: the event loop writes
//! `Content-Length` framing and returns the connection to request parsing.
//! Two workloads need the opposite shape — a response whose body is
//! produced over time while the connection stays parked on the poll
//! thread:
//!
//! * the notification plane parks subscriptions for minutes and pushes one
//!   event per chunk ([`crate::Response::stream`], drop-oldest overflow);
//! * the result-streaming data path emits a large scan frame-at-a-time
//!   under a bounded in-flight window
//!   ([`crate::Response::stream_windowed`] +
//!   [`StreamWriter::send_blocking`]), so a slow reader backpressures the
//!   producer instead of ballooning the outbox.
//!
//! The handler returns the response like any other, but it carries a
//! [`StreamHandle`] the event loop adopts. From then on the connection is
//! in *push mode*: every payload the paired [`StreamWriter`] enqueues is
//! written as one `Transfer-Encoding: chunked` chunk. Closing the writer
//! emits the zero-length terminator chunk, after which the connection
//! leaves push mode and serves its next keep-alive request; a writer
//! dropped unclosed (an abort) closes the socket without the terminator.
//!
//! The window is byte-denominated and enforced twice: a blocking send
//! parks the producer while the queue holds ≥ window bytes, and the event
//! loop stops moving payloads into a connection's output buffer once that
//! buffer holds ≥ window unflushed bytes. Either side therefore buffers at
//! most `window + one payload` bytes per connection, independent of
//! result-set size.
//!
//! The writer lives on arbitrary threads; the queue hand-off is a mutex'd
//! `VecDeque` plus the event loop's waker, so a push costs one lock and one
//! pipe byte. Peer death is reported back through [`StreamWriter::is_dead`]
//! so a publisher can reap subscribers whose sockets are gone.

use crate::outbuf::OutBuf;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Spent payload buffers held for producer reuse beyond this count are
/// simply freed — enough to cover the window's worth of frames in flight.
const SPARE_CAP: usize = 8;

/// Longest chunk-size line: every hex digit of a `usize` plus CRLF.
const CHUNK_LINE_MAX: usize = 2 * std::mem::size_of::<usize>() + 2;

/// Render `len` as a chunk-size line (uppercase hex, no leading zeros,
/// CRLF) into `buf`, returning the used tail.
fn chunk_size_line(mut len: usize, buf: &mut [u8; CHUNK_LINE_MAX]) -> &[u8] {
    let mut start = CHUNK_LINE_MAX - 2;
    buf[start..].copy_from_slice(b"\r\n");
    loop {
        start -= 1;
        buf[start] = b"0123456789ABCDEF"[len & 0xF];
        len >>= 4;
        if len == 0 {
            return &buf[start..];
        }
    }
}

/// Payload queue between one [`StreamWriter`] and the event loop, with a
/// running byte total so the window check is O(1).
struct Queue {
    items: VecDeque<Vec<u8>>,
    bytes: usize,
    /// Buffers the event loop finished flushing, waiting for the producer
    /// to pull back via [`StreamWriter::take_spare`] — the return half of
    /// the zero-copy path, so a long stream settles into a fixed set of
    /// recirculating buffers instead of one allocation per frame.
    spare: Vec<Vec<u8>>,
}

/// Shared state between one [`StreamWriter`] and the event loop.
struct StreamInner {
    /// Raw payloads not yet written; each becomes exactly one HTTP chunk.
    queue: Mutex<Queue>,
    /// Signalled when the event loop drains payloads; blocking senders
    /// park here while the queue is at the window.
    space: Condvar,
    /// In-flight window in bytes; 0 means unbounded (the push plane).
    window: AtomicUsize,
    /// High-water mark of queued bytes over the stream's life.
    peak_queued: AtomicUsize,
    /// The writer finished: once the queue drains, emit the terminator.
    closed: AtomicBool,
    /// The peer is gone (socket EOF/error, or the server shut down).
    dead: AtomicBool,
    /// Live [`StreamWriter`] clones; the last one dropping without
    /// [`StreamWriter::close`] aborts the stream.
    writers: AtomicUsize,
    /// The producer vanished mid-stream (last writer dropped unclosed):
    /// the event loop must tear the connection down *without* the clean
    /// terminator chunk, so the peer sees truncation, not completion.
    aborted: AtomicBool,
    /// Payloads evicted by bounded sends (drop-oldest overflow).
    dropped: AtomicU64,
    /// Set by the event loop when it adopts the stream; called after every
    /// enqueue so the poll thread wakes and pumps.
    waker: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl StreamInner {
    fn new(window: usize) -> StreamInner {
        StreamInner {
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                bytes: 0,
                spare: Vec::new(),
            }),
            space: Condvar::new(),
            window: AtomicUsize::new(window),
            peak_queued: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            writers: AtomicUsize::new(1),
            aborted: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
            waker: Mutex::new(None),
        }
    }

    fn wake(&self) {
        if let Some(w) = self.waker.lock().expect("waker lock").as_ref() {
            w();
        }
    }

    fn note_peak(&self, bytes: usize) {
        self.peak_queued.fetch_max(bytes, Ordering::Relaxed);
    }
}

/// The producer half of a streaming response. Clonable; any thread may
/// push. Dropping the last writer without calling
/// [`StreamWriter::close`] *aborts* the stream: queued payloads still
/// flush, but the connection closes without the terminator chunk so the
/// peer sees a truncated body instead of a clean end.
pub struct StreamWriter {
    inner: Arc<StreamInner>,
}

impl StreamWriter {
    /// Enqueue one payload as one chunk. Returns `false` when the peer is
    /// gone or the stream already closed (the payload is discarded).
    pub fn send(&self, payload: Vec<u8>) -> bool {
        self.send_bounded(payload, usize::MAX).0
    }

    /// Enqueue one payload, evicting the oldest queued payloads until at
    /// most `cap` remain (drop-oldest backpressure for slow consumers).
    /// Returns `(delivered, dropped_now)` — `delivered` is `false` when the
    /// peer is gone or the stream closed.
    pub fn send_bounded(&self, payload: Vec<u8>, cap: usize) -> (bool, u64) {
        if self.is_dead() || self.inner.closed.load(Ordering::Acquire) {
            return (false, 0);
        }
        let mut dropped = 0u64;
        let bytes = {
            let mut queue = self.inner.queue.lock().expect("stream queue lock");
            while queue.items.len() >= cap.max(1) {
                let evicted = queue.items.pop_front().expect("len checked");
                queue.bytes -= evicted.len();
                dropped += 1;
            }
            queue.bytes += payload.len();
            queue.items.push_back(payload);
            queue.bytes
        };
        self.inner.note_peak(bytes);
        if dropped > 0 {
            self.inner.dropped.fetch_add(dropped, Ordering::Relaxed);
        }
        self.inner.wake();
        (true, dropped)
    }

    /// Enqueue one payload, *blocking* while the stream's in-flight window
    /// is full — the producer-side half of end-to-end backpressure. On an
    /// unbounded stream this never blocks. Returns `false` (payload
    /// discarded) when the peer is gone or the stream closed; a parked
    /// sender is released by peer death, so a producer can never hang on a
    /// vanished consumer.
    pub fn send_blocking(&self, payload: Vec<u8>) -> bool {
        let mut queue = self.inner.queue.lock().expect("stream queue lock");
        loop {
            if self.is_dead() || self.inner.closed.load(Ordering::Acquire) {
                return false;
            }
            let window = self.inner.window.load(Ordering::Relaxed);
            if window == 0 || queue.bytes < window {
                queue.bytes += payload.len();
                let bytes = queue.bytes;
                queue.items.push_back(payload);
                drop(queue);
                self.inner.note_peak(bytes);
                self.inner.wake();
                return true;
            }
            // Re-check death on a coarse tick as well as on notify: the
            // event loop might drop the connection without a final drain.
            let (guard, _timeout) = self
                .inner
                .space
                .wait_timeout(queue, Duration::from_millis(50))
                .expect("stream queue lock");
            queue = guard;
        }
    }

    /// Finish the stream: queued payloads still flush, then the terminator
    /// chunk is written and the connection returns to keep-alive.
    /// Idempotent.
    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::Release);
        self.inner.space.notify_all();
        self.inner.wake();
    }

    /// Whether the peer is gone (socket closed or server stopped). Sends
    /// after this are discarded; publishers use it to reap subscribers.
    pub fn is_dead(&self) -> bool {
        self.inner.dead.load(Ordering::Acquire)
    }

    /// Whether [`StreamWriter::close`] was called.
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }

    /// Total payloads evicted by bounded sends over this stream's life.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Payloads enqueued but not yet written to the socket.
    pub fn queued(&self) -> usize {
        self.inner
            .queue
            .lock()
            .expect("stream queue lock")
            .items
            .len()
    }

    /// Bytes enqueued but not yet moved to the socket buffer.
    pub fn queued_bytes(&self) -> usize {
        self.inner.queue.lock().expect("stream queue lock").bytes
    }

    /// High-water mark of queued bytes over this stream's life — the
    /// producer-side buffering proof for the window bound.
    pub fn peak_queued_bytes(&self) -> usize {
        self.inner.peak_queued.load(Ordering::Relaxed)
    }

    /// The stream's in-flight window in bytes (0 = unbounded).
    pub fn window(&self) -> usize {
        self.inner.window.load(Ordering::Relaxed)
    }

    /// Pull back one spent payload buffer the event loop reclaimed after
    /// flushing it to the socket, so the producer's encoder reuses its
    /// capacity instead of allocating a fresh frame. `None` when nothing
    /// has recirculated yet.
    pub fn take_spare(&self) -> Option<Vec<u8>> {
        self.inner
            .queue
            .lock()
            .expect("stream queue lock")
            .spare
            .pop()
    }
}

impl Clone for StreamWriter {
    fn clone(&self) -> StreamWriter {
        self.inner.writers.fetch_add(1, Ordering::Relaxed);
        StreamWriter {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Drop for StreamWriter {
    fn drop(&mut self) {
        if self.inner.writers.fetch_sub(1, Ordering::AcqRel) == 1
            && !self.inner.closed.load(Ordering::Acquire)
        {
            // Producer died without sealing the stream (panic, early
            // return): mark the abort *before* closing so the event loop
            // never races into writing a clean terminator.
            self.inner.aborted.store(true, Ordering::Release);
            self.inner.closed.store(true, Ordering::Release);
            self.inner.space.notify_all();
            self.inner.wake();
        }
    }
}

impl std::fmt::Debug for StreamWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamWriter")
            .field("closed", &self.is_closed())
            .field("dead", &self.is_dead())
            .field("window", &self.window())
            .finish()
    }
}

/// The event-loop half of a streaming response, carried inside
/// [`crate::Response::stream`]. Opaque outside this crate.
#[derive(Clone)]
pub struct StreamHandle {
    inner: Arc<StreamInner>,
}

impl StreamHandle {
    /// Install the poll thread's waker (called when the loop adopts the
    /// connection into push mode).
    pub(crate) fn set_waker(&self, waker: Box<dyn Fn() + Send + Sync>) {
        *self.inner.waker.lock().expect("waker lock") = Some(waker);
    }

    /// Drain queued payloads, encoding each as one HTTP chunk appended to
    /// `out` — but only while `out` holds fewer unflushed bytes than the
    /// stream window, so a blocked socket bounds the connection's output
    /// buffer instead of growing it. Returns `true` when the stream is
    /// finished (writer closed and the queue drained) — the caller then
    /// appends the terminator chunk.
    pub(crate) fn pump_into(&self, out: &mut OutBuf) -> bool {
        let window = self.inner.window.load(Ordering::Relaxed);
        let mut queue = self.inner.queue.lock().expect("stream queue lock");
        let mut popped = false;
        let mut line = [0u8; CHUNK_LINE_MAX];
        while window == 0 || out.len() < window {
            let Some(payload) = queue.items.pop_front() else {
                break;
            };
            queue.bytes -= payload.len();
            out.extend(chunk_size_line(payload.len(), &mut line));
            out.push_seg(payload);
            out.extend(b"\r\n");
            popped = true;
        }
        if popped {
            self.inner.space.notify_all();
        }
        // `closed` is checked while the queue lock is held: a concurrent
        // send either landed above or will observe `closed` and refuse.
        self.inner.closed.load(Ordering::Acquire) && queue.items.is_empty()
    }

    /// Whether the producer vanished without closing — the stream must be
    /// torn down dirty (no terminator chunk) so the peer observes
    /// truncation rather than a clean end.
    pub(crate) fn aborted(&self) -> bool {
        self.inner.aborted.load(Ordering::Acquire)
    }

    /// Return spent payload buffers (bytes already on the socket) for the
    /// producer to pull back via [`StreamWriter::take_spare`]. Buffers
    /// past [`SPARE_CAP`] are freed.
    pub(crate) fn recycle(&self, bufs: Vec<Vec<u8>>) {
        let mut queue = self.inner.queue.lock().expect("stream queue lock");
        for mut buf in bufs {
            if queue.spare.len() >= SPARE_CAP {
                break;
            }
            buf.clear();
            queue.spare.push(buf);
        }
    }

    /// Mark the peer gone so the writer's sends start failing (and any
    /// blocked sender is released).
    pub(crate) fn mark_dead(&self) {
        self.inner.dead.store(true, Ordering::Release);
        self.inner.space.notify_all();
    }

    /// Test hook: simulate peer death without a socket.
    #[doc(hidden)]
    pub fn mark_dead_for_test(&self) {
        self.mark_dead();
    }
}

impl std::fmt::Debug for StreamHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("StreamHandle")
    }
}

/// Create a linked `(handle, writer)` pair with the given in-flight window
/// (0 = unbounded).
pub(crate) fn stream_pair_windowed(window: usize) -> (StreamHandle, StreamWriter) {
    let inner = Arc::new(StreamInner::new(window));
    (
        StreamHandle {
            inner: Arc::clone(&inner),
        },
        StreamWriter { inner },
    )
}

/// Create a linked `(handle, writer)` pair with no window.
#[cfg(test)]
pub(crate) fn stream_pair() -> (StreamHandle, StreamWriter) {
    stream_pair_windowed(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pumped(handle: &StreamHandle) -> (Vec<u8>, bool) {
        let mut out = OutBuf::new();
        let finished = handle.pump_into(&mut out);
        (out.peek_all(), finished)
    }

    #[test]
    fn chunk_size_lines_match_formatted_hex() {
        let mut buf = [0u8; CHUNK_LINE_MAX];
        for len in [0, 1, 9, 10, 15, 16, 255, 4096, 65_535, 1 << 20, usize::MAX] {
            assert_eq!(
                chunk_size_line(len, &mut buf),
                format!("{len:X}\r\n").as_bytes(),
                "{len}"
            );
        }
    }

    #[test]
    fn bounded_send_drops_oldest() {
        let (handle, writer) = stream_pair();
        for i in 0..5u8 {
            writer.send_bounded(vec![i], 3);
        }
        assert_eq!(writer.dropped(), 2);
        let (out, finished) = pumped(&handle);
        assert!(!finished);
        // Chunks 2, 3, 4 survive (oldest dropped first).
        assert_eq!(out, b"1\r\n\x02\r\n1\r\n\x03\r\n1\r\n\x04\r\n");
        assert_eq!(writer.queued_bytes(), 0);
    }

    #[test]
    fn close_then_drain_reports_finished() {
        let (handle, writer) = stream_pair();
        assert!(writer.send(b"ev".to_vec()));
        writer.close();
        assert!(!writer.send(b"late".to_vec()), "send after close refused");
        let (out, finished) = pumped(&handle);
        assert!(finished, "closed + drained = finished");
        assert_eq!(out, b"2\r\nev\r\n");
    }

    #[test]
    fn dead_peer_fails_sends() {
        let (handle, writer) = stream_pair();
        handle.mark_dead();
        assert!(writer.is_dead());
        assert!(!writer.send(b"x".to_vec()));
        assert!(!writer.send_blocking(b"x".to_vec()));
        assert_eq!(writer.queued(), 0);
    }

    #[test]
    fn waker_fires_on_send_and_close() {
        use std::sync::atomic::AtomicUsize;
        let (handle, writer) = stream_pair();
        let fired = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&fired);
        handle.set_waker(Box::new(move || {
            f.fetch_add(1, Ordering::SeqCst);
        }));
        writer.send(b"a".to_vec());
        writer.close();
        assert_eq!(fired.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn blocking_send_parks_at_window_until_drained() {
        let (handle, writer) = stream_pair_windowed(4);
        assert!(writer.send_blocking(vec![b'a'; 6])); // queue was empty: immediate
        let w = writer.clone();
        let parked = std::thread::spawn(move || w.send_blocking(vec![b'b'; 6]));
        // The second send must park: 6 queued bytes ≥ the 4-byte window.
        std::thread::sleep(Duration::from_millis(40));
        assert!(!parked.is_finished(), "send should park at the window");
        // Draining via the event loop releases it.
        let (out, _) = pumped(&handle);
        assert!(out.starts_with(b"6\r\naaaaaa"));
        assert!(parked.join().unwrap());
        assert_eq!(writer.queued_bytes(), 6);
        assert!(writer.peak_queued_bytes() <= 4 + 6, "window + one payload");
    }

    #[test]
    fn blocking_send_released_by_peer_death() {
        let (handle, writer) = stream_pair_windowed(4);
        assert!(writer.send_blocking(vec![b'x'; 4]));
        let w = writer.clone();
        let parked = std::thread::spawn(move || w.send_blocking(vec![b'y'; 4]));
        std::thread::sleep(Duration::from_millis(20));
        handle.mark_dead();
        assert!(!parked.join().unwrap(), "death must release parked sender");
    }

    #[test]
    fn dropping_last_writer_unclosed_aborts() {
        let (handle, writer) = stream_pair();
        let clone = writer.clone();
        writer.send(b"data".to_vec());
        drop(writer);
        assert!(!handle.aborted(), "a live clone keeps the stream open");
        drop(clone);
        assert!(handle.aborted());
        // Queued payloads still flush; the stream then reports finished,
        // and the event loop (seeing aborted) skips the terminator.
        let (out, finished) = pumped(&handle);
        assert!(finished);
        assert_eq!(out, b"4\r\ndata\r\n");
    }

    #[test]
    fn dropping_a_closed_writer_is_clean() {
        let (handle, writer) = stream_pair();
        writer.close();
        drop(writer);
        assert!(!handle.aborted(), "close before drop is a clean end");
    }

    #[test]
    fn recycled_buffers_recirculate_to_producer() {
        let (handle, writer) = stream_pair();
        assert!(writer.take_spare().is_none());
        handle.recycle(vec![Vec::with_capacity(512), vec![1, 2, 3]]);
        let buf = writer.take_spare().expect("spare available");
        assert!(buf.is_empty(), "recycled buffers come back cleared");
        assert!(writer.take_spare().is_some());
        assert!(writer.take_spare().is_none());
        // The cap bounds how many spares are retained.
        handle.recycle((0..2 * SPARE_CAP).map(|_| vec![0u8; 8]).collect());
        let mut held = 0;
        while writer.take_spare().is_some() {
            held += 1;
        }
        assert_eq!(held, SPARE_CAP);
    }

    #[test]
    fn pump_respects_window_budget() {
        let (handle, writer) = stream_pair_windowed(10);
        for _ in 0..8 {
            assert!(writer.send(vec![b'z'; 6])); // unbounded enqueue path
        }
        let mut out = OutBuf::new();
        assert!(!handle.pump_into(&mut out));
        // Budget stop: one 6-byte chunk plus framing crosses the 10-byte
        // window, so exactly one payload moves per pump of a full buffer.
        assert_eq!(writer.queued(), 7, "only one payload moved");
        // A drained out buffer lets the next pump move more.
        let drained = out.len();
        out.consume(drained);
        assert!(!handle.pump_into(&mut out));
        assert_eq!(writer.queued(), 6);
    }
}
