//! The HTTP server: a readiness-driven event loop feeding a bounded worker
//! pool.
//!
//! One poll thread owns every socket. Non-blocking connections are parked in
//! the poller ([`crate::poller`]: epoll on Linux, `poll(2)` elsewhere) and
//! cost only a registered fd while idle, so a host can carry thousands of
//! keep-alive connections — far past its thread count, which is what the
//! Figure 12 capacity model needs once gateways fan many clients into one
//! container. Bytes are fed to a per-connection resumable
//! [`RequestParser`], so a slow client trickling its request across many
//! readiness events loses nothing (the old blocking server's read timeout
//! discarded partially-read requests and desynced the connection).
//!
//! The `workers` knob keeps its meaning as the unit of host capacity: a
//! complete request is handed over a dispatch queue to one of `workers`
//! handler threads, so a host with `workers = 2` processes at most two
//! requests at any instant no matter how many connections are parked.
//! (Queueing is unbounded, exactly like the old permit-waiter queue; it is
//! *handler concurrency* that the knob bounds.)
//!
//! A worker writes a buffered response itself when it can: one vectored
//! write of head and body on the non-blocking socket. If the socket takes
//! every byte the worker queues a [`Completion::Written`] and re-arms the
//! connection for reading through the poller's [`Rearmer`], without waking
//! the poll thread; otherwise (a partial write, `EAGAIN`, a streamed
//! response, a connection that closes after this response, pipelined bytes
//! waiting behind the request) it hands the response to the poll thread,
//! which writes the rest. DESIGN.md §8 states the invariants this relies on.

use crate::error::Result;
use crate::message::{Request, RequestParser, Response, Status};
use crate::outbuf::OutBuf;
use crate::poller::{Event, Interest, Poller, Rearmer, Token};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::HashMap;
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A request handler. Handlers run concurrently on worker threads.
pub trait Handler: Send + Sync + 'static {
    /// Produce the response for one request.
    fn handle(&self, request: &Request) -> Response;
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, request: &Request) -> Response {
        self(request)
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently-processed requests (the host's capacity); the
    /// size of the handler worker pool.
    pub workers: usize,
    /// Artificial service time added to every request on its worker thread,
    /// to emulate slower hardware / a LAN hop. `None` disables it.
    pub injected_latency: Option<Duration>,
    /// Retained for configuration compatibility (the listener uses the
    /// platform's default accept backlog).
    pub backlog: usize,
    /// Maximum simultaneously-open connections; beyond this, new
    /// connections get an immediate `503` and are closed. Each open
    /// connection costs one fd and a parked poller registration.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            injected_latency: None,
            backlog: 1024,
            max_connections: 4096,
        }
    }
}

const LISTENER_TOKEN: Token = 0;
const WAKER_TOKEN: Token = 1;
const FIRST_CONN_TOKEN: Token = 2;
/// How long shutdown waits for in-flight responses to flush.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

struct Job {
    token: Token,
    request: Request,
    /// Set when the worker may write a buffered response itself: the
    /// connection stays open after it and nothing is buffered behind the
    /// request. Holding the stream keeps its fd open, so the fd the worker
    /// writes to and re-arms cannot be reused by another connection.
    direct: Option<Arc<TcpStream>>,
}

/// What a worker hands back to the poll thread for one request.
enum Completion {
    /// The worker wrote the whole response and re-armed the connection for
    /// reading; the poll thread only marks it released.
    Written(Token),
    /// The poll thread writes `response`, of which the worker already wrote
    /// the first `sent` bytes.
    Respond {
        token: Token,
        response: Response,
        sent: usize,
    },
}

struct Shared {
    handler: Arc<dyn Handler>,
    stop: AtomicBool,
    requests_served: AtomicU64,
    open_connections: AtomicUsize,
    latency: Option<Duration>,
    /// Write end of the event loop's waker; any thread can nudge the poll
    /// thread by writing a byte.
    waker: UnixStream,
    /// Re-arms a connection whose response a worker wrote. It keeps the
    /// poller's epoll fd open for as long as any worker can use it.
    rearmer: Rearmer,
}

impl Shared {
    fn wake(&self) {
        // WouldBlock means a wake-up is already pending — that's enough.
        let _ = (&self.waker).write(&[1]);
    }
}

/// Per-connection state machine owned by the poll thread.
struct Conn {
    /// Shared with a worker that writes this connection's response itself.
    stream: Arc<TcpStream>,
    parser: RequestParser,
    /// Serialized response bytes not yet written — segmented so streamed
    /// payloads move in without a copy and flush via vectored writes.
    out: OutBuf,
    interest: Interest,
    /// A request from this connection is on a worker; reads are parked.
    handling: bool,
    /// Close once `out` drains (explicit `Connection: close`, protocol
    /// error, or peer EOF after a complete pipelined request).
    close_after_flush: bool,
    /// The peer closed its write side; no further bytes will arrive.
    eof: bool,
    /// Push mode: a streaming response was adopted; the connection stays
    /// parked while the paired [`crate::StreamWriter`] feeds chunks.
    push: Option<crate::stream::StreamHandle>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream: Arc::new(stream),
            parser: RequestParser::new(),
            out: OutBuf::new(),
            interest: Interest::READABLE,
            handling: false,
            close_after_flush: false,
            eof: false,
            push: None,
        }
    }

    fn flushed(&self) -> bool {
        self.out.is_empty()
    }
}

enum IoOutcome {
    Progress,
    Blocked,
    Dead,
}

struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    waker_rx: UnixStream,
    conns: HashMap<Token, Conn>,
    next_token: Token,
    jobs_tx: Sender<Job>,
    done_rx: Receiver<Completion>,
    shared: Arc<Shared>,
    max_connections: usize,
    accepting: bool,
    /// Scratch list of push-mode tokens for [`EventLoop::pump_streams`],
    /// kept between loop turns so pumping allocates nothing.
    push_tokens: Vec<Token>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut stop_deadline: Option<Instant> = None;
        loop {
            let stopping = self.shared.stop.load(Ordering::Acquire);
            if stopping {
                if stop_deadline.is_none() {
                    stop_deadline = Some(Instant::now() + SHUTDOWN_GRACE);
                    self.begin_shutdown();
                }
                self.reap_idle();
                if self.conns.is_empty() || Instant::now() >= stop_deadline.expect("set above") {
                    break;
                }
            }
            let timeout = if stopping {
                Duration::from_millis(20)
            } else {
                Duration::from_millis(500)
            };
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                // Transient poll failure; retry (the timeout bounds spinning).
                continue;
            }
            // Empty the waker before draining completions: a completion sent
            // after the drain then leaves a byte that ends the next wait.
            if events.iter().any(|ev| ev.token == WAKER_TOKEN) {
                self.drain_waker();
            }
            // Completions before readiness: a worker queues `Written` before
            // it re-arms the fd, so a readable event on a connection always
            // finds the connection already released.
            self.drain_completions();
            if self.shared.stop.load(Ordering::Acquire) {
                // A stopping server serves nothing more on a connection a
                // worker just released, even if its next request is here.
                self.reap_idle();
            }
            for &ev in &events {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => {}
                    token => self.conn_ready(token, ev),
                }
            }
            self.pump_streams();
        }
    }

    /// Stop accepting and drop connections with nothing left to say.
    fn begin_shutdown(&mut self) {
        self.accepting = false;
        self.poller.deregister(self.listener.as_raw_fd());
        self.reap_idle();
    }

    fn reap_idle(&mut self) {
        let idle: Vec<Token> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.handling && c.flushed())
            .map(|(&t, _)| t)
            .collect();
        for token in idle {
            self.close_conn(token);
        }
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 256];
        while matches!((&self.waker_rx).read(&mut buf), Ok(n) if n > 0) {}
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if !self.accepting {
                        continue; // drop: shutting down
                    }
                    if self.conns.len() >= self.max_connections {
                        // Best-effort 503 on the doomed socket; a fresh
                        // connection's send buffer is empty, so one write
                        // almost always takes the whole response.
                        let _ = stream.set_nonblocking(true);
                        let mut wire = Vec::new();
                        let _ =
                            Response::text(Status::SERVICE_UNAVAILABLE, "connection limit reached")
                                .write_to(&mut wire);
                        let _ = (&stream).write(&wire);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READABLE)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(token, Conn::new(stream));
                    self.publish_gauge();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn conn_ready(&mut self, token: Token, ev: Event) {
        if ev.writable {
            self.flush(token);
        }
        if ev.readable {
            self.read_ready(token);
        } else if ev.hangup {
            // Hangup with no pending bytes: the connection is gone. (With
            // pending bytes the read path sees the EOF itself.)
            self.close_conn(token);
        }
    }

    fn read_ready(&mut self, token: Token) {
        let outcome = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.push.is_some() {
                // Push mode: the peer sends nothing meaningful; reads only
                // detect death. Discard stray bytes, close on EOF/error.
                let mut chunk = [0u8; 1024];
                let dead = loop {
                    match (&*conn.stream).read(&mut chunk) {
                        Ok(0) => break true,
                        Ok(_) => continue,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break false,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => break true,
                    }
                };
                if dead {
                    self.close_conn(token);
                }
                return;
            }
            if conn.handling || !conn.flushed() {
                return; // parked: level-triggered readiness will re-fire
            }
            let mut chunk = [0u8; 16 * 1024];
            let mut outcome = IoOutcome::Blocked;
            // Bound per-event work so one firehose connection cannot starve
            // the rest of the loop; level-triggering re-delivers the rest.
            for _ in 0..64 {
                match (&*conn.stream).read(&mut chunk) {
                    Ok(0) => {
                        conn.eof = true;
                        outcome = IoOutcome::Progress;
                        break;
                    }
                    Ok(n) => {
                        conn.parser.feed(&chunk[..n]);
                        outcome = IoOutcome::Progress;
                        if n < chunk.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        outcome = IoOutcome::Dead;
                        break;
                    }
                }
            }
            outcome
        };
        match outcome {
            IoOutcome::Dead => self.close_conn(token),
            IoOutcome::Progress | IoOutcome::Blocked => self.advance(token),
        }
    }

    /// Drive the connection's state machine: dispatch a complete request,
    /// wait for more bytes, or surface a protocol error.
    fn advance(&mut self, token: Token) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.handling || !conn.flushed() || conn.push.is_some() {
            return;
        }
        match conn.parser.try_next() {
            Ok(Some(request)) => {
                conn.handling = true;
                if request.wants_close() || conn.eof {
                    conn.close_after_flush = true;
                }
                let direct = (!conn.close_after_flush && conn.parser.buffered() == 0)
                    .then(|| Arc::clone(&conn.stream));
                self.set_interest(token, Interest::NONE);
                let _ = self.jobs_tx.send(Job {
                    token,
                    request,
                    direct,
                });
            }
            Ok(None) => {
                if conn.eof {
                    // Clean close between requests, or truncated mid-message;
                    // either way there is nothing left to serve.
                    self.close_conn(token);
                } else {
                    self.set_interest(token, Interest::READABLE);
                }
            }
            Err(crate::HttpError::BodyTooLarge { .. }) => {
                self.queue_response(
                    token,
                    Response::text(Status::PAYLOAD_TOO_LARGE, "body too large"),
                    0,
                    true,
                );
            }
            Err(_) => {
                self.queue_response(
                    token,
                    Response::text(Status::BAD_REQUEST, "malformed request"),
                    0,
                    true,
                );
            }
        }
    }

    fn drain_completions(&mut self) {
        // The connection may have died while its request was handled; a
        // response still owed to it is then undeliverable and dropped.
        while let Ok(done) = self.done_rx.try_recv() {
            match done {
                Completion::Written(token) => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.handling = false;
                        // What the worker's re-arm set in the poller.
                        conn.interest = Interest::READABLE;
                    }
                }
                Completion::Respond {
                    token,
                    response,
                    sent,
                } => self.queue_response(token, response, sent, false),
            }
        }
    }

    /// Queue `response` on the connection, minus the first `sent` bytes a
    /// worker already wrote, and flush.
    fn queue_response(&mut self, token: Token, response: Response, sent: usize, close: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.handling = false;
        if close {
            conn.close_after_flush = true;
        }
        if let Some(handle) = response.stream.clone() {
            // Adopt push mode: chunked head now, body chunks as the paired
            // writer produces them. The connection serves no requests until
            // the writer closes (then it returns to keep-alive) or aborts
            // (then it closes). Spent payload segments recirculate to the
            // producer meanwhile.
            let mut head = Vec::new();
            response.write_stream_head(&mut head);
            conn.out.push_seg(head);
            conn.out.set_reclaim(true);
            conn.push = Some(handle.clone());
            let shared = Arc::clone(&self.shared);
            handle.set_waker(Box::new(move || shared.wake()));
            self.pump_stream(token);
            return;
        }
        // Buffered path: serialize only the head by copy; the body moves in
        // as its own segment and reaches `writev(2)` uncopied.
        let mut head = Vec::new();
        response.write_head(&mut head);
        conn.out.push_seg(head);
        conn.out.push_seg(response.body);
        conn.out.consume(sent);
        self.flush(token);
    }

    /// Move queued stream payloads into every push connection's output
    /// buffer and flush. The token list reuses one buffer across loop
    /// turns, so a loop with no push connection allocates nothing here.
    fn pump_streams(&mut self) {
        let mut push = std::mem::take(&mut self.push_tokens);
        push.extend(
            (self.conns.iter())
                .filter(|(_, c)| c.push.is_some())
                .map(|(&t, _)| t),
        );
        for &token in &push {
            self.pump_stream(token);
        }
        push.clear();
        self.push_tokens = push;
    }

    fn pump_stream(&mut self, token: Token) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let Some(handle) = conn.push.clone() else {
                return;
            };
            let before = conn.out.len();
            if handle.pump_into(&mut conn.out) {
                conn.push = None;
                if handle.aborted() {
                    // The producer dropped its last writer without closing:
                    // no terminator, and the connection closes, so the peer
                    // sees a truncated chunked body, never a clean end.
                    conn.close_after_flush = true;
                } else {
                    // A clean end: the terminator completes the response and
                    // the connection goes back to request parsing once it
                    // flushes (or closes, if the request asked for that).
                    conn.out.extend(b"0\r\n\r\n");
                    conn.out.set_reclaim(false);
                }
                self.flush(token);
                return;
            }
            let progressed = conn.out.len() > before;
            self.flush(token);
            if !progressed {
                return;
            }
            // The pump stops at the stream's in-flight window. If the
            // socket swallowed everything, loop and move the next window's
            // worth now; if bytes remain, writable readiness resumes us.
            match self.conns.get(&token) {
                Some(c) if c.push.is_some() && c.flushed() => continue,
                _ => return,
            }
        }
    }

    fn flush(&mut self, token: Token) {
        let outcome = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut outcome = IoOutcome::Progress;
            while !conn.flushed() {
                match conn.out.write_to(&mut &*conn.stream) {
                    Ok(0) => {
                        outcome = IoOutcome::Dead;
                        break;
                    }
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        outcome = IoOutcome::Blocked;
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        outcome = IoOutcome::Dead;
                        break;
                    }
                }
            }
            // Hand fully-flushed payload segments back to the producer so
            // its encoder reuses them instead of allocating per frame.
            if let Some(handle) = &conn.push {
                let spent = conn.out.take_reclaimed();
                if !spent.is_empty() {
                    handle.recycle(spent);
                }
            }
            outcome
        };
        let push = self.conns.get(&token).is_some_and(|c| c.push.is_some());
        match outcome {
            IoOutcome::Dead => self.close_conn(token),
            IoOutcome::Blocked if push => {
                // Keep watching for peer death while the send buffer drains.
                self.set_interest(
                    token,
                    Interest {
                        readable: true,
                        writable: true,
                    },
                );
            }
            IoOutcome::Blocked => self.set_interest(token, Interest::WRITABLE),
            IoOutcome::Progress => {
                let close = self.conns.get(&token).is_some_and(|c| c.close_after_flush);
                if close && !push {
                    self.close_conn(token);
                } else {
                    self.set_interest(token, Interest::READABLE);
                    // A pipelined request may already be fully buffered.
                    self.advance(token);
                }
            }
        }
    }

    fn set_interest(&mut self, token: Token, interest: Interest) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.interest == interest {
            return;
        }
        conn.interest = interest;
        if self
            .poller
            .reregister(conn.stream.as_raw_fd(), token, interest)
            .is_err()
        {
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: Token) {
        if let Some(conn) = self.conns.remove(&token) {
            if let Some(handle) = &conn.push {
                handle.mark_dead();
            }
            self.poller.deregister(conn.stream.as_raw_fd());
            self.publish_gauge();
        }
    }

    fn publish_gauge(&self) {
        self.shared
            .open_connections
            .store(self.conns.len(), Ordering::Release);
    }
}

fn worker_loop(jobs: Receiver<Job>, done: Sender<Completion>, shared: Arc<Shared>) {
    while let Ok(job) = jobs.recv() {
        if let Some(d) = shared.latency {
            std::thread::sleep(d);
        }
        let response = shared.handler.handle(&job.request);
        shared.requests_served.fetch_add(1, Ordering::Relaxed);
        let token = job.token;
        let mut sent = 0;
        if let Some(stream) = job.direct.filter(|_| response.stream.is_none()) {
            let mut head = Vec::new();
            response.write_head(&mut head);
            sent = write_once(&stream, &head, &response.body);
            if sent == head.len() + response.body.len() {
                // Queued before the re-arm, so the poll thread drains it
                // before it can see the connection's next request.
                if done.send(Completion::Written(token)).is_err() {
                    break;
                }
                // Fails only if the poll thread closed the connection
                // meanwhile; then there is nothing to re-arm.
                let _ = shared
                    .rearmer
                    .rearm(stream.as_raw_fd(), token, Interest::READABLE);
                continue;
            }
        }
        let completion = Completion::Respond {
            token,
            response,
            sent,
        };
        if done.send(completion).is_err() {
            break;
        }
        shared.wake();
    }
}

/// One vectored write of `head` and `body` on a non-blocking socket. Returns
/// the bytes it took: everything, a prefix when the send buffer filled, or
/// zero on `EAGAIN` or an error (the poll thread's own write then meets the
/// error and closes the connection).
fn write_once(stream: &TcpStream, head: &[u8], body: &[u8]) -> usize {
    let bufs = [IoSlice::new(head), IoSlice::new(body)];
    loop {
        match (&*stream).write_vectored(&bufs) {
            Ok(n) => return n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return 0,
        }
    }
}

/// A running HTTP server. Dropping the value shuts it down and joins the
/// poll and worker threads.
pub struct HttpServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    poll_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving with `handler`.
    pub fn bind(addr: &str, config: ServerConfig, handler: Arc<dyn Handler>) -> Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;

        let (waker_rx, waker_tx) = UnixStream::pair()?;
        waker_rx.set_nonblocking(true)?;
        waker_tx.set_nonblocking(true)?;

        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
        poller.register(waker_rx.as_raw_fd(), WAKER_TOKEN, Interest::READABLE)?;

        let shared = Arc::new(Shared {
            handler,
            stop: AtomicBool::new(false),
            requests_served: AtomicU64::new(0),
            open_connections: AtomicUsize::new(0),
            latency: config.injected_latency,
            waker: waker_tx,
            rearmer: poller.rearmer(),
        });

        let (jobs_tx, jobs_rx) = unbounded::<Job>();
        let (done_tx, done_rx) = unbounded::<Completion>();
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let jobs_rx = jobs_rx.clone();
                let done_tx = done_tx.clone();
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("httpd-worker-{i}"))
                    .spawn(move || worker_loop(jobs_rx, done_tx, shared))
                    .expect("spawn worker thread")
            })
            .collect();

        let event_loop = EventLoop {
            poller,
            listener,
            waker_rx,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            jobs_tx,
            done_rx,
            shared: Arc::clone(&shared),
            max_connections: config.max_connections.max(1),
            accepting: true,
            push_tokens: Vec::new(),
        };
        let poll_thread = std::thread::Builder::new()
            .name("httpd-poll".into())
            .spawn(move || event_loop.run())
            .expect("spawn poll thread");

        Ok(HttpServer {
            addr: local,
            shared,
            poll_thread: Some(poll_thread),
            workers,
        })
    }

    /// The bound socket address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Base URL of this server.
    pub fn base_url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Total requests served so far.
    pub fn requests_served(&self) -> u64 {
        self.shared.requests_served.load(Ordering::Relaxed)
    }

    /// Connections currently parked on the event loop.
    pub fn open_connections(&self) -> usize {
        self.shared.open_connections.load(Ordering::Acquire)
    }

    /// Stop accepting, let in-flight responses flush (bounded grace), and
    /// join the poll and worker threads. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.wake();
        if let Some(t) = self.poll_thread.take() {
            let _ = t.join();
        }
        // The event loop's drop released the job sender; workers drain the
        // queue (responses now undeliverable) and exit.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;

    fn echo_server(workers: usize) -> HttpServer {
        let handler = Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone()));
        HttpServer::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers,
                ..Default::default()
            },
            handler,
        )
        .unwrap()
    }

    #[test]
    fn basic_roundtrip() {
        let server = echo_server(2);
        let client = HttpClient::new();
        let url = format!("{}/echo", server.base_url());
        let resp = client.post(&url, "text/plain", b"hello".to_vec()).unwrap();
        assert_eq!(resp.status, Status::OK);
        assert_eq!(resp.body, b"hello");
        assert_eq!(server.requests_served(), 1);
    }

    #[test]
    fn keep_alive_reuses_connection() {
        let server = echo_server(1);
        let client = HttpClient::new();
        let url = format!("{}/echo", server.base_url());
        for i in 0..5 {
            let body = format!("msg-{i}").into_bytes();
            let resp = client.post(&url, "text/plain", body.clone()).unwrap();
            assert_eq!(resp.body, body);
        }
        assert_eq!(server.requests_served(), 5);
    }

    #[test]
    fn concurrent_requests() {
        let server = echo_server(8);
        let url = format!("{}/echo", server.base_url());
        std::thread::scope(|scope| {
            for t in 0..8 {
                let url = url.clone();
                scope.spawn(move || {
                    let client = HttpClient::new();
                    for i in 0..20 {
                        let body = format!("t{t}-i{i}").into_bytes();
                        let resp = client.post(&url, "text/plain", body.clone()).unwrap();
                        assert_eq!(resp.body, body);
                    }
                });
            }
        });
        assert_eq!(server.requests_served(), 8 * 20);
    }

    #[test]
    fn more_connections_than_workers_make_progress() {
        // The regression behind the Figure 12 deadlock: idle keep-alive
        // connections must not starve the worker pool.
        let server = echo_server(2);
        let url = format!("{}/echo", server.base_url());
        std::thread::scope(|scope| {
            for t in 0..12 {
                let url = url.clone();
                scope.spawn(move || {
                    let client = HttpClient::new(); // separate pool per thread
                    for i in 0..5 {
                        let body = format!("t{t}-i{i}").into_bytes();
                        let resp = client.post(&url, "text/plain", body.clone()).unwrap();
                        assert_eq!(resp.body, body);
                    }
                });
            }
        });
        assert_eq!(server.requests_served(), 12 * 5);
    }

    #[test]
    fn worker_limit_bounds_concurrency() {
        use std::sync::atomic::AtomicUsize;
        static IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);
        static MAX_SEEN: AtomicUsize = AtomicUsize::new(0);
        let handler = Arc::new(|_: &Request| {
            let now = IN_FLIGHT.fetch_add(1, Ordering::SeqCst) + 1;
            MAX_SEEN.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(20));
            IN_FLIGHT.fetch_sub(1, Ordering::SeqCst);
            Response::ok("text/plain", vec![])
        });
        let server = HttpServer::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                ..Default::default()
            },
            handler,
        )
        .unwrap();
        let url = format!("{}/x", server.base_url());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let url = url.clone();
                scope.spawn(move || {
                    let client = HttpClient::new();
                    client.post(&url, "text/plain", vec![]).unwrap();
                });
            }
        });
        assert!(
            MAX_SEEN.load(Ordering::SeqCst) <= 2,
            "permits must cap concurrency, saw {}",
            MAX_SEEN.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn shutdown_is_idempotent_and_joins() {
        let mut server = echo_server(2);
        server.shutdown();
        server.shutdown();
    }

    #[test]
    fn injected_latency_slows_responses() {
        let handler = Arc::new(|_: &Request| Response::ok("text/plain", vec![]));
        let server = HttpServer::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                injected_latency: Some(Duration::from_millis(30)),
                ..Default::default()
            },
            handler,
        )
        .unwrap();
        let client = HttpClient::new();
        let url = format!("{}/x", server.base_url());
        let start = std::time::Instant::now();
        client.post(&url, "text/plain", vec![]).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn malformed_request_gets_400() {
        use std::io::{Read, Write};
        let server = echo_server(1);
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        sock.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut buf = String::new();
        sock.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
    }

    #[test]
    fn large_body_roundtrip() {
        let server = echo_server(2);
        let client = HttpClient::new();
        let url = format!("{}/echo", server.base_url());
        let body = vec![b'x'; 1_000_000];
        let resp = client
            .post(&url, "application/octet-stream", body.clone())
            .unwrap();
        assert_eq!(resp.body.len(), body.len());
    }

    #[test]
    fn pipelined_requests_answered_in_order() {
        use std::io::Write;
        let server = echo_server(2);
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        let mut wire = Vec::new();
        for i in 0..3 {
            Request::post("/p", "text/plain", format!("req-{i}").into_bytes())
                .write_to(&mut wire, "h:1")
                .unwrap();
        }
        sock.write_all(&wire).unwrap();
        let mut reader = std::io::BufReader::new(sock);
        for i in 0..3 {
            let resp = Response::read_from(&mut reader).unwrap();
            assert_eq!(resp.body, format!("req-{i}").into_bytes(), "response {i}");
        }
    }

    fn stream_server() -> (
        HttpServer,
        Arc<parking_lot::Mutex<Vec<crate::StreamWriter>>>,
    ) {
        let writers: Arc<parking_lot::Mutex<Vec<crate::StreamWriter>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let slot = Arc::clone(&writers);
        let handler = Arc::new(move |_: &Request| {
            let (resp, writer) = Response::stream("text/plain");
            slot.lock().push(writer);
            resp
        });
        let server = HttpServer::bind("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
        (server, writers)
    }

    fn open_push(server: &HttpServer) -> TcpStream {
        use std::io::Write;
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut wire = Vec::new();
        Request::get("/sub").write_to(&mut wire, "h:1").unwrap();
        sock.write_all(&wire).unwrap();
        sock
    }

    /// Read bytes until `needle` is seen; returns everything read.
    fn read_until(sock: &mut TcpStream, needle: &[u8]) -> Vec<u8> {
        let mut got = Vec::new();
        let mut byte = [0u8; 1];
        while !got.ends_with(needle) {
            let n = sock.read(&mut byte).expect("read from push stream");
            assert!(
                n > 0,
                "unexpected EOF; got {:?}",
                String::from_utf8_lossy(&got)
            );
            got.push(byte[0]);
        }
        got
    }

    #[test]
    fn streaming_response_delivers_chunks_incrementally() {
        let (server, writers) = stream_server();
        let mut sock = open_push(&server);
        let head = read_until(&mut sock, b"\r\n\r\n");
        let head = String::from_utf8_lossy(&head);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(
            head.to_ascii_lowercase()
                .contains("transfer-encoding: chunked"),
            "{head}"
        );
        assert!(
            !head.to_ascii_lowercase().contains("content-length"),
            "{head}"
        );

        let deadline = Instant::now() + Duration::from_secs(2);
        while writers.lock().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let writer = writers.lock()[0].clone();

        assert!(writer.send(b"one".to_vec()));
        assert_eq!(read_until(&mut sock, b"one\r\n"), b"3\r\none\r\n");
        assert!(writer.send(b"second".to_vec()));
        assert_eq!(read_until(&mut sock, b"second\r\n"), b"6\r\nsecond\r\n");

        // Closing the writer emits the terminator chunk, and the connection
        // goes back to keep-alive: a second request on the same socket is
        // served (with a second stream).
        writer.close();
        assert_eq!(read_until(&mut sock, b"0\r\n\r\n"), b"0\r\n\r\n");
        let mut wire = Vec::new();
        Request::get("/again").write_to(&mut wire, "h:1").unwrap();
        sock.write_all(&wire).unwrap();
        let head = read_until(&mut sock, b"\r\n\r\n");
        assert!(head.starts_with(b"HTTP/1.1 200"), "{head:?}");
        let deadline = Instant::now() + Duration::from_secs(2);
        while writers.lock().len() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let second = writers.lock()[1].clone();
        assert!(second.send(b"again".to_vec()));
        second.close();
        assert_eq!(
            read_until(&mut sock, b"0\r\n\r\n"),
            b"5\r\nagain\r\n0\r\n\r\n"
        );
        assert_eq!(server.requests_served(), 2, "both requests on one socket");
    }

    #[test]
    fn dead_subscriber_is_detected_without_stalling_others() {
        let (server, writers) = stream_server();
        let mut alive = open_push(&server);
        read_until(&mut alive, b"\r\n\r\n");
        let doomed = open_push(&server);
        let deadline = Instant::now() + Duration::from_secs(2);
        while writers.lock().len() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let (w_alive, w_doomed) = {
            let w = writers.lock();
            (w[0].clone(), w[1].clone())
        };
        drop(doomed); // peer vanishes mid-subscription
        let deadline = Instant::now() + Duration::from_secs(2);
        while !w_doomed.is_dead() && Instant::now() < deadline {
            w_doomed.send(b"poke".to_vec());
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(w_doomed.is_dead(), "event loop must notice the dead peer");
        assert!(!w_doomed.send(b"x".to_vec()));
        // The surviving subscriber still receives.
        assert!(w_alive.send(b"still-here".to_vec()));
        read_until(&mut alive, b"still-here\r\n");
        w_alive.close();
    }

    #[test]
    fn aborted_stream_closes_without_terminator() {
        let (server, writers) = stream_server();
        let mut sock = open_push(&server);
        read_until(&mut sock, b"\r\n\r\n");
        let deadline = Instant::now() + Duration::from_secs(2);
        while writers.lock().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Take the *only* writer out of the slot so dropping it aborts.
        let writer = writers.lock().remove(0);
        assert!(writer.send(b"partial".to_vec()));
        read_until(&mut sock, b"partial\r\n");
        drop(writer); // producer dies without close()
        let mut rest = Vec::new();
        sock.read_to_end(&mut rest).unwrap();
        assert!(
            !rest.ends_with(b"0\r\n\r\n"),
            "aborted stream must not write the clean terminator: {:?}",
            String::from_utf8_lossy(&rest)
        );
    }

    #[test]
    fn server_shutdown_marks_push_streams_dead() {
        let (mut server, writers) = stream_server();
        let mut sock = open_push(&server);
        read_until(&mut sock, b"\r\n\r\n");
        let deadline = Instant::now() + Duration::from_secs(2);
        while writers.lock().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let writer = writers.lock()[0].clone();
        assert!(writer.send(b"pre".to_vec()));
        server.shutdown();
        assert!(writer.is_dead(), "shutdown must reap parked push conns");
    }

    #[test]
    fn connection_limit_gets_503() {
        let handler = Arc::new(|_: &Request| Response::ok("text/plain", vec![]));
        let server = HttpServer::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                max_connections: 3,
                ..Default::default()
            },
            handler,
        )
        .unwrap();
        // Park three connections (the limit) by making a request on each and
        // keeping them open.
        let clients: Vec<HttpClient> = (0..3).map(|_| HttpClient::new()).collect();
        let url = format!("{}/x", server.base_url());
        for client in &clients {
            client.get(&url).unwrap();
        }
        // Wait for all three parked registrations to be visible.
        let deadline = Instant::now() + Duration::from_secs(2);
        while server.open_connections() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.open_connections(), 3);
        // The fourth connection is turned away at the door.
        use std::io::Read;
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        let mut buf = String::new();
        sock.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 503"), "{buf:?}");
    }
}
