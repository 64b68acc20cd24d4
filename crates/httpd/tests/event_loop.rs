//! Integration tests for the readiness-driven server and the client's
//! at-most-once retry discipline.
//!
//! The high-connection-count soak (1000+ parked keep-alive connections) is
//! behind the `soak` feature: `cargo test -p pperf-httpd --features soak`.

use pperf_httpd::{HttpClient, HttpError, HttpServer, Request, Response, ServerConfig, Status};
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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

/// Regression for the keep-alive desync: the old blocking server armed a
/// 100 ms read timeout and, when it fired mid-request, *restarted* parsing —
/// discarding the bytes its `BufReader` had already consumed. A client
/// trickling its request across longer pauses then desynced the connection.
/// The resumable parser must absorb arbitrary pauses at arbitrary split
/// points, including mid-header-name and mid-body.
#[test]
fn slow_client_trickle_survives_timeout_boundaries() {
    let server = echo_server(2);
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let pause = Duration::from_millis(150); // longer than the old 100 ms timeout
    let chunks: &[&[u8]] = &[
        b"POST /trickle HTTP/1.1\r\n",
        b"Content-Le", // split mid-header-name
        b"ngth: 5\r\nHost: h\r\n",
        b"\r\n",
        b"hel", // split mid-body
        b"lo",
    ];
    for chunk in chunks {
        sock.write_all(chunk).unwrap();
        std::thread::sleep(pause);
    }
    let mut reader = BufReader::new(sock.try_clone().unwrap());
    let resp = Response::read_from(&mut reader).unwrap();
    assert_eq!(resp.status, Status::OK);
    assert_eq!(resp.body, b"hello");
    // The connection must still be in sync: a second, normally-paced request
    // on the same socket gets its own correct answer.
    Request::post("/again", "text/plain", b"sync".to_vec())
        .write_to(&mut sock, "h:1")
        .unwrap();
    let resp = Response::read_from(&mut reader).unwrap();
    assert_eq!(resp.body, b"sync");
    assert_eq!(server.requests_served(), 2);
}

/// Regression for the duplicate-send bug: a pooled exchange that dies
/// *after* the request was flushed (server executed it, then closed without
/// responding) must NOT be silently retried — that would re-execute a
/// non-idempotent SOAP call. The client must surface
/// [`HttpError::ResponseLost`] and the scripted server must count exactly
/// one execution.
#[test]
fn failed_pooled_exchange_is_not_resent() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let executed = Arc::new(AtomicUsize::new(0));
    let server_executed = Arc::clone(&executed);
    let script = std::thread::spawn(move || {
        // Connection 1: answer the first request (pooling it client-side),
        // then read the second non-idempotent request, "execute" it, and
        // close without responding.
        let (sock, _) = listener.accept().unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(sock.try_clone().unwrap());
        let mut writer = BufWriter::new(sock);
        let first = Request::read_from(&mut reader).unwrap().unwrap();
        assert_eq!(first.body, b"warm-up");
        Response::ok("text/plain", b"ok".to_vec())
            .write_to(&mut writer)
            .unwrap();
        let second = Request::read_from(&mut reader).unwrap().unwrap();
        assert_eq!(second.body, b"createService");
        server_executed.fetch_add(1, Ordering::SeqCst);
        drop(writer); // connection closed, no response: the ambiguous case
        drop(reader);
        // A buggy client now reconnects and re-sends; count anything that
        // arrives within the grace window as a duplicate execution.
        listener.set_nonblocking(true).unwrap();
        let deadline = Instant::now() + Duration::from_millis(500);
        while Instant::now() < deadline {
            match listener.accept() {
                Ok((retry, _)) => {
                    retry
                        .set_read_timeout(Some(Duration::from_secs(2)))
                        .unwrap();
                    let mut reader = BufReader::new(retry);
                    if Request::read_from(&mut reader).ok().flatten().is_some() {
                        server_executed.fetch_add(1, Ordering::SeqCst);
                    }
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    });

    let client = HttpClient::new();
    let url = format!("http://{addr}/svc");
    // Warm-up puts a live connection in the pool.
    let resp = client.post(&url, "text/xml", b"warm-up".to_vec()).unwrap();
    assert_eq!(resp.body, b"ok");
    // The non-idempotent call: fully written, then the connection dies.
    let err = client
        .post(&url, "text/xml", b"createService".to_vec())
        .unwrap_err();
    assert!(
        matches!(err, HttpError::ResponseLost(_)),
        "expected ResponseLost, got {err:?}"
    );
    script.join().unwrap();
    assert_eq!(
        executed.load(Ordering::SeqCst),
        1,
        "the non-idempotent request must be executed exactly once"
    );
}

/// A stale pooled connection (server restarted) is detected by the probe
/// before anything is flushed, so the retry on a fresh connection is safe —
/// and the replacement server sees the request exactly once.
#[test]
fn stale_pool_probe_allows_safe_retry() {
    let handler = Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone()));
    let mut first = HttpServer::bind("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
    let addr = first.addr();
    let client = HttpClient::new();
    let url = format!("http://{addr}/x");
    assert_eq!(
        client
            .post(&url, "text/plain", b"one".to_vec())
            .unwrap()
            .body,
        b"one"
    );
    first.shutdown();
    drop(first);
    // Rebind the same port with a counting handler.
    let counted = Arc::new(AtomicUsize::new(0));
    let counted_handler = Arc::clone(&counted);
    let handler = Arc::new(move |req: &Request| {
        counted_handler.fetch_add(1, Ordering::SeqCst);
        Response::ok("text/plain", req.body.clone())
    });
    let _second = HttpServer::bind(&addr.to_string(), ServerConfig::default(), handler).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let the old FIN land
    let resp = client.post(&url, "text/plain", b"two".to_vec()).unwrap();
    assert_eq!(resp.body, b"two");
    assert_eq!(counted.load(Ordering::SeqCst), 1);
}

/// Shutdown under load: in-flight requests get their responses within the
/// grace period, the server stops promptly, and nothing deadlocks.
#[test]
fn shutdown_under_load_is_prompt_and_graceful() {
    let handler = Arc::new(|req: &Request| {
        std::thread::sleep(Duration::from_millis(10));
        Response::ok("text/plain", req.body.clone())
    });
    let mut server = HttpServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            ..Default::default()
        },
        handler,
    )
    .unwrap();
    let url = format!("{}/x", server.base_url());
    let ok = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let url = url.clone();
            let ok = Arc::clone(&ok);
            scope.spawn(move || {
                let client = HttpClient::new();
                // Errors end the loop: the server went away mid-run, which
                // is the expected way out.
                while let Ok(resp) = client.post(&url, "text/plain", b"load".to_vec()) {
                    assert_eq!(resp.body, b"load");
                    ok.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        std::thread::sleep(Duration::from_millis(100));
        let started = Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(7),
            "shutdown exceeded the grace period: {:?}",
            started.elapsed()
        );
    });
    assert!(ok.load(Ordering::SeqCst) > 0, "no request ever succeeded");
}

/// Park `parked` raw keep-alive connections, then prove a small worker pool
/// still makes progress for real clients and that every parked connection
/// remains usable.
fn parked_connections_roundtrip(parked: usize, workers: usize) {
    let server = echo_server(workers);
    let mut socks = Vec::with_capacity(parked);
    for _ in 0..parked {
        let sock = TcpStream::connect(server.addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        socks.push(sock);
    }
    // All registrations visible: each parked connection costs only an fd.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.open_connections() < parked && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.open_connections(), parked, "parked connections");

    // With everything parked, a pooled client still gets served.
    let client = HttpClient::new();
    let url = format!("{}/echo", server.base_url());
    for i in 0..10 {
        let body = format!("client-{i}").into_bytes();
        assert_eq!(
            client.post(&url, "text/plain", body.clone()).unwrap().body,
            body
        );
    }

    // Every parked connection can wake up and make a request.
    for (i, sock) in socks.iter_mut().enumerate() {
        let body = format!("parked-{i}").into_bytes();
        Request::post("/echo", "text/plain", body.clone())
            .write_to(sock, "h:1")
            .unwrap();
        let mut reader = BufReader::new(sock.try_clone().unwrap());
        let resp = Response::read_from(&mut reader).unwrap();
        assert_eq!(resp.body, body, "parked connection {i}");
    }
    assert_eq!(server.requests_served(), parked as u64 + 10);
    // The pooled HttpClient holds one more keep-alive connection of its own.
    assert!(
        server.open_connections() >= parked,
        "keep-alive connections must survive their exchanges: {} < {parked}",
        server.open_connections()
    );
}

/// Default-scale variant (always on): hundreds of parked connections on a
/// 4-worker host.
#[test]
fn hundreds_of_parked_connections_make_progress() {
    parked_connections_roundtrip(256, 4);
}

/// The Figure 12 capacity-model soak: one host, `workers = 4`, carrying
/// 1000+ parked keep-alive connections — far past its thread count — while
/// every connection stays live and served.
#[cfg(feature = "soak")]
#[test]
fn soak_1000_idle_connections_one_host() {
    parked_connections_roundtrip(1100, 4);
}

/// A buffered body far larger than the socket buffers: the worker's one
/// write takes only a prefix, and the poll thread must finish the response
/// byte-exact and then return the connection to keep-alive.
#[test]
fn partial_worker_write_is_finished_by_the_loop() {
    const BIG: usize = 16 * 1024 * 1024;
    let handler = Arc::new(|req: &Request| {
        if req.path == "/big" {
            let body = (0..BIG).map(|i| (i % 251) as u8).collect();
            Response::ok("application/octet-stream", body)
        } else {
            Response::ok("text/plain", req.body.clone())
        }
    });
    let server = HttpServer::bind("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    Request::get("/big").write_to(&mut sock, "h:1").unwrap();
    let mut reader = BufReader::new(sock.try_clone().unwrap());
    let resp = Response::read_from(&mut reader).unwrap();
    assert_eq!(resp.status, Status::OK);
    assert_eq!(resp.body.len(), BIG);
    assert!(
        resp.body
            .iter()
            .enumerate()
            .all(|(i, &b)| b == (i % 251) as u8),
        "body bytes out of order"
    );
    Request::post("/echo", "text/plain", b"after".to_vec())
        .write_to(&mut sock, "h:1")
        .unwrap();
    assert_eq!(Response::read_from(&mut reader).unwrap().body, b"after");
    assert_eq!(server.requests_served(), 2);
}

/// Holds handlers until the test opens it, counting those waiting.
#[derive(Default)]
struct Gate {
    state: Mutex<(usize, bool)>,
    changed: Condvar,
}

impl Gate {
    /// Called by a handler: count in, then wait until opened.
    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        state.0 += 1;
        self.changed.notify_all();
        while !state.1 {
            state = self.changed.wait(state).unwrap();
        }
    }

    /// Wait until `n` handlers are held.
    fn wait_held(&self, n: usize) {
        let mut state = self.state.lock().unwrap();
        while state.0 < n {
            let (next, timeout) = self
                .changed
                .wait_timeout(state, Duration::from_secs(10))
                .unwrap();
            assert!(!timeout.timed_out(), "only {} handlers arrived", next.0);
            state = next;
        }
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.changed.notify_all();
    }
}

/// Peers that hang up while their request is on a worker: the response is
/// undeliverable, nothing panics, every connection is reaped, and the
/// workers go on serving.
#[test]
fn peer_closing_mid_handle_is_reaped() {
    let gate = Arc::new(Gate::default());
    let held = Arc::clone(&gate);
    let handler = Arc::new(move |req: &Request| {
        if req.path == "/held" {
            held.pass();
        }
        Response::ok("text/plain", req.body.clone())
    });
    let server = HttpServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            ..Default::default()
        },
        handler,
    )
    .unwrap();
    let mut socks = Vec::new();
    for i in 0..4 {
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        Request::post("/held", "text/plain", format!("gone-{i}").into_bytes())
            .write_to(&mut sock, "h:1")
            .unwrap();
        socks.push(sock);
    }
    gate.wait_held(4);
    for (i, sock) in socks.into_iter().enumerate() {
        if i % 2 == 1 {
            // Half-close first: the server sees EOF before the reset.
            sock.shutdown(std::net::Shutdown::Write).unwrap();
        }
        drop(sock);
    }
    gate.open();
    let deadline = Instant::now() + Duration::from_secs(10);
    while (server.requests_served() < 4 || server.open_connections() > 0)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.requests_served(), 4);
    assert_eq!(server.open_connections(), 0, "closed peers must be reaped");
    let client = HttpClient::new();
    let url = format!("{}/echo", server.base_url());
    assert_eq!(
        client
            .post(&url, "text/plain", b"alive".to_vec())
            .unwrap()
            .body,
        b"alive"
    );
}

/// A request written only after the previous one reached a worker (so the
/// worker writes the first response itself and re-arms the connection) is
/// read, served and answered in order on the same connection.
#[test]
fn request_sent_after_dispatch_is_answered_in_order() {
    let gates: Arc<Mutex<Vec<Arc<Gate>>>> = Arc::default();
    let current = Arc::clone(&gates);
    let handler = Arc::new(move |req: &Request| {
        if req.path == "/held" {
            let gate = Arc::clone(current.lock().unwrap().last().expect("gate set"));
            gate.pass();
        }
        Response::ok("text/plain", req.body.clone())
    });
    let server = HttpServer::bind("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(sock.try_clone().unwrap());
    for round in 0..3 {
        let gate = Arc::new(Gate::default());
        gates.lock().unwrap().push(Arc::clone(&gate));
        Request::post("/held", "text/plain", format!("first-{round}").into_bytes())
            .write_to(&mut sock, "h:1")
            .unwrap();
        // The first request is on a worker; the second arrives while the
        // connection is parked.
        gate.wait_held(1);
        Request::post(
            "/next",
            "text/plain",
            format!("second-{round}").into_bytes(),
        )
        .write_to(&mut sock, "h:1")
        .unwrap();
        gate.open();
        for want in [format!("first-{round}"), format!("second-{round}")] {
            let resp = Response::read_from(&mut reader).unwrap();
            assert_eq!(resp.body, want.into_bytes(), "round {round}");
        }
    }
    assert_eq!(server.requests_served(), 6);
    assert_eq!(server.open_connections(), 1);
}
