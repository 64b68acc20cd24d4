//! The Grid service hosting environment.
//!
//! The container plays the role of Apache Axis + Tomcat in the thesis's
//! Services Layer (Fig. 6): it receives SOAP-over-HTTP messages, demarshals
//! them, routes them to the right deployed component, handles the standard
//! OGSI PortType operations itself (findServiceData, setTerminationTime,
//! destroy, createService, notifications), and marshals results or faults
//! back onto the wire.
//!
//! Services live at paths under `/ogsa/services/`:
//!
//! * persistent services and factories at `/ogsa/services/{name}`,
//! * transient instances at `/ogsa/services/{name}/instances/{n}` where `n`
//!   is a container-wide monotonic counter — the uniqueness guarantee GSHs
//!   require.
//!
//! A background sweeper enforces soft-state lifetimes: instances whose
//! termination time has passed are destroyed exactly as if a client had
//! called `destroy` (thesis Table 3, SetTerminationTime).

use crate::error::{OgsiError, Result};
use crate::factory::Factory;
use crate::gsh::Gsh;
use crate::notification::NotificationHub;
use crate::service::ServicePort;
use crate::service_data::ServiceData;
use crate::{framed_operation, FRAMED_PATH};
use parking_lot::{Mutex, RwLock};
use pperf_httpd::{Handler, HttpClient, HttpServer, Request, Response, ServerConfig, Status};
use pperf_soap::{
    decode_binary_batch_call, decode_call_with_context, encode_batch_stream_head,
    encode_entry_fault, encode_entry_head, encode_fault, encode_response, encode_stream_fault,
    BatchEntry, Call, Fault, FrameWriter, Value, DEFAULT_STREAM_FRAME_BYTES, STREAM_CONTENT_TYPE,
};
use ppg_context::CallContext;
use ppg_notify::{
    NotificationSource, SUBSCRIBE_PATH, TOPIC_CACHE_INVALIDATE, TOPIC_SERVICE_DATA,
    UNSUBSCRIBE_PATH,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Container tuning knobs.
#[derive(Debug, Clone)]
pub struct ContainerConfig {
    /// HTTP handler threads. With the readiness-driven server this bounds
    /// *in-flight handler* concurrency only — idle keep-alive connections
    /// park on the event loop without holding a thread, so `workers` is the
    /// Figure 12 unit of host capacity rather than a connection cap.
    pub workers: usize,
    /// Artificial per-request latency, to emulate a LAN (see
    /// [`ServerConfig::injected_latency`]).
    pub injected_latency: Option<Duration>,
    /// Default lifetime granted to new transient instances. `None` means
    /// instances live until explicitly destroyed.
    pub default_lifetime: Option<Duration>,
    /// How often the lifetime sweeper runs.
    pub sweep_interval: Duration,
    /// Cap on simultaneously open HTTP connections (parked keep-alive ones
    /// included); beyond it, new connections are refused with 503 (see
    /// [`ServerConfig::max_connections`]).
    pub max_connections: usize,
    /// Emit one structured log line per SOAP request (request id, operation,
    /// outcome, elapsed time). Defaults to the `PPG_ACCESS_LOG=1` env var.
    pub access_log: bool,
    /// Speak the push notification plane: serve `POST /ogsa/subscribe` /
    /// `POST /ogsa/unsubscribe` and publish service-data deltas and
    /// result-cache invalidations to subscribers. `false` models a legacy
    /// site — subscribes 404 and clients fall back to TTL polling.
    pub notifications_enabled: bool,
    /// Serve the framed PPGB route, `POST /ogsa/batch-stream`, producing
    /// stream frames as the consumer drains them. `false` models a legacy
    /// site — the route 404s, which is the client's cue to fall back to
    /// per-call SOAP/XML.
    pub streaming_enabled: bool,
    /// In-flight byte window per framed stream: the producer thread parks
    /// once this many encoded bytes are queued ahead of the socket, so a
    /// slow reader backpressures the scan instead of ballooning memory.
    /// `0` means unbounded (not recommended outside tests).
    pub stream_window_bytes: usize,
}

impl Default for ContainerConfig {
    fn default() -> Self {
        ContainerConfig {
            workers: 16,
            injected_latency: None,
            default_lifetime: None,
            sweep_interval: Duration::from_millis(250),
            max_connections: ServerConfig::default().max_connections,
            access_log: std::env::var("PPG_ACCESS_LOG").is_ok_and(|v| v == "1"),
            notifications_enabled: true,
            streaming_enabled: true,
            stream_window_bytes: 4 * DEFAULT_STREAM_FRAME_BYTES,
        }
    }
}

enum Kind {
    /// Long-lived service deployed at container start (Registry, Manager...).
    Persistent,
    /// A factory; `createService` routes to it.
    Factory(Arc<dyn Factory>),
    /// A transient instance with a soft-state lifetime.
    Instance { termination: Mutex<Option<Instant>> },
}

struct Deployed {
    port: Arc<dyn ServicePort>,
    kind: Kind,
    created: Instant,
}

struct Inner {
    host: String,
    port: AtomicU64, // u16 widened; set once after bind
    services: RwLock<HashMap<String, Arc<Deployed>>>,
    instance_counter: AtomicU64,
    instances_created: AtomicU64,
    instances_destroyed: AtomicU64,
    config: ContainerConfig,
    hub: NotificationHub,
    /// Push notification source; `None` models a legacy, poll-only site.
    notify: Option<Arc<NotificationSource>>,
    stopping: AtomicBool,
    /// SOAP requests dispatched (POSTs that decoded to a call).
    requests: AtomicU64,
    /// Calls refused at entry or completed with a deadline-exceeded fault.
    deadline_exceeded: AtomicU64,
    /// `POST /ogsa/cancel` messages received (matched or not).
    cancels_received: AtomicU64,
    /// Calls that completed with a cancellation fault.
    cancelled_calls: AtomicU64,
    /// Framed calls (`POST /ogsa/batch-stream`) received; the rest of
    /// `requests` rode per-call SOAP/XML.
    batch_stream_calls: AtomicU64,
    /// Sub-call entries carried by those batch streams.
    batch_stream_entries: AtomicU64,
    /// PPGB frames (heads + data + trailers + faults) sent on batch streams.
    batch_stream_frames: AtomicU64,
    /// Rows carried by batch-stream data frames.
    batch_stream_rows: AtomicU64,
    /// Batch-stream entries sealed by an in-band entry fault frame.
    batch_stream_faults: AtomicU64,
    /// High-water mark of encoded bytes any one framed stream held queued
    /// ahead of its socket — the interleaved producers share one window, so
    /// this stays within `stream_window_bytes` plus one sealing frame.
    batch_stream_peak_queued: AtomicU64,
    /// In-flight calls by cancel key, so `POST /ogsa/cancel` can flip the
    /// right leg's flag while its handler is still running.
    active: Mutex<HashMap<String, CallContext>>,
    /// CPUs this process may run on, read once at start
    /// (`available_parallelism` honours the affinity mask and the cgroup
    /// quota). Batches never run more producers than this.
    cpus: usize,
}

impl Inner {
    /// Producer threads for a framed call of `entries`: one per entry, capped at
    /// [`BATCH_PARALLELISM`] and at the CPUs the process may run on — a
    /// producer beyond the CPU count only adds a thread spawn and contends
    /// for a core that is already busy.
    fn batch_producers(&self, entries: usize) -> usize {
        entries.min(BATCH_PARALLELISM).min(self.cpus)
    }

    fn port_u16(&self) -> u16 {
        self.port.load(Ordering::Acquire) as u16
    }

    fn gsh_for_path(&self, path: &str) -> Gsh {
        Gsh::from_parts(&self.host, self.port_u16(), path)
    }

    fn lookup(&self, path: &str) -> Option<Arc<Deployed>> {
        self.services.read().get(path).cloned()
    }

    /// Remove and finalize an instance. Idempotent per path.
    fn destroy_path(&self, path: &str) -> bool {
        let removed = self.services.write().remove(path);
        match removed {
            Some(dep) => {
                dep.port.on_destroy();
                self.instances_destroyed.fetch_add(1, Ordering::Relaxed);
                if let Some(src) = &self.notify {
                    src.publish(TOPIC_SERVICE_DATA, &format!("destroy|{path}"));
                    // Cached results bound to this instance are now stale.
                    src.publish(TOPIC_CACHE_INVALIDATE, path);
                }
                true
            }
            None => false,
        }
    }

    fn sweep_expired(&self) {
        let now = Instant::now();
        let expired: Vec<String> = {
            let services = self.services.read();
            services
                .iter()
                .filter(|(_, dep)| match &dep.kind {
                    Kind::Instance { termination } => termination.lock().is_some_and(|t| t <= now),
                    _ => false,
                })
                .map(|(path, _)| path.clone())
                .collect()
        };
        for path in expired {
            self.destroy_path(&path);
        }
    }
}

/// A running Grid service container.
pub struct Container {
    inner: Arc<Inner>,
    server: Mutex<Option<HttpServer>>,
    sweeper: Mutex<Option<std::thread::JoinHandle<()>>>,
}

struct Dispatch {
    inner: Weak<Inner>,
}

impl Handler for Dispatch {
    fn handle(&self, request: &Request) -> Response {
        let Some(inner) = self.inner.upgrade() else {
            return Response::text(Status::SERVICE_UNAVAILABLE, "container stopped");
        };
        dispatch(&inner, request)
    }
}

impl Container {
    /// Start a container bound to `addr` (use port 0 for an ephemeral port).
    pub fn start(addr: &str, config: ContainerConfig) -> Result<Arc<Container>> {
        let host = addr.rsplit_once(':').map(|(h, _)| h).unwrap_or("127.0.0.1");
        let inner = Arc::new(Inner {
            host: host.to_owned(),
            port: AtomicU64::new(0),
            services: RwLock::new(HashMap::new()),
            instance_counter: AtomicU64::new(0),
            instances_created: AtomicU64::new(0),
            instances_destroyed: AtomicU64::new(0),
            config: config.clone(),
            hub: NotificationHub::new(Arc::new(HttpClient::new())),
            notify: config
                .notifications_enabled
                .then(|| Arc::new(NotificationSource::new())),
            stopping: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            cancels_received: AtomicU64::new(0),
            cancelled_calls: AtomicU64::new(0),
            batch_stream_calls: AtomicU64::new(0),
            batch_stream_entries: AtomicU64::new(0),
            batch_stream_frames: AtomicU64::new(0),
            batch_stream_rows: AtomicU64::new(0),
            batch_stream_faults: AtomicU64::new(0),
            batch_stream_peak_queued: AtomicU64::new(0),
            active: Mutex::new(HashMap::new()),
            cpus: std::thread::available_parallelism().map_or(1, usize::from),
        });
        let handler = Arc::new(Dispatch {
            inner: Arc::downgrade(&inner),
        });
        let server = HttpServer::bind(
            addr,
            ServerConfig {
                workers: config.workers,
                injected_latency: config.injected_latency,
                max_connections: config.max_connections,
                ..Default::default()
            },
            handler,
        )?;
        inner
            .port
            .store(u64::from(server.addr().port()), Ordering::Release);

        // Lifetime sweeper.
        let sweep_inner = Arc::downgrade(&inner);
        let interval = config.sweep_interval;
        let sweeper = std::thread::Builder::new()
            .name("ogsi-sweeper".into())
            .spawn(move || loop {
                std::thread::sleep(interval);
                match sweep_inner.upgrade() {
                    Some(inner) => {
                        if inner.stopping.load(Ordering::Acquire) {
                            break;
                        }
                        inner.sweep_expired();
                        // Subscriptions share the soft-state sweep cadence.
                        if let Some(src) = &inner.notify {
                            src.sweep();
                        }
                    }
                    None => break,
                }
            })
            .expect("spawn sweeper");

        Ok(Arc::new(Container {
            inner,
            server: Mutex::new(Some(server)),
            sweeper: Mutex::new(Some(sweeper)),
        }))
    }

    /// The container's base URL.
    pub fn base_url(&self) -> String {
        format!("http://{}:{}", self.inner.host, self.inner.port_u16())
    }

    /// Deploy a persistent (non-transient) service under
    /// `/ogsa/services/{name}`. Returns its handle.
    pub fn deploy_service(&self, name: &str, port: Arc<dyn ServicePort>) -> Result<Gsh> {
        let path = format!("/ogsa/services/{name}");
        self.deploy_at(
            &path,
            Deployed {
                port,
                kind: Kind::Persistent,
                created: Instant::now(),
            },
        )
    }

    /// Deploy a factory under `/ogsa/services/{name}`. Returns its handle.
    pub fn deploy_factory(&self, name: &str, factory: Arc<dyn Factory>) -> Result<Gsh> {
        let path = format!("/ogsa/services/{name}");
        let port: Arc<dyn ServicePort> = Arc::new(FactoryPort {
            factory: Arc::clone(&factory),
        });
        self.deploy_at(
            &path,
            Deployed {
                port,
                kind: Kind::Factory(factory),
                created: Instant::now(),
            },
        )
    }

    fn deploy_at(&self, path: &str, deployed: Deployed) -> Result<Gsh> {
        let port = Arc::clone(&deployed.port);
        {
            let mut services = self.inner.services.write();
            if services.contains_key(path) {
                return Err(OgsiError::Deployment(format!("{path} already deployed")));
            }
            services.insert(path.to_owned(), Arc::new(deployed));
        }
        port.on_deploy(self.inner.notify.as_ref());
        Ok(self.inner.gsh_for_path(path))
    }

    /// Remove a deployed service/factory/instance by name or full path.
    pub fn undeploy(&self, name_or_path: &str) -> bool {
        let path = if name_or_path.starts_with('/') {
            name_or_path.to_owned()
        } else {
            format!("/ogsa/services/{name_or_path}")
        };
        self.inner.destroy_path(&path)
    }

    /// The handle a service deployed as `name` would have.
    pub fn gsh_for(&self, name: &str) -> Gsh {
        self.inner.gsh_for_path(&format!("/ogsa/services/{name}"))
    }

    /// Create an instance of a deployed factory *in process*, bypassing SOAP.
    ///
    /// The thesis notes Grid services "can be composed and aggregated" as
    /// software components (§5.3.1.4); co-located composition skips the wire.
    /// Returns the new instance's handle, exactly as `createService` would.
    pub fn create_local_instance(&self, factory_name: &str, call: &Call) -> Result<Gsh> {
        let path = format!("/ogsa/services/{factory_name}");
        let dep = self
            .inner
            .lookup(&path)
            .ok_or_else(|| OgsiError::NotFound(path.clone()))?;
        let Kind::Factory(factory) = &dep.kind else {
            return Err(OgsiError::Deployment(format!("{path} is not a factory")));
        };
        let port = factory.create(call).map_err(OgsiError::Fault)?;
        Ok(self.register_instance(&path, port))
    }

    fn register_instance(&self, factory_path: &str, port: Arc<dyn ServicePort>) -> Gsh {
        register_instance_inner(&self.inner, factory_path, port)
    }

    /// Number of live transient instances.
    pub fn live_instances(&self) -> usize {
        self.inner
            .services
            .read()
            .values()
            .filter(|d| matches!(d.kind, Kind::Instance { .. }))
            .count()
    }

    /// Counters: `(instances_created, instances_destroyed)`.
    pub fn instance_counters(&self) -> (u64, u64) {
        (
            self.inner.instances_created.load(Ordering::Relaxed),
            self.inner.instances_destroyed.load(Ordering::Relaxed),
        )
    }

    /// Publish a notification on `topic` from the service at `source_path`;
    /// delivered to every subscribed sink.
    pub fn notify(&self, source_path: &str, topic: &str, message: &str) {
        self.inner.hub.publish(source_path, topic, message);
    }

    /// Deadline/cancellation counters:
    /// `(requests, deadline_exceeded, cancels_received, cancelled_calls)`.
    pub fn context_counters(&self) -> (u64, u64, u64, u64) {
        (
            self.inner.requests.load(Ordering::Relaxed),
            self.inner.deadline_exceeded.load(Ordering::Relaxed),
            self.inner.cancels_received.load(Ordering::Relaxed),
            self.inner.cancelled_calls.load(Ordering::Relaxed),
        )
    }

    /// Framed-route counters: `(calls, entries, frames, rows, faults)` —
    /// framed calls received on `POST /ogsa/batch-stream`, the sub-call
    /// entries they carried, PPGB frames sent (heads, data, trailers,
    /// faults), rows those data frames carried, and entries that sealed
    /// with an in-band fault instead of a trailer.
    pub fn batch_stream_counters(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.inner.batch_stream_calls.load(Ordering::Relaxed),
            self.inner.batch_stream_entries.load(Ordering::Relaxed),
            self.inner.batch_stream_frames.load(Ordering::Relaxed),
            self.inner.batch_stream_rows.load(Ordering::Relaxed),
            self.inner.batch_stream_faults.load(Ordering::Relaxed),
        )
    }

    /// High-water mark of encoded bytes any one framed stream held queued
    /// ahead of its socket. All interleaved entry producers share one
    /// bounded window, so this stays within `stream_window_bytes` plus one
    /// sealing frame — bounded buffering no matter how many entries the
    /// batch carries.
    pub fn batch_stream_peak_queued(&self) -> u64 {
        self.inner.batch_stream_peak_queued.load(Ordering::Relaxed)
    }

    /// The container's push notification source, or `None` when this
    /// container models a legacy, poll-only site.
    pub fn notification_source(&self) -> Option<&Arc<NotificationSource>> {
        self.inner.notify.as_ref()
    }

    /// Currently open HTTP connections, parked keep-alive ones included.
    pub fn open_connections(&self) -> usize {
        self.server
            .lock()
            .as_ref()
            .map_or(0, HttpServer::open_connections)
    }

    /// Stop the container: shut the HTTP server down and join the sweeper.
    pub fn shutdown(&self) {
        self.inner.stopping.store(true, Ordering::Release);
        if let Some(mut server) = self.server.lock().take() {
            server.shutdown();
        }
        if let Some(sweeper) = self.sweeper.lock().take() {
            let _ = sweeper.join();
        }
    }
}

impl Drop for Container {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Adapter exposing a [`Factory`] as a [`ServicePort`] for description and
/// service-data purposes (its `createService` op is intercepted by the
/// container's dispatch).
struct FactoryPort {
    factory: Arc<dyn Factory>,
}

impl ServicePort for FactoryPort {
    fn description(&self) -> pperf_soap::wsdl::ServiceDescription {
        self.factory.description()
    }

    fn invoke(&self, operation: &str, _call: &Call) -> std::result::Result<Value, Fault> {
        Err(Fault::client(format!(
            "operation {operation:?} is not implemented by this factory"
        )))
    }
}

fn register_instance_inner(
    inner: &Arc<Inner>,
    factory_path: &str,
    port: Arc<dyn ServicePort>,
) -> Gsh {
    let n = inner.instance_counter.fetch_add(1, Ordering::Relaxed);
    let deployed_port = Arc::clone(&port);
    let path = format!("{factory_path}/instances/{n}");
    let termination = inner
        .config
        .default_lifetime
        .map(|life| Instant::now() + life);
    inner.services.write().insert(
        path.clone(),
        Arc::new(Deployed {
            port,
            kind: Kind::Instance {
                termination: Mutex::new(termination),
            },
            created: Instant::now(),
        }),
    );
    inner.instances_created.fetch_add(1, Ordering::Relaxed);
    deployed_port.on_deploy(inner.notify.as_ref());
    if let Some(src) = &inner.notify {
        src.publish(TOPIC_SERVICE_DATA, &format!("create|{path}"));
    }
    inner.gsh_for_path(&path)
}

/// Top-level request dispatch (the architecture adapter's demarshalling /
/// decoding / routing stage).
fn dispatch(inner: &Arc<Inner>, request: &Request) -> Response {
    match request.method.as_str() {
        "GET" => dispatch_get(inner, request),
        "POST" => dispatch_post(inner, request),
        _ => Response::text(Status::METHOD_NOT_ALLOWED, "use GET or POST"),
    }
}

fn dispatch_get(inner: &Arc<Inner>, request: &Request) -> Response {
    if request.path == "/metrics" {
        return metrics_response(inner);
    }
    if request.path == "/ogsa/services" {
        // Diagnostic index of deployed paths.
        let mut paths: Vec<String> = inner.services.read().keys().cloned().collect();
        paths.sort();
        return Response::ok("text/plain; charset=utf-8", paths.join("\n").into_bytes());
    }
    let Some(dep) = inner.lookup(&request.path) else {
        return Response::text(Status::NOT_FOUND, format!("no service at {}", request.path));
    };
    if request.query == "wsdl" {
        return Response::xml(Status::OK, dep.port.description().to_xml());
    }
    Response::text(Status::OK, format!("grid service at {}", request.path))
}

fn dispatch_post(inner: &Arc<Inner>, request: &Request) -> Response {
    if request.path == SUBSCRIBE_PATH || request.path == UNSUBSCRIBE_PATH {
        return match &inner.notify {
            Some(src) if request.path == SUBSCRIBE_PATH => src.handle_subscribe(request),
            Some(src) => src.handle_unsubscribe(request),
            // A legacy site: the 404 is the subscriber's cue to stay on
            // TTL polling.
            None => Response::text(Status::NOT_FOUND, "notifications disabled"),
        };
    }
    if request.path == "/ogsa/cancel" {
        return handle_cancel(inner, request);
    }
    if request.path == FRAMED_PATH {
        return handle_framed(inner, request);
    }
    let started = Instant::now();
    let (call, soap_ctx) = match decode_call_with_context(&request.body_str()) {
        Ok(parts) => parts,
        Err(_) if inner.lookup(&request.path).is_none() => {
            // Nothing lives here (a retired route, a destroyed instance):
            // the 404 says so whatever the body was.
            return Response::text(Status::NOT_FOUND, format!("no service at {}", request.path));
        }
        Err(e) => {
            let fault = Fault::client(format!("malformed SOAP request: {e}"));
            return Response::xml(Status::BAD_REQUEST, encode_fault(&fault));
        }
    };
    inner.requests.fetch_add(1, Ordering::Relaxed);
    let ctx = resolve_context(request, soap_ctx);
    let site = format!("{}:{}", inner.host, inner.port_u16());

    let (outcome_tag, mut response) = if let Some(dep) = inner.lookup(&request.path) {
        if ctx.expired() {
            // The budget ran out in transit (or the leg was cancelled before
            // arrival): refuse to start doomed work.
            inner.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            let fault = Fault::deadline_exceeded(format!(
                "request {} arrived after its deadline",
                ctx.request_id()
            ));
            ctx.record_span(
                "ogsi.container",
                &call.method,
                &site,
                started,
                "deadline-exceeded",
            );
            (
                "deadline-exceeded",
                Response::xml(Status::INTERNAL_SERVER_ERROR, encode_fault(&fault)),
            )
        } else {
            let cancel_key = ctx.cancel_key();
            inner.active.lock().insert(cancel_key.clone(), ctx.clone());
            let _scope = ppg_context::scope(&ctx);
            let outcome = invoke_operation(inner, &request.path, &dep, &call, &ctx);
            inner.active.lock().remove(&cancel_key);
            let tag = match &outcome {
                Ok(_) => "ok",
                Err(f) if f.is_deadline_exceeded() => {
                    inner.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                    "deadline-exceeded"
                }
                Err(f) if f.is_cancelled() => {
                    inner.cancelled_calls.fetch_add(1, Ordering::Relaxed);
                    "cancelled"
                }
                Err(_) => "fault",
            };
            ctx.record_span("ogsi.container", &call.method, &site, started, tag);
            let response = match outcome {
                Ok(value) => Response::xml(Status::OK, encode_response(&call.method, &value)),
                Err(fault) => Response::xml(Status::INTERNAL_SERVER_ERROR, encode_fault(&fault)),
            };
            (tag, response)
        }
    } else {
        let fault = Fault::client(format!("no service at {}", request.path));
        ctx.record_span("ogsi.container", &call.method, &site, started, "not-found");
        (
            "not-found",
            Response::xml(Status::NOT_FOUND, encode_fault(&fault)),
        )
    };

    // Hand the trace back so the stub can stitch cross-site spans together.
    response
        .headers
        .set(ppg_context::REQUEST_ID_HEADER, ctx.request_id());
    let spans = ctx.spans();
    if !spans.is_empty() {
        response
            .headers
            .set(ppg_context::TRACE_HEADER, ppg_context::encode_trace(&spans));
    }
    if inner.config.access_log {
        eprintln!(
            "ppg-access request_id={} leg={} op={} path={} status={} outcome={} elapsed_us={} remaining_ms={}",
            ctx.request_id(),
            if ctx.leg_tag().is_empty() { "-" } else { ctx.leg_tag() },
            call.method,
            request.path,
            response.status.0,
            outcome_tag,
            started.elapsed().as_micros(),
            ctx.deadline_ms().map_or_else(|| "-".into(), |ms| ms.to_string()),
        );
    }
    response
}

/// Resolve the request's [`CallContext`]: HTTP headers are authoritative
/// (they carry the freshest remaining budget); the in-band context — SOAP
/// header block or PPGB context section — is the fallback for transports
/// that only forwarded the envelope. With neither, a fresh root context is
/// minted so the access log and trace still carry an id.
fn resolve_context(request: &Request, wire_ctx: Option<CallContext>) -> CallContext {
    if request
        .headers
        .get(ppg_context::REQUEST_ID_HEADER)
        .is_some()
    {
        CallContext::from_wire(
            request.headers.get(ppg_context::REQUEST_ID_HEADER),
            request.headers.get(ppg_context::DEADLINE_MS_HEADER),
            request.headers.get(ppg_context::LEG_HEADER),
        )
    } else {
        wire_ctx.unwrap_or_default()
    }
}

/// Cap on concurrently executing entries within one framed call: enough to
/// cover a full per-site fan-out without letting one huge call monopolize
/// the host's handler threads. The CPU count caps it further
/// ([`Inner::batch_producers`]).
const BATCH_PARALLELISM: usize = 8;

/// Run [`ServicePort::invoke_stream`] with a panic guard: a producer that
/// dies mid-scan becomes an in-band server fault instead of an unwinding
/// thread. Without this, the stream writer's abort-on-drop would dirty-close
/// the chunked body — the client still recovers (it surfaces a typed
/// `ResponseLost`), but sealing with a fault frame tells it *why*.
fn invoke_stream_guarded(
    port: &Arc<dyn ServicePort>,
    method: &str,
    call: &Call,
    ctx: &CallContext,
    sink: &mut dyn FnMut(Vec<String>) -> std::result::Result<(), Fault>,
) -> std::result::Result<u64, Fault> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        port.invoke_stream(method, call, ctx, sink)
    }))
    .unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic".to_owned());
        Err(Fault::server(format!("stream producer panicked: {msg}")))
    })
}

/// `POST /ogsa/batch-stream`: the framed route. The request is a kind-1
/// PPGB call frame of one or more entries; the answer is a stream of
/// interleaved sections. The body opens with a kind-8 head declaring the
/// entry count; each entry then contributes a kind-9 entry head,
/// entry-tagged kind-6 row frames, and an entry-tagged kind-7 trailer (or
/// kind-3 fault), in whatever order the producers yield. Every producer
/// shares one bounded in-flight window, so total buffering stays within
/// `stream_window_bytes` plus one sealing frame regardless of width.
///
/// Entry trailers carry no trace — the entries share one context, so
/// per-entry traces would replay the same spans N times — except in a
/// one-entry call, where nothing repeats: its trailer carries the
/// container's spans, since the response headers flushed before any
/// existed.
///
/// Error shape feeds negotiation: the route disabled answers 404 (the
/// client's cue to fall back to per-call XML); per-entry problems — unknown
/// target, non-streaming operation, a mid-scan fault — seal only that entry
/// and never poison its siblings.
fn handle_framed(inner: &Arc<Inner>, request: &Request) -> Response {
    if !inner.config.streaming_enabled {
        return Response::text(Status::NOT_FOUND, format!("no service at {}", request.path));
    }
    let started = Instant::now();
    let (entries, frame_ctx) = match decode_binary_batch_call(&request.body) {
        Ok(parts) => parts,
        Err(e) => {
            return Response::text(Status::BAD_REQUEST, format!("malformed PPGB frame: {e}"));
        }
    };
    if entries.is_empty() {
        return Response::text(Status::BAD_REQUEST, "framed call carried no entries");
    }
    inner.requests.fetch_add(1, Ordering::Relaxed);
    inner.batch_stream_calls.fetch_add(1, Ordering::Relaxed);
    inner
        .batch_stream_entries
        .fetch_add(entries.len() as u64, Ordering::Relaxed);
    let ctx = resolve_context(request, frame_ctx);
    let site = format!("{}:{}", inner.host, inner.port_u16());

    if ctx.expired() {
        // Doomed on arrival: a one-frame stream body carrying an untagged
        // (whole-call) fault — no producer thread.
        inner.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        let fault = Fault::deadline_exceeded(format!(
            "framed call {} arrived after its deadline",
            ctx.request_id()
        ));
        let operation = framed_operation(&entries);
        ctx.record_span(
            "ogsi.container",
            operation,
            &site,
            started,
            "deadline-exceeded",
        );
        let mut response = Response::ok(STREAM_CONTENT_TYPE, encode_stream_fault(&fault));
        response
            .headers
            .set(ppg_context::REQUEST_ID_HEADER, ctx.request_id());
        return response;
    }

    let (mut response, writer) =
        Response::stream_windowed(STREAM_CONTENT_TYPE, inner.config.stream_window_bytes);
    response
        .headers
        .set(ppg_context::REQUEST_ID_HEADER, ctx.request_id());

    let cancel_key = ctx.cancel_key();
    inner.active.lock().insert(cancel_key.clone(), ctx.clone());
    let producer_inner = Arc::clone(inner);
    let access_log = inner.config.access_log;
    std::thread::Builder::new()
        .name("ppg-batch-stream".into())
        .spawn(move || {
            let _scope = ppg_context::scope(&ctx);
            let outcome = run_framed(&producer_inner, &entries, &ctx, &writer, &site, started);
            producer_inner.active.lock().remove(&cancel_key);
            if access_log {
                eprintln!(
                    "ppg-access request_id={} leg={} op={} entries={} path={FRAMED_PATH} status=stream outcome={} elapsed_us={} remaining_ms={}",
                    ctx.request_id(),
                    if ctx.leg_tag().is_empty() { "-" } else { ctx.leg_tag() },
                    framed_operation(&entries),
                    entries.len(),
                    outcome,
                    started.elapsed().as_micros(),
                    ctx.deadline_ms().map_or_else(|| "-".into(), |ms| ms.to_string()),
                );
            }
        })
        .expect("spawn framed producer");
    response
}

/// Drive one framed call to completion: [`Inner::batch_producers`] threads
/// stream their entry chunks concurrently through the one shared windowed
/// writer, after the head. Entries within a chunk run serially; sections
/// from different chunks interleave frame by frame on the wire. With one
/// producer (one CPU, or one entry) this thread streams every entry itself,
/// in request order, and the head rides with the first entry's first send.
/// Returns the span outcome tag.
fn run_framed(
    inner: &Arc<Inner>,
    entries: &[BatchEntry],
    ctx: &CallContext,
    writer: &pperf_httpd::StreamWriter,
    site: &str,
    started: Instant,
) -> &'static str {
    use std::sync::atomic::AtomicUsize;
    let operation = framed_operation(entries);
    let head = encode_batch_stream_head(entries.len() as u32);
    inner.batch_stream_frames.fetch_add(1, Ordering::Relaxed);

    // A one-entry call is the whole call: its entry records the container
    // span itself and ships the trace in its trailer.
    let whole_call = (entries.len() == 1).then_some((site, started));
    let faulted = AtomicUsize::new(0);
    let workers = inner.batch_producers(entries.len());
    if workers <= 1 {
        let mut head = Some(head);
        for (index, entry) in entries.iter().enumerate() {
            let held = head.take().unwrap_or_default();
            if !run_framed_entry(inner, index as u32, entry, ctx, writer, whole_call, held) {
                faulted.fetch_add(1, Ordering::Relaxed);
            }
        }
    } else if !writer.send_blocking(head) {
        ctx.record_span("ogsi.container", operation, site, started, "reader-gone");
        writer.close();
        return "reader-gone";
    } else {
        let per = entries.len().div_ceil(workers);
        std::thread::scope(|scope| {
            for (chunk_index, chunk) in entries.chunks(per).enumerate() {
                let faulted = &faulted;
                scope.spawn(move || {
                    let _scope = ppg_context::scope(ctx);
                    for (offset, entry) in chunk.iter().enumerate() {
                        let index = (chunk_index * per + offset) as u32;
                        if !run_framed_entry(inner, index, entry, ctx, writer, None, Vec::new()) {
                            faulted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
    }

    inner
        .batch_stream_peak_queued
        .fetch_max(writer.peak_queued_bytes() as u64, Ordering::Relaxed);
    let tag = if writer.is_dead() {
        "reader-gone"
    } else if faulted.load(Ordering::Relaxed) == 0 {
        "ok"
    } else {
        "partial"
    };
    if whole_call.is_none() {
        ctx.record_span("ogsi.container", operation, site, started, tag);
    }
    writer.close();
    tag
}

/// Stream one entry's section: entry head, entry-tagged row frames,
/// entry-tagged trailer — or an entry fault that seals this entry alone.
/// With `whole_call` (`site`, call start) the entry is the entire call: its
/// outcome is the `ogsi.container` span, recorded before the trailer so the
/// trailer can carry the trace. `held` holds encoded frames not yet sent
/// (the call's head, for the first entry of a one-producer call). Returns
/// `true` when the entry sealed cleanly with a trailer.
///
/// Every send wakes the event loop, so small frames wait to share the next
/// send: the heads ride with the entry's first frame, and the sealing frames
/// go out together — a small answer is one send.
fn run_framed_entry(
    inner: &Arc<Inner>,
    index: u32,
    entry: &BatchEntry,
    ctx: &CallContext,
    writer: &pperf_httpd::StreamWriter,
    whole_call: Option<(&str, Instant)>,
    mut held: Vec<u8>,
) -> bool {
    let started = Instant::now();
    let record = |tag: &str| match whole_call {
        Some((site, call_started)) => {
            ctx.record_span("ogsi.container", &entry.method, site, call_started, tag)
        }
        None => ctx.record_span(
            "ogsi.batch-stream",
            &entry.method,
            &entry.path,
            started,
            tag,
        ),
    };
    held.extend_from_slice(&encode_entry_head(index));
    inner.batch_stream_frames.fetch_add(1, Ordering::Relaxed);

    let seal_with_fault = |held: Vec<u8>, fault: &Fault, tag: &'static str| {
        inner.batch_stream_faults.fetch_add(1, Ordering::Relaxed);
        if fault.is_deadline_exceeded() {
            inner.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        } else if fault.is_cancelled() {
            inner.cancelled_calls.fetch_add(1, Ordering::Relaxed);
        }
        let chunk = with_held(held, encode_entry_fault(index, fault));
        if !writer.is_dead() && writer.send_blocking(chunk) {
            inner.batch_stream_frames.fetch_add(1, Ordering::Relaxed);
        }
        record(tag);
    };

    let Some(dep) = inner.lookup(&entry.path) else {
        seal_with_fault(
            held,
            &Fault::client(format!("no service at {}", entry.path)),
            "not-found",
        );
        return false;
    };
    if !dep.port.supports_stream(&entry.method) {
        seal_with_fault(
            held,
            &Fault::client(format!("{} does not stream {:?}", entry.path, entry.method)),
            "not-streamable",
        );
        return false;
    }

    let call = Call {
        method: entry.method.clone(),
        namespace: entry.namespace.clone(),
        params: entry.params.clone(),
    };
    let mut frame_writer = FrameWriter::for_entry(DEFAULT_STREAM_FRAME_BYTES, index);
    let mut frames_sent = 0u64;
    let result = {
        let fw = &mut frame_writer;
        let frames = &mut frames_sent;
        let held = &mut held;
        let mut sink = |rows: Vec<String>| -> std::result::Result<(), Fault> {
            // Frame boundaries are the cancellation points: a spent budget
            // or cancelled leg stops the scan here, between batches.
            if ctx.expired() {
                return Err(if ctx.cancelled() {
                    Fault::cancelled("framed call cancelled by caller")
                } else {
                    Fault::deadline_exceeded("framed call deadline exceeded mid-flight")
                });
            }
            // Reuse buffers the event loop already flushed: each recycled
            // spare saves one encoder allocation per frame at steady state.
            if let Some(spare) = writer.take_spare() {
                fw.recycle(spare);
            }
            for row in rows {
                if let Some(frame) = fw.push(row) {
                    if !writer.send_blocking(with_held(std::mem::take(held), frame)) {
                        // Consumer hung up: abort the scan, nothing to send.
                        return Err(Fault::client("stream consumer disconnected"));
                    }
                    *frames += 1;
                }
            }
            Ok(())
        };
        invoke_stream_guarded(&dep.port, &entry.method, &call, ctx, &mut sink)
    };
    let sealed = match result {
        Ok(rows) => {
            let trace = match whole_call {
                Some(_) => {
                    record("ok");
                    ppg_context::encode_trace(&ctx.spans())
                }
                None => String::new(),
            };
            let frames = frame_writer.finish_with_trace(&trace);
            let sealing = frames.len() as u64;
            let sealed = writer.send_blocking(frames.into_iter().fold(held, with_held));
            if sealed {
                frames_sent += sealing;
                inner.batch_stream_rows.fetch_add(rows, Ordering::Relaxed);
            }
            if whole_call.is_none() {
                record(if sealed { "ok" } else { "reader-gone" });
            }
            sealed
        }
        Err(fault) => {
            let tag = if fault.is_deadline_exceeded() {
                "deadline-exceeded"
            } else if fault.is_cancelled() {
                "cancelled"
            } else if writer.is_dead() {
                "reader-gone"
            } else {
                "fault"
            };
            seal_with_fault(held, &fault, tag);
            false
        }
    };
    inner
        .batch_stream_frames
        .fetch_add(frames_sent, Ordering::Relaxed);
    sealed
}

/// `frame` with the `held` frames in front of it, as one send.
fn with_held(mut held: Vec<u8>, frame: Vec<u8>) -> Vec<u8> {
    if held.is_empty() {
        return frame;
    }
    held.extend_from_slice(&frame);
    held
}

/// `POST /ogsa/cancel` with a cancel key (`request_id` or
/// `request_id#leg`) as the plain-text body: flips the matching in-flight
/// call's cancellation flag so its handler stops at the next check.
fn handle_cancel(inner: &Arc<Inner>, request: &Request) -> Response {
    inner.cancels_received.fetch_add(1, Ordering::Relaxed);
    let key = request.body_str().trim().to_owned();
    let matched = match inner.active.lock().get(&key) {
        Some(ctx) => {
            ctx.cancel();
            true
        }
        None => false,
    };
    if matched {
        Response::ok("text/plain; charset=utf-8", b"cancelled".to_vec())
    } else {
        Response::text(Status::NOT_FOUND, "no active call with that key")
    }
}

/// `GET /metrics`: a scrapeable plain-text exposition of the container's
/// counters plus every deployed service's numeric service data.
fn metrics_response(inner: &Arc<Inner>) -> Response {
    let mut out = String::new();
    let counters = [
        ("ppg_requests_total", inner.requests.load(Ordering::Relaxed)),
        (
            "ppg_deadline_exceeded_total",
            inner.deadline_exceeded.load(Ordering::Relaxed),
        ),
        (
            "ppg_cancels_received_total",
            inner.cancels_received.load(Ordering::Relaxed),
        ),
        (
            "ppg_cancelled_calls_total",
            inner.cancelled_calls.load(Ordering::Relaxed),
        ),
        (
            "ppg_instances_created_total",
            inner.instances_created.load(Ordering::Relaxed),
        ),
        (
            "ppg_instances_destroyed_total",
            inner.instances_destroyed.load(Ordering::Relaxed),
        ),
        ("ppg_active_calls", inner.active.lock().len() as u64),
    ];
    for (name, value) in counters {
        out.push_str(&format!("{name} {value}\n"));
    }
    // One counter family for both data routes, told apart by `wire=`.
    let framed_calls = inner.batch_stream_calls.load(Ordering::Relaxed);
    let xml_calls = inner.requests.load(Ordering::Relaxed) - framed_calls;
    for (name, wire, value) in [
        ("ppg_calls_total", "xml", xml_calls),
        ("ppg_calls_total", "framed", framed_calls),
        (
            "ppg_entries_total",
            "framed",
            inner.batch_stream_entries.load(Ordering::Relaxed),
        ),
        (
            "ppg_frames_total",
            "framed",
            inner.batch_stream_frames.load(Ordering::Relaxed),
        ),
        (
            "ppg_rows_total",
            "framed",
            inner.batch_stream_rows.load(Ordering::Relaxed),
        ),
        (
            "ppg_entry_faults_total",
            "framed",
            inner.batch_stream_faults.load(Ordering::Relaxed),
        ),
        (
            "ppg_peak_queued_bytes",
            "framed",
            inner.batch_stream_peak_queued.load(Ordering::Relaxed),
        ),
    ] {
        out.push_str(&format!("{name}{{wire=\"{wire}\"}} {value}\n"));
    }
    if let Some(src) = &inner.notify {
        let c = src.counters();
        for (name, value) in [
            ("ppg_notify_subscriptions_active", c.subscriptions_active),
            ("ppg_notify_events_pushed_total", c.events_pushed),
            ("ppg_notify_events_dropped_total", c.events_dropped),
            ("ppg_notify_resyncs_total", c.resyncs),
            ("ppg_notify_lease_expirations_total", c.lease_expirations),
        ] {
            out.push_str(&format!("{name} {value}\n"));
        }
    }
    let services: Vec<(String, Arc<Deployed>)> = {
        let map = inner.services.read();
        let mut entries: Vec<_> = map
            .iter()
            .map(|(p, d)| (p.clone(), Arc::clone(d)))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    };
    for (path, dep) in services {
        // Service data is collected outside the services lock: a port's
        // service_data() may itself take locks.
        let data = dep.port.service_data();
        for name in data.names() {
            let value = match data.get(&name) {
                Some(Value::Int(i)) => i.to_string(),
                Some(Value::Double(d)) => d.to_string(),
                Some(Value::Bool(b)) => (*b as i64).to_string(),
                _ => continue, // strings/arrays are not scrapeable gauges
            };
            out.push_str(&format!(
                "ppg_service_data{{path=\"{path}\",name=\"{name}\"}} {value}\n"
            ));
        }
    }
    Response::ok("text/plain; version=0.0.4; charset=utf-8", out.into_bytes())
}

fn invoke_operation(
    inner: &Arc<Inner>,
    path: &str,
    dep: &Arc<Deployed>,
    call: &Call,
    ctx: &CallContext,
) -> std::result::Result<Value, Fault> {
    match call.method.as_str() {
        "findServiceData" => {
            let name = call
                .param("name")
                .and_then(Value::as_str)
                .unwrap_or_default();
            let mut data = introspection_data(inner, path, dep);
            data.merge(dep.port.service_data());
            if name.is_empty() {
                return Ok(Value::StrArray(data.names()));
            }
            data.get(name)
                .cloned()
                .ok_or_else(|| Fault::client(format!("no service data element {name:?}")))
        }
        "setTerminationTime" => {
            let seconds = call
                .param("seconds")
                .and_then(Value::as_int)
                .ok_or_else(|| Fault::client("setTerminationTime requires integer 'seconds'"))?;
            match &dep.kind {
                Kind::Instance { termination } => {
                    let mut slot = termination.lock();
                    if seconds < 0 {
                        *slot = None; // negative ⇒ indefinite lifetime
                        Ok(Value::Int(-1))
                    } else {
                        *slot = Some(Instant::now() + Duration::from_secs(seconds as u64));
                        Ok(Value::Int(seconds))
                    }
                }
                _ => Err(Fault::client(
                    "only transient instances have termination times",
                )),
            }
        }
        "destroy" => match &dep.kind {
            Kind::Instance { .. } => {
                inner.destroy_path(path);
                Ok(Value::Nil)
            }
            _ => Err(Fault::client(
                "persistent services cannot be destroyed remotely",
            )),
        },
        "createService" => match &dep.kind {
            Kind::Factory(factory) => {
                let port = factory.create(call)?;
                let gsh = register_instance_inner(inner, path, port);
                Ok(Value::Str(gsh.into()))
            }
            _ => Err(Fault::client(format!("{path} is not a factory"))),
        },
        "queryServiceDataXPath" => {
            // Thesis §7: "a user could conceivably enter an XPath query" over
            // the service data elements — GT3.2's WS Information Services.
            let expr = call
                .param("path")
                .and_then(Value::as_str)
                .ok_or_else(|| Fault::client("queryServiceDataXPath requires 'path'"))?;
            let mut data = introspection_data(inner, path, dep);
            data.merge(dep.port.service_data());
            let doc = data.to_xml();
            let hits = pperf_xml::xpath::select_strings(&doc, expr)
                .map_err(|e| Fault::client(e.to_string()))?;
            Ok(Value::StrArray(hits))
        }
        "subscribeToNotificationTopic" => {
            let topic = call
                .param("topic")
                .and_then(Value::as_str)
                .ok_or_else(|| Fault::client("missing 'topic'"))?;
            let sink = call
                .param("sink")
                .and_then(Value::as_str)
                .ok_or_else(|| Fault::client("missing 'sink'"))?;
            let id = inner.hub.subscribe(path, topic, sink);
            Ok(Value::Str(id))
        }
        "deliverNotification" => {
            let topic = call
                .param("topic")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_owned();
            let message = call
                .param("message")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_owned();
            dep.port.on_notification(&topic, &message);
            Ok(Value::Nil)
        }
        _ => dep.port.invoke_ctx(&call.method, call, ctx),
    }
}

fn introspection_data(inner: &Arc<Inner>, path: &str, dep: &Arc<Deployed>) -> ServiceData {
    let mut data = ServiceData::new();
    data.set("handle", Value::Str(inner.gsh_for_path(path).into()));
    data.set(
        "serviceKind",
        Value::from(match dep.kind {
            Kind::Persistent => "persistent",
            Kind::Factory(_) => "factory",
            Kind::Instance { .. } => "instance",
        }),
    );
    data.set(
        "ageMillis",
        Value::Int(dep.created.elapsed().as_millis() as i64),
    );
    if matches!(dep.kind, Kind::Factory(_)) {
        // Host-load signal for placement decisions: how many transient
        // instances this container currently hosts (thesis §6.5 closes by
        // suggesting Manager strategies that adjust "to the changing loads
        // of hosts involved in a query").
        let live = inner
            .services
            .read()
            .values()
            .filter(|d| matches!(d.kind, Kind::Instance { .. }))
            .count();
        data.set("hostLiveInstances", Value::Int(live as i64));
    }
    if let Kind::Instance { termination } = &dep.kind {
        let remaining = termination
            .lock()
            .map(|t| t.saturating_duration_since(Instant::now()).as_millis() as i64)
            .unwrap_or(-1);
        data.set("terminationRemainingMillis", Value::Int(remaining));
    }
    data
}
