//! Minimal HTTP/1.1 transport for SOAP messaging.
//!
//! The thesis hosted its services in Apache Tomcat ("which provides web
//! server functionality", §5.4) and moved SOAP documents over HTTP. This
//! crate is that substrate: a readiness-driven server, a keep-alive
//! client, and just enough HTTP/1.1 (request line, headers, Content-Length
//! framing, persistent connections) to carry RPC traffic between PPerfGrid
//! containers.
//!
//! Design notes:
//!
//! * The server is a single poll thread (epoll on Linux, `poll(2)`
//!   elsewhere — see [`poller`]) owning non-blocking sockets and
//!   per-connection resumable parsers, feeding complete requests to a
//!   bounded pool of `workers` handler threads. Idle keep-alive
//!   connections cost only a parked fd, so one host can hold thousands of
//!   them; `workers` still bounds *handler* concurrency — the Figure 12
//!   unit of host capacity. A worker writes a buffered response on a
//!   keep-alive connection itself when the socket takes it whole, and
//!   re-arms the connection through [`poller::Rearmer`]; the poll thread
//!   writes every other response.
//!   [`HttpServer::shutdown`] is graceful and idempotent.
//! * The client pools persistent connections per `host:port`, probes them
//!   before reuse, and retries on a fresh connection only when a failure
//!   provably preceded the first flushed request byte; an ambiguous
//!   failure surfaces as [`HttpError::ResponseLost`] so non-idempotent
//!   SOAP calls are never silently re-executed.
//! * A streamed (chunked) response that ends with its terminator chunk
//!   leaves the connection in keep-alive on both ends; an aborted stream
//!   closes without the terminator, so the peer sees truncation and never
//!   pools the socket.

mod client;
mod error;
mod message;
mod outbuf;
pub mod poller;
mod router;
mod server;
mod stream;
mod url;

pub use client::{HttpClient, StreamingResponse};
pub use error::{HttpError, Result};
pub use message::{Headers, Request, RequestParser, Response, Status};
pub use router::Router;
pub use server::{Handler, HttpServer, ServerConfig};
pub use stream::{StreamHandle, StreamWriter};
pub use url::Url;
