//! The service side of the notification plane: the handlers a container
//! (or any HTTP host) mounts at `POST /ogsa/subscribe` and
//! `POST /ogsa/unsubscribe`, fronting a [`SubscriptionManager`].
//!
//! The subscribe exchange:
//!
//! ```text
//! POST /ogsa/subscribe
//! Accept: application/x-ppg-binary        (optional: PPGB event frames)
//! X-PPG-Request-Id: ...                   (CallContext threading)
//!
//! topics=registry.members,cache.invalidate
//! lease=30
//! queue=256
//! resync=1                                 (optional: gap-recovery resub)
//! ```
//!
//! The response is a `Transfer-Encoding: chunked` stream that stays open:
//! one event per chunk, PPGB kind-4 frames when the subscriber negotiated
//! binary (never under `PPG_FORCE_XML=1`), the XML `<event>` form
//! otherwise. Response headers carry the subscription id and the per-topic
//! sequence baseline the sink seeds its gap detector with.

use crate::manager::{SubscribeSpec, SubscriptionManager};
use crate::NotifyCounters;
use pperf_httpd::{Request, Response, Status};
use pperf_soap::{force_xml, BINARY_CONTENT_TYPE};
use std::sync::Arc;
use std::time::Duration;

/// Path the subscribe handler is mounted at.
pub const SUBSCRIBE_PATH: &str = "/ogsa/subscribe";
/// Path the unsubscribe handler is mounted at.
pub const UNSUBSCRIBE_PATH: &str = "/ogsa/unsubscribe";

/// Response header carrying the subscription id.
pub const SUBSCRIPTION_ID_HEADER: &str = "X-PPG-Subscription-Id";
/// Response header carrying `topic=seq` baselines, comma-separated.
pub const TOPIC_SEQ_HEADER: &str = "X-PPG-Topic-Seq";

/// The NotificationSource PortType: parses subscribe/unsubscribe requests
/// and fans published events to subscribers.
pub struct NotificationSource {
    manager: Arc<SubscriptionManager>,
    max_lease: Duration,
}

impl Default for NotificationSource {
    fn default() -> Self {
        Self::new()
    }
}

impl NotificationSource {
    /// A source with a 5-minute lease ceiling.
    pub fn new() -> NotificationSource {
        NotificationSource {
            manager: Arc::new(SubscriptionManager::new()),
            max_lease: Duration::from_secs(300),
        }
    }

    /// The embedded manager (for direct publication or introspection).
    pub fn manager(&self) -> &Arc<SubscriptionManager> {
        &self.manager
    }

    /// Publish one event; returns subscribers reached.
    pub fn publish(&self, topic: &str, payload: &str) -> usize {
        self.manager.publish(topic, payload)
    }

    /// Drop lease-expired subscriptions (call from the container sweeper).
    pub fn sweep(&self) -> usize {
        self.manager.sweep()
    }

    /// Counter snapshot for `/metrics` and service data.
    pub fn counters(&self) -> NotifyCounters {
        self.manager.counters()
    }

    /// Handle `POST /ogsa/subscribe`: returns the streaming response the
    /// event loop parks in push mode.
    pub fn handle_subscribe(&self, request: &Request) -> Response {
        let mut spec = SubscribeSpec {
            binary: !force_xml()
                && request
                    .headers
                    .get("Accept")
                    .is_some_and(|a| a == BINARY_CONTENT_TYPE),
            ..SubscribeSpec::default()
        };
        for line in request.body_str().lines() {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            match key.trim() {
                "topics" => {
                    spec.topics = value
                        .split(',')
                        .map(str::trim)
                        .filter(|t| !t.is_empty())
                        .map(str::to_owned)
                        .collect();
                }
                "lease" => {
                    if let Ok(secs) = value.trim().parse::<u64>() {
                        spec.lease = Duration::from_secs(secs.max(1)).min(self.max_lease);
                    }
                }
                "queue" => {
                    if let Ok(n) = value.trim().parse::<usize>() {
                        spec.queue = n.max(1);
                    }
                }
                "resync" => spec.resync = value.trim() == "1",
                _ => {}
            }
        }
        if spec.topics.is_empty() {
            return Response::text(Status::BAD_REQUEST, "subscribe without topics");
        }
        let content_type = if spec.binary {
            BINARY_CONTENT_TYPE
        } else {
            "text/xml; charset=utf-8"
        };
        // Baseline before registration: events published from here on are
        // observable as gaps if the subscriber misses them.
        let baseline = self.manager.topic_seqs(&spec.topics);
        let (mut response, writer) = Response::stream(content_type);
        let id = self.manager.subscribe(&spec, writer);
        response.headers.set(SUBSCRIPTION_ID_HEADER, id.to_string());
        response.headers.set(
            TOPIC_SEQ_HEADER,
            baseline
                .iter()
                .map(|(t, s)| format!("{t}={s}"))
                .collect::<Vec<_>>()
                .join(","),
        );
        if let Some(rid) = request.headers.get(ppg_context::REQUEST_ID_HEADER) {
            response.headers.set(ppg_context::REQUEST_ID_HEADER, rid);
        }
        response
    }

    /// Handle `POST /ogsa/unsubscribe` (body: `id=<subscription id>`).
    pub fn handle_unsubscribe(&self, request: &Request) -> Response {
        let id = request.body_str().lines().find_map(|line| {
            line.strip_prefix("id=")
                .and_then(|v| v.trim().parse::<u64>().ok())
        });
        match id {
            Some(id) if self.manager.unsubscribe(id) => Response::text(Status::OK, "unsubscribed"),
            Some(_) => Response::text(Status::NOT_FOUND, "no such subscription"),
            None => Response::text(Status::BAD_REQUEST, "unsubscribe without id"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subscribe_request(body: &str, binary: bool) -> Request {
        let mut req = Request::post(SUBSCRIBE_PATH, "text/plain", body.as_bytes().to_vec());
        if binary {
            req.headers.set("Accept", BINARY_CONTENT_TYPE);
        }
        req
    }

    #[test]
    fn subscribe_parses_spec_and_streams() {
        let src = NotificationSource::new();
        let resp =
            src.handle_subscribe(&subscribe_request("topics=a,b\nlease=5\nqueue=7\n", false));
        assert_eq!(resp.status, Status::OK);
        assert!(resp.stream.is_some(), "subscribe answers with a stream");
        assert_eq!(resp.headers.get(SUBSCRIPTION_ID_HEADER), Some("1"));
        assert_eq!(resp.headers.get(TOPIC_SEQ_HEADER), Some("a=0,b=0"));
        assert_eq!(src.counters().subscriptions_active, 1);
    }

    #[test]
    fn subscribe_without_topics_rejected() {
        let src = NotificationSource::new();
        let resp = src.handle_subscribe(&subscribe_request("lease=5\n", false));
        assert_eq!(resp.status, Status::BAD_REQUEST);
        assert!(resp.stream.is_none());
    }

    #[test]
    fn binary_negotiated_via_accept_header() {
        let src = NotificationSource::new();
        let resp = src.handle_subscribe(&subscribe_request("topics=a\n", true));
        // Under `PPG_FORCE_XML=1` the advertisement is ignored and the
        // stream stays on the XML codec.
        let expect_binary = !force_xml();
        assert_eq!(
            resp.headers.get("Content-Type") == Some(BINARY_CONTENT_TYPE),
            expect_binary
        );
        let resp = src.handle_subscribe(&subscribe_request("topics=a\n", false));
        assert_eq!(
            resp.headers.get("Content-Type"),
            Some("text/xml; charset=utf-8")
        );
    }

    #[test]
    fn unsubscribe_roundtrip() {
        let src = NotificationSource::new();
        let resp = src.handle_subscribe(&subscribe_request("topics=a\n", false));
        let id = resp.headers.get(SUBSCRIPTION_ID_HEADER).unwrap();
        let ok = src.handle_unsubscribe(&Request::post(
            UNSUBSCRIBE_PATH,
            "text/plain",
            format!("id={id}").into_bytes(),
        ));
        assert_eq!(ok.status, Status::OK);
        assert_eq!(src.counters().subscriptions_active, 0);
        let missing = src.handle_unsubscribe(&Request::post(
            UNSUBSCRIBE_PATH,
            "text/plain",
            b"id=99".to_vec(),
        ));
        assert_eq!(missing.status, Status::NOT_FOUND);
    }
}
