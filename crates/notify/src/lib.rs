//! The push notification plane — OGSI `NotificationSource` /
//! `NotificationSink` PortTypes (thesis Table 3) over long-lived chunked
//! HTTP push connections.
//!
//! Every signal in the reproduction used to be poll-only: the gateway's
//! planner re-read the registry on a 500 ms TTL, result caches waited out
//! soft-state leases, and `GET /metrics` was the only observation channel.
//! This crate makes invalidation event-driven:
//!
//! * [`SubscriptionManager`] — the reusable core: a topic registry with
//!   per-topic sequence numbers, per-subscriber bounded queues with
//!   drop-oldest overflow accounting, and lease-scoped subscriptions that
//!   expire with the OGSI soft-state lease.
//! * [`NotificationSource`] — the service side containers and the registry
//!   mount: `POST /ogsa/subscribe` answers with a streaming chunked
//!   response that stays open, `POST /ogsa/unsubscribe` ends one, and
//!   [`NotificationSource::publish`] fans an event to every subscriber.
//! * [`NotificationSink`] — the client side: one persistent connection per
//!   source, typed [`Event`]s delivered to a [`SinkHandler`],
//!   reconnect-with-backoff, and per-topic sequence-gap detection that
//!   triggers a poll-fallback resync instead of silently missing deltas.
//!
//! Wire delivery rides the httpd event loop as `Transfer-Encoding: chunked`
//! push connections: one event per chunk, PPGB event frames (kind 4) for
//! peers that negotiated the binary plane, XML fallback otherwise (and
//! always under `PPG_FORCE_XML=1`), mirroring the PR 5 negotiation rules.

mod manager;
mod sink;
mod source;

pub use manager::{NotifyCounters, SubscribeSpec, SubscriptionManager};
pub use sink::{NotificationSink, SinkConfig, SinkCounters, SinkHandler};
pub use source::{NotificationSource, SUBSCRIBE_PATH, UNSUBSCRIBE_PATH};

/// A notification event: topic, per-topic sequence number, opaque payload.
pub use pperf_soap::WireEvent as Event;

/// Registry membership deltas: `register|ORG/name|gsh`,
/// `unregister|ORG/name`, `expire|ORG/name`.
pub const TOPIC_REGISTRY_MEMBERS: &str = "registry.members";
/// Service-data deltas: `create|/path`, `destroy|/path`.
pub const TOPIC_SERVICE_DATA: &str = "service.data";
/// Result-cache invalidations: the instance path whose cached results are
/// stale (destroyed instance, expired lease).
pub const TOPIC_CACHE_INVALIDATE: &str = "cache.invalidate";

/// Errors raised by the notification plane.
#[derive(Debug)]
pub enum NotifyError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The source answered subscribe with a non-200 status — the peer does
    /// not speak the notification plane (mixed-fleet fallback cue).
    Unsupported(u16),
    /// The stream violated the protocol (bad chunk framing, bad event).
    Protocol(String),
}

impl std::fmt::Display for NotifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NotifyError::Io(e) => write!(f, "notify: {e}"),
            NotifyError::Unsupported(s) => write!(f, "notify: source answered {s}"),
            NotifyError::Protocol(m) => write!(f, "notify: protocol violation: {m}"),
        }
    }
}

impl std::error::Error for NotifyError {}

impl From<std::io::Error> for NotifyError {
    fn from(e: std::io::Error) -> Self {
        NotifyError::Io(e)
    }
}

/// Encode an event in the XML fallback codec (one event per chunk, same
/// framing position as a PPGB kind-4 frame).
pub fn encode_xml_event(event: &Event) -> String {
    format!(
        "<event topic=\"{}\" seq=\"{}\">{}</event>",
        pperf_xml::escape_attr(&event.topic),
        event.seq,
        pperf_xml::escape_text(&event.payload),
    )
}

/// Decode an XML-fallback event.
pub fn decode_xml_event(text: &str) -> Result<Event, NotifyError> {
    let root =
        pperf_xml::parse(text).map_err(|e| NotifyError::Protocol(format!("bad event XML: {e}")))?;
    if root.name != "event" {
        return Err(NotifyError::Protocol(format!(
            "expected <event>, got <{}>",
            root.name
        )));
    }
    let topic = root
        .attr("topic")
        .ok_or_else(|| NotifyError::Protocol("event without topic".into()))?
        .to_owned();
    let seq = root
        .attr("seq")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| NotifyError::Protocol("event without numeric seq".into()))?;
    Ok(Event {
        topic,
        seq,
        payload: root.text().into_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xml_event_roundtrip() {
        let ev = Event {
            topic: "registry.members".into(),
            seq: 9,
            payload: "unregister|A&B/\"site\"<x>".into(),
        };
        let back = decode_xml_event(&encode_xml_event(&ev)).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn xml_event_rejects_garbage() {
        assert!(decode_xml_event("not xml").is_err());
        assert!(decode_xml_event("<other/>").is_err());
        assert!(decode_xml_event("<event topic=\"t\">no seq</event>").is_err());
    }
}
