//! Single-flight coalescing of identical in-flight upstream calls.
//!
//! When N concurrent federated queries expand to the same `getPR` tuple
//! (same Execution instance, metric, foci, window, type), only the first
//! caller — the *leader* — performs the upstream call; the rest become
//! *followers* that register a delivery and return; the leader's publish
//! hands each of them the shared outcome, so a waiting follower holds no
//! thread.
//! This bounds upstream load under query storms independently of the result
//! cache (which only helps *after* a call completes).

use crate::query::SiteErrorKind;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The rows side of a successful flight. `truncated` marks a streamed call
/// whose connection died after delivering rows but before the trailer frame:
/// the rows are real, but the scan is incomplete — followers adopt the same
/// partial-result verdict the leader reached.
#[derive(Debug, Clone)]
pub struct FlightRows {
    /// The shared row vector.
    pub rows: Arc<Vec<String>>,
    /// The stream producing these rows ended without its trailer.
    pub truncated: bool,
    /// Why the stream ended early (empty when `truncated` is false).
    pub truncated_detail: String,
}

impl FlightRows {
    /// A complete (non-truncated) result.
    pub fn complete(rows: Arc<Vec<String>>) -> FlightRows {
        FlightRows {
            rows,
            truncated: false,
            truncated_detail: String::new(),
        }
    }

    /// A partial result from a stream that died mid-scan.
    pub fn truncated(rows: Arc<Vec<String>>, detail: impl Into<String>) -> FlightRows {
        FlightRows {
            rows,
            truncated: true,
            truncated_detail: detail.into(),
        }
    }
}

/// The call result a flight shares: rows (possibly truncated), or a
/// classified error (kind + rendered detail) that followers report against
/// their own site label.
pub type FlightResult = Result<FlightRows, (SiteErrorKind, String)>;

/// What a leader publishes to its followers. Besides the call result it
/// carries the leader's request id and the spans its flight recorded, so a
/// coalesced caller can adopt the leader's trace — under its *own* request
/// id — and record which request actually did the work.
#[derive(Clone)]
pub struct FlightOutcome {
    /// The shared call result.
    pub result: FlightResult,
    /// Request id of the caller that performed the upstream call.
    pub leader_request_id: String,
    /// Spans the leader's flight recorded (remote + stub hops).
    pub spans: Vec<ppg_context::Span>,
}

impl FlightOutcome {
    /// Package a leader's result for publication.
    pub fn new(
        result: FlightResult,
        leader_request_id: impl Into<String>,
        spans: Vec<ppg_context::Span>,
    ) -> FlightOutcome {
        FlightOutcome {
            result,
            leader_request_id: leader_request_id.into(),
            spans,
        }
    }
}

/// A follower's hand-off: runs once, with the leader's outcome.
type Deliver = Box<dyn FnOnce(&FlightOutcome) + Send>;

/// A single-flight group keyed by upstream-call identity.
pub struct SingleFlight {
    /// Keys in flight, each with the followers waiting on its leader.
    inflight: Mutex<HashMap<String, Vec<Deliver>>>,
    coalesced: AtomicU64,
}

/// The leader's obligation: [`SingleFlight::publish`] it exactly once.
pub struct Token {
    key: String,
}

impl SingleFlight {
    /// An empty group.
    pub fn new() -> Arc<SingleFlight> {
        Arc::new(SingleFlight {
            inflight: Mutex::new(HashMap::new()),
            coalesced: AtomicU64::new(0),
        })
    }

    /// Join the flight for `key`. The first caller becomes the leader and
    /// gets the token; a later caller registers `deliver` — run with the
    /// leader's outcome when it publishes — and gets `None` at once, holding
    /// no thread while it waits.
    pub fn join(
        &self,
        key: &str,
        deliver: impl FnOnce(&FlightOutcome) + Send + 'static,
    ) -> Option<Token> {
        let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(followers) = inflight.get_mut(key) {
            followers.push(Box::new(deliver));
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        inflight.insert(key.to_owned(), Vec::new());
        Some(Token {
            key: key.to_owned(),
        })
    }

    /// End the flight for `token`'s key and hand the leader's outcome to
    /// every follower that joined it. `outcome` is only built when someone
    /// is waiting.
    pub fn publish(&self, token: Token, outcome: impl FnOnce() -> FlightOutcome) {
        let followers = (self.inflight.lock().unwrap_or_else(|e| e.into_inner()))
            .remove(&token.key)
            .unwrap_or_default();
        if !followers.is_empty() {
            let outcome = outcome();
            for deliver in followers {
                deliver(&outcome);
            }
        }
    }

    /// Number of keys currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// How many callers were coalesced onto another caller's flight.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn outcome_of(result: FlightResult) -> FlightOutcome {
        FlightOutcome::new(result, "leader-id", Vec::new())
    }

    /// Join `key` expecting to lead.
    fn lead(sf: &SingleFlight, key: &str) -> Token {
        (sf.join(key, |_| panic!("a leader is never delivered to")))
            .unwrap_or_else(|| panic!("{key}: first caller must lead"))
    }

    /// Join `key` expecting to follow; the outcome arrives on the receiver.
    fn follow(sf: &SingleFlight, key: &str) -> mpsc::Receiver<FlightOutcome> {
        let (tx, rx) = mpsc::channel();
        let joined = sf.join(key, move |outcome| tx.send(outcome.clone()).unwrap());
        assert!(joined.is_none(), "{key} already led");
        rx
    }

    #[test]
    fn single_caller_is_leader() {
        let sf = SingleFlight::new();
        let token = lead(&sf, "k");
        sf.publish(token, || panic!("no follower, no outcome"));
        assert_eq!(sf.in_flight(), 0);
        assert_eq!(sf.coalesced(), 0);
    }

    #[test]
    fn followers_share_the_leaders_outcome() {
        let sf = SingleFlight::new();
        let token = lead(&sf, "k");
        let followers: Vec<_> = (0..4).map(|_| follow(&sf, "k")).collect();
        for rx in &followers {
            assert!(rx.try_recv().is_err(), "nothing delivered before publish");
        }
        sf.publish(token, || {
            FlightOutcome::new(
                Ok(FlightRows::complete(Arc::new(vec!["shared".into()]))),
                "the-leader",
                vec![ppg_context::Span::new("gateway", "getPR", "s", 7, "ok")],
            )
        });
        for rx in followers {
            let outcome = rx.try_recv().expect("delivered during publish");
            assert_eq!(outcome.result.unwrap().rows[0], "shared");
            assert_eq!(outcome.leader_request_id, "the-leader");
            assert_eq!(outcome.spans.len(), 1);
        }
        assert_eq!(sf.coalesced(), 4);
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let sf = SingleFlight::new();
        let ta = lead(&sf, "a");
        let tb = lead(&sf, "b");
        assert_eq!(sf.in_flight(), 2);
        sf.publish(ta, || {
            outcome_of(Err((SiteErrorKind::Unreachable, "down".into())))
        });
        sf.publish(tb, || {
            outcome_of(Ok(FlightRows::complete(Arc::new(vec![]))))
        });
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn errors_are_shared_too() {
        let sf = SingleFlight::new();
        let token = lead(&sf, "k");
        let follower = follow(&sf, "k");
        sf.publish(token, || {
            outcome_of(Err((SiteErrorKind::Fault, "fault".into())))
        });
        let (kind, detail) = follower.try_recv().unwrap().result.unwrap_err();
        assert_eq!(kind, SiteErrorKind::Fault);
        assert_eq!(detail, "fault");
        // A new flight can start after publication.
        lead(&sf, "k");
    }
}
