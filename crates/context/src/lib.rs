//! End-to-end call context for the PPerfGrid stack.
//!
//! A [`CallContext`] travels with every request through all five layers:
//! the gateway mints one per federated query, the OGSI stub serializes it
//! into HTTP headers and a SOAP header block, the container reconstructs it
//! on the far side, and the pperfgrid services (and the minidb executor
//! underneath them) check it at iteration boundaries. It carries four
//! things:
//!
//! * a `request_id` shared by every hop of one logical request (hedge legs
//!   included), so traces from different sites can be stitched together;
//! * an optional absolute `deadline`, wired as a *remaining-budget* header
//!   (`X-PPG-Deadline-Ms`) because `Instant`s do not cross machines;
//! * a per-leg cancellation flag, so the losing leg of a hedged call can be
//!   stopped without touching the winner (legs share the id, not the flag);
//! * a trace: an append-only list of [`Span`]s, one per hop, shared between
//!   a context and all contexts derived from it.
//!
//! A scoped thread-local ([`scope`] / [`current`]) lets deep layers that
//! predate this type (the minidb row loop, wrapper delay simulations) check
//! for expiry without threading a parameter through every signature.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// HTTP header carrying the request id.
pub const REQUEST_ID_HEADER: &str = "X-PPG-Request-Id";
/// HTTP header carrying the *remaining* deadline budget in milliseconds.
pub const DEADLINE_MS_HEADER: &str = "X-PPG-Deadline-Ms";
/// HTTP header naming the call leg (target index + hedge attempt); a leg is
/// the unit of cancellation, distinct from the shared request id.
pub const LEG_HEADER: &str = "X-PPG-Leg";
/// HTTP response header carrying the server-side spans back to the caller.
pub const TRACE_HEADER: &str = "X-PPG-Trace";

/// One hop's contribution to the request trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Which layer recorded it, e.g. `gateway`, `ogsi.stub`, `ogsi.container`,
    /// `pperfgrid.execution`.
    pub layer: String,
    /// The operation, e.g. `getPR`, `federatedQuery`.
    pub operation: String,
    /// The site or authority the work ran against (empty if not applicable).
    pub site: String,
    /// Wall-clock duration of the hop in microseconds.
    pub elapsed_us: u64,
    /// Outcome tag: `ok`, `fault`, `deadline-exceeded`, `cancelled`,
    /// `coalesced:<leader-id>`, ...
    pub outcome: String,
}

impl Span {
    pub fn new(
        layer: impl Into<String>,
        operation: impl Into<String>,
        site: impl Into<String>,
        elapsed_us: u64,
        outcome: impl Into<String>,
    ) -> Span {
        Span {
            layer: layer.into(),
            operation: operation.into(),
            site: site.into(),
            elapsed_us,
            outcome: outcome.into(),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} site={} {}us {}",
            self.layer, self.operation, self.site, self.elapsed_us, self.outcome
        )
    }
}

struct Inner {
    request_id: String,
    /// Leg tag, empty for the root context. A leg identifies one concurrent
    /// attempt (target index + hedge attempt) within a request, so cancelling
    /// a losing hedge does not cancel its sibling.
    leg: String,
    hedge_attempt: u32,
    deadline: Option<Instant>,
    cancelled: AtomicBool,
    trace: Arc<Mutex<Vec<Span>>>,
}

/// The per-request context threaded through every layer. Cheap to clone
/// (an `Arc`); clones observe the same cancellation flag and trace.
#[derive(Clone)]
pub struct CallContext {
    inner: Arc<Inner>,
}

impl fmt::Debug for CallContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CallContext")
            .field("request_id", &self.inner.request_id)
            .field("leg", &self.inner.leg)
            .field("hedge_attempt", &self.inner.hedge_attempt)
            .field("remaining", &self.remaining())
            .field("cancelled", &self.cancelled())
            .finish()
    }
}

impl Default for CallContext {
    fn default() -> Self {
        Self::new()
    }
}

impl CallContext {
    /// A fresh root context with a generated request id and no deadline.
    pub fn new() -> CallContext {
        Self::build(next_request_id(), String::new(), 0, None)
    }

    /// A fresh root context that must finish within `budget`.
    pub fn with_budget(budget: Duration) -> CallContext {
        Self::build(
            next_request_id(),
            String::new(),
            0,
            Some(Instant::now() + budget),
        )
    }

    /// A root context with a caller-chosen request id.
    pub fn with_request_id(request_id: impl Into<String>) -> CallContext {
        Self::build(request_id.into(), String::new(), 0, None)
    }

    /// Rebuild a context from wire fields (HTTP headers or the SOAP header
    /// block). A missing/empty id mints a fresh one; `deadline_ms` is the
    /// remaining budget at the *sender*, reconstructed as `now + budget`.
    pub fn from_wire(
        request_id: Option<&str>,
        deadline_ms: Option<&str>,
        leg: Option<&str>,
    ) -> CallContext {
        let id = match request_id {
            Some(id) if !id.is_empty() => id.to_owned(),
            _ => next_request_id(),
        };
        let deadline = deadline_ms
            .and_then(|ms| ms.trim().parse::<u64>().ok())
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let leg = leg.unwrap_or("").to_owned();
        let hedge_attempt = parse_hedge_attempt(&leg);
        Self::build(id, leg, hedge_attempt, deadline)
    }

    fn build(
        request_id: String,
        leg: String,
        hedge_attempt: u32,
        deadline: Option<Instant>,
    ) -> CallContext {
        CallContext {
            inner: Arc::new(Inner {
                request_id,
                leg,
                hedge_attempt,
                deadline,
                cancelled: AtomicBool::new(false),
                trace: Arc::new(Mutex::new(Vec::new())),
            }),
        }
    }

    /// Derive a leg context for one concurrent attempt: same request id,
    /// deadline, and trace, but its own cancellation flag. `hedge_attempt`
    /// is 0 for the primary, 1.. for hedges.
    pub fn leg(&self, tag: impl Into<String>, hedge_attempt: u32) -> CallContext {
        CallContext {
            inner: Arc::new(Inner {
                request_id: self.inner.request_id.clone(),
                leg: tag.into(),
                hedge_attempt,
                deadline: self.inner.deadline,
                cancelled: AtomicBool::new(false),
                trace: Arc::clone(&self.inner.trace),
            }),
        }
    }

    /// Derive a context with a *tighter* deadline (`min` of the current one
    /// and `now + budget`); used to shrink the budget across retries.
    pub fn with_remaining(&self, budget: Duration) -> CallContext {
        let candidate = Instant::now() + budget;
        let deadline = Some(match self.inner.deadline {
            Some(d) => d.min(candidate),
            None => candidate,
        });
        CallContext {
            inner: Arc::new(Inner {
                request_id: self.inner.request_id.clone(),
                leg: self.inner.leg.clone(),
                hedge_attempt: self.inner.hedge_attempt,
                deadline,
                cancelled: AtomicBool::new(false),
                trace: Arc::clone(&self.inner.trace),
            }),
        }
    }

    pub fn request_id(&self) -> &str {
        &self.inner.request_id
    }

    pub fn leg_tag(&self) -> &str {
        &self.inner.leg
    }

    pub fn hedge_attempt(&self) -> u32 {
        self.inner.hedge_attempt
    }

    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// The key the container's cancel registry uses: `request_id` alone for
    /// a root context, `request_id#leg` for a leg.
    pub fn cancel_key(&self) -> String {
        if self.inner.leg.is_empty() {
            self.inner.request_id.clone()
        } else {
            format!("{}#{}", self.inner.request_id, self.inner.leg)
        }
    }

    /// Remaining budget: `None` when no deadline is set, zero when past it.
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Remaining budget in whole milliseconds for the wire header. Rounds
    /// up so a still-live sub-millisecond budget is not truncated to zero.
    pub fn deadline_ms(&self) -> Option<u64> {
        self.remaining()
            .map(|r| (r.as_micros().div_ceil(1000)) as u64)
    }

    /// True once the deadline has passed.
    pub fn deadline_expired(&self) -> bool {
        matches!(self.inner.deadline, Some(d) if Instant::now() >= d)
    }

    /// True once this leg has been cancelled.
    pub fn cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// True when further work on this call is doomed: the deadline passed
    /// or the leg was cancelled. The check every layer runs at iteration
    /// boundaries.
    pub fn expired(&self) -> bool {
        self.cancelled() || self.deadline_expired()
    }

    /// Cancel this leg (and every clone of it — not siblings or parents).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Append one span to the shared trace.
    pub fn push_span(&self, span: Span) {
        self.inner.trace.lock().expect("trace poisoned").push(span);
    }

    /// Record a hop that started at `started`, computing `elapsed_us`.
    pub fn record_span(
        &self,
        layer: &str,
        operation: &str,
        site: &str,
        started: Instant,
        outcome: &str,
    ) {
        self.push_span(Span::new(
            layer,
            operation,
            site,
            started.elapsed().as_micros() as u64,
            outcome,
        ));
    }

    /// Merge spans recorded elsewhere (e.g. decoded from a response's
    /// `X-PPG-Trace` header) into this trace, preserving their order.
    pub fn extend_spans(&self, spans: Vec<Span>) {
        self.inner
            .trace
            .lock()
            .expect("trace poisoned")
            .extend(spans);
    }

    /// Snapshot of the trace so far.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.trace.lock().expect("trace poisoned").clone()
    }

    /// Take the trace so far, leaving it empty — for the one holder of a
    /// finished request, who would otherwise copy every span.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.inner.trace.lock().expect("trace poisoned"))
    }

    pub fn span_count(&self) -> usize {
        self.inner.trace.lock().expect("trace poisoned").len()
    }
}

fn parse_hedge_attempt(leg: &str) -> u32 {
    // Leg tags are "t<target>.a<attempt>"; anything else is attempt 0.
    leg.rsplit(".a")
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(0)
}

/// Format the leg tag for target `target` attempt `attempt` (0 = primary).
pub fn leg_tag(target: usize, attempt: u32) -> String {
    format!("t{target}.a{attempt}")
}

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn next_request_id() -> String {
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ (d.as_secs() << 20))
        .unwrap_or(0);
    let count = COUNTER.fetch_add(1, Ordering::Relaxed);
    format!(
        "{:08x}-{:04x}-{:04x}",
        nanos & 0xffff_ffff,
        std::process::id() as u16,
        count & 0xffff
    )
}

// ---------------------------------------------------------------------------
// Trace wire encoding
// ---------------------------------------------------------------------------

/// Encode spans for the `X-PPG-Trace` header: spans separated by `|`,
/// fields by `;` (`layer;operation;site;elapsed_us;outcome`), with `%`,
/// `;`, `|`, and CR/LF percent-escaped so arbitrary outcome strings survive.
pub fn encode_trace(spans: &[Span]) -> String {
    spans
        .iter()
        .map(|s| {
            format!(
                "{};{};{};{};{}",
                escape(&s.layer),
                escape(&s.operation),
                escape(&s.site),
                s.elapsed_us,
                escape(&s.outcome)
            )
        })
        .collect::<Vec<_>>()
        .join("|")
}

/// Decode an `X-PPG-Trace` header. Malformed spans are skipped, not fatal:
/// a trace is diagnostic data and must never fail a request.
pub fn decode_trace(text: &str) -> Vec<Span> {
    text.split('|')
        .filter(|part| !part.is_empty())
        .filter_map(|part| {
            let fields: Vec<&str> = part.split(';').collect();
            if fields.len() != 5 {
                return None;
            }
            Some(Span {
                layer: unescape(fields[0]),
                operation: unescape(fields[1]),
                site: unescape(fields[2]),
                elapsed_us: fields[3].parse().ok()?,
                outcome: unescape(fields[4]),
            })
        })
        .collect()
}

fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '%' => out.push_str("%25"),
            ';' => out.push_str("%3B"),
            '|' => out.push_str("%7C"),
            '\r' => out.push_str("%0D"),
            '\n' => out.push_str("%0A"),
            _ => out.push(ch),
        }
    }
    out
}

fn unescape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(pos) = rest.find('%') {
        out.push_str(&rest[..pos]);
        let after = &rest[pos + 1..];
        let code = after.get(..2).filter(|c| c.is_ascii());
        match code {
            Some("25") => out.push('%'),
            Some("3B") => out.push(';'),
            Some("7C") => out.push('|'),
            Some("0D") => out.push('\r'),
            Some("0A") => out.push('\n'),
            _ => {
                // Not one of ours: keep the literal '%' and continue.
                out.push('%');
                rest = after;
                continue;
            }
        }
        rest = &after[2..];
    }
    out.push_str(rest);
    out
}

// ---------------------------------------------------------------------------
// Scoped thread-local context
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT: RefCell<Vec<CallContext>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard restoring the previous scoped context on drop.
pub struct ScopeGuard {
    _private: (),
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Install `ctx` as the current context for this thread until the returned
/// guard drops. Scopes nest; the innermost wins.
pub fn scope(ctx: &CallContext) -> ScopeGuard {
    CURRENT.with(|stack| stack.borrow_mut().push(ctx.clone()));
    ScopeGuard { _private: () }
}

/// The innermost scoped context on this thread, if any.
pub fn current() -> Option<CallContext> {
    CURRENT.with(|stack| stack.borrow().last().cloned())
}

/// True when a scoped context exists and is expired or cancelled. The check
/// deep layers (minidb row loops, wrapper delays) run without needing a
/// `CallContext` parameter.
pub fn current_expired() -> bool {
    CURRENT.with(|stack| {
        stack
            .borrow()
            .last()
            .map(|ctx| ctx.expired())
            .unwrap_or(false)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ids_are_unique() {
        let a = CallContext::new();
        let b = CallContext::new();
        assert_ne!(a.request_id(), b.request_id());
        assert!(a.deadline().is_none());
        assert!(!a.expired());
        assert!(a.deadline_ms().is_none());
    }

    #[test]
    fn budget_expires() {
        let ctx = CallContext::with_budget(Duration::from_millis(20));
        assert!(!ctx.expired());
        assert!(ctx.deadline_ms().unwrap() <= 20);
        std::thread::sleep(Duration::from_millis(30));
        assert!(ctx.deadline_expired());
        assert!(ctx.expired());
        assert_eq!(ctx.remaining(), Some(Duration::ZERO));
        assert_eq!(ctx.deadline_ms(), Some(0));
    }

    #[test]
    fn cancellation_is_per_leg() {
        let root = CallContext::with_budget(Duration::from_secs(5));
        let primary = root.leg(leg_tag(0, 0), 0);
        let hedge = root.leg(leg_tag(0, 1), 1);
        assert_eq!(primary.request_id(), hedge.request_id());
        assert_ne!(primary.cancel_key(), hedge.cancel_key());
        hedge.cancel();
        assert!(hedge.expired());
        assert!(!primary.expired());
        assert!(!root.expired());
        assert_eq!(hedge.hedge_attempt(), 1);
    }

    #[test]
    fn legs_share_the_trace() {
        let root = CallContext::new();
        let leg = root.leg(leg_tag(2, 0), 0);
        leg.push_span(Span::new("gateway", "getPR", "SiteA", 42, "ok"));
        root.push_span(Span::new("gateway", "federatedQuery", "", 99, "ok"));
        let spans = root.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].site, "SiteA");
        assert_eq!(spans[1].operation, "federatedQuery");
    }

    #[test]
    fn wire_roundtrip() {
        let ctx = CallContext::with_budget(Duration::from_millis(500));
        let leg = ctx.leg(leg_tag(3, 1), 1);
        let rebuilt = CallContext::from_wire(
            Some(leg.request_id()),
            leg.deadline_ms().map(|ms| ms.to_string()).as_deref(),
            Some(leg.leg_tag()),
        );
        assert_eq!(rebuilt.request_id(), ctx.request_id());
        assert_eq!(rebuilt.leg_tag(), "t3.a1");
        assert_eq!(rebuilt.hedge_attempt(), 1);
        assert_eq!(rebuilt.cancel_key(), leg.cancel_key());
        let remaining = rebuilt.remaining().unwrap();
        assert!(remaining <= Duration::from_millis(500));
        assert!(remaining > Duration::from_millis(100));
    }

    #[test]
    fn from_wire_without_id_mints_one() {
        let ctx = CallContext::from_wire(None, None, None);
        assert!(!ctx.request_id().is_empty());
        assert!(ctx.deadline().is_none());
        assert_eq!(ctx.cancel_key(), ctx.request_id());
    }

    #[test]
    fn budget_shrink_takes_the_minimum() {
        let ctx = CallContext::with_budget(Duration::from_millis(50));
        let tighter = ctx.with_remaining(Duration::from_secs(10));
        // An ample retry budget cannot extend the original deadline.
        assert!(tighter.remaining().unwrap() <= Duration::from_millis(50));
        let narrower = ctx.with_remaining(Duration::from_millis(5));
        assert!(narrower.remaining().unwrap() <= Duration::from_millis(5));
        assert_eq!(narrower.request_id(), ctx.request_id());
    }

    #[test]
    fn trace_encoding_roundtrips_hostile_strings() {
        let spans = vec![
            Span::new("ogsi.stub", "getPR", "127.0.0.1:8080", 1234, "ok"),
            Span::new(
                "gateway",
                "federatedQuery",
                "Site;With|Weird%Chars",
                0,
                "fault: bad | pipe; semi\nnewline",
            ),
        ];
        let encoded = encode_trace(&spans);
        assert!(!encoded.contains('\n'));
        assert_eq!(decode_trace(&encoded), spans);
    }

    #[test]
    fn malformed_trace_spans_are_skipped() {
        let decoded = decode_trace("a;b;c;12;ok|garbage|x;y;z;notanumber;ok||");
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].layer, "a");
    }

    #[test]
    fn scoped_context_nests_and_restores() {
        assert!(current().is_none());
        let outer = CallContext::with_request_id("outer");
        let guard = scope(&outer);
        assert_eq!(current().unwrap().request_id(), "outer");
        {
            let inner = CallContext::with_request_id("inner");
            let _g2 = scope(&inner);
            assert_eq!(current().unwrap().request_id(), "inner");
            inner.cancel();
            assert!(current_expired());
        }
        assert_eq!(current().unwrap().request_id(), "outer");
        assert!(!current_expired());
        drop(guard);
        assert!(current().is_none());
        assert!(!current_expired());
    }
}
