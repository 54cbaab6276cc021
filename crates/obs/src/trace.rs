//! The causal event tracer: span IDs plus a bounded ring of events.
//!
//! A **span** is a `u64` minted once per produced record — a batch's
//! records as one contiguous run ([`Tracer::mint_run`]); 0 means "no
//! span" — and carried with the record through replication, fetch,
//! task delivery, and checkpoint. Each hop appends an [`Event`] per
//! record to a bounded ring buffer, a whole batch's events under one
//! lock ([`Tracer::record_all`]) — when a chaos invariant trips, the
//! tail of that ring is the causal story of the records in flight.
//!
//! Events are ordered by a deterministic sequence counter, not wall
//! time, so traced runs stay reproducible under the chaos harness's
//! seed-equality checks.
//!
//! Under the `obs-off` feature the minting functions return 0 and the
//! recording ones are no-ops.

#[cfg(not(feature = "obs-off"))]
use std::collections::VecDeque;
#[cfg(not(feature = "obs-off"))]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(feature = "obs-off"))]
use std::sync::Mutex;

use crate::json;

/// Default ring capacity (events kept before the oldest are dropped).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// One hop of a span's journey through the stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Deterministic sequence number (1-based, gap-free mint order).
    pub seq: u64,
    /// The span this event belongs to (0 = no span).
    pub span: u64,
    /// Hop kind: `produce`, `replicate`, `fetch`, `task.deliver`,
    /// `task.checkpoint`, …
    pub kind: &'static str,
    /// Where it happened (topic-partition, `tp@broker`, task name).
    pub site: String,
    /// Hop-specific value (usually the record offset).
    pub value: u64,
}

impl Event {
    /// Serializes one event as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str(&format!(
            "{{\"seq\":{},\"span\":{},\"kind\":",
            self.seq, self.span
        ));
        json::write_str(&mut out, self.kind);
        out.push_str(",\"site\":");
        json::write_str(&mut out, &self.site);
        out.push_str(&format!(",\"value\":{}}}", self.value));
        out
    }
}

/// Span minter + bounded event ring.
#[derive(Debug)]
pub struct Tracer {
    #[cfg(not(feature = "obs-off"))]
    next_span: AtomicU64,
    #[cfg(not(feature = "obs-off"))]
    next_seq: AtomicU64,
    #[cfg(not(feature = "obs-off"))]
    ring: Mutex<VecDeque<Event>>,
    #[cfg(not(feature = "obs-off"))]
    capacity: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::with_capacity(DEFAULT_RING_CAPACITY)
    }
}

impl Tracer {
    /// A tracer with the default ring capacity.
    pub fn new() -> Self {
        Tracer::default()
    }
}

#[cfg(not(feature = "obs-off"))]
impl Tracer {
    /// A tracer keeping at most `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            next_span: AtomicU64::new(1),
            next_seq: AtomicU64::new(1),
            ring: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Mints `n` consecutive nonzero span IDs at once and returns the
    /// first: a produced batch's spans are one contiguous run.
    pub fn mint_run(&self, n: u64) -> u64 {
        self.next_span.fetch_add(n, Ordering::Relaxed)
    }

    /// Appends one event to the ring: a run of one.
    pub fn record(&self, span: u64, kind: &'static str, site: &str, value: u64) {
        self.record_all(kind, site, [(span, value)]);
    }

    /// Appends one `kind` event per `(span, value)` of `events`, in
    /// order, under **one** ring lock — a batch's `produce`, `fetch` or
    /// `task.deliver` hop — evicting the oldest at capacity. Each event
    /// takes the next sequence number. At steady state (ring full) the
    /// evicted event's `site` buffer is reused, so recording allocates
    /// nothing on the hot path.
    pub fn record_all(
        &self,
        kind: &'static str,
        site: &str,
        events: impl IntoIterator<Item = (u64, u64)>,
    ) {
        let mut events = events.into_iter().peekable();
        if events.peek().is_none() {
            return;
        }
        let mut ring = match self.ring.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        for (span, value) in events {
            let recycled = if ring.len() >= self.capacity {
                ring.pop_front()
            } else {
                None
            };
            let mut event = recycled.unwrap_or_else(|| Event {
                seq: 0,
                span: 0,
                kind: "",
                site: String::new(),
                value: 0,
            });
            event.seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
            event.span = span;
            event.kind = kind;
            event.site.clear();
            event.site.push_str(site);
            event.value = value;
            ring.push_back(event);
        }
    }

    /// The most recent `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<Event> {
        let ring = match self.ring.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let skip = ring.len().saturating_sub(n);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Events currently held in the ring.
    pub fn len(&self) -> usize {
        match self.ring.lock() {
            Ok(g) => g.len(),
            Err(poisoned) => poisoned.into_inner().len(),
        }
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(feature = "obs-off")]
impl Tracer {
    /// A tracer keeping at most `capacity` events. No-op: `obs-off`.
    pub fn with_capacity(_capacity: usize) -> Self {
        Tracer {}
    }

    /// Mints a run of span IDs. Always 0: `obs-off`.
    pub fn mint_run(&self, _n: u64) -> u64 {
        0
    }

    /// Appends one event. No-op: `obs-off`.
    pub fn record(&self, _span: u64, _kind: &'static str, _site: &str, _value: u64) {}

    /// Appends a batch's events. No-op: `obs-off`.
    pub fn record_all(
        &self,
        _kind: &'static str,
        _site: &str,
        _events: impl IntoIterator<Item = (u64, u64)>,
    ) {
    }

    /// The most recent `n` events. Always empty: `obs-off`.
    pub fn tail(&self, _n: usize) -> Vec<Event> {
        Vec::new()
    }

    /// Events currently held. Always 0: `obs-off`.
    pub fn len(&self) -> usize {
        0
    }

    /// Whether the ring holds no events. Always true: `obs-off`.
    pub fn is_empty(&self) -> bool {
        true
    }
}

impl Tracer {
    /// The most recent `n` events as a JSON array, oldest first.
    pub fn tail_json(&self, n: usize) -> String {
        let events = self.tail(n);
        let mut out = String::with_capacity(events.len() * 64 + 2);
        out.push('[');
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json());
        }
        out.push(']');
        out
    }
}

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;

    #[test]
    fn mints_unique_nonzero_spans() {
        let t = Tracer::new();
        let a = t.mint_run(1);
        let b = t.mint_run(1);
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn records_in_order_and_bounds_the_ring() {
        let t = Tracer::with_capacity(3);
        for i in 0..5u64 {
            t.record(i, "produce", "t-0", i * 10);
        }
        assert_eq!(t.len(), 3);
        let tail = t.tail(10);
        let spans: Vec<u64> = tail.iter().map(|e| e.span).collect();
        assert_eq!(spans, vec![2, 3, 4]);
        // Sequence numbers survive eviction (they count all events).
        assert_eq!(tail.last().map(|e| e.seq), Some(5));
    }

    #[test]
    fn a_batch_of_events_is_a_run_of_records() {
        let t = Tracer::new();
        let first = t.mint_run(3);
        assert_eq!(
            (first, t.mint_run(1)),
            (1, 4),
            "a run takes consecutive spans"
        );
        t.record(9, "fetch", "t-0", 0);
        t.record_all("produce", "t-0", (0..3).map(|i| (first + i, 10 + i)));
        let events: Vec<(u64, u64, &str, u64)> = t
            .tail(8)
            .iter()
            .map(|e| (e.seq, e.span, e.kind, e.value))
            .collect();
        assert_eq!(
            events,
            vec![
                (1, 9, "fetch", 0),
                (2, 1, "produce", 10),
                (3, 2, "produce", 11),
                (4, 3, "produce", 12),
            ]
        );
    }

    #[test]
    fn tail_takes_newest() {
        let t = Tracer::new();
        t.record(1, "produce", "t-0", 0);
        t.record(1, "fetch", "t-0", 0);
        t.record(1, "task.deliver", "t-0", 0);
        let last2 = t.tail(2);
        assert_eq!(last2.len(), 2);
        assert_eq!(last2.first().map(|e| e.kind), Some("fetch"));
    }

    #[test]
    fn events_export_as_json() {
        let t = Tracer::new();
        t.record(7, "produce", "orders-0", 42);
        let json = t.tail_json(8);
        assert!(json.starts_with('['));
        assert!(json.contains("\"span\":7"));
        assert!(json.contains("\"site\":\"orders-0\""));
        assert!(json.contains("\"value\":42"));
        // And it parses back with the tiny parser.
        assert!(crate::json::Json::parse(&json).is_some());
    }

    #[test]
    fn empty_tracer_is_empty() {
        let t = Tracer::new();
        assert!(t.is_empty());
        assert_eq!(t.tail_json(4), "[]");
    }
}
