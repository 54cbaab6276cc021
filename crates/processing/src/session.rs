//! Session windows.
//!
//! The site-speed use case (§5.1): "back-end applications can consume
//! already pre-processed data that divides user events per session."
//! A session groups a key's events separated by gaps smaller than an
//! inactivity timeout; a gap larger than the timeout closes the session.
//! Sessions live in the task's [`StateStore`] (changelog-backed) under
//! `sess|<key>` and close when the event-time watermark passes the
//! session's end plus the gap.

use bytes::Bytes;
use liquid_sim::clock::Ts;

use crate::state::{counter_bytes, StateStore};

const WATERMARK_KEY: &[u8] = b"~sess-watermark";

/// A closed (or in-flight) session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// Session key (user, request, …).
    pub key: Bytes,
    /// Timestamp of the first event.
    pub start: Ts,
    /// Timestamp of the last event.
    pub end: Ts,
    /// Events in the session.
    pub events: u64,
}

impl Session {
    /// Session duration in ms.
    pub fn duration_ms(&self) -> u64 {
        self.end - self.start
    }
}

/// Sessionizer with a fixed inactivity gap.
#[derive(Debug, Clone, Copy)]
pub struct SessionWindow {
    /// Gap (ms) of inactivity that closes a session.
    pub gap_ms: u64,
}

impl SessionWindow {
    /// A sessionizer with the given inactivity gap.
    pub fn new(gap_ms: u64) -> Self {
        assert!(gap_ms > 0, "gap must be positive");
        SessionWindow { gap_ms }
    }

    fn state_key(key: &[u8]) -> Vec<u8> {
        let mut k = b"sess|".to_vec();
        k.extend_from_slice(key);
        k
    }

    fn encode(s: &Session) -> Bytes {
        let mut out = Vec::with_capacity(24);
        out.extend_from_slice(&s.start.to_le_bytes());
        out.extend_from_slice(&s.end.to_le_bytes());
        out.extend_from_slice(&s.events.to_le_bytes());
        Bytes::from(out)
    }

    fn decode(key: Bytes, v: &[u8]) -> Option<Session> {
        if v.len() != 24 {
            return None;
        }
        Some(Session {
            key,
            start: u64::from_le_bytes(v[0..8].try_into().ok()?),
            end: u64::from_le_bytes(v[8..16].try_into().ok()?),
            events: u64::from_le_bytes(v[16..24].try_into().ok()?),
        })
    }

    /// Records one event for `key` at `ts`. If the event's gap from the
    /// key's current session exceeds the timeout, that session closes
    /// and is returned; the event starts a new one.
    pub fn observe(
        &self,
        store: &mut StateStore,
        key: &[u8],
        ts: Ts,
    ) -> crate::Result<Option<Session>> {
        // Advance the watermark.
        if ts > store.get_counter(WATERMARK_KEY) {
            store.put(Bytes::from_static(WATERMARK_KEY), counter_bytes(ts))?;
        }
        let user = Bytes::copy_from_slice(key);
        let mut closed = None;
        store.update(&Self::state_key(key), |current| {
            let next = match current.and_then(|v| Self::decode(user.clone(), v)) {
                Some(mut s) if ts.saturating_sub(s.end) <= self.gap_ms => {
                    // Extends the open session (late events also merge).
                    s.end = s.end.max(ts);
                    s.start = s.start.min(ts);
                    s.events += 1;
                    s
                }
                other => {
                    closed = other;
                    Session {
                        key: user,
                        start: ts,
                        end: ts,
                        events: 1,
                    }
                }
            };
            Self::encode(&next)
        })?;
        Ok(closed)
    }

    /// Closes every session whose inactivity gap has elapsed relative to
    /// the event-time watermark; removes them from state.
    pub fn close_idle(&self, store: &mut StateStore) -> crate::Result<Vec<Session>> {
        let wm = store.get_counter(WATERMARK_KEY);
        let mut out = Vec::new();
        for (k, v) in store.range(Some(b"sess|"), Some(b"sess}")) {
            let key = k.slice(5..);
            let Some(s) = Self::decode(key, &v) else {
                continue;
            };
            if s.end + self.gap_ms <= wm {
                out.push(s);
                store.delete(k)?;
            }
        }
        Ok(out)
    }

    /// Open sessions (diagnostics).
    pub fn open_sessions(&self, store: &mut StateStore) -> usize {
        store.range(Some(b"sess|"), Some(b"sess}")).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> StateStore {
        StateStore::ephemeral()
    }

    #[test]
    fn events_within_gap_form_one_session() {
        let w = SessionWindow::new(1_000);
        let mut s = store();
        assert!(w.observe(&mut s, b"u1", 100).unwrap().is_none());
        assert!(w.observe(&mut s, b"u1", 600).unwrap().is_none());
        assert!(w.observe(&mut s, b"u1", 1_500).unwrap().is_none());
        assert_eq!(w.open_sessions(&mut s), 1);
    }

    #[test]
    fn gap_closes_and_returns_previous_session() {
        let w = SessionWindow::new(1_000);
        let mut s = store();
        w.observe(&mut s, b"u1", 100).unwrap();
        w.observe(&mut s, b"u1", 400).unwrap();
        let closed = w.observe(&mut s, b"u1", 5_000).unwrap().unwrap();
        assert_eq!(closed.start, 100);
        assert_eq!(closed.end, 400);
        assert_eq!(closed.events, 2);
        assert_eq!(closed.duration_ms(), 300);
        assert_eq!(w.open_sessions(&mut s), 1, "new session opened");
    }

    #[test]
    fn keys_sessionize_independently() {
        let w = SessionWindow::new(1_000);
        let mut s = store();
        w.observe(&mut s, b"u1", 100).unwrap();
        w.observe(&mut s, b"u2", 150).unwrap();
        assert!(w.observe(&mut s, b"u2", 5_000).unwrap().is_some());
        assert_eq!(w.open_sessions(&mut s), 2);
    }

    #[test]
    fn close_idle_flushes_by_watermark() {
        let w = SessionWindow::new(1_000);
        let mut s = store();
        w.observe(&mut s, b"u1", 100).unwrap();
        w.observe(&mut s, b"u2", 9_000).unwrap(); // watermark -> 9000
        let closed = w.close_idle(&mut s).unwrap();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].key, Bytes::from_static(b"u1"));
        // u2's session is still within its gap of the watermark.
        assert_eq!(w.open_sessions(&mut s), 1);
    }

    #[test]
    fn late_events_merge_into_open_session() {
        let w = SessionWindow::new(1_000);
        let mut s = store();
        w.observe(&mut s, b"u1", 1_000).unwrap();
        // An out-of-order event from just before — still within gap of
        // the session end.
        w.observe(&mut s, b"u1", 500).unwrap();
        w.observe(&mut s, b"u1", 8_000).unwrap();
        let closed = w.close_idle(&mut s).unwrap();
        // Watermark is 8000; old session closed with merged bounds.
        assert_eq!(closed.len(), 0, "8000 session still open, old one merged");
        let again = w.observe(&mut s, b"u1", 20_000).unwrap().unwrap();
        assert_eq!(again.start, 8_000);
    }

    #[test]
    fn session_state_survives_changelog_recovery() {
        use liquid_log::RetentionPolicy;
        use liquid_messaging::{Cluster, ClusterConfig, TopicConfig, TopicPartition};
        use liquid_sim::clock::SimClock;
        let c = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
        c.create_topic(
            "cl",
            TopicConfig::with_partitions(1).retention(RetentionPolicy::compact()),
        )
        .unwrap();
        let tp = TopicPartition::new("cl", 0);
        let w = SessionWindow::new(1_000);
        {
            let mut s = StateStore::with_changelog(c.clone(), tp.clone()).unwrap();
            w.observe(&mut s, b"u1", 100).unwrap();
            w.observe(&mut s, b"u1", 300).unwrap();
            s.flush().unwrap();
        }
        let mut restored = StateStore::with_changelog(c, tp).unwrap();
        restored.restore_from_changelog().unwrap();
        // The open session continues where it left off.
        let closed = w.observe(&mut restored, b"u1", 9_000).unwrap().unwrap();
        assert_eq!(closed.events, 2);
        assert_eq!(closed.end, 300);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_gap_rejected() {
        SessionWindow::new(0);
    }
}
