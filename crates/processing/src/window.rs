//! Windowed aggregation over state.
//!
//! The paper lists "a window of the most recent stream data" as the
//! canonical task state (§3.2). These helpers keep per-(window, key)
//! aggregates in the task's [`StateStore`] — so windows survive failures
//! via the changelog — and close windows by event-time watermark.
//!
//! Keys are laid out as `w|<window_start:020>|<key>` so that a range
//! scan retrieves all aggregates of expired windows in order.

use bytes::Bytes;
use liquid_sim::clock::Ts;

use crate::state::{counter_bytes, StateStore};

const WATERMARK_KEY: &[u8] = b"~watermark";

/// A closed window's aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowResult {
    /// Inclusive start of the window (ms).
    pub window_start: Ts,
    /// Group key.
    pub key: Bytes,
    /// Aggregated count (or sum, depending on what was added).
    pub value: u64,
}

/// Fixed-size, non-overlapping windows.
#[derive(Debug, Clone, Copy)]
pub struct TumblingWindow {
    /// Window length (ms).
    pub size_ms: u64,
    /// Late events within this slack still count; windows close only
    /// once the watermark passes `end + lateness`.
    pub allowed_lateness_ms: u64,
}

impl TumblingWindow {
    /// Windows of `size_ms` with no lateness allowance.
    pub fn new(size_ms: u64) -> Self {
        assert!(size_ms > 0, "window size must be positive");
        TumblingWindow {
            size_ms,
            allowed_lateness_ms: 0,
        }
    }

    /// Sets the lateness allowance.
    pub fn with_lateness(mut self, ms: u64) -> Self {
        self.allowed_lateness_ms = ms;
        self
    }

    /// Start of the window containing `ts`.
    pub fn window_start(&self, ts: Ts) -> Ts {
        ts - ts % self.size_ms
    }

    /// Adds `delta` to the aggregate of (`window of ts`, `key`),
    /// advancing the event-time watermark.
    pub fn add(
        &self,
        store: &mut StateStore,
        ts: Ts,
        key: &[u8],
        delta: u64,
    ) -> crate::Result<u64> {
        let start = self.window_start(ts);
        let next = store.add_counter(&window_key(start, key), delta)?;
        // Advance the watermark monotonically.
        if ts > self.watermark(store) {
            store.put(Bytes::from_static(WATERMARK_KEY), counter_bytes(ts))?;
        }
        Ok(next)
    }

    /// Current event-time watermark (max timestamp observed).
    pub fn watermark(&self, store: &mut StateStore) -> Ts {
        store.get_counter(WATERMARK_KEY)
    }

    /// Closes every window whose `end + lateness <= watermark`,
    /// removing its aggregates from the store and returning them.
    pub fn close_ready(&self, store: &mut StateStore) -> crate::Result<Vec<WindowResult>> {
        let wm = self.watermark(store);
        let mut out = Vec::new();
        // All window entries are under the "w|" prefix, ordered by
        // window start.
        let entries = store.range(Some(b"w|"), Some(b"w}"));
        for (k, v) in entries {
            let Some((start, key)) = parse_window_key(&k) else {
                continue;
            };
            if start + self.size_ms + self.allowed_lateness_ms <= wm {
                let value = v
                    .as_ref()
                    .try_into()
                    .ok()
                    .map(u64::from_le_bytes)
                    .unwrap_or(0);
                out.push(WindowResult {
                    window_start: start,
                    key,
                    value,
                });
                store.delete(k)?;
            }
        }
        Ok(out)
    }

    /// Aggregates still open (diagnostics).
    pub fn open_windows(&self, store: &mut StateStore) -> usize {
        store.range(Some(b"w|"), Some(b"w}")).len()
    }
}

/// Overlapping windows: length `size_ms`, advancing every `slide_ms`.
/// An event belongs to `size/slide` windows; aggregates are stored per
/// window exactly like tumbling ones.
#[derive(Debug, Clone, Copy)]
pub struct SlidingWindow {
    /// Window length (ms).
    pub size_ms: u64,
    /// Slide interval (ms); must divide evenly into windows.
    pub slide_ms: u64,
}

impl SlidingWindow {
    /// A sliding window; `slide_ms` must be ≤ `size_ms` and positive.
    pub fn new(size_ms: u64, slide_ms: u64) -> Self {
        assert!(slide_ms > 0 && slide_ms <= size_ms, "invalid slide");
        SlidingWindow { size_ms, slide_ms }
    }

    /// Starts of every window containing `ts`.
    pub fn window_starts(&self, ts: Ts) -> Vec<Ts> {
        let last = ts - ts % self.slide_ms;
        let mut starts = Vec::new();
        let mut s = last;
        loop {
            if s + self.size_ms > ts {
                starts.push(s);
            }
            if s < self.slide_ms || s == 0 {
                break;
            }
            s -= self.slide_ms;
            if s + self.size_ms <= ts {
                break;
            }
        }
        starts.sort_unstable();
        starts
    }

    /// Adds `delta` to every window containing `ts`.
    pub fn add(&self, store: &mut StateStore, ts: Ts, key: &[u8], delta: u64) -> crate::Result<()> {
        for start in self.window_starts(ts) {
            store.add_counter(&window_key(start, key), delta)?;
        }
        Ok(())
    }

    /// Reads the aggregate of the window starting at `start`.
    pub fn get(&self, store: &mut StateStore, start: Ts, key: &[u8]) -> u64 {
        store.get_counter(&window_key(start, key))
    }
}

fn window_key(start: Ts, key: &[u8]) -> Vec<u8> {
    let mut k = format!("w|{start:020}|").into_bytes();
    k.extend_from_slice(key);
    k
}

fn parse_window_key(k: &[u8]) -> Option<(Ts, Bytes)> {
    let s = k.strip_prefix(b"w|")?;
    if s.len() < 21 {
        return None;
    }
    let start: Ts = std::str::from_utf8(&s[..20]).ok()?.parse().ok()?;
    Some((start, Bytes::copy_from_slice(&s[21..])))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_start_aligns() {
        let w = TumblingWindow::new(1000);
        assert_eq!(w.window_start(0), 0);
        assert_eq!(w.window_start(999), 0);
        assert_eq!(w.window_start(1000), 1000);
        assert_eq!(w.window_start(1500), 1000);
    }

    #[test]
    fn counts_accumulate_per_window_and_key() {
        let w = TumblingWindow::new(1000);
        let mut s = StateStore::ephemeral();
        w.add(&mut s, 100, b"cdn-a", 1).unwrap();
        w.add(&mut s, 200, b"cdn-a", 1).unwrap();
        w.add(&mut s, 300, b"cdn-b", 1).unwrap();
        w.add(&mut s, 1100, b"cdn-a", 1).unwrap();
        assert_eq!(w.open_windows(&mut s), 3);
    }

    #[test]
    fn windows_close_when_watermark_passes() {
        let w = TumblingWindow::new(1000);
        let mut s = StateStore::ephemeral();
        w.add(&mut s, 100, b"k", 2).unwrap();
        w.add(&mut s, 500, b"k", 3).unwrap();
        assert!(w.close_ready(&mut s).unwrap().is_empty(), "window open");
        // An event at 2000 pushes the watermark past window [0,1000).
        w.add(&mut s, 2000, b"k", 1).unwrap();
        let closed = w.close_ready(&mut s).unwrap();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].window_start, 0);
        assert_eq!(closed[0].value, 5);
        assert_eq!(closed[0].key, Bytes::from_static(b"k"));
        // Closed windows are gone; the open one remains.
        assert_eq!(w.open_windows(&mut s), 1);
    }

    #[test]
    fn lateness_delays_closing() {
        let w = TumblingWindow::new(1000).with_lateness(500);
        let mut s = StateStore::ephemeral();
        w.add(&mut s, 100, b"k", 1).unwrap();
        w.add(&mut s, 1200, b"k", 1).unwrap();
        assert!(w.close_ready(&mut s).unwrap().is_empty(), "within lateness");
        // Late event still lands in the old window.
        w.add(&mut s, 900, b"k", 1).unwrap();
        w.add(&mut s, 1600, b"k", 1).unwrap();
        let closed = w.close_ready(&mut s).unwrap();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].value, 2, "late event counted");
    }

    #[test]
    fn multiple_keys_close_together() {
        let w = TumblingWindow::new(100);
        let mut s = StateStore::ephemeral();
        for key in ["a", "b", "c"] {
            w.add(&mut s, 10, key.as_bytes(), 1).unwrap();
        }
        w.add(&mut s, 250, b"later", 1).unwrap();
        let closed = w.close_ready(&mut s).unwrap();
        assert_eq!(closed.len(), 3);
        let keys: Vec<_> = closed.iter().map(|c| c.key.clone()).collect();
        assert!(keys.contains(&Bytes::from_static(b"a")));
    }

    #[test]
    fn sliding_window_assigns_multiple() {
        let w = SlidingWindow::new(1000, 500);
        let starts = w.window_starts(1200);
        assert_eq!(starts, vec![500, 1000]);
        let starts0 = w.window_starts(100);
        assert_eq!(starts0, vec![0]);
    }

    #[test]
    fn sliding_window_counts() {
        let w = SlidingWindow::new(1000, 500);
        let mut s = StateStore::ephemeral();
        w.add(&mut s, 600, b"k", 1).unwrap(); // windows 500, 0
        w.add(&mut s, 1100, b"k", 1).unwrap(); // windows 1000, 500
        assert_eq!(w.get(&mut s, 0, b"k"), 1);
        assert_eq!(w.get(&mut s, 500, b"k"), 2);
        assert_eq!(w.get(&mut s, 1000, b"k"), 1);
        assert_eq!(w.get(&mut s, 1500, b"k"), 0);
    }

    #[test]
    fn window_key_roundtrip() {
        let k = window_key(123456, b"user-9");
        let (start, key) = parse_window_key(&k).unwrap();
        assert_eq!(start, 123456);
        assert_eq!(key, Bytes::from_static(b"user-9"));
        assert_eq!(parse_window_key(b"other"), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        TumblingWindow::new(0);
    }
}
