//! Aggregation helpers over task state.
//!
//! The paper lists "a dictionary of statistics" as canonical task state
//! (§3.2) and the operational-analysis use case needs "aggregate values
//! to facilitate analysis" (§5.1). These helpers layer the common
//! aggregates — counters, sums, min/max, top-k — over a
//! [`StateStore`], so they survive failures via the changelog like any
//! other state.

use bytes::Bytes;

use crate::state::{counter_bytes, counter_of, StateStore};

/// Keyed counters and sums with a shared namespace prefix.
#[derive(Debug, Clone, Copy)]
pub struct KeyedAggregate<'a> {
    prefix: &'a str,
}

impl<'a> KeyedAggregate<'a> {
    /// Creates an aggregate family under `prefix` (e.g. `"errors"`).
    pub fn new(prefix: &'a str) -> Self {
        KeyedAggregate { prefix }
    }

    fn key(&self, key: &[u8]) -> Vec<u8> {
        let mut k = format!("agg|{}|", self.prefix).into_bytes();
        k.extend_from_slice(key);
        k
    }

    /// Adds `delta`, returning the new total.
    pub fn add(&self, store: &mut StateStore, key: &[u8], delta: u64) -> crate::Result<u64> {
        store.add_counter(&self.key(key), delta)
    }

    /// Current total (0 if absent).
    pub fn get(&self, store: &mut StateStore, key: &[u8]) -> u64 {
        store.get_counter(&self.key(key))
    }

    /// Raises the stored value to `candidate` if larger; returns the
    /// current maximum (rewritten as it is when `candidate` is not).
    pub fn max(&self, store: &mut StateStore, key: &[u8], candidate: u64) -> crate::Result<u64> {
        let mut max = candidate;
        store.update(&self.key(key), |current| {
            max = max.max(counter_of(current));
            counter_bytes(max)
        })?;
        Ok(max)
    }

    /// All `(key, value)` pairs of this family, in key order.
    pub fn scan(&self, store: &mut StateStore) -> Vec<(Bytes, u64)> {
        let lo = format!("agg|{}|", self.prefix).into_bytes();
        let mut hi = lo.clone();
        hi.push(0xFF);
        store
            .range(Some(&lo), Some(&hi))
            .into_iter()
            .filter_map(|(k, v)| {
                let value = u64::from_le_bytes(v.as_ref().try_into().ok()?);
                Some((k.slice(lo.len()..), value))
            })
            .collect()
    }

    /// The `k` largest entries, descending (ties broken by key).
    pub fn top_k(&self, store: &mut StateStore, k: usize) -> Vec<(Bytes, u64)> {
        let mut all = self.scan(store);
        all.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        // lint:allow(dropped-result, reason=this is std Vec::truncate returning unit, not the Result-returning Storage::truncate it shadows by name)
        all.truncate(k);
        all
    }
}

/// Running mean/min/max over `u64` samples, stored per key.
#[derive(Debug, Clone, Copy)]
pub struct RunningStats<'a> {
    prefix: &'a str,
}

/// A point-in-time read of [`RunningStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsView {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (u64::MAX when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
}

impl StatsView {
    const EMPTY: StatsView = StatsView {
        count: 0,
        sum: 0,
        min: u64::MAX,
        max: 0,
    };

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

impl<'a> RunningStats<'a> {
    /// Creates a stats family under `prefix`.
    pub fn new(prefix: &'a str) -> Self {
        RunningStats { prefix }
    }

    fn key(&self, key: &[u8]) -> Vec<u8> {
        let mut k = format!("stats|{}|", self.prefix).into_bytes();
        k.extend_from_slice(key);
        k
    }

    /// Records one sample; returns the updated view.
    pub fn record(
        &self,
        store: &mut StateStore,
        key: &[u8],
        sample: u64,
    ) -> crate::Result<StatsView> {
        let mut v = StatsView::EMPTY;
        store.update(&self.key(key), |current| {
            v = stats_view_of(current);
            v.count += 1;
            v.sum += sample;
            v.min = v.min.min(sample);
            v.max = v.max.max(sample);
            let mut buf = Vec::with_capacity(32);
            buf.extend_from_slice(&v.count.to_le_bytes());
            buf.extend_from_slice(&v.sum.to_le_bytes());
            buf.extend_from_slice(&v.min.to_le_bytes());
            buf.extend_from_slice(&v.max.to_le_bytes());
            Bytes::from(buf)
        })?;
        Ok(v)
    }

    /// Current view (empty view if absent or malformed).
    pub fn get(&self, store: &mut StateStore, key: &[u8]) -> StatsView {
        stats_view_of(store.get(&self.key(key)).as_deref())
    }
}

/// The view a stored value encodes (absent or malformed = empty).
fn stats_view_of(value: Option<&[u8]>) -> StatsView {
    value
        .and_then(stats_view_from_bytes)
        .unwrap_or(StatsView::EMPTY)
}

/// Decodes the 32-byte stats encoding; `None` on any size mismatch —
/// a malformed value reads as the empty view rather than panicking.
fn stats_view_from_bytes(v: &[u8]) -> Option<StatsView> {
    Some(StatsView {
        count: u64::from_le_bytes(v.get(0..8)?.try_into().ok()?),
        sum: u64::from_le_bytes(v.get(8..16)?.try_into().ok()?),
        min: u64::from_le_bytes(v.get(16..24)?.try_into().ok()?),
        max: u64::from_le_bytes(v.get(24..32)?.try_into().ok()?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_counts_and_scan() {
        let mut s = StateStore::ephemeral();
        let errors = KeyedAggregate::new("errors");
        errors.add(&mut s, b"host-1", 3).unwrap();
        errors.add(&mut s, b"host-2", 1).unwrap();
        assert_eq!(errors.add(&mut s, b"host-1", 2).unwrap(), 5);
        assert_eq!(errors.get(&mut s, b"host-1"), 5);
        assert_eq!(errors.get(&mut s, b"ghost"), 0);
        let all = errors.scan(&mut s);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], (Bytes::from_static(b"host-1"), 5));
    }

    #[test]
    fn families_are_isolated() {
        let mut s = StateStore::ephemeral();
        let a = KeyedAggregate::new("a");
        let b = KeyedAggregate::new("b");
        a.add(&mut s, b"k", 1).unwrap();
        b.add(&mut s, b"k", 10).unwrap();
        assert_eq!(a.get(&mut s, b"k"), 1);
        assert_eq!(b.get(&mut s, b"k"), 10);
        assert_eq!(a.scan(&mut s).len(), 1);
    }

    #[test]
    fn max_tracks_peak() {
        let mut s = StateStore::ephemeral();
        let cpu = KeyedAggregate::new("maxcpu");
        cpu.max(&mut s, b"h", 40).unwrap();
        cpu.max(&mut s, b"h", 90).unwrap();
        assert_eq!(cpu.max(&mut s, b"h", 60).unwrap(), 90);
    }

    #[test]
    fn top_k_orders_descending() {
        let mut s = StateStore::ephemeral();
        let views = KeyedAggregate::new("views");
        for (k, n) in [
            ("page-a", 5u64),
            ("page-b", 50),
            ("page-c", 20),
            ("page-d", 50),
        ] {
            views.add(&mut s, k.as_bytes(), n).unwrap();
        }
        let top = views.top_k(&mut s, 3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].1, 50);
        assert_eq!(top[1].1, 50);
        assert_eq!(top[2], (Bytes::from_static(b"page-c"), 20));
        // Ties broken by key: page-b before page-d.
        assert_eq!(top[0].0, Bytes::from_static(b"page-b"));
    }

    #[test]
    fn running_stats_accumulate() {
        let mut s = StateStore::ephemeral();
        let load = RunningStats::new("load");
        load.record(&mut s, b"cdn", 100).unwrap();
        load.record(&mut s, b"cdn", 300).unwrap();
        let v = load.record(&mut s, b"cdn", 200).unwrap();
        assert_eq!(v.count, 3);
        assert_eq!(v.sum, 600);
        assert_eq!(v.min, 100);
        assert_eq!(v.max, 300);
        assert_eq!(v.mean(), 200.0);
        let empty = load.get(&mut s, b"other");
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn aggregates_survive_changelog_recovery() {
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
        {
            let mut s = StateStore::with_changelog(c.clone(), tp.clone()).unwrap();
            let agg = KeyedAggregate::new("n");
            agg.add(&mut s, b"k", 7).unwrap();
            s.flush().unwrap();
        }
        let mut restored = StateStore::with_changelog(c, tp).unwrap();
        restored.restore_from_changelog().unwrap();
        assert_eq!(KeyedAggregate::new("n").get(&mut restored, b"k"), 7);
    }
}
