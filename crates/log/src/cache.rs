//! Sharded LRU segment-read cache.
//!
//! Sealed segments are immutable, so their decoded records can be kept
//! in memory and served to every reader as zero-copy [`Record`] clones
//! (a clone only bumps the `Bytes` refcounts). One cache is shared by
//! many logs — the cluster attaches it to every replica log with a
//! unique log id — and is split into shards so concurrent readers of
//! different segments never contend on one mutex.
//!
//! Capacity is counted in *bytes an entry retains*, split evenly
//! across the shards: the encoded size of its records plus one `Record`
//! struct each. The records' keys and values are slices of the chunks
//! the fill read — over `MemStorage` the stored frames themselves,
//! shared, not copied — and a chunk is never longer than what was
//! decoded from it, so that sum is what the entry pins. When a fill
//! pushes a shard over its share, the least-recently-used entries are
//! evicted under the shard lock; each eviction is a fault-injection
//! decision point (`log.cache-evict`), so chaos runs can crash a broker
//! mid-fill and check that nothing torn is ever served.
//!
//! Determinism: shard selection is a fixed multiplicative hash and the
//! entries live in `BTreeMap`s, so two runs with the same seed make
//! identical caching decisions — required by the chaos harness's
//! same-seed-same-report invariant.

use std::collections::BTreeMap;
use std::mem::size_of;
use std::sync::Arc;

use liquid_obs::{CounterHandle, Obs};
use liquid_sim::failure::FailureInjector;
use liquid_sim::lockdep::Mutex;

use crate::error::LogError;
use crate::record::Record;

/// Configuration for a [`SegmentReadCache`].
#[derive(Debug, Clone)]
pub struct ReadCacheConfig {
    /// Total budget in bytes the entries retain — their records'
    /// encoded size plus one `Record` struct each — split across the
    /// shards.
    pub capacity_bytes: u64,
    /// Number of independently locked shards (at least 1).
    pub shards: usize,
    /// Observability domain for the hit/miss/eviction counters.
    pub obs: Obs,
}

impl Default for ReadCacheConfig {
    fn default() -> Self {
        ReadCacheConfig {
            capacity_bytes: 64 * 1024 * 1024,
            shards: 8,
            obs: Obs::default(),
        }
    }
}

/// Registry handles, resolved once at construction. The eviction
/// counter is the twin metric of the `log.cache-evict` fault site.
#[derive(Debug, Clone)]
struct CacheMetrics {
    hit: CounterHandle,
    miss: CounterHandle,
    evict: CounterHandle,
}

impl CacheMetrics {
    fn resolve(obs: &Obs) -> Self {
        let reg = obs.registry();
        CacheMetrics {
            hit: reg.counter("log.cache.hit"),
            miss: reg.counter("log.cache.miss"),
            evict: reg.counter("log.cache-evict"),
        }
    }
}

/// One fully decoded sealed segment.
struct CacheEntry {
    /// The segment's records, shared with every reader that hit it.
    records: Arc<Vec<Record>>,
    /// [`entry_charge`] of `records` — what counts against capacity.
    bytes: u64,
    /// Shard-local logical clock value of the last touch (LRU order).
    last_used: u64,
}

#[derive(Default)]
struct ShardState {
    /// Entries keyed by namespaced segment id.
    entries: BTreeMap<u64, CacheEntry>,
    /// Total `CacheEntry::bytes` across `entries`.
    bytes: u64,
    /// Shard-local logical clock, advanced on every touch.
    tick: u64,
}

/// One shard: its entry map sits behind its own ranked mutex so readers
/// of different segments proceed in parallel.
struct ReadCacheShard {
    shard: Mutex<ShardState>,
}

impl ReadCacheShard {
    fn new() -> Self {
        ReadCacheShard {
            shard: Mutex::new("log.readcache", ShardState::default()),
        }
    }
}

/// Sharded LRU cache of decoded sealed segments, shared across logs.
pub struct SegmentReadCache {
    shards: Vec<ReadCacheShard>,
    capacity_per_shard: u64,
    metrics: CacheMetrics,
}

impl SegmentReadCache {
    /// Creates a cache with `config.shards` independently locked shards,
    /// each owning an equal share of `config.capacity_bytes`.
    pub fn new(config: ReadCacheConfig) -> Arc<Self> {
        let n = config.shards.max(1);
        Arc::new(SegmentReadCache {
            shards: (0..n).map(|_| ReadCacheShard::new()).collect(),
            capacity_per_shard: (config.capacity_bytes / n as u64).max(1),
            metrics: CacheMetrics::resolve(&config.obs),
        })
    }

    /// The shard responsible for segment id `sid` (fixed multiplicative
    /// hash, so placement is identical across runs and processes).
    fn shard_slot(&self, sid: u64) -> Option<&ReadCacheShard> {
        let spread = sid.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
        self.shards.get(spread as usize % self.shards.len().max(1))
    }

    /// Serves records of cached segment `sid` from `from` under the
    /// same byte-budget rule as `Segment::read_from` (records are pushed
    /// until the running total reaches `max_bytes`, always at least one
    /// if any qualify). `None` is a miss; the caller decodes the
    /// segment from storage and offers it back via [`insert`].
    ///
    /// [`insert`]: Self::insert
    pub fn get(&self, sid: u64, from: u64, max_bytes: u64) -> Option<Vec<Record>> {
        let slot = self.shard_slot(sid)?;
        let mut st = slot.shard.lock();
        st.tick += 1;
        let tick = st.tick;
        let Some(entry) = st.entries.get_mut(&sid) else {
            drop(st);
            self.metrics.miss.inc();
            return None;
        };
        entry.last_used = tick;
        let records = Arc::clone(&entry.records);
        drop(st);
        self.metrics.hit.inc();
        Some(slice_from(&records, from, max_bytes))
    }

    /// Inserts the fully decoded sealed segment `sid`, evicting
    /// least-recently-used entries while the shard is over its capacity
    /// share. Evictions complete under the shard lock (the shard is
    /// never observed inconsistent); each one then ticks the
    /// `log.cache-evict` fault site outside the guard, where an
    /// injected failure costs only cache warmth, never correctness.
    /// Returns the shared records so the caller can serve the read that
    /// caused the fill.
    pub fn insert(
        &self,
        sid: u64,
        records: Vec<Record>,
        injector: &FailureInjector,
    ) -> crate::Result<Arc<Vec<Record>>> {
        let bytes = entry_charge(&records);
        let records = Arc::new(records);
        let Some(slot) = self.shard_slot(sid) else {
            return Ok(records);
        };
        let mut evicted = 0u64;
        {
            let mut st = slot.shard.lock();
            st.tick += 1;
            let tick = st.tick;
            if let Some(old) = st.entries.remove(&sid) {
                st.bytes = st.bytes.saturating_sub(old.bytes);
            }
            st.entries.insert(
                sid,
                CacheEntry {
                    records: Arc::clone(&records),
                    bytes,
                    last_used: tick,
                },
            );
            st.bytes = st.bytes.saturating_add(bytes);
            while st.bytes > self.capacity_per_shard {
                let victim = st
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(&k, _)| k);
                let Some(victim) = victim else { break };
                if let Some(e) = st.entries.remove(&victim) {
                    st.bytes = st.bytes.saturating_sub(e.bytes);
                }
                evicted += 1;
            }
        }
        for _ in 0..evicted {
            self.metrics.evict.inc();
            if injector.tick("log.cache-evict") {
                return Err(LogError::Injected("log.cache-evict"));
            }
        }
        Ok(records)
    }

    /// Drops the cached copy of segment `sid`, if any. Called when the
    /// segment is retired (retention drop, truncation) or rewritten
    /// (compaction) so stale records are never served.
    pub fn invalidate(&self, sid: u64) {
        let Some(slot) = self.shard_slot(sid) else {
            return;
        };
        let mut st = slot.shard.lock();
        if let Some(e) = st.entries.remove(&sid) {
            st.bytes = st.bytes.saturating_sub(e.bytes);
        }
    }

    /// Total bytes currently cached across all shards (tests, gauges).
    pub fn cached_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.shard.lock().bytes).sum()
    }

    /// Total entries currently cached across all shards.
    pub fn cached_segments(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.shard.lock().entries.len())
            .sum()
    }
}

/// What a cached segment is charged against capacity: the bytes it
/// retains — every record's encoding (the chunk bytes its slices pin)
/// plus the `Record` struct itself.
pub(crate) fn entry_charge(records: &[Record]) -> u64 {
    let wire: u64 = records.iter().map(|r| r.wire_size() as u64).sum();
    wire.saturating_add((records.len() as u64).saturating_mul(size_of::<Record>() as u64))
}

/// Slices a cached segment the way `Segment::read_from` reads storage:
/// skip records before `from`, then push records while accumulating
/// their encoded size, stopping *after* the record that reaches
/// `max_bytes` (so at least one record is returned if any qualify).
pub(crate) fn slice_from(records: &[Record], from: u64, max_bytes: u64) -> Vec<Record> {
    let start = records.partition_point(|r| r.offset < from);
    let mut out = Vec::new();
    let mut bytes = 0u64;
    for rec in records.iter().skip(start) {
        bytes = bytes.saturating_add(rec.wire_size() as u64);
        out.push(rec.clone());
        if bytes >= max_bytes {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn rec(offset: u64, val: &str) -> Record {
        Record {
            offset,
            timestamp: offset,
            key: Some(Bytes::from(format!("k{offset}"))),
            value: Bytes::from(val.to_string()),
        }
    }

    fn cache(capacity: u64, shards: usize) -> (Arc<SegmentReadCache>, Obs) {
        let obs = Obs::default();
        (
            SegmentReadCache::new(ReadCacheConfig {
                capacity_bytes: capacity,
                shards,
                obs: obs.clone(),
            }),
            obs,
        )
    }

    #[test]
    #[cfg_attr(feature = "obs-off", allow(unused_variables))]
    fn miss_then_hit_round_trip() {
        let (c, obs) = cache(1 << 20, 4);
        let inj = FailureInjector::disabled();
        assert!(c.get(1, 0, u64::MAX).is_none());
        c.insert(1, vec![rec(0, "a"), rec(1, "b")], &inj).unwrap();
        let got = c.get(1, 0, u64::MAX).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].value, Bytes::from("b"));
        #[cfg(not(feature = "obs-off"))]
        {
            let snap = obs.snapshot();
            assert_eq!(snap.counter("log.cache.miss"), 1);
            assert_eq!(snap.counter("log.cache.hit"), 1);
        }
    }

    #[test]
    fn slice_respects_offset_and_budget() {
        let records: Vec<Record> = (0..10).map(|i| rec(i, "0123456789")).collect();
        let all = slice_from(&records, 0, u64::MAX);
        assert_eq!(all.len(), 10);
        let suffix = slice_from(&records, 7, u64::MAX);
        assert_eq!(suffix.len(), 3);
        assert_eq!(suffix[0].offset, 7);
        // A 1-byte budget still returns exactly one record.
        let one = slice_from(&records, 0, 1);
        assert_eq!(one.len(), 1);
        // Past the end: empty.
        assert!(slice_from(&records, 10, u64::MAX).is_empty());
    }

    #[test]
    fn slice_handles_sparse_offsets_after_compaction() {
        let records = vec![rec(3, "a"), rec(9, "b"), rec(20, "c")];
        let got = slice_from(&records, 5, u64::MAX);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].offset, 9);
    }

    #[test]
    #[cfg_attr(feature = "obs-off", allow(unused_variables))]
    fn eviction_keeps_capacity_bounded_and_counts() {
        let (c, obs) = cache(256, 1); // single shard, tiny budget
        let inj = FailureInjector::disabled();
        for sid in 0..20u64 {
            c.insert(sid, vec![rec(0, &"x".repeat(40))], &inj).unwrap();
        }
        assert!(c.cached_bytes() <= 256);
        assert!(c.cached_segments() < 20);
        #[cfg(not(feature = "obs-off"))]
        assert!(obs.snapshot().counter("log.cache-evict") > 0);
    }

    #[test]
    fn eviction_prefers_least_recently_used() {
        // Each entry is charged 80 B of encoding + one 80 B `Record`:
        // two fit, a third does not.
        let (c, _) = cache(400, 1);
        let inj = FailureInjector::disabled();
        let payload = "y".repeat(50);
        c.insert(1, vec![rec(0, &payload)], &inj).unwrap();
        c.insert(2, vec![rec(0, &payload)], &inj).unwrap();
        // Touch 1 so 2 becomes the LRU victim of the next fill.
        assert!(c.get(1, 0, u64::MAX).is_some());
        c.insert(3, vec![rec(0, &payload)], &inj).unwrap();
        assert!(c.get(1, 0, u64::MAX).is_some(), "recently used survives");
        assert!(c.get(2, 0, u64::MAX).is_none(), "LRU entry was evicted");
    }

    #[test]
    #[cfg_attr(feature = "obs-off", allow(unused_variables))]
    fn entries_are_charged_the_bytes_they_retain() {
        let (c, obs) = cache(1_000, 1);
        let inj = FailureInjector::disabled();
        let records = vec![rec(0, "abc"), rec(1, "defgh"), rec(2, "")];
        let wire: u64 = records.iter().map(|r| r.wire_size() as u64).sum();
        let charge = wire + 3 * std::mem::size_of::<Record>() as u64;
        c.insert(1, records.clone(), &inj).unwrap();
        assert_eq!(c.cached_bytes(), charge);
        c.insert(2, records, &inj).unwrap();
        assert_eq!(c.cached_bytes(), 2 * charge, "grows by exactly the charge");
        // An entry larger than its shard's share is still handed back
        // to the reader that filled it, then evicted (with everything
        // older): nothing panics, nothing oversized stays.
        let big: Vec<Record> = (0..20).map(|i| rec(i, "0123456789")).collect();
        let served = c.insert(3, big, &inj).unwrap();
        assert_eq!(served.len(), 20);
        assert_eq!(c.cached_segments(), 0);
        assert_eq!(c.cached_bytes(), 0);
        assert!(c.get(3, 0, u64::MAX).is_none());
        #[cfg(not(feature = "obs-off"))]
        assert_eq!(obs.snapshot().counter("log.cache-evict"), 3);
    }

    #[test]
    fn invalidate_removes_entry_and_bytes() {
        let (c, _) = cache(1 << 20, 2);
        let inj = FailureInjector::disabled();
        c.insert(5, vec![rec(0, "abc")], &inj).unwrap();
        assert!(c.cached_bytes() > 0);
        c.invalidate(5);
        assert_eq!(c.cached_bytes(), 0);
        assert!(c.get(5, 0, u64::MAX).is_none());
    }

    #[test]
    fn injected_eviction_aborts_fill() {
        let (c, _) = cache(160, 1); // room for one entry
        let inj = FailureInjector::disabled();
        c.insert(1, vec![rec(0, &"z".repeat(30))], &inj).unwrap();
        inj.fail_at(1);
        let err = c.insert(2, vec![rec(0, &"z".repeat(30))], &inj);
        assert!(matches!(err, Err(LogError::Injected("log.cache-evict"))));
        // The cache is still structurally sound afterwards.
        c.insert(3, vec![rec(0, "ok")], &inj).unwrap();
        assert!(c.get(3, 0, u64::MAX).is_some());
    }

    #[test]
    fn shard_placement_is_deterministic() {
        let (a, _) = cache(1 << 20, 8);
        let (b, _) = cache(1 << 20, 8);
        let inj = FailureInjector::disabled();
        for sid in 0..64u64 {
            a.insert(sid, vec![rec(0, "v")], &inj).unwrap();
            b.insert(sid, vec![rec(0, "v")], &inj).unwrap();
        }
        assert_eq!(a.cached_bytes(), b.cached_bytes());
        assert_eq!(a.cached_segments(), b.cached_segments());
        for sid in 0..64u64 {
            assert_eq!(a.get(sid, 0, 1).is_some(), b.get(sid, 0, 1).is_some());
        }
    }
}
