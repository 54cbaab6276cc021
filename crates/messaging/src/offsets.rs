//! The offset manager (paper §3.1 "Metadata-based access", §4.2).
//!
//! A logically-centralized, highly-available service that maps consumed
//! offsets to arbitrary metadata annotations — timestamps, software
//! versions, anything a back-end system wants to attach. Consumers
//! checkpoint their positions here and, after a failure or an algorithm
//! change, query for "the last offset my version processed" to resume or
//! rewind.
//!
//! Faithful to the paper, commits are *themselves* stored in a keyed,
//! compacted commit log (key = group + partition), so the manager's own
//! durability and bounded size come from log compaction (§4.1) rather
//! than an external database.
//!
//! # Lock layout (ROADMAP item 4 split, analyzer-proven)
//!
//! The in-memory view is sharded per `(group, topic-partition)`: the
//! manager holds only the backing log and a shard directory behind the
//! `offsets.inner` `RwLock`, and each key's committed-offset slot sits
//! behind its own `offsets.shard` mutex inside an [`OffsetShard`].
//! Commits serialize on the *log append* (the durability authority,
//! §4.2) under a brief `inner` write guard, then update their slot
//! under the shard lock alone — slot entries are keyed by the record's
//! log offset, so in-memory state converges to log order no matter how
//! slot-lock acquisitions interleave. Reads (`fetch`, `history`,
//! version queries) resolve the shard under a shared read guard, drop
//! it, and consult only the slot — two consumers touching different
//! keys no longer contend. The `atomicity` lint proves the
//! resolve→drop→lock gaps validated (the carried `Arc` is the
//! revalidation), and the `shard` lint classifies the slot rank
//! partition-local.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use bytes::Bytes;
use liquid_log::{Log, LogConfig, RetentionPolicy};
use liquid_obs::{CounterHandle, Obs};
use liquid_sim::clock::{SharedClock, Ts};
use liquid_sim::failure::FailureInjector;
use liquid_sim::lockdep::{Mutex, RwLock};

use crate::ids::TopicPartition;

/// A committed position plus annotations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OffsetCommit {
    /// Next offset the consumer will process (i.e. everything below is
    /// done).
    pub offset: u64,
    /// When the commit was made.
    pub committed_at: Ts,
    /// Arbitrary annotations: timestamps, software versions, …
    pub metadata: BTreeMap<String, String>,
}

/// The offset manager. Internally synchronized; cheap to share.
pub struct OffsetManager {
    inner: RwLock<Inner>,
    clock: SharedClock,
    injector: FailureInjector,
    /// Twin counter for the `offsets.commit` fault site.
    commits: CounterHandle,
}

struct Inner {
    /// Backing compacted log (the "__consumer_offsets" analogue).
    log: Log,
    /// Shard directory: one committed-offset slot per key. The
    /// directory itself only grows; per-key state lives in the shard.
    shards: HashMap<(String, TopicPartition), Arc<OffsetShard>>,
}

/// One `(group, topic-partition)` offset shard: the key's commit
/// history behind its own lock.
struct OffsetShard {
    slot: Mutex<Slot>,
}

/// Commit history for one key, ordered by backing-log offset. The log
/// append (under the `inner` write guard) is the single serialization
/// point; slot updates carry the record's log offset and insert in log
/// order, so the in-memory view converges to the log regardless of how
/// the post-append slot-lock acquisitions interleave.
#[derive(Default)]
struct Slot {
    entries: Vec<(u64, OffsetCommit)>,
}

impl Slot {
    /// Inserts `commit` at its log position (almost always the tail).
    fn insert(&mut self, log_offset: u64, commit: OffsetCommit) {
        let pos = self.entries.partition_point(|(o, _)| *o < log_offset);
        self.entries.insert(pos, (log_offset, commit));
    }

    /// The latest commit (highest log offset).
    fn latest(&self) -> Option<&OffsetCommit> {
        self.entries.last().map(|(_, c)| c)
    }
}

impl OffsetShard {
    fn new() -> Arc<OffsetShard> {
        Arc::new(OffsetShard {
            slot: Mutex::new("offsets.shard", Slot::default()),
        })
    }
}

impl OffsetManager {
    /// Creates an offset manager with an in-memory compacted backing
    /// log.
    pub fn new(clock: SharedClock) -> Self {
        OffsetManager::with_injector(clock, FailureInjector::disabled())
    }

    /// Like [`new`](Self::new) but with a fault injector on the commit
    /// path (chaos testing).
    pub fn with_injector(clock: SharedClock, injector: FailureInjector) -> Self {
        OffsetManager::with_obs(clock, injector, &Obs::default())
    }

    /// Full constructor: fault injector plus the observability sink the
    /// commit counter registers into.
    pub fn with_obs(clock: SharedClock, injector: FailureInjector, obs: &Obs) -> Self {
        let cfg = LogConfig {
            retention: RetentionPolicy::Compact {
                max_age_ms: None,
                max_bytes: None,
            },
            segment_bytes: 64 * 1024,
            ..LogConfig::default()
        };
        OffsetManager {
            inner: RwLock::new(
                "offsets.inner",
                Inner {
                    // lint:allow(panic-reachability, reason=the config above uses in-memory storage with a disabled injector; open has no fallible step on that path)
                    log: Log::open(cfg, clock.clone()).expect("memory log"),
                    shards: HashMap::new(),
                },
            ),
            clock,
            injector,
            commits: obs.registry().counter("offsets.commit"),
        }
    }

    /// Resolves the shard for `(group, tp)` if it exists, under a
    /// shared directory read guard.
    fn shard_if_exists(&self, group: &str, tp: &TopicPartition) -> Option<Arc<OffsetShard>> {
        let inner = self.inner.read();
        let shard = inner.shards.get(&(group.to_string(), tp.clone())).cloned();
        drop(inner);
        shard
    }

    /// Checkpoints `offset` for `(group, tp)` with annotations.
    pub fn commit(
        &self,
        group: &str,
        tp: &TopicPartition,
        offset: u64,
        metadata: BTreeMap<String, String>,
    ) -> crate::Result<()> {
        self.commits.inc();
        if self.injector.tick("offsets.commit") {
            // Crash before the commit reaches the backing log: the
            // consumer resumes from its previous checkpoint.
            return Err(crate::MessagingError::Injected("offsets.commit"));
        }
        let commit = OffsetCommit {
            offset,
            committed_at: self.clock.now(),
            metadata,
        };
        let key = commit_key(group, tp);
        let value = encode_commit(&commit);
        // Durability first: the append under the directory write guard
        // is the single serialization point, and the returned log
        // offset carries that order into the slot below.
        let mut inner = self.inner.write();
        let log_offset = inner.log.append(Some(key), value)?;
        let shard = inner
            .shards
            .entry((group.to_string(), tp.clone()))
            .or_insert_with(OffsetShard::new)
            .clone();
        drop(inner);
        let mut slot = shard.slot.lock();
        slot.insert(log_offset, commit);
        Ok(())
    }

    /// Latest commit for `(group, tp)`, if any.
    pub fn fetch(&self, group: &str, tp: &TopicPartition) -> Option<OffsetCommit> {
        let shard = self.shard_if_exists(group, tp)?;
        let slot = shard.slot.lock();
        slot.latest().cloned()
    }

    /// Latest committed offset (shorthand).
    pub fn fetch_offset(&self, group: &str, tp: &TopicPartition) -> Option<u64> {
        self.fetch(group, tp).map(|c| c.offset)
    }

    /// The most recent commit whose annotation `key` equals `value` —
    /// e.g. "last offset processed by software version v1" (§4.2).
    pub fn last_commit_with(
        &self,
        group: &str,
        tp: &TopicPartition,
        key: &str,
        value: &str,
    ) -> Option<OffsetCommit> {
        let shard = self.shard_if_exists(group, tp)?;
        let slot = shard.slot.lock();
        slot.entries
            .iter()
            .rev()
            .find(|(_, c)| c.metadata.get(key).map(String::as_str) == Some(value))
            .map(|(_, c)| c.clone())
    }

    /// Full commit history for `(group, tp)` in commit order.
    pub fn history(&self, group: &str, tp: &TopicPartition) -> Vec<OffsetCommit> {
        let Some(shard) = self.shard_if_exists(group, tp) else {
            return Vec::new();
        };
        let slot = shard.slot.lock();
        slot.entries.iter().map(|(_, c)| c.clone()).collect()
    }

    /// Groups with at least one commit.
    pub fn groups(&self) -> Vec<String> {
        let inner = self.inner.read();
        let mut gs: Vec<String> = inner.shards.keys().map(|(g, _)| g.clone()).collect();
        drop(inner);
        gs.sort();
        gs.dedup();
        gs
    }

    /// Compacts the backing log (bounded size, §4.1); returns the
    /// dedup ratio achieved.
    pub fn compact_backing_log(&self) -> f64 {
        let mut inner = self.inner.write();
        inner.log.compact().map(|s| s.dedup_ratio()).unwrap_or(0.0)
    }

    /// Size of the backing log in bytes.
    pub fn backing_log_bytes(&self) -> u64 {
        self.inner.read().log.size_bytes()
    }

    /// Rebuilds the in-memory shards purely from the backing log
    /// (recovery path: proves commits survive in the log itself).
    /// Returns the number of `(group, partition)` entries recovered.
    ///
    /// Slot locks nest under the directory write guard here —
    /// `offsets.inner` (30) → `offsets.shard` (28), descending, so
    /// lockdep stays happy — and the exclusive directory guard keeps
    /// concurrent commits out while the view is swapped.
    pub fn recover_index_from_log(&self) -> crate::Result<usize> {
        let mut inner = self.inner.write();
        let start = inner.log.start_offset();
        let records = inner.log.read(start, u64::MAX)?.records;
        let mut rebuilt: HashMap<(String, TopicPartition), Vec<(u64, OffsetCommit)>> =
            HashMap::new();
        for rec in &records {
            let Some(key) = &rec.key else { continue };
            let Some((group, tp)) = decode_commit_key(key) else {
                continue;
            };
            if let Some(commit) = decode_commit(&rec.value) {
                rebuilt
                    .entry((group, tp))
                    .or_default()
                    .push((rec.offset, commit));
            }
        }
        let n = rebuilt.len();
        inner.shards.clear();
        for (key, mut entries) in rebuilt {
            entries.sort_by_key(|(o, _)| *o);
            let shard = OffsetShard::new();
            shard.slot.lock().entries = entries;
            inner.shards.insert(key, shard);
        }
        Ok(n)
    }
}

fn commit_key(group: &str, tp: &TopicPartition) -> Bytes {
    Bytes::from(format!("{group}\u{0}{}\u{0}{}", tp.topic, tp.partition))
}

fn decode_commit_key(key: &[u8]) -> Option<(String, TopicPartition)> {
    let s = std::str::from_utf8(key).ok()?;
    let mut parts = s.split('\u{0}');
    let group = parts.next()?.to_string();
    let topic = parts.next()?.to_string();
    let partition: u32 = parts.next()?.parse().ok()?;
    Some((group, TopicPartition { topic, partition }))
}

fn encode_commit(c: &OffsetCommit) -> Bytes {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&c.offset.to_le_bytes());
    out.extend_from_slice(&c.committed_at.to_le_bytes());
    out.extend_from_slice(&(c.metadata.len() as u32).to_le_bytes());
    for (k, v) in &c.metadata {
        out.extend_from_slice(&(k.len() as u32).to_le_bytes());
        out.extend_from_slice(k.as_bytes());
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        out.extend_from_slice(v.as_bytes());
    }
    Bytes::from(out)
}

fn decode_commit(data: &[u8]) -> Option<OffsetCommit> {
    if data.len() < 20 {
        return None;
    }
    let offset = u64::from_le_bytes(data[0..8].try_into().ok()?);
    let committed_at = u64::from_le_bytes(data[8..16].try_into().ok()?);
    let count = u32::from_le_bytes(data[16..20].try_into().ok()?) as usize;
    let mut pos = 20;
    let mut metadata = BTreeMap::new();
    for _ in 0..count {
        if data.len() < pos + 4 {
            return None;
        }
        let klen = u32::from_le_bytes(data[pos..pos + 4].try_into().ok()?) as usize;
        pos += 4;
        if data.len() < pos + klen + 4 {
            return None;
        }
        let k = String::from_utf8(data[pos..pos + klen].to_vec()).ok()?;
        pos += klen;
        let vlen = u32::from_le_bytes(data[pos..pos + 4].try_into().ok()?) as usize;
        pos += 4;
        if data.len() < pos + vlen {
            return None;
        }
        let v = String::from_utf8(data[pos..pos + vlen].to_vec()).ok()?;
        pos += vlen;
        metadata.insert(k, v);
    }
    Some(OffsetCommit {
        offset,
        committed_at,
        metadata,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use liquid_sim::clock::SimClock;

    fn mgr() -> (OffsetManager, SimClock) {
        let clock = SimClock::new(0);
        (OffsetManager::new(clock.shared()), clock)
    }

    fn meta(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn commit_and_fetch() {
        let (m, _) = mgr();
        let tp = TopicPartition::new("t", 0);
        assert_eq!(m.fetch("g", &tp), None);
        m.commit("g", &tp, 42, meta(&[("version", "v1")])).unwrap();
        let c = m.fetch("g", &tp).unwrap();
        assert_eq!(c.offset, 42);
        assert_eq!(c.metadata["version"], "v1");
        assert_eq!(m.fetch_offset("g", &tp), Some(42));
    }

    #[test]
    fn latest_commit_wins() {
        let (m, clock) = mgr();
        let tp = TopicPartition::new("t", 0);
        m.commit("g", &tp, 10, meta(&[])).unwrap();
        clock.advance(5);
        m.commit("g", &tp, 20, meta(&[])).unwrap();
        let c = m.fetch("g", &tp).unwrap();
        assert_eq!(c.offset, 20);
        assert_eq!(c.committed_at, 5);
    }

    #[test]
    fn groups_are_isolated() {
        let (m, _) = mgr();
        let tp = TopicPartition::new("t", 0);
        m.commit("g1", &tp, 1, meta(&[])).unwrap();
        m.commit("g2", &tp, 2, meta(&[])).unwrap();
        assert_eq!(m.fetch_offset("g1", &tp), Some(1));
        assert_eq!(m.fetch_offset("g2", &tp), Some(2));
        assert_eq!(m.groups(), vec!["g1", "g2"]);
    }

    #[test]
    fn partitions_are_isolated() {
        let (m, _) = mgr();
        m.commit("g", &TopicPartition::new("t", 0), 5, meta(&[]))
            .unwrap();
        m.commit("g", &TopicPartition::new("t", 1), 9, meta(&[]))
            .unwrap();
        assert_eq!(m.fetch_offset("g", &TopicPartition::new("t", 0)), Some(5));
        assert_eq!(m.fetch_offset("g", &TopicPartition::new("t", 1)), Some(9));
    }

    #[test]
    fn version_annotation_rewind() {
        // §4.2: find where the old software version stopped, to
        // re-process from there with the new algorithm.
        let (m, _) = mgr();
        let tp = TopicPartition::new("t", 0);
        m.commit("job", &tp, 100, meta(&[("sw", "v1")])).unwrap();
        m.commit("job", &tp, 200, meta(&[("sw", "v1")])).unwrap();
        m.commit("job", &tp, 300, meta(&[("sw", "v2")])).unwrap();
        let last_v1 = m.last_commit_with("job", &tp, "sw", "v1").unwrap();
        assert_eq!(last_v1.offset, 200);
        assert_eq!(m.last_commit_with("job", &tp, "sw", "v3"), None);
        assert_eq!(m.history("job", &tp).len(), 3);
    }

    #[test]
    fn index_recovers_from_backing_log() {
        let (m, _) = mgr();
        let tp = TopicPartition::new("t", 3);
        m.commit("g", &tp, 7, meta(&[("a", "b")])).unwrap();
        m.commit("g", &tp, 8, meta(&[("a", "c")])).unwrap();
        let n = m.recover_index_from_log().unwrap();
        assert_eq!(n, 1);
        let c = m.fetch("g", &tp).unwrap();
        assert_eq!(c.offset, 8);
        assert_eq!(c.metadata["a"], "c");
    }

    #[test]
    fn backing_log_compacts() {
        let (m, _) = mgr();
        let tp = TopicPartition::new("t", 0);
        // Enough commits to roll segments (64 KiB each).
        for i in 0..5000 {
            m.commit("g", &tp, i, meta(&[("pad", "xxxxxxxxxxxxxxxx")]))
                .unwrap();
        }
        let before = m.backing_log_bytes();
        let ratio = m.compact_backing_log();
        assert!(ratio > 0.5, "dedup ratio {ratio}");
        assert!(m.backing_log_bytes() < before);
        // Latest commit still recoverable from the compacted log.
        m.recover_index_from_log().unwrap();
        assert_eq!(m.fetch_offset("g", &tp), Some(4999));
    }

    #[test]
    fn commit_encoding_roundtrip() {
        let c = OffsetCommit {
            offset: 123,
            committed_at: 456,
            metadata: meta(&[("k1", "v1"), ("k2", "")]),
        };
        let enc = encode_commit(&c);
        assert_eq!(decode_commit(&enc), Some(c));
        assert_eq!(decode_commit(b"short"), None);
    }

    #[test]
    fn key_encoding_roundtrip() {
        let tp = TopicPartition::new("topic-with-dashes", 42);
        let k = commit_key("my-group", &tp);
        let (g, tp2) = decode_commit_key(&k).unwrap();
        assert_eq!(g, "my-group");
        assert_eq!(tp2, tp);
    }
}
