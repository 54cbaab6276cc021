//! Changelog-backed task state (paper §3.2 "Stateful processing").
//!
//! State is represented as an arbitrary keyed store, accessed locally
//! for efficiency (an embedded [`liquid_kv::LsmStore`], the RocksDB
//! analogue of §4.4). Every update is additionally published to a
//! **changelog** — a derived, compacted feed in the messaging layer.
//! After a failure, a new task instance reconstructs its state by
//! replaying the changelog partition (and because the changelog is
//! compacted, replay cost is proportional to the number of *live* keys,
//! not the number of updates — the §4.1 claim benchmarked by E4). The
//! local store is a *cache* of that changelog and keeps no write-ahead
//! log of its own (DESIGN.md §19).
//!
//! Changelog writes are **buffered**: `put`/`delete`/`update` apply
//! locally at once and leave for the changelog as one batch per
//! [`flush`], the last write per key winning — which is all compaction
//! would keep of them anyway. A [`Job`](crate::Job) flushes at the end
//! of every input batch, before the outputs and before the position
//! moves.
//!
//! [`flush`]: StateStore::flush

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use bytes::Bytes;
use liquid_kv::{LsmConfig, LsmStore};
use liquid_log::{Record, RecordBatch};
use liquid_messaging::{AckLevel, Cluster, TopicPartition};

/// Buffered records at which a changelog or an output partition
/// flushes itself: bounds what a store driven outside a job, or a task
/// replaying a 1 MiB fetch, holds between commit points.
pub(crate) const FLUSH_AT: usize = 256;

/// Sends `records` to `tp` as one batch, encoded from the borrowed
/// records, and empties the buffer once the send succeeded; on an error
/// they stay buffered for the next attempt.
pub(crate) fn send_buffered(
    cluster: &Cluster,
    tp: &TopicPartition,
    records: &mut Vec<Record>,
    acks: AckLevel,
) -> crate::Result<()> {
    if !records.is_empty() {
        cluster.produce_batch(tp, RecordBatch::from_records(records.iter()), acks, None)?;
        records.clear();
    }
    Ok(())
}

/// The changelog side of a store: where it goes and what has not been
/// sent yet.
struct Changelog {
    cluster: Cluster,
    tp: TopicPartition,
    /// Writes since the last flush, one per key, in first-write order.
    pending: Vec<Record>,
    /// Key → its slot in `pending`.
    slots: HashMap<Bytes, usize>,
}

/// A task's keyed state store, optionally mirrored to a changelog.
pub struct StateStore {
    store: LsmStore,
    changelog: Option<Changelog>,
    /// Local writes since creation (diagnostics).
    writes: u64,
}

impl StateStore {
    /// An in-memory store without a changelog (stateless-ish helpers,
    /// tests).
    pub fn ephemeral() -> Self {
        StateStore {
            store: LsmStore::in_memory(),
            changelog: None,
            writes: 0,
        }
    }

    /// A store mirrored to `changelog_tp`, which should belong to a
    /// compacted topic.
    pub fn with_changelog(cluster: Cluster, changelog_tp: TopicPartition) -> crate::Result<Self> {
        StateStore::with_changelog_config(cluster, changelog_tp, LsmConfig::default())
    }

    /// Like [`with_changelog`](Self::with_changelog) with explicit store
    /// tuning — used by jobs to thread a fault injector into task state.
    /// Fallible because the config may name a directory-backed store.
    pub fn with_changelog_config(
        cluster: Cluster,
        changelog_tp: TopicPartition,
        config: LsmConfig,
    ) -> crate::Result<Self> {
        Ok(StateStore {
            store: LsmStore::open(config)?,
            changelog: Some(Changelog {
                cluster,
                tp: changelog_tp,
                pending: Vec::new(),
                slots: HashMap::new(),
            }),
            writes: 0,
        })
    }

    /// Rebuilds state from the changelog (recovery path). Returns the
    /// number of records replayed.
    pub fn restore_from_changelog(&mut self) -> crate::Result<u64> {
        let Some(Changelog { cluster, tp, .. }) = &self.changelog else {
            return Ok(0);
        };
        let mut replayed = 0;
        let mut offset = cluster.earliest_offset(tp)?;
        loop {
            let batch = cluster.fetch_batch(tp, offset, 1 << 20)?.into_messages();
            if batch.is_empty() {
                break;
            }
            for msg in batch {
                offset =
                    msg.offset
                        .checked_add(1)
                        .ok_or(crate::ProcessingError::OffsetOverflow {
                            what: "advancing the changelog replay position",
                            value: msg.offset,
                        })?;
                let Some(key) = msg.key else { continue };
                if msg.value.is_empty() {
                    self.store.delete(key)?;
                } else {
                    self.store.put(key, msg.value)?;
                }
                replayed += 1;
            }
        }
        Ok(replayed)
    }

    /// Reads a key.
    pub fn get(&mut self, key: &[u8]) -> Option<Bytes> {
        self.store.get(key)
    }

    /// Writes a key; the changelog sees it at the next
    /// [`flush`](Self::flush).
    pub fn put(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> crate::Result<()> {
        let (key, value) = (key.into(), value.into());
        self.store.put(key.clone(), value.clone())?;
        self.writes += 1;
        self.log_write(key, value)
    }

    /// Deletes a key; the changelog sees a tombstone at the next
    /// [`flush`](Self::flush).
    pub fn delete(&mut self, key: impl Into<Bytes>) -> crate::Result<()> {
        let key = key.into();
        self.store.delete(key.clone())?;
        self.writes += 1;
        self.log_write(key, Bytes::new())
    }

    /// Read-modify-write of one key: `f` sees the current value (`None`
    /// = absent) and returns the new one; the changelog sees it at the
    /// next [`flush`](Self::flush). The store, the buffered changelog
    /// record and its slot share one allocation of the key.
    pub fn update(
        &mut self,
        key: &[u8],
        f: impl FnOnce(Option<&[u8]>) -> Bytes,
    ) -> crate::Result<()> {
        let (key, value) = self.store.update(key, f)?;
        self.writes += 1;
        self.log_write(key, value)
    }

    /// Buffers one changelog record, replacing an earlier write of the
    /// same key in this flush unit, and flushes at [`FLUSH_AT`].
    fn log_write(&mut self, key: Bytes, value: Bytes) -> crate::Result<()> {
        let Some(log) = &mut self.changelog else {
            return Ok(());
        };
        // One hash per write: the entry is the lookup and the insert.
        match log.slots.entry(key) {
            Entry::Occupied(slot) => {
                if let Some(record) = log.pending.get_mut(*slot.get()) {
                    record.value = value;
                }
            }
            Entry::Vacant(slot) => {
                let key = slot.key().clone();
                slot.insert(log.pending.len());
                log.pending.push(Record::new(Some(key), value, 0));
            }
        }
        if log.pending.len() >= FLUSH_AT {
            self.flush()?;
        }
        Ok(())
    }

    /// Sends every buffered write to the changelog as one batch. On an
    /// error the writes stay buffered for the next flush. There is no
    /// flush on `Drop`: a dropped store is a crashed store, and what it
    /// had not flushed is lost the way a crash loses it.
    pub fn flush(&mut self) -> crate::Result<()> {
        let Some(log) = &mut self.changelog else {
            return Ok(());
        };
        send_buffered(&log.cluster, &log.tp, &mut log.pending, AckLevel::Leader)?;
        log.slots.clear();
        Ok(())
    }

    /// Ordered scan of `start <= key < end` (open bounds with `None`).
    pub fn range(&self, start: Option<&[u8]>, end: Option<&[u8]>) -> Vec<(Bytes, Bytes)> {
        self.store.range(start, end)
    }

    /// All live entries in key order.
    pub fn scan_all(&self) -> Vec<(Bytes, Bytes)> {
        self.store.scan_all()
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Local writes performed since creation.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Convenience: read a `u64` counter (missing key = 0).
    pub fn get_counter(&mut self, key: &[u8]) -> u64 {
        counter_of(self.get(key).as_deref())
    }

    /// Convenience: add to a `u64` counter, returning the new value.
    pub fn add_counter(&mut self, key: &[u8], delta: u64) -> crate::Result<u64> {
        let mut next = delta;
        self.update(key, |current| {
            next += counter_of(current);
            counter_bytes(next)
        })?;
        Ok(next)
    }
}

/// A stored `u64` counter (missing or malformed = 0).
pub(crate) fn counter_of(value: Option<&[u8]>) -> u64 {
    value
        .and_then(|v| v.try_into().ok().map(u64::from_le_bytes))
        .unwrap_or(0)
}

/// The stored form of a `u64` counter.
pub(crate) fn counter_bytes(n: u64) -> Bytes {
    Bytes::copy_from_slice(&n.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use liquid_log::RetentionPolicy;
    use liquid_messaging::{ClusterConfig, TopicConfig};
    use liquid_sim::clock::SimClock;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_string())
    }

    fn cluster_with_changelog() -> (Cluster, TopicPartition) {
        let c = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
        c.create_topic(
            "changelog",
            TopicConfig::with_partitions(1)
                .retention(RetentionPolicy::compact())
                .segment_bytes(1024),
        )
        .unwrap();
        (c, TopicPartition::new("changelog", 0))
    }

    #[test]
    fn ephemeral_store_basics() {
        let mut s = StateStore::ephemeral();
        s.put("a", "1").unwrap();
        assert_eq!(s.get(b"a"), Some(b("1")));
        s.delete("a").unwrap();
        assert_eq!(s.get(b"a"), None);
        assert_eq!(s.writes(), 2);
        assert_eq!(s.restore_from_changelog().unwrap(), 0);
    }

    #[test]
    fn changelog_mirrors_updates() {
        let (c, tp) = cluster_with_changelog();
        let mut s = StateStore::with_changelog(c.clone(), tp.clone()).unwrap();
        s.put("user", "profile-1").unwrap();
        s.flush().unwrap();
        s.put("user", "profile-2").unwrap();
        s.flush().unwrap();
        s.delete("user").unwrap();
        assert_eq!(c.latest_offset(&tp).unwrap(), 2, "buffered until flushed");
        s.flush().unwrap();
        let msgs = c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
        assert_eq!(msgs.len(), 3);
        assert!(msgs[2].value.is_empty(), "delete mirrored as tombstone");

        // Within one flush unit the last write per key wins — what
        // compaction would keep: two puts and a delete leave one
        // tombstone, in the key's first-write slot.
        s.put("user", "profile-3").unwrap();
        s.put("other", "x").unwrap();
        s.put("user", "profile-4").unwrap();
        s.delete("user").unwrap();
        assert_eq!(s.get(b"user"), None, "reads see buffered writes");
        s.flush().unwrap();
        s.flush().unwrap();
        let msgs = c.fetch_batch(&tp, 3, u64::MAX).unwrap().into_messages();
        assert_eq!(msgs.len(), 2, "an empty flush appends nothing");
        assert_eq!(msgs[0].key, Some(b("user")));
        assert!(msgs[0].value.is_empty());
        assert_eq!(msgs[1].value, b("x"));
    }

    #[test]
    fn store_flushes_itself_at_the_bound() {
        let (c, tp) = cluster_with_changelog();
        let mut s = StateStore::with_changelog(c.clone(), tp.clone()).unwrap();
        for i in 0..FLUSH_AT - 1 {
            s.put(format!("k{i}"), "v").unwrap();
        }
        // Rewriting a buffered key takes no new slot.
        s.put("k0", "w").unwrap();
        assert_eq!(c.latest_offset(&tp).unwrap(), 0);
        s.put("last", "v").unwrap();
        assert_eq!(c.latest_offset(&tp).unwrap(), FLUSH_AT as u64);
        s.put("after", "v").unwrap();
        assert_eq!(c.latest_offset(&tp).unwrap(), FLUSH_AT as u64);
    }

    #[test]
    fn state_restores_after_crash() {
        let (c, tp) = cluster_with_changelog();
        {
            let mut s = StateStore::with_changelog(c.clone(), tp.clone()).unwrap();
            for i in 0..50 {
                s.put(format!("k{i}"), format!("v{i}")).unwrap();
            }
            s.delete("k10").unwrap();
            s.flush().unwrap();
            // No flush on drop: these die with the store.
            s.put("k7", "unflushed").unwrap();
            s.put("k50", "unflushed").unwrap();
            // Crash: local store lost.
        }
        let mut rebuilt = StateStore::with_changelog(c.clone(), tp.clone()).unwrap();
        let replayed = rebuilt.restore_from_changelog().unwrap();
        assert_eq!(replayed, 50, "k10's put and delete left as one tombstone");
        assert_eq!(rebuilt.len(), 49);
        assert_eq!(rebuilt.get(b"k7"), Some(b("v7")));
        assert_eq!(rebuilt.get(b"k10"), None);
        assert_eq!(rebuilt.get(b"k50"), None, "unflushed write is absent");
    }

    #[test]
    fn compacted_changelog_restores_faster() {
        // After compaction, restore replays far fewer records — the §4.1
        // "faster recovery" claim.
        let (c, tp) = cluster_with_changelog();
        {
            let mut s = StateStore::with_changelog(c.clone(), tp.clone()).unwrap();
            for i in 0..1000 {
                s.put(format!("k{}", i % 10), format!("v{i}")).unwrap();
                s.flush().unwrap();
            }
        }
        let stats = c.compact_topic("changelog").unwrap();
        assert!(stats.dedup_ratio() > 0.8);
        let mut rebuilt = StateStore::with_changelog(c.clone(), tp.clone()).unwrap();
        let replayed = rebuilt.restore_from_changelog().unwrap();
        assert!(
            replayed < 300,
            "replayed {replayed} records post-compaction"
        );
        assert_eq!(rebuilt.len(), 10);
        // Latest values won.
        assert_eq!(rebuilt.get(b"k9"), Some(b("v999")));
    }

    #[test]
    fn counters_helpers() {
        let mut s = StateStore::ephemeral();
        assert_eq!(s.get_counter(b"hits"), 0);
        assert_eq!(s.add_counter(b"hits", 3).unwrap(), 3);
        assert_eq!(s.add_counter(b"hits", 4).unwrap(), 7);
        assert_eq!(s.get_counter(b"hits"), 7);
    }

    #[test]
    fn update_shares_one_key_allocation() {
        let (c, tp) = cluster_with_changelog();
        let mut s = StateStore::with_changelog(c.clone(), tp.clone()).unwrap();
        assert_eq!(s.add_counter(b"user", 2).unwrap(), 2);
        assert_eq!(s.add_counter(b"user", 3).unwrap(), 5);
        assert_eq!(s.writes(), 2);
        // The store's key, the buffered record's and its slot's are one
        // allocation: the key bytes were copied once, on first sight.
        let log = s.changelog.as_ref().unwrap();
        let record_key = log.pending[0].key.clone().unwrap();
        let (slot_key, _) = log.slots.get_key_value(&b"user"[..]).unwrap();
        assert_eq!(record_key.as_ptr(), slot_key.as_ptr());
        let (stored, _) = s
            .store
            .update(b"user", |v| Bytes::copy_from_slice(v.unwrap()))
            .unwrap();
        assert_eq!(stored.as_ptr(), record_key.as_ptr());
        // And the flush unit is one record, the last value winning.
        s.flush().unwrap();
        let msgs = c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].key, Some(b("user")));
        assert_eq!(counter_of(Some(&msgs[0].value)), 5);
    }

    #[test]
    fn injected_wal_append_leaves_state_and_changelog_untouched() {
        use liquid_sim::failure::FailureInjector;
        let (c, tp) = cluster_with_changelog();
        let inj = FailureInjector::disabled();
        let config = LsmConfig {
            injector: inj.clone(),
            ..LsmConfig::default()
        };
        let mut s = StateStore::with_changelog_config(c.clone(), tp.clone(), config).unwrap();
        s.add_counter(b"hits", 1).unwrap();
        inj.fail_at(1);
        let err = s.add_counter(b"hits", 1);
        assert!(matches!(
            err,
            Err(crate::ProcessingError::State(liquid_kv::KvError::Injected(
                "kv.wal-append"
            )))
        ));
        // Neither the store nor the flush unit saw the failed write…
        assert_eq!(s.get_counter(b"hits"), 1);
        assert_eq!(s.writes(), 1);
        s.flush().unwrap();
        let msgs = c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
        assert_eq!(msgs.len(), 1);
        assert_eq!(counter_of(Some(&msgs[0].value)), 1);
        // …and the retry lands once.
        assert_eq!(s.add_counter(b"hits", 1).unwrap(), 2);
        s.flush().unwrap();
        assert_eq!(c.latest_offset(&tp).unwrap(), 2);
        assert_eq!(inj.site_counts(), vec![("kv.wal-append", 3, 1)]);
    }

    #[test]
    fn range_scans_work() {
        let mut s = StateStore::ephemeral();
        for k in ["a", "b", "c", "d"] {
            s.put(k, "1").unwrap();
        }
        let mid = s.range(Some(b"b"), Some(b"d"));
        assert_eq!(mid.len(), 2);
        assert_eq!(s.scan_all().len(), 4);
        assert!(!s.is_empty());
    }
}
