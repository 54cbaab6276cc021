//! Changelog-backed task state (paper §3.2 "Stateful processing").
//!
//! State is represented as an arbitrary keyed store, accessed locally
//! for efficiency (an embedded [`liquid_kv::LsmStore`], the RocksDB
//! analogue of §4.4). Every update is additionally published to a
//! **changelog** — a derived, compacted feed in the messaging layer.
//! After a failure, a new task instance reconstructs its state by
//! replaying the changelog partition (and because the changelog is
//! compacted, replay cost is proportional to the number of *live* keys,
//! not the number of updates — the §4.1 claim benchmarked by E4).

use bytes::Bytes;
use liquid_kv::{LsmConfig, LsmStore};
use liquid_messaging::{AckLevel, Cluster, TopicPartition};

/// A task's keyed state store, optionally mirrored to a changelog.
pub struct StateStore {
    store: LsmStore,
    changelog: Option<(Cluster, TopicPartition)>,
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
            changelog: Some((cluster, changelog_tp)),
            writes: 0,
        })
    }

    /// Rebuilds state from the changelog (recovery path). Returns the
    /// number of records replayed.
    pub fn restore_from_changelog(&mut self) -> crate::Result<u64> {
        let Some((cluster, tp)) = self.changelog.clone() else {
            return Ok(0);
        };
        let mut replayed = 0;
        let mut offset = cluster.earliest_offset(&tp)?;
        loop {
            let batch = cluster.fetch_batch(&tp, offset, 1 << 20)?.into_messages();
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

    /// Writes a key, mirroring to the changelog.
    pub fn put(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> crate::Result<()> {
        let (key, value) = (key.into(), value.into());
        if let Some((cluster, tp)) = &self.changelog {
            cluster.produce_to(tp, Some(key.clone()), value.clone(), AckLevel::Leader)?;
        }
        self.store.put(key, value)?;
        self.writes += 1;
        Ok(())
    }

    /// Deletes a key, mirroring a tombstone to the changelog.
    pub fn delete(&mut self, key: impl Into<Bytes>) -> crate::Result<()> {
        let key = key.into();
        if let Some((cluster, tp)) = &self.changelog {
            cluster.produce_to(tp, Some(key.clone()), Bytes::new(), AckLevel::Leader)?;
        }
        self.store.delete(key)?;
        self.writes += 1;
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
        self.get(key)
            .and_then(|v| v.as_ref().try_into().ok().map(u64::from_le_bytes))
            .unwrap_or(0)
    }

    /// Convenience: add to a `u64` counter, returning the new value.
    pub fn add_counter(&mut self, key: &[u8], delta: u64) -> crate::Result<u64> {
        let next = self.get_counter(key) + delta;
        self.put(
            Bytes::copy_from_slice(key),
            Bytes::copy_from_slice(&next.to_le_bytes()),
        )?;
        Ok(next)
    }
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
        s.put("user", "profile-2").unwrap();
        s.delete("user").unwrap();
        let msgs = c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
        assert_eq!(msgs.len(), 3);
        assert!(msgs[2].value.is_empty(), "delete mirrored as tombstone");
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
            // Crash: local store lost.
        }
        let mut rebuilt = StateStore::with_changelog(c.clone(), tp.clone()).unwrap();
        let replayed = rebuilt.restore_from_changelog().unwrap();
        assert_eq!(replayed, 51);
        assert_eq!(rebuilt.len(), 49);
        assert_eq!(rebuilt.get(b"k7"), Some(b("v7")));
        assert_eq!(rebuilt.get(b"k10"), None);
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
