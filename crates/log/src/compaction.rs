//! Key-based log compaction (paper §4.1, "Log compaction").
//!
//! The log is scanned asynchronously, de-duplicating messages with the
//! same key and keeping only the most recent value per key. The paper
//! highlights this for changelogs: state checkpoints are keyed, so
//! retaining the latest update per key both shrinks the changelog and
//! speeds up recovery.
//!
//! Only sealed segments are compacted; the active segment (the "dirty"
//! head in Kafka terms) is left untouched so appends are never blocked.
//! Keyless records are always retained (they cannot be de-duplicated).
//! Tombstones — keyed records with an empty value — delete their key:
//! the tombstone itself is retained for one compaction pass (so lagging
//! consumers observe the deletion) and removed on the next.

use std::collections::HashMap;

use bytes::Bytes;

use crate::log::Log;
use crate::segment::Segment;

/// Outcome of one compaction pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Records in sealed segments before the pass.
    pub records_before: u64,
    /// Records remaining after the pass.
    pub records_after: u64,
    /// Bytes in sealed segments before the pass.
    pub bytes_before: u64,
    /// Bytes remaining after the pass.
    pub bytes_after: u64,
    /// Tombstones dropped entirely (their key deleted).
    pub tombstones_removed: u64,
}

impl CompactionStats {
    /// Fraction of records removed (0.0 if nothing to compact).
    pub fn dedup_ratio(&self) -> f64 {
        if self.records_before == 0 {
            0.0
        } else {
            1.0 - self.records_after as f64 / self.records_before as f64
        }
    }
}

impl Log {
    /// Runs one compaction pass over all sealed segments, one segment at
    /// a time: the pass is a loop of independent
    /// [`compact_segment`](Self::compact_segment) rewrites, so appends
    /// (which only touch the active segment) are never blocked for
    /// longer than one segment's rewrite, and a crash mid-pass leaves
    /// every untouched segment exactly as it was.
    ///
    /// Records keep their original offsets, so consumer positions remain
    /// valid; compacted segments simply contain offset gaps.
    pub fn compact(&mut self) -> crate::Result<CompactionStats> {
        let sealed = self.sealed_bases();
        let mut stats = CompactionStats::default();
        if sealed.is_empty() {
            return Ok(stats);
        }
        let latest = self.latest_keyed_offsets(&sealed, &mut stats)?;

        // A tombstone written in the most recent sealed segment is kept
        // for this pass; older tombstones (from segments already compacted
        // at least once) are dropped. We approximate "already survived a
        // pass" by tracking compaction generations per log.
        let drop_tombstones = self.compaction_generation() > 0;

        // A crash between segments leaves some rewritten and the
        // generation un-bumped — exactly the state a real mid-compaction
        // crash leaves.
        for &base in &sealed {
            self.compact_segment(base, &latest, drop_tombstones, &mut stats)?;
        }
        self.bump_compaction_generation();
        Ok(stats)
    }

    /// Pass 1: newest surviving offset per key across the listed sealed
    /// segments. Keys whose newest sealed record is a tombstone that has
    /// already survived one pass are dropped entirely.
    fn latest_keyed_offsets(
        &self,
        sealed: &[u64],
        stats: &mut CompactionStats,
    ) -> crate::Result<HashMap<Bytes, (u64, bool)>> {
        let mut latest: HashMap<Bytes, (u64, bool)> = HashMap::new();
        for &base in sealed {
            let seg = match self.segments().get(&base) {
                Some(s) => s,
                None => continue, // dropped by retention since we listed it
            };
            let read = seg.read_from(seg.base_offset(), u64::MAX)?;
            stats.records_before = stats
                .records_before
                .saturating_add(read.records.len() as u64);
            stats.bytes_before += seg.size_bytes();
            for rec in read.records {
                if let Some(k) = rec.key.clone() {
                    latest.insert(k, (rec.offset, rec.is_tombstone()));
                }
            }
        }
        Ok(latest)
    }

    /// Rewrites the one sealed segment at `base`, keeping only the
    /// records that survive against `latest`. The rewrite replaces the
    /// segment in place (same base offset) and invalidates its read-
    /// cache entry so readers never see the pre-compaction records.
    fn compact_segment(
        &mut self,
        base: u64,
        latest: &HashMap<Bytes, (u64, bool)>,
        drop_tombstones: bool,
        stats: &mut CompactionStats,
    ) -> crate::Result<()> {
        self.metrics().compact.inc();
        if self.config().injector.tick("log.compact") {
            return Err(crate::LogError::Injected("log.compact"));
        }
        let seg = match self.segments().get(&base) {
            Some(s) => s,
            None => return Ok(()), // dropped by retention since listed
        };
        let read = seg.read_from(seg.base_offset(), u64::MAX)?;
        let survivors: Vec<_> = read
            .records
            .into_iter()
            .filter(|rec| match &rec.key {
                None => true,
                Some(k) => match latest.get(k) {
                    Some(&(newest, is_tomb)) => {
                        if rec.offset != newest {
                            return false;
                        }
                        if is_tomb && drop_tombstones {
                            stats.tombstones_removed += 1;
                            return false;
                        }
                        true
                    }
                    // Pass 1 indexed every keyed record in these same
                    // segments; if an entry is somehow absent, keeping
                    // the record is the safe direction.
                    None => true,
                },
            })
            .collect();
        let storage = self.storage_kind().create(base)?;
        let mut rebuilt = Segment::new(base, storage, self.index_interval());
        rebuilt.append_frame(&survivors)?;
        rebuilt.seal();
        stats.records_after += rebuilt.record_count();
        stats.bytes_after += rebuilt.size_bytes();
        self.segments_mut().insert(base, rebuilt);
        self.invalidate_read_cache(base);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::log::{Log, LogConfig, RetentionPolicy};
    use bytes::Bytes;
    use liquid_sim::clock::SimClock;

    fn compacting_log(segment_bytes: u64) -> Log {
        let cfg = LogConfig {
            segment_bytes,
            retention: RetentionPolicy::Compact {
                max_age_ms: None,
                max_bytes: None,
            },
            ..LogConfig::default()
        };
        Log::open(cfg, SimClock::new(0).shared()).unwrap()
    }

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_string())
    }

    #[test]
    fn compaction_keeps_latest_per_key() {
        let mut log = compacting_log(512);
        // 200 updates over 10 keys.
        for i in 0..200 {
            log.append(Some(b(&format!("k{}", i % 10))), b(&format!("v{i}")))
                .unwrap();
        }
        let stats = log.compact().unwrap();
        assert!(stats.records_after < stats.records_before);
        assert!(stats.bytes_after < stats.bytes_before);
        assert!(stats.dedup_ratio() > 0.5);
        // Latest value per key is still readable; stale ones are gone.
        let all = log.read(log.start_offset(), u64::MAX).unwrap();
        let k3: Vec<_> = all
            .records
            .iter()
            .filter(|r| r.key.as_deref() == Some(b"k3"))
            .collect();
        // Sealed segments hold at most one k3; the active segment may
        // hold a few recent ones.
        let newest = k3.last().unwrap();
        assert_eq!(newest.value, b("v193"));
    }

    #[test]
    fn consumer_offsets_remain_valid_after_compaction() {
        let mut log = compacting_log(256);
        for i in 0..100 {
            log.append(Some(b(&format!("k{}", i % 5))), b(&format!("v{i}")))
                .unwrap();
        }
        let end = log.next_offset();
        log.compact().unwrap();
        assert_eq!(log.next_offset(), end, "log end must not move");
        // Reading from any old offset still works (returns records at or
        // after it).
        let out = log.read(50, u64::MAX).unwrap();
        assert!(out.records.iter().all(|r| r.offset >= 50));
    }

    #[test]
    fn keyless_records_survive() {
        let mut log = compacting_log(128);
        for i in 0..50 {
            log.append(None, b(&format!("event-{i}"))).unwrap();
        }
        let before = log.record_count();
        let stats = log.compact().unwrap();
        assert_eq!(log.record_count(), before);
        assert_eq!(stats.records_before, stats.records_after);
    }

    #[test]
    fn tombstone_deletes_key_after_second_pass() {
        let mut log = compacting_log(128);
        for i in 0..30 {
            log.append(Some(b("user")), b(&format!("profile-{i}")))
                .unwrap();
        }
        // Tombstone, then enough data to seal its segment.
        log.append(Some(b("user")), Bytes::new()).unwrap();
        for i in 0..30 {
            log.append(Some(b("filler")), b(&format!("f-{i}"))).unwrap();
        }
        // First pass: tombstone survives (lagging readers see it).
        log.compact().unwrap();
        let after_first = log.read(log.start_offset(), u64::MAX).unwrap();
        assert!(
            after_first
                .records
                .iter()
                .any(|r| r.key.as_deref() == Some(b"user") && r.is_tombstone()),
            "tombstone must survive the first pass"
        );
        // Second pass: tombstone dropped.
        let stats = log.compact().unwrap();
        assert!(stats.tombstones_removed >= 1);
        let after_second = log.read(log.start_offset(), u64::MAX).unwrap();
        assert!(
            !after_second
                .records
                .iter()
                .any(|r| r.key.as_deref() == Some(b"user")),
            "key must be gone after the second pass"
        );
    }

    #[test]
    fn compaction_on_empty_log_is_noop() {
        let mut log = compacting_log(1024);
        let stats = log.compact().unwrap();
        assert_eq!(stats, Default::default());
    }

    #[test]
    fn active_segment_never_compacted() {
        let mut log = compacting_log(1 << 20); // nothing ever seals
        for i in 0..100 {
            log.append(Some(b("k")), b(&format!("v{i}"))).unwrap();
        }
        let stats = log.compact().unwrap();
        assert_eq!(stats.records_before, 0);
        assert_eq!(log.record_count(), 100);
    }

    #[test]
    fn compaction_invalidates_read_cache() {
        use crate::cache::{ReadCacheConfig, SegmentReadCache};
        let mut log = compacting_log(256);
        let cache = SegmentReadCache::new(ReadCacheConfig::default());
        log.attach_read_cache(cache.clone(), 3);
        for i in 0..100 {
            log.append(Some(b(&format!("k{}", i % 5))), b(&format!("v{i}")))
                .unwrap();
        }
        // Warm the cache with the pre-compaction segments.
        log.read(0, u64::MAX).unwrap();
        assert!(cache.cached_segments() > 0);
        log.compact().unwrap();
        // Post-compaction reads must reflect the rewrite, not the cached
        // pre-compaction records: record 2 ("k2" -> "v2") was superseded
        // dozens of times, so it must be gone — if the cache still held
        // the pre-compaction segment it would resurface here.
        let out = log.read(0, u64::MAX).unwrap();
        assert!(
            !out.records.iter().any(|r| r.offset == 2),
            "cache served a stale pre-compaction record"
        );
    }

    #[test]
    fn changelog_shrinks_with_skew() {
        // Zipf-like scenario: most updates hit few keys; compaction
        // should reclaim most of the space — the §4.1 claim.
        let mut log = compacting_log(1024);
        for i in 0..1000 {
            let key = format!("k{}", i % 7);
            log.append(Some(b(&key)), b("payload-payload-payload"))
                .unwrap();
        }
        let stats = log.compact().unwrap();
        assert!(
            stats.dedup_ratio() > 0.9,
            "ratio {} too low",
            stats.dedup_ratio()
        );
    }
}
