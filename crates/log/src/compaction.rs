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

use std::collections::HashSet;

use bytes::Bytes;

use crate::log::Log;
use crate::record::Record;
use crate::segment::{encode_frame, Segment};

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
    /// Runs one compaction pass over all sealed segments, newest first,
    /// decoding each **once**: walking back from the newest record, a
    /// keyed record survives only if no newer sealed record has its key,
    /// so a segment's survivors are decided as it is decoded. A segment
    /// that loses nothing is left as it is (no rewrite, no new storage,
    /// its read-cache entry stays valid); one that loses every record is
    /// removed, so later passes do not visit it; the others are
    /// rewritten. A pass costs one scan plus what changed, and a K-key
    /// log settles at ≤ K sealed segments plus those sealed since.
    ///
    /// Appends only touch the active segment and are never blocked for
    /// longer than one segment's rewrite. A pass that stops midway (a
    /// crash, a storage error) leaves the generation un-bumped and every
    /// key's latest value what it was: a superseded record is dropped at
    /// once — the newer record of its key stays — but a segment that
    /// loses a *tombstone* is replaced only after every older segment
    /// has been visited, so no put under the tombstone outlives it.
    ///
    /// Records keep their original offsets, so consumer positions remain
    /// valid; compacted segments simply contain offset gaps, and a
    /// removed segment is one more gap.
    pub fn compact(&mut self) -> crate::Result<CompactionStats> {
        let mut stats = CompactionStats::default();
        // A tombstone is kept for one pass and dropped by a later one;
        // "already survived a pass" is approximated by the log's
        // compaction generation.
        let drop_tombstones = self.compaction_generation() > 0;
        let mut seen: HashSet<Bytes> = HashSet::new();
        let mut lost_tombstone: Vec<(u64, Vec<Record>)> = Vec::new();
        let sealed = self.sealed_bases();
        for &base in sealed.iter().rev() {
            self.metrics().compact.inc();
            if self.config().injector.tick("log.compact") {
                return Err(crate::LogError::Injected("log.compact"));
            }
            let Some(seg) = self.segments().get(&base) else {
                continue;
            };
            let (records_before, bytes_before) = (seg.record_count(), seg.size_bytes());
            stats.records_before += records_before;
            stats.bytes_before += bytes_before;
            let mut survivors = seg.read_from(base, u64::MAX)?.records;
            let tombstones_removed = stats.tombstones_removed;
            // `retain` visits in order, so reversed it walks newest first.
            survivors.reverse();
            survivors.retain(|rec| survives(rec, &mut seen, drop_tombstones, &mut stats));
            survivors.reverse();
            if survivors.len() as u64 == records_before {
                stats.records_after += records_before;
                stats.bytes_after += bytes_before;
            } else if stats.tombstones_removed > tombstones_removed {
                lost_tombstone.push((base, survivors));
            } else {
                self.replace_segment(base, &survivors, &mut stats)?;
            }
        }
        for (base, survivors) in lost_tombstone {
            self.replace_segment(base, &survivors, &mut stats)?;
        }
        if !sealed.is_empty() {
            self.bump_compaction_generation();
        }
        Ok(stats)
    }

    /// Replaces the sealed segment at `base` with one holding
    /// `survivors` (same base offset) — or with nothing, if none are
    /// left — and invalidates its read-cache entry so readers never see
    /// the pre-compaction records.
    fn replace_segment(
        &mut self,
        base: u64,
        survivors: &[Record],
        stats: &mut CompactionStats,
    ) -> crate::Result<()> {
        if survivors.is_empty() {
            return self.remove_segment(base);
        }
        let storage = self.storage_kind().create(base)?;
        let mut rebuilt = Segment::new(base, storage, self.index_interval());
        rebuilt.append_frame(encode_frame(survivors), survivors)?;
        rebuilt.seal();
        stats.records_after += rebuilt.record_count();
        stats.bytes_after += rebuilt.size_bytes();
        self.segments_mut().insert(base, rebuilt);
        self.invalidate_read_cache(base);
        Ok(())
    }
}

/// Whether `rec` outlives this pass, given the keys of every newer
/// sealed record: keyless records always do; a keyed one only as the
/// newest of its key, and not as a tombstone that already survived a
/// pass.
fn survives(
    rec: &Record,
    seen: &mut HashSet<Bytes>,
    drop_tombstones: bool,
    stats: &mut CompactionStats,
) -> bool {
    let Some(key) = &rec.key else {
        return true;
    };
    if !seen.insert(key.clone()) {
        return false;
    }
    if drop_tombstones && rec.is_tombstone() {
        stats.tombstones_removed += 1;
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use crate::log::{Log, LogConfig, RetentionPolicy};
    use crate::storage::counting::Reads;
    use crate::storage::StorageKind;
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

    /// The latest value per key, a tombstone deleting its key — what a
    /// changelog restore folds the log into.
    fn latest_per_key(log: &Log) -> std::collections::BTreeMap<Bytes, Bytes> {
        let mut latest = std::collections::BTreeMap::new();
        for rec in &log.read(log.start_offset(), u64::MAX).unwrap().records {
            let key = rec.key.clone().unwrap();
            if rec.is_tombstone() {
                latest.remove(&key);
            } else {
                latest.insert(key, rec.value.clone());
            }
        }
        latest
    }

    /// A log past its first pass (so tombstones now drop) holding puts
    /// of "user" over several sealed segments, its tombstone in a newer
    /// one, and filler to seal that.
    fn deleted_user_log() -> (Log, liquid_sim::failure::FailureInjector) {
        let injector = liquid_sim::failure::FailureInjector::new(0);
        let cfg = LogConfig {
            injector: injector.clone(),
            ..compacting_log(128).config().clone()
        };
        let mut log = Log::open(cfg, SimClock::new(0).shared()).unwrap();
        for i in 0..10 {
            log.append(Some(b("other")), b(&format!("o-{i}"))).unwrap();
        }
        log.compact().unwrap();
        assert!(log.compaction_generation() > 0);
        for i in 0..20 {
            log.append(Some(b("user")), b(&format!("profile-{i}")))
                .unwrap();
        }
        log.append(Some(b("user")), Bytes::new()).unwrap();
        for i in 0..10 {
            log.append(Some(b("filler")), b(&format!("f-{i}"))).unwrap();
        }
        (log, injector)
    }

    #[test]
    fn a_pass_stopped_midway_never_resurrects_a_deleted_key() {
        let sealed = deleted_user_log().0.sealed_segment_info().len() as u64;
        assert!(sealed > 4);
        // Stop the tombstone-dropping pass before each sealed segment in
        // turn: wherever it stops, "user" must stay deleted.
        for stop_before in 1..=sealed {
            let (mut log, injector) = deleted_user_log();
            let before = latest_per_key(&log);
            assert!(!before.contains_key(&b("user")));
            injector.fail_at(stop_before);
            assert!(log.compact().is_err());
            assert_eq!(latest_per_key(&log), before, "stopped at {stop_before}");
            // The pass that runs to the end drops the tombstone and
            // every put under it.
            let stats = log.compact().unwrap();
            assert_eq!(stats.tombstones_removed, 1);
            assert_eq!(latest_per_key(&log), before);
            let all = log.read(log.start_offset(), u64::MAX).unwrap().records;
            assert!(!all.iter().any(|r| r.key.as_deref() == Some(b"user")));
        }
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

    /// A compacting log on storage that counts creations and reads.
    fn counting_log(segment_bytes: u64) -> (Log, Reads) {
        let reads = Reads::default();
        let cfg = LogConfig {
            segment_bytes,
            storage: StorageKind::Counting(reads.clone()),
            ..compacting_log(segment_bytes).config().clone()
        };
        (Log::open(cfg, SimClock::new(0).shared()).unwrap(), reads)
    }

    fn sealed_bytes(log: &Log) -> u64 {
        log.sealed_segment_info().iter().map(|&(_, _, b)| b).sum()
    }

    #[test]
    fn a_pass_reads_each_sealed_segment_once_and_rewrites_only_what_changed() {
        use crate::cache::{ReadCacheConfig, SegmentReadCache};
        let (mut log, reads) = counting_log(256);
        let cache = SegmentReadCache::new(ReadCacheConfig::default());
        log.attach_read_cache(cache.clone(), 3);
        for i in 0..200 {
            log.append(Some(b(&format!("k{}", i % 10))), b(&format!("v{i}")))
                .unwrap();
        }
        let (sealed, sealed_size) = (log.sealed_segment_info().len(), sealed_bytes(&log));
        assert!(sealed > 10);
        reads.take();
        reads.take_created();
        let first = log.compact().unwrap();
        assert_eq!(first.bytes_before, sealed_size);
        assert_eq!(reads.take().1, sealed_size, "every sealed byte read once");
        assert!(reads.take_created() < sealed as u64, "some segment kept");

        // Nothing was appended, so nothing can lose a record: the second
        // pass scans, rewrites nothing, and leaves cached segments valid.
        let before = log.read(0, u64::MAX).unwrap().records;
        let cached = cache.cached_segments();
        assert!(cached > 0);
        reads.take();
        let second = log.compact().unwrap();
        assert_eq!(second.records_before, first.records_after);
        assert_eq!(second.records_after, first.records_after);
        assert_eq!(second.bytes_after, first.bytes_after);
        assert_eq!(reads.take().1, first.bytes_after);
        assert_eq!(reads.take_created(), 0, "an unchanged log is not rewritten");
        assert_eq!(cache.cached_segments(), cached);
        assert_eq!(log.read(0, u64::MAX).unwrap().records, before);
    }

    #[test]
    fn sealed_segments_settle_at_the_key_count() {
        const KEYS: usize = 5;
        let (mut log, reads) = counting_log(200);
        let mut kept_bytes = 0;
        for pass in 0..12 {
            for i in 0..120 {
                let key = format!("k{}", (i * 7 + pass) % KEYS);
                log.append(Some(b(&key)), b(&format!("v{pass}-{i}")))
                    .unwrap();
            }
            assert!(log.sealed_segment_info().len() > KEYS, "something to cut");
            // What a pass scans is the survivors of the last one plus
            // what was sealed since — not the log's history.
            let to_scan = sealed_bytes(&log);
            assert!(to_scan <= kept_bytes + 120 * 40);
            reads.take();
            log.compact().unwrap();
            assert_eq!(reads.take().1, to_scan);
            // Every surviving segment holds the newest sealed record of
            // some key, so there are no more of them than keys — and an
            // emptied segment is gone, not kept to be scanned again.
            let after = log.sealed_segment_info();
            assert!(after.len() <= KEYS, "pass {pass}: {} sealed", after.len());
            assert!(after.iter().all(|&(_, records, _)| records > 0));
            kept_bytes = sealed_bytes(&log);
        }
        // The latest value of every key is still there.
        let all = log.read(log.start_offset(), u64::MAX).unwrap().records;
        for k in 0..KEYS {
            let key = format!("k{k}");
            assert!(all.iter().any(|r| r.key.as_deref() == Some(key.as_bytes())));
        }
    }

    #[test]
    fn reads_cross_a_removed_segment() {
        use crate::cache::{ReadCacheConfig, SegmentReadCache};
        let mut log = compacting_log(128);
        log.attach_read_cache(SegmentReadCache::new(ReadCacheConfig::default()), 3);
        // Offsets 0..40 are all superseded by 40..80; "tail" keeps the
        // last sealed segments from being the newest of k0..k3.
        for i in 0..80 {
            log.append(Some(b(&format!("k{}", i % 4))), b(&format!("v{i}")))
                .unwrap();
        }
        for i in 0..20 {
            log.append(Some(b("tail")), b(&format!("t{i}"))).unwrap();
        }
        let active_base = log.active_base();
        assert!(active_base > 80);
        // What must be left: the newest sealed record per key, and the
        // active segment. Reading it all also warms the cache with the
        // segments about to be removed.
        let all = log.read(0, u64::MAX).unwrap().records;
        let expected: Vec<_> = all
            .iter()
            .filter(|r| {
                r.offset >= active_base
                    || !all
                        .iter()
                        .any(|n| n.key == r.key && n.offset > r.offset && n.offset < active_base)
            })
            .cloned()
            .collect();
        assert_eq!(expected.first().map(|r| r.offset), Some(76));
        let segments = log.segment_count();
        log.compact().unwrap();
        assert!(log.segment_count() < segments, "emptied segments are gone");
        assert_eq!(log.start_offset(), 0, "compaction never moves the start");
        assert!(log.segments().keys().next().is_some_and(|&b| b > 40));
        // A read from the start, or from inside the removed range, runs
        // on into the first record that is left — from the log, not
        // from a cached copy of a removed segment.
        for from in [0, 17, 40] {
            let read = log.read(from, u64::MAX).unwrap().records;
            assert_eq!(read.into_vec(), expected);
            assert_eq!(log.record_at(from).unwrap(), None);
        }
        assert_eq!(log.record_at(79).unwrap().map(|r| r.value), Some(b("v79")));
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
