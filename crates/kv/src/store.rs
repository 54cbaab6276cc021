//! The LSM store: memtable + WAL + leveled SSTables.
//!
//! Write path: WAL append (a store without a directory has no WAL: its
//! owner holds the durable copy — for task state, the changelog) →
//! memtable insert; when what the memtable *holds*, or the WAL, reaches
//! the budget the memtable is flushed to level 0 and the WAL truncated.
//! Read path: memtable, then level 0 newest-first, then deeper levels.
//! Compaction is size-tiered: when a level accumulates more than
//! `level_limit` tables they are merged into a single table one level
//! down (tombstones are dropped when merging into the bottom level).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use bytes::Bytes;
use liquid_obs::{CounterHandle, Obs};
use liquid_sim::failure::FailureInjector;

use crate::bloom::hash_key;
use crate::memtable::Memtable;
use crate::sstable::SsTable;
use crate::wal::{Wal, WalOp};

/// How the store reclaims old data — the same whole-file drop shape as
/// the log's retention policy: expired SSTables are dropped whole from
/// the bottom level (oldest data first), an O(1) unlink per table,
/// never a record rewrite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SstRetention {
    /// Never drop anything (the default).
    #[default]
    KeepAll,
    /// Drop the oldest bottom-level SSTables while the store exceeds
    /// `max_bytes`.
    DropByBytes {
        /// Total store size to shrink back under.
        max_bytes: usize,
    },
}

/// Store configuration.
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// Flush once the memtable holds, or the WAL has grown to, this much.
    pub memtable_bytes: usize,
    /// Merge a level once it holds more than this many tables.
    pub level_limit: usize,
    /// Number of levels (the last is the bottom; tombstones dropped
    /// when compacting into it).
    pub max_levels: usize,
    /// Bloom filter bits per key.
    pub bits_per_key: usize,
    /// Directory for WAL + SSTables; `None` = fully in-memory.
    pub dir: Option<PathBuf>,
    /// Retention bound enforced by [`LsmStore::enforce_retention`].
    pub retention: SstRetention,
    /// Fault injector for WAL / flush / compaction crash points.
    pub injector: FailureInjector,
    /// Observability domain the store reports into. Cloned configs
    /// share instruments; the default is a fresh private domain.
    pub obs: Obs,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_bytes: 1 << 20,
            level_limit: 4,
            max_levels: 5,
            bits_per_key: 10,
            dir: None,
            retention: SstRetention::KeepAll,
            injector: FailureInjector::disabled(),
            obs: Obs::default(),
        }
    }
}

/// Registry handles for the store's write paths, resolved once at
/// open. These are the twin counters of the `kv.*` fault sites.
#[derive(Debug, Clone)]
struct KvMetrics {
    wal_append: CounterHandle,
    flush: CounterHandle,
    sst_write: CounterHandle,
    compact: CounterHandle,
    sst_drop: CounterHandle,
}

impl KvMetrics {
    fn resolve(obs: &Obs) -> Self {
        let reg = obs.registry();
        KvMetrics {
            wal_append: reg.counter("kv.wal-append"),
            flush: reg.counter("kv.flush"),
            sst_write: reg.counter("kv.sst-write"),
            compact: reg.counter("kv.compact"),
            sst_drop: reg.counter("kv.sst-drop"),
        }
    }
}

/// Counters for observability and the state-store benchmarks.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreStats {
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Point lookups answered from the memtable.
    pub memtable_hits: u64,
    /// Point lookups answered from an SSTable.
    pub sstable_hits: u64,
    /// SSTables skipped thanks to bloom filters.
    pub bloom_skips: u64,
}

/// An embedded LSM key-value store.
pub struct LsmStore {
    config: LsmConfig,
    memtable: Memtable,
    /// `None` without a directory: a log nobody can replay is not one.
    wal: Option<Wal>,
    /// `levels[0]` is newest-first; deeper levels hold at most
    /// `level_limit` tables each.
    levels: Vec<Vec<Arc<SsTable>>>,
    next_table_id: u64,
    stats: StoreStats,
    metrics: KvMetrics,
}

impl LsmStore {
    /// Opens a store. With a directory configured, recovers the WAL and
    /// loads existing SSTables; otherwise starts empty.
    pub fn open(config: LsmConfig) -> crate::Result<Self> {
        let mut levels = vec![Vec::new(); config.max_levels];
        let mut next_table_id = 1;
        let (wal, replayed) = match &config.dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                // Load SSTables: files named L{level}-{id}.sst.
                let mut found: Vec<(usize, u64, PathBuf)> = Vec::new();
                for entry in std::fs::read_dir(dir)? {
                    let entry = entry?;
                    let name = entry.file_name();
                    let name = name.to_string_lossy();
                    if let Some(rest) = name.strip_prefix('L') {
                        if let Some(stem) = rest.strip_suffix(".sst") {
                            if let Some((lvl, id)) = stem.split_once('-') {
                                if let (Ok(lvl), Ok(id)) = (lvl.parse::<usize>(), id.parse::<u64>())
                                {
                                    found.push((lvl, id, entry.path()));
                                }
                            }
                        }
                    }
                }
                // Newest (highest id) first within each level.
                found.sort_by_key(|&(lvl, id, _)| (lvl, std::cmp::Reverse(id)));
                for (lvl, id, path) in found {
                    if lvl < levels.len() {
                        levels[lvl].push(Arc::new(SsTable::read_from(&path)?));
                        next_table_id = next_table_id.max(id + 1);
                    }
                }
                let (wal, replayed) = Wal::open(&dir.join("wal.log"))?;
                (Some(wal), replayed)
            }
            None => (None, Vec::new()),
        };
        let mut memtable = Memtable::new();
        for op in replayed {
            match op {
                WalOp::Put(k, v) => memtable.put(k, v),
                WalOp::Delete(k) => memtable.delete(k),
            }
        }
        Ok(LsmStore {
            metrics: KvMetrics::resolve(&config.obs),
            config,
            memtable,
            wal,
            levels,
            next_table_id,
            stats: StoreStats::default(),
        })
    }

    /// Fully in-memory store with default tuning.
    pub fn in_memory() -> Self {
        // lint:allow(panic-reachability, reason=default config has no dir and a disabled injector, so open takes only the infallible in-memory path; store::tests::put_get_delete)
        LsmStore::open(LsmConfig::default()).expect("in-memory open cannot fail")
    }

    /// Inserts or overwrites a key.
    pub fn put(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> crate::Result<()> {
        let (key, value) = (key.into(), value.into());
        let crash = self.tick_write();
        log_write(&mut self.wal, crash, || {
            WalOp::Put(key.clone(), value.clone())
        })?;
        self.memtable.put(key, value);
        self.maybe_flush()
    }

    /// Read-modify-write as one write (one `kv.wal-append` tick): `f`
    /// sees the current value (`None` = absent or deleted) and returns
    /// the new one. A key the memtable holds costs one descent — replaced
    /// in place, SSTables not consulted. Returns the key *as stored* and
    /// the new value, so a caller that records the write elsewhere shares
    /// the store's key allocation.
    pub fn update(
        &mut self,
        key: &[u8],
        f: impl FnOnce(Option<&[u8]>) -> Bytes,
    ) -> crate::Result<(Bytes, Bytes)> {
        let crash = self.tick_write();
        let slot = self.memtable.slot_mut(key);
        let (key, value) = match &slot {
            Some(slot) => {
                self.stats.memtable_hits += 1;
                (slot.key.clone(), f(slot.value().map(Bytes::as_slice)))
            }
            None => {
                let current = lookup(&self.levels, key, &mut self.stats);
                (Bytes::copy_from_slice(key), f(current.as_deref()))
            }
        };
        log_write(&mut self.wal, crash, || {
            WalOp::Put(key.clone(), value.clone())
        })?;
        match slot {
            Some(slot) => slot.set(value.clone()),
            None => self.memtable.put(key.clone(), value.clone()),
        }
        self.maybe_flush()?;
        Ok((key, value))
    }

    /// Deletes a key (writes a tombstone).
    pub fn delete(&mut self, key: impl Into<Bytes>) -> crate::Result<()> {
        let key = key.into();
        let crash = self.tick_write();
        log_write(&mut self.wal, crash, || WalOp::Delete(key.clone()))?;
        self.memtable.delete(key);
        self.maybe_flush()
    }

    /// The `kv.wal-append` site and its twin counter, one tick per write,
    /// WAL or no WAL: whether this write crashes (see [`log_write`]).
    fn tick_write(&mut self) -> bool {
        self.metrics.wal_append.inc();
        self.config.injector.tick("kv.wal-append")
    }

    /// Point lookup.
    pub fn get(&mut self, key: &[u8]) -> Option<Bytes> {
        if let Some(hit) = self.memtable.get(key) {
            self.stats.memtable_hits += 1;
            return hit;
        }
        lookup(&self.levels, key, &mut self.stats)
    }

    /// Ordered scan of live entries with `start <= key < end`
    /// (`None` bound = open).
    pub fn range(&self, start: Option<&[u8]>, end: Option<&[u8]>) -> Vec<(Bytes, Bytes)> {
        self.merged_view(start, end)
            .into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect()
    }

    /// All live entries in key order.
    pub fn scan_all(&self) -> Vec<(Bytes, Bytes)> {
        self.range(None, None)
    }

    /// Number of live entries (scans; intended for tests and state
    /// restore verification, not hot paths).
    pub fn len(&self) -> usize {
        self.scan_all().len()
    }

    /// Whether the store holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A consistent point-in-time view: later writes to the store do not
    /// affect it.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            memtable: self.memtable.clone(),
            levels: self.levels.clone(),
        }
    }

    /// Forces the memtable to an SSTable regardless of size.
    pub fn flush(&mut self) -> crate::Result<()> {
        if self.memtable.is_empty() {
            return Ok(());
        }
        self.metrics.flush.inc();
        if self.config.injector.tick("kv.flush") {
            // Crash before any state moves: memtable and WAL intact.
            return Err(crate::KvError::Injected("kv.flush"));
        }
        let entries = std::mem::take(&mut self.memtable).into_entries();
        self.metrics.sst_write.inc();
        if self.config.injector.tick("kv.sst-write") {
            // Crash while writing the SSTable. The WAL still holds every
            // entry, so a restart would replay them into the memtable —
            // emulate that by putting the entries back.
            for (k, v) in entries {
                match v {
                    Some(v) => self.memtable.put(k, v),
                    None => self.memtable.delete(k),
                }
            }
            return Err(crate::KvError::Injected("kv.sst-write"));
        }
        let id = self.next_table_id;
        self.next_table_id += 1;
        let table = SsTable::build(id, entries, self.config.bits_per_key);
        if let Some(dir) = &self.config.dir {
            table.write_to(&dir.join(format!("L0-{id}.sst")))?;
        }
        match self.levels.get_mut(0) {
            Some(l0) => l0.insert(0, Arc::new(table)),
            None => self.levels.push(vec![Arc::new(table)]),
        }
        if let Some(wal) = &mut self.wal {
            wal.truncate()?;
        }
        self.stats.flushes += 1;
        self.maybe_compact()?;
        Ok(())
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Number of SSTables per level (for tests/benches).
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.len()).collect()
    }

    /// Approximate bytes across memtable and tables.
    pub fn approx_bytes(&self) -> usize {
        self.memtable.approx_bytes()
            + self
                .levels
                .iter()
                .flatten()
                .map(|t| t.size_bytes())
                .sum::<usize>()
    }

    /// Applies the retention bound: whole SSTables are dropped from the
    /// deepest non-empty level, oldest first, until the store fits under
    /// the configured size — each drop is one O(1) file unlink, never a
    /// rewrite (the same segment-drop shape as the log's retention).
    /// Returns the ids of the dropped tables.
    pub fn enforce_retention(&mut self) -> crate::Result<Vec<u64>> {
        let SstRetention::DropByBytes { max_bytes } = self.config.retention else {
            return Ok(Vec::new());
        };
        let mut dropped = Vec::new();
        while self.approx_bytes() > max_bytes {
            // Victim: the oldest table (levels are newest-first) in the
            // deepest non-empty level — the store's oldest data.
            let Some(level) = self.levels.iter().rposition(|l| !l.is_empty()) else {
                break; // only the memtable is over budget; nothing to drop
            };
            self.metrics.sst_drop.inc();
            if self.config.injector.tick("kv.sst-drop") {
                // Crash before the unlink: every table still present.
                return Err(crate::KvError::Injected("kv.sst-drop"));
            }
            let Some(victim) = self.levels.get_mut(level).and_then(|l| l.pop()) else {
                break;
            };
            if let Some(dir) = &self.config.dir {
                let path = dir.join(format!("L{level}-{}.sst", victim.id()));
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
            }
            dropped.push(victim.id());
        }
        Ok(dropped)
    }

    /// The memtable counts what it holds, so rewrites never fill it; the
    /// WAL counts every write, which bounds the file and its replay.
    fn maybe_flush(&mut self) -> crate::Result<()> {
        let budget = self.config.memtable_bytes;
        let wal_full = |wal: &Wal| wal.size_bytes() >= budget as u64;
        if self.memtable.approx_bytes() >= budget || self.wal.as_ref().is_some_and(wal_full) {
            self.flush()?;
        }
        Ok(())
    }

    fn maybe_compact(&mut self) -> crate::Result<()> {
        for level in 0..self.levels.len() {
            if self.levels[level].len() <= self.config.level_limit {
                continue;
            }
            self.metrics.compact.inc();
            if self.config.injector.tick("kv.compact") {
                // Crash before the merge moves anything.
                return Err(crate::KvError::Injected("kv.compact"));
            }
            let target = (level + 1).min(self.levels.len() - 1);
            let bottom = target == self.levels.len() - 1;
            // Merge everything in this level (newest-first order) plus —
            // when merging within the bottom level — the bottom's tables.
            let mut inputs = std::mem::take(&mut self.levels[level]);
            if target == level {
                // Already at the bottom: inputs are the level itself.
            } else if bottom {
                inputs.extend(std::mem::take(&mut self.levels[target]));
            }
            let merged = SsTable::merge(&inputs, bottom);
            let id = self.next_table_id;
            self.next_table_id += 1;
            let table = SsTable::build(id, merged, self.config.bits_per_key);
            if let Some(dir) = &self.config.dir {
                table.write_to(&dir.join(format!("L{target}-{id}.sst")))?;
                for old in &inputs {
                    for lvl in 0..self.levels.len().max(target + 1) {
                        let path = dir.join(format!("L{lvl}-{}.sst", old.id()));
                        if path.exists() {
                            std::fs::remove_file(path)?;
                        }
                    }
                }
            }
            if target == level {
                self.levels[level] = vec![Arc::new(table)];
            } else {
                self.levels[target].insert(0, Arc::new(table));
            }
            self.stats.compactions += 1;
        }
        Ok(())
    }

    fn merged_view(
        &self,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> BTreeMap<Bytes, Option<Bytes>> {
        merged_view(&self.memtable, &self.levels, start, end)
    }
}

fn merged_view(
    memtable: &Memtable,
    levels: &[Vec<Arc<SsTable>>],
    start: Option<&[u8]>,
    end: Option<&[u8]>,
) -> BTreeMap<Bytes, Option<Bytes>> {
    let mut map = BTreeMap::new();
    // Oldest first: deepest level, oldest table; newer data overwrites.
    for level in levels.iter().rev() {
        for table in level.iter().rev() {
            for (k, v) in table.range(start, end) {
                map.insert(k.clone(), v.clone());
            }
        }
    }
    let lo = match start {
        Some(s) => std::ops::Bound::Included(s),
        None => std::ops::Bound::Unbounded,
    };
    let hi = match end {
        Some(e) => std::ops::Bound::Excluded(e),
        None => std::ops::Bound::Unbounded,
    };
    for (k, v) in memtable.range(lo, hi) {
        map.insert(k.clone(), v.clone());
    }
    map
}

/// The write-ahead half of a write. A store without a WAL has nothing
/// to append; a crashing write (the `kv.wal-append` site fired) leaves
/// half its frame on the medium — torn bytes are a property of files —
/// and fails before the memtable sees the entry either way.
fn log_write(wal: &mut Option<Wal>, crash: bool, op: impl FnOnce() -> WalOp) -> crate::Result<()> {
    if let Some(wal) = wal {
        let append = if crash { Wal::append_torn } else { Wal::append };
        append(wal, &op())?;
    }
    if crash {
        return Err(crate::KvError::Injected("kv.wal-append"));
    }
    Ok(())
}

/// Point lookup below the memtable, newest table first: the key is
/// hashed once and each table's bloom filter probed with that hash.
fn lookup(levels: &[Vec<Arc<SsTable>>], key: &[u8], stats: &mut StoreStats) -> Option<Bytes> {
    let hash = hash_key(key);
    for table in levels.iter().flatten() {
        if !table.bloom_admits(hash) {
            stats.bloom_skips += 1;
        } else if let Some(hit) = table.find(key) {
            stats.sstable_hits += 1;
            return hit;
        }
    }
    None
}

/// A consistent point-in-time view of the store.
pub struct Snapshot {
    memtable: Memtable,
    levels: Vec<Vec<Arc<SsTable>>>,
}

impl Snapshot {
    /// Point lookup within the snapshot.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        if let Some(hit) = self.memtable.get(key) {
            return hit;
        }
        lookup(&self.levels, key, &mut StoreStats::default())
    }

    /// Ordered scan of live entries within the snapshot.
    pub fn range(&self, start: Option<&[u8]>, end: Option<&[u8]>) -> Vec<(Bytes, Bytes)> {
        merged_view(&self.memtable, &self.levels, start, end)
            .into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_string())
    }

    fn small_store() -> LsmStore {
        LsmStore::open(LsmConfig {
            memtable_bytes: 512,
            level_limit: 2,
            max_levels: 3,
            ..LsmConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn put_get_delete() {
        let mut s = LsmStore::in_memory();
        s.put("a", "1").unwrap();
        assert_eq!(s.get(b"a"), Some(b("1")));
        s.delete("a").unwrap();
        assert_eq!(s.get(b"a"), None);
        assert_eq!(s.get(b"missing"), None);
    }

    #[test]
    fn overwrite_visible_across_flush() {
        let mut s = small_store();
        s.put("k", "old").unwrap();
        s.flush().unwrap();
        s.put("k", "new").unwrap();
        assert_eq!(s.get(b"k"), Some(b("new")));
        s.flush().unwrap();
        assert_eq!(s.get(b"k"), Some(b("new")));
    }

    #[test]
    fn delete_shadows_older_sstable_value() {
        let mut s = small_store();
        s.put("k", "v").unwrap();
        s.flush().unwrap();
        s.delete("k").unwrap();
        s.flush().unwrap();
        assert_eq!(s.get(b"k"), None);
    }

    #[test]
    fn many_writes_trigger_flush_and_compaction() {
        let mut s = small_store();
        for i in 0..500 {
            s.put(format!("key-{i:05}"), format!("value-{i}")).unwrap();
        }
        assert!(s.stats().flushes > 0, "should have flushed");
        assert!(s.stats().compactions > 0, "should have compacted");
        // Every key still readable.
        for i in (0..500).step_by(37) {
            assert_eq!(
                s.get(format!("key-{i:05}").as_bytes()),
                Some(b(&format!("value-{i}"))),
                "key-{i:05}"
            );
        }
    }

    #[test]
    fn range_scan_merges_all_layers() {
        let mut s = small_store();
        for i in 0..100 {
            s.put(format!("k{i:03}"), format!("v{i}")).unwrap();
        }
        s.delete("k050").unwrap();
        let out = s.range(Some(b"k045"), Some(b"k055"));
        let keys: Vec<String> = out
            .iter()
            .map(|(k, _)| String::from_utf8(k.to_vec()).unwrap())
            .collect();
        assert_eq!(
            keys,
            vec!["k045", "k046", "k047", "k048", "k049", "k051", "k052", "k053", "k054"]
        );
    }

    #[test]
    fn scan_all_excludes_tombstones() {
        let mut s = small_store();
        for i in 0..50 {
            s.put(format!("k{i}"), "v").unwrap();
        }
        for i in 0..25 {
            s.delete(format!("k{i}")).unwrap();
        }
        assert_eq!(s.len(), 25);
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut s = small_store();
        s.put("a", "1").unwrap();
        s.put("b", "2").unwrap();
        let snap = s.snapshot();
        s.put("a", "changed").unwrap();
        s.delete("b").unwrap();
        s.put("c", "3").unwrap();
        assert_eq!(snap.get(b"a"), Some(b("1")));
        assert_eq!(snap.get(b"b"), Some(b("2")));
        assert_eq!(snap.get(b"c"), None);
        assert_eq!(snap.range(None, None).len(), 2);
        // Store sees the new state.
        assert_eq!(s.get(b"a"), Some(b("changed")));
    }

    #[test]
    fn bloom_filters_skip_tables() {
        let mut s = small_store();
        for i in 0..200 {
            s.put(format!("present-{i}"), "v").unwrap();
        }
        s.flush().unwrap();
        for i in 0..200 {
            s.get(format!("absent-{i}").as_bytes());
        }
        assert!(s.stats().bloom_skips > 100, "bloom should skip most");
    }

    #[test]
    fn persistent_store_recovers_memtable_from_wal() {
        let dir = std::env::temp_dir().join(format!(
            "liquid-kv-store-wal-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let cfg = LsmConfig {
            dir: Some(dir.clone()),
            ..LsmConfig::default()
        };
        {
            let mut s = LsmStore::open(cfg.clone()).unwrap();
            s.put("durable", "yes").unwrap();
            s.delete("gone").unwrap();
            // No flush: data only in WAL + memtable.
        }
        let mut s = LsmStore::open(cfg).unwrap();
        assert_eq!(s.get(b"durable"), Some(b("yes")));
        assert_eq!(s.get(b"gone"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistent_store_recovers_sstables() {
        let dir = std::env::temp_dir().join(format!(
            "liquid-kv-store-sst-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let cfg = LsmConfig {
            memtable_bytes: 256,
            level_limit: 2,
            dir: Some(dir.clone()),
            ..LsmConfig::default()
        };
        {
            let mut s = LsmStore::open(cfg.clone()).unwrap();
            for i in 0..100 {
                s.put(format!("k{i:03}"), format!("v{i}")).unwrap();
            }
            s.flush().unwrap();
        }
        let mut s = LsmStore::open(cfg).unwrap();
        for i in (0..100).step_by(13) {
            assert_eq!(
                s.get(format!("k{i:03}").as_bytes()),
                Some(b(&format!("v{i}")))
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tombstones_dropped_at_bottom_level() {
        let mut s = LsmStore::open(LsmConfig {
            memtable_bytes: 128,
            level_limit: 1,
            max_levels: 2,
            ..LsmConfig::default()
        })
        .unwrap();
        s.put("doomed", "v").unwrap();
        s.flush().unwrap();
        s.delete("doomed").unwrap();
        s.flush().unwrap();
        // Force compaction cascades into the bottom.
        for i in 0..50 {
            s.put(format!("fill-{i}"), "x").unwrap();
        }
        s.flush().unwrap();
        assert_eq!(s.get(b"doomed"), None);
        // The bottom level should hold exactly one table with no
        // tombstone for "doomed".
        let bottom = s.levels.last().unwrap();
        for t in bottom {
            assert_eq!(t.get(b"doomed"), None, "tombstone must be purged");
        }
    }

    #[test]
    fn retention_drops_oldest_tables_whole() {
        let mut s = LsmStore::open(LsmConfig {
            memtable_bytes: 256,
            level_limit: 100, // no compaction: tables accumulate in L0
            max_levels: 2,
            retention: SstRetention::DropByBytes { max_bytes: 1_024 },
            ..LsmConfig::default()
        })
        .unwrap();
        for i in 0..300 {
            s.put(format!("key-{i:05}"), format!("value-{i:05}"))
                .unwrap();
        }
        s.flush().unwrap();
        let tables_before: usize = s.level_sizes().iter().sum();
        assert!(tables_before > 3);
        let dropped = s.enforce_retention().unwrap();
        assert!(!dropped.is_empty());
        assert!(s.approx_bytes() <= 1_024);
        // Oldest data went first: the newest keys are still readable.
        assert_eq!(s.get(b"key-00299"), Some(b("value-00299")));
        assert_eq!(s.get(b"key-00000"), None, "oldest table must be gone");
        // Ids are unique and were actually removed from the levels.
        let remaining: usize = s.level_sizes().iter().sum();
        assert_eq!(remaining, tables_before - dropped.len());
    }

    #[test]
    fn retention_keepall_drops_nothing() {
        let mut s = small_store();
        for i in 0..200 {
            s.put(format!("k{i}"), "v").unwrap();
        }
        s.flush().unwrap();
        assert!(s.enforce_retention().unwrap().is_empty());
        assert_eq!(s.get(b"k0"), Some(b("v")));
    }

    #[test]
    fn retention_injected_fault_leaves_tables_intact() {
        let inj = FailureInjector::disabled();
        let mut s = LsmStore::open(LsmConfig {
            memtable_bytes: 256,
            level_limit: 100,
            retention: SstRetention::DropByBytes { max_bytes: 512 },
            injector: inj.clone(),
            ..LsmConfig::default()
        })
        .unwrap();
        for i in 0..200 {
            s.put(format!("key-{i:04}"), "vvvvvvvv").unwrap();
        }
        s.flush().unwrap();
        let before: usize = s.level_sizes().iter().sum();
        inj.fail_at(1);
        let err = s.enforce_retention();
        assert!(matches!(err, Err(crate::KvError::Injected("kv.sst-drop"))));
        let after: usize = s.level_sizes().iter().sum();
        assert_eq!(before, after, "crash before the unlink drops nothing");
        // Retrying after the crash converges.
        let dropped = s.enforce_retention().unwrap();
        assert!(!dropped.is_empty());
        assert!(s.approx_bytes() <= 512);
    }

    #[test]
    fn retention_removes_sstable_files_on_disk() {
        let dir = std::env::temp_dir().join(format!(
            "liquid-kv-retention-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let mut s = LsmStore::open(LsmConfig {
            memtable_bytes: 256,
            level_limit: 100,
            retention: SstRetention::DropByBytes { max_bytes: 768 },
            dir: Some(dir.clone()),
            ..LsmConfig::default()
        })
        .unwrap();
        for i in 0..200 {
            s.put(format!("key-{i:04}"), "payload-payload").unwrap();
        }
        s.flush().unwrap();
        let files = |d: &std::path::Path| {
            std::fs::read_dir(d)
                .unwrap()
                .filter(|e| {
                    e.as_ref()
                        .unwrap()
                        .file_name()
                        .to_string_lossy()
                        .ends_with(".sst")
                })
                .count()
        };
        let before = files(&dir);
        let dropped = s.enforce_retention().unwrap();
        assert!(!dropped.is_empty());
        assert_eq!(files(&dir), before - dropped.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `n` writes over 1 000 keys, each key rewritten ten times in a row
    /// before the stream moves on — every third write an `update`.
    fn rewrite(
        s: &mut LsmStore,
        model: &mut BTreeMap<Bytes, Bytes>,
        n: std::ops::Range<u64>,
        len: usize,
    ) {
        for i in n {
            let key = format!("key-{:04}", (i / 10) % 1000);
            let value = Bytes::from(format!("{i:0len$}"));
            if i % 3 == 0 {
                let expect = model.get(key.as_bytes()).cloned();
                let written = s
                    .update(key.as_bytes(), |current| {
                        assert_eq!(current, expect.as_deref());
                        value.clone()
                    })
                    .unwrap();
                assert_eq!(written, (b(&key), value.clone()));
            } else {
                s.put(key.clone(), value.clone()).unwrap();
            }
            model.insert(b(&key), value);
        }
    }

    #[test]
    fn overwrites_do_not_fill_the_memtable() {
        // The parent counted key + value + 32 bytes per *write*, so this
        // stream "filled" the 1 MiB memtable every ~21 K writes.
        let obs = Obs::default();
        let mut s = LsmStore::open(LsmConfig {
            obs: obs.clone(),
            ..LsmConfig::default()
        })
        .unwrap();
        let mut model = BTreeMap::new();
        rewrite(&mut s, &mut model, 0..100_000, 8);
        assert!(s.level_sizes().iter().all(|&n| n == 0), "nothing flushed");
        assert_eq!(s.stats().flushes, 0);
        #[cfg(not(feature = "obs-off"))]
        {
            assert_eq!(obs.snapshot().counter("kv.flush"), 0);
            assert_eq!(obs.snapshot().counter("kv.wal-append"), 100_000);
        }
        assert_eq!(s.approx_bytes(), 1000 * (8 + 8 + 32), "the live set");
        assert_eq!(s.scan_all(), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn wal_bounds_a_file_backed_store_that_overwrites() {
        let dir = std::env::temp_dir().join(format!(
            "liquid-kv-wal-bound-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let budget = 4096;
        let cfg = LsmConfig {
            memtable_bytes: budget,
            dir: Some(dir.clone()),
            ..LsmConfig::default()
        };
        let (writes, value_len) = (20_000u64, 200);
        let entry = 4 + 4 + 1 + 4 + 8 + 4 + value_len; // one WAL frame
        let mut model = BTreeMap::new();
        let mut s = LsmStore::open(cfg.clone()).unwrap();
        let mut flushes = 0;
        for i in 0..writes {
            if i == writes / 2 + 7 {
                // Crash mid-stream, between two flushes: SSTables plus
                // WAL replay give the same contents back.
                flushes += s.stats().flushes;
                let wal_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
                assert!(wal_len > 0 && wal_len == s.wal.as_ref().unwrap().size_bytes());
                drop(s);
                s = LsmStore::open(cfg.clone()).unwrap();
                assert_eq!(s.scan_all(), model.clone().into_iter().collect::<Vec<_>>());
            }
            rewrite(&mut s, &mut model, i..i + 1, value_len);
            let wal = s.wal.as_ref().unwrap().size_bytes();
            assert!(wal < (budget + entry) as u64, "WAL grew to {wal} bytes");
        }
        flushes += s.stats().flushes;
        // The memtable alone would flush every ~170 writes here (it
        // gains a key every tenth); the WAL bound keeps the parent's
        // cadence, one flush per `budget` bytes *written* at key +
        // value + 32 a write, to within the two framings' difference.
        let parent = writes / (budget as u64).div_ceil(8 + value_len as u64 + 32);
        let drift = flushes as f64 / parent as f64;
        assert!(
            (0.9..=1.1).contains(&drift),
            "{flushes} flushes vs {parent}"
        );
        assert_eq!(s.scan_all(), model.into_iter().collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn update_crosses_memtable_tables_and_tombstones() {
        let mut s = small_store();
        let append = |current: Option<&[u8]>| {
            let mut v = current.unwrap_or(b"").to_vec();
            v.push(b'+');
            Bytes::from(v)
        };
        assert_eq!(s.update(b"k", append).unwrap(), (b("k"), b("+")));
        s.flush().unwrap();
        let hits = s.stats().sstable_hits;
        assert_eq!(s.update(b"k", append).unwrap().1, b("++"), "from a table");
        assert_eq!(s.stats().sstable_hits, hits + 1);
        assert_eq!(s.update(b"k", append).unwrap().1, b("+++"), "in place");
        assert_eq!(s.stats().sstable_hits, hits + 1, "tables not consulted");
        s.delete("k").unwrap();
        assert_eq!(
            s.update(b"k", append).unwrap().1,
            b("+"),
            "over a tombstone"
        );
        s.delete("k").unwrap();
        s.flush().unwrap();
        assert_eq!(s.update(b"k", append).unwrap().1, b("+"), "a flushed one");
        assert_eq!(s.get(b"k"), Some(b("+")));
        // The returned key is the stored one: a second update hands
        // back the same allocation.
        let first = s.update(b"k", append).unwrap().0;
        let second = s.update(b"k", append).unwrap().0;
        assert_eq!(first.as_ptr(), second.as_ptr());
    }

    #[test]
    fn injected_write_fault_skips_the_memtable_without_a_wal() {
        let inj = FailureInjector::disabled();
        let mut s = LsmStore::open(LsmConfig {
            injector: inj.clone(),
            ..LsmConfig::default()
        })
        .unwrap();
        s.put("k", "v").unwrap();
        for n in 1..=3 {
            inj.fail_at(1);
            let err = match n {
                1 => s.put("k", "lost"),
                2 => s.delete("k"),
                _ => s.update(b"k", |_| b("lost")).map(|_| ()),
            };
            assert!(matches!(
                err,
                Err(crate::KvError::Injected("kv.wal-append"))
            ));
            assert_eq!(s.get(b"k"), Some(b("v")));
        }
        assert_eq!(inj.site_counts(), vec![("kv.wal-append", 4, 3)]);
    }

    #[test]
    fn empty_flush_is_noop() {
        let mut s = LsmStore::in_memory();
        s.flush().unwrap();
        assert_eq!(s.stats().flushes, 0);
    }
}
