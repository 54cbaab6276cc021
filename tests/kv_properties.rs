//! Property-based crash-recovery tests for the state substrate: the WAL
//! and the page-cache model. These are the invariants the processing
//! layer's durability story leans on.

use bytes::Bytes;
use liquid::kv::{LsmConfig, LsmStore};
use liquid::sim::clock::SimClock;
use liquid::sim::pagecache::{PageCache, PageCacheConfig};
use proptest::prelude::*;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "liquid-prop-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A snapshot still reads as the model did when it was taken.
fn check_snapshot(
    snap: &liquid::kv::Snapshot,
    then: &std::collections::BTreeMap<Bytes, Bytes>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        snap.range(None, None),
        then.clone().into_iter().collect::<Vec<_>>()
    );
    for key_id in 0u8..12 {
        let key = format!("k{key_id:02}");
        prop_assert_eq!(snap.get(key.as_bytes()), then.get(key.as_bytes()).cloned());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash-drop the store at an arbitrary point: a reopened store
    /// recovers exactly the acknowledged state (WAL replay + SSTs),
    /// regardless of where flushes happened in the op sequence.
    #[test]
    fn persistent_store_recovers_exact_state(
        ops in prop::collection::vec((0u8..4, 0u8..12, prop::collection::vec(any::<u8>(), 0..6)), 1..120),
    ) {
        let dir = temp_dir("lsm");
        let cfg = LsmConfig {
            memtable_bytes: 256,
            level_limit: 2,
            max_levels: 3,
            dir: Some(dir.clone()),
            ..LsmConfig::default()
        };
        let mut model = std::collections::BTreeMap::new();
        {
            let mut store = LsmStore::open(cfg.clone()).unwrap();
            for (op, key_id, value) in &ops {
                let key = format!("k{key_id:02}");
                match op {
                    0 | 1 => {
                        store.put(key.clone(), value.clone()).unwrap();
                        model.insert(key, value.clone());
                    }
                    2 => {
                        store.delete(key.clone()).unwrap();
                        model.remove(&key);
                    }
                    _ => store.flush().unwrap(),
                }
            }
            // Crash: no flush, no clean shutdown.
        }
        let mut recovered = LsmStore::open(cfg).unwrap();
        for key_id in 0u8..12 {
            let key = format!("k{key_id:02}");
            prop_assert_eq!(
                recovered.get(key.as_bytes()).map(|b| b.to_vec()),
                model.get(&key).cloned(),
                "key {} after recovery", key
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The store against a `BTreeMap` model after every op, with a
    /// memtable small enough that updates cross memtable → L0 → merged
    /// levels and land on tombstones at each of them: `update`'s closure
    /// sees exactly the model's current value, a snapshot keeps the
    /// contents it was taken at, and with a directory a crash-and-reopen
    /// at any point gives the model back (without one there is no WAL
    /// and nothing to reopen).
    #[test]
    fn store_matches_model_after_every_op(
        on_disk in any::<bool>(),
        ops in prop::collection::vec((0u8..8, 0u8..12, prop::collection::vec(any::<u8>(), 0..6)), 1..160),
    ) {
        let dir = on_disk.then(|| temp_dir("model"));
        let cfg = LsmConfig {
            memtable_bytes: 256,
            level_limit: 2,
            max_levels: 3,
            dir: dir.clone(),
            ..LsmConfig::default()
        };
        let mut model: std::collections::BTreeMap<Bytes, Bytes> = Default::default();
        let mut store = LsmStore::open(cfg.clone()).unwrap();
        let mut snapshot = None;
        for (op, key_id, value) in &ops {
            let key = Bytes::from(format!("k{key_id:02}"));
            let value = Bytes::from(value.clone());
            match op {
                0 | 1 => {
                    store.put(key.clone(), value.clone()).unwrap();
                    model.insert(key.clone(), value);
                }
                2..=4 => {
                    let expect = model.get(&key).cloned();
                    let mut seen = None;
                    let written = store
                        .update(&key, |current| {
                            seen = Some(current.map(Bytes::copy_from_slice));
                            value.clone()
                        })
                        .unwrap();
                    prop_assert_eq!(seen, Some(expect), "what update({:?}) saw", &key);
                    prop_assert_eq!(written, (key.clone(), value.clone()));
                    model.insert(key.clone(), value);
                }
                5 => {
                    store.delete(key.clone()).unwrap();
                    model.remove(&key);
                }
                6 => store.flush().unwrap(),
                _ if on_disk && key_id % 2 == 0 => {
                    // Crash: no flush, no clean shutdown.
                    drop(store);
                    store = LsmStore::open(cfg.clone()).unwrap();
                }
                _ => {
                    if let Some((snap, then)) = snapshot.replace((store.snapshot(), model.clone())) {
                        check_snapshot(&snap, &then)?;
                    }
                }
            }
            prop_assert_eq!(store.get(&key), model.get(&key).cloned(), "get({:?})", &key);
            prop_assert_eq!(
                store.scan_all(),
                model.clone().into_iter().collect::<Vec<_>>(),
                "contents after {:?}", (op, key_id)
            );
        }
        if let Some((snap, then)) = snapshot {
            check_snapshot(&snap, &then)?;
        }
        if let Some(dir) = dir {
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A torn WAL tail (partial final write) never corrupts recovery:
    /// the store comes back with a prefix of the acknowledged ops.
    #[test]
    fn torn_wal_tail_recovers_a_prefix(
        n_ops in 1usize..40,
        cut in 1usize..64,
    ) {
        let dir = temp_dir("torn");
        let cfg = LsmConfig {
            // Huge memtable: everything stays in the WAL (worst case).
            memtable_bytes: 1 << 30,
            dir: Some(dir.clone()),
            ..LsmConfig::default()
        };
        {
            let mut store = LsmStore::open(cfg.clone()).unwrap();
            for i in 0..n_ops {
                store.put(format!("k{i:03}"), format!("v{i}")).unwrap();
            }
        }
        // Tear the WAL: chop `cut` bytes off the end.
        let wal = dir.join("wal.log");
        let len = std::fs::metadata(&wal).unwrap().len();
        let torn_len = len.saturating_sub(cut as u64);
        let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(torn_len).unwrap();
        drop(f);
        let mut recovered = LsmStore::open(cfg).unwrap();
        // Recovered keys must be a dense prefix k000..k(m) with m < n.
        let live = recovered.scan_all();
        let m = live.len();
        prop_assert!(m <= n_ops);
        for i in 0..m {
            let key = format!("k{i:03}");
            prop_assert_eq!(
                recovered.get(key.as_bytes()),
                Some(Bytes::from(format!("v{i}"))),
                "prefix broken at {}", i
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Exhaustive torn-tail coverage for the WAL frame format: for any
    /// op sequence, truncating the log at *every* byte boundary of the
    /// final record's frame drops exactly that record and nothing else,
    /// repairs the file, and leaves a WAL that accepts new appends.
    #[test]
    fn wal_truncated_at_every_byte_of_final_record_drops_only_it(
        ops in prop::collection::vec(
            (
                prop::collection::vec(any::<u8>(), 0..10),
                prop::collection::vec(any::<u8>(), 0..16),
            ),
            1..12,
        ),
    ) {
        use liquid::kv::wal::{Wal, WalOp};
        let dir = temp_dir("walcut");
        let path = dir.join("wal.log");
        // Empty value ⇒ delete, so both op kinds get boundary coverage.
        let wal_ops: Vec<WalOp> = ops
            .iter()
            .map(|(k, v)| {
                if v.is_empty() {
                    WalOp::Delete(Bytes::copy_from_slice(k))
                } else {
                    WalOp::Put(Bytes::copy_from_slice(k), Bytes::copy_from_slice(v))
                }
            })
            .collect();
        let prefix_len;
        {
            let (mut wal, replayed) = Wal::open(&path).unwrap();
            prop_assert!(replayed.is_empty());
            for op in &wal_ops[..wal_ops.len() - 1] {
                wal.append(op).unwrap();
            }
            prefix_len = wal.size_bytes();
            wal.append(wal_ops.last().unwrap()).unwrap();
            wal.sync().unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        prop_assert!(full.len() as u64 > prefix_len);
        for torn in 0..(full.len() - prefix_len as usize) {
            let cut = prefix_len as usize + torn;
            std::fs::write(&path, &full[..cut]).unwrap();
            let (mut wal, replayed) = Wal::open(&path).unwrap();
            prop_assert_eq!(
                &replayed[..],
                &wal_ops[..wal_ops.len() - 1],
                "replay after cutting the final frame to {} bytes", torn
            );
            prop_assert_eq!(
                wal.size_bytes(),
                prefix_len,
                "torn bytes not truncated away (cut at {})", torn
            );
            // Recovery leaves a usable WAL: re-append the lost op and
            // the full sequence replays.
            wal.append(wal_ops.last().unwrap()).unwrap();
            wal.sync().unwrap();
            drop(wal);
            let (_, healed) = Wal::open(&path).unwrap();
            prop_assert_eq!(&healed[..], &wal_ops[..], "re-append after cut {}", torn);
        }
        // The intact file replays everything.
        std::fs::write(&path, &full).unwrap();
        let (_, replayed) = Wal::open(&path).unwrap();
        prop_assert_eq!(replayed, wal_ops);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Page-cache invariants under arbitrary read/write mixes:
    /// residency never exceeds capacity, page accounting balances, and
    /// re-reading a just-touched page always hits.
    #[test]
    fn page_cache_invariants(
        ops in prop::collection::vec((0u8..2, 0u64..4, 0u64..512u64), 1..200),
        capacity in 4usize..64,
    ) {
        let clock = SimClock::new(0);
        let mut cache = PageCache::new(
            PageCacheConfig {
                page_size: 4096,
                capacity_pages: capacity,
                prefetch_pages: 4,
                ..PageCacheConfig::default()
            },
            clock.shared(),
        );
        for (op, file, page) in &ops {
            let offset = page * 4096;
            if *op == 0 {
                cache.write(*file, offset, 4096);
            } else {
                let r = cache.read(*file, offset, 4096);
                prop_assert_eq!(r.pages_hit + r.pages_missed, 1);
                // Immediately re-read: must hit (it was just installed).
                let again = cache.read(*file, offset, 4096);
                prop_assert_eq!(again.pages_missed, 0);
            }
            prop_assert!(cache.resident_pages() <= capacity,
                "{} resident > capacity {}", cache.resident_pages(), capacity);
        }
        let stats = cache.stats();
        prop_assert!(stats.total_cost_ns > 0);
    }
}

#[test]
fn wal_sync_cost_scales_with_entries_not_size() {
    // Deterministic sanity companion to the property tests: recovery
    // time is proportional to the WAL's live entries; flushing resets it.
    let dir = temp_dir("walreset");
    let cfg = LsmConfig {
        memtable_bytes: 1 << 30,
        dir: Some(dir.clone()),
        ..LsmConfig::default()
    };
    {
        let mut store = LsmStore::open(cfg.clone()).unwrap();
        for i in 0..1_000 {
            store.put(format!("k{i}"), "v").unwrap();
        }
        store.flush().unwrap(); // WAL truncated; data now in an SST.
        store.put("post-flush", "x").unwrap();
    }
    let wal_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
    assert!(
        wal_len < 100,
        "WAL should hold only the post-flush entry, has {wal_len} bytes"
    );
    let mut recovered = LsmStore::open(cfg).unwrap();
    assert_eq!(recovered.get(b"post-flush"), Some(Bytes::from_static(b"x")));
    assert_eq!(recovered.get(b"k999"), Some(Bytes::from_static(b"v")));
    std::fs::remove_dir_all(&dir).ok();
}
