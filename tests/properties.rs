//! Property-based tests over core invariants.
//!
//! The log, the compaction pass, the LSM store and the consumer-group
//! assignment all have crisp invariants; proptest drives them with
//! arbitrary operation sequences.

use bytes::Bytes;
use liquid::kv::{LsmConfig, LsmStore};
use liquid::log::{
    Log, LogConfig, ReadCacheConfig, RecordBatch, RetentionPolicy, SegmentReadCache,
};
use liquid_messaging::consumer::StartPosition;
use liquid_messaging::Message;
use liquid_messaging::{
    AckLevel, AssignmentStrategy, BatchConfig, Cluster, ClusterConfig, Consumer, Producer,
    TopicConfig, TopicPartition,
};
use liquid_processing::{FnTask, Job, JobConfig, ProcessingError, StreamTask, TaskContext};
use liquid_sim::clock::SimClock;
use liquid_sim::failure::FailureInjector;
use proptest::prelude::*;

fn small_log(segment_bytes: u64, compact: bool) -> Log {
    let cfg = LogConfig {
        segment_bytes,
        index_interval_bytes: 128,
        retention: if compact {
            RetentionPolicy::Compact {
                max_age_ms: None,
                max_bytes: None,
            }
        } else {
            RetentionPolicy::KeepAll
        },
        ..LogConfig::default()
    };
    Log::open(cfg, SimClock::new(0).shared()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Appending N records yields offsets 0..N and reading from any
    /// offset k returns exactly the records k..N in order.
    #[test]
    fn log_reads_are_contiguous_and_ordered(
        values in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..200),
        segment_bytes in 64u64..2048,
    ) {
        let mut log = small_log(segment_bytes, false);
        for (i, v) in values.iter().enumerate() {
            let off = log.append(None, Bytes::copy_from_slice(v)).unwrap();
            prop_assert_eq!(off, i as u64);
        }
        let n = values.len() as u64;
        for k in [0, n / 2, n.saturating_sub(1), n] {
            let out = log.read(k, u64::MAX).unwrap();
            prop_assert_eq!(out.records.len() as u64, n - k);
            for (j, rec) in out.records.iter().enumerate() {
                prop_assert_eq!(rec.offset, k + j as u64);
                prop_assert_eq!(&rec.value[..], &values[(k as usize) + j][..]);
            }
        }
    }

    /// After compaction, (a) the latest value of every key survives,
    /// (b) no stale duplicate of a key remains in sealed segments,
    /// (c) the log-end offset is unchanged.
    #[test]
    fn compaction_preserves_latest_values(
        ops in prop::collection::vec((0u8..8, prop::collection::vec(any::<u8>(), 1..16)), 1..300),
    ) {
        let mut log = small_log(256, true);
        let mut expect = std::collections::HashMap::new();
        for (key_id, value) in &ops {
            let key = Bytes::from(format!("k{key_id}"));
            log.append(Some(key.clone()), Bytes::copy_from_slice(value)).unwrap();
            expect.insert(key, Bytes::copy_from_slice(value));
        }
        let end_before = log.next_offset();
        log.compact().unwrap();
        prop_assert_eq!(log.next_offset(), end_before);
        let records = log.read(log.start_offset(), u64::MAX).unwrap().records;
        // Latest value per key in the whole log equals expectation.
        let mut latest = std::collections::HashMap::new();
        for rec in &records {
            if let Some(k) = &rec.key {
                latest.insert(k.clone(), rec.value.clone());
            }
        }
        for (k, v) in &expect {
            prop_assert_eq!(latest.get(k), Some(v), "key {:?}", k);
        }
    }

    /// Compaction with tombstones, for any interleaving of puts and
    /// deletes: (a) after one pass every deleted key still shows its
    /// tombstone as the newest record (lagging consumers observe the
    /// deletion); (b) after two passes live keys serve exactly their
    /// latest value and deleted keys never resurrect a stale one;
    /// (c) offsets and the log end survive, and a third pass is a
    /// fixed point.
    #[test]
    fn compaction_is_exact_latest_per_key_with_tombstones(
        ops in prop::collection::vec(
            (0u8..6, prop::collection::vec(any::<u8>(), 0..12)),
            1..300,
        ),
    ) {
        let mut log = small_log(128, true);
        let mut model: std::collections::BTreeMap<Bytes, Option<Vec<u8>>> = Default::default();
        for (key_id, value) in &ops {
            let key = Bytes::from(format!("k{key_id}"));
            // An empty value is a tombstone: it deletes the key.
            log.append(Some(key.clone()), Bytes::copy_from_slice(value)).unwrap();
            model.insert(
                key,
                if value.is_empty() { None } else { Some(value.clone()) },
            );
        }
        let end_before = log.next_offset();
        let offsets_before: std::collections::BTreeSet<u64> = log
            .read(0, u64::MAX).unwrap().records.iter().map(|r| r.offset).collect();
        // Newest readable record per key: (value, is_tombstone).
        let latest_view = |log: &Log| {
            let mut latest = std::collections::BTreeMap::new();
            for rec in log.read(log.start_offset(), u64::MAX).unwrap().records {
                if let Some(k) = rec.key.clone() {
                    latest.insert(k, (rec.value.to_vec(), rec.is_tombstone()));
                }
            }
            latest
        };

        log.compact().unwrap();
        let after_first = latest_view(&log);
        for (key, state) in &model {
            match state {
                Some(v) => {
                    let (got, tomb) = &after_first[key];
                    prop_assert!(!tomb, "live key {:?} shows a tombstone", key);
                    prop_assert_eq!(got, v, "stale value for {:?} after first pass", key);
                }
                None => {
                    let (_, tomb) = after_first
                        .get(key)
                        .unwrap_or_else(|| panic!("tombstone for {key:?} dropped too early"));
                    prop_assert!(tomb, "deleted key {:?} resurrected after first pass", key);
                }
            }
        }

        log.compact().unwrap();
        prop_assert_eq!(log.next_offset(), end_before, "log end moved");
        let offsets_after: std::collections::BTreeSet<u64> = log
            .read(log.start_offset(), u64::MAX).unwrap().records.iter().map(|r| r.offset).collect();
        prop_assert!(
            offsets_after.is_subset(&offsets_before),
            "compaction invented offsets"
        );
        let after_second = latest_view(&log);
        for (key, state) in &model {
            match state {
                Some(v) => {
                    let (got, tomb) = &after_second[key];
                    prop_assert!(!tomb);
                    prop_assert_eq!(got, v, "stale value for {:?} after second pass", key);
                }
                None => {
                    // The tombstone may linger (active segment is never
                    // compacted) but a stale value must never resurface.
                    if let Some((_, tomb)) = after_second.get(key) {
                        prop_assert!(tomb, "deleted key {:?} resurrected", key);
                    }
                }
            }
        }

        // Once tombstone dropping has stabilised, compaction is a
        // fixed point.
        let stats = log.compact().unwrap();
        prop_assert_eq!(stats.records_before, stats.records_after);
        prop_assert_eq!(stats.tombstones_removed, 0);
    }

    /// The LSM store behaves exactly like a BTreeMap under an arbitrary
    /// interleaving of puts, deletes, flushes and reopen-from-scratch
    /// scans.
    #[test]
    fn lsm_store_matches_model(
        ops in prop::collection::vec((0u8..4, 0u8..16, prop::collection::vec(any::<u8>(), 0..8)), 1..250),
    ) {
        let mut store = LsmStore::open(LsmConfig {
            memtable_bytes: 256,
            level_limit: 2,
            max_levels: 3,
            ..LsmConfig::default()
        }).unwrap();
        let mut model = std::collections::BTreeMap::new();
        for (op, key_id, value) in &ops {
            let key = format!("key-{key_id:02}");
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
        // Point reads agree.
        for key_id in 0u8..16 {
            let key = format!("key-{key_id:02}");
            let got = store.get(key.as_bytes()).map(|b| b.to_vec());
            prop_assert_eq!(got, model.get(&key).cloned(), "key {}", key);
        }
        // Full scan agrees (order and content).
        let scanned: Vec<(Vec<u8>, Vec<u8>)> = store
            .scan_all()
            .into_iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        let expected: Vec<(Vec<u8>, Vec<u8>)> = model
            .iter()
            .map(|(k, v)| (k.as_bytes().to_vec(), v.clone()))
            .collect();
        prop_assert_eq!(scanned, expected);
    }

    /// Consumer-group assignment is a partition of the partition set:
    /// complete (every partition assigned) and disjoint (no partition
    /// assigned twice), for any member count and strategy.
    #[test]
    fn group_assignment_is_a_partition(
        partitions in 1u32..16,
        members in 1usize..8,
        round_robin in any::<bool>(),
    ) {
        let cluster = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
        cluster.create_topic("t", TopicConfig::with_partitions(partitions)).unwrap();
        let strategy = if round_robin {
            AssignmentStrategy::RoundRobin
        } else {
            AssignmentStrategy::Range
        };
        for m in 0..members {
            cluster.join_group("g", &format!("m{m}"), &["t"], strategy).unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        let mut total = 0;
        for m in 0..members {
            let a = cluster.group_assignment("g", &format!("m{m}")).unwrap();
            for tp in &a.partitions {
                prop_assert!(seen.insert(tp.clone()), "duplicate assignment {}", tp);
                total += 1;
            }
        }
        prop_assert_eq!(total, partitions);
        // Balance: no member holds more than ceil(p/m)+... for range the
        // imbalance is at most 1.
        let max = (0..members)
            .map(|m| cluster.group_assignment("g", &format!("m{m}")).unwrap().partitions.len())
            .max()
            .unwrap();
        let min = (0..members)
            .map(|m| cluster.group_assignment("g", &format!("m{m}")).unwrap().partitions.len())
            .min()
            .unwrap();
        prop_assert!(max - min <= 1, "imbalanced: max {max} min {min}");
    }

    /// Batch boundaries are invisible: for an arbitrary message stream,
    /// N batches of one (`send`) and ⌈N/k⌉ batches of up to k
    /// (`buffer`/`flush`) through the one produce protocol leave — per
    /// partition, replicated or not, at either ack level — the same
    /// offsets, ordering, keys, payload bytes, timestamps and high
    /// watermark.
    #[test]
    fn batched_produce_equals_unbatched_seed_path(
        stream in prop::collection::vec(
            // (key id, value bytes); key id 8 means keyless.
            (0u8..9, prop::collection::vec(any::<u8>(), 0..32)),
            1..120,
        ),
        max_records in 1usize..24,
        max_bytes in 16usize..512,
        replicas in 1u32..=2,
        acks_all in any::<bool>(),
    ) {
        let acks = if acks_all { AckLevel::All } else { AckLevel::Leader };
        let build = || {
            let c = Cluster::new(ClusterConfig::with_brokers(replicas), SimClock::new(0).shared());
            c.create_topic("t", TopicConfig::with_partitions(2).replication(replicas)).unwrap();
            c
        };
        let seed_cluster = build();
        let batch_cluster = build();
        let seed = Producer::new(&seed_cluster, "t").unwrap().with_acks(acks);
        let batched = Producer::new(&batch_cluster, "t")
            .unwrap()
            .with_acks(acks)
            .with_batching(BatchConfig {
                max_records,
                max_bytes,
                linger_ms: 0,
            });
        for (key_id, value) in &stream {
            let key = (*key_id < 8).then(|| Bytes::from(format!("k{key_id}")));
            let value = Bytes::copy_from_slice(value);
            seed.send(key.clone(), value.clone()).unwrap();
            batched.buffer(key, value).unwrap();
        }
        batched.flush().unwrap();
        prop_assert_eq!(batched.pending_records(), 0);
        if acks == AckLevel::Leader {
            // Followers fetch, and the watermark moves, on the tick.
            seed_cluster.replicate_tick().unwrap();
            batch_cluster.replicate_tick().unwrap();
        }
        for p in 0..2 {
            let tp = TopicPartition::new("t", p);
            let a = seed_cluster.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
            let b = batch_cluster.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
            prop_assert_eq!(a.len(), b.len(), "partition {} length", p);
            let produced = seed_cluster.log_end_offset(&tp).unwrap();
            prop_assert_eq!(a.len() as u64, produced, "partition {} not fully committed", p);
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert_eq!(x.offset, y.offset);
                prop_assert_eq!(&x.key, &y.key);
                prop_assert_eq!(&x.value, &y.value);
                prop_assert_eq!(x.timestamp, y.timestamp);
            }
            prop_assert_eq!(
                seed_cluster.latest_offset(&tp).unwrap(),
                batch_cluster.latest_offset(&tp).unwrap(),
                "high watermark diverged on partition {}", p
            );
        }
    }

    /// Cutting a run of records into batches at an arbitrary boundary is
    /// observationally a no-op: a log fed the two halves, a log fed the
    /// whole batch, and a log fed each record by its own `append` (n
    /// batches of one, stamped by the log's clock, which stands at 0)
    /// all end up byte-identical (offsets, keys, values, timestamps).
    #[test]
    fn batch_split_and_merge_boundaries_are_invisible(
        records in prop::collection::vec(
            (0u8..5, prop::collection::vec(any::<u8>(), 0..24)),
            1..80,
        ),
        mid_pct in 0usize..=100,
    ) {
        let pairs: Vec<(Option<Bytes>, Bytes)> = records
            .iter()
            .map(|(key_id, value)| {
                (
                    (*key_id < 4).then(|| Bytes::from(format!("k{key_id}"))),
                    Bytes::copy_from_slice(value),
                )
            })
            .collect();
        let whole = RecordBatch::from_pairs(pairs.clone(), 0);
        let mid = mid_pct * whole.len() / 100;
        let head = RecordBatch::from_pairs(pairs[..mid].to_vec(), 0);
        let tail = RecordBatch::from_pairs(pairs[mid..].to_vec(), 0);
        prop_assert_eq!(head.len() + tail.len(), whole.len());
        prop_assert_eq!(head.wire_bytes() + tail.wire_bytes(), whole.wire_bytes());

        let mut via_halves = small_log(512, false);
        via_halves.append_record_batch(head).unwrap();
        via_halves.append_record_batch(tail).unwrap();
        let mut via_whole = small_log(512, false);
        via_whole.append_record_batch(whole).unwrap();
        let mut via_singles = small_log(512, false);
        for (key, value) in pairs {
            via_singles.append(key, value).unwrap();
        }
        let dump = |log: &Log| {
            log.read(0, u64::MAX)
                .unwrap()
                .records
                .into_iter()
                .map(|r| (r.offset, r.key, r.value, r.timestamp))
                .collect::<Vec<_>>()
        };
        let whole_dump = dump(&via_whole);
        prop_assert_eq!(dump(&via_halves), whole_dump.clone());
        prop_assert_eq!(dump(&via_singles), whole_dump);
    }

    /// Full round trip — accumulate → group-commit append → batch fetch
    /// → lazy delivery — returns exactly the input stream: dense
    /// offsets, input order, identical bytes, and an exact end_offset
    /// on every delivered batch.
    #[test]
    fn batch_round_trip_preserves_stream(
        values in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 1..150),
        max_records in 1usize..32,
    ) {
        let cluster = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
        cluster.create_topic("t", TopicConfig::with_partitions(1)).unwrap();
        let producer = Producer::new(&cluster, "t").unwrap().with_batching(BatchConfig {
            max_records,
            max_bytes: usize::MAX,
            linger_ms: 0,
        });
        for v in &values {
            producer.buffer(None, Bytes::copy_from_slice(v)).unwrap();
        }
        producer.flush().unwrap();
        let tp = TopicPartition::new("t", 0);
        let consumer = Consumer::new(&cluster, "c");
        consumer.assign(tp.clone(), StartPosition::Earliest).unwrap();
        let mut delivered: Vec<(u64, Vec<u8>)> = Vec::new();
        loop {
            let polled = consumer.poll_batches().unwrap();
            if polled.is_empty() {
                break;
            }
            for (_, batch) in polled {
                prop_assert_eq!(
                    batch.end_offset(),
                    batch.records().last().unwrap().offset + 1,
                    "end_offset must be one past the last record"
                );
                for m in batch.messages() {
                    delivered.push((m.offset, m.value.to_vec()));
                }
            }
        }
        prop_assert_eq!(delivered.len(), values.len());
        for (i, ((offset, value), expect)) in delivered.iter().zip(values.iter()).enumerate() {
            prop_assert_eq!(*offset, i as u64, "offsets must be dense");
            prop_assert_eq!(value, expect, "payload {} diverged", i);
        }
        prop_assert_eq!(consumer.position(&tp), Some(values.len() as u64));
        prop_assert_eq!(consumer.lag(&tp).unwrap_or(0), 0);
    }

    /// Offset-for-timestamp returns the first record with ts >= target
    /// for arbitrary non-decreasing timestamp sequences.
    #[test]
    fn timestamp_lookup_finds_first_at_or_after(
        gaps in prop::collection::vec(0u64..50, 1..100),
        probe_idx in 0usize..100,
    ) {
        let mut log = small_log(256, false);
        let mut ts = 0;
        let mut stamps = Vec::new();
        for g in &gaps {
            ts += g;
            stamps.push(ts);
            let stamped = RecordBatch::from_pairs(vec![(None, Bytes::from_static(b"v"))], ts);
            log.append_record_batch(stamped).unwrap();
        }
        let probe = stamps[probe_idx % stamps.len()];
        let offset = log.offset_for_timestamp(probe).unwrap();
        let expected = stamps.iter().position(|&s| s >= probe).map(|i| i as u64);
        prop_assert_eq!(offset, expected);
        // Probing past the end yields None.
        prop_assert_eq!(log.offset_for_timestamp(ts + 1).unwrap(), None);
    }

    /// Whole-segment retention commutes with reading: enforcing the
    /// policy and then reading yields exactly the records a
    /// pre-retention read contains once filtered to the new start
    /// offset — drops never rewrite, reorder or truncate survivors,
    /// with or without the segment-read cache in the path.
    #[test]
    fn retention_then_read_equals_read_then_filter(
        segment_bytes in 64u64..512,
        n in 1usize..160,
        max_bytes in 256u64..4096,
        by_age in any::<bool>(),
        with_cache in any::<bool>(),
    ) {
        let clock = SimClock::new(0);
        let retention = if by_age {
            RetentionPolicy::DropByAge { max_age_ms: 5_000, max_bytes: Some(max_bytes) }
        } else {
            RetentionPolicy::DropByBytes { max_bytes }
        };
        let cfg = LogConfig {
            segment_bytes,
            index_interval_bytes: 128,
            retention,
            ..LogConfig::default()
        };
        let mut log = Log::open(cfg, clock.shared()).unwrap();
        if with_cache {
            let cache = SegmentReadCache::new(ReadCacheConfig {
                capacity_bytes: 2_048,
                shards: 2,
                obs: liquid_obs::Obs::default(),
            });
            log.attach_read_cache(cache, 1);
        }
        for i in 0..n {
            log.append(
                Some(Bytes::from(format!("k{}", i % 7))),
                Bytes::from(format!("value-{i:05}")),
            )
            .unwrap();
            clock.advance(100);
        }
        clock.advance(3_000);
        let before = log.read(0, u64::MAX).unwrap().records;
        log.enforce_retention().unwrap();
        let start = log.start_offset();
        let after = log.read(start, u64::MAX).unwrap().records;
        let filtered: Vec<_> = before.into_iter().filter(|r| r.offset >= start).collect();
        prop_assert_eq!(after.len(), filtered.len());
        for (a, f) in after.iter().zip(&filtered) {
            prop_assert_eq!(a.offset, f.offset);
            prop_assert_eq!(&a.key, &f.key);
            prop_assert_eq!(&a.value, &f.value);
            prop_assert_eq!(a.timestamp, f.timestamp);
        }
    }
}

/// One input of [`job_rounds_are_invisible`]: what the task does with
/// the message that carries it.
#[derive(Debug, Clone, Copy)]
enum JobOp {
    Put,
    Delete,
    Count,
    Send,
}

const JOB_OPS: [JobOp; 4] = [JobOp::Put, JobOp::Delete, JobOp::Count, JobOp::Send];

/// The task under test: the message's first byte picks the [`JobOp`].
/// Puts and deletes live under `p<key>`, counters under `c<key>`; a
/// count is also sent on, so the feed shows every intermediate value.
fn op_task() -> Box<dyn StreamTask> {
    Box::new(FnTask(|m: &Message, ctx: &mut TaskContext<'_>| {
        let key = m.key.clone().unwrap_or_default();
        let state_key = |prefix: u8| Bytes::from([&[prefix][..], &key[..]].concat());
        match JOB_OPS[usize::from(m.value[0]) % 4] {
            JobOp::Put => ctx.store().put(state_key(b'p'), m.value.clone())?,
            JobOp::Delete => ctx.store().delete(state_key(b'p'))?,
            JobOp::Count => {
                let n = ctx.store().add_counter(&state_key(b'c'), 1)?;
                ctx.send("out", Some(key), Bytes::from(n.to_string()))?;
            }
            JobOp::Send => drop(ctx.send("out", Some(key), m.value.clone())?),
        }
        Ok(())
    }))
}

/// What one way of cutting a job's input into rounds left behind.
#[derive(Debug, PartialEq)]
struct JobOutcome {
    /// The derived feed, per partition, in offset order.
    feed: Vec<Vec<(Bytes, Bytes)>>,
    state: Vec<(Bytes, Bytes)>,
    /// State of a fresh job instance, restored from the changelog.
    restored: Vec<(Bytes, Bytes)>,
    changelog_len: u64,
}

/// Runs `ops` through a fresh cluster and job, one round per entry of
/// `cuts` (cycled; 0 is an unlimited `run_once`), fetching at most
/// `fetch_bytes` a batch and checkpointing every `checkpoint_every`.
fn run_job_cut(
    ops: &[(u8, u8, u8)],
    out_partitions: u32,
    cuts: &[u64],
    fetch_bytes: u64,
    checkpoint_every: u64,
) -> JobOutcome {
    let cluster = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
    let topic = |name, partitions| {
        cluster
            .create_topic(name, TopicConfig::with_partitions(partitions))
            .unwrap()
    };
    topic("in", 1);
    topic("out", out_partitions);
    let input = TopicPartition::new("in", 0);
    for &(op, key, salt) in ops {
        let key = Bytes::from(format!("k{}", key % 6));
        let value = Bytes::from(vec![op, salt]);
        cluster
            .produce_to(&input, Some(key), value, AckLevel::Leader)
            .unwrap();
    }
    let make = || {
        let mut config = JobConfig::new("cut", &["in"]).checkpoint_every(checkpoint_every);
        config.fetch_bytes = fetch_bytes;
        Job::new(&cluster, config, |_| op_task()).unwrap()
    };
    let mut job = make();
    let mut cuts = cuts.iter().cycle();
    while job.lag().unwrap() > 0 {
        match cuts.next().copied().unwrap_or(0) {
            0 => job.run_once().unwrap(),
            k => job.run_once_limited(k).unwrap(),
        };
    }
    assert_eq!(job.processed(), ops.len() as u64);
    job.checkpoint().unwrap();
    let state = job.state(0).unwrap().scan_all();
    drop(job);
    let mut fresh = make();
    assert_eq!(fresh.run_once().unwrap(), 0, "resumes at the checkpoint");
    let read = |tp: &TopicPartition| {
        cluster
            .fetch_batch(tp, 0, u64::MAX)
            .unwrap()
            .into_messages()
    };
    JobOutcome {
        feed: (0..out_partitions)
            .map(|p| {
                read(&TopicPartition::new("out", p))
                    .into_iter()
                    .map(|m| (m.key.unwrap_or_default(), m.value))
                    .collect()
            })
            .collect(),
        state,
        restored: fresh.state(0).unwrap().scan_all(),
        changelog_len: cluster
            .latest_offset(&TopicPartition::new("__cut-state", 0))
            .unwrap(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A job's rounds are invisible: however its input is cut into
    /// rounds, fetches and checkpoints, the derived feed (contents and
    /// order, per partition), the final local state and the state a
    /// fresh instance restores from the changelog are the same — and
    /// equal a fold over the input computed here. Outputs are never
    /// coalesced; changelog writes are, so the changelog is no longer
    /// than the input.
    #[test]
    fn job_rounds_are_invisible(
        ops in prop::collection::vec((0u8..4, 0u8..6, any::<u8>()), 1..120),
        out_partitions in 1u32..=4,
        cuts in prop::collection::vec(0u64..9, 1..6),
        fetch_bytes in 1u64..2048,
        checkpoint_every in 0u64..20,
    ) {
        let cut = run_job_cut(&ops, out_partitions, &cuts, fetch_bytes, checkpoint_every);
        let whole = run_job_cut(&ops, out_partitions, &[0], 1 << 20, 0);
        prop_assert_eq!(&cut.feed, &whole.feed);

        let mut state = std::collections::BTreeMap::new();
        let mut sent: Vec<(Bytes, Bytes)> = Vec::new();
        for &(op, key, salt) in &ops {
            let key = format!("k{}", key % 6);
            let value = Bytes::from(vec![op, salt]);
            match JOB_OPS[usize::from(op)] {
                JobOp::Put => drop(state.insert(Bytes::from(format!("p{key}")), value)),
                JobOp::Delete => drop(state.remove(format!("p{key}").as_bytes())),
                JobOp::Count => {
                    let slot = state
                        .entry(Bytes::from(format!("c{key}")))
                        .or_insert_with(|| Bytes::copy_from_slice(&0u64.to_le_bytes()));
                    let n = u64::from_le_bytes(slot[..].try_into().unwrap()) + 1;
                    *slot = Bytes::copy_from_slice(&n.to_le_bytes());
                    sent.push((Bytes::from(key), Bytes::from(n.to_string())));
                }
                JobOp::Send => sent.push((Bytes::from(key), value)),
            }
        }
        let state: Vec<(Bytes, Bytes)> = state.into_iter().collect();
        for outcome in [&cut, &whole] {
            prop_assert_eq!(&outcome.state, &state);
            prop_assert_eq!(&outcome.restored, &state);
            prop_assert!(outcome.changelog_len <= ops.len() as u64);
            // Every derived record, in per-key order; a key lives in
            // one partition.
            for k in 0..6 {
                let key = Bytes::from(format!("k{k}"));
                let of_key = |records: &[(Bytes, Bytes)]| -> Vec<Bytes> {
                    let mine = records.iter().filter(|(rk, _)| *rk == key);
                    mine.map(|(_, v)| v.clone()).collect()
                };
                let homes: Vec<Vec<Bytes>> = outcome.feed.iter().map(|p| of_key(p)).collect();
                prop_assert!(homes.iter().filter(|h| !h.is_empty()).count() <= 1);
                prop_assert_eq!(homes.concat(), of_key(&sent));
            }
        }
    }
}

/// One broker, an `in` feed of `inputs` keyed records, an `out` feed
/// whose log ticks `out_injector` — and nothing else does.
fn faulted_output_cluster(inputs: u64, out_injector: &FailureInjector) -> Cluster {
    let cluster = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
    cluster
        .create_topic("in", TopicConfig::with_partitions(1))
        .unwrap();
    let mut out = TopicConfig::with_partitions(1);
    out.log.injector = out_injector.clone();
    cluster.create_topic("out", out).unwrap();
    for i in 0..inputs {
        let (key, value) = (format!("k{}", i % 3), format!("m{i}"));
        cluster
            .produce_to(
                &TopicPartition::new("in", 0),
                Some(Bytes::from(key)),
                Bytes::from(value),
                AckLevel::Leader,
            )
            .unwrap();
    }
    cluster
}

/// Counts every input in state and forwards it.
fn counting_task() -> Box<dyn StreamTask> {
    Box::new(FnTask(|m: &Message, ctx: &mut TaskContext<'_>| {
        ctx.store().add_counter(b"seen", 1)?;
        ctx.send("out", m.key.clone(), m.value.clone())?;
        Ok(())
    }))
}

#[test]
fn failed_output_flush_leaves_the_position_at_the_batch_start() {
    let injector = FailureInjector::new(7);
    let cluster = faulted_output_cluster(10, &injector);
    let config = JobConfig::new("flush", &["in"]).checkpoint_every(0);
    let mut job = Job::new(&cluster, config, |_| counting_task()).unwrap();
    injector.fail_at(1);
    let failed = job.run_once();
    assert!(
        matches!(failed, Err(ProcessingError::Messaging(_))),
        "{failed:?}"
    );
    assert_eq!(injector.failures(), 1);
    // The commit unit stopped between its second and third step: the
    // changelog batch is in the log, the outputs are not, and the
    // position has not moved — so nothing the batch did is lost.
    let (out, changelog) = (
        TopicPartition::new("out", 0),
        TopicPartition::new("__flush-state", 0),
    );
    assert_eq!(cluster.latest_offset(&changelog).unwrap(), 1);
    assert_eq!(cluster.latest_offset(&out).unwrap(), 0);
    assert_eq!(job.lag().unwrap(), 10);
    job.checkpoint().unwrap();
    assert_eq!(
        cluster
            .offsets()
            .fetch_offset("job-flush", &TopicPartition::new("in", 0)),
        Some(0)
    );
    // The re-run delivers every derived record, in order (duplicates
    // allowed: at-least-once).
    assert_eq!(job.run_until_idle(4).unwrap(), 10);
    let derived: Vec<Bytes> = cluster
        .fetch_batch(&out, 0, u64::MAX)
        .unwrap()
        .into_messages()
        .into_iter()
        .map(|m| m.value)
        .collect();
    let mut firsts = derived.clone();
    firsts.dedup();
    let mut seen = std::collections::HashSet::new();
    firsts.retain(|v| seen.insert(v.clone()));
    let inputs: Vec<Bytes> = (0..10).map(|i| Bytes::from(format!("m{i}"))).collect();
    assert_eq!(firsts, inputs, "derived feed: {derived:?}");
}

#[test]
fn failed_checkpoint_never_commits_past_the_changelog() {
    // Every input adds one to `seen`, so a restored count below a
    // committed position is a position whose changelog batch is
    // missing from the log.
    for crash_round in 0..4 {
        let cluster = faulted_output_cluster(20, &FailureInjector::disabled());
        let injector = FailureInjector::new(11);
        let make = || {
            let mut config = JobConfig::new("ckpt", &["in"]).checkpoint_every(0);
            config.injector = injector.clone();
            Job::new(&cluster, config, |_| counting_task()).unwrap()
        };
        let mut job = make();
        let mut crashed = false;
        for round in 0..4 {
            assert_eq!(job.run_once_limited(4).unwrap(), 4);
            if round == crash_round {
                injector.fail_at(1);
                let failed = job.checkpoint();
                assert!(matches!(
                    failed,
                    Err(ProcessingError::Injected("task.checkpoint"))
                ));
                crashed = true;
                break;
            }
            job.checkpoint().unwrap();
        }
        assert!(crashed);
        drop(job);
        let mut recovered = make();
        let committed = cluster
            .offsets()
            .fetch_offset("job-ckpt", &TopicPartition::new("in", 0))
            .unwrap_or(0);
        let restored = recovered.state(0).unwrap().get_counter(b"seen");
        assert_eq!(committed, 4 * crash_round);
        assert_eq!(
            restored,
            committed + 4,
            "the crashed round's batch is in the log"
        );
        // At-least-once: the uncommitted round is processed again.
        recovered.run_until_idle(8).unwrap();
        assert_eq!(recovered.state(0).unwrap().get_counter(b"seen"), 24);
    }
}

#[test]
fn replication_invariant_followers_prefix_of_leader() {
    // Deterministic but adversarial: after arbitrary kill/restart and
    // tick sequences, every follower's log is a prefix of the leader's
    // committed log.
    let clock = SimClock::new(0);
    let cluster = Cluster::new(ClusterConfig::with_brokers(3), clock.shared());
    cluster
        .create_topic("t", TopicConfig::with_partitions(1).replication(3))
        .unwrap();
    let tp = liquid_messaging::TopicPartition::new("t", 0);
    let mut rng_state = 88172645463325252u64;
    let mut rand = || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };
    let mut down: Vec<u32> = Vec::new();
    for i in 0..500 {
        match rand() % 10 {
            0 if down.len() < 2 => {
                let v = (rand() % 3) as u32;
                if !down.contains(&v) {
                    cluster.kill_broker(v).unwrap();
                    down.push(v);
                }
            }
            1 => {
                if let Some(v) = down.pop() {
                    cluster.restart_broker(v).unwrap();
                }
            }
            2 | 3 => {
                cluster.replicate_tick().unwrap();
            }
            _ => {
                let _ = cluster.produce_to(
                    &tp,
                    None,
                    Bytes::from(format!("m{i}")),
                    liquid_messaging::AckLevel::Leader,
                );
            }
        }
        // Invariant: high watermark never exceeds the leader's log end.
        if let Ok(Some(_)) = cluster.leader(&tp) {
            let hw = cluster.latest_offset(&tp).unwrap();
            let end = cluster.log_end_offset(&tp).unwrap();
            assert!(hw <= end, "hw {hw} > log end {end} at step {i}");
        }
    }
    // Drain: everyone back up, fully replicated.
    for v in down {
        cluster.restart_broker(v).unwrap();
    }
    cluster.replicate_tick().unwrap();
    let isr = cluster.isr(&tp).unwrap();
    assert_eq!(isr.len(), 3, "all replicas back in sync: {isr:?}");
    // Committed data is readable from start to high watermark with
    // contiguous offsets.
    let msgs = cluster
        .fetch_batch(&tp, 0, u64::MAX)
        .unwrap()
        .into_messages();
    for (i, m) in msgs.iter().enumerate() {
        assert_eq!(m.offset, i as u64);
    }
}
