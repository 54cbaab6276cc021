use super::*;
use crate::partition::tests::replica;
use liquid_log::RetentionPolicy;
use liquid_sim::clock::SimClock;
use liquid_sim::failure::FailureInjector;

const DROP_AFTER_1S: RetentionPolicy = RetentionPolicy::DropByAge {
    max_age_ms: 1_000,
    max_bytes: None,
};

fn b(s: &str) -> Bytes {
    Bytes::from(s.to_string())
}

fn cluster(brokers: u32) -> (Cluster, SimClock) {
    let clock = SimClock::new(0);
    (
        Cluster::new(ClusterConfig::with_brokers(brokers), clock.shared()),
        clock,
    )
}

#[test]
fn cluster_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Cluster>();
}

#[test]
fn create_topic_and_produce_fetch() {
    let (c, _) = cluster(1);
    c.create_topic("events", TopicConfig::with_partitions(2))
        .unwrap();
    let tp = TopicPartition::new("events", 0);
    let off = c
        .produce_to(&tp, None, b("hello"), AckLevel::Leader)
        .unwrap();
    assert_eq!(off, 0);
    let msgs = c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
    assert_eq!(msgs.len(), 1);
    assert_eq!(msgs[0].value, b("hello"));
}

/// The copy budget of the produce → fetch round trip: no per-record
/// deep copy of payload bytes. A fetched record's key and value are
/// slices of the frame the batch was stored as, packed back to back;
/// a per-field copy (`to_vec`, `Bytes::copy_from_slice`) anywhere on
/// the way lands them in separate allocations.
#[test]
fn fetched_key_and_value_are_adjacent_slices_of_one_frame() {
    let (c, _) = cluster(1);
    c.create_topic("t", TopicConfig::with_partitions(1))
        .unwrap();
    let tp = TopicPartition::new("t", 0);
    let mut batch = RecordBatch::builder();
    for i in 0..64u32 {
        batch.push(
            Some(format!("key-{i:04}").as_bytes()),
            format!("value-{i:04}-0123456789").as_bytes(),
            0,
        );
    }
    c.produce_batch(&tp, batch.build(), AckLevel::Leader, None)
        .unwrap();
    let fetched = c.fetch_batch(&tp, 0, u64::MAX).unwrap();
    assert_eq!(fetched.len(), 64, "the whole batch comes back");
    for rec in fetched.records() {
        let key = rec.key.as_ref().expect("every record is keyed");
        let key_end = key.as_slice().as_ptr() as usize + key.len();
        assert_eq!(
            key_end,
            rec.value.as_slice().as_ptr() as usize,
            "key and value of offset {} are not adjacent in one frame",
            rec.offset
        );
    }
}

/// A tail fetch shares the log's runs instead of copying records:
/// two consumers fetching the same range get the very same
/// `Record` structs, and after a replication tick the follower's
/// tail holds the leader's runs, not copies of them. (That reads
/// still equal storage scans across segment boundaries, cache hits
/// and compaction gaps is `log`'s
/// `reads_equal_storage_scans_after_every_operation`.)
#[test]
fn tail_fetches_share_records_with_readers_and_replicas() {
    use crate::consumer::{Consumer, StartPosition};
    let (c, _) = cluster(2);
    c.create_topic("t", TopicConfig::with_partitions(1).replication(2))
        .unwrap();
    let tp = TopicPartition::new("t", 0);
    for round in 0..3u32 {
        let mut batch = RecordBatch::builder();
        for i in 0..16u32 {
            batch.push(Some(b"k"), format!("value-{round}-{i:02}").as_bytes(), 0);
        }
        c.produce_batch(&tp, batch.build(), AckLevel::Leader, None)
            .unwrap();
    }
    c.replicate_tick().unwrap();
    let polled: Vec<MessageBatch> = ["c1", "c2"]
        .into_iter()
        .map(|member| {
            let consumer = Consumer::new(&c, member);
            consumer
                .assign(tp.clone(), StartPosition::Earliest)
                .unwrap();
            let mut batches = consumer.poll_batches().unwrap();
            assert_eq!(batches.len(), 1);
            batches.remove(0).1
        })
        .collect();
    let (one, two) = (polled[0].records(), polled[1].records());
    assert_eq!(one.len(), 48);
    assert_eq!(one, two);
    assert!(
        one.iter().zip(two).all(|(a, b)| std::ptr::eq(a, b)),
        "two readers of one range hold the same records"
    );
    let leader = c.leader(&tp).unwrap().unwrap();
    let follower = 1 - leader;
    let (shard, _) = c.resolve(&tp).unwrap();
    let ps = shard.part.lock();
    let read = |id: BrokerId| ps.core.replicas()[&id].read(0, u64::MAX).unwrap().records;
    let (ours, theirs) = (read(leader), read(follower));
    assert_eq!(ours.len(), 48);
    assert!(
        ours.iter().zip(&theirs).all(|(a, b)| std::ptr::eq(a, b)),
        "the follower adopted the leader's runs"
    );
    assert!(ours.iter().zip(one).all(|(a, b)| std::ptr::eq(a, b)));
}

#[test]
fn duplicate_topic_rejected() {
    let (c, _) = cluster(1);
    c.create_topic("t", TopicConfig::default()).unwrap();
    assert!(matches!(
        c.create_topic("t", TopicConfig::default()),
        Err(MessagingError::TopicExists(_))
    ));
}

#[test]
fn replication_factor_validated() {
    let (c, _) = cluster(2);
    assert!(c
        .create_topic("t", TopicConfig::default().replication(3))
        .is_err());
    assert!(c
        .create_topic("t2", TopicConfig::with_partitions(0))
        .is_err());
}

#[test]
fn unknown_topic_and_partition_errors() {
    let (c, _) = cluster(1);
    c.create_topic("t", TopicConfig::with_partitions(1))
        .unwrap();
    assert!(matches!(
        c.fetch_batch(&TopicPartition::new("nope", 0), 0, 1),
        Err(MessagingError::UnknownTopic(_))
    ));
    assert!(matches!(
        c.fetch_batch(&TopicPartition::new("t", 9), 0, 1),
        Err(MessagingError::UnknownPartition(_))
    ));
}

#[test]
fn partitions_are_assigned_across_brokers() {
    let (c, _) = cluster(3);
    c.create_topic("t", TopicConfig::with_partitions(3))
        .unwrap();
    let leaders: Vec<_> = (0..3)
        .map(|p| c.leader(&TopicPartition::new("t", p)).unwrap().unwrap())
        .collect();
    // Round-robin assignment: three distinct leaders.
    let mut unique = leaders.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), 3, "leaders {leaders:?} should be distinct");
}

#[test]
fn acks_all_replicates_synchronously() {
    let (c, _) = cluster(3);
    c.create_topic("t", TopicConfig::with_partitions(1).replication(3))
        .unwrap();
    let tp = TopicPartition::new("t", 0);
    c.produce_to(&tp, None, b("x"), AckLevel::All).unwrap();
    assert_eq!(c.latest_offset(&tp).unwrap(), 1);
    #[cfg(not(feature = "obs-off"))]
    assert_eq!(c.snapshot().counter("cluster.replicated_messages"), 2);
}

#[test]
fn acks_leader_needs_tick_before_visible() {
    let (c, _) = cluster(3);
    c.create_topic("t", TopicConfig::with_partitions(1).replication(3))
        .unwrap();
    let tp = TopicPartition::new("t", 0);
    c.produce_to(&tp, None, b("x"), AckLevel::Leader).unwrap();
    // Followers lag: HW has not advanced, consumers see nothing.
    assert_eq!(c.latest_offset(&tp).unwrap(), 0);
    assert!(c
        .fetch_batch(&tp, 0, u64::MAX)
        .unwrap()
        .into_messages()
        .is_empty());
    c.replicate_tick().unwrap();
    assert_eq!(c.latest_offset(&tp).unwrap(), 1);
    assert_eq!(
        c.fetch_batch(&tp, 0, u64::MAX)
            .unwrap()
            .into_messages()
            .len(),
        1
    );
}

#[test]
fn leader_failure_elects_isr_member() {
    let (c, _) = cluster(3);
    c.create_topic("t", TopicConfig::with_partitions(1).replication(3))
        .unwrap();
    let tp = TopicPartition::new("t", 0);
    for i in 0..10 {
        c.produce_to(&tp, None, b(&format!("m{i}")), AckLevel::All)
            .unwrap();
    }
    let old_leader = c.leader(&tp).unwrap().unwrap();
    c.kill_broker(old_leader).unwrap();
    let new_leader = c.leader(&tp).unwrap().unwrap();
    assert_ne!(new_leader, old_leader);
    // All 10 messages survive (they were fully replicated).
    let msgs = c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
    assert_eq!(msgs.len(), 10);
    #[cfg(not(feature = "obs-off"))]
    assert_eq!(c.snapshot().counter("cluster.elections"), 1);
}

#[test]
fn unreplicated_messages_lost_with_acks_leader() {
    let (c, _) = cluster(3);
    c.create_topic("t", TopicConfig::with_partitions(1).replication(3))
        .unwrap();
    let tp = TopicPartition::new("t", 0);
    // Fully replicate 5 messages.
    for i in 0..5 {
        c.produce_to(&tp, None, b(&format!("safe{i}")), AckLevel::All)
            .unwrap();
    }
    // 5 more with acks=Leader, never replicated.
    for i in 0..5 {
        c.produce_to(&tp, None, b(&format!("risky{i}")), AckLevel::Leader)
            .unwrap();
    }
    let leader = c.leader(&tp).unwrap().unwrap();
    assert_eq!(c.log_end_offset(&tp).unwrap(), 10);
    c.kill_broker(leader).unwrap();
    // The new leader only has the replicated prefix.
    assert_eq!(c.log_end_offset(&tp).unwrap(), 5);
    let msgs = c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
    assert_eq!(msgs.len(), 5);
    assert!(msgs.iter().all(|m| m.value.starts_with(b"safe")));
}

#[test]
fn tolerates_n_minus_1_failures() {
    let (c, _) = cluster(3);
    c.create_topic("t", TopicConfig::with_partitions(1).replication(3))
        .unwrap();
    let tp = TopicPartition::new("t", 0);
    c.produce_to(&tp, None, b("m"), AckLevel::All).unwrap();
    let l1 = c.leader(&tp).unwrap().unwrap();
    c.kill_broker(l1).unwrap();
    c.produce_to(&tp, None, b("m2"), AckLevel::All).unwrap();
    let l2 = c.leader(&tp).unwrap().unwrap();
    c.kill_broker(l2).unwrap();
    // One replica left: still serving.
    let msgs = c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
    assert_eq!(msgs.len(), 2);
    // Kill the last: unavailable.
    let l3 = c.leader(&tp).unwrap().unwrap();
    c.kill_broker(l3).unwrap();
    assert!(matches!(
        c.produce_to(&tp, None, b("m3"), AckLevel::All),
        Err(MessagingError::PartitionUnavailable(_))
    ));
    assert!(matches!(
        c.fetch_batch(&tp, 0, 1),
        Err(MessagingError::PartitionUnavailable(_))
    ));
}

#[test]
fn restarted_broker_truncates_divergence_and_rejoins() {
    let (c, _) = cluster(2);
    c.create_topic("t", TopicConfig::with_partitions(1).replication(2))
        .unwrap();
    let tp = TopicPartition::new("t", 0);
    for i in 0..4 {
        c.produce_to(&tp, None, b(&format!("a{i}")), AckLevel::All)
            .unwrap();
    }
    // Leader-only writes, then the leader dies: divergence.
    for i in 0..3 {
        c.produce_to(&tp, None, b(&format!("lost{i}")), AckLevel::Leader)
            .unwrap();
    }
    let old = c.leader(&tp).unwrap().unwrap();
    c.kill_broker(old).unwrap();
    assert_eq!(c.log_end_offset(&tp).unwrap(), 4);
    // New leader takes writes.
    for i in 0..2 {
        c.produce_to(&tp, None, b(&format!("new{i}")), AckLevel::All)
            .unwrap();
    }
    // Old leader comes back: must truncate its 3 divergent records.
    c.restart_broker(old).unwrap();
    c.replicate_tick().unwrap();
    assert!(c.isr(&tp).unwrap().contains(&old), "rejoined ISR");
    let msgs = c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
    assert_eq!(msgs.len(), 6);
    assert!(msgs.iter().all(|m| !m.value.starts_with(b"lost")));
}

#[test]
fn coord_tracks_broker_liveness() {
    let (c, _) = cluster(2);
    assert!(c.coord().exists("/liquid/brokers/0", None).unwrap());
    c.kill_broker(0).unwrap();
    assert!(!c.coord().exists("/liquid/brokers/0", None).unwrap());
    c.restart_broker(0).unwrap();
    assert!(c.coord().exists("/liquid/brokers/0", None).unwrap());
}

#[test]
fn coord_publishes_partition_state() {
    let (c, _) = cluster(2);
    c.create_topic("t", TopicConfig::with_partitions(1).replication(2))
        .unwrap();
    let (data, _) = c.coord().get_data("/liquid/topics/t/0").unwrap();
    assert_eq!(String::from_utf8(data).unwrap(), "0|0,1");
}

#[test]
fn idle_ticks_write_nothing_to_coord() {
    /// A partition's `leader|isr` as [`Cluster::leader`] and
    /// [`Cluster::isr`] report it, in the znode's format.
    fn leader_isr(c: &Cluster, tp: &TopicPartition) -> String {
        let leader = c
            .leader(tp)
            .unwrap()
            .map_or("-".to_string(), |l| l.to_string());
        let isr: Vec<String> = c.isr(tp).unwrap().iter().map(|b| b.to_string()).collect();
        format!("{leader}|{}", isr.join(","))
    }

    /// Each partition's znode data and `Stat.version`.
    fn znodes(c: &Cluster, tps: &[TopicPartition]) -> Vec<(String, u64)> {
        tps.iter()
            .map(|tp| {
                let path = format!("/liquid/topics/{}/{}", tp.topic, tp.partition);
                let (data, stat) = c.coord().get_data(&path).unwrap();
                (String::from_utf8(data).unwrap(), stat.version)
            })
            .collect()
    }

    let (c, _) = cluster(2);
    c.create_topic("t", TopicConfig::with_partitions(2).replication(2))
        .unwrap();
    let tps = [TopicPartition::new("t", 0), TopicPartition::new("t", 1)];
    for tp in &tps {
        c.produce_to(tp, None, b("x"), AckLevel::All).unwrap();
    }
    c.replicate_tick().unwrap();
    let writes = || c.snapshot().counter("cluster.partition_state_writes");
    let mut seen = znodes(&c, &tps);
    let mut written = writes();
    for _ in 0..100 {
        c.replicate_tick().unwrap();
    }
    assert_eq!(znodes(&c, &tps), seen, "an idle tick rewrote a znode");
    assert_eq!(writes(), written, "an idle tick wrote to coord");
    // Each change writes its partition's znode exactly once, with
    // what the cluster reports.
    let mut expect = |what: &str, bumped: [u64; 2], data: [&str; 2]| {
        let now = znodes(&c, &tps);
        for (p, tp) in tps.iter().enumerate() {
            assert_eq!(now[p].1, seen[p].1 + bumped[p], "{what}: writes to {tp}");
            assert_eq!(now[p].0, data[p], "{what}: znode of {tp}");
            assert_eq!(now[p].0, leader_isr(&c, tp), "{what}: znode of {tp}");
        }
        #[cfg(not(feature = "obs-off"))]
        assert_eq!(writes(), written + bumped.iter().sum::<u64>(), "{what}");
        (seen, written) = (now, writes());
    };
    c.kill_broker(0).unwrap();
    expect("leader change", [1, 0], ["1|0,1", "1|0,1"]);
    c.replicate_tick().unwrap();
    expect("ISR shrink", [1, 1], ["1|1", "1|1"]);
    c.restart_broker(0).unwrap();
    c.replicate_tick().unwrap();
    expect("ISR growth", [1, 1], ["1|0,1", "1|0,1"]);
}

#[test]
fn rewind_by_timestamp() {
    let (c, clock) = cluster(1);
    c.create_topic("t", TopicConfig::default()).unwrap();
    let tp = TopicPartition::new("t", 0);
    for i in 0..10 {
        clock.set(i * 1000);
        c.produce_to(&tp, None, b(&format!("m{i}")), AckLevel::Leader)
            .unwrap();
    }
    assert_eq!(c.offset_for_timestamp(&tp, 5_000).unwrap(), Some(5));
    assert_eq!(c.offset_for_timestamp(&tp, 0).unwrap(), Some(0));
}

#[cfg(not(feature = "obs-off"))]
#[test]
fn snapshot_tracks_in_and_out() {
    let (c, _) = cluster(1);
    c.create_topic("t", TopicConfig::default()).unwrap();
    let tp = TopicPartition::new("t", 0);
    c.produce_to(&tp, None, b("12345"), AckLevel::Leader)
        .unwrap();
    c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
    c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
    let s = c.snapshot();
    assert_eq!(s.counter("cluster.messages_in"), 1);
    assert_eq!(s.counter("cluster.bytes_in"), 5);
    assert_eq!(s.counter("cluster.messages_out"), 2);
    assert_eq!(s.counter("cluster.bytes_out"), 10);
}

#[cfg(not(feature = "obs-off"))]
#[test]
fn snapshot_exposes_partition_gauges() {
    let (c, _) = cluster(1);
    c.create_topic("t", TopicConfig::with_partitions(1))
        .unwrap();
    let tp = TopicPartition::new("t", 0);
    for i in 0..3 {
        c.produce_to(&tp, None, b(&format!("m{i}")), AckLevel::Leader)
            .unwrap();
    }
    let s = c.snapshot();
    assert_eq!(s.gauge("partition.high_watermark{tp=t-0}"), Some(3));
    assert_eq!(s.gauge("partition.log_end{tp=t-0}"), Some(3));
}

#[cfg(not(feature = "obs-off"))]
#[test]
fn produce_spans_propagate_to_fetch() {
    let (c, _) = cluster(1);
    c.create_topic("t", TopicConfig::with_partitions(1))
        .unwrap();
    let tp = TopicPartition::new("t", 0);
    c.produce_to(&tp, None, b("x"), AckLevel::Leader).unwrap();
    c.produce_to(&tp, None, b("y"), AckLevel::Leader).unwrap();
    let msgs = c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
    assert_eq!(msgs.len(), 2);
    assert_ne!(msgs[0].span, 0, "fetched message carries its span");
    assert_ne!(msgs[1].span, 0);
    assert_ne!(msgs[0].span, msgs[1].span, "one span per produce");
    // The tracer saw the produce and the fetch under the same span.
    let events = c.obs().tracer().tail(16);
    let kinds_for_first: Vec<&str> = events
        .iter()
        .filter(|e| e.span == msgs[0].span)
        .map(|e| e.kind)
        .collect();
    assert!(kinds_for_first.contains(&"produce"), "{kinds_for_first:?}");
    assert!(kinds_for_first.contains(&"fetch"), "{kinds_for_first:?}");
}

#[test]
fn cluster_config_builder_validates() {
    assert!(matches!(
        ClusterConfig::builder().brokers(0).build(),
        Err(MessagingError::ZeroBrokers)
    ));
    assert!(matches!(
        ClusterConfig::builder().brokers(2).replication(3).build(),
        Err(MessagingError::ReplicationOutOfRange {
            replication: 3,
            brokers: 2
        })
    ));
    let cfg = ClusterConfig::builder()
        .brokers(3)
        .replication(2)
        .build()
        .unwrap();
    assert_eq!(cfg.brokers, 3);
    assert_eq!(cfg.default_replication, 2);
}

#[test]
fn topic_config_builder_validates_against_cluster() {
    let (c, _) = cluster(2);
    assert!(matches!(
        c.create_topic("t", TopicConfig::with_partitions(0)),
        Err(MessagingError::ZeroPartitions)
    ));
    for replication in [0, 3] {
        assert!(matches!(
            c.create_topic(
                "t",
                TopicConfig::with_partitions(1).replication(replication)
            ),
            Err(MessagingError::ReplicationOutOfRange { brokers: 2, .. })
        ));
    }
    c.create_topic("t", TopicConfig::with_partitions(4).replication(2))
        .unwrap();
    assert_eq!(c.partition_count("t").unwrap(), 4);
    assert_eq!(c.isr(&TopicPartition::new("t", 3)).unwrap().len(), 2);
}

#[test]
fn fetch_beyond_log_end_is_error() {
    let (c, _) = cluster(1);
    c.create_topic("t", TopicConfig::default()).unwrap();
    let tp = TopicPartition::new("t", 0);
    c.produce_to(&tp, None, b("x"), AckLevel::Leader).unwrap();
    assert!(c.fetch_batch(&tp, 99, 1).is_err());
    assert!(c.fetch_batch(&tp, 1, 1).unwrap().into_messages().is_empty());
}

#[test]
fn compacted_topic_dedupes() {
    let (c, _) = cluster(1);
    c.create_topic(
        "changelog",
        TopicConfig::with_partitions(1)
            .retention(RetentionPolicy::compact())
            .segment_bytes(512),
    )
    .unwrap();
    let tp = TopicPartition::new("changelog", 0);
    for i in 0..200 {
        c.produce_to(
            &tp,
            Some(b(&format!("k{}", i % 5))),
            b(&format!("v{i}")),
            AckLevel::Leader,
        )
        .unwrap();
    }
    let stats = c.compact_topic("changelog").unwrap();
    assert!(stats.dedup_ratio() > 0.8, "ratio {}", stats.dedup_ratio());
    // All messages still fetchable from the earliest retained offset.
    let msgs = c
        .fetch_batch(&tp, c.earliest_offset(&tp).unwrap(), u64::MAX)
        .unwrap()
        .into_messages();
    // Last value per key survives.
    assert!(msgs.iter().any(|m| m.value == b("v199")));
}

#[test]
fn retention_applies_across_cluster() {
    let (c, clock) = cluster(1);
    c.create_topic(
        "short",
        TopicConfig::with_partitions(1)
            .retention(DROP_AFTER_1S)
            .segment_bytes(256),
    )
    .unwrap();
    let tp = TopicPartition::new("short", 0);
    for i in 0..50 {
        c.produce_to(&tp, None, b(&format!("old-{i:04}")), AckLevel::Leader)
            .unwrap();
    }
    clock.advance(10_000);
    c.produce_to(&tp, None, b("fresh"), AckLevel::Leader)
        .unwrap();
    let deleted = c.enforce_retention().unwrap();
    assert!(deleted > 0);
    assert!(c.earliest_offset(&tp).unwrap() > 0);
}

#[cfg(not(feature = "obs-off"))]
#[test]
fn sealed_segment_fetches_hit_the_shared_read_cache() {
    let (c, _) = cluster(1);
    c.create_topic("hot", TopicConfig::with_partitions(1).segment_bytes(256))
        .unwrap();
    let tp = TopicPartition::new("hot", 0);
    for i in 0..40 {
        c.produce_to(&tp, None, b(&format!("payload-{i:05}")), AckLevel::Leader)
            .unwrap();
    }
    let cold = c.fetch_batch(&tp, 0, u64::MAX).unwrap();
    let misses = c.snapshot().counter("log.cache.miss");
    assert!(misses > 0, "cold sweep fills the cache");
    let hot = c.fetch_batch(&tp, 0, u64::MAX).unwrap();
    let snap = c.snapshot();
    assert!(snap.counter("log.cache.hit") > 0, "warm sweep hits");
    assert_eq!(
        snap.counter("log.cache.miss"),
        misses,
        "warm sweep adds no misses"
    );
    // Byte equality between the cold and warm reads.
    assert_eq!(cold.len(), hot.len());
    for (a, b) in cold.records().iter().zip(hot.records().iter()) {
        assert_eq!((a.offset, &a.value), (b.offset, &b.value));
    }
}

/// Regression: a committed/consumer offset that falls inside a
/// segment retention has dropped must not error or over-count —
/// the fetch resumes at the next live segment's base and the
/// batch's `end_offset` heals the position across the gap.
#[test]
fn fetch_resumes_past_a_dropped_segment() {
    let (c, clock) = cluster(1);
    c.create_topic(
        "short",
        TopicConfig::with_partitions(1)
            .retention(DROP_AFTER_1S)
            .segment_bytes(256),
    )
    .unwrap();
    let tp = TopicPartition::new("short", 0);
    for i in 0..50 {
        c.produce_to(&tp, None, b(&format!("old-{i:04}")), AckLevel::Leader)
            .unwrap();
    }
    clock.advance(10_000);
    for i in 0..5 {
        c.produce_to(&tp, None, b(&format!("fresh-{i}")), AckLevel::Leader)
            .unwrap();
    }
    assert!(c.enforce_retention().unwrap() > 0);
    let earliest = c.earliest_offset(&tp).unwrap();
    assert!(earliest > 0, "retention retired the head segment");
    // Offset 0 now falls inside a retired segment: the fetch heals
    // to the first retained offset instead of erroring.
    let batch = c.fetch_batch(&tp, 0, u64::MAX).unwrap();
    assert_eq!(batch.base_offset(), Some(earliest));
    assert_eq!(batch.end_offset(), c.latest_offset(&tp).unwrap());
    // A consumer parked before the boundary heals the same way and
    // reports exact lag (never counting retired offsets).
    let consumer = crate::Consumer::new(&c, "c1");
    consumer
        .assign(tp.clone(), crate::consumer::StartPosition::Offset(0))
        .unwrap();
    #[cfg(not(feature = "obs-off"))]
    {
        let hw = c.latest_offset(&tp).unwrap();
        assert_eq!(consumer.lag(&tp), Some(hw - earliest));
    }
    let batches = consumer.poll_batches().unwrap();
    assert_eq!(batches.len(), 1);
    assert_eq!(batches[0].1.records().first().unwrap().offset, earliest);
    assert_eq!(
        consumer.position(&tp),
        Some(c.latest_offset(&tp).unwrap()),
        "position healed past the retired range"
    );
    #[cfg(not(feature = "obs-off"))]
    assert_eq!(consumer.lag(&tp), Some(0));
}

#[test]
fn lagging_follower_catches_up_without_touching_the_read_cache() {
    // Regression: catch-up used to go through `Log::read`, so a
    // follower a few segments behind filled the cluster's segment
    // cache with segments no consumer had asked for.
    let (c, _) = cluster(2);
    c.create_topic(
        "t",
        TopicConfig::with_partitions(1)
            .replication(2)
            .segment_bytes(256),
    )
    .unwrap();
    let tp = TopicPartition::new("t", 0);
    let leader = c.leader(&tp).unwrap().unwrap();
    let follower = 1 - leader;
    c.kill_broker(follower).unwrap();
    for i in 0..60 {
        let value = b(&format!("payload-{i:05}"));
        c.produce_to(&tp, Some(b("k")), value, AckLevel::Leader)
            .unwrap();
    }
    c.restart_broker(follower).unwrap();
    assert_eq!(c.replicate_tick().unwrap(), 60);
    let cache = c.inner.read_cache.as_ref().unwrap();
    assert_eq!(cache.cached_segments(), 0, "replication fills no cache");
    #[cfg(not(feature = "obs-off"))]
    {
        let snap = c.snapshot();
        assert_eq!(snap.counter("log.cache.miss"), 0);
        assert_eq!(snap.counter("cluster.replicated_messages"), 60);
        // One frame per leader append here: sealed segments are
        // shipped a storage window at a time, and in memory a
        // window ends with its frame.
        assert_eq!(snap.counter("cluster.replicated_frames"), 60);
    }
    let (shard, _) = c.resolve(&tp).unwrap();
    let ps = shard.part.lock();
    let (ours, theirs) = (replica(&ps.core, follower), replica(&ps.core, leader));
    assert_eq!(ours, theirs);
    assert!(
        cache.cached_segments() >= 3,
        "the leader was read over at least three sealed segments"
    );
}

#[cfg(not(feature = "obs-off"))]
#[test]
fn replicated_bytes_count_values_not_keys_or_framing() {
    let (c, _clock) = cluster(2);
    c.create_topic("t", TopicConfig::with_partitions(1).replication(2))
        .unwrap();
    let tp = TopicPartition::new("t", 0);
    let pairs = vec![
        (Some(b("a-long-key")), b("12345")),
        (Some(b("k")), b("")),
        (None, b("123")),
    ];
    c.produce_batch(&tp, RecordBatch::from_pairs(pairs, 0), AckLevel::All, None)
        .unwrap();
    let snap = c.snapshot();
    assert_eq!(snap.counter("cluster.replicated_bytes"), 8);
    assert_eq!(snap.counter("cluster.replicated_messages"), 3);
    assert_eq!(snap.counter("cluster.replicated_frames"), 1);
}

/// An election truncates every live replica that ends past the new
/// leader, and a truncation that fails reaches the caller instead of
/// leaving that replica with the longer suffix. On files, a replica
/// whose directory became a regular file cannot roll the segment its
/// truncation rebuilds.
#[test]
fn election_truncation_failure_reaches_the_caller() {
    let dir = std::env::temp_dir().join(format!(
        "liquid-cluster-truncate-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let injector = FailureInjector::new(7);
    let config = ClusterConfig::builder()
        .brokers(3)
        .injector(injector.clone())
        .build()
        .unwrap();
    let c = Cluster::new(config, SimClock::new(0).shared());
    let mut topic = TopicConfig::with_partitions(2).replication(3);
    topic.log.storage = liquid_log::StorageKind::Files(dir.clone());
    c.create_topic("t", topic).unwrap();
    // Partition 1 lives on [1, 2, 0]: broker 1 leads, broker 2 is next.
    let tp = TopicPartition::new("t", 1);
    c.produce_to(&tp, None, b("a"), AckLevel::All).unwrap();
    c.replicate_tick().unwrap();
    assert_eq!(
        c.isr(&tp).unwrap(),
        [0, 1, 2],
        "an acks=All batch syncs broker 0 first"
    );
    // The second follower fetch crashes: broker 0 holds the batch,
    // broker 2 does not, and the HW stays at 1.
    injector.fail_at(2);
    assert!(matches!(
        c.produce_to(&tp, None, b("b"), AckLevel::All),
        Err(MessagingError::Injected("replication.fetch"))
    ));
    let ends = BTreeMap::from([(0, 2), (1, 2), (2, 1)]);
    assert_eq!(c.replica_ends(&tp).unwrap(), ends);
    let replica_dir = dir.join("broker-0").join("t-1");
    std::fs::remove_dir_all(&replica_dir).unwrap();
    std::fs::write(&replica_dir, b"not a directory").unwrap();
    // Broker 1 dies: broker 2 (at the HW) leads, and broker 0 must drop
    // the record past broker 2's end.
    let killed = c.kill_broker(1);
    assert!(matches!(killed, Err(MessagingError::Log(_))), "{killed:?}");
    assert_eq!(c.leader(&tp).unwrap(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}
