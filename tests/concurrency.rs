//! Thread-safety tests: the messaging layer is a shared service, so
//! concurrent producers, consumers and maintenance must interleave
//! safely (hundreds of clients per topic, §3.1).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use bytes::Bytes;
use liquid_messaging::consumer::StartPosition;
use liquid_messaging::{
    AssignmentStrategy, Cluster, ClusterConfig, Consumer, Producer, TopicConfig, TopicPartition,
};
use liquid_sim::clock::SimClock;

const PRODUCERS: usize = 8;
const PER_PRODUCER: usize = 2_000;

#[test]
fn concurrent_producers_interleave_without_loss() {
    let cluster = Cluster::new(ClusterConfig::with_brokers(2), SimClock::new(0).shared());
    cluster
        .create_topic("t", TopicConfig::with_partitions(4).replication(2))
        .unwrap();
    let cluster = Arc::new(cluster);
    let mut handles = Vec::new();
    for p in 0..PRODUCERS {
        let cluster = cluster.clone();
        handles.push(thread::spawn(move || {
            let producer = Producer::new(&cluster, "t").unwrap();
            for i in 0..PER_PRODUCER {
                producer
                    .send(None, Bytes::from(format!("p{p}-{i}")))
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // acks=Leader + RF=2: the high watermark advances with replication.
    cluster.replicate_tick().unwrap();
    // Every message present exactly once, offsets dense per partition.
    let mut seen = HashSet::new();
    let mut total = 0;
    for p in 0..4 {
        let tp = TopicPartition::new("t", p);
        let msgs = cluster
            .fetch_batch(&tp, 0, u64::MAX)
            .unwrap()
            .into_messages();
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(m.offset, i as u64, "offsets dense on {tp}");
            assert!(seen.insert(m.value.clone()), "duplicate {:?}", m.value);
        }
        total += msgs.len();
    }
    assert_eq!(total, PRODUCERS * PER_PRODUCER);
}

#[test]
fn producers_and_consumers_race_to_a_consistent_end() {
    let cluster = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
    cluster
        .create_topic("t", TopicConfig::with_partitions(2))
        .unwrap();
    let cluster = Arc::new(cluster);
    // Readers may only give up once the writer has finished: an idle
    // streak while it is descheduled says nothing about the end of the
    // stream, and a reader that quit early used to leave its partition
    // uncovered (the faster the read path, the likelier).
    let written = Arc::new(AtomicBool::new(false));
    let writer = {
        let cluster = cluster.clone();
        let written = written.clone();
        thread::spawn(move || {
            let producer = Producer::new(&cluster, "t").unwrap();
            for i in 0..5_000 {
                producer.send(None, Bytes::from(format!("m{i}"))).unwrap();
            }
            written.store(true, Ordering::SeqCst);
        })
    };
    // Two consumers in one group chase the head while it is written.
    // Rebalances mid-stream without committed offsets cause legitimate
    // reprocessing, so the contract is at-least-once: full coverage,
    // possibly with duplicates (§4.3).
    let readers: Vec<_> = (0..2)
        .map(|m| {
            let cluster = cluster.clone();
            let written = written.clone();
            thread::spawn(move || {
                let consumer = Consumer::in_group(&cluster, "race", &format!("m{m}"));
                consumer
                    .subscribe(&["t"], AssignmentStrategy::Range, StartPosition::Earliest)
                    .unwrap();
                let mut got: HashSet<(u32, u64)> = HashSet::new();
                let mut deliveries = 0usize;
                let mut idle = 0;
                while idle < 50 || !written.load(Ordering::SeqCst) {
                    let mut n = 0;
                    for (tp, batch) in consumer.poll_batches().unwrap() {
                        for msg in batch.records() {
                            got.insert((tp.partition, msg.offset));
                            n += 1;
                        }
                    }
                    deliveries += n;
                    idle = if n == 0 { idle + 1 } else { 0 };
                    std::thread::yield_now();
                }
                (got, deliveries)
            })
        })
        .collect();
    writer.join().unwrap();
    let mut coverage: HashSet<(u32, u64)> = HashSet::new();
    let mut deliveries = 0;
    for r in readers {
        let (got, n) = r.join().unwrap();
        coverage.extend(got);
        deliveries += n;
    }
    assert_eq!(
        coverage.len(),
        5_000,
        "every message delivered at least once"
    );
    assert!(deliveries >= 5_000);
}

#[test]
fn maintenance_runs_concurrently_with_traffic() {
    let clock = SimClock::new(0);
    let cluster = Cluster::new(ClusterConfig::with_brokers(1), clock.shared());
    cluster
        .create_topic(
            "t",
            TopicConfig::with_partitions(1)
                .retention(liquid_log::RetentionPolicy::compact())
                .segment_bytes(4_096),
        )
        .unwrap();
    let cluster = Arc::new(cluster);
    let writer = {
        let cluster = cluster.clone();
        thread::spawn(move || {
            let producer = Producer::new(&cluster, "t").unwrap();
            for i in 0..20_000 {
                producer
                    .send_keyed(format!("k{}", i % 20), format!("v{i}"))
                    .unwrap();
            }
        })
    };
    let maintainer = {
        let cluster = cluster.clone();
        thread::spawn(move || {
            let mut passes = 0;
            for _ in 0..20 {
                cluster.compact_topic("t").unwrap();
                cluster.enforce_retention().unwrap();
                cluster.replicate_tick().unwrap();
                passes += 1;
                std::thread::yield_now();
            }
            passes
        })
    };
    writer.join().unwrap();
    assert_eq!(maintainer.join().unwrap(), 20);
    // After a final pass, the latest value per key is intact.
    cluster.compact_topic("t").unwrap();
    let tp = TopicPartition::new("t", 0);
    let msgs = cluster
        .fetch_batch(&tp, cluster.earliest_offset(&tp).unwrap(), u64::MAX)
        .unwrap()
        .into_messages();
    let mut latest = std::collections::HashMap::new();
    for m in &msgs {
        latest.insert(m.key.clone().unwrap(), m.value.clone());
    }
    assert_eq!(latest.len(), 20, "all 20 keys retained through compaction");
    assert_eq!(
        latest[&Bytes::from_static(b"k19")],
        Bytes::from_static(b"v19999")
    );
}

#[test]
fn concurrent_group_membership_churn_is_safe() {
    let cluster = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
    cluster
        .create_topic("t", TopicConfig::with_partitions(8))
        .unwrap();
    let cluster = Arc::new(cluster);
    let handles: Vec<_> = (0..8)
        .map(|m| {
            let cluster = cluster.clone();
            thread::spawn(move || {
                for round in 0..20 {
                    cluster
                        .join_group("churn", &format!("m{m}"), &["t"], AssignmentStrategy::Range)
                        .unwrap();
                    if round % 3 == m % 3 {
                        cluster.leave_group("churn", &format!("m{m}")).ok();
                    }
                    std::thread::yield_now();
                }
                // Ensure membership at the end.
                cluster
                    .join_group("churn", &format!("m{m}"), &["t"], AssignmentStrategy::Range)
                    .unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Final assignment is a clean partition of the 8 partitions.
    let mut seen = HashSet::new();
    let mut total = 0;
    for m in 0..8 {
        let a = cluster.group_assignment("churn", &format!("m{m}")).unwrap();
        for tp in a.partitions {
            assert!(seen.insert(tp));
            total += 1;
        }
    }
    assert_eq!(total, 8);
}

#[test]
fn idempotent_producers_from_threads_never_duplicate() {
    let cluster = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
    cluster
        .create_topic("t", TopicConfig::with_partitions(1))
        .unwrap();
    let cluster = Arc::new(cluster);
    let handles: Vec<_> = (0..4)
        .map(|p| {
            let cluster = cluster.clone();
            thread::spawn(move || {
                let producer = Producer::new(&cluster, "t").unwrap().idempotent();
                for i in 0..500u64 {
                    producer
                        .send(None, Bytes::from(format!("p{p}-{i}")))
                        .unwrap();
                    // Simulate an ambiguous failure + retry every 50th.
                    if i % 50 == 0 {
                        producer
                            .send_with_sequence(None, Bytes::from(format!("p{p}-{i}")), i + 1)
                            .unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let tp = TopicPartition::new("t", 0);
    let msgs = cluster
        .fetch_batch(&tp, 0, u64::MAX)
        .unwrap()
        .into_messages();
    assert_eq!(msgs.len(), 4 * 500, "retries deduplicated");
    let unique: HashSet<_> = msgs.iter().map(|m| m.value.clone()).collect();
    assert_eq!(unique.len(), 4 * 500);
}
