//! E6 — §4.3: the durability/throughput trade-off and N−1 fault
//! tolerance.
//!
//! A 3-broker cluster with replication factor 3. For each ack level we
//! measure producer throughput, then crash the leader and count how
//! many acknowledged messages survive. `acks=All` pays replication on
//! the produce path but loses nothing; `acks=Leader`/`None` are faster
//! and lose the unreplicated suffix. Losses and availability are
//! gated; the throughput column is wall clock: reported, not gated.

use std::time::Instant;

use crate::report::{check, table_header, table_row};
use bytes::Bytes;
use liquid_messaging::{AckLevel, Cluster, ClusterConfig, Producer, TopicConfig, TopicPartition};
use liquid_sim::clock::SimClock;

const MESSAGES: u64 = 30_000;

/// Produces [`MESSAGES`] at `acks`, crashes the leader mid-replication
/// interval and returns (produce Kmsg/s, acked, survived the crash).
fn crash_leader(acks: AckLevel) -> (f64, u64, u64) {
    let clock = SimClock::new(0);
    let config = ClusterConfig::builder()
        .brokers(3)
        .replication(3)
        .build()
        .expect("valid cluster config");
    let cluster = Cluster::new(config, clock.shared());
    cluster
        .create_topic("t", TopicConfig::with_partitions(1).replication(3))
        .unwrap();
    let tp = TopicPartition::new("t", 0);
    let producer = Producer::new(&cluster, "t").unwrap().with_acks(acks);
    let t = Instant::now();
    let mut acked = 0u64;
    for i in 0..MESSAGES {
        if producer.send(None, Bytes::from(format!("m{i:08}"))).is_ok() {
            acked += 1;
        }
        // Followers replicate continuously in the background; model it
        // as a replication round every 1,024 messages (the crash below
        // lands mid-interval, as real crashes do).
        if i % 1_024 == 1_023 {
            cluster.replicate_tick().unwrap();
        }
    }
    let secs = t.elapsed().as_secs_f64();
    // Crash the leader before the next replication round.
    let leader = cluster.leader(&tp).unwrap().unwrap();
    cluster.kill_broker(leader).unwrap();
    let survived = cluster
        .fetch_batch(&tp, 0, u64::MAX)
        .unwrap()
        .into_messages()
        .len() as u64;
    (MESSAGES as f64 / secs / 1_000.0, acked, survived)
}

/// Availability under cascading failures: with 3 ISR members the
/// partition serves through 2 failures and only dies at the third.
/// Returns the messages readable after 0..=3 failures (`None`: the
/// partition has no leader).
fn n_minus_one() -> Vec<Option<usize>> {
    let clock = SimClock::new(0);
    let cluster = Cluster::new(ClusterConfig::with_brokers(3), clock.shared());
    cluster
        .create_topic("t", TopicConfig::with_partitions(1).replication(3))
        .unwrap();
    let tp = TopicPartition::new("t", 0);
    for i in 0..1_000 {
        cluster
            .produce_to(&tp, None, Bytes::from(format!("m{i}")), AckLevel::All)
            .unwrap();
    }
    println!("\navailability under cascading broker failures (RF=3, acks=All):");
    table_header(&["failures", "partition available", "messages readable"]);
    let mut readable = Vec::new();
    for failures in 0..=3u32 {
        if failures > 0 {
            if let Ok(Some(leader)) = cluster.leader(&tp) {
                cluster.kill_broker(leader).unwrap();
            }
        }
        let available = matches!(cluster.leader(&tp), Ok(Some(_)));
        let read = cluster.fetch_batch(&tp, 0, u64::MAX).ok().map(|b| b.len());
        table_row(&[
            failures.to_string(),
            if available { "yes" } else { "NO" }.to_string(),
            read.map_or_else(|| "-".to_string(), |n| n.to_string()),
        ]);
        readable.push(read.filter(|_| available));
    }
    readable
}

pub fn run() -> Result<(), String> {
    println!("# E6: durability vs throughput per ack level ({MESSAGES} msgs, RF=3)");
    table_header(&[
        "acks",
        "produce Kmsg/s",
        "acked",
        "survive leader crash",
        "lost",
        "loss rate",
    ]);
    let mut losses = Vec::new();
    for (acks, label) in [
        (AckLevel::None, "none (fire+forget)"),
        (AckLevel::Leader, "leader"),
        (AckLevel::All, "all (ISR)"),
    ] {
        let (kmsg_s, acked, survived) = crash_leader(acks);
        let lost = acked.saturating_sub(survived);
        table_row(&[
            label.to_string(),
            format!("{kmsg_s:.0}"),
            acked.to_string(),
            survived.to_string(),
            lost.to_string(),
            format!("{:.2}%", lost as f64 / acked.max(1) as f64 * 100.0),
        ]);
        losses.push(lost);
    }
    let readable = n_minus_one();
    println!();
    println!(
        "paper claim: maximum durability waits for all ISR acknowledgments and\n\
         costs throughput; minimum durability acks immediately and loses the\n\
         unreplicated suffix on leader failure. N ISRs tolerate N-1 failures."
    );
    let (none, leader, all) = (losses[0], losses[1], losses[2]);
    check(
        "acks=all loses 0 on a leader crash",
        all == 0,
        format!("lost {all}"),
    )?;
    check(
        "acks<=leader loses > 0 on a leader crash",
        none > 0 && leader > 0,
        format!("lost {none} (none), {leader} (leader)"),
    )?;
    check(
        "readable through 2 failures, unavailable at 3",
        readable == [Some(1_000), Some(1_000), Some(1_000), None],
        format!("readable after 0..=3 failures: {readable:?}"),
    )
}
