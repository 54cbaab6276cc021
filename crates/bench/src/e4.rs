//! E4 — §4.1: log compaction. "Performing log compaction not only
//! reduces the changelog size, but it also allows for faster recovery."
//!
//! Writes 200,000 keyed state updates over key populations of different
//! sizes (fixed update volume, varying distinct keys), compacts the
//! changelog, and reports size reduction plus the number of records a
//! recovering task must replay before and after.

use crate::report::{check, fmt_bytes, table_header, table_row};
use bytes::Bytes;
use liquid_log::RetentionPolicy;
use liquid_messaging::{AckLevel, Cluster, ClusterConfig, TopicConfig, TopicPartition};
use liquid_sim::clock::SimClock;
use liquid_sim::rng::{seeded, Zipf};
use rand::Rng;

const UPDATES: u64 = 200_000;

fn compact(keys: usize) -> (u64, u64, u64, u64, f64) {
    let clock = SimClock::new(0);
    let cluster = Cluster::new(ClusterConfig::with_brokers(1), clock.shared());
    cluster
        .create_topic(
            "changelog",
            TopicConfig::with_partitions(1)
                .retention(RetentionPolicy::compact())
                .segment_bytes(256 * 1024),
        )
        .unwrap();
    let tp = TopicPartition::new("changelog", 0);
    let zipf = Zipf::new(keys, 1.0);
    let mut rng = seeded(7);
    for _ in 0..UPDATES {
        let k = zipf.sample(&mut rng);
        let v: u64 = rng.gen();
        cluster
            .produce_to(
                &tp,
                Some(Bytes::from(format!("key-{k:08}"))),
                Bytes::from(format!("state-value-{v:020}")),
                AckLevel::Leader,
            )
            .unwrap();
    }
    let bytes_before = cluster.topic_size_bytes("changelog").unwrap();
    let records_before = UPDATES;
    let stats = cluster.compact_topic("changelog").unwrap();
    let bytes_after = cluster.topic_size_bytes("changelog").unwrap();
    // Recovery replay = records remaining in the log.
    let records_after = cluster
        .fetch_batch(&tp, cluster.earliest_offset(&tp).unwrap(), u64::MAX)
        .unwrap()
        .len() as u64;
    (
        records_before,
        records_after,
        bytes_before,
        bytes_after,
        stats.dedup_ratio(),
    )
}

pub fn run() -> Result<(), String> {
    println!("# E4: log compaction vs key population ({UPDATES} zipf(1.0) updates)");
    table_header(&[
        "distinct keys",
        "replay before",
        "replay after",
        "size before",
        "size after",
        "sealed dedup",
    ]);
    let mut slow_recoveries = Vec::new();
    for keys in [100usize, 1_000, 10_000, 100_000] {
        let (rb, ra, bb, ba, ratio) = compact(keys);
        if 4 * ra >= rb {
            slow_recoveries.push((keys, ra));
        }
        table_row(&[
            keys.to_string(),
            rb.to_string(),
            ra.to_string(),
            fmt_bytes(bb),
            fmt_bytes(ba),
            format!("{:.1}%", ratio * 100.0),
        ]);
    }
    println!();
    println!(
        "paper claim: keyed changelogs shrink to ~one record per live key, so\n\
         both storage and state-recovery time drop — most sharply when updates\n\
         are skewed over few keys."
    );
    check(
        "replay after compaction < 1/4 of replay before, at every key count",
        slow_recoveries.is_empty(),
        format!("(keys, replay after) {slow_recoveries:?} of {UPDATES} before"),
    )
}
