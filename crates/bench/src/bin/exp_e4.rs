//! E4 — §4.1: log compaction. "Performing log compaction not only
//! reduces the changelog size, but it also allows for faster recovery."
//!
//! Writes 200,000 keyed state updates over key populations of different
//! sizes (fixed update volume, varying distinct keys), compacts the
//! changelog, and reports size reduction plus the number of records a
//! recovering task must replay before and after.

use bytes::Bytes;
use liquid_bench::report::{fmt_bytes, table_header, table_row};
use liquid_log::RetentionPolicy;
use liquid_messaging::{AckLevel, Cluster, ClusterConfig, TopicConfig, TopicPartition};
use liquid_sim::clock::SimClock;
use liquid_sim::rng::{seeded, Zipf};
use rand::Rng;

const UPDATES: u64 = 200_000;

fn run(keys: usize, obs: &liquid_obs::Obs) -> (u64, u64, u64, u64, f64) {
    let clock = SimClock::new(0);
    let config = ClusterConfig::builder()
        .brokers(1)
        .obs(obs.clone())
        .build()
        .expect("valid cluster config");
    let cluster = Cluster::new(config, clock.shared());
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

fn main() {
    println!("# E4: log compaction vs key population ({UPDATES} zipf(1.0) updates)");
    table_header(&[
        "distinct keys",
        "replay before",
        "replay after",
        "size before",
        "size after",
        "sealed dedup",
    ]);
    let obs = liquid_obs::Obs::default();
    for keys in [100usize, 1_000, 10_000, 100_000] {
        let (rb, ra, bb, ba, ratio) = run(keys, &obs);
        let keys_label = keys.to_string();
        let labels = [("keys", keys_label.as_str())];
        let reg = obs.registry();
        reg.gauge_with("bench.replay_before", &labels).set(rb);
        reg.gauge_with("bench.replay_after", &labels).set(ra);
        reg.gauge_with("bench.bytes_before", &labels).set(bb);
        reg.gauge_with("bench.bytes_after", &labels).set(ba);
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
    liquid_bench::report::write_bench("e4", &obs.snapshot());
}
