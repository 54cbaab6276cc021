//! E10 — §5: the deployment profile, scaled down.
//!
//! LinkedIn's deployment: "ingests over 50 TB of input data and
//! produces over 250 TB of output data daily (including replication)
//! … over 25,000 topics and 200,000 partitions". The 1:5 in/out
//! amplification comes from replication (factor ~2-3) plus multi-group
//! fan-out. We reproduce the *shape* at MB scale: a census of topics and
//! partitions, ingest X MB, and measure total bytes leaving the ingest
//! path (replication traffic + consumer deliveries).

use crate::report::{check, fmt_bytes, table_header, table_row};
use liquid_messaging::consumer::StartPosition;
use liquid_messaging::{
    AssignmentStrategy, Cluster, ClusterConfig, Consumer, Producer, TopicConfig,
};
use liquid_sim::clock::SimClock;

const TOPICS: usize = 25;
const PARTITIONS_PER_TOPIC: u32 = 8;
const REPLICATION: u32 = 2;
const MESSAGES_PER_TOPIC: u64 = 2_000;
const PAYLOAD: usize = 512;
/// Back-end systems subscribed per topic (fan-out groups).
const GROUPS: usize = 4;

pub fn run() -> Result<(), String> {
    let clock = SimClock::new(0);
    let cluster = Cluster::new(ClusterConfig::with_brokers(4), clock.shared());
    let topic_names: Vec<String> = (0..TOPICS).map(|t| format!("topic-{t:03}")).collect();
    for topic in &topic_names {
        cluster
            .create_topic(
                topic,
                TopicConfig::with_partitions(PARTITIONS_PER_TOPIC).replication(REPLICATION),
            )
            .unwrap();
    }
    // The census as the cluster reports it, not as it was asked for.
    let census: Vec<u32> = topic_names
        .iter()
        .map(|t| cluster.partition_count(t).unwrap())
        .collect();
    println!("# E10: deployment profile (scaled 1:10^6 from the paper's §5)");
    println!();
    let total_partitions: u32 = census.iter().sum();
    table_header(&["metric", "paper (production)", "this run (scaled)"]);
    table_row(&["topics".into(), "25,000".into(), TOPICS.to_string()]);
    table_row(&[
        "partitions".into(),
        "200,000".into(),
        total_partitions.to_string(),
    ]);
    table_row(&[
        "partitions/topic".into(),
        "~8".into(),
        (total_partitions / TOPICS as u32).to_string(),
    ]);

    // Ingest.
    let payload = "x".repeat(PAYLOAD);
    for topic in &topic_names {
        let producer = Producer::new(&cluster, topic).unwrap();
        for i in 0..MESSAGES_PER_TOPIC {
            producer
                .send(None, bytes::Bytes::from(format!("{payload}{i}")))
                .unwrap();
        }
    }
    cluster.replicate_tick().unwrap();

    // Fan-out: GROUPS back-end systems consume every topic.
    let topic_refs: Vec<&str> = topic_names.iter().map(String::as_str).collect();
    for g in 0..GROUPS {
        let consumer = Consumer::in_group(&cluster, &format!("backend-{g}"), "m0");
        consumer
            .subscribe(
                &topic_refs,
                AssignmentStrategy::Range,
                StartPosition::Earliest,
            )
            .unwrap();
        loop {
            let polled: usize = consumer
                .poll_batches()
                .unwrap()
                .iter()
                .map(|(_, b)| b.len())
                .sum();
            if polled == 0 {
                break;
            }
        }
    }

    let snap = cluster.snapshot();
    let bytes_in = snap.counter("cluster.bytes_in");
    let bytes_out = snap.counter("cluster.bytes_out");
    let replicated_bytes = snap.counter("cluster.replicated_bytes");
    let out_total = bytes_out + replicated_bytes;
    println!();
    table_header(&["flow", "bytes", "vs ingest"]);
    table_row(&[
        "ingest (producers)".into(),
        fmt_bytes(bytes_in),
        "1.0x".into(),
    ]);
    table_row(&[
        "replication traffic".into(),
        fmt_bytes(replicated_bytes),
        format!("{:.1}x", replicated_bytes as f64 / bytes_in as f64),
    ]);
    table_row(&[
        "consumer deliveries".into(),
        fmt_bytes(bytes_out),
        format!("{:.1}x", bytes_out as f64 / bytes_in as f64),
    ]);
    table_row(&[
        "total out".into(),
        fmt_bytes(out_total),
        format!("{:.1}x", out_total as f64 / bytes_in as f64),
    ]);
    println!();
    println!(
        "paper claim: 50 TB in -> 250 TB out daily including replication, i.e.\n\
         ~5x amplification from replication (x{}) plus multi-consumer fan-out\n\
         (x{GROUPS} here); the shape reproduces at any scale.",
        REPLICATION - 1
    );
    let amplification = out_total as f64 / bytes_in.max(1) as f64;
    check(
        "out/in within 4.9-5.1x",
        (4.9..=5.1).contains(&amplification),
        format!("{amplification:.2}x"),
    )?;
    check(
        "8 partitions per topic",
        census.iter().all(|&n| n == 8),
        format!("partitions per topic {census:?}"),
    )
}
