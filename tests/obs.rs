//! Cross-layer observability integration: one registry and one tracer
//! span the whole stack (log segments, LSM state stores, the cluster,
//! and jobs), so a single snapshot shows a workload's footprint at
//! every layer and a span minted at produce is visible at fetch and at
//! task delivery.
#![cfg(not(feature = "obs-off"))]

use liquid::prelude::*;
use liquid_messaging::{Cluster, ClusterConfig, TopicConfig};
use liquid_obs::{Obs, Snapshot};

fn b(s: &str) -> Bytes {
    Bytes::from(s.to_string())
}

fn stack(obs: &Obs) -> Cluster {
    let config = ClusterConfig::builder()
        .brokers(3)
        .replication(2)
        .obs(obs.clone())
        .build()
        .expect("valid cluster config");
    let tc = TopicConfig::with_partitions(2).replication(2);
    let cluster = Cluster::new(config, SimClock::new(0).shared());
    cluster.create_topic("in", tc).unwrap();
    cluster
        .create_topic("out", TopicConfig::with_partitions(2))
        .unwrap();
    cluster
}

fn run_counting_job(cluster: &Cluster) -> Job {
    let mut job = Job::new(cluster, JobConfig::new("obs-e2e", &["in"]), |_| {
        Box::new(FnTask(|m: &Message, ctx: &mut TaskContext<'_>| {
            ctx.store().add_counter(b"seen", 1)?;
            ctx.send("out", m.key.clone(), m.value.clone())?;
            Ok(())
        }))
    })
    .unwrap();
    job.run_until_idle(10).unwrap();
    job.checkpoint().unwrap();
    job
}

/// A span minted at `produce_to` is the same id the consumer-side fetch
/// reports and the same id the task sees at delivery.
#[test]
fn span_propagates_from_produce_through_fetch_to_task() {
    let obs = Obs::default();
    let cluster = stack(&obs);
    let tp = TopicPartition::new("in", 0);
    for i in 0..4 {
        cluster
            .produce_to(&tp, Some(b("k")), b(&format!("v{i}")), AckLevel::All)
            .unwrap();
    }
    let _job = run_counting_job(&cluster);
    let events = obs.tracer().tail(1024);
    let spans_of = |kind: &str| -> Vec<u64> {
        events
            .iter()
            .filter(|e| e.kind == kind && e.site == "in-0")
            .map(|e| e.span)
            .collect()
    };
    let produced = spans_of("produce");
    assert_eq!(produced.len(), 4, "one produce event per record");
    assert!(produced.iter().all(|&s| s != 0), "spans are nonzero");
    assert_eq!(
        produced,
        spans_of("fetch"),
        "fetch reports the span minted at produce"
    );
    assert_eq!(
        produced,
        spans_of("task.deliver"),
        "the task sees the span minted at produce"
    );
}

/// Every layer's instruments land in the one registry the cluster was
/// built with: log appends, kv state-store writes, cluster produce
/// counters, and job round counters are all visible in one snapshot.
#[test]
fn one_snapshot_spans_all_layers() {
    let obs = Obs::default();
    let cluster = stack(&obs);
    let tp = TopicPartition::new("in", 0);
    for i in 0..10 {
        cluster
            .produce_to(&tp, Some(b(&format!("k{i}"))), b("v"), AckLevel::All)
            .unwrap();
    }
    let job = run_counting_job(&cluster);
    let snap = job.snapshot();
    assert!(snap.counter("log.append") > 0, "log layer instrumented");
    assert!(
        snap.counter("kv.wal-append") > 0,
        "state-store layer instrumented"
    );
    // 10 input records + 10 task outputs + the round's changelog: ten
    // writes of one key, coalesced into one record. The checkpoint adds
    // two `__offsets` records per input partition: the position and its
    // `version` annotation.
    assert_eq!(snap.counter("cluster.messages_in"), 25);
    assert!(snap.counter("job.rounds") > 0, "job layer instrumented");
    assert_eq!(snap.counter("job.messages"), 10);
    assert!(snap.counter("offsets.commit") > 0, "checkpoint committed");
    assert_eq!(
        snap.gauge("partition.high_watermark{tp=in-0}"),
        Some(10),
        "per-partition gauges carry labels"
    );
}

/// The snapshot of a real workload round-trips through its JSON form
/// without losing a counter, gauge, or histogram summary.
#[test]
fn workload_snapshot_round_trips_through_json() {
    let obs = Obs::default();
    let cluster = stack(&obs);
    let tp = TopicPartition::new("in", 1);
    for i in 0..25 {
        cluster
            .produce_to(
                &tp,
                Some(b("k")),
                b(&format!("value-{i}")),
                AckLevel::Leader,
            )
            .unwrap();
    }
    cluster.replicate_tick().unwrap();
    let snap = cluster.snapshot();
    assert!(!snap.counters.is_empty());
    assert!(!snap.histograms.is_empty(), "log.append.bytes recorded");
    let text = snap.to_json();
    let back = Snapshot::from_json(&text).expect("snapshot JSON parses");
    assert_eq!(snap, back, "JSON round-trip is lossless");
}

/// Spans are minted per *record*, not per batch: one group-committed
/// batch yields a distinct span id for every record it carries, and
/// `fetch_batch` reports exactly the spans minted at produce, in order,
/// both in the tracer and on the delivered [`MessageBatch`] itself.
#[test]
fn batch_produce_mints_distinct_spans_visible_at_batch_fetch() {
    use std::collections::BTreeSet;

    let obs = Obs::default();
    let cluster = stack(&obs);
    let tp = TopicPartition::new("in", 0);
    let mut builder = RecordBatch::builder();
    for i in 0..5 {
        builder.push(Some(b"k"), format!("v{i}").as_bytes(), 0);
    }
    cluster
        .produce_batch(&tp, builder.build(), AckLevel::All, None)
        .unwrap();
    let batch = cluster.fetch_batch(&tp, 0, u64::MAX).unwrap();
    assert_eq!(batch.len(), 5);
    let events = obs.tracer().tail(1024);
    let spans_of = |kind: &str| -> Vec<u64> {
        events
            .iter()
            .filter(|e| e.kind == kind && e.site == "in-0")
            .map(|e| e.span)
            .collect()
    };
    let produced = spans_of("produce");
    assert_eq!(
        produced.len(),
        5,
        "one produce event per record, not per batch"
    );
    let unique: BTreeSet<u64> = produced.iter().copied().collect();
    assert_eq!(
        unique.len(),
        5,
        "every record in a batch gets its own span id"
    );
    assert!(produced.iter().all(|&s| s != 0), "spans are nonzero");
    assert_eq!(
        produced,
        spans_of("fetch"),
        "fetch_batch reports the per-record spans minted at produce"
    );
    let delivered: Vec<u64> = (0..batch.len()).map(|i| batch.span_at(i)).collect();
    assert_eq!(
        delivered, produced,
        "the MessageBatch carries each record's produce span"
    );
}

/// A batch is traced as one run: producing n records appends exactly n
/// `produce` events with consecutive sequence numbers, spans `s..s+n`
/// and values (offsets) `base..base+n`; fetching them back appends n
/// `fetch` events, again consecutive, with the same spans and offsets.
#[test]
fn a_batch_traces_as_one_run_of_events() {
    let obs = Obs::default();
    let cluster = stack(&obs);
    let tp = TopicPartition::new("out", 1);
    cluster
        .produce_to(&tp, None, b("before"), AckLevel::Leader)
        .unwrap();
    let n = 7;
    let batch = RecordBatch::from_pairs((0..n).map(|i| (None, b(&format!("v{i}")))), 0);
    let base = cluster
        .produce_batch(&tp, batch, AckLevel::Leader, None)
        .unwrap();
    assert_eq!(base, 1);
    cluster.fetch_batch(&tp, base, u64::MAX).unwrap();
    let events = obs.tracer().tail(1024);
    let run = |kind: &str| -> Vec<(u64, u64, u64)> {
        events
            .iter()
            .filter(|e| e.kind == kind && e.site == "out-1" && e.value >= base)
            .map(|e| (e.seq, e.span, e.value))
            .collect()
    };
    let produced = run("produce");
    let (seq, span) = (produced[0].0, produced[0].1);
    assert_ne!(span, 0, "spans are minted");
    let expected: Vec<(u64, u64, u64)> = (0..n).map(|i| (seq + i, span + i, base + i)).collect();
    assert_eq!(produced, expected, "one run of n produce events");
    let fetched = run("fetch");
    let fetch_seq = fetched[0].0;
    assert!(fetch_seq >= seq + n, "fetch events follow the produce run");
    let expected: Vec<(u64, u64, u64)> = (0..n)
        .map(|i| (fetch_seq + i, span + i, base + i))
        .collect();
    assert_eq!(fetched, expected, "one run of n fetch events, same spans");
}

/// Regression: consumer position advances by *offset*, not by record
/// count. After compaction leaves holes in the offset space, a batch
/// poll must still drive both `Consumer::lag` and the batch-aware
/// `consumer.lag{tp=..}` gauge to exactly zero — the old per-record
/// accounting over-counted lag by the width of every hole.
#[test]
fn batch_poll_keeps_lag_exact_across_compaction_holes() {
    let obs = Obs::default();
    let cluster = stack(&obs);
    // Tiny segments so sealed segments exist for the compactor; three
    // keys overwritten repeatedly so it actually drops records.
    let tc = TopicConfig::with_partitions(1)
        .retention(RetentionPolicy::compact())
        .segment_bytes(64);
    cluster.create_topic("cmp", tc).unwrap();
    let tp = TopicPartition::new("cmp", 0);
    for i in 0..24 {
        cluster
            .produce_to(
                &tp,
                Some(b(&format!("k{}", i % 3))),
                b(&format!("v{i}")),
                AckLevel::All,
            )
            .unwrap();
    }
    let stats = cluster.compact_topic("cmp").unwrap();
    assert!(
        stats.records_after < stats.records_before,
        "compaction must drop superseded records to create offset holes: {stats:?}"
    );
    let consumer = Consumer::new(&cluster, "c-batch");
    consumer
        .assign(tp.clone(), StartPosition::Earliest)
        .unwrap();
    let mut records = 0usize;
    loop {
        let batches = consumer.poll_batches().unwrap();
        if batches.is_empty() {
            break;
        }
        for (_, batch) in &batches {
            records += batch.len();
        }
    }
    assert!(records < 24, "the poll crossed at least one hole");
    assert_eq!(
        consumer.lag(&tp),
        Some(0),
        "offset-granular advancement keeps lag exact across holes"
    );
    assert_eq!(
        obs.snapshot().gauge("consumer.lag{tp=cmp-0}"),
        Some(0),
        "the batch-aware lag gauge lands on zero too"
    );
}

/// `Consumer::lag` is derived from the registry's per-partition
/// high-watermark gauge and tracks the distance to it.
#[test]
fn consumer_lag_reads_registry_gauges() {
    let obs = Obs::default();
    let cluster = stack(&obs);
    let tp = TopicPartition::new("in", 0);
    for _ in 0..6 {
        cluster
            .produce_to(&tp, None, b("x"), AckLevel::All)
            .unwrap();
    }
    let consumer = Consumer::new(&cluster, "c0");
    consumer
        .assign(tp.clone(), StartPosition::Earliest)
        .unwrap();
    assert_eq!(consumer.lag(&tp), Some(6), "unread backlog");
    while !consumer.poll_batches().unwrap().is_empty() {}
    assert_eq!(consumer.lag(&tp), Some(0), "caught up");
}
