//! The system under test: every `ClusterConfig`, `TopicConfig`,
//! `Segment`, `Log` and `Job` the benchmark builds is built here, with
//! every fixed parameter of the load shape.
//!
//! Later PRs may not edit the benchmark, so it calls only the surface
//! ROADMAP items 1 and 3 keep: `Producer::buffer/flush`,
//! `Cluster::{produce_batch, fetch_batch, replicate_tick,
//! enforce_retention, compact_topic, snapshot, topic_size_bytes,
//! earliest_offset, latest_offset}`, `Consumer::{subscribe, assign,
//! poll_batches, commit}`, `Job::run_once`, `Log::{append_record_batch,
//! read}`, `RetentionPolicy` — never the deprecated `Cluster::fetch` /
//! `Consumer::poll`, the `retention_ms` / `retention_bytes` /
//! `compacted` knobs, or the single-record `Log::append*`.

use std::sync::Arc;

use bytes::Bytes;
use liquid_log::{
    segment::Segment, Log, LogConfig, MemStorage, ReadCacheConfig, RetentionPolicy,
    SegmentReadCache,
};
use liquid_messaging::consumer::StartPosition;
use liquid_messaging::{
    AckLevel, AssignmentStrategy, BatchConfig, Cluster, ClusterConfig, Consumer, Message, Producer,
    TopicConfig, TopicPartition,
};
use liquid_processing::{FnTask, Job, JobConfig, JobStart, TaskContext};
use liquid_sim::clock::{SharedClock, SimClock};

use crate::gen::stamp_of;

/// Records the driver buffers before each flush, and the producer's
/// per-partition batch limit.
pub const CHUNK: usize = 256;
/// Partitions of every streaming feed.
pub const PARTITIONS: u32 = 8;
/// Shards of the cluster's sealed-segment read cache.
const CACHE_SHARDS: usize = 8;
/// Segment cache of the streaming clusters.
pub const STREAM_CACHE_BYTES: u64 = 4 << 20;

pub const EVENTS_TOPIC: &str = "events";
pub const COUNTS_TOPIC: &str = "counts";
pub const HISTORY_TOPIC: &str = "history";
const JOB_NAME: &str = "counter";

/// Segment roll size and per-partition retention of a streaming feed.
/// Retention is four segments, so once a partition has filled up every
/// fourth of a segment's worth of appends retires a whole segment.
#[derive(Clone, Copy)]
pub struct FeedSize {
    pub segment_bytes: u64,
    pub retention_bytes: u64,
}

/// Closed-loop feeds: sized so that a 10 s window at seed speed
/// (~13-26 K rec/s on the slower workloads) retires segments.
pub const STREAM_FEED: FeedSize = FeedSize {
    segment_bytes: 256 << 10,
    retention_bytes: 1 << 20,
};
/// The pipeline's derived feed: its 54 B records are a third of the
/// input's, so a third of the segment size makes both feeds roll every
/// ~1 600 records a partition. With input-sized segments a derived
/// segment seals (and enters the cache, pinning ~64 KiB a record at
/// seed) only every few seconds, and the process's peak memory depends
/// on how far the run happened to get.
pub const STREAM_DERIVED_FEED: FeedSize = FeedSize {
    segment_bytes: 80 << 10,
    retention_bytes: 320 << 10,
};
/// The 2 000 rec/s feed, scaled to its rate for the same reason.
pub const PACED_FEED: FeedSize = FeedSize {
    segment_bytes: 32 << 10,
    retention_bytes: 128 << 10,
};

/// Partitions, segment size and fetch size of the replayed history.
pub const HISTORY_PARTITIONS: u32 = 4;
pub const HISTORY_SEGMENT_BYTES: u64 = 64 << 10;
pub const HISTORY_FETCH_BYTES: u64 = 64 << 10;

pub fn sim_clock() -> SimClock {
    SimClock::new(0)
}

pub fn cluster(clock: &SimClock, brokers: u32, cache_bytes: u64) -> Cluster {
    let config = ClusterConfig::builder()
        .brokers(brokers)
        .segment_cache_bytes(cache_bytes)
        .segment_cache_shards(CACHE_SHARDS)
        .build()
        .expect("valid cluster config");
    Cluster::new(config, clock.shared())
}

pub fn create_stream_topic(cluster: &Cluster, name: &str, replication: u32, size: FeedSize) {
    let config = TopicConfig::with_partitions(PARTITIONS)
        .replication(replication)
        .retention(RetentionPolicy::DropByBytes {
            max_bytes: size.retention_bytes,
        })
        .segment_bytes(size.segment_bytes);
    cluster.create_topic(name, config).expect("fresh topic");
}

pub fn create_history_topic(cluster: &Cluster) {
    let config =
        TopicConfig::with_partitions(HISTORY_PARTITIONS).segment_bytes(HISTORY_SEGMENT_BYTES);
    cluster
        .create_topic(HISTORY_TOPIC, config)
        .expect("fresh topic");
}

fn batching() -> BatchConfig {
    BatchConfig {
        max_records: CHUNK,
        max_bytes: usize::MAX,
        linger_ms: 0,
    }
}

/// Key-hash producer with the benchmark's batch shape.
pub fn producer(cluster: &Cluster, topic: &str, acks: AckLevel) -> Producer {
    Producer::new(cluster, topic)
        .expect("topic exists")
        .with_acks(acks)
        .with_batching(batching())
}

/// Producer pinned to one partition, so the harness knows which event
/// sits at which offset of the replayed history.
pub fn pinned_producer(cluster: &Cluster, topic: &str, partition: u32) -> Producer {
    producer(cluster, topic, AckLevel::Leader)
        .with_partitioner(liquid_messaging::Partitioner::Manual(partition))
}

pub fn partitions_of(topic: &str, partitions: u32) -> Vec<TopicPartition> {
    (0..partitions)
        .map(|p| TopicPartition::new(topic, p))
        .collect()
}

/// Member `member` of consumer group `group`, tailing `topic`.
pub fn group_member(cluster: &Cluster, topic: &str, group: &str, member: usize) -> Consumer {
    let consumer = Consumer::in_group(cluster, group, &format!("{group}-m{member}"));
    consumer
        .subscribe(&[topic], AssignmentStrategy::Range, StartPosition::Latest)
        .expect("subscribe");
    consumer
}

/// Standalone reader of every partition of `topic` from `start`.
pub fn reader(cluster: &Cluster, topic: &str, partitions: u32, start: StartPosition) -> Consumer {
    let consumer = Consumer::new(cluster, &format!("{topic}-reader"));
    for tp in partitions_of(topic, partitions) {
        consumer.assign(tp, start).expect("assign");
    }
    consumer
}

/// Standalone reader of the history with the replay fetch size.
pub fn history_reader(cluster: &Cluster) -> Consumer {
    let consumer =
        Consumer::new(cluster, "history-reader").with_max_poll_bytes(HISTORY_FETCH_BYTES);
    for tp in partitions_of(HISTORY_TOPIC, HISTORY_PARTITIONS) {
        consumer
            .assign(tp, StartPosition::Earliest)
            .expect("assign");
    }
    consumer
}

/// Derived record of the counting job: the input's stamp, then the
/// user's running count.
pub fn encode_count(stamp: u64, count: u64) -> Bytes {
    let mut v = Vec::with_capacity(16);
    v.extend_from_slice(&stamp.to_le_bytes());
    v.extend_from_slice(&count.to_le_bytes());
    Bytes::from(v)
}

pub fn decode_count(value: &[u8]) -> Option<(u64, u64)> {
    Some((stamp_of(value)?, stamp_of(value.get(8..)?)?))
}

/// The stateful job of the pipeline workloads: a per-user running count
/// in changelog-backed state, emitted to [`COUNTS_TOPIC`] with the
/// input's stamp carried through.
pub fn counter_job(cluster: &Cluster) -> Job {
    let config = JobConfig::new(JOB_NAME, &[EVENTS_TOPIC])
        .checkpoint_every(10_000)
        .start_from(JobStart::Latest);
    Job::new(cluster, config, |_| {
        Box::new(FnTask(|m: &Message, ctx: &mut TaskContext<'_>| {
            let (Some(key), Some(stamp)) = (m.key.clone(), stamp_of(&m.value)) else {
                return Ok(()); // not one of ours: the oracle will miss it
            };
            let count = ctx.store().add_counter(&key, 1)?;
            ctx.send(COUNTS_TOPIC, Some(key), encode_count(stamp, count))?;
            Ok(())
        }))
    })
    .expect("job starts")
}

pub fn counter_changelog() -> String {
    JobConfig::new(JOB_NAME, &[EVENTS_TOPIC]).changelog_topic()
}

/// Stateless no-op job over the history (ladder rung: task delivery).
pub fn noop_job(cluster: &Cluster) -> Job {
    let mut config = JobConfig::new("noop", &[HISTORY_TOPIC])
        .stateless()
        .checkpoint_every(0)
        .start_from(JobStart::Earliest);
    config.fetch_bytes = HISTORY_FETCH_BYTES;
    Job::new(cluster, config, |_| {
        Box::new(FnTask(|m: &Message, _: &mut TaskContext<'_>| {
            std::hint::black_box(m.offset);
            Ok(())
        }))
    })
    .expect("job starts")
}

/// Compacted single-partition feed backing a ladder state store.
pub fn create_changelog_topic(cluster: &Cluster, name: &str) {
    let config = TopicConfig::with_partitions(1)
        .retention(RetentionPolicy::Compact {
            max_age_ms: None,
            max_bytes: None,
        })
        .segment_bytes(HISTORY_SEGMENT_BYTES);
    cluster.create_topic(name, config).expect("fresh topic");
}

/// An empty in-memory segment (ladder rungs below the log).
pub fn mem_segment(base_offset: u64) -> Segment {
    Segment::new(
        base_offset,
        Box::new(MemStorage::new()),
        LogConfig::default().index_interval_bytes,
    )
}

/// An in-memory log with history-sized segments.
pub fn mem_log(clock: SharedClock) -> Log {
    let config = LogConfig {
        segment_bytes: HISTORY_SEGMENT_BYTES,
        ..LogConfig::default()
    };
    Log::open(config, clock).expect("memory log")
}

/// A read cache large enough to hold a whole ladder log.
pub fn roomy_read_cache() -> Arc<SegmentReadCache> {
    SegmentReadCache::new(ReadCacheConfig {
        capacity_bytes: 1 << 30,
        shards: CACHE_SHARDS,
        ..ReadCacheConfig::default()
    })
}
