//! The workloads, and what the harness needs from each of them.

mod firehose;
mod pipeline;
mod replay;
mod tail;

use liquid_messaging::{Cluster, Producer};
use liquid_obs::Snapshot;

use crate::gen::{checksum, Events, EVENTS};
use crate::span::Recorder;
use crate::sut::CHUNK;
use crate::window::Rounds;

/// Closed-loop maintenance cadence: `enforce_retention` (plus changelog
/// compaction in the pipeline) every this many records produced.
pub const MAINTAIN_EVERY: u64 = 32_768;

/// Monotone counters a workload keeps; the harness reads them at the
/// window edges and works with the differences.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Records handed to the producer.
    pub produced: u64,
    /// Records that reached the workload's final observer: acked
    /// (firehose), delivered to consumers (tail), fetched (replay),
    /// observed on the derived feed (pipeline).
    pub delivered: u64,
    pub replicate_ticks: u64,
    /// Records `replicate_tick` reported copying.
    pub replicated: u64,
    pub job_processed: u64,
    pub polls: u64,
    pub empty_polls: u64,
    /// Records returned by `poll_batches`.
    pub polled: u64,
    /// Records returned by direct `fetch_batch` calls.
    pub fetched: u64,
    /// Log end of the job's changelog, summed over its partitions.
    pub changelog_end: u64,
}

impl Counts {
    /// What was counted since `earlier` was read.
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            produced: self.produced - earlier.produced,
            delivered: self.delivered - earlier.delivered,
            replicate_ticks: self.replicate_ticks - earlier.replicate_ticks,
            replicated: self.replicated - earlier.replicated,
            job_processed: self.job_processed - earlier.job_processed,
            polls: self.polls - earlier.polls,
            empty_polls: self.empty_polls - earlier.empty_polls,
            polled: self.polled - earlier.polled,
            fetched: self.fetched - earlier.fetched,
            changelog_end: self.changelog_end - earlier.changelog_end,
        }
    }
}

/// One `replicate_tick` under a span. Returns whether it succeeded.
fn replicate(cluster: &Cluster, rec: &mut Recorder, counts: &mut Counts) -> bool {
    let span = rec.begin("cluster.replicate");
    let copied = cluster.replicate_tick();
    rec.end(span);
    counts.replicate_ticks += 1;
    counts.replicated += copied.as_ref().copied().unwrap_or(0);
    copied.is_ok()
}

/// One `enforce_retention` pass under a span. Returns segments dropped.
fn retention_pass(cluster: &Cluster, rec: &mut Recorder) -> u64 {
    let span = rec.begin("cluster.retention");
    let dropped = cluster.enforce_retention().unwrap_or(0) as u64;
    rec.end(span);
    dropped
}

/// Outcome of a workload's drain and output check.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Operations attempted: records produced, or fetched when replaying.
    pub attempted: u64,
    /// Operations that returned `Err`, were lost, duplicated or
    /// mismatched the reference.
    pub failed: u64,
    /// Oracle and vacuity violations, one line each.
    pub violations: Vec<String>,
}

impl Verdict {
    pub fn violation(&mut self, text: String) {
        self.violations.push(text);
    }

    /// Records a violation unless `left == right`.
    pub fn expect_eq(&mut self, what: &str, left: u64, right: u64) {
        if left != right {
            self.violation(format!("{what}: {left} != {right}"));
        }
    }
}

/// Differences of the cluster's own counters across a window.
#[derive(Debug, Default, Clone, Copy)]
pub struct Deltas {
    pub replicated_messages: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub segment_drops: u64,
}

impl Deltas {
    pub fn between(before: &Snapshot, after: &Snapshot) -> Deltas {
        let d = |key: &str| after.counter(key) - before.counter(key);
        Deltas {
            replicated_messages: d("cluster.replicated_messages"),
            cache_hits: d("log.cache.hit"),
            cache_misses: d("log.cache.miss"),
            cache_evictions: d("log.cache-evict"),
            segment_drops: d("log.segment-drop"),
        }
    }
}

pub trait Workload: Rounds {
    fn cluster(&self) -> &Cluster;

    fn counts(&self) -> Counts;

    /// Whether warm-up has reached the state the window should measure.
    fn steady(&self) -> bool {
        true
    }

    /// Whether records are sent on a wall-clock schedule, not as fast
    /// as the previous ones complete.
    fn open_loop(&self) -> bool {
        false
    }

    /// Forgets the samples taken so far; called as a window opens.
    fn reset_samples(&mut self) {}

    /// Per-record latency samples (when taken, ns) since the last
    /// reset, for a workload that times records itself; `None` means a
    /// round's duration is the latency of its chunk.
    fn latencies(&self) -> Option<&[(std::time::Instant, u64)]> {
        None
    }

    /// Checks that the measured window exercised what the workload
    /// claims to exercise.
    fn check_window(&self, counts: &Counts, deltas: &Deltas, verdict: &mut Verdict);

    /// Drains in-flight records and checks every output against the
    /// reference.
    fn finish(&mut self, verdict: &mut Verdict);

    /// Per-layer values only this workload can supply, by metric name.
    fn layer_extras(&mut self, _window: &Counts, _out: &mut Vec<(&'static str, f64)>) {}
}

/// Set-up of one workload: event generation, cluster, topics, job,
/// preload and fill sweep.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    let events = Events::generate(seed);
    Some(match name {
        "firehose_rf1" => Box::new(firehose::Firehose::new(events, false)),
        "firehose_rf2_all" => Box::new(firehose::Firehose::new(events, true)),
        "tail_fanout" => Box::new(tail::TailFanout::new(events)),
        "replay_hot" => Box::new(replay::Replay::new(events, true)),
        "replay_cold" => Box::new(replay::Replay::new(events, false)),
        "nearline_pipeline" => Box::new(pipeline::Pipeline::new(events, None)),
        "nearline_paced" => Box::new(pipeline::Pipeline::new(events, Some(pipeline::PACED_RATE))),
        _ => return None,
    })
}

/// Cycles the generated events through a batching producer.
pub struct Feeder {
    pub events: Events,
    producer: Producer,
    /// Index of the next event to produce.
    pub next: usize,
    pub produced: u64,
    /// Records the cluster acknowledged.
    pub acked: u64,
    /// `buffer`/`flush` calls that returned `Err`.
    pub errors: u64,
    /// Sum of [`checksum`] over every produced record.
    pub checksum: u64,
}

impl Feeder {
    pub fn new(events: Events, producer: Producer) -> Feeder {
        Feeder {
            events,
            producer,
            next: 0,
            produced: 0,
            acked: 0,
            errors: 0,
            checksum: 0,
        }
    }

    /// Buffers one event as it was generated.
    pub fn buffer_next(&mut self) {
        let i = self.next;
        let value = self.events.values[i].clone();
        self.buffer(i, value);
    }

    /// Buffers event `i`'s key with `value` and advances the cursor.
    pub fn buffer(&mut self, i: usize, value: bytes::Bytes) {
        let key = self.events.keys[i].clone();
        self.checksum = self.checksum.wrapping_add(checksum(Some(&key), &value));
        match self.producer.buffer(Some(key), value) {
            // A partition's batch filled up and was committed.
            Ok(Some(_)) => self.acked += CHUNK as u64,
            Ok(None) => {}
            Err(_) => self.errors += 1,
        }
        self.next = (i + 1) % EVENTS;
        self.produced += 1;
    }

    pub fn flush(&mut self) {
        match self.producer.flush() {
            Ok(batches) => self.acked += batches.iter().map(|&(_, _, n)| n).sum::<u64>(),
            Err(_) => self.errors += 1,
        }
    }

    /// Buffers [`CHUNK`] events and flushes them, one span each.
    pub fn chunk(&mut self, rec: &mut Recorder) {
        let span = rec.begin("producer.buffer");
        for _ in 0..CHUNK {
            self.buffer_next();
        }
        rec.end(span);
        let span = rec.begin("producer.flush");
        self.flush();
        rec.end(span);
    }
}
