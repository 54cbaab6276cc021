//! `nearline_pipeline` / `nearline_paced`: the paper's pipeline —
//! produce, replicate, a stateful job (per-user running count in
//! changelog-backed state), its derived feed, and a reader.
//!
//! `nearline_pipeline` is closed loop, one client, at capacity: the
//! only workload where `processing.job`, `processing.state`/`kv.store`
//! and changelog compaction do real work, so a messaging-only change
//! should move it less than it moves the other workloads.
//!
//! `nearline_paced` is open loop at 2 000 rec/s from the one driver
//! thread, far below capacity both today and after ROADMAP item 1: it
//! measures the per-round floor (an 8-partition `replicate_tick`, the
//! liveness snapshot, group heartbeats, gauge look-ups) at the median
//! and maintenance/checkpoint stalls in the tail — things a throughput
//! number hides. Each record is stamped with the time it was *due*, so
//! a stall counts against every record that waited behind it.

use std::time::Instant;

use bytes::Bytes;
use liquid_messaging::consumer::StartPosition;
use liquid_messaging::{AckLevel, Cluster, Consumer};
use liquid_processing::Job;
use liquid_sim::clock::SimClock;

use super::{Counts, Deltas, Feeder, Verdict, Workload, MAINTAIN_EVERY};
use crate::gen::{stamped, user_of, Events, STAMP_BYTES, USERS};
use crate::span::Recorder;
use crate::stats;
use crate::sut::{self, CHUNK, COUNTS_TOPIC, EVENTS_TOPIC, PARTITIONS};
use crate::window::Rounds;

/// Open-loop rate of `nearline_paced`, records per second.
pub const PACED_RATE: f64 = 2_000.0;
/// Paced maintenance cadence: about every 2 s, so a 10 s window holds
/// several retention and compaction passes.
const PACED_MAINTAIN_EVERY: u64 = 4_096;
/// A derived record observed later than this after its input was due
/// is late.
const LATENCY_LIMIT_NS: u64 = 10_000_000;
/// Pump rounds the final drain may take before records count as lost.
const DRAIN_ROUNDS: usize = 64;

/// Open-loop generator state.
struct Pacer {
    rate: f64,
    epoch: Instant,
    /// Records generated so far; record `i` is due at `i / rate`.
    generated: u64,
    /// When each derived record was observed, and how long after its
    /// input was due, ns.
    latencies: Vec<(Instant, u64)>,
    /// How late each record was handed to the producer, ns.
    generator_late: Vec<u64>,
    /// `(seconds since epoch, records due but not yet observed)`.
    backlog: Vec<(f64, u64)>,
}

pub struct Pipeline {
    clock: SimClock,
    cluster: Cluster,
    feeder: Feeder,
    job: Job,
    reader: Consumer,
    pacer: Option<Pacer>,
    /// Driver-side reference: records produced per user.
    expected: Vec<u64>,
    /// Last running count observed per user on the derived feed.
    observed: Vec<u64>,
    /// Derived records that were not the user's next count.
    out_of_sequence: u64,
    counts: Counts,
    errors: u64,
    drops: u64,
    lag_max: u64,
}

impl Pipeline {
    pub fn new(events: Events, paced_rate: Option<f64>) -> Pipeline {
        let clock = sut::sim_clock();
        let cluster = sut::cluster(&clock, 2, sut::STREAM_CACHE_BYTES);
        let (events_size, counts_size) = if paced_rate.is_some() {
            (sut::PACED_FEED, sut::PACED_FEED)
        } else {
            (sut::STREAM_FEED, sut::STREAM_DERIVED_FEED)
        };
        sut::create_stream_topic(&cluster, EVENTS_TOPIC, 2, events_size);
        sut::create_stream_topic(&cluster, COUNTS_TOPIC, 2, counts_size);
        let job = sut::counter_job(&cluster);
        let reader = sut::reader(&cluster, COUNTS_TOPIC, PARTITIONS, StartPosition::Latest);
        let feeder = Feeder::new(
            events,
            sut::producer(&cluster, EVENTS_TOPIC, AckLevel::Leader),
        );
        Pipeline {
            clock,
            cluster,
            feeder,
            job,
            reader,
            pacer: paced_rate.map(|rate| Pacer {
                rate,
                epoch: Instant::now(),
                generated: 0,
                latencies: Vec::with_capacity(1 << 16),
                generator_late: Vec::with_capacity(1 << 16),
                backlog: Vec::with_capacity(1 << 16),
            }),
            expected: vec![0; USERS + 1],
            observed: vec![0; USERS + 1],
            out_of_sequence: 0,
            counts: Counts::default(),
            errors: 0,
            drops: 0,
            lag_max: 0,
        }
    }

    /// Counts event `i` in the driver-side reference.
    fn note_produced(&mut self, i: usize) {
        self.expected[self.feeder.events.users[i] as usize] += 1;
    }

    /// Hands every record that is due to the producer, stamped with its
    /// due time. Returns how many were due.
    fn produce_due(&mut self, rec: &mut Recorder) -> u64 {
        let span = rec.begin("producer.buffer");
        let pacer = self.pacer.as_mut().expect("paced");
        let now = pacer.epoch.elapsed().as_nanos() as u64;
        let first = pacer.generated;
        loop {
            let due = (pacer.generated as f64 / pacer.rate * 1e9) as u64;
            if due > now {
                break;
            }
            pacer.generator_late.push(now - due);
            pacer.generated += 1;
            let i = self.feeder.next;
            let body = &self.feeder.events.values[i][STAMP_BYTES..];
            self.expected[self.feeder.events.users[i] as usize] += 1;
            self.feeder.buffer(i, Bytes::from(stamped(due, body)));
        }
        // The backlog peaks here: everything due has been handed over,
        // nothing of it has been pumped yet.
        pacer
            .backlog
            .push((now as f64 / 1e9, pacer.generated - self.counts.polled));
        let due = pacer.generated - first;
        rec.end(span);
        due
    }

    fn replicate(&mut self, rec: &mut Recorder) {
        let ok = super::replicate(&self.cluster, rec, &mut self.counts);
        self.errors += u64::from(!ok);
    }

    /// Replicate, run the job, replicate its output, read the derived
    /// feed. Returns derived records observed.
    fn pump(&mut self, rec: &mut Recorder) -> u64 {
        self.replicate(rec);
        let span = rec.begin("job.run");
        match self.job.run_once() {
            Ok(n) => self.counts.job_processed += n,
            Err(_) => self.errors += 1,
        }
        rec.end(span);
        self.replicate(rec);
        let span = rec.begin("consumer.poll");
        let polled = self.reader.poll_batches();
        rec.end(span);
        self.counts.polls += 1;
        let Ok(batches) = polled else {
            self.errors += 1;
            return 0;
        };
        if batches.is_empty() {
            self.counts.empty_polls += 1;
        }
        let now = self.pacer.as_ref().map(|_| Instant::now());
        let mut seen = 0;
        for (_, batch) in &batches {
            for r in batch.records() {
                let decoded = r
                    .key
                    .as_deref()
                    .and_then(user_of)
                    .zip(sut::decode_count(&r.value));
                let Some((user, (stamp, count))) = decoded else {
                    self.out_of_sequence += 1;
                    continue;
                };
                let last = &mut self.observed[user as usize];
                self.out_of_sequence += u64::from(count != *last + 1);
                *last = count;
                if let (Some(now), Some(pacer)) = (now, self.pacer.as_mut()) {
                    let since_epoch = now.duration_since(pacer.epoch).as_nanos() as u64;
                    pacer
                        .latencies
                        .push((now, since_epoch.saturating_sub(stamp)));
                }
            }
            seen += batch.len() as u64;
        }
        self.counts.polled += seen;
        seen
    }
}

impl Rounds for Pipeline {
    fn round(&mut self, rec: &mut Recorder) -> u64 {
        self.clock.advance(1);
        let produced = if self.pacer.is_some() {
            let due = self.produce_due(rec);
            let span = rec.begin("producer.flush");
            self.feeder.flush();
            rec.end(span);
            due
        } else {
            for i in 0..CHUNK {
                self.note_produced((self.feeder.next + i) % self.feeder.events.values.len());
            }
            self.feeder.chunk(rec);
            CHUNK as u64
        };
        self.pump(rec);
        produced
    }

    fn maintain(&mut self, rec: &mut Recorder) {
        self.drops += super::retention_pass(&self.cluster, rec);
        let span = rec.begin("cluster.compact");
        if self
            .cluster
            .compact_topic(&sut::counter_changelog())
            .is_err()
        {
            self.errors += 1;
        }
        rec.end(span);
        self.lag_max = self.lag_max.max(self.job.lag().unwrap_or(u64::MAX));
    }

    fn maintain_every(&self) -> u64 {
        if self.pacer.is_some() {
            PACED_MAINTAIN_EVERY
        } else {
            MAINTAIN_EVERY
        }
    }
}

/// Whether the backlog kept growing over the last half of the window:
/// its least-squares slope there is at least 2 % of the offered rate,
/// and its last quarter sits more than a chunk above its first. A run
/// like that measured a queue, not the system. (A slope alone would
/// trip on the saw-tooth that maintenance stalls draw.)
fn overloaded(backlog: &[(f64, u64)], rate: f64) -> bool {
    let (Some(first), Some(last)) = (backlog.first(), backlog.last()) else {
        return false;
    };
    let from = (first.0 + last.0) / 2.0;
    let half: Vec<(f64, f64)> = backlog
        .iter()
        .filter(|(t, _)| *t >= from)
        .map(|&(t, b)| (t, b as f64))
        .collect();
    let n = half.len() as f64;
    let (mean_t, mean_b) = (
        half.iter().map(|p| p.0).sum::<f64>() / n,
        half.iter().map(|p| p.1).sum::<f64>() / n,
    );
    let covariance: f64 = half.iter().map(|p| (p.0 - mean_t) * (p.1 - mean_b)).sum();
    let variance: f64 = half.iter().map(|p| (p.0 - mean_t).powi(2)).sum();
    let quarter = half.len() / 4;
    let level = |points: &[(f64, f64)]| {
        stats::median(&mut points.iter().map(|p| p.1).collect::<Vec<f64>>())
    };
    variance > 0.0
        && covariance / variance >= 0.02 * rate
        && level(&half[half.len() - quarter..]) > level(&half[..quarter]) + CHUNK as f64
}

impl Workload for Pipeline {
    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn counts(&self) -> Counts {
        let changelog = sut::counter_changelog();
        Counts {
            produced: self.feeder.produced,
            delivered: self.counts.polled,
            changelog_end: sut::partitions_of(&changelog, PARTITIONS)
                .iter()
                .map(|tp| self.cluster.latest_offset(tp).unwrap_or(0))
                .sum(),
            ..self.counts
        }
    }

    fn steady(&self) -> bool {
        self.drops > 0
    }

    fn open_loop(&self) -> bool {
        self.pacer.is_some()
    }

    fn reset_samples(&mut self) {
        if let Some(pacer) = self.pacer.as_mut() {
            pacer.latencies.clear();
            pacer.generator_late.clear();
            pacer.backlog.clear();
        }
    }

    fn latencies(&self) -> Option<&[(Instant, u64)]> {
        self.pacer.as_ref().map(|p| p.latencies.as_slice())
    }

    fn check_window(&self, _: &Counts, deltas: &Deltas, verdict: &mut Verdict) {
        if deltas.segment_drops == 0 {
            verdict.violation("no segment was dropped by maintenance in the window".into());
        }
    }

    fn finish(&mut self, verdict: &mut Verdict) {
        let mut rec = Recorder::off();
        for _ in 0..DRAIN_ROUNDS {
            if self.counts.polled == self.feeder.produced {
                break;
            }
            self.pump(&mut rec);
        }
        let wrong_users = self
            .expected
            .iter()
            .zip(&self.observed)
            .filter(|(e, o)| e != o)
            .count() as u64;
        verdict.attempted += self.feeder.produced;
        verdict.failed += self.feeder.errors
            + self.errors
            + self.out_of_sequence
            + self.counts.polled.abs_diff(self.feeder.produced);
        verdict.expect_eq(
            "records acked vs produced",
            self.feeder.acked,
            self.feeder.produced,
        );
        verdict.expect_eq(
            "derived records observed vs produced",
            self.counts.polled,
            self.feeder.produced,
        );
        verdict.expect_eq("derived counts out of sequence", self.out_of_sequence, 0);
        verdict.expect_eq(
            "users whose last count differs from the reference",
            wrong_users,
            0,
        );
    }

    fn layer_extras(&mut self, _: &Counts, out: &mut Vec<(&'static str, f64)>) {
        out.push(("processing.state.keys", self.job.total_state_keys() as f64));
        out.push(("processing.job.lag_max_recs", self.lag_max as f64));
        let Some(pacer) = self.pacer.as_mut() else {
            return;
        };
        pacer.generator_late.sort_unstable();
        let on_time = pacer
            .latencies
            .iter()
            .filter(|(_, ns)| *ns <= LATENCY_LIMIT_NS)
            .count();
        // Over records *due* in the window (one lateness sample each),
        // so a record that was never observed is late too.
        let due = pacer.generator_late.len().max(pacer.latencies.len());
        out.push((
            "bench.paced.on_time_share",
            on_time as f64 / due.max(1) as f64,
        ));
        out.push((
            "bench.paced.generator_late_p99_us",
            stats::percentile(&pacer.generator_late, 99.0) as f64 / 1e3,
        ));
        out.push((
            "bench.paced.backlog_max_recs",
            pacer.backlog.iter().map(|b| b.1).max().unwrap_or(0) as f64,
        ));
        out.push((
            "bench.paced.overloaded",
            u64::from(overloaded(&pacer.backlog, pacer.rate)) as f64,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::overloaded;

    #[test]
    fn overload_needs_a_backlog_that_keeps_growing() {
        let series = |f: &dyn Fn(u64) -> u64| {
            (0..1000)
                .map(|i| (i as f64 / 100.0, f(i)))
                .collect::<Vec<_>>()
        };
        // 100 samples a second; offered rate 2 000 rec/s.
        let overloaded = |backlog: &[(f64, u64)]| overloaded(backlog, 2_000.0);
        assert!(overloaded(&series(&|i| i))); // grows by 100 rec/s
                                              // Steady, saw-toothed, or growing but slowly: not overloaded.
        assert!(!overloaded(&series(&|_| 300)));
        assert!(!overloaded(&series(&|i| 300 + (i % 130) * 5)));
        assert!(!overloaded(&series(&|i| i / 10)));
        assert!(!overloaded(&[]));
    }
}
