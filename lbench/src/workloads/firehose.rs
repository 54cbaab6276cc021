//! `firehose_rf1` / `firehose_rf2_all`: the write path alone, then the
//! write path plus synchronous replication. Closed loop, one client.
//!
//! `rf1` touches no read code, so ROADMAP item 3's one-write-path work
//! shows here and item 1's read fix must not; `rf2_all` adds the
//! follower fetch — the same read layer, used from the write side.
//! Supersedes E12's single-shot 80 k-message timings.

use liquid_messaging::{AckLevel, Cluster};
use liquid_sim::clock::SimClock;

use super::{Counts, Deltas, Feeder, Verdict, Workload, MAINTAIN_EVERY};
use crate::gen::Events;
use crate::span::Recorder;
use crate::sut::{self, CHUNK, EVENTS_TOPIC, PARTITIONS};
use crate::window::Rounds;

pub struct Firehose {
    clock: SimClock,
    cluster: Cluster,
    feeder: Feeder,
    replicated: bool,
    drops: u64,
}

impl Firehose {
    pub fn new(events: Events, replicated: bool) -> Firehose {
        let clock = sut::sim_clock();
        let (brokers, acks) = if replicated {
            (2, AckLevel::All)
        } else {
            (1, AckLevel::Leader)
        };
        let cluster = sut::cluster(&clock, brokers, sut::STREAM_CACHE_BYTES);
        sut::create_stream_topic(&cluster, EVENTS_TOPIC, brokers, sut::STREAM_FEED);
        let feeder = Feeder::new(events, sut::producer(&cluster, EVENTS_TOPIC, acks));
        Firehose {
            clock,
            cluster,
            feeder,
            replicated,
            drops: 0,
        }
    }
}

impl Rounds for Firehose {
    fn round(&mut self, rec: &mut Recorder) -> u64 {
        self.clock.advance(1);
        self.feeder.chunk(rec);
        CHUNK as u64
    }

    fn maintain(&mut self, rec: &mut Recorder) {
        self.drops += super::retention_pass(&self.cluster, rec);
    }

    fn maintain_every(&self) -> u64 {
        MAINTAIN_EVERY
    }
}

impl Workload for Firehose {
    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn counts(&self) -> Counts {
        Counts {
            produced: self.feeder.produced,
            delivered: self.feeder.acked,
            ..Counts::default()
        }
    }

    fn steady(&self) -> bool {
        self.drops > 0
    }

    fn check_window(&self, counts: &Counts, deltas: &Deltas, verdict: &mut Verdict) {
        if deltas.segment_drops == 0 {
            verdict.violation("no segment was dropped by maintenance in the window".into());
        }
        // Every record crosses to the follower exactly once, or never.
        let expected = if self.replicated { counts.delivered } else { 0 };
        verdict.expect_eq(
            "cluster.replicated_messages in the window",
            deltas.replicated_messages,
            expected,
        );
    }

    fn finish(&mut self, verdict: &mut Verdict) {
        verdict.attempted += self.feeder.produced;
        verdict.failed += self.feeder.errors;
        if self.cluster.replicate_tick().is_err() {
            verdict.failed += 1;
        }
        let mut committed = 0;
        let mut lost = 0;
        for tp in sut::partitions_of(EVENTS_TOPIC, PARTITIONS) {
            let (Ok(earliest), Ok(latest)) = (
                self.cluster.earliest_offset(&tp),
                self.cluster.latest_offset(&tp),
            ) else {
                verdict.violation(format!("{tp}: offsets unavailable"));
                continue;
            };
            committed += latest;
            // The retained range reads back with contiguous offsets.
            let mut pos = earliest;
            while pos < latest {
                match self.cluster.fetch_batch(&tp, pos, 1 << 20) {
                    Ok(batch) if !batch.is_empty() => {
                        for r in batch.records() {
                            lost += u64::from(r.offset != pos);
                            pos = r.offset + 1;
                        }
                    }
                    _ => {
                        verdict.violation(format!("{tp}: read-back stopped at {pos} of {latest}"));
                        lost += latest - pos;
                        break;
                    }
                }
            }
        }
        verdict.failed += lost;
        verdict.expect_eq(
            "records acked vs produced",
            self.feeder.acked,
            self.feeder.produced,
        );
        verdict.expect_eq(
            "summed latest_offset vs acked",
            committed,
            self.feeder.acked,
        );
        verdict.expect_eq("read-back offset gaps", lost, 0);
    }
}
