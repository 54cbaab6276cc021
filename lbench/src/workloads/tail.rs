//! `tail_fanout`: the nearline hot head — reads beside writes. Closed
//! loop, one producing client, three consumer groups of two members.
//!
//! Paper Fig. 3 pub/sub across back-ends: every chunk written is read
//! three times from the *active* segment, the path ROADMAP item 1
//! fixes, and tail readers crossing a fresh segment boundary force
//! whole-segment cache fills. Supersedes E9.

use std::collections::BTreeMap;

use liquid_messaging::{AckLevel, Cluster, Consumer};
use liquid_sim::clock::SimClock;

use super::{Counts, Deltas, Feeder, Verdict, Workload, MAINTAIN_EVERY};
use crate::gen::{checksum, Events};
use crate::span::Recorder;
use crate::sut::{self, CHUNK, EVENTS_TOPIC, PARTITIONS};
use crate::window::Rounds;

const GROUPS: [&str; 3] = ["analytics", "search-index", "archive"];
const MEMBERS: usize = 2;

/// What one consumer group has seen.
struct GroupView {
    members: Vec<Consumer>,
    /// Next offset expected on each partition.
    next: Vec<u64>,
    records: u64,
    checksum: u64,
    /// Records whose offset was not the next one on their partition.
    out_of_order: u64,
}

pub struct TailFanout {
    clock: SimClock,
    cluster: Cluster,
    feeder: Feeder,
    groups: Vec<GroupView>,
    counts: Counts,
    errors: u64,
    drops: u64,
}

impl TailFanout {
    pub fn new(events: Events) -> TailFanout {
        let clock = sut::sim_clock();
        let cluster = sut::cluster(&clock, 2, sut::STREAM_CACHE_BYTES);
        sut::create_stream_topic(&cluster, EVENTS_TOPIC, 2, sut::STREAM_FEED);
        let feeder = Feeder::new(
            events,
            sut::producer(&cluster, EVENTS_TOPIC, AckLevel::Leader),
        );
        // Every member joins before the first record exists, so `Latest`
        // is offset 0 everywhere and each group must see everything.
        let groups = GROUPS
            .iter()
            .map(|group| GroupView {
                members: (0..MEMBERS)
                    .map(|m| sut::group_member(&cluster, EVENTS_TOPIC, group, m))
                    .collect(),
                next: vec![0; PARTITIONS as usize],
                records: 0,
                checksum: 0,
                out_of_order: 0,
            })
            .collect();
        TailFanout {
            clock,
            cluster,
            feeder,
            groups,
            counts: Counts::default(),
            errors: 0,
            drops: 0,
        }
    }

    fn replicate(&mut self, rec: &mut Recorder) {
        let ok = super::replicate(&self.cluster, rec, &mut self.counts);
        self.errors += u64::from(!ok);
    }

    /// Every member of every group polls once; returns records seen.
    fn poll_all(&mut self, rec: &mut Recorder) -> u64 {
        let mut seen = 0;
        for group in &mut self.groups {
            for member in &group.members {
                let span = rec.begin("consumer.poll");
                let polled = member.poll_batches();
                rec.end(span);
                self.counts.polls += 1;
                let Ok(batches) = polled else {
                    self.errors += 1;
                    continue;
                };
                if batches.is_empty() {
                    self.counts.empty_polls += 1;
                }
                for (tp, batch) in &batches {
                    let next = &mut group.next[tp.partition as usize];
                    for r in batch.records() {
                        group.out_of_order += u64::from(r.offset != *next);
                        *next = r.offset + 1;
                        group.checksum = group
                            .checksum
                            .wrapping_add(checksum(r.key.as_deref(), &r.value));
                    }
                    group.records += batch.len() as u64;
                    seen += batch.len() as u64;
                }
            }
        }
        self.counts.polled += seen;
        seen
    }
}

impl Rounds for TailFanout {
    fn round(&mut self, rec: &mut Recorder) -> u64 {
        self.clock.advance(1);
        self.feeder.chunk(rec);
        self.replicate(rec);
        self.poll_all(rec);
        CHUNK as u64
    }

    fn maintain(&mut self, rec: &mut Recorder) {
        self.drops += super::retention_pass(&self.cluster, rec);
        for group in &self.groups {
            for member in &group.members {
                let span = rec.begin("offsets.commit");
                if member.commit(BTreeMap::new()).is_err() {
                    self.errors += 1;
                }
                rec.end(span);
            }
        }
    }

    fn maintain_every(&self) -> u64 {
        MAINTAIN_EVERY
    }
}

impl Workload for TailFanout {
    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn counts(&self) -> Counts {
        Counts {
            produced: self.feeder.produced,
            delivered: self.counts.polled,
            ..self.counts
        }
    }

    fn steady(&self) -> bool {
        self.drops > 0
    }

    fn check_window(&self, counts: &Counts, deltas: &Deltas, verdict: &mut Verdict) {
        if deltas.segment_drops == 0 {
            verdict.violation("no segment was dropped by maintenance in the window".into());
        }
        // Fan-out ratio exactly 3: each round ends with every group
        // caught up, so it holds for the window, not only the run.
        verdict.expect_eq(
            "records delivered vs 3 x produced in the window",
            counts.delivered,
            GROUPS.len() as u64 * counts.produced,
        );
    }

    fn finish(&mut self, verdict: &mut Verdict) {
        let mut rec = Recorder::off();
        self.replicate(&mut rec);
        while self.poll_all(&mut rec) > 0 {}
        verdict.attempted += self.feeder.produced;
        verdict.failed += self.feeder.errors + self.errors;
        verdict.expect_eq(
            "records acked vs produced",
            self.feeder.acked,
            self.feeder.produced,
        );
        for (name, group) in GROUPS.iter().zip(&self.groups) {
            verdict.failed += group.out_of_order + group.records.abs_diff(self.feeder.produced);
            verdict.expect_eq(
                &format!("group {name}: records seen vs produced"),
                group.records,
                self.feeder.produced,
            );
            verdict.expect_eq(
                &format!("group {name}: records out of offset order"),
                group.out_of_order,
                0,
            );
            verdict.expect_eq(
                &format!("group {name}: payload checksum vs producer's"),
                group.checksum,
                self.feeder.checksum,
            );
        }
    }
}
