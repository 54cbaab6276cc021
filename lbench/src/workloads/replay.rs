//! `replay_hot` / `replay_cold`: rewind over sealed history (§4.2
//! rewindability, the "offline" half of the paper's title). Closed
//! loop, one client, 64 KiB fetches.
//!
//! `hot`: 2 MiB of history under a 32 MiB cache, filled by one untimed
//! sweep in set-up — every read is a hit. `cold`: 16 MiB under a 2 MiB
//! cache — each of the 8 shards sees 8x its capacity in LRU order, so
//! every segment is decoded from storage again on every sweep. A cache
//! made faster on hits by costlier inserts wins `hot` and loses `cold`;
//! neither reads the active segment, which separates "cache layer" and
//! "storage decode" from `tail_fanout`'s "hot head". Supersedes E13.

use liquid_messaging::{Cluster, TopicPartition};

use super::{Counts, Deltas, Verdict, Workload};
use crate::gen::{stamp_of, Events, EVENTS};
use crate::span::Recorder;
use crate::sut::{self, HISTORY_FETCH_BYTES, HISTORY_PARTITIONS, HISTORY_TOPIC};
use crate::window::Rounds;

/// Records per partition in the swept range: 2 MiB / 16 MiB of key
/// plus value bytes over 4 partitions of ~138 B records.
const HOT_RANGE: u64 = 3_800;
const COLD_RANGE: u64 = 30_400;
/// Records preloaded past the swept range. A 64 KiB segment holds
/// ~400 records and a fetch that starts inside the range overshoots it
/// by at most one fetch, so 1 600 spare records keep the sweep at least
/// two sealed segments below the active one: only sealed segments are
/// ever read.
const SPARE: u64 = 1_600;

const HOT_CACHE_BYTES: u64 = 32 << 20;
const COLD_CACHE_BYTES: u64 = 2 << 20;

/// Event index preloaded at `offset` of `partition`.
fn event_at(partition: u32, offset: u64) -> u64 {
    (offset * u64::from(HISTORY_PARTITIONS) + u64::from(partition)) % EVENTS as u64
}

pub struct Replay {
    cluster: Cluster,
    hot: bool,
    partitions: Vec<TopicPartition>,
    /// Records per partition in the swept range.
    range: u64,
    /// Partition being swept and the next offset to fetch there.
    cursor: (usize, u64),
    counts: Counts,
    sweeps: u64,
    /// Sealed segments a sweep visits (= cache fills of the first sweep).
    segments_per_sweep: u64,
    /// Records that did not hold the event preloaded at their offset.
    mismatched: u64,
    errors: u64,
    /// Key plus value bytes preloaded, for the storage amplification.
    user_bytes: u64,
}

impl Replay {
    pub fn new(events: Events, hot: bool) -> Replay {
        let clock = sut::sim_clock();
        let (range, cache) = if hot {
            (HOT_RANGE, HOT_CACHE_BYTES)
        } else {
            (COLD_RANGE, COLD_CACHE_BYTES)
        };
        let cluster = sut::cluster(&clock, 1, cache);
        sut::create_history_topic(&cluster);
        let mut user_bytes = 0;
        for p in 0..HISTORY_PARTITIONS {
            let producer = sut::pinned_producer(&cluster, HISTORY_TOPIC, p);
            for offset in 0..range + SPARE {
                let i = event_at(p, offset) as usize;
                user_bytes += events.user_bytes(i);
                producer
                    .buffer(Some(events.keys[i].clone()), events.values[i].clone())
                    .expect("preload");
            }
            producer.flush().expect("preload");
        }
        let mut replay = Replay {
            partitions: sut::partitions_of(HISTORY_TOPIC, HISTORY_PARTITIONS),
            cluster,
            hot,
            range,
            cursor: (0, 0),
            counts: Counts::default(),
            sweeps: 0,
            segments_per_sweep: 0,
            mismatched: 0,
            errors: 0,
            user_bytes,
        };
        // One untimed sweep: fills the hot cache, and counts the
        // segments a sweep visits (every first visit is a miss).
        let before = replay.cluster.snapshot();
        let mut rec = Recorder::off();
        while replay.sweeps == 0 {
            replay.round(&mut rec);
        }
        let fill = Deltas::between(&before, &replay.cluster.snapshot());
        replay.segments_per_sweep = fill.cache_misses;
        replay
    }
}

impl Rounds for Replay {
    /// One fetch. Records past the swept range are checked but do not
    /// count, so every sweep counts exactly `range` records a partition.
    fn round(&mut self, rec: &mut Recorder) -> u64 {
        let (p, pos) = self.cursor;
        let span = rec.begin("cluster.fetch");
        let fetched = self
            .cluster
            .fetch_batch(&self.partitions[p], pos, HISTORY_FETCH_BYTES);
        rec.end(span);
        let mut next = pos;
        match &fetched {
            Ok(batch) if !batch.is_empty() => {
                for r in batch.records() {
                    let expected = event_at(p as u32, next);
                    self.mismatched +=
                        u64::from(r.offset != next || stamp_of(&r.value) != Some(expected));
                    next = r.offset + 1;
                }
            }
            // Sealed history cannot run dry: count the fetch as failed
            // and skip the partition rather than spin on it.
            _ => {
                self.errors += 1;
                next = self.range;
            }
        }
        // Releasing a batch is part of reading it (at seed it touches
        // every record's buffer again), so it is the fetch's time, not
        // the driver's.
        let span = rec.begin("cluster.fetch");
        drop(fetched);
        rec.end(span);
        let counted = next.min(self.range) - pos;
        self.counts.fetched += counted;
        self.cursor = if next < self.range {
            (p, next)
        } else if p + 1 < self.partitions.len() {
            (p + 1, 0)
        } else {
            self.sweeps += 1;
            (0, 0)
        };
        counted
    }

    fn maintain(&mut self, _: &mut Recorder) {}

    /// History needs no maintenance; a window may close after any fetch.
    fn maintain_every(&self) -> u64 {
        1
    }
}

impl Workload for Replay {
    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn counts(&self) -> Counts {
        Counts {
            delivered: self.counts.fetched,
            ..self.counts
        }
    }

    fn check_window(&self, counts: &Counts, deltas: &Deltas, verdict: &mut Verdict) {
        let visits = self.segments_per_sweep as f64 * counts.fetched as f64
            / (self.range * self.partitions.len() as u64) as f64;
        let refilled = deltas.cache_misses as f64 / visits.max(1.0);
        // Counted per segment visit, not per `get`: a 64 KiB fetch ends
        // mid-segment, so on `cold` the next fetch hits the segment the
        // last one filled and the raw hit share sits near 0.5.
        if self.hot && refilled > 0.01 {
            verdict.violation(format!(
                "hot sweeps decoded {} segments from storage",
                deltas.cache_misses
            ));
        }
        if !self.hot && refilled < 0.99 {
            verdict.violation(format!(
                "cold sweeps decoded only {} of ~{visits:.0} segments visited",
                deltas.cache_misses
            ));
        }
    }

    fn finish(&mut self, verdict: &mut Verdict) {
        // Ends on a whole sweep, so the last partial one is checked too.
        let mut rec = Recorder::off();
        while self.cursor != (0, 0) {
            self.round(&mut rec);
        }
        verdict.attempted += self.counts.fetched;
        verdict.failed += self.mismatched + self.errors;
        verdict.expect_eq(
            "records not holding the preloaded event",
            self.mismatched,
            0,
        );
        verdict.expect_eq("fetches that failed or came back empty", self.errors, 0);
        verdict.expect_eq(
            "records fetched vs sweeps x preloaded count",
            self.counts.fetched,
            self.sweeps * self.range * self.partitions.len() as u64,
        );
    }

    fn layer_extras(&mut self, _: &Counts, out: &mut Vec<(&'static str, f64)>) {
        let stored = self.cluster.topic_size_bytes(HISTORY_TOPIC).unwrap_or(0);
        out.push((
            "log.storage.bytes_per_user_byte",
            stored as f64 / self.user_bytes as f64,
        ));
    }
}
