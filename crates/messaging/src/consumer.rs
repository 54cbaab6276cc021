//! Consumers: offset-based pull consumption, standalone or in a group.
//!
//! Consumers pull data from brokers by providing offsets (§3.1);
//! tracking a position costs a single integer per partition. Group
//! consumers additionally commit their positions to the offset manager
//! so a replacement can resume — at-least-once delivery: a crash after
//! processing but before committing causes reprocessing (§4.3).

use std::collections::{BTreeMap, HashMap};

use liquid_obs::GaugeHandle;
use liquid_sim::lockdep::Mutex;

use crate::cluster::Cluster;
use crate::group::AssignmentStrategy;
use crate::ids::{MessageBatch, TopicPartition};

/// Where a newly assigned consumer starts reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartPosition {
    /// First retained offset.
    Earliest,
    /// Current high watermark (only new data).
    Latest,
    /// A specific offset.
    Offset(u64),
    /// The group's committed offset, falling back to `Earliest`.
    Committed,
}

/// A pull consumer.
pub struct Consumer {
    cluster: Cluster,
    /// Member id (unique within the group).
    member_id: String,
    group: Option<String>,
    state: Mutex<ConsumerState>,
    /// Max bytes per partition per poll.
    max_poll_bytes: u64,
}

#[derive(Default)]
struct ConsumerState {
    positions: HashMap<TopicPartition, Position>,
    /// Group generation the current assignment was taken at.
    generation: u64,
    /// Default start for partitions gained via rebalance.
    group_start: Option<StartPosition>,
}

/// One assigned partition: the offset of the next record to poll, and
/// the handle of its `consumer.lag{tp=…}` gauge — resolved on the
/// partition's first poll and kept, so a poll renders no key and takes
/// no registry lock.
#[derive(Default)]
struct Position {
    next: u64,
    lag: Option<GaugeHandle>,
}

impl Position {
    fn at(next: u64) -> Self {
        Position { next, lag: None }
    }
}

impl Consumer {
    /// A standalone consumer (explicit partition assignment, no
    /// commits).
    pub fn new(cluster: &Cluster, member_id: &str) -> Self {
        Consumer {
            cluster: cluster.clone(),
            member_id: member_id.to_string(),
            group: None,
            state: Mutex::new("consumer.state", ConsumerState::default()),
            max_poll_bytes: u64::MAX,
        }
    }

    /// A group consumer. Call [`subscribe`](Self::subscribe) next.
    pub fn in_group(cluster: &Cluster, group: &str, member_id: &str) -> Self {
        Consumer {
            cluster: cluster.clone(),
            member_id: member_id.to_string(),
            group: Some(group.to_string()),
            state: Mutex::new("consumer.state", ConsumerState::default()),
            max_poll_bytes: u64::MAX,
        }
    }

    /// Caps bytes fetched per partition per poll.
    pub fn with_max_poll_bytes(mut self, max: u64) -> Self {
        self.max_poll_bytes = max;
        self
    }

    /// The member id.
    pub fn member_id(&self) -> &str {
        &self.member_id
    }

    /// Manually assigns a partition (standalone mode).
    pub fn assign(&self, tp: TopicPartition, start: StartPosition) -> crate::Result<()> {
        let offset = self.resolve_start(&tp, start)?;
        self.state.lock().positions.entry(tp).or_default().next = offset;
        Ok(())
    }

    /// Joins the group and subscribes to `topics`; positions for the
    /// assigned partitions start at `start`.
    pub fn subscribe(
        &self,
        topics: &[&str],
        strategy: AssignmentStrategy,
        start: StartPosition,
    ) -> crate::Result<()> {
        let group = self.group.as_deref().ok_or_else(|| {
            crate::MessagingError::Group("subscribe requires a group consumer".into())
        })?;
        let assignment = self
            .cluster
            .join_group(group, &self.member_id, topics, strategy)?;
        let mut st = self.state.lock();
        st.generation = assignment.generation;
        st.group_start = Some(start);
        st.positions.clear();
        for tp in assignment.partitions {
            let offset = self.resolve_start(&tp, start)?;
            st.positions.insert(tp, Position::at(offset));
        }
        Ok(())
    }

    /// Refreshes the assignment if the group rebalanced since the last
    /// poll; returns whether it changed. Every poll asks for the group's
    /// generation alone; the assignment itself, a copy of the member's
    /// partition list, is fetched only when the generation moved.
    pub fn refresh_assignment(&self) -> crate::Result<bool> {
        let Some(group) = self.group.as_deref() else {
            return Ok(false);
        };
        let Some(generation) = self.cluster.group_generation(group) else {
            return Ok(false);
        };
        // The position rebuild is atomic with the generation bump, or a
        // racing poll would read positions from a stale assignment.
        let mut st = self.state.lock();
        if generation == st.generation {
            return Ok(false);
        }
        let Some(current) = self.cluster.group_assignment(group, &self.member_id) else {
            return Ok(false);
        };
        if current.generation == st.generation {
            return Ok(false);
        }
        let start = st.group_start.unwrap_or(StartPosition::Committed);
        st.generation = current.generation;
        let mut old: HashMap<TopicPartition, Position> = st.positions.drain().collect();
        for tp in current.partitions {
            let position = match old.remove(&tp) {
                Some(kept) => kept,
                None => Position::at(self.resolve_start(&tp, start)?),
            };
            st.positions.insert(tp, position);
        }
        Ok(true)
    }

    /// Partitions currently assigned.
    pub fn assignment(&self) -> Vec<TopicPartition> {
        let mut v: Vec<TopicPartition> = self.state.lock().positions.keys().cloned().collect();
        v.sort();
        v
    }

    /// Current position for a partition: the offset of the next record
    /// this consumer will poll. Unlike the cluster-side offsets
    /// ([`Cluster::earliest_offset`], [`Cluster::latest_offset`] — the
    /// high watermark — and [`Cluster::log_end_offset`]), the position
    /// is consumer-local state and moves only when this consumer polls
    /// or seeks.
    pub fn position(&self, tp: &TopicPartition) -> Option<u64> {
        self.state.lock().positions.get(tp).map(|p| p.next)
    }

    /// Consumer lag for a partition: the offset distance between this
    /// consumer's position and the partition's high watermark, read
    /// from the registry's `partition.high_watermark{tp=…}` gauge.
    /// `None` when the partition is unassigned or the gauge is not
    /// populated (e.g. the observability layer is compiled out with
    /// `obs-off`).
    ///
    /// Exact under batch-granular delivery: [`poll_batches`]
    /// (Self::poll_batches) advances the position to the batch's
    /// `end_offset` (one past the last record actually read), never by
    /// record count — counting records would over-report lag forever on
    /// compacted partitions, where fewer records exist than offsets.
    /// The same value is published per poll as the
    /// `consumer.lag{tp=…}` gauge.
    ///
    /// Also exact across a dropped-segment boundary: when the position
    /// falls inside a segment retention has retired, the next poll will
    /// resume at the first retained offset, so lag is measured from
    /// there — never counting offsets that no longer exist.
    pub fn lag(&self, tp: &TopicPartition) -> Option<u64> {
        let pos = self.position(tp)?;
        let hw = self
            .cluster
            .obs()
            .registry()
            .gauge_value_with("partition.high_watermark", &[("tp", &tp.to_string())])?;
        let effective = match self.cluster.earliest_offset(tp) {
            Ok(earliest) => pos.max(earliest),
            Err(_) => pos,
        };
        Some(hw.saturating_sub(effective))
    }

    /// Moves the position for a partition.
    pub fn seek(&self, tp: &TopicPartition, offset: u64) {
        self.state
            .lock()
            .positions
            .entry(tp.clone())
            .or_default()
            .next = offset;
    }

    /// Rewinds to the first record at/after `ts` (metadata-based access,
    /// §3.1). Returns the offset sought to, if data exists there.
    pub fn seek_to_timestamp(
        &self,
        tp: &TopicPartition,
        ts: liquid_sim::clock::Ts,
    ) -> crate::Result<Option<u64>> {
        let target = self.cluster.offset_for_timestamp(tp, ts)?;
        if let Some(offset) = target {
            self.seek(tp, offset);
        }
        Ok(target)
    }

    /// Pulls one [`MessageBatch`] per assigned partition, advancing each
    /// position to the batch's [`end_offset`](MessageBatch::end_offset)
    /// — offset-granular, **not** record-count-granular, so positions
    /// (and therefore [`lag`](Self::lag)) stay exact even when
    /// compaction has punched holes in the offset sequence. Empty
    /// batches are dropped from the result but still leave the position
    /// untouched by construction (`end_offset == requested offset`).
    pub fn poll_batches(&self) -> crate::Result<Vec<(TopicPartition, MessageBatch)>> {
        // Polling is liveness: heartbeat the group coordinator.
        if let Some(group) = self.group.as_deref() {
            self.cluster.heartbeat_group(group, &self.member_id).ok();
        }
        self.refresh_assignment()?;
        // Positions advance atomically with the fetch, or a concurrent
        // rebalance would double-deliver.
        let mut st = self.state.lock();
        let mut out = Vec::new();
        for (tp, position) in st.positions.iter_mut() {
            let batch = self
                .cluster
                .fetch_batch(tp, position.next, self.max_poll_bytes)?;
            position.next = batch.end_offset();
            // Batch-aware lag gauge: distance from the *advanced*
            // position to the watermark the fetch observed. Publishing
            // per batch (not per record) keeps this off the per-message
            // path; the handle is resolved on the partition's first poll.
            let lag = position.lag.get_or_insert_with(|| {
                let tp = tp.to_string();
                self.cluster
                    .obs()
                    .registry()
                    .gauge_with("consumer.lag", &[("tp", &tp)])
            });
            lag.set(batch.high_watermark().saturating_sub(position.next));
            if !batch.is_empty() {
                out.push((tp.clone(), batch));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// Commits current positions to the offset manager with annotations
    /// (group consumers only).
    pub fn commit(&self, metadata: BTreeMap<String, String>) -> crate::Result<()> {
        let group = self.group.as_deref().ok_or_else(|| {
            crate::MessagingError::Group("commit requires a group consumer".into())
        })?;
        // Sorted so the commit order (and any injected fault) is
        // deterministic. Copied out first: a commit is a replicated
        // produce, which must not run under `consumer.state`.
        let mut positions: Vec<(TopicPartition, u64)> = {
            let st = self.state.lock();
            st.positions
                .iter()
                .map(|(tp, p)| (tp.clone(), p.next))
                .collect()
        };
        positions.sort_by(|a, b| a.0.cmp(&b.0));
        for (tp, offset) in &positions {
            self.cluster
                .offsets()
                .commit(group, tp, *offset, metadata.clone())?;
        }
        Ok(())
    }

    /// Leaves the group (clean shutdown), triggering a rebalance.
    pub fn leave(&self) -> crate::Result<()> {
        if let Some(group) = self.group.as_deref() {
            self.cluster.leave_group(group, &self.member_id)?;
            self.state.lock().positions.clear();
        }
        Ok(())
    }

    fn resolve_start(&self, tp: &TopicPartition, start: StartPosition) -> crate::Result<u64> {
        Ok(match start {
            StartPosition::Earliest => self.cluster.earliest_offset(tp)?,
            StartPosition::Latest => self.cluster.latest_offset(tp)?,
            StartPosition::Offset(o) => o,
            StartPosition::Committed => {
                let committed = self
                    .group
                    .as_deref()
                    .and_then(|g| self.cluster.offsets().fetch_offset(g, tp));
                match committed {
                    Some(o) => o,
                    None => self.cluster.earliest_offset(tp)?,
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::config::{AckLevel, TopicConfig};
    use bytes::Bytes;
    use liquid_sim::clock::SimClock;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_string())
    }

    fn setup(partitions: u32) -> Cluster {
        let c = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
        c.create_topic("t", TopicConfig::with_partitions(partitions))
            .unwrap();
        c
    }

    fn fill(c: &Cluster, tp: &TopicPartition, n: u64) {
        for i in 0..n {
            c.produce_to(tp, None, b(&format!("m{i}")), AckLevel::Leader)
                .unwrap();
        }
    }

    #[test]
    fn standalone_assign_and_poll() {
        let c = setup(1);
        let tp = TopicPartition::new("t", 0);
        fill(&c, &tp, 5);
        let consumer = Consumer::new(&c, "c1");
        consumer
            .assign(tp.clone(), StartPosition::Earliest)
            .unwrap();
        let batches = consumer.poll_batches().unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].1.len(), 5);
        // Position advanced: next poll is empty.
        assert!(consumer.poll_batches().unwrap().is_empty());
        assert_eq!(consumer.position(&tp), Some(5));
    }

    #[test]
    fn latest_skips_existing_data() {
        let c = setup(1);
        let tp = TopicPartition::new("t", 0);
        fill(&c, &tp, 5);
        let consumer = Consumer::new(&c, "c1");
        consumer.assign(tp.clone(), StartPosition::Latest).unwrap();
        assert!(consumer.poll_batches().unwrap().is_empty());
        fill(&c, &tp, 2);
        let batches = consumer.poll_batches().unwrap();
        assert_eq!(batches[0].1.len(), 2);
        assert_eq!(batches[0].1.records().first().unwrap().offset, 5);
    }

    #[test]
    fn seek_rewinds() {
        let c = setup(1);
        let tp = TopicPartition::new("t", 0);
        fill(&c, &tp, 10);
        let consumer = Consumer::new(&c, "c1");
        consumer
            .assign(tp.clone(), StartPosition::Earliest)
            .unwrap();
        consumer.poll_batches().unwrap();
        consumer.seek(&tp, 3);
        let batches = consumer.poll_batches().unwrap();
        assert_eq!(batches[0].1.len(), 7);
        assert_eq!(batches[0].1.records().first().unwrap().offset, 3);
    }

    #[test]
    fn seek_to_timestamp_rewinds_by_time() {
        let clock = SimClock::new(0);
        let c = Cluster::new(ClusterConfig::with_brokers(1), clock.shared());
        c.create_topic("t", TopicConfig::with_partitions(1))
            .unwrap();
        let tp = TopicPartition::new("t", 0);
        for i in 0..10u64 {
            clock.set(i * 100);
            c.produce_to(&tp, None, b(&format!("m{i}")), AckLevel::Leader)
                .unwrap();
        }
        let consumer = Consumer::new(&c, "c1");
        consumer.assign(tp.clone(), StartPosition::Latest).unwrap();
        let sought = consumer.seek_to_timestamp(&tp, 500).unwrap();
        assert_eq!(sought, Some(5));
        let batches = consumer.poll_batches().unwrap();
        assert_eq!(batches[0].1.len(), 5);
    }

    #[test]
    fn group_commit_and_resume() {
        let c = setup(1);
        let tp = TopicPartition::new("t", 0);
        fill(&c, &tp, 10);
        {
            let c1 = Consumer::in_group(&c, "g", "m1");
            c1.subscribe(&["t"], AssignmentStrategy::Range, StartPosition::Earliest)
                .unwrap();
            let batches = c1.poll_batches().unwrap();
            assert_eq!(batches[0].1.len(), 10);
            c1.commit(BTreeMap::new()).unwrap();
            c1.leave().unwrap();
        }
        fill(&c, &tp, 3);
        // Replacement member resumes from the committed offset.
        let c2 = Consumer::in_group(&c, "g", "m2");
        c2.subscribe(&["t"], AssignmentStrategy::Range, StartPosition::Committed)
            .unwrap();
        let batches = c2.poll_batches().unwrap();
        assert_eq!(batches[0].1.len(), 3);
        assert_eq!(batches[0].1.records().first().unwrap().offset, 10);
    }

    #[test]
    fn at_least_once_reprocessing_after_crash() {
        // Crash *after processing but before commit* → duplicates on
        // resume. This is the at-least-once semantics of §4.3.
        let clock = SimClock::new(0);
        let c = Cluster::new(ClusterConfig::with_brokers(1), clock.shared());
        c.create_topic("t", TopicConfig::with_partitions(1))
            .unwrap();
        let tp = TopicPartition::new("t", 0);
        fill(&c, &tp, 5);
        let mut processed = Vec::new();
        {
            let c1 = Consumer::in_group(&c, "g", "m1");
            c1.subscribe(&["t"], AssignmentStrategy::Range, StartPosition::Committed)
                .unwrap();
            let batches = c1.poll_batches().unwrap();
            for m in batches[0].1.records() {
                processed.push(m.offset);
            }
            // Crash: no commit, no clean leave.
        }
        // The coordinator notices the missing heartbeats and evicts the
        // dead member, freeing its partitions.
        clock.advance(60_000);
        let evicted = c.expire_stale_members(30_000).unwrap();
        assert_eq!(evicted.len(), 1);
        let c2 = Consumer::in_group(&c, "g", "m2");
        c2.subscribe(&["t"], AssignmentStrategy::Range, StartPosition::Committed)
            .unwrap();
        let batches = c2.poll_batches().unwrap();
        for m in batches[0].1.records() {
            processed.push(m.offset);
        }
        assert_eq!(processed.len(), 10, "all 5 messages seen twice");
        assert_eq!(&processed[0..5], &processed[5..10]);
    }

    #[test]
    fn queue_within_group_each_message_to_one_member() {
        let c = setup(4);
        for p in 0..4 {
            fill(&c, &TopicPartition::new("t", p), 10);
        }
        let c1 = Consumer::in_group(&c, "g", "m1");
        let c2 = Consumer::in_group(&c, "g", "m2");
        c1.subscribe(&["t"], AssignmentStrategy::Range, StartPosition::Earliest)
            .unwrap();
        c2.subscribe(&["t"], AssignmentStrategy::Range, StartPosition::Earliest)
            .unwrap();
        // m1's assignment shrank when m2 joined.
        c1.refresh_assignment().unwrap();
        let got1: usize = c1
            .poll_batches()
            .unwrap()
            .iter()
            .map(|(_, m)| m.len())
            .sum();
        let got2: usize = c2
            .poll_batches()
            .unwrap()
            .iter()
            .map(|(_, m)| m.len())
            .sum();
        assert_eq!(got1 + got2, 40, "every message to exactly one member");
        assert_eq!(got1, 20);
        assert_eq!(got2, 20);
    }

    #[test]
    fn pubsub_across_groups_each_group_sees_all() {
        let c = setup(2);
        for p in 0..2 {
            fill(&c, &TopicPartition::new("t", p), 5);
        }
        let g1 = Consumer::in_group(&c, "g1", "m");
        let g2 = Consumer::in_group(&c, "g2", "m");
        g1.subscribe(&["t"], AssignmentStrategy::Range, StartPosition::Earliest)
            .unwrap();
        g2.subscribe(&["t"], AssignmentStrategy::Range, StartPosition::Earliest)
            .unwrap();
        let n1: usize = g1
            .poll_batches()
            .unwrap()
            .iter()
            .map(|(_, m)| m.len())
            .sum();
        let n2: usize = g2
            .poll_batches()
            .unwrap()
            .iter()
            .map(|(_, m)| m.len())
            .sum();
        assert_eq!((n1, n2), (10, 10));
    }

    #[test]
    fn max_poll_bytes_limits_batches() {
        let c = setup(1);
        let tp = TopicPartition::new("t", 0);
        fill(&c, &tp, 100);
        let consumer = Consumer::new(&c, "c1").with_max_poll_bytes(64);
        consumer.assign(tp, StartPosition::Earliest).unwrap();
        let first = consumer.poll_batches().unwrap();
        let n: usize = first.iter().map(|(_, m)| m.len()).sum();
        assert!(n < 100, "poll should be limited, got {n}");
        // Eventually drains.
        let mut total = n;
        while total < 100 {
            let batches = consumer.poll_batches().unwrap();
            let got: usize = batches.iter().map(|(_, m)| m.len()).sum();
            assert!(got > 0, "progress stalled at {total}");
            total += got;
        }
        assert_eq!(total, 100);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn lag_tracks_distance_to_high_watermark() {
        let c = setup(1);
        let tp = TopicPartition::new("t", 0);
        fill(&c, &tp, 8);
        let consumer = Consumer::new(&c, "c1");
        assert_eq!(consumer.lag(&tp), None, "unassigned partition");
        consumer
            .assign(tp.clone(), StartPosition::Earliest)
            .unwrap();
        assert_eq!(consumer.lag(&tp), Some(8));
        consumer.poll_batches().unwrap();
        assert_eq!(consumer.lag(&tp), Some(0));
        fill(&c, &tp, 3);
        assert_eq!(consumer.lag(&tp), Some(3));
    }

    #[test]
    fn commit_requires_group() {
        let c = setup(1);
        let consumer = Consumer::new(&c, "c1");
        assert!(consumer.commit(BTreeMap::new()).is_err());
        assert!(consumer
            .subscribe(&["t"], AssignmentStrategy::Range, StartPosition::Earliest)
            .is_err());
    }

    #[test]
    fn commit_carries_metadata_annotations() {
        let c = setup(1);
        let tp = TopicPartition::new("t", 0);
        fill(&c, &tp, 3);
        let consumer = Consumer::in_group(&c, "g", "m1");
        consumer
            .subscribe(&["t"], AssignmentStrategy::Range, StartPosition::Earliest)
            .unwrap();
        consumer.poll_batches().unwrap();
        let mut meta = BTreeMap::new();
        meta.insert("sw".to_string(), "v2".to_string());
        consumer.commit(meta).unwrap();
        let commit = c.offsets().fetch("g", &tp).unwrap();
        assert_eq!(commit.offset, 3);
        assert_eq!(commit.metadata["sw"], "v2");
    }
}
