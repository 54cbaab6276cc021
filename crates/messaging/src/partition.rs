//! One partition's §4.3 replication rules as a sequential state machine.
//!
//! A [`PartitionCore`] owns a partition's replica logs, its leader, its
//! in-sync replicas (ISR), its high watermark (HW) and its idempotent
//! producer sequences, and it is the only code that moves them: leader
//! append, follower catch-up, ISR and HW recomputation, election from
//! the ISR, and truncation of a diverged replica. It takes no lock,
//! makes no coordination call and holds no fault injector. Each call is
//! handed the liveness view ([`Live`]) and the caller's [`Hooks`], which
//! decide faults, count copies and record spans at fixed points. The
//! cluster makes one core call per operation, under the partition's
//! shard lock. DESIGN.md "Partition core" states the rules, and
//! `tests/replica_model.rs` is their executable reference.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use liquid_log::{Log, RecordBatch};
use liquid_sim::sched::Shared;

use crate::config::AckLevel;
use crate::error::MessagingError;
use crate::ids::{BrokerId, TopicPartition};

/// Which brokers are up, by broker id: the one liveness view every core
/// call reads. A clone shares the flags; marking a broker copies them.
#[derive(Debug, Clone)]
pub(crate) struct Live(Arc<[bool]>);

impl Live {
    /// `brokers` brokers, all up.
    pub(crate) fn all_up(brokers: u32) -> Live {
        Live(vec![true; brokers as usize].into())
    }

    /// Whether broker `b` is up; an unknown id is down.
    pub(crate) fn up(&self, b: BrokerId) -> bool {
        self.0.get(b as usize).copied().unwrap_or(false)
    }

    /// This view with broker `b` marked up or down.
    pub(crate) fn with(&self, b: BrokerId, up: bool) -> Live {
        let mut flags = self.0.to_vec();
        if let Some(flag) = flags.get_mut(b as usize) {
            *flag = up;
        }
        Live(flags.into())
    }
}

/// A fault decision point inside a core call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Site {
    /// Before each follower fetch.
    Fetch,
    /// Before each election.
    Election,
}

impl Site {
    /// The registered fault-site name an injected crash here carries.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Site::Fetch => "replication.fetch",
            Site::Election => "cluster.election",
        }
    }
}

/// What one follower fetch shipped: `(messages, value bytes, frames)`.
pub(crate) type Copied = (u64, u64, u64);

/// The caller's side of a core call. The core calls these at fixed
/// points in a fixed order; only [`fault`](Hooks::fault) changes what
/// it does.
pub(crate) trait Hooks {
    /// A fault decision point: `true` crashes the call right here.
    fn fault(&mut self, site: Site) -> bool;
    /// The leader appended a batch at `base..end`.
    fn appended(&mut self, _base: u64, _end: u64) {}
    /// A follower fetch shipped `copied`; the follower now ends at `end`.
    fn replicated(&mut self, _end: u64, _copied: Copied) {}
    /// An election chose a leader.
    fn elected(&mut self) {}
    /// The leader and HW settled after a produce, a replication round
    /// or an election.
    fn settled(&mut self, _core: &PartitionCore) {}
}

/// One partition's replicated state; see the module docs.
pub(crate) struct PartitionCore {
    tp: TopicPartition,
    /// Brokers assigned to host replicas (first = preferred leader).
    assignment: Vec<BrokerId>,
    /// Current leader, if any live ISR member exists.
    leader: Option<BrokerId>,
    /// In-sync replicas (always includes the leader when one exists).
    isr: Vec<BrokerId>,
    /// One log per assigned broker.
    replicas: BTreeMap<BrokerId, Log>,
    /// First offset *not* known to be on every ISR member; consumers
    /// read strictly below it. A liquid-check tracked cell: under a
    /// model run every read and write is a schedule point.
    high_watermark: Shared<u64>,
    /// Per idempotent producer id: the highest sequence whose batch the
    /// leader appended, and that batch's base offset, which a duplicate
    /// retry is answered with.
    producer_seqs: HashMap<u64, (u64, u64)>,
}

impl PartitionCore {
    /// A fresh partition over one log per assigned broker: every replica
    /// is in the ISR and the first live one in assignment order leads.
    pub(crate) fn new(
        tp: TopicPartition,
        assignment: Vec<BrokerId>,
        replicas: BTreeMap<BrokerId, Log>,
        live: &Live,
    ) -> Self {
        PartitionCore {
            tp,
            leader: assignment.iter().copied().find(|&b| live.up(b)),
            isr: assignment.clone(),
            assignment,
            replicas,
            high_watermark: Shared::new("partition.high_watermark", 0),
            producer_seqs: HashMap::new(),
        }
    }

    /// The current leader, if any.
    pub(crate) fn leader(&self) -> Option<BrokerId> {
        self.leader
    }

    /// The in-sync replicas.
    pub(crate) fn isr(&self) -> &[BrokerId] {
        &self.isr
    }

    /// The high watermark: a tracked read.
    pub(crate) fn high_watermark(&self) -> u64 {
        self.high_watermark.get()
    }

    /// Every replica's log, by broker.
    pub(crate) fn replicas(&self) -> &BTreeMap<BrokerId, Log> {
        &self.replicas
    }

    /// Every replica's log, for maintenance that rewrites each replica
    /// alike (retention, compaction).
    pub(crate) fn logs_mut(&mut self) -> impl Iterator<Item = &mut Log> {
        self.replicas.values_mut()
    }

    /// Broker `broker`'s log end (0 for a broker holding no replica).
    pub(crate) fn log_end(&self, broker: BrokerId) -> u64 {
        self.replicas
            .get(&broker)
            .map(|l| l.next_offset())
            .unwrap_or(0)
    }

    /// The leader's log, whether or not the leader is up.
    pub(crate) fn leader_log(&self) -> crate::Result<&Log> {
        self.leader
            .and_then(|l| self.replicas.get(&l))
            .ok_or_else(|| MessagingError::PartitionUnavailable(self.tp.clone()))
    }

    /// The leader's log, if the leader is up.
    pub(crate) fn live_leader_log(&self, live: &Live) -> crate::Result<&Log> {
        self.leader
            .filter(|&b| live.up(b))
            .and_then(|l| self.replicas.get(&l))
            .ok_or_else(|| MessagingError::PartitionUnavailable(self.tp.clone()))
    }

    /// The write path: appends `batch` on the live leader as one group
    /// commit and, at [`AckLevel::All`], brings every live ISR follower
    /// up to the leader before advancing the HW to the lowest end among
    /// the leader and the followers it synced. At `Leader` and `None` the
    /// HW moves only when the leader is the whole ISR.
    ///
    /// `dedup` is one `(producer_id, sequence)` for the whole batch: a
    /// sequence at or below the last one appended is a duplicate retry,
    /// answered with that batch's base offset. A sequence is recorded
    /// only once its batch is on the leader, so a failed append spends
    /// none. A follower fault leaves the batch on the leader but below
    /// the HW: a batch is never partially acknowledged.
    ///
    /// Returns the base offset, records appended and their value bytes
    /// (no records for an empty batch or a duplicate retry).
    pub(crate) fn produce<H: Hooks>(
        &mut self,
        batch: RecordBatch,
        acks: AckLevel,
        dedup: Option<(u64, u64)>,
        live: &Live,
        hooks: &mut H,
    ) -> crate::Result<(u64, u64, u64)> {
        let unavailable = || MessagingError::PartitionUnavailable(self.tp.clone());
        let leader = self
            .leader
            .filter(|&b| live.up(b))
            .ok_or_else(unavailable)?;
        if batch.is_empty() {
            return Ok((self.log_end(leader), 0, 0));
        }
        if let Some((producer_id, sequence)) = dedup {
            if let Some(&(last, base)) = self.producer_seqs.get(&producer_id) {
                if sequence <= last {
                    return Ok((base, 0, 0));
                }
            }
        }
        let leader_log = self.replicas.get_mut(&leader).ok_or_else(unavailable)?;
        let (base, records, bytes) = leader_log.append_record_batch(batch)?;
        if let Some((producer_id, sequence)) = dedup {
            self.producer_seqs.insert(producer_id, (sequence, base));
        }
        let next_end = base
            .checked_add(records)
            .ok_or(MessagingError::OffsetOverflow {
                what: "advancing past the appended batch",
                value: base,
            })?;
        hooks.appended(base, next_end);
        match acks {
            AckLevel::All => {
                let mut min_end = next_end;
                for b in self.isr.clone() {
                    if b == leader || !live.up(b) {
                        continue;
                    }
                    self.sync(leader, b, hooks)?;
                    min_end = min_end.min(self.log_end(b));
                }
                self.advance_hw(min_end);
            }
            AckLevel::Leader | AckLevel::None => {
                if self.isr == [leader] {
                    self.high_watermark.set(next_end);
                }
            }
        }
        hooks.settled(self);
        Ok((base, records, bytes))
    }

    /// One replication round. Without a live leader it holds an
    /// election. Otherwise every live follower copies what it is
    /// missing, the ISR becomes the leader plus the live followers at
    /// its log end, and the HW advances to the ISR's lowest log end.
    /// Returns messages copied.
    pub(crate) fn replicate<H: Hooks>(&mut self, live: &Live, hooks: &mut H) -> crate::Result<u64> {
        let Some(leader) = self.leader.filter(|&b| live.up(b)) else {
            self.elect(live, hooks)?;
            return Ok(0);
        };
        let mut total = 0u64;
        for b in self.assignment.clone() {
            if b != leader && live.up(b) {
                total += self.sync(leader, b, hooks)?;
            }
        }
        let leader_end = self.log_end(leader);
        let mut isr: Vec<BrokerId> = (self.assignment.iter().copied())
            .filter(|&b| b == leader || (live.up(b) && self.log_end(b) == leader_end))
            .collect();
        isr.sort_unstable();
        self.isr = isr;
        let min_end = self.isr.iter().map(|&b| self.log_end(b)).min();
        self.advance_hw(min_end.unwrap_or(leader_end));
        hooks.settled(self);
        Ok(total)
    }

    /// Broker `id` went down. It stays in the ISR: the ISR is the set of
    /// replicas known to hold every committed record and the candidate
    /// set of later elections, and a live leader shrinks it on its next
    /// round. A partition it led elects a new leader. Returns whether
    /// `id` led, that is whether leadership moved.
    pub(crate) fn broker_down<H: Hooks>(
        &mut self,
        id: BrokerId,
        live: &Live,
        hooks: &mut H,
    ) -> crate::Result<bool> {
        if self.leader != Some(id) {
            return Ok(false);
        }
        self.leader = None;
        self.elect(live, hooks)?;
        Ok(true)
    }

    /// Broker `id` came back. Unless it still leads, its replica drops
    /// everything at or past the HW: that suffix was never committed,
    /// and a newer leader may hold different records at those offsets.
    /// Truncating to the HW is always safe, because the HW is monotone
    /// and committed records sit below it. `catch_up` repairs what
    /// divergence remains below the HW.
    pub(crate) fn broker_up(&mut self, id: BrokerId) -> crate::Result<()> {
        if !self.assignment.contains(&id) || self.leader == Some(id) {
            return Ok(());
        }
        let own_end = self.log_end(id);
        let hw = self.high_watermark.get();
        if own_end > hw {
            if let Some(log) = self.replicas.get_mut(&id) {
                log.truncate_to(hw)?;
            }
        }
        Ok(())
    }

    /// Elects the first ISR member in assignment order that is up and
    /// whose log reaches the HW. ISR
    /// membership alone is not enough: a member that was down while
    /// acks=All produces committed stays in the ISR with a log below the
    /// HW, and electing it would lose acknowledged records. Without such
    /// a candidate the partition stays leaderless. The other live
    /// replicas truncate what they hold past the new leader's end, and
    /// a failed truncation is returned.
    pub(crate) fn elect<H: Hooks>(&mut self, live: &Live, hooks: &mut H) -> crate::Result<()> {
        if hooks.fault(Site::Election) {
            return Err(MessagingError::Injected(Site::Election.name()));
        }
        let hw = self.high_watermark.get();
        let candidate = self
            .assignment
            .iter()
            .copied()
            .find(|&b| self.isr.contains(&b) && live.up(b) && self.log_end(b) >= hw);
        let Some(new_leader) = candidate else {
            return Ok(());
        };
        self.leader = Some(new_leader);
        let leader_end = self.log_end(new_leader);
        for b in self.assignment.clone() {
            if b == new_leader || !live.up(b) || self.log_end(b) <= leader_end {
                continue;
            }
            if let Some(log) = self.replicas.get_mut(&b) {
                log.truncate_to(leader_end)?;
            }
        }
        hooks.settled(self);
        hooks.elected();
        Ok(())
    }

    /// One follower fetch: the fault decision, the copy, and its report.
    /// Returns messages copied.
    fn sync<H: Hooks>(
        &mut self,
        leader: BrokerId,
        follower: BrokerId,
        hooks: &mut H,
    ) -> crate::Result<u64> {
        if hooks.fault(Site::Fetch) {
            return Err(MessagingError::Injected(Site::Fetch.name()));
        }
        let copied = self.catch_up(leader, follower)?;
        hooks.replicated(self.log_end(follower), copied);
        Ok(copied.0)
    }

    /// Raises the HW to `end`; it never moves down.
    fn advance_hw(&mut self, end: u64) {
        let hw = self.high_watermark.get();
        self.high_watermark.set(hw.max(end));
    }

    /// Ships what the follower is missing, leader → follower, as the
    /// frames the leader stored; returns `(messages, value bytes,
    /// frames)`.
    ///
    /// Before copying, the follower's tail is reconciled against the
    /// leader's content. Log-end comparisons alone cannot detect every
    /// divergence: a broker that dies holding an unacknowledged suffix
    /// stays in the ISR, and `acks=All` produces skip offline members
    /// when advancing the high watermark — so by the time the broker
    /// returns, both its log end and the watermark can sit *past*
    /// offsets where it holds different records than the current
    /// leader. Walking back from the follower's end until both logs
    /// agree (and truncating the divergent suffix) restores the prefix
    /// property that makes resuming replication from the follower's log
    /// end sound.
    fn catch_up(&mut self, leader: BrokerId, follower: BrokerId) -> crate::Result<Copied> {
        let to = self.log_end(leader);
        let mut from = self.log_end(follower).min(to);
        while from > 0 {
            let off = from - 1;
            // Replica maps never shrink, but a missing entry must not
            // panic on a replication path; treat it like the compaction
            // hole below.
            let (Some(leader_log), Some(follower_log)) =
                (self.replicas.get(&leader), self.replicas.get(&follower))
            else {
                break;
            };
            // Point lookups: they never fill the segment cache, so
            // probing the last offset of a just-sealed segment at every
            // roll does not decode the whole segment for one record. A
            // record that cannot be read is treated like one that is
            // not there.
            let leader_rec = leader_log.record_at(off).ok().flatten();
            let follower_rec = follower_log.record_at(off).ok().flatten();
            match (leader_rec, follower_rec) {
                (Some(l), Some(f)) => {
                    if l.key == f.key && l.value == f.value && l.timestamp == f.timestamp {
                        break;
                    }
                    from = off;
                }
                // A missing record on either side is a compaction hole,
                // not divergence: compaction rewrites every replica in
                // the same pass and only touches committed (consistent)
                // offsets.
                _ => break,
            }
        }
        if from < self.log_end(follower) {
            self.replicas
                .get_mut(&follower)
                .ok_or(MessagingError::UnknownBroker(follower))?
                .truncate_to(from)?;
        }
        if from >= to {
            return Ok((0, 0, 0));
        }
        // The follower now ends at `from`, a prefix of the leader, and
        // the missing suffix moves as the leader's own frames: stored as
        // they are, nothing decoded, re-encoded or checksummed again
        // (DESIGN §18). The transfer is one group commit on the follower
        // — one `log.append` decision point before its first byte, so an
        // injected crash drops the whole transfer, never half of it.
        // Both logs are borrowed out of the map at once, so an error
        // leaves nothing to put back.
        let (mut leader_log, mut follower_log) = (None, None);
        for (&broker, log) in self.replicas.iter_mut() {
            if broker == leader {
                leader_log = Some(&*log);
            } else if broker == follower {
                follower_log = Some(log);
            }
        }
        let leader_log = leader_log.ok_or(MessagingError::UnknownBroker(leader))?;
        let follower_log = follower_log.ok_or(MessagingError::UnknownBroker(follower))?;
        Ok(follower_log.append_frames_from(leader_log)?)
    }
}

#[cfg(test)]
#[path = "../../../tests/replica_model.rs"]
mod replica_model;

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::HashSet;
    use std::time::Instant;

    use bytes::Bytes;
    use liquid_log::{LogConfig, LogError, Record};
    use liquid_sim::clock::SimClock;
    use liquid_sim::failure::FailureInjector;

    use super::replica_model::{Fail, Fault, Model, Rec};
    use super::*;

    /// What broker `id`'s replica holds, and its log end.
    pub(crate) fn replica(core: &PartitionCore, id: BrokerId) -> (Vec<Record>, u64) {
        let log = &core.replicas[&id];
        let held = log.read(log.start_offset(), u64::MAX).unwrap().records;
        (held.into_vec(), log.next_offset())
    }

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_string())
    }

    /// Hooks that crash at one scripted decision point and count the
    /// frames follower fetches ship.
    #[derive(Default)]
    struct Script {
        fault: Option<Fault>,
        fetches: u32,
        elections: u32,
        frames: u64,
    }

    impl Script {
        /// Scripts the next op to crash at `fault`, counting afresh.
        fn arm(&mut self, fault: Fault) {
            (self.fault, self.fetches, self.elections) = (Some(fault), 0, 0);
        }
    }

    impl Hooks for Script {
        fn fault(&mut self, site: Site) -> bool {
            let fault = self.fault.unwrap_or(Fault::None);
            match site {
                Site::Fetch => {
                    self.fetches += 1;
                    fault == Fault::Fetch(self.fetches)
                }
                Site::Election => {
                    self.elections += 1;
                    fault == Fault::Election(self.elections)
                }
            }
        }

        fn replicated(&mut self, _end: u64, copied: Copied) {
            self.frames += copied.2;
        }
    }

    /// A partition replicated on brokers `0..n`, its liveness view and
    /// its hooks: what the cluster would hand each core call.
    struct Part {
        core: PartitionCore,
        live: Live,
        hooks: Script,
    }

    impl Part {
        /// Replica logs in memory, sharing `injector` for `log.append`.
        fn new(n: u32, injector: &FailureInjector) -> Part {
            let clock = SimClock::new(0).shared();
            let config = LogConfig {
                injector: injector.clone(),
                ..LogConfig::default()
            };
            let replicas = (0..n)
                .map(|id| (id, Log::open(config.clone(), clock.clone()).unwrap()))
                .collect();
            let live = Live::all_up(n);
            let tp = TopicPartition::new("t", 0);
            Part {
                core: PartitionCore::new(tp, (0..n).collect(), replicas, &live),
                live,
                hooks: Script::default(),
            }
        }

        fn produce(&mut self, batch: RecordBatch, acks: AckLevel) -> crate::Result<u64> {
            let core = &mut self.core;
            let (base, _, _) = core.produce(batch, acks, None, &self.live, &mut self.hooks)?;
            Ok(base)
        }

        /// Produces one unkeyed record.
        fn produce_one(&mut self, value: &str, acks: AckLevel) -> crate::Result<u64> {
            self.produce(RecordBatch::from_pairs([(None, b(value))], 0), acks)
        }

        fn tick(&mut self) -> crate::Result<u64> {
            self.core.replicate(&self.live, &mut self.hooks)
        }

        fn kill(&mut self, id: BrokerId) -> crate::Result<()> {
            if self.live.up(id) {
                self.live = self.live.with(id, false);
                self.core.broker_down(id, &self.live, &mut self.hooks)?;
            }
            Ok(())
        }

        fn restart(&mut self, id: BrokerId) -> crate::Result<()> {
            if !self.live.up(id) {
                self.live = self.live.with(id, true);
                self.core.broker_up(id)?;
            }
            Ok(())
        }

        /// The leader and the first other broker.
        fn follower_of(&self) -> (BrokerId, BrokerId) {
            let leader = self.core.leader.unwrap();
            let follower = (0..).find(|&id| id != leader).unwrap();
            (leader, follower)
        }

        /// What a consumer can read: the leader's log below the HW.
        fn committed(&self) -> Vec<Record> {
            let log = self.core.leader_log().unwrap();
            let mut held = log.read(0, u64::MAX).unwrap().records;
            held.keep_below(self.core.high_watermark.get());
            held.into_vec()
        }
    }

    fn keyed(values: &[&str]) -> RecordBatch {
        RecordBatch::from_pairs(values.iter().map(|v| (Some(b("k")), b(v))), 0)
    }

    #[test]
    fn election_skips_isr_members_behind_the_high_watermark() {
        // A broker that was offline while acks=All produces were
        // acknowledged stays in the ISR but lags the high watermark.
        // When the leader then dies, that stale member must not win the
        // election — doing so would clamp the HW and silently truncate
        // acknowledged records (found by the seeded chaos harness).
        let mut p = Part::new(3, &FailureInjector::disabled());
        for i in 0..5 {
            p.produce_one(&format!("m{i}"), AckLevel::All).unwrap();
        }
        let (leader, stale) = p.follower_of();
        p.kill(stale).unwrap();
        // Acked with the stale member offline: HW advances without it.
        for i in 5..10 {
            p.produce_one(&format!("m{i}"), AckLevel::All).unwrap();
        }
        // Back online but not caught up (no replication tick yet), and
        // still an ISR member — an eligible-looking but unsafe
        // candidate.
        p.restart(stale).unwrap();
        p.kill(leader).unwrap();
        let new_leader = p.core.leader.expect("a caught-up replica leads");
        assert_ne!(new_leader, stale, "stale ISR member must not be elected");
        assert_eq!(
            p.committed().len(),
            10,
            "every acknowledged record still committed after failover"
        );
    }

    #[test]
    fn returning_replica_truncates_divergent_suffix_below_the_watermark() {
        // A leader dies holding an unacknowledged record. The new leader
        // then commits a *different* record at that same offset while
        // the dead broker — still an ISR member — is offline, advancing
        // the high watermark past the divergence point. When the old
        // leader returns, both its log end and the watermark sit past
        // the offset where its content disagrees with the new leader's,
        // so no end-based comparison can see the problem: replication
        // must reconcile content and truncate the divergent suffix, or
        // the returning replica keeps the wrong record forever and loses
        // the committed one if it is ever re-elected (found by the
        // seeded chaos harness).
        let mut p = Part::new(3, &FailureInjector::disabled());
        for i in 0..3 {
            p.produce_one(&format!("m{i}"), AckLevel::All).unwrap();
        }
        let old_leader = p.core.leader.unwrap();
        // Unacknowledged divergent record at offset 3 on the old leader
        // only.
        p.produce_one("orphan", AckLevel::None).unwrap();
        p.kill(old_leader).unwrap();
        let new_leader = p.core.leader.expect("failover");
        assert_ne!(new_leader, old_leader);
        // The new leader commits different content at offset 3 (and
        // more); acks=All skips the offline ISR member, so the high
        // watermark passes the divergence point without it.
        for i in 0..2 {
            p.produce_one(&format!("n{i}"), AckLevel::All).unwrap();
        }
        p.restart(old_leader).unwrap();
        p.tick().unwrap();
        // Fail back to the old leader: every committed record must
        // survive, including the one at the divergence offset.
        p.kill(new_leader).unwrap();
        p.tick().unwrap();
        assert_eq!(p.core.leader, Some(old_leader));
        let values: Vec<Bytes> = p.committed().into_iter().map(|r| r.value).collect();
        assert_eq!(
            values,
            vec![b("m0"), b("m1"), b("m2"), b("n0"), b("n1")],
            "returning replica must serve the committed history, not its stale suffix"
        );
    }

    #[test]
    fn restarted_replica_resumes_from_the_middle_of_a_leader_frame() {
        let mut p = Part::new(2, &FailureInjector::disabled());
        p.produce(keyed(&["a", "b", "c", "d"]), AckLevel::All)
            .unwrap();
        let (old_leader, survivor) = p.follower_of();
        // The old leader dies holding one unacknowledged four-record
        // frame; its first record is what the producer retries.
        p.produce(keyed(&["x", "lost-1", "lost-2", "lost-3"]), AckLevel::None)
            .unwrap();
        p.kill(old_leader).unwrap();
        assert_eq!(p.core.leader, Some(survivor));
        // The new leader commits the retry in a frame of three: the
        // high watermark (7) now falls inside the old leader's frame
        // (4..8), and what the two logs agree on (through offset 4)
        // ends inside the new leader's (4..7).
        p.produce(keyed(&["x", "y", "z"]), AckLevel::All).unwrap();
        p.restart(old_leader).unwrap();
        assert_eq!(
            replica(&p.core, old_leader).1,
            7,
            "truncated to the watermark"
        );
        assert_eq!(p.tick().unwrap(), 2, "offsets 5 and 6 are shipped");
        assert_eq!(p.hooks.frames, 2);
        let (ours, theirs) = (replica(&p.core, old_leader), replica(&p.core, survivor));
        assert_eq!(ours, theirs);
        let values: Vec<&[u8]> = ours.0.iter().map(|r| r.value.as_slice()).collect();
        assert_eq!(values, [b"a", b"b", b"c", b"d", b"x", b"y", b"z"]);
        // Shipped as a slice of the leader's frame, not rebuilt: the
        // same bytes in memory. Offset 4 is the replica's own.
        let ptr = |r: &Record| r.value.as_slice().as_ptr();
        assert_ne!(ptr(&ours.0[4]), ptr(&theirs.0[4]));
        assert_eq!(ptr(&ours.0[5]), ptr(&theirs.0[5]));
        assert_eq!(ptr(&ours.0[6]), ptr(&theirs.0[6]));
        p.kill(survivor).unwrap();
        assert_eq!(p.core.leader, Some(old_leader));
        assert_eq!(p.committed().len(), 7);
    }

    #[test]
    fn follower_append_fault_leaves_batch_unacked_and_retry_commits_it_whole() {
        let injector = FailureInjector::new(1);
        let mut p = Part::new(2, &injector);
        let batch = || RecordBatch::from_pairs(["x", "y", "z"].iter().map(|v| (None, b(v))), 0);
        p.produce_one("a", AckLevel::All).unwrap();
        p.produce_one("b", AckLevel::All).unwrap();
        let (leader, follower) = p.follower_of();
        // The replica logs share the injector: the batch's first
        // `log.append` is the leader's, its second the follower's.
        injector.fail_at(2);
        let err = p.produce(batch(), AckLevel::All);
        assert!(matches!(
            err,
            Err(MessagingError::Log(LogError::Injected("log.append")))
        ));
        assert_eq!(replica(&p.core, leader).1, 5, "the leader holds the batch");
        assert_eq!(replica(&p.core, follower).1, 2, "the follower none of it");
        assert_eq!(p.core.high_watermark.get(), 2, "and none of it is acked");
        // The retry is a new batch to the log (no idempotent sequence):
        // one transfer ships both copies and commits them.
        assert_eq!(p.produce(batch(), AckLevel::All).unwrap(), 5);
        assert_eq!(p.core.high_watermark.get(), 8);
        assert_eq!(replica(&p.core, follower), replica(&p.core, leader));
        let values: Vec<Bytes> = p.committed().into_iter().map(|r| r.value).collect();
        let values: Vec<&[u8]> = values.iter().map(|v| v.as_slice()).collect();
        assert_eq!(values, [b"a", b"b", b"x", b"y", b"z", b"x", b"y", b"z"]);
    }

    /// One op of the small-scope enumeration.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// A batch of two under the next sequence of producer 1; `fault`
        /// crashes a follower fetch or the leader append.
        Produce {
            all: bool,
            fault: Fault,
        },
        /// The last appended batch again, under its own sequence.
        Retry,
        Kill(BrokerId),
        Restart(BrokerId),
        /// A replication round; `fault` crashes its election.
        Tick(Fault),
    }

    /// Every op over 3 brokers, acks ∈ {Leader, All}, with faults at the
    /// first and second follower fetch of an acks=All produce, at the
    /// leader append, and at the election of a tick.
    const OPS: [Op; 14] = [
        Op::Produce {
            all: false,
            fault: Fault::None,
        },
        Op::Produce {
            all: true,
            fault: Fault::None,
        },
        Op::Produce {
            all: true,
            fault: Fault::Fetch(1),
        },
        Op::Produce {
            all: true,
            fault: Fault::Fetch(2),
        },
        Op::Produce {
            all: false,
            fault: Fault::Append,
        },
        Op::Retry,
        Op::Kill(0),
        Op::Kill(1),
        Op::Kill(2),
        Op::Restart(0),
        Op::Restart(1),
        Op::Restart(2),
        Op::Tick(Fault::None),
        Op::Tick(Fault::Election(1)),
    ];

    /// The length of the longest op sequence enumerated.
    const K: usize = 6;

    /// The producer every enumerated batch comes from.
    const PRODUCER: u64 = 1;

    fn fail(e: MessagingError) -> Fail {
        match e {
            MessagingError::PartitionUnavailable(_) => Fail::Unavailable,
            MessagingError::Injected(site) | MessagingError::Log(LogError::Injected(site)) => {
                Fail::Injected(site)
            }
            other => panic!("no rule makes a core op fail with {other}"),
        }
    }

    /// What the enumeration explores: the model, and the sequence of a
    /// batch whose produce failed and awaits its retry (the producer
    /// holds it; the model has nowhere to).
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct State {
        model: Model,
        pending: Option<u64>,
    }

    /// The batch a produce op sends from `s`: records named by offset
    /// and appending leader, so two leaders' records at one offset
    /// differ, and a sequence. A fresh batch takes the next one; a
    /// retry re-sends the pending one, or else the last appended.
    fn next_batch(s: &State, op: Op) -> (Vec<Rec>, u64) {
        let m = &s.model;
        let last = m.seqs.get(&PRODUCER).map_or(0, |&(seq, _)| seq);
        let seq = match op {
            Op::Retry => s.pending.unwrap_or(last),
            _ => last + 1,
        };
        let leader = m.leader.filter(|&l| m.up[l as usize]);
        let base = leader.map_or(0, |l| m.end(l));
        let recs = (base..base + 2)
            .map(|o| (Some(b"k".to_vec()), format!("{o}@{leader:?}").into_bytes()))
            .collect();
        (recs, seq)
    }

    /// The acks level and scripted fault of a produce op.
    fn produce_args(op: Op) -> (bool, Fault) {
        match op {
            Op::Produce { all, fault } => (all, fault),
            _ => (false, Fault::None),
        }
    }

    /// Runs `op` on the model alone.
    fn model_step(s: &mut State, op: Op) -> Result<u64, Fail> {
        match op {
            Op::Produce { .. } | Op::Retry => {
                let (recs, seq) = next_batch(s, op);
                let (all, fault) = produce_args(op);
                let out = s.model.produce(recs, all, Some((PRODUCER, seq)), fault);
                s.pending = out.is_err().then_some(seq);
                out
            }
            Op::Kill(id) => s.model.kill(id).map(|()| 0),
            Op::Restart(id) => {
                s.model.restart(id);
                Ok(0)
            }
            Op::Tick(fault) => s.model.tick(fault),
        }
    }

    /// Runs `op` on the core from the state `s` the model stands in; the
    /// injector's `log.append` decision is armed only where the model
    /// reaches the leader append.
    fn core_step(p: &mut Part, s: &State, injector: &FailureInjector, op: Op) -> Result<u64, Fail> {
        let m = &s.model;
        p.hooks.arm(Fault::None);
        let outcome = match op {
            Op::Produce { .. } | Op::Retry => {
                let (recs, seq) = next_batch(s, op);
                let (all, fault) = produce_args(op);
                let batch = recs.iter().map(|(k, v)| {
                    let key = k.as_deref().map(Bytes::copy_from_slice);
                    (key, Bytes::copy_from_slice(v))
                });
                if fault == Fault::Append && m.leader.is_some_and(|l| m.up[l as usize]) {
                    injector.fail_at(1);
                }
                p.hooks.arm(fault);
                let acks = if all { AckLevel::All } else { AckLevel::Leader };
                let batch = RecordBatch::from_pairs(batch, 0);
                let dedup = Some((PRODUCER, seq));
                let core = &mut p.core;
                core.produce(batch, acks, dedup, &p.live, &mut p.hooks)
                    .map(|(base, _, _)| base)
            }
            Op::Kill(id) => p.kill(id).map(|()| 0),
            Op::Restart(id) => p.restart(id).map(|()| 0),
            Op::Tick(fault) => {
                p.hooks.arm(fault);
                p.tick()
            }
        };
        outcome.map_err(fail)
    }

    /// Asserts that the core holds what the model does: leader, ISR, HW,
    /// producer sequences and every replica's records, hence every log
    /// end and the lag.
    fn diff(p: &Part, m: &Model, at: &str) {
        let rec = |r: &Record| {
            let key = r.key.as_ref().map(|k| k.as_slice().to_vec());
            (r.offset, (key, r.value.as_slice().to_vec()))
        };
        let numbered = |recs: &[Rec]| (0u64..).zip(recs.iter().cloned()).collect::<Vec<_>>();
        assert_eq!(p.core.leader, m.leader, "leader after {at}");
        let seqs: BTreeMap<u64, (u64, u64)> = p.core.producer_seqs.clone().into_iter().collect();
        assert_eq!(seqs, m.seqs, "producer sequences after {at}");
        assert_eq!(p.core.isr, m.isr, "ISR after {at}");
        assert_eq!(p.core.high_watermark.get(), m.hw, "HW after {at}");
        let committed: Vec<_> = p.core.leader.map_or(Vec::new(), |_| p.committed());
        let committed: Vec<_> = committed.iter().map(rec).collect();
        assert_eq!(committed, numbered(&m.committed()), "committed after {at}");
        for (&id, want) in &m.logs {
            let (held, end) = replica(&p.core, id);
            let held: Vec<_> = held.iter().map(rec).collect();
            assert_eq!(held, numbered(want), "replica {id} after {at}");
            assert_eq!(end, m.end(id), "log end of replica {id} after {at}");
        }
    }

    /// Replays `path` on a fresh core beside a fresh model, diffing the
    /// two after every op.
    fn replay(path: &[Op]) {
        let injector = FailureInjector::new(0);
        let mut p = Part::new(3, &injector);
        let mut s = State {
            model: Model::new(3, vec![0, 1, 2]),
            pending: None,
        };
        for (i, &op) in path.iter().enumerate() {
            let at = format!("op {i} ({op:?}) of {path:?}");
            let got = core_step(&mut p, &s, &injector, op);
            let want = model_step(&mut s, op);
            assert_eq!(got, want, "outcome of {at}");
            diff(&p, &s.model, &at);
        }
    }

    /// Every op sequence of length ≤ `K` over one partition on 3
    /// brokers, run on the core and diffed against the reference model
    /// after every op. Breadth first, so a model state is first reached
    /// at its shortest depth; a sequence reaching a state already seen
    /// is pruned.
    #[test]
    fn every_short_op_sequence_matches_the_model() {
        let started = Instant::now();
        let root = State {
            model: Model::new(3, vec![0, 1, 2]),
            pending: None,
        };
        let mut seen = HashSet::from([root.clone()]);
        let mut frontier = vec![(Vec::new(), root)];
        let (mut run, mut pruned) = (0u64, 0u64);
        for _ in 0..K {
            let mut next = Vec::new();
            for (path, state) in &frontier {
                for op in OPS {
                    let mut s = state.clone();
                    let _ = model_step(&mut s, op);
                    if !seen.insert(s.clone()) {
                        pruned += 1;
                        continue;
                    }
                    let mut path = path.clone();
                    path.push(op);
                    replay(&path);
                    run += 1;
                    next.push((path, s));
                }
            }
            frontier = next;
        }
        println!(
            "partition core: K={K}, {run} sequences run, {pruned} pruned, {} distinct states, {:?}",
            seen.len(),
            started.elapsed()
        );
    }
}
