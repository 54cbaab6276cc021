//! Deterministic chaos harness: the §4.3 availability story under
//! adversarial seeds.
//!
//! Each seed expands (via [`liquid_sim::chaos::ChaosPlan`]) into a
//! reproducible interleaving of produces, consumes, broker kills and
//! restarts, compactions, job runs, job crashes, and armed fault
//! injections across every layer (log, cluster, job, task state). The
//! harness interprets the plan against a full stack and, after **every**
//! recovery, checks three invariants:
//!
//! 1. **Durability** — no record acknowledged at `AckLevel::All` is ever
//!    lost: after recovery it is readable below the high watermark.
//! 2. **Compaction** — a compacted feed always serves the latest value
//!    per key: a (possibly mid-crash) compaction never changes the
//!    committed latest-per-key view, and the value served for a key is
//!    never older than the newest acked-All record for that key.
//! 3. **State recovery** — a restored task's state is exactly the fold
//!    of its changelog (put/tombstone replay), and once the job drains
//!    its input after the final recovery, its state equals the
//!    latest-per-key fold of the committed input (at-least-once
//!    reprocessing from the last checkpoint converges).
//!
//! Every run is fully deterministic per seed: all randomness comes from
//! the plan generator, injectors fire on fixed schedules, and cluster
//! state iterates in sorted order. A failing seed prints a repro line:
//!
//! ```text
//! CHAOS_SEED=<seed> cargo test -q --test chaos
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::panic::AssertUnwindSafe;
// The prelude exports `liquid::Result`; this harness threads its own
// error strings, so shadow it back to the std two-parameter form.
use std::result::Result;

use liquid::prelude::*;
use liquid_log::LogError;
use liquid_messaging::{Cluster, ClusterConfig, MessagingError, TopicConfig};
use liquid_obs::Obs;
use liquid_processing::ProcessingError;
use liquid_sim::chaos::{AckChoice, ChaosOp, ChaosPlan, FaultSite};
use liquid_sim::failure::FailureInjector;

/// Append-only data feed: nothing may ever disappear from it.
const EVENTS: &str = "events";
/// Compacted feed receiving the same keyed stream.
const KV: &str = "kv";
/// Size-retained feed: whole sealed segments are dropped by
/// `ChaosOp::EnforceRetention`, so — unlike [`EVENTS`] — records here
/// are *expected* to disappear, oldest segment first. Kept separate so
/// durability invariant 1 stays strict on the append-only feed.
const RETAINED: &str = "retained";
/// Job name; its changelog topic is `__chaos-state`.
const JOB: &str = "chaos";
const CHANGELOG: &str = "__chaos-state";
const BROKERS: u32 = 3;
const PLAN_LEN: usize = 120;
const SEEDS: u64 = 64;
/// Retry budget for recovery loops; armed injector schedules each fire
/// exactly once, so retries always converge well within this.
const RECOVERY_BUDGET: usize = 64;

fn tp(topic: &str) -> TopicPartition {
    TopicPartition::new(topic, 0)
}

fn key_bytes(key: u8) -> Bytes {
    Bytes::from(format!("k{key}"))
}

fn tag_bytes(tag: u32) -> Bytes {
    Bytes::from(tag.to_string())
}

/// True when a messaging error is a simulated crash (injected at any
/// depth), as opposed to a real harness/engine bug.
fn messaging_injected(e: &MessagingError) -> bool {
    matches!(
        e,
        MessagingError::Injected(_) | MessagingError::Log(LogError::Injected(_))
    )
}

/// True when a processing error should be treated as a task crash: an
/// injected fault at any layer underneath, or the input/changelog
/// partition being unavailable mid-outage (a real task dies too when it
/// cannot reach its changelog).
fn processing_crash(e: &ProcessingError) -> bool {
    match e {
        ProcessingError::Injected(_) => true,
        ProcessingError::State(liquid_kv::KvError::Injected(_)) => true,
        ProcessingError::Messaging(m) => {
            messaging_injected(m) || matches!(m, MessagingError::PartitionUnavailable(_))
        }
        _ => false,
    }
}

/// One injector per layer, armed by `ChaosOp::InjectFault`. All are
/// schedule-only (no probability), so each armed fault fires exactly
/// once and runs stay deterministic.
struct Injectors {
    log: FailureInjector,
    cluster: FailureInjector,
    job: FailureInjector,
    state: FailureInjector,
}

impl Injectors {
    fn new() -> Self {
        Injectors {
            log: FailureInjector::disabled(),
            cluster: FailureInjector::disabled(),
            job: FailureInjector::disabled(),
            state: FailureInjector::disabled(),
        }
    }

    fn site(&self, site: FaultSite) -> &FailureInjector {
        match site {
            FaultSite::Log => &self.log,
            FaultSite::Cluster => &self.cluster,
            FaultSite::Job => &self.job,
            FaultSite::State => &self.state,
        }
    }
}

/// Everything a run produces that must be identical across two runs of
/// the same seed.
#[derive(Debug, PartialEq)]
struct RunReport {
    seed: u64,
    trace: Vec<String>,
    crashes: u64,
    acked_events: usize,
    final_events_fold: BTreeMap<Bytes, Bytes>,
    final_kv_fold: BTreeMap<Bytes, Bytes>,
    /// (operations, failures) per injector: log, cluster, job, state.
    injector_counts: [(u64, u64); 4],
    /// Armed faults that landed on a `ChaosOp::ProduceBatch`, by the
    /// stage of the group commit they crashed: an append (`log.append`)
    /// or a synchronous follower fetch (`replication.fetch`).
    torn_batches: [u64; 2],
    /// (operations, failures) at the two segment-lifecycle fault sites:
    /// `log.segment-drop`, `log.cache-evict`.
    retention_site_counts: [(u64, u64); 2],
}

struct Harness {
    cluster: Cluster,
    inj: Injectors,
    job: Option<Job>,
    down: BTreeSet<u32>,
    /// Every (key, tag) the events feed acknowledged at `All`.
    acked_events: Vec<(u8, u32)>,
    /// Newest tag acked at `All` per key on the compacted feed.
    kv_acked: BTreeMap<u8, u32>,
    /// Committed latest-per-key view captured before a compaction that
    /// then crashed; checked for equality after recovery.
    pending_kv_fold: Option<BTreeMap<Bytes, Bytes>>,
    consume_pos: u64,
    /// Cache sweeps run so far; every other sweep arms a one-shot
    /// fault so `log.cache-evict` absorbs injected crashes.
    sweeps: u64,
    crashes: u64,
    /// See [`RunReport::torn_batches`].
    torn_batches: [u64; 2],
    trace: Vec<String>,
}

fn make_job(cluster: &Cluster, inj: &Injectors) -> Result<Job, ProcessingError> {
    let mut config = JobConfig::new(JOB, &[EVENTS]).checkpoint_every(25);
    config.injector = inj.job.clone();
    config.state_injector = inj.state.clone();
    Job::new(cluster, config, |_| {
        Box::new(FnTask(|m: &Message, ctx: &mut TaskContext<'_>| {
            let key = m.key.clone().unwrap_or_default();
            ctx.store().put(key, m.value.clone())?;
            ctx.store().add_counter(b"__count", 1)?;
            Ok(())
        }))
    })
}

impl Harness {
    fn new(obs: Obs) -> Self {
        let clock = SimClock::new(0);
        let inj = Injectors::new();
        let cluster_config = ClusterConfig::builder()
            .brokers(BROKERS)
            .injector(inj.cluster.clone())
            .obs(obs)
            // A deliberately tiny segment-read cache: every sweep fills
            // and evicts under pressure, so `log.cache-evict` is
            // exercised (and armed log faults can land on it).
            .segment_cache_bytes(8 * 1024)
            .segment_cache_shards(2)
            .build()
            .expect("valid cluster config");
        let mut tc = TopicConfig::with_partitions(1)
            .replication(3)
            .segment_bytes(4096);
        tc.log.injector = inj.log.clone();
        let mut kv_tc = TopicConfig::with_partitions(1)
            .replication(3)
            .retention(RetentionPolicy::compact())
            .segment_bytes(2048);
        kv_tc.log.injector = inj.log.clone();
        let mut retained_tc = TopicConfig::with_partitions(1)
            .replication(3)
            .retention(RetentionPolicy::DropByBytes {
                max_bytes: 3 * 1024,
            })
            .segment_bytes(1024);
        retained_tc.log.injector = inj.log.clone();
        let cluster = Cluster::new(cluster_config, clock.shared());
        cluster.create_topic(EVENTS, tc).unwrap();
        cluster.create_topic(KV, kv_tc).unwrap();
        cluster.create_topic(RETAINED, retained_tc).unwrap();
        // No injector is armed yet, so the initial instantiation cannot
        // crash.
        let job = make_job(&cluster, &inj).expect("initial job");
        Harness {
            cluster,
            inj,
            job: Some(job),
            down: BTreeSet::new(),
            acked_events: Vec::new(),
            kv_acked: BTreeMap::new(),
            pending_kv_fold: None,
            consume_pos: 0,
            sweeps: 0,
            crashes: 0,
            torn_batches: [0; 2],
            trace: Vec::new(),
        }
    }

    /// Fetches one committed batch, absorbing injected read faults: a
    /// cache-miss fill can tick `log.cache-evict` when it evicts under
    /// pressure, and armed schedules fire exactly once, so a retry
    /// always converges.
    fn fetch_committed(&self, tp: &TopicPartition, offset: u64) -> Vec<Message> {
        for _ in 0..RECOVERY_BUDGET {
            match self.cluster.fetch_batch(tp, offset, 1 << 20) {
                Ok(b) => return b.into_messages(),
                Err(e) if messaging_injected(&e) => continue,
                Err(e) => panic!("unexpected fetch error: {e}"),
            }
        }
        panic!("injected read faults did not drain within {RECOVERY_BUDGET} retries");
    }

    /// Latest committed value per key (tombstone-aware fold of the
    /// committed prefix of partition 0).
    fn committed_fold(&self, topic: &str) -> BTreeMap<Bytes, Bytes> {
        let tp = tp(topic);
        let mut map = BTreeMap::new();
        let mut offset = self.cluster.earliest_offset(&tp).unwrap();
        loop {
            let batch = self.fetch_committed(&tp, offset);
            if batch.is_empty() {
                break;
            }
            for m in batch {
                offset = m.offset + 1;
                let Some(k) = m.key else { continue };
                if m.value.is_empty() {
                    map.remove(&k);
                } else {
                    map.insert(k, m.value);
                }
            }
        }
        map
    }

    /// All committed (key, value) pairs of the append-only events feed.
    fn committed_events(&self) -> BTreeSet<(Bytes, Bytes)> {
        let tp = tp(EVENTS);
        let mut set = BTreeSet::new();
        let mut offset = 0;
        loop {
            let batch = self.fetch_committed(&tp, offset);
            if batch.is_empty() {
                break;
            }
            for m in batch {
                offset = m.offset + 1;
                set.insert((m.key.unwrap_or_default(), m.value));
            }
        }
        set
    }

    /// Executes one plan op. `Err` means a (simulated) crash was
    /// observed and the caller must run recovery.
    fn step(&mut self, op: &ChaosOp) -> Result<(), String> {
        match *op {
            ChaosOp::Produce { key, tag, ack } => self.produce(key, tag, ack),
            ChaosOp::ProduceBatch {
                key,
                tag,
                count,
                ack,
            } => self.produce_batch(key, tag, count, ack),
            ChaosOp::Consume => self.consume(),
            ChaosOp::KillBroker { broker } => {
                let id = u32::from(broker) % BROKERS;
                // Keep at least one broker alive so outages are
                // survivable (the paper's f < n assumption).
                if self.down.contains(&id) || self.down.len() as u32 >= BROKERS - 1 {
                    return Ok(());
                }
                self.down.insert(id);
                match self.cluster.kill_broker(id) {
                    Ok(()) => Ok(()),
                    Err(e) if messaging_injected(&e) => Err(format!("kill_broker({id}): {e}")),
                    Err(e) => panic!("unexpected kill_broker error: {e}"),
                }
            }
            ChaosOp::RestartBroker { broker } => {
                let id = u32::from(broker) % BROKERS;
                if self.down.remove(&id) {
                    self.cluster.restart_broker(id).unwrap();
                }
                Ok(())
            }
            ChaosOp::ReplicateTick => match self.cluster.replicate_tick() {
                Ok(_) => Ok(()),
                Err(e) if messaging_injected(&e) => Err(format!("replicate_tick: {e}")),
                Err(e) => panic!("unexpected replicate_tick error: {e}"),
            },
            ChaosOp::Compact => self.compact(),
            ChaosOp::EnforceRetention { count } => self.enforce_retention(count),
            ChaosOp::CacheSweep => self.cache_sweep(),
            ChaosOp::RunJob => self.with_job(|job| job.run_until_idle(4).map(|_| ())),
            ChaosOp::Checkpoint => self.with_job(Job::checkpoint),
            ChaosOp::CrashJob => {
                // Unclean kill: no final checkpoint, local state lost.
                self.job = None;
                Err("job killed (unclean)".to_string())
            }
            ChaosOp::InjectFault { site, after_ops } => {
                self.inj.site(site).fail_at(u64::from(after_ops));
                Ok(())
            }
        }
    }

    fn produce(&mut self, key: u8, tag: u32, ack: AckChoice) -> Result<(), String> {
        let acks = match ack {
            AckChoice::All => AckLevel::All,
            AckChoice::Leader => AckLevel::Leader,
            AckChoice::None => AckLevel::None,
        };
        let (k, v) = (key_bytes(key), tag_bytes(tag));
        match self
            .cluster
            .produce_to(&tp(EVENTS), Some(k.clone()), v.clone(), acks)
        {
            Ok(_) => {
                if ack == AckChoice::All {
                    self.acked_events.push((key, tag));
                }
            }
            // Mid-outage: a real producer would retry; the record is
            // simply not acknowledged.
            Err(MessagingError::PartitionUnavailable(_)) => return Ok(()),
            Err(e) if messaging_injected(&e) => return Err(format!("produce events: {e}")),
            Err(e) => panic!("unexpected produce error: {e}"),
        }
        match self.cluster.produce_to(&tp(KV), Some(k), v, acks) {
            Ok(_) => {
                if ack == AckChoice::All {
                    let entry = self.kv_acked.entry(key).or_insert(tag);
                    *entry = (*entry).max(tag);
                }
                Ok(())
            }
            Err(MessagingError::PartitionUnavailable(_)) => Ok(()),
            Err(e) if messaging_injected(&e) => Err(format!("produce kv: {e}")),
            Err(e) => panic!("unexpected produce error: {e}"),
        }
    }

    /// Produces a whole record batch through the group-commit path.
    ///
    /// The acknowledgement model is all-or-nothing: only when the
    /// cluster acknowledges the *entire* batch at `AckLevel::All` are
    /// its records added to the acked sets. A crash mid-batch (armed
    /// injector firing at `log.append` or `replication.fetch`, counted
    /// in `torn_batches`) acknowledges nothing — the durability
    /// invariant then proves the system never partially commits what it
    /// partially acked, because there is no partial ack to begin with,
    /// and anything it *did* ack must survive in full.
    fn produce_batch(
        &mut self,
        key: u8,
        tag: u32,
        count: u8,
        ack: AckChoice,
    ) -> Result<(), String> {
        let acks = match ack {
            AckChoice::All => AckLevel::All,
            AckChoice::Leader => AckLevel::Leader,
            AckChoice::None => AckLevel::None,
        };
        // Record i of the batch carries key (key+i)%8 and tag tag+i,
        // matching the tag-uniqueness contract of the plan generator.
        let records: Vec<(u8, u32)> = (0..count)
            .map(|i| ((key + i) % 8, tag + u32::from(i)))
            .collect();
        let build = |records: &[(u8, u32)]| {
            let mut b = RecordBatch::builder();
            for &(k, t) in records {
                b.push(Some(key_bytes(k).as_ref()), tag_bytes(t).as_ref(), 0);
            }
            b.build()
        };
        match self
            .cluster
            .produce_batch(&tp(EVENTS), build(&records), acks, None)
        {
            Ok(base) => {
                if ack == AckChoice::All {
                    // Atomicity: an acked-All batch is committed whole —
                    // the high watermark covers every record in it.
                    let hw = self.cluster.latest_offset(&tp(EVENTS)).unwrap_or(0);
                    assert!(
                        hw >= base.saturating_add(u64::from(count)),
                        "torn batch: acked at All but hw {hw} splits batch at base {base} (count {count})"
                    );
                    self.acked_events.extend(records.iter().copied());
                }
            }
            Err(MessagingError::PartitionUnavailable(_)) => return Ok(()),
            Err(e) if messaging_injected(&e) => {
                self.note_torn_batch(&e);
                return Err(format!("produce-batch events: {e}"));
            }
            Err(e) => panic!("unexpected produce_batch error: {e}"),
        }
        match self
            .cluster
            .produce_batch(&tp(KV), build(&records), acks, None)
        {
            Ok(_) => {
                if ack == AckChoice::All {
                    for &(k, t) in &records {
                        let entry = self.kv_acked.entry(k).or_insert(t);
                        *entry = (*entry).max(t);
                    }
                }
                Ok(())
            }
            Err(MessagingError::PartitionUnavailable(_)) => Ok(()),
            Err(e) if messaging_injected(&e) => {
                self.note_torn_batch(&e);
                Err(format!("produce-batch kv: {e}"))
            }
            Err(e) => panic!("unexpected produce_batch error: {e}"),
        }
    }

    /// Files an injected `produce_batch` failure under the stage of the
    /// group commit it crashed (a crashed segment roll is neither).
    fn note_torn_batch(&mut self, e: &MessagingError) {
        match e {
            MessagingError::Log(LogError::Injected("log.append")) => self.torn_batches[0] += 1,
            MessagingError::Injected("replication.fetch") => self.torn_batches[1] += 1,
            _ => {}
        }
    }

    fn consume(&mut self) -> Result<(), String> {
        let tp = tp(EVENTS);
        match self.cluster.fetch_batch(&tp, self.consume_pos, 1 << 20) {
            Ok(batch) => {
                // Offset-granular position healing: `end_offset` also
                // jumps a position parked inside a retired segment
                // forward to the first live record.
                self.consume_pos = batch.end_offset();
            }
            Err(MessagingError::PartitionUnavailable(_)) => return Ok(()),
            Err(e) if messaging_injected(&e) => return Err(format!("consume: {e}")),
            Err(e) => panic!("unexpected fetch error: {e}"),
        }
        match self
            .cluster
            .offsets()
            .commit("chaos-readers", &tp, self.consume_pos, BTreeMap::new())
        {
            Ok(()) => Ok(()),
            Err(e) if messaging_injected(&e) => Err(format!("offset commit: {e}")),
            Err(e) => panic!("unexpected offset commit error: {e}"),
        }
    }

    fn compact(&mut self) -> Result<(), String> {
        // Compaction runs only on a healthy, fully replicated cluster
        // (operators don't compact mid-outage); this keeps sealed
        // segments at or below the high watermark, so compaction can
        // only drop records superseded by *committed* ones.
        if !self.down.is_empty() {
            return Ok(());
        }
        if let Err(e) = self.cluster.replicate_tick() {
            if messaging_injected(&e) {
                return Err(format!("pre-compaction replicate: {e}"));
            }
            panic!("unexpected replicate_tick error: {e}");
        }
        let before = self.committed_fold(KV);
        match self.cluster.compact_topic(KV) {
            Ok(_) => {}
            Err(e) if messaging_injected(&e) => {
                // Crashed mid-rewrite: some segments compacted, the
                // generation un-bumped. The committed view must be
                // unchanged — verified after recovery.
                self.pending_kv_fold = Some(before);
                return Err(format!("compact kv: {e}"));
            }
            Err(e) => panic!("unexpected compaction error: {e}"),
        }
        let after = self.committed_fold(KV);
        assert_eq!(
            before, after,
            "invariant 2: compaction changed the committed latest-per-key view"
        );
        // The changelog is compacted too (its log has no injector, so
        // this cannot crash) — exercising restore-after-compaction.
        self.cluster.compact_topic(CHANGELOG).unwrap();
        Ok(())
    }

    /// Fills the size-retained feed with `count` acked records, then
    /// runs a whole-segment retention pass. Each drop is O(1) and ticks
    /// `log.segment-drop`, so an armed log fault can crash the pass
    /// mid-drop; a later pass simply resumes from the surviving
    /// segments. Afterwards a read parked at offset 0 must heal to the
    /// first retained offset, never serving or erroring on dropped
    /// data.
    fn enforce_retention(&mut self, count: u8) -> Result<(), String> {
        let tp = tp(RETAINED);
        for i in 0..count {
            let value = Bytes::from(vec![b'r'; 192]);
            match self
                .cluster
                .produce_to(&tp, Some(key_bytes(i % 8)), value, AckLevel::All)
            {
                Ok(_) => {}
                Err(MessagingError::PartitionUnavailable(_)) => return Ok(()),
                Err(e) if messaging_injected(&e) => return Err(format!("produce retained: {e}")),
                Err(e) => panic!("unexpected produce error: {e}"),
            }
        }
        // Every other burst arms a one-shot fault right before the
        // pass: the first log-injector tick inside retention is
        // `log.segment-drop` (when a drop is due), so the armed fault
        // lands exactly on the segment-lifecycle crash point. When no
        // drop is due the schedule drains at the next append instead.
        if count.is_multiple_of(2) {
            self.inj.log.fail_at(1);
        }
        match self.cluster.enforce_retention() {
            Ok(_) => {}
            Err(e) if messaging_injected(&e) => return Err(format!("retention: {e}")),
            Err(e) => panic!("unexpected retention error: {e}"),
        }
        let earliest = match self.cluster.earliest_offset(&tp) {
            Ok(o) => o,
            Err(MessagingError::PartitionUnavailable(_)) => return Ok(()),
            Err(e) => panic!("unexpected earliest_offset error: {e}"),
        };
        let healed = self.fetch_committed(&tp, 0);
        if let Some(first) = healed.first() {
            assert!(
                first.offset >= earliest,
                "read served offset {} from below the retention floor {earliest}",
                first.offset
            );
        }
        Ok(())
    }

    /// Sweeps every feed from its first retained offset through the
    /// segment-read cache: cold segments fill it (evicting — and
    /// ticking `log.cache-evict` — under the harness's deliberately
    /// tiny capacity), warm segments must serve the same bytes.
    fn cache_sweep(&mut self) -> Result<(), String> {
        // Every other sweep arms a one-shot fault: a cold fill's first
        // log-injector tick is `log.cache-evict` (evictions under the
        // tiny capacity precede any other log site on the read path),
        // so injected crashes land on the eviction crash point.
        self.sweeps += 1;
        if self.sweeps.is_multiple_of(2) {
            self.inj.log.fail_at(1);
        }
        for topic in [EVENTS, RETAINED, KV] {
            let tp = tp(topic);
            let start = match self.cluster.earliest_offset(&tp) {
                Ok(o) => o,
                Err(MessagingError::PartitionUnavailable(_)) => continue,
                Err(e) => panic!("unexpected earliest_offset error: {e}"),
            };
            match self.cluster.fetch_batch(&tp, start, 1 << 20) {
                Ok(_) => {}
                Err(MessagingError::PartitionUnavailable(_)) => {}
                Err(e) if messaging_injected(&e) => return Err(format!("sweep {topic}: {e}")),
                Err(e) => panic!("unexpected sweep error: {e}"),
            }
        }
        Ok(())
    }

    fn with_job(
        &mut self,
        f: impl FnOnce(&mut Job) -> Result<(), ProcessingError>,
    ) -> Result<(), String> {
        let Some(job) = self.job.as_mut() else {
            return Ok(());
        };
        match f(job) {
            Ok(()) => Ok(()),
            Err(e) if processing_crash(&e) => {
                self.job = None;
                Err(format!("job: {e}"))
            }
            Err(e) => panic!("unexpected job error: {e}"),
        }
    }

    /// Replication rounds until every feed's high watermark reaches its
    /// leader log end. `Err` = an armed injector fired mid-round.
    fn replicate_until_stable(&mut self) -> Result<(), String> {
        for _ in 0..16 {
            match self.cluster.replicate_tick() {
                Ok(_) => {}
                Err(e) if messaging_injected(&e) => return Err(format!("replicate: {e}")),
                Err(e) => panic!("unexpected replicate_tick error: {e}"),
            }
            let stable = [EVENTS, KV, CHANGELOG].iter().all(|t| {
                let tp = tp(t);
                self.cluster.latest_offset(&tp).unwrap()
                    == self.cluster.log_end_offset(&tp).unwrap()
            });
            if stable {
                return Ok(());
            }
        }
        Err("replication did not stabilize in 16 rounds".to_string())
    }

    /// Full recovery from an observed crash: revive every broker, run
    /// replication to stability, rebuild the job if it died — retrying
    /// deterministically while armed injectors keep firing — then check
    /// all three invariants.
    fn recover(&mut self, why: String) {
        self.crashes += 1;
        self.trace.push(format!("crash: {why}"));
        let mut recovered = false;
        for _ in 0..RECOVERY_BUDGET {
            for id in 0..BROKERS {
                self.cluster.restart_broker(id).unwrap();
            }
            self.down.clear();
            if let Err(e) = self.replicate_until_stable() {
                self.trace.push(format!("recovery retry: {e}"));
                self.crashes += 1;
                continue;
            }
            if self.job.is_none() {
                match make_job(&self.cluster, &self.inj) {
                    Ok(j) => self.job = Some(j),
                    Err(e) if processing_crash(&e) => {
                        self.trace.push(format!("recovery retry: rebuild: {e}"));
                        self.crashes += 1;
                        continue;
                    }
                    Err(e) => panic!("unexpected error rebuilding job: {e}"),
                }
                self.check_restored_state();
            }
            recovered = true;
            break;
        }
        assert!(
            recovered,
            "recovery did not converge within {RECOVERY_BUDGET} attempts"
        );
        if let Some(before) = self.pending_kv_fold.take() {
            assert_eq!(
                before,
                self.committed_fold(KV),
                "invariant 2: mid-compaction crash changed the committed latest-per-key view"
            );
        }
        self.check_acked();
    }

    /// Invariant 1 (+ the acked floor of invariant 2): every record
    /// acked at `All` on the events feed is still readable, and the
    /// compacted feed never serves a value older than the newest
    /// acked-All record per key.
    fn check_acked(&self) {
        let present = self.committed_events();
        for &(key, tag) in &self.acked_events {
            assert!(
                present.contains(&(key_bytes(key), tag_bytes(tag))),
                "invariant 1: acked-All record (k{key}, {tag}) lost"
            );
        }
        let kv = self.committed_fold(KV);
        for (&key, &tag) in &self.kv_acked {
            let served = kv
                .get(&key_bytes(key))
                .unwrap_or_else(|| panic!("invariant 2: key k{key} with acked record missing"));
            let served_tag: u32 = std::str::from_utf8(served).unwrap().parse().unwrap();
            assert!(
                served_tag >= tag,
                "invariant 2: compacted feed serves tag {served_tag} for k{key}, \
                 older than acked {tag}"
            );
        }
    }

    /// Invariant 3: a freshly restored task's state is exactly the fold
    /// of its changelog partition.
    fn check_restored_state(&mut self) {
        let replay = self.committed_fold(CHANGELOG);
        let job = self.job.as_mut().expect("job rebuilt");
        let restored: BTreeMap<Bytes, Bytes> =
            job.state(0).unwrap().scan_all().into_iter().collect();
        assert_eq!(
            restored, replay,
            "invariant 3: restored state differs from changelog replay"
        );
    }

    /// Final recovery + drain: after the plan, bring everything back,
    /// let the job consume all committed input, and check that its
    /// state converged to the latest-per-key fold of the input feed.
    fn finish(mut self, seed: u64) -> RunReport {
        let mut drained = false;
        for _ in 0..RECOVERY_BUDGET {
            for id in 0..BROKERS {
                self.cluster.restart_broker(id).unwrap();
            }
            self.down.clear();
            if self.replicate_until_stable().is_err() {
                self.crashes += 1;
                continue;
            }
            if self.job.is_none() {
                match make_job(&self.cluster, &self.inj) {
                    Ok(j) => self.job = Some(j),
                    Err(e) if processing_crash(&e) => {
                        self.crashes += 1;
                        continue;
                    }
                    Err(e) => panic!("unexpected error rebuilding job: {e}"),
                }
                self.check_restored_state();
            }
            let job = self.job.as_mut().unwrap();
            match job.run_until_idle(RECOVERY_BUDGET) {
                Ok(_) => {}
                Err(e) if processing_crash(&e) => {
                    self.job = None;
                    self.crashes += 1;
                    continue;
                }
                Err(e) => panic!("unexpected job error draining: {e}"),
            }
            let job = self.job.as_mut().unwrap();
            if job.lag().unwrap() > 0 {
                continue;
            }
            match job.checkpoint() {
                Ok(()) => {}
                Err(e) if processing_crash(&e) => {
                    self.job = None;
                    self.crashes += 1;
                    continue;
                }
                Err(e) => panic!("unexpected checkpoint error: {e}"),
            }
            drained = true;
            break;
        }
        assert!(drained, "final drain did not converge");
        self.check_acked();
        if let Some(before) = self.pending_kv_fold.take() {
            assert_eq!(
                before,
                self.committed_fold(KV),
                "invariant 2: mid-compaction crash changed the committed latest-per-key view"
            );
        }
        // At-least-once convergence: the drained task's keyed state is
        // the latest-per-key fold of the committed input.
        let events_fold = self.committed_fold(EVENTS);
        let state: BTreeMap<Bytes, Bytes> = self
            .job
            .as_mut()
            .unwrap()
            .state(0)
            .unwrap()
            .scan_all()
            .into_iter()
            .filter(|(k, _)| k.starts_with(b"k"))
            .collect();
        assert_eq!(
            state, events_fold,
            "final task state differs from the committed input fold"
        );
        // Invariant 3 one last time, on a brand-new instance: the
        // changelog alone reconstructs the task exactly.
        self.job = None;
        for _ in 0..RECOVERY_BUDGET {
            match make_job(&self.cluster, &self.inj) {
                Ok(j) => {
                    self.job = Some(j);
                    break;
                }
                Err(e) if processing_crash(&e) => {
                    self.crashes += 1;
                    continue;
                }
                Err(e) => panic!("unexpected error rebuilding job: {e}"),
            }
        }
        assert!(self.job.is_some(), "final rebuild did not converge");
        self.check_restored_state();

        let final_kv_fold = self.committed_fold(KV);
        RunReport {
            seed,
            trace: self.trace,
            crashes: self.crashes,
            acked_events: self.acked_events.len(),
            final_events_fold: events_fold,
            final_kv_fold,
            injector_counts: [
                (self.inj.log.operations(), self.inj.log.failures()),
                (self.inj.cluster.operations(), self.inj.cluster.failures()),
                (self.inj.job.operations(), self.inj.job.failures()),
                (self.inj.state.operations(), self.inj.state.failures()),
            ],
            torn_batches: self.torn_batches,
            retention_site_counts: [
                site_count(&self.inj.log, "log.segment-drop"),
                site_count(&self.inj.log, "log.cache-evict"),
            ],
        }
    }
}

/// (operations, failures) observed at one named fault site.
fn site_count(inj: &FailureInjector, site: &str) -> (u64, u64) {
    inj.site_counts()
        .iter()
        .find(|(name, _, _)| *name == site)
        .map(|&(_, ops, fired)| (ops, fired))
        .unwrap_or((0, 0))
}

fn run_seed(seed: u64, obs: &Obs) -> RunReport {
    // CHAOS_TRACE=1 streams the op-by-op trace to stderr while
    // replaying a seed — the first tool to reach for on a failure.
    let verbose = std::env::var("CHAOS_TRACE").is_ok();
    let plan = ChaosPlan::generate(seed, PLAN_LEN);
    let mut h = Harness::new(obs.clone());
    for (i, op) in plan.ops.iter().enumerate() {
        let before = h.trace.len();
        match h.step(op) {
            Ok(()) => h.trace.push(format!("{i} {op:?} ok")),
            Err(why) => {
                h.trace.push(format!("{i} {op:?} crashed: {why}"));
                h.recover(why);
            }
        }
        if verbose {
            for line in &h.trace[before..] {
                eprintln!("[seed {seed}] {line}");
            }
        }
    }
    h.finish(seed)
}

/// Registry snapshot plus causal trace tail for the failing run —
/// printed on invariant failure so the run's counters and event history
/// survive the unwind.
fn observability_dump(obs: &Obs) -> String {
    format!(
        "registry snapshot: {}\ntrace tail: {}",
        obs.snapshot().to_json(),
        obs.tracer().tail_json(32),
    )
}

/// Runs `f` (a full seed run recording into `obs`), converting any
/// invariant failure into a panic that carries the repro command line
/// and the observability dump of the failing run.
fn check_run(seed: u64, obs: &Obs, f: impl FnOnce() -> RunReport) -> RunReport {
    match std::panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(report) => report,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".to_string());
            panic!(
                "chaos invariant failed for seed {seed}: {msg}\n  \
                 reproduce with: CHAOS_SEED={seed} cargo test -q --test chaos\n{}",
                observability_dump(obs)
            );
        }
    }
}

/// Runs one seed against a fresh observability sink.
fn run_seed_checked(seed: u64) -> RunReport {
    let obs = Obs::default();
    check_run(seed, &obs, || run_seed(seed, &obs))
}

#[test]
fn chaos_seeds_hold_invariants() {
    // Replay mode: CHAOS_SEED=<n> runs exactly one seed.
    if let Ok(s) = std::env::var("CHAOS_SEED") {
        let seed: u64 = s.parse().expect("CHAOS_SEED must be a u64");
        let report = run_seed_checked(seed);
        println!(
            "seed {seed}: {} crashes, {} acked-All records, trace {} lines",
            report.crashes,
            report.acked_events,
            report.trace.len()
        );
        return;
    }
    let mut crashes = 0;
    let mut acked = 0;
    let mut fired = [0u64; 4];
    let mut torn_batches = [0u64; 2];
    let mut retention_sites = [(0u64, 0u64); 2];
    for seed in 0..SEEDS {
        let report = run_seed_checked(seed);
        crashes += report.crashes;
        acked += report.acked_events;
        for (i, &(_, f)) in report.injector_counts.iter().enumerate() {
            fired[i] += f;
        }
        for (i, &torn) in report.torn_batches.iter().enumerate() {
            torn_batches[i] += torn;
        }
        for (i, &(o, f)) in report.retention_site_counts.iter().enumerate() {
            retention_sites[i].0 += o;
            retention_sites[i].1 += f;
        }
    }
    // The harness must not be vacuous: plenty of crashes, plenty of
    // acknowledged data at risk, and every layer's injector fired.
    assert!(
        crashes >= 100,
        "only {crashes} crashes across {SEEDS} seeds"
    );
    assert!(
        acked >= 500,
        "only {acked} acked-All records across {SEEDS} seeds"
    );
    for (i, name) in ["log", "cluster", "job", "state"].iter().enumerate() {
        assert!(
            fired[i] > 0,
            "the {name} injector never fired across {SEEDS} seeds"
        );
    }
    // Armed faults must actually land on multi-record group commits,
    // at both stages — mid-batch crashes are the point of
    // `ChaosOp::ProduceBatch`, and a sweep where no injected failure
    // ever tears one would test nothing new.
    for (i, stage) in ["log.append", "replication.fetch"].iter().enumerate() {
        assert!(
            torn_batches[i] > 0,
            "no armed fault ever fired at {stage} inside a ProduceBatch across \
             {SEEDS} seeds — torn-batch crashes are untested"
        );
    }
    // Same for the segment-lifecycle sites: whole-segment drops and
    // cache evictions must both happen and both absorb armed faults —
    // otherwise `ChaosOp::EnforceRetention` / `ChaosOp::CacheSweep`
    // would be decorative.
    for (i, name) in ["log.segment-drop", "log.cache-evict"].iter().enumerate() {
        let (ops, hit) = retention_sites[i];
        assert!(
            ops > 0,
            "fault site {name} never reached across {SEEDS} seeds"
        );
        assert!(
            hit > 0,
            "no armed fault ever fired at {name} across {SEEDS} seeds \
             ({ops} ops) — segment-lifecycle crashes are untested"
        );
    }
}

#[test]
fn chaos_runs_are_deterministic_per_seed() {
    for seed in [3, 17, 41] {
        let a = run_seed_checked(seed);
        let b = run_seed_checked(seed);
        assert_eq!(
            a, b,
            "seed {seed} produced two different runs — nondeterminism breaks \
             CHAOS_SEED replay"
        );
    }
}

#[test]
fn distinct_seeds_explore_distinct_schedules() {
    let a = run_seed_checked(1);
    let b = run_seed_checked(2);
    assert_ne!(a.trace, b.trace, "seeds 1 and 2 ran identical schedules");
}

/// A forced invariant failure must surface the registry snapshot and
/// the causal trace tail of the failing run in the panic it raises.
#[test]
fn invariant_failure_carries_observability_dump() {
    let obs = Obs::default();
    // Record some real activity into the sink first, so the dump has
    // counters and events to show.
    let mut h = Harness::new(obs.clone());
    for i in 0..5 {
        h.produce(1, i, AckChoice::All).unwrap();
    }
    let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
        check_run(9999, &obs, || panic!("forced invariant failure"))
    }))
    .expect_err("check_run must re-panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .expect("panic payload is a formatted string");
    assert!(msg.contains("forced invariant failure"), "{msg}");
    assert!(msg.contains("CHAOS_SEED=9999"), "{msg}");
    assert!(msg.contains("registry snapshot:"), "{msg}");
    assert!(msg.contains("trace tail:"), "{msg}");
    #[cfg(not(feature = "obs-off"))]
    {
        assert!(msg.contains("cluster.messages_in"), "{msg}");
        assert!(msg.contains("\"produce\""), "{msg}");
    }
}
