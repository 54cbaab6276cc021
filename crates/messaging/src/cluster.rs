//! The broker cluster: partitioned, replicated topics.
//!
//! Every partition has one leader and N−1 followers, and its §4.3
//! replication rules (leader append, acknowledgement levels, the ISR,
//! the high watermark, election and divergence repair) live in
//! `PartitionCore` (`partition.rs`). This module
//! routes operations to partitions, owns broker liveness and sessions,
//! decides injected faults, records metrics and spans, and mirrors each
//! partition's `leader|isr` into the coordination service whenever
//! either changes.
//!
//! ## Locking model
//!
//! Cluster-wide metadata (broker liveness, the topic map) lives under
//! the `cluster.state` reader–writer lock; each partition's mutable
//! state lives behind its own `partition.state` mutex shard
//! ([`PartitionShard`]), ranked strictly below it. Every public method
//! resolves the shard and the liveness view under a brief metadata read,
//! drops the cluster guard, locks the shard and makes one core call — so
//! producers on different partitions never serialize on one lock. Broker
//! kills, restarts and replication rounds walk the partitions one shard
//! at a time under the cluster guard. Lockdep holds the rank order at
//! run time, on every chaos seed and model-checked interleaving.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use liquid_coord::{CoordService, Session};
use liquid_log::{Log, LogError, ReadCacheConfig, RecordBatch, Records, SegmentReadCache};
use liquid_obs::{CounterHandle, GaugeHandle, HistogramHandle, Obs};
use liquid_sim::clock::SharedClock;
use liquid_sim::lockdep::{Mutex, RwLock};

use crate::config::{AckLevel, TopicConfig};
pub use crate::config::{ClusterConfig, ClusterConfigBuilder};
use crate::error::MessagingError;
use crate::ids::{BrokerId, MessageBatch, TopicPartition};
use crate::offsets::{OffsetIndex, OffsetManager, OFFSETS_TOPIC};
use crate::partition::{Copied, Hooks, Live, PartitionCore, Site};

/// Coordination session timeout for brokers.
const BROKER_SESSION_TIMEOUT_MS: u64 = 10_000;

/// Pre-resolved registry handles for every cluster-path instrument, so
/// hot paths touch an atomic instead of a name lookup. The twin
/// counters mirror the injector tick sites by exact name — the
/// obs-instrument lint pairs them.
#[derive(Debug, Clone)]
struct ClusterMetrics {
    messages_in: CounterHandle,
    bytes_in: CounterHandle,
    messages_out: CounterHandle,
    bytes_out: CounterHandle,
    replicated_messages: CounterHandle,
    replicated_bytes: CounterHandle,
    /// Frames shipped leader → follower: one per transfer on the
    /// synchronous path, more only for a follower that lagged.
    replicated_frames: CounterHandle,
    elections: CounterHandle,
    produce_failures: CounterHandle,
    producer_ids: CounterHandle,
    replication_fetch: CounterHandle,
    cluster_election: CounterHandle,
    /// Partition `leader|isr` znode writes: one per change, none on an
    /// idle tick.
    partition_state_writes: CounterHandle,
    /// Records per produce call (group-commit size distribution; a
    /// single-record produce counts as 1).
    produce_batch_records: HistogramHandle,
    /// Records per served fetch batch.
    fetch_batch_records: HistogramHandle,
}

impl ClusterMetrics {
    fn resolve(obs: &Obs) -> Self {
        let reg = obs.registry();
        ClusterMetrics {
            messages_in: reg.counter("cluster.messages_in"),
            bytes_in: reg.counter("cluster.bytes_in"),
            messages_out: reg.counter("cluster.messages_out"),
            bytes_out: reg.counter("cluster.bytes_out"),
            replicated_messages: reg.counter("cluster.replicated_messages"),
            replicated_bytes: reg.counter("cluster.replicated_bytes"),
            replicated_frames: reg.counter("cluster.replicated_frames"),
            elections: reg.counter("cluster.elections"),
            produce_failures: reg.counter("cluster.produce_failures"),
            producer_ids: reg.counter("cluster.producer_ids"),
            replication_fetch: reg.counter("replication.fetch"),
            cluster_election: reg.counter("cluster.election"),
            partition_state_writes: reg.counter("cluster.partition_state_writes"),
            produce_batch_records: reg.histogram("cluster.produce.batch_records"),
            fetch_batch_records: reg.histogram("cluster.fetch.batch_records"),
        }
    }
}

struct PartitionState {
    /// The replication state and its rules.
    core: PartitionCore,
    /// Gauges, label and spans: what the cluster records beside it.
    obs: PartitionObs,
    /// This partition's coordination mirror, `/liquid/topics/<t>/<p>`.
    coord_path: String,
    /// The `(leader, isr)` last queued for `coord_path`.
    published: (Option<BrokerId>, Vec<BrokerId>),
}

/// What the cluster records about one partition beside its core.
struct PartitionObs {
    /// Registry gauge mirroring the high watermark
    /// (`partition.high_watermark{tp=topic-p}`).
    hw_gauge: GaugeHandle,
    /// Registry gauge tracking the leader's log end
    /// (`partition.log_end{tp=topic-p}`).
    log_end_gauge: GaugeHandle,
    /// `topic-partition` rendered once, so per-message trace events
    /// don't re-format it on the hot path.
    tp_label: String,
    /// The causal spans of recently produced records, so fetch and
    /// replication can stamp events with the originating span: one
    /// [`SpanRun`] per produced batch, in offset order, the batches
    /// that cover the last [`SPAN_CACHE_MAX`] offsets. Empty in
    /// `obs-off` builds, which mint no spans. Older offsets simply
    /// report span 0.
    spans: VecDeque<SpanRun>,
}

/// The spans of one produced batch, minted as one run: the record at
/// `base + i` (for `base + i < end`) carries span `first + i`.
#[derive(Debug, Clone, Copy)]
struct SpanRun {
    base: u64,
    end: u64,
    first: u64,
}

impl SpanRun {
    /// The span of `offset`, which the run must cover.
    fn span_of(&self, offset: u64) -> u64 {
        self.first.saturating_add(offset.saturating_sub(self.base))
    }
}

/// How many of the newest offsets remember their produce span, at
/// least. Older batches fall off first, so a fetch of long-retained
/// data simply reports span 0.
const SPAN_CACHE_MAX: u64 = 1024;

impl PartitionObs {
    /// Pushes the core's watermark and leader log end into the gauges.
    fn publish_gauges(&self, core: &PartitionCore) {
        self.hw_gauge.set(core.high_watermark());
        if let Some(l) = core.leader() {
            self.log_end_gauge.set(core.log_end(l));
        }
    }

    /// Remembers that the batch at `base..end` carries spans
    /// `first..`: one entry per batch. A re-produced range (after a
    /// truncation) replaces what was remembered for it. Runs that end
    /// before the newest [`SPAN_CACHE_MAX`] offsets go first, so a
    /// stream of batches of one holds at most that many entries.
    fn remember_spans(&mut self, base: u64, end: u64, first: u64) {
        while let Some(last) = self.spans.back_mut() {
            if last.base < base {
                last.end = last.end.min(base);
                break;
            }
            self.spans.pop_back();
        }
        let horizon = end.saturating_sub(SPAN_CACHE_MAX);
        while self.spans.front().is_some_and(|run| run.end <= horizon) {
            self.spans.pop_front();
        }
        self.spans.push_back(SpanRun { base, end, first });
    }

    fn span_at(&self, offset: u64) -> u64 {
        let i = self.spans.partition_point(|run| run.end <= offset);
        self.spans
            .get(i)
            .filter(|run| run.base <= offset)
            .map_or(0, |run| run.span_of(offset))
    }

    /// The span of each of `records` (in offset order), 0 where none is
    /// remembered: one walk along the runs, no lookup per record.
    fn spans_of(&self, records: &Records) -> Vec<u64> {
        let first = records.first().map_or(0, |r| r.offset);
        let skip = self.spans.partition_point(|run| run.end <= first);
        let mut runs = self.spans.range(skip..).peekable();
        records
            .iter()
            .map(|r| {
                while runs.next_if(|run| run.end <= r.offset).is_some() {}
                runs.peek()
                    .filter(|run| run.base <= r.offset)
                    .map_or(0, |run| run.span_of(r.offset))
            })
            .collect()
    }
}

impl PartitionState {
    /// The core and the cluster's hooks for one core call.
    fn split<'a>(&'a mut self, inner: &'a Inner) -> (&'a mut PartitionCore, Effects<'a>) {
        let effects = Effects {
            inner,
            obs: &mut self.obs,
            span: 0,
        };
        (&mut self.core, effects)
    }

    /// The znode data for the current leader and ISR: `leader|isr`,
    /// with `-` for no leader and the ISR comma-separated.
    fn coord_data(&self) -> String {
        let leader = self
            .core
            .leader()
            .map_or_else(|| "-".to_string(), |l| l.to_string());
        let isr: Vec<String> = self.core.isr().iter().map(|b| b.to_string()).collect();
        format!("{leader}|{}", isr.join(","))
    }

    /// Queues a write of this partition's znode if its leader or ISR
    /// moved since the last queued write. It is marked published here,
    /// where the write is queued, so a step that returns before this
    /// call is compared again on the next one.
    fn queue_publish(&mut self, writes: &mut Vec<(String, String)>) {
        if self.published.0 == self.core.leader() && self.published.1 == self.core.isr() {
            return;
        }
        self.published = (self.core.leader(), self.core.isr().to_vec());
        writes.push((self.coord_path.clone(), self.coord_data()));
    }
}

/// The cluster's [`Hooks`] for one core call on one partition: the twin
/// counter and injector tick at each fault decision point, replication
/// counters, spans and gauges.
struct Effects<'a> {
    inner: &'a Inner,
    obs: &'a mut PartitionObs,
    /// The span follower copies are stamped with: the produced batch's
    /// first, or 0 in a replication round, which stamps the newest
    /// record that reached the follower.
    span: u64,
}

impl Hooks for Effects<'_> {
    fn fault(&mut self, site: Site) -> bool {
        let (metrics, injector) = (&self.inner.metrics, &self.inner.config.injector);
        match site {
            Site::Fetch => {
                metrics.replication_fetch.inc();
                injector.tick("replication.fetch")
            }
            Site::Election => {
                metrics.cluster_election.inc();
                injector.tick("cluster.election")
            }
        }
    }

    fn appended(&mut self, base: u64, end: u64) {
        // Spans stay per-record even though the append was one group
        // commit — every record gets its own causal identity, so
        // downstream fetch/deliver events remain attributable — but
        // they are minted, traced and remembered as one run.
        let tracer = self.inner.obs.tracer();
        let records = end.saturating_sub(base);
        let first = tracer.mint_run(records);
        if first != 0 {
            let produced = (0..records).map(|i| (first.saturating_add(i), base.saturating_add(i)));
            tracer.record_all("produce", &self.obs.tp_label, produced);
            self.obs.remember_spans(base, end, first);
        }
        self.span = first;
    }

    fn replicated(&mut self, end: u64, copied: Copied) {
        let metrics = &self.inner.metrics;
        metrics.replicated_messages.add(copied.0);
        metrics.replicated_bytes.add(copied.1);
        metrics.replicated_frames.add(copied.2);
        if copied.0 > 0 {
            let span = match self.span {
                0 => self.obs.span_at(end.saturating_sub(1)),
                batch => batch,
            };
            if span != 0 {
                self.inner
                    .obs
                    .tracer()
                    .record(span, "replicate", &self.obs.tp_label, copied.0);
            }
        }
    }

    fn elected(&mut self) {
        self.inner.metrics.elections.inc();
    }

    fn settled(&mut self, core: &PartitionCore) {
        self.obs.publish_gauges(core);
    }
}

/// One partition's mutable state behind its own lock shard
/// (`partition.state`, ranked strictly below `cluster.state`). The
/// `Arc` lets hot paths resolve the shard under a brief metadata read,
/// drop the cluster-wide guard, and run the whole critical section
/// under this mutex alone. Shards never nest each other — every path
/// locks at most one partition at a time, which the lockdep same-rank
/// reentrancy check enforces at runtime.
struct PartitionShard {
    part: Mutex<PartitionState>,
}

struct TopicState {
    config: TopicConfig,
    partitions: Vec<Arc<PartitionShard>>,
}

struct State {
    /// Each broker's coordination session.
    brokers: BTreeMap<BrokerId, Session>,
    /// Which brokers are up.
    live: Live,
    /// Ordered so per-topic iteration is deterministic (seeded chaos
    /// runs rely on a stable injector tick order).
    topics: BTreeMap<String, TopicState>,
}

/// What a pass over every partition does to each.
#[derive(Debug, Clone, Copy)]
enum Pass {
    /// One replication round.
    Replicate,
    /// The broker went down.
    Down(BrokerId),
    /// The broker came back.
    Up(BrokerId),
}

/// Handle to the messaging cluster. Cheap to clone; all clones share the
/// same cluster.
#[derive(Clone)]
pub struct Cluster {
    inner: Arc<Inner>,
}

struct Inner {
    config: ClusterConfig,
    clock: SharedClock,
    coord: CoordService,
    state: RwLock<State>,
    metrics: ClusterMetrics,
    obs: Obs,
    /// Functional (not just observable) state: mints idempotent
    /// producer ids, so it must keep counting even with `obs-off`.
    producer_ids: AtomicU64,
    /// Cluster-wide sealed-segment read cache shared by every replica
    /// log (`None` when `segment_cache_bytes` is 0). Fetches of sealed
    /// segments are served from here; only misses reach the log's
    /// injectable storage.
    read_cache: Option<Arc<SegmentReadCache>>,
    /// Mints a unique id per replica log so cache keys from different
    /// logs never collide.
    log_ids: AtomicU64,
    offsets: OffsetIndex,
    groups: crate::group::GroupRegistry,
}

impl Cluster {
    /// Starts a cluster of `config.brokers` brokers, registering each in
    /// the coordination service under `/liquid/brokers/<id>`.
    pub fn new(config: ClusterConfig, clock: SharedClock) -> Self {
        let coord = CoordService::new(clock.clone());
        // lint:allow(panic-reachability, reason=the coord service was created one line up, so these static paths cannot collide or have a missing parent; cluster::tests::coord_tracks_broker_liveness)
        coord.ensure_path("/liquid/brokers").expect("static path");
        // lint:allow(panic-reachability, reason=the coord service was created two lines up, so these static paths cannot collide or have a missing parent; cluster::tests::coord_tracks_broker_liveness)
        coord.ensure_path("/liquid/topics").expect("static path");
        let mut brokers = BTreeMap::new();
        for id in 0..config.brokers {
            let session = coord.create_session(BROKER_SESSION_TIMEOUT_MS);
            coord
                .create(
                    &format!("/liquid/brokers/{id}"),
                    id.to_string().as_bytes(),
                    liquid_coord::CreateMode::Ephemeral,
                    Some(session.id()),
                )
                // lint:allow(panic-reachability, reason=broker ids are unique in this loop and the tree is fresh, so the ephemeral path cannot exist yet; cluster::tests::coord_tracks_broker_liveness)
                .expect("fresh broker path");
            brokers.insert(id, session);
        }
        let injector = config.injector.clone();
        let obs = config.obs.clone();
        let read_cache = (config.segment_cache_bytes > 0).then(|| {
            SegmentReadCache::new(ReadCacheConfig {
                capacity_bytes: config.segment_cache_bytes,
                shards: config.segment_cache_shards.max(1),
                obs: obs.clone(),
            })
        });
        Cluster {
            inner: Arc::new(Inner {
                clock,
                coord,
                state: RwLock::new(
                    "cluster.state",
                    State {
                        brokers,
                        live: Live::all_up(config.brokers),
                        topics: BTreeMap::new(),
                    },
                ),
                metrics: ClusterMetrics::resolve(&obs),
                producer_ids: AtomicU64::new(0),
                read_cache,
                log_ids: AtomicU64::new(0),
                offsets: OffsetIndex::new(injector, &obs),
                groups: crate::group::GroupRegistry::default(),
                obs,
                config,
            }),
        }
    }

    /// Single-broker in-memory cluster (quickstart / tests).
    pub fn single_node(clock: SharedClock) -> Self {
        Cluster::new(ClusterConfig::default(), clock)
    }

    /// The coordination service (for observability and recipes).
    pub fn coord(&self) -> &CoordService {
        &self.inner.coord
    }

    /// The observability sink this cluster records into.
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// Point-in-time view of every registered instrument. Cluster
    /// counters live under `cluster.*`, twin fault-site counters under
    /// their site names, and per-partition gauges under
    /// `partition.high_watermark{tp=…}` / `partition.log_end{tp=…}`.
    pub fn snapshot(&self) -> liquid_obs::Snapshot {
        self.inner.obs.snapshot()
    }

    /// The offset manager (consumer checkpoints + metadata annotations),
    /// a view of the internal `__offsets` topic.
    pub fn offsets(&self) -> OffsetManager<'_> {
        OffsetManager {
            cluster: self,
            index: &self.inner.offsets,
        }
    }

    /// The shared clock.
    pub fn clock(&self) -> &SharedClock {
        &self.inner.clock
    }

    /// Creates a topic; partitions are assigned to brokers round-robin
    /// and replicas to the following brokers. Rejects a name that is not
    /// 1–249 characters of `[A-Za-z0-9._-]` or is the reserved
    /// `__offsets`, zero partitions, a replication factor outside
    /// `1..=brokers` and a retention policy with a zero bound.
    pub fn create_topic(&self, name: &str, config: TopicConfig) -> crate::Result<()> {
        let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-');
        let reason = match name {
            OFFSETS_TOPIC => "reserved for the offset manager",
            _ if name.is_empty() || name.len() > 249 => "not 1–249 characters long",
            _ if !name.chars().all(legal) => "a character outside [A-Za-z0-9._-]",
            _ => return self.add_topic(name, config),
        };
        let name = name.to_string();
        Err(MessagingError::InvalidTopicName { name, reason })
    }

    /// [`create_topic`](Self::create_topic) without the name check: the
    /// offset manager creates `__offsets` here.
    pub(crate) fn add_topic(&self, name: &str, config: TopicConfig) -> crate::Result<()> {
        if config.partitions == 0 {
            return Err(MessagingError::ZeroPartitions);
        }
        if let Err(reason) = config.log.retention.validate() {
            return Err(MessagingError::InvalidRetention { reason });
        }
        let mut st = self.inner.state.write();
        let broker_count = st.brokers.len() as u32;
        if config.replication == 0 || config.replication > broker_count {
            return Err(MessagingError::ReplicationOutOfRange {
                replication: config.replication,
                brokers: broker_count,
            });
        }
        if st.topics.contains_key(name) {
            return Err(MessagingError::TopicExists(name.to_string()));
        }
        let broker_ids: Vec<BrokerId> = st.brokers.keys().copied().collect();
        let mut states = Vec::with_capacity(config.partitions as usize);
        for p in 0..config.partitions {
            let assignment: Vec<BrokerId> = (0..config.replication)
                .map(|r| broker_ids[((p + r) % broker_count) as usize])
                .collect();
            let mut replicas = BTreeMap::new();
            for &b in &assignment {
                let log_config = per_replica_log_config(&config, name, p, b, &self.inner.obs);
                let mut log = Log::open(log_config, self.inner.clock.clone())?;
                if let Some(cache) = &self.inner.read_cache {
                    let log_id = self.inner.log_ids.fetch_add(1, Ordering::Relaxed);
                    log.attach_read_cache(cache.clone(), log_id);
                }
                replicas.insert(b, log);
            }
            let tp = TopicPartition::new(name, p);
            let core = PartitionCore::new(tp, assignment, replicas, &st.live);
            let tp_label = format!("{name}-{p}");
            let reg = self.inner.obs.registry();
            states.push(PartitionState {
                published: (core.leader(), core.isr().to_vec()),
                core,
                obs: PartitionObs {
                    hw_gauge: reg.gauge_with("partition.high_watermark", &[("tp", &tp_label)]),
                    log_end_gauge: reg.gauge_with("partition.log_end", &[("tp", &tp_label)]),
                    tp_label,
                    spans: VecDeque::new(),
                },
                coord_path: format!("/liquid/topics/{name}/{p}"),
            });
        }
        // Each partition's znode is created once, holding its first
        // `leader|isr`; later changes are a plain `set_data`.
        let coord = &self.inner.coord;
        coord.ensure_path(&format!("/liquid/topics/{name}")).ok();
        let mut partitions = Vec::with_capacity(states.len());
        for ps in states {
            let data = ps.coord_data();
            let mode = liquid_coord::CreateMode::Persistent;
            if coord
                .create(&ps.coord_path, data.as_bytes(), mode, None)
                .is_ok()
            {
                self.inner.metrics.partition_state_writes.inc();
            }
            partitions.push(Arc::new(PartitionShard {
                part: Mutex::new("partition.state", ps),
            }));
        }
        st.topics
            .insert(name.to_string(), TopicState { config, partitions });
        Ok(())
    }

    /// Names of topics with a compacted retention policy, sorted.
    pub fn compacted_topics(&self) -> Vec<String> {
        let st = self.inner.state.read();
        let mut names: Vec<String> = st
            .topics
            .iter()
            .filter(|(_, t)| t.config.log.retention.is_compacted())
            .map(|(n, _)| n.clone())
            .collect();
        names.sort();
        names
    }

    /// Topic names, sorted.
    pub fn topic_names(&self) -> Vec<String> {
        let st = self.inner.state.read();
        let mut names: Vec<String> = st.topics.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of partitions of a topic.
    pub fn partition_count(&self, topic: &str) -> crate::Result<u32> {
        let st = self.inner.state.read();
        st.topics
            .get(topic)
            .map(|t| t.config.partitions)
            .ok_or_else(|| MessagingError::UnknownTopic(topic.to_string()))
    }

    /// Produces one message to a specific partition: a batch of one
    /// through [`produce_batch`](Self::produce_batch). Returns its offset.
    pub fn produce_to(
        &self,
        tp: &TopicPartition,
        key: Option<Bytes>,
        value: Bytes,
        acks: AckLevel,
    ) -> crate::Result<u64> {
        self.produce_batch(tp, RecordBatch::from_pairs([(key, value)], 0), acks, None)
    }

    /// Registers an idempotent producer session; the returned id is
    /// passed with every send so brokers can de-duplicate retries.
    pub fn register_producer(&self) -> u64 {
        self.inner.metrics.producer_ids.inc();
        self.inner.producer_ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The write path: produces a [`RecordBatch`] as one **group
    /// commit** — one lock acquisition, one leader append
    /// ([`Log::append_record_batch`]), and — at [`AckLevel::All`] — one
    /// replication fetch per follower for the entire batch. Returns the
    /// batch's base offset; records occupy `base..base + len`
    /// contiguously.
    ///
    /// Batch boundaries are invisible to readers — `len` batches of one
    /// leave the same log — but each batch is atomic: a fault injected
    /// at the `log.append` or `replication.fetch` site drops or un-acks
    /// it as a whole — the high watermark never lands inside it, so a
    /// torn batch is never partially acknowledged. Records are
    /// re-stamped with broker time at append.
    ///
    /// `dedup` carries one `(producer_id, sequence)` for the whole
    /// batch: a sequence at or below the highest one whose batch the
    /// leader appended is a duplicate retry and is answered with that
    /// batch's base offset without appending, so a retry re-appends
    /// everything or nothing. A produce whose leader append failed
    /// spends no sequence: its retry appends.
    pub fn produce_batch(
        &self,
        tp: &TopicPartition,
        batch: RecordBatch,
        acks: AckLevel,
        dedup: Option<(u64, u64)>,
    ) -> crate::Result<u64> {
        self.produce_led(tp, batch, acks, dedup)
            .map(|(base, _)| base)
    }

    /// [`produce_batch`](Self::produce_batch), also returning the leader
    /// that appended the batch: the offset manager learns of a new
    /// `__offsets` leader from its own commit.
    pub(crate) fn produce_led(
        &self,
        tp: &TopicPartition,
        batch: RecordBatch,
        acks: AckLevel,
        dedup: Option<(u64, u64)>,
    ) -> crate::Result<(u64, Option<BrokerId>)> {
        let now = self.inner.clock.now();
        let (shard, live) = self.resolve(tp)?;
        // The leader append and the high-watermark update are one
        // critical section, or a torn batch could be partially acked.
        let mut ps = shard.part.lock();
        let (core, mut effects) = ps.split(&self.inner);
        let produced = core.produce(batch.stamped(now), acks, dedup, &live, &mut effects);
        let metrics = &self.inner.metrics;
        let (base, records, bytes) = produced.inspect_err(|e| {
            if matches!(e, MessagingError::PartitionUnavailable(_)) {
                metrics.produce_failures.inc();
            }
        })?;
        if records > 0 {
            metrics.messages_in.add(records);
            metrics.bytes_in.add(bytes);
            metrics.produce_batch_records.record(records);
        }
        Ok((base, ps.core.leader()))
    }

    /// Fetches up to `max_bytes` of committed records from `offset` as
    /// one [`MessageBatch`]: the records keep sharing the log's payload
    /// buffers, per-record spans ride alongside, and the batch carries
    /// the exact next fetch position
    /// ([`MessageBatch::end_offset`]) plus the high watermark observed
    /// at fetch time. Fetching at the watermark returns an empty batch.
    pub fn fetch_batch(
        &self,
        tp: &TopicPartition,
        offset: u64,
        max_bytes: u64,
    ) -> crate::Result<MessageBatch> {
        let (shard, live) = self.resolve(tp)?;
        let ps = shard.part.lock();
        let log = ps.core.live_leader_log(&live)?;
        let hw = ps.core.high_watermark();
        // A committed position can fall inside a segment that retention
        // has since dropped whole. Resume at the next live segment's
        // base instead of erroring: the batch's `end_offset` then heals
        // the consumer's position past the retired range, keeping lag
        // exact across the dropped-segment boundary.
        let offset = offset.max(log.start_offset());
        if offset >= hw {
            // Tail fetch — but reject offsets beyond the log end as a
            // consumer bug.
            if offset > log.next_offset() {
                return Err(MessagingError::Log(LogError::OffsetOutOfRange {
                    requested: offset,
                    start: log.start_offset(),
                    end: log.next_offset(),
                }));
            }
            return Ok(MessageBatch::empty(offset, hw));
        }
        let mut records = log.read(offset, max_bytes)?.records;
        records.keep_below(hw);
        let bytes: u64 = records.iter().map(|r| r.value.len() as u64).sum();
        let spans = ps.obs.spans_of(&records);
        let traced = records
            .iter()
            .zip(&spans)
            .filter(|&(_, &span)| span != 0)
            .map(|(r, &span)| (span, r.offset));
        self.inner
            .obs
            .tracer()
            .record_all("fetch", &ps.obs.tp_label, traced);
        let end_offset = match records.last() {
            Some(last) => last
                .offset
                .checked_add(1)
                .ok_or(MessagingError::OffsetOverflow {
                    what: "advancing past a fetched batch",
                    value: last.offset,
                })?,
            None => offset,
        };
        self.inner.metrics.messages_out.add(records.len() as u64);
        self.inner.metrics.bytes_out.add(bytes);
        self.inner
            .metrics
            .fetch_batch_records
            .record(records.len() as u64);
        Ok(MessageBatch::new(records, spans, end_offset, hw))
    }

    /// First retained offset on the leader's log — the lowest offset a
    /// consumer can still read; retention and compaction move it up.
    /// Contrast with [`latest_offset`](Self::latest_offset) (high
    /// watermark) and [`log_end_offset`](Self::log_end_offset)
    /// (leader's append point).
    pub fn earliest_offset(&self, tp: &TopicPartition) -> crate::Result<u64> {
        let (shard, _) = self.resolve(tp)?;
        let ps = shard.part.lock();
        Ok(ps.core.leader_log()?.start_offset())
    }

    /// The **high watermark**: the first offset a consumer cannot yet
    /// read, because records at or past it are not replicated to every
    /// ISR member. Always `<=` [`log_end_offset`](Self::log_end_offset);
    /// the gap between the two is the replication lag. A consumer whose
    /// [`position`](crate::Consumer::position) equals this value is
    /// fully caught up (see [`Consumer::lag`](crate::Consumer::lag)).
    pub fn latest_offset(&self, tp: &TopicPartition) -> crate::Result<u64> {
        let (shard, _) = self.resolve(tp)?;
        let ps = shard.part.lock();
        Ok(ps.core.high_watermark())
    }

    /// The leader's **log-end offset**: where the next append lands.
    /// May exceed [`latest_offset`](Self::latest_offset) (the high
    /// watermark) when followers lag; records in that window exist on
    /// the leader but are not yet consumable or crash-durable.
    pub fn log_end_offset(&self, tp: &TopicPartition) -> crate::Result<u64> {
        let (shard, _) = self.resolve(tp)?;
        let ps = shard.part.lock();
        Ok(ps.core.leader_log()?.next_offset())
    }

    /// First offset whose record timestamp is `>= ts` (rewind by time).
    pub fn offset_for_timestamp(
        &self,
        tp: &TopicPartition,
        ts: liquid_sim::clock::Ts,
    ) -> crate::Result<Option<u64>> {
        let (shard, _) = self.resolve(tp)?;
        let ps = shard.part.lock();
        Ok(ps.core.leader_log()?.offset_for_timestamp(ts)?)
    }

    /// Current leader of a partition.
    pub fn leader(&self, tp: &TopicPartition) -> crate::Result<Option<BrokerId>> {
        let (shard, _) = self.resolve(tp)?;
        let ps = shard.part.lock();
        Ok(ps.core.leader())
    }

    /// Current ISR of a partition.
    pub fn isr(&self, tp: &TopicPartition) -> crate::Result<Vec<BrokerId>> {
        let (shard, _) = self.resolve(tp)?;
        let ps = shard.part.lock();
        Ok(ps.core.isr().to_vec())
    }

    /// Each replica's log end, by broker: how far every follower trails
    /// the leader's [`log_end_offset`](Self::log_end_offset).
    pub fn replica_ends(&self, tp: &TopicPartition) -> crate::Result<BTreeMap<BrokerId, u64>> {
        let (shard, _) = self.resolve(tp)?;
        let ps = shard.part.lock();
        let replicas = ps.core.replicas();
        Ok(replicas
            .iter()
            .map(|(&b, log)| (b, log.next_offset()))
            .collect())
    }

    /// Runs one replication round: every live follower copies what it is
    /// missing from its leader; ISR membership and high watermarks are
    /// recomputed; broker sessions heartbeat; partitions whose leader or
    /// ISR moved rewrite their znode. Returns messages copied.
    pub fn replicate_tick(&self) -> crate::Result<u64> {
        let st = self.inner.state.read();
        // Heartbeat live brokers so their coordination sessions survive.
        for (&id, session) in &st.brokers {
            if st.live.up(id) {
                session.heartbeat().ok();
            }
        }
        self.pass(st, Pass::Replicate)
    }

    /// Crashes a broker: its coordination session expires, and
    /// partitions it led elect a new leader from the remaining ISR.
    /// Unreplicated records on the old leader are lost — this is the
    /// `acks` durability trade-off of §4.3.
    pub fn kill_broker(&self, id: BrokerId) -> crate::Result<()> {
        let mut st = self.inner.state.write();
        let session = st
            .brokers
            .get(&id)
            .ok_or(MessagingError::UnknownBroker(id))?;
        if !st.live.up(id) {
            return Ok(());
        }
        self.inner.coord.expire_session(session.id());
        st.live = st.live.with(id, false);
        self.pass(st, Pass::Down(id)).map(|_| ())
    }

    /// Restarts a crashed broker. Its replicas drop their uncommitted
    /// suffix and rejoin the ISR once they catch up via
    /// [`replicate_tick`](Self::replicate_tick).
    pub fn restart_broker(&self, id: BrokerId) -> crate::Result<()> {
        let mut st = self.inner.state.write();
        if !st.brokers.contains_key(&id) {
            return Err(MessagingError::UnknownBroker(id));
        }
        if st.live.up(id) {
            return Ok(());
        }
        let session = self.inner.coord.create_session(BROKER_SESSION_TIMEOUT_MS);
        self.inner
            .coord
            .create(
                &format!("/liquid/brokers/{id}"),
                id.to_string().as_bytes(),
                liquid_coord::CreateMode::Ephemeral,
                Some(session.id()),
            )
            .ok();
        st.brokers.insert(id, session);
        st.live = st.live.with(id, true);
        self.pass(st, Pass::Up(id)).map(|_| ())
    }

    /// How many brokers the cluster has, up or down.
    pub(crate) fn broker_count(&self) -> u32 {
        self.inner.config.brokers
    }

    /// All broker ids, sorted.
    pub fn broker_ids(&self) -> Vec<BrokerId> {
        self.inner.state.read().brokers.keys().copied().collect()
    }

    /// Applies retention to every partition log; returns segments
    /// deleted.
    pub fn enforce_retention(&self) -> crate::Result<usize> {
        let st = self.inner.state.read();
        let mut deleted = 0;
        for topic in st.topics.values() {
            for shard in &topic.partitions {
                let mut ps = shard.part.lock();
                for log in ps.core.logs_mut() {
                    deleted += log.enforce_retention()?.len();
                }
            }
        }
        Ok(deleted)
    }

    /// Runs a compaction pass over every partition of a topic; returns
    /// the summed stats.
    pub fn compact_topic(&self, topic: &str) -> crate::Result<liquid_log::CompactionStats> {
        let st = self.inner.state.read();
        let t = st
            .topics
            .get(topic)
            .ok_or_else(|| MessagingError::UnknownTopic(topic.to_string()))?;
        let mut total = liquid_log::CompactionStats::default();
        for shard in &t.partitions {
            let mut ps = shard.part.lock();
            for log in ps.core.logs_mut() {
                let s = log.compact()?;
                total.records_before += s.records_before;
                total.records_after += s.records_after;
                total.bytes_before += s.bytes_before;
                total.bytes_after += s.bytes_after;
                total.tombstones_removed += s.tombstones_removed;
            }
        }
        Ok(total)
    }

    /// Total log bytes across all replicas of a topic (includes
    /// replication — the paper's §5 in/out amplification).
    pub fn topic_size_bytes(&self, topic: &str) -> crate::Result<u64> {
        let st = self.inner.state.read();
        let t = st
            .topics
            .get(topic)
            .ok_or_else(|| MessagingError::UnknownTopic(topic.to_string()))?;
        let mut total = 0u64;
        for shard in &t.partitions {
            let ps = shard.part.lock();
            total += ps
                .core
                .replicas()
                .values()
                .map(|l| l.size_bytes())
                .sum::<u64>();
        }
        Ok(total)
    }

    pub(crate) fn group_registry(&self) -> &crate::group::GroupRegistry {
        &self.inner.groups
    }

    /// Writes the `leader|isr` changes a pass queued to their znodes
    /// (`/liquid/topics/<t>/<p>`). Runs after the pass dropped its
    /// locks, so the mirror never lengthens a `partition.state` section.
    fn write_partition_states(&self, writes: Vec<(String, String)>) {
        for (path, data) in writes {
            if self
                .inner
                .coord
                .set_data(&path, data.as_bytes(), None)
                .is_ok()
            {
                self.inner.metrics.partition_state_writes.inc();
            }
        }
    }

    /// Runs `pass` on every partition, one shard at a time, in the
    /// deterministic topic order. A partition whose leader or ISR may
    /// have moved queues a write of its znode, made once the locks drop;
    /// an idle round leaves the queue empty and unallocated. A failure
    /// stops the pass but not the writes it already queued. Returns
    /// messages copied.
    fn pass<G: Deref<Target = State>>(&self, st: G, pass: Pass) -> crate::Result<u64> {
        let mut total = 0u64;
        let mut writes = Vec::new();
        let mut failed = None;
        'topics: for t in st.topics.values() {
            for shard in &t.partitions {
                let mut ps = shard.part.lock();
                let (core, mut effects) = ps.split(&self.inner);
                let step = match pass {
                    Pass::Replicate => core.replicate(&st.live, &mut effects).map(|n| (n, true)),
                    Pass::Down(id) => core
                        .broker_down(id, &st.live, &mut effects)
                        .map(|led| (0, led)),
                    Pass::Up(id) => core.broker_up(id).map(|()| (0, false)),
                };
                match step {
                    Ok((copied, publish)) => {
                        total += copied;
                        if publish {
                            ps.queue_publish(&mut writes);
                        }
                    }
                    Err(e) => {
                        failed = Some(e);
                        drop(ps);
                        break 'topics;
                    }
                }
            }
        }
        drop(st);
        self.write_partition_states(writes);
        failed.map_or(Ok(total), Err)
    }

    /// Resolves `tp`'s shard and the liveness view under a brief
    /// `cluster.state` read. The guard drops before the caller locks
    /// the shard, so no path holds the cluster-wide lock across one
    /// partition's critical section. The view may be stale by then: a
    /// broker that dies after this read is indistinguishable from one
    /// that dies just after the call, and leadership itself is read
    /// under the shard lock, where kills and restarts change it.
    fn resolve(&self, tp: &TopicPartition) -> crate::Result<(Arc<PartitionShard>, Live)> {
        let st = self.inner.state.read();
        let shard = st
            .topics
            .get(&tp.topic)
            .ok_or_else(|| MessagingError::UnknownTopic(tp.topic.clone()))?
            .partitions
            .get(tp.partition as usize)
            .cloned()
            .ok_or_else(|| MessagingError::UnknownPartition(tp.clone()))?;
        Ok((shard, st.live.clone()))
    }
}

fn per_replica_log_config(
    config: &TopicConfig,
    topic: &str,
    partition: u32,
    broker: BrokerId,
    obs: &Obs,
) -> liquid_log::LogConfig {
    let mut lc = config.log.clone();
    // Replica logs record into the cluster's sink: `log.*` instruments
    // aggregate next to `cluster.*` in one registry.
    lc.obs = obs.clone();
    if let liquid_log::StorageKind::Files(dir) = &lc.storage {
        lc.storage = liquid_log::StorageKind::Files(
            dir.join(format!("broker-{broker}"))
                .join(format!("{topic}-{partition}")),
        );
    }
    lc
}

#[cfg(test)]
mod tests;
