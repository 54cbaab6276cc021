//! The broker cluster: partitioned, replicated topics.
//!
//! Replication follows the paper's §4.3 design: every partition has one
//! **leader** and N−1 **followers**; followers replicate by reading from
//! the leader and appending to their local logs. A coordination service
//! tracks the **in-sync replicas** (ISR) — followers within a
//! configurable lag of the leader. On leader failure a new leader is
//! elected from the ISR, so the partition tolerates N−1 failures with N
//! in-sync replicas. The acknowledgement level chosen by producers
//! ([`AckLevel`]) trades durability for latency: `All` waits for every
//! ISR member, `Leader` for the leader alone, `None` for nobody.
//!
//! Consumers only see records up to the **high watermark** — the offset
//! replicated to every ISR member — so an elected leader never exposes
//! records that could be lost.
//!
//! ## Locking model
//!
//! Cluster-wide metadata (broker liveness, the topic map) lives under
//! the `cluster.state` reader–writer lock; each partition's mutable
//! state lives behind its own `partition.state` mutex shard
//! ([`PartitionShard`]), ranked strictly below it. Hot paths resolve
//! the shard under a brief metadata read, drop the cluster guard, and
//! run the whole append/fetch critical section under the shard alone —
//! so producers on different partitions never serialize on one lock.
//! The split is analyzer-proven: the `shard` pass in liquid-lint
//! classifies every ranked critical section as partition-local or
//! cross-partition (`target/analysis/shardability.json`), and the
//! produce/fetch sections here are the partition-local ones it flagged
//! while they still ran under the cluster-wide write lock.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use liquid_coord::{CoordService, Session};
use liquid_log::{Log, LogError, ReadCacheConfig, Record, RecordBatch, SegmentReadCache};
use liquid_obs::{CounterHandle, GaugeHandle, HistogramHandle, Obs};
use liquid_sim::clock::SharedClock;
use liquid_sim::failure::FailureInjector;
use liquid_sim::lockdep::{Mutex, RwLock};
use liquid_sim::sched::Shared;

use crate::config::{AckLevel, TopicConfig};
use crate::error::MessagingError;
use crate::ids::{BrokerId, MessageBatch, TopicPartition};
use crate::offsets::OffsetManager;

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of brokers.
    pub brokers: u32,
    /// Default topic replication factor; [`ClusterConfigBuilder::build`]
    /// holds it to `1..=brokers`.
    pub default_replication: u32,
    /// A follower may lag the leader by at most this many records and
    /// remain in the ISR.
    pub replica_lag_max: u64,
    /// Coordination session timeout for brokers.
    pub session_timeout_ms: u64,
    /// Fault injector for replication fetches, leader elections and
    /// offset commits. Disabled by default.
    pub injector: FailureInjector,
    /// Observability sink: every cluster instrument registers here and
    /// produce spans are minted from its tracer.
    pub obs: Obs,
    /// Byte capacity of the cluster-wide sealed-segment read cache
    /// shared by every replica log. Hot fetches are served from cached
    /// decoded segments; cold fetches fall through to the log's
    /// storage. Zero disables caching.
    pub segment_cache_bytes: u64,
    /// Lock shards in the segment read cache (concurrent fetches on
    /// different segments only contend within one shard).
    pub segment_cache_shards: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            brokers: 1,
            default_replication: 1,
            replica_lag_max: 0,
            session_timeout_ms: 10_000,
            injector: FailureInjector::disabled(),
            obs: Obs::default(),
            segment_cache_bytes: 64 * 1024 * 1024,
            segment_cache_shards: 8,
        }
    }
}

impl ClusterConfig {
    /// A validating builder; prefer this over struct literals so
    /// impossible combinations are rejected before the cluster starts.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder::default()
    }

    /// A cluster with `n` brokers and default tuning.
    pub fn with_brokers(n: u32) -> Self {
        ClusterConfig {
            brokers: n,
            ..ClusterConfig::default()
        }
    }
}

/// Builder for [`ClusterConfig`] with typed validation at
/// [`build`](ClusterConfigBuilder::build) time.
#[derive(Debug, Clone, Default)]
pub struct ClusterConfigBuilder {
    config: ClusterConfig,
}

impl ClusterConfigBuilder {
    /// Sets the broker count (must end up > 0).
    pub fn brokers(mut self, n: u32) -> Self {
        self.config.brokers = n;
        self
    }

    /// Sets the default topic replication factor (must end up in
    /// `1..=brokers`).
    pub fn replication(mut self, replication: u32) -> Self {
        self.config.default_replication = replication;
        self
    }

    /// Sets the maximum follower lag tolerated inside the ISR.
    pub fn replica_lag_max(mut self, lag: u64) -> Self {
        self.config.replica_lag_max = lag;
        self
    }

    /// Sets the coordination session timeout.
    pub fn session_timeout_ms(mut self, ms: u64) -> Self {
        self.config.session_timeout_ms = ms;
        self
    }

    /// Installs a fault injector on replication/election/commit paths.
    pub fn injector(mut self, injector: FailureInjector) -> Self {
        self.config.injector = injector;
        self
    }

    /// Installs the observability sink instruments register into.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.config.obs = obs;
        self
    }

    /// Sets the byte capacity of the shared sealed-segment read cache
    /// (0 disables it).
    pub fn segment_cache_bytes(mut self, bytes: u64) -> Self {
        self.config.segment_cache_bytes = bytes;
        self
    }

    /// Sets the shard count of the segment read cache.
    pub fn segment_cache_shards(mut self, shards: usize) -> Self {
        self.config.segment_cache_shards = shards;
        self
    }

    /// Validates and returns the config: rejects zero brokers and a
    /// default replication factor outside `1..=brokers`.
    pub fn build(self) -> crate::Result<ClusterConfig> {
        if self.config.brokers == 0 {
            return Err(MessagingError::ZeroBrokers);
        }
        if self.config.default_replication == 0
            || self.config.default_replication > self.config.brokers
        {
            return Err(MessagingError::ReplicationOutOfRange {
                replication: self.config.default_replication,
                brokers: self.config.brokers,
            });
        }
        Ok(self.config)
    }
}

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
            produce_batch_records: reg.histogram("cluster.produce.batch_records"),
            fetch_batch_records: reg.histogram("cluster.fetch.batch_records"),
        }
    }
}

struct BrokerState {
    online: bool,
    session: Session,
}

struct PartitionState {
    /// Brokers assigned to host replicas (first = preferred leader).
    assignment: Vec<BrokerId>,
    /// Current leader, if any live ISR member exists.
    leader: Option<BrokerId>,
    /// In-sync replicas (always includes the leader when one exists).
    isr: Vec<BrokerId>,
    /// One log per assigned broker. Ordered so iteration (and therefore
    /// fault-injector tick order) is deterministic across runs.
    replicas: BTreeMap<BrokerId, Log>,
    /// High watermark: first offset *not* known to be on every ISR
    /// member. Consumers read strictly below this. A liquid-check
    /// tracked cell: under a model run every read/write is a schedule
    /// point and feeds the happens-before race detector.
    high_watermark: Shared<u64>,
    /// Per idempotent producer id: the highest sequence number whose
    /// batch the leader appended, and that batch's base offset — what a
    /// duplicate retry is answered with (the exactly-once groundwork
    /// §4.3 calls "an ongoing effort").
    producer_seqs: HashMap<u64, (u64, u64)>,
    /// Registry gauge mirroring `high_watermark`
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

impl PartitionState {
    fn log_end(&self, broker: BrokerId) -> u64 {
        self.replicas
            .get(&broker)
            .map(|l| l.next_offset())
            .unwrap_or(0)
    }

    /// Pushes the current watermark and leader log end into the gauges.
    fn publish_gauges(&self) {
        self.hw_gauge.set(self.high_watermark.get());
        if let Some(l) = self.leader {
            self.log_end_gauge.set(self.log_end(l));
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
    fn spans_of(&self, records: &[Record]) -> Vec<u64> {
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
    brokers: BTreeMap<BrokerId, BrokerState>,
    /// Ordered so per-topic iteration is deterministic (seeded chaos
    /// runs rely on a stable injector tick order).
    topics: BTreeMap<String, TopicState>,
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
    offsets: OffsetManager,
    groups: crate::group::GroupRegistry,
    quotas: crate::quotas::QuotaManager,
}

impl Cluster {
    /// Starts a cluster of `config.brokers` brokers, registering each in
    /// the coordination service under `/liquid/brokers/<id>`.
    pub fn new(config: ClusterConfig, clock: SharedClock) -> Self {
        let coord = CoordService::new(clock.clone());
        // lint:allow(panic-reachability, reason=the coord service was created one line up, so these static paths cannot collide or have a missing parent)
        coord.ensure_path("/liquid/brokers").expect("static path");
        // lint:allow(panic-reachability, reason=the coord service was created two lines up, so these static paths cannot collide or have a missing parent)
        coord.ensure_path("/liquid/topics").expect("static path");
        let mut brokers = BTreeMap::new();
        for id in 0..config.brokers {
            let session = coord.create_session(config.session_timeout_ms);
            coord
                .create(
                    &format!("/liquid/brokers/{id}"),
                    id.to_string().as_bytes(),
                    liquid_coord::CreateMode::Ephemeral,
                    Some(session.id()),
                )
                // lint:allow(panic-reachability, reason=broker ids are unique in this loop and the tree is fresh, so the ephemeral path cannot exist yet)
                .expect("fresh broker path");
            brokers.insert(
                id,
                BrokerState {
                    online: true,
                    session,
                },
            );
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
                clock: clock.clone(),
                coord,
                state: RwLock::new(
                    "cluster.state",
                    State {
                        brokers,
                        topics: BTreeMap::new(),
                    },
                ),
                metrics: ClusterMetrics::resolve(&obs),
                producer_ids: AtomicU64::new(0),
                read_cache,
                log_ids: AtomicU64::new(0),
                offsets: OffsetManager::with_obs(clock.clone(), injector, &obs),
                groups: crate::group::GroupRegistry::default(),
                quotas: crate::quotas::QuotaManager::new(clock),
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

    /// The offset manager (consumer checkpoints + metadata annotations).
    pub fn offsets(&self) -> &OffsetManager {
        &self.inner.offsets
    }

    /// Per-client produce quotas (§3.1: identifying misbehaving
    /// applications).
    pub fn quotas(&self) -> &crate::quotas::QuotaManager {
        &self.inner.quotas
    }

    /// The shared clock.
    pub fn clock(&self) -> &SharedClock {
        &self.inner.clock
    }

    /// Creates a topic; partitions are assigned to brokers round-robin
    /// and replicas to the following brokers. Rejects zero partitions,
    /// a replication factor outside `1..=brokers` and a retention
    /// policy with a zero bound.
    pub fn create_topic(&self, name: &str, config: TopicConfig) -> crate::Result<()> {
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
        let mut partitions = Vec::with_capacity(config.partitions as usize);
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
            let leader = assignment.iter().copied().find(|b| st.brokers[b].online);
            let tp_label = format!("{name}-{p}");
            let reg = self.inner.obs.registry();
            partitions.push(Arc::new(PartitionShard {
                part: Mutex::new(
                    "partition.state",
                    PartitionState {
                        isr: assignment.clone(),
                        assignment,
                        leader,
                        replicas,
                        high_watermark: Shared::new("partition.high_watermark", 0),
                        producer_seqs: HashMap::new(),
                        hw_gauge: reg.gauge_with("partition.high_watermark", &[("tp", &tp_label)]),
                        log_end_gauge: reg.gauge_with("partition.log_end", &[("tp", &tp_label)]),
                        tp_label,
                        spans: VecDeque::new(),
                    },
                ),
            }));
        }
        self.inner
            .coord
            .ensure_path(&format!("/liquid/topics/{name}"))
            .ok();
        st.topics
            .insert(name.to_string(), TopicState { config, partitions });
        drop(st);
        self.publish_partition_states(name);
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
        let now = self.inner.clock.now();
        // Metadata read only: snapshot broker liveness, resolve the
        // partition's shard, and release the cluster-wide lock. The
        // append itself runs under the shard alone, so producers on
        // other partitions are never blocked by this batch.
        let st = self.inner.state.read();
        let brokers_online: HashMap<BrokerId, bool> =
            st.brokers.iter().map(|(&id, b)| (id, b.online)).collect();
        let shard = partition_shard(&st, tp)?;
        drop(st);
        // lint:allow(lock-cost, reason=crash atomicity: the leader append and the high-watermark update must be one critical section or a torn batch can be partially acknowledged; the section spans one partition shard, not the cluster-wide lock)
        let mut ps = shard.part.lock();
        let leader = match ps
            .leader
            // lint:allow(atomicity, reason=brokers_online is a conservative liveness hint: leadership itself is revalidated via ps.leader under the shard lock (kill/restart update it there), and a broker dying after this check is indistinguishable from dying just after the ack — the acks=all ISR sync carries the durability contract)
            .filter(|b| brokers_online.get(b).copied().unwrap_or(false))
        {
            Some(l) => l,
            None => {
                self.inner.metrics.produce_failures.inc();
                return Err(MessagingError::PartitionUnavailable(tp.clone()));
            }
        };
        if batch.is_empty() {
            return Ok(ps.log_end(leader));
        }
        if let Some((producer_id, sequence)) = dedup {
            if let Some(&(last, base)) = ps.producer_seqs.get(&producer_id) {
                if sequence <= last {
                    // Duplicate retry: the whole batch already landed.
                    return Ok(base);
                }
            }
        }
        let leader_log = ps
            .replicas
            .get_mut(&leader)
            .ok_or_else(|| MessagingError::PartitionUnavailable(tp.clone()))?;
        let (base, appended, payload_bytes) = leader_log.append_record_batch(batch.stamped(now))?;
        if let Some((producer_id, sequence)) = dedup {
            ps.producer_seqs.insert(producer_id, (sequence, base));
        }
        let next_end = base
            .checked_add(appended)
            .ok_or(MessagingError::OffsetOverflow {
                what: "advancing past the appended batch",
                value: base,
            })?;
        // Spans stay per-record even though the append was one group
        // commit — every record gets its own causal identity, so
        // downstream fetch/deliver events remain attributable — but
        // they are minted, traced and remembered as one run.
        let tracer = self.inner.obs.tracer();
        let first_span = tracer.mint_run(appended);
        if first_span != 0 {
            let produced =
                (0..appended).map(|i| (first_span.saturating_add(i), base.saturating_add(i)));
            tracer.record_all("produce", &ps.tp_label, produced);
            ps.remember_spans(base, next_end, first_span);
        }
        match acks {
            AckLevel::All => {
                // Synchronously bring every live ISR follower fully up to
                // date, then advance the high watermark.
                let isr = ps.isr.clone();
                let mut synced_ends = vec![next_end];
                for b in isr {
                    // lint:allow(atomicity, reason=stale liveness here only skips the catch-up of a follower that just went offline; the high watermark advances over synced_ends alone, so a skipped follower never counts as synced and the acks=all contract holds)
                    if b == leader || !brokers_online.get(&b).copied().unwrap_or(false) {
                        continue;
                    }
                    self.inner.metrics.replication_fetch.inc();
                    if self.inner.config.injector.tick("replication.fetch") {
                        // Crash mid group-commit: the leader holds the
                        // batch but not every ISR member confirmed. The
                        // high watermark stays below the batch's base,
                        // so the whole batch is unacked — never a
                        // partial acknowledgement.
                        return Err(MessagingError::Injected("replication.fetch"));
                    }
                    let copied = catch_up(&mut ps, leader, b)?;
                    self.note_replicated(copied);
                    if copied.0 > 0 {
                        self.inner.obs.tracer().record(
                            first_span,
                            "replicate",
                            &ps.tp_label,
                            copied.0,
                        );
                    }
                    synced_ends.push(ps.log_end(b));
                }
                let min_end = synced_ends.iter().copied().min().unwrap_or(next_end);
                let hw = ps.high_watermark.get();
                ps.high_watermark.set(hw.max(min_end));
            }
            AckLevel::Leader | AckLevel::None => {
                // Followers catch up on the next replication tick; the
                // high watermark advances then. With a single replica the
                // leader *is* the full ISR, so advance immediately.
                if ps.isr == [leader] {
                    ps.high_watermark.set(next_end);
                }
            }
        }
        ps.publish_gauges();
        self.inner.metrics.messages_in.add(appended);
        self.inner.metrics.bytes_in.add(payload_bytes);
        self.inner.metrics.produce_batch_records.record(appended);
        Ok(base)
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
        // lint:allow(lock-cost, reason=read guard for broker-liveness metadata; the nested partition.state and log.pagecache acquisitions are rank-ordered below cluster.state 40 and the section does no injectable I/O — the report scores it for the ranking, not for a violation)
        let st = self.inner.state.read();
        let shard = partition_shard(&st, tp)?;
        // lint:allow(lock-cost, reason=zero-copy read path: the nested log.pagecache acquisition is rank-ordered (log.pagecache 5 under partition.state 35) and the section does no injectable I/O — the report scores it for the ranking, not for a violation)
        let ps = shard.part.lock();
        let leader = ps
            .leader
            .filter(|b| st.brokers.get(b).is_some_and(|br| br.online))
            .ok_or_else(|| MessagingError::PartitionUnavailable(tp.clone()))?;
        let log = ps
            .replicas
            .get(&leader)
            .ok_or_else(|| MessagingError::PartitionUnavailable(tp.clone()))?;
        let hw = ps.high_watermark.get();
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
        records.retain(|r| r.offset < hw);
        let bytes: u64 = records.iter().map(|r| r.value.len() as u64).sum();
        let spans = ps.spans_of(&records);
        let traced = records
            .iter()
            .zip(&spans)
            .filter(|&(_, &span)| span != 0)
            .map(|(r, &span)| (span, r.offset));
        self.inner
            .obs
            .tracer()
            .record_all("fetch", &ps.tp_label, traced);
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
        let st = self.inner.state.read();
        let shard = partition_shard(&st, tp)?;
        drop(st);
        let ps = shard.part.lock();
        let leader = ps
            .leader
            .ok_or_else(|| MessagingError::PartitionUnavailable(tp.clone()))?;
        ps.replicas
            .get(&leader)
            .map(|log| log.start_offset())
            .ok_or_else(|| MessagingError::PartitionUnavailable(tp.clone()))
    }

    /// The **high watermark**: the first offset a consumer cannot yet
    /// read, because records at or past it are not replicated to every
    /// ISR member. Always `<=` [`log_end_offset`](Self::log_end_offset);
    /// the gap between the two is the replication lag. A consumer whose
    /// [`position`](crate::Consumer::position) equals this value is
    /// fully caught up (see [`Consumer::lag`](crate::Consumer::lag)).
    pub fn latest_offset(&self, tp: &TopicPartition) -> crate::Result<u64> {
        let st = self.inner.state.read();
        let shard = partition_shard(&st, tp)?;
        drop(st);
        let ps = shard.part.lock();
        Ok(ps.high_watermark.get())
    }

    /// The leader's **log-end offset**: where the next append lands.
    /// May exceed [`latest_offset`](Self::latest_offset) (the high
    /// watermark) when followers lag; records in that window exist on
    /// the leader but are not yet consumable or crash-durable.
    pub fn log_end_offset(&self, tp: &TopicPartition) -> crate::Result<u64> {
        let st = self.inner.state.read();
        let shard = partition_shard(&st, tp)?;
        drop(st);
        let ps = shard.part.lock();
        let leader = ps
            .leader
            .ok_or_else(|| MessagingError::PartitionUnavailable(tp.clone()))?;
        ps.replicas
            .get(&leader)
            .map(|log| log.next_offset())
            .ok_or_else(|| MessagingError::PartitionUnavailable(tp.clone()))
    }

    /// First offset whose record timestamp is `>= ts` (rewind by time).
    pub fn offset_for_timestamp(
        &self,
        tp: &TopicPartition,
        ts: liquid_sim::clock::Ts,
    ) -> crate::Result<Option<u64>> {
        let st = self.inner.state.read();
        let shard = partition_shard(&st, tp)?;
        drop(st);
        let ps = shard.part.lock();
        let leader = ps
            .leader
            .ok_or_else(|| MessagingError::PartitionUnavailable(tp.clone()))?;
        let log = ps
            .replicas
            .get(&leader)
            .ok_or_else(|| MessagingError::PartitionUnavailable(tp.clone()))?;
        Ok(log.offset_for_timestamp(ts)?)
    }

    /// Current leader of a partition.
    pub fn leader(&self, tp: &TopicPartition) -> crate::Result<Option<BrokerId>> {
        let st = self.inner.state.read();
        let shard = partition_shard(&st, tp)?;
        drop(st);
        let ps = shard.part.lock();
        Ok(ps.leader)
    }

    /// Current ISR of a partition.
    pub fn isr(&self, tp: &TopicPartition) -> crate::Result<Vec<BrokerId>> {
        let st = self.inner.state.read();
        let shard = partition_shard(&st, tp)?;
        drop(st);
        let ps = shard.part.lock();
        Ok(ps.isr.clone())
    }

    /// Runs one replication round: every live follower copies what it is
    /// missing from its leader; ISR membership and high watermarks are
    /// recomputed; broker sessions heartbeat. Returns messages copied.
    pub fn replicate_tick(&self) -> crate::Result<u64> {
        // Replication holds only the metadata *read* lock: every
        // per-partition mutation happens under that partition's shard,
        // one shard at a time, so produces and fetches on other
        // partitions proceed concurrently with the tick.
        let st = self.inner.state.read();
        // Heartbeat live brokers so their coordination sessions survive.
        for b in st.brokers.values() {
            if b.online {
                b.session.heartbeat().ok();
            }
        }
        let online: HashMap<BrokerId, bool> =
            st.brokers.iter().map(|(&id, b)| (id, b.online)).collect();
        let lag_max = self.inner.config.replica_lag_max;
        let mut total = 0u64;
        let topics: Vec<String> = st.topics.keys().cloned().collect();
        for t in st.topics.values() {
            for shard in &t.partitions {
                let mut ps = shard.part.lock();
                let Some(leader) = ps
                    .leader
                    .filter(|b| online.get(b).copied().unwrap_or(false))
                else {
                    // Try to recover leadership if a replica came back.
                    self.inner.metrics.cluster_election.inc();
                    if self.inner.config.injector.tick("cluster.election") {
                        // Controller crash before the election: the
                        // partition stays leaderless until the next tick.
                        return Err(MessagingError::Injected("cluster.election"));
                    }
                    if elect_leader(&mut ps, &online) {
                        self.inner.metrics.elections.inc();
                    }
                    continue;
                };
                let followers: Vec<BrokerId> = ps
                    .assignment
                    .iter()
                    .copied()
                    .filter(|&b| b != leader && online.get(&b).copied().unwrap_or(false))
                    .collect();
                for b in followers {
                    self.inner.metrics.replication_fetch.inc();
                    if self.inner.config.injector.tick("replication.fetch") {
                        return Err(MessagingError::Injected("replication.fetch"));
                    }
                    let copied = catch_up(&mut ps, leader, b)?;
                    self.note_replicated(copied);
                    if copied.0 > 0 {
                        // Stamp the replicate event with the span of the
                        // newest record that reached this follower.
                        let span = ps.span_at(ps.log_end(b).saturating_sub(1));
                        if span != 0 {
                            self.inner.obs.tracer().record(
                                span,
                                "replicate",
                                &ps.tp_label,
                                copied.0,
                            );
                        }
                    }
                    total += copied.0;
                }
                // Recompute ISR: leader plus followers within lag_max.
                let leader_end = ps.log_end(leader);
                let mut isr = vec![leader];
                for &b in &ps.assignment {
                    if b != leader
                        && online.get(&b).copied().unwrap_or(false)
                        && leader_end - ps.log_end(b) <= lag_max
                    {
                        isr.push(b);
                    }
                }
                isr.sort_unstable();
                ps.isr = isr;
                // High watermark: minimum log end across the ISR.
                let hw = ps.high_watermark.get();
                let min_end = ps.isr.iter().map(|&b| ps.log_end(b)).min().unwrap_or(hw);
                ps.high_watermark.set(hw.max(min_end));
                ps.publish_gauges();
            }
        }
        drop(st);
        for topic in &topics {
            self.publish_partition_states(topic);
        }
        Ok(total)
    }

    /// Crashes a broker: its coordination session expires, it leaves
    /// every ISR, and partitions it led elect a new leader from the
    /// remaining ISR. Unreplicated records on the old leader are lost —
    /// this is the `acks` durability trade-off of §4.3.
    pub fn kill_broker(&self, id: BrokerId) -> crate::Result<()> {
        let mut st = self.inner.state.write();
        let broker = st
            .brokers
            .get_mut(&id)
            .ok_or(MessagingError::UnknownBroker(id))?;
        if !broker.online {
            return Ok(());
        }
        broker.online = false;
        let session_id = broker.session.id();
        self.inner.coord.expire_session(session_id);
        let online: HashMap<BrokerId, bool> =
            st.brokers.iter().map(|(&bid, b)| (bid, b.online)).collect();
        let topics: Vec<String> = st.topics.keys().cloned().collect();
        for t in st.topics.values() {
            for shard in &t.partitions {
                let mut ps = shard.part.lock();
                // The dead broker stays in the ISR: the ISR is the set of
                // replicas known to hold all committed data, and it is
                // the candidate set for future elections — removing the
                // last member would make the partition unrecoverable
                // even after the broker returns. Live leaders shrink the
                // ISR on the next replication tick instead.
                if ps.leader == Some(id) {
                    ps.leader = None;
                    self.inner.metrics.cluster_election.inc();
                    if self.inner.config.injector.tick("cluster.election") {
                        // Controller crash mid-failover: the broker is
                        // already offline and its session expired, but no
                        // new leader was chosen. The next replicate_tick
                        // finishes the election.
                        return Err(MessagingError::Injected("cluster.election"));
                    }
                    if elect_leader(&mut ps, &online) {
                        self.inner.metrics.elections.inc();
                    }
                }
            }
        }
        drop(st);
        for topic in &topics {
            self.publish_partition_states(topic);
        }
        Ok(())
    }

    /// Restarts a crashed broker. Its replicas truncate any uncommitted
    /// suffix (records at or past the high watermark, which may diverge
    /// from what the current leader holds at those offsets) and rejoin
    /// the ISR once they catch up via
    /// [`replicate_tick`](Self::replicate_tick).
    pub fn restart_broker(&self, id: BrokerId) -> crate::Result<()> {
        let mut st = self.inner.state.write();
        if !st.brokers.contains_key(&id) {
            return Err(MessagingError::UnknownBroker(id));
        }
        if st.brokers[&id].online {
            return Ok(());
        }
        let session = self
            .inner
            .coord
            .create_session(self.inner.config.session_timeout_ms);
        self.inner
            .coord
            .create(
                &format!("/liquid/brokers/{id}"),
                id.to_string().as_bytes(),
                liquid_coord::CreateMode::Ephemeral,
                Some(session.id()),
            )
            .ok();
        if let Some(b) = st.brokers.get_mut(&id) {
            b.online = true;
            b.session = session;
        }
        // Divergence repair: drop the uncommitted suffix. Everything at
        // or above the high watermark was never acknowledged at
        // `AckLevel::All`, and this broker may have appended it while
        // briefly leading before it died — a newer leader can hold
        // *different* records at those offsets. Comparing against the
        // current leader's log end is not enough: a diverged suffix of
        // equal or shorter length would survive, and `catch_up` (which
        // resumes from the follower's log end) would skip right past it,
        // permanently leaving wrong content below the fetch point.
        // Truncating to the high watermark is always safe because the
        // watermark is monotone and committed records sit below it.
        for t in st.topics.values() {
            for shard in &t.partitions {
                let mut ps = shard.part.lock();
                if !ps.assignment.contains(&id) {
                    continue;
                }
                if ps.leader == Some(id) {
                    // Still the leader of record (it was never deposed):
                    // its log defines the partition's content going
                    // forward, so the suffix stays.
                    continue;
                }
                let own_end = ps.log_end(id);
                let hw = ps.high_watermark.get();
                if own_end > hw {
                    if let Some(log) = ps.replicas.get_mut(&id) {
                        log.truncate_to(hw)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// All broker ids, sorted.
    pub fn broker_ids(&self) -> Vec<BrokerId> {
        self.inner.state.read().brokers.keys().copied().collect()
    }

    /// Whether a broker is currently online.
    pub fn broker_online(&self, id: BrokerId) -> bool {
        self.inner
            .state
            .read()
            .brokers
            .get(&id)
            .map(|b| b.online)
            .unwrap_or(false)
    }

    /// Preferred-leader election: partitions whose current leader is not
    /// the first live ISR member of their assignment move leadership
    /// back. Run after broker restarts to undo the leadership skew that
    /// failovers cause (load balancing across brokers, §4.4). Returns
    /// the number of partitions whose leader moved.
    pub fn rebalance_leadership(&self) -> crate::Result<usize> {
        // Leadership moves are per-partition state: a metadata read for
        // the broker map, then one shard lock at a time.
        let st = self.inner.state.read();
        let online: HashMap<BrokerId, bool> =
            st.brokers.iter().map(|(&id, b)| (id, b.online)).collect();
        let mut moved = 0;
        let topics: Vec<String> = st.topics.keys().cloned().collect();
        for t in st.topics.values() {
            for shard in &t.partitions {
                let mut ps = shard.part.lock();
                let preferred = ps
                    .assignment
                    .iter()
                    .copied()
                    .find(|b| ps.isr.contains(b) && online.get(b).copied().unwrap_or(false));
                if let Some(p) = preferred {
                    if let Some(current) = ps.leader.filter(|&c| c != p) {
                        // Only safe when the preferred replica is fully
                        // caught up with the current leader.
                        if ps.log_end(p) == ps.log_end(current) {
                            ps.leader = Some(p);
                            moved += 1;
                        }
                    }
                }
            }
        }
        drop(st);
        for topic in &topics {
            self.publish_partition_states(topic);
        }
        if moved > 0 {
            self.inner.metrics.elections.add(moved as u64);
        }
        Ok(moved)
    }

    /// Applies retention to every partition log; returns segments
    /// deleted.
    pub fn enforce_retention(&self) -> crate::Result<usize> {
        let st = self.inner.state.read();
        let mut deleted = 0;
        for topic in st.topics.values() {
            for shard in &topic.partitions {
                let mut ps = shard.part.lock();
                for log in ps.replicas.values_mut() {
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
            for log in ps.replicas.values_mut() {
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
            total += ps.replicas.values().map(|l| l.size_bytes()).sum::<u64>();
        }
        Ok(total)
    }

    pub(crate) fn group_registry(&self) -> &crate::group::GroupRegistry {
        &self.inner.groups
    }

    fn note_replicated(&self, copied: (u64, u64, u64)) {
        self.inner.metrics.replicated_messages.add(copied.0);
        self.inner.metrics.replicated_bytes.add(copied.1);
        self.inner.metrics.replicated_frames.add(copied.2);
    }

    /// Records per-partition leader/ISR into the coordination service
    /// for observability (`/liquid/topics/<t>/<p>` → `leader|isr...`).
    fn publish_partition_states(&self, topic: &str) {
        let entries: Vec<(u32, String)> = {
            let st = self.inner.state.read();
            let Some(t) = st.topics.get(topic) else {
                return;
            };
            t.partitions
                .iter()
                .enumerate()
                .map(|(p, shard)| {
                    let ps = shard.part.lock();
                    let isr: Vec<String> = ps.isr.iter().map(|b| b.to_string()).collect();
                    let leader = ps
                        .leader
                        .map(|l| l.to_string())
                        .unwrap_or_else(|| "-".to_string());
                    (p as u32, format!("{leader}|{}", isr.join(",")))
                })
                .collect()
        };
        for (p, data) in entries {
            let path = format!("/liquid/topics/{topic}/{p}");
            self.inner.coord.ensure_path(&path).ok();
            self.inner.coord.set_data(&path, data.as_bytes(), None).ok();
        }
    }
}

/// Ships what the follower is missing, leader → follower, as the frames
/// the leader stored; returns `(messages, value bytes, frames)`.
///
/// Before copying, the follower's tail is reconciled against the
/// leader's content. Log-end comparisons alone cannot detect every
/// divergence: a broker that dies holding an unacknowledged suffix
/// stays in the ISR, and `acks=All` produces skip offline members when
/// advancing the high watermark — so by the time the broker returns,
/// both its log end and the watermark can sit *past* offsets where it
/// holds different records than the current leader. Walking back from
/// the follower's end until both logs agree (and truncating the
/// divergent suffix) restores the prefix property that makes resuming
/// replication from the follower's log end sound.
fn catch_up(
    ps: &mut PartitionState,
    leader: BrokerId,
    follower: BrokerId,
) -> crate::Result<(u64, u64, u64)> {
    let to = ps.log_end(leader);
    let mut from = ps.log_end(follower).min(to);
    while from > 0 {
        let off = from - 1;
        // Replica maps never shrink, but a missing entry must not panic
        // on a replication path; treat it like the compaction hole below.
        let (Some(leader_log), Some(follower_log)) =
            (ps.replicas.get(&leader), ps.replicas.get(&follower))
        else {
            break;
        };
        // Point lookups: they never fill the segment cache, so probing
        // the last offset of a just-sealed segment at every roll does
        // not decode the whole segment for one record. A record that
        // cannot be read is treated like one that is not there.
        let leader_rec = leader_log.record_at(off).ok().flatten();
        let follower_rec = follower_log.record_at(off).ok().flatten();
        match (leader_rec, follower_rec) {
            (Some(l), Some(f)) => {
                if l.key == f.key && l.value == f.value && l.timestamp == f.timestamp {
                    break;
                }
                from = off;
            }
            // A missing record on either side is a compaction hole, not
            // divergence: compaction rewrites every replica in the same
            // pass and only touches committed (consistent) offsets.
            _ => break,
        }
    }
    if from < ps.log_end(follower) {
        ps.replicas
            .get_mut(&follower)
            .ok_or(MessagingError::UnknownBroker(follower))?
            .truncate_to(from)?;
    }
    if from >= to {
        return Ok((0, 0, 0));
    }
    // The follower now ends at `from`, a prefix of the leader, and the
    // missing suffix moves as the leader's own frames: stored as they
    // are, nothing decoded, re-encoded or checksummed again (DESIGN
    // §18). The transfer is one group commit on the follower — one
    // `log.append` decision point before its first byte, so an injected
    // crash drops the whole transfer, never half of it. Both logs are
    // borrowed out of the map at once, so an error leaves nothing to
    // put back.
    let (mut leader_log, mut follower_log) = (None, None);
    for (&broker, log) in ps.replicas.iter_mut() {
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

/// Elects a leader from the live ISR (preferring assignment order);
/// returns whether a leader was (re-)established. Live replicas truncate
/// divergent suffixes past the new leader's log end.
fn elect_leader(ps: &mut PartitionState, online: &HashMap<BrokerId, bool>) -> bool {
    // A leader must hold every committed record. ISR membership alone is
    // not enough: a broker that was offline while acks=All produces went
    // through stays in the ISR (it remains an election candidate for
    // when it catches up) but its log ends below the high watermark —
    // electing it would make acknowledged records unreadable and
    // truncate them from the other replicas. Such partitions stay
    // leaderless until a caught-up ISR member is back online.
    let hw = ps.high_watermark.get();
    let candidate = ps.assignment.iter().copied().find(|&b| {
        ps.isr.contains(&b) && online.get(&b).copied().unwrap_or(false) && ps.log_end(b) >= hw
    });
    match candidate {
        Some(new_leader) => {
            ps.leader = Some(new_leader);
            let leader_end = ps.log_end(new_leader);
            for &b in &ps.assignment.clone() {
                if b != new_leader && online.get(&b).copied().unwrap_or(false) {
                    let end = ps.log_end(b);
                    if end > leader_end {
                        if let Some(log) = ps.replicas.get_mut(&b) {
                            log.truncate_to(leader_end).ok();
                        }
                    }
                }
            }
            // Candidates are required to reach the high watermark, so
            // this clamp is a no-op kept as defense in depth.
            ps.high_watermark.set(hw.min(leader_end));
            ps.publish_gauges();
            true
        }
        None => false,
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

/// Resolves a partition's shard under the metadata lock. Returns an
/// owned `Arc` so callers can drop the `cluster.state` guard before
/// locking the shard — the hot produce path never holds the
/// cluster-wide lock across an append.
fn partition_shard(st: &State, tp: &TopicPartition) -> crate::Result<Arc<PartitionShard>> {
    st.topics
        .get(&tp.topic)
        .ok_or_else(|| MessagingError::UnknownTopic(tp.topic.clone()))?
        .partitions
        .get(tp.partition as usize)
        .cloned()
        .ok_or_else(|| MessagingError::UnknownPartition(tp.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use liquid_log::RetentionPolicy;
    use liquid_sim::clock::SimClock;

    const DROP_AFTER_1S: RetentionPolicy = RetentionPolicy::DropByAge {
        max_age_ms: 1_000,
        max_bytes: None,
    };

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_string())
    }

    fn cluster(brokers: u32) -> (Cluster, SimClock) {
        let clock = SimClock::new(0);
        (
            Cluster::new(ClusterConfig::with_brokers(brokers), clock.shared()),
            clock,
        )
    }

    #[test]
    fn cluster_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Cluster>();
    }

    #[test]
    fn create_topic_and_produce_fetch() {
        let (c, _) = cluster(1);
        c.create_topic("events", TopicConfig::with_partitions(2))
            .unwrap();
        let tp = TopicPartition::new("events", 0);
        let off = c
            .produce_to(&tp, None, b("hello"), AckLevel::Leader)
            .unwrap();
        assert_eq!(off, 0);
        let msgs = c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].value, b("hello"));
    }

    #[test]
    fn duplicate_topic_rejected() {
        let (c, _) = cluster(1);
        c.create_topic("t", TopicConfig::default()).unwrap();
        assert!(matches!(
            c.create_topic("t", TopicConfig::default()),
            Err(MessagingError::TopicExists(_))
        ));
    }

    #[test]
    fn replication_factor_validated() {
        let (c, _) = cluster(2);
        assert!(c
            .create_topic("t", TopicConfig::default().replication(3))
            .is_err());
        assert!(c
            .create_topic("t2", TopicConfig::with_partitions(0))
            .is_err());
    }

    #[test]
    fn unknown_topic_and_partition_errors() {
        let (c, _) = cluster(1);
        c.create_topic("t", TopicConfig::with_partitions(1))
            .unwrap();
        assert!(matches!(
            c.fetch_batch(&TopicPartition::new("nope", 0), 0, 1),
            Err(MessagingError::UnknownTopic(_))
        ));
        assert!(matches!(
            c.fetch_batch(&TopicPartition::new("t", 9), 0, 1),
            Err(MessagingError::UnknownPartition(_))
        ));
    }

    #[test]
    fn partitions_are_assigned_across_brokers() {
        let (c, _) = cluster(3);
        c.create_topic("t", TopicConfig::with_partitions(3))
            .unwrap();
        let leaders: Vec<_> = (0..3)
            .map(|p| c.leader(&TopicPartition::new("t", p)).unwrap().unwrap())
            .collect();
        // Round-robin assignment: three distinct leaders.
        let mut unique = leaders.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 3, "leaders {leaders:?} should be distinct");
    }

    #[test]
    fn acks_all_replicates_synchronously() {
        let (c, _) = cluster(3);
        c.create_topic("t", TopicConfig::with_partitions(1).replication(3))
            .unwrap();
        let tp = TopicPartition::new("t", 0);
        c.produce_to(&tp, None, b("x"), AckLevel::All).unwrap();
        assert_eq!(c.latest_offset(&tp).unwrap(), 1);
        #[cfg(not(feature = "obs-off"))]
        assert_eq!(c.snapshot().counter("cluster.replicated_messages"), 2);
    }

    #[test]
    fn acks_leader_needs_tick_before_visible() {
        let (c, _) = cluster(3);
        c.create_topic("t", TopicConfig::with_partitions(1).replication(3))
            .unwrap();
        let tp = TopicPartition::new("t", 0);
        c.produce_to(&tp, None, b("x"), AckLevel::Leader).unwrap();
        // Followers lag: HW has not advanced, consumers see nothing.
        assert_eq!(c.latest_offset(&tp).unwrap(), 0);
        assert!(c
            .fetch_batch(&tp, 0, u64::MAX)
            .unwrap()
            .into_messages()
            .is_empty());
        c.replicate_tick().unwrap();
        assert_eq!(c.latest_offset(&tp).unwrap(), 1);
        assert_eq!(
            c.fetch_batch(&tp, 0, u64::MAX)
                .unwrap()
                .into_messages()
                .len(),
            1
        );
    }

    #[test]
    fn leader_failure_elects_isr_member() {
        let (c, _) = cluster(3);
        c.create_topic("t", TopicConfig::with_partitions(1).replication(3))
            .unwrap();
        let tp = TopicPartition::new("t", 0);
        for i in 0..10 {
            c.produce_to(&tp, None, b(&format!("m{i}")), AckLevel::All)
                .unwrap();
        }
        let old_leader = c.leader(&tp).unwrap().unwrap();
        c.kill_broker(old_leader).unwrap();
        let new_leader = c.leader(&tp).unwrap().unwrap();
        assert_ne!(new_leader, old_leader);
        // All 10 messages survive (they were fully replicated).
        let msgs = c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
        assert_eq!(msgs.len(), 10);
        #[cfg(not(feature = "obs-off"))]
        assert_eq!(c.snapshot().counter("cluster.elections"), 1);
    }

    #[test]
    fn unreplicated_messages_lost_with_acks_leader() {
        let (c, _) = cluster(3);
        c.create_topic("t", TopicConfig::with_partitions(1).replication(3))
            .unwrap();
        let tp = TopicPartition::new("t", 0);
        // Fully replicate 5 messages.
        for i in 0..5 {
            c.produce_to(&tp, None, b(&format!("safe{i}")), AckLevel::All)
                .unwrap();
        }
        // 5 more with acks=Leader, never replicated.
        for i in 0..5 {
            c.produce_to(&tp, None, b(&format!("risky{i}")), AckLevel::Leader)
                .unwrap();
        }
        let leader = c.leader(&tp).unwrap().unwrap();
        assert_eq!(c.log_end_offset(&tp).unwrap(), 10);
        c.kill_broker(leader).unwrap();
        // The new leader only has the replicated prefix.
        assert_eq!(c.log_end_offset(&tp).unwrap(), 5);
        let msgs = c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
        assert_eq!(msgs.len(), 5);
        assert!(msgs.iter().all(|m| m.value.starts_with(b"safe")));
    }

    #[test]
    fn tolerates_n_minus_1_failures() {
        let (c, _) = cluster(3);
        c.create_topic("t", TopicConfig::with_partitions(1).replication(3))
            .unwrap();
        let tp = TopicPartition::new("t", 0);
        c.produce_to(&tp, None, b("m"), AckLevel::All).unwrap();
        let l1 = c.leader(&tp).unwrap().unwrap();
        c.kill_broker(l1).unwrap();
        c.produce_to(&tp, None, b("m2"), AckLevel::All).unwrap();
        let l2 = c.leader(&tp).unwrap().unwrap();
        c.kill_broker(l2).unwrap();
        // One replica left: still serving.
        let msgs = c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
        assert_eq!(msgs.len(), 2);
        // Kill the last: unavailable.
        let l3 = c.leader(&tp).unwrap().unwrap();
        c.kill_broker(l3).unwrap();
        assert!(matches!(
            c.produce_to(&tp, None, b("m3"), AckLevel::All),
            Err(MessagingError::PartitionUnavailable(_))
        ));
        assert!(matches!(
            c.fetch_batch(&tp, 0, 1),
            Err(MessagingError::PartitionUnavailable(_))
        ));
    }

    #[test]
    fn restarted_broker_truncates_divergence_and_rejoins() {
        let (c, _) = cluster(2);
        c.create_topic("t", TopicConfig::with_partitions(1).replication(2))
            .unwrap();
        let tp = TopicPartition::new("t", 0);
        for i in 0..4 {
            c.produce_to(&tp, None, b(&format!("a{i}")), AckLevel::All)
                .unwrap();
        }
        // Leader-only writes, then the leader dies: divergence.
        for i in 0..3 {
            c.produce_to(&tp, None, b(&format!("lost{i}")), AckLevel::Leader)
                .unwrap();
        }
        let old = c.leader(&tp).unwrap().unwrap();
        c.kill_broker(old).unwrap();
        assert_eq!(c.log_end_offset(&tp).unwrap(), 4);
        // New leader takes writes.
        for i in 0..2 {
            c.produce_to(&tp, None, b(&format!("new{i}")), AckLevel::All)
                .unwrap();
        }
        // Old leader comes back: must truncate its 3 divergent records.
        c.restart_broker(old).unwrap();
        c.replicate_tick().unwrap();
        assert!(c.isr(&tp).unwrap().contains(&old), "rejoined ISR");
        let msgs = c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
        assert_eq!(msgs.len(), 6);
        assert!(msgs.iter().all(|m| !m.value.starts_with(b"lost")));
    }

    #[test]
    fn coord_tracks_broker_liveness() {
        let (c, _) = cluster(2);
        assert!(c.coord().exists("/liquid/brokers/0", None).unwrap());
        c.kill_broker(0).unwrap();
        assert!(!c.coord().exists("/liquid/brokers/0", None).unwrap());
        c.restart_broker(0).unwrap();
        assert!(c.coord().exists("/liquid/brokers/0", None).unwrap());
    }

    #[test]
    fn coord_publishes_partition_state() {
        let (c, _) = cluster(2);
        c.create_topic("t", TopicConfig::with_partitions(1).replication(2))
            .unwrap();
        let (data, _) = c.coord().get_data("/liquid/topics/t/0").unwrap();
        let s = String::from_utf8(data).unwrap();
        assert!(s.contains('|'), "state format leader|isr: {s}");
    }

    #[test]
    fn preferred_leader_restored_after_failover() {
        let (c, _) = cluster(3);
        c.create_topic("t", TopicConfig::with_partitions(1).replication(3))
            .unwrap();
        let tp = TopicPartition::new("t", 0);
        for i in 0..5 {
            c.produce_to(&tp, None, b(&format!("m{i}")), AckLevel::All)
                .unwrap();
        }
        let preferred = c.leader(&tp).unwrap().unwrap();
        c.kill_broker(preferred).unwrap();
        let interim = c.leader(&tp).unwrap().unwrap();
        assert_ne!(interim, preferred);
        // Preferred broker returns, catches up, and a rebalance pass
        // moves leadership back.
        c.restart_broker(preferred).unwrap();
        c.replicate_tick().unwrap();
        assert_eq!(c.rebalance_leadership().unwrap(), 1);
        assert_eq!(c.leader(&tp).unwrap(), Some(preferred));
        // Idempotent: second pass moves nothing.
        assert_eq!(c.rebalance_leadership().unwrap(), 0);
        // Data intact.
        assert_eq!(
            c.fetch_batch(&tp, 0, u64::MAX)
                .unwrap()
                .into_messages()
                .len(),
            5
        );
    }

    #[test]
    fn rebalance_waits_for_catch_up() {
        let (c, _) = cluster(2);
        c.create_topic("t", TopicConfig::with_partitions(1).replication(2))
            .unwrap();
        let tp = TopicPartition::new("t", 0);
        c.produce_to(&tp, None, b("a"), AckLevel::All).unwrap();
        let preferred = c.leader(&tp).unwrap().unwrap();
        c.kill_broker(preferred).unwrap();
        // New writes the preferred replica does not have yet.
        c.produce_to(&tp, None, b("b"), AckLevel::Leader).unwrap();
        c.restart_broker(preferred).unwrap();
        // Not caught up: leadership must NOT move.
        assert_eq!(c.rebalance_leadership().unwrap(), 0);
        c.replicate_tick().unwrap();
        assert_eq!(c.rebalance_leadership().unwrap(), 1);
    }

    #[test]
    fn rewind_by_timestamp() {
        let (c, clock) = cluster(1);
        c.create_topic("t", TopicConfig::default()).unwrap();
        let tp = TopicPartition::new("t", 0);
        for i in 0..10 {
            clock.set(i * 1000);
            c.produce_to(&tp, None, b(&format!("m{i}")), AckLevel::Leader)
                .unwrap();
        }
        assert_eq!(c.offset_for_timestamp(&tp, 5_000).unwrap(), Some(5));
        assert_eq!(c.offset_for_timestamp(&tp, 0).unwrap(), Some(0));
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn snapshot_tracks_in_and_out() {
        let (c, _) = cluster(1);
        c.create_topic("t", TopicConfig::default()).unwrap();
        let tp = TopicPartition::new("t", 0);
        c.produce_to(&tp, None, b("12345"), AckLevel::Leader)
            .unwrap();
        c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
        c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
        let s = c.snapshot();
        assert_eq!(s.counter("cluster.messages_in"), 1);
        assert_eq!(s.counter("cluster.bytes_in"), 5);
        assert_eq!(s.counter("cluster.messages_out"), 2);
        assert_eq!(s.counter("cluster.bytes_out"), 10);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn snapshot_exposes_partition_gauges() {
        let (c, _) = cluster(1);
        c.create_topic("t", TopicConfig::with_partitions(1))
            .unwrap();
        let tp = TopicPartition::new("t", 0);
        for i in 0..3 {
            c.produce_to(&tp, None, b(&format!("m{i}")), AckLevel::Leader)
                .unwrap();
        }
        let s = c.snapshot();
        assert_eq!(s.gauge("partition.high_watermark{tp=t-0}"), Some(3));
        assert_eq!(s.gauge("partition.log_end{tp=t-0}"), Some(3));
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn produce_spans_propagate_to_fetch() {
        let (c, _) = cluster(1);
        c.create_topic("t", TopicConfig::with_partitions(1))
            .unwrap();
        let tp = TopicPartition::new("t", 0);
        c.produce_to(&tp, None, b("x"), AckLevel::Leader).unwrap();
        c.produce_to(&tp, None, b("y"), AckLevel::Leader).unwrap();
        let msgs = c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
        assert_eq!(msgs.len(), 2);
        assert_ne!(msgs[0].span, 0, "fetched message carries its span");
        assert_ne!(msgs[1].span, 0);
        assert_ne!(msgs[0].span, msgs[1].span, "one span per produce");
        // The tracer saw the produce and the fetch under the same span.
        let events = c.obs().tracer().tail(16);
        let kinds_for_first: Vec<&str> = events
            .iter()
            .filter(|e| e.span == msgs[0].span)
            .map(|e| e.kind)
            .collect();
        assert!(kinds_for_first.contains(&"produce"), "{kinds_for_first:?}");
        assert!(kinds_for_first.contains(&"fetch"), "{kinds_for_first:?}");
    }

    #[test]
    fn cluster_config_builder_validates() {
        assert!(matches!(
            ClusterConfig::builder().brokers(0).build(),
            Err(MessagingError::ZeroBrokers)
        ));
        assert!(matches!(
            ClusterConfig::builder().brokers(2).replication(3).build(),
            Err(MessagingError::ReplicationOutOfRange {
                replication: 3,
                brokers: 2
            })
        ));
        let cfg = ClusterConfig::builder()
            .brokers(3)
            .replication(2)
            .replica_lag_max(5)
            .session_timeout_ms(1_000)
            .build()
            .unwrap();
        assert_eq!(cfg.brokers, 3);
        assert_eq!(cfg.default_replication, 2);
        assert_eq!(cfg.replica_lag_max, 5);
    }

    #[test]
    fn topic_config_builder_validates_against_cluster() {
        let (c, _) = cluster(2);
        assert!(matches!(
            c.create_topic("t", TopicConfig::with_partitions(0)),
            Err(MessagingError::ZeroPartitions)
        ));
        for replication in [0, 3] {
            assert!(matches!(
                c.create_topic(
                    "t",
                    TopicConfig::with_partitions(1).replication(replication)
                ),
                Err(MessagingError::ReplicationOutOfRange { brokers: 2, .. })
            ));
        }
        c.create_topic("t", TopicConfig::with_partitions(4).replication(2))
            .unwrap();
        assert_eq!(c.partition_count("t").unwrap(), 4);
        assert_eq!(c.isr(&TopicPartition::new("t", 3)).unwrap().len(), 2);
    }

    #[test]
    fn fetch_beyond_log_end_is_error() {
        let (c, _) = cluster(1);
        c.create_topic("t", TopicConfig::default()).unwrap();
        let tp = TopicPartition::new("t", 0);
        c.produce_to(&tp, None, b("x"), AckLevel::Leader).unwrap();
        assert!(c.fetch_batch(&tp, 99, 1).is_err());
        assert!(c.fetch_batch(&tp, 1, 1).unwrap().into_messages().is_empty());
    }

    #[test]
    fn compacted_topic_dedupes() {
        let (c, _) = cluster(1);
        c.create_topic(
            "changelog",
            TopicConfig::with_partitions(1)
                .retention(RetentionPolicy::compact())
                .segment_bytes(512),
        )
        .unwrap();
        let tp = TopicPartition::new("changelog", 0);
        for i in 0..200 {
            c.produce_to(
                &tp,
                Some(b(&format!("k{}", i % 5))),
                b(&format!("v{i}")),
                AckLevel::Leader,
            )
            .unwrap();
        }
        let stats = c.compact_topic("changelog").unwrap();
        assert!(stats.dedup_ratio() > 0.8, "ratio {}", stats.dedup_ratio());
        // All messages still fetchable from the earliest retained offset.
        let msgs = c
            .fetch_batch(&tp, c.earliest_offset(&tp).unwrap(), u64::MAX)
            .unwrap()
            .into_messages();
        // Last value per key survives.
        assert!(msgs.iter().any(|m| m.value == b("v199")));
    }

    #[test]
    fn retention_applies_across_cluster() {
        let (c, clock) = cluster(1);
        c.create_topic(
            "short",
            TopicConfig::with_partitions(1)
                .retention(DROP_AFTER_1S)
                .segment_bytes(256),
        )
        .unwrap();
        let tp = TopicPartition::new("short", 0);
        for i in 0..50 {
            c.produce_to(&tp, None, b(&format!("old-{i:04}")), AckLevel::Leader)
                .unwrap();
        }
        clock.advance(10_000);
        c.produce_to(&tp, None, b("fresh"), AckLevel::Leader)
            .unwrap();
        let deleted = c.enforce_retention().unwrap();
        assert!(deleted > 0);
        assert!(c.earliest_offset(&tp).unwrap() > 0);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn sealed_segment_fetches_hit_the_shared_read_cache() {
        let (c, _) = cluster(1);
        c.create_topic("hot", TopicConfig::with_partitions(1).segment_bytes(256))
            .unwrap();
        let tp = TopicPartition::new("hot", 0);
        for i in 0..40 {
            c.produce_to(&tp, None, b(&format!("payload-{i:05}")), AckLevel::Leader)
                .unwrap();
        }
        let cold = c.fetch_batch(&tp, 0, u64::MAX).unwrap();
        let misses = c.snapshot().counter("log.cache.miss");
        assert!(misses > 0, "cold sweep fills the cache");
        let hot = c.fetch_batch(&tp, 0, u64::MAX).unwrap();
        let snap = c.snapshot();
        assert!(snap.counter("log.cache.hit") > 0, "warm sweep hits");
        assert_eq!(
            snap.counter("log.cache.miss"),
            misses,
            "warm sweep adds no misses"
        );
        // Byte equality between the cold and warm reads.
        assert_eq!(cold.len(), hot.len());
        for (a, b) in cold.records().iter().zip(hot.records().iter()) {
            assert_eq!((a.offset, &a.value), (b.offset, &b.value));
        }
    }

    /// Regression: a committed/consumer offset that falls inside a
    /// segment retention has dropped must not error or over-count —
    /// the fetch resumes at the next live segment's base and the
    /// batch's `end_offset` heals the position across the gap.
    #[test]
    fn fetch_resumes_past_a_dropped_segment() {
        let (c, clock) = cluster(1);
        c.create_topic(
            "short",
            TopicConfig::with_partitions(1)
                .retention(DROP_AFTER_1S)
                .segment_bytes(256),
        )
        .unwrap();
        let tp = TopicPartition::new("short", 0);
        for i in 0..50 {
            c.produce_to(&tp, None, b(&format!("old-{i:04}")), AckLevel::Leader)
                .unwrap();
        }
        clock.advance(10_000);
        for i in 0..5 {
            c.produce_to(&tp, None, b(&format!("fresh-{i}")), AckLevel::Leader)
                .unwrap();
        }
        assert!(c.enforce_retention().unwrap() > 0);
        let earliest = c.earliest_offset(&tp).unwrap();
        assert!(earliest > 0, "retention retired the head segment");
        // Offset 0 now falls inside a retired segment: the fetch heals
        // to the first retained offset instead of erroring.
        let batch = c.fetch_batch(&tp, 0, u64::MAX).unwrap();
        assert_eq!(batch.base_offset(), Some(earliest));
        assert_eq!(batch.end_offset(), c.latest_offset(&tp).unwrap());
        // A consumer parked before the boundary heals the same way and
        // reports exact lag (never counting retired offsets).
        let consumer = crate::Consumer::new(&c, "c1");
        consumer
            .assign(tp.clone(), crate::consumer::StartPosition::Offset(0))
            .unwrap();
        #[cfg(not(feature = "obs-off"))]
        {
            let hw = c.latest_offset(&tp).unwrap();
            assert_eq!(consumer.lag(&tp), Some(hw - earliest));
        }
        let batches = consumer.poll_batches().unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].1.records()[0].offset, earliest);
        assert_eq!(
            consumer.position(&tp),
            Some(c.latest_offset(&tp).unwrap()),
            "position healed past the retired range"
        );
        #[cfg(not(feature = "obs-off"))]
        assert_eq!(consumer.lag(&tp), Some(0));
    }

    #[test]
    fn election_skips_isr_members_behind_the_high_watermark() {
        // A broker that was offline while acks=All produces were
        // acknowledged stays in the ISR but lags the high watermark.
        // When the leader then dies, that stale member must not win the
        // election — doing so would clamp the HW and silently truncate
        // acknowledged records (found by the seeded chaos harness).
        let (c, _clock) = cluster(3);
        c.create_topic("t", TopicConfig::with_partitions(1).replication(3))
            .unwrap();
        let tp = TopicPartition::new("t", 0);
        for i in 0..5 {
            c.produce_to(&tp, None, b(&format!("m{i}")), AckLevel::All)
                .unwrap();
        }
        let leader = c.leader(&tp).unwrap().unwrap();
        let stale = c.broker_ids().into_iter().find(|&id| id != leader).unwrap();
        c.kill_broker(stale).unwrap();
        // Acked with the stale member offline: HW advances without it.
        for i in 5..10 {
            c.produce_to(&tp, None, b(&format!("m{i}")), AckLevel::All)
                .unwrap();
        }
        // Back online but not caught up (no replication tick yet), and
        // still an ISR member — an eligible-looking but unsafe
        // candidate.
        c.restart_broker(stale).unwrap();
        c.kill_broker(leader).unwrap();
        let new_leader = c.leader(&tp).unwrap().expect("a caught-up replica leads");
        assert_ne!(new_leader, stale, "stale ISR member must not be elected");
        assert_eq!(
            c.fetch_batch(&tp, 0, u64::MAX)
                .unwrap()
                .into_messages()
                .len(),
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
        let (c, _clock) = cluster(3);
        c.create_topic("t", TopicConfig::with_partitions(1).replication(3))
            .unwrap();
        let tp = TopicPartition::new("t", 0);
        for i in 0..3 {
            c.produce_to(&tp, None, b(&format!("m{i}")), AckLevel::All)
                .unwrap();
        }
        let old_leader = c.leader(&tp).unwrap().unwrap();
        // Unacknowledged divergent record at offset 3 on the old leader
        // only.
        c.produce_to(&tp, None, b("orphan"), AckLevel::None)
            .unwrap();
        c.kill_broker(old_leader).unwrap();
        let new_leader = c.leader(&tp).unwrap().expect("failover");
        assert_ne!(new_leader, old_leader);
        // The new leader commits different content at offset 3 (and
        // more); acks=All skips the offline ISR member, so the high
        // watermark passes the divergence point without it.
        for i in 0..2 {
            c.produce_to(&tp, None, b(&format!("n{i}")), AckLevel::All)
                .unwrap();
        }
        c.restart_broker(old_leader).unwrap();
        c.replicate_tick().unwrap();
        // Fail back to the old leader: every committed record must
        // survive, including the one at the divergence offset.
        c.kill_broker(new_leader).unwrap();
        c.replicate_tick().unwrap();
        assert_eq!(c.leader(&tp).unwrap(), Some(old_leader));
        let values: Vec<Bytes> = c
            .fetch_batch(&tp, 0, u64::MAX)
            .unwrap()
            .into_messages()
            .into_iter()
            .map(|m| m.value)
            .collect();
        assert_eq!(
            values,
            vec![b("m0"), b("m1"), b("m2"), b("n0"), b("n1")],
            "returning replica must serve the committed history, not its stale suffix"
        );
    }

    /// What broker `id`'s replica of `tp` holds, and its log end.
    fn replica(c: &Cluster, tp: &TopicPartition, id: BrokerId) -> (Vec<Record>, u64) {
        let st = c.inner.state.read();
        let shard = partition_shard(&st, tp).unwrap();
        let ps = shard.part.lock();
        let log = &ps.replicas[&id];
        let held = log.read(log.start_offset(), u64::MAX).unwrap().records;
        (held, log.next_offset())
    }

    fn follower_of(c: &Cluster, tp: &TopicPartition) -> (BrokerId, BrokerId) {
        let leader = c.leader(tp).unwrap().unwrap();
        let follower = c.broker_ids().into_iter().find(|&id| id != leader).unwrap();
        (leader, follower)
    }

    #[test]
    fn lagging_follower_catches_up_without_touching_the_read_cache() {
        // Regression: catch-up used to go through `Log::read`, so a
        // follower a few segments behind filled the cluster's segment
        // cache with segments no consumer had asked for.
        let (c, _) = cluster(2);
        c.create_topic(
            "t",
            TopicConfig::with_partitions(1)
                .replication(2)
                .segment_bytes(256),
        )
        .unwrap();
        let tp = TopicPartition::new("t", 0);
        let (leader, follower) = follower_of(&c, &tp);
        c.kill_broker(follower).unwrap();
        for i in 0..60 {
            let value = b(&format!("payload-{i:05}"));
            c.produce_to(&tp, Some(b("k")), value, AckLevel::Leader)
                .unwrap();
        }
        c.restart_broker(follower).unwrap();
        assert_eq!(c.replicate_tick().unwrap(), 60);
        let cache = c.inner.read_cache.as_ref().unwrap();
        assert_eq!(cache.cached_segments(), 0, "replication fills no cache");
        #[cfg(not(feature = "obs-off"))]
        {
            let snap = c.snapshot();
            assert_eq!(snap.counter("log.cache.miss"), 0);
            assert_eq!(snap.counter("cluster.replicated_messages"), 60);
            // One frame per leader append here: sealed segments are
            // shipped a storage window at a time, and in memory a
            // window ends with its frame.
            assert_eq!(snap.counter("cluster.replicated_frames"), 60);
        }
        let (ours, theirs) = (replica(&c, &tp, follower), replica(&c, &tp, leader));
        assert_eq!(ours, theirs);
        assert!(
            cache.cached_segments() >= 3,
            "the leader was read over at least three sealed segments"
        );
    }

    #[test]
    fn restarted_replica_resumes_from_the_middle_of_a_leader_frame() {
        let (c, _clock) = cluster(2);
        c.create_topic("t", TopicConfig::with_partitions(1).replication(2))
            .unwrap();
        let tp = TopicPartition::new("t", 0);
        let batch = |values: &[&str]| {
            RecordBatch::from_pairs(values.iter().map(|v| (Some(b("k")), b(v))), 0)
        };
        c.produce_batch(&tp, batch(&["a", "b", "c", "d"]), AckLevel::All, None)
            .unwrap();
        let (old_leader, survivor) = follower_of(&c, &tp);
        // The old leader dies holding one unacknowledged four-record
        // frame; its first record is what the producer retries.
        c.produce_batch(
            &tp,
            batch(&["x", "lost-1", "lost-2", "lost-3"]),
            AckLevel::None,
            None,
        )
        .unwrap();
        c.kill_broker(old_leader).unwrap();
        assert_eq!(c.leader(&tp).unwrap(), Some(survivor));
        // The new leader commits the retry in a frame of three: the
        // high watermark (7) now falls inside the old leader's frame
        // (4..8), and what the two logs agree on (through offset 4)
        // ends inside the new leader's (4..7).
        c.produce_batch(&tp, batch(&["x", "y", "z"]), AckLevel::All, None)
            .unwrap();
        c.restart_broker(old_leader).unwrap();
        assert_eq!(
            replica(&c, &tp, old_leader).1,
            7,
            "truncated to the watermark"
        );
        assert_eq!(
            c.replicate_tick().unwrap(),
            2,
            "offsets 5 and 6 are shipped"
        );
        #[cfg(not(feature = "obs-off"))]
        assert_eq!(c.snapshot().counter("cluster.replicated_frames"), 2);
        let (ours, theirs) = (replica(&c, &tp, old_leader), replica(&c, &tp, survivor));
        assert_eq!(ours, theirs);
        let values: Vec<&[u8]> = ours.0.iter().map(|r| r.value.as_slice()).collect();
        assert_eq!(values, [b"a", b"b", b"c", b"d", b"x", b"y", b"z"]);
        // Shipped as a slice of the leader's frame, not rebuilt: the
        // same bytes in memory. Offset 4 is the replica's own.
        let ptr = |r: &Record| r.value.as_slice().as_ptr();
        assert_ne!(ptr(&ours.0[4]), ptr(&theirs.0[4]));
        assert_eq!(ptr(&ours.0[5]), ptr(&theirs.0[5]));
        assert_eq!(ptr(&ours.0[6]), ptr(&theirs.0[6]));
        c.kill_broker(survivor).unwrap();
        assert_eq!(c.leader(&tp).unwrap(), Some(old_leader));
        assert_eq!(c.fetch_batch(&tp, 0, u64::MAX).unwrap().len(), 7);
    }

    #[test]
    fn follower_append_fault_leaves_the_batch_unacked_and_the_retry_commits_it_whole() {
        let (c, _clock) = cluster(2);
        let injector = FailureInjector::new(1);
        let mut config = TopicConfig::with_partitions(1).replication(2);
        config.log.injector = injector.clone();
        c.create_topic("t", config).unwrap();
        let tp = TopicPartition::new("t", 0);
        let batch = || RecordBatch::from_pairs(["x", "y", "z"].iter().map(|v| (None, b(v))), 0);
        c.produce_to(&tp, None, b("a"), AckLevel::All).unwrap();
        c.produce_to(&tp, None, b("b"), AckLevel::All).unwrap();
        let (leader, follower) = follower_of(&c, &tp);
        // The replica logs share the injector: the batch's first
        // `log.append` is the leader's, its second the follower's.
        injector.fail_at(2);
        let err = c.produce_batch(&tp, batch(), AckLevel::All, None);
        assert!(matches!(
            err,
            Err(MessagingError::Log(LogError::Injected("log.append")))
        ));
        assert_eq!(replica(&c, &tp, leader).1, 5, "the leader holds the batch");
        assert_eq!(replica(&c, &tp, follower).1, 2, "the follower none of it");
        assert_eq!(c.latest_offset(&tp).unwrap(), 2, "and none of it is acked");
        // The retry is a new batch to the log (no idempotent sequence):
        // one transfer ships both copies and commits them.
        assert_eq!(
            c.produce_batch(&tp, batch(), AckLevel::All, None).unwrap(),
            5
        );
        assert_eq!(c.latest_offset(&tp).unwrap(), 8);
        assert_eq!(replica(&c, &tp, follower), replica(&c, &tp, leader));
        let fetched = c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
        let values: Vec<&[u8]> = fetched.iter().map(|m| m.value.as_slice()).collect();
        assert_eq!(values, [b"a", b"b", b"x", b"y", b"z", b"x", b"y", b"z"]);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn replicated_bytes_count_values_not_keys_or_framing() {
        let (c, _clock) = cluster(2);
        c.create_topic("t", TopicConfig::with_partitions(1).replication(2))
            .unwrap();
        let tp = TopicPartition::new("t", 0);
        let pairs = vec![
            (Some(b("a-long-key")), b("12345")),
            (Some(b("k")), b("")),
            (None, b("123")),
        ];
        c.produce_batch(&tp, RecordBatch::from_pairs(pairs, 0), AckLevel::All, None)
            .unwrap();
        let snap = c.snapshot();
        assert_eq!(snap.counter("cluster.replicated_bytes"), 8);
        assert_eq!(snap.counter("cluster.replicated_messages"), 3);
        assert_eq!(snap.counter("cluster.replicated_frames"), 1);
    }
}
