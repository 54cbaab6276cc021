//! The integrated Liquid stack: feeds + jobs + resources in one handle.

use std::collections::HashMap;
use std::sync::Arc;

use liquid_log::RetentionPolicy;
use liquid_messaging::consumer::StartPosition;
use liquid_messaging::{Cluster, ClusterConfig, Consumer, Producer, TopicConfig, TopicPartition};
use liquid_processing::{Job, JobConfig, StreamTask};
use liquid_sim::clock::SharedClock;
use liquid_sim::failure::FailureInjector;
use liquid_sim::lockdep::Mutex;
use liquid_yarn::{ContainerRequest, ResourceManager};

use crate::acl::{Access, AclRegistry};
use crate::etl::ManagedJob;
use crate::lineage::{Lineage, LineageRegistry};
use crate::LiquidError;

/// Stack-wide configuration.
#[derive(Debug, Clone)]
pub struct LiquidConfig {
    /// Brokers in the messaging layer.
    pub brokers: u32,
    /// Processing nodes as `(cpu_per_tick, memory_mb)`.
    pub nodes: Vec<(u64, u64)>,
    /// Fault injector for the cluster's replication / election / offset
    /// paths (chaos testing). Disabled by default.
    pub injector: FailureInjector,
}

impl Default for LiquidConfig {
    fn default() -> Self {
        LiquidConfig {
            brokers: 1,
            nodes: vec![(1_000_000, 16_384)],
            injector: FailureInjector::disabled(),
        }
    }
}

/// Whether a feed is primary data or computed from other feeds (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedKind {
    /// Primary data, not generated within the system.
    SourceOfTruth,
    /// Results of processing source-of-truth or other derived feeds;
    /// carries lineage.
    Derived,
}

/// Per-feed configuration, mapped onto a topic.
#[derive(Debug, Clone)]
pub struct FeedConfig {
    /// Partitions.
    pub partitions: u32,
    /// Replication factor.
    pub replication: u32,
    /// What is reclaimed, and whether the feed is compacted.
    pub retention: RetentionPolicy,
    /// Segment roll size.
    pub segment_bytes: u64,
    /// Fault injector threaded into every replica log of the feed.
    pub log_injector: FailureInjector,
}

impl Default for FeedConfig {
    fn default() -> Self {
        FeedConfig {
            partitions: 1,
            replication: 1,
            retention: RetentionPolicy::KeepAll,
            segment_bytes: 1 << 20,
            log_injector: FailureInjector::disabled(),
        }
    }
}

impl FeedConfig {
    /// Sets the partition count.
    pub fn partitions(mut self, n: u32) -> Self {
        self.partitions = n;
        self
    }

    /// Sets the replication factor.
    pub fn replication(mut self, n: u32) -> Self {
        self.replication = n;
        self
    }

    /// Sets the retention policy.
    pub fn retention(mut self, policy: RetentionPolicy) -> Self {
        self.retention = policy;
        self
    }

    fn to_topic_config(&self) -> TopicConfig {
        let mut tc = TopicConfig::with_partitions(self.partitions)
            .replication(self.replication)
            .retention(self.retention)
            .segment_bytes(self.segment_bytes);
        tc.log.injector = self.log_injector.clone();
        tc
    }
}

/// Handle to a submitted managed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobHandle(usize);

/// The Liquid data integration stack.
pub struct Liquid {
    cluster: Cluster,
    resources: Arc<ResourceManager>,
    clock: SharedClock,
    lineage: LineageRegistry,
    acl: AclRegistry,
    feeds: Mutex<HashMap<String, FeedKind>>,
    managed: Mutex<Vec<ManagedJob>>,
}

impl Liquid {
    /// Boots the stack: a broker cluster plus a resource-managed
    /// processing cluster.
    pub fn new(config: LiquidConfig, clock: SharedClock) -> Self {
        let cluster = Cluster::new(
            ClusterConfig {
                brokers: config.brokers,
                injector: config.injector.clone(),
                ..ClusterConfig::default()
            },
            clock.clone(),
        );
        let resources = Arc::new(ResourceManager::new());
        for (cpu, mem) in &config.nodes {
            resources.add_node(*cpu, *mem);
        }
        let lineage = LineageRegistry::new(cluster.coord().clone());
        Liquid {
            cluster,
            resources,
            clock,
            lineage,
            acl: AclRegistry::new(),
            feeds: Mutex::new("stack.feeds", HashMap::new()),
            managed: Mutex::new("stack.managed", Vec::new()),
        }
    }

    /// The messaging layer.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The resource manager.
    pub fn resources(&self) -> &Arc<ResourceManager> {
        &self.resources
    }

    /// The lineage registry.
    pub fn lineage(&self) -> &LineageRegistry {
        &self.lineage
    }

    /// The access-control registry (§2.1). Ungoverned feeds stay open;
    /// the first grant on a feed closes it to everyone else.
    pub fn acl(&self) -> &AclRegistry {
        &self.acl
    }

    /// Grants `principal` access to `feed` (convenience).
    pub fn grant(&self, principal: &str, feed: &str, access: Access) {
        self.acl.grant(principal, feed, access);
    }

    /// A producer acting as `principal`; refused unless the principal
    /// may write the feed.
    pub fn producer_as(&self, principal: &str, feed: &str) -> crate::Result<Producer> {
        if !self.acl.can_write(principal, feed) {
            return Err(LiquidError::AccessDenied {
                principal: principal.to_string(),
                feed: feed.to_string(),
            });
        }
        self.producer(feed)
    }

    /// A group consumer acting as `principal`; refused unless the
    /// principal may read the feed.
    pub fn consumer_as(&self, principal: &str, feed: &str, group: &str) -> crate::Result<Consumer> {
        if !self.acl.can_read(principal, feed) {
            return Err(LiquidError::AccessDenied {
                principal: principal.to_string(),
                feed: feed.to_string(),
            });
        }
        Ok(Consumer::in_group(&self.cluster, group, principal))
    }

    /// The shared clock.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Creates a source-of-truth feed (primary data).
    pub fn create_source_feed(&self, name: &str, config: FeedConfig) -> crate::Result<()> {
        self.cluster.create_topic(name, config.to_topic_config())?;
        self.feeds
            .lock()
            .insert(name.to_string(), FeedKind::SourceOfTruth);
        Ok(())
    }

    /// Creates a derived feed carrying lineage metadata.
    pub fn create_derived_feed(
        &self,
        name: &str,
        config: FeedConfig,
        lineage: Lineage,
    ) -> crate::Result<()> {
        self.cluster.create_topic(name, config.to_topic_config())?;
        self.lineage.record(name, &lineage)?;
        self.feeds
            .lock()
            .insert(name.to_string(), FeedKind::Derived);
        Ok(())
    }

    /// Kind of a feed, if registered through this stack.
    pub fn feed_kind(&self, name: &str) -> Option<FeedKind> {
        self.feeds.lock().get(name).copied()
    }

    /// Registered feed names, sorted.
    pub fn feeds(&self) -> Vec<String> {
        let mut v: Vec<String> = self.feeds.lock().keys().cloned().collect();
        v.sort();
        v
    }

    /// A producer publishing to `feed`.
    pub fn producer(&self, feed: &str) -> crate::Result<Producer> {
        Ok(Producer::new(&self.cluster, feed)?)
    }

    /// A standalone consumer.
    pub fn consumer(&self, member: &str) -> Consumer {
        Consumer::new(&self.cluster, member)
    }

    /// A group consumer.
    pub fn consumer_in_group(&self, group: &str, member: &str) -> Consumer {
        Consumer::in_group(&self.cluster, group, member)
    }

    /// Submits an ETL job with a resource request — ETL-as-a-service
    /// (§3.2). The job runs inside a container; its throughput each
    /// [`run_tick`](Self::run_tick) is bounded by the CPU it is granted.
    pub fn submit_job<F>(
        &self,
        config: JobConfig,
        request: ContainerRequest,
        factory: F,
    ) -> crate::Result<JobHandle>
    where
        F: FnMut(u32) -> Box<dyn StreamTask>,
    {
        let app = config.name.clone();
        let job = Job::new(&self.cluster, config, factory)?;
        let container = self.resources.submit(&app, request)?;
        let mut managed = self.managed.lock();
        managed.push(ManagedJob::new(job, container, self.resources.clone()));
        Ok(JobHandle(managed.len() - 1))
    }

    /// Runs one stack tick: replication, resource refill, then one
    /// service tick per managed job. Returns messages processed.
    pub fn run_tick(&self) -> crate::Result<u64> {
        self.cluster.replicate_tick()?;
        self.resources.tick();
        let mut total = 0;
        for mj in self.managed.lock().iter_mut() {
            total += mj.tick()?;
        }
        Ok(total)
    }

    /// Ticks until no managed job makes progress (or `max_ticks`).
    pub fn run_until_idle(&self, max_ticks: usize) -> crate::Result<u64> {
        let mut total = 0;
        for _ in 0..max_ticks {
            let n = self.run_tick()?;
            total += n;
            if n == 0 {
                break;
            }
        }
        Ok(total)
    }

    /// Runs a closure against a managed job (state inspection, manual
    /// checkpoints, window ticks).
    pub fn with_job<R>(
        &self,
        handle: JobHandle,
        f: impl FnOnce(&mut ManagedJob) -> R,
    ) -> crate::Result<R> {
        let mut managed = self.managed.lock();
        let mj = managed
            .get_mut(handle.0)
            .ok_or_else(|| LiquidError::Invalid(format!("unknown job handle {handle:?}")))?;
        Ok(f(mj))
    }

    /// Background maintenance: retention enforcement plus a compaction
    /// pass over every compacted topic (changelogs included). Returns
    /// `(segments_deleted, records_compacted_away)`.
    pub fn maintenance(&self) -> crate::Result<(usize, u64)> {
        let deleted = self.cluster.enforce_retention()?;
        let mut compacted = 0;
        for topic in self.cluster.compacted_topics() {
            let stats = self.cluster.compact_topic(&topic)?;
            compacted += stats.records_before - stats.records_after;
        }
        Ok((deleted, compacted))
    }

    /// Rewinds a managed job's inputs to the first record at/after
    /// `ts` and clears its checkpoints forward — the rewindability
    /// primitive (§3.1). Returns the offsets sought to per partition.
    pub fn rewind_job_to_timestamp(
        &self,
        handle: JobHandle,
        input: &str,
        ts: liquid_sim::clock::Ts,
    ) -> crate::Result<Vec<(u32, Option<u64>)>> {
        let partitions = self.cluster.partition_count(input)?;
        let mut out = Vec::new();
        for p in 0..partitions {
            let tp = TopicPartition::new(input, p);
            let target = self.cluster.offset_for_timestamp(&tp, ts)?;
            out.push((p, target));
        }
        self.with_job(handle, |mj| {
            for (p, target) in &out {
                if let Some(offset) = target {
                    mj.job_mut().seek_input(input, *p, *offset);
                }
            }
        })?;
        Ok(out)
    }

    /// Exposes a consumer positioned at a feed's start (convenience for
    /// examples reading derived feeds).
    pub fn reader_from_start(&self, feed: &str, member: &str) -> crate::Result<Consumer> {
        let consumer = self.consumer(member);
        for p in 0..self.cluster.partition_count(feed)? {
            consumer.assign(TopicPartition::new(feed, p), StartPosition::Earliest)?;
        }
        Ok(consumer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use liquid_messaging::Message;
    use liquid_processing::{FnTask, TaskContext};
    use liquid_sim::clock::SimClock;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_string())
    }

    fn stack() -> (Liquid, SimClock) {
        let clock = SimClock::new(0);
        (Liquid::new(LiquidConfig::default(), clock.shared()), clock)
    }

    #[test]
    fn feeds_register_with_kinds_and_lineage() {
        let (l, _) = stack();
        l.create_source_feed("raw", FeedConfig::default()).unwrap();
        l.create_derived_feed(
            "clean",
            FeedConfig::default(),
            Lineage::new("cleaner", "v1", &["raw"]),
        )
        .unwrap();
        assert_eq!(l.feed_kind("raw"), Some(FeedKind::SourceOfTruth));
        assert_eq!(l.feed_kind("clean"), Some(FeedKind::Derived));
        assert_eq!(l.feeds(), vec!["clean", "raw"]);
        let lin = l.lineage().get("clean").unwrap();
        assert_eq!(lin.inputs, vec!["raw"]);
        assert_eq!(l.lineage().get("raw"), None);
    }

    #[test]
    fn end_to_end_produce_process_consume() {
        let (l, _) = stack();
        l.create_source_feed("events", FeedConfig::default())
            .unwrap();
        l.create_derived_feed(
            "shouted",
            FeedConfig::default(),
            Lineage::new("shouter", "v1", &["events"]),
        )
        .unwrap();
        let producer = l.producer("events").unwrap();
        for i in 0..10 {
            producer.send_value(format!("msg-{i}")).unwrap();
        }
        l.submit_job(
            JobConfig::new("shouter", &["events"]).stateless(),
            ContainerRequest {
                cpu_per_tick: 1_000,
                memory_mb: 128,
            },
            |_| {
                Box::new(FnTask(|m: &Message, ctx: &mut TaskContext<'_>| {
                    let v = String::from_utf8_lossy(&m.value).to_uppercase();
                    ctx.send("shouted", None, Bytes::from(v))?;
                    Ok(())
                }))
            },
        )
        .unwrap();
        let processed = l.run_until_idle(10).unwrap();
        assert_eq!(processed, 10);
        let reader = l.reader_from_start("shouted", "check").unwrap();
        let batches = reader.poll_batches().unwrap();
        assert_eq!(batches[0].1.len(), 10);
        assert_eq!(batches[0].1.records().first().unwrap().value, b("MSG-0"));
    }

    #[test]
    fn isolation_bounds_throughput_per_tick() {
        let clock = SimClock::new(0);
        let l = Liquid::new(
            LiquidConfig {
                nodes: vec![(100, 8192)],
                ..LiquidConfig::default()
            },
            clock.shared(),
        );
        l.create_source_feed("in", FeedConfig::default()).unwrap();
        let producer = l.producer("in").unwrap();
        for i in 0..500 {
            producer.send_value(format!("m{i}")).unwrap();
        }
        let h = l
            .submit_job(
                JobConfig::new("slow", &["in"]).stateless(),
                ContainerRequest {
                    cpu_per_tick: 40,
                    memory_mb: 64,
                },
                |_| Box::new(FnTask(|_: &Message, _: &mut TaskContext<'_>| Ok(()))),
            )
            .unwrap();
        let n = l.run_tick().unwrap();
        assert_eq!(n, 40, "first tick bounded by quota");
        let lag = l.with_job(h, |mj| mj.job_mut().lag().unwrap()).unwrap();
        assert_eq!(lag, 460);
    }

    #[test]
    fn maintenance_compacts_changelogs() {
        let (l, _) = stack();
        l.create_source_feed("in", FeedConfig::default()).unwrap();
        let producer = l.producer("in").unwrap();
        for i in 0..4000 {
            producer
                .send_keyed(format!("k{}", i % 3), format!("v{i}"))
                .unwrap();
        }
        // A round's changelog writes are coalesced per key, so one big
        // round would leave three records and nothing to compact: grant
        // three messages a tick, one changelog record per input.
        l.submit_job(
            JobConfig::new("counter", &["in"]),
            ContainerRequest {
                cpu_per_tick: 3,
                memory_mb: 64,
            },
            |_| {
                Box::new(FnTask(|m: &Message, ctx: &mut TaskContext<'_>| {
                    let key = m.key.clone().unwrap_or_else(|| Bytes::from_static(b"_"));
                    ctx.store().add_counter(&key, 1)?;
                    Ok(())
                }))
            },
        )
        .unwrap();
        assert_eq!(l.run_until_idle(2_000).unwrap(), 4000);
        let (_, compacted) = l.maintenance().unwrap();
        assert!(compacted > 0, "changelog should shrink under compaction");
    }

    #[test]
    fn acl_gates_principal_scoped_handles() {
        let (l, _) = stack();
        l.create_source_feed("events", FeedConfig::default())
            .unwrap();
        // Open until the first grant.
        assert!(l.producer_as("anyone", "events").is_ok());
        l.grant("ingest-svc", "events", crate::acl::Access::Write);
        l.grant("analytics", "events", crate::acl::Access::Read);
        assert!(l.producer_as("ingest-svc", "events").is_ok());
        assert!(matches!(
            l.producer_as("analytics", "events"),
            Err(LiquidError::AccessDenied { .. })
        ));
        assert!(l.consumer_as("analytics", "events", "g").is_ok());
        assert!(matches!(
            l.consumer_as("rogue", "events", "g"),
            Err(LiquidError::AccessDenied { .. })
        ));
    }

    #[test]
    fn unknown_feed_errors() {
        let (l, _) = stack();
        assert!(l.producer("ghost").is_err());
        assert!(l.reader_from_start("ghost", "m").is_err());
        assert_eq!(l.feed_kind("ghost"), None);
    }

    #[test]
    fn unknown_job_handle_errors() {
        let (l, _) = stack();
        assert!(l.with_job(JobHandle(99), |_| ()).is_err());
    }
}
