//! Cluster, topic and durability configuration.

use liquid_log::{LogConfig, RetentionPolicy};
use liquid_obs::Obs;
use liquid_sim::failure::FailureInjector;

use crate::error::MessagingError;

/// How many acknowledgements a produce waits for (paper §4.3: the
/// durability/latency trade-off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckLevel {
    /// Fire and forget: the producer does not wait at all. Highest
    /// throughput; messages are lost if the leader dies before
    /// replication.
    None,
    /// Acknowledged once the leader has appended. Messages not yet
    /// replicated are lost on leader failure.
    Leader,
    /// Acknowledged only after every in-sync replica has appended —
    /// maximum durability: tolerates N−1 failures with N ISRs.
    All,
}

/// Per-topic configuration. The setters check nothing:
/// [`Cluster::create_topic`](crate::Cluster::create_topic) validates the
/// whole config against the cluster it lands on.
#[derive(Debug, Clone)]
pub struct TopicConfig {
    /// Number of partitions.
    pub partitions: u32,
    /// Replication factor (1 = leader only).
    pub replication: u32,
    /// Log tuning (segment size, retention policy).
    pub log: LogConfig,
}

impl Default for TopicConfig {
    fn default() -> Self {
        TopicConfig {
            partitions: 1,
            replication: 1,
            log: LogConfig::default(),
        }
    }
}

impl TopicConfig {
    /// `partitions` partitions, replication factor 1, default log.
    pub fn with_partitions(partitions: u32) -> Self {
        TopicConfig {
            partitions,
            ..TopicConfig::default()
        }
    }

    /// Sets the replication factor.
    pub fn replication(mut self, replication: u32) -> Self {
        self.replication = replication;
        self
    }

    /// Replaces the whole retention policy with a typed
    /// [`RetentionPolicy`] value.
    pub fn retention(mut self, policy: RetentionPolicy) -> Self {
        self.log.retention = policy;
        self
    }

    /// Sets the segment roll size.
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.log.segment_bytes = bytes;
        self
    }

    /// Sets the segment roll age, so segments partition the stream by
    /// time and age retention drops whole segments.
    pub fn segment_ms(mut self, ms: u64) -> Self {
        self.log.segment_ms = Some(ms);
        self
    }
}

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of brokers.
    pub brokers: u32,
    /// Default topic replication factor; [`ClusterConfigBuilder::build`]
    /// holds it to `1..=brokers`.
    pub default_replication: u32,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterConfig, MessagingError};
    use liquid_sim::clock::SimClock;

    #[test]
    fn builder_chains() {
        let c = TopicConfig::with_partitions(8)
            .replication(3)
            .retention(RetentionPolicy::Compact {
                max_age_ms: Some(1000),
                max_bytes: Some(2048),
            })
            .segment_bytes(512)
            .segment_ms(60_000);
        assert_eq!(c.partitions, 8);
        assert_eq!(c.replication, 3);
        assert!(c.log.retention.is_compacted());
        assert_eq!(c.log.retention.max_age_ms(), Some(1000));
        assert_eq!(c.log.retention.max_bytes(), Some(2048));
        assert_eq!(c.log.segment_bytes, 512);
        assert_eq!(c.log.segment_ms, Some(60_000));
    }

    #[test]
    fn typed_retention_replaces_policy() {
        let c = TopicConfig::with_partitions(2)
            .retention(RetentionPolicy::compact())
            .retention(RetentionPolicy::DropByBytes { max_bytes: 4096 });
        assert_eq!(
            c.log.retention,
            RetentionPolicy::DropByBytes { max_bytes: 4096 }
        );
    }

    /// The chained setters check nothing; `create_topic` is where a
    /// policy that would drop every sealed segment on every pass stops.
    #[test]
    fn builder_rejects_degenerate_retention() {
        let c = Cluster::new(ClusterConfig::default(), SimClock::new(0).shared());
        let zero_bytes = RetentionPolicy::DropByBytes { max_bytes: 0 };
        assert!(matches!(
            c.create_topic("t", TopicConfig::default().retention(zero_bytes)),
            Err(MessagingError::InvalidRetention {
                reason: "max_bytes must be > 0"
            })
        ));
        let zero_age = RetentionPolicy::Compact {
            max_age_ms: Some(0),
            max_bytes: None,
        };
        assert!(matches!(
            c.create_topic("t", TopicConfig::default().retention(zero_age)),
            Err(MessagingError::InvalidRetention {
                reason: "max_age_ms must be > 0"
            })
        ));
        assert!(
            c.topic_names().is_empty(),
            "a rejected topic is not created"
        );
        let one_byte = RetentionPolicy::DropByBytes { max_bytes: 1 };
        c.create_topic("t", TopicConfig::default().retention(one_byte))
            .unwrap();
    }

    #[test]
    fn defaults_are_sane() {
        let c = TopicConfig::default();
        assert_eq!(c.partitions, 1);
        assert_eq!(c.replication, 1);
        assert_eq!(c.log.retention, RetentionPolicy::KeepAll);
        assert!(!c.log.retention.is_compacted());
    }
}
