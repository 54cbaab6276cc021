//! Topic and durability configuration.

use liquid_log::{LogConfig, RetentionPolicy};

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
