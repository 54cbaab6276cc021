//! Error type for the messaging layer.

use crate::ids::{BrokerId, TopicPartition};

/// Errors surfaced by the messaging layer.
#[derive(Debug)]
pub enum MessagingError {
    /// Topic does not exist.
    UnknownTopic(String),
    /// Topic exists but the partition index is out of range.
    UnknownPartition(TopicPartition),
    /// Topic already exists.
    TopicExists(String),
    /// A topic name outside Kafka's legal set, or a reserved one.
    InvalidTopicName {
        /// The rejected name.
        name: String,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// Broker id is not part of the cluster.
    UnknownBroker(BrokerId),
    /// No in-sync replica is available to lead the partition; produces
    /// and fetches fail until a replica returns.
    PartitionUnavailable(TopicPartition),
    /// The underlying log failed.
    Log(liquid_log::LogError),
    /// Consumer group / membership error.
    Group(String),
    /// Invalid configuration.
    InvalidConfig(String),
    /// A topic was configured with zero partitions.
    ZeroPartitions,
    /// A cluster was configured with zero brokers.
    ZeroBrokers,
    /// A topic's retention policy failed validation (a zero bound would
    /// drop every sealed segment on every retention pass).
    InvalidRetention {
        /// Which bound was rejected, and why.
        reason: &'static str,
    },
    /// The replication factor is zero or exceeds the broker count, so
    /// the assignment cannot place that many replicas.
    ReplicationOutOfRange {
        /// Requested replication factor.
        replication: u32,
        /// Brokers available to host replicas.
        brokers: u32,
    },
    /// Offset-domain arithmetic overflowed; continuing would silently
    /// corrupt offsets or high watermarks, so the operation is refused.
    OffsetOverflow {
        /// What the arithmetic was computing when it overflowed.
        what: &'static str,
        /// The operand that could not be advanced.
        value: u64,
    },
    /// A fault injector fired at the named operation (simulated crash).
    Injected(&'static str),
}

impl std::fmt::Display for MessagingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MessagingError::UnknownTopic(t) => write!(f, "unknown topic: {t}"),
            MessagingError::UnknownPartition(tp) => write!(f, "unknown partition: {tp}"),
            MessagingError::TopicExists(t) => write!(f, "topic exists: {t}"),
            MessagingError::InvalidTopicName { name, reason } => {
                write!(f, "invalid topic name {name:?}: {reason}")
            }
            MessagingError::UnknownBroker(b) => write!(f, "unknown broker: {b}"),
            MessagingError::PartitionUnavailable(tp) => {
                write!(f, "partition unavailable (no live ISR): {tp}")
            }
            MessagingError::Log(e) => write!(f, "log error: {e}"),
            MessagingError::Group(msg) => write!(f, "consumer group error: {msg}"),
            MessagingError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            MessagingError::ZeroPartitions => write!(f, "invalid config: partitions must be > 0"),
            MessagingError::ZeroBrokers => write!(f, "invalid config: brokers must be > 0"),
            MessagingError::InvalidRetention { reason } => {
                write!(f, "invalid config: retention policy: {reason}")
            }
            MessagingError::ReplicationOutOfRange {
                replication,
                brokers,
            } => write!(
                f,
                "invalid config: replication {replication} out of range 1..={brokers}"
            ),
            MessagingError::OffsetOverflow { what, value } => {
                write!(f, "offset arithmetic overflow: {what} (operand {value})")
            }
            MessagingError::Injected(op) => write!(f, "injected fault at {op}"),
        }
    }
}

impl std::error::Error for MessagingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MessagingError::Log(e) => Some(e),
            _ => None,
        }
    }
}

impl From<liquid_log::LogError> for MessagingError {
    fn from(e: liquid_log::LogError) -> Self {
        MessagingError::Log(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let tp = TopicPartition::new("t", 0);
        assert!(MessagingError::PartitionUnavailable(tp)
            .to_string()
            .contains("t-0"));
        assert!(MessagingError::UnknownTopic("x".into())
            .to_string()
            .contains('x'));
    }

    #[test]
    fn offset_overflow_names_the_computation_and_operand() {
        let e = MessagingError::OffsetOverflow {
            what: "advancing past the appended record",
            value: u64::MAX,
        };
        let msg = e.to_string();
        assert!(msg.contains("offset arithmetic overflow"), "{msg}");
        assert!(msg.contains("appended record"), "{msg}");
        assert!(msg.contains(&u64::MAX.to_string()), "{msg}");
    }
}
