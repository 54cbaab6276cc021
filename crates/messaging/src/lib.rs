//! The Liquid messaging layer (paper §3.1, §4).
//!
//! A topic-based publish/subscribe system realized as distributed,
//! replicated commit logs — the in-process analogue of Apache Kafka as
//! described in the paper:
//!
//! * **Topics** are split into **partitions**, each an append-only
//!   [`liquid_log::Log`], distributed over **brokers** ([`cluster`]);
//! * **producers** publish with round-robin, key-hash or manual
//!   partitioning ([`producer`]);
//! * **consumers** pull by offset; **consumer groups** split partitions
//!   among members so the group behaves as a queue internally while
//!   distinct groups each see all data ([`consumer`], [`group`]);
//! * partitions are **replicated** leader/follower with an **in-sync
//!   replica (ISR)** set tracked through the coordination service;
//!   configurable acknowledgement levels trade durability for latency
//!   (§4.3, replication logic inside [`cluster`]);
//! * a logically-centralized **offset manager** stores consumer
//!   checkpoints and arbitrary metadata annotations against offsets,
//!   enabling rewindability and incremental processing (§3.1, §4.2,
//!   [`offsets`]).
//!
//! Delivery is **at-least-once**: after a failure, consumers resume from
//! their last committed offset and may observe duplicates (§4.3).

#![forbid(unsafe_code)]

pub mod cluster;
pub mod config;
pub mod consumer;
pub mod error;
pub mod group;
pub mod ids;
pub mod mirror;
pub mod offsets;
mod partition;
pub mod producer;

pub use cluster::{Cluster, ClusterConfig, ClusterConfigBuilder};
pub use config::{AckLevel, TopicConfig};
pub use consumer::Consumer;
pub use error::MessagingError;
pub use group::{AssignmentStrategy, GroupAssignment};
pub use ids::{BrokerId, Message, MessageBatch, TopicPartition};
pub use mirror::MirrorMaker;
pub use offsets::{OffsetCommit, OffsetManager};
pub use producer::{BatchConfig, Partitioner, Producer};

/// Result alias for messaging operations.
pub type Result<T> = std::result::Result<T, MessagingError>;
