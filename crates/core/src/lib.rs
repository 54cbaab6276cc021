//! # Liquid: a nearline data integration stack
//!
//! A Rust reproduction of *"Liquid: Unifying Nearline and Offline Big
//! Data Integration"* (CIDR 2015): a data integration stack built from
//! two cooperating layers —
//!
//! * a **messaging layer** ([`liquid_messaging`], re-exported as
//!   [`messaging`]): a highly-available topic-based publish/subscribe
//!   system over distributed, replicated commit logs;
//! * a **processing layer** ([`liquid_processing`], re-exported as
//!   [`processing`]): stateful stream-processing jobs with
//!   changelog-backed state, checkpoints and incremental processing.
//!
//! This crate ties the layers into the [`stack::Liquid`] stack:
//! **feeds** (source-of-truth and derived, with [`lineage`] metadata),
//! **ETL-as-a-service** job submission under resource isolation
//! ([`etl`]), rewind/reprocessing helpers, and the [`architectures`]
//! comparators (Lambda / Kappa / Liquid) the paper positions itself
//! against.
//!
//! ## Quickstart
//!
//! ```
//! use liquid::prelude::*;
//!
//! let clock = SimClock::new(0);
//! let liquid = Liquid::new(LiquidConfig::default(), clock.shared());
//! liquid.create_source_feed("events", FeedConfig::default()).unwrap();
//!
//! // Publish.
//! let producer = liquid.producer("events").unwrap();
//! producer.send_keyed("user-1", "clicked").unwrap();
//!
//! // An ETL job: forward every event to a derived feed.
//! liquid
//!     .create_derived_feed("clean", FeedConfig::default(), Lineage::new("cleaner", "v1", &["events"]))
//!     .unwrap();
//! let handle = liquid
//!     .submit_job(
//!         JobConfig::new("cleaner", &["events"]).stateless(),
//!         ContainerRequest { cpu_per_tick: 1_000, memory_mb: 256 },
//!         |_| Box::new(FnTask(|m: &Message, ctx: &mut TaskContext<'_>| {
//!             ctx.send("clean", m.key.clone(), m.value.clone())?;
//!             Ok(())
//!         })),
//!     )
//!     .unwrap();
//! liquid.run_tick().unwrap();
//!
//! // Consume the derived feed.
//! let consumer = liquid.consumer("reader");
//! consumer.assign(TopicPartition::new("clean", 0), StartPosition::Earliest).unwrap();
//! let batches = consumer.poll_batches().unwrap();
//! assert_eq!(batches[0].1.len(), 1);
//! # let _ = handle;
//! ```

#![forbid(unsafe_code)]

pub mod acl;
pub mod architectures;
pub mod etl;
pub mod lineage;
pub mod stack;

/// The simulation substrate (clocks, RNG, page cache, failure injection).
pub use liquid_sim as sim;

/// The coordination service (ZooKeeper analogue).
pub use liquid_coord as coord;

/// The commit-log implementation backing every feed.
pub use liquid_log as log;

/// The embedded LSM key-value store (RocksDB analogue).
pub use liquid_kv as kv;

/// The messaging layer (Kafka analogue).
pub use liquid_messaging as messaging;

/// The processing layer (Samza analogue).
pub use liquid_processing as processing;

/// The resource manager (YARN analogue).
pub use liquid_yarn as yarn;

/// The baseline distributed file system (HDFS analogue).
pub use liquid_dfs as dfs;

/// The baseline MapReduce engine.
pub use liquid_mr as mr;

/// Synthetic workload generators for the paper's use cases.
pub use liquid_workloads as workloads;

pub use acl::{Access, AclRegistry};
pub use lineage::Lineage;
pub use stack::{FeedConfig, FeedKind, Liquid, LiquidConfig};

/// Errors from the integrated stack (re-exported from the layers).
#[derive(Debug)]
pub enum LiquidError {
    /// Messaging layer error.
    Messaging(liquid_messaging::MessagingError),
    /// Processing layer error.
    Processing(liquid_processing::ProcessingError),
    /// Resource manager error.
    Yarn(liquid_yarn::YarnError),
    /// Coordination error.
    Coord(liquid_coord::CoordError),
    /// Stack-level misuse.
    Invalid(String),
    /// A principal attempted an operation its grants do not allow.
    AccessDenied {
        /// The requesting principal.
        principal: String,
        /// The governed feed.
        feed: String,
    },
}

impl std::fmt::Display for LiquidError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiquidError::Messaging(e) => write!(f, "messaging: {e}"),
            LiquidError::Processing(e) => write!(f, "processing: {e}"),
            LiquidError::Yarn(e) => write!(f, "resources: {e}"),
            LiquidError::Coord(e) => write!(f, "coordination: {e}"),
            LiquidError::Invalid(m) => write!(f, "invalid: {m}"),
            LiquidError::AccessDenied { principal, feed } => {
                write!(f, "access denied: {principal} on feed {feed}")
            }
        }
    }
}

impl std::error::Error for LiquidError {}

impl From<liquid_messaging::MessagingError> for LiquidError {
    fn from(e: liquid_messaging::MessagingError) -> Self {
        LiquidError::Messaging(e)
    }
}

impl From<liquid_processing::ProcessingError> for LiquidError {
    fn from(e: liquid_processing::ProcessingError) -> Self {
        LiquidError::Processing(e)
    }
}

impl From<liquid_yarn::YarnError> for LiquidError {
    fn from(e: liquid_yarn::YarnError) -> Self {
        LiquidError::Yarn(e)
    }
}

impl From<liquid_coord::CoordError> for LiquidError {
    fn from(e: liquid_coord::CoordError) -> Self {
        LiquidError::Coord(e)
    }
}

/// Result alias for stack operations.
pub type Result<T> = std::result::Result<T, LiquidError>;

/// Everything needed to use the stack, in one import.
pub mod prelude {
    pub use crate::acl::Access;
    pub use crate::lineage::Lineage;
    pub use crate::stack::{FeedConfig, FeedKind, Liquid, LiquidConfig};
    pub use crate::{LiquidError, Result};
    pub use bytes::Bytes;
    pub use liquid_log::{BatchBuilder, RecordBatch, RetentionPolicy};
    pub use liquid_messaging::consumer::StartPosition;
    pub use liquid_messaging::{
        AckLevel, AssignmentStrategy, BatchConfig, Consumer, Message, MessageBatch, Partitioner,
        Producer, TopicPartition,
    };
    pub use liquid_processing::{
        FnTask, Job, JobConfig, JobStart, Pipeline, StateStore, StreamTask, TaskContext,
    };
    pub use liquid_sim::clock::{Clock, SharedClock, SimClock, SystemClock};
    pub use liquid_yarn::{ContainerRequest, ResourceManager};
}
