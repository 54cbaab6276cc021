//! The Liquid processing layer (paper §3.2, §4.2, §4.4).
//!
//! A stateful stream-processing framework in the mold of Apache Samza:
//!
//! * a **job** embodies computation over streams; it is split into one
//!   **task per input partition** for parallelism ([`job`], [`task`]);
//! * tasks hold **explicit local state** in an embedded LSM store
//!   ([`liquid_kv`]); every state update is also published to a
//!   **changelog** — a compacted feed in the messaging layer — from
//!   which state is reconstructed after failure ([`state`]);
//! * tasks **checkpoint** their input offsets (with metadata
//!   annotations such as the software version) to the offset manager,
//!   enabling **incremental processing**: a restarted or periodic job
//!   reads only data it has not yet seen ([`job`], §4.2);
//! * jobs communicate exclusively by writing to and reading from the
//!   messaging layer, which decouples producers from consumers and
//!   avoids any backpressure protocol (§3.2) — [`pipeline`] wires
//!   multi-stage dataflow graphs this way;
//! * [`window`] and [`join`] provide the standard building blocks:
//!   tumbling window aggregation, stream-table joins.

#![forbid(unsafe_code)]

pub mod dsl;
pub mod error;
pub mod job;
pub mod join;
pub mod pipeline;
pub mod state;
pub mod task;
pub mod window;

pub use dsl::{Record, Stream};
pub use error::ProcessingError;
pub use job::{Job, JobConfig, JobStart};
pub use pipeline::{Pipeline, Stage};
pub use state::StateStore;
pub use task::{FnTask, StreamTask, TaskContext};

/// Result alias for processing operations.
pub type Result<T> = std::result::Result<T, ProcessingError>;
