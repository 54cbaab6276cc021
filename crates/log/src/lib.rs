//! Segmented append-only commit log (paper §3.1, §4.1).
//!
//! Each topic-partition in Liquid's messaging layer is one of these logs:
//! an ordered, immutable sequence of records identified by a dense
//! `u64` **offset**. The implementation mirrors the design the paper
//! attributes to Kafka:
//!
//! * records are appended to the **active segment**; when it exceeds the
//!   configured size the segment is *sealed* and a new one starts
//!   ([`segment`]);
//! * every segment keeps a **sparse offset index** (one entry per
//!   `index_interval_bytes`) and a **time index**, so reads at an
//!   arbitrary offset or timestamp locate the right byte position
//!   without scanning;
//! * storage is pluggable ([`storage`]): in-memory for deterministic
//!   tests, file-backed for durability, both optionally charged through
//!   the [`liquid_sim::pagecache`] model to reproduce the anti-caching
//!   experiments;
//! * segments partition the stream **by time** as well as size (each
//!   tracks the `(oldest, newest)` timestamp range it covers, and the
//!   active segment also rolls on age via `segment_ms`), so
//!   **retention** is an O(1) whole-segment drop by age or total size
//!   ([`Log::enforce_retention`]) — never a record rewrite;
//! * an append is one **frame** per batch — the producer's batch *is*
//!   the frame ([`batch`]), sealed in place, frozen once, one storage
//!   write; a follower stores the leader's frames verbatim
//!   ([`Log::append_frames_from`]) — and reads are **one
//!   layered path**: the active segment's records are served from an
//!   in-memory tail of immutable per-append runs (slices of the stored
//!   frames), handed out as [`Records`] views that share the runs
//!   ([`view`]); sealed segments from a **sharded LRU read cache** of
//!   decoded records ([`cache`]), and only a cache miss (or a log
//!   without a cache) scans storage, one window at a time, CRC-checking
//!   every record it decodes ([`Log::read`]);
//! * **compaction** de-duplicates keyed records, keeping only the most
//!   recent value per key ([`compaction`]) — the mechanism changelogs
//!   rely on for bounded size and fast recovery (§4.1). It rewrites one
//!   segment at a time, so tombstone GC never blocks appends.
//!
//! Records carry a wire format with a CRC so corruption is detected on
//! read ([`record`]).

#![forbid(unsafe_code)]

pub mod batch;
pub mod cache;
pub mod compaction;
pub mod error;
pub mod log;
pub mod record;
pub mod segment;
pub mod storage;
pub mod view;

pub use batch::{BatchBuilder, RecordBatch};
pub use cache::{ReadCacheConfig, SegmentReadCache};
pub use compaction::CompactionStats;
pub use error::LogError;
pub use log::{Log, LogConfig, ReadOutcome, RetentionPolicy};
pub use record::Record;
pub use storage::{FileStorage, MemStorage, SegmentStorage, StorageKind};
pub use view::Records;

/// Result alias for log operations.
pub type Result<T> = std::result::Result<T, LogError>;
