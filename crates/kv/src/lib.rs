//! Embedded LSM-tree key-value store.
//!
//! The paper's processing layer keeps task state *off-heap* in RocksDB
//! (§4.4) so stateful jobs are not throttled by garbage collection and
//! can hold state larger than memory. This crate is the workspace's
//! RocksDB stand-in: a log-structured merge tree with
//!
//! * an in-memory **memtable** ([`memtable`]) absorbing writes;
//! * a **write-ahead log** ([`wal`]) making those writes durable before
//!   they are acknowledged — for a store with a directory; one without
//!   keeps none, its owner holds the durable copy (a task's changelog);
//! * immutable sorted **SSTables** ([`sstable`]) produced when the
//!   memtable fills, each guarded by a **bloom filter** ([`bloom`]);
//! * size-tiered **compaction** merging tables level by level;
//! * whole-table **retention** ([`store::SstRetention`]): expired
//!   SSTables are dropped whole from the bottom level, an O(1) unlink
//!   per table — the same drop shape as the log's segment retention;
//! * point reads, ordered range scans and consistent **snapshots**
//!   ([`store`]).
//!
//! The store is deliberately API-compatible with what the processing
//! layer needs from RocksDB: `get`/`put`/`delete`/`update`/`range`,
//! plus `flush` and restart recovery.

#![forbid(unsafe_code)]

pub mod bloom;
pub mod error;
pub mod memtable;
pub mod sstable;
pub mod store;
pub mod wal;

pub use error::KvError;
pub use store::{LsmConfig, LsmStore, Snapshot, SstRetention};

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, KvError>;
