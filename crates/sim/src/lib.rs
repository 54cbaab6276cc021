//! Simulation substrate for the Liquid data integration stack.
//!
//! Every other crate in the workspace builds on the primitives here:
//!
//! * [`clock`] — a [`clock::Clock`] abstraction with a real
//!   [`clock::SystemClock`] and a manually-advanced
//!   [`clock::SimClock`] so that time-dependent behaviour
//!   (retention, flush timeouts, windows, session expiry) is testable
//!   deterministically.
//! * [`rng`] — seeded random number generation and the skewed
//!   distributions used by workload generators.
//! * [`pagecache`] — an explicit OS page-cache model reproducing the
//!   "anti-caching" behaviour the paper relies on in §4.1: the head of an
//!   append-only log stays RAM-resident, cold reads pay a simulated disk
//!   cost, and sequential access triggers prefetching.
//! * [`disk`] — a simple disk cost model (seek latency + transfer rate).
//! * [`failure`] — deterministic and probabilistic failure injection.
//! * [`chaos`] — seeded chaos plans: reproducible operation/fault
//!   interleavings interpreted by the integration-level chaos harness.
//! * [`sched`] — liquid-check: the deterministic model-checking
//!   scheduler (virtual threads, DFS interleaving explorer, schedule
//!   replay) and its [`sched::Shared`] tracked cells.
//! * [`vclock`] — the vector clocks behind the happens-before race
//!   detector.
//! * [`lockdep`] — rank-tracked locks; under a model run every
//!   acquire/release is also a schedule point.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod clock;
pub mod disk;
pub mod failure;
pub mod lockdep;
pub mod pagecache;
pub mod rng;
pub mod sched;
pub mod vclock;

/// Schedulable stand-ins for `std::thread`: the only spawn primitives
/// the `raw-thread` lint permits outside `crates/sim`.
pub mod thread {
    pub use crate::sched::{
        scope, spawn, spawn_named, yield_point, JoinHandle, Scope, ScopedJoinHandle,
    };
}

pub use clock::{Clock, SharedClock, SimClock, SystemClock, Ts};
