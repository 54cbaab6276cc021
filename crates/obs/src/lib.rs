//! Unified observability: an instrument registry plus a causal tracer.
//!
//! Liquid's operational story (§5: tens of TB/day through hundreds of
//! jobs) presupposes operators can *see* the stack — per-partition lag,
//! replication progress, checkpoint cadence. This crate is the
//! measurement substrate the rest of the workspace wires through its
//! hot paths:
//!
//! * a thread-safe **instrument registry** ([`registry`]) of labeled
//!   counters, gauges, and log-bucketed histograms, addressable as
//!   `component.instrument{label=value}` and exportable as one
//!   JSON-serializable [`Snapshot`];
//! * a **causal event tracer** ([`trace`]): span IDs minted at produce
//!   time, propagated through replication, fetch, task delivery, and
//!   checkpoint, recorded into a bounded ring buffer with JSON export;
//! * the log-bucketed [`stats::Histogram`] and [`stats::Counter`];
//! * a tiny dependency-free JSON writer/parser ([`json`]) used for
//!   snapshot export, round-trip tests, and the CI schema check.
//!
//! # Naming scheme
//!
//! Instrument names are lowercase dotted paths, `component.instrument`
//! (`cluster.messages_in`, `log.append`). Every fault-injection site in
//! `liquid_sim::failure::SITES` has a **twin counter with the exact
//! site name** (`log.append`, `replication.fetch`, …) counting attempts
//! at that site; `liquid-lint`'s `obs-instrument` rule enforces the
//! pairing. Labeled variants render sorted label pairs in braces:
//! `partition.high_watermark{tp=orders-0}`.
//!
//! # The `obs-off` feature
//!
//! With `--features obs-off` every handle is a zero-sized no-op, the
//! registry stores nothing, and [`Tracer::mint`] returns span 0. All
//! `cfg` logic lives in this crate: dependents call the same API in
//! both modes and pay (almost) nothing when it is compiled out.

#![forbid(unsafe_code)]

pub mod json;
pub mod registry;
pub mod stats;
pub mod trace;

use std::sync::Arc;

pub use registry::{
    CounterHandle, GaugeHandle, HistogramHandle, HistogramSummary, Registry, Snapshot,
};
pub use stats::{Counter, Histogram};
pub use trace::{Event, Tracer};

/// A cheap-to-clone bundle of one [`Registry`] and one [`Tracer`].
///
/// Each subsystem config (`LogConfig`, `LsmConfig`, `ClusterConfig`)
/// carries one of these; cloning shares the underlying instruments, so
/// a cluster and the per-replica logs it opens report into the same
/// registry. `Obs::default()` is a fresh, private instance — tests and
/// unrelated components never share counters by accident.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    registry: Arc<Registry>,
    tracer: Arc<Tracer>,
}

impl Obs {
    /// A fresh observability domain with empty instruments.
    pub fn new() -> Self {
        Obs::default()
    }

    /// The instrument registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The causal event tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Convenience: a point-in-time snapshot of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_instruments() {
        let obs = Obs::new();
        let twin = obs.clone();
        obs.registry().counter("a.b").inc();
        twin.registry().counter("a.b").add(2);
        #[cfg(not(feature = "obs-off"))]
        assert_eq!(obs.registry().counter_value("a.b"), 3);
        #[cfg(feature = "obs-off")]
        assert_eq!(obs.registry().counter_value("a.b"), 0);
    }

    #[test]
    fn default_instances_are_isolated() {
        let a = Obs::new();
        let b = Obs::new();
        a.registry().counter("x.y").inc();
        assert_eq!(b.registry().counter_value("x.y"), 0);
    }
}
