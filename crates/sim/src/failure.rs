//! Failure injection.
//!
//! Liquid's availability story (§4.3) is exercised by killing brokers and
//! processing tasks at controlled points. Two mechanisms are provided:
//! a deterministic schedule (fail exactly at operation N) and a seeded
//! probabilistic injector, both usable from tests and experiments.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::Rng;

use crate::rng::seeded;

/// Every named fault-injection site in the workspace.
///
/// A *site* is one decision point where a component consults its
/// injector before a fallible operation. Sites are named so that (a)
/// chaos-run logs say *which* operation an injected fault hit, and (b)
/// the static analyzer (`liquid-lint`, lint `fault-site`) can check
/// the call sites and this registry against each other: a tick string
/// missing here — or an entry here with no call site — is a build
/// failure, so the registry cannot drift from the code.
pub const SITES: &[&str] = &[
    // log crate
    "log.append",
    "log.roll",
    "log.compact",
    "log.segment-drop",
    "log.cache-evict",
    // kv crate (task state stores)
    "kv.wal-append",
    "kv.flush",
    "kv.sst-write",
    "kv.compact",
    "kv.sst-drop",
    // messaging crate
    "replication.fetch",
    "cluster.election",
    "offsets.commit",
    // processing crate
    "task.checkpoint",
    "task.restore",
];

/// A failure decision point. Components call [`FailureInjector::tick`]
/// with their site name before fallible operations and abort/crash
/// when it returns `true`.
#[derive(Debug, Clone)]
pub struct FailureInjector {
    inner: Arc<Inner>,
}

/// A tick that fires nothing touches atomics only: the op counter, the
/// next scheduled op, the probability and its site's operation count.
/// The schedule's lock is taken only when the op it names arrives, the
/// RNG's only when a probability is set.
#[derive(Debug)]
struct Inner {
    ops: AtomicU64,
    schedule: Mutex<BTreeSet<u64>>,
    /// The smallest op in `schedule` (`u64::MAX` when it is empty),
    /// written under its lock.
    next_scheduled: AtomicU64,
    probability_millionths: AtomicU64,
    rng: Mutex<rand::rngs::StdRng>,
    fired: AtomicU64,
    /// `(operations, failures)` per entry of [`SITES`], by position.
    per_site: [(AtomicU64, AtomicU64); SITES.len()],
}

impl FailureInjector {
    /// An injector that never fires.
    pub fn disabled() -> Self {
        Self::new(0)
    }

    /// Creates an injector with a deterministic RNG seed (used only when
    /// a probability is configured).
    pub fn new(seed: u64) -> Self {
        FailureInjector {
            inner: Arc::new(Inner {
                ops: AtomicU64::new(0),
                schedule: Mutex::new(BTreeSet::new()),
                next_scheduled: AtomicU64::new(u64::MAX),
                probability_millionths: AtomicU64::new(0),
                rng: Mutex::new(seeded(seed)),
                fired: AtomicU64::new(0),
                per_site: std::array::from_fn(|_| (AtomicU64::new(0), AtomicU64::new(0))),
            }),
        }
    }

    /// Schedules a failure at the `n`-th future call to [`tick`](Self::tick)
    /// (1-based relative to the operations seen so far).
    pub fn fail_at(&self, n: u64) {
        let base = self.inner.ops.load(Ordering::SeqCst);
        let mut schedule = self.inner.schedule.lock();
        schedule.insert(base + n);
        self.inner
            .next_scheduled
            .fetch_min(base + n, Ordering::SeqCst);
    }

    /// Sets the per-operation failure probability (0.0..=1.0).
    pub fn set_probability(&self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.inner
            .probability_millionths
            .store((p * 1_000_000.0) as u64, Ordering::SeqCst);
    }

    /// Registers one operation at the named [`SITES`] entry; returns
    /// `true` if the component should fail now. In debug builds an
    /// unregistered site name is a programming error and aborts —
    /// release builds skip the check (the static pass enforces it at
    /// lint time anyway).
    pub fn tick(&self, site: &'static str) -> bool {
        debug_assert!(
            SITES.contains(&site),
            "fault site {site:?} is not registered in sim::failure::SITES"
        );
        // Under liquid-check, the order fault sites fire in is the
        // order these counters advance — a schedule point. No-op
        // outside a model run.
        crate::sched::tick_point(Arc::as_ptr(&self.inner) as usize, site);
        let op = self.inner.ops.fetch_add(1, Ordering::SeqCst) + 1;
        let scheduled =
            op >= self.inner.next_scheduled.load(Ordering::SeqCst) && self.take_scheduled(op);
        let fired = scheduled || {
            let p = self.inner.probability_millionths.load(Ordering::SeqCst);
            p > 0 && self.inner.rng.lock().gen_range(0..1_000_000u64) < p
        };
        if fired {
            self.inner.fired.fetch_add(1, Ordering::SeqCst);
        }
        // An unregistered name (release builds only) is not counted.
        if let Some((ops, failures)) = SITES
            .iter()
            .position(|&s| s == site)
            .and_then(|i| self.inner.per_site.get(i))
        {
            ops.fetch_add(1, Ordering::Relaxed);
            if fired {
                failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        fired
    }

    /// Whether `op` was scheduled to fail; takes it — and any op before
    /// it, which can no longer arrive — off the schedule.
    fn take_scheduled(&self, op: u64) -> bool {
        let mut schedule = self.inner.schedule.lock();
        let later = schedule.split_off(&op.saturating_add(1));
        let scheduled = schedule.contains(&op);
        *schedule = later;
        let next = schedule.first().copied().unwrap_or(u64::MAX);
        self.inner.next_scheduled.store(next, Ordering::SeqCst);
        scheduled
    }

    /// Operations observed so far.
    pub fn operations(&self) -> u64 {
        self.inner.ops.load(Ordering::SeqCst)
    }

    /// Failures fired so far.
    pub fn failures(&self) -> u64 {
        self.inner.fired.load(Ordering::SeqCst)
    }

    /// Per-site `(operations, failures)` so far — chaos-run reports use
    /// this to say which operation an injected fault actually hit.
    /// Sites that were never reached are left out; the rest come in
    /// name order.
    pub fn site_counts(&self) -> Vec<(&'static str, u64, u64)> {
        let mut counts: Vec<(&'static str, u64, u64)> = SITES
            .iter()
            .zip(&self.inner.per_site)
            .map(|(&site, (ops, failures))| {
                (
                    site,
                    ops.load(Ordering::Relaxed),
                    failures.load(Ordering::Relaxed),
                )
            })
            .filter(|&(_, ops, _)| ops > 0)
            .collect();
        counts.sort_unstable_by_key(|&(site, _, _)| site);
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_fires() {
        let f = FailureInjector::disabled();
        for _ in 0..1000 {
            assert!(!f.tick("log.append"));
        }
        assert_eq!(f.failures(), 0);
    }

    #[test]
    fn fail_at_fires_exactly_once() {
        let f = FailureInjector::new(0);
        f.fail_at(3);
        assert!(!f.tick("log.append"));
        assert!(!f.tick("log.append"));
        assert!(f.tick("log.append"));
        assert!(!f.tick("log.append"));
        assert_eq!(f.failures(), 1);
    }

    #[test]
    fn fail_at_is_relative_to_current_ops() {
        let f = FailureInjector::new(0);
        f.tick("log.append");
        f.tick("log.append");
        f.fail_at(1);
        assert!(f.tick("log.append"));
    }

    #[test]
    fn probability_fires_roughly_proportionally() {
        let f = FailureInjector::new(42);
        f.set_probability(0.1);
        let mut fired = 0;
        for _ in 0..10_000 {
            if f.tick("log.append") {
                fired += 1;
            }
        }
        assert!(
            (700..1300).contains(&fired),
            "fired {fired} of 10k at p=0.1"
        );
    }

    #[test]
    fn clones_share_state() {
        let f = FailureInjector::new(0);
        let g = f.clone();
        f.fail_at(1);
        assert!(g.tick("log.append"));
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn rejects_bad_probability() {
        FailureInjector::new(0).set_probability(1.5);
    }

    #[test]
    fn probability_zero_never_fires() {
        let f = FailureInjector::new(7);
        f.set_probability(0.0);
        for _ in 0..1000 {
            assert!(!f.tick("log.append"));
        }
        assert_eq!(f.failures(), 0);
        assert_eq!(f.operations(), 1000);
    }

    #[test]
    fn probability_one_always_fires() {
        let f = FailureInjector::new(7);
        f.set_probability(1.0);
        for _ in 0..1000 {
            assert!(f.tick("log.append"));
        }
        assert_eq!(f.failures(), 1000);
    }

    #[test]
    fn per_site_counts_split_operations_and_failures() {
        let f = FailureInjector::new(0);
        f.fail_at(2);
        f.tick("log.append");
        f.tick("kv.flush");
        f.tick("kv.flush");
        let counts = f.site_counts();
        assert_eq!(counts, vec![("kv.flush", 2, 1), ("log.append", 1, 0)]);
        assert_eq!(f.operations(), 3);
        assert_eq!(f.failures(), 1);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "site check is debug-only")]
    #[should_panic(expected = "not registered in sim::failure::SITES")]
    fn unregistered_site_aborts_in_debug() {
        // lint:allow(fault-site, reason=unregistered_site_aborts_in_debug exists to prove unregistered names abort)
        FailureInjector::disabled().tick("no.such.site");
    }

    #[test]
    fn fail_at_one_fires_on_next_tick() {
        // fail_at is 1-based: fail_at(1) means "the very next tick".
        let f = FailureInjector::new(0);
        f.fail_at(1);
        assert!(f.tick("log.append"));
        assert!(!f.tick("log.append"));
    }

    #[test]
    fn multiple_schedules_fire_independently() {
        let f = FailureInjector::new(0);
        f.fail_at(2);
        f.fail_at(4);
        let fired: Vec<bool> = (0..5).map(|_| f.tick("log.append")).collect();
        assert_eq!(fired, vec![false, true, false, true, false]);
        assert_eq!(f.failures(), 2);
        assert_eq!(f.operations(), 5);
    }

    #[test]
    fn fired_accounting_counts_schedule_and_probability() {
        let f = FailureInjector::new(3);
        f.fail_at(1);
        assert!(f.tick("log.append"));
        f.set_probability(1.0);
        assert!(f.tick("log.append"));
        assert_eq!(f.failures(), 2);
    }

    #[test]
    fn same_seed_same_probabilistic_stream() {
        let a = FailureInjector::new(99);
        let b = FailureInjector::new(99);
        a.set_probability(0.5);
        b.set_probability(0.5);
        for _ in 0..1000 {
            assert_eq!(a.tick("log.append"), b.tick("log.append"));
        }
        assert_eq!(a.failures(), b.failures());
    }
}
