//! Runtime lock-order checking (lockdep).
//!
//! The static pass (`liquid-lint`, lint `lock-order`) proves ordering
//! for acquisitions it can see nested in one function body; this
//! module is its dynamic twin, catching the orders that only emerge at
//! runtime — a consumer holding its state lock while the cluster takes
//! its own, a rebalance calling back into partition metadata. The
//! tracked [`Mutex`]/[`RwLock`] wrap `parking_lot` and, in debug
//! builds, record every acquisition against a per-thread stack of held
//! locks plus a global rank graph:
//!
//! * **Rank inversion** — acquiring a lock whose [`RANKS`] order is
//!   not strictly below every lock the thread already holds aborts
//!   immediately with both sites named.
//! * **Cycle** — each acquisition adds `held → acquired` edges to a
//!   process-wide graph; a cycle there means two threads disagree
//!   about ordering even if neither has deadlocked yet.
//!
//! Release builds compile the wrappers down to plain `parking_lot`
//! locks: no thread-local, no graph, no branch.
//!
//! The table below is the single source of truth for the hierarchy —
//! the analyzer parses it out of this file's source, so editing it
//! re-checks the whole tree, and the liquid-check model scheduler
//! ([`crate::sched`]) labels lock schedule points with these same rank
//! names. Orders must be acquired strictly descending, which encodes
//! today's call graph: the DFS namespace locks state over stats; the
//! stack holds its managed-job list across YARN resource-manager
//! calls; a consumer calls into the group registry and cluster, the
//! group registry reads cluster metadata for assignment, the offset
//! manager holds its index (`offsets.inner`) across the cluster calls
//! that create, write and fetch `__offsets`, the cluster
//! resolves a partition under its metadata lock and then works inside
//! that partition's own shard lock (`partition.state` — one mutex per
//! partition, ranked just below `cluster.state` so the
//! metadata-read-then-shard-lock pattern is descending; shards never
//! nest each other, which same-rank reentrancy checking enforces),
//! fires coordination-tree watches and touches the
//! segment-read cache shards (`log.readcache`) and log page caches —
//! a cache miss fills under its shard lock and charges the page-cache
//! model below it, so the read-cache rank sits above `log.pagecache`;
//! and ACL grants are leaves that call nothing.

use std::ops::{Deref, DerefMut};

/// The lock hierarchy: `(rank name, order)`. Locks must be acquired in
/// strictly descending order of `order`.
pub const RANKS: &[(&str, u32)] = &[
    ("dfs.state", 96),
    ("dfs.stats", 94),
    ("stack.feeds", 80),
    ("stack.managed", 75),
    ("yarn.state", 70),
    ("producer.batches", 65),
    ("consumer.state", 60),
    ("group.groups", 50),
    ("offsets.inner", 45),
    ("cluster.state", 40),
    ("partition.state", 35),
    ("coord.tree", 15),
    ("log.readcache", 8),
    ("log.pagecache", 5),
    ("acl.grants", 3),
];

/// The order declared for `rank`, if any.
pub fn order_of(rank: &str) -> Option<u32> {
    RANKS.iter().find(|(n, _)| *n == rank).map(|(_, o)| *o)
}

fn resolve(rank: &'static str) -> u32 {
    match order_of(rank) {
        Some(o) => o,
        None => panic!("lockdep: rank {rank:?} is not declared in sim::lockdep::RANKS"),
    }
}

/// A rank-tracked mutex. Construction names the lock's rank; every
/// `lock()` in a debug build checks the hierarchy.
#[derive(Debug)]
pub struct Mutex<T> {
    rank: &'static str,
    order: u32,
    inner: parking_lot::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Wraps `value` under the given [`RANKS`] name.
    pub fn new(rank: &'static str, value: T) -> Self {
        Mutex {
            rank,
            order: resolve(rank),
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Acquires the mutex, enforcing the rank hierarchy in debug
    /// builds. Under a liquid-check model run the acquisition is a
    /// schedule point: the call parks until the model grants the lock,
    /// which guarantees the real acquisition below cannot block.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let sched = crate::sched::lock_acquired(
            &self.inner as *const parking_lot::Mutex<T> as usize,
            crate::sched::LockKind::Exclusive,
            self.rank,
        );
        let token = tracking::acquire(self.rank, self.order);
        MutexGuard {
            inner: self.inner.lock(),
            _token: token,
            _sched: sched,
        }
    }
}

/// A rank-tracked reader-writer lock. Read and write acquisitions
/// count the same for ordering purposes — `parking_lot`'s `RwLock` is
/// write-preferring, so even recursive *reads* on one thread can
/// deadlock against a queued writer, and lockdep flags them.
#[derive(Debug)]
pub struct RwLock<T> {
    rank: &'static str,
    order: u32,
    inner: parking_lot::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Wraps `value` under the given [`RANKS`] name.
    pub fn new(rank: &'static str, value: T) -> Self {
        RwLock {
            rank,
            order: resolve(rank),
            inner: parking_lot::RwLock::new(value),
        }
    }

    /// Acquires a shared read guard (a schedule point under
    /// liquid-check, enabled while no writer holds the model lock).
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let sched = crate::sched::lock_acquired(
            &self.inner as *const parking_lot::RwLock<T> as usize,
            crate::sched::LockKind::Shared,
            self.rank,
        );
        let token = tracking::acquire(self.rank, self.order);
        RwLockReadGuard {
            inner: self.inner.read(),
            _token: token,
            _sched: sched,
        }
    }

    /// Acquires an exclusive write guard (a schedule point under
    /// liquid-check, enabled while the model lock is free).
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let sched = crate::sched::lock_acquired(
            &self.inner as *const parking_lot::RwLock<T> as usize,
            crate::sched::LockKind::Exclusive,
            self.rank,
        );
        let token = tracking::acquire(self.rank, self.order);
        RwLockWriteGuard {
            inner: self.inner.write(),
            _token: token,
            _sched: sched,
        }
    }
}

// Guard field order is load-bearing: fields drop in declaration
// order, so the real `parking_lot` guard (`inner`) unlocks first and
// the liquid-check release token (`_sched`) commits the model-level
// release last. That ordering is what lets the model grant the lock
// to another thread knowing the real lock is already free.

/// Guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T> {
    inner: parking_lot::MutexGuard<'a, T>,
    _token: tracking::Token,
    _sched: crate::sched::LockToken,
}

/// Guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T> {
    inner: parking_lot::RwLockReadGuard<'a, T>,
    _token: tracking::Token,
    _sched: crate::sched::LockToken,
}

/// Guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T> {
    inner: parking_lot::RwLockWriteGuard<'a, T>,
    _token: tracking::Token,
    _sched: crate::sched::LockToken,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(debug_assertions)]
mod tracking {
    //! The debug-build bookkeeping: a per-thread stack of held locks
    //! and a process-wide acquisition-order graph.

    use std::cell::{Cell, RefCell};
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::{Mutex as StdMutex, OnceLock};

    struct Held {
        id: u64,
        rank: &'static str,
        order: u32,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
        static NEXT_ID: Cell<u64> = const { Cell::new(0) };
    }

    /// `held rank → ranks acquired while holding it`, across all
    /// threads since process start.
    static EDGES: OnceLock<StdMutex<BTreeMap<&'static str, BTreeSet<&'static str>>>> =
        OnceLock::new();

    /// RAII handle for one acquisition; dropping it (with the guard)
    /// removes the entry from the thread's held stack, tolerating
    /// out-of-order guard drops.
    pub struct Token {
        id: u64,
    }

    impl Drop for Token {
        fn drop(&mut self) {
            let _ = HELD.try_with(|h| {
                let mut h = h.borrow_mut();
                if let Some(pos) = h.iter().rposition(|e| e.id == self.id) {
                    h.remove(pos);
                }
            });
        }
    }

    pub fn acquire(rank: &'static str, order: u32) -> Token {
        HELD.with(|h| {
            let held = h.borrow();
            for e in held.iter() {
                if order >= e.order {
                    let stack: Vec<&str> = held.iter().map(|e| e.rank).collect();
                    panic!(
                        "lockdep: rank inversion — acquiring {rank:?} (order {order}) while \
                         holding {:?} (order {}); held stack: {stack:?}. Locks must be taken \
                         in strictly descending sim::lockdep::RANKS order.",
                        e.rank, e.order
                    );
                }
            }
            record_edges(&held, rank);
        });
        let id = NEXT_ID.with(|n| {
            let id = n.get();
            n.set(id + 1);
            id
        });
        HELD.with(|h| {
            h.borrow_mut().push(Held { id, rank, order });
        });
        Token { id }
    }

    fn record_edges(held: &[Held], to: &'static str) {
        if held.is_empty() {
            return;
        }
        let graph = EDGES.get_or_init(|| StdMutex::new(BTreeMap::new()));
        let mut graph = match graph.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        for e in held {
            graph.entry(e.rank).or_default().insert(to);
        }
        // `held → to` just went in; a path `to → … → held` means some
        // other thread acquired these ranks in the opposite order.
        for e in held {
            if let Some(path) = find_path(&graph, to, e.rank) {
                panic!(
                    "lockdep: cycle in the global acquisition graph — {:?} is already \
                     acquired after {to:?} elsewhere (path {path:?}), but this thread holds \
                     {:?} while acquiring {to:?}",
                    e.rank, e.rank
                );
            }
        }
    }

    /// DFS path from `from` to `goal` in the edge graph, if any.
    fn find_path(
        graph: &BTreeMap<&'static str, BTreeSet<&'static str>>,
        from: &'static str,
        goal: &'static str,
    ) -> Option<Vec<&'static str>> {
        let mut stack = vec![vec![from]];
        let mut seen = BTreeSet::new();
        while let Some(path) = stack.pop() {
            let node = *path.last()?;
            if node == goal {
                return Some(path);
            }
            if !seen.insert(node) {
                continue;
            }
            if let Some(nexts) = graph.get(node) {
                for &n in nexts {
                    let mut p = path.clone();
                    p.push(n);
                    stack.push(p);
                }
            }
        }
        None
    }

    /// Ranks currently held by this thread, outermost first (test
    /// hook).
    pub fn held_ranks() -> Vec<&'static str> {
        HELD.with(|h| h.borrow().iter().map(|e| e.rank).collect())
    }
}

#[cfg(not(debug_assertions))]
mod tracking {
    //! Release builds: zero-sized token, no checks.

    pub struct Token;

    #[inline(always)]
    pub fn acquire(_rank: &'static str, _order: u32) -> Token {
        Token
    }
}

#[cfg(debug_assertions)]
/// Ranks currently held by the calling thread, outermost first.
/// Debug-only test hook.
pub fn held_ranks() -> Vec<&'static str> {
    tracking::held_ranks()
}

// The checks under test only exist with debug assertions; `cargo test
// --release` would see plain parking_lot passthrough.
#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn descending_acquisition_is_clean() {
        let a = Mutex::new("group.groups", 1u32);
        let b = Mutex::new("offsets.inner", 2u32);
        let c = Mutex::new("log.pagecache", 3u32);
        let ga = a.lock();
        let gb = b.lock();
        let gc = c.lock();
        assert_eq!(*ga + *gb + *gc, 6);
        assert_eq!(
            held_ranks(),
            vec!["group.groups", "offsets.inner", "log.pagecache"]
        );
    }

    #[test]
    fn guards_unwind_the_held_stack() {
        let a = Mutex::new("cluster.state", ());
        {
            let _g = a.lock();
            assert_eq!(held_ranks(), vec!["cluster.state"]);
        }
        assert!(held_ranks().is_empty());
        // Reacquisition after release is fine.
        let _g = a.lock();
    }

    #[test]
    fn out_of_order_release_is_tolerated() {
        let a = Mutex::new("group.groups", ());
        let b = Mutex::new("offsets.inner", ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // release the *outer* lock first
        assert_eq!(held_ranks(), vec!["offsets.inner"]);
        drop(gb);
        assert!(held_ranks().is_empty());
    }

    #[test]
    fn rank_inversion_panics() {
        let low = Mutex::new("log.pagecache", ());
        let high = Mutex::new("cluster.state", ());
        let _g = low.lock();
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _h = high.lock();
        }))
        .expect_err("ascending acquisition must abort");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("rank inversion"), "unexpected message: {msg}");
        assert!(msg.contains("cluster.state") && msg.contains("log.pagecache"));
    }

    #[test]
    fn same_rank_reentrancy_panics() {
        let a = Mutex::new("offsets.inner", ());
        let b = Mutex::new("offsets.inner", ());
        let _g = a.lock();
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _h = b.lock();
        }))
        .expect_err("same-order acquisition must abort");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("rank inversion"), "unexpected message: {msg}");
    }

    #[test]
    fn rwlock_read_then_lower_lock_is_clean() {
        let state = RwLock::new("cluster.state", 7u32);
        let part = Mutex::new("partition.state", ());
        let g = state.read();
        let _h = part.lock();
        assert_eq!(*g, 7);
    }

    #[test]
    fn rwlock_write_counts_for_ordering() {
        let state = RwLock::new("cluster.state", ());
        let groups = Mutex::new("group.groups", ());
        let _g = state.write();
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _h = groups.lock();
        }))
        .expect_err("cluster.state before group.groups is an inversion");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("group.groups"));
    }

    #[test]
    fn recursive_rwlock_read_panics() {
        // Write-preferring RwLock: read-read recursion deadlocks
        // against a queued writer, so lockdep treats it as reentrancy.
        let state = RwLock::new("cluster.state", ());
        let _g = state.read();
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _h = state.read();
        }))
        .expect_err("recursive read must abort");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("rank inversion"));
    }

    #[test]
    fn unknown_rank_panics_at_construction() {
        let err =
            catch_unwind(|| Mutex::new("no.such.rank", ())).expect_err("unranked lock must abort");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("not declared"), "unexpected message: {msg}");
    }

    #[test]
    fn panic_does_not_leak_held_entries() {
        let low = Mutex::new("log.pagecache", ());
        let high = Mutex::new("consumer.state", ());
        {
            let _g = low.lock();
            let _ = catch_unwind(AssertUnwindSafe(|| {
                let _h = high.lock();
            }));
        }
        assert!(held_ranks().is_empty());
        // The thread is still usable afterwards.
        let _g = high.lock();
        let _h = low.lock();
    }

    #[test]
    fn ranks_table_is_strictly_ordered_and_unique() {
        let mut orders: Vec<u32> = RANKS.iter().map(|&(_, o)| o).collect();
        let len = orders.len();
        orders.sort_unstable();
        orders.dedup();
        assert_eq!(orders.len(), len, "duplicate orders in RANKS");
        assert_eq!(order_of("cluster.state"), Some(40));
        assert_eq!(order_of("nope"), None);
    }
}
