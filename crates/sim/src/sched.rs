//! liquid-check: a deterministic model-checking scheduler with
//! vector-clock race detection.
//!
//! # How it works
//!
//! A scenario runs its threads as real OS threads, but a controller
//! serializes them: at every *schedule point* the running thread parks
//! and the controller picks which parked thread continues. Schedule
//! points are exactly the operations whose order can matter:
//!
//! * acquisition and release of the [`lockdep`] `Mutex`/`RwLock`
//!   wrappers (one point per lock instance),
//! * every [`FailureInjector::tick`] fault site,
//! * [`chan`] send/receive hand-offs,
//! * [`Shared`] tracked-cell reads and writes,
//! * a spawned thread's first step, and joining a live thread.
//!
//! Everything between two schedule points is thread-local by
//! construction (the `raw-thread` lint bans untracked concurrency
//! primitives outside this crate), so exploring all orderings of
//! schedule points explores all distinguishable interleavings.
//!
//! [`check`] drives a scenario through one exhaustive DFS over those
//! orderings, reduced by *sleep sets*: an order that only commutes
//! independent actions is not re-explored, so each Mazurkiewicz trace
//! runs once. Independence is mode-aware: two read-mode actions on
//! one `RwLock` commute, as do two reads of one cell. Any failing run
//! prints a `CHECK_SCENARIO=<name> CHECK_SCHEDULE=<t0.t1...>` line;
//! setting those environment variables replays that exact interleaving.
//!
//! On top of the scheduler rides a happens-before race detector:
//! every thread, lock, and channel carries a [`VClock`], edges are
//! added at fork/join, release→acquire and send→receive, and a
//! [`Shared`] cell reports any read/write pair left unordered —
//! naming both source sites. A lock keeps two clocks: a write release
//! orders every later acquire, a read release only later writers, so
//! two readers stay unordered, as they are on a real `RwLock`. Outside
//! a model run every hook in this module is a no-op, so production and
//! chaos-harness behaviour is unchanged.
//!
//! [`lockdep`]: crate::lockdep
//! [`FailureInjector::tick`]: crate::failure::FailureInjector::tick
//! [`VClock`]: crate::vclock::VClock

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe, Location};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, Once};

use crate::vclock::VClock;

// ---------------------------------------------------------------------------
// Controller state
// ---------------------------------------------------------------------------

/// What a parked thread is about to do. The controller uses this for
/// enabledness (can the action run now?) and the explorer for
/// independence (do two actions commute?).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Act {
    /// First scheduling of a freshly spawned thread.
    Start,
    /// Acquire a lockdep lock; `write` covers mutexes and RwLock
    /// writers. `rank` is the lockdep rank name, carried for
    /// deterministic failure messages (ids are addresses and vary
    /// across runs).
    LockAcq {
        id: usize,
        write: bool,
        rank: &'static str,
    },
    /// Release a lockdep lock.
    LockRel {
        id: usize,
        write: bool,
        rank: &'static str,
    },
    /// Push into a [`chan`].
    ChanSend { id: usize },
    /// Pop from a [`chan`]; enabled only while non-empty.
    ChanRecv { id: usize },
    /// Wait for a live thread to exit.
    Join { child: usize },
    /// A `FailureInjector::tick` fault site.
    Tick { id: usize, site: &'static str },
    /// [`Shared`] cell access.
    Cell {
        id: usize,
        write: bool,
        name: &'static str,
    },
}

impl Act {
    /// Address-free description used in deadlock dumps and failure
    /// text, so replayed failures are byte-identical.
    fn describe(self) -> String {
        match self {
            Act::Start => "start".to_string(),
            Act::LockAcq { write, rank, .. } => {
                format!("acquire-{}({rank})", if write { "write" } else { "read" })
            }
            Act::LockRel { rank, .. } => format!("release({rank})"),
            Act::ChanSend { .. } => "chan-send".to_string(),
            Act::ChanRecv { .. } => "chan-recv".to_string(),
            Act::Join { child } => format!("join(t{child})"),
            Act::Tick { site, .. } => format!("tick({site})"),
            Act::Cell { write, name, .. } => {
                format!("cell-{}({name})", if write { "write" } else { "read" })
            }
        }
    }
}

impl Act {
    /// Do two actions commute? Sleep sets only prune orderings of
    /// independent pairs, so "dependent" is the safe default.
    fn independent(self, other: Act) -> bool {
        use Act::*;
        match (self, other) {
            // A thread's first step touches nothing shared.
            (Start, _) | (_, Start) => true,
            // Join only observes an exit; it commutes with anything
            // except (conservatively) actions of the joined thread —
            // which can't be pending anyway once it is joinable.
            (Join { .. }, _) | (_, Join { .. }) => true,
            // Read-mode actions on one lock commute: a reader neither
            // blocks another nor reads the clock a read release writes.
            (
                LockAcq {
                    id: a, write: wa, ..
                }
                | LockRel {
                    id: a, write: wa, ..
                },
                LockAcq {
                    id: b, write: wb, ..
                }
                | LockRel {
                    id: b, write: wb, ..
                },
            ) => a != b || (!wa && !wb),
            (ChanSend { id: a } | ChanRecv { id: a }, ChanSend { id: b } | ChanRecv { id: b }) => {
                a != b
            }
            (Tick { id: a, .. }, Tick { id: b, .. }) => a != b,
            (
                Cell {
                    id: a, write: wa, ..
                },
                Cell {
                    id: b, write: wb, ..
                },
            ) => a != b || (!wa && !wb),
            _ => true,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Real thread exists but has not reached its first park yet.
    Starting,
    /// Parked at a schedule point, waiting to be chosen.
    Parked,
    /// Chosen; executing up to its next schedule point.
    Running,
    /// Body finished (or unwound during an abort).
    Exited,
}

struct ThreadState {
    name: String,
    status: Status,
    /// The action this thread is parked on (valid while `Parked`).
    pending: Act,
    /// This thread's happens-before clock.
    vc: VClock,
    /// Set when the thread panicked with a real failure (not an
    /// abort-drain unwind).
    failed: bool,
}

#[derive(Default)]
struct LockModel {
    writer: Option<usize>,
    readers: u32,
    /// Joined from each write release; joined into every acquire.
    vc: VClock,
    /// Joined from each read release; joined into write acquires only,
    /// so readers are ordered before the next writer but not before
    /// one another.
    read_vc: VClock,
}

impl LockModel {
    fn release(&mut self, write: bool, tvc: &VClock) {
        if write {
            self.writer = None;
            self.vc.join(tvc);
        } else {
            self.readers = self.readers.saturating_sub(1);
            self.read_vc.join(tvc);
        }
    }
}

#[derive(Default)]
struct ChanModel {
    /// One clock per in-flight message, FIFO.
    msg_vcs: VecDeque<VClock>,
}

/// Last-access bookkeeping for one [`Shared`] cell.
struct CellModel {
    name: &'static str,
    last_write: Option<(usize, VClock, &'static Location<'static>)>,
    /// Latest read per thread since the last ordered write.
    reads: Vec<(usize, VClock, &'static Location<'static>)>,
}

struct CtrlState {
    threads: Vec<ThreadState>,
    locks: HashMap<usize, LockModel>,
    chans: HashMap<usize, ChanModel>,
    cells: HashMap<usize, CellModel>,
    /// Decisions taken so far this run (the schedule string).
    schedule: Vec<usize>,
    /// First failure observed this run.
    failure: Option<String>,
    /// Set to drain the run: every parked thread wakes and unwinds.
    abort: bool,
}

impl CtrlState {
    fn enabled(&self, tid: usize) -> bool {
        let t = &self.threads[tid];
        if t.status != Status::Parked {
            return false;
        }
        match t.pending {
            Act::LockAcq { id, write, .. } => {
                let l = self.locks.get(&id);
                match l {
                    None => true,
                    Some(l) => {
                        if write {
                            l.writer.is_none() && l.readers == 0
                        } else {
                            l.writer.is_none()
                        }
                    }
                }
            }
            Act::ChanRecv { id } => self.chans.get(&id).is_some_and(|c| !c.msg_vcs.is_empty()),
            Act::Join { child } => self.threads[child].status == Status::Exited,
            _ => true,
        }
    }

    fn enabled_tids(&self) -> Vec<usize> {
        (0..self.threads.len())
            .filter(|&t| self.enabled(t))
            .collect()
    }

    /// Model-level effects of letting `tid` take its pending action.
    /// Called by the controller at decision time, before waking the
    /// thread.
    fn commit(&mut self, tid: usize) {
        let act = self.threads[tid].pending;
        match act {
            Act::Start => {}
            Act::LockAcq { id, write, .. } => {
                let l = self.locks.entry(id).or_default();
                let tvc = &mut self.threads[tid].vc;
                tvc.join(&l.vc);
                if write {
                    l.writer = Some(tid);
                    tvc.join(&l.read_vc);
                } else {
                    l.readers += 1;
                }
            }
            Act::LockRel { id, write, .. } => {
                if let Some(l) = self.locks.get_mut(&id) {
                    l.release(write, &self.threads[tid].vc);
                }
            }
            Act::ChanSend { id } => {
                let vc = self.threads[tid].vc.clone();
                self.chans.entry(id).or_default().msg_vcs.push_back(vc);
            }
            Act::ChanRecv { id } => {
                if let Some(vc) = self.chans.get_mut(&id).and_then(|c| c.msg_vcs.pop_front()) {
                    self.threads[tid].vc.join(&vc);
                }
            }
            Act::Join { child } => {
                let cvc = self.threads[child].vc.clone();
                self.threads[tid].vc.join(&cvc);
            }
            Act::Tick { .. } => {}
            Act::Cell { .. } => {
                // Race check happened when the access parked; nothing
                // model-global changes.
            }
        }
        self.threads[tid].vc.tick(tid);
        self.schedule.push(tid);
        self.threads[tid].status = Status::Running;
    }

    fn record_failure(&mut self, msg: String) {
        if self.failure.is_none() {
            self.failure = Some(msg);
        }
        self.abort = true;
    }
}

struct Ctrl {
    m: StdMutex<CtrlState>,
    cv: Condvar,
}

impl Ctrl {
    fn new() -> Ctrl {
        Ctrl {
            m: StdMutex::new(CtrlState {
                threads: Vec::new(),
                locks: HashMap::new(),
                chans: HashMap::new(),
                cells: HashMap::new(),
                schedule: Vec::new(),
                failure: None,
                abort: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> StdMutexGuard<'_, CtrlState> {
        self.m.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Marker payload used to unwind virtual threads when a run aborts;
/// the thread wrappers recognise and swallow it.
struct RunAborted;

/// Installs, once per process, a panic hook that drops [`RunAborted`]
/// payloads and hands every other panic to the hook it replaces. Every
/// pruned or failed run unwinds each of its virtual threads with one,
/// and the default hook would print each (thousands a suite), burying a
/// real failure's report among them.
fn silence_run_aborts() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<RunAborted>().is_none() {
                previous(info);
            }
        }));
    });
}

thread_local! {
    /// `(controller, my virtual tid)` — present only on threads spawned
    /// into a model run.
    static CTX: RefCell<Option<(Arc<Ctrl>, usize)>> = const { RefCell::new(None) };
}

fn ctx() -> Option<(Arc<Ctrl>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

/// True when the calling thread is a virtual thread inside a model
/// run. Instrumentation hooks bail out immediately when this is false.
pub fn in_model() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// Parks the calling virtual thread at a schedule point announcing
/// `act`, and returns once the controller chooses it. Panics with the
/// abort marker if the run is being drained.
fn schedule_point(act: Act) {
    let Some((ctrl, tid)) = ctx() else { return };
    if std::thread::panicking() {
        // Already unwinding (abort drain or a real failure): taking
        // more schedule points would double-panic.
        return;
    }
    let mut st = ctrl.lock();
    if st.abort {
        drop(st);
        std::panic::panic_any(RunAborted);
    }
    st.threads[tid].pending = act;
    st.threads[tid].status = Status::Parked;
    ctrl.cv.notify_all();
    while st.threads[tid].status == Status::Parked && !st.abort {
        st = ctrl.cv.wait(st).unwrap_or_else(|p| p.into_inner());
    }
    if st.threads[tid].status != Status::Running {
        drop(st);
        std::panic::panic_any(RunAborted);
    }
}

// ---------------------------------------------------------------------------
// Instrumentation hooks (lockdep, failure injector)
// ---------------------------------------------------------------------------

/// Lock flavour, from the model's point of view: writers exclude
/// everyone, readers exclude only writers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `Mutex::lock` or `RwLock::write`.
    Exclusive,
    /// `RwLock::read`.
    Shared,
}

/// RAII token returned by [`lock_acquired`]; dropping it is the
/// model-level release point. In lockdep guards it must be declared
/// *after* the real `parking_lot` guard, so the real unlock
/// happens-before the model release commits — which is what lets the
/// controller grant the lock to another thread without that thread
/// blocking on the real lock.
pub struct LockToken {
    id: usize,
    write: bool,
    rank: &'static str,
    armed: bool,
}

impl Drop for LockToken {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let Some((ctrl, tid)) = ctx() else { return };
        if std::thread::panicking() {
            // Unwinding (abort drain): release the model lock without
            // parking so other drained threads don't see it held.
            let mut st = ctrl.lock();
            let st = &mut *st;
            if let Some(l) = st.locks.get_mut(&self.id) {
                l.release(self.write, &st.threads[tid].vc);
            }
            ctrl.cv.notify_all();
            return;
        }
        schedule_point(Act::LockRel {
            id: self.id,
            write: self.write,
            rank: self.rank,
        });
    }
}

/// Called by the lockdep wrappers immediately *before* taking the real
/// lock. Blocks until the model grants the acquisition (the model lock
/// is free), which guarantees the subsequent real acquisition cannot
/// block. Outside a model run this is free.
pub fn lock_acquired(id: usize, kind: LockKind, rank: &'static str) -> LockToken {
    let write = kind == LockKind::Exclusive;
    if !in_model() {
        return LockToken {
            id,
            write,
            rank,
            armed: false,
        };
    }
    schedule_point(Act::LockAcq { id, write, rank });
    LockToken {
        id,
        write,
        rank,
        armed: true,
    }
}

/// Called by [`FailureInjector::tick`] before evaluating the site: the
/// order fault sites fire in is exactly the order the injector's
/// internal counters advance, so each one is a schedule point.
///
/// [`FailureInjector::tick`]: crate::failure::FailureInjector::tick
pub fn tick_point(injector_id: usize, site: &'static str) {
    if !in_model() {
        return;
    }
    schedule_point(Act::Tick {
        id: injector_id,
        site,
    });
}

// ---------------------------------------------------------------------------
// Virtual threads
// ---------------------------------------------------------------------------

fn register_thread(ctrl: &Arc<Ctrl>, name: String, parent: Option<usize>) -> usize {
    let mut st = ctrl.lock();
    let tid = st.threads.len();
    let vc = match parent {
        Some(p) => st.threads[p].vc.fork(tid),
        None => {
            let mut v = VClock::new();
            v.tick(tid);
            v
        }
    };
    if let Some(p) = parent {
        // The fork itself is an event on the parent.
        st.threads[p].vc.tick(p);
    }
    st.threads.push(ThreadState {
        name,
        status: Status::Starting,
        pending: Act::Start,
        vc,
        failed: false,
    });
    ctrl.cv.notify_all();
    tid
}

/// Runs `f` as virtual thread `tid`: parks for its first scheduling,
/// then executes, handling exit and panic protocol.
fn thread_main<T>(ctrl: Arc<Ctrl>, tid: usize, f: impl FnOnce() -> T) -> Option<T> {
    CTX.with(|c| *c.borrow_mut() = Some((ctrl.clone(), tid)));
    let parked = catch_unwind(AssertUnwindSafe(|| schedule_point(Act::Start)));
    let result = match parked {
        Ok(()) => catch_unwind(AssertUnwindSafe(f)),
        Err(p) => Err(p),
    };
    CTX.with(|c| *c.borrow_mut() = None);
    let mut st = ctrl.lock();
    let out = match result {
        Ok(v) => Some(v),
        Err(payload) => {
            if payload.downcast_ref::<RunAborted>().is_none() && !st.abort {
                let msg = panic_message(&payload);
                let name = st.threads[tid].name.clone();
                st.threads[tid].failed = true;
                st.record_failure(format!("thread '{name}' panicked: {msg}"));
            }
            None
        }
    };
    st.threads[tid].status = Status::Exited;
    ctrl.cv.notify_all();
    out
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Handle to a virtual (or, outside a model run, plain OS) thread.
pub struct JoinHandle<T> {
    tid: Option<usize>,
    inner: std::thread::JoinHandle<Option<T>>,
}

impl<T> JoinHandle<T> {
    /// Waits for the thread and returns its result. A panic on the
    /// child propagates to the joiner, matching
    /// `handle.join().unwrap_or_else(|e| resume_unwind(e))` on std.
    pub fn join(self) -> T {
        if let Some(child) = self.tid {
            join_point(child);
        }
        match self.inner.join() {
            Ok(Some(v)) => v,
            // Child unwound during an abort drain: keep draining.
            Ok(None) => std::panic::panic_any(RunAborted),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

/// Parks on `Join(child)` if the child is still live; if it already
/// exited this is just a clock join, not a schedule point (joining a
/// finished thread commutes with everything).
fn join_point(child: usize) {
    let Some((ctrl, tid)) = ctx() else { return };
    let already_exited = {
        let mut st = ctrl.lock();
        if st.threads[child].status == Status::Exited {
            let cvc = st.threads[child].vc.clone();
            st.threads[tid].vc.join(&cvc);
            st.threads[tid].vc.tick(tid);
            true
        } else {
            false
        }
    };
    if !already_exited {
        schedule_point(Act::Join { child });
    }
}

/// Spawns a thread. Inside a model run this is a virtual thread under
/// the controller; outside it is a plain OS thread. This is the only
/// spawn primitive the `raw-thread` lint permits outside `crates/sim`.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    spawn_named("worker".to_string(), f)
}

/// [`spawn`] with a thread name used in schedules, race reports and
/// deadlock dumps.
pub fn spawn_named<F, T>(name: String, f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    match ctx() {
        Some((ctrl, me)) => {
            let tid = register_thread(&ctrl, name.clone(), Some(me));
            let builder = std::thread::Builder::new().name(name);
            let inner = builder
                .spawn(move || thread_main(ctrl, tid, f))
                .unwrap_or_else(|e| panic!("liquid-check: failed to spawn virtual thread: {e}"));
            JoinHandle {
                tid: Some(tid),
                inner,
            }
        }
        None => {
            let builder = std::thread::Builder::new().name(name);
            let inner = builder
                .spawn(move || Some(f()))
                .unwrap_or_else(|e| panic!("sim::sched::spawn: failed to spawn thread: {e}"));
            JoinHandle { tid: None, inner }
        }
    }
}

// ---------------------------------------------------------------------------
// Channels
// ---------------------------------------------------------------------------

struct ChanInner<T> {
    q: StdMutex<VecDeque<T>>,
    cv: Condvar,
    closed: AtomicBool,
}

/// Sending half of a [`chan`]. Clonable; sends are schedule points
/// carrying the sender's clock.
pub struct Sender<T> {
    inner: Arc<ChanInner<T>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Receiving half of a [`chan`].
pub struct Receiver<T> {
    inner: Arc<ChanInner<T>>,
}

/// Error returned by [`Sender::send`] when the receiver is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError;

fn chan_id<T>(inner: &Arc<ChanInner<T>>) -> usize {
    Arc::as_ptr(inner) as usize
}

impl<T> Sender<T> {
    /// Sends a value. Inside a model run the hand-off is a schedule
    /// point and the receiver inherits the sender's clock.
    pub fn send(&self, value: T) -> Result<(), SendError> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(SendError);
        }
        if in_model() {
            schedule_point(Act::ChanSend {
                id: chan_id(&self.inner),
            });
        }
        let mut q = self.inner.q.lock().unwrap_or_else(|p| p.into_inner());
        q.push_back(value);
        drop(q);
        self.inner.cv.notify_all();
        Ok(())
    }
}

impl<T> Receiver<T> {
    /// Receives the next value. Inside a model run this parks as a
    /// schedule point that is enabled only while the channel is
    /// non-empty — an empty-channel receive with no live sender shows
    /// up as a model deadlock, not a hang.
    pub fn recv(&self) -> T {
        if in_model() {
            schedule_point(Act::ChanRecv {
                id: chan_id(&self.inner),
            });
            let mut q = self.inner.q.lock().unwrap_or_else(|p| p.into_inner());
            return q
                .pop_front()
                .unwrap_or_else(|| panic!("liquid-check: ChanRecv granted on an empty channel"));
        }
        let mut q = self.inner.q.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(v) = q.pop_front() {
                return v;
            }
            q = self.inner.cv.wait(q).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Non-blocking receive; never a schedule point on the empty path.
    pub fn try_recv(&self) -> Option<T> {
        let nonempty = {
            let q = self.inner.q.lock().unwrap_or_else(|p| p.into_inner());
            !q.is_empty()
        };
        if nonempty && in_model() {
            schedule_point(Act::ChanRecv {
                id: chan_id(&self.inner),
            });
        }
        let mut q = self.inner.q.lock().unwrap_or_else(|p| p.into_inner());
        q.pop_front()
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.inner.closed.store(true, Ordering::Release);
    }
}

/// Creates an unbounded channel whose hand-offs are schedule points
/// and happens-before edges inside a model run.
pub fn chan<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(ChanInner {
        q: StdMutex::new(VecDeque::new()),
        cv: Condvar::new(),
        closed: AtomicBool::new(false),
    });
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

// ---------------------------------------------------------------------------
// Shared<T>: the tracked cell
// ---------------------------------------------------------------------------

/// A tracked shared cell: every access is a schedule point, stamped
/// with the accessing thread's vector clock. Two accesses to the same
/// cell, at least one a write, left unordered by happens-before are a
/// data race; the model run fails immediately naming both source
/// sites.
///
/// Outside a model run the cell is a plain mutex-protected value with
/// no tracking.
pub struct Shared<T> {
    name: &'static str,
    value: parking_lot::Mutex<T>,
}

impl<T> Shared<T> {
    /// Wraps `value`; `name` labels the cell in race reports.
    pub fn new(name: &'static str, value: T) -> Shared<T> {
        Shared {
            name,
            value: parking_lot::Mutex::new(value),
        }
    }

    fn id(&self) -> usize {
        &self.value as *const parking_lot::Mutex<T> as usize
    }

    #[track_caller]
    fn access(&self, write: bool) {
        let Some((ctrl, tid)) = ctx() else { return };
        let site = Location::caller();
        schedule_point(Act::Cell {
            id: self.id(),
            write,
            name: self.name,
        });
        let mut st = ctrl.lock();
        let id = self.id();
        let vc = st.threads[tid].vc.clone();
        let cell = st.cells.entry(id).or_insert_with(|| CellModel {
            name: self.name,
            last_write: None,
            reads: Vec::new(),
        });
        let mut race: Option<String> = None;
        if write {
            if let Some((wtid, wvc, wsite)) = &cell.last_write {
                if *wtid != tid && !wvc.le(&vc) {
                    race = Some(race_report(
                        cell.name, "write", wsite, *wtid, "write", site, tid,
                    ));
                }
            }
            if race.is_none() {
                for (rtid, rvc, rsite) in &cell.reads {
                    if *rtid != tid && !rvc.le(&vc) {
                        race = Some(race_report(
                            cell.name, "read", rsite, *rtid, "write", site, tid,
                        ));
                        break;
                    }
                }
            }
            cell.last_write = Some((tid, vc, site));
            cell.reads.clear();
        } else {
            if let Some((wtid, wvc, wsite)) = &cell.last_write {
                if *wtid != tid && !wvc.le(&vc) {
                    race = Some(race_report(
                        cell.name, "write", wsite, *wtid, "read", site, tid,
                    ));
                }
            }
            cell.reads.retain(|(rtid, _, _)| *rtid != tid);
            cell.reads.push((tid, vc, site));
        }
        if let Some(msg) = race {
            st.record_failure(msg);
            ctrl.cv.notify_all();
            drop(st);
            std::panic::panic_any(RunAborted);
        }
    }

    /// Writes through a closure; counts as a write access.
    #[track_caller]
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        self.access(true);
        f(&mut self.value.lock())
    }

    /// Reads through a closure; counts as a read access.
    #[track_caller]
    pub fn read_with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.access(false);
        f(&self.value.lock())
    }

    /// Replaces the value; a write access.
    #[track_caller]
    pub fn set(&self, value: T) {
        self.access(true);
        *self.value.lock() = value;
    }
}

impl<T: Clone> Shared<T> {
    /// Clones the value out; a read access.
    #[track_caller]
    pub fn get(&self) -> T {
        self.access(false);
        self.value.lock().clone()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("name", &self.name)
            .field("value", &*self.value.lock())
            .finish()
    }
}

fn race_report(
    cell: &str,
    prev_kind: &str,
    prev_site: &'static Location<'static>,
    prev_tid: usize,
    cur_kind: &str,
    cur_site: &'static Location<'static>,
    cur_tid: usize,
) -> String {
    format!(
        "data race on cell '{cell}': {prev_kind} at {prev_site} (thread t{prev_tid}) is \
         concurrent with {cur_kind} at {cur_site} (thread t{cur_tid}) — no happens-before \
         edge orders them"
    )
}

// ---------------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------------

/// Exploration configuration for [`check`].
#[derive(Debug, Clone)]
pub struct Config {
    /// DFS run budget (completed plus pruned runs); past it the
    /// exploration stops with [`Report::complete`] false.
    pub max_interleavings: usize,
    /// Per-run step ceiling; exceeding it is reported as a livelock.
    pub max_steps: usize,
    /// Replay exactly this schedule (then first-enabled) once instead
    /// of exploring. The env vars `CHECK_SCENARIO`/`CHECK_SCHEDULE`
    /// set this too.
    pub replay: Option<Vec<usize>>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            max_interleavings: 50_000,
            max_steps: 20_000,
            replay: None,
        }
    }
}

/// What [`check`] found.
#[derive(Debug, Clone)]
pub struct Report {
    /// Scenario name as passed to [`check`].
    pub scenario: String,
    /// Completed (non-pruned) interleavings the DFS executed — with
    /// sleep sets, one per Mazurkiewicz trace.
    pub interleavings: usize,
    /// Runs cut short by sleep-set pruning (redundant orderings).
    pub pruned: usize,
    /// Whether the DFS exhausted the space within the budget.
    pub complete: bool,
    /// True when this was a single-schedule replay, not exploration.
    pub replayed: bool,
}

struct RunResult {
    failure: Option<String>,
    schedule: Vec<usize>,
    names: Vec<String>,
    pruned: bool,
}

/// Executes the scenario once under the controller, consulting
/// `decide` at every decision point. `decide(state, enabled)` returns
/// the tid to run, or `None` to abandon the run (sleep-set prune).
fn run_once(
    f: &Arc<dyn Fn() + Send + Sync>,
    max_steps: usize,
    decide: &mut dyn FnMut(&CtrlState, &[usize]) -> Option<usize>,
) -> RunResult {
    silence_run_aborts();
    let ctrl = Arc::new(Ctrl::new());
    let root = register_thread(&ctrl, "main".to_string(), None);
    let handle = {
        let ctrl = Arc::clone(&ctrl);
        let f = Arc::clone(f);
        std::thread::Builder::new()
            .name("model-main".to_string())
            .spawn(move || thread_main(ctrl, root, move || f()))
            .unwrap_or_else(|e| panic!("liquid-check: failed to spawn root thread: {e}"))
    };
    let mut steps = 0usize;
    let mut pruned = false;
    {
        let mut st = ctrl.lock();
        loop {
            while st
                .threads
                .iter()
                .any(|t| matches!(t.status, Status::Starting | Status::Running))
            {
                st = ctrl.cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
            if st.abort {
                // Drain: parked threads wake on abort and unwind.
                ctrl.cv.notify_all();
                while st.threads.iter().any(|t| t.status != Status::Exited) {
                    st = ctrl.cv.wait(st).unwrap_or_else(|p| p.into_inner());
                    ctrl.cv.notify_all();
                }
                break;
            }
            if st.threads.iter().all(|t| t.status == Status::Exited) {
                break;
            }
            let enabled = st.enabled_tids();
            if enabled.is_empty() {
                let mut dump = String::from("deadlock — no thread can make progress:");
                for (i, t) in st.threads.iter().enumerate() {
                    if t.status != Status::Exited {
                        dump.push_str(&format!(
                            "\n    t{i} '{}' blocked on {}",
                            t.name,
                            t.pending.describe()
                        ));
                    }
                }
                st.record_failure(dump);
                ctrl.cv.notify_all();
                continue;
            }
            if steps >= max_steps {
                st.record_failure(format!(
                    "livelock — run exceeded {max_steps} schedule points without terminating"
                ));
                ctrl.cv.notify_all();
                continue;
            }
            match decide(&st, &enabled) {
                Some(tid) => {
                    debug_assert!(
                        st.enabled(tid),
                        "liquid-check: scheduler chose a disabled thread t{tid}"
                    );
                    st.commit(tid);
                    steps += 1;
                    ctrl.cv.notify_all();
                }
                None => {
                    pruned = true;
                    st.abort = true;
                    ctrl.cv.notify_all();
                    continue;
                }
            }
        }
    }
    let _ = handle.join();
    let st = ctrl.lock();
    RunResult {
        failure: if pruned { None } else { st.failure.clone() },
        schedule: st.schedule.clone(),
        names: st.threads.iter().map(|t| t.name.clone()).collect(),
        pruned,
    }
}

/// One DFS node: the state of exploration at a given depth.
struct Node {
    enabled: Vec<usize>,
    /// Pending action per enabled thread at this node.
    acts: Vec<(usize, Act)>,
    /// Sleep set; grows with each explored sibling choice.
    sleep: std::collections::BTreeSet<usize>,
    chosen: usize,
}

impl Node {
    /// The first enabled thread not asleep at this node.
    fn next_candidate(&self) -> Option<usize> {
        self.enabled
            .iter()
            .copied()
            .find(|t| !self.sleep.contains(t))
    }
}

fn join_schedule(schedule: &[usize]) -> String {
    let mut s = String::new();
    for (i, t) in schedule.iter().enumerate() {
        if i > 0 {
            s.push('.');
        }
        s.push_str(&t.to_string());
    }
    s
}

/// Parses a `CHECK_SCHEDULE` string (`"0.1.0.2"`) back into tids.
pub fn parse_schedule(s: &str) -> Vec<usize> {
    s.split('.')
        .filter(|p| !p.is_empty())
        .filter_map(|p| p.trim().parse().ok())
        .collect()
}

/// Pulls the `CHECK_SCENARIO=<name> CHECK_SCHEDULE=<trace>` repro pair
/// out of a failure message, for programmatic replay.
pub fn extract_schedule(msg: &str) -> Option<(String, Vec<usize>)> {
    let at = msg.find("CHECK_SCENARIO=")?;
    let rest = &msg[at + "CHECK_SCENARIO=".len()..];
    let name_end = rest.find(char::is_whitespace)?;
    let name = rest[..name_end].to_string();
    let at = rest.find("CHECK_SCHEDULE=")?;
    let rest = &rest[at + "CHECK_SCHEDULE=".len()..];
    let sched_end = rest.find(char::is_whitespace).unwrap_or(rest.len());
    Some((name, parse_schedule(&rest[..sched_end])))
}

fn format_failure(name: &str, failure: &str, schedule: &[usize], names: &[String]) -> String {
    let mut threads = String::new();
    for (i, n) in names.iter().enumerate() {
        if i > 0 {
            threads.push(' ');
        }
        threads.push_str(&format!("t{i}={n}"));
    }
    format!(
        "liquid-check[{name}] failed: {failure}\n  \
         replay: CHECK_SCENARIO={name} CHECK_SCHEDULE={}\n  \
         threads: {threads}",
        join_schedule(schedule)
    )
}

fn artifact_path(name: &str) -> std::path::PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let safe: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    std::path::Path::new(&target)
        .join("model")
        .join(format!("{safe}.schedule"))
}

fn write_artifact(name: &str, text: &str) {
    let path = artifact_path(name);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let _ = std::fs::write(path, text);
}

fn fail_run(name: &str, failure: &str, schedule: &[usize], names: &[String]) -> ! {
    let text = format_failure(name, failure, schedule, names);
    write_artifact(name, &text);
    panic!("{text}");
}

/// Replays `sched` exactly, then continues first-enabled. Panics with
/// the (byte-identical) formatted failure if the run fails.
fn replay_once(name: &str, f: &Arc<dyn Fn() + Send + Sync>, cfg: &Config, sched: &[usize]) {
    let mut depth = 0usize;
    let mut diverged: Option<String> = None;
    let res = run_once(f, cfg.max_steps, &mut |_st, enabled| {
        let k = depth;
        depth += 1;
        if let Some(&t) = sched.get(k) {
            if enabled.contains(&t) {
                Some(t)
            } else {
                diverged = Some(format!(
                    "replay diverged at step {k}: schedule says t{t} but enabled set is {enabled:?}"
                ));
                None
            }
        } else {
            enabled.first().copied()
        }
    });
    if let Some(d) = diverged {
        panic!("liquid-check[{name}]: {d}");
    }
    if let Some(fail) = res.failure {
        fail_run(name, &fail, &res.schedule, &res.names);
    }
}

/// Model-checks `scenario`: explores its interleavings by DFS with
/// sleep sets, one run per Mazurkiewicz trace, until the space is
/// exhausted or [`Config::max_interleavings`] runs. Panics on the first
/// failing interleaving with a `CHECK_SCENARIO=.. CHECK_SCHEDULE=..`
/// repro line (also written under `target/model/`); setting those env
/// vars — or [`Config::replay`] — replays that schedule instead of
/// exploring.
pub fn check(name: &str, cfg: Config, scenario: impl Fn() + Send + Sync + 'static) -> Report {
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(scenario);
    let env_replay = std::env::var("CHECK_SCENARIO")
        .ok()
        .filter(|s| s == name)
        .and_then(|_| std::env::var("CHECK_SCHEDULE").ok())
        .map(|s| parse_schedule(&s));
    if let Some(sched) = env_replay.or_else(|| cfg.replay.clone()) {
        replay_once(name, &f, &cfg, &sched);
        return Report {
            scenario: name.to_string(),
            interleavings: 1,
            pruned: 0,
            complete: false,
            replayed: true,
        };
    }

    let mut stack: Vec<Node> = Vec::new();
    let mut interleavings = 0usize;
    let mut pruned_runs = 0usize;
    let mut complete = false;
    loop {
        let mut depth = 0usize;
        let mut prune_run = false;
        let res = {
            let stack_ref = &mut stack;
            let prune_ref = &mut prune_run;
            run_once(&f, cfg.max_steps, &mut |st, enabled| {
                let k = depth;
                depth += 1;
                if k < stack_ref.len() {
                    debug_assert_eq!(
                        stack_ref[k].enabled, enabled,
                        "liquid-check[{name}]: nondeterministic scenario — enabled sets \
                         diverged while replaying the DFS prefix at step {k}"
                    );
                    return Some(stack_ref[k].chosen);
                }
                let acts: Vec<(usize, Act)> = st
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.status == Status::Parked)
                    .map(|(i, t)| (i, t.pending))
                    .collect();
                // A sleeping thread stays asleep while the chosen
                // action commutes with its pending one.
                let sleep = match k.checked_sub(1).map(|p| &stack_ref[p]) {
                    None => std::collections::BTreeSet::new(),
                    Some(parent) => {
                        let act_of =
                            |t: usize| parent.acts.iter().find(|(u, _)| *u == t).map(|(_, a)| *a);
                        let chosen_act = act_of(parent.chosen);
                        parent
                            .sleep
                            .iter()
                            .copied()
                            .filter(|&s| match (chosen_act, act_of(s)) {
                                (Some(ca), Some(sa)) => sa.independent(ca),
                                _ => false,
                            })
                            .collect()
                    }
                };
                let mut node = Node {
                    enabled: enabled.to_vec(),
                    acts,
                    sleep,
                    chosen: 0,
                };
                match node.next_candidate() {
                    Some(c) => {
                        node.chosen = c;
                        stack_ref.push(node);
                        Some(c)
                    }
                    None => {
                        *prune_ref = true;
                        None
                    }
                }
            })
        };
        if let Some(fail) = res.failure {
            fail_run(name, &fail, &res.schedule, &res.names);
        }
        if prune_run || res.pruned {
            pruned_runs += 1;
        } else {
            interleavings += 1;
        }
        // Backtrack: deepest node with an untried, unslept candidate.
        loop {
            match stack.last_mut() {
                None => {
                    complete = true;
                    break;
                }
                Some(top) => {
                    top.sleep.insert(top.chosen);
                    if let Some(c) = top.next_candidate() {
                        top.chosen = c;
                        break;
                    }
                    stack.pop();
                }
            }
        }
        if complete || interleavings + pruned_runs >= cfg.max_interleavings {
            break;
        }
    }

    Report {
        scenario: name.to_string(),
        interleavings,
        pruned: pruned_runs,
        complete,
        replayed: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockdep;
    use std::panic::catch_unwind;

    fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "<non-string>".to_string())
    }

    #[test]
    fn single_thread_scenario_is_one_interleaving() {
        let report = check("single", Config::default(), || {
            let m = lockdep::Mutex::new("log.pagecache", 0u64);
            *m.lock() += 1;
            *m.lock() += 1;
            Shared::new("single.cell", 0u64).set(*m.lock());
        });
        assert!(report.complete);
        assert_eq!(report.interleavings, 1);
        assert_eq!(report.pruned, 0);
    }

    #[test]
    fn same_lock_two_threads_explores_both_orders() {
        let report = check("two-producers-one-lock", Config::default(), || {
            let m = Arc::new(lockdep::Mutex::new("log.pagecache", 0u64));
            let a = Arc::clone(&m);
            let b = Arc::clone(&m);
            let ha = spawn_named("a".into(), move || *a.lock() += 1);
            let hb = spawn_named("b".into(), move || *b.lock() += 1);
            ha.join();
            hb.join();
            assert_eq!(*m.lock(), 2);
        });
        assert!(report.complete);
        // Two dependent critical sections: exactly the two orders.
        assert_eq!(report.interleavings, 2, "report: {report:?}");
    }

    #[test]
    fn independent_locks_collapse_to_one_trace() {
        let report = check("independent-locks", Config::default(), || {
            let m1 = Arc::new(lockdep::Mutex::new("log.pagecache", 0u64));
            let m2 = Arc::new(lockdep::Mutex::new("offsets.inner", 0u64));
            let h1 = spawn_named("a".into(), move || *m1.lock() += 1);
            let h2 = spawn_named("b".into(), move || *m2.lock() += 1);
            h1.join();
            h2.join();
        });
        assert!(report.complete);
        // All actions commute; sleep sets collapse the space.
        assert_eq!(report.interleavings, 1, "report: {report:?}");
    }

    #[test]
    fn channel_handoff_is_a_happens_before_edge() {
        let report = check("chan-hb", Config::default(), || {
            let cell = Arc::new(Shared::new("chan.hb.cell", 0u64));
            let (tx, rx) = chan::<()>();
            let w = Arc::clone(&cell);
            let producer = spawn_named("producer".into(), move || {
                w.set(42);
                tx.send(()).ok();
            });
            let r = Arc::clone(&cell);
            let consumer = spawn_named("consumer".into(), move || {
                rx.recv();
                assert_eq!(r.get(), 42);
            });
            producer.join();
            consumer.join();
        });
        assert!(report.complete);
        assert!(report.interleavings >= 1);
    }

    #[test]
    fn racy_cells_are_flagged_with_both_sites() {
        let err = catch_unwind(|| {
            check("racy-fixture", Config::default(), || {
                let c = Arc::new(Shared::new("racy.counter", 0u64));
                let a = Arc::clone(&c);
                let b = Arc::clone(&c);
                let ha = spawn_named("a".into(), move || a.with(|v| *v += 1));
                let hb = spawn_named("b".into(), move || b.with(|v| *v += 1));
                ha.join();
                hb.join();
            });
        })
        .expect_err("unsynchronized writes must be reported as a race");
        let msg = panic_text(err);
        assert!(
            msg.contains("data race on cell 'racy.counter'"),
            "msg: {msg}"
        );
        assert!(msg.contains("CHECK_SCHEDULE="), "msg: {msg}");
        // Both access sites are named, file:line:col.
        assert_eq!(msg.matches("sched.rs:").count(), 2, "msg: {msg}");
    }

    #[test]
    fn lock_protected_twin_is_race_free() {
        let report = check("lock-protected-twin", Config::default(), || {
            let c = Arc::new(Shared::new("clean.counter", 0u64));
            let m = Arc::new(lockdep::Mutex::new("log.pagecache", ()));
            let (c1, m1) = (Arc::clone(&c), Arc::clone(&m));
            let (c2, m2) = (Arc::clone(&c), Arc::clone(&m));
            let h1 = spawn_named("a".into(), move || {
                let _g = m1.lock();
                c1.with(|v| *v += 1);
            });
            let h2 = spawn_named("b".into(), move || {
                let _g = m2.lock();
                c2.with(|v| *v += 1);
            });
            h1.join();
            h2.join();
            assert_eq!(c.get(), 2);
        });
        assert!(report.complete);
        assert_eq!(report.interleavings, 2, "report: {report:?}");
    }

    #[test]
    fn deadlock_is_detected_not_hung() {
        let err = catch_unwind(|| {
            check("deadlock", Config::default(), || {
                let (tx, rx) = chan::<u8>();
                drop(tx);
                let h = spawn_named("consumer".into(), move || {
                    rx.recv();
                });
                h.join();
            });
        })
        .expect_err("an un-satisfiable recv must be reported as deadlock");
        let msg = panic_text(err);
        assert!(msg.contains("deadlock"), "msg: {msg}");
        assert!(msg.contains("chan-recv"), "msg: {msg}");
        assert!(msg.contains("join(t1)"), "msg: {msg}");
    }

    #[test]
    fn replay_reproduces_failure_byte_for_byte() {
        let scenario = || {
            let c = Arc::new(Shared::new("replay.cell", 0u64));
            let a = Arc::clone(&c);
            let b = Arc::clone(&c);
            let ha = spawn_named("a".into(), move || a.with(|v| *v += 1));
            let hb = spawn_named("b".into(), move || b.with(|v| *v += 1));
            ha.join();
            hb.join();
        };
        let first = panic_text(
            catch_unwind(|| check("replay-rt", Config::default(), scenario))
                .expect_err("exploration must fail"),
        );
        let (name, sched) = extract_schedule(&first).expect("repro line must parse");
        assert_eq!(name, "replay-rt");
        assert!(!sched.is_empty());
        let cfg = Config {
            replay: Some(sched),
            ..Config::default()
        };
        let second = panic_text(
            catch_unwind(|| check("replay-rt", cfg, scenario))
                .expect_err("replay must reproduce the failure"),
        );
        assert_eq!(
            first, second,
            "replay must reproduce the failure byte-for-byte"
        );
    }

    /// Spawns `a` and `b` over one `cluster.state` RwLock and joins
    /// both.
    fn two_threads_on_one_rwlock(
        a: impl FnOnce(&lockdep::RwLock<u64>) + Send + 'static,
        b: impl FnOnce(&lockdep::RwLock<u64>) + Send + 'static,
    ) {
        let l = Arc::new(lockdep::RwLock::new("cluster.state", 0u64));
        let (la, lb) = (Arc::clone(&l), Arc::clone(&l));
        let ha = spawn_named("a".into(), move || a(&la));
        let hb = spawn_named("b".into(), move || b(&lb));
        ha.join();
        hb.join();
    }

    fn read_twice(l: &lockdep::RwLock<u64>) {
        let first = *l.read();
        assert_eq!(*l.read(), first);
    }

    #[test]
    fn readers_of_one_rwlock_commute() {
        let report = check("two-readers", Config::default(), || {
            two_threads_on_one_rwlock(read_twice, read_twice);
        });
        assert!(report.complete);
        // Four read acquisitions and releases, all mutually
        // independent: one trace.
        assert_eq!(report.interleavings, 1, "report: {report:?}");
    }

    #[test]
    fn reader_and_writer_of_one_rwlock_explore_both_orders() {
        let report = check("reader-vs-writer", Config::default(), || {
            two_threads_on_one_rwlock(|l| drop(l.read()), |l| *l.write() += 1);
        });
        assert!(report.complete);
        // The read section runs before or after the write section: two
        // traces. A read that commuted with the write would collapse
        // them to one (its pruned runs still perform the read, so
        // counting is what tells).
        assert_eq!(report.interleavings, 2, "report: {report:?}");
    }

    #[test]
    fn readers_writing_one_cell_race() {
        // One run is enough, since happens-before races show in any
        // interleaving. The first run is the serial one, where a's read
        // section ends before b's begins: an edge from a read release
        // to the next reader would hide the race there.
        let one_run = Config {
            max_interleavings: 1,
            ..Config::default()
        };
        let err = catch_unwind(|| {
            check("readers-write-a-cell", one_run, || {
                let c = Arc::new(Shared::new("readers.cell", 0u64));
                let (ca, cb) = (Arc::clone(&c), Arc::clone(&c));
                two_threads_on_one_rwlock(
                    move |l| {
                        let _g = l.read();
                        ca.with(|v| *v += 1);
                    },
                    move |l| {
                        let _g = l.read();
                        cb.with(|v| *v += 1);
                    },
                );
            });
        })
        .expect_err("a read lock does not order its holders' writes");
        let msg = panic_text(err);
        assert!(
            msg.contains("data race on cell 'readers.cell'"),
            "msg: {msg}"
        );
    }

    #[test]
    fn tick_sites_are_schedule_points() {
        let report = check("tick-points", Config::default(), || {
            let inj = crate::failure::FailureInjector::disabled();
            let i1 = inj.clone();
            let i2 = inj.clone();
            let h1 = spawn_named("a".into(), move || {
                i1.tick("log.append");
            });
            let h2 = spawn_named("b".into(), move || {
                i2.tick("log.append");
            });
            h1.join();
            h2.join();
        });
        assert!(report.complete);
        // Same injector: the two ticks are dependent, both orders run.
        assert_eq!(report.interleavings, 2, "report: {report:?}");
    }

    #[test]
    fn outside_a_model_run_primitives_are_passthrough() {
        assert!(!in_model());
        let (tx, rx) = chan::<u32>();
        tx.send(7).ok();
        assert_eq!(rx.try_recv(), Some(7));
        let cell = Shared::new("passthrough", 1u64);
        cell.set(2);
        assert_eq!(cell.get(), 2);
        let h = spawn(|| 40 + 2);
        assert_eq!(h.join(), 42);
    }

    #[test]
    fn schedule_string_round_trips() {
        assert_eq!(parse_schedule("0.1.2.1"), vec![0, 1, 2, 1]);
        assert_eq!(parse_schedule(""), Vec::<usize>::new());
        let msg = "liquid-check[x] failed: boom\n  replay: CHECK_SCENARIO=x CHECK_SCHEDULE=0.1.0\n  threads: t0=main";
        let (name, sched) = extract_schedule(msg).expect("parse");
        assert_eq!(name, "x");
        assert_eq!(sched, vec![0, 1, 0]);
    }
}
