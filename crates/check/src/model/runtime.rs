//! Execution state and the token-passing scheduler.
//!
//! One [`Execution`] models one run of the user closure under one
//! schedule. Model threads park on the execution's condvar; the
//! scheduler (run inline by whichever thread just yielded) grants the
//! token to the next thread according to the replay prefix and the
//! default policy, records every decision for the explorer, and
//! detects deadlocks when no thread is runnable.
//!
//! # Transitions and soundness of the sleep-set pruning
//!
//! A *transition* is one granted yield-point operation plus the
//! thread-local code that follows it up to the next yield point. The
//! only shared-state effects a transition's tail may contain are lock
//! releases (guard drops), spawns, fast-path joins, and object
//! registrations — each of which provably cannot conflict with any
//! *sleeping* thread's next operation (a sleeping thread is enabled,
//! so a lock it wants is free; a release can only enable). Every
//! operation that could conflict — acquisition, atomic access, wait
//! enqueue, notify — is its own yield point, so the dependence check
//! that wakes sleepers sees the full footprint of both sides.

use std::collections::BTreeSet;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Model thread id (creation order; 0 is the closure's main thread).
pub(crate) type Tid = usize;
/// Model object id (creation order within one execution).
pub(crate) type ObjId = usize;

/// What kind of primitive a model object is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ObjKind {
    Mutex,
    RwLock,
    Condvar,
    Atomic,
}

impl ObjKind {
    fn label(self) -> &'static str {
        match self {
            ObjKind::Mutex => "Mutex",
            ObjKind::RwLock => "RwLock",
            ObjKind::Condvar => "Condvar",
            ObjKind::Atomic => "Atomic",
        }
    }
}

/// How a lock is being acquired.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum AcqKind {
    Lock,
    Read,
    Write,
}

/// The operation a parked thread performs when next granted the token.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Pending {
    /// About to run the thread body.
    Start,
    /// Blocked acquiring a lock.
    Acquire { obj: ObjId, kind: AcqKind },
    /// About to perform an atomic operation.
    AtomicOp { obj: ObjId, write: bool },
    /// About to atomically release the mutex and enqueue on a condvar.
    WaitEnq {
        cv: ObjId,
        mutex: ObjId,
        timed: bool,
    },
    /// Parked on a condvar (holding no lock).
    Wait {
        cv: ObjId,
        mutex: ObjId,
        timed: bool,
    },
    /// Notified (or timed out); reacquiring the condvar's mutex.
    Reacquire {
        cv: ObjId,
        mutex: ObjId,
        timed_out: bool,
    },
    /// About to notify a condvar.
    Notify { cv: ObjId, all: bool },
    /// Waiting for another model thread to finish.
    Join { target: Tid },
    /// A `sleep`/`yield_now` point: runnable, touches nothing.
    Pause,
    /// Thread body returned.
    Finished,
}

/// One access performed during a transition, for dependence checks.
#[derive(Clone, Copy, Debug)]
struct AccessRec {
    obj: ObjId,
    write: bool,
}

/// A compact trace event; rendered with names only on violation.
#[derive(Clone, Copy, Debug)]
enum Ev {
    Start,
    Acquire { obj: ObjId, kind: AcqKind },
    Release { obj: ObjId },
    Atomic { obj: ObjId, write: bool },
    WaitEnq { cv: ObjId, mutex: ObjId },
    TimeoutWake { cv: ObjId, mutex: ObjId },
    Notified { cv: ObjId, mutex: ObjId },
    NotifyOne { cv: ObjId, woke: Option<Tid> },
    NotifyAll { cv: ObjId, woke: usize },
    Spawn { child: Tid },
    Join { target: Tid },
    Pause,
    Finish,
}

/// One model object's scheduler-visible state.
struct ObjectState {
    kind: ObjKind,
    /// Mutex owner, or RwLock writer.
    owner: Option<Tid>,
    /// RwLock readers.
    readers: BTreeSet<Tid>,
    /// Condvar waiters, FIFO.
    waiters: VecDeque<Tid>,
}

struct ThreadState {
    pending: Pending,
    granted: bool,
    name: String,
}

/// A fresh (not replayed) scheduling decision, reported to the
/// explorer for backtracking.
pub(crate) struct NewFrame {
    pub(crate) enabled: Vec<Tid>,
    pub(crate) sleep: BTreeSet<Tid>,
    pub(crate) last_running: Option<Tid>,
    pub(crate) preemptions: usize,
    pub(crate) chosen: Tid,
}

/// Why exploration stopped on this schedule.
#[derive(Clone, Debug)]
pub enum ViolationKind {
    /// A model thread panicked (failed `assert!` or library panic).
    Panic(String),
    /// No thread is runnable while work remains.
    Deadlock(String),
    /// A deadlock in which every stuck thread is parked on a `Condvar`
    /// that no remaining thread can notify.
    LostWakeup(String),
}

/// A failing schedule: what went wrong, on which schedule, with the
/// full step-by-step trace.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The failure class and its diagnosis.
    pub kind: ViolationKind,
    /// The choice sequence that reproduces the failure (one entry per
    /// multi-way scheduling decision).
    pub schedule: Vec<usize>,
    /// Human-readable step-by-step trace of the failing execution.
    pub trace: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (tag, msg) = match &self.kind {
            ViolationKind::Panic(m) => ("panic", m),
            ViolationKind::Deadlock(m) => ("deadlock", m),
            ViolationKind::LostWakeup(m) => ("lost wakeup", m),
        };
        writeln!(f, "model violation: {tag}")?;
        writeln!(f, "{msg}")?;
        writeln!(
            f,
            "failing schedule (decision choices): {:?}",
            self.schedule
        )?;
        write!(f, "trace:\n{}", self.trace)
    }
}

/// Exploration bounds (the validated core of
/// [`Config`](crate::model::Config)).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Bounds {
    pub(crate) max_preemptions: usize,
    pub(crate) max_steps: usize,
    pub(crate) max_timeout_wakeups: u32,
}

pub(crate) struct ExecState {
    threads: Vec<ThreadState>,
    objects: Vec<ObjectState>,
    trace: Vec<(Tid, Ev)>,
    /// Choices made this run, one per multi-way decision.
    pub(crate) schedule: Vec<Tid>,
    replay: Vec<Tid>,
    /// Sleep set to activate at the final replayed decision.
    pending_sleep: Vec<Tid>,
    sleep: BTreeSet<Tid>,
    /// Fresh decisions recorded for the explorer.
    pub(crate) new_frames: Vec<NewFrame>,
    /// Index into `new_frames` from which the run became redundant
    /// (every viable alternative was asleep or over the preemption
    /// bound).
    pub(crate) pruned_from: Option<usize>,
    /// Accesses of the transition currently executing.
    cur_accesses: Vec<AccessRec>,
    /// The thread executing the current transition.
    cur_executor: Option<Tid>,
    /// Set when the current transition finished its thread.
    cur_finished: bool,
    last_running: Option<Tid>,
    preemptions: usize,
    steps: usize,
    live: usize,
    spurious_left: Vec<u32>,
    pub(crate) violation: Option<Violation>,
    pub(crate) completed: bool,
    bounds: Bounds,
}

/// One modeled run: scheduler state plus the condvar model threads
/// park on.
pub(crate) struct Execution {
    state: Mutex<ExecState>,
    cond: Condvar,
}

// ---------------------------------------------------------------------------
// Thread-local identity: which execution (if any) this OS thread
// belongs to. Threads without a context — any thread not spawned
// through the facade from inside an execution — fall back to real std
// primitives inside the facade types.
// ---------------------------------------------------------------------------

#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) exec: Arc<Execution>,
    pub(crate) tid: Tid,
}

thread_local! {
    static CTX: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
}

pub(crate) fn current() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

fn set_ctx(ctx: Option<Ctx>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

/// A facade object's link to the execution it was created under.
#[derive(Clone)]
pub(crate) struct ModelRef {
    pub(crate) exec: Arc<Execution>,
    pub(crate) id: ObjId,
}

impl fmt::Debug for ModelRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ModelRef(#{})", self.id)
    }
}

/// Registers a new model object if the constructing thread is inside
/// an execution.
pub(crate) fn register_object(kind: ObjKind) -> Option<ModelRef> {
    let ctx = current()?;
    let id = ctx.exec.add_object(kind);
    Some(ModelRef { exec: ctx.exec, id })
}

/// The current thread's model id, when `m` belongs to the execution
/// this thread runs in — the only case where model scheduling applies.
pub(crate) fn active(m: &ModelRef) -> Option<Tid> {
    let ctx = current()?;
    Arc::ptr_eq(&ctx.exec, &m.exec).then_some(ctx.tid)
}

// ---------------------------------------------------------------------------
// Dependence
// ---------------------------------------------------------------------------

/// Whether a sleeping thread's next operation `p` conflicts with one
/// recorded access of the transition that just executed.
fn conflicts(p: Pending, a: AccessRec) -> bool {
    match p {
        Pending::Acquire { obj, kind } => a.obj == obj && (a.write || kind != AcqKind::Read),
        Pending::AtomicOp { obj, write } => a.obj == obj && (a.write || write),
        Pending::WaitEnq { cv, mutex, .. } | Pending::Wait { cv, mutex, .. } => {
            a.obj == cv || a.obj == mutex
        }
        Pending::Reacquire { mutex, .. } => a.obj == mutex,
        Pending::Notify { cv, .. } => a.obj == cv,
        Pending::Start | Pending::Join { .. } | Pending::Pause | Pending::Finished => false,
    }
}

impl ExecState {
    /// Removes from the sleep set every thread whose next operation
    /// depends on the transition that just executed.
    fn filter_sleep(&mut self) {
        if self.sleep.is_empty() {
            self.cur_accesses.clear();
            return;
        }
        let accesses = std::mem::take(&mut self.cur_accesses);
        let executor = self.cur_executor;
        let threads = &self.threads;
        self.sleep.retain(|&t| {
            let p = threads[t].pending;
            // A join's order only matters relative to steps of its
            // target (any of which may be the one that finishes it).
            if let Pending::Join { target } = p {
                return executor != Some(target);
            }
            !accesses.iter().any(|&a| conflicts(p, a))
        });
    }

    fn enabled_of(&self, tid: Tid) -> bool {
        match self.threads[tid].pending {
            Pending::Start
            | Pending::AtomicOp { .. }
            | Pending::WaitEnq { .. }
            | Pending::Notify { .. }
            | Pending::Pause => true,
            Pending::Finished => false,
            Pending::Acquire { obj, kind } => {
                let o = &self.objects[obj];
                match kind {
                    AcqKind::Lock | AcqKind::Read => o.owner.is_none(),
                    AcqKind::Write => o.owner.is_none() && o.readers.is_empty(),
                }
            }
            // A timed wait may "time out now" (and atomically
            // reacquire) while budget remains; an untimed wait is
            // runnable only after a notify converts it to Reacquire.
            Pending::Wait { mutex, timed, .. } => {
                timed && self.spurious_left[tid] > 0 && self.objects[mutex].owner.is_none()
            }
            Pending::Reacquire { mutex, .. } => self.objects[mutex].owner.is_none(),
            Pending::Join { target } => {
                matches!(self.threads[target].pending, Pending::Finished)
            }
        }
    }

    fn enabled(&self) -> Vec<Tid> {
        (0..self.threads.len())
            .filter(|&t| self.enabled_of(t))
            .collect()
    }

    // -- naming helpers (violation rendering only) ----------------------

    fn obj_name(&self, obj: ObjId) -> String {
        format!("{}#{obj}", self.objects[obj].kind.label())
    }

    fn thread_name(&self, tid: Tid) -> String {
        format!("T{tid} `{}`", self.threads[tid].name)
    }

    fn render_trace(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (step, &(tid, ev)) in self.trace.iter().enumerate() {
            let who = self.thread_name(tid);
            let what = match ev {
                Ev::Start => "starts".to_string(),
                Ev::Acquire { obj, kind } => {
                    let verb = match kind {
                        AcqKind::Lock => "locks",
                        AcqKind::Read => "read-locks",
                        AcqKind::Write => "write-locks",
                    };
                    format!("{verb} {}", self.obj_name(obj))
                }
                Ev::Release { obj } => format!("releases {}", self.obj_name(obj)),
                Ev::Atomic { obj, write } => format!(
                    "{} {}",
                    if write {
                        "atomically updates"
                    } else {
                        "atomically loads"
                    },
                    self.obj_name(obj)
                ),
                Ev::WaitEnq { cv, mutex } => format!(
                    "releases {} and waits on {}",
                    self.obj_name(mutex),
                    self.obj_name(cv)
                ),
                Ev::TimeoutWake { cv, mutex } => format!(
                    "times out on {} and reacquires {}",
                    self.obj_name(cv),
                    self.obj_name(mutex)
                ),
                Ev::Notified { cv, mutex } => format!(
                    "wakes (notified) on {} and reacquires {}",
                    self.obj_name(cv),
                    self.obj_name(mutex)
                ),
                Ev::NotifyOne { cv, woke } => match woke {
                    Some(w) => format!(
                        "notify_one on {} -> wakes {}",
                        self.obj_name(cv),
                        self.thread_name(w)
                    ),
                    None => {
                        format!("notify_one on {} -> no waiter (dropped)", self.obj_name(cv))
                    }
                },
                Ev::NotifyAll { cv, woke } => {
                    format!(
                        "notify_all on {} -> wakes {woke} waiter(s)",
                        self.obj_name(cv)
                    )
                }
                Ev::Spawn { child } => format!("spawns {}", self.thread_name(child)),
                Ev::Join { target } => format!("joins {}", self.thread_name(target)),
                Ev::Pause => "yields (sleep/yield_now)".to_string(),
                Ev::Finish => "finishes".to_string(),
            };
            let _ = writeln!(out, "  step {step:>3}: {who} {what}");
        }
        out
    }

    /// Builds the deadlock/lost-wakeup diagnosis for the current
    /// stuck state.
    fn diagnose_stuck(&self) -> ViolationKind {
        use std::fmt::Write as _;
        let mut msg = String::new();
        let mut stuck = Vec::new();
        // A stuck thread is "condvar-stuck" if it waits on a condvar
        // nobody can notify, or (transitively) joins such a thread.
        let mut cond_stuck = vec![false; self.threads.len()];
        for (tid, th) in self.threads.iter().enumerate() {
            let line = match th.pending {
                Pending::Finished => continue,
                Pending::Acquire { obj, kind } => {
                    let o = &self.objects[obj];
                    let holder = match (o.owner, o.readers.is_empty()) {
                        (Some(w), _) => format!("held by {}", self.thread_name(w)),
                        (None, false) => format!(
                            "read-held by {:?}",
                            o.readers.iter().copied().collect::<Vec<_>>()
                        ),
                        (None, true) => "unheld".to_string(),
                    };
                    format!(
                        "blocked {} {} ({holder})",
                        match kind {
                            AcqKind::Lock => "locking",
                            AcqKind::Read => "read-locking",
                            AcqKind::Write => "write-locking",
                        },
                        self.obj_name(obj)
                    )
                }
                Pending::Wait { cv, .. } => {
                    cond_stuck[tid] = true;
                    format!(
                        "parked on {} with no notify left to wake it",
                        self.obj_name(cv)
                    )
                }
                Pending::Reacquire { cv, mutex, .. } => {
                    format!(
                        "woken from {} but blocked reacquiring {}",
                        self.obj_name(cv),
                        self.obj_name(mutex)
                    )
                }
                Pending::Join { target } => {
                    format!("joining {}", self.thread_name(target))
                }
                Pending::Start
                | Pending::AtomicOp { .. }
                | Pending::WaitEnq { .. }
                | Pending::Notify { .. }
                | Pending::Pause => {
                    // Always-enabled kinds: unreachable in a stuck state.
                    continue;
                }
            };
            stuck.push(tid);
            let _ = writeln!(msg, "  {}: {line}", self.thread_name(tid));
        }
        if let Some(cycle) = self.waits_for_cycle(&stuck) {
            let mut rendered = String::from("  waits-for cycle: ");
            for (i, (tid, via)) in cycle.iter().enumerate() {
                if i > 0 {
                    rendered.push_str(" -> ");
                }
                let _ = write!(rendered, "{}", self.thread_name(*tid));
                if let Some(obj) = via {
                    let _ = write!(rendered, " --[{}]", self.obj_name(*obj));
                }
            }
            msg.push_str(&rendered);
            msg.push('\n');
        }
        // Propagate: joining a condvar-stuck thread is itself being
        // stuck on that lost wakeup.
        let mut changed = true;
        while changed {
            changed = false;
            for &tid in &stuck {
                if cond_stuck[tid] {
                    continue;
                }
                if let Pending::Join { target } = self.threads[tid].pending {
                    if cond_stuck[target] {
                        cond_stuck[tid] = true;
                        changed = true;
                    }
                }
            }
        }
        if !stuck.is_empty() && stuck.iter().all(|&t| cond_stuck[t]) {
            ViolationKind::LostWakeup(msg)
        } else {
            ViolationKind::Deadlock(msg)
        }
    }

    /// Finds a cycle in the waits-for graph among `stuck` threads.
    /// Returns the cycle as `(thread, lock it waits through)` pairs.
    fn waits_for_cycle(&self, stuck: &[Tid]) -> Option<Vec<(Tid, Option<ObjId>)>> {
        // Each stuck thread has at most one outgoing edge (to one
        // representative holder, for rendering).
        let next = |tid: Tid| -> Option<(Tid, Option<ObjId>)> {
            match self.threads[tid].pending {
                Pending::Acquire { obj, .. } | Pending::Reacquire { mutex: obj, .. } => {
                    let o = &self.objects[obj];
                    o.owner
                        .or_else(|| o.readers.iter().next().copied())
                        .map(|w| (w, Some(obj)))
                }
                Pending::Join { target } => Some((target, None)),
                _ => None,
            }
        };
        for &start in stuck {
            let mut path = vec![start];
            let mut via = Vec::new();
            let mut cur = start;
            for _ in 0..self.threads.len() {
                let Some((n, obj)) = next(cur) else { break };
                via.push(obj);
                if let Some(pos) = path.iter().position(|&p| p == n) {
                    let mut cycle: Vec<(Tid, Option<ObjId>)> = path[pos..]
                        .iter()
                        .zip(via[pos..].iter())
                        .map(|(&t, &o)| (t, o))
                        .collect();
                    cycle.push((n, None));
                    return Some(cycle);
                }
                path.push(n);
                cur = n;
            }
        }
        None
    }
}

impl Execution {
    pub(crate) fn new(bounds: Bounds, replay: Vec<Tid>, pending_sleep: Vec<Tid>) -> Arc<Self> {
        Arc::new(Execution {
            state: Mutex::new(ExecState {
                threads: Vec::new(),
                objects: Vec::new(),
                trace: Vec::new(),
                schedule: Vec::new(),
                replay,
                pending_sleep,
                sleep: BTreeSet::new(),
                new_frames: Vec::new(),
                pruned_from: None,
                cur_accesses: Vec::new(),
                cur_executor: None,
                cur_finished: false,
                last_running: None,
                preemptions: 0,
                steps: 0,
                live: 0,
                spurious_left: Vec::new(),
                violation: None,
                completed: false,
                bounds,
            }),
            cond: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, ExecState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(crate) fn with_state<R>(&self, f: impl FnOnce(&mut ExecState) -> R) -> R {
        f(&mut self.lock())
    }

    /// Blocks the driver until the run completes or violates.
    pub(crate) fn wait_outcome(&self) {
        let mut st = self.lock();
        while !st.completed && st.violation.is_none() {
            st = self
                .cond
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn add_object(&self, kind: ObjKind) -> ObjId {
        let mut st = self.lock();
        st.objects.push(ObjectState {
            kind,
            owner: None,
            readers: BTreeSet::new(),
            waiters: VecDeque::new(),
        });
        st.objects.len() - 1
    }

    /// Registers a model thread; the caller later runs
    /// [`Execution::thread_main`] on the real OS thread.
    pub(crate) fn register_thread(&self, name: String, granted: bool) -> Tid {
        let mut st = self.lock();
        let budget = st.bounds.max_timeout_wakeups;
        st.threads.push(ThreadState {
            pending: Pending::Start,
            granted,
            name,
        });
        st.spurious_left.push(budget);
        st.live += 1;
        st.threads.len() - 1
    }

    /// Records a child spawn (silent: the child becomes schedulable at
    /// the parent's next yield point; a fresh thread's first step
    /// cannot conflict with any sleeping thread).
    pub(crate) fn spawn_child(&self, parent: Tid, name: String) -> Tid {
        let child = self.register_thread(name, false);
        let mut st = self.lock();
        st.trace.push((parent, Ev::Spawn { child }));
        child
    }

    /// The body wrapper every model OS thread runs: waits for its
    /// first grant, runs `f`, converts panics into violations.
    pub(crate) fn thread_main<T>(self: &Arc<Self>, tid: Tid, f: impl FnOnce() -> T) -> Option<T> {
        set_ctx(Some(Ctx {
            exec: Arc::clone(self),
            tid,
        }));
        self.yield_park(tid);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        set_ctx(None);
        match result {
            Ok(v) => {
                self.finish(tid);
                Some(v)
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                self.record_violation_msg(tid, msg);
                None
            }
        }
    }

    // -- yield points ---------------------------------------------------

    /// Parks with `pending`, schedules the next thread, and performs
    /// this thread's operation once the token comes back.
    fn park_and_perform(&self, me: Tid, pending: Pending) {
        let mut st = self.lock();
        st.threads[me].pending = pending;
        self.schedule_next(&mut st);
        self.cond.notify_all();
        drop(st);
        self.yield_park(me);
    }

    /// Waits until granted; on grant, performs the pending operation's
    /// state transition. A `WaitEnq` grant re-parks instead of
    /// returning (the thread is then a condvar waiter).
    fn yield_park(&self, me: Tid) {
        let mut st = self.lock();
        loop {
            if st.violation.is_some() {
                // Run abandoned: park forever; the OS thread leaks by
                // design (we cannot unwind someone else's stack).
                st = self
                    .cond
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            }
            if st.threads[me].granted {
                st.threads[me].granted = false;
                if self.perform_granted(&mut st, me) {
                    return;
                }
                // Re-parked (wait enqueue): hand the token onward, and
                // loop straight back — the inline scheduler may have
                // granted *us* again (timeout fire) with nobody left
                // to notify a fresh wait.
                self.cond.notify_all();
                continue;
            }
            st = self
                .cond
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Applies the state transition of `me`'s pending operation at the
    /// moment it receives the token; records trace + access footprint.
    /// Returns `false` when the thread re-parked instead of resuming.
    fn perform_granted(&self, st: &mut ExecState, me: Tid) -> bool {
        st.cur_executor = Some(me);
        match st.threads[me].pending {
            Pending::Start => {
                st.trace.push((me, Ev::Start));
                true
            }
            Pending::Acquire { obj, kind } => {
                match kind {
                    AcqKind::Lock | AcqKind::Write => st.objects[obj].owner = Some(me),
                    AcqKind::Read => {
                        st.objects[obj].readers.insert(me);
                    }
                }
                st.trace.push((me, Ev::Acquire { obj, kind }));
                st.cur_accesses.push(AccessRec {
                    obj,
                    write: kind != AcqKind::Read,
                });
                true
            }
            Pending::AtomicOp { obj, write } => {
                st.trace.push((me, Ev::Atomic { obj, write }));
                st.cur_accesses.push(AccessRec { obj, write });
                true
            }
            Pending::WaitEnq { cv, mutex, timed } => {
                // Atomic release + enqueue, then immediately re-park as
                // a waiter: this transition is exactly these two
                // accesses, so sleeping threads see its full footprint.
                debug_assert_eq!(st.objects[mutex].owner, Some(me));
                st.objects[mutex].owner = None;
                st.objects[cv].waiters.push_back(me);
                st.threads[me].pending = Pending::Wait { cv, mutex, timed };
                st.trace.push((me, Ev::WaitEnq { cv, mutex }));
                st.cur_accesses.push(AccessRec {
                    obj: mutex,
                    write: true,
                });
                st.cur_accesses.push(AccessRec {
                    obj: cv,
                    write: true,
                });
                self.schedule_next(st);
                false
            }
            Pending::Wait { cv, mutex, .. } => {
                // Grant of a still-waiting (timed) thread: the timeout
                // fires and the mutex is reacquired in one step.
                st.objects[cv].waiters.retain(|&w| w != me);
                st.spurious_left[me] = st.spurious_left[me].saturating_sub(1);
                st.objects[mutex].owner = Some(me);
                st.threads[me].pending = Pending::Reacquire {
                    cv,
                    mutex,
                    timed_out: true,
                };
                st.trace.push((me, Ev::TimeoutWake { cv, mutex }));
                st.cur_accesses.push(AccessRec {
                    obj: cv,
                    write: true,
                });
                st.cur_accesses.push(AccessRec {
                    obj: mutex,
                    write: true,
                });
                true
            }
            Pending::Reacquire {
                cv,
                mutex,
                timed_out,
            } => {
                st.objects[mutex].owner = Some(me);
                if !timed_out {
                    st.trace.push((me, Ev::Notified { cv, mutex }));
                }
                st.cur_accesses.push(AccessRec {
                    obj: mutex,
                    write: true,
                });
                true
            }
            Pending::Notify { cv, all } => {
                let mut woke = Vec::new();
                while let Some(w) = st.objects[cv].waiters.pop_front() {
                    let Pending::Wait { cv: wcv, mutex, .. } = st.threads[w].pending else {
                        unreachable!("condvar waiter not in Wait state");
                    };
                    debug_assert_eq!(wcv, cv);
                    st.threads[w].pending = Pending::Reacquire {
                        cv,
                        mutex,
                        timed_out: false,
                    };
                    woke.push(w);
                    if !all {
                        break;
                    }
                }
                if all {
                    st.trace.push((
                        me,
                        Ev::NotifyAll {
                            cv,
                            woke: woke.len(),
                        },
                    ));
                } else {
                    st.trace.push((
                        me,
                        Ev::NotifyOne {
                            cv,
                            woke: woke.first().copied(),
                        },
                    ));
                }
                st.cur_accesses.push(AccessRec {
                    obj: cv,
                    write: true,
                });
                true
            }
            Pending::Join { target } => {
                st.trace.push((me, Ev::Join { target }));
                true
            }
            Pending::Pause => {
                st.trace.push((me, Ev::Pause));
                true
            }
            Pending::Finished => unreachable!("finished threads are never granted"),
        }
    }

    /// Lock acquisition yield point.
    pub(crate) fn acquire(&self, me: Tid, obj: ObjId, kind: AcqKind) {
        self.park_and_perform(me, Pending::Acquire { obj, kind });
    }

    /// Silent lock release (a release can never block and only ever
    /// *enables* other threads, so no scheduling decision is needed;
    /// see the module docs for why this preserves soundness).
    pub(crate) fn release(&self, me: Tid, obj: ObjId, kind: AcqKind) {
        let mut st = self.lock();
        match kind {
            AcqKind::Lock | AcqKind::Write => {
                debug_assert_eq!(st.objects[obj].owner, Some(me));
                st.objects[obj].owner = None;
            }
            AcqKind::Read => {
                st.objects[obj].readers.remove(&me);
            }
        }
        st.trace.push((me, Ev::Release { obj }));
        st.cur_accesses.push(AccessRec { obj, write: true });
    }

    /// Atomic operation yield point; the caller performs the real
    /// atomic op after this returns (single-token execution makes the
    /// grant order the op order).
    pub(crate) fn atomic(&self, me: Tid, obj: ObjId, write: bool) {
        self.park_and_perform(me, Pending::AtomicOp { obj, write });
    }

    /// Condvar wait: atomically releases the mutex and parks; returns
    /// `true` when the wake was a (modeled) timeout rather than a
    /// notify. The caller must have dropped the real mutex guard first
    /// and re-locks the real mutex after return.
    pub(crate) fn cond_wait(&self, me: Tid, cv: ObjId, mutex: ObjId, timed: bool) -> bool {
        self.park_and_perform(me, Pending::WaitEnq { cv, mutex, timed });
        // The grant chain ended with a Reacquire carrying the wake kind.
        let st = self.lock();
        match st.threads[me].pending {
            Pending::Reacquire { timed_out, .. } => timed_out,
            other => unreachable!("woken waiter has pending {other:?}"),
        }
    }

    /// Notify yield point.
    pub(crate) fn notify(&self, me: Tid, cv: ObjId, all: bool) {
        self.park_and_perform(me, Pending::Notify { cv, all });
    }

    /// Join yield point: waits until `target` finishes. Fast path when
    /// it already has.
    pub(crate) fn join(&self, me: Tid, target: Tid) {
        {
            let mut st = self.lock();
            if matches!(st.threads[target].pending, Pending::Finished) {
                st.trace.push((me, Ev::Join { target }));
                return;
            }
        }
        self.park_and_perform(me, Pending::Join { target });
    }

    /// `sleep`/`yield_now` yield point.
    pub(crate) fn pause(&self, me: Tid) {
        self.park_and_perform(me, Pending::Pause);
    }

    /// Thread completion: marks finished and schedules the next thread.
    fn finish(&self, me: Tid) {
        let mut st = self.lock();
        st.threads[me].pending = Pending::Finished;
        st.live -= 1;
        st.trace.push((me, Ev::Finish));
        st.cur_finished = true;
        self.schedule_next(&mut st);
        self.cond.notify_all();
    }

    /// Records a panic as a violation and abandons the run.
    fn record_violation_msg(&self, tid: Tid, msg: String) {
        let mut st = self.lock();
        if st.violation.is_none() {
            let v = Violation {
                kind: ViolationKind::Panic(format!("{}: {msg}", st.thread_name(tid))),
                schedule: st.schedule.clone(),
                trace: st.render_trace(),
            };
            st.violation = Some(v);
        }
        self.cond.notify_all();
    }

    // -- the scheduler --------------------------------------------------

    /// Ends the current transition and picks who runs next. Called
    /// with the state lock held by the thread that just parked or
    /// finished; the chosen thread is granted the token.
    fn schedule_next(&self, st: &mut ExecState) {
        // Close the finished transition: wake dependent sleepers.
        st.filter_sleep();
        st.cur_accesses.clear();
        st.cur_executor = None;
        st.cur_finished = false;

        if st.violation.is_some() {
            return;
        }
        if st.live == 0 {
            st.completed = true;
            return;
        }
        st.steps += 1;
        if st.steps > st.bounds.max_steps {
            let v = Violation {
                kind: ViolationKind::Panic(format!(
                    "execution exceeded max_steps = {} (livelock, or raise Config::max_steps)",
                    st.bounds.max_steps
                )),
                schedule: st.schedule.clone(),
                trace: st.render_trace(),
            };
            st.violation = Some(v);
            return;
        }

        let enabled = st.enabled();
        if enabled.is_empty() {
            let kind = st.diagnose_stuck();
            let v = Violation {
                kind,
                schedule: st.schedule.clone(),
                trace: st.render_trace(),
            };
            st.violation = Some(v);
            return;
        }

        let choice = if enabled.len() == 1 {
            enabled[0]
        } else {
            self.decide(st, &enabled)
        };
        // Executing a thread invalidates its sleep-set membership (its
        // *next* operation is a different transition).
        st.sleep.remove(&choice);

        if st.last_running.map(|lr| enabled.contains(&lr)) == Some(true)
            && st.last_running != Some(choice)
        {
            st.preemptions += 1;
        }
        st.last_running = Some(choice);
        st.threads[choice].granted = true;
    }

    /// A multi-way scheduling decision: replay, or record a fresh
    /// frame and apply the default policy (continue the running
    /// thread; avoid sleeping threads; respect the preemption bound).
    fn decide(&self, st: &mut ExecState, enabled: &[Tid]) -> Tid {
        let d = st.schedule.len();
        let choice = if d < st.replay.len() {
            let c = st.replay[d];
            assert!(
                enabled.contains(&c),
                "nondeterministic execution: replayed choice T{c} not enabled at decision {d} \
                 (model code must be deterministic given the schedule)"
            );
            if d + 1 == st.replay.len() {
                // Entering the divergent subtree: activate the sleep
                // set the explorer computed for this branch; it is
                // filtered by this very transition when it closes.
                st.sleep = st.pending_sleep.iter().copied().collect();
            }
            c
        } else {
            let last = st.last_running;
            let last_enabled = last.map(|l| enabled.contains(&l)) == Some(true);
            let cands: Vec<Tid> = enabled
                .iter()
                .copied()
                .filter(|t| !st.sleep.contains(t))
                .collect();
            let chosen = if cands.is_empty() {
                // Every enabled thread is asleep: this subtree only
                // repeats explored interleavings. Run to completion
                // (so OS threads exit cleanly) but mark it redundant.
                if st.pruned_from.is_none() {
                    st.pruned_from = Some(st.new_frames.len());
                }
                if last_enabled {
                    last.expect("last_enabled")
                } else {
                    enabled[0]
                }
            } else if last_enabled && cands.contains(&last.expect("last_enabled")) {
                last.expect("last_enabled")
            } else if last_enabled && st.preemptions >= st.bounds.max_preemptions {
                // Every candidate would preempt past the bound;
                // continuing the running thread covers the remainder.
                if st.pruned_from.is_none() {
                    st.pruned_from = Some(st.new_frames.len());
                }
                last.expect("last_enabled")
            } else {
                cands[0]
            };
            st.new_frames.push(NewFrame {
                enabled: enabled.to_vec(),
                sleep: st.sleep.clone(),
                last_running: last,
                preemptions: st.preemptions,
                chosen,
            });
            chosen
        };
        st.schedule.push(choice);
        choice
    }
}
