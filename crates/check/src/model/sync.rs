//! Instrumented `std::sync` lookalikes.
//!
//! Each type wraps the real primitive *plus* an optional link to the
//! model execution it was created under. Model threads yield to the
//! scheduler before every visible operation; threads without a model
//! context (e.g. threads spawned with plain `std::thread`) skip the
//! scheduler and use the real primitive directly, so mutual exclusion
//! stays sound for hybrid workloads.
//!
//! `Arc` and `mpsc` pass through un-modeled: they are value plumbing,
//! not scheduling points, in every protocol this workspace models.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::time::Duration;

pub use std::sync::{mpsc, Arc, LockResult, PoisonError, Weak};

use crate::model::runtime::{active, register_object, AcqKind, ModelRef, ObjKind};

fn unpoison<T>(r: LockResult<T>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// A model-aware `std::sync::Mutex`.
pub struct Mutex<T: ?Sized> {
    model: Option<ModelRef>,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates the mutex; registers it with the current model
    /// execution when constructed on a model thread.
    pub fn new(value: T) -> Self {
        Mutex {
            model: register_object(ObjKind::Mutex),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock. On a model thread this is a yield point; the
    /// scheduler grants the lock in the explored order.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        if let Some(m) = &self.model {
            if let Some(me) = active(m) {
                m.exec.acquire(me, m.id, AcqKind::Lock);
                // The model owns the lock; the real lock is contended
                // only by hybrid threads, which always release.
                let inner = unpoison(self.inner.lock());
                return Ok(MutexGuard {
                    lock: self,
                    inner: Some(inner),
                    registered: true,
                });
            }
        }
        let inner = unpoison(self.inner.lock());
        Ok(MutexGuard {
            lock: self,
            inner: Some(inner),
            registered: false,
        })
    }

    /// Mutable access without locking (exclusive borrow).
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// Guard for [`Mutex`]; releases the model lock (silently) on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    /// Whether this guard holds the *model* lock (acquired by a model
    /// thread through the scheduler).
    registered: bool,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the lock")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.registered {
            if let Some(m) = &self.lock.model {
                if let Some(me) = active(m) {
                    m.exec.release(me, m.id, AcqKind::Lock);
                }
            }
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// A model-aware `std::sync::RwLock`.
pub struct RwLock<T: ?Sized> {
    model: Option<ModelRef>,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates the lock; registers it with the current model execution
    /// when constructed on a model thread.
    pub fn new(value: T) -> Self {
        RwLock {
            model: register_object(ObjKind::RwLock),
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access (a model yield point).
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        if let Some(m) = &self.model {
            if let Some(me) = active(m) {
                m.exec.acquire(me, m.id, AcqKind::Read);
                let inner = unpoison(self.inner.read());
                return Ok(RwLockReadGuard {
                    lock: self,
                    inner: Some(inner),
                    registered: true,
                });
            }
        }
        let inner = unpoison(self.inner.read());
        Ok(RwLockReadGuard {
            lock: self,
            inner: Some(inner),
            registered: false,
        })
    }

    /// Acquires exclusive write access (a model yield point).
    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        if let Some(m) = &self.model {
            if let Some(me) = active(m) {
                m.exec.acquire(me, m.id, AcqKind::Write);
                let inner = unpoison(self.inner.write());
                return Ok(RwLockWriteGuard {
                    lock: self,
                    inner: Some(inner),
                    registered: true,
                });
            }
        }
        let inner = unpoison(self.inner.write());
        Ok(RwLockWriteGuard {
            lock: self,
            inner: Some(inner),
            registered: false,
        })
    }

    /// Mutable access without locking (exclusive borrow).
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
    registered: bool,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if self.registered {
            if let Some(m) = &self.lock.model {
                if let Some(me) = active(m) {
                    m.exec.release(me, m.id, AcqKind::Read);
                }
            }
        }
    }
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
    registered: bool,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock")
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the lock")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if self.registered {
            if let Some(m) = &self.lock.model {
                if let Some(me) = active(m) {
                    m.exec.release(me, m.id, AcqKind::Write);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Result of a [`Condvar::wait_timeout`] (our own type: `std`'s has no
/// public constructor).
#[derive(Clone, Copy, Debug)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait ended by timeout rather than notification.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A model-aware `std::sync::Condvar`.
///
/// Modeled waits park in the scheduler (wait enqueue and notify are
/// yield points); modeled timed waits may "time out" a bounded number
/// of times per thread per execution, which is how the checker
/// explores the timeout/spurious-wakeup arm of a `wait_timeout` loop.
pub struct Condvar {
    model: Option<ModelRef>,
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates the condvar; registers it with the current model
    /// execution when constructed on a model thread.
    pub fn new() -> Self {
        Condvar {
            model: register_object(ObjKind::Condvar),
            inner: std::sync::Condvar::new(),
        }
    }

    fn model_wait<'a, T: ?Sized>(
        &self,
        m: &ModelRef,
        me: usize,
        mut guard: MutexGuard<'a, T>,
        timed: bool,
    ) -> (MutexGuard<'a, T>, bool) {
        let lock_ref = guard.lock;
        let mutex = lock_ref
            .model
            .as_ref()
            .expect("modeled Condvar waited with an unmodeled Mutex")
            .id;
        // Drop the real guard without a model release: the scheduler
        // releases the model lock atomically with the wait enqueue.
        guard.registered = false;
        guard.inner = None;
        drop(guard);
        let timed_out = m.exec.cond_wait(me, m.id, mutex, timed);
        // The scheduler granted us the model lock back; retake the
        // real one.
        let inner = unpoison(lock_ref.inner.lock());
        (
            MutexGuard {
                lock: lock_ref,
                inner: Some(inner),
                registered: true,
            },
            timed_out,
        )
    }

    /// Blocks until notified (a model yield point).
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        if guard.registered {
            let m = self
                .model
                .as_ref()
                .expect("modeled MutexGuard waited on an unmodeled Condvar");
            let me = active(m).expect("registered guard implies a model thread");
            let (guard, _) = self.model_wait(m, me, guard, false);
            return Ok(guard);
        }
        let lock_ref = guard.lock;
        let mut moved = guard;
        let inner = moved.inner.take().expect("guard holds the lock");
        drop(moved);
        let inner = unpoison(self.inner.wait(inner));
        Ok(MutexGuard {
            lock: lock_ref,
            inner: Some(inner),
            registered: false,
        })
    }

    /// Blocks until notified or the timeout elapses (a model yield
    /// point; in the model the duration is abstract and the timeout
    /// arm is explored as a scheduling choice).
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        if guard.registered {
            let m = self
                .model
                .as_ref()
                .expect("modeled MutexGuard waited on an unmodeled Condvar");
            let me = active(m).expect("registered guard implies a model thread");
            let (guard, timed_out) = self.model_wait(m, me, guard, true);
            return Ok((guard, WaitTimeoutResult { timed_out }));
        }
        let lock_ref = guard.lock;
        let mut moved = guard;
        let inner = moved.inner.take().expect("guard holds the lock");
        drop(moved);
        let (inner, result) = unpoison(self.inner.wait_timeout(inner, dur));
        Ok((
            MutexGuard {
                lock: lock_ref,
                inner: Some(inner),
                registered: false,
            },
            WaitTimeoutResult {
                timed_out: result.timed_out(),
            },
        ))
    }

    /// Wakes one waiter (a model yield point; FIFO in the model).
    pub fn notify_one(&self) {
        if let Some(m) = &self.model {
            if let Some(me) = active(m) {
                m.exec.notify(me, m.id, false);
                // Hybrid threads may wait on the real condvar; wake
                // them all (spurious wakeups are legal).
                self.inner.notify_all();
                return;
            }
        }
        self.inner.notify_one();
    }

    /// Wakes every waiter (a model yield point).
    pub fn notify_all(&self) {
        if let Some(m) = &self.model {
            if let Some(me) = active(m) {
                m.exec.notify(me, m.id, true);
            }
        }
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Condvar { .. }")
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Model-aware atomics: every operation is a yield point on model
/// threads; the value itself lives in the real `std` atomic, so the
/// result of each (sequentially granted) operation is exact.
pub mod atomic {
    use std::fmt;

    pub use std::sync::atomic::Ordering;

    use crate::model::runtime::{active, register_object, ModelRef, ObjKind};

    macro_rules! model_atomic {
        ($(#[$doc:meta])* $name:ident, $std:ty, $prim:ty, $zero:expr, ints: $ints:tt) => {
            $(#[$doc])*
            pub struct $name {
                model: Option<ModelRef>,
                inner: $std,
            }

            impl $name {
                /// Creates the atomic; registers it with the current
                /// model execution when constructed on a model thread.
                pub fn new(value: $prim) -> Self {
                    $name {
                        model: register_object(ObjKind::Atomic),
                        inner: <$std>::new(value),
                    }
                }

                fn hit(&self, write: bool) {
                    if let Some(m) = &self.model {
                        if let Some(me) = active(m) {
                            m.exec.atomic(me, m.id, write);
                        }
                    }
                }

                /// Loads the value (a model yield point).
                pub fn load(&self, order: Ordering) -> $prim {
                    self.hit(false);
                    self.inner.load(order)
                }

                /// Stores a value (a model yield point).
                pub fn store(&self, value: $prim, order: Ordering) {
                    self.hit(true);
                    self.inner.store(value, order);
                }

                /// Swaps the value (a model yield point).
                pub fn swap(&self, value: $prim, order: Ordering) -> $prim {
                    self.hit(true);
                    self.inner.swap(value, order)
                }

                /// Mutable access without synchronization.
                pub fn get_mut(&mut self) -> &mut $prim {
                    self.inner.get_mut()
                }

                model_atomic!(@ints $ints, $prim);
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new($zero)
                }
            }

            impl fmt::Debug for $name {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    self.inner.fmt(f)
                }
            }
        };
        (@ints yes, $prim:ty) => {
            /// Adds, returning the previous value (a model yield point).
            pub fn fetch_add(&self, value: $prim, order: Ordering) -> $prim {
                self.hit(true);
                self.inner.fetch_add(value, order)
            }

            /// Subtracts, returning the previous value (a model yield
            /// point).
            pub fn fetch_sub(&self, value: $prim, order: Ordering) -> $prim {
                self.hit(true);
                self.inner.fetch_sub(value, order)
            }

            /// Maximum, returning the previous value (a model yield
            /// point).
            pub fn fetch_max(&self, value: $prim, order: Ordering) -> $prim {
                self.hit(true);
                self.inner.fetch_max(value, order)
            }

            /// Weak compare-and-exchange (a model yield point). Like
            /// the `std` form: `Ok(previous)` when the exchange
            /// happened, `Err(actual)` when it did not (including
            /// spurious failures the caller's loop must absorb).
            pub fn compare_exchange_weak(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                self.hit(true);
                self.inner.compare_exchange_weak(current, new, success, failure)
            }
        };
        (@ints no, $prim:ty) => {};
    }

    model_atomic!(
        /// Model-aware `AtomicBool`.
        AtomicBool, std::sync::atomic::AtomicBool, bool, false, ints: no
    );
    model_atomic!(
        /// Model-aware `AtomicUsize`.
        AtomicUsize, std::sync::atomic::AtomicUsize, usize, 0, ints: yes
    );
    model_atomic!(
        /// Model-aware `AtomicU64`.
        AtomicU64, std::sync::atomic::AtomicU64, u64, 0, ints: yes
    );
}
