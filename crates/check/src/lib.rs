//! Deterministic schedule-exploration concurrency checking for the
//! agequant workspace — the role loom/shuttle play in production Rust
//! stacks, vendored std-only like the rest of our toolchain.
//!
//! # The facade
//!
//! Concurrent crates in this workspace import their synchronization
//! primitives from [`sync`] and [`thread`] instead of `std::sync` /
//! `std::thread` (the `SRC001` lint in `agequant-lint` enforces this).
//! In a normal build both modules are 1:1 re-exports of `std`, so the
//! facade compiles away completely — release binaries are bit-identical
//! and the warm paths carry zero overhead.
//!
//! Under the `model` cargo feature (or `--cfg agequant_model`), the
//! same names resolve to instrumented implementations driven by a
//! deterministic scheduler: every lock acquisition, atomic operation,
//! and `Condvar` wait becomes a yield point, and `explore` (an item
//! that only exists in model builds) enumerates
//! bounded thread interleavings depth-first, replaying any failing
//! schedule as a printable trace.
//!
//! # What the checker detects
//!
//! - **Invariant violations**: any panic (e.g. a failed `assert!`)
//!   inside the modeled closure, on any explored interleaving.
//! - **Deadlocks**: no runnable thread while work remains, diagnosed
//!   via the waits-for graph (which thread waits on which lock held by
//!   whom).
//! - **Lost `Condvar` wakeups**: a deadlock in which the stuck threads
//!   are parked on a condition variable no remaining thread can
//!   notify.
//!
//! # Model fidelity and limits
//!
//! The model is sequentially consistent: atomic orderings are accepted
//! but weak-memory reorderings are not explored. `Arc` and `mpsc` pass
//! through un-modeled (channel waits are not yield points — model
//! tests should synchronize through the modeled primitives). Condvar
//! `notify_one` wakes the longest-waiting modeled waiter (FIFO), and a
//! timed wait may spuriously time out a bounded number of times per
//! thread per execution. Threads *not* spawned through the facade
//! fall back to the real `std` primitives inside the same types, so
//! mutual exclusion remains sound even for hybrid workloads — they
//! just don't participate in schedule exploration. [`par_map`], the
//! workspace's one data-parallel map, spawns through the facade;
//! [`par_map_mut`] is the same map over items lent mutably.

#[cfg(any(feature = "model", agequant_model))]
mod model;

#[cfg(any(feature = "model", agequant_model))]
pub use model::{explore, explore_ok, Config, Report, Violation, ViolationKind};

/// Synchronization primitives: `std::sync` re-exported 1:1 in normal
/// builds, instrumented model-checker versions under `--features
/// model`.
#[cfg(not(any(feature = "model", agequant_model)))]
pub mod sync {
    pub use std::sync::*;
}

/// Threading primitives: `std::thread` re-exported 1:1 in normal
/// builds, instrumented model-checker versions under `--features
/// model`.
#[cfg(not(any(feature = "model", agequant_model)))]
pub mod thread {
    pub use std::thread::*;
}

/// Synchronization primitives, instrumented for schedule exploration.
#[cfg(any(feature = "model", agequant_model))]
pub mod sync {
    pub use crate::model::sync::*;
}

/// Threading primitives, instrumented for schedule exploration.
#[cfg(any(feature = "model", agequant_model))]
pub mod thread {
    pub use crate::model::thread::*;
}

/// Maps `f` over `items` in parallel and returns the results in input
/// order.
///
/// The caller works as one of up to [`thread::available_parallelism`]
/// workers (which honours CPU affinity and cgroup quotas); the others
/// are spawned through the facade [`thread::scope`], so under the model
/// checker they are scheduled threads. Workers claim items one at a
/// time from a plain `std` atomic: unevenly priced items still balance,
/// and which worker takes which item is not explored (a modeled claim
/// would add a yield point per item). Zero or one item, or one core,
/// runs inline on the caller's thread. A panic in `f` propagates to
/// the caller once every worker has stopped.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    use std::panic::resume_unwind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    let workers = match items.len() {
        0 | 1 => 1,
        n => thread::available_parallelism().map_or(1, |p| p.get().min(n)),
    };
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        std::iter::from_fn(|| {
            let index = next.fetch_add(1, Ordering::Relaxed);
            Some((index, f(items.get(index)?)))
        })
        .collect::<Vec<_>>()
    };
    let mut done = thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for handle in handles {
            done.extend(handle.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        done
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

/// [`par_map`] over mutable items: maps `f` over `items` in parallel,
/// each item lent mutably to exactly one worker, and returns the
/// results in input order.
///
/// Each item sits behind its own plain `std` mutex, locked once by the
/// worker that claimed it, so this is `par_map` itself: the same claim,
/// the same inline path for zero or one item or one core, and the same
/// panic propagation.
pub fn par_map_mut<T: Send, R: Send>(items: &mut [T], f: impl Fn(&mut T) -> R + Sync) -> Vec<R> {
    use std::sync::Mutex;

    let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    par_map(&slots, |slot| {
        f(&mut slot
            .lock()
            .expect("each item is claimed once, so never poisoned"))
    })
}

#[cfg(test)]
mod tests {
    use super::{par_map, par_map_mut};

    #[test]
    fn results_keep_input_order_under_uneven_costs() {
        // 37 items: not a multiple of any worker count but 37 itself,
        // and every fifth item is much dearer than its neighbours.
        let items: Vec<u64> = (0..37).collect();
        let out = par_map(&items, |&x| {
            if x % 5 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x * x
        });
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn mutable_items_are_updated_in_place_and_results_keep_order() {
        let mut items: Vec<u64> = (0..37).collect();
        let out = par_map_mut(&mut items, |x| {
            if *x % 5 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            *x *= 3;
            *x + 1
        });
        assert_eq!(items, (0..37).map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(out, (0..37).map(|x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn a_single_mutable_item_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let mut items = [7u32];
        let out = par_map_mut(&mut items, |x| {
            *x += 1;
            std::thread::current().id()
        });
        assert_eq!((items, out), ([8], vec![caller]));
    }

    #[test]
    fn a_panic_in_a_mutable_map_propagates() {
        let mut items: Vec<u32> = (0..16).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map_mut(&mut items, |x| {
                assert!(*x != 11, "item {x} failed");
                *x
            })
        }));
        let payload = caught.expect_err("the panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "item 11 failed");
    }

    #[test]
    fn empty_input_maps_to_empty_output() {
        let out: Vec<u8> = par_map(&[] as &[u8], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn a_single_item_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let out = par_map(&[7], |&x| (x, std::thread::current().id()));
        assert_eq!(out, vec![(7, caller)]);
    }

    #[test]
    fn a_panic_in_f_propagates() {
        let items: Vec<u32> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(&items, |&x| {
                assert!(x != 11, "item {x} failed");
                x
            })
        });
        let payload = caught.expect_err("the panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "item 11 failed");
    }
}
