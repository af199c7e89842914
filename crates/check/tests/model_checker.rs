//! Self-tests for the model checker: known-buggy toy protocols must
//! produce violations with replayable traces, and known-correct ones
//! must pass with meaningful schedule coverage.
#![cfg(feature = "model")]

use agequant_check::sync::atomic::{AtomicU64, Ordering};
use agequant_check::sync::{Arc, Condvar, Mutex};
use agequant_check::{explore, explore_ok, par_map, thread, Config, ViolationKind};

fn small() -> Config {
    Config {
        max_schedules: 10_000,
        ..Config::default()
    }
}

/// The classic non-atomic read-modify-write race: two threads doing
/// `load; store(+1)` must lose an update on some interleaving.
#[test]
fn finds_the_lost_update_race() {
    let violation = explore_ok(small(), || {
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    let v = counter.load(Ordering::SeqCst);
                    counter.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("joins");
        }
        assert_eq!(counter.load(Ordering::SeqCst), 2, "lost an increment");
    })
    .expect_err("the lost-update race must be found");
    assert!(
        matches!(violation.kind, ViolationKind::Panic(_)),
        "expected a failed assert, got {:?}",
        violation.kind
    );
    assert!(
        violation.trace.contains("atomically"),
        "trace should show the atomic steps:\n{}",
        violation.trace
    );
}

/// `par_map`'s workers are model threads: a lost-update
/// read-modify-write through a facade `Mutex` inside the mapped
/// closure must be found, which it could not be if the workers ran
/// outside the scheduler.
#[test]
fn finds_the_lost_update_inside_par_map() {
    let violation = explore_ok(small(), || {
        let counter = Mutex::new(0_u64);
        par_map(&[(), ()], |()| {
            let seen = *counter.lock().expect("locks");
            *counter.lock().expect("locks") = seen + 1;
        });
        assert_eq!(*counter.lock().expect("locks"), 2, "lost an increment");
    })
    .expect_err("the lost update across par_map workers must be found");
    assert!(
        matches!(violation.kind, ViolationKind::Panic(_)),
        "expected a failed assert, got {:?}",
        violation.kind
    );
}

/// With `fetch_add` the same protocol is correct — and the schedule
/// space must be fully exhausted, covering well over the trivial
/// handful of interleavings.
#[test]
fn atomic_increments_pass_exhaustively() {
    let report = explore(small(), || {
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("joins");
        }
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    });
    assert!(report.exhausted, "small space must be fully enumerated");
    assert!(
        report.schedules >= 2,
        "both increment orders must be explored, got {}",
        report.schedules
    );
}

/// Mutex-protected increments never lose updates, on any schedule.
#[test]
fn mutex_protects_the_counter() {
    let report = explore(small(), || {
        let counter = Arc::new(Mutex::new(0_u64));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    let mut g = counter.lock().expect("locks");
                    *g += 1;
                })
            })
            .collect();
        for h in handles {
            h.join().expect("joins");
        }
        assert_eq!(*counter.lock().expect("locks"), 2);
    });
    assert!(report.exhausted);
}

/// The AB-BA double-lock pattern must be caught as a deadlock with a
/// waits-for cycle in the diagnosis.
#[test]
fn finds_the_abba_deadlock() {
    let violation = explore_ok(small(), || {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = thread::spawn(move || {
            let _ga = a2.lock().expect("locks a");
            let _gb = b2.lock().expect("locks b");
        });
        {
            let _gb = b.lock().expect("locks b");
            let _ga = a.lock().expect("locks a");
        }
        t.join().expect("joins");
    })
    .expect_err("AB-BA must deadlock on some schedule");
    let ViolationKind::Deadlock(msg) = &violation.kind else {
        panic!("expected a deadlock, got {:?}", violation.kind);
    };
    assert!(
        msg.contains("waits-for cycle"),
        "diagnosis should render the cycle:\n{msg}"
    );
    assert!(
        !violation.schedule.is_empty(),
        "failing schedule must be replayable"
    );
}

/// Notify-before-wait with an untimed wait loses the wakeup forever;
/// the checker must classify it as a lost wakeup, not a plain
/// deadlock.
#[test]
fn finds_the_lost_wakeup() {
    let violation = explore_ok(small(), || {
        let pair = Arc::new((Mutex::new(()), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (lock, cv) = &*pair2;
            // BUG under test: waits without a predicate, so a notify
            // that fires before the wait enqueue is lost forever.
            let guard = lock.lock().expect("locks");
            drop(cv.wait(guard).expect("waits"));
        });
        pair.1.notify_one();
        t.join().expect("joins");
    })
    .expect_err("the notify can fire before the wait on some schedule");
    // The waiter parks forever on a schedule where the notify already
    // fired; the joiner is stuck on the same lost wakeup.
    assert!(
        matches!(violation.kind, ViolationKind::LostWakeup(_)),
        "expected a lost wakeup, got {:?}",
        violation.kind
    );
}

/// The same protocol with a timed wait in a `while` loop is correct:
/// the bounded timeout models the recovery path.
#[test]
fn timed_wait_loop_recovers_from_early_notify() {
    let report = explore(small(), || {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut ready = lock.lock().expect("locks");
            while !*ready {
                let (g, _timeout) = cv
                    .wait_timeout(ready, std::time::Duration::from_millis(50))
                    .expect("waits");
                ready = g;
            }
            assert!(*ready);
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock().expect("locks") = true;
            cv.notify_one();
        }
        t.join().expect("joins");
    });
    assert!(report.exhausted);
    assert!(report.schedules >= 2);
}

/// RwLock: two readers plus one writer; readers must never observe a
/// torn pair of values.
#[test]
fn rwlock_readers_see_consistent_pairs() {
    use agequant_check::sync::RwLock;
    let report = explore(small(), || {
        let state = Arc::new(RwLock::new((0_u64, 0_u64)));
        let writer = {
            let state = Arc::clone(&state);
            thread::spawn(move || {
                let mut g = state.write().expect("write-locks");
                g.0 = 7;
                g.1 = 7;
            })
        };
        let reader = {
            let state = Arc::clone(&state);
            thread::spawn(move || {
                let g = state.read().expect("read-locks");
                assert_eq!(g.0, g.1, "reader saw a torn write");
            })
        };
        writer.join().expect("joins");
        reader.join().expect("joins");
    });
    assert!(report.exhausted);
}

/// A failing schedule replays deterministically: the violation carries
/// the decision sequence and a non-empty human-readable trace.
#[test]
fn violations_carry_a_replayable_trace() {
    let run = || {
        explore_ok(small(), || {
            let flag = Arc::new(AtomicU64::new(0));
            let flag2 = Arc::clone(&flag);
            let t = thread::spawn(move || {
                flag2.store(1, Ordering::SeqCst);
            });
            let seen = flag.load(Ordering::SeqCst);
            t.join().expect("joins");
            assert_eq!(seen, 0, "planted order-sensitive assert");
        })
        .expect_err("the store can win the race on some schedule")
    };
    let first = run();
    let second = run();
    assert_eq!(
        first.schedule, second.schedule,
        "exploration must be deterministic run to run"
    );
    assert_eq!(first.trace, second.trace);
    assert!(first.trace.contains("step"), "trace: {}", first.trace);
    let rendered = first.to_string();
    assert!(rendered.contains("failing schedule"));
}

/// Scoped threads participate in the model: a three-thread scoped
/// protocol explores a meaningful number of schedules and the implicit
/// scope join is modeled (no false deadlock at scope exit).
#[test]
fn scoped_threads_are_modeled() {
    let report = explore(small(), || {
        let counter = AtomicU64::new(0);
        thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    });
    assert!(report.exhausted);
    assert!(report.schedules >= 2);
}
