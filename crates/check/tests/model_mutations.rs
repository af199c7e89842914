//! Mutation self-test: proves the checker actually catches the bug
//! classes it exists for, by re-running the real-code protocols
//! against three seeded concurrency bugs.
//!
//! The mutations live behind `--cfg agequant_model_mutation` in the
//! production crates themselves (so the mutated code is byte-for-byte
//! the shipped code minus one guard):
//!
//! 1. `EvalEngine::library` drops the double-checked-locking re-check
//!    under the write lock — keys that race on the miss path get
//!    characterized twice and callers see different `Arc`s.
//! 2. `BoundedQueue::pop` degrades its `while` wait loop to a single
//!    `if` — a spurious (timed-out) wakeup on an empty open queue
//!    makes a consumer give up and abandon later accepted work.
//! 3. `EvalEngine::grid_scan` overwrites the entry a racing caller
//!    stored instead of keeping it — racing callers see different
//!    scans for one key.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg agequant_model_mutation" \
//!   cargo test -p agequant-check --features model --test model_mutations
//! ```
//!
//! In a normal build (no mutation cfg) every test here is a no-op
//! success, so the file can sit in the default test set.

#![cfg(all(feature = "model", agequant_model_mutation))]

use agequant_aging::{TechProfile, VthShift};
use agequant_cells::ProcessLibrary;
use agequant_check::sync::Arc;
use agequant_check::{explore_ok, thread, Config, ViolationKind};
use agequant_core::{AgingAwareQuantizer, EvalEngine, FlowConfig};
use agequant_serve::BoundedQueue;

fn cfg() -> Config {
    Config {
        max_schedules: 16_384,
        max_preemptions: 3,
        max_steps: 500_000,
        ..Config::default()
    }
}

/// With the re-check gone, there is an interleaving where both racing
/// callers miss on the read lock and each characterizes the key — the
/// checker must find it and hand back a replayable schedule.
#[test]
fn checker_catches_the_dropped_dcl_recheck() {
    let violation = explore_ok(cfg(), || {
        let engine = Arc::new(EvalEngine::new(ProcessLibrary::finfet14nm()));
        let shift = VthShift::from_millivolts(20.0);
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let engine = Arc::clone(&engine);
                thread::spawn(move || {
                    engine.library("nbti", &TechProfile::INTEL14NM.derating(), shift)
                })
            })
            .collect();
        let libs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        assert!(
            Arc::ptr_eq(&libs[0], &libs[1]),
            "racing callers saw different library instances for one key"
        );
        assert_eq!(
            engine.stats().library_misses,
            1,
            "a key raced on the miss path was characterized more than once"
        );
    })
    .expect_err("the dropped re-check must be caught");
    assert!(
        matches!(violation.kind, ViolationKind::Panic(_)),
        "expected an invariant panic, got {:?}",
        violation.kind
    );
    assert!(
        !violation.schedule.is_empty(),
        "violation carries no replayable schedule"
    );
    assert!(
        violation.to_string().contains("failing schedule"),
        "report does not print the failing schedule:\n{violation}"
    );
}

/// With the wait loop degraded to a single `if`, a consumer whose
/// timed wait fires spuriously on an empty open queue returns `None`
/// and abandons the item the producer accepts moments later.
#[test]
fn checker_catches_the_degraded_wait_loop() {
    let violation = explore_ok(cfg(), || {
        let queue = Arc::new(BoundedQueue::new(2));
        let consumer = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(item) = queue.pop() {
                    got.push(item);
                }
                got
            })
        };
        queue.try_push(7u32).expect("open queue accepts");
        queue.close();
        assert_eq!(
            consumer.join().expect("consumer panicked"),
            vec![7],
            "consumer abandoned accepted work"
        );
    })
    .expect_err("the degraded wait loop must be caught");
    assert!(
        matches!(violation.kind, ViolationKind::Panic(_)),
        "expected an invariant panic, got {:?}",
        violation.kind
    );
    assert!(
        !violation.schedule.is_empty(),
        "violation carries no replayable schedule"
    );
    assert!(
        violation.to_string().contains("failing schedule"),
        "report does not print the failing schedule:\n{violation}"
    );
}

/// With the store overwriting instead of keeping the first entry, the
/// second of two racing scans replaces the first caller's `Arc` — the
/// checker must find the interleaving where both miss.
#[test]
fn checker_catches_the_overwritten_scan_entry() {
    let mut config = FlowConfig::edge_tpu_like();
    config.grid_max = 1;
    let violation = explore_ok(cfg(), move || {
        let flow = Arc::new(AgingAwareQuantizer::new(config.clone()).expect("valid config"));
        let shift = VthShift::from_millivolts(30.0);
        let _ = flow.baseline_delay_ps(shift);
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let flow = Arc::clone(&flow);
                thread::spawn(move || flow.grid_scan(shift))
            })
            .collect();
        let scans: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        assert!(
            Arc::ptr_eq(&scans[0], &scans[1]),
            "racing callers saw different scans for one key"
        );
    })
    .expect_err("the overwritten scan entry must be caught");
    assert!(
        matches!(violation.kind, ViolationKind::Panic(_)),
        "expected an invariant panic, got {:?}",
        violation.kind
    );
    assert!(
        !violation.schedule.is_empty(),
        "violation carries no replayable schedule"
    );
}
