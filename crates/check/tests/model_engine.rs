//! Model-checks the real [`EvalEngine`] characterization cache under
//! concurrent misses.
//!
//! The protocol under test is the double-checked locking in
//! [`EvalEngine::library`]: racing threads that miss on the read lock
//! serialize on the write lock, and the re-check under the write lock
//! guarantees each nanovolt key is characterized exactly once — every
//! caller gets the *same* `Arc`, and the hit/miss counters always sum
//! to the number of calls.
//!
//! The grid-scan layer behind [`AgingAwareQuantizer::grid_scan`] fills
//! on a different protocol, the one `sta_loads` uses: a miss computes
//! outside the lock and keeps whichever entry was stored first, so
//! racing callers may both scan but must all receive the same `Arc`.
//!
//! These tests run the genuine `agequant-core` code: cargo unifies the
//! `model` feature onto the one `agequant-check` lib, so the engine's
//! `RwLock`s and atomics compile to the instrumented versions and
//! every lock acquisition and counter bump is a schedule point.

#![cfg(feature = "model")]

use agequant_aging::{TechProfile, VthShift};
use agequant_cells::ProcessLibrary;
use agequant_check::sync::Arc;
use agequant_check::{explore, thread, Config};
use agequant_core::{AgingAwareQuantizer, EvalEngine, FlowConfig};

fn cfg() -> Config {
    Config {
        max_schedules: 8_192,
        // A deeper preemption budget than the default: the DCL protocol
        // is small, so the schedule count (not wall clock) is the
        // binding constraint.
        max_preemptions: 4,
        max_steps: 500_000,
        ..Config::default()
    }
}

/// Three threads race a cold miss on the same nanovolt key: exactly
/// one characterization may happen, all callers must receive the same
/// `Arc`, and the counters must account for every call.
#[test]
fn concurrent_misses_characterize_each_key_exactly_once() {
    let report = explore(cfg(), || {
        let engine = Arc::new(EvalEngine::new(ProcessLibrary::finfet14nm()));
        let shift = VthShift::from_millivolts(20.0);
        let handles: Vec<_> = (0..3)
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
            Arc::ptr_eq(&libs[0], &libs[1]) && Arc::ptr_eq(&libs[1], &libs[2]),
            "racing callers saw different library instances for one key"
        );
        let stats = engine.stats();
        assert_eq!(
            stats.library_misses, 1,
            "a key raced on the miss path was characterized more than once"
        );
        assert_eq!(
            stats.library_hits + stats.library_misses,
            3,
            "cache counters lost a call: {stats:?}"
        );
    });
    assert!(
        report.schedules >= 1_000,
        "expected a substantive interleaving space, got {} schedules",
        report.schedules
    );
}

/// Concurrent misses on *different* keys stay independent: two keys,
/// two characterizations, no aliasing — under every interleaving.
#[test]
fn distinct_keys_never_alias_under_races() {
    let report = explore(cfg(), || {
        let engine = Arc::new(EvalEngine::new(ProcessLibrary::finfet14nm()));
        let mvs = [10.0, 30.0];
        let handles: Vec<_> = mvs
            .iter()
            .map(|&mv| {
                let engine = Arc::clone(&engine);
                thread::spawn(move || {
                    engine.library(
                        "nbti",
                        &TechProfile::INTEL14NM.derating(),
                        VthShift::from_millivolts(mv),
                    )
                })
            })
            .collect();
        let libs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        assert!(
            !Arc::ptr_eq(&libs[0], &libs[1]),
            "different nanovolt keys aliased to one cache entry"
        );
        let stats = engine.stats();
        assert_eq!((stats.library_misses, stats.library_hits), (2, 0));
    });
    assert!(report.schedules >= 2, "trivial space: {report:?}");
}

/// Two threads race one cold `(model, ΔVth)` grid scan on an engine
/// whose library and loads at that shift are already warm: both must
/// receive the same `Arc`, equal to the uncached serial scan, under
/// every interleaving. A 1×1 grid (8 STA cases) keeps each schedule
/// cheap; the flow is built inside the execution so the engine's locks
/// are modeled.
#[test]
fn racing_grid_scans_share_one_arc() {
    let mut config = FlowConfig::edge_tpu_like();
    config.grid_max = 1;
    let shift = VthShift::from_millivolts(30.0);
    let reference = AgingAwareQuantizer::new(config.clone())
        .expect("valid config")
        .feasible_compressions_serial(shift, f64::INFINITY);
    let report = explore(cfg(), move || {
        let flow = Arc::new(AgingAwareQuantizer::new(config.clone()).expect("valid config"));
        // Warms the library and the load vector at `shift`.
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
        assert_eq!(scans[0].to_vec(), reference, "scan diverges from serial");
    });
    assert!(
        report.exhausted && report.schedules >= 50,
        "expected the whole race explored, got {report:?}"
    );
}
