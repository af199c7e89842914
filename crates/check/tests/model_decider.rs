//! Model-checks the real fleet [`Decider`] memoization protocol: the
//! single memo mutex that racing server workers consult on every cold
//! characterization.
//!
//! Checked properties, over every explored interleaving:
//!
//! * a `(bucket, constraint)` pair is recorded in the characterization
//!   log exactly once no matter how many workers race it — the
//!   nanovolt-keyed engine caches underneath already guarantee one
//!   characterization per key (see `model_engine.rs`), and the
//!   decider-side log must stay consistent with that;
//! * racing workers agree on the decision for a bucket;
//! * [`Decider::buckets_planned`] stays a duplicate-free
//!   first-encounter log;
//! * a bucket proven infeasible under the race is a `Degrade` for
//!   every worker and the decider's learned degrade threshold.

#![cfg(feature = "model")]

use agequant_check::sync::Arc;
use agequant_check::{explore, thread, Config};
use agequant_core::EvalEngine;
use agequant_fleet::{Decider, Decision, FleetConfig};

fn cfg() -> Config {
    Config {
        max_schedules: 8_192,
        // The memo protocol is a handful of lock acquisitions per
        // worker, so buy schedule diversity with preemption depth.
        max_preemptions: 5,
        max_steps: 500_000,
        ..Config::default()
    }
}

/// A shared engine, warmed outside the exploration so its caches are
/// hot (and, having been built outside any modeled execution, its own
/// locks run on the real `std` fast path): each explored schedule then
/// exercises the decider-side memo protocol, not nanosheet physics.
fn warm_engine(config: &FleetConfig) -> Arc<EvalEngine> {
    let engine = Arc::new(EvalEngine::new(config.flow.process.clone()));
    let decider = Decider::with_engine(config, Arc::clone(&engine)).expect("valid config");
    for bucket in 0..=2 {
        decider.decide_bucket(bucket).expect("warms");
    }
    engine
}

/// Two workers race the same cold bucket while two more race a
/// different one: the log gets exactly one entry per bucket, and the
/// racing workers agree on the plan.
#[test]
fn racing_workers_characterize_each_bucket_exactly_once() {
    let config = FleetConfig::new(2, 2021);
    let engine = warm_engine(&config);
    let report = explore(cfg(), move || {
        let decider =
            Arc::new(Decider::with_engine(&config, Arc::clone(&engine)).expect("valid config"));
        let buckets = [1u64, 1, 2, 2];
        let handles: Vec<_> = buckets
            .iter()
            .map(|&bucket| {
                let decider = Arc::clone(&decider);
                thread::spawn(move || decider.decide_bucket(bucket).expect("decides"))
            })
            .collect();
        let decisions: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        assert_eq!(
            format!("{:?}", decisions[0]),
            format!("{:?}", decisions[1]),
            "racing workers disagreed on the plan for bucket 1"
        );
        assert_eq!(
            format!("{:?}", decisions[2]),
            format!("{:?}", decisions[3]),
            "racing workers disagreed on the plan for bucket 2"
        );
        let mut planned = decider.buckets_planned();
        planned.sort_unstable();
        assert_eq!(
            planned,
            vec![1, 2],
            "characterization log gained or lost entries under the race"
        );
    });
    assert!(
        report.schedules >= 1_000,
        "expected a substantive interleaving space, got {} schedules",
        report.schedules
    );
}

/// Four workers race a bucket no compression closes timing in: every
/// one degrades, the log gets one entry, and the memo names the bucket
/// as the degrade threshold.
#[test]
fn racing_workers_agree_a_bucket_is_infeasible() {
    let mut config = FleetConfig::new(2, 2021);
    config.constraint_factor = 0.3;
    let engine = warm_engine(&config);
    let report = explore(cfg(), move || {
        let decider =
            Arc::new(Decider::with_engine(&config, Arc::clone(&engine)).expect("valid config"));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let decider = Arc::clone(&decider);
                thread::spawn(move || decider.decide_bucket(1).expect("decides"))
            })
            .collect();
        for handle in handles {
            let decision = handle.join().expect("worker panicked");
            assert_eq!(
                decision,
                Decision::Degrade { bucket: 1 },
                "a racing worker saw a plan"
            );
        }
        assert_eq!(decider.buckets_planned(), vec![1]);
        assert_eq!(decider.min_infeasible_bucket(), Some(1));
    });
    assert!(
        report.schedules >= 1_000,
        "expected a substantive interleaving space, got {} schedules",
        report.schedules
    );
}

/// The warm path is race-free by construction: after one worker has
/// characterized a bucket, concurrent re-decisions must neither extend
/// the log nor change the answer.
#[test]
fn warm_decisions_never_extend_the_log() {
    let config = FleetConfig::new(2, 2021);
    let engine = warm_engine(&config);
    explore(cfg(), move || {
        let decider =
            Arc::new(Decider::with_engine(&config, Arc::clone(&engine)).expect("valid config"));
        let cold = decider.decide_bucket(1).expect("cold decision");
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let decider = Arc::clone(&decider);
                thread::spawn(move || decider.decide_bucket(1).expect("warm decision"))
            })
            .collect();
        for handle in handles {
            let warm = handle.join().expect("worker panicked");
            assert_eq!(
                format!("{warm:?}"),
                format!("{cold:?}"),
                "warm decision diverged from the cold one"
            );
        }
        assert_eq!(decider.buckets_planned(), vec![1]);
    });
}
