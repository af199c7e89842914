//! End-to-end fleet-simulator guarantees: bit-identical
//! checkpoint/resume, provable plan-cache leverage at fleet scale, and
//! graceful degradation when compression cannot close timing.

use std::collections::BTreeSet;

use agequant_fleet::{ChipMode, EventKind, FleetConfig, FleetSim, FleetState};

/// Checkpoint/resume is bit-identical: running straight to epoch 10
/// and running to epoch 4, checkpointing, restoring, and running the
/// remaining 6 epochs produce byte-identical checkpoints and the same
/// journal (the resumed journal appends onto the pre-checkpoint one).
#[test]
fn resume_is_bit_identical_to_uninterrupted_run() {
    let config = FleetConfig::new(64, 2024);

    let mut straight = FleetSim::new(config.clone()).expect("valid config");
    straight.run(10).expect("simulates");

    let mut first_leg = FleetSim::new(config).expect("valid config");
    first_leg.run(4).expect("simulates");
    let checkpoint = first_leg.checkpoint_binary().expect("encodes");
    let restored = FleetState::load(&checkpoint).expect("checkpoint loads");
    assert_eq!(
        restored,
        first_leg.to_state(),
        "checkpoint round-trip is lossless"
    );

    let mut second_leg = FleetSim::resume(restored).expect("resumes");
    second_leg.run(6).expect("simulates");

    assert_eq!(
        second_leg.checkpoint_binary().expect("encodes"),
        straight.checkpoint_binary().expect("encodes"),
        "resumed checkpoint is byte-identical"
    );

    let mut stitched = first_leg.journal();
    stitched.extend_from_slice(&second_leg.journal());
    assert_eq!(
        stitched,
        straight.journal(),
        "appending the resumed journal reconstructs the full history"
    );
}

/// At fleet scale the engine's plan cache does the heavy lifting: a
/// thousand chips over a full lifetime cost exactly one full
/// characterization per distinct aging bucket, and the summary carries
/// the hit rate that proves it.
#[test]
fn thousand_chip_fleet_amortizes_to_distinct_buckets() {
    let mut sim = FleetSim::new(FleetConfig::new(1000, 99)).expect("valid config");
    sim.run(20).expect("simulates a full 10-year lifetime");

    let stats = sim.cache_stats();
    let planned: BTreeSet<u64> = sim.buckets_planned().iter().copied().collect();
    assert_eq!(
        planned.len(),
        sim.buckets_planned().len(),
        "every characterized bucket is characterized exactly once"
    );
    assert_eq!(
        stats.plan_misses,
        sim.buckets_planned().len() as u64,
        "plan-cache misses == distinct (bucket, constraint) pairs"
    );

    // The journal names exactly the buckets the engine characterized.
    let journaled: BTreeSet<u64> = sim
        .journal()
        .iter()
        .filter_map(|event| match event.kind {
            EventKind::Replanned { bucket, .. } | EventKind::Degraded { bucket } => Some(bucket),
            EventKind::BucketCrossed { .. }
            | EventKind::Reencoded { .. }
            | EventKind::MemoryDegraded { .. }
            | EventKind::RegimeChanged { .. }
            | EventKind::CadenceGranted { .. }
            | EventKind::CadenceDeferred { .. } => None,
        })
        .collect();
    assert_eq!(journaled, planned);

    // 1000 chips aged over 20 epochs, with only a handful of distinct
    // buckets: the cache absorbed >99% of the decision stream.
    assert!(planned.len() < 10, "a lifetime spans few 10 mV buckets");
    assert!(stats.plan_hits > 990, "fleet-scale reuse");
    let summary = sim.summary();
    let cache = summary.cache.expect("live sim summarizes its cache");
    assert!(cache.plan_hit_rate > 0.99, "got {}", cache.plan_hit_rate);
    assert!(summary.render_text().contains("hit rate"));
}

/// An over-constrained fleet (clock far below the fresh critical path)
/// never panics: every chip degrades to the guardbanded fallback, the
/// degradation is journaled, and later epochs keep running.
#[test]
fn infeasible_constraint_degrades_gracefully() {
    let mut config = FleetConfig::new(32, 5);
    config.constraint_factor = 0.3;
    let mut sim = FleetSim::new(config).expect("infeasibility is not a construction error");
    sim.run(6).expect("degraded fleets keep simulating");

    assert_eq!(sim.epoch(), 6);
    let state = sim.to_state();
    for chip in &state.chips {
        assert_eq!(chip.mode, ChipMode::Guardband);
        assert!(chip.plan.is_none(), "degraded chips hold no plan");
    }
    let degraded = sim
        .journal()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Degraded { .. }))
        .count();
    assert_eq!(degraded, 32, "every chip journaled its degradation once");
    assert!(
        sim.guardband_period_ps() > sim.constraint_ps(),
        "the fallback clock is the slower, guardbanded one"
    );

    let summary = sim.summary();
    assert_eq!(summary.degraded, 32);
    assert_eq!(summary.compressed, 0);
}
