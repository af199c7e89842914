//! The closed-loop autopilot at fleet scale.
//!
//! The autopilot replaces every-epoch polling with regime-dependent
//! cadences under a fleet telemetry budget. These tests pin its
//! observable surface — the journal events, the summary rollup, the
//! format-4 checkpoint — and the two guarantees the subsystem is
//! built on: determinism at every shard count, and zero chips
//! crossing the degrade threshold undetected while the message count
//! collapses.

use agequant_core::CacheStats;
use agequant_fleet::{
    journal, AutopilotConfig, EventKind, FleetConfig, FleetSim, FleetState, JournalEvent, Regime,
    CHECKPOINT_FORMAT_AUTOPILOT, MAGIC,
};

fn autopilot_config(chips: u32, seed: u64) -> FleetConfig {
    let mut config = FleetConfig::new(chips, seed);
    config.autopilot = Some(AutopilotConfig::demo());
    config
}

fn frame_version(frame: &[u8]) -> u32 {
    u32::from_le_bytes(frame[MAGIC.len()..MAGIC.len() + 4].try_into().expect("4"))
}

/// The headline scenario: over a full mission the autopilot grants a
/// small fraction of the messages fixed-cadence polling would send,
/// defers only Calm/Watch chips, and never lets a chip cross the
/// degrade threshold unnoticed.
#[test]
fn autopilot_saves_telemetry_without_missing_a_degrade() {
    let epochs = 60u64;
    let config = autopilot_config(64, 2024);
    let mut sim = FleetSim::new(config).expect("valid config");
    sim.run(epochs).expect("simulates");

    let budget = sim.budget().expect("armed autopilot has a ledger");
    let polled = u64::from(64u32) * epochs;
    assert!(
        budget.granted * 2 < polled,
        "autopilot granted {} of {polled} fixed-cadence messages — no savings",
        budget.granted
    );

    // Ground truth audit: no compressed chip sits at or past the
    // smallest bucket the decider proved infeasible.
    if let Some(infeasible) = sim.decider().min_infeasible_bucket() {
        assert_eq!(
            sim.undetected_degrades(infeasible),
            0,
            "a chip crossed the degrade threshold between samples"
        );
    }

    // The journal narrates the loop: cadence grants for every sample,
    // regime changes with the rate that caused them, and no Intervene
    // chip ever deferred.
    let events = sim.journal();
    let mut grants = 0u64;
    let mut changes = 0usize;
    for event in &events {
        match &event.kind {
            EventKind::CadenceGranted { next_epoch, .. } => {
                grants += 1;
                assert!(*next_epoch > event.epoch, "cadence must move forward");
            }
            EventKind::CadenceDeferred { regime } => {
                assert_ne!(*regime, Regime::Intervene, "Intervene is never starved");
            }
            EventKind::RegimeChanged { from, to, .. } => {
                changes += 1;
                assert_ne!(from, to, "a regime change changes the regime");
            }
            _ => {}
        }
    }
    assert_eq!(grants, budget.granted, "journal grants match the ledger");
    assert!(changes > 0, "a 30-year mission transitions regimes");

    let summary = sim.summary();
    let rollup = summary.autopilot.expect("armed summary has the rollup");
    assert_eq!(rollup.enrolled, 64);
    assert_eq!(rollup.calm + rollup.watch + rollup.intervene, 64);
    assert_eq!(rollup.messages_granted, budget.granted);
    assert!(summary.render_text().contains("autopilot:"));
}

/// The efficiency claim at scale: 4096 chips over a 120-year mission
/// in half-year epochs, with the timing constraint tightened so part of
/// the population crosses the degrade threshold late in life. A budget
/// of one tenth of fixed cadence must send at least 10× fewer messages
/// than polling every chip every epoch, and the audit after *every*
/// epoch must find no compressed chip past the threshold unnoticed.
#[test]
fn autopilot_at_a_tenth_of_fixed_cadence_misses_no_degrade() {
    let chips = 4096u64;
    let epochs = 240u64;
    let mut config = FleetConfig::new(u32::try_from(chips).expect("fits"), 7);
    config.constraint_factor = 0.45;
    let mut pilot = AutopilotConfig::demo();
    pilot.budget_messages_per_epoch = (chips / 10).max(1);
    pilot.budget_burst = (chips / 5).max(2);
    // Enter Intervene two bucket-halvings out, so each predictable
    // crossing resolves in two samples; quiet chips check in once per
    // 32 years, and the horizon caps own boundary detection.
    pilot.intervene_horizon_epochs = 8;
    pilot.calm_cadence_epochs = 64;
    pilot.watch_cadence_epochs = 8;
    config.autopilot = Some(pilot);

    let mut sim = FleetSim::new(config).expect("valid config");
    let mut audited = 0u64;
    for _ in 0..epochs {
        sim.run(1).expect("simulates");
        // The threshold is whatever the decider has proven infeasible
        // so far; before any chip approaches it there is nothing to
        // audit.
        if let Some(threshold) = sim.decider().min_infeasible_bucket() {
            audited += 1;
            let missed = sim.undetected_degrades(threshold);
            assert_eq!(
                missed,
                0,
                "epoch {}: {missed} chip(s) crossed bucket {threshold} undetected",
                sim.epoch()
            );
        }
    }
    assert!(audited > 0, "the mission never reached a degrade threshold");

    let granted = sim
        .summary()
        .autopilot
        .expect("armed simulator reports an autopilot summary")
        .messages_granted;
    let savings = (chips * epochs) as f64 / granted.max(1) as f64;
    assert!(
        savings >= 10.0,
        "autopilot sent {granted} messages, only {savings:.1}× fewer than fixed cadence"
    );
}

/// Every shard count produces the same checkpoint bytes, the same
/// merged journal, and the same summary: the grant loop runs in
/// regime-priority then id order off a pre-pass snapshot, so worker
/// threading never shows through.
#[test]
fn autopilot_shard_count_never_changes_an_observable_byte() {
    let config = autopilot_config(48, 77);

    let mut reference = FleetSim::new_sharded(config.clone(), 1).expect("valid config");
    reference.run(24).expect("simulates");
    let want_frame = reference.to_state().to_binary().expect("encodes");
    let want_journal = journal::to_jsonl(&reference.journal());
    let want_summary = reference.summary().to_json();

    for shards in [2usize, 3, 8] {
        let mut sim = FleetSim::new_sharded(config.clone(), shards).expect("valid config");
        sim.run(24).expect("simulates");
        assert_eq!(
            sim.to_state().to_binary().expect("encodes"),
            want_frame,
            "{shards}-shard autopilot frame diverged from the serial run"
        );
        assert_eq!(
            journal::to_jsonl(&sim.journal()),
            want_journal,
            "{shards}-shard autopilot journal diverged from the serial run"
        );
        assert_eq!(
            sim.summary().to_json(),
            want_summary,
            "{shards}-shard autopilot summary diverged from the serial run"
        );
    }
}

/// What a run shows of its decision order: the buckets each epoch
/// decided first, the cache counters, the JSONL journal and the frame.
type Trace = (Vec<Vec<u64>>, Vec<CacheStats>, String, Vec<u8>);

/// Steps `sim` `epochs` times, recording the buckets each epoch decided
/// first.
fn step_recording(sim: &mut FleetSim, epochs: u64, record: &mut Vec<Vec<u64>>) {
    for _ in 0..epochs {
        let before = sim.buckets_planned().len();
        sim.step().expect("simulates");
        record.push(sim.buckets_planned()[before..].to_vec());
    }
}

/// Only a grant that first needs an undecided bucket asks the live
/// decider, in grant order; every other grant settles per shard. A
/// small, tightly constrained fleet runs two legs. In the first, chips
/// on several shards first need the same new bucket in one epoch. The
/// second resumes the fleet with a cold decider and the first quarter
/// of the ids due at Watch priority, the rest at Intervene, so the
/// first touches come in grant order, not id order. Each bucket is
/// still decided once, in one order, with the same counters, journal
/// and frame at every shard count.
#[test]
fn first_touches_on_several_shards_keep_one_decision_order() {
    const CHIPS: u32 = 96;
    let mut config = autopilot_config(CHIPS, 5);
    config.epoch_years = 0.5;
    config.constraint_factor = 0.45;
    config.memory = Some(agequant_mem::MemoryConfig::demo());
    let quarter_of = |chip: u32| chip / (CHIPS / 4);
    let run = |shards| -> (Trace, Vec<JournalEvent>) {
        let mut record = Vec::new();
        let mut sim = FleetSim::new_sharded(config.clone(), shards).expect("valid config");
        step_recording(&mut sim, 24, &mut record);
        let first_leg = sim.journal();
        let mut stats = vec![sim.cache_stats()];
        let mut state = sim.to_state();
        for chip in &mut state.chips {
            let pilot = chip.pilot.as_mut().expect("enrolled");
            pilot.next_epoch = state.epoch + 1;
            // A measured chip whose projection stays inside its bucket
            // requests under its own regime.
            pilot.rate_mv_per_epoch = 0.0;
            pilot.regime = if quarter_of(chip.id) == 0 {
                Regime::Watch
            } else {
                Regime::Intervene
            };
        }
        let mut sim = FleetSim::resume_sharded(state, shards).expect("resumes");
        step_recording(&mut sim, 8, &mut record);
        stats.push(sim.cache_stats());
        let mut journal_text = journal::to_jsonl(&first_leg);
        journal_text.push_str(&journal::to_jsonl(&sim.journal()));
        let frame = sim.checkpoint_binary().expect("encodes");
        ((record, stats, journal_text, frame), first_leg)
    };

    let (want, first_leg) = run(1);
    // The scenario: a bucket first decided in some epoch of the first
    // leg is journaled that epoch on chips of at least two quarters of
    // the ids, which are two of the four shards.
    let shared = want.0.iter().zip(1..).any(|(buckets, epoch)| {
        buckets.iter().any(|&bucket| {
            let mut quarters: Vec<u32> = first_leg
                .iter()
                .filter(|event| event.epoch == epoch)
                .filter(|event| match event.kind {
                    EventKind::Replanned { bucket: b, .. } | EventKind::Degraded { bucket: b } => {
                        b == bucket
                    }
                    _ => false,
                })
                .map(|event| quarter_of(event.chip))
                .collect();
            quarters.dedup();
            quarters.len() >= 2
        })
    });
    assert!(shared, "no new bucket reached two shards in one epoch");
    assert!(
        want.0[24].len() >= 2,
        "the resumed leg's first epoch decides several buckets"
    );

    for shards in [2usize, 3, 4] {
        let (got, _) = run(shards);
        assert_eq!(got.0, want.0, "{shards} shards: record order");
        assert_eq!(got.1, want.1, "{shards} shards: cache counters");
        assert_eq!(got.2, want.2, "{shards} shards: journal");
        assert_eq!(got.3, want.3, "{shards} shards: frame");
    }
}

/// Checkpoint/resume is bit-identical to the straight run at mixed
/// shard counts: the pilot states, budget ledger, and cadence
/// schedule all survive the format-4 frame.
#[test]
fn autopilot_resume_is_bit_identical_across_shard_counts() {
    let config = autopilot_config(32, 41);

    let mut straight = FleetSim::new_sharded(config.clone(), 1).expect("valid config");
    straight.run(20).expect("simulates");
    let want = straight.to_state().to_binary().expect("encodes");
    let want_journal = journal::to_jsonl(&straight.journal());

    for (first, second) in [(1usize, 4usize), (3, 2), (4, 1)] {
        let mut leg1 = FleetSim::new_sharded(config.clone(), first).expect("valid config");
        leg1.run(9).expect("simulates");
        let mut journal_text = journal::to_jsonl(&leg1.journal());
        let frame = leg1.to_state().to_binary().expect("encodes");
        assert_eq!(frame_version(&frame), CHECKPOINT_FORMAT_AUTOPILOT);
        let restored = FleetState::load(&frame).expect("frame loads");
        let mut leg2 = FleetSim::resume_sharded(restored, second).expect("resumes");
        leg2.run(11).expect("simulates");
        journal_text.push_str(&journal::to_jsonl(&leg2.journal()));
        assert_eq!(
            leg2.to_state().to_binary().expect("encodes"),
            want,
            "{first}-shard leg + {second}-shard resume diverged"
        );
        assert_eq!(
            journal_text, want_journal,
            "{first}+{second} journal diverged from the straight run"
        );
    }
}

/// The autopilot composes with the weight-memory axis: stress accrual
/// stays per-epoch physics, memory actions happen at sample time, and
/// the combined run stays shard-invariant.
#[test]
fn autopilot_with_memory_axis_is_shard_invariant() {
    let mut config = autopilot_config(32, 9);
    config.memory = Some(agequant_mem::MemoryConfig::demo());

    let mut reference = FleetSim::new_sharded(config.clone(), 1).expect("valid config");
    reference.run(40).expect("simulates");
    let want_frame = reference.to_state().to_binary().expect("encodes");
    let want_journal = journal::to_jsonl(&reference.journal());

    let mut sharded = FleetSim::new_sharded(config, 4).expect("valid config");
    sharded.run(40).expect("simulates");
    assert_eq!(sharded.to_state().to_binary().expect("encodes"), want_frame);
    assert_eq!(journal::to_jsonl(&sharded.journal()), want_journal);

    let summary = reference.summary();
    assert!(summary.memory.is_some(), "memory rollup present");
    assert!(summary.autopilot.is_some(), "autopilot rollup present");
}

/// Migration: the committed pre-autopilot format-2 binary fixture
/// arms in place — every chip gets a fresh pilot, the ledger fills to
/// burst — and the resumed fleet runs the closed loop and saves as
/// format 4.
#[test]
fn pre_autopilot_fixture_arms_and_resumes_as_format_four() {
    let fixture: &[u8] = include_bytes!("fixtures/pre-mem-state.bin");
    assert_eq!(frame_version(fixture), 2);
    let state = FleetState::load(fixture).expect("format-2 frame loads");
    let resumed_from = state.epoch;

    let mut sim = FleetSim::resume(state).expect("format-2 state resumes");
    sim.arm_autopilot(AutopilotConfig::demo())
        .expect("valid autopilot config");
    let armed = sim.to_state();
    assert!(armed.chips.iter().all(|c| c.pilot.is_some()));
    assert!(armed.autopilot.is_some(), "arming creates the ledger");

    sim.run(12).expect("simulates");
    assert!(sim.epoch() > resumed_from);

    let saved = sim.to_state().to_binary().expect("encodes");
    assert_eq!(frame_version(&saved), CHECKPOINT_FORMAT_AUTOPILOT);
    let back = FleetState::load(&saved).expect("format-4 frame loads");
    assert_eq!(back, sim.to_state(), "armed checkpoint round-trips");
    assert!(
        sim.journal()
            .iter()
            .any(|e| matches!(e.kind, EventKind::CadenceGranted { .. })),
        "the resumed fleet actually ran the closed loop"
    );
}

/// The format-4 JSON checkpoint fixture (written by the JSON writer
/// that autopilot runs used before every checkpoint became a binary
/// frame) still parses, through the `agequant-fleet migrate` read
/// path, to the fresh run's state — pilot states, budget ledger and
/// memory records included.
#[test]
fn format_four_json_fixture_parses_and_matches_a_fresh_run() {
    let state = FleetState::from_json(include_str!("fixtures/checkpoint-v4.json"))
        .expect("format-4 JSON checkpoint parses");
    assert_eq!(state.format, Some(CHECKPOINT_FORMAT_AUTOPILOT));
    assert!(state.autopilot.is_some(), "the budget ledger is carried");
    assert!(state
        .chips
        .iter()
        .all(|c| c.pilot.is_some() && c.mem.is_some()));

    let mut config = autopilot_config(8, 2021);
    config.memory = Some(agequant_mem::MemoryConfig::demo());
    let mut fresh = FleetSim::new(config).expect("valid config");
    fresh.run(10).expect("simulates");
    assert_eq!(state, fresh.to_state(), "fixture matches the fresh run");
}

/// An invalid autopilot configuration is rejected up front with the
/// violations spelled out, not discovered mid-mission.
#[test]
fn invalid_autopilot_config_is_rejected() {
    let mut config = autopilot_config(4, 1);
    if let Some(autopilot) = &mut config.autopilot {
        // Exit above entry: the hysteresis band is inverted.
        autopilot.watch_exit_mv = autopilot.watch_enter_mv * 2.0;
    }
    match FleetSim::new(config) {
        Err(agequant_fleet::FleetError::InvalidConfig(msg)) => {
            assert!(msg.contains("autopilot"), "got: {msg}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}
