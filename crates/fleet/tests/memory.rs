//! The weight-memory aging axis at fleet scale.
//!
//! Memory is a *second* failure axis: a chip whose MAC timing still
//! closes can exhaust its re-encode budget and degrade on stored-weight
//! reliability alone. These tests pin the observable surface of that
//! axis — journal events, summary rollup, the format-3 checkpoint and
//! its migration path — and the equivalence guarantee that a
//! memory-disabled fleet is byte-identical to the pre-memory build.

use agequant_fleet::{
    journal, ChipMode, EventKind, FleetConfig, FleetError, FleetSim, FleetState,
    CHECKPOINT_FORMAT_MEM, MAGIC,
};
use agequant_mem::MemoryConfig;

fn memory_config(chips: u32, seed: u64) -> FleetConfig {
    let mut config = FleetConfig::new(chips, seed);
    config.memory = Some(MemoryConfig::demo());
    config
}

fn frame_version(frame: &[u8]) -> u32 {
    u32::from_le_bytes(frame[MAGIC.len()..MAGIC.len() + 4].try_into().expect("4"))
}

/// The headline scenario: over a long mission the decider schedules
/// re-encodes (journaled), chips that exhaust the budget degrade on
/// the memory axis, and at least one of them is still timing-healthy —
/// its MAC plan closes timing while its stored weights are no longer
/// trustworthy.
#[test]
fn memory_axis_reencodes_and_degrades_timing_healthy_chips() {
    let mut sim = FleetSim::new(memory_config(64, 2024)).expect("valid config");
    sim.run(60).expect("simulates");

    let events = sim.journal();
    let reencoded: Vec<u32> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Reencoded { .. } => Some(e.chip),
            _ => None,
        })
        .collect();
    let degraded: Vec<u32> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::MemoryDegraded { .. } => Some(e.chip),
            _ => None,
        })
        .collect();
    assert!(!reencoded.is_empty(), "mission long enough to re-encode");
    assert!(!degraded.is_empty(), "mission long enough to degrade");

    let state = sim.to_state();
    // Journal and state agree on which chips memory-degraded.
    for chip in &state.chips {
        let mem = chip.mem.expect("memory axis tracks every chip");
        assert_eq!(
            mem.degraded,
            degraded.contains(&chip.id),
            "chip {} journal/state disagree on memory degradation",
            chip.id
        );
    }
    // Each chip degrades at most once.
    let mut unique = degraded.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), degraded.len(), "degrade events are one-shot");

    // The axis is genuinely independent of timing: some memory-degraded
    // chip still runs compressed (its MAC plan closes timing).
    assert!(
        state
            .chips
            .iter()
            .any(|c| c.mem.expect("tracked").degraded && c.mode == ChipMode::Compressed),
        "expected a timing-healthy but memory-degraded chip"
    );

    let summary = sim.summary();
    let memory = summary.memory.expect("memory-enabled summary has rollup");
    assert_eq!(memory.tracked, 64);
    assert_eq!(memory.memory_degraded, unique.len());
    assert!(memory.timing_healthy_memory_degraded >= 1);
    assert_eq!(
        memory.reencodes,
        reencoded.len() as u64,
        "summary re-encode total matches the journal"
    );
    assert!(memory.worst_failure_prob > memory.mean_failure_prob);
    assert!(memory.worst_failure_prob <= 1.0);
    assert!(summary.render_text().contains("memory:"));
}

/// Re-encode cadence: the two-sided stress model spaces a chip's
/// re-encodes out over the mission (the spare side must fall behind the
/// active side again before another toggle is useful), and the
/// journaled `count` increments by one per event.
#[test]
fn reencodes_are_periodic_not_every_epoch() {
    let mut sim = FleetSim::new(memory_config(16, 7)).expect("valid config");
    sim.run(40).expect("simulates");

    let mut per_chip: std::collections::BTreeMap<u32, Vec<(u64, u32)>> = Default::default();
    for event in sim.journal() {
        if let EventKind::Reencoded { count } = event.kind {
            per_chip
                .entry(event.chip)
                .or_default()
                .push((event.epoch, count));
        }
    }
    assert!(!per_chip.is_empty(), "somebody re-encoded in 20 years");
    for (chip, events) in &per_chip {
        for (idx, (_, count)) in events.iter().enumerate() {
            assert_eq!(*count as usize, idx + 1, "chip {chip}: counts increment");
        }
        for pair in events.windows(2) {
            assert!(
                pair[1].0 > pair[0].0 + 1,
                "chip {chip}: re-encodes {} and {} in adjacent epochs — the \
                 spare side cannot already be stressed past the active side",
                pair[0].0,
                pair[1].0
            );
        }
    }
}

/// A memory-enabled fleet writes format-3 frames, and they round-trip
/// losslessly — including every per-chip memory record.
#[test]
fn memory_checkpoints_are_format_three_and_round_trip() {
    let mut sim = FleetSim::new(memory_config(24, 99)).expect("valid config");
    sim.run(12).expect("simulates");
    let state = sim.to_state();
    assert_eq!(state.format, Some(CHECKPOINT_FORMAT_MEM));

    let frame = state.to_binary().expect("encodes");
    assert_eq!(frame_version(&frame), CHECKPOINT_FORMAT_MEM);
    let back = FleetState::load(&frame).expect("loads");
    assert_eq!(back, state, "binary round-trip preserves memory state");
}

/// Resume with memory enabled is bit-identical to a straight run, at
/// mixed shard counts: the memory pass draws no randomness and keeps
/// shard order deterministic.
#[test]
fn memory_resume_is_bit_identical_across_shard_counts() {
    let config = memory_config(32, 41);

    let mut straight = FleetSim::new_sharded(config.clone(), 1).expect("valid config");
    straight.run(30).expect("simulates");
    let want = straight.to_state().to_binary().expect("encodes");
    let want_journal = journal::to_jsonl(&straight.journal());

    for (first, second) in [(1usize, 4usize), (3, 2), (4, 1)] {
        let mut leg1 = FleetSim::new_sharded(config.clone(), first).expect("valid config");
        leg1.run(14).expect("simulates");
        let mut journal_text = journal::to_jsonl(&leg1.journal());
        let frame = leg1.to_state().to_binary().expect("encodes");
        let restored = FleetState::load(&frame).expect("frame loads");
        let mut leg2 = FleetSim::resume_sharded(restored, second).expect("resumes");
        leg2.run(16).expect("simulates");
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

/// Migration: the committed pre-memory format-2 binary fixture still
/// loads — every chip comes back with no memory state — and re-encodes
/// to the identical format-2 bytes, so old checkpoints are neither
/// stranded nor silently rewritten.
#[test]
fn format_two_fixture_loads_as_memoryless_and_is_a_fixed_point() {
    let fixture: &[u8] = include_bytes!("fixtures/pre-mem-state.bin");
    assert_eq!(frame_version(fixture), 2);
    let state = FleetState::load(fixture).expect("format-2 frame loads");
    assert_eq!(state.format, Some(2));
    assert!(
        state.chips.iter().all(|c| c.mem.is_none()),
        "pre-memory chips migrate to `mem: None`"
    );
    assert_eq!(
        state.to_binary().expect("re-encodes").as_slice(),
        fixture,
        "memory-disabled re-encode reproduces the format-2 bytes"
    );
}

/// The committed format-3 fixture pins the new binary encoding: it
/// loads and matches a fresh memory-enabled run byte for byte.
#[test]
fn format_three_fixture_matches_a_fresh_run() {
    let fixture: &[u8] = include_bytes!("fixtures/checkpoint-v3.bin");
    assert_eq!(frame_version(fixture), CHECKPOINT_FORMAT_MEM);
    let state = FleetState::load(fixture).expect("format-3 frame loads");

    let mut fresh = FleetSim::new(memory_config(8, 2021)).expect("valid config");
    fresh.run(10).expect("simulates");
    assert_eq!(state, fresh.to_state(), "fixture matches the fresh run");
    assert_eq!(
        fresh.to_state().to_binary().expect("encodes").as_slice(),
        fixture,
        "fixture bytes pin the format-3 encoding"
    );
}

/// The format-3 JSON checkpoint fixture (written by the JSON writer
/// that memory-enabled `agequant-serve` runs used before every
/// checkpoint became a binary frame) still parses, through the
/// `agequant-fleet migrate` read path, to the fresh run's state —
/// every per-chip memory record included.
#[test]
fn format_three_json_fixture_parses_and_matches_a_fresh_run() {
    let state = FleetState::from_json(include_str!("fixtures/checkpoint-v3.json"))
        .expect("format-3 JSON checkpoint parses");
    assert_eq!(state.format, Some(CHECKPOINT_FORMAT_MEM));
    assert!(state.chips.iter().all(|c| c.mem.is_some()));

    let mut fresh = FleetSim::new(memory_config(8, 2021)).expect("valid config");
    fresh.run(10).expect("simulates");
    assert_eq!(state, fresh.to_state(), "fixture matches the fresh run");
}

/// EQUIVALENCE GUARD — with memory disabled, every observable byte of
/// a fleet run (binary frame, journal, summary) is identical to the
/// committed pre-memory fixtures, and its state equals the one the
/// pre-memory JSON checkpoint fixture holds. The memory axis is
/// strictly additive.
#[test]
fn memoryless_fleet_is_byte_identical_to_the_pre_memory_build() {
    let config = FleetConfig::new(48, 2024);
    assert!(config.memory.is_none(), "memory is opt-in");
    let mut sim = FleetSim::new_sharded(config, 2).expect("valid config");
    sim.run(6).expect("simulates");

    assert_eq!(
        sim.to_state(),
        FleetState::from_json(include_str!("fixtures/pre-mem-state.json"))
            .expect("pre-memory JSON checkpoint parses"),
        "state diverged from the pre-memory JSON checkpoint"
    );
    assert_eq!(
        sim.to_state().to_binary().expect("encodes").as_slice(),
        include_bytes!("fixtures/pre-mem-state.bin"),
        "binary frame diverged from the pre-memory build"
    );
    assert_eq!(
        journal::to_jsonl(&sim.journal()).trim_end(),
        include_str!("fixtures/pre-mem-journal.jsonl").trim_end(),
        "journal diverged from the pre-memory build"
    );
    assert_eq!(
        sim.summary().to_json().trim_end(),
        include_str!("fixtures/pre-mem-summary.json").trim_end(),
        "summary JSON diverged from the pre-memory build"
    );
}

/// An invalid memory configuration is rejected up front with the
/// bounds violations spelled out, not discovered mid-mission.
#[test]
fn invalid_memory_config_is_rejected() {
    let mut config = memory_config(4, 1);
    if let Some(memory) = &mut config.memory {
        memory.reencode_threshold = -0.25;
    }
    match FleetSim::new(config) {
        Err(FleetError::InvalidConfig(msg)) => {
            assert!(msg.contains("memory config"), "got: {msg}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}
