//! Sharding-equivalence and checkpoint-robustness guarantees.
//!
//! The struct-of-arrays sharded simulator must be an *implementation
//! detail*: every observable byte — binary checkpoint frame, merged
//! journal, summary (including the engine cache counters) —
//! must be identical at every shard count, and resume must be
//! bit-identical no matter which shard counts the two legs used. The
//! binary checkpoint must also fail loudly, with a typed error naming
//! the corruption, on every way a frame can rot on disk. A decider
//! warm from earlier keys — its decision memo, its method memo and
//! its calibration context's clip searches — must decide every key as
//! a fresh decider does.

use agequant_fleet::{
    journal, CorruptKind, Decider, Decision, FleetConfig, FleetError, FleetSim, FleetState, MAGIC,
};
use agequant_nn::NetArch;
use agequant_quant::BitWidths;

/// Every shard count produces the same state, the same binary frame,
/// the same merged journal, and the same summary —
/// including the engine cache hit/miss counters, which pin the
/// decision order itself.
#[test]
fn shard_count_never_changes_an_observable_byte() {
    let config = FleetConfig::new(96, 77);

    let mut reference = FleetSim::new_sharded(config.clone(), 1).expect("valid config");
    reference.run(8).expect("simulates");
    let want_state = reference.to_state();
    let want_frame = want_state.to_binary().expect("encodes");
    let want_journal = journal::to_jsonl(&reference.journal());
    let want_summary = reference.summary().to_json();

    for shards in [2usize, 3, 8, 64] {
        let mut sim = FleetSim::new_sharded(config.clone(), shards).expect("valid config");
        sim.run(8).expect("simulates");
        assert_eq!(
            sim.to_state(),
            want_state,
            "{shards}-shard state diverged from the serial run"
        );
        assert_eq!(
            sim.to_state().to_binary().expect("encodes"),
            want_frame,
            "{shards}-shard binary frame diverged from the serial run"
        );
        assert_eq!(
            journal::to_jsonl(&sim.journal()),
            want_journal,
            "{shards}-shard merged journal diverged from the serial run"
        );
        assert_eq!(
            sim.summary().to_json(),
            want_summary,
            "{shards}-shard summary (incl. cache counters) diverged"
        );
    }
}

/// A binary checkpoint written by one shard count resumes
/// bit-identically under any other: leg-1 shards × leg-2 shards never
/// shows through in the final frame.
#[test]
fn resume_is_bit_identical_across_shard_counts() {
    let config = FleetConfig::new(64, 2024);

    let mut straight = FleetSim::new_sharded(config.clone(), 1).expect("valid config");
    straight.run(10).expect("simulates");
    let want = straight.to_state().to_binary().expect("encodes");

    for (first, second) in [(1usize, 8usize), (4, 2), (8, 1)] {
        let mut leg1 = FleetSim::new_sharded(config.clone(), first).expect("valid config");
        leg1.run(4).expect("simulates");
        let frame = leg1.to_state().to_binary().expect("encodes");
        let restored = FleetState::load(&frame).expect("frame loads");
        let mut leg2 = FleetSim::resume_sharded(restored, second).expect("resumes");
        leg2.run(6).expect("simulates");
        assert_eq!(
            leg2.to_state().to_binary().expect("encodes"),
            want,
            "{first}-shard leg + {second}-shard resume diverged from the straight run"
        );
    }
}

/// Every way a frame can rot on disk surfaces as a typed
/// [`CorruptKind`], never a panic, a wrong fleet, or a generic parse
/// error.
#[test]
fn corrupted_binary_checkpoints_fail_with_typed_errors() {
    let mut sim = FleetSim::new(FleetConfig::new(12, 5)).expect("valid config");
    sim.run(2).expect("simulates");
    let state = sim.to_state();
    let frame = state.to_binary().expect("encodes");
    assert_eq!(
        FleetState::load(&frame).expect("intact frame loads"),
        state,
        "sanity: the uncorrupted frame round-trips"
    );

    let corrupt_kind = |bytes: &[u8]| match FleetState::from_binary(bytes) {
        Err(FleetError::Corrupt(kind)) => kind,
        other => panic!("expected a Corrupt error, got {other:?}"),
    };

    // Bad magic: the file is not an AGQFLEET frame at all.
    let mut bad_magic = frame.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(corrupt_kind(&bad_magic), CorruptKind::BadMagic));

    // Wrong version: a frame from a future (or mangled) writer.
    let mut bad_version = frame.clone();
    bad_version[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&999u32.to_le_bytes());
    assert!(matches!(
        corrupt_kind(&bad_version),
        CorruptKind::UnsupportedVersion { found: 999 }
    ));

    // Truncated frame: a crash mid-copy chopped the tail off.
    let truncated = &frame[..frame.len() - 5];
    match corrupt_kind(truncated) {
        CorruptKind::Truncated { needed, have } => {
            assert_eq!(needed, frame.len() as u64);
            assert_eq!(have, (frame.len() - 5) as u64);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }

    // Flipped payload byte: the CRC catches silent bit rot.
    let mut bit_rot = frame.clone();
    let payload_start = MAGIC.len() + 4 + 8;
    bit_rot[payload_start + 1] ^= 0x01;
    assert!(matches!(
        corrupt_kind(&bit_rot),
        CorruptKind::ChecksumMismatch { .. }
    ));

    // Trailing garbage: concatenated or doubly-written frames.
    let mut trailing = frame.clone();
    trailing.extend_from_slice(b"xyz");
    assert!(matches!(
        corrupt_kind(&trailing),
        CorruptKind::TrailingBytes { extra: 3 }
    ));

    // Through the loader, a non-magic prefix is not a frame at all:
    // it reports Malformed, pointing at the JSON migration.
    assert!(matches!(
        FleetState::load(&bad_magic),
        Err(FleetError::Malformed(msg)) if msg.contains("agequant-fleet migrate")
    ));
}

/// The full migration chain: a committed format-1 JSON checkpoint
/// loads (upgrading in memory) and then survives the binary encode /
/// decode round-trip losslessly, so no vintage of checkpoint is
/// stranded by the format change. (Semantic equivalence of the v1
/// fixture to a re-simulated fleet is pinned separately by the sim
/// crate's migration test; v1 stored some model floats with rounding,
/// so that comparison is tolerance-based, not byte-based.)
#[test]
fn format_one_json_migrates_through_to_binary() {
    let v1 = include_str!("fixtures/checkpoint-v1.json");
    let migrated = FleetState::from_json(v1).expect("format-1 checkpoint migrates");
    assert_eq!(migrated.chips.len(), 8);
    assert_eq!(migrated.epoch, 3);

    let frame = migrated.to_binary().expect("encodes");
    let back = FleetState::from_binary(&frame).expect("decodes");
    assert_eq!(back, migrated, "binary round-trip preserves the migration");
    assert_eq!(
        back.to_binary().expect("re-encodes"),
        frame,
        "the migrated frame is a fixed point of encode/decode"
    );
}

/// The committed format-2 JSON fixture (the last JSON-format
/// checkpoint we shipped) parses through `from_json` and matches a
/// fresh run — this is the fixture CI feeds to `agequant-fleet
/// migrate`. The runtime loader refuses it.
#[test]
fn format_two_json_fixture_parses_and_matches_a_fresh_run() {
    let v2 = include_str!("fixtures/checkpoint-v2.json");
    let state = FleetState::from_json(v2).expect("format-2 JSON parses");

    let mut fresh = FleetSim::new(FleetConfig::new(8, 2021)).expect("valid config");
    fresh.run(3).expect("simulates");
    assert_eq!(state, fresh.to_state(), "fixture matches the fresh run");
    assert!(matches!(
        FleetState::load(v2.as_bytes()),
        Err(FleetError::Malformed(msg)) if msg.contains("agequant-fleet migrate")
    ));
}

/// `(bucket, constraint factor)` keys in the shape of a cold-decide
/// run on 1 mV buckets: fresh buckets across the 0–50 mV sweep, and
/// earlier buckets revisited under new constraints from 0.6–1.2× the
/// fresh clock.
const COLD_KEYS: [(u64, f64); 10] = [
    (26, 1.0),
    (41, 0.83),
    (26, 0.7),
    (50, 1.12),
    (33, 0.95),
    (41, 1.2),
    (12, 0.64),
    (50, 0.77),
    (7, 1.05),
    (33, 0.61),
];

/// A decider warmed over [`COLD_KEYS`] on each network decides every
/// key exactly as a fresh decider seeing only that key, and the keys
/// cover bit-width pairs that share only their weight width or only
/// their activation width with an earlier pair, so the calibration
/// context's partly warm clip memo is what is checked.
#[test]
fn warm_decider_decides_cold_keys_like_fresh_ones() {
    for arch in [NetArch::SqueezeNet11, NetArch::AlexNet, NetArch::Vgg13] {
        let mut config = FleetConfig::new(1, 11);
        config.network = Some(arch);
        config.bucket_mv = 1.0;
        let warm = Decider::from_config(&config).expect("valid config");
        let mut seen: Vec<BitWidths> = Vec::new();
        let (mut weights_reused, mut activations_reused) = (false, false);
        for (bucket, factor) in COLD_KEYS {
            let decision = warm
                .decide_bucket_at(bucket, warm.constraint_ps() * factor)
                .expect("decides");
            let fresh = Decider::from_config(&config).expect("valid config");
            let fresh_decision = fresh
                .decide_bucket_at(bucket, fresh.constraint_ps() * factor)
                .expect("decides");
            assert_eq!(
                decision, fresh_decision,
                "{arch}: bucket {bucket} at ×{factor} diverged from a fresh decider"
            );
            let Decision::Plan(plan) = decision else {
                panic!("{arch}: bucket {bucket} at ×{factor} degraded");
            };
            assert!(plan.method.is_some(), "{arch}: selection is enabled");
            let bits = plan.plan.bit_widths();
            if !seen.contains(&bits) {
                weights_reused |= seen.iter().any(|s| s.weights == bits.weights);
                activations_reused |= seen.iter().any(|s| s.activations == bits.activations);
                seen.push(bits);
            }
        }
        assert!(
            weights_reused && activations_reused,
            "{arch}: the keys never reuse one width alone: {seen:?}"
        );
    }
}
