//! Std-mode facade equivalence: with the `model` feature off, the
//! `check::sync` facade is a 1:1 `std` re-export, so porting the
//! concurrent crates onto it must leave observable behavior
//! bit-identical. The fixtures under `tests/fixtures/` were generated
//! from the pre-facade code (`AGEQUANT_BLESS=1 cargo test -p
//! agequant-check --test std_equivalence`) and are compared literally.
#![cfg(not(feature = "model"))]

use std::fs;
use std::path::PathBuf;

use agequant_aging::VthShift;
use agequant_fleet::{Decider, FleetConfig, FleetSim};
use agequant_serve::plan_response;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compares `actual` against the committed fixture, or rewrites the
/// fixture when `AGEQUANT_BLESS` is set.
fn check_fixture(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var_os("AGEQUANT_BLESS").is_some() {
        fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); run with AGEQUANT_BLESS=1", name));
    assert_eq!(
        expected, actual,
        "{name}: facade build diverged from the pre-facade fixture"
    );
}

/// The server's `/v1/plan` bytes — cold then warm — for a spread of
/// ΔVth shifts covering feasible buckets and the guardband fallback.
#[test]
fn warm_plan_bytes_are_bit_identical_to_the_pre_facade_fixture() {
    let config = FleetConfig::new(4, 2021);
    let decider = Decider::from_config(&config).expect("valid config");
    let mut out = String::new();
    for mv in [0.0, 7.5, 14.0, 23.0, 42.0, 61.0] {
        let decision = decider
            .decide_bucket(decider.bucket_of(VthShift::from_millivolts(mv)))
            .expect("decides");
        let body = serde_json::to_string(&plan_response(&decider, &decision)).expect("serializes");
        // The warm (cached) answer must be byte-identical to the cold one.
        let warm = decider
            .decide_bucket(decider.bucket_of(VthShift::from_millivolts(mv)))
            .expect("decides warm");
        assert_eq!(
            serde_json::to_string(&plan_response(&decider, &warm)).expect("serializes"),
            body,
            "warm plan diverged from cold plan at {mv} mV"
        );
        out.push_str(&body);
        out.push('\n');
    }
    check_fixture("plan_bytes.jsonl", &out);
}

/// A short sharded fleet run's summary JSON, pinned byte-for-byte.
#[test]
fn fleet_summary_is_bit_identical_to_the_pre_facade_fixture() {
    let mut config = FleetConfig::new(8, 2021);
    config.epoch_years = 1.5;
    let mut sim = FleetSim::new(config).expect("valid config");
    sim.run(4).expect("simulates");
    check_fixture("fleet_summary.json", &sim.summary().to_json());
}
