//! A golden pin of the closed-loop fleet epoch.
//!
//! The shard-equivalence suites compare N shards against one shard of
//! the same build, so a rewrite that changes behaviour at every shard
//! count still passes them. This test pins absolute output instead: a
//! small late-life autopilot + memory fleet under a tight telemetry
//! budget (perfbench's `fleet-lifetime` settings, scaled down), whose
//! summary, checkpoint frame, JSONL journal and characterization
//! record were recorded before the closed-loop epoch was split into
//! parallel passes. It first checks that the run exercises every path
//! of that epoch, so the pin cannot go quiet on one of them.

use agequant_fleet::{
    crc32, journal, AutopilotConfig, EventKind, FleetConfig, FleetSim, JournalEvent, Regime,
};
use agequant_mem::MemoryConfig;

const CHIPS: u32 = 1200;
const SEED: u64 = 3;
const EPOCHS: u64 = 64;

/// Recorded by the serial closed-loop epoch.
const FRAME_CRC: u32 = 0x2125_eef7;
const FRAME_LEN: usize = 219_823;
const JOURNAL_CRC: u32 = 0x6c01_f984;
const JOURNAL_LEN: usize = 6_218_422;
const BUCKETS_PLANNED: &[u64] = &[0, 1, 2, 3, 4, 5, 6, 7];
/// `FleetSummary::to_json`, cache counters included, plus a newline.
const SUMMARY: &str = include_str!("fixtures/late-life-summary.json");

/// perfbench's late-life `fleet_lifetime::config`, at `CHIPS` chips.
fn config() -> FleetConfig {
    let mut config = FleetConfig::new(CHIPS, SEED);
    config.epoch_years = 0.5;
    config.constraint_factor = 0.45;
    config.memory = Some(MemoryConfig::demo());
    let mut pilot = AutopilotConfig::demo();
    pilot.budget_messages_per_epoch = u64::from(CHIPS / 10).max(1);
    pilot.budget_burst = u64::from(CHIPS / 5).max(2);
    pilot.intervene_horizon_epochs = 8;
    pilot.calm_cadence_epochs = 64;
    pilot.watch_cadence_epochs = 8;
    config.autopilot = Some(pilot);
    config
}

/// How often the run took each path of the closed-loop epoch, read
/// back from its journal and ledger.
#[derive(Debug, Default)]
struct Coverage {
    deferrals: u64,
    overdraft: u64,
    degraded: u64,
    reencoded: u64,
    infinite_margin_changes: u64,
    watch_prefetches: u64,
    intervene_pushes: u64,
}

fn coverage(sim: &FleetSim) -> Coverage {
    let events: Vec<JournalEvent> = sim.journal();
    let chips = sim.chip_count();
    let mut regime = vec![Regime::Calm; chips];
    let mut guardband = vec![false; chips];
    let mut cov = Coverage {
        overdraft: sim.budget().expect("armed fleet").overdraft,
        ..Coverage::default()
    };
    for (k, event) in events.iter().enumerate() {
        let chip = event.chip as usize;
        let same_sample =
            |other: &JournalEvent| other.epoch == event.epoch && other.chip == event.chip;
        match event.kind {
            EventKind::CadenceDeferred { .. } => cov.deferrals += 1,
            EventKind::Degraded { .. } => {
                cov.degraded += 1;
                guardband[chip] = true;
            }
            EventKind::Reencoded { .. } => cov.reencoded += 1,
            EventKind::RegimeChanged { to, margin_mv, .. } => {
                regime[chip] = to;
                if margin_mv == f64::INFINITY {
                    cov.infinite_margin_changes += 1;
                }
            }
            EventKind::CadenceGranted { .. } if !guardband[chip] => {
                // The regime after the sample: the transition journaled
                // right behind the grant, if any.
                let after = match events.get(k + 1) {
                    Some(next) if same_sample(next) => match next.kind {
                        EventKind::RegimeChanged { to, .. } => to,
                        _ => regime[chip],
                    },
                    _ => regime[chip],
                };
                match after {
                    Regime::Watch => cov.watch_prefetches += 1,
                    // A plan served after the grant is the proactive push.
                    Regime::Intervene
                        if events[k + 1..]
                            .iter()
                            .take_while(|e| same_sample(e))
                            .any(|e| {
                                matches!(
                                    e.kind,
                                    EventKind::Replanned { .. } | EventKind::Degraded { .. }
                                )
                            }) =>
                    {
                        cov.intervene_pushes += 1;
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
    cov
}

#[test]
fn late_life_autopilot_fleet_matches_its_golden_pin() {
    for shards in [1usize, 2, 3] {
        let mut sim = FleetSim::new_sharded(config(), shards).expect("valid config");
        sim.run(EPOCHS).expect("simulates");

        let cov = coverage(&sim);
        assert!(cov.deferrals > 0, "{cov:?}");
        assert!(cov.overdraft > 0, "{cov:?}");
        assert!(cov.degraded > 0, "{cov:?}");
        assert!(cov.reencoded > 0, "{cov:?}");
        assert!(cov.infinite_margin_changes > 0, "{cov:?}");
        assert!(cov.watch_prefetches > 0, "{cov:?}");
        assert!(cov.intervene_pushes > 0, "{cov:?}");

        let frame = sim.checkpoint_binary().expect("encodes");
        let text = journal::to_jsonl(&sim.journal());
        let summary = sim.summary().to_json();
        assert_eq!(journal::from_jsonl(&text).expect("parses"), sim.journal());
        assert_eq!(
            (crc32(&frame), frame.len()),
            (FRAME_CRC, FRAME_LEN),
            "{shards}-shard frame"
        );
        assert_eq!(
            (crc32(text.as_bytes()), text.len()),
            (JOURNAL_CRC, JOURNAL_LEN),
            "{shards}-shard journal"
        );
        assert_eq!(
            sim.buckets_planned(),
            BUCKETS_PLANNED,
            "{shards}-shard record"
        );
        assert_eq!(summary, SUMMARY.trim_end(), "{shards}-shard summary");
    }
}

/// A guardbanded chip's regime change journals an infinite margin; the
/// CLI must write it (as `null`) instead of panicking after the run.
#[test]
fn autopilot_resume_journals_guardbanded_regime_changes() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("guardband-journal");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    let fleet = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_agequant-fleet"))
            .args(args)
            .arg("--out")
            .arg(&dir)
            .output()
            .expect("agequant-fleet runs");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    fleet(&[
        "run",
        "--chips",
        "4000",
        "--epochs",
        "1",
        "--epoch-years",
        "0.5",
        "--constraint-factor",
        "0.45",
        "--memory",
    ]);
    fleet(&["autopilot", "--resume", "--epochs", "70"]);
    let text = std::fs::read_to_string(dir.join("journal.jsonl")).expect("journal written");
    let events = journal::from_jsonl(&text).expect("journal parses");
    assert!(
        events.iter().any(|e| matches!(
            e.kind,
            EventKind::RegimeChanged { margin_mv, .. } if margin_mv == f64::INFINITY
        )),
        "the run journals a guardbanded regime change"
    );
}
