//! The `fleet-lifetime` phase: a sharded fleet with the weight-memory
//! axis and the autopilot armed, stepped through a lifetime (6 years
//! early in life, 24 years into the degrade crossings late), with a checkpoint
//! cycle (`checkpoint_binary` → `persist::atomic_write` → `fs::read`
//! → `FleetState::load`) every quarter of the lifetime.
//!
//! The plan cache answers almost every decision here, so physics,
//! memory aging, the autopilot, the journal and checkpoint I/O do the
//! work; an engine change should not move these numbers.

use std::path::Path;
use std::time::Instant;

use agequant_fleet::{
    crc32, persist, AutopilotConfig, FleetConfig, FleetSim, FleetState, FleetSummary,
};
use agequant_mem::MemoryConfig;
use serde::Value;

use super::{secs, Params, Stage};
use crate::affinity;
use crate::provenance::FLEET_SHARDS;
use crate::report::Outcome;
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;

/// Fleet size: large enough that its columns run to tens of MB and
/// its checkpoint to about 36 MB.
pub const CHIPS: u32 = 200_000;
/// Epochs per lifetime: 6 years early in life, 24 years (past the
/// first degrade-threshold crossings around year 18 at this
/// constraint) late in life; see [`epoch_years`].
pub const EPOCHS: u64 = 48;
/// Timing constraint factor, tightened (as in `autopilot_eff`) so part
/// of the fleet crosses the degrade threshold late in life.
pub const CONSTRAINT_FACTOR: f64 = 0.45;
/// A checkpoint cycle runs after every this many epochs.
pub const CHECKPOINT_EVERY: u64 = 12;
/// Fleet samplings timed per run at least; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Years per epoch: an eighth of a year early in life, half a year
/// late in life.
#[must_use]
pub fn epoch_years(stage: Stage) -> f64 {
    match stage {
        Stage::Early => 0.125,
        Stage::Late => 0.5,
    }
}

/// The fleet configuration for `seed` and `stage`: memory axis and
/// autopilot armed, the telemetry budget scaled to the fleet as in
/// `autopilot_eff`.
#[must_use]
pub fn config(seed: u64, stage: Stage, chips: u32) -> FleetConfig {
    let mut config = FleetConfig::new(chips, seed);
    config.epoch_years = epoch_years(stage);
    config.constraint_factor = CONSTRAINT_FACTOR;
    config.memory = Some(MemoryConfig::demo());
    let mut pilot = AutopilotConfig::demo();
    pilot.budget_messages_per_epoch = u64::from(chips / 10).max(1);
    pilot.budget_burst = u64::from(chips / 5).max(2);
    pilot.intervene_horizon_epochs = 8;
    pilot.calm_cadence_epochs = 64;
    pilot.watch_cadence_epochs = 8;
    config.autopilot = Some(pilot);
    config
}

/// One checkpoint cycle's stage times, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cycle {
    /// `FleetSim::checkpoint_binary`.
    pub encode: f64,
    /// `persist::atomic_write` (write, fsync, rename, directory fsync).
    pub write: f64,
    /// `fs::read`.
    pub read: f64,
    /// `FleetState::load`.
    pub decode: f64,
    /// Frame length, bytes.
    pub bytes: usize,
}

impl Cycle {
    /// Save side: encode plus atomic write.
    #[must_use]
    pub fn save(&self) -> f64 {
        self.encode + self.write
    }

    /// Load side: read plus decode.
    #[must_use]
    pub fn load(&self) -> f64 {
        self.read + self.decode
    }
}

/// Saves and reloads `sim` through `path`, each stage in its own span
/// under a `fleet.checkpoint` root.
///
/// # Errors
///
/// Any encode, I/O or decode failure, as text.
pub fn checkpoint_cycle(
    sim: &FleetSim,
    path: &Path,
    op: u64,
    tracer: &mut Tracer,
) -> Result<(Cycle, FleetState), String> {
    let root = tracer.enter("fleet.checkpoint", op);
    let t = Instant::now();
    let frame = tracer
        .span("fleet.checkpoint.encode", op, || sim.checkpoint_binary())
        .map_err(|e| e.to_string())?;
    let encode = secs(t);
    let t = Instant::now();
    tracer
        .span("fleet.persist.write", op, || {
            persist::atomic_write(path, &frame)
        })
        .map_err(|e| e.to_string())?;
    let write = secs(t);
    let t = Instant::now();
    let bytes = tracer
        .span("fleet.checkpoint.read", op, || std::fs::read(path))
        .map_err(|e| e.to_string())?;
    let read = secs(t);
    let t = Instant::now();
    let state = tracer
        .span("fleet.checkpoint.decode", op, || FleetState::load(&bytes))
        .map_err(|e| e.to_string())?;
    let decode = secs(t);
    tracer.exit(root);
    if bytes != frame {
        return Err("checkpoint read back different bytes".to_string());
    }
    let cycle = Cycle {
        encode,
        write,
        read,
        decode,
        bytes: frame.len(),
    };
    Ok((cycle, state))
}

/// The stage spans under each `fleet.checkpoint` root.
pub const CHECKPOINT_STAGES: [&str; 4] = [
    "fleet.checkpoint.encode",
    "fleet.persist.write",
    "fleet.checkpoint.read",
    "fleet.checkpoint.decode",
];

/// Sum of the checkpoint stages' self times over the untraced cycles'
/// wall time — near 1 when the stages account for the whole cycle.
#[must_use]
pub fn checkpoint_stage_sum_ratio(tracer: &Tracer, untraced_ms: f64) -> f64 {
    CHECKPOINT_STAGES
        .iter()
        .map(|name| tracer.self_total_ms(name))
        .sum::<f64>()
        / untraced_ms.max(1e-9)
}

/// A summary without the engine cache counters, which are memoization
/// rather than fleet state and start cold on resume.
fn comparable(mut summary: FleetSummary) -> FleetSummary {
    summary.cache = None;
    summary.cache_by_model = None;
    summary
}

/// What one lifetime measured.
#[derive(Debug, Default)]
pub struct Lifetime {
    /// `FleetSim::new_sharded`, seconds.
    pub sample_s: f64,
    /// `FleetSim::run(1)` per epoch, seconds.
    pub epochs_s: Vec<f64>,
    /// Every checkpoint cycle.
    pub cycles: Vec<Cycle>,
    /// The live fleet at the end.
    pub sim: Option<FleetSim>,
}

/// Samples a fleet and steps it through [`EPOCHS`] epochs with a
/// checkpoint cycle every [`CHECKPOINT_EVERY`]; the last cycle's state
/// must resume to the live fleet's summary.
pub fn lifetime(
    config: &FleetConfig,
    path: &Path,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Lifetime {
    let mut life = Lifetime::default();
    let t = Instant::now();
    let sampled = tracer.span("fleet.sample", 0, || {
        FleetSim::new_sharded(config.clone(), FLEET_SHARDS)
    });
    life.sample_s = secs(t);
    outcome.attempted += 1;
    let mut sim = match sampled {
        Ok(sim) => sim,
        Err(e) => {
            outcome.fail(format!("sample: {e}"));
            return life;
        }
    };
    let mut last_state = None;
    for epoch in 1..=EPOCHS {
        outcome.attempted += 1;
        let t = Instant::now();
        let stepped = tracer.span("fleet.epoch", epoch, || sim.run(1));
        life.epochs_s.push(secs(t));
        if let Err(e) = stepped {
            outcome.fail(format!("epoch {epoch}: {e}"));
            return life;
        }
        if epoch % CHECKPOINT_EVERY == 0 {
            outcome.attempted += 1;
            match checkpoint_cycle(&sim, path, epoch, tracer) {
                Ok((cycle, state)) => {
                    life.cycles.push(cycle);
                    last_state = Some(state);
                }
                Err(e) => outcome.fail(format!("checkpoint at epoch {epoch}: {e}")),
            }
        }
    }
    outcome.attempted += 1;
    match last_state.map(FleetSim::resume) {
        Some(Ok(resumed)) if comparable(resumed.summary()) == comparable(sim.summary()) => {}
        Some(Ok(_)) => {
            outcome.fail("resumed checkpoint summary differs from the live fleet".to_string())
        }
        Some(Err(e)) => outcome.fail(format!("resume: {e}")),
        None => outcome.fail("no checkpoint to resume".to_string()),
    }
    life.sim = Some(sim);
    life
}

/// Runs the workload.
#[must_use]
pub fn run(params: &Params) -> Outcome {
    let mut outcome = Outcome::default();
    let config = config(params.seed, params.stage, CHIPS);
    let path = params.scratch.join("fleet.agq");
    // Every epoch spawns its shard threads afresh; keeping the CPUs
    // from halting keeps those wake-ups from waiting on the host.
    let _awake = affinity::Awake::on(&affinity::allowed_cpus());
    if params.trace {
        return run_traced(&config, &path, outcome);
    }
    let start = Instant::now();
    let mut lives = Vec::new();
    while lives.is_empty() || secs(start) < params.seconds {
        let mut life = lifetime(&config, &path, &mut Tracer::new(false), &mut outcome);
        life.sim = None;
        lives.push(life);
        if outcome.failed > 0 {
            break;
        }
    }
    let mut setups: Vec<f64> = lives.iter().map(|l| l.sample_s).collect();
    while setups.len() < SETUP_REPS {
        let t = Instant::now();
        drop(std::hint::black_box(FleetSim::new_sharded(
            config.clone(),
            FLEET_SHARDS,
        )));
        setups.push(secs(t));
    }
    let epoch_s: f64 = lives.iter().flat_map(|l| &l.epochs_s).sum();
    let epochs = lives.iter().map(|l| l.epochs_s.len()).sum::<usize>();
    let cycles: Vec<Cycle> = lives
        .iter()
        .flat_map(|l| l.cycles.iter().copied())
        .collect();
    outcome.e2e("setup_s", median(&setups).unwrap_or(f64::NAN), "s");
    #[allow(clippy::cast_precision_loss)]
    outcome.e2e(
        "chip_epochs_per_s",
        f64::from(CHIPS) * epochs as f64 / epoch_s.max(1e-9),
        "1/s",
    );
    outcome.e2e(
        "checkpoint_save_s",
        median(&cycles.iter().map(Cycle::save).collect::<Vec<_>>()).unwrap_or(f64::NAN),
        "s",
    );
    outcome.e2e(
        "checkpoint_load_s",
        median(&cycles.iter().map(Cycle::load).collect::<Vec<_>>()).unwrap_or(f64::NAN),
        "s",
    );
    outcome.detail("lifetimes", Value::UInt(lives.len() as u64));
    outcome.detail("checkpoint_cycles", Value::UInt(cycles.len() as u64));
    outcome
}

fn run_traced(config: &FleetConfig, path: &Path, mut outcome: Outcome) -> Outcome {
    let plain = lifetime(config, path, &mut Tracer::new(false), &mut outcome);
    drop(plain.sim);
    let mut tracer = Tracer::new(true);
    let mut traced = lifetime(config, path, &mut tracer, &mut outcome);
    let Some(sim) = traced.sim.take() else {
        return outcome;
    };
    // CRC is part of encode (and of decode); replay it alone over the
    // last frame to show its share.
    let frame = std::fs::read(path).unwrap_or_default();
    let crc_ms: Vec<f64> = (0..traced.cycles.len().max(1))
        .map(|i| {
            tracer.span("fleet.checkpoint.crc", i as u64, || {
                std::hint::black_box(crc32(std::hint::black_box(&frame)))
            });
            *tracer
                .durations_ms("fleet.checkpoint.crc")
                .last()
                .expect("span recorded")
        })
        .collect();
    let ms = |name: &str| sorted(tracer.durations_ms(name));
    let p50 = |name: &str| percentile(&ms(name), 50.0).unwrap_or(f64::NAN);
    outcome.layer("fleet.sample_ms", p50("fleet.sample"), "ms");
    outcome.layer("fleet.epoch_ms_p50", p50("fleet.epoch"), "ms");
    outcome.layer(
        "fleet.epoch_ms_p90",
        percentile(&ms("fleet.epoch"), 90.0).unwrap_or(f64::NAN),
        "ms",
    );
    let summary = sim.summary();
    let chip_epochs = f64::from(CHIPS) * EPOCHS as f64;
    if let Some(pilot) = summary.autopilot {
        #[allow(clippy::cast_precision_loss)]
        {
            outcome.layer("autopilot.grants", pilot.messages_granted as f64, "count");
            outcome.layer(
                "autopilot.deferred",
                pilot.messages_deferred as f64,
                "count",
            );
            outcome.layer(
                "autopilot.overdraft",
                pilot.overdraft_grants as f64,
                "count",
            );
            outcome.layer(
                "autopilot.sample_ratio",
                pilot.messages_granted as f64 / chip_epochs,
                "ratio",
            );
        }
    }
    if let Some(budget) = sim.budget() {
        outcome.detail("budget", Value::Str(format!("{budget:?}")));
    }
    outcome.layer(
        "fleet.engine_plan_hit_ratio",
        sim.cache_stats().plan_hit_rate(),
        "ratio",
    );
    #[allow(clippy::cast_precision_loss)]
    if let Some(memory) = summary.memory {
        outcome.layer("mem.reencodes", memory.reencodes as f64, "count");
    }
    #[allow(clippy::cast_precision_loss)]
    outcome.layer("fleet.journal_events", sim.journal().len() as f64, "count");
    outcome.detail("degraded_chips", Value::UInt(summary.degraded as u64));

    outcome.layer(
        "fleet.checkpoint.encode_ms",
        p50("fleet.checkpoint.encode"),
        "ms",
    );
    outcome.layer(
        "fleet.checkpoint.crc_ms",
        median(&crc_ms).unwrap_or(f64::NAN),
        "ms",
    );
    outcome.layer("fleet.persist.write_ms", p50("fleet.persist.write"), "ms");
    outcome.layer(
        "fleet.checkpoint.read_ms",
        p50("fleet.checkpoint.read"),
        "ms",
    );
    outcome.layer(
        "fleet.checkpoint.decode_ms",
        p50("fleet.checkpoint.decode"),
        "ms",
    );
    #[allow(clippy::cast_precision_loss)]
    outcome.layer(
        "fleet.checkpoint.bytes_per_chip",
        frame.len() as f64 / f64::from(CHIPS),
        "B",
    );
    let untraced_ms: f64 = plain
        .cycles
        .iter()
        .map(|c| (c.save() + c.load()) * 1e3)
        .sum();
    outcome.layer(
        "fleet.checkpoint.stage_sum_ratio",
        checkpoint_stage_sum_ratio(&tracer, untraced_ms),
        "ratio",
    );
    let plain_s: f64 = plain.epochs_s.iter().sum();
    let traced_s: f64 = traced.epochs_s.iter().sum();
    outcome.layer(
        "fleet.trace_overhead_pct",
        (traced_s / plain_s.max(1e-9) - 1.0) * 100.0,
        "%",
    );
    outcome
}
