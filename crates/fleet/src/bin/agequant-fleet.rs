//! `agequant-fleet` — simulate a fleet of aging NPUs and serve each
//! chip its compression/quantization decision.
//!
//! ```text
//! agequant-fleet run     --out DIR [--chips N] [--epochs E] [--seed S]
//!                        [--epoch-years Y] [--bucket-mv MV]
//!                        [--constraint-factor F] [--network NAME|none]
//!                        [--model nbti|hci|surrogate[:CURVE.json]]
//!                        [--memory] [--shards N] [--json]
//! agequant-fleet resume  --out DIR --epochs E [--shards N] [--json]
//! agequant-fleet autopilot --out DIR [--chips N] [--epochs E] [--seed S]
//!                        [--budget N] [--burst N] [--memory] [--shards N]
//!                        [--resume] [--json]
//! agequant-fleet report  --out DIR [--json]
//! agequant-fleet migrate --out DIR
//! ```
//!
//! `run` creates `DIR/state.bin` (binary checkpoint: versioned,
//! length-prefixed, CRC-checked frame), `DIR/journal.jsonl` (event
//! journal), and `DIR/summary.json`, then prints the summary. All
//! checkpoint and summary writes are atomic (temp file + rename), so
//! a crash mid-write never destroys the previous good checkpoint.
//! `resume` restores the checkpoint, advances further epochs, appends
//! to the journal, and rewrites checkpoint + summary — bit-identical
//! to having run the whole span in one process, at any `--shards`
//! count. `autopilot` runs the closed-loop controller: chips are
//! sampled on regime-dependent cadences under a fleet telemetry
//! budget instead of being polled every epoch; with `--resume` it
//! arms the controller on an existing (even pre-autopilot)
//! checkpoint and continues. `report` re-renders the summary from
//! the checkpoint alone. `migrate` converts a legacy `state.json`
//! checkpoint (any supported format version) into `state.bin` in
//! place; it is the only reader of the JSON form, and it refuses to
//! run when `state.bin` already exists.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use agequant_aging::{ModelSpec, TechProfile};
use agequant_fleet::{
    journal, persist, AutopilotConfig, FleetConfig, FleetError, FleetSim, FleetState,
};
use agequant_nn::NetArch;

struct CommonOpts {
    out: PathBuf,
    json: bool,
}

fn usage() -> &'static str {
    "usage: agequant-fleet <run|resume|autopilot|report|migrate> --out DIR [options]\n\
     \n\
     run     --out DIR [--chips N] [--epochs E] [--seed S] [--epoch-years Y]\n\
     \x20            [--bucket-mv MV] [--constraint-factor F] [--network NAME|none]\n\
     \x20            [--model nbti|hci|surrogate[:CURVE.json]] [--memory]\n\
     \x20            [--shards N] [--json]\n\
     resume  --out DIR --epochs E [--shards N] [--json]\n\
     autopilot --out DIR [--chips N] [--epochs E] [--seed S] [--budget N]\n\
     \x20            [--burst N] [--memory] [--shards N] [--resume] [--json]\n\
     report  --out DIR [--json]\n\
     migrate --out DIR\n\
     \n\
     Simulates a fleet of aging NPU chips (process-variation jitter +\n\
     mission-profile catalog) and serves per-chip compression plans\n\
     through the shared evaluation engine. Networks: the model-zoo\n\
     names (e.g. alexnet, resnet50), or 'none' to skip per-bucket\n\
     quantization-method selection. Degradation models: nbti (default,\n\
     the paper's power law), hci, or surrogate — bare 'surrogate' uses\n\
     the shipped demo curve, 'surrogate:CURVE.json' loads a JSON\n\
     [[years, volts], ...] table. --shards picks the worker-thread\n\
     count (default: available parallelism); results are bit-identical\n\
     at every shard count. --memory enables the weight-memory aging\n\
     axis (demo SRAM cell calibration): chips accrue NBTI duty stress,\n\
     the decider schedules re-encodes, and the summary gains a memory\n\
     rollup. autopilot runs the regime-switching closed loop: chips\n\
     are sampled on Calm/Watch/Intervene cadences under a telemetry\n\
     budget of --budget messages/epoch (burst capacity --burst); with\n\
     --resume it arms the controller on the existing checkpoint (any\n\
     format vintage) and continues from there. migrate rewrites a\n\
     legacy state.json checkpoint as the binary state.bin format\n\
     (refusing when state.bin already exists); every other command\n\
     reads state.bin only.\n"
}

fn parse_network(name: &str) -> Result<Option<NetArch>, String> {
    if name.eq_ignore_ascii_case("none") {
        return Ok(None);
    }
    let normalized: String = name
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_lowercase();
    NetArch::ALL
        .iter()
        .find(|arch| {
            arch.name()
                .chars()
                .filter(|c| c.is_ascii_alphanumeric())
                .collect::<String>()
                .to_lowercase()
                == normalized
        })
        .copied()
        .map(Some)
        .ok_or_else(|| {
            let names: Vec<&str> = NetArch::ALL.iter().map(|a| a.name()).collect();
            format!(
                "unknown network {name:?}; options: {} or none",
                names.join(", ")
            )
        })
}

fn parse_model(spec: &str) -> Result<ModelSpec, String> {
    if let Some(path) = spec.strip_prefix("surrogate:") {
        let text =
            fs::read_to_string(path).map_err(|e| format!("--model surrogate curve {path}: {e}"))?;
        let points: Vec<(f64, f64)> = serde_json::from_str(&text)
            .map_err(|e| format!("--model surrogate curve {path}: {e}"))?;
        return ModelSpec::surrogate(TechProfile::INTEL14NM, points)
            .map_err(|e| format!("--model surrogate curve {path}: {e}"));
    }
    ModelSpec::by_name(spec).ok_or_else(|| {
        format!(
            "unknown model {spec:?}; options: {} (or surrogate:CURVE.json)",
            ModelSpec::NAMES.join(", ")
        )
    })
}

fn append_file(path: &Path, contents: &str) -> Result<(), FleetError> {
    use std::io::Write;
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| FleetError::Io(format!("{}: {e}", path.display())))?;
    file.write_all(contents.as_bytes())
        .map_err(|e| FleetError::Io(format!("{}: {e}", path.display())))
}

/// Loads `DIR/state.bin` through [`FleetState::load`], which checks
/// the frame's checksum. A directory holding only a legacy
/// `state.json` is refused with a pointer to `agequant-fleet migrate`.
fn read_state(dir: &Path) -> Result<FleetState, FleetError> {
    let path = dir.join("state.bin");
    let legacy = dir.join("state.json");
    if !path.exists() && legacy.exists() {
        return Err(FleetError::Malformed(format!(
            "{} is a legacy JSON checkpoint and {} is missing; convert it with \
             `agequant-fleet migrate --out {}`",
            legacy.display(),
            path.display(),
            dir.display()
        )));
    }
    let bytes = fs::read(&path).map_err(|e| FleetError::Io(format!("{}: {e}", path.display())))?;
    FleetState::load(&bytes).map_err(|e| match e {
        FleetError::Corrupt(kind) => {
            FleetError::Io(format!("{}: corrupt checkpoint: {kind}", path.display()))
        }
        other => other,
    })
}

fn finish(sim: &FleetSim, common: &CommonOpts, append_journal: bool) -> Result<(), FleetError> {
    fs::create_dir_all(&common.out)
        .map_err(|e| FleetError::Io(format!("{}: {e}", common.out.display())))?;
    let journal_text = journal::to_jsonl(&sim.journal());
    let journal_path = common.out.join("journal.jsonl");
    if append_journal {
        append_file(&journal_path, &journal_text)?;
    } else {
        persist::atomic_write(&journal_path, journal_text.as_bytes())?;
    }
    // Shard-direct encode: no intermediate Vec<Chip> of the fleet.
    persist::atomic_write(&common.out.join("state.bin"), &sim.checkpoint_binary()?)?;
    let summary = sim.summary();
    persist::atomic_write(
        &common.out.join("summary.json"),
        summary.to_json().as_bytes(),
    )?;
    if common.json {
        println!("{}", summary.to_json());
    } else {
        print!("{}", summary.render_text());
    }
    Ok(())
}

fn parse_shards(text: &str) -> Result<usize, String> {
    let shards: usize = text.parse().map_err(|e| format!("--shards: {e}"))?;
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    Ok(shards)
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let mut config = FleetConfig::new(100, 7);
    let mut epochs: u64 = 20;
    let mut shards: Option<usize> = None;
    let mut common = CommonOpts {
        out: PathBuf::from("results/fleet"),
        json: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--chips" => {
                config.chips = value("--chips")?
                    .parse()
                    .map_err(|e| format!("--chips: {e}"))?
            }
            "--epochs" => {
                epochs = value("--epochs")?
                    .parse()
                    .map_err(|e| format!("--epochs: {e}"))?
            }
            "--seed" => {
                config.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--epoch-years" => {
                config.epoch_years = value("--epoch-years")?
                    .parse()
                    .map_err(|e| format!("--epoch-years: {e}"))?;
            }
            "--bucket-mv" => {
                config.bucket_mv = value("--bucket-mv")?
                    .parse()
                    .map_err(|e| format!("--bucket-mv: {e}"))?;
            }
            "--constraint-factor" => {
                config.constraint_factor = value("--constraint-factor")?
                    .parse()
                    .map_err(|e| format!("--constraint-factor: {e}"))?;
            }
            "--network" => config.network = parse_network(&value("--network")?)?,
            "--model" => config.flow.model = Some(parse_model(&value("--model")?)?),
            "--memory" => config.memory = Some(agequant_mem::MemoryConfig::demo()),
            "--shards" => shards = Some(parse_shards(&value("--shards")?)?),
            "--out" => common.out = PathBuf::from(value("--out")?),
            "--json" => common.json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let mut sim = match shards {
        Some(n) => FleetSim::new_sharded(config, n),
        None => FleetSim::new(config),
    }
    .map_err(|e| e.to_string())?;
    sim.run(epochs).map_err(|e| e.to_string())?;
    finish(&sim, &common, false).map_err(|e| e.to_string())
}

fn cmd_resume(args: &[String]) -> Result<(), String> {
    let mut epochs: Option<u64> = None;
    let mut shards: Option<usize> = None;
    let mut common = CommonOpts {
        out: PathBuf::from("results/fleet"),
        json: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--epochs" => {
                epochs = Some(
                    value("--epochs")?
                        .parse()
                        .map_err(|e| format!("--epochs: {e}"))?,
                );
            }
            "--shards" => shards = Some(parse_shards(&value("--shards")?)?),
            "--out" => common.out = PathBuf::from(value("--out")?),
            "--json" => common.json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let epochs = epochs.ok_or("resume requires --epochs")?;
    let state = read_state(&common.out).map_err(|e| e.to_string())?;
    let mut sim = match shards {
        Some(n) => FleetSim::resume_sharded(state, n),
        None => FleetSim::resume(state),
    }
    .map_err(|e| e.to_string())?;
    sim.run(epochs).map_err(|e| e.to_string())?;
    finish(&sim, &common, true).map_err(|e| e.to_string())
}

fn cmd_autopilot(args: &[String]) -> Result<(), String> {
    let mut config = FleetConfig::new(100, 7);
    let mut autopilot = AutopilotConfig::demo();
    let mut epochs: u64 = 20;
    let mut shards: Option<usize> = None;
    let mut resume = false;
    let mut common = CommonOpts {
        out: PathBuf::from("results/fleet"),
        json: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--chips" => {
                config.chips = value("--chips")?
                    .parse()
                    .map_err(|e| format!("--chips: {e}"))?
            }
            "--epochs" => {
                epochs = value("--epochs")?
                    .parse()
                    .map_err(|e| format!("--epochs: {e}"))?
            }
            "--seed" => {
                config.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--budget" => {
                autopilot.budget_messages_per_epoch = value("--budget")?
                    .parse()
                    .map_err(|e| format!("--budget: {e}"))?;
            }
            "--burst" => {
                autopilot.budget_burst = value("--burst")?
                    .parse()
                    .map_err(|e| format!("--burst: {e}"))?;
            }
            "--memory" => config.memory = Some(agequant_mem::MemoryConfig::demo()),
            "--shards" => shards = Some(parse_shards(&value("--shards")?)?),
            "--resume" => resume = true,
            "--out" => common.out = PathBuf::from(value("--out")?),
            "--json" => common.json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let mut sim = if resume {
        let state = read_state(&common.out).map_err(|e| e.to_string())?;
        let mut sim = match shards {
            Some(n) => FleetSim::resume_sharded(state, n),
            None => FleetSim::resume(state),
        }
        .map_err(|e| e.to_string())?;
        // Arming upgrades any checkpoint vintage: the budget ledger
        // and per-chip pilot state are created fresh where missing,
        // and the next save writes the format-4 frame.
        sim.arm_autopilot(autopilot).map_err(|e| e.to_string())?;
        sim
    } else {
        config.autopilot = Some(autopilot);
        match shards {
            Some(n) => FleetSim::new_sharded(config, n),
            None => FleetSim::new(config),
        }
        .map_err(|e| e.to_string())?
    };
    sim.run(epochs).map_err(|e| e.to_string())?;
    finish(&sim, &common, resume).map_err(|e| e.to_string())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let mut common = CommonOpts {
        out: PathBuf::from("results/fleet"),
        json: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--out" => common.out = PathBuf::from(value("--out")?),
            "--json" => common.json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let state = read_state(&common.out).map_err(|e| e.to_string())?;
    let summary = agequant_fleet::FleetSummary::from_state(&state, None);
    if common.json {
        println!("{}", summary.to_json());
    } else {
        print!("{}", summary.render_text());
    }
    Ok(())
}

fn cmd_migrate(args: &[String]) -> Result<(), String> {
    let mut out = PathBuf::from("results/fleet");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--out" => out = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let legacy = out.join("state.json");
    let binary = out.join("state.bin");
    if !legacy.exists() {
        if binary.exists() {
            println!("{}: already binary, nothing to migrate", binary.display());
            return Ok(());
        }
        return Err(format!("{}: no checkpoint to migrate", legacy.display()));
    }
    if binary.exists() {
        // The binary checkpoint is the one every other subcommand
        // advances; an older JSON file must not replace it.
        return Err(format!(
            "{} already exists next to {}; refusing to overwrite it (move one of them away)",
            binary.display(),
            legacy.display()
        ));
    }
    let text = fs::read_to_string(&legacy).map_err(|e| format!("{}: {e}", legacy.display()))?;
    // from_json upgrades old checkpoint format versions on load, so
    // one migrate pass handles every JSON vintage we ever wrote.
    let state = FleetState::from_json(&text).map_err(|e| e.to_string())?;
    let frame = state.to_binary().map_err(|e| e.to_string())?;
    persist::atomic_write(&binary, &frame).map_err(|e| e.to_string())?;
    fs::remove_file(&legacy).map_err(|e| format!("{}: {e}", legacy.display()))?;
    println!(
        "migrated {} -> {} ({} chips @ epoch {}, {} bytes)",
        legacy.display(),
        binary.display(),
        state.chips.len(),
        state.epoch,
        frame.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("resume") => cmd_resume(&args[1..]),
        Some("autopilot") => cmd_autopilot(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("migrate") => cmd_migrate(&args[1..]),
        Some("--help" | "-h") | None => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("agequant-fleet: {msg}");
            eprint!("{}", usage());
            ExitCode::from(2)
        }
    }
}
