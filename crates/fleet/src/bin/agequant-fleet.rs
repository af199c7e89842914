//! `agequant-fleet` — simulate a fleet of aging NPUs and serve each
//! chip its compression/quantization decision.
//!
//! Run `agequant-fleet --help` for every subcommand's flags.
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
//! checkpoint and continues. The checkpoint fixes the resumed fleet,
//! so `--resume` refuses `--chips`, `--seed` and `--memory`. `report`
//! re-renders the summary from the checkpoint alone. `migrate`
//! converts a legacy `state.json` checkpoint (any supported format
//! version) into `state.bin` in place; it is the only reader of the
//! JSON form, and it refuses to run when `state.bin` already exists.
//!
//! `run`, `resume` and `autopilot` share one run path. It appends each
//! epoch's events to the journal and clears them, so memory grows with
//! one epoch of events. Writing `state.bin` commits the run, after one
//! sync of the journal so the commit never reaches the disk ahead of
//! the events it covers: a new fleet's `journal.jsonl.tmp` is renamed
//! over `journal.jsonl` just after it, a failure before it leaves the
//! old pair as it was, and a resume first cuts `journal.jsonl` back to
//! the checkpoint's epoch, dropping what a killed command left past it.

use std::error::Error;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use agequant_aging::{ModelSpec, TechProfile};
use agequant_fleet::{
    journal, persist, AutopilotConfig, FleetConfig, FleetError, FleetSim, FleetState, FleetSummary,
};
use agequant_mem::MemoryConfig;
use agequant_nn::NetArch;

type Failure = Box<dyn Error>;

/// One subcommand: its name, the flags it accepts (space-separated),
/// and its body.
type Command = (&'static str, &'static str, fn(Opts) -> Result<(), Failure>);

const COMMANDS: &[Command] = &[
    (
        "run",
        "--out --chips --epochs --seed --epoch-years --bucket-mv --constraint-factor \
         --network --model --memory --shards --json",
        |opts| drive(opts, false),
    ),
    ("resume", "--out --epochs --shards --json", cmd_resume),
    (
        "autopilot",
        "--out --chips --epochs --seed --budget --burst --memory --shards --resume \
         --json",
        cmd_autopilot,
    ),
    ("report", "--out --json", cmd_report),
    ("migrate", "--out", cmd_migrate),
];

/// The flags that shape a new fleet; a resumed checkpoint fixes them.
const NEW_FLEET_FLAGS: &[&str] = &["--chips", "--seed", "--memory"];

/// Every option of every subcommand, at its default.
struct Opts {
    out: PathBuf,
    json: bool,
    epochs: Option<u64>,
    shards: Option<usize>,
    resume: bool,
    config: FleetConfig,
    autopilot: AutopilotConfig,
    /// The flags given, in command-line order.
    given: Vec<&'static str>,
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
     \x20            [--burst N] [--memory] [--shards N] [--json]\n\
     autopilot --resume --out DIR [--epochs E] [--budget N] [--burst N]\n\
     \x20            [--shards N] [--json]\n\
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
     format vintage) and continues from there, refusing --chips,\n\
     --seed and --memory (the checkpoint fixes them). run, resume and\n\
     autopilot append each epoch's events to the journal as they go.\n\
     Writing state.bin commits a command: one that fails before it\n\
     leaves journal.jsonl as it found it, and a resume first drops the\n\
     events a killed command left past the checkpoint. migrate\n\
     rewrites a legacy state.json checkpoint as the binary state.bin\n\
     format (refusing when state.bin already exists); every other\n\
     command reads state.bin only.\n"
}

/// Parses `args` into [`Opts`], refusing any flag not in `accepted`.
fn parse(args: &[String], accepted: &'static str) -> Result<Opts, Failure> {
    let mut opts = Opts {
        out: PathBuf::from("results/fleet"),
        json: false,
        epochs: None,
        shards: None,
        resume: false,
        config: FleetConfig::new(100, 7),
        autopilot: AutopilotConfig::demo(),
        given: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = accepted
            .split_whitespace()
            .find(|&flag| flag == arg.as_str())
            .ok_or_else(|| format!("unknown argument {arg:?}"))?;
        opts.given.push(flag);
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag {
            "--out" => opts.out = PathBuf::from(value()?),
            "--json" => opts.json = true,
            "--chips" => opts.config.chips = number(flag, value()?)?,
            "--epochs" => opts.epochs = Some(number(flag, value()?)?),
            "--seed" => opts.config.seed = number(flag, value()?)?,
            "--epoch-years" => opts.config.epoch_years = number(flag, value()?)?,
            "--bucket-mv" => opts.config.bucket_mv = number(flag, value()?)?,
            "--constraint-factor" => opts.config.constraint_factor = number(flag, value()?)?,
            "--network" => opts.config.network = parse_network(value()?)?,
            "--model" => opts.config.flow.model = Some(parse_model(value()?)?),
            "--memory" => opts.config.memory = Some(MemoryConfig::demo()),
            "--shards" => {
                let shards = number(flag, value()?)?;
                if shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
                opts.shards = Some(shards);
            }
            "--budget" => opts.autopilot.budget_messages_per_epoch = number(flag, value()?)?,
            "--burst" => opts.autopilot.budget_burst = number(flag, value()?)?,
            "--resume" => opts.resume = true,
            _ => unreachable!("{flag} is accepted but has no handler"),
        }
    }
    Ok(opts)
}

fn number<T: FromStr>(flag: &str, text: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse().map_err(|e| format!("{flag}: {e}"))
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

fn cmd_resume(mut opts: Opts) -> Result<(), Failure> {
    if opts.epochs.is_none() {
        return Err("resume requires --epochs".into());
    }
    opts.resume = true;
    drive(opts, false)
}

fn cmd_autopilot(opts: Opts) -> Result<(), Failure> {
    let fixed = opts.given.iter().find(|f| NEW_FLEET_FLAGS.contains(f));
    if let (true, Some(flag)) = (opts.resume, fixed) {
        return Err(format!(
            "{flag} cannot be used with autopilot --resume: the checkpoint fixes the \
             fleet's chips, seed and memory axis"
        )
        .into());
    }
    drive(opts, true)
}

/// The one run path of `run`, `resume` and `autopilot`: builds a new
/// fleet or resumes `DIR/state.bin`, arms the autopilot when `armed`,
/// steps `--epochs` epochs (default 20) with a journal flush after
/// each, and commits with the checkpoint. A failure before the commit
/// leaves the old `state.bin` and `journal.jsonl` as it found them.
fn drive(opts: Opts, armed: bool) -> Result<(), Failure> {
    let mut sim = if opts.resume {
        let state = read_state(&opts.out)?;
        let mut sim = match opts.shards {
            Some(n) => FleetSim::resume_sharded(state, n),
            None => FleetSim::resume(state),
        }?;
        if armed {
            // Arming upgrades any checkpoint vintage: the budget ledger
            // and per-chip pilot state are created fresh where missing,
            // and the next save writes the format-4 frame.
            sim.arm_autopilot(opts.autopilot)?;
        }
        sim
    } else {
        let mut config = opts.config;
        config.autopilot = armed.then_some(opts.autopilot);
        match opts.shards {
            Some(n) => FleetSim::new_sharded(config, n),
            None => FleetSim::new(config),
        }?
    };
    let io = |path: &Path, e: std::io::Error| FleetError::Io(format!("{}: {e}", path.display()));
    fs::create_dir_all(&opts.out).map_err(|e| io(&opts.out, e))?;
    let journal = opts.out.join("journal.jsonl");
    // A resume cuts its journal back to the checkpoint; a new fleet
    // stages its own beside the old pair until the commit.
    let (target, start) = if opts.resume {
        let start = journal::truncate_after(&journal, sim.epoch())?;
        (journal.clone(), start)
    } else {
        let staged = opts.out.join("journal.jsonl.tmp");
        fs::File::create(&staged).map_err(|e| io(&staged, e))?;
        (staged, 0)
    };
    // Renaming a resumed journal onto itself is a no-op.
    let committed = advance(&mut sim, opts.epochs.unwrap_or(20), &target, &opts.out)
        .and_then(|()| fs::rename(&target, &journal).map_err(|e| io(&journal, e)));
    if let Err(e) = committed {
        // Best effort: the run's own error is the one to report.
        if opts.resume {
            fs::OpenOptions::new()
                .write(true)
                .open(&target)
                .and_then(|f| f.set_len(start))
        } else {
            fs::remove_file(&target)
        }
        .ok();
        return Err(e.into());
    }
    let summary = sim.summary();
    persist::atomic_write(&opts.out.join("summary.json"), summary.to_json().as_bytes())?;
    print_summary(&summary, opts.json);
    Ok(())
}

/// Steps `epochs` epochs, appending the journal to `journal` and
/// clearing it before the first and after each one, syncs the journal
/// once, then writes `DIR/state.bin`: the run's commit point.
fn advance(sim: &mut FleetSim, epochs: u64, journal: &Path, dir: &Path) -> Result<(), FleetError> {
    sim.flush_journal(Some(journal))?;
    for _ in 0..epochs {
        sim.step()?;
        sim.flush_journal(Some(journal))?;
    }
    fs::OpenOptions::new()
        .append(true)
        .open(journal)
        .and_then(|file| file.sync_all())
        .map_err(|e| FleetError::Io(format!("{}: {e}", journal.display())))?;
    // Shard-direct encode: no intermediate Vec<Chip> of the fleet.
    persist::atomic_write(&dir.join("state.bin"), &sim.checkpoint_binary()?)
}

fn print_summary(summary: &FleetSummary, json: bool) {
    if json {
        println!("{}", summary.to_json());
    } else {
        print!("{}", summary.render_text());
    }
}

fn cmd_report(opts: Opts) -> Result<(), Failure> {
    let state = read_state(&opts.out)?;
    print_summary(&FleetSummary::from_state(&state, None), opts.json);
    Ok(())
}

fn cmd_migrate(opts: Opts) -> Result<(), Failure> {
    let legacy = opts.out.join("state.json");
    let binary = opts.out.join("state.bin");
    if !legacy.exists() {
        if binary.exists() {
            println!("{}: already binary, nothing to migrate", binary.display());
            return Ok(());
        }
        return Err(format!("{}: no checkpoint to migrate", legacy.display()).into());
    }
    if binary.exists() {
        // The binary checkpoint is the one every other subcommand
        // advances; an older JSON file must not replace it.
        return Err(format!(
            "{} already exists next to {}; refusing to overwrite it (move one of them away)",
            binary.display(),
            legacy.display()
        )
        .into());
    }
    let text = fs::read_to_string(&legacy).map_err(|e| format!("{}: {e}", legacy.display()))?;
    // from_json upgrades old checkpoint format versions on load, so
    // one migrate pass handles every JSON vintage we ever wrote.
    let state = FleetState::from_json(&text)?;
    let frame = state.to_binary()?;
    persist::atomic_write(&binary, &frame)?;
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
        Some("--help" | "-h") | None => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Some(name) => match COMMANDS.iter().find(|(command, ..)| *command == name) {
            Some((_, accepted, command)) => parse(&args[1..], accepted).and_then(command),
            None => Err(format!("unknown subcommand {name:?}").into()),
        },
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
