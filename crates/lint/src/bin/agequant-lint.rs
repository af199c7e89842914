//! `agequant-lint` — lint the shipped artifact zoo and, optionally,
//! fleet artifacts from disk.
//!
//! Runs every registered lint over every generator netlist, the aged
//! library sweep, per-level STA results, the flow's compression plans,
//! and a reference fleet run, then exits nonzero if any `deny`-level
//! finding remains. `--fleet-state` / `--fleet-journal` additionally
//! lint a checkpoint and journal produced by `agequant-fleet`;
//! `--memory-report` lints a weight-memory aging report produced by
//! `agequant-mem`; `--no-zoo` restricts the run to just those files.
//!
//! ```text
//! agequant-lint [--json] [--list] [--max-mv MV] [--step-mv MV]
//!               [--deny CODE] [--warn CODE] [--allow CODE]
//!               [--fleet-state FILE] [--fleet-journal FILE]
//!               [--memory-report FILE] [--no-zoo]
//! ```

use std::process::ExitCode;

use agequant_fleet::{journal, FleetState, JournalEvent};
use agequant_lint::{registry, Artifact, LintConfig, Linter, Zoo};
use agequant_mem::MemoryReport;
use agequant_serve::ServeConfig;

struct Options {
    json: bool,
    list: bool,
    max_mv: f64,
    step_mv: f64,
    no_zoo: bool,
    fleet_state: Option<String>,
    fleet_journal: Option<String>,
    serve_config: Option<String>,
    memory_report: Option<String>,
    config: LintConfig,
}

fn usage() -> String {
    let mut out = String::from(
        "usage: agequant-lint [--json] [--list] [--max-mv MV] [--step-mv MV]\n\
         \x20                    [--deny CODE] [--warn CODE] [--allow CODE]\n\
         \x20                    [--fleet-state FILE] [--fleet-journal FILE]\n\
         \x20                    [--serve-config FILE] [--memory-report FILE]\n\
         \x20                    [--no-zoo]\n\n\
         Lints the shipped artifact zoo (netlists, aged libraries, STA\n\
         results, compression plans, quant configs, a reference fleet\n\
         run). --fleet-state/--fleet-journal lint an agequant-fleet\n\
         checkpoint and its journal from disk; --serve-config lints a\n\
         saved agequant-serve config; --memory-report lints a weight-\n\
         memory aging report; --no-zoo checks only those.\n\
         Exits 1 when any deny-level finding remains, 2 on bad\n\
         arguments or unreadable files.\n\nlints:\n",
    );
    for lint in registry() {
        out.push_str(&format!(
            "  {} {:<32} [{}] {}\n",
            lint.code(),
            lint.slug(),
            lint.default_severity(),
            lint.description()
        ));
    }
    out
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        list: false,
        max_mv: 50.0,
        step_mv: 10.0,
        no_zoo: false,
        fleet_state: None,
        fleet_journal: None,
        serve_config: None,
        memory_report: None,
        config: LintConfig::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--json" => opts.json = true,
            "--list" => opts.list = true,
            "--no-zoo" => opts.no_zoo = true,
            "--max-mv" => {
                opts.max_mv = value("--max-mv")?
                    .parse()
                    .map_err(|e| format!("--max-mv: {e}"))?;
            }
            "--step-mv" => {
                opts.step_mv = value("--step-mv")?
                    .parse()
                    .map_err(|e| format!("--step-mv: {e}"))?;
            }
            "--fleet-state" => opts.fleet_state = Some(value("--fleet-state")?),
            "--fleet-journal" => opts.fleet_journal = Some(value("--fleet-journal")?),
            "--serve-config" => opts.serve_config = Some(value("--serve-config")?),
            "--memory-report" => opts.memory_report = Some(value("--memory-report")?),
            "--deny" => opts.config = opts.config.deny(&value("--deny")?),
            "--warn" => opts.config = opts.config.warn(&value("--warn")?),
            "--allow" => opts.config = opts.config.allow(&value("--allow")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(opts.max_mv >= 0.0 && opts.step_mv > 0.0) {
        return Err("--max-mv must be >= 0 and --step-mv > 0".to_string());
    }
    if opts.fleet_journal.is_some() && opts.fleet_state.is_none() {
        return Err("--fleet-journal needs --fleet-state (causality is checked against it)".into());
    }
    if opts.no_zoo
        && opts.fleet_state.is_none()
        && opts.serve_config.is_none()
        && opts.memory_report.is_none()
    {
        return Err(
            "--no-zoo leaves nothing to lint without --fleet-state, --serve-config, \
                    or --memory-report"
                .to_string(),
        );
    }
    Ok(opts)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Loads a fleet checkpoint: the binary `AGQFLEET` frame,
/// checksum-verified. A legacy JSON checkpoint is refused with a
/// pointer to `agequant-fleet migrate`.
fn read_fleet_state(path: &str) -> Result<FleetState, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    FleetState::load(&bytes).map_err(|e| format!("{path}: {e}"))
}

/// Fleet artifacts loaded from disk, owning what `Artifact` borrows.
struct FleetFiles {
    state_name: String,
    state: FleetState,
    journal: Option<(String, Vec<JournalEvent>)>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if msg.is_empty() {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("agequant-lint: {msg}");
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };
    if opts.list {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }

    let fleet: Option<FleetFiles> = match &opts.fleet_state {
        None => None,
        Some(state_path) => {
            let loaded = read_fleet_state(state_path).and_then(|state| {
                let journal = match &opts.fleet_journal {
                    None => None,
                    Some(journal_path) => Some((
                        journal_path.clone(),
                        read(journal_path).and_then(|text| {
                            journal::from_jsonl(&text).map_err(|e| format!("{journal_path}: {e}"))
                        })?,
                    )),
                };
                Ok(FleetFiles {
                    state_name: state_path.clone(),
                    state,
                    journal,
                })
            });
            match loaded {
                Ok(fleet) => Some(fleet),
                Err(msg) => {
                    eprintln!("agequant-lint: {msg}");
                    return ExitCode::from(2);
                }
            }
        }
    };

    let serve: Option<(String, ServeConfig)> = match &opts.serve_config {
        None => None,
        Some(path) => {
            let loaded = read(path)
                .and_then(|text| ServeConfig::from_json(&text).map_err(|e| format!("{path}: {e}")));
            match loaded {
                Ok(config) => Some((path.clone(), config)),
                Err(msg) => {
                    eprintln!("agequant-lint: {msg}");
                    return ExitCode::from(2);
                }
            }
        }
    };

    let memory: Option<(String, MemoryReport)> = match &opts.memory_report {
        None => None,
        Some(path) => {
            let loaded = read(path).and_then(|text| {
                MemoryReport::from_json(&text).map_err(|e| format!("{path}: {e}"))
            });
            match loaded {
                Ok(report) => Some((path.clone(), report)),
                Err(msg) => {
                    eprintln!("agequant-lint: {msg}");
                    return ExitCode::from(2);
                }
            }
        }
    };

    let zoo = (!opts.no_zoo).then(|| Zoo::build(opts.max_mv, opts.step_mv));
    let mut artifacts: Vec<Artifact<'_>> = zoo.as_ref().map(Zoo::artifacts).unwrap_or_default();
    if let Some((name, config)) = &serve {
        artifacts.push(Artifact::ServeConfig { name, config });
    }
    if let Some((name, report)) = &memory {
        artifacts.push(Artifact::MemoryReport { name, report });
    }
    if let Some(fleet) = &fleet {
        artifacts.push(Artifact::FleetCheckpoint {
            name: &fleet.state_name,
            state: &fleet.state,
        });
        if let Some((journal_name, events)) = &fleet.journal {
            artifacts.push(Artifact::FleetJournal {
                name: journal_name,
                state: &fleet.state,
                events,
            });
        }
    }

    let report = Linter::with_config(opts.config).run(&artifacts);
    if opts.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
