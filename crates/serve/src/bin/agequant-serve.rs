//! The `agequant-serve` CLI: run the compression-decision server.
//!
//! ```text
//! agequant-serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!                [--max-mv MV] [--journal FILE] [--checkpoint FILE]
//!                [--write-config FILE] [--deadline-ms MS]
//!                [--keep-alive-secs S] [--fleet-chips N]
//!                [--fleet-seed SEED] [--model nbti|hci|surrogate]
//!                [--memory] [--debug-delay-ms MS]
//! ```
//!
//! The process prints `listening on ADDR` once ready, then blocks
//! until `POST /v1/shutdown` drains it. `--write-config` saves the
//! effective [`ServeConfig`] artifact (what lint SV001 checks);
//! `--checkpoint` saves the hosted fleet's final state at drain, as a
//! binary checkpoint frame whatever the file's extension, so
//! `agequant-lint --fleet-state ... --fleet-journal ...` can verify
//! the journal the server wrote.

use std::process::ExitCode;

use agequant_aging::ModelSpec;
use agequant_fleet::FleetConfig;
use agequant_serve::{start, write_checkpoint, ServeConfig};

fn usage() -> &'static str {
    "usage: agequant-serve [--addr HOST:PORT] [--workers N] [--queue-depth N]\n\
     \x20                    [--max-mv MV] [--journal FILE] [--checkpoint FILE]\n\
     \x20                    [--write-config FILE] [--deadline-ms MS]\n\
     \x20                    [--keep-alive-secs S] [--fleet-chips N]\n\
     \x20                    [--fleet-seed SEED] [--model nbti|hci|surrogate]\n\
     \x20                    [--memory] [--debug-delay-ms MS]"
}

struct Options {
    config: ServeConfig,
    checkpoint: Option<String>,
    write_config: Option<String>,
    model: Option<ModelSpec>,
    memory: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        config: ServeConfig::default(),
        checkpoint: None,
        write_config: None,
        model: None,
        memory: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(usage().to_string());
        }
        if flag == "--memory" {
            options.memory = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let parse = |what: &str| format!("{flag}: {what:?} does not parse\n{}", usage());
        match flag.as_str() {
            "--addr" => options.config.addr.clone_from(value),
            "--workers" => options.config.workers = value.parse().map_err(|_| parse(value))?,
            "--queue-depth" => {
                options.config.queue_depth = value.parse().map_err(|_| parse(value))?;
            }
            "--max-mv" => options.config.max_mv = value.parse().map_err(|_| parse(value))?,
            "--journal" => options.config.journal = Some(value.clone()),
            "--checkpoint" => options.checkpoint = Some(value.clone()),
            "--write-config" => options.write_config = Some(value.clone()),
            "--deadline-ms" => {
                options.config.deadline_ms = value.parse().map_err(|_| parse(value))?;
            }
            "--keep-alive-secs" => {
                options.config.keep_alive_secs = value.parse().map_err(|_| parse(value))?;
            }
            "--fleet-chips" => {
                options.config.fleet_chips = value.parse().map_err(|_| parse(value))?;
            }
            "--fleet-seed" => {
                options.config.fleet_seed = value.parse().map_err(|_| parse(value))?;
            }
            "--model" => {
                options.model = Some(ModelSpec::by_name(value).ok_or_else(|| {
                    format!(
                        "unknown model {value:?}; options: {}\n{}",
                        ModelSpec::NAMES.join(", "),
                        usage()
                    )
                })?);
            }
            "--debug-delay-ms" => {
                options.config.debug_delay_ms = value.parse().map_err(|_| parse(value))?;
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(options)
}

fn run(args: &[String]) -> Result<(), String> {
    let options = parse_args(args)?;
    options.config.validate().map_err(|e| e.to_string())?;
    if let Some(path) = &options.write_config {
        agequant_fleet::persist::atomic_write(
            std::path::Path::new(path),
            options.config.to_json().as_bytes(),
        )
        .map_err(|e| format!("{path}: {e}"))?;
    }
    let mut fleet_config = FleetConfig::new(options.config.fleet_chips, options.config.fleet_seed);
    fleet_config.flow.model = options.model;
    if options.memory {
        fleet_config.memory = Some(agequant_mem::MemoryConfig::demo());
    }
    let mut handle = start(options.config, fleet_config).map_err(|e| e.to_string())?;
    println!("listening on {}", handle.addr());
    handle.join();
    if let Some(path) = &options.checkpoint {
        write_checkpoint(&handle, path).map_err(|e| e.to_string())?;
        println!("checkpoint written to {path}");
    }
    println!("drained");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
