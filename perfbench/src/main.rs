//! The benchmark command:
//!
//! ```text
//! perfbench --workload <early-life|late-life> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run spends a third of its seconds on each phase in turn —
//! `serve-mix`, `cold-decide`, `fleet-lifetime` — all drawing their
//! inputs from the workload's part of a chip's life, so every run
//! reports every metric.
//!
//! Progress goes to stderr. Standard output ends with a run record
//! (`{"perfbench_record": ...}`, provenance included) and, as the last
//! line, the result object: `correct`, `attempted`, `failed` and the
//! metrics — end-to-end ones with `--trace 0`, per-layer ones with
//! `--trace 1`.

use std::path::PathBuf;
use std::process::ExitCode;

use agequant_perfbench::provenance::{self, peak_rss_mb};
use agequant_perfbench::report::{metrics_value, obj, result_line, Outcome};
use agequant_perfbench::workloads::{cold_decide, fleet_lifetime, serve_mix, Params, Stage};
use serde::Value;

/// A phase: its name and how it runs.
type Phase = (&'static str, fn(&Params) -> Outcome);

/// The phases of every run, in order.
const PHASES: [Phase; 3] = [
    ("serve-mix", serve_mix::run),
    ("cold-decide", cold_decide::run),
    ("fleet-lifetime", fleet_lifetime::run),
];

struct Args {
    workload: String,
    stage: Stage,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let stage = Stage::named(&value).ok_or_else(|| {
                    let names: Vec<&str> = Stage::ALL.iter().map(|(n, _)| *n).collect();
                    format!("unknown workload {value:?}; options: {}", names.join(", "))
                })?;
                workload = Some((value, stage));
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let (workload, stage) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        stage,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Journals and checkpoints go under the working directory (the
    // checkout), never outside it, and are removed afterwards.
    let scratch = PathBuf::from(".perfbench_tmp").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    #[allow(clippy::cast_precision_loss)]
    let params = Params {
        seed: args.seed,
        stage: args.stage,
        seconds: args.seconds as f64 / PHASES.len() as f64,
        trace: args.trace,
        scratch: scratch.clone(),
    };
    eprintln!(
        "perfbench: {} seed {} for {}s{}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    let mut outcome = Outcome::default();
    for (phase, run) in PHASES {
        eprintln!("perfbench: phase {phase}");
        outcome.absorb_phase(phase, run(&params));
    }
    if args.trace {
        outcome.layer("error_rate", outcome.error_rate(), "ratio");
    } else {
        outcome.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".perfbench_tmp");

    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let finite: Vec<_> = metrics
        .iter()
        .filter(|m| m.value.is_finite())
        .cloned()
        .collect();
    let correct = outcome.failed == 0 && finite.len() == metrics.len() && !metrics.is_empty();
    for failure in &outcome.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    for metric in metrics {
        eprintln!(
            "perfbench: {:<36} {:>16.4} {}",
            metric.name, metric.value, metric.unit
        );
    }
    let record = obj(vec![(
        "perfbench_record",
        obj(vec![
            ("workload", Value::Str(args.workload.clone())),
            ("trace", Value::Bool(args.trace)),
            ("correct", Value::Bool(correct)),
            ("attempted", Value::UInt(outcome.attempted)),
            ("failed", Value::UInt(outcome.failed)),
            ("metrics", metrics_value(&finite)),
            (
                "failures",
                Value::Seq(outcome.failures.iter().cloned().map(Value::Str).collect()),
            ),
            ("details", Value::Map(outcome.details.clone())),
            (
                "provenance",
                provenance::collect(&args.workload, args.seed, args.seconds, args.trace),
            ),
        ]),
    )]);
    println!(
        "{}",
        serde_json::to_string(&record).expect("record values are finite")
    );
    println!(
        "{}",
        result_line(correct, outcome.attempted.max(1), outcome.failed, &finite)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
