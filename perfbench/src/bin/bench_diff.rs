//! `bench_diff`: compares two sets of benchmark runs.
//!
//! ```text
//! bench_diff [--spec BENCHMARK.json] <parent runs> <change runs>
//! ```
//!
//! Each side is a file or a directory of files holding captured
//! benchmark standard output; every `perfbench_record` line in them is
//! one run. For each workload × end-to-end metric it prints both
//! sides' median and quartiles, the pairs the change won, the verdict
//! under the metric's bound from the spec, and each side's failure
//! share. Exits 1 when any metric regressed.

use std::path::Path;
use std::process::ExitCode;

use agequant_perfbench::diff::{compare, parse_runs, parse_spec, Run, Verdict};

fn load_runs(path: &Path) -> Result<Vec<Run>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries {
            files.push(entry.map_err(|e| e.to_string())?.path());
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut runs = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        runs.extend(parse_runs(&text));
    }
    Ok(runs)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut spec_path = "BENCHMARK.json".to_string();
    if args.first().is_some_and(|a| a == "--spec") && args.len() >= 2 {
        spec_path = args.remove(1);
        args.remove(0);
    }
    let [parent, change] = args.as_slice() else {
        eprintln!("usage: bench_diff [--spec BENCHMARK.json] <parent runs> <change runs>");
        return ExitCode::from(2);
    };
    let loaded = std::fs::read_to_string(&spec_path)
        .map_err(|e| format!("{spec_path}: {e}"))
        .and_then(|text| parse_spec(&text))
        .and_then(|specs| {
            Ok((
                specs,
                load_runs(Path::new(parent))?,
                load_runs(Path::new(change))?,
            ))
        });
    let (specs, parent, change) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = compare(&specs, &parent, &change);
    println!(
        "{:<15} {:<18} {:>30} {:>30} {:>6} {:<10} {:>9} {:>9}",
        "workload",
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "won",
        "verdict",
        "p.fail",
        "c.fail"
    );
    for row in &rows {
        let fmt = |s: &agequant_perfbench::diff::Side| {
            format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3)
        };
        println!(
            "{:<15} {:<18} {:>30} {:>30} {:>6} {:<10} {:>9.5} {:>9.5}",
            row.workload,
            row.metric,
            fmt(&row.parent),
            fmt(&row.change),
            format!("{}/{}", row.won, row.pairs),
            row.verdict.label(),
            row.parent.failure_share,
            row.change.failure_share,
        );
    }
    if rows.iter().any(|r| r.verdict == Verdict::Regressed) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
