//! What produced a number: commit, machine shape, build and run
//! settings. Printed with every run record.

use std::process::Command;

use serde::Value;

use crate::report::obj;

/// Thread and shard counts the phases run with. `nproc` is 2 on
/// the reference box, so every count here stays at or below that.
pub const GENERATOR_THREADS: usize = 1;
/// Client connections of the serve-mix generator.
pub const CONNECTIONS: usize = 2;
/// Server worker threads (the bounded-queue pool).
pub const SERVER_WORKERS: u32 = 2;
/// Fleet shards of the fleet-lifetime simulator.
pub const FLEET_SHARDS: usize = 2;

/// Trimmed stdout of a command, if it ran and succeeded.
fn capture(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.parse().ok()
}

/// The provenance block of a run record.
#[must_use]
pub fn collect(workload: &str, seed: u64, seconds: u64, trace: bool) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Outside a git checkout (an exported source tree, say)
    // both stay null; inside one they pin the exact source.
    let commit = capture("git", &["rev-parse", "HEAD"]);
    let dirty = commit
        .as_ref()
        .and_then(|_| capture("git", &["status", "--porcelain", "--untracked-files=no"]))
        .map(|s| !s.is_empty());
    let rayon_threads = env_usize("RAYON_NUM_THREADS").map_or(nproc, |n| n.max(1));
    let loops = env_usize("AGEQUANT_SERVE_LOOPS")
        .filter(|n| (1..=64).contains(n))
        .unwrap_or(1);
    let opt = |v: Option<String>| v.map_or(Value::Null, Value::Str);
    obj(vec![
        ("workload", Value::Str(workload.to_string())),
        ("seed", Value::UInt(seed)),
        ("seconds", Value::UInt(seconds)),
        ("trace", Value::Bool(trace)),
        ("commit", opt(commit)),
        ("dirty", dirty.map_or(Value::Null, Value::Bool)),
        ("nproc", Value::UInt(nproc as u64)),
        ("generator_threads", Value::UInt(GENERATOR_THREADS as u64)),
        ("connections", Value::UInt(CONNECTIONS as u64)),
        ("serve_loops", Value::UInt(loops as u64)),
        ("serve_workers", Value::UInt(u64::from(SERVER_WORKERS))),
        ("fleet_shards", Value::UInt(FLEET_SHARDS as u64)),
        ("rayon_threads", Value::UInt(rayon_threads as u64)),
        (
            "build_profile",
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
        ("rustc", opt(capture("rustc", &["--version"]))),
    ])
}

/// Peak resident set size of this process, MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
