//! `agequant-fleet run`, `resume` and `autopilot` as files on disk: a
//! run split across commands writes the bytes one in-process
//! `FleetSim` would, a failed command leaves the pair it found, a
//! killed one leaves nothing the next resume keeps, and
//! `autopilot --resume` refuses the flags its checkpoint already fixes.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use agequant_fleet::{journal, AutopilotConfig, FleetConfig, FleetSim};
use agequant_mem::MemoryConfig;

/// An empty directory under the target's test scratch space.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `agequant-fleet ARGS --out DIR`.
fn fleet_command(args: &[&str], dir: &Path) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_agequant-fleet"));
    command.args(args).arg("--out").arg(dir);
    command
}

/// Runs `agequant-fleet ARGS --out DIR`.
fn fleet(args: &[&str], dir: &Path) -> Output {
    fleet_command(args, dir)
        .output()
        .expect("agequant-fleet runs")
}

/// Runs `agequant-fleet ARGS --out DIR` with files capped at `blocks`
/// 512-byte blocks, so a write past the cap fails instead of landing
/// (`SIGXFSZ` ignored: the write returns `EFBIG`).
fn fleet_capped(args: &[&str], dir: &Path, blocks: u64) -> Output {
    let mut command = Command::new("sh");
    command
        .arg("-c")
        .arg(format!(
            "trap '' XFSZ; ulimit -f {blocks}; exec \"$0\" \"$@\""
        ))
        .arg(env!("CARGO_BIN_EXE_agequant-fleet"))
        .args(args)
        .arg("--out")
        .arg(dir);
    command.output().expect("agequant-fleet runs")
}

/// The bytes of `DIR/state.bin` and `DIR/journal.jsonl`.
fn pair(dir: &Path) -> (Vec<u8>, Vec<u8>) {
    let read = |name| fs::read(dir.join(name)).expect("file written");
    (read("state.bin"), read("journal.jsonl"))
}

fn succeeds(args: &[&str], dir: &Path) {
    let out = fleet(args, dir);
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The CLI's defaults: 100 chips, seed 7.
fn cli_config() -> FleetConfig {
    FleetConfig::new(100, 7)
}

/// Asserts that `dir` holds the journal and checkpoint of `config` run
/// for `epochs` epochs in one process.
fn assert_matches_library(dir: &Path, config: FleetConfig, epochs: u64) {
    let mut sim = FleetSim::new(config).expect("valid config");
    sim.run(epochs).expect("simulates");
    let text = fs::read_to_string(dir.join("journal.jsonl")).expect("journal written");
    assert_eq!(text, journal::to_jsonl(&sim.journal()), "journal.jsonl");
    let frame = fs::read(dir.join("state.bin")).expect("checkpoint written");
    assert!(
        frame == sim.checkpoint_binary().expect("encodes"),
        "state.bin"
    );
}

/// Split across two commands and two shard counts, the CLI's journal
/// and checkpoint equal an unsplit in-process run's, byte for byte.
#[test]
fn cli_files_match_the_library_byte_for_byte() {
    let dir = scratch_dir("cli-split");
    succeeds(&["run", "--epochs", "8", "--shards", "1"], &dir);
    succeeds(&["resume", "--epochs", "12", "--shards", "3"], &dir);
    assert_matches_library(&dir, cli_config(), 20);

    let dir = scratch_dir("cli-autopilot-split");
    succeeds(&["autopilot", "--memory", "--epochs", "8"], &dir);
    succeeds(&["autopilot", "--resume", "--epochs", "12"], &dir);
    let mut config = cli_config();
    config.memory = Some(MemoryConfig::demo());
    config.autopilot = Some(AutopilotConfig::demo());
    assert_matches_library(&dir, config, 20);
}

/// A resumed fleet keeps its checkpoint's chips, seed and memory axis,
/// so `autopilot --resume` refuses each flag that would set them and
/// touches nothing on disk.
#[test]
fn autopilot_resume_refuses_the_flags_its_checkpoint_fixes() {
    let dir = scratch_dir("cli-resume-flags");
    succeeds(&["autopilot", "--chips", "40", "--epochs", "2"], &dir);
    let state = fs::read(dir.join("state.bin")).expect("checkpoint written");
    let journal = fs::read(dir.join("journal.jsonl")).expect("journal written");
    for flag in [&["--chips", "5000"][..], &["--seed", "99"], &["--memory"]] {
        let mut args = vec!["autopilot", "--resume", "--epochs", "2"];
        args.extend_from_slice(flag);
        let out = fleet(&args, &dir);
        assert_eq!(out.status.code(), Some(2), "{flag:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!(
                "{} cannot be used with autopilot --resume",
                flag[0]
            )),
            "{flag:?}: {stderr}"
        );
        assert!(
            fs::read(dir.join("state.bin")).unwrap() == state,
            "{flag:?}"
        );
        assert!(
            fs::read(dir.join("journal.jsonl")).unwrap() == journal,
            "{flag:?}"
        );
    }
}

/// `state.bin` commits a run: when it cannot be written, the command
/// fails and `journal.jsonl` holds no events past the checkpoint. A
/// command that fails partway, after appending some epochs, leaves
/// the earlier run's pair as it found it.
#[test]
fn a_run_that_cannot_commit_leaves_no_journal_events() {
    let dir = scratch_dir("cli-uncommitted");
    fs::create_dir(dir.join("state.bin")).expect("block the checkpoint path");
    let out = fleet(&["run", "--chips", "8", "--epochs", "3"], &dir);
    assert!(!out.status.success(), "the run cannot write state.bin");
    let text = fs::read_to_string(dir.join("journal.jsonl")).unwrap_or_default();
    assert!(text.is_empty(), "journal.jsonl kept {} bytes", text.len());

    let dir = scratch_dir("cli-uncommitted-over-a-pair");
    succeeds(&["run", "--epochs", "4"], &dir);
    let before = pair(&dir);
    let journal_blocks = before.1.len() as u64 / 512;
    // The new run's journal passes the cap a few epochs in.
    let out = fleet_capped(&["run", "--chips", "400"], &dir, 8);
    assert!(!out.status.success(), "the run outgrows the file cap");
    assert!(pair(&dir) == before, "the earlier pair changed");
    assert!(
        !dir.join("journal.jsonl.tmp").exists(),
        "staged journal left"
    );
    // A resume that fails partway keeps every byte it found.
    let out = fleet_capped(&["resume", "--epochs", "40"], &dir, journal_blocks + 2);
    assert!(!out.status.success(), "the resume outgrows the file cap");
    assert!(pair(&dir) == before, "the resumed pair changed");
}

/// A resume with no events to journal still commits, and leaves the
/// journal a checkpoint without one lacked.
#[test]
fn a_resume_without_a_journal_commits_and_creates_it() {
    let dir = scratch_dir("cli-no-journal");
    succeeds(&["run", "--chips", "8", "--epochs", "2"], &dir);
    fs::remove_file(dir.join("journal.jsonl")).expect("drop the journal");
    succeeds(&["resume", "--epochs", "0"], &dir);
    assert_eq!(pair(&dir).1, b"", "journal.jsonl");
}

/// A resume killed partway leaves events past its checkpoint, which
/// the next resume cuts away before it appends its own.
#[test]
fn a_resume_drops_what_a_killed_command_left_past_its_checkpoint() {
    let dir = scratch_dir("cli-killed");
    succeeds(&["run", "--chips", "500", "--epochs", "4"], &dir);
    let (state, journal) = pair(&dir);
    let mut child = fleet_command(&["resume", "--epochs", "1000000"], &dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("agequant-fleet starts");
    let deadline = Instant::now() + Duration::from_secs(120);
    while fs::metadata(dir.join("journal.jsonl")).map_or(0, |m| m.len()) <= journal.len() as u64 {
        assert!(child.try_wait().expect("polls").is_none(), "resume exited");
        assert!(Instant::now() < deadline, "resume appended nothing");
        thread::sleep(Duration::from_millis(2));
    }
    child.kill().expect("kills the resume");
    child.wait().expect("reaps the resume");
    assert!(pair(&dir).0 == state, "the killed resume committed");

    succeeds(&["resume", "--epochs", "6"], &dir);
    assert_matches_library(&dir, FleetConfig::new(500, 7), 10);
}
