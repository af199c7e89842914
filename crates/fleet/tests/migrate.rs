//! `agequant-fleet migrate`, the one reader of legacy JSON checkpoints:
//! it converts `state.json` of every format vintage into the binary
//! `state.bin`, it never replaces a binary checkpoint that is already
//! there, and every other subcommand points a lone `state.json` at it.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use agequant_fleet::{FleetState, MAGIC};

const V2_JSON: &str = include_str!("fixtures/checkpoint-v2.json");
const PRE_MEM_FRAME: &[u8] = include_bytes!("fixtures/pre-mem-state.bin");

/// Every committed JSON checkpoint, with the frame version it migrates
/// to and, where one is committed, the frame of the same run: format 1
/// is upgraded to format 2 on the way, and the format-3 (memory) and
/// format-4 (autopilot) files are in the form `agequant-serve` wrote
/// for checkpoint paths not ending in `.bin`.
const JSON_VINTAGES: [(&str, &str, u32, Option<&[u8]>); 4] = [
    (
        "checkpoint-v1.json",
        include_str!("fixtures/checkpoint-v1.json"),
        2,
        None,
    ),
    ("checkpoint-v2.json", V2_JSON, 2, None),
    (
        "checkpoint-v3.json",
        include_str!("fixtures/checkpoint-v3.json"),
        3,
        Some(include_bytes!("fixtures/checkpoint-v3.bin")),
    ),
    (
        "checkpoint-v4.json",
        include_str!("fixtures/checkpoint-v4.json"),
        4,
        None,
    ),
];

/// An empty directory under the target's test scratch space.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `agequant-fleet ARGS --out DIR`.
fn fleet(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_agequant-fleet"))
        .args(args)
        .arg("--out")
        .arg(dir)
        .output()
        .expect("agequant-fleet runs")
}

fn migrate(dir: &Path) -> Output {
    fleet(&["migrate"], dir)
}

#[test]
fn migrate_converts_a_lone_json_checkpoint_of_every_vintage() {
    for (name, json, version, committed_frame) in JSON_VINTAGES {
        let dir = scratch_dir(&format!("migrate-converts-{name}"));
        fs::write(dir.join("state.json"), json).expect("write state.json");

        let out = migrate(&dir);
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            !dir.join("state.json").exists(),
            "{name}: state.json is consumed"
        );
        let frame = fs::read(dir.join("state.bin")).expect("state.bin written");
        assert_eq!(
            u32::from_le_bytes(frame[MAGIC.len()..MAGIC.len() + 4].try_into().expect("4")),
            version,
            "{name}: frame version"
        );
        assert_eq!(
            FleetState::load(&frame).expect("frame loads"),
            FleetState::from_json(json).expect("fixture parses"),
            "{name}: the frame holds the JSON checkpoint's state"
        );
        if let Some(committed) = committed_frame {
            assert_eq!(frame, committed, "{name}: migrates to the committed frame");
        }
    }
}

/// `resume`, `report` and `autopilot --resume` read `state.bin` only;
/// a directory holding just a legacy `state.json` is refused with a
/// pointer to `migrate`, and the JSON file is left alone.
#[test]
fn subcommands_point_a_lone_json_checkpoint_at_migrate() {
    let dir = scratch_dir("lone-json");
    fs::write(dir.join("state.json"), V2_JSON).expect("write state.json");

    for args in [
        &["resume", "--epochs", "1"][..],
        &["report"],
        &["autopilot", "--resume", "--epochs", "1"],
    ] {
        let out = fleet(args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} ran on a JSON checkpoint");
        let first_line = stderr.lines().next().unwrap_or_default();
        assert!(
            first_line.contains("state.json")
                && first_line.contains("state.bin")
                && first_line.contains("agequant-fleet migrate"),
            "{args:?}: the refusal names both files and migrate: {first_line}"
        );
        assert!(!dir.join("state.bin").exists(), "{args:?} wrote state.bin");
        assert_eq!(
            fs::read_to_string(dir.join("state.json")).expect("state.json kept"),
            V2_JSON
        );
    }
}

/// A `state.json` next to an existing `state.bin` is an older
/// checkpoint: migrating it would silently roll the fleet back.
#[test]
fn migrate_refuses_to_overwrite_a_binary_checkpoint() {
    let dir = scratch_dir("migrate-refuses");
    fs::write(dir.join("state.bin"), PRE_MEM_FRAME).expect("write state.bin");
    fs::write(dir.join("state.json"), V2_JSON).expect("write state.json");

    let out = migrate(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "migrate overwrote state.bin: {stderr}"
    );
    let first_line = stderr.lines().next().unwrap_or_default();
    assert!(
        first_line.contains("state.bin") && first_line.contains("state.json"),
        "the refusal names both files: {first_line}"
    );
    assert_eq!(
        fs::read(dir.join("state.bin")).expect("state.bin kept"),
        PRE_MEM_FRAME,
        "state.bin is byte-unchanged"
    );
    assert_eq!(
        fs::read_to_string(dir.join("state.json")).expect("state.json kept"),
        V2_JSON
    );
}
