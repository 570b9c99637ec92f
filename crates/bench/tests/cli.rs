//! `mlpa-experiments` driven as a user drives it: `--help` lists every
//! command the parser accepts, an unknown command is a usage error, and
//! an ablation table regenerates its committed `results/` copy byte for
//! byte.

use mlpa_bench::ablation::TABLES;
use std::path::PathBuf;
use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mlpa-experiments"))
        .args(args)
        .output()
        .expect("mlpa-experiments runs")
}

/// The committed `results/` directory at the workspace root.
fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn help_lists_every_command() {
    let out = experiments(&["--help"]);
    assert!(out.status.success(), "--help exited with {}", out.status);
    let help = String::from_utf8(out.stdout).expect("help is UTF-8");
    let listed: Vec<&str> = help
        .lines()
        .filter_map(|l| l.strip_prefix("  "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let commands = [
        "configs",
        "fig1",
        "fig3",
        "fig4",
        "table2",
        "table3",
        "motivation",
        "accuracy",
        "ablations",
        "all",
    ];
    for name in commands.into_iter().chain(TABLES.iter().map(|&(name, _)| name)) {
        assert!(listed.contains(&name), "--help does not list `{name}`:\n{help}");
    }
}

#[test]
fn unknown_command_exits_2() {
    let out = experiments(&["no_such_table"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn every_table_has_a_committed_result() {
    for (name, _) in TABLES {
        let path = results_dir().join(format!("{name}.txt"));
        assert!(path.is_file(), "{} is missing; run `mlpa-experiments {name}`", path.display());
    }
}

/// An output directory, removed on drop, panics included.
struct OutDir(PathBuf);

impl Drop for OutDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn table_reproduces_its_committed_result() {
    let dir = OutDir(std::env::temp_dir().join(format!("mlpa-cli-test-{}", std::process::id())));
    let out_dir = dir.0.to_str().expect("temp dir is UTF-8");
    let out = experiments(&["extension_core_models", "--quiet", "--out", out_dir]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let fresh = std::fs::read_to_string(dir.0.join("extension_core_models.txt")).expect("written");
    let committed = std::fs::read_to_string(results_dir().join("extension_core_models.txt"))
        .expect("committed");
    assert_eq!(fresh, committed, "results/extension_core_models.txt is stale");
}
