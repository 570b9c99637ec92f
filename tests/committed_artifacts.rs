//! The committed artifacts are in the one schema generation the
//! repository's tools read: every run report under `results/` is what
//! `obs-check --report` and `obs-diff` accept, and `BENCH.json` is a
//! trajectory `bench-gate` can gate against.

use mlpa_obs::calibrate::{gate, parse_trajectory, GateConfig, Verdict};
use mlpa_obs::json::{self, Value};
use std::path::{Path, PathBuf};

fn read(path: &Path) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()))
}

/// Every `RUN_REPORT.json` under `dir`, recursively.
fn run_reports(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("results/ is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            run_reports(&path, out);
        } else if path.file_name().is_some_and(|n| n == "RUN_REPORT.json") {
            out.push(path);
        }
    }
}

#[test]
fn every_run_report_carries_the_current_schema() {
    let mut reports = Vec::new();
    run_reports(&Path::new(env!("CARGO_MANIFEST_DIR")).join("results"), &mut reports);
    assert!(!reports.is_empty(), "no RUN_REPORT.json under results/");
    for path in reports {
        let schema = read(&path).get("schema").and_then(Value::as_str).map(str::to_owned);
        assert_eq!(schema.as_deref(), Some(mlpa_obs::RUN_REPORT_SCHEMA), "{}", path.display());
    }
}

#[test]
fn bench_trajectory_parses_and_gates_its_last_snapshot() {
    let doc = read(&Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH.json"));
    let snapshots = parse_trajectory(&doc).expect("BENCH.json is a trajectory");
    let last = snapshots.last().expect("BENCH.json holds a snapshot");
    let report = gate(last, last, &GateConfig::default());
    assert!(!report.rows.is_empty(), "nothing gated");
    assert_eq!(report.worst(), Verdict::Ok, "{}", report.table());
}
