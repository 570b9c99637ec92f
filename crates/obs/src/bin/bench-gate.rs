//! Machine-calibrated perf regression gate over `BENCH.json`
//! trajectories (sibling of `obs-check` / `obs-diff`; the CI
//! `perf-gate` job).
//!
//! Compares one candidate snapshot against one baseline snapshot on
//! **machine-normalized** ratios (`mean_ns / probe_ns`, both sides
//! divided by their own host's calibration probe), so a fast CI runner
//! gating against a baseline recorded on a slow dev box — or vice
//! versa — judges the *code*, not the machine. Thresholds are adaptive:
//! the tolerance band for each bench widens with the measured
//! calibration dispersion of both hosts and with the bench's own
//! min–max sample spread. One band over baseline warns; two bands fail
//! the gate (`mlpa_obs::calibrate::GateConfig`). Within-run derived
//! speedups (`speedups` in each snapshot) gate the same way in the
//! other direction: a speedup that shrank past the band is a
//! regression of the optimized path relative to its in-process
//! reference.
//!
//! Usage:
//!   `bench-gate <baseline.json> <candidate.json>
//!      [--base-label L] [--cand-label L]
//!      [--min-band R] [--warn-bands N] [--fail-bands N]
//!      [--min-gate-ns NS] [--inflate KEY=FACTOR] [--no-trajectory]`
//!
//! Snapshot selection defaults to the last snapshot in each file;
//! `--base-label` / `--cand-label` pin a specific one.
//!
//! `--inflate KEY=FACTOR` multiplies the candidate timings of every
//! bench whose `group` or `group/id` equals KEY before gating — the
//! planted-regression self-test: CI inflates one group by 1.5× and
//! asserts the gate fails, proving the gate can catch what it exists to
//! catch on the very host where it just passed.
//!
//! Exits 0 when the gate passes (including warnings), 1 on a failed
//! gate, 2 on usage or I/O errors.

use mlpa_obs::calibrate::{
    gate, parse_trajectory, trajectory_table, GateConfig, Snapshot, Verdict,
};
use mlpa_obs::json;
use std::process::ExitCode;

struct Options {
    baseline: String,
    candidate: String,
    base_label: Option<String>,
    cand_label: Option<String>,
    cfg: GateConfig,
    /// `(key, factor)` pairs applied to the candidate before gating.
    inflate: Vec<(String, f64)>,
    trajectory: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench-gate <baseline.json> <candidate.json> [--base-label L] [--cand-label L]\n\
         \x20      [--min-band R] [--warn-bands N] [--fail-bands N] [--min-gate-ns NS]\n\
         \x20      [--inflate GROUP[/ID]=FACTOR] [--no-trajectory]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut paths: Vec<String> = Vec::new();
    let mut o = Options {
        baseline: String::new(),
        candidate: String::new(),
        base_label: None,
        cand_label: None,
        cfg: GateConfig::default(),
        inflate: Vec::new(),
        trajectory: true,
    };
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--base-label" => o.base_label = Some(value("--base-label")?),
            "--cand-label" => o.cand_label = Some(value("--cand-label")?),
            "--min-band" => o.cfg.min_band = parse_num(&value("--min-band")?)?,
            "--warn-bands" => o.cfg.warn_bands = parse_num(&value("--warn-bands")?)?,
            "--fail-bands" => o.cfg.fail_bands = parse_num(&value("--fail-bands")?)?,
            "--min-gate-ns" => o.cfg.min_gate_ns = parse_num(&value("--min-gate-ns")?)?,
            "--inflate" => {
                let spec = value("--inflate")?;
                let (key, factor) = spec
                    .split_once('=')
                    .ok_or(format!("--inflate `{spec}`: expected KEY=FACTOR"))?;
                o.inflate.push((key.to_string(), parse_num(factor)?));
            }
            "--no-trajectory" => o.trajectory = false,
            _ if arg.starts_with("--") => return Err(format!("unknown option `{arg}`")),
            _ => paths.push(arg),
        }
    }
    if paths.len() != 2 {
        return Err(format!("expected 2 positional arguments, got {}", paths.len()));
    }
    o.candidate = paths.pop().expect("two paths");
    o.baseline = paths.pop().expect("one path");
    Ok(o)
}

fn parse_num(s: &str) -> Result<f64, String> {
    s.parse::<f64>().map_err(|_| format!("`{s}` is not a number"))
}

fn load_snapshots(path: &str) -> Result<Vec<Snapshot>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    parse_trajectory(&doc).map_err(|e| format!("{path}: {e}"))
}

/// Pick the snapshot to gate: the labelled one, or the last one.
fn select<'s>(
    snapshots: &'s [Snapshot],
    label: Option<&str>,
    role: &str,
    path: &str,
) -> Result<&'s Snapshot, String> {
    match label {
        Some(l) => snapshots
            .iter()
            .rfind(|s| s.label == l)
            .ok_or(format!("{role} snapshot `{l}` not found in {path}")),
        None => snapshots.last().ok_or(format!("{path} has no snapshot to use as {role}")),
    }
}

/// Apply `--inflate` factors: scale the matching benches' timings.
fn inflate(snapshot: &mut Snapshot, rules: &[(String, f64)]) {
    for b in &mut snapshot.benches {
        for (key, factor) in rules {
            if *key == b.group || *key == b.key() {
                b.mean_ns *= factor;
                b.min_ns *= factor;
                b.max_ns *= factor;
            }
        }
    }
}

fn run(o: &Options) -> Result<Verdict, String> {
    let base_snaps = load_snapshots(&o.baseline)?;
    let cand_snaps = load_snapshots(&o.candidate)?;
    let base = select(&base_snaps, o.base_label.as_deref(), "baseline", &o.baseline)?;
    let mut cand = select(&cand_snaps, o.cand_label.as_deref(), "candidate", &o.candidate)?.clone();
    if !o.inflate.is_empty() {
        inflate(&mut cand, &o.inflate);
        for (key, factor) in &o.inflate {
            println!("inflated candidate `{key}` timings by {factor}x (planted regression)");
        }
    }

    for (role, snap) in [("baseline", base), ("candidate", &cand)] {
        let cal = &snap.calibration;
        println!(
            "{role}: `{}` on {} (probe {:.2} ns/unit, dispersion {:.1}%, {} cpus)",
            snap.label,
            cal.fingerprint,
            cal.probe_ns,
            cal.dispersion * 100.0,
            cal.cpus
        );
    }
    let report = gate(base, &cand, &o.cfg);
    println!("\n{}", report.table());
    for note in &report.notes {
        println!("note: {note}");
    }

    if o.trajectory {
        // The full per-group trajectory: every baseline-file snapshot
        // plus the gated candidate.
        let mut all = base_snaps.clone();
        all.push(cand.clone());
        println!("\nper-group normalized trajectory (geomean of probe-unit costs):");
        println!("{}", trajectory_table(&all));
    }

    let (warns, fails) = report.rows.iter().fold((0usize, 0usize), |(w, f), r| match r.verdict {
        Verdict::Warn => (w + 1, f),
        Verdict::Fail => (w, f + 1),
        Verdict::Ok => (w, f),
    });
    match report.worst() {
        Verdict::Ok => println!("perf gate PASSED ({} metrics)", report.rows.len()),
        Verdict::Warn => {
            println!("perf gate PASSED with {warns} warning(s) — one dispersion band over baseline")
        }
        Verdict::Fail => println!("perf gate FAILED: {fails} metric(s) beyond two bands"),
    }
    Ok(report.worst())
}

fn main() -> ExitCode {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench-gate: {e}");
            return usage();
        }
    };
    match run(&o) {
        Ok(Verdict::Fail) => ExitCode::from(1),
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench-gate: {e}");
            ExitCode::from(2)
        }
    }
}
