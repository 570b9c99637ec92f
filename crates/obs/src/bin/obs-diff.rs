//! Cross-run regression gate: diff two `RUN_REPORT.json` documents
//! with per-metric tolerances.
//!
//! Both inputs must carry the `mlpa-run-report-v3` schema. What is
//! compared depends on whether a metric is *deterministic* (identical
//! across machines for the same inputs) or *timing*
//! (machine-dependent):
//!
//! * **Deterministic** — counter totals, span counts, value-histogram
//!   (`"n"`-unit) contents, per-pool worker row counts and job totals:
//!   compared exactly by default; `--tol-counter` / `--tol-hist` relax
//!   them to a relative tolerance.
//! * **Timing** — `wall_s`, span `total_s`, `"us"`-unit histogram
//!   quantiles: ignored by default (CI machines vary too much for a
//!   hard gate); `--tol-time` turns on a one-sided check that fails
//!   only when the current run is slower than baseline by more than the
//!   given relative fraction.
//!
//! A metric present in the baseline but missing from the current run is
//! always a failure; new metrics in the current run are reported but
//! pass (instrumentation is expected to grow).
//!
//! Usage:
//!   `obs-diff <baseline.json> <current.json> [--tol-time R]
//!    [--tol-counter R] [--tol-hist R]`
//!
//! Exits 0 when the runs match, 1 on any regression, 2 on usage or I/O
//! errors.

use mlpa_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Relative tolerances; `None` means "skip the timing check" for the
/// timing knob, and 0 means "exact" for the deterministic knobs.
#[derive(Default)]
struct Tolerances {
    time: Option<f64>,
    counter: f64,
    hist: f64,
}

/// Accumulates mismatches (fail the gate) and notes (informational).
#[derive(Debug, Default)]
struct Diff {
    failures: Vec<String>,
    notes: Vec<String>,
}

impl Diff {
    fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    fn note(&mut self, msg: String) {
        self.notes.push(msg);
    }

    /// Two-sided relative comparison for deterministic metrics (tol 0
    /// means exact).
    fn check_rel(&mut self, what: &str, base: f64, cur: f64, tol: f64) {
        let scale = base.abs().max(1e-12);
        if (cur - base).abs() > tol * scale + 1e-12 {
            self.fail(format!("{what}: baseline {base}, current {cur} (tol {tol})"));
        }
    }

    /// One-sided timing comparison: only "current slower than baseline
    /// by more than `tol`" fails.
    fn check_slower(&mut self, what: &str, base: f64, cur: f64, tol: f64) {
        if cur > base * (1.0 + tol) {
            self.fail(format!("{what}: baseline {base}, current {cur} (one-sided tol {tol})"));
        }
    }
}

fn main() -> ExitCode {
    let mut paths: Vec<String> = Vec::new();
    let mut tol = Tolerances::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let tol_arg = |args: &mut dyn Iterator<Item = String>| -> Option<f64> {
            args.next().and_then(|v| v.parse::<f64>().ok()).filter(|v| *v >= 0.0)
        };
        match arg.as_str() {
            "--tol-time" => match tol_arg(&mut args) {
                Some(v) => tol.time = Some(v),
                None => return usage("--tol-time needs a non-negative number"),
            },
            "--tol-counter" => match tol_arg(&mut args) {
                Some(v) => tol.counter = v,
                None => return usage("--tol-counter needs a non-negative number"),
            },
            "--tol-hist" => match tol_arg(&mut args) {
                Some(v) => tol.hist = v,
                None => return usage("--tol-hist needs a non-negative number"),
            },
            other if other.starts_with("--") => {
                return usage(&format!("unknown argument `{other}`"));
            }
            path => paths.push(path.to_string()),
        }
    }
    if paths.len() != 2 {
        return usage("expected exactly two input files");
    }
    let mut docs = Vec::new();
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("obs-diff: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        match json::parse(&text) {
            Ok(v) => docs.push(v),
            Err(e) => {
                eprintln!("obs-diff: {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let (base, cur) = (&docs[0], &docs[1]);
    match diff(base, cur, &tol) {
        Err(e) => {
            eprintln!("obs-diff: {e}");
            ExitCode::from(2)
        }
        Ok(diff) => {
            for note in &diff.notes {
                println!("obs-diff: note: {note}");
            }
            if diff.failures.is_empty() {
                println!("obs-diff: {} vs {}: OK", paths[0], paths[1]);
                ExitCode::SUCCESS
            } else {
                for f in &diff.failures {
                    eprintln!("obs-diff: FAIL: {f}");
                }
                eprintln!(
                    "obs-diff: {} vs {}: {} regression(s)",
                    paths[0],
                    paths[1],
                    diff.failures.len()
                );
                ExitCode::FAILURE
            }
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("obs-diff: {msg}");
    eprintln!(
        "usage: obs-diff <baseline.json> <current.json> [--tol-time R] [--tol-counter R] \
         [--tol-hist R]"
    );
    ExitCode::from(2)
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn num_field(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key).and_then(Value::as_f64).ok_or_else(|| format!("missing numeric field `{key}`"))
}

/// Check both documents carry the run-report schema, then diff them.
fn diff(base: &Value, cur: &Value, tol: &Tolerances) -> Result<Diff, String> {
    let base_schema = str_field(base, "schema")?;
    let cur_schema = str_field(cur, "schema")?;
    if base_schema != cur_schema {
        return Err(format!("schema mismatch: baseline `{base_schema}`, current `{cur_schema}`"));
    }
    if base_schema != mlpa_obs::RUN_REPORT_SCHEMA {
        return Err(format!(
            "unsupported schema `{base_schema}`, expected `{}`",
            mlpa_obs::RUN_REPORT_SCHEMA
        ));
    }
    diff_run_report(base, cur, tol)
}

/// Index an array of objects by a string key.
fn by_key<'a>(
    v: &'a Value,
    section: &str,
    key: &str,
) -> Result<BTreeMap<String, &'a Value>, String> {
    let arr = v
        .get(section)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("missing array field `{section}`"))?;
    let mut map = BTreeMap::new();
    for item in arr {
        map.insert(str_field(item, key).map_err(|e| format!("{section}: {e}"))?, item);
    }
    Ok(map)
}

/// Walk baseline/current maps in parallel: every baseline entry must
/// exist in current (missing = fail); entries only in current are
/// noted. `f` compares the matched pairs.
fn matched<'a>(
    diff: &mut Diff,
    section: &str,
    base: &BTreeMap<String, &'a Value>,
    cur: &BTreeMap<String, &'a Value>,
    mut f: impl FnMut(&mut Diff, &str, &'a Value, &'a Value) -> Result<(), String>,
) -> Result<(), String> {
    for (name, b) in base {
        match cur.get(name) {
            None => diff.fail(format!("{section} `{name}` missing from current run")),
            Some(c) => f(diff, name, b, c)?,
        }
    }
    for name in cur.keys() {
        if !base.contains_key(name) {
            diff.note(format!("{section} `{name}` is new in current run"));
        }
    }
    Ok(())
}

fn diff_run_report(base: &Value, cur: &Value, tol: &Tolerances) -> Result<Diff, String> {
    let mut diff = Diff::default();

    // Spans: the set of phases and how often each ran is deterministic;
    // total_s is timing.
    let (b, c) = (by_key(base, "phases", "name")?, by_key(cur, "phases", "name")?);
    matched(&mut diff, "phase", &b, &c, |diff, name, b, c| {
        diff.check_rel(
            &format!("phase `{name}` count"),
            num_field(b, "count")?,
            num_field(c, "count")?,
            0.0,
        );
        if let Some(t) = tol.time {
            diff.check_slower(
                &format!("phase `{name}` total_s"),
                num_field(b, "total_s")?,
                num_field(c, "total_s")?,
                t,
            );
        }
        Ok(())
    })?;

    // Counters are exact totals.
    let (b, c) = (by_key(base, "counters", "name")?, by_key(cur, "counters", "name")?);
    matched(&mut diff, "counter", &b, &c, |diff, name, b, c| {
        diff.check_rel(
            &format!("counter `{name}`"),
            num_field(b, "value")?,
            num_field(c, "value")?,
            tol.counter,
        );
        Ok(())
    })?;

    // Workers: per-pool row counts and job totals are deterministic
    // (which worker got which job is not — dynamic claiming).
    for (label, v) in [("baseline", base), ("current", cur)] {
        if v.get("workers").and_then(Value::as_arr).is_none() {
            return Err(format!("{label}: missing array field `workers`"));
        }
    }
    let pool_totals = |v: &Value| -> Result<BTreeMap<String, (u64, u64)>, String> {
        let mut map: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for w in v.get("workers").and_then(Value::as_arr).expect("checked") {
            let pool = str_field(w, "pool")?;
            let jobs = num_field(w, "jobs")? as u64;
            let entry = map.entry(pool).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += jobs;
        }
        Ok(map)
    };
    let (b, c) = (pool_totals(base)?, pool_totals(cur)?);
    for (pool, (rows, jobs)) in &b {
        match c.get(pool) {
            None => diff.fail(format!("worker pool `{pool}` missing from current run")),
            Some((crows, cjobs)) => {
                if crows != rows {
                    diff.fail(format!(
                        "worker pool `{pool}`: baseline {rows} workers, current {crows}"
                    ));
                }
                if cjobs != jobs {
                    diff.fail(format!(
                        "worker pool `{pool}`: baseline {jobs} jobs, current {cjobs}"
                    ));
                }
            }
        }
    }
    for pool in c.keys() {
        if !b.contains_key(pool) {
            diff.note(format!("worker pool `{pool}` is new in current run"));
        }
    }

    // Value histograms are deterministic; time histograms are gated
    // one-sided like other timings.
    let (b, c) = (by_key(base, "histograms", "name")?, by_key(cur, "histograms", "name")?);
    matched(&mut diff, "histogram", &b, &c, |diff, name, b, c| {
        let unit = str_field(b, "unit")?;
        diff.check_rel(
            &format!("histogram `{name}` count"),
            num_field(b, "count")?,
            num_field(c, "count")?,
            tol.hist,
        );
        if unit == "us" {
            if let Some(t) = tol.time {
                for k in ["p50", "p90", "p99"] {
                    diff.check_slower(
                        &format!("histogram `{name}` {k}"),
                        num_field(b, k)?,
                        num_field(c, k)?,
                        t,
                    );
                }
            }
        } else {
            for k in ["sum", "min", "max", "p50", "p90", "p99"] {
                diff.check_rel(
                    &format!("histogram `{name}` {k}"),
                    num_field(b, k)?,
                    num_field(c, k)?,
                    tol.hist,
                );
            }
        }
        Ok(())
    })?;

    // Which gauges exist is deterministic for a fixed configuration;
    // their last-written values depend on scheduling and are never
    // compared.
    let (b, c) = (by_key(base, "gauges", "name")?, by_key(cur, "gauges", "name")?);
    matched(&mut diff, "gauge", &b, &c, |_diff, _name, _b, _c| Ok(()))?;

    // Self-profile: span names, call counts, and call-tree edges are
    // deterministic; all wall times, pool utilization, and the
    // critical-path summary are timing and never compared.
    let non_null = |v: &Value| match v.get("self_profile") {
        None | Some(Value::Null) => None,
        Some(sp) => Some(sp.clone()),
    };
    match (non_null(base), non_null(cur)) {
        (Some(b), Some(c)) => diff_self_profile(&mut diff, &b, &c)?,
        (Some(_), None) => diff.fail("self_profile section missing from current run".into()),
        (None, Some(_)) => diff.note("self_profile section is new in current run".into()),
        (None, None) => {}
    }

    // Accuracy attribution: per-phase weights and error shares are
    // deterministic model outputs, so any drift is a real change.
    if let Some(b_attr) = base.get("attribution") {
        match cur.get("attribution") {
            None => diff.fail("attribution section missing from current run".into()),
            Some(c_attr) => diff_attribution(&mut diff, b_attr, c_attr, tol)?,
        }
    }

    if let Some(t) = tol.time {
        diff.check_slower("wall_s", num_field(base, "wall_s")?, num_field(cur, "wall_s")?, t);
    }
    Ok(diff)
}

/// Compare the structural half of two self-profile sections: spans by
/// name (call counts exact) and tree edges by `(parent, name)` (call
/// counts exact). Timing fields are deliberately not read.
fn diff_self_profile(diff: &mut Diff, base: &Value, cur: &Value) -> Result<(), String> {
    let (b, c) = (by_key(base, "spans", "name")?, by_key(cur, "spans", "name")?);
    matched(diff, "self_profile span", &b, &c, |diff, name, b, c| {
        diff.check_rel(
            &format!("self_profile span `{name}` calls"),
            num_field(b, "calls")?,
            num_field(c, "calls")?,
            0.0,
        );
        Ok(())
    })?;

    let edges = |v: &Value| -> Result<BTreeMap<String, f64>, String> {
        let arr = v.get("tree").and_then(Value::as_arr).ok_or("missing array field `tree`")?;
        let mut map = BTreeMap::new();
        for e in arr {
            let parent = match e.get("parent") {
                Some(Value::Str(s)) => s.clone(),
                _ => "(root)".to_string(),
            };
            map.insert(format!("{parent} -> {}", str_field(e, "name")?), num_field(e, "calls")?);
        }
        Ok(map)
    };
    let (b, c) = (edges(base)?, edges(cur)?);
    for (edge, calls) in &b {
        match c.get(edge) {
            None => diff.fail(format!("self_profile edge `{edge}` missing from current run")),
            Some(ccalls) if ccalls != calls => diff.fail(format!(
                "self_profile edge `{edge}`: baseline {calls} calls, current {ccalls}"
            )),
            Some(_) => {}
        }
    }
    for edge in c.keys() {
        if !b.contains_key(edge) {
            diff.note(format!("self_profile edge `{edge}` is new in current run"));
        }
    }
    Ok(())
}

fn diff_attribution(
    diff: &mut Diff,
    base: &Value,
    cur: &Value,
    tol: &Tolerances,
) -> Result<(), String> {
    let index = |v: &Value| -> Result<BTreeMap<String, Value>, String> {
        let arr = v.as_arr().ok_or("`attribution` is not an array")?;
        let mut map = BTreeMap::new();
        for a in arr {
            map.insert(str_field(a, "benchmark")?, a.clone());
        }
        Ok(map)
    };
    let (b, c) = (index(base)?, index(cur)?);
    for (bench, ba) in &b {
        let Some(ca) = c.get(bench) else {
            diff.fail(format!("attribution for `{bench}` missing from current run"));
            continue;
        };
        let phases = |v: &Value| -> Result<BTreeMap<u64, Value>, String> {
            let arr = v
                .get("phases")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("attribution `{bench}`: missing `phases`"))?;
            let mut map = BTreeMap::new();
            for p in arr {
                map.insert(num_field(p, "cluster")? as u64, p.clone());
            }
            Ok(map)
        };
        let (bp, cp) = (phases(ba)?, phases(ca)?);
        if bp.len() != cp.len() {
            diff.fail(format!(
                "attribution `{bench}`: baseline {} phases, current {}",
                bp.len(),
                cp.len()
            ));
            continue;
        }
        for (cluster, bph) in &bp {
            let Some(cph) = cp.get(cluster) else {
                diff.fail(format!("attribution `{bench}` cluster {cluster} missing"));
                continue;
            };
            for k in ["weight", "cpi_err_share"] {
                diff.check_rel(
                    &format!("attribution `{bench}` cluster {cluster} {k}"),
                    num_field(bph, k)?,
                    num_field(cph, k)?,
                    tol.counter,
                );
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(counter: u64, hist_sum: u64) -> String {
        let r = mlpa_obs::Report {
            wall_s: 2.0,
            phases: vec![mlpa_obs::PhaseStat {
                name: "sim.detailed".into(),
                count: 4,
                total_s: 1.0,
            }],
            workers: vec![
                mlpa_obs::WorkerStat {
                    pool: "plan".into(),
                    index: 0,
                    busy_s: 0.5,
                    wall_s: 0.6,
                    jobs: 3,
                    busy_fraction: 0.83,
                },
                mlpa_obs::WorkerStat {
                    pool: "plan".into(),
                    index: 1,
                    busy_s: 0.4,
                    wall_s: 0.6,
                    jobs: 1,
                    busy_fraction: 0.67,
                },
            ],
            counters: vec![("sim.instructions".into(), counter)],
            gauges: vec![("sim.rob.occupancy".into(), 12)],
            histograms: vec![mlpa_obs::HistogramStat {
                name: "sim.rob.occupancy".into(),
                unit: "n".into(),
                count: 8,
                sum: hist_sum,
                min: 1,
                max: 16,
                p50: 7,
                p90: 15,
                p99: 16,
            }],
            self_profile: Some(mlpa_obs::selfprofile::SelfProfile {
                spans: vec![mlpa_obs::selfprofile::SpanAgg {
                    name: "sim.detailed".into(),
                    calls: 4,
                    total_s: 1.0,
                    self_s: 1.0,
                    p50_us: 100,
                    p99_us: 900,
                }],
                tree: vec![mlpa_obs::selfprofile::SpanEdge {
                    parent: None,
                    name: "sim.detailed".into(),
                    calls: 4,
                    total_s: 1.0,
                }],
                ..mlpa_obs::selfprofile::SelfProfile::default()
            }),
        };
        r.to_json()
    }

    fn run(base: &str, cur: &str, tol: &Tolerances) -> Diff {
        diff(&json::parse(base).unwrap(), &json::parse(cur).unwrap(), tol).unwrap()
    }

    #[test]
    fn identical_reports_pass() {
        let d = run(&report(100, 40), &report(100, 40), &Tolerances::default());
        assert!(d.failures.is_empty(), "{:?}", d.failures);
    }

    #[test]
    fn perturbed_counter_fails() {
        let d = run(&report(100, 40), &report(101, 40), &Tolerances::default());
        assert!(d.failures.iter().any(|f| f.contains("sim.instructions")), "{:?}", d.failures);
    }

    #[test]
    fn counter_tolerance_passes_at_edge_and_fails_past_it() {
        let tol = Tolerances { counter: 0.01, ..Tolerances::default() };
        // 1% of 100 = 1: exactly at the edge passes...
        let d = run(&report(100, 40), &report(101, 40), &tol);
        assert!(d.failures.is_empty(), "{:?}", d.failures);
        // ...2 is past it.
        let d = run(&report(100, 40), &report(102, 40), &tol);
        assert!(!d.failures.is_empty());
    }

    #[test]
    fn value_histogram_contents_are_gated() {
        let d = run(&report(100, 40), &report(100, 41), &Tolerances::default());
        assert!(d.failures.iter().any(|f| f.contains("sim.rob.occupancy")), "{:?}", d.failures);
    }

    #[test]
    fn missing_metric_fails_and_new_metric_notes() {
        let two = report(100, 40);
        let one = two.replacen(
            "{\"name\": \"sim.instructions\", \"value\": 100}",
            "{\"name\": \"sim.instructions\", \"value\": 100}, \
             {\"name\": \"sim.cycles\", \"value\": 7}",
            1,
        );
        // Baseline has the extra counter, current doesn't: fail.
        let d = run(&one, &two, &Tolerances::default());
        assert!(d.failures.iter().any(|f| f.contains("sim.cycles")), "{:?}", d.failures);
        // Current has the extra counter: pass with a note.
        let d = run(&two, &one, &Tolerances::default());
        assert!(d.failures.is_empty(), "{:?}", d.failures);
        assert!(d.notes.iter().any(|n| n.contains("sim.cycles")), "{:?}", d.notes);
    }

    #[test]
    fn timing_is_ignored_unless_tol_time_given() {
        let slow = report(100, 40).replace("\"wall_s\": 2.000000", "\"wall_s\": 9.000000");
        let d = run(&report(100, 40), &slow, &Tolerances::default());
        assert!(d.failures.is_empty(), "{:?}", d.failures);
        let tol = Tolerances { time: Some(0.5), ..Tolerances::default() };
        let d = run(&report(100, 40), &slow, &tol);
        assert!(d.failures.iter().any(|f| f.contains("wall_s")), "{:?}", d.failures);
        // One-sided: a faster current run always passes.
        let d = run(&slow, &report(100, 40), &tol);
        assert!(d.failures.is_empty(), "{:?}", d.failures);
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let v2 = report(100, 40).replacen("mlpa-run-report-v3", "mlpa-run-report-v2", 1);
        let err = |base: &str, cur: &str| {
            diff(&json::parse(base).unwrap(), &json::parse(cur).unwrap(), &Tolerances::default())
                .unwrap_err()
        };
        assert!(err(&v2, &report(100, 40)).contains("schema mismatch"));
        // Two reports of an older generation agree with each other but
        // are still not diffed.
        assert!(err(&v2, &v2).contains("unsupported schema `mlpa-run-report-v2`"));
    }

    #[test]
    fn attribution_drift_is_gated() {
        let attr = |share: f64| {
            format!(
                "[{{\"benchmark\": \"eon\", \"phases\": [{{\"cluster\": 0, \"weight\": 1.0, \
                 \"cpi_err_share\": {share}}}]}}]"
            )
        };
        let with_attr = |share: f64| {
            report(100, 40).replacen(
                "\"histograms\":",
                &format!("\"attribution\": {}, \"histograms\":", attr(share)),
                1,
            )
        };
        let d = run(&with_attr(0.5), &with_attr(0.5), &Tolerances::default());
        assert!(d.failures.is_empty(), "{:?}", d.failures);
        let d = run(&with_attr(0.5), &with_attr(0.6), &Tolerances::default());
        assert!(d.failures.iter().any(|f| f.contains("cpi_err_share")), "{:?}", d.failures);
        // Attribution missing from the current run is a failure.
        let d = run(&with_attr(0.5), &report(100, 40), &Tolerances::default());
        assert!(d.failures.iter().any(|f| f.contains("attribution")), "{:?}", d.failures);
    }

    #[test]
    fn histograms_and_gauges_are_required_sections() {
        let full = json::parse(&report(100, 40)).unwrap();
        for section in ["histograms", "gauges"] {
            let mut cut = full.clone();
            if let Value::Obj(fields) = &mut cut {
                fields.remove(section);
            }
            let err = diff(&full, &cut, &Tolerances::default()).unwrap_err();
            assert!(err.contains(&format!("`{section}`")), "{err}");
        }
    }

    #[test]
    fn gauge_names_are_gated_but_values_are_not() {
        // A gauge value is whatever was last written: drift passes.
        let moved = report(100, 40).replacen(
            "{\"name\": \"sim.rob.occupancy\", \"value\": 12}",
            "{\"name\": \"sim.rob.occupancy\", \"value\": 97}",
            1,
        );
        let d = run(&report(100, 40), &moved, &Tolerances::default());
        assert!(d.failures.is_empty(), "{:?}", d.failures);
        // A gauge disappearing means instrumentation was lost: fail.
        let gone = report(100, 40).replacen(
            "{\"name\": \"sim.rob.occupancy\", \"value\": 12}",
            "{\"name\": \"sim.lsq.occupancy\", \"value\": 12}",
            1,
        );
        let d = run(&report(100, 40), &gone, &Tolerances::default());
        assert!(
            d.failures.iter().any(|f| f.contains("gauge `sim.rob.occupancy`")),
            "{:?}",
            d.failures
        );
        assert!(d.notes.iter().any(|n| n.contains("sim.lsq.occupancy")), "{:?}", d.notes);
    }

    #[test]
    fn self_profile_structure_is_gated_but_timing_is_not() {
        // Wall-time drift in the profile passes even at zero tolerance.
        let slower = report(100, 40).replace("\"self_s\": 1.000000", "\"self_s\": 0.250000");
        let d = run(&report(100, 40), &slower, &Tolerances::default());
        assert!(d.failures.is_empty(), "{:?}", d.failures);
        // A changed call count is a structural regression.
        let fewer =
            report(100, 40).replace("\"calls\": 4, \"total_s\"", "\"calls\": 3, \"total_s\"");
        let d = run(&report(100, 40), &fewer, &Tolerances::default());
        assert!(
            d.failures.iter().any(|f| f.contains("self_profile") && f.contains("calls")),
            "{:?}",
            d.failures
        );
        // A re-parented edge is a structural regression too.
        let reparented = report(100, 40).replace(
            "{\"parent\": null, \"name\": \"sim.detailed\"",
            "{\"parent\": \"core.profile\", \"name\": \"sim.detailed\"",
        );
        let d = run(&report(100, 40), &reparented, &Tolerances::default());
        assert!(d.failures.iter().any(|f| f.contains("self_profile edge")), "{:?}", d.failures);
    }
}
