//! Cross-run regression comparison of two `RUN_REPORT.json` documents.
//! The `obs-diff` binary is a thin command line over [`diff`];
//! integration tests that drive the real binaries call it directly.
//!
//! Both inputs must carry the `mlpa-run-report-v3` schema. Everything
//! deterministic — identical across machines and schedules for the same
//! inputs — is compared exactly: counter totals, span counts,
//! value-histogram (`"n"`-unit) contents, time-histogram (`"us"`-unit)
//! counts, per-pool worker row counts and job totals, gauge names, the
//! self-profile's span call counts and call-tree edges, and the
//! attribution's per-phase weights and error shares. Timings are
//! machine-dependent and never read: `wall_s`, span `total_s`, time
//! quantiles, pool utilization and the self-profile's times.
//!
//! A metric present in the baseline but missing from the current run is
//! a failure; new metrics in the current run are noted but pass
//! (instrumentation is expected to grow).

use crate::json::Value;
use std::collections::BTreeMap;

/// The outcome of [`diff`]: mismatches, which fail the gate, and notes,
/// which are informational.
#[derive(Debug, Default)]
pub struct Diff {
    /// Mismatches; the runs match when this is empty.
    pub failures: Vec<String>,
    /// Metrics new in the current run.
    pub notes: Vec<String>,
}

impl Diff {
    fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    fn note(&mut self, msg: String) {
        self.notes.push(msg);
    }

    fn check_eq(&mut self, what: &str, base: f64, cur: f64) {
        if cur != base {
            self.fail(format!("{what}: baseline {base}, current {cur}"));
        }
    }
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

/// Compare the run report `cur` against the baseline `base`.
///
/// # Errors
///
/// Returns an error when either document lacks the run-report schema or
/// a section the schema requires, rather than a [`Diff`] that would
/// pass or fail on a malformed input.
pub fn diff(base: &Value, cur: &Value) -> Result<Diff, String> {
    let base_schema = str_field(base, "schema")?;
    let cur_schema = str_field(cur, "schema")?;
    if base_schema != cur_schema {
        return Err(format!("schema mismatch: baseline `{base_schema}`, current `{cur_schema}`"));
    }
    if base_schema != crate::RUN_REPORT_SCHEMA {
        return Err(format!(
            "unsupported schema `{base_schema}`, expected `{}`",
            crate::RUN_REPORT_SCHEMA
        ));
    }
    diff_run_report(base, cur)
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

/// Compare the field `key` of two matched entries exactly.
fn check_field(diff: &mut Diff, what: &str, b: &Value, c: &Value, key: &str) -> Result<(), String> {
    diff.check_eq(&format!("{what} {key}"), num_field(b, key)?, num_field(c, key)?);
    Ok(())
}

fn diff_run_report(base: &Value, cur: &Value) -> Result<Diff, String> {
    let mut diff = Diff::default();

    // Spans: the set of phases and how often each ran.
    let (b, c) = (by_key(base, "phases", "name")?, by_key(cur, "phases", "name")?);
    matched(&mut diff, "phase", &b, &c, |diff, name, b, c| {
        check_field(diff, &format!("phase `{name}`"), b, c, "count")
    })?;

    // Counters are exact totals.
    let (b, c) = (by_key(base, "counters", "name")?, by_key(cur, "counters", "name")?);
    matched(&mut diff, "counter", &b, &c, |diff, name, b, c| {
        diff.check_eq(&format!("counter `{name}`"), num_field(b, "value")?, num_field(c, "value")?);
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

    // Histogram counts are deterministic, and so are a value
    // histogram's contents; a time histogram's quantiles are timing.
    let (b, c) = (by_key(base, "histograms", "name")?, by_key(cur, "histograms", "name")?);
    matched(&mut diff, "histogram", &b, &c, |diff, name, b, c| {
        let what = format!("histogram `{name}`");
        check_field(diff, &what, b, c, "count")?;
        if str_field(b, "unit")? != "us" {
            for k in ["sum", "min", "max", "p50", "p90", "p99"] {
                check_field(diff, &what, b, c, k)?;
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
            Some(c_attr) => diff_attribution(&mut diff, b_attr, c_attr)?,
        }
    }
    Ok(diff)
}

/// Compare the structural half of two self-profile sections: spans by
/// name (call counts exact) and tree edges by `(parent, name)` (call
/// counts exact). Timing fields are deliberately not read.
fn diff_self_profile(diff: &mut Diff, base: &Value, cur: &Value) -> Result<(), String> {
    let (b, c) = (by_key(base, "spans", "name")?, by_key(cur, "spans", "name")?);
    matched(diff, "self_profile span", &b, &c, |diff, name, b, c| {
        check_field(diff, &format!("self_profile span `{name}`"), b, c, "calls")
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

fn diff_attribution(diff: &mut Diff, base: &Value, cur: &Value) -> Result<(), String> {
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
                check_field(
                    diff,
                    &format!("attribution `{bench}` cluster {cluster}"),
                    bph,
                    cph,
                    k,
                )?;
            }
        }
    }
    Ok(())
}
