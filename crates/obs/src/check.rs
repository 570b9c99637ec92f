//! Validators for everything obs writes: the JSONL event stream, the
//! run report, `/metrics` scrapes and `/status` bodies. The `obs-check`
//! binary is a thin command line over these; integration tests that
//! drive the real binaries call them directly.
//!
//! * [`check_events`] — exactly one well-formed JSON object per line,
//!   each with a known `ev` tag and that tag's required fields. Every
//!   `run_start` must declare `mlpa-events-v3`; span, worker and log
//!   events carry a numeric `tid`; the sampler's `sample` events carry
//!   their own `mlpa-sample-v1` schema tag, a strictly increasing
//!   `tick`, and per-sample counter totals that must never decrease. An
//!   event kind or schema string this checker does not know is
//!   rejected with a line-numbered, named error.
//! * [`check_report`] — a `RUN_REPORT.json` matches the
//!   `mlpa-run-report-v3` shape, including the gauge section, the
//!   optional span-aggregated self-profile, the histogram section and,
//!   when present, the accuracy attribution section.
//! * [`check_complete`] — kept apart from the shape: the report shows a
//!   complete instrumented run, with every [`REQUIRED_COUNTERS`] entry
//!   and at least one histogram. A fully warm `--resume` run simulates
//!   nothing, so it passes [`check_report`] and fails here.
//! * [`check_metrics`] — a scrape parses under the strict Prometheus
//!   text checker ([`crate::promtext::check`]), and no counter of an
//!   earlier scrape of the same run decreased or disappeared.
//! * [`check_status`] — a `/status` body matches `mlpa-status-v2`.
//!
//! Every validator returns the first violation as an `Err` message.

use crate::json::{self, Value};
use crate::promtext;

/// Counters a complete instrumented run must have recorded
/// ([`check_complete`]).
pub const REQUIRED_COUNTERS: &[&str] = &[
    "phase.kmeans.iterations",
    "sim.instructions",
    "sim.l1d.hits",
    "sim.l1d.misses",
    "sim.l2.hits",
    "sim.l2.misses",
];

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field `{key}` is not a string"))
}

fn num_field(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?.as_f64().ok_or_else(|| format!("field `{key}` is not a number"))
}

/// A `run_start` must declare [`crate::EVENTS_SCHEMA`].
fn check_stream_schema(v: &Value) -> Result<(), String> {
    match v.get("schema") {
        Some(Value::Str(s)) if s == crate::EVENTS_SCHEMA => Ok(()),
        Some(Value::Str(s)) => Err(format!("unknown events schema `{s}`")),
        Some(_) => Err("field `schema` is not a string".into()),
        None => Err(format!("run_start declares no schema, expected `{}`", crate::EVENTS_SCHEMA)),
    }
}

/// Validate one `sample` event against the telemetry contract: the
/// payload schema must be [`crate::SAMPLE_SCHEMA`], ticks strictly
/// increase, and no counter total may ever decrease between samples.
fn check_sample(
    v: &Value,
    last_tick: &mut Option<f64>,
    prev_counters: &mut Vec<(String, f64)>,
) -> Result<(), String> {
    match v.get("schema") {
        Some(Value::Str(s)) if s == crate::SAMPLE_SCHEMA => {}
        Some(Value::Str(s)) => return Err(format!("unknown sample schema `{s}`")),
        Some(_) => return Err("field `schema` is not a string".into()),
        None => return Err("missing field `schema` on sample event".into()),
    }
    for k in ["t_us", "rss_bytes"] {
        num_field(v, k)?;
    }
    let tick = num_field(v, "tick")?;
    if let Some(prev) = *last_tick {
        if tick <= prev {
            return Err(format!("sample tick {tick} not greater than previous tick {prev}"));
        }
    }
    *last_tick = Some(tick);

    let counters = field(v, "counters")?.as_obj().ok_or("field `counters` is not an object")?;
    let mut current = Vec::with_capacity(counters.len());
    for (name, value) in counters {
        let value = value.as_f64().ok_or_else(|| format!("counter `{name}` is not a number"))?;
        if let Some((_, prev)) = prev_counters.iter().find(|(n, _)| n == name) {
            if value < *prev {
                return Err(format!(
                    "counter `{name}` decreased between samples ({prev} -> {value})"
                ));
            }
        }
        current.push((name.clone(), value));
    }
    *prev_counters = current;

    let gauges = field(v, "gauges")?.as_obj().ok_or("field `gauges` is not an object")?;
    for (name, value) in gauges {
        if value.as_f64().is_none() {
            return Err(format!("gauge `{name}` is not a number"));
        }
    }
    let pools = field(v, "pools")?.as_arr().ok_or("field `pools` is not an array")?;
    for (i, p) in pools.iter().enumerate() {
        str_field(p, "pool").map_err(|e| format!("pools[{i}]: {e}"))?;
        for k in ["live", "jobs", "busy_ms", "busy_frac"] {
            num_field(p, k).map_err(|e| format!("pools[{i}]: {e}"))?;
        }
    }
    Ok(())
}

/// Validate a JSONL event stream; returns the number of events.
///
/// # Errors
///
/// The first violation, prefixed with its 1-based line number.
pub fn check_events(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    let mut saw_start = false;
    let mut saw_end = false;
    let mut last_tick: Option<f64> = None;
    let mut prev_sample_counters: Vec<(String, f64)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.trim().is_empty() {
            return Err(format!("line {lineno}: blank line in JSONL stream"));
        }
        let v = json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        if v.as_obj().is_none() {
            return Err(format!("line {lineno}: not a JSON object"));
        }
        let ev = str_field(&v, "ev").map_err(|e| format!("line {lineno}: {e}"))?;
        if !saw_start && ev != "run_start" {
            return Err(format!("line {lineno}: stream must begin with run_start"));
        }
        let check = match ev.as_str() {
            "run_start" => check_stream_schema(&v).and_then(|()| {
                saw_start = true;
                num_field(&v, "t_us").map(drop)
            }),
            "run_end" => {
                saw_end = true;
                num_field(&v, "t_us").map(drop)
            }
            "span" => ["id", "t_us", "dur_us"]
                .iter()
                .try_for_each(|k| num_field(&v, k).map(drop))
                .and_then(|()| str_field(&v, "name").map(drop))
                .and_then(|()| num_field(&v, "tid").map(drop))
                .and_then(|()| match field(&v, "parent")? {
                    Value::Null | Value::Num(_) => Ok(()),
                    _ => Err("field `parent` is not a number or null".into()),
                }),
            "worker" => ["index", "busy_us", "wall_us", "jobs"]
                .iter()
                .try_for_each(|k| num_field(&v, k).map(drop))
                .and_then(|()| str_field(&v, "pool").map(drop))
                .and_then(|()| num_field(&v, "tid").map(drop)),
            "log" => ["level", "target", "msg"]
                .iter()
                .try_for_each(|k| str_field(&v, k).map(drop))
                .and_then(|()| num_field(&v, "t_us").map(drop))
                .and_then(|()| num_field(&v, "tid").map(drop)),
            "hist" => ["t_us", "count", "sum", "min", "max", "p50", "p90", "p99"]
                .iter()
                .try_for_each(|k| num_field(&v, k).map(drop))
                .and_then(|()| str_field(&v, "name").map(drop))
                .and_then(|()| str_field(&v, "unit").map(drop)),
            "counters" => num_field(&v, "t_us").map(drop).and_then(|()| {
                let obj =
                    field(&v, "counters")?.as_obj().ok_or("field `counters` is not an object")?;
                for (name, value) in obj {
                    if value.as_f64().is_none() {
                        return Err(format!("counter `{name}` is not a number"));
                    }
                }
                Ok(())
            }),
            "sample" => check_sample(&v, &mut last_tick, &mut prev_sample_counters),
            other => Err(format!("unknown event kind `{other}`")),
        };
        check.map_err(|e| format!("line {lineno}: {e}"))?;
        count += 1;
    }
    if count == 0 {
        return Err("empty event stream".into());
    }
    if !saw_start {
        return Err("no run_start event".into());
    }
    if !saw_end {
        return Err("no run_end event".into());
    }
    Ok(count)
}

/// Validate the optional span-aggregated self-profile section. Only
/// shape and internal consistency are checked here; which span names
/// and call counts are *expected* is obs-diff's job.
fn check_self_profile(sp: &Value) -> Result<(), String> {
    let spans = field(sp, "spans")?.as_arr().ok_or("field `spans` is not an array")?;
    for (i, s) in spans.iter().enumerate() {
        str_field(s, "name").map_err(|e| format!("self_profile.spans[{i}]: {e}"))?;
        for k in ["calls", "total_s", "self_s", "p50_us", "p99_us"] {
            num_field(s, k).map_err(|e| format!("self_profile.spans[{i}]: {e}"))?;
        }
        let total = num_field(s, "total_s").expect("checked");
        let own = num_field(s, "self_s").expect("checked");
        if own < 0.0 || own > total + 1e-6 {
            return Err(format!(
                "self_profile.spans[{i}]: self_s {own} outside [0, total_s {total}]"
            ));
        }
    }
    let tree = field(sp, "tree")?.as_arr().ok_or("field `tree` is not an array")?;
    for (i, e) in tree.iter().enumerate() {
        str_field(e, "name").map_err(|e| format!("self_profile.tree[{i}]: {e}"))?;
        for k in ["calls", "total_s"] {
            num_field(e, k).map_err(|e| format!("self_profile.tree[{i}]: {e}"))?;
        }
        match field(e, "parent").map_err(|e| format!("self_profile.tree[{i}]: {e}"))? {
            Value::Null | Value::Str(_) => {}
            _ => return Err(format!("self_profile.tree[{i}]: `parent` is not a string or null")),
        }
    }
    let pools = field(sp, "pools")?.as_arr().ok_or("field `pools` is not an array")?;
    for (i, p) in pools.iter().enumerate() {
        str_field(p, "pool").map_err(|e| format!("self_profile.pools[{i}]: {e}"))?;
        for k in ["workers", "jobs", "busy_s", "wall_s", "utilization"] {
            num_field(p, k).map_err(|e| format!("self_profile.pools[{i}]: {e}"))?;
        }
    }
    match field(sp, "critical_path")? {
        Value::Null => {}
        c => {
            str_field(c, "pool").map_err(|e| format!("self_profile.critical_path: {e}"))?;
            for k in
                ["workers", "wall_s", "max_busy_s", "mean_busy_s", "imbalance", "speedup_limit"]
            {
                num_field(c, k).map_err(|e| format!("self_profile.critical_path: {e}"))?;
            }
        }
    }
    Ok(())
}

/// Validate the shape of a `RUN_REPORT.json` document. Which counters
/// and histograms a run must have recorded is [`check_complete`]'s
/// question, so a fully warm resume run passes here.
///
/// # Errors
///
/// The first violation, naming the section and entry.
pub fn check_report(text: &str) -> Result<(), String> {
    let v = json::parse(text)?;
    let schema = str_field(&v, "schema")?;
    if schema != crate::RUN_REPORT_SCHEMA {
        return Err(format!("schema is `{schema}`, expected `{}`", crate::RUN_REPORT_SCHEMA));
    }
    let wall_s = num_field(&v, "wall_s")?;
    if wall_s <= 0.0 {
        return Err(format!("wall_s is {wall_s}, expected > 0"));
    }

    let phases = field(&v, "phases")?.as_arr().ok_or("field `phases` is not an array")?;
    if phases.is_empty() {
        return Err("no phases recorded".into());
    }
    for (i, p) in phases.iter().enumerate() {
        str_field(p, "name").map_err(|e| format!("phases[{i}]: {e}"))?;
        for k in ["count", "total_s"] {
            num_field(p, k).map_err(|e| format!("phases[{i}]: {e}"))?;
        }
    }

    let workers = field(&v, "workers")?.as_arr().ok_or("field `workers` is not an array")?;
    if workers.is_empty() {
        return Err("no workers recorded".into());
    }
    for (i, w) in workers.iter().enumerate() {
        str_field(w, "pool").map_err(|e| format!("workers[{i}]: {e}"))?;
        for k in ["index", "busy_s", "wall_s", "jobs", "busy_fraction"] {
            num_field(w, k).map_err(|e| format!("workers[{i}]: {e}"))?;
        }
        let frac = num_field(w, "busy_fraction").expect("checked");
        if !(0.0..=1.0 + 1e-6).contains(&frac) {
            return Err(format!("workers[{i}]: busy_fraction {frac} out of [0, 1]"));
        }
    }

    let counters = field(&v, "counters")?.as_arr().ok_or("field `counters` is not an array")?;
    for (i, c) in counters.iter().enumerate() {
        str_field(c, "name").map_err(|e| format!("counters[{i}]: {e}"))?;
        num_field(c, "value").map_err(|e| format!("counters[{i}]: {e}"))?;
    }

    let gauges = field(&v, "gauges")?.as_arr().ok_or("field `gauges` is not an array")?;
    for (i, g) in gauges.iter().enumerate() {
        str_field(g, "name").map_err(|e| format!("gauges[{i}]: {e}"))?;
        num_field(g, "value").map_err(|e| format!("gauges[{i}]: {e}"))?;
    }

    let hists = field(&v, "histograms")?.as_arr().ok_or("field `histograms` is not an array")?;
    for (i, h) in hists.iter().enumerate() {
        str_field(h, "name").map_err(|e| format!("histograms[{i}]: {e}"))?;
        str_field(h, "unit").map_err(|e| format!("histograms[{i}]: {e}"))?;
        for k in ["count", "sum", "min", "max", "p50", "p90", "p99"] {
            num_field(h, k).map_err(|e| format!("histograms[{i}]: {e}"))?;
        }
        let count = num_field(h, "count").expect("checked");
        if count <= 0.0 {
            return Err(format!("histograms[{i}]: count {count}, expected > 0"));
        }
        let (min, max) =
            (num_field(h, "min").expect("checked"), num_field(h, "max").expect("checked"));
        if min > max {
            return Err(format!("histograms[{i}]: min {min} > max {max}"));
        }
        for q in ["p50", "p90", "p99"] {
            let p = num_field(h, q).expect("checked");
            if p < min || p > max {
                return Err(format!("histograms[{i}]: {q} {p} outside [min, max]"));
            }
        }
    }

    // The self-profile section is optional (absent when no spans were
    // collected) but must be well-formed when present.
    match v.get("self_profile") {
        None | Some(Value::Null) => {}
        Some(sp) => check_self_profile(sp)?,
    }

    // The accuracy attribution section is optional (the experiment
    // harness writes it for suite runs) but must be well-formed when
    // present.
    if let Some(attrib) = v.get("attribution") {
        let arr = attrib.as_arr().ok_or("field `attribution` is not an array")?;
        for (i, a) in arr.iter().enumerate() {
            str_field(a, "benchmark").map_err(|e| format!("attribution[{i}]: {e}"))?;
            let phases = field(a, "phases")
                .and_then(|p| {
                    p.as_arr().ok_or_else(|| "field `phases` is not an array".to_string())
                })
                .map_err(|e| format!("attribution[{i}]: {e}"))?;
            for (j, p) in phases.iter().enumerate() {
                for k in ["cluster", "weight", "cpi_err_share"] {
                    num_field(p, k).map_err(|e| format!("attribution[{i}].phases[{j}]: {e}"))?;
                }
            }
        }
    }
    Ok(())
}

/// Check that a run report shows a complete instrumented run: every
/// [`REQUIRED_COUNTERS`] entry present and at least one histogram
/// recorded. Apply it after [`check_report`].
///
/// # Errors
///
/// Names the first missing counter, or says no histogram was recorded.
pub fn check_complete(text: &str) -> Result<(), String> {
    let v = json::parse(text)?;
    let counters = field(&v, "counters")?.as_arr().ok_or("field `counters` is not an array")?;
    for required in REQUIRED_COUNTERS {
        if !counters.iter().any(|c| c.get("name").and_then(Value::as_str) == Some(required)) {
            return Err(format!("missing required counter `{required}`"));
        }
    }
    let hists = field(&v, "histograms")?.as_arr().ok_or("field `histograms` is not an array")?;
    if hists.is_empty() {
        return Err("no histograms recorded".into());
    }
    Ok(())
}

/// Validate a `/metrics` scrape under the strict Prometheus text
/// checker; with an earlier scrape of the same run, additionally
/// require every counter series to be present and monotone
/// non-decreasing. Returns the number of samples in the current scrape.
///
/// # Errors
///
/// The first parse error (with its line number), or the first counter
/// that decreased or disappeared.
pub fn check_metrics(current: &str, prev: Option<&str>) -> Result<usize, String> {
    let cur = promtext::check(current)?;
    if let Some(prev_text) = prev {
        let prev = promtext::check(prev_text).map_err(|e| format!("previous scrape: {e}"))?;
        let cur_counters = cur.counter_values();
        for (name, pv) in prev.counter_values() {
            let cv = *cur_counters
                .get(name)
                .ok_or_else(|| format!("counter `{name}` disappeared between scrapes"))?;
            if cv < pv {
                return Err(format!("counter `{name}` decreased between scrapes ({pv} -> {cv})"));
            }
        }
    }
    Ok(cur.samples.len())
}

/// Validate a `GET /status` body against the `mlpa-status-v2` schema.
///
/// # Errors
///
/// The first missing or mistyped field, or a foreign schema tag.
pub fn check_status(text: &str) -> Result<(), String> {
    let v = json::parse(text)?;
    let schema = str_field(&v, "schema")?;
    if schema != crate::STATUS_SCHEMA {
        return Err(format!("schema is `{schema}`, expected `{}`", crate::STATUS_SCHEMA));
    }
    str_field(&v, "phase")?;
    for k in
        ["benchmarks_done", "benchmarks_total", "progress_permille", "uptime_ticks", "rss_bytes"]
    {
        num_field(&v, k)?;
    }
    let gauges = field(&v, "gauges")?.as_obj().ok_or("field `gauges` is not an object")?;
    for (name, value) in gauges {
        if value.as_f64().is_none() {
            return Err(format!("gauge `{name}` is not a number"));
        }
    }
    Ok(())
}
