//! Schema checker for obs output, used by the CI obs-smoke and
//! telemetry-smoke jobs.
//!
//! Validates (with no external tools) that:
//!
//! * a JSONL event stream holds exactly one well-formed JSON object per
//!   line, each with a known `ev` tag and that tag's required fields.
//!   Every `run_start` must declare `mlpa-events-v3`; span, worker and
//!   log events carry a numeric `tid`; the sampler's `sample` events
//!   carry their own `mlpa-sample-v1` schema tag, a strictly increasing
//!   `tick`, and per-sample counter totals that must never decrease. An
//!   event kind or schema string this checker does not know is rejected
//!   with a line-numbered, named error;
//! * a `RUN_REPORT.json` matches the `mlpa-run-report-v3` schema —
//!   including the gauge section, the optional span-aggregated
//!   self-profile, the histogram section and, when present, the
//!   accuracy attribution section — and reports the counters the
//!   acceptance criteria name (k-means iterations, cache hits/misses
//!   per level, instructions simulated);
//! * a `/metrics` scrape parses under the strict Prometheus text
//!   checker (`--metrics`), with counters monotone non-decreasing
//!   against an earlier scrape of the same run (`--metrics-prev`), and
//!   any `--metrics-counter-min NAME MIN` thresholds met (NAME is the
//!   dotted counter name, e.g. `serve.inflight_dedup` — the CI
//!   serve-smoke job uses this to prove concurrent identical requests
//!   actually deduplicated);
//! * a `/status` body matches the `mlpa-status-v2` schema (`--status`).
//!
//! Usage: `obs-check --events <events.jsonl> --report <RUN_REPORT.json>`
//! (any argument may be given alone). Exits non-zero with a
//! line-numbered message on the first violation.
//!
//! Warm-cache mode (`--min-cache-hit-rate R`, used by the CI cache-smoke
//! job) changes what a valid report looks like: a fully warm resume run
//! performs no simulation at all, so the usual required sim counters and
//! non-empty histogram requirement are waived; instead the report must
//! show `core.cache.hits / (hits + misses) >= R`. Independently,
//! `--require-zero NAME` (repeatable) asserts a counter is absent or
//! zero — e.g. `core.truth.passes` on a resumed run.

use mlpa_obs::json::{self, Value};
use mlpa_obs::promtext;
use std::process::ExitCode;

/// Counters a complete instrumented run must have recorded.
const REQUIRED_COUNTERS: &[&str] = &[
    "phase.kmeans.iterations",
    "sim.instructions",
    "sim.l1d.hits",
    "sim.l1d.misses",
    "sim.l2.hits",
    "sim.l2.misses",
];

/// What `check_report` should enforce beyond the base schema.
#[derive(Default)]
struct ReportChecks {
    /// Counters that must be absent or exactly zero.
    require_zero: Vec<String>,
    /// Warm-cache mode: waive the required sim counters and the
    /// non-empty-histogram rule (a fully warm run records neither), and
    /// require `core.cache.hits / (hits + misses)` to reach this value.
    min_cache_hit_rate: Option<f64>,
}

fn main() -> ExitCode {
    let mut events: Option<String> = None;
    let mut report: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut metrics_prev: Option<String> = None;
    let mut status: Option<String> = None;
    let mut counter_min: Vec<(String, f64)> = Vec::new();
    let mut checks = ReportChecks::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--events" => events = args.next(),
            "--report" => report = args.next(),
            "--metrics" => metrics = args.next(),
            "--metrics-prev" => metrics_prev = args.next(),
            "--status" => status = args.next(),
            "--require-zero" => match args.next() {
                Some(name) => checks.require_zero.push(name),
                None => {
                    eprintln!("obs-check: --require-zero needs a counter name");
                    return ExitCode::FAILURE;
                }
            },
            "--metrics-counter-min" => {
                let name = args.next();
                let min = args.next().and_then(|s| s.parse::<f64>().ok());
                match (name, min) {
                    (Some(name), Some(min)) if min >= 0.0 => counter_min.push((name, min)),
                    _ => {
                        eprintln!(
                            "obs-check: --metrics-counter-min needs a counter name \
                             and a non-negative threshold"
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--min-cache-hit-rate" => match args.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(r) if (0.0..=1.0).contains(&r) => checks.min_cache_hit_rate = Some(r),
                _ => {
                    eprintln!("obs-check: --min-cache-hit-rate needs a rate in [0, 1]");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("obs-check: unknown argument `{other}`");
                eprintln!(
                    "usage: obs-check [--events <file.jsonl>] [--report <RUN_REPORT.json>] \
                     [--metrics <scrape.txt> [--metrics-prev <scrape.txt>] \
                     [--metrics-counter-min <counter> <min>]...] \
                     [--status <status.json>] [--require-zero <counter>]... \
                     [--min-cache-hit-rate <0..1>]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if events.is_none() && report.is_none() && metrics.is_none() && status.is_none() {
        eprintln!("obs-check: nothing to do (pass --events, --report, --metrics, or --status)");
        return ExitCode::FAILURE;
    }
    if (metrics_prev.is_some() || !counter_min.is_empty()) && metrics.is_none() {
        eprintln!("obs-check: --metrics-prev / --metrics-counter-min need --metrics");
        return ExitCode::FAILURE;
    }

    if let Some(path) = events {
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|s| check_events(&s))
        {
            Ok(n) => println!("obs-check: {path}: {n} events OK"),
            Err(e) => {
                eprintln!("obs-check: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = report {
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|s| check_report(&s, &checks))
        {
            Ok(()) => println!("obs-check: {path}: report OK"),
            Err(e) => {
                eprintln!("obs-check: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = metrics {
        let prev = match metrics_prev.as_ref().map(std::fs::read_to_string).transpose() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("obs-check: {}: {e}", metrics_prev.as_deref().unwrap_or(""));
                return ExitCode::FAILURE;
            }
        };
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|s| check_metrics(&s, prev.as_deref(), &counter_min))
        {
            Ok(n) => println!("obs-check: {path}: {n} metric samples OK"),
            Err(e) => {
                eprintln!("obs-check: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = status {
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|s| check_status(&s))
        {
            Ok(()) => println!("obs-check: {path}: status OK"),
            Err(e) => {
                eprintln!("obs-check: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

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

/// A `run_start` must declare [`mlpa_obs::EVENTS_SCHEMA`].
fn check_stream_schema(v: &Value) -> Result<(), String> {
    match v.get("schema") {
        Some(Value::Str(s)) if s == mlpa_obs::EVENTS_SCHEMA => Ok(()),
        Some(Value::Str(s)) => Err(format!("unknown events schema `{s}`")),
        Some(_) => Err("field `schema` is not a string".into()),
        None => {
            Err(format!("run_start declares no schema, expected `{}`", mlpa_obs::EVENTS_SCHEMA))
        }
    }
}

/// Validate one `sample` event against the telemetry contract: the
/// payload schema must be [`mlpa_obs::SAMPLE_SCHEMA`], ticks strictly
/// increase, and no counter total may ever decrease between samples.
fn check_sample(
    v: &Value,
    last_tick: &mut Option<f64>,
    prev_counters: &mut Vec<(String, f64)>,
) -> Result<(), String> {
    match v.get("schema") {
        Some(Value::Str(s)) if s == mlpa_obs::SAMPLE_SCHEMA => {}
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
fn check_events(text: &str) -> Result<usize, String> {
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

/// Validate a `RUN_REPORT.json` document against the base schema plus
/// any extra `checks`.
fn check_report(text: &str, checks: &ReportChecks) -> Result<(), String> {
    let v = json::parse(text)?;
    let schema = str_field(&v, "schema")?;
    if schema != mlpa_obs::RUN_REPORT_SCHEMA {
        return Err(format!("schema is `{schema}`, expected `{}`", mlpa_obs::RUN_REPORT_SCHEMA));
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
    let mut values = Vec::new();
    for (i, c) in counters.iter().enumerate() {
        let name = str_field(c, "name").map_err(|e| format!("counters[{i}]: {e}"))?;
        let value = num_field(c, "value").map_err(|e| format!("counters[{i}]: {e}"))?;
        values.push((name, value));
    }
    // A fully warm resume run performs no simulation, so the sim counter
    // requirement only applies outside warm-cache mode.
    if checks.min_cache_hit_rate.is_none() {
        for required in REQUIRED_COUNTERS {
            if !values.iter().any(|(n, _)| n == required) {
                return Err(format!("missing required counter `{required}`"));
            }
        }
    }
    let counter = |name: &str| values.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    for name in &checks.require_zero {
        if let Some(value) = counter(name) {
            if value != 0.0 {
                return Err(format!("counter `{name}` is {value}, expected 0 or absent"));
            }
        }
    }
    if let Some(min_rate) = checks.min_cache_hit_rate {
        let hits = counter("core.cache.hits").unwrap_or(0.0);
        let misses = counter("core.cache.misses").unwrap_or(0.0);
        if hits + misses <= 0.0 {
            return Err("no core.cache.hits/misses recorded; was the run cached at all?".into());
        }
        let rate = hits / (hits + misses);
        if rate < min_rate {
            return Err(format!(
                "cache hit rate {rate:.3} ({hits} hits / {misses} misses) below required \
                 {min_rate:.3}"
            ));
        }
    }

    let gauges = field(&v, "gauges")?.as_arr().ok_or("field `gauges` is not an array")?;
    for (i, g) in gauges.iter().enumerate() {
        str_field(g, "name").map_err(|e| format!("gauges[{i}]: {e}"))?;
        num_field(g, "value").map_err(|e| format!("gauges[{i}]: {e}"))?;
    }

    let hists = field(&v, "histograms")?.as_arr().ok_or("field `histograms` is not an array")?;
    if hists.is_empty() && checks.min_cache_hit_rate.is_none() {
        return Err("no histograms recorded".into());
    }
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

    // The accuracy attribution section is optional (only emitted by the
    // experiment harness with --attrib) but must be well-formed when
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

/// Validate a `/metrics` scrape under the strict Prometheus text
/// checker; with an earlier scrape of the same run, additionally
/// require every counter series to be monotone non-decreasing; with
/// `counter_min` thresholds (dotted counter names), require each named
/// counter to reach its minimum. Returns the number of samples in the
/// current scrape.
fn check_metrics(
    current: &str,
    prev: Option<&str>,
    counter_min: &[(String, f64)],
) -> Result<usize, String> {
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
    for (name, min) in counter_min {
        // Accept the dotted registry name and map it to the rendered
        // series name, so CI asserts on the same spelling the code uses.
        let series = format!("mlpa_counter_{}_total", promtext::sanitize(name));
        let value = *cur
            .samples
            .get(series.as_str())
            .ok_or_else(|| format!("counter `{name}` (`{series}`) missing from scrape"))?;
        if value < *min {
            return Err(format!("counter `{name}` is {value}, expected at least {min}"));
        }
    }
    Ok(cur.samples.len())
}

/// Validate a `GET /status` body against the `mlpa-status-v2` schema.
fn check_status(text: &str) -> Result<(), String> {
    let v = json::parse(text)?;
    let schema = str_field(&v, "schema")?;
    if schema != mlpa_obs::STATUS_SCHEMA {
        return Err(format!("schema is `{schema}`, expected `{}`", mlpa_obs::STATUS_SCHEMA));
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

#[cfg(test)]
mod tests {
    use super::*;

    const START: &str = "{\"ev\":\"run_start\",\"schema\":\"mlpa-events-v3\",\"t_us\":0}\n";

    #[test]
    fn rejects_bad_event_lines() {
        assert!(check_events("").is_err());
        assert!(check_events(&format!("{START}not json\n")).is_err());
        assert!(check_events("{\"ev\":\"mystery\"}\n").is_err());
        // Missing run_end.
        assert!(check_events(START).unwrap_err().contains("run_end"));
        // First event must be run_start.
        assert!(check_events("{\"ev\":\"run_end\",\"t_us\":0}\n").is_err());
    }

    #[test]
    fn unknown_event_kinds_are_named_in_the_error() {
        // A bogus event planted mid-stream must fail with the kind
        // named and the line numbered, not be silently skipped.
        let planted = concat!(
            "{\"ev\":\"run_start\",\"schema\":\"mlpa-events-v3\",\"t_us\":0}\n",
            "{\"ev\":\"telemetry2\",\"t_us\":1}\n",
            "{\"ev\":\"run_end\",\"t_us\":9}\n",
        );
        let err = check_events(planted).unwrap_err();
        assert!(
            err.starts_with("line 2:") && err.contains("unknown event kind `telemetry2`"),
            "{err}"
        );
    }

    fn sample_line(tick: u64, insts: u64) -> String {
        format!(
            "{{\"ev\":\"sample\",\"schema\":\"mlpa-sample-v1\",\"tick\":{tick},\"t_us\":{},\
             \"rss_bytes\":1048576,\"counters\":{{\"sim.instructions\":{insts}}},\
             \"gauges\":{{\"sim.rob.occupancy\":12}},\
             \"pools\":[{{\"pool\":\"plan\",\"live\":2,\"jobs\":3,\"busy_ms\":40,\
             \"busy_frac\":1.7321}}]}}\n",
            tick * 250_000,
        )
    }

    #[test]
    fn accepts_a_complete_v3_stream_with_samples() {
        let stream = format!(
            concat!(
                "{START}",
                "{s0}",
                "{{\"ev\":\"span\",\"name\":\"a\",\"id\":1,\"parent\":null,\"tid\":0,\
                 \"t_us\":1,\"dur_us\":5}}\n",
                "{{\"ev\":\"log\",\"t_us\":2,\"tid\":0,\"level\":\"info\",\"target\":\"t\",\
                 \"msg\":\"m\"}}\n",
                "{{\"ev\":\"worker\",\"pool\":\"p\",\"index\":0,\"tid\":1,\"busy_us\":3,\
                 \"wall_us\":4,\"jobs\":1}}\n",
                "{{\"ev\":\"counters\",\"t_us\":5,\"counters\":{{\"sim.instructions\":10}}}}\n",
                "{s1}",
                "{{\"ev\":\"hist\",\"t_us\":8,\"name\":\"sim.rob.occupancy\",\"unit\":\"n\",\
                 \"count\":4,\"sum\":20,\"min\":2,\"max\":8,\"p50\":7,\"p90\":8,\"p99\":8}}\n",
                "{{\"ev\":\"run_end\",\"t_us\":9}}\n",
            ),
            START = START,
            s0 = sample_line(0, 100),
            s1 = sample_line(1, 250),
        );
        assert_eq!(check_events(&stream).unwrap(), 9);
    }

    #[test]
    fn sample_contract_is_enforced() {
        let wrap = |middle: &str| format!("{START}{middle}{{\"ev\":\"run_end\",\"t_us\":9}}\n");

        // The payload must declare the sample schema this checker knows.
        let bad_schema = sample_line(0, 100).replace("mlpa-sample-v1", "mlpa-sample-v9");
        let err = check_events(&wrap(&bad_schema)).unwrap_err();
        assert!(err.contains("unknown sample schema `mlpa-sample-v9`"), "{err}");

        // Ticks must strictly increase.
        let stuck = format!("{}{}", sample_line(3, 100), sample_line(3, 200));
        let err = check_events(&wrap(&stuck)).unwrap_err();
        assert!(err.starts_with("line 3:") && err.contains("tick"), "{err}");

        // Counter totals never decrease between samples.
        let shrinking = format!("{}{}", sample_line(0, 500), sample_line(1, 400));
        let err = check_events(&wrap(&shrinking)).unwrap_err();
        assert!(err.starts_with("line 3:") && err.contains("decreased between samples"), "{err}");
    }

    #[test]
    fn rejects_mixed_schema_streams_with_line_numbers() {
        // A span without `tid`.
        let untagged_span = format!(
            "{START}{{\"ev\":\"span\",\"name\":\"a\",\"id\":1,\"parent\":null,\"t_us\":1,\
             \"dur_us\":5}}\n{{\"ev\":\"run_end\",\"t_us\":9}}\n"
        );
        let err = check_events(&untagged_span).unwrap_err();
        assert!(err.starts_with("line 2:") && err.contains("`tid`"), "{err}");

        // A run_start that declares no schema.
        let undeclared = "{\"ev\":\"run_start\",\"t_us\":0}\n{\"ev\":\"run_end\",\"t_us\":1}\n";
        let err = check_events(undeclared).unwrap_err();
        assert!(err.starts_with("line 1:") && err.contains("no schema"), "{err}");

        // A second run in an older generation, concatenated on.
        let concatenated = format!(
            "{START}{{\"ev\":\"run_end\",\"t_us\":1}}\n\
             {{\"ev\":\"run_start\",\"schema\":\"mlpa-events-v2\",\"t_us\":0}}\n\
             {{\"ev\":\"run_end\",\"t_us\":1}}\n"
        );
        let err = check_events(&concatenated).unwrap_err();
        assert!(
            err.starts_with("line 3:") && err.contains("unknown events schema `mlpa-events-v2`"),
            "{err}"
        );

        // Unknown future schema.
        let unknown = "{\"ev\":\"run_start\",\"schema\":\"mlpa-events-v4\",\"t_us\":0}\n";
        assert!(check_events(unknown).unwrap_err().contains("unknown events schema"));
    }

    fn sample_report() -> mlpa_obs::Report {
        mlpa_obs::Report {
            wall_s: 1.0,
            phases: vec![mlpa_obs::PhaseStat {
                name: "core.profile".into(),
                count: 2,
                total_s: 0.5,
            }],
            workers: vec![mlpa_obs::WorkerStat {
                pool: "plan".into(),
                index: 0,
                busy_s: 0.4,
                wall_s: 0.5,
                jobs: 3,
                busy_fraction: 0.8,
            }],
            counters: REQUIRED_COUNTERS.iter().map(|n| (n.to_string(), 1)).collect(),
            gauges: vec![("sim.rob.occupancy".into(), 12)],
            histograms: vec![mlpa_obs::HistogramStat {
                name: "sim.rob.occupancy".into(),
                unit: "n".into(),
                count: 4,
                sum: 20,
                min: 2,
                max: 8,
                p50: 7,
                p90: 8,
                p99: 8,
            }],
            self_profile: None,
        }
    }

    fn base() -> ReportChecks {
        ReportChecks::default()
    }

    #[test]
    fn report_schema_is_enforced() {
        let mut report = sample_report();
        assert!(check_report(&report.to_json(), &base()).is_ok());
        report.counters.remove(0);
        let err = check_report(&report.to_json(), &base()).unwrap_err();
        assert!(err.contains("phase.kmeans.iterations"), "{err}");
    }

    #[test]
    fn report_histograms_are_validated() {
        let mut report = sample_report();
        report.histograms.clear();
        assert!(check_report(&report.to_json(), &base()).unwrap_err().contains("histograms"));
        let mut report = sample_report();
        report.histograms[0].p99 = 9; // outside [min, max]
        let err = check_report(&report.to_json(), &base()).unwrap_err();
        assert!(err.contains("p99"), "{err}");
    }

    #[test]
    fn report_self_profile_is_validated_when_present() {
        use mlpa_obs::selfprofile::{SelfProfile, SpanAgg, SpanEdge};
        let mut report = sample_report();
        report.self_profile = Some(SelfProfile {
            spans: vec![SpanAgg {
                name: "core.profile".into(),
                calls: 2,
                total_s: 0.5,
                self_s: 0.3,
                p50_us: 100,
                p99_us: 400,
            }],
            tree: vec![SpanEdge {
                parent: None,
                name: "core.profile".into(),
                calls: 2,
                total_s: 0.5,
            }],
            ..SelfProfile::default()
        });
        assert!(
            check_report(&report.to_json(), &base()).is_ok(),
            "{:?}",
            check_report(&report.to_json(), &base())
        );
        // A span whose self time exceeds its total is inconsistent.
        report.self_profile.as_mut().unwrap().spans[0].self_s = 0.9;
        let err = check_report(&report.to_json(), &base()).unwrap_err();
        assert!(err.contains("self_s"), "{err}");
    }

    #[test]
    fn report_attribution_section_is_validated_when_present() {
        let report = sample_report();
        let good = "[{\"benchmark\": \"eon\", \"phases\": [{\"cluster\": 0, \"weight\": 1.0, \
                    \"cpi_err_share\": -0.01}]}]";
        let doc = report.to_json_with(&[("attribution".to_string(), good.to_string())]);
        assert!(check_report(&doc, &base()).is_ok(), "{:?}", check_report(&doc, &base()));
        let bad = "[{\"phases\": []}]";
        let doc = report.to_json_with(&[("attribution".to_string(), bad.to_string())]);
        assert!(check_report(&doc, &base()).unwrap_err().contains("benchmark"));
    }

    #[test]
    fn require_zero_accepts_absent_or_zero_and_rejects_nonzero() {
        let mut report = sample_report();
        let checks = ReportChecks {
            require_zero: vec!["core.truth.passes".into(), "core.profile.passes".into()],
            ..ReportChecks::default()
        };
        // Absent counters pass.
        assert!(check_report(&report.to_json(), &checks).is_ok());
        // Present-but-zero passes.
        report.counters.push(("core.truth.passes".into(), 0));
        assert!(check_report(&report.to_json(), &checks).is_ok());
        // Nonzero fails with the counter named.
        report.counters.push(("core.profile.passes".into(), 3));
        let err = check_report(&report.to_json(), &checks).unwrap_err();
        assert!(err.contains("core.profile.passes") && err.contains("expected 0"), "{err}");
    }

    #[test]
    fn warm_cache_mode_waives_sim_requirements_and_gates_hit_rate() {
        // A fully warm run: no sim counters, no histograms, only cache
        // traffic. The base checks reject it; warm-cache mode accepts it
        // when the hit rate clears the bar.
        let mut report = sample_report();
        report.counters = vec![("core.cache.hits".into(), 19), ("core.cache.misses".into(), 1)];
        report.histograms.clear();
        assert!(check_report(&report.to_json(), &base()).is_err());
        let warm = ReportChecks { min_cache_hit_rate: Some(0.9), ..ReportChecks::default() };
        assert!(
            check_report(&report.to_json(), &warm).is_ok(),
            "{:?}",
            check_report(&report.to_json(), &warm)
        );

        // Too many misses: rejected with the measured rate.
        report.counters = vec![("core.cache.hits".into(), 1), ("core.cache.misses".into(), 1)];
        let err = check_report(&report.to_json(), &warm).unwrap_err();
        assert!(err.contains("hit rate") && err.contains("0.5"), "{err}");

        // No cache traffic at all: a warm-cache check must not pass
        // vacuously (0/0 is not a 100% hit rate).
        report.counters.clear();
        let err = check_report(&report.to_json(), &warm).unwrap_err();
        assert!(err.contains("cached at all"), "{err}");
    }

    fn scrape(insts: u64) -> String {
        format!(
            "# HELP mlpa_counter_sim_instructions_total Monotonic counter.\n\
             # TYPE mlpa_counter_sim_instructions_total counter\n\
             mlpa_counter_sim_instructions_total {insts}\n\
             # HELP mlpa_gauge_sim_rob_occupancy Last-write-wins gauge.\n\
             # TYPE mlpa_gauge_sim_rob_occupancy gauge\n\
             mlpa_gauge_sim_rob_occupancy 12\n"
        )
    }

    #[test]
    fn metrics_scrapes_must_parse_and_counters_must_grow() {
        assert_eq!(check_metrics(&scrape(100), None, &[]).unwrap(), 2);
        // Counters up or flat between scrapes: fine. Gauges may move
        // either way and are not compared.
        assert!(check_metrics(&scrape(250), Some(&scrape(100)), &[]).is_ok());
        assert!(check_metrics(&scrape(100), Some(&scrape(100)), &[]).is_ok());
        // A shrinking counter is a torn or restarted registry.
        let err = check_metrics(&scrape(100), Some(&scrape(250)), &[]).unwrap_err();
        assert!(err.contains("decreased between scrapes"), "{err}");
        // A malformed exposition is rejected outright.
        assert!(check_metrics("mlpa_counter_x_total 1\n", None, &[]).is_err());
    }

    #[test]
    fn counter_thresholds_accept_dotted_names() {
        let met = [("sim.instructions".to_string(), 100.0)];
        assert!(check_metrics(&scrape(100), None, &met).is_ok());
        let unmet = [("sim.instructions".to_string(), 101.0)];
        let err = check_metrics(&scrape(100), None, &unmet).unwrap_err();
        assert!(err.contains("at least 101"), "{err}");
        let missing = [("serve.inflight_dedup".to_string(), 1.0)];
        let err = check_metrics(&scrape(100), None, &missing).unwrap_err();
        assert!(err.contains("serve.inflight_dedup") && err.contains("missing"), "{err}");
    }

    #[test]
    fn status_body_is_validated() {
        let good = "{\"schema\":\"mlpa-status-v2\",\"phase\":\"benchmarks\",\
                    \"benchmarks_done\":1,\"benchmarks_total\":3,\"progress_permille\":420,\
                    \"uptime_ticks\":12,\"rss_bytes\":1048576,\
                    \"gauges\":{\"bench.done\":1}}";
        assert!(check_status(good).is_ok(), "{:?}", check_status(good));
        let err = check_status(&good.replace("mlpa-status-v2", "mlpa-status-v1")).unwrap_err();
        assert!(err.contains("mlpa-status-v1"), "{err}");
        let err = check_status(&good.replace("\"progress_permille\":420,", "")).unwrap_err();
        assert!(err.contains("progress_permille"), "{err}");
        let err = check_status(&good.replace(",\"uptime_ticks\":12", "")).unwrap_err();
        assert!(err.contains("uptime_ticks"), "{err}");
    }
}
