//! Convert an obs `events.jsonl` stream into Chrome `trace_event` JSON.
//!
//! The output loads in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`: spans become complete (`"ph":"X"`) events on
//! per-thread tracks, worker guards name their tracks (`"ph":"M"`
//! `thread_name` metadata), log lines become instants (`"ph":"i"`), and
//! `counters` snapshots become counter tracks (`"ph":"C"`) carrying
//! per-level cache hit rates and instruction deltas.
//!
//! Span, worker and log events must carry the `tid` of their thread.
//! The background sampler's `sample` events become counter tracks for
//! peak RSS and every live gauge.
//!
//! Usage: `mlpa-trace --events <events.jsonl> [--out <trace.json>]`
//! (stdout when `--out` is omitted).

use mlpa_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut events: Option<String> = None;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--events" => events = args.next(),
            "--out" => out = args.next(),
            other => {
                eprintln!("mlpa-trace: unknown argument `{other}`");
                eprintln!("usage: mlpa-trace --events <events.jsonl> [--out <trace.json>]");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(events) = events else {
        eprintln!("mlpa-trace: missing --events <events.jsonl>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&events) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mlpa-trace: {events}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match convert(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mlpa-trace: {events}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, trace) {
                eprintln!("mlpa-trace: {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("mlpa-trace: wrote {path}");
        }
        None => print!("{trace}"),
    }
    ExitCode::SUCCESS
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn num_field(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key).and_then(Value::as_f64).ok_or_else(|| format!("missing numeric field `{key}`"))
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

/// Cache levels for which hit-rate counter tracks are derived.
const CACHE_LEVELS: &[&str] = &["l1d", "l1i", "l2"];

/// Convert a JSONL event stream into a Chrome `trace_event` document.
fn convert(text: &str) -> Result<String, String> {
    let mut trace: Vec<Value> = Vec::new();
    trace.push(obj(vec![
        ("name", Value::Str("process_name".into())),
        ("ph", Value::Str("M".into())),
        ("pid", Value::Num(1.0)),
        ("args", obj(vec![("name", Value::Str("mlpa".into()))])),
    ]));
    // Counter snapshots arrive as cumulative totals; hit rates are
    // derived from deltas between successive snapshots.
    let mut prev_counters: BTreeMap<String, f64> = BTreeMap::new();
    let mut count = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let v = json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let ev = str_field(&v, "ev").map_err(|e| format!("line {lineno}: {e}"))?;
        let converted = match ev.as_str() {
            "span" => span_event(&v),
            "worker" => worker_events(&v),
            "log" => log_event(&v),
            "counters" => counter_events(&v, &mut prev_counters),
            "sample" => sample_events(&v),
            "run_start" | "run_end" => marker_event(&v, &ev),
            // Histogram summaries have no timeline extent; RUN_REPORT
            // carries them.
            "hist" => Ok(Vec::new()),
            other => Err(format!("unknown event kind `{other}`")),
        };
        let converted = converted.map_err(|e| format!("line {lineno}: {e}"))?;
        trace.extend(converted);
        count += 1;
    }
    if count == 0 {
        return Err("empty event stream".into());
    }
    let doc =
        obj(vec![("traceEvents", Value::Arr(trace)), ("displayTimeUnit", Value::Str("ms".into()))]);
    Ok(format!("{doc}\n"))
}

/// A closed span becomes one complete (`"ph":"X"`) slice.
fn span_event(v: &Value) -> Result<Vec<Value>, String> {
    let mut args = vec![("id", Value::Num(num_field(v, "id")?))];
    if let Some(p) = v.get("parent") {
        if p.as_f64().is_some() {
            args.push(("parent", p.clone()));
        }
    }
    if let Some(label) = v.get("label").and_then(Value::as_str) {
        args.push(("label", Value::Str(label.to_string())));
    }
    Ok(vec![obj(vec![
        ("name", Value::Str(str_field(v, "name")?)),
        ("cat", Value::Str("span".into())),
        ("ph", Value::Str("X".into())),
        ("ts", Value::Num(num_field(v, "t_us")?)),
        ("dur", Value::Num(num_field(v, "dur_us")?)),
        ("pid", Value::Num(1.0)),
        ("tid", Value::Num(num_field(v, "tid")?)),
        ("args", obj(args)),
    ])])
}

/// A worker guard names its thread's track after the pool and index.
fn worker_events(v: &Value) -> Result<Vec<Value>, String> {
    let pool = str_field(v, "pool")?;
    let index = num_field(v, "index")?;
    Ok(vec![obj(vec![
        ("name", Value::Str("thread_name".into())),
        ("ph", Value::Str("M".into())),
        ("pid", Value::Num(1.0)),
        ("tid", Value::Num(num_field(v, "tid")?)),
        ("args", obj(vec![("name", Value::Str(format!("{pool} worker {index}")))])),
    ])])
}

/// A log line becomes a thread-scoped instant.
fn log_event(v: &Value) -> Result<Vec<Value>, String> {
    Ok(vec![obj(vec![
        ("name", Value::Str(format!("[{}] {}", str_field(v, "target")?, str_field(v, "msg")?))),
        ("cat", Value::Str(str_field(v, "level")?)),
        ("ph", Value::Str("i".into())),
        ("ts", Value::Num(num_field(v, "t_us")?)),
        ("pid", Value::Num(1.0)),
        ("tid", Value::Num(num_field(v, "tid")?)),
        ("s", Value::Str("t".into())),
    ])])
}

/// `run_start` / `run_end` become process-scoped instants.
fn marker_event(v: &Value, name: &str) -> Result<Vec<Value>, String> {
    Ok(vec![obj(vec![
        ("name", Value::Str(name.to_string())),
        ("ph", Value::Str("i".into())),
        ("ts", Value::Num(num_field(v, "t_us")?)),
        ("pid", Value::Num(1.0)),
        ("s", Value::Str("p".into())),
    ])])
}

/// A cumulative counter snapshot becomes counter (`"ph":"C"`) samples:
/// per-level cache hit rates over the window since the last snapshot,
/// and the instructions executed in that window.
fn counter_events(v: &Value, prev: &mut BTreeMap<String, f64>) -> Result<Vec<Value>, String> {
    let ts = num_field(v, "t_us")?;
    let snapshot =
        v.get("counters").and_then(Value::as_obj).ok_or("missing object field `counters`")?;
    let cur: BTreeMap<String, f64> =
        snapshot.iter().filter_map(|(k, val)| val.as_f64().map(|n| (k.clone(), n))).collect();
    let delta =
        |key: &str| cur.get(key).copied().unwrap_or(0.0) - prev.get(key).copied().unwrap_or(0.0);
    let mut out = Vec::new();
    let mut rates = Vec::new();
    for level in CACHE_LEVELS {
        let hits = delta(&format!("sim.{level}.hits"));
        let misses = delta(&format!("sim.{level}.misses"));
        if hits + misses > 0.0 {
            // Two-decimal percent keeps the track readable in Perfetto.
            let rate = (10_000.0 * hits / (hits + misses)).round() / 100.0;
            rates.push((*level, Value::Num(rate)));
        }
    }
    if !rates.is_empty() {
        out.push(obj(vec![
            ("name", Value::Str("cache hit rate %".into())),
            ("ph", Value::Str("C".into())),
            ("ts", Value::Num(ts)),
            ("pid", Value::Num(1.0)),
            ("args", obj(rates)),
        ]));
    }
    let insts = delta("sim.instructions");
    if insts > 0.0 {
        out.push(obj(vec![
            ("name", Value::Str("instructions".into())),
            ("ph", Value::Str("C".into())),
            ("ts", Value::Num(ts)),
            ("pid", Value::Num(1.0)),
            ("args", obj(vec![("simulated", Value::Num(insts))])),
        ]));
    }
    *prev = cur;
    Ok(out)
}

/// A sampler tick becomes counter tracks: peak RSS in MiB plus one
/// track per live gauge. The cumulative counters a sample also carries
/// are skipped here — the periodic `counters` snapshots already feed
/// the derived hit-rate and instruction tracks.
fn sample_events(v: &Value) -> Result<Vec<Value>, String> {
    let ts = num_field(v, "t_us")?;
    let rss = num_field(v, "rss_bytes")?;
    let mut out = vec![obj(vec![
        ("name", Value::Str("peak RSS MiB".into())),
        ("ph", Value::Str("C".into())),
        ("ts", Value::Num(ts)),
        ("pid", Value::Num(1.0)),
        ("args", obj(vec![("rss", Value::Num((rss / (1024.0 * 1024.0) * 100.0).round() / 100.0))])),
    ])];
    if let Some(gauges) = v.get("gauges").and_then(Value::as_obj) {
        for (name, value) in gauges {
            if let Some(n) = value.as_f64() {
                out.push(obj(vec![
                    ("name", Value::Str(format!("gauge {name}"))),
                    ("ph", Value::Str("C".into())),
                    ("ts", Value::Num(ts)),
                    ("pid", Value::Num(1.0)),
                    ("args", obj(vec![("value", Value::Num(n))])),
                ]));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STREAM: &str = concat!(
        "{\"ev\":\"run_start\",\"schema\":\"mlpa-events-v3\",\"t_us\":0}\n",
        "{\"ev\":\"span\",\"name\":\"sim.detailed\",\"id\":1,\"parent\":null,\"tid\":2,\
         \"t_us\":10,\"dur_us\":50,\"label\":\"eon\"}\n",
        "{\"ev\":\"span\",\"name\":\"core.profile\",\"id\":2,\"parent\":1,\"tid\":2,\
         \"t_us\":20,\"dur_us\":5}\n",
        "{\"ev\":\"log\",\"t_us\":30,\"tid\":0,\"level\":\"info\",\"target\":\"suite\",\
         \"msg\":\"done \\\"x\\\"\"}\n",
        "{\"ev\":\"counters\",\"t_us\":40,\"counters\":{\"sim.l1d.hits\":90,\
         \"sim.l1d.misses\":10,\"sim.instructions\":100}}\n",
        "{\"ev\":\"counters\",\"t_us\":50,\"counters\":{\"sim.l1d.hits\":140,\
         \"sim.l1d.misses\":60,\"sim.instructions\":300}}\n",
        "{\"ev\":\"worker\",\"pool\":\"plan\",\"index\":3,\"tid\":2,\"busy_us\":3,\
         \"wall_us\":4,\"jobs\":1}\n",
        "{\"ev\":\"hist\",\"t_us\":60,\"name\":\"h\",\"unit\":\"n\",\"count\":1,\"sum\":1,\
         \"min\":1,\"max\":1,\"p50\":1,\"p90\":1,\"p99\":1}\n",
        "{\"ev\":\"run_end\",\"t_us\":99}\n",
    );

    fn events(doc: &Value) -> Vec<Value> {
        doc.get("traceEvents").unwrap().as_arr().unwrap().to_vec()
    }

    #[test]
    fn output_is_valid_chrome_trace_json() {
        let doc = json::parse(&convert(STREAM).unwrap()).unwrap();
        let evs = events(&doc);
        assert!(!evs.is_empty());
        for e in &evs {
            let ph = e.get("ph").and_then(Value::as_str).unwrap();
            assert!(["X", "M", "i", "C"].contains(&ph), "unexpected ph {ph}");
            if ph != "M" {
                assert!(e.get("ts").and_then(Value::as_f64).is_some(), "{e}");
            }
            if ph == "X" {
                assert!(e.get("dur").and_then(Value::as_f64).is_some(), "{e}");
            }
            assert!(e.get("pid").and_then(Value::as_f64).is_some(), "{e}");
        }
    }

    #[test]
    fn spans_map_to_complete_events_on_their_thread_track() {
        let doc = json::parse(&convert(STREAM).unwrap()).unwrap();
        let span = events(&doc)
            .into_iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("sim.detailed"))
            .unwrap();
        assert_eq!(span.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(span.get("ts").and_then(Value::as_f64), Some(10.0));
        assert_eq!(span.get("dur").and_then(Value::as_f64), Some(50.0));
        assert_eq!(span.get("tid").and_then(Value::as_f64), Some(2.0));
        let args = span.get("args").unwrap();
        assert_eq!(args.get("label").and_then(Value::as_str), Some("eon"));
    }

    #[test]
    fn workers_name_their_tracks() {
        let doc = json::parse(&convert(STREAM).unwrap()).unwrap();
        let meta = events(&doc)
            .into_iter()
            .find(|e| {
                e.get("name").and_then(Value::as_str) == Some("thread_name")
                    && e.get("tid").and_then(Value::as_f64) == Some(2.0)
            })
            .unwrap();
        let name = meta.get("args").unwrap().get("name").and_then(Value::as_str).unwrap();
        assert_eq!(name, "plan worker 3");
    }

    #[test]
    fn counter_snapshots_become_hit_rate_tracks() {
        let doc = json::parse(&convert(STREAM).unwrap()).unwrap();
        let tracks: Vec<Value> = events(&doc)
            .into_iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("cache hit rate %"))
            .collect();
        assert_eq!(tracks.len(), 2);
        // First snapshot: 90/(90+10) against the zero baseline.
        assert_eq!(tracks[0].get("args").unwrap().get("l1d").and_then(Value::as_f64), Some(90.0));
        // Second: delta 50 hits / (50 + 50) misses = 50%.
        assert_eq!(tracks[1].get("args").unwrap().get("l1d").and_then(Value::as_f64), Some(50.0));
        let insts: Vec<f64> = events(&doc)
            .into_iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("instructions"))
            .map(|e| e.get("args").unwrap().get("simulated").and_then(Value::as_f64).unwrap())
            .collect();
        assert_eq!(insts, vec![100.0, 200.0]);
    }

    #[test]
    fn sample_events_become_rss_and_gauge_tracks() {
        let v3 = concat!(
            "{\"ev\":\"run_start\",\"schema\":\"mlpa-events-v3\",\"t_us\":0}\n",
            "{\"ev\":\"sample\",\"schema\":\"mlpa-sample-v1\",\"tick\":0,\"t_us\":5,\
             \"rss_bytes\":3145728,\"counters\":{\"sim.instructions\":10},\
             \"gauges\":{\"sim.rob.occupancy\":14},\"pools\":[]}\n",
            "{\"ev\":\"run_end\",\"t_us\":9}\n",
        );
        let doc = json::parse(&convert(v3).unwrap()).unwrap();
        let rss = events(&doc)
            .into_iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("peak RSS MiB"))
            .unwrap();
        assert_eq!(rss.get("ph").and_then(Value::as_str), Some("C"));
        assert_eq!(rss.get("args").unwrap().get("rss").and_then(Value::as_f64), Some(3.0));
        let gauge = events(&doc)
            .into_iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("gauge sim.rob.occupancy"))
            .unwrap();
        assert_eq!(gauge.get("args").unwrap().get("value").and_then(Value::as_f64), Some(14.0));
    }

    #[test]
    fn rejects_malformed_streams() {
        assert!(convert("").is_err());
        assert!(convert("not json\n").is_err());
        assert!(convert("{\"ev\":\"mystery\",\"t_us\":0}\n").is_err());
        // A span without the `tid` of its thread has no track to go on.
        let untagged = "{\"ev\":\"span\",\"name\":\"a\",\"id\":1,\"parent\":null,\"t_us\":1,\
                        \"dur_us\":5}\n";
        assert!(convert(untagged).unwrap_err().contains("`tid`"));
    }
}
