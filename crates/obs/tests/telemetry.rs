//! Integration tests for the live telemetry subsystem: the background
//! sampler interleaving with instrumented worker threads, the final
//! sample emitted by `finish`, and the std-only status server.
//!
//! The obs registry is process-global, so every test takes `GLOBAL` and
//! resets state on entry.

use mlpa_obs::json::{self, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

static GLOBAL: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    let guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    mlpa_obs::reset_for_tests();
    guard
}

/// A collision-free scratch path (no temp-file crate available).
fn scratch(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("mlpa-obs-telem-{}-{seq}-{name}", std::process::id()))
}

/// Parse the sink as JSONL, panicking on any torn or malformed line.
fn parse_lines(path: &PathBuf) -> Vec<Value> {
    let text = std::fs::read_to_string(path).expect("sink file readable");
    text.lines()
        .map(|line| json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}")))
        .collect()
}

fn samples(events: &[Value]) -> Vec<&Value> {
    events.iter().filter(|e| e.get("ev").and_then(Value::as_str) == Some("sample")).collect()
}

#[test]
fn sampler_interleaves_cleanly_with_concurrent_instruments() {
    let _g = lock();
    let sink = scratch("stress.jsonl");
    mlpa_obs::init(&mlpa_obs::ObsConfig {
        enabled: true,
        sink: Some(sink.clone()),
        // Aggressive interval so samples land *between* (and race with)
        // the worker writes below.
        sample_ms: Some(1),
    })
    .expect("init");

    const WORKERS: usize = 4;
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            scope.spawn(move || {
                let mut guard = mlpa_obs::worker("stress", w);
                for i in 0..200u64 {
                    guard.busy(|| {
                        let _s = mlpa_obs::span_labeled("test.stress", &format!("w{w}"));
                        mlpa_obs::add("test.stress.ops", 1);
                        mlpa_obs::gauge_set("test.stress.last", i);
                        mlpa_obs::hist_record("test.stress.size", "n", i % 17);
                    });
                    if i % 50 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
            });
        }
    });
    mlpa_obs::finish();

    // Every line parses (parse_lines panics on a torn line) and the
    // stream passes the same contracts obs-check enforces.
    let events = parse_lines(&sink);
    let samples = samples(&events);
    assert!(samples.len() >= 2, "expected several samples, got {}", samples.len());

    let mut last_tick = -1.0;
    let mut last_ops = -1.0;
    for s in &samples {
        assert_eq!(
            s.get("schema").and_then(Value::as_str),
            Some("mlpa-sample-v1"),
            "sample schema tag"
        );
        let tick = s.get("tick").and_then(Value::as_f64).expect("tick");
        assert!(tick > last_tick, "ticks must strictly increase ({last_tick} -> {tick})");
        last_tick = tick;
        let counters = s.get("counters").expect("counters object");
        if let Some(ops) = counters.get("test.stress.ops").and_then(Value::as_f64) {
            assert!(ops >= last_ops, "counter went backwards ({last_ops} -> {ops})");
            last_ops = ops;
        }
    }
    // The final sample (emitted by finish) sees the completed run.
    let last = samples.last().expect("final sample");
    assert_eq!(
        last.get("counters").and_then(|c| c.get("test.stress.ops")).and_then(Value::as_f64),
        Some((WORKERS * 200) as f64),
    );
    assert!(
        last.get("gauges").and_then(|g| g.get("test.stress.last")).and_then(Value::as_f64)
            == Some(199.0),
        "final sample carries the last-written gauge"
    );
    let pools = last.get("pools").and_then(Value::as_arr).expect("pools array");
    assert!(
        pools.iter().any(|p| p.get("pool").and_then(Value::as_str) == Some("stress")
            && p.get("jobs").and_then(Value::as_f64) == Some((WORKERS * 200) as f64)),
        "final sample aggregates pool jobs: {pools:?}"
    );
    std::fs::remove_file(&sink).ok();
}

#[test]
fn finish_always_emits_a_final_sample_even_for_instant_runs() {
    let _g = lock();
    let sink = scratch("final.jsonl");
    mlpa_obs::init(&mlpa_obs::ObsConfig {
        enabled: true,
        sink: Some(sink.clone()),
        // An interval far longer than the run: only the immediate
        // t=0 sample and the final flush sample can exist.
        sample_ms: Some(60_000),
    })
    .expect("init");
    mlpa_obs::add("test.final.ops", 7);
    mlpa_obs::finish();

    let events = parse_lines(&sink);
    let samples = samples(&events);
    // A run shorter than the interval still produces a sample; whether
    // the startup tick also lands depends on thread scheduling.
    assert!(!samples.is_empty(), "no sample for an instant run");
    let last = samples.last().unwrap();
    assert_eq!(
        last.get("counters").and_then(|c| c.get("test.final.ops")).and_then(Value::as_f64),
        Some(7.0),
        "the final sample must flush state written after the last tick"
    );
    // The final sample lands before run_end closes the stream.
    let kinds: Vec<&str> =
        events.iter().filter_map(|e| e.get("ev").and_then(Value::as_str)).collect();
    let last_sample_at = kinds.iter().rposition(|k| *k == "sample").unwrap();
    let run_end_at = kinds.iter().rposition(|k| *k == "run_end").unwrap();
    assert!(last_sample_at < run_end_at, "sample after run_end: {kinds:?}");
    std::fs::remove_file(&sink).ok();
}

#[test]
fn status_server_round_trips_metrics_and_status() {
    let _g = lock();
    let sink = scratch("server.jsonl");
    mlpa_obs::init(&mlpa_obs::ObsConfig {
        enabled: true,
        sink: Some(sink.clone()),
        sample_ms: Some(5),
    })
    .expect("init");
    mlpa_obs::telemetry::set_run_phase("benchmarks");
    mlpa_obs::add("test.server.ops", 10);
    mlpa_obs::gauge_set("bench.done", 1);
    mlpa_obs::gauge_set("bench.total", 3);
    mlpa_obs::hist_record("test.server.size", "n", 12);

    // Port 0: the OS picks an ephemeral port, the bound address comes
    // back, and a second bind is idempotent.
    let addr = mlpa_obs::telemetry::serve_status(0).expect("bind status server");
    assert_eq!(mlpa_obs::telemetry::serve_status(0).expect("rebind"), addr);

    // /metrics parses under the strict Prometheus checker and carries
    // all three instrument kinds.
    let (code, scrape1) = mlpa_obs::http::get(addr, "/metrics").expect("GET /metrics");
    assert_eq!(code, 200);
    let exp = mlpa_obs::promtext::check(&scrape1)
        .unwrap_or_else(|e| panic!("scrape failed strict check: {e}\n{scrape1}"));
    assert_eq!(exp.samples.get("mlpa_counter_test_server_ops_total"), Some(&10.0));
    assert_eq!(exp.samples.get("mlpa_gauge_bench_done"), Some(&1.0));
    assert_eq!(
        exp.types.get("mlpa_hist_test_server_size_n").map(String::as_str),
        Some("histogram")
    );

    // Metrics are live: a counter bump shows up on the next scrape and
    // the exposition stays monotone.
    mlpa_obs::add("test.server.ops", 5);
    let (code, scrape2) = mlpa_obs::http::get(addr, "/metrics").expect("second GET");
    assert_eq!(code, 200);
    let exp2 = mlpa_obs::promtext::check(&scrape2).expect("second scrape");
    assert_eq!(exp2.samples.get("mlpa_counter_test_server_ops_total"), Some(&15.0));
    for (name, v1) in exp.counter_values() {
        let v2 = exp2.counter_values().get(name).copied().expect("counter persists");
        assert!(v2 >= v1, "counter `{name}` went backwards ({v1} -> {v2})");
    }

    // /status reports the run phase and progress gauges as JSON.
    let (code, status) = mlpa_obs::http::get(addr, "/status").expect("GET /status");
    assert_eq!(code, 200);
    let v = json::parse(&status).expect("status JSON");
    assert_eq!(v.get("schema").and_then(Value::as_str), Some("mlpa-status-v1"));
    assert_eq!(v.get("phase").and_then(Value::as_str), Some("benchmarks"));
    assert_eq!(v.get("benchmarks_done").and_then(Value::as_f64), Some(1.0));
    assert_eq!(v.get("benchmarks_total").and_then(Value::as_f64), Some(3.0));
    assert!(v.get("uptime_ticks").and_then(Value::as_f64).is_some());
    assert!(v.get("rss_bytes").and_then(Value::as_f64).is_some());

    // Unknown paths 404 rather than crashing the serve loop, and the
    // server still answers afterwards.
    let (code, _) = mlpa_obs::http::get(addr, "/nope").expect("GET /nope");
    assert_eq!(code, 404);
    let (code, _) = mlpa_obs::http::get(addr, "/status").expect("GET after 404");
    assert_eq!(code, 200);

    mlpa_obs::telemetry::stop_status_server();
    mlpa_obs::finish();
    // The sink is still a valid stream after server traffic.
    parse_lines(&sink);
    std::fs::remove_file(&sink).ok();
}

/// Regression test for the single-threaded accept loop: a slow-loris
/// client (connects, never sends a request line) used to occupy the
/// accept thread for the full read timeout, stalling every later
/// `/metrics` scrape behind it. With per-connection threads the
/// concurrent scrape must complete promptly.
#[test]
fn stalled_connection_does_not_delay_a_concurrent_scrape() {
    let _g = lock();
    mlpa_obs::init(&mlpa_obs::ObsConfig { enabled: true, sink: None, sample_ms: None })
        .expect("init");
    mlpa_obs::add("test.loris.ops", 3);
    let addr = mlpa_obs::telemetry::serve_status(0).expect("bind status server");

    // Stalled clients: one silent, one that sends a partial request
    // line and goes quiet. Both stay open across the scrape.
    let silent = std::net::TcpStream::connect(addr).expect("connect silent");
    let mut partial = std::net::TcpStream::connect(addr).expect("connect partial");
    std::io::Write::write_all(&mut partial, b"GET /met").expect("partial write");

    let t0 = std::time::Instant::now();
    let (code, scrape) = mlpa_obs::http::get(addr, "/metrics").expect("GET /metrics");
    let elapsed = t0.elapsed();
    assert_eq!(code, 200);
    assert!(scrape.contains("mlpa_counter_test_loris_ops_total 3"), "scrape content: {scrape}");
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "scrape stalled behind a slow-loris connection: {elapsed:?}"
    );

    drop(silent);
    drop(partial);
    mlpa_obs::telemetry::stop_status_server();
    mlpa_obs::finish();
}
