//! Integration tests for the obs registries, sink and report, with
//! collection switched on at runtime.
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
    std::env::temp_dir().join(format!("mlpa-obs-test-{}-{seq}-{name}", std::process::id()))
}

fn parse_lines(path: &PathBuf) -> Vec<Value> {
    let text = std::fs::read_to_string(path).expect("sink file readable");
    text.lines()
        .map(|line| json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}")))
        .collect()
}

#[test]
fn spans_nest_across_thread_scope_workers() {
    let _g = lock();
    let sink = scratch("nesting.jsonl");
    mlpa_obs::init(&mlpa_obs::ObsConfig {
        enabled: true,
        sink: Some(sink.clone()),
        sample_ms: None,
    })
    .expect("init");

    const WORKERS: usize = 4;
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            scope.spawn(move || {
                let outer = mlpa_obs::span_labeled("test.outer", &format!("w{w}"));
                assert_ne!(outer.id(), 0, "span ids start at 1 while enabled");
                for _ in 0..3 {
                    let _inner = mlpa_obs::span_labeled("test.inner", &format!("w{w}"));
                }
            });
        }
    });
    mlpa_obs::finish();

    // Rebuild the hierarchy from the sink: each worker's inner spans
    // must point at that same worker's outer span, and each outer span
    // must be a root (parent null) — worker threads do not inherit the
    // spawning thread's stack.
    let events = parse_lines(&sink);
    let mut outer_id_by_label = std::collections::BTreeMap::new();
    for ev in &events {
        if ev.get("ev").and_then(Value::as_str) == Some("span")
            && ev.get("name").and_then(Value::as_str) == Some("test.outer")
        {
            let label = ev.get("label").and_then(Value::as_str).expect("label").to_string();
            assert_eq!(ev.get("parent"), Some(&Value::Null), "outer span must be a root");
            outer_id_by_label.insert(label, ev.get("id").and_then(Value::as_f64).expect("id"));
        }
    }
    assert_eq!(outer_id_by_label.len(), WORKERS);

    let mut inner_count = 0;
    for ev in &events {
        if ev.get("ev").and_then(Value::as_str) == Some("span")
            && ev.get("name").and_then(Value::as_str) == Some("test.inner")
        {
            let label = ev.get("label").and_then(Value::as_str).expect("label");
            let parent = ev.get("parent").and_then(Value::as_f64).expect("inner has a parent");
            assert_eq!(
                outer_id_by_label.get(label),
                Some(&parent),
                "inner span of {label} nests under its own thread's outer span"
            );
            inner_count += 1;
        }
    }
    assert_eq!(inner_count, WORKERS * 3);

    // Aggregated totals match, and the report carries them.
    let report = mlpa_obs::report();
    let outer = report.phases.iter().find(|p| p.name == "test.outer").expect("outer phase");
    let inner = report.phases.iter().find(|p| p.name == "test.inner").expect("inner phase");
    assert_eq!(outer.count, WORKERS as u64);
    assert_eq!(inner.count, (WORKERS * 3) as u64);
    assert!(outer.total_s.is_finite() && outer.total_s >= 0.0);
    std::fs::remove_file(&sink).ok();
}

/// A task run on a `pool` helper records the same span edges (names,
/// parents, calls) as the same task run inline on the calling thread,
/// and its spans point at the calling thread's span in the sink.
#[test]
fn pool_helpers_record_the_same_span_edges_as_inline_tasks() {
    const TASKS: usize = 3;
    // Returns the (name, parent, calls) edges and the number of threads
    // the task spans ran on.
    let run = |workers: usize| {
        let _g = lock();
        let sink = scratch("pool-edges.jsonl");
        mlpa_obs::init(&mlpa_obs::ObsConfig {
            enabled: true,
            sink: Some(sink.clone()),
            sample_ms: None,
        })
        .expect("init");
        let started = AtomicU64::new(0);
        let outer_id = {
            let outer = mlpa_obs::span("test.caller");
            mlpa_obs::pool::run(
                Some(workers),
                TASKS,
                || (),
                |_, i| {
                    let _task = mlpa_obs::span("test.task");
                    started.fetch_add(1, Ordering::SeqCst);
                    // With helpers, no task ends before every task has
                    // started, so each runs on a thread of its own.
                    while workers > 1 && started.load(Ordering::SeqCst) < TASKS as u64 {
                        std::thread::yield_now();
                    }
                    for _ in 0..=i {
                        let _child = mlpa_obs::span("test.child");
                    }
                },
            );
            outer.id()
        };
        mlpa_obs::finish();
        let mut edges: Vec<(String, Option<String>, u64)> = mlpa_obs::span_edges_snapshot()
            .into_iter()
            .map(|e| (e.name, e.parent, e.calls))
            .collect();
        edges.sort();
        let tids: std::collections::BTreeSet<u64> = parse_lines(&sink)
            .iter()
            .filter(|ev| ev.get("name").and_then(Value::as_str) == Some("test.task"))
            .map(|ev| {
                let parent = ev.get("parent").and_then(Value::as_f64).expect("task has a parent");
                assert_eq!(parent, outer_id as f64, "task span parents on the caller's span");
                ev.get("tid").and_then(Value::as_f64).expect("tid") as u64
            })
            .collect();
        std::fs::remove_file(&sink).ok();
        (edges, tids.len())
    };
    let (inline, inline_tids) = run(1);
    let (helped, helped_tids) = run(TASKS);
    assert_eq!(inline_tids, 1);
    assert_eq!(helped_tids, TASKS, "every task ran on its own thread");
    assert_eq!(inline, helped);
    let edge =
        |name: &str, parent: &str, calls: u64| (name.to_string(), Some(parent.to_string()), calls);
    assert!(inline.contains(&edge("test.task", "test.caller", 3)), "{inline:?}");
    assert!(inline.contains(&edge("test.child", "test.task", 6)), "{inline:?}");
}

#[test]
fn counters_are_atomic_under_contention() {
    let _g = lock();
    mlpa_obs::set_enabled(true);

    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 100_000;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    // Mix first-touch registration races with plain
                    // increments and a non-unit delta.
                    mlpa_obs::add("test.contended", 1);
                    if i == 0 {
                        mlpa_obs::add("test.late", t + 1);
                    }
                }
            });
        }
    });

    assert_eq!(mlpa_obs::counter_value("test.contended"), THREADS * PER_THREAD);
    assert_eq!(mlpa_obs::counter_value("test.late"), THREADS * (THREADS + 1) / 2);
    assert_eq!(mlpa_obs::counter_value("test.never_touched"), 0);

    let snapshot = mlpa_obs::counters_snapshot();
    assert!(snapshot.iter().any(|(n, v)| n == "test.contended" && *v == THREADS * PER_THREAD));
}

#[test]
fn sink_is_line_buffered_one_object_per_line() {
    let _g = lock();
    let sink = scratch("lines.jsonl");
    mlpa_obs::init(&mlpa_obs::ObsConfig {
        enabled: true,
        sink: Some(sink.clone()),
        sample_ms: None,
    })
    .expect("init");

    // Interleave event kinds from several threads; every line must
    // still be one complete JSON object (writes are mutex-serialised
    // and flushed per line).
    std::thread::scope(|scope| {
        for w in 0..4 {
            scope.spawn(move || {
                let mut worker = mlpa_obs::worker("test-pool", w);
                for i in 0..50 {
                    worker.busy(|| {
                        let _s = mlpa_obs::span_labeled("test.job", &format!("w{w}.j{i}"));
                        mlpa_obs::add("test.jobs", 1);
                    });
                }
            });
        }
    });
    mlpa_obs::info!("test", "message with \"quotes\", a \\ backslash and a\nnewline");
    mlpa_obs::finish();

    let text = std::fs::read_to_string(&sink).expect("sink file readable");
    assert!(text.ends_with('\n'), "sink ends with a complete line");
    let mut kinds = std::collections::BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let v = json::parse(line)
            .unwrap_or_else(|e| panic!("line {}: not a single JSON object: {e}", i + 1));
        let kind = v.get("ev").and_then(Value::as_str).expect("ev tag").to_string();
        *kinds.entry(kind).or_insert(0u32) += 1;
    }
    assert_eq!(kinds.get("run_start"), Some(&1));
    assert_eq!(kinds.get("run_end"), Some(&1));
    assert_eq!(kinds.get("span"), Some(&200));
    assert_eq!(kinds.get("worker"), Some(&4));
    assert_eq!(kinds.get("log"), Some(&1));

    // The escaped log line survived the round trip intact.
    let report = mlpa_obs::report();
    assert!(report.workers.len() == 4);
    for w in &report.workers {
        assert_eq!(w.pool, "test-pool");
        assert_eq!(w.jobs, 50);
        assert!(w.busy_fraction >= 0.0 && w.busy_fraction <= 1.0 + 1e-6);
    }
    std::fs::remove_file(&sink).ok();
}

/// A long-lived process opens a guard on the same slot again and
/// again (a daemon's `plan` guard per plan execution): the report keeps
/// one row per `(pool, index)`, with jobs and times summed over guards.
#[test]
fn guards_on_one_slot_share_one_row() {
    let _g = lock();
    mlpa_obs::set_enabled(true);
    const GUARDS: u64 = 25;
    for _ in 0..GUARDS {
        let mut worker = mlpa_obs::worker("test-slot", 0);
        worker.busy(|| ());
        worker.busy(|| ());
    }
    let report = mlpa_obs::report();
    mlpa_obs::set_enabled(false);
    assert_eq!(report.workers.len(), 1, "{:?}", report.workers);
    let row = &report.workers[0];
    assert_eq!((row.pool.as_str(), row.index), ("test-slot", 0));
    assert_eq!(row.jobs, 2 * GUARDS);
    assert!(row.busy_fraction >= 0.0 && row.busy_fraction <= 1.0 + 1e-6, "{row:?}");
}

/// The log2 bucket map and its inverse, pinned at every power-of-two
/// boundary (the off-by-one surface of the whole instrument).
#[test]
fn hist_bucket_boundaries() {
    assert_eq!(mlpa_obs::hist_bucket(0), 0);
    assert_eq!(mlpa_obs::hist_bucket(1), 1);
    assert_eq!(mlpa_obs::hist_bucket(2), 2);
    assert_eq!(mlpa_obs::hist_bucket(3), 2);
    assert_eq!(mlpa_obs::hist_bucket(4), 3);
    assert_eq!(mlpa_obs::hist_bucket(u64::MAX), 64);
    for k in 1..64u32 {
        // 2^k opens bucket k+1; 2^k - 1 closes bucket k.
        assert_eq!(mlpa_obs::hist_bucket(1u64 << k), k as usize + 1, "2^{k}");
        assert_eq!(mlpa_obs::hist_bucket((1u64 << k) - 1), k as usize, "2^{k}-1");
    }
    assert_eq!(mlpa_obs::hist_bucket_max(0), 0);
    assert_eq!(mlpa_obs::hist_bucket_max(1), 1);
    assert_eq!(mlpa_obs::hist_bucket_max(64), u64::MAX);
    assert_eq!(mlpa_obs::hist_bucket_max(65), u64::MAX);
    // Round trip: every value lands in a bucket whose range covers it.
    for v in [0u64, 1, 2, 3, 7, 8, 1000, u64::MAX / 2, u64::MAX] {
        let b = mlpa_obs::hist_bucket(v);
        assert!(v <= mlpa_obs::hist_bucket_max(b), "{v} above its bucket's max");
        if b > 0 {
            assert!(v > mlpa_obs::hist_bucket_max(b - 1), "{v} fits the previous bucket");
        }
        assert!(b < mlpa_obs::HIST_BUCKETS);
    }
}

/// Concurrent `hist_record` and tally merges must lose no values: the
/// final snapshot's count/sum/min/max and bucket-derived quantiles
/// equal a single-threaded reference over the same multiset.
#[test]
fn histograms_merge_exactly_under_contention() {
    let _g = lock();
    mlpa_obs::set_enabled(true);

    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 20_000;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                let mut tally = mlpa_obs::HistTally::default();
                for i in 0..PER_THREAD {
                    let v = t * PER_THREAD + i;
                    if i % 2 == 0 {
                        // Direct global records race with tally merges.
                        mlpa_obs::hist_record("test.contended_hist", "n", v);
                    } else {
                        tally.record(v);
                    }
                }
                mlpa_obs::hist_merge("test.contended_hist", "n", &tally);
            });
        }
    });

    let stat = mlpa_obs::histograms_snapshot()
        .into_iter()
        .find(|h| h.name == "test.contended_hist")
        .expect("histogram registered");
    let n = THREADS * PER_THREAD;
    assert_eq!(stat.unit, "n");
    assert_eq!(stat.count, n);
    assert_eq!(stat.sum, n * (n - 1) / 2);
    assert_eq!(stat.min, 0);
    assert_eq!(stat.max, n - 1);

    // Reference quantiles from a single-threaded bucket fill of the
    // same values 0..n.
    let mut buckets = [0u64; mlpa_obs::HIST_BUCKETS];
    for v in 0..n {
        buckets[mlpa_obs::hist_bucket(v)] += 1;
    }
    for (q, got) in [(0.5, stat.p50), (0.9, stat.p90), (0.99, stat.p99)] {
        let want = mlpa_obs::hist_quantile(&buckets, n, q, 0, n - 1);
        assert_eq!(got, want, "q={q}");
        assert!((stat.min..=stat.max).contains(&got), "q={q} outside [min,max]");
    }
}

/// Span durations land in the separate `span.`-prefixed registry, and
/// `finish()` emits one `hist` summary event per histogram.
#[test]
fn span_histograms_and_hist_events() {
    let _g = lock();
    let sink = scratch("hist.jsonl");
    mlpa_obs::init(&mlpa_obs::ObsConfig {
        enabled: true,
        sink: Some(sink.clone()),
        sample_ms: None,
    })
    .expect("init");

    for _ in 0..5 {
        let _s = mlpa_obs::span("test.hist_span");
    }
    mlpa_obs::hist_record("test.plain", "n", 3);
    mlpa_obs::finish();

    let hists = mlpa_obs::histograms_snapshot();
    let span_hist = hists.iter().find(|h| h.name == "span.test.hist_span").expect("span hist");
    assert_eq!(span_hist.unit, "us");
    assert_eq!(span_hist.count, 5);
    assert!(hists.iter().any(|h| h.name == "test.plain" && h.count == 1));

    let events = parse_lines(&sink);
    let hist_events: Vec<&Value> =
        events.iter().filter(|e| e.get("ev").and_then(Value::as_str) == Some("hist")).collect();
    assert_eq!(hist_events.len(), hists.len(), "one hist event per histogram");
    for he in hist_events {
        let name = he.get("name").and_then(Value::as_str).expect("name");
        let h = hists.iter().find(|h| h.name == name).expect("snapshot entry");
        assert_eq!(he.get("count").and_then(Value::as_f64), Some(h.count as f64));
        assert_eq!(he.get("p99").and_then(Value::as_f64), Some(h.p99 as f64));
    }
    std::fs::remove_file(&sink).ok();
}

/// Runtime-disabled, the histogram sites record nothing — same
/// contract as counters and spans.
#[test]
fn disabled_histograms_record_nothing() {
    let _g = lock();
    mlpa_obs::set_enabled(false);
    mlpa_obs::hist_record("test.disabled_hist", "n", 1);
    let mut t = mlpa_obs::HistTally::default();
    t.record(7);
    mlpa_obs::hist_merge("test.disabled_hist", "n", &t);
    assert!(mlpa_obs::histograms_snapshot().iter().all(|h| h.name != "test.disabled_hist"));
}

#[test]
fn runtime_disabled_is_inert() {
    let _g = lock();
    mlpa_obs::set_enabled(false);

    let span = mlpa_obs::span("test.disabled");
    assert_eq!(span.id(), 0);
    drop(span);
    mlpa_obs::add("test.disabled.counter", 7);
    assert_eq!(mlpa_obs::counter_value("test.disabled.counter"), 0);
    let mut worker = mlpa_obs::worker("test-pool", 0);
    assert_eq!(worker.busy(|| 41 + 1), 42);
    drop(worker);

    let report = mlpa_obs::report();
    assert!(report.phases.iter().all(|p| p.name != "test.disabled"));
    assert!(report.workers.is_empty());
}

/// The peak-RSS probe reads the kernel's high-water mark directly, so
/// it works regardless of the obs enable state and only ever grows.
#[test]
fn peak_rss_probe_reports_growing_high_water_mark() {
    let Some(before) = mlpa_obs::peak_rss_bytes() else {
        return; // not Linux / procfs unavailable: probe is allowed to opt out
    };
    assert!(before > 0, "a running process has resident pages");
    // Touch ~32 MiB so the high-water mark provably moves.
    let v = vec![1u8; 32 << 20];
    std::hint::black_box(&v);
    let after = mlpa_obs::peak_rss_bytes().unwrap();
    assert!(after >= before + (16 << 20), "VmHWM must register the allocation");
}

/// `parse_vm_hwm` degrades to `None` — never a fake 0 — on every
/// malformed shape a host without a real procfs can serve.
#[test]
fn vm_hwm_parse_degrades_to_none() {
    assert_eq!(mlpa_obs::parse_vm_hwm("VmHWM:\t  123456 kB\n"), Some(123456 * 1024));
    // Missing line, empty file, wrong field name.
    assert_eq!(mlpa_obs::parse_vm_hwm(""), None);
    assert_eq!(mlpa_obs::parse_vm_hwm("VmRSS:\t 4 kB\n"), None);
    // Malformed value, missing value.
    assert_eq!(mlpa_obs::parse_vm_hwm("VmHWM:\t lots kB\n"), None);
    assert_eq!(mlpa_obs::parse_vm_hwm("VmHWM:\n"), None);
    // A zero high-water mark is a stub, not a measurement.
    assert_eq!(mlpa_obs::parse_vm_hwm("VmHWM:\t 0 kB\n"), None);
}

/// The host probe never fails: every field is populated (degrading to
/// `"unknown"` for the kernel string) and the fingerprint is the
/// timestamp-free `arch-os-cN` the calibration layer stamps.
#[test]
fn host_meta_is_populated_and_fingerprint_is_stable() {
    let host = mlpa_obs::host_meta();
    assert!(host.cpus >= 1);
    assert!(!host.arch.is_empty() && !host.os.is_empty() && !host.kernel.is_empty());
    assert_eq!(host.fingerprint(), format!("{}-{}-c{}", host.arch, host.os, host.cpus));
    assert_eq!(host.fingerprint(), mlpa_obs::host_meta().fingerprint());
    // The JSON block parses back with all four keys.
    let v = mlpa_obs::json::parse(&host.to_value().to_string()).expect("host block parses");
    for key in ["cpus", "arch", "os", "kernel"] {
        assert!(v.get(key).is_some(), "missing host key `{key}`");
    }
}
