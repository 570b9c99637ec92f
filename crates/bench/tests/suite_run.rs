//! `mlpa-experiments` run end to end on the quick eon,twolf suite, as a
//! user runs it. A cold `--cache` run, a warm `--resume` run and a run
//! SIGKILLed mid-flight then resumed all write the same bytes, and the
//! warm run does no real work. A run watched through `--status-port`
//! serves valid `/metrics` and `/status` while it works and finishes
//! with a complete run report that matches `results/RUN_REPORT.json`.
//!
//! Every child is killed and reaped when its guard drops, panics
//! included, and prints its stderr if the test is failing; every
//! scratch directory is removed on drop.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use mlpa_obs::check::{check_complete, check_events, check_metrics, check_report, check_status};
use mlpa_obs::diff::diff;
use mlpa_obs::json::{self, Value};
use mlpa_obs::{http, promtext};

/// Every run here is the quick two-benchmark suite on two workers.
const SUITE: &[&str] = &["--quick", "--select", "eon,twolf", "--jobs", "2"];
/// What a cached run must reproduce byte for byte.
const OUTPUTS: [&str; 3] = ["table3_stats.txt", "accuracy_report.txt", "full_results.csv"];
/// How long any wait may take before the test gives up.
const DEADLINE: Duration = Duration::from_secs(120);

/// Call `probe` every few milliseconds until it yields a value.
fn poll<T>(what: &str, mut probe: impl FnMut() -> Option<T>) -> T {
    let start = Instant::now();
    loop {
        if let Some(v) = probe() {
            return v;
        }
        assert!(start.elapsed() < DEADLINE, "gave up after {DEADLINE:?} waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("mlpa-suite-run-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A running `mlpa-experiments` whose stderr goes to a file. Dropping
/// it kills and reaps the process.
struct Run {
    child: Child,
    stderr: PathBuf,
}

impl Run {
    fn start(args: &[&str], stderr: PathBuf) -> Run {
        let file = File::create(&stderr).expect("stderr file");
        let child = Command::new(env!("CARGO_BIN_EXE_mlpa-experiments"))
            .args(SUITE)
            .args(args)
            .stdout(Stdio::null())
            .stderr(file)
            .spawn()
            .expect("mlpa-experiments starts");
        Run { child, stderr }
    }

    fn stderr(&self) -> String {
        fs::read_to_string(&self.stderr).unwrap_or_default()
    }

    fn exited(&mut self) -> Option<ExitStatus> {
        self.child.try_wait().expect("polling the run")
    }

    fn wait(&mut self) -> ExitStatus {
        poll("the run to exit", || self.exited())
    }

    /// Panic if the run has exited; `what` says what it exited before.
    fn assert_live(&mut self, what: &str) {
        if let Some(status) = self.exited() {
            panic!("the run exited ({status}) before {what}");
        }
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if std::thread::panicking() {
            eprintln!("--- stderr of {} ---\n{}", self.stderr.display(), self.stderr());
        }
    }
}

/// Run the suite with `args` to the end and require success.
fn run_suite(args: &[&str], stderr: PathBuf) {
    let mut run = Run::start(args, stderr);
    let status = run.wait();
    assert!(status.success(), "mlpa-experiments {args:?} exited with {status}");
}

fn arg(p: &Path) -> &str {
    p.to_str().expect("scratch paths are UTF-8")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn assert_same_outputs(want: &Path, got: &Path, run: &str) {
    for name in OUTPUTS {
        let (w, g) = (read(&want.join(name)), read(&got.join(name)));
        assert!(w == g, "{run}: {name} differs from the cold run's");
    }
}

/// A run report's counters by name.
fn counters(report: &Value) -> BTreeMap<String, f64> {
    let list = report.get("counters").and_then(Value::as_arr).expect("report counters");
    list.iter()
        .map(|c| {
            let name = c.get("name").and_then(Value::as_str).expect("counter name");
            (name.to_string(), c.get("value").and_then(Value::as_f64).expect("counter value"))
        })
        .collect()
}

/// Whether `store` holds at least one complete artifact. Writes go
/// through a temp file and a rename, so a `.art` name is a whole entry.
fn holds_an_artifact(store: &Path) -> bool {
    let Ok(kinds) = fs::read_dir(store) else { return false };
    kinds.flatten().any(|kind| {
        fs::read_dir(kind.path())
            .into_iter()
            .flatten()
            .flatten()
            .any(|e| e.file_name().to_string_lossy().ends_with(".art"))
    })
}

#[test]
fn cached_runs_resume_to_the_cold_bytes() {
    let dir = Scratch::new("cache");
    let (store, cold, warm) = (dir.path("store"), dir.path("cold"), dir.path("warm"));
    let (cold_events, warm_events) = (cold.join("events.jsonl"), warm.join("events.jsonl"));
    let cold_args = ["table3", "accuracy", "--cache", arg(&store)];
    run_suite(
        &[&cold_args[..], &["--obs", arg(&cold_events), "--out", arg(&cold)]].concat(),
        dir.path("cold.log"),
    );
    run_suite(
        &[&cold_args[..], &["--resume", "--obs", arg(&warm_events), "--out", arg(&warm)]].concat(),
        dir.path("warm.log"),
    );
    assert_same_outputs(&cold, &warm, "the warm --resume run");

    // The warm run served every stage from the store.
    let warm_text = read(&warm.join("RUN_REPORT.json"));
    let warm_report = json::parse(&warm_text).expect("warm report parses");
    let warm_counters = counters(&warm_report);
    let counter = |name: &str| warm_counters.get(name).copied().unwrap_or(0.0);
    for name in ["core.profile.passes", "core.truth.passes"] {
        assert_eq!(counter(name), 0.0, "the warm run counted {name}: {warm_counters:?}");
    }
    let (hits, misses) = (counter("core.cache.hits"), counter("core.cache.misses"));
    assert!(
        hits > 0.0 && hits / (hits + misses) >= 0.9,
        "warm run: {hits} cache hits, {misses} misses"
    );
    check_events(&read(&warm_events)).unwrap_or_else(|e| panic!("warm events: {e}"));
    check_report(&warm_text).unwrap_or_else(|e| panic!("warm report: {e}"));

    // Attribution is a pure function of the outcomes, cached or not.
    let cold_report = json::parse(&read(&cold.join("RUN_REPORT.json"))).expect("cold report");
    let attribution = cold_report.get("attribution").expect("the cold report has attribution");
    assert_eq!(warm_report.get("attribution"), Some(attribution));

    // Kill a run once it has stored its first artifact, then resume it.
    let (kill_store, resumed) = (dir.path("kill-store"), dir.path("kill-resumed"));
    let kill_args = ["table3", "accuracy", "--cache", arg(&kill_store)];
    let mut killed = Run::start(
        &[&kill_args[..], &["--out", arg(&dir.path("kill-out"))]].concat(),
        dir.path("kill.log"),
    );
    poll("the first stored artifact", || {
        killed.assert_live("storing its first artifact");
        holds_an_artifact(&kill_store).then_some(())
    });
    killed.child.kill().expect("SIGKILL");
    let status = killed.wait();
    assert_eq!(status.code(), None, "the run finished before the kill landed: {status}");
    drop(killed);
    run_suite(
        &[&kill_args[..], &["--resume", "--out", arg(&resumed)]].concat(),
        dir.path("resume.log"),
    );
    assert_same_outputs(&cold, &resumed, "the killed run, resumed");
}

/// `GET path` on the status server, if it answers 200.
fn get(addr: SocketAddr, path: &str) -> Option<String> {
    match http::get(addr, path) {
        Ok((200, body)) => Some(body),
        _ => None,
    }
}

#[test]
fn a_live_run_serves_valid_metrics_and_status() {
    let dir = Scratch::new("telemetry");
    let (out, events) = (dir.path("out"), dir.path("out/events.jsonl"));
    let mut run = Run::start(
        &[
            "table3",
            "--obs",
            arg(&events),
            "--out",
            arg(&out),
            "--status-port",
            "0",
            "--telemetry-ms",
            "25",
        ],
        dir.path("stderr.log"),
    );
    let addr: SocketAddr = poll("the status server's address on stderr", || {
        run.assert_live("printing its status server's address");
        let stderr = run.stderr();
        let line = stderr.lines().find(|l| l.contains("status server listening on "))?;
        let addr = line.split("status server listening on ").nth(1)?;
        Some(addr.trim().parse().expect("a socket address"))
    });

    // Two scrapes of the live run: one once counters exist, one after
    // they moved. A successful scrape means the run was still going.
    let (first, first_exposition) = poll("a scrape with counters", || {
        run.assert_live("its first counters were scraped");
        let body = get(addr, "/metrics")?;
        let exposition = promtext::check(&body).unwrap_or_else(|e| panic!("scrape: {e}"));
        (!exposition.counter_values().is_empty()).then_some((body, exposition))
    });
    let status = get(addr, "/status").expect("/status answers");
    check_status(&status).unwrap_or_else(|e| panic!("/status: {e}\n{status}"));
    let first_counters = first_exposition.counter_values();
    let second = poll("a scrape after the counters moved", || {
        run.assert_live("its counters moved");
        let body = get(addr, "/metrics")?;
        let exposition = promtext::check(&body).unwrap_or_else(|e| panic!("scrape: {e}"));
        let moved = exposition
            .counter_values()
            .into_iter()
            .any(|(name, v)| first_counters.get(name) != Some(&v));
        moved.then_some(body)
    });
    check_metrics(&first, None).unwrap_or_else(|e| panic!("first scrape: {e}"));
    check_metrics(&second, Some(&first)).unwrap_or_else(|e| panic!("second scrape: {e}"));

    let exit = run.wait();
    assert!(exit.success(), "the live-watched run exited with {exit}");
    let stream = read(&events);
    check_events(&stream).unwrap_or_else(|e| panic!("events: {e}"));
    let is_sample = |line: &str| {
        json::parse(line).is_ok_and(|v| v.get("ev").and_then(Value::as_str) == Some("sample"))
    };
    assert!(stream.lines().any(is_sample), "a 25 ms sampler wrote no samples");
    let report = read(&out.join("RUN_REPORT.json"));
    check_report(&report).unwrap_or_else(|e| panic!("report: {e}"));
    check_complete(&report).unwrap_or_else(|e| panic!("report: {e}"));

    // The tracked report is this run at the default sampling interval
    // and without a status server. Every deterministic section must
    // match it, diffed both ways so neither report has a metric the
    // other lacks.
    let tracked = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/RUN_REPORT.json");
    let tracked = json::parse(&read(&tracked)).expect("the tracked report parses");
    let live = json::parse(&report).expect("the report parses");
    for (base, cur, what) in
        [(&tracked, &live, "tracked → live"), (&live, &tracked, "live → tracked")]
    {
        let d = diff(base, cur).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(d.failures.is_empty(), "{what}: {:#?}", d.failures);
    }
}
