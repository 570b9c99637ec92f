//! The `mlpa-serve` binary run as a daemon, as a user runs it:
//! identical requests compute once and return the same bytes, a daemon
//! killed with SIGKILL and restarted over its store answers from the
//! store, a byte budget bounds the store, and bad arguments exit 2 with
//! a message naming the problem.
//!
//! Every daemon is killed and reaped when its guard drops, panics
//! included, and prints its stderr if the test is failing; every
//! scratch store is removed on drop. The in-process
//! `serve::tests::concurrent_identical_requests_compute_once_and_match_bytes`
//! gates in-flight deduplication deterministically; with the real
//! pipeline here, whether the duplicate joins the flight or hits the
//! stored result depends on timing, and either way it must not run the
//! pipeline again.

use std::fs::{self, File};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use mlpa_obs::http;
use mlpa_obs::json::{self, Value};
use mlpa_obs::promtext::{self, Exposition};

const EON: &str = r#"{"benchmark":"eon","method":"multilevel","config":"base"}"#;
const EON_COASTS: &str = r#"{"benchmark":"eon","method":"coasts","config":"base"}"#;
const TWOLF: &str = r#"{"benchmark":"twolf","method":"multilevel","config":"base"}"#;
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
        let dir =
            std::env::temp_dir().join(format!("mlpa-serve-daemon-{}-{tag}", std::process::id()));
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

/// A running `mlpa-serve` whose stderr goes to a file. Dropping it
/// kills (SIGKILL) and reaps the process.
struct Serve {
    child: Child,
    stderr: PathBuf,
}

impl Serve {
    fn spawn(args: &[&str], stderr: PathBuf) -> Serve {
        let file = File::create(&stderr).expect("stderr file");
        let child = Command::new(env!("CARGO_BIN_EXE_mlpa-serve"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(file)
            .spawn()
            .expect("mlpa-serve starts");
        Serve { child, stderr }
    }

    fn stderr(&self) -> String {
        fs::read_to_string(&self.stderr).unwrap_or_default()
    }

    fn exited(&mut self) -> Option<ExitStatus> {
        self.child.try_wait().expect("polling mlpa-serve")
    }

    /// Start a daemon on an ephemeral port and read the port from its
    /// `mlpa-serve listening on` line.
    fn start(args: &[&str], stderr: PathBuf) -> (Serve, SocketAddr) {
        let mut serve = Serve::spawn(&[&["--port", "0"], args].concat(), stderr);
        let addr = poll("the daemon's address on stderr", || {
            if let Some(status) = serve.exited() {
                panic!("mlpa-serve exited ({status}) before listening");
            }
            let stderr = serve.stderr();
            let line = stderr.lines().find(|l| l.contains("mlpa-serve listening on "))?;
            let addr = line.split("mlpa-serve listening on ").nth(1)?;
            Some(addr.trim().parse().expect("a socket address"))
        });
        (serve, addr)
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if std::thread::panicking() {
            eprintln!("--- stderr of {} ---\n{}", self.stderr.display(), self.stderr());
        }
    }
}

fn arg(p: &Path) -> &str {
    p.to_str().expect("scratch paths are UTF-8")
}

/// `GET path`, requiring `200`.
fn get(addr: SocketAddr, path: &str) -> String {
    let (code, body) = http::get(addr, path).unwrap_or_else(|e| panic!("GET {path}: {e}"));
    assert_eq!(code, 200, "GET {path}: {body}");
    body
}

/// Submit an analysis and wait for it to finish; returns its job id.
fn analyze(addr: SocketAddr, request: &str) -> u64 {
    let id = submit(addr, request);
    wait_done(addr, id);
    id
}

fn submit(addr: SocketAddr, request: &str) -> u64 {
    let (code, body) = http::post(addr, "/analyze", "application/json", request)
        .unwrap_or_else(|e| panic!("POST /analyze: {e}"));
    assert_eq!(code, 202, "POST /analyze {request}: {body}");
    let v = json::parse(&body).expect("job body parses");
    v.get("job").and_then(Value::as_f64).expect("job id") as u64
}

fn wait_done(addr: SocketAddr, id: u64) {
    poll(&format!("job {id} to finish"), || {
        let body = get(addr, &format!("/jobs/{id}"));
        let v = json::parse(&body).expect("job status parses");
        match v.get("state").and_then(Value::as_str) {
            Some("done") => Some(()),
            Some("failed") => panic!("job {id} failed: {body}"),
            _ => None,
        }
    });
}

fn result(addr: SocketAddr, id: u64) -> String {
    get(addr, &format!("/jobs/{id}/result"))
}

fn metrics(addr: SocketAddr) -> Exposition {
    promtext::check(&get(addr, "/metrics")).unwrap_or_else(|e| panic!("/metrics: {e}"))
}

/// A counter's value by its dotted name; absent counts as 0.
fn counter(m: &Exposition, name: &str) -> f64 {
    let series = format!("mlpa_counter_{}_total", promtext::sanitize(name));
    m.samples.get(&series).copied().unwrap_or(0.0)
}

#[test]
fn identical_requests_compute_once_and_survive_a_kill() {
    let dir = Scratch::new("dedup");
    let store = dir.path("store");
    let args = ["--workers", "2", "--queue", "8", "--cache", arg(&store)];
    let (first, addr) = Serve::start(&args, dir.path("first.log"));
    let jobs = [EON, EON, TWOLF].map(|request| submit(addr, request));
    for id in jobs {
        wait_done(addr, id);
    }
    let eon = result(addr, jobs[0]);
    assert_eq!(result(addr, jobs[1]), eon, "identical requests answered different bytes");
    let m = metrics(addr);
    let requests = counter(&m, "serve.requests");
    assert!(requests >= 3.0, "serve.requests is {requests} after three requests");
    assert_eq!(
        counter(&m, "core.profile.passes"),
        4.0,
        "two distinct requests make two profiling passes each; the duplicate ran the pipeline"
    );
    drop(first); // SIGKILL, then reap

    let (_second, addr) = Serve::start(&args, dir.path("second.log"));
    let id = analyze(addr, EON);
    assert_eq!(result(addr, id), eon, "the restarted daemon answered different bytes");
    let m = metrics(addr);
    assert!(counter(&m, "core.cache.hits") >= 1.0, "the restarted daemon had no cache hit");
    assert_eq!(counter(&m, "core.profile.passes"), 0.0, "the restarted daemon profiled");
    assert_eq!(counter(&m, "core.cache.stores"), 0.0, "the restarted daemon computed the result");
}

#[test]
fn a_byte_budget_bounds_the_store() {
    const BUDGET: u64 = 65_536;
    let dir = Scratch::new("budget");
    let store = dir.path("store");
    let budget = BUDGET.to_string();
    let (_serve, addr) = Serve::start(
        &["--workers", "1", "--queue", "8", "--cache", arg(&store), "--cache-budget", &budget],
        dir.path("serve.log"),
    );
    for request in [EON, EON_COASTS, TWOLF] {
        analyze(addr, request);
    }
    let m = metrics(addr);
    assert!(counter(&m, "core.cache.evictions") >= 1.0, "nothing was evicted");
    let mut used = 0;
    for kind in fs::read_dir(&store).expect("store").flatten() {
        for entry in fs::read_dir(kind.path()).into_iter().flatten().flatten() {
            if entry.file_name().to_string_lossy().ends_with(".art") {
                used += entry.metadata().expect("entry metadata").len();
            }
        }
    }
    assert!(used <= BUDGET, "the store holds {used} bytes of a {BUDGET} byte budget");
}

#[test]
fn bad_arguments_exit_2_naming_the_problem() {
    let dir = Scratch::new("args");
    let cases: [(&[&str], &str); 4] = [
        (&["--workers", "0"], "--workers must be at least 1"),
        (&["--queue", "0"], "--queue must be at least 1"),
        (&["--cache-budget", "65536"], "--cache-budget requires --cache"),
        (&["--no-such-flag"], "unknown argument \"--no-such-flag\""),
    ];
    for (i, (args, message)) in cases.into_iter().enumerate() {
        let mut serve = Serve::spawn(args, dir.path(&format!("{i}.log")));
        let status = poll(&format!("mlpa-serve {args:?} to exit"), || serve.exited());
        assert_eq!(status.code(), Some(2), "mlpa-serve {args:?} exited with {status}");
        let stderr = serve.stderr();
        assert!(stderr.contains(message), "mlpa-serve {args:?} said {stderr:?}");
    }
}
