//! Sampling-as-a-service: the library behind the `mlpa-serve` daemon.
//!
//! The daemon turns the one-shot analysis pipeline into a long-running
//! server (ROADMAP item 1). It accepts analysis requests — benchmark
//! spec + machine config + method as a small JSON body on
//! `POST /analyze` — over the shared std-only HTTP layer
//! ([`mlpa_obs::http`]), runs them on a bounded worker pool, and
//! answers job polls with mlpa-status-style JSON.
//!
//! # Protocol
//!
//! * `POST /analyze` with `{"benchmark":"lucas","method":"multilevel",
//!   "config":"base","iters":2,"scale":0.5}` → `202` and
//!   `{"job":N,"poll":"/jobs/N"}`, or `503` + `Retry-After` when the
//!   queue is at its depth limit (admission control: requests are
//!   refused, memory never grows without bound), or `400` on an
//!   invalid request.
//! * `GET /jobs/N` → job state (schema [`SERVE_JOB_SCHEMA`]) plus the
//!   run phase and progress gauges the status server exposes.
//! * `GET /jobs/N/result` → exactly the result body (schema
//!   [`SERVE_RESULT_SCHEMA`]); byte-identical for identical requests,
//!   whether computed, deduplicated, or served from the warm cache.
//! * `GET /metrics` → Prometheus text exposition of the live
//!   registries; `GET /healthz` → liveness.
//!
//! # Deduplication and caching
//!
//! Identical requests hit the [`ArtifactCache`] via a canonical
//! [`CacheKey`] over the compiled spec, method, machine config, and
//! every pipeline parameter the result depends on. *Concurrent*
//! identical requests additionally collapse in flight through
//! [`Singleflight`]: one computation, N waiters, every response
//! byte-identical (counted by `serve.inflight_dedup`).
//!
//! # Counters
//!
//! `serve.requests` (every `POST /analyze`), `serve.rejected`
//! (admission refusals), `serve.inflight_dedup` (requests served by a
//! concurrent leader's computation).

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use mlpa_obs::http::{self, Request, Response};
use mlpa_obs::json::{self, Value};
use mlpa_phase::simpoint::SimPointConfig;
use mlpa_sim::MachineConfig;
use mlpa_workloads::{suite, BenchmarkSpec, CompiledBenchmark};

use crate::artifact::{Artifact, Dec, Enc};
use crate::cache::{ArtifactCache, CacheKey, FlightRole, Singleflight};
use crate::coasts::{coasts_with, CoastsConfig};
use crate::estimate::{panic_message, truth_and_plans_cached, WarmupMode};
use crate::multilevel::{multilevel_with, MultilevelConfig};
use crate::pipeline::{simpoint_baseline_with, ProfilingContext, FINE_INTERVAL};

/// Schema tag on `GET /jobs/N` bodies.
pub const SERVE_JOB_SCHEMA: &str = "mlpa-serve-job-v2";
/// Schema tag on analysis result bodies.
pub const SERVE_RESULT_SCHEMA: &str = "mlpa-serve-result-v1";

/// Completed jobs retained for polling; the oldest beyond this are
/// dropped so a long-lived daemon's job table cannot grow forever.
const MAX_FINISHED_JOBS: usize = 256;

/// Which sampling method a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMethod {
    /// 10 M (scaled 10 k) fixed-interval SimPoint baseline.
    SimPoint,
    /// Coarse-grained earliest-instance sampling.
    Coasts,
    /// COASTS + fine re-sampling (the paper's contribution).
    Multilevel,
}

impl ServeMethod {
    fn from_str(s: &str) -> Option<ServeMethod> {
        match s {
            "simpoint" => Some(ServeMethod::SimPoint),
            "coasts" => Some(ServeMethod::Coasts),
            "multilevel" => Some(ServeMethod::Multilevel),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            ServeMethod::SimPoint => "simpoint",
            ServeMethod::Coasts => "coasts",
            ServeMethod::Multilevel => "multilevel",
        }
    }
}

/// Which Table I machine configuration to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeConfig {
    /// Config A ([`MachineConfig::table1_base`]).
    Base,
    /// Config B ([`MachineConfig::table1_sensitivity`]).
    Sensitivity,
}

impl ServeConfig {
    fn from_str(s: &str) -> Option<ServeConfig> {
        match s {
            "base" => Some(ServeConfig::Base),
            "sensitivity" => Some(ServeConfig::Sensitivity),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            ServeConfig::Base => "base",
            ServeConfig::Sensitivity => "sensitivity",
        }
    }

    fn machine(self) -> MachineConfig {
        match self {
            ServeConfig::Base => MachineConfig::table1_base(),
            ServeConfig::Sensitivity => MachineConfig::table1_sensitivity(),
        }
    }
}

/// One validated analysis request.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeRequest {
    /// Suite benchmark name (e.g. `lucas`).
    pub benchmark: String,
    /// Iteration factor passed to [`suite::benchmark_with_iters`].
    pub iters: usize,
    /// Spec scale factor in `(0, 1]`.
    pub scale: f64,
    /// Sampling method.
    pub method: ServeMethod,
    /// Machine configuration.
    pub config: ServeConfig,
}

impl AnalyzeRequest {
    /// Parse and validate a `POST /analyze` JSON body. `iters`
    /// defaults to 2 and `scale` to 0.5 (the quick-experiment regime).
    ///
    /// # Errors
    ///
    /// Describes the offending field: unknown benchmark or method,
    /// out-of-range iters/scale, malformed JSON.
    pub fn from_json(body: &str) -> Result<AnalyzeRequest, String> {
        let v = json::parse(body).map_err(|e| format!("invalid JSON body: {e}"))?;
        let obj = v.as_obj().ok_or("request body must be a JSON object")?;
        for key in obj.keys() {
            if !matches!(key.as_str(), "benchmark" | "iters" | "scale" | "method" | "config") {
                return Err(format!("unknown field {key:?}"));
            }
        }
        let benchmark = v
            .get("benchmark")
            .and_then(Value::as_str)
            .ok_or("missing string field \"benchmark\"")?
            .to_string();
        let iters = match v.get("iters") {
            None => 2,
            Some(x) => {
                let f = x.as_f64().ok_or("\"iters\" must be a number")?;
                if f.fract() != 0.0 || !(1.0..=1000.0).contains(&f) {
                    return Err("\"iters\" must be an integer in [1, 1000]".into());
                }
                f as usize
            }
        };
        let scale = match v.get("scale") {
            None => 0.5,
            Some(x) => {
                let f = x.as_f64().ok_or("\"scale\" must be a number")?;
                if !(f > 0.0 && f <= 1.0) {
                    return Err("\"scale\" must be in (0, 1]".into());
                }
                f
            }
        };
        let method = match v.get("method") {
            None => ServeMethod::Multilevel,
            Some(x) => {
                let s = x.as_str().ok_or("\"method\" must be a string")?;
                ServeMethod::from_str(s).ok_or_else(|| {
                    format!("unknown method {s:?} (simpoint | coasts | multilevel)")
                })?
            }
        };
        let config = match v.get("config") {
            None => ServeConfig::Base,
            Some(x) => {
                let s = x.as_str().ok_or("\"config\" must be a string")?;
                ServeConfig::from_str(s)
                    .ok_or_else(|| format!("unknown config {s:?} (base | sensitivity)"))?
            }
        };
        let req = AnalyzeRequest { benchmark, iters, scale, method, config };
        req.spec()?; // reject unknown benchmarks at admission time
        Ok(req)
    }

    fn spec(&self) -> Result<BenchmarkSpec, String> {
        suite::benchmark_with_iters(&self.benchmark, self.iters)
            .map(|s| s.scaled(self.scale))
            .ok_or_else(|| format!("unknown benchmark {:?}", self.benchmark))
    }

    /// The canonical response-level cache key: the compiled spec plus
    /// every pipeline parameter the result depends on, so identical
    /// requests are cache hits and any default change invalidates.
    pub fn cache_key(&self) -> Result<CacheKey, String> {
        let spec = self.spec()?;
        Ok(CacheKey::new()
            .field("spec", &spec)
            .field("method", &self.method)
            .field("config", &self.config.machine())
            .field("coasts", &CoastsConfig::default())
            .field("multilevel", &MultilevelConfig::default())
            .field("fine", &SimPointConfig::fine_10m())
            .field("fine_interval", &FINE_INTERVAL)
            .field("warmup", &WarmupMode::Warmed))
    }
}

/// The cached response body for one analysis request.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ServedAnalysis {
    body: String,
}

impl Artifact for ServedAnalysis {
    const KIND: &'static str = "serve-result";

    fn encode(&self, enc: &mut Enc) {
        enc.s(&self.body);
    }

    fn decode(dec: &mut Dec) -> Result<Self, String> {
        Ok(ServedAnalysis { body: dec.s()? })
    }
}

/// Run the full pipeline for one request and render the canonical
/// result body. Pipeline-level artifacts (profiles, selections, plan
/// executions) go through `cache` exactly as in the batch harness, so
/// a request that shares work with a previous one pays only the delta.
///
/// # Errors
///
/// Propagates compilation and selection errors.
pub fn analyze(req: &AnalyzeRequest, cache: Option<Arc<ArtifactCache>>) -> Result<String, String> {
    let _span = mlpa_obs::span_labeled("serve.analyze", &req.benchmark);
    let spec = req.spec()?;
    let cb = CompiledBenchmark::compile(&spec)?;
    let coasts_cfg = CoastsConfig::default();
    let mut ctx = ProfilingContext::new(&cb, coasts_cfg.projection, FINE_INTERVAL);
    if let Some(c) = &cache {
        ctx.set_cache(Arc::clone(c));
    }
    let plan = match req.method {
        ServeMethod::SimPoint => {
            simpoint_baseline_with(&mut ctx, &SimPointConfig::fine_10m())?.plan
        }
        ServeMethod::Coasts => coasts_with(&mut ctx, &coasts_cfg)?.plan,
        ServeMethod::Multilevel => multilevel_with(&mut ctx, &MultilevelConfig::default())?.plan,
    };
    let machine = req.config.machine();
    let (_, outcomes) =
        truth_and_plans_cached(cache.as_deref(), &cb, &machine, &[], &[&plan], WarmupMode::Warmed);
    let e = outcomes[0].estimate;
    Ok(format!(
        "{{\"schema\":\"{SERVE_RESULT_SCHEMA}\",\"benchmark\":\"{}\",\"method\":\"{}\",\
         \"config\":\"{}\",\"iters\":{},\"scale\":{:?},\"points\":{},\"total_insts\":{},\
         \"detail_fraction\":{:?},\"estimate\":{{\"cpi\":{:?},\"l1_hit_rate\":{:?},\
         \"l2_hit_rate\":{:?},\"mispredict_rate\":{:?}}}}}",
        json::escape(&req.benchmark),
        req.method.name(),
        req.config.name(),
        req.iters,
        req.scale,
        plan.len(),
        plan.total_insts(),
        plan.detail_fraction(),
        e.cpi,
        e.l1_hit_rate,
        e.l2_hit_rate,
        e.mispredict_rate,
    ))
}

/// Daemon settings.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen port (0 = ephemeral; the bound address comes back from
    /// [`Daemon::addr`]).
    pub port: u16,
    /// Worker threads executing analysis jobs.
    pub workers: usize,
    /// Maximum *queued* (accepted, not yet running) jobs; beyond this
    /// `POST /analyze` answers `503` + `Retry-After`.
    pub queue_depth: usize,
    /// Artifact-cache directory (None = no cache).
    pub cache_dir: Option<PathBuf>,
    /// Cache byte budget with LRU eviction (requires `cache_dir`).
    pub cache_budget: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions { port: 0, workers: 2, queue_depth: 16, cache_dir: None, cache_budget: None }
    }
}

#[derive(Debug)]
enum JobState {
    Queued,
    Running,
    Done(String),
    Failed(String),
}

impl JobState {
    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

struct JobRecord {
    request: AnalyzeRequest,
    state: JobState,
}

#[derive(Default)]
struct Jobs {
    next_id: u64,
    table: HashMap<u64, JobRecord>,
    queue: VecDeque<u64>,
    finished: VecDeque<u64>,
}

type Executor = dyn Fn(&AnalyzeRequest) -> Result<String, String> + Send + Sync;

struct Inner {
    queue_depth: usize,
    jobs: Mutex<Jobs>,
    work_cv: Condvar,
    stop: AtomicBool,
    flight: Singleflight<Result<String, String>>,
    cache: Option<Arc<ArtifactCache>>,
    executor: Box<Executor>,
}

/// A running daemon: HTTP front end plus the bounded worker pool.
pub struct Daemon {
    inner: Arc<Inner>,
    server: http::Server,
    workers: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Open the cache (applying the budget), start the worker pool,
    /// and bind the HTTP server.
    ///
    /// # Errors
    ///
    /// Propagates cache-open and bind failures.
    pub fn start(opts: ServeOptions) -> Result<Daemon, String> {
        let cache = match &opts.cache_dir {
            Some(dir) => {
                let mut c = ArtifactCache::open(dir)?;
                c.set_budget(opts.cache_budget)?;
                Some(Arc::new(c))
            }
            None => None,
        };
        let exec_cache = cache.clone();
        Daemon::start_with_executor(
            opts,
            cache,
            Box::new(move |req| analyze(req, exec_cache.clone())),
        )
    }

    /// [`Daemon::start`] with an injected job executor — the seam the
    /// admission-control and dedup tests use to make worker timing
    /// deterministic. The response-level cache and singleflight wrap
    /// the executor here, identically for tests and production.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start_with_executor(
        opts: ServeOptions,
        cache: Option<Arc<ArtifactCache>>,
        executor: Box<Executor>,
    ) -> Result<Daemon, String> {
        let inner = Arc::new(Inner {
            queue_depth: opts.queue_depth.max(1),
            jobs: Mutex::new(Jobs::default()),
            work_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            flight: Singleflight::new(),
            cache,
            executor,
        });
        let workers = (0..opts.workers.max(1))
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&inner, w))
                    .map_err(|e| format!("spawning worker {w}: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let handler = Arc::clone(&inner);
        let server = http::serve(opts.port, "mlpa-serve", move |req| handle(&handler, req))
            .map_err(|e| format!("binding port {}: {e}", opts.port))?;
        Ok(Daemon { inner, server, workers })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stop accepting, drain the worker pool (in-flight jobs finish),
    /// and join every thread.
    pub fn stop(self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        self.inner.work_cv.notify_all();
        for handle in self.workers {
            let _ = handle.join();
        }
        self.server.stop();
    }
}

fn worker_loop(inner: &Arc<Inner>, index: usize) {
    let mut guard = mlpa_obs::worker("serve", index);
    loop {
        let job_id = {
            let mut jobs = inner.jobs.lock().expect("serve jobs poisoned");
            loop {
                if inner.stop.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(id) = jobs.queue.pop_front() {
                    break id;
                }
                jobs = inner.work_cv.wait(jobs).expect("serve jobs poisoned");
            }
        };
        guard.busy(|| run_job(inner, job_id));
    }
}

fn run_job(inner: &Inner, id: u64) {
    let request = {
        let mut jobs = inner.jobs.lock().expect("serve jobs poisoned");
        let Some(rec) = jobs.table.get_mut(&id) else { return };
        rec.state = JobState::Running;
        rec.request.clone()
    };

    let outcome = match request.cache_key() {
        Err(e) => Err(e),
        Ok(key) => {
            // Singleflight over (cache lookup + compute + store): the
            // lookup runs inside the flight so concurrent identical
            // requests dedupe even when the cache is cold, and the key
            // is retired only after the result is stored.
            let flight_key = format!("{}|{}", ServedAnalysis::KIND, key.material());
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                inner.flight.run(&flight_key, || {
                    if let Some(c) = &inner.cache {
                        if let Some(hit) = c.get::<ServedAnalysis>(&key) {
                            return Ok(hit.body);
                        }
                    }
                    let body = (inner.executor)(&request)?;
                    if let Some(c) = &inner.cache {
                        c.put(&key, &ServedAnalysis { body: body.clone() });
                    }
                    Ok(body)
                })
            }));
            match caught {
                Ok((result, role)) => {
                    if role == FlightRole::Follower {
                        mlpa_obs::add("serve.inflight_dedup", 1);
                    }
                    result
                }
                Err(payload) => Err(panic_message(payload.as_ref())),
            }
        }
    };

    let mut jobs = inner.jobs.lock().expect("serve jobs poisoned");
    if let Some(rec) = jobs.table.get_mut(&id) {
        rec.state = match outcome {
            Ok(body) => JobState::Done(body),
            Err(e) => JobState::Failed(e),
        };
    }
    jobs.finished.push_back(id);
    while jobs.finished.len() > MAX_FINISHED_JOBS {
        if let Some(old) = jobs.finished.pop_front() {
            jobs.table.remove(&old);
        }
    }
}

fn handle(inner: &Arc<Inner>, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/analyze") => post_analyze(inner, &req.body),
        ("GET", "/healthz") => Response::ok("text/plain", "ok\n"),
        ("GET", "/metrics") => Response::ok(
            "text/plain; version=0.0.4; charset=utf-8",
            mlpa_obs::promtext::render_current(),
        ),
        ("GET", path) if path.starts_with("/jobs/") => get_job(inner, path),
        _ => Response::new("404 Not Found", "text/plain", "unknown path\n"),
    }
}

fn error_json(message: &str) -> String {
    format!("{{\"error\":\"{}\"}}", json::escape(message))
}

fn post_analyze(inner: &Arc<Inner>, body: &str) -> Response {
    mlpa_obs::add("serve.requests", 1);
    let request = match AnalyzeRequest::from_json(body) {
        Ok(r) => r,
        Err(e) => return Response::new("400 Bad Request", "application/json", error_json(&e)),
    };
    let id = {
        let mut jobs = inner.jobs.lock().expect("serve jobs poisoned");
        if jobs.queue.len() >= inner.queue_depth {
            mlpa_obs::add("serve.rejected", 1);
            return Response::new(
                "503 Service Unavailable",
                "application/json",
                error_json("queue full, retry later"),
            )
            .header("Retry-After", "1");
        }
        jobs.next_id += 1;
        let id = jobs.next_id;
        jobs.table.insert(id, JobRecord { request, state: JobState::Queued });
        jobs.queue.push_back(id);
        id
    };
    inner.work_cv.notify_one();
    Response::new(
        "202 Accepted",
        "application/json",
        format!("{{\"job\":{id},\"poll\":\"/jobs/{id}\"}}"),
    )
}

fn get_job(inner: &Arc<Inner>, path: &str) -> Response {
    let rest = &path["/jobs/".len()..];
    let (id_str, want_result) = match rest.strip_suffix("/result") {
        Some(s) => (s, true),
        None => (rest, false),
    };
    let Ok(id) = id_str.parse::<u64>() else {
        return Response::new("404 Not Found", "application/json", error_json("bad job id"));
    };
    let jobs = inner.jobs.lock().expect("serve jobs poisoned");
    let Some(rec) = jobs.table.get(&id) else {
        return Response::new("404 Not Found", "application/json", error_json("unknown job"));
    };
    if want_result {
        return match &rec.state {
            JobState::Done(body) => Response::json(body.clone()),
            JobState::Failed(e) => {
                Response::new("500 Internal Server Error", "application/json", error_json(e))
            }
            JobState::Queued | JobState::Running => Response::new(
                "409 Conflict",
                "application/json",
                error_json("job not finished; poll the status endpoint"),
            ),
        };
    }
    // mlpa-status-style body: job state plus the live phase and
    // progress gauges, so a poller sees pipeline progress, not just
    // "running".
    let gauges = mlpa_obs::gauges_snapshot();
    let gauge = |name: &str| gauges.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
    let gauge_body = gauges
        .iter()
        .map(|(name, v)| format!("\"{}\":{v}", json::escape(name)))
        .collect::<Vec<_>>()
        .join(",");
    let error = match &rec.state {
        JobState::Failed(e) => format!(",\"error\":\"{}\"", json::escape(e)),
        _ => String::new(),
    };
    Response::json(format!(
        "{{\"schema\":\"{SERVE_JOB_SCHEMA}\",\"job\":{id},\"state\":\"{}\",\
         \"benchmark\":\"{}\",\"method\":\"{}\",\"phase\":\"{}\",\"progress_permille\":{},\
         \"benchmarks_done\":{},\"benchmarks_total\":{},\"queued\":{}{error},\
         \"gauges\":{{{gauge_body}}}}}",
        rec.state.name(),
        json::escape(&rec.request.benchmark),
        rec.request.method.name(),
        json::escape(&mlpa_obs::telemetry::run_phase()),
        gauge("core.profile.progress_permille"),
        gauge("bench.done"),
        gauge("bench.total"),
        jobs.queue.len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir::TempDir;
    use std::io::{Read as _, Write as _};
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    fn post_analyze_json(addr: SocketAddr, body: &str) -> (u16, String) {
        http::post(addr, "/analyze", "application/json", body).expect("POST /analyze")
    }

    fn job_id(body: &str) -> u64 {
        json::parse(body).expect("202 body").get("job").and_then(Value::as_f64).expect("job id")
            as u64
    }

    fn wait_for_state(addr: SocketAddr, id: u64, want: &str) -> Value {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (code, body) = http::get(addr, &format!("/jobs/{id}")).expect("GET /jobs");
            assert_eq!(code, 200, "job poll failed: {body}");
            let v = json::parse(&body).expect("job JSON");
            assert_eq!(v.get("schema").and_then(Value::as_str), Some(SERVE_JOB_SCHEMA), "{body}");
            assert!(v.get("progress_permille").and_then(Value::as_f64).is_some(), "{body}");
            assert!(v.get("segment").is_none(), "{body}");
            let state = v.get("state").and_then(Value::as_str).unwrap_or("").to_string();
            if state == want {
                return v;
            }
            assert!(
                !matches!(state.as_str(), "done" | "failed"),
                "job {id} settled as {state:?} while waiting for {want:?}: {body}"
            );
            assert!(Instant::now() < deadline, "timed out waiting for job {id} = {want}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// An executor that signals entry and blocks until released, making
    /// worker timing deterministic for the admission/dedup tests.
    struct Gate {
        entered: Mutex<u64>,
        released: Mutex<bool>,
        cv: Condvar,
    }

    impl Gate {
        fn new() -> Arc<Gate> {
            Arc::new(Gate {
                entered: Mutex::new(0),
                released: Mutex::new(false),
                cv: Condvar::new(),
            })
        }

        fn enter_and_wait(&self) {
            *self.entered.lock().unwrap() += 1;
            self.cv.notify_all();
            let mut released = self.released.lock().unwrap();
            while !*released {
                released = self.cv.wait(released).unwrap();
            }
        }

        fn wait_entered(&self, want: u64) {
            let mut entered = self.entered.lock().unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while *entered < want {
                let (g, timeout) =
                    self.cv.wait_timeout(entered, Duration::from_millis(100)).unwrap();
                entered = g;
                assert!(
                    !timeout.timed_out() || Instant::now() < deadline,
                    "timed out waiting for {want} executor entries (saw {})",
                    *entered
                );
            }
        }

        fn release(&self) {
            *self.released.lock().unwrap() = true;
            self.cv.notify_all();
        }
    }

    const REQ_A: &str = r#"{"benchmark":"lucas","method":"multilevel","config":"base"}"#;
    const REQ_B: &str = r#"{"benchmark":"lucas","method":"multilevel","config":"sensitivity"}"#;

    #[test]
    fn request_parsing_validates_and_defaults() {
        let req = AnalyzeRequest::from_json(REQ_A).expect("valid request");
        assert_eq!(req.benchmark, "lucas");
        assert_eq!(req.iters, 2);
        assert_eq!(req.scale, 0.5);
        assert_eq!(req.method, ServeMethod::Multilevel);
        assert_eq!(req.config, ServeConfig::Base);

        let full = AnalyzeRequest::from_json(
            r#"{"benchmark":"gcc","iters":3,"scale":0.25,"method":"coasts","config":"sensitivity"}"#,
        )
        .expect("explicit fields");
        assert_eq!(
            full,
            AnalyzeRequest {
                benchmark: "gcc".into(),
                iters: 3,
                scale: 0.25,
                method: ServeMethod::Coasts,
                config: ServeConfig::Sensitivity,
            }
        );

        for bad in [
            "",
            "not json",
            "[]",
            "{}",
            r#"{"benchmark":"no-such-benchmark"}"#,
            r#"{"benchmark":"lucas","method":"magic"}"#,
            r#"{"benchmark":"lucas","config":"tiny"}"#,
            r#"{"benchmark":"lucas","scale":0}"#,
            r#"{"benchmark":"lucas","scale":1.5}"#,
            r#"{"benchmark":"lucas","iters":0}"#,
            r#"{"benchmark":"lucas","iters":2.5}"#,
            r#"{"benchmark":"lucas","surprise":1}"#,
        ] {
            assert!(AnalyzeRequest::from_json(bad).is_err(), "accepted bad request {bad:?}");
        }
    }

    #[test]
    fn admission_control_rejects_beyond_queue_depth_with_retry_after() {
        let _g = crate::testobs::counter_lock();
        let gate = Gate::new();
        let exec_gate = Arc::clone(&gate);
        let daemon = Daemon::start_with_executor(
            ServeOptions { workers: 1, queue_depth: 1, ..ServeOptions::default() },
            None,
            Box::new(move |_| {
                exec_gate.enter_and_wait();
                Ok("done".into())
            }),
        )
        .expect("start daemon");
        let addr = daemon.addr();

        // Job 1 occupies the single worker; wait until it is truly
        // inside the executor so the queue is empty again.
        let (code, body) = post_analyze_json(addr, REQ_A);
        assert_eq!(code, 202, "{body}");
        let first = job_id(&body);
        gate.wait_entered(1);

        // Job 2 fills the queue (distinct request so it cannot dedup).
        let (code, body) = post_analyze_json(addr, REQ_B);
        assert_eq!(code, 202, "{body}");

        // Job 3 must be refused — and with the full raw response, so
        // the Retry-After header is visible.
        let rejected = mlpa_obs::counter_value("serve.rejected");
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let payload = REQ_A;
        write!(
            stream,
            "POST /analyze HTTP/1.1\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{payload}",
            payload.len()
        )
        .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 503"), "expected 503, got: {raw}");
        assert!(raw.contains("Retry-After: 1"), "missing Retry-After: {raw}");
        assert_eq!(mlpa_obs::counter_value("serve.rejected"), rejected + 1);

        gate.release();
        wait_for_state(addr, first, "done");
        daemon.stop();
    }

    #[test]
    fn concurrent_identical_requests_compute_once_and_match_bytes() {
        let _g = crate::testobs::counter_lock();
        let gate = Gate::new();
        let exec_gate = Arc::clone(&gate);
        let executions = Arc::new(AtomicU64::new(0));
        let exec_count = Arc::clone(&executions);
        let tmp = TempDir::new("serve-test-dedup-cache");
        let cache_dir = tmp.path().to_path_buf();
        let daemon = Daemon::start_with_executor(
            ServeOptions {
                workers: 2,
                queue_depth: 8,
                cache_dir: Some(cache_dir.clone()),
                ..ServeOptions::default()
            },
            Some(Arc::new(ArtifactCache::open(&cache_dir).unwrap())),
            Box::new(move |req| {
                exec_count.fetch_add(1, Ordering::SeqCst);
                exec_gate.enter_and_wait();
                Ok(format!("{{\"result\":\"{}\"}}", req.benchmark))
            }),
        )
        .expect("start daemon");
        let addr = daemon.addr();
        let dedup_before = mlpa_obs::counter_value("serve.inflight_dedup");

        let (code, body) = post_analyze_json(addr, REQ_A);
        assert_eq!(code, 202, "{body}");
        let first = job_id(&body);
        // The leader is inside the (blocked) executor before the
        // identical request arrives, so the second job must join the
        // flight rather than start a second computation.
        gate.wait_entered(1);
        let (code, body) = post_analyze_json(addr, REQ_A);
        assert_eq!(code, 202, "{body}");
        let second = job_id(&body);
        wait_for_state(addr, second, "running");

        gate.release();
        wait_for_state(addr, first, "done");
        wait_for_state(addr, second, "done");

        assert_eq!(executions.load(Ordering::SeqCst), 1, "exactly one pipeline execution");
        assert_eq!(
            mlpa_obs::counter_value("serve.inflight_dedup"),
            dedup_before + 1,
            "the deduplicated request must be counted"
        );
        let (code, result1) = http::get(addr, &format!("/jobs/{first}/result")).unwrap();
        assert_eq!(code, 200);
        let (code, result2) = http::get(addr, &format!("/jobs/{second}/result")).unwrap();
        assert_eq!(code, 200);
        assert_eq!(result1, result2, "deduplicated responses must be byte-identical");

        daemon.stop();
    }

    #[test]
    fn identical_request_after_restart_is_a_warm_cache_hit() {
        // Uses the cache, so its counter bumps must not land inside
        // another test's measurement window.
        let _g = crate::testobs::counter_lock();
        let tmp = TempDir::new("serve-test-restart-cache");
        let cache_dir = tmp.path().to_path_buf();
        let build = |marker: &'static str, executions: Arc<AtomicU64>| {
            let dir = cache_dir.clone();
            Daemon::start_with_executor(
                ServeOptions {
                    workers: 1,
                    queue_depth: 4,
                    cache_dir: Some(dir.clone()),
                    ..ServeOptions::default()
                },
                Some(Arc::new(ArtifactCache::open(&dir).unwrap())),
                Box::new(move |req| {
                    executions.fetch_add(1, Ordering::SeqCst);
                    Ok(format!("{{\"result\":\"{}:{marker}\"}}", req.benchmark))
                }),
            )
            .expect("start daemon")
        };

        let cold_execs = Arc::new(AtomicU64::new(0));
        let daemon = build("cold", Arc::clone(&cold_execs));
        let addr = daemon.addr();
        let (code, body) = post_analyze_json(addr, REQ_A);
        assert_eq!(code, 202, "{body}");
        let id = job_id(&body);
        wait_for_state(addr, id, "done");
        let (_, cold_result) = http::get(addr, &format!("/jobs/{id}/result")).unwrap();
        assert_eq!(cold_execs.load(Ordering::SeqCst), 1);
        daemon.stop();

        // Restart over the same cache directory: the identical request
        // must be served from the store, bypassing the executor — and
        // byte-identical to the cold result even though the warm
        // executor would have produced a different body.
        let warm_execs = Arc::new(AtomicU64::new(0));
        let daemon = build("warm", Arc::clone(&warm_execs));
        let addr = daemon.addr();
        let (code, body) = post_analyze_json(addr, REQ_A);
        assert_eq!(code, 202, "{body}");
        let id = job_id(&body);
        wait_for_state(addr, id, "done");
        let (_, warm_result) = http::get(addr, &format!("/jobs/{id}/result")).unwrap();
        assert_eq!(warm_execs.load(Ordering::SeqCst), 0, "warm hit must not re-execute");
        assert_eq!(cold_result, warm_result, "warm response must be byte-identical");
        daemon.stop();
    }

    #[test]
    fn unknown_jobs_and_paths_answer_cleanly() {
        let daemon = Daemon::start_with_executor(
            ServeOptions::default(),
            None,
            Box::new(|_| Ok("{}".into())),
        )
        .expect("start daemon");
        let addr = daemon.addr();
        assert_eq!(http::get(addr, "/healthz").unwrap().0, 200);
        assert_eq!(http::get(addr, "/jobs/999").unwrap().0, 404);
        assert_eq!(http::get(addr, "/jobs/notanumber").unwrap().0, 404);
        assert_eq!(http::get(addr, "/nope").unwrap().0, 404);
        let (code, _) = post_analyze_json(addr, "{\"benchmark\":\"nope\"}");
        assert_eq!(code, 400);
        daemon.stop();
    }
}
