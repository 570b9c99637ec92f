//! `serve-mixed`: an in-process `mlpa-serve` daemon under a closed loop
//! of client threads, each with one connection at a time.
//!
//! Every round starts a daemon over a fresh store. Each client first
//! sends its cold requests (distinct keys: misses that run the pipeline
//! and write the store), then repeats its own completed keys (hits that
//! cross HTTP, admission and store reads only). A cache or server change
//! that helps one kind and costs the other shows in the same round.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mlpa_core::prelude::*;
use mlpa_core::serve::{AnalyzeRequest, Daemon, ServeConfig, ServeMethod, ServeOptions};
use mlpa_core::trace_insts;
use mlpa_obs::http;
use mlpa_obs::json::{self, Value};
use mlpa_sim::MachineConfig;
use mlpa_workloads::{suite, BenchmarkSpec, CompiledBenchmark};

use crate::inputs::serve_requests;
use crate::trace::Tracer;
use crate::{Round, Workload, PLAN_SPANS};

/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// Repeats of completed keys each client sends after its cold requests.
const WARM_REPEATS: usize = 500;
/// Job polling starts here and doubles up to [`POLL_MAX`].
const POLL_START: Duration = Duration::from_micros(250);
const POLL_MAX: Duration = Duration::from_millis(8);
/// `GET /healthz` round trips per traced round: the bare HTTP cost.
const HEALTHZ_PROBES: usize = 200;

/// One cold request: its body, its parsed form, and the trace length
/// its result must report.
struct Cold {
    body: String,
    req: AnalyzeRequest,
    trace_len: u64,
}

pub struct Serve {
    /// Per client, its cold requests in send order.
    clients: Vec<Vec<Cold>>,
    daemon: Running,
}

/// A daemon over a store of its own; dropping it stops the daemon and
/// deletes the store, on every path out of a round.
struct Running {
    daemon: Option<Daemon>,
    store: PathBuf,
}

impl Running {
    fn addr(&self) -> SocketAddr {
        self.daemon.as_ref().expect("the daemon runs until drop").addr()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(daemon) = self.daemon.take() {
            daemon.stop();
        }
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

/// Generate and validate the request stream, check that its cold
/// requests are all misses, measure each one's trace length, then start
/// a daemon over a fresh store and wait until it answers.
pub fn setup(variant: u64) -> Result<Serve, String> {
    let mut keys = BTreeSet::new();
    let mut clients = Vec::new();
    for reqs in serve_requests(variant) {
        let mut cold = Vec::new();
        for r in reqs {
            let body = r.body();
            let req = AnalyzeRequest::from_json(&body)?;
            // Distinct store keys make every cold request a miss.
            if !keys.insert(req.cache_key()?.material().to_string()) {
                return Err(format!("two cold requests share a store key: {body}"));
            }
            let trace_len = trace_insts(&CompiledBenchmark::compile(&spec(&req)?)?);
            cold.push(Cold { body, req, trace_len });
        }
        clients.push(cold);
    }

    static STORES: AtomicUsize = AtomicUsize::new(0);
    let n = STORES.fetch_add(1, Ordering::Relaxed);
    let store = crate::out_dir().join(format!("store-{}-{n}", std::process::id()));
    if let Err(e) = std::fs::remove_dir_all(&store) {
        if e.kind() != std::io::ErrorKind::NotFound {
            return Err(format!("removing {}: {e}", store.display()));
        }
    }
    let daemon = Daemon::start(ServeOptions {
        port: 0,
        workers: WORKERS,
        queue_depth: 8,
        cache_dir: Some(store.clone()),
        cache_budget: None,
    })?;
    let daemon = Running { daemon: Some(daemon), store };
    match http::get(daemon.addr(), "/healthz") {
        Ok((200, _)) => Ok(Serve { clients, daemon }),
        answer => Err(format!("GET /healthz answered {answer:?}")),
    }
}

/// The spec `serve::analyze` builds for a request.
fn spec(req: &AnalyzeRequest) -> Result<BenchmarkSpec, String> {
    suite::benchmark_with_iters(&req.benchmark, req.iters)
        .map(|s| s.scaled(req.scale))
        .ok_or_else(|| format!("unknown benchmark {}", req.benchmark))
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    miss_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    /// The first body returned for each cold request, in send order.
    bodies: Vec<Option<String>>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Workload for Serve {
    fn round(self: Box<Self>, t: &mut Tracer) -> Result<Round, String> {
        let Serve { clients, daemon } = *self;
        let addr = daemon.addr();
        let mut samples = Vec::new();
        if t.enabled() {
            t.span("probes", |t| {
                for _ in 0..HEALTHZ_PROBES {
                    let t0 = Instant::now();
                    let ok = t.span("http.healthz", |_| http::get(addr, "/healthz"));
                    if !matches!(ok, Ok((200, _))) {
                        return Err(format!("GET /healthz failed: {ok:?}"));
                    }
                    samples.push(("http.healthz_ms", ms(t0)));
                }
                Ok(())
            })?;
        }

        let t0 = Instant::now();
        let logs: Vec<ClientLog> = t.span("session", |t| {
            std::thread::scope(|s| {
                let handles: Vec<_> = clients
                    .iter()
                    .map(|reqs| {
                        let mut ct = t.fork();
                        s.spawn(move || (client(addr, reqs, &mut ct), ct))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        let (log, ct) = h.join().expect("client thread panicked");
                        t.absorb(ct);
                        log
                    })
                    .collect()
            })
        });
        let secs = t0.elapsed().as_secs_f64();
        if t.enabled() {
            let (entries, bytes) = store_size(&daemon.store);
            t.count("cache.entries", entries);
            t.count("cache.store_bytes", bytes);
        }
        drop(daemon);

        // Request body -> the result body first served for it.
        let mut served: BTreeMap<&str, String> = BTreeMap::new();
        let (mut attempted, mut failed) = (0, 0);
        let mut insts = 0;
        for ((c, log), cold) in logs.into_iter().enumerate().zip(&clients) {
            for e in log.errors.iter().take(3) {
                eprintln!("serve-mixed: client {c}: {e}");
            }
            attempted += log.attempted;
            failed += log.failed;
            samples.extend(log.miss_ms.iter().map(|&v| ("serve.miss_ms", v)));
            samples.extend(log.hit_ms.iter().map(|&v| ("serve.hit_ms", v)));
            for (cold, body) in cold.iter().zip(log.bodies) {
                let Some(body) = body else { continue };
                if !body.contains(&format!("\"total_insts\":{},", cold.trace_len)) {
                    eprintln!("serve-mixed: {} reports the wrong trace length", cold.body);
                    failed += 1;
                }
                insts += cold.trace_len;
                served.insert(&cold.body, body);
            }
        }
        if t.enabled() {
            failed += replay(&clients, t, &served, &mut samples)?;
        }
        let mut bodies: Vec<&str> = served.values().map(String::as_str).collect();
        bodies.sort_unstable();
        Ok(Round {
            secs,
            minst: insts as f64 / 1e6,
            digest: crate::golden::digest(&bodies.join("\n")),
            attempted,
            failed,
            samples,
            quality: Vec::new(),
        })
    }
}

/// The cold requests' analyses replayed in-process, each layer's public
/// call in its span; returns how many estimates disagree with the bodies
/// the daemon served. `serve::analyze` runs the profiling passes lazily
/// inside selection; calling the same lazy getters first does the same
/// work with the profiling split out.
fn replay(
    clients: &[Vec<Cold>],
    t: &mut Tracer,
    served: &BTreeMap<&str, String>,
    samples: &mut Vec<(&'static str, f64)>,
) -> Result<u64, String> {
    let mut mismatched = 0;
    t.span("pipeline", |t| {
        for cold in clients.iter().flatten() {
            let t0 = Instant::now();
            let (plan, est) = t.span("analyze", |t| replay_one(&cold.req, t))?;
            samples.push(("serve.analyze_ms", ms(t0)));
            // The fields `serve::analyze` renders, in its exact float
            // form: every served body must carry the replay's numbers.
            let expected = format!(
                "\"points\":{},\"total_insts\":{},\"detail_fraction\":{:?},\
                 \"estimate\":{{\"cpi\":{:?},\"l1_hit_rate\":{:?},\
                 \"l2_hit_rate\":{:?},\"mispredict_rate\":{:?}}}",
                plan.len(),
                plan.total_insts(),
                plan.detail_fraction(),
                est.cpi,
                est.l1_hit_rate,
                est.l2_hit_rate,
                est.mispredict_rate
            );
            if served.get(cold.body.as_str()).is_some_and(|s| !s.contains(&expected)) {
                eprintln!("serve-mixed: replay disagrees with the daemon on {}", cold.body);
                mismatched += 1;
            }
        }
        Ok::<(), String>(())
    })?;
    Ok(mismatched)
}

fn replay_one(
    req: &AnalyzeRequest,
    t: &mut Tracer,
) -> Result<(SimulationPlan, mlpa_sim::MetricEstimate), String> {
    let spec = spec(req)?;
    let cb = t.span("compile", |_| CompiledBenchmark::compile(&spec))?;
    let coasts = CoastsConfig::default();
    let mut ctx = ProfilingContext::new(&cb, coasts.projection, FINE_INTERVAL);
    let (plan, mi) = match req.method {
        ServeMethod::SimPoint => {
            t.span("profile", |_| {
                ctx.fine_intervals();
            });
            let fine = t.span("select_fine", |_| {
                simpoint_baseline_with(&mut ctx, &SimPointConfig::fine_10m())
            })?;
            t.count("fine.intervals", fine.simpoints.num_intervals as f64);
            (fine.plan, 0)
        }
        ServeMethod::Coasts => {
            t.span("profile", |_| {
                ctx.loop_profile();
            });
            (t.span("select_coasts", |_| coasts_with(&mut ctx, &coasts))?.plan, 1)
        }
        ServeMethod::Multilevel => {
            t.span("profile", |_| {
                ctx.loop_profile();
            });
            let ml = t.span("select_multilevel", |_| {
                multilevel_with(&mut ctx, &MultilevelConfig::default())
            })?;
            (ml.plan, 2)
        }
    };
    let machine = match req.config {
        ServeConfig::Base => MachineConfig::table1_base(),
        ServeConfig::Sensitivity => MachineConfig::table1_sensitivity(),
    };
    let out = t.span(PLAN_SPANS[mi], |_| execute_plan(&cb, &machine, &plan, WarmupMode::Warmed));
    t.count("plan.functional_insts", out.cost.functional_insts as f64);
    t.count("plan.detailed_insts", out.cost.detailed_insts as f64);
    Ok((plan, out.estimate))
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// The closed loop of one client: its cold requests, then repeats of
/// them, each waiting for its answer before the next is sent.
fn client(addr: SocketAddr, reqs: &[Cold], t: &mut Tracer) -> ClientLog {
    let mut log = ClientLog { bodies: vec![None; reqs.len()], ..ClientLog::default() };
    for i in 0..reqs.len() + WARM_REPEATS {
        let k = i % reqs.len();
        let cold = i < reqs.len();
        let t0 = Instant::now();
        let answer = t.span("request", |t| request(addr, &reqs[k].body, t));
        let latency = ms(t0);
        log.attempted += 1;
        let outcome = match (answer, &log.bodies[k]) {
            (Err(e), _) => Err(e),
            (Ok(body), None) => {
                log.bodies[k] = Some(body);
                Ok(())
            }
            (Ok(body), Some(first)) if body == *first => Ok(()),
            (Ok(body), Some(first)) => Err(format!("body changed from {first} to {body}")),
        };
        match outcome {
            Ok(()) if cold => log.miss_ms.push(latency),
            Ok(()) => log.hit_ms.push(latency),
            Err(e) => {
                log.failed += 1;
                log.errors.push(e);
            }
        }
    }
    log
}

/// One analysis: POST, poll the job until it settles, fetch the result.
/// A refused (503) or failed request is an error.
fn request(addr: SocketAddr, body: &str, t: &mut Tracer) -> Result<String, String> {
    let (code, answer) = t
        .span("serve.post", |_| http::post(addr, "/analyze", "application/json", body))
        .map_err(|e| format!("POST /analyze: {e}"))?;
    if code != 202 {
        return Err(format!("POST /analyze answered {code}: {answer}"));
    }
    let job = json::parse(&answer)
        .ok()
        .and_then(|v| v.get("job").and_then(Value::as_f64))
        .ok_or_else(|| format!("202 without a job id: {answer}"))? as u64;
    let mut polls = 0.0;
    t.span("serve.poll", |_| {
        let mut wait = POLL_START;
        loop {
            std::thread::sleep(wait);
            polls += 1.0;
            let (code, status) =
                http::get(addr, &format!("/jobs/{job}")).map_err(|e| format!("GET /jobs: {e}"))?;
            let state = json::parse(&status)
                .ok()
                .and_then(|v| v.get("state").and_then(Value::as_str).map(str::to_string));
            match (code, state.as_deref()) {
                (200, Some("done")) => return Ok(()),
                (200, Some("queued" | "running")) => wait = (wait * 2).min(POLL_MAX),
                _ => return Err(format!("job {job} poll answered {code}: {status}")),
            }
        }
    })?;
    t.count("serve.polls", polls);
    let (code, result) = t
        .span("serve.result", |_| http::get(addr, &format!("/jobs/{job}/result")))
        .map_err(|e| format!("GET result: {e}"))?;
    if code != 200 {
        return Err(format!("job {job} result answered {code}: {result}"));
    }
    Ok(result)
}

/// Artifact files and their bytes under a store directory.
fn store_size(dir: &Path) -> (f64, f64) {
    let mut entries = 0.0;
    let mut bytes = 0.0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let path = e.path();
            match e.metadata() {
                Ok(m) if m.is_dir() => stack.push(path),
                Ok(m) if path.extension().is_some_and(|x| x == "art") => {
                    entries += 1.0;
                    bytes += m.len() as f64;
                }
                _ => {}
            }
        }
    }
    (entries, bytes)
}
