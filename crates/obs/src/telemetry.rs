//! Live telemetry: a background sampler thread and a std-only HTTP
//! status server.
//!
//! The **sampler** is started by [`crate::init`] when [`crate::ObsConfig`]
//! carries both a JSONL sink and a `sample_ms` interval. Each tick it
//! snapshots every counter, gauge, and live worker pool plus the
//! process peak RSS, and appends one `sample` event (schema
//! [`crate::SAMPLE_SCHEMA`]) to the sink. Ticks are a monotonic index —
//! downstream contracts check tick order and counter monotonicity,
//! never wall-clock. [`crate::finish`] stops the thread and always
//! emits one final sample, so even a run shorter than the interval
//! produces a complete time-series.
//!
//! The **status server** ([`serve_status`]) answers HTTP/1.1 (via the
//! shared [`crate::http`] server, which handles each connection on its
//! own thread with bounded request reads, so a stalled client never
//! blocks a scrape) on two paths: `GET /metrics` with the Prometheus
//! text exposition of the current registries (see [`crate::promtext`])
//! and `GET /status` with a small JSON summary (schema
//! [`crate::STATUS_SCHEMA`]: run phase, benchmark progress, current
//! segment, uptime ticks, RSS). Port 0 requests an ephemeral port; the
//! bound address is returned so callers can print it.

use crate::http::{self, Response};
use crate::json;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

static TICK: AtomicU64 = AtomicU64::new(0);
static RUN_PHASE: Mutex<String> = Mutex::new(String::new());
static SAMPLER: Mutex<Option<Sampler>> = Mutex::new(None);
static SERVER: Mutex<Option<http::Server>> = Mutex::new(None);
/// Cumulative per-pool busy nanoseconds at the previous tick, plus
/// its instant, for busy-fraction deltas. Only the sampler thread
/// and `reset_for_tests` touch this.
static PREV_BUSY: Mutex<Option<(Instant, std::collections::BTreeMap<String, u64>)>> =
    Mutex::new(None);

struct Sampler {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: JoinHandle<()>,
}

/// Set the coarse run phase shown by `GET /status` (e.g.
/// `warmup`, `benchmarks`, `report`).
pub fn set_run_phase(phase: &str) {
    *RUN_PHASE.lock().expect("obs run phase poisoned") = phase.to_string();
}

/// The current coarse run phase (empty until first set).
pub fn run_phase() -> String {
    RUN_PHASE.lock().expect("obs run phase poisoned").clone()
}

/// Number of sampler ticks emitted so far (0 when the sampler never
/// ran).
pub fn uptime_ticks() -> u64 {
    TICK.load(Ordering::Relaxed)
}

/// Emit one `sample` event to the JSONL sink. Runs on the sampler
/// thread; the per-line sink mutex in `crate::emit` is what keeps
/// samples from tearing lines written by instrumented threads.
fn emit_sample() {
    if !crate::sink_open() {
        return;
    }
    let tick = TICK.fetch_add(1, Ordering::Relaxed);
    let now = Instant::now();
    let pools = crate::pool_live_snapshot();
    let mut prev = PREV_BUSY.lock().expect("obs prev busy poisoned");
    let (wall_ns, prev_map) = match prev.as_ref() {
        Some((at, map)) => (now.duration_since(*at).as_nanos() as u64, map.clone()),
        None => (0, std::collections::BTreeMap::new()),
    };
    *prev = Some((now, pools.iter().map(|p| (p.pool.clone(), p.busy_ns)).collect()));
    drop(prev);

    let counters = crate::counters_snapshot()
        .iter()
        .map(|(name, v)| format!("\"{}\":{v}", json::escape(name)))
        .collect::<Vec<_>>()
        .join(",");
    let gauges = crate::gauges_snapshot()
        .iter()
        .map(|(name, v)| format!("\"{}\":{v}", json::escape(name)))
        .collect::<Vec<_>>()
        .join(",");
    let pools = pools
        .iter()
        .map(|p| {
            let prev_busy = prev_map.get(&p.pool).copied().unwrap_or(0);
            let delta_busy = p.busy_ns.saturating_sub(prev_busy);
            // Worker-seconds of busy time per wall second since the
            // last tick; can exceed 1.0 with multiple workers.
            let busy_frac = if wall_ns > 0 { delta_busy as f64 / wall_ns as f64 } else { 0.0 };
            format!(
                "{{\"pool\":\"{}\",\"live\":{},\"jobs\":{},\"busy_ms\":{},\
                 \"busy_frac\":{busy_frac:.4}}}",
                json::escape(&p.pool),
                p.live,
                p.jobs,
                p.busy_ns / 1_000_000,
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let rss = crate::peak_rss_bytes().unwrap_or(0);
    crate::emit(&format!(
        "{{\"ev\":\"sample\",\"schema\":\"{}\",\"tick\":{tick},\"t_us\":{},\
         \"rss_bytes\":{rss},\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\
         \"pools\":[{pools}]}}",
        crate::SAMPLE_SCHEMA,
        crate::t_us(),
    ));
}

/// Start the background sampler (idempotent). Called by
/// [`crate::init`]; emits one sample immediately, then one per
/// interval, then one final sample when stopped.
pub(crate) fn start_sampler(interval_ms: u64) {
    let mut guard = SAMPLER.lock().expect("obs sampler poisoned");
    if guard.is_some() {
        return;
    }
    TICK.store(0, Ordering::Relaxed);
    *PREV_BUSY.lock().expect("obs prev busy poisoned") = None;
    let stop = Arc::new((Mutex::new(false), Condvar::new()));
    let stop2 = Arc::clone(&stop);
    let interval = Duration::from_millis(interval_ms.max(1));
    let handle = std::thread::Builder::new()
        .name("obs-sampler".into())
        .spawn(move || {
            let (lock, cv) = &*stop2;
            loop {
                let stopping = *lock.lock().expect("obs sampler stop poisoned");
                emit_sample();
                if stopping {
                    return;
                }
                let guard = lock.lock().expect("obs sampler stop poisoned");
                if *guard {
                    // Stop raced in while we were emitting: loop
                    // once more for the final sample.
                    continue;
                }
                let _unused = cv.wait_timeout(guard, interval).expect("obs sampler stop poisoned");
            }
        })
        .expect("spawn obs-sampler thread");
    *guard = Some(Sampler { stop, handle });
}

/// Stop the sampler and wait for its final sample (idempotent, and
/// a no-op when no sampler is running). Called by [`crate::finish`].
pub(crate) fn stop_sampler() {
    let sampler = SAMPLER.lock().expect("obs sampler poisoned").take();
    if let Some(s) = sampler {
        *s.stop.0.lock().expect("obs sampler stop poisoned") = true;
        s.stop.1.notify_all();
        let _ = s.handle.join();
    }
}

/// The `GET /status` body: run phase, benchmark progress, current
/// segment, uptime ticks, RSS — plus the full gauge map, since the
/// named fields are just conventional gauges.
fn status_json() -> String {
    let gauges = crate::gauges_snapshot();
    let gauge = |name: &str| gauges.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
    let body = gauges
        .iter()
        .map(|(name, v)| format!("\"{}\":{v}", json::escape(name)))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"schema\":\"{}\",\"phase\":\"{}\",\"benchmarks_done\":{},\
         \"benchmarks_total\":{},\"segment\":{},\"uptime_ticks\":{},\
         \"rss_bytes\":{},\"gauges\":{{{body}}}}}",
        crate::STATUS_SCHEMA,
        json::escape(&run_phase()),
        gauge("bench.done"),
        gauge("bench.total"),
        gauge("core.shard.segment"),
        uptime_ticks(),
        crate::peak_rss_bytes().unwrap_or(0),
    )
}

/// Bind the status server on `127.0.0.1:port` (0 = ephemeral) and
/// serve `/metrics` and `/status` from background threads until
/// [`stop_status_server`]. Each connection is handled on its own
/// thread with bounded reads (see [`crate::http::serve`]), so a
/// slow-loris client cannot delay a concurrent scrape. Idempotent:
/// a second call returns the already-bound address.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve_status(port: u16) -> io::Result<SocketAddr> {
    let mut guard = SERVER.lock().expect("obs server poisoned");
    if let Some(s) = guard.as_ref() {
        return Ok(s.addr());
    }
    let server = http::serve(port, "obs-status", |req| {
        if req.method != "GET" {
            return Response::new("405 Method Not Allowed", "text/plain", "GET only\n");
        }
        match req.path.as_str() {
            "/metrics" => Response::ok(
                "text/plain; version=0.0.4; charset=utf-8",
                crate::promtext::render_current(),
            ),
            "/status" => Response::json(status_json()),
            _ => Response::new("404 Not Found", "text/plain", "unknown path\n"),
        }
    })?;
    let addr = server.addr();
    *guard = Some(server);
    Ok(addr)
}

/// Stop the status server and join its accept thread (no-op when
/// not running).
pub fn stop_status_server() {
    let server = SERVER.lock().expect("obs server poisoned").take();
    if let Some(s) = server {
        s.stop();
    }
}

/// Reset telemetry state between tests: stop threads, zero the
/// tick, clear the phase.
#[doc(hidden)]
pub(crate) fn reset_for_tests() {
    stop_sampler();
    stop_status_server();
    TICK.store(0, Ordering::Relaxed);
    *PREV_BUSY.lock().expect("obs prev busy poisoned") = None;
    RUN_PHASE.lock().expect("obs run phase poisoned").clear();
}
