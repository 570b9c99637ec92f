//! Observability for the mlpa workspace.
//!
//! Five instruments, one switch:
//!
//! * **Spans** — hierarchical wall-clock timings ([`span`],
//!   [`span_labeled`]). Parent/child links follow the per-thread span
//!   stack, so nesting works across `std::thread::scope` workers; a
//!   [`pool`] helper starts from its caller's innermost span.
//! * **Counters** — named monotonic totals ([`add`]) backed by leaked
//!   `AtomicU64`s; hot loops should accumulate locally and flush once
//!   per call.
//! * **Gauges** — named last-write-wins instantaneous values
//!   ([`gauge_set`]): ROB/LSQ occupancy, cache hit rate, profiling
//!   progress. Unlike counters they move in both
//!   directions, so they are never regression-gated — they exist for
//!   the live telemetry sampler and the `/metrics` endpoint.
//! * **Histograms** — lock-free log2-bucketed distributions
//!   ([`hist_record`], [`hist_merge`]): span-duration spread, ROB/LSQ
//!   occupancy, cache-miss run lengths, k-means iterations. Hot loops
//!   accumulate into a local [`HistTally`] and merge once per call.
//! * **Workers** — per-worker utilization guards ([`worker`]) used by
//!   the plan-execution and experiment-suite thread pools; live pools
//!   are additionally visible to the telemetry sampler.
//!
//! On top of these, [`telemetry`] adds a *live* view of a running
//! process: a background sampler thread appending `sample` events to
//! the JSONL sink and a std-only HTTP status server exposing
//! Prometheus-format `/metrics` (see [`promtext`]) and JSON `/status`.
//! [`selfprofile`] turns the span stream into a per-span-name
//! self/total-time tree embedded in the run report, and [`check`]
//! validates every one of these outputs against its contract.
//!
//! Everything above is inert until [`init`] or [`set_enabled`] flips
//! the runtime switch: while it is off an instrument call costs one
//! relaxed atomic load, and hot loops hoist even that into one
//! [`is_enabled`] check per call. Instrumentation never touches RNG
//! state or work ordering, so enabling it cannot perturb deterministic
//! results.
//!
//! Events stream to an optional JSONL sink (one JSON object per line,
//! flushed per line); [`report`] aggregates everything into a
//! [`Report`] for `results/RUN_REPORT.json`. Logging ([`info!`],
//! [`vlog!`], [`elog!`], [`progress!`]) replaces the ad-hoc
//! `eprintln!` progress output and is controlled by [`Verbosity`], not
//! by the collection switch.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calibrate;
pub mod check;
pub mod http;
pub mod json;
pub mod pool;
pub mod promtext;
pub mod selfprofile;
pub mod telemetry;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Logging (gated by runtime verbosity only)
// ---------------------------------------------------------------------------

/// How much progress output goes to stderr.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Verbosity {
    /// Errors only (`--quiet`).
    Quiet = 0,
    /// Default progress output.
    Normal = 1,
    /// Extra detail (`--verbose`).
    Verbose = 2,
}

static VERBOSITY: AtomicU8 = AtomicU8::new(Verbosity::Normal as u8);
static FORCE_PROGRESS: AtomicBool = AtomicBool::new(false);

/// Set the global verbosity (from `--quiet` / `--verbose`).
pub fn set_verbosity(v: Verbosity) {
    VERBOSITY.store(v as u8, Ordering::Relaxed);
}

/// The current global verbosity.
pub fn verbosity() -> Verbosity {
    match VERBOSITY.load(Ordering::Relaxed) {
        0 => Verbosity::Quiet,
        2 => Verbosity::Verbose,
        _ => Verbosity::Normal,
    }
}

/// Force progress lines through even under `--quiet` (from
/// `--progress`).
pub fn set_force_progress(on: bool) {
    FORCE_PROGRESS.store(on, Ordering::Relaxed);
}

/// Whether progress lines should currently be printed.
pub fn progress_active() -> bool {
    FORCE_PROGRESS.load(Ordering::Relaxed) || verbosity() >= Verbosity::Normal
}

/// Print `[target] message` to stderr if `level` passes the current
/// verbosity (a `Quiet` level always prints — use it for errors), and
/// mirror the line to the JSONL sink when one is active.
pub fn log(level: Verbosity, target: &str, args: fmt::Arguments<'_>) {
    if level == Verbosity::Quiet || verbosity() >= level {
        eprintln!("[{target}] {args}");
    }
    sink_log(level, target, args);
}

/// Print a progress line; honours [`set_force_progress`] so `--progress`
/// overrides `--quiet`.
pub fn progress(target: &str, args: fmt::Arguments<'_>) {
    if progress_active() {
        eprintln!("[{target}] {args}");
    }
    sink_log(Verbosity::Normal, target, args);
}

/// Log at [`Verbosity::Normal`]: `info!("suite", "ran {n} benchmarks")`.
#[macro_export]
macro_rules! info {
    ($target:expr, $($arg:tt)*) => {
        $crate::log($crate::Verbosity::Normal, $target, ::core::format_args!($($arg)*))
    };
}

/// Log at [`Verbosity::Verbose`] (only shown with `--verbose`).
#[macro_export]
macro_rules! vlog {
    ($target:expr, $($arg:tt)*) => {
        $crate::log($crate::Verbosity::Verbose, $target, ::core::format_args!($($arg)*))
    };
}

/// Log unconditionally (errors; not silenced by `--quiet`).
#[macro_export]
macro_rules! elog {
    ($target:expr, $($arg:tt)*) => {
        $crate::log($crate::Verbosity::Quiet, $target, ::core::format_args!($($arg)*))
    };
}

/// Emit a progress line (shown unless `--quiet`, or always with
/// `--progress`).
#[macro_export]
macro_rules! progress {
    ($target:expr, $($arg:tt)*) => {
        $crate::progress($target, ::core::format_args!($($arg)*))
    };
}

// ---------------------------------------------------------------------------
// Configuration and run report
// ---------------------------------------------------------------------------

/// Runtime configuration consumed by [`init`].
#[derive(Debug, Default, Clone)]
pub struct ObsConfig {
    /// Flip the runtime collection switch on.
    pub enabled: bool,
    /// Stream JSONL events to this file.
    pub sink: Option<std::path::PathBuf>,
    /// Start the background telemetry sampler with this wake interval
    /// in milliseconds (`None` = no sampler). The sampler appends one
    /// [`SAMPLE_SCHEMA`] `sample` event per tick to the JSONL sink, so
    /// it only starts when a sink is configured too. 250 ms is the
    /// conventional default ([`DEFAULT_SAMPLE_MS`]).
    pub sample_ms: Option<u64>,
}

/// Conventional sampler interval for [`ObsConfig::sample_ms`].
pub const DEFAULT_SAMPLE_MS: u64 = 250;

/// Schema identifier written into `RUN_REPORT.json`, the only one
/// `obs-check` and `obs-diff` accept.
pub const RUN_REPORT_SCHEMA: &str = "mlpa-run-report-v3";

/// Schema identifier stamped on the `run_start` event of a JSONL
/// stream, the only one `obs-check` accepts.
pub const EVENTS_SCHEMA: &str = "mlpa-events-v3";

/// Schema identifier stamped on every telemetry `sample` event. The
/// payload carries a *monotonic tick index*, never wall-clock, in the
/// fields downstream contracts check (`t_us` rides along for humans and
/// trace viewers, like on every other event).
pub const SAMPLE_SCHEMA: &str = "mlpa-sample-v1";

/// Schema identifier of the status server's `GET /status` JSON body.
pub const STATUS_SCHEMA: &str = "mlpa-status-v2";

/// Number of log2 buckets in a histogram: bucket 0 holds the value 0,
/// bucket `b` (1..=64) holds values whose bit length is `b`, i.e.
/// `2^(b-1) <= v < 2^b`.
pub const HIST_BUCKETS: usize = 65;

/// Summary of one histogram, as serialized into `RUN_REPORT.json` and
/// `hist` sink events. Quantiles are bucket upper bounds (`2^b - 1`)
/// clamped to the observed `[min, max]`, so they are exact for
/// single-bucket distributions and within 2x otherwise — and, unlike
/// means of timings, deterministic for deterministic inputs when the
/// recorded values are (counts, occupancies, run lengths).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramStat {
    /// Histogram name (span-duration histograms get a `span.` prefix).
    pub name: String,
    /// Unit tag: `"us"` for time-like values, `"n"` for counts.
    pub unit: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Smallest recorded value.
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Median (bucket upper bound, clamped to `[min, max]`).
    pub p50: u64,
    /// 90th percentile (bucket upper bound, clamped).
    pub p90: u64,
    /// 99th percentile (bucket upper bound, clamped).
    pub p99: u64,
}

/// Aggregated per-span-name wall-clock totals.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Span name (e.g. `core.select.coasts`).
    pub name: String,
    /// Number of times the span was opened.
    pub count: u64,
    /// Total wall-clock seconds across all openings.
    pub total_s: f64,
}

/// Utilization of one worker slot — a `(pool, index)` pair — summed
/// over every [`worker`] guard opened on it, so a process that opens
/// guards forever (the `plan` guard of each plan execution in a
/// daemon) keeps one row per slot.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerStat {
    /// Pool label (e.g. `plan`, `suite`).
    pub pool: String,
    /// Worker index within the pool.
    pub index: usize,
    /// Seconds spent inside [`Worker::busy`] closures.
    pub busy_s: f64,
    /// Seconds from guard creation to drop, summed over guards.
    pub wall_s: f64,
    /// Number of jobs executed.
    pub jobs: u64,
    /// `busy_s / wall_s` (0 for a zero-length lifetime).
    pub busy_fraction: f64,
}

/// Mid-run aggregates for one worker pool, as returned by
/// [`pool_live_snapshot`]. Unlike [`WorkerStat`] rows (which only exist
/// once a guard drops), these are updated live as jobs complete, which
/// is what the telemetry sampler reads for busy fractions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolLiveStat {
    /// Pool label (e.g. `plan`, `suite`).
    pub pool: String,
    /// Worker guards currently open.
    pub live: u64,
    /// Cumulative nanoseconds spent inside `busy` closures, across all
    /// guards of this pool, including dropped ones.
    pub busy_ns: u64,
    /// Cumulative jobs completed across all guards of this pool.
    pub jobs: u64,
}

/// Raw log2 bucket counts for one histogram, as returned by
/// [`hist_buckets_snapshot`] — the Prometheus `/metrics` endpoint needs
/// cumulative per-bucket counts, not the p50/p90/p99 summary of
/// [`HistogramStat`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistBuckets {
    /// Histogram name (span-duration histograms get a `span.` prefix).
    pub name: String,
    /// Unit tag: `"us"` for time-like values, `"n"` for counts.
    pub unit: String,
    /// Raw count per log2 bucket (not cumulative).
    pub buckets: [u64; HIST_BUCKETS],
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
}

/// Snapshot of everything collected so far; serialized to
/// `results/RUN_REPORT.json`.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Wall-clock seconds since [`init`] (or the first instrument call).
    pub wall_s: f64,
    /// Per-span-name totals, sorted by name.
    pub phases: Vec<PhaseStat>,
    /// One row per worker guard, in completion order.
    pub workers: Vec<WorkerStat>,
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge last-written values, sorted by name. Gauge *names* are
    /// deterministic for a fixed configuration; their values are
    /// whatever was last written and are never regression-gated.
    pub gauges: Vec<(String, u64)>,
    /// Histogram summaries, sorted by name (empty histograms omitted).
    pub histograms: Vec<HistogramStat>,
    /// Span-aggregated self-profile (absent when collection was off).
    pub self_profile: Option<selfprofile::SelfProfile>,
}

impl Report {
    /// Serialize to the `mlpa-run-report-v3` JSON document.
    pub fn to_json(&self) -> String {
        self.to_json_with(&[])
    }

    /// Serialize with extra top-level sections appended after the
    /// standard ones. Each `(key, value)` pair contributes
    /// `"key": value`, where `value` must already be rendered JSON —
    /// this lets downstream crates (e.g. the experiment harness) inject
    /// sections like accuracy attribution without `mlpa-obs` knowing
    /// their types.
    pub fn to_json_with(&self, extra: &[(String, String)]) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{RUN_REPORT_SCHEMA}\",\n"));
        out.push_str(&format!("  \"wall_s\": {:.6},\n", self.wall_s));
        out.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            let sep = if i + 1 < self.phases.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"count\": {}, \"total_s\": {:.6}}}{sep}\n",
                json::escape(&p.name),
                p.count,
                p.total_s
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"workers\": [\n");
        for (i, w) in self.workers.iter().enumerate() {
            let sep = if i + 1 < self.workers.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"pool\": \"{}\", \"index\": {}, \"busy_s\": {:.6}, \
                 \"wall_s\": {:.6}, \"jobs\": {}, \"busy_fraction\": {:.4}}}{sep}\n",
                json::escape(&w.pool),
                w.index,
                w.busy_s,
                w.wall_s,
                w.jobs,
                w.busy_fraction
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"counters\": [\n");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let sep = if i + 1 < self.counters.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"value\": {value}}}{sep}\n",
                json::escape(name)
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"gauges\": [\n");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            let sep = if i + 1 < self.gauges.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"value\": {value}}}{sep}\n",
                json::escape(name)
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"histograms\": [\n");
        for (i, h) in self.histograms.iter().enumerate() {
            let sep = if i + 1 < self.histograms.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"count\": {}, \"sum\": {}, \
                 \"min\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}{sep}\n",
                json::escape(&h.name),
                json::escape(&h.unit),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50,
                h.p90,
                h.p99,
            ));
        }
        out.push_str("  ]");
        if let Some(sp) = &self.self_profile {
            out.push_str(",\n  \"self_profile\": ");
            out.push_str(&sp.to_json(2));
        }
        for (key, value) in extra {
            out.push_str(&format!(",\n  \"{}\": {value}", json::escape(key)));
        }
        out.push_str("\n}\n");
        out
    }
}

/// Extract the peak-RSS high-water mark (bytes) from the text of
/// `/proc/self/status`. Returns `None` — never a fake 0 — when the
/// `VmHWM:` line is missing, malformed, or reads as zero kilobytes (a
/// live process has touched at least one page, so a zero can only be a
/// parse artifact or a stub procfs). Split out from [`peak_rss_bytes`]
/// so the degradation paths are testable without faking a kernel.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    // Format: `VmHWM:    123456 kB`.
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    if kb == 0 {
        return None;
    }
    Some(kb * 1024)
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where the probe is unavailable
/// (non-Linux, unreadable procfs, malformed or zero `VmHWM`). Unlike
/// the counters this works with collection off: it reads the kernel's
/// high-water mark, not obs state. Machine- and
/// allocator-dependent — report it alongside wall-clock, never in
/// sections a regression gate diffs.
pub fn peak_rss_bytes() -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Static facts about the host this process runs on. Everything here is
/// informational context for humans reading snapshots and run reports —
/// *not* input to any regression gate (machines legitimately differ) —
/// except [`HostMeta::fingerprint`], which the calibration layer stamps
/// on baselines so a cross-machine comparison is visible in the data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostMeta {
    /// Logical CPUs available to this process
    /// (`std::thread::available_parallelism`, 1 when unknown).
    pub cpus: usize,
    /// Target architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Target OS (`std::env::consts::OS`).
    pub os: String,
    /// Kernel release string (`/proc/sys/kernel/osrelease`), or
    /// `"unknown"` where procfs is unavailable.
    pub kernel: String,
}

impl HostMeta {
    /// Timestamp-free host fingerprint (`arch-os-cN`): stable across
    /// reboots of the same machine shape, different across machine
    /// shapes. Deliberately excludes the kernel release so a routine
    /// kernel update does not churn committed baselines.
    pub fn fingerprint(&self) -> String {
        format!("{}-{}-c{}", self.arch, self.os, self.cpus)
    }

    /// The host block as a stable-key-order JSON [`json::Value`].
    pub fn to_value(&self) -> json::Value {
        use std::collections::BTreeMap;
        json::Value::Obj(BTreeMap::from([
            ("cpus".to_string(), json::Value::Num(self.cpus as f64)),
            ("arch".to_string(), json::Value::Str(self.arch.clone())),
            ("os".to_string(), json::Value::Str(self.os.clone())),
            ("kernel".to_string(), json::Value::Str(self.kernel.clone())),
        ]))
    }
}

/// Probe the current host's metadata. Cheap enough to call per run; the
/// kernel string degrades to `"unknown"` off-Linux instead of failing.
pub fn host_meta() -> HostMeta {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .ok()
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    HostMeta {
        cpus: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        arch: std::env::consts::ARCH.to_string(),
        os: std::env::consts::OS.to_string(),
        kernel,
    }
}

/// Bucket index for `value` in a log2 histogram: 0 for 0, otherwise the
/// bit length of `value` (so bucket `b` spans `2^(b-1)..2^b`).
#[inline]
pub fn hist_bucket(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Upper bound of histogram bucket `b` (the largest value it can hold).
#[inline]
pub fn hist_bucket_max(b: usize) -> u64 {
    match b {
        0 => 0,
        b if b >= 64 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

/// Quantile estimate over raw bucket counts: the upper bound of the
/// first bucket where the cumulative count reaches `ceil(q * count)`,
/// clamped to the observed `[min, max]`.
///
/// `q` outside `[0, 1]` (including NaN) is clamped into range, and an
/// empty histogram always yields 0 — never a garbage bucket bound or
/// the `u64::MAX`/`0` sentinels an untouched min/max pair holds.
pub fn hist_quantile(buckets: &[u64; HIST_BUCKETS], count: u64, q: f64, min: u64, max: u64) -> u64 {
    if count == 0 {
        return 0;
    }
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
    let target = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cum = 0u64;
    for (b, &c) in buckets.iter().enumerate() {
        cum += c;
        if cum >= target {
            return hist_bucket_max(b).clamp(min, max);
        }
    }
    max
}

// ---------------------------------------------------------------------------
// Collection (inert until `init` or `set_enabled` flips the runtime switch)
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(0);
static SPAN_TOTALS: Mutex<BTreeMap<&'static str, (u64, u128)>> = Mutex::new(BTreeMap::new());
/// Per (span name, parent span name) aggregation feeding the
/// self-profile tree; the `None` parent is a root (thread-local
/// stack was empty when the span opened).
type SpanEdgeMap = BTreeMap<(&'static str, Option<&'static str>), (u64, u128)>;
static SPAN_EDGES: Mutex<SpanEdgeMap> = Mutex::new(BTreeMap::new());
static COUNTERS: RwLock<BTreeMap<&'static str, &'static AtomicU64>> = RwLock::new(BTreeMap::new());
/// Last-write-wins gauges. Same leaked-`AtomicU64` discipline as
/// counters, but stores instead of adds.
static GAUGES: RwLock<BTreeMap<&'static str, &'static AtomicU64>> = RwLock::new(BTreeMap::new());
/// One row per worker slot `(pool, index)`, in first-drop order.
static WORKERS: Mutex<Vec<WorkerStat>> = Mutex::new(Vec::new());
/// Live per-pool worker aggregates for the telemetry sampler:
/// currently-open guards, cumulative busy nanoseconds, job count.
static POOLS: RwLock<BTreeMap<&'static str, &'static PoolLive>> = RwLock::new(BTreeMap::new());
static SINK: Mutex<Option<BufWriter<File>>> = Mutex::new(None);
static HISTS: RwLock<BTreeMap<&'static str, &'static Hist>> = RwLock::new(BTreeMap::new());
/// Span-duration histograms live in their own registry (reported
/// under a `span.` name prefix) so they can never collide with an
/// explicitly recorded histogram name.
static SPAN_HISTS: RwLock<BTreeMap<&'static str, &'static Hist>> = RwLock::new(BTreeMap::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Open spans on this thread: (id, name). Names ride along so a
    /// closing span can attribute its duration to its parent *name*
    /// for the self-profile without a global id lookup.
    static SPAN_STACK: RefCell<Vec<(u64, &'static str)>> = const { RefCell::new(Vec::new()) };
    /// Stable per-thread id for sink events (trace-track mapping).
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn tid() -> u64 {
    TID.with(|t| *t)
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

pub(crate) fn t_us() -> u128 {
    epoch().elapsed().as_micros()
}

/// One JSON object per line; flushed per line so a crash (or a
/// concurrent reader) never sees a partial record. The whole line is
/// written under the sink mutex, which is what guarantees `sample`
/// events from the telemetry thread never tear lines emitted by
/// scoped workers.
pub(crate) fn emit(line: &str) {
    let mut sink = SINK.lock().expect("obs sink poisoned");
    if let Some(w) = sink.as_mut() {
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
}

/// Whether a JSONL sink is currently open.
pub(crate) fn sink_open() -> bool {
    SINK.lock().expect("obs sink poisoned").is_some()
}

/// Install the runtime configuration: pin the epoch, open the JSONL
/// sink (if any), and flip the collection switch.
pub fn init(cfg: &ObsConfig) -> io::Result<()> {
    let _ = epoch();
    if let Some(path) = &cfg.sink {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = File::create(path)?;
        *SINK.lock().expect("obs sink poisoned") = Some(BufWriter::new(file));
    }
    ENABLED.store(cfg.enabled, Ordering::Release);
    emit(&format!("{{\"ev\":\"run_start\",\"schema\":\"{EVENTS_SCHEMA}\",\"t_us\":{}}}", t_us()));
    // Sample events go to the JSONL sink, so the sampler only runs
    // when both an interval and a sink are configured.
    if let (Some(ms), Some(_)) = (cfg.sample_ms, &cfg.sink) {
        crate::telemetry::start_sampler(ms);
    }
    Ok(())
}

/// Flip the runtime collection switch.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Whether collection is active (one relaxed load — this is the
/// entire cost of an instrument call while disabled at runtime).
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Add `delta` to the named counter. Registers the counter on first
/// use; hot loops should batch locally and call this once per outer
/// call.
pub fn add(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    if let Some(c) = COUNTERS.read().expect("obs counters poisoned").get(name) {
        c.fetch_add(delta, Ordering::Relaxed);
        return;
    }
    let mut map = COUNTERS.write().expect("obs counters poisoned");
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(AtomicU64::new(0))))
        .fetch_add(delta, Ordering::Relaxed);
}

/// Current value of a named counter (0 if never touched).
pub fn counter_value(name: &str) -> u64 {
    COUNTERS
        .read()
        .expect("obs counters poisoned")
        .get(name)
        .map_or(0, |c| c.load(Ordering::Relaxed))
}

/// All counters and their totals, sorted by name.
pub fn counters_snapshot() -> Vec<(String, u64)> {
    COUNTERS
        .read()
        .expect("obs counters poisoned")
        .iter()
        .map(|(name, c)| (name.to_string(), c.load(Ordering::Relaxed)))
        .collect()
}

/// Store `value` into the named gauge (last write wins). Registers
/// the gauge on first use, like counters. Gauges move in both
/// directions; nothing downstream may ever gate their *values*.
pub fn gauge_set(name: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    if let Some(g) = GAUGES.read().expect("obs gauges poisoned").get(name) {
        g.store(value, Ordering::Relaxed);
        return;
    }
    let mut map = GAUGES.write().expect("obs gauges poisoned");
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(AtomicU64::new(0))))
        .store(value, Ordering::Relaxed);
}

/// Last value written to a named gauge (0 if never written).
pub fn gauge_value(name: &str) -> u64 {
    GAUGES.read().expect("obs gauges poisoned").get(name).map_or(0, |g| g.load(Ordering::Relaxed))
}

/// All gauges and their last-written values, sorted by name.
pub fn gauges_snapshot() -> Vec<(String, u64)> {
    GAUGES
        .read()
        .expect("obs gauges poisoned")
        .iter()
        .map(|(name, g)| (name.to_string(), g.load(Ordering::Relaxed)))
        .collect()
}

/// Live aggregates for one worker pool, updated as jobs run (not
/// just when guards drop) so the telemetry sampler can report
/// mid-run busy fractions.
pub(crate) struct PoolLive {
    live: AtomicU64,
    busy_ns: AtomicU64,
    jobs: AtomicU64,
}

fn pool_live_of(pool: &'static str) -> &'static PoolLive {
    if let Some(p) = POOLS.read().expect("obs pools poisoned").get(pool) {
        return p;
    }
    let mut map = POOLS.write().expect("obs pools poisoned");
    map.entry(pool).or_insert_with(|| {
        Box::leak(Box::new(PoolLive {
            live: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
        }))
    })
}

/// Mid-run snapshot of every worker pool that has ever opened a
/// guard, sorted by pool name.
pub fn pool_live_snapshot() -> Vec<PoolLiveStat> {
    POOLS
        .read()
        .expect("obs pools poisoned")
        .iter()
        .map(|(pool, p)| PoolLiveStat {
            pool: pool.to_string(),
            live: p.live.load(Ordering::Relaxed),
            busy_ns: p.busy_ns.load(Ordering::Relaxed),
            jobs: p.jobs.load(Ordering::Relaxed),
        })
        .collect()
}

/// One live histogram: lock-free log2 buckets plus count/sum and
/// atomically maintained min/max. Leaked into `'static` on first
/// use, like counters.
struct Hist {
    unit: &'static str,
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Hist {
    fn new(unit: &'static str) -> Hist {
        Hist {
            unit,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        self.buckets[hist_bucket(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn merge(&self, t: &HistTally) {
        for (b, &c) in t.buckets.iter().enumerate() {
            if c > 0 {
                self.buckets[b].fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(t.count, Ordering::Relaxed);
        self.sum.fetch_add(t.sum, Ordering::Relaxed);
        self.min.fetch_min(t.min, Ordering::Relaxed);
        self.max.fetch_max(t.max, Ordering::Relaxed);
    }

    fn snapshot(&self, name: String) -> Option<HistogramStat> {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return None;
        }
        let mut buckets = [0u64; HIST_BUCKETS];
        for (b, c) in buckets.iter_mut().enumerate() {
            *c = self.buckets[b].load(Ordering::Relaxed);
        }
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        Some(HistogramStat {
            name,
            unit: self.unit.to_string(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min,
            max,
            p50: hist_quantile(&buckets, count, 0.50, min, max),
            p90: hist_quantile(&buckets, count, 0.90, min, max),
            p99: hist_quantile(&buckets, count, 0.99, min, max),
        })
    }

    fn raw(&self, name: String) -> Option<HistBuckets> {
        // Derive `count` from the bucket snapshot instead of the
        // separate `count` cell: writers increment a bucket before
        // `count`, so a concurrent mid-run read of `count` can lag
        // the bucket total and render a `+Inf`/`_count` smaller
        // than the last cumulative `le` bucket — which the strict
        // exposition checker rejects as non-cumulative. At
        // quiescence (finish-time reports) the two are equal.
        let mut buckets = [0u64; HIST_BUCKETS];
        for (b, c) in buckets.iter_mut().enumerate() {
            *c = self.buckets[b].load(Ordering::Relaxed);
        }
        let count: u64 = buckets.iter().sum();
        if count == 0 {
            return None;
        }
        Some(HistBuckets {
            name,
            unit: self.unit.to_string(),
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
        })
    }
}

fn hist_of(
    registry: &RwLock<BTreeMap<&'static str, &'static Hist>>,
    name: &'static str,
    unit: &'static str,
) -> &'static Hist {
    if let Some(h) = registry.read().expect("obs hists poisoned").get(name) {
        return h;
    }
    let mut map = registry.write().expect("obs hists poisoned");
    map.entry(name).or_insert_with(|| Box::leak(Box::new(Hist::new(unit))))
}

/// Local, unsynchronized histogram tally for hot loops: record into
/// this on the stack, then [`hist_merge`] once per outer call.
#[derive(Debug, Clone)]
pub struct HistTally {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl HistTally {
    /// An empty tally.
    pub fn new() -> HistTally {
        HistTally { buckets: [0; HIST_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Record one value (no atomics, no branches on the obs switch —
    /// guard the loop with [`is_enabled`] instead).
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[hist_bucket(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of values recorded so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

impl Default for HistTally {
    fn default() -> HistTally {
        HistTally::new()
    }
}

/// Record one value into the named histogram. Registers it (with
/// `unit`) on first use; hot loops should use a [`HistTally`] and
/// [`hist_merge`] instead.
pub fn hist_record(name: &'static str, unit: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    hist_of(&HISTS, name, unit).record(value);
}

/// Merge a local [`HistTally`] into the named histogram (one batch
/// of atomic adds per bucket touched). Empty tallies are free.
pub fn hist_merge(name: &'static str, unit: &'static str, tally: &HistTally) {
    if !is_enabled() || tally.count == 0 {
        return;
    }
    hist_of(&HISTS, name, unit).merge(tally);
}

/// Summaries of all non-empty histograms, sorted by name.
/// Span-duration histograms appear with a `span.` name prefix.
pub fn histograms_snapshot() -> Vec<HistogramStat> {
    let mut out: Vec<HistogramStat> = Vec::new();
    for (name, h) in HISTS.read().expect("obs hists poisoned").iter() {
        if let Some(s) = h.snapshot(name.to_string()) {
            out.push(s);
        }
    }
    for (name, h) in SPAN_HISTS.read().expect("obs hists poisoned").iter() {
        if let Some(s) = h.snapshot(format!("span.{name}")) {
            out.push(s);
        }
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Raw bucket counts of all non-empty histograms, sorted by name
/// (the `/metrics` exposition needs per-bucket counts, not
/// quantile summaries).
pub fn hist_buckets_snapshot() -> Vec<HistBuckets> {
    let mut out: Vec<HistBuckets> = Vec::new();
    for (name, h) in HISTS.read().expect("obs hists poisoned").iter() {
        if let Some(s) = h.raw(name.to_string()) {
            out.push(s);
        }
    }
    for (name, h) in SPAN_HISTS.read().expect("obs hists poisoned").iter() {
        if let Some(s) = h.raw(format!("span.{name}")) {
            out.push(s);
        }
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// The self-profile call-tree edges observed so far: one row per
/// (span name, parent span name) pair with its call count and total
/// wall seconds. Roots (spans opened with an empty per-thread span
/// stack — including every span opened on a scoped worker thread
/// other than a [`crate::pool`] helper) have `parent == None`.
pub fn span_edges_snapshot() -> Vec<crate::selfprofile::RawEdge> {
    SPAN_EDGES
        .lock()
        .expect("obs span edges poisoned")
        .iter()
        .map(|((name, parent), (calls, ns))| crate::selfprofile::RawEdge {
            name: name.to_string(),
            parent: parent.map(|p| p.to_string()),
            calls: *calls,
            total_s: *ns as f64 / 1e9,
        })
        .collect()
}

/// RAII timing guard returned by [`span`] / [`span_labeled`].
#[must_use]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    name: &'static str,
    label: Option<String>,
    id: u64,
    parent: Option<u64>,
    parent_name: Option<&'static str>,
    start: u128,
    begin: Instant,
}

impl Span {
    /// The span's globally unique id (0 when collection is off).
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else { return };
        let dur = inner.begin.elapsed();
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last().map(|&(id, _)| id) == Some(inner.id) {
                stack.pop();
            }
        });
        {
            let mut totals = SPAN_TOTALS.lock().expect("obs spans poisoned");
            let entry = totals.entry(inner.name).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += dur.as_nanos();
        }
        {
            let mut edges = SPAN_EDGES.lock().expect("obs span edges poisoned");
            let entry = edges.entry((inner.name, inner.parent_name)).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += dur.as_nanos();
        }
        hist_of(&SPAN_HISTS, inner.name, "us").record(dur.as_micros() as u64);
        let label = inner
            .label
            .as_deref()
            .map(|l| format!(",\"label\":\"{}\"", json::escape(l)))
            .unwrap_or_default();
        let parent = inner.parent.map(|p| p.to_string()).unwrap_or_else(|| "null".into());
        emit(&format!(
            "{{\"ev\":\"span\",\"name\":\"{}\",\"id\":{},\"parent\":{},\"tid\":{},\
             \"t_us\":{},\"dur_us\":{}{}}}",
            json::escape(inner.name),
            inner.id,
            parent,
            tid(),
            inner.start,
            dur.as_micros(),
            label,
        ));
    }
}

fn open_span(name: &'static str, label: Option<String>) -> Span {
    if !is_enabled() {
        return Span { inner: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed) + 1;
    let (parent, parent_name) = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().map(|&(id, _)| id);
        let parent_name = stack.last().map(|&(_, name)| name);
        stack.push((id, name));
        (parent, parent_name)
    });
    Span {
        inner: Some(SpanInner {
            name,
            label,
            id,
            parent,
            parent_name,
            start: t_us(),
            begin: Instant::now(),
        }),
    }
}

/// Open a named timing span; closes (and records) on drop.
pub fn span(name: &'static str) -> Span {
    open_span(name, None)
}

/// Open a span with a dynamic label (e.g. a benchmark name); totals
/// aggregate under the static `name`, the label goes to the sink.
pub fn span_labeled(name: &'static str, label: &str) -> Span {
    if !is_enabled() {
        return Span { inner: None };
    }
    open_span(name, Some(label.to_string()))
}

/// The calling thread's innermost open span, for a helper thread to
/// adopt as the parent of the spans it opens.
#[derive(Clone, Copy)]
pub(crate) struct SpanParent(Option<(u64, &'static str)>);

pub(crate) fn current_span() -> SpanParent {
    SpanParent(SPAN_STACK.with(|s| s.borrow().last().copied()))
}

/// Guard returned by [`adopt_span`]: the adopted parent stays at the
/// bottom of this thread's span stack until it drops.
pub(crate) struct Adopted(Option<u64>);

/// Make `parent` the parent of the spans this thread opens next, as
/// if they had been opened on the thread that owns it.
pub(crate) fn adopt_span(parent: SpanParent) -> Adopted {
    if let Some(top) = parent.0 {
        SPAN_STACK.with(|s| s.borrow_mut().push(top));
    }
    Adopted(parent.0.map(|(id, _)| id))
}

impl Drop for Adopted {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                if stack.last().map(|&(top, _)| top) == Some(id) {
                    stack.pop();
                }
            });
        }
    }
}

/// Per-worker utilization guard returned by [`worker`].
#[must_use]
pub struct Worker {
    inner: Option<WorkerInner>,
}

struct WorkerInner {
    pool: &'static str,
    index: usize,
    created: Instant,
    busy_ns: u128,
    jobs: u64,
    live: &'static PoolLive,
}

impl Worker {
    /// Run one job under this worker, timing it as busy work.
    pub fn busy<R>(&mut self, f: impl FnOnce() -> R) -> R {
        match &mut self.inner {
            None => f(),
            Some(w) => {
                let begin = Instant::now();
                let r = f();
                let ns = begin.elapsed().as_nanos();
                w.busy_ns += ns;
                w.jobs += 1;
                w.live.busy_ns.fetch_add(ns as u64, Ordering::Relaxed);
                w.live.jobs.fetch_add(1, Ordering::Relaxed);
                r
            }
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let Some(w) = self.inner.take() else { return };
        w.live.live.fetch_sub(1, Ordering::Relaxed);
        let wall = w.created.elapsed();
        emit(&format!(
            "{{\"ev\":\"worker\",\"pool\":\"{}\",\"index\":{},\"tid\":{},\"busy_us\":{},\
             \"wall_us\":{},\"jobs\":{}}}",
            json::escape(w.pool),
            w.index,
            tid(),
            w.busy_ns / 1_000,
            wall.as_micros(),
            w.jobs,
        ));
        let mut rows = WORKERS.lock().expect("obs workers poisoned");
        let i =
            rows.iter().position(|r| r.pool == w.pool && r.index == w.index).unwrap_or_else(|| {
                rows.push(WorkerStat {
                    pool: w.pool.to_string(),
                    index: w.index,
                    busy_s: 0.0,
                    wall_s: 0.0,
                    jobs: 0,
                    busy_fraction: 0.0,
                });
                rows.len() - 1
            });
        let row = &mut rows[i];
        row.busy_s += w.busy_ns as f64 / 1e9;
        row.wall_s += wall.as_secs_f64();
        row.jobs += w.jobs;
        row.busy_fraction = if row.wall_s > 0.0 { row.busy_s / row.wall_s } else { 0.0 };
    }
}

/// Open a utilization guard for worker `index` of `pool`; on drop it
/// emits a `worker` event and adds its busy/wall time and job count to
/// the slot's [`WorkerStat`] row.
pub fn worker(pool: &'static str, index: usize) -> Worker {
    if !is_enabled() {
        return Worker { inner: None };
    }
    let live = pool_live_of(pool);
    live.live.fetch_add(1, Ordering::Relaxed);
    Worker {
        inner: Some(WorkerInner {
            pool,
            index,
            created: Instant::now(),
            busy_ns: 0,
            jobs: 0,
            live,
        }),
    }
}

/// Mirror a log line into the JSONL sink.
fn sink_log(level: Verbosity, target: &str, args: fmt::Arguments<'_>) {
    if !is_enabled() {
        return;
    }
    // Cheap pre-check: skip formatting entirely when no sink is open.
    if SINK.lock().expect("obs sink poisoned").is_none() {
        return;
    }
    let level = match level {
        Verbosity::Quiet => "error",
        Verbosity::Normal => "info",
        Verbosity::Verbose => "debug",
    };
    emit(&format!(
        "{{\"ev\":\"log\",\"t_us\":{},\"tid\":{},\"level\":\"{level}\",\"target\":\"{}\",\
         \"msg\":\"{}\"}}",
        t_us(),
        tid(),
        json::escape(target),
        json::escape(&args.to_string()),
    ));
}

/// Emit a `counters` snapshot event (all counter totals at this
/// instant) to the sink. The trace exporter derives counter-series
/// tracks (e.g. cache hit rates) from successive snapshots.
pub fn emit_counters_snapshot() {
    if !is_enabled() {
        return;
    }
    if SINK.lock().expect("obs sink poisoned").is_none() {
        return;
    }
    let body = counters_snapshot()
        .iter()
        .map(|(name, value)| format!("\"{}\":{value}", json::escape(name)))
        .collect::<Vec<_>>()
        .join(",");
    emit(&format!("{{\"ev\":\"counters\",\"t_us\":{},\"counters\":{{{body}}}}}", t_us()));
}

/// Aggregate everything collected so far into a [`Report`].
pub fn report() -> Report {
    let phases: Vec<PhaseStat> = SPAN_TOTALS
        .lock()
        .expect("obs spans poisoned")
        .iter()
        .map(|(name, (count, ns))| PhaseStat {
            name: name.to_string(),
            count: *count,
            total_s: *ns as f64 / 1e9,
        })
        .collect();
    let workers = WORKERS.lock().expect("obs workers poisoned").clone();
    let histograms = histograms_snapshot();
    let edges = span_edges_snapshot();
    let self_profile = if phases.is_empty() {
        None
    } else {
        Some(crate::selfprofile::build(&phases, &histograms, &workers, &edges))
    };
    Report {
        wall_s: epoch().elapsed().as_secs_f64(),
        phases,
        workers,
        counters: counters_snapshot(),
        gauges: gauges_snapshot(),
        histograms,
        self_profile,
    }
}

/// Stop the telemetry sampler (which emits one final `sample`
/// event), then emit one `hist` summary event per non-empty
/// histogram, the final `run_end` event, and flush the sink.
pub fn finish() {
    crate::telemetry::stop_sampler();
    for h in histograms_snapshot() {
        emit(&format!(
            "{{\"ev\":\"hist\",\"t_us\":{},\"name\":\"{}\",\"unit\":\"{}\",\"count\":{},\
             \"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            t_us(),
            json::escape(&h.name),
            json::escape(&h.unit),
            h.count,
            h.sum,
            h.min,
            h.max,
            h.p50,
            h.p90,
            h.p99,
        ));
    }
    emit(&format!("{{\"ev\":\"run_end\",\"t_us\":{}}}", t_us()));
    let mut sink = SINK.lock().expect("obs sink poisoned");
    if let Some(w) = sink.as_mut() {
        let _ = w.flush();
    }
}

/// Reset all global state. Test-only: not part of the public
/// contract, and racy against concurrent instrumented threads.
#[doc(hidden)]
pub fn reset_for_tests() {
    crate::telemetry::reset_for_tests();
    ENABLED.store(false, Ordering::Release);
    SPAN_TOTALS.lock().expect("obs spans poisoned").clear();
    SPAN_EDGES.lock().expect("obs span edges poisoned").clear();
    for (_, c) in COUNTERS.read().expect("obs counters poisoned").iter() {
        c.store(0, Ordering::Relaxed);
    }
    for (_, g) in GAUGES.read().expect("obs gauges poisoned").iter() {
        g.store(0, Ordering::Relaxed);
    }
    for (_, p) in POOLS.read().expect("obs pools poisoned").iter() {
        p.live.store(0, Ordering::Relaxed);
        p.busy_ns.store(0, Ordering::Relaxed);
        p.jobs.store(0, Ordering::Relaxed);
    }
    WORKERS.lock().expect("obs workers poisoned").clear();
    for registry in [&HISTS, &SPAN_HISTS] {
        for (_, h) in registry.read().expect("obs hists poisoned").iter() {
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
            h.count.store(0, Ordering::Relaxed);
            h.sum.store(0, Ordering::Relaxed);
            h.min.store(u64::MAX, Ordering::Relaxed);
            h.max.store(0, Ordering::Relaxed);
        }
    }
    *SINK.lock().expect("obs sink poisoned") = None;
}

#[cfg(test)]
mod quantile_tests {
    use super::{hist_bucket, hist_quantile, HIST_BUCKETS};

    fn tally(values: &[u64]) -> ([u64; HIST_BUCKETS], u64, u64, u64) {
        let mut buckets = [0u64; HIST_BUCKETS];
        let (mut min, mut max) = (u64::MAX, 0u64);
        for &v in values {
            buckets[hist_bucket(v)] += 1;
            min = min.min(v);
            max = max.max(v);
        }
        (buckets, values.len() as u64, min, max)
    }

    #[test]
    fn empty_histogram_yields_zero_for_every_q() {
        let buckets = [0u64; HIST_BUCKETS];
        // An untouched tally carries the min=MAX/max=0 sentinels; the
        // quantile must not leak them.
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0, f64::NAN] {
            assert_eq!(hist_quantile(&buckets, 0, q, u64::MAX, 0), 0);
        }
    }

    #[test]
    fn q_is_clamped_into_unit_interval() {
        let (buckets, count, min, max) = tally(&[3, 100, 9000]);
        let lo = hist_quantile(&buckets, count, 0.0, min, max);
        let hi = hist_quantile(&buckets, count, 1.0, min, max);
        assert_eq!(hist_quantile(&buckets, count, -3.5, min, max), lo);
        assert_eq!(hist_quantile(&buckets, count, 7.0, min, max), hi);
        assert_eq!(hist_quantile(&buckets, count, f64::NAN, min, max), lo);
    }

    #[test]
    fn q0_and_q1_hit_the_observed_extremes() {
        let (buckets, count, min, max) = tally(&[5, 6, 7, 1000]);
        // q=0 resolves to the first non-empty bucket, clamped to min.
        assert_eq!(hist_quantile(&buckets, count, 0.0, min, max), 7);
        // q=1 resolves to the last non-empty bucket, clamped to max.
        assert_eq!(hist_quantile(&buckets, count, 1.0, min, max), 1000);
    }

    #[test]
    fn single_bucket_tally_is_exact() {
        // All values share one bucket, so every quantile clamps to the
        // observed [min, max] and is exact at the extremes.
        let (buckets, count, min, max) = tally(&[40, 40, 40]);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(hist_quantile(&buckets, count, q, min, max), 40);
        }
        let (buckets, count, min, max) = tally(&[33]);
        assert_eq!(hist_quantile(&buckets, count, 0.5, min, max), 33);
    }
}
