//! Machine calibration and normalized perf gating.
//!
//! Raw bench nanoseconds do not transfer across machines — and barely
//! transfer across runs on the *same* machine when the host is shared.
//! The perf trajectory in `BENCH.json` showed exactly that failure
//! mode: the `detailed_sim` within-run speedup drifted 2.17× → 1.78×
//! between snapshots of identical code, purely from host noise, and
//! nothing failed CI when a hot path genuinely regressed.
//!
//! This module makes perf claims machine-independent and enforceable:
//!
//! * [`calibrate`] runs a small fixed CPU+memory **probe kernel** in
//!   the current process, exponentially scaling the unit count until a
//!   single timed repeat exceeds a minimum duration (no hard-coded
//!   iteration counts that overshoot on slow hosts), then reduces
//!   repeated runs with trimmed-mean/min/dispersion statistics into a
//!   [`MachineCalibration`]. The result has a deterministic schema and
//!   a timestamp-free fingerprint, so it can be committed in baselines.
//! * Every bench snapshot carries the calibration block of the run
//!   that recorded it, so `normalized = mean_ns / probe_ns` per bench —
//!   a dimensionless "probe units per iteration" figure — is comparable
//!   across hosts.
//! * [`gate`] compares a candidate [`Snapshot`] against a baseline on
//!   those normalized ratios, with **adaptive thresholds** widened by
//!   the measured dispersion of both calibrations (and by each bench's
//!   own min/max spread): one dispersion band warns, two fail. The
//!   `bench-gate` binary wraps this as the CI `perf-gate` job.
//!
//! The probe timer is a trait ([`ProbeTimer`]) so the scale-up and the
//! statistics are testable against an injected fake timer with no real
//! clock involved.

use crate::json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Probe kernel and timer
// ---------------------------------------------------------------------------

/// Words in the probe's pointer-chase table: 32 Ki × 8 B = 256 KiB,
/// deliberately larger than a typical L1D and a slice of L2, so the
/// probe prices both ALU throughput and cache/memory latency — the two
/// resources the simulator kernels spend.
const PROBE_TABLE_WORDS: usize = 1 << 15;

/// Dependent mix+load steps per probe unit. The chain is serial
/// (each load address depends on the previous load's value), so the
/// probe measures latency the way the simulator's hot loops feel it,
/// not peak superscalar throughput.
const STEPS_PER_UNIT: usize = 16;

/// SplitMix64 finalizer: the probe's ALU work and its address stream.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Times the probe workload. The production implementation
/// ([`RealProbe`]) runs the fixed kernel under `Instant`; tests inject
/// deterministic fakes so the scale-up loop and the statistics are
/// pinned without touching a clock.
pub trait ProbeTimer {
    /// Run the probe workload for `units` units and return the elapsed
    /// wall-clock nanoseconds.
    fn time_units(&mut self, units: u64) -> u64;
}

/// The real probe: a pre-built pointer-chase table (built once, outside
/// every timed region) plus the fixed CPU+memory kernel.
pub struct RealProbe {
    table: Vec<u64>,
}

impl RealProbe {
    /// Build the probe table (deterministic contents).
    pub fn new() -> RealProbe {
        RealProbe { table: (0..PROBE_TABLE_WORDS as u64).map(mix).collect() }
    }

    /// One untimed pass of `units` probe units; returns a checksum so
    /// the work cannot be optimized away.
    fn run(&self, units: u64) -> u64 {
        let mask = (self.table.len() - 1) as u64;
        let mut acc = 0x0b5e_c0de_0b5e_c0deu64;
        for _ in 0..units {
            for _ in 0..STEPS_PER_UNIT {
                acc = mix(acc);
                acc ^= self.table[(acc & mask) as usize];
            }
        }
        acc
    }
}

impl Default for RealProbe {
    fn default() -> RealProbe {
        RealProbe::new()
    }
}

impl ProbeTimer for RealProbe {
    fn time_units(&mut self, units: u64) -> u64 {
        let t0 = std::time::Instant::now();
        std::hint::black_box(self.run(units));
        t0.elapsed().as_nanos() as u64
    }
}

// ---------------------------------------------------------------------------
// Calibration configuration and statistics
// ---------------------------------------------------------------------------

/// Knobs for [`calibrate_with`]. The defaults aim for ≈0.4 s of total
/// probing — cheap enough to run inside every bench invocation, long
/// enough per repeat (20 ms) that scheduler jitter averages out, and
/// trimmed hard (keep the middle 5 of 15 repeats) because shared hosts
/// show intermittent load episodes that a light trim lets through: at
/// 9 repeats/trim 2 the measured dispersion on a busy 1-cpu container
/// swung 0.8%–18% between runs; at 15/5 it stays under ~3%.
#[derive(Debug, Clone)]
pub struct CalibrationConfig {
    /// A timed repeat must last at least this long (ns) before the
    /// scale-up stops.
    pub min_probe_ns: u64,
    /// Unit count of the first scale-up attempt.
    pub start_units: u64,
    /// Hard cap on the unit count (terminates the scale-up even if the
    /// timer never reports the minimum duration).
    pub max_units: u64,
    /// Hard cap on scale-up steps (belt to `max_units`' braces).
    pub max_scale_steps: usize,
    /// Timed repeats at the final unit count.
    pub repeats: usize,
    /// Samples trimmed from *each* end before the mean (clamped so at
    /// least one sample is kept).
    pub trim: usize,
}

impl Default for CalibrationConfig {
    fn default() -> CalibrationConfig {
        CalibrationConfig {
            min_probe_ns: 20_000_000,
            start_units: 1 << 10,
            max_units: 1 << 32,
            max_scale_steps: 32,
            repeats: 15,
            trim: 5,
        }
    }
}

/// Reduction of repeated probe samples (ns per unit).
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeStats {
    /// Mean of the samples that survive trimming.
    pub trimmed_mean: f64,
    /// Fastest sample overall (untrimmed).
    pub min: f64,
    /// Slowest sample overall (untrimmed).
    pub max: f64,
    /// Relative spread of the kept samples:
    /// `(kept_max - kept_min) / trimmed_mean` (0 for a zero mean).
    pub dispersion: f64,
}

/// Trimmed-mean reduction: sort, drop `trim` samples from each end
/// (clamped so at least one survives), mean the rest, and report the
/// kept spread relative to that mean. Deterministic for deterministic
/// inputs — no randomness, no incremental-float order dependence.
pub fn reduce(samples: &[f64], trim: usize) -> ProbeStats {
    assert!(!samples.is_empty(), "cannot reduce zero probe samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("probe samples are finite"));
    let trim = trim.min((sorted.len() - 1) / 2);
    let kept = &sorted[trim..sorted.len() - trim];
    let trimmed_mean = kept.iter().sum::<f64>() / kept.len() as f64;
    let spread = kept[kept.len() - 1] - kept[0];
    ProbeStats {
        trimmed_mean,
        min: sorted[0],
        max: sorted[sorted.len() - 1],
        dispersion: if trimmed_mean > 0.0 { spread / trimmed_mean } else { 0.0 },
    }
}

// ---------------------------------------------------------------------------
// MachineCalibration
// ---------------------------------------------------------------------------

/// The calibrated speed of this machine, as stamped into bench
/// snapshots. Every field is a pure function of the probe run and the
/// host — **no timestamps**, so re-running on an identical machine
/// state produces a comparable (not byte-identical — timing is timing)
/// block, and nothing in it churns version control diffs.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineCalibration {
    /// Trimmed-mean nanoseconds per probe unit — the machine's "price"
    /// for one unit of mixed CPU+memory work. Bench normalization
    /// divides by this.
    pub probe_ns: f64,
    /// Fastest repeat (ns per unit); the floor the machine can hit.
    pub min_ns: f64,
    /// Relative spread of the kept repeats — the measured noisiness of
    /// this host *right now*. Gate thresholds widen with it.
    pub dispersion: f64,
    /// Timed repeats behind the statistics.
    pub repeats: usize,
    /// Probe units per timed repeat after scale-up.
    pub units: u64,
    /// Logical CPUs on the host.
    pub cpus: usize,
    /// Timestamp-free host fingerprint (`arch-os-cN`).
    pub fingerprint: String,
}

impl MachineCalibration {
    /// Serialize to a stable-key-order JSON object.
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }

    /// The calibration as a [`Value`] (keys sorted by the object map).
    pub fn to_value(&self) -> Value {
        Value::Obj(BTreeMap::from([
            ("probe_ns".to_string(), Value::Num(self.probe_ns)),
            ("min_ns".to_string(), Value::Num(self.min_ns)),
            ("dispersion".to_string(), Value::Num(self.dispersion)),
            ("repeats".to_string(), Value::Num(self.repeats as f64)),
            ("units".to_string(), Value::Num(self.units as f64)),
            ("cpus".to_string(), Value::Num(self.cpus as f64)),
            ("fingerprint".to_string(), Value::Str(self.fingerprint.clone())),
        ]))
    }

    /// Parse a calibration block out of a snapshot.
    pub fn from_value(v: &Value) -> Result<MachineCalibration, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("calibration: missing numeric field `{key}`"))
        };
        Ok(MachineCalibration {
            probe_ns: num("probe_ns")?,
            min_ns: num("min_ns")?,
            dispersion: num("dispersion")?,
            repeats: num("repeats")? as usize,
            units: num("units")? as u64,
            cpus: num("cpus")? as usize,
            fingerprint: v
                .get("fingerprint")
                .and_then(Value::as_str)
                .ok_or("calibration: missing string field `fingerprint`")?
                .to_string(),
        })
    }
}

/// Calibrate with an injected timer and explicit configuration: the
/// exponential scale-up followed by the trimmed-mean reduction. Pure
/// with respect to the timer — tests drive it with scripted fakes.
pub fn calibrate_with<T: ProbeTimer>(timer: &mut T, cfg: &CalibrationConfig) -> MachineCalibration {
    // Exponential scale-up: grow the unit count until one repeat lasts
    // at least `min_probe_ns`. The growth factor aims 1.5× past the
    // target (the poc-selector idiom) but is clamped to [2, 8] so a
    // lying timer can neither stall the loop nor overshoot to absurd
    // unit counts in one hop; `max_units`/`max_scale_steps` bound
    // termination unconditionally.
    let mut units = cfg.start_units.max(1);
    for _ in 0..cfg.max_scale_steps {
        let elapsed = timer.time_units(units);
        if elapsed >= cfg.min_probe_ns || units >= cfg.max_units {
            break;
        }
        let factor = if elapsed == 0 {
            8.0
        } else {
            (cfg.min_probe_ns as f64 / elapsed as f64 * 1.5).clamp(2.0, 8.0)
        };
        units = (((units as f64) * factor) as u64).clamp(units + 1, cfg.max_units);
    }

    // Timed repeats at the final unit count, reduced to ns-per-unit.
    let repeats = cfg.repeats.max(1);
    let samples: Vec<f64> =
        (0..repeats).map(|_| timer.time_units(units) as f64 / units as f64).collect();
    let stats = reduce(&samples, cfg.trim);

    let host = crate::host_meta();
    MachineCalibration {
        probe_ns: stats.trimmed_mean,
        min_ns: stats.min,
        dispersion: stats.dispersion,
        repeats,
        units,
        cpus: host.cpus,
        fingerprint: host.fingerprint(),
    }
}

/// Calibrate this machine with the real probe kernel and default
/// configuration (≈0.4 s). Run it in the same process as the benches it
/// normalizes, so probe and benches see the same load.
pub fn calibrate() -> MachineCalibration {
    calibrate_with(&mut RealProbe::new(), &CalibrationConfig::default())
}

// ---------------------------------------------------------------------------
// Snapshots (the BENCH.json bench-suite schema)
// ---------------------------------------------------------------------------

/// Schema of the `BENCH.json` perf trajectory: every snapshot carries
/// a `calibration` block and per-bench `min_ns`/`max_ns`.
pub const BENCH_SUITE_SCHEMA: &str = "mlpa-bench-suite-v2";

/// One bench's measurements inside a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPoint {
    /// Benchmark group (e.g. `substrate`).
    pub group: String,
    /// Benchmark id within the group (e.g. `detailed_sim`).
    pub id: String,
    /// Mean wall-clock per iteration, ns.
    pub mean_ns: f64,
    /// Fastest sample, ns.
    pub min_ns: f64,
    /// Slowest sample, ns.
    pub max_ns: f64,
    /// Timed samples behind the mean.
    pub samples: u64,
}

impl BenchPoint {
    /// `group/id`, the key benches match on across snapshots.
    pub fn key(&self) -> String {
        format!("{}/{}", self.group, self.id)
    }

    /// Relative min–max spread of this bench's own samples (0 for a
    /// single sample).
    pub fn spread(&self) -> f64 {
        if self.samples > 1 && self.mean_ns > 0.0 {
            (self.max_ns - self.min_ns) / self.mean_ns
        } else {
            0.0
        }
    }
}

/// One snapshot of the perf trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Snapshot label (e.g. `pr8-calibrated`).
    pub label: String,
    /// Per-bench measurements.
    pub benches: Vec<BenchPoint>,
    /// Within-snapshot derived speedups (`naive / current` mean
    /// ratios; never computed across snapshots).
    pub speedups: BTreeMap<String, f64>,
    /// The machine calibration stamped on this snapshot.
    pub calibration: MachineCalibration,
}

impl Snapshot {
    /// Machine-normalized cost of a bench: `mean_ns / probe_ns`.
    pub fn normalized(&self, b: &BenchPoint) -> f64 {
        b.mean_ns / self.calibration.probe_ns.max(f64::MIN_POSITIVE)
    }
}

/// Parse one snapshot object.
pub fn parse_snapshot(v: &Value) -> Result<Snapshot, String> {
    let label = v.get("label").and_then(Value::as_str).unwrap_or("(unlabeled)").to_string();
    let arr = v
        .get("benches")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("snapshot `{label}`: missing `benches` array"))?;
    let mut benches = Vec::with_capacity(arr.len());
    for b in arr {
        let num = |key: &str| {
            b.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("snapshot `{label}`: bench missing numeric `{key}`"))
        };
        let s = |key: &str| {
            b.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("snapshot `{label}`: bench missing string `{key}`"))
        };
        benches.push(BenchPoint {
            group: s("group")?,
            id: s("id")?,
            mean_ns: num("mean_ns")?,
            min_ns: num("min_ns")?,
            max_ns: num("max_ns")?,
            samples: num("samples")? as u64,
        });
    }
    let mut speedups = BTreeMap::new();
    if let Some(obj) = v.get("speedups").and_then(Value::as_obj) {
        for (name, val) in obj {
            if let Some(x) = val.as_f64() {
                speedups.insert(name.clone(), x);
            }
        }
    }
    let calibration = v
        .get("calibration")
        .ok_or_else(|| "missing `calibration` block".to_string())
        .and_then(MachineCalibration::from_value)
        .map_err(|e| format!("snapshot `{label}`: {e}"))?;
    Ok(Snapshot { label, benches, speedups, calibration })
}

/// Parse a whole trajectory document (`BENCH.json`).
pub fn parse_trajectory(v: &Value) -> Result<Vec<Snapshot>, String> {
    match v.get("schema").and_then(Value::as_str) {
        Some(BENCH_SUITE_SCHEMA) => {}
        Some(other) => return Err(format!("unsupported trajectory schema `{other}`")),
        None => return Err("missing `schema` field".into()),
    }
    let arr = v.get("snapshots").and_then(Value::as_arr).ok_or("missing `snapshots` array")?;
    arr.iter().map(parse_snapshot).collect()
}

// ---------------------------------------------------------------------------
// The gate
// ---------------------------------------------------------------------------

/// Gate thresholds. The *band* for a bench is
/// `min_band + base.dispersion + cand.dispersion + base_spread +
/// cand_spread` — adaptive: noisier calibrations and noisier benches
/// widen it. A normalized ratio more than `warn_bands` bands above 1
/// warns; more than `fail_bands` bands fails. With the defaults
/// (`min_band` 0.1, warn at 1 band, fail at 2) a planted 1.5× slowdown
/// fails on any host whose calibration dispersion is under ~7% a side,
/// while same-host noise stays inside the first band.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Noise floor added to every band: even a perfectly quiet probe
    /// cannot shrink the tolerance below this (single-sample smoke
    /// benches carry noise the probe never sees).
    pub min_band: f64,
    /// Bands above 1.0 where WARN begins.
    pub warn_bands: f64,
    /// Bands above 1.0 where FAIL begins (the CI hard gate).
    pub fail_bands: f64,
    /// Benches whose *baseline* mean is below this many raw nanoseconds
    /// are noted but never gated: sub-100µs single-sample timings are
    /// dominated by clock granularity and scheduler jitter, and no band
    /// arithmetic makes them honest.
    pub min_gate_ns: f64,
}

impl Default for GateConfig {
    fn default() -> GateConfig {
        GateConfig { min_band: 0.1, warn_bands: 1.0, fail_bands: 2.0, min_gate_ns: 100_000.0 }
    }
}

/// Per-metric gate outcome, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Within one band of baseline.
    Ok,
    /// Slower than one band, within two: reported, does not fail.
    Warn,
    /// Slower than two bands (or the metric vanished): fails the gate.
    Fail,
}

impl Verdict {
    /// Fixed-width display tag.
    pub fn tag(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Warn => "WARN",
            Verdict::Fail => "FAIL",
        }
    }
}

/// One gated metric.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// Metric name (`group/id` for benches, `speedup:<name>` for
    /// derived speedups).
    pub name: String,
    /// Baseline normalized value (or speedup).
    pub base: f64,
    /// Candidate normalized value (or speedup).
    pub cand: f64,
    /// Regression ratio (>1 = candidate worse).
    pub ratio: f64,
    /// The adaptive band this metric was judged against.
    pub band: f64,
    /// The outcome.
    pub verdict: Verdict,
}

/// The result of gating one candidate snapshot against one baseline.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Per-metric outcomes, in baseline order (benches, then speedups).
    pub rows: Vec<GateRow>,
    /// Informational notes (new benches, skipped metrics).
    pub notes: Vec<String>,
}

impl GateReport {
    /// The most severe verdict across all rows (Ok when empty).
    pub fn worst(&self) -> Verdict {
        self.rows.iter().map(|r| r.verdict).max().unwrap_or(Verdict::Ok)
    }

    /// Render the per-metric table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<40} {:>12} {:>12} {:>7} {:>7}  verdict",
            "metric", "base(norm)", "cand(norm)", "ratio", "band"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<40} {:>12.3} {:>12.3} {:>7.3} {:>7.3}  {}",
                r.name,
                r.base,
                r.cand,
                r.ratio,
                r.band,
                r.verdict.tag()
            );
        }
        out
    }
}

/// Gate `cand` against `base` on machine-normalized ratios, each side
/// divided by its own calibration probe.
pub fn gate(base: &Snapshot, cand: &Snapshot, cfg: &GateConfig) -> GateReport {
    let cal_band = cfg.min_band + base.calibration.dispersion + cand.calibration.dispersion;

    let mut report = GateReport::default();
    let cand_by_key: BTreeMap<String, &BenchPoint> =
        cand.benches.iter().map(|b| (b.key(), b)).collect();

    for b in &base.benches {
        let key = b.key();
        let base_norm = base.normalized(b);
        if b.mean_ns < cfg.min_gate_ns {
            report.notes.push(format!(
                "bench `{key}` is below the {:.0}µs gate floor (mean {:.0} ns): not gated",
                cfg.min_gate_ns / 1e3,
                b.mean_ns
            ));
            continue;
        }
        match cand_by_key.get(&key) {
            None => {
                // A bench that vanished is lost coverage, not noise.
                report.rows.push(GateRow {
                    name: key,
                    base: base_norm,
                    cand: f64::NAN,
                    ratio: f64::INFINITY,
                    band: cal_band,
                    verdict: Verdict::Fail,
                });
            }
            Some(c) => {
                let cand_norm = cand.normalized(c);
                let band = cal_band + b.spread() + c.spread();
                let ratio = cand_norm / base_norm.max(f64::MIN_POSITIVE);
                report.rows.push(GateRow {
                    name: key,
                    base: base_norm,
                    cand: cand_norm,
                    ratio,
                    band,
                    verdict: verdict_for(ratio, band, cfg),
                });
            }
        }
    }
    let base_keys: std::collections::BTreeSet<String> =
        base.benches.iter().map(|b| b.key()).collect();
    for c in &cand.benches {
        if !base_keys.contains(&c.key()) {
            report.notes.push(format!("bench `{}` is new in the candidate", c.key()));
        }
    }

    // Within-snapshot derived speedups: already host-independent (both
    // sides of the ratio ran in the same process), so they gate with
    // the calibration band alone. Regression direction is downward.
    for (name, &base_speedup) in &base.speedups {
        match cand.speedups.get(name) {
            None => report.notes.push(format!(
                "speedup `{name}` is absent from the candidate (bench pair not run)"
            )),
            Some(&cand_speedup) => {
                let ratio = base_speedup / cand_speedup.max(f64::MIN_POSITIVE);
                report.rows.push(GateRow {
                    name: format!("speedup:{name}"),
                    base: base_speedup,
                    cand: cand_speedup,
                    ratio,
                    band: cal_band,
                    verdict: verdict_for(ratio, cal_band, cfg),
                });
            }
        }
    }
    report
}

fn verdict_for(ratio: f64, band: f64, cfg: &GateConfig) -> Verdict {
    if ratio > 1.0 + cfg.fail_bands * band {
        Verdict::Fail
    } else if ratio > 1.0 + cfg.warn_bands * band {
        Verdict::Warn
    } else {
        Verdict::Ok
    }
}

// ---------------------------------------------------------------------------
// Trajectory table
// ---------------------------------------------------------------------------

/// Render the per-group trajectory across snapshots: one row per bench
/// group, one column per snapshot, each cell the geometric mean of the
/// group's normalized bench costs (`-` when the snapshot timed no bench
/// of the group). Geometric mean, because normalized costs are ratios.
pub fn trajectory_table(snapshots: &[Snapshot]) -> String {
    let mut groups: Vec<String> = Vec::new();
    for s in snapshots {
        for b in &s.benches {
            if !groups.contains(&b.group) {
                groups.push(b.group.clone());
            }
        }
    }
    let mut out = String::new();
    let _ = write!(out, "{:<16}", "group");
    for s in snapshots {
        let _ = write!(out, " {:>20}", s.label);
    }
    out.push('\n');
    for g in &groups {
        let _ = write!(out, "{g:<16}");
        for s in snapshots {
            let norms: Vec<f64> = s
                .benches
                .iter()
                .filter(|b| &b.group == g)
                .map(|b| s.normalized(b))
                .filter(|&n| n > 0.0)
                .collect();
            if norms.is_empty() {
                let _ = write!(out, " {:>20}", "-");
            } else {
                let geo = (norms.iter().map(|n| n.ln()).sum::<f64>() / norms.len() as f64).exp();
                let _ = write!(out, " {geo:>20.3}");
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// A scripted fake timer: a fixed ns-per-unit rate, plus an
    /// optional queue of per-repeat rate overrides consumed after the
    /// scale-up converges.
    struct FakeTimer {
        ns_per_unit: f64,
        scripted: Vec<f64>,
        calls: usize,
        min_probe_ns: u64,
        converged: bool,
    }

    impl FakeTimer {
        fn constant(ns_per_unit: f64) -> FakeTimer {
            FakeTimer {
                ns_per_unit,
                scripted: Vec::new(),
                calls: 0,
                min_probe_ns: 0,
                converged: false,
            }
        }
    }

    impl ProbeTimer for FakeTimer {
        fn time_units(&mut self, units: u64) -> u64 {
            self.calls += 1;
            // Scripted rates kick in during the repeat phase: the first
            // call satisfying the minimum probe duration is still the
            // scale-up's convergence probe, every later one a repeat.
            let satisfies = self.ns_per_unit * units as f64 >= self.min_probe_ns as f64;
            let rate = if satisfies && self.converged && !self.scripted.is_empty() {
                self.scripted.remove(0)
            } else {
                self.converged |= satisfies;
                self.ns_per_unit
            };
            (rate * units as f64) as u64
        }
    }

    #[test]
    fn reduce_is_pinned() {
        // 9 samples, trim 2: keep [3, 4, 5, 6, 7] -> mean 5, spread 4.
        let samples = [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 6.0, 8.0, 4.0];
        let s = reduce(&samples, 2);
        assert_eq!(s.trimmed_mean, 5.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.dispersion, 4.0 / 5.0);
    }

    #[test]
    fn reduce_clamps_overlarge_trim() {
        // trim 5 of 3 samples would keep nothing; the clamp keeps the
        // median.
        let s = reduce(&[1.0, 10.0, 100.0], 5);
        assert_eq!(s.trimmed_mean, 10.0);
        assert_eq!(s.dispersion, 0.0);
    }

    #[test]
    fn reduce_zero_mean_has_zero_dispersion() {
        let s = reduce(&[0.0, 0.0, 0.0], 0);
        assert_eq!(s.trimmed_mean, 0.0);
        assert_eq!(s.dispersion, 0.0);
    }

    fn test_cfg() -> CalibrationConfig {
        CalibrationConfig {
            min_probe_ns: 1_000_000,
            start_units: 16,
            max_units: 1 << 40,
            max_scale_steps: 32,
            repeats: 9,
            trim: 2,
        }
    }

    #[test]
    fn calibration_is_deterministic_against_a_fake_timer() {
        // 100 ns/unit constant, with scripted repeat rates. The kept
        // middle five of the sorted repeats pin the statistics exactly.
        let cfg = test_cfg();
        let mut t = FakeTimer {
            ns_per_unit: 100.0,
            scripted: vec![104.0, 96.0, 100.0, 130.0, 98.0, 102.0, 70.0, 101.0, 99.0],
            calls: 0,
            min_probe_ns: cfg.min_probe_ns,
            converged: false,
        };
        let cal = calibrate_with(&mut t, &cfg);
        // Sorted: 70 96 98 99 100 101 102 104 130; keep 98..=102.
        assert_eq!(cal.probe_ns, 100.0);
        assert_eq!(cal.min_ns, 70.0);
        assert_eq!(cal.dispersion, 4.0 / 100.0);
        assert_eq!(cal.repeats, 9);
        // Scale-up from 16 units at 100 ns/unit needs >= 10_000 units.
        assert!(cal.units >= 10_000, "units {} below the probe target", cal.units);
        // And a second identical run reproduces it bit-for-bit.
        let mut t2 = FakeTimer {
            ns_per_unit: 100.0,
            scripted: vec![104.0, 96.0, 100.0, 130.0, 98.0, 102.0, 70.0, 101.0, 99.0],
            calls: 0,
            min_probe_ns: cfg.min_probe_ns,
            converged: false,
        };
        assert_eq!(calibrate_with(&mut t2, &cfg), cal);
    }

    #[test]
    fn scale_up_terminates_within_bounds_on_a_constant_timer() {
        let cfg = test_cfg();
        let mut t = FakeTimer::constant(50.0);
        t.min_probe_ns = cfg.min_probe_ns;
        let cal = calibrate_with(&mut t, &cfg);
        // Needs 20_000 units for 1 ms at 50 ns/unit; the 1.5x-target
        // growth may overshoot by at most the 8x clamp.
        assert!(cal.units >= 20_000 && cal.units <= 20_000 * 8, "units {}", cal.units);
        // Scale-up calls + 9 repeats, all bounded.
        assert!(t.calls <= cfg.max_scale_steps + cfg.repeats, "calls {}", t.calls);
    }

    #[test]
    fn scale_up_terminates_even_when_the_timer_reports_zero() {
        // A zero-elapsed timer can never satisfy the minimum duration;
        // the unit cap and step cap still terminate the loop.
        let cfg = CalibrationConfig { max_units: 1 << 20, ..test_cfg() };
        let mut t = FakeTimer::constant(0.0);
        let cal = calibrate_with(&mut t, &cfg);
        assert_eq!(cal.units, 1 << 20);
        assert!(t.calls <= cfg.max_scale_steps + cfg.repeats);
        assert_eq!(cal.probe_ns, 0.0);
    }

    #[test]
    fn scale_up_growth_is_clamped_per_step() {
        // An almost-converged probe must still grow by at least 2x, so
        // a factor fractionally above 1 cannot produce a long crawl.
        let cfg = test_cfg();
        let mut t = FakeTimer::constant(100.0);
        t.min_probe_ns = cfg.min_probe_ns;
        let cal = calibrate_with(&mut t, &cfg);
        // 16 -> >= 10_000 at clamp [2, 8]: between ceil(log8) = 4 and
        // log2 = 10 scale steps, plus the repeats.
        assert!(t.calls - cfg.repeats <= 10, "scale-up took {} steps", t.calls - cfg.repeats);
        assert!(cal.units >= 10_000);
    }

    #[test]
    fn calibration_json_round_trips() {
        let cal = MachineCalibration {
            probe_ns: 83.25,
            min_ns: 80.0,
            dispersion: 0.04,
            repeats: 9,
            units: 262144,
            cpus: 4,
            fingerprint: "x86_64-linux-c4".into(),
        };
        let parsed = MachineCalibration::from_value(&json::parse(&cal.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, cal);
    }

    #[test]
    fn real_probe_produces_a_sane_calibration() {
        // Tiny configuration so the test stays fast even on a loaded
        // host; only sanity bounds are asserted (it is a real clock).
        let cfg = CalibrationConfig {
            min_probe_ns: 200_000,
            start_units: 64,
            repeats: 5,
            trim: 1,
            ..CalibrationConfig::default()
        };
        let cal = calibrate_with(&mut RealProbe::new(), &cfg);
        assert!(cal.probe_ns > 0.0, "probe_ns {}", cal.probe_ns);
        assert!(cal.probe_ns < 1e6, "probe_ns {} absurdly slow", cal.probe_ns);
        assert!(cal.min_ns <= cal.probe_ns);
        assert!(cal.dispersion >= 0.0);
        assert!(cal.cpus >= 1);
        assert!(!cal.fingerprint.is_empty());
    }

    fn snap(label: &str, benches: &[(&str, &str, f64)], dispersion: f64) -> Snapshot {
        let cal = MachineCalibration {
            probe_ns: 100.0,
            min_ns: 95.0,
            dispersion,
            repeats: 9,
            units: 1 << 17,
            cpus: 1,
            fingerprint: "test".into(),
        };
        Snapshot {
            label: label.into(),
            benches: benches
                .iter()
                .map(|(g, i, mean)| BenchPoint {
                    group: g.to_string(),
                    id: i.to_string(),
                    mean_ns: *mean,
                    min_ns: *mean,
                    max_ns: *mean,
                    samples: 10,
                })
                .collect(),
            speedups: BTreeMap::new(),
            calibration: cal,
        }
    }

    #[test]
    fn gate_passes_identical_snapshots_and_fails_missing_benches() {
        let cfg = GateConfig::default();
        let base = snap("base", &[("g", "a", 1e7), ("g", "b", 2e7)], 0.02);
        let report = gate(&base, &base, &cfg);
        assert_eq!(report.worst(), Verdict::Ok);

        let cand = snap("cand", &[("g", "a", 1e7)], 0.02);
        let report = gate(&base, &cand, &cfg);
        assert_eq!(report.worst(), Verdict::Fail);
        assert!(report.rows.iter().any(|r| r.name == "g/b" && r.verdict == Verdict::Fail));
    }

    #[test]
    fn gate_warns_between_one_and_two_bands_and_fails_beyond() {
        // dispersion 0.02 on both sides, min_band 0.1: band = 0.14.
        let cfg = GateConfig { min_band: 0.1, ..GateConfig::default() };
        let base = snap("base", &[("g", "a", 1e7)], 0.02);
        for (factor, expected) in [(1.05, Verdict::Ok), (1.2, Verdict::Warn), (1.30, Verdict::Fail)]
        {
            let cand = snap("cand", &[("g", "a", 1e7 * factor)], 0.02);
            let report = gate(&base, &cand, &cfg);
            assert_eq!(report.worst(), expected, "factor {factor}: {}", report.table());
        }
        // Faster is never a regression (one-sided).
        let cand = snap("cand", &[("g", "a", 1e5)], 0.02);
        assert_eq!(gate(&base, &cand, &cfg).worst(), Verdict::Ok);
    }

    #[test]
    fn gate_skips_benches_below_the_duration_floor() {
        // An 80µs bench 10x slower: clock-granularity territory — the
        // gate must refuse to judge it (note, no row) while still
        // gating the slower sibling in the same snapshot.
        let cfg = GateConfig::default();
        let base = snap("base", &[("g", "tiny", 8e4), ("g", "big", 1e7)], 0.02);
        let cand = snap("cand", &[("g", "tiny", 8e5), ("g", "big", 1e7)], 0.02);
        let report = gate(&base, &cand, &cfg);
        assert_eq!(report.worst(), Verdict::Ok, "{}", report.table());
        assert!(!report.rows.iter().any(|r| r.name == "g/tiny"));
        assert!(report.notes.iter().any(|n| n.contains("g/tiny") && n.contains("floor")));
        assert!(report.rows.iter().any(|r| r.name == "g/big"));
    }

    /// A calibrated snapshot as `BENCH.json` stores it.
    const SNAPSHOT: &str = r#"{"label": "s", "speedups": {"k": 2.0}, "benches": [
          {"group": "g", "id": "a", "mean_ns": 800, "min_ns": 700, "max_ns": 900, "samples": 10}
        ], "calibration": {"probe_ns": 100, "min_ns": 95, "dispersion": 0.02, "repeats": 9,
          "units": 131072, "cpus": 1, "fingerprint": "test"}}"#;

    #[test]
    fn gate_requires_calibration_blocks() {
        let parse = |text: &str| parse_snapshot(&json::parse(text).unwrap());
        let s = parse(SNAPSHOT).unwrap();
        assert_eq!(s.normalized(&s.benches[0]), 8.0);
        assert_eq!(s.benches[0].spread(), 0.25);
        // A snapshot without calibration, or a bench without its sample
        // range, cannot be gated and does not parse.
        let uncalibrated = SNAPSHOT.split(r#", "calibration""#).next().unwrap().to_owned() + "}";
        assert!(parse(&uncalibrated).unwrap_err().contains("calibration"));
        for key in ["min_ns", "max_ns"] {
            let text = SNAPSHOT.replacen(&format!("\"{key}\""), "\"other\"", 1);
            assert!(parse(&text).unwrap_err().contains(key), "{key}");
        }
    }

    #[test]
    fn gate_speedup_regression_is_caught() {
        let cfg = GateConfig { min_band: 0.1, ..GateConfig::default() };
        let mut base = snap("base", &[("g", "a", 1e7)], 0.02);
        base.speedups.insert("detailed_sim".into(), 2.2);
        let mut cand = snap("cand", &[("g", "a", 1e7)], 0.02);
        cand.speedups.insert("detailed_sim".into(), 1.5);
        let report = gate(&base, &cand, &cfg);
        assert!(
            report
                .rows
                .iter()
                .any(|r| r.name == "speedup:detailed_sim" && r.verdict == Verdict::Fail),
            "{}",
            report.table()
        );
        // A missing speedup (pair not run) is a note, not a failure.
        cand.speedups.clear();
        let report = gate(&base, &cand, &cfg);
        assert_eq!(report.worst(), Verdict::Ok);
        assert!(report.notes.iter().any(|n| n.contains("detailed_sim")));
    }

    #[test]
    fn trajectory_parses_v2_rejects_others_and_renders_a_table() {
        let doc = |schema: &str| {
            json::parse(&format!(r#"{{"schema": "{schema}", "snapshots": [{SNAPSHOT}]}}"#)).unwrap()
        };
        let snaps = parse_trajectory(&doc(BENCH_SUITE_SCHEMA)).unwrap();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].speedups["k"], 2.0);
        for schema in ["mlpa-bench-suite-v1", "nope"] {
            let err = parse_trajectory(&doc(schema)).unwrap_err();
            assert!(err.contains("unsupported trajectory schema"), "{err}");
        }

        // A group the second snapshot did not time shows as `-`.
        let other = snap("new", &[("h", "b", 1600.0)], 0.02);
        let table = trajectory_table(&[snaps[0].clone(), other]);
        assert!(table.contains("8.000"), "{table}");
        assert!(table.contains("16.000"), "{table}");
        assert!(table.contains('-'), "{table}");
    }
}
