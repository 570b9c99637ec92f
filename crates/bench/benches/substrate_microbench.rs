//! Microbenchmarks of the simulator substrate itself: trace generation,
//! functional simulation and warming, detailed simulation, cache
//! accesses, k-means, and the full phase-analysis pipeline (profile →
//! project → cluster).
//! These are the quantities the cost model (`CostModel::measure`)
//! summarises into the detailed/functional ratio, plus the clustering
//! substrate the perf trajectory (`BENCH.json`) tracks.
//!
//! With `MLPA_BENCH_TRAJECTORY=<path>` in the environment, the run
//! appends one snapshot, labelled `MLPA_BENCH_LABEL`, to the trajectory
//! at `<path>`. With `MLPA_BENCH_SMOKE=1`, every bench runs a single
//! timed sample (the CI smoke mode).
//!
//! Every run calibrates the host **in this process** first
//! (`mlpa_obs::calibrate`): the probe's ns-per-unit price stamps the
//! snapshot, and each bench also records
//! `normalized = mean_ns / probe_ns` — a machine-independent cost the
//! `bench-gate` binary compares across hosts. Derived speedups are
//! within-run by construction (both sides of every ratio measured in
//! this same process); the headline `detailed_sim` speedup additionally
//! comes from interleaved A/B rounds rather than two separately-timed
//! bench entries.

use mlpa_core::estimate::{execute_plan, WarmupMode};
use mlpa_core::plan::{PlanPoint, SimulationPlan};
use mlpa_isa::rng::SplitMix64;
use mlpa_isa::stream::drain_count;
use mlpa_isa::BlockId;
use mlpa_phase::bic::choose_k;
use mlpa_phase::kmeans::{kmeans, kmeans_with, KMeansConfig, KMeansResult, KMeansScratch};
use mlpa_phase::matrix::Matrix;
use mlpa_phase::project::RandomProjection;
use mlpa_phase::{reference, FixedLengthProfiler};
use mlpa_sim::cache::Cache;
use mlpa_sim::config::CacheConfig;
use mlpa_sim::reference as sim_reference;
use mlpa_sim::{DetailedSim, FunctionalSim, MachineConfig};
use mlpa_workloads::{suite, CompiledBenchmark, WorkloadStream};
use std::hint::black_box;

/// Scale of the phase-pipeline benchmark: the fine pass of a mid-sized
/// benchmark — ≥ 1000 intervals over a realistic static-block count
/// (real programs carry thousands of basic blocks, most of them cold;
/// each interval touches only a few hundred).
const NUM_BLOCKS: usize = 32_768;
/// Hot working-set size per phase (see [`synth_events`]).
const HOT_BLOCKS: usize = 64;
const DIM: usize = 15;
const INTERVAL_LEN: u64 = 10_000;
const TARGET_INTERVALS: usize = 1_200;
/// Fixed fine-pass cluster count for the `phase_pipeline` benchmark.
const PIPELINE_K: usize = 10;
/// Sweep ceiling for the `phase_sweep` (BIC `choose_k`) benchmark.
const K_MAX: usize = 10;

/// Fastest of `n` timed calls, in nanoseconds.
fn best_of<R>(n: usize, f: &mut impl FnMut() -> R) -> f64 {
    (0..n.max(1))
        .map(|_| {
            let t0 = std::time::Instant::now();
            black_box(f());
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Whether `MLPA_BENCH_SMOKE` is set (non-empty): every bench then runs
/// one timed sample and the interleaved A/B one round.
fn smoke_mode() -> bool {
    std::env::var_os("MLPA_BENCH_SMOKE").is_some_and(|v| !v.is_empty())
}

/// One timed bench, as written to the trajectory.
struct Measurement {
    group: &'static str,
    id: &'static str,
    mean_ns: f64,
    min_ns: f64,
    max_ns: f64,
    samples: usize,
}

/// Benches that share a group name, a sample count and, when set, the
/// elements one call processes (printed as throughput).
struct Group<'m> {
    name: &'static str,
    samples: usize,
    elements: Option<u64>,
    out: &'m mut Vec<Measurement>,
}

impl Group<'_> {
    /// Time `f`: one untimed warm-up call, then the group's sample count
    /// of timed calls (one in smoke mode). Prints `group/id: [min mean
    /// max]` and records the measurement.
    fn bench<R>(&mut self, id: &'static str, mut f: impl FnMut() -> R) {
        black_box(f());
        let samples = if smoke_mode() { 1 } else { self.samples };
        let times: Vec<f64> = (0..samples).map(|_| best_of(1, &mut f)).collect();
        let mean_ns = times.iter().sum::<f64>() / samples as f64;
        let min_ns = times.iter().copied().fold(f64::INFINITY, f64::min);
        let max_ns = times.iter().copied().fold(0.0, f64::max);
        let rate = self.elements.map(|e| format!(" {:.3e} elem/s", e as f64 * 1e9 / mean_ns));
        let (min, mean, max) = (fmt_ns(min_ns), fmt_ns(mean_ns), fmt_ns(max_ns));
        println!("{}/{id}: [{min} {mean} {max}]{}", self.name, rate.unwrap_or_default());
        self.out.push(Measurement { group: self.name, id, mean_ns, min_ns, max_ns, samples });
    }
}

/// A duration in nanoseconds, in the unit that keeps it readable.
fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Interleaved A/B speedup: rounds alternate reference and current
/// back-to-back, best-of-3 a side per round, and
/// the reported ratio is the **median** of the per-round ratios. Both
/// sides of each ratio run within microseconds of each other, so host
/// drift between separately-timed bench groups cannot leak into the
/// derived speedup. Smoke mode drops to one round, best-of-1.
fn ab_median_ratio<A, B>(mut reference: impl FnMut() -> A, mut current: impl FnMut() -> B) -> f64 {
    let (rounds, reps) = if smoke_mode() { (1, 1) } else { (5, 3) };
    let mut ratios: Vec<f64> = (0..rounds)
        .map(|_| best_of(reps, &mut reference) / best_of(reps, &mut current).max(f64::MIN_POSITIVE))
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    ratios[ratios.len() / 2]
}

fn bench_substrate(out: &mut Vec<Measurement>) -> f64 {
    let spec = suite::benchmark_with_iters("eon", 1).expect("eon").scaled(0.05);
    let cb = CompiledBenchmark::compile(&spec).expect("compiles");
    let trace_len = drain_count(WorkloadStream::new(&cb)).instructions;

    // The optimized detailed simulator and the retained naive reference
    // must agree byte-for-byte before their cost is compared (same
    // pinning as the property tests, on the real bench workload).
    let run_current = || {
        let mut d = DetailedSim::new(MachineConfig::table1_base(), cb.program());
        d.simulate(&mut WorkloadStream::new(&cb), u64::MAX)
    };
    let run_reference = || {
        let mut d = sim_reference::DetailedSim::new(MachineConfig::table1_base(), cb.program());
        d.simulate(&mut WorkloadStream::new(&cb), u64::MAX)
    };
    assert_eq!(run_current(), run_reference(), "detailed-sim implementations disagree");

    let mut group = Group { name: "substrate", samples: 10, elements: Some(trace_len), out };
    group.bench("trace_generation", || drain_count(WorkloadStream::new(black_box(&cb))));
    group.bench("functional_sim", || {
        let mut f = FunctionalSim::new(cb.program());
        f.run(WorkloadStream::new(&cb), &mut ())
    });
    group.bench("detailed_sim", run_current);
    group.bench("detailed_sim_reference", run_reference);
    // Functional warming: a warmed `execute_plan` of one point at the end
    // of the trace warms the whole trace first. Like
    // `phase_sweep/current`, these rows use whatever cores are free: the
    // walk's cache stage runs on a helper when the process-wide budget
    // has one, and on the calling thread when it has none.
    let end = FunctionalSim::new(cb.program()).fast_forward(
        &mut WorkloadStream::new(&cb),
        trace_len - 10_000,
        &mut (),
    );
    let last =
        SimulationPlan::new(vec![PlanPoint { start: end, len: 1_000, weight: 1.0 }], trace_len)
            .expect("a one-point plan at the end of the trace");
    for (id, config) in [
        ("warm_walk_a", MachineConfig::table1_base()),
        ("warm_walk_b", MachineConfig::table1_sensitivity()),
    ] {
        group.bench(id, || execute_plan(&cb, &config, &last, WarmupMode::Warmed));
    }

    // The headline detailed-sim speedup, measured interleaved so it is
    // immune to drift between the two bench entries above.
    let ab_detailed = ab_median_ratio(run_reference, run_current);
    println!("substrate/detailed_sim interleaved A/B speedup: {ab_detailed:.2}x");

    let accesses = 100_000u64;
    let mut cache = Cache::new(CacheConfig { size: 16 * 1024, assoc: 4, line: 32, latency: 2 });
    let mut rng = SplitMix64::new(1);
    Group { name: "cache", samples: 100, elements: Some(accesses), out }.bench(
        "l1_random_access",
        || {
            for _ in 0..accesses {
                let addr = rng.range_u64(1 << 20);
                black_box(cache.access(addr, false));
            }
        },
    );
    ab_detailed
}

/// The streaming profiling pass: `ProfilingContext::prepare` (one
/// metadata walk, no instruction materialisation, the O(1)-per-block
/// `LoopProfiler`) versus the monolithic reference observers
/// (`LoopMonitor` + `FixedLengthProfiler` over a materialising
/// functional run). The two must agree bit-identically before their
/// cost is compared — the speedup this group derives is the paper-scale
/// profiling win the perf baseline tracks.
fn bench_streaming(out: &mut Vec<Measurement>) {
    use mlpa_core::pipeline::{ProfilingContext, ProjectionSettings, FINE_INTERVAL};
    use mlpa_phase::interval::FixedLengthProfiler;
    use mlpa_phase::loops::LoopMonitor;
    let spec = suite::benchmark_with_iters("eon", 1).expect("eon").scaled(0.25);
    let cb = CompiledBenchmark::compile(&spec).expect("compiles");
    let trace_len = drain_count(WorkloadStream::new(&cb)).instructions;
    let streamed = || {
        let mut ctx = ProfilingContext::new(&cb, ProjectionSettings::default(), FINE_INTERVAL);
        ctx.prepare();
        (ctx.loop_profile().clone(), ctx.fine_intervals().to_vec())
    };
    let proj = ProjectionSettings::default().build(&cb);
    let monolithic = || {
        let mut monitor = LoopMonitor::new(cb.program());
        let mut prof = FixedLengthProfiler::new(&proj, FINE_INTERVAL);
        FunctionalSim::new(cb.program())
            .run(WorkloadStream::new(&cb), &mut (&mut monitor, &mut prof));
        (monitor.finish(), prof.finish())
    };
    assert!(streamed() == monolithic(), "prepare diverged from the monolithic pass");

    let mut group = Group { name: "streaming", samples: 10, elements: Some(trace_len), out };
    // The row keeps the ID of its eight-segment days: `BENCH.json`'s
    // baseline is keyed by it, and bench-gate fails a row that vanished.
    // Rename it when that baseline is next re-recorded (ROADMAP item 3).
    group.bench("prepare_sharded8", streamed);
    group.bench("prepare_monolithic", monolithic);
}

fn bench_kmeans(out: &mut Vec<Measurement>) {
    // Clustered data with overlap, like projected BBV signatures: ten
    // anchor behaviours, each point a noisy draw around one of them.
    let mut rng = SplitMix64::new(7);
    let anchors: Vec<Vec<f64>> =
        (0..10).map(|_| (0..15).map(|_| 2.5 * rng.next_gauss()).collect()).collect();
    let data: Vec<Vec<f64>> = (0..2_000)
        .map(|_| {
            let a = &anchors[rng.range_usize(10)];
            a.iter().map(|&v| v + rng.next_gauss()).collect()
        })
        .collect();
    let mut group = Group { name: "kmeans", samples: 10, elements: None, out };
    group.bench("k10_n2000_d15", || kmeans(black_box(&data), 10, &KMeansConfig::default()));
    group.bench("k10_n2000_d15_naive", || {
        reference::kmeans_naive(black_box(&data), 10, &KMeansConfig::default())
    });
}

/// A phase-structured synthetic block-event stream: four phases, each
/// with its own hot working set of [`HOT_BLOCKS`] basic blocks (real
/// programs concentrate execution in a few hot blocks out of thousands
/// of static ones), switching every 40 intervals. The hot-set bias
/// ramps from 0.70 to 0.95 across each phase block, modelling the
/// gradual warm-in after a phase transition; the rest of the events
/// scatter over the full block space as a cold tail. Noisy enough that
/// Lloyd's takes real iterations; structured enough that the BIC sweep
/// does real work.
fn synth_events(seed: u64) -> Vec<(u32, u64)> {
    let mut rng = SplitMix64::new(seed);
    let phases = 4usize;
    let total_insts = TARGET_INTERVALS as u64 * INTERVAL_LEN;
    let mut events = Vec::new();
    let mut insts = 0u64;
    while insts < total_insts {
        let interval_idx = insts / INTERVAL_LEN;
        let phase = ((interval_idx / 40) as usize) % phases;
        let warm_in = (interval_idx % 40) as f64 / 40.0;
        let bias = 0.80 + 0.15 * warm_in;
        let b = if rng.chance(bias) {
            phase * HOT_BLOCKS + rng.range_usize(HOT_BLOCKS)
        } else {
            rng.range_usize(NUM_BLOCKS)
        };
        let len = 10 + rng.range_u64(40);
        events.push((b as u32, len));
        insts += len;
    }
    events
}

/// In-projection profiling into contiguous row-major storage (the
/// current kernels).
fn profile_current(proj: &RandomProjection, events: &[(u32, u64)]) -> Matrix {
    let mut prof = FixedLengthProfiler::new(proj, INTERVAL_LEN);
    for &(b, n) in events {
        prof.record(BlockId::new(b), n);
    }
    let intervals = prof.finish();
    let mut data = Matrix::with_capacity(intervals.len(), proj.dim());
    for iv in &intervals {
        data.push_row(&iv.vector);
    }
    data
}

/// Pre-optimisation profiling: a raw `num_blocks`-dim BBV per interval,
/// projected and normalised at each flush, into nested-vector storage.
fn profile_naive(proj: &RandomProjection, events: &[(u32, u64)]) -> Vec<Vec<f64>> {
    let mut raw = vec![0.0; proj.num_blocks()];
    let mut count = 0u64;
    let mut data: Vec<Vec<f64>> = Vec::new();
    let flush = |raw: &mut Vec<f64>, count: &mut u64, data: &mut Vec<Vec<f64>>| {
        if *count == 0 {
            return;
        }
        let inv = 1.0 / *count as f64;
        let mut v = proj.project(raw);
        for x in &mut v {
            *x *= inv;
        }
        data.push(v);
        raw.fill(0.0);
        *count = 0;
    };
    for &(b, n) in events {
        raw[b as usize] += n as f64;
        count += n;
        if count >= INTERVAL_LEN {
            flush(&mut raw, &mut count, &mut data);
        }
    }
    flush(&mut raw, &mut count, &mut data);
    data
}

/// The current clustering pipeline (profile → project → k-means at the
/// fine-pass `k`): in-projection accumulation and the pruned Lloyd's.
fn pipeline_current(proj: &RandomProjection, events: &[(u32, u64)]) -> KMeansResult {
    let data = profile_current(proj, events);
    kmeans_with(&data, PIPELINE_K, &KMeansConfig::default(), &mut KMeansScratch::new())
}

/// The pre-optimisation pipeline on the same stream: per-flush
/// projection and the naive Lloyd's. Must produce a bit-identical
/// [`KMeansResult`].
fn pipeline_naive(proj: &RandomProjection, events: &[(u32, u64)]) -> KMeansResult {
    let data = profile_naive(proj, events);
    reference::kmeans_naive(&data, PIPELINE_K, &KMeansConfig::default())
}

/// The current BIC sweep (`choose_k`) over the profiled signatures.
fn sweep_current(proj: &RandomProjection, events: &[(u32, u64)]) -> usize {
    let data = profile_current(proj, events);
    choose_k(&data, K_MAX, 0.9, &KMeansConfig::default()).k
}

/// The pre-optimisation BIC sweep (`choose_k_naive`).
fn sweep_naive(proj: &RandomProjection, events: &[(u32, u64)]) -> usize {
    let data = profile_naive(proj, events);
    reference::choose_k_naive(&data, K_MAX, 0.9, &KMeansConfig::default()).k
}

fn bench_phase_pipeline(out: &mut Vec<Measurement>) {
    let proj = RandomProjection::new(NUM_BLOCKS, DIM, 0xC0A5);
    let events = synth_events(0x5EED);
    // Both paths must agree before we compare their cost.
    assert_eq!(
        pipeline_current(&proj, &events),
        pipeline_naive(&proj, &events),
        "pipeline implementations disagree"
    );
    assert_eq!(
        sweep_current(&proj, &events),
        sweep_naive(&proj, &events),
        "k-sweep implementations disagree on k"
    );

    let elements = Some(TARGET_INTERVALS as u64);
    let mut group = Group { name: "phase_pipeline", samples: 10, elements, out };
    group.bench("current", || pipeline_current(black_box(&proj), black_box(&events)));
    group.bench("naive", || pipeline_naive(black_box(&proj), black_box(&events)));

    let mut sweep = Group { name: "phase_sweep", samples: 10, elements, out };
    sweep.bench("current", || sweep_current(black_box(&proj), black_box(&events)));
    sweep.bench("naive", || sweep_naive(black_box(&proj), black_box(&events)));
}

/// Instrumentation overhead on the hottest pipeline: the phase pass
/// with obs runtime-disabled (one relaxed load per call site) versus
/// runtime-enabled.
fn bench_obs_overhead(out: &mut Vec<Measurement>) {
    let proj = RandomProjection::new(NUM_BLOCKS, DIM, 0xC0A5);
    let events = synth_events(0x5EED);
    let elements = Some(TARGET_INTERVALS as u64);
    let mut group = Group { name: "obs_overhead", samples: 10, elements, out };
    mlpa_obs::set_enabled(false);
    group.bench("pipeline_instrumentation_off", || {
        pipeline_current(black_box(&proj), black_box(&events))
    });
    // The histogram call sites in isolation: one hoisted switch check,
    // then a local tally fed in a hot loop and merged once — the
    // contract every instrumented kernel follows. Disabled this must
    // cost nothing measurable; the tracked baseline pins it.
    let hist_sites = || {
        if !mlpa_obs::is_enabled() {
            return;
        }
        let mut t = mlpa_obs::HistTally::default();
        for i in 0..4096u64 {
            t.record(black_box(i));
        }
        mlpa_obs::hist_merge("bench.hist_sites", "n", &t);
    };
    group.bench("hist_sites_off", hist_sites);
    mlpa_obs::set_enabled(true);
    group.bench("pipeline_instrumentation_on", || {
        pipeline_current(black_box(&proj), black_box(&events))
    });
    group.bench("hist_sites_on", hist_sites);
    mlpa_obs::set_enabled(false);
}

/// Pin the enabled-mode overhead of the phase pipeline below a few
/// percent (skipped in `MLPA_BENCH_SMOKE` runs, whose single samples
/// are too noisy to compare).
fn assert_obs_overhead(measurements: &[Measurement]) {
    if smoke_mode() {
        return;
    }
    let off = mean_of(measurements, "obs_overhead", "pipeline_instrumentation_off");
    let on = mean_of(measurements, "obs_overhead", "pipeline_instrumentation_on");
    if let (Some(off), Some(on)) = (off, on) {
        let overhead = on / off - 1.0;
        println!("obs enabled-mode pipeline overhead: {:+.2}%", overhead * 100.0);
        assert!(
            overhead < 0.05,
            "enabled-mode obs overhead {:.2}% exceeds the 5% budget \
             (off {off:.0} ns, on {on:.0} ns)",
            overhead * 100.0
        );
    }
}

/// Mean time of a recorded bench, by `group/id`.
fn mean_of(measurements: &[Measurement], group: &str, id: &str) -> Option<f64> {
    measurements.iter().find(|m| m.group == group && m.id == id).map(|m| m.mean_ns)
}

/// The bench pairs each derived speedup is the ratio of — every pair is
/// measured within this one process (never across snapshots), which is
/// what makes the speedups comparable across hosts without any
/// normalization at all. Written into the trajectory as annotation.
const SPEEDUP_PAIRS: [(&str, &str); 5] = [
    ("phase_pipeline", "phase_pipeline/naive over phase_pipeline/current"),
    ("phase_sweep", "phase_sweep/naive over phase_sweep/current"),
    ("kmeans", "kmeans/k10_n2000_d15_naive over kmeans/k10_n2000_d15"),
    (
        "detailed_sim",
        "substrate/detailed_sim_reference over substrate/detailed_sim (interleaved A/B median)",
    ),
    ("streaming", "streaming/prepare_monolithic over streaming/prepare_sharded8"),
];

/// Derived kernel speedups (naive-over-current within-run ratios);
/// `detailed_sim` is the interleaved A/B measurement `ab_detailed`.
fn derived_speedups(measurements: &[Measurement], ab_detailed: f64) -> [(&'static str, f64); 5] {
    let ratio = |group: &str, naive: &str, current: &str| match (
        mean_of(measurements, group, naive),
        mean_of(measurements, group, current),
    ) {
        (Some(n), Some(c)) if c > 0.0 => n / c,
        _ => 0.0,
    };
    [
        ("phase_pipeline", ratio("phase_pipeline", "naive", "current")),
        ("phase_sweep", ratio("phase_sweep", "naive", "current")),
        ("kmeans", ratio("kmeans", "k10_n2000_d15_naive", "k10_n2000_d15")),
        ("detailed_sim", ab_detailed),
        ("streaming", ratio("streaming", "prepare_monolithic", "prepare_sharded8")),
    ]
}

/// Append this run as one snapshot of the perf *trajectory*
/// (`BENCH.json` at the repo top level): prior snapshots are preserved
/// verbatim, so the file records how kernel cost and the derived
/// speedups evolve change over change. The new snapshot is stamped with
/// this run's in-process calibration and host metadata, and each bench
/// carries its machine-normalized cost. The snapshot label comes from
/// `MLPA_BENCH_LABEL` (defaulting to `snapshot-<n>`). A missing file
/// starts a fresh trajectory; a present one that does not parse as a
/// trajectory is an error, never overwritten.
fn write_trajectory(
    path: &std::ffi::OsStr,
    measurements: &[Measurement],
    cal: &mlpa_obs::calibrate::MachineCalibration,
    ab_detailed: f64,
) -> Result<(), String> {
    use mlpa_obs::calibrate::{parse_trajectory, BENCH_SUITE_SCHEMA};
    use mlpa_obs::json::{parse, Value};
    use std::collections::BTreeMap;

    let shown = path.to_string_lossy();
    let mut snapshots: Vec<String> = match std::fs::read_to_string(path) {
        Ok(text) => {
            let doc = parse(&text).map_err(|e| format!("{shown}: {e}"))?;
            parse_trajectory(&doc).map_err(|e| format!("{shown}: {e}"))?;
            let arr =
                doc.get("snapshots").and_then(Value::as_arr).expect("parse_trajectory checked");
            arr.iter().map(Value::to_string).collect()
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{shown}: {e}")),
    };
    let label = std::env::var("MLPA_BENCH_LABEL")
        .unwrap_or_else(|_| format!("snapshot-{}", snapshots.len() + 1));

    let probe = cal.probe_ns.max(f64::MIN_POSITIVE);
    let benches: Vec<Value> = measurements
        .iter()
        .map(|m| {
            Value::Obj(BTreeMap::from([
                ("group".to_string(), Value::Str(m.group.to_string())),
                ("id".to_string(), Value::Str(m.id.to_string())),
                ("mean_ns".to_string(), Value::Num(m.mean_ns.round())),
                ("min_ns".to_string(), Value::Num(m.min_ns.round())),
                ("max_ns".to_string(), Value::Num(m.max_ns.round())),
                ("samples".to_string(), Value::Num(m.samples as f64)),
                ("normalized".to_string(), Value::Num((m.mean_ns / probe * 1e4).round() / 1e4)),
            ]))
        })
        .collect();
    let speedups = Value::Obj(
        derived_speedups(measurements, ab_detailed)
            .into_iter()
            .map(|(k, v)| (k.to_string(), Value::Num((v * 100.0).round() / 100.0)))
            .collect(),
    );
    let snap = Value::Obj(BTreeMap::from([
        ("label".to_string(), Value::Str(label.clone())),
        ("calibration".to_string(), cal.to_value()),
        ("host".to_string(), mlpa_obs::host_meta().to_value()),
        ("benches".to_string(), Value::Arr(benches)),
        ("speedups".to_string(), speedups),
    ]));
    snapshots.push(snap.to_string());

    let pairs = Value::Obj(
        SPEEDUP_PAIRS.iter().map(|(k, v)| (k.to_string(), Value::Str(v.to_string()))).collect(),
    );
    let out = format!(
        "{{\n  \"schema\": \"{BENCH_SUITE_SCHEMA}\",\n  \"speedup_pairs\": {pairs},\n  \"snapshots\": [\n    {}\n  ]\n}}\n",
        snapshots.join(",\n    ")
    );
    std::fs::write(path, &out).map_err(|e| format!("{shown}: {e}"))?;
    println!("appended trajectory snapshot \"{label}\" ({} total) to {shown}", snapshots.len());
    Ok(())
}

fn main() {
    // Calibrate first, in this same process: probe and benches see the
    // same machine state, and every emitted artifact carries the stamp.
    let cal = mlpa_obs::calibrate::calibrate();
    println!(
        "machine calibration: {:.2} ns/unit (min {:.2}, dispersion {:.1}%) on {}",
        cal.probe_ns,
        cal.min_ns,
        cal.dispersion * 100.0,
        cal.fingerprint
    );
    let mut measurements = Vec::new();
    let ab_detailed = bench_substrate(&mut measurements);
    bench_streaming(&mut measurements);
    bench_kmeans(&mut measurements);
    bench_phase_pipeline(&mut measurements);
    bench_obs_overhead(&mut measurements);
    assert_obs_overhead(&measurements);
    if let Some(path) = std::env::var_os("MLPA_BENCH_TRAJECTORY") {
        if let Err(e) = write_trajectory(&path, &measurements, &cal, ab_detailed) {
            eprintln!("not writing the trajectory: {e}");
            std::process::exit(1);
        }
    }
}
