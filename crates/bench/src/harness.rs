//! The shared experiment driver: runs every sampling method on every
//! benchmark under both Table I configurations, producing the result
//! set all tables and figures are derived from.

use mlpa_core::prelude::*;
use mlpa_core::{
    attribute_segments, truth_and_plans_cached, AccuracyAttribution, CoastsOutcome,
    ExecutionOutcome, FineOutcome, MultilevelOutcome,
};
use mlpa_sim::{MachineConfig, MetricDeviation, MetricEstimate, SimMetrics};
use mlpa_workloads::{BenchmarkSpec, CompiledBenchmark, Suite};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

/// The three methods the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// 10 M (scaled 10 k) fixed-interval SimPoint, `Kmax = 30`.
    SimPoint,
    /// Coarse-grained earliest-instance sampling, `Kmax = 3`.
    Coasts,
    /// COASTS + fine re-sampling above the 300 k threshold.
    Multilevel,
}

impl Method {
    /// All methods, baseline first.
    pub const ALL: [Method; 3] = [Method::SimPoint, Method::Coasts, Method::Multilevel];

    /// Display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Method::SimPoint => "10M SimPoint",
            Method::Coasts => "COASTS",
            Method::Multilevel => "Multi-level Sampling",
        }
    }
}

/// Per-benchmark, per-method outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodResult {
    /// The executable plan.
    pub plan: SimulationPlan,
    /// Estimates under Config A and Config B.
    pub estimates: [MetricEstimate; 2],
    /// Deviations from ground truth under Config A and Config B.
    pub deviations: [MetricDeviation; 2],
    /// Number of simulation points.
    pub points: usize,
    /// Mean point (interval) size in instructions.
    pub mean_interval: f64,
}

/// Everything measured for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Trace length in instructions.
    pub total_insts: u64,
    /// Ground truth under Config A and Config B.
    pub truths: [MetricEstimate; 2],
    /// Results in [`Method::ALL`] order.
    pub methods: [MethodResult; 3],
    /// Number of coarse phases COASTS's BIC sweep settled on.
    pub coarse_k: usize,
    /// Position of the last coarse simulation point.
    pub coarse_last_position: f64,
    /// Fine SimPoint cluster count.
    pub fine_k: usize,
    /// Per-coarse-phase error decomposition of the COASTS estimate
    /// under Config A (the segmented-truth pass that produces it also
    /// supplies `truths[0]`, so attribution costs no extra simulation).
    pub attribution: AccuracyAttribution,
    /// Wall-clock seconds spent on this benchmark.
    pub elapsed: f64,
}

/// Experiment-wide settings.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Benchmarks to run.
    pub suite: Suite,
    /// Machine configurations (Config A, Config B).
    pub configs: [MachineConfig; 2],
    /// Warm-up policy during fast-forward (default: warmed; see
    /// [`WarmupMode`] docs for the scale argument).
    pub warmup: WarmupMode,
    /// COASTS parameters.
    pub coasts: CoastsConfig,
    /// Multi-level parameters.
    pub multilevel: MultilevelConfig,
    /// Fine-grained baseline parameters.
    pub fine: SimPointConfig,
    /// Fine interval length.
    pub fine_interval: u64,
    /// Suite workers for [`Experiment::run`]: `1` = one worker (the
    /// default), `0` = every available core, `n` = a pool of `n`. Each
    /// benchmark's BIC sweeps and config lanes may also take a spare
    /// core (see [`Experiment::run_benchmark`]). Results are
    /// bit-identical for every value.
    pub jobs: usize,
    /// Trace segments per profiling pass (1 = one segment). Every pass
    /// is one metadata walk on the calling thread whatever the count;
    /// with a [`Experiment::cache`], each of two or more segments is
    /// checkpointed as it completes, and their merge is bit-identical
    /// to the single segment, so this only sets the resume granularity
    /// of paper-scale traces.
    pub shards: usize,
    /// Optional artifact cache: profiling passes, selections, ground
    /// truths, and plan executions consult and populate it, so a
    /// repeated or resumed run skips completed work. Results are
    /// bit-identical with and without a cache.
    pub cache: Option<std::sync::Arc<mlpa_core::ArtifactCache>>,
}

impl Default for Experiment {
    fn default() -> Self {
        Experiment {
            suite: Suite::spec2000(),
            configs: [MachineConfig::table1_base(), MachineConfig::table1_sensitivity()],
            warmup: WarmupMode::Warmed,
            coasts: CoastsConfig::default(),
            multilevel: MultilevelConfig::default(),
            fine: SimPointConfig::fine_10m(),
            fine_interval: FINE_INTERVAL,
            jobs: 1,
            shards: 1,
            cache: None,
        }
    }
}

impl Experiment {
    /// A scaled-down experiment for quick runs and the end-to-end
    /// benchmark: the full 26-benchmark suite at reduced iteration
    /// counts and sizes. Keeps every structural knob identical.
    pub fn quick() -> Experiment {
        let suite: Suite = mlpa_workloads::suite::SPEC2000_NAMES
            .iter()
            .map(|n| {
                mlpa_workloads::suite::benchmark_with_iters(n, 2).expect("known name").scaled(0.5)
            })
            .collect();
        Experiment { suite, ..Experiment::default() }
    }

    /// Restrict to the named benchmarks.
    #[must_use]
    pub fn select(mut self, names: &[&str]) -> Experiment {
        self.suite = self.suite.select(names);
        self
    }

    /// Run one benchmark through every method and both configs.
    ///
    /// After selection the work splits into one lane per config: one
    /// detailed pass that measures its ground truth and simulates the
    /// three plans' points on the way ([`truth_and_plans_cached`]). The
    /// lanes run on
    /// the calling thread plus a helper when the process-wide spare-core
    /// budget has one free (see [`mlpa_obs::pool`]), and one after the
    /// other on the calling thread otherwise. Each lane is a pure
    /// function of the compiled benchmark, its config and the plans, so
    /// the result is bit-identical either way.
    ///
    /// # Errors
    ///
    /// Propagates compilation and selection errors (invalid spec, no
    /// cyclic structure).
    pub fn run_benchmark(&self, spec: &BenchmarkSpec) -> Result<BenchResult, String> {
        self.run_benchmark_on(spec, None)
    }

    /// [`Experiment::run_benchmark`] with its config lanes on the pool
    /// size `workers` picks (see [`mlpa_obs::pool::run`]): `Some(n)` is
    /// exactly `n` workers, whatever the helper budget says.
    pub(crate) fn run_benchmark_on(
        &self,
        spec: &BenchmarkSpec,
        workers: Option<usize>,
    ) -> Result<BenchResult, String> {
        let _span = mlpa_obs::span_labeled("bench.benchmark", &spec.name);
        let t0 = std::time::Instant::now();
        let cb = CompiledBenchmark::compile(spec)?;

        // Plans, sharing one profiling context: the loop profile and
        // fine intervals come from a single combined metadata walk,
        // the boundary pass runs once, and multi-level reuses the
        // COASTS selection instead of recomputing it.
        let mut ctx = ProfilingContext::new(&cb, self.coasts.projection, self.fine_interval);
        ctx.set_shards(self.shards);
        if let Some(cache) = &self.cache {
            ctx.set_cache(cache.clone());
        }
        ctx.prepare();
        let fine: FineOutcome = simpoint_baseline_with(&mut ctx, &self.fine)?;
        let co: CoastsOutcome = coasts_with(&mut ctx, &self.coasts)?;
        let ml: MultilevelOutcome = multilevel_with(&mut ctx, &self.multilevel)?;

        // One lane per config, in config order. Each lane's truth comes
        // from a *segmented* detailed pass sliced at the coarse interval
        // boundaries: its per-segment statistics telescope exactly to
        // the whole-run totals (same cost, same result), and Config A's
        // segments also feed the accuracy attribution. The same pass
        // simulates every plan point, warm state included.
        let plans = [&fine.plan, &co.plan, &ml.plan];
        let lens: Vec<u64> = co.intervals.iter().map(|iv| iv.len).collect();
        let cache = self.cache.as_deref();
        let lanes = mlpa_obs::pool::run(
            workers,
            self.configs.len(),
            || (),
            |_, ci| {
                let config = &self.configs[ci];
                let (segments, outcomes) =
                    truth_and_plans_cached(cache, &cb, config, &lens, &plans, self.warmup);
                let mut whole = SimMetrics::default();
                for s in &segments {
                    whole += *s;
                }
                let outcomes = outcomes.try_into().expect("one outcome per plan");
                Lane { truth: whole.estimate(), segments, outcomes }
            },
        );
        let lane_a = &lanes[0];
        let attribution =
            attribute_segments(&spec.name, &co, &lane_a.outcomes[1], &lane_a.segments);

        let mk = |mi: usize| {
            let plan = plans[mi];
            let est = |l: &Lane| l.outcomes[mi].estimate;
            MethodResult {
                plan: plan.clone(),
                estimates: [est(&lanes[0]), est(&lanes[1])],
                deviations: [
                    est(&lanes[0]).deviation_from(&lanes[0].truth),
                    est(&lanes[1]).deviation_from(&lanes[1].truth),
                ],
                points: plan.len(),
                mean_interval: plan.mean_point_len(),
            }
        };

        Ok(BenchResult {
            name: spec.name.clone(),
            total_insts: fine.plan.total_insts(),
            truths: [lanes[0].truth, lanes[1].truth],
            methods: [mk(0), mk(1), mk(2)],
            coarse_k: co.simpoints.k,
            coarse_last_position: co.plan.last_position(),
            fine_k: fine.simpoints.k,
            attribution,
            elapsed: t0.elapsed().as_secs_f64(),
        })
    }

    /// Worker threads [`Experiment::run`] uses: [`Experiment::jobs`]
    /// with `0` resolved to every available core, capped at the suite
    /// size (and at least one).
    pub fn workers(&self) -> usize {
        let jobs = match self.jobs {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        jobs.min(self.suite.len()).max(1)
    }

    /// Run the whole suite, calling `progress` after each benchmark.
    ///
    /// Benchmarks run on a pool of [`Experiment::workers`] workers: the
    /// calling thread is worker 0, and `workers - 1` scoped threads
    /// join it, so the default `jobs = 1` spawns no thread. Results are
    /// returned in suite order and are bit-identical for every worker
    /// count. `progress` is always invoked on the calling thread, in
    /// suite order, for the completed prefix of benchmarks — between
    /// the calling thread's own benchmarks, and as the others finish
    /// once it has nothing left to claim.
    ///
    /// # Errors
    ///
    /// Fails on the first benchmark error in suite order. No benchmark
    /// starts after a failure; ones already running finish, but their
    /// results are discarded. A panicking benchmark re-panics on the
    /// calling thread with the benchmark's name attached.
    pub fn run(&self, mut progress: impl FnMut(&BenchResult)) -> Result<Vec<BenchResult>, String> {
        // Progress gauges feed the live telemetry sampler and the
        // status server's benchmarks done/total fields.
        mlpa_obs::gauge_set("bench.total", self.suite.len() as u64);
        mlpa_obs::gauge_set("bench.done", 0);

        let specs: Vec<&BenchmarkSpec> = self.suite.iter().collect();
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel::<(usize, Outcome)>();
        // One pool worker: claims benchmarks in suite order, sends each
        // outcome, and calls `between` after every job.
        let work = |w: usize, tx: mpsc::Sender<(usize, Outcome)>, between: &mut dyn FnMut()| {
            let mut guard = mlpa_obs::worker("suite", w);
            loop {
                // Stop claiming new benchmarks once any has failed.
                // Claim order guarantees the lowest-indexed failure is
                // always executed, so the reported error is
                // deterministic.
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                // A panicking benchmark must not be swallowed by the
                // scope join: capture the payload and report it with
                // the benchmark's name attached.
                let r = guard.busy(|| {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        self.run_benchmark(spec).map_err(|e| format!("{}: {e}", spec.name))
                    }))
                });
                let r = match r {
                    Ok(Ok(res)) => Outcome::Done(Box::new(res)),
                    Ok(Err(e)) => Outcome::Error(e),
                    Err(payload) => Outcome::Panic(format!(
                        "suite benchmark {} panicked: {}",
                        spec.name,
                        mlpa_core::panic_message(&*payload)
                    )),
                };
                if !matches!(r, Outcome::Done(_)) {
                    stop.store(true, Ordering::Relaxed);
                }
                if tx.send((i, r)).is_err() {
                    break;
                }
                between();
            }
        };

        std::thread::scope(|s| {
            for w in 1..self.workers() {
                let tx = tx.clone();
                s.spawn(move || work(w, tx, &mut || {}));
            }
            let mut sink = Collector::new(specs.len());
            work(0, tx, &mut || {
                while let Ok((i, r)) = rx.try_recv() {
                    sink.take(i, r, &mut progress);
                }
            });
            for (i, r) in rx {
                sink.take(i, r, &mut progress);
            }
            sink.finish()
        })
    }
}

/// One config's share of a benchmark.
struct Lane {
    /// Ground truth under the lane's config.
    truth: MetricEstimate,
    /// The truth per coarse interval (Config A's feeds attribution).
    segments: Vec<SimMetrics>,
    /// Plan executions in [`Method::ALL`] order.
    outcomes: [ExecutionOutcome; 3],
}

/// Channel payload of the suite pool: a finished benchmark, a
/// benchmark error, or a captured worker panic.
enum Outcome {
    Done(Box<BenchResult>),
    Error(String),
    Panic(String),
}

/// The calling thread's side of the suite pool: restores suite order,
/// streams progress for the completed prefix, and keeps the
/// lowest-indexed failure of each kind so the outcome is deterministic
/// regardless of interleaving; a panic (a bug) outranks an error (a bad
/// benchmark).
struct Collector {
    slots: Vec<Option<BenchResult>>,
    emitted: usize,
    first_err: Option<(usize, String)>,
    first_panic: Option<(usize, String)>,
}

impl Collector {
    fn new(len: usize) -> Collector {
        Collector {
            slots: (0..len).map(|_| None).collect(),
            emitted: 0,
            first_err: None,
            first_panic: None,
        }
    }

    fn take(&mut self, i: usize, r: Outcome, progress: &mut impl FnMut(&BenchResult)) {
        match r {
            Outcome::Done(res) => self.slots[i] = Some(*res),
            Outcome::Error(e) => {
                if self.first_err.as_ref().is_none_or(|(fi, _)| i < *fi) {
                    self.first_err = Some((i, e));
                }
            }
            Outcome::Panic(msg) => {
                if self.first_panic.as_ref().is_none_or(|(fi, _)| i < *fi) {
                    self.first_panic = Some((i, msg));
                }
            }
        }
        while let Some(Some(done)) = self.slots.get(self.emitted) {
            progress(done);
            self.emitted += 1;
            mlpa_obs::gauge_set("bench.done", self.emitted as u64);
            // A counter snapshot per completed benchmark gives the
            // trace converter its counter-series timeline.
            mlpa_obs::emit_counters_snapshot();
        }
    }

    fn finish(self) -> Result<Vec<BenchResult>, String> {
        if let Some((_, msg)) = self.first_panic {
            panic!("{msg}");
        }
        if let Some((_, e)) = self.first_err {
            return Err(e);
        }
        self.slots
            .into_iter()
            .map(|r| r.ok_or_else(|| "worker pool dropped a benchmark".to_string()))
            .collect()
    }
}

/// Index of a method in [`BenchResult::methods`].
pub fn method_index(m: Method) -> usize {
    match m {
        Method::SimPoint => 0,
        Method::Coasts => 1,
        Method::Multilevel => 2,
    }
}

/// Speedup of `method` over the SimPoint baseline for one benchmark
/// under a cost model.
pub fn speedup(result: &BenchResult, method: Method, model: &CostModel) -> f64 {
    let base = &result.methods[0].plan;
    let plan = &result.methods[method_index(method)].plan;
    model.speedup(base, plan)
}

/// Geometric-mean speedup across a result set.
pub fn geomean_speedup(results: &[BenchResult], method: Method, model: &CostModel) -> f64 {
    let v: Vec<f64> = results.iter().map(|r| speedup(r, method, model)).collect();
    geometric_mean(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Experiment {
        let suite: Suite = ["eon", "twolf"]
            .iter()
            .map(|n| mlpa_workloads::suite::benchmark_with_iters(n, 1).expect("known").scaled(0.15))
            .collect();
        Experiment { suite, ..Experiment::default() }
    }

    #[test]
    fn runs_methods_and_orders_speedups() {
        let exp = tiny();
        let results = exp.run(|_| {}).unwrap();
        assert_eq!(results.len(), 2);
        let model = CostModel::paper_implied();
        for r in &results {
            for m in &r.methods {
                assert_eq!(m.plan.total_insts(), r.total_insts);
            }
            // Coarse methods slash functional time.
            let sp = &r.methods[0].plan;
            let co = &r.methods[1].plan;
            assert!(co.functional_fraction() < sp.functional_fraction());
            // Multi-level detail volume <= COASTS detail volume.
            assert!(r.methods[2].plan.detailed_insts() <= r.methods[1].plan.detailed_insts());
            // Attribution decomposes the COASTS/Config-A estimate, and
            // its telescoped truth *is* truths[0].
            assert_eq!(r.attribution.benchmark, r.name);
            assert_eq!(r.attribution.truth, r.truths[0]);
            assert_eq!(r.attribution.estimate, r.methods[1].estimates[0]);
            assert!(!r.attribution.phases.is_empty());
        }
        let g = geomean_speedup(&results, Method::Multilevel, &model);
        assert!(g > 1.0, "multi-level should beat SimPoint, geomean {g:.2}");
    }

    #[test]
    fn method_metadata() {
        assert_eq!(Method::ALL.len(), 3);
        assert_eq!(method_index(Method::SimPoint), 0);
        assert_eq!(Method::Coasts.name(), "COASTS");
    }

    #[test]
    fn select_filters_suite() {
        let exp = Experiment::default().select(&["gzip"]);
        assert_eq!(exp.suite.len(), 1);
    }

    /// Everything a `BenchResult` derives from the trace must be
    /// bit-identical across worker counts; only `elapsed` (wall clock)
    /// may differ.
    fn assert_same_results(a: &[BenchResult], b: &[BenchResult]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.total_insts, y.total_insts);
            assert_eq!(x.truths, y.truths);
            assert_eq!(x.methods, y.methods);
            assert_eq!(x.coarse_k, y.coarse_k);
            assert_eq!(x.coarse_last_position, y.coarse_last_position);
            assert_eq!(x.fine_k, y.fine_k);
            assert_eq!(x.attribution, y.attribution);
        }
    }

    #[test]
    fn parallel_run_is_bit_identical_and_ordered() {
        let serial = tiny().run(|_| {}).unwrap();
        for jobs in [4, 0] {
            let mut streamed = Vec::new();
            let results =
                Experiment { jobs, ..tiny() }.run(|r| streamed.push(r.name.clone())).unwrap();
            assert_same_results(&serial, &results);
            // Progress streams on the calling thread in suite order.
            let order: Vec<String> = results.iter().map(|r| r.name.clone()).collect();
            assert_eq!(streamed, order, "jobs={jobs} progress order");
        }
    }

    #[test]
    fn config_lanes_are_bit_identical_on_one_and_two_workers() {
        let exp = tiny();
        let spec = exp.suite.iter().next().expect("tiny suite is not empty");
        let run = |workers| exp.run_benchmark_on(spec, Some(workers)).unwrap();
        assert_same_results(&[run(1)], &[run(2)]);
    }

    #[test]
    fn sharded_run_is_bit_identical() {
        let serial = tiny().run(|_| {}).unwrap();
        let sharded = Experiment { shards: 6, ..tiny() }.run(|_| {}).unwrap();
        assert_same_results(&serial, &sharded);
    }

    #[test]
    fn parallel_run_reports_lowest_index_error() {
        // An empty script fails compilation at index 0; the parallel
        // pool must report exactly that error even though later
        // benchmarks succeed (claim order guarantees index 0 runs).
        let mut exp = tiny();
        let mut specs: Vec<_> = exp.suite.iter().cloned().collect();
        let mut bad = specs[0].clone();
        bad.name = "bad".into();
        bad.script.clear();
        specs.insert(0, bad);
        exp.suite = specs.into_iter().collect();
        exp.jobs = 4;
        let serial_err = Experiment { jobs: 1, ..exp.clone() }.run(|_| {}).unwrap_err();
        let parallel_err = exp.run(|_| {}).unwrap_err();
        assert_eq!(serial_err, parallel_err);
        assert!(parallel_err.starts_with("bad:"), "{parallel_err}");
    }

    /// Regression: a worker thread panicking mid-benchmark used to
    /// resurface only at the scope join, with the raw payload and no
    /// indication of which benchmark died. The pool must capture it and
    /// re-panic with the benchmark's name attached, for every worker
    /// count including the default single worker, and from either
    /// config lane — Config B's is the one a spare-core helper runs.
    #[test]
    fn run_propagates_worker_panics_with_benchmark_name() {
        for (config, jobs) in [(0, 1), (0, 2), (1, 1), (1, 2)] {
            let mut exp = Experiment { jobs, ..tiny() };
            // Width 0 passes compilation/selection but makes DetailedSim
            // panic inside the lane ("invalid machine config").
            exp.configs[config].width = 0;
            let payload =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exp.run(|_| {})))
                    .expect_err("invalid config must panic");
            let msg = mlpa_core::panic_message(&*payload);
            let at = format!("config {config}, jobs={jobs}");
            assert!(msg.contains("suite benchmark eon panicked"), "{at}: {msg}");
            assert!(msg.contains("invalid machine config"), "{at}: {msg}");
        }
    }

    #[test]
    fn workers_resolve_jobs_against_cores_and_suite() {
        assert_eq!(tiny().workers(), 1);
        assert_eq!(Experiment { jobs: 8, ..tiny() }.workers(), 2);
        assert!(Experiment { jobs: 0, ..tiny() }.workers() >= 1);
        assert_eq!(Experiment { jobs: 4, ..tiny() }.select(&[]).workers(), 1);
    }
}
