//! Plan execution: fast-forward to each simulation point, simulate it
//! in detail, and combine the weighted per-point metrics into a
//! whole-program estimate.
//!
//! [`execute_plan`] is the one executor: a single chained traversal of
//! the trace. Warm microarchitectural state at a point is defined as
//! *functional warming of the whole prefix* `[0, start)`, so a point's
//! metrics are a pure function of its start offset and never depend on
//! which other points the plan holds.

use crate::cache::{ArtifactCache, CacheKey};
use crate::plan::SimulationPlan;
use mlpa_sim::functional::Warming;
use mlpa_sim::{
    BranchUnit, DetailedSim, FunctionalSim, MachineConfig, MemoryHierarchy, MetricEstimate,
    SimMetrics,
};
use mlpa_workloads::{CompiledBenchmark, WorkloadStream};

/// Microarchitectural-state policy at each simulation point.
///
/// The default is [`WarmupMode::Warmed`]. At this repo's 1000×
/// instruction scale-down the caches keep their Table I sizes, so a
/// cold-started sample pays its compulsory misses over 1000× fewer
/// instructions than the paper's setup — cold-start bias is amplified
/// three orders of magnitude and would swamp every accuracy comparison.
/// Warming restores the paper's regime (where a 10 M-instruction sample
/// amortises cold misses to the ~1 % level). [`WarmupMode::Cold`]
/// remains available; `mlpa-experiments ablation_warmup`
/// (`results/ablation_warmup.txt`) uses it to show the Table II pattern
/// in amplified form — fine-grained sampling degrades drastically
/// without warm state while coarse-grained sampling barely notices,
/// which is exactly why the paper's SimPoint column shows L2 deviations
/// up to 23 %.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmupMode {
    /// Cold caches and predictor at every point — SimpleScalar's raw
    /// `-fastfwd` behaviour.
    Cold,
    /// Functionally warm caches and predictor over each point's entire
    /// prefix (checkpoint/warming methodology), including the regions
    /// of earlier points. The warm state a point sees is therefore a
    /// pure function of its start offset.
    #[default]
    Warmed,
}

/// What executing a plan cost, in actually-executed instructions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutionCost {
    /// Instructions fast-forwarded functionally.
    pub functional_insts: u64,
    /// Instructions simulated in detail.
    pub detailed_insts: u64,
}

/// Result of executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionOutcome {
    /// The whole-program estimate (weighted combination).
    pub estimate: MetricEstimate,
    /// Per-point raw metrics, in plan order.
    pub per_point: Vec<SimMetrics>,
    /// Cost accounting.
    pub cost: ExecutionCost,
}

/// Execute `plan` on `config`, producing the sampled estimate.
///
/// One traversal of the trace visits the points in order. With
/// [`WarmupMode::Cold`] every point starts from a cold simulator
/// (separate `sim-outorder -fastfwd` invocations, as the paper's
/// baseline); with [`WarmupMode::Warmed`] the caches and predictor are
/// functionally warmed over each point's prefix before detailed
/// simulation begins.
///
/// # Example
///
/// ```
/// use mlpa_core::estimate::{execute_plan, WarmupMode};
/// use mlpa_core::plan::{PlanPoint, SimulationPlan};
/// use mlpa_sim::MachineConfig;
/// use mlpa_workloads::{spec::BenchmarkSpec, CompiledBenchmark};
///
/// let cb = CompiledBenchmark::compile(&BenchmarkSpec::default())?;
/// let plan = SimulationPlan::new(
///     vec![PlanPoint { start: 0, len: 20_000, weight: 1.0 }],
///     500_000,
/// )?;
/// let out = execute_plan(&cb, &MachineConfig::table1_base(), &plan, WarmupMode::Cold);
/// assert!(out.estimate.cpi > 0.0);
/// # Ok::<(), String>(())
/// ```
pub fn execute_plan(
    cb: &CompiledBenchmark,
    config: &MachineConfig,
    plan: &SimulationPlan,
    mode: WarmupMode,
) -> ExecutionOutcome {
    let _span = mlpa_obs::span("core.plan.execute");
    let mut stream = WorkloadStream::new(cb);
    let mut func = FunctionalSim::new(cb.program());
    let mut per_point = Vec::with_capacity(plan.len());
    let mut cost = ExecutionCost::default();
    let mut pos = 0u64;
    // A single-worker guard so plan execution reports utilization.
    let mut worker = mlpa_obs::worker("plan", 0);
    mlpa_obs::gauge_set("core.plan.inflight", 1);

    // Warm mode keeps one continuously-warmed state for the whole
    // traversal; each point receives a snapshot of it.
    let mut warm = matches!(mode, WarmupMode::Warmed)
        .then(|| (MemoryHierarchy::new(config), BranchUnit::new(&config.predictor)));

    for (i, p) in plan.points().iter().enumerate() {
        let _span = mlpa_obs::span_labeled("core.plan.point", &format!("point {i}"));
        let metrics = worker.busy(|| {
            let skip = p.start.saturating_sub(pos);
            let skipped = match &mut warm {
                Some((hier, bu)) => {
                    func.fast_forward(&mut stream, skip, &mut (), Warming::Warm, Some((hier, bu)))
                }
                None => func.fast_forward(&mut stream, skip, &mut (), Warming::None, None),
            };
            pos += skipped;
            cost.functional_insts += skipped;

            let m = match &mut warm {
                Some((hier, bu)) => {
                    // The detailed simulator runs on a fork of the stream
                    // with a snapshot of the warm state, while the primary
                    // stream warms functionally *through* the point region —
                    // so the next point's prefix state is a pure functional
                    // warm of [0, start).
                    let mut fork = stream.clone();
                    let mut sim = DetailedSim::with_warm_state(
                        *config,
                        cb.program(),
                        hier.clone(),
                        bu.clone(),
                    );
                    let m = sim.simulate(&mut fork, p.len);
                    let advanced = func.fast_forward(
                        &mut stream,
                        m.instructions,
                        &mut (),
                        Warming::Warm,
                        Some((hier, bu)),
                    );
                    debug_assert_eq!(advanced, m.instructions, "fork and primary stream diverged");
                    m
                }
                None => {
                    let mut sim = DetailedSim::new(*config, cb.program());
                    sim.simulate(&mut stream, p.len)
                }
            };
            pos += m.instructions;
            m
        });
        cost.detailed_insts += metrics.instructions;
        per_point.push(metrics);
    }
    mlpa_obs::gauge_set("core.plan.inflight", 0);

    let estimate = SimMetrics::weighted_estimate(
        plan.points().iter().zip(&per_point).map(|(p, m)| (p.weight, *m)),
    );
    if mlpa_obs::is_enabled() {
        mlpa_obs::add("core.plan.points", plan.len() as u64);
        mlpa_obs::add("core.plan.functional_insts", cost.functional_insts);
        mlpa_obs::add("core.plan.detailed_insts", cost.detailed_insts);
    }
    ExecutionOutcome { estimate, per_point, cost }
}

/// Render a `catch_unwind` payload (the common `&str`/`String` cases).
///
/// Shared by the worker pools that must attach a job label to a
/// propagated panic (the experiment suite in `mlpa-bench`, the
/// `mlpa-serve` job workers). Pass `&*payload`, not `&payload`: a
/// `Box<dyn Any>` is itself `Any`.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Simulate the entire benchmark in detail — the ground truth the
/// paper's Table II deviations are measured against.
pub fn ground_truth(cb: &CompiledBenchmark, config: &MachineConfig) -> SimMetrics {
    let _span = mlpa_obs::span("core.truth.full");
    mlpa_obs::add("core.truth.passes", 1);
    let mut sim = DetailedSim::new(*config, cb.program());
    sim.simulate(&mut WorkloadStream::new(cb), u64::MAX)
}

/// Ground truth measured in segments: one persistent-state detailed
/// pass over the trace, slicing the *statistics* at the cumulative
/// boundaries of `lens`. Microarchitectural state persists across
/// `simulate` calls while statistics reset, and cycles are counted as
/// commit-cycle deltas, so the per-segment metrics sum exactly to the
/// single-pass [`ground_truth`] totals — accuracy attribution gets the
/// per-interval truth without paying a second full pass.
///
/// Each segment runs to the cumulative target, so a segment that
/// overshoots its boundary (blocks are atomic) shortens the next one
/// rather than letting drift accumulate. Segments whose target was
/// already covered, or that start past the end of the trace, come back
/// empty. Instructions past the last boundary are not simulated.
pub fn ground_truth_segmented(
    cb: &CompiledBenchmark,
    config: &MachineConfig,
    lens: &[u64],
) -> Vec<SimMetrics> {
    let _span = mlpa_obs::span("core.truth.segmented");
    mlpa_obs::add("core.truth.passes", 1);
    let mut sim = DetailedSim::new(*config, cb.program());
    let mut stream = WorkloadStream::new(cb);
    let mut pos = 0u64;
    let mut target = 0u64;
    lens.iter()
        .map(|&len| {
            target = target.saturating_add(len);
            let m = sim.simulate(&mut stream, target.saturating_sub(pos));
            pos += m.instructions;
            m
        })
        .collect()
}

/// [`ground_truth`] behind the artifact cache: reuse a stored result
/// when the cache holds one, simulate (and store) otherwise. With
/// `cache = None` this is exactly [`ground_truth`].
pub fn ground_truth_cached(
    cache: Option<&ArtifactCache>,
    cb: &CompiledBenchmark,
    config: &MachineConfig,
) -> SimMetrics {
    let key = cache.map(|_| CacheKey::new().field("spec", cb.spec()).field("config", config));
    if let (Some(c), Some(k)) = (cache, &key) {
        if let Some(m) = c.get::<SimMetrics>(k) {
            return m;
        }
    }
    let m = ground_truth(cb, config);
    if let (Some(c), Some(k)) = (cache, &key) {
        c.put(k, &m);
    }
    m
}

/// [`ground_truth_segmented`] behind the artifact cache. The segment
/// boundaries are part of the key, so the same benchmark measured with
/// different `lens` gets distinct entries.
pub fn ground_truth_segmented_cached(
    cache: Option<&ArtifactCache>,
    cb: &CompiledBenchmark,
    config: &MachineConfig,
    lens: &[u64],
) -> Vec<SimMetrics> {
    let key = cache.map(|_| {
        CacheKey::new().field("spec", cb.spec()).field("config", config).field("lens", &lens)
    });
    if let (Some(c), Some(k)) = (cache, &key) {
        if let Some(ms) = c.get::<Vec<SimMetrics>>(k) {
            return ms;
        }
    }
    let ms = ground_truth_segmented(cb, config, lens);
    if let (Some(c), Some(k)) = (cache, &key) {
        c.put(k, &ms);
    }
    ms
}

/// [`execute_plan`] behind the artifact cache. The key covers the
/// benchmark, machine config, warmup mode, and the full plan contents.
pub fn execute_plan_cached(
    cache: Option<&ArtifactCache>,
    cb: &CompiledBenchmark,
    config: &MachineConfig,
    plan: &SimulationPlan,
    mode: WarmupMode,
) -> ExecutionOutcome {
    let key = cache.map(|_| {
        CacheKey::new()
            .field("spec", cb.spec())
            .field("config", config)
            .field("mode", &mode)
            .field("plan", plan)
    });
    if let (Some(c), Some(k)) = (cache, &key) {
        if let Some(out) = c.get::<ExecutionOutcome>(k) {
            return out;
        }
    }
    let out = execute_plan(cb, config, plan, mode);
    if let (Some(c), Some(k)) = (cache, &key) {
        c.put(k, &out);
    }
    out
}

/// Execute a plan that did not come from profiling this benchmark in
/// this process — e.g. one loaded via [`crate::files::load`] — after
/// verifying it actually belongs to this trace.
///
/// A plan file records only its `total=` instruction count, so nothing
/// stops it from being replayed against a benchmark whose trace length
/// differs; the weights would then silently misrepresent the program
/// and produce wrong-but-plausible metrics. This entry point measures
/// the stream's real length (one metadata walk — control-flow draws
/// only, no instruction materialisation, see
/// [`crate::pipeline::trace_insts`]) and refuses to execute on a
/// mismatch.
///
/// # Errors
///
/// Returns an error naming both lengths when `plan.total_insts()` does
/// not equal the benchmark's trace length.
pub fn execute_plan_checked(
    cb: &CompiledBenchmark,
    config: &MachineConfig,
    plan: &SimulationPlan,
    mode: WarmupMode,
) -> Result<ExecutionOutcome, String> {
    let actual = crate::pipeline::trace_insts(cb);
    if plan.total_insts() != actual {
        return Err(format!(
            "plan/trace mismatch: plan covers total={} instructions but benchmark {} \
             generates {actual}; this plan belongs to a different benchmark or scale",
            plan.total_insts(),
            cb.spec().name,
        ));
    }
    Ok(execute_plan(cb, config, plan, mode))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanPoint;
    use mlpa_workloads::spec::{BenchmarkSpec, ScriptEntry};

    fn cb() -> CompiledBenchmark {
        // A working set with genuine L2 traffic so the L2 metrics are
        // informative.
        use mlpa_workloads::behavior::{InstMix, MemoryPattern};
        use mlpa_workloads::spec::{BlockSpec, PhaseSpec};
        CompiledBenchmark::compile(&BenchmarkSpec {
            phases: vec![PhaseSpec {
                blocks: vec![
                    BlockSpec {
                        mix: InstMix { load: 0.35, store: 0.1, ..InstMix::default() },
                        mem: MemoryPattern::RandomInSet { working_set: 128 * 1024 },
                        ..BlockSpec::default()
                    },
                    BlockSpec::default(),
                ],
                ..PhaseSpec::default()
            }],
            script: vec![ScriptEntry::new(0, 60_000); 5],
            ..BenchmarkSpec::default()
        })
        .unwrap()
    }

    /// Like [`cb`] but ~6× longer, so whole-run truth is dominated by
    /// steady state rather than the warmup ramp.
    fn long_cb() -> CompiledBenchmark {
        let short = cb();
        CompiledBenchmark::compile(&BenchmarkSpec {
            script: vec![ScriptEntry::new(0, 60_000); 30],
            ..short.spec().clone()
        })
        .unwrap()
    }

    fn plan_of(cb: &CompiledBenchmark, frac: &[(f64, f64, f64)]) -> SimulationPlan {
        // (start_frac, len_frac, weight) over the actual trace length.
        let total = ground_truth_len(cb);
        SimulationPlan::new(
            frac.iter()
                .map(|&(s, l, w)| PlanPoint {
                    start: (total as f64 * s) as u64,
                    len: ((total as f64 * l) as u64).max(1_000),
                    weight: w,
                })
                .collect(),
            total,
        )
        .unwrap()
    }

    fn ground_truth_len(cb: &CompiledBenchmark) -> u64 {
        let mut f = FunctionalSim::new(cb.program());
        f.run(WorkloadStream::new(cb), &mut ()).instructions
    }

    /// Regression (plan/trace mismatch): a plan saved from one
    /// benchmark and loaded via `files::load` carries only `total=` in
    /// its header, so nothing used to stop it from executing against a
    /// benchmark whose trace length differs — silently misweighted,
    /// wrong-but-plausible metrics. The checked entry point must refuse
    /// the pair and accept the matching one.
    #[test]
    fn checked_execution_rejects_plan_from_different_benchmark() {
        let short = cb();
        let long = long_cb();
        let plan = plan_of(&short, &[(0.1, 0.05, 0.5), (0.6, 0.05, 0.5)]);

        // Round-trip through the on-disk format, as a real cross-run
        // reuse would.
        let dir = std::env::temp_dir().join("mlpa-checked-exec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.txt");
        crate::files::save(&plan, &path).unwrap();
        let loaded = crate::files::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let config = MachineConfig::table1_base();
        let err = execute_plan_checked(&long, &config, &loaded, WarmupMode::Warmed)
            .expect_err("mismatched plan accepted");
        assert!(err.contains("mismatch"), "unclear error: {err}");
        assert!(
            err.contains(&loaded.total_insts().to_string()),
            "error must name the plan total: {err}"
        );

        // The matching benchmark executes and agrees with the unchecked
        // path exactly.
        let checked = execute_plan_checked(&short, &config, &loaded, WarmupMode::Warmed)
            .expect("matching plan rejected");
        let unchecked = execute_plan(&short, &config, &loaded, WarmupMode::Warmed);
        assert_eq!(checked, unchecked);
    }

    /// The cached execution wrappers are exact: a warm lookup returns
    /// bit-identical results to the computation that stored it, and
    /// `cache = None` degrades to the plain paths.
    #[test]
    fn cached_wrappers_roundtrip_exactly() {
        let bench = cb();
        let config = MachineConfig::table1_base();
        let plan = plan_of(&bench, &[(0.1, 0.05, 0.5), (0.6, 0.05, 0.5)]);
        let root =
            std::env::temp_dir().join(format!("mlpa-estimate-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = crate::cache::ArtifactCache::open(&root).unwrap();
        let c = Some(&cache);

        let truth_cold = ground_truth_cached(c, &bench, &config);
        let truth_warm = ground_truth_cached(c, &bench, &config);
        assert_eq!(truth_cold, truth_warm);
        assert_eq!(truth_cold, ground_truth_cached(None, &bench, &config));

        let lens = [100_000u64, 100_000, 100_000];
        let seg_cold = ground_truth_segmented_cached(c, &bench, &config, &lens);
        let seg_warm = ground_truth_segmented_cached(c, &bench, &config, &lens);
        assert_eq!(seg_cold, seg_warm);

        let exec_cold = execute_plan_cached(c, &bench, &config, &plan, WarmupMode::Warmed);
        let exec_warm = execute_plan_cached(c, &bench, &config, &plan, WarmupMode::Warmed);
        assert_eq!(exec_cold, exec_warm);
        assert_eq!(exec_cold, execute_plan(&bench, &config, &plan, WarmupMode::Warmed));

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cost_matches_plan_accounting() {
        let cb = cb();
        let plan = plan_of(&cb, &[(0.1, 0.05, 0.5), (0.5, 0.05, 0.5)]);
        let out = execute_plan(&cb, &MachineConfig::table1_base(), &plan, WarmupMode::Cold);
        // Executed counts match the plan's theoretical accounting up to
        // block-boundary overshoot.
        let tol = 500;
        assert!(
            out.cost.detailed_insts.abs_diff(plan.detailed_insts()) < tol,
            "detailed {} vs plan {}",
            out.cost.detailed_insts,
            plan.detailed_insts()
        );
        assert!(
            out.cost.functional_insts.abs_diff(plan.functional_insts()) < tol,
            "functional {} vs plan {}",
            out.cost.functional_insts,
            plan.functional_insts()
        );
        assert_eq!(out.per_point.len(), 2);
    }

    #[test]
    fn single_phase_estimate_tracks_ground_truth() {
        // One phase, homogeneous behaviour: a single decent-sized warmed
        // sample should estimate CPI within a few percent. The benchmark
        // must be long enough that the initial cache-warmup ramp (which
        // a mid-run sample deliberately excludes) is a small share of
        // the whole-run truth.
        let cb = long_cb();
        let truth = ground_truth(&cb, &MachineConfig::table1_base()).estimate();
        let plan = plan_of(&cb, &[(0.3, 0.2, 1.0)]);
        let out = execute_plan(&cb, &MachineConfig::table1_base(), &plan, WarmupMode::Warmed);
        let dev = out.estimate.deviation_from(&truth);
        assert!(dev.cpi < 0.10, "CPI deviation {:.3}", dev.cpi);
        assert!(dev.l1_hit_rate < 0.05, "L1 deviation {:.3}", dev.l1_hit_rate);
    }

    #[test]
    fn warming_reduces_cold_start_bias_on_tiny_points() {
        let cb = cb();
        let truth = ground_truth(&cb, &MachineConfig::table1_base()).estimate();
        // Many tiny points: cold-start bias should be visible.
        let total = ground_truth_len(&cb);
        let tiny: Vec<PlanPoint> = (0..8)
            .map(|i| PlanPoint { start: total / 10 * (i + 1), len: 2_000, weight: 0.125 })
            .collect();
        let plan = SimulationPlan::new(tiny, total).unwrap();
        let cold = execute_plan(&cb, &MachineConfig::table1_base(), &plan, WarmupMode::Cold);
        let warm = execute_plan(&cb, &MachineConfig::table1_base(), &plan, WarmupMode::Warmed);
        let cold_dev = cold.estimate.deviation_from(&truth);
        let warm_dev = warm.estimate.deviation_from(&truth);
        assert!(
            warm_dev.cpi <= cold_dev.cpi + 0.01,
            "warming should not hurt: cold {:.3} warm {:.3}",
            cold_dev.cpi,
            warm_dev.cpi
        );
        assert!(
            warm_dev.l2_hit_rate <= cold_dev.l2_hit_rate + 0.01,
            "L2: cold {:.3} warm {:.3}",
            cold_dev.l2_hit_rate,
            warm_dev.l2_hit_rate
        );
    }

    /// The segmented pass is an exact refinement of the single-pass
    /// truth: summing every per-segment statistic telescopes to the
    /// whole-run result, field for field.
    #[test]
    fn segmented_truth_telescopes_to_ground_truth() {
        let cb = cb();
        let config = MachineConfig::table1_base();
        let whole = ground_truth(&cb, &config);
        let total = ground_truth_len(&cb);
        // Uneven segments plus a catch-all tail past the trace end.
        let lens = [total / 7, total / 3, total / 5, u64::MAX];
        let segs = ground_truth_segmented(&cb, &config, &lens);
        assert_eq!(segs.len(), lens.len());
        let mut sum = SimMetrics::default();
        for s in &segs {
            sum += *s;
        }
        assert_eq!(sum, whole, "segment sums must telescope exactly");
        // Each bounded segment landed at (or just past) its target.
        assert!(segs[0].instructions >= lens[0]);
    }

    /// Segments whose cumulative target is already covered (zero
    /// length, or a trace that ended early) come back empty rather
    /// than stealing instructions from their successors.
    #[test]
    fn segmented_truth_handles_empty_segments() {
        let cb = cb();
        let config = MachineConfig::table1_base();
        let total = ground_truth_len(&cb);
        let segs = ground_truth_segmented(&cb, &config, &[total / 2, 0, u64::MAX, 1_000]);
        assert_eq!(segs[1], SimMetrics::default(), "zero-length segment is empty");
        assert_eq!(segs[3], SimMetrics::default(), "past-the-end segment is empty");
        let sum: u64 = segs.iter().map(|s| s.instructions).sum();
        assert_eq!(sum, ground_truth(&cb, &config).instructions);
    }

    #[test]
    fn ground_truth_is_deterministic() {
        let cb = cb();
        let a = ground_truth(&cb, &MachineConfig::table1_base());
        let b = ground_truth(&cb, &MachineConfig::table1_base());
        assert_eq!(a, b);
    }
}
