//! The ablation and extension tables: one experiment per design choice
//! the paper fixes (coarse `Kmax = 3`, the 300 M re-sample threshold,
//! 15-dim projection, warmed fast-forward, loop-boundary intervals,
//! BBVs, coarse granularity over EarlySP — §II, §V-A) and per extension
//! beyond it (next-line prefetch, a systematic-sampling baseline,
//! longer programs, an in-order core).
//!
//! Every table pins its own program at a reduced size (half size,
//! iteration factor 2 unless the table sweeps it), so the suite options
//! of `mlpa-experiments` do not apply to them, and renders
//! deterministic text. [`TABLES`] maps each name to its function;
//! `mlpa-experiments <name>` writes `<out>/<name>.txt`, and the
//! committed copies live under `results/`.

use mlpa_core::pipeline::{plan_from_points, profile_fixed};
use mlpa_core::prelude::*;
use mlpa_core::systematic::{sampling_error, systematic_plan, SystematicConfig};
use mlpa_core::FineOutcome;
use mlpa_phase::lfv::LfvProfiler;
use mlpa_phase::simpoint::{select, Selection};
use mlpa_phase::wss::WssProfiler;
use mlpa_sim::config::PrefetchPolicy;
use mlpa_sim::{
    FunctionalSim, InOrderSim, MachineConfig, MetricDeviation, MetricEstimate, SimMetrics,
};
use mlpa_workloads::{suite, CompiledBenchmark, WorkloadStream};
use std::fmt::Write as _;

/// A table: its rendered text, or why it could not be computed.
pub type Table = fn() -> Result<String, String>;

/// Every table by name, in `mlpa-experiments ablations` order.
pub const TABLES: [(&str, Table); 11] = [
    ("ablation_kmax", kmax),
    ("ablation_threshold", threshold),
    ("ablation_projection", projection),
    ("ablation_warmup", warmup),
    ("ablation_selection", selection),
    ("ablation_vli", vli),
    ("ablation_metric", metric),
    ("ablation_prefetch", prefetch),
    ("baseline_systematic", systematic),
    ("extension_longer_programs", longer_programs),
    ("extension_core_models", core_models),
];

/// `name` at iteration factor `iters` and half size, compiled.
fn compile(name: &str, iters: usize) -> Result<CompiledBenchmark, String> {
    let spec = suite::benchmark_with_iters(name, iters)
        .ok_or_else(|| format!("unknown benchmark {name}"))?;
    CompiledBenchmark::compile(&spec.scaled(0.5))
}

/// The paper's baseline: 10 M SimPoint at the default projection.
fn fine_baseline(cb: &CompiledBenchmark) -> Result<FineOutcome, String> {
    simpoint_baseline(
        cb,
        FINE_INTERVAL,
        &SimPointConfig::fine_10m(),
        &ProjectionSettings::default(),
    )
}

/// The prologue the tables share: the pinned program compiled, the
/// Table I Part A machine, that machine's ground truth, and the 10 M
/// SimPoint baseline.
struct Prologue {
    cb: CompiledBenchmark,
    config: MachineConfig,
    truth: MetricEstimate,
    baseline: FineOutcome,
}

impl Prologue {
    fn new(name: &str) -> Result<Prologue, String> {
        let cb = compile(name, 2)?;
        let config = MachineConfig::table1_base();
        let truth = ground_truth(&cb, &config).estimate();
        let baseline = fine_baseline(&cb)?;
        Ok(Prologue { cb, config, truth, baseline })
    }

    /// Deviation of `plan`'s warmed estimate from the ground truth.
    fn deviation(&self, plan: &SimulationPlan) -> MetricDeviation {
        execute_plan(&self.cb, &self.config, plan, WarmupMode::Warmed)
            .estimate
            .deviation_from(&self.truth)
    }

    /// `plan`'s speedup over the baseline (paper-implied cost model).
    fn speedup(&self, plan: &SimulationPlan) -> f64 {
        CostModel::paper_implied().speedup(&self.baseline.plan, plan)
    }
}

/// The coarse `Kmax` (the paper fixes it at 3 — what happens at 1..6?):
/// points actually chosen, functional share, CPI deviation, speedup.
fn kmax() -> Result<String, String> {
    let p = Prologue::new("gzip")?;
    let mut out = String::new();
    let _ =
        writeln!(out, "Ablation: coarse Kmax sweep (gzip, reduced size; paper default Kmax = 3)");
    let _ = writeln!(
        out,
        "{:>5} {:>7} {:>11} {:>9} {:>9}",
        "Kmax", "points", "functional%", "dCPI%", "speedup"
    );
    for k_max in 1..=6 {
        let mut cfg = CoastsConfig::default();
        cfg.selection.k_max = k_max;
        let plan = coasts(&p.cb, &cfg)?.plan;
        let _ = writeln!(
            out,
            "{:>5} {:>7} {:>10.2}% {:>8.2}% {:>8.2}x",
            k_max,
            plan.len(),
            plan.functional_fraction() * 100.0,
            p.deviation(&plan).cpi * 100.0,
            p.speedup(&plan)
        );
    }
    Ok(out)
}

/// The multi-level re-sampling threshold (the paper derives 300 M =
/// 10 M × Kmax; scaled here to 300 k): detail share, functional share,
/// CPI deviation, speedup.
fn threshold() -> Result<String, String> {
    let p = Prologue::new("equake")?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation: re-sample threshold sweep (equake, reduced size; paper 300k scaled)"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>7} {:>9} {:>11} {:>9} {:>9}",
        "threshold", "points", "detail%", "functional%", "dCPI%", "speedup"
    );
    for threshold in [0u64, 50_000, 150_000, 300_000, 1_000_000, u64::MAX] {
        let cfg = MultilevelConfig { threshold, ..MultilevelConfig::default() };
        let plan = multilevel(&p.cb, &cfg)?.plan;
        let label = if threshold == u64::MAX {
            "inf".to_owned()
        } else {
            format!("{}k", threshold / 1_000)
        };
        let _ = writeln!(
            out,
            "{:>10} {:>7} {:>8.3}% {:>10.2}% {:>8.2}% {:>8.2}x",
            label,
            plan.len(),
            plan.detail_fraction() * 100.0,
            plan.functional_fraction() * 100.0,
            p.deviation(&plan).cpi * 100.0,
            p.speedup(&plan)
        );
    }
    Ok(out)
}

/// The BBV random-projection dimensionality (SimPoint and the paper use
/// 15): fine phases chosen and the CPI deviation of the SimPoint plan.
fn projection() -> Result<String, String> {
    let p = Prologue::new("vortex")?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation: projection dimension sweep (vortex, reduced size; paper dim = 15)"
    );
    let _ = writeln!(
        out,
        "{:>5} {:>7} {:>9} {:>9} {:>11}",
        "dim", "fine-k", "points", "dCPI%", "functional%"
    );
    for dim in [2usize, 4, 8, 15, 32, 64] {
        let proj = ProjectionSettings { dim, ..ProjectionSettings::default() };
        let fine = simpoint_baseline(&p.cb, FINE_INTERVAL, &SimPointConfig::fine_10m(), &proj)?;
        let _ = writeln!(
            out,
            "{:>5} {:>7} {:>9} {:>8.2}% {:>10.2}%",
            dim,
            fine.simpoints.k,
            fine.plan.len(),
            p.deviation(&fine.plan).cpi * 100.0,
            fine.plan.functional_fraction() * 100.0
        );
    }
    Ok(out)
}

/// Warm vs cold fast-forward. At the 1000× instruction scale-down,
/// cold-starting each point amplifies the cold-cache bias three orders
/// of magnitude beyond the paper's regime, which makes the Table II
/// mechanism visible: fine-grained sampling degrades drastically
/// without warm state while coarse-grained sampling barely moves.
fn warmup() -> Result<String, String> {
    let p = Prologue::new("gap")?;
    let co = coasts(&p.cb, &CoastsConfig::default())?;
    let ml = multilevel(&p.cb, &MultilevelConfig::default())?;
    let mut out = String::new();
    let _ = writeln!(out, "Ablation: warm vs cold fast-forward (gap, reduced size)");
    let _ = writeln!(out, "{:<22} {:>12} {:>12}", "method", "dCPI warm", "dCPI cold");
    for (name, plan) in
        [("10M SimPoint", &p.baseline.plan), ("COASTS", &co.plan), ("Multi-level", &ml.plan)]
    {
        let cold = execute_plan(&p.cb, &p.config, plan, WarmupMode::Cold)
            .estimate
            .deviation_from(&p.truth);
        let _ = writeln!(
            out,
            "{:<22} {:>11.2}% {:>11.2}%",
            name,
            p.deviation(plan).cpi * 100.0,
            cold.cpi * 100.0
        );
    }
    let _ = writeln!(
        out,
        "(cold bias hits small points hardest — the paper's Table II SimPoint L2 column)"
    );
    Ok(out)
}

/// The representative-selection policy at fine granularity. The paper's
/// §II observes that EarlySP (Perelman et al., PACT 2003) "can only
/// reduce some functional simulation time" — unlike COASTS, which
/// changes the *granularity* and collapses it: where the last point
/// lands versus the accuracy paid, for centroid, EarlySP at several
/// tolerances, and earliest-instance selection.
fn selection() -> Result<String, String> {
    let p = Prologue::new("twolf")?;
    let coasts_out = coasts(&p.cb, &CoastsConfig::default())?;
    let mut out = String::new();
    let _ = writeln!(out, "Ablation: selection policy at fine granularity (twolf, reduced size)");
    let _ = writeln!(
        out,
        "{:<22} {:>8} {:>9} {:>11} {:>9} {:>9}",
        "policy", "points", "last-pos%", "functional%", "dCPI%", "speedup"
    );
    let policies = [
        ("centroid (SimPoint)", Selection::Centroid),
        ("EarlySP tol=0.1", Selection::EarlySp { tolerance: 0.1 }),
        ("EarlySP tol=0.5", Selection::EarlySp { tolerance: 0.5 }),
        ("EarlySP tol=2.0", Selection::EarlySp { tolerance: 2.0 }),
        ("earliest", Selection::Earliest),
    ];
    for (name, selection) in policies {
        let cfg = SimPointConfig { selection, ..SimPointConfig::fine_10m() };
        let plan =
            simpoint_baseline(&p.cb, FINE_INTERVAL, &cfg, &ProjectionSettings::default())?.plan;
        let _ = writeln!(
            out,
            "{:<22} {:>8} {:>8.1}% {:>10.2}% {:>8.2}% {:>8.2}x",
            name,
            plan.len(),
            plan.last_position() * 100.0,
            plan.functional_fraction() * 100.0,
            p.deviation(&plan).cpi * 100.0,
            p.speedup(&plan)
        );
    }
    let _ = writeln!(
        out,
        "{:<22} {:>8} {:>8.1}% {:>10.2}%        —  {:>8.2}x   <- granularity, not policy",
        "COASTS (coarse)",
        coasts_out.plan.len(),
        coasts_out.plan.last_position() * 100.0,
        coasts_out.plan.functional_fraction() * 100.0,
        p.speedup(&coasts_out.plan)
    );
    let _ = writeln!(
        out,
        "(the paper's point: even aggressive EarlySP cannot match what coarse granularity buys)"
    );
    Ok(out)
}

/// Variable-length intervals (VLI) versus fixed-length intervals at
/// coarse granularity. The paper's §V-A argues that "the variable
/// length interval only makes the phase boundaries more natural but
/// does not gain performance": real COASTS (loop-iteration VLIs)
/// against a fixed-length coarse sampler with the same `Kmax` and
/// earliest-instance selection.
fn vli() -> Result<String, String> {
    let p = Prologue::new("facerec")?;
    // Mean outer-iteration size — the fixed-length sampler gets the
    // same granularity without the loop-boundary knowledge.
    let script = &p.cb.spec().script;
    let mean_iter = script.iter().map(|e| e.insts).sum::<u64>() / script.len() as u64;

    let mut out = String::new();
    let _ =
        writeln!(out, "Ablation: VLI (loop-boundary) vs fixed-length coarse intervals (facerec)");
    let _ = writeln!(
        out,
        "{:<26} {:>8} {:>9} {:>11} {:>9} {:>9}",
        "variant", "points", "detail%", "functional%", "dCPI%", "speedup"
    );
    let mut row = |variant: &str, plan: &SimulationPlan| {
        let _ = writeln!(
            out,
            "{:<26} {:>8} {:>8.3}% {:>10.2}% {:>8.2}% {:>8.2}x",
            variant,
            plan.len(),
            plan.detail_fraction() * 100.0,
            plan.functional_fraction() * 100.0,
            p.deviation(plan).cpi * 100.0,
            p.speedup(plan)
        );
    };
    row("COASTS (VLI iterations)", &coasts(&p.cb, &CoastsConfig::default())?.plan);
    let proj = ProjectionSettings::default().build(&p.cb);
    for frac in [0.5f64, 1.0, 2.0] {
        let len = ((mean_iter as f64 * frac) as u64).max(10_000);
        let sp = select(&profile_fixed(&p.cb, len, &proj), &SimPointConfig::coasts());
        row(&format!("fixed {frac:.1}x mean-iter"), &plan_from_points(&sp)?);
    }
    let _ = writeln!(
        out,
        "(the paper's §V-A claim: similar cost profiles — granularity matters, boundaries don't)"
    );
    Ok(out)
}

/// The phase metric. The paper (§II, §IV-A) chooses BBVs, citing
/// Dhodapkar & Smith (BBV beats working-set signatures) and Lau et al.
/// (loop frequency vectors nearly match BBV with fewer phases): all
/// three metrics through the identical selection pipeline.
fn metric() -> Result<String, String> {
    let p = Prologue::new("bzip2")?;
    let bbv = profile_fixed(&p.cb, FINE_INTERVAL, &ProjectionSettings::default().build(&p.cb));
    let mut lfv = LfvProfiler::new(p.cb.program(), FINE_INTERVAL);
    FunctionalSim::new(p.cb.program()).run(WorkloadStream::new(&p.cb), &mut lfv);
    let mut wss = WssProfiler::new(FINE_INTERVAL, 32);
    FunctionalSim::new(p.cb.program()).run(WorkloadStream::new(&p.cb), &mut wss);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation: phase metric comparison (bzip2, reduced size; identical selection)"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>7} {:>8} {:>9} {:>9} {:>9}",
        "metric", "dims", "phases", "points", "dCPI%", "dL1%"
    );
    for (name, intervals) in [("BBV", bbv), ("LFV", lfv.finish()), ("WSS", wss.finish())] {
        let sp = select(&intervals, &SimPointConfig::fine_10m());
        let plan = plan_from_points(&sp)?;
        let dev = p.deviation(&plan);
        let _ = writeln!(
            out,
            "{:>6} {:>7} {:>8} {:>9} {:>8.2}% {:>8.2}%",
            name,
            intervals[0].vector.len(),
            sp.k,
            plan.len(),
            dev.cpi * 100.0,
            dev.l1_hit_rate * 100.0
        );
    }
    let _ = writeln!(
        out,
        "(expected, per the paper's citations: BBV most accurate; LFV close with fewer dims;"
    );
    let _ = writeln!(out, " WSS blind to same-data/different-code phase changes)");
    Ok(out)
}

/// A next-line L1D prefetcher (not in Table I — SimpleScalar has none):
/// how much it changes ground truth on a streaming benchmark, and
/// whether a fixed plan stays accurate when the microarchitecture
/// changes under it (it should: plans are BBV-derived).
fn prefetch() -> Result<String, String> {
    let p = Prologue::new("swim")?;
    let ml = multilevel(&p.cb, &MultilevelConfig::default())?;
    let mut with_pf = p.config;
    with_pf.prefetch = PrefetchPolicy::NextLine;
    let mut out = String::new();
    let _ = writeln!(out, "Ablation: next-line L1D prefetch (swim — streaming FP, reduced size)");
    let _ = writeln!(
        out,
        "{:<18} {:>10} {:>8} {:>10} {:>8}",
        "config", "truth CPI", "L1 hit", "est CPI", "dCPI%"
    );
    for (name, config, truth) in [
        ("no prefetch", p.config, p.truth),
        ("next-line", with_pf, ground_truth(&p.cb, &with_pf).estimate()),
    ] {
        let est = execute_plan(&p.cb, &config, &ml.plan, WarmupMode::Warmed).estimate;
        let _ = writeln!(
            out,
            "{:<18} {:>10.3} {:>7.1}% {:>10.3} {:>7.2}%",
            name,
            truth.cpi,
            truth.l1_hit_rate * 100.0,
            est.cpi,
            est.deviation_from(&truth).cpi * 100.0
        );
    }
    let _ = writeln!(
        out,
        "(a streaming benchmark gains substantially from next-line prefetch, and the"
    );
    let _ =
        writeln!(out, " same BBV-derived plan estimates both machines — no re-analysis needed)");
    Ok(out)
}

/// SMARTS-style systematic sampling against the paper's three methods.
/// It is accurate with tiny detail volume, but its units span the whole
/// run, so its functional cost is the worst of all four — the cost
/// COASTS's earliest-instance selection removes.
fn systematic() -> Result<String, String> {
    let p = Prologue::new("crafty")?;
    let sys_cfg = SystematicConfig { unit_len: 1_000, period: 150_000, offset: 75_000 };
    let sys = systematic_plan(p.baseline.plan.total_insts(), &sys_cfg)?;
    let co = coasts(&p.cb, &CoastsConfig::default())?;
    let ml = multilevel(&p.cb, &MultilevelConfig::default())?;
    let mut out = String::new();
    let _ =
        writeln!(out, "Extra baseline: systematic (SMARTS-style) vs the paper's methods (crafty)");
    let _ = writeln!(
        out,
        "{:<22} {:>7} {:>9} {:>11} {:>9} {:>9}",
        "method", "points", "detail%", "functional%", "dCPI%", "speedup"
    );
    for (name, plan) in [
        ("10M SimPoint", &p.baseline.plan),
        ("systematic 1k/150k", &sys),
        ("COASTS", &co.plan),
        ("multi-level", &ml.plan),
    ] {
        let run = execute_plan(&p.cb, &p.config, plan, WarmupMode::Warmed);
        let _ = writeln!(
            out,
            "{:<22} {:>7} {:>8.3}% {:>10.2}% {:>8.2}% {:>8.2}x",
            name,
            plan.len(),
            plan.detail_fraction() * 100.0,
            plan.functional_fraction() * 100.0,
            run.estimate.deviation_from(&p.truth).cpi * 100.0,
            p.speedup(plan)
        );
        if name.starts_with("systematic") {
            let e = sampling_error(&run.per_point);
            let _ = writeln!(
                out,
                "{:<22} CLT ±95% half-width: {:.2}% of mean CPI",
                "",
                e.relative_ci95 * 100.0
            );
        }
    }
    let _ =
        writeln!(out, "(systematic sampling is accurate but pays ~full-run functional cost — the");
    let _ = writeln!(
        out,
        " exact cost structure the paper's coarse-grained earliest-instance selection removes)"
    );
    Ok(out)
}

/// How the speedup scales with program length — the paper's §I
/// motivation ("the simulation time of SPEC2006 becomes about 10×
/// longer than that of SPEC2000"). Multiplying the outer-iteration
/// count (what a longer reference input does to a loop-dominated
/// program) grows fine-grained SimPoint's functional cost with the run,
/// while COASTS and multi-level keep theirs pinned to the early phase
/// instances, so their speedups grow.
fn longer_programs() -> Result<String, String> {
    // One program per iteration factor and no ground truth, so this
    // table compiles and baselines each size itself.
    let model = CostModel::paper_implied();
    let mut out = String::new();
    let _ = writeln!(out, "Extension: speedup vs program length (gzip, iteration factor sweep)");
    let _ = writeln!(
        out,
        "{:>7} {:>9} {:>12} {:>12} {:>10} {:>10}",
        "factor", "insts", "SP func%", "CO func%", "CO speedup", "ML speedup"
    );
    for factor in [1usize, 2, 4, 8] {
        let cb = compile("gzip", factor)?;
        let fine = fine_baseline(&cb)?;
        let co = coasts(&cb, &CoastsConfig::default())?;
        let ml = multilevel(&cb, &MultilevelConfig::default())?;
        let _ = writeln!(
            out,
            "{:>7} {:>8.0}M {:>11.2}% {:>11.2}% {:>9.2}x {:>9.2}x",
            factor,
            fine.plan.total_insts() as f64 / 1e6,
            fine.plan.functional_fraction() * 100.0,
            co.plan.functional_fraction() * 100.0,
            model.speedup(&fine.plan, &co.plan),
            model.speedup(&fine.plan, &ml.plan),
        );
    }
    let _ = writeln!(out, "(coarse methods pin their cost to early instances, so longer programs");
    let _ = writeln!(out, " widen the gap — the paper's SPEC2006 motivation)");
    Ok(out)
}

/// One plan, two cores. Plans are built from BBVs alone, so they are
/// microarchitecture-independent: the same multi-level plan should
/// estimate an out-of-order *and* an in-order core accurately — the
/// property that makes sampling useful for design-space exploration.
fn core_models() -> Result<String, String> {
    let p = Prologue::new("mesa")?;
    let ml = multilevel(&p.cb, &MultilevelConfig::default())?;
    let ooo_est = execute_plan(&p.cb, &p.config, &ml.plan, WarmupMode::Warmed).estimate;
    let io_truth = InOrderSim::new(p.config, p.cb.program())
        .simulate(&mut WorkloadStream::new(&p.cb), u64::MAX);
    let io_est = execute_inorder(&p.cb, &p.config, &ml.plan);
    let mut out = String::new();
    let _ = writeln!(out, "Extension: one multi-level plan estimating two core models (mesa)");
    let _ = writeln!(out, "{:<14} {:>10} {:>10} {:>8}", "core", "truth CPI", "est CPI", "dCPI%");
    for (core, truth, est) in
        [("out-of-order", p.truth, ooo_est), ("in-order", io_truth.estimate(), io_est)]
    {
        let _ = writeln!(
            out,
            "{:<14} {:>10.3} {:>10.3} {:>7.2}%",
            core,
            truth.cpi,
            est.cpi,
            est.deviation_from(&truth).cpi * 100.0
        );
    }
    let _ = writeln!(out, "(the plan was computed once, from BBVs only — no per-core re-analysis)");
    Ok(out)
}

/// Execute a plan on the in-order core with warmed fast-forward (the
/// in-order counterpart of [`execute_plan`]).
fn execute_inorder(
    cb: &CompiledBenchmark,
    config: &MachineConfig,
    plan: &SimulationPlan,
) -> MetricEstimate {
    let mut stream = WorkloadStream::new(cb);
    let mut func = FunctionalSim::new(cb.program());
    let mut sim = InOrderSim::new(*config, cb.program());
    let mut pos = 0u64;
    let mut parts = Vec::new();
    for p in plan.points() {
        let skip = p.start.saturating_sub(pos);
        let (hier, bu) = sim.warm_state_mut();
        pos += func.warm_forward(&mut stream, skip, hier, bu);
        let m = sim.simulate(&mut stream, p.len);
        pos += m.instructions;
        parts.push((p.weight, m));
    }
    SimMetrics::weighted_estimate(parts)
}
