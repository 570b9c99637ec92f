//! `reproduce-quick`: a paper reproduction as `mlpa-experiments --quick`
//! runs it — every method under both Table I configs plus ground truth.
//!
//! Ground-truth detailed simulation and k-means/BIC dominate this
//! workload, so a detailed-sim or clustering kernel change shows here.

use std::time::Instant;

use mlpa_bench::harness::{
    geomean_speedup, method_index, BenchResult, Experiment, Method, MethodResult,
};
use mlpa_core::prelude::*;
use mlpa_core::{attribute_segments, ground_truth_segmented, trace_insts};
use mlpa_sim::{MetricDeviation, MetricEstimate, SimMetrics};
use mlpa_workloads::{BenchmarkSpec, CompiledBenchmark};

use crate::golden::Canon;
use crate::inputs::vary;
use crate::trace::Tracer;
use crate::{Round, Workload, PLAN_SPANS};

/// eon, of the CI smoke pair (eon, twolf): the quick suite's shortest
/// program, so a run holds about ten rounds. Its layer mix is the
/// pair's: truth, k-means/BIC, plans, profiling, in that order.
const PROGRAMS: [&str; 1] = ["eon"];

pub struct Reproduce {
    exp: Experiment,
    /// Trace length of each program, measured at set-up.
    trace_lens: Vec<u64>,
}

/// Build the experiment and measure each program's trace length, which
/// every plan must cover.
pub fn setup(variant: u64) -> Result<Reproduce, String> {
    let quick = Experiment::quick().select(&PROGRAMS);
    let suite = quick.suite.iter().map(|s| vary(s.clone(), variant)).collect();
    let exp = Experiment { suite, jobs: 1, shards: 1, cache: None, ..quick };
    let trace_lens = exp
        .suite
        .iter()
        .map(|s| CompiledBenchmark::compile(s).map(|cb| trace_insts(&cb)))
        .collect::<Result<_, _>>()?;
    Ok(Reproduce { exp, trace_lens })
}

impl Workload for Reproduce {
    /// Untraced rounds go through `Experiment::run`, the entry point a
    /// user calls. That is one call, so traced rounds replay its
    /// sequence of public calls instead; both must give the same digest.
    fn round(self: Box<Self>, t: &mut Tracer) -> Result<Round, String> {
        let t0 = Instant::now();
        let results = if t.enabled() {
            t.span("pipeline", |t| {
                self.exp
                    .suite
                    .iter()
                    .map(|spec| t.span("benchmark", |t| replay(&self.exp, spec, t)))
                    .collect::<Result<Vec<_>, String>>()
            })?
        } else {
            self.exp.run(|_| {})?
        };
        let secs = t0.elapsed().as_secs_f64();

        let mut canon = Canon::default();
        for (r, &len) in results.iter().zip(&self.trace_lens) {
            if r.methods.iter().any(|m| m.plan.total_insts() != len) {
                return Err(format!(
                    "{}: a plan does not cover the {len}-instruction trace",
                    r.name
                ));
            }
            canon.line("benchmark", &r.name).line("total_insts", r.total_insts);
            canon.line("k", (r.fine_k, r.coarse_k)).line("last", r.coarse_last_position);
            canon.estimate("truth_a", &r.truths[0]).estimate("truth_b", &r.truths[1]);
            for m in &r.methods {
                canon.plan("plan", &m.plan);
                for c in 0..2 {
                    canon.estimate("estimate", &m.estimates[c]);
                    canon.deviation("deviation", &m.deviations[c]);
                }
            }
        }
        let ml = method_index(Method::Multilevel);
        let errs: Vec<f64> = results
            .iter()
            .flat_map(|r| r.methods[ml].deviations.iter().map(|d| d.cpi.abs()))
            .collect();
        Ok(Round {
            secs,
            minst: results.iter().map(|r| r.total_insts as f64).sum::<f64>() / 1e6,
            digest: canon.digest(),
            attempted: 1,
            failed: 0,
            samples: Vec::new(),
            quality: vec![
                ("ml_cpi_err_pct", 100.0 * errs.iter().sum::<f64>() / errs.len() as f64),
                (
                    "ml_sim_speedup",
                    geomean_speedup(&results, Method::Multilevel, &CostModel::paper_implied()),
                ),
            ],
        })
    }
}

/// `Experiment::run_benchmark`'s public calls, each in its layer's span.
fn replay(exp: &Experiment, spec: &BenchmarkSpec, t: &mut Tracer) -> Result<BenchResult, String> {
    let t0 = Instant::now();
    let cb = t.span("compile", |_| CompiledBenchmark::compile(spec))?;
    let mut ctx = t.span("profile", |_| {
        let mut ctx = ProfilingContext::new(&cb, exp.coasts.projection, exp.fine_interval);
        ctx.set_shards(exp.shards);
        ctx.prepare();
        ctx
    });
    let fine = t.span("select_fine", |_| simpoint_baseline_with(&mut ctx, &exp.fine))?;
    t.count("fine.intervals", fine.simpoints.num_intervals as f64);
    let co = t.span("select_coasts", |_| coasts_with(&mut ctx, &exp.coasts))?;
    let ml = t.span("select_multilevel", |_| multilevel_with(&mut ctx, &exp.multilevel))?;

    let lens: Vec<u64> = co.intervals.iter().map(|iv| iv.len).collect();
    let mut segments_a: Vec<SimMetrics> = Vec::new();
    let mut coasts_a = None;
    let mut truths = Vec::new();
    let mut rows: [Vec<(MetricEstimate, MetricDeviation)>; 3] = Default::default();
    for (ci, config) in exp.configs.iter().enumerate() {
        let truth = t.span("truth", |_| {
            if ci == 0 {
                segments_a = ground_truth_segmented(&cb, config, &lens);
                segments_a.iter().fold(SimMetrics::default(), |mut w, s| {
                    w += *s;
                    w
                })
            } else {
                ground_truth(&cb, config)
            }
        });
        t.count("truth.insts", truth.instructions as f64);
        let truth = truth.estimate();
        truths.push(truth);
        for (mi, plan) in [&fine.plan, &co.plan, &ml.plan].into_iter().enumerate() {
            let out = t.span(PLAN_SPANS[mi], |_| execute_plan(&cb, config, plan, exp.warmup));
            t.count("plan.functional_insts", out.cost.functional_insts as f64);
            t.count("plan.detailed_insts", out.cost.detailed_insts as f64);
            rows[mi].push((out.estimate, out.estimate.deviation_from(&truth)));
            if ci == 0 && mi == 1 {
                coasts_a = Some(out);
            }
        }
    }
    let attribution = t.span("attribution", |_| {
        attribute_segments(
            &spec.name,
            &co,
            &coasts_a.expect("COASTS ran under Config A"),
            &segments_a,
        )
    });

    let method = |plan: &SimulationPlan, rows: &[(MetricEstimate, MetricDeviation)]| MethodResult {
        plan: plan.clone(),
        estimates: [rows[0].0, rows[1].0],
        deviations: [rows[0].1, rows[1].1],
        points: plan.len(),
        mean_interval: plan.mean_point_len(),
    };
    Ok(BenchResult {
        name: spec.name.clone(),
        total_insts: fine.plan.total_insts(),
        truths: [truths[0], truths[1]],
        methods: [
            method(&fine.plan, &rows[0]),
            method(&co.plan, &rows[1]),
            method(&ml.plan, &rows[2]),
        ],
        coarse_k: co.simpoints.k,
        coarse_last_position: co.plan.last_position(),
        fine_k: fine.simpoints.k,
        attribution,
        elapsed: t0.elapsed().as_secs_f64(),
    })
}
