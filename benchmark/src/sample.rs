//! `sample-default`: what a sampling user runs — one program at the
//! suite's default iteration factor, all three selections, then every
//! plan executed under both configs, with no ground truth.
//!
//! Functional warming inside plan execution dominates and detailed
//! simulation is under 1 % of the simulated instructions, so a warming
//! change shows most here and a detailed-sim kernel change should not.

use std::time::Instant;

use mlpa_core::prelude::*;
use mlpa_core::trace_insts;
use mlpa_sim::MachineConfig;
use mlpa_workloads::suite::{benchmark_with_iters, DEFAULT_ITER_FACTOR};
use mlpa_workloads::{BenchmarkSpec, CompiledBenchmark};

use crate::golden::Canon;
use crate::inputs::vary;
use crate::trace::Tracer;
use crate::{Round, Workload, PLAN_SPANS};

const PROGRAM: &str = "eon";
/// Half the nominal length (66 M instructions for eon) keeps a round near
/// 3 s, so a run holds enough rounds for a steady median.
const SCALE: f64 = 0.5;
/// The streaming profiler's segment count, run single-threaded.
const SHARDS: usize = 8;

pub struct Sample {
    spec: BenchmarkSpec,
    trace_len: u64,
}

pub fn setup(variant: u64) -> Result<Sample, String> {
    let spec = benchmark_with_iters(PROGRAM, DEFAULT_ITER_FACTOR)
        .ok_or_else(|| format!("unknown program {PROGRAM}"))?
        .scaled(SCALE);
    let spec = vary(spec, variant);
    let trace_len = trace_insts(&CompiledBenchmark::compile(&spec)?);
    Ok(Sample { spec, trace_len })
}

impl Workload for Sample {
    fn round(self: Box<Self>, t: &mut Tracer) -> Result<Round, String> {
        let t0 = Instant::now();
        let mut canon = Canon::default();
        let speedup = t.span("pipeline", |t| {
            let cb = t.span("compile", |_| CompiledBenchmark::compile(&self.spec))?;
            let mut ctx = t.span("profile", |_| {
                let mut ctx =
                    ProfilingContext::new(&cb, CoastsConfig::default().projection, FINE_INTERVAL);
                ctx.set_shards(SHARDS);
                ctx.set_shard_driver(ShardDriver::Chained);
                ctx.prepare();
                ctx
            });
            let fine = t.span("select_fine", |_| {
                simpoint_baseline_with(&mut ctx, &SimPointConfig::fine_10m())
            })?;
            t.count("fine.intervals", fine.simpoints.num_intervals as f64);
            let co =
                t.span("select_coasts", |_| coasts_with(&mut ctx, &CoastsConfig::default()))?;
            let ml = t.span("select_multilevel", |_| {
                multilevel_with(&mut ctx, &MultilevelConfig::default())
            })?;
            canon.line("k", (fine.simpoints.k, co.simpoints.k));
            let plans = [&fine.plan, &co.plan, &ml.plan];
            for config in [MachineConfig::table1_base(), MachineConfig::table1_sensitivity()] {
                for (mi, plan) in plans.into_iter().enumerate() {
                    if plan.total_insts() != self.trace_len {
                        return Err(format!(
                            "a plan does not cover the {}-instruction trace",
                            self.trace_len
                        ));
                    }
                    let out = t.span(PLAN_SPANS[mi], |_| {
                        execute_plan(&cb, &config, plan, WarmupMode::Warmed)
                    });
                    t.count("plan.functional_insts", out.cost.functional_insts as f64);
                    t.count("plan.detailed_insts", out.cost.detailed_insts as f64);
                    canon.plan("plan", plan).outcome("outcome", &out);
                }
            }
            Ok(CostModel::paper_implied().speedup(&fine.plan, &ml.plan))
        })?;
        Ok(Round {
            secs: t0.elapsed().as_secs_f64(),
            minst: self.trace_len as f64 / 1e6,
            digest: canon.digest(),
            attempted: 1,
            failed: 0,
            samples: Vec::new(),
            quality: vec![("ml_sim_speedup", speedup)],
        })
    }
}
