//! `Experiment::run` runs each benchmark's two Table I configs as
//! lanes, on a spare core when the host has one. Whatever the core
//! count, its result must equal, field by field, a serial replay of the
//! public calls it is made of.

use mlpa::core::prelude::*;
use mlpa::core::{attribute_segments, ground_truth_segmented};
use mlpa::sim::SimMetrics;
use mlpa::workloads::{suite, CompiledBenchmark};
use mlpa_bench::harness::Experiment;

#[test]
fn run_equals_a_serial_replay_of_its_public_calls() {
    let spec = suite::benchmark_with_iters("eon", 1).expect("eon is in the suite").scaled(0.15);
    let exp = Experiment { suite: [spec.clone()].into_iter().collect(), ..Experiment::default() };
    let run = exp.run(|_| {}).expect("eon runs");
    let got = &run[0];

    let cb = CompiledBenchmark::compile(&spec).expect("compiles");
    let mut ctx = ProfilingContext::new(&cb, exp.coasts.projection, exp.fine_interval);
    ctx.prepare();
    let fine = simpoint_baseline_with(&mut ctx, &exp.fine).expect("fine selection");
    let co = coasts_with(&mut ctx, &exp.coasts).expect("COASTS selection");
    let ml = multilevel_with(&mut ctx, &exp.multilevel).expect("multi-level selection");
    let plans = [&fine.plan, &co.plan, &ml.plan];

    let lens: Vec<u64> = co.intervals.iter().map(|iv| iv.len).collect();
    let segments = exp.configs.each_ref().map(|config| ground_truth_segmented(&cb, config, &lens));
    let truths = segments.each_ref().map(|segs| {
        let mut whole = SimMetrics::default();
        for s in segs {
            whole += *s;
        }
        whole.estimate()
    });
    let outcomes = exp
        .configs
        .each_ref()
        .map(|config| plans.map(|plan| execute_plan(&cb, config, plan, exp.warmup)));
    let attribution = attribute_segments(&spec.name, &co, &outcomes[0][1], &segments[0]);
    // The coarse intervals tile the trace, so segments add up exactly
    // to one whole-run pass.
    assert_eq!(truths[1], ground_truth(&cb, &exp.configs[1]).estimate());

    assert_eq!(got.name, spec.name);
    assert_eq!(got.total_insts, fine.plan.total_insts());
    assert_eq!(got.truths, truths);
    for (mi, m) in got.methods.iter().enumerate() {
        assert_eq!(&m.plan, plans[mi], "method {mi}");
        for ci in 0..2 {
            let est = outcomes[ci][mi].estimate;
            assert_eq!(m.estimates[ci], est, "method {mi}, config {ci}");
            assert_eq!(
                m.deviations[ci],
                est.deviation_from(&truths[ci]),
                "method {mi}, config {ci}"
            );
        }
        assert_eq!(m.points, plans[mi].len());
        assert_eq!(m.mean_interval, plans[mi].mean_point_len());
    }
    assert_eq!(got.coarse_k, co.simpoints.k);
    assert_eq!(got.coarse_last_position, co.plan.last_position());
    assert_eq!(got.fine_k, fine.simpoints.k);
    assert_eq!(got.attribution, attribution);
}
