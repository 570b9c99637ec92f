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

    let [config_a, config_b] = &exp.configs;
    let lens: Vec<u64> = co.intervals.iter().map(|iv| iv.len).collect();
    let segments = ground_truth_segmented(&cb, config_a, &lens);
    let mut whole_a = SimMetrics::default();
    for s in &segments {
        whole_a += *s;
    }
    let truths = [whole_a.estimate(), ground_truth(&cb, config_b).estimate()];
    let outcomes = [config_a, config_b]
        .map(|config| plans.map(|plan| execute_plan(&cb, config, plan, exp.warmup)));
    let attribution = attribute_segments(&spec.name, &co, &outcomes[0][1], &segments);

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
