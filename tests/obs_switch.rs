//! Observability has one build: every binary links the live registries,
//! and the runtime switch alone decides whether a call records anything.
//! The switch is process-global, so this binary holds a single test.

use mlpa::core::prelude::*;
use mlpa::sim::MachineConfig;
use mlpa::workloads::{suite, CompiledBenchmark};

#[test]
fn runtime_switch_alone_turns_plan_counters_on() {
    let spec = suite::benchmark_with_iters("eon", 1).expect("eon is in the suite").scaled(0.15);
    let cb = CompiledBenchmark::compile(&spec).expect("compiles");
    let plan = coasts(&cb, &CoastsConfig::default()).expect("COASTS selection").plan;
    let config = MachineConfig::table1_base();

    assert!(!mlpa_obs::is_enabled(), "collection starts off");
    let out = execute_plan(&cb, &config, &plan, WarmupMode::Warmed);
    assert_eq!(mlpa_obs::counter_value("core.plan.points"), 0);
    assert!(mlpa_obs::report().phases.is_empty(), "nothing is timed while off");

    mlpa_obs::set_enabled(true);
    let again = execute_plan(&cb, &config, &plan, WarmupMode::Warmed);
    mlpa_obs::set_enabled(false);
    assert_eq!(again, out, "collection must not change the result");
    assert_eq!(mlpa_obs::counter_value("core.plan.points"), plan.len() as u64);
    assert_eq!(mlpa_obs::counter_value("core.plan.functional_insts"), out.cost.functional_insts);
    assert_eq!(mlpa_obs::counter_value("core.plan.detailed_insts"), out.cost.detailed_insts);
    let phases = mlpa_obs::report().phases;
    assert!(phases.iter().any(|p| p.name == "core.plan.execute" && p.count == 1), "{phases:?}");
}
