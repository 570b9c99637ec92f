//! Property-based integration tests: randomly generated benchmark
//! specifications must uphold the pipeline's invariants end to end.
//!
//! The generators are driven by the workspace's own [`SplitMix64`]
//! (the external `proptest` crate is unavailable in the offline build
//! environment), so every case is reproducible from the case index —
//! a failure message names the case seed to rerun.

use mlpa::isa::rng::SplitMix64;
use mlpa::isa::stream::InstructionStream;
use mlpa::phase::interval::validate_intervals;
use mlpa::prelude::*;
use mlpa::workloads::behavior::{BranchPattern, InstMix, MemoryPattern};
use mlpa::workloads::{
    BenchmarkSpec, BlockSpec, CompiledBenchmark, PhaseSpec, ScriptEntry, WorkloadStream,
};

/// Number of random cases per property (matches the old proptest config).
const CASES: u64 = 12;

/// Generate a small but structurally varied benchmark spec from `rng`.
fn arb_spec(rng: &mut SplitMix64) -> BenchmarkSpec {
    let arb_block = |rng: &mut SplitMix64| {
        let mem = match rng.range_u64(3) {
            0 => MemoryPattern::Strided {
                stride: 1 << (3 + rng.range_u64(5)),
                working_set: 16 * 1024,
            },
            1 => MemoryPattern::RandomInSet { working_set: 1 << (10 + rng.range_u64(12)) },
            _ => MemoryPattern::PointerChase { working_set: 1 << (14 + rng.range_u64(8)) },
        };
        let branch = if rng.chance(0.5) {
            BranchPattern::Biased { p_taken: rng.range_f64(0.0, 1.0) }
        } else {
            BranchPattern::Periodic {
                taken: 1 + rng.range_u64(5) as u16,
                not_taken: 1 + rng.range_u64(3) as u16,
            }
        };
        BlockSpec {
            len: 6 + rng.range_u64(34) as u32,
            weight: rng.range_f64(0.2, 2.0),
            drift_dir: rng.range_f64(-1.0, 1.0),
            mix: InstMix { load: rng.range_f64(0.05, 0.45), store: 0.08, ..InstMix::default() },
            mem,
            branch,
            dep_density: rng.range_f64(0.0, 0.9),
        }
    };

    let arb_phase = |rng: &mut SplitMix64| PhaseSpec {
        name: "p".into(),
        blocks: (0..1 + rng.range_usize(4)).map(|_| arb_block(rng)).collect(),
        inner_iter_insts: 200 + rng.range_u64(1_800),
        drift: rng.range_f64(0.0, 0.6),
        noise: rng.range_f64(0.0, 0.8),
        perf_drift: 0.05,
    };

    let phases: Vec<PhaseSpec> = (0..1 + rng.range_usize(3)).map(|_| arb_phase(rng)).collect();
    let iters = 2 + rng.range_usize(10);
    let iter_insts = 20_000 + rng.range_u64(60_000);
    let nphases = phases.len();
    BenchmarkSpec {
        name: "prop".into(),
        seed: rng.next_u64(),
        init_insts: 2_000,
        tail_insts: 500,
        script: (0..iters).map(|i| ScriptEntry::new(i % nphases, iter_insts)).collect(),
        phases,
    }
}

/// Run `property` against `CASES` generated specs, reporting the failing
/// case seed on panic.
fn check(property: impl Fn(&BenchmarkSpec)) {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x5052_4F50).fork(case);
        let spec = arb_spec(&mut rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| property(&spec)));
        if let Err(e) = result {
            eprintln!("property failed for generated case {case} (spec seed {:#x})", spec.seed);
            std::panic::resume_unwind(e);
        }
    }
}

#[test]
fn generated_traces_are_wellformed() {
    check(|spec| {
        assert!(spec.validate().is_ok());
        let cb = CompiledBenchmark::compile(spec).expect("compiles");
        let mut stream = WorkloadStream::new(&cb);
        let mut buf = Vec::new();
        let mut total = 0u64;
        let mut prev_target: Option<mlpa::isa::BlockId> = None;
        while let Some(id) = stream.next_block(&mut buf) {
            // Successor chaining: previous terminator points here.
            if let Some(t) = prev_target {
                assert_eq!(t, id);
            }
            // Block id valid, instruction count matches the template.
            assert!(id.index() < cb.program().num_blocks());
            assert_eq!(buf.len() as u32, cb.program().block(id).len);
            // Terminator resolved.
            let last = buf.last().expect("non-empty block");
            assert!(last.is_branch());
            prev_target = Some(last.branch.expect("terminator info").target);
            total += buf.len() as u64;
        }
        // Trace length lands near nominal.
        let nominal = spec.nominal_insts() as f64;
        assert!((total as f64) > nominal * 0.4, "trace {} vs nominal {}", total, nominal);
        assert!((total as f64) < nominal * 2.5, "trace {} vs nominal {}", total, nominal);
    });
}

#[test]
fn plans_partition_and_weights_normalise() {
    check(|spec| {
        let cb = CompiledBenchmark::compile(spec).expect("compiles");
        let fine = simpoint_baseline(
            &cb,
            5_000,
            &SimPointConfig::fine_10m(),
            &ProjectionSettings::default(),
        )
        .expect("baseline");
        let ml = multilevel(
            &cb,
            &MultilevelConfig {
                threshold: 20_000,
                fine_interval: 5_000,
                ..MultilevelConfig::default()
            },
        )
        .expect("multilevel");
        for plan in [&fine.plan, &ml.plan, &ml.coasts.plan] {
            // Accounting partitions the trace.
            assert_eq!(
                plan.detailed_insts() + plan.functional_insts() + plan.skipped_insts(),
                plan.total_insts()
            );
            // Weights normalised.
            let w: f64 = plan.points().iter().map(|p| p.weight).sum();
            assert!((w - 1.0).abs() < 1e-6, "weights sum {}", w);
            // Points sorted and disjoint.
            for pair in plan.points().windows(2) {
                assert!(pair[0].end() <= pair[1].start);
            }
        }
    });
}

/// Plan execution is one chained traversal, yet a point's metrics must
/// not depend on the points before it: each equals a standalone replay
/// that fast-forwards (warming, if asked) from the start of the trace
/// straight to the point.
#[test]
fn chained_execution_matches_per_point_replay() {
    use mlpa::sim::{BranchUnit, DetailedSim, FunctionalSim, MachineConfig, MemoryHierarchy};
    check(|spec| {
        let cb = CompiledBenchmark::compile(spec).expect("compiles");
        let ml = multilevel(
            &cb,
            &MultilevelConfig {
                threshold: 20_000,
                fine_interval: 5_000,
                ..MultilevelConfig::default()
            },
        )
        .expect("multilevel");
        let config = MachineConfig::table1_base();
        for mode in [WarmupMode::Cold, WarmupMode::Warmed] {
            let out = execute_plan(&cb, &config, &ml.plan, mode);
            for (p, m) in ml.plan.points().iter().zip(&out.per_point) {
                let mut stream = WorkloadStream::new(&cb);
                let mut func = FunctionalSim::new(cb.program());
                let mut hier = MemoryHierarchy::new(&config);
                let mut bu = BranchUnit::new(&config.predictor);
                let mut sim = match mode {
                    WarmupMode::Cold => {
                        func.fast_forward(&mut stream, p.start, &mut (), None);
                        DetailedSim::new(config, cb.program())
                    }
                    WarmupMode::Warmed => {
                        let warm = Some((&mut hier, &mut bu));
                        func.fast_forward(&mut stream, p.start, &mut (), warm);
                        DetailedSim::with_warm_state(config, cb.program(), hier, bu)
                    }
                };
                assert_eq!(*m, sim.simulate(&mut stream, p.len), "mode {mode:?} at {}", p.start);
            }
        }
    });
}

#[test]
fn coarse_intervals_tile_the_trace() {
    check(|spec| {
        let cb = CompiledBenchmark::compile(spec).expect("compiles");
        let co = coasts(&cb, &CoastsConfig::default()).expect("coasts");
        assert!(validate_intervals(&co.intervals).is_ok());
        let sum: u64 = co.intervals.iter().map(|iv| iv.len).sum();
        assert_eq!(sum, co.plan.total_insts());
        // Selected points are whole intervals.
        for p in co.plan.points() {
            assert!(
                co.intervals.iter().any(|iv| iv.start == p.start && iv.len == p.len),
                "point at {} is not an interval",
                p.start
            );
        }
    });
}
