//! Context-level profiling integration: every `ProfilingContext`
//! product — prepared eagerly or through the lazy getters — must be
//! **bit-identical** to the `mlpa-phase` reference observers riding a
//! materialising functional run, and multi-level's window re-profile
//! to a `fast_forward` + `FixedLengthProfiler` replay. A pass is one
//! metadata walk whatever segment count `set_shards` is given: the
//! call is a no-op kept for `benchmark/`, which passes 8.

use mlpa_core::pipeline::{ProfilingContext, ProjectionSettings, FINE_INTERVAL};
use mlpa_core::prelude::*;
use mlpa_phase::interval::{BoundaryProfiler, FixedLengthProfiler, Interval};
use mlpa_phase::loops::{LoopMonitor, LoopProfile};
use mlpa_phase::simpoint::select;
use mlpa_sim::FunctionalSim;
use mlpa_workloads::spec::{BenchmarkSpec, PhaseSpec, ScriptEntry};
use mlpa_workloads::{CompiledBenchmark, WorkloadStream};

fn two_phase_cb() -> CompiledBenchmark {
    let spec = BenchmarkSpec {
        phases: vec![
            PhaseSpec { name: "a".into(), ..PhaseSpec::default() },
            PhaseSpec { name: "b".into(), ..PhaseSpec::default() },
        ],
        script: (0..8).map(|i| ScriptEntry::new(i % 2, 500_000)).collect(),
        ..BenchmarkSpec::default()
    };
    CompiledBenchmark::compile(&spec).unwrap()
}

type Profiles = (LoopProfile, Vec<Interval>, Vec<Interval>, bool);

/// The reference: the `mlpa-phase` observers riding one materialising
/// functional run, independent of the context's metadata walk.
fn reference(cb: &CompiledBenchmark) -> Profiles {
    let proj = ProjectionSettings::default().build(cb);
    let mut monitor = LoopMonitor::new(cb.program());
    let mut fine = FixedLengthProfiler::new(&proj, FINE_INTERVAL);
    let mut boundary = BoundaryProfiler::new(&proj, cb.outer_header());
    FunctionalSim::new(cb.program())
        .run(WorkloadStream::new(cb), &mut (&mut monitor, (&mut fine, &mut boundary)));
    let prologue = boundary.has_prologue();
    (monitor.finish(), fine.finish(), boundary.finish(), prologue)
}

/// A context's products; without `prepare` the lazy getters run the
/// passes, boundary pass first.
fn profiles_with(cb: &CompiledBenchmark, shards: usize, prepare: bool) -> Profiles {
    let mut ctx = ProfilingContext::new(cb, ProjectionSettings::default(), FINE_INTERVAL);
    ctx.set_shards(shards);
    if prepare {
        ctx.prepare();
    }
    let (biv, prologue) = ctx.boundary_intervals(cb.outer_header());
    let biv = biv.to_vec();
    let profile = ctx.loop_profile().clone();
    let fine = ctx.fine_intervals().to_vec();
    (profile, fine, biv, prologue)
}

#[test]
fn every_segment_count_matches_the_reference_observers() {
    let cb = two_phase_cb();
    let want = reference(&cb);
    // Prepared or lazy, with the no-op segment count at its default or
    // at `benchmark/`'s 8, the context reproduces the reference
    // bit-for-bit.
    for shards in [1, 8] {
        for prepare in [true, false] {
            let got = profiles_with(&cb, shards, prepare);
            assert!(got == want, "shards={shards} (prepare={prepare}) diverged from the reference");
        }
    }
}

/// Multi-level's window re-profile matches the reference: a
/// functional fast-forward to each coarse point, then the fine
/// profiler over the window.
#[test]
fn multilevel_windows_match_the_reference_observers() {
    let cb = two_phase_cb();
    let cfg = MultilevelConfig { threshold: 0, ..MultilevelConfig::default() };
    let out = multilevel(&cb, &cfg).unwrap();
    let proj = cfg.coasts.projection.build(&cb);
    let mut stream = WorkloadStream::new(&cb);
    let mut func = FunctionalSim::new(cb.program());
    let mut pos = 0u64;
    let mut want = Vec::new();
    for cp in out.coasts.plan.points() {
        let skip = cp.start.saturating_sub(pos);
        pos += func.fast_forward(&mut stream, skip, &mut ());
        let mut prof = FixedLengthProfiler::new(&proj, cfg.fine_interval);
        pos += func.fast_forward(&mut stream, cp.len, &mut prof);
        let intervals = prof.finish();
        let body = if intervals.len() >= 2 { &intervals[1..] } else { &intervals[..] };
        want.push(select(body, &cfg.fine));
    }
    let got: Vec<_> = out.resampled.into_iter().map(|r| r.fine).collect();
    assert!(got == want, "multi-level windows diverged from the reference");
}
