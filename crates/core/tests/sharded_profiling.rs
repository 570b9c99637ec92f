//! Context-level sharding integration: `ProfilingContext` must produce
//! **bit-identical** profiles, selections, and estimates for every
//! segment count and driver — one segment included — matching the
//! `mlpa-phase` reference observers over a materialising functional
//! run, and per-shard artifacts in the cache must let a killed run
//! resume without re-profiling completed segments.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use mlpa_core::artifact::ProfileShardArtifact;
use mlpa_core::cache::{ArtifactCache, CacheKey};
use mlpa_core::pipeline::{ProfilingContext, ProjectionSettings, ShardDriver, FINE_INTERVAL};
use mlpa_core::prelude::*;
use mlpa_phase::interval::{BoundaryProfiler, FixedLengthProfiler, Interval};
use mlpa_phase::loops::{LoopMonitor, LoopProfile};
use mlpa_phase::simpoint::select;
use mlpa_sim::functional::Warming;
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

fn tmp_root(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mlpa-shard-profiling-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

type Profiles = (LoopProfile, Vec<Interval>, Vec<Interval>, bool);

/// The reference: the `mlpa-phase` observers riding one materialising
/// functional run, independent of the context's segment drivers.
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
fn profiles_with(
    cb: &CompiledBenchmark,
    shards: usize,
    driver: ShardDriver,
    cache: Option<Arc<ArtifactCache>>,
    prepare: bool,
) -> Profiles {
    let mut ctx = ProfilingContext::new(cb, ProjectionSettings::default(), FINE_INTERVAL);
    ctx.set_shards(shards);
    ctx.set_shard_driver(driver);
    if let Some(c) = cache {
        ctx.set_cache(c);
    }
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
    // Scheduling is a wall-clock knob only: every shard count under
    // every driver, prepared or lazy, reproduces the reference
    // bit-for-bit.
    for driver in [ShardDriver::Chained, ShardDriver::Threaded] {
        for shards in [1, 2, 3, 5, 8] {
            for prepare in [true, false] {
                let got = profiles_with(&cb, shards, driver, None, prepare);
                assert!(
                    got == want,
                    "shards={shards} ({driver:?}, prepare={prepare}) diverged from the reference"
                );
            }
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
        pos += func.fast_forward(&mut stream, skip, &mut (), Warming::None, None);
        let mut prof = FixedLengthProfiler::new(&proj, cfg.fine_interval);
        pos += func.fast_forward(&mut stream, cp.len, &mut prof, Warming::None, None);
        let intervals = prof.finish();
        let body = if intervals.len() >= 2 { &intervals[1..] } else { &intervals[..] };
        want.push(select(body, &cfg.fine));
    }
    let got: Vec<_> = out.resampled.into_iter().map(|r| r.fine).collect();
    assert!(got == want, "multi-level windows diverged from the reference");
}

#[test]
fn sharded_context_flows_through_full_pipeline_identically() {
    let cb = two_phase_cb();
    let mcfg = MultilevelConfig::default();
    let run = |shards: usize| {
        let mut ctx = ProfilingContext::new(&cb, mcfg.coasts.projection, mcfg.fine_interval);
        ctx.set_shards(shards);
        ctx.prepare();
        let fine = simpoint_baseline_with(&mut ctx, &SimPointConfig::fine_10m()).unwrap();
        let co = coasts_with(&mut ctx, &mcfg.coasts).unwrap();
        let multi = multilevel_with(&mut ctx, &mcfg).unwrap();
        (fine, co, multi)
    };
    assert_eq!(run(8), run(1), "downstream selection must not see the shard count");
}

/// Reconstructs the private per-shard cache key (the key material is
/// the public contract pinned here; if this breaks, bump the cache
/// schema).
fn shard0_key(cb: &CompiledBenchmark, shards: usize) -> CacheKey {
    CacheKey::new()
        .field("spec", cb.spec())
        .field("projection", &ProjectionSettings::default())
        .field("interval", &FINE_INTERVAL)
        .field("shards", &shards)
        .field("shard", &0usize)
}

#[test]
fn shard_artifacts_resume_an_interrupted_run() {
    let cb = two_phase_cb();
    let shards = 4;
    let root = tmp_root("resume");
    let cache = Arc::new(ArtifactCache::open(&root).unwrap());

    // Cold run under the threaded driver; the resumed runs below use
    // the chained driver — per-shard artifacts are driver-agnostic.
    let pristine = profiles_with(&cb, shards, ShardDriver::Threaded, Some(cache.clone()), true);

    // The cold run deposited one artifact per shard.
    for kind in ["profile-shard", "boundary-shard"] {
        let n = fs::read_dir(root.join(kind)).unwrap().count();
        assert_eq!(n, shards, "expected {shards} {kind} artifacts");
    }

    // Simulate a crash after the shards completed but before the merge
    // landed: drop the merged artifacts, keep the per-shard ones.
    let drop_merged = || {
        for kind in ["loop-profile", "intervals", "boundary"] {
            let _ = fs::remove_dir_all(root.join(kind));
        }
    };

    // Prove the resumed run *consumes* the cached shards rather than
    // silently re-profiling: tamper with shard 0 (valid encoding, wrong
    // tallies) and observe the merge change.
    let key = shard0_key(&cb, shards);
    let original: ProfileShardArtifact = cache.get(&key).expect("shard 0 artifact");
    let mut tampered = original.clone();
    tampered.loops.total_insts += 1_000_000;
    cache.put(&key, &tampered);
    drop_merged();
    let poisoned = profiles_with(&cb, shards, ShardDriver::Chained, Some(cache.clone()), true);
    assert_ne!(poisoned.0, pristine.0, "resume must read the cached shard artifacts");

    // With the real artifact restored, resume reproduces the cold run
    // bit-for-bit.
    cache.put(&key, &original);
    drop_merged();
    let resumed = profiles_with(&cb, shards, ShardDriver::Chained, Some(cache.clone()), true);
    assert_eq!(resumed, pristine, "resumed run must match the uninterrupted one");

    let _ = fs::remove_dir_all(&root);
}
