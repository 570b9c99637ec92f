//! `Experiment.shards` sets only how often a profiling pass is
//! checkpointed. A sharded, cached run must equal the single-segment
//! uncached run; every span it opens must nest under `bench.benchmark`,
//! because every segment runs on the thread that asked for it; and a
//! store that lost half of its profiling checkpoints must resume to the
//! same result, reading the checkpoints that are left. Obs state is
//! process-global, so this binary holds a single test.

use std::fs;
use std::path::Path;
use std::sync::Arc;

use mlpa::core::ArtifactCache;
use mlpa::workloads::suite;
use mlpa_bench::harness::{BenchResult, Experiment};

/// Every field of `got` equals `want`'s, wall-clock `elapsed` aside.
fn assert_same(got: &[BenchResult], want: &[BenchResult], run: &str) {
    assert_eq!(got.len(), want.len(), "{run}");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.name, w.name, "{run}");
        assert_eq!(g.total_insts, w.total_insts, "{run}");
        assert_eq!(g.truths, w.truths, "{run}");
        assert_eq!(g.methods, w.methods, "{run}");
        assert_eq!(g.coarse_k, w.coarse_k, "{run}");
        assert_eq!(g.coarse_last_position, w.coarse_last_position, "{run}");
        assert_eq!(g.fine_k, w.fine_k, "{run}");
        assert_eq!(g.attribution, w.attribution, "{run}");
    }
}

/// The `*.art` entries of one artifact kind in `store`, sorted.
fn entries(store: &Path, kind: &str) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(store.join(kind))
        .unwrap_or_else(|e| panic!("{kind} in {}: {e}", store.display()))
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".art"))
        .collect();
    names.sort();
    names
}

#[test]
fn sharded_cached_runs_match_one_segment_and_resume() {
    let spec = suite::benchmark_with_iters("eon", 1).expect("eon is in the suite").scaled(0.15);
    let exp = Experiment { suite: [spec].into_iter().collect(), ..Experiment::default() };
    let root = std::env::temp_dir().join(format!("mlpa-sharded-run-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let (cold, killed) = (root.join("cold"), root.join("killed"));
    let sharded = |store: &Path| Experiment {
        shards: 8,
        cache: Some(Arc::new(ArtifactCache::open(store).expect("store opens"))),
        ..exp.clone()
    };
    mlpa_obs::set_enabled(true);

    let mono = exp.run(|_| {}).expect("one segment runs");
    let got = sharded(&cold).run(|_| {}).expect("eight segments run");
    assert_same(&got, &mono, "8 segments, cold store");

    // The deterministic mid-profiling kill state: only the cold run's
    // segment checkpoints (no merged profile, no selection, truth or
    // plan execution), with half of the combined pass's segments gone.
    for kind in ["profile-shard", "boundary-shard"] {
        let names = entries(&cold, kind);
        assert_eq!(names.len(), 8, "one {kind} checkpoint per segment");
        fs::create_dir_all(killed.join(kind)).expect("kind dir");
        for n in &names {
            fs::copy(cold.join(kind).join(n), killed.join(kind).join(n)).expect("copy");
        }
    }
    for n in &entries(&killed, "profile-shard")[..4] {
        fs::remove_file(killed.join("profile-shard").join(n)).expect("delete a checkpoint");
    }
    let resumes = mlpa_obs::counter_value("core.profile.shard_resumes");
    let resumed = sharded(&killed).run(|_| {}).expect("resumed run");
    assert_same(&resumed, &mono, "8 segments, resumed store");
    assert!(
        mlpa_obs::counter_value("core.profile.shard_resumes") > resumes,
        "the resumed run re-profiled every segment instead of reading its checkpoints"
    );

    let profile = mlpa_obs::report().self_profile.expect("spans were recorded");
    mlpa_obs::set_enabled(false);
    let roots: Vec<&str> =
        profile.tree.iter().filter(|e| e.parent.is_none()).map(|e| e.name.as_str()).collect();
    assert!(roots.iter().all(|&r| r == "bench.benchmark"), "root spans: {roots:?}");
    let _ = fs::remove_dir_all(&root);
}
