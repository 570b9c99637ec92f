//! The artifact cache is the only checkpoint granule of a profiling
//! pass. A cached run must equal the uncached run and leave no segment
//! checkpoints behind, whatever `Experiment.shards` says; every span it
//! opens must nest under `bench.benchmark`, because every pass runs on
//! the thread that asked for it; and a store that holds only a cold
//! run's profiling artifacts — a run killed after profiling — must
//! resume to the same result without walking the trace for a profile
//! again. Obs state is process-global, so this binary holds a single
//! test.

use std::fs;
use std::path::{Path, PathBuf};
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

/// The test's stores, removed on drop, panics included.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[test]
fn cached_runs_match_uncached_and_resume_from_profiles() {
    let spec = suite::benchmark_with_iters("eon", 1).expect("eon is in the suite").scaled(0.15);
    let exp = Experiment { suite: [spec].into_iter().collect(), ..Experiment::default() };
    let root =
        Scratch(std::env::temp_dir().join(format!("mlpa-cached-run-{}", std::process::id())));
    let _ = fs::remove_dir_all(&root.0);
    let (cold, profiled) = (root.0.join("cold"), root.0.join("profiled"));
    // `shards` is ignored: a pass is one walk, cached whole.
    let cached = |store: &Path| Experiment {
        shards: 8,
        cache: Some(Arc::new(ArtifactCache::open(store).expect("store opens"))),
        ..exp.clone()
    };
    mlpa_obs::set_enabled(true);

    let uncached = exp.run(|_| {}).expect("uncached run");
    let got = cached(&cold).run(|_| {}).expect("cold cached run");
    assert_same(&got, &uncached, "cold store");
    for kind in ["profile-shard", "boundary-shard"] {
        assert!(!cold.join(kind).exists(), "the cached run left {kind} checkpoints");
    }

    // The state a kill right after profiling leaves: the merged
    // profiling artifacts only (no selection, truth or plan execution).
    for kind in ["loop-profile", "intervals", "boundary"] {
        fs::create_dir_all(profiled.join(kind)).expect("kind dir");
        let mut copied = 0;
        for e in fs::read_dir(cold.join(kind)).unwrap_or_else(|e| panic!("{kind}: {e}")) {
            let name = e.expect("dir entry").file_name();
            if name.to_string_lossy().ends_with(".art") {
                fs::copy(cold.join(kind).join(&name), profiled.join(kind).join(&name))
                    .expect("copy");
                copied += 1;
            }
        }
        assert!(copied > 0, "the cold run cached no {kind}");
    }
    let passes = mlpa_obs::counter_value("core.profile.passes");
    let truths = mlpa_obs::counter_value("core.truth.passes");
    let resumed = cached(&profiled).run(|_| {}).expect("resumed run");
    assert_same(&resumed, &uncached, "profiling artifacts only");
    assert_eq!(
        mlpa_obs::counter_value("core.profile.passes"),
        passes,
        "the resumed run walked the trace again instead of reading its profiles"
    );
    assert!(
        mlpa_obs::counter_value("core.truth.passes") > truths,
        "the resumed run found truth it should have had to compute"
    );

    let profile = mlpa_obs::report().self_profile.expect("spans were recorded");
    mlpa_obs::set_enabled(false);
    let roots: Vec<&str> =
        profile.tree.iter().filter(|e| e.parent.is_none()).map(|e| e.name.as_str()).collect();
    assert!(roots.iter().all(|&r| r == "bench.benchmark"), "root spans: {roots:?}");
}
