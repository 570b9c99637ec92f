#![warn(missing_docs)]

//! Multi-level phase analysis for sampling simulation — the primary
//! contribution of the DATE 2013 paper, reproduced as a Rust library.
//!
//! The library turns a benchmark into an *executable sampling plan* and
//! executes it, three ways:
//!
//! | Method | Builder | Granularity | Selection |
//! |---|---|---|---|
//! | SimPoint baseline | [`pipeline::simpoint_baseline`] | fixed 10 k (≙ 10 M) intervals, `Kmax = 30` | closest to centroid |
//! | COASTS | [`coasts::coasts`] | outer-loop iterations, `Kmax = 3` | **earliest instance** |
//! | Multi-level | [`multilevel::multilevel`] | COASTS, then fine re-sampling of points > 300 k (≙ 300 M) | composed |
//!
//! A [`plan::SimulationPlan`] carries the Table III accounting (detail
//! %, functional %, point count, last-point position);
//! [`estimate::execute_plan`] runs it against a
//! [`MachineConfig`](mlpa_sim::MachineConfig) for the Table II accuracy
//! comparison; [`timing::CostModel`] turns plan accounting into the
//! Fig. 3/4 speedups.
//!
//! # Example: the whole paper in ten lines
//!
//! ```
//! use mlpa_core::prelude::*;
//! use mlpa_workloads::{suite, CompiledBenchmark};
//!
//! let spec = suite::benchmark("lucas").unwrap().scaled(0.05);
//! let cb = CompiledBenchmark::compile(&spec)?;
//! let baseline = simpoint_baseline(&cb, FINE_INTERVAL, &SimPointConfig::fine_10m(),
//!     &ProjectionSettings::default())?;
//! let multi = multilevel(&cb, &MultilevelConfig::default())?;
//! let speedup = CostModel::paper_implied().speedup(&baseline.plan, &multi.plan);
//! assert!(speedup > 1.0, "multi-level beats SimPoint, got {speedup:.2}x");
//! # Ok::<(), String>(())
//! ```

pub mod artifact;
pub mod attribution;
pub mod cache;
pub mod coasts;
pub mod estimate;
pub mod files;
pub mod multilevel;
pub mod pipeline;
pub mod plan;
pub mod serve;
pub mod stats;
pub mod systematic;
pub mod timing;

pub use artifact::Artifact;
pub use attribution::{
    attribute_segments, render_attribution_json, render_report, AccuracyAttribution,
    PhaseAttribution,
};
pub use cache::{atomic_write, ArtifactCache, CacheKey, FlightRole, Singleflight, CACHE_SCHEMA};
pub use coasts::{coasts, coasts_with, CoastsConfig, CoastsOutcome};
pub use estimate::{
    execute_plan, execute_plan_checked, ground_truth, ground_truth_segmented, panic_message,
    truth_and_plans, truth_and_plans_cached, ExecutionCost, ExecutionOutcome, WarmupMode,
};
pub use multilevel::{multilevel, multilevel_with, MultilevelConfig, MultilevelOutcome};
pub use pipeline::{
    plan_from_points, simpoint_baseline, simpoint_baseline_with, trace_insts, FineOutcome,
    ProfilingContext, ProjectionSettings, ShardDriver, FINE_INTERVAL, RESAMPLE_THRESHOLD,
};
pub use plan::{PlanPoint, SimulationPlan};
pub use timing::CostModel;

#[cfg(test)]
pub(crate) mod testobs {
    //! Shared scaffolding for tests that assert on obs counters.
    //!
    //! Counters are process-global and no-ops until `mlpa_obs::init`
    //! runs, while the test harness runs tests in parallel: the first
    //! lock acquisition initialises obs, and the lock itself keeps any
    //! counter-bumping test (cache use, serve daemons) out of another
    //! test's delta-measurement window.
    use std::sync::{Mutex, MutexGuard, Once, PoisonError};

    static COUNTER_LOCK: Mutex<()> = Mutex::new(());
    static INIT: Once = Once::new();

    pub(crate) fn counter_lock() -> MutexGuard<'static, ()> {
        INIT.call_once(|| {
            mlpa_obs::init(&mlpa_obs::ObsConfig { enabled: true, sink: None, sample_ms: None })
                .expect("obs init for counter tests");
        });
        COUNTER_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
pub(crate) mod testdir {
    //! A scratch directory per test and process, removed on drop, panics
    //! included: concurrent test runs never share one, and none is left
    //! behind.
    use std::path::{Path, PathBuf};

    pub(crate) struct TempDir(PathBuf);

    impl TempDir {
        pub(crate) fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!("mlpa-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("scratch dir");
            TempDir(dir)
        }

        pub(crate) fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// Convenience re-exports for the common workflow.
pub mod prelude {
    pub use crate::coasts::{coasts, coasts_with, CoastsConfig};
    pub use crate::estimate::{execute_plan, ground_truth, WarmupMode};
    pub use crate::multilevel::{multilevel, multilevel_with, MultilevelConfig};
    pub use crate::pipeline::{
        simpoint_baseline, simpoint_baseline_with, ProfilingContext, ProjectionSettings,
        ShardDriver, FINE_INTERVAL, RESAMPLE_THRESHOLD,
    };
    pub use crate::plan::SimulationPlan;
    pub use crate::stats::{geometric_mean, mean, worst};
    pub use crate::timing::CostModel;
    pub use mlpa_phase::simpoint::SimPointConfig;
}
