//! Shared plumbing: projection settings, profiling passes, and the
//! fine-grained (SimPoint-baseline) plan builder.

use std::sync::Arc;

use crate::artifact::BoundaryArtifact;
use crate::cache::{ArtifactCache, CacheKey};
use crate::plan::{PlanPoint, SimulationPlan};
use mlpa_isa::stream::{BlockMeta, InstructionStream};
use mlpa_isa::{BlockId, Instruction};
use mlpa_phase::interval::{BoundaryProfiler, FixedLengthProfiler, Interval};
use mlpa_phase::loops::{LoopProfile, LoopProfiler};
use mlpa_phase::project::RandomProjection;
use mlpa_phase::simpoint::{select, SimPointConfig, SimPoints};
use mlpa_workloads::{CompiledBenchmark, WorkloadStream};

/// The scaled fine-grained interval length: the paper's 10 M
/// instructions at the repo's 1000× scale-down.
pub const FINE_INTERVAL: u64 = 10_000;

/// The scaled multi-level re-sampling threshold: the paper's
/// 10 M × Kmax(30) = 300 M instructions, scaled.
pub const RESAMPLE_THRESHOLD: u64 = 300_000;

/// Random-projection settings shared by all profiling passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProjectionSettings {
    /// Output dimensionality (SimPoint uses 15).
    pub dim: usize,
    /// Seed of the projection matrix.
    pub seed: u64,
}

impl Default for ProjectionSettings {
    fn default() -> Self {
        ProjectionSettings { dim: mlpa_phase::project::DEFAULT_DIM, seed: 0x5349_4D50 }
    }
}

impl ProjectionSettings {
    /// Materialise the projection for a benchmark's program.
    pub fn build(&self, cb: &CompiledBenchmark) -> RandomProjection {
        RandomProjection::new(cb.program().num_blocks(), self.dim, self.seed)
    }
}

/// Kept only for [`ProfilingContext::set_shard_driver`]: every
/// profiling pass is one metadata walk on the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardDriver {
    /// One walk on the calling thread.
    #[default]
    Chained,
}

/// A metadata walk over a benchmark's trace: block ids and sizes in
/// trace order, with no instruction materialised.
///
/// The walk publishes its position on the `core.profile.progress_permille`
/// gauge, in per-mille of the spec's nominal length (capped at 1000),
/// setting it at most once per per-mille step.
pub(crate) struct MetaWalk<'b> {
    stream: WorkloadStream<'b>,
    scratch: Vec<Instruction>,
    /// The spec's nominal trace length (at least 1).
    nominal: u64,
    /// The position at which the gauge is next set.
    next_mark: u64,
}

impl<'b> MetaWalk<'b> {
    pub(crate) fn new(cb: &'b CompiledBenchmark) -> MetaWalk<'b> {
        MetaWalk {
            stream: WorkloadStream::new(cb),
            scratch: Vec::new(),
            nominal: cb.spec().nominal_insts().max(1),
            next_mark: 0,
        }
    }

    /// Instructions walked so far.
    pub(crate) fn pos(&self) -> u64 {
        self.stream.emitted()
    }

    /// The next block, if the walk has not yet reached instruction
    /// `end`: walking to `end` stops at the first block boundary at or
    /// past it.
    pub(crate) fn next_before(&mut self, end: u64) -> Option<BlockMeta> {
        let pos = self.pos();
        if pos >= end {
            return None;
        }
        if pos >= self.next_mark {
            let permille = (pos.saturating_mul(1000) / self.nominal).min(1000);
            mlpa_obs::gauge_set("core.profile.progress_permille", permille);
            // The first position whose per-mille exceeds this one.
            self.next_mark = match permille {
                1000 => u64::MAX,
                p => ((p + 1) * self.nominal).div_ceil(1000),
            };
        }
        self.stream.next_block_meta(&mut self.scratch)
    }
}

/// Cached products of one boundary-profiling pass.
#[derive(Debug, Clone)]
struct BoundaryPass {
    header: BlockId,
    has_prologue: bool,
    intervals: Vec<Interval>,
}

/// Shared profiling context: one projection and a cache of every
/// whole-trace profiling pass over a benchmark, so the three sampling
/// stages (fine baseline, COASTS, multi-level) stop re-streaming the
/// trace for information an earlier stage already collected.
///
/// The loop profile and the fine intervals come from one combined pass
/// ([`ProfilingContext::prepare`], which the lazy getters call on first
/// use), the boundary pass runs once per header, and every stage reuses
/// the results — two metadata walks per benchmark in total.
///
/// # Example
///
/// ```
/// use mlpa_core::coasts::{coasts_with, CoastsConfig};
/// use mlpa_core::pipeline::{ProfilingContext, FINE_INTERVAL};
/// use mlpa_workloads::{spec::BenchmarkSpec, CompiledBenchmark};
///
/// let cb = CompiledBenchmark::compile(&BenchmarkSpec::default())?;
/// let mut ctx = ProfilingContext::new(&cb, Default::default(), FINE_INTERVAL);
/// ctx.prepare();
/// let out = coasts_with(&mut ctx, &CoastsConfig::default())?;
/// assert!(out.plan.len() >= 1);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct ProfilingContext<'b> {
    cb: &'b CompiledBenchmark,
    settings: ProjectionSettings,
    projection: RandomProjection,
    fine_interval: u64,
    loop_profile: Option<LoopProfile>,
    fine_intervals: Option<Vec<Interval>>,
    boundary: Option<BoundaryPass>,
    cache: Option<Arc<ArtifactCache>>,
}

impl<'b> ProfilingContext<'b> {
    /// Create an empty context for `cb`; `fine_interval` is the length
    /// used by [`ProfilingContext::fine_intervals`].
    pub fn new(
        cb: &'b CompiledBenchmark,
        settings: ProjectionSettings,
        fine_interval: u64,
    ) -> ProfilingContext<'b> {
        ProfilingContext {
            cb,
            settings,
            projection: settings.build(cb),
            fine_interval,
            loop_profile: None,
            fine_intervals: None,
            boundary: None,
            cache: None,
        }
    }

    /// Does nothing: every profiling pass is one metadata walk, cached
    /// whole. Kept only because `benchmark/`, which does not change
    /// with the library, calls it.
    pub fn set_shards(&mut self, _shards: usize) {}

    /// Does nothing: every profiling pass is one metadata walk on the
    /// calling thread. Kept only because `benchmark/src/sample.rs`,
    /// which does not change with the library, calls it.
    pub fn set_shard_driver(&mut self, _driver: ShardDriver) {}

    /// Attach an artifact cache: every profiling pass first consults it
    /// and stores its product after computing. A warm cache makes all
    /// of this context's passes no-ops.
    pub fn set_cache(&mut self, cache: Arc<ArtifactCache>) {
        self.cache = Some(cache);
    }

    /// The attached artifact cache, if any.
    pub fn cache(&self) -> Option<Arc<ArtifactCache>> {
        self.cache.clone()
    }

    /// The benchmark this context profiles.
    pub fn benchmark(&self) -> &'b CompiledBenchmark {
        self.cb
    }

    fn loop_key(&self) -> CacheKey {
        // The loop profile depends only on the trace, not on the
        // projection or interval length.
        CacheKey::new().field("spec", self.cb.spec())
    }

    fn fine_key(&self) -> CacheKey {
        CacheKey::new()
            .field("spec", self.cb.spec())
            .field("projection", &self.settings)
            .field("interval", &self.fine_interval)
    }

    fn boundary_key(&self, header: BlockId) -> CacheKey {
        CacheKey::new()
            .field("spec", self.cb.spec())
            .field("projection", &self.settings)
            .field("header", &header.raw())
    }

    /// The shared projection matrix.
    pub fn projection(&self) -> &RandomProjection {
        &self.projection
    }

    /// The projection settings the context was built with.
    pub fn settings(&self) -> ProjectionSettings {
        self.settings
    }

    /// Run the combined base pass eagerly: the loop profile and the
    /// fine intervals come from one metadata walk. The lazy getters
    /// call this on first use.
    pub fn prepare(&mut self) {
        if self.loop_profile.is_some() && self.fine_intervals.is_some() {
            return;
        }
        if let Some(cache) = &self.cache {
            if self.loop_profile.is_none() {
                self.loop_profile = cache.get::<LoopProfile>(&self.loop_key());
            }
            if self.fine_intervals.is_none() {
                self.fine_intervals = cache.get::<Vec<Interval>>(&self.fine_key());
            }
            if self.loop_profile.is_some() && self.fine_intervals.is_some() {
                return;
            }
        }
        let _span = mlpa_obs::span("core.profile.combined_pass");
        mlpa_obs::add("core.profile.passes", 1);
        let mut fine = FixedLengthProfiler::new(&self.projection, self.fine_interval);
        let mut loops = LoopProfiler::new(self.cb.program());
        let mut walk = MetaWalk::new(self.cb);
        while let Some(m) = walk.next_before(u64::MAX) {
            fine.record(m.id, m.insts);
            loops.record(m.id, m.insts);
        }
        let (intervals, profile) = (fine.finish(), loops.finish());
        if let Some(cache) = &self.cache {
            cache.put(&self.loop_key(), &profile);
            cache.put(&self.fine_key(), &intervals);
        }
        self.loop_profile = Some(profile);
        self.fine_intervals = Some(intervals);
    }

    /// The loop (cyclic-structure) profile of the trace.
    pub fn loop_profile(&mut self) -> &LoopProfile {
        self.prepare();
        self.loop_profile.as_ref().expect("prepared")
    }

    /// Fixed-length intervals at the context's fine interval length.
    pub fn fine_intervals(&mut self) -> &[Interval] {
        self.prepare();
        self.fine_intervals.as_deref().expect("prepared")
    }

    /// Variable-length intervals cut at iterations of the cyclic
    /// structure headed by `header`, plus whether the trace has a
    /// prologue before the first header entry. Cached per header.
    pub fn boundary_intervals(&mut self, header: BlockId) -> (&[Interval], bool) {
        let stale = self.boundary.as_ref().is_none_or(|b| b.header != header);
        if stale {
            if let Some(cache) = &self.cache {
                if let Some(b) = cache.get::<BoundaryArtifact>(&self.boundary_key(header)) {
                    self.boundary = Some(BoundaryPass {
                        header: BlockId::new(b.header),
                        has_prologue: b.has_prologue,
                        intervals: b.intervals,
                    });
                }
            }
        }
        let stale = self.boundary.as_ref().is_none_or(|b| b.header != header);
        if stale {
            let _span = mlpa_obs::span("core.profile.boundary_pass");
            mlpa_obs::add("core.profile.passes", 1);
            let mut prof = BoundaryProfiler::new(&self.projection, header);
            let mut walk = MetaWalk::new(self.cb);
            while let Some(m) = walk.next_before(u64::MAX) {
                prof.record(m.id, m.insts);
            }
            let has_prologue = prof.has_prologue();
            let intervals = prof.finish();
            if let Some(cache) = &self.cache {
                cache.put(
                    &self.boundary_key(header),
                    &BoundaryArtifact {
                        header: header.raw(),
                        has_prologue,
                        intervals: intervals.clone(),
                    },
                );
            }
            self.boundary = Some(BoundaryPass { header, has_prologue, intervals });
        }
        let b = self.boundary.as_ref().expect("just computed");
        (&b.intervals, b.has_prologue)
    }
}

/// Measure a benchmark's exact trace length (total instruction count)
/// with one metadata drain of the stream: all control-flow draws run,
/// but no instruction words are materialised, so this costs a fraction
/// of a functional pass. `CompiledBenchmark` does not record the length
/// statically. [`crate::estimate::execute_plan_checked`] does not call
/// this: its own metadata walk measures the length while it finds the
/// block boundaries around every plan point's start.
pub fn trace_insts(cb: &CompiledBenchmark) -> u64 {
    let _span = mlpa_obs::span("core.profile.trace_len");
    mlpa_isa::stream::drain_meta_count(WorkloadStream::new(cb)).instructions
}

/// Profile a benchmark into fixed-length intervals (one metadata walk).
pub fn profile_fixed(
    cb: &CompiledBenchmark,
    interval_len: u64,
    proj: &RandomProjection,
) -> Vec<Interval> {
    let mut prof = FixedLengthProfiler::new(proj, interval_len);
    let mut walk = MetaWalk::new(cb);
    while let Some(m) = walk.next_before(u64::MAX) {
        prof.record(m.id, m.insts);
    }
    prof.finish()
}

/// Convert selected simulation points into an executable plan.
///
/// # Errors
///
/// Propagates [`SimulationPlan::new`]'s validation errors (they indicate
/// a profiler or selector bug, not user error).
pub fn plan_from_points(sp: &SimPoints) -> Result<SimulationPlan, String> {
    let points = sp
        .points
        .iter()
        .map(|p| PlanPoint { start: p.start, len: p.len, weight: p.weight })
        .collect();
    SimulationPlan::new(points, sp.total_insts)
}

/// Outcome of a fine-grained (SimPoint-baseline) selection.
#[derive(Debug, Clone, PartialEq)]
pub struct FineOutcome {
    /// The executable plan.
    pub plan: SimulationPlan,
    /// The raw selection (clusters, BIC diagnostics).
    pub simpoints: SimPoints,
    /// Interval length used.
    pub interval_len: u64,
}

/// The paper's baseline: fixed-length SimPoint (10 M-equivalent
/// intervals, `Kmax = 30`).
///
/// # Errors
///
/// Returns an error if the trace is empty (a spec that generates no
/// instructions).
///
/// # Example
///
/// ```
/// use mlpa_core::pipeline::{simpoint_baseline, ProjectionSettings, FINE_INTERVAL};
/// use mlpa_phase::simpoint::SimPointConfig;
/// use mlpa_workloads::{spec::BenchmarkSpec, CompiledBenchmark};
///
/// let cb = CompiledBenchmark::compile(&BenchmarkSpec::default())?;
/// let out = simpoint_baseline(
///     &cb,
///     FINE_INTERVAL,
///     &SimPointConfig::fine_10m(),
///     &ProjectionSettings::default(),
/// )?;
/// assert!(out.plan.len() >= 1);
/// # Ok::<(), String>(())
/// ```
pub fn simpoint_baseline(
    cb: &CompiledBenchmark,
    interval_len: u64,
    cfg: &SimPointConfig,
    proj: &ProjectionSettings,
) -> Result<FineOutcome, String> {
    let mut ctx = ProfilingContext::new(cb, *proj, interval_len);
    simpoint_baseline_with(&mut ctx, cfg)
}

/// [`simpoint_baseline`] on a shared [`ProfilingContext`]: reuses (or
/// populates) the context's fine-interval profile instead of running a
/// dedicated functional pass. The interval length is the context's.
///
/// # Errors
///
/// Returns an error if the trace is empty (a spec that generates no
/// instructions).
pub fn simpoint_baseline_with(
    ctx: &mut ProfilingContext<'_>,
    cfg: &SimPointConfig,
) -> Result<FineOutcome, String> {
    let _span = mlpa_obs::span("core.select.fine");
    let cache = ctx.cache();
    let key = cache.as_ref().map(|_| ctx.fine_key().field("selection", cfg));
    if let (Some(c), Some(k)) = (&cache, &key) {
        if let Some(out) = c.get::<FineOutcome>(k) {
            return Ok(out);
        }
    }
    let interval_len = ctx.fine_interval;
    let intervals = ctx.fine_intervals();
    if intervals.is_empty() {
        return Err(format!("benchmark {} produced an empty trace", ctx.cb.spec().name));
    }
    mlpa_obs::add("core.profile.fine_intervals", intervals.len() as u64);
    let simpoints = select(intervals, cfg);
    let plan = plan_from_points(&simpoints)?;
    let out = FineOutcome { plan, simpoints, interval_len };
    if let (Some(c), Some(k)) = (&cache, &key) {
        c.put(k, &out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpa_workloads::spec::{BenchmarkSpec, PhaseSpec, ScriptEntry};

    fn two_phase_cb() -> CompiledBenchmark {
        let spec = BenchmarkSpec {
            phases: vec![
                PhaseSpec { name: "a".into(), ..PhaseSpec::default() },
                PhaseSpec { name: "b".into(), ..PhaseSpec::default() },
            ],
            script: (0..8).map(|i| ScriptEntry::new(i % 2, 50_000)).collect(),
            ..BenchmarkSpec::default()
        };
        CompiledBenchmark::compile(&spec).unwrap()
    }

    /// Every profiling entry point walks block metadata: a fresh
    /// context's lazy getters, its boundary pass and multi-level's
    /// window re-profile materialise no instruction; and a cached
    /// context stores each pass's product whole.
    #[test]
    fn profiling_passes_walk_metadata_only() {
        use crate::multilevel::{multilevel_with, MultilevelConfig};
        let _g = crate::testobs::counter_lock();
        let cb = two_phase_cb();
        let header = cb.outer_header();
        let mcfg = MultilevelConfig { threshold: 0, ..MultilevelConfig::default() };
        let fresh = || ProfilingContext::new(&cb, mcfg.coasts.projection, mcfg.fine_interval);

        // Tests outside the lock may run functional simulations at the
        // same time, so one clean attempt proves these passes add
        // nothing; a materialising pass would bump every attempt.
        let clean = (0..20).any(|_| {
            let before = mlpa_obs::counter_value("sim.functional.instructions");
            let mut ctx = fresh();
            ctx.loop_profile();
            ctx.fine_intervals();
            ctx.boundary_intervals(header);
            assert!(!multilevel_with(&mut ctx, &mcfg).unwrap().resampled.is_empty());
            mlpa_obs::counter_value("sim.functional.instructions") == before
        });
        assert!(clean, "a profiling pass materialised instructions");

        let dir = crate::testdir::TempDir::new("pipeline-cached");
        let mut ctx = fresh();
        ctx.set_cache(Arc::new(ArtifactCache::open(dir.path()).unwrap()));
        ctx.fine_intervals();
        ctx.boundary_intervals(header);
        for kind in ["loop-profile", "intervals", "boundary"] {
            assert!(dir.path().join(kind).exists(), "{kind} not cached");
        }
    }

    /// The walk sets the progress gauge at most once per per-mille step.
    #[test]
    fn meta_walk_sets_progress_once_per_mille() {
        // A nominal length that is no multiple of 1000, so per-mille
        // steps do not fall on whole instructions.
        let spec = BenchmarkSpec { init_insts: 1_777, ..two_phase_cb().spec().clone() };
        let cb = CompiledBenchmark::compile(&spec).unwrap();
        let nominal = spec.nominal_insts();
        assert_ne!(nominal % 1000, 0);
        let mut walk = MetaWalk::new(&cb);
        // The per-mille of every position at which the walk sets the gauge.
        let mut sets = Vec::new();
        loop {
            if walk.pos() >= walk.next_mark {
                sets.push((walk.pos() * 1000 / nominal).min(1000));
            }
            if walk.next_before(u64::MAX).is_none() {
                break;
            }
        }
        assert!(sets.windows(2).all(|w| w[0] < w[1]), "a per-mille step was set twice");
        assert!(sets.len() > 100, "{} gauge sets", sets.len());
    }

    #[test]
    fn baseline_produces_valid_plan() {
        let cb = two_phase_cb();
        let out = simpoint_baseline(
            &cb,
            FINE_INTERVAL,
            &mlpa_phase::simpoint::SimPointConfig::fine_10m(),
            &ProjectionSettings::default(),
        )
        .unwrap();
        assert!(out.plan.len() >= 2, "two phases need at least two points");
        assert!(out.plan.detail_fraction() < 0.5);
        // Fine plan points are one interval long (the trailing partial
        // interval may be shorter).
        let total = out.plan.total_insts();
        for p in out.plan.points() {
            assert!(p.len < FINE_INTERVAL + 200);
            assert!(p.len >= FINE_INTERVAL || p.end() == total, "short non-final point");
        }
    }

    #[test]
    fn scaled_constants_match_paper_ratios() {
        // 10 M / 1000 and 10 M × 30 / 1000.
        assert_eq!(FINE_INTERVAL, 10_000);
        assert_eq!(RESAMPLE_THRESHOLD, 30 * FINE_INTERVAL);
    }

    #[test]
    fn projection_settings_are_stable() {
        let cb = two_phase_cb();
        let a = ProjectionSettings::default().build(&cb);
        let b = ProjectionSettings::default().build(&cb);
        let raw = vec![1.0; cb.program().num_blocks()];
        assert_eq!(a.project(&raw), b.project(&raw));
    }

    #[test]
    fn plan_matches_simpoints_accounting() {
        let cb = two_phase_cb();
        let out = simpoint_baseline(
            &cb,
            FINE_INTERVAL,
            &mlpa_phase::simpoint::SimPointConfig::fine_10m(),
            &ProjectionSettings::default(),
        )
        .unwrap();
        assert_eq!(out.plan.detailed_insts(), out.simpoints.detailed_insts());
        assert!((out.plan.last_position() - out.simpoints.last_position()).abs() < 1e-12);
    }
}
