//! Shared plumbing: projection settings, profiling passes, and the
//! fine-grained (SimPoint-baseline) plan builder.

use std::sync::Arc;

use crate::artifact::{Artifact, BoundaryArtifact, BoundaryShardArtifact, ProfileShardArtifact};
use crate::cache::{ArtifactCache, CacheKey};
use crate::plan::{PlanPoint, SimulationPlan};
use mlpa_isa::stream::{BlockMeta, InstructionStream};
use mlpa_isa::{BlockId, Instruction, Program};
use mlpa_phase::interval::{FixedLengthProfiler, Interval};
use mlpa_phase::loops::LoopProfile;
use mlpa_phase::project::RandomProjection;
use mlpa_phase::shard::{
    merge_boundary, merge_fine, merge_loops, BoundaryTracker, FineCutTracker, LoopStackTracker,
    ShardBoundaryProfiler, ShardFineProfiler, ShardLoopMonitor,
};
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

/// How a profiling pass schedules its trace segments.
///
/// Every pass walks block metadata (no instruction is materialised),
/// and both drivers produce bit-identical artifacts and merges; they
/// differ only in wall-clock shape:
///
/// * [`ShardDriver::Chained`] streams the trace **once** on the calling
///   thread, handing consecutive segments to freshly seeded shard
///   profilers — no prefix replay, so total work is one metadata walk
///   plus the (cheap, O(1)-per-block) shard profilers. A single
///   segment always runs this way, whatever the driver.
/// * [`ShardDriver::Threaded`] runs every segment on its own scoped
///   thread; each worker fast-forwards through its prefix with the
///   metadata walk and profiles only its slice. Wall-clock is the
///   longest single shard (≈ one metadata walk for the last segment),
///   with the profiling work and any cache hits overlapped across
///   cores.
/// * [`ShardDriver::Auto`] (the default) picks `Threaded` when the
///   machine reports more than one available core, `Chained` otherwise
///   — on a single core prefix replay costs ~`shards/2` extra walks
///   for nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardDriver {
    /// Decide from `std::thread::available_parallelism()`.
    #[default]
    Auto,
    /// Single-threaded, single-pass segment chaining.
    Chained,
    /// One scoped worker thread per segment with prefix fast-forward.
    Threaded,
}

impl ShardDriver {
    /// Whether `shards` segments run on worker threads: never for one
    /// segment; otherwise as the driver says, `Auto` resolved against
    /// the machine's available parallelism.
    fn threaded(self, shards: usize) -> bool {
        shards > 1
            && match self {
                ShardDriver::Chained => false,
                ShardDriver::Threaded => true,
                ShardDriver::Auto => {
                    std::thread::available_parallelism().map_or(1, |n| n.get()) > 1
                }
            }
    }
}

/// A metadata walk over a benchmark's trace: block ids and sizes in
/// trace order, with no instruction materialised.
pub(crate) struct MetaWalk<'b> {
    stream: WorkloadStream<'b>,
    scratch: Vec<Instruction>,
}

impl<'b> MetaWalk<'b> {
    pub(crate) fn new(cb: &'b CompiledBenchmark) -> MetaWalk<'b> {
        MetaWalk { stream: WorkloadStream::new(cb), scratch: Vec::new() }
    }

    /// Instructions walked so far.
    pub(crate) fn pos(&self) -> u64 {
        self.stream.emitted()
    }

    /// The next block, if the walk has not yet reached instruction
    /// `end`: walking to `end` stops at the first block boundary at or
    /// past it.
    pub(crate) fn next_before(&mut self, end: u64) -> Option<BlockMeta> {
        if self.pos() >= end {
            return None;
        }
        self.stream.next_block_meta(&mut self.scratch)
    }
}

/// One kind of whole-trace profiling pass, as the segment drivers see
/// it: an O(1)-per-block tracker that carries the pass's state across
/// segment boundaries, and a shard profiler that turns one segment
/// into a mergeable artifact.
trait SegmentPass: Sync {
    /// The pass's state at a block boundary.
    type Tracker;
    /// One segment's mergeable product.
    type Art: Artifact + Send;
    /// The tracker at the start of the trace.
    fn tracker(&self) -> Self::Tracker;
    /// Advance `t` over one block.
    fn advance(t: &mut Self::Tracker, m: BlockMeta);
    /// Profile the walk's blocks up to `end`, entering with `t`'s
    /// state; with `carry`, `t` advances through them too (a chained
    /// segment that has a successor).
    fn segment(
        &self,
        t: &mut Self::Tracker,
        carry: bool,
        walk: &mut MetaWalk<'_>,
        end: u64,
    ) -> Self::Art;
}

/// The combined pass: loop profile and fine intervals in one walk.
struct CombinedSegments<'c> {
    program: &'c Program,
    projection: &'c RandomProjection,
    fine_interval: u64,
}

impl<'c> SegmentPass for CombinedSegments<'c> {
    type Tracker = (FineCutTracker, LoopStackTracker<'c>);
    type Art = ProfileShardArtifact;

    fn tracker(&self) -> Self::Tracker {
        (FineCutTracker::new(self.fine_interval), LoopStackTracker::new(self.program))
    }

    fn advance((fine, loops): &mut Self::Tracker, m: BlockMeta) {
        fine.record(m.insts);
        loops.record(m.id);
    }

    fn segment(
        &self,
        t: &mut Self::Tracker,
        carry: bool,
        walk: &mut MetaWalk<'_>,
        end: u64,
    ) -> ProfileShardArtifact {
        let mut prof = ShardFineProfiler::new(self.projection, self.fine_interval, &t.0);
        let mut mon = ShardLoopMonitor::new(t.1.clone());
        while let Some(m) = walk.next_before(end) {
            if carry {
                Self::advance(t, m);
            }
            prof.record(m.id, m.insts);
            mon.record(m.id, m.insts);
        }
        ProfileShardArtifact { pieces: prof.finish(), loops: mon.finish() }
    }
}

/// The boundary pass: intervals cut at every entry of `header`.
struct BoundarySegments<'c> {
    projection: &'c RandomProjection,
    header: BlockId,
}

impl SegmentPass for BoundarySegments<'_> {
    type Tracker = BoundaryTracker;
    type Art = BoundaryShardArtifact;

    fn tracker(&self) -> BoundaryTracker {
        BoundaryTracker::new(self.header)
    }

    fn advance(t: &mut BoundaryTracker, m: BlockMeta) {
        t.record(m.id, m.insts);
    }

    fn segment(
        &self,
        t: &mut BoundaryTracker,
        carry: bool,
        walk: &mut MetaWalk<'_>,
        end: u64,
    ) -> BoundaryShardArtifact {
        let mut prof = ShardBoundaryProfiler::new(self.projection, t);
        while let Some(m) = walk.next_before(end) {
            if carry {
                Self::advance(t, m);
            }
            prof.record(m.id, m.insts);
        }
        let (pieces, first_header_pos) = prof.finish();
        BoundaryShardArtifact { pieces, first_header_pos }
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
    /// Trace segments per profiling pass (1 = one chained segment).
    shards: usize,
    /// How multi-segment passes schedule their segments.
    driver: ShardDriver,
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
            shards: 1,
            driver: ShardDriver::Auto,
        }
    }

    /// Split the profiling passes into `shards` trace segments (1, the
    /// default, is one segment walked on the calling thread). Every
    /// count merges bit-identically to the single segment — pinned by
    /// `sharded_profiling.rs` and the `mlpa-phase` property tests — so
    /// this is purely a wall-clock/resume lever: two or more segments
    /// can run on worker threads (see [`ShardDriver`]), and each of
    /// them is checkpointed in the artifact cache as it completes.
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards.max(1);
    }

    /// Override how sharded passes schedule their segments (default:
    /// [`ShardDriver::Auto`]). Scheduling never changes results — both
    /// drivers emit identical per-shard artifacts and merges.
    pub fn set_shard_driver(&mut self, driver: ShardDriver) {
        self.driver = driver;
    }

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
    /// fine intervals come from one metadata walk, segment by segment,
    /// merged bit-identically. The lazy getters call this on first use.
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
        let _span = mlpa_obs::span("core.profile.shard_pass");
        mlpa_obs::add("core.profile.shard_passes", 1);
        let pass = CombinedSegments {
            program: self.cb.program(),
            projection: &self.projection,
            fine_interval: self.fine_interval,
        };
        let fine_key = self.fine_key();
        let (pieces, loops): (Vec<_>, Vec<_>) =
            self.run_segments(&pass, &fine_key).into_iter().map(|a| (a.pieces, a.loops)).unzip();
        let intervals = merge_fine(pieces);
        let profile = merge_loops(loops);
        if let Some(cache) = &self.cache {
            cache.put(&self.loop_key(), &profile);
            cache.put(&fine_key, &intervals);
        }
        self.loop_profile = Some(profile);
        self.fine_intervals = Some(intervals);
    }

    /// Segment targets for an `N`-way partition of the trace: shard `k`
    /// owns blocks whose first instruction lands in
    /// `[targets[k], targets[k+1])`. Targets derive from the spec's
    /// nominal length (O(1) — no trace-length pre-pass); the last shard
    /// absorbs the generator's stochastic drift by running to the end
    /// of the stream. Both sides of every boundary apply the same rule,
    /// so the partition is exact, gap-free, and overlap-free for any
    /// actual trace length.
    fn shard_targets(&self) -> Vec<u64> {
        let shards = self.shards;
        let nominal = self.cb.spec().nominal_insts().max(1);
        let mut t: Vec<u64> = (0..shards as u64).map(|k| k * nominal / shards as u64).collect();
        t.push(u64::MAX);
        t
    }

    /// Run `pass` over the context's trace segments under its driver
    /// and return the per-segment artifacts in trace order.
    ///
    /// With more than one segment, each segment's artifact goes through
    /// the artifact cache under the pass's `key` plus the shard count
    /// and index, so a killed run resumes at the first missing segment.
    /// The count is part of the key because segment boundaries derive
    /// from it: shards of different partitions are not interchangeable
    /// (their *merge* is identical, their pieces are not). One segment
    /// is the whole pass: it reads and writes no checkpoint (the caller
    /// caches the merge).
    fn run_segments<P: SegmentPass>(&self, pass: &P, key: &CacheKey) -> Vec<P::Art> {
        let shards = self.shards;
        let targets = self.shard_targets();
        let store = self.cache.as_deref().filter(|_| shards > 1);
        // A segment's checkpoint key, and its artifact if a previous
        // run stored one.
        let lookup = |k: usize| {
            let key = store.map(|_| key.clone().field("shards", &shards).field("shard", &k));
            let hit = store.zip(key.as_ref()).and_then(|(c, key)| c.get::<P::Art>(key));
            if hit.is_some() {
                mlpa_obs::add("core.profile.shard_resumes", 1);
            }
            (key, hit)
        };
        let run = |k: usize, t: &mut P::Tracker, carry: bool, walk: &mut MetaWalk<'_>, key| {
            let _span = mlpa_obs::span("core.profile.shard");
            mlpa_obs::add("core.profile.shards_run", 1);
            // Last-write-wins: with concurrent shards the gauge tracks
            // whichever segment started most recently, which is the
            // live view we want. One segment has no progress to show.
            if shards > 1 {
                mlpa_obs::gauge_set("core.shard.total", shards as u64);
                mlpa_obs::gauge_set("core.shard.segment", k as u64);
            }
            let art = pass.segment(t, carry, walk, targets[k + 1]);
            if let (Some(c), Some(key)) = (store, &key) {
                c.put(key, &art);
            }
            art
        };
        let cb = self.cb;
        if !self.driver.threaded(shards) {
            // Chained: one walk, the tracker carried across segments; a
            // checkpointed segment still advances the walk and tracker
            // (to keep alignment) but skips the profiler work.
            let mut walk = MetaWalk::new(cb);
            let mut t = pass.tracker();
            return (0..shards)
                .map(|k| match lookup(k) {
                    (_, Some(art)) => {
                        while let Some(m) = walk.next_before(targets[k + 1]) {
                            P::advance(&mut t, m);
                        }
                        art
                    }
                    (key, None) => run(k, &mut t, k + 1 < shards, &mut walk, key),
                })
                .collect();
        }
        // Threaded: one scoped worker per segment, each fast-forwarding
        // through its prefix with the tracker alone.
        let (lookup, run, targets) = (&lookup, &run, &targets);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|k| {
                    scope.spawn(move || {
                        let (key, hit) = lookup(k);
                        if let Some(art) = hit {
                            return art;
                        }
                        let mut walk = MetaWalk::new(cb);
                        let mut t = pass.tracker();
                        while let Some(m) = walk.next_before(targets[k]) {
                            P::advance(&mut t, m);
                        }
                        run(k, &mut t, false, &mut walk, key)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
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
            let _span = mlpa_obs::span("core.profile.shard_boundary_pass");
            let pass = BoundarySegments { projection: &self.projection, header };
            let key = self.boundary_key(header);
            let arts = self.run_segments(&pass, &key);
            let (intervals, has_prologue) =
                merge_boundary(arts.into_iter().map(|a| (a.pieces, a.first_header_pos)));
            if let Some(cache) = &self.cache {
                cache.put(
                    &key,
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
/// statically, so plan/trace compatibility checks (see
/// [`crate::estimate::execute_plan_checked`]) measure it here.
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
    /// window re-profile materialise no instruction; a sharded context
    /// runs its segmented pass without an explicit `prepare()`; and a
    /// single-segment pass leaves no per-segment checkpoint behind.
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

        let root =
            std::env::temp_dir().join(format!("mlpa-pipeline-checkpoints-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let passes = mlpa_obs::counter_value("core.profile.shard_passes");
        let mut ctx = fresh();
        ctx.set_shards(4);
        ctx.set_cache(Arc::new(ArtifactCache::open(root.join("four")).unwrap()));
        ctx.loop_profile();
        assert!(mlpa_obs::counter_value("core.profile.shard_passes") > passes);
        let checkpoints = std::fs::read_dir(root.join("four/profile-shard")).unwrap().count();
        assert_eq!(checkpoints, 4, "one checkpoint per segment");

        let mut ctx = fresh();
        ctx.set_cache(Arc::new(ArtifactCache::open(root.join("one")).unwrap()));
        ctx.fine_intervals();
        ctx.boundary_intervals(header);
        for kind in ["profile-shard", "boundary-shard"] {
            assert!(!root.join("one").join(kind).exists(), "single segment wrote {kind}");
        }
        for kind in ["loop-profile", "intervals", "boundary"] {
            assert!(root.join("one").join(kind).exists(), "merged {kind} not cached");
        }
        let _ = std::fs::remove_dir_all(&root);
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
