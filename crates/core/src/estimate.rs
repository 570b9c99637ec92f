//! Plan execution: fast-forward to each simulation point, simulate it
//! in detail, and combine the weighted per-point metrics into a
//! whole-program estimate.
//!
//! [`execute_plan`] is the plan executor for runs without ground truth:
//! a single chained traversal of the trace. Warm microarchitectural
//! state at a point is defined as *functional warming of the whole
//! prefix* `[0, start)`, so a point's metrics are a pure function of its
//! start offset and never depend on which other points the plan holds.
//!
//! [`truth_and_plans`] serves runs that also want ground truth: the one
//! detailed pass that measures the truth simulates every plan point on
//! the way, from the same functionally warmed state, so the warming
//! traversals disappear and the results stay bit-identical.

use crate::cache::{ArtifactCache, CacheKey};
use crate::plan::SimulationPlan;
use mlpa_isa::{InstructionStream, Program};
use mlpa_obs::pool::{Helper, HelperTask};
use mlpa_sim::functional::{warm_back, Replay, WarmBack, RECORD_BATCH};
use mlpa_sim::{
    BranchUnit, DetailedSim, FunctionalSim, L2Hook, L2Op, L2Replica, MachineConfig,
    MemoryHierarchy, MetricEstimate, RegionVisitor, SimMetrics,
};
use mlpa_workloads::{CompiledBenchmark, WorkloadStream};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// Microarchitectural-state policy at each simulation point.
///
/// The default is [`WarmupMode::Warmed`]. At this repo's 1000×
/// instruction scale-down the caches keep their Table I sizes, so a
/// cold-started sample pays its compulsory misses over 1000× fewer
/// instructions than the paper's setup — cold-start bias is amplified
/// three orders of magnitude and would swamp every accuracy comparison.
/// Warming restores the paper's regime (where a 10 M-instruction sample
/// amortises cold misses to the ~1 % level). [`WarmupMode::Cold`]
/// remains available; `mlpa-experiments ablation_warmup`
/// (`results/ablation_warmup.txt`) uses it to show the Table II pattern
/// in amplified form — fine-grained sampling degrades drastically
/// without warm state while coarse-grained sampling barely notices,
/// which is exactly why the paper's SimPoint column shows L2 deviations
/// up to 23 %.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmupMode {
    /// Cold caches and predictor at every point — SimpleScalar's raw
    /// `-fastfwd` behaviour.
    Cold,
    /// Functionally warm caches and predictor over each point's entire
    /// prefix (checkpoint/warming methodology), including the regions
    /// of earlier points. The warm state a point sees is therefore a
    /// pure function of its start offset.
    #[default]
    Warmed,
}

/// What executing a plan cost, in actually-executed instructions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutionCost {
    /// Instructions fast-forwarded functionally.
    pub functional_insts: u64,
    /// Instructions simulated in detail.
    pub detailed_insts: u64,
}

/// Result of executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionOutcome {
    /// The whole-program estimate (weighted combination).
    pub estimate: MetricEstimate,
    /// Per-point raw metrics, in plan order.
    pub per_point: Vec<SimMetrics>,
    /// Cost accounting.
    pub cost: ExecutionCost,
}

/// Execute `plan` on `config`, producing the sampled estimate.
///
/// One traversal of the trace visits the points in order. With
/// [`WarmupMode::Cold`] every point starts from a cold simulator
/// (separate `sim-outorder -fastfwd` invocations, as the paper's
/// baseline); with [`WarmupMode::Warmed`] the caches and predictor are
/// functionally warmed over each point's prefix before detailed
/// simulation begins.
///
/// # Example
///
/// ```
/// use mlpa_core::estimate::{execute_plan, WarmupMode};
/// use mlpa_core::plan::{PlanPoint, SimulationPlan};
/// use mlpa_sim::MachineConfig;
/// use mlpa_workloads::{spec::BenchmarkSpec, CompiledBenchmark};
///
/// let cb = CompiledBenchmark::compile(&BenchmarkSpec::default())?;
/// let plan = SimulationPlan::new(
///     vec![PlanPoint { start: 0, len: 20_000, weight: 1.0 }],
///     500_000,
/// )?;
/// let out = execute_plan(&cb, &MachineConfig::table1_base(), &plan, WarmupMode::Cold);
/// assert!(out.estimate.cpi > 0.0);
/// # Ok::<(), String>(())
/// ```
pub fn execute_plan(
    cb: &CompiledBenchmark,
    config: &MachineConfig,
    plan: &SimulationPlan,
    mode: WarmupMode,
) -> ExecutionOutcome {
    execute_on(cb.program(), WorkloadStream::new(cb), config, plan, mode, None)
}

/// [`execute_plan`] over any stream of `program`, with the warm walk's
/// cache stage on a helper as `workers` picks it for
/// [`mlpa_obs::pool::with_helper`] (`None` in every caller but tests).
///
/// Warm mode runs functional warming in two stages (see
/// [`mlpa_sim::functional`]): the calling thread walks the stream and
/// trains the branch unit, and the cache stage replays the walk's
/// records into the memory hierarchy, on a helper thread or, with none,
/// on the calling thread. At each point the calling thread waits for the
/// cache stage to catch up, snapshots both halves, and simulates the
/// point itself; the hierarchy sees the same operations in the same
/// order either way.
fn execute_on<S: InstructionStream + Clone>(
    program: &Program,
    mut stream: S,
    config: &MachineConfig,
    plan: &SimulationPlan,
    mode: WarmupMode,
    workers: Option<usize>,
) -> ExecutionOutcome {
    let _span = mlpa_obs::span("core.plan.execute");
    let mut func = FunctionalSim::new(program);
    let (per_point, cost) = match mode {
        WarmupMode::Cold => run_points(plan, |skip, len| {
            let skipped = func.fast_forward(&mut stream, skip, &mut (), None);
            (skipped, DetailedSim::new(*config, program).simulate(&mut stream, len))
        }),
        WarmupMode::Warmed => mlpa_obs::pool::with_helper(workers, |helper| {
            // One continuously warmed state for the whole traversal, and
            // one snapshot of it, allocated here and refilled in place at
            // every point, which the detailed simulator borrows.
            let mut hier = MemoryHierarchy::new(config);
            let mut bu = BranchUnit::new(&config.predictor);
            let mut snapshot = Some((hier.clone(), bu.clone()));
            let mut caches = match helper {
                Some(helper) => CacheStage::Helper(HelperStage::start(helper, program, hier)),
                None => CacheStage::Inline(Replay::new(program, &mut hier)),
            };
            let out = run_points(plan, |skip, len| {
                let skipped = func.warm_walk(&mut stream, skip, &mut (), &mut bu, &mut caches);
                // The detailed simulator runs on a fork of the stream
                // with a snapshot of the warm state, while the primary
                // stream warms functionally *through* the point region —
                // so the next point's prefix state is a pure functional
                // warm of [0, start).
                let (snap_hier, mut snap_bu) = snapshot.take().expect("snapshot returned");
                let snap_hier = caches.snapshot(snap_hier);
                snap_bu.clone_from(&bu);
                let mut sim = DetailedSim::with_warm_state(*config, program, snap_hier, snap_bu);
                let m = sim.simulate(&mut stream.clone(), len);
                snapshot = Some(sim.into_warm_state());
                let advanced =
                    func.warm_walk(&mut stream, m.instructions, &mut (), &mut bu, &mut caches);
                debug_assert_eq!(advanced, m.instructions, "fork and primary stream diverged");
                (skipped, m)
            });
            caches.finish();
            out
        }),
    };
    let estimate = SimMetrics::weighted_estimate(
        plan.points().iter().zip(&per_point).map(|(p, m)| (p.weight, *m)),
    );
    if mlpa_obs::is_enabled() {
        mlpa_obs::add("core.plan.points", plan.len() as u64);
        mlpa_obs::add("core.plan.functional_insts", cost.functional_insts);
        mlpa_obs::add("core.plan.detailed_insts", cost.detailed_insts);
    }
    ExecutionOutcome { estimate, per_point, cost }
}

/// Visit `plan`'s points in order. `point(skip, len)` fast-forwards
/// `skip` instructions, simulates `len` in detail, and returns the
/// instructions skipped and the point's metrics.
fn run_points(
    plan: &SimulationPlan,
    mut point: impl FnMut(u64, u64) -> (u64, SimMetrics),
) -> (Vec<SimMetrics>, ExecutionCost) {
    let mut per_point = Vec::with_capacity(plan.len());
    let mut cost = ExecutionCost::default();
    let mut pos = 0u64;
    // A single-worker guard so plan execution reports utilization; the
    // `plan` pool's live count is the number of executions in flight.
    let mut worker = mlpa_obs::worker("plan", 0);
    for (i, p) in plan.points().iter().enumerate() {
        let _span = mlpa_obs::span_labeled("core.plan.point", &format!("point {i}"));
        let (skipped, m) = worker.busy(|| point(p.start.saturating_sub(pos), p.len));
        pos += skipped + m.instructions;
        cost.functional_insts += skipped;
        cost.detailed_insts += m.instructions;
        per_point.push(m);
    }
    (per_point, cost)
}

/// Record buffers in flight between the two stages of a warmed plan
/// execution, the one being filled included: 128 KiB.
const QUEUED_BATCHES: usize = 4;

/// The cache stage of a warmed plan execution: the memory hierarchy,
/// warmed from the front stage's records on the calling thread or on a
/// helper.
enum CacheStage<'a, 'scope> {
    Inline(Replay<'a>),
    Helper(HelperStage<'scope>),
}

impl CacheStage<'_, '_> {
    /// Refill `dest` with the warm hierarchy, every record walked so far
    /// replayed, and return it.
    fn snapshot(&mut self, mut dest: MemoryHierarchy) -> MemoryHierarchy {
        match self {
            CacheStage::Inline(replay) => {
                dest.clone_from(replay.warm_state());
                dest
            }
            CacheStage::Helper(stage) => stage.snapshot(dest),
        }
    }

    /// Stop the cache stage.
    fn finish(self) {
        if let CacheStage::Helper(stage) = self {
            stage.finish();
        }
    }
}

impl WarmBack for CacheStage<'_, '_> {
    #[inline]
    fn records(&mut self) -> &mut Vec<u64> {
        match self {
            CacheStage::Inline(replay) => replay.records(),
            CacheStage::Helper(stage) => &mut stage.records,
        }
    }

    fn submit(&mut self) {
        match self {
            CacheStage::Inline(replay) => replay.submit(),
            CacheStage::Helper(stage) => stage.submit(),
        }
    }
}

/// What the two stages pass each other. Each message goes to the helper
/// and comes back.
enum Batch {
    /// Records to replay; comes back emptied, for the front to refill.
    Records(Vec<u64>),
    /// A hierarchy to refill with the warm one; comes back filled.
    Snapshot(Box<MemoryHierarchy>),
}

/// The calling thread's end of a cache stage running on a helper. The
/// queue is bounded by the [`QUEUED_BATCHES`] buffers the calling thread
/// allocates, which circulate between the stages.
struct HelperStage<'scope> {
    /// The buffer the front stage is filling.
    records: Vec<u64>,
    /// Emptied buffers the helper has returned.
    free: Vec<Vec<u64>>,
    to_helper: SyncSender<Batch>,
    from_helper: Receiver<Batch>,
    /// `None` once joined.
    task: Option<HelperTask<'scope, ()>>,
}

impl<'scope> HelperStage<'scope> {
    /// Start warming `hier` on `helper`.
    fn start(
        helper: Helper<'scope, '_>,
        program: &'scope Program,
        mut hier: MemoryHierarchy,
    ) -> Self {
        // Room for every message at once, so no send ever blocks.
        let (to_helper, batches) = sync_channel(QUEUED_BATCHES + 1);
        let (replies, from_helper) = sync_channel(QUEUED_BATCHES + 1);
        let task = helper.spawn(move || {
            for batch in batches {
                let reply = match batch {
                    Batch::Records(mut records) => {
                        warm_back(program, &mut hier, &records);
                        records.clear();
                        Batch::Records(records)
                    }
                    Batch::Snapshot(mut dest) => {
                        dest.as_mut().clone_from(&hier);
                        Batch::Snapshot(dest)
                    }
                };
                if replies.send(reply).is_err() {
                    // The calling thread is unwinding.
                    break;
                }
            }
        });
        let mut free: Vec<Vec<u64>> =
            (0..QUEUED_BATCHES).map(|_| Vec::with_capacity(RECORD_BATCH)).collect();
        let records = free.pop().expect("at least one buffer");
        HelperStage { records, free, to_helper, from_helper, task: Some(task) }
    }

    fn send(&mut self, batch: Batch) {
        if self.to_helper.send(batch).is_err() {
            self.helper_stopped();
        }
    }

    fn recv(&mut self) -> Batch {
        match self.from_helper.recv() {
            Ok(batch) => batch,
            Err(_) => self.helper_stopped(),
        }
    }

    /// The helper hung up, which it does only by panicking: re-raise its
    /// panic, with its own payload, on the calling thread.
    #[cold]
    fn helper_stopped(&mut self) -> ! {
        self.task.take().expect("joined once").join();
        unreachable!("the cache stage runs until the calling thread hangs up")
    }

    fn submit(&mut self) {
        let full = std::mem::take(&mut self.records);
        self.send(Batch::Records(full));
        self.records = match self.free.pop() {
            Some(records) => records,
            None => match self.recv() {
                Batch::Records(records) => records,
                Batch::Snapshot(_) => unreachable!("no snapshot was asked for"),
            },
        };
    }

    fn snapshot(&mut self, dest: MemoryHierarchy) -> MemoryHierarchy {
        if !self.records.is_empty() {
            self.submit();
        }
        self.send(Batch::Snapshot(Box::new(dest)));
        // The helper answers in order, so every buffer is back with the
        // snapshot.
        loop {
            match self.recv() {
                Batch::Records(records) => self.free.push(records),
                Batch::Snapshot(warm) => return *warm,
            }
        }
    }

    fn finish(mut self) {
        let task = self.task.take().expect("joined once");
        // Hang up first: the helper stops when its queue closes.
        drop(self);
        task.join();
    }
}

/// Render a `catch_unwind` payload (the common `&str`/`String` cases).
///
/// Shared by the worker pools that must attach a job label to a
/// propagated panic (the experiment suite in `mlpa-bench`, the
/// `mlpa-serve` job workers). Pass `&*payload`, not `&payload`: a
/// `Box<dyn Any>` is itself `Any`.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Simulate the entire benchmark in detail — the ground truth the
/// paper's Table II deviations are measured against. This is the
/// one-segment case of [`ground_truth_segmented`].
pub fn ground_truth(cb: &CompiledBenchmark, config: &MachineConfig) -> SimMetrics {
    ground_truth_segmented(cb, config, &[u64::MAX])[0]
}

/// Ground truth measured in segments: one persistent-state detailed
/// pass over the trace, slicing the *statistics* at the cumulative
/// boundaries of `lens`. Microarchitectural state persists across
/// `simulate` calls while statistics reset, and cycles are counted as
/// commit-cycle deltas, so segments that tile the trace sum exactly to
/// the one-segment [`ground_truth`] — accuracy attribution gets the
/// per-interval truth without paying a second full pass.
///
/// Each segment runs to the cumulative target, so a segment that
/// overshoots its boundary (blocks are atomic) shortens the next one
/// rather than letting drift accumulate. Segments whose target was
/// already covered, or that start past the end of the trace, come back
/// empty. Instructions past the last boundary are not simulated.
pub fn ground_truth_segmented(
    cb: &CompiledBenchmark,
    config: &MachineConfig,
    lens: &[u64],
) -> Vec<SimMetrics> {
    segmented_on(cb.program(), WorkloadStream::new(cb), config, lens)
}

/// [`ground_truth_segmented`] over any stream of `program`.
fn segmented_on<S: InstructionStream>(
    program: &Program,
    mut stream: S,
    config: &MachineConfig,
    lens: &[u64],
) -> Vec<SimMetrics> {
    let _span = mlpa_obs::span("core.truth.segmented");
    mlpa_obs::add("core.truth.passes", 1);
    let mut sim = DetailedSim::new(*config, program);
    let mut pos = 0u64;
    let mut target = 0u64;
    lens.iter()
        .map(|&len| {
            target = target.saturating_add(len);
            let m = sim.simulate(&mut stream, target.saturating_sub(pos));
            pos += m.instructions;
            m
        })
        .collect()
}

/// [`execute_plan`] behind the artifact cache. The key covers the
/// benchmark, machine config, warmup mode, and the full plan contents.
pub fn execute_plan_cached(
    cache: Option<&ArtifactCache>,
    cb: &CompiledBenchmark,
    config: &MachineConfig,
    plan: &SimulationPlan,
    mode: WarmupMode,
) -> ExecutionOutcome {
    let key = cache.map(|_| plan_key(cb, config, plan, mode));
    if let (Some(c), Some(k)) = (cache, &key) {
        if let Some(out) = c.get::<ExecutionOutcome>(k) {
            return out;
        }
    }
    let out = execute_plan(cb, config, plan, mode);
    if let (Some(c), Some(k)) = (cache, &key) {
        c.put(k, &out);
    }
    out
}

/// The store key of a segmented truth. The segment boundaries are part
/// of it, so the same benchmark measured with different `lens` gets
/// distinct entries.
fn truth_key(cb: &CompiledBenchmark, config: &MachineConfig, lens: &[u64]) -> CacheKey {
    CacheKey::new().field("spec", cb.spec()).field("config", config).field("lens", &lens)
}

/// The store key of a plan execution.
fn plan_key(
    cb: &CompiledBenchmark,
    config: &MachineConfig,
    plan: &SimulationPlan,
    mode: WarmupMode,
) -> CacheKey {
    CacheKey::new()
        .field("spec", cb.spec())
        .field("config", config)
        .field("mode", &mode)
        .field("plan", plan)
}

/// [`ground_truth_segmented`] and [`execute_plan`] for every plan, from
/// one detailed pass, with results bit-identical to the separate calls.
///
/// The pass measures the truth segments of `lens` and stops at each
/// block boundary where a plan's next point starts: the first boundary
/// at or past both the point's `start` and the end of the plan's
/// previous point, as `execute_plan`'s fast-forward lands. There it
/// simulates the point on a fork of the stream. With
/// [`WarmupMode::Cold`] the point starts from a fresh simulator. With
/// [`WarmupMode::Warmed`] it starts from the functional warm state of
/// its prefix, assembled without a warming traversal: the truth
/// simulator's L1s and branch unit, which functional warming would leave
/// identical, plus an [`L2Replica`] fed the truth's L2-bound traffic in
/// functional order until the last point has started (DESIGN.md
/// "Parallel execution" gives the exactness argument).
///
/// Points that start past the last truth boundary still run: the pass
/// simulates on, outside the truth, until each has started, and points
/// past the end of the trace come back empty as `execute_plan`'s do.
pub fn truth_and_plans(
    cb: &CompiledBenchmark,
    config: &MachineConfig,
    lens: &[u64],
    plans: &[&SimulationPlan],
    mode: WarmupMode,
) -> (Vec<SimMetrics>, Vec<ExecutionOutcome>) {
    fused_on(cb.program(), WorkloadStream::new(cb), config, lens, plans, mode)
}

/// [`truth_and_plans`] over any stream of `program` whose dynamic
/// blocks span their static blocks whole.
fn fused_on<S: InstructionStream + Clone>(
    program: &Program,
    mut stream: S,
    config: &MachineConfig,
    lens: &[u64],
    plans: &[&SimulationPlan],
    mode: WarmupMode,
) -> (Vec<SimMetrics>, Vec<ExecutionOutcome>) {
    let _span = mlpa_obs::span("core.truth.fused");
    mlpa_obs::add("core.truth.passes", 1);
    let mut sim = DetailedSim::new(*config, program);
    let mut points = PointStarts::new(program, config, plans, mode);
    points.start_due(&sim, &stream, false);
    let mut target = 0u64;
    let segments = lens
        .iter()
        .map(|&len| {
            target = target.saturating_add(len);
            let limit = target.saturating_sub(points.pos);
            sim.simulate_with(&mut stream, limit, &mut points)
        })
        .collect();
    while let Some(next) = points.next_target() {
        let limit = next - points.pos;
        if sim.simulate_with(&mut stream, limit, &mut points).instructions < limit {
            // The trace ended first: fast-forwarding would stop at its end.
            points.start_due(&sim, &stream, true);
        }
    }
    (segments, points.finish())
}

/// [`truth_and_plans`] behind the artifact cache, with `cache = None`
/// exactly [`truth_and_plans`]. Plans are stored under
/// [`execute_plan_cached`]'s keys, so either reuses the other's entries,
/// and the truth under the key segmented truths have always had. When
/// the store holds every entry nothing is simulated; otherwise one pass
/// runs the truth and the missing plans, and stores what was missing.
pub fn truth_and_plans_cached(
    cache: Option<&ArtifactCache>,
    cb: &CompiledBenchmark,
    config: &MachineConfig,
    lens: &[u64],
    plans: &[&SimulationPlan],
    mode: WarmupMode,
) -> (Vec<SimMetrics>, Vec<ExecutionOutcome>) {
    let Some(c) = cache else { return truth_and_plans(cb, config, lens, plans, mode) };
    let truth_key = truth_key(cb, config, lens);
    let plan_keys: Vec<CacheKey> = plans.iter().map(|p| plan_key(cb, config, p, mode)).collect();
    let stored_truth = c.get::<Vec<SimMetrics>>(&truth_key);
    let mut outcomes: Vec<Option<ExecutionOutcome>> =
        plan_keys.iter().map(|k| c.get::<ExecutionOutcome>(k)).collect();
    let missing: Vec<usize> = (0..plans.len()).filter(|&i| outcomes[i].is_none()).collect();
    let segments = match stored_truth {
        Some(segments) if missing.is_empty() => segments,
        stored => {
            let todo: Vec<&SimulationPlan> = missing.iter().map(|&i| plans[i]).collect();
            let (segments, fresh) = truth_and_plans(cb, config, lens, &todo, mode);
            if stored.is_none() {
                c.put(&truth_key, &segments);
            }
            for (&i, out) in missing.iter().zip(fresh) {
                c.put(&plan_keys[i], &out);
                outcomes[i] = Some(out);
            }
            segments
        }
    };
    (segments, outcomes.into_iter().map(|o| o.expect("every plan executed")).collect())
}

/// One plan's progress through a [`truth_and_plans`] pass.
struct PlanCursor<'a> {
    plan: &'a SimulationPlan,
    /// Index of the next point to start.
    next: usize,
    /// Where the previous point's simulation ended (0 before the first).
    end: u64,
    per_point: Vec<SimMetrics>,
    cost: ExecutionCost,
}

impl PlanCursor<'_> {
    /// The position the next point waits for: its start, or the end of
    /// the previous point when that overshot it.
    fn target(&self) -> Option<u64> {
        self.plan.points().get(self.next).map(|p| p.start.max(self.end))
    }
}

/// The [`RegionVisitor`] of a [`truth_and_plans`] pass: tracks the
/// pass's position, feeds the replica L2, and simulates every point
/// whose boundary the pass has reached.
struct PointStarts<'a> {
    program: &'a Program,
    config: MachineConfig,
    plans: Vec<PlanCursor<'a>>,
    /// Instructions the pass has simulated so far.
    pos: u64,
    /// The smallest target over the plans; `u64::MAX` once every point
    /// has started.
    due: u64,
    /// Warmed mode: the functional-order L2, fed until the last point
    /// has started.
    replica: Option<L2Replica>,
    /// Warmed mode: the point snapshot, refilled in place at every point.
    snapshot: Option<(MemoryHierarchy, BranchUnit)>,
    /// Reports the point simulations as the `plan` pool's jobs, as
    /// [`execute_plan`] does.
    worker: mlpa_obs::Worker,
}

impl<'a> PointStarts<'a> {
    fn new(
        program: &'a Program,
        config: &MachineConfig,
        plans: &[&'a SimulationPlan],
        mode: WarmupMode,
    ) -> PointStarts<'a> {
        let plans: Vec<PlanCursor<'a>> = plans
            .iter()
            .map(|&plan| PlanCursor {
                plan,
                next: 0,
                end: 0,
                per_point: Vec::with_capacity(plan.len()),
                cost: ExecutionCost::default(),
            })
            .collect();
        let warmed = mode == WarmupMode::Warmed && !plans.is_empty();
        let mut starts = PointStarts {
            program,
            config: *config,
            plans,
            pos: 0,
            due: 0,
            replica: warmed.then(|| L2Replica::new(config)),
            snapshot: warmed
                .then(|| (MemoryHierarchy::new(config), BranchUnit::new(&config.predictor))),
            worker: mlpa_obs::worker("plan", 0),
        };
        starts.refresh_due();
        starts
    }

    fn next_target(&self) -> Option<u64> {
        self.plans.iter().filter_map(PlanCursor::target).min()
    }

    fn refresh_due(&mut self) {
        self.due = self.next_target().unwrap_or(u64::MAX);
        if self.due == u64::MAX {
            // Every point has started: nothing reads the warm state again.
            self.replica = None;
            self.snapshot = None;
        }
    }

    /// Simulate every point whose target the pass has reached (every
    /// remaining point when `at_end`, the trace having ended), with
    /// `sim` and `stream` stopped at the pass's position.
    fn start_due<S: InstructionStream + Clone>(
        &mut self,
        sim: &DetailedSim<'_>,
        stream: &S,
        at_end: bool,
    ) {
        for c in 0..self.plans.len() {
            while let Some(target) = self.plans[c].target() {
                if target > self.pos && !at_end {
                    break;
                }
                let i = self.plans[c].next;
                let len = self.plans[c].plan.points()[i].len;
                let m = self.simulate_point(sim, stream, i, len);
                let cursor = &mut self.plans[c];
                cursor.cost.functional_insts += self.pos - cursor.end;
                cursor.cost.detailed_insts += m.instructions;
                cursor.per_point.push(m);
                cursor.end = self.pos + m.instructions;
                cursor.next += 1;
            }
        }
        self.refresh_due();
    }

    /// Simulate point `i` of a plan for `len` instructions on a fork of
    /// `stream`, from the state its warmup mode defines.
    fn simulate_point<S: InstructionStream + Clone>(
        &mut self,
        sim: &DetailedSim<'_>,
        stream: &S,
        i: usize,
        len: u64,
    ) -> SimMetrics {
        let _span = mlpa_obs::span_labeled("core.plan.point", &format!("point {i}"));
        let (config, program) = (self.config, self.program);
        let (replica, snapshot) = (&self.replica, &mut self.snapshot);
        self.worker.busy(|| {
            let mut fork = stream.clone();
            let Some(replica) = replica else {
                return DetailedSim::new(config, program).simulate(&mut fork, len);
            };
            let (mut hier, mut bu) = snapshot.take().expect("snapshot returned");
            replica.snapshot_into(sim.hierarchy(), &mut hier);
            bu.clone_from(sim.branch_unit());
            let mut point = DetailedSim::with_warm_state(config, program, hier, bu);
            let m = point.simulate(&mut fork, len);
            *snapshot = Some(point.into_warm_state());
            m
        })
    }

    fn finish(self) -> Vec<ExecutionOutcome> {
        self.plans
            .into_iter()
            .map(|c| {
                let estimate = SimMetrics::weighted_estimate(
                    c.plan.points().iter().zip(&c.per_point).map(|(p, m)| (p.weight, *m)),
                );
                if mlpa_obs::is_enabled() {
                    mlpa_obs::add("core.plan.points", c.plan.len() as u64);
                    mlpa_obs::add("core.plan.functional_insts", c.cost.functional_insts);
                    mlpa_obs::add("core.plan.detailed_insts", c.cost.detailed_insts);
                }
                ExecutionOutcome { estimate, per_point: c.per_point, cost: c.cost }
            })
            .collect()
    }
}

impl L2Hook for PointStarts<'_> {
    #[inline]
    fn fetch_miss(&mut self, line: u64) {
        if let Some(r) = &mut self.replica {
            r.fetch_miss(line);
        }
    }

    #[inline]
    fn data_op(&mut self, op: L2Op) {
        if let Some(r) = &mut self.replica {
            r.data_op(op);
        }
    }
}

impl<S: InstructionStream + Clone> RegionVisitor<S> for PointStarts<'_> {
    #[inline]
    fn block_end(&mut self, sim: &DetailedSim<'_>, stream: &S, insts: u64) {
        self.pos += insts;
        if let Some(r) = &mut self.replica {
            r.block_end(sim, stream, insts);
        }
        if self.due <= self.pos {
            self.start_due(sim, stream, false);
        }
    }
}

/// Execute a plan that did not come from profiling this benchmark in
/// this process — e.g. one loaded via [`crate::files::load`] — after
/// verifying it actually belongs to this trace.
///
/// A plan file records only its `total=` instruction count, so nothing
/// stops it from being replayed against a benchmark whose trace length
/// differs; the weights would then silently misrepresent the program
/// and produce wrong-but-plausible metrics. Nor does it stop a point
/// from starting inside a block: fast-forwarding stops at block
/// boundaries, so such a point silently starts at the next boundary,
/// and its metrics depend on the other points' ends instead of its
/// start alone. This entry point walks the stream's metadata once
/// (control-flow draws only, no instruction materialisation, as
/// [`crate::pipeline::trace_insts`]), measuring the trace length and
/// finding the block boundaries around every point's start, and refuses
/// to execute on a mismatch.
///
/// # Errors
///
/// Returns an error naming both lengths when `plan.total_insts()` does
/// not equal the benchmark's trace length, or naming the first point
/// that starts inside a block and the block boundaries on either side
/// of its start.
pub fn execute_plan_checked(
    cb: &CompiledBenchmark,
    config: &MachineConfig,
    plan: &SimulationPlan,
    mode: WarmupMode,
) -> Result<ExecutionOutcome, String> {
    let (actual, unaligned) = walk_point_starts(cb, plan);
    if plan.total_insts() != actual {
        return Err(format!(
            "plan/trace mismatch: plan covers total={} instructions but benchmark {} \
             generates {actual}; this plan belongs to a different benchmark or scale",
            plan.total_insts(),
            cb.spec().name,
        ));
    }
    if let Some((i, before, after)) = unaligned {
        return Err(format!(
            "plan point {i} starts at instruction {} inside a block of benchmark {}, \
             between the block boundaries at {before} and {after}; every point must \
             start at a block boundary",
            plan.points()[i].start,
            cb.spec().name,
        ));
    }
    Ok(execute_plan(cb, config, plan, mode))
}

/// One metadata walk of `cb`'s trace: its length, and the first point of
/// `plan` that starts inside a block, with the block boundaries before
/// and after its start.
fn walk_point_starts(
    cb: &CompiledBenchmark,
    plan: &SimulationPlan,
) -> (u64, Option<(usize, u64, u64)>) {
    let _span = mlpa_obs::span("core.profile.trace_len");
    let mut walk = crate::pipeline::MetaWalk::new(cb);
    // Points are sorted by start, so one cursor follows the walk.
    let mut points = plan.points().iter().enumerate().peekable();
    let mut unaligned = None;
    let mut boundary = 0u64;
    while walk.next_before(u64::MAX).is_some() {
        let next = walk.pos();
        while let Some((i, p)) = points.next_if(|(_, p)| p.start < next) {
            if p.start != boundary && unaligned.is_none() {
                unaligned = Some((i, boundary, next));
            }
        }
        boundary = next;
    }
    (boundary, unaligned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanPoint;
    use mlpa_isa::stream::SliceStream;
    use mlpa_isa::{BlockId, Instruction};
    use mlpa_workloads::spec::{BenchmarkSpec, ScriptEntry};

    fn cb() -> CompiledBenchmark {
        // A working set with genuine L2 traffic so the L2 metrics are
        // informative.
        use mlpa_workloads::behavior::{InstMix, MemoryPattern};
        use mlpa_workloads::spec::{BlockSpec, PhaseSpec};
        CompiledBenchmark::compile(&BenchmarkSpec {
            phases: vec![PhaseSpec {
                blocks: vec![
                    BlockSpec {
                        mix: InstMix { load: 0.35, store: 0.1, ..InstMix::default() },
                        mem: MemoryPattern::RandomInSet { working_set: 128 * 1024 },
                        ..BlockSpec::default()
                    },
                    BlockSpec::default(),
                ],
                ..PhaseSpec::default()
            }],
            script: vec![ScriptEntry::new(0, 60_000); 5],
            ..BenchmarkSpec::default()
        })
        .unwrap()
    }

    /// Like [`cb`] but ~6× longer, so whole-run truth is dominated by
    /// steady state rather than the warmup ramp.
    fn long_cb() -> CompiledBenchmark {
        let short = cb();
        CompiledBenchmark::compile(&BenchmarkSpec {
            script: vec![ScriptEntry::new(0, 60_000); 30],
            ..short.spec().clone()
        })
        .unwrap()
    }

    fn plan_of(cb: &CompiledBenchmark, frac: &[(f64, f64, f64)]) -> SimulationPlan {
        // (start_frac, len_frac, weight) over the actual trace length.
        let total = ground_truth_len(cb);
        SimulationPlan::new(
            frac.iter()
                .map(|&(s, l, w)| PlanPoint {
                    start: (total as f64 * s) as u64,
                    len: ((total as f64 * l) as u64).max(1_000),
                    weight: w,
                })
                .collect(),
            total,
        )
        .unwrap()
    }

    fn ground_truth_len(cb: &CompiledBenchmark) -> u64 {
        let mut f = FunctionalSim::new(cb.program());
        f.run(WorkloadStream::new(cb), &mut ()).instructions
    }

    /// The first block boundary at or past instruction `pos`.
    fn boundary_at(cb: &CompiledBenchmark, pos: u64) -> u64 {
        FunctionalSim::new(cb.program()).fast_forward(
            &mut WorkloadStream::new(cb),
            pos,
            &mut (),
            None,
        )
    }

    /// Regression (plan/trace mismatch): a plan saved from one
    /// benchmark and loaded via `files::load` carries only `total=` in
    /// its header, so nothing used to stop it from executing against a
    /// benchmark whose trace length differs — silently misweighted,
    /// wrong-but-plausible metrics. The checked entry point must refuse
    /// the pair and accept the matching one. Its points start at block
    /// boundaries; shifted one instruction into a block, the plan is
    /// refused too.
    #[test]
    fn checked_execution_rejects_plan_from_different_benchmark() {
        let short = cb();
        let long = long_cb();
        let total = ground_truth_len(&short);
        let starts = [boundary_at(&short, total / 10), boundary_at(&short, total / 10 * 6)];
        let len = total / 20;
        let aligned = plan(&[(starts[0], len), (starts[1], len)], total);

        // Round-trip through the on-disk format, as a real cross-run
        // reuse would.
        let dir = std::env::temp_dir().join("mlpa-checked-exec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.txt");
        crate::files::save(&aligned, &path).unwrap();
        let loaded = crate::files::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let config = MachineConfig::table1_base();
        let err = execute_plan_checked(&long, &config, &loaded, WarmupMode::Warmed)
            .expect_err("mismatched plan accepted");
        assert!(err.contains("mismatch"), "unclear error: {err}");
        assert!(
            err.contains(&loaded.total_insts().to_string()),
            "error must name the plan total: {err}"
        );

        // The matching benchmark executes and agrees with the unchecked
        // path exactly.
        let checked = execute_plan_checked(&short, &config, &loaded, WarmupMode::Warmed)
            .expect("matching plan rejected");
        let unchecked = execute_plan(&short, &config, &loaded, WarmupMode::Warmed);
        assert_eq!(checked, unchecked);

        // One instruction later, the second point starts inside the
        // block that begins at its old start.
        let after = boundary_at(&short, starts[1] + 1);
        let shifted = plan(&[(starts[0], len), (starts[1] + 1, len)], total);
        let err = execute_plan_checked(&short, &config, &shifted, WarmupMode::Warmed)
            .expect_err("unaligned plan accepted");
        assert!(err.contains("point 1"), "error must name the point: {err}");
        assert!(err.contains(&format!("{}", starts[1] + 1)), "error must name the start: {err}");
        assert!(err.contains(&format!("at {} and ", starts[1])), "boundary before: {err}");
        assert!(err.contains(&format!("and {after};")), "boundary after: {err}");
    }

    /// The cached execution wrappers are exact: a warm lookup returns
    /// bit-identical results to the computation that stored it, and
    /// `cache = None` degrades to the plain paths.
    #[test]
    fn cached_wrappers_roundtrip_exactly() {
        let bench = cb();
        let config = MachineConfig::table1_base();
        let plan = plan_of(&bench, &[(0.1, 0.05, 0.5), (0.6, 0.05, 0.5)]);
        let root =
            std::env::temp_dir().join(format!("mlpa-estimate-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = crate::cache::ArtifactCache::open(&root).unwrap();
        let c = Some(&cache);

        let lens = [100_000u64, 100_000, 100_000];
        let plans = [&plan];
        let fused_cold =
            truth_and_plans_cached(c, &bench, &config, &lens, &plans, WarmupMode::Warmed);
        let fused_warm =
            truth_and_plans_cached(c, &bench, &config, &lens, &plans, WarmupMode::Warmed);
        assert_eq!(fused_cold, fused_warm);
        assert_eq!(
            fused_cold,
            truth_and_plans_cached(None, &bench, &config, &lens, &plans, WarmupMode::Warmed)
        );
        assert_eq!(fused_cold.0, ground_truth_segmented(&bench, &config, &lens));
        let _ = std::fs::remove_dir_all(&root);
        let cache = crate::cache::ArtifactCache::open(&root).unwrap();
        let c = Some(&cache);

        let exec_cold = execute_plan_cached(c, &bench, &config, &plan, WarmupMode::Warmed);
        let exec_warm = execute_plan_cached(c, &bench, &config, &plan, WarmupMode::Warmed);
        assert_eq!(exec_cold, exec_warm);
        assert_eq!(exec_cold, execute_plan(&bench, &config, &plan, WarmupMode::Warmed));

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cost_matches_plan_accounting() {
        let cb = cb();
        let plan = plan_of(&cb, &[(0.1, 0.05, 0.5), (0.5, 0.05, 0.5)]);
        let out = execute_plan(&cb, &MachineConfig::table1_base(), &plan, WarmupMode::Cold);
        // Executed counts match the plan's theoretical accounting up to
        // block-boundary overshoot.
        let tol = 500;
        assert!(
            out.cost.detailed_insts.abs_diff(plan.detailed_insts()) < tol,
            "detailed {} vs plan {}",
            out.cost.detailed_insts,
            plan.detailed_insts()
        );
        assert!(
            out.cost.functional_insts.abs_diff(plan.functional_insts()) < tol,
            "functional {} vs plan {}",
            out.cost.functional_insts,
            plan.functional_insts()
        );
        assert_eq!(out.per_point.len(), 2);
    }

    #[test]
    fn single_phase_estimate_tracks_ground_truth() {
        // One phase, homogeneous behaviour: a single decent-sized warmed
        // sample should estimate CPI within a few percent. The benchmark
        // must be long enough that the initial cache-warmup ramp (which
        // a mid-run sample deliberately excludes) is a small share of
        // the whole-run truth.
        let cb = long_cb();
        let truth = ground_truth(&cb, &MachineConfig::table1_base()).estimate();
        let plan = plan_of(&cb, &[(0.3, 0.2, 1.0)]);
        let out = execute_plan(&cb, &MachineConfig::table1_base(), &plan, WarmupMode::Warmed);
        let dev = out.estimate.deviation_from(&truth);
        assert!(dev.cpi < 0.10, "CPI deviation {:.3}", dev.cpi);
        assert!(dev.l1_hit_rate < 0.05, "L1 deviation {:.3}", dev.l1_hit_rate);
    }

    #[test]
    fn warming_reduces_cold_start_bias_on_tiny_points() {
        let cb = cb();
        let truth = ground_truth(&cb, &MachineConfig::table1_base()).estimate();
        // Many tiny points: cold-start bias should be visible.
        let total = ground_truth_len(&cb);
        let tiny: Vec<PlanPoint> = (0..8)
            .map(|i| PlanPoint { start: total / 10 * (i + 1), len: 2_000, weight: 0.125 })
            .collect();
        let plan = SimulationPlan::new(tiny, total).unwrap();
        let cold = execute_plan(&cb, &MachineConfig::table1_base(), &plan, WarmupMode::Cold);
        let warm = execute_plan(&cb, &MachineConfig::table1_base(), &plan, WarmupMode::Warmed);
        let cold_dev = cold.estimate.deviation_from(&truth);
        let warm_dev = warm.estimate.deviation_from(&truth);
        assert!(
            warm_dev.cpi <= cold_dev.cpi + 0.01,
            "warming should not hurt: cold {:.3} warm {:.3}",
            cold_dev.cpi,
            warm_dev.cpi
        );
        assert!(
            warm_dev.l2_hit_rate <= cold_dev.l2_hit_rate + 0.01,
            "L2: cold {:.3} warm {:.3}",
            cold_dev.l2_hit_rate,
            warm_dev.l2_hit_rate
        );
    }

    /// The segmented pass is an exact refinement of the single-pass
    /// truth: summing every per-segment statistic telescopes to the
    /// whole-run result, field for field.
    #[test]
    fn segmented_truth_telescopes_to_ground_truth() {
        let cb = cb();
        let config = MachineConfig::table1_base();
        let whole = ground_truth(&cb, &config);
        let total = ground_truth_len(&cb);
        // Uneven segments plus a catch-all tail past the trace end.
        let lens = [total / 7, total / 3, total / 5, u64::MAX];
        let segs = ground_truth_segmented(&cb, &config, &lens);
        assert_eq!(segs.len(), lens.len());
        let mut sum = SimMetrics::default();
        for s in &segs {
            sum += *s;
        }
        assert_eq!(sum, whole, "segment sums must telescope exactly");
        // Each bounded segment landed at (or just past) its target.
        assert!(segs[0].instructions >= lens[0]);
    }

    /// Segments whose cumulative target is already covered (zero
    /// length, or a trace that ended early) come back empty rather
    /// than stealing instructions from their successors.
    #[test]
    fn segmented_truth_handles_empty_segments() {
        let cb = cb();
        let config = MachineConfig::table1_base();
        let total = ground_truth_len(&cb);
        let segs = ground_truth_segmented(&cb, &config, &[total / 2, 0, u64::MAX, 1_000]);
        assert_eq!(segs[1], SimMetrics::default(), "zero-length segment is empty");
        assert_eq!(segs[3], SimMetrics::default(), "past-the-end segment is empty");
        let sum: u64 = segs.iter().map(|s| s.instructions).sum();
        assert_eq!(sum, ground_truth(&cb, &config).instructions);
    }

    /// A benchmark with real L2 traffic under both Table I configs: a
    /// random working set between their L2 sizes, with stores, so L2
    /// lines go dirty and write back.
    fn l2_cb() -> CompiledBenchmark {
        use mlpa_workloads::behavior::{InstMix, MemoryPattern};
        use mlpa_workloads::spec::{BlockSpec, PhaseSpec};
        CompiledBenchmark::compile(&BenchmarkSpec {
            phases: vec![PhaseSpec {
                blocks: vec![
                    BlockSpec {
                        mix: InstMix { load: 0.35, store: 0.15, ..InstMix::default() },
                        mem: MemoryPattern::RandomInSet { working_set: 1536 * 1024 },
                        ..BlockSpec::default()
                    },
                    BlockSpec::default(),
                ],
                ..PhaseSpec::default()
            }],
            script: vec![ScriptEntry::new(0, 60_000); 5],
            ..BenchmarkSpec::default()
        })
        .unwrap()
    }

    /// A plan of `(start, len)` points with equal weights.
    fn plan(points: &[(u64, u64)], total: u64) -> SimulationPlan {
        let w = 1.0 / points.len() as f64;
        let points = points.iter().map(|&(start, len)| PlanPoint { start, len, weight: w });
        SimulationPlan::new(points.collect(), total).unwrap()
    }

    /// Three plans over a `total`-instruction trace: a point at 0, an
    /// adjacent point the first one's block overshoot pushes back, a
    /// point two plans share, and a point near the end.
    fn plans(total: u64) -> [SimulationPlan; 3] {
        [
            plan(&[(0, 5_000), (5_000, 3_000), (60_000, 10_000), (total / 2, 20_000)], total),
            plan(&[(60_000, 10_000), (100_000, 1_000), (total - 8_000, 5_000)], total),
            plan(&[(130_000, 30_000)], total),
        ]
    }

    /// [`truth_and_plans`] over `stream` must equal the separate calls it
    /// replaces, field by field.
    fn assert_fused_exact<S: InstructionStream + Clone>(
        program: &Program,
        stream: &S,
        config: &MachineConfig,
        lens: &[u64],
        plans: &[&SimulationPlan],
        mode: WarmupMode,
    ) {
        let (segments, outcomes) = fused_on(program, stream.clone(), config, lens, plans, mode);
        assert_eq!(segments, segmented_on(program, stream.clone(), config, lens), "segments");
        assert_eq!(outcomes.len(), plans.len());
        for (i, (got, plan)) in outcomes.iter().zip(plans).enumerate() {
            let want = execute_on(program, stream.clone(), config, plan, mode, None);
            assert_eq!(got.per_point.len(), plan.len(), "plan {i} kept every point");
            assert_eq!(got.per_point, want.per_point, "plan {i} per-point metrics");
            assert_eq!(got.cost, want.cost, "plan {i} cost");
            assert_eq!(got.estimate, want.estimate, "plan {i} estimate");
        }
    }

    fn check_on_cb(cb: &CompiledBenchmark, config: &MachineConfig, lens: &[u64], mode: WarmupMode) {
        let total = ground_truth_len(cb);
        let plans = plans(total);
        let plans = plans.each_ref();
        assert_fused_exact(cb.program(), &WorkloadStream::new(cb), config, lens, &plans, mode);
    }

    fn coarse_lens(total: u64) -> [u64; 3] {
        [total / 5, total / 3, u64::MAX]
    }

    #[test]
    fn fused_pass_is_exact_under_both_table1_configs() {
        let cb = l2_cb();
        let lens = coarse_lens(ground_truth_len(&cb));
        for config in [MachineConfig::table1_base(), MachineConfig::table1_sensitivity()] {
            check_on_cb(&cb, &config, &lens, WarmupMode::Warmed);
        }
    }

    #[test]
    fn fused_pass_is_exact_with_next_line_prefetch() {
        let cb = l2_cb();
        let lens = coarse_lens(ground_truth_len(&cb));
        let mut config = MachineConfig::table1_base();
        config.prefetch = mlpa_sim::config::PrefetchPolicy::NextLine;
        check_on_cb(&cb, &config, &lens, WarmupMode::Warmed);
    }

    #[test]
    fn fused_pass_is_exact_in_cold_mode() {
        let cb = l2_cb();
        let lens = coarse_lens(ground_truth_len(&cb));
        for config in [MachineConfig::table1_base(), MachineConfig::table1_sensitivity()] {
            check_on_cb(&cb, &config, &lens, WarmupMode::Cold);
        }
    }

    /// Truth segments that end before the last points still leave every
    /// point simulated, exactly, in both modes: the pass runs on past
    /// the truth until each point has started.
    #[test]
    fn fused_pass_is_exact_when_truth_stops_before_the_last_point() {
        let cb = l2_cb();
        let total = ground_truth_len(&cb);
        let config = MachineConfig::table1_base();
        for lens in [&[total / 4][..], &[total / 4, 0], &[]] {
            for mode in [WarmupMode::Warmed, WarmupMode::Cold] {
                check_on_cb(&cb, &config, lens, mode);
            }
        }
    }

    /// Points whose start the trace never reaches come back empty, as a
    /// fast-forward past the end leaves them.
    #[test]
    fn fused_pass_is_exact_for_points_past_the_trace_end() {
        let cb = l2_cb();
        let total = ground_truth_len(&cb);
        let config = MachineConfig::table1_base();
        // Claim a longer trace so points can lie past the real end.
        let late =
            plan(&[(total / 2, 10_000), (total + 1_000, 1_000), (total + 5_000, 1_000)], 2 * total);
        for mode in [WarmupMode::Warmed, WarmupMode::Cold] {
            let stream = WorkloadStream::new(&cb);
            assert_fused_exact(cb.program(), &stream, &config, &[u64::MAX], &[&late], mode);
        }
    }

    /// A program of three blocks that call, return and jump, and 12,000
    /// rounds of them with loads and stores on the way.
    fn calls_trace() -> (Program, Vec<(BlockId, Vec<Instruction>)>) {
        use mlpa_isa::rng::SplitMix64;
        use mlpa_isa::{BranchKind, OpClass, ProgramBuilder, Reg};

        let mut b = ProgramBuilder::new("calls");
        let (main, cont, callee) = (b.add_block(9), b.add_block(9), b.add_block(9));
        let program = b.finish();
        let mut rng = SplitMix64::new(0xCA11);
        let mut block = |tail: Instruction| {
            let mut insts: Vec<Instruction> = (0..8u8)
                .map(|i| {
                    let addr = (0x1000_0000 + rng.range_u64(512 * 1024)) & !7;
                    match i % 4 {
                        0 => Instruction::load(Reg::int(8 + i), Reg::int(1), addr),
                        1 => Instruction::store(Reg::int(2), Reg::int(1), addr),
                        _ => Instruction::alu(
                            OpClass::IntAlu,
                            Reg::int(8 + i),
                            [Reg::int(1), Reg::int(2)],
                        ),
                    }
                })
                .collect();
            insts.push(tail);
            insts
        };
        let mut trace = Vec::new();
        for _ in 0..12_000 {
            let call = block(Instruction::branch(BranchKind::Call, Reg::int(1), true, callee));
            let ret = block(Instruction::branch(BranchKind::Return, Reg::int(1), true, cont));
            let jump = block(Instruction::branch(BranchKind::Jump, Reg::int(1), true, main));
            trace.extend([(main, call), (callee, ret), (cont, jump)]);
        }
        (program, trace)
    }

    /// Config A with a small L2, so the loads and stores of
    /// [`calls_trace`] keep it turning over, and the same with caches so
    /// small that every block's fetches miss and meet its data accesses
    /// in the same L2 sets, so the order they reach the L2 in decides
    /// its state.
    fn small_and_tiny() -> [MachineConfig; 2] {
        let mut small = MachineConfig::table1_base();
        small.l2 = mlpa_sim::CacheConfig { size: 64 * 1024, assoc: 4, line: 32, latency: 20 };
        let mut tiny = small;
        tiny.icache = mlpa_sim::CacheConfig { size: 64, assoc: 1, line: 32, latency: 1 };
        tiny.dcache = mlpa_sim::CacheConfig { size: 128, assoc: 2, line: 32, latency: 1 };
        tiny.l2 = mlpa_sim::CacheConfig { size: 512, assoc: 2, line: 32, latency: 10 };
        [small, tiny]
    }

    /// The suite emits no calls, but the pass takes its warm branch unit
    /// from the detailed simulator: a trace of calls and returns pins it
    /// to what functional warming gives (a warmed call pushes its return
    /// address), with L2 traffic from loads and stores on the way.
    #[test]
    fn fused_pass_is_exact_across_calls_and_returns() {
        let (program, trace) = calls_trace();
        let total = trace.len() as u64 * 9;
        let plans = plans(total);
        let plans = plans.each_ref();
        let stream = SliceStream::new(&trace);
        for config in small_and_tiny() {
            for mode in [WarmupMode::Warmed, WarmupMode::Cold] {
                assert_fused_exact(&program, &stream, &config, &coarse_lens(total), &plans, mode);
            }
        }
    }

    /// Warmed plan execution with its cache stage forced inline and
    /// forced onto a helper must give equal outcomes for every plan.
    fn assert_schedules_agree<S: InstructionStream + Clone>(
        program: &Program,
        stream: &S,
        config: &MachineConfig,
        plans: &[SimulationPlan],
    ) {
        for (i, plan) in plans.iter().enumerate() {
            let run = |workers| {
                execute_on(program, stream.clone(), config, plan, WarmupMode::Warmed, Some(workers))
            };
            assert_eq!(run(2), run(1), "plan {i}, l2 {:?}", config.l2);
        }
    }

    /// The two stages give the same outcomes on a helper and inline:
    /// under both Table I configs, with next-line prefetch, with caches
    /// small enough that a block's I-lines and its data meet in the same
    /// L2 sets, and across calls and returns.
    #[test]
    fn warmed_execution_is_exact_on_a_helper_and_inline() {
        use mlpa_sim::config::PrefetchPolicy;
        let cb = l2_cb();
        let [small, tiny] = small_and_tiny();
        let mut prefetching = MachineConfig::table1_base();
        prefetching.prefetch = PrefetchPolicy::NextLine;
        let tiny_prefetching = MachineConfig { prefetch: PrefetchPolicy::NextLine, ..tiny };
        let configs = [
            MachineConfig::table1_base(),
            MachineConfig::table1_sensitivity(),
            prefetching,
            tiny_prefetching,
        ];
        let cb_plans = plans(ground_truth_len(&cb));
        for config in &configs {
            assert_schedules_agree(cb.program(), &WorkloadStream::new(&cb), config, &cb_plans);
        }
        let (program, trace) = calls_trace();
        let trace_plans = plans(trace.len() as u64 * 9);
        for config in &[small, tiny] {
            assert_schedules_agree(&program, &SliceStream::new(&trace), config, &trace_plans);
        }
    }

    /// A data address at or above 2^62 does not fit a packed record. It
    /// must reach the cache whole and fail there with the serial walk's
    /// panic, never decode as a block record or as another address, on
    /// every schedule: a panic on the helper reaches the caller with its
    /// own message. Execution works as before afterwards.
    #[test]
    fn a_wide_data_address_fails_in_the_cache_on_every_schedule() {
        use mlpa_isa::Reg;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (program, mut trace) = calls_trace();
        let config = MachineConfig::table1_base();
        let total = trace.len() as u64 * 9;
        let late = plan(&[(total - 9_000, 1_000)], total);
        let clean = trace.clone();
        // A load a third of the way in, long before the point.
        let victim = trace.len() / 3;
        for wide in [1 << 62, 1 << 63 | 0x40, !7] {
            trace[victim].1[0] = Instruction::load(Reg::int(8), Reg::int(1), wide);
            let serial = catch_unwind(|| MemoryHierarchy::new(&config).warm_data(wide, false))
                .expect_err("the cache refuses a tag wider than 32 bits");
            let serial = panic_message(&*serial);
            assert!(serial.contains("wider than 32 bits"), "{serial}");
            for workers in [Some(1), Some(2), None] {
                let stream = SliceStream::new(&trace);
                let run =
                    || execute_on(&program, stream, &config, &late, WarmupMode::Warmed, workers);
                let payload =
                    catch_unwind(AssertUnwindSafe(run)).expect_err("a wide address warmed");
                assert_eq!(panic_message(&*payload), serial, "{workers:?} workers, {wide:#x}");
            }
        }
        let stream = SliceStream::new(&clean);
        let run = |workers| {
            execute_on(&program, stream.clone(), &config, &late, WarmupMode::Warmed, workers)
        };
        assert_eq!(run(None), run(Some(1)));
    }

    /// The cached twin shares its plan keys with `execute_plan_cached`:
    /// an entry either stored is reused, the rest is computed in one pass
    /// and stored, and a fully stored lane runs no pass at all.
    #[test]
    fn fused_cache_shares_the_separate_keys() {
        let _g = crate::testobs::counter_lock();
        let bench = l2_cb();
        let config = MachineConfig::table1_base();
        let total = ground_truth_len(&bench);
        let lens = coarse_lens(total);
        let plans = plans(total);
        let plans = plans.each_ref();
        let root =
            std::env::temp_dir().join(format!("mlpa-fused-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = crate::cache::ArtifactCache::open(&root).unwrap();
        let c = Some(&cache);
        let want = truth_and_plans(&bench, &config, &lens, &plans, WarmupMode::Warmed);

        // One plan stored by the separate call; the pass fills in the rest.
        let first = execute_plan_cached(c, &bench, &config, plans[0], WarmupMode::Warmed);
        assert_eq!(first, want.1[0]);
        let got = truth_and_plans_cached(c, &bench, &config, &lens, &plans, WarmupMode::Warmed);
        assert_eq!(got, want);
        // Everything is stored now, the plans under the separate call's
        // keys too.
        let passes = mlpa_obs::counter_value("core.truth.passes");
        let again = truth_and_plans_cached(c, &bench, &config, &lens, &plans, WarmupMode::Warmed);
        assert_eq!(again, want);
        for (plan, out) in plans.iter().zip(&want.1) {
            assert_eq!(&execute_plan_cached(c, &bench, &config, plan, WarmupMode::Warmed), out);
        }
        assert_eq!(
            mlpa_obs::counter_value("core.truth.passes"),
            passes,
            "all served from the store"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn ground_truth_is_deterministic() {
        let cb = cb();
        let a = ground_truth(&cb, &MachineConfig::table1_base());
        let b = ground_truth(&cb, &MachineConfig::table1_base());
        assert_eq!(a, b);
    }
}
