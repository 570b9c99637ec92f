//! The detailed cycle-level out-of-order simulator (the `sim-outorder`
//! analogue).
//!
//! The model is a trace-driven *timestamp-propagation* out-of-order
//! core: instructions are processed in program order, and for each one
//! the simulator computes the cycle it is fetched, dispatched, issued,
//! completed, and committed, subject to
//!
//! * fetch bandwidth and I-cache stalls,
//! * front-end depth and branch-misprediction redirects,
//! * ROB and LSQ occupancy (entry *i* cannot dispatch until entry
//!   *i − capacity* commits),
//! * register data dependences (ready-time propagation through the
//!   architectural register file),
//! * functional-unit pool contention (per-class busy-until tracking,
//!   unpipelined divides),
//! * D-cache/L2/memory latency for loads, and
//! * in-order commit at the configured width.
//!
//! This is the standard way to get cycle-level fidelity at trace speed;
//! it reproduces the microarchitectural sensitivities the sampling
//! methodology measures (CPI, cache hit rates, branch behaviour) while
//! staying fast enough to ground-truth whole benchmarks.
//!
//! # Kernel layout
//!
//! The per-instruction loop is written as a flat branch-light kernel
//! (see DESIGN.md "Detailed-sim kernel layout"): ROB/LSQ occupancy
//! rings are power-of-two sized and indexed by absolute instruction
//! counters with mask wraparound, functional-unit pools are fixed
//! arrays scanned argmin-replace with a fixed trip count, the register scoreboard
//! has a sentinel lane so operand reads skip `is_some()` tests, and the
//! per-block invariants (config fields, I-line mask, incremented PC)
//! live in locals. The naive formulation is retained in
//! [`crate::reference`] and property tests pin this implementation
//! byte-identical to it.

use crate::branch::BranchUnit;
use crate::cache::{HierarchyAccess, L2Hook, L2Replica, MemoryHierarchy};
use crate::config::{FuConfig, MachineConfig};
use crate::metrics::SimMetrics;
use mlpa_isa::program::INST_BYTES;
use mlpa_isa::stream::InstructionStream;
use mlpa_isa::{BlockId, FuClass, OpClass, Program, Reg};

/// Slots per pool: up to [`FuConfig::MAX_UNITS`] real units.
const POOL_SLOTS: usize = FuConfig::MAX_UNITS as usize;

/// Per-class functional-unit pools tracking when each unit frees up.
///
/// Each pool is a fixed *unsorted* array of keys packing
/// `busy_until << 6 | slot`, padded with `u64::MAX` past the real
/// units. Only the *multiset* of real busy-until times is observable
/// through [`FuPools::issue`] (the issue cycle depends on the pool
/// minimum alone, and allocating replaces one instance of that minimum
/// — a unit is picked by its free time, never by identity), so an
/// argmin-replace is exactly equivalent to the reference's linear
/// earliest-free scan, and padding slots can never win the argmin.
/// Keys are stored pre-packed because the argmin runs every
/// instruction while each slot is written at most once per instruction
/// — packing at scan time re-paid the shift/or per slot per scan.
/// Every class scans the same `scan` slots (the largest pool's unit
/// count), so the scan's trip count never changes between issues and
/// its loop branch stays perfectly predicted — both a sorted-insertion
/// scheme and per-class trip counts were tried first and mispredicted
/// on nearly every issue (see DESIGN.md).
#[derive(Debug, Clone)]
struct FuPools {
    /// `keys[class][..scan]` — unsorted `busy_until << 6 | slot` keys,
    /// `u64::MAX` padding beyond the class's real unit count.
    keys: [[u64; POOL_SLOTS]; 5],
    /// Uniform scan width: `max` over the per-class unit counts.
    scan: usize,
}

impl FuPools {
    fn new(cfg: &MachineConfig) -> FuPools {
        let lens = [
            cfg.fu.int_alu as usize,
            cfg.fu.int_muldiv as usize,
            cfg.fu.fp_add as usize,
            cfg.fu.fp_muldiv as usize,
            cfg.fu.load_store as usize,
        ];
        let mut keys = [[u64::MAX; POOL_SLOTS]; 5];
        for (pool, &n) in keys.iter_mut().zip(&lens) {
            for (i, k) in pool[..n].iter_mut().enumerate() {
                *k = i as u64; // busy-until 0, packed with the slot index
            }
        }
        FuPools { keys, scan: lens.into_iter().max().unwrap_or(1) }
    }

    fn class_index(class: FuClass) -> usize {
        match class {
            FuClass::IntAlu => 0,
            FuClass::IntMulDiv => 1,
            FuClass::FpAdd => 2,
            FuClass::FpMulDiv => 3,
            FuClass::LoadStore => 4,
        }
    }

    /// Allocate a unit of `class` no earlier than `ready`; returns the
    /// actual issue cycle. Pipelined ops occupy the unit one cycle;
    /// unpipelined ops occupy it for their full latency.
    #[inline]
    fn issue(&mut self, class: FuClass, ready: u64, occupy: u64) -> u64 {
        let c = Self::class_index(class);
        let pool = &mut self.keys[c];
        // First-strict-min argmin over the packed keys: a
        // single-variable min compiles to conditional moves (a
        // two-variable value+index argmin compiles to a data-dependent
        // branch that mispredicts on nearly every issue), and on equal
        // times the lower slot wins, exactly like a strict-`<` scan.
        // Cycle counts stay far below 2^58, so the shift cannot wrap,
        // and `u64::MAX` padding keys stay above every real key.
        //
        // Pools of ≤ 8 units (every realistic machine) reduce through a
        // fixed depth-3 min tree: a rolled loop is a loop-carried
        // dependence chain that serialises the whole simulator (the
        // IntAlu pool sits on the critical path of most instructions),
        // while the tree costs ~3 dependent min steps. The `scan == 8`
        // test is constant per machine, so the branch never mispredicts.
        let key = if self.scan <= 8 {
            let a = pool[0].min(pool[1]);
            let b = pool[2].min(pool[3]);
            let c2 = pool[4].min(pool[5]);
            let d = pool[6].min(pool[7]);
            a.min(b).min(c2.min(d))
        } else {
            let mut key = pool[0];
            for &k in pool.iter().take(self.scan).skip(1) {
                key = key.min(k);
            }
            key
        };
        let slot = key & 63;
        let start = ready.max(key >> 6);
        pool[slot as usize] = (start + occupy) << 6 | slot;
        start
    }
}

/// The detailed simulator. Owns the microarchitectural state (caches,
/// predictor) so that runs can be chained warm or started cold.
///
/// # Example
///
/// ```
/// use mlpa_sim::{DetailedSim, MachineConfig};
/// use mlpa_workloads::{spec::BenchmarkSpec, CompiledBenchmark, WorkloadStream};
///
/// let cb = CompiledBenchmark::compile(&BenchmarkSpec::default())?;
/// let mut sim = DetailedSim::new(MachineConfig::table1_base(), cb.program());
/// let m = sim.simulate(&mut WorkloadStream::new(&cb), 20_000);
/// assert!(m.cycles > 0);
/// assert!(m.cpi() > 0.125, "cannot beat the 8-wide commit bound");
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct DetailedSim<'p> {
    cfg: MachineConfig,
    program: &'p Program,
    hier: MemoryHierarchy,
    branch: BranchUnit,
    fu: FuPools,
    /// Register scoreboard indexed by [`Reg::lane`]: lanes 0..64 are the
    /// architectural files, lane 255 is the `Reg::NONE` sentinel and is
    /// pinned at 0 so operand reads and destination writes need no
    /// `is_some()` branch.
    reg_ready: [u64; 256],
    /// Commit-cycle ring for ROB occupancy: power-of-two capacity,
    /// indexed by the absolute instruction counter masked down. Entry
    /// `k mod P` holds the commit cycle of instruction `k`; instruction
    /// `k` stalls dispatch on the commit of instruction `k − rob_cap`.
    rob_ring: Vec<u64>,
    rob_mask: u64,
    /// Architectural ROB capacity (≤ ring length).
    rob_cap: u64,
    /// Commit-cycle ring for LSQ occupancy (memory ops only).
    lsq_ring: Vec<u64>,
    lsq_mask: u64,
    lsq_cap: u64,
    /// Instructions ever run through this simulator (ring cursor).
    insts_seen: u64,
    /// Memory instructions ever run (LSQ ring cursor).
    mems_seen: u64,
    fetch_cycle: u64,
    fetch_in_cycle: u32,
    last_commit_cycle: u64,
    commits_in_cycle: u32,
    redirect_at: u64,
    /// Last I-cache line fetched (to charge each line once).
    last_fetch_line: u64,
    /// `!(icache.line - 1)`, hoisted out of the fetch path.
    line_mask: u64,
}

impl<'p> DetailedSim<'p> {
    /// Create a cold simulator for `program` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`MachineConfig::validate`]).
    pub fn new(cfg: MachineConfig, program: &'p Program) -> DetailedSim<'p> {
        // Validate before building the caches, whose own check would
        // report a bad cache geometry without naming the machine config.
        cfg.validate().expect("invalid machine config");
        let (hier, branch) = (MemoryHierarchy::new(&cfg), BranchUnit::new(&cfg.predictor));
        DetailedSim::with_warm_state(cfg, program, hier, branch)
    }

    /// Create a simulator whose caches and branch predictor start from
    /// an existing functional-warming state instead of cold. The timing
    /// state (pipeline occupancy, cycle counters) starts cold and the
    /// first [`DetailedSim::simulate`] call zeroes the inherited
    /// statistics, so only the *contents* of the warm state carry over.
    ///
    /// Warmed plan execution installs a snapshot of its continuously
    /// warmed state here at every simulation point, and takes it back
    /// with [`DetailedSim::into_warm_state`] to refill in place for the
    /// next point.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`MachineConfig::validate`]).
    pub fn with_warm_state(
        cfg: MachineConfig,
        program: &'p Program,
        hier: MemoryHierarchy,
        branch: BranchUnit,
    ) -> DetailedSim<'p> {
        cfg.validate().expect("invalid machine config");
        DetailedSim {
            hier,
            branch,
            fu: FuPools::new(&cfg),
            reg_ready: [0; 256],
            rob_ring: vec![0; (cfg.rob_entries as usize).next_power_of_two()],
            rob_mask: (cfg.rob_entries as u64).next_power_of_two() - 1,
            rob_cap: u64::from(cfg.rob_entries),
            lsq_ring: vec![0; (cfg.lsq_entries as usize).next_power_of_two()],
            lsq_mask: (cfg.lsq_entries as u64).next_power_of_two() - 1,
            lsq_cap: u64::from(cfg.lsq_entries),
            insts_seen: 0,
            mems_seen: 0,
            fetch_cycle: 0,
            fetch_in_cycle: 0,
            last_commit_cycle: 0,
            commits_in_cycle: 0,
            redirect_at: 0,
            last_fetch_line: u64::MAX,
            line_mask: !(cfg.icache.line - 1),
            cfg,
            program,
        }
    }

    /// Give back the caches and branch predictor, e.g. to refill them
    /// for another [`DetailedSim::with_warm_state`].
    pub fn into_warm_state(self) -> (MemoryHierarchy, BranchUnit) {
        (self.hier, self.branch)
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The memory hierarchy.
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hier
    }

    /// The branch unit.
    pub fn branch_unit(&self) -> &BranchUnit {
        &self.branch
    }

    /// Simulate up to `limit` instructions from `stream` (to the block
    /// boundary at or past `limit`), returning the metrics of exactly
    /// this region. Microarchitectural state persists across calls;
    /// statistics do not.
    pub fn simulate<S: InstructionStream>(&mut self, stream: &mut S, limit: u64) -> SimMetrics {
        self.simulate_with(stream, limit, &mut ())
    }

    /// [`DetailedSim::simulate`] with `visitor` shown the region's L2
    /// traffic and each of its block boundaries (see [`RegionVisitor`]).
    /// The visitor only observes: the region and its metrics are exactly
    /// those of [`DetailedSim::simulate`].
    pub fn simulate_with<S, V>(&mut self, stream: &mut S, limit: u64, visitor: &mut V) -> SimMetrics
    where
        S: InstructionStream,
        V: RegionVisitor<S>,
    {
        let _span = mlpa_obs::span("sim.detailed");
        self.hier.reset_stats();
        self.branch.reset_stats();
        let start_cycle = self.last_commit_cycle;
        let mut m = SimMetrics::default();
        let mut buf = Vec::with_capacity(64);
        let mut tally = ObsTally::default();
        // One enablement load per region: every per-instruction obs site
        // below branches on this register-resident local, so with
        // collection off they cost a predicted-not-taken branch.
        let obs = mlpa_obs::is_enabled();

        while m.instructions < limit {
            let Some(id) = stream.next_block(&mut buf) else { break };
            self.run_block(id, &buf, &mut m, &mut tally, obs, visitor);
            visitor.block_end(self, stream, buf.len() as u64);
        }

        m.cycles = self.last_commit_cycle.saturating_sub(start_cycle).max(
            // At least one cycle per non-empty region.
            u64::from(m.instructions > 0),
        );
        m.l1d_hits = self.hier.l1d().hits();
        m.l1d_misses = self.hier.l1d().misses();
        m.l1i_hits = self.hier.l1i().hits();
        m.l1i_misses = self.hier.l1i().misses();
        m.l2_hits = self.hier.l2().hits();
        m.l2_misses = self.hier.l2().misses();
        m.branches = self.branch.predictions();
        m.mispredicts = self.branch.mispredictions();
        if obs {
            tally.finish_runs();
            mlpa_obs::add("sim.instructions", m.instructions);
            mlpa_obs::add("sim.cycles", m.cycles);
            mlpa_obs::add("sim.l1d.hits", m.l1d_hits);
            mlpa_obs::add("sim.l1d.misses", m.l1d_misses);
            mlpa_obs::add("sim.l1i.hits", m.l1i_hits);
            mlpa_obs::add("sim.l1i.misses", m.l1i_misses);
            mlpa_obs::add("sim.l2.hits", m.l2_hits);
            mlpa_obs::add("sim.l2.misses", m.l2_misses);
            mlpa_obs::add("sim.branches", m.branches);
            mlpa_obs::add("sim.mispredicts", m.mispredicts);
            mlpa_obs::add("sim.loads", m.loads);
            mlpa_obs::add("sim.stores", m.stores);
            mlpa_obs::add("sim.rob.samples", tally.samples);
            mlpa_obs::add("sim.rob.occupancy_sum", tally.rob_occupancy);
            mlpa_obs::add("sim.lsq.occupancy_sum", tally.lsq_occupancy);
            // Warmup-bias counters: misses concentrated in the first
            // 8192-instruction window of each detailed region measure
            // how much cold/warm start state skews short samples.
            mlpa_obs::add("sim.warmup.windows", tally.warmup_windows);
            mlpa_obs::add("sim.warmup.early_insts", tally.warmup_windows * 8192);
            mlpa_obs::add("sim.warmup.early_l1d_misses", tally.warmup_l1d_misses);
            mlpa_obs::add("sim.warmup.early_l2_misses", tally.warmup_l2_misses);
            mlpa_obs::hist_merge("sim.rob.occupancy", "n", &tally.rob);
            mlpa_obs::hist_merge("sim.lsq.occupancy", "n", &tally.lsq);
            mlpa_obs::hist_merge("sim.l1d.miss_run", "n", &tally.l1d_runs);
            mlpa_obs::hist_merge("sim.l2.miss_run", "n", &tally.l2_runs);
            // Live gauges for the telemetry sampler: the most recent
            // occupancy samples and this region's L1D hit rate (in
            // basis points, since gauges are integers). Regions too
            // short to sample occupancy leave the gauges untouched.
            if tally.samples > 0 {
                mlpa_obs::gauge_set("sim.rob.occupancy", tally.rob_last);
                mlpa_obs::gauge_set("sim.lsq.occupancy", tally.lsq_last);
            }
            if let Some(rate_bp) = (m.l1d_hits * 10_000).checked_div(m.l1d_hits + m.l1d_misses) {
                mlpa_obs::gauge_set("sim.l1d.hit_rate_bp", rate_bp);
            }
        }
        m
    }

    /// Count how many of the last `min(cap, seen)` ring entries commit
    /// beyond `now` — the occupancy the reference measures by scanning
    /// its whole `cap`-long ring (whose never-written slots hold 0 and
    /// can never exceed `now`).
    fn in_flight(ring: &[u64], mask: u64, cap: u64, seen: u64, now: u64) -> u64 {
        (seen.saturating_sub(cap)..seen).filter(|&k| ring[(k & mask) as usize] > now).count() as u64
    }

    fn run_block<K: L2Hook>(
        &mut self,
        id: BlockId,
        insts: &[mlpa_isa::Instruction],
        m: &mut SimMetrics,
        tally: &mut ObsTally,
        obs: bool,
        hook: &mut K,
    ) {
        let block = self.program.block(id);
        let fallthrough = BlockId::new(id.raw().saturating_add(1));
        // Per-block invariants and hot scalar state live in locals for
        // the duration of the loop; the state is written back below.
        let width = self.cfg.width;
        let frontend = u64::from(self.cfg.frontend_depth);
        let penalty = u64::from(self.cfg.predictor.mispredict_penalty);
        let line_mask = self.line_mask;
        let (rob_mask, rob_cap) = (self.rob_mask, self.rob_cap);
        let (lsq_mask, lsq_cap) = (self.lsq_mask, self.lsq_cap);
        let rob_ring = &mut self.rob_ring[..];
        let lsq_ring = &mut self.lsq_ring[..];
        let mut fetch_cycle = self.fetch_cycle;
        let mut fetch_in_cycle = self.fetch_in_cycle;
        let mut last_commit = self.last_commit_cycle;
        let mut commits_in_cycle = self.commits_in_cycle;
        let mut redirect_at = self.redirect_at;
        let mut last_fetch_line = self.last_fetch_line;
        let mut insts_seen = self.insts_seen;
        let mut mems_seen = self.mems_seen;

        let mut pc = block.addr;
        for inst in insts {
            // ---- Fetch ----
            if fetch_cycle < redirect_at {
                fetch_cycle = redirect_at;
                fetch_in_cycle = 0;
            }
            let line = pc & line_mask;
            if line != last_fetch_line {
                last_fetch_line = line;
                let stall = self.hier.fetch_with(line, hook);
                if stall > 0 {
                    fetch_cycle += u64::from(stall);
                    fetch_in_cycle = 0;
                }
            }
            if fetch_in_cycle == width {
                fetch_cycle += 1;
                fetch_in_cycle = 0;
            }
            fetch_in_cycle += 1;

            // ---- Dispatch (ROB/LSQ occupancy) ----
            // Instruction k waits on the commit of instruction k − cap;
            // before the ring wraps once, that slot was never written
            // and holds the initial 0. The LSQ bound is selected
            // branchlessly (the ring read is always in bounds; non-mem
            // instructions select 0).
            let is_mem = inst.is_mem();
            let lsq_edge = lsq_ring[(mems_seen.wrapping_sub(lsq_cap) & lsq_mask) as usize];
            let dispatch = (fetch_cycle + frontend)
                .max(rob_ring[(insts_seen.wrapping_sub(rob_cap) & rob_mask) as usize])
                .max(u64::from(is_mem) * lsq_edge);

            // ---- Issue (dependences + FU) ----
            // Sentinel-lane scoreboard: absent operands read lane 255,
            // which is pinned at 0 and never raises the max.
            let ready = dispatch
                .max(self.reg_ready[inst.srcs[0].lane()])
                .max(self.reg_ready[inst.srcs[1].lane()]);
            let occupy = if inst.op.pipelined() { 1 } else { u64::from(inst.op.latency()) };
            let issue = self.fu.issue(inst.op.fu(), ready, occupy);

            // ---- Execute ----
            // One data-dependent branch (`is_mem`) covers both memory
            // ops: stores retire through the store buffer (the cache is
            // updated but its latency is off the critical path), so
            // `complete` only adds the access latency for loads. A
            // three-arm match here costs an extra mispredicting branch.
            let complete = if is_mem {
                let is_store = inst.op == OpClass::Store;
                m.loads += u64::from(!is_store);
                m.stores += u64::from(is_store);
                let acc = self.hier.data_access_with(inst.addr, is_store, hook);
                if obs {
                    tally.data_access(acc);
                }
                issue + 1 + u64::from(!is_store) * u64::from(acc.latency)
            } else {
                issue + u64::from(inst.op.latency())
            };

            // Absent destinations write the sentinel lane, which is put
            // back to 0 immediately — no `is_some()` branch.
            self.reg_ready[inst.dst.lane()] = complete;
            self.reg_ready[Reg::NONE.lane()] = 0;

            // ---- Branch resolution ----
            if let Some(info) = &inst.branch {
                let correct = self.branch.resolve(pc, info, fallthrough);
                if !correct {
                    redirect_at = complete + penalty;
                }
            }

            // ---- Commit (in order, width-limited) ----
            // Branchless width accounting: with CPI well below 1 the
            // same-cycle test flips constantly and mispredicts as a
            // branch. `same` keeps counting in the current commit
            // cycle; `over` rolls into the next one. Equivalent to
            //   if same { if over { commit += 1; n = 1 } else { n += 1 } }
            //   else { n = 1 }
            let mut commit = (complete + 1).max(last_commit);
            let same = commit == last_commit;
            let over = same & (commits_in_cycle >= width);
            commit += u64::from(over);
            commits_in_cycle = 1 + u32::from(same & !over) * commits_in_cycle;
            last_commit = commit;

            rob_ring[(insts_seen & rob_mask) as usize] = commit;
            insts_seen = insts_seen.wrapping_add(1);
            if is_mem {
                lsq_ring[(mems_seen & lsq_mask) as usize] = commit;
                mems_seen = mems_seen.wrapping_add(1);
            }

            m.instructions += 1;
            // ROB/LSQ occupancy sampling every 8192 instructions: count
            // ring entries whose commit lies beyond this instruction's
            // dispatch cycle, i.e. how many older instructions were
            // still in flight when it entered the window. `obs` is a
            // register-resident local, so the check is branch-predicted
            // away while collection is off.
            if obs && m.instructions & 8191 == 0 {
                tally.samples += 1;
                let rob = Self::in_flight(rob_ring, rob_mask, rob_cap, insts_seen, dispatch);
                let lsq = Self::in_flight(lsq_ring, lsq_mask, lsq_cap, mems_seen, dispatch);
                tally.rob_occupancy += rob;
                tally.lsq_occupancy += lsq;
                tally.rob_last = rob;
                tally.lsq_last = lsq;
                tally.rob.record(rob);
                tally.lsq.record(lsq);
                if tally.samples == 1 {
                    // End of the first 8192-instruction window: the
                    // misses so far are the region's warmup bias.
                    tally.warmup_windows = 1;
                    tally.warmup_l1d_misses = self.hier.l1d().misses();
                    tally.warmup_l2_misses = self.hier.l2().misses();
                }
            }
            pc += INST_BYTES;
        }

        self.fetch_cycle = fetch_cycle;
        self.fetch_in_cycle = fetch_in_cycle;
        self.last_commit_cycle = last_commit;
        self.commits_in_cycle = commits_in_cycle;
        self.redirect_at = redirect_at;
        self.last_fetch_line = last_fetch_line;
        self.insts_seen = insts_seen;
        self.mems_seen = mems_seen;
    }
}

/// Hooks into a detailed region ([`DetailedSim::simulate_with`]): an
/// [`L2Hook`] on the simulator's hierarchy, plus a call at every block
/// boundary. The unit visitor sees nothing and compiles away, so
/// [`DetailedSim::simulate`] pays nothing for the hooks.
pub trait RegionVisitor<S: ?Sized>: L2Hook {
    /// Called after each block, with the simulator as it stands at the
    /// boundary and `stream` positioned just past the block; `insts` is
    /// the block's length.
    #[inline(always)]
    fn block_end(&mut self, _sim: &DetailedSim<'_>, _stream: &S, _insts: u64) {}
}

impl<S: ?Sized> RegionVisitor<S> for () {}

impl<S: ?Sized> RegionVisitor<S> for L2Replica {
    #[inline]
    fn block_end(&mut self, _sim: &DetailedSim<'_>, _stream: &S, _insts: u64) {
        self.end_block();
    }
}

/// Per-`simulate` obs accumulator (occupancy samples, cache miss-run
/// lengths, warmup-bias miss counts), flushed to the obs counters and
/// histograms once at the end of the call. Every use sits behind the
/// call's one hoisted `is_enabled()` check, so with collection off the
/// struct is only initialised, never touched.
#[derive(Debug, Default)]
struct ObsTally {
    samples: u64,
    rob_occupancy: u64,
    lsq_occupancy: u64,
    /// Most recent occupancy samples, flushed to the live gauges.
    rob_last: u64,
    lsq_last: u64,
    rob: mlpa_obs::HistTally,
    lsq: mlpa_obs::HistTally,
    /// Length of the in-progress consecutive L1D-miss run.
    l1d_run: u64,
    /// Length of the in-progress consecutive L2-miss run (counted over
    /// accesses that reach the L2, i.e. L1D misses).
    l2_run: u64,
    l1d_runs: mlpa_obs::HistTally,
    l2_runs: mlpa_obs::HistTally,
    warmup_windows: u64,
    warmup_l1d_misses: u64,
    warmup_l2_misses: u64,
}

impl ObsTally {
    /// Track consecutive-miss run lengths per level. A hit at a level
    /// closes that level's open run; L1 hits leave the L2 run untouched
    /// because the access never reached the L2.
    #[inline]
    fn data_access(&mut self, acc: HierarchyAccess) {
        if acc.l1_hit {
            if self.l1d_run > 0 {
                self.l1d_runs.record(self.l1d_run);
                self.l1d_run = 0;
            }
        } else {
            self.l1d_run += 1;
            if acc.l2_hit {
                if self.l2_run > 0 {
                    self.l2_runs.record(self.l2_run);
                    self.l2_run = 0;
                }
            } else {
                self.l2_run += 1;
            }
        }
    }

    /// Close any still-open miss runs at the end of the region so run
    /// totals cover every miss.
    fn finish_runs(&mut self) {
        if self.l1d_run > 0 {
            self.l1d_runs.record(self.l1d_run);
            self.l1d_run = 0;
        }
        if self.l2_run > 0 {
            self.l2_runs.record(self.l2_run);
            self.l2_run = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpa_isa::stream::SliceStream;
    use mlpa_isa::{BranchKind, Instruction, ProgramBuilder};
    use mlpa_workloads::behavior::{InstMix, MemoryPattern};
    use mlpa_workloads::spec::{BenchmarkSpec, BlockSpec, PhaseSpec, ScriptEntry};
    use mlpa_workloads::{CompiledBenchmark, WorkloadStream};

    /// A one-block program plus a trace of `n` repetitions of `insts`.
    fn straightline(
        insts: Vec<Instruction>,
        n: usize,
    ) -> (mlpa_isa::Program, Vec<(BlockId, Vec<Instruction>)>) {
        let mut b = ProgramBuilder::new("t");
        let id = b.add_block(insts.len() as u32);
        let prog = b.finish();
        let mut block = insts;
        // Give the block a terminator pointing at itself.
        let last = block.len() - 1;
        block[last] = Instruction::branch(BranchKind::Conditional, Reg::int(1), true, id);
        let trace = vec![(id, block); n];
        (prog, trace)
    }

    fn independent_alu_block(len: usize) -> Vec<Instruction> {
        (0..len)
            .map(|i| {
                Instruction::alu(
                    OpClass::IntAlu,
                    Reg::int(8 + (i % 16) as u8),
                    [Reg::int(1), Reg::int(2)],
                )
            })
            .collect()
    }

    #[test]
    fn wide_machine_reaches_high_ipc_on_independent_work() {
        let (prog, trace) = straightline(independent_alu_block(16), 500);
        let mut sim = DetailedSim::new(MachineConfig::table1_base(), &prog);
        let m = sim.simulate(&mut SliceStream::new(&trace), u64::MAX);
        assert_eq!(m.instructions, 16 * 500);
        let ipc = m.ipc();
        assert!(ipc > 3.0, "independent ALU work should flow wide, IPC {ipc:.2}");
        assert!(m.cpi() >= 1.0 / 8.0, "cannot exceed commit width");
    }

    #[test]
    fn dependence_chain_serialises() {
        // Each instruction depends on the previous one's result.
        let chain: Vec<Instruction> = (0..16)
            .map(|_| Instruction::alu(OpClass::IntAlu, Reg::int(8), [Reg::int(8), Reg::int(1)]))
            .collect();
        let (prog, trace) = straightline(chain, 500);
        let mut sim = DetailedSim::new(MachineConfig::table1_base(), &prog);
        let m = sim.simulate(&mut SliceStream::new(&trace), u64::MAX);
        assert!(m.cpi() > 0.9, "serial chain should run near 1 CPI, got {:.2}", m.cpi());
    }

    #[test]
    fn long_latency_divides_throttle_throughput() {
        let divs: Vec<Instruction> = (0..8)
            .map(|i| {
                Instruction::alu(OpClass::IntDiv, Reg::int(8 + i as u8), [Reg::int(1), Reg::int(2)])
            })
            .collect();
        let (prog, trace) = straightline(divs, 200);
        let mut sim = DetailedSim::new(MachineConfig::table1_base(), &prog);
        let m = sim.simulate(&mut SliceStream::new(&trace), u64::MAX);
        // 2 unpipelined dividers, 20-cycle latency: ≥ ~10 cycles/div.
        assert!(m.cpi() > 5.0, "unpipelined divides must dominate, CPI {:.2}", m.cpi());
    }

    #[test]
    fn cache_misses_raise_cpi() {
        // Pseudo-random dependent loads confined to a working set; the
        // address sequence differs per dynamic block so a too-large set
        // keeps missing.
        let mk = |ws: u64, n: usize| {
            let mut b = ProgramBuilder::new("t");
            let id = b.add_block(17);
            let prog = b.finish();
            let mut x = 0x9E37_79B9u64;
            let trace: Vec<(BlockId, Vec<Instruction>)> = (0..n)
                .map(|_| {
                    let mut insts: Vec<Instruction> = (0..16)
                        .map(|_| {
                            x = x
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            Instruction::load(
                                Reg::int(8),
                                Reg::int(8),
                                (0x1000_0000 + (x % ws)) & !7,
                            )
                        })
                        .collect();
                    insts.push(Instruction::branch(BranchKind::Conditional, Reg::int(1), true, id));
                    (id, insts)
                })
                .collect();
            (prog, trace)
        };
        let (prog_a, trace_a) = mk(8 * 1024, 300);
        let (prog_b, trace_b) = mk(64 << 20, 300);
        let mut sim_a = DetailedSim::new(MachineConfig::table1_base(), &prog_a);
        let mut sim_b = DetailedSim::new(MachineConfig::table1_base(), &prog_b);
        let a = sim_a.simulate(&mut SliceStream::new(&trace_a), u64::MAX);
        let b = sim_b.simulate(&mut SliceStream::new(&trace_b), u64::MAX);
        assert!(a.l1_hit_rate() > 0.9, "small set should hit L1: {}", a.l1_hit_rate());
        assert!(b.l1_hit_rate() < 0.6, "huge set should miss: {}", b.l1_hit_rate());
        assert!(
            b.cpi() > a.cpi() * 2.0,
            "memory-bound CPI {:.2} should dwarf resident CPI {:.2}",
            b.cpi(),
            a.cpi()
        );
    }

    #[test]
    fn mispredictions_cost_cycles() {
        // Same block, one trace with a stable branch, one alternating.
        let mk = |flip: bool, n: usize| {
            let mut b = ProgramBuilder::new("t");
            let id = b.add_block(4);
            let prog = b.finish();
            let mut trace = Vec::new();
            for k in 0..n {
                let taken = !flip || k % 2 == 0;
                let mut insts = independent_alu_block(4);
                insts[3] = Instruction::branch(BranchKind::Conditional, Reg::int(1), taken, id);
                trace.push((id, insts));
            }
            (prog, trace)
        };
        let (pa, ta) = mk(false, 2000);
        let (pb, tb) = mk(true, 2000);
        let mut sa = DetailedSim::new(MachineConfig::table1_base(), &pa);
        let mut sb = DetailedSim::new(MachineConfig::table1_base(), &pb);
        let a = sa.simulate(&mut SliceStream::new(&ta), u64::MAX);
        let b = sb.simulate(&mut SliceStream::new(&tb), u64::MAX);
        assert!(a.mispredict_rate() < 0.05, "stable branch trains: {}", a.mispredict_rate());
        // The alternating pattern is learnable by gshare; what matters
        // here is that the *counters* see the branches at all.
        assert_eq!(b.branches, 2000);
    }

    #[test]
    fn metrics_cover_exactly_the_requested_region() {
        let cb = CompiledBenchmark::compile(&BenchmarkSpec::default()).unwrap();
        let mut sim = DetailedSim::new(MachineConfig::table1_base(), cb.program());
        let mut stream = WorkloadStream::new(&cb);
        let m1 = sim.simulate(&mut stream, 10_000);
        assert!(m1.instructions >= 10_000);
        assert!(m1.instructions < 10_000 + 100, "stops at next block boundary");
        // Second region continues the same stream with fresh stats.
        let m2 = sim.simulate(&mut stream, 10_000);
        assert!(m2.instructions >= 10_000);
        assert!(m2.cycles > 0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let cb = CompiledBenchmark::compile(&BenchmarkSpec::default()).unwrap();
        let run = || {
            let mut sim = DetailedSim::new(MachineConfig::table1_base(), cb.program());
            sim.simulate(&mut WorkloadStream::new(&cb), 50_000)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn config_b_differs_from_config_a() {
        // A workload with an L1-busting working set should behave
        // differently under Config B's 128k D-cache.
        let spec = BenchmarkSpec {
            phases: vec![PhaseSpec {
                blocks: vec![BlockSpec {
                    mix: InstMix { load: 0.4, store: 0.1, ..InstMix::default() },
                    mem: MemoryPattern::RandomInSet { working_set: 64 * 1024 },
                    ..BlockSpec::default()
                }],
                ..PhaseSpec::default()
            }],
            script: vec![ScriptEntry::new(0, 100_000); 2],
            ..BenchmarkSpec::default()
        };
        let cb = CompiledBenchmark::compile(&spec).unwrap();
        let mut sa = DetailedSim::new(MachineConfig::table1_base(), cb.program());
        let mut sb = DetailedSim::new(MachineConfig::table1_sensitivity(), cb.program());
        let a = sa.simulate(&mut WorkloadStream::new(&cb), 150_000);
        let b = sb.simulate(&mut WorkloadStream::new(&cb), 150_000);
        assert!(
            b.l1_hit_rate() > a.l1_hit_rate() + 0.02,
            "Config B's 128k D$ should hit more: A={:.3} B={:.3}",
            a.l1_hit_rate(),
            b.l1_hit_rate()
        );
    }

    /// Plan execution refills one snapshot in place at every point
    /// (`clone_from`) instead of cloning the warm state afresh. A point
    /// simulated from the refilled snapshot must match one simulated
    /// from a fresh clone, under both Table I configs, even though the
    /// destination held another position's state and statistics.
    #[test]
    fn snapshot_refilled_in_place_simulates_like_a_fresh_clone() {
        let spec = BenchmarkSpec {
            phases: vec![PhaseSpec {
                blocks: vec![
                    BlockSpec {
                        mix: InstMix { load: 0.35, store: 0.1, ..InstMix::default() },
                        // Between the two configs' L2 sizes.
                        mem: MemoryPattern::RandomInSet { working_set: 1536 * 1024 },
                        ..BlockSpec::default()
                    },
                    BlockSpec::default(),
                ],
                ..PhaseSpec::default()
            }],
            script: vec![ScriptEntry::new(0, 60_000); 4],
            ..BenchmarkSpec::default()
        };
        let cb = CompiledBenchmark::compile(&spec).unwrap();
        for cfg in [MachineConfig::table1_base(), MachineConfig::table1_sensitivity()] {
            let mut func = crate::FunctionalSim::new(cb.program());
            let mut stream = WorkloadStream::new(&cb);
            let (mut hier, mut bu) = (MemoryHierarchy::new(&cfg), BranchUnit::new(&cfg.predictor));
            // The destination: state warmed over a short prefix, then run
            // through a detailed region of its own.
            func.warm_forward(&mut stream, 5_000, &mut hier, &mut bu);
            let mut early =
                DetailedSim::with_warm_state(cfg, cb.program(), hier.clone(), bu.clone());
            early.simulate(&mut stream.clone(), 5_000);
            let (mut dest_hier, mut dest_bu) = early.into_warm_state();

            func.warm_forward(&mut stream, 145_000, &mut hier, &mut bu);
            dest_hier.clone_from(&hier);
            dest_bu.clone_from(&bu);
            let mut refilled = DetailedSim::with_warm_state(cfg, cb.program(), dest_hier, dest_bu);
            let mut fresh =
                DetailedSim::with_warm_state(cfg, cb.program(), hier.clone(), bu.clone());
            let a = refilled.simulate(&mut stream.clone(), 20_000);
            let b = fresh.simulate(&mut stream.clone(), 20_000);
            assert_eq!(a, b, "l2 size {}", cfg.l2.size);
            assert!(b.l2_hits > 0 && b.l2_misses > 0 && b.mispredicts > 0, "{b:?}");
        }
    }

    /// An [`L2Replica`] fed by a detailed run holds the functional-order
    /// L2 at every block boundary, so a snapshot of it plus the detailed
    /// run's L1s and branch unit simulates a region exactly like the
    /// state functional warming reaches: under both Table I configs,
    /// with next-line prefetch (whose fills and write-backs also reach
    /// the L2), and with caches so small that every block's fetches and
    /// data accesses meet in the same L2 sets, where the order the
    /// replica replays them in decides the outcome.
    #[test]
    fn replica_snapshot_simulates_like_functional_warming() {
        let spec = BenchmarkSpec {
            phases: vec![PhaseSpec {
                blocks: vec![
                    BlockSpec {
                        mix: InstMix { load: 0.35, store: 0.15, ..InstMix::default() },
                        // Between the two configs' L2 sizes.
                        mem: MemoryPattern::RandomInSet { working_set: 1536 * 1024 },
                        ..BlockSpec::default()
                    },
                    BlockSpec::default(),
                ],
                ..PhaseSpec::default()
            }],
            script: vec![ScriptEntry::new(0, 60_000); 4],
            ..BenchmarkSpec::default()
        };
        let cb = CompiledBenchmark::compile(&spec).unwrap();
        let mut prefetching = MachineConfig::table1_base();
        prefetching.prefetch = crate::config::PrefetchPolicy::NextLine;
        let mut tiny = prefetching;
        tiny.icache = crate::CacheConfig { size: 64, assoc: 1, line: 32, latency: 1 };
        tiny.dcache = crate::CacheConfig { size: 128, assoc: 2, line: 32, latency: 1 };
        tiny.l2 = crate::CacheConfig { size: 512, assoc: 2, line: 32, latency: 10 };
        let configs =
            [MachineConfig::table1_base(), MachineConfig::table1_sensitivity(), prefetching, tiny];
        for cfg in configs {
            let mut func = crate::FunctionalSim::new(cb.program());
            let mut warm_stream = WorkloadStream::new(&cb);
            let (mut hier, mut bu) = (MemoryHierarchy::new(&cfg), BranchUnit::new(&cfg.predictor));
            let mut truth = DetailedSim::new(cfg, cb.program());
            let mut truth_stream = WorkloadStream::new(&cb);
            let mut replica = L2Replica::new(&cfg);
            let mut snapshot = MemoryHierarchy::new(&cfg);
            for stop in 1..=4 {
                let ff = func.warm_forward(&mut warm_stream, 37_000, &mut hier, &mut bu);
                let m = truth.simulate_with(&mut truth_stream, 37_000, &mut replica);
                assert_eq!(ff, m.instructions, "both stop at the same boundary");
                replica.snapshot_into(truth.hierarchy(), &mut snapshot);
                let from_replica = DetailedSim::with_warm_state(
                    cfg,
                    cb.program(),
                    snapshot.clone(),
                    truth.branch_unit().clone(),
                )
                .simulate(&mut truth_stream.clone(), 20_000);
                let from_warming =
                    DetailedSim::with_warm_state(cfg, cb.program(), hier.clone(), bu.clone())
                        .simulate(&mut warm_stream.clone(), 20_000);
                assert_eq!(from_replica, from_warming, "stop {stop}, l2 {}", cfg.l2.size);
                assert!(from_warming.l2_misses > 0, "{from_warming:?}");
            }
        }
    }

    #[test]
    fn fu_pool_matches_linear_scan_and_preserves_multiset() {
        // Drive one pool with an adversarial ready/occupy sequence and
        // check the issue cycles against a straightforward earliest-free
        // linear scan over a plain vector. Only the multiset of
        // busy-until times is observable, so the two must also stay
        // multiset-equal at every step.
        let cfg = MachineConfig::table1_base();
        let mut fast = FuPools::new(&cfg);
        let n = cfg.fu.int_alu as usize;
        let mut naive: Vec<u64> = vec![0; n];
        let mut x = 0x1234_5678_9abc_def0u64;
        for step in 0..10_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let ready = step / 2 + (x % 7);
            let occupy = 1 + (x >> 32) % 19;
            let got = fast.issue(FuClass::IntAlu, ready, occupy);
            let mut best = 0usize;
            for (i, &b) in naive.iter().enumerate() {
                if b < naive[best] {
                    best = i;
                }
            }
            let want = ready.max(naive[best]);
            naive[best] = want + occupy;
            assert_eq!(got, want, "step {step}");
            // Decode the packed `busy << 6 | slot` keys back to times.
            let mut a: Vec<u64> = fast.keys[0][..n].iter().map(|k| k >> 6).collect();
            let mut b = naive.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "multisets diverged at step {step}");
        }
    }
}
