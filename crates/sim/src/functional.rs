//! The functional simulator: executes a trace at maximum speed, firing
//! observer callbacks, optionally warming the memory hierarchy and
//! branch predictor.
//!
//! This is the `sim-fast` analogue. Sampling simulation spends the bulk
//! of its wall clock here — fast-forwarding to simulation points — so
//! the hot loop does nothing but pull blocks and notify observers.
//!
//! Functional warming is split in two halves that touch disjoint state.
//! The front half (`warm_front`) trains the branch unit on a block and
//! records what the block does to the memory hierarchy: one block
//! record, then one record per data access in program order. The back
//! half ([`warm_back`]) replays those records into the hierarchy: the
//! block's I-cache lines, then its data accesses — the order functional
//! warming has always used. [`FunctionalSim::warm_walk`] runs the front
//! half on every block it walks and hands the records to a [`WarmBack`]
//! whole blocks at a time, so the back half may run on another thread;
//! [`FunctionalSim::fast_forward`] replays them on the walking thread
//! ([`Replay`]).

use crate::branch::BranchUnit;
use crate::cache::MemoryHierarchy;
use mlpa_isa::stream::InstructionStream;
use mlpa_isa::{BlockId, Instruction, OpClass, Program};

/// Marks a block record, whose low 32 bits hold the block id. A data
/// record has it clear and holds `addr << 1 | store`.
const BLOCK: u64 = 1 << 63;

/// Marks, beside [`BLOCK`], the data record of an address at or above
/// 2^62, which `addr << 1` cannot hold: its low bit is the store flag and
/// the raw address is the next record.
const WIDE: u64 = 1 << 62;

/// Records per buffer of a warmed walk: 32 KiB, which fits a host L1D.
pub const RECORD_BATCH: usize = 4096;

/// The most records `warm_front` appends for a block of `insts`
/// instructions.
#[inline]
fn block_records(insts: usize) -> usize {
    1 + 2 * insts
}

/// The front half of functional warming over block `id`: trains `bu` on
/// the block's branches and appends the block's memory-hierarchy work to
/// `records` — a block record, then one record per data access in
/// program order — for [`warm_back`].
#[inline]
fn warm_front(
    program: &Program,
    id: BlockId,
    insts: &[Instruction],
    bu: &mut BranchUnit,
    records: &mut Vec<u64>,
) {
    records.push(BLOCK | u64::from(id.raw()));
    let block = program.block(id);
    for (i, inst) in insts.iter().enumerate() {
        if inst.is_mem() {
            let store = u64::from(inst.op == OpClass::Store);
            if inst.addr < WIDE {
                records.push(inst.addr << 1 | store);
            } else {
                records.extend_from_slice(&[BLOCK | WIDE | store, inst.addr]);
            }
        }
        if let Some(info) = &inst.branch {
            let pc = block.inst_addr(i as u32);
            // The next block in layout, exactly as the detailed
            // simulator resolves it: a call pushes it as the return
            // address.
            let fallthrough = BlockId::new(id.raw().saturating_add(1));
            bu.warm(pc, info, fallthrough);
        }
    }
}

/// The back half of functional warming: replays the front half's
/// `records` (whole blocks, as [`FunctionalSim::warm_walk`] hands them
/// over) into `hier`, each block's I-cache lines and then its data
/// accesses.
pub fn warm_back(program: &Program, hier: &mut MemoryHierarchy, records: &[u64]) {
    let line = hier.l1i().config().line;
    let mut records = records.iter();
    while let Some(&r) = records.next() {
        if r & BLOCK == 0 {
            hier.warm_data(r >> 1, r & 1 != 0);
        } else if r & WIDE == 0 {
            // Touch the I-cache line(s) of the block.
            let block = program.block(BlockId::new(r as u32));
            let mut addr = block.addr & !(line - 1);
            while addr < block.end_addr() {
                let _ = hier.fetch(addr);
                addr += line;
            }
        } else {
            let addr = *records.next().expect("a wide data record is followed by its address");
            hier.warm_data(addr, r & 1 != 0);
        }
    }
}

/// Where [`FunctionalSim::warm_walk`] hands the front half's records.
pub trait WarmBack {
    /// The buffer the walk appends records to.
    fn records(&mut self) -> &mut Vec<u64>;

    /// Take the buffered records, which hold whole blocks, and leave an
    /// empty buffer in their place.
    fn submit(&mut self);
}

/// The back half on the walking thread: every submitted buffer is
/// replayed into the hierarchy at once.
#[derive(Debug)]
pub struct Replay<'a> {
    program: &'a Program,
    hier: &'a mut MemoryHierarchy,
    records: Vec<u64>,
}

impl<'a> Replay<'a> {
    /// Replay `program`'s records into `hier`.
    pub fn new(program: &'a Program, hier: &'a mut MemoryHierarchy) -> Replay<'a> {
        Replay { program, hier, records: Vec::with_capacity(RECORD_BATCH) }
    }

    /// The hierarchy, with every record walked so far replayed.
    pub fn warm_state(&mut self) -> &MemoryHierarchy {
        self.submit();
        self.hier
    }
}

impl WarmBack for Replay<'_> {
    #[inline]
    fn records(&mut self) -> &mut Vec<u64> {
        &mut self.records
    }

    fn submit(&mut self) {
        warm_back(self.program, self.hier, &self.records);
        self.records.clear();
    }
}

/// Receives the trace as the functional simulator executes it.
///
/// Profilers (BBV collectors, loop detectors) implement this; they are
/// composable via tuples.
pub trait Observer {
    /// Called once per dynamic basic block. `first_inst_index` is the
    /// number of instructions executed before this block.
    fn on_block(&mut self, id: BlockId, insts: &[Instruction], first_inst_index: u64);
}

/// The no-op observer.
impl Observer for () {
    fn on_block(&mut self, _: BlockId, _: &[Instruction], _: u64) {}
}

impl<A: Observer, B: Observer> Observer for (A, B) {
    fn on_block(&mut self, id: BlockId, insts: &[Instruction], first: u64) {
        self.0.on_block(id, insts, first);
        self.1.on_block(id, insts, first);
    }
}

impl<T: Observer + ?Sized> Observer for &mut T {
    fn on_block(&mut self, id: BlockId, insts: &[Instruction], first: u64) {
        (**self).on_block(id, insts, first);
    }
}

/// Outcome of a functional run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FunctionalStats {
    /// Instructions executed.
    pub instructions: u64,
    /// Dynamic basic blocks executed.
    pub blocks: u64,
}

/// The functional simulator.
///
/// # Example
///
/// ```
/// use mlpa_sim::functional::FunctionalSim;
/// use mlpa_workloads::{spec::BenchmarkSpec, CompiledBenchmark, WorkloadStream};
///
/// let cb = CompiledBenchmark::compile(&BenchmarkSpec::default())?;
/// let mut sim = FunctionalSim::new(cb.program());
/// let stats = sim.run(WorkloadStream::new(&cb), &mut ());
/// assert!(stats.instructions > 0);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct FunctionalSim<'p> {
    program: &'p Program,
    executed: u64,
    blocks: u64,
}

impl<'p> FunctionalSim<'p> {
    /// Create a functional simulator for `program`.
    pub fn new(program: &'p Program) -> FunctionalSim<'p> {
        FunctionalSim { program, executed: 0, blocks: 0 }
    }

    /// The static program being executed.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Instructions executed so far across all runs.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Execute the stream to completion, notifying `obs` per block.
    pub fn run<S, O>(&mut self, mut stream: S, obs: &mut O) -> FunctionalStats
    where
        S: InstructionStream,
        O: Observer,
    {
        let mut buf = Vec::with_capacity(64);
        let mut stats = FunctionalStats::default();
        while let Some(id) = stream.next_block(&mut buf) {
            obs.on_block(id, &buf, self.executed);
            self.executed += buf.len() as u64;
            self.blocks += 1;
            stats.instructions += buf.len() as u64;
            stats.blocks += 1;
        }
        if mlpa_obs::is_enabled() {
            mlpa_obs::add("sim.functional.instructions", stats.instructions);
            mlpa_obs::add("sim.functional.blocks", stats.blocks);
        }
        stats
    }

    /// Execute until at least `count` further instructions have run
    /// (block granularity — stops at the first block boundary at or
    /// past the target), notifying `obs`.
    ///
    /// With `warm_state`, the caches and branch predictor are updated
    /// functionally while skipping (checkpoint-style warming, an
    /// extension): [`FunctionalSim::warm_walk`] into a [`Replay`].
    /// Without it, microarchitectural state is untouched: the paper's
    /// SimPoint baseline fast-forwards *cold* (SimpleScalar's
    /// `-fastfwd`), which is precisely why short simulation points show
    /// large L2 deviations in its Table II.
    ///
    /// Returns the instructions actually skipped; fewer than `count`
    /// only if the stream ended.
    pub fn fast_forward<S, O>(
        &mut self,
        stream: &mut S,
        count: u64,
        obs: &mut O,
        warm_state: Option<(&mut MemoryHierarchy, &mut BranchUnit)>,
    ) -> u64
    where
        S: InstructionStream,
        O: Observer,
    {
        let Some((hier, bu)) = warm_state else {
            return self.walk(stream, count, obs, |_, _| {});
        };
        let mut back = Replay::new(self.program, hier);
        let skipped = self.warm_walk(stream, count, obs, bu, &mut back);
        back.submit();
        skipped
    }

    /// [`FunctionalSim::fast_forward`] running the front half of
    /// functional warming: trains `bu` and hands the memory-hierarchy
    /// records of every block to `back`, whole blocks at a time. Records
    /// of the last blocks may stay in `back`'s buffer.
    pub fn warm_walk<S, O, K>(
        &mut self,
        stream: &mut S,
        count: u64,
        obs: &mut O,
        bu: &mut BranchUnit,
        back: &mut K,
    ) -> u64
    where
        S: InstructionStream,
        O: Observer,
        K: WarmBack,
    {
        let program = self.program;
        self.walk(stream, count, obs, |id, insts| {
            let records = back.records();
            if records.capacity() - records.len() < block_records(insts.len()) {
                back.submit();
            }
            warm_front(program, id, insts, bu, back.records());
        })
    }

    /// Execute until at least `count` further instructions have run,
    /// notifying `obs` and then `visit` of every block.
    #[inline(always)]
    fn walk<S, O>(
        &mut self,
        stream: &mut S,
        count: u64,
        obs: &mut O,
        mut visit: impl FnMut(BlockId, &[Instruction]),
    ) -> u64
    where
        S: InstructionStream,
        O: Observer,
    {
        let mut buf = Vec::with_capacity(64);
        let mut skipped = 0u64;
        while skipped < count {
            let Some(id) = stream.next_block(&mut buf) else { break };
            obs.on_block(id, &buf, self.executed);
            visit(id, &buf);
            self.executed += buf.len() as u64;
            self.blocks += 1;
            skipped += buf.len() as u64;
        }
        if mlpa_obs::is_enabled() {
            mlpa_obs::add("sim.functional.instructions", skipped);
        }
        skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::DetailedSim;
    use mlpa_workloads::{spec::BenchmarkSpec, CompiledBenchmark, WorkloadStream};

    struct CountingObserver {
        blocks: u64,
        insts: u64,
        last_first: u64,
        monotone: bool,
    }

    impl Observer for CountingObserver {
        fn on_block(&mut self, _id: BlockId, insts: &[Instruction], first: u64) {
            self.monotone &= first >= self.last_first;
            self.last_first = first;
            assert_eq!(first, self.insts, "first_inst_index must equal prior total");
            self.blocks += 1;
            self.insts += insts.len() as u64;
        }
    }

    fn compiled() -> CompiledBenchmark {
        CompiledBenchmark::compile(&BenchmarkSpec::default()).unwrap()
    }

    #[test]
    fn run_notifies_every_block_in_order() {
        let cb = compiled();
        let mut sim = FunctionalSim::new(cb.program());
        let mut obs = CountingObserver { blocks: 0, insts: 0, last_first: 0, monotone: true };
        let stats = sim.run(WorkloadStream::new(&cb), &mut obs);
        assert_eq!(stats.blocks, obs.blocks);
        assert_eq!(stats.instructions, obs.insts);
        assert!(obs.monotone);
        assert_eq!(sim.executed(), stats.instructions);
    }

    #[test]
    fn fast_forward_stops_at_block_boundary() {
        let cb = compiled();
        let mut sim = FunctionalSim::new(cb.program());
        let mut stream = WorkloadStream::new(&cb);
        let skipped = sim.fast_forward(&mut stream, 5_000, &mut (), None);
        assert!(skipped >= 5_000);
        assert!(skipped < 5_000 + 64, "overshoot bounded by one block");
    }

    #[test]
    fn fast_forward_past_end_reports_shortfall() {
        let cb = compiled();
        let total = {
            let mut s = FunctionalSim::new(cb.program());
            s.run(WorkloadStream::new(&cb), &mut ()).instructions
        };
        let mut sim = FunctionalSim::new(cb.program());
        let mut stream = WorkloadStream::new(&cb);
        let skipped = sim.fast_forward(&mut stream, total + 1_000_000, &mut (), None);
        assert_eq!(skipped, total);
    }

    #[test]
    fn warming_populates_caches_and_predictor() {
        let cb = compiled();
        let cfg = MachineConfig::table1_base();
        let mut hier = MemoryHierarchy::new(&cfg);
        let mut bu = BranchUnit::new(&cfg.predictor);
        let mut sim = FunctionalSim::new(cb.program());
        let mut stream = WorkloadStream::new(&cb);
        sim.fast_forward(&mut stream, 50_000, &mut (), Some((&mut hier, &mut bu)));
        assert!(hier.l1d().hits() + hier.l1d().misses() > 0, "dcache touched");
        assert!(hier.l1i().hits() + hier.l1i().misses() > 0, "icache touched");
        assert_eq!(bu.predictions(), 0, "warming must not count stats");
    }

    /// Warming resolves branches exactly as the detailed simulator does:
    /// a call pushes the return address (the next block in layout), not
    /// its own target. After a prefix that ends in a call, the region
    /// that opens with the callee's return must simulate identically from
    /// a functionally warmed branch unit and from a detailed-run one.
    #[test]
    fn warmed_branch_unit_matches_a_detailed_run_across_calls() {
        use mlpa_isa::stream::SliceStream;
        use mlpa_isa::{BranchKind, OpClass, ProgramBuilder, Reg};

        let mut b = ProgramBuilder::new("calls");
        let (main, cont, callee) = (b.add_block(5), b.add_block(5), b.add_block(5));
        let prog = b.finish();
        let body = |tail: Instruction| {
            let mut insts: Vec<Instruction> = (0..4)
                .map(|i| {
                    Instruction::alu(OpClass::IntAlu, Reg::int(8 + i), [Reg::int(1), Reg::int(2)])
                })
                .collect();
            insts.push(tail);
            insts
        };
        let call = (main, body(Instruction::branch(BranchKind::Call, Reg::int(1), true, callee)));
        let ret = (callee, body(Instruction::branch(BranchKind::Return, Reg::int(1), true, cont)));
        let jump = (cont, body(Instruction::branch(BranchKind::Jump, Reg::int(1), true, main)));
        let mut trace = Vec::new();
        for _ in 0..49 {
            trace.extend([call.clone(), ret.clone(), jump.clone()]);
        }
        trace.push(call.clone());
        let prefix = trace.len();
        for _ in 0..20 {
            trace.extend([ret.clone(), jump.clone(), call.clone()]);
        }
        let prefix_insts = (prefix * 5) as u64;

        let cfg = MachineConfig::table1_base();
        let mut warmed = BranchUnit::new(&cfg.predictor);
        let mut hier = MemoryHierarchy::new(&cfg);
        let mut stream = SliceStream::new(&trace);
        FunctionalSim::new(&prog).fast_forward(
            &mut stream,
            prefix_insts,
            &mut (),
            Some((&mut hier, &mut warmed)),
        );
        let mut detailed = DetailedSim::new(cfg, &prog);
        detailed.simulate(&mut SliceStream::new(&trace), prefix_insts);
        let (_, detailed_bu) = detailed.into_warm_state();

        let region = |bu: BranchUnit| {
            let mut sim = DetailedSim::with_warm_state(cfg, &prog, MemoryHierarchy::new(&cfg), bu);
            sim.simulate(&mut stream.clone(), u64::MAX)
        };
        let (w, d) = (region(warmed), region(detailed_bu));
        assert_eq!(w, d);
        assert_eq!(d.mispredicts, 0, "every return predicted from the return stack: {d:?}");
    }

    /// Functional warming as one loop per block: the block's I-cache
    /// lines, then each instruction's data access and branch in program
    /// order. The two halves must leave exactly this state.
    fn warm_by_hand<S: InstructionStream>(
        program: &Program,
        stream: &mut S,
        count: u64,
        hier: &mut MemoryHierarchy,
        bu: &mut BranchUnit,
    ) -> u64 {
        let mut buf = Vec::new();
        let mut walked = 0;
        while walked < count {
            let Some(id) = stream.next_block(&mut buf) else { break };
            let block = program.block(id);
            let line = hier.l1i().config().line;
            let mut addr = block.addr & !(line - 1);
            while addr < block.end_addr() {
                hier.fetch(addr);
                addr += line;
            }
            for (i, inst) in buf.iter().enumerate() {
                if inst.is_mem() {
                    hier.warm_data(inst.addr, inst.op == OpClass::Store);
                }
                if let Some(info) = &inst.branch {
                    bu.warm(block.inst_addr(i as u32), info, BlockId::new(id.raw() + 1));
                }
            }
            walked += buf.len() as u64;
        }
        walked
    }

    /// Warms `stream` in steps, by hand and through the two halves, and
    /// requires the same state after every step: every cache counter,
    /// and a detailed region simulated from it.
    fn assert_halves_warm_by_hand<S: InstructionStream + Clone>(
        program: &Program,
        stream: &S,
        cfg: MachineConfig,
    ) {
        let fresh = || (MemoryHierarchy::new(&cfg), BranchUnit::new(&cfg.predictor));
        let (mut by_hand, mut halves) = (fresh(), fresh());
        let (mut hand_stream, mut stream) = (stream.clone(), stream.clone());
        let mut func = FunctionalSim::new(program);
        let counters = |h: &MemoryHierarchy| {
            [h.l1d(), h.l1i(), h.l2()].map(|c| (c.hits(), c.misses(), c.writebacks()))
        };
        for step in 1..=4 {
            let n = warm_by_hand(program, &mut hand_stream, 37_000, &mut by_hand.0, &mut by_hand.1);
            let (h, bu) = (&mut halves.0, &mut halves.1);
            assert_eq!(func.fast_forward(&mut stream, 37_000, &mut (), Some((h, bu))), n);
            let state = |(hier, bu): &(MemoryHierarchy, BranchUnit)| {
                let mut sim = DetailedSim::with_warm_state(cfg, program, hier.clone(), bu.clone());
                let region = sim.simulate(&mut stream.clone(), 20_000);
                (counters(hier), hier.prefetches(), region)
            };
            let want = state(&by_hand);
            assert_eq!(state(&halves), want, "step {step}, l2 {:?}", cfg.l2);
            assert!(want.2.l2_hits > 0 && want.2.l2_misses > 0, "{:?}", want.2);
        }
    }

    /// Caches so small that every block's fetches miss and meet its data
    /// accesses in the same L2 sets, so the order the back half replays
    /// them in decides the L2 state.
    fn tiny(cfg: MachineConfig) -> MachineConfig {
        MachineConfig {
            icache: crate::CacheConfig { size: 64, assoc: 1, line: 32, latency: 1 },
            dcache: crate::CacheConfig { size: 128, assoc: 2, line: 32, latency: 1 },
            l2: crate::CacheConfig { size: 512, assoc: 2, line: 32, latency: 10 },
            ..cfg
        }
    }

    /// The two halves warm exactly as the hand-written loop does: under
    /// both Table I configs, with next-line prefetch, and with tiny
    /// caches; on a generated workload with L2 traffic, and on a trace
    /// of calls and returns, which train the return stack.
    #[test]
    fn the_two_halves_warm_like_a_hand_written_loop() {
        use mlpa_isa::rng::SplitMix64;
        use mlpa_isa::stream::SliceStream;
        use mlpa_isa::{BranchKind, ProgramBuilder, Reg};
        use mlpa_workloads::behavior::{InstMix, MemoryPattern};
        use mlpa_workloads::spec::{BlockSpec, PhaseSpec, ScriptEntry};

        let cb = CompiledBenchmark::compile(&BenchmarkSpec {
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
        })
        .unwrap();
        let mut prefetching = MachineConfig::table1_base();
        prefetching.prefetch = crate::config::PrefetchPolicy::NextLine;
        let configs = [
            MachineConfig::table1_base(),
            MachineConfig::table1_sensitivity(),
            prefetching,
            tiny(prefetching),
        ];
        for cfg in configs {
            assert_halves_warm_by_hand(cb.program(), &WorkloadStream::new(&cb), cfg);
        }

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
        for _ in 0..6_000 {
            let call = block(Instruction::branch(BranchKind::Call, Reg::int(1), true, callee));
            let ret = block(Instruction::branch(BranchKind::Return, Reg::int(1), true, cont));
            let jump = block(Instruction::branch(BranchKind::Jump, Reg::int(1), true, main));
            trace.extend([(main, call), (callee, ret), (cont, jump)]);
        }
        for cfg in [MachineConfig::table1_base(), tiny(MachineConfig::table1_base())] {
            assert_halves_warm_by_hand(&program, &SliceStream::new(&trace), cfg);
        }
    }

    #[test]
    fn cold_fast_forward_leaves_state_untouched() {
        let cb = compiled();
        let cfg = MachineConfig::table1_base();
        let hier = MemoryHierarchy::new(&cfg);
        let bu = BranchUnit::new(&cfg.predictor);
        let mut sim = FunctionalSim::new(cb.program());
        let mut stream = WorkloadStream::new(&cb);
        sim.fast_forward(&mut stream, 10_000, &mut (), None);
        assert_eq!(hier.l1d().hits() + hier.l1d().misses(), 0);
        assert_eq!(bu.predictions(), 0);
    }

    #[test]
    fn tuple_observers_compose() {
        let cb = compiled();
        let mut sim = FunctionalSim::new(cb.program());
        let mut a = CountingObserver { blocks: 0, insts: 0, last_first: 0, monotone: true };
        let mut b = CountingObserver { blocks: 0, insts: 0, last_first: 0, monotone: true };
        let mut pair = (&mut a, &mut b);
        sim.run(WorkloadStream::new(&cb), &mut pair);
        assert_eq!(a.blocks, b.blocks);
        assert!(a.blocks > 0);
    }
}
