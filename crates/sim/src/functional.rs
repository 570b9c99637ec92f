//! The functional simulator: executes a trace at maximum speed, firing
//! observer callbacks, optionally warming the memory hierarchy and
//! branch predictor.
//!
//! This is the `sim-fast` analogue. Sampling simulation spends the bulk
//! of its wall clock here — fast-forwarding to simulation points — so
//! the hot loop does nothing but pull blocks and notify observers.
//!
//! Functional warming ([`FunctionalSim::warm_walk`]) runs in two stages
//! that touch disjoint state. The front stage reads each block through
//! [`InstructionStream::next_block_warm`], so a generative stream builds
//! no instructions: it gets the block's data accesses as warm records
//! and its branches. It trains the branch unit on the branches
//! ([`BranchUnit::warm`]), fetches the block's lines into the L1I, which
//! it owns, and queues a record per L1I miss ahead of the block's data
//! records. The cache stage ([`warm_back`]) replays the queue into the
//! L1D, the L2 and the memory-burst state: each L1I miss's L2 access,
//! then the block's data accesses in program order — the order
//! functional warming has always used. The front hands its records to
//! a [`WarmBack`], whose cache stage may run on another thread;
//! [`FunctionalSim::warm_forward`] replays them on the walking thread
//! ([`Replay`]).

use crate::branch::BranchUnit;
use crate::cache::{Cache, MemoryHierarchy};
use mlpa_isa::stream::{InstructionStream, WARM_ESCAPE};
use mlpa_isa::{BasicBlock, BlockId, Instruction, Program};

/// The escape record of an L1I miss: the raw line address follows. A
/// data access's escape is `WARM_ESCAPE | store`.
const L1I_MISS: u64 = WARM_ESCAPE | 2;

/// Records per buffer of a warmed walk: 32 KiB, which fits a host L1D.
pub const RECORD_BATCH: usize = 4096;

/// The most records the front stage queues for one of `program`'s
/// blocks under an L1I of `line`-byte lines: every instruction a data
/// access at a wide address, and every line the block spans a miss.
fn max_block_records(program: &Program, line: u64) -> usize {
    let block =
        |b: &BasicBlock| 2 * u64::from(b.len) + 2 * (b.end_addr().div_ceil(line) - b.addr / line);
    program.blocks().iter().map(block).max().unwrap_or(0) as usize
}

/// Fetch `block`'s lines into `l1i` in address order, and insert the
/// record of each miss into `records` at `at`, ahead of the block's data
/// records.
#[inline]
fn fetch_block(l1i: &mut Cache, records: &mut Vec<u64>, mut at: usize, block: &BasicBlock) {
    let line = l1i.config().line;
    let mut addr = block.addr & !(line - 1);
    while addr < block.end_addr() {
        if !l1i.access(addr, false).is_hit() {
            records.splice(at..at, [L1I_MISS, addr]);
            at += 2;
        }
        addr += line;
    }
}

/// The cache stage of functional warming: replays the front stage's
/// `records` into `hier`'s L1D, L2 and memory-burst state, in order —
/// data accesses, and the L2 side of the front stage's L1I misses. The
/// L1I itself is the front stage's.
pub fn warm_back(hier: &mut MemoryHierarchy, records: &[u64]) {
    let mut records = records.iter();
    while let Some(&r) = records.next() {
        if r & WARM_ESCAPE == 0 {
            hier.warm_data(r >> 1, r & 1 != 0);
            continue;
        }
        let addr = *records.next().expect("an escape record is followed by its address");
        if r == L1I_MISS {
            hier.l1i_miss(addr);
        } else {
            hier.warm_data(addr, r & 1 != 0);
        }
    }
}

/// Where [`FunctionalSim::warm_walk`] does its cache work: the L1I its
/// front stage fetches into, and the cache stage its records go to.
pub trait WarmBack {
    /// The L1I, and the buffer the walk appends records to.
    fn front(&mut self) -> (&mut Cache, &mut Vec<u64>);

    /// Take the buffered records and leave an empty buffer in their
    /// place.
    fn submit(&mut self);
}

/// Both stages on the walking thread: the front fetches into the
/// hierarchy's own L1I, and every submitted buffer is replayed into the
/// rest of it at once.
#[derive(Debug)]
pub struct Replay<'a> {
    hier: &'a mut MemoryHierarchy,
    records: Vec<u64>,
}

impl<'a> Replay<'a> {
    /// Warm `hier`.
    pub fn new(hier: &'a mut MemoryHierarchy) -> Replay<'a> {
        Replay { hier, records: Vec::with_capacity(RECORD_BATCH) }
    }

    /// The hierarchy, with every record walked so far replayed.
    pub fn warm_state(&mut self) -> &MemoryHierarchy {
        self.submit();
        self.hier
    }
}

impl WarmBack for Replay<'_> {
    #[inline]
    fn front(&mut self) -> (&mut Cache, &mut Vec<u64>) {
        (self.hier.l1i_mut(), &mut self.records)
    }

    fn submit(&mut self) {
        warm_back(self.hier, &self.records);
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
    /// Microarchitectural state is untouched: the paper's SimPoint
    /// baseline fast-forwards *cold* (SimpleScalar's `-fastfwd`), which
    /// is precisely why short simulation points show large L2 deviations
    /// in its Table II. [`FunctionalSim::warm_forward`] warms instead.
    ///
    /// Returns the instructions actually skipped; fewer than `count`
    /// only if the stream ended.
    pub fn fast_forward<S, O>(&mut self, stream: &mut S, count: u64, obs: &mut O) -> u64
    where
        S: InstructionStream,
        O: Observer,
    {
        let mut buf = Vec::with_capacity(64);
        let mut skipped = 0u64;
        while skipped < count {
            let Some(id) = stream.next_block(&mut buf) else { break };
            obs.on_block(id, &buf, self.executed);
            self.executed += buf.len() as u64;
            self.blocks += 1;
            skipped += buf.len() as u64;
        }
        if mlpa_obs::is_enabled() {
            mlpa_obs::add("sim.functional.instructions", skipped);
        }
        skipped
    }

    /// [`FunctionalSim::fast_forward`] that updates the caches and the
    /// branch predictor functionally while skipping (checkpoint-style
    /// warming, an extension): [`FunctionalSim::warm_walk`] into a
    /// [`Replay`].
    pub fn warm_forward<S: InstructionStream>(
        &mut self,
        stream: &mut S,
        count: u64,
        hier: &mut MemoryHierarchy,
        bu: &mut BranchUnit,
    ) -> u64 {
        let mut back = Replay::new(hier);
        let skipped = self.warm_walk(stream, count, bu, &mut back);
        back.submit();
        skipped
    }

    /// Execute until at least `count` further instructions have run,
    /// running the front stage of functional warming on every block:
    /// train `bu`, fetch the block's lines into `back`'s L1I, and append
    /// the block's L1I misses and then its data accesses to `back`'s
    /// records. Records of the last blocks may stay in `back`'s buffer.
    pub fn warm_walk<S, K>(
        &mut self,
        stream: &mut S,
        count: u64,
        bu: &mut BranchUnit,
        back: &mut K,
    ) -> u64
    where
        S: InstructionStream,
        K: WarmBack,
    {
        let program = self.program;
        let bound = max_block_records(program, back.front().0.config().line);
        let (mut branches, mut scratch) = (Vec::new(), Vec::new());
        let mut skipped = 0u64;
        while skipped < count {
            let records = back.front().1;
            if !records.is_empty() && records.capacity() - records.len() < bound {
                back.submit();
            }
            let (l1i, records) = back.front();
            let start = records.len();
            let Some(meta) = stream.next_block_warm(records, &mut branches, &mut scratch) else {
                break;
            };
            let block = program.block(meta.id);
            fetch_block(l1i, records, start, block);
            // The next block in layout, exactly as the detailed simulator
            // resolves it: a call pushes it as the return address.
            let fallthrough = BlockId::new(meta.id.raw().saturating_add(1));
            for (i, info) in &branches {
                bu.warm(block.inst_addr(*i), info, fallthrough);
            }
            self.executed += meta.insts;
            self.blocks += 1;
            skipped += meta.insts;
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
    use mlpa_isa::OpClass;
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
        let skipped = sim.fast_forward(&mut stream, 5_000, &mut ());
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
        let skipped = sim.fast_forward(&mut stream, total + 1_000_000, &mut ());
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
        sim.warm_forward(&mut stream, 50_000, &mut hier, &mut bu);
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
        use mlpa_isa::{BranchKind, ProgramBuilder, Reg};

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
        FunctionalSim::new(&prog).warm_forward(&mut stream, prefix_insts, &mut hier, &mut warmed);
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
            assert_eq!(func.warm_forward(&mut stream, 37_000, h, bu), n);
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
        sim.fast_forward(&mut stream, 10_000, &mut ());
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
