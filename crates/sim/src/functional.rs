//! The functional simulator: executes a trace at maximum speed, firing
//! observer callbacks, optionally warming the memory hierarchy and
//! branch predictor.
//!
//! This is the `sim-fast` analogue. Sampling simulation spends the bulk
//! of its wall clock here — fast-forwarding to simulation points — so
//! the hot loop does nothing but pull blocks and notify observers.

use crate::branch::BranchUnit;
use crate::cache::MemoryHierarchy;
use mlpa_isa::stream::InstructionStream;
use mlpa_isa::{BlockId, Instruction, Program};

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
    /// extension). Without it, microarchitectural state is untouched:
    /// the paper's SimPoint baseline fast-forwards *cold*
    /// (SimpleScalar's `-fastfwd`), which is precisely why short
    /// simulation points show large L2 deviations in its Table II.
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
        let mut buf = Vec::with_capacity(64);
        let mut skipped = 0u64;
        let mut warm = warm_state;
        while skipped < count {
            let Some(id) = stream.next_block(&mut buf) else { break };
            obs.on_block(id, &buf, self.executed);
            if let Some((hier, bu)) = warm.as_mut() {
                let block = self.program.block(id);
                // Touch the I-cache line(s) of the block.
                let mut line = block.addr & !(hier.l1i().config().line - 1);
                while line < block.end_addr() {
                    let _ = hier.fetch(line);
                    line += hier.l1i().config().line;
                }
                for (i, inst) in buf.iter().enumerate() {
                    if inst.is_mem() {
                        hier.warm_data(inst.addr, inst.op == mlpa_isa::OpClass::Store);
                    }
                    if let Some(info) = &inst.branch {
                        let pc = block.inst_addr(i as u32);
                        // The next block in layout, exactly as the detailed
                        // simulator resolves it: a call pushes it as the
                        // return address.
                        let fallthrough = BlockId::new(id.raw().saturating_add(1));
                        bu.warm(pc, info, fallthrough);
                    }
                }
            }
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
        use crate::DetailedSim;
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
