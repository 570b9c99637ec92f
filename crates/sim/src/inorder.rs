//! A strictly in-order, stall-on-use scalar core model — the
//! `sim-inorder` counterpart to [`DetailedSim`](crate::DetailedSim).
//!
//! Sampling plans are microarchitecture-independent (they are built
//! from BBVs alone), so the same plan should estimate *any* core's
//! behaviour. This second, structurally different timing model lets
//! `mlpa-experiments extension_core_models`
//! (`results/extension_core_models.txt`) demonstrate exactly that: one
//! multi-level plan, two very different cores, both estimated
//! accurately.
//!
//! Model: single-issue, in-order. Each instruction waits for its source
//! operands, occupies its functional unit (unpipelined divides block),
//! and commits in order; loads stall the pipeline until the hierarchy
//! answers; branch mispredictions flush the shallow front end. No ROB,
//! no LSQ — there is nothing to reorder.

use crate::branch::BranchUnit;
use crate::cache::MemoryHierarchy;
use crate::config::MachineConfig;
use crate::metrics::SimMetrics;
use mlpa_isa::stream::InstructionStream;
use mlpa_isa::{BlockId, OpClass, Program, Reg};

/// The in-order scalar simulator. Uses the same [`MachineConfig`] as
/// the out-of-order model (width, ROB and LSQ fields are ignored; one
/// unit per FU class is assumed).
///
/// # Example
///
/// ```
/// use mlpa_sim::{inorder::InOrderSim, MachineConfig};
/// use mlpa_workloads::{spec::BenchmarkSpec, CompiledBenchmark, WorkloadStream};
///
/// let cb = CompiledBenchmark::compile(&BenchmarkSpec::default())?;
/// let mut sim = InOrderSim::new(MachineConfig::table1_base(), cb.program());
/// let m = sim.simulate(&mut WorkloadStream::new(&cb), 20_000);
/// assert!(m.cpi() >= 1.0, "a scalar core cannot beat CPI 1, got {}", m.cpi());
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct InOrderSim<'p> {
    cfg: MachineConfig,
    program: &'p Program,
    hier: MemoryHierarchy,
    branch: BranchUnit,
    reg_ready: [u64; Reg::NUM_TOTAL as usize],
    cycle: u64,
    last_fetch_line: u64,
}

impl<'p> InOrderSim<'p> {
    /// Create a cold in-order simulator.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    pub fn new(cfg: MachineConfig, program: &'p Program) -> InOrderSim<'p> {
        cfg.validate().expect("invalid machine config");
        InOrderSim {
            hier: MemoryHierarchy::new(&cfg),
            branch: BranchUnit::new(&cfg.predictor),
            reg_ready: [0; Reg::NUM_TOTAL as usize],
            cycle: 0,
            last_fetch_line: u64::MAX,
            cfg,
            program,
        }
    }

    /// Simultaneous mutable access to the hierarchy and branch unit for
    /// functional warming.
    pub fn warm_state_mut(&mut self) -> (&mut MemoryHierarchy, &mut BranchUnit) {
        (&mut self.hier, &mut self.branch)
    }

    /// Simulate up to `limit` instructions (to the block boundary at or
    /// past it). State persists across calls; statistics do not.
    pub fn simulate<S: InstructionStream>(&mut self, stream: &mut S, limit: u64) -> SimMetrics {
        self.hier.reset_stats();
        self.branch.reset_stats();
        let start = self.cycle;
        let mut m = SimMetrics::default();
        let mut buf = Vec::with_capacity(64);

        while m.instructions < limit {
            let Some(id) = stream.next_block(&mut buf) else { break };
            self.run_block(id, &buf, &mut m);
        }
        m.cycles = self.cycle.saturating_sub(start).max(u64::from(m.instructions > 0));
        m.l1d_hits = self.hier.l1d().hits();
        m.l1d_misses = self.hier.l1d().misses();
        m.l1i_hits = self.hier.l1i().hits();
        m.l1i_misses = self.hier.l1i().misses();
        m.l2_hits = self.hier.l2().hits();
        m.l2_misses = self.hier.l2().misses();
        m.branches = self.branch.predictions();
        m.mispredicts = self.branch.mispredictions();
        m
    }

    fn run_block(&mut self, id: BlockId, insts: &[mlpa_isa::Instruction], m: &mut SimMetrics) {
        let block = self.program.block(id);
        let line_mask = !(self.hier.l1i().config().line - 1);
        let fallthrough = BlockId::new(id.raw().saturating_add(1));

        for (i, inst) in insts.iter().enumerate() {
            let pc = block.inst_addr(i as u32);
            // Fetch: one instruction per cycle, plus I-cache stalls.
            let line = pc & line_mask;
            if line != self.last_fetch_line {
                self.last_fetch_line = line;
                self.cycle += u64::from(self.hier.fetch(line));
            }
            // Wait for sources (stall-on-use).
            for s in inst.srcs {
                if s.is_some() {
                    self.cycle = self.cycle.max(self.reg_ready[s.index()]);
                }
            }
            // Execute.
            let done = match inst.op {
                OpClass::Load => {
                    m.loads += 1;
                    let acc = self.hier.data_access(inst.addr, false);
                    // The pipeline stalls until the load returns.
                    self.cycle += u64::from(acc.latency);
                    self.cycle
                }
                OpClass::Store => {
                    m.stores += 1;
                    let _ = self.hier.data_access(inst.addr, true);
                    self.cycle += 1;
                    self.cycle
                }
                op => {
                    self.cycle += u64::from(op.latency());
                    self.cycle
                }
            };
            if inst.dst.is_some() {
                self.reg_ready[inst.dst.index()] = done;
            }
            if let Some(info) = &inst.branch {
                if !self.branch.resolve(pc, info, fallthrough) {
                    self.cycle += u64::from(self.cfg.predictor.mispredict_penalty);
                }
            }
            m.instructions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetailedSim;
    use mlpa_workloads::{spec::BenchmarkSpec, CompiledBenchmark, WorkloadStream};

    fn cb() -> CompiledBenchmark {
        CompiledBenchmark::compile(&BenchmarkSpec::default()).unwrap()
    }

    #[test]
    fn scalar_core_never_beats_cpi_one() {
        let cb = cb();
        let mut sim = InOrderSim::new(MachineConfig::table1_base(), cb.program());
        let m = sim.simulate(&mut WorkloadStream::new(&cb), 50_000);
        assert!(m.cpi() >= 1.0, "CPI {}", m.cpi());
        assert!(m.instructions >= 50_000);
    }

    #[test]
    fn inorder_is_slower_than_ooo_on_the_same_trace() {
        let cb = cb();
        let mut io = InOrderSim::new(MachineConfig::table1_base(), cb.program());
        let mut ooo = DetailedSim::new(MachineConfig::table1_base(), cb.program());
        let m_io = io.simulate(&mut WorkloadStream::new(&cb), 80_000);
        let m_ooo = ooo.simulate(&mut WorkloadStream::new(&cb), 80_000);
        assert!(
            m_io.cpi() > m_ooo.cpi() * 1.5,
            "in-order CPI {:.2} vs OoO {:.2}",
            m_io.cpi(),
            m_ooo.cpi()
        );
        // Cache behaviour is identical — same trace, same hierarchy.
        assert_eq!(m_io.l1d_misses, m_ooo.l1d_misses);
    }

    #[test]
    fn deterministic() {
        let cb = cb();
        let run = || {
            let mut sim = InOrderSim::new(MachineConfig::table1_base(), cb.program());
            sim.simulate(&mut WorkloadStream::new(&cb), 30_000)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_cover_only_the_requested_region() {
        let cb = cb();
        let mut sim = InOrderSim::new(MachineConfig::table1_base(), cb.program());
        let mut stream = WorkloadStream::new(&cb);
        let a = sim.simulate(&mut stream, 10_000);
        let b = sim.simulate(&mut stream, 10_000);
        assert!(a.instructions >= 10_000 && b.instructions >= 10_000);
        assert!(b.cycles > 0, "second region has its own cycle count");
    }
}
