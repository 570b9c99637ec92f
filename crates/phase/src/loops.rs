//! Dynamic detection of cyclic program structures (loops) from the
//! block trace, following the classic backward-branch loop-stack
//! technique (as used by the profiling stages of SPM [Lau et al., CGO
//! 2006] and positional adaptation [Huang et al., ISCA 2003]).
//!
//! The detector watches block-to-block transitions:
//!
//! * a transition to a block at a **lower or equal address** is a back
//!   edge; its target is a loop header;
//! * on a back edge to `H`, every loop on the stack whose header lies at
//!   a higher address than `H` has necessarily been exited (a loop is a
//!   contiguous address range in our layouts) and is popped;
//! * if `H` is then on top of the stack this is a **new iteration** of
//!   that loop, otherwise `H` starts a **new loop**.
//!
//! Instructions are attributed to every loop currently on the stack, so
//! an outer loop's coverage includes its nested loops. COASTS selects
//! the *outermost* structure (minimum observed depth, maximum coverage)
//! among those with coverage ≥ 1 %, then slices the program at every
//! entry of that structure's header
//! ([`BoundaryProfiler`](crate::interval::BoundaryProfiler)).
//!
//! Two detectors apply these rules. [`LoopProfiler`] is the one the
//! pipeline runs: it takes `(block, length)` records from a metadata
//! walk and settles coverage per loop episode, O(1) amortised per
//! block. [`LoopMonitor`] is the functional-simulator observer that
//! attributes every block to every live loop, O(depth) per block; it
//! stays as the reference the profiler is tested against.

use mlpa_isa::{BlockId, Instruction, Program};
use mlpa_sim::functional::Observer;
use std::collections::HashMap;

/// Statistics for one detected cyclic structure.
#[derive(Debug, Clone, PartialEq)]
pub struct CyclicStructure {
    /// The loop-header block.
    pub header: BlockId,
    /// Instructions executed while this loop was live (nested loops
    /// included).
    pub coverage_insts: u64,
    /// Back-edge count (≈ iterations − 1 per entry).
    pub back_edges: u64,
    /// Number of distinct times the loop was entered.
    pub entries: u64,
    /// Minimum nesting depth at which this header was pushed (0 =
    /// outermost).
    pub min_depth: usize,
}

impl CyclicStructure {
    /// Coverage as a fraction of `total` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero.
    pub fn coverage(&self, total: u64) -> f64 {
        assert!(total > 0, "total must be positive");
        self.coverage_insts as f64 / total as f64
    }
}

#[derive(Debug)]
struct Frame {
    header: BlockId,
    header_addr: u64,
}

/// The loop-profiling functional-simulator observer: it attributes
/// every block to every live loop, O(depth) per block. The pipeline
/// runs [`LoopProfiler`]; this is the reference it is tested against.
#[derive(Debug)]
pub struct LoopMonitor<'p> {
    program: &'p Program,
    stack: Vec<Frame>,
    stats: HashMap<BlockId, CyclicStructure>,
    prev: Option<BlockId>,
    total_insts: u64,
}

impl<'p> LoopMonitor<'p> {
    /// Create a monitor for `program`.
    pub fn new(program: &'p Program) -> LoopMonitor<'p> {
        LoopMonitor {
            program,
            stack: Vec::new(),
            stats: HashMap::new(),
            prev: None,
            total_insts: 0,
        }
    }

    /// Total instructions observed.
    pub fn total_insts(&self) -> u64 {
        self.total_insts
    }

    /// Finish profiling and return all detected structures, outermost
    /// (then most-covering) first.
    pub fn finish(self) -> LoopProfile {
        LoopProfile::sorted(self.stats, self.total_insts)
    }
}

impl Observer for LoopMonitor<'_> {
    fn on_block(&mut self, id: BlockId, insts: &[Instruction], _first: u64) {
        let n = insts.len() as u64;
        self.total_insts += n;

        if let Some(prev) = self.prev {
            if self.program.is_backward(prev, id) {
                let target_addr = self.program.block(id).addr;
                // Pop every loop whose header lies above the target.
                while let Some(top) = self.stack.last() {
                    if top.header_addr > target_addr {
                        self.stack.pop();
                    } else {
                        break;
                    }
                }
                match self.stack.last() {
                    Some(top) if top.header == id => {
                        // New iteration of the current loop.
                        if let Some(s) = self.stats.get_mut(&id) {
                            s.back_edges += 1;
                        }
                    }
                    _ => {
                        // New loop discovered (or re-entered).
                        let depth = self.stack.len();
                        let entry = self.stats.entry(id).or_insert_with(|| CyclicStructure {
                            header: id,
                            coverage_insts: 0,
                            back_edges: 0,
                            entries: 0,
                            min_depth: depth,
                        });
                        entry.entries += 1;
                        entry.back_edges += 1;
                        entry.min_depth = entry.min_depth.min(depth);
                        self.stack
                            .push(Frame { header: id, header_addr: self.program.block(id).addr });
                    }
                }
            }
        }

        // Attribute this block's instructions to every live loop.
        for f in &self.stack {
            if let Some(s) = self.stats.get_mut(&f.header) {
                s.coverage_insts += n;
            }
        }
        self.prev = Some(id);
    }
}

/// A live loop of [`LoopProfiler`]: its header and the instruction
/// count at which the current episode began.
#[derive(Debug)]
struct Episode {
    header: BlockId,
    header_addr: u64,
    start: u64,
}

/// The pipeline's loop profiler (pass 1 of COASTS): [`LoopMonitor`]'s
/// stack transitions, fed `(block, length)` records, so it runs on a
/// metadata walk that materialises no instruction.
///
/// Coverage uses snapshot accounting. A loop is live over one
/// contiguous instruction range per episode, from its push to its pop,
/// so each stack frame records the instruction count at its push and
/// adds `count_at_pop − count_at_push` to the loop's coverage when it
/// is popped (or at [`LoopProfiler::finish`] if still live). The sums
/// equal [`LoopMonitor`]'s per-block attribution term for term, in
/// exact integer arithmetic, at O(1) amortised work per block instead
/// of O(depth) hash lookups.
///
/// # Example
///
/// ```
/// use mlpa_isa::stream::InstructionStream;
/// use mlpa_phase::loops::LoopProfiler;
/// use mlpa_workloads::{spec::BenchmarkSpec, CompiledBenchmark, WorkloadStream};
///
/// let cb = CompiledBenchmark::compile(&BenchmarkSpec::default())?;
/// let mut prof = LoopProfiler::new(cb.program());
/// let (mut stream, mut scratch) = (WorkloadStream::new(&cb), Vec::new());
/// while let Some(m) = stream.next_block_meta(&mut scratch) {
///     prof.record(m.id, m.insts);
/// }
/// let outer = prof.finish().select_outermost(0.01).map(|s| s.header);
/// assert_eq!(outer, Some(cb.outer_header()));
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct LoopProfiler<'p> {
    program: &'p Program,
    stack: Vec<Episode>,
    stats: HashMap<BlockId, CyclicStructure>,
    prev: Option<BlockId>,
    total_insts: u64,
}

impl<'p> LoopProfiler<'p> {
    /// Create a profiler for `program`.
    pub fn new(program: &'p Program) -> LoopProfiler<'p> {
        LoopProfiler {
            program,
            stack: Vec::new(),
            stats: HashMap::new(),
            prev: None,
            total_insts: 0,
        }
    }

    /// Observe one executed block of `insts` instructions.
    #[inline]
    pub fn record(&mut self, id: BlockId, insts: u64) {
        // The monitor pops before it attributes a block, so a popped
        // episode ends at the count before this block, and a pushed one
        // starts there (it receives this block's instructions).
        let before = self.total_insts;
        self.total_insts += insts;
        let Some(prev) = self.prev.replace(id) else { return };
        if !self.program.is_backward(prev, id) {
            return;
        }
        let target_addr = self.program.block(id).addr;
        while let Some(top) = self.stack.pop_if(|top| top.header_addr > target_addr) {
            self.stats.get_mut(&top.header).expect("a live loop has stats").coverage_insts +=
                before - top.start;
        }
        match self.stack.last() {
            Some(top) if top.header == id => {
                self.stats.get_mut(&id).expect("a live loop has stats").back_edges += 1;
            }
            _ => {
                let depth = self.stack.len();
                let s = self.stats.entry(id).or_insert(CyclicStructure {
                    header: id,
                    coverage_insts: 0,
                    back_edges: 0,
                    entries: 0,
                    min_depth: depth,
                });
                s.entries += 1;
                s.back_edges += 1;
                s.min_depth = s.min_depth.min(depth);
                self.stack.push(Episode { header: id, header_addr: target_addr, start: before });
            }
        }
    }

    /// Settle the episodes still live and return every detected
    /// structure, outermost (then most-covering) first.
    pub fn finish(mut self) -> LoopProfile {
        for e in &self.stack {
            self.stats.get_mut(&e.header).expect("a live loop has stats").coverage_insts +=
                self.total_insts - e.start;
        }
        LoopProfile::sorted(self.stats, self.total_insts)
    }
}

/// The result of loop profiling.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopProfile {
    /// Detected structures, outermost / most-covering first.
    pub structures: Vec<CyclicStructure>,
    /// Total instructions in the profiled trace.
    pub total_insts: u64,
}

impl LoopProfile {
    /// The profile of `stats`, sorted outermost (minimum depth) first,
    /// then by coverage descending, then by header.
    fn sorted(stats: HashMap<BlockId, CyclicStructure>, total_insts: u64) -> LoopProfile {
        let mut structures: Vec<CyclicStructure> = stats.into_values().collect();
        structures.sort_by(|a, b| {
            a.min_depth
                .cmp(&b.min_depth)
                .then(b.coverage_insts.cmp(&a.coverage_insts))
                .then(a.header.cmp(&b.header))
        });
        LoopProfile { structures, total_insts }
    }

    /// Structures with coverage at least `min_coverage` (the paper
    /// discards those under 1 %).
    pub fn significant(&self, min_coverage: f64) -> Vec<&CyclicStructure> {
        self.structures
            .iter()
            .filter(|s| self.total_insts > 0 && s.coverage(self.total_insts) >= min_coverage)
            .collect()
    }

    /// The structure COASTS slices at: the outermost (min depth), then
    /// most-covering, significant structure. `None` if nothing clears
    /// `min_coverage`.
    pub fn select_outermost(&self, min_coverage: f64) -> Option<&CyclicStructure> {
        // `structures` is already sorted outermost/most-covering first.
        self.significant(min_coverage).into_iter().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpa_sim::FunctionalSim;
    use mlpa_workloads::{
        spec::{BenchmarkSpec, PhaseSpec, ScriptEntry},
        CompiledBenchmark, WorkloadStream,
    };

    fn profile(cb: &CompiledBenchmark) -> LoopProfile {
        let mut mon = LoopMonitor::new(cb.program());
        FunctionalSim::new(cb.program()).run(WorkloadStream::new(cb), &mut mon);
        mon.finish()
    }

    #[test]
    fn detects_the_outer_loop_as_dominant() {
        let cb = CompiledBenchmark::compile(&BenchmarkSpec::default()).unwrap();
        let prof = profile(&cb);
        let sel = prof.select_outermost(0.01).expect("outer loop found");
        assert_eq!(sel.header, cb.outer_header(), "outer header dominates");
        assert_eq!(sel.min_depth, 0);
        assert!(
            sel.coverage(prof.total_insts) > 0.9,
            "outer loop covers most of the run: {}",
            sel.coverage(prof.total_insts)
        );
    }

    #[test]
    fn iteration_count_matches_script() {
        let spec = BenchmarkSpec {
            script: vec![ScriptEntry::new(0, 50_000); 12],
            ..BenchmarkSpec::default()
        };
        let cb = CompiledBenchmark::compile(&spec).unwrap();
        let prof = profile(&cb);
        let sel = prof.select_outermost(0.01).unwrap();
        // One entry, then a back edge per remaining outer iteration.
        assert_eq!(sel.entries, 1);
        assert_eq!(sel.back_edges, 12, "11 iteration back-edges + entry edge");
    }

    #[test]
    fn nested_structures_have_higher_depth() {
        let cb = CompiledBenchmark::compile(&BenchmarkSpec::default()).unwrap();
        let prof = profile(&cb);
        // Phase inner-loop headers sit at depth 1 under the outer loop.
        let inner = cb.phases()[0].header;
        let s = prof.structures.iter().find(|s| s.header == inner).expect("inner loop detected");
        assert!(s.min_depth >= 1, "inner loop depth {}", s.min_depth);
    }

    #[test]
    fn coverage_filter_discards_noise() {
        let cb = CompiledBenchmark::compile(&BenchmarkSpec::default()).unwrap();
        let prof = profile(&cb);
        let all = prof.structures.len();
        let sig = prof.significant(0.01).len();
        assert!(sig <= all);
        assert!(sig >= 1);
        // With an absurd threshold nothing survives.
        assert!(prof.select_outermost(1.1).is_none());
    }

    #[test]
    fn multi_phase_benchmark_still_selects_outer_header() {
        let spec = BenchmarkSpec {
            phases: vec![
                PhaseSpec { name: "a".into(), ..PhaseSpec::default() },
                PhaseSpec { name: "b".into(), ..PhaseSpec::default() },
            ],
            script: (0..10).map(|i| ScriptEntry::new(i % 2, 40_000)).collect(),
            ..BenchmarkSpec::default()
        };
        let cb = CompiledBenchmark::compile(&spec).unwrap();
        let prof = profile(&cb);
        assert_eq!(prof.select_outermost(0.01).unwrap().header, cb.outer_header());
    }

    #[test]
    fn total_insts_matches_functional_count() {
        let cb = CompiledBenchmark::compile(&BenchmarkSpec::default()).unwrap();
        let mut mon = LoopMonitor::new(cb.program());
        let stats = FunctionalSim::new(cb.program()).run(WorkloadStream::new(&cb), &mut mon);
        assert_eq!(mon.total_insts(), stats.instructions);
    }
}
