//! Compilation of a [`BenchmarkSpec`] into a static [`Program`] plus the
//! per-block instruction templates the generator patches at run time.
//!
//! Layout (addresses increase top to bottom):
//!
//! ```text
//! B0   H_outer                      outer-loop header (lowest address)
//!      per phase p:
//!        H_p                        inner-loop header
//!        per family b: head_b, alt_b, cont_b
//!      H_init + init family blocks  one-shot init loop
//!      H_tail + tail family blocks  one-shot tail loop
//! ```
//!
//! Headers precede their loop bodies, so every loop back edge is a
//! *backward* branch in the layout — the invariant the dynamic loop
//! detector relies on.

use crate::behavior::{BranchPattern, InstMix, MemoryPattern};
use crate::spec::{BenchmarkSpec, BlockSpec, PhaseSpec};
use mlpa_isa::rng::SplitMix64;
use mlpa_isa::{BlockId, BranchKind, Instruction, OpClass, Program, ProgramBuilder, Reg};

/// Base of the synthetic data segment; families are spaced far enough
/// apart that even 16 MiB working sets never overlap.
const DATA_BASE: u64 = 0x1000_0000;
/// 32 MiB + 96 KiB. The 96 KiB stagger keeps region bases from aliasing
/// into the same cache-set window: a Table I L2 (1 MiB, 4-way, 32 B)
/// indexes on a 256 KiB address window, so power-of-two-spaced regions
/// would all compete for the same quarter of the sets and a nominally
/// L2-resident footprint would thrash on conflicts.
const FAMILY_SPACING: u64 = 0x0201_8000;

/// One past the highest data address family `family` (its index within
/// its phase) can touch with a `working_set`-byte pattern, drift
/// included. Saturates rather than wrapping.
pub(crate) fn data_region_end(family: usize, working_set: u64) -> u64 {
    let scaled = working_set.saturating_mul(crate::behavior::MAX_SET_SCALE).max(8);
    (family as u64).saturating_mul(FAMILY_SPACING).saturating_add(DATA_BASE).saturating_add(scaled)
}

/// A static block's instruction template. The terminator (last slot) and
/// all memory-operand addresses are patched per dynamic instance.
#[derive(Debug, Clone)]
pub struct Template {
    /// Instructions, terminator included as the final slot.
    pub insts: Vec<Instruction>,
    /// Indices of load/store instructions needing address patching.
    pub mem_slots: Vec<u32>,
}

/// Compiled form of one block family (`head` / `alt` / `cont` triple).
#[derive(Debug, Clone)]
pub struct FamilyRt {
    /// Index of the originating [`BlockSpec`] within its phase.
    pub spec_idx: usize,
    /// The pattern-branch block.
    pub head: BlockId,
    /// The conditionally-skipped block.
    pub alt: BlockId,
    /// The self-repeat block.
    pub cont: BlockId,
    /// Mean repetitions per inner iteration at nominal weight.
    pub base_reps: f64,
    /// Base address of this family's data region.
    pub data_base: u64,
    /// Memory pattern (copied from the spec so the generator needs no
    /// spec lookups).
    pub mem: MemoryPattern,
    /// Branch pattern of the head block's conditional.
    pub branch: BranchPattern,
    /// Drift direction of this family's weight.
    pub drift_dir: f64,
}

/// Compiled form of one phase.
#[derive(Debug, Clone)]
pub struct PhaseRt {
    /// Inner-loop header block.
    pub header: BlockId,
    /// The phase's families in skeleton order.
    pub families: Vec<FamilyRt>,
    /// Expected instructions per inner iteration at nominal weights.
    pub expected_inner: f64,
    /// Weight-drift strength (copied from the spec).
    pub drift: f64,
    /// Weight-jitter σ (copied from the spec).
    pub noise: f64,
    /// Performance-drift fraction (copied from the spec).
    pub perf_drift: f64,
}

/// A fully compiled benchmark: static program, templates, and the
/// runtime structure the generator walks.
///
/// # Example
///
/// ```
/// use mlpa_workloads::spec::BenchmarkSpec;
/// use mlpa_workloads::build::CompiledBenchmark;
///
/// let cb = CompiledBenchmark::compile(&BenchmarkSpec::default()).unwrap();
/// assert!(cb.program().num_blocks() > 4);
/// ```
#[derive(Debug, Clone)]
pub struct CompiledBenchmark {
    spec: BenchmarkSpec,
    program: Program,
    templates: Vec<Template>,
    outer_header: BlockId,
    phases: Vec<PhaseRt>,
    /// Init section compiled as a one-shot mini phase (plus its
    /// iteration count).
    init: PhaseRt,
    init_iters: u64,
    tail: PhaseRt,
    tail_iters: u64,
}

impl CompiledBenchmark {
    /// Compile a specification.
    ///
    /// # Errors
    ///
    /// Returns the specification's own validation error, if any, or an
    /// error if the laid-out code reaches
    /// [`ADDRESS_LIMIT`](crate::spec::ADDRESS_LIMIT).
    pub fn compile(spec: &BenchmarkSpec) -> Result<CompiledBenchmark, String> {
        spec.validate()?;
        let mut c = Compiler::new(spec);
        let cb = c.run();
        let text_end = cb.program.blocks().last().map_or(0, |b| b.end_addr());
        if text_end > crate::spec::ADDRESS_LIMIT {
            return Err(format!(
                "code ends at {text_end:#x}, past the address limit {:#x}",
                crate::spec::ADDRESS_LIMIT
            ));
        }
        Ok(cb)
    }

    /// The originating specification.
    pub fn spec(&self) -> &BenchmarkSpec {
        &self.spec
    }

    /// The static program (block table / layout).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Template for a block.
    pub(crate) fn template(&self, id: BlockId) -> &Template {
        &self.templates[id.index()]
    }

    /// The outer-loop header block (`B0`).
    pub fn outer_header(&self) -> BlockId {
        self.outer_header
    }

    /// Compiled phases, indexed by [`PhaseId`](crate::spec::PhaseId).
    pub fn phases(&self) -> &[PhaseRt] {
        &self.phases
    }

    pub(crate) fn init(&self) -> (&PhaseRt, u64) {
        (&self.init, self.init_iters)
    }

    pub(crate) fn tail(&self) -> (&PhaseRt, u64) {
        (&self.tail, self.tail_iters)
    }
}

/// Split a family's `len` into head/alt/cont body lengths (terminators
/// not included).
fn split_len(len: u32) -> (u32, u32, u32) {
    let head = (len * 2 / 5).max(1);
    let alt = (len / 5).max(1);
    let cont = (len - head - alt).max(1);
    (head, alt, cont)
}

struct Compiler<'a> {
    spec: &'a BenchmarkSpec,
    builder: ProgramBuilder,
    templates: Vec<Template>,
    rng: SplitMix64,
    fam_counter: u64,
}

impl<'a> Compiler<'a> {
    fn new(spec: &'a BenchmarkSpec) -> Compiler<'a> {
        Compiler {
            spec,
            builder: ProgramBuilder::new(spec.name.clone()),
            templates: Vec::new(),
            rng: SplitMix64::new(spec.seed).fork(0xC0DE),
            fam_counter: 0,
        }
    }

    fn run(&mut self) -> CompiledBenchmark {
        let outer_header = self.add_header();
        let phases: Vec<PhaseRt> = self.spec.phases.iter().map(|p| self.compile_phase(p)).collect();

        let init_phase = init_touch_phase(self.spec);
        let init = self.compile_phase(&init_phase);
        let init_iters =
            (self.spec.init_insts as f64 / init.expected_inner).round().max(1.0) as u64;
        let tail_phase = section_phase("tail");
        let tail = self.compile_phase(&tail_phase);
        let tail_iters =
            (self.spec.tail_insts as f64 / tail.expected_inner).round().max(1.0) as u64;

        let program = std::mem::take(&mut self.builder).finish();
        CompiledBenchmark {
            spec: self.spec.clone(),
            program,
            templates: std::mem::take(&mut self.templates),
            outer_header,
            phases,
            init,
            init_iters,
            tail,
            tail_iters,
        }
    }

    /// A small 3-instruction loop-header block.
    fn add_header(&mut self) -> BlockId {
        let r = Reg::int(1);
        let insts = vec![
            Instruction::alu(OpClass::IntAlu, r, [r, Reg::int(2)]),
            Instruction::alu(OpClass::IntAlu, Reg::int(3), [r, r]),
            Instruction::branch(BranchKind::Conditional, r, false, BlockId::new(0)),
        ];
        let id = self.builder.add_block(insts.len() as u32);
        self.templates.push(Template { insts, mem_slots: Vec::new() });
        id
    }

    fn compile_phase(&mut self, p: &PhaseSpec) -> PhaseRt {
        let header = self.add_header();
        let header_len = f64::from(self.templates[header.index()].insts.len() as u32);

        // Weighted split of the inner-iteration budget across families.
        let body_budget = (p.inner_iter_insts as f64 - header_len).max(1.0);
        let weighted_len: f64 = p
            .blocks
            .iter()
            .map(|b| {
                // Expected dynamic length of one repetition: head + cont
                // always, alt with the pattern's fall-through rate.
                b.weight * expected_rep_len(b)
            })
            .sum();
        let scale = body_budget / weighted_len;

        let families = p
            .blocks
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let fam = self.compile_family(i, b);
                FamilyRt { base_reps: (b.weight * scale).max(0.05), ..fam }
            })
            .collect::<Vec<_>>();

        let expected_inner = header_len
            + families
                .iter()
                .zip(&p.blocks)
                .map(|(f, b)| f.base_reps * expected_rep_len(b))
                .sum::<f64>();

        PhaseRt {
            header,
            families,
            expected_inner,
            drift: p.drift,
            noise: p.noise,
            perf_drift: p.perf_drift,
        }
    }

    fn compile_family(&mut self, spec_idx: usize, b: &BlockSpec) -> FamilyRt {
        let (hl, al, cl) = split_len(b.len);
        let mut rng = self.rng.fork(self.fam_counter);
        // Families at the same position share a data region *across
        // phases*: real programs reuse their heap, so a phase switch
        // re-warms the L1 but finds the L2 still useful. (Giving every
        // family a private region would make each phase transition a
        // full cold restart of the hierarchy — a multi-megabyte ramp
        // that real workloads do not exhibit at every outer iteration.)
        let data_base = DATA_BASE + spec_idx as u64 * FAMILY_SPACING;
        self.fam_counter += 1;

        let head = self.add_body_block(hl, b, &mut rng);
        let alt = self.add_body_block(al, b, &mut rng);
        let cont = self.add_body_block(cl, b, &mut rng);
        FamilyRt {
            spec_idx,
            head,
            alt,
            cont,
            base_reps: 0.0,
            data_base,
            mem: b.mem,
            branch: b.branch,
            drift_dir: b.drift_dir,
        }
    }

    /// Build one body block of `body_len` instructions plus a terminator.
    fn add_body_block(&mut self, body_len: u32, b: &BlockSpec, rng: &mut SplitMix64) -> BlockId {
        let mut insts = Vec::with_capacity(body_len as usize + 1);
        let mut mem_slots = Vec::new();
        // Rolling window of recently produced registers for dependences.
        let mut recent: [Reg; 4] = [Reg::int(1); 4];
        let mut next_int = 8u8;
        let mut next_fp = 8u8;
        let chase = b.mem.is_dependent();
        // Dedicated chain register for pointer-chase loads.
        let chain = Reg::int(24);

        for i in 0..body_len {
            let op = draw_op(&b.mix, rng);
            let pick_src = |rng: &mut SplitMix64, recent: &[Reg; 4]| -> Reg {
                if rng.chance(b.dep_density) {
                    recent[rng.range_usize(4)]
                } else {
                    Reg::int(1 + rng.range_usize(6) as u8)
                }
            };
            let inst = match op {
                OpClass::Load => {
                    mem_slots.push(i);
                    if chase {
                        Instruction::load(chain, chain, 0)
                    } else {
                        let dst = Reg::int(next_int);
                        next_int = 8 + (next_int - 8 + 1) % 16;
                        let l = Instruction::load(dst, Reg::int(2), 0);
                        recent.rotate_left(1);
                        recent[3] = dst;
                        l
                    }
                }
                OpClass::Store => {
                    mem_slots.push(i);
                    Instruction::store(pick_src(rng, &recent), Reg::int(2), 0)
                }
                op if op.is_fp() => {
                    let dst = Reg::fp(next_fp);
                    next_fp = 8 + (next_fp - 8 + 1) % 16;
                    let s0 = pick_src(rng, &recent);
                    let i = Instruction::alu(op, dst, [s0, Reg::fp(1 + rng.range_usize(6) as u8)]);
                    recent.rotate_left(1);
                    recent[3] = dst;
                    i
                }
                op => {
                    let dst = Reg::int(next_int);
                    next_int = 8 + (next_int - 8 + 1) % 16;
                    let s0 = pick_src(rng, &recent);
                    let s1 = pick_src(rng, &recent);
                    let i = Instruction::alu(op, dst, [s0, s1]);
                    recent.rotate_left(1);
                    recent[3] = dst;
                    i
                }
            };
            insts.push(inst);
        }
        // Terminator placeholder; patched per dynamic instance.
        insts.push(Instruction::branch(BranchKind::Conditional, recent[3], false, BlockId::new(0)));

        let id = self.builder.add_block(insts.len() as u32);
        self.templates.push(Template { insts, mem_slots });
        id
    }
}

/// Expected dynamic instructions of one repetition of a family,
/// including terminators and the alt block at its fall-through rate.
pub(crate) fn expected_rep_len(b: &BlockSpec) -> f64 {
    let (hl, al, cl) = split_len(b.len);
    let p_alt = 1.0 - taken_rate(&b.branch);
    f64::from(hl + 1) + p_alt * f64::from(al + 1) + f64::from(cl + 1)
}

/// Long-run taken rate of a branch pattern.
fn taken_rate(p: &BranchPattern) -> f64 {
    match *p {
        BranchPattern::Biased { p_taken } => p_taken,
        BranchPattern::Periodic { taken, not_taken } => {
            f64::from(taken) / f64::from(u32::from(taken) + u32::from(not_taken)).max(1.0)
        }
    }
}

/// Draw an op class from a mix.
fn draw_op(mix: &InstMix, rng: &mut SplitMix64) -> OpClass {
    let x = rng.next_f64();
    let mut acc = mix.load;
    if x < acc {
        return OpClass::Load;
    }
    acc += mix.store;
    if x < acc {
        return OpClass::Store;
    }
    acc += mix.fp_add;
    if x < acc {
        return OpClass::FpAdd;
    }
    acc += mix.fp_mul;
    if x < acc {
        return OpClass::FpMul;
    }
    acc += mix.fp_div;
    if x < acc {
        return OpClass::FpDiv;
    }
    acc += mix.int_mul;
    if x < acc {
        return OpClass::IntMul;
    }
    acc += mix.int_div;
    if x < acc {
        return OpClass::IntDiv;
    }
    OpClass::IntAlu
}

/// The auto-generated mini phase used for the tail section: one bland
/// L1-resident family, no drift.
fn section_phase(name: &str) -> PhaseSpec {
    PhaseSpec {
        name: name.into(),
        blocks: vec![BlockSpec {
            len: 18,
            weight: 1.0,
            drift_dir: 0.0,
            mix: InstMix { load: 0.2, store: 0.1, ..InstMix::default() },
            mem: MemoryPattern::Strided { stride: 8, working_set: 4 * 1024 },
            branch: BranchPattern::Biased { p_taken: 0.05 },
            dep_density: 0.3,
        }],
        inner_iter_insts: 120,
        drift: 0.0,
        noise: 0.05,
        perf_drift: 0.0,
    }
}

/// The init section *initialises the program's data*: it streams
/// line-granular stores through the data regions the phases will use,
/// the way real programs read inputs and build their data structures
/// before entering the main loop. Without this, the first-ever
/// iteration of every phase would pay the entire compulsory-miss ramp
/// of its working set — a cost that real reference-input runs amortise
/// over runs 1000× longer, and which would otherwise systematically
/// contaminate the *earliest instances* COASTS selects.
///
/// The touch volume is bounded by the spec's `init_insts` budget: each
/// region slot gets a share of the touchable bytes proportional to its
/// largest working set across phases.
fn init_touch_phase(spec: &BenchmarkSpec) -> PhaseSpec {
    let slots = spec.phases.iter().map(|p| p.blocks.len()).max().unwrap_or(1);
    let slot_ws: Vec<u64> = (0..slots)
        .map(|k| {
            spec.phases
                .iter()
                .filter_map(|p| p.blocks.get(k))
                .map(|b| b.mem.working_set())
                .max()
                .unwrap_or(4 * 1024)
        })
        .collect();
    let total_ws: u64 = slot_ws.iter().sum::<u64>().max(1);
    // Touchable bytes: roughly half the init instructions are memory
    // ops, each advancing one 32-byte line.
    let touch_bytes = spec.init_insts / 2 * 32;

    let blocks = slot_ws
        .iter()
        .map(|&ws| {
            let share = (touch_bytes as f64 * ws as f64 / total_ws as f64) as u64;
            BlockSpec {
                len: 16,
                weight: (ws as f64 / total_ws as f64).max(0.02),
                drift_dir: 0.0,
                mix: InstMix { load: 0.25, store: 0.25, ..InstMix::default() },
                mem: MemoryPattern::Strided { stride: 32, working_set: share.min(ws).max(64) },
                branch: BranchPattern::Biased { p_taken: 0.05 },
                dep_density: 0.2,
            }
        })
        .collect();

    PhaseSpec {
        name: "init".into(),
        blocks,
        inner_iter_insts: 400,
        drift: 0.0,
        noise: 0.05,
        perf_drift: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScriptEntry;

    #[test]
    fn compiles_default_spec() {
        let cb = CompiledBenchmark::compile(&BenchmarkSpec::default()).unwrap();
        assert_eq!(cb.outer_header(), BlockId::new(0));
        assert_eq!(cb.phases().len(), 1);
        // header + (header + 3 blocks per family) per phase + init + tail.
        assert!(cb.program().num_blocks() >= 1 + 4 + 4 + 4);
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let mut s = BenchmarkSpec::default();
        s.script.clear();
        assert!(CompiledBenchmark::compile(&s).is_err());
    }

    #[test]
    fn headers_precede_their_bodies() {
        let cb = CompiledBenchmark::compile(&BenchmarkSpec::default()).unwrap();
        let p = &cb.phases()[0];
        for f in &p.families {
            assert!(p.header < f.head);
            assert!(f.head < f.alt && f.alt < f.cont);
            assert!(cb.program().is_backward(f.cont, f.head));
            assert!(cb.program().is_backward(f.cont, p.header));
            assert!(cb.program().is_backward(f.cont, cb.outer_header()));
        }
    }

    #[test]
    fn templates_match_block_lengths() {
        let cb = CompiledBenchmark::compile(&BenchmarkSpec::default()).unwrap();
        for b in cb.program().blocks() {
            let t = cb.template(b.id);
            assert_eq!(t.insts.len() as u32, b.len, "template/block len mismatch at {}", b.id);
            // The terminator is the only branch, and `mem_slots` lists
            // every load and store in program order: the generator's warm
            // step reads a block from these two alone.
            let (term, body) = t.insts.split_last().unwrap();
            assert!(term.is_branch());
            assert!(body.iter().all(|i| !i.is_branch()), "a branch before the terminator");
            let mem: Vec<u32> = (0..b.len).filter(|&i| t.insts[i as usize].is_mem()).collect();
            assert_eq!(t.mem_slots, mem, "memory slots of {}", b.id);
        }
    }

    #[test]
    fn family_regions_do_not_overlap() {
        let mut s = BenchmarkSpec::default();
        s.phases[0].blocks.push(BlockSpec {
            mem: MemoryPattern::RandomInSet { working_set: 16 << 20 },
            ..BlockSpec::default()
        });
        let cb = CompiledBenchmark::compile(&s).unwrap();
        let fams = &cb.phases()[0].families;
        for w in fams.windows(2) {
            assert!(w[1].data_base - w[0].data_base >= (16 << 20) as u64 * 2);
        }
    }

    #[test]
    fn expected_inner_size_tracks_request() {
        let mut s = BenchmarkSpec::default();
        s.phases[0].inner_iter_insts = 2_000;
        s.script = vec![ScriptEntry::new(0, 100_000); 4];
        let cb = CompiledBenchmark::compile(&s).unwrap();
        let e = cb.phases()[0].expected_inner;
        assert!(
            (e - 2_000.0).abs() / 2_000.0 < 0.25,
            "expected inner {e} too far from requested 2000"
        );
    }

    #[test]
    fn compilation_is_deterministic() {
        let a = CompiledBenchmark::compile(&BenchmarkSpec::default()).unwrap();
        let b = CompiledBenchmark::compile(&BenchmarkSpec::default()).unwrap();
        assert_eq!(a.program(), b.program());
        for blk in a.program().blocks() {
            assert_eq!(a.template(blk.id).insts, b.template(blk.id).insts);
        }
    }

    #[test]
    fn section_iters_scale_with_requested_size() {
        let s = BenchmarkSpec { init_insts: 10_000, ..BenchmarkSpec::default() };
        let cb = CompiledBenchmark::compile(&s).unwrap();
        let (init, iters) = cb.init();
        let total = iters as f64 * init.expected_inner;
        assert!((total - 10_000.0).abs() / 10_000.0 < 0.2, "init total {total}");
    }
}
