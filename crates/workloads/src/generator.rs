//! Streaming trace generation from a compiled benchmark.
//!
//! [`WorkloadStream`] walks the benchmark's structure — init loop, outer
//! loop over the script, inner loops over the weighted block families,
//! tail loop — and emits one dynamic basic block per call, patching
//! memory addresses and branch outcomes from the per-family behaviour
//! cursors. Two streams over the same [`CompiledBenchmark`] produce
//! bit-identical traces: all randomness is forked from the benchmark
//! seed in a fixed order.

use crate::behavior::{BranchCursor, MemoryCursor};
use crate::build::{CompiledBenchmark, PhaseRt};
use mlpa_isa::rng::SplitMix64;
use mlpa_isa::stream::{push_warm_access, BlockMeta, InstructionStream};
use mlpa_isa::{BlockId, BranchInfo, BranchKind, Instruction, OpClass};

/// Hard cap on a family's repetitions in one inner iteration, as a
/// multiple of its nominal count — keeps pathological jitter draws from
/// distorting iteration sizes.
const MAX_REPS_FACTOR: f64 = 6.0;

/// Dynamic state of one block family.
#[derive(Debug, Clone)]
struct FamState {
    mem: MemoryCursor,
    branch: BranchCursor,
}

/// Which structural run the cursor is in (`Script(i)` = *next* script
/// entry to start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    Init,
    Script(usize),
    Tail,
    Done,
}

/// Micro-position within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Micro {
    NextRun,
    IterBegin,
    FamNext,
    AfterHead,
    AfterAlt,
    Done,
}

/// One slot in the emission sequence.
#[derive(Debug, Clone, Copy)]
struct Slot {
    block: BlockId,
    /// Flat family index for body blocks; `None` for headers.
    fam: Option<usize>,
}

/// Identifies which compiled phase drives the current run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhaseSel {
    Phase(usize),
    Init,
    Tail,
}

/// A deterministic [`InstructionStream`] over a compiled benchmark.
///
/// # Example
///
/// ```
/// use mlpa_isa::stream::drain_count;
/// use mlpa_workloads::spec::BenchmarkSpec;
/// use mlpa_workloads::{CompiledBenchmark, WorkloadStream};
///
/// let cb = CompiledBenchmark::compile(&BenchmarkSpec::default())?;
/// let stats = drain_count(WorkloadStream::new(&cb));
/// // The trace lands near the spec's nominal length.
/// let nominal = cb.spec().nominal_insts() as f64;
/// assert!((stats.instructions as f64) > nominal * 0.6);
/// assert!((stats.instructions as f64) < nominal * 1.6);
/// # Ok::<(), String>(())
/// ```
/// Cloning a stream forks it at its current position: both streams
/// then emit the identical remaining trace independently. Plan
/// executors use this to let a detailed simulator and a functional
/// warmer traverse the same region without re-generating the prefix.
#[derive(Debug, Clone)]
pub struct WorkloadStream<'a> {
    cb: &'a CompiledBenchmark,
    /// Per-family dynamic cursors, flat-indexed: all script phases in
    /// order, then init, then tail.
    fams: Vec<FamState>,
    phase_base: Vec<usize>,
    init_base: usize,
    tail_base: usize,
    ctrl: SplitMix64,
    emitted: u64,
    total_nominal: u64,

    run: Run,
    micro: Micro,
    sel: PhaseSel,
    inner_j: u64,
    inner_total: u64,
    fam_idx: usize,
    rep_idx: u32,
    reps: Vec<u32>,
    take_alt: bool,
    lookahead: Option<Slot>,
    started: bool,
}

impl<'a> WorkloadStream<'a> {
    /// Create a stream positioned at the start of the benchmark.
    pub fn new(cb: &'a CompiledBenchmark) -> WorkloadStream<'a> {
        let seed = SplitMix64::new(cb.spec().seed);
        let mut fams = Vec::new();
        let mut phase_base = Vec::new();
        let mut flat = 0usize;

        fn push_phase(rt: &PhaseRt, seed: &SplitMix64, fams: &mut Vec<FamState>, flat: &mut usize) {
            for f in &rt.families {
                fams.push(FamState {
                    mem: MemoryCursor::new(
                        f.mem,
                        f.data_base,
                        seed.fork(0x4D45_4D00 ^ *flat as u64),
                    ),
                    branch: BranchCursor::new(f.branch, seed.fork(0x4252_0000 ^ *flat as u64)),
                });
                *flat += 1;
            }
        }

        for p in cb.phases() {
            phase_base.push(flat);
            push_phase(p, &seed, &mut fams, &mut flat);
        }
        let init_base = flat;
        push_phase(cb.init().0, &seed, &mut fams, &mut flat);
        let tail_base = flat;
        push_phase(cb.tail().0, &seed, &mut fams, &mut flat);

        WorkloadStream {
            cb,
            fams,
            phase_base,
            init_base,
            tail_base,
            ctrl: seed.fork(0x5452_4C43),
            emitted: 0,
            total_nominal: cb.spec().nominal_insts().max(1),
            run: Run::Init,
            micro: Micro::NextRun,
            sel: PhaseSel::Init,
            inner_j: 0,
            inner_total: 0,
            fam_idx: 0,
            rep_idx: 0,
            reps: Vec::new(),
            take_alt: false,
            lookahead: None,
            started: false,
        }
    }

    /// Instructions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    fn phase_rt(&self) -> &'a PhaseRt {
        match self.sel {
            PhaseSel::Init => self.cb.init().0,
            PhaseSel::Tail => self.cb.tail().0,
            PhaseSel::Phase(i) => &self.cb.phases()[i],
        }
    }

    fn flat_base(&self) -> usize {
        match self.sel {
            PhaseSel::Init => self.init_base,
            PhaseSel::Tail => self.tail_base,
            PhaseSel::Phase(i) => self.phase_base[i],
        }
    }

    /// Progress through the nominal run, in `[0, 1]`.
    fn progress(&self) -> f64 {
        (self.emitted as f64 / self.total_nominal as f64).clamp(0.0, 1.0)
    }

    /// Start the next run; returns the outer-header slot for script runs.
    fn begin_next_run(&mut self) -> Option<Slot> {
        loop {
            match self.run {
                Run::Init => {
                    let (_, iters) = self.cb.init();
                    self.sel = PhaseSel::Init;
                    self.inner_j = 0;
                    self.inner_total = iters;
                    self.run = Run::Script(0);
                    self.micro = Micro::IterBegin;
                    return None;
                }
                Run::Script(i) => {
                    if i >= self.cb.spec().script.len() {
                        self.run = Run::Tail;
                        continue;
                    }
                    let entry = self.cb.spec().script[i];
                    let rt = &self.cb.phases()[entry.phase];
                    self.sel = PhaseSel::Phase(entry.phase);
                    self.inner_j = 0;
                    self.inner_total =
                        ((entry.insts as f64 / rt.expected_inner).round() as u64).max(1);
                    self.run = Run::Script(i + 1);
                    self.micro = Micro::IterBegin;
                    return Some(Slot { block: self.cb.outer_header(), fam: None });
                }
                Run::Tail => {
                    let (_, iters) = self.cb.tail();
                    self.sel = PhaseSel::Tail;
                    self.inner_j = 0;
                    self.inner_total = iters;
                    self.run = Run::Done;
                    self.micro = Micro::IterBegin;
                    return None;
                }
                Run::Done => {
                    self.micro = Micro::Done;
                    return None;
                }
            }
        }
    }

    /// Draw this inner iteration's repetition counts and update the
    /// perf-drift knobs on the behaviour cursors.
    fn compute_reps(&mut self) {
        let rt = self.phase_rt();
        let g = self.progress();
        let base = self.flat_base();
        self.reps.clear();
        for (k, f) in rt.families.iter().enumerate() {
            let drift_mult = (rt.drift * f.drift_dir * (g - 0.5)).exp();
            let jitter = (rt.noise * self.ctrl.next_gauss()).exp();
            let cap = (f.base_reps * MAX_REPS_FACTOR + 8.0).round();
            let m = (f.base_reps * drift_mult * jitter).round().clamp(0.0, cap);
            self.reps.push(m as u32);

            if rt.perf_drift > 0.0 {
                let knob = rt.perf_drift * rt.drift * f.drift_dir * (g - 0.5);
                let st = &mut self.fams[base + k];
                st.mem.set_scale(knob.exp());
                st.branch.set_bias_shift(rt.perf_drift * 0.3 * (g - 0.5));
            }
        }
        // Guarantee at least one block instance per iteration so headers
        // never chain emptily.
        if self.reps.iter().all(|&m| m == 0) {
            self.reps[0] = 1;
        }
    }

    /// Advance the position cursor to the next slot.
    fn advance(&mut self) -> Option<Slot> {
        loop {
            match self.micro {
                Micro::NextRun => {
                    if let Some(slot) = self.begin_next_run() {
                        return Some(slot);
                    }
                    if self.micro == Micro::Done {
                        return None;
                    }
                }
                Micro::IterBegin => {
                    if self.inner_j < self.inner_total {
                        self.inner_j += 1;
                        self.compute_reps();
                        self.fam_idx = 0;
                        self.rep_idx = 0;
                        self.micro = Micro::FamNext;
                        return Some(Slot { block: self.phase_rt().header, fam: None });
                    }
                    self.micro = Micro::NextRun;
                }
                Micro::FamNext => {
                    let rt = self.phase_rt();
                    if self.fam_idx >= rt.families.len() {
                        self.micro = Micro::IterBegin;
                        continue;
                    }
                    if self.rep_idx >= self.reps[self.fam_idx] {
                        self.fam_idx += 1;
                        self.rep_idx = 0;
                        continue;
                    }
                    let flat = self.flat_base() + self.fam_idx;
                    // The head's pattern branch: taken skips the alt block.
                    self.take_alt = !self.fams[flat].branch.next_taken();
                    self.micro = Micro::AfterHead;
                    return Some(Slot { block: rt.families[self.fam_idx].head, fam: Some(flat) });
                }
                Micro::AfterHead => {
                    let rt = self.phase_rt();
                    let flat = self.flat_base() + self.fam_idx;
                    self.micro = Micro::AfterAlt;
                    if self.take_alt {
                        return Some(Slot {
                            block: rt.families[self.fam_idx].alt,
                            fam: Some(flat),
                        });
                    }
                }
                Micro::AfterAlt => {
                    let rt = self.phase_rt();
                    let flat = self.flat_base() + self.fam_idx;
                    self.rep_idx += 1;
                    self.micro = Micro::FamNext;
                    return Some(Slot { block: rt.families[self.fam_idx].cont, fam: Some(flat) });
                }
                Micro::Done => return None,
            }
        }
    }

    /// Emit `slot` into `out`, patching memory addresses and terminator.
    fn emit(&mut self, slot: Slot, next: Option<Slot>, out: &mut Vec<Instruction>) -> BlockId {
        let t = self.cb.template(slot.block);
        out.clear();
        out.extend_from_slice(&t.insts);
        if let Some(fi) = slot.fam {
            for (&s, addr) in t.mem_slots.iter().zip(self.fams[fi].mem.addrs()) {
                out[s as usize].addr = addr;
            }
        }
        let last = out.len() - 1;
        out[last].branch = Some(terminator(slot, next));
        self.emitted += out.len() as u64;
        slot.block
    }

    /// [`WorkloadStream::emit`] as functional warming reads it: append
    /// the warm record of every memory slot, drawing the cursor exactly
    /// as `emit` does, and report the terminator, the template's only
    /// branch, without building an instruction.
    fn emit_warm(
        &mut self,
        slot: Slot,
        next: Option<Slot>,
        records: &mut Vec<u64>,
        branches: &mut Vec<(u32, BranchInfo)>,
    ) -> BlockMeta {
        let t = self.cb.template(slot.block);
        let slots = t.mem_slots.iter().map(|&s| &t.insts[s as usize]);
        match slot.fam {
            Some(fi) => {
                for (inst, addr) in slots.zip(self.fams[fi].mem.addrs()) {
                    push_warm_access(records, addr, inst.op == OpClass::Store);
                }
            }
            // A header has no cursor and keeps its template's addresses.
            None => slots.for_each(|i| push_warm_access(records, i.addr, i.op == OpClass::Store)),
        }
        let insts = t.insts.len() as u64;
        branches.clear();
        branches.push((insts as u32 - 1, terminator(slot, next)));
        self.emitted += insts;
        BlockMeta { id: slot.block, insts }
    }

    /// [`WorkloadStream::emit`] minus materialisation: replicate every
    /// state effect of emitting `slot` — the memory cursor's draws
    /// (collapsed to an O(1) [`MemoryCursor::skip`]) and the emitted
    /// counter — without touching instruction storage. Terminator
    /// patching consumes no stream state, so skipping it is free.
    fn emit_meta(&mut self, slot: Slot) -> BlockMeta {
        let t = self.cb.template(slot.block);
        if let Some(fi) = slot.fam {
            self.fams[fi].mem.skip(t.mem_slots.len() as u64);
        }
        let insts = t.insts.len() as u64;
        self.emitted += insts;
        BlockMeta { id: slot.block, insts }
    }
}

/// The terminator of `slot` when `next` follows it: a conditional branch
/// taken unless `next` is the fall-through block, or a final return at
/// the end of the program.
fn terminator(slot: Slot, next: Option<Slot>) -> BranchInfo {
    let (kind, taken, target) = match next {
        Some(n) => {
            let fallthrough = slot.block.index() + 1 == n.block.index();
            (BranchKind::Conditional, !fallthrough, n.block)
        }
        // Program end: model as a final return.
        None => (BranchKind::Return, true, slot.block),
    };
    BranchInfo { kind, taken, target }
}

impl InstructionStream for WorkloadStream<'_> {
    fn next_block(&mut self, out: &mut Vec<Instruction>) -> Option<BlockId> {
        if !self.started {
            self.started = true;
            self.lookahead = self.advance();
        }
        let cur = self.lookahead?;
        self.lookahead = self.advance();
        Some(self.emit(cur, self.lookahead, out))
    }

    /// Deterministic mid-trace entry: meta steps run the full control
    /// state machine (rep draws, branch draws, run transitions) but
    /// skip address materialisation, so fast-forwarding to segment *k*
    /// costs a fraction of emitting the prefix — and a subsequent
    /// [`next_block`](InstructionStream::next_block) continues the
    /// trace bit-identically (pinned by
    /// `meta_walk_continues_bit_identically`).
    fn next_block_meta(&mut self, _scratch: &mut Vec<Instruction>) -> Option<BlockMeta> {
        if !self.started {
            self.started = true;
            self.lookahead = self.advance();
        }
        let cur = self.lookahead?;
        self.lookahead = self.advance();
        Some(self.emit_meta(cur))
    }

    /// Functional warming's step: the control state machine as in
    /// [`next_block`](InstructionStream::next_block), and the block's
    /// warm records written straight from its template's memory slots
    /// and the family's address cursor, so no instruction is built.
    fn next_block_warm(
        &mut self,
        records: &mut Vec<u64>,
        branches: &mut Vec<(u32, BranchInfo)>,
        _scratch: &mut Vec<Instruction>,
    ) -> Option<BlockMeta> {
        if !self.started {
            self.started = true;
            self.lookahead = self.advance();
        }
        let cur = self.lookahead?;
        self.lookahead = self.advance();
        Some(self.emit_warm(cur, self.lookahead, records, branches))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BenchmarkSpec, PhaseSpec, ScriptEntry};
    use mlpa_isa::stream::drain_count;

    fn small_spec() -> BenchmarkSpec {
        BenchmarkSpec {
            name: "gen-test".into(),
            seed: 7,
            init_insts: 500,
            tail_insts: 300,
            phases: vec![PhaseSpec::default()],
            script: vec![ScriptEntry::new(0, 20_000); 4],
        }
    }

    #[test]
    fn trace_length_tracks_nominal() {
        let cb = CompiledBenchmark::compile(&small_spec()).unwrap();
        let stats = drain_count(WorkloadStream::new(&cb));
        let nominal = cb.spec().nominal_insts() as f64;
        let actual = stats.instructions as f64;
        assert!((actual / nominal - 1.0).abs() < 0.35, "trace {actual} vs nominal {nominal}");
    }

    #[test]
    fn traces_are_bit_identical() {
        let cb = CompiledBenchmark::compile(&small_spec()).unwrap();
        let mut a = WorkloadStream::new(&cb);
        let mut b = WorkloadStream::new(&cb);
        let (mut ba, mut bb) = (Vec::new(), Vec::new());
        loop {
            let ra = a.next_block(&mut ba);
            let rb = b.next_block(&mut bb);
            assert_eq!(ra, rb);
            assert_eq!(ba, bb);
            if ra.is_none() {
                break;
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut s1 = small_spec();
        let mut s2 = small_spec();
        s1.seed = 1;
        s2.seed = 2;
        let c1 = CompiledBenchmark::compile(&s1).unwrap();
        let c2 = CompiledBenchmark::compile(&s2).unwrap();
        // Same structure, but dynamic contents (addresses) differ.
        let mut a = WorkloadStream::new(&c1);
        let mut b = WorkloadStream::new(&c2);
        let (mut ba, mut bb) = (Vec::new(), Vec::new());
        let mut any_diff = false;
        for _ in 0..500 {
            let (ra, rb) = (a.next_block(&mut ba), b.next_block(&mut bb));
            if ra.is_none() || rb.is_none() {
                break;
            }
            if ba != bb || ra != rb {
                any_diff = true;
                break;
            }
        }
        assert!(any_diff, "seeds 1 and 2 produced identical prefixes");
    }

    #[test]
    fn every_block_terminates_with_resolved_branch() {
        let cb = CompiledBenchmark::compile(&small_spec()).unwrap();
        let mut s = WorkloadStream::new(&cb);
        let mut buf = Vec::new();
        let mut prev: Option<(BlockId, BranchInfo)> = None;
        while let Some(id) = s.next_block(&mut buf) {
            let term = buf.last().unwrap();
            assert!(term.is_branch(), "last instruction must be the terminator");
            let info = term.branch.unwrap();
            if let Some((pid, pinfo)) = prev {
                assert_eq!(
                    pinfo.target, id,
                    "terminator of {pid} must point at the actual successor"
                );
                // Taken flag consistent with layout fall-through.
                assert_eq!(pinfo.taken, pid.index() + 1 != id.index());
            }
            prev = Some((id, info));
        }
        // Final block is a return.
        assert_eq!(prev.unwrap().1.kind, BranchKind::Return);
    }

    #[test]
    fn memory_ops_get_patched_addresses() {
        let cb = CompiledBenchmark::compile(&small_spec()).unwrap();
        let mut s = WorkloadStream::new(&cb);
        let mut buf = Vec::new();
        let mut saw_mem = 0u32;
        for _ in 0..200 {
            if s.next_block(&mut buf).is_none() {
                break;
            }
            for i in &buf {
                if i.is_mem() {
                    saw_mem += 1;
                    assert!(i.addr >= 0x1000_0000, "address {:#x} not in data segment", i.addr);
                }
            }
        }
        assert!(saw_mem > 50, "expected plenty of memory ops, saw {saw_mem}");
    }

    #[test]
    fn outer_header_appears_once_per_script_entry() {
        let cb = CompiledBenchmark::compile(&small_spec()).unwrap();
        let mut s = WorkloadStream::new(&cb);
        let mut buf = Vec::new();
        let mut outer_count = 0;
        while let Some(id) = s.next_block(&mut buf) {
            if id == cb.outer_header() {
                outer_count += 1;
            }
        }
        assert_eq!(outer_count, cb.spec().script.len());
    }

    #[test]
    fn meta_walk_matches_full_walk_shape() {
        let cb = CompiledBenchmark::compile(&small_spec()).unwrap();
        let mut full = WorkloadStream::new(&cb);
        let mut meta = WorkloadStream::new(&cb);
        let (mut buf, mut scratch) = (Vec::new(), Vec::new());
        loop {
            let f = full.next_block(&mut buf);
            let m = meta.next_block_meta(&mut scratch);
            assert_eq!(f, m.map(|m| m.id));
            assert_eq!(full.emitted(), meta.emitted());
            match m {
                Some(m) => assert_eq!(m.insts, buf.len() as u64),
                None => break,
            }
        }
    }

    #[test]
    fn meta_walk_continues_bit_identically() {
        // Walk a prefix with meta steps, then switch to full emission:
        // the suffix must match a stream that emitted fully throughout,
        // at every possible switch point granularity we sample.
        let cb = CompiledBenchmark::compile(&small_spec()).unwrap();
        for switch_after in [0usize, 1, 7, 50, 400, 2000] {
            let mut reference = WorkloadStream::new(&cb);
            let (mut rbuf, mut scratch) = (Vec::new(), Vec::new());
            for _ in 0..switch_after {
                if reference.next_block(&mut rbuf).is_none() {
                    break;
                }
            }
            let mut skipped = WorkloadStream::new(&cb);
            for _ in 0..switch_after {
                if skipped.next_block_meta(&mut scratch).is_none() {
                    break;
                }
            }
            assert_eq!(reference.emitted(), skipped.emitted());
            let mut sbuf = Vec::new();
            loop {
                let r = reference.next_block(&mut rbuf);
                let s = skipped.next_block(&mut sbuf);
                assert_eq!(r, s, "block id diverged after meta prefix of {switch_after}");
                assert_eq!(rbuf, sbuf, "contents diverged after meta prefix of {switch_after}");
                if r.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn interleaved_meta_and_full_steps_stay_exact() {
        // Alternate meta/full arbitrarily (driven by a seeded RNG) and
        // check the full steps agree with an all-full reference stream.
        let cb = CompiledBenchmark::compile(&small_spec()).unwrap();
        let mut reference = WorkloadStream::new(&cb);
        let mut mixed = WorkloadStream::new(&cb);
        let (mut rbuf, mut mbuf, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        let mut rng = SplitMix64::new(0xC0FFEE);
        loop {
            let r = reference.next_block(&mut rbuf);
            if rng.chance(0.5) {
                let m = mixed.next_block_meta(&mut scratch);
                assert_eq!(r, m.map(|m| m.id));
                if r.is_none() {
                    break;
                }
            } else {
                let m = mixed.next_block(&mut mbuf);
                assert_eq!(r, m);
                if r.is_none() {
                    break;
                }
                assert_eq!(rbuf, mbuf);
            }
        }
    }

    /// One stream driven by a SplitMix64-chosen mix of full, meta and
    /// warm steps, against an all-full reference, over several suite
    /// programs and trace seeds. A warm step must advance to the same
    /// block and append exactly a scan of the reference's block: every
    /// data access in program order with its store flag, and every
    /// branch with its index. Later full steps stay bit-identical.
    #[test]
    fn warm_steps_match_a_scan_of_the_full_block() {
        use mlpa_isa::OpClass;
        let programs = [("eon", 1), ("mcf", 2), ("gcc", 3), ("lucas", 4), ("twolf", 5)];
        for (name, seed) in programs {
            let mut spec = crate::suite::benchmark_with_iters(name, 1).unwrap().scaled(0.02);
            spec.seed ^= seed;
            let cb = CompiledBenchmark::compile(&spec).unwrap();
            let mut reference = WorkloadStream::new(&cb);
            let mut mixed = WorkloadStream::new(&cb);
            let (mut rbuf, mut mbuf, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
            let (mut records, mut branches) = (Vec::new(), Vec::new());
            let mut rng = SplitMix64::new(0x3A7B ^ seed);
            let mut warm_steps = 0u32;
            loop {
                let r = reference.next_block(&mut rbuf);
                let m = match rng.range_u64(3) {
                    0 => {
                        let m = mixed.next_block(&mut mbuf);
                        if m.is_some() {
                            assert_eq!(rbuf, mbuf, "{name}: full step");
                        }
                        m
                    }
                    1 => mixed.next_block_meta(&mut scratch).map(|m| m.id),
                    _ => {
                        records.clear();
                        let m = mixed.next_block_warm(&mut records, &mut branches, &mut scratch);
                        if let Some(meta) = m {
                            warm_steps += 1;
                            assert_eq!(meta.insts, rbuf.len() as u64, "{name}: length");
                            let want: Vec<u64> = rbuf
                                .iter()
                                .filter(|i| i.is_mem())
                                .map(|i| i.addr << 1 | u64::from(i.op == OpClass::Store))
                                .collect();
                            assert_eq!(records, want, "{name}: data records of {}", meta.id);
                            let want: Vec<(u32, BranchInfo)> = (0..rbuf.len())
                                .filter_map(|i| rbuf[i].branch.map(|b| (i as u32, b)))
                                .collect();
                            assert_eq!(branches, want, "{name}: branches of {}", meta.id);
                        }
                        m.map(|m| m.id)
                    }
                };
                assert_eq!(r, m, "{name}: block id");
                assert_eq!(reference.emitted(), mixed.emitted(), "{name}: emitted");
                if r.is_none() {
                    break;
                }
            }
            assert!(warm_steps > 1_000, "{name}: {warm_steps} warm steps");
        }
    }

    #[test]
    fn emitted_counter_matches_drained_total() {
        let cb = CompiledBenchmark::compile(&small_spec()).unwrap();
        let mut s = WorkloadStream::new(&cb);
        let mut buf = Vec::new();
        let mut total = 0u64;
        while s.next_block(&mut buf).is_some() {
            total += buf.len() as u64;
        }
        assert_eq!(s.emitted(), total);
    }
}
