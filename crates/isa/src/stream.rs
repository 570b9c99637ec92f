//! The instruction-stream abstraction that connects workloads to
//! simulators and profilers.
//!
//! A stream produces the dynamic execution trace one basic block at a
//! time. Block-at-a-time delivery keeps the hot loop allocation-free:
//! consumers own a scratch [`Vec<Instruction>`] that the stream refills.
//!
//! Functional warming reads a block through
//! [`InstructionStream::next_block_warm`] instead: only the block's data
//! accesses, as *warm records*, and its branches. A warm record is one
//! `u64`. A data access at `addr` is `addr << 1 | store`, which leaves
//! [`WARM_ESCAPE`] clear. An address at or above 2^62, which that cannot
//! hold, goes as the escape record `WARM_ESCAPE | store` followed by the
//! raw address, so it reaches the cache whole and is never read as
//! another address ([`push_warm_access`]).

use crate::block::BlockId;
use crate::inst::{BranchInfo, Instruction};
use crate::op::OpClass;

/// Marks an escaped warm record: its low bits say what it is, and the
/// next record holds the raw address. A data access's escape is
/// `WARM_ESCAPE | store`; consumers may define further kinds above it.
pub const WARM_ESCAPE: u64 = 1 << 63;

/// Append the warm record of a data access at `addr` to `records`:
/// `addr << 1 | store`, or, for an address at or above 2^62, the escape
/// `WARM_ESCAPE | store` and then the raw address.
#[inline(always)]
pub fn push_warm_access(records: &mut Vec<u64>, addr: u64, store: bool) {
    let store = u64::from(store);
    if addr < WARM_ESCAPE >> 1 {
        records.push(addr << 1 | store);
    } else {
        records.extend_from_slice(&[WARM_ESCAPE | store, addr]);
    }
}

/// A source of dynamic basic blocks.
///
/// Implementors must be *deterministic*: two streams constructed with
/// identical parameters must produce identical traces. The sampling
/// methodology re-walks the same trace in separate profiling,
/// fast-forward, and detailed passes and relies on them agreeing.
///
/// # Example
///
/// ```
/// use mlpa_isa::stream::{InstructionStream, SliceStream};
/// use mlpa_isa::{BlockId, Instruction};
///
/// let trace = vec![(BlockId::new(0), vec![Instruction::nop()])];
/// let mut s = SliceStream::new(&trace);
/// let mut buf = Vec::new();
/// assert_eq!(s.next_block(&mut buf), Some(BlockId::new(0)));
/// assert_eq!(buf.len(), 1);
/// assert_eq!(s.next_block(&mut buf), None);
/// ```
pub trait InstructionStream {
    /// Write the next dynamic basic block's instructions into `out`
    /// (clearing it first) and return the block's id, or `None` when the
    /// trace is exhausted. After `None`, further calls keep returning
    /// `None`.
    fn next_block(&mut self, out: &mut Vec<Instruction>) -> Option<BlockId>;

    /// Advance past the next block, returning only its metadata
    /// `(id, instruction count)` — the *shape* of the trace without the
    /// instruction contents.
    ///
    /// The stream must end up in exactly the state a [`next_block`]
    /// call would have left it in: interleaving meta and full steps in
    /// any order yields the same trace as full emission throughout
    /// (generative streams realise this by advancing their cursors with
    /// O(1) skips instead of materialising addresses). The profilers
    /// (BBV intervals, loop detection) and trace-length measurement
    /// consume only `(id, len)`, so a meta walk lets every profiling
    /// pass run without paying for instruction materialisation.
    ///
    /// The default implementation materialises into `scratch` and
    /// discards it; implementors with cheap skips should override.
    ///
    /// [`next_block`]: InstructionStream::next_block
    fn next_block_meta(&mut self, scratch: &mut Vec<Instruction>) -> Option<BlockMeta> {
        let id = self.next_block(scratch)?;
        Some(BlockMeta { id, insts: scratch.len() as u64 })
    }

    /// Advance past the next block as functional warming reads it:
    /// append its data accesses to `records` as warm records (see the
    /// [module docs](self)), in program order with their store flags,
    /// replace `branches` with its branches — each with its
    /// instruction's index in the block, in program order — and return
    /// its metadata.
    ///
    /// The stream must end up in exactly the state a [`next_block`]
    /// call would have left it in, as for [`next_block_meta`]. The
    /// default implementation materialises the block into `scratch` and
    /// scans it; generative streams override it to write the records
    /// straight from their address cursors, so no [`Instruction`] is
    /// built.
    ///
    /// [`next_block`]: InstructionStream::next_block
    /// [`next_block_meta`]: InstructionStream::next_block_meta
    fn next_block_warm(
        &mut self,
        records: &mut Vec<u64>,
        branches: &mut Vec<(u32, BranchInfo)>,
        scratch: &mut Vec<Instruction>,
    ) -> Option<BlockMeta> {
        let id = self.next_block(scratch)?;
        branches.clear();
        for (i, inst) in scratch.iter().enumerate() {
            if inst.is_mem() {
                push_warm_access(records, inst.addr, inst.op == OpClass::Store);
            }
            if let Some(info) = inst.branch {
                branches.push((i as u32, info));
            }
        }
        Some(BlockMeta { id, insts: scratch.len() as u64 })
    }
}

/// Metadata of one dynamic block, as yielded by
/// [`InstructionStream::next_block_meta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// The block's id.
    pub id: BlockId,
    /// Dynamic instruction count of this block instance.
    pub insts: u64,
}

impl<S: InstructionStream + ?Sized> InstructionStream for &mut S {
    fn next_block(&mut self, out: &mut Vec<Instruction>) -> Option<BlockId> {
        (**self).next_block(out)
    }

    fn next_block_meta(&mut self, scratch: &mut Vec<Instruction>) -> Option<BlockMeta> {
        (**self).next_block_meta(scratch)
    }

    fn next_block_warm(
        &mut self,
        records: &mut Vec<u64>,
        branches: &mut Vec<(u32, BranchInfo)>,
        scratch: &mut Vec<Instruction>,
    ) -> Option<BlockMeta> {
        (**self).next_block_warm(records, branches, scratch)
    }
}

impl<S: InstructionStream + ?Sized> InstructionStream for Box<S> {
    fn next_block(&mut self, out: &mut Vec<Instruction>) -> Option<BlockId> {
        (**self).next_block(out)
    }

    fn next_block_meta(&mut self, scratch: &mut Vec<Instruction>) -> Option<BlockMeta> {
        (**self).next_block_meta(scratch)
    }

    fn next_block_warm(
        &mut self,
        records: &mut Vec<u64>,
        branches: &mut Vec<(u32, BranchInfo)>,
        scratch: &mut Vec<Instruction>,
    ) -> Option<BlockMeta> {
        (**self).next_block_warm(records, branches, scratch)
    }
}

/// A stream replaying a pre-recorded trace; chiefly useful in tests.
#[derive(Debug, Clone)]
pub struct SliceStream<'a> {
    trace: &'a [(BlockId, Vec<Instruction>)],
    pos: usize,
}

impl<'a> SliceStream<'a> {
    /// Replay the given `(block, instructions)` records in order.
    pub fn new(trace: &'a [(BlockId, Vec<Instruction>)]) -> SliceStream<'a> {
        SliceStream { trace, pos: 0 }
    }
}

impl InstructionStream for SliceStream<'_> {
    fn next_block(&mut self, out: &mut Vec<Instruction>) -> Option<BlockId> {
        let (id, insts) = self.trace.get(self.pos)?;
        self.pos += 1;
        out.clear();
        out.extend_from_slice(insts);
        Some(*id)
    }
}

/// Count the total instructions and blocks remaining in a stream,
/// consuming it. Handy for tests and for measuring trace lengths.
pub fn drain_count<S: InstructionStream>(mut stream: S) -> StreamStats {
    let mut buf = Vec::new();
    let mut stats = StreamStats::default();
    while stream.next_block(&mut buf).is_some() {
        stats.blocks += 1;
        stats.instructions += buf.len() as u64;
    }
    stats
}

/// [`drain_count`] over the metadata-only walk: identical totals, no
/// instruction materialisation where the stream supports cheap skips.
pub fn drain_meta_count<S: InstructionStream>(mut stream: S) -> StreamStats {
    let mut scratch = Vec::new();
    let mut stats = StreamStats::default();
    while let Some(m) = stream.next_block_meta(&mut scratch) {
        stats.blocks += 1;
        stats.instructions += m.insts;
    }
    stats
}

/// Totals reported by [`drain_count`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Dynamic basic blocks in the trace.
    pub blocks: u64,
    /// Dynamic instructions in the trace.
    pub instructions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Vec<(BlockId, Vec<Instruction>)> {
        vec![
            (BlockId::new(0), vec![Instruction::nop(); 3]),
            (BlockId::new(1), vec![Instruction::nop(); 2]),
        ]
    }

    #[test]
    fn slice_stream_replays_in_order() {
        let t = trace();
        let mut s = SliceStream::new(&t);
        let mut buf = Vec::new();
        assert_eq!(s.next_block(&mut buf), Some(BlockId::new(0)));
        assert_eq!(buf.len(), 3);
        assert_eq!(s.next_block(&mut buf), Some(BlockId::new(1)));
        assert_eq!(buf.len(), 2);
        assert_eq!(s.next_block(&mut buf), None);
        assert_eq!(s.next_block(&mut buf), None, "stream stays exhausted");
    }

    #[test]
    fn drain_count_totals() {
        let t = trace();
        let stats = drain_count(SliceStream::new(&t));
        assert_eq!(stats, StreamStats { blocks: 2, instructions: 5 });
    }

    #[test]
    fn default_meta_walk_matches_full_walk() {
        let t = trace();
        let mut s = SliceStream::new(&t);
        let mut scratch = Vec::new();
        assert_eq!(
            s.next_block_meta(&mut scratch),
            Some(BlockMeta { id: BlockId::new(0), insts: 3 })
        );
        // Meta and full steps interleave on the same stream.
        let mut buf = Vec::new();
        assert_eq!(s.next_block(&mut buf), Some(BlockId::new(1)));
        assert_eq!(s.next_block_meta(&mut scratch), None);
        assert_eq!(drain_meta_count(SliceStream::new(&t)), drain_count(SliceStream::new(&t)));
    }

    /// The default warm step scans the materialised block: every data
    /// access in program order with its store flag, a wide address as
    /// an escape and its raw address, and every branch with its index.
    #[test]
    fn default_warm_step_scans_the_block() {
        use crate::inst::BranchKind;
        use crate::Reg;
        let jump = Instruction::branch(BranchKind::Jump, Reg::NONE, true, BlockId::new(0));
        let t = vec![
            (
                BlockId::new(0),
                vec![
                    Instruction::load(Reg::int(1), Reg::int(2), 0x40),
                    Instruction::nop(),
                    Instruction::store(Reg::int(1), Reg::int(2), 0x88),
                    Instruction::load(Reg::int(1), Reg::int(2), 1 << 62),
                    jump,
                ],
            ),
            (BlockId::new(1), vec![Instruction::store(Reg::int(1), Reg::int(2), !7)]),
        ];
        let mut s = SliceStream::new(&t);
        let (mut records, mut branches, mut scratch) = (vec![7], Vec::new(), Vec::new());
        let meta = s.next_block_warm(&mut records, &mut branches, &mut scratch);
        assert_eq!(meta, Some(BlockMeta { id: BlockId::new(0), insts: 5 }));
        assert_eq!(records, [7, 0x80, 0x88 << 1 | 1, WARM_ESCAPE, 1 << 62], "appended");
        assert_eq!(branches, [(4, jump.branch.unwrap())]);
        records.clear();
        let meta = s.next_block_warm(&mut records, &mut branches, &mut scratch);
        assert_eq!(meta, Some(BlockMeta { id: BlockId::new(1), insts: 1 }));
        assert_eq!(records, [WARM_ESCAPE | 1, !7]);
        assert!(branches.is_empty(), "replaced, not appended");
        assert_eq!(s.next_block_warm(&mut records, &mut branches, &mut scratch), None);
    }

    /// A stream that can only be read through its warm step.
    struct WarmOnly(u32);

    impl InstructionStream for WarmOnly {
        fn next_block(&mut self, _: &mut Vec<Instruction>) -> Option<BlockId> {
            panic!("materialised instead of forwarding the warm step")
        }

        fn next_block_warm(
            &mut self,
            records: &mut Vec<u64>,
            branches: &mut Vec<(u32, BranchInfo)>,
            _: &mut Vec<Instruction>,
        ) -> Option<BlockMeta> {
            self.0 += 1;
            records.push(u64::from(self.0) << 1);
            branches.clear();
            Some(BlockMeta { id: BlockId::new(self.0), insts: 1 })
        }
    }

    #[test]
    fn refs_and_boxes_forward_the_warm_step() {
        let (mut records, mut branches, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        let mut inner = WarmOnly(0);
        let mut by_ref: &mut dyn InstructionStream = &mut inner;
        let r = (&mut by_ref).next_block_warm(&mut records, &mut branches, &mut scratch);
        assert_eq!(r.map(|m| m.id), Some(BlockId::new(1)));
        let mut boxed: Box<dyn InstructionStream> = Box::new(WarmOnly(1));
        let b = boxed.next_block_warm(&mut records, &mut branches, &mut scratch);
        assert_eq!(b.map(|m| m.id), Some(BlockId::new(2)));
        let mut generic = Box::new(&mut inner);
        let g = generic.next_block_warm(&mut records, &mut branches, &mut scratch);
        assert_eq!(g.map(|m| m.id), Some(BlockId::new(2)));
        assert_eq!(records, [2, 4, 4]);
    }

    #[test]
    fn trait_objects_and_refs_work() {
        let t = trace();
        let mut s = SliceStream::new(&t);
        let mut buf = Vec::new();
        // &mut S forwards.
        let r: &mut dyn InstructionStream = &mut s;
        assert!(r.next_block(&mut buf).is_some());
        // Box<dyn> forwards.
        let mut b: Box<dyn InstructionStream + '_> = Box::new(SliceStream::new(&t));
        assert!(b.next_block(&mut buf).is_some());
    }
}
