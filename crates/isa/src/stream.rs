//! The instruction-stream abstraction that connects workloads to
//! simulators and profilers.
//!
//! A stream produces the dynamic execution trace one basic block at a
//! time. Block-at-a-time delivery keeps the hot loop allocation-free:
//! consumers own a scratch [`Vec<Instruction>`] that the stream refills.

use crate::block::BlockId;
use crate::inst::Instruction;

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
}

impl<S: InstructionStream + ?Sized> InstructionStream for Box<S> {
    fn next_block(&mut self, out: &mut Vec<Instruction>) -> Option<BlockId> {
        (**self).next_block(out)
    }

    fn next_block_meta(&mut self, scratch: &mut Vec<Instruction>) -> Option<BlockMeta> {
        (**self).next_block_meta(scratch)
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
