//! Branch prediction: bimodal, gshare, the combined (tournament)
//! predictor of Table I, a branch target buffer, and a return-address
//! stack.

use crate::config::PredictorConfig;
use mlpa_isa::{BlockId, BranchInfo, BranchKind};

/// A 2-bit saturating counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counter2(u8);

impl Counter2 {
    /// Saturating transition table, indexed `[taken][state]`: a
    /// two-load lookup instead of an `if taken` whose direction is the
    /// (unpredictable) branch outcome itself.
    const NEXT: [[u8; 4]; 2] = [[0, 0, 1, 2], [1, 2, 3, 3]];

    fn taken(self) -> bool {
        self.0 >= 2
    }
    fn update(&mut self, taken: bool) {
        self.0 = Self::NEXT[usize::from(taken)][usize::from(self.0)];
    }
    /// The post-update value without storing it.
    fn updated(self, taken: bool) -> Counter2 {
        Counter2(Self::NEXT[usize::from(taken)][usize::from(self.0)])
    }
    fn weakly_taken() -> Counter2 {
        Counter2(2)
    }
}

/// Direction predictor interface: predict, then update with the outcome.
pub trait DirectionPredictor {
    /// Predict the direction of the conditional branch at `pc`.
    fn predict(&self, pc: u64) -> bool;
    /// Record the actual outcome of the branch at `pc`.
    fn update(&mut self, pc: u64, taken: bool);
}

/// Bimodal predictor: a PC-indexed table of 2-bit counters.
#[derive(Debug, Clone)]
pub struct Bimodal {
    table: Vec<Counter2>,
    mask: u64,
}

impl Bimodal {
    /// Create with `entries` counters (must be a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not a power of two.
    pub fn new(entries: u32) -> Bimodal {
        assert!(entries.is_power_of_two() && entries > 0, "entries must be a power of two");
        Bimodal {
            table: vec![Counter2::weakly_taken(); entries as usize],
            mask: u64::from(entries) - 1,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }
}

impl DirectionPredictor for Bimodal {
    fn predict(&self, pc: u64) -> bool {
        self.table[self.index(pc)].taken()
    }
    fn update(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        self.table[i].update(taken);
    }
}

/// Gshare: global history XOR PC indexes a counter table.
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<Counter2>,
    mask: u64,
    history: u64,
    history_mask: u64,
}

impl Gshare {
    /// Create with `entries` counters and `history_bits` of global
    /// history.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero / not a power of two, or
    /// `history_bits` is zero.
    pub fn new(entries: u32, history_bits: u32) -> Gshare {
        assert!(entries.is_power_of_two() && entries > 0, "entries must be a power of two");
        assert!(history_bits > 0, "history_bits must be positive");
        Gshare {
            table: vec![Counter2::weakly_taken(); entries as usize],
            mask: u64::from(entries) - 1,
            history: 0,
            history_mask: (1 << history_bits) - 1,
        }
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.mask) as usize
    }
}

impl DirectionPredictor for Gshare {
    fn predict(&self, pc: u64) -> bool {
        self.table[self.index(pc)].taken()
    }
    fn update(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        self.table[i].update(taken);
        self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;
    }
}

/// Combined (tournament) predictor: bimodal + gshare with a chooser
/// table, as in Table I ("Combined, 8 K BHT entries").
#[derive(Debug, Clone)]
pub struct Combined {
    bimodal: Bimodal,
    gshare: Gshare,
    chooser: Vec<Counter2>,
    mask: u64,
}

impl Combined {
    /// Build from a [`PredictorConfig`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: &PredictorConfig) -> Combined {
        cfg.validate().expect("invalid predictor config");
        Combined {
            bimodal: Bimodal::new(cfg.bht_entries),
            gshare: Gshare::new(cfg.bht_entries, cfg.history_bits),
            // Chooser counter: high = trust gshare.
            chooser: vec![Counter2::weakly_taken(); cfg.bht_entries as usize],
            mask: u64::from(cfg.bht_entries) - 1,
        }
    }
}

impl Combined {
    /// Predict and train in one pass, reading each table once (the
    /// split `predict` + `update` pair reads the component tables
    /// twice per branch). The chooser write is unconditional with a
    /// selected value, so the components-disagree test costs a cmov
    /// instead of a data-dependent branch.
    fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let ci = ((pc >> 2) & self.mask) as usize;
        let bi = self.bimodal.index(pc);
        let gi = self.gshare.index(pc);
        let cb = self.bimodal.table[bi];
        let cg = self.gshare.table[gi];
        let chooser = self.chooser[ci];
        let (pb, pg) = (cb.taken(), cg.taken());
        let pred = if chooser.taken() { pg } else { pb };
        self.chooser[ci] = if pb != pg { chooser.updated(pg == taken) } else { chooser };
        self.bimodal.table[bi] = cb.updated(taken);
        self.gshare.table[gi] = cg.updated(taken);
        self.gshare.history =
            ((self.gshare.history << 1) | u64::from(taken)) & self.gshare.history_mask;
        pred
    }
}

impl DirectionPredictor for Combined {
    fn predict(&self, pc: u64) -> bool {
        let c = self.chooser[((pc >> 2) & self.mask) as usize];
        if c.taken() {
            self.gshare.predict(pc)
        } else {
            self.bimodal.predict(pc)
        }
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let pb = self.bimodal.predict(pc);
        let pg = self.gshare.predict(pc);
        if pb != pg {
            let i = ((pc >> 2) & self.mask) as usize;
            self.chooser[i].update(pg == taken);
        }
        self.bimodal.update(pc, taken);
        self.gshare.update(pc, taken);
    }
}

/// Branch target buffer: 4-way set-associative, PC-tagged, holding the
/// last seen target of each branch.
#[derive(Debug, Clone)]
pub struct Btb {
    tags: Vec<u64>,
    targets: Vec<BlockId>,
    stamps: Vec<u64>,
    set_mask: u64,
    tick: u64,
}

const BTB_WAYS: usize = 4;

impl Btb {
    /// Create with `sets` sets of 4 ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or not a power of two.
    pub fn new(sets: u32) -> Btb {
        assert!(sets.is_power_of_two() && sets > 0, "sets must be a power of two");
        let lines = sets as usize * BTB_WAYS;
        Btb {
            tags: vec![u64::MAX; lines],
            targets: vec![BlockId::new(0); lines],
            stamps: vec![0; lines],
            set_mask: u64::from(sets) - 1,
            tick: 0,
        }
    }

    // `sets` is a power of two, so index with a mask — a runtime `%`
    // is a hardware divide on the hot path.
    fn set_of(&self, pc: u64) -> usize {
        (((pc >> 2) & self.set_mask) as usize) * BTB_WAYS
    }

    // Compare all four way tags at once; at most one way can match a
    // given pc (update never duplicates a tag within a set).
    fn hit_mask(tags: &[u64], pc: u64) -> u64 {
        u64::from(tags[0] == pc)
            | u64::from(tags[1] == pc) << 1
            | u64::from(tags[2] == pc) << 2
            | u64::from(tags[3] == pc) << 3
    }

    /// Look up the predicted target for the branch at `pc`.
    pub fn predict(&self, pc: u64) -> Option<BlockId> {
        let base = self.set_of(pc);
        let hit = Self::hit_mask(&self.tags[base..base + BTB_WAYS], pc);
        if hit == 0 {
            None
        } else {
            Some(self.targets[base + hit.trailing_zeros() as usize])
        }
    }

    /// Record the actual target of the branch at `pc`.
    pub fn update(&mut self, pc: u64, target: BlockId) {
        self.tick += 1;
        let base = self.set_of(pc);
        let hit = Self::hit_mask(&self.tags[base..base + BTB_WAYS], pc);
        // LRU victim via a packed stamp<<2|way minimum: stamps start at
        // 0 and are only ever written alongside a tag with tick >= 1,
        // so invalid ways always lose the scan and ties (only between
        // invalid ways) resolve to the lowest index — exactly the
        // tag-aware first-strict-min linear scan this replaces.
        let s = &self.stamps[base..base + BTB_WAYS];
        let vkey = (s[0] << 2).min(s[1] << 2 | 1).min((s[2] << 2 | 2).min(s[3] << 2 | 3));
        // On a hit the victim is the hit way itself (re-writing the tag
        // with the same pc is a no-op), selected without a branch.
        let w = if hit != 0 { hit.trailing_zeros() as usize & 3 } else { (vkey & 3) as usize };
        self.tags[base + w] = pc;
        self.targets[base + w] = target;
        self.stamps[base + w] = self.tick;
    }
}

/// Return-address stack.
#[derive(Debug, Clone)]
pub struct ReturnStack {
    stack: Vec<BlockId>,
    depth: usize,
}

impl ReturnStack {
    /// Create with the given maximum depth.
    pub fn new(depth: u32) -> ReturnStack {
        ReturnStack { stack: Vec::with_capacity(depth as usize), depth: depth as usize }
    }

    /// Push a return address on a call.
    pub fn push(&mut self, ret: BlockId) {
        if self.stack.len() == self.depth && self.depth > 0 {
            self.stack.remove(0);
        }
        if self.depth > 0 {
            self.stack.push(ret);
        }
    }

    /// Pop the predicted return target.
    pub fn pop(&mut self) -> Option<BlockId> {
        self.stack.pop()
    }
}

/// The full front-end branch unit: direction + target prediction.
#[derive(Debug)]
pub struct BranchUnit {
    dir: Combined,
    btb: Btb,
    ras: ReturnStack,
    predictions: u64,
    mispredictions: u64,
}

impl Clone for BranchUnit {
    fn clone(&self) -> BranchUnit {
        BranchUnit { dir: self.dir.clone(), btb: self.btb.clone(), ras: self.ras.clone(), ..*self }
    }

    /// Copies every table into this unit's own allocations (a `Vec`'s
    /// `clone_from` keeps its buffer when the lengths match), so a
    /// snapshot refreshed once per simulation point never reallocates.
    fn clone_from(&mut self, source: &BranchUnit) {
        // Exhaustive, so a new field fails to compile until it is copied.
        let BranchUnit {
            dir:
                Combined { bimodal: Bimodal { table: b_table, mask: b_mask }, gshare, chooser, mask },
            btb: Btb { tags, targets, stamps, set_mask, tick },
            ras: ReturnStack { stack, depth },
            predictions,
            mispredictions,
        } = source;
        let Gshare { table: g_table, mask: g_mask, history, history_mask } = gshare;
        let dir = &mut self.dir;
        dir.bimodal.table.clone_from(b_table);
        dir.bimodal.mask = *b_mask;
        dir.gshare.table.clone_from(g_table);
        dir.gshare.mask = *g_mask;
        dir.gshare.history = *history;
        dir.gshare.history_mask = *history_mask;
        dir.chooser.clone_from(chooser);
        dir.mask = *mask;
        self.btb.tags.clone_from(tags);
        self.btb.targets.clone_from(targets);
        self.btb.stamps.clone_from(stamps);
        self.btb.set_mask = *set_mask;
        self.btb.tick = *tick;
        self.ras.stack.clone_from(stack);
        self.ras.depth = *depth;
        self.predictions = *predictions;
        self.mispredictions = *mispredictions;
    }
}

impl BranchUnit {
    /// Build from a [`PredictorConfig`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: &PredictorConfig) -> BranchUnit {
        BranchUnit {
            dir: Combined::new(cfg),
            btb: Btb::new(cfg.btb_sets),
            ras: ReturnStack::new(cfg.ras_depth),
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// Predict-and-update for the branch at `pc` with resolved outcome
    /// `info`; `fallthrough` is the next-block id on a not-taken path.
    /// Returns `true` if the prediction (direction *and* target) was
    /// correct.
    pub fn resolve(&mut self, pc: u64, info: &BranchInfo, fallthrough: BlockId) -> bool {
        self.predictions += 1;
        let (pred_taken, pred_target) = match info.kind {
            BranchKind::Conditional => {
                // Fused predict + train: the direction tables are
                // disjoint from the BTB, so updating them before the
                // target lookup cannot change the prediction.
                let t = self.dir.predict_and_update(pc, info.taken);
                (t, if t { self.btb.predict(pc) } else { Some(fallthrough) })
            }
            BranchKind::Return => (true, self.ras.pop()),
            BranchKind::Jump | BranchKind::Call | BranchKind::Indirect => {
                (true, self.btb.predict(pc))
            }
        };

        let actual_target = if info.taken { info.target } else { fallthrough };
        let correct = pred_taken == info.taken && pred_target.is_some_and(|t| t == actual_target);

        // Updates (direction tables already trained above).
        if info.taken && info.kind != BranchKind::Return {
            self.btb.update(pc, info.target);
        }
        if info.kind == BranchKind::Call {
            self.ras.push(fallthrough);
        }

        if !correct {
            self.mispredictions += 1;
        }
        correct
    }

    /// Update predictor state without counting statistics (functional
    /// warming during fast-forward).
    pub fn warm(&mut self, pc: u64, info: &BranchInfo, fallthrough: BlockId) {
        let (p, m) = (self.predictions, self.mispredictions);
        let _ = self.resolve(pc, info, fallthrough);
        self.predictions = p;
        self.mispredictions = m;
    }

    /// Branches predicted so far.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Mispredictions so far.
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Reset statistics, keeping learned state.
    pub fn reset_stats(&mut self) {
        self.predictions = 0;
        self.mispredictions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bimodal_learns_bias() {
        let mut p = Bimodal::new(1024);
        for _ in 0..10 {
            p.update(0x100, true);
        }
        assert!(p.predict(0x100));
        for _ in 0..10 {
            p.update(0x100, false);
        }
        assert!(!p.predict(0x100));
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        let mut p = Gshare::new(4096, 8);
        // Train a strict T,N,T,N pattern — bimodal cannot learn this,
        // history-based prediction can.
        let mut next = true;
        for _ in 0..200 {
            p.update(0x40, next);
            next = !next;
        }
        let mut correct = 0;
        for _ in 0..100 {
            if p.predict(0x40) == next {
                correct += 1;
            }
            p.update(0x40, next);
            next = !next;
        }
        assert!(correct > 95, "gshare got {correct}/100 on alternating pattern");
    }

    #[test]
    fn combined_beats_components_on_mixed_workload() {
        // One strongly biased branch and one periodic branch: the
        // tournament should track both well.
        let cfg = PredictorConfig {
            bht_entries: 4096,
            history_bits: 8,
            btb_sets: 64,
            ras_depth: 8,
            mispredict_penalty: 6,
        };
        let mut p = Combined::new(&cfg);
        let mut phase = 0u32;
        let mut correct = 0;
        let total = 4000;
        for i in 0..total {
            // Branch A at 0x100: always taken. Branch B at 0x204: period 3.
            let (pc, taken) = if i % 2 == 0 {
                (0x100u64, true)
            } else {
                phase += 1;
                (0x204u64, !phase.is_multiple_of(3))
            };
            if i > total / 2 && p.predict(pc) == taken {
                correct += 1;
            }
            p.update(pc, taken);
        }
        let rate = f64::from(correct) / f64::from(total / 2);
        assert!(rate > 0.85, "combined accuracy {rate}");
    }

    #[test]
    fn btb_remembers_targets_and_replaces_lru() {
        let mut btb = Btb::new(2);
        assert_eq!(btb.predict(0x10), None);
        btb.update(0x10, BlockId::new(7));
        assert_eq!(btb.predict(0x10), Some(BlockId::new(7)));
        btb.update(0x10, BlockId::new(9));
        assert_eq!(btb.predict(0x10), Some(BlockId::new(9)));
        // Fill one set beyond capacity: 4 ways, sets chosen by pc>>2 % 2.
        for i in 0..5u64 {
            btb.update(0x10 + i * 16, BlockId::new(i as u32)); // all map to set (pc>>2)%2
        }
        // The original 0x10 entry (LRU) must have been evicted.
        assert_eq!(btb.predict(0x10), None);
    }

    #[test]
    fn return_stack_pairs_calls_and_returns() {
        let mut ras = ReturnStack::new(4);
        ras.push(BlockId::new(1));
        ras.push(BlockId::new(2));
        assert_eq!(ras.pop(), Some(BlockId::new(2)));
        assert_eq!(ras.pop(), Some(BlockId::new(1)));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn return_stack_overflow_drops_oldest() {
        let mut ras = ReturnStack::new(2);
        ras.push(BlockId::new(1));
        ras.push(BlockId::new(2));
        ras.push(BlockId::new(3));
        assert_eq!(ras.pop(), Some(BlockId::new(3)));
        assert_eq!(ras.pop(), Some(BlockId::new(2)));
        assert_eq!(ras.pop(), None, "oldest entry was dropped");
    }

    #[test]
    fn branch_unit_counts_mispredictions() {
        let cfg = PredictorConfig {
            bht_entries: 1024,
            history_bits: 8,
            btb_sets: 64,
            ras_depth: 8,
            mispredict_penalty: 6,
        };
        let mut bu = BranchUnit::new(&cfg);
        let info =
            BranchInfo { kind: BranchKind::Conditional, taken: true, target: BlockId::new(5) };
        // First resolution: BTB is cold, so even a correct direction
        // guess cannot have the right target.
        let first = bu.resolve(0x80, &info, BlockId::new(1));
        assert!(!first);
        // After training, the same branch predicts correctly.
        for _ in 0..8 {
            bu.resolve(0x80, &info, BlockId::new(1));
        }
        assert!(bu.resolve(0x80, &info, BlockId::new(1)));
        assert!(bu.predictions() > 0);
        assert!(bu.mispredictions() < bu.predictions());
    }

    #[test]
    fn warming_learns_without_counting() {
        let cfg = PredictorConfig {
            bht_entries: 1024,
            history_bits: 8,
            btb_sets: 64,
            ras_depth: 8,
            mispredict_penalty: 6,
        };
        let mut bu = BranchUnit::new(&cfg);
        let info =
            BranchInfo { kind: BranchKind::Conditional, taken: true, target: BlockId::new(5) };
        for _ in 0..10 {
            bu.warm(0x80, &info, BlockId::new(1));
        }
        assert_eq!(bu.predictions(), 0);
        assert!(bu.resolve(0x80, &info, BlockId::new(1)), "warmed predictor is trained");
    }
}
