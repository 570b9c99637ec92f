//! Per-block dynamic behaviour: instruction mixes, memory-access
//! patterns, and branch-direction patterns.
//!
//! These are the levers that make two program phases *perform*
//! differently under the detailed simulator: a phase whose blocks stream
//! through a 16 MiB region with dependent loads has a very different CPI
//! and cache profile from one spinning over an 8 KiB L1-resident buffer.

use mlpa_isa::rng::SplitMix64;

/// Fractions of each non-branch operation class inside a block body.
///
/// Whatever probability is left after all listed classes becomes plain
/// integer-ALU work. Fractions must be non-negative and sum to at most 1.
///
/// # Example
///
/// ```
/// use mlpa_workloads::behavior::InstMix;
///
/// let mix = InstMix { load: 0.3, store: 0.1, ..InstMix::default() };
/// mix.validate().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstMix {
    /// Fraction of loads.
    pub load: f64,
    /// Fraction of stores.
    pub store: f64,
    /// Fraction of FP add-class operations.
    pub fp_add: f64,
    /// Fraction of FP multiplies.
    pub fp_mul: f64,
    /// Fraction of FP divides.
    pub fp_div: f64,
    /// Fraction of integer multiplies.
    pub int_mul: f64,
    /// Fraction of integer divides.
    pub int_div: f64,
}

impl Default for InstMix {
    /// A bland integer mix: 25 % loads, 10 % stores, rest ALU.
    fn default() -> Self {
        InstMix {
            load: 0.25,
            store: 0.10,
            fp_add: 0.0,
            fp_mul: 0.0,
            fp_div: 0.0,
            int_mul: 0.0,
            int_div: 0.0,
        }
    }
}

impl InstMix {
    /// An integer-benchmark mix (SPECint-flavoured).
    pub fn int() -> InstMix {
        InstMix::default()
    }

    /// A floating-point-benchmark mix (SPECfp-flavoured).
    pub fn fp() -> InstMix {
        InstMix {
            load: 0.28,
            store: 0.10,
            fp_add: 0.18,
            fp_mul: 0.12,
            fp_div: 0.01,
            int_mul: 0.01,
            int_div: 0.0,
        }
    }

    /// Sum of all explicit fractions.
    pub fn total(&self) -> f64 {
        self.load
            + self.store
            + self.fp_add
            + self.fp_mul
            + self.fp_div
            + self.int_mul
            + self.int_div
    }

    /// Check that all fractions are non-negative and sum to at most 1.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let parts = [
            ("load", self.load),
            ("store", self.store),
            ("fp_add", self.fp_add),
            ("fp_mul", self.fp_mul),
            ("fp_div", self.fp_div),
            ("int_mul", self.int_mul),
            ("int_div", self.int_div),
        ];
        for (name, v) in parts {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("instruction-mix fraction `{name}` = {v} out of [0, 1]"));
            }
        }
        let t = self.total();
        if t > 1.0 + 1e-9 {
            return Err(format!("instruction-mix fractions sum to {t} > 1"));
        }
        Ok(())
    }
}

/// Memory-access pattern of a block's loads and stores.
///
/// The `working_set` is the number of bytes the pattern touches; relative
/// to the cache capacities of Table I it determines where in the
/// hierarchy the block's accesses hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemoryPattern {
    /// Sequential walk with the given stride (bytes) through the working
    /// set, wrapping around. Spatial locality ∝ 1/stride.
    Strided {
        /// Stride between consecutive accesses in bytes.
        stride: u64,
        /// Region size in bytes.
        working_set: u64,
    },
    /// Uniformly random accesses within the working set. Temporal
    /// locality ∝ cache-capacity / working-set.
    RandomInSet {
        /// Region size in bytes.
        working_set: u64,
    },
    /// Random accesses where each load *depends on the previous load's
    /// result* (the generator wires the register operands into a chain),
    /// serialising misses like linked-list traversal.
    PointerChase {
        /// Region size in bytes.
        working_set: u64,
    },
}

impl MemoryPattern {
    /// Bytes this pattern touches.
    pub fn working_set(&self) -> u64 {
        match *self {
            MemoryPattern::Strided { working_set, .. }
            | MemoryPattern::RandomInSet { working_set }
            | MemoryPattern::PointerChase { working_set } => working_set,
        }
    }

    /// Whether loads form a dependence chain.
    pub fn is_dependent(&self) -> bool {
        matches!(self, MemoryPattern::PointerChase { .. })
    }

    /// Check the pattern's parameters.
    ///
    /// # Errors
    ///
    /// Returns a message if the working set is zero or a stride is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.working_set() == 0 {
            return Err("memory pattern working set must be positive".into());
        }
        if let MemoryPattern::Strided { stride, .. } = self {
            if *stride == 0 {
                return Err("strided pattern stride must be positive".into());
            }
        }
        Ok(())
    }
}

impl Default for MemoryPattern {
    /// An L1-friendly 8 KiB strided walk.
    fn default() -> Self {
        MemoryPattern::Strided { stride: 8, working_set: 8 * 1024 }
    }
}

/// Largest factor by which drift scales a working set: a cursor's
/// addresses stay below `base + MAX_SET_SCALE × working_set` (and never
/// below `base + 8`).
pub const MAX_SET_SCALE: u64 = 4;

/// Mutable cursor that walks a [`MemoryPattern`], producing effective
/// addresses relative to a region base.
#[derive(Debug, Clone)]
pub struct MemoryCursor {
    pattern: MemoryPattern,
    base: u64,
    pos: u64,
    rng: SplitMix64,
    /// Multiplicative perturbation of the working set, used by phase
    /// drift (1.0 = nominal).
    scale: f64,
}

impl MemoryCursor {
    /// Create a cursor over `pattern` with addresses offset by `base`.
    pub fn new(pattern: MemoryPattern, base: u64, rng: SplitMix64) -> MemoryCursor {
        MemoryCursor { pattern, base, pos: 0, rng, scale: 1.0 }
    }

    /// Set the working-set scale factor (clamped to
    /// `[0.25, MAX_SET_SCALE]`); phase drift uses this to let locality
    /// evolve over the run.
    pub fn set_scale(&mut self, scale: f64) {
        self.scale = scale.clamp(0.25, MAX_SET_SCALE as f64);
    }

    fn effective_set(&self) -> u64 {
        let ws = self.pattern.working_set() as f64 * self.scale;
        (ws as u64).max(8)
    }

    /// Skip `n` addresses in O(1), leaving the cursor exactly where `n`
    /// [`MemoryCursor::next_addr`] calls would have: strided walks
    /// advance the position by `stride × n` (wrapping arithmetic equals
    /// `n` single-stride advances mod 2⁶⁴), random patterns skip `n`
    /// RNG draws ([`SplitMix64::skip`]; each address costs exactly one
    /// draw). Addresses never feed back into control flow, so a stream
    /// fast-forwarding to a mid-trace segment can skip them wholesale.
    pub fn skip(&mut self, n: u64) {
        match self.pattern {
            MemoryPattern::Strided { stride, .. } => {
                self.pos = self.pos.wrapping_add(stride.wrapping_mul(n));
            }
            MemoryPattern::RandomInSet { .. } | MemoryPattern::PointerChase { .. } => {
                self.rng.skip(n);
            }
        }
    }

    /// Next effective address (8-byte aligned).
    pub fn next_addr(&mut self) -> u64 {
        let set = self.effective_set();
        self.draw(set)
    }

    /// The addresses [`MemoryCursor::next_addr`] would give, one per
    /// item, with the working set computed once: the scale only changes
    /// between items through [`MemoryCursor::set_scale`], which the
    /// borrow rules out.
    #[inline]
    pub fn addrs(&mut self) -> impl Iterator<Item = u64> + '_ {
        let set = self.effective_set();
        std::iter::repeat_with(move || self.draw(set))
    }

    #[inline(always)]
    fn draw(&mut self, set: u64) -> u64 {
        let off = match self.pattern {
            MemoryPattern::Strided { stride, .. } => {
                let o = self.pos % set;
                self.pos = self.pos.wrapping_add(stride);
                o
            }
            MemoryPattern::RandomInSet { .. } | MemoryPattern::PointerChase { .. } => {
                self.rng.range_u64(set)
            }
        };
        self.base + (off & !7)
    }
}

/// Direction pattern of a block's data-dependent conditional branch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BranchPattern {
    /// Taken with fixed probability `p` independently each time. `p`
    /// near 0 or 1 is predictable by a bimodal predictor; `p ≈ 0.5` is
    /// hard for everything.
    Biased {
        /// Probability of taken.
        p_taken: f64,
    },
    /// Deterministic repeating pattern: taken for `taken` occurrences,
    /// then not-taken for `not_taken`, and so on. Learnable by a
    /// history-based (gshare) predictor when the period is short.
    Periodic {
        /// Consecutive taken outcomes per period.
        taken: u16,
        /// Consecutive not-taken outcomes per period.
        not_taken: u16,
    },
}

impl Default for BranchPattern {
    /// A well-behaved mostly-not-taken branch.
    fn default() -> Self {
        BranchPattern::Biased { p_taken: 0.1 }
    }
}

impl BranchPattern {
    /// Check the pattern's parameters.
    ///
    /// # Errors
    ///
    /// Returns a message if a probability is outside `[0, 1]` or a
    /// periodic pattern has an empty period.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            BranchPattern::Biased { p_taken } => {
                if !(0.0..=1.0).contains(&p_taken) {
                    return Err(format!("branch p_taken = {p_taken} out of [0, 1]"));
                }
            }
            BranchPattern::Periodic { taken, not_taken } => {
                if taken == 0 && not_taken == 0 {
                    return Err("periodic branch pattern must have a non-empty period".into());
                }
            }
        }
        Ok(())
    }
}

/// Mutable cursor producing a [`BranchPattern`]'s direction sequence.
#[derive(Debug, Clone)]
pub struct BranchCursor {
    pattern: BranchPattern,
    rng: SplitMix64,
    phase: u32,
    /// Additive perturbation of `p_taken` applied by phase drift.
    bias_shift: f64,
}

impl BranchCursor {
    /// Create a cursor over `pattern`.
    pub fn new(pattern: BranchPattern, rng: SplitMix64) -> BranchCursor {
        BranchCursor { pattern, rng, phase: 0, bias_shift: 0.0 }
    }

    /// Shift the taken probability of biased patterns (clamped so the
    /// effective probability stays in `[0, 1]`).
    pub fn set_bias_shift(&mut self, shift: f64) {
        self.bias_shift = shift;
    }

    /// Next direction.
    pub fn next_taken(&mut self) -> bool {
        match self.pattern {
            BranchPattern::Biased { p_taken } => {
                self.rng.chance((p_taken + self.bias_shift).clamp(0.0, 1.0))
            }
            BranchPattern::Periodic { taken, not_taken } => {
                let period = u32::from(taken) + u32::from(not_taken);
                let t = self.phase % period < u32::from(taken);
                self.phase = self.phase.wrapping_add(1);
                t
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_validation() {
        InstMix::int().validate().unwrap();
        InstMix::fp().validate().unwrap();
        let bad = InstMix { load: 0.9, store: 0.5, ..InstMix::default() };
        assert!(bad.validate().is_err());
        let neg = InstMix { load: -0.1, ..InstMix::default() };
        assert!(neg.validate().is_err());
    }

    #[test]
    fn strided_cursor_walks_and_wraps() {
        let p = MemoryPattern::Strided { stride: 8, working_set: 32 };
        let mut c = MemoryCursor::new(p, 0x1000, SplitMix64::new(1));
        let addrs: Vec<u64> = (0..6).map(|_| c.next_addr()).collect();
        assert_eq!(addrs, vec![0x1000, 0x1008, 0x1010, 0x1018, 0x1000, 0x1008]);
    }

    #[test]
    fn random_cursor_stays_in_set() {
        let p = MemoryPattern::RandomInSet { working_set: 4096 };
        let mut c = MemoryCursor::new(p, 0x10_0000, SplitMix64::new(2));
        for _ in 0..1000 {
            let a = c.next_addr();
            assert!((0x10_0000..0x10_1000).contains(&a));
            assert_eq!(a % 8, 0, "addresses are 8-byte aligned");
        }
    }

    #[test]
    fn scale_shrinks_effective_set() {
        let p = MemoryPattern::RandomInSet { working_set: 1 << 20 };
        let mut c = MemoryCursor::new(p, 0, SplitMix64::new(3));
        c.set_scale(0.25);
        for _ in 0..1000 {
            assert!(c.next_addr() < (1 << 18));
        }
    }

    #[test]
    fn cursor_skip_matches_sequential_draws() {
        let patterns = [
            MemoryPattern::Strided { stride: 24, working_set: 1000 },
            MemoryPattern::RandomInSet { working_set: 4096 },
            MemoryPattern::PointerChase { working_set: 512 },
        ];
        for p in patterns {
            for n in [0u64, 1, 5, 97, 10_000] {
                let mut seq = MemoryCursor::new(p, 0x2000, SplitMix64::new(13));
                for _ in 0..n {
                    let _ = seq.next_addr();
                }
                let mut jump = MemoryCursor::new(p, 0x2000, SplitMix64::new(13));
                jump.skip(n);
                for _ in 0..8 {
                    assert_eq!(seq.next_addr(), jump.next_addr(), "{p:?} skip({n}) diverged");
                }
            }
        }
    }

    /// Batches of `addrs` under changing scales give exactly the
    /// addresses of single `next_addr` calls.
    #[test]
    fn address_batches_match_single_draws() {
        let patterns = [
            MemoryPattern::Strided { stride: 24, working_set: 1000 },
            MemoryPattern::RandomInSet { working_set: 4096 },
            MemoryPattern::PointerChase { working_set: 512 },
        ];
        for p in patterns {
            let mut single = MemoryCursor::new(p, 0x2000, SplitMix64::new(17));
            let mut batched = single.clone();
            for (batch, scale) in [(0usize, 1.0), (3, 0.6), (11, 2.5), (1, 0.25), (40, 1.7)] {
                single.set_scale(scale);
                batched.set_scale(scale);
                let want: Vec<u64> = (0..batch).map(|_| single.next_addr()).collect();
                let got: Vec<u64> = batched.addrs().take(batch).collect();
                assert_eq!(got, want, "{p:?} at scale {scale}");
            }
        }
    }

    #[test]
    fn cursor_skip_is_scale_independent() {
        // Skipping under one scale then drawing under another matches
        // sequential draws with the same scale switch: the draw count,
        // not the effective set, determines RNG/position state.
        let p = MemoryPattern::RandomInSet { working_set: 1 << 16 };
        let mut seq = MemoryCursor::new(p, 0, SplitMix64::new(21));
        let mut jump = MemoryCursor::new(p, 0, SplitMix64::new(21));
        for _ in 0..50 {
            let _ = seq.next_addr();
        }
        jump.skip(50);
        seq.set_scale(0.5);
        jump.set_scale(0.5);
        for _ in 0..8 {
            assert_eq!(seq.next_addr(), jump.next_addr());
        }
    }

    #[test]
    fn pattern_validation() {
        MemoryPattern::default().validate().unwrap();
        assert!(MemoryPattern::Strided { stride: 0, working_set: 64 }.validate().is_err());
        assert!(MemoryPattern::RandomInSet { working_set: 0 }.validate().is_err());
        BranchPattern::default().validate().unwrap();
        assert!(BranchPattern::Biased { p_taken: 1.5 }.validate().is_err());
        assert!(BranchPattern::Periodic { taken: 0, not_taken: 0 }.validate().is_err());
    }

    #[test]
    fn biased_branch_respects_probability() {
        let mut c = BranchCursor::new(BranchPattern::Biased { p_taken: 0.8 }, SplitMix64::new(4));
        let taken = (0..10_000).filter(|_| c.next_taken()).count();
        assert!((7_700..8_300).contains(&taken), "taken count {taken}");
    }

    #[test]
    fn periodic_branch_repeats_exactly() {
        let mut c = BranchCursor::new(
            BranchPattern::Periodic { taken: 3, not_taken: 1 },
            SplitMix64::new(5),
        );
        let seq: Vec<bool> = (0..8).map(|_| c.next_taken()).collect();
        assert_eq!(seq, vec![true, true, true, false, true, true, true, false]);
    }

    #[test]
    fn bias_shift_clamps() {
        let mut c = BranchCursor::new(BranchPattern::Biased { p_taken: 0.9 }, SplitMix64::new(6));
        c.set_bias_shift(0.5);
        assert!((0..1000).all(|_| c.next_taken()), "p clamps to 1.0");
    }

    #[test]
    fn pointer_chase_is_dependent() {
        assert!(MemoryPattern::PointerChase { working_set: 64 }.is_dependent());
        assert!(!MemoryPattern::default().is_dependent());
    }
}
