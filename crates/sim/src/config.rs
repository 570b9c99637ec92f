//! Machine configurations, including the two configurations of the
//! paper's Table I.

use mlpa_isa::FuClass;
use std::fmt;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u64,
    /// Associativity (1 = direct mapped).
    pub assoc: u32,
    /// Line size in bytes.
    pub line: u64,
    /// Hit latency in cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`validate`]).
    ///
    /// [`validate`]: CacheConfig::validate
    pub fn sets(&self) -> u64 {
        self.validate().expect("invalid cache config");
        self.size / (self.line * u64::from(self.assoc))
    }

    /// Upper bound on associativity: the optimized way scan packs the
    /// way index into the low 6 bits of its LRU scan key.
    pub const MAX_ASSOC: u32 = 64;

    /// Check size/line/assoc consistency: all non-zero, powers of two
    /// where required, and at least one set.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.line == 0 || !self.line.is_power_of_two() {
            return Err(format!("cache line {} must be a power of two", self.line));
        }
        if self.assoc == 0 || self.assoc > Self::MAX_ASSOC {
            return Err(format!(
                "cache associativity {} must be in 1..={}",
                self.assoc,
                Self::MAX_ASSOC
            ));
        }
        if self.size == 0 || !self.size.is_multiple_of(self.line * u64::from(self.assoc)) {
            return Err(format!(
                "cache size {} not divisible by line*assoc {}",
                self.size,
                self.line * u64::from(self.assoc)
            ));
        }
        let sets = self.size / (self.line * u64::from(self.assoc));
        if !sets.is_power_of_two() {
            return Err(format!("cache set count {sets} must be a power of two"));
        }
        Ok(())
    }
}

/// Hardware-prefetch policy of the L1 data cache.
///
/// [`PrefetchPolicy::None`] is the default everywhere (SimpleScalar 3.0
/// has no data prefetcher, and the paper's Table I lists none);
/// `mlpa-experiments ablation_prefetch` (`results/ablation_prefetch.txt`)
/// turns next-line prefetching on to show the sampling methodology is
/// robust to the change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefetchPolicy {
    /// No prefetching (Table I).
    #[default]
    None,
    /// On an L1D demand miss, also fill the next sequential line
    /// (idealised: the fill itself is off the critical path).
    NextLine,
}

/// Branch-predictor configuration (a combined predictor as in Table I:
/// bimodal + gshare with a meta chooser, plus BTB and return stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorConfig {
    /// Entries in the bimodal table, the gshare table, and the chooser
    /// (Table I: 8 K BHT entries). Must be a power of two.
    pub bht_entries: u32,
    /// Global-history bits of the gshare component.
    pub history_bits: u32,
    /// BTB sets (4-way). Must be a power of two.
    pub btb_sets: u32,
    /// Return-address-stack depth.
    pub ras_depth: u32,
    /// Cycles lost on a misprediction (redirect + front-end refill).
    pub mispredict_penalty: u32,
}

impl PredictorConfig {
    /// Check table geometries.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.bht_entries == 0 || !self.bht_entries.is_power_of_two() {
            return Err("BHT entries must be a positive power of two".into());
        }
        if self.history_bits == 0 || self.history_bits > 20 {
            return Err("history bits must be in 1..=20".into());
        }
        if self.btb_sets == 0 || !self.btb_sets.is_power_of_two() {
            return Err("BTB sets must be a positive power of two".into());
        }
        Ok(())
    }
}

/// Functional-unit pool sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuConfig {
    /// Integer ALUs (also execute branches).
    pub int_alu: u32,
    /// Integer multiply/divide units.
    pub int_muldiv: u32,
    /// FP adders.
    pub fp_add: u32,
    /// FP multiply/divide units.
    pub fp_muldiv: u32,
    /// Load/store ports.
    pub load_store: u32,
}

impl FuConfig {
    /// Pool size for a functional-unit class.
    pub fn pool(&self, class: FuClass) -> u32 {
        match class {
            FuClass::IntAlu => self.int_alu,
            FuClass::IntMulDiv => self.int_muldiv,
            FuClass::FpAdd => self.fp_add,
            FuClass::FpMulDiv => self.fp_muldiv,
            FuClass::LoadStore => self.load_store,
        }
    }

    /// Maximum units per pool: the detailed simulator tracks each pool
    /// in a fixed sorted array of this many slots.
    pub const MAX_UNITS: u32 = 64;

    /// Check that every pool has at least one unit and no more than
    /// [`FuConfig::MAX_UNITS`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending pool.
    pub fn validate(&self) -> Result<(), String> {
        for class in [
            FuClass::IntAlu,
            FuClass::IntMulDiv,
            FuClass::FpAdd,
            FuClass::FpMulDiv,
            FuClass::LoadStore,
        ] {
            if self.pool(class) == 0 {
                return Err(format!("functional-unit pool {class} is empty"));
            }
            if self.pool(class) > Self::MAX_UNITS {
                return Err(format!(
                    "functional-unit pool {class} has {} units (max {})",
                    self.pool(class),
                    Self::MAX_UNITS
                ));
            }
        }
        Ok(())
    }
}

/// A complete machine configuration for the detailed simulator.
///
/// # Example
///
/// ```
/// use mlpa_sim::MachineConfig;
///
/// let base = MachineConfig::table1_base();
/// base.validate().unwrap();
/// assert_eq!(base.width, 8);
/// assert_eq!(base.rob_entries, 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Decode/issue/commit width.
    pub width: u32,
    /// Reorder-buffer entries.
    pub rob_entries: u32,
    /// Load/store-queue entries.
    pub lsq_entries: u32,
    /// Front-end depth in cycles (fetch→dispatch).
    pub frontend_depth: u32,
    /// Functional-unit pools.
    pub fu: FuConfig,
    /// L1 instruction cache.
    pub icache: CacheConfig,
    /// L1 data cache.
    pub dcache: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Main-memory latency: first access.
    pub mem_latency_first: u32,
    /// Main-memory latency: each following (burst) access.
    pub mem_latency_next: u32,
    /// Branch predictor.
    pub predictor: PredictorConfig,
    /// L1D hardware prefetcher ([`PrefetchPolicy::None`] in Table I).
    pub prefetch: PrefetchPolicy,
}

impl MachineConfig {
    /// Table I, Part A — the base configuration used against SimPoint.
    pub fn table1_base() -> MachineConfig {
        MachineConfig {
            width: 8,
            rob_entries: 128,
            lsq_entries: 64,
            frontend_depth: 4,
            fu: FuConfig { int_alu: 8, int_muldiv: 2, fp_add: 2, fp_muldiv: 2, load_store: 4 },
            icache: CacheConfig { size: 8 * 1024, assoc: 2, line: 32, latency: 1 },
            dcache: CacheConfig { size: 16 * 1024, assoc: 4, line: 32, latency: 2 },
            l2: CacheConfig { size: 1024 * 1024, assoc: 4, line: 32, latency: 20 },
            mem_latency_first: 150,
            mem_latency_next: 10,
            predictor: PredictorConfig {
                bht_entries: 8 * 1024,
                history_bits: 12,
                btb_sets: 512,
                ras_depth: 16,
                mispredict_penalty: 6,
            },
            prefetch: PrefetchPolicy::None,
        }
    }

    /// Table I, Part B — the sensitivity-analysis configuration (larger
    /// caches, longer memory latency, different FU balance). The paper's
    /// table is partially cut off in the available text; the visible
    /// rows (6 int ALU / 2 ld-st / 6 FP add / 4 int muldiv / 4 fp
    /// muldiv; 32 k direct-mapped I$; 128 k 2-way D$) are used verbatim
    /// and the hidden L2/memory rows follow its stated intent of "larger
    /// cache size and longer memory latency".
    pub fn table1_sensitivity() -> MachineConfig {
        MachineConfig {
            width: 8,
            rob_entries: 128,
            lsq_entries: 64,
            frontend_depth: 4,
            fu: FuConfig { int_alu: 6, int_muldiv: 4, fp_add: 6, fp_muldiv: 4, load_store: 2 },
            icache: CacheConfig { size: 32 * 1024, assoc: 1, line: 32, latency: 1 },
            dcache: CacheConfig { size: 128 * 1024, assoc: 2, line: 32, latency: 1 },
            l2: CacheConfig { size: 2 * 1024 * 1024, assoc: 8, line: 32, latency: 30 },
            mem_latency_first: 200,
            mem_latency_next: 15,
            predictor: PredictorConfig {
                bht_entries: 8 * 1024,
                history_bits: 12,
                btb_sets: 512,
                ras_depth: 16,
                mispredict_penalty: 6,
            },
            prefetch: PrefetchPolicy::None,
        }
    }

    /// Check every component.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.width == 0 {
            return Err("pipeline width must be positive".into());
        }
        if self.rob_entries == 0 || self.lsq_entries == 0 {
            return Err("ROB and LSQ must have at least one entry".into());
        }
        if self.lsq_entries > self.rob_entries {
            return Err("LSQ cannot exceed the ROB".into());
        }
        self.fu.validate()?;
        self.icache.validate().map_err(|e| format!("icache: {e}"))?;
        self.dcache.validate().map_err(|e| format!("dcache: {e}"))?;
        self.l2.validate().map_err(|e| format!("l2: {e}"))?;
        if self.mem_latency_first == 0 {
            return Err("memory latency must be positive".into());
        }
        self.predictor.validate()
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::table1_base()
    }
}

impl fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-wide OoO, ROB {} / LSQ {}, I${}k/{} D${}k/{} L2 {}k/{}, mem {}/{}",
            self.width,
            self.rob_entries,
            self.lsq_entries,
            self.icache.size / 1024,
            self.icache.assoc,
            self.dcache.size / 1024,
            self.dcache.assoc,
            self.l2.size / 1024,
            self.l2.assoc,
            self.mem_latency_first,
            self.mem_latency_next
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_configs_validate() {
        MachineConfig::table1_base().validate().unwrap();
        MachineConfig::table1_sensitivity().validate().unwrap();
    }

    #[test]
    fn table1_base_matches_paper() {
        let c = MachineConfig::table1_base();
        assert_eq!((c.width, c.rob_entries, c.lsq_entries), (8, 128, 64));
        assert_eq!(c.fu.int_alu, 8);
        assert_eq!(c.fu.load_store, 4);
        assert_eq!(c.fu.fp_add, 2);
        assert_eq!(c.icache.size, 8 * 1024);
        assert_eq!(c.icache.assoc, 2);
        assert_eq!(c.dcache.size, 16 * 1024);
        assert_eq!(c.dcache.assoc, 4);
        assert_eq!(c.dcache.latency, 2);
        assert_eq!(c.l2.size, 1 << 20);
        assert_eq!(c.l2.latency, 20);
        assert_eq!((c.mem_latency_first, c.mem_latency_next), (150, 10));
        assert_eq!(c.predictor.bht_entries, 8 * 1024);
    }

    #[test]
    fn table1_sensitivity_differs_where_stated() {
        let a = MachineConfig::table1_base();
        let b = MachineConfig::table1_sensitivity();
        assert_eq!(b.fu.int_alu, 6);
        assert_eq!(b.fu.load_store, 2);
        assert_eq!(b.fu.fp_add, 6);
        assert_eq!(b.icache.assoc, 1, "Config B I$ is direct mapped");
        assert!(b.dcache.size > a.dcache.size);
        assert!(b.l2.size > a.l2.size);
        assert!(b.mem_latency_first > a.mem_latency_first);
    }

    #[test]
    fn cache_sets_computed() {
        let c = CacheConfig { size: 16 * 1024, assoc: 4, line: 32, latency: 2 };
        assert_eq!(c.sets(), 128);
    }

    #[test]
    fn bad_cache_configs_rejected() {
        let base = CacheConfig { size: 16 * 1024, assoc: 4, line: 32, latency: 2 };
        assert!(CacheConfig { line: 33, ..base }.validate().is_err());
        assert!(CacheConfig { assoc: 0, ..base }.validate().is_err());
        assert!(CacheConfig { size: 1000, ..base }.validate().is_err());
        // 3 sets: not a power of two.
        assert!(CacheConfig { size: 3 * 128, assoc: 1, line: 128, latency: 1 }.validate().is_err());
    }

    #[test]
    fn bad_machine_configs_rejected() {
        let mut c = MachineConfig::table1_base();
        c.width = 0;
        assert!(c.validate().is_err());
        let mut c = MachineConfig::table1_base();
        c.lsq_entries = c.rob_entries + 1;
        assert!(c.validate().is_err());
        let mut c = MachineConfig::table1_base();
        c.fu.load_store = 0;
        assert!(c.validate().is_err());
        let mut c = MachineConfig::table1_base();
        c.predictor.bht_entries = 1000;
        assert!(c.validate().is_err());
    }

    #[test]
    fn display_is_informative() {
        let s = MachineConfig::table1_base().to_string();
        assert!(s.contains("ROB 128"));
        assert!(s.contains("150"));
    }
}
