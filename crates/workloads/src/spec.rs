//! Benchmark specifications: the declarative description a synthetic
//! workload is generated from.
//!
//! A [`BenchmarkSpec`] describes a program with the hierarchical phase
//! structure the paper's methodology exploits:
//!
//! ```text
//! init section (runs once)
//! outer loop:                      <- coarse granularity: one iteration
//!     iteration i runs phase P(i)     = one coarse interval
//!     inner loop of P(i):          <- fine granularity lives in here
//!         weighted block instances, drifting + jittering
//! tail section (runs once)
//! ```
//!
//! The *script* (`Vec<ScriptEntry>`) assigns each outer iteration a phase
//! and a target instruction count; it is the knob that calibrates every
//! per-benchmark fact the paper reports (how many coarse phases exist,
//! where each phase first occurs, how irregular iteration sizes are —
//! e.g. gcc's 56 wildly-sized iterations).

use crate::behavior::{BranchPattern, InstMix, MemoryPattern};

/// Every address a compiled benchmark generates, code and data, lies
/// below this bound, so a cache tag (the address shifted right by the
/// line and set bits) always fits the simulator's 32-bit tag field.
/// Validation rejects a spec whose data regions could reach it;
/// compilation rejects code laid out past it.
pub const ADDRESS_LIMIT: u64 = 1 << 32;

/// Index of a phase within a [`BenchmarkSpec`].
pub type PhaseId = usize;

/// Description of one body-block family inside a phase.
///
/// Each `BlockSpec` expands to three static basic blocks (`head`, `alt`,
/// `cont`): `head` ends in the pattern-driven conditional branch that
/// either skips (`taken`) or falls into `alt`, and `cont` ends in the
/// self-repeat backward branch. How *often* the family executes per inner
/// iteration is its (drifted, jittered) weight.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSpec {
    /// Total instructions across head+alt+cont bodies (split roughly
    /// 40/20/40), excluding terminators. Minimum 6.
    pub len: u32,
    /// Base execution weight within the phase (relative).
    pub weight: f64,
    /// Direction (`-1.0..=1.0`) this family's weight moves as the phase
    /// drifts over the run; families with opposite signs trade places,
    /// which is what spreads fine-grained clusters across time.
    pub drift_dir: f64,
    /// Instruction mix of the block bodies.
    pub mix: InstMix,
    /// Memory-access pattern of the block's loads/stores.
    pub mem: MemoryPattern,
    /// Direction pattern of the head block's conditional branch.
    pub branch: BranchPattern,
    /// Probability that an operand reads a recently produced register
    /// (dependence density; higher = less ILP = higher CPI).
    pub dep_density: f64,
}

impl Default for BlockSpec {
    fn default() -> Self {
        BlockSpec {
            len: 24,
            weight: 1.0,
            drift_dir: 0.0,
            mix: InstMix::default(),
            mem: MemoryPattern::default(),
            branch: BranchPattern::default(),
            dep_density: 0.4,
        }
    }
}

impl BlockSpec {
    /// Check all parameters.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.len < 6 {
            return Err(format!("block len {} too small (min 6)", self.len));
        }
        if !(self.weight > 0.0 && self.weight.is_finite()) {
            return Err(format!("block weight {} must be positive", self.weight));
        }
        if !(-1.0..=1.0).contains(&self.drift_dir) {
            return Err(format!("drift_dir {} out of [-1, 1]", self.drift_dir));
        }
        if !(0.0..=1.0).contains(&self.dep_density) {
            return Err(format!("dep_density {} out of [0, 1]", self.dep_density));
        }
        self.mix.validate()?;
        self.mem.validate()?;
        self.branch.validate()
    }
}

/// One program phase: a set of block families plus the phase-level
/// behaviour knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Human-readable phase name.
    pub name: String,
    /// The block families making up the phase body.
    pub blocks: Vec<BlockSpec>,
    /// Approximate instructions per inner-loop iteration.
    pub inner_iter_insts: u64,
    /// Strength of the slow weight drift over the whole run (0 = static
    /// phase; 1–3 = pronounced drift). Drift is what gives fine-grained
    /// clustering late-program clusters.
    pub drift: f64,
    /// Per-inner-iteration log-normal weight jitter (σ). Jitter is the
    /// fine-grained "chaos" that coarse intervals average away (Fig. 1).
    pub noise: f64,
    /// Fraction (0..1) of the drift that also shifts *performance*
    /// behaviour (working-set scale, branch bias). Small values keep
    /// earliest-instance sampling (COASTS) accurate, per Table II.
    pub perf_drift: f64,
}

impl Default for PhaseSpec {
    fn default() -> Self {
        PhaseSpec {
            name: "phase".into(),
            blocks: vec![BlockSpec::default()],
            inner_iter_insts: 1_000,
            drift: 0.4,
            noise: 0.3,
            perf_drift: 0.05,
        }
    }
}

impl PhaseSpec {
    /// Check the phase and all its blocks.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.blocks.is_empty() {
            return Err(format!("phase `{}` has no blocks", self.name));
        }
        if self.inner_iter_insts < 50 {
            return Err(format!(
                "phase `{}` inner_iter_insts {} too small (min 50)",
                self.name, self.inner_iter_insts
            ));
        }
        if !(self.drift >= 0.0 && self.drift.is_finite()) {
            return Err(format!("phase `{}` drift must be non-negative", self.name));
        }
        if !(self.noise >= 0.0 && self.noise.is_finite()) {
            return Err(format!("phase `{}` noise must be non-negative", self.name));
        }
        if !(0.0..=1.0).contains(&self.perf_drift) {
            return Err(format!("phase `{}` perf_drift out of [0, 1]", self.name));
        }
        for (i, b) in self.blocks.iter().enumerate() {
            b.validate().map_err(|e| format!("phase `{}` block {i}: {e}", self.name))?;
            // The init section touches the same regions with at least
            // 64-byte patterns, so bound those too.
            let end = crate::build::data_region_end(i, b.mem.working_set().max(64));
            if end > ADDRESS_LIMIT {
                return Err(format!(
                    "phase `{}` block {i}: data region ends at {end:#x}, past the address \
                     limit {ADDRESS_LIMIT:#x} (too many blocks or too large a working set)",
                    self.name
                ));
            }
        }
        Ok(())
    }
}

/// One outer-loop iteration in the script: which phase runs and roughly
/// how many instructions it executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptEntry {
    /// Phase to run.
    pub phase: PhaseId,
    /// Target size of the iteration in instructions.
    pub insts: u64,
}

impl ScriptEntry {
    /// Convenience constructor.
    pub fn new(phase: PhaseId, insts: u64) -> ScriptEntry {
        ScriptEntry { phase, insts }
    }
}

/// Full description of a synthetic benchmark.
///
/// # Example
///
/// ```
/// use mlpa_workloads::spec::{BenchmarkSpec, PhaseSpec, ScriptEntry};
///
/// let spec = BenchmarkSpec {
///     name: "toy".into(),
///     seed: 1,
///     phases: vec![PhaseSpec::default()],
///     script: vec![ScriptEntry::new(0, 50_000); 4],
///     ..BenchmarkSpec::default()
/// };
/// spec.validate().unwrap();
/// assert!(spec.nominal_insts() > 4 * 50_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// Benchmark name (SPEC2000-style).
    pub name: String,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// Instructions in the one-shot init section (its own small loop).
    pub init_insts: u64,
    /// Instructions in the one-shot tail section.
    pub tail_insts: u64,
    /// The phases.
    pub phases: Vec<PhaseSpec>,
    /// The outer-loop script (one entry per iteration).
    pub script: Vec<ScriptEntry>,
}

impl Default for BenchmarkSpec {
    fn default() -> Self {
        BenchmarkSpec {
            name: "bench".into(),
            seed: 0,
            init_insts: 2_000,
            tail_insts: 1_000,
            phases: vec![PhaseSpec::default()],
            script: vec![ScriptEntry::new(0, 100_000); 8],
        }
    }
}

impl BenchmarkSpec {
    /// Check the whole specification.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint, including
    /// script entries that reference non-existent phases.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("benchmark name must not be empty".into());
        }
        if self.phases.is_empty() {
            return Err("benchmark needs at least one phase".into());
        }
        if self.script.is_empty() {
            return Err("benchmark script needs at least one outer iteration".into());
        }
        for p in &self.phases {
            p.validate()?;
        }
        for (i, e) in self.script.iter().enumerate() {
            if e.phase >= self.phases.len() {
                return Err(format!(
                    "script entry {i} references phase {} but only {} phases exist",
                    e.phase,
                    self.phases.len()
                ));
            }
            if e.insts < self.phases[e.phase].inner_iter_insts {
                return Err(format!(
                    "script entry {i} size {} is smaller than one inner iteration ({})",
                    e.insts, self.phases[e.phase].inner_iter_insts
                ));
            }
        }
        Ok(())
    }

    /// Nominal total instruction count (init + script + tail); the
    /// generated trace lands close to (within a few block lengths per
    /// iteration of) this figure.
    pub fn nominal_insts(&self) -> u64 {
        self.init_insts + self.tail_insts + self.script.iter().map(|e| e.insts).sum::<u64>()
    }

    /// Number of outer-loop iterations.
    pub fn outer_iters(&self) -> usize {
        self.script.len()
    }

    /// Number of distinct phases actually referenced by the script.
    pub fn distinct_script_phases(&self) -> usize {
        let mut seen = vec![false; self.phases.len()];
        for e in &self.script {
            seen[e.phase] = true;
        }
        seen.into_iter().filter(|&s| s).count()
    }

    /// Scale the benchmark's dynamic length by `factor`, multiplying the
    /// script sizes and the init/tail sections while keeping the phase
    /// structure identical. Used to trade experiment fidelity for speed.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> BenchmarkSpec {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "scale factor must be positive and finite, got {factor}"
        );
        let mut s = self.clone();
        let scale_u64 = |v: u64| -> u64 { ((v as f64 * factor).round() as u64).max(1) };
        s.init_insts = scale_u64(s.init_insts);
        s.tail_insts = scale_u64(s.tail_insts);
        for e in &mut s.script {
            // Never shrink an iteration below one inner iteration.
            let min = self.phases[e.phase].inner_iter_insts;
            e.insts = scale_u64(e.insts).max(min);
        }
        s
    }

    /// Position (fraction of nominal instructions executed before it
    /// starts) of outer iteration `idx`. Useful for calibration tests
    /// against the paper's "position of last coarse point" facts.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.script.len()`.
    pub fn iteration_position(&self, idx: usize) -> f64 {
        assert!(idx < self.script.len(), "iteration index out of range");
        let before: u64 = self.init_insts + self.script[..idx].iter().map(|e| e.insts).sum::<u64>();
        before as f64 / self.nominal_insts() as f64
    }

    /// For each phase that appears in the script, the index of its first
    /// (earliest) outer iteration, in phase order.
    pub fn first_occurrences(&self) -> Vec<(PhaseId, usize)> {
        let mut firsts: Vec<(PhaseId, usize)> = Vec::new();
        for (i, e) in self.script.iter().enumerate() {
            if !firsts.iter().any(|&(p, _)| p == e.phase) {
                firsts.push((e.phase, i));
            }
        }
        firsts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_valid() {
        BenchmarkSpec::default().validate().unwrap();
    }

    /// Cache tags are 32 bits wide, so every generated address must stay
    /// below [`ADDRESS_LIMIT`]: a phase with too many families, or too
    /// large a working set, is rejected before anything runs.
    #[test]
    fn specs_reaching_the_address_limit_are_rejected() {
        let block = |ws: u64| BlockSpec {
            mem: MemoryPattern::RandomInSet { working_set: ws },
            ..BlockSpec::default()
        };
        let spec = |blocks: Vec<BlockSpec>| BenchmarkSpec {
            phases: vec![PhaseSpec { blocks, ..PhaseSpec::default() }],
            ..BenchmarkSpec::default()
        };
        // Families sit 32 MiB apart from 0x1000_0000: 120 of them fit.
        spec(vec![block(8 * 1024); 120]).validate().unwrap();
        let err = spec(vec![block(8 * 1024); 130]).validate().unwrap_err();
        assert!(err.contains("address limit"), "{err}");
        let err = spec(vec![block(1 << 30)]).validate().unwrap_err();
        assert!(err.contains("address limit"), "{err}");
        let err = spec(vec![block(u64::MAX)]).validate().unwrap_err();
        assert!(err.contains("address limit"), "{err}");
        for s in crate::suite::Suite::spec2000().iter() {
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
        }
    }

    #[test]
    fn script_phase_bounds_checked() {
        let mut s = BenchmarkSpec::default();
        s.script.push(ScriptEntry::new(5, 100_000));
        let err = s.validate().unwrap_err();
        assert!(err.contains("references phase 5"), "{err}");
    }

    #[test]
    fn too_small_iteration_rejected() {
        let mut s = BenchmarkSpec::default();
        s.script[0].insts = 10;
        assert!(s.validate().is_err());
    }

    #[test]
    fn nominal_insts_adds_up() {
        let s = BenchmarkSpec::default();
        assert_eq!(s.nominal_insts(), 2_000 + 1_000 + 8 * 100_000);
    }

    #[test]
    fn scaling_preserves_structure() {
        let s = BenchmarkSpec::default();
        let big = s.scaled(3.0);
        assert_eq!(big.outer_iters(), s.outer_iters());
        assert_eq!(big.phases, s.phases);
        assert!((big.nominal_insts() as f64 / s.nominal_insts() as f64 - 3.0).abs() < 0.01);
        big.validate().unwrap();
    }

    #[test]
    fn scaling_down_respects_inner_iteration_floor() {
        let s = BenchmarkSpec::default();
        let tiny = s.scaled(0.001);
        tiny.validate().unwrap();
        for e in &tiny.script {
            assert!(e.insts >= s.phases[e.phase].inner_iter_insts);
        }
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_scale_panics() {
        let _ = BenchmarkSpec::default().scaled(0.0);
    }

    #[test]
    fn positions_and_first_occurrences() {
        let mut s = BenchmarkSpec::default();
        s.phases.push(PhaseSpec { name: "p2".into(), ..PhaseSpec::default() });
        s.script = vec![
            ScriptEntry::new(0, 100_000),
            ScriptEntry::new(1, 100_000),
            ScriptEntry::new(0, 100_000),
        ];
        s.validate().unwrap();
        assert_eq!(s.first_occurrences(), vec![(0, 0), (1, 1)]);
        assert_eq!(s.distinct_script_phases(), 2);
        assert!(s.iteration_position(0) < 0.01);
        let p1 = s.iteration_position(1);
        assert!((0.3..0.4).contains(&p1), "{p1}");
    }

    #[test]
    fn block_spec_validation_catches_bad_params() {
        let ok = BlockSpec::default();
        ok.validate().unwrap();
        assert!(BlockSpec { len: 2, ..ok.clone() }.validate().is_err());
        assert!(BlockSpec { weight: 0.0, ..ok.clone() }.validate().is_err());
        assert!(BlockSpec { drift_dir: 2.0, ..ok.clone() }.validate().is_err());
        assert!(BlockSpec { dep_density: 1.5, ..ok }.validate().is_err());
    }

    #[test]
    fn phase_validation_catches_bad_params() {
        let ok = PhaseSpec::default();
        ok.validate().unwrap();
        assert!(PhaseSpec { blocks: vec![], ..ok.clone() }.validate().is_err());
        assert!(PhaseSpec { inner_iter_insts: 10, ..ok.clone() }.validate().is_err());
        assert!(PhaseSpec { perf_drift: 2.0, ..ok }.validate().is_err());
    }
}
