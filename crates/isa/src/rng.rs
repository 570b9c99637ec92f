//! Reproducible pseudo-random number generation.
//!
//! Every stochastic choice in the workspace — workload instruction mixes,
//! memory-address jitter, random projection matrices, k-means seeding —
//! flows through [`SplitMix64`]. The algorithm is fixed and documented
//! (Steele, Lea & Flood, OOPSLA 2014), so results are bit-identical
//! across platforms, Rust versions, and crate releases, which library
//! PRNGs explicitly do not promise. Reproducibility is a hard requirement
//! for a simulation-methodology study: the same benchmark seed must yield
//! the same trace in the profiling pass, the fast-forward pass, and the
//! detailed pass.

/// A `SplitMix64` pseudo-random generator.
///
/// Small (8 bytes), fast (one multiply-xor-shift chain per draw), and
/// *splittable*: [`SplitMix64::fork`] derives an independent child stream
/// from a tag, letting the workload generator give every benchmark,
/// phase, and block its own decorrelated stream without bookkeeping.
///
/// # Example
///
/// ```
/// use mlpa_isa::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
///
/// let mut child = a.fork(7);
/// let x = child.range_u64(10);
/// assert!(x < 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// Create a generator from a seed.
    #[inline]
    pub const fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix(self.state)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// Uses the widening-multiply technique; bias is < 2^-32 for the
    /// bounds used in this workspace (all far below 2^32), which is
    /// negligible for workload synthesis.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn range_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "range_u64 bound must be positive");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn range_usize(&mut self, bound: usize) -> usize {
        self.range_u64(bound as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "invalid range [{lo}, {hi})");
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Approximately standard-normal draw (Box–Muller, one branch of the
    /// pair). Used only to jitter workload parameters.
    #[inline]
    pub fn next_gauss(&mut self) -> f64 {
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Derive an independent child generator from this one plus a tag.
    ///
    /// Forking does not advance `self`, so the parent's own stream stays
    /// stable no matter how many children are forked.
    #[inline]
    pub fn fork(&self, tag: u64) -> SplitMix64 {
        SplitMix64::new(mix(self.state ^ mix(tag ^ GOLDEN_GAMMA)))
    }

    /// Skip `n` draws in O(1): the state advances by the golden gamma
    /// once per [`SplitMix64::next_u64`], so `n` draws forward is a
    /// single wrapping multiply-add. Every derived draw in this type
    /// consumes a fixed number of raw draws ([`SplitMix64::range_u64`],
    /// [`SplitMix64::chance`], and [`SplitMix64::next_f64`] one each,
    /// [`SplitMix64::next_gauss`] two), so callers can skip composite
    /// sequences exactly. Streaming consumers use this for cheap
    /// mid-trace entry: fast-forwarding a cursor past `n` addresses
    /// costs the same as past one.
    #[inline]
    pub fn skip(&mut self, n: u64) {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA.wrapping_mul(n));
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        SplitMix64::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_reference_values() {
        // Reference values from the canonical SplitMix64 with seed 0:
        // these pin the algorithm so refactors cannot silently change
        // every experiment in the repo.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_about_half() {
        let mut r = SplitMix64::new(99);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = SplitMix64::new(5);
        for _ in 0..10_000 {
            assert!(r.range_u64(17) < 17);
            let x = r.range_f64(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn range_hits_all_small_values() {
        let mut r = SplitMix64::new(11);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.range_usize(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        let _ = SplitMix64::new(1).range_u64(0);
    }

    #[test]
    fn fork_streams_are_decorrelated_and_stable() {
        let parent = SplitMix64::new(42);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let mut c1_again = parent.fork(1);
        assert_ne!(c1.next_u64(), c2.next_u64());
        // Forking is pure: same tag -> same child stream.
        let mut c1_fresh = SplitMix64::new(42).fork(1);
        c1_fresh.next_u64();
        assert_eq!(c1_again.next_u64(), {
            let mut c = SplitMix64::new(42).fork(1);
            c.next_u64()
        });
    }

    #[test]
    fn gauss_has_plausible_moments() {
        let mut r = SplitMix64::new(1234);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.next_gauss()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "gauss mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "gauss variance {var}");
    }

    #[test]
    fn skip_matches_sequential_draws() {
        for n in [0u64, 1, 2, 7, 1000, 123_456] {
            let mut seq = SplitMix64::new(77);
            for _ in 0..n {
                let _ = seq.next_u64();
            }
            let mut jump = SplitMix64::new(77);
            jump.skip(n);
            assert_eq!(seq, jump, "skip({n}) diverged from {n} sequential draws");
            assert_eq!(seq.next_u64(), jump.next_u64());
        }
    }

    #[test]
    fn skip_composes_additively() {
        let mut a = SplitMix64::new(9);
        a.skip(10);
        a.skip(32);
        let mut b = SplitMix64::new(9);
        b.skip(42);
        assert_eq!(a, b);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(3);
        assert!(!(0..1000).any(|_| r.chance(0.0)));
        assert!((0..1000).all(|_| r.chance(1.0)));
    }
}
