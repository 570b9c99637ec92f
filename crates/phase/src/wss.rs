//! Working-set signatures — the phase metric of Dhodapkar & Smith
//! (MICRO 2003), which the paper cites in §II with the conclusion that
//! "BBV performs better than other instruction-execution related
//! metrics, such as the working set".
//!
//! A working-set signature summarises *which memory* an interval
//! touches rather than *which code* it executes: touched cache-line
//! addresses are hashed into a fixed-width occupancy sketch. Two
//! intervals running different code over the same data look identical
//! to a WSS — the weakness that makes BBVs win, and that
//! `mlpa-experiments ablation_metric` (`results/ablation_metric.txt`)
//! demonstrates.

use crate::interval::Interval;
use mlpa_isa::{BlockId, Instruction};
use mlpa_sim::functional::Observer;
use std::collections::HashSet;

/// Fixed-length interval profiler collecting hashed working-set
/// signatures of data accesses.
///
/// Each *distinct* touched line address is hashed into one of `dim`
/// buckets; the signature is the per-bucket distinct-line count,
/// normalised by interval length — so both the working set's *size*
/// (overall magnitude: new lines per instruction) and its *identity*
/// (bucket shape) survive. (Dhodapkar & Smith used a bit-vector;
/// normalised counts retain slightly more information and cluster
/// better, which only *strengthens* the BBV-vs-WSS comparison when BBV
/// still wins.)
///
/// # Example
///
/// ```
/// use mlpa_phase::wss::WssProfiler;
/// use mlpa_sim::FunctionalSim;
/// use mlpa_workloads::{spec::BenchmarkSpec, CompiledBenchmark, WorkloadStream};
///
/// let cb = CompiledBenchmark::compile(&BenchmarkSpec::default())?;
/// let mut prof = WssProfiler::new(10_000, 32);
/// FunctionalSim::new(cb.program()).run(WorkloadStream::new(&cb), &mut prof);
/// let intervals = prof.finish();
/// assert_eq!(intervals[0].vector.len(), 32);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct WssProfiler {
    interval_len: u64,
    dim: usize,
    buckets: Vec<f64>,
    seen: HashSet<u64>,
    count_insts: u64,
    start: u64,
    intervals: Vec<Interval>,
    /// Line-granularity shift (32-byte lines).
    line_shift: u32,
}

impl WssProfiler {
    /// Create a profiler with `dim` hash buckets per signature.
    ///
    /// # Panics
    ///
    /// Panics if `interval_len` or `dim` is zero.
    pub fn new(interval_len: u64, dim: usize) -> WssProfiler {
        assert!(interval_len > 0, "interval length must be positive");
        assert!(dim > 0, "signature dimension must be positive");
        WssProfiler {
            interval_len,
            dim,
            buckets: vec![0.0; dim],
            seen: HashSet::new(),
            count_insts: 0,
            start: 0,
            intervals: Vec::new(),
            line_shift: 5,
        }
    }

    fn flush(&mut self) {
        if self.count_insts == 0 {
            return;
        }
        // Normalise by interval length while copying out: the magnitude
        // carries the working-set *rate* (distinct lines per
        // instruction). The bucket buffer is zeroed and reused rather
        // than reallocated per interval.
        let inv = 1.0 / self.count_insts as f64;
        let vector: Vec<f64> = self.buckets.iter().map(|v| v * inv).collect();
        self.buckets.fill(0.0);
        self.seen.clear();
        self.intervals.push(Interval {
            index: self.intervals.len(),
            start: self.start,
            len: self.count_insts,
            vector,
        });
        self.start += self.count_insts;
        self.count_insts = 0;
    }

    /// Flush the trailing interval and return all intervals.
    pub fn finish(mut self) -> Vec<Interval> {
        self.flush();
        self.intervals
    }
}

/// SplitMix-style line-address hash (stateless).
#[inline]
fn hash_line(line: u64) -> u64 {
    let mut z = line.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

impl Observer for WssProfiler {
    fn on_block(&mut self, _id: BlockId, insts: &[Instruction], _first: u64) {
        for inst in insts {
            if inst.is_mem() {
                let line = inst.addr >> self.line_shift;
                if self.seen.insert(line) {
                    let bucket = (hash_line(line) % self.dim as u64) as usize;
                    self.buckets[bucket] += 1.0;
                }
            }
        }
        self.count_insts += insts.len() as u64;
        if self.count_insts >= self.interval_len {
            self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::validate_intervals;
    use crate::project::distance_sq;
    use mlpa_sim::FunctionalSim;
    use mlpa_workloads::behavior::MemoryPattern;
    use mlpa_workloads::spec::{BenchmarkSpec, BlockSpec, PhaseSpec, ScriptEntry};
    use mlpa_workloads::{CompiledBenchmark, WorkloadStream};

    fn profile(cb: &CompiledBenchmark, len: u64, dim: usize) -> Vec<Interval> {
        let mut prof = WssProfiler::new(len, dim);
        FunctionalSim::new(cb.program()).run(WorkloadStream::new(cb), &mut prof);
        prof.finish()
    }

    /// Two phases with *different working sets*.
    fn distinct_data_cb() -> CompiledBenchmark {
        let mk = |name: &str, ws: u64| PhaseSpec {
            name: name.into(),
            blocks: vec![BlockSpec {
                mem: MemoryPattern::RandomInSet { working_set: ws },
                ..BlockSpec::default()
            }],
            ..PhaseSpec::default()
        };
        let spec = BenchmarkSpec {
            phases: vec![mk("small", 8 * 1024), mk("large", 1 << 20)],
            script: (0..8).map(|i| ScriptEntry::new(i % 2, 50_000)).collect(),
            ..BenchmarkSpec::default()
        };
        CompiledBenchmark::compile(&spec).unwrap()
    }

    #[test]
    fn intervals_tile_and_normalise() {
        let cb = distinct_data_cb();
        let ivs = profile(&cb, 10_000, 32);
        validate_intervals(&ivs).unwrap();
        for iv in &ivs {
            let sum: f64 = iv.vector.iter().sum();
            // Sum = distinct lines / instructions, always below 1.
            assert!((0.0..1.0).contains(&sum), "signature sum {sum}");
        }
    }

    #[test]
    fn different_working_sets_separate() {
        let cb = distinct_data_cb();
        let ivs = profile(&cb, 25_000, 32);
        // The script alternates phases every 50 k instructions, so with
        // 25 k intervals (offset by the ~2 k init) the *pure* intervals
        // are ivs[1] (phase A), ivs[3] (phase B), ivs[5] (phase A), ….
        // Same-phase intervals must be closer than cross-phase ones —
        // the data regions differ, so both magnitude and bucket shape
        // differ.
        let same = distance_sq(&ivs[1].vector, &ivs[5].vector);
        let cross = distance_sq(&ivs[1].vector, &ivs[3].vector);
        assert!(cross > same * 2.0, "cross-phase distance {cross:.6} vs same-phase {same:.6}");
    }

    #[test]
    fn same_data_different_code_is_invisible() {
        // Two phases over the SAME region with different code: WSS
        // cannot tell them apart (the weakness BBVs do not have).
        let mk = |name: &str| PhaseSpec {
            name: name.into(),
            blocks: vec![BlockSpec {
                mem: MemoryPattern::RandomInSet { working_set: 64 * 1024 },
                ..BlockSpec::default()
            }],
            ..PhaseSpec::default()
        };
        let spec = BenchmarkSpec {
            phases: vec![mk("a"), mk("b")],
            script: (0..8).map(|i| ScriptEntry::new(i % 2, 50_000)).collect(),
            ..BenchmarkSpec::default()
        };
        let cb = CompiledBenchmark::compile(&spec).unwrap();
        let ivs = profile(&cb, 25_000, 32);
        let body = &ivs[1..ivs.len() - 1];
        let cross = distance_sq(&body[0].vector, &body[1].vector);
        // Signatures nearly identical: uniform random over the same
        // region hashes to near-uniform occupancy either way.
        assert!(cross < 0.01, "cross-phase WSS distance {cross:.4} should collapse");
    }

    #[test]
    fn deterministic() {
        let cb = distinct_data_cb();
        assert_eq!(profile(&cb, 9_000, 16), profile(&cb, 9_000, 16));
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_rejected() {
        let _ = WssProfiler::new(1_000, 0);
    }
}
