//! Correctness gate: every round's output is reduced to a digest and
//! compared with the digest recorded in `golden.txt` for its workload
//! and input variant.
//!
//! Digests hash a rendering built here from named public fields, not the
//! program's `Debug` output, so adding a field to a result type does not
//! invalidate them while any change to a recorded value does. Floats
//! render with `{:?}`, which round-trips exactly.

use std::fmt::Write as _;

use mlpa_core::{ExecutionOutcome, SimulationPlan};
use mlpa_sim::{MetricDeviation, MetricEstimate};

/// The recorded digests.
pub const GOLDEN: &str = include_str!("../golden.txt");

/// 64-bit FNV-1a of `text`, as 16 hex digits.
pub fn digest(text: &str) -> String {
    let h = text.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    format!("{h:016x}")
}

/// Check `actual` against the digest `golden` records for `workload` at
/// `variant`. Lines are `workload variant digest`; `#` starts a comment.
pub fn check(golden: &str, workload: &str, variant: u64, actual: &str) -> Result<(), String> {
    let recorded =
        golden.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')).find_map(
            |l| match l.split_whitespace().collect::<Vec<_>>()[..] {
                [w, v, d] if w == workload && v.parse() == Ok(variant) => Some(d),
                _ => None,
            },
        );
    match recorded {
        Some(d) if d == actual => Ok(()),
        Some(d) => Err(format!(
            "output digest {actual} differs from the golden {d} ({workload} variant {variant})"
        )),
        None => Err(format!("no golden digest for {workload} variant {variant} (got {actual})")),
    }
}

/// Accumulates the canonical rendering of a round's results.
#[derive(Debug, Default)]
pub struct Canon(String);

impl Canon {
    pub fn line(&mut self, label: &str, value: impl std::fmt::Debug) -> &mut Canon {
        let _ = writeln!(self.0, "{label}={value:?}");
        self
    }

    pub fn estimate(&mut self, label: &str, e: &MetricEstimate) -> &mut Canon {
        self.line(label, [e.cpi, e.l1_hit_rate, e.l2_hit_rate, e.mispredict_rate])
    }

    pub fn deviation(&mut self, label: &str, d: &MetricDeviation) -> &mut Canon {
        self.line(label, [d.cpi, d.l1_hit_rate, d.l2_hit_rate])
    }

    pub fn plan(&mut self, label: &str, plan: &SimulationPlan) -> &mut Canon {
        let points: Vec<(u64, u64, f64)> =
            plan.points().iter().map(|p| (p.start, p.len, p.weight)).collect();
        self.line(label, (plan.total_insts(), points))
    }

    pub fn outcome(&mut self, label: &str, out: &ExecutionOutcome) -> &mut Canon {
        self.estimate(label, &out.estimate);
        self.line(label, (out.cost.functional_insts, out.cost.detailed_insts))
    }

    pub fn digest(&self) -> String {
        digest(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLANTED: &str = "# workload variant digest\nsample-default 0 00000000deadbeef\n";

    #[test]
    fn matching_digest_passes() {
        assert_eq!(check(PLANTED, "sample-default", 0, "00000000deadbeef"), Ok(()));
    }

    #[test]
    fn planted_wrong_digest_fails() {
        let err = check(PLANTED, "sample-default", 0, "0123456789abcdef").unwrap_err();
        assert!(err.contains("differs from the golden 00000000deadbeef"), "{err}");
    }

    #[test]
    fn missing_entry_fails() {
        assert!(check(PLANTED, "sample-default", 1, "00000000deadbeef").is_err());
        assert!(check(PLANTED, "serve-mixed", 0, "00000000deadbeef").is_err());
    }

    #[test]
    fn recorded_file_covers_every_workload_and_variant() {
        for w in crate::WORKLOADS {
            for v in 0..crate::inputs::VARIANTS {
                let v = v.to_string();
                assert!(
                    GOLDEN.lines().any(|l| l.split_whitespace().take(2).eq([w, v.as_str()])),
                    "golden.txt lacks {w} variant {v}"
                );
            }
        }
    }

    #[test]
    fn digest_is_fnv1a() {
        // FNV-1a 64 reference values.
        assert_eq!(digest(""), "cbf29ce484222325");
        assert_eq!(digest("a"), "af63dc4c8601ec8c");
    }
}
