//! Simulation plans: the weighted set of trace regions a sampling
//! method decides to simulate in detail, plus the accounting that
//! determines simulation cost (the paper's Table III).

use std::fmt;

/// One region of the trace to simulate in detail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanPoint {
    /// First instruction (global index).
    pub start: u64,
    /// Length in instructions.
    pub len: u64,
    /// Weight in the whole-program estimate (weights sum to 1).
    pub weight: f64,
}

impl PlanPoint {
    /// One past the last instruction.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// An executable sampling plan for one benchmark.
///
/// Invariants (checked by [`SimulationPlan::new`]): points are sorted,
/// non-overlapping, non-empty, within the trace, and weights sum to 1.
///
/// # Example
///
/// ```
/// use mlpa_core::plan::{PlanPoint, SimulationPlan};
///
/// let plan = SimulationPlan::new(
///     vec![
///         PlanPoint { start: 0, len: 100, weight: 0.25 },
///         PlanPoint { start: 500, len: 100, weight: 0.75 },
///     ],
///     10_000,
/// )?;
/// assert_eq!(plan.detailed_insts(), 200);
/// assert_eq!(plan.functional_insts(), 400); // gap between the points
/// assert_eq!(plan.skipped_insts(), 9_400);  // tail after the last point
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationPlan {
    points: Vec<PlanPoint>,
    total_insts: u64,
}

impl SimulationPlan {
    /// Build a plan, validating every invariant.
    ///
    /// # Errors
    ///
    /// Returns a message if points are unsorted/overlapping/empty/out of
    /// range or weights do not sum to 1 (±1e-6).
    pub fn new(points: Vec<PlanPoint>, total_insts: u64) -> Result<SimulationPlan, String> {
        if points.is_empty() {
            return Err("a plan needs at least one simulation point".into());
        }
        if total_insts == 0 {
            return Err("total instruction count must be positive".into());
        }
        let mut wsum = 0.0;
        let mut prev_end = 0u64;
        for (i, p) in points.iter().enumerate() {
            if p.len == 0 {
                return Err(format!("point {i} is empty"));
            }
            if i > 0 && p.start < prev_end {
                return Err(format!(
                    "point {i} starting at {} overlaps previous ending at {prev_end}",
                    p.start
                ));
            }
            let Some(end) = p.start.checked_add(p.len) else {
                return Err(format!(
                    "point {i} (start {}, length {}) ends past the largest instruction count",
                    p.start, p.len
                ));
            };
            if end > total_insts {
                return Err(format!("point {i} ends at {end} beyond the trace ({total_insts})"));
            }
            if !(p.weight > 0.0 && p.weight.is_finite()) {
                return Err(format!("point {i} has non-positive weight {}", p.weight));
            }
            wsum += p.weight;
            prev_end = end;
        }
        if (wsum - 1.0).abs() > 1e-6 {
            return Err(format!("weights sum to {wsum}, expected 1"));
        }
        Ok(SimulationPlan { points, total_insts })
    }

    /// The points, sorted by start.
    pub fn points(&self) -> &[PlanPoint] {
        &self.points
    }

    /// Total trace length.
    pub fn total_insts(&self) -> u64 {
        self.total_insts
    }

    /// Instructions simulated in detail (Table III "Detail").
    pub fn detailed_insts(&self) -> u64 {
        self.points.iter().map(|p| p.len).sum()
    }

    /// Instructions merely fast-forwarded: everything before the last
    /// point's end that is not detailed (Table III "Functional").
    pub fn functional_insts(&self) -> u64 {
        self.last_end() - self.detailed_insts()
    }

    /// Instructions after the last point, which are never executed at
    /// all.
    pub fn skipped_insts(&self) -> u64 {
        self.total_insts - self.last_end()
    }

    /// End of the last simulation point.
    pub fn last_end(&self) -> u64 {
        self.points.last().map(|p| p.end()).unwrap_or(0)
    }

    /// Detailed fraction of the trace, in `[0, 1]`.
    pub fn detail_fraction(&self) -> f64 {
        self.detailed_insts() as f64 / self.total_insts as f64
    }

    /// Functional fraction of the trace, in `[0, 1]`.
    pub fn functional_fraction(&self) -> f64 {
        self.functional_insts() as f64 / self.total_insts as f64
    }

    /// The paper's "position of the last simulation point".
    pub fn last_position(&self) -> f64 {
        self.last_end() as f64 / self.total_insts as f64
    }

    /// Number of simulation points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the plan has no points (never true for a constructed
    /// plan; exists for API completeness).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean point length in instructions.
    pub fn mean_point_len(&self) -> f64 {
        self.detailed_insts() as f64 / self.points.len() as f64
    }
}

impl fmt::Display for SimulationPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} points, detail {:.2}%, functional {:.2}%, last at {:.1}%",
            self.points.len(),
            self.detail_fraction() * 100.0,
            self.functional_fraction() * 100.0,
            self.last_position() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts() -> Vec<PlanPoint> {
        vec![
            PlanPoint { start: 100, len: 50, weight: 0.5 },
            PlanPoint { start: 300, len: 100, weight: 0.5 },
        ]
    }

    #[test]
    fn accounting_partitions_the_trace() {
        let plan = SimulationPlan::new(pts(), 1_000).unwrap();
        assert_eq!(plan.detailed_insts(), 150);
        assert_eq!(plan.functional_insts(), 250); // 0..100 and 150..300
        assert_eq!(plan.skipped_insts(), 600);
        assert_eq!(
            plan.detailed_insts() + plan.functional_insts() + plan.skipped_insts(),
            plan.total_insts()
        );
        assert!((plan.last_position() - 0.4).abs() < 1e-12);
        assert_eq!(plan.mean_point_len(), 75.0);
    }

    #[test]
    fn rejects_overlap() {
        let bad = vec![
            PlanPoint { start: 0, len: 100, weight: 0.5 },
            PlanPoint { start: 50, len: 100, weight: 0.5 },
        ];
        assert!(SimulationPlan::new(bad, 1_000).unwrap_err().contains("overlaps"));
    }

    #[test]
    fn rejects_bad_weights() {
        let bad = vec![PlanPoint { start: 0, len: 10, weight: 0.5 }];
        assert!(SimulationPlan::new(bad, 100).unwrap_err().contains("weights sum"));
        let neg = vec![
            PlanPoint { start: 0, len: 10, weight: 1.5 },
            PlanPoint { start: 20, len: 10, weight: -0.5 },
        ];
        assert!(SimulationPlan::new(neg, 100).is_err());
    }

    #[test]
    fn rejects_out_of_range_and_empty() {
        let oor = vec![PlanPoint { start: 90, len: 20, weight: 1.0 }];
        assert!(SimulationPlan::new(oor, 100).unwrap_err().contains("beyond"));
        let empty = vec![PlanPoint { start: 0, len: 0, weight: 1.0 }];
        assert!(SimulationPlan::new(empty, 100).is_err());
        assert!(SimulationPlan::new(vec![], 100).is_err());
    }

    #[test]
    fn whole_program_plan() {
        let plan =
            SimulationPlan::new(vec![PlanPoint { start: 0, len: 100, weight: 1.0 }], 100).unwrap();
        assert_eq!(plan.detail_fraction(), 1.0);
        assert_eq!(plan.functional_insts(), 0);
        assert_eq!(plan.skipped_insts(), 0);
    }

    #[test]
    fn display_summarises() {
        let plan = SimulationPlan::new(pts(), 1_000).unwrap();
        let s = plan.to_string();
        assert!(s.contains("2 points"));
    }
}
