//! Plain-text persistence for simulation plans — the analogue of the
//! SimPoint tool's `.simpoints` / `.weights` output files, so a plan
//! computed once (profiling + clustering) can be re-executed against
//! many machine configurations without re-analysis.
//!
//! Format: a one-line header, then one `start len weight` row per
//! point, whitespace-separated. `#` starts a comment.
//!
//! ```text
//! # mlpa-plan v1 total=12345678
//! 1000 10000 0.25
//! 50000 10000 0.75
//! ```

use crate::plan::{PlanPoint, SimulationPlan};
use std::fmt::Write as _;
use std::path::Path;

/// Serialise a plan to the text format.
///
/// # Example
///
/// ```
/// use mlpa_core::files::{from_str, to_string};
/// use mlpa_core::plan::{PlanPoint, SimulationPlan};
///
/// let plan = SimulationPlan::new(
///     vec![PlanPoint { start: 0, len: 100, weight: 1.0 }], 1_000)?;
/// let text = to_string(&plan);
/// assert_eq!(from_str(&text)?, plan);
/// # Ok::<(), String>(())
/// ```
pub fn to_string(plan: &SimulationPlan) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# mlpa-plan v1 total={}", plan.total_insts());
    for p in plan.points() {
        let _ = writeln!(out, "{} {} {}", p.start, p.len, p.weight);
    }
    out
}

/// Parse a plan from the text format.
///
/// # Errors
///
/// Returns a message if the header is missing/malformed, a row does not
/// parse, or the resulting plan violates [`SimulationPlan::new`]'s
/// invariants.
pub fn from_str(text: &str) -> Result<SimulationPlan, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty plan file")?;
    let total: u64 = header
        .strip_prefix("# mlpa-plan v1 total=")
        .ok_or_else(|| format!("bad header: {header:?}"))?
        .trim()
        .parse()
        .map_err(|e| format!("bad total in header: {e}"))?;

    let mut points = Vec::new();
    for (lineno, line) in lines.enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let mut field =
            |name: &str| it.next().ok_or_else(|| format!("line {}: missing {name}", lineno + 2));
        let start: u64 =
            field("start")?.parse().map_err(|e| format!("line {}: start: {e}", lineno + 2))?;
        let len: u64 =
            field("len")?.parse().map_err(|e| format!("line {}: len: {e}", lineno + 2))?;
        let weight: f64 =
            field("weight")?.parse().map_err(|e| format!("line {}: weight: {e}", lineno + 2))?;
        if it.next().is_some() {
            return Err(format!("line {}: trailing fields", lineno + 2));
        }
        points.push(PlanPoint { start, len, weight });
    }
    SimulationPlan::new(points, total)
}

/// Write a plan to a file, crash-safely.
///
/// Uses [`crate::cache::atomic_write`] (temp file + fsync + rename), so
/// an interrupted save leaves the previous file intact instead of a
/// torn, half-parseable plan.
///
/// # Errors
///
/// Returns the I/O error message.
pub fn save(plan: &SimulationPlan, path: impl AsRef<Path>) -> Result<(), String> {
    crate::cache::atomic_write(path.as_ref(), to_string(plan).as_bytes())
}

/// Read a plan from a file.
///
/// # Errors
///
/// Returns the I/O or parse error message.
pub fn load(path: impl AsRef<Path>) -> Result<SimulationPlan, String> {
    let text = std::fs::read_to_string(path.as_ref())
        .map_err(|e| format!("reading {}: {e}", path.as_ref().display()))?;
    from_str(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> SimulationPlan {
        SimulationPlan::new(
            vec![
                PlanPoint { start: 100, len: 50, weight: 0.125 },
                PlanPoint { start: 400, len: 150, weight: 0.875 },
            ],
            10_000,
        )
        .expect("valid")
    }

    #[test]
    fn roundtrip_preserves_plan() {
        let p = plan();
        assert_eq!(from_str(&to_string(&p)).unwrap(), p);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# mlpa-plan v1 total=1000\n\n# a comment\n0 10 1.0  # inline\n";
        let p = from_str(text).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.total_insts(), 1_000);
    }

    #[test]
    fn bad_inputs_are_rejected_with_context() {
        assert!(from_str("").unwrap_err().contains("empty"));
        assert!(from_str("bogus\n").unwrap_err().contains("bad header"));
        let e = from_str("# mlpa-plan v1 total=100\n0 ten 1.0\n").unwrap_err();
        assert!(e.contains("line 2"), "{e}");
        let e = from_str("# mlpa-plan v1 total=100\n0 10\n").unwrap_err();
        assert!(e.contains("missing weight"), "{e}");
        let e = from_str("# mlpa-plan v1 total=100\n0 10 1.0 9\n").unwrap_err();
        assert!(e.contains("trailing"), "{e}");
        // Structural violations surface from SimulationPlan::new.
        let e = from_str("# mlpa-plan v1 total=100\n0 10 0.4\n").unwrap_err();
        assert!(e.contains("weights sum"), "{e}");
        // A point whose end overflows u64 is rejected, not wrapped.
        let e = from_str("# mlpa-plan v1 total=100\n18446744073709551615 2 1.0\n").unwrap_err();
        assert!(e.contains("point 0") && e.contains("18446744073709551615"), "{e}");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("mlpa-plan-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.txt");
        let p = plan();
        save(&p, &path).unwrap();
        assert_eq!(load(&path).unwrap(), p);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_rejected_with_clear_error() {
        let dir = std::env::temp_dir().join("mlpa-plan-truncated-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.txt");
        let text = to_string(&plan());
        // Simulate the torn write the atomic save prevents: every
        // prefix that loses data (anything shorter than the full file
        // minus its trailing newline) must fail to load — either a row
        // is missing fields or the weights no longer sum to 1.
        for cut in 0..text.len() - 1 {
            std::fs::write(&path, &text.as_bytes()[..cut]).unwrap();
            let err = load(&path).expect_err("truncated plan accepted");
            assert!(
                err.contains("empty")
                    || err.contains("bad header")
                    || err.contains("bad total")
                    || err.contains("missing")
                    || err.contains("weights sum")
                    || err.contains("non-positive weight")
                    || err.contains("at least one"),
                "unclear error for cut at {cut}: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_replaces_existing_file_atomically() {
        let dir = std::env::temp_dir().join("mlpa-plan-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.txt");
        std::fs::write(&path, "garbage from a previous run").unwrap();
        let p = plan();
        save(&p, &path).unwrap();
        assert_eq!(load(&path).unwrap(), p);
        // No temp droppings next to the plan.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n != "plan.txt")
            .collect();
        assert!(stray.is_empty(), "leftover temp files: {stray:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        let e = load("/definitely/not/here.plan").unwrap_err();
        assert!(e.contains("reading"), "{e}");
    }
}
