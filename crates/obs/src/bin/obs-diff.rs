//! Cross-run regression gate: diff two `RUN_REPORT.json` documents
//! with [`mlpa_obs::diff::diff`], which compares everything
//! deterministic exactly and never reads a timing.
//!
//! Usage: `obs-diff <baseline.json> <current.json>`
//!
//! Exits 0 when the runs match, 1 on any regression, 2 on usage or I/O
//! errors.

use mlpa_obs::json;
use std::process::ExitCode;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = paths.iter().find(|a| a.starts_with("--")) {
        return usage(&format!("unknown argument `{flag}`"));
    }
    if paths.len() != 2 {
        return usage("expected exactly two input files");
    }
    let mut docs = Vec::new();
    for path in &paths {
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| json::parse(&text));
        match parsed {
            Ok(v) => docs.push(v),
            Err(e) => {
                eprintln!("obs-diff: {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    match mlpa_obs::diff::diff(&docs[0], &docs[1]) {
        Err(e) => {
            eprintln!("obs-diff: {e}");
            ExitCode::from(2)
        }
        Ok(diff) => {
            for note in &diff.notes {
                println!("obs-diff: note: {note}");
            }
            if diff.failures.is_empty() {
                println!("obs-diff: {} vs {}: OK", paths[0], paths[1]);
                ExitCode::SUCCESS
            } else {
                for f in &diff.failures {
                    eprintln!("obs-diff: FAIL: {f}");
                }
                eprintln!(
                    "obs-diff: {} vs {}: {} regression(s)",
                    paths[0],
                    paths[1],
                    diff.failures.len()
                );
                ExitCode::FAILURE
            }
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("obs-diff: {msg}");
    eprintln!("usage: obs-diff <baseline.json> <current.json>");
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use mlpa_obs::diff::{diff, Diff};
    use mlpa_obs::json::{self, Value};

    fn report(counter: u64, hist_sum: u64) -> String {
        let r = mlpa_obs::Report {
            wall_s: 2.0,
            phases: vec![mlpa_obs::PhaseStat {
                name: "sim.detailed".into(),
                count: 4,
                total_s: 1.0,
            }],
            workers: vec![
                mlpa_obs::WorkerStat {
                    pool: "plan".into(),
                    index: 0,
                    busy_s: 0.5,
                    wall_s: 0.6,
                    jobs: 3,
                    busy_fraction: 0.83,
                },
                mlpa_obs::WorkerStat {
                    pool: "plan".into(),
                    index: 1,
                    busy_s: 0.4,
                    wall_s: 0.6,
                    jobs: 1,
                    busy_fraction: 0.67,
                },
            ],
            counters: vec![("sim.instructions".into(), counter)],
            gauges: vec![("sim.rob.occupancy".into(), 12)],
            histograms: vec![mlpa_obs::HistogramStat {
                name: "sim.rob.occupancy".into(),
                unit: "n".into(),
                count: 8,
                sum: hist_sum,
                min: 1,
                max: 16,
                p50: 7,
                p90: 15,
                p99: 16,
            }],
            self_profile: Some(mlpa_obs::selfprofile::SelfProfile {
                spans: vec![mlpa_obs::selfprofile::SpanAgg {
                    name: "sim.detailed".into(),
                    calls: 4,
                    total_s: 1.0,
                    self_s: 1.0,
                    p50_us: 100,
                    p99_us: 900,
                }],
                tree: vec![mlpa_obs::selfprofile::SpanEdge {
                    parent: None,
                    name: "sim.detailed".into(),
                    calls: 4,
                    total_s: 1.0,
                }],
                ..mlpa_obs::selfprofile::SelfProfile::default()
            }),
        };
        r.to_json()
    }

    fn run(base: &str, cur: &str) -> Diff {
        diff(&json::parse(base).unwrap(), &json::parse(cur).unwrap()).unwrap()
    }

    #[test]
    fn identical_reports_pass() {
        let d = run(&report(100, 40), &report(100, 40));
        assert!(d.failures.is_empty(), "{:?}", d.failures);
    }

    #[test]
    fn perturbed_counter_fails() {
        let d = run(&report(100, 40), &report(101, 40));
        assert!(d.failures.iter().any(|f| f.contains("sim.instructions")), "{:?}", d.failures);
    }

    #[test]
    fn value_histogram_contents_are_gated() {
        let d = run(&report(100, 40), &report(100, 41));
        assert!(d.failures.iter().any(|f| f.contains("sim.rob.occupancy")), "{:?}", d.failures);
    }

    #[test]
    fn missing_metric_fails_and_new_metric_notes() {
        let two = report(100, 40);
        let one = two.replacen(
            "{\"name\": \"sim.instructions\", \"value\": 100}",
            "{\"name\": \"sim.instructions\", \"value\": 100}, \
             {\"name\": \"sim.cycles\", \"value\": 7}",
            1,
        );
        // Baseline has the extra counter, current doesn't: fail.
        let d = run(&one, &two);
        assert!(d.failures.iter().any(|f| f.contains("sim.cycles")), "{:?}", d.failures);
        // Current has the extra counter: pass with a note.
        let d = run(&two, &one);
        assert!(d.failures.is_empty(), "{:?}", d.failures);
        assert!(d.notes.iter().any(|n| n.contains("sim.cycles")), "{:?}", d.notes);
    }

    #[test]
    fn timing_is_ignored() {
        let slow = report(100, 40).replace("\"wall_s\": 2.000000", "\"wall_s\": 9.000000");
        assert_ne!(slow, report(100, 40));
        let d = run(&report(100, 40), &slow);
        assert!(d.failures.is_empty(), "{:?}", d.failures);
        let d = run(&slow, &report(100, 40));
        assert!(d.failures.is_empty(), "{:?}", d.failures);
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let v2 = report(100, 40).replacen("mlpa-run-report-v3", "mlpa-run-report-v2", 1);
        let err = |base: &str, cur: &str| {
            diff(&json::parse(base).unwrap(), &json::parse(cur).unwrap()).unwrap_err()
        };
        assert!(err(&v2, &report(100, 40)).contains("schema mismatch"));
        // Two reports of an older generation agree with each other but
        // are still not diffed.
        assert!(err(&v2, &v2).contains("unsupported schema `mlpa-run-report-v2`"));
    }

    #[test]
    fn attribution_drift_is_gated() {
        let attr = |share: f64| {
            format!(
                "[{{\"benchmark\": \"eon\", \"phases\": [{{\"cluster\": 0, \"weight\": 1.0, \
                 \"cpi_err_share\": {share}}}]}}]"
            )
        };
        let with_attr = |share: f64| {
            report(100, 40).replacen(
                "\"histograms\":",
                &format!("\"attribution\": {}, \"histograms\":", attr(share)),
                1,
            )
        };
        let d = run(&with_attr(0.5), &with_attr(0.5));
        assert!(d.failures.is_empty(), "{:?}", d.failures);
        let d = run(&with_attr(0.5), &with_attr(0.6));
        assert!(d.failures.iter().any(|f| f.contains("cpi_err_share")), "{:?}", d.failures);
        // Attribution missing from the current run is a failure.
        let d = run(&with_attr(0.5), &report(100, 40));
        assert!(d.failures.iter().any(|f| f.contains("attribution")), "{:?}", d.failures);
    }

    #[test]
    fn histograms_and_gauges_are_required_sections() {
        let full = json::parse(&report(100, 40)).unwrap();
        for section in ["histograms", "gauges"] {
            let mut cut = full.clone();
            if let Value::Obj(fields) = &mut cut {
                fields.remove(section);
            }
            let err = diff(&full, &cut).unwrap_err();
            assert!(err.contains(&format!("`{section}`")), "{err}");
        }
    }

    #[test]
    fn gauge_names_are_gated_but_values_are_not() {
        // A gauge value is whatever was last written: drift passes.
        let moved = report(100, 40).replacen(
            "{\"name\": \"sim.rob.occupancy\", \"value\": 12}",
            "{\"name\": \"sim.rob.occupancy\", \"value\": 97}",
            1,
        );
        let d = run(&report(100, 40), &moved);
        assert!(d.failures.is_empty(), "{:?}", d.failures);
        // A gauge disappearing means instrumentation was lost: fail.
        let gone = report(100, 40).replacen(
            "{\"name\": \"sim.rob.occupancy\", \"value\": 12}",
            "{\"name\": \"sim.lsq.occupancy\", \"value\": 12}",
            1,
        );
        let d = run(&report(100, 40), &gone);
        assert!(
            d.failures.iter().any(|f| f.contains("gauge `sim.rob.occupancy`")),
            "{:?}",
            d.failures
        );
        assert!(d.notes.iter().any(|n| n.contains("sim.lsq.occupancy")), "{:?}", d.notes);
    }

    #[test]
    fn self_profile_structure_is_gated_but_timing_is_not() {
        // Wall-time drift in the profile passes.
        let slower = report(100, 40).replace("\"self_s\": 1.000000", "\"self_s\": 0.250000");
        let d = run(&report(100, 40), &slower);
        assert!(d.failures.is_empty(), "{:?}", d.failures);
        // A changed call count is a structural regression.
        let fewer =
            report(100, 40).replace("\"calls\": 4, \"total_s\"", "\"calls\": 3, \"total_s\"");
        let d = run(&report(100, 40), &fewer);
        assert!(
            d.failures.iter().any(|f| f.contains("self_profile") && f.contains("calls")),
            "{:?}",
            d.failures
        );
        // A re-parented edge is a structural regression too.
        let reparented = report(100, 40).replace(
            "{\"parent\": null, \"name\": \"sim.detailed\"",
            "{\"parent\": \"core.profile\", \"name\": \"sim.detailed\"",
        );
        let d = run(&report(100, 40), &reparented);
        assert!(d.failures.iter().any(|f| f.contains("self_profile edge")), "{:?}", d.failures);
    }
}
