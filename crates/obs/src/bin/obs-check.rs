//! Schema checker for obs output, used by the CI obs-smoke job.
//!
//! ```text
//! obs-check [--events <events.jsonl>] [--report <RUN_REPORT.json>]
//!           [--metrics <scrape.txt> [--metrics-prev <scrape.txt>]]
//!           [--status <status.json>]
//! ```
//!
//! Each file goes through its validator in [`mlpa_obs::check`]: the
//! event stream's line-level contract, a `/metrics` scrape under the
//! strict Prometheus text checker (with `--metrics-prev`, no counter of
//! the earlier scrape may decrease or disappear), and a `/status` body
//! against `mlpa-status-v2`. `--report` applies the full run-report
//! contract: the shape checks plus completeness (the required counters
//! and at least one histogram). Any argument may be given alone. Exits
//! non-zero with a line-numbered message on the first violation.

use mlpa_obs::check::{check_complete, check_events, check_metrics, check_report, check_status};
use std::process::ExitCode;

/// The `--report` contract: shape, then completeness.
fn check_full_report(text: &str) -> Result<(), String> {
    check_report(text)?;
    check_complete(text)
}

fn main() -> ExitCode {
    let mut events: Option<String> = None;
    let mut report: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut metrics_prev: Option<String> = None;
    let mut status: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--events" => events = args.next(),
            "--report" => report = args.next(),
            "--metrics" => metrics = args.next(),
            "--metrics-prev" => metrics_prev = args.next(),
            "--status" => status = args.next(),
            other => {
                eprintln!("obs-check: unknown argument `{other}`");
                eprintln!(
                    "usage: obs-check [--events <file.jsonl>] [--report <RUN_REPORT.json>] \
                     [--metrics <scrape.txt> [--metrics-prev <scrape.txt>]] \
                     [--status <status.json>]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if events.is_none() && report.is_none() && metrics.is_none() && status.is_none() {
        eprintln!("obs-check: nothing to do (pass --events, --report, --metrics, or --status)");
        return ExitCode::FAILURE;
    }
    if metrics_prev.is_some() && metrics.is_none() {
        eprintln!("obs-check: --metrics-prev needs --metrics");
        return ExitCode::FAILURE;
    }

    let prev = match metrics_prev.as_deref().map(std::fs::read_to_string).transpose() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("obs-check: {}: {e}", metrics_prev.as_deref().unwrap_or(""));
            return ExitCode::FAILURE;
        }
    };
    // Stop at the first file that fails.
    let passed = events
        .is_none_or(|p| validate(p, |s| check_events(s).map(|n| format!("{n} events"))))
        && report.is_none_or(|p| validate(p, |s| check_full_report(s).map(|()| "report".into())))
        && metrics.is_none_or(|p| {
            validate(p, |s| {
                check_metrics(s, prev.as_deref()).map(|n| format!("{n} metric samples"))
            })
        })
        && status.is_none_or(|p| validate(p, |s| check_status(s).map(|()| "status".into())));
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Read `path`, run `check` on it and print the verdict; true if it
/// passed.
fn validate(path: String, check: impl FnOnce(&str) -> Result<String, String>) -> bool {
    match std::fs::read_to_string(&path).map_err(|e| e.to_string()).and_then(|s| check(&s)) {
        Ok(what) => {
            println!("obs-check: {path}: {what} OK");
            true
        }
        Err(e) => {
            eprintln!("obs-check: {path}: {e}");
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpa_obs::check::REQUIRED_COUNTERS;

    const START: &str = "{\"ev\":\"run_start\",\"schema\":\"mlpa-events-v3\",\"t_us\":0}\n";

    #[test]
    fn rejects_bad_event_lines() {
        assert!(check_events("").is_err());
        assert!(check_events(&format!("{START}not json\n")).is_err());
        assert!(check_events("{\"ev\":\"mystery\"}\n").is_err());
        // Missing run_end.
        assert!(check_events(START).unwrap_err().contains("run_end"));
        // First event must be run_start.
        assert!(check_events("{\"ev\":\"run_end\",\"t_us\":0}\n").is_err());
    }

    #[test]
    fn unknown_event_kinds_are_named_in_the_error() {
        // A bogus event planted mid-stream must fail with the kind
        // named and the line numbered, not be silently skipped.
        let planted = concat!(
            "{\"ev\":\"run_start\",\"schema\":\"mlpa-events-v3\",\"t_us\":0}\n",
            "{\"ev\":\"telemetry2\",\"t_us\":1}\n",
            "{\"ev\":\"run_end\",\"t_us\":9}\n",
        );
        let err = check_events(planted).unwrap_err();
        assert!(
            err.starts_with("line 2:") && err.contains("unknown event kind `telemetry2`"),
            "{err}"
        );
    }

    fn sample_line(tick: u64, insts: u64) -> String {
        format!(
            "{{\"ev\":\"sample\",\"schema\":\"mlpa-sample-v1\",\"tick\":{tick},\"t_us\":{},\
             \"rss_bytes\":1048576,\"counters\":{{\"sim.instructions\":{insts}}},\
             \"gauges\":{{\"sim.rob.occupancy\":12}},\
             \"pools\":[{{\"pool\":\"plan\",\"live\":2,\"jobs\":3,\"busy_ms\":40,\
             \"busy_frac\":1.7321}}]}}\n",
            tick * 250_000,
        )
    }

    #[test]
    fn accepts_a_complete_v3_stream_with_samples() {
        let stream = format!(
            concat!(
                "{START}",
                "{s0}",
                "{{\"ev\":\"span\",\"name\":\"a\",\"id\":1,\"parent\":null,\"tid\":0,\
                 \"t_us\":1,\"dur_us\":5}}\n",
                "{{\"ev\":\"log\",\"t_us\":2,\"tid\":0,\"level\":\"info\",\"target\":\"t\",\
                 \"msg\":\"m\"}}\n",
                "{{\"ev\":\"worker\",\"pool\":\"p\",\"index\":0,\"tid\":1,\"busy_us\":3,\
                 \"wall_us\":4,\"jobs\":1}}\n",
                "{{\"ev\":\"counters\",\"t_us\":5,\"counters\":{{\"sim.instructions\":10}}}}\n",
                "{s1}",
                "{{\"ev\":\"hist\",\"t_us\":8,\"name\":\"sim.rob.occupancy\",\"unit\":\"n\",\
                 \"count\":4,\"sum\":20,\"min\":2,\"max\":8,\"p50\":7,\"p90\":8,\"p99\":8}}\n",
                "{{\"ev\":\"run_end\",\"t_us\":9}}\n",
            ),
            START = START,
            s0 = sample_line(0, 100),
            s1 = sample_line(1, 250),
        );
        assert_eq!(check_events(&stream).unwrap(), 9);
    }

    #[test]
    fn sample_contract_is_enforced() {
        let wrap = |middle: &str| format!("{START}{middle}{{\"ev\":\"run_end\",\"t_us\":9}}\n");

        // The payload must declare the sample schema this checker knows.
        let bad_schema = sample_line(0, 100).replace("mlpa-sample-v1", "mlpa-sample-v9");
        let err = check_events(&wrap(&bad_schema)).unwrap_err();
        assert!(err.contains("unknown sample schema `mlpa-sample-v9`"), "{err}");

        // Ticks must strictly increase.
        let stuck = format!("{}{}", sample_line(3, 100), sample_line(3, 200));
        let err = check_events(&wrap(&stuck)).unwrap_err();
        assert!(err.starts_with("line 3:") && err.contains("tick"), "{err}");

        // Counter totals never decrease between samples.
        let shrinking = format!("{}{}", sample_line(0, 500), sample_line(1, 400));
        let err = check_events(&wrap(&shrinking)).unwrap_err();
        assert!(err.starts_with("line 3:") && err.contains("decreased between samples"), "{err}");
    }

    #[test]
    fn rejects_mixed_schema_streams_with_line_numbers() {
        // A span without `tid`.
        let untagged_span = format!(
            "{START}{{\"ev\":\"span\",\"name\":\"a\",\"id\":1,\"parent\":null,\"t_us\":1,\
             \"dur_us\":5}}\n{{\"ev\":\"run_end\",\"t_us\":9}}\n"
        );
        let err = check_events(&untagged_span).unwrap_err();
        assert!(err.starts_with("line 2:") && err.contains("`tid`"), "{err}");

        // A run_start that declares no schema.
        let undeclared = "{\"ev\":\"run_start\",\"t_us\":0}\n{\"ev\":\"run_end\",\"t_us\":1}\n";
        let err = check_events(undeclared).unwrap_err();
        assert!(err.starts_with("line 1:") && err.contains("no schema"), "{err}");

        // A second run in an older generation, concatenated on.
        let concatenated = format!(
            "{START}{{\"ev\":\"run_end\",\"t_us\":1}}\n\
             {{\"ev\":\"run_start\",\"schema\":\"mlpa-events-v2\",\"t_us\":0}}\n\
             {{\"ev\":\"run_end\",\"t_us\":1}}\n"
        );
        let err = check_events(&concatenated).unwrap_err();
        assert!(
            err.starts_with("line 3:") && err.contains("unknown events schema `mlpa-events-v2`"),
            "{err}"
        );

        // Unknown future schema.
        let unknown = "{\"ev\":\"run_start\",\"schema\":\"mlpa-events-v4\",\"t_us\":0}\n";
        assert!(check_events(unknown).unwrap_err().contains("unknown events schema"));
    }

    fn sample_report() -> mlpa_obs::Report {
        mlpa_obs::Report {
            wall_s: 1.0,
            phases: vec![mlpa_obs::PhaseStat {
                name: "core.profile".into(),
                count: 2,
                total_s: 0.5,
            }],
            workers: vec![mlpa_obs::WorkerStat {
                pool: "plan".into(),
                index: 0,
                busy_s: 0.4,
                wall_s: 0.5,
                jobs: 3,
                busy_fraction: 0.8,
            }],
            counters: REQUIRED_COUNTERS.iter().map(|n| (n.to_string(), 1)).collect(),
            gauges: vec![("sim.rob.occupancy".into(), 12)],
            histograms: vec![mlpa_obs::HistogramStat {
                name: "sim.rob.occupancy".into(),
                unit: "n".into(),
                count: 4,
                sum: 20,
                min: 2,
                max: 8,
                p50: 7,
                p90: 8,
                p99: 8,
            }],
            self_profile: None,
        }
    }

    #[test]
    fn report_schema_is_enforced() {
        let mut report = sample_report();
        assert!(check_full_report(&report.to_json()).is_ok());
        report.counters.remove(0);
        let err = check_full_report(&report.to_json()).unwrap_err();
        assert!(err.contains("phase.kmeans.iterations"), "{err}");
    }

    #[test]
    fn report_histograms_are_validated() {
        let mut report = sample_report();
        report.histograms.clear();
        assert!(check_full_report(&report.to_json()).unwrap_err().contains("histograms"));
        let mut report = sample_report();
        report.histograms[0].p99 = 9; // outside [min, max]
        let err = check_full_report(&report.to_json()).unwrap_err();
        assert!(err.contains("p99"), "{err}");
    }

    #[test]
    fn report_self_profile_is_validated_when_present() {
        use mlpa_obs::selfprofile::{SelfProfile, SpanAgg, SpanEdge};
        let mut report = sample_report();
        report.self_profile = Some(SelfProfile {
            spans: vec![SpanAgg {
                name: "core.profile".into(),
                calls: 2,
                total_s: 0.5,
                self_s: 0.3,
                p50_us: 100,
                p99_us: 400,
            }],
            tree: vec![SpanEdge {
                parent: None,
                name: "core.profile".into(),
                calls: 2,
                total_s: 0.5,
            }],
            ..SelfProfile::default()
        });
        assert!(
            check_full_report(&report.to_json()).is_ok(),
            "{:?}",
            check_full_report(&report.to_json())
        );
        // A span whose self time exceeds its total is inconsistent.
        report.self_profile.as_mut().unwrap().spans[0].self_s = 0.9;
        let err = check_full_report(&report.to_json()).unwrap_err();
        assert!(err.contains("self_s"), "{err}");
    }

    #[test]
    fn report_attribution_section_is_validated_when_present() {
        let report = sample_report();
        let good = "[{\"benchmark\": \"eon\", \"phases\": [{\"cluster\": 0, \"weight\": 1.0, \
                    \"cpi_err_share\": -0.01}]}]";
        let doc = report.to_json_with(&[("attribution".to_string(), good.to_string())]);
        assert!(check_full_report(&doc).is_ok(), "{:?}", check_full_report(&doc));
        let bad = "[{\"phases\": []}]";
        let doc = report.to_json_with(&[("attribution".to_string(), bad.to_string())]);
        assert!(check_full_report(&doc).unwrap_err().contains("benchmark"));
    }

    #[test]
    fn a_fully_warm_report_passes_the_shape_checks_but_not_completeness() {
        // A fully warm resume simulates nothing: only cache traffic, no
        // sim counters and no histograms. Its shape is valid; the
        // `--report` contract still asks for a complete run.
        let mut report = sample_report();
        report.counters = vec![("core.cache.hits".into(), 19), ("core.cache.misses".into(), 1)];
        report.histograms.clear();
        let doc = report.to_json();
        assert!(check_report(&doc).is_ok(), "{:?}", check_report(&doc));
        let err = check_complete(&doc).unwrap_err();
        assert!(err.contains("missing required counter"), "{err}");
        report.counters = REQUIRED_COUNTERS.iter().map(|n| (n.to_string(), 1)).collect();
        let err = check_complete(&report.to_json()).unwrap_err();
        assert!(err.contains("no histograms"), "{err}");
        assert_eq!(check_full_report(&doc), check_report(&doc).and(check_complete(&doc)));
    }

    fn scrape(insts: u64) -> String {
        format!(
            "# HELP mlpa_counter_sim_instructions_total Monotonic counter.\n\
             # TYPE mlpa_counter_sim_instructions_total counter\n\
             mlpa_counter_sim_instructions_total {insts}\n\
             # HELP mlpa_gauge_sim_rob_occupancy Last-write-wins gauge.\n\
             # TYPE mlpa_gauge_sim_rob_occupancy gauge\n\
             mlpa_gauge_sim_rob_occupancy 12\n"
        )
    }

    #[test]
    fn metrics_scrapes_must_parse_and_counters_must_grow() {
        assert_eq!(check_metrics(&scrape(100), None).unwrap(), 2);
        // Counters up or flat between scrapes: fine. Gauges may move
        // either way and are not compared.
        assert!(check_metrics(&scrape(250), Some(&scrape(100))).is_ok());
        assert!(check_metrics(&scrape(100), Some(&scrape(100))).is_ok());
        // A shrinking counter is a torn or restarted registry.
        let err = check_metrics(&scrape(100), Some(&scrape(250))).unwrap_err();
        assert!(err.contains("decreased between scrapes"), "{err}");
        // A counter missing from the later scrape is a lost series.
        let gauge_only = scrape(100).lines().skip(3).map(|l| format!("{l}\n")).collect::<String>();
        let err = check_metrics(&gauge_only, Some(&scrape(100))).unwrap_err();
        assert!(err.contains("disappeared between scrapes"), "{err}");
        // A malformed exposition is rejected outright.
        assert!(check_metrics("mlpa_counter_x_total 1\n", None).is_err());
    }

    #[test]
    fn status_body_is_validated() {
        let good = "{\"schema\":\"mlpa-status-v2\",\"phase\":\"benchmarks\",\
                    \"benchmarks_done\":1,\"benchmarks_total\":3,\"progress_permille\":420,\
                    \"uptime_ticks\":12,\"rss_bytes\":1048576,\
                    \"gauges\":{\"bench.done\":1}}";
        assert!(check_status(good).is_ok(), "{:?}", check_status(good));
        let err = check_status(&good.replace("mlpa-status-v2", "mlpa-status-v1")).unwrap_err();
        assert!(err.contains("mlpa-status-v1"), "{err}");
        let err = check_status(&good.replace("\"progress_permille\":420,", "")).unwrap_err();
        assert!(err.contains("progress_permille"), "{err}");
        let err = check_status(&good.replace(",\"uptime_ticks\":12", "")).unwrap_err();
        assert!(err.contains("uptime_ticks"), "{err}");
    }
}
