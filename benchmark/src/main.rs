//! `mlpa-benchmark`: end-to-end benchmark of the mlpa reproduction.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <reproduce-quick|sample-default|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs rounds of identical work for `--seconds`, each after its own
//! timed set-up, checks every round's output against `golden.txt`, and
//! prints each metric by name and unit with its quartiles and sample
//! count. The last line of standard output is the JSON result. With
//! `--trace 1`, traced rounds alternate with untraced ones; the result
//! then carries the per-layer metrics, and the spans are written to
//! `benchmark/out/`. Exits 0 when every output was correct, 1 when one
//! was not, 2 on bad arguments or a failed set-up. See `README.md`.

mod golden;
mod inputs;
mod probe;
mod reproduce;
mod sample;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["reproduce-quick", "sample-default", "serve-mixed"];

/// End-to-end metrics, reported on every workload (`--trace 0`).
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("minst_per_s", "Minst/s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics, reported on every workload (`--trace 1`): the
/// layers all three workloads call. Layers only one workload calls
/// (ground truth, HTTP, the serve queue) appear in the printed table.
pub const PER_LAYER: [(&str, &str); 20] = [
    ("compile.s", "s"),
    ("profile.s", "s"),
    ("profile.share", "fraction"),
    ("select_fine.s", "s"),
    ("select_fine.share", "fraction"),
    ("select_fine.us_per_interval", "us"),
    ("select_coasts.s", "s"),
    ("select_coasts.share", "fraction"),
    ("select_multilevel.s", "s"),
    ("select_multilevel.share", "fraction"),
    ("plan.s", "s"),
    ("plan.share", "fraction"),
    ("plan.simpoint.s", "s"),
    ("plan.coasts.s", "s"),
    ("plan.multilevel.s", "s"),
    ("plan.ns_per_inst", "ns"),
    ("plan.functional_minst", "Minst"),
    ("plan.detailed_minst", "Minst"),
    ("layers.cover", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// Span names of plan execution, in `Method::ALL` order.
pub const PLAN_SPANS: [&str; 3] = ["plan.simpoint", "plan.coasts", "plan.multilevel"];

/// Spans that time one call into a layer, below each `pipeline` root.
const LAYER_SPANS: [&str; 10] = [
    "compile",
    "profile",
    "select_fine",
    "select_coasts",
    "select_multilevel",
    "plan.simpoint",
    "plan.coasts",
    "plan.multilevel",
    "truth",
    "attribution",
];

/// One round's result.
#[derive(Debug)]
pub struct Round {
    /// Wall time of the timed part of the round.
    pub secs: f64,
    /// Trace instructions the round analysed, in millions.
    pub minst: f64,
    /// Digest of the round's outputs (see `golden.rs`).
    pub digest: String,
    /// Operations attempted and failed: rounds, or serve requests.
    pub attempted: u64,
    pub failed: u64,
    /// Named timing samples for the report, e.g. request latencies.
    pub samples: Vec<(&'static str, f64)>,
    /// Deterministic quality figures, identical in every round.
    pub quality: Vec<(&'static str, f64)>,
}

/// A workload, set up for one round: everything before the timed part
/// (inputs, compilation, trace lengths, daemon start) is done. Every
/// round does identical work, under `tracer` (which records nothing
/// when disabled).
pub trait Workload {
    fn round(self: Box<Self>, tracer: &mut Tracer) -> Result<Round, String>;
}

/// Where traces and serve stores go: inside the benchmark's directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args { workload: "", seed: 1, seconds: 40.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                out.workload = WORKLOADS
                    .into_iter()
                    .find(|w| w == value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
            }
            "--seed" => out.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.workload.is_empty() {
        return Err(format!("--workload is required ({})", WORKLOADS.join(" | ")));
    }
    Ok(out)
}

/// Threads a workload keeps busy: the daemon's workers for serve, the
/// calling thread otherwise.
fn busy_threads(workload: &str) -> usize {
    if workload == "serve-mixed" {
        serve::WORKERS
    } else {
        1
    }
}

fn setup(workload: &str, variant: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "reproduce-quick" => Box::new(reproduce::setup(variant)?),
        "sample-default" => Box::new(sample::setup(variant)?),
        _ => Box::new(serve::setup(variant)?),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mlpa-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mlpa-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// One pass of the run loop: a probe, a set-up, a round.
struct Pass {
    traced: bool,
    /// Host speed against the reference host (1 = reference, below 1 =
    /// slower), from the probe run just before the set-up.
    speed: f64,
    setup_s: f64,
    round: Round,
}

/// Run the benchmark; `Ok(false)` when an output was wrong.
fn run(args: &Args) -> Result<bool, String> {
    let variant = inputs::variant(args.seed);
    let mut traced = Tracer::new(true);
    let mut untraced = Tracer::new(false);
    let mut passes: Vec<Pass> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors: Vec<String> = Vec::new();
    // Wall seconds of earlier passes, untraced and traced apart.
    let mut spent: [Vec<f64>; 2] = Default::default();
    let start = Instant::now();
    for i in 0.. {
        // With tracing, odd rounds are traced: at least one of each.
        let is_traced = args.trace && i % 2 == 1;
        let kind = usize::from(is_traced);
        // Start a pass only if a typical one still ends within the run.
        let typical = if spent[kind].is_empty() { 0.0 } else { stats::median(&spent[kind]) };
        if i > usize::from(args.trace) && start.elapsed().as_secs_f64() + typical > args.seconds {
            break;
        }
        let pass0 = Instant::now();
        let speed = probe::REFERENCE_S / probe::measure(busy_threads(args.workload));
        // Every round gets its own set-up, so set-up times are sampled
        // across the whole run like the rounds are.
        let t0 = Instant::now();
        let work = setup(args.workload, variant)?;
        let setup_s = t0.elapsed().as_secs_f64();
        traced.set_round(i);
        let tracer = if is_traced { &mut traced } else { &mut untraced };
        match work.round(tracer) {
            Ok(round) => {
                attempted += round.attempted;
                failed += round.failed;
                if let Err(e) = golden::check(golden::GOLDEN, args.workload, variant, &round.digest)
                {
                    failed += round.attempted - round.failed;
                    errors.push(format!("round {i}: {e}"));
                }
                passes.push(Pass { traced: is_traced, speed, setup_s, round });
            }
            Err(e) => {
                attempted += 1;
                failed += 1;
                errors.push(format!("round {i}: {e}"));
            }
        }
        spent[kind].push(pass0.elapsed().as_secs_f64());
    }
    let peak_rss_mb = mlpa_obs::peak_rss_bytes().ok_or("no VmHWM in /proc/self/status")? as f64
        / f64::from(1 << 20);

    println!(
        "workload {} seed {} (input variant {variant}), {} rounds in {:.1} s",
        args.workload,
        args.seed,
        passes.len(),
        start.elapsed().as_secs_f64()
    );
    for e in errors.iter().take(5) {
        println!("FAILED {e}");
    }
    for (i, p) in passes.iter().enumerate() {
        println!(
            "pass {i}: host speed {:.4}, set-up {:.4} s, round {:.4} s{}",
            p.speed,
            p.setup_s,
            p.round.secs,
            if p.traced { " (traced)" } else { "" }
        );
    }
    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    if plain.is_empty() {
        return Err(errors.join("; "));
    }
    let col = |f: &dyn Fn(&Pass) -> f64| plain.iter().map(|p| f(p)).collect::<Vec<f64>>();
    let secs = col(&|p| p.round.secs);
    // Timed metrics at the reference host's speed (see probe.rs).
    let setup_s: Vec<f64> = passes.iter().map(|p| p.setup_s * p.speed).collect();
    let minst_per_s = col(&|p| p.round.minst / p.round.secs / p.speed);
    println!("{}", stats::describe("host_speed", &col(&|p| p.speed), "x reference"));
    println!("{}", stats::describe("setup_s", &setup_s, "s at reference speed"));
    println!("{}", stats::describe("minst_per_s", &minst_per_s, "Minst/s at reference speed"));
    println!("{}", stats::describe("round_s", &secs, "s as measured"));
    println!(
        "{}",
        stats::describe(
            "minst_per_s",
            &col(&|p| p.round.minst / p.round.secs),
            "Minst/s as measured"
        )
    );
    println!("peak_rss_mb {peak_rss_mb:.3} MiB  (VmHWM of this process; n=1)");
    for (name, value) in &plain[0].round.quality {
        println!("{name} {value:.6}  (deterministic; n={})", plain.len());
    }
    report_samples(&passes.iter().map(|p| &p.round).collect::<Vec<_>>());
    println!(
        "failed_frac {:.6} fraction  ({failed} of {attempted} operations failed)",
        failed as f64 / attempted as f64
    );
    println!(
        "digest {} ({})",
        plain[0].round.digest,
        if errors.is_empty() { "matches golden.txt" } else { "see failures" }
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let at_reference = |traced: bool| -> Vec<f64> {
            passes.iter().filter(|p| p.traced == traced).map(|p| p.round.secs * p.speed).collect()
        };
        let traced_secs = at_reference(true);
        if traced_secs.is_empty() {
            return Err(format!("no traced round completed: {}", errors.join("; ")));
        }
        let overhead = stats::median(&traced_secs) / stats::median(&at_reference(false)) - 1.0;
        let layers = per_layer(&traced, overhead)?;
        let path = out_dir().join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, traced.to_json(args.workload, args.seed)))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        PER_LAYER.iter().map(|&(n, u)| (n, layers[n], u)).collect()
    } else {
        let values = [stats::median(&setup_s), stats::median(&minst_per_s), peak_rss_mb];
        END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect()
    };
    let correct = errors.is_empty() && failed == 0;
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// Print the per-request latency samples a workload recorded: the
/// median of per-round medians, then pooled tail percentiles where
/// enough samples lie beyond them.
fn report_samples(rounds: &[&Round]) {
    let mut names: Vec<&str> = rounds.iter().flat_map(|r| r.samples.iter().map(|s| s.0)).collect();
    names.sort_unstable();
    names.dedup();
    let mut p50 = BTreeMap::new();
    for name in names {
        let per_round: Vec<Vec<f64>> = rounds
            .iter()
            .map(|r| r.samples.iter().filter(|s| s.0 == name).map(|s| s.1).collect())
            .filter(|v: &Vec<f64>| !v.is_empty())
            .collect();
        let medians: Vec<f64> = per_round.iter().map(|v| stats::median(v)).collect();
        let pooled: Vec<f64> = per_round.concat();
        let mut line = stats::describe(&format!("{name}.p50"), &medians, "ms");
        line.push_str(&format!("; {} samples", pooled.len()));
        for p in [90.0, 99.0] {
            match stats::percentile(&pooled, p) {
                Some(v) => line.push_str(&format!("; p{p} {v:.3}")),
                None => line.push_str(&format!("; p{p} withheld (<{} beyond)", stats::MIN_BEYOND)),
            }
        }
        println!("{line}");
        p50.insert(name, stats::median(&medians));
    }
    if let (Some(miss), Some(analyze)) = (p50.get("serve.miss_ms"), p50.get("serve.analyze_ms")) {
        println!(
            "serve.overhead_p50_ms {:.3} ms  (miss p50 minus the p50 of the same analyses \
             replayed in-process)",
            miss - analyze
        );
    }
}

/// The per-layer metrics: each is the median over traced rounds. Prints
/// the full layer table, including layers only this workload calls.
fn per_layer(t: &Tracer, overhead: f64) -> Result<BTreeMap<&'static str, f64>, String> {
    let spans = t.spans();
    let selfs = trace::self_by_name(spans);
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (round, by_name) in &selfs {
        let root = spans
            .iter()
            .find(|s| s.round == *round && s.parent.is_none() && s.name == "pipeline")
            .ok_or("a traced round has no pipeline span")?;
        let total = root.end - root.start;
        let get = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
        let count = |name: &str| t.counter(*round, name);
        let plan: f64 = PLAN_SPANS.iter().map(|n| get(n)).sum();
        let insts = count("plan.functional_insts") + count("plan.detailed_insts");
        let covered: f64 = LAYER_SPANS.iter().map(|n| get(n)).sum();
        let row = [
            ("compile.s", get("compile")),
            ("profile.s", get("profile")),
            ("profile.share", get("profile") / total),
            ("select_fine.s", get("select_fine")),
            ("select_fine.share", get("select_fine") / total),
            ("select_fine.us_per_interval", get("select_fine") * 1e6 / count("fine.intervals")),
            ("select_coasts.s", get("select_coasts")),
            ("select_coasts.share", get("select_coasts") / total),
            ("select_multilevel.s", get("select_multilevel")),
            ("select_multilevel.share", get("select_multilevel") / total),
            ("plan.s", plan),
            ("plan.share", plan / total),
            ("plan.simpoint.s", get("plan.simpoint")),
            ("plan.coasts.s", get("plan.coasts")),
            ("plan.multilevel.s", get("plan.multilevel")),
            ("plan.ns_per_inst", plan * 1e9 / insts),
            ("plan.functional_minst", count("plan.functional_insts") / 1e6),
            ("plan.detailed_minst", count("plan.detailed_insts") / 1e6),
            ("layers.cover", covered / total),
            ("trace.overhead_frac", overhead),
        ];
        for (name, v) in row {
            values.entry(name).or_default().push(v);
        }
    }

    println!("spans, medians over {} traced rounds:", selfs.len());
    println!(
        "  {:<20} {:<9} {:>7} {:>12} {:>10} {:>8}",
        "span", "root", "calls", "ms/call", "self s", "share"
    );
    for r in trace::layer_table(spans) {
        println!(
            "  {:<20} {:<9} {:>7.0} {:>12.3} {:>10.4} {:>8.4}",
            r.name,
            r.root,
            r.calls,
            r.call_p50_s * 1e3,
            r.self_s,
            r.share
        );
    }
    for name in ["truth.insts", "serve.polls", "cache.entries", "cache.store_bytes"] {
        let v: Vec<f64> = selfs.keys().map(|r| t.counter(*r, name)).collect();
        if v.iter().any(|&x| x > 0.0) {
            println!("  counter {name:<20} {:>14.1} per round", stats::median(&v));
        }
    }
    let out: BTreeMap<&'static str, f64> =
        values.into_iter().map(|(n, v)| (n, stats::median(&v))).collect();
    for &(name, unit) in &PER_LAYER {
        println!("{name} {:.6} {unit}", out[name]);
    }
    Ok(out)
}

/// The JSON result line: correctness, operation counts, and each metric
/// with its unit.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpa_obs::json::{self, Value};

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        assert_eq!(
            args("--workload serve-mixed --seed 7 --seconds 20 --trace 1"),
            Ok(Args { workload: "serve-mixed", seed: 7, seconds: 20.0, trace: true })
        );
        assert!(args("--seed 1").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload sample-default --trace 2").is_err());
        assert!(args("--workload sample-default --seconds 0").is_err());
        assert!(args("--workload sample-default --seed").is_err());
    }

    /// Every metric `BENCHMARK.json` names is emitted, with its unit.
    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let spec = json::parse(text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);

        let line = result_json(
            true,
            3,
            0,
            &END_TO_END.iter().map(|&(n, u)| (n, 1.5, u)).collect::<Vec<_>>(),
        );
        let v = json::parse(&line).expect("result line parses");
        for (name, unit) in END_TO_END {
            let m = v.get("metrics").and_then(|m| m.get(name)).expect(name);
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
            assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.5));
        }
    }
}
