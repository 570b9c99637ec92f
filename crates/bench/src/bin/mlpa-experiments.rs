//! `mlpa-experiments` — regenerate every table and figure of the paper,
//! plus the ablation and extension tables of [`mlpa_bench::ablation`].
//!
//! `USAGE` below is the command-line reference (`--help` prints it).

use mlpa_bench::{ablation, fig1, harness, report};
use mlpa_core::prelude::*;
use mlpa_obs::{elog, info, progress, vlog};
use mlpa_sim::MachineConfig;
use mlpa_workloads::{suite, CompiledBenchmark, Suite};
use std::fs;
use std::path::PathBuf;

/// The `--help` text. `{commands}` expands to [`COMMANDS`] and
/// `{tables}` to the ablation table names, so the help lists exactly
/// what the parser accepts.
const USAGE: &str = "\
mlpa-experiments [OPTIONS] [COMMANDS...]

COMMANDS (default: all)
{commands}
ABLATION TABLES (each is also a command that writes <out>/<name>.txt;
every table pins its own reduced-size program, so --quick, --select,
--iters, --scale, --cold, --jobs, --ratio, --measured-ratio and
--cache do not apply to them)
{tables}
OPTIONS
  --quick           reduced suite (2x iterations, 0.5x sizes)
  --select a,b,c    only the named benchmarks
  --iters N         iteration factor (default 8; gcc unaffected)
  --scale F         size scale factor (default 1.0)
  --cold            cold fast-forward (no warming) — scale-amplified
  --jobs N          worker threads for the suite run (default 0 = all
                    cores); results are bit-identical for every N
  --ratio R         cost-model ratio c_d/c_f (default: paper 32.5)
  --measured-ratio  also report speedups at the measured ratio
  --out DIR         output directory (default: results)
  --cache DIR       record pipeline artifacts (profiles, selections,
                    ground truths, plan executions) into a crash-safe
                    content-addressed store at DIR
  --resume          with --cache: also *reuse* stored artifacts, so a
                    repeated or interrupted run skips completed work;
                    results are bit-identical to an uncached run
  --quiet           errors only on stderr (tables still print)
  --verbose         extra per-step detail on stderr
  --progress        per-benchmark progress lines even under --quiet
  --obs PATH        stream JSONL observability events to PATH and
                    write <out>/RUN_REPORT.json
  --telemetry-ms N  background sampler interval for `sample` events
                    in the --obs stream (default 250; 0 disables the
                    sampler; only meaningful with --obs)
  --status-port N   serve live HTTP GET /metrics (Prometheus text)
                    and GET /status (JSON) on 127.0.0.1:N while the
                    run executes; 0 picks an ephemeral port. The
                    bound address is printed to stderr as
                    `status server listening on 127.0.0.1:PORT`
";

/// Every command but the ablation tables, with its `--help` line.
const COMMANDS: [(&str, &str); 10] = [
    ("configs", "print Table I (both machine configurations)"),
    ("fig1", "Fig. 1 phase curves for lucas (CSV + ASCII)"),
    ("fig3", "Fig. 3 COASTS speedup over SimPoint"),
    ("fig4", "Fig. 4 multi-level speedup over SimPoint"),
    ("table2", "Table II deviation comparison"),
    ("table3", "Table III simulation-point statistics"),
    ("motivation", "§III-B coarse-phase statistics"),
    ("accuracy", "per-coarse-phase error attribution (COASTS, Config A)"),
    ("ablations", "every table under ABLATION TABLES"),
    ("all", "every command above, ablation tables included"),
];

/// Every command name the parser accepts.
fn command_names() -> impl Iterator<Item = &'static str> {
    COMMANDS.iter().map(|&(name, _)| name).chain(ablation::TABLES.iter().map(|&(name, _)| name))
}

/// [`USAGE`] with its command lists filled in.
fn usage() -> String {
    let commands: String =
        COMMANDS.iter().map(|(name, about)| format!("  {name:<12} {about}\n")).collect();
    let tables: String = ablation::TABLES.iter().map(|(name, _)| format!("  {name}\n")).collect();
    USAGE.replace("{commands}", &commands).replace("{tables}", &tables)
}

struct Options {
    commands: Vec<String>,
    quick: bool,
    select: Vec<String>,
    iters: usize,
    scale: f64,
    cold: bool,
    jobs: usize,
    ratio: f64,
    measured_ratio: bool,
    out: PathBuf,
    cache: Option<PathBuf>,
    resume: bool,
    quiet: bool,
    verbose: bool,
    progress: bool,
    obs: Option<PathBuf>,
    telemetry_ms: u64,
    status_port: Option<u16>,
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        commands: Vec::new(),
        quick: false,
        select: Vec::new(),
        iters: suite::DEFAULT_ITER_FACTOR,
        scale: 1.0,
        cold: false,
        jobs: 0,
        ratio: 32.5,
        measured_ratio: false,
        out: PathBuf::from("results"),
        cache: None,
        resume: false,
        quiet: false,
        verbose: false,
        progress: false,
        obs: None,
        telemetry_ms: mlpa_obs::DEFAULT_SAMPLE_MS,
        status_port: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => o.quick = true,
            "--cold" => o.cold = true,
            "--measured-ratio" => o.measured_ratio = true,
            "--quiet" => o.quiet = true,
            "--verbose" => o.verbose = true,
            "--progress" => o.progress = true,
            "--obs" => o.obs = Some(PathBuf::from(args.next().ok_or("--obs needs a value")?)),
            "--telemetry-ms" => {
                o.telemetry_ms = args
                    .next()
                    .ok_or("--telemetry-ms needs a value")?
                    .parse()
                    .map_err(|e| format!("--telemetry-ms: {e}"))?;
            }
            "--status-port" => {
                o.status_port = Some(
                    args.next()
                        .ok_or("--status-port needs a value")?
                        .parse()
                        .map_err(|e| format!("--status-port: {e}"))?,
                );
            }
            "--select" => {
                let v = args.next().ok_or("--select needs a value")?;
                o.select = v.split(',').map(str::to_owned).collect();
            }
            "--jobs" => {
                o.jobs = args
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
            }
            "--iters" => {
                o.iters = args
                    .next()
                    .ok_or("--iters needs a value")?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?;
            }
            "--scale" => {
                o.scale = args
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?;
            }
            "--ratio" => {
                o.ratio = args
                    .next()
                    .ok_or("--ratio needs a value")?
                    .parse()
                    .map_err(|e| format!("--ratio: {e}"))?;
            }
            "--out" => o.out = PathBuf::from(args.next().ok_or("--out needs a value")?),
            "--cache" => o.cache = Some(PathBuf::from(args.next().ok_or("--cache needs a value")?)),
            "--resume" => o.resume = true,
            "--help" | "-h" => {
                print!("{}", usage());
                std::process::exit(0);
            }
            cmd if !cmd.starts_with('-') => {
                if !command_names().any(|c| c == cmd) {
                    return Err(format!(
                        "unknown command `{cmd}` (expected one of: {})",
                        command_names().collect::<Vec<_>>().join(", ")
                    ));
                }
                o.commands.push(cmd.to_owned());
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if o.quiet && o.verbose {
        return Err("--quiet and --verbose are mutually exclusive".into());
    }
    if o.resume && o.cache.is_none() {
        return Err("--resume needs --cache DIR (there is nothing to resume from)".into());
    }
    if o.commands.is_empty() {
        o.commands.push("all".into());
    }
    Ok(o)
}

fn build_suite(o: &Options) -> Suite {
    let (iters, scale) = if o.quick { (2, 0.5) } else { (o.iters, o.scale) };
    let mut s: Suite = suite::SPEC2000_NAMES
        .iter()
        .map(|n| {
            let spec = suite::benchmark_with_iters(n, iters).expect("known name");
            if (scale - 1.0).abs() > 1e-12 {
                spec.scaled(scale)
            } else {
                spec
            }
        })
        .collect();
    if !o.select.is_empty() {
        let names: Vec<&str> = o.select.iter().map(String::as_str).collect();
        s = s.select(&names);
    }
    s
}

fn main() {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            elog!("error", "{e}");
            std::process::exit(2);
        }
    };
    mlpa_obs::set_verbosity(if o.quiet {
        mlpa_obs::Verbosity::Quiet
    } else if o.verbose {
        mlpa_obs::Verbosity::Verbose
    } else {
        mlpa_obs::Verbosity::Normal
    });
    mlpa_obs::set_force_progress(o.progress);
    if o.obs.is_some() || o.status_port.is_some() {
        let cfg = mlpa_obs::ObsConfig {
            enabled: true,
            sink: o.obs.clone(),
            sample_ms: (o.telemetry_ms > 0).then_some(o.telemetry_ms),
        };
        if let Err(e) = mlpa_obs::init(&cfg) {
            elog!("error", "opening obs sink: {e}");
            std::process::exit(2);
        }
    }
    if let Some(port) = o.status_port {
        match mlpa_obs::telemetry::serve_status(port) {
            // elog! so the bound address survives --quiet: CI parses
            // this line to find the ephemeral port.
            Ok(addr) => elog!("obs", "status server listening on {addr}"),
            Err(e) => {
                elog!("error", "--status-port {port}: {e}");
                std::process::exit(2);
            }
        }
    }
    let outcome = run(&o);
    mlpa_obs::telemetry::stop_status_server();
    if let Err(e) = outcome {
        elog!("error", "{e}");
        std::process::exit(1);
    }
}

fn run(o: &Options) -> Result<(), String> {
    mlpa_obs::telemetry::set_run_phase("setup");
    fs::create_dir_all(&o.out).map_err(|e| format!("creating {}: {e}", o.out.display()))?;
    let wants =
        |c: &str| o.commands.iter().any(|x| x == c) || o.commands.iter().any(|x| x == "all");
    let mut emitted: Vec<(String, String)> = Vec::new();
    fn print_and_keep(emitted: &mut Vec<(String, String)>, name: &str, text: String) {
        println!("{text}");
        emitted.push((name.to_owned(), text));
    }

    if wants("configs") {
        let mut t = String::from("Table I: CONFIGURATIONS\n");
        t.push_str(&format!("Part A (base):        {}\n", MachineConfig::table1_base()));
        t.push_str(&format!("Part B (sensitivity): {}\n", MachineConfig::table1_sensitivity()));
        print_and_keep(&mut emitted, "table1_configs.txt", t);
    }

    if wants("fig1") {
        let spec = build_suite(o)
            .get("lucas")
            .cloned()
            .ok_or("fig1 needs lucas in the suite (check --select)")?;
        info!("fig1", "computing phase curves for lucas...");
        let data = fig1::fig1(&spec)?;
        let mut t = String::from("Figure 1: PC1 of BBV signatures, lucas\n");
        t.push_str("(a) fine-grained (10k) intervals:\n");
        t.push_str(&fig1::to_ascii(&data.fine, 100, 14));
        t.push_str("(b) coarse-grained (outer-iteration) intervals:\n");
        t.push_str(&fig1::to_ascii(&data.coarse, 100, 14));
        print_and_keep(&mut emitted, "fig1_lucas.txt", t);
        emitted.push(("fig1_lucas.csv".into(), fig1::to_csv(&data)));
    }

    let need_suite_run =
        ["fig3", "fig4", "table2", "table3", "motivation", "accuracy"].iter().any(|c| wants(c));
    let mut attribution_json: Option<String> = None;
    if need_suite_run {
        let suite = build_suite(o);
        if suite.is_empty() {
            return Err(format!("--select {} matched no benchmarks", o.select.join(",")));
        }
        let cache = match &o.cache {
            Some(dir) => {
                let mut c = mlpa_core::ArtifactCache::open(dir)?;
                c.set_reuse(o.resume);
                info!(
                    "cache",
                    "artifact cache at {} ({})",
                    dir.display(),
                    if o.resume { "resume: reusing stored artifacts" } else { "record only" }
                );
                Some(std::sync::Arc::new(c))
            }
            None => None,
        };
        let exp = harness::Experiment {
            suite,
            warmup: if o.cold { WarmupMode::Cold } else { WarmupMode::Warmed },
            jobs: o.jobs,
            cache: cache.clone(),
            ..harness::Experiment::default()
        };
        info!(
            "suite",
            "running {} benchmarks x 3 methods x 2 configs on {} worker(s)...",
            exp.suite.len(),
            exp.workers(),
        );
        mlpa_obs::telemetry::set_run_phase("benchmarks");
        let results = exp.run(|r| {
            progress!(
                "suite",
                "  {:>9}: {:>4.0}M insts, {:>5.1}s",
                r.name,
                r.total_insts as f64 / 1e6,
                r.elapsed
            );
        })?;
        mlpa_obs::telemetry::set_run_phase("report");
        vlog!("suite", "all benchmarks complete; building reports");
        if cache.is_some() && mlpa_obs::is_enabled() {
            info!(
                "cache",
                "artifact cache: {} hits, {} misses, {} stores, {} verify failures",
                mlpa_obs::counter_value("core.cache.hits"),
                mlpa_obs::counter_value("core.cache.misses"),
                mlpa_obs::counter_value("core.cache.stores"),
                mlpa_obs::counter_value("core.cache.verify_failures"),
            );
        }

        let mut models = vec![("paper-implied".to_owned(), CostModel::from_ratio(o.ratio))];
        if o.measured_ratio {
            let spec = exp.suite.iter().next().ok_or("empty suite")?;
            let cb = CompiledBenchmark::compile(spec)?;
            let m = CostModel::measure(&cb, &exp.configs[0], 2_000_000);
            info!("suite", "measured cost ratio r = {:.1}", m.ratio());
            models.push(("measured".to_owned(), m));
        }

        for (label, model) in &models {
            if wants("fig3") {
                let t = format!(
                    "[{label} cost model]\n{}",
                    report::figure_speedup(&results, harness::Method::Coasts, model)
                );
                print_and_keep(&mut emitted, &format!("fig3_coasts_speedup_{label}.txt"), t);
                emitted.push((
                    format!("fig3_coasts_speedup_{label}.csv"),
                    report::figure_speedup_csv(&results, harness::Method::Coasts, model),
                ));
            }
            if wants("fig4") {
                let t = format!(
                    "[{label} cost model]\n{}",
                    report::figure_speedup(&results, harness::Method::Multilevel, model)
                );
                print_and_keep(&mut emitted, &format!("fig4_multilevel_speedup_{label}.txt"), t);
                emitted.push((
                    format!("fig4_multilevel_speedup_{label}.csv"),
                    report::figure_speedup_csv(&results, harness::Method::Multilevel, model),
                ));
            }
        }
        if wants("table2") {
            print_and_keep(&mut emitted, "table2_deviation.txt", report::table2(&results));
        }
        if wants("table3") {
            print_and_keep(&mut emitted, "table3_stats.txt", report::table3(&results));
        }
        if wants("motivation") {
            print_and_keep(&mut emitted, "motivation.txt", report::motivation(&results));
        }
        if wants("accuracy") {
            print_and_keep(&mut emitted, "accuracy_report.txt", report::accuracy_report(&results));
        }
        attribution_json = Some(report::accuracy_json(&results));
        emitted.push(("full_results.csv".into(), report::full_csv(&results, &models[0].1)));
    }

    for (name, table) in ablation::TABLES {
        if wants(name) || wants("ablations") {
            info!("ablation", "computing {name}...");
            let text = table().map_err(|e| format!("{name}: {e}"))?;
            print_and_keep(&mut emitted, &format!("{name}.txt"), text);
        }
    }

    for (name, text) in &emitted {
        let path = o.out.join(name);
        fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        vlog!("done", "wrote {}", path.display());
    }
    info!("done", "wrote {} files to {}", emitted.len(), o.out.display());

    // The run report aggregates everything the instrumentation saw:
    // per-phase wall clock, per-worker utilization, counter totals.
    if o.obs.is_some() && mlpa_obs::is_enabled() {
        let path = o.out.join("RUN_REPORT.json");
        let mut extra: Vec<(String, String)> =
            attribution_json.into_iter().map(|j| ("attribution".to_string(), j)).collect();
        // Peak RSS and host identity are machine-dependent, so they
        // live in their own `resources` section that obs-diff does not
        // gate on — alongside wall-clock, they document the memory
        // footprint and the machine behind paper-scale runs
        // (--iters 8 --scale 8: --scale multiplies trace length and
        // defaults to 1.0; the fine interval stays 10 k instructions).
        let host = mlpa_obs::host_meta().to_value();
        let resources = match mlpa_obs::peak_rss_bytes() {
            Some(rss) => format!("{{\"peak_rss_bytes\": {rss}, \"host\": {host}}}"),
            None => format!("{{\"host\": {host}}}"),
        };
        extra.push(("resources".to_string(), resources));
        fs::write(&path, mlpa_obs::report().to_json_with(&extra))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        info!("obs", "wrote {}", path.display());
        mlpa_obs::finish();
    }
    mlpa_obs::telemetry::set_run_phase("done");
    Ok(())
}
