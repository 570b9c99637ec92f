//! `mlpa-serve` — the sampling-as-a-service daemon.
//!
//! Accepts analysis requests over HTTP and runs them on a bounded
//! worker pool with response-level caching and in-flight deduplication;
//! the protocol lives in [`mlpa_core::serve`]. The daemon switches obs
//! collection on at start, so `/metrics` always serves live counters,
//! gauges and histograms.
//!
//! ```text
//! mlpa-serve [--port N] [--workers N] [--queue N]
//!            [--cache DIR] [--cache-budget BYTES] [--obs FILE]
//! ```

use mlpa_core::serve::{Daemon, ServeOptions};
use mlpa_obs::elog;

struct Options {
    serve: ServeOptions,
    obs: Option<std::path::PathBuf>,
}

fn usage() -> &'static str {
    "usage: mlpa-serve [--port N] [--workers N] [--queue N] \
     [--cache DIR] [--cache-budget BYTES] [--obs FILE]"
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options { serve: ServeOptions::default(), obs: None };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |name: &str| args.next().ok_or_else(|| format!("{name} requires a value\n{}", usage()));
        match arg.as_str() {
            "--port" => {
                o.serve.port = value("--port")?.parse().map_err(|e| format!("--port: {e}"))?;
            }
            "--workers" => {
                let n: usize =
                    value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?;
                if n == 0 {
                    return Err("--workers must be at least 1".into());
                }
                o.serve.workers = n;
            }
            "--queue" => {
                let n: usize = value("--queue")?.parse().map_err(|e| format!("--queue: {e}"))?;
                if n == 0 {
                    return Err("--queue must be at least 1".into());
                }
                o.serve.queue_depth = n;
            }
            "--cache" => o.serve.cache_dir = Some(value("--cache")?.into()),
            "--cache-budget" => {
                o.serve.cache_budget = Some(
                    value("--cache-budget")?.parse().map_err(|e| format!("--cache-budget: {e}"))?,
                );
            }
            "--obs" => o.obs = Some(value("--obs")?.into()),
            "-h" | "--help" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if o.serve.cache_budget.is_some() && o.serve.cache_dir.is_none() {
        return Err("--cache-budget requires --cache".into());
    }
    Ok(o)
}

fn main() {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            elog!("error", "{e}");
            std::process::exit(2);
        }
    };
    let cfg = mlpa_obs::ObsConfig { enabled: true, sink: o.obs.clone(), sample_ms: None };
    if let Err(e) = mlpa_obs::init(&cfg) {
        elog!("error", "opening obs sink: {e}");
        std::process::exit(2);
    }
    let daemon = match Daemon::start(o.serve) {
        Ok(d) => d,
        Err(e) => {
            elog!("error", "{e}");
            std::process::exit(2);
        }
    };
    // elog! so the bound address survives quiet stderr filtering:
    // `tests/serve_daemon.rs` parses this line to find the ephemeral
    // port.
    elog!("serve", "mlpa-serve listening on {}", daemon.addr());
    // Serve until killed; jobs and HTTP run on their own threads.
    loop {
        std::thread::park();
    }
}
