//! Span-aggregated self-profile: turns the span stream into a
//! per-span-name call tree with self/total wall time, plus worker-pool
//! utilization and a critical-path summary for the experiment-suite pool.
//!
//! Everything here is pure aggregation over the snapshots
//! [`crate::report`] hands over, so it is testable without collecting
//! anything.
//!
//! Determinism contract: span *names*, *call counts*, and tree edges
//! (parent, name, calls) are deterministic for a fixed configuration
//! and are gated by `obs-diff`; every timing field (`total_s`,
//! `self_s`, quantiles, pool utilization) is machine-dependent and is
//! never gated.

use crate::{json, HistogramStat, PhaseStat, WorkerStat};

/// One raw call-tree edge as recorded by the span guards: span `name`
/// was opened `calls` times with `parent` on top of the per-thread span
/// stack (`None` = stack was empty, i.e. a root — which includes every
/// span opened on a scoped worker thread other than a [`crate::pool`]
/// helper, which starts from its caller's span).
#[derive(Debug, Clone, PartialEq)]
pub struct RawEdge {
    /// Child span name.
    pub name: String,
    /// Parent span name, `None` for roots.
    pub parent: Option<String>,
    /// Number of openings with this parent.
    pub calls: u64,
    /// Total wall seconds accumulated under this edge.
    pub total_s: f64,
}

/// Per-span-name aggregation: how often it ran, where its time went.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanAgg {
    /// Span name (e.g. `core.plan.execute`).
    pub name: String,
    /// Number of openings.
    pub calls: u64,
    /// Total wall seconds across all openings (children included).
    pub total_s: f64,
    /// Wall seconds not attributed to any child span: `total_s` minus
    /// the child-edge totals, clamped at 0 (children that [`crate::pool`]
    /// helpers ran in parallel can add up to more than the parent's
    /// wall time). Work fanned out to other scoped workers shows up in
    /// the workers' own root spans, not here.
    pub self_s: f64,
    /// Median single-call duration in microseconds (from the `span.*`
    /// log2 histogram, so within 2x).
    pub p50_us: u64,
    /// 99th-percentile single-call duration in microseconds.
    pub p99_us: u64,
}

/// One call-tree edge in the report, aggregated by (parent, name).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEdge {
    /// Parent span name; `None` for roots.
    pub parent: Option<String>,
    /// Child span name.
    pub name: String,
    /// Number of openings under this parent.
    pub calls: u64,
    /// Total wall seconds under this edge.
    pub total_s: f64,
}

/// Lifetime utilization of one worker pool (all guards, dropped or
/// not, aggregated from the completed [`WorkerStat`] rows).
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSummary {
    /// Pool label (e.g. `plan`, `suite`).
    pub pool: String,
    /// Number of worker guards that completed.
    pub workers: u64,
    /// Total jobs executed across the pool.
    pub jobs: u64,
    /// Seconds spent inside `busy` closures, summed over workers.
    pub busy_s: f64,
    /// Guard lifetime seconds, summed over workers.
    pub wall_s: f64,
    /// `busy_s / wall_s` (0 for an empty pool).
    pub utilization: f64,
}

/// Critical-path summary for the experiment-suite pool: how close the
/// parallel section is to its load-balance limit.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Pool the summary describes (`suite`).
    pub pool: String,
    /// Number of worker guards that completed.
    pub workers: u64,
    /// Longest single-worker guard lifetime — the parallel section's
    /// wall clock is at least this.
    pub wall_s: f64,
    /// Busiest worker's busy seconds: the critical path. Total busy
    /// work cannot finish faster than this without re-balancing jobs.
    pub max_busy_s: f64,
    /// Mean busy seconds per worker.
    pub mean_busy_s: f64,
    /// `max_busy_s / mean_busy_s` — 1.0 is perfectly balanced.
    pub imbalance: f64,
    /// `sum(busy_s) / max_busy_s` — the speedup this job distribution
    /// admits no matter how many workers are added.
    pub speedup_limit: f64,
}

/// The self-profile block embedded in `RUN_REPORT.json` (v3).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelfProfile {
    /// Per-span-name aggregation, sorted by name.
    pub spans: Vec<SpanAgg>,
    /// Call-tree edges, roots first, then sorted by (parent, name).
    pub tree: Vec<SpanEdge>,
    /// Per-pool utilization, sorted by pool name.
    pub pools: Vec<PoolSummary>,
    /// Critical-path summary for the `suite` pool, when it ran.
    pub critical_path: Option<CriticalPath>,
}

/// The worker pool whose critical path is summarized: the
/// experiment-suite pool, the one `mlpa-experiments --jobs N` sizes.
pub const CRITICAL_POOL: &str = "suite";

/// Aggregate report snapshots into a [`SelfProfile`]. Pure function of
/// its inputs; panics never, even on inconsistent snapshots (a span
/// with no histogram, an edge with no phase) — missing pieces degrade
/// to zeros.
pub fn build(
    phases: &[PhaseStat],
    histograms: &[HistogramStat],
    workers: &[WorkerStat],
    edges: &[RawEdge],
) -> SelfProfile {
    let spans = phases
        .iter()
        .map(|p| {
            let child_s: f64 = edges
                .iter()
                .filter(|e| e.parent.as_deref() == Some(p.name.as_str()))
                .map(|e| e.total_s)
                .sum();
            let hist_name = format!("span.{}", p.name);
            let (p50_us, p99_us) =
                histograms.iter().find(|h| h.name == hist_name).map_or((0, 0), |h| (h.p50, h.p99));
            SpanAgg {
                name: p.name.clone(),
                calls: p.count,
                total_s: p.total_s,
                self_s: (p.total_s - child_s).max(0.0),
                p50_us,
                p99_us,
            }
        })
        .collect();

    let mut tree: Vec<SpanEdge> = edges
        .iter()
        .map(|e| SpanEdge {
            parent: e.parent.clone(),
            name: e.name.clone(),
            calls: e.calls,
            total_s: e.total_s,
        })
        .collect();
    tree.sort_by(|a, b| {
        let ka = (a.parent.is_some(), a.parent.as_deref(), a.name.as_str());
        let kb = (b.parent.is_some(), b.parent.as_deref(), b.name.as_str());
        ka.cmp(&kb)
    });

    let mut pools: Vec<PoolSummary> = Vec::new();
    for w in workers {
        match pools.iter_mut().find(|p| p.pool == w.pool) {
            Some(p) => {
                p.workers += 1;
                p.jobs += w.jobs;
                p.busy_s += w.busy_s;
                p.wall_s += w.wall_s;
            }
            None => pools.push(PoolSummary {
                pool: w.pool.clone(),
                workers: 1,
                jobs: w.jobs,
                busy_s: w.busy_s,
                wall_s: w.wall_s,
                utilization: 0.0,
            }),
        }
    }
    for p in &mut pools {
        p.utilization = if p.wall_s > 0.0 { p.busy_s / p.wall_s } else { 0.0 };
    }
    pools.sort_by(|a, b| a.pool.cmp(&b.pool));

    let pool: Vec<&WorkerStat> = workers.iter().filter(|w| w.pool == CRITICAL_POOL).collect();
    let critical_path = if pool.is_empty() {
        None
    } else {
        let n = pool.len() as u64;
        let sum_busy: f64 = pool.iter().map(|w| w.busy_s).sum();
        let max_busy = pool.iter().map(|w| w.busy_s).fold(0.0_f64, f64::max);
        let wall = pool.iter().map(|w| w.wall_s).fold(0.0_f64, f64::max);
        let mean_busy = sum_busy / n as f64;
        Some(CriticalPath {
            pool: CRITICAL_POOL.to_string(),
            workers: n,
            wall_s: wall,
            max_busy_s: max_busy,
            mean_busy_s: mean_busy,
            imbalance: if mean_busy > 0.0 { max_busy / mean_busy } else { 0.0 },
            speedup_limit: if max_busy > 0.0 { sum_busy / max_busy } else { 0.0 },
        })
    };

    SelfProfile { spans, tree, pools, critical_path }
}

impl SelfProfile {
    /// Render as a JSON object. `indent` is the column (in spaces) the
    /// opening brace sits at; nested lines indent two further columns,
    /// matching [`crate::Report::to_json_with`]'s hand-built style.
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let p1 = " ".repeat(indent + 2);
        let p2 = " ".repeat(indent + 4);
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");

        out.push_str(&format!("{p1}\"spans\": [\n"));
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            out.push_str(&format!(
                "{p2}{{\"name\": \"{}\", \"calls\": {}, \"total_s\": {:.6}, \
                 \"self_s\": {:.6}, \"p50_us\": {}, \"p99_us\": {}}}{sep}\n",
                json::escape(&s.name),
                s.calls,
                s.total_s,
                s.self_s,
                s.p50_us,
                s.p99_us,
            ));
        }
        out.push_str(&format!("{p1}],\n"));

        out.push_str(&format!("{p1}\"tree\": [\n"));
        for (i, e) in self.tree.iter().enumerate() {
            let sep = if i + 1 < self.tree.len() { "," } else { "" };
            let parent = e
                .parent
                .as_deref()
                .map(|p| format!("\"{}\"", json::escape(p)))
                .unwrap_or_else(|| "null".into());
            out.push_str(&format!(
                "{p2}{{\"parent\": {parent}, \"name\": \"{}\", \"calls\": {}, \
                 \"total_s\": {:.6}}}{sep}\n",
                json::escape(&e.name),
                e.calls,
                e.total_s,
            ));
        }
        out.push_str(&format!("{p1}],\n"));

        out.push_str(&format!("{p1}\"pools\": [\n"));
        for (i, p) in self.pools.iter().enumerate() {
            let sep = if i + 1 < self.pools.len() { "," } else { "" };
            out.push_str(&format!(
                "{p2}{{\"pool\": \"{}\", \"workers\": {}, \"jobs\": {}, \"busy_s\": {:.6}, \
                 \"wall_s\": {:.6}, \"utilization\": {:.4}}}{sep}\n",
                json::escape(&p.pool),
                p.workers,
                p.jobs,
                p.busy_s,
                p.wall_s,
                p.utilization,
            ));
        }
        out.push_str(&format!("{p1}],\n"));

        match &self.critical_path {
            None => out.push_str(&format!("{p1}\"critical_path\": null\n")),
            Some(c) => out.push_str(&format!(
                "{p1}\"critical_path\": {{\"pool\": \"{}\", \"workers\": {}, \
                 \"wall_s\": {:.6}, \"max_busy_s\": {:.6}, \"mean_busy_s\": {:.6}, \
                 \"imbalance\": {:.4}, \"speedup_limit\": {:.4}}}\n",
                json::escape(&c.pool),
                c.workers,
                c.wall_s,
                c.max_busy_s,
                c.mean_busy_s,
                c.imbalance,
                c.speedup_limit,
            )),
        }

        out.push_str(&format!("{pad}}}"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(name: &str, count: u64, total_s: f64) -> PhaseStat {
        PhaseStat { name: name.to_string(), count, total_s }
    }

    fn edge(name: &str, parent: Option<&str>, calls: u64, total_s: f64) -> RawEdge {
        RawEdge { name: name.to_string(), parent: parent.map(String::from), calls, total_s }
    }

    fn worker(pool: &str, busy_s: f64, wall_s: f64, jobs: u64) -> WorkerStat {
        WorkerStat {
            pool: pool.to_string(),
            index: 0,
            busy_s,
            wall_s,
            jobs,
            busy_fraction: if wall_s > 0.0 { busy_s / wall_s } else { 0.0 },
        }
    }

    #[test]
    fn self_time_subtracts_child_edges() {
        let phases = vec![phase("child", 4, 0.6), phase("root", 1, 1.0)];
        let edges = vec![edge("root", None, 1, 1.0), edge("child", Some("root"), 4, 0.6)];
        let sp = build(&phases, &[], &[], &edges);
        let root = sp.spans.iter().find(|s| s.name == "root").unwrap();
        assert!((root.self_s - 0.4).abs() < 1e-9, "self_s = {}", root.self_s);
        let child = sp.spans.iter().find(|s| s.name == "child").unwrap();
        assert!((child.self_s - 0.6).abs() < 1e-9);
        // Tree sorts roots first.
        assert_eq!(sp.tree[0].parent, None);
        assert_eq!(sp.tree[0].name, "root");
    }

    #[test]
    fn self_time_clamps_at_zero() {
        // Timer jitter can make child totals exceed the parent's.
        let phases = vec![phase("root", 1, 1.0)];
        let edges = vec![edge("child", Some("root"), 1, 1.1)];
        let sp = build(&phases, &[], &[], &edges);
        assert_eq!(sp.spans[0].self_s, 0.0);
    }

    #[test]
    fn critical_path_summarizes_suite_pool() {
        let workers = vec![
            worker("suite", 2.0, 2.5, 10),
            worker("suite", 1.0, 2.5, 5),
            worker("plan", 3.0, 3.0, 2),
        ];
        let sp = build(&[], &[], &workers, &[]);
        let cp = sp.critical_path.expect("suite pool ran");
        assert_eq!(cp.pool, "suite");
        assert_eq!(cp.workers, 2);
        assert!((cp.max_busy_s - 2.0).abs() < 1e-9);
        assert!((cp.mean_busy_s - 1.5).abs() < 1e-9);
        assert!((cp.speedup_limit - 1.5).abs() < 1e-9);
        assert!((cp.imbalance - 2.0 / 1.5).abs() < 1e-9);
        assert_eq!(sp.pools.len(), 2);
        let suite = &sp.pools[1];
        assert_eq!((suite.pool.as_str(), suite.workers, suite.jobs), ("suite", 2, 15));
    }

    #[test]
    fn no_suite_pool_means_no_critical_path() {
        let sp = build(&[], &[], &[worker("plan", 1.0, 1.0, 1)], &[]);
        assert!(sp.critical_path.is_none());
    }

    #[test]
    fn to_json_parses_and_round_trips_structure() {
        let phases = vec![phase("a", 2, 0.5)];
        let edges = vec![edge("a", None, 2, 0.5)];
        let workers = vec![worker("suite", 1.0, 2.0, 3)];
        let sp = build(&phases, &[], &workers, &edges);
        let text = sp.to_json(0);
        let v = crate::json::parse(&text).expect("self-profile JSON parses");
        let spans = v.get("spans").and_then(|s| s.as_arr()).unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].get("name").and_then(|n| n.as_str()), Some("a"));
        assert_eq!(spans[0].get("calls").and_then(|c| c.as_f64()), Some(2.0));
        let tree = v.get("tree").and_then(|t| t.as_arr()).unwrap();
        assert_eq!(tree[0].get("parent"), Some(&crate::json::Value::Null));
        assert!(v.get("critical_path").unwrap().get("pool").is_some());
    }
}
