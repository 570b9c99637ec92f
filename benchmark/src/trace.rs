//! Outside-in spans: the benchmark times its own calls into each layer
//! of the program. Spans stay in memory and are written out at exit.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::median;

/// One recorded span; times are seconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: String,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<usize>,
    pub round: usize,
}

/// A span recorder. A disabled tracer runs the wrapped calls and
/// records nothing, so traced and untraced rounds share their code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    round: usize,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    counts: BTreeMap<(usize, String), f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            round: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// An empty recorder for another thread, sharing this one's clock,
    /// round and on/off state; fold it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer { origin: self.origin, round: self.round, ..Tracer::new(self.enabled) }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_round(&mut self, round: usize) {
        self.round = round;
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name: name.to_string(),
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.stack.last().copied(),
            round: self.round,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Add `value` to this round's counter `name` (work done in a layer,
    /// counted where the span around it is recorded).
    pub fn count(&mut self, name: &str, value: f64) {
        if self.enabled {
            *self.counts.entry((self.round, name.to_string())).or_default() += value;
        }
    }

    /// Fold in a forked tracer's spans and counts; its top-level spans
    /// become children of the span open here.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let open = self.stack.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(open);
            s
        }));
        for (k, v) in other.counts {
            *self.counts.entry(k).or_default() += v;
        }
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Counter `name` of `round`, 0 when nothing was counted.
    pub fn counter(&self, round: usize, name: &str) -> f64 {
        self.counts.get(&(round, name.to_string())).copied().unwrap_or(0.0)
    }

    /// The recording as JSON: every span with its name, start, end,
    /// parent, round and workload.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start_s\":{:?},\"end_s\":{:?},\"parent\":{},\
                     \"round\":{},\"workload\":\"{workload}\"}}",
                    mlpa_obs::json::escape(&s.name),
                    s.start,
                    s.end,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.round,
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"mlpa-benchmark-trace-v1\",\"workload\":\"{workload}\",\"seed\":{seed},\
             \"spans\":[\n{}\n]}}\n",
            spans.join(",\n")
        )
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its children cover. Children recorded on different threads
/// may overlap, so the covered part is the union of their intervals.
pub fn self_times(spans: &[SpanRec]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end - s.start - covered
        })
        .collect()
}

/// Per round, the summed self time of every span name.
pub fn self_by_name(spans: &[SpanRec]) -> BTreeMap<usize, BTreeMap<String, f64>> {
    let mut out: BTreeMap<usize, BTreeMap<String, f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.round).or_default().entry(s.name.clone()).or_default() += t;
    }
    out
}

/// One line of the printed layer table.
#[derive(Debug, PartialEq)]
pub struct LayerRow {
    pub name: String,
    /// Name of the top-level span the calls ran under.
    pub root: String,
    /// Medians over the rounds the span appears in.
    pub calls: f64,
    pub self_s: f64,
    /// Self time as a share of the root span's duration.
    pub share: f64,
    /// Median duration of one call, over every call.
    pub call_p50_s: f64,
}

/// Per span name: its calls, self time and share of its root per round,
/// and the duration of one call.
pub fn layer_table(spans: &[SpanRec]) -> Vec<LayerRow> {
    type Acc<'a> = (&'a str, BTreeMap<usize, [f64; 3]>, Vec<f64>);
    let selfs = self_times(spans);
    let mut acc: BTreeMap<&str, Acc> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut r = i;
        while let Some(p) = spans[r].parent {
            r = p;
        }
        let root = &spans[r];
        let e = acc.entry(&s.name).or_insert_with(|| (&root.name, BTreeMap::new(), Vec::new()));
        let per = e.1.entry(s.round).or_default();
        per[0] += 1.0;
        per[1] += selfs[i];
        per[2] += selfs[i] / (root.end - root.start);
        e.2.push(s.end - s.start);
    }
    acc.into_iter()
        .map(|(name, (root, per, durations))| {
            let col = |k: usize| median(&per.values().map(|v| v[k]).collect::<Vec<_>>());
            LayerRow {
                name: name.to_string(),
                root: root.to_string(),
                calls: col(0),
                self_s: col(1),
                share: col(2),
                call_p50_s: median(&durations),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_table_reports_calls_self_time_and_share() {
        let spans = [
            rec("pipeline", 0.0, 8.0, None),
            rec("plan", 1.0, 2.0, Some(0)),
            rec("plan", 4.0, 7.0, Some(0)),
        ];
        let table = layer_table(&spans);
        assert_eq!(
            table,
            [
                LayerRow {
                    name: "pipeline".into(),
                    root: "pipeline".into(),
                    calls: 1.0,
                    self_s: 4.0,
                    share: 0.5,
                    call_p50_s: 8.0,
                },
                LayerRow {
                    name: "plan".into(),
                    root: "pipeline".into(),
                    calls: 2.0,
                    self_s: 4.0,
                    share: 0.5,
                    call_p50_s: 2.0,
                },
            ]
        );
    }

    fn rec(name: &str, start: f64, end: f64, parent: Option<usize>) -> SpanRec {
        SpanRec { name: name.into(), start, end, parent, round: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            rec("round", 0.0, 10.0, None),
            rec("profile", 1.0, 3.0, Some(0)),
            rec("plan", 4.0, 9.0, Some(0)),
            rec("plan.point", 5.0, 6.0, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![3.0, 2.0, 4.0, 1.0]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two client threads' requests overlap inside one round span.
        let spans = [
            rec("round", 0.0, 10.0, None),
            rec("req", 1.0, 6.0, Some(0)),
            rec("req", 4.0, 8.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![3.0, 5.0, 4.0]);
    }

    #[test]
    fn recorded_spans_nest_and_fold_across_threads() {
        let mut t = Tracer::new(true);
        t.set_round(2);
        t.span("round", |t| {
            t.span("compile", |_| ());
            let mut worker = t.fork();
            worker.span("req", |w| w.span("post", |_| ()));
            worker.count("requests", 1.0);
            t.absorb(worker);
        });
        let names: Vec<(&str, Option<usize>)> =
            t.spans().iter().map(|s| (s.name.as_str(), s.parent)).collect();
        assert_eq!(
            names,
            [("round", None), ("compile", Some(0)), ("req", Some(0)), ("post", Some(2))]
        );
        assert!(t.spans().iter().all(|s| s.round == 2 && s.end >= s.start));
        assert_eq!(t.counter(2, "requests"), 1.0);
        let json = t.to_json("sample-default", 7);
        let v = mlpa_obs::json::parse(&json).expect("trace JSON parses");
        assert_eq!(v.get("spans").and_then(|s| s.as_arr()).map(<[_]>::len), Some(4));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("round", |t| t.span("inner", |_| 7)), 7);
        t.count("x", 1.0);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter(0, "x"), 0.0);
    }
}
