//! Exact text serialization for cacheable pipeline artifacts.
//!
//! Every expensive product of the pipeline — interval profiles, loop
//! profiles, SimPoint selections, COASTS / multi-level outcomes,
//! simulation plans, and raw metrics — implements [`Artifact`], a tiny
//! codec over a whitespace-separated token stream. The format is
//! designed for *exact* round-trips, not readability:
//!
//! - integers are decimal tokens;
//! - `f64` values are written as the hex of [`f64::to_bits`], so every
//!   bit pattern (including values that do not survive a shortest-
//!   decimal round-trip formatter) is reproduced exactly;
//! - strings are length-prefixed so embedded whitespace is safe.
//!
//! Exactness matters because the artifact cache (see [`crate::cache`])
//! must be invisible: a warm-cache run has to produce byte-identical
//! reports to the cold run that populated it. Decoding is defensive —
//! every read returns `Err` on malformed input rather than panicking,
//! so a corrupt cache entry is rejected cleanly and regenerated.

use std::fmt::Write as _;

use mlpa_phase::{CyclicStructure, Interval, LoopProfile, SimPoint, SimPoints};
use mlpa_sim::{MetricEstimate, SimMetrics};

use crate::coasts::CoastsOutcome;
use crate::estimate::{ExecutionCost, ExecutionOutcome};
use crate::multilevel::{MultilevelOutcome, ResampledPoint};
use crate::pipeline::FineOutcome;
use crate::plan::{PlanPoint, SimulationPlan};

/// Token-stream encoder. See the module docs for the format.
#[derive(Debug, Default)]
pub struct Enc {
    buf: String,
}

impl Enc {
    /// Start an empty payload.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Append an unsigned integer token.
    pub fn u(&mut self, v: u64) {
        let _ = write!(self.buf, "{v} ");
    }

    /// Append a `usize` token.
    pub fn z(&mut self, v: usize) {
        self.u(v as u64);
    }

    /// Append a bool token (`0` / `1`).
    pub fn b(&mut self, v: bool) {
        self.u(v as u64);
    }

    /// Append an `f64` as the hex of its bit pattern (exact round-trip,
    /// NaN-safe).
    pub fn f(&mut self, v: f64) {
        let _ = write!(self.buf, "{:x} ", v.to_bits());
    }

    /// Append a length-prefixed string (embedded whitespace is safe).
    pub fn s(&mut self, v: &str) {
        let _ = write!(self.buf, "{} {v} ", v.len());
    }

    /// Finish and return the payload.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Token-stream decoder matching [`Enc`]. Every accessor reports
/// malformed input as `Err` instead of panicking.
#[derive(Debug)]
pub struct Dec<'a> {
    rest: &'a str,
}

impl<'a> Dec<'a> {
    /// Decode from a payload produced by [`Enc::finish`].
    pub fn new(payload: &'a str) -> Dec<'a> {
        Dec { rest: payload }
    }

    fn tok(&mut self) -> Result<&'a str, String> {
        self.rest = self.rest.trim_start();
        if self.rest.is_empty() {
            return Err("unexpected end of payload".into());
        }
        let end = self.rest.find(|c: char| c.is_whitespace()).unwrap_or(self.rest.len());
        let (tok, rest) = self.rest.split_at(end);
        self.rest = rest;
        Ok(tok)
    }

    /// Read an unsigned integer token.
    pub fn u(&mut self) -> Result<u64, String> {
        let t = self.tok()?;
        t.parse().map_err(|e| format!("bad integer {t:?}: {e}"))
    }

    /// Read a `usize` token.
    pub fn z(&mut self) -> Result<usize, String> {
        let v = self.u()?;
        usize::try_from(v).map_err(|_| format!("count {v} does not fit usize"))
    }

    /// Read a bool token.
    pub fn b(&mut self) -> Result<bool, String> {
        match self.u()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!("bad bool token {v}")),
        }
    }

    /// Read an `f64` encoded as hex bits.
    pub fn f(&mut self) -> Result<f64, String> {
        let t = self.tok()?;
        u64::from_str_radix(t, 16)
            .map(f64::from_bits)
            .map_err(|e| format!("bad float bits {t:?}: {e}"))
    }

    /// Read a length-prefixed string.
    pub fn s(&mut self) -> Result<String, String> {
        let n = self.z()?;
        let rest = self.rest.strip_prefix(' ').ok_or("malformed string prefix")?;
        if rest.len() < n || !rest.is_char_boundary(n) {
            return Err(format!("string of {n} bytes overruns payload"));
        }
        let (s, rest) = rest.split_at(n);
        self.rest = rest;
        Ok(s.to_owned())
    }

    /// Assert the payload is fully consumed.
    pub fn done(&self) -> Result<(), String> {
        if self.rest.trim().is_empty() {
            Ok(())
        } else {
            Err("trailing data after payload".into())
        }
    }
}

/// A pipeline product that can be stored in the artifact cache.
///
/// `KIND` names the artifact family; it is part of both the on-disk
/// directory layout and the entry header, so two artifact types can
/// never be confused for one another even under a hash collision.
pub trait Artifact: Sized {
    /// Stable artifact-family name (also the cache subdirectory).
    const KIND: &'static str;
    /// Serialize into `enc`.
    fn encode(&self, enc: &mut Enc);
    /// Deserialize; must reject malformed input with `Err`.
    fn decode(dec: &mut Dec) -> Result<Self, String>;
}

/// Cap initial `Vec` allocations during decode so a corrupt length
/// token cannot request an absurd reservation; growth past the cap is
/// organic and bounded by the actual payload size.
fn cap(n: usize) -> usize {
    n.min(4096)
}

fn enc_metrics(e: &mut Enc, m: &SimMetrics) {
    for v in [
        m.instructions,
        m.cycles,
        m.l1d_hits,
        m.l1d_misses,
        m.l1i_hits,
        m.l1i_misses,
        m.l2_hits,
        m.l2_misses,
        m.branches,
        m.mispredicts,
        m.loads,
        m.stores,
    ] {
        e.u(v);
    }
}

fn dec_metrics(d: &mut Dec) -> Result<SimMetrics, String> {
    Ok(SimMetrics {
        instructions: d.u()?,
        cycles: d.u()?,
        l1d_hits: d.u()?,
        l1d_misses: d.u()?,
        l1i_hits: d.u()?,
        l1i_misses: d.u()?,
        l2_hits: d.u()?,
        l2_misses: d.u()?,
        branches: d.u()?,
        mispredicts: d.u()?,
        loads: d.u()?,
        stores: d.u()?,
    })
}

fn enc_estimate(e: &mut Enc, est: &MetricEstimate) {
    e.f(est.cpi);
    e.f(est.l1_hit_rate);
    e.f(est.l2_hit_rate);
    e.f(est.mispredict_rate);
}

fn dec_estimate(d: &mut Dec) -> Result<MetricEstimate, String> {
    Ok(MetricEstimate {
        cpi: d.f()?,
        l1_hit_rate: d.f()?,
        l2_hit_rate: d.f()?,
        mispredict_rate: d.f()?,
    })
}

fn enc_interval(e: &mut Enc, iv: &Interval) {
    e.z(iv.index);
    e.u(iv.start);
    e.u(iv.len);
    e.z(iv.vector.len());
    for &v in &iv.vector {
        e.f(v);
    }
}

fn dec_interval(d: &mut Dec) -> Result<Interval, String> {
    let index = d.z()?;
    let start = d.u()?;
    let len = d.u()?;
    let n = d.z()?;
    let mut vector = Vec::with_capacity(cap(n));
    for _ in 0..n {
        vector.push(d.f()?);
    }
    Ok(Interval { index, start, len, vector })
}

fn enc_simpoints(e: &mut Enc, sp: &SimPoints) {
    e.z(sp.points.len());
    for p in &sp.points {
        e.z(p.interval);
        e.u(p.start);
        e.u(p.len);
        e.f(p.weight);
        e.z(p.cluster);
    }
    e.z(sp.k);
    e.z(sp.num_intervals);
    e.u(sp.total_insts);
    e.z(sp.bic_scores.len());
    for &b in &sp.bic_scores {
        e.f(b);
    }
    e.z(sp.assignments.len());
    for &a in &sp.assignments {
        e.z(a);
    }
}

fn dec_simpoints(d: &mut Dec) -> Result<SimPoints, String> {
    let np = d.z()?;
    let mut points = Vec::with_capacity(cap(np));
    for _ in 0..np {
        points.push(SimPoint {
            interval: d.z()?,
            start: d.u()?,
            len: d.u()?,
            weight: d.f()?,
            cluster: d.z()?,
        });
    }
    let k = d.z()?;
    let num_intervals = d.z()?;
    let total_insts = d.u()?;
    let nb = d.z()?;
    let mut bic_scores = Vec::with_capacity(cap(nb));
    for _ in 0..nb {
        bic_scores.push(d.f()?);
    }
    let na = d.z()?;
    let mut assignments = Vec::with_capacity(cap(na));
    for _ in 0..na {
        assignments.push(d.z()?);
    }
    Ok(SimPoints { points, k, num_intervals, total_insts, bic_scores, assignments })
}

fn enc_plan(e: &mut Enc, plan: &SimulationPlan) {
    e.z(plan.len());
    for p in plan.points() {
        e.u(p.start);
        e.u(p.len);
        e.f(p.weight);
    }
    e.u(plan.total_insts());
}

fn dec_plan(d: &mut Dec) -> Result<SimulationPlan, String> {
    let n = d.z()?;
    let mut points = Vec::with_capacity(cap(n));
    for _ in 0..n {
        points.push(PlanPoint { start: d.u()?, len: d.u()?, weight: d.f()? });
    }
    let total = d.u()?;
    // `new` re-validates sortedness, coverage, and the weight sum, so a
    // decoded plan carries the same guarantees as a computed one.
    SimulationPlan::new(points, total)
}

fn enc_loop_profile(e: &mut Enc, lp: &LoopProfile) {
    e.z(lp.structures.len());
    for s in &lp.structures {
        e.u(s.header.raw() as u64);
        e.u(s.coverage_insts);
        e.u(s.back_edges);
        e.u(s.entries);
        e.z(s.min_depth);
    }
    e.u(lp.total_insts);
}

fn dec_loop_profile(d: &mut Dec) -> Result<LoopProfile, String> {
    let n = d.z()?;
    let mut structures = Vec::with_capacity(cap(n));
    for _ in 0..n {
        let raw = d.u()?;
        let header = mlpa_isa::BlockId::new(
            u32::try_from(raw).map_err(|_| format!("block id {raw} does not fit u32"))?,
        );
        structures.push(CyclicStructure {
            header,
            coverage_insts: d.u()?,
            back_edges: d.u()?,
            entries: d.u()?,
            min_depth: d.z()?,
        });
    }
    let total_insts = d.u()?;
    Ok(LoopProfile { structures, total_insts })
}

impl Artifact for SimulationPlan {
    const KIND: &'static str = "plan";
    fn encode(&self, enc: &mut Enc) {
        enc_plan(enc, self);
    }
    fn decode(dec: &mut Dec) -> Result<Self, String> {
        dec_plan(dec)
    }
}

impl Artifact for SimMetrics {
    const KIND: &'static str = "truth";
    fn encode(&self, enc: &mut Enc) {
        enc_metrics(enc, self);
    }
    fn decode(dec: &mut Dec) -> Result<Self, String> {
        dec_metrics(dec)
    }
}

impl Artifact for Vec<SimMetrics> {
    const KIND: &'static str = "truth-segments";
    fn encode(&self, enc: &mut Enc) {
        enc.z(self.len());
        for m in self {
            enc_metrics(enc, m);
        }
    }
    fn decode(dec: &mut Dec) -> Result<Self, String> {
        let n = dec.z()?;
        let mut out = Vec::with_capacity(cap(n));
        for _ in 0..n {
            out.push(dec_metrics(dec)?);
        }
        Ok(out)
    }
}

impl Artifact for Vec<Interval> {
    const KIND: &'static str = "intervals";
    fn encode(&self, enc: &mut Enc) {
        enc.z(self.len());
        for iv in self {
            enc_interval(enc, iv);
        }
    }
    fn decode(dec: &mut Dec) -> Result<Self, String> {
        let n = dec.z()?;
        let mut out = Vec::with_capacity(cap(n));
        for _ in 0..n {
            out.push(dec_interval(dec)?);
        }
        Ok(out)
    }
}

impl Artifact for LoopProfile {
    const KIND: &'static str = "loop-profile";
    fn encode(&self, enc: &mut Enc) {
        enc_loop_profile(enc, self);
    }
    fn decode(dec: &mut Dec) -> Result<Self, String> {
        dec_loop_profile(dec)
    }
}

impl Artifact for SimPoints {
    const KIND: &'static str = "simpoints";
    fn encode(&self, enc: &mut Enc) {
        enc_simpoints(enc, self);
    }
    fn decode(dec: &mut Dec) -> Result<Self, String> {
        dec_simpoints(dec)
    }
}

/// Iteration-boundary profile of one loop header: the per-iteration
/// intervals plus whether a prologue precedes the first boundary. This
/// mirrors the private boundary pass state inside `ProfilingContext`.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundaryArtifact {
    /// Raw id of the header block the boundaries belong to.
    pub header: u32,
    /// True when instructions precede the first header execution.
    pub has_prologue: bool,
    /// Per-iteration intervals with projected BBVs.
    pub intervals: Vec<Interval>,
}

impl Artifact for BoundaryArtifact {
    const KIND: &'static str = "boundary";
    fn encode(&self, enc: &mut Enc) {
        enc.u(self.header as u64);
        enc.b(self.has_prologue);
        enc.z(self.intervals.len());
        for iv in &self.intervals {
            enc_interval(enc, iv);
        }
    }
    fn decode(dec: &mut Dec) -> Result<Self, String> {
        let raw = dec.u()?;
        let header = u32::try_from(raw).map_err(|_| format!("block id {raw} does not fit u32"))?;
        let has_prologue = dec.b()?;
        let n = dec.z()?;
        let mut intervals = Vec::with_capacity(cap(n));
        for _ in 0..n {
            intervals.push(dec_interval(dec)?);
        }
        Ok(BoundaryArtifact { header, has_prologue, intervals })
    }
}

impl Artifact for FineOutcome {
    const KIND: &'static str = "fine-outcome";
    fn encode(&self, enc: &mut Enc) {
        enc_plan(enc, &self.plan);
        enc_simpoints(enc, &self.simpoints);
        enc.u(self.interval_len);
    }
    fn decode(dec: &mut Dec) -> Result<Self, String> {
        Ok(FineOutcome {
            plan: dec_plan(dec)?,
            simpoints: dec_simpoints(dec)?,
            interval_len: dec.u()?,
        })
    }
}

impl Artifact for CoastsOutcome {
    const KIND: &'static str = "coasts-outcome";
    fn encode(&self, enc: &mut Enc) {
        enc_plan(enc, &self.plan);
        enc_simpoints(enc, &self.simpoints);
        enc.z(self.intervals.len());
        for iv in &self.intervals {
            enc_interval(enc, iv);
        }
        enc_loop_profile(enc, &self.profile);
        enc.u(self.header.raw() as u64);
        enc.z(self.body_start);
    }
    fn decode(dec: &mut Dec) -> Result<Self, String> {
        let plan = dec_plan(dec)?;
        let simpoints = dec_simpoints(dec)?;
        let n = dec.z()?;
        let mut intervals = Vec::with_capacity(cap(n));
        for _ in 0..n {
            intervals.push(dec_interval(dec)?);
        }
        let profile = dec_loop_profile(dec)?;
        let raw = dec.u()?;
        let header = mlpa_isa::BlockId::new(
            u32::try_from(raw).map_err(|_| format!("block id {raw} does not fit u32"))?,
        );
        let body_start = dec.z()?;
        Ok(CoastsOutcome { plan, simpoints, intervals, profile, header, body_start })
    }
}

impl Artifact for MultilevelOutcome {
    const KIND: &'static str = "multilevel-outcome";
    fn encode(&self, enc: &mut Enc) {
        enc_plan(enc, &self.plan);
        self.coasts.encode(enc);
        enc.z(self.resampled.len());
        for r in &self.resampled {
            enc.u(r.coarse_start);
            enc.u(r.coarse_len);
            enc_simpoints(enc, &r.fine);
        }
    }
    fn decode(dec: &mut Dec) -> Result<Self, String> {
        let plan = dec_plan(dec)?;
        let coasts = CoastsOutcome::decode(dec)?;
        let n = dec.z()?;
        let mut resampled = Vec::with_capacity(cap(n));
        for _ in 0..n {
            resampled.push(ResampledPoint {
                coarse_start: dec.u()?,
                coarse_len: dec.u()?,
                fine: dec_simpoints(dec)?,
            });
        }
        Ok(MultilevelOutcome { plan, coasts, resampled })
    }
}

impl Artifact for ExecutionOutcome {
    const KIND: &'static str = "plan-exec";
    fn encode(&self, enc: &mut Enc) {
        enc_estimate(enc, &self.estimate);
        enc.z(self.per_point.len());
        for m in &self.per_point {
            enc_metrics(enc, m);
        }
        enc.u(self.cost.functional_insts);
        enc.u(self.cost.detailed_insts);
    }
    fn decode(dec: &mut Dec) -> Result<Self, String> {
        let estimate = dec_estimate(dec)?;
        let n = dec.z()?;
        let mut per_point = Vec::with_capacity(cap(n));
        for _ in 0..n {
            per_point.push(dec_metrics(dec)?);
        }
        let cost = ExecutionCost { functional_insts: dec.u()?, detailed_insts: dec.u()? };
        Ok(ExecutionOutcome { estimate, per_point, cost })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<A: Artifact + PartialEq + std::fmt::Debug>(a: &A) {
        let mut e = Enc::new();
        a.encode(&mut e);
        let payload = e.finish();
        let mut d = Dec::new(&payload);
        let back = A::decode(&mut d).expect("decode");
        d.done().expect("fully consumed");
        assert_eq!(&back, a);
    }

    fn sample_metrics(seed: u64) -> SimMetrics {
        SimMetrics {
            instructions: seed + 1,
            cycles: seed * 3 + 2,
            l1d_hits: seed + 3,
            l1d_misses: seed + 4,
            l1i_hits: seed + 5,
            l1i_misses: seed + 6,
            l2_hits: seed + 7,
            l2_misses: seed + 8,
            branches: seed + 9,
            mispredicts: seed + 10,
            loads: seed + 11,
            stores: seed + 12,
        }
    }

    fn sample_simpoints() -> SimPoints {
        SimPoints {
            points: vec![
                SimPoint { interval: 0, start: 0, len: 100, weight: 0.25, cluster: 0 },
                SimPoint { interval: 3, start: 300, len: 100, weight: 0.75, cluster: 1 },
            ],
            k: 2,
            num_intervals: 4,
            total_insts: 400,
            bic_scores: vec![f64::NEG_INFINITY, -1.5, -0.25],
            assignments: vec![0, 1, 1, 1],
        }
    }

    fn sample_plan() -> SimulationPlan {
        SimulationPlan::new(
            vec![
                PlanPoint { start: 0, len: 100, weight: 0.125 },
                PlanPoint { start: 300, len: 100, weight: 0.875 },
            ],
            1000,
        )
        .unwrap()
    }

    fn sample_intervals() -> Vec<Interval> {
        vec![
            Interval { index: 0, start: 0, len: 10, vector: vec![0.5, 0.25, 0.0] },
            Interval { index: 1, start: 10, len: 12, vector: vec![-1.5, 3.0, 0.1] },
        ]
    }

    fn sample_profile() -> LoopProfile {
        LoopProfile {
            structures: vec![CyclicStructure {
                header: mlpa_isa::BlockId::new(7),
                coverage_insts: 900,
                back_edges: 9,
                entries: 1,
                min_depth: 0,
            }],
            total_insts: 1000,
        }
    }

    #[test]
    fn primitive_roundtrips() {
        let mut e = Enc::new();
        e.u(u64::MAX);
        e.z(42);
        e.b(true);
        e.f(0.1 + 0.2); // not representable exactly in decimal
        e.f(f64::NAN);
        e.s("two words");
        e.s("");
        let payload = e.finish();
        let mut d = Dec::new(&payload);
        assert_eq!(d.u().unwrap(), u64::MAX);
        assert_eq!(d.z().unwrap(), 42);
        assert!(d.b().unwrap());
        assert_eq!(d.f().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert!(d.f().unwrap().is_nan());
        assert_eq!(d.s().unwrap(), "two words");
        assert_eq!(d.s().unwrap(), "");
        d.done().unwrap();
    }

    #[test]
    fn decode_rejects_truncation_and_garbage() {
        let mut e = Enc::new();
        sample_plan().encode(&mut e);
        let payload = e.finish();
        // Truncate at every prefix length that actually loses a token
        // byte (the payload ends with separator whitespace): decode
        // must error, never panic.
        for cut in 0..payload.trim_end().len() {
            let mut d = Dec::new(&payload[..cut]);
            let r = SimulationPlan::decode(&mut d).and_then(|_| d.done());
            assert!(r.is_err(), "truncation at {cut} accepted");
        }
        let mut d = Dec::new("not numbers at all");
        assert!(SimulationPlan::decode(&mut d).is_err());
    }

    #[test]
    fn artifact_roundtrips() {
        roundtrip(&sample_plan());
        roundtrip(&sample_metrics(5));
        roundtrip(&vec![sample_metrics(1), sample_metrics(2)]);
        roundtrip(&sample_intervals());
        roundtrip(&sample_profile());
        roundtrip(&sample_simpoints());
        roundtrip(&BoundaryArtifact {
            header: 7,
            has_prologue: true,
            intervals: sample_intervals(),
        });
        roundtrip(&FineOutcome {
            plan: sample_plan(),
            simpoints: sample_simpoints(),
            interval_len: 10_000,
        });
        let coasts = CoastsOutcome {
            plan: sample_plan(),
            simpoints: sample_simpoints(),
            intervals: sample_intervals(),
            profile: sample_profile(),
            header: mlpa_isa::BlockId::new(7),
            body_start: 1,
        };
        roundtrip(&coasts);
        roundtrip(&MultilevelOutcome {
            plan: sample_plan(),
            coasts: coasts.clone(),
            resampled: vec![ResampledPoint {
                coarse_start: 100,
                coarse_len: 400,
                fine: sample_simpoints(),
            }],
        });
        roundtrip(&ExecutionOutcome {
            estimate: MetricEstimate {
                cpi: 1.25,
                l1_hit_rate: 0.97,
                l2_hit_rate: 0.5,
                mispredict_rate: 0.02,
            },
            per_point: vec![sample_metrics(3)],
            cost: ExecutionCost { functional_insts: 900, detailed_insts: 100 },
        });
    }
}
