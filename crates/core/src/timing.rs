//! The simulation-time model behind the paper's speedup figures
//! (Figs. 3 and 4).
//!
//! A sampling run's time is
//! `T = N_detail · c_d + N_functional · c_f`,
//! where `c_d` and `c_f` are the per-instruction costs of detailed and
//! functional simulation. Everything in Figs. 3/4 follows from the
//! Table III instruction shares plus the ratio `r = c_d / c_f`:
//! solving the paper's own numbers (Table III + the 6.78× COASTS
//! speedup) gives `r ≈ 32.5`, which also predicts the reported 14.04×
//! multi-level speedup — so the paper's results are internally
//! consistent with this model. We report speedups under both the
//! paper-implied ratio and the ratio *measured* from this repo's two
//! simulators.

use crate::plan::SimulationPlan;
use mlpa_sim::{DetailedSim, FunctionalSim, MachineConfig};
use mlpa_workloads::{CompiledBenchmark, WorkloadStream};

/// Per-instruction cost model of the two simulation modes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Seconds (or arbitrary units) per detailed-simulated instruction.
    pub detailed_per_inst: f64,
    /// Units per functionally-simulated instruction.
    pub functional_per_inst: f64,
}

impl CostModel {
    /// The ratio implied by the paper's own numbers (`r ≈ 32.5`), in
    /// arbitrary units with `c_f = 1`.
    pub fn paper_implied() -> CostModel {
        CostModel { detailed_per_inst: 32.5, functional_per_inst: 1.0 }
    }

    /// A model with an explicit detailed/functional cost ratio.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not positive and finite.
    pub fn from_ratio(ratio: f64) -> CostModel {
        assert!(ratio > 0.0 && ratio.is_finite(), "ratio must be positive, got {ratio}");
        CostModel { detailed_per_inst: ratio, functional_per_inst: 1.0 }
    }

    /// Measure both simulators on a sample of `cb` and return the
    /// wall-clock-derived model. `sample_insts` instructions are run in
    /// each mode (clamped to the trace).
    ///
    /// Simulator and stream construction happen *outside* the timed
    /// windows — on short samples their setup cost would otherwise
    /// inflate the measured per-instruction costs (and bias the ratio,
    /// since `DetailedSim::new` is the heavier constructor). Each mode
    /// is sampled [`Self::MEASURE_SAMPLES`] times and the best (minimum)
    /// time is kept, the standard defense against scheduler noise and
    /// one-shot cache-cold outliers.
    ///
    /// # Panics
    ///
    /// Panics if `sample_insts` is zero.
    pub fn measure(cb: &CompiledBenchmark, config: &MachineConfig, sample_insts: u64) -> CostModel {
        assert!(sample_insts > 0, "sample_insts must be positive");

        let mut func_best = f64::INFINITY;
        let mut func_insts = 0u64;
        for _ in 0..Self::MEASURE_SAMPLES {
            let mut func = FunctionalSim::new(cb.program());
            let mut stream = WorkloadStream::new(cb);
            let t0 = std::time::Instant::now();
            let ran = func.fast_forward(&mut stream, sample_insts, &mut (), None);
            let t = t0.elapsed().as_secs_f64();
            if t < func_best {
                func_best = t;
                func_insts = ran;
            }
        }

        let mut det_best = f64::INFINITY;
        let mut det_insts = 0u64;
        for _ in 0..Self::MEASURE_SAMPLES {
            let mut det = DetailedSim::new(*config, cb.program());
            let mut stream = WorkloadStream::new(cb);
            let t0 = std::time::Instant::now();
            let m = det.simulate(&mut stream, sample_insts);
            let t = t0.elapsed().as_secs_f64();
            if t < det_best {
                det_best = t;
                det_insts = m.instructions;
            }
        }

        CostModel {
            detailed_per_inst: det_best / det_insts.max(1) as f64,
            functional_per_inst: func_best / func_insts.max(1) as f64,
        }
    }

    /// Timing samples per mode in [`CostModel::measure`]; the minimum
    /// is kept.
    pub const MEASURE_SAMPLES: u32 = 3;

    /// The detailed/functional cost ratio `r`.
    pub fn ratio(&self) -> f64 {
        self.detailed_per_inst / self.functional_per_inst
    }

    /// Modelled time of a sampling run with the given instruction
    /// volumes.
    pub fn time(&self, detailed_insts: u64, functional_insts: u64) -> f64 {
        detailed_insts as f64 * self.detailed_per_inst
            + functional_insts as f64 * self.functional_per_inst
    }

    /// Modelled time of executing `plan`.
    pub fn plan_time(&self, plan: &SimulationPlan) -> f64 {
        self.time(plan.detailed_insts(), plan.functional_insts())
    }

    /// Speedup of `plan` over `baseline` under this model (> 1 means
    /// `plan` is faster).
    pub fn speedup(&self, baseline: &SimulationPlan, plan: &SimulationPlan) -> f64 {
        self.plan_time(baseline) / self.plan_time(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanPoint;

    fn plan(detail: u64, last_end: u64, total: u64) -> SimulationPlan {
        SimulationPlan::new(
            vec![PlanPoint { start: last_end - detail, len: detail, weight: 1.0 }],
            total,
        )
        .unwrap()
    }

    #[test]
    fn paper_numbers_reproduce_paper_speedups() {
        // Table III (as fractions of a nominal 1e9-instruction run):
        // SimPoint: detail 0.09 %, functional 93.76 %.
        // COASTS:   detail 0.37 %, functional  2.21 %.
        // Multi:    detail 0.05 %, functional  5.06 %.
        let m = CostModel::paper_implied();
        let t_simpoint = m.time(900_000, 937_600_000);
        let t_coasts = m.time(3_700_000, 22_100_000);
        let t_multi = m.time(500_000, 50_600_000);
        let coasts_speedup = t_simpoint / t_coasts;
        let multi_speedup = t_simpoint / t_multi;
        assert!(
            (6.0..8.0).contains(&coasts_speedup),
            "COASTS speedup {coasts_speedup:.2} vs paper 6.78"
        );
        assert!(
            (13.0..16.0).contains(&multi_speedup),
            "multi-level speedup {multi_speedup:.2} vs paper 14.04"
        );
    }

    #[test]
    fn ratio_and_time_linear() {
        let m = CostModel::from_ratio(10.0);
        assert_eq!(m.ratio(), 10.0);
        assert_eq!(m.time(10, 100), 200.0);
        let double = m.time(20, 200);
        assert_eq!(double, 400.0);
    }

    #[test]
    fn plan_time_uses_plan_accounting() {
        let m = CostModel::from_ratio(10.0);
        let p = plan(1_000, 5_000, 100_000);
        // detail 1000×10 + functional 4000×1.
        assert_eq!(m.plan_time(&p), 14_000.0);
    }

    #[test]
    fn speedup_orders_plans() {
        let m = CostModel::paper_implied();
        let slow = plan(1_000, 95_000, 100_000);
        let fast = plan(2_000, 10_000, 100_000);
        assert!(m.speedup(&slow, &fast) > 1.0);
        assert!(m.speedup(&fast, &slow) < 1.0);
        assert!((m.speedup(&slow, &slow) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measured_model_is_sane() {
        let spec = mlpa_workloads::suite::benchmark("gzip").unwrap().scaled(0.02);
        let cb = CompiledBenchmark::compile(&spec).unwrap();
        let m = CostModel::measure(&cb, &MachineConfig::table1_base(), 200_000);
        // With construction outside the timed windows and best-of-N
        // sampling, the bounds can be meaningfully tighter than the
        // old one-shot (1, 10_000) sanity check: a detailed cycle-level
        // pass clearly costs more per instruction than a functional
        // decode-and-count, and not by four orders of magnitude.
        assert!(
            m.detailed_per_inst.is_finite() && m.detailed_per_inst > 0.0,
            "detailed cost must be positive: {}",
            m.detailed_per_inst
        );
        assert!(
            m.functional_per_inst.is_finite() && m.functional_per_inst > 0.0,
            "functional cost must be positive: {}",
            m.functional_per_inst
        );
        assert!(
            m.ratio() > 1.5,
            "detailed must cost clearly more than functional: r = {}",
            m.ratio()
        );
        assert!(m.ratio() < 2_000.0, "ratio {} implausible", m.ratio());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_ratio_panics() {
        let _ = CostModel::from_ratio(0.0);
    }
}
