#![warn(missing_docs)]

//! Simulator substrate for the `mlpa` sampling-simulation study: a
//! functional simulator, a cycle-level out-of-order detailed simulator,
//! set-associative caches, and branch predictors — the SimpleScalar-3.0
//! analogue the paper evaluates on, rebuilt from scratch in Rust.
//!
//! * [`FunctionalSim`] executes an
//!   [`InstructionStream`](mlpa_isa::InstructionStream) at trace speed,
//!   firing [`functional::Observer`] callbacks (BBV profilers, loop
//!   detectors) and optionally warming caches/predictor while
//!   fast-forwarding.
//! * [`DetailedSim`] is the `sim-outorder` analogue: a trace-driven
//!   timestamp-propagation out-of-order core with ROB/LSQ occupancy,
//!   functional-unit contention, a two-level cache hierarchy and a
//!   combined branch predictor, configured by [`MachineConfig`]
//!   (Table I of the paper, parts A and B).
//! * [`SimMetrics`] carries the accuracy metrics of the paper's
//!   Table II: CPI, L1 hit rate, L2 hit rate.
//!
//! # Example
//!
//! ```
//! use mlpa_sim::{DetailedSim, MachineConfig};
//! use mlpa_workloads::{spec::BenchmarkSpec, CompiledBenchmark, WorkloadStream};
//!
//! let cb = CompiledBenchmark::compile(&BenchmarkSpec::default())?;
//! let mut sim = DetailedSim::new(MachineConfig::table1_base(), cb.program());
//! let metrics = sim.simulate(&mut WorkloadStream::new(&cb), 10_000);
//! println!("CPI = {:.2}", metrics.cpi());
//! # Ok::<(), String>(())
//! ```

pub mod branch;
pub mod cache;
pub mod config;
pub mod detailed;
pub mod functional;
pub mod inorder;
pub mod metrics;
pub mod reference;

pub use branch::BranchUnit;
pub use cache::{L2Hook, L2Op, L2Replica, MemoryHierarchy};
pub use config::{CacheConfig, FuConfig, MachineConfig, PredictorConfig};
pub use detailed::{DetailedSim, RegionVisitor};
pub use functional::FunctionalSim;
pub use inorder::InOrderSim;
pub use metrics::{MetricDeviation, MetricEstimate, SimMetrics};
