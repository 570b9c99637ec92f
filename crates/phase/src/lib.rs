#![warn(missing_docs)]

//! Phase-analysis library for the `mlpa` sampling-simulation study.
//!
//! Everything between "a program trace" and "a set of weighted
//! simulation points" lives here:
//!
//! * [`project`] — the 15-dimensional random projection of basic-block
//!   vectors (BBVs);
//! * [`interval`] — slicing an execution into fixed-length
//!   (fine-grained) or loop-boundary (coarse-grained) intervals while
//!   collecting one signature vector per interval;
//! * [`loops`] — dynamic detection of cyclic program structures from
//!   backward branches, with coverage statistics (COASTS's boundary
//!   collection step): the pipeline's [`LoopProfiler`] and the
//!   [`LoopMonitor`] observer it is tested against;
//! * [`lfv`] / [`wss`] — the alternative phase metrics the paper cites
//!   (loop-frequency vectors and working-set signatures);
//! * [`matrix`] — flat row-major storage the clustering kernels run on;
//! * [`kmeans`] / [`bic`] — the phase classifier (Hamerly-pruned
//!   Lloyd's over contiguous storage) and SimPoint's BIC-based choice
//!   of the number of phases;
//! * [`reference`] — the naive clustering implementations kept as an
//!   executable specification and bench baseline;
//! * [`pca`] — principal components for visualising phase behaviour
//!   (the paper's Fig. 1);
//! * [`simpoint`] — representative selection (classic SimPoint,
//!   earliest-instance for COASTS, and the EarlySP variant).
//!
//! The two interval profilers and [`LoopProfiler`] take `(block,
//! length)` records through `record`, so `mlpa-core` drives them from a
//! metadata walk of the trace that materialises no instruction; the
//! interval profilers (and [`LoopMonitor`]) are also functional-simulator
//! observers, as in this example.
//!
//! # Example: fine-grained SimPoint on a workload
//!
//! ```
//! use mlpa_phase::{
//!     interval::FixedLengthProfiler,
//!     project::RandomProjection,
//!     simpoint::{select, SimPointConfig},
//! };
//! use mlpa_sim::FunctionalSim;
//! use mlpa_workloads::{spec::BenchmarkSpec, CompiledBenchmark, WorkloadStream};
//!
//! let cb = CompiledBenchmark::compile(&BenchmarkSpec::default())?;
//! let proj = RandomProjection::new(cb.program().num_blocks(), 15, 42);
//! let mut prof = FixedLengthProfiler::new(&proj, 10_000);
//! FunctionalSim::new(cb.program()).run(WorkloadStream::new(&cb), &mut prof);
//! let points = select(&prof.finish(), &SimPointConfig::fine_10m());
//! assert!(!points.points.is_empty());
//! # Ok::<(), String>(())
//! ```

pub mod bic;
pub mod interval;
pub mod kmeans;
pub mod lfv;
pub mod loops;
pub mod matrix;
pub mod pca;
pub mod project;
pub mod reference;
pub mod simpoint;
pub mod wss;

pub use interval::{BoundaryProfiler, FixedLengthProfiler, Interval};
pub use loops::{CyclicStructure, LoopMonitor, LoopProfile, LoopProfiler};
pub use matrix::Matrix;
pub use project::RandomProjection;
pub use simpoint::{select, Selection, SimPoint, SimPointConfig, SimPoints};
