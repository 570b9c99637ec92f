#![warn(missing_docs)]

//! Experiment harness for the `mlpa` reproduction: everything needed to
//! regenerate the paper's tables and figures.
//!
//! * [`harness`] — runs all three sampling methods over the suite under
//!   both Table I configurations and collects per-benchmark results;
//! * [`report`] — renders Table II, Table III, Fig. 3, Fig. 4, and the
//!   §III-B motivation statistics from a result set;
//! * [`fig1`] — computes and renders the Fig. 1 phase curves;
//! * [`ablation`] — the ablation and extension tables, each on its own
//!   pinned program.
//!
//! The `mlpa-experiments` binary drives all of these; `benches/` holds
//! only the substrate microbenchmarks.

pub mod ablation;
pub mod fig1;
pub mod harness;
pub mod report;

pub use harness::{BenchResult, Experiment, Method};
