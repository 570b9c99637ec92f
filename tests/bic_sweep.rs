//! The BIC k-sweep on a real profile. `choose_k` spreads its candidate
//! clusterings over the host's free cores, so on any multi-core host
//! this runs the pooled path; the selection must still equal the naive
//! serial reference bit for bit.

use mlpa::core::pipeline::{profile_fixed, ProjectionSettings, FINE_INTERVAL};
use mlpa::phase::bic::choose_k;
use mlpa::phase::reference::choose_k_naive;
use mlpa::phase::{Matrix, SimPointConfig};
use mlpa::workloads::{suite, CompiledBenchmark};

#[test]
fn pooled_sweep_matches_naive_on_quick_eon() {
    // eon at the quick experiment's size.
    let spec = suite::benchmark_with_iters("eon", 2).expect("eon is in the suite").scaled(0.5);
    let cb = CompiledBenchmark::compile(&spec).expect("compiles");
    let proj = ProjectionSettings::default().build(&cb);
    let rows: Vec<Vec<f64>> =
        profile_fixed(&cb, FINE_INTERVAL, &proj).into_iter().map(|iv| iv.vector).collect();
    let cfg = SimPointConfig::fine_10m();
    assert_eq!(cfg.k_max, 30);

    let pooled = choose_k(&Matrix::from_rows(&rows), cfg.k_max, cfg.bic_threshold, &cfg.kmeans);
    let naive = choose_k_naive(&rows, cfg.k_max, cfg.bic_threshold, &cfg.kmeans);
    assert_eq!(pooled, naive);
}
