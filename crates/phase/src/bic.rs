//! Bayesian-information-criterion scoring of clusterings, and
//! SimPoint's procedure for choosing the number of phases.
//!
//! SimPoint runs k-means for every `k ≤ Kmax`, scores each clustering
//! with the BIC of a spherical-Gaussian mixture (the X-means
//! formulation of Pelleg & Moore), and picks the *smallest* `k` whose
//! score is at least a threshold (default 90 %) of the best score.
//! When the best score is not positive that ratio is meaningless, and
//! the cut falls back to the same share of the spread between the
//! worst and best scores.
//!
//! The candidate clusterings are independent, so [`choose_k`] runs
//! them on [`mlpa_obs::pool`]: the calling thread plus whatever helper
//! threads the process-wide spare-core budget has free (none on one
//! core). Each worker owns a [`KMeansScratch`] and claims candidates
//! largest `k` first, because Lloyd cost grows with `k`. One worker
//! computes each `k` whole, with the same seeds, restart order and tie
//! rule as a serial sweep, and the pick waits for every score, so the
//! selection is bit-identical for every worker count. The sweep keeps
//! only each candidate's score and inertia; the chosen `k` is clustered
//! again on the calling thread afterwards.

use crate::kmeans::{kmeans_with, KMeansConfig, KMeansResult, KMeansScratch};
use crate::matrix::Matrix;
use crate::project::distance_sq;

/// BIC score of a clustering (bigger is better).
///
/// Uses the X-means spherical-Gaussian likelihood with a pooled
/// maximum-likelihood variance.
///
/// # Panics
///
/// Panics if `data` is empty or the result does not match `data`.
pub fn bic(data: &Matrix, result: &KMeansResult) -> f64 {
    assert!(data.rows() > 0, "bic needs data");
    assert_eq!(data.rows(), result.assignments.len(), "result does not match data");
    let r = data.rows() as f64;
    let m = data.cols() as f64;
    let k = result.k as f64;

    // Pooled MLE variance.
    let sse: f64 = data
        .iter_rows()
        .zip(&result.assignments)
        .map(|(p, &a)| distance_sq(p, result.centroids.row(a)))
        .sum();
    let denom = (r - k).max(1.0) * m;
    let sigma2 = (sse / denom).max(1e-12);

    let sizes = result.sizes();
    let mut loglik = 0.0;
    for &n in &sizes {
        if n == 0 {
            continue;
        }
        let rn = n as f64;
        loglik += rn * (rn.ln() - r.ln())
            - rn * m / 2.0 * (2.0 * std::f64::consts::PI * sigma2).ln()
            - (rn - 1.0) * m / 2.0;
    }
    // Free parameters: k-1 mixing weights, k*m means, 1 variance.
    let params = (k - 1.0) + k * m + 1.0;
    loglik - params / 2.0 * r.ln()
}

/// Result of the k-selection sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct KSelection {
    /// The chosen clustering.
    pub result: KMeansResult,
    /// The chosen k.
    pub k: usize,
    /// BIC score per candidate k (index 0 ↦ k = 1).
    pub scores: Vec<f64>,
}

/// SimPoint's k-selection: cluster for each `k` in `1..=k_max`, score
/// with [`bic`], and return the smallest `k` whose score is at least
/// `threshold` (default 0.9) *of the best score* — the criterion of the
/// original SimPoint (Sherwood et al., ASPLOS 2002). When the best
/// score is not positive the ratio is meaningless, so the selection
/// falls back to covering `threshold` of the min-to-max spread.
///
/// The candidates run on the calling thread plus as many helper threads
/// as the process-wide budget has free (see the module docs); the
/// result does not depend on how many that is.
///
/// # Panics
///
/// Panics if `data` is empty, `k_max` is zero, or `threshold` is outside
/// `[0, 1]`.
///
/// # Example
///
/// ```
/// use mlpa_phase::bic::choose_k;
/// use mlpa_phase::kmeans::KMeansConfig;
/// use mlpa_phase::matrix::Matrix;
///
/// use mlpa_isa::rng::SplitMix64;
///
/// // Two well-separated noisy groups: the sweep settles on k = 2.
/// let mut rng = SplitMix64::new(1);
/// let mut data: Vec<Vec<f64>> = (0..30).map(|_| vec![rng.next_gauss()]).collect();
/// data.extend((0..30).map(|_| vec![50.0 + rng.next_gauss()]));
/// let sel = choose_k(&Matrix::from_rows(&data), 6, 0.9, &KMeansConfig::default());
/// assert_eq!(sel.k, 2);
/// ```
pub fn choose_k(data: &Matrix, k_max: usize, threshold: f64, cfg: &KMeansConfig) -> KSelection {
    choose_k_on(data, k_max, threshold, cfg, None)
}

/// [`choose_k`] on the pool size `workers` picks (see
/// [`mlpa_obs::pool::run`]): `Some(n)` is exactly `n` workers, whatever
/// the helper budget says.
pub(crate) fn choose_k_on(
    data: &Matrix,
    k_max: usize,
    threshold: f64,
    cfg: &KMeansConfig,
    workers: Option<usize>,
) -> KSelection {
    assert!(data.rows() > 0, "choose_k needs data");
    assert!(k_max > 0, "k_max must be positive");
    assert!((0.0..=1.0).contains(&threshold), "threshold must be in [0, 1]");

    let k_hi = k_max.min(data.rows());
    let _span = mlpa_obs::span("phase.bic.sweep");
    mlpa_obs::add("phase.bic.sweeps", 1);
    mlpa_obs::add("phase.bic.candidates", k_hi as u64);
    let (scores, inertias) = sweep(data, k_hi, cfg, workers);
    let lo = scores.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let cut = if hi > 0.0 {
        threshold * hi
    } else if (hi - lo).abs() < 1e-12 {
        lo
    } else {
        lo + threshold * (hi - lo)
    };

    let pick = scores.iter().position(|&s| s >= cut).expect("at least the max clears the cut");
    // k-means is a pure function of (data, k, cfg), so this reproduces
    // the clustering the sweep scored.
    let result = kmeans_with(data, pick + 1, cfg, &mut KMeansScratch::new());
    assert_eq!(
        result.inertia.to_bits(),
        inertias[pick].to_bits(),
        "re-clustering k = {} diverged from the sweep",
        pick + 1
    );
    KSelection { k: result.k, result, scores }
}

/// Cluster and score every `k` in `1..=k_hi` on `workers` workers,
/// returning BIC scores and inertias indexed by `k - 1`.
fn sweep(
    data: &Matrix,
    k_hi: usize,
    cfg: &KMeansConfig,
    workers: Option<usize>,
) -> (Vec<f64>, Vec<f64>) {
    // Task `i` is `k = k_hi - i`: largest `k` first.
    mlpa_obs::pool::run(workers, k_hi, KMeansScratch::new, |scratch, i| {
        let r = kmeans_with(data, k_hi - i, cfg, scratch);
        (bic(data, &r), r.inertia)
    })
    .into_iter()
    .rev()
    .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::kmeans;
    use mlpa_isa::rng::SplitMix64;

    fn blobs(centers: &[[f64; 2]], per: usize, spread: f64, seed: u64) -> Matrix {
        let mut rng = SplitMix64::new(seed);
        let mut data = Matrix::with_capacity(centers.len() * per, 2);
        for c in centers {
            for _ in 0..per {
                data.push_row(&[
                    c[0] + rng.next_gauss() * spread,
                    c[1] + rng.next_gauss() * spread,
                ]);
            }
        }
        data
    }

    #[test]
    fn recovers_true_k_for_separated_blobs() {
        for true_k in 2..=4usize {
            let centers: Vec<[f64; 2]> =
                (0..true_k).map(|i| [20.0 * i as f64, 10.0 * (i % 2) as f64]).collect();
            let data = blobs(&centers, 30, 0.4, 7);
            let sel = choose_k(&data, 8, 0.9, &KMeansConfig::default());
            assert_eq!(sel.k, true_k, "failed to recover k = {true_k}");
        }
    }

    #[test]
    fn one_blob_yields_k1() {
        let data = blobs(&[[0.0, 0.0]], 60, 0.5, 3);
        let sel = choose_k(&data, 6, 0.9, &KMeansConfig::default());
        assert_eq!(sel.k, 1);
    }

    #[test]
    fn bic_prefers_true_k() {
        let data = blobs(&[[0.0, 0.0], [30.0, 0.0], [0.0, 30.0]], 40, 0.5, 5);
        let rows = data.to_rows();
        let cfg = KMeansConfig::default();
        let b2 = bic(&data, &kmeans(&rows, 2, &cfg));
        let b3 = bic(&data, &kmeans(&rows, 3, &cfg));
        let b7 = bic(&data, &kmeans(&rows, 7, &cfg));
        assert!(b3 > b2, "k=3 should beat k=2: {b3} vs {b2}");
        assert!(b3 > b7, "k=3 should beat overfit k=7: {b3} vs {b7}");
    }

    #[test]
    fn k_max_caps_selection() {
        let centers: Vec<[f64; 2]> = (0..6).map(|i| [25.0 * i as f64, 0.0]).collect();
        let data = blobs(&centers, 20, 0.3, 11);
        let sel = choose_k(&data, 3, 0.9, &KMeansConfig::default());
        assert!(sel.k <= 3);
    }

    #[test]
    fn scores_has_one_entry_per_candidate() {
        let data = blobs(&[[0.0, 0.0], [9.0, 9.0]], 20, 0.3, 2);
        let sel = choose_k(&data, 5, 0.9, &KMeansConfig::default());
        assert_eq!(sel.scores.len(), 5);
    }

    #[test]
    fn fewer_points_than_kmax() {
        let data = Matrix::from_rows(&[vec![0.0], vec![100.0]]);
        let sel = choose_k(&data, 30, 0.9, &KMeansConfig::default());
        assert!(sel.k <= 2);
    }

    #[test]
    fn sweep_matches_naive_at_every_worker_count() {
        let cfg = KMeansConfig::default();
        // Six random blobs whose best restarts at k = 6 tie in inertia
        // but label the clusters differently, so the first of them must
        // win.
        let mut rng = SplitMix64::new(1);
        let centers: Vec<[f64; 2]> =
            (0..6).map(|_| [rng.next_f64() * 40.0, rng.next_f64() * 40.0]).collect();
        let blobs = blobs(&centers, 20, 0.6, 13).to_rows();
        let few: Vec<Vec<f64>> = (0..7).map(|_| vec![rng.next_gauss(), rng.next_gauss()]).collect();
        // Every point equal: k-means++ finds no distance mass to sample.
        let duplicates = vec![vec![3.0, -1.0]; 12];
        for (name, rows, k_max) in
            [("blobs", &blobs, 12), ("k_max >= rows", &few, 10), ("duplicates", &duplicates, 6)]
        {
            let naive = crate::reference::choose_k_naive(rows, k_max, 0.9, &cfg);
            for workers in [1, 2, 3, 8] {
                let sel = choose_k_on(&Matrix::from_rows(rows), k_max, 0.9, &cfg, Some(workers));
                assert_eq!(sel, naive, "{name} on {workers} workers");
            }
        }
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_panics() {
        let _ = choose_k(&Matrix::from_rows(&[vec![0.0]]), 2, 1.5, &KMeansConfig::default());
    }
}
