//! k-means clustering with k-means++ seeding and multiple restarts — the
//! phase classifier SimPoint and COASTS share.
//!
//! The hot path runs Lloyd's algorithm over the flat row-major
//! [`Matrix`] with Hamerly-style triangle-inequality pruning: per point
//! we keep an upper bound on the (Euclidean) distance to its assigned
//! centroid and a lower bound on the distance to the second-closest
//! centroid, and skip the nearest-centroid scan whenever the bounds
//! prove the assignment cannot change. All *decisive* arithmetic —
//! seeding, exact distance evaluation, the centroid update, and the
//! final inertia sum — is performed in exactly the same operations and
//! order as the naive implementation in [`crate::reference`], so the
//! pruned path produces identical assignments, centroids, and inertia;
//! a `#[cfg(test)]` cross-check asserts this on every restart, and
//! `kernel_properties.rs` pins it on randomised inputs. Per-call
//! scratch buffers ([`KMeansScratch`]) are reused across restarts and
//! across a BIC sweep worker's candidates instead of reallocating
//! `vec![vec![0.0; dim]; k]` every iteration.
//!
//! Bound maintenance after a centroid update follows Hamerly (2010):
//! if centroid `c` moved by `δ(c)`, then `upper += δ(assigned)` and
//! `lower -= max_{c ≠ assigned} δ(c)` remain valid bounds by the
//! triangle inequality. A relative slack of [`BOUND_SLACK`] is folded
//! into every comparison so floating-point rounding can only cause a
//! harmless extra exact recompute, never a wrong skip.

use crate::matrix::Matrix;
use crate::project::distance_sq;
use mlpa_isa::rng::SplitMix64;

/// Relative safety margin on the Hamerly skip test. Rounding error in
/// the maintained bounds is ~1 ulp (≈1e-16 relative) per update; a
/// 1e-12 relative margin dwarfs it, and the cost of the margin is at
/// worst a redundant exact distance evaluation.
const BOUND_SLACK: f64 = 1e-12;

/// Result of one k-means clustering.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Cluster index per input point.
    pub assignments: Vec<usize>,
    /// Cluster centroids: row `c` is centroid `c`.
    pub centroids: Matrix,
    /// Sum of squared distances of points to their centroids.
    pub inertia: f64,
    /// Number of clusters (some may be empty only if there were fewer
    /// points than `k`; empty clusters are dissolved otherwise).
    pub k: usize,
}

impl KMeansResult {
    /// Points per cluster.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0; self.k];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }
}

/// Clustering parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansConfig {
    /// Number of random restarts (best inertia wins).
    pub restarts: usize,
    /// Lloyd-iteration cap per restart.
    pub max_iters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig { restarts: 5, max_iters: 100, seed: 0x4B4D4541 }
    }
}

/// Reusable scratch for [`kmeans_with`]: centroid storage, Lloyd-update
/// accumulators, and the Hamerly bound arrays. One instance can be
/// shared across restarts, across a BIC sweep worker's candidates, and
/// across repeated clusterings of different data — every call resizes
/// what it needs and reuses the allocations.
#[derive(Debug, Default)]
pub struct KMeansScratch {
    centroids: Matrix,
    sums: Matrix,
    counts: Vec<usize>,
    prev: Matrix,
    delta: Vec<f64>,
    s_half: Vec<f64>,
    upper: Vec<f64>,
    lower: Vec<f64>,
    assignments: Vec<usize>,
    d2: Vec<f64>,
    dirty: Vec<bool>,
}

impl KMeansScratch {
    /// A fresh scratch (all buffers empty until first use).
    pub fn new() -> KMeansScratch {
        KMeansScratch::default()
    }
}

/// Run k-means on `data` with `k` clusters.
///
/// Convenience wrapper over [`kmeans_with`] that copies the points into
/// a contiguous [`Matrix`] and allocates fresh scratch. Hot callers
/// (the BIC sweep, the fine pass) should build the `Matrix` once and
/// reuse a [`KMeansScratch`].
///
/// If `k >= data.len()`, every point becomes its own cluster.
///
/// # Panics
///
/// Panics if `data` is empty, `k` is zero, or the points have unequal
/// dimensionality.
///
/// # Example
///
/// ```
/// use mlpa_phase::kmeans::{kmeans, KMeansConfig};
///
/// let data = vec![vec![0.0], vec![0.1], vec![10.0], vec![10.1]];
/// let r = kmeans(&data, 2, &KMeansConfig::default());
/// assert_eq!(r.assignments[0], r.assignments[1]);
/// assert_eq!(r.assignments[2], r.assignments[3]);
/// assert_ne!(r.assignments[0], r.assignments[2]);
/// ```
pub fn kmeans(data: &[Vec<f64>], k: usize, cfg: &KMeansConfig) -> KMeansResult {
    assert!(!data.is_empty(), "kmeans needs at least one point");
    kmeans_with(&Matrix::from_rows(data), k, cfg, &mut KMeansScratch::new())
}

/// Run k-means on a contiguous point matrix (one point per row),
/// reusing `scratch` for all intermediate buffers.
///
/// Produces results identical to [`kmeans`] on the same points.
///
/// # Panics
///
/// Panics if `data` has no rows or `k` is zero.
pub fn kmeans_with(
    data: &Matrix,
    k: usize,
    cfg: &KMeansConfig,
    scratch: &mut KMeansScratch,
) -> KMeansResult {
    assert!(data.rows() > 0, "kmeans needs at least one point");
    assert!(k > 0, "k must be positive");
    // No span: the BIC sweep calls this on helper threads, where a span
    // would open without a parent and the self-profile's edge counts
    // would depend on scheduling. The counters below are global.

    if k >= data.rows() {
        // Degenerate: every point its own cluster.
        return KMeansResult {
            assignments: (0..data.rows()).collect(),
            centroids: data.clone(),
            inertia: 0.0,
            k: data.rows(),
        };
    }

    let mut best: Option<KMeansResult> = None;
    let base = SplitMix64::new(cfg.seed);
    for r in 0..cfg.restarts.max(1) {
        let mut rng = base.fork(r as u64);
        let result = lloyd_pruned(data, k, cfg.max_iters, &mut rng, scratch);
        #[cfg(test)]
        {
            // Pruning is an optimisation, not a semantic change: every
            // restart must reproduce the naive Lloyd's result exactly.
            let naive = crate::reference::lloyd_naive(
                &data.to_rows(),
                k,
                cfg.max_iters,
                &mut base.fork(r as u64),
            );
            assert_eq!(result, naive, "pruned restart {r} diverged from naive Lloyd's");
        }
        if best.as_ref().is_none_or(|b| result.inertia < b.inertia) {
            best = Some(result);
        }
    }
    best.expect("at least one restart ran")
}

/// Lloyd's algorithm with Hamerly pruning. Assignment-identical to
/// [`crate::reference::lloyd_naive`] (see the module docs for the
/// argument); the skip test only ever avoids *recomputing* a
/// nearest-centroid scan whose outcome the bounds prove unchanged.
fn lloyd_pruned(
    data: &Matrix,
    k: usize,
    max_iters: usize,
    rng: &mut SplitMix64,
    scratch: &mut KMeansScratch,
) -> KMeansResult {
    let n = data.rows();
    let KMeansScratch {
        centroids,
        sums,
        counts,
        prev,
        delta,
        s_half,
        upper,
        lower,
        assignments,
        d2,
        dirty,
    } = scratch;

    plus_plus_seed(data, k, rng, centroids, d2);
    assignments.clear();
    assignments.resize(n, 0);
    // Per-cluster membership sums and counts persist across iterations;
    // a cluster is "dirty" when its membership changed and its sum must
    // be re-accumulated. Everything starts dirty (stale scratch).
    sums.reset_zeroed(k, data.cols());
    counts.clear();
    counts.resize(k, 0);
    dirty.clear();
    dirty.resize(k, true);
    upper.clear();
    upper.resize(n, 0.0);
    lower.clear();
    lower.resize(n, 0.0);
    // Bounds start unknown; the first iteration does a full
    // nearest-centroid scan, after which they are maintained
    // incrementally (an empty-cluster reseed is just a large centroid
    // motion and propagates through the bounds like any other).
    let mut bounds_valid = false;

    // Local tallies flushed to the obs counters once per call: the
    // assign loop is the hottest code in the crate, so it must never
    // touch a shared atomic per point.
    let (mut obs_iters, mut obs_pruned, mut obs_scanned, mut obs_reseeds) =
        (0u64, 0u64, 0u64, 0u64);

    for _ in 0..max_iters {
        let mut changed = false;
        obs_iters += 1;

        // Assign.
        if bounds_valid {
            // s_half[c]: half the distance from centroid c to its
            // nearest other centroid. If upper[i] ≤ s_half[assigned],
            // no other centroid can be closer (triangle inequality).
            s_half.clear();
            for c in 0..k {
                let mut min_d = f64::INFINITY;
                for o in 0..k {
                    if o != c {
                        let d = centroids.row_distance_sq(c, centroids, o);
                        if d < min_d {
                            min_d = d;
                        }
                    }
                }
                s_half.push(0.5 * min_d.sqrt());
            }
            for i in 0..n {
                let a = assignments[i];
                let bound = s_half[a].max(lower[i]) * (1.0 - BOUND_SLACK);
                if upper[i] <= bound {
                    obs_pruned += 1;
                    continue; // assignment provably unchanged
                }
                // Tighten the upper bound with one exact distance
                // before paying for the full scan.
                upper[i] = distance_sq(data.row(i), centroids.row(a)).sqrt();
                if upper[i] <= bound {
                    obs_pruned += 1;
                    continue;
                }
                obs_scanned += 1;
                let (na, d1, d2nd) = nearest2(data.row(i), centroids);
                if na != a {
                    dirty[a] = true;
                    dirty[na] = true;
                    assignments[i] = na;
                    changed = true;
                }
                upper[i] = d1.sqrt();
                lower[i] = d2nd.sqrt();
            }
        } else {
            for i in 0..n {
                let (na, d1, d2nd) = nearest2(data.row(i), centroids);
                if na != assignments[i] {
                    dirty[assignments[i]] = true;
                    dirty[na] = true;
                    assignments[i] = na;
                    changed = true;
                }
                upper[i] = d1.sqrt();
                lower[i] = d2nd.sqrt();
            }
            obs_scanned += n as u64;
            bounds_valid = true;
        }

        // Update (same arithmetic as the naive path).
        let reseeded =
            update_centroids(data, assignments, k, centroids, sums, counts, prev, delta, dirty);
        if reseeded {
            // Assignments must be refreshed against the reseeded
            // centroid even if none changed this iteration.
            changed = true;
            obs_reseeds += 1;
        }
        // Propagate centroid motion into the bounds: the assigned
        // centroid moved at most delta[a] closer/farther, every other
        // centroid at most the largest delta among them. A reseed
        // teleport is just a large delta — the triangle inequality
        // holds regardless of why a centroid moved, so the bounds stay
        // valid (merely loose near the reseeded cluster).
        let (argmax, d_max, d_second) = top_two(delta);
        for i in 0..n {
            let a = assignments[i];
            upper[i] = (upper[i] + delta[a]) * (1.0 + BOUND_SLACK);
            let drop = if a == argmax { d_second } else { d_max };
            lower[i] = (lower[i] - drop) * (1.0 - BOUND_SLACK);
        }

        if !changed {
            break;
        }
    }

    if mlpa_obs::is_enabled() {
        mlpa_obs::add("phase.kmeans.iterations", obs_iters);
        mlpa_obs::add("phase.kmeans.points_pruned", obs_pruned);
        mlpa_obs::add("phase.kmeans.points_scanned", obs_scanned);
        mlpa_obs::add("phase.kmeans.reseeds", obs_reseeds);
        // Distribution of Lloyd iterations needed per restart —
        // convergence-behaviour drift shows up here before it shows up
        // in wall clock.
        mlpa_obs::hist_record("phase.kmeans.iters_per_restart", "n", obs_iters);
    }

    let inertia = (0..n).map(|i| distance_sq(data.row(i), centroids.row(assignments[i]))).sum();
    KMeansResult { assignments: assignments.clone(), centroids: centroids.clone(), inertia, k }
}

/// Recompute every centroid as the mean of its assigned points,
/// reseeding empty clusters with the point farthest from its own
/// assigned centroid. Returns whether any cluster was reseeded;
/// `delta[c]` holds the Euclidean distance each centroid moved
/// (including reseed teleports).
///
/// This is the *shared semantics* both the pruned path and
/// [`crate::reference::lloyd_naive`] implement: sums accumulated in
/// point order, per-element division by the count, clusters visited in
/// index order (so a reseed sees lower-index centroids already updated
/// and higher-index ones still stale, exactly like the original code).
///
/// As an optimisation, `sums`/`counts` persist across iterations and
/// only `dirty` clusters — those whose membership changed since the
/// last update — are re-accumulated. A clean cluster's recomputation
/// would add the same points in the same order, reproducing its sum
/// bit-for-bit, so skipping it cannot change any result; its centroid
/// does not move and its `delta` is exactly `0.0`. An empty cluster is
/// reseeded on every update whether dirty or not, as the naive path
/// does.
#[allow(clippy::too_many_arguments)]
fn update_centroids(
    data: &Matrix,
    assignments: &[usize],
    k: usize,
    centroids: &mut Matrix,
    sums: &mut Matrix,
    counts: &mut [usize],
    prev: &mut Matrix,
    delta: &mut Vec<f64>,
    dirty: &mut [bool],
) -> bool {
    prev.clone_from(centroids);
    for c in 0..k {
        if dirty[c] {
            sums.row_mut(c).fill(0.0);
            counts[c] = 0;
        }
    }
    for (i, &a) in assignments.iter().enumerate() {
        if dirty[a] {
            counts[a] += 1;
            for (s, &x) in sums.row_mut(a).iter_mut().zip(data.row(i)) {
                *s += x;
            }
        }
    }
    let mut reseeded = false;
    for c in 0..k {
        if counts[c] == 0 {
            // Re-seed an empty cluster with the point farthest from its
            // own assigned centroid. Marked dirty so its teleport shows
            // up in `delta` below.
            let far = farthest_from_own_centroid(data, assignments, centroids);
            centroids.set_row(c, data.row(far));
            dirty[c] = true;
            reseeded = true;
        } else if dirty[c] {
            let cnt = counts[c] as f64;
            for (dst, &s) in centroids.row_mut(c).iter_mut().zip(sums.row(c)) {
                *dst = s / cnt;
            }
        }
    }
    delta.clear();
    for (c, &is_dirty) in dirty.iter().enumerate().take(k) {
        delta.push(if is_dirty { centroids.row_distance_sq(c, prev, c).sqrt() } else { 0.0 });
    }
    dirty.fill(false);
    reseeded
}

/// Index of the point with the largest distance to its own assigned
/// centroid; ties resolve to the highest index (the `max_by` the
/// original implementation used returns the last maximum).
fn farthest_from_own_centroid(data: &Matrix, assignments: &[usize], centroids: &Matrix) -> usize {
    let mut far = 0;
    let mut best = f64::NEG_INFINITY;
    for (i, &a) in assignments.iter().enumerate() {
        let d = distance_sq(data.row(i), centroids.row(a));
        if d >= best {
            best = d;
            far = i;
        }
    }
    far
}

/// Largest and second-largest centroid movement, with the index of the
/// largest (for points assigned to it, the relevant "other centroid"
/// motion is the second largest).
fn top_two(delta: &[f64]) -> (usize, f64, f64) {
    let mut argmax = 0;
    let mut d_max = f64::NEG_INFINITY;
    let mut d_second = f64::NEG_INFINITY;
    for (c, &d) in delta.iter().enumerate() {
        if d > d_max {
            d_second = d_max;
            d_max = d;
            argmax = c;
        } else if d > d_second {
            d_second = d;
        }
    }
    (argmax, d_max.max(0.0), d_second.max(0.0))
}

/// k-means++ seeding: first centroid uniform, then each next centroid
/// drawn with probability proportional to squared distance from the
/// nearest existing centroid. Consumes the RNG in exactly the same
/// sequence as [`crate::reference`]'s seeding.
fn plus_plus_seed(
    data: &Matrix,
    k: usize,
    rng: &mut SplitMix64,
    centroids: &mut Matrix,
    d2: &mut Vec<f64>,
) {
    let n = data.rows();
    centroids.reset_zeroed(0, data.cols());
    centroids.push_row(data.row(rng.range_usize(n)));
    d2.clear();
    for i in 0..n {
        d2.push(distance_sq(data.row(i), centroids.row(0)));
    }
    while centroids.rows() < k {
        let total: f64 = d2.iter().sum();
        let idx = if total <= 0.0 {
            rng.range_usize(n)
        } else {
            let mut target = rng.next_f64() * total;
            let mut pick = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                if target < d {
                    pick = i;
                    break;
                }
                target -= d;
            }
            pick
        };
        centroids.push_row(data.row(idx));
        let last = centroids.rows() - 1;
        for (i, best) in d2.iter_mut().enumerate().take(n) {
            let d = distance_sq(data.row(i), centroids.row(last));
            if d < *best {
                *best = d;
            }
        }
    }
}

/// Index and squared distance of the nearest centroid.
///
/// Ties are deterministic: the comparison is strict (`<`), so the
/// **lowest-index** centroid among equally-near ones wins. This is what
/// lets the pruned assignment loop be asserted identical to the naive
/// one.
pub fn nearest(p: &[f64], centroids: &Matrix) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for c in 0..centroids.rows() {
        let d = distance_sq(p, centroids.row(c));
        if d < best.1 {
            best = (c, d);
        }
    }
    best
}

/// Like [`nearest`], but also returns the squared distance to the
/// second-closest centroid (the seed of the Hamerly lower bound). Same
/// lowest-index-wins tie rule.
fn nearest2(p: &[f64], centroids: &Matrix) -> (usize, f64, f64) {
    let mut best = (0usize, f64::INFINITY);
    let mut second = f64::INFINITY;
    for c in 0..centroids.rows() {
        let d = distance_sq(p, centroids.row(c));
        if d < best.1 {
            second = best.1;
            best = (c, d);
        } else if d < second {
            second = d;
        }
    }
    (best.0, best.1, second)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated Gaussian-ish blobs in 2-D.
    fn blobs() -> Vec<Vec<f64>> {
        let mut rng = SplitMix64::new(99);
        let centers = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]];
        let mut data = Vec::new();
        for c in centers {
            for _ in 0..40 {
                data.push(vec![c[0] + rng.next_gauss() * 0.5, c[1] + rng.next_gauss() * 0.5]);
            }
        }
        data
    }

    #[test]
    fn recovers_separated_blobs() {
        let data = blobs();
        let r = kmeans(&data, 3, &KMeansConfig::default());
        // All points of a blob share one label; labels across blobs
        // differ.
        for blob in 0..3 {
            let first = r.assignments[blob * 40];
            for i in 0..40 {
                assert_eq!(r.assignments[blob * 40 + i], first, "blob {blob} split");
            }
        }
        let mut labels: Vec<usize> = (0..3).map(|b| r.assignments[b * 40]).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn assignments_are_nearest_centroid() {
        let data = blobs();
        let r = kmeans(&data, 3, &KMeansConfig::default());
        for (p, &a) in data.iter().zip(&r.assignments) {
            assert_eq!(nearest(p, &r.centroids).0, a);
        }
    }

    #[test]
    fn inertia_decreases_with_k() {
        let data = blobs();
        let cfg = KMeansConfig::default();
        let i1 = kmeans(&data, 1, &cfg).inertia;
        let i3 = kmeans(&data, 3, &cfg).inertia;
        let i6 = kmeans(&data, 6, &cfg).inertia;
        assert!(i3 < i1 * 0.2, "3 clusters should slash inertia: {i3} vs {i1}");
        assert!(i6 <= i3 + 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blobs();
        let cfg = KMeansConfig::default();
        assert_eq!(kmeans(&data, 3, &cfg), kmeans(&data, 3, &cfg));
    }

    #[test]
    fn scratch_reuse_is_transparent() {
        let data = Matrix::from_rows(&blobs());
        let cfg = KMeansConfig::default();
        let mut scratch = KMeansScratch::new();
        let first = kmeans_with(&data, 3, &cfg, &mut scratch);
        // Dirty the scratch with a different-shaped problem, then rerun.
        let _ = kmeans_with(&data, 7, &cfg, &mut scratch);
        let again = kmeans_with(&data, 3, &cfg, &mut scratch);
        assert_eq!(first, again);
    }

    #[test]
    fn degenerate_k_ge_n() {
        let data = vec![vec![1.0], vec![2.0]];
        let r = kmeans(&data, 5, &KMeansConfig::default());
        assert_eq!(r.k, 2);
        assert_eq!(r.inertia, 0.0);
        assert_eq!(r.assignments, vec![0, 1]);
    }

    #[test]
    fn single_cluster_centroid_is_mean() {
        let data = vec![vec![0.0, 0.0], vec![2.0, 4.0]];
        let r = kmeans(&data, 1, &KMeansConfig::default());
        assert_eq!(r.centroids.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn sizes_sum_to_n() {
        let data = blobs();
        let r = kmeans(&data, 3, &KMeansConfig::default());
        assert_eq!(r.sizes().iter().sum::<usize>(), data.len());
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_data_panics() {
        let _ = kmeans(&[], 1, &KMeansConfig::default());
    }

    #[test]
    fn identical_points_collapse() {
        let data = vec![vec![5.0, 5.0]; 10];
        let r = kmeans(&data, 3, &KMeansConfig::default());
        assert!(r.inertia < 1e-12);
    }

    #[test]
    fn nearest_breaks_ties_by_lowest_index() {
        // p is equidistant from both centroids; index 0 must win.
        let centroids = Matrix::from_rows(&[vec![0.0], vec![2.0]]);
        assert_eq!(nearest(&[1.0], &centroids), (0, 1.0));
        let (a, d1, d2nd) = nearest2(&[1.0], &centroids);
        assert_eq!((a, d1, d2nd), (0, 1.0, 1.0));
        // Three-way tie, shuffled order: still the lowest index.
        let three = Matrix::from_rows(&[vec![2.0], vec![0.0], vec![2.0]]);
        assert_eq!(nearest(&[1.0], &three).0, 0);
    }

    #[test]
    fn reseed_picks_farthest_from_own_centroid() {
        // Regression for the historical bug where the farthest-point
        // search measured every candidate against the *first point's*
        // centroid instead of each point's own. Cluster 0 = {0, 1, 8}
        // (mean 3, farthest member 8.0 at d² = 25); cluster 1 =
        // {100, 101, 102} (mean 101, all within d² ≤ 1); cluster 2 is
        // empty. The correct reseed is 8.0; the buggy search — every
        // distance taken to cluster 0's centroid — would have picked
        // 102.0 (d² = 99² from 3).
        let data = Matrix::from_rows(&[
            vec![0.0],
            vec![1.0],
            vec![8.0],
            vec![100.0],
            vec![101.0],
            vec![102.0],
        ]);
        let assignments = [0, 0, 0, 1, 1, 1];
        let mut centroids = Matrix::from_rows(&[vec![3.0], vec![101.0], vec![50.0]]);
        let (mut sums, mut counts, mut prev, mut delta) =
            (Matrix::zeros(3, 1), vec![0usize; 3], Matrix::default(), Vec::new());
        let mut dirty = vec![true; 3];
        let reseeded = update_centroids(
            &data,
            &assignments,
            3,
            &mut centroids,
            &mut sums,
            &mut counts,
            &mut prev,
            &mut delta,
            &mut dirty,
        );
        assert!(reseeded);
        assert_eq!(centroids.row(0), &[3.0]);
        assert_eq!(centroids.row(1), &[101.0]);
        assert_eq!(centroids.row(2), &[8.0], "reseed must pick the true farthest point");
    }

    #[test]
    fn reseed_exercised_end_to_end() {
        // Duplicate-heavy data with k = 3 forces empty clusters and
        // reseeds on (nearly) every Lloyd iteration; the cfg(test)
        // cross-check inside kmeans_with verifies the pruned path stays
        // identical to naive throughout.
        let mut data = vec![vec![0.0, 0.0]; 8];
        data.push(vec![10.0, 10.0]);
        let r = kmeans(&data, 3, &KMeansConfig::default());
        assert_eq!(r.sizes().iter().sum::<usize>(), 9);
    }
}
