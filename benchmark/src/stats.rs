//! Order statistics for the report: medians, quartiles and tail
//! percentiles.

/// Fewest samples that must lie beyond a tail percentile before it is
/// reported; with fewer, the percentile is mostly one or two outliers.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Lower quartile, median and upper quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads printed here match the ones computed over whole runs.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of nothing");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n as i64 + 1;
    [1i64, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        // Negative for two samples, where Python extrapolates too.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// The median (middle quartile).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Nearest-rank `p`-th percentile (`0 < p < 100`), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    if rank == 0 || v.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// One line of the human-readable report: the median with quartiles
/// and sample count.
pub fn describe(name: &str, values: &[f64], unit: &str) -> String {
    let [q1, q2, q3] = quartiles(values);
    format!("{name} {q2:.6} {unit}  (median; quartiles {q1:.6} .. {q3:.6}; n={})", values.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0, 4.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 89.5), Some(90.0));
        assert_eq!(percentile(&v, 10.0), Some(10.0));
    }

    #[test]
    fn percentile_refuses_with_fewer_than_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples leaves exactly 10 beyond it; p99 leaves 1.
        assert!(percentile(&v, 90.0).is_some());
        assert_eq!(percentile(&v, 99.0), None);
        assert_eq!(percentile(&v[..99], 90.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }
}
