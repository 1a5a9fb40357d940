//! Order statistics for the harness's own samples. Kept here rather than
//! borrowed from `dike-stats`, which is one of the layers being measured.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`: the smallest
/// sample with at least `p` percent of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice, a NaN, or `p` outside 0..=100.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} outside 0..=100");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `(max - min) / median`: how far apart a run's repetitions were.
pub fn relative_spread(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (hi - lo) / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0, 1.0], 50.0), 1.0);
        assert_eq!(percentile(&[5.0, 1.0], 51.0), 5.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(relative_spread(&[9.0, 10.0, 11.0]), 0.2);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
