//! Order statistics.

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of `values` using linear
/// interpolation between closest ranks, or `None` for empty input.
/// `values` need not be sorted; a sorted copy is made internally.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    Some(quantile_sorted(&sorted, q))
}

/// Quantile over an already-sorted slice (ascending, finite, non-empty).
pub(crate) fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The arithmetic mean, or `None` for empty input.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Median convenience wrapper.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Summary of a latency distribution: the quantiles the paper plots
/// (median, mean, 75th, 90th).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Median (50th percentile).
    pub median: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
}

impl LatencySummary {
    /// Summarizes `values`, or `None` when empty.
    pub fn of(values: &[f64]) -> Option<Self> {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Some(LatencySummary {
            count: sorted.len(),
            median: quantile_sorted(&sorted, 0.5),
            mean: mean(&sorted).expect("non-empty"),
            p75: quantile_sorted(&sorted, 0.75),
            p90: quantile_sorted(&sorted, 0.90),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
    }

    #[test]
    fn extreme_quantiles_are_min_max() {
        let v = [5.0, 1.0, 9.0, 3.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(9.0));
    }

    #[test]
    fn interpolation_between_ranks() {
        // Sorted: [10, 20]; 0.75-quantile = 17.5.
        assert_eq!(quantile(&[20.0, 10.0], 0.75), Some(17.5));
    }

    #[test]
    fn empty_and_invalid_inputs() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[1.0], 1.5), None);
        assert_eq!(mean(&[]), None);
        assert_eq!(LatencySummary::of(&[]), None);
    }

    #[test]
    fn non_finite_values_are_ignored() {
        assert_eq!(median(&[1.0, f64::NAN, 3.0]), Some(2.0));
    }

    #[test]
    fn summary_fields_are_ordered() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencySummary::of(&values).unwrap();
        assert_eq!(s.count, 100);
        assert!(s.median <= s.p75 && s.p75 <= s.p90);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn single_sample() {
        let s = LatencySummary::of(&[42.0]).unwrap();
        assert_eq!(s.median, 42.0);
        assert_eq!(s.p90, 42.0);
    }
}
