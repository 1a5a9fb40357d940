//! Empirical cumulative distribution functions (Figures 4 and 5).

/// One ECDF: sorted sample values with their cumulative fractions.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    /// `(value, F(value))` points, ascending in value.
    pub points: Vec<(f64, f64)>,
}

impl Ecdf {
    /// Builds the ECDF of `values` (non-finite entries discarded).
    pub fn of(values: &[f64]) -> Self {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = sorted.len() as f64;
        let points = sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n))
            .collect();
        Ecdf { points }
    }

    /// `F(x)`: the fraction of samples ≤ `x`.
    pub fn at(&self, x: f64) -> f64 {
        match self
            .points
            .binary_search_by(|(v, _)| v.partial_cmp(&x).expect("finite"))
        {
            Ok(mut i) => {
                // Step to the last equal value.
                while i + 1 < self.points.len() && self.points[i + 1].0 == x {
                    i += 1;
                }
                self.points[i].1
            }
            Err(0) => 0.0,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when built from no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Downsamples to at most `n` evenly spaced points for plotting.
    pub fn downsample(&self, n: usize) -> Vec<(f64, f64)> {
        if self.points.len() <= n || n == 0 {
            return self.points.clone();
        }
        let step = self.points.len() as f64 / n as f64;
        (0..n)
            .map(|i| self.points[((i as f64 + 1.0) * step) as usize - 1])
            .chain(std::iter::once(*self.points.last().expect("non-empty")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_ecdf() {
        let e = Ecdf::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.at(0.5), 0.0);
        assert_eq!(e.at(1.0), 0.25);
        assert_eq!(e.at(2.5), 0.5);
        assert_eq!(e.at(4.0), 1.0);
        assert_eq!(e.at(100.0), 1.0);
    }

    #[test]
    fn duplicate_values_step_together() {
        let e = Ecdf::of(&[1.0, 2.0, 2.0, 2.0, 5.0]);
        assert_eq!(e.at(2.0), 0.8);
        assert_eq!(e.at(1.99), 0.2);
    }

    #[test]
    fn empty_input() {
        let e = Ecdf::of(&[]);
        assert!(e.is_empty());
        assert_eq!(e.at(1.0), 0.0);
    }

    #[test]
    fn downsample_keeps_last_point() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let e = Ecdf::of(&values);
        let d = e.downsample(10);
        assert!(d.len() <= 11);
        assert_eq!(d.last().unwrap().1, 1.0);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let e = Ecdf::of(&[3.0, 1.0, 2.0]);
        let vals: Vec<f64> = e.points.iter().map(|p| p.0).collect();
        assert_eq!(vals, vec![1.0, 2.0, 3.0]);
    }
}
