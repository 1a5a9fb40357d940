//! The one instrument type: [`Histogram`]. Counters and gauges need no
//! type of their own — components keep plain `u64`/`f64` fields and
//! publish them with `record_counter`/`record_gauge`.
//!
//! A histogram is a plain unsynchronized value. The simulator is
//! single-threaded per run, so hot paths pay a few integer adds — no
//! atomics, no locks. Sharing across sweep threads happens at the
//! registry level (each run owns its registry).

/// Number of log-scaled bins: bin 0 holds the value 0, bin `i` (for
/// `i >= 1`) holds values in `[2^(i-1), 2^i)`. 64 bins cover all of
/// `u64`.
pub(crate) const HISTOGRAM_BINS: usize = 65;

/// A histogram over `u64` samples with log-scaled (power-of-two) bins.
///
/// Log bins keep the structure tiny and allocation-free while covering
/// the full dynamic range the simulator needs — retry counts (0..16)
/// and nanosecond latencies (10^6..10^12) share the same shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bins: [u64; HISTOGRAM_BINS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Bin index for a sample: 0 for 0, else `floor(log2(v)) + 1`.
#[inline]
fn bin_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bin `i`.
pub(crate) fn bin_lower_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            bins: [0; HISTOGRAM_BINS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The histogram of samples already binned elsewhere: `low_bins[i]`
    /// samples in bin `i` (0 for the value 0, `[2^(i-1), 2^i)` after
    /// that; bins past the slice are empty), with their sum, smallest
    /// and largest. It equals the histogram that observed those samples
    /// and allocates nothing; `min` and `max` are ignored when there are
    /// no samples.
    ///
    /// # Panics
    /// If `low_bins` is longer than a histogram's 65 bins.
    pub fn from_bins(low_bins: &[u64], sum: u64, min: u64, max: u64) -> Self {
        let mut h = Histogram::new();
        h.bins[..low_bins.len()].copy_from_slice(low_bins);
        h.count = low_bins.iter().sum();
        h.sum = sum;
        if h.count > 0 {
            (h.min, h.max) = (min, max);
        }
        h
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.bins[bin_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, if any samples were recorded.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Approximate quantile (`0.0..=1.0`): the lower bound of the bin
    /// containing the q-th sample. Exact for values that are powers of
    /// two or zero; otherwise within a factor of two.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bin_lower_bound(i));
            }
        }
        Some(bin_lower_bound(HISTOGRAM_BINS - 1))
    }

    fn nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bin_lower_bound(i), c))
    }

    /// Adds every sample of `other` into this histogram (bin-wise; the
    /// drivers use it to aggregate per-gate distributions into one
    /// run-wide row at snapshot boundaries).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }

    /// A frozen copy suitable for storing in a snapshot series.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut s = HistogramSnapshot::default();
        self.snapshot_into(&mut s);
        s
    }

    /// [`Histogram::snapshot`] into `out`, reusing its bin buffer: the
    /// registry's republish of a known histogram allocates only when it
    /// has more non-empty bins than the buffer has held before.
    pub(crate) fn snapshot_into(&self, out: &mut HistogramSnapshot) {
        out.count = self.count;
        out.sum = self.sum;
        out.min = self.min();
        out.max = self.max();
        out.bins.clear();
        out.bins.extend(self.nonzero());
    }
}

/// A frozen histogram: counts per non-empty log bin plus summary stats.
/// The default is the snapshot of an empty histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample, if any.
    pub min: Option<u64>,
    /// Largest sample, if any.
    pub max: Option<u64>,
    /// `(bin_lower_bound, count)` for every non-empty bin, ascending.
    pub bins: Vec<(u64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_index_is_log2() {
        assert_eq!(bin_index(0), 0);
        assert_eq!(bin_index(1), 1);
        assert_eq!(bin_index(2), 2);
        assert_eq!(bin_index(3), 2);
        assert_eq!(bin_index(4), 3);
        assert_eq!(bin_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BINS {
            let lo = bin_lower_bound(i);
            assert_eq!(bin_index(lo), i, "lower bound of bin {i} maps back");
        }
    }

    #[test]
    fn histogram_summary_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        for v in [0, 1, 2, 3, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.mean(), Some(1006.0 / 5.0));
        // Median sample is 2, which lives in bin [2, 4).
        assert_eq!(h.quantile(0.5), Some(2));
        // The largest sample (1000) lives in bin [512, 1024).
        assert_eq!(h.quantile(1.0), Some(512));
    }

    #[test]
    fn histogram_merge_is_samplewise_union() {
        let mut a = Histogram::new();
        a.observe(1);
        a.observe(100);
        let mut b = Histogram::new();
        b.observe(0);
        b.observe(7);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 108);
        assert_eq!(a.min(), Some(0));
        assert_eq!(a.max(), Some(100));
        // Merging an empty histogram changes nothing (min stays valid).
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
    }

    #[test]
    fn from_bins_equals_the_observed_histogram() {
        assert_eq!(Histogram::from_bins(&[0; 4], 0, 3, 9), Histogram::new());
        let mut h = Histogram::new();
        for v in [0, 1, 3, 3, 6] {
            h.observe(v);
        }
        assert_eq!(Histogram::from_bins(&[1, 1, 2, 1], 13, 0, 6), h);
        let full = [1; HISTOGRAM_BINS];
        assert_eq!(Histogram::from_bins(&full, 7, 0, u64::MAX).count(), 65);
    }

    #[test]
    fn histogram_snapshot_round_trips_bins() {
        let mut h = Histogram::new();
        h.observe(0);
        h.observe(5);
        h.observe(5);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.bins, vec![(0, 1), (4, 2)]);
    }
}
