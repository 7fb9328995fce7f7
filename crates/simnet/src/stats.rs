//! Statistics collectors used by the experiments.
//!
//! Two collectors cover everything the figures need: [`SampleSet`] (stores
//! samples for exact percentiles — the figure series report means and 95th
//! percentiles of response time) and [`Histogram`] (fixed-width bins, used
//! for the Figure 9 CPU-time distribution).

use crate::time::SimDuration;

/// Stores raw samples for exact percentile queries.
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    samples: Vec<f64>,
    sorted: bool,
}

impl SampleSet {
    /// An empty sample set.
    pub fn new() -> Self {
        SampleSet {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Adds a duration sample, in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            self.sorted = true;
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) using nearest-rank interpolation.
    /// Returns zero when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.samples.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            self.samples[lo]
        } else {
            let frac = pos - lo as f64;
            self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac
        }
    }

    /// Median, a convenience wrapper around [`SampleSet::quantile`].
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// The raw samples (unsorted insertion order is not preserved once a
    /// quantile has been computed).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// A fixed-width histogram over `[0, bin_width * bins)` with an overflow bin.
#[derive(Debug, Clone)]
pub struct Histogram {
    bin_width: f64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` bins of `bin_width` each.
    pub fn new(bin_width: f64, bins: usize) -> Self {
        Histogram {
            bin_width: if bin_width > 0.0 { bin_width } else { 1.0 },
            counts: vec![0; bins.max(1)],
            overflow: 0,
            total: 0,
        }
    }

    /// Adds one observation.  Negative values land in the first bin.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        let idx = if x <= 0.0 {
            0
        } else {
            (x / self.bin_width) as usize
        };
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Number of bins (excluding overflow).
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// Count in bin `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts.get(i).copied().unwrap_or(0)
    }

    /// Count of observations beyond the last bin.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Iterator over `(bin_lower_bound, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &c)| (i as f64 * self.bin_width, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_known_set() {
        let mut s = SampleSet::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.record(x);
        }
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(s.median(), 3.0);
        assert!((s.quantile(0.25) - 2.0).abs() < 1e-12);
        assert!((s.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_on_empty_is_zero() {
        let mut s = SampleSet::new();
        assert_eq!(s.quantile(0.5), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn quantile_interpolates() {
        let mut s = SampleSet::new();
        s.record(0.0);
        s.record(10.0);
        assert!((s.quantile(0.5) - 5.0).abs() < 1e-12);
        assert!((s.quantile(0.9) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(1.0, 10);
        for x in [0.5, 1.5, 1.7, 9.9, 10.0, 50.0, -3.0] {
            h.record(x);
        }
        assert_eq!(h.total(), 7);
        assert_eq!(h.count(0), 2); // 0.5 and the clamped -3.0
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(9), 1);
        assert_eq!(h.overflow(), 2); // 10.0 and 50.0
    }

    #[test]
    fn histogram_iter_reports_bin_edges() {
        let mut h = Histogram::new(2.0, 3);
        h.record(3.0);
        let bins: Vec<(f64, u64)> = h.iter().collect();
        assert_eq!(bins.len(), 3);
        assert_eq!(bins[0], (0.0, 0));
        assert_eq!(bins[1], (2.0, 1));
        assert_eq!(bins[2], (4.0, 0));
    }

    #[test]
    fn histogram_guards_degenerate_parameters() {
        let mut h = Histogram::new(0.0, 0);
        h.record(5.0);
        assert_eq!(h.bins(), 1);
        assert_eq!(h.bin_width(), 1.0);
        assert_eq!(h.total(), 1);
        assert_eq!(h.count(0) + h.overflow(), 1);
    }
}
