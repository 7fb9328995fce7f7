//! The PUNCH CPU-time distribution (Figure 9).
//!
//! Figure 9 plots the distribution of measured CPU times for 236,222 PUNCH
//! runs: the mass sits at a few seconds (the Y axis is truncated at 19,756
//! runs for the fullest one-second bin), while the tail extends beyond 10⁶
//! seconds.  We model that shape as a mixture: a lognormal body describing
//! the interactive/short simulation runs and a Pareto tail describing the
//! long batch computations.  The generator exists so the same code paths the
//! production system exercised (job-length-aware scheduling, shared-account
//! fast paths) can be driven with realistic inputs.

use actyp_simnet::{Histogram, Rng};

/// One sampled run length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuTimeSample {
    /// CPU seconds on the reference machine.
    pub cpu_seconds: f64,
    /// Whether the sample came from the heavy tail (long batch job).
    pub from_tail: bool,
}

/// The mixture distribution.
#[derive(Debug, Clone)]
pub struct CpuTimeDistribution {
    /// Lognormal `mu` of the body (log of seconds).
    pub body_mu: f64,
    /// Lognormal `sigma` of the body.
    pub body_sigma: f64,
    /// Probability that a run comes from the Pareto tail.
    pub tail_probability: f64,
    /// Pareto scale (minimum tail run length, seconds).
    pub tail_scale: f64,
    /// Pareto shape (smaller means heavier tail).
    pub tail_shape: f64,
    /// Hard cap applied to samples, matching the >10⁶-second extent the
    /// paper reports (0 disables the cap).
    pub cap_seconds: f64,
}

impl Default for CpuTimeDistribution {
    fn default() -> Self {
        Self::punch()
    }
}

impl CpuTimeDistribution {
    /// Parameters fitted by eye to Figure 9: a mode of a few seconds, a
    /// median well under a minute, and a tail reaching past 10⁶ seconds.
    pub fn punch() -> Self {
        CpuTimeDistribution {
            body_mu: 1.6, // e^1.6 ≈ 5 s median for the body
            body_sigma: 1.4,
            tail_probability: 0.015,
            tail_scale: 600.0,
            tail_shape: 0.9,
            cap_seconds: 3.0e6,
        }
    }

    /// Draws one run length.
    pub fn sample(&self, rng: &mut Rng) -> CpuTimeSample {
        let from_tail = rng.chance(self.tail_probability);
        let mut cpu_seconds = if from_tail {
            self.tail_scale.max(1e-3) * rng.pareto(1.0, self.tail_shape.max(0.05))
        } else {
            rng.lognormal(self.body_mu, self.body_sigma)
        };
        if self.cap_seconds > 0.0 {
            cpu_seconds = cpu_seconds.min(self.cap_seconds);
        }
        CpuTimeSample {
            cpu_seconds,
            from_tail,
        }
    }

    /// Draws `n` run lengths.
    pub fn sample_many(&self, rng: &mut Rng, n: usize) -> Vec<CpuTimeSample> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Builds the Figure 9 histogram: one-second bins over `[0, bins)`
    /// seconds plus an overflow count, from `n` sampled runs.
    pub fn histogram(&self, rng: &mut Rng, n: usize, bins: usize) -> Histogram {
        let mut histogram = Histogram::new(1.0, bins);
        for _ in 0..n {
            histogram.record(self.sample(rng).cpu_seconds);
        }
        histogram
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Vec<CpuTimeSample> {
        let mut rng = Rng::new(0xF19);
        CpuTimeDistribution::punch().sample_many(&mut rng, n)
    }

    #[test]
    fn samples_are_positive_and_capped() {
        let dist = CpuTimeDistribution::punch();
        for s in samples(50_000) {
            assert!(s.cpu_seconds > 0.0);
            assert!(s.cpu_seconds <= dist.cap_seconds);
        }
    }

    #[test]
    fn most_runs_are_short() {
        let xs = samples(100_000);
        let under_100s = xs.iter().filter(|s| s.cpu_seconds < 100.0).count();
        let frac = under_100s as f64 / xs.len() as f64;
        assert!(frac > 0.85, "short-job fraction {frac} should dominate");
    }

    #[test]
    fn the_tail_reaches_very_long_runs() {
        let xs = samples(200_000);
        let beyond_1e5 = xs.iter().filter(|s| s.cpu_seconds > 1e5).count();
        assert!(
            beyond_1e5 > 0,
            "a production-size sample must contain huge runs"
        );
    }

    #[test]
    fn distribution_is_right_skewed() {
        let xs = samples(100_000);
        let mean = xs.iter().map(|s| s.cpu_seconds).sum::<f64>() / xs.len() as f64;
        let mut sorted: Vec<f64> = xs.iter().map(|s| s.cpu_seconds).collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = sorted[sorted.len() / 2];
        assert!(
            mean > 3.0 * median,
            "mean {mean} must dwarf median {median} for a Figure-9-like shape"
        );
    }

    #[test]
    fn tail_probability_is_respected() {
        let xs = samples(100_000);
        let tail = xs.iter().filter(|s| s.from_tail).count() as f64 / xs.len() as f64;
        assert!((tail - 0.015).abs() < 0.004, "tail fraction {tail}");
    }

    #[test]
    fn histogram_mode_is_in_the_first_seconds() {
        let mut rng = Rng::new(7);
        let h = CpuTimeDistribution::punch().histogram(&mut rng, 100_000, 1_000);
        let (mode, _) = h
            .iter()
            .enumerate()
            .max_by_key(|(_, (_, count))| *count)
            .unwrap();
        assert!(
            mode < 10,
            "mode bin {mode} should be within the first ten seconds"
        );
        assert!(
            h.overflow() > 0,
            "some runs exceed the 1,000-second plot range"
        );
        assert_eq!(h.total(), 100_000);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let dist = CpuTimeDistribution::punch();
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(dist.sample(&mut a), dist.sample(&mut b));
        }
    }
}
