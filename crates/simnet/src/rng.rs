//! Deterministic pseudo-random number generation for the simulations.
//!
//! Every experiment in the benchmark harness must be reproducible from a
//! single `u64` seed, so the kernel ships its own small generator instead of
//! depending on an external crate whose output could change between versions.
//! The generator is xoshiro256++ (Blackman & Vigna), seeded through
//! SplitMix64 — the standard recommendation for initialising xoshiro state.
//!
//! Besides uniform variates the module provides the handful of distributions
//! the ActYP workloads need: exponential inter-arrival times, normal and
//! lognormal service times, and Pareto tails for the CPU-time distribution of
//! Figure 9.

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ pseudo-random number generator.
///
/// The generator is `Clone` so that callers can fork reproducible
/// sub-streams; prefer [`Rng::split`] for that, which decorrelates the child
/// stream from the parent.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro must not be seeded with all zeros; splitmix64 of any seed
        // cannot produce four zero words, but guard anyway.
        if s == [0, 0, 0, 0] {
            Rng { s: [1, 2, 3, 4] }
        } else {
            Rng { s }
        }
    }

    /// Derives an independent child generator.  The child is seeded from the
    /// parent's output stream, so repeated calls yield distinct streams while
    /// remaining a pure function of the original seed.
    pub fn split(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `(0, 1]`; never returns zero (safe for `ln`).
    pub fn f64_open(&mut self) -> f64 {
        1.0 - self.f64()
    }

    /// Uniform integer in `[0, bound)`.  `bound` of zero returns zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Lemire's nearly-divisionless method with rejection for exactness.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform usize in `[0, bound)`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[cfg(test)]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.below(hi - lo + 1)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli trial with probability `p` of returning `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponentially distributed variate with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * self.f64_open().ln()
    }

    /// Standard normal variate (Box–Muller transform).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = self.f64_open();
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal variate with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Lognormal variate: `exp(N(mu, sigma))`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Pareto variate with scale `x_min` and shape `alpha`.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        x_min / self.f64_open().powf(1.0 / alpha)
    }

    /// Fisher–Yates shuffle of a slice.
    #[cfg(test)]
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a slice, if any.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.index(items.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn split_streams_are_deterministic_and_distinct() {
        let mut parent1 = Rng::new(7);
        let mut parent2 = Rng::new(7);
        let mut c1 = parent1.split();
        let mut c2 = parent2.split();
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut sibling = parent1.split();
        assert_ne!(c1.next_u64(), sibling.next_u64());
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Rng::new(11);
        for bound in [1u64, 2, 3, 7, 10, 1000] {
            for _ in 0..1000 {
                assert!(rng.below(bound) < bound);
            }
        }
        assert_eq!(rng.below(0), 0);
    }

    #[test]
    fn below_covers_small_ranges() {
        let mut rng = Rng::new(5);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_u64_inclusive() {
        let mut rng = Rng::new(9);
        for _ in 0..1000 {
            let v = rng.range_u64(10, 12);
            assert!((10..=12).contains(&v));
        }
        assert_eq!(rng.range_u64(5, 5), 5);
        assert_eq!(rng.range_u64(9, 3), 9);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = Rng::new(21);
        let n = 200_000;
        let mean = 4.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let observed = sum / n as f64;
        assert!(
            (observed - mean).abs() < 0.05 * mean,
            "observed mean {observed}"
        );
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = Rng::new(22);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0);
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn pareto_respects_scale() {
        let mut rng = Rng::new(23);
        for _ in 0..10_000 {
            assert!(rng.pareto(3.0, 1.5) >= 3.0);
        }
    }

    #[test]
    fn lognormal_is_positive_and_skewed() {
        let mut rng = Rng::new(24);
        let samples: Vec<f64> = (0..50_000).map(|_| rng.lognormal(1.0, 1.0)).collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!(mean > median, "lognormal should be right-skewed");
    }

    #[test]
    fn chance_probability_is_close() {
        let mut rng = Rng::new(25);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.chance(0.3)).count();
        let p = hits as f64 / n as f64;
        assert!((p - 0.3).abs() < 0.01, "observed {p}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::new(26);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn choose_on_empty_is_none() {
        let mut rng = Rng::new(27);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        assert_eq!(rng.choose(&[42u8]), Some(&42));
    }
}
