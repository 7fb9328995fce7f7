//! Estimators: medians, quartile spread, the percentile a sample supports.
//!
//! Every time-like figure the benchmark reports is a *median over chunks*
//! of a value already divided by a yardstick measured beside the chunk
//! (see `yardstick.rs`): a disturbed chunk moves one sample, not the
//! estimate, and a slow host phase moves numerator and denominator
//! together.

/// Median of `values` (mean of the two middle elements for even counts).
/// Returns 0 for an empty slice so a pass that measured nothing prints a
/// visible zero instead of panicking in the report.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile by the *exclusive* method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, which is what the driver
/// computes spreads with.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two or more values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    let at = |k: usize| {
        // Position k*(n+1)/4, clamped into [1, n-1], linear interpolation.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median: the spread the
/// driver holds every end-to-end metric's bound against.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Percentile `p` (0..=1) by nearest rank on a sorted copy.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Fewest samples that support percentile `p`: a tail is only reported
/// when at least ten samples lie beyond it.  p99 needs 1000, p95 200.
pub fn samples_needed(p: f64) -> usize {
    (10.0 / (1.0 - p)).round() as usize
}

/// p99 the honest way: latencies are pooled over consecutive chunks into
/// windows of [`samples_needed`] samples (so ten lie beyond the
/// percentile), and the figure is the median of the windows' p99s.
/// `None` when not even one window fills.
pub fn windowed_p99<'a>(chunks: impl IntoIterator<Item = &'a Vec<f64>>) -> Option<f64> {
    let mut tails = Vec::new();
    let mut window: Vec<f64> = Vec::new();
    for chunk in chunks {
        window.extend_from_slice(chunk);
        if window.len() >= samples_needed(0.99) {
            tails.push(percentile(&window, 0.99));
            window.clear();
        }
    }
    if tails.is_empty() {
        None
    } else {
        Some(median(&tails))
    }
}

/// 64-bit FNV-1a — the digest the determinism tests pin request lists
/// with.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// xorshift64* — the benchmark's only randomness, so request lists are a
/// pure function of `--seed` and independent of the repository's own RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` (any value; zero is remapped, xorshift has
    /// no zero state).
    pub fn new(seed: u64) -> Self {
        // splitmix64 finaliser: adjacent seeds give unrelated streams.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Rng(if z == 0 { 0x2545_f491_4f6c_dd1d } else { z })
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform index below `n` (`n` ≥ 1).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_of_chunks_ignores_one_disturbed_chunk() {
        // Nine quiet chunks and one that a noisy neighbour tripled: the
        // mean would move 20 %, the median does not move at all.
        let mut chunks = vec![1.0; 9];
        chunks.push(3.0);
        assert_eq!(median(&chunks), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_needed(0.95), 200);
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.999), 10_000);
    }

    #[test]
    fn windowed_p99_pools_short_chunks_until_the_tail_is_supported() {
        // 200-sample chunks: five are pooled per window.
        let chunk: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(windowed_p99(&vec![chunk.clone(); 4]), None);
        let p99 = windowed_p99(&vec![chunk; 10]).expect("two full windows");
        assert_eq!(p99, 198.0);
    }

    #[test]
    fn rng_streams_are_reproducible_and_seed_dependent() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        let b: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        let mut other = Rng::new(8);
        assert_eq!(a, b);
        assert_ne!(a[0], other.next_u64());
        assert!(Rng::new(0).below(10) < 10);
    }
}
