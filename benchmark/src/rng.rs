//! The harness's own generator: inputs must stay identical for a given
//! `--seed` even if the workspace's `rand` shim changes, and files under
//! `benchmark/` are frozen for later PRs while the shim is not.

/// SplitMix64 (Steele, Lea & Flood 2014): one add, two multiplies.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`tag`) of one run: client
    /// threads and pools draw from separate streams so adding a draw in
    /// one place cannot shift another's inputs.
    pub fn stream(seed: u64, tag: u64) -> Self {
        let mut r = Rng(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`) by multiply-shift; the bias is below
    /// 2^-32 for every `n` the harness uses.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(`s`) over ranks `0..n`: rank `k` is drawn with weight
/// `(k+1)^-s`. Sampling is a binary search on the cumulative table.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty support");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += ((k + 1) as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_tags_differ() {
        let a: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::stream(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::stream(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::stream(7, 2), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn below_stays_in_range_and_zipf_favours_low_ranks() {
        let mut r = Rng::stream(1, 0);
        assert!((0..10_000).all(|_| r.below(17) < 17));
        let z = Zipf::new(1000, 1.1);
        let draws: Vec<usize> = (0..20_000).map(|_| z.sample(&mut r)).collect();
        assert!(draws.iter().all(|&k| k < 1000));
        let top10 = draws.iter().filter(|&&k| k < 10).count();
        let bottom500 = draws.iter().filter(|&&k| k >= 500).count();
        assert!(top10 > bottom500, "top10={top10} bottom500={bottom500}");
    }
}
