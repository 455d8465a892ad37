//! Order statistics and a seeded generator for the benchmark's inputs.

/// The `q`-quantile of `xs` (linear interpolation between closest
/// ranks, the numpy default); `0.0` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The quantile of per-pass (or per-window) figures that a run reports
/// for times: the fast quartile. On a shared host, a run's passes mix
/// uncontended ones with passes slowed by neighbours: set-up times were
/// seen to jump 1.7x and back within one run. The fast quartile tracks
/// the uncontended speed and varies far less between runs than the
/// median does. Rates use the mirror quantile, `1 - FAST`.
pub const FAST: f64 = 0.25;

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Distance between the first and third quartiles as a share of the
/// median (`0.0` when the median is zero).
pub fn rel_iqr(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
    }
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// SplitMix64: a tiny seeded generator. Every input the benchmark
/// builds from `--seed` comes from one of these, so equal seeds give
/// equal inputs on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_0fbe_4c4a_1100)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct values from `1..=pool`, in ascending order.
    pub fn pick_seeds(&mut self, pool: u64, k: usize) -> Vec<u64> {
        let mut all: Vec<u64> = (1..=pool).collect();
        for i in (1..all.len()).rev() {
            all.swap(i, self.below(i + 1));
        }
        let mut out: Vec<u64> = all.into_iter().take(k).collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn seed_picks_are_distinct_and_repeatable() {
        let a = Rng::new(7).pick_seeds(8, 3);
        assert_eq!(a, Rng::new(7).pick_seeds(8, 3));
        assert_eq!(a.len(), 3);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&s| (1..=8).contains(&s)));
    }
}
