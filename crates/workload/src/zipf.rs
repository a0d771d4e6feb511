//! Zipf-distributed discrete sampling.
//!
//! Activity-type popularity in Grid workloads is heavily skewed: a few
//! codes (the paper's JPOVray, Wien2k) dominate while a long tail of
//! niche activities sees occasional traffic. The engine models this with
//! a Zipf law over the activity catalogue: rank `k` (1-based) is drawn
//! with probability proportional to `1 / k^s`.
//!
//! The sampler precomputes the cumulative distribution once and answers
//! each draw with a binary search — no per-draw allocation, no
//! per-draw harmonic sums.

use glare_fabric::SimRng;

/// A precomputed Zipf sampler over `n` ranks.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    /// Cumulative probabilities; `cdf[k]` = P(rank <= k+1). Last is 1.0.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Sampler over `n` ranks with exponent `s`.
    ///
    /// `s = 0` degenerates to uniform; `s ≈ 1` is the classic web/Grid
    /// popularity curve. `n` must be positive and `s` non-negative.
    pub(crate) fn new(n: usize, s: f64) -> ZipfSampler {
        assert!(n > 0, "ZipfSampler needs at least one rank");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for c in cdf.iter_mut() {
            *c /= total;
        }
        // Guard against floating-point shortfall at the top end.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        ZipfSampler { cdf }
    }

    /// Draw a 0-based rank (0 = most popular).
    pub(crate) fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.unit();
        // First index whose cumulative probability covers `u`.
        match self.cdf.binary_search_by(|c| {
            c.partial_cmp(&u).expect("cdf entries are finite")
        }) {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Probability mass of 0-based rank `k`.
    fn mass(z: &ZipfSampler, k: usize) -> f64 {
        if k == 0 {
            z.cdf[0]
        } else {
            z.cdf[k] - z.cdf[k - 1]
        }
    }

    #[test]
    fn masses_sum_to_one() {
        let z = ZipfSampler::new(10, 1.0);
        let total: f64 = (0..10).map(|k| mass(&z, k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn frequency_follows_rank_order() {
        // Satellite: Zipf sampler frequency-rank sanity. With s=1 over 8
        // ranks, empirical counts must be monotone non-increasing in rank
        // (allowing tiny tail noise) and rank 0 must dominate.
        let z = ZipfSampler::new(8, 1.0);
        let mut rng = SimRng::from_seed(42);
        let mut counts = [0usize; 8];
        let draws = 40_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts.iter().sum::<usize>() == draws);
        // Head dominates: rank 0 holds ~1/H(8) ≈ 0.368 of the mass.
        assert!(counts[0] as f64 / draws as f64 > 0.3);
        // Monotone in the head where counts are large enough to be stable.
        for k in 0..4 {
            assert!(
                counts[k] > counts[k + 1],
                "rank {k} ({}) should outdraw rank {} ({})",
                counts[k],
                k + 1,
                counts[k + 1],
            );
        }
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = ZipfSampler::new(4, 0.0);
        for k in 0..4 {
            assert!((mass(&z, k) - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn single_rank_always_zero() {
        let z = ZipfSampler::new(1, 1.2);
        let mut rng = SimRng::from_seed(1);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn same_seed_same_draws() {
        let z = ZipfSampler::new(16, 0.9);
        let mut a = SimRng::from_seed(7);
        let mut b = SimRng::from_seed(7);
        for _ in 0..500 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }
}
