//! Small, dependency-free samplers for the distributions the trace
//! generator needs (Poisson, log-normal, exponential, truncated normal,
//! discrete weighted choice).
//!
//! The offline dependency set does not include `rand_distr`, so these are
//! implemented from first principles; each sampler carries unit tests
//! pinning its moments on a seeded stream.

use rand::Rng;

/// Draws a standard normal via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0).
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Normal with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    mean + sd * standard_normal(rng)
}

/// Normal truncated to `[lo, hi]` by resampling (max 64 tries, then clamp).
pub fn truncated_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo <= hi);
    for _ in 0..64 {
        let x = normal(rng, mean, sd);
        if (lo..=hi).contains(&x) {
            return x;
        }
    }
    normal(rng, mean, sd).clamp(lo, hi)
}

/// Log-normal with median `m = exp(ln_median)` and shape `sigma` (the
/// sd of the underlying normal). Mean is `m * exp(sigma^2 / 2)`. Callers
/// pass `ln(m)` so a fixed median costs one `ln` per profile, not one
/// per draw.
pub fn log_normal<R: Rng + ?Sized>(rng: &mut R, ln_median: f64, sigma: f64) -> f64 {
    (ln_median + sigma * standard_normal(rng)).exp()
}

/// Exponential with the given mean (`1/rate`).
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    debug_assert!(mean > 0.0);
    let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    -mean * u.ln()
}

/// Poisson distribution. Knuth's product method for small means; for
/// large means a rounded normal approximation (fine for count
/// generation). [`Poisson::new`] computes Knuth's `exp(-mean)` limit,
/// so a fixed mean pays for it once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    mean: f64,
    /// `exp(-mean)` when `0 < mean < 30`.
    limit: f64,
}

impl Poisson {
    /// Poisson with the given mean; a mean ≤ 0 always samples 0.
    pub fn new(mean: f64) -> Self {
        let limit = if mean > 0.0 && mean < 30.0 {
            (-mean).exp()
        } else {
            0.0
        };
        Poisson { mean, limit }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.mean <= 0.0 {
            return 0;
        }
        if self.mean < 30.0 {
            let mut k = 0u64;
            let mut p = 1.0f64;
            loop {
                p *= rng.random::<f64>();
                if p <= self.limit {
                    return k;
                }
                k += 1;
            }
        } else {
            normal(rng, self.mean, self.mean.sqrt()).round().max(0.0) as u64
        }
    }
}

/// Bounded Pareto (power-law) on `[lo, hi]` with shape `alpha > 0`.
/// Heavy-tailed sizes for content downloads.
pub fn bounded_pareto<R: Rng + ?Sized>(rng: &mut R, alpha: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(alpha > 0.0 && lo > 0.0 && hi > lo);
    let u: f64 = rng.random();
    let la = lo.powf(alpha);
    let ha = hi.powf(alpha);
    // Inverse CDF of the bounded Pareto.
    (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
}

/// Samples an index proportionally to `weights` (need not be normalized).
/// `total` is [`positive_sum`] of `weights`, passed in so a weight table
/// that is reused pays for it once. Returns `None` when all weights are
/// zero or the slice is empty.
pub fn weighted_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64], total: f64) -> Option<usize> {
    debug_assert_eq!(total, positive_sum(weights));
    if total <= 0.0 {
        return None;
    }
    let mut x = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if w <= 0.0 {
            continue;
        }
        x -= w;
        if x <= 0.0 {
            return Some(i);
        }
    }
    // Floating-point slack: return last positive-weight index.
    weights.iter().rposition(|&w| w > 0.0)
}

/// The sum of the positive entries of `weights`.
pub fn positive_sum(weights: &[f64]) -> f64 {
    weights.iter().copied().filter(|w| *w > 0.0).sum()
}

/// Bernoulli trial with probability `p` (clamped to `[0,1]`).
pub fn coin<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    rng.random::<f64>() < p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x4e45_544d_4153_5452) // "NETMASTR"
    }

    fn sample_stats(mut f: impl FnMut(&mut StdRng) -> f64, n: usize) -> (f64, f64) {
        let mut r = rng();
        let xs: Vec<f64> = (0..n).map(|_| f(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        (mean, var)
    }

    #[test]
    fn normal_moments() {
        let (mean, var) = sample_stats(|r| normal(r, 5.0, 2.0), 20_000);
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let mut r = rng();
        for _ in 0..5_000 {
            let x = truncated_normal(&mut r, 0.0, 10.0, -1.0, 1.0);
            assert!((-1.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn log_normal_median() {
        let mut r = rng();
        let mut xs: Vec<f64> = (0..20_001)
            .map(|_| log_normal(&mut r, 100f64.ln(), 0.8))
            .collect();
        xs.sort_by(f64::total_cmp);
        let median = xs[xs.len() / 2];
        assert!((median / 100.0 - 1.0).abs() < 0.1, "median {median}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exponential_mean() {
        let (mean, _) = sample_stats(|r| exponential(r, 30.0), 20_000);
        assert!((mean / 30.0 - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn poisson_small_mean() {
        let d = Poisson::new(3.5);
        let (mean, var) = sample_stats(|r| d.sample(r) as f64, 20_000);
        assert!((mean - 3.5).abs() < 0.1, "mean {mean}");
        assert!((var - 3.5).abs() < 0.25, "var {var}");
    }

    #[test]
    fn poisson_large_mean_uses_normal_branch() {
        let d = Poisson::new(200.0);
        let (mean, var) = sample_stats(|r| d.sample(r) as f64, 20_000);
        assert!((mean - 200.0).abs() < 1.0, "mean {mean}");
        assert!((var - 200.0).abs() < 15.0, "var {var}");
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        let mut r = rng();
        assert_eq!(Poisson::new(0.0).sample(&mut r), 0);
        assert_eq!(Poisson::new(-1.0).sample(&mut r), 0);
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let mut r = rng();
        for _ in 0..5_000 {
            let x = bounded_pareto(&mut r, 1.2, 1e3, 1e7);
            assert!((1e3..=1e7).contains(&x), "{x}");
        }
    }

    #[test]
    fn bounded_pareto_is_heavy_tailed() {
        let mut r = rng();
        let xs: Vec<f64> = (0..20_000)
            .map(|_| bounded_pareto(&mut r, 1.2, 1e3, 1e7))
            .collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        assert!(mean > 2.0 * median, "mean {mean} median {median}");
    }

    #[test]
    fn weighted_index_distribution() {
        let mut r = rng();
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[weighted_index(&mut r, &w, positive_sum(&w)).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_degenerate_cases() {
        let mut r = rng();
        assert_eq!(weighted_index(&mut r, &[], 0.0), None);
        assert_eq!(weighted_index(&mut r, &[0.0, 0.0], 0.0), None);
        assert_eq!(weighted_index(&mut r, &[0.0, 2.0], 2.0), Some(1));
    }

    #[test]
    fn coin_probability() {
        let mut r = rng();
        let heads = (0..20_000).filter(|_| coin(&mut r, 0.3)).count();
        let p = heads as f64 / 20_000.0;
        assert!((p - 0.3).abs() < 0.02, "p {p}");
        assert!(!coin(&mut r, 0.0));
        assert!(coin(&mut r, 1.0));
    }
}
