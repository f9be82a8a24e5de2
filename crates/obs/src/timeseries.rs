//! Online estimators for the watchtower.
//!
//! A fleet of millions of users cannot afford to keep raw samples
//! around, so everything here is O(1) memory per metric:
//!
//! * [`Welford`] — numerically stable online mean/variance, mergeable
//!   across users via the parallel-variance formula;
//! * [`Ewma`] — exponentially weighted moving average, the smoothed
//!   "recent level" shown on health scorecards.
//!
//! Per-day windows are a [`Ring`](crate::Ring) of samples, and
//! per-user percentiles are a [`LogHist`](crate::LogHist) over the
//! registry's bucket layout.

/// Online mean/variance accumulator (Welford's algorithm). Mergeable:
/// [`Welford::merge`] combines two accumulators as if every sample had
/// been pushed into one.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples absorbed.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Combines with another accumulator (Chan et al. parallel update).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n as f64;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
    }
}

/// Exponentially weighted moving average. Seeded by the first sample,
/// then `v ← α·x + (1−α)·v`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// A new EWMA with smoothing factor `alpha` in `(0, 1]` (higher =
    /// faster tracking).
    pub fn new(alpha: f64) -> Self {
        Ewma {
            alpha: alpha.clamp(f64::EPSILON, 1.0),
            value: None,
        }
    }

    /// Absorbs one sample and returns the updated average.
    pub fn push(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(v) => self.alpha * x + (1.0 - self.alpha) * v,
        };
        self.value = Some(v);
        v
    }

    /// Current average, when at least one sample has been pushed.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive_moments() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert!((w.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_single_stream() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        // Merging an empty accumulator is the identity.
        let before = left;
        left.merge(&Welford::new());
        assert_eq!(left, before);
    }

    #[test]
    fn ewma_tracks_level_shifts() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        assert_eq!(e.push(10.0), 10.0);
        e.push(10.0);
        for _ in 0..20 {
            e.push(0.0);
        }
        // After 20 zero samples at α = 0.5, the average has decayed to
        // essentially zero.
        assert!(e.value().unwrap() < 1e-4);
    }
}
