//! Order statistics for timings: medians and the tail rule.
//!
//! A timing is reported as its median plus the highest percentile of
//! the ladder [`TAIL_LADDER`] that has at least [`MIN_BEYOND`] samples
//! beyond it, together with the sample count it came from.

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 3] = [0.99, 0.90, 0.50];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(p, n)
}

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// A timing distribution summarised by the tail rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Samples the figures come from.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// The highest ladder percentile with at least [`MIN_BEYOND`]
    /// samples beyond it, and its value; `None` below 20 samples.
    pub tail: Option<(f64, f64)>,
}

impl Timing {
    /// Summarises `samples` (any order); `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Timing> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p50 = percentile(&sorted, 0.5)?;
        let n = sorted.len();
        let tail = TAIL_LADDER
            .iter()
            .find(|&&p| beyond(p, n) >= MIN_BEYOND)
            .and_then(|&p| percentile(&sorted, p).map(|v| (p, v)));
        Some(Timing {
            count: n,
            p50,
            tail,
        })
    }

    /// The tail value, or the median when too few samples exist for any
    /// ladder percentile.
    pub fn tail_value(&self) -> f64 {
        self.tail.map_or(self.p50, |(_, v)| v)
    }

    /// `p99 of n=2808`-style statement of the tail and its base.
    pub fn tail_label(&self) -> String {
        match self.tail {
            Some((p, _)) => format!("p{:.0} of n={}", p * 100.0, self.count),
            None => format!("too few samples for a tail, the median of n={}", self.count),
        }
    }
}

/// Median of any-order values; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    Timing::of(values).map(|t| t.p50)
}

/// Keeps in `least` the elementwise minimum of itself and `repeat`, a
/// repeat of the same work in the same order; an empty `least` takes
/// `repeat` as it is.
pub fn keep_least(least: &mut Vec<f64>, repeat: &[f64]) {
    if least.is_empty() {
        least.extend_from_slice(repeat);
    }
    for (l, &r) in least.iter_mut().zip(repeat) {
        *l = l.min(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(beyond(0.99, 1000), 10);
        let t = Timing::of(&(1..=1000).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(t.count, 1000);
        assert_eq!(t.tail, Some((0.99, 990.0)));
        assert_eq!(t.p50, 500.0);
        // 999 samples: p99 would leave 9, so the tail drops to p90.
        assert_eq!(beyond(0.99, 999), 9);
        let t = Timing::of(&(1..=999).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(t.count, 999);
        assert_eq!(t.tail, Some((0.90, 900.0)));
        assert_eq!(t.tail_label(), "p90 of n=999");
        // 100 samples: p90 leaves exactly 10.
        let t = Timing::of(&(1..=100).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(t.tail, Some((0.90, 90.0)));
        // 99 samples: only the median has 10 beyond it.
        let t = Timing::of(&(1..=99).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(t.tail, Some((0.50, 50.0)));
        // 19 samples: no ladder percentile qualifies.
        let t = Timing::of(&(1..=19).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(t.tail, None);
        assert_eq!(t.tail_value(), t.p50);
        assert!(t.tail_label().ends_with("n=19"));
    }

    #[test]
    fn least_keeps_the_first_repeat_then_elementwise_minima() {
        let mut least = Vec::new();
        keep_least(&mut least, &[3.0, 1.0, 2.0]);
        assert_eq!(least, [3.0, 1.0, 2.0]);
        keep_least(&mut least, &[1.0, 4.0, 2.0]);
        assert_eq!(least, [1.0, 1.0, 2.0]);
    }

    #[test]
    fn order_does_not_matter_and_empty_is_none() {
        let t = Timing::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(t.p50, 2.0);
        assert_eq!(Timing::of(&[]), None);
        assert_eq!(median(&[5.0, 1.0, 9.0, 7.0]), Some(5.0));
    }
}
