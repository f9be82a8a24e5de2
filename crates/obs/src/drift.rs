//! Online drift detectors for per-user habit decay.
//!
//! NetMaster's savings hold only while the mined habit keeps matching
//! reality. These detectors watch a per-day metric stream (prediction
//! hit-rate, energy-saving ratio, deferral latency) and raise an alarm
//! when the level shifts:
//!
//! * [`PageHinkley`] — the classic sequential change-point test:
//!   accumulates deviations from the running mean beyond a tolerance
//!   `delta` and alarms when the cumulative sum escapes its historical
//!   extremum by more than `lambda`. Sensitive to small sustained
//!   shifts.
//! * [`WindowedCusum`] — a moving-sum chart over the last `window`
//!   days against a baseline frozen after `warmup` samples: alarms
//!   when the windowed sum of deviations (beyond a slack of `k`
//!   standard deviations) exceeds `h` standard deviations. Robust to
//!   slow mean wander, sharp on step changes.
//! * [`MetricMonitor`] — one watched metric: both detectors plus an
//!   EWMA level and lifetime [`Welford`] moments; resets and re-warms
//!   after each alarm so one shift yields one alarm, not a storm.

use crate::timeseries::{Ewma, Welford};
use crate::Ring;
use serde::{Deserialize, Serialize};

/// Which way a detector looks for change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Alarm when the level rises (e.g. deferral latency).
    Up,
    /// Alarm when the level falls (e.g. hit-rate, saving ratio).
    Down,
}

/// Page–Hinkley sequential change detector.
#[derive(Debug, Clone)]
pub struct PageHinkley {
    delta: f64,
    lambda: f64,
    direction: Direction,
    warmup: u64,
    n: u64,
    mean: f64,
    cum: f64,
    extremum: f64,
}

impl PageHinkley {
    /// A detector with tolerance `delta` (deviations smaller than this
    /// are ignored) and alarm threshold `lambda`, both in metric units.
    pub fn new(delta: f64, lambda: f64, direction: Direction) -> Self {
        PageHinkley {
            delta,
            lambda,
            direction,
            warmup: 0,
            n: 0,
            mean: 0.0,
            cum: 0.0,
            extremum: 0.0,
        }
    }

    /// Spends the first `warmup` samples estimating the mean only: the
    /// change statistic stays at zero and no alarm can fire, so an
    /// atypical start (a policy still learning) is not mistaken for
    /// drift.
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }

    /// Absorbs one sample; `true` when the change statistic crosses
    /// `lambda`.
    pub fn push(&mut self, x: f64) -> bool {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
        if self.n <= self.warmup {
            return false;
        }
        let dev = match self.direction {
            // A drop makes (mean − x) positive.
            Direction::Down => self.mean - x - self.delta,
            Direction::Up => x - self.mean - self.delta,
        };
        self.cum += dev;
        if self.cum < self.extremum {
            self.extremum = self.cum;
        }
        self.statistic() > self.lambda
    }

    /// Current change statistic (distance of the cumulative sum above
    /// its running minimum).
    pub fn statistic(&self) -> f64 {
        self.cum - self.extremum
    }

    /// Alarm threshold.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Forgets all state (used after an alarm is handled).
    pub fn reset(&mut self) {
        self.n = 0;
        self.mean = 0.0;
        self.cum = 0.0;
        self.extremum = 0.0;
    }
}

/// Windowed CUSUM: a moving sum of standardized deviations from a
/// frozen baseline over the last `window` samples.
#[derive(Debug, Clone)]
pub struct WindowedCusum {
    k: f64,
    h: f64,
    warmup: usize,
    direction: Direction,
    baseline: Welford,
    window: Ring<f64>,
}

impl WindowedCusum {
    /// A detector with slack `k` and threshold `h` (both in units of
    /// the baseline standard deviation), summing over the last
    /// `window` samples. The baseline mean/deviation freeze after the
    /// first `warmup` samples; no alarm can fire before then.
    pub fn new(window: usize, warmup: usize, k: f64, h: f64, direction: Direction) -> Self {
        WindowedCusum {
            k,
            h,
            warmup: warmup.max(2),
            direction,
            baseline: Welford::new(),
            window: Ring::with_capacity(window),
        }
    }

    /// Absorbs one sample; `true` when the windowed sum of deviations
    /// beyond the slack exceeds `h` baseline standard deviations.
    pub fn push(&mut self, x: f64) -> bool {
        if (self.baseline.count() as usize) < self.warmup {
            self.baseline.push(x);
            return false;
        }
        let sigma = self.sigma();
        let raw = match self.direction {
            Direction::Down => self.baseline.mean() - x,
            Direction::Up => x - self.baseline.mean(),
        };
        // Deviations inside the slack band contribute nothing; this
        // keeps ordinary day-to-day noise from accumulating.
        self.window.push((raw - self.k * sigma).max(0.0));
        self.statistic() > self.h * sigma
    }

    /// Floor the deviation scale so a near-constant warmup period does
    /// not make the detector hair-triggered. Five percent of the level
    /// keeps a single quantization-sized dip (e.g. one hour out of a
    /// ~20-hour slot day) inside the slack band.
    fn sigma(&self) -> f64 {
        let spread = self.baseline.mean().abs().max(1.0) * 0.05;
        self.baseline.std_dev().max(spread)
    }

    /// Current windowed deviation sum, in metric units.
    pub fn statistic(&self) -> f64 {
        self.window.iter().sum()
    }

    /// Alarm threshold in metric units (`h · sigma`).
    pub fn threshold(&self) -> f64 {
        self.h * self.sigma()
    }

    /// `true` once the baseline has frozen and alarms can fire.
    pub fn armed(&self) -> bool {
        (self.baseline.count() as usize) >= self.warmup
    }

    /// Forgets all state, including the baseline (re-warms).
    pub fn reset(&mut self) {
        self.baseline = Welford::new();
        self.window = Ring::new(self.window.capacity());
    }
}

/// Which detector fired for a [`MetricMonitor`] sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DriftSignal {
    /// The Page–Hinkley statistic crossed `lambda`.
    PageHinkley,
    /// The windowed CUSUM crossed `h·sigma`.
    WindowedCusum,
}

/// An alarm raised by a [`MetricMonitor`]: which detector fired, at
/// what statistic, against what threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftAlarm {
    /// Which detector fired (Page–Hinkley wins ties).
    pub signal: DriftSignal,
    /// The detector statistic at the moment of the alarm.
    pub statistic: f64,
    /// The threshold it crossed.
    pub threshold: f64,
}

/// One watched per-user metric: Page–Hinkley + windowed CUSUM, plus an
/// EWMA level and lifetime moments for the scorecard. After an alarm
/// both detectors reset and re-warm, so a single habit shift produces a
/// single alarm.
#[derive(Debug, Clone)]
pub struct MetricMonitor {
    ph: PageHinkley,
    cusum: WindowedCusum,
    ewma: Ewma,
    lifetime: Welford,
    alarms: u64,
}

impl MetricMonitor {
    /// Builds a monitor from detector parameters; see [`PageHinkley::new`]
    /// and [`WindowedCusum::new`].
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        direction: Direction,
        ph_delta: f64,
        ph_lambda: f64,
        window: usize,
        warmup: usize,
        cusum_k: f64,
        cusum_h: f64,
        ewma_alpha: f64,
    ) -> Self {
        MetricMonitor {
            ph: PageHinkley::new(ph_delta, ph_lambda, direction).with_warmup(warmup as u64),
            cusum: WindowedCusum::new(window, warmup, cusum_k, cusum_h, direction),
            ewma: Ewma::new(ewma_alpha),
            lifetime: Welford::new(),
            alarms: 0,
        }
    }

    /// Absorbs one per-day sample; returns the alarm if either
    /// detector fired.
    pub fn push(&mut self, x: f64) -> Option<DriftAlarm> {
        self.ewma.push(x);
        self.lifetime.push(x);
        let ph_fired = self.ph.push(x);
        let alarm = if ph_fired {
            Some(DriftAlarm {
                signal: DriftSignal::PageHinkley,
                statistic: self.ph.statistic(),
                threshold: self.ph.lambda(),
            })
        } else if self.cusum.push(x) {
            Some(DriftAlarm {
                signal: DriftSignal::WindowedCusum,
                statistic: self.cusum.statistic(),
                threshold: self.cusum.threshold(),
            })
        } else {
            None
        };
        if alarm.is_some() {
            self.alarms += 1;
            self.ph.reset();
            self.cusum.reset();
        }
        alarm
    }

    /// Smoothed recent level (EWMA), when any sample has been pushed.
    pub fn level(&self) -> Option<f64> {
        self.ewma.value()
    }

    /// Lifetime moments over every pushed sample.
    pub fn lifetime(&self) -> &Welford {
        &self.lifetime
    }

    /// Alarms raised so far.
    pub fn alarms(&self) -> u64 {
        self.alarms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_hinkley_catches_a_drop_and_ignores_steady_state() {
        let mut ph = PageHinkley::new(0.02, 0.3, Direction::Down);
        // Steady ~0.6 with mild alternation: no alarm.
        for i in 0..30 {
            let x = 0.6 + if i % 2 == 0 { 0.03 } else { -0.03 };
            assert!(!ph.push(x), "false alarm at steady sample {i}");
        }
        // Level drops to 0.1: alarms within a few days.
        let mut fired_at = None;
        for day in 0..5 {
            if ph.push(0.1) {
                fired_at = Some(day);
                break;
            }
        }
        assert!(fired_at.is_some(), "drop never detected");
        assert!(fired_at.unwrap() <= 3, "detection too slow: {fired_at:?}");
    }

    #[test]
    fn page_hinkley_direction_up() {
        let mut ph = PageHinkley::new(0.02, 0.3, Direction::Up);
        for _ in 0..20 {
            assert!(!ph.push(0.2));
        }
        let mut fired = false;
        for _ in 0..5 {
            if ph.push(0.9) {
                fired = true;
                break;
            }
        }
        assert!(fired, "rise never detected");
        ph.reset();
        assert_eq!(ph.statistic(), 0.0);
    }

    #[test]
    fn windowed_cusum_freezes_baseline_then_alarms() {
        let mut c = WindowedCusum::new(5, 6, 0.5, 4.0, Direction::Down);
        assert!(!c.armed());
        for i in 0..12 {
            let x = 0.5 + if i % 2 == 0 { 0.02 } else { -0.02 };
            assert!(!c.push(x), "false alarm at steady sample {i}");
        }
        assert!(c.armed());
        let mut fired = false;
        for _ in 0..4 {
            if c.push(0.05) {
                fired = true;
                break;
            }
        }
        assert!(fired, "step drop never detected");
        c.reset();
        assert!(!c.armed());
        assert_eq!(c.statistic(), 0.0);
    }

    #[test]
    fn monitor_resets_after_alarm_and_counts() {
        let mut m = MetricMonitor::new(Direction::Down, 0.02, 0.3, 5, 4, 0.5, 4.0, 0.3);
        for _ in 0..15 {
            assert!(m.push(0.6).is_none());
        }
        let mut alarm = None;
        for _ in 0..6 {
            if let Some(a) = m.push(0.05) {
                alarm = Some(a);
                break;
            }
        }
        let alarm = alarm.expect("drop never detected");
        assert!(alarm.statistic > alarm.threshold);
        assert_eq!(m.alarms(), 1);
        // Post-reset the detectors re-warm: the new low level becomes
        // the new normal instead of alarming forever.
        let mut extra = 0;
        for _ in 0..10 {
            if m.push(0.05).is_some() {
                extra += 1;
            }
        }
        assert_eq!(extra, 0, "monitor kept alarming after reset");
        assert!(m.level().unwrap() < 0.2);
        assert!(m.lifetime().count() > 20);
    }
}
