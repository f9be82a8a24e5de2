//! Per-user health scorecards for the fleet watchtower.
//!
//! A [`Scorecard`] is the per-user roll-up the watchtower produces
//! after replaying a user's days through the drift monitors: smoothed
//! levels for the watched metrics, alarm counts, and a traffic-light
//! [`HealthStatus`] with human-readable reasons. `sim::fleet`
//! aggregates scorecards into a fleet health report.

use serde::{Deserialize, Serialize};

/// Traffic-light health of one fleet member.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HealthStatus {
    /// Metrics at expected levels, no unresolved drift.
    Healthy,
    /// Drift detected or a watched level below its floor; savings are
    /// at risk until the model re-learns.
    Degraded,
    /// Repeated drift or savings collapsed; the member needs
    /// re-mining / intervention now.
    Critical,
}

impl HealthStatus {
    /// Severity rank for sorting (higher = worse).
    pub fn severity(self) -> u8 {
        match self {
            HealthStatus::Healthy => 0,
            HealthStatus::Degraded => 1,
            HealthStatus::Critical => 2,
        }
    }

    /// Stable lowercase name (`healthy` / `degraded` / `critical`).
    pub fn name(self) -> &'static str {
        match self {
            HealthStatus::Healthy => "healthy",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Critical => "critical",
        }
    }
}

/// The watched per-user metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WatchMetric {
    /// Fraction of screen-off demands served by a predicted slot
    /// (deferral or prefetch) out of those the policy planned for.
    HitRate,
    /// Fraction of actually-active hours covered by the predicted
    /// slots — the hour-granular habit-fidelity signal, first to react
    /// when a user's daily rhythm moves out from under the mined model.
    SlotRecall,
    /// Per-day energy saving ratio vs the stock baseline.
    SavingRatio,
    /// Simulated seconds a deferred transfer waited for its slot.
    DeferralLatency,
}

impl WatchMetric {
    /// Stable snake_case name for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            WatchMetric::HitRate => "hit_rate",
            WatchMetric::SlotRecall => "slot_recall",
            WatchMetric::SavingRatio => "saving_ratio",
            WatchMetric::DeferralLatency => "deferral_latency",
        }
    }
}

/// Per-user health roll-up produced by the watchtower.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scorecard {
    /// Fleet member id (index within the watched fleet).
    pub user: u32,
    /// Simulated days observed.
    pub days: u32,
    /// Traffic-light status.
    pub status: HealthStatus,
    /// Human-readable reasons behind a non-healthy status (empty when
    /// healthy).
    pub reasons: Vec<String>,
    /// Smoothed (EWMA) prediction hit-rate over days that had
    /// screen-off demands; `None` before the first such day.
    pub hit_rate: Option<f64>,
    /// Lifetime mean hit-rate over the same days.
    pub hit_rate_mean: f64,
    /// Smoothed (EWMA) slot-recall over days with predicted slots;
    /// `None` before the first such day.
    pub slot_recall: Option<f64>,
    /// Lifetime mean slot-recall over the same days.
    pub slot_recall_mean: f64,
    /// Smoothed (EWMA) per-day energy saving ratio.
    pub saving: Option<f64>,
    /// Lifetime mean saving ratio.
    pub saving_mean: f64,
    /// p99 deferral latency in simulated seconds (log-bucket histogram
    /// estimate).
    pub deferral_p99_secs: f64,
    /// Drift alarms raised across all watched metrics.
    pub drift_alarms: u64,
    /// Day of the first drift alarm, when any fired.
    pub first_alarm_day: Option<u32>,
    /// Re-mines triggered by drift alarms.
    pub remines: u64,
}

impl Scorecard {
    /// Sort key: worst first (severity, then alarms, then lowest
    /// smoothed saving).
    pub fn badness(&self) -> (u8, u64, f64) {
        (
            self.status.severity(),
            self.drift_alarms,
            -self.saving.unwrap_or(self.saving_mean),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_orders_by_severity() {
        assert!(HealthStatus::Healthy < HealthStatus::Degraded);
        assert!(HealthStatus::Degraded < HealthStatus::Critical);
        assert_eq!(HealthStatus::Critical.severity(), 2);
        assert_eq!(HealthStatus::Degraded.name(), "degraded");
        assert_eq!(WatchMetric::HitRate.name(), "hit_rate");
    }

    #[test]
    fn scorecard_round_trips_through_json() {
        let card = Scorecard {
            user: 3,
            days: 21,
            status: HealthStatus::Degraded,
            reasons: vec!["hit-rate drift on day 15".to_owned()],
            hit_rate: Some(0.21),
            hit_rate_mean: 0.27,
            slot_recall: Some(0.72),
            slot_recall_mean: 0.91,
            saving: Some(0.55),
            saving_mean: 0.60,
            deferral_p99_secs: 30000.0,
            drift_alarms: 1,
            first_alarm_day: Some(15),
            remines: 1,
        };
        let json = serde_json::to_string(&card).unwrap();
        let back: Scorecard = serde_json::from_str(&json).unwrap();
        assert_eq!(back, card);
    }

    #[test]
    fn badness_sorts_worst_first() {
        let mk = |status, alarms, saving| Scorecard {
            user: 0,
            days: 10,
            status,
            reasons: vec![],
            hit_rate: None,
            hit_rate_mean: 0.0,
            slot_recall: None,
            slot_recall_mean: 0.0,
            saving: Some(saving),
            saving_mean: saving,
            deferral_p99_secs: 0.0,
            drift_alarms: alarms,
            first_alarm_day: None,
            remines: 0,
        };
        let mut cards = [
            mk(HealthStatus::Healthy, 0, 0.6),
            mk(HealthStatus::Critical, 3, 0.1),
            mk(HealthStatus::Degraded, 1, 0.4),
        ];
        cards.sort_by(|a, b| b.badness().partial_cmp(&a.badness()).unwrap());
        assert_eq!(cards[0].status, HealthStatus::Critical);
        assert_eq!(cards[2].status, HealthStatus::Healthy);
    }
}
