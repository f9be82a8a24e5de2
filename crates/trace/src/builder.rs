//! Fluent builder for custom [`UserProfile`]s.
//!
//! The canned panel covers the paper's study; downstream users modelling
//! their own populations assemble chronotypes from primitives:
//!
//! ```
//! use netmaster_trace::builder::ProfileBuilder;
//! use netmaster_trace::gen::TraceGenerator;
//!
//! let nurse = ProfileBuilder::new(42, "night-nurse")
//!     .regularity(0.8)
//!     .sleep(9, 16)                     // sleeps through the morning
//!     .usage_peak(20.0, 1.0, 15.0)      // pre-shift peak at 20:00
//!     .usage_peak(2.5, 1.5, 10.0)       // mid-shift break at 02:30
//!     .weekend_like_weekday()
//!     .messaging_app("org.hospital.pager", 0.4)
//!     .app("com.android.phone", 0.2)
//!     .build();
//!
//! let trace = TraceGenerator::new(nurse).with_seed(1).generate(7);
//! assert_eq!(trace.validate(), Ok(()));
//! // Night hours are busy for this user.
//! let night = trace.all_interactions()
//!     .filter(|i| netmaster_trace::time::hour_of(i.at) < 4).count();
//! assert!(night > 10);
//! ```

use crate::profile::{diurnal, with_sleep, AppProfile, SessionModel, UserProfile};
use crate::time::HOURS_PER_DAY;

/// Builder state for a custom chronotype.
#[derive(Debug, Clone)]
pub struct ProfileBuilder {
    user_id: u32,
    label: String,
    base_intensity: f64,
    peaks: Vec<(f64, f64, f64)>,
    sleep: Option<(usize, usize)>,
    weekend_base: f64,
    weekend_sleep: Option<(usize, usize)>,
    weekend_mirrors_weekday: bool,
    regularity: f64,
    session: SessionModel,
    apps: Vec<AppProfile>,
}

impl ProfileBuilder {
    /// Starts a profile with an id and label.
    pub fn new(user_id: u32, label: &str) -> Self {
        ProfileBuilder {
            user_id,
            label: label.to_owned(),
            base_intensity: 0.5,
            peaks: Vec::new(),
            sleep: Some((1, 7)),
            weekend_base: 0.7,
            weekend_sleep: Some((1, 9)),
            weekend_mirrors_weekday: false,
            regularity: 0.6,
            session: SessionModel::default(),
            apps: Vec::new(),
        }
    }

    /// Baseline interactions/hour outside peaks (weekdays).
    pub fn base_intensity(mut self, per_hour: f64) -> Self {
        self.base_intensity = per_hour.max(0.0);
        self
    }

    /// Adds a weekday usage peak: Gaussian bump at `center_hour` with
    /// the given width (hours) and height (interactions/hour).
    pub fn usage_peak(mut self, center_hour: f64, width: f64, height: f64) -> Self {
        self.peaks
            .push((center_hour, width.max(0.1), height.max(0.0)));
        self
    }

    /// Sleep window `[from, to)` hours on weekdays (wraps midnight).
    pub fn sleep(mut self, from: usize, to: usize) -> Self {
        self.sleep = Some((from % HOURS_PER_DAY, to % HOURS_PER_DAY));
        self
    }

    /// Removes the sleep suppression entirely (a phone shared across
    /// shifts, for instance).
    pub fn no_sleep(mut self) -> Self {
        self.sleep = None;
        self.weekend_sleep = None;
        self
    }

    /// Weekend shape copies the weekday shape (a very regular user,
    /// like the paper's user 4).
    pub fn weekend_like_weekday(mut self) -> Self {
        self.weekend_mirrors_weekday = true;
        self
    }

    /// Habit regularity in `[0, 1]`.
    pub fn regularity(mut self, r: f64) -> Self {
        self.regularity = r.clamp(0.0, 1.0);
        self
    }

    /// Adds an offline app (no network) with a usage share.
    pub fn app(mut self, name: &str, popularity: f64) -> Self {
        self.apps
            .push(AppProfile::interactive(name, popularity, 0.0, 0.0));
        self
    }

    /// Adds a chatty messaging app: frequent small foreground transfers
    /// plus background keepalives.
    pub fn messaging_app(mut self, name: &str, popularity: f64) -> Self {
        self.apps.push(
            AppProfile::interactive(name, popularity, 0.85, 2_000.0)
                .with_background(5_400.0, 1_500.0)
                .with_uplink(0.35),
        );
        self
    }

    /// Adds a content app: larger foreground fetches, periodic refresh.
    pub fn content_app(mut self, name: &str, popularity: f64, fetch_bytes: f64) -> Self {
        self.apps.push(
            AppProfile::interactive(name, popularity, 0.85, fetch_bytes)
                .with_background(21_600.0, 2_000.0),
        );
        self
    }

    /// Adds a pure background service (push relay, telemetry).
    pub fn background_service(mut self, name: &str, period_secs: f64, bytes: f64) -> Self {
        self.apps.push(
            AppProfile::interactive(name, 0.01, 0.0, 0.0).with_background(period_secs, bytes),
        );
        self
    }

    /// Finalizes the profile. A profile with no apps gets a minimal
    /// messaging + dialer portfolio so generation always works.
    pub fn build(mut self) -> UserProfile {
        if self.apps.is_empty() {
            self = self
                .messaging_app("com.example.chat", 0.5)
                .app("com.android.phone", 0.2);
        }
        let mut weekday = diurnal(self.base_intensity, &self.peaks);
        if let Some((f, t)) = self.sleep {
            weekday = with_sleep(weekday, f, t, 0.03);
        }
        let weekend = if self.weekend_mirrors_weekday {
            weekday
        } else {
            let mut w = diurnal(self.weekend_base, &[]);
            if let Some((f, t)) = self.weekend_sleep {
                w = with_sleep(w, f, t, 0.03);
            }
            w
        };
        UserProfile {
            user_id: self.user_id,
            label: self.label,
            weekday_intensity: weekday,
            weekend_intensity: weekend,
            regularity: self.regularity,
            session: self.session,
            apps: self.apps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TraceGenerator;

    #[test]
    fn built_profile_generates_valid_traces() {
        let p = ProfileBuilder::new(9, "custom")
            .usage_peak(12.0, 1.0, 10.0)
            .messaging_app("chat", 0.5)
            .build();
        assert_eq!(p.user_id, 9);
        let t = TraceGenerator::new(p).with_seed(3).generate(5);
        assert_eq!(t.validate(), Ok(()));
        assert!(t.all_interactions().count() > 20);
    }

    #[test]
    fn sleep_window_silences_hours() {
        let p = ProfileBuilder::new(1, "sleeper")
            .base_intensity(5.0)
            .sleep(2, 8)
            .build();
        for h in 2..8 {
            assert!(p.weekday_intensity[h] <= 0.03, "hour {h}");
        }
        assert!(p.weekday_intensity[12] >= 4.0);
    }

    #[test]
    fn no_sleep_keeps_all_hours_live() {
        let p = ProfileBuilder::new(1, "insomniac")
            .base_intensity(3.0)
            .no_sleep()
            .build();
        assert!(p.weekday_intensity.iter().all(|&v| v >= 3.0));
        assert!(p.weekend_intensity.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn weekend_mirroring_copies_the_shape() {
        let p = ProfileBuilder::new(1, "mirror")
            .usage_peak(9.0, 0.5, 20.0)
            .weekend_like_weekday()
            .build();
        assert_eq!(p.weekday_intensity, p.weekend_intensity);
    }

    #[test]
    fn empty_portfolio_gets_defaults() {
        let p = ProfileBuilder::new(1, "bare").build();
        assert!(!p.apps.is_empty());
        assert!(p.apps.iter().any(|a| a.uses_network()));
    }

    #[test]
    fn app_kinds_have_expected_traffic_shapes() {
        let p = ProfileBuilder::new(1, "kinds")
            .messaging_app("m", 0.3)
            .content_app("c", 0.3, 50_000.0)
            .background_service("b", 3_600.0, 500.0)
            .app("offline", 0.1)
            .build();
        let m = &p.apps[0];
        assert!(m.background.is_some() && m.fg_network_prob > 0.5);
        let c = &p.apps[1];
        assert!(c.fg_bytes_median > m.fg_bytes_median);
        let b = &p.apps[2];
        assert_eq!(b.fg_network_prob, 0.0);
        assert!(b.background.is_some());
        let off = &p.apps[3];
        assert!(!off.uses_network());
    }

    #[test]
    fn regularity_is_clamped() {
        assert_eq!(
            ProfileBuilder::new(1, "x")
                .regularity(7.0)
                .build()
                .regularity,
            1.0
        );
        assert_eq!(
            ProfileBuilder::new(1, "x")
                .regularity(-2.0)
                .build()
                .regularity,
            0.0
        );
    }
}
