//! Habit-driven synthetic trace generation.
//!
//! [`TraceGenerator`] turns a [`UserProfile`] into a multi-day [`Trace`]:
//! hour-by-hour interaction counts follow the profile's diurnal intensity
//! with regularity-controlled day-to-day noise, interactions cluster into
//! short screen-on sessions, foreground network activities ride on
//! interactions, and background syncs tick away around the clock.
//!
//! Generation is fully deterministic given `(profile, seed)`.

use crate::dist;
use crate::event::{ActivityCause, AppId, Interaction, NetworkActivity, ScreenSession};
use crate::profile::{BackgroundSync, UserProfile};
use crate::time::{DayIndex, DayKind, Timestamp, HOURS_PER_DAY, SECS_PER_DAY, SECS_PER_HOUR};
use crate::trace::{DayTrace, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Knobs that vary the generated workload without editing profiles.
/// Used by ablation benches (e.g. sweeping background load).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenOptions {
    /// Multiplier on background sync periods (>1 ⇒ fewer syncs).
    pub bg_period_scale: f64,
    /// Multiplier on foreground network probability.
    pub fg_prob_scale: f64,
    /// Multiplier on all intensity vectors.
    pub intensity_scale: f64,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            bg_period_scale: 1.0,
            fg_prob_scale: 1.0,
            intensity_scale: 1.0,
        }
    }
}

/// Deterministic trace generator for one user profile.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: UserProfile,
    seed: u64,
    options: GenOptions,
    tables: Tables,
}

/// Minimum seconds a screen session lasts.
const MIN_SESSION_SECS: u64 = 3;
/// Maximum seconds a screen session lasts.
const MAX_SESSION_SECS: u64 = 900;
/// Seconds of session time bought per interaction at minimum.
const SECS_PER_INTERACTION: u64 = 3;

/// A session before overlap resolution: `(start, len, interactions)`.
type RawSession = (Timestamp, u64, u64);

/// What the sampling loop needs from a profile, computed once per
/// generator instead of once per draw: the `ln` of every fixed
/// log-normal median, the Poisson limits of every fixed mean, and the
/// app-choice weights of every hour.
#[derive(Debug, Clone)]
struct Tables {
    ln_session_duration: f64,
    ln_fg_rate: f64,
    ln_bg_rate: f64,
    /// Interactions per session beyond the first.
    session_extra: dist::Poisson,
    /// Per app: `ln` of the foreground-bytes median, floored at 256 B.
    ln_fg_bytes: Vec<f64>,
    /// Per app with background sync: the sync, `ln` of its payload
    /// median and its burst size beyond the first activity.
    bg: Vec<Option<(BackgroundSync, f64, dist::Poisson)>>,
    /// `popularity × hourly_affinity`, hour-major: app `i` at hour `h`
    /// is `weights[h * apps + i]`.
    weights: Vec<f64>,
    /// Per hour, [`dist::positive_sum`] of that hour's weights.
    hour_totals: [f64; HOURS_PER_DAY],
}

impl Tables {
    fn new(p: &UserProfile) -> Self {
        let weights: Vec<f64> = (0..HOURS_PER_DAY)
            .flat_map(|h| {
                p.apps
                    .iter()
                    .map(move |a| a.popularity * a.hourly_affinity[h])
            })
            .collect();
        let mut hour_totals = [0.0; HOURS_PER_DAY];
        for (total, hour) in hour_totals
            .iter_mut()
            .zip(weights.chunks(p.apps.len().max(1)))
        {
            *total = dist::positive_sum(hour);
        }
        Tables {
            ln_session_duration: p.session.duration_median.ln(),
            ln_fg_rate: p.session.fg_rate_median.ln(),
            ln_bg_rate: p.session.bg_rate_median.ln(),
            session_extra: dist::Poisson::new((p.session.interactions_per_session - 1.0).max(0.0)),
            ln_fg_bytes: p
                .apps
                .iter()
                .map(|a| a.fg_bytes_median.max(256.0).ln())
                .collect(),
            bg: p
                .apps
                .iter()
                .map(|a| {
                    a.background.map(|bg| {
                        (
                            bg,
                            bg.bytes_median.ln(),
                            dist::Poisson::new((bg.burst_mean - 1.0).max(0.0)),
                        )
                    })
                })
                .collect(),
            weights,
            hour_totals,
        }
    }

    /// The app-choice weights at `hour` and their positive sum.
    fn hour_weights(&self, hour: usize) -> (&[f64], f64) {
        let n = self.weights.len() / HOURS_PER_DAY;
        (
            &self.weights[hour * n..(hour + 1) * n],
            self.hour_totals[hour],
        )
    }
}

impl TraceGenerator {
    /// Generator with the default seed.
    pub fn new(profile: UserProfile) -> Self {
        TraceGenerator {
            tables: Tables::new(&profile),
            profile,
            seed: 0,
            options: GenOptions::default(),
        }
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets workload options.
    pub fn with_options(mut self, options: GenOptions) -> Self {
        self.options = options;
        self
    }

    /// The profile being generated from.
    pub fn profile(&self) -> &UserProfile {
        &self.profile
    }

    /// Generates `days` consecutive days starting at day 0 (a Monday).
    pub fn generate(&self, days: usize) -> Trace {
        let mut trace = Trace::new(self.profile.user_id);
        let app_ids: Vec<AppId> = self
            .profile
            .apps
            .iter()
            .map(|a| trace.apps.register(&a.name))
            .collect();
        // Independent stream per user so panels are order-insensitive.
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ (self.profile.user_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut raw_sessions = Vec::new();
        for day in 0..days {
            let d = self.generate_day(&mut rng, day, &app_ids, &mut raw_sessions);
            debug_assert_eq!(d.validate(), Ok(()));
            trace.days.push(d);
        }
        trace
    }

    /// Generates a single day. `raw_sessions` is scratch space reused
    /// across days.
    fn generate_day(
        &self,
        rng: &mut StdRng,
        day: DayIndex,
        app_ids: &[AppId],
        raw_sessions: &mut Vec<RawSession>,
    ) -> DayTrace {
        let p = &self.profile;
        let tables = &self.tables;
        let weekend = DayKind::of_day(day).is_weekend();
        let noise = 1.0 - p.regularity;

        // Day-level modulation: overall mood plus occasional scattered
        // days whose shape is shifted and damped.
        // ln(1) = 0: a unit-median log-normal.
        let day_factor = dist::log_normal(rng, 0.0, noise * 0.45);
        let scattered = dist::coin(rng, noise * 0.3);
        let shift: i64 = if scattered {
            rng.random_range(-3..=3)
        } else {
            0
        };
        let scatter_damp = if scattered { 0.6 } else { 1.0 };

        // Hour-by-hour expected interaction counts.
        let mut hour_counts = [0u64; HOURS_PER_DAY];
        for (h, count) in hour_counts.iter_mut().enumerate() {
            let src = ((h as i64 + shift).rem_euclid(HOURS_PER_DAY as i64)) as usize;
            let lambda = p.intensity(weekend, src)
                * self.options.intensity_scale
                * day_factor
                * scatter_damp
                * dist::log_normal(rng, 0.0, noise * 0.35);
            *count = dist::Poisson::new(lambda).sample(rng);
        }

        // Cluster interactions into sessions.
        let day_start = crate::time::day_start(day);
        let day_end = day_start + SECS_PER_DAY;
        raw_sessions.clear();
        for (h, &n) in hour_counts.iter().enumerate() {
            let mut remaining = n;
            while remaining > 0 {
                let k = (1 + tables.session_extra.sample(rng)).min(remaining);
                remaining -= k;
                let start =
                    day_start + h as u64 * SECS_PER_HOUR + rng.random_range(0..SECS_PER_HOUR);
                let len =
                    dist::log_normal(rng, tables.ln_session_duration, p.session.duration_sigma)
                        .round()
                        .max((k * SECS_PER_INTERACTION) as f64) as u64;
                let len = len.clamp(MIN_SESSION_SECS, MAX_SESSION_SECS);
                raw_sessions.push((start, len, k));
            }
        }
        raw_sessions.sort_by_key(|&(s, ..)| s);

        // Resolve overlaps by pushing sessions later; drop any that fall
        // off the end of the day.
        let mut sessions: Vec<ScreenSession> = Vec::with_capacity(raw_sessions.len());
        let mut session_k: Vec<u64> = Vec::with_capacity(raw_sessions.len());
        let mut cursor = day_start;
        for &(start, len, k) in raw_sessions.iter() {
            let start = start.max(cursor.saturating_add(1));
            let end = start.saturating_add(len);
            if end >= day_end {
                break;
            }
            sessions.push(ScreenSession { start, end });
            session_k.push(k);
            cursor = end;
        }

        // Place interactions inside sessions, pick apps, spawn
        // foreground network activities.
        let mut interactions: Vec<Interaction> = Vec::new();
        let mut activities: Vec<NetworkActivity> = Vec::new();
        for (s, &k) in sessions.iter().zip(&session_k) {
            let (weights, total) = tables.hour_weights(crate::time::hour_of(s.start));
            for _ in 0..k {
                let Some(app_idx) = dist::weighted_index(rng, weights, total) else {
                    continue;
                };
                let app = &p.apps[app_idx];
                let at = rng.random_range(s.start..s.end);
                let fires = dist::coin(rng, app.fg_network_prob * self.options.fg_prob_scale);
                interactions.push(Interaction {
                    at,
                    app: app_ids[app_idx],
                    needs_network: fires,
                });
                if fires {
                    activities.push(self.foreground_activity(rng, at, app_idx, app_ids));
                }
            }
        }

        // Background syncs, all day, regardless of screen state. Each
        // sync event is a burst of one or more activities a few seconds
        // apart (DNS + per-endpoint connections of one logical sync).
        for (app_idx, app_bg) in tables.bg.iter().enumerate() {
            let Some((bg, ln_bytes, burst_extra)) = app_bg else {
                continue;
            };
            let period = bg.period * self.options.bg_period_scale;
            let mut t = day_start as f64 + rng.random::<f64>() * period;
            while (t as Timestamp) < day_end {
                let n_sub = 1 + burst_extra.sample(rng);
                let total_bytes = dist::log_normal(rng, *ln_bytes, bg.bytes_sigma).max(64.0);
                let mut sub_t = t;
                for _ in 0..n_sub {
                    let at = sub_t as Timestamp;
                    let bytes = (total_bytes / n_sub as f64).max(64.0);
                    let rate = dist::log_normal(rng, tables.ln_bg_rate, 0.5).max(64.0);
                    let duration = (bytes / rate).round().clamp(1.0, 60.0) as u64;
                    let up = (bytes * bg.uplink_fraction) as u64;
                    let down = bytes as u64 - up;
                    if at + duration < day_end {
                        activities.push(NetworkActivity {
                            start: at,
                            duration,
                            bytes_down: down,
                            bytes_up: up,
                            app: app_ids[app_idx],
                            cause: ActivityCause::Background,
                        });
                    }
                    sub_t += dist::exponential(rng, bg.burst_spread).max(1.0);
                }
                t += period * dist::log_normal(rng, 0.0, bg.jitter);
            }
        }

        let mut d = DayTrace {
            day,
            sessions,
            interactions,
            activities,
        };
        d.normalize();
        d
    }

    /// A foreground transfer riding on an interaction at `at`.
    fn foreground_activity(
        &self,
        rng: &mut StdRng,
        at: Timestamp,
        app_idx: usize,
        app_ids: &[AppId],
    ) -> NetworkActivity {
        let app = &self.profile.apps[app_idx];
        let bytes =
            dist::log_normal(rng, self.tables.ln_fg_bytes[app_idx], app.fg_bytes_sigma).max(128.0);
        let rate = dist::log_normal(rng, self.tables.ln_fg_rate, 0.5).max(256.0);
        let duration = (bytes / rate).round().clamp(1.0, 90.0) as u64;
        let up = (bytes * app.fg_uplink_fraction) as u64;
        let down = bytes as u64 - up;
        NetworkActivity {
            start: at,
            duration,
            bytes_down: down,
            bytes_up: up,
            app: app_ids[app_idx],
            cause: ActivityCause::Foreground,
        }
    }
}

/// Generates the 8-user study panel (§III / Figs. 1–5).
pub fn generate_panel(days: usize, seed: u64) -> Vec<Trace> {
    UserProfile::panel()
        .into_iter()
        .map(|p| TraceGenerator::new(p).with_seed(seed).generate(days))
        .collect()
}

/// Generates the 3-volunteer evaluation set (§VI / Fig. 7).
pub fn generate_volunteers(days: usize, seed: u64) -> Vec<Trace> {
    UserProfile::volunteers()
        .into_iter()
        .map(|p| TraceGenerator::new(p).with_seed(seed).generate(days))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ActivityCause;

    fn small_trace() -> Trace {
        let profile = UserProfile::panel().remove(0);
        TraceGenerator::new(profile).with_seed(42).generate(7)
    }

    #[test]
    fn generated_trace_validates() {
        let t = small_trace();
        assert_eq!(t.num_days(), 7);
        assert_eq!(t.validate(), Ok(()));
    }

    #[test]
    fn generation_is_deterministic() {
        let p = UserProfile::panel().remove(3);
        let a = TraceGenerator::new(p.clone()).with_seed(7).generate(3);
        let b = TraceGenerator::new(p).with_seed(7).generate(3);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let p = UserProfile::panel().remove(3);
        let a = TraceGenerator::new(p.clone()).with_seed(1).generate(3);
        let b = TraceGenerator::new(p).with_seed(2).generate(3);
        assert_ne!(a, b);
    }

    #[test]
    fn trace_has_both_activity_causes() {
        let t = small_trace();
        let fg = t
            .all_activities()
            .filter(|a| a.cause == ActivityCause::Foreground)
            .count();
        let bg = t
            .all_activities()
            .filter(|a| a.cause == ActivityCause::Background)
            .count();
        assert!(fg > 10, "only {fg} foreground activities in a week");
        assert!(bg > 10, "only {bg} background activities in a week");
    }

    #[test]
    fn interactions_live_inside_sessions() {
        let t = small_trace();
        for d in &t.days {
            for i in &d.interactions {
                assert!(
                    d.screen_on_at(i.at),
                    "interaction at {} outside sessions",
                    i.at
                );
            }
        }
    }

    #[test]
    fn foreground_activities_start_screen_on() {
        let t = small_trace();
        for d in &t.days {
            for a in d
                .activities
                .iter()
                .filter(|a| a.cause == ActivityCause::Foreground)
            {
                assert!(d.screen_on_at(a.start));
            }
        }
    }

    #[test]
    fn night_hours_are_quiet() {
        let t = small_trace();
        // Office worker sleeps 01:00–06:00; interactions there should be rare.
        let night: usize = t
            .all_interactions()
            .filter(|i| (1..6).contains(&crate::time::hour_of(i.at)))
            .count();
        let total = t.all_interactions().count();
        assert!(total > 100, "trace too sparse: {total}");
        assert!(
            (night as f64) < 0.05 * total as f64,
            "{night}/{total} interactions at night"
        );
    }

    #[test]
    fn background_runs_around_the_clock() {
        let t = small_trace();
        let night_bg = t
            .all_activities()
            .filter(|a| a.cause == ActivityCause::Background)
            .filter(|a| (2..5).contains(&crate::time::hour_of(a.start)))
            .count();
        assert!(
            night_bg > 5,
            "only {night_bg} background syncs between 02–05 h"
        );
    }

    #[test]
    fn options_scale_background_load() {
        let p = UserProfile::panel().remove(0);
        let dense = TraceGenerator::new(p.clone())
            .with_seed(3)
            .with_options(GenOptions {
                bg_period_scale: 0.5,
                ..Default::default()
            })
            .generate(5);
        let sparse = TraceGenerator::new(p)
            .with_seed(3)
            .with_options(GenOptions {
                bg_period_scale: 2.0,
                ..Default::default()
            })
            .generate(5);
        let count = |t: &Trace| {
            t.all_activities()
                .filter(|a| a.cause == ActivityCause::Background)
                .count()
        };
        assert!(count(&dense) > 2 * count(&sparse));
    }

    #[test]
    fn options_scale_intensity_and_fg_probability() {
        let p = UserProfile::panel().remove(0);
        let base = TraceGenerator::new(p.clone()).with_seed(6).generate(5);
        let quiet = TraceGenerator::new(p.clone())
            .with_seed(6)
            .with_options(GenOptions {
                intensity_scale: 0.3,
                ..Default::default()
            })
            .generate(5);
        assert!(
            quiet.all_interactions().count() * 2 < base.all_interactions().count(),
            "intensity scale must thin interactions"
        );
        let offline = TraceGenerator::new(p)
            .with_seed(6)
            .with_options(GenOptions {
                fg_prob_scale: 0.0,
                ..Default::default()
            })
            .generate(5);
        let fg = offline
            .all_activities()
            .filter(|a| a.cause == ActivityCause::Foreground)
            .count();
        assert_eq!(fg, 0, "zero fg probability yields no foreground transfers");
        assert!(offline.all_activities().count() > 0, "background survives");
    }

    #[test]
    fn activity_volumes_are_positive_and_bounded() {
        let t = small_trace();
        for a in t.all_activities() {
            assert!(a.volume() >= 64, "sub-64-byte activities are noise");
            assert!(a.duration >= 1 && a.duration <= 90);
        }
    }

    #[test]
    fn panel_and_volunteers_generate() {
        let panel = generate_panel(2, 9);
        assert_eq!(panel.len(), 8);
        assert!(panel.iter().all(|t| t.validate().is_ok()));
        let vols = generate_volunteers(2, 9);
        assert_eq!(vols.len(), 3);
        assert!(vols.iter().all(|t| t.validate().is_ok()));
    }

    /// FNV-1a over every field of every session, interaction and
    /// activity of a trace, in order.
    fn trace_digest(t: &Trace) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for d in &t.days {
            eat(d.day as u64);
            for s in &d.sessions {
                eat(s.start);
                eat(s.end);
            }
            for i in &d.interactions {
                eat(i.at);
                eat(i.app.0 as u64);
                eat(i.needs_network as u64);
            }
            for a in &d.activities {
                eat(a.start);
                eat(a.duration);
                eat(a.bytes_down);
                eat(a.bytes_up);
                eat(a.app.0 as u64);
                eat(a.cause as u64);
            }
        }
        h
    }

    #[test]
    fn generated_traces_match_golden_digests() {
        // Any change to the RNG draw order or to a float expression in
        // the generator moves these digests.
        const GOLDEN: [u64; 8] = [
            0xc8c6_faa0_ca91_58ad,
            0x62a7_ac56_0a5a_6ae5,
            0xbdbb_783a_d957_3d52,
            0x852e_b86e_0a94_e25a,
            0x31a8_d70e_8dc3_afdb,
            0x8d20_115b_fd44_f211,
            0xdefc_ad6d_d751_8838,
            0xb012_a6a8_b4bb_865c,
        ];
        let digests: Vec<u64> = UserProfile::panel()
            .into_iter()
            .map(|p| trace_digest(&TraceGenerator::new(p).with_seed(2014).generate(21)))
            .collect();
        assert_eq!(digests, GOLDEN, "{digests:#018x?}");
    }

    #[test]
    fn weekend_warrior_uses_weekends_more() {
        let p = UserProfile::panel().remove(7);
        let t = TraceGenerator::new(p).with_seed(11).generate(14);
        let (mut wd, mut we) = (0usize, 0usize);
        for d in &t.days {
            let n = d.interactions.len();
            if DayKind::of_day(d.day).is_weekend() {
                we += n;
            } else {
                wd += n;
            }
        }
        // 10 weekdays vs 4 weekend days; per-day rate should still favour weekends.
        assert!((we as f64 / 4.0) > (wd as f64 / 10.0), "we={we} wd={wd}");
    }
}
