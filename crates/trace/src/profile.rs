//! Habit-driven user and app profiles for the synthetic trace generator.
//!
//! The paper's evaluation rests on real traces of 8 users × 3 weeks; we
//! do not have those, so each [`UserProfile`] encodes the *statistical
//! habits* the paper reports — hour-level usage intensity with strong
//! day-to-day regularity (intra-user Pearson ≈ 0.54–0.82), distinct
//! diurnal shapes across users (cross-user Pearson ≈ 0.13), short
//! screen-on sessions with ≈45% radio utilization, and a background-sync
//! app mix producing ≈41% of network activities while the screen is off.
//!
//! The canned panels ([`UserProfile::panel`], [`UserProfile::volunteers`])
//! are tuned so those aggregates emerge from generated traces; the
//! `figures` harness in `netmaster-bench` verifies this against Figs. 1–5.

use crate::time::HOURS_PER_DAY;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Per-hour multiplier or intensity vector, one slot per hour of day.
pub type HourVec = [f64; HOURS_PER_DAY];

/// Builds an hour vector from a flat base level plus Gaussian bumps.
///
/// Each bump is `(center_hour, width_hours, height)`; bumps wrap around
/// midnight so night-owl peaks at 23–01 h are expressible.
pub fn diurnal(base: f64, bumps: &[(f64, f64, f64)]) -> HourVec {
    let mut v = [base; HOURS_PER_DAY];
    for (h, slot) in v.iter_mut().enumerate() {
        for &(center, width, height) in bumps {
            // Wrap-around distance on the 24h circle.
            let mut d = (h as f64 - center).abs();
            if d > 12.0 {
                d = 24.0 - d;
            }
            *slot += height * (-0.5 * (d / width).powi(2)).exp();
        }
    }
    v
}

/// Suppresses the vector to (near) zero over `[from, to)` hours,
/// modelling sleep. Handles ranges that wrap midnight.
pub fn with_sleep(mut v: HourVec, from: usize, to: usize, floor: f64) -> HourVec {
    let mut h = from % HOURS_PER_DAY;
    loop {
        v[h] = v[h].min(floor);
        h = (h + 1) % HOURS_PER_DAY;
        if h == to % HOURS_PER_DAY {
            break;
        }
    }
    v
}

/// Background synchronization behaviour of an app.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackgroundSync {
    /// Mean seconds between sync *events*.
    pub period: f64,
    /// Multiplicative log-normal jitter (sigma of underlying normal).
    pub jitter: f64,
    /// Median payload bytes per sync event (split across its burst).
    pub bytes_median: f64,
    /// Log-normal shape of the payload size.
    pub bytes_sigma: f64,
    /// Fraction of the payload that is uplink.
    pub uplink_fraction: f64,
    /// Mean network activities per sync event (≥1). One logical sync is
    /// a *burst* of connections — DNS, TLS, per-endpoint fetches — a few
    /// seconds apart; this burstiness is what naive delay/batch schemes
    /// aggregate (and why they save anything at all, §VI-C).
    pub burst_mean: f64,
    /// Mean seconds between activities within a burst.
    pub burst_spread: f64,
}

/// Static description of one app in a user's portfolio.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppProfile {
    /// Package-style name.
    pub name: String,
    /// Relative share of the user's interactions that land on this app.
    pub popularity: f64,
    /// Hour-of-day multiplier on `popularity` (news in the morning,
    /// video at night, …). All-ones means no diurnal preference.
    pub hourly_affinity: HourVec,
    /// Probability that an interaction with this app triggers a
    /// foreground network activity.
    pub fg_network_prob: f64,
    /// Median bytes of a foreground transfer.
    pub fg_bytes_median: f64,
    /// Log-normal shape of foreground transfer size.
    pub fg_bytes_sigma: f64,
    /// Fraction of foreground payload that is uplink.
    pub fg_uplink_fraction: f64,
    /// Background sync behaviour, if the app syncs in the background.
    pub background: Option<BackgroundSync>,
}

impl AppProfile {
    /// An interactive app with no background traffic.
    pub fn interactive(name: &str, popularity: f64, fg_prob: f64, bytes_median: f64) -> Self {
        AppProfile {
            name: name.into(),
            popularity,
            hourly_affinity: [1.0; HOURS_PER_DAY],
            fg_network_prob: fg_prob,
            fg_bytes_median: bytes_median,
            fg_bytes_sigma: 0.8,
            fg_uplink_fraction: 0.12,
            background: None,
        }
    }

    /// Adds periodic background sync.
    pub fn with_background(mut self, period: f64, bytes_median: f64) -> Self {
        self.background = Some(BackgroundSync {
            period,
            jitter: 0.25,
            bytes_median,
            bytes_sigma: 0.7,
            uplink_fraction: 0.3,
            burst_mean: 2.2,
            burst_spread: 20.0,
        });
        self
    }

    /// Sets the diurnal affinity.
    pub fn with_affinity(mut self, affinity: HourVec) -> Self {
        self.hourly_affinity = affinity;
        self
    }

    /// Sets the uplink fraction of foreground transfers.
    pub fn with_uplink(mut self, frac: f64) -> Self {
        self.fg_uplink_fraction = frac;
        self
    }

    /// `true` when the app produces network traffic at all — the
    /// precondition for being a "Special App" (paper §IV-C2).
    pub fn uses_network(&self) -> bool {
        self.fg_network_prob > 0.0 || self.background.is_some()
    }
}

/// Screen-session shape parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionModel {
    /// Mean interactions bundled into one screen-on session.
    pub interactions_per_session: f64,
    /// Median seconds of a session (Fig. 2 plots per-user averages
    /// in the 8–25 s range).
    pub duration_median: f64,
    /// Log-normal shape of session duration.
    pub duration_sigma: f64,
    /// Median *achieved* application-level transfer rate while the
    /// screen is on, in bytes/s. Chatty app protocols over 3G achieve
    /// far below the channel rate; this sets active transfer durations.
    pub fg_rate_median: f64,
    /// Median achieved screen-off transfer rate in bytes/s.
    pub bg_rate_median: f64,
}

impl Default for SessionModel {
    fn default() -> Self {
        SessionModel {
            interactions_per_session: 2.2,
            duration_median: 14.0,
            duration_sigma: 0.8,
            fg_rate_median: 2_500.0,
            bg_rate_median: 900.0,
        }
    }
}

/// Complete habit profile of one user.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserProfile {
    /// Stable id (1-based like the paper's figures).
    pub user_id: u32,
    /// Human-readable chronotype label.
    pub label: String,
    /// Expected interactions per hour on weekdays.
    pub weekday_intensity: HourVec,
    /// Expected interactions per hour on weekends.
    pub weekend_intensity: HourVec,
    /// Habit regularity in `[0, 1]`: 1 = identical days, 0 = chaos.
    /// Controls day-to-day intensity noise and the probability of
    /// "scattered" days (the paper's user 4 has ≈0.82 intra-Pearson;
    /// the panel average is ≈0.54).
    pub regularity: f64,
    /// Session shape.
    pub session: SessionModel,
    /// App portfolio.
    pub apps: Vec<AppProfile>,
}

impl UserProfile {
    /// Expected interactions/hour for a given day kind and hour.
    pub fn intensity(&self, weekend: bool, hour: usize) -> f64 {
        if weekend {
            self.weekend_intensity[hour]
        } else {
            self.weekday_intensity[hour]
        }
    }

    /// Total expected interactions per weekday.
    pub fn daily_intensity(&self, weekend: bool) -> f64 {
        let v = if weekend {
            &self.weekend_intensity
        } else {
            &self.weekday_intensity
        };
        v.iter().sum()
    }

    /// Names of apps that use the network (the ground-truth
    /// "Special Apps" candidates).
    pub fn network_app_names(&self) -> Vec<&str> {
        self.apps
            .iter()
            .filter(|a| a.uses_network())
            .map(|a| a.name.as_str())
            .collect()
    }

    /// The 8-user study panel of §III (Figs. 1–5). Eight distinct
    /// chronotypes with regularity spanning 0.45–0.9.
    pub fn panel() -> Vec<UserProfile> {
        static PANEL: OnceLock<Vec<UserProfile>> = OnceLock::new();
        PANEL.get_or_init(build_panel).clone()
    }

    /// The 3 evaluation volunteers of §VI (Fig. 7). Distinct from the
    /// panel only in id; the paper likewise reused human subjects with
    /// unrestricted usage.
    pub fn volunteers() -> Vec<UserProfile> {
        static VOLUNTEERS: OnceLock<Vec<UserProfile>> = OnceLock::new();
        VOLUNTEERS.get_or_init(build_volunteers).clone()
    }
}

/// Builds [`UserProfile::panel`], which caches it: the diurnal curves
/// cost thousands of `exp` calls, and a fleet asks once per member.
fn build_panel() -> Vec<UserProfile> {
    vec![
        office_worker(1),
        night_owl_student(2),
        heavy_messenger(3),
        regular_commuter(4),
        shift_worker(5),
        light_user(6),
        social_grazer(7),
        weekend_warrior(8),
    ]
}

/// Builds [`UserProfile::volunteers`], which caches it.
fn build_volunteers() -> Vec<UserProfile> {
    let mut v = vec![
        regular_commuter(1),
        heavy_messenger(2),
        night_owl_student(3),
    ];
    for (i, p) in v.iter_mut().enumerate() {
        p.label = format!("volunteer-{}", i + 1);
    }
    v
}

// ---------------------------------------------------------------------------
// App archetypes
// ---------------------------------------------------------------------------

fn messenger(popularity: f64) -> AppProfile {
    AppProfile::interactive("com.tencent.mm", popularity, 0.85, 2_000.0)
        .with_background(10_800.0, 1_500.0)
        .with_uplink(0.35)
}

fn browser(popularity: f64) -> AppProfile {
    AppProfile::interactive("browser", popularity, 0.9, 10_000.0)
}

fn email(popularity: f64) -> AppProfile {
    AppProfile::interactive("com.google.mail", popularity, 0.7, 4_000.0)
        .with_background(21_600.0, 2_000.0)
}

fn social(popularity: f64) -> AppProfile {
    AppProfile::interactive("com.weibo.social", popularity, 0.9, 10_000.0)
        .with_background(28_800.0, 1_500.0)
        .with_affinity(diurnal(0.6, &[(12.5, 1.5, 0.8), (21.0, 2.5, 1.2)]))
}

fn news(popularity: f64) -> AppProfile {
    AppProfile::interactive("com.netease.news", popularity, 0.85, 12_000.0)
        .with_background(28_800.0, 2_000.0)
        .with_affinity(diurnal(0.4, &[(7.5, 1.2, 1.4), (18.5, 1.5, 0.9)]))
}

fn maps(popularity: f64) -> AppProfile {
    AppProfile::interactive("com.baidu.maps", popularity, 0.8, 15_000.0)
        .with_affinity(diurnal(0.3, &[(8.0, 1.0, 1.5), (17.5, 1.2, 1.5)]))
}

fn music(popularity: f64) -> AppProfile {
    AppProfile::interactive("com.xiami.music", popularity, 0.5, 40_000.0)
        .with_affinity(diurnal(0.5, &[(8.5, 1.5, 1.0), (22.0, 2.0, 1.0)]))
}

fn video(popularity: f64) -> AppProfile {
    AppProfile::interactive("com.youku.video", popularity, 0.75, 80_000.0)
        .with_affinity(diurnal(0.2, &[(21.5, 2.0, 2.0)]))
}

fn game(popularity: f64) -> AppProfile {
    AppProfile::interactive("com.supercell.game", popularity, 0.4, 5_000.0)
        .with_affinity(diurnal(0.4, &[(13.0, 1.0, 0.8), (20.5, 2.0, 1.2)]))
}

fn carrier_portal(popularity: f64) -> AppProfile {
    AppProfile::interactive("com.sinovatech.unicom.ui", popularity, 0.8, 2_500.0)
        .with_background(43_200.0, 800.0)
}

fn net_assistant(popularity: f64) -> AppProfile {
    AppProfile::interactive("wali.miui.networkassistant", popularity, 0.3, 600.0)
        .with_background(43_200.0, 500.0)
}

fn push_service(popularity: f64) -> AppProfile {
    AppProfile::interactive("com.android.pushcore", popularity, 0.0, 0.0)
        .with_background(9_000.0, 600.0)
}

fn weather(popularity: f64) -> AppProfile {
    AppProfile::interactive("com.moji.weather", popularity, 0.6, 1_500.0)
        .with_background(43_200.0, 1_000.0)
}

fn contacts(popularity: f64) -> AppProfile {
    AppProfile::interactive("com.android.contacts", popularity, 0.0, 0.0)
}

fn phone(popularity: f64) -> AppProfile {
    AppProfile::interactive("com.android.phone", popularity, 0.0, 0.0)
}

fn settings(popularity: f64) -> AppProfile {
    AppProfile::interactive("com.android.settings", popularity, 0.0, 0.0)
}

fn docs(popularity: f64) -> AppProfile {
    AppProfile::interactive("com.google.docs", popularity, 0.5, 6_000.0)
}

fn camera_gallery(popularity: f64) -> AppProfile {
    AppProfile::interactive("com.android.gallery", popularity, 0.15, 50_000.0).with_uplink(0.9)
}

/// Offline apps shared by everyone (no network): dialer, contacts,
/// settings, plus a couple of network apps every phone carries.
fn common_tail() -> Vec<AppProfile> {
    vec![
        contacts(0.06),
        phone(0.08),
        settings(0.03),
        push_service(0.01),
        net_assistant(0.01),
        weather(0.02),
        camera_gallery(0.03),
    ]
}

// ---------------------------------------------------------------------------
// User chronotypes
// ---------------------------------------------------------------------------

fn office_worker(user_id: u32) -> UserProfile {
    let weekday = with_sleep(
        diurnal(
            0.5,
            &[
                (7.8, 0.7, 18.0),
                (12.5, 0.8, 22.0),
                (18.3, 0.9, 20.0),
                (21.5, 1.2, 14.0),
            ],
        ),
        1,
        6,
        0.05,
    );
    let weekend = with_sleep(
        diurnal(
            0.8,
            &[(10.5, 1.5, 12.0), (15.0, 2.0, 9.0), (21.0, 1.5, 12.0)],
        ),
        2,
        8,
        0.05,
    );
    let mut apps = vec![
        messenger(0.30),
        email(0.14),
        browser(0.12),
        news(0.10),
        maps(0.06),
        docs(0.05),
    ];
    apps.extend(common_tail());
    UserProfile {
        user_id,
        label: "office-worker".into(),
        weekday_intensity: weekday,
        weekend_intensity: weekend,
        regularity: 0.72,
        session: SessionModel::default(),
        apps,
    }
}

fn night_owl_student(user_id: u32) -> UserProfile {
    let weekday = with_sleep(
        diurnal(
            0.8,
            &[(11.0, 1.0, 13.0), (15.5, 1.0, 12.0), (23.0, 1.5, 24.0)],
        ),
        3,
        9,
        0.05,
    );
    let weekend = with_sleep(
        diurnal(1.0, &[(14.0, 2.0, 12.0), (23.5, 2.0, 22.0)]),
        4,
        11,
        0.05,
    );
    let mut apps = vec![
        social(0.22),
        video(0.14),
        game(0.14),
        messenger(0.18),
        browser(0.10),
        music(0.06),
    ];
    apps.extend(common_tail());
    UserProfile {
        user_id,
        label: "night-owl-student".into(),
        weekday_intensity: weekday,
        weekend_intensity: weekend,
        regularity: 0.55,
        session: SessionModel {
            duration_median: 19.0,
            ..SessionModel::default()
        },
        apps,
    }
}

/// User 3 of Fig. 5: WeChat dominates (≈59% of usage, 669 uses/week),
/// and only 8 of 23 installed apps are used with network activity.
fn heavy_messenger(user_id: u32) -> UserProfile {
    let weekday = with_sleep(
        diurnal(
            1.5,
            &[(8.0, 1.0, 18.0), (12.5, 1.0, 20.0), (19.0, 2.0, 24.0)],
        ),
        1,
        7,
        0.05,
    );
    let weekend = with_sleep(
        diurnal(1.8, &[(11.0, 2.0, 16.0), (20.0, 2.5, 20.0)]),
        2,
        9,
        0.05,
    );
    let mut apps = vec![
        messenger(0.59),
        browser(0.08),
        carrier_portal(0.04),
        docs(0.03),
        news(0.04),
    ];
    apps.extend(common_tail());
    // Pad the portfolio with installed-but-unused apps so the Special
    // Apps filter has something to exclude (paper: 8 of 23 used).
    for i in 0..8 {
        apps.push(AppProfile::interactive(
            &format!("com.unused.app{i}"),
            0.0,
            0.0,
            0.0,
        ));
    }
    UserProfile {
        user_id,
        label: "heavy-messenger".into(),
        weekday_intensity: weekday,
        weekend_intensity: weekend,
        regularity: 0.68,
        session: SessionModel {
            interactions_per_session: 2.8,
            duration_median: 12.0,
            ..SessionModel::default()
        },
        apps,
    }
}

/// User 4 of Fig. 4: near-metronomic commuter (intra-day Pearson ≈0.82).
fn regular_commuter(user_id: u32) -> UserProfile {
    let weekday = with_sleep(
        diurnal(
            0.3,
            &[
                (7.2, 0.5, 32.0),
                (12.4, 0.6, 22.0),
                (17.7, 0.5, 32.0),
                (21.3, 0.8, 22.0),
            ],
        ),
        0,
        6,
        0.03,
    );
    // User 4 is metronomic *all week*: weekend peaks sit at nearly the
    // same hours as weekdays (slightly later, slightly lower), which is
    // what gives Fig. 4 its 0.82 day-to-day average.
    let weekend = with_sleep(
        diurnal(
            0.3,
            &[
                (8.4, 0.6, 24.0),
                (12.6, 0.7, 18.0),
                (17.9, 0.6, 24.0),
                (21.4, 0.9, 18.0),
            ],
        ),
        0,
        7,
        0.03,
    );
    let mut apps = vec![
        news(0.18),
        messenger(0.26),
        email(0.12),
        maps(0.10),
        music(0.08),
        browser(0.08),
    ];
    apps.extend(common_tail());
    UserProfile {
        user_id,
        label: "regular-commuter".into(),
        weekday_intensity: weekday,
        weekend_intensity: weekend,
        regularity: 0.90,
        session: SessionModel::default(),
        apps,
    }
}

fn shift_worker(user_id: u32) -> UserProfile {
    // Works nights: active 20:00–04:00, sleeps 08:00–15:00.
    let weekday = with_sleep(
        diurnal(
            0.6,
            &[(1.5, 1.5, 18.0), (17.5, 1.0, 12.0), (22.0, 1.0, 18.0)],
        ),
        8,
        15,
        0.05,
    );
    let weekend = with_sleep(
        diurnal(0.8, &[(2.0, 2.0, 14.0), (19.0, 2.0, 14.0)]),
        9,
        16,
        0.05,
    );
    let mut apps = vec![
        messenger(0.25),
        video(0.14),
        browser(0.12),
        social(0.10),
        game(0.08),
    ];
    apps.extend(common_tail());
    UserProfile {
        user_id,
        label: "shift-worker".into(),
        weekday_intensity: weekday,
        weekend_intensity: weekend,
        regularity: 0.62,
        session: SessionModel {
            duration_median: 17.0,
            ..SessionModel::default()
        },
        apps,
    }
}

fn light_user(user_id: u32) -> UserProfile {
    let weekday = with_sleep(
        diurnal(0.15, &[(12.5, 0.9, 6.0), (20.0, 1.3, 7.0)]),
        0,
        7,
        0.02,
    );
    let weekend = with_sleep(
        diurnal(0.2, &[(11.0, 1.5, 5.0), (20.5, 1.5, 6.0)]),
        0,
        8,
        0.02,
    );
    let mut apps = vec![messenger(0.30), browser(0.12), weather(0.06), email(0.08)];
    apps.extend(common_tail());
    UserProfile {
        user_id,
        label: "light-user".into(),
        weekday_intensity: weekday,
        weekend_intensity: weekend,
        regularity: 0.48,
        session: SessionModel {
            duration_median: 9.0,
            interactions_per_session: 1.6,
            ..SessionModel::default()
        },
        apps,
    }
}

fn social_grazer(user_id: u32) -> UserProfile {
    // Near-uniform high usage through all waking hours.
    let weekday = with_sleep(
        diurnal(
            3.0,
            &[(10.2, 1.0, 14.0), (16.3, 1.0, 13.0), (21.8, 1.3, 16.0)],
        ),
        1,
        7,
        0.05,
    );
    let weekend = with_sleep(
        diurnal(3.5, &[(13.0, 1.5, 12.0), (22.3, 1.8, 16.0)]),
        2,
        9,
        0.05,
    );
    let mut apps = vec![
        social(0.30),
        messenger(0.22),
        video(0.10),
        news(0.08),
        browser(0.08),
    ];
    apps.extend(common_tail());
    UserProfile {
        user_id,
        label: "social-grazer".into(),
        weekday_intensity: weekday,
        weekend_intensity: weekend,
        regularity: 0.58,
        session: SessionModel {
            interactions_per_session: 3.0,
            duration_median: 22.0,
            ..SessionModel::default()
        },
        apps,
    }
}

fn weekend_warrior(user_id: u32) -> UserProfile {
    let weekday = with_sleep(
        diurnal(0.3, &[(12.5, 0.8, 5.0), (19.5, 1.0, 7.0)]),
        0,
        7,
        0.03,
    );
    let weekend = with_sleep(
        diurnal(
            1.5,
            &[(10.5, 1.3, 16.0), (15.0, 1.8, 16.0), (21.0, 1.3, 18.0)],
        ),
        1,
        9,
        0.03,
    );
    let mut apps = vec![
        video(0.18),
        game(0.16),
        social(0.14),
        messenger(0.18),
        maps(0.06),
    ];
    apps.extend(common_tail());
    UserProfile {
        user_id,
        label: "weekend-warrior".into(),
        weekday_intensity: weekday,
        weekend_intensity: weekend,
        regularity: 0.52,
        session: SessionModel {
            duration_median: 25.0,
            ..SessionModel::default()
        },
        apps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_bumps_peak_at_center() {
        let v = diurnal(0.1, &[(12.0, 1.0, 5.0)]);
        let max_h = (0..24).max_by(|&a, &b| v[a].total_cmp(&v[b])).unwrap();
        assert_eq!(max_h, 12);
        assert!(v[12] > 5.0 && v[12] < 5.2);
        assert!(v[0] < 0.2);
    }

    #[test]
    fn diurnal_wraps_midnight() {
        let v = diurnal(0.0, &[(23.5, 1.0, 4.0)]);
        // Hour 0 is 0.5h from the peak; hour 23 is 0.5h too.
        assert!(v[0] > 3.0, "v[0]={}", v[0]);
        assert!(v[23] > 3.0);
        assert!(v[12] < 0.01);
    }

    #[test]
    fn sleep_suppression_handles_wraparound() {
        let v = with_sleep([2.0; 24], 22, 2, 0.1);
        assert!(v[22] <= 0.1 && v[23] <= 0.1 && v[0] <= 0.1 && v[1] <= 0.1);
        assert_eq!(v[2], 2.0);
        assert_eq!(v[21], 2.0);
    }

    #[test]
    fn panel_has_eight_distinct_users() {
        let panel = UserProfile::panel();
        assert_eq!(panel.len(), 8);
        for (i, p) in panel.iter().enumerate() {
            assert_eq!(p.user_id as usize, i + 1);
            assert!(!p.apps.is_empty());
            assert!((0.0..=1.0).contains(&p.regularity));
            assert!(p.daily_intensity(false) > 1.0, "{} too quiet", p.label);
        }
        let labels: std::collections::HashSet<_> = panel.iter().map(|p| p.label.clone()).collect();
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn user4_is_most_regular() {
        let panel = UserProfile::panel();
        let best = panel
            .iter()
            .max_by(|a, b| a.regularity.total_cmp(&b.regularity))
            .unwrap();
        assert_eq!(best.user_id, 4);
        assert!(best.regularity >= 0.85);
    }

    #[test]
    fn heavy_messenger_matches_fig5_shape() {
        let u3 = &UserProfile::panel()[2];
        // WeChat dominates usage (paper: 59% of all usage).
        let mm = u3.apps.iter().find(|a| a.name == "com.tencent.mm").unwrap();
        assert!(mm.popularity >= 0.5);
        // Portfolio has nontrivial unused apps for Special-Apps filtering.
        let unused = u3.apps.iter().filter(|a| !a.uses_network()).count();
        assert!(unused >= 8, "only {unused} unused apps");
        assert!(u3.apps.len() >= 15);
    }

    #[test]
    fn cached_profiles_equal_fresh_ones() {
        for _ in 0..2 {
            assert_eq!(UserProfile::panel(), build_panel());
            assert_eq!(UserProfile::volunteers(), build_volunteers());
        }
    }

    #[test]
    fn volunteers_are_three() {
        let v = UserProfile::volunteers();
        assert_eq!(v.len(), 3);
        assert_eq!(v[0].user_id, 1);
        assert!(v.iter().all(|p| p.label.starts_with("volunteer-")));
    }

    #[test]
    fn network_app_names_excludes_offline_apps() {
        let u = office_worker(1);
        let names = u.network_app_names();
        assert!(names.contains(&"com.tencent.mm"));
        assert!(!names.contains(&"com.android.contacts"));
    }

    #[test]
    fn intensity_lookup_dispatches_on_daykind() {
        let u = weekend_warrior(8);
        assert!(u.daily_intensity(true) > 2.0 * u.daily_intensity(false));
        assert_eq!(u.intensity(false, 12), u.weekday_intensity[12]);
        assert_eq!(u.intensity(true, 12), u.weekend_intensity[12]);
    }

    #[test]
    fn profiles_serialize_round_trip() {
        let u = regular_commuter(4);
        let json = serde_json::to_string(&u).unwrap();
        let back: UserProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(u, back);
    }
}
