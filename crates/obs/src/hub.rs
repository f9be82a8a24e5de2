//! The telemetry hub: the shared sink a live run publishes into so the
//! scrape server ([`crate::serve`]) can answer mid-run.
//!
//! A fleet run (or a single simulated user) holds an
//! `Arc<TelemetryHub>`; workers tick [`TelemetryHub::member_done`] /
//! [`TelemetryHub::day_done`] as they go, and the driving layer pushes
//! pre-serialized JSON documents (watchtower fleet health, per-app
//! bills, journal tails) with the `publish_*` methods. The hub never
//! sees simulator types — obs sits at the bottom of the dependency
//! order, so everything crossing it is counters or already-rendered
//! JSON.
//!
//! Progress counters are relaxed atomics (one RMW per member/day, no
//! lock on the hot path). Derived values — the windowed
//! members-per-second EWMA and the registry gauges scrapes read — are
//! refreshed at most every [`PUBLISH_INTERVAL`] behind a `try_lock`:
//! a contended worker skips the refresh instead of waiting, so the
//! fleet's throughput is never gated on telemetry.

use crate::timeseries::Ewma;
use crate::Ring;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Minimum wall-clock spacing between gauge/EWMA refreshes.
pub const PUBLISH_INTERVAL: Duration = Duration::from_millis(200);

/// Journal lines the hub keeps for `/journal` tails.
pub const JOURNAL_TAIL_CAPACITY: usize = 4096;

/// EWMA smoothing for the members-per-second rate (≈ last 10 windows).
const RATE_ALPHA: f64 = 0.2;

/// A point-in-time view of the live run, served on `/healthz`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HubProgress {
    /// `true` while a run is executing (between `begin_run`/`end_run`).
    pub run_active: bool,
    /// Members completed so far.
    pub members_done: u64,
    /// Members the run was started with (0 when unknown).
    pub members_total: u64,
    /// Simulated days executed so far.
    pub days_done: u64,
    /// Windowed EWMA of members completed per second.
    pub members_per_sec: f64,
    /// Wall-clock seconds since `begin_run`.
    pub elapsed_secs: f64,
}

struct HubInner {
    started: Option<Instant>,
    last_publish: Option<Instant>,
    last_members: u64,
    rate: Ewma,
    rate_value: f64,
    fleet_health_json: Option<String>,
    ledger_json: Option<String>,
    journal_tail: Ring<String>,
}

impl HubInner {
    fn new() -> Self {
        HubInner {
            started: None,
            last_publish: None,
            last_members: 0,
            rate: Ewma::new(RATE_ALPHA),
            rate_value: 0.0,
            fleet_health_json: None,
            ledger_json: None,
            journal_tail: Ring::new(JOURNAL_TAIL_CAPACITY),
        }
    }
}

/// The shared mid-run telemetry sink. See the module docs.
pub struct TelemetryHub {
    members_done: AtomicU64,
    members_total: AtomicU64,
    days_done: AtomicU64,
    run_active: AtomicBool,
    inner: Mutex<HubInner>,
}

impl Default for TelemetryHub {
    fn default() -> Self {
        Self::new()
    }
}

impl TelemetryHub {
    /// An idle hub (no run active).
    pub fn new() -> Self {
        TelemetryHub {
            members_done: AtomicU64::new(0),
            members_total: AtomicU64::new(0),
            days_done: AtomicU64::new(0),
            run_active: AtomicBool::new(false),
            inner: Mutex::new(HubInner::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HubInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Marks the start of a run over `members_total` members (0 when
    /// unknown), resetting progress counters and the rate window.
    pub fn begin_run(&self, members_total: u64) {
        self.members_done.store(0, Ordering::Release);
        self.days_done.store(0, Ordering::Release);
        self.members_total.store(members_total, Ordering::Release);
        self.run_active.store(true, Ordering::Release);
        let mut inner = self.lock();
        inner.started = Some(Instant::now());
        inner.last_publish = None;
        inner.last_members = 0;
        inner.rate = Ewma::new(RATE_ALPHA);
        inner.rate_value = 0.0;
    }

    /// One member finished. Hot path: one relaxed RMW, plus a throttled
    /// (`try_lock`, every [`PUBLISH_INTERVAL`]) refresh of the EWMA rate
    /// and registry gauges.
    #[inline]
    pub fn member_done(&self) {
        self.members_done.fetch_add(1, Ordering::Relaxed);
        self.maybe_publish();
    }

    /// One simulated day finished. Same discipline as
    /// [`TelemetryHub::member_done`].
    #[inline]
    pub fn day_done(&self) {
        self.days_done.fetch_add(1, Ordering::Relaxed);
        self.maybe_publish();
    }

    /// Marks the run finished and force-publishes final gauge values.
    pub fn end_run(&self) {
        self.run_active.store(false, Ordering::Release);
        let mut inner = self.lock();
        self.refresh(&mut inner, true);
    }

    /// Throttled gauge/EWMA refresh; skips when another worker holds
    /// the lock or the window hasn't elapsed.
    fn maybe_publish(&self) {
        if let Ok(mut inner) = self.inner.try_lock() {
            self.refresh(&mut inner, false);
        }
    }

    fn refresh(&self, inner: &mut HubInner, force: bool) {
        let now = Instant::now();
        let due = match inner.last_publish {
            Some(t) => now.duration_since(t) >= PUBLISH_INTERVAL,
            None => true,
        };
        if !due && !force {
            return;
        }
        let members = self.members_done.load(Ordering::Acquire);
        if let Some(t) = inner.last_publish {
            let dt = now.duration_since(t).as_secs_f64();
            if dt > 0.0 {
                let window_rate = (members.saturating_sub(inner.last_members)) as f64 / dt;
                inner.rate.push(window_rate);
                inner.rate_value = inner.rate.value().unwrap_or(0.0);
            }
        }
        inner.last_publish = Some(now);
        inner.last_members = members;
        crate::gauge_set(crate::names::HUB_MEMBERS_DONE, members as f64);
        crate::gauge_set(crate::names::HUB_MEMBERS_PER_SEC, inner.rate_value);
        crate::gauge_set(
            crate::names::HUB_DAYS_DONE,
            self.days_done.load(Ordering::Acquire) as f64,
        );
    }

    /// Replaces the fleet-health document served on `/health/fleet`
    /// (already-rendered JSON; the hub never parses it).
    pub fn publish_fleet_health_json(&self, json: String) {
        self.lock().fleet_health_json = Some(json);
    }

    /// Replaces the per-app bill document served on `/ledger`.
    pub fn publish_ledger_json(&self, json: String) {
        self.lock().ledger_json = Some(json);
    }

    /// Appends journal JSONL lines to the bounded tail served on
    /// `/journal` (oldest lines are evicted past
    /// [`JOURNAL_TAIL_CAPACITY`]).
    pub fn publish_journal_jsonl(&self, jsonl: &str) {
        let mut inner = self.lock();
        for line in jsonl.lines().filter(|l| !l.trim().is_empty()) {
            inner.journal_tail.push(line.to_owned());
        }
    }

    /// The last `n` published journal lines, oldest first, newline
    /// terminated ("" when nothing was published).
    pub fn journal_tail(&self, n: usize) -> String {
        let inner = self.lock();
        let len = inner.journal_tail.len();
        let mut out = String::new();
        for line in inner.journal_tail.iter().skip(len.saturating_sub(n)) {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// The current fleet-health document, when one was published.
    pub fn fleet_health_json(&self) -> Option<String> {
        self.lock().fleet_health_json.clone()
    }

    /// The current per-app bill document, when one was published.
    pub fn ledger_json(&self) -> Option<String> {
        self.lock().ledger_json.clone()
    }

    /// The live progress view (served on `/healthz`).
    pub fn progress(&self) -> HubProgress {
        let inner = self.lock();
        HubProgress {
            run_active: self.run_active.load(Ordering::Acquire),
            members_done: self.members_done.load(Ordering::Acquire),
            members_total: self.members_total.load(Ordering::Acquire),
            days_done: self.days_done.load(Ordering::Acquire),
            members_per_sec: inner.rate_value,
            elapsed_secs: inner
                .started
                .map(|t| t.elapsed().as_secs_f64())
                .unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_tracks_counters() {
        let hub = TelemetryHub::new();
        assert!(!hub.progress().run_active);
        hub.begin_run(10);
        for _ in 0..4 {
            hub.member_done();
        }
        hub.day_done();
        let p = hub.progress();
        assert!(p.run_active);
        assert_eq!(p.members_done, 4);
        assert_eq!(p.members_total, 10);
        assert_eq!(p.days_done, 1);
        hub.end_run();
        assert!(!hub.progress().run_active);
        // begin_run resets.
        hub.begin_run(2);
        assert_eq!(hub.progress().members_done, 0);
    }

    #[test]
    fn journal_tail_is_bounded_and_ordered() {
        let hub = TelemetryHub::new();
        assert_eq!(hub.journal_tail(10), "");
        hub.publish_journal_jsonl("{\"a\":1}\n{\"a\":2}\n\n{\"a\":3}\n");
        assert_eq!(hub.journal_tail(2), "{\"a\":2}\n{\"a\":3}\n");
        assert_eq!(hub.journal_tail(100).lines().count(), 3);
        for i in 0..(JOURNAL_TAIL_CAPACITY + 5) {
            hub.publish_journal_jsonl(&format!("{{\"b\":{i}}}\n"));
        }
        let tail = hub.journal_tail(usize::MAX);
        assert_eq!(tail.lines().count(), JOURNAL_TAIL_CAPACITY);
        assert!(tail.ends_with(&format!("{{\"b\":{}}}\n", JOURNAL_TAIL_CAPACITY + 4)));
    }

    #[test]
    fn published_documents_round_trip() {
        let hub = TelemetryHub::new();
        assert!(hub.fleet_health_json().is_none());
        assert!(hub.ledger_json().is_none());
        hub.publish_fleet_health_json("{\"healthy\":3}".to_owned());
        hub.publish_ledger_json("[{\"app\":1}]".to_owned());
        assert_eq!(hub.fleet_health_json().as_deref(), Some("{\"healthy\":3}"));
        assert_eq!(hub.ledger_json().as_deref(), Some("[{\"app\":1}]"));
    }

    #[test]
    fn progress_serializes_to_json() {
        let hub = TelemetryHub::new();
        hub.begin_run(1);
        hub.member_done();
        let json = serde_json::to_string(&hub.progress()).unwrap();
        let back: HubProgress = serde_json::from_str(&json).unwrap();
        assert_eq!(back.members_done, 1);
        assert!(back.run_active);
    }
}
