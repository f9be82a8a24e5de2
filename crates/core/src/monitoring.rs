//! The monitoring component (§V-A): records time, app, cellular network
//! and screen state into an on-device database through a hybrid
//! event-/time-triggered model, batching writes in a memory cache.
//!
//! Event triggers fire on state changes (screen on/off, foreground app
//! switch); time triggers sample non-state variables (transferred
//! bytes) every second while the screen is on and every 30 s while it
//! is off. Records pass through a 500 KB write cache before hitting
//! "flash", because frequent small flash writes are slow and
//! energy-hungry \[15\]; the flush count is the proxy for that cost.

use netmaster_trace::event::AppId;
use netmaster_trace::time::{Seconds, Timestamp};
use netmaster_trace::trace::DayTrace;
use serde::{Deserialize, Serialize};

/// Monitoring model parameters (§V-A values).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// Byte-counter sampling period while the screen is on.
    pub screen_on_timer: Seconds,
    /// Byte-counter sampling period while the screen is off.
    pub screen_off_timer: Seconds,
    /// Write-cache size in bytes before a flush.
    pub cache_bytes: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            screen_on_timer: 1,
            screen_off_timer: 30,
            cache_bytes: 500_000,
        }
    }
}

/// One monitoring record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Record {
    /// Screen state change (event trigger).
    Screen {
        /// When.
        at: Timestamp,
        /// New state.
        on: bool,
    },
    /// Foreground app switch (event trigger).
    Foreground {
        /// When.
        at: Timestamp,
        /// App now in front.
        app: AppId,
    },
    /// Sampled byte counters (time trigger).
    Bytes {
        /// Sample instant.
        at: Timestamp,
        /// Bytes received since the previous sample.
        down: u64,
        /// Bytes sent since the previous sample.
        up: u64,
    },
    /// A network activity attributed to an app (event trigger on
    /// per-UID counters).
    Network {
        /// Activity start.
        at: Timestamp,
        /// Owning app.
        app: AppId,
        /// Total bytes.
        bytes: u64,
    },
}

impl Record {
    /// Serialized size estimate used for cache accounting.
    pub fn size_bytes(&self) -> usize {
        match self {
            Record::Screen { .. } => 9,
            Record::Foreground { .. } => 10,
            Record::Bytes { .. } => 24,
            Record::Network { .. } => 18,
        }
    }
}

/// Records of each kind, counted by [`Database::kind_counts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounts {
    /// [`Record::Screen`] with `on: true`.
    pub screen_on: u64,
    /// [`Record::Screen`] with `on: false`.
    pub screen_off: u64,
    /// [`Record::Foreground`].
    pub foreground: u64,
    /// [`Record::Bytes`].
    pub bytes: u64,
    /// [`Record::Network`].
    pub network: u64,
}

/// The on-device record store with a write-back cache, modelled by
/// counting: nothing ever reads a record back, and the flush count is
/// the cost that matters, so it keeps per-kind counts and the cache
/// accounting, never the records themselves.
#[derive(Debug, Clone, Default)]
pub struct Database {
    kinds: KindCounts,
    cache_used: usize,
    cached: usize,
    persisted: usize,
    cache_capacity: usize,
    flushes: u64,
}

impl Database {
    /// A database with the given cache capacity.
    pub fn new(cache_capacity: usize) -> Self {
        Database {
            cache_capacity,
            ..Default::default()
        }
    }

    /// Appends a record through the cache.
    // lint:hot-path
    pub fn record(&mut self, r: Record) {
        let kind = match r {
            Record::Screen { on: true, .. } => &mut self.kinds.screen_on,
            Record::Screen { on: false, .. } => &mut self.kinds.screen_off,
            Record::Foreground { .. } => &mut self.kinds.foreground,
            Record::Bytes { .. } => &mut self.kinds.bytes,
            Record::Network { .. } => &mut self.kinds.network,
        };
        *kind += 1;
        self.cache_used += r.size_bytes();
        self.cached += 1;
        if self.cache_used >= self.cache_capacity {
            self.flush();
        }
    }

    /// Forces the cache to flash.
    pub fn flush(&mut self) {
        if self.cached == 0 {
            return;
        }
        self.persisted += self.cached;
        self.cached = 0;
        self.cache_used = 0;
        self.flushes += 1;
    }

    /// Number of flash flushes so far.
    pub fn flush_count(&self) -> u64 {
        self.flushes
    }

    /// Records persisted to flash (excludes cached ones).
    pub fn persisted_len(&self) -> usize {
        self.persisted
    }

    /// Records of each kind, cached or persisted.
    pub fn kind_counts(&self) -> KindCounts {
        self.kinds
    }

    /// Total records, cached or persisted.
    pub fn len(&self) -> usize {
        self.persisted + self.cached
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The monitoring component: turns an observed day into database
/// records via the hybrid trigger model.
#[derive(Debug, Clone, Default)]
pub struct Monitor {
    /// Trigger configuration.
    pub config: MonitorConfig,
    /// Backing store.
    pub db: Database,
}

impl Monitor {
    /// New monitor with default §V-A parameters.
    pub fn new() -> Self {
        let config = MonitorConfig::default();
        Monitor {
            config,
            db: Database::new(config.cache_bytes),
        }
    }

    /// Observes one day, emitting event- and time-triggered records.
    // lint:hot-path
    pub fn observe_day(&mut self, day: &DayTrace) {
        // Event triggers: screen changes and foreground switches.
        for s in &day.sessions {
            self.db.record(Record::Screen {
                at: s.start,
                on: true,
            });
            self.db.record(Record::Screen {
                at: s.end,
                on: false,
            });
        }
        for i in &day.interactions {
            self.db.record(Record::Foreground {
                at: i.at,
                app: i.app,
            });
        }
        for a in &day.activities {
            self.db.record(Record::Network {
                at: a.start,
                app: a.app,
                bytes: a.volume(),
            });
        }
        // Time triggers: sample byte counters. One sample per period
        // *that saw traffic* (idle samples carry no record — the real
        // component reads counters but only writes deltas). Samples go
        // in activity order, not time order: every `Bytes` record is
        // the same size, so the order cannot move a flush.
        for a in &day.activities {
            let period = if day.screen_on_at(a.start) {
                self.config.screen_on_timer
            } else {
                self.config.screen_off_timer
            };
            let dur = a.duration.max(1);
            let n_samples = dur.div_ceil(period);
            let per_down = a.bytes_down / n_samples.max(1);
            let per_up = a.bytes_up / n_samples.max(1);
            for k in 0..n_samples {
                self.db.record(Record::Bytes {
                    at: a.start + (k + 1) * period,
                    down: per_down,
                    up: per_up,
                });
            }
        }
    }

    /// Ends the session: flush outstanding records.
    pub fn finalize(&mut self) {
        self.db.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmaster_trace::gen::TraceGenerator;
    use netmaster_trace::profile::UserProfile;

    #[test]
    fn cache_batches_writes() {
        let mut db = Database::new(100);
        for i in 0..20 {
            db.record(Record::Bytes {
                at: i,
                down: 1,
                up: 1,
            }); // 24 B each
        }
        // 100 B cache, 24 B records ⇒ flush every 5 records (120 ≥ 100).
        assert_eq!(db.flush_count(), 4);
        assert_eq!(db.len(), 20);
        assert_eq!(db.persisted_len(), 20);
        assert_eq!(db.kind_counts().bytes, 20);
    }

    #[test]
    fn explicit_flush_drains_cache() {
        let mut db = Database::new(1_000_000);
        db.record(Record::Screen { at: 1, on: true });
        assert_eq!(db.persisted_len(), 0);
        assert_eq!(db.len(), 1);
        db.flush();
        assert_eq!(db.persisted_len(), 1);
        assert_eq!(db.len(), 1);
        assert_eq!(db.flush_count(), 1);
        // Flushing an empty cache is a no-op.
        db.flush();
        assert_eq!(db.flush_count(), 1);
    }

    #[test]
    fn big_cache_flushes_rarely() {
        // The design point of the 500 KB cache: a full day of records
        // must cost only a handful of flash writes.
        let trace = TraceGenerator::new(UserProfile::panel().remove(2))
            .with_seed(4)
            .generate(7);
        let mut mon = Monitor::new();
        for d in &trace.days {
            mon.observe_day(d);
        }
        mon.finalize();
        assert!(
            mon.db.len() > 1_000,
            "expected a busy week, got {}",
            mon.db.len()
        );
        assert!(
            mon.db.flush_count() <= 3,
            "500 KB cache should batch a week into a few flushes, got {}",
            mon.db.flush_count()
        );
    }

    #[test]
    fn observe_day_counts_are_pinned() {
        // (profile, seed, days) → len, flushes before and after
        // `finalize`, and kind counts.
        let cases = [
            (2, 4, 7, 7_734, 0, 1, [638, 638, 1_632, 3_332, 1_494]),
            (
                0,
                2014,
                365,
                347_434,
                12,
                13,
                [29_751, 29_751, 59_790, 168_192, 59_950],
            ),
        ];
        for (profile, seed, days, len, flushes, final_flushes, [on, off, fg, bytes, net]) in cases {
            let trace = TraceGenerator::new(UserProfile::panel().remove(profile))
                .with_seed(seed)
                .generate(days);
            let mut mon = Monitor::new();
            for d in &trace.days {
                mon.observe_day(d);
            }
            assert_eq!(mon.db.len(), len);
            assert_eq!(mon.db.flush_count(), flushes);
            mon.finalize();
            assert_eq!(mon.db.len(), len);
            assert_eq!(mon.db.persisted_len(), len);
            assert_eq!(mon.db.flush_count(), final_flushes);
            assert_eq!(
                mon.db.kind_counts(),
                KindCounts {
                    screen_on: on,
                    screen_off: off,
                    foreground: fg,
                    bytes,
                    network: net,
                }
            );
        }
    }

    #[test]
    fn observe_day_emits_all_event_kinds() {
        let trace = TraceGenerator::new(UserProfile::panel().remove(0))
            .with_seed(8)
            .generate(1);
        let mut mon = Monitor::new();
        mon.observe_day(&trace.days[0]);
        mon.finalize();
        assert_eq!(mon.db.persisted_len(), mon.db.len());
        let k = mon.db.kind_counts();
        assert!(k.screen_on > 0);
        assert!(k.screen_off > 0);
        assert!(k.foreground > 0);
        assert!(k.network > 0);
        assert!(k.bytes > 0);
    }

    #[test]
    fn screen_off_sampling_is_coarser() {
        // A 60 s screen-off transfer gets 2 samples (30 s timer); the
        // same transfer screen-on gets 60 (1 s timer).
        use netmaster_trace::event::{ActivityCause, NetworkActivity, ScreenSession};
        let mk_day = |screen_on: bool| {
            let mut d = DayTrace::new(0);
            if screen_on {
                d.sessions = vec![ScreenSession { start: 0, end: 200 }];
            }
            d.activities = vec![NetworkActivity {
                start: 10,
                duration: 60,
                bytes_down: 600,
                bytes_up: 0,
                app: AppId(0),
                cause: ActivityCause::Background,
            }];
            d
        };
        let count_bytes = |day: &DayTrace| {
            let mut mon = Monitor::new();
            mon.observe_day(day);
            mon.finalize();
            mon.db.kind_counts().bytes
        };
        assert_eq!(count_bytes(&mk_day(false)), 2);
        assert_eq!(count_bytes(&mk_day(true)), 60);
    }

    #[test]
    fn record_sizes_are_positive() {
        for r in [
            Record::Screen { at: 0, on: true },
            Record::Foreground {
                at: 0,
                app: AppId(0),
            },
            Record::Bytes {
                at: 0,
                down: 0,
                up: 0,
            },
            Record::Network {
                at: 0,
                app: AppId(0),
                bytes: 0,
            },
        ] {
            assert!(r.size_bytes() > 0);
        }
    }
}
