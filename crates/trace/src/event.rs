//! Trace event schema.
//!
//! A trace is a record of what a phone did: when the screen was on, what
//! the user touched, and which apps moved bytes over the cellular radio.
//! This mirrors the four features NetMaster's monitoring component
//! records — *time, App, cellular network and screen* (paper §V-A).

use crate::time::{Interval, Seconds, Timestamp};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Compact identifier for an application. Indexes into the
/// [`AppRegistry`](crate::trace::AppRegistry) of the owning trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AppId(pub u16);

impl AppId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app#{}", self.0)
    }
}

/// Stable causal identifier for one network activity.
///
/// A `TraceId` names the activity positionally: `(day, index)` where
/// `index` is the activity's position in its day's `activities` vector
/// *after* [`DayTrace::normalize`](crate::trace::DayTrace::normalize)
/// (the generator always normalizes, so ids are assigned at
/// generation). Because generation and normalization are deterministic,
/// the same `(profile, seed)` always yields the same id for the same
/// logical transfer — the property the causal ledger needs to join
/// planning decisions with energy apportionment. Filtering operations
/// ([`crate::ops`]) re-index the surviving activities, so ids must be
/// re-derived after filtering, never cached across it.
///
/// Packed into one `u64` (`day << 32 | index`) so it rides scratch
/// structures and journal records without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Id of the `index`-th activity of `day`.
    #[inline]
    pub fn new(day: usize, index: usize) -> Self {
        TraceId(((day as u64) << 32) | (index as u64 & 0xFFFF_FFFF))
    }

    /// The day the activity belongs to.
    #[inline]
    pub fn day(self) -> usize {
        (self.0 >> 32) as usize
    }

    /// The activity's index within its day (post-normalization order).
    #[inline]
    pub fn index(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    /// The raw packed value (what the obs ledger stores).
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}-a{}", self.day(), self.index())
    }
}

impl std::str::FromStr for TraceId {
    type Err = String;

    /// Parses the `d<day>-a<index>` display form (used by
    /// `netmaster explain --activity`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || format!("bad trace id {s:?}: expected d<day>-a<index>");
        let rest = s.strip_prefix('d').ok_or_else(err)?;
        let (day, idx) = rest.split_once("-a").ok_or_else(err)?;
        let day: usize = day.parse().map_err(|_| err())?;
        let idx: usize = idx.parse().map_err(|_| err())?;
        Ok(TraceId::new(day, idx))
    }
}

/// Transfer direction of a network activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Downlink-dominated (fetch, pull sync, content download).
    Down,
    /// Uplink-dominated (upload, telemetry, post).
    Up,
    /// Mixed (interactive browsing, chat).
    Both,
}

/// Why a network activity happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActivityCause {
    /// The user did something in the foreground that needed the network.
    Foreground,
    /// A background periodic sync / push / telemetry beacon.
    Background,
}

/// One network activity: an app transferring data over cellular.
///
/// This is the paper's `n(p_m, t_i)` with its size `V(n)`. The activity
/// occupies `[start, start+duration)` on the radio when executed at its
/// natural time; schedulers may move it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkActivity {
    /// Natural start time (when the app issued the request).
    pub start: Timestamp,
    /// Active transfer duration in seconds at the natural link rate.
    pub duration: Seconds,
    /// Bytes received.
    pub bytes_down: u64,
    /// Bytes sent.
    pub bytes_up: u64,
    /// Which app initiated the transfer.
    pub app: AppId,
    /// Foreground-triggered or background.
    pub cause: ActivityCause,
}

impl NetworkActivity {
    /// Total payload `V(n)` in bytes.
    #[inline]
    pub fn volume(&self) -> u64 {
        self.bytes_down + self.bytes_up
    }

    /// The span the transfer occupies at its natural time.
    #[inline]
    pub fn span(&self) -> Interval {
        Interval::new(self.start, self.start + self.duration.max(1))
    }

    /// Dominant direction by byte count.
    pub fn direction(&self) -> Direction {
        let d = self.bytes_down as f64;
        let u = self.bytes_up as f64;
        if d > 4.0 * u {
            Direction::Down
        } else if u > 4.0 * d {
            Direction::Up
        } else {
            Direction::Both
        }
    }
}

/// One user interaction: a discrete "use" of the phone (app launch,
/// foreground switch, deliberate tap burst). Interactions are what the
/// habit miner counts as *usage intensity*, and what the scheduler must
/// not interrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Interaction {
    /// When it happened.
    pub at: Timestamp,
    /// App in the foreground.
    pub app: AppId,
    /// Whether the interaction required the network (e.g. opening a feed).
    pub needs_network: bool,
}

/// A screen-on session `[start, end)` with the interactions inside it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScreenSession {
    /// Screen-on instant.
    pub start: Timestamp,
    /// Screen-off instant.
    pub end: Timestamp,
}

impl ScreenSession {
    /// Session span as an interval.
    #[inline]
    pub fn span(&self) -> Interval {
        Interval::new(self.start, self.end)
    }

    /// Session length in seconds.
    #[inline]
    pub fn len(&self) -> Seconds {
        self.end - self.start
    }

    /// `true` for zero-length sessions (filtered by the generator).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A unified, time-ordered trace event, for consumers that want a single
/// stream (the simulator, the monitoring component's event trigger).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// Screen turned on.
    ScreenOn(Timestamp),
    /// Screen turned off.
    ScreenOff(Timestamp),
    /// User interaction.
    Interaction(Interaction),
    /// Network activity issued.
    Network(NetworkActivity),
}

impl Event {
    /// Timestamp ordering key. Simultaneous events order:
    /// ScreenOn < Interaction < Network < ScreenOff.
    #[inline]
    pub fn at(&self) -> Timestamp {
        match self {
            Event::ScreenOn(t) | Event::ScreenOff(t) => *t,
            Event::Interaction(i) => i.at,
            Event::Network(n) => n.start,
        }
    }

    /// Secondary sort rank for simultaneous events.
    #[inline]
    pub fn rank(&self) -> u8 {
        match self {
            Event::ScreenOn(_) => 0,
            Event::Interaction(_) => 1,
            Event::Network(_) => 2,
            Event::ScreenOff(_) => 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act(start: Timestamp, duration: Seconds, down: u64, up: u64) -> NetworkActivity {
        NetworkActivity {
            start,
            duration,
            bytes_down: down,
            bytes_up: up,
            app: AppId(0),
            cause: ActivityCause::Background,
        }
    }

    #[test]
    fn activity_volume_and_rate() {
        let a = act(100, 10, 900, 100);
        assert_eq!(a.volume(), 1000);
        assert_eq!(a.span(), Interval::new(100, 110));
    }

    #[test]
    fn zero_duration_activity_has_unit_span() {
        let a = act(5, 0, 10, 0);
        assert_eq!(a.span().len(), 1);
    }

    #[test]
    fn direction_classification() {
        assert_eq!(act(0, 1, 1000, 10).direction(), Direction::Down);
        assert_eq!(act(0, 1, 10, 1000).direction(), Direction::Up);
        assert_eq!(act(0, 1, 500, 400).direction(), Direction::Both);
    }

    #[test]
    fn event_ordering_keys() {
        let on = Event::ScreenOn(10);
        let tap = Event::Interaction(Interaction {
            at: 10,
            app: AppId(1),
            needs_network: false,
        });
        let net = Event::Network(act(10, 1, 1, 1));
        let off = Event::ScreenOff(10);
        let mut v = [off, net, tap, on];
        v.sort_by_key(|e| (e.at(), e.rank()));
        assert!(matches!(v[0], Event::ScreenOn(_)));
        assert!(matches!(v[3], Event::ScreenOff(_)));
    }

    #[test]
    fn trace_id_packs_and_displays() {
        let id = TraceId::new(17, 42);
        assert_eq!(id.day(), 17);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "d17-a42");
        assert_eq!(TraceId::new(17, 42), id);
        assert_eq!(id.raw(), (17u64 << 32) | 42);
        // Ordering follows (day, index).
        assert!(TraceId::new(17, 43) > id);
        assert!(TraceId::new(18, 0) > id);
    }

    #[test]
    fn trace_id_parses_display_form() {
        let id: TraceId = "d3-a250".parse().unwrap();
        assert_eq!((id.day(), id.index()), (3, 250));
        assert!("a3-d250".parse::<TraceId>().is_err());
        assert!("d3a250".parse::<TraceId>().is_err());
        assert!("d3-ax".parse::<TraceId>().is_err());
    }

    #[test]
    fn screen_session_span() {
        let s = ScreenSession {
            start: 50,
            end: 170,
        };
        assert_eq!(s.len(), 120);
        assert!(!s.is_empty());
        assert!(s.span().contains(50));
        assert!(!s.span().contains(170));
    }
}
