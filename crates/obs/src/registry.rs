//! The metrics registry: counters, gauges, and log-scale histograms.
//!
//! Recording never takes the registry lock on the hot path. Each call
//! site (via the [`counter!`](crate::counter)/[`observe!`](crate::observe)
//! macros) caches a per-thread [`Counter`]/[`Hist`] handle — an `Arc`
//! around a plain atomic cell — registered once per `(thread, site)`.
//! Increments are relaxed atomic RMWs on a shard nothing else touches;
//! [`snapshot`] merges shards by name under the lock, so contention is
//! confined to handle creation and scrapes. Gauges are rare writes
//! (high-water marks per DP run) and live behind a single mutex.

use crate::runtime_enabled;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Total histogram buckets; the last one is the overflow bucket,
/// surfaced only through `+Inf` in the Prometheus exposition.
pub const HIST_BUCKETS: usize = 42;
/// Finite buckets: upper bounds `2^7 ns … 2^47 ns` (128 ns … ≈39 h),
/// doubling per bucket — wide enough for wall-clock stage timings *and*
/// simulated-time latencies (deferrals span hours).
pub const FINITE_BUCKETS: usize = HIST_BUCKETS - 1;
const MIN_EXP: u32 = 7;

/// Upper bound of finite bucket `i`, in seconds.
fn bucket_le_secs(i: usize) -> f64 {
    (1u64 << (MIN_EXP + i as u32)) as f64 / 1e9
}

/// Seconds to whole nanoseconds (negative values clamp to zero).
fn secs_to_ns(secs: f64) -> u64 {
    if secs <= 0.0 {
        0
    } else {
        (secs * 1e9).min(u64::MAX as f64) as u64
    }
}

/// First bucket whose upper bound is ≥ `ns` (overflow bucket past 2^47).
fn bucket_of(ns: u64) -> usize {
    if ns <= (1 << MIN_EXP) {
        return 0;
    }
    let ceil_log = 64 - (ns - 1).leading_zeros();
    ((ceil_log - MIN_EXP) as usize).min(HIST_BUCKETS - 1)
}

/// One histogram shard: per-bucket counts plus count/sum.
pub(crate) struct HistCell {
    count: AtomicU64,
    sum_ns: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistCell {
    fn new() -> Self {
        HistCell {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn zero(&self) {
        self.count.store(0, Ordering::Relaxed); // lint:allow(atomic-ordering) shard cells are reached under the registry Mutex, whose unlock edge orders resets against merges; racing Relaxed increments are statistical
        self.sum_ns.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed); // lint:allow(atomic-ordering) shard cells are reached under the registry Mutex, whose unlock edge orders resets against merges; racing Relaxed increments are statistical
        }
    }
}

/// A counter handle: a private per-thread shard of a named counter.
/// Cloning shares the shard; the registry keeps one `Arc` so values
/// survive thread exit.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` (no-op when observability is disabled at run time).
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 && runtime_enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

/// A histogram handle: a private per-thread shard of a named histogram.
#[derive(Clone)]
pub struct Hist(Arc<HistCell>);

impl Hist {
    /// Records a value in seconds (wall-clock or simulated).
    #[inline]
    pub fn observe_secs(&self, secs: f64) {
        if !runtime_enabled() {
            return;
        }
        let ns = secs_to_ns(secs);
        let cell = &self.0;
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.sum_ns.fetch_add(ns, Ordering::Relaxed);
        cell.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }
}

/// A plain single-owner histogram over the registry's bucket layout.
/// Unlike a [`Hist`] it is not registered, not shared and not gated
/// by [`runtime_enabled`], so it serves per-user percentiles that are
/// part of a result (the watchtower's deferral p99) rather than
/// telemetry. [`snapshot`] also uses it to merge shards.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHist {
    count: u64,
    sum_ns: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for LogHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHist {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHist {
            count: 0,
            sum_ns: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }

    /// Records a value in seconds.
    pub fn observe_secs(&mut self, secs: f64) {
        let ns = secs_to_ns(secs);
        self.count += 1;
        self.sum_ns = self.sum_ns.wrapping_add(ns);
        self.buckets[bucket_of(ns)] += 1;
    }

    /// The histogram as a named [`HistSnap`], whose
    /// [`HistSnap::quantile_secs`] reads its percentiles.
    pub fn snap(&self, name: &str) -> HistSnap {
        HistSnap {
            name: name.to_owned(),
            count: self.count,
            sum_secs: self.sum_ns as f64 / 1e9,
            buckets: self
                .buckets
                .iter()
                .take(FINITE_BUCKETS)
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| BucketSnap {
                    le_secs: bucket_le_secs(i),
                    count: c,
                })
                .collect(),
        }
    }
}

struct Registry {
    counters: Mutex<Vec<(&'static str, Arc<AtomicU64>)>>,
    hists: Mutex<Vec<(&'static str, Arc<HistCell>)>>,
    gauges: Mutex<BTreeMap<&'static str, f64>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(Vec::new()), // lint:allow(hot-path-alloc) one-time OnceLock construction; hot-path calls return the cached reference
        hists: Mutex::new(Vec::new()),
        gauges: Mutex::new(BTreeMap::new()),
    })
}

/// Registers a new per-thread shard of the named counter. Call once per
/// call site per thread (the macros cache the handle in a
/// `thread_local!`); shards with the same name merge on scrape.
pub fn counter_handle(name: &'static str) -> Counter {
    let cell = Arc::new(AtomicU64::new(0));
    registry()
        .counters
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push((name, cell.clone()));
    Counter(cell)
}

/// Registers a new per-thread shard of the named histogram.
pub fn hist_handle(name: &'static str) -> Hist {
    let cell = Arc::new(HistCell::new());
    registry()
        .hists
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push((name, cell.clone()));
    Hist(cell)
}

/// Sets a gauge to `value`.
pub fn gauge_set(name: &'static str, value: f64) {
    if !runtime_enabled() {
        return;
    }
    registry()
        .gauges
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(name, value);
}

/// Raises a gauge to `value` if it is higher (high-water mark).
pub fn gauge_max(name: &'static str, value: f64) {
    if !runtime_enabled() {
        return;
    }
    let mut g = registry().gauges.lock().unwrap_or_else(|e| e.into_inner());
    let slot = g.entry(name).or_insert(value);
    if value > *slot {
        *slot = value;
    }
}

/// Zeroes every metric in place. Cached thread-local handles stay valid
/// (shards are zeroed, not dropped), so call sites keep recording into
/// the same cells after a reset.
pub fn reset() {
    let r = registry();
    for (_, c) in r.counters.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        c.store(0, Ordering::Relaxed); // lint:allow(atomic-ordering) shard cells are reached under the registry Mutex, whose unlock edge orders resets against merges; racing Relaxed increments are statistical
    }
    for (_, h) in r.hists.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        h.zero();
    }
    r.gauges.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// A scraped counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnap {
    /// Metric name.
    pub name: String,
    /// Merged value across all shards.
    pub value: u64,
}

/// A scraped gauge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnap {
    /// Metric name.
    pub name: String,
    /// Current value.
    pub value: f64,
}

/// One non-empty finite histogram bucket (per-bucket count, not
/// cumulative; overflow lives only in [`HistSnap::count`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketSnap {
    /// Upper bound of the bucket, in seconds.
    pub le_secs: f64,
    /// Observations in this bucket alone.
    pub count: u64,
}

/// A scraped histogram, merged across shards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistSnap {
    /// Metric name.
    pub name: String,
    /// Total observations (including overflow past the last bucket).
    pub count: u64,
    /// Sum of observed values, in seconds.
    pub sum_secs: f64,
    /// Non-empty finite buckets, ascending by bound.
    pub buckets: Vec<BucketSnap>,
}

impl HistSnap {
    /// Mean observed value in seconds.
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_secs / self.count as f64
    }

    /// Approximate quantile (`0.0..=1.0`), interpolated linearly inside
    /// the bucket where the cumulative count crosses `q · count`. The
    /// bucket's lower bound is half its upper bound (bounds double),
    /// except the first finite bucket which starts at zero — so a rank
    /// landing `f` of the way through a bucket's mass reports
    /// `lo + f · (le − lo)` rather than snapping to `le`. A rank
    /// landing past the last finite bucket (overflow observations)
    /// reports the overflow mass's estimated mean — `sum` minus the
    /// finite buckets' midpoint mass, over the overflow count — never
    /// a raw bucket bound, so a single huge outlier surfaces at its
    /// real magnitude instead of the histogram ceiling.
    pub fn quantile_secs(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        let mut last = 0.0;
        let mut finite_mass = 0.0;
        for b in &self.buckets {
            let before = cum;
            cum += b.count;
            let lo = if b.le_secs <= bucket_le_secs(0) {
                0.0
            } else {
                b.le_secs / 2.0
            };
            if cum >= target {
                let frac = (target - before) as f64 / b.count as f64;
                return lo + frac * (b.le_secs - lo);
            }
            finite_mass += b.count as f64 * (lo + b.le_secs) / 2.0;
            last = b.le_secs;
        }
        let overflow = self.count.saturating_sub(cum);
        if overflow == 0 {
            return last;
        }
        ((self.sum_secs - finite_mass) / overflow as f64).max(last)
    }
}

/// A point-in-time scrape of the whole registry, each section sorted by
/// name. Serializes to JSON via serde; see [`Snapshot::to_prometheus`]
/// for the text exposition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Counters, merged across shards.
    pub counters: Vec<CounterSnap>,
    /// Gauges.
    pub gauges: Vec<GaugeSnap>,
    /// Histograms, merged across shards.
    pub histograms: Vec<HistSnap>,
}

impl Snapshot {
    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Value of a gauge, when present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// A histogram by name, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistSnap> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// Merges every shard into a [`Snapshot`].
pub fn snapshot() -> Snapshot {
    let r = registry();
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (name, c) in r.counters.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        *counters.entry(name).or_insert(0) += c.load(Ordering::Relaxed); // lint:allow(atomic-ordering) shard cells are reached under the registry Mutex, whose unlock edge orders resets against merges; racing Relaxed increments are statistical
    }

    let mut hists: BTreeMap<&'static str, LogHist> = BTreeMap::new();
    for (name, h) in r.hists.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        let entry = hists.entry(name).or_default();
        entry.count += h.count.load(Ordering::Relaxed); // lint:allow(atomic-ordering) shard cells are reached under the registry Mutex, whose unlock edge orders resets against merges; racing Relaxed increments are statistical
        entry.sum_ns += h.sum_ns.load(Ordering::Relaxed);
        for (acc, b) in entry.buckets.iter_mut().zip(&h.buckets) {
            *acc += b.load(Ordering::Relaxed); // lint:allow(atomic-ordering) shard cells are reached under the registry Mutex, whose unlock edge orders resets against merges; racing Relaxed increments are statistical
        }
    }

    Snapshot {
        counters: counters
            .into_iter()
            .filter(|&(_, v)| v > 0)
            .map(|(name, value)| CounterSnap {
                name: name.to_owned(),
                value,
            })
            .collect(),
        gauges: r
            .gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(&name, &value)| GaugeSnap {
                name: name.to_owned(),
                value,
            })
            .collect(),
        histograms: hists
            .into_iter()
            .filter(|(_, h)| h.count > 0)
            .map(|(name, h)| h.snap(name))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(128), 0);
        assert_eq!(bucket_of(129), 1);
        assert_eq!(bucket_of(256), 1);
        assert_eq!(bucket_of(257), 2);
        // Overflow clamps to the last bucket.
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        // Bounds double.
        assert!((bucket_le_secs(1) / bucket_le_secs(0) - 2.0).abs() < 1e-12);
        // Last finite bound covers multi-hour simulated latencies.
        assert!(bucket_le_secs(FINITE_BUCKETS - 1) > 24.0 * 3600.0);
    }

    #[test]
    fn overflow_quantile_reports_outlier_magnitude_not_bucket_ceiling() {
        let last = bucket_le_secs(FINITE_BUCKETS - 1);
        let outlier = 10.0 * last;
        let snap = HistSnap {
            name: "t_overflow_seconds".to_owned(),
            count: 2,
            sum_secs: 1e-7 + outlier,
            buckets: vec![BucketSnap {
                le_secs: bucket_le_secs(0),
                count: 1,
            }],
        };
        // The rank landing in a finite bucket still interpolates.
        assert!(snap.quantile_secs(0.5) <= bucket_le_secs(0));
        // The rank landing in the overflow tracks the outlier's real
        // magnitude instead of snapping to the histogram ceiling.
        let p99 = snap.quantile_secs(0.99);
        assert!(p99 > last, "p99 snapped to the finite ceiling: {p99}");
        assert!(
            (p99 / outlier - 1.0).abs() < 0.01,
            "p99 {p99} vs outlier {outlier}"
        );

        // All-overflow histogram: no finite bucket at all used to
        // report 0.0 for every quantile.
        let all_over = HistSnap {
            name: "t_all_overflow_seconds".to_owned(),
            count: 1,
            sum_secs: 5.0 * last,
            buckets: Vec::new(),
        };
        assert!((all_over.quantile_secs(0.5) / (5.0 * last) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn counters_merge_across_shards() {
        let _g = crate::test_serial();
        if !crate::ENABLED {
            return;
        }
        reset();
        let a = counter_handle("test_merge_total");
        let b = counter_handle("test_merge_total");
        a.add(3);
        b.add(4);
        b.inc();
        assert_eq!(snapshot().counter("test_merge_total"), 8);
        reset();
        assert_eq!(snapshot().counter("test_merge_total"), 0);
        // Handles stay live across a reset.
        a.inc();
        assert_eq!(snapshot().counter("test_merge_total"), 1);
        reset();
    }

    #[test]
    fn histogram_records_counts_sum_and_quantiles() {
        let _g = crate::test_serial();
        if !crate::ENABLED {
            return;
        }
        reset();
        let h = hist_handle("test_hist_seconds");
        for _ in 0..90 {
            h.observe_secs(0.001);
        }
        for _ in 0..10 {
            h.observe_secs(1.0);
        }
        let snap = snapshot();
        let hs = snap.histogram("test_hist_seconds").unwrap();
        assert_eq!(hs.count, 100);
        assert!((hs.sum_secs - 10.09).abs() < 1e-6);
        assert!((hs.mean_secs() - 0.1009).abs() < 1e-6);
        // p50 lands near 1 ms, p99 near 1 s (within-bucket interpolation).
        assert!(hs.quantile_secs(0.5) < 0.01);
        assert!(hs.quantile_secs(0.99) > 0.5);
        reset();
    }

    #[test]
    fn quantiles_interpolate_within_one_bucket_width_of_truth() {
        // An empty histogram reads zero at every quantile.
        assert_eq!(LogHist::new().snap("t").quantile_secs(0.99), 0.0);
        // One bucket width at value v: bounds double, so width = le − le/2.
        let width_at = |v: f64| bucket_le_secs(bucket_of(secs_to_ns(v))) / 2.0;
        let uniform = |n: u32| (1..=n).map(|i| f64::from(i) / f64::from(n)).collect();
        // (samples, true mean, true p50, true p99): uniform over
        // 0.01 ..= 1.00 s, uniform over 0.001 ..= 1.000 s, one sample.
        let cases: [(Vec<f64>, f64, f64, f64); 3] = [
            (uniform(100), 0.505, 0.50, 0.99),
            (uniform(1000), 0.5005, 0.50, 0.99),
            (vec![0.125], 0.125, 0.125, 0.125),
        ];
        for (samples, mean, p50_true, p99_true) in cases {
            let mut h = LogHist::new();
            for &v in &samples {
                h.observe_secs(v);
            }
            let hs = h.snap("test_quantile_seconds");
            assert_eq!(hs.count, samples.len() as u64);
            assert!(
                (hs.mean_secs() - mean).abs() < 1e-9,
                "mean {}",
                hs.mean_secs()
            );
            let p50 = hs.quantile_secs(0.5);
            let p99 = hs.quantile_secs(0.99);
            assert!(
                (p50 - p50_true).abs() <= width_at(p50_true),
                "p50 {p50} further than one bucket width from {p50_true}"
            );
            assert!(
                (p99 - p99_true).abs() <= width_at(p99_true),
                "p99 {p99} further than one bucket width from {p99_true}"
            );
            if samples.len() == 1 {
                // Every quantile of one sample lands in its bucket.
                assert_eq!(hs.quantile_secs(0.01), p50);
                assert_eq!(p50, p99);
            } else {
                // The old snapping bug returned the raw bucket bound
                // exactly; a rank landing mid-bucket must not sit on a
                // power-of-two bound.
                let le50 = bucket_le_secs(bucket_of(secs_to_ns(p50)));
                assert!(p50 < le50, "p50 snapped to its bucket upper bound");
            }
        }
    }

    #[test]
    fn log_hist_matches_the_live_registry() {
        let _g = crate::test_serial();
        if !crate::ENABLED {
            return;
        }
        reset();
        let live = hist_handle("test_log_hist_seconds");
        let mut plain = LogHist::new();
        for v in [0.0, 1e-7, 0.001, 0.5, 3.0, 4000.0, 86_400.0, 1e6] {
            live.observe_secs(v);
            plain.observe_secs(v);
        }
        let snap = snapshot();
        assert_eq!(
            snap.histogram("test_log_hist_seconds"),
            Some(&plain.snap("test_log_hist_seconds"))
        );
        reset();
    }

    #[test]
    fn gauges_set_and_high_water() {
        let _g = crate::test_serial();
        if !crate::ENABLED {
            return;
        }
        reset();
        gauge_set("test_gauge", 5.0);
        gauge_max("test_gauge", 3.0);
        assert_eq!(snapshot().gauge("test_gauge"), Some(5.0));
        gauge_max("test_gauge", 9.0);
        assert_eq!(snapshot().gauge("test_gauge"), Some(9.0));
        reset();
        assert_eq!(snapshot().gauge("test_gauge"), None);
    }

    #[test]
    fn poisoned_registry_lock_recovers() {
        let _g = crate::test_serial();
        if !crate::ENABLED {
            return;
        }
        crate::set_runtime_enabled(true);
        reset();
        // Poison the gauges lock: a thread panics while holding it.
        let _ = std::thread::spawn(|| {
            let _guard = registry().gauges.lock().unwrap();
            panic!("poison the gauges lock");
        })
        .join();
        assert!(registry().gauges.is_poisoned());
        // Every accessor recovers the data via `into_inner` instead of
        // propagating the panic to unrelated threads: the guarded map
        // is valid — the poisoned bit only records that a panic
        // happened elsewhere.
        gauge_set("test_poison_gauge", 2.5);
        gauge_max("test_poison_gauge", 7.5);
        assert_eq!(snapshot().gauge("test_poison_gauge"), Some(7.5));
        reset();
        assert_eq!(snapshot().gauge("test_poison_gauge"), None);
    }

    #[test]
    fn runtime_toggle_suppresses_recording() {
        let _g = crate::test_serial();
        if !crate::ENABLED {
            return;
        }
        reset();
        let c = counter_handle("test_toggle_total");
        crate::set_runtime_enabled(false);
        c.add(100);
        crate::set_runtime_enabled(true);
        c.add(1);
        assert_eq!(snapshot().counter("test_toggle_total"), 1);
        reset();
    }
}
