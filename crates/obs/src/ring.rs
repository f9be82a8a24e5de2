//! The bounded drop-oldest ring every retention site in this crate
//! shares: the decision journal, the activity ledger, the span-tree
//! store, each metric-history series, the hub's `/journal` tail and
//! the windowed-CUSUM window.
//!
//! A [`Ring`] keeps the most recent `capacity` items. Pushing into a
//! full ring evicts the oldest item and hands it back, so each site
//! keeps its own drop metric at the call site. The ring also tracks
//! its lifetime push count, its eviction count and the highest fill
//! level it has reached. It records nothing into the metrics registry
//! itself and compiles whether or not the `enabled` feature is on.

use std::collections::{vec_deque, VecDeque};

/// A bounded drop-oldest ring. Iteration runs oldest → newest.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    buf: VecDeque<T>,
    cap: usize,
    pushed: u64,
    dropped: u64,
    high_water: usize,
}

impl<T> Ring<T> {
    /// A ring holding at most `cap` items. A zero-capacity ring keeps
    /// nothing: it is switched off, not under pressure, so its pushes
    /// are counted but never counted as drops.
    pub fn new(cap: usize) -> Self {
        Ring {
            buf: VecDeque::new(),
            cap,
            pushed: 0,
            dropped: 0,
            high_water: 0,
        }
    }

    /// [`Ring::new`] with the capacity clamped to at least 1.
    pub fn with_capacity(cap: usize) -> Self {
        Self::new(cap.max(1))
    }

    /// Appends `item`. When the ring is full the oldest item is
    /// evicted, counted in [`Ring::dropped`] and returned.
    #[inline]
    pub fn push(&mut self, item: T) -> Option<T> {
        self.pushed += 1;
        if self.cap == 0 {
            return None;
        }
        let evicted = if self.buf.len() >= self.cap {
            self.dropped += 1;
            self.buf.pop_front()
        } else {
            None
        };
        self.buf.push_back(item);
        self.high_water = self.high_water.max(self.buf.len());
        evicted
    }

    /// Items currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum items retained.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Resizes the ring. Shrinking evicts the oldest items at once;
    /// that is configuration, not pressure, so it counts no drops.
    pub fn set_capacity(&mut self, cap: usize) {
        self.cap = cap;
        let excess = self.buf.len().saturating_sub(cap);
        self.buf.drain(..excess);
    }

    /// Items pushed since creation, evicted ones included. Never
    /// decreases: [`Ring::drain`] leaves it alone.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Items evicted because the ring was full, since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Highest fill level reached since creation. It equals the
    /// capacity once anything has been dropped.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// The newest item.
    pub fn back(&self) -> Option<&T> {
        self.buf.back()
    }

    /// Items, oldest first.
    pub fn iter(&self) -> vec_deque::Iter<'_, T> {
        self.buf.iter()
    }

    /// Mutable items, oldest first.
    pub fn iter_mut(&mut self) -> vec_deque::IterMut<'_, T> {
        self.buf.iter_mut()
    }

    /// Takes every item, oldest first. The lifetime counts stay.
    pub fn drain(&mut self) -> Vec<T> {
        self.buf.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_capacity_keeps_nothing_and_counts_no_drops() {
        let mut r = Ring::new(0);
        for i in 0..4 {
            assert_eq!(r.push(i), None);
        }
        assert!(r.is_empty());
        assert_eq!(r.back(), None);
        assert_eq!((r.pushed(), r.dropped(), r.high_water()), (4, 0, 0));
    }

    #[test]
    fn with_capacity_clamps_to_at_least_one() {
        let mut r = Ring::with_capacity(0);
        assert_eq!(r.capacity(), 1);
        r.push('a');
        assert_eq!(r.push('b'), Some('a'));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![&'b']);
        assert_eq!(Ring::<u8>::with_capacity(5).capacity(), 5);
    }

    #[test]
    fn shrink_evicts_oldest_without_counting_drops() {
        let mut r = Ring::new(4);
        for i in 0..4 {
            r.push(i);
        }
        r.set_capacity(2);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(r.dropped(), 0);
        // Pressure after the shrink counts again.
        assert_eq!(r.push(4), Some(2));
        assert_eq!(r.dropped(), 1);
        // Shrinking to zero empties the ring and switches it off.
        r.set_capacity(0);
        assert!(r.is_empty());
        assert_eq!(r.push(5), None);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn push_count_keeps_rising_across_drain() {
        let mut r = Ring::new(2);
        r.push(10);
        r.push(11);
        r.push(12);
        assert_eq!(r.drain(), vec![11, 12]);
        assert!(r.is_empty());
        assert_eq!(r.pushed(), 3);
        r.push(13);
        assert_eq!(r.pushed(), 4);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.drain(), vec![13]);
    }

    #[test]
    fn high_water_tracks_the_fullest_fill() {
        let mut r = Ring::new(5);
        assert_eq!(r.high_water(), 0);
        r.push(1);
        r.push(2);
        r.push(3);
        assert_eq!(r.high_water(), 3);
        r.drain();
        r.push(4);
        assert_eq!(r.high_water(), 3, "draining does not lower the mark");
        for i in 0..10 {
            r.push(i);
        }
        assert_eq!(r.high_water(), 5, "pinned at capacity once dropping");
    }

    #[test]
    fn day_series_wrap_exactly_at_capacity() {
        // Filling to exactly `cap` must not evict anything, and the
        // very next push evicts exactly the first sample.
        let mut d = Ring::with_capacity(4);
        for day in 1..=4 {
            d.push(day as f64);
        }
        assert_eq!(d.len(), 4);
        assert_eq!(
            d.iter().copied().collect::<Vec<_>>(),
            vec![1.0, 2.0, 3.0, 4.0]
        );
        assert_eq!(d.back(), Some(&4.0));

        d.push(5.0);
        assert_eq!(d.len(), 4, "wrap keeps len pinned at capacity");
        assert_eq!(
            d.iter().copied().collect::<Vec<_>>(),
            vec![2.0, 3.0, 4.0, 5.0]
        );
        assert_eq!(d.back(), Some(&5.0));

        // A full extra lap replaces every slot once.
        for day in 6..=9 {
            d.push(day as f64);
        }
        assert_eq!(
            d.iter().copied().collect::<Vec<_>>(),
            vec![6.0, 7.0, 8.0, 9.0]
        );
        assert_eq!(d.back(), Some(&9.0));
    }

    #[test]
    fn day_series_ring_evicts_oldest() {
        let mut d = Ring::with_capacity(3);
        assert!(d.is_empty());
        assert_eq!(d.back(), None);
        for day in 1..=5 {
            d.push(day as f64);
        }
        assert_eq!(d.len(), 3);
        assert_eq!(d.capacity(), 3);
        assert_eq!(d.iter().copied().collect::<Vec<_>>(), vec![3.0, 4.0, 5.0]);
        assert_eq!(d.back(), Some(&5.0));
        let mean = d.iter().sum::<f64>() / d.len() as f64;
        assert!((mean - 4.0).abs() < 1e-12);
    }
}
