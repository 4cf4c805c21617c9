//! A bounded in-memory time series of metric deltas.
//!
//! `Snapshot` answers "how much, ever"; operators also need "how much,
//! lately". A [`Timeline`] keeps a fixed-capacity ring of periodic
//! [`Snapshot::delta`] results: a recorder thread feeds it one full
//! snapshot per interval, the timeline stores only the per-interval
//! difference plus the caller-supplied timestamp, and old entries fall off
//! the front once the retention capacity is reached. Rates fall out of the
//! stored deltas directly (counter delta over interval), with no second
//! differencing pass at query time.
//!
//! Timestamps are supplied by the caller in milliseconds from an arbitrary
//! epoch (the daemon uses elapsed-since-start) so the ring is deterministic
//! under test and never consults the wall clock itself.

use crate::snapshot::Snapshot;
use std::collections::VecDeque;
use std::sync::Mutex;

/// One recorded interval: the metric movement between two consecutive
/// snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEntry {
    /// Timestamp of the snapshot that *closed* this interval, in
    /// milliseconds from the recorder's epoch.
    pub at_millis: u64,
    /// Length of the interval this delta covers, in milliseconds.
    pub interval_millis: u64,
    /// The per-interval metric movement ([`Snapshot::delta`] of the closing
    /// snapshot against the previous one).
    pub delta: Snapshot,
}

struct Inner {
    /// The snapshot that closed the most recent interval — the baseline the
    /// next `record` call differences against.
    last: Option<(u64, Snapshot)>,
    entries: VecDeque<TimelineEntry>,
}

/// A fixed-capacity ring of per-interval [`Snapshot`] deltas.
pub struct Timeline {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl Timeline {
    /// An empty timeline retaining at most `capacity` intervals. A zero
    /// capacity is clamped to one so `record` never has to special-case an
    /// unstorable ring.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                last: None,
                entries: VecDeque::new(),
            }),
        }
    }

    /// The retention capacity, in intervals.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of intervals currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("timeline").entries.len()
    }

    /// Whether no interval has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feeds one periodic snapshot taken at `at_millis`.
    ///
    /// The first call only establishes the baseline (storing a delta against
    /// nothing would misreport the process's whole history as one interval);
    /// every later call stores `snapshot.delta(previous)` and evicts the
    /// oldest interval once the ring is full. Returns `true` when an entry
    /// was stored.
    pub fn record(&self, at_millis: u64, snapshot: Snapshot) -> bool {
        let mut inner = self.inner.lock().expect("timeline");
        let stored = match inner.last.take() {
            None => false,
            Some((prev_at, prev)) => {
                inner.entries.push_back(TimelineEntry {
                    at_millis,
                    interval_millis: at_millis.saturating_sub(prev_at),
                    delta: snapshot.delta(&prev),
                });
                while inner.entries.len() > self.capacity {
                    inner.entries.pop_front();
                }
                true
            }
        };
        inner.last = Some((at_millis, snapshot));
        stored
    }

    /// The most recent `n` intervals, oldest first.
    pub fn tail(&self, n: usize) -> Vec<TimelineEntry> {
        let inner = self.inner.lock().expect("timeline");
        let skip = inner.entries.len().saturating_sub(n);
        inner.entries.iter().skip(skip).cloned().collect()
    }

    /// The per-second rate of counter `name` over the most recent `n`
    /// intervals: summed counter deltas divided by summed interval time.
    /// `None` when no retained interval covers a nonzero span or the counter
    /// never appears.
    pub fn rate(&self, name: &str, n: usize) -> Option<f64> {
        let inner = self.inner.lock().expect("timeline");
        let skip = inner.entries.len().saturating_sub(n);
        let mut total = 0u64;
        let mut millis = 0u64;
        let mut seen = false;
        for entry in inner.entries.iter().skip(skip) {
            millis += entry.interval_millis;
            if let Some(v) = entry.delta.counter(name) {
                total += v;
                seen = true;
            }
        }
        if !seen || millis == 0 {
            return None;
        }
        Some(total as f64 * 1000.0 / millis as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn snap_with(counter: u64) -> Snapshot {
        let r = Registry::new(true);
        r.counter("t_events_total", "Events.").add(counter);
        r.gauge("t_live", "Live.").set(counter as i64);
        r.snapshot()
    }

    #[test]
    fn first_record_only_seeds_baseline() {
        let t = Timeline::new(8);
        assert!(!t.record(1_000, snap_with(100)));
        assert!(t.is_empty());
        assert!(t.record(2_000, snap_with(150)));
        let tail = t.tail(10);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].at_millis, 2_000);
        assert_eq!(tail[0].interval_millis, 1_000);
        assert_eq!(tail[0].delta.counter("t_events_total"), Some(50));
        assert_eq!(tail[0].delta.gauge("t_live"), Some(150));
    }

    #[test]
    fn eviction_at_exact_retention_boundary() {
        let t = Timeline::new(3);
        t.record(0, snap_with(0));
        for i in 1..=3u64 {
            t.record(i * 100, snap_with(i * 10));
        }
        // exactly at capacity: nothing evicted yet
        assert_eq!(t.len(), 3);
        assert_eq!(t.tail(10)[0].at_millis, 100);
        // one past capacity: exactly the oldest interval falls off
        t.record(400, snap_with(40));
        assert_eq!(t.len(), 3);
        let tail = t.tail(10);
        assert_eq!(tail[0].at_millis, 200);
        assert_eq!(tail[2].at_millis, 400);
        // every retained delta is still the per-interval movement
        assert!(tail
            .iter()
            .all(|e| e.delta.counter("t_events_total") == Some(10)));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let t = Timeline::new(0);
        assert_eq!(t.capacity(), 1);
        t.record(0, snap_with(0));
        t.record(100, snap_with(1));
        t.record(200, snap_with(2));
        assert_eq!(t.len(), 1);
        assert_eq!(t.tail(10)[0].at_millis, 200);
    }

    #[test]
    fn rate_sums_deltas_over_interval_time() {
        let t = Timeline::new(8);
        t.record(0, snap_with(0));
        t.record(1_000, snap_with(500));
        t.record(2_000, snap_with(1_500));
        // full window: 1500 events over 2 seconds
        assert_eq!(t.rate("t_events_total", 10), Some(750.0));
        // last interval only: 1000 events over 1 second
        assert_eq!(t.rate("t_events_total", 1), Some(1_000.0));
        assert_eq!(t.rate("no_such_total", 10), None);
        let empty = Timeline::new(8);
        assert_eq!(empty.rate("t_events_total", 10), None);
    }
}
