//! Bounded-window latency recording with percentile snapshots.
//!
//! A serving process measures an open-ended stream of requests.
//! [`LatencyWindow`] keeps the most recent `window` samples in a ring (so
//! a long-lived daemon's percentiles track *current* behavior, not its
//! boot-time warmup) plus lifetime count/total/max, and renders a
//! [`LatencySnapshot`] with nearest-rank percentiles.

use std::time::Duration;

/// A ring of recent duration samples plus lifetime aggregates.
#[derive(Debug, Clone)]
pub struct LatencyWindow {
    ring: Vec<Duration>,
    next: usize,
    window: usize,
    count: u64,
    total: Duration,
    max: Duration,
}

/// Point-in-time percentile summary of a [`LatencyWindow`].
///
/// Percentiles are computed over the retained window; `count`, `mean`,
/// and `max` are lifetime aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Samples recorded over the window's lifetime.
    pub count: u64,
    /// Lifetime mean.
    pub mean: Duration,
    /// 50th percentile of the retained window.
    pub p50: Duration,
    /// 90th percentile of the retained window.
    pub p90: Duration,
    /// 99th percentile of the retained window.
    pub p99: Duration,
    /// Lifetime maximum.
    pub max: Duration,
}

impl LatencySnapshot {
    /// The all-zero snapshot reported before any sample arrives.
    pub fn empty() -> LatencySnapshot {
        LatencySnapshot {
            count: 0,
            mean: Duration::ZERO,
            p50: Duration::ZERO,
            p90: Duration::ZERO,
            p99: Duration::ZERO,
            max: Duration::ZERO,
        }
    }
}

impl LatencyWindow {
    /// Creates a window retaining the most recent `window` samples
    /// (minimum 1).
    pub fn new(window: usize) -> LatencyWindow {
        LatencyWindow {
            ring: Vec::with_capacity(window.clamp(1, 4096)),
            next: 0,
            window: window.max(1),
            count: 0,
            total: Duration::ZERO,
            max: Duration::ZERO,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: Duration) {
        self.count += 1;
        self.total += sample;
        self.max = self.max.max(sample);
        if self.ring.len() < self.window {
            self.ring.push(sample);
        } else {
            self.ring[self.next] = sample;
        }
        self.next = (self.next + 1) % self.window;
    }

    /// Computes the current percentile summary.
    pub fn snapshot(&self) -> LatencySnapshot {
        if self.ring.is_empty() {
            return LatencySnapshot::empty();
        }
        let mut sorted = self.ring.clone();
        sorted.sort();
        LatencySnapshot {
            count: self.count,
            mean: self.total.div_f64(self.count as f64),
            p50: sorted_percentile(&sorted, 50.0),
            p90: sorted_percentile(&sorted, 90.0),
            p99: sorted_percentile(&sorted, 99.0),
            max: self.max,
        }
    }
}

/// Nearest-rank percentile of an ascending, non-empty sample set:
/// rank `ceil(p/100 · n)`, 1-based, with `p = 0` mapping to rank 1.
fn sorted_percentile(sorted: &[Duration], p: f64) -> Duration {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_reports_zeroes() {
        let w = LatencyWindow::new(8);
        assert_eq!(w.snapshot(), LatencySnapshot::empty());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<Duration> = (1..=10).map(Duration::from_millis).collect();
        let at = |p| sorted_percentile(&samples, p).as_millis();
        assert_eq!((at(0.0), at(50.0), at(90.0)), (1, 5, 9));
        assert_eq!((at(99.0), at(100.0)), (10, 10));
    }

    #[test]
    fn percentiles_track_recorded_samples() {
        let mut w = LatencyWindow::new(128);
        for ms in 1..=100 {
            w.record(Duration::from_millis(ms));
        }
        let s = w.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50.as_millis(), 50);
        assert_eq!(s.p90.as_millis(), 90);
        assert_eq!(s.p99.as_millis(), 99);
        assert_eq!(s.max.as_millis(), 100);
        assert_eq!(s.mean.as_micros(), 50_500);
    }

    #[test]
    fn ring_retains_only_recent_samples_but_lifetime_max() {
        let mut w = LatencyWindow::new(4);
        w.record(Duration::from_secs(10)); // will be overwritten
        for _ in 0..4 {
            w.record(Duration::from_millis(1));
        }
        let s = w.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.p99.as_millis(), 1, "old spike left the window");
        assert_eq!(s.max.as_secs(), 10, "lifetime max survives");
    }
}
