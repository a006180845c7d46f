//! Telemetry: bounded time series and windowed statistics.
//!
//! The paper's server manager watches load and the p99 tail-latency slack
//! over one-second windows, and the power capper samples the meter every
//! 100 ms (§IV-C). This module provides the ring-buffer time series and
//! percentile machinery those loops need.

use std::collections::VecDeque;

/// Summary statistics over a telemetry window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Number of samples in the window.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl WindowStats {
    /// Computes stats from raw samples. Non-finite samples (NaN, ±inf —
    /// a glitched sensor) are ignored; returns `None` if no finite sample
    /// remains.
    pub fn from_samples(samples: &[f64]) -> Option<WindowStats> {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(f64::total_cmp);
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        Some(WindowStats {
            count,
            mean,
            min: sorted[0],
            max: sorted[count - 1],
            p50: percentile_of_sorted(&sorted, 0.50),
            p95: percentile_of_sorted(&sorted, 0.95),
            p99: percentile_of_sorted(&sorted, 0.99),
        })
    }
}

/// Nearest-rank percentile with linear interpolation on a sorted slice.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn percentile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if frac == 0.0 {
        sorted[lo]
    } else {
        sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac
    }
}

/// A bounded time series of `(timestamp_seconds, value)` samples.
///
/// Old samples are evicted once capacity is reached, so memory stays
/// constant over long simulations.
///
/// ```
/// use pocolo_simserver::TimeSeries;
/// let mut ts = TimeSeries::with_capacity(128);
/// for i in 0..10 {
///     ts.push(i as f64 * 0.1, 100.0 + i as f64);
/// }
/// assert_eq!(ts.len(), 10);
/// assert_eq!(ts.last().map(|(_, v)| v), Some(109.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    capacity: usize,
    samples: VecDeque<(f64, f64)>,
    /// While set, new samples are dropped until this absolute time: the
    /// series replays its last reading — a stuck telemetry exporter.
    frozen_until: Option<f64>,
}

impl TimeSeries {
    /// Creates a series holding at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "time series capacity must be positive");
        TimeSeries {
            capacity,
            samples: VecDeque::with_capacity(capacity),
            frozen_until: None,
        }
    }

    /// Freezes the series until the absolute time `until_s`: pushes are
    /// dropped while frozen, so readers keep seeing the stale last sample
    /// (a telemetry dropout, not a dead series).
    pub fn freeze_until(&mut self, until_s: f64) {
        assert!(until_s.is_finite(), "freeze deadline must be finite");
        self.frozen_until = Some(until_s);
    }

    /// Lifts a freeze immediately, whatever its deadline.
    pub fn thaw(&mut self) {
        self.frozen_until = None;
    }

    /// True if the series is frozen (stale) at time `now_s`.
    pub fn is_frozen(&self, now_s: f64) -> bool {
        matches!(self.frozen_until, Some(until) if now_s < until)
    }

    /// Appends a sample. Timestamps must be non-decreasing; out-of-order
    /// samples are silently dropped (telemetry is best-effort), as are
    /// samples pushed while the series is frozen.
    pub fn push(&mut self, t: f64, value: f64) {
        if self.is_frozen(t) {
            return;
        }
        if let Some(&(last_t, _)) = self.samples.back() {
            if t < last_t {
                return;
            }
        }
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back((t, value));
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<(f64, f64)> {
        self.samples.back().copied()
    }

    /// Iterates over `(t, value)` pairs oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.samples.iter().copied()
    }

    /// Drops all samples.
    pub fn clear(&mut self) {
        self.samples.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_stats_percentiles() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = WindowStats::from_samples(&samples).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.p95 - 95.05).abs() < 1e-9);
        assert!((s.p99 - 99.01).abs() < 1e-9);
    }

    #[test]
    fn window_stats_ignores_non_finite_samples() {
        // Regression: the old comparator `expect`ed finite samples and
        // panicked on NaN.
        let s = WindowStats::from_samples(&[3.0, f64::NAN, 1.0, f64::INFINITY, 2.0]).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!(WindowStats::from_samples(&[f64::NAN, f64::NEG_INFINITY]).is_none());
    }

    #[test]
    fn window_stats_empty_and_single() {
        assert!(WindowStats::from_samples(&[]).is_none());
        let s = WindowStats::from_samples(&[42.0]).unwrap();
        assert_eq!(s.p99, 42.0);
        assert_eq!(s.mean, 42.0);
    }

    #[test]
    fn percentile_interpolates() {
        let sorted = [0.0, 10.0];
        assert!((percentile_of_sorted(&sorted, 0.5) - 5.0).abs() < 1e-12);
        assert_eq!(percentile_of_sorted(&sorted, 0.0), 0.0);
        assert_eq!(percentile_of_sorted(&sorted, 1.0), 10.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        let _ = percentile_of_sorted(&[], 0.5);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut ts = TimeSeries::with_capacity(3);
        for i in 0..5 {
            ts.push(i as f64, i as f64 * 10.0);
        }
        assert_eq!(ts.len(), 3);
        let vals: Vec<f64> = ts.iter().map(|(_, v)| v).collect();
        assert_eq!(vals, vec![20.0, 30.0, 40.0]);
        assert_eq!(ts.last(), Some((4.0, 40.0)));
    }

    #[test]
    fn out_of_order_samples_dropped() {
        let mut ts = TimeSeries::with_capacity(10);
        ts.push(1.0, 1.0);
        ts.push(0.5, 99.0);
        ts.push(2.0, 2.0);
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn window_on_empty_series() {
        let ts = TimeSeries::with_capacity(4);
        assert!(ts.is_empty());
        assert_eq!(ts.last(), None);
    }

    #[test]
    fn clear_empties() {
        let mut ts = TimeSeries::with_capacity(4);
        ts.push(0.0, 1.0);
        ts.clear();
        assert!(ts.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = TimeSeries::with_capacity(0);
    }

    #[test]
    fn frozen_series_drops_pushes_until_deadline() {
        let mut ts = TimeSeries::with_capacity(10);
        ts.push(1.0, 10.0);
        ts.freeze_until(3.0);
        assert!(ts.is_frozen(2.0));
        ts.push(2.0, 20.0); // dropped: frozen
        assert_eq!(ts.last(), Some((1.0, 10.0)));
        assert!(!ts.is_frozen(3.0));
        ts.push(3.5, 30.0); // deadline passed: accepted
        assert_eq!(ts.last(), Some((3.5, 30.0)));
    }

    #[test]
    fn thaw_lifts_freeze_early() {
        let mut ts = TimeSeries::with_capacity(4);
        ts.freeze_until(100.0);
        ts.thaw();
        assert!(!ts.is_frozen(0.0));
        ts.push(0.5, 1.0);
        assert_eq!(ts.len(), 1);
    }
}
