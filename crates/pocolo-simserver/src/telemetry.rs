//! Telemetry: the latest reading of a sensor, and percentiles.
//!
//! The paper's server manager watches load and the p99 tail-latency slack
//! over one-second windows, and the power capper samples the meter every
//! 100 ms (§IV-C). A control loop acts on the newest sample only, so a
//! [`Reading`] keeps that one sample plus the stuck-exporter freeze the
//! fault model injects.

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

/// The latest `(timestamp_seconds, value)` sample of one telemetry feed.
///
/// ```
/// use pocolo_simserver::Reading;
/// let mut r = Reading::default();
/// for i in 0..10 {
///     r.push(i as f64 * 0.1, 100.0 + i as f64);
/// }
/// assert_eq!(r.last().map(|(_, v)| v), Some(109.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reading {
    last: Option<(f64, f64)>,
    /// While set, new samples are dropped until this absolute time: the
    /// feed replays its last reading — a stuck telemetry exporter.
    frozen_until: Option<f64>,
}

impl Reading {
    /// Freezes the feed until the absolute time `until_s`: pushes are
    /// dropped while frozen, so readers keep seeing the stale last sample
    /// (a telemetry dropout, not a dead feed).
    pub fn freeze_until(&mut self, until_s: f64) {
        assert!(until_s.is_finite(), "freeze deadline must be finite");
        self.frozen_until = Some(until_s);
    }

    /// Lifts a freeze immediately, whatever its deadline.
    pub fn thaw(&mut self) {
        self.frozen_until = None;
    }

    /// True if the feed is frozen (stale) at time `now_s`.
    pub fn is_frozen(&self, now_s: f64) -> bool {
        matches!(self.frozen_until, Some(until) if now_s < until)
    }

    /// Records a sample. Timestamps must be non-decreasing; out-of-order
    /// samples are silently dropped (telemetry is best-effort), as are
    /// samples pushed while the feed is frozen.
    pub fn push(&mut self, t: f64, value: f64) {
        if self.is_frozen(t) || self.last.is_some_and(|(last_t, _)| t < last_t) {
            return;
        }
        self.last = Some((t, value));
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<(f64, f64)> {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn out_of_order_samples_dropped() {
        let mut r = Reading::default();
        r.push(1.0, 1.0);
        r.push(0.5, 99.0);
        assert_eq!(r.last(), Some((1.0, 1.0)));
        r.push(2.0, 2.0);
        assert_eq!(r.last(), Some((2.0, 2.0)));
        // An equal timestamp is in order: the newer value wins.
        r.push(2.0, 3.0);
        assert_eq!(r.last(), Some((2.0, 3.0)));
    }

    #[test]
    fn window_on_empty_series() {
        let r = Reading::default();
        assert_eq!(r.last(), None);
        assert!(!r.is_frozen(0.0));
    }

    #[test]
    fn frozen_series_drops_pushes_until_deadline() {
        let mut r = Reading::default();
        r.push(1.0, 10.0);
        r.freeze_until(3.0);
        assert!(r.is_frozen(2.0));
        r.push(2.0, 20.0); // dropped: frozen
        assert_eq!(r.last(), Some((1.0, 10.0)));
        assert!(!r.is_frozen(3.0));
        r.push(3.5, 30.0); // deadline passed: accepted
        assert_eq!(r.last(), Some((3.5, 30.0)));
    }

    #[test]
    fn thaw_lifts_freeze_early() {
        let mut r = Reading::default();
        r.freeze_until(100.0);
        r.push(0.5, 1.0); // dropped: frozen
        assert_eq!(r.last(), None);
        r.thaw();
        assert!(!r.is_frozen(0.0));
        r.push(0.5, 1.0);
        assert_eq!(r.last(), Some((0.5, 1.0)));
    }
}
