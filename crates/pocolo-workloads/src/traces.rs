//! Load traces for latency-critical applications: diurnal curves, steps,
//! constant loads and the paper's uniform 10–90 % evaluation sweep.

/// A deterministic load trace: load fraction of peak (`0..=1`) as a function
/// of time.
///
/// ```
/// use pocolo_workloads::LoadTrace;
/// let trace = LoadTrace::diurnal(0.1, 0.9, 86_400.0);
/// let noon = trace.load_at(43_200.0);
/// let midnight = trace.load_at(0.0);
/// assert!(noon > midnight);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum LoadTrace {
    /// Constant load fraction.
    Constant(f64),
    /// Sinusoidal day/night curve between `min` and `max` with the trough at
    /// `t = 0`.
    Diurnal {
        /// Minimum (night-time) load fraction.
        min: f64,
        /// Maximum (peak-hour) load fraction.
        max: f64,
        /// Period of one day in seconds.
        period_s: f64,
    },
    /// Piecewise-constant steps of `(duration_s, load)`; cycles after the
    /// last step.
    Steps(Vec<(f64, f64)>),
    /// The paper's evaluation distribution: uniform steps through
    /// `levels` load fractions, `dwell_s` seconds each (§V-D uses
    /// 10 %–90 % in steps of 10).
    UniformSweep {
        /// The load levels visited in order.
        levels: Vec<f64>,
        /// Time spent at each level, seconds.
        dwell_s: f64,
    },
    /// Replays recorded `(timestamp_s, load)` samples with step
    /// interpolation, cycling after the last sample — production traces
    /// exported from telemetry.
    Replay(Vec<(f64, f64)>),
}

impl LoadTrace {
    /// A diurnal trace from `min` to `max` over `period_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ min ≤ max ≤ 1` and `period_s > 0`.
    pub fn diurnal(min: f64, max: f64, period_s: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&min) && (0.0..=1.0).contains(&max) && min <= max,
            "diurnal bounds must satisfy 0 <= min <= max <= 1"
        );
        assert!(period_s > 0.0, "period must be positive");
        LoadTrace::Diurnal { min, max, period_s }
    }

    /// A replay trace from recorded `(timestamp_s, load)` samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or timestamps are not strictly
    /// increasing from a non-negative start.
    pub fn replay(samples: Vec<(f64, f64)>) -> Self {
        assert!(!samples.is_empty(), "replay trace needs samples");
        assert!(samples[0].0 >= 0.0, "timestamps start at or after zero");
        assert!(
            samples.windows(2).all(|w| w[1].0 > w[0].0),
            "timestamps must be strictly increasing"
        );
        LoadTrace::Replay(samples)
    }

    /// The paper's 10–90 % uniform sweep in steps of 10 %, one step per
    /// `dwell_s` seconds.
    pub fn paper_sweep(dwell_s: f64) -> Self {
        LoadTrace::UniformSweep {
            levels: (1..=9).map(|i| i as f64 / 10.0).collect(),
            dwell_s,
        }
    }

    /// Load fraction of peak at time `t` seconds, always clamped to `[0, 1]`.
    pub fn load_at(&self, t: f64) -> f64 {
        let v = match self {
            LoadTrace::Constant(l) => *l,
            LoadTrace::Diurnal { min, max, period_s } => {
                // Trough at t = 0, peak at half period.
                let phase = (t / period_s) * std::f64::consts::TAU;
                let s = 0.5 - 0.5 * phase.cos();
                min + (max - min) * s
            }
            LoadTrace::Steps(steps) => {
                if steps.is_empty() {
                    return 0.0;
                }
                let total: f64 = steps.iter().map(|(d, _)| d).sum();
                if total <= 0.0 {
                    return steps[0].1.clamp(0.0, 1.0);
                }
                let mut rem = t.rem_euclid(total);
                for &(d, l) in steps {
                    if rem < d {
                        return l.clamp(0.0, 1.0);
                    }
                    rem -= d;
                }
                steps.last().map(|&(_, l)| l).unwrap_or(0.0)
            }
            LoadTrace::UniformSweep { levels, dwell_s } => {
                if levels.is_empty() || *dwell_s <= 0.0 {
                    return 0.0;
                }
                let idx =
                    ((t / dwell_s).floor() as usize).rem_euclid(levels.len().max(1)) % levels.len();
                levels[idx]
            }
            LoadTrace::Replay(samples) => {
                let last_t = samples.last().expect("validated non-empty").0;
                let span = if last_t > 0.0 { last_t } else { 1.0 };
                let t = t.rem_euclid(span + f64::EPSILON);
                // Step interpolation: the most recent sample at or before t.
                match samples.iter().rev().find(|&&(ts, _)| ts <= t) {
                    Some(&(_, l)) => l,
                    None => samples[0].1,
                }
            }
        };
        v.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_trace() {
        let t = LoadTrace::Constant(0.4);
        assert_eq!(t.load_at(0.0), 0.4);
        assert_eq!(t.load_at(1e6), 0.4);
    }

    #[test]
    fn constant_clamps() {
        assert_eq!(LoadTrace::Constant(1.5).load_at(0.0), 1.0);
        assert_eq!(LoadTrace::Constant(-0.5).load_at(0.0), 0.0);
    }

    #[test]
    fn diurnal_shape() {
        let t = LoadTrace::diurnal(0.1, 0.9, 86_400.0);
        assert!((t.load_at(0.0) - 0.1).abs() < 1e-9);
        assert!((t.load_at(43_200.0) - 0.9).abs() < 1e-9);
        assert!((t.load_at(86_400.0) - 0.1).abs() < 1e-9);
        // Quarter period: midpoint.
        assert!((t.load_at(21_600.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "diurnal bounds")]
    fn diurnal_validates_bounds() {
        let _ = LoadTrace::diurnal(0.9, 0.1, 86_400.0);
    }

    #[test]
    fn steps_cycle() {
        let t = LoadTrace::Steps(vec![(10.0, 0.2), (5.0, 0.8)]);
        assert_eq!(t.load_at(0.0), 0.2);
        assert_eq!(t.load_at(9.9), 0.2);
        assert_eq!(t.load_at(10.0), 0.8);
        assert_eq!(t.load_at(14.9), 0.8);
        assert_eq!(t.load_at(15.0), 0.2); // cycled
    }

    #[test]
    fn empty_steps_are_zero() {
        let t = LoadTrace::Steps(vec![]);
        assert_eq!(t.load_at(3.0), 0.0);
    }

    #[test]
    fn paper_sweep_levels() {
        let t = LoadTrace::paper_sweep(100.0);
        assert!((t.load_at(0.0) - 0.1).abs() < 1e-9);
        assert!((t.load_at(150.0) - 0.2).abs() < 1e-9);
        assert!((t.load_at(850.0) - 0.9).abs() < 1e-9);
        assert!((t.load_at(900.0) - 0.1).abs() < 1e-9); // wraps
    }

    #[test]
    fn replay_steps_and_cycles() {
        let t = LoadTrace::replay(vec![(0.0, 0.2), (10.0, 0.8), (20.0, 0.4)]);
        assert_eq!(t.load_at(0.0), 0.2);
        assert_eq!(t.load_at(9.9), 0.2);
        assert_eq!(t.load_at(10.0), 0.8);
        assert_eq!(t.load_at(19.9), 0.8);
        // Cycles after the last timestamp.
        assert_eq!(t.load_at(25.0), 0.2);
    }

    #[test]
    fn replay_single_sample_is_constant() {
        let t = LoadTrace::replay(vec![(0.0, 0.7)]);
        assert_eq!(t.load_at(123.0), 0.7);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn replay_validates_order() {
        let _ = LoadTrace::replay(vec![(0.0, 0.1), (0.0, 0.2)]);
    }

    #[test]
    #[should_panic(expected = "needs samples")]
    fn replay_validates_nonempty() {
        let _ = LoadTrace::replay(vec![]);
    }
}
