//! Online model maintenance: sliding-window refitting for applications
//! whose parameters are "sampled online during execution" (§IV-A).
//!
//! Production workloads drift — a search index grows, a model retrains, a
//! dataset changes phase. An [`OnlineFitter`] keeps a bounded window of the
//! most recent profiling samples, refits the Cobb-Douglas indirect utility
//! on a fixed cadence, and reports how far the application's *preference
//! vector* moved between consecutive fits — the signal a cluster manager
//! uses to decide when a placement is stale.

use std::collections::VecDeque;

use crate::error::CoreError;
use crate::fit::{fit_indirect_utility, FitOptions, FittedModel, ProfileSample};
use crate::resources::ResourceSpace;

/// A sliding-window, fixed-cadence model fitter.
///
/// ```
/// use pocolo_core::fit::{OnlineFitter, FitOptions, ProfileSample};
/// use pocolo_core::{ResourceSpace, Watts};
///
/// # fn main() -> Result<(), pocolo_core::CoreError> {
/// let space = ResourceSpace::cores_and_ways();
/// let mut fitter = OnlineFitter::new(space.clone(), FitOptions::default(), 128, 16);
/// for c in 1..=12 {
///     for w in (2..=20u32).step_by(2) {
///         let perf = (c as f64).powf(0.6) * (w as f64).powf(0.4);
///         let power = Watts(50.0 + 6.0 * c as f64 + 1.5 * w as f64);
///         let alloc = space.allocation(vec![c as f64, w as f64])?;
///         fitter.ingest(ProfileSample::best_effort(alloc, perf, power));
///     }
/// }
/// let model = fitter.model().expect("enough samples have arrived");
/// assert!(model.performance_r2 > 0.999);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OnlineFitter {
    space: ResourceSpace,
    options: FitOptions,
    capacity: usize,
    refit_every: usize,
    window: VecDeque<ProfileSample>,
    since_refit: usize,
    current: Option<FittedModel>,
    last_drift: Option<f64>,
    max_drift: Option<f64>,
}

impl OnlineFitter {
    /// Creates a fitter keeping at most `capacity` samples and refitting
    /// after every `refit_every` ingested samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `refit_every` is zero.
    pub fn new(
        space: ResourceSpace,
        options: FitOptions,
        capacity: usize,
        refit_every: usize,
    ) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        assert!(refit_every > 0, "refit cadence must be positive");
        OnlineFitter {
            space,
            options,
            capacity,
            refit_every,
            window: VecDeque::with_capacity(capacity),
            since_refit: 0,
            current: None,
            last_drift: None,
            max_drift: None,
        }
    }

    /// The most recent successful fit, if any.
    pub fn model(&self) -> Option<&FittedModel> {
        self.current.as_ref()
    }

    /// Total-variation distance the preference vector moved at the last
    /// refit (`None` until two fits have happened).
    pub fn last_drift(&self) -> Option<f64> {
        self.last_drift
    }

    /// The largest single-refit drift observed over this fitter's lifetime
    /// — the signal that the workload changed phase at some point.
    pub fn max_drift(&self) -> Option<f64> {
        self.max_drift
    }

    /// Ingests one sample, evicting the oldest beyond capacity, and refits
    /// when the cadence is due. Returns the fresh model if a refit happened
    /// and succeeded (a failed refit — e.g. a temporarily singular window —
    /// keeps the previous model).
    pub fn ingest(&mut self, sample: ProfileSample) -> Option<&FittedModel> {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(sample);
        self.since_refit += 1;
        if self.since_refit >= self.refit_every {
            self.since_refit = 0;
            return match self.refit() {
                Ok(()) => self.current.as_ref(),
                Err(_) => None,
            };
        }
        None
    }

    fn refit(&mut self) -> Result<(), CoreError> {
        let samples: Vec<ProfileSample> = self.window.iter().cloned().collect();
        let fresh = fit_indirect_utility(&self.space, &samples, &self.options)?;
        if let Some(prev) = &self.current {
            let drift = prev
                .utility
                .preference_vector()
                .complementarity(&fresh.utility.preference_vector());
            self.last_drift = Some(drift);
            self.max_drift = Some(self.max_drift.map_or(drift, |m| m.max(drift)));
        }
        self.current = Some(fresh);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::xeon_space;
    use crate::units::Watts;

    fn sample(space: &ResourceSpace, c: f64, w: f64, perf: f64, power: f64) -> ProfileSample {
        ProfileSample::best_effort(space.allocation(vec![c, w]).unwrap(), perf, Watts(power))
    }

    /// One full grid of samples from a synthetic app.
    fn grid(space: &ResourceSpace, ac: f64, aw: f64) -> Vec<ProfileSample> {
        let mut out = Vec::new();
        for c in 1..=12 {
            for w in (2..=20u32).step_by(2) {
                let perf = (c as f64).powf(ac) * (w as f64).powf(aw);
                let power = 50.0 + 6.0 * c as f64 + 1.5 * w as f64;
                out.push(sample(space, c as f64, w as f64, perf, power));
            }
        }
        out
    }

    #[test]
    fn refits_on_cadence() {
        let space = xeon_space();
        let mut f = OnlineFitter::new(space.clone(), FitOptions::default(), 256, 30);
        let mut refits = 0;
        for s in grid(&space, 0.6, 0.4) {
            if f.ingest(s).is_some() {
                refits += 1;
            }
        }
        assert_eq!(refits, 4, "120 samples / cadence 30");
        assert!(f.model().is_some());
    }

    #[test]
    fn window_evicts_oldest() {
        let space = xeon_space();
        let mut f = OnlineFitter::new(space.clone(), FitOptions::default(), 50, 10);
        for s in grid(&space, 0.6, 0.4) {
            f.ingest(s);
        }
        assert_eq!(f.window.len(), 50);
    }

    #[test]
    fn tracks_a_drifting_workload() {
        // Phase 1: core-hungry (0.8, 0.1); phase 2: cache-hungry (0.1, 0.8).
        let space = xeon_space();
        let mut f = OnlineFitter::new(space.clone(), FitOptions::default(), 120, 20);
        for s in grid(&space, 0.8, 0.1) {
            f.ingest(s);
        }
        let before = f.model().unwrap().utility.preference_vector().weight(0);
        assert!(before > 0.5, "phase 1 prefers cores: {before}");
        // Phase 2 floods the window (capacity = one full grid).
        for s in grid(&space, 0.1, 0.8) {
            f.ingest(s);
        }
        let after = f.model().unwrap().utility.preference_vector().weight(0);
        assert!(after < 0.3, "phase 2 prefers ways: {after}");
        // The drift signal fired at some refit during the transition.
        assert!(
            f.max_drift().unwrap() > 0.3,
            "max drift {:?} should be large",
            f.max_drift()
        );
    }

    #[test]
    fn stable_workload_reports_no_drift() {
        let space = xeon_space();
        let mut f = OnlineFitter::new(space.clone(), FitOptions::default(), 120, 20);
        for _ in 0..2 {
            for s in grid(&space, 0.6, 0.4) {
                f.ingest(s);
            }
        }
        assert!(f.max_drift().unwrap() < 1e-6);
    }

    #[test]
    fn failed_refit_keeps_previous_model() {
        let space = xeon_space();
        let mut f = OnlineFitter::new(space.clone(), FitOptions::default(), 4, 2);
        // Two good, varied samples are not enough to fit k+1=3 unknowns
        // (and the window is tiny): a refit fails, model stays None.
        f.ingest(sample(&space, 1.0, 2.0, 1.0, 60.0));
        assert!(f.refit().is_err());
        assert!(f.model().is_none());
        // Fill with degenerate (constant-allocation) samples: singular.
        for _ in 0..4 {
            f.ingest(sample(&space, 3.0, 6.0, 2.0, 70.0));
        }
        assert!(f.refit().is_err());
        assert!(f.model().is_none());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = OnlineFitter::new(xeon_space(), FitOptions::default(), 0, 1);
    }
}
