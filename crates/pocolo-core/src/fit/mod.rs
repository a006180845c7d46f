//! Fitting Cobb-Douglas indirect utility models from profiled samples
//! (§IV-A of the paper).
//!
//! The pipeline: collect [`ProfileSample`]s (allocation → performance,
//! power, latency slack) from telemetry, filter samples whose tail-latency
//! slack is below a guard threshold, then
//!
//! - fit `log(perf) = log(α₀) + Σ αⱼ·log(rⱼ)` by least squares, and
//! - fit `power = P_static + Σ pⱼ·rⱼ` by least squares.

pub mod diagnostics;
pub mod linreg;
pub mod online;

pub use diagnostics::{check_convexity, ConvexityReport};
pub use linreg::{ols, OlsFit};
pub use online::OnlineFitter;

use crate::error::CoreError;
use crate::resources::{Allocation, ResourceSpace};
use crate::units::Watts;
use crate::utility::{CobbDouglas, IndirectUtility, PowerModel};

/// One profiling observation: an allocation plus the measured performance,
/// power and (for latency-critical apps) SLO latency slack.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSample {
    /// The allocation under which the measurement was taken.
    pub allocation: Allocation,
    /// Measured performance (max sustainable load within SLO for LC apps;
    /// throughput for BE apps).
    pub performance: f64,
    /// Measured server power apportioned to the application.
    pub power: Watts,
    /// Fractional slack in tail latency versus the SLO (`0.25` = latency was
    /// 25 % under target). `None` for throughput-oriented applications.
    pub latency_slack: Option<f64>,
}

impl ProfileSample {
    /// Creates a sample for a best-effort (throughput) application.
    pub fn best_effort(allocation: Allocation, performance: f64, power: Watts) -> Self {
        ProfileSample {
            allocation,
            performance,
            power,
            latency_slack: None,
        }
    }

    /// Creates a sample for a latency-critical application with slack.
    pub fn latency_critical(
        allocation: Allocation,
        performance: f64,
        power: Watts,
        slack: f64,
    ) -> Self {
        ProfileSample {
            allocation,
            performance,
            power,
            latency_slack: Some(slack),
        }
    }
}

/// Options controlling model fitting.
#[derive(Debug, Clone, PartialEq)]
pub struct FitOptions {
    /// Samples from latency-critical apps whose slack is below this fraction
    /// are discarded as a guard against measurements taken near SLO
    /// violation (the paper uses 10 %). Samples without slack are kept.
    pub min_latency_slack: f64,
    /// Drop samples whose performance is not strictly positive (the log
    /// transform requires it).
    pub drop_nonpositive_performance: bool,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            min_latency_slack: 0.10,
            drop_nonpositive_performance: true,
        }
    }
}

/// A fully fitted indirect utility with goodness-of-fit diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedModel {
    /// The fitted indirect utility (performance + power models).
    pub utility: IndirectUtility,
    /// R² of the log-space performance regression.
    pub performance_r2: f64,
    /// R² of the linear power regression.
    pub power_r2: f64,
    /// Samples that survived filtering and were used for the fit.
    pub samples_used: usize,
}

/// Fits the Cobb-Douglas performance model from samples.
///
/// # Errors
///
/// Propagates [`CoreError::InsufficientSamples`] / [`CoreError::SingularSystem`]
/// from the regression, and [`CoreError::InvalidParameter`] if the fitted
/// exponents are pathological (all ≤ 0).
pub fn fit_performance(
    space: &ResourceSpace,
    samples: &[&ProfileSample],
) -> Result<(CobbDouglas, f64), CoreError> {
    let mut xs = Vec::with_capacity(samples.len());
    let mut ys = Vec::with_capacity(samples.len());
    for s in samples {
        if s.allocation.len() != space.len() {
            return Err(CoreError::DimensionMismatch {
                expected: space.len(),
                actual: s.allocation.len(),
            });
        }
        xs.push(s.allocation.amounts().iter().map(|&r| r.ln()).collect());
        ys.push(s.performance.ln());
    }
    let fit = ols(&xs, &ys)?;
    // Negative exponents can appear from noise; clamp them at zero — the
    // resource then simply contributes nothing to modelled performance.
    let alphas: Vec<f64> = fit.coefficients.iter().map(|&a| a.max(0.0)).collect();
    if alphas.iter().all(|&a| a == 0.0) {
        return Err(CoreError::InvalidParameter(
            "fitted performance model has no positive exponents".into(),
        ));
    }
    let model = CobbDouglas::new(fit.intercept.exp(), alphas)?;
    Ok((model, fit.r_squared))
}

/// Fits the linear power model from samples.
///
/// # Errors
///
/// Propagates regression errors; see [`fit_performance`].
pub fn fit_power(
    space: &ResourceSpace,
    samples: &[&ProfileSample],
) -> Result<(PowerModel, f64), CoreError> {
    let mut xs = Vec::with_capacity(samples.len());
    let mut ys = Vec::with_capacity(samples.len());
    for s in samples {
        if s.allocation.len() != space.len() {
            return Err(CoreError::DimensionMismatch {
                expected: space.len(),
                actual: s.allocation.len(),
            });
        }
        xs.push(s.allocation.amounts().to_vec());
        ys.push(s.power.0);
    }
    let fit = ols(&xs, &ys)?;
    let p_static = Watts(fit.intercept.max(0.0));
    let p_dyn: Vec<f64> = fit.coefficients.iter().map(|&p| p.max(0.0)).collect();
    let model = PowerModel::new(p_static, p_dyn)?;
    Ok((model, fit.r_squared))
}

/// Fits a complete [`IndirectUtility`] from profiling samples, applying the
/// slack filter of `options`.
///
/// # Errors
///
/// Returns [`CoreError::InsufficientSamples`] if filtering leaves fewer than
/// `k + 1` samples, plus any regression error.
pub fn fit_indirect_utility(
    space: &ResourceSpace,
    samples: &[ProfileSample],
    options: &FitOptions,
) -> Result<FittedModel, CoreError> {
    let filtered: Vec<&ProfileSample> = samples
        .iter()
        .filter(|s| match s.latency_slack {
            Some(slack) => slack >= options.min_latency_slack,
            None => true,
        })
        .filter(|s| !options.drop_nonpositive_performance || s.performance > 0.0)
        .collect();
    let needed = space.len() + 1;
    if filtered.len() < needed {
        return Err(CoreError::InsufficientSamples {
            needed,
            available: filtered.len(),
        });
    }
    let (perf, performance_r2) = fit_performance(space, &filtered)?;
    let (power, power_r2) = fit_power(space, &filtered)?;
    let utility = IndirectUtility::new(space.clone(), perf, power)?;
    Ok(FittedModel {
        utility,
        performance_r2,
        power_r2,
        samples_used: filtered.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn synth_samples(noise: f64, seed: u64) -> (ResourceSpace, Vec<ProfileSample>) {
        let space = ResourceSpace::cores_and_ways();
        let truth_perf = CobbDouglas::new(120.0, vec![0.55, 0.35]).unwrap();
        let truth_power = PowerModel::new(Watts(50.0), vec![6.0, 1.5]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut samples = Vec::new();
        for c in 1..=12 {
            for w in (2..=20).step_by(2) {
                let a = space.allocation(vec![c as f64, w as f64]).unwrap();
                let perf =
                    truth_perf.evaluate(&a).unwrap() * (1.0 + noise * rng.gen_range(-1.0..1.0));
                let power =
                    truth_power.power_of(&a) + Watts(noise * 20.0 * rng.gen_range(-1.0..1.0));
                samples.push(ProfileSample::latency_critical(
                    a,
                    perf,
                    power,
                    rng.gen_range(0.0..0.5),
                ));
            }
        }
        (space, samples)
    }

    #[test]
    fn recovers_ground_truth_without_noise() {
        let (space, samples) = synth_samples(0.0, 1);
        let fitted = fit_indirect_utility(&space, &samples, &FitOptions::default()).unwrap();
        let alphas = fitted.utility.performance_model().alphas();
        assert!(
            (alphas[0] - 0.55).abs() < 1e-6,
            "alpha_cores = {}",
            alphas[0]
        );
        assert!((alphas[1] - 0.35).abs() < 1e-6);
        assert!((fitted.utility.power_model().p_static().0 - 50.0).abs() < 1e-6);
        assert!((fitted.utility.power_model().p_dynamic()[0] - 6.0).abs() < 1e-6);
        assert!(fitted.performance_r2 > 0.999);
        assert!(fitted.power_r2 > 0.999);
    }

    #[test]
    fn noisy_fit_stays_close_and_r2_in_paper_band() {
        let (space, samples) = synth_samples(0.08, 42);
        let fitted = fit_indirect_utility(&space, &samples, &FitOptions::default()).unwrap();
        let alphas = fitted.utility.performance_model().alphas();
        assert!((alphas[0] - 0.55).abs() < 0.1);
        assert!((alphas[1] - 0.35).abs() < 0.1);
        assert!(
            fitted.performance_r2 > 0.8 && fitted.performance_r2 <= 1.0,
            "r2 = {}",
            fitted.performance_r2
        );
        assert!(fitted.power_r2 > 0.8);
    }

    #[test]
    fn slack_filter_removes_low_slack_samples() {
        let (space, mut samples) = synth_samples(0.0, 3);
        let total = samples.len();
        // Corrupt half the samples and mark them with low slack.
        for (i, s) in samples.iter_mut().enumerate() {
            if i % 2 == 0 {
                s.performance *= 0.2; // saturated measurement
                s.latency_slack = Some(0.01);
            } else {
                s.latency_slack = Some(0.3);
            }
        }
        let fitted = fit_indirect_utility(&space, &samples, &FitOptions::default()).unwrap();
        assert_eq!(fitted.samples_used, total / 2);
        let alphas = fitted.utility.performance_model().alphas();
        assert!((alphas[0] - 0.55).abs() < 1e-6);
    }

    #[test]
    fn slack_filter_disabled_keeps_all() {
        let (space, mut samples) = synth_samples(0.0, 3);
        for s in samples.iter_mut() {
            s.latency_slack = Some(0.0);
        }
        let opts = FitOptions {
            min_latency_slack: 0.0,
            ..FitOptions::default()
        };
        let fitted = fit_indirect_utility(&space, &samples, &opts).unwrap();
        assert_eq!(fitted.samples_used, samples.len());
    }

    #[test]
    fn best_effort_samples_have_no_slack_and_are_kept() {
        let (space, samples) = synth_samples(0.0, 5);
        let be: Vec<ProfileSample> = samples
            .into_iter()
            .map(|mut s| {
                s.latency_slack = None;
                s
            })
            .collect();
        let fitted = fit_indirect_utility(&space, &be, &FitOptions::default()).unwrap();
        assert_eq!(fitted.samples_used, be.len());
    }

    #[test]
    fn insufficient_after_filtering() {
        let (space, mut samples) = synth_samples(0.0, 7);
        for s in samples.iter_mut() {
            s.latency_slack = Some(0.01);
        }
        assert!(matches!(
            fit_indirect_utility(&space, &samples, &FitOptions::default()),
            Err(CoreError::InsufficientSamples { .. })
        ));
    }

    #[test]
    fn nonpositive_performance_dropped() {
        let (space, mut samples) = synth_samples(0.0, 9);
        for s in samples.iter_mut() {
            s.latency_slack = Some(0.3);
        }
        let n = samples.len();
        samples[0].performance = 0.0;
        samples[1].performance = -3.0;
        let fitted = fit_indirect_utility(&space, &samples, &FitOptions::default()).unwrap();
        assert_eq!(fitted.samples_used, n - 2);
    }

    #[test]
    fn fitted_model_predicts_power_well() {
        let (space, samples) = synth_samples(0.05, 11);
        let fitted = fit_indirect_utility(&space, &samples, &FitOptions::default()).unwrap();
        let a = space.allocation(vec![6.0, 10.0]).unwrap();
        let predicted = fitted.utility.power_model().power_of(&a);
        // Truth: 50 + 36 + 15 = 101 W.
        assert!((predicted.0 - 101.0).abs() < 8.0, "predicted {predicted}");
    }

    #[test]
    fn singular_profile_grid_rejected() {
        let space = ResourceSpace::cores_and_ways();
        // Only ever vary ways, never cores.
        let truth = CobbDouglas::new(100.0, vec![0.5, 0.5]).unwrap();
        let samples: Vec<ProfileSample> = (2..=20)
            .map(|w| {
                let a = space.allocation(vec![4.0, w as f64]).unwrap();
                let perf = truth.evaluate(&a).unwrap();
                ProfileSample::best_effort(a, perf, Watts(80.0))
            })
            .collect();
        assert!(matches!(
            fit_indirect_utility(&space, &samples, &FitOptions::default()),
            Err(CoreError::SingularSystem)
        ));
    }
}
