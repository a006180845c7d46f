//! Applicability diagnostics for the Cobb-Douglas framework (§V-G).
//!
//! The paper's method "can be applied for resources that can be substituted
//! within an application... Moreover, this solution expects the resource
//! preferences of the applications to be convex. Otherwise, the allocations
//! will be inefficient." This module checks profiled samples for the two
//! prerequisites:
//!
//! - **diminishing returns** along each resource axis (concave performance
//!   response ⇒ convex preferences), and
//! - **monotonicity** (more of a resource never hurts).
//!
//! Violations flag applications the framework should not manage (e.g. apps
//! with working-set cliffs, where performance jumps discontinuously once
//! the cache allocation crosses the working-set size).

use crate::error::CoreError;
use crate::fit::ProfileSample;
use crate::resources::ResourceSpace;

/// Outcome of the convexity screen for one resource dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisDiagnostics {
    /// Resource name.
    pub resource: String,
    /// Number of (otherwise-identical) sample triples examined.
    pub triples: usize,
    /// Fraction of triples violating diminishing returns (second difference
    /// positive beyond tolerance).
    pub convexity_violations: f64,
    /// Fraction of adjacent pairs where more resource *reduced* performance
    /// beyond tolerance.
    pub monotonicity_violations: f64,
}

/// Aggregate report across all dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvexityReport {
    /// Per-dimension diagnostics, in space order.
    pub axes: Vec<AxisDiagnostics>,
    /// Relative tolerance used when comparing performances.
    pub tolerance: f64,
}

impl ConvexityReport {
    /// True if every axis is within `max_violation_frac` on both checks —
    /// the application is a suitable subject for the framework.
    pub fn is_suitable(&self, max_violation_frac: f64) -> bool {
        self.axes.iter().all(|a| {
            a.convexity_violations <= max_violation_frac
                && a.monotonicity_violations <= max_violation_frac
        })
    }
}

/// Screens profiled samples for monotone, diminishing-returns behaviour
/// along each resource axis.
///
/// Samples are grouped by the values of every *other* dimension; within a
/// group, consecutive triples along the axis are tested for concavity of
/// performance in the resource amount, and consecutive pairs for
/// monotonicity. `tolerance` is the relative perf wiggle ignored as noise
/// (e.g. `0.05` with 4 % measurement noise).
///
/// # Errors
///
/// Returns [`CoreError::InsufficientSamples`] if no axis has a group with
/// at least three distinct points.
pub fn check_convexity(
    space: &ResourceSpace,
    samples: &[ProfileSample],
    tolerance: f64,
) -> Result<ConvexityReport, CoreError> {
    let k = space.len();
    let mut axes = Vec::with_capacity(k);
    let mut any_triples = false;
    for j in 0..k {
        // Group samples by the other coordinates (rounded for stability).
        use std::collections::HashMap;
        let mut groups: HashMap<Vec<i64>, Vec<(f64, f64)>> = HashMap::new();
        for s in samples {
            if s.allocation.len() != k {
                return Err(CoreError::DimensionMismatch {
                    expected: k,
                    actual: s.allocation.len(),
                });
            }
            let key: Vec<i64> = s
                .allocation
                .amounts()
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != j)
                .map(|(_, &v)| (v * 1e6).round() as i64)
                .collect();
            groups
                .entry(key)
                .or_default()
                .push((s.allocation.amount(j), s.performance));
        }

        let mut triples = 0usize;
        let mut convex_viol = 0usize;
        let mut pairs = 0usize;
        let mut mono_viol = 0usize;
        for series in groups.values_mut() {
            series.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("amounts are finite"));
            series.dedup_by(|a, b| (a.0 - b.0).abs() < 1e-9);
            for w in series.windows(2) {
                pairs += 1;
                if w[1].1 < w[0].1 * (1.0 - tolerance) {
                    mono_viol += 1;
                }
            }
            for w in series.windows(3) {
                triples += 1;
                // Concavity: the middle point should sit at or above the
                // chord between its neighbours (allowing tolerance).
                let (x0, y0) = w[0];
                let (x1, y1) = w[1];
                let (x2, y2) = w[2];
                let t = (x1 - x0) / (x2 - x0);
                let chord = y0 + t * (y2 - y0);
                if y1 < chord * (1.0 - tolerance) {
                    convex_viol += 1;
                }
            }
        }
        if triples > 0 {
            any_triples = true;
        }
        axes.push(AxisDiagnostics {
            resource: space.descriptor(j).name().to_string(),
            triples,
            convexity_violations: if triples > 0 {
                convex_viol as f64 / triples as f64
            } else {
                0.0
            },
            monotonicity_violations: if pairs > 0 {
                mono_viol as f64 / pairs as f64
            } else {
                0.0
            },
        });
    }
    if !any_triples {
        return Err(CoreError::InsufficientSamples {
            needed: 3,
            available: samples.len(),
        });
    }
    Ok(ConvexityReport { axes, tolerance })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Watts;

    fn space() -> ResourceSpace {
        ResourceSpace::cores_and_ways()
    }

    fn sample(space: &ResourceSpace, c: f64, w: f64, perf: f64) -> ProfileSample {
        ProfileSample::best_effort(space.allocation(vec![c, w]).unwrap(), perf, Watts(100.0))
    }

    fn grid_samples(space: &ResourceSpace, f: impl Fn(f64, f64) -> f64) -> Vec<ProfileSample> {
        let mut out = Vec::new();
        for c in 1..=12 {
            for w in (2..=20).step_by(2) {
                out.push(sample(space, c as f64, w as f64, f(c as f64, w as f64)));
            }
        }
        out
    }

    #[test]
    fn cobb_douglas_surface_passes() {
        let s = space();
        let samples = grid_samples(&s, |c, w| 10.0 * c.powf(0.6) * w.powf(0.3));
        let report = check_convexity(&s, &samples, 0.02).unwrap();
        assert!(report.is_suitable(0.0), "{report:?}");
        assert_eq!(report.axes.len(), 2);
        assert_eq!(report.axes[0].resource, "cores");
        assert!(report.axes[0].triples > 0);
    }

    #[test]
    fn working_set_cliff_fails_convexity() {
        // A cache cliff: performance jumps once ways cross 12 (superlinear
        // = convex response = non-convex preferences).
        let s = space();
        let samples = grid_samples(&s, |c, w| {
            let cache_factor = if w >= 12.0 { 10.0 } else { 1.0 };
            c.powf(0.5) * cache_factor
        });
        let report = check_convexity(&s, &samples, 0.02).unwrap();
        assert!(
            report.axes[1].convexity_violations > 0.1,
            "cliff should violate concavity on the ways axis: {report:?}"
        );
        assert!(!report.is_suitable(0.05));
    }

    #[test]
    fn non_monotone_response_detected() {
        // Performance *drops* with extra cores beyond 6 (e.g. lock
        // contention).
        let s = space();
        let samples = grid_samples(&s, |c, w| {
            let eff = if c <= 6.0 { c } else { 12.0 - c + 1.0 };
            eff * w.powf(0.1)
        });
        let report = check_convexity(&s, &samples, 0.02).unwrap();
        assert!(report.axes[0].monotonicity_violations > 0.2, "{report:?}");
    }

    #[test]
    fn tolerance_absorbs_noise() {
        use rand::prelude::*;
        let s = space();
        let rng = std::cell::RefCell::new(StdRng::seed_from_u64(3));
        let samples = grid_samples(&s, |c, w| {
            let eps = rng.borrow_mut().gen_range(-0.02..0.02);
            10.0 * c.powf(0.6) * w.powf(0.3) * (1.0 + eps)
        });
        let strict = check_convexity(&s, &samples, 0.0).unwrap();
        let tolerant = check_convexity(&s, &samples, 0.10).unwrap();
        assert!(tolerant.axes[0].convexity_violations <= strict.axes[0].convexity_violations);
        assert!(tolerant.is_suitable(0.02), "{tolerant:?}");
    }

    #[test]
    fn too_few_points_rejected() {
        let s = space();
        let samples = vec![sample(&s, 1.0, 2.0, 1.0), sample(&s, 2.0, 4.0, 2.0)];
        assert!(matches!(
            check_convexity(&s, &samples, 0.05),
            Err(CoreError::InsufficientSamples { .. })
        ));
    }
}
