//! Indifference curves and the least-power expansion path (Fig. 5).
//!
//! An application is *indifferent* between any two allocations on the same
//! iso-performance curve — they all sustain the given load within the SLO.
//! In a power-constrained server the interesting allocation on each curve is
//! the one drawing the **least power**; connecting those across load levels
//! yields the expansion path the server manager walks as load changes.

use crate::error::CoreError;
use crate::resources::Allocation;
use crate::units::Watts;
use crate::utility::{CobbDouglas, IndirectUtility};

/// One point on a least-power expansion path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathPoint {
    /// The performance (load) level this point sustains.
    pub target: f64,
    /// The least-power allocation achieving `target`.
    pub allocation: Allocation,
    /// Power drawn at that allocation.
    pub power: Watts,
}

/// Traces the iso-performance (indifference) curve of a two-of-`k` slice of
/// a Cobb-Douglas model.
///
/// Sweeps resource `dim_x` over `n_points` evenly spaced values within its
/// bounds, holding every other resource at the amounts in `base` and solving
/// resource `dim_y` for `target` performance. Points whose solved `dim_y`
/// falls outside its bounds are omitted, so the returned curve may be
/// shorter than `n_points` (or empty if the target is unreachable on this
/// slice).
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if `dim_x == dim_y`, either
/// dimension is out of range, either exponent is zero, or `target ≤ 0`;
/// [`CoreError::DimensionMismatch`] if `base` does not match the model.
pub fn indifference_curve(
    perf: &CobbDouglas,
    base: &Allocation,
    dim_x: usize,
    dim_y: usize,
    target: f64,
    n_points: usize,
) -> Result<Vec<(f64, f64)>, CoreError> {
    let space = base.space();
    let k = space.len();
    if dim_x >= k || dim_y >= k {
        return Err(CoreError::DimensionMismatch {
            expected: k,
            actual: dim_x.max(dim_y),
        });
    }
    if dim_x == dim_y {
        return Err(CoreError::InvalidParameter(
            "dim_x and dim_y must differ".into(),
        ));
    }
    if n_points < 2 {
        return Err(CoreError::InvalidParameter(
            "need at least 2 points to trace a curve".into(),
        ));
    }
    let dx = space.descriptor(dim_x);
    let dy = space.descriptor(dim_y);
    let mut curve = Vec::with_capacity(n_points);
    for i in 0..n_points {
        let x = dx.min() + (dx.max() - dx.min()) * (i as f64) / ((n_points - 1) as f64);
        let mut amounts = base.amounts().to_vec();
        amounts[dim_x] = x;
        let y = perf.solve_for_resource(&amounts, dim_y, target)?;
        if y >= dy.min() - 1e-9 && y <= dy.max() + 1e-9 {
            curve.push((x, y.clamp(dy.min(), dy.max())));
        }
    }
    Ok(curve)
}

/// The least-power allocation sustaining `target` performance
/// (allocation-A/B of Fig. 5): inverts the indirect utility for the minimum
/// budget, then takes the demand at that budget.
///
/// # Errors
///
/// Propagates [`CoreError::UnreachableTarget`] and budget errors from
/// [`IndirectUtility::min_power_for`].
pub fn least_power_allocation(
    utility: &IndirectUtility,
    target: f64,
) -> Result<PathPoint, CoreError> {
    let power = utility.min_power_for(target)?;
    let allocation = utility.demand(power)?;
    let actual = utility.power_model().power_of(&allocation);
    Ok(PathPoint {
        target,
        allocation,
        power: actual,
    })
}

/// Traces the least-power expansion path across several performance targets
/// (the dotted curve of Fig. 5).
///
/// Unreachable targets are skipped, so the result may be shorter than
/// `targets`.
///
/// # Errors
///
/// Propagates any error other than [`CoreError::UnreachableTarget`].
pub fn expansion_path(
    utility: &IndirectUtility,
    targets: &[f64],
) -> Result<Vec<PathPoint>, CoreError> {
    let mut path = Vec::with_capacity(targets.len());
    for &t in targets {
        match least_power_allocation(utility, t) {
            Ok(p) => path.push(p),
            Err(CoreError::UnreachableTarget { .. }) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceSpace;
    use crate::utility::PowerModel;

    fn utility() -> IndirectUtility {
        let space = ResourceSpace::cores_and_ways();
        let perf = CobbDouglas::new(100.0, vec![0.6, 0.4]).unwrap();
        let power = PowerModel::new(Watts(50.0), vec![6.0, 1.5]).unwrap();
        IndirectUtility::new(space, perf, power).unwrap()
    }

    #[test]
    fn curve_points_hit_the_target() {
        let u = utility();
        let base = u.space().min_allocation();
        let target = 300.0;
        let curve = indifference_curve(u.performance_model(), &base, 0, 1, target, 24).unwrap();
        assert!(!curve.is_empty());
        for &(x, y) in &curve {
            let perf = u.performance_model().evaluate_amounts(&[x, y]).unwrap();
            assert!(
                (perf - target).abs() / target < 1e-6,
                "({x},{y}) -> {perf} != {target}"
            );
        }
    }

    #[test]
    fn curve_is_downward_sloping() {
        let u = utility();
        let base = u.space().min_allocation();
        let curve = indifference_curve(u.performance_model(), &base, 0, 1, 300.0, 24).unwrap();
        for pair in curve.windows(2) {
            assert!(pair[1].0 > pair[0].0);
            assert!(
                pair[1].1 < pair[0].1,
                "more cores should need fewer ways at iso-perf"
            );
        }
    }

    #[test]
    fn higher_targets_shift_curves_outward() {
        let u = utility();
        let base = u.space().min_allocation();
        let lo = indifference_curve(u.performance_model(), &base, 0, 1, 250.0, 24).unwrap();
        let hi = indifference_curve(u.performance_model(), &base, 0, 1, 400.0, 24).unwrap();
        // For any shared x the higher-load curve needs more of y.
        for &(x_lo, y_lo) in &lo {
            if let Some(&(_, y_hi)) = hi.iter().find(|&&(x_hi, _)| (x_hi - x_lo).abs() < 1e-9) {
                assert!(y_hi > y_lo);
            }
        }
    }

    #[test]
    fn unreachable_target_gives_empty_curve() {
        let u = utility();
        let base = u.space().min_allocation();
        let curve = indifference_curve(u.performance_model(), &base, 0, 1, 1e9, 10).unwrap();
        assert!(curve.is_empty());
    }

    #[test]
    fn curve_argument_validation() {
        let u = utility();
        let base = u.space().min_allocation();
        let m = u.performance_model();
        assert!(indifference_curve(m, &base, 0, 0, 100.0, 10).is_err());
        assert!(indifference_curve(m, &base, 0, 5, 100.0, 10).is_err());
        assert!(indifference_curve(m, &base, 0, 1, 100.0, 1).is_err());
        assert!(indifference_curve(m, &base, 0, 1, -5.0, 10).is_err());
    }

    #[test]
    fn least_power_point_achieves_target() {
        let u = utility();
        let target = u.value(Watts(100.0)).unwrap();
        let p = least_power_allocation(&u, target).unwrap();
        let perf = u.performance_model().evaluate(&p.allocation).unwrap();
        assert!(perf >= target * (1.0 - 1e-6));
        assert!((p.power.0 - 100.0).abs() < 1e-3, "power {}", p.power);
    }

    #[test]
    fn least_power_beats_other_iso_perf_allocations() {
        let u = utility();
        let target = u.value(Watts(100.0)).unwrap();
        let opt = least_power_allocation(&u, target).unwrap();
        // Any other allocation achieving >= target must draw >= power.
        let base = u.space().min_allocation();
        let curve = indifference_curve(u.performance_model(), &base, 0, 1, target, 40).unwrap();
        for &(x, y) in &curve {
            let p = u.power_model().power_of_amounts(&[x, y]).unwrap();
            assert!(
                p >= opt.power - Watts(1e-6),
                "({x},{y}) draws {p} < optimum {}",
                opt.power
            );
        }
    }

    #[test]
    fn expansion_path_is_monotone_in_power() {
        let u = utility();
        let max_perf = u.value(u.max_power()).unwrap();
        let targets: Vec<f64> = (1..=8).map(|i| max_perf * (i as f64) / 10.0).collect();
        let path = expansion_path(&u, &targets).unwrap();
        assert_eq!(path.len(), targets.len());
        for pair in path.windows(2) {
            assert!(pair[1].power >= pair[0].power);
            assert!(pair[1].target > pair[0].target);
        }
    }

    #[test]
    fn expansion_path_skips_unreachable() {
        let u = utility();
        let max_perf = u.value(u.max_power()).unwrap();
        let targets = vec![max_perf * 0.5, max_perf * 10.0, max_perf * 0.7];
        let path = expansion_path(&u, &targets).unwrap();
        assert_eq!(path.len(), 2);
    }
}
