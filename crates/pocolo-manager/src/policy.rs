//! Allocation policies for the primary latency-critical application.
//!
//! All policies answer the same question — *how many cores and ways does
//! the primary need to serve a target load?* — but differ in which point of
//! the indifference curve they pick:
//!
//! - [`LcPolicy::PowerOptimized`] (the paper's proposal) picks the
//!   **least-power** point via the analytic Cobb-Douglas demand solution.
//! - [`LcPolicy::HeraclesRandom`] is the Heracles-style \[6\]
//!   power-oblivious baseline: any feasible point on the curve is as good
//!   as any other, because without a power model "resources are not
//!   differentiated by their power use" (§V-D).

use pocolo_core::error::CoreError;
use pocolo_core::utility::IndirectUtility;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A primary-allocation policy. See the [module docs](self) for the
/// variants' semantics.
#[derive(Debug, Clone)]
pub enum LcPolicy {
    /// Least-power allocation from the Cobb-Douglas indirect utility
    /// (the POM / POColo server component).
    PowerOptimized,
    /// Power-oblivious: a uniformly random feasible indifference-curve
    /// point, re-drawn on every decision (seeded).
    HeraclesRandom {
        /// RNG seed; the policy keeps an internal counter so successive
        /// decisions differ while runs stay reproducible.
        seed: u64,
        /// Internal decision counter (serialized so runs can resume).
        draws: u64,
    },
}

impl LcPolicy {
    /// A seeded random-Heracles policy.
    pub fn heracles_random(seed: u64) -> Self {
        LcPolicy::HeraclesRandom { seed, draws: 0 }
    }

    /// Chooses the primary's (cores, ways) for `target_perf` (the max load,
    /// in the app's own units, the allocation must sustain within SLO),
    /// using the *fitted* utility model.
    ///
    /// Falls back to the full machine when the target is unreachable —
    /// the latency-critical application has absolute priority.
    ///
    /// # Errors
    ///
    /// Propagates model-evaluation errors other than unreachable targets.
    pub fn allocate(
        &mut self,
        utility: &IndirectUtility,
        target_perf: f64,
    ) -> Result<(u32, u32), CoreError> {
        let space = utility.space();
        let max_c = space.descriptor(0).max() as u32;
        let max_w = space.descriptor(1).max() as u32;
        let full = (max_c, max_w);
        if target_perf.is_nan() || target_perf <= 0.0 {
            return Ok((1, 1));
        }
        match self {
            LcPolicy::PowerOptimized => {
                let budget = match utility.min_power_for(target_perf) {
                    Ok(p) => p,
                    Err(CoreError::UnreachableTarget { .. }) => return Ok(full),
                    Err(e) => return Err(e),
                };
                // Integral demand may round below the target; nudge the
                // budget up until the rounded allocation suffices.
                let mut budget = budget;
                for _ in 0..32 {
                    let alloc = utility.demand_integral(budget)?;
                    let perf = utility.performance_model().evaluate(&alloc)?;
                    if perf >= target_perf || budget >= utility.max_power() {
                        return Ok((
                            alloc.amount(0).round() as u32,
                            alloc.amount(1).round() as u32,
                        ));
                    }
                    budget = (budget * 1.03).min(utility.max_power());
                }
                Ok(full)
            }
            LcPolicy::HeraclesRandom { seed, draws } => {
                let feasible =
                    corunner_friendly(feasible_curve_points(utility, target_perf)?, max_c, max_w);
                if feasible.is_empty() {
                    return Ok(full);
                }
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(*draws));
                *draws += 1;
                Ok(feasible[rng.gen_range(0..feasible.len())])
            }
        }
    }
}

/// Prefers curve points that leave a minimal share (2 cores, 2 ways) for
/// the best-effort co-runner, falling back to the unrestricted list when the
/// primary genuinely needs near-everything (it has absolute priority).
fn corunner_friendly(points: Vec<(u32, u32)>, max_c: u32, max_w: u32) -> Vec<(u32, u32)> {
    let friendly: Vec<(u32, u32)> = points
        .iter()
        .copied()
        .filter(|&(c, w)| c + 2 <= max_c && w + 2 <= max_w)
        .collect();
    if friendly.is_empty() {
        points
    } else {
        friendly
    }
}

/// All integral (cores, ways) points at or just above the iso-performance
/// curve for `target`: for each core count, the smallest way count that
/// reaches the target (if any).
fn feasible_curve_points(
    utility: &IndirectUtility,
    target: f64,
) -> Result<Vec<(u32, u32)>, CoreError> {
    let space = utility.space();
    let max_c = space.descriptor(0).max() as u32;
    let max_w = space.descriptor(1).max() as u32;
    let perf = utility.performance_model();
    let mut out = Vec::new();
    for c in 1..=max_c {
        let w = perf.solve_for_resource(&[c as f64, 0.0], 1, target)?;
        if !w.is_finite() {
            continue;
        }
        let w = w.ceil().max(1.0) as u32;
        if w <= max_w {
            out.push((c, w));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocolo_core::testing::xeon_space;
    use pocolo_core::units::Watts;
    use pocolo_core::utility::{CobbDouglas, PowerModel};

    fn utility() -> IndirectUtility {
        let space = xeon_space();
        let perf = CobbDouglas::new(100.0, vec![0.6, 0.4]).unwrap();
        let power = PowerModel::new(Watts(50.0), vec![6.0, 1.5]).unwrap();
        IndirectUtility::new(space, perf, power).unwrap()
    }

    fn perf_of(u: &IndirectUtility, c: u32, w: u32) -> f64 {
        u.performance_model()
            .evaluate_amounts(&[c as f64, w as f64])
            .unwrap()
    }

    #[test]
    fn power_optimized_meets_target_at_least_power() {
        let u = utility();
        let target = perf_of(&u, 5, 9);
        let mut p = LcPolicy::PowerOptimized;
        let (c, w) = p.allocate(&u, target).unwrap();
        assert!(perf_of(&u, c, w) >= target * (1.0 - 1e-9), "({c},{w})");
        // The chosen point should be within a couple of watts of the best
        // integer point (continuous demand + greedy rounding is near- but
        // not exactly integer-optimal).
        let chosen_power = u
            .power_model()
            .power_of_amounts(&[c as f64, w as f64])
            .unwrap();
        let mut best = f64::MAX;
        for cc in 1..=12u32 {
            for ww in 1..=20u32 {
                if perf_of(&u, cc, ww) >= target {
                    let p2 = u
                        .power_model()
                        .power_of_amounts(&[cc as f64, ww as f64])
                        .unwrap();
                    best = best.min(p2.0);
                }
            }
        }
        assert!(
            chosen_power.0 <= best + 3.0,
            "chosen {chosen_power} too far above best integer point {best} W"
        );
    }

    #[test]
    fn power_optimized_unreachable_falls_back_to_full() {
        let u = utility();
        let mut p = LcPolicy::PowerOptimized;
        let (c, w) = p.allocate(&u, 1e12).unwrap();
        assert_eq!((c, w), (12, 20));
    }

    #[test]
    fn zero_target_gets_minimum() {
        let u = utility();
        for mut p in [LcPolicy::PowerOptimized, LcPolicy::heracles_random(1)] {
            assert_eq!(p.allocate(&u, 0.0).unwrap(), (1, 1));
        }
    }

    #[test]
    fn heracles_random_meets_target_and_varies() {
        let u = utility();
        let target = perf_of(&u, 5, 8);
        let mut p = LcPolicy::heracles_random(42);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20 {
            let (c, w) = p.allocate(&u, target).unwrap();
            assert!(perf_of(&u, c, w) >= target * (1.0 - 1e-9));
            seen.insert((c, w));
        }
        assert!(seen.len() > 1, "random policy should explore the curve");
    }

    #[test]
    fn heracles_random_is_reproducible() {
        let u = utility();
        let target = perf_of(&u, 5, 8);
        let mut p1 = LcPolicy::heracles_random(7);
        let mut p2 = LcPolicy::heracles_random(7);
        for _ in 0..10 {
            assert_eq!(
                p1.allocate(&u, target).unwrap(),
                p2.allocate(&u, target).unwrap()
            );
        }
    }

    #[test]
    fn heracles_random_draws_more_power_on_average_than_pom() {
        let u = utility();
        let target = perf_of(&u, 5, 9);
        let mut pom = LcPolicy::PowerOptimized;
        let (c, w) = pom.allocate(&u, target).unwrap();
        let pom_power = u
            .power_model()
            .power_of_amounts(&[c as f64, w as f64])
            .unwrap();
        let mut rnd = LcPolicy::heracles_random(3);
        let mut total = 0.0;
        let n = 50;
        for _ in 0..n {
            let (c, w) = rnd.allocate(&u, target).unwrap();
            total += u
                .power_model()
                .power_of_amounts(&[c as f64, w as f64])
                .unwrap()
                .0;
        }
        let avg = total / n as f64;
        assert!(
            avg > pom_power.0 + 1.0,
            "random average {avg} should exceed POM {pom_power}"
        );
    }

    #[test]
    fn unreachable_target_full_machine_for_all_policies() {
        let u = utility();
        assert_eq!(
            LcPolicy::heracles_random(0).allocate(&u, 1e12).unwrap(),
            (12, 20)
        );
    }
}
