//! The Cobb-Douglas **indirect utility**: performance maximized over
//! allocations that fit a power budget.
//!
//! This is the paper's analytical core (§III). Given
//!
//! ```text
//! maximize   α₀ ∏ rⱼ^αⱼ
//! subject to P_static + Σ rⱼ pⱼ ≤ Power,   lⱼ ≤ rⱼ ≤ uⱼ
//! ```
//!
//! the unconstrained-in-bounds optimum is the closed-form demand
//! `rⱼ* = (Power − P_static)/pⱼ · αⱼ/Σα`; box constraints only change
//! *which* resources that formula runs over. In the reciprocal multiplier
//! `μ = 1/λ` the spend is piecewise linear with at most `2k` breakpoints,
//! so the binding set is found by pricing the breakpoints and the solve is
//! one linear equation on the segment that holds the budget — exact, with
//! no search. The inverse (least power for a target performance) is the
//! same walk on `ln value`, which is piecewise linear in `ln μ`. This is
//! the "constant time, less than a millisecond" allocation decision of
//! §IV-C.

use std::cell::Cell;
use std::fmt;

use crate::error::CoreError;
use crate::preference::PreferenceVector;
use crate::resources::{Allocation, ResourceDescriptor, ResourceSpace};
use crate::units::Watts;
use crate::utility::{CobbDouglas, PowerModel};

thread_local! {
    static MIN_POWER_SOLVES: Cell<u64> = const { Cell::new(0) };
}

/// Number of [`IndirectUtility::min_power_for`] inversions the current
/// thread has performed since it started.
///
/// An inversion is a closed-form segment lookup (a dozen logarithms at
/// `k = 2`), no longer a search; the count is kept because it is exact,
/// deterministic *work*: callers that are supposed to amortize inversions
/// (e.g. the cluster matrix builder's expansion-path cache) snapshot this
/// counter before and after to assert their solve budget.
pub fn min_power_solves_on_thread() -> u64 {
    MIN_POWER_SOLVES.with(Cell::get)
}

/// A performance model and a power model over the same resource space,
/// combined under a power budget.
///
/// See the [crate-level documentation](crate) for a full example.
#[derive(Debug, Clone, PartialEq)]
pub struct IndirectUtility {
    space: ResourceSpace,
    perf: CobbDouglas,
    power: PowerModel,
    // Derived from the three models above at construction time.
    /// `ρ_j = α_j / p_j` for resources with positive exponent and cost; the
    /// KKT stationarity demand is `r_j(μ) = ρ_j · μ` with `μ = 1/λ`.
    ratios: Vec<f64>,
    min_power: Watts,
    max_power: Watts,
}

impl IndirectUtility {
    /// Combines a performance and a power model over `space`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if the three parts disagree
    /// on the number of direct resources.
    pub fn new(
        space: ResourceSpace,
        perf: CobbDouglas,
        power: PowerModel,
    ) -> Result<Self, CoreError> {
        if perf.len() != space.len() {
            return Err(CoreError::DimensionMismatch {
                expected: space.len(),
                actual: perf.len(),
            });
        }
        if power.len() != space.len() {
            return Err(CoreError::DimensionMismatch {
                expected: space.len(),
                actual: power.len(),
            });
        }
        let power_at = |bound: fn(&ResourceDescriptor) -> f64| {
            power
                .power_of_amounts(&space.iter().map(bound).collect::<Vec<_>>())
                .expect("space and power model dimensions agree")
        };
        let min_power = power_at(ResourceDescriptor::min);
        let max_power = power_at(ResourceDescriptor::max);
        let ratios: Vec<f64> = perf
            .alphas()
            .iter()
            .zip(power.p_dynamic())
            .map(|(&a, &p)| if p > 0.0 { a / p } else { 0.0 })
            .collect();
        Ok(IndirectUtility {
            space,
            perf,
            power,
            ratios,
            min_power,
            max_power,
        })
    }

    /// The resource space the models are defined over.
    pub fn space(&self) -> &ResourceSpace {
        &self.space
    }

    /// The Cobb-Douglas performance model.
    pub fn performance_model(&self) -> &CobbDouglas {
        &self.perf
    }

    /// The linear power model.
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// The minimum power at which *any* allocation is feasible
    /// (`P_static + Σ pⱼ lⱼ`).
    pub fn min_feasible_power(&self) -> Watts {
        self.min_power
    }

    /// Power drawn with every resource at its maximum.
    pub fn max_power(&self) -> Watts {
        self.max_power
    }

    /// The scaled preference vector `(αⱼ/pⱼ) / Σᵢ(αᵢ/pᵢ)` — relative
    /// performance-per-watt of each direct resource, independent of load or
    /// budget (§III).
    ///
    /// A resource with zero marginal power cost is treated as having a very
    /// small cost so the ratio stays finite.
    pub fn preference_vector(&self) -> PreferenceVector {
        const EPS: f64 = 1e-9;
        let raw: Vec<f64> = self
            .perf
            .alphas()
            .iter()
            .zip(self.power.p_dynamic())
            .map(|(&a, &p)| a / p.max(EPS))
            .collect();
        PreferenceVector::from_raw(raw)
    }

    /// The *direct* (power-oblivious) preference vector `αⱼ / Σα`.
    pub fn direct_preference_vector(&self) -> PreferenceVector {
        PreferenceVector::from_raw(self.perf.alphas().to_vec())
    }

    // ---- The closed form -------------------------------------------------
    //
    // KKT stationarity gives r_j(μ) = ρ_j·μ clamped into the box, with
    // μ = 1/λ the reciprocal budget multiplier. Resources with α_j = 0 sit
    // at their minimum; free resources (p_j = 0) at their maximum. In μ the
    // spend P_static + Σ p_j·r_j(μ) is piecewise linear and ln value is
    // piecewise linear in ln μ; both are non-decreasing and share the ≤ 2k
    // breakpoints lo_j/ρ_j, hi_j/ρ_j, between which the set of unclamped
    // resources is fixed. A solve locates the segment holding the budget
    // (or the target) by pricing each breakpoint, then solves one linear
    // equation on it — in the interior that equation *is* the paper's
    // r_j* = (P − P_static)/p_j · α_j/Σα. No sort, no scratch memory: the
    // ≤ 2k breakpoints are each priced in O(k) (8 multiply-clamps at k = 2),
    // and `bounds` may be any box in this utility's dimensions.

    /// Whether resource `j` answers to the multiplier at all.
    fn responds(&self, j: usize) -> bool {
        self.perf.alphas()[j] > 0.0 && self.power.p_dynamic()[j] > 0.0
    }

    /// `r_j(μ)` inside `bounds`.
    fn amount_at(&self, bounds: &ResourceSpace, mu: f64, j: usize) -> f64 {
        let d = bounds.descriptor(j);
        if self.perf.alphas()[j] == 0.0 {
            d.min()
        } else if self.power.p_dynamic()[j] == 0.0 {
            d.max()
        } else {
            (self.ratios[j] * mu).clamp(d.min(), d.max())
        }
    }

    /// Power drawn at `r(μ)`, summed in [`PowerModel::power_of_amounts`]'s
    /// order so the two agree to the bit.
    fn spend_at(&self, bounds: &ResourceSpace, mu: f64) -> f64 {
        let dynamic: f64 = self
            .power
            .p_dynamic()
            .iter()
            .enumerate()
            .map(|(j, &p)| p * self.amount_at(bounds, mu, j))
            .sum();
        self.power.p_static().0 + dynamic
    }

    /// `ln` of the performance at `r(μ)`.
    fn ln_value_at(&self, bounds: &ResourceSpace, mu: f64) -> Result<f64, CoreError> {
        self.perf.log_evaluate_by(|j| self.amount_at(bounds, mu, j))
    }

    /// The breakpoints `(lo_j/ρ_j, hi_j/ρ_j)` of a responding resource,
    /// nudged by an ulp where the division rounded the wrong way, so that
    /// `amount_at` returns the bound itself — not a neighbour of it — at
    /// its own breakpoint.
    fn breakpoints(&self, bounds: &ResourceSpace, j: usize) -> (f64, f64) {
        let d = bounds.descriptor(j);
        let rho = self.ratios[j];
        let (enter, leave) = (d.min() / rho, d.max() / rho);
        (
            if rho * enter > d.min() {
                enter.next_down()
            } else {
                enter
            },
            if rho * leave < d.max() {
                leave.next_up()
            } else {
                leave
            },
        )
    }

    /// The amount resource `j` is pinned to on the segment just above
    /// breakpoint `t`, or `None` if it is unclamped there.
    fn pinned_above(&self, bounds: &ResourceSpace, t: f64, j: usize) -> Option<f64> {
        if !self.responds(j) {
            return Some(self.amount_at(bounds, t, j));
        }
        let d = bounds.descriptor(j);
        let (enter, leave) = self.breakpoints(bounds, j);
        if enter > t {
            Some(d.min())
        } else if leave <= t {
            Some(d.max())
        } else {
            None
        }
    }

    /// Locates the segment on which the non-decreasing `f(μ)` crosses
    /// `level`, given `f_zero = f(0) ≤ level`: the largest breakpoint `t_lo`
    /// with `f(t_lo) ≤ level` (or 0), `f(t_lo)`, and the smallest breakpoint
    /// above (or ∞).
    fn segment(
        &self,
        bounds: &ResourceSpace,
        level: f64,
        f_zero: f64,
        f: impl Fn(f64) -> Result<f64, CoreError>,
    ) -> Result<(f64, f64, f64), CoreError> {
        let mut lo = (0.0, f_zero);
        let mut t_hi = f64::INFINITY;
        for j in (0..self.space.len()).filter(|&j| self.responds(j)) {
            let (enter, leave) = self.breakpoints(bounds, j);
            for t in [enter, leave] {
                let v = f(t)?;
                if v <= level {
                    if t > lo.0 {
                        lo = (t, v);
                    }
                } else if t < t_hi {
                    t_hi = t;
                }
            }
        }
        Ok((lo.0, lo.1, t_hi))
    }

    /// The linear piece just above breakpoint `t`: `Σ p_j r_j` over the
    /// resources clamped there, and `Σ α_j` over the unclamped ones — the
    /// slope of the spend in `μ` and of `ln value` in `ln μ`.
    fn piece_above(&self, bounds: &ResourceSpace, t: f64) -> (f64, f64) {
        let (mut clamped_watts, mut slope) = (0.0, 0.0);
        for (j, &p) in self.power.p_dynamic().iter().enumerate() {
            match self.pinned_above(bounds, t, j) {
                Some(amount) => clamped_watts += p * amount,
                None => slope += self.perf.alphas()[j],
            }
        }
        (clamped_watts, slope)
    }

    /// The budget-binding `μ` inside `bounds` (∞ when the budget covers
    /// everything the model wants), with `spend(μ) ≤ budget` exactly.
    fn multiplier(&self, bounds: &ResourceSpace, budget: Watts) -> Result<f64, CoreError> {
        if bounds.len() != self.space.len() {
            return Err(CoreError::DimensionMismatch {
                expected: self.space.len(),
                actual: bounds.len(),
            });
        }
        let budget = budget.0;
        if budget.is_nan() {
            return Err(CoreError::InvalidParameter(
                "power budget must be a number, got NaN".into(),
            ));
        }
        let required = self.spend_at(bounds, 0.0);
        if budget < required {
            return Err(CoreError::InfeasibleBudget {
                budget_watts: budget,
                required_watts: required,
            });
        }
        if self.spend_at(bounds, f64::INFINITY) <= budget {
            return Ok(f64::INFINITY);
        }
        let (t_lo, _, t_hi) =
            self.segment(bounds, budget, required, |t| Ok(self.spend_at(bounds, t)))?;
        let (clamped_watts, slope) = self.piece_above(bounds, t_lo);
        let mut mu = if slope > 0.0 {
            ((budget - (self.power.p_static().0 + clamped_watts)) / slope).clamp(t_lo, t_hi)
        } else {
            t_lo
        };
        // Rounding can leave the spend an ulp over; walk μ back toward
        // t_lo, where the spend is known to fit.
        loop {
            let over = self.spend_at(bounds, mu) - budget;
            if over <= 0.0 {
                return Ok(mu);
            }
            mu = (mu - over / slope).min(mu.next_down()).max(t_lo);
        }
    }

    /// Solves the demand problem: the allocation maximizing performance
    /// under `budget`, respecting the space's box bounds.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InfeasibleBudget`] if `budget` cannot cover the
    /// minimum allocation of every resource, and
    /// [`CoreError::InvalidParameter`] if it is NaN.
    pub fn demand(&self, budget: Watts) -> Result<Allocation, CoreError> {
        self.space.allocation(self.demand_amounts(budget)?)
    }

    /// The continuous solve [`IndirectUtility::demand`] and
    /// [`IndirectUtility::demand_integral`] share: `r(μ)` at the
    /// budget-binding multiplier, in the utility's own space.
    fn demand_amounts(&self, budget: Watts) -> Result<Vec<f64>, CoreError> {
        let mu = self.multiplier(&self.space, budget)?;
        let amounts: Vec<f64> = (0..self.space.len())
            .map(|j| self.amount_at(&self.space, mu, j))
            .collect();
        debug_assert!(
            self.power
                .power_of_amounts(&amounts)
                .expect("dimensions agree")
                <= budget,
            "demand overspent the budget"
        );
        Ok(amounts)
    }

    /// Rounds a continuous demand solution to hardware-allocatable whole
    /// units without exceeding `budget`: floors integral resources, then
    /// greedily spends leftover watts on the unit increment with the best
    /// marginal utility per watt.
    ///
    /// # Errors
    ///
    /// Same conditions as [`IndirectUtility::demand`].
    pub fn demand_integral(&self, budget: Watts) -> Result<Allocation, CoreError> {
        self.round_to_units(self.demand_amounts(budget)?, budget)
    }

    /// The rounding half of [`IndirectUtility::demand_integral`], in place
    /// on the continuous solution's amounts.
    fn round_to_units(
        &self,
        mut amounts: Vec<f64>,
        budget: Watts,
    ) -> Result<Allocation, CoreError> {
        for (a, d) in amounts.iter_mut().zip(self.space.iter()) {
            if d.is_integral() {
                *a = a.floor().clamp(d.min(), d.max());
            }
        }
        let costs = self.power.p_dynamic();
        loop {
            let headroom = (budget - self.power.power_of_amounts(&amounts)?).0;
            let perf_now = self.perf.evaluate_amounts(&amounts)?;
            let mut best: Option<(usize, f64)> = None;
            for (j, d) in self.space.iter().enumerate() {
                if !d.is_integral() {
                    continue;
                }
                let held = amounts[j];
                if held + 1.0 > d.max() + 1e-9 || costs[j] > headroom + 1e-9 {
                    continue;
                }
                amounts[j] = held + 1.0;
                let gain = self.perf.evaluate_amounts(&amounts)? - perf_now;
                amounts[j] = held;
                let per_watt = if costs[j] > 0.0 {
                    gain / costs[j]
                } else {
                    f64::MAX
                };
                if best.is_none_or(|(_, g)| per_watt > g) {
                    best = Some((j, per_watt));
                }
            }
            match best {
                Some((j, _)) => amounts[j] += 1.0,
                None => break,
            }
        }
        self.space.allocation(amounts)
    }

    /// The indirect utility *value*: best achievable performance under
    /// `budget`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`IndirectUtility::demand`].
    pub fn value(&self, budget: Watts) -> Result<f64, CoreError> {
        self.value_in(&self.space, budget)
    }

    /// [`IndirectUtility::value`] with the allocation confined to `bounds`,
    /// a box in this utility's dimensions — typically the spare resources a
    /// co-runner may occupy. Costs one solve and builds nothing, so callers
    /// scoring one model against many boxes need no sub-space utility.
    ///
    /// # Errors
    ///
    /// Same conditions as [`IndirectUtility::demand`] (feasibility is
    /// judged against the minimum of `bounds`), plus
    /// [`CoreError::DimensionMismatch`] if `bounds` has a different number
    /// of resources.
    pub fn value_in(&self, bounds: &ResourceSpace, budget: Watts) -> Result<f64, CoreError> {
        let mu = self.multiplier(bounds, budget)?;
        Ok(self.ln_value_at(bounds, mu)?.exp())
    }

    /// Inverts the indirect utility: the least power at which `target`
    /// performance is achievable (the dotted expansion path of Fig. 5) —
    /// the box-constrained Cobb-Douglas expenditure function, with
    /// `value(min_power_for(t)) ≥ t`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnreachableTarget`] if even the full server
    /// cannot reach `target`, or [`CoreError::InvalidParameter`] if `target`
    /// is not positive.
    pub fn min_power_for(&self, target: f64) -> Result<Watts, CoreError> {
        MIN_POWER_SOLVES.with(|c| c.set(c.get() + 1));
        if !target.is_finite() || target <= 0.0 {
            return Err(CoreError::InvalidParameter(format!(
                "performance target must be positive and finite, got {target}"
            )));
        }
        let space = &self.space;
        let best = self.ln_value_at(space, f64::INFINITY)?.exp();
        if target > best * (1.0 + 1e-9) {
            return Err(CoreError::UnreachableTarget {
                target,
                achievable: best,
            });
        }
        let ln_floor = self.ln_value_at(space, 0.0)?;
        if ln_floor.exp() >= target {
            return Ok(self.min_power);
        }
        if target > best {
            // Inside the reachability slack: the whole machine.
            return Ok(self.max_power);
        }
        let ln_target = target.ln();
        let (t_lo, ln_lo, _) =
            self.segment(space, ln_target, ln_floor, |t| self.ln_value_at(space, t))?;
        let (_, slope) = self.piece_above(space, t_lo);
        let mu = if slope > 0.0 {
            t_lo * ((ln_target - ln_lo) / slope).exp()
        } else {
            t_lo
        };
        // Rounding can land an ulp short of the target; step the budget up
        // (doubling, so a flat stretch cannot stall it) until it is met.
        let mut power = self.spend_at(space, mu).min(self.max_power.0);
        let mut step = power.next_up() - power;
        while power < self.max_power.0 && self.value(Watts(power))? < target {
            power = (power + step).min(self.max_power.0);
            step *= 2.0;
        }
        Ok(Watts(power))
    }
}

impl fmt::Display for IndirectUtility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "max {} s.t. {} ≤ budget", self.perf, self.power)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceDescriptor;

    fn utility() -> IndirectUtility {
        let space = ResourceSpace::cores_and_ways();
        let perf = CobbDouglas::new(100.0, vec![0.6, 0.4]).unwrap();
        let power = PowerModel::new(Watts(50.0), vec![6.0, 1.5]).unwrap();
        IndirectUtility::new(space, perf, power).unwrap()
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let space = ResourceSpace::cores_and_ways();
        let perf = CobbDouglas::new(1.0, vec![0.5]).unwrap();
        let power = PowerModel::new(Watts(10.0), vec![1.0, 1.0]).unwrap();
        assert!(IndirectUtility::new(space.clone(), perf, power.clone()).is_err());
        let perf2 = CobbDouglas::new(1.0, vec![0.5, 0.5]).unwrap();
        let power1 = PowerModel::new(Watts(10.0), vec![1.0]).unwrap();
        assert!(IndirectUtility::new(space, perf2, power1).is_err());
    }

    fn ulps_apart(a: f64, b: f64) -> u64 {
        assert!(a > 0.0 && b > 0.0, "ulp distance of {a} and {b}");
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn demand_matches_closed_form_in_interior() {
        let u = utility();
        // Budgets whose optimum lands strictly inside the bounds, e.g. at
        // 90 W: dyn = 40 W; r_cores = 40*0.6/6 = 4, r_ways = 40*0.4/1.5.
        // There the solve *is* the paper's r_j* = (P − P_static)/p_j · α_j/Σα.
        for budget in [75.0, 82.5, 90.0, 97.0, 101.3] {
            let d = u.demand(Watts(budget)).unwrap();
            let dynamic = budget - 50.0;
            let sum = 0.6 + 0.4;
            assert!(ulps_apart(d.amount(0), dynamic / 6.0 * (0.6 / sum)) <= 1);
            assert!(ulps_apart(d.amount(1), dynamic / 1.5 * (0.4 / sum)) <= 1);
        }
    }

    #[test]
    fn demand_spends_full_budget_in_interior() {
        let u = utility();
        let d = u.demand(Watts(90.0)).unwrap();
        assert!((u.power_model().power_of(&d).0 - 90.0).abs() < 1e-9);
        assert!((0..2).all(|j| d.amount(j) < u.space().descriptor(j).max() - 1e-9));
    }

    #[test]
    fn demand_saturates_upper_bounds_for_large_budget() {
        let u = utility();
        let d = u.demand(Watts(1000.0)).unwrap();
        assert_eq!(d.amounts(), &[12.0, 20.0]);
        assert!(u.power_model().power_of(&d) < Watts(1000.0));
    }

    #[test]
    fn demand_respects_lower_bounds_for_tight_budget() {
        let u = utility();
        // Just above the minimum feasible power of 50 + 6 + 1.5 = 57.5 W.
        let d = u.demand(Watts(58.0)).unwrap();
        for j in 0..2 {
            assert!(d.amount(j) >= u.space().descriptor(j).min() - 1e-9);
        }
        assert!(u.power_model().power_of(&d) <= Watts(58.0 + 1e-9));
    }

    #[test]
    fn demand_rejects_infeasible_budget() {
        let u = utility();
        assert!(matches!(
            u.demand(Watts(40.0)),
            Err(CoreError::InfeasibleBudget { .. })
        ));
    }

    #[test]
    fn demand_beats_random_feasible_points() {
        use rand::prelude::*;
        let u = utility();
        let budget = Watts(100.0);
        let opt = u.value(budget).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let c = rng.gen_range(1.0..=12.0);
            let w = rng.gen_range(1.0..=20.0);
            if u.power_model().power_of_amounts(&[c, w]).unwrap() > budget {
                continue;
            }
            let perf = u.performance_model().evaluate_amounts(&[c, w]).unwrap();
            assert!(
                perf <= opt * (1.0 + 1e-9),
                "random point ({c},{w}) perf {perf} beats optimum {opt}"
            );
        }
    }

    #[test]
    fn value_is_monotone_in_budget() {
        let u = utility();
        let mut prev = 0.0;
        for b in [60, 70, 80, 90, 100, 120, 150, 200] {
            let v = u.value(Watts(b as f64)).unwrap();
            assert!(v >= prev, "value must be non-decreasing in budget");
            prev = v;
        }
    }

    #[test]
    fn min_power_inverts_value() {
        let u = utility();
        let v = u.value(Watts(100.0)).unwrap();
        let p = u.min_power_for(v).unwrap();
        assert!((p.0 - 100.0).abs() < 1e-5, "got {p}");
    }

    #[test]
    fn min_power_unreachable_target() {
        let u = utility();
        let best = u.value(u.max_power()).unwrap();
        assert!(matches!(
            u.min_power_for(best * 2.0),
            Err(CoreError::UnreachableTarget { .. })
        ));
        assert!(u.min_power_for(-1.0).is_err());
    }

    #[test]
    fn min_power_for_trivially_low_target() {
        let u = utility();
        let p = u.min_power_for(1e-6).unwrap();
        assert_eq!(p, u.min_feasible_power());
    }

    #[test]
    fn preference_vector_matches_alpha_over_p() {
        let u = utility();
        let pv = u.preference_vector();
        // alpha/p = [0.1, 0.2667] -> normalized [0.2727, 0.7273]
        let raw0 = 0.6 / 6.0;
        let raw1 = 0.4 / 1.5;
        let total = raw0 + raw1;
        assert!((pv.weight(0) - raw0 / total).abs() < 1e-9);
        assert!((pv.weight(1) - raw1 / total).abs() < 1e-9);
    }

    #[test]
    fn direct_preference_is_power_oblivious() {
        let u = utility();
        let dv = u.direct_preference_vector();
        assert!((dv.weight(0) - 0.6).abs() < 1e-9);
        assert!((dv.weight(1) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn zero_alpha_resource_gets_minimum() {
        let space = ResourceSpace::cores_and_ways();
        let perf = CobbDouglas::new(10.0, vec![1.0, 0.0]).unwrap();
        let power = PowerModel::new(Watts(50.0), vec![6.0, 1.5]).unwrap();
        let u = IndirectUtility::new(space, perf, power).unwrap();
        let d = u.demand(Watts(120.0)).unwrap();
        assert_eq!(d.amount(1), 1.0);
    }

    #[test]
    fn free_resource_gets_maximum() {
        let space = ResourceSpace::cores_and_ways();
        let perf = CobbDouglas::new(10.0, vec![0.5, 0.5]).unwrap();
        let power = PowerModel::new(Watts(50.0), vec![6.0, 0.0]).unwrap();
        let u = IndirectUtility::new(space, perf, power).unwrap();
        let d = u.demand(Watts(80.0)).unwrap();
        assert_eq!(d.amount(1), 20.0);
    }

    #[test]
    fn demand_integral_is_whole_units_within_budget() {
        let u = utility();
        let budget = Watts(97.0);
        let a = u.demand_integral(budget).unwrap();
        for j in 0..2 {
            assert!((a.amount(j) - a.amount(j).round()).abs() < 1e-9);
        }
        assert!(u.power_model().power_of(&a) <= budget);
    }

    #[test]
    fn demand_integral_uses_leftover_budget() {
        let u = utility();
        let budget = Watts(97.0);
        let a = u.demand_integral(budget).unwrap();
        let leftover = (budget - u.power_model().power_of(&a)).0;
        // No single unit increment should still fit.
        let min_cost = u
            .power_model()
            .p_dynamic()
            .iter()
            .cloned()
            .fold(f64::MAX, f64::min);
        let at_max = (0..2).all(|j| a.amount(j) >= u.space().descriptor(j).max() - 1e-9);
        assert!(at_max || leftover < min_cost + 1e-9);
    }

    #[test]
    fn three_resource_demand() {
        let space = ResourceSpace::builder()
            .resource(ResourceDescriptor::integral("cores", 1.0, 12.0))
            .resource(ResourceDescriptor::integral("ways", 1.0, 20.0))
            .resource(ResourceDescriptor::continuous("membw", 1.0, 10.0))
            .build()
            .unwrap();
        let perf = CobbDouglas::new(10.0, vec![0.5, 0.3, 0.2]).unwrap();
        let power = PowerModel::new(Watts(40.0), vec![6.0, 1.5, 2.0]).unwrap();
        let u = IndirectUtility::new(space, perf, power).unwrap();
        let d = u.demand(Watts(120.0)).unwrap();
        assert!(u.power_model().power_of(&d) <= Watts(120.0 + 1e-9));
        // Interior optimum: shares proportional to alpha.
        let spend: Vec<f64> = (0..3)
            .map(|j| d.amount(j) * u.power_model().p_dynamic()[j])
            .collect();
        let total: f64 = spend.iter().sum();
        assert!((spend[0] / total - 0.5).abs() < 1e-6);
        assert!((spend[2] / total - 0.2).abs() < 1e-6);
    }

    #[test]
    fn solve_counter_counts_inversions_on_this_thread() {
        let u = utility();
        let before = min_power_solves_on_thread();
        u.min_power_for(50.0).unwrap();
        let best = u.value(u.max_power()).unwrap();
        u.min_power_for(best * 2.0).unwrap_err(); // failures are solves too
        assert_eq!(min_power_solves_on_thread() - before, 2);
    }

    #[test]
    fn nan_budget_is_rejected_not_granted_the_machine() {
        // Every comparison against NaN is false; the bisection this solver
        // replaced fell through to "all at max" (152 W) on a NaN budget.
        let u = utility();
        let nan = Watts(f64::NAN);
        assert!(matches!(u.demand(nan), Err(CoreError::InvalidParameter(_))));
        assert!(matches!(
            u.demand_integral(nan),
            Err(CoreError::InvalidParameter(_))
        ));
        assert!(matches!(u.value(nan), Err(CoreError::InvalidParameter(_))));
        // +∞ is a budget: it covers everything.
        let all = u.demand(Watts(f64::INFINITY)).unwrap();
        assert_eq!(all.amounts(), &[12.0, 20.0]);
    }

    #[test]
    fn value_in_matches_a_sub_space_utility() {
        let u = utility();
        for (cores, ways, budget) in [(7.0, 9.0, 80.0), (3.0, 20.0, 200.0), (12.0, 2.0, 66.0)] {
            let sub = ResourceSpace::builder()
                .resource(ResourceDescriptor::integral("cores", 1.0, cores))
                .resource(ResourceDescriptor::integral("llc_ways", 1.0, ways))
                .build()
                .unwrap();
            let boxed = IndirectUtility::new(
                sub.clone(),
                u.performance_model().clone(),
                u.power_model().clone(),
            )
            .unwrap();
            let expected = boxed.value(Watts(budget)).unwrap();
            assert_eq!(u.value_in(&sub, Watts(budget)).unwrap(), expected);
        }
        let sub = crate::fleet::ServerClass::xeon_e5_2650()
            .with_geometry(4, 4)
            .unwrap()
            .resource_space();
        assert!(matches!(
            u.value_in(&sub, Watts(55.0)),
            Err(CoreError::InfeasibleBudget { .. })
        ));
        let line = ResourceSpace::builder()
            .resource(ResourceDescriptor::integral("cores", 1.0, 4.0))
            .build()
            .unwrap();
        assert!(matches!(
            u.value_in(&line, Watts(90.0)),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    // ---- The bisection the closed form replaced, kept as the oracle ------

    /// The parent's `demand` amounts: geometric bisection on λ.
    fn bisect_amounts(u: &IndirectUtility, budget: f64) -> Vec<f64> {
        let k = u.space.len();
        let alphas = u.perf.alphas();
        let costs = u.power.p_dynamic();
        let lows: Vec<f64> = u.space.iter().map(|d| d.min()).collect();
        let highs: Vec<f64> = u.space.iter().map(|d| d.max()).collect();
        let r_at = |lambda: f64, j: usize| -> f64 {
            if alphas[j] == 0.0 {
                lows[j]
            } else if costs[j] == 0.0 {
                highs[j]
            } else {
                (u.ratios[j] / lambda).clamp(lows[j], highs[j])
            }
        };
        let spend = |lambda: f64| -> f64 {
            u.power.p_static().0 + (0..k).map(|j| costs[j] * r_at(lambda, j)).sum::<f64>()
        };
        let mut lam_lo = f64::MAX;
        let mut lam_hi = f64::MIN_POSITIVE;
        for j in (0..k).filter(|&j| u.responds(j)) {
            lam_lo = lam_lo.min(u.ratios[j] / highs[j]);
            lam_hi = lam_hi.max(u.ratios[j] / lows[j]);
        }
        if lam_lo > lam_hi {
            return (0..k).map(|j| r_at(1.0, j)).collect();
        }
        lam_lo *= 0.5;
        lam_hi *= 2.0;
        if spend(lam_lo) <= budget {
            return (0..k).map(|j| r_at(lam_lo, j)).collect();
        }
        for _ in 0..128 {
            if lam_hi / lam_lo < 1.0 + 1e-13 {
                break;
            }
            let mid = (lam_lo * lam_hi).sqrt();
            if spend(mid) > budget {
                lam_lo = mid;
            } else {
                lam_hi = mid;
            }
        }
        (0..k).map(|j| r_at(lam_hi, j)).collect()
    }

    fn bisect_value(u: &IndirectUtility, budget: f64) -> f64 {
        u.perf.evaluate_amounts(&bisect_amounts(u, budget)).unwrap()
    }

    /// The parent's `min_power_for`: bisection on the budget over
    /// [`bisect_value`], after the shared early-outs.
    fn bisect_min_power(u: &IndirectUtility, target: f64) -> f64 {
        let (mut lo, mut hi) = (u.min_power.0, u.max_power.0);
        if bisect_value(u, lo) >= target {
            return lo;
        }
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if bisect_value(u, mid) >= target {
                hi = mid;
            } else {
                lo = mid;
            }
            if hi - lo < 1e-9 {
                break;
            }
        }
        hi
    }

    /// A seeded random model with k ∈ {2, 3}: zero exponents, free
    /// resources, degenerate (pinned) dimensions and mixed integrality all
    /// occur, and the breakpoint intervals `[lo_j/ρ_j, hi_j/ρ_j]` come out
    /// nested, overlapping and disjoint.
    fn random_model(rng: &mut impl rand::Rng) -> IndirectUtility {
        loop {
            let k = rng.gen_range(2..=3usize);
            let mut builder = ResourceSpace::builder();
            for j in 0..k {
                let name = format!("r{j}");
                let pinned = rng.gen_bool(0.1);
                builder = builder.resource(if rng.gen_bool(0.6) {
                    let lo = rng.gen_range(1..=3u32) as f64;
                    let span = if pinned { 0 } else { rng.gen_range(1..=24u32) };
                    ResourceDescriptor::integral(name, lo, lo + span as f64)
                } else {
                    let lo = rng.gen_range(0.25..3.0);
                    let span = if pinned {
                        0.0
                    } else {
                        rng.gen_range(0.5..24.0)
                    };
                    ResourceDescriptor::continuous(name, lo, lo + span)
                });
            }
            let alphas: Vec<f64> = (0..k)
                .map(|_| {
                    if rng.gen_bool(0.15) {
                        0.0
                    } else {
                        rng.gen_range(0.02..1.2)
                    }
                })
                .collect();
            let costs: Vec<f64> = (0..k)
                .map(|_| {
                    if rng.gen_bool(0.1) {
                        0.0
                    } else {
                        rng.gen_range(0.1..9.0)
                    }
                })
                .collect();
            let Ok(perf) = CobbDouglas::new(rng.gen_range(0.05..200.0), alphas) else {
                continue; // all exponents zero
            };
            let power = PowerModel::new(Watts(rng.gen_range(0.0..80.0)), costs).unwrap();
            return IndirectUtility::new(builder.build().unwrap(), perf, power).unwrap();
        }
    }

    fn breakpoints(u: &IndirectUtility) -> Vec<f64> {
        (0..u.space.len())
            .filter(|&j| u.responds(j))
            .flat_map(|j| {
                let (enter, leave) = u.breakpoints(&u.space, j);
                [enter, leave]
            })
            .collect()
    }

    /// Budgets worth trying on `u`: both ends, past the top, random interior
    /// points, and the spend *exactly on* every breakpoint.
    fn probe_budgets(u: &IndirectUtility, rng: &mut impl rand::Rng) -> Vec<f64> {
        let (lo, hi) = (u.min_power.0, u.max_power.0);
        let mut budgets = vec![lo, hi, hi * 1.25 + 1.0];
        budgets.extend(breakpoints(u).iter().map(|&t| u.spend_at(&u.space, t)));
        budgets.extend((0..6).map(|_| rng.gen_range(lo..=hi)));
        budgets
    }

    const MODELS: usize = 1500;

    #[test]
    fn closed_form_demand_agrees_with_bisection() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(24);
        let (mut nested, mut disjoint, mut on_breakpoint, mut compared) = (0, 0, 0, 0);
        for _ in 0..MODELS {
            let u = random_model(&mut rng);
            let spans: Vec<(f64, f64)> = breakpoints(&u).chunks(2).map(|c| (c[0], c[1])).collect();
            for (i, a) in spans.iter().enumerate() {
                for b in &spans[i + 1..] {
                    nested += ((a.0 <= b.0 && b.1 <= a.1) || (b.0 <= a.0 && a.1 <= b.1)) as usize;
                    disjoint += (a.1 < b.0 || b.1 < a.0) as usize;
                }
            }
            on_breakpoint += spans.len() * 2;
            for budget in probe_budgets(&u, &mut rng) {
                let closed = u.demand(Watts(budget)).unwrap();
                let oracle = bisect_amounts(&u, budget);
                for (j, (&c, &o)) in closed.amounts().iter().zip(&oracle).enumerate() {
                    assert!(
                        (c - o).abs() <= 1e-12 * o.abs().max(1.0),
                        "{u} at {budget} W: r{j} closed {c} vs bisected {o}"
                    );
                }
                // Rounding to units floors first, so it can only be compared
                // where both continuous solutions floor alike; they part only
                // when the optimum sits on a whole unit (a budget placed on
                // a breakpoint), which the bisection approaches from below.
                let floors_apart =
                    u.space.iter().enumerate().any(|(j, d)| {
                        d.is_integral() && closed.amount(j).floor() != oracle[j].floor()
                    });
                if floors_apart {
                    let on_a_unit = |r: f64| (r - r.round()).abs() < 1e-9;
                    assert!(closed.amounts().iter().any(|&r| on_a_unit(r)));
                    continue;
                }
                let integral = u.demand_integral(Watts(budget)).unwrap();
                let oracle_integral = u.round_to_units(oracle, Watts(budget)).unwrap();
                for (j, d) in u.space.iter().enumerate() {
                    let (c, o) = (integral.amount(j), oracle_integral.amount(j));
                    assert!(
                        if d.is_integral() {
                            c == o
                        } else {
                            (c - o).abs() <= 1e-12 * o.max(1.0)
                        },
                        "{u} at {budget} W: integral r{j} closed {c} vs bisected {o}"
                    );
                }
                compared += 1;
            }
        }
        assert!(compared > 10 * MODELS);
        assert!(nested > 100 && disjoint > 100 && on_breakpoint > 1000);
    }

    #[test]
    fn closed_form_demand_is_optimal() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..MODELS {
            let u = random_model(&mut rng);
            for budget in probe_budgets(&u, &mut rng) {
                let d = u.demand(Watts(budget)).unwrap();
                let r = d.amounts();
                let power = u.power_model().power_of(&d).0;
                // Feasible: inside the box, and not a watt over — exactly.
                assert!(power <= budget, "{u}: {power} W > {budget} W");
                // KKT: one multiplier λ with α_j/(p_j r_j) = λ on unclamped
                // resources, ≥ λ on upper-clamped, ≤ λ on lower-clamped.
                let (mut lam_floor, mut lam_ceil) = (0.0f64, f64::INFINITY);
                for j in (0..r.len()).filter(|&j| u.responds(j)) {
                    let d = u.space.descriptor(j);
                    let marginal = u.ratios[j] / r[j];
                    if r[j] > d.min() {
                        lam_ceil = lam_ceil.min(marginal); // could shrink: λ ≤ marginal
                    }
                    if r[j] < d.max() {
                        lam_floor = lam_floor.max(marginal); // could grow: λ ≥ marginal
                    }
                }
                assert!(
                    lam_floor <= lam_ceil * (1.0 + 1e-12),
                    "{u} at {budget} W: no multiplier fits {r:?} ({lam_floor} > {lam_ceil})"
                );
                // Complementary slackness: watts are left over only when
                // nothing that responds could still grow.
                if lam_floor > 0.0 {
                    assert!(
                        budget - power <= 1e-12 * budget,
                        "{u}: {power} W of {budget} W spent with room to grow"
                    );
                }
                // And never worse than what the bisection finds. Where the
                // unclamped spend is small beside the budget, a whole range
                // of multipliers rounds to the same spend; the bisection
                // rides that range's top edge (a sub-ulp overspend in exact
                // arithmetic), so it is given one ulp less than was spent.
                let spent = power.next_down();
                if spent >= u.min_power.0 {
                    let oracle = bisect_value(&u, spent);
                    let value = u.performance_model().evaluate(&d).unwrap();
                    assert!(
                        value >= oracle,
                        "{u} at {budget} W: closed {value} < bisected {oracle}"
                    );
                }
            }
        }
    }

    #[test]
    fn closed_form_min_power_agrees_with_bisection_and_inverts_value() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..MODELS {
            let u = random_model(&mut rng);
            let floor = u.value(u.min_power).unwrap();
            let best = u.value(u.max_power).unwrap();
            // Both ends, inside the reachability slack, random interior
            // targets, and the value *exactly on* every breakpoint.
            let mut targets = vec![floor, best, best * (1.0 + 5e-10), floor * 0.5];
            targets.extend(
                breakpoints(&u)
                    .iter()
                    .map(|&t| u.ln_value_at(&u.space, t).unwrap().exp()),
            );
            if floor < best {
                targets.extend((0..6).map(|_| rng.gen_range(floor..=best)));
            }
            targets.sort_by(f64::total_cmp);
            let mut previous = 0.0;
            for target in targets {
                let power = u.min_power_for(target).unwrap();
                assert!(power >= u.min_power && power <= u.max_power);
                assert!(
                    power.0 >= previous,
                    "{u}: min_power_for not monotone at target {target}"
                );
                previous = power.0;
                if target <= best {
                    let reached = u.value(power).unwrap();
                    assert!(reached >= target, "{u}: {reached} < target {target}");
                }
                let oracle = bisect_min_power(&u, target);
                assert!(
                    (power.0 - oracle).abs() <= 1e-9,
                    "{u} for {target}: closed {} W vs bisected {oracle} W",
                    power.0
                );
            }
            assert!(matches!(
                u.min_power_for(best * 1.01),
                Err(CoreError::UnreachableTarget { .. })
            ));
        }
    }

    #[test]
    fn display_mentions_budget() {
        assert!(format!("{}", utility()).contains("budget"));
    }
}
