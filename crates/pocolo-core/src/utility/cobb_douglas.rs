//! The Cobb-Douglas direct utility (performance) function.

use std::fmt;

use crate::error::CoreError;
use crate::resources::Allocation;

/// Cobb-Douglas performance model `U(r) = α₀ · ∏ⱼ rⱼ^αⱼ`.
///
/// The exponents `αⱼ ≥ 0` capture the relative impact of each direct
/// resource on performance; `α₀ > 0` is a scale constant. Prior work (REF
/// \[8\] in the paper) showed this form captures applications that need more
/// than one resource type and reproduces the *resource indifference* effect:
/// many (cores, ways) combinations yield the same performance.
///
/// ```
/// use pocolo_core::{CobbDouglas, ResourceSpace};
/// # fn main() -> Result<(), pocolo_core::CoreError> {
/// let space = ResourceSpace::cores_and_ways();
/// let model = CobbDouglas::new(100.0, vec![0.6, 0.4])?;
/// let a = space.allocation(vec![4.0, 10.0])?;
/// let b = space.allocation(vec![8.0, 10.0])?;
/// assert!(model.evaluate(&a)? < model.evaluate(&b)?); // more cores → more perf
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CobbDouglas {
    alpha0: f64,
    alphas: Vec<f64>,
    // Hoisted out of the evaluation hot path: `ln α₀` shows up in every
    // log-space evaluation, so it is computed once here instead of per call.
    ln_alpha0: f64,
}

impl CobbDouglas {
    /// Creates a model from the scale constant `α₀` and exponents `αⱼ`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `α₀` is not a positive
    /// finite number, if any exponent is negative or non-finite, or if all
    /// exponents are zero (performance would be resource-independent).
    pub fn new(alpha0: f64, alphas: Vec<f64>) -> Result<Self, CoreError> {
        if !alpha0.is_finite() || alpha0 <= 0.0 {
            return Err(CoreError::InvalidParameter(format!(
                "alpha0 must be positive and finite, got {alpha0}"
            )));
        }
        if alphas.is_empty() {
            return Err(CoreError::InvalidParameter(
                "at least one exponent is required".into(),
            ));
        }
        for (j, &a) in alphas.iter().enumerate() {
            if !a.is_finite() || a < 0.0 {
                return Err(CoreError::InvalidParameter(format!(
                    "alpha[{j}] must be non-negative and finite, got {a}"
                )));
            }
        }
        if alphas.iter().all(|&a| a == 0.0) {
            return Err(CoreError::InvalidParameter(
                "all exponents are zero; performance would not depend on any resource".into(),
            ));
        }
        let ln_alpha0 = alpha0.ln();
        Ok(CobbDouglas {
            alpha0,
            alphas,
            ln_alpha0,
        })
    }

    /// The scale constant `α₀`.
    pub fn alpha0(&self) -> f64 {
        self.alpha0
    }

    /// The exponent vector `αⱼ`.
    pub fn alphas(&self) -> &[f64] {
        &self.alphas
    }

    /// Number of direct resources, `k`.
    pub fn len(&self) -> usize {
        self.alphas.len()
    }

    /// True if the model has no resource dimensions (never for constructed
    /// models).
    pub fn is_empty(&self) -> bool {
        self.alphas.is_empty()
    }

    /// Evaluates performance at an allocation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if the allocation's
    /// dimensionality differs from the model's.
    pub fn evaluate(&self, allocation: &Allocation) -> Result<f64, CoreError> {
        self.evaluate_amounts(allocation.amounts())
    }

    /// Evaluates performance at raw resource amounts.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] on length mismatch and
    /// [`CoreError::InvalidAllocation`] if an amount with a positive exponent
    /// is not strictly positive.
    pub fn evaluate_amounts(&self, amounts: &[f64]) -> Result<f64, CoreError> {
        Ok(self.log_evaluate_amounts(amounts)?.exp())
    }

    /// Evaluates `ln U(r)` — the form used for least-squares fitting.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CobbDouglas::evaluate_amounts`].
    pub fn log_evaluate_amounts(&self, amounts: &[f64]) -> Result<f64, CoreError> {
        if amounts.len() != self.alphas.len() {
            return Err(CoreError::DimensionMismatch {
                expected: self.alphas.len(),
                actual: amounts.len(),
            });
        }
        self.log_evaluate_by(|j| amounts[j])
    }

    /// [`CobbDouglas::log_evaluate_amounts`] over amounts produced on demand
    /// (`amount(j)` for each resource with a positive exponent), so solvers
    /// can price a point without materializing it.
    pub(crate) fn log_evaluate_by(&self, amount: impl Fn(usize) -> f64) -> Result<f64, CoreError> {
        let mut log_u = self.ln_alpha0;
        for (j, &a) in self.alphas.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let r = amount(j);
            if r <= 0.0 {
                return Err(CoreError::InvalidAllocation(format!(
                    "resource {j} amount {r} must be > 0 for a positive exponent"
                )));
            }
            log_u += a * r.ln();
        }
        Ok(log_u)
    }

    /// Solves for the amount of resource `j` that achieves `target`
    /// performance when every *other* amount is fixed as in `amounts`
    /// (the entry at `j` is ignored).
    ///
    /// This is the workhorse for tracing indifference curves.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `αⱼ = 0` (resource `j`
    /// cannot move performance) or if `target` is not positive.
    pub fn solve_for_resource(
        &self,
        amounts: &[f64],
        j: usize,
        target: f64,
    ) -> Result<f64, CoreError> {
        if j >= self.alphas.len() || amounts.len() != self.alphas.len() {
            return Err(CoreError::DimensionMismatch {
                expected: self.alphas.len(),
                actual: amounts.len().max(j),
            });
        }
        if self.alphas[j] == 0.0 {
            return Err(CoreError::InvalidParameter(format!(
                "resource {j} has zero exponent; cannot solve for it"
            )));
        }
        if target.is_nan() || target <= 0.0 {
            return Err(CoreError::InvalidParameter(format!(
                "target performance must be positive, got {target}"
            )));
        }
        let mut log_rest = self.ln_alpha0;
        for (i, (&a, &r)) in self.alphas.iter().zip(amounts).enumerate() {
            if i == j || a == 0.0 {
                continue;
            }
            if r <= 0.0 {
                return Err(CoreError::InvalidAllocation(format!(
                    "resource {i} amount {r} must be > 0"
                )));
            }
            log_rest += a * r.ln();
        }
        // target = exp(log_rest) * r_j^alpha_j  =>  r_j = exp((ln target - log_rest)/alpha_j)
        Ok(((target.ln() - log_rest) / self.alphas[j]).exp())
    }
}

impl fmt::Display for CobbDouglas {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.alpha0)?;
        for (j, a) in self.alphas.iter().enumerate() {
            write!(f, "·r{}^{:.3}", j, a)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceSpace;

    fn model() -> CobbDouglas {
        CobbDouglas::new(100.0, vec![0.6, 0.4]).unwrap()
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(CobbDouglas::new(0.0, vec![0.5]).is_err());
        assert!(CobbDouglas::new(-1.0, vec![0.5]).is_err());
        assert!(CobbDouglas::new(f64::NAN, vec![0.5]).is_err());
        assert!(CobbDouglas::new(1.0, vec![]).is_err());
        assert!(CobbDouglas::new(1.0, vec![-0.1]).is_err());
        assert!(CobbDouglas::new(1.0, vec![0.0, 0.0]).is_err());
        assert!(CobbDouglas::new(1.0, vec![0.0, 0.5]).is_ok());
    }

    #[test]
    fn evaluate_known_value() {
        let m = model();
        // 100 * 4^0.6 * 16^0.4
        let expected = 100.0 * 4f64.powf(0.6) * 16f64.powf(0.4);
        let got = m.evaluate_amounts(&[4.0, 16.0]).unwrap();
        assert!((got - expected).abs() < 1e-9);
    }

    #[test]
    fn evaluate_is_monotone_in_each_resource() {
        let m = model();
        let space = ResourceSpace::cores_and_ways();
        let base = m
            .evaluate(&space.allocation(vec![4.0, 10.0]).unwrap())
            .unwrap();
        let more_cores = m
            .evaluate(&space.allocation(vec![5.0, 10.0]).unwrap())
            .unwrap();
        let more_ways = m
            .evaluate(&space.allocation(vec![4.0, 11.0]).unwrap())
            .unwrap();
        assert!(more_cores > base);
        assert!(more_ways > base);
    }

    #[test]
    fn zero_exponent_ignores_resource() {
        let m = CobbDouglas::new(10.0, vec![1.0, 0.0]).unwrap();
        let a = m.evaluate_amounts(&[2.0, 5.0]).unwrap();
        let b = m.evaluate_amounts(&[2.0, 50.0]).unwrap();
        assert!((a - b).abs() < 1e-12);
        // Zero amount allowed where the exponent is zero.
        assert!(m.evaluate_amounts(&[2.0, 0.0]).is_ok());
    }

    #[test]
    fn rejects_nonpositive_amount_with_positive_exponent() {
        let m = model();
        assert!(matches!(
            m.evaluate_amounts(&[0.0, 4.0]),
            Err(CoreError::InvalidAllocation(_))
        ));
        assert!(matches!(
            m.evaluate_amounts(&[-1.0, 4.0]),
            Err(CoreError::InvalidAllocation(_))
        ));
    }

    #[test]
    fn dimension_mismatch() {
        let m = model();
        assert!(matches!(
            m.evaluate_amounts(&[1.0]),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn solve_for_resource_round_trips() {
        let m = model();
        let target = m.evaluate_amounts(&[4.0, 10.0]).unwrap();
        // Fix ways at 10, solve for cores achieving the same target.
        let c = m.solve_for_resource(&[0.0, 10.0], 0, target).unwrap();
        assert!((c - 4.0).abs() < 1e-9);
        // Fix cores at 4, solve for ways.
        let w = m.solve_for_resource(&[4.0, 0.0], 1, target).unwrap();
        assert!((w - 10.0).abs() < 1e-9);
    }

    #[test]
    fn solve_for_resource_errors() {
        let m = CobbDouglas::new(10.0, vec![1.0, 0.0]).unwrap();
        assert!(m.solve_for_resource(&[1.0, 1.0], 1, 5.0).is_err());
        let m = model();
        assert!(m.solve_for_resource(&[1.0, 1.0], 0, -5.0).is_err());
        assert!(m.solve_for_resource(&[1.0, 1.0], 7, 5.0).is_err());
    }

    #[test]
    fn display_shows_parameters() {
        let s = format!("{}", model());
        assert!(s.contains("100.000"));
        assert!(s.contains("r0^0.600"));
    }
}
