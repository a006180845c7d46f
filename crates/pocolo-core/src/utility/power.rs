//! The linear power model: power as a function of direct-resource
//! allocations.

use std::fmt;

use crate::error::CoreError;
use crate::resources::Allocation;
use crate::units::Watts;

/// Additive power model `P(r) = P_static + Σⱼ rⱼ·pⱼ`.
///
/// `pⱼ` is the marginal power cost (watts per unit) of direct resource `j`;
/// `P_static` covers leakage and platform power that is drawn regardless of
/// allocation. This is the budget-line of the paper's indirect utility
/// formulation (Eq. 2).
///
/// ```
/// use pocolo_core::{PowerModel, ResourceSpace, Watts};
/// # fn main() -> Result<(), pocolo_core::CoreError> {
/// let space = ResourceSpace::cores_and_ways();
/// let model = PowerModel::new(Watts(50.0), vec![6.0, 1.5])?;
/// let a = space.allocation(vec![4.0, 10.0])?;
/// assert_eq!(model.power_of(&a), Watts(50.0 + 24.0 + 15.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    p_static: Watts,
    p_dynamic: Vec<f64>,
}

impl PowerModel {
    /// Creates a power model from static power and per-resource marginal
    /// costs (watts per unit of each resource).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if static power is negative or
    /// non-finite, if the cost vector is empty, or if any cost is negative
    /// or non-finite.
    pub fn new(p_static: Watts, p_dynamic: Vec<f64>) -> Result<Self, CoreError> {
        if !p_static.is_valid() {
            return Err(CoreError::InvalidParameter(format!(
                "static power must be finite and non-negative, got {}",
                p_static.0
            )));
        }
        if p_dynamic.is_empty() {
            return Err(CoreError::InvalidParameter(
                "at least one marginal power cost is required".into(),
            ));
        }
        for (j, &p) in p_dynamic.iter().enumerate() {
            if !p.is_finite() || p < 0.0 {
                return Err(CoreError::InvalidParameter(format!(
                    "marginal power p[{j}] must be non-negative and finite, got {p}"
                )));
            }
        }
        Ok(PowerModel {
            p_static,
            p_dynamic,
        })
    }

    /// Static (allocation-independent) power.
    pub fn p_static(&self) -> Watts {
        self.p_static
    }

    /// Marginal power costs per resource unit.
    pub fn p_dynamic(&self) -> &[f64] {
        &self.p_dynamic
    }

    /// Number of direct resources, `k`.
    pub fn len(&self) -> usize {
        self.p_dynamic.len()
    }

    /// True if the model covers no resources (never for constructed models).
    pub fn is_empty(&self) -> bool {
        self.p_dynamic.is_empty()
    }

    /// Power drawn at an allocation.
    pub fn power_of(&self, allocation: &Allocation) -> Watts {
        self.power_of_amounts(allocation.amounts())
            .expect("allocation built from a space has consistent dimensionality")
    }

    /// Power drawn at raw resource amounts.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] on length mismatch.
    pub fn power_of_amounts(&self, amounts: &[f64]) -> Result<Watts, CoreError> {
        if amounts.len() != self.p_dynamic.len() {
            return Err(CoreError::DimensionMismatch {
                expected: self.p_dynamic.len(),
                actual: amounts.len(),
            });
        }
        let dynamic: f64 = self
            .p_dynamic
            .iter()
            .zip(amounts)
            .map(|(&p, &r)| p * r)
            .sum();
        Ok(self.p_static + Watts(dynamic))
    }
}

impl fmt::Display for PowerModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} W", self.p_static.0)?;
        for (j, p) in self.p_dynamic.iter().enumerate() {
            write!(f, " + {:.2}·r{}", p, j)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceSpace;

    #[test]
    fn rejects_bad_parameters() {
        assert!(PowerModel::new(Watts(-1.0), vec![1.0]).is_err());
        assert!(PowerModel::new(Watts(f64::NAN), vec![1.0]).is_err());
        assert!(PowerModel::new(Watts(50.0), vec![]).is_err());
        assert!(PowerModel::new(Watts(50.0), vec![-0.5]).is_err());
        assert!(PowerModel::new(Watts(50.0), vec![f64::INFINITY]).is_err());
        assert!(PowerModel::new(Watts(0.0), vec![0.0]).is_ok());
    }

    #[test]
    fn power_is_additive() {
        let m = PowerModel::new(Watts(50.0), vec![6.0, 1.5]).unwrap();
        let space = ResourceSpace::cores_and_ways();
        let a = space.allocation(vec![12.0, 20.0]).unwrap();
        assert_eq!(m.power_of(&a), Watts(50.0 + 72.0 + 30.0));
        let b = space.min_allocation();
        assert_eq!(m.power_of(&b), Watts(50.0 + 6.0 + 1.5));
    }

    #[test]
    fn power_dimension_mismatch() {
        let m = PowerModel::new(Watts(50.0), vec![6.0, 1.5]).unwrap();
        assert!(matches!(
            m.power_of_amounts(&[1.0]),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn display_shows_parameters() {
        let m = PowerModel::new(Watts(50.0), vec![6.0, 1.5]).unwrap();
        let s = format!("{m}");
        assert!(s.contains("50.00 W"));
        assert!(s.contains("6.00·r0"));
    }
}
