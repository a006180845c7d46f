//! The Edgeworth box (Fig. 6): how the primary application's power-efficient
//! allocation determines the spare capacity available to a co-runner.
//!
//! The box's lower-left origin is the primary application; the upper-right
//! origin is the secondary. Any allocation to the primary leaves its
//! *complement* (server capacity minus the allocation, in every dimension,
//! plus the remaining power headroom) for the secondary.

use crate::error::CoreError;
use crate::resources::{Allocation, ResourceSpace};
use crate::units::Watts;
use crate::utility::IndirectUtility;

/// Spare capacity left for a secondary application once the primary's
/// allocation is reserved.
#[derive(Debug, Clone, PartialEq)]
pub struct SpareCapacity {
    /// Load/performance level of the primary that produced this point.
    pub primary_target: f64,
    /// The primary's (least-power) allocation.
    pub primary_allocation: Allocation,
    /// Spare amount of each direct resource (server max − primary use).
    pub spare_amounts: Vec<f64>,
    /// Power headroom under the provisioned cap once the primary's draw is
    /// subtracted. The secondary's *dynamic* power (and any additional
    /// static draw) must fit in this.
    pub power_headroom: Watts,
}

impl SpareCapacity {
    /// True if the spare amounts admit a co-runner at all: every dimension
    /// has at least `min_amounts[j]` available and power headroom is
    /// positive.
    pub fn admits(&self, min_amounts: &[f64]) -> bool {
        self.power_headroom > Watts::ZERO
            && self
                .spare_amounts
                .iter()
                .zip(min_amounts)
                .all(|(&have, &need)| have + 1e-9 >= need)
    }
}

/// Edgeworth-box analysis over a server's resource space with a provisioned
/// power cap.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeworthBox {
    space: ResourceSpace,
    power_cap: Watts,
}

impl EdgeworthBox {
    /// Creates a box for `space` under a provisioned `power_cap`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the cap is not a valid
    /// positive power.
    pub fn new(space: ResourceSpace, power_cap: Watts) -> Result<Self, CoreError> {
        if !power_cap.is_valid() || power_cap == Watts::ZERO {
            return Err(CoreError::InvalidParameter(format!(
                "power cap must be positive, got {}",
                power_cap.0
            )));
        }
        Ok(EdgeworthBox { space, power_cap })
    }

    /// The resource space of the box.
    pub fn space(&self) -> &ResourceSpace {
        &self.space
    }

    /// The provisioned power cap.
    pub fn power_cap(&self) -> Watts {
        self.power_cap
    }

    /// Spare capacity when the primary runs at `primary_allocation`, drawing
    /// `primary_power`.
    pub fn spare_for(
        &self,
        primary_target: f64,
        primary_allocation: Allocation,
        primary_power: Watts,
    ) -> SpareCapacity {
        let spare_amounts = primary_allocation.complement();
        let power_headroom = (self.power_cap - primary_power).max(Watts::ZERO);
        SpareCapacity {
            primary_target,
            primary_allocation,
            spare_amounts,
            power_headroom,
        }
    }

    /// Traces spare capacity along the primary's least-power expansion path
    /// for the given load targets (the striped feasible region of Fig. 6).
    ///
    /// Targets the primary cannot reach are skipped.
    ///
    /// # Errors
    ///
    /// Propagates model errors other than unreachable targets.
    pub fn spare_along_path(
        &self,
        primary: &IndirectUtility,
        targets: &[f64],
    ) -> Result<Vec<SpareCapacity>, CoreError> {
        let path = crate::curves::indifference::expansion_path(primary, targets)?;
        Ok(path
            .into_iter()
            .map(|p| self.spare_for(p.target, p.allocation, p.power))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::xeon_space;
    use crate::utility::{CobbDouglas, PowerModel};

    fn primary() -> IndirectUtility {
        let space = xeon_space();
        // Cache-hungry sphinx-like primary.
        let perf = CobbDouglas::new(2.0, vec![0.3, 0.7]).unwrap();
        let power = PowerModel::new(Watts(50.0), vec![6.0, 1.5]).unwrap();
        IndirectUtility::new(space, perf, power).unwrap()
    }

    #[test]
    fn rejects_invalid_cap() {
        let space = xeon_space();
        assert!(EdgeworthBox::new(space.clone(), Watts(0.0)).is_err());
        assert!(EdgeworthBox::new(space.clone(), Watts(-5.0)).is_err());
        assert!(EdgeworthBox::new(space, Watts(132.0)).is_ok());
    }

    #[test]
    fn spare_is_complement() {
        let space = xeon_space();
        let boxy = EdgeworthBox::new(space.clone(), Watts(132.0)).unwrap();
        let alloc = space.allocation(vec![1.0, 5.0]).unwrap();
        let spare = boxy.spare_for(0.2, alloc, Watts(64.0));
        assert_eq!(spare.spare_amounts, vec![11.0, 15.0]);
        assert_eq!(spare.power_headroom, Watts(68.0));
    }

    #[test]
    fn headroom_floors_at_zero() {
        let space = xeon_space();
        let boxy = EdgeworthBox::new(space.clone(), Watts(132.0)).unwrap();
        let alloc = space.allocation(vec![12.0, 20.0]).unwrap();
        let spare = boxy.spare_for(1.0, alloc, Watts(150.0));
        assert_eq!(spare.power_headroom, Watts::ZERO);
        assert!(!spare.admits(&[1.0, 1.0]));
    }

    #[test]
    fn admits_checks_every_dimension() {
        let space = xeon_space();
        let boxy = EdgeworthBox::new(space.clone(), Watts(132.0)).unwrap();
        let alloc = space.allocation(vec![12.0, 5.0]).unwrap();
        let spare = boxy.spare_for(0.5, alloc, Watts(100.0));
        // Spare cores = 0 -> cannot admit a corunner needing 1 core.
        assert!(!spare.admits(&[1.0, 1.0]));
        assert!(spare.admits(&[0.0, 1.0]));
    }

    #[test]
    fn spare_shrinks_as_primary_load_grows() {
        let u = primary();
        let boxy = EdgeworthBox::new(u.space().clone(), Watts(132.0)).unwrap();
        let max_perf = u.value(u.max_power()).unwrap();
        let targets: Vec<f64> = (1..=9).map(|i| max_perf * (i as f64) / 10.0).collect();
        let spares = boxy.spare_along_path(&u, &targets).unwrap();
        assert_eq!(spares.len(), targets.len());
        for pair in spares.windows(2) {
            assert!(pair[1].power_headroom <= pair[0].power_headroom + Watts(1e-9));
            // Total spare resource never grows with load.
            let total0: f64 = pair[0].spare_amounts.iter().sum();
            let total1: f64 = pair[1].spare_amounts.iter().sum();
            assert!(total1 <= total0 + 1e-9);
        }
    }

    #[test]
    fn cache_hungry_primary_leaves_cores() {
        // A primary that prefers caches (per watt) leaves cores for the
        // co-runner — the paper's key geometric insight.
        let u = primary();
        let boxy = EdgeworthBox::new(u.space().clone(), Watts(132.0)).unwrap();
        let max_perf = u.value(u.max_power()).unwrap();
        let spares = boxy.spare_along_path(&u, &[max_perf * 0.5]).unwrap();
        let s = &spares[0];
        let frac_cores_spare = s.spare_amounts[0] / 12.0;
        let frac_ways_spare = s.spare_amounts[1] / 20.0;
        assert!(
            frac_cores_spare > frac_ways_spare,
            "cache-hungry primary should leave proportionally more cores: {s:?}"
        );
    }
}
