//! The simulated server: two tenant slots with isolation enforcement.

use pocolo_core::units::{Frequency, Watts};

use crate::error::SimError;
use crate::knobs::{TenantAllocation, TenantRole};
use crate::machine::MachineSpec;

/// A server hosting one primary (latency-critical) tenant and at most one
/// secondary (best-effort) tenant, with a provisioned power cap.
///
/// Mirrors the paper's prototype: core pinning and CAT way partitioning
/// enforce isolation on direct resources; the power cap is the right-sized
/// provisioned capacity that both tenants must jointly respect.
///
/// ```
/// use pocolo_simserver::{SimServer, MachineSpec, TenantAllocation,
///                        TenantRole, CoreSet, WayMask};
/// use pocolo_core::units::{Frequency, Watts};
///
/// # fn main() -> Result<(), pocolo_simserver::SimError> {
/// let mut server = SimServer::new(MachineSpec::xeon_e5_2650(), Watts(132.0));
/// let lc = TenantAllocation::new(CoreSet::first_n(2), WayMask::first_n(4),
///                                Frequency(2.2));
/// server.install(TenantRole::Primary, lc)?;
/// // The co-runner may not share a core or a way with the primary.
/// let be = TenantAllocation::new(CoreSet::range(1, 4), WayMask::range(4, 8),
///                                Frequency(2.2));
/// assert!(server.install(TenantRole::Secondary, be).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimServer {
    machine: MachineSpec,
    power_cap: Watts,
    primary: Option<TenantAllocation>,
    secondary: Option<TenantAllocation>,
}

impl SimServer {
    /// Creates a server with a provisioned power cap.
    pub fn new(machine: MachineSpec, power_cap: Watts) -> Self {
        SimServer {
            machine,
            power_cap,
            primary: None,
            secondary: None,
        }
    }

    /// The machine specification.
    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    /// The provisioned power capacity this server must stay under.
    pub fn power_cap(&self) -> Watts {
        self.power_cap
    }

    /// The allocation of the tenant in `role`, if installed.
    pub fn allocation(&self, role: TenantRole) -> Option<&TenantAllocation> {
        match role {
            TenantRole::Primary => self.primary.as_ref(),
            TenantRole::Secondary => self.secondary.as_ref(),
        }
    }

    /// Installs (or replaces) the tenant in `role` with `alloc`.
    ///
    /// # Errors
    ///
    /// - Knob validation errors from [`TenantAllocation::validate`].
    /// - [`SimError::OverlappingAllocation`] if the allocation shares a core
    ///   or way with the other tenant.
    pub fn install(&mut self, role: TenantRole, alloc: TenantAllocation) -> Result<(), SimError> {
        alloc.validate(&self.machine)?;
        let other = match role {
            TenantRole::Primary => self.secondary.as_ref(),
            TenantRole::Secondary => self.primary.as_ref(),
        };
        if let Some(other) = other {
            if !alloc.is_disjoint_from(other) {
                return Err(SimError::OverlappingAllocation(format!(
                    "{role} allocation {alloc} overlaps the other tenant's {other}"
                )));
            }
        }
        match role {
            TenantRole::Primary => self.primary = Some(alloc),
            TenantRole::Secondary => self.secondary = Some(alloc),
        }
        Ok(())
    }

    /// Removes the tenant in `role`, returning its allocation if present.
    pub fn evict(&mut self, role: TenantRole) -> Option<TenantAllocation> {
        match role {
            TenantRole::Primary => self.primary.take(),
            TenantRole::Secondary => self.secondary.take(),
        }
    }

    /// Changes the DVFS frequency of the tenant in `role`.
    ///
    /// The frequency is clamped into the machine's range, modelling the
    /// governor's behaviour when asked for an out-of-range value.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchTenant`] if the slot is empty.
    pub fn set_frequency(&mut self, role: TenantRole, freq: Frequency) -> Result<(), SimError> {
        let clamped = self.machine.clamp_frequency(freq);
        let slot = match role {
            TenantRole::Primary => self.primary.as_mut(),
            TenantRole::Secondary => self.secondary.as_mut(),
        };
        match slot {
            Some(t) => {
                t.frequency = clamped;
                Ok(())
            }
            None => Err(SimError::NoSuchTenant(role.as_str())),
        }
    }

    /// Changes the CPU-time quota of the tenant in `role`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidKnob`] for a quota outside `(0, 1]` and
    /// [`SimError::NoSuchTenant`] if the slot is empty.
    pub fn set_quota(&mut self, role: TenantRole, quota: f64) -> Result<(), SimError> {
        if !(quota > 0.0 && quota <= 1.0) {
            return Err(SimError::InvalidKnob(format!(
                "cpu quota {quota} outside (0, 1]"
            )));
        }
        let slot = match role {
            TenantRole::Primary => self.primary.as_mut(),
            TenantRole::Secondary => self.secondary.as_mut(),
        };
        match slot {
            Some(t) => {
                t.cpu_quota = quota;
                Ok(())
            }
            None => Err(SimError::NoSuchTenant(role.as_str())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::{CoreSet, WayMask};

    fn server() -> SimServer {
        SimServer::new(MachineSpec::xeon_e5_2650(), Watts(132.0))
    }

    fn alloc(core_start: u32, cores: u32, way_start: u32, ways: u32) -> TenantAllocation {
        TenantAllocation::new(
            CoreSet::range(core_start, cores),
            WayMask::range(way_start, ways),
            Frequency(2.2),
        )
    }

    #[test]
    fn install_and_query() {
        let mut s = server();
        assert!(s.allocation(TenantRole::Primary).is_none());
        s.install(TenantRole::Primary, alloc(0, 4, 0, 8)).unwrap();
        assert_eq!(s.allocation(TenantRole::Primary).unwrap().cores.count(), 4);
        assert_eq!(s.power_cap(), Watts(132.0));
    }

    #[test]
    fn overlap_rejected() {
        let mut s = server();
        s.install(TenantRole::Primary, alloc(0, 4, 0, 8)).unwrap();
        // Overlapping cores.
        assert!(matches!(
            s.install(TenantRole::Secondary, alloc(3, 4, 8, 8)),
            Err(SimError::OverlappingAllocation(_))
        ));
        // Overlapping ways.
        assert!(matches!(
            s.install(TenantRole::Secondary, alloc(4, 4, 7, 8)),
            Err(SimError::OverlappingAllocation(_))
        ));
        // Disjoint is fine.
        assert!(s.install(TenantRole::Secondary, alloc(4, 4, 8, 8)).is_ok());
    }

    #[test]
    fn replace_primary_checks_against_secondary() {
        let mut s = server();
        s.install(TenantRole::Primary, alloc(0, 4, 0, 8)).unwrap();
        s.install(TenantRole::Secondary, alloc(4, 4, 8, 8)).unwrap();
        // Growing the primary into the secondary's cores fails.
        assert!(s.install(TenantRole::Primary, alloc(0, 6, 0, 8)).is_err());
        // Growing within free space succeeds.
        assert!(s.install(TenantRole::Primary, alloc(0, 4, 0, 8)).is_ok());
    }

    #[test]
    fn evict_frees_resources() {
        let mut s = server();
        s.install(TenantRole::Primary, alloc(0, 4, 0, 8)).unwrap();
        let evicted = s.evict(TenantRole::Primary).unwrap();
        assert_eq!(evicted.cores.count(), 4);
        assert!(s.evict(TenantRole::Primary).is_none());
        // The freed cores and ways take a co-runner.
        assert!(s.install(TenantRole::Secondary, alloc(0, 4, 0, 8)).is_ok());
    }

    #[test]
    fn set_frequency_clamps() {
        let mut s = server();
        s.install(TenantRole::Primary, alloc(0, 4, 0, 8)).unwrap();
        s.set_frequency(TenantRole::Primary, Frequency(5.0))
            .unwrap();
        assert_eq!(
            s.allocation(TenantRole::Primary).unwrap().frequency,
            Frequency(2.2)
        );
        s.set_frequency(TenantRole::Primary, Frequency(0.1))
            .unwrap();
        assert_eq!(
            s.allocation(TenantRole::Primary).unwrap().frequency,
            Frequency(1.2)
        );
        assert!(matches!(
            s.set_frequency(TenantRole::Secondary, Frequency(2.0)),
            Err(SimError::NoSuchTenant(_))
        ));
    }

    #[test]
    fn set_quota_validates() {
        let mut s = server();
        s.install(TenantRole::Secondary, alloc(0, 4, 0, 8)).unwrap();
        s.set_quota(TenantRole::Secondary, 0.5).unwrap();
        assert_eq!(s.allocation(TenantRole::Secondary).unwrap().cpu_quota, 0.5);
        assert!(s.set_quota(TenantRole::Secondary, 0.0).is_err());
        assert!(s.set_quota(TenantRole::Secondary, 1.1).is_err());
        assert!(matches!(
            s.set_quota(TenantRole::Primary, 0.5),
            Err(SimError::NoSuchTenant(_))
        ));
    }
}
