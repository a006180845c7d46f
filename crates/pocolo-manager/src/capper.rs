//! The power-capping actuator (§IV-C): a 100 ms loop that keeps the server
//! under its provisioned power capacity by throttling the *secondary*
//! tenant — first with per-core DVFS, then with CPU-time quota.
//!
//! The primary latency-critical tenant is never touched: it has absolute
//! priority, and the server manager already sizes it within the cap.

use pocolo_core::units::{Frequency, Watts};
use pocolo_simserver::{SimError, SimServer, TenantRole};

/// What the capper did on a control step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapAction {
    /// Power within band; nothing changed.
    None,
    /// Lowered the secondary's frequency one step.
    LoweredFrequency,
    /// Secondary already at minimum frequency; lowered its quota.
    LoweredQuota,
    /// Power comfortably below cap; raised the secondary's quota.
    RaisedQuota,
    /// Quota already full; raised the secondary's frequency.
    RaisedFrequency,
    /// Over cap but the secondary is already at both floors (or absent) —
    /// nothing left to throttle.
    Saturated,
}

/// Un-throttle when measured power falls below `cap × RELEASE` (the
/// capper throttles above the cap itself). The 6 % band keeps it from
/// chattering on meter noise; the brownout governor's comfort targets sit
/// under it.
pub const RELEASE: f64 = 0.94;

/// DVFS step, GHz: one P-state.
const FREQ_STEP: f64 = 0.1;

/// CPU-quota step (additive).
const QUOTA_STEP: f64 = 0.10;

/// Quota floor — the secondary is never starved below this.
pub const QUOTA_FLOOR: f64 = 0.05;

/// Hysteretic power-capping controller for one server: stateless, the
/// DVFS/quota state it steps lives on the server.
///
/// ```
/// use pocolo_manager::{PowerCapper, CapAction};
/// use pocolo_simserver::{SimServer, MachineSpec, TenantAllocation,
///                        TenantRole, CoreSet, WayMask};
/// use pocolo_core::units::{Frequency, Watts};
///
/// # fn main() -> Result<(), pocolo_simserver::SimError> {
/// let mut server = SimServer::new(MachineSpec::xeon_e5_2650(), Watts(132.0));
/// server.install(TenantRole::Secondary, TenantAllocation::new(
///     CoreSet::first_n(4), WayMask::first_n(4), Frequency(2.2)))?;
/// let capper = PowerCapper;
/// // Measured power over the cap: the secondary's frequency drops.
/// let action = capper.step(&mut server, Watts(150.0))?;
/// assert_eq!(action, CapAction::LoweredFrequency);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PowerCapper;

impl PowerCapper {
    /// Runs one control step against a measured server power reading,
    /// enforcing the server's own provisioned cap.
    ///
    /// # Errors
    ///
    /// Propagates knob errors from the server (none occur with in-range
    /// steps; surfaced for completeness).
    pub fn step(&self, server: &mut SimServer, measured: Watts) -> Result<CapAction, SimError> {
        self.step_with_cap(server, measured, server.power_cap())
    }

    /// Runs one control step against an explicit cap — used when enforcing
    /// a *budget* on the secondary alone (e.g. the paper's fixed 70 W BE
    /// budget experiment, Fig. 3) rather than the server cap.
    ///
    /// # Errors
    ///
    /// Propagates knob errors from the server.
    pub fn step_with_cap(
        &self,
        server: &mut SimServer,
        measured: Watts,
        cap: Watts,
    ) -> Result<CapAction, SimError> {
        let Some(sec) = server.allocation(TenantRole::Secondary).copied() else {
            return Ok(if measured > cap {
                CapAction::Saturated
            } else {
                CapAction::None
            });
        };
        let fmin = server.machine().freq_min();
        let fmax = server.machine().freq_max();

        if measured > cap {
            // Throttle: frequency first (fine-grained), then quota.
            if sec.frequency > fmin + Frequency(1e-9) {
                server.set_frequency(
                    TenantRole::Secondary,
                    Frequency(sec.frequency.0 - FREQ_STEP),
                )?;
                Ok(CapAction::LoweredFrequency)
            } else if sec.cpu_quota > QUOTA_FLOOR + 1e-9 {
                server.set_quota(
                    TenantRole::Secondary,
                    (sec.cpu_quota - QUOTA_STEP).max(QUOTA_FLOOR),
                )?;
                Ok(CapAction::LoweredQuota)
            } else {
                Ok(CapAction::Saturated)
            }
        } else if measured < cap * RELEASE {
            // Recover: quota first (it hurts throughput linearly), then
            // frequency.
            if sec.cpu_quota < 1.0 - 1e-9 {
                server.set_quota(TenantRole::Secondary, (sec.cpu_quota + QUOTA_STEP).min(1.0))?;
                Ok(CapAction::RaisedQuota)
            } else if sec.frequency < fmax - Frequency(1e-9) {
                server.set_frequency(
                    TenantRole::Secondary,
                    Frequency(sec.frequency.0 + FREQ_STEP),
                )?;
                Ok(CapAction::RaisedFrequency)
            } else {
                Ok(CapAction::None)
            }
        } else {
            Ok(CapAction::None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocolo_simserver::{CoreSet, MachineSpec, TenantAllocation, WayMask};

    fn server_with_secondary() -> SimServer {
        let mut s = SimServer::new(MachineSpec::xeon_e5_2650(), Watts(132.0));
        s.install(
            TenantRole::Secondary,
            TenantAllocation::new(CoreSet::range(4, 8), WayMask::range(8, 12), Frequency(2.2)),
        )
        .unwrap();
        s
    }

    #[test]
    fn over_cap_lowers_frequency_first() {
        let mut s = server_with_secondary();
        let c = PowerCapper;
        let a = c.step(&mut s, Watts(140.0)).unwrap();
        assert_eq!(a, CapAction::LoweredFrequency);
        let f = s.allocation(TenantRole::Secondary).unwrap().frequency;
        assert!((f.0 - 2.1).abs() < 1e-9);
    }

    #[test]
    fn quota_drops_once_frequency_floors() {
        let mut s = server_with_secondary();
        let c = PowerCapper;
        // Drive frequency to the floor.
        for _ in 0..20 {
            let _ = c.step(&mut s, Watts(150.0)).unwrap();
        }
        let sec = s.allocation(TenantRole::Secondary).unwrap();
        assert!((sec.frequency.0 - 1.2).abs() < 1e-9);
        assert!(sec.cpu_quota < 1.0, "quota should have started dropping");
    }

    #[test]
    fn saturates_at_floors() {
        let mut s = server_with_secondary();
        let c = PowerCapper;
        for _ in 0..40 {
            let _ = c.step(&mut s, Watts(200.0)).unwrap();
        }
        let a = c.step(&mut s, Watts(200.0)).unwrap();
        assert_eq!(a, CapAction::Saturated);
        let sec = s.allocation(TenantRole::Secondary).unwrap();
        assert!((sec.cpu_quota - QUOTA_FLOOR).abs() < 1e-9);
    }

    #[test]
    fn recovers_quota_then_frequency() {
        let mut s = server_with_secondary();
        let c = PowerCapper;
        for _ in 0..40 {
            let _ = c.step(&mut s, Watts(200.0)).unwrap();
        }
        // Now well under cap: quota recovers first (0.05 → 1.0 in ten
        // 0.1-steps), and only then frequency.
        let a = c.step(&mut s, Watts(80.0)).unwrap();
        assert_eq!(a, CapAction::RaisedQuota);
        for _ in 0..9 {
            let _ = c.step(&mut s, Watts(80.0)).unwrap();
        }
        let sec = s.allocation(TenantRole::Secondary).unwrap();
        assert!(
            (sec.cpu_quota - 1.0).abs() < 1e-9,
            "quota {}",
            sec.cpu_quota
        );
        let a = c.step(&mut s, Watts(80.0)).unwrap();
        assert_eq!(a, CapAction::RaisedFrequency);
    }

    #[test]
    fn in_band_is_a_no_op() {
        let mut s = server_with_secondary();
        let c = PowerCapper;
        // Between release (124) and the cap (132).
        let a = c.step(&mut s, Watts(128.0)).unwrap();
        assert_eq!(a, CapAction::None);
        let sec = s.allocation(TenantRole::Secondary).unwrap();
        assert_eq!(sec.cpu_quota, 1.0);
        assert_eq!(sec.frequency, Frequency(2.2));
    }

    #[test]
    fn no_secondary_reports_saturated_when_over() {
        let mut s = SimServer::new(MachineSpec::xeon_e5_2650(), Watts(132.0));
        let c = PowerCapper;
        assert_eq!(c.step(&mut s, Watts(150.0)).unwrap(), CapAction::Saturated);
        assert_eq!(c.step(&mut s, Watts(100.0)).unwrap(), CapAction::None);
    }

    #[test]
    fn explicit_cap_enforces_be_budget() {
        // Fig. 3 setup: throttle the secondary to a fixed 70 W budget.
        let mut s = server_with_secondary();
        let c = PowerCapper;
        let a = c.step_with_cap(&mut s, Watts(95.0), Watts(70.0)).unwrap();
        assert_eq!(a, CapAction::LoweredFrequency);
    }

    #[test]
    fn fully_recovered_is_a_no_op() {
        let mut s = server_with_secondary();
        let c = PowerCapper;
        assert_eq!(c.step(&mut s, Watts(80.0)).unwrap(), CapAction::None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pocolo_simserver::{CoreSet, MachineSpec, TenantAllocation, WayMask};
    use proptest::prelude::*;

    proptest! {
        /// Under arbitrary measured-power sequences the capper keeps every
        /// knob inside its hardware bounds and never errors.
        #[test]
        fn knobs_stay_in_bounds(
            readings in proptest::collection::vec(40.0f64..260.0, 1..120),
        ) {
            let machine = MachineSpec::xeon_e5_2650();
            let mut server = SimServer::new(machine.clone(), Watts(154.0));
            server
                .install(
                    TenantRole::Secondary,
                    TenantAllocation::new(
                        CoreSet::range(2, 8),
                        WayMask::range(4, 12),
                        Frequency(2.2),
                    ),
                )
                .unwrap();
            let capper = PowerCapper;
            for r in readings {
                capper.step(&mut server, Watts(r)).unwrap();
                let sec = server.allocation(TenantRole::Secondary).unwrap();
                prop_assert!(sec.frequency >= machine.freq_min() - Frequency(1e-9));
                prop_assert!(sec.frequency <= machine.freq_max() + Frequency(1e-9));
                prop_assert!(sec.cpu_quota >= QUOTA_FLOOR - 1e-9);
                prop_assert!(sec.cpu_quota <= 1.0 + 1e-9);
                prop_assert!(sec.validate(&machine).is_ok());
            }
        }
    }
}
