//! Ground-truth power simulation and the (noisy) power meter.
//!
//! Server power is modelled as idle power plus each tenant's draw. A
//! tenant's draw depends on its allocation, its DVFS frequency, its CPU
//! quota, its utilization, and application-specific *power intensity*
//! coefficients — compute-bound trainers and cache-thrashing analytics pull
//! very different watts from the same allocation, which is exactly the
//! effect Pocolo exploits.
//!
//! The model is *approximately* linear in (cores, ways) — as the paper's
//! fitted linear power model assumes — but includes a superlinear DVFS term
//! (`(f/f_max)^γ`, γ ≈ 2.4) and a utilization-dependent cache term, so
//! fitted R² lands in the paper's 0.8–0.98 band rather than at 1.0.

use pocolo_core::units::Watts;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::knobs::TenantAllocation;
use crate::machine::MachineSpec;

/// Application-specific power coefficients: how hard this application
/// drives each resource.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerIntensity {
    /// Watts drawn by one fully-utilized core at maximum frequency.
    pub core_watts: f64,
    /// Watts drawn per actively-used LLC way.
    pub way_watts: f64,
    /// Additional uncore/DRAM watts while the application is active.
    pub uncore_watts: f64,
    /// DVFS exponent γ in `P_dyn ∝ (f/f_max)^γ`.
    pub freq_exponent: f64,
}

impl PowerIntensity {
    /// A balanced default: 6 W/core, 1.2 W/way, 4 W uncore, γ = 2.4.
    pub fn balanced() -> Self {
        PowerIntensity {
            core_watts: 6.0,
            way_watts: 1.2,
            uncore_watts: 4.0,
            freq_exponent: 2.4,
        }
    }
}

/// Ground-truth model of a server's power draw.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerDrawModel {
    machine: MachineSpec,
}

impl PowerDrawModel {
    /// Creates the power model for a machine.
    pub fn new(machine: MachineSpec) -> Self {
        PowerDrawModel { machine }
    }

    /// The machine this model describes.
    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    /// Power drawn by one tenant given its allocation, utilization (fraction
    /// of its allocated capacity it is actually using, in `[0, 1]`) and
    /// power intensity.
    ///
    /// The CPU quota scales the effective busy time of the tenant's cores;
    /// frequency scales dynamic power superlinearly.
    pub fn tenant_power(
        &self,
        intensity: &PowerIntensity,
        alloc: &TenantAllocation,
        utilization: f64,
    ) -> Watts {
        let util = utilization.clamp(0.0, 1.0);
        let busy = util * alloc.cpu_quota.clamp(0.0, 1.0);
        let f_frac = alloc.frequency.fraction_of(self.machine.freq_max());
        let dvfs = f_frac.powf(intensity.freq_exponent);
        let core_p = intensity.core_watts * alloc.cores.count() as f64 * busy * dvfs;
        // Cache ways leak a little even when idle (0.25 of their active
        // power) and draw fully only when the tenant is busy.
        let way_p = intensity.way_watts * alloc.ways.count() as f64 * (0.25 + 0.75 * busy);
        let uncore_p = intensity.uncore_watts * busy;
        Watts(core_p + way_p + uncore_p)
    }

    /// Total server power: idle power plus each tenant's draw.
    pub fn server_power<I>(&self, tenant_draws: I) -> Watts
    where
        I: IntoIterator<Item = Watts>,
    {
        self.machine.idle_watts() + tenant_draws.into_iter().sum()
    }

    /// Splits a measured server power among tenants in proportion to their
    /// dynamic draws, apportioning the static/idle power by core count — the
    /// "power containers" accounting of the paper's §IV-A (ref \[27\]).
    ///
    /// Returns one apportioned reading per entry of `tenants`, in order.
    pub fn apportion(&self, measured: Watts, tenants: &[(TenantAllocation, Watts)]) -> Vec<Watts> {
        if tenants.is_empty() {
            return Vec::new();
        }
        let dynamic_total: Watts = tenants.iter().map(|(_, d)| *d).sum();
        let static_power = (measured - dynamic_total).max(Watts::ZERO);
        let total_cores: u32 = tenants.iter().map(|(a, _)| a.cores.count()).sum();
        tenants
            .iter()
            .map(|(a, d)| {
                let share = if total_cores > 0 {
                    a.cores.count() as f64 / total_cores as f64
                } else {
                    1.0 / tenants.len() as f64
                };
                *d + static_power * share
            })
            .collect()
    }
}

/// A socket power meter with bounded multiplicative sampling noise,
/// standing in for the Xeon's socket/DRAM power meter.
#[derive(Debug)]
pub struct PowerMeter {
    rng: StdRng,
    noise: f64,
}

impl PowerMeter {
    /// Creates a meter with `noise` relative error (e.g. `0.02` = ±2 %),
    /// seeded deterministically for reproducible simulations.
    ///
    /// # Panics
    ///
    /// Panics if `noise` is negative or ≥ 1.
    pub fn new(noise: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&noise), "noise must be in [0, 1)");
        PowerMeter {
            rng: StdRng::seed_from_u64(seed),
            noise,
        }
    }

    /// Samples the meter against the true power, returning the noisy
    /// reading.
    pub fn sample(&mut self, true_power: Watts) -> Watts {
        let eps = if self.noise > 0.0 {
            self.rng.gen_range(-self.noise..=self.noise)
        } else {
            0.0
        };
        Watts((true_power.0 * (1.0 + eps)).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::{CoreSet, WayMask};
    use pocolo_core::units::Frequency;

    fn model() -> PowerDrawModel {
        PowerDrawModel::new(MachineSpec::xeon_e5_2650())
    }

    fn alloc(cores: u32, ways: u32, freq: f64) -> TenantAllocation {
        TenantAllocation::new(
            CoreSet::first_n(cores),
            WayMask::first_n(ways),
            Frequency(freq),
        )
    }

    #[test]
    fn idle_tenant_draws_only_way_leakage() {
        let m = model();
        let a = alloc(4, 8, 2.2);
        let p = m.tenant_power(&PowerIntensity::balanced(), &a, 0.0);
        // Only the 25 % way leakage: 1.2 * 8 * 0.25 = 2.4 W.
        assert!((p.0 - 2.4).abs() < 1e-9, "got {p}");
    }

    #[test]
    fn full_utilization_at_max_freq() {
        let m = model();
        let a = alloc(12, 20, 2.2);
        let i = PowerIntensity::balanced();
        let p = m.tenant_power(&i, &a, 1.0);
        // cores 6*12 + ways 1.2*20 + uncore 4 = 100 W dynamic.
        assert!((p.0 - 100.0).abs() < 1e-9, "got {p}");
        // Full server ~ 150 W, in the ballpark of Table I's 135 W active.
        let total = m.server_power([p]);
        assert!(total.0 > 135.0 && total.0 < 160.0, "total {total}");
    }

    #[test]
    fn power_scales_superlinearly_with_frequency() {
        let m = model();
        let i = PowerIntensity::balanced();
        let hi = m.tenant_power(&i, &alloc(8, 1, 2.2), 1.0);
        let lo = m.tenant_power(&i, &alloc(8, 1, 1.2), 1.0);
        let core_hi = hi.0 - 1.2 - 4.0; // strip way + uncore
        let core_lo = lo.0 - 1.2 - 4.0;
        let ratio = core_hi / core_lo;
        let linear_ratio = 2.2 / 1.2;
        assert!(
            ratio > linear_ratio,
            "DVFS power should be superlinear: {ratio} <= {linear_ratio}"
        );
    }

    #[test]
    fn quota_throttles_power() {
        let m = model();
        let i = PowerIntensity::balanced();
        let mut a = alloc(8, 8, 2.2);
        let full = m.tenant_power(&i, &a, 1.0);
        a.cpu_quota = 0.5;
        let half = m.tenant_power(&i, &a, 1.0);
        assert!(half < full);
        assert!(half.0 > full.0 * 0.4, "ways still leak when throttled");
    }

    #[test]
    fn utilization_is_clamped() {
        let m = model();
        let i = PowerIntensity::balanced();
        let a = alloc(4, 4, 2.2);
        assert_eq!(m.tenant_power(&i, &a, 1.5), m.tenant_power(&i, &a, 1.0));
        assert_eq!(m.tenant_power(&i, &a, -0.5), m.tenant_power(&i, &a, 0.0));
    }

    #[test]
    fn server_power_adds_idle() {
        let m = model();
        let total = m.server_power([Watts(30.0), Watts(20.0)]);
        assert_eq!(total, Watts(100.0));
        assert_eq!(m.server_power([]), Watts(50.0));
    }

    #[test]
    fn intensities_differ_between_profiles() {
        let m = model();
        let a = alloc(8, 8, 2.2);
        let balanced = PowerIntensity::balanced();
        let compute = PowerIntensity {
            core_watts: 7.5,
            ..balanced
        };
        assert_ne!(
            m.tenant_power(&compute, &a, 1.0),
            m.tenant_power(&balanced, &a, 1.0)
        );
    }

    #[test]
    fn apportion_splits_static_by_cores() {
        let m = model();
        let a = alloc(9, 10, 2.2);
        let b = alloc(3, 10, 2.2);
        let out = m.apportion(Watts(110.0), &[(a, Watts(40.0)), (b, Watts(20.0))]);
        // Static = 110 - 60 = 50; a gets 75 % (9/12 cores), b 25 %.
        assert!((out[0].0 - (40.0 + 37.5)).abs() < 1e-9);
        assert!((out[1].0 - (20.0 + 12.5)).abs() < 1e-9);
        // Conservation.
        assert!((out.iter().map(|w| w.0).sum::<f64>() - 110.0).abs() < 1e-9);
    }

    #[test]
    fn apportion_handles_empty_and_overdraw() {
        let m = model();
        assert!(m.apportion(Watts(100.0), &[]).is_empty());
        // Measured below dynamic sum: static floors at zero.
        let a = alloc(6, 10, 2.2);
        let out = m.apportion(Watts(10.0), &[(a, Watts(40.0))]);
        assert_eq!(out[0], Watts(40.0));
    }

    #[test]
    fn meter_noise_is_bounded_and_deterministic() {
        let mut m1 = PowerMeter::new(0.02, 99);
        let mut m2 = PowerMeter::new(0.02, 99);
        for _ in 0..100 {
            let r1 = m1.sample(Watts(100.0));
            let r2 = m2.sample(Watts(100.0));
            assert_eq!(r1, r2, "same seed, same readings");
            assert!(r1.0 >= 98.0 && r1.0 <= 102.0, "reading {r1} out of band");
        }
    }

    #[test]
    fn ideal_meter_is_exact() {
        let mut m = PowerMeter::new(0.0, 0);
        assert_eq!(m.sample(Watts(123.4)), Watts(123.4));
    }

    #[test]
    #[should_panic(expected = "noise must be in")]
    fn meter_rejects_bad_noise() {
        let _ = PowerMeter::new(1.5, 0);
    }
}
