//! Ground-truth models of the four latency-critical primary applications
//! (Table II of the paper).

use pocolo_core::units::Watts;
use pocolo_simserver::power::{PowerDrawModel, PowerIntensity};
use pocolo_simserver::{MachineSpec, TenantAllocation};

use crate::app::LcApp;
use crate::ces::CesSurface;

/// Ground-truth performance/power model of a latency-critical application.
///
/// Capacity (max request rate the allocation can serve) follows a CES
/// surface over normalized cores and ways, scaled by DVFS; p99 latency
/// blows up M/M/1-style as utilization approaches 1, hitting the SLO at
/// [`LcModel::rho_slo`] utilization. Peak load, SLO latencies and
/// provisioned peak power reproduce Table II.
///
/// ```
/// use pocolo_workloads::{LcModel, LcApp};
/// use pocolo_simserver::MachineSpec;
/// let m = LcModel::for_app(LcApp::Xapian, MachineSpec::xeon_e5_2650());
/// assert_eq!(m.peak_load_rps(), 4000.0);
/// assert_eq!(m.provisioned_power().0.round(), 154.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LcModel {
    machine: MachineSpec,
    peak_load_rps: f64,
    slo_p99_ms: f64,
    rho_slo: f64,
    surface: CesSurface,
    freq_exp_perf: f64,
    intensity: PowerIntensity,
}

impl LcModel {
    /// The calibrated ground-truth model for `app` on `machine`.
    ///
    /// Calibration targets (see DESIGN.md §2): Table II peak loads, SLOs and
    /// peak powers; §III/§V-C preference vectors (sphinx cache-preferring
    /// per watt, img-dnn core-preferring, xapian/tpcc balanced).
    pub fn for_app(app: LcApp, machine: MachineSpec) -> Self {
        let (peak_load_rps, slo_p99_ms, surface, freq_exp_perf, intensity) = match app {
            LcApp::ImgDnn => (
                3500.0,
                20.0,
                CesSurface::with_saturation(0.92, -0.4, 0.88, 1.2, 1.0),
                0.9,
                PowerIntensity {
                    core_watts: 4.75,
                    way_watts: 1.0,
                    uncore_watts: 6.0,
                    freq_exponent: 2.5,
                },
            ),
            LcApp::Sphinx => (
                10.0,
                3030.0,
                CesSurface::with_saturation(0.60, -0.4, 0.85, 1.2, 1.0),
                0.7,
                PowerIntensity {
                    core_watts: 8.0,
                    way_watts: 1.5,
                    uncore_watts: 6.0,
                    freq_exponent: 2.4,
                },
            ),
            LcApp::Xapian => (
                4000.0,
                4.020,
                CesSurface::with_saturation(0.89, -0.4, 0.88, 1.1, 1.0),
                0.8,
                PowerIntensity {
                    core_watts: 6.75,
                    way_watts: 0.85,
                    uncore_watts: 6.0,
                    freq_exponent: 2.4,
                },
            ),
            LcApp::TpcC => (
                8000.0,
                707.0,
                CesSurface::with_saturation(0.83, -0.4, 0.80, 1.2, 1.0),
                0.6,
                PowerIntensity {
                    core_watts: 5.0,
                    way_watts: 0.85,
                    uncore_watts: 6.0,
                    freq_exponent: 2.3,
                },
            ),
        };
        LcModel {
            machine,
            peak_load_rps,
            slo_p99_ms,
            rho_slo: 0.9,
            surface,
            freq_exp_perf,
            intensity,
        }
    }

    /// The machine the model is calibrated for.
    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    /// Table II peak load: the max request rate served within SLO at full
    /// allocation.
    pub fn peak_load_rps(&self) -> f64 {
        self.peak_load_rps
    }

    /// The p99 latency SLO in milliseconds.
    pub fn slo_p99_ms(&self) -> f64 {
        self.slo_p99_ms
    }

    /// Utilization at which p99 exactly hits the SLO (0.9).
    pub fn rho_slo(&self) -> f64 {
        self.rho_slo
    }

    /// Raw service capacity of an allocation in requests/second — the rate
    /// at which utilization would reach 1.0.
    pub fn capacity_rps(&self, alloc: &TenantAllocation) -> f64 {
        let x = alloc.cores.count() as f64 / self.machine.cores() as f64;
        let y = alloc.ways.count() as f64 / self.machine.llc_ways() as f64;
        let f = alloc.frequency.fraction_of(self.machine.freq_max());
        (self.peak_load_rps / self.rho_slo)
            * self.surface.evaluate(x, y)
            * f.powf(self.freq_exp_perf)
            * alloc.cpu_quota.clamp(0.0, 1.0)
    }

    /// Max load sustainable within the SLO: `rho_slo × capacity`.
    ///
    /// At the full allocation and max frequency this equals
    /// [`LcModel::peak_load_rps`] (Table II).
    pub fn sustainable_load_rps(&self, alloc: &TenantAllocation) -> f64 {
        self.rho_slo * self.capacity_rps(alloc)
    }

    /// Utilization `ρ = load / capacity` of the allocation at `load_rps`.
    pub fn utilization(&self, load_rps: f64, alloc: &TenantAllocation) -> f64 {
        let cap = self.capacity_rps(alloc);
        if cap <= 0.0 {
            f64::INFINITY
        } else {
            (load_rps / cap).max(0.0)
        }
    }

    /// p99 tail latency in milliseconds at `load_rps` on `alloc`.
    ///
    /// Returns `f64::INFINITY` once utilization reaches 1 (queue divergence).
    pub fn p99_latency_ms(&self, load_rps: f64, alloc: &TenantAllocation) -> f64 {
        let rho = self.utilization(load_rps, alloc);
        if rho >= 1.0 {
            return f64::INFINITY;
        }
        let base = self.slo_p99_ms * (1.0 - self.rho_slo);
        base / (1.0 - rho)
    }

    /// Fractional latency slack versus the SLO: `(SLO − p99)/SLO`.
    ///
    /// Positive means headroom; negative means violation; clamped at −1 for
    /// diverged queues.
    pub fn latency_slack(&self, load_rps: f64, alloc: &TenantAllocation) -> f64 {
        let p99 = self.p99_latency_ms(load_rps, alloc);
        if !p99.is_finite() {
            return -1.0;
        }
        ((self.slo_p99_ms - p99) / self.slo_p99_ms).max(-1.0)
    }

    /// Power the application draws at `load_rps` on `alloc`.
    pub fn power_draw(
        &self,
        load_rps: f64,
        alloc: &TenantAllocation,
        power: &PowerDrawModel,
    ) -> Watts {
        let util = self.utilization(load_rps, alloc).min(1.0);
        power.tenant_power(&self.intensity, alloc, util)
    }

    /// The right-sized provisioned server power for this application:
    /// idle power plus the app's full-allocation, full-utilization draw
    /// (Table II's "peak server power").
    pub fn provisioned_power(&self) -> Watts {
        let full = TenantAllocation::new(
            pocolo_simserver::CoreSet::first_n(self.machine.cores()),
            pocolo_simserver::WayMask::first_n(self.machine.llc_ways()),
            self.machine.freq_max(),
        );
        let power = PowerDrawModel::new(self.machine.clone());
        power.server_power([power.tenant_power(&self.intensity, &full, 1.0)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocolo_core::units::Frequency;
    use pocolo_simserver::{CoreSet, WayMask};

    fn machine() -> MachineSpec {
        MachineSpec::xeon_e5_2650()
    }

    fn full_alloc() -> TenantAllocation {
        TenantAllocation::new(CoreSet::first_n(12), WayMask::first_n(20), Frequency(2.2))
    }

    fn alloc(c: u32, w: u32, f: f64) -> TenantAllocation {
        TenantAllocation::new(CoreSet::first_n(c), WayMask::first_n(w), Frequency(f))
    }

    #[test]
    fn table2_peak_loads_reproduced() {
        for (app, peak) in [
            (LcApp::ImgDnn, 3500.0),
            (LcApp::Sphinx, 10.0),
            (LcApp::Xapian, 4000.0),
            (LcApp::TpcC, 8000.0),
        ] {
            let m = LcModel::for_app(app, machine());
            let sustainable = m.sustainable_load_rps(&full_alloc());
            assert!(
                (sustainable - peak).abs() / peak < 1e-9,
                "{app}: sustainable {sustainable} != {peak}"
            );
        }
    }

    #[test]
    fn table2_peak_powers_reproduced() {
        for (app, watts) in [
            (LcApp::ImgDnn, 133.0),
            (LcApp::Sphinx, 182.0),
            (LcApp::Xapian, 154.0),
            (LcApp::TpcC, 133.0),
        ] {
            let m = LcModel::for_app(app, machine());
            let p = m.provisioned_power();
            assert!(
                (p.0 - watts).abs() < 0.5,
                "{app}: provisioned {p} != {watts} W"
            );
        }
    }

    #[test]
    fn table2_slos_reproduced() {
        assert_eq!(
            LcModel::for_app(LcApp::ImgDnn, machine()).slo_p99_ms(),
            20.0
        );
        assert_eq!(
            LcModel::for_app(LcApp::Sphinx, machine()).slo_p99_ms(),
            3030.0
        );
        assert_eq!(
            LcModel::for_app(LcApp::Xapian, machine()).slo_p99_ms(),
            4.020
        );
        assert_eq!(LcModel::for_app(LcApp::TpcC, machine()).slo_p99_ms(), 707.0);
    }

    #[test]
    fn capacity_monotone_in_resources() {
        let m = LcModel::for_app(LcApp::Xapian, machine());
        let base = m.capacity_rps(&alloc(4, 8, 2.2));
        assert!(m.capacity_rps(&alloc(5, 8, 2.2)) > base);
        assert!(m.capacity_rps(&alloc(4, 9, 2.2)) > base);
        assert!(m.capacity_rps(&alloc(4, 8, 1.8)) < base);
    }

    #[test]
    fn latency_blows_up_near_capacity() {
        let m = LcModel::for_app(LcApp::Xapian, machine());
        let a = alloc(6, 10, 2.2);
        let cap = m.capacity_rps(&a);
        let low = m.p99_latency_ms(cap * 0.3, &a);
        let mid = m.p99_latency_ms(cap * 0.7, &a);
        let hi = m.p99_latency_ms(cap * 0.95, &a);
        assert!(low < mid && mid < hi);
        assert!(m.p99_latency_ms(cap * 1.01, &a).is_infinite());
    }

    #[test]
    fn slo_hit_exactly_at_rho_slo() {
        let m = LcModel::for_app(LcApp::Sphinx, machine());
        let a = alloc(8, 12, 2.2);
        let cap = m.capacity_rps(&a);
        let p99 = m.p99_latency_ms(cap * m.rho_slo(), &a);
        assert!((p99 - m.slo_p99_ms()).abs() / m.slo_p99_ms() < 1e-9);
        assert!(m.latency_slack(cap * 0.89, &a) >= 0.0);
        assert!(m.latency_slack(cap * 0.91, &a) < 0.0);
    }

    #[test]
    fn slack_sign_and_clamp() {
        let m = LcModel::for_app(LcApp::TpcC, machine());
        let a = alloc(6, 10, 2.2);
        let cap = m.capacity_rps(&a);
        assert!(m.latency_slack(cap * 0.5, &a) > 0.0);
        assert!(m.latency_slack(cap * 0.95, &a) < 0.0);
        assert_eq!(m.latency_slack(cap * 2.0, &a), -1.0);
    }

    #[test]
    fn xapian_low_load_example_from_paper() {
        // §II-C: xapian at 10 % load needs ~1 core, 2 ways at 2.2 GHz and
        // draws ~64 W total.
        let m = LcModel::for_app(LcApp::Xapian, machine());
        let a = alloc(1, 2, 2.2);
        let load = 0.1 * m.peak_load_rps();
        assert!(
            m.latency_slack(load, &a) >= 0.0,
            "1c/2w should serve 10% load: slack {}",
            m.latency_slack(load, &a)
        );
        let power = PowerDrawModel::new(machine());
        let total = power.server_power([m.power_draw(load, &a, &power)]);
        assert!(
            (total.0 - 64.0).abs() < 10.0,
            "total power {total} should be in the ~64 W ballpark"
        );
    }

    #[test]
    fn power_scales_with_load() {
        let m = LcModel::for_app(LcApp::Sphinx, machine());
        let power = PowerDrawModel::new(machine());
        let a = alloc(8, 12, 2.2);
        let lo = m.power_draw(0.1 * m.peak_load_rps(), &a, &power);
        let hi = m.power_draw(0.5 * m.peak_load_rps(), &a, &power);
        assert!(hi > lo);
    }

    #[test]
    fn quota_and_zero_capacity_edge() {
        let m = LcModel::for_app(LcApp::Xapian, machine());
        let mut a = alloc(4, 8, 2.2);
        let cap_full = m.capacity_rps(&a);
        a.cpu_quota = 0.5;
        assert!((m.capacity_rps(&a) - cap_full * 0.5).abs() < 1e-9);
        assert!(m.utilization(100.0, &a).is_finite());
    }

    #[test]
    fn preference_vectors_match_paper_targets() {
        // Fit the Cobb-Douglas indirect utility to noiseless profiles and
        // check the scaled preference vectors land near the paper's.
        use pocolo_core::fit::{fit_indirect_utility, FitOptions, ProfileSample};
        let machine = machine();
        let power = PowerDrawModel::new(machine.clone());
        let space = machine.resource_space();
        let check = |app: LcApp, want_cores: f64, tol: f64| {
            let m = LcModel::for_app(app, machine.clone());
            let mut samples = Vec::new();
            for c in 1..=12u32 {
                for w in (2..=20u32).step_by(2) {
                    let a = alloc(c, w, 2.2);
                    let perf = m.sustainable_load_rps(&a);
                    // Operate at 80 % of sustainable for power measurement.
                    let p = m.power_draw(0.8 * perf, &a, &power);
                    let sa = space.allocation(vec![c as f64, w as f64]).unwrap();
                    samples.push(ProfileSample::latency_critical(sa, perf, p, 0.3));
                }
            }
            let fitted = fit_indirect_utility(&space, &samples, &FitOptions::default()).unwrap();
            let pv = fitted.utility.preference_vector();
            assert!(
                (pv.weight(0) - want_cores).abs() < tol,
                "{app}: cores preference {} (want ~{want_cores})",
                pv.weight(0)
            );
        };
        check(LcApp::Sphinx, 0.22, 0.08); // paper: 0.2
        check(LcApp::ImgDnn, 0.68, 0.10); // core-preferring
        check(LcApp::Xapian, 0.52, 0.10); // balanced
        check(LcApp::TpcC, 0.48, 0.10); // balanced
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pocolo_simserver::{CoreSet, WayMask};
    use proptest::prelude::*;

    proptest! {
        /// Capacity is monotone in cores, ways and frequency for every app.
        #[test]
        fn capacity_is_monotone(
            app_idx in 0usize..4,
            c in 1u32..12,
            w in 1u32..20,
            f in 1.2f64..2.1,
        ) {
            let machine = MachineSpec::xeon_e5_2650();
            let m = LcModel::for_app(LcApp::ALL[app_idx], machine);
            let alloc = |c: u32, w: u32, f: f64| {
                TenantAllocation::new(
                    CoreSet::first_n(c),
                    WayMask::first_n(w),
                    pocolo_core::units::Frequency(f),
                )
            };
            let base = m.capacity_rps(&alloc(c, w, f));
            prop_assert!(m.capacity_rps(&alloc(c + 1, w, f)) > base);
            prop_assert!(m.capacity_rps(&alloc(c, w + 1, f)) > base);
            prop_assert!(m.capacity_rps(&alloc(c, w, f + 0.1)) > base);
        }

        /// Latency slack decreases monotonically with load, crossing zero
        /// exactly at the sustainable load.
        #[test]
        fn slack_is_monotone_in_load(
            app_idx in 0usize..4,
            c in 2u32..=12,
            w in 2u32..=20,
        ) {
            let machine = MachineSpec::xeon_e5_2650();
            let m = LcModel::for_app(LcApp::ALL[app_idx], machine);
            let alloc = TenantAllocation::new(
                CoreSet::first_n(c),
                WayMask::first_n(w),
                pocolo_core::units::Frequency(2.2),
            );
            let sustainable = m.sustainable_load_rps(&alloc);
            let mut prev = f64::INFINITY;
            for frac in [0.2, 0.5, 0.8, 0.99, 1.01] {
                let slack = m.latency_slack(frac * sustainable, &alloc);
                prop_assert!(slack <= prev + 1e-12);
                prev = slack;
            }
            prop_assert!(m.latency_slack(0.99 * sustainable, &alloc) > 0.0);
            prop_assert!(m.latency_slack(1.01 * sustainable, &alloc) < 0.0);
        }
    }
}
