//! Profiling sweeps: sampling performance and power across allocations,
//! as the paper's telemetry pipeline does (§IV-A).
//!
//! For latency-critical apps the profiler measures at several operating
//! loads per allocation. Measurements taken with little latency slack are
//! *biased low* (the measured "max achievable load" is polluted by
//! saturation) — which is exactly why the paper guards the fit with a
//! minimum-slack filter.

use pocolo_core::fit::ProfileSample;
use pocolo_core::resources::ResourceSpace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pocolo_simserver::power::PowerDrawModel;
use pocolo_simserver::{CoreSet, TenantAllocation, WayMask};

use crate::be::BeModel;
use crate::lc::LcModel;

/// Stride through core counts (1 = every count).
const CORE_STRIDE: u32 = 1;

/// Stride through way counts: 2, 4, …, so ten way counts on the 20-way
/// LLC (the grid the profile-shape tests pin).
const WAY_STRIDE: u32 = 2;

/// Configuration of a profiling sweep. Every sweep runs at the machine's
/// maximum frequency over the `CORE_STRIDE` × `WAY_STRIDE` grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilerConfig {
    /// Relative measurement noise on performance (±fraction).
    pub perf_noise: f64,
    /// Relative measurement noise on power (±fraction).
    pub power_noise: f64,
    /// RNG seed for reproducible noise.
    pub seed: u64,
    /// For LC apps: fractions of the sustainable load at which to take the
    /// measurement (each produces one sample per allocation).
    pub operating_points: Vec<f64>,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            perf_noise: 0.07,
            power_noise: 0.03,
            seed: 0xB0C0,
            operating_points: vec![0.7, 0.85, 1.0],
        }
    }
}

fn grid(machine_cores: u32, machine_ways: u32) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut c = 1;
    while c <= machine_cores {
        let mut w = 2.min(machine_ways);
        while w <= machine_ways {
            out.push((c, w));
            w += WAY_STRIDE;
        }
        c += CORE_STRIDE;
    }
    out
}

/// Profiles a latency-critical application over the allocation grid.
///
/// Each allocation yields one sample per operating point in
/// [`ProfilerConfig::operating_points`]. Samples taken with less than 10 %
/// latency slack report a biased (15 % low) performance estimate,
/// modelling saturation pollution.
pub fn profile_lc(
    model: &LcModel,
    power: &PowerDrawModel,
    space: &ResourceSpace,
    cfg: &ProfilerConfig,
) -> Vec<ProfileSample> {
    let machine = model.machine();
    let freq = machine.freq_max();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut samples = Vec::new();
    for (c, w) in grid(machine.cores(), machine.llc_ways()) {
        let alloc = TenantAllocation::new(CoreSet::first_n(c), WayMask::first_n(w), freq);
        let sustainable = model.sustainable_load_rps(&alloc);
        for &phi in &cfg.operating_points {
            let load = phi * sustainable;
            let slack = model.latency_slack(load, &alloc);
            let bias = if slack < 0.10 { 0.85 } else { 1.0 };
            let perf_eps = noise(&mut rng, cfg.perf_noise);
            let power_eps = noise(&mut rng, cfg.power_noise);
            let measured_perf = sustainable * bias * (1.0 + perf_eps);
            // The LC app owns the server: its apportioned power includes the
            // platform idle power.
            let true_power =
                power.server_power([model.power_draw(load.min(sustainable), &alloc, power)]);
            let measured_power = true_power * (1.0 + power_eps);
            let sa = space
                .allocation(vec![c as f64, w as f64])
                .expect("grid stays within the machine's space");
            samples.push(ProfileSample::latency_critical(
                sa,
                measured_perf.max(1e-9),
                measured_power,
                slack,
            ));
        }
    }
    samples
}

/// Profiles a best-effort application over the allocation grid.
///
/// BE power is reported *apportioned*: only the application's own draw,
/// without the platform idle power (which the primary owns). Fitted BE
/// models therefore take the colocation power *headroom* directly as their
/// budget.
pub fn profile_be(
    model: &BeModel,
    power: &PowerDrawModel,
    space: &ResourceSpace,
    cfg: &ProfilerConfig,
) -> Vec<ProfileSample> {
    let machine = model.machine();
    let freq = machine.freq_max();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EC0_17D0);
    let mut samples = Vec::new();
    for (c, w) in grid(machine.cores(), machine.llc_ways()) {
        let alloc = TenantAllocation::new(CoreSet::first_n(c), WayMask::first_n(w), freq);
        let perf_eps = noise(&mut rng, cfg.perf_noise);
        let power_eps = noise(&mut rng, cfg.power_noise);
        let measured_perf = model.throughput(&alloc) * (1.0 + perf_eps);
        let measured_power = model.power_draw(&alloc, power) * (1.0 + power_eps);
        let sa = space
            .allocation(vec![c as f64, w as f64])
            .expect("grid stays within the machine's space");
        samples.push(ProfileSample::best_effort(
            sa,
            measured_perf.max(1e-9),
            measured_power,
        ));
    }
    samples
}

fn noise(rng: &mut StdRng, amplitude: f64) -> f64 {
    if amplitude > 0.0 {
        rng.gen_range(-amplitude..=amplitude)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{BeApp, LcApp};
    use pocolo_core::fit::{fit_indirect_utility, FitOptions};
    use pocolo_simserver::MachineSpec;

    fn setup() -> (MachineSpec, PowerDrawModel, ResourceSpace) {
        let m = MachineSpec::xeon_e5_2650();
        let p = PowerDrawModel::new(m.clone());
        let s = m.resource_space();
        (m, p, s)
    }

    #[test]
    fn lc_profile_shape() {
        let (m, p, s) = setup();
        let model = LcModel::for_app(LcApp::Xapian, m);
        let cfg = ProfilerConfig::default();
        let samples = profile_lc(&model, &p, &s, &cfg);
        // 12 core counts × 10 way counts × 3 operating points.
        assert_eq!(samples.len(), 12 * 10 * 3);
        for smp in &samples {
            assert!(smp.performance > 0.0);
            assert!(smp.power.0 > 50.0, "LC samples include idle power");
            assert!(smp.latency_slack.is_some());
        }
    }

    #[test]
    fn be_profile_shape() {
        let (m, p, s) = setup();
        let model = BeModel::for_app(BeApp::Graph, m);
        let samples = profile_be(&model, &p, &s, &ProfilerConfig::default());
        assert_eq!(samples.len(), 12 * 10);
        for smp in &samples {
            assert!(smp.latency_slack.is_none());
            assert!(smp.power.0 < 120.0, "BE power is apportioned (no idle)");
        }
    }

    #[test]
    fn profiles_are_deterministic_per_seed() {
        let (m, p, s) = setup();
        let model = BeModel::for_app(BeApp::Lstm, m);
        let a = profile_be(&model, &p, &s, &ProfilerConfig::default());
        let b = profile_be(&model, &p, &s, &ProfilerConfig::default());
        assert_eq!(a, b);
        let cfg = ProfilerConfig {
            seed: ProfilerConfig::default().seed + 1,
            ..ProfilerConfig::default()
        };
        let c = profile_be(&model, &p, &s, &cfg);
        assert_ne!(a, c);
    }

    #[test]
    fn fits_land_in_paper_r2_band() {
        // Fig. 8: R² between 0.8 and 0.98 for all eight apps.
        let (m, p, s) = setup();
        let cfg = ProfilerConfig::default();
        for app in LcApp::ALL {
            let model = LcModel::for_app(app, m.clone());
            let samples = profile_lc(&model, &p, &s, &cfg);
            let fitted = fit_indirect_utility(&s, &samples, &FitOptions::default()).unwrap();
            assert!(
                fitted.performance_r2 > 0.8 && fitted.performance_r2 < 0.995,
                "{app}: perf R² {} out of band",
                fitted.performance_r2
            );
            assert!(
                fitted.power_r2 > 0.8,
                "{app}: power R² {} out of band",
                fitted.power_r2
            );
        }
        for app in BeApp::ALL {
            let model = BeModel::for_app(app, m.clone());
            let samples = profile_be(&model, &p, &s, &cfg);
            let fitted = fit_indirect_utility(&s, &samples, &FitOptions::default()).unwrap();
            assert!(
                fitted.performance_r2 > 0.8,
                "{app}: perf R² {} out of band",
                fitted.performance_r2
            );
            assert!(
                fitted.power_r2 > 0.8,
                "{app}: power R² {} out of band",
                fitted.power_r2
            );
        }
    }

    #[test]
    fn slack_filter_improves_fit() {
        // Including near-saturation (biased) samples should hurt R².
        let (m, p, s) = setup();
        let model = LcModel::for_app(LcApp::Sphinx, m);
        let cfg = ProfilerConfig {
            operating_points: vec![0.5, 0.8, 1.0, 1.05],
            ..ProfilerConfig::default()
        };
        let samples = profile_lc(&model, &p, &s, &cfg);
        let strict = fit_indirect_utility(&s, &samples, &FitOptions::default()).unwrap();
        let lax = fit_indirect_utility(
            &s,
            &samples,
            &FitOptions {
                min_latency_slack: -10.0,
                ..FitOptions::default()
            },
        )
        .unwrap();
        assert!(strict.samples_used < lax.samples_used);
        assert!(
            strict.performance_r2 > lax.performance_r2,
            "filtered fit {} should beat unfiltered {}",
            strict.performance_r2,
            lax.performance_r2
        );
    }
}
