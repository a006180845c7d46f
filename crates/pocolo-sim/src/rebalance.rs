//! Dynamic re-placement vs the paper's static whole-range placement.
//!
//! The paper justifies placing once for the *entire load range* by noting
//! that "dynamically moving applications across servers incurs high
//! overheads" (§I). This module makes that trade-off measurable: a cluster
//! whose primaries peak at *different times* (per-server phase-shifted
//! diurnal traces) is run either with the static POColo placement or with
//! periodic re-placement, where every migration costs the moved app a
//! configurable warm-up pause.
//!
//! Measured result (see the tests): even with *free* migrations, myopic
//! chasing slightly loses to the static whole-range placement — the
//! instantaneous matrix misjudges the load range (the Fig. 4 insight) and
//! every move costs a throttling transient. With realistic warm-up pauses
//! the gap widens decisively — exactly the paper's §I argument.

use pocolo_cluster::{PerfMatrix, Solver};
use pocolo_manager::LcPolicy;
use pocolo_workloads::{BeApp, LoadTrace};

use crate::experiment::{ExperimentConfig, FittedCluster, Policy};
use crate::metrics::{ClusterSummary, ServerMetrics};
use crate::server_sim::ServerSim;

/// Configuration of a rebalancing run.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceConfig {
    /// Re-solve the placement every this many seconds (`None` = static).
    pub period_s: Option<f64>,
    /// Warm-up pause a migrated BE app pays, seconds.
    pub migration_pause_s: f64,
    /// Per-server phase shift of the diurnal trace, seconds (server `i`
    /// is shifted by `i × phase_shift_s`).
    pub phase_shift_s: f64,
    /// Diurnal period, seconds.
    pub day_s: f64,
}

/// Outcome of a rebalancing run.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceResult {
    /// Aggregate metrics.
    pub summary: ClusterSummary,
    /// Number of migrations performed.
    pub migrations: usize,
}

/// Runs a phase-shifted-diurnal cluster for `duration_s`, optionally
/// re-solving the placement every `reb.period_s`.
pub fn run_rebalancing(
    config: &ExperimentConfig,
    reb: &RebalanceConfig,
    fitted: &FittedCluster,
    duration_s: f64,
) -> RebalanceResult {
    let n = fitted.lc().len();
    // Per-server phase-shifted diurnal traces.
    let traces: Vec<LoadTrace> = (0..n)
        .map(|i| {
            let shift = i as f64 * reb.phase_shift_s;
            // Shift by replaying the diurnal curve offset in time.
            let samples: Vec<(f64, f64)> = (0..96)
                .map(|k| {
                    let t = k as f64 * reb.day_s / 96.0;
                    let base = LoadTrace::diurnal(0.1, 0.9, reb.day_s);
                    (t, base.load_at(t + shift))
                })
                .collect();
            LoadTrace::replay(samples)
        })
        .collect();

    // Initial placement: the standard POColo solve.
    let mut placement = fitted.placement(Policy::Pocolo {
        solver: Solver::Hungarian,
    });

    let mut sims: Vec<ServerSim> = fitted
        .lc()
        .iter()
        .enumerate()
        .map(|(i, (_, truth, fit))| {
            let be_app = placement[i];
            let (be_truth, be_fitted) = be_models(fitted, be_app);
            ServerSim::new(
                truth.clone(),
                fit.clone(),
                Some(be_truth),
                LcPolicy::PowerOptimized,
                traces[i].clone(),
                truth.provisioned_power(),
                config.meter_noise,
                config.seed ^ ((i as u64) << 4),
            )
            .with_proactive_be(be_fitted)
        })
        .collect();

    let capper_ticks = (config.manager_period_s / config.capper_period_s)
        .round()
        .max(1.0) as usize;
    let mut migrations = 0usize;
    let mut t = 0.0f64;
    let mut next_rebalance = reb.period_s.unwrap_or(f64::INFINITY);
    while t < duration_s {
        for sim in sims.iter_mut() {
            sim.on_manager_tick(t);
        }
        for _ in 0..capper_ticks {
            for sim in sims.iter_mut() {
                sim.on_capper_tick(config.capper_period_s);
            }
        }
        t += config.manager_period_s;

        if t >= next_rebalance {
            next_rebalance += reb.period_s.expect("rebalancing enabled");
            // Myopic matrix at each server's *current* load level.
            let servers = fitted.server_profiles();
            let mut values = Vec::with_capacity(fitted.be().len());
            for (_, _, be_fit) in fitted.be() {
                let mut row = Vec::with_capacity(n);
                for (j, server) in servers.iter().enumerate() {
                    let level = traces[j].load_at(t).clamp(0.05, 0.95);
                    let v = pocolo_cluster::estimate_pair_throughput(be_fit, server, &[level])
                        .unwrap_or(0.0);
                    row.push(v);
                }
                values.push(row);
            }
            let matrix = PerfMatrix::new(
                fitted
                    .be()
                    .iter()
                    .map(|(a, _, _)| a.name().to_string())
                    .collect(),
                servers.iter().map(|s| s.label.clone()).collect(),
                values,
            )
            .expect("well-formed myopic matrix");
            let assignment =
                pocolo_cluster::assign::solve(&matrix, Solver::Hungarian).expect("square instance");
            let mut new_placement = placement.clone();
            for (row, col) in assignment.pairs {
                new_placement[col] = fitted.be()[row].0;
            }
            for i in 0..n {
                if new_placement[i] != placement[i] {
                    migrations += 1;
                    let (be_truth, be_fitted) = be_models(fitted, new_placement[i]);
                    sims[i].replace_be(Some(be_truth), Some(be_fitted), reb.migration_pause_s);
                }
            }
            placement = new_placement;
        }
    }

    let metrics: Vec<ServerMetrics> = sims.iter().map(|s| s.metrics().clone()).collect();
    RebalanceResult {
        summary: ClusterSummary::aggregate(&metrics).expect("non-empty cluster"),
        migrations,
    }
}

fn be_models(
    fitted: &FittedCluster,
    app: BeApp,
) -> (
    pocolo_workloads::BeModel,
    pocolo_core::utility::IndirectUtility,
) {
    let entry = fitted
        .be()
        .iter()
        .find(|(a, _, _)| *a == app)
        .expect("every BE app is fitted");
    (entry.1.clone(), entry.2.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ExperimentConfig, FittedCluster) {
        let config = ExperimentConfig::default();
        let fitted = FittedCluster::fit(&config.profiler);
        (config, fitted)
    }

    fn reb(period: Option<f64>, pause: f64) -> RebalanceConfig {
        RebalanceConfig {
            period_s: period,
            migration_pause_s: pause,
            phase_shift_s: 45.0,
            day_s: 180.0,
        }
    }

    #[test]
    fn static_run_has_no_migrations() {
        let (config, fitted) = setup();
        let r = run_rebalancing(&config, &reb(None, 0.0), &fitted, 120.0);
        assert_eq!(r.migrations, 0);
        assert!(r.summary.avg_be_throughput > 0.1);
        assert!(r.summary.worst_violation_frac < 0.3);
    }

    #[test]
    fn even_free_migrations_only_roughly_match_static() {
        // Myopic instantaneous re-placement loses the Fig-4 whole-range
        // information and pays churn transients; with free migrations it
        // lands close to — but not above — the static placement.
        let (config, fitted) = setup();
        let statice = run_rebalancing(&config, &reb(None, 0.0), &fitted, 180.0);
        let dynamic = run_rebalancing(&config, &reb(Some(30.0), 0.0), &fitted, 180.0);
        assert!(dynamic.migrations > 0, "phase shifts should trigger moves");
        let ratio = dynamic.summary.avg_be_throughput / statice.summary.avg_be_throughput;
        assert!(
            (0.85..=1.05).contains(&ratio),
            "free rebalancing should be in static's neighbourhood, ratio {ratio}"
        );
        assert!(
            ratio <= 1.02,
            "chasing the myopic matrix should not beat whole-range placement, ratio {ratio}"
        );
    }

    #[test]
    fn expensive_migrations_favour_static_placement() {
        // The paper's §I claim: with realistic migration overheads, the
        // whole-range static placement wins.
        let (config, fitted) = setup();
        let statice = run_rebalancing(&config, &reb(None, 0.0), &fitted, 180.0);
        let costly = run_rebalancing(&config, &reb(Some(30.0), 25.0), &fitted, 180.0);
        assert!(costly.migrations > 0);
        assert!(
            statice.summary.avg_be_throughput > costly.summary.avg_be_throughput,
            "static {} should beat costly rebalancing {}",
            statice.summary.avg_be_throughput,
            costly.summary.avg_be_throughput
        );
    }

    #[test]
    fn deterministic() {
        let (config, fitted) = setup();
        let a = run_rebalancing(&config, &reb(Some(40.0), 5.0), &fitted, 100.0);
        let b = run_rebalancing(&config, &reb(Some(40.0), 5.0), &fitted, 100.0);
        assert_eq!(a, b);
    }

    #[test]
    fn a_finer_capper_period_covers_the_same_simulated_time() {
        let (config, fitted) = setup();
        let fine = ExperimentConfig {
            capper_period_s: 0.05,
            ..config.clone()
        };
        let coarse = run_rebalancing(&config, &reb(None, 0.0), &fitted, 60.0);
        let fine = run_rebalancing(&fine, &reb(None, 0.0), &fitted, 60.0);
        let ratio = fine.summary.total_energy / coarse.summary.total_energy;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "0.05 s capper ticks should draw the energy of 0.1 s ones, ratio {ratio}"
        );
    }
}
