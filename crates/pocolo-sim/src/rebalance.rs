//! Dynamic re-placement vs the paper's static whole-range placement.
//!
//! The paper justifies placing once for the *entire load range* by noting
//! that "dynamically moving applications across servers incurs high
//! overheads" (§I). This module makes that trade-off measurable: a cluster
//! whose primaries peak at *different times* (per-server phase-shifted
//! diurnal traces) is run either with the static POColo placement or with
//! periodic re-placement, where every migration costs the moved app a
//! configurable warm-up pause. Re-placement is a cluster controller on the
//! closed loop ([`RunPlan::play_closed_loop`]): it owns no server and no
//! tick, only the decision taken at each barrier.
//!
//! Measured result (see the tests): even with *free* migrations, myopic
//! chasing slightly loses to the static whole-range placement — the
//! instantaneous matrix misjudges the load range (the Fig. 4 insight) and
//! every move costs a throttling transient. With realistic warm-up pauses
//! the gap widens decisively — exactly the paper's §I argument.

use pocolo_cluster::{PerfMatrix, Solver};
use pocolo_workloads::LoadTrace;

use crate::experiment::{placement_pairs, ExperimentConfig, FittedCluster, Policy, RunPlan};
use crate::faults::ServerFaultAction;
use crate::metrics::ClusterSummary;
use crate::server_sim::ServerSim;

/// Per-server phase shift of the diurnal trace, seconds (server `i` is
/// shifted by `i × PHASE_SHIFT_S`): a quarter day, so the four primaries
/// peak at four different times.
const PHASE_SHIFT_S: f64 = 45.0;

/// Diurnal period, seconds.
const DAY_S: f64 = 180.0;

/// Configuration of a rebalancing run.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceConfig {
    /// Re-solve the placement every this many seconds (`None` = static).
    pub period_s: Option<f64>,
    /// Warm-up pause a migrated BE app pays, seconds.
    pub migration_pause_s: f64,
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
/// re-solving the placement every `reb.period_s`: the POColo [`RunPlan`]
/// played closed loop, its controller re-placing at every multiple of the
/// period inside the run (a re-placement decided at the instant the run
/// ends would move apps that no tick then runs, so none is).
///
/// # Panics
///
/// Panics if `reb.period_s` is `Some` but not finite and positive — a
/// period that does not advance time never reaches the end of the run,
/// and `NaN` would silently never re-place. A static run is `None`, not
/// `Some(f64::INFINITY)`, which is rejected too. Also panics if the
/// fitted models make the myopic matrix ill-formed.
pub fn run_rebalancing(
    config: &ExperimentConfig,
    reb: &RebalanceConfig,
    fitted: &FittedCluster,
    duration_s: f64,
) -> RebalanceResult {
    if let Some(period_s) = reb.period_s {
        assert!(
            period_s.is_finite() && period_s > 0.0,
            "rebalancing period must be finite and positive, got {period_s}"
        );
    }
    // Per-server phase-shifted diurnal traces.
    let traces: Vec<LoadTrace> = (0..fitted.lc().len())
        .map(|i| {
            let shift = i as f64 * PHASE_SHIFT_S;
            // Shift by replaying the diurnal curve offset in time.
            let samples: Vec<(f64, f64)> = (0..96)
                .map(|k| {
                    let t = k as f64 * DAY_S / 96.0;
                    let base = LoadTrace::diurnal(0.1, 0.9, DAY_S);
                    (t, base.load_at(t + shift))
                })
                .collect();
            LoadTrace::replay(samples)
        })
        .collect();

    // Initial placement: the standard POColo solve.
    let policy = Policy::Pocolo {
        solver: Solver::Hungarian,
    };
    let plan = RunPlan::compile(fitted.plan_inputs(), policy, config, duration_s);
    // The BE row (index into `fitted.be()`) running on each server.
    let mut rows: Vec<usize> = placement_pairs(plan.placement())
        .into_iter()
        .map(|(row, _)| row)
        .collect();
    let barriers: Vec<f64> = (1..)
        .map(|k| f64::from(k) * reb.period_s.unwrap_or(f64::INFINITY))
        .take_while(|&t| t < duration_s)
        .collect();

    let servers = fitted.server_profiles();
    let mut migrations = 0usize;
    let replace = |t: f64, _: &[ServerSim]| {
        // Myopic matrix at each server's *current* load level.
        let values = fitted
            .be()
            .iter()
            .map(|(_, _, be_fit)| {
                let at_level = |(server, trace): (_, &LoadTrace)| {
                    let level = trace.load_at(t).clamp(0.05, 0.95);
                    pocolo_cluster::estimate_pair_throughput(be_fit, server, &[level])
                        .unwrap_or(0.0)
                };
                servers.iter().zip(&traces).map(at_level).collect()
            })
            .collect();
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
        let mut actions = Vec::new();
        for (row, col) in assignment.pairs {
            if rows[col] != row {
                rows[col] = row;
                migrations += 1;
                let (_, be_truth, be_fitted) = &fitted.be()[row];
                actions.push((
                    col,
                    ServerFaultAction::ReplaceBe {
                        be_truth: Some(Box::new(be_truth.clone())),
                        be_fitted: Some(Box::new(be_fitted.clone())),
                        pause_s: reb.migration_pause_s,
                    },
                ));
            }
        }
        actions
    };
    let (result, _) = plan.play_closed_loop(
        traces.clone(),
        config.parallelism,
        false,
        &barriers,
        replace,
    );
    RebalanceResult {
        summary: result.summary,
        migrations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ExperimentConfig, FittedCluster) {
        let profiler = pocolo_workloads::profiler::ProfilerConfig::default();
        (ExperimentConfig::default(), FittedCluster::fit(&profiler))
    }

    fn reb(period: Option<f64>, pause: f64) -> RebalanceConfig {
        RebalanceConfig {
            period_s: period,
            migration_pause_s: pause,
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
    fn parallel_run_is_bit_identical_to_serial() {
        use crate::parallel::Parallelism;
        let (config, fitted) = setup();
        let at = |parallelism| {
            let config = ExperimentConfig {
                parallelism,
                ..config.clone()
            };
            run_rebalancing(&config, &reb(Some(20.0), 5.0), &fitted, 70.0)
        };
        let serial = at(Parallelism::Serial);
        assert!(serial.migrations > 0);
        assert_eq!(serial, at(Parallelism::Fixed(4)));
    }

    fn run_with_period(period_s: f64) {
        let (config, fitted) = setup();
        run_rebalancing(&config, &reb(Some(period_s), 0.0), &fitted, 10.0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_period_panics() {
        run_with_period(0.0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn negative_period_panics() {
        run_with_period(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn nan_period_panics() {
        run_with_period(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn infinite_period_panics() {
        // A static run is `period_s: None`.
        run_with_period(f64::INFINITY);
    }
}
