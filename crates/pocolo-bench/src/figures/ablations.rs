//! Ablation studies for the design choices called out in DESIGN.md §5.

use pocolo::prelude::*;
use pocolo_cluster::PerfMatrixBuilder;
use pocolo_core::fit::{fit_indirect_utility, FitOptions};
use pocolo_workloads::profiler::profile_lc;

use crate::common::{f3, row, section, Bench};

/// Slack-filter ablation data.
#[derive(Debug, Clone)]
pub struct SlackAblation {
    /// `(min_slack, samples_used, perf_r2)`.
    pub rows: Vec<(f64, usize, f64)>,
}

/// Ablation: the minimum-latency-slack guard on fitting samples (§IV-A).
/// Near-saturation samples are biased; dropping them improves the fit.
pub fn slack_filter(bench: &Bench) -> SlackAblation {
    section("Ablation — fit-sample slack filter (sphinx)");
    // Include near- and over-saturation operating points.
    let cfg = ProfilerConfig {
        operating_points: vec![0.6, 0.8, 1.0, 1.05],
        ..ProfilerConfig::default()
    };
    let samples = profile_lc(
        bench.lc_truth(LcApp::Sphinx),
        &bench.power,
        &bench.space,
        &cfg,
    );
    let mut rows = Vec::new();
    row("min slack", &["samples".into(), "perf R²".into()]);
    for min_slack in [-10.0, 0.0, 0.10, 0.20] {
        let fit = fit_indirect_utility(
            &bench.space,
            &samples,
            &FitOptions {
                min_latency_slack: min_slack,
                ..FitOptions::default()
            },
        )
        .expect("enough samples at all thresholds");
        row(
            &format!("{min_slack:>5.2}"),
            &[fit.samples_used.to_string(), f3(fit.performance_r2)],
        );
        rows.push((min_slack, fit.samples_used, fit.performance_r2));
    }
    SlackAblation { rows }
}

/// Myopic-placement ablation data.
#[derive(Debug, Clone)]
pub struct MyopicAblation {
    /// Full-range placement value evaluated over the full range.
    pub range_aware_total: f64,
    /// Single-operating-point (10 % load) placement value evaluated over
    /// the full range.
    pub myopic_total: f64,
}

/// Ablation: placing for one operating point vs the whole load range
/// (the Fig. 4 insight made quantitative).
pub fn myopic_placement(bench: &Bench) -> MyopicAblation {
    section("Ablation — myopic (10%-load) vs range-aware placement");
    let bes = bench.fitted.be_profiles();
    let servers = bench.fitted.server_profiles();
    let full_matrix = PerfMatrixBuilder::new()
        .build(&bes, &servers)
        .expect("matrix builds");
    let myopic_matrix = PerfMatrixBuilder::new()
        .with_load_levels(vec![0.1])
        .build(&bes, &servers)
        .expect("matrix builds");
    let range_aware =
        pocolo_cluster::assign::solve(&full_matrix, Solver::Hungarian).expect("solvable");
    let myopic =
        pocolo_cluster::assign::solve(&myopic_matrix, Solver::Hungarian).expect("solvable");
    // Evaluate BOTH placements on the full-range matrix.
    let range_aware_total = full_matrix.assignment_value(&range_aware.pairs);
    let myopic_total = full_matrix.assignment_value(&myopic.pairs);
    row("policy", &["placement value (full range)".into()]);
    row("range-aware", &[f3(range_aware_total)]);
    row("myopic @10%", &[f3(myopic_total)]);
    println!(
        "range-aware placement is {:+.1}% better across the load spectrum",
        100.0 * (range_aware_total / myopic_total - 1.0)
    );
    MyopicAblation {
        range_aware_total,
        myopic_total,
    }
}

/// Solver-choice ablation data.
#[derive(Debug, Clone)]
pub struct SolverAblation {
    /// `(solver, total, optimal_ratio)`.
    pub rows: Vec<(String, f64, f64)>,
}

/// Ablation: assignment-solver choice (LP vs Hungarian vs exhaustive vs
/// random). The exact solvers tie; random pays a real penalty.
pub fn solver_choice(bench: &Bench) -> SolverAblation {
    section("Ablation — assignment solver choice");
    let matrix = PerfMatrixBuilder::new()
        .build(&bench.fitted.be_profiles(), &bench.fitted.server_profiles())
        .expect("matrix builds");
    let optimum = pocolo_cluster::assign::solve(&matrix, Solver::Exhaustive)
        .expect("solvable")
        .total;
    let mut rows = Vec::new();
    row("solver", &["total".into(), "vs optimal".into()]);
    for (name, solver) in [
        ("exhaustive", Solver::Exhaustive),
        ("hungarian", Solver::Hungarian),
        ("lp-simplex", Solver::Lp),
        ("random(avg)", Solver::Random { seed: 0 }),
    ] {
        let total = if name == "random(avg)" {
            let n = 32;
            (0..n)
                .map(|seed| {
                    pocolo_cluster::assign::solve(&matrix, Solver::Random { seed })
                        .expect("solvable")
                        .total
                })
                .sum::<f64>()
                / n as f64
        } else {
            pocolo_cluster::assign::solve(&matrix, solver)
                .expect("solvable")
                .total
        };
        row(name, &[f3(total), f3(total / optimum)]);
        rows.push((name.to_string(), total, total / optimum));
    }
    SolverAblation { rows }
}

/// Fairness ablation data.
#[derive(Debug, Clone)]
pub struct FairnessAblation {
    /// POColo (total-throughput) assignment: (total, min entry).
    pub total_objective: (f64, f64),
    /// Max-min fair assignment: (total, min entry).
    pub fair_objective: (f64, f64),
}

/// Ablation: total-throughput vs max-min-fair placement. The paper notes
/// POColo "is not designed to consider fairness... it allows poorer
/// performance for some co-locations"; this quantifies what fairness
/// would cost.
pub fn fairness(bench: &Bench) -> FairnessAblation {
    section("Ablation — total-throughput vs max-min fair placement");
    let matrix = PerfMatrixBuilder::new()
        .build(&bench.fitted.be_profiles(), &bench.fitted.server_profiles())
        .expect("matrix builds");
    let min_of = |a: &pocolo_cluster::Assignment| {
        a.pairs
            .iter()
            .map(|&(r, c)| matrix.value(r, c))
            .fold(f64::INFINITY, f64::min)
    };
    let total = pocolo_cluster::assign::solve(&matrix, Solver::Hungarian).expect("solvable");
    let fair = pocolo_cluster::assign::solve(&matrix, Solver::MaxMinFair).expect("solvable");
    row("objective", &["total".into(), "worst pair".into()]);
    row("max total", &[f3(total.total), f3(min_of(&total))]);
    row("max-min fair", &[f3(fair.total), f3(min_of(&fair))]);
    println!(
        "fairness lifts the worst co-runner by {:+.1}% at a total cost of {:+.1}%",
        100.0 * (min_of(&fair) / min_of(&total) - 1.0),
        100.0 * (fair.total / total.total - 1.0)
    );
    FairnessAblation {
        total_objective: (total.total, min_of(&total)),
        fair_objective: (fair.total, min_of(&fair)),
    }
}

/// Consolidation-vs-colocation data (§II-B).
#[derive(Debug, Clone)]
pub struct ConsolidationAblation {
    /// `(strategy, monthly $, $/work)` rows.
    pub rows: Vec<(String, f64, f64)>,
}

/// Ablation: the §II-B argument — consolidation saves energy but strands
/// capital; colocation converts the stranded capital into work.
pub fn consolidation(runs_be_throughput: f64) -> ConsolidationAblation {
    use pocolo_tco::consolidation::{compare_strategies, DiurnalCluster};
    section("Ablation — consolidation vs colocation (§II-B)");
    let model = TcoModel::default();
    let cluster = DiurnalCluster {
        mean_load: 0.5,
        provisioned: Watts(150.5),
        idle: Watts(50.0),
        busy: Watts(150.5),
        colocated_be_throughput: runs_be_throughput,
        colocated_power: Watts(141.0),
        consolidation_margin: 0.25,
    };
    let costs = compare_strategies(&model, &cluster);
    let mut rows = Vec::new();
    row("strategy", &["monthly $M".into(), "$/work".into()]);
    for c in &costs {
        row(
            &c.name,
            &[
                format!("{:.2}", c.monthly_usd / 1e6),
                format!("{:.2}", c.usd_per_work),
            ],
        );
        rows.push((c.name.clone(), c.monthly_usd, c.usd_per_work));
    }
    ConsolidationAblation { rows }
}

/// Spatial vs temporal sharing data (model-predicted, not simulated).
#[derive(Debug, Clone)]
pub struct SharingAblation {
    /// Total BE throughput when graph+lstm spatially share beside sphinx.
    pub spatial_total: f64,
    /// Total when the two time-share the single secondary slot (each gets
    /// the whole box half the time).
    pub temporal_total: f64,
}

/// Ablation: spatial vs temporal sharing of two co-runners (§V-G), as
/// the planning closed forms over the *fitted* utilities predict it: the
/// spare box is what the manager's analytic plan leaves beside sphinx at
/// 40 % load, the headroom what sphinx's fitted power model leaves under
/// its cap. Complementary apps keep their preferred resource full-time
/// under a spatial split, beating a 50/50 time slice.
pub fn sharing(bench: &Bench) -> SharingAblation {
    use pocolo_manager::spatial::{spatial_sharing_total, temporal_sharing_total};
    section("Ablation — spatial vs temporal sharing (graph+lstm beside sphinx)");
    let lc_truth = bench.lc_truth(LcApp::Sphinx);
    let lc_fit = bench.lc_fitted(LcApp::Sphinx);
    let (c, w) = ServerManager::new(lc_fit.clone(), LcPolicy::PowerOptimized)
        .plan(0.4 * lc_truth.peak_load_rps(), None, None)
        .expect("sphinx fits the box at 40 % load");
    let headroom = lc_truth.provisioned_power()
        - lc_fit
            .power_model()
            .power_of_amounts(&[f64::from(c), f64::from(w)])
            .expect("a planned allocation is in the model's domain");
    let apps = [BeApp::Graph, BeApp::Lstm].map(|a| bench.be_fitted(a).clone());
    let machine = &bench.machine;

    // Spatial: both run concurrently on a preference-based split.
    let spatial_total = spatial_sharing_total(machine, &apps, c, w, headroom)
        .expect("fitted BE models evaluate inside the spare box");
    // Temporal: each app alone with the whole spare box, half the time.
    let temporal_total =
        temporal_sharing_total(&apps, machine.cores() - c, machine.llc_ways() - w, headroom)
            .expect("fitted BE models evaluate inside the spare box");
    row("strategy", &["total BE throughput".into()]);
    row("spatial", &[f3(spatial_total)]);
    row("temporal", &[f3(temporal_total)]);
    println!(
        "spatial sharing is {:+.1}% vs a 50/50 time slice",
        100.0 * (spatial_total / temporal_total - 1.0)
    );
    SharingAblation {
        spatial_total,
        temporal_total,
    }
}

/// Rebalancing ablation data.
#[derive(Debug, Clone)]
pub struct RebalanceAblation {
    /// `(label, be_throughput, migrations)` rows.
    pub rows: Vec<(String, f64, usize)>,
}

/// Ablation: static whole-range placement vs periodic myopic re-placement
/// under phase-shifted diurnal loads, at several migration costs (§I's
/// "moving applications incurs high overheads" argument).
pub fn rebalance(bench: &Bench) -> RebalanceAblation {
    use pocolo_sim::rebalance::{run_rebalancing, RebalanceConfig};
    section("Ablation — static vs periodic re-placement (phase-shifted diurnal)");
    let config = ExperimentConfig::default();
    let mut rows = Vec::new();
    row("strategy", &["BE thpt".into(), "migrations".into()]);
    for (label, period, pause) in [
        ("static", None, 0.0),
        ("rebalance free", Some(30.0), 0.0),
        ("rebalance 10s", Some(30.0), 10.0),
        ("rebalance 25s", Some(30.0), 25.0),
    ] {
        let r = run_rebalancing(
            &config,
            &RebalanceConfig {
                period_s: period,
                migration_pause_s: pause,
            },
            &bench.fitted,
            180.0,
        );
        row(
            label,
            &[f3(r.summary.avg_be_throughput), r.migrations.to_string()],
        );
        rows.push((label.to_string(), r.summary.avg_be_throughput, r.migrations));
    }
    RebalanceAblation { rows }
}
