//! Figures 12–14 and the headline summary: the end-to-end evaluation
//! (§V-D, §V-E).

use pocolo::prelude::*;
use pocolo_cluster::assign::search::enumerate_all;

use crate::common::{f3, pct, row, section, Bench};

/// The three policies' full experiment results, shared by Figs. 12/13/15.
#[derive(Debug, Clone)]
pub struct PolicyRuns {
    /// Result under random placement + power-oblivious management.
    pub random: ExperimentResult,
    /// Result under random placement + power-optimized management.
    pub pom: ExperimentResult,
    /// Result under full Pocolo.
    pub pocolo: ExperimentResult,
}

/// Runs all three policies over the uniform 10–90 % sweep with shared fits.
pub fn run_policies() -> PolicyRuns {
    let config = ExperimentConfig::default();
    let fitted = FittedCluster::fit(&ProfilerConfig::default());
    PolicyRuns {
        random: run_experiment_with(Policy::Random { seed: 1 }, &config, &fitted),
        pom: run_experiment_with(Policy::Pom { seed: 1 }, &config, &fitted),
        pocolo: run_experiment_with(Policy::Pocolo { solver: Solver::Lp }, &config, &fitted),
    }
}

/// Fig. 12: best-effort throughput per LC server under each policy.
pub fn fig12(runs: &PolicyRuns) {
    section("Fig 12 — BE throughput per server (higher is better)");
    row(
        "lc server",
        &[
            "Random".into(),
            "POM".into(),
            "POColo".into(),
            "pocolo pairs".into(),
        ],
    );
    for i in 0..runs.random.pairs.len() {
        row(
            &runs.random.pairs[i].lc,
            &[
                f3(runs.random.pairs[i].metrics.be_throughput_avg),
                f3(runs.pom.pairs[i].metrics.be_throughput_avg),
                f3(runs.pocolo.pairs[i].metrics.be_throughput_avg),
                runs.pocolo.pairs[i].be.clone(),
            ],
        );
    }
    row(
        "average",
        &[
            f3(runs.random.summary.avg_be_throughput),
            f3(runs.pom.summary.avg_be_throughput),
            f3(runs.pocolo.summary.avg_be_throughput),
            String::new(),
        ],
    );
}

/// Fig. 12 appendix: BE throughput at each load level (the data behind the
/// averaged bars), POColo vs Random.
pub fn fig12_by_level() {
    section("Fig 12 (appendix) — BE throughput by load level");
    let config = ExperimentConfig {
        dwell_s: 10.0,
        ..ExperimentConfig::default()
    };
    let fitted = FittedCluster::fit(&ProfilerConfig::default());
    let levels: Vec<f64> = (1..=9).map(|i| i as f64 / 10.0).collect();
    let random = pocolo_sim::experiment::run_level_sweep(
        Policy::Random { seed: 1 },
        &config,
        &fitted,
        &levels,
    );
    let pocolo = pocolo_sim::experiment::run_level_sweep(
        Policy::Pocolo { solver: Solver::Lp },
        &config,
        &fitted,
        &levels,
    );
    row("load", &["Random".into(), "POColo".into()]);
    for ((level, r), (_, p)) in random.iter().zip(&pocolo) {
        row(
            &pct(*level),
            &[f3(r.avg_be_throughput), f3(p.avg_be_throughput)],
        );
    }
}

/// Fig. 13: server power utilization (avg power / provisioned cap).
pub fn fig13(runs: &PolicyRuns) {
    section("Fig 13 — power utilization vs provisioned capacity (lower is better)");
    row(
        "lc server",
        &["Random".into(), "POM".into(), "POColo".into()],
    );
    for i in 0..runs.random.pairs.len() {
        row(
            &runs.random.pairs[i].lc,
            &[
                pct(runs.random.pairs[i].metrics.power_utilization()),
                pct(runs.pom.pairs[i].metrics.power_utilization()),
                pct(runs.pocolo.pairs[i].metrics.power_utilization()),
            ],
        );
    }
    row(
        "average",
        &[
            pct(runs.random.summary.avg_power_utilization),
            pct(runs.pom.summary.avg_power_utilization),
            pct(runs.pocolo.summary.avg_power_utilization),
        ],
    );
    row(
        "capping freq",
        &[
            pct(runs.random.summary.avg_capping_frac),
            pct(runs.pom.summary.avg_capping_frac),
            pct(runs.pocolo.summary.avg_capping_frac),
        ],
    );
}

/// Fig. 14 data: total server throughput for every placement combination.
#[derive(Debug, Clone)]
pub struct Fig14 {
    /// `(be, lc, total_normalized_throughput)` for all 16 pairs.
    pub pairs: Vec<(String, String, f64)>,
    /// The POColo assignment `(be, lc)` pairs.
    pub chosen: Vec<(String, String)>,
    /// POColo's total vs the exhaustive-search optimum.
    pub pocolo_total: f64,
    /// The exhaustive optimum total.
    pub best_total: f64,
}

/// Fig. 14: POColo's choice against the exhaustive 4×4 placement search,
/// evaluated by *simulating* every pair through the load sweep.
pub fn fig14(bench: &Bench) -> Fig14 {
    section("Fig 14 — POColo vs exhaustive placement (simulated totals)");
    // Simulate each (be, lc) pair at the paper's load levels and record the
    // total (LC load served + BE throughput), averaged across levels.
    let mut totals = vec![vec![0.0f64; LcApp::ALL.len()]; BeApp::ALL.len()];
    for (bi, be_app) in BeApp::ALL.iter().enumerate() {
        for (li, lc_app) in LcApp::ALL.iter().enumerate() {
            let mut total = 0.0;
            let levels = [0.1, 0.3, 0.5, 0.7, 0.9];
            for &level in &levels {
                let mut sim = pocolo_sim::ServerSim::new(
                    bench.lc_truth(*lc_app).clone(),
                    bench.lc_fitted(*lc_app).clone(),
                    Some(bench.be_truth(*be_app).clone()),
                    LcPolicy::PowerOptimized,
                    LoadTrace::Constant(level),
                    bench.lc_truth(*lc_app).provisioned_power(),
                    0.0,
                    13,
                )
                .with_proactive_be(bench.be_fitted(*be_app).clone());
                for s in 0..10 {
                    sim.on_manager_tick(s as f64);
                    for _ in 0..10 {
                        sim.on_capper_tick(0.1);
                    }
                }
                total += level + sim.be_throughput();
            }
            totals[bi][li] = total / levels.len() as f64;
        }
    }
    let matrix = PerfMatrix::new(
        BeApp::ALL.iter().map(|a| a.name().to_string()).collect(),
        LcApp::ALL.iter().map(|a| a.name().to_string()).collect(),
        totals.clone(),
    )
    .expect("simulated totals are valid");
    println!("{matrix}");

    // POColo's model-predicted placement vs the simulated-oracle optimum.
    let pocolo_assignment = pocolo_cluster::ClusterManager::new(
        bench.fitted.be_profiles(),
        bench.fitted.server_profiles(),
    )
    .place(Solver::Hungarian)
    .expect("placement solvable");
    let pocolo_total: f64 = pocolo_assignment
        .pairs
        .iter()
        .map(|&(r, c)| totals[r][c])
        .sum();
    let all = enumerate_all(&matrix);
    let best_total = all
        .iter()
        .map(|(_, v)| *v)
        .fold(f64::NEG_INFINITY, f64::max);
    let chosen: Vec<(String, String)> = pocolo_assignment
        .pairs
        .iter()
        .map(|&(r, c)| {
            (
                BeApp::ALL[r].name().to_string(),
                LcApp::ALL[c].name().to_string(),
            )
        })
        .collect();
    println!(
        "POColo placement {:?} total {:.4}; exhaustive optimum {:.4} ({:.1}% of optimal)",
        chosen,
        pocolo_total,
        best_total,
        100.0 * pocolo_total / best_total
    );
    Fig14 {
        pairs: BeApp::ALL
            .iter()
            .enumerate()
            .flat_map(|(bi, b)| {
                let row = &totals[bi];
                LcApp::ALL
                    .iter()
                    .enumerate()
                    .map(|(li, l)| (b.name().to_string(), l.name().to_string(), row[li]))
                    .collect::<Vec<_>>()
            })
            .collect(),
        chosen,
        pocolo_total,
        best_total,
    }
}

/// The §I headline numbers: improvements of POM and POColo over Random.
pub fn headline(runs: &PolicyRuns) {
    section("Headline (§I) — improvements over the Random baseline");
    let base = &runs.random.summary;
    let rel = |v: f64, b: f64| (v - b) / b;
    row(
        "metric",
        &[
            "POM".into(),
            "POColo".into(),
            "paper POM".into(),
            "paper POColo".into(),
        ],
    );
    row(
        "throughput",
        &[
            pct(rel(
                runs.pom.summary.avg_be_throughput,
                base.avg_be_throughput,
            )),
            pct(rel(
                runs.pocolo.summary.avg_be_throughput,
                base.avg_be_throughput,
            )),
            "+8%".into(),
            "+18%".into(),
        ],
    );
    row(
        "power",
        &[
            pct(rel(
                runs.pom.summary.avg_power_utilization,
                base.avg_power_utilization,
            )),
            pct(rel(
                runs.pocolo.summary.avg_power_utilization,
                base.avg_power_utilization,
            )),
            "-7%".into(),
            "-8%".into(),
        ],
    );
    row(
        "energy/work",
        &[
            pct(rel(
                runs.pom.summary.energy_per_throughput,
                base.energy_per_throughput,
            )),
            pct(rel(
                runs.pocolo.summary.energy_per_throughput,
                base.energy_per_throughput,
            )),
            "-16%".into(),
            "-27%".into(),
        ],
    );
}
