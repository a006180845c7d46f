//! A simulated day in a power-constrained datacenter: the four-server
//! cluster rides a diurnal load curve under each of the three policies,
//! reporting throughput, power and SLO compliance.
//!
//! ```text
//! cargo run --release -p pocolo --example datacenter_day
//! ```

use pocolo::prelude::*;

fn main() {
    // One compressed "day": the diurnal curve squeezed into 6 simulated
    // minutes so the example finishes quickly. Control periods stay at the
    // paper's 1 s / 100 ms.
    let day_s = 360.0;
    let trace = LoadTrace::diurnal(0.1, 0.9, day_s);
    let config = ExperimentConfig {
        seed: 77,
        ..ExperimentConfig::default()
    };
    println!("fitting models for all eight applications...");
    let fitted = FittedCluster::fit(&ProfilerConfig::default());

    println!(
        "{:>8} {:>10} {:>10} {:>12} {:>10}",
        "policy", "BE thpt", "power", "energy (kJ)", "SLO viol"
    );
    let plans = [
        Policy::Random { seed: 42 },
        Policy::Pom { seed: 42 },
        Policy::Pocolo { solver: Solver::Lp },
    ]
    .map(|policy| {
        let plan = RunPlan::compile(fitted.plan_inputs(), policy, &config, day_s);
        (policy, plan)
    });
    for (policy, plan) in &plans {
        let (result, _) = plan.play(&trace, config.parallelism, false);
        let s = result.summary;
        println!(
            "{:>8} {:>10.3} {:>9.1}% {:>12.1} {:>9.1}%",
            policy.name(),
            s.avg_be_throughput,
            100.0 * s.avg_power_utilization,
            s.total_energy.0 / 1000.0,
            100.0 * s.worst_violation_frac,
        );
    }
    println!("\nPlacements chosen:");
    for (policy, plan) in [&plans[0], &plans[2]] {
        let pairs: Vec<String> = fitted
            .lc()
            .iter()
            .zip(plan.placement())
            .map(|((lc, _, _), be)| format!("{}+{}", lc.name(), be.name()))
            .collect();
        println!("  {:>8}: {}", policy.name(), pairs.join("  "));
    }
}
