//! The paper's headline ordering, asserted end-to-end: POColo ≥ POM >
//! Random on best-effort throughput, with SLO adherence throughout and the
//! baseline capping far more often.

use pocolo::prelude::*;

fn runs() -> (ExperimentResult, ExperimentResult, ExperimentResult) {
    let config = ExperimentConfig {
        dwell_s: 8.0,
        ..ExperimentConfig::default()
    };
    let fitted = FittedCluster::fit(&ProfilerConfig::default());
    (
        run_experiment_with(Policy::Random { seed: 3 }, &config, &fitted),
        run_experiment_with(Policy::Pom { seed: 3 }, &config, &fitted),
        run_experiment_with(Policy::Pocolo { solver: Solver::Lp }, &config, &fitted),
    )
}

#[test]
fn throughput_ordering_and_slo() {
    let (random, pom, pocolo) = runs();

    // Fig. 12 shape: POM beats Random; POColo beats POM.
    assert!(
        pom.summary.avg_be_throughput > random.summary.avg_be_throughput * 1.02,
        "POM {} should clearly beat Random {}",
        pom.summary.avg_be_throughput,
        random.summary.avg_be_throughput
    );
    assert!(
        pocolo.summary.avg_be_throughput > pom.summary.avg_be_throughput,
        "POColo {} should beat POM {}",
        pocolo.summary.avg_be_throughput,
        pom.summary.avg_be_throughput
    );

    // The paper's magnitudes (+8% POM, +18% POColo) should be in range.
    let pom_gain = pom.summary.avg_be_throughput / random.summary.avg_be_throughput - 1.0;
    let pocolo_gain = pocolo.summary.avg_be_throughput / random.summary.avg_be_throughput - 1.0;
    assert!(
        (0.04..0.40).contains(&pom_gain),
        "POM gain {pom_gain} outside plausible band"
    );
    assert!(
        (0.10..0.45).contains(&pocolo_gain),
        "POColo gain {pocolo_gain} outside plausible band"
    );

    // SLO: violations are transient (load-step edges), never sustained.
    for r in [&random, &pom, &pocolo] {
        assert!(
            r.summary.worst_violation_frac < 0.25,
            "{} violates SLO {}% of the time",
            r.policy,
            100.0 * r.summary.worst_violation_frac
        );
    }

    // Fig. 13 mechanism: the baseline needs power capping far more often.
    assert!(
        random.summary.avg_capping_frac > 3.0 * pom.summary.avg_capping_frac,
        "Random capping {} should dwarf POM {}",
        random.summary.avg_capping_frac,
        pom.summary.avg_capping_frac
    );

    // Energy per unit of work improves under the power-aware policies.
    assert!(
        pom.summary.energy_per_throughput < random.summary.energy_per_throughput,
        "POM energy/work should improve on Random"
    );
    assert!(
        pocolo.summary.energy_per_throughput < pom.summary.energy_per_throughput,
        "POColo energy/work should improve on POM"
    );
}

#[test]
fn tco_ordering_matches_fig15() {
    let (random, pom, pocolo) = runs();
    let model = TcoModel::default();
    let scenario = |r: &ExperimentResult, cap: Option<f64>| Scenario {
        name: r.policy.clone(),
        provisioned_per_server: Watts(cap.unwrap_or_else(|| {
            r.pairs.iter().map(|p| p.metrics.power_cap.0).sum::<f64>() / r.pairs.len() as f64
        })),
        avg_power_per_server: Watts(
            r.pairs.iter().map(|p| p.metrics.avg_power().0).sum::<f64>() / r.pairs.len() as f64,
        ),
        relative_throughput: (0.5 + r.summary.avg_be_throughput)
            / (0.5 + random.summary.avg_be_throughput),
    };
    let nocap = model.monthly_cost(&scenario(&random, Some(185.0))).total();
    let base = model.monthly_cost(&scenario(&random, None)).total();
    let pom_c = model.monthly_cost(&scenario(&pom, None)).total();
    let pocolo_c = model.monthly_cost(&scenario(&pocolo, None)).total();
    assert!(pocolo_c < pom_c, "POColo TCO {pocolo_c} < POM {pom_c}");
    assert!(pom_c < base, "POM TCO {pom_c} < Random {base}");
    assert!(base < nocap, "right-sizing beats overprovisioning");
    let saving = 1.0 - pocolo_c / nocap;
    assert!(
        saving > 0.05,
        "POColo should save >5% vs Random(NoCap), got {saving}"
    );
}
