//! End-to-end integration: the full pipeline from profiling to placement
//! to simulation, spanning every crate.

use pocolo::prelude::*;
use pocolo_core::fit::{fit_indirect_utility, FitOptions};
use pocolo_simserver::power::PowerDrawModel;

#[test]
fn full_pipeline_profile_fit_place_simulate() {
    // 1. Profile + fit everything.
    let fitted = FittedCluster::fit(&ProfilerConfig::default());
    assert_eq!(fitted.lc().len(), 4);
    assert_eq!(fitted.be().len(), 4);

    // 2. Place with the LP solver (the paper's choice).
    let placement = fitted.placement(Policy::Pocolo { solver: Solver::Lp });
    let mut seen = placement.clone();
    seen.sort_by_key(|a| a.name());
    seen.dedup();
    assert_eq!(seen.len(), 4, "each BE app placed exactly once");

    // 3. Simulate the placed cluster through a short sweep.
    let config = ExperimentConfig {
        dwell_s: 4.0,
        ..ExperimentConfig::default()
    };
    let result = run_experiment_with(Policy::Pocolo { solver: Solver::Lp }, &config, &fitted);
    assert_eq!(result.pairs.len(), 4);
    for pair in &result.pairs {
        assert!(
            pair.metrics.be_throughput_avg > 0.0,
            "{}+{} should make progress",
            pair.lc,
            pair.be
        );
        assert!(
            pair.metrics.power_utilization() <= 1.05,
            "{} exceeds its cap on average",
            pair.lc
        );
        assert!(pair.metrics.duration_s > 30.0);
    }
}

#[test]
fn paper_pairings_survive_the_full_stack() {
    let fitted = FittedCluster::fit(&ProfilerConfig::default());
    let placement = fitted.placement(Policy::Pocolo {
        solver: Solver::Hungarian,
    });
    // LC order is img-dnn, sphinx, xapian, tpcc.
    assert_eq!(placement[0], BeApp::Lstm, "lstm pairs with img-dnn");
    assert_eq!(placement[1], BeApp::Graph, "graph pairs with sphinx");
    assert!(
        matches!(placement[2], BeApp::Rnn | BeApp::Pbzip),
        "xapian hosts rnn or pbzip"
    );
    assert!(
        matches!(placement[3], BeApp::Rnn | BeApp::Pbzip),
        "tpcc hosts rnn or pbzip"
    );
}

#[test]
fn lp_and_hungarian_agree_end_to_end() {
    let fitted = FittedCluster::fit(&ProfilerConfig::default());
    let lp = fitted.placement(Policy::Pocolo { solver: Solver::Lp });
    let hungarian = fitted.placement(Policy::Pocolo {
        solver: Solver::Hungarian,
    });
    assert_eq!(lp, hungarian);
}

#[test]
fn fitted_models_roundtrip_through_json() {
    let machine = MachineSpec::xeon_e5_2650();
    let power = PowerDrawModel::new(machine.clone());
    let space = machine.resource_space();
    let truth = LcModel::for_app(LcApp::Xapian, machine);
    let samples = profile_lc(&truth, &power, &space, &ProfilerConfig::default());
    let fitted = fit_indirect_utility(&space, &samples, &FitOptions::default()).unwrap();

    let json = pocolo_json::to_string(&fitted.utility);
    let back: IndirectUtility = pocolo_json::typed_from_str(&json).unwrap();
    assert_eq!(fitted.utility, back);

    // And the demand solution of the deserialized model matches.
    let a = fitted.utility.demand(Watts(120.0)).unwrap();
    let b = back.demand(Watts(120.0)).unwrap();
    assert_eq!(a.amounts(), b.amounts());
}

#[test]
fn experiment_results_serialize() {
    let config = ExperimentConfig {
        dwell_s: 2.0,
        ..ExperimentConfig::default()
    };
    let fitted = FittedCluster::fit(&ProfilerConfig::default());
    let result = run_experiment_with(Policy::Pom { seed: 5 }, &config, &fitted);
    let json = pocolo_json::to_string_pretty(&result);
    assert!(json.contains("POM"));
    let back: ExperimentResult = pocolo_json::typed_from_str(&json).unwrap();
    assert_eq!(back, result);
}

#[test]
fn table2_constants_match_paper() {
    let machine = MachineSpec::xeon_e5_2650();
    let expect = [
        (LcApp::ImgDnn, 3500.0, 20.0, 133.0),
        (LcApp::Sphinx, 10.0, 3030.0, 182.0),
        (LcApp::Xapian, 4000.0, 4.020, 154.0),
        (LcApp::TpcC, 8000.0, 707.0, 133.0),
    ];
    for (app, peak, slo, watts) in expect {
        let m = LcModel::for_app(app, machine.clone());
        assert_eq!(m.peak_load_rps(), peak, "{app} peak load");
        assert_eq!(m.slo_p99_ms(), slo, "{app} SLO");
        assert!(
            (m.provisioned_power().0 - watts).abs() < 1.0,
            "{app} peak power {} vs {watts}",
            m.provisioned_power()
        );
    }
}

#[test]
fn heterogeneous_machines_work_end_to_end() {
    use pocolo_cluster::{PerfMatrixBuilder, ServerProfile};
    use pocolo_core::Frequency;
    // A bigger, next-generation box alongside the paper's Xeon.
    let xeon = MachineSpec::xeon_e5_2650();
    let big = MachineSpec::new(
        "hypothetical-16c",
        16,
        Frequency(1.4),
        Frequency(2.8),
        24,
        45.0,
        512,
        Watts(60.0),
        Watts(190.0),
    )
    .unwrap();

    let mut servers = Vec::new();
    for machine in [xeon.clone(), big] {
        let power = pocolo_simserver::power::PowerDrawModel::new(machine.clone());
        let space = machine.resource_space();
        let truth = LcModel::for_app(LcApp::Xapian, machine);
        let samples = profile_lc(&truth, &power, &space, &ProfilerConfig::default());
        let fitted = pocolo_core::fit::fit_indirect_utility(
            &space,
            &samples,
            &pocolo_core::fit::FitOptions::default(),
        )
        .unwrap();
        servers.push(ServerProfile {
            label: format!("xapian@{}c", space.descriptor(0).max()),
            utility: fitted.utility,
            power_cap: truth.provisioned_power(),
            peak_load: truth.peak_load_rps(),
        });
    }
    // Two BE candidates fitted on the Xeon.
    let power = pocolo_simserver::power::PowerDrawModel::new(xeon.clone());
    let space = xeon.resource_space();
    let bes: Vec<(String, IndirectUtility)> = [BeApp::Graph, BeApp::Lstm]
        .iter()
        .map(|&app| {
            let truth = BeModel::for_app(app, xeon.clone());
            let samples = profile_be(&truth, &power, &space, &ProfilerConfig::default());
            let fitted = pocolo_core::fit::fit_indirect_utility(
                &space,
                &samples,
                &pocolo_core::fit::FitOptions::default(),
            )
            .unwrap();
            (app.name().to_string(), fitted.utility)
        })
        .collect();

    let matrix = PerfMatrixBuilder::new().build(&bes, &servers).unwrap();
    assert_eq!(matrix.rows(), 2);
    assert_eq!(matrix.cols(), 2);
    for r in 0..2 {
        // The bigger machine leaves more spare capacity at every load.
        assert!(matrix.value(r, 1) > matrix.value(r, 0), "row {r}: {matrix}");
    }
    let assignment = pocolo_cluster::assign::solve(&matrix, Solver::Hungarian).unwrap();
    assert_eq!(assignment.pairs.len(), 2);
}
