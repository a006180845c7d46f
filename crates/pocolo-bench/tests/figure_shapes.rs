//! Regression guard: the paper's shapes, asserted against the figure
//! generators. If a future change breaks "who wins / by roughly what
//! factor / where crossovers fall", these tests fail.

use pocolo_bench::common::Bench;
use pocolo_bench::figures::{analysis, evaluation, motivation, tables};

fn bench() -> Bench {
    Bench::new()
}

#[test]
fn table2_is_exact() {
    let b = bench();
    let t = tables::table2(&b);
    let expect = [
        ("img-dnn", 3500.0, 20.0, 133.0),
        ("sphinx", 10.0, 3030.0, 182.0),
        ("xapian", 4000.0, 4.02, 154.0),
        ("tpcc", 8000.0, 707.0, 133.0),
    ];
    for ((app, load, slo, power), row) in expect.iter().zip(&t.rows) {
        assert_eq!(&row.0, app);
        assert_eq!(row.1, *load);
        assert_eq!(row.2, *slo);
        assert!((row.3 - power).abs() < 1.0);
    }
}

#[test]
fn fig01_overshoots_off_peak() {
    let b = bench();
    let f = motivation::fig01(&b);
    assert!(
        (6..=16).contains(&f.overshoot_hours),
        "overshoot hours {} should be a substantial minority of the day",
        f.overshoot_hours
    );
    // Utilization never exceeds the machine.
    for &(_, _, cpu, _) in &f.hourly {
        assert!(cpu <= 1.0 + 1e-9);
    }
}

#[test]
fn fig02_every_corunner_overshoots() {
    let b = bench();
    let f = motivation::fig02(&b);
    assert!(f.solo < f.provisioned * 0.5, "solo off-peak draw is low");
    for (app, power) in &f.rows {
        assert!(
            *power > f.provisioned,
            "{app} at {power} W should exceed the {} W cap",
            f.provisioned
        );
    }
}

#[test]
fn fig03_drop_ordering_matches_paper() {
    let b = bench();
    let f = motivation::fig03(&b);
    let drop_of = |name: &str| {
        f.rows
            .iter()
            .find(|(n, ..)| n == name)
            .map(|&(_, _, _, d)| d)
            .expect("app present")
    };
    // Paper: lstm/rnn ~3%, graph ~20%, pbzip between.
    assert!(drop_of("lstm") < 0.08, "lstm {}", drop_of("lstm"));
    assert!(drop_of("rnn") < 0.08, "rnn {}", drop_of("rnn"));
    assert!(
        (0.15..0.30).contains(&drop_of("graph")),
        "graph {}",
        drop_of("graph")
    );
    assert!(
        drop_of("pbzip") > drop_of("rnn") && drop_of("pbzip") < drop_of("graph"),
        "pbzip lands between"
    );
    // Unconstrained throughputs are similar (paper: "same throughput").
    for (_, free, _, _) in &f.rows {
        assert!((free - 0.95).abs() < 0.05);
    }
}

#[test]
fn fig05_path_is_monotone() {
    let b = bench();
    let f = analysis::fig05(&b);
    for pair in f.path.windows(2) {
        assert!(pair[1].3 > pair[0].3, "power grows with load");
        assert!(pair[1].1 >= pair[0].1, "cores never shrink with load");
        assert!(pair[1].2 >= pair[0].2, "ways never shrink with load");
    }
    // Iso-load curves slope downward.
    for (_, curve) in &f.curves {
        for pair in curve.windows(2) {
            assert!(pair[1].1 < pair[0].1);
        }
    }
}

#[test]
fn fig06_spare_shrinks_with_load() {
    let b = bench();
    let f = analysis::fig06(&b);
    for pair in f.spare.windows(2) {
        assert!(pair[1].1 <= pair[0].1 + 1e-9, "spare cores shrink");
        assert!(pair[1].2 <= pair[0].2 + 1e-9, "spare ways shrink");
        assert!(pair[1].3 <= pair[0].3 + 1e-9, "headroom shrinks");
    }
}

#[test]
fn fig08_r2_bands() {
    let b = bench();
    let f = analysis::fig08(&b);
    assert_eq!(f.rows.len(), 8);
    for (app, perf_r2, power_r2) in &f.rows {
        assert!(
            (0.9..1.0).contains(perf_r2),
            "{app} perf R² {perf_r2} out of band"
        );
        assert!(
            (0.85..=1.0).contains(power_r2),
            "{app} power R² {power_r2} out of band"
        );
    }
}

#[test]
fn fig09_11_preference_targets() {
    let b = bench();
    let f = analysis::fig09_11(&b);
    let pref_of = |name: &str| {
        f.rows
            .iter()
            .find(|(n, ..)| n == name)
            .map(|&(_, _, _, _, p)| p)
            .expect("app present")
    };
    assert!((pref_of("sphinx") - 0.2).abs() < 0.1);
    assert!((pref_of("lstm") - 0.13).abs() < 0.1);
    assert!((pref_of("graph") - 0.8).abs() < 0.1);
    // The §V-C reversal: sphinx looks core-preferring *directly*...
    let direct_sphinx = f
        .rows
        .iter()
        .find(|(n, ..)| n == "sphinx")
        .map(|&(_, d, ..)| d)
        .unwrap();
    assert!(direct_sphinx > 0.5);
    // ...but ways-preferring per watt.
    assert!(pref_of("sphinx") < 0.3);
}

#[test]
fn fig14_pocolo_is_at_least_97_percent_of_optimal() {
    let b = bench();
    let f = evaluation::fig14(&b);
    assert!(
        f.pocolo_total >= 0.97 * f.best_total,
        "POColo {} vs optimum {}",
        f.pocolo_total,
        f.best_total
    );
    let placed: Vec<&str> = f.chosen.iter().map(|(be, _)| be.as_str()).collect();
    assert!(placed.contains(&"graph") && placed.contains(&"lstm"));
    let lc_of = |be: &str| {
        f.chosen
            .iter()
            .find(|(b, _)| b == be)
            .map(|(_, l)| l.clone())
            .expect("placed")
    };
    assert_eq!(lc_of("graph"), "sphinx");
    assert_eq!(lc_of("lstm"), "img-dnn");
}

mod ablation_shapes {
    use pocolo_bench::common::Bench;
    use pocolo_bench::figures::ablations;

    #[test]
    fn slack_filter_improves_fit() {
        let b = Bench::new();
        let a = ablations::slack_filter(&b);
        let r2_of = |slack: f64| {
            a.rows
                .iter()
                .find(|(s, ..)| (*s - slack).abs() < 1e-9)
                .map(|&(_, _, r2)| r2)
                .expect("threshold present")
        };
        assert!(
            r2_of(0.10) > r2_of(-10.0) + 0.01,
            "the 10% guard must improve the fit: {} vs {}",
            r2_of(0.10),
            r2_of(-10.0)
        );
    }

    #[test]
    fn range_aware_beats_myopic() {
        let b = Bench::new();
        let a = ablations::myopic_placement(&b);
        assert!(a.range_aware_total > a.myopic_total);
    }

    #[test]
    fn exact_solvers_tie_random_trails() {
        let b = Bench::new();
        let a = ablations::solver_choice(&b);
        let ratio_of = |name: &str| {
            a.rows
                .iter()
                .find(|(n, ..)| n == name)
                .map(|&(_, _, r)| r)
                .expect("solver present")
        };
        assert!((ratio_of("hungarian") - 1.0).abs() < 1e-9);
        assert!((ratio_of("lp-simplex") - 1.0).abs() < 1e-9);
        assert!(ratio_of("random(avg)") < 1.0);
    }

    #[test]
    fn fairness_never_hurts_the_bottleneck() {
        let b = Bench::new();
        let a = ablations::fairness(&b);
        assert!(a.fair_objective.1 >= a.total_objective.1 - 1e-9);
        assert!(a.fair_objective.0 <= a.total_objective.0 + 1e-9);
    }

    #[test]
    fn consolidation_numbers_tell_the_story() {
        let a = ablations::consolidation(0.66);
        let per_work = |name: &str| {
            a.rows
                .iter()
                .find(|(n, ..)| n == name)
                .map(|&(_, _, c)| c)
                .expect("strategy present")
        };
        assert!(per_work("consolidation") < per_work("always-on"));
        assert!(per_work("colocation") < 0.6 * per_work("consolidation"));
    }

    #[test]
    fn spatial_sharing_beats_a_time_slice() {
        let b = Bench::new();
        let a = ablations::sharing(&b);
        assert!(a.temporal_total > 0.0);
        assert!(a.spatial_total > a.temporal_total);
    }

    #[test]
    fn re_placement_never_beats_static_and_pays_for_its_pauses() {
        let b = Bench::new();
        let a = ablations::rebalance(&b);
        let labels: Vec<&str> = a.rows.iter().map(|(l, ..)| l.as_str()).collect();
        assert_eq!(
            labels,
            ["static", "rebalance free", "rebalance 10s", "rebalance 25s"]
        );
        assert!(
            a.rows.windows(2).all(|w| w[0].1 >= w[1].1),
            "BE throughput must not rise with migration cost: {:?}",
            a.rows
        );
        assert_eq!(a.rows[0].2, 0, "static placement never migrates");
        assert!(a.rows[1].2 > 0, "phase shifts should trigger moves");
        assert!(
            a.rows[1..].iter().all(|r| r.2 == a.rows[1].2),
            "the pause changes what a move costs, not how many are made"
        );
    }
}
