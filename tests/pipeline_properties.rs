//! Property-based tests on cross-crate invariants, driven by proptest.

use pocolo::prelude::*;
use pocolo_core::fit::{fit_indirect_utility, FitOptions, ProfileSample};
use pocolo_core::{CobbDouglas, PowerModel, ResourceSpace};
use pocolo_simserver::power::PowerDrawModel;
use proptest::prelude::*;

/// Strategy: a well-formed Cobb-Douglas indirect utility over the standard
/// cores/ways space.
fn arb_utility() -> impl Strategy<Value = IndirectUtility> {
    (
        0.5f64..500.0, // alpha0
        0.05f64..1.2,  // alpha cores
        0.05f64..1.2,  // alpha ways
        10.0f64..80.0, // static watts
        0.5f64..10.0,  // watts/core
        0.1f64..3.0,   // watts/way
    )
        .prop_map(|(a0, ac, aw, ps, pc, pw)| {
            let space = ResourceSpace::cores_and_ways();
            let perf = CobbDouglas::new(a0, vec![ac, aw]).expect("valid in range");
            let power = PowerModel::new(Watts(ps), vec![pc, pw]).expect("valid in range");
            IndirectUtility::new(space, perf, power).expect("dimensions agree")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The analytic demand never exceeds the budget and beats every point
    /// of a random feasible sample.
    #[test]
    fn demand_is_budget_feasible_and_optimal(
        utility in arb_utility(),
        budget_frac in 0.05f64..1.0,
        probe_c in 1u32..=12,
        probe_w in 1u32..=20,
    ) {
        let lo = utility.min_feasible_power();
        let hi = utility.max_power();
        let budget = lo + (hi - lo) * budget_frac;
        let allocation = utility.demand(budget).expect("budget >= min");
        prop_assert!(utility.power_model().power_of(&allocation) <= budget + Watts(1e-6));
        let value = utility.performance_model().evaluate(&allocation).unwrap();

        let amounts = [probe_c as f64, probe_w as f64];
        let probe_power = utility.power_model().power_of_amounts(&amounts).unwrap();
        if probe_power <= budget {
            let probe_perf = utility.performance_model().evaluate_amounts(&amounts).unwrap();
            prop_assert!(
                probe_perf <= value * (1.0 + 1e-9),
                "feasible probe beats the analytic optimum"
            );
        }
    }

    /// Inverting the indirect utility is consistent: the least power for a
    /// reachable target actually reaches it.
    #[test]
    fn min_power_for_is_consistent(
        utility in arb_utility(),
        target_frac in 0.05f64..0.95,
    ) {
        let best = utility.value(utility.max_power()).unwrap();
        let target = best * target_frac;
        let p = utility.min_power_for(target).expect("target under the max");
        let achieved = utility.value(p).unwrap();
        prop_assert!(achieved >= target * (1.0 - 1e-6));
        // And a slightly smaller budget cannot reach it (when not clamped
        // at the feasibility floor).
        if p > utility.min_feasible_power() + Watts(1e-3) {
            let under = utility.value(p - Watts(1e-3)).unwrap();
            prop_assert!(under <= target * (1.0 + 1e-3));
        }
    }

    /// Fitting recovers a ground-truth Cobb-Douglas model exactly from
    /// noiseless samples, end to end through the profiling sample type.
    #[test]
    fn fit_recovers_ground_truth(utility in arb_utility()) {
        let space = utility.space().clone();
        let mut samples = Vec::new();
        for c in (1..=12u32).step_by(2) {
            for w in (2..=20u32).step_by(3) {
                let amounts = vec![c as f64, w as f64];
                let perf = utility.performance_model().evaluate_amounts(&amounts).unwrap();
                let power = utility.power_model().power_of_amounts(&amounts).unwrap();
                let alloc = space.allocation(amounts).unwrap();
                samples.push(ProfileSample::best_effort(alloc, perf, power));
            }
        }
        let fitted = fit_indirect_utility(&space, &samples, &FitOptions::default()).unwrap();
        let alphas = fitted.utility.performance_model().alphas();
        let truth = utility.performance_model().alphas();
        prop_assert!((alphas[0] - truth[0]).abs() < 1e-6);
        prop_assert!((alphas[1] - truth[1]).abs() < 1e-6);
        prop_assert!(fitted.performance_r2 > 0.999999);
        prop_assert!(fitted.power_r2 > 0.999999);
    }

    /// The power capper always settles a server under its cap when the cap
    /// is reachable at the floor allocation.
    #[test]
    fn capper_always_settles_under_reachable_cap(
        be_idx in 0usize..4,
        lc_idx in 0usize..4,
        load in 0.1f64..0.9,
    ) {
        let machine = MachineSpec::xeon_e5_2650();
        let power = PowerDrawModel::new(machine.clone());
        let lc = LcModel::for_app(LcApp::ALL[lc_idx], machine.clone());
        let be = BeModel::for_app(BeApp::ALL[be_idx], machine.clone());
        let cap = lc.provisioned_power();

        let mut server = pocolo_simserver::SimServer::new(machine.clone(), cap);
        let (lc_alloc, be_alloc) = pocolo_manager::partition(
            &machine, 6, 10, machine.freq_max(), machine.freq_max());
        server.install(TenantRole::Primary, lc_alloc).unwrap();
        server.install(TenantRole::Secondary, be_alloc.unwrap()).unwrap();
        let capper = PowerCapper;
        let load_rps = load * lc.peak_load_rps();

        let mut last = Watts::ZERO;
        for _ in 0..200 {
            let lc_a = *server.allocation(TenantRole::Primary).unwrap();
            let be_a = *server.allocation(TenantRole::Secondary).unwrap();
            let total = power.server_power([
                lc.power_draw(load_rps, &lc_a, &power),
                be.power_draw(&be_a, &power),
            ]);
            last = total;
            capper.step(&mut server, total).unwrap();
        }
        // Either settled under the cap, or the secondary is at its floors
        // (primary draw alone exceeds the cap - impossible here since the
        // primary holds a half-machine allocation).
        prop_assert!(
            last <= cap * 1.01,
            "settled power {last} exceeds cap {cap}"
        );
    }

    /// Partitioning is always isolating and exhaustive, whatever the
    /// requested primary size.
    #[test]
    fn partition_is_safe(c in 0u32..20, w in 0u32..30) {
        let machine = MachineSpec::xeon_e5_2650();
        let (lc, be) = pocolo_manager::partition(
            &machine, c, w, machine.freq_max(), machine.freq_max());
        prop_assert!(lc.validate(&machine).is_ok());
        if let Some(be) = be {
            prop_assert!(be.validate(&machine).is_ok());
            prop_assert!(lc.is_disjoint_from(&be));
            prop_assert_eq!(lc.cores.count() + be.cores.count(), 12);
            prop_assert_eq!(lc.ways.count() + be.ways.count(), 20);
        }
    }

    /// Assignment solvers agree on arbitrary matrices (LP == Hungarian ==
    /// exhaustive), and random never beats them.
    #[test]
    fn solvers_agree_on_arbitrary_matrices(
        values in proptest::collection::vec(
            proptest::collection::vec(0.0f64..10.0, 4), 4),
        seed in 0u64..1000,
    ) {
        let matrix = PerfMatrix::new(
            (0..4).map(|i| format!("be{i}")).collect(),
            (0..4).map(|j| format!("lc{j}")).collect(),
            values,
        ).unwrap();
        let h = pocolo_cluster::assign::solve(&matrix, Solver::Hungarian).unwrap();
        let l = pocolo_cluster::assign::solve(&matrix, Solver::Lp).unwrap();
        let e = pocolo_cluster::assign::solve(&matrix, Solver::Exhaustive).unwrap();
        let r = pocolo_cluster::assign::solve(&matrix, Solver::Random { seed }).unwrap();
        prop_assert!((h.total - e.total).abs() < 1e-6);
        prop_assert!((l.total - e.total).abs() < 1e-6);
        prop_assert!(r.total <= e.total + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// OLS recovers arbitrary linear models exactly from noiseless data.
    #[test]
    fn ols_recovers_linear_models(
        intercept in -100.0f64..100.0,
        b1 in -10.0f64..10.0,
        b2 in -10.0f64..10.0,
    ) {
        let xs: Vec<Vec<f64>> = (0..24)
            .map(|i| vec![(i % 6) as f64, (i / 6) as f64 * 1.7])
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|r| intercept + b1 * r[0] + b2 * r[1])
            .collect();
        let fit = pocolo_core::fit::ols(&xs, &ys).unwrap();
        prop_assert!((fit.intercept - intercept).abs() < 1e-6);
        prop_assert!((fit.coefficients[0] - b1).abs() < 1e-7);
        prop_assert!((fit.coefficients[1] - b2).abs() < 1e-7);
    }

    /// Indifference curves round-trip: every traced point reproduces the
    /// target performance, and points are strictly downward-sloping.
    #[test]
    fn indifference_curves_are_exact_and_convex(
        utility in arb_utility(),
        target_frac in 0.1f64..0.8,
    ) {
        use pocolo_core::curves::indifference_curve;
        let perf = utility.performance_model();
        // Only meaningful when both exponents are positive.
        prop_assume!(perf.alphas().iter().all(|&a| a > 0.02));
        let best = perf.evaluate_amounts(&[12.0, 20.0]).unwrap();
        let worst = perf.evaluate_amounts(&[1.0, 1.0]).unwrap();
        let target = worst + (best - worst) * target_frac;
        let base = utility.space().min_allocation();
        let curve = indifference_curve(perf, &base, 0, 1, target, 16).unwrap();
        for &(c, w) in &curve {
            let v = perf.evaluate_amounts(&[c, w]).unwrap();
            prop_assert!((v - target).abs() / target < 1e-6);
        }
        for pair in curve.windows(2) {
            prop_assert!(pair[1].1 < pair[0].1, "curve must slope downward");
        }
    }

    /// The max-min fair solver never produces a worse bottleneck than the
    /// total-optimal solver.
    #[test]
    fn fairness_dominates_on_the_bottleneck(
        values in proptest::collection::vec(
            proptest::collection::vec(0.01f64..1.0, 4), 4),
    ) {
        let matrix = PerfMatrix::new(
            (0..4).map(|i| format!("be{i}")).collect(),
            (0..4).map(|j| format!("lc{j}")).collect(),
            values,
        ).unwrap();
        let min_of = |a: &pocolo_cluster::Assignment| {
            a.pairs.iter().map(|&(r, c)| matrix.value(r, c)).fold(f64::INFINITY, f64::min)
        };
        let total = pocolo_cluster::assign::solve(&matrix, Solver::Hungarian).unwrap();
        let fair = pocolo_cluster::assign::solve(&matrix, Solver::MaxMinFair).unwrap();
        prop_assert!(min_of(&fair) >= min_of(&total) - 1e-9);
        prop_assert!(fair.total <= total.total + 1e-9);
    }

    /// The spare split is always disjoint, exhaustive and validated,
    /// whatever the preferences.
    #[test]
    fn spatial_split_invariants(
        lc_c in 1u32..=10,
        lc_w in 1u32..=18,
        w1 in 0.01f64..1.0,
        w2 in 0.01f64..1.0,
    ) {
        use pocolo_manager::spatial::split_spare;
        let machine = MachineSpec::xeon_e5_2650();
        let prefs = vec![
            PreferenceVector::from_raw(vec![w1, 1.0 - w1.min(0.99)]),
            PreferenceVector::from_raw(vec![w2, 1.0 - w2.min(0.99)]),
        ];
        let parts = split_spare(&machine, lc_c, lc_w, Frequency(2.2), &prefs);
        if parts.is_empty() {
            // Legitimate only when the spare box cannot give 1+1 to both.
            prop_assert!(12 - lc_c < 2 || 20 - lc_w < 2);
        } else {
            prop_assert_eq!(parts.len(), 2);
            prop_assert!(parts[0].is_disjoint_from(&parts[1]));
            let c: u32 = parts.iter().map(|p| p.cores.count()).sum();
            let w: u32 = parts.iter().map(|p| p.ways.count()).sum();
            prop_assert_eq!(c, 12 - lc_c);
            prop_assert_eq!(w, 20 - lc_w);
            for p in &parts {
                prop_assert!(p.validate(&machine).is_ok());
            }
        }
    }
}
